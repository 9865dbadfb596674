"""TSV-backed lexicons.

Three shapes share one file format (UTF-8 with any leading byte-order mark
ignored, one `<col1>\\t<col2>\\n` pair per line, no comments or blank lines):

* parallel lexicon: user transliteration -> canonical transliteration,
  training data for the character model;
* transliteration dictionary: native-script word -> canonical
  transliteration, scanned during matching and used in reverse for
  back-transliteration;
* test set: input word -> gold canonical transliteration.

Loading preserves file order exactly; several matching tie-breaks depend on
it. Serializing always terminates the last line with a newline, so a file
that lacked one round-trips with that single byte added.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import ClassVar


class LexiconFormatError(ValueError):
    """Raised for files that do not follow the two-column TSV contract."""


def read_input(path) -> list[str]:
    """The lines of an input file: UTF-8, with a leading byte-order mark
    dropped, split at each newline after universal-newline translation
    (`\\r\\n` and `\\r` read as `\\n`), a final newline ending the last line.
    No other character, such as U+0085 or U+2028, ends a line. A byte that
    is not UTF-8 raises ValueError naming the file."""
    try:
        # utf-8, not utf-8-sig, so that the offset counts from the first byte
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    text = text.removeprefix("\ufeff")
    return text.removesuffix("\n").split("\n") if text else []


def _parse_pairs(path, what: str) -> tuple[tuple[str, str], ...]:
    lines = read_input(path)
    if lines in ([], [""]):  # no text, or a lone newline
        raise LexiconFormatError(f"{path}: empty {what} file")
    pairs = []
    for lineno, line in enumerate(lines, start=1):
        cols = line.split("\t")
        if len(cols) != 2:
            raise LexiconFormatError(
                f"{path}:{lineno}: expected 2 tab-separated columns, got {len(cols)}"
            )
        first, second = cols
        if not first or not second:
            raise LexiconFormatError(f"{path}:{lineno}: empty field")
        pairs.append((first, second))
    return tuple(pairs)


def _write_pairs(entries, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for first, second in entries:
            fh.write(f"{first}\t{second}\n")


@dataclass(frozen=True)
class _PairTable:
    """Ordered two-column table: at least one entry, no field empty.

    The three lexicon shapes below differ only in name and in what they
    derive from the entries.
    """

    entries: tuple[tuple[str, str], ...]
    kind: ClassVar[str]  # names the table in error messages

    def __post_init__(self):
        if not self.entries:
            raise LexiconFormatError(f"empty {self.kind}")
        for pos, (first, second) in enumerate(self.entries):
            if not first or not second:
                raise LexiconFormatError(f"{self.kind} entry {pos} has an empty field")

    def __len__(self) -> int:
        return len(self.entries)


class ParallelLexicon(_PairTable):
    """Ordered (source, target) training pairs.

    Duplicate pairs and repeated sources with different targets are kept;
    the variation is the point of the data.
    """

    kind = "parallel lexicon"


class TransliterationDictionary(_PairTable):
    """Ordered (native, standard) entries; order matches the source file."""

    kind = "dictionary"

    @cached_property
    def standards(self) -> tuple[str, ...]:
        return tuple(std for _, std in self.entries)

    @cached_property
    def standard_set(self) -> frozenset[str]:
        return frozenset(self.standards)

    @cached_property
    def match_indexes(self) -> dict:
        """Search indexes over the standards, one per canonicalization.

        phonorm.matcher builds each on first use and keeps it here; the
        entries are frozen, so an index never goes stale.
        """
        return {}

    @cached_property
    def result_memos(self) -> dict:
        """Results of the setups without the model, one memo of word ->
        result per (classes, mode, digit table).

        phonorm.pipeline fills and bounds them; the entries are frozen, so a
        memo never goes stale.
        """
        return {}

    @cached_property
    def _natives_by_standard(self) -> dict[str, tuple[str, ...]]:
        by_standard: dict[str, list[str]] = {}
        for native, std in self.entries:
            by_standard.setdefault(std, []).append(native)
        return {std: tuple(natives) for std, natives in by_standard.items()}

    def natives(self, standard: str) -> tuple[str, ...]:
        """All native forms whose standard transliteration equals `standard` exactly.

        Matching is case-sensitive; results come back in file order, and an
        unknown standard yields an empty tuple. The tuple is the dictionary's
        own, so every caller shares it.
        """
        return self._natives_by_standard.get(standard, ())


class TestSet(_PairTable):
    """Ordered (input, gold) evaluation pairs."""

    __test__ = False  # not a pytest class, despite the name
    kind = "test set"


def load_parallel_lexicon(path) -> ParallelLexicon:
    """Load a parallel lexicon, preserving entry order and duplicates."""
    return ParallelLexicon(_parse_pairs(path, ParallelLexicon.kind))


def load_dictionary(path) -> TransliterationDictionary:
    """Load a transliteration dictionary, preserving entry order."""
    return TransliterationDictionary(_parse_pairs(path, TransliterationDictionary.kind))


def load_test_set(path) -> TestSet:
    """Load a test set of (input, gold) pairs."""
    return TestSet(_parse_pairs(path, TestSet.kind))


def save_parallel_lexicon(lexicon: ParallelLexicon, path) -> None:
    _write_pairs(lexicon.entries, path)


def save_dictionary(dictionary: TransliterationDictionary, path) -> None:
    _write_pairs(dictionary.entries, path)


def save_test_set(testset: TestSet, path) -> None:
    _write_pairs(testset.entries, path)
