"""Dictionary matching by edit distance.

The matcher scans every standard transliteration in the dictionary and keeps
the entry with the least Levenshtein distance. Ties go to the candidate with
more position-by-position character matches against the query (computed on
the raw strings), then to the earlier dictionary entry.

The modified distance treats configured character classes (default {a,o} and
{b,v}) as identical, so substitutions inside a class are free. It is the
plain distance between the canonicalized strings, computed by the same
dynamic program.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable

from .lexicon import TransliterationDictionary

STANDARD = "standard"
MODIFIED = "modified"
_MODES = (STANDARD, MODIFIED)


class EquivalenceClassError(ValueError):
    """Raised for ill-formed equivalence class definitions."""


@dataclass(frozen=True)
class EquivalenceClasses:
    """Disjoint character sets whose members are interchangeable for matching."""

    classes: tuple[frozenset[str], ...]

    def __post_init__(self):
        seen: set[str] = set()
        for cls in self.classes:
            if len(cls) < 2:
                raise EquivalenceClassError("each equivalence class needs at least 2 characters")
            for ch in cls:
                if len(ch) != 1:
                    raise EquivalenceClassError(f"class member {ch!r} is not a single character")
                if ch in seen:
                    raise EquivalenceClassError(f"character {ch!r} appears in more than one class")
                seen.add(ch)

    @classmethod
    def from_strings(cls, groups: Iterable[str]) -> "EquivalenceClasses":
        return cls(tuple(frozenset(group) for group in groups))

    @cached_property
    def representative_map(self) -> dict[str, str]:
        # representative = lowest code point in the class, deterministic
        return {ch: min(cls) for cls in self.classes for ch in cls}

    def representative(self, ch: str) -> str:
        return self.representative_map.get(ch, ch)


DEFAULT_EQUIVALENCE_CLASSES = EquivalenceClasses.from_strings(("ao", "bv"))
NO_EQUIVALENCE = EquivalenceClasses(())


def load_equivalence_classes(path) -> EquivalenceClasses:
    """Read class definitions: one line of characters per class, blank lines ignored."""
    groups = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        group = line.strip()
        if group:
            groups.append(group)
    return EquivalenceClasses.from_strings(groups)


def levenshtein(a: str, b: str) -> int:
    """Minimum number of single-character insertions, deletions and
    substitutions converting one string into the other.

    Two-row dynamic program: O(len(a) * len(b)) time, O(min(len)) space.
    """
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def canonicalize(s: str, eq: EquivalenceClasses) -> str:
    """Replace every character by its class representative."""
    rep = eq.representative_map
    return "".join(rep.get(ch, ch) for ch in s)


def modified_levenshtein(a: str, b: str, eq: EquivalenceClasses) -> int:
    """Edit distance where characters within one equivalence class are identical.

    Defined as the standard distance between the canonicalized strings.
    """
    return levenshtein(canonicalize(a, eq), canonicalize(b, eq))


def tie_break_score(query: str, candidate: str) -> int:
    """Count of positions where query and candidate carry the same character.

    Computed left to right on the raw strings over the overlap of the two
    lengths; a higher count wins ties between equally distant candidates.
    """
    return sum(1 for qc, cc in zip(query, candidate) if qc == cc)


@dataclass(frozen=True)
class MatchResult:
    """Winning dictionary entry for one query."""

    matched_standard: str
    distance: int
    tie_break_score: int
    dictionary_index: int
    mode: str


def _distance_fn(mode: str, eq: EquivalenceClasses):
    if mode == STANDARD:
        return levenshtein
    if mode == MODIFIED:
        return lambda a, b: modified_levenshtein(a, b, eq)
    raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


def _scan(query, dictionary, mode, eq, prune: bool) -> MatchResult:
    if len(dictionary) == 0:
        raise ValueError("cannot match against an empty dictionary")
    dist = _distance_fn(mode, eq)
    best_distance = None
    best_score = -1
    best_index = -1
    best_standard = None
    qlen = len(query)
    for index, standard in enumerate(dictionary.standards):
        if prune and best_distance is not None and abs(len(standard) - qlen) > best_distance:
            # length gap is a lower bound on the distance, so this entry can
            # neither win nor tie
            continue
        d = dist(query, standard)
        if best_distance is None or d < best_distance:
            best_distance = d
            best_score = tie_break_score(query, standard)
            best_index = index
            best_standard = standard
            if prune and d == 0 and best_score == qlen:
                # exact raw hit; no later entry can beat distance 0 with a
                # higher score, and equal ties lose on index
                break
        elif d == best_distance:
            score = tie_break_score(query, standard)
            if score > best_score:
                best_score = score
                best_index = index
                best_standard = standard
    return MatchResult(
        matched_standard=best_standard,
        distance=best_distance,
        tie_break_score=best_score,
        dictionary_index=best_index,
        mode=mode,
    )


def best_match(
    query: str,
    dictionary: TransliterationDictionary,
    mode: str = MODIFIED,
    eq: EquivalenceClasses = DEFAULT_EQUIVALENCE_CLASSES,
) -> MatchResult:
    """Scan the whole dictionary and return the least-distance entry."""
    return _scan(query, dictionary, mode, eq, prune=False)


def best_match_pruned(
    query: str,
    dictionary: TransliterationDictionary,
    mode: str = MODIFIED,
    eq: EquivalenceClasses = DEFAULT_EQUIVALENCE_CLASSES,
) -> MatchResult:
    """best_match with length-filter pruning; returns the identical result.

    Entries whose length differs from the query by more than the best
    distance seen so far are skipped without computing the distance.
    """
    return _scan(query, dictionary, mode, eq, prune=True)
