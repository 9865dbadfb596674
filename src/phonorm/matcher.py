"""Dictionary matching by edit distance.

The answer is the dictionary entry with the least Levenshtein distance to the
query. Ties go to the candidate with more position-by-position character
matches against the query (computed on the raw strings), then to the earlier
dictionary entry.

The modified distance treats configured character classes (default {a,o} and
{b,v}) as identical, so substitutions inside a class are free. It is the
plain distance between the canonicalized strings, computed by the same
dynamic program.

best_match is the reference: it scans every standard with the pure-Python
dynamic program. best_match_pruned returns the identical result. It answers a
query equal to a standard from the dictionary's hash of its raw standards,
and runs any other query through the same dynamic program over all
canonicalized standards at once, one numpy step per query character, on an
index built once per (dictionary, canonicalization) and kept on the
dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np

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

    @cached_property
    def _translation(self) -> dict[int, str]:
        """The str.translate table that maps every member to its representative."""
        return str.maketrans(self.representative_map)


DEFAULT_EQUIVALENCE_CLASSES = EquivalenceClasses.from_strings(("ao", "bv"))
NO_EQUIVALENCE = EquivalenceClasses(())


def load_equivalence_classes(path) -> EquivalenceClasses:
    """Read class definitions: one line of characters per class, blank lines ignored."""
    groups = []
    for line in Path(path).read_text(encoding="utf-8-sig").splitlines():
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
    return s.translate(eq._translation)


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


def _canonicalization(dictionary, mode: str, eq: EquivalenceClasses) -> EquivalenceClasses:
    """The classes that mode matches under; raises for an empty dictionary or bad mode."""
    if len(dictionary) == 0:
        raise ValueError("cannot match against an empty dictionary")
    if mode == STANDARD:
        return NO_EQUIVALENCE
    if mode == MODIFIED:
        return eq
    raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


def best_match(
    query: str,
    dictionary: TransliterationDictionary,
    mode: str = MODIFIED,
    eq: EquivalenceClasses = DEFAULT_EQUIVALENCE_CLASSES,
) -> MatchResult:
    """Scan the whole dictionary and return the least-distance entry."""
    eq = _canonicalization(dictionary, mode, eq)
    canonical_query = canonicalize(query, eq)
    best_distance = None
    best_score = -1
    best_index = -1
    for index, standard in enumerate(dictionary.standards):
        d = levenshtein(canonical_query, canonicalize(standard, eq))
        if best_distance is None or d < best_distance:
            best_distance = d
            best_score = tie_break_score(query, standard)
            best_index = index
        elif d == best_distance:
            score = tie_break_score(query, standard)
            if score > best_score:
                best_score = score
                best_index = index
    return MatchResult(
        matched_standard=dictionary.standards[best_index],
        distance=best_distance,
        tie_break_score=best_score,
        dictionary_index=best_index,
        mode=mode,
    )


def _code_points(s: str) -> np.ndarray:
    # surrogatepass: a lone surrogate (say, from an undecodable argv byte) is
    # one code point like any other
    return np.frombuffer(s.encode("utf-32-le", "surrogatepass"), dtype="<u4")


class _Index:
    """One dictionary's standards, prepared for matching under one canonicalization.

    codes[k] holds the code points of canonicalized standard k, padded to
    the longest standard; the padding is never read, because cell (i, j) of
    the dynamic program reads codes[k, :j] only.
    """

    def __init__(self, standards: tuple[str, ...], eq: EquivalenceClasses):
        n = len(standards)
        lengths = np.array(list(map(len, standards)))
        width = int(lengths.max())
        # canonicalization keeps lengths, so padding first is the same
        padded = canonicalize("".join(s.ljust(width) for s in standards), eq)
        self.codes = _code_points(padded).reshape(n, width)
        # flat position of D[k, len(standard k)] in the (n, width + 1) table
        self.ends = np.arange(n) * (width + 1) + lengths

    def distances(self, canonical_query: str) -> np.ndarray:
        """Levenshtein distance from the query to every standard.

        Wagner-Fischer with one row per standard: D[k, j] is the distance
        from the query prefix read so far to the first j characters of
        standard k, advanced one query character at a time. Along a row the
        insertion term is a running minimum: D[k, j] = min over l <= j of
        tmp[k, l] + (j - l).
        """
        n, width = self.codes.shape
        longest = max(width, len(canonical_query)) + 1
        dtype = np.int16 if longest <= np.iinfo(np.int16).max else np.int32
        cols = np.arange(width + 1, dtype=dtype)
        dist = np.tile(cols, (n, 1))  # D[k, j] = j for the empty prefix
        tmp = np.empty_like(dist)
        differs = np.empty(self.codes.shape, dtype=bool)
        for i, code in enumerate(_code_points(canonical_query), start=1):
            np.not_equal(self.codes, code, out=differs)
            np.add(dist[:, :-1], differs, out=tmp[:, 1:], dtype=dtype)  # substitution
            dist += 1
            np.minimum(tmp[:, 1:], dist[:, 1:], out=tmp[:, 1:])  # deletion
            tmp[:, 0] = i
            tmp -= cols
            np.minimum.accumulate(tmp, axis=1, out=dist)  # insertion
            dist += cols
        return dist.ravel()[self.ends]


def _index(dictionary: TransliterationDictionary, eq: EquivalenceClasses) -> _Index:
    indexes = dictionary.match_indexes
    index = indexes.get(eq)
    if index is None:
        index = indexes[eq] = _Index(dictionary.standards, eq)
    return index


def best_match_pruned(
    query: str,
    dictionary: TransliterationDictionary,
    mode: str = MODIFIED,
    eq: EquivalenceClasses = DEFAULT_EQUIVALENCE_CLASSES,
) -> MatchResult:
    """best_match from the dictionary's index; returns the identical result.

    A query equal to a standard returns that standard's first entry at
    distance 0, as the scan would. Otherwise all distances come from one
    vectorized pass, and ties among the closest entries are broken as in
    the scan.
    """
    eq = _canonicalization(dictionary, mode, eq)
    standards = dictionary.standards
    if dictionary.natives(query):
        # an exact raw hit, known from the hash the dictionary keeps for
        # reverse lookup; a second hash of every standard would cost memory
        hit = standards.index(query)
        return MatchResult(standards[hit], 0, len(query), hit, mode)
    distances = _index(dictionary, eq).distances(canonicalize(query, eq))
    best_distance = distances.min()
    candidates = np.flatnonzero(distances == best_distance).tolist()
    # max keeps the first, i.e. lowest-index, of equally scored candidates
    best_index = max(candidates, key=lambda k: tie_break_score(query, standards[k]))
    return MatchResult(
        matched_standard=standards[best_index],
        distance=int(best_distance),
        tie_break_score=tie_break_score(query, standards[best_index]),
        dictionary_index=best_index,
        mode=mode,
    )
