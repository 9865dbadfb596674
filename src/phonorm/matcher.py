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
dynamic program. best_matches returns the identical result for each query of
a list, in input order. A query equal to a standard is answered from the
dictionary's hash of its raw standards. All other queries of a call go
through one kernel: the same dynamic program, one query character at a time,
over every (query, standard) pair at once, on an index built once per
(dictionary, canonicalization) and kept on the dictionary. The kernel takes
at most MATCH_CHUNK_CELLS query x standard pairs per pass, so its scratch
memory per pass is bounded whatever the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .lexicon import TransliterationDictionary, read_input

STANDARD = "standard"
MODIFIED = "modified"
MODES = (STANDARD, MODIFIED)


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
    def _translation(self) -> dict[int, str]:
        """The str.translate table that maps every member to its representative,
        the lowest code point of its class, so the choice is deterministic."""
        return str.maketrans({ch: min(cls) for cls in self.classes for ch in cls})


DEFAULT_EQUIVALENCE_CLASSES = EquivalenceClasses.from_strings(("ao", "bv"))
NO_EQUIVALENCE = EquivalenceClasses(())


def load_equivalence_classes(path) -> EquivalenceClasses:
    """Read class definitions: one line of characters per class, blank lines ignored."""
    groups = []
    for line in read_input(path):
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


def _canonicalization(mode: str, eq: EquivalenceClasses) -> EquivalenceClasses:
    """The classes that mode matches under; raises for a bad mode."""
    if mode == STANDARD:
        return NO_EQUIVALENCE
    if mode == MODIFIED:
        return eq
    raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def best_match(
    query: str,
    dictionary: TransliterationDictionary,
    mode: str = MODIFIED,
    eq: EquivalenceClasses = DEFAULT_EQUIVALENCE_CLASSES,
) -> MatchResult:
    """Scan the whole dictionary and return the least-distance entry."""
    eq = _canonicalization(mode, eq)
    canonical_query = canonicalize(query, eq)
    # the module docstring's order: distance, then more matches, then index
    distance, negative_score, index = min(
        (levenshtein(canonical_query, canonicalize(standard, eq)), -tie_break_score(query, standard), index)
        for index, standard in enumerate(dictionary.standards)
    )
    return MatchResult(dictionary.standards[index], distance, -negative_score, index, mode)


def _code_points(s: str) -> np.ndarray:
    # surrogatepass: a lone surrogate (say, from an undecodable argv byte) is
    # one code point like any other
    return np.frombuffer(s.encode("utf-32-le", "surrogatepass"), dtype="<u4")


# the table types the kernel tries, narrowest first
_TABLE_DTYPES = (np.int8, np.int16, np.int32)


class _Index:
    """One dictionary's standards, prepared for matching under one canonicalization.

    columns[j] holds code point j of every canonicalized standard, padded
    to the longest: standard column first, as in the kernel's tables, so one
    comparison with a query character covers a whole row. It is the
    transpose of one padded (standards, width) code array. The kernel
    computes cells past a standard's length too, but a distance is read at
    the standard's own length, which no later column changes.
    """

    def __init__(self, standards: tuple[str, ...], eq: EquivalenceClasses):
        n = len(standards)
        self.lengths = np.array(list(map(len, standards)))
        width = int(self.lengths.max())
        # canonicalization keeps lengths, so padding first is the same
        padded = canonicalize("".join(s.ljust(width) for s in standards), eq)
        self.columns = np.ascontiguousarray(_code_points(padded).reshape(n, width).T)
        self.entries = np.arange(n)

    def distances(self, canonical_queries: list[str]) -> np.ndarray:
        """Levenshtein distance from each query to every standard, (queries, n).

        Wagner-Fischer (1974) one query character at a time, in offset form:
        P[j, q, k] = D[j, q, k] - j, where D is the distance from the prefix
        of query q read so far to the first j characters of standard k. Row 0
        is all zeros, and row i is
            P[0] = i,
            P[j] = min(P_prev[j] + 1, P_prev[j - 1] - same[j], P[j - 1]),
        where same[j] says that query character i equals standard character
        j. The first two terms read only row i - 1, so each is one numpy call
        over the whole (width, queries, standards) row; the third, insertion,
        is a running minimum down the row, one call per standard column. Two
        ping-pong tables hold rows i - 1 and i. Query q's distance to
        standard k is P[len(k), q, k] + len(k), read at row len(q). Queries
        shorter than the longest step on over padding after that row;
        nothing reads those cells.
        """
        width, n = self.columns.shape
        count = len(canonical_queries)
        query_lengths = np.array(list(map(len, canonical_queries)))
        longest_query = int(query_lengths.max())
        # offset-form values lie in [-width, longest_query], and a deletion
        # term adds 1 before the minimum
        longest = max(width, longest_query) + 1
        dtype = next(t for t in _TABLE_DTYPES if longest <= np.iinfo(t).max)
        codes = np.zeros((longest_query, count, 1), dtype=self.columns.dtype)
        for q, query in enumerate(canonical_queries):
            codes[: len(query), q, 0] = _code_points(query)
        # the queries of length i are by_length[first[i]:first[i + 1]]
        by_length = np.argsort(query_lengths, kind="stable")
        first = np.searchsorted(query_lengths[by_length], np.arange(longest_query + 2))
        columns = self.columns[:, None]
        prev = np.zeros((width + 1, count, n), dtype=dtype)
        cur = np.empty_like(prev)
        same = np.empty((width, count, n), dtype=bool)
        diagonal = np.empty(same.shape, dtype=dtype)
        out = np.zeros((count, n), dtype=dtype)  # row 0, an empty query's P
        for i in range(1, longest_query + 1):
            np.equal(codes[i - 1], columns, out=same)
            np.subtract(prev[:-1], same, out=diagonal)  # substitution
            np.add(prev[1:], 1, out=cur[1:])  # deletion
            np.minimum(cur[1:], diagonal, out=cur[1:])
            cur[0] = i
            for j in range(1, width + 1):
                np.minimum(cur[j], cur[j - 1], out=cur[j])  # insertion
            done = by_length[first[i] : first[i + 1]]
            if done.size:
                out[done] = cur[self.lengths, done[:, None], self.entries]
            prev, cur = cur, prev
        out += self.lengths
        return out


def _index(dictionary: TransliterationDictionary, eq: EquivalenceClasses) -> _Index:
    indexes = dictionary.match_indexes
    index = indexes.get(eq)
    if index is None:
        index = indexes[eq] = _Index(dictionary.standards, eq)
    return index


# query x standard pairs that one kernel pass scores at once. Each whole-row
# call of a pass touches width x this many cells, and its scratch (two int8
# tables of (width + 1) x pairs, the bool same and one int8 temporary of
# width x pairs) is about 0.36 MB at 200 entries of up to 5 characters (81
# queries a pass) and 0.45 MB at 5k entries of up to 7 (3 queries); int16
# tables, for queries or standards of 127 characters or more, take about
# 1.8 times as much. With int16 tables, stacked calls ran fastest at this size
# among 2^12 to 2^16; at 2^16 (3.4 MB a pass at 5k) they ran up to 2x
# slower. A dictionary of more entries is scored one query per pass.
MATCH_CHUNK_CELLS = 1 << 14


def best_matches(
    queries,
    dictionary: TransliterationDictionary,
    mode: str = MODIFIED,
    eq: EquivalenceClasses = DEFAULT_EQUIVALENCE_CLASSES,
) -> list[MatchResult]:
    """best_match of every query, in input order, from the dictionary's index.

    A query equal to a standard returns that standard's first entry at
    distance 0, as the scan would. All other queries are scored together,
    in chunks of at most MATCH_CHUNK_CELLS query x standard pairs, and ties
    among each query's closest entries are broken as in the scan.
    """
    eq = _canonicalization(mode, eq)
    standards = dictionary.standards
    queries = list(queries)
    results: list[MatchResult | None] = [None] * len(queries)
    scored = []
    for position, query in enumerate(queries):
        if dictionary.natives(query):
            # an exact raw hit, known from the hash the dictionary keeps for
            # reverse lookup; a second hash of every standard would cost memory
            hit = standards.index(query)
            results[position] = MatchResult(standards[hit], 0, len(query), hit, mode)
        else:
            scored.append(position)
    step = max(1, MATCH_CHUNK_CELLS // len(standards))
    for start in range(0, len(scored), step):
        chunk = scored[start : start + step]
        distances = _index(dictionary, eq).distances([canonicalize(queries[p], eq) for p in chunk])
        for position, row in zip(chunk, distances):
            query = queries[position]
            best_distance = row.min()
            candidates = np.flatnonzero(row == best_distance).tolist()
            # max keeps the first, i.e. lowest-index, of equally scored candidates
            best_index = max(candidates, key=lambda k: tie_break_score(query, standards[k]))
            results[position] = MatchResult(
                matched_standard=standards[best_index],
                distance=int(best_distance),
                tie_break_score=tie_break_score(query, standards[best_index]),
                dictionary_index=best_index,
                mode=mode,
            )
    return results
