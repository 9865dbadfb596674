"""Tests for edit distances, equivalence classes and dictionary matching."""

from __future__ import annotations

import functools
import random
from pathlib import Path

import numpy as np
import pytest

from phonorm.lexicon import LexiconFormatError, TransliterationDictionary
from phonorm.matcher import (
    DEFAULT_EQUIVALENCE_CLASSES,
    MATCH_CHUNK_CELLS,
    MODIFIED,
    NO_EQUIVALENCE,
    STANDARD,
    EquivalenceClassError,
    EquivalenceClasses,
    _Index,
    best_match,
    best_matches,
    canonicalize,
    levenshtein,
    load_equivalence_classes,
    modified_levenshtein,
    tie_break_score,
)
from phonorm.pipeline import normalize


def make_dict(standards):
    return TransliterationDictionary(
        entries=tuple((f"n{i}", s) for i, s in enumerate(standards))
    )


def naive_levenshtein(a: str, b: str) -> int:
    """Textbook recursion with memoization, used as an oracle."""

    @functools.cache
    def go(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        return min(
            go(i + 1, j) + 1,
            go(i, j + 1) + 1,
            go(i + 1, j + 1) + (a[i] != b[j]),
        )

    return go(0, 0)


@pytest.mark.parametrize(
    ("a", "b", "expected"),
    [
        ("", "", 0),
        ("", "abc", 3),
        ("abc", "", 3),
        ("abc", "abc", 0),
        ("kitten", "sitting", 3),
        ("flaw", "lawn", 2),
        ("chalo", "chala", 1),
    ],
)
def test_levenshtein_known_distances(a, b, expected):
    assert levenshtein(a, b) == expected


def test_levenshtein_matches_naive_recursion():
    rng = random.Random(101)
    alphabet = "abcd"
    for _ in range(250):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        assert levenshtein(a, b) == naive_levenshtein(a, b)


def test_levenshtein_basic_properties():
    rng = random.Random(77)
    alphabet = "abcxyz"
    for _ in range(200):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 7)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 7)))
        d = levenshtein(a, b)
        assert d == levenshtein(b, a)
        assert d <= max(len(a), len(b))
        assert d >= abs(len(a) - len(b))
        assert (d == 0) == (a == b)


def test_equivalence_class_representatives():
    eq = DEFAULT_EQUIVALENCE_CLASSES
    # each member maps to its class's lowest code point; others stay
    assert canonicalize("aovbz", eq) == "aabbz"
    assert canonicalize("aovbz", NO_EQUIVALENCE) == "aovbz"


@pytest.mark.parametrize(
    "groups",
    [
        ("a",),  # singleton class
        ("ao", "ob"),  # overlapping classes
        ("ao", "b"),  # second class singleton
    ],
)
def test_equivalence_class_validation(groups):
    with pytest.raises(EquivalenceClassError):
        EquivalenceClasses.from_strings(groups)


def test_equivalence_class_member_must_be_single_char():
    with pytest.raises(EquivalenceClassError):
        EquivalenceClasses((frozenset({"ab", "c"}),))


def test_canonicalize():
    eq = DEFAULT_EQUIVALENCE_CLASSES
    assert canonicalize("chalo", eq) == "chala"
    assert canonicalize("vob", eq) == "bab"
    assert canonicalize("xyz", eq) == "xyz"
    assert canonicalize("chalo", NO_EQUIVALENCE) == "chalo"


def test_modified_known_distances():
    eq = DEFAULT_EQUIVALENCE_CLASSES
    assert modified_levenshtein("chalo", "chala", eq) == 0
    assert modified_levenshtein("vala", "bola", eq) == 0
    assert modified_levenshtein("kal", "kol", eq) == 0
    assert levenshtein("kal", "kol") == 1
    assert modified_levenshtein("kal", "kil", eq) == 1


def test_modified_equals_canonical_standard():
    rng = random.Random(13)
    eq = DEFAULT_EQUIVALENCE_CLASSES
    alphabet = "aobvxy"
    for _ in range(500):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 7)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 7)))
        assert modified_levenshtein(a, b, eq) == levenshtein(
            canonicalize(a, eq), canonicalize(b, eq)
        )


def test_tie_break_score_counts_matching_positions():
    assert tie_break_score("kal", "kol") == 2
    assert tie_break_score("kal", "lak") == 1
    assert tie_break_score("ab", "abc") == 2
    assert tie_break_score("", "abc") == 0
    assert tie_break_score("abc", "abc") == 3


def test_best_match_prefers_least_distance():
    d = make_dict(["xxxx", "bad", "bda"])
    result = best_match("bad", d, mode=STANDARD)
    assert result.matched_standard == "bad"
    assert result.distance == 0
    assert result.dictionary_index == 1
    assert result.mode == STANDARD


def test_best_match_tie_prefers_positional_overlap():
    # both are one edit away, but "abcd" shares all three positions
    d = make_dict(["abd", "abcd"])
    result = best_match("abc", d, mode=STANDARD)
    assert result.distance == 1
    assert result.matched_standard == "abcd"
    assert result.tie_break_score == 3


def test_best_match_equal_tie_prefers_earlier_entry():
    d = make_dict(["abx", "aby"])
    result = best_match("abc", d, mode=STANDARD)
    assert result.distance == 1
    assert result.dictionary_index == 0
    assert result.matched_standard == "abx"


def test_best_match_modes_differ_on_class_swaps():
    d = make_dict(["chala"])
    assert best_match("chalo", d, mode=MODIFIED).distance == 0
    assert best_match("chalo", d, mode=STANDARD).distance == 1
    # modified is the default
    assert best_match("chalo", d).distance == 0


def test_best_match_rejects_empty_dictionary_and_bad_mode():
    # an empty dictionary is refused where it is built, before any match
    with pytest.raises(LexiconFormatError, match="^empty dictionary$"):
        TransliterationDictionary(entries=())
    for match in (best_match, lambda query, d, mode=MODIFIED: best_matches([query], d, mode), normalize):
        with pytest.raises(ValueError):
            match("abc", make_dict(["abc"]), mode="fuzzy")


def random_word(rng, alphabet, lo, hi):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


MIXED_ALPHABET = "aobvklsteéçকখ"
MIXED_CLASSES = [
    DEFAULT_EQUIVALENCE_CLASSES,
    NO_EQUIVALENCE,
    EquivalenceClasses.from_strings(["kst"]),
    EquivalenceClasses.from_strings(["eéç", "কখ"]),
]


def test_indexed_search_equals_full_scan_on_random_dictionaries():
    rng = random.Random(606)
    kinds = {"exact": 0, "tie": 0, "empty": 0, "one": 0, "far": 0}
    for _ in range(60):
        standards = [random_word(rng, MIXED_ALPHABET, 1, 8) for _ in range(rng.randint(1, 40))]
        standards += rng.choices(standards, k=rng.randint(0, 5))  # duplicates
        rng.shuffle(standards)
        d = make_dict(standards)
        queries = [
            rng.choice(standards),
            "",
            rng.choice(MIXED_ALPHABET),
            "xyzw" * rng.randint(1, 4),  # shares no character with any entry
        ] + [random_word(rng, MIXED_ALPHABET, 0, 10) for _ in range(8)]
        for query in queries:
            for mode in (STANDARD, MODIFIED):
                eq = rng.choice(MIXED_CLASSES)
                want = best_match(query, d, mode=mode, eq=eq)
                assert best_matches([query], d, mode, eq)[0] == want
                kinds["exact"] += query in standards
                kinds["empty"] += query == ""
                kinds["one"] += len(query) == 1
                kinds["far"] += want.distance == max(len(query), len(want.matched_standard))
                kinds["tie"] += sum(
                    best_match(query, make_dict([s]), mode=mode, eq=eq).distance == want.distance
                    and tie_break_score(query, s) == want.tie_break_score
                    for s in standards
                ) > 1
    # every kind of query the index must get right was drawn
    assert min(kinds.values()) > 10, kinds


def mixed_batch(rng, standards, size):
    """Queries of every kind the stacked kernel must get right, shuffled."""
    queries = [
        rng.choice(standards),  # exact hit
        "",
        rng.choice(MIXED_ALPHABET),
        "xyzw" * rng.randint(1, 3),  # shares no character with any entry
    ] + [random_word(rng, MIXED_ALPHABET, 0, 12) for _ in range(size)]
    queries += rng.choices(queries, k=3)  # duplicates
    rng.shuffle(queries)
    return queries


def test_batched_search_equals_full_scan_query_by_query():
    rng = random.Random(1607)
    kinds = {"exact": 0, "duplicate": 0, "empty": 0, "one": 0, "far": 0, "long": 0}
    for _ in range(40):
        standards = [random_word(rng, MIXED_ALPHABET, 1, 8) for _ in range(rng.randint(1, 40))]
        standards += rng.choices(standards, k=rng.randint(0, 5))  # duplicates
        d = make_dict(standards)
        queries = mixed_batch(rng, standards, 12)
        for mode in (STANDARD, MODIFIED):
            eq = rng.choice(MIXED_CLASSES)
            got = best_matches(queries, d, mode=mode, eq=eq)
            assert got == [best_match(q, d, mode=mode, eq=eq) for q in queries]
            # results follow their queries, whatever the order of the batch
            assert best_matches(queries[::-1], d, mode=mode, eq=eq) == got[::-1]
            for query, want in zip(queries, got):
                kinds["exact"] += query in standards
                kinds["empty"] += query == ""
                kinds["one"] += len(query) == 1
                kinds["far"] += want.distance == max(len(query), len(want.matched_standard))
                kinds["long"] += len(query) >= 10
            kinds["duplicate"] += len(set(queries)) < len(queries)
    assert min(kinds.values()) > 10, kinds


def test_batched_search_spans_several_chunks():
    # a dictionary large enough that MATCH_CHUNK_CELLS fits two queries per
    # kernel pass, so this batch's non-exact queries take several passes
    rng = random.Random(2718)
    size = MATCH_CHUNK_CELLS // 3 + 1
    standards = [random_word(rng, MIXED_ALPHABET, 1, 4) for _ in range(size)]
    d = make_dict(standards)
    eq = MIXED_CLASSES[3]
    queries = mixed_batch(rng, standards, 5)
    non_exact = [q for q in queries if not d.natives(q)]
    assert len(non_exact) > 2 * (MATCH_CHUNK_CELLS // size)
    got = best_matches(queries, d, mode=MODIFIED, eq=eq)
    assert got == [best_match(q, d, mode=MODIFIED, eq=eq) for q in queries]


def test_index_distances_equal_levenshtein_for_every_pair():
    # the tests above check each query's winner only; a kernel that got a
    # losing entry's distance wrong would pass them
    rng = random.Random(3141)
    kinds = {"one_length": 0, "mixed_lengths": 0, "empty": 0, "one": 0, "longer": 0}
    for trial in range(40):
        lo = rng.randint(1, 8)
        hi = lo if trial % 2 else 8
        standards = [random_word(rng, MIXED_ALPHABET, lo, hi) for _ in range(rng.randint(1, 30))]
        queries = mixed_batch(rng, standards, 8) + [random_word(rng, MIXED_ALPHABET, hi + 1, hi + 4)]
        eq = rng.choice(MIXED_CLASSES)
        canonical = [canonicalize(q, eq) for q in queries]
        index = _Index(tuple(standards), eq)
        expected = [[levenshtein(q, canonicalize(s, eq)) for s in standards] for q in canonical]
        assert index.distances(canonical).tolist() == expected
        # each query in a pass of its own too, where its row is read at offset 0
        assert [index.distances([q]).tolist()[0] for q in canonical] == expected
        longest = max(map(len, standards))
        kinds["one_length" if len(set(map(len, standards))) == 1 else "mixed_lengths"] += 1
        kinds["empty"] += queries.count("")
        kinds["one"] += sum(len(q) == 1 for q in queries)
        kinds["longer"] += sum(len(q) > longest for q in queries)
    assert min(kinds.values()) > 10, kinds


@pytest.mark.parametrize("long_side", ["query", "standard"])
def test_index_tables_narrow_to_int8_up_to_their_limit(long_side):
    # offset-form values lie in [-width, longest query] and a deletion adds 1,
    # so int8 tables hold them while max(width, longest query) + 1 <= 127
    rng = random.Random(1618)
    for longest, dtype in ((125, np.int8), (126, np.int8), (127, np.int16)):
        long_word = random_word(rng, MIXED_ALPHABET, longest, longest)
        standards = [random_word(rng, MIXED_ALPHABET, 1, 8) for _ in range(12)]
        queries = mixed_batch(rng, standards, 4) + [long_word[: longest // 2]]
        if long_side == "query":
            # the second shares no character with any standard
            queries += [long_word, "x" * longest]
        else:
            standards.append(long_word)
            queries += [long_word, long_word[1:], long_word[::-1]]
        eq = rng.choice(MIXED_CLASSES)
        canonical = [canonicalize(q, eq) for q in queries]
        got = _Index(tuple(standards), eq).distances(canonical)
        assert got.dtype == dtype
        assert got.tolist() == [[levenshtein(q, canonicalize(s, eq)) for s in standards] for q in canonical]
        d = make_dict(standards)
        for mode in (STANDARD, MODIFIED):
            assert best_matches(queries, d, mode=mode, eq=eq) == [
                best_match(q, d, mode=mode, eq=eq) for q in queries
            ], (longest, mode)


def test_indexed_search_past_int16_distances():
    # distances above 32767 overflow int16 rows, so the index must widen them
    d = make_dict(["xyz", "bab"])
    query = "ab" * 16390
    (result,) = best_matches([query], d, STANDARD)
    assert result == best_match(query, d, mode=STANDARD)
    assert result.distance == len(query) - 3


def test_index_is_kept_per_canonicalization():
    # the same query answers differently under each canonicalization, so an
    # index reused under the wrong one gives a wrong answer
    d = make_dict(["kol", "kal", "bal", "val", "kil"])
    custom = EquivalenceClasses.from_strings(["ik"])
    equal_custom = EquivalenceClasses.from_strings(["ki"])
    settings = [
        (MODIFIED, DEFAULT_EQUIVALENCE_CLASSES),
        (STANDARD, DEFAULT_EQUIVALENCE_CLASSES),
        (MODIFIED, NO_EQUIVALENCE),
        (MODIFIED, custom),
        (STANDARD, custom),
        (MODIFIED, equal_custom),
    ]
    for query in ("vol", "kal", "ial", "iol", "val", "bil"):
        for mode, eq in settings + settings[::-1]:
            want = best_match(query, d, mode=mode, eq=eq)
            assert best_matches([query], d, mode, eq)[0] == want, (query, mode, eq)
    # the settings do disagree on these queries
    assert best_match("vol", d, mode=MODIFIED).distance == 0
    assert best_match("vol", d, mode=STANDARD).distance == 1
    assert best_match("vol", d, mode=MODIFIED, eq=NO_EQUIVALENCE).distance == 1
    assert best_match("ial", d, mode=MODIFIED).distance == 1
    assert best_match("ial", d, mode=MODIFIED, eq=custom).distance == 0


def test_load_equivalence_classes(tmp_path):
    path = tmp_path / "classes.txt"
    path.write_text("ao\n\nbv\n", encoding="utf-8")
    eq = load_equivalence_classes(path)
    assert canonicalize("ov", eq) == "ab"
    assert len(eq.classes) == 2

    bad = tmp_path / "bad.txt"
    bad.write_text("a\n", encoding="utf-8")
    with pytest.raises(EquivalenceClassError):
        load_equivalence_classes(bad)
    # the shipped class file is the default one
    shipped = Path(__file__).resolve().parents[1] / "configs" / "eq_classes.txt"
    assert load_equivalence_classes(shipped) == DEFAULT_EQUIVALENCE_CLASSES
