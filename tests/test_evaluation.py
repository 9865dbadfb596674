"""Tests for the ablation evaluation and the synthetic benchmark generator."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import phonorm.pipeline
from phonorm.evaluation import (
    NoiseModel,
    SetupId,
    corrupt,
    evaluate,
    evaluate_setups,
    format_report_table,
    generate_benchmark,
    native_form,
    random_word,
    report_to_dict,
)
from phonorm.lexicon import LexiconFormatError, TestSet, TransliterationDictionary, load_dictionary, save_dictionary
from phonorm.matcher import DEFAULT_EQUIVALENCE_CLASSES, canonicalize
from phonorm.prenorm import prenormalize
from phonorm.seq2seq import infer_batch

QUIET = NoiseModel(vowel_swap=0.0, bv_swap=0.0, vowel_lengthening=0.0,
                   elongation=0.0, vowel_deletion=0.0)


def make_dict(standards):
    return TransliterationDictionary(
        entries=tuple((native_form(s), s) for s in standards)
    )


# ---------------------------------------------------------------------------
# setups


def test_setup_properties():
    assert not SetupId.SETUP_1.uses_model and SetupId.SETUP_1.mode == "standard"
    assert not SetupId.SETUP_2.uses_model and SetupId.SETUP_2.mode == "modified"
    assert SetupId.SETUP_3.uses_model and SetupId.SETUP_3.mode == "standard"
    assert SetupId.SETUP_4.uses_model and SetupId.SETUP_4.mode == "modified"
    assert SetupId.SETUP_2.label == "setup_2"


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_counts_errors_and_oov():
    d = make_dict(["kaal", "kol"])
    testset = TestSet(entries=(("kal", "kol"), ("baaad", "bad")))
    report = evaluate(testset, None, d, setup=SetupId.SETUP_1)

    assert report.total == 2
    assert report.exact_matches == 0
    assert len(report.errors) == 2
    assert not report.failures

    in_vocab, oov = report.errors
    assert in_vocab.gold == "kol" and not in_vocab.oov
    assert oov.gold == "bad" and oov.oov
    assert oov.prenormalized == "baad"
    assert oov.first_degree == "baad"  # no model in setup_1

    # half the errors are OOV; that error is one edit from its gold
    assert report.oov_error_fraction == 0.5
    assert report.mean_oov_distance == 1.0


def test_evaluate_perfect_run_has_empty_analysis():
    d = make_dict(["bad"])
    testset = TestSet(entries=(("bad", "bad"), ("baaad", "bad")))
    report = evaluate(testset, None, d, setup=SetupId.SETUP_2)
    assert report.accuracy == 1.0
    assert report.errors == ()
    assert (report.oov_error_fraction, report.mean_oov_distance) == (0.0, 0.0)


def test_evaluate_validates_inputs():
    with pytest.raises(LexiconFormatError, match="^empty test set$"):
        TestSet(entries=())
    with pytest.raises(ValueError):
        evaluate(TestSet(entries=(("a", "a"),)), None, make_dict(["bad"]), setup=SetupId.SETUP_3)


def test_evaluate_raises_for_an_empty_dictionary():
    # every entry would fail alike, so the dictionary is refused where it is
    # built, before any evaluation
    with pytest.raises(LexiconFormatError, match="^empty dictionary$"):
        make_dict([])


def test_evaluate_failures_score_as_wrong(zero_model):
    d = make_dict(["ab"])
    too_long = "ab" * (zero_model.max_len + 1)
    testset = TestSet(entries=(("ab", "ab"), (too_long, "ab")))
    report = evaluate(testset, zero_model, d, setup=SetupId.SETUP_4)
    assert report.total == 2
    assert report.exact_matches == 1
    assert report.accuracy == 0.5
    assert len(report.failures) == 1
    assert report.failures[0].index == 1
    assert report.failures[0].message
    # failures are not mismatch errors and stay out of the OOV analysis
    assert report.errors == ()
    assert (report.oov_error_fraction, report.mean_oov_distance) == (0.0, 0.0)


def test_report_serialization_and_table():
    d = make_dict(["kaal", "kol"])
    testset = TestSet(entries=(("kal", "kol"), ("baaad", "bad")))
    report = evaluate(testset, None, d, setup=SetupId.SETUP_1)

    payload = report_to_dict(report)
    assert payload["setup"] == "setup_1"
    assert payload["total"] == 2
    assert payload["accuracy"] == 0.0
    assert len(payload["errors"]) == 2
    assert payload["errors"][1]["oov"] is True
    import json

    json.dumps(payload)  # must be JSON-ready as is

    table = format_report_table([report])
    lines = table.strip().split("\n")
    assert len(lines) == 2
    assert lines[0].split()[:2] == ["setup", "model"]
    assert "setup_1" in lines[1] and "0/2" in lines[1]


# ---------------------------------------------------------------------------
# several setups in one pass

# a blank input, words no model here can encode (a foreign character, a
# digit that expands past max_len, an overlong word), repeats, and case or
# elongation variants that pre-normalize like the word itself
MIXED_DICT = ["kala", "bodo", "mibu", "gato", "sela"]
MIXED = TestSet(entries=(
    ("kaala", "kala"), ("bodo", "bodo"), (" ", "kala"), ("kalé", "kala"), ("99999", "kala"),
    ("kalakalakalakala", "kala"), ("kaala", "kala"), ("KAALA", "kala"), ("kaaaala", "kala"),
    ("BoDo", "bodo"), ("mibbbu", "mibu"), ("gatto", "gato"), ("kalé", "kala"), ("sela", "sela"),
))


def counting_stages(monkeypatch):
    """Record each infer_batch call's forms and each best_matches call's
    (mode, queries) as the pipeline makes them."""
    decoder_calls, match_calls = [], []
    decode, match = phonorm.pipeline.infer_batch, phonorm.pipeline.best_matches

    def counting_infer_batch(model, words):
        decoder_calls.append(list(words))
        return decode(model, words)

    def counting_matches(queries, dictionary, mode, *args, **kwargs):
        match_calls.append((mode, list(queries)))
        return match(queries, dictionary, mode, *args, **kwargs)

    monkeypatch.setattr(phonorm.pipeline, "infer_batch", counting_infer_batch)
    monkeypatch.setattr(phonorm.pipeline, "best_matches", counting_matches)
    return decoder_calls, match_calls


def test_evaluate_setups_equals_one_evaluate_per_setup(tiny_model):
    d = make_dict(MIXED_DICT)
    reports = evaluate_setups(MIXED, tiny_model, d, list(SetupId))
    assert reports == [evaluate(MIXED, tiny_model, d, setup=setup) for setup in SetupId]
    # the blank input fails everywhere, the unencodable words only with the model
    failed = [[f.index for f in report.failures] for report in reports]
    assert failed == [[2], [2], [2, 3, 4, 5, 12], [2, 3, 4, 5, 12]]


def test_evaluate_setups_decodes_once_and_matches_once_per_mode(tiny_model, monkeypatch):
    decoder_calls, match_calls = counting_stages(monkeypatch)
    evaluate_setups(MIXED, tiny_model, make_dict(MIXED_DICT), list(SetupId))
    forms = [form for form in dict.fromkeys(prenormalize(w) for w, _ in MIXED.entries) if form.strip()]
    encodable = [form for form in forms if form not in ("kalé", prenormalize("99999"), "kalakalakalakala")]
    assert decoder_calls == [encodable]
    # each mode's one call gets every distinct query of its two setups once:
    # the form itself without the model, the decode (or the form, where the
    # decode is empty) with it
    decoded = infer_batch(tiny_model, encodable)
    queries = Counter(set([*forms, *(first or form for form, first in zip(encodable, decoded))]))
    assert sorted(mode for mode, _ in match_calls) == ["modified", "standard"]
    for _, called in match_calls:
        assert Counter(called) == queries


def test_evaluate_setups_without_model_setups_never_decodes(tiny_model, monkeypatch):
    decoder_calls, match_calls = counting_stages(monkeypatch)
    d = make_dict(MIXED_DICT)
    setups = [SetupId.SETUP_1, SetupId.SETUP_2]
    reports = evaluate_setups(MIXED, tiny_model, d, setups)
    assert decoder_calls == []
    assert len(match_calls) == 2
    assert reports == evaluate_setups(MIXED, None, d, setups)
    assert [[f.index for f in report.failures] for report in reports] == [[2], [2]]


def test_evaluate_setups_on_a_warm_dictionary_equals_a_fresh_one(tiny_model, tmp_path):
    # the model-free setups answer the second call from the results the
    # first kept on the dictionary, for some words and not others
    path = tmp_path / "dictionary.tsv"
    save_dictionary(make_dict(MIXED_DICT), path)
    warm = load_dictionary(path)
    evaluate_setups(TestSet(entries=MIXED.entries[::2]), tiny_model, warm, list(SetupId))
    reports = evaluate_setups(MIXED, tiny_model, warm, list(SetupId))
    assert reports == evaluate_setups(MIXED, tiny_model, load_dictionary(path), list(SetupId))


# ---------------------------------------------------------------------------
# noise model


def test_corrupt_is_deterministic_under_a_seed():
    noise = NoiseModel()
    words = ["kala", "bodi", "sutum", "gal"]
    out_a = [corrupt(w, noise, np.random.default_rng(5)) for w in words]
    out_b = [corrupt(w, noise, np.random.default_rng(5)) for w in words]
    assert out_a == out_b


def test_corrupt_with_zero_rates_is_identity():
    rng = np.random.default_rng(0)
    for word in ("kala", "bodi", "sutum"):
        assert corrupt(word, QUIET, rng) == word


def test_corrupt_swaps_run_one_way():
    rng = np.random.default_rng(0)
    certain = NoiseModel(vowel_swap=1.0, bv_swap=1.0, vowel_lengthening=0.0,
                         elongation=0.0, vowel_deletion=0.0)
    assert corrupt("aba", certain, rng) == "ovo"
    # o and v are already the drifted forms; they never drift back
    assert corrupt("ovo", certain, rng) == "ovo"


def test_corrupt_lengthens_vowels_into_digraphs():
    rng = np.random.default_rng(0)
    digraphs = NoiseModel(vowel_swap=0.0, bv_swap=0.0, vowel_lengthening=1.0,
                          elongation=0.0, vowel_deletion=0.0)
    assert corrupt("ki", digraphs, rng) == "kee"
    assert corrupt("ku", digraphs, rng) == "koo"
    assert corrupt("ka", digraphs, rng) == "ka"


def test_corrupt_elongates_consonants_only():
    rng = np.random.default_rng(1)
    stretchy = NoiseModel(vowel_swap=0.0, bv_swap=0.0, vowel_lengthening=0.0,
                          elongation=1.0, vowel_deletion=0.0)
    out = corrupt("ka", stretchy, rng)
    assert set(out[:-1]) == {"k"}
    assert out[-1] == "a"
    assert 4 <= len(out) <= 6  # k stretched to 3-5 copies
    assert prenormalize(out) == "kka"


def test_corrupt_never_returns_empty():
    rng = np.random.default_rng(2)
    hungry = NoiseModel(vowel_swap=1.0, bv_swap=0.0, vowel_lengthening=0.0,
                        elongation=0.0, vowel_deletion=1.0)
    # every vowel would be deleted; the pre-deletion form must come back
    assert corrupt("aaa", hungry, rng) == "ooo"


def test_noise_scaling():
    noise = NoiseModel()
    assert noise.scaled(0.0) == QUIET
    maxed = noise.scaled(100.0)
    assert maxed.vowel_swap == 1.0 and maxed.vowel_deletion == 1.0
    for rate in (-0.5, float("nan")):
        with pytest.raises(ValueError):
            noise.scaled(rate)


# ---------------------------------------------------------------------------
# word sampler and benchmark


def test_random_word_is_pronounceable():
    import re

    rng = np.random.default_rng(8)
    pattern = re.compile(r"^([bcdghjklmnprstv][aeiou]){2,3}[bcdghjklmnprstv]?$")
    lengths = set()
    for _ in range(200):
        word = random_word(rng)
        assert pattern.match(word), word
        lengths.add(len(word))
    assert lengths == {4, 5, 6, 7}


def test_random_word_honours_custom_inventory():
    rng = np.random.default_rng(8)
    for _ in range(50):
        word = random_word(rng, 2, 2, 0.0, consonants="kt")
        assert len(word) == 4
        assert set(word[::2]) <= {"k", "t"}
        assert set(word[1::2]) <= set("aeiou")


def test_native_form_is_a_fixed_letter_map():
    assert native_form("a") == "ক"
    assert native_form("ab") == "কখ"
    assert len(native_form("kala")) == 4
    # distinct letters stay distinct
    assert len(set(native_form("abcxyz"))) == 6


def test_generate_benchmark_shapes_and_vocabulary():
    bench = generate_benchmark(seed=3, dict_size=30, train_size=50, test_size=20)
    standards = set(bench.dictionary.standards)
    assert len(bench.dictionary) == 30
    assert len(bench.lexicon) == 50
    assert len(bench.testset) == 20
    # all golds are in-vocabulary
    assert {gold for _, gold in bench.lexicon.entries} <= standards
    assert {gold for _, gold in bench.testset.entries} <= standards
    # native forms are the deterministic letter map
    for native, standard in bench.dictionary.entries[:5]:
        assert native == native_form(standard)
    # entries stay distinct even after collapsing equivalence classes
    canon = {canonicalize(s, DEFAULT_EQUIVALENCE_CLASSES) for s in standards}
    assert len(canon) == 30
    # every test input fits the length budget set by the training data
    cap = max(
        max(len(prenormalize(noisy)), len(gold)) for noisy, gold in bench.lexicon.entries
    )
    assert all(len(prenormalize(noisy)) <= cap for noisy, _ in bench.testset.entries)


def test_generate_benchmark_is_deterministic_per_seed():
    a = generate_benchmark(seed=11, dict_size=25, train_size=40, test_size=15)
    b = generate_benchmark(seed=11, dict_size=25, train_size=40, test_size=15)
    c = generate_benchmark(seed=12, dict_size=25, train_size=40, test_size=15)
    assert a == b
    assert a != c


def test_generate_benchmark_without_noise_is_clean():
    bench = generate_benchmark(seed=4, dict_size=25, train_size=40, test_size=15,
                               noise_rate=0.0)
    assert all(noisy == gold for noisy, gold in bench.lexicon.entries)
    assert all(noisy == gold for noisy, gold in bench.testset.entries)
    # and the no-model setups then solve it outright
    for setup in (SetupId.SETUP_1, SetupId.SETUP_2):
        report = evaluate(bench.testset, None, bench.dictionary, setup=setup)
        assert report.accuracy == 1.0


def test_generate_benchmark_validates_sizes_and_space():
    with pytest.raises(ValueError):
        generate_benchmark(dict_size=0)
    with pytest.raises(ValueError, match="word space"):
        generate_benchmark(seed=1, dict_size=50, train_size=1, test_size=1,
                           consonants="b")
    # one consonant and four vowel classes (a ~ o): 4 * 4 two-syllable words,
    # each with or without a coda, so 32 fit exactly and 33 do not
    full = generate_benchmark(seed=1, dict_size=32, train_size=1, test_size=1, consonants="b")
    assert len(full.dictionary) == 32
    with pytest.raises(ValueError, match="word space"):
        generate_benchmark(seed=1, dict_size=33, train_size=1, test_size=1, consonants="b")
    # one-syllable words hold 288 distinct ones, and the pre-check lets 33
    # through, but at coda probability 1e-6 the 33,000 draws find fewer
    with pytest.raises(ValueError, match="^word space out of reach for the requested dictionary size "):
        generate_benchmark(seed=0, dict_size=33, min_syllables=1, max_syllables=1, coda_probability=1e-6)
