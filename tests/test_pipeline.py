"""Tests for the end-to-end normalization pipeline."""

from __future__ import annotations

from collections import Counter

import pytest

import phonorm.pipeline
from phonorm.lexicon import LexiconFormatError, TransliterationDictionary
from phonorm.matcher import (
    DEFAULT_EQUIVALENCE_CLASSES,
    MODIFIED,
    NO_EQUIVALENCE,
    STANDARD,
    EquivalenceClasses,
    best_match,
)
from phonorm.pipeline import (
    BatchError,
    NormalizationResult,
    SetupId,
    normalize,
    normalize_batch,
    normalize_setups,
)
from phonorm.prenorm import DEFAULT_DIGIT_PHONES, DigitTableError, prenormalize
from phonorm.seq2seq import infer


def make_dict(standards):
    return TransliterationDictionary(
        entries=tuple((f"n{i}", s) for i, s in enumerate(standards))
    )


def test_normalize_without_model_runs_prenorm_then_matching():
    d = make_dict(["bAd", "bad", "bid"])
    result = normalize("baaaad", d, mode=STANDARD)
    assert result.prenormalized == "baad"
    assert result.first_degree == "baad"  # no model: query is the prenorm
    assert result.final == "bad"
    assert result.distance == 1
    assert result.setup == "setup_1"
    assert result.mode == STANDARD
    assert result.back_transliterations == ("n1",)


def test_normalize_digit_expansion_reaches_matching():
    d = make_dict(["chaladui"])
    result = normalize("chalo2", d, mode=MODIFIED)
    assert result.prenormalized == "chalodui"
    assert result.final == "chaladui"
    assert result.distance == 0
    assert result.setup == "setup_2"


def test_normalize_with_model_uses_decoder_output(tiny_model):
    from phonorm.matcher import best_matches

    d = make_dict(["kala", "bodo"])
    result = normalize("kaLa", d, model=tiny_model, mode=MODIFIED)
    assert result.setup == "setup_4"
    # the first degree is exactly what the decoder produces for the prenorm
    decoded = infer(tiny_model, "kala")
    assert result.first_degree == decoded
    (expected,) = best_matches([decoded or "kala"], d, MODIFIED)
    assert result.final == expected.matched_standard
    assert result.distance == expected.distance


def test_normalize_empty_decode_falls_back_to_prenormalized(zero_model):
    # the zero model decodes every input to ""; matching must then use the
    # pre-normalized word, not the empty string
    d = make_dict(["ab", "cb"])
    result = normalize("ab", d, model=zero_model, mode=STANDARD)
    assert result.first_degree == ""
    assert result.prenormalized == "ab"
    assert result.final == "ab"
    assert result.distance == 0
    assert result.setup == "setup_3"


@pytest.mark.parametrize(
    ("with_model", "mode", "setup"),
    [
        (False, STANDARD, "setup_1"),
        (False, MODIFIED, "setup_2"),
        (True, STANDARD, "setup_3"),
        (True, MODIFIED, "setup_4"),
    ],
)
def test_setup_labels(zero_model, with_model, mode, setup):
    d = make_dict(["ab"])
    model = zero_model if with_model else None
    assert normalize("ab", d, model=model, mode=mode).setup == setup


def test_setup_of_inverts_the_switches():
    for setup in SetupId:
        assert SetupId.of(setup.uses_model, setup.mode) is setup
    with pytest.raises(ValueError, match="mode"):
        SetupId.of(False, "bogus")
    with pytest.raises(ValueError, match="mode"):
        normalize("ab", make_dict(["ab"]), mode="bogus")


def test_empty_or_blank_word_is_an_error():
    d = make_dict(["tomu", "kala"])
    for word in ("", "   ", "\t"):
        with pytest.raises(ValueError, match="empty word"):
            normalize(word, d)
    batch = normalize_batch(["kala", "", "  "], d)
    assert isinstance(batch[0], NormalizationResult)
    assert [(b.index, b.word) for b in batch[1:]] == [(1, ""), (2, "  ")]


def test_back_transliterations_preserve_dictionary_order():
    d = TransliterationDictionary(
        entries=(("natA", "kal"), ("natB", "kol"), ("natC", "kal"))
    )
    result = normalize("kal", d, mode=STANDARD)
    assert result.final == "kal"
    assert result.back_transliterations == ("natA", "natC")


def test_normalize_batch_keeps_order_and_matches_single_calls():
    d = make_dict(["bad", "kala"])
    words = ["baaaad", "kolo", "x"]
    batch = normalize_batch(words, d, mode=MODIFIED)
    assert len(batch) == 3
    assert all(isinstance(r, NormalizationResult) for r in batch)
    for word, got in zip(words, batch):
        assert got == normalize(word, d, mode=MODIFIED)


def test_normalize_batch_isolates_failures(zero_model):
    # the second word is longer than the model can encode and must fail
    # alone, in position, without aborting its neighbours
    d = make_dict(["ab"])
    too_long = "ab" * (zero_model.max_len + 1)
    batch = normalize_batch(["ab", too_long, "ba"], d, model=zero_model)
    assert isinstance(batch[0], NormalizationResult)
    assert isinstance(batch[1], BatchError)
    assert batch[1].index == 1
    assert batch[1].word == too_long
    assert batch[1].message
    assert isinstance(batch[2], NormalizationResult)


def test_normalize_batch_empty_input():
    assert normalize_batch([], make_dict(["ab"])) == []


def test_normalize_rejects_empty_dictionary():
    with pytest.raises(ValueError):
        normalize("word", TransliterationDictionary(entries=()))


@pytest.mark.parametrize("words", [["kala", "bodo"], []])
def test_normalize_batch_raises_for_an_unknown_mode(words):
    # a fault of the call, not of any word: it raises once instead of
    # becoming a BatchError at every position
    with pytest.raises(ValueError, match="mode"):
        normalize_batch(words, make_dict(["kala", "bodo"]), mode="bogus")


def test_normalize_batch_raises_for_an_empty_dictionary():
    # refused where it is built, with the ValueError that callers of
    # normalize and normalize_batch caught before, so no memo hit can skip it
    with pytest.raises(LexiconFormatError, match="^empty dictionary$"):
        TransliterationDictionary(entries=())


# repeats, case and elongation variants that pre-normalize alike ("kaala",
# "bodo"), a repeated word the model cannot encode and a variant of it
# ("KALÉ"), and a repeated empty word
REPEATS = ["kaala", "bodo", "kaaaaala", "", "BODO", "kalé", "kaala", "Kaala",
           "bodo", "kalé", "", "mibu", "kaaala", "mibu", "KALÉ"]
REPEATS_DICT = ["kala", "bodo", "mibu", "kalo"]


@pytest.mark.parametrize("with_model, mode", [(False, STANDARD), (True, MODIFIED)])
def test_normalize_batch_with_repeats_equals_per_position_normalize(tiny_model, with_model, mode):
    d = make_dict(REPEATS_DICT)
    model = tiny_model if with_model else None
    expected = []
    for index, word in enumerate(REPEATS):
        try:
            expected.append(normalize(word, d, model=model, mode=mode))
        except (ValueError, KeyError) as exc:
            expected.append(BatchError(index=index, word=word, message=str(exc)))
    batch = normalize_batch(REPEATS, d, model=model, mode=mode)
    assert batch == expected
    assert sum(isinstance(r, BatchError) for r in batch) == (5 if with_model else 2)


def test_normalize_batch_decodes_and_matches_each_prenormalized_word_once(tiny_model, monkeypatch):
    # one decoder call gets every encodable form once, in first-occurrence
    # order; a form that fails ("kalé", reached from "kalé" and "KALÉ") is
    # tried once and never decoded
    decoder_calls, match_calls = [], []
    infer_batch, best_matches = phonorm.pipeline.infer_batch, phonorm.pipeline.best_matches

    def counting_infer_batch(model, words):
        decoder_calls.append(list(words))
        return infer_batch(model, words)

    def counting_matches(queries, dictionary, *args, **kwargs):
        match_calls.append(list(queries))
        return best_matches(queries, dictionary, *args, **kwargs)

    monkeypatch.setattr(phonorm.pipeline, "infer_batch", counting_infer_batch)
    monkeypatch.setattr(phonorm.pipeline, "best_matches", counting_matches)
    normalize_batch(REPEATS, make_dict(REPEATS_DICT), model=tiny_model)
    forms = [form for form in dict.fromkeys(prenormalize(w) for w in REPEATS) if form not in ("", "kalé")]
    assert decoder_calls == [forms]
    assert "kalé" not in decoder_calls[0]
    # one matcher call, given each distinct query once: the decode of every
    # encodable form, or the form itself where the decode is empty
    queries = {first or form for form, first in zip(forms, infer_batch(tiny_model, forms))}
    assert len(match_calls) == 1
    assert Counter(match_calls[0]) == Counter(queries)


@pytest.mark.parametrize("with_model", [False, True])
def test_results_reuse_the_matched_standard_string(tiny_model, with_model):
    # callers keep one result per word, so a stage equal to the match is
    # that very string, not a copy of it
    word = "".join(["ka", "la"])
    assert prenormalize(word) is word
    model = tiny_model if with_model else None
    # a standard that the model's first degree equals (each decode is a new string)
    batch = normalize_batch(REPEATS, make_dict([*REPEATS_DICT, infer(tiny_model, "bodo")]), model=model)
    shared = 0
    for r in batch:
        if isinstance(r, NormalizationResult):
            for stage in (r.prenormalized, r.first_degree):
                if stage == r.final:
                    assert stage is r.final
                    shared += 1
    assert shared


def test_normalize_batch_shares_one_result_between_identical_words(tiny_model):
    batch = normalize_batch(REPEATS, make_dict(REPEATS_DICT), model=tiny_model)
    by_word = {}
    for word, result in zip(REPEATS, batch):
        if isinstance(result, NormalizationResult):
            assert by_word.setdefault(word, result) is result
    assert by_word.keys() == {"kaala", "bodo", "kaaaaala", "BODO", "Kaala", "kaaala", "mibu"}
    # variants share the stages but keep their own input
    assert by_word["Kaala"] is not by_word["kaala"]
    assert by_word["Kaala"].first_degree == by_word["kaala"].first_degree
    # errors stay per position
    errors = [r for r in batch if isinstance(r, BatchError)]
    assert [(e.index, e.word) for e in errors] == [(3, ""), (5, "kalé"), (9, "kalé"), (10, ""), (14, "KALÉ")]


# ---------------------------------------------------------------------------
# results kept across calls


@pytest.mark.parametrize("mode", [STANDARD, MODIFIED])
def test_memo_eviction_within_a_call_keeps_every_result(monkeypatch, mode):
    # with room for two words, every call holds more words than the memo
    # keeps, some known and some new: none may be evicted before it is read
    monkeypatch.setattr(phonorm.pipeline, "MEMO_WORDS", 2)
    d = make_dict(REPEATS_DICT)
    words = ["kaala", "bodo", "mibu", "kaala", "tomo", "kilo", "bodo", "mibu"]  # five distinct
    for other in (["tumi"], ["bodo", "kalo", "bidu"], ["mibu", "Kaala"]):
        for batch in (words, other):
            got = normalize_batch(batch, d, mode=mode)
            assert got == normalize_batch(batch, make_dict(REPEATS_DICT), mode=mode)
            for word, result in zip(batch, got):
                oracle = best_match(prenormalize(word), d, mode)
                assert (result.final, result.distance) == (oracle.matched_standard, oracle.distance)
            assert all(len(memo) <= 2 for memo in d.result_memos.values())


@pytest.mark.parametrize("setups", [[SetupId.SETUP_2], [SetupId.SETUP_2, SetupId.SETUP_2],
                                    [SetupId.SETUP_1, SetupId.SETUP_2]], ids=["one", "twice", "both"])
def test_a_call_past_the_memo_bound_keeps_its_last_words(monkeypatch, setups):
    monkeypatch.setattr(phonorm.pipeline, "MEMO_WORDS", 3)
    d = make_dict(REPEATS_DICT)
    words = ["kaala", "bodo", "mibu", "kaala", "tomo", "kilo", "bodo", "tumi"]  # six distinct
    for setup, outcome in zip(setups, normalize_setups(words, d, None, setups)):
        for word, result in zip(words, outcome):
            oracle = best_match(prenormalize(word), d, setup.mode)
            assert (result.input, result.final, result.distance) == (word, oracle.matched_standard, oracle.distance)
        memo = d.result_memos[(DEFAULT_EQUIVALENCE_CLASSES, setup.mode, None)]
        assert list(memo) == ["tomo", "kilo", "tumi"]  # the last three, in first-seen order
        assert all(memo[word] is result for word, result in zip(words, outcome) if word in memo)


@pytest.mark.parametrize("setup", [SetupId.SETUP_2, SetupId.SETUP_4])
def test_the_same_setup_twice_gives_two_lists_equal_to_one(tiny_model, setup):
    # without the model the two share one memo, so neither may take its
    # words after the other writes; "kaala" and "mibu" are known beforehand
    model = tiny_model if setup.uses_model else None
    d = make_dict(REPEATS_DICT)
    normalize_batch(["kaala", "mibu"], d, model=model, mode=setup.mode)
    (once,) = normalize_setups(REPEATS, make_dict(REPEATS_DICT), model, [setup])
    assert normalize_setups(REPEATS, d, model, [setup, setup]) == [once, once]
    assert normalize_batch(REPEATS, d, model=model, mode=setup.mode) == once


def test_memo_keys_on_the_digit_table_contents():
    d = make_dict(["kadui", "kaek"])
    table = dict(DEFAULT_DIGIT_PHONES)
    assert normalize("ka2", d, digit_table=table).final == "kadui"
    table["2"] = "ek"  # the same dict object, other contents
    assert normalize("ka2", d, digit_table=table).final == "kaek"
    assert normalize("ka2", d).final == "kadui"


@pytest.mark.parametrize("table", [{"2": "DUI"}, {**DEFAULT_DIGIT_PHONES, "2": "DUI"}], ids=["partial", "upper"])
def test_a_digit_table_that_breaks_the_loaders_rules_raises_on_every_call(table):
    # the file loader's rules: "ka2" would become "kaDUI", which
    # prenormalize turns into "kadui", so the form would not be idempotent
    d = make_dict(["kadui"])
    for words in (["ka2"], []):
        with pytest.raises(DigitTableError):
            normalize_batch(words, d, digit_table=table)


def test_memo_keys_on_the_mode():
    # both modes match on one index under NO_EQUIVALENCE, but report their own mode
    d = make_dict(["kala", "kolo"])
    modified = normalize("kolo", d, eq=NO_EQUIVALENCE, mode=MODIFIED)
    standard = normalize("kolo", d, eq=NO_EQUIVALENCE, mode=STANDARD)
    assert (modified.mode, modified.setup) == (MODIFIED, "setup_2")
    assert (standard.mode, standard.setup) == (STANDARD, "setup_1")


def test_memo_keys_on_the_equivalence_classes():
    d = make_dict(["bata", "pata"])
    assert normalize("vata", d).final == "bata"
    pv = normalize("vata", d, eq=EquivalenceClasses.from_strings(["pv"]))
    assert (pv.final, pv.distance) == ("pata", 0)


def test_a_word_known_without_the_model_is_still_decoded_with_it(tiny_model, monkeypatch):
    d = make_dict(REPEATS_DICT)
    (known,) = normalize_batch(["kaala"], d, mode=STANDARD)
    decoder_calls = []
    infer_batch = phonorm.pipeline.infer_batch

    def counting_infer_batch(model, words):
        decoder_calls.append(list(words))
        return infer_batch(model, words)

    monkeypatch.setattr(phonorm.pipeline, "infer_batch", counting_infer_batch)
    [setup_1], [setup_4] = normalize_setups(["kaala"], d, tiny_model, [SetupId.SETUP_1, SetupId.SETUP_4])
    assert decoder_calls == [["kaala"]]
    assert setup_1 is known
    assert setup_4 == normalize("kaala", make_dict(REPEATS_DICT), model=tiny_model, mode=MODIFIED)


def test_model_setups_see_an_in_place_tensor_update(zero_model):
    d = make_dict(["ab", "aaaa"])
    before = normalize("ab", d, model=zero_model)
    assert before.first_degree == ""
    zero_model.b_out[zero_model.target_alphabet.index_of("a")] = 1.0
    after = normalize("ab", d, model=zero_model)
    assert after.first_degree == infer(zero_model, "ab") != ""


@pytest.mark.parametrize("setup", list(SetupId))
def test_only_setups_without_the_model_share_a_result_across_calls(tiny_model, setup):
    d = make_dict(REPEATS_DICT)
    model = tiny_model if setup.uses_model else None
    first = normalize_batch(REPEATS, d, model=model, mode=setup.mode)
    again = normalize_batch(REPEATS, d, model=model, mode=setup.mode)
    assert again == first
    for one, other in zip(first, again):
        if isinstance(one, NormalizationResult):
            assert (one is other) == (not setup.uses_model)
        else:
            assert one is not other  # a BatchError is worked out again


def _fail_on_call(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} ran for words every setup knows")

    return fail


def test_words_every_setup_knows_run_no_stage(monkeypatch):
    d = make_dict(REPEATS_DICT)
    words = ["kaala", "bodo", "kaala", "mibu", "bodo"]
    [one] = normalize_batch(["kaala"], d)
    warm = normalize_batch(words, d)
    [setup_1, setup_2] = normalize_setups(words, d, None, [SetupId.SETUP_1, SetupId.SETUP_2])
    for name in ("prenormalize", "best_matches", "infer_batch"):
        monkeypatch.setattr(phonorm.pipeline, name, _fail_on_call(name))
    assert normalize("kaala", d) is one
    for got, before in zip(normalize_batch(words, d), warm):
        assert got is before
    again = normalize_setups(words, d, None, [SetupId.SETUP_1, SetupId.SETUP_2])
    for got_setup, before_setup in zip(again, [setup_1, setup_2]):
        for got, before in zip(got_setup, before_setup):
            assert got is before


def test_a_call_whose_new_words_all_fail_runs_neither_model_nor_matcher(tiny_model, monkeypatch):
    # "kalé" and "KALÉ" are known without the model and cannot be encoded
    # with it; the blank words fail in every setup
    d = make_dict(REPEATS_DICT)
    normalize_setups(["kalé", "KALÉ"], d, None, [SetupId.SETUP_1, SetupId.SETUP_2])
    words = ["", "kalé", " ", "KALÉ", ""]
    expected = normalize_setups(words, make_dict(REPEATS_DICT), tiny_model, list(SetupId))
    for name in ("best_matches", "infer_batch"):
        monkeypatch.setattr(phonorm.pipeline, name, _fail_on_call(name))
    assert normalize_setups(words, d, tiny_model, list(SetupId)) == expected
    assert normalize_setups(words[:3], d, tiny_model, [SetupId.SETUP_4]) == [expected[3][:3]]


def test_a_mixed_call_matches_only_the_words_it_does_not_know(monkeypatch):
    d = make_dict(REPEATS_DICT)
    normalize_batch(["kala", "bodo"], d)
    queries = []
    best_matches = phonorm.pipeline.best_matches

    def spy(qs, *args):
        queries.append(list(qs))
        return best_matches(qs, *args)

    monkeypatch.setattr(phonorm.pipeline, "best_matches", spy)
    got = normalize_batch(["bodo", "mibo", "kala", "kilo", "mibo"], d)
    assert queries == [["mibo", "kilo"]]
    assert got == normalize_batch(["bodo", "mibo", "kala", "kilo", "mibo"], make_dict(REPEATS_DICT))


def test_a_missing_model_raises_even_when_the_memo_knows_every_word():
    d = make_dict(REPEATS_DICT)
    normalize_batch(["kala", "bodo"], d, mode=STANDARD)
    with pytest.raises(ValueError, match="setup_3 applies the first-degree model but none was given"):
        normalize_setups(["kala", "bodo"], d, None, [SetupId.SETUP_1, SetupId.SETUP_3])


def test_call_faults_raise_in_the_documented_order_when_the_memo_knows_every_word():
    # the checks run before any lookup: a model setup without a model first,
    # then the digit table; normalize_batch checks its mode before either
    d = make_dict(REPEATS_DICT)
    words = ["kala", "bodo"]
    normalize_setups(words, d, None, [SetupId.SETUP_1, SetupId.SETUP_2])
    bad_table = {**DEFAULT_DIGIT_PHONES, "2": "DUI"}
    with pytest.raises(ValueError, match="setup_3 applies the first-degree model but none was given"):
        normalize_setups(words, d, None, [SetupId.SETUP_1, SetupId.SETUP_3], digit_table=bad_table)
    with pytest.raises(DigitTableError):
        normalize_setups(words, d, None, [SetupId.SETUP_1, SetupId.SETUP_2], digit_table=bad_table)
    with pytest.raises(ValueError, match=r"^mode must be one of \('standard', 'modified'\), got 'bogus'$"):
        normalize_batch(words, d, mode="bogus")
