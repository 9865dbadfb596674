"""Tests for the end-to-end normalization pipeline."""

from __future__ import annotations

from collections import Counter

import pytest

import phonorm.pipeline
from phonorm.lexicon import TransliterationDictionary
from phonorm.matcher import MODIFIED, STANDARD
from phonorm.pipeline import BatchError, NormalizationResult, SetupId, normalize, normalize_batch
from phonorm.prenorm import prenormalize


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
    from phonorm.matcher import best_match_pruned
    from phonorm.seq2seq import infer

    d = make_dict(["kala", "bodo"])
    result = normalize("kaLa", d, model=tiny_model, mode=MODIFIED)
    assert result.setup == "setup_4"
    # the first degree is exactly what the decoder produces for the prenorm
    decoded = infer(tiny_model, "kala")
    assert result.first_degree == decoded
    expected = best_match_pruned(decoded or "kala", d, mode=MODIFIED)
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


# repeats, case and elongation variants that pre-normalize alike ("kaala",
# "bodo"), a repeated word the model cannot encode and a repeated empty word
REPEATS = ["kaala", "bodo", "kaaaaala", "", "BODO", "kalé", "kaala", "Kaala",
           "bodo", "kalé", "", "mibu", "kaaala", "mibu"]
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
    assert sum(isinstance(r, BatchError) for r in batch) == (4 if with_model else 2)


def test_normalize_batch_decodes_and_matches_each_prenormalized_word_once(tiny_model, monkeypatch):
    decoded, matched = Counter(), []
    infer, best_match_pruned = phonorm.pipeline.infer, phonorm.pipeline.best_match_pruned

    def counting_infer(model, word):
        decoded[word] += 1
        return infer(model, word)

    def counting_match(query, dictionary, **kwargs):
        matched.append(query)
        return best_match_pruned(query, dictionary, **kwargs)

    monkeypatch.setattr(phonorm.pipeline, "infer", counting_infer)
    monkeypatch.setattr(phonorm.pipeline, "best_match_pruned", counting_match)
    normalize_batch(REPEATS, make_dict(REPEATS_DICT), model=tiny_model)
    prenormalized = {prenormalize(w) for w in REPEATS} - {""}
    assert decoded == Counter(prenormalized)
    # every distinct pre-normalized word but the unencodable "kalé" is matched
    assert len(matched) == len(prenormalized) - 1


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
    assert [(e.index, e.word) for e in errors] == [(3, ""), (5, "kalé"), (9, "kalé"), (10, "")]
