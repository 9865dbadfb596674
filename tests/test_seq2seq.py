"""Tests for the character encoder-decoder: forward pass, gradients,
training determinism, inference and checkpoints."""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from phonorm.charcodec import SOURCE, TARGET, EncodingError, build_alphabet, encode
from phonorm.evaluation import generate_benchmark
from phonorm.lexicon import ParallelLexicon
from phonorm.prenorm import prenormalize
from phonorm.seq2seq import (
    CHECKPOINT_MAGIC,
    DECODE_CHUNK_ROWS,
    MAX_LEN_LIMIT,
    CheckpointError,
    TrainingConfig,
    batch_loss,
    decode_step,
    infer,
    infer_batch,
    init_model_params,
    load_checkpoint,
    loss_and_gradients,
    lstm_step,
    prepare_batch,
    _expected_shapes,
    _run,
    _step,
    _sigmoid,
    save_checkpoint,
    train,
)


def tiny_params(seed: int = 9, hidden_dim: int = 4, max_len: int = 5):
    source = build_alphabet(["abc"], SOURCE)
    target = build_alphabet(["abc"], TARGET)
    return init_model_params(
        source, target, max_len=max_len, hidden_dim=hidden_dim, num_layers=2,
        rng=np.random.default_rng(seed),
    )


def small_lexicon() -> ParallelLexicon:
    words = ["kala", "kolo", "bavi", "dumi", "sela", "gato", "mibu", "lodi",
             "tabe", "vuko", "pina", "drot"]
    return ParallelLexicon(entries=tuple((w, w) for w in words))


def test_tensor_writes_in_place_show_through_the_layer_views():
    # train updates params.tensors in place; the model must run on the result
    params = tiny_params()
    params.tensors["enc0.w_x"][1, 2] = 7.0
    params.tensors["out.w"][0, 1] = -3.0
    assert params.encoder[0][0][1, 2] == 7.0
    assert params.w_out[0, 1] == -3.0
    assert params.w_out is params.tensors["out.w"]
    assert params.b_out is params.tensors["out.b"]
    for tag, layers in (("enc", params.encoder), ("dec", params.decoder)):
        for i, layer in enumerate(layers):
            assert layer[0] is params.tensors[f"{tag}{i}.w_x"]
            assert layer[1] is params.tensors[f"{tag}{i}.w_h"]
            assert layer[2] is params.tensors[f"{tag}{i}.b"]


def test_rebound_tensors_reach_the_layer_views_inference_and_checkpoints(tmp_path):
    # the views are read from tensors on each access, so a new array bound
    # to a name is what infer_batch runs and what save_checkpoint writes
    source = build_alphabet(["abcdefghijklmnopqrstuvwxyz"], SOURCE)
    target = build_alphabet(["abdegiklmnostu"], TARGET)
    params = init_model_params(
        source, target, max_len=8, hidden_dim=8, num_layers=2,
        rng=np.random.default_rng(1), init_scale=3.0,
    )
    words = ["kala", "bavi", "dumi", "sela"]
    before = infer_batch(params, words)  # reads the views before the rebinding
    params.tensors["enc0.w_x"] = -params.tensors["enc0.w_x"]
    params.tensors["dec1.w_h"] = -params.tensors["dec1.w_h"]
    after = infer_batch(params, words)
    assert all(old != new for old, new in zip(before, after))
    assert params.encoder[0][0] is params.tensors["enc0.w_x"]
    assert params.decoder[1][1] is params.tensors["dec1.w_h"]
    path = tmp_path / "rebound.ckpt"
    save_checkpoint(path, params)
    assert infer_batch(load_checkpoint(path), words) == after


@pytest.mark.parametrize("num_layers", [1, 2, 3])
def test_dimensions_are_derived_from_the_tensors(num_layers):
    source = build_alphabet(["abc"], SOURCE)
    target = build_alphabet(["abc"], TARGET)
    params = init_model_params(source, target, max_len=4, hidden_dim=5, num_layers=num_layers,
                               rng=np.random.default_rng(0))
    assert params.hidden_dim == 5
    assert params.num_layers == num_layers
    assert len(params.encoder) == len(params.decoder) == num_layers
    expected = _expected_shapes(source.size, target.size, 5, num_layers)
    assert list(params.tensors) == list(expected)
    assert {name: t.shape for name, t in params.tensors.items()} == expected


def test_lstm_step_zero_params_gives_zero_state():
    hidden = 3
    params = (np.zeros((2, 4 * hidden)), np.zeros((hidden, 4 * hidden)), np.zeros(4 * hidden))
    x = np.ones((5, 2))
    h, c, _ = lstm_step(x, np.zeros((5, hidden)), np.zeros((5, hidden)), params)
    assert h.shape == (5, hidden)
    assert np.all(h == 0.0)
    assert np.all(c == 0.0)


def test_lstm_step_output_is_bounded():
    rng = np.random.default_rng(3)
    hidden = 6
    params = (
        rng.uniform(-2, 2, (4, 4 * hidden)),
        rng.uniform(-2, 2, (hidden, 4 * hidden)),
        rng.uniform(-2, 2, 4 * hidden),
    )
    h = np.zeros((8, hidden))
    c = np.zeros((8, hidden))
    for _ in range(7):
        h, c, _ = lstm_step(rng.uniform(-3, 3, (8, 4)), h, c, params)
        assert np.all(np.abs(h) < 1.0)
        assert np.all(np.isfinite(c))


def test_lstm_step_index_input_equals_one_hot_product():
    rng = np.random.default_rng(7)
    hidden, vocab = 5, 6
    params = (
        rng.uniform(-2, 2, (vocab, 4 * hidden)),
        rng.uniform(-2, 2, (hidden, 4 * hidden)),
        rng.uniform(-2, 2, 4 * hidden),
    )
    idx = np.array([0, 3, 5, 3, 1, 2, 4])
    h_prev = rng.uniform(-1, 1, (idx.size, hidden))
    c_prev = rng.uniform(-1, 1, (idx.size, hidden))
    h, c, _ = lstm_step(idx, h_prev, c_prev, params)
    h_ref, c_ref, _ = lstm_step(np.eye(vocab)[idx], h_prev, c_prev, params)
    assert np.array_equal(h, h_ref)
    assert np.array_equal(c, c_ref)


def test_greedy_decodes_of_a_seeded_random_model_are_pinned():
    # a large init scale keeps the decodes varied in symbols and length
    source = build_alphabet(["abcdefghijklmnopqrstuvwxyz"], SOURCE)
    target = build_alphabet(["abdegiklmnostu"], TARGET)
    params = init_model_params(
        source, target, max_len=8, hidden_dim=8, num_layers=2,
        rng=np.random.default_rng(1), init_scale=3.0,
    )
    golden = {
        "": "aasaba", "a": "asauaba", "kala": "ebauaba", "bodo": "asauaba",
        "gato": "ebaababa", "mibu": "bkabas", "zzzz": "ubaauaba",
        "abcdefgh": "ebakkk", "shanti": "asauas", "qwerty": "bk",
    }
    assert {word: infer(params, word) for word in golden} == golden


def _first_end_step(params, word):
    """The decoder step at which word's greedy decode first emits the end marker, or None."""
    src = encode([word], params.source_alphabet, params.max_len)
    zeros = np.zeros((1, params.hidden_dim))
    states = [(zeros, zeros)] * params.num_layers
    for t in range(src.shape[1]):
        _, states, _ = _step(params.encoder, src[:, t], states)
    x = np.array([params.target_alphabet.start_index])
    for step in range(params.max_len + 2):
        probs, states = decode_step(x, states, params)
        x = probs.argmax(axis=1)
        if x[0] == params.target_alphabet.end_index:
            return step
    return None


def test_batched_and_single_decodes_agree(zero_model):
    # two full chunks and a partial one
    count = 2 * DECODE_CHUNK_ROWS + 5
    rng = np.random.default_rng(0)
    letters = list("abcdefghijklmnopqrstuvwxyz")
    words = ["".join(rng.choice(letters, size=rng.integers(0, 9))) for _ in range(count)]
    # the pinned model above, pushed toward the end marker so that its rows
    # end at different steps or never
    source = build_alphabet(letters, SOURCE)
    target = build_alphabet(["abdegiklmnostu"], TARGET)
    params = init_model_params(
        source, target, max_len=8, hidden_dim=8, num_layers=2,
        rng=np.random.default_rng(1), init_scale=3.0,
    )
    params.b_out[target.end_index] += 6.0
    end_steps = {_first_end_step(params, word) for word in words}
    assert None in end_steps and len(end_steps - {None}) >= 3
    # the zero model with "a" favoured never emits the end marker
    zero_model.b_out[zero_model.target_alphabet.index_of("a")] = 1.0
    zero_words = ["".join(rng.choice(list("abc"), size=rng.integers(0, 7))) for _ in range(count)]
    for model, batch in ((params, words), (zero_model, zero_words)):
        single = [infer(model, word) for word in batch]
        assert infer_batch(model, batch) == single
        assert infer_batch(model, batch[::-1]) == single[::-1]
    assert {infer(zero_model, word) for word in zero_words} == {"a" * zero_model.max_len}


def test_batched_and_single_decodes_agree_on_the_benchmark_checkpoint():
    # the committed benchmark model, read only, on the pre-normalized test
    # inputs it can encode: in order, reversed and shuffled
    params = load_checkpoint(Path(__file__).resolve().parents[1] / "perfbench" / "data" / "model.ckpt")
    words = []
    for noisy, _ in generate_benchmark(seed=7).testset.entries:
        word = prenormalize(noisy)
        try:
            encode([word], params.source_alphabet, params.max_len)
        except EncodingError:
            continue
        words.append(word)
    assert len(words) >= 3 * DECODE_CHUNK_ROWS
    single = {word: infer(params, word) for word in words}
    shuffled = [words[i] for i in np.random.default_rng(3).permutation(len(words))]
    for batch in (words, words[::-1], shuffled):
        assert infer_batch(params, batch) == [single[word] for word in batch]


def test_decode_step_is_a_distribution(zero_model):
    target = zero_model.target_alphabet
    zeros = np.zeros((1, zero_model.hidden_dim))
    states = [(zeros, zeros)] * zero_model.num_layers
    x = np.array([target.start_index])
    probs, new_states = decode_step(x, states, zero_model)
    assert probs.shape == (1, target.size)
    assert probs.min() > 0.0
    assert np.isclose(probs.sum(), 1.0)
    # zero weights mean a uniform next-symbol distribution
    assert np.allclose(probs, 1.0 / target.size)
    assert len(new_states) == zero_model.num_layers


@pytest.mark.parametrize("dense", [False, True])
def test_run_steps_the_stack_like_a_layer_by_layer_loop(dense):
    rng = np.random.default_rng(21)
    vocab, hidden, batch, steps = 6, 5, 4, 7
    layers = [
        (rng.uniform(-1, 1, (vocab if i == 0 else hidden, 4 * hidden)),
         rng.uniform(-1, 1, (hidden, 4 * hidden)), rng.uniform(-1, 1, 4 * hidden))
        for i in range(3)
    ]
    x_seq = rng.integers(0, vocab, (batch, steps))
    if dense:
        x_seq = rng.uniform(-2, 2, (batch, steps, vocab))
    states = [(rng.uniform(-1, 1, (batch, hidden)), rng.uniform(-1, 1, (batch, hidden))) for _ in layers]

    top, finals, caches = _run(layers, x_seq, states)

    # reference: each layer runs over the whole sequence before the next
    inputs, want_finals = x_seq, []
    for layer, (h, c) in zip(layers, states):
        outputs = []
        for t in range(steps):
            h, c, _ = lstm_step(inputs[:, t], h, c, layer)
            outputs.append(h)
        want_finals.append((h, c))
        inputs = np.stack(outputs, axis=1)
    assert np.array_equal(top, inputs)
    for (h, c), (want_h, want_c) in zip(finals, want_finals):
        assert np.array_equal(h, want_h) and np.array_equal(c, want_c)
    assert [len(layer_caches) for layer_caches in caches] == [steps] * len(layers)


def test_prepare_batch_layout():
    source = build_alphabet(["ab"], SOURCE)
    target = build_alphabet(["ab"], TARGET)
    batch = prepare_batch([("ab", "b")], source, target, max_len=4)
    assert batch.src.shape == (1, 4)
    assert batch.dec_in.shape == (1, 5)
    assert batch.dec_tgt.shape == (1, 5)
    assert all(np.issubdtype(a.dtype, np.integer) for a in (batch.src, batch.dec_in, batch.dec_tgt))
    assert batch.src[0].tolist() == [source.index_of("a"), source.index_of("b"), 0, 0]
    # decoder input starts with the start marker
    assert batch.dec_in[0, 0] == target.start_index
    # real positions: one character plus the end marker
    assert batch.mask[0].tolist() == [True, True, False, False, False]
    assert batch.dec_tgt[0, 0] == target.index_of("b")
    assert batch.dec_tgt[0, 1] == target.end_index


def test_rows_trims_decoder_columns_to_longest_selected_target():
    params = tiny_params()
    pairs = [("ab", "a"), ("abc", "cab"), ("a", "ba"), ("c", "abcab")]
    full = prepare_batch(pairs, params.source_alphabet, params.target_alphabet, params.max_len)
    assert full.dec_in.shape == (4, params.max_len + 1)
    for index, steps in (([0, 2], 3), (slice(1, 3), 4), ([2, 0, 1], 4), ([3], 6), ([0], 2)):
        part = full.rows(index)
        assert part.dec_in.shape == part.dec_tgt.shape == part.mask.shape == (part.size, steps)
        assert np.array_equal(part.src, full.src[index])
        assert np.array_equal(part.dec_in, full.dec_in[index, :steps])
        assert np.array_equal(part.dec_tgt, full.dec_tgt[index, :steps])
        assert np.array_equal(part.mask, full.mask[index, :steps])
        # only columns masked in every selected row were cut
        assert not full.mask[index, steps:].any()
        assert part.mask[:, -1].any()


@pytest.mark.parametrize(
    "pairs",
    [
        [("ab", "ba"), ("abc", "cab"), ("a", "a"), ("cc", "b")],  # trimmed to 4 of 6 columns
        [("ab", "ba"), ("abcab", "cabca"), ("a", "a")],  # fills max_len: nothing to trim
        [("bca", "cb")],  # one row
    ],
)
def test_trimmed_batch_gives_full_width_loss_and_gradients(pairs):
    params = tiny_params(seed=4, hidden_dim=6)
    full = prepare_batch(pairs, params.source_alphabet, params.target_alphabet, params.max_len)
    trimmed = full.rows(np.arange(full.size))
    longest = max(len(t) for _, t in pairs) + 1
    assert trimmed.dec_in.shape[1] == longest

    a = loss_and_gradients(params, trimmed)
    b = loss_and_gradients(params, full)
    assert vars(a.metrics) == vars(b.metrics)
    assert vars(batch_loss(params, trimmed)) == vars(b.metrics)
    assert a.grads.keys() == b.grads.keys()
    for name, grad in b.grads.items():
        scale = np.abs(grad).max()
        assert np.abs(a.grads[name] - grad).max() <= 1e-12 * scale, name


def test_batch_loss_matches_stepwise_decoding():
    params = tiny_params()
    pairs = [("ab", "ba"), ("abc", "cab"), ("a", "a")]
    batch = prepare_batch(pairs, params.source_alphabet, params.target_alphabet, params.max_len)

    zeros = np.zeros((batch.size, params.hidden_dim))
    _, states, _ = _run(params.encoder, batch.src, [(zeros, zeros)] * params.num_layers)
    probs_steps = []
    for t in range(batch.dec_in.shape[1]):
        probs_t, states = decode_step(batch.dec_in[:, t], states, params)
        probs_steps.append(probs_t)
    probs = np.stack(probs_steps, axis=1)

    rows, cols = np.nonzero(batch.mask)
    manual_loss = float(-np.log(probs[rows, cols, batch.dec_tgt[rows, cols]]).mean())

    metrics = batch_loss(params, batch)
    assert metrics.token_total == int(batch.mask.sum())
    assert np.isclose(metrics.loss, manual_loss)


def test_gradients_match_finite_differences_spot_check():
    params = tiny_params(seed=11, hidden_dim=3, max_len=3)
    pairs = [("ab", "ba"), ("a", "b")]
    batch = prepare_batch(pairs, params.source_alphabet, params.target_alphabet, params.max_len)
    grads = loss_and_gradients(params, batch).grads

    rng = np.random.default_rng(0)
    step = 1e-5
    for name in ("enc0.w_x", "dec1.w_h", "out.w", "out.b"):
        tensor = params.tensors[name]
        flat = tensor.reshape(-1)
        for _ in range(3):
            k = int(rng.integers(0, flat.size))
            original = flat[k]
            flat[k] = original + step
            up = batch_loss(params, batch).loss
            flat[k] = original - step
            down = batch_loss(params, batch).loss
            flat[k] = original
            numeric = (up - down) / (2 * step)
            analytic = grads[name].reshape(-1)[k]
            assert abs(numeric - analytic) <= 1e-8 + 1e-4 * max(abs(numeric), abs(analytic))


def test_train_is_deterministic():
    config = TrainingConfig(hidden_dim=8, epochs=3, batch_size=4,
                            validation_fraction=0.25, rng_seed=5)
    params_a, trace_a = train(small_lexicon(), config)
    params_b, trace_b = train(small_lexicon(), config)
    assert trace_a == trace_b
    for name, tensor in params_a.tensors.items():
        assert np.array_equal(tensor, params_b.tensors[name])


def test_train_reduces_loss_and_records_validation():
    config = TrainingConfig(hidden_dim=8, epochs=5, batch_size=4,
                            validation_fraction=0.25, rng_seed=5)
    params, trace = train(small_lexicon(), config)
    assert len(trace.records) == 5
    assert trace.final.train_loss < trace.records[0].train_loss
    assert trace.final.val_loss is not None
    assert 0.0 <= trace.final.train_char_accuracy <= 1.0

    tsv = trace.to_tsv()
    lines = tsv.strip().split("\n")
    assert lines[0].startswith("epoch\ttrain_loss")
    assert len(lines) == 6
    # repr round-trips the floats exactly
    assert float(lines[1].split("\t")[1]) == trace.records[0].train_loss


def test_train_without_validation_leaves_blank_columns():
    config = TrainingConfig(hidden_dim=8, epochs=2, batch_size=4,
                            validation_fraction=0.0, rng_seed=5)
    params, trace = train(small_lexicon(), config)
    assert trace.final.val_loss is None
    row = trace.to_tsv().strip().split("\n")[1].split("\t")
    assert row[4] == "" and row[5] == "" and row[6] == ""


def test_train_batch_larger_than_split_is_one_batch():
    # 9 training pairs: batch_size 9 takes them all, and a batch 10x larger
    # gathers past the end of the split and must take exactly the same rows
    runs = [train(small_lexicon(), TrainingConfig(hidden_dim=8, epochs=3, batch_size=size,
                                                  validation_fraction=0.25, rng_seed=5))
            for size in (9, 90)]
    (params_a, trace_a), (params_b, trace_b) = runs
    assert trace_a.to_tsv() == trace_b.to_tsv()
    for name, tensor in params_a.tensors.items():
        assert np.array_equal(tensor, params_b.tensors[name])


def test_sigmoid_matches_two_branch_formula_bit_for_bit():
    def two_branch(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    rng = np.random.default_rng(0)
    sample = rng.normal(scale=8.0, size=(64, 512))
    sample[0, :8] = [0.0, -0.0, 709.0, -709.0, 1e4, -1e4, 1e-300, -1e-300]
    # underflow to 0 is the intended result; anything else would be a warning
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for x in (sample, sample[:1, :128], sample[:, 128:256]):
            got = _sigmoid(x)
            assert got.tobytes() == two_branch(x).tobytes()
    assert _sigmoid(np.array([-1e4]))[0] == 0.0 and _sigmoid(np.array([1e4]))[0] == 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sigmoid_matches_the_where_form_bit_for_bit():
    # the form _sigmoid replaced: both branches divided, then one picked
    def where_form(x):
        e = np.exp(-np.abs(x))
        d = 1.0 + e
        return np.where(x >= 0, 1.0 / d, e / d)

    edges = [0.0, 1e-300, 36.0, 745.0, np.inf]
    sample = np.random.default_rng(12).normal(scale=10.0, size=(32, 256))
    sample[0, : 2 * len(edges)] = edges + [-v for v in edges]
    before = sample.copy()
    for x in (sample, sample[:, :128], sample[3:5, 64:200]):
        assert np.array_equal(_sigmoid(x).view(np.uint64), where_form(x).view(np.uint64))
    assert np.array_equal(sample.view(np.uint64), before.view(np.uint64))


def _masked_sigmoid(x):
    # the form _sigmoid replaced: one exp, then 1.0 copied in where x >= 0
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    np.copyto(e, 1.0, where=x >= 0)
    return np.divide(e, d, out=e)


def _reference_lstm_step(x, h_prev, c_prev, layer):
    # lstm_step as it was before its sums were built in place
    w_x, w_h, b = layer
    hdim = w_h.shape[0]
    z = (w_x[x] if x.ndim == 1 else x @ w_x) + h_prev @ w_h + b
    i_f = _masked_sigmoid(z[:, : 2 * hdim])
    i, f = i_f[:, :hdim], i_f[:, hdim:]
    g = np.tanh(z[:, 2 * hdim : 3 * hdim])
    o = _masked_sigmoid(z[:, 3 * hdim :])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    return h, c, (x, h_prev, c_prev, i, f, g, o, tc), z


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rows", [1, 7, 32, 33])
@pytest.mark.parametrize("dense", [False, True])
def test_lstm_step_matches_the_reference_expressions_bit_for_bit(rows, dense):
    rng = np.random.default_rng(rows)
    hidden, vocab = 16, 9
    # weights this large saturate the gates both ways and drive some
    # pre-activations below -745, where exp underflows to 0
    layer = (
        rng.uniform(-300, 300, (vocab, 4 * hidden)),
        rng.uniform(-300, 300, (hidden, 4 * hidden)),
        rng.uniform(-300, 300, 4 * hidden),
    )
    x = rng.normal(size=(rows, vocab)) if dense else rng.integers(0, vocab, rows)
    # strided states: every other column of one array, every other row of another
    h_prev = rng.uniform(-1, 1, (rows, 2 * hidden))[:, ::2]
    c_prev = rng.uniform(-3, 3, (2 * rows, hidden))[::2]
    z_seen = []
    for _ in range(3):
        h, c, cache = lstm_step(x, h_prev, c_prev, layer)
        h_ref, c_ref, cache_ref, z = _reference_lstm_step(x, h_prev, c_prev, layer)
        z_seen.append(z)
        for got, want in zip((h, c, *cache), (h_ref, c_ref, *cache_ref), strict=True):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        h_prev, c_prev = h, c
    z_all = np.concatenate([z.ravel() for z in z_seen])
    assert (z_all >= 0).any() and ((z_all < 0) & (z_all > -745)).any() and (z_all < -745).any()


def test_train_rejects_empty_lexicon():
    with pytest.raises(ValueError):
        train(ParallelLexicon(entries=()), TrainingConfig(epochs=1))


def test_diverging_train_raises_naming_the_tensor_and_the_epoch():
    lexicon = generate_benchmark(train_size=100).lexicon
    epochs = []
    # the first update overflows; without errstate, pytest would raise the
    # RuntimeWarning before train could check the tensors
    diverged = r"tensor \S+ holds non-finite values after epoch 1"
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=diverged):
        train(lexicon, TrainingConfig(epochs=3, hidden_dim=8, learning_rate=1e308), on_epoch=epochs.append)
    assert epochs == []


def test_train_sources_are_prenormalized():
    # "baaaad" trims to "baad": the source alphabet stays within a-z and the
    # model treats the trimmed form and the raw form identically
    lexicon = ParallelLexicon(entries=(("baaaad", "bad"), ("kala", "kala"),
                                       ("bad", "bad"), ("kolo", "kolo")))
    config = TrainingConfig(hidden_dim=8, epochs=1, batch_size=2,
                            validation_fraction=0.0, rng_seed=2)
    params, _ = train(lexicon, config)
    assert infer(params, "baad") == infer(params, "baad")
    assert params.max_len == max(len("baad"), len("kala"), len("kolo"))


def test_infer_zero_model_returns_empty_string(zero_model):
    assert infer(zero_model, "ab") == ""


def test_infer_caps_emitted_length(zero_model):
    target = zero_model.target_alphabet
    zero_model.b_out[target.index_of("a")] = 1.0
    assert infer(zero_model, "ab") == "a" * zero_model.max_len


def test_checkpoint_round_trip(tmp_path):
    params = tiny_params(seed=21)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)

    assert loaded.hidden_dim == params.hidden_dim
    assert loaded.num_layers == params.num_layers
    assert loaded.max_len == params.max_len
    assert loaded.source_alphabet == params.source_alphabet
    assert loaded.target_alphabet == params.target_alphabet
    originals = params.tensors
    for name, tensor in loaded.tensors.items():
        assert np.array_equal(tensor, originals[name])
    for word in ("ab", "cab", "abc", ""):
        assert infer(loaded, word) == infer(params, word)
    # loaded tensors must be writable (training could resume on them)
    loaded.b_out[0] = 1.0


def test_loaded_tensors_are_aligned_writable_float64_arrays(tmp_path):
    params = tiny_params(seed=21)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    for tensor in loaded.tensors.values():
        assert tensor.dtype == np.float64 and tensor.dtype.isnative
        assert tensor.flags.aligned and tensor.flags.c_contiguous and tensor.flags.writeable
    # an in-place write to a loaded tensor is a write to the model
    favoured = "a" * loaded.max_len
    assert infer(loaded, "cab") != favoured
    loaded.tensors["out.b"][loaded.target_alphabet.index_of("a")] = 1e3
    assert infer(loaded, "cab") == favoured


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_wrong_version(tmp_path):
    params = tiny_params()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    data = path.read_bytes()
    assert b'"version":1' in data
    path.write_bytes(data.replace(b'"version":1', b'"version":9', 1))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation_and_trailing_bytes(tmp_path):
    params = tiny_params()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    data = path.read_bytes()

    path.write_bytes(data[:-10])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)

    path.write_bytes(data + b"\x00\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def _rewrite_dimensions(path, params, dims):
    """Save params to path with dims in its header, and everything but the
    dimension checks consistent: the manifest and tensor bytes follow them."""
    save_checkpoint(path, params)
    data = path.read_bytes()
    offset = len(CHECKPOINT_MAGIC) + 1
    (header_len,) = struct.unpack_from("<Q", data, offset)
    header = json.loads(data[offset + 8 : offset + 8 + header_len])
    header.update(dims)
    shapes = _expected_shapes(
        params.source_alphabet.size,
        params.target_alphabet.size,
        header["hidden_dim"],
        header["num_layers"],
    )
    header["tensors"] = [[name, list(shape)] for name, shape in shapes.items()]
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
    count = sum(int(np.prod(shape)) for shape in shapes.values())
    path.write_bytes(
        CHECKPOINT_MAGIC + b"\n" + struct.pack("<Q", len(blob)) + blob + bytes(8 * count)
    )


@pytest.mark.parametrize(
    "dims",
    [{"max_len": 0}, {"max_len": -3}, {"hidden_dim": 0}, {"num_layers": 0}],
)
def test_checkpoint_rejects_nonpositive_dimensions(tmp_path, dims):
    path = tmp_path / "model.ckpt"
    _rewrite_dimensions(path, tiny_params(), dims)
    with pytest.raises(CheckpointError, match="must be positive"):
        load_checkpoint(path)


@pytest.mark.parametrize("max_len", [MAX_LEN_LIMIT + 1, 10**6, 10**12])
def test_checkpoint_rejects_max_len_above_the_limit(tmp_path, max_len):
    path = tmp_path / "model.ckpt"
    _rewrite_dimensions(path, tiny_params(), {"max_len": max_len})
    with pytest.raises(CheckpointError, match=f"max_len must be at most {MAX_LEN_LIMIT} "):
        load_checkpoint(path)
    # the limit itself loads and decodes
    _rewrite_dimensions(path, tiny_params(), {"max_len": MAX_LEN_LIMIT})
    assert infer(load_checkpoint(path), "abc") == ""


def test_init_and_train_reject_max_len_above_the_limit():
    source = build_alphabet(["abc"], SOURCE)
    target = build_alphabet(["abc"], TARGET)
    with pytest.raises(ValueError, match=f"max_len must be at most {MAX_LEN_LIMIT} "):
        init_model_params(source, target, max_len=MAX_LEN_LIMIT + 1, hidden_dim=2, num_layers=1,
                          rng=np.random.default_rng(0))
    # a training word of MAX_LEN_LIMIT + 1 characters after pre-normalization
    long_word = "ab" * (MAX_LEN_LIMIT // 2) + "a"
    lexicon = ParallelLexicon(entries=(("ab", "ab"), (long_word, "ab")))
    with pytest.raises(ValueError, match=f"max_len must be at most {MAX_LEN_LIMIT} "):
        train(lexicon, TrainingConfig(epochs=1, hidden_dim=2))


@pytest.mark.parametrize("name, value", [("out.w", np.nan), ("out.b", np.inf), ("enc0.w_x", -np.inf)])
def test_checkpoint_rejects_non_finite_tensors(tmp_path, name, value):
    params = tiny_params()
    params.tensors[name].flat[1] = value
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    with pytest.raises(CheckpointError, match=f"tensor {name} holds non-finite"):
        load_checkpoint(path)


def test_checkpoint_error_is_a_value_error():
    assert issubclass(CheckpointError, ValueError)
