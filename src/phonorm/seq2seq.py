"""Character-level encoder-decoder for first-degree normalization.

A stacked LSTM encoder reads the (pre-normalized) noisy word one character at
a time; the final hidden and cell states of each encoder layer seed the
matching decoder layer, which then emits the normalized form character by
character under teacher forcing during training and greedy argmax decoding at
inference time.

Everything is plain numpy in double precision with hand-derived gradients, so
training is deterministic for a fixed seed: identical inputs produce
bit-identical parameters, checkpoints and decoded strings.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .charcodec import SOURCE, TARGET, Alphabet, build_alphabet, decode, encode
from .lexicon import ParallelLexicon
from .prenorm import prenormalize

CHECKPOINT_MAGIC = b"phonorm-checkpoint"
CHECKPOINT_VERSION = 1

# the largest max_len a model may have: encode allocates max_len columns per
# word and the decoder runs up to max_len + 2 steps, so a checkpoint header
# declaring more is refused at load instead of exhausting memory on its
# first word
MAX_LEN_LIMIT = 1024


class CheckpointError(ValueError):
    """Raised when a checkpoint file cannot be read back."""


# ---------------------------------------------------------------------------
# parameters


def _layer_names(tag: str, index: int) -> tuple[str, str, str]:
    """The tensor names of layer index of the stack tag ("enc" or "dec").

    A layer is the triple (w_x, w_h, b): w_x is (input_dim, 4 * hidden_dim),
    w_h (hidden_dim, 4 * hidden_dim) and b (4 * hidden_dim,), with the gates
    stacked along the last axis as [i, f, g, o].
    """
    return f"{tag}{index}.w_x", f"{tag}{index}.w_h", f"{tag}{index}.b"


@dataclass(eq=False)
class ModelParams:
    """The codec state needed to run the model plus every trainable tensor.

    tensors maps each name to its array in _expected_shapes order, the order
    of gradients, rmsprop state and the checkpoint manifest. The layer views
    and the output projection read those arrays on each access, so an
    in-place update of a tensor, or a new array bound to its name, is an
    update of the model.
    """

    source_alphabet: Alphabet
    target_alphabet: Alphabet
    max_len: int
    tensors: dict[str, np.ndarray]

    @property
    def hidden_dim(self) -> int:
        return self.w_out.shape[0]

    @property
    def num_layers(self) -> int:
        # three tensors per layer in each of the two stacks, plus out.w and out.b
        return (len(self.tensors) - 2) // 6

    @property
    def w_out(self) -> np.ndarray:  # (hidden_dim, target_size)
        return self.tensors["out.w"]

    @property
    def b_out(self) -> np.ndarray:  # (target_size,)
        return self.tensors["out.b"]

    def _layers(self, tag: str) -> tuple[tuple[np.ndarray, ...], ...]:
        return tuple(
            tuple(self.tensors[name] for name in _layer_names(tag, index)) for index in range(self.num_layers)
        )

    @property
    def encoder(self) -> tuple[tuple[np.ndarray, ...], ...]:
        return self._layers("enc")

    @property
    def decoder(self) -> tuple[tuple[np.ndarray, ...], ...]:
        return self._layers("dec")


def _expected_shapes(
    source_size: int, target_size: int, hidden_dim: int, num_layers: int
) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {}
    for tag, in_dim in (("enc", source_size), ("dec", target_size)):
        for index in range(num_layers):
            first = in_dim if index == 0 else hidden_dim
            layer_shapes = ((first, 4 * hidden_dim), (hidden_dim, 4 * hidden_dim), (4 * hidden_dim,))
            shapes.update(zip(_layer_names(tag, index), layer_shapes))
    shapes["out.w"] = (hidden_dim, target_size)
    shapes["out.b"] = (target_size,)
    return shapes


def _check_dimensions(hidden_dim: int, num_layers: int, max_len: int) -> None:
    """Raise ValueError naming the first dimension a model may not have."""
    for name, value in (("hidden_dim", hidden_dim), ("num_layers", num_layers), ("max_len", max_len)):
        if value < 1:
            raise ValueError(f"{name} must be positive (got {value})")
    if max_len > MAX_LEN_LIMIT:
        raise ValueError(f"max_len must be at most {MAX_LEN_LIMIT} (got {max_len})")


def _non_finite(tensors: dict[str, np.ndarray]) -> str | None:
    """The name of the first tensor holding a NaN or an infinity, or None."""
    return next((name for name, tensor in tensors.items() if not np.isfinite(tensor).all()), None)


def init_model_params(
    source_alphabet: Alphabet,
    target_alphabet: Alphabet,
    max_len: int,
    hidden_dim: int,
    num_layers: int,
    rng: np.random.Generator,
    init_scale: float = 0.08,
) -> ModelParams:
    """Draw every tensor uniformly from [-init_scale, init_scale]."""
    _check_dimensions(hidden_dim, num_layers, max_len)
    shapes = _expected_shapes(source_alphabet.size, target_alphabet.size, hidden_dim, num_layers)
    tensors = {name: rng.uniform(-init_scale, init_scale, size=shape) for name, shape in shapes.items()}
    return ModelParams(source_alphabet, target_alphabet, max_len, tensors)


# ---------------------------------------------------------------------------
# forward primitives


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so exp never
    # overflows, written as e^min(x, 0) / (1 + e^-|x|): that numerator is
    # exactly 1.0 for x >= 0 (±0 and +inf included) and exactly e^-|x| below,
    # so one more exp picks each branch's numerator without a masked copy,
    # which costs more than the exp
    d = np.exp(-np.abs(x))
    d += 1.0
    n = np.exp(np.minimum(x, 0.0))
    return np.divide(n, d, out=n)


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def lstm_step(
    x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, layer: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Advance one time step for a batch: returns (h, c, cache).

    layer is (w_x, w_h, b) as _layer_names describes. x is either a (batch,)
    vector of symbol indices, whose input projection is the row gather
    w_x[x], or a dense (batch, input_dim) array.
    """
    w_x, w_h, b = layer
    hdim = w_h.shape[0]
    # both sums are built in place; IEEE addition commutes, so z has the bits
    # of (input projection + h_prev @ w_h) + b
    z = h_prev @ w_h
    z += w_x[x] if x.ndim == 1 else x @ w_x
    z += b
    i_f = _sigmoid(z[:, : 2 * hdim])
    i, f = i_f[:, :hdim], i_f[:, hdim:]
    g = np.tanh(z[:, 2 * hdim : 3 * hdim])
    o = _sigmoid(z[:, 3 * hdim :])
    c = f * c_prev
    c += i * g
    tc = np.tanh(c)
    h = o * tc
    return h, c, (x, h_prev, c_prev, i, f, g, o, tc)


def _lstm_layer_backward(
    caches: list,
    d_h_seq: np.ndarray,
    d_h_final: np.ndarray,
    d_c_final: np.ndarray,
    layer: Sequence[np.ndarray],
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray | None, np.ndarray, np.ndarray]:
    """Back-propagate one layer across time.

    d_h_seq carries the gradient flowing into every per-step output h_t from
    whatever consumed it (the layer above or the output projection);
    d_h_final / d_c_final carry extra gradient on the last states (used when
    they seeded a decoder layer). The time loop runs only the recurrence: it
    stores each step's pre-activation gradient dz and carries dh and dc back.
    The parameter gradients and the input gradient are then one product each
    over all steps at once. Returns the parameter gradients, the gradient
    w.r.t. the input sequence (None for index inputs, which have none) and
    the gradients w.r.t. the initial states.
    """
    w_x, w_h, _ = layer
    batch, steps, _ = d_h_seq.shape
    hdim = w_h.shape[0]
    dz_seq = np.empty((steps, batch, 4 * hdim))
    dh, dc = d_h_final, d_c_final
    for t in reversed(range(steps)):
        _, _, c_prev, i, f, g, o, tc = caches[t]
        dh = d_h_seq[:, t, :] + dh
        dct = dc + dh * o * (1.0 - tc * tc)
        dz = dz_seq[t]
        dz[:, :hdim] = dct * g * i * (1.0 - i)
        dz[:, hdim : 2 * hdim] = dct * c_prev * f * (1.0 - f)
        dz[:, 2 * hdim : 3 * hdim] = dct * i * (1.0 - g * g)
        dz[:, 3 * hdim :] = dh * tc * o * (1.0 - o)
        dh = dz @ w_h.T
        dc = dct * f

    dz_all = dz_seq.reshape(steps * batch, 4 * hdim)
    h_prev = np.stack([cache[1] for cache in caches]).reshape(steps * batch, hdim)
    dw_h = h_prev.T @ dz_all
    db = dz_all.sum(axis=0)
    x_seq = np.stack([cache[0] for cache in caches])  # (steps, batch) or (steps, batch, input_dim)
    if x_seq.ndim == 2:
        # w_x[x] was a row gather, so each symbol's row collects the dz rows
        # of the positions that read it
        dw_x = np.zeros_like(w_x)
        for symbol in np.unique(x_seq):
            dw_x[symbol] = dz_seq[x_seq == symbol].sum(axis=0)
        return (dw_x, dw_h, db), None, dh, dc
    dw_x = x_seq.reshape(steps * batch, -1).T @ dz_all
    d_x_seq = (dz_seq @ w_x.T).transpose(1, 0, 2)
    return (dw_x, dw_h, db), d_x_seq, dh, dc


def _step(
    layers: Sequence[Sequence[np.ndarray]], x: np.ndarray, states: Sequence[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]], list[tuple]]:
    """Advance a stack one time step: layer l reads the h of layer l - 1.

    x is the bottom layer's input (see lstm_step); states holds (h, c) per
    layer. Returns the top layer's h, each layer's new (h, c) and each
    layer's lstm_step cache.
    """
    new_states, caches = [], []
    for layer, (h, c) in zip(layers, states):
        x, c, cache = lstm_step(x, h, c, layer)
        new_states.append((x, c))
        caches.append(cache)
    return x, new_states, caches


def _run(
    layers: Sequence[Sequence[np.ndarray]], x_seq: np.ndarray, states: Sequence[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]], list[list[tuple]]]:
    """Step a stack over the columns of x_seq, (batch, steps) or (batch, steps, input_dim).

    Returns the top outputs (batch, steps, hidden_dim), the final (h, c) per
    layer and, per layer, its caches in time order.
    """
    tops, step_caches = [], []
    for t in range(x_seq.shape[1]):
        top, states, caches = _step(layers, x_seq[:, t], states)
        tops.append(top)
        step_caches.append(caches)
    return np.stack(tops, axis=1), states, [list(layer) for layer in zip(*step_caches)]


def decode_step(
    x: np.ndarray, states: Sequence[tuple[np.ndarray, np.ndarray]], params: ModelParams
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Advance the decoder one character.

    x holds the index of the previously emitted symbol, shape (batch,);
    states holds (h, c) per layer. Returns the softmax distribution over the
    next symbol and the advanced states.
    """
    top, new_states, _ = _step(params.decoder, x, states)
    return _softmax(top @ params.w_out + params.b_out), new_states


# ---------------------------------------------------------------------------
# batches, loss and gradients


@dataclass(eq=False)
class Batch:
    """Teacher-forcing views of a group of (source, target) pairs.

    dec_in is dec_tgt shifted right by one (start marker first); mask is True
    exactly on the real target symbols (characters plus the end marker), a
    prefix of each row, so padded positions contribute nothing to loss or
    gradients. The decoder runs for as many steps as the batch has columns:
    max_len + 1 as prepare_batch lays it out, fewer after rows().
    """

    src: np.ndarray  # (batch, max_len) int indices
    dec_in: np.ndarray  # (batch, steps) int indices, steps <= max_len + 1
    dec_tgt: np.ndarray  # (batch, steps) int indices
    mask: np.ndarray  # (batch, steps) bool

    @property
    def size(self) -> int:
        return self.src.shape[0]

    def rows(self, index) -> Batch:
        """The batch of the pairs at index (a slice or an index array).

        Its decoder columns stop at the longest real target among those pairs:
        the columns cut off are masked in every row, and a decoder step never
        affects the steps before it, so the loss is that of the full-width
        rows and the gradients differ from theirs at most in the rounding of
        their sums.
        """
        mask = self.mask[index]
        steps = int(mask.sum(axis=1).max(initial=0))
        return Batch(src=self.src[index], dec_in=self.dec_in[index, :steps],
                     dec_tgt=self.dec_tgt[index, :steps], mask=mask[:, :steps])


def prepare_batch(
    pairs: Sequence[tuple[str, str]],
    source_alphabet: Alphabet,
    target_alphabet: Alphabet,
    max_len: int,
) -> Batch:
    """Encode already pre-normalized (source, target) pairs for training."""
    if not pairs:
        raise ValueError("cannot build an empty batch")
    src = encode([source for source, _ in pairs], source_alphabet, max_len)
    # (start, chars..., end, pads...), length max_len + 2
    full = encode([target for _, target in pairs], target_alphabet, max_len)
    dec_tgt = full[:, 1:]
    return Batch(src=src, dec_in=full[:, :-1], dec_tgt=dec_tgt, mask=dec_tgt != target_alphabet.pad_index)


def _forward(params: ModelParams, batch: Batch):
    zeros = np.zeros((batch.size, params.hidden_dim))
    _, enc_finals, enc_caches = _run(params.encoder, batch.src, [(zeros, zeros)] * params.num_layers)
    top, _, dec_caches = _run(params.decoder, batch.dec_in, enc_finals)
    probs = _softmax(top @ params.w_out + params.b_out)
    return enc_caches, dec_caches, top, probs


@dataclass(eq=False)
class BatchMetrics:
    """Teacher-forced metrics over one batch or, added up, over several.

    All counts are over masked (real) target positions. loss_sum is a
    batch's mean loss times its token count, summed over the batches.
    """

    loss_sum: float
    token_correct: int
    token_total: int
    seq_correct: int
    seq_total: int

    @property
    def loss(self) -> float:
        return self.loss_sum / self.token_total

    def __add__(self, other: BatchMetrics) -> BatchMetrics:
        return BatchMetrics(*(getattr(self, f.name) + getattr(other, f.name) for f in fields(self)))


def _masked_metrics(probs: np.ndarray, batch: Batch) -> BatchMetrics:
    rows, cols = np.nonzero(batch.mask)
    picked = probs[rows, cols, batch.dec_tgt[rows, cols]]
    total = rows.size
    loss = float(-np.log(np.maximum(picked, 1e-300)).sum() / total)
    hit = probs.argmax(axis=2) == batch.dec_tgt
    correct = int(hit[rows, cols].sum())
    seq_correct = int((hit | ~batch.mask).all(axis=1).sum())
    return BatchMetrics(
        loss_sum=loss * total,
        token_correct=correct,
        token_total=total,
        seq_correct=seq_correct,
        seq_total=batch.size,
    )


def batch_loss(params: ModelParams, batch: Batch) -> BatchMetrics:
    """Forward-only teacher-forced metrics for a batch."""
    _, _, _, probs = _forward(params, batch)
    return _masked_metrics(probs, batch)


@dataclass(eq=False)
class BatchResult:
    grads: dict[str, np.ndarray]
    metrics: BatchMetrics


def loss_and_gradients(params: ModelParams, batch: Batch) -> BatchResult:
    """Mean masked cross-entropy over the batch plus gradients for every tensor.

    The loss averages -log p(target symbol) over real (unmasked) target
    positions only; padded positions are excluded from both the loss and the
    gradient even though the network physically steps through them (the
    encoder through all max_len, the decoder through the batch's columns).
    """
    enc_caches, dec_caches, top, probs = _forward(params, batch)
    metrics = _masked_metrics(probs, batch)

    rows, cols = np.nonzero(batch.mask)
    dlogits = probs.copy()
    dlogits[rows, cols, batch.dec_tgt[rows, cols]] -= 1.0
    dlogits *= batch.mask[:, :, None] / metrics.token_total

    grads: dict[str, np.ndarray] = {
        "out.w": np.einsum("bth,btv->hv", top, dlogits),
        "out.b": dlogits.sum(axis=(0, 1)),
    }

    # the decoder's final states feed nothing; its initial-state gradients are
    # the encoder's final-state gradients
    zeros = np.zeros((batch.size, params.hidden_dim))
    d_h = [zeros] * params.num_layers
    d_c = [zeros] * params.num_layers
    stacks = (
        ("dec", params.decoder, dec_caches, dlogits @ params.w_out.T),
        ("enc", params.encoder, enc_caches, np.zeros((batch.size, batch.src.shape[1], params.hidden_dim))),
    )
    for tag, layers, caches, d_above in stacks:
        for index in reversed(range(params.num_layers)):
            layer_grads, d_above, d_h[index], d_c[index] = _lstm_layer_backward(
                caches[index], d_above, d_h[index], d_c[index], layers[index]
            )
            grads.update(zip(_layer_names(tag, index), layer_grads))

    return BatchResult(grads=grads, metrics=metrics)


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainingConfig:
    hidden_dim: int = 128
    num_layers: int = 2
    batch_size: int = 64
    epochs: int = 100
    learning_rate: float = 0.001
    validation_fraction: float = 0.1
    rng_seed: int = 0


# rmsprop: decay of the mean squared gradient, and the step denominator's floor
RMSPROP_RHO = 0.9
RMSPROP_EPSILON = 1e-8


@dataclass(frozen=True)
class EpochRecord:
    """Teacher-forced metrics after one epoch.

    char accuracy counts argmax hits on real (non-pad) target positions;
    exact accuracy counts sequences with every real position correct.
    """

    epoch: int
    train_loss: float
    train_char_accuracy: float
    train_exact_accuracy: float
    val_loss: float | None
    val_char_accuracy: float | None
    val_exact_accuracy: float | None


def _columns(m: BatchMetrics | None) -> tuple:
    """An EpochRecord's loss, char and exact accuracy columns for one split."""
    if m is None:
        return None, None, None
    return m.loss, m.token_correct / m.token_total, m.seq_correct / m.seq_total


@dataclass(frozen=True)
class TrainingTrace:
    records: tuple[EpochRecord, ...]

    @property
    def final(self) -> EpochRecord:
        return self.records[-1]

    def to_tsv(self) -> str:
        def fmt(value) -> str:
            return "" if value is None else repr(value)

        columns = [field.name for field in fields(EpochRecord)]
        lines = ["\t".join(columns)]
        for rec in self.records:
            lines.append("\t".join(fmt(getattr(rec, col)) for col in columns))
        return "\n".join(lines) + "\n"


def train(
    lexicon: ParallelLexicon,
    config: TrainingConfig = TrainingConfig(),
    on_epoch: Callable[[EpochRecord], None] | None = None,
) -> tuple[ModelParams, TrainingTrace]:
    """Fit the encoder-decoder on a parallel lexicon.

    Sources are pre-normalized before anything else, mirroring what the
    normalization pipeline feeds the model at inference time. Alphabets and
    the padded length are derived from the (pre-normalized) training data.
    Optimization is rmsprop on mini-batches; shuffling, the validation split
    and the initial weights all come from one seeded generator, so a given
    (lexicon, config) always yields the same model.
    """
    if config.epochs < 1:
        raise ValueError("epochs must be positive")
    if config.batch_size < 1:
        raise ValueError("batch_size must be positive")
    if not 0.0 < config.learning_rate < np.inf:
        raise ValueError("learning_rate must be a positive finite number")
    if not 0.0 <= config.validation_fraction < 1.0:
        raise ValueError("validation_fraction must be in [0, 1)")
    if config.rng_seed < 0:
        raise ValueError(f"rng_seed must be non-negative (got {config.rng_seed})")
    pairs = [(prenormalize(src), tgt) for src, tgt in lexicon.entries]
    if not pairs:
        raise ValueError("training lexicon is empty")
    for src, tgt in pairs:
        if not src or not tgt:
            raise ValueError("training pairs must be non-empty after pre-normalization")

    source_alphabet = build_alphabet((s for s, _ in pairs), SOURCE)
    target_alphabet = build_alphabet((t for _, t in pairs), TARGET)
    max_len = max(max(len(s), len(t)) for s, t in pairs)

    rng = np.random.default_rng(config.rng_seed)
    params = init_model_params(
        source_alphabet, target_alphabet, max_len, config.hidden_dim, config.num_layers, rng
    )

    perm = rng.permutation(len(pairs))
    n_val = int(round(len(pairs) * config.validation_fraction))
    if n_val >= len(pairs):
        raise ValueError("validation split leaves no training data")
    # every pair encoded once, in perm order: validation rows first
    encoded = prepare_batch([pairs[i] for i in perm], source_alphabet, target_alphabet, max_len)
    val_batch = encoded.rows(slice(None, n_val)) if n_val else None
    train_batch = encoded.rows(slice(n_val, None))

    rms_cache = {name: np.zeros_like(arr) for name, arr in params.tensors.items()}

    records = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(train_batch.size)
        seen = BatchMetrics(0.0, 0, 0, 0, 0)
        for start in range(0, train_batch.size, config.batch_size):
            result = loss_and_gradients(params, train_batch.rows(order[start : start + config.batch_size]))
            seen += result.metrics
            # an update that overflows is reported below as divergence, not
            # as numpy warnings, and before a forward pass runs on its result
            with np.errstate(over="ignore", invalid="ignore"):
                for name, tensor in params.tensors.items():
                    grad = result.grads[name]
                    cache = rms_cache[name]
                    cache *= RMSPROP_RHO
                    cache += (1.0 - RMSPROP_RHO) * grad * grad
                    tensor -= config.learning_rate * grad / (np.sqrt(cache) + RMSPROP_EPSILON)
            name = _non_finite(params.tensors)
            if name is not None:
                raise ValueError(f"training diverged: tensor {name} holds non-finite values after epoch {epoch}")
        val = batch_loss(params, val_batch) if val_batch is not None else None
        record = EpochRecord(epoch, *_columns(seen), *_columns(val))
        records.append(record)
        if on_epoch is not None:
            on_epoch(record)
    return params, TrainingTrace(records=tuple(records))


# ---------------------------------------------------------------------------
# inference


# rows decoded together. A step is mostly two (rows, hidden) x (hidden,
# 4 * hidden) float64 products per layer, cheaper per row on more rows, but
# the benchmark's callers keep a result per word, so their peak memory grows
# with throughput. Against 16 rows, in 25-s batch_model_200 runs, 32 rows
# (finished rows dropped) gave +26 and +28% words/s at +3.5 and +5.0% peak
# RSS, medians of ten pairs on each of two seeds; 64 rows gave +36 and +58%
# at +8.4 and +11.2%, past that metric's 10% bound
DECODE_CHUNK_ROWS = 32


def infer_batch(params: ModelParams, words: Sequence[str]) -> list[str]:
    """Greedily decode the normalized form of each (pre-normalized) word, in order.

    Encodes the words (raising EncodingError for the first that does not
    fit), then decodes them DECODE_CHUNK_ROWS rows at a time: each chunk
    feeds the start marker, then repeatedly takes the argmax symbol (lowest
    index on ties). A row that emits the end marker leaves its chunk, so
    each step runs only the rows still live, until none is or the step
    budget runs out. Emitted content is capped at max_len characters so the
    result always re-encodes.
    """
    src = encode(words, params.source_alphabet, params.max_len)
    target = params.target_alphabet
    steps = params.max_len + 2
    encoder = params.encoder
    decoded = []
    for start in range(0, len(src), DECODE_CHUNK_ROWS):
        chunk = src[start : start + DECODE_CHUNK_ROWS]
        # the encoder keeps only its states: inference needs no training caches
        zeros = np.zeros((len(chunk), params.hidden_dim))
        states = [(zeros, zeros)] * params.num_layers
        for t in range(chunk.shape[1]):
            _, states, _ = _step(encoder, chunk[:, t], states)
        # a row's symbols after its end marker stay pads, which decode skips
        emitted = np.full((len(chunk), steps), target.pad_index)
        live = np.arange(len(chunk))
        x = np.full(len(chunk), target.start_index)
        for step in range(steps):
            probs, states = decode_step(x, states, params)
            x = probs.argmax(axis=1)
            emitted[live, step] = x
            going = x != target.end_index
            if not going.all():
                live, x = live[going], x[going]
                if not live.size:
                    break
                states = [(h[going], c[going]) for h, c in states]
        decoded.extend(decode(row, target)[: params.max_len] for row in emitted)
    return decoded


def infer(params: ModelParams, word: str) -> str:
    """Greedily decode one (pre-normalized) word, as infer_batch of a batch of one."""
    return infer_batch(params, [word])[0]


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params: ModelParams) -> None:
    """Write a self-contained binary checkpoint.

    Layout: magic line, little-endian uint64 header length, compact ASCII
    JSON header (dims, alphabets and a tensor manifest), then the raw
    little-endian float64 bytes of every tensor in manifest order.
    """
    header = {
        "version": CHECKPOINT_VERSION,
        "hidden_dim": params.hidden_dim,
        "num_layers": params.num_layers,
        "max_len": params.max_len,
        "source_alphabet": "".join(params.source_alphabet.content),
        "target_alphabet": "".join(params.target_alphabet.content),
        "tensors": [[name, list(arr.shape)] for name, arr in params.tensors.items()],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + b"\n")
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for arr in params.tensors.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> ModelParams:
    """Read back a checkpoint written by save_checkpoint.

    The tensor bytes are read straight into one aligned float64 array, and
    each tensor is a writable view into it.
    """
    with open(path, "rb") as fh:
        return _read_checkpoint(path, fh)


def _read_checkpoint(path, fh) -> ModelParams:
    size = os.fstat(fh.fileno()).st_size
    prefix = CHECKPOINT_MAGIC + b"\n"
    if fh.read(len(prefix)) != prefix:
        raise CheckpointError(f"{path}: not a model checkpoint")
    offset = len(prefix)
    if size < offset + 8:
        raise CheckpointError(f"{path}: truncated header")
    (header_len,) = struct.unpack("<Q", fh.read(8))
    offset += 8
    if size < offset + header_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(fh.read(header_len).decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header ({exc})") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: malformed header (not a JSON object)")
    offset += header_len

    version = header.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version!r} (expected {CHECKPOINT_VERSION})"
        )

    def dimension(value) -> int:
        # bool is an int subclass; a float such as 1.5 or 1e400 is no dimension
        if type(value) is not int:
            raise ValueError(f"dimension {value!r} is not an integer")
        return value

    try:
        hidden_dim = dimension(header["hidden_dim"])
        num_layers = dimension(header["num_layers"])
        max_len = dimension(header["max_len"])
        source_alphabet = Alphabet(side=SOURCE, content=tuple(header["source_alphabet"]))
        target_alphabet = Alphabet(side=TARGET, content=tuple(header["target_alphabet"]))
        manifest = [(str(name), tuple(dimension(n) for n in shape)) for name, shape in header["tensors"]]
        _check_dimensions(hidden_dim, num_layers, max_len)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed header ({exc})") from exc

    expected = _expected_shapes(source_alphabet.size, target_alphabet.size, hidden_dim, num_layers)
    if [name for name, _ in manifest] != list(expected):
        raise CheckpointError(f"{path}: tensor manifest does not match the declared dimensions")
    for name, shape in manifest:
        if shape != expected[name]:
            raise CheckpointError(
                f"{path}: tensor {name} has shape {shape}, expected {expected[name]}"
            )

    counts = [math.prod(shape) for _, shape in manifest]
    # the file holds little-endian float64; room for no more than it has, so
    # a truncated file fails below instead of asking for its declared size
    flat = np.empty(min(sum(counts), (size - offset) // 8))
    stored = fh.readinto(memoryview(flat).cast("B"))
    if sys.byteorder != "little":
        flat.byteswap(inplace=True)
    tensors: dict[str, np.ndarray] = {}
    start = 0
    for (name, shape), count in zip(manifest, counts):
        if stored < 8 * (start + count):
            raise CheckpointError(f"{path}: truncated tensor data for {name}")
        tensors[name] = flat[start : start + count].reshape(shape)
        start += count
    name = _non_finite(tensors)
    if name is not None:
        raise CheckpointError(f"{path}: tensor {name} holds non-finite values")
    if size > offset + 8 * start:
        raise CheckpointError(f"{path}: {size - offset - 8 * start} trailing bytes after tensor data")
    return ModelParams(source_alphabet, target_alphabet, max_len, tensors)
