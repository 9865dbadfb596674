"""Which library bindings the traced run wraps, and the per-layer metrics.

Each wrapper sits at the name the caller looks up, so the library runs
unchanged: the pipeline calls ``phonorm.pipeline.best_match_pruned``, the
matcher's scan calls ``phonorm.matcher.levenshtein``, training calls
``phonorm.seq2seq.loss_and_gradients``, and so on.
"""

from __future__ import annotations

import phonorm.evaluation as evaluation
import phonorm.lexicon as lexicon
import phonorm.matcher as matcher
import phonorm.pipeline as pipeline
import phonorm.seq2seq as seq2seq

from tracer import Tracer

LAYERS = ("prenorm", "charcodec", "lexicon", "matcher", "seq2seq", "pipeline", "evaluation")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def instrument(tracer: Tracer) -> None:
    """Install every wrapper; tracer.uninstall() removes them."""
    c = tracer.counters
    seen_words = tracer.seen_words

    def on_word(args, kwargs, result):
        seen_words.add(_arg(args, kwargs, 0, "word"))

    def on_eval_word(args, kwargs, result):
        on_word(args, kwargs, result)
        c["evaluation.normalize_calls"] += 1

    def on_query(args, kwargs, result):
        c["matcher.queries"] += 1
        c["matcher.entries"] += len(_arg(args, kwargs, 1, "dictionary"))
        c["matcher.exact_hits"] += result.distance == 0

    def on_dp(args, kwargs):
        c["matcher.dp_calls"] += 1
        c["matcher.dp_cells"] += len(args[0]) * len(args[1])

    def on_encode(args, kwargs):
        c["seq2seq.encode_steps"] += args[0].shape[0] * args[0].shape[1]

    def on_decode(args, kwargs):
        c["seq2seq.decode_steps"] += args[0].shape[0]

    def on_batch(args, kwargs, result):
        pairs = _arg(args, kwargs, 0, "pairs")
        max_len = _arg(args, kwargs, 3, "max_len")
        # encoder steps plus decoder steps (target, end marker), per pair
        c["seq2seq.steps_total"] += len(pairs) * (2 * max_len + 1)
        c["seq2seq.steps_real"] += sum(len(s) + len(t) + 1 for s, t in pairs)

    tracer.wrap_span(pipeline, "normalize", "pipeline.normalize", "pipeline", True, on_word)
    tracer.wrap_span(evaluation, "normalize", "pipeline.normalize", "pipeline", True, on_eval_word)
    tracer.wrap_leaf(pipeline, "prenormalize", "prenorm.prenormalize", "prenorm")
    tracer.wrap_leaf(seq2seq, "prenormalize", "prenorm.prenormalize", "prenorm")
    tracer.wrap_span(pipeline, "best_match_pruned", "matcher.best_match_pruned", "matcher", observe=on_query)
    tracer.wrap_counter(matcher, "levenshtein", on_dp)
    tracer.wrap_counter(matcher, "modified_levenshtein", on_dp)
    tracer.wrap_leaf(lexicon.TransliterationDictionary, "reverse_lookup", "lexicon.reverse_lookup", "lexicon")
    tracer.wrap_span(pipeline, "infer", "seq2seq.infer", "seq2seq")
    tracer.wrap_counter(seq2seq, "encode_sequence", on_encode)
    tracer.wrap_counter(seq2seq, "decode_step", on_decode)
    tracer.wrap_leaf(seq2seq, "lstm_step", "seq2seq.lstm_step", "seq2seq")
    tracer.wrap_leaf(seq2seq, "encode", "charcodec.encode", "charcodec")
    tracer.wrap_leaf(seq2seq, "to_one_hot", "charcodec.to_one_hot", "charcodec")
    tracer.wrap_span(seq2seq, "prepare_batch", "seq2seq.prepare_batch", "seq2seq", observe=on_batch)
    tracer.wrap_span(seq2seq, "loss_and_gradients", "seq2seq.loss_and_gradients", "seq2seq")
    tracer.wrap_span(seq2seq, "batch_loss", "seq2seq.batch_loss", "seq2seq")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    setup: Tracer,
    traced: Tracer,
    wall_s: float,
    words: int,
    reference_word_s: float,
    eval_entries: int,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run as {name: (value, unit)}.

    setup holds the spans of one traced set-up (loaders); traced holds the
    fixed traced work, which took wall_s seconds for `words` words.
    reference_word_s is the untraced seconds per word of the same run.
    """
    c = traced.counters
    s = setup.counters
    queries = c["matcher.queries"]
    infers = c["seq2seq.infer.calls"]
    normalized = c["pipeline.normalize.calls"] - c["pipeline.normalize.raised"]
    out = {f"{layer}.self_s": (traced.self_s[layer], "s") for layer in LAYERS}
    out.update(
        {
            "matcher.ms_per_query": (_ratio(c["matcher.best_match_pruned.s"] * 1e3, queries), "ms"),
            "matcher.queries": (queries, "count"),
            "matcher.dp_calls": (c["matcher.dp_calls"], "count"),
            "matcher.dp_cells": (c["matcher.dp_cells"], "count"),
            "matcher.scored_frac": (_ratio(c["matcher.dp_calls"], c["matcher.entries"]), "fraction"),
            "matcher.exact_hit_frac": (_ratio(c["matcher.exact_hits"], queries), "fraction"),
            "seq2seq.infer_calls": (infers, "count"),
            "seq2seq.infer_ms_per_word": (_ratio(c["seq2seq.infer.s"] * 1e3, infers), "ms"),
            "seq2seq.encode_steps": (c["seq2seq.encode_steps"], "count"),
            "seq2seq.decode_steps": (c["seq2seq.decode_steps"], "count"),
            "seq2seq.lstm_step_calls": (c["seq2seq.lstm_step.calls"], "count"),
            "seq2seq.lstm_step_s": (c["seq2seq.lstm_step.s"], "s"),
            "seq2seq.loss_and_gradients_s": (c["seq2seq.loss_and_gradients.s"], "s"),
            "seq2seq.prepare_batch_s": (c["seq2seq.prepare_batch.s"], "s"),
            "seq2seq.batch_loss_s": (c["seq2seq.batch_loss.s"], "s"),
            "seq2seq.train_other_s": (c["seq2seq.train.self_s"], "s"),
            "seq2seq.padded_step_frac": (
                1.0 - _ratio(c["seq2seq.steps_real"], c["seq2seq.steps_total"]) if c["seq2seq.steps_total"] else 0.0,
                "fraction",
            ),
            "seq2seq.load_checkpoint_s": (s["seq2seq.load_checkpoint.s"], "s"),
            "prenorm.calls": (c["prenorm.prenormalize.calls"], "count"),
            "charcodec.calls": (c["charcodec.encode.calls"] + c["charcodec.to_one_hot.calls"], "count"),
            "lexicon.load_s": (s["lexicon.load.s"], "s"),
            "lexicon.reverse_lookup_calls": (c["lexicon.reverse_lookup.calls"], "count"),
            "lexicon.reverse_lookup_s": (c["lexicon.reverse_lookup.s"], "s"),
            "pipeline.words": (c["pipeline.normalize.calls"], "count"),
            "pipeline.unique_frac": (_ratio(len(traced.seen_words), normalized), "fraction"),
            "pipeline.errors": (c["pipeline.normalize.raised"], "count"),
            "evaluation.normalize_calls": (c["evaluation.normalize_calls"], "count"),
            "evaluation.infer_calls_per_entry": (_ratio(infers, eval_entries), "count"),
            "trace.wall_s": (wall_s, "s"),
            "trace.accounted_frac": (_ratio(sum(traced.self_s.values()), wall_s), "fraction"),
            "trace.overhead_frac": (_ratio(wall_s / words, reference_word_s) - 1.0 if words else 0.0, "fraction"),
            "trace.spans": (len(traced.spans), "count"),
        }
    )
    return out
