"""Command-line interface.

Subcommands: train, normalize, backtranslit, evaluate, generate. All output
goes to stdout; --format structured switches from tab-separated text to JSON
Lines (one record per line, keys sorted) for machine consumption.

Exit codes: 0 success, 2 bad arguments (argparse), 3 I/O errors, 4 data
errors (malformed files, unknown characters, bad checkpoints, ...).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .evaluation import (
    NoiseModel,
    evaluate,
    format_report_table,
    generate_benchmark,
    report_to_dict,
)
from .lexicon import (
    load_dictionary,
    load_parallel_lexicon,
    load_test_set,
    save_dictionary,
    save_parallel_lexicon,
    save_test_set,
)
from .matcher import DEFAULT_EQUIVALENCE_CLASSES, MODIFIED, STANDARD, load_equivalence_classes
from .pipeline import BatchError, SetupId, normalize_batch
from .prenorm import load_digit_table
from .seq2seq import TrainingConfig, load_checkpoint, save_checkpoint, train

TEXT = "text"
STRUCTURED = "structured"


def _emit(record: dict, fmt: str, text_line: str) -> None:
    if fmt == STRUCTURED:
        print(json.dumps(record, sort_keys=True, ensure_ascii=False))
    else:
        print(text_line)


def _load_eq(args):
    if args.eq_classes is not None:
        return load_equivalence_classes(args.eq_classes)
    return DEFAULT_EQUIVALENCE_CLASSES


def _load_digits(args):
    if args.digit_table is not None:
        return load_digit_table(args.digit_table)
    return None


def _read_words(args) -> list[str]:
    words = list(args.words)
    if args.input is not None:
        text = Path(args.input).read_text(encoding="utf-8")
        words.extend(line for line in text.splitlines() if line.strip())
    return words


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args) -> int:
    lexicon = load_parallel_lexicon(args.lexicon)
    config = TrainingConfig(
        hidden_dim=args.hidden_dim,
        num_layers=args.layers,
        batch_size=args.batch_size,
        epochs=args.epochs,
        learning_rate=args.lr,
        validation_fraction=args.validation_fraction,
        rng_seed=args.seed,
    )

    def report(rec):
        text = (
            f"epoch {rec.epoch}\tloss {rec.train_loss:.6f}"
            f"\tchar_acc {rec.train_char_accuracy:.4f}\texact_acc {rec.train_exact_accuracy:.4f}"
        )
        if rec.val_loss is not None:
            text += f"\tval_loss {rec.val_loss:.6f}\tval_char_acc {rec.val_char_accuracy:.4f}"
        _emit({"type": "epoch", **asdict(rec)}, args.format, text)

    params, trace = train(lexicon, config, on_epoch=report)
    save_checkpoint(args.checkpoint, params)
    trace_path = args.trace if args.trace is not None else f"{args.checkpoint}.trace.tsv"
    Path(trace_path).write_text(trace.to_tsv(), encoding="utf-8")
    _emit(
        {"type": "trained", "checkpoint": str(args.checkpoint), "trace": str(trace_path),
         "epochs": len(trace.records), "final_train_loss": trace.final.train_loss},
        args.format,
        f"wrote {args.checkpoint} and {trace_path}",
    )
    return 0


def _load_setups(args, parser):
    """Load --checkpoint and turn --setup / --mode into the setups to run.

    Without --setup (normalize only) the setup follows from whether a
    checkpoint was given and from --mode. Returns (model or None, setups).
    """
    model = load_checkpoint(args.checkpoint) if args.checkpoint is not None else None
    if args.setup == "all":
        setups = list(SetupId)
    elif args.setup is not None:
        setups = [SetupId.parse(args.setup)]
    else:
        setups = [SetupId.of(model is not None, args.mode or MODIFIED)]
    if model is None and any(setup.uses_model for setup in setups):
        parser.error(f"--setup {args.setup} needs --checkpoint")
    return model, setups


def cmd_normalize(args, parser) -> int:
    dictionary = load_dictionary(args.dict)
    eq = _load_eq(args)
    digits = _load_digits(args)
    model, (setup,) = _load_setups(args, parser)
    words = _read_words(args)
    outcomes = normalize_batch(
        words, dictionary, model if setup.uses_model else None, eq, setup.mode, digits
    )
    for outcome in outcomes:
        if isinstance(outcome, BatchError):
            _emit(
                {"type": "error", **asdict(outcome)},
                args.format,
                f"error\t{outcome.word}\t{outcome.message}",
            )
            if args.fail_fast:
                return 4
        else:
            text = "\t".join(
                [
                    outcome.input,
                    outcome.prenormalized,
                    outcome.first_degree,
                    outcome.final,
                    str(outcome.distance),
                    outcome.setup,
                    ",".join(outcome.back_transliterations),
                ]
            )
            _emit({"type": "result", **asdict(outcome)}, args.format, text)
    # without --fail-fast, per-word errors are data in the output stream
    return 0


def cmd_backtranslit(args) -> int:
    dictionary = load_dictionary(args.dict)
    for word in _read_words(args):
        natives = dictionary.reverse_lookup(word)
        _emit(
            {"type": "backtranslit", "standard": word, "natives": natives},
            args.format,
            f"{word}\t{','.join(natives)}",
        )
    return 0


def cmd_evaluate(args, parser) -> int:
    dictionary = load_dictionary(args.dict)
    testset = load_test_set(args.testset)
    eq = _load_eq(args)
    digits = _load_digits(args)
    model, setups = _load_setups(args, parser)
    reports = [
        evaluate(testset, model, dictionary, eq, setup, digits) for setup in setups
    ]
    if args.format == STRUCTURED:
        for report in reports:
            print(json.dumps(report_to_dict(report), sort_keys=True, ensure_ascii=False))
    else:
        print(format_report_table(reports), end="")
        for report in reports:
            print(
                f"{report.setup.label}: oov errors {report.oov_error_fraction:.2f} of "
                f"{len(report.errors)}, mean oov first-degree distance "
                f"{report.mean_oov_distance:.2f}, failures {len(report.failures)}"
            )
            for failure in report.failures:
                print(f"{report.setup.label}: failure [{failure.index}] {failure.input}: {failure.message}")
    return 0


def cmd_generate(args) -> int:
    bench = generate_benchmark(
        seed=args.seed,
        dict_size=args.dict_size,
        train_size=args.train_size,
        test_size=args.test_size,
        noise=NoiseModel(),
        noise_rate=args.noise_rate,
        min_syllables=args.min_syllables,
        max_syllables=args.max_syllables,
        coda_probability=args.coda_probability,
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dict_path = out / "dictionary.tsv"
    lex_path = out / "lexicon.tsv"
    test_path = out / "testset.tsv"
    save_dictionary(bench.dictionary, dict_path)
    save_parallel_lexicon(bench.lexicon, lex_path)
    save_test_set(bench.testset, test_path)
    _emit(
        {
            "type": "generated",
            "dictionary": str(dict_path),
            "lexicon": str(lex_path),
            "testset": str(test_path),
            "dict_size": len(bench.dictionary),
            "train_size": len(bench.lexicon),
            "test_size": len(bench.testset),
        },
        args.format,
        f"wrote {dict_path} ({len(bench.dictionary)}), {lex_path} ({len(bench.lexicon)}), "
        f"{test_path} ({len(bench.testset)})",
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phonorm",
        description="Normalize phonetically transliterated code-mixed words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=[TEXT, STRUCTURED], default=TEXT,
                       help="output style: human text or JSON lines")

    p_train = sub.add_parser("train", help="fit the first-degree model on a parallel lexicon")
    p_train.add_argument("--lexicon", required=True, help="noisy<TAB>standard training pairs")
    p_train.add_argument("--checkpoint", required=True, help="where to write the trained model")
    p_train.add_argument("--trace", help="per-epoch TSV path (default: <checkpoint>.trace.tsv)")
    p_train.add_argument("--seed", type=int, default=TrainingConfig.rng_seed)
    p_train.add_argument("--epochs", type=int, default=TrainingConfig.epochs)
    p_train.add_argument("--batch-size", type=int, default=TrainingConfig.batch_size)
    p_train.add_argument("--hidden-dim", type=int, default=TrainingConfig.hidden_dim)
    p_train.add_argument("--lr", type=float, default=TrainingConfig.learning_rate)
    p_train.add_argument("--layers", type=int, default=TrainingConfig.num_layers)
    p_train.add_argument("--validation-fraction", type=float, default=TrainingConfig.validation_fraction)
    add_common(p_train)

    p_norm = sub.add_parser("normalize", help="normalize words against a dictionary")
    p_norm.add_argument("words", nargs="*", help="words to normalize")
    p_norm.add_argument("--input", help="file with one word per line")
    p_norm.add_argument("--dict", required=True, help="native<TAB>standard dictionary")
    p_norm.add_argument("--checkpoint", help="trained model for first-degree normalization")
    group = p_norm.add_mutually_exclusive_group()
    group.add_argument("--setup", choices=["1", "2", "3", "4"],
                       help="ablation setup (overrides --mode and model use)")
    group.add_argument("--mode", choices=[STANDARD, MODIFIED],
                       help="matching distance (default: modified)")
    p_norm.add_argument("--eq-classes", help="equivalence class file (one class per line)")
    p_norm.add_argument("--digit-table", help="digit<TAB>phone file overriding the default table")
    p_norm.add_argument("--fail-fast", action="store_true",
                        help="stop with a nonzero exit at the first failed word")
    add_common(p_norm)

    p_back = sub.add_parser("backtranslit", help="native-script forms of standard words")
    p_back.add_argument("words", nargs="*", help="standard transliterations to look up")
    p_back.add_argument("--input", help="file with one word per line")
    p_back.add_argument("--dict", required=True)
    add_common(p_back)

    p_eval = sub.add_parser("evaluate", help="score a test set under one or all setups")
    p_eval.add_argument("--testset", required=True, help="noisy<TAB>gold pairs")
    p_eval.add_argument("--dict", required=True)
    p_eval.add_argument("--checkpoint")
    p_eval.add_argument("--setup", choices=["1", "2", "3", "4", "all"], default="all")
    p_eval.add_argument("--eq-classes")
    p_eval.add_argument("--digit-table")
    add_common(p_eval)

    p_gen = sub.add_parser("generate", help="write a seeded synthetic benchmark")
    p_gen.add_argument("--out-dir", required=True)
    p_gen.add_argument("--seed", type=int, default=7)
    p_gen.add_argument("--dict-size", type=int, default=200)
    p_gen.add_argument("--train-size", type=int, default=1000)
    p_gen.add_argument("--test-size", type=int, default=200)
    p_gen.add_argument("--noise-rate", type=float, default=1.0)
    p_gen.add_argument("--min-syllables", type=int, default=2)
    p_gen.add_argument("--max-syllables", type=int, default=2)
    p_gen.add_argument("--coda-probability", type=float, default=0.3)
    add_common(p_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(args)
        if args.command == "normalize":
            return cmd_normalize(args, parser)
        if args.command == "backtranslit":
            return cmd_backtranslit(args)
        if args.command == "evaluate":
            return cmd_evaluate(args, parser)
        if args.command == "generate":
            return cmd_generate(args)
        parser.error(f"unknown command {args.command!r}")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
