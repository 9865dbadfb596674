"""Command-line interface.

Subcommands: train, normalize, backtranslit, evaluate, generate. All output
goes to stdout; --format structured switches from tab-separated text to JSON
Lines (one record per line, keys sorted) for machine consumption.

Exit codes: 0 success, 2 bad arguments (argparse), 3 I/O errors, 4 data
errors (malformed files, unknown characters, bad checkpoints, ...),
training divergence and out of memory.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path

from .evaluation import (
    evaluate_setups,
    format_report_table,
    generate_benchmark,
    report_to_dict,
)
from .lexicon import (
    load_dictionary,
    load_parallel_lexicon,
    load_test_set,
    read_input,
    save_dictionary,
    save_parallel_lexicon,
    save_test_set,
)
from .matcher import DEFAULT_EQUIVALENCE_CLASSES, MODIFIED, load_equivalence_classes
from .pipeline import BatchError, SetupId, normalize_setups
from .prenorm import load_digit_table
from .seq2seq import TrainingConfig, load_checkpoint, save_checkpoint, train

TEXT = "text"
STRUCTURED = "structured"

# generate's options: each numeric parameter of generate_benchmark, by name,
# with its default, whose type is the option's
GENERATE_DEFAULTS = {
    name: parameter.default for name, parameter in inspect.signature(generate_benchmark).parameters.items()
    if type(parameter.default) in (int, float)
}
# train's options: each TrainingConfig field, under its own name but for these
TRAIN_FLAGS = {"rng_seed": "--seed", "learning_rate": "--lr", "num_layers": "--layers"}
# --setup's values: each setup by the number in its name
SETUPS_BY_NUMBER = {setup.label.removeprefix("setup_"): setup for setup in SetupId}


def _emit(record: dict, fmt: str, text_line: str) -> None:
    if fmt == STRUCTURED:
        print(json.dumps(record, sort_keys=True, ensure_ascii=False))
    else:
        print(text_line)


def _load_matching(args, parser):
    """Load the matching options: (dictionary, model or None, setups, eq, digit table).

    The setups follow from --setup and from whether --checkpoint was given,
    so a model setup without a checkpoint is a usage error before any file
    is read. Without --setup (normalize only) the setup is 4 with a
    checkpoint and 2 without.
    """
    with_model = args.checkpoint is not None
    if args.setup == "all":
        setups = list(SetupId)
    elif args.setup is not None:
        setups = [SETUPS_BY_NUMBER[args.setup]]
    else:
        setups = [SetupId.of(with_model, MODIFIED)]
    if not with_model and any(setup.uses_model for setup in setups):
        parser.error(f"--setup {args.setup} needs --checkpoint")
    dictionary = load_dictionary(args.dict)
    eq = load_equivalence_classes(args.eq_classes) if args.eq_classes is not None else DEFAULT_EQUIVALENCE_CLASSES
    digits = load_digit_table(args.digit_table) if args.digit_table is not None else None
    model = load_checkpoint(args.checkpoint) if with_model else None
    return dictionary, model, setups, eq, digits


def _read_words(args) -> list[str]:
    words = list(args.words)
    if args.input is not None:
        words.extend(line for line in read_input(args.input) if line.strip())
    return words


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args) -> int:
    # each config option's dest is its TrainingConfig field; the config checks
    # itself, so a bad option is reported before any file is read
    config = TrainingConfig(**{field.name: getattr(args, field.name) for field in fields(TrainingConfig)})
    lexicon = load_parallel_lexicon(args.lexicon)

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


def cmd_normalize(args, parser) -> int:
    dictionary, model, setups, eq, digits = _load_matching(args, parser)
    (outcomes,) = normalize_setups(_read_words(args), dictionary, model, setups, eq, digits)
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
        natives = dictionary.natives(word)
        _emit(
            {"type": "backtranslit", "standard": word, "natives": natives},
            args.format,
            f"{word}\t{','.join(natives)}",
        )
    return 0


def cmd_evaluate(args, parser) -> int:
    dictionary, model, setups, eq, digits = _load_matching(args, parser)
    testset = load_test_set(args.testset)
    reports = evaluate_setups(testset, model, dictionary, setups, eq, digits)
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
    bench = generate_benchmark(**{name: getattr(args, name) for name in GENERATE_DEFAULTS})
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dict_path, lex_path, test_path = (out / f"{name}.tsv" for name in ("dictionary", "lexicon", "testset"))
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

    # options shared by several subcommands, each declared once
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=[TEXT, STRUCTURED], default=TEXT,
                        help="output style: human text or JSON lines")
    words = argparse.ArgumentParser(add_help=False)
    words.add_argument("words", nargs="*", help="words to process")
    words.add_argument("--input", help="file with one word per line")
    dictionary = argparse.ArgumentParser(add_help=False)
    dictionary.add_argument("--dict", required=True, help="native<TAB>standard dictionary")
    matching = argparse.ArgumentParser(add_help=False, parents=[dictionary])
    matching.add_argument("--checkpoint", help="trained model for first-degree normalization")
    matching.add_argument("--eq-classes", help="equivalence class file (one class per line)")
    matching.add_argument("--digit-table", help="digit<TAB>phone file overriding the default table")

    p_train = sub.add_parser("train", parents=[output],
                             help="fit the first-degree model on a parallel lexicon")
    p_train.set_defaults(run=cmd_train)
    p_train.add_argument("--lexicon", required=True, help="noisy<TAB>standard training pairs")
    p_train.add_argument("--checkpoint", required=True, help="where to write the trained model")
    p_train.add_argument("--trace", help="per-epoch TSV path (default: <checkpoint>.trace.tsv)")
    for field in fields(TrainingConfig):
        flag = TRAIN_FLAGS.get(field.name, "--" + field.name.replace("_", "-"))
        p_train.add_argument(flag, dest=field.name, type=type(field.default), default=field.default)

    p_norm = sub.add_parser("normalize", parents=[words, matching, output],
                            help="normalize words against a dictionary")
    # the command gets its own parser, so a usage error shows its usage
    p_norm.set_defaults(run=partial(cmd_normalize, parser=p_norm))
    p_norm.add_argument("--setup", choices=list(SETUPS_BY_NUMBER),
                        help="ablation setup (default: 4 with --checkpoint, 2 without)")
    p_norm.add_argument("--fail-fast", action="store_true",
                        help="stop with a nonzero exit at the first failed word")

    p_back = sub.add_parser("backtranslit", parents=[words, dictionary, output],
                            help="native-script forms of standard words")
    p_back.set_defaults(run=cmd_backtranslit)

    p_eval = sub.add_parser("evaluate", parents=[matching, output],
                            help="score a test set under one or all setups")
    p_eval.set_defaults(run=partial(cmd_evaluate, parser=p_eval))
    p_eval.add_argument("--testset", required=True, help="noisy<TAB>gold pairs")
    p_eval.add_argument("--setup", choices=[*SETUPS_BY_NUMBER, "all"], default="all")

    p_gen = sub.add_parser("generate", parents=[output], help="write a seeded synthetic benchmark")
    p_gen.set_defaults(run=cmd_generate)
    p_gen.add_argument("--out-dir", required=True)
    for name, default in GENERATE_DEFAULTS.items():
        p_gen.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4

