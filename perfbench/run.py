"""phonorm's benchmark: one closed-loop caller per workload, in one process.

    python3 perfbench/run.py --workload chat_5k --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from src/.
With --trace 0 the run measures the end-to-end metrics with tracing off. With
--trace 1 it first runs a fixed amount of work with every layer boundary
wrapped, then measures untraced for the rest of the time, starting with the
same work as the reference for the tracing overhead, and reports the
per-layer metrics. --smoke shrinks every
input so that all workloads finish in seconds.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}. The line before it records the machine, the seed, the sample
counts and the outcome of the oracle checks. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
BLAS_THREADS = 1


def pin_blas_threads() -> None:
    """Run BLAS on one thread; must happen before numpy is imported.

    The model's matrices are at most 64 x 512, too small to gain from a
    second thread, and on a shared 2-core machine a second thread doubled the
    run-to-run spread of the model workloads.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def machine() -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "arch": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
    }


def percentile(samples: list[float], pct: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def measure(workload, seconds: float, setup_times: list[float], min_passes: int = 1) -> list:
    """Set up, then run one pass, until `seconds` have elapsed.

    Set-ups are spread over the whole run rather than done in a burst at its
    start, so that setup_s sees the same machine conditions as the passes.
    """
    passes = []
    start = time.perf_counter()
    while True:
        setup_times.append(workload.set_up())
        passes.append(workload.run_pass(len(passes)))
        if len(passes) >= min_passes and time.perf_counter() - start >= seconds:
            return passes


def end_to_end(passes, setup_times: list[float]) -> dict[str, tuple[float, str]]:
    word_ms = [ms for p in passes for ms in p.word_ms]
    return {
        "words_per_s": (sum(p.words for p in passes) / sum(p.seconds for p in passes), "1/s"),
        "word_ms_p50": (statistics.median(word_ms), "ms"),
        "word_ms_p90": (percentile(word_ms, 90), "ms"),
        "epoch_s": (statistics.fmean(e for p in passes for e in p.epoch_s), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "phonorm" / "__init__.py").is_file():
        print(f"perfbench: no phonorm sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))

    import workloads  # imports phonorm and numpy, so only after pinning BLAS
    from layers import instrument, layer_metrics
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    sizes = workloads.SMOKE if args.smoke else workloads.FULL

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, sizes, workdir)

        setup_times: list[float] = []
        if args.trace == 0:
            passes = measure(workload, args.seconds, setup_times)
            metrics = end_to_end(passes, setup_times)
            traced_passes = []
        else:
            # Traced passes come first, in a process that has run nothing yet,
            # as the untraced run starts; then the same passes run untraced,
            # as the reference for the tracing overhead.
            setup_tracer = Tracer()
            workload.tracer = setup_tracer
            setup_times.append(workload.set_up())
            tracer = Tracer()
            workload.tracer = tracer
            instrument(tracer)
            try:
                start = time.perf_counter()
                traced_passes = [workload.run_pass(i) for i in range(workload.traced_passes())]
                traced_wall = time.perf_counter() - start
            finally:
                tracer.uninstall()
                workload.tracer = None
            passes = measure(workload, args.seconds - traced_wall, setup_times, len(traced_passes))
            replayed = passes[: len(traced_passes)]
            reference_word_s = sum(p.seconds for p in replayed) / sum(p.words for p in replayed)
            traced_words = sum(p.words for p in traced_passes)
            eval_entries = workload.eval_entries * len(traced_passes)
            metrics = layer_metrics(setup_tracer, tracer, traced_wall, traced_words, reference_word_s, eval_entries)
            tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.tsv")

        everything = passes + traced_passes
        attempted = sum(p.words for p in everything)
        failed_frac = sum(p.errors for p in everything) / attempted
        accuracy = sum(p.correct for p in everything) / sum(p.scored for p in everything)
        if args.trace == 1:
            metrics["failed_frac"] = (failed_frac, "fraction")
        problems = workload.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine(),
        "checkpoint_sha256": workloads.CHECKPOINT_SHA256,
        "samples": {
            "passes": len(passes),
            "word_latency": sum(len(p.word_ms) for p in passes),
            "epochs": sum(len(p.epoch_s) for p in passes),
            "setups": len(setup_times),
        },
        "pass_s": [p.seconds for p in passes],
        "setup_s": setup_times,
        "accuracy": accuracy,
        "failed_frac": failed_frac,
        "oracle_problems": problems,
    }
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
