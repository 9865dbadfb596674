"""End-to-end guarantees, one test per shipped property.

The conftest terminal hook prints a PASS/FAIL line per criterion at the end
of the run. The heavyweight fixtures (a trained identity model and a trained
benchmark model) are module-scoped so the slow training runs happen once.
"""

from __future__ import annotations

import functools
import itertools
import random
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import generator_words, subprocess_env

from phonorm.charcodec import SOURCE, TARGET, Alphabet
from phonorm.evaluation import SetupId, evaluate, generate_benchmark
from phonorm.lexicon import ParallelLexicon, TransliterationDictionary
from phonorm.matcher import (
    DEFAULT_EQUIVALENCE_CLASSES,
    MODIFIED,
    STANDARD,
    best_match,
    best_matches,
    canonicalize,
    levenshtein,
    modified_levenshtein,
)
from phonorm.prenorm import prenormalize
from phonorm.seq2seq import (
    TrainingConfig,
    infer,
    init_model_params,
    load_checkpoint,
    loss_and_gradients,
    batch_loss,
    prepare_batch,
    save_checkpoint,
    train,
)

# ---------------------------------------------------------------------------
# shared trained models


@pytest.fixture(scope="module")
def identity_run():
    """500-word identity task at default hyperparameters (frozen corpus seed)."""
    words = generator_words(seed=22, count=500, min_syllables=2, max_syllables=2)
    lexicon = ParallelLexicon(entries=tuple((w, w) for w in words))
    config = TrainingConfig(validation_fraction=0.0)
    started = time.monotonic()
    params, trace = train(lexicon, config)
    elapsed = time.monotonic() - started
    return words, params, trace, elapsed


@pytest.fixture(scope="module")
def bench_run():
    """The shipped synthetic benchmark plus a model trained on its lexicon."""
    bench = generate_benchmark()
    config = TrainingConfig(learning_rate=0.005, validation_fraction=0.0)
    params, _ = train(bench.lexicon, config)
    reports = {
        setup: evaluate(
            bench.testset,
            params if setup.uses_model else None,
            bench.dictionary,
            setup=setup,
        )
        for setup in SetupId
    }
    return bench, reports


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_distance_equals_naive_recursion_exhaustively():
    def naive(a: str, b: str) -> int:
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

    strings = [
        "".join(chars)
        for length in range(5)
        for chars in itertools.product("abc", repeat=length)
    ]
    assert len(strings) == 121
    started = time.monotonic()
    for a in strings:
        for b in strings:
            assert levenshtein(a, b) == naive(a, b)
    assert time.monotonic() - started < 60.0


def test_criterion_02_modified_distance_equals_canonical_standard():
    eq = DEFAULT_EQUIVALENCE_CLASSES
    assert modified_levenshtein("chalo", "chala", eq) == 0

    rng = random.Random(202)
    alphabet = "aobvcxyz"
    for _ in range(10_000):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        assert modified_levenshtein(a, b, eq) == levenshtein(
            canonicalize(a, eq), canonicalize(b, eq)
        )


def test_criterion_03_metric_properties_on_random_triples():
    eq = DEFAULT_EQUIVALENCE_CLASSES
    rng = random.Random(303)
    alphabet = "aobvxy"

    def sample() -> str:
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))

    for _ in range(10_000):
        a, b, c = sample(), sample(), sample()

        dab, dbc, dac = levenshtein(a, b), levenshtein(b, c), levenshtein(a, c)
        assert dab >= 0 and dbc >= 0 and dac >= 0
        assert dab == levenshtein(b, a)
        assert (dab == 0) == (a == b)
        assert levenshtein(a, a) == 0
        assert dac <= dab + dbc

        mab = modified_levenshtein(a, b, eq)
        mbc = modified_levenshtein(b, c, eq)
        mac = modified_levenshtein(a, c, eq)
        assert mab == modified_levenshtein(b, a, eq)
        # the modified distance is a metric on canonical forms: zero exactly
        # when the strings are class-equivalent
        assert (mab == 0) == (canonicalize(a, eq) == canonicalize(b, eq))
        assert mac <= mab + mbc
        assert mab <= dab  # class merging never increases a distance


def test_criterion_04_pruned_search_equals_full_scan():
    rng = random.Random(404)
    alphabet = "aobvklstmn"

    def word(lo: int, hi: int) -> str:
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))

    trials = 0
    for _ in range(10):
        dictionary = TransliterationDictionary(
            entries=tuple((f"n{i}", word(1, 9)) for i in range(500))
        )
        for _ in range(100):
            query = word(0, 8)
            mode = MODIFIED if trials % 2 else STANDARD
            trials += 1
            assert best_matches([query], dictionary, mode)[0] == best_match(query, dictionary, mode=mode)
    assert trials == 1_000


def test_criterion_05_every_gradient_matches_finite_differences():
    source = Alphabet(side=SOURCE, content=tuple("abcde"))
    target = Alphabet(side=TARGET, content=tuple("abcde"))
    params = init_model_params(
        source, target, max_len=5, hidden_dim=4, num_layers=2,
        rng=np.random.default_rng(55),
    )
    pairs = [("ab", "ba"), ("abcde", "edcba"), ("cad", "dac"), ("e", "e")]
    batch = prepare_batch(pairs, source, target, max_len=5)
    grads, _ = loss_and_gradients(params, batch)

    started = time.monotonic()
    step = 1e-5
    checked = 0
    for name, tensor in params.tensors.items():
        flat = tensor.reshape(-1)
        analytic_flat = grads[name].reshape(-1)
        for k in range(flat.size):
            original = flat[k]
            flat[k] = original + step
            up = batch_loss(params, batch).loss
            flat[k] = original - step
            down = batch_loss(params, batch).loss
            flat[k] = original
            numeric = (up - down) / (2.0 * step)
            analytic = analytic_flat[k]
            # relative error with an absolute floor for near-zero gradients
            assert abs(numeric - analytic) <= 1e-8 + 1e-4 * max(abs(numeric), abs(analytic)), (
                f"{name}[{k}]: numeric {numeric!r} vs analytic {analytic!r}"
            )
            checked += 1
    assert checked == sum(t.size for t in params.tensors.values())
    assert time.monotonic() - started < 60.0


def test_criterion_06_identity_task_reaches_exact_match_threshold(identity_run):
    words, params, trace, elapsed = identity_run
    assert len(words) == 500
    correct = sum(1 for w in words if infer(params, w) == w)
    print(f"identity task: {correct}/500 greedy exact, "
          f"loss {trace.records[0].train_loss:.4f} -> {trace.final.train_loss:.4f}, "
          f"{elapsed:.0f}s")
    assert correct >= 475  # >= 95% of the training set
    assert trace.final.train_loss < 0.5 * trace.records[0].train_loss
    assert elapsed < 600.0


def test_criterion_07_synthetic_benchmark_setup_ordering(bench_run):
    bench, reports = bench_run
    assert len(bench.dictionary) == 200
    assert len(bench.lexicon) == 1000
    assert len(bench.testset) == 200
    standards = set(bench.dictionary.standards)
    assert {gold for _, gold in bench.testset.entries} <= standards

    acc = {setup.label: reports[setup].accuracy for setup in SetupId}
    print(
        "benchmark accuracies: "
        + "  ".join(f"{label} {value:.3f}" for label, value in sorted(acc.items()))
    )
    assert acc["setup_4"] >= acc["setup_2"]
    assert acc["setup_3"] >= acc["setup_1"]
    assert acc["setup_2"] >= acc["setup_1"]
    assert acc["setup_4"] >= acc["setup_3"]
    assert acc["setup_4"] >= 0.85


def test_criterion_08_prenormalization_goldens_and_idempotence():
    assert prenormalize("baaaad") == "baad"
    assert prenormalize("1") == "ek"
    assert prenormalize("2") == "dui"

    rng = random.Random(808)
    pool = "abozAZ0129ïশ \n\t."
    for _ in range(10_000):
        s = "".join(rng.choice(pool) for _ in range(rng.randint(0, 12)))
        once = prenormalize(s)
        assert prenormalize(once) == once


def test_criterion_09_cli_runs_are_byte_identical(tmp_path):
    env = subprocess_env()

    def cli(*argv, cwd):
        proc = subprocess.run(
            [sys.executable, "-m", "phonorm", *argv],
            capture_output=True,
            cwd=cwd,
            env=env,
            text=False,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    bench_dir = tmp_path / "bench"
    cli(
        "generate", "--out-dir", str(bench_dir), "--seed", "5",
        "--dict-size", "30", "--train-size", "60", "--test-size", "20",
        cwd=tmp_path,
    )

    outputs = []
    for attempt in ("one", "two"):
        work = tmp_path / attempt
        work.mkdir()
        checkpoint = work / "model.ckpt"
        trace = work / "trace.tsv"
        cli(
            "train",
            "--lexicon", str(bench_dir / "lexicon.tsv"),
            "--checkpoint", str(checkpoint),
            "--trace", str(trace),
            "--epochs", "4", "--hidden-dim", "16", "--batch-size", "16",
            "--seed", "3", "--format", "structured",
            cwd=work,
        )
        stdout = cli(
            "evaluate",
            "--testset", str(bench_dir / "testset.tsv"),
            "--dict", str(bench_dir / "dictionary.tsv"),
            "--checkpoint", str(checkpoint),
            "--setup", "all", "--format", "structured",
            cwd=work,
        )
        outputs.append(
            (checkpoint.read_bytes(), trace.read_bytes(), stdout)
        )

    assert outputs[0][0] == outputs[1][0], "checkpoints differ between identical runs"
    assert outputs[0][1] == outputs[1][1], "training traces differ between identical runs"
    assert outputs[0][2] == outputs[1][2], "evaluation reports differ between identical runs"


def test_criterion_10_checkpoint_round_trip_preserves_inference(identity_run, tmp_path):
    _, params, _, _ = identity_run
    path = tmp_path / "identity.ckpt"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)

    originals = params.tensors
    for name, tensor in loaded.tensors.items():
        assert np.array_equal(tensor, originals[name])

    rng = np.random.default_rng(1010)
    from phonorm.evaluation import random_word

    for _ in range(100):
        word = random_word(rng, 2, 2, 0.3)
        assert infer(loaded, word) == infer(params, word)
