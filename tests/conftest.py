"""Shared fixtures and the acceptance-criteria summary hook."""

from __future__ import annotations

import os
import re
from pathlib import Path

import numpy as np
import pytest

import phonorm
from phonorm.evaluation import random_word
from phonorm.lexicon import ParallelLexicon
from phonorm.seq2seq import TrainingConfig, init_model_params, train

# ---------------------------------------------------------------------------
# acceptance summary: one line per criterion at the end of the run

_CRITERION = re.compile(r"test_criterion_(\d{2})")

_LABELS = {
    1: "edit-distance DP equals naive recursion, exhaustive",
    2: "modified distance equals canonicalize-then-standard",
    3: "metric properties on random triples",
    4: "pruned dictionary search equals full scan",
    5: "analytic gradients match finite differences",
    6: "identity-task training reaches exact-match threshold",
    7: "synthetic end-to-end setup ordering and floor",
    8: "pre-normalization goldens and idempotence",
    9: "CLI determinism: byte-identical checkpoints and reports",
    10: "checkpoint round trip preserves inference",
}

_RANK = {"passed": 0, "skipped": 1, "failed": 2, "error": 2}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[int, str] = {}
    for status in ("passed", "skipped", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            match = _CRITERION.search(getattr(report, "nodeid", "") or "")
            if not match:
                continue
            number = int(match.group(1))
            previous = outcomes.get(number)
            if previous is None or _RANK[status] > _RANK[previous]:
                outcomes[number] = status
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(outcomes):
        status = outcomes[number]
        verdict = {"passed": "PASS", "skipped": "SKIP"}.get(status, "FAIL")
        label = _LABELS.get(number, "?")
        terminalreporter.write_line(f"criterion {number:02d} ({label}): {verdict}")


# ---------------------------------------------------------------------------
# subprocesses


def subprocess_env() -> dict[str, str]:
    """Environment whose PYTHONPATH starts with the imported package's absolute root, valid from any cwd."""
    root = str(Path(phonorm.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([root, inherited]) if inherited else root}


# ---------------------------------------------------------------------------
# shared models


def generator_words(seed: int, count: int, min_syllables: int = 2, max_syllables: int = 3) -> list[str]:
    """Deterministic unique vocabulary from the synthetic word sampler."""
    rng = np.random.default_rng(seed)
    words: set[str] = set()
    while len(words) < count:
        words.add(random_word(rng, min_syllables, max_syllables))
    return sorted(words)


@pytest.fixture(scope="session")
def tiny_model():
    """A small trained model for plumbing tests (not expected to be accurate)."""
    words = generator_words(seed=404, count=60, min_syllables=2, max_syllables=2)
    lexicon = ParallelLexicon(entries=tuple((w, w) for w in words))
    config = TrainingConfig(
        hidden_dim=16, epochs=10, batch_size=32, validation_fraction=0.0, rng_seed=1
    )
    params, trace = train(lexicon, config)
    return params


@pytest.fixture()
def zero_model():
    """All-zero weights: decodes nothing, projects a uniform distribution."""
    from phonorm.charcodec import SOURCE, TARGET, build_alphabet

    source = build_alphabet(["abc"], SOURCE)
    target = build_alphabet(["abc"], TARGET)
    params = init_model_params(source, target, max_len=6, hidden_dim=4, num_layers=2,
                               rng=np.random.default_rng(0))
    for tensor in params.tensors.values():
        tensor[...] = 0.0
    return params
