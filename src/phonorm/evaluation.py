"""Four-setup ablation evaluation and a seeded synthetic benchmark.

The four setups (pipeline.SetupId) cross the two pipeline switches: whether
the first-degree model runs, and whether dictionary matching uses the
standard or the class-modified edit distance.

Because real transliteration corpora are not shipped, this module also
generates a synthetic benchmark: pronounceable consonant-vowel words, a
deterministic native-script rendering, and a seeded noise model (a/o and b/v
confusions, long-vowel digraphs, elongation, vowel drops) that mimics the
phonetic misspellings the pipeline is meant to undo.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .lexicon import ParallelLexicon, TestSet, TransliterationDictionary
from .matcher import (
    DEFAULT_EQUIVALENCE_CLASSES,
    EquivalenceClasses,
    canonicalize,
    levenshtein,
)
from .pipeline import BatchError, SetupId, normalize_batch
from .prenorm import prenormalize
from .seq2seq import ModelParams


@dataclass(frozen=True)
class ErrorRecord:
    """A test entry whose final form differed from the gold standard."""

    index: int
    input: str
    gold: str
    prenormalized: str
    first_degree: str
    final: str
    distance: int
    oov: bool  # gold absent from the dictionary's standard forms


@dataclass(frozen=True)
class FailureRecord:
    """A test entry the pipeline could not process at all."""

    index: int
    input: str
    gold: str
    message: str


@dataclass(frozen=True)
class EvalReport:
    setup: SetupId
    total: int
    exact_matches: int
    errors: tuple[ErrorRecord, ...]
    failures: tuple[FailureRecord, ...]
    oov_error_fraction: float
    mean_oov_distance: float

    @property
    def accuracy(self) -> float:
        return self.exact_matches / self.total


def _analyze(errors, dictionary: TransliterationDictionary) -> tuple[float, float]:
    """Split errors into out-of-vocabulary vs model deviations.

    Returns (fraction of errors whose gold is missing from the dictionary,
    mean standard edit distance between the first-degree output and the gold
    over those OOV errors). No errors, or none OOV, yields (0.0, 0.0).
    """
    if not errors:
        return 0.0, 0.0
    oov = [e for e in errors if e.gold not in dictionary.standard_set]
    if not oov:
        return 0.0, 0.0
    mean = sum(levenshtein(e.first_degree, e.gold) for e in oov) / len(oov)
    return len(oov) / len(errors), mean


def evaluate(
    testset: TestSet,
    model: ModelParams | None,
    dictionary: TransliterationDictionary,
    eq: EquivalenceClasses = DEFAULT_EQUIVALENCE_CLASSES,
    setup: SetupId = SetupId.SETUP_4,
    digit_table: dict[str, str] | None = None,
) -> EvalReport:
    """Run the pipeline over a test set under one setup.

    Correctness is exact, case-sensitive string equality between the final
    form and the gold. Per-entry pipeline errors are counted as failures
    (they score as wrong) rather than aborting the run; they are listed
    separately from mismatch errors and excluded from the OOV analysis.
    """
    if len(testset) == 0:
        raise ValueError("test set is empty")
    if setup.uses_model and model is None:
        raise ValueError(f"{setup.label} applies the first-degree model but none was given")
    active_model = model if setup.uses_model else None
    outcomes = normalize_batch(
        [word for word, _ in testset.entries], dictionary, active_model, eq, setup.mode, digit_table
    )
    exact = 0
    errors: list[ErrorRecord] = []
    failures: list[FailureRecord] = []
    for index, ((word, gold), outcome) in enumerate(zip(testset.entries, outcomes)):
        if isinstance(outcome, BatchError):
            failures.append(FailureRecord(index=index, input=word, gold=gold, message=outcome.message))
        elif outcome.final == gold:
            exact += 1
        else:
            errors.append(
                ErrorRecord(
                    index=index,
                    input=word,
                    gold=gold,
                    prenormalized=outcome.prenormalized,
                    first_degree=outcome.first_degree,
                    final=outcome.final,
                    distance=outcome.distance,
                    oov=gold not in dictionary.standard_set,
                )
            )
    oov_fraction, mean_distance = _analyze(errors, dictionary)
    return EvalReport(
        setup=setup,
        total=len(testset),
        exact_matches=exact,
        errors=tuple(errors),
        failures=tuple(failures),
        oov_error_fraction=oov_fraction,
        mean_oov_distance=mean_distance,
    )


def report_to_dict(report: EvalReport) -> dict:
    """JSON-ready view of a report (plain scalars, lists and dicts only)."""
    return {
        "type": "report",
        "setup": report.setup.label,
        "total": report.total,
        "exact_matches": report.exact_matches,
        "accuracy": report.accuracy,
        "oov_error_fraction": report.oov_error_fraction,
        "mean_oov_distance": report.mean_oov_distance,
        "errors": [asdict(e) for e in report.errors],
        "failures": [asdict(f) for f in report.failures],
    }


def format_report_table(reports) -> str:
    """Human-readable accuracy table, one row per setup."""
    rows = [("setup", "model", "distance", "accuracy", "exact/total", "failures", "oov_err", "mean_oov_ld")]
    for rep in reports:
        rows.append(
            (
                rep.setup.label,
                "yes" if rep.setup.uses_model else "no",
                rep.setup.mode,
                f"{100.0 * rep.accuracy:.2f}%",
                f"{rep.exact_matches}/{rep.total}",
                str(len(rep.failures)),
                f"{rep.oov_error_fraction:.2f}",
                f"{rep.mean_oov_distance:.2f}",
            )
        )
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# synthetic benchmark


@dataclass(frozen=True)
class NoiseModel:
    """Per-site corruption probabilities for the synthetic misspeller.

    The class confusions run one way (a written as o, b written as v), the
    way informal romanization tends to drift.  Long vowels come out as
    digraphs (i as ee, u as oo), consonants get stretched into 3-5 copy runs
    that pre-normalization later trims to a residual double, and vowels are
    occasionally dropped outright.
    """

    vowel_swap: float = 0.45  # each 'a' written as 'o'
    bv_swap: float = 0.45  # each 'b' written as 'v'
    vowel_lengthening: float = 0.40  # 'i' written as 'ee', 'u' as 'oo'
    elongation: float = 0.30  # stretch a consonant to 3-5 copies
    vowel_deletion: float = 0.05

    def scaled(self, rate: float) -> "NoiseModel":
        """Multiply every probability by rate (clipped to 1)."""
        if not rate >= 0:
            raise ValueError("noise rate must be non-negative")
        return replace(
            self,
            vowel_swap=min(1.0, self.vowel_swap * rate),
            bv_swap=min(1.0, self.bv_swap * rate),
            vowel_lengthening=min(1.0, self.vowel_lengthening * rate),
            elongation=min(1.0, self.elongation * rate),
            vowel_deletion=min(1.0, self.vowel_deletion * rate),
        )


_CONSONANTS = "bcdghjklmnprstv"
_VOWELS = "aeiou"


def corrupt(word: str, noise: NoiseModel, rng: np.random.Generator) -> str:
    """Apply the noise model to one word; never returns an empty string."""
    rewritten = []
    for ch in word:
        if ch == "a" and rng.random() < noise.vowel_swap:
            ch = "o"
        elif ch == "b" and rng.random() < noise.bv_swap:
            ch = "v"
        elif ch == "i" and rng.random() < noise.vowel_lengthening:
            ch = "ee"
        elif ch == "u" and rng.random() < noise.vowel_lengthening:
            ch = "oo"
        rewritten.append(ch)
    chars = list("".join(rewritten))
    kept = [ch for ch in chars if not (ch in _VOWELS and rng.random() < noise.vowel_deletion)]
    if not kept:
        kept = chars
    out = []
    for ch in kept:
        if ch not in _VOWELS and rng.random() < noise.elongation:
            out.append(ch * int(rng.integers(3, 6)))
        else:
            out.append(ch)
    return "".join(out)


def random_word(
    rng: np.random.Generator,
    min_syllables: int = 2,
    max_syllables: int = 3,
    coda_probability: float = 0.3,
    consonants: str = _CONSONANTS,
) -> str:
    """A pronounceable consonant-vowel word, optionally consonant-closed."""
    count = int(rng.integers(min_syllables, max_syllables + 1))
    parts = []
    for _ in range(count):
        parts.append(consonants[rng.integers(0, len(consonants))])
        parts.append(_VOWELS[rng.integers(0, len(_VOWELS))])
    if rng.random() < coda_probability:
        parts.append(consonants[rng.integers(0, len(consonants))])
    return "".join(parts)


def _word_shapes(
    min_syllables: int,
    max_syllables: int,
    coda_probability: float,
    consonants: str,
) -> list[tuple[float, int]]:
    """(draw probability, distinct words) of each shape random_word draws,
    a shape being a syllable count with or without a coda.

    Distinct means distinct under the default equivalence classes. A word's
    shape shows in its length, and the classes map single characters to
    single characters, so the distinct words of a shape are the products of
    the distinct canonical letters at each position. Shapes that are never
    drawn (rng.random() < p is never true for p == 0 and always true for
    p == 1) are left out.
    """
    c = len(set(canonicalize(consonants, DEFAULT_EQUIVALENCE_CLASSES)))
    v = len(set(canonicalize(_VOWELS, DEFAULT_EQUIVALENCE_CLASSES)))
    counts = max_syllables - min_syllables + 1
    shapes = []
    for n in range(min_syllables, max_syllables + 1):
        for p, size in ((1.0 - coda_probability, (c * v) ** n), (coda_probability, (c * v) ** n * c)):
            if p > 0:
                shapes.append((p / counts, size))
    return shapes


def _out_of_reach(dict_size: int, shapes: list[tuple[float, int]], draws: int) -> bool:
    """Whether draws of random_word almost surely give fewer than dict_size
    distinct words, although the shapes hold enough.

    Group the rarest shapes: the others give at most their sizes in words, so
    the group must be drawn at least `need` times. The chance of that is at
    most e^-mu (e mu / need)^need for need > mu, the group's expected draw
    count (a Chernoff bound). Out of reach means a chance below 2^-300: the
    generator has fewer than 2^256 states, so even over all of them the
    expected number of seeds turned away whose draws would have succeeded
    stays below 2^-44.
    """
    shapes = sorted(shapes)
    for j in range(1, len(shapes) + 1):
        need = dict_size - sum(size for _, size in shapes[j:])
        mu = draws * sum(p for p, _ in shapes[:j])
        if need > mu and need * (1.0 + math.log(mu / need)) - mu < -300 * math.log(2):
            return True
    return False


def native_form(word: str) -> str:
    """Deterministic stand-in native spelling: one Bengali letter per a-z letter."""
    return "".join(chr(0x0995 + ord(ch) - ord("a")) for ch in word)


@dataclass(frozen=True)
class SyntheticBenchmark:
    dictionary: TransliterationDictionary
    lexicon: ParallelLexicon  # (noisy, gold) training pairs
    testset: TestSet  # (noisy, gold) held-out entries, golds all in-vocabulary


def generate_benchmark(
    seed: int = 7,
    dict_size: int = 200,
    train_size: int = 1000,
    test_size: int = 200,
    noise_rate: float = 1.0,
    min_syllables: int = 2,
    max_syllables: int = 2,
    coda_probability: float = 0.3,
    consonants: str = "bdgklmst",
) -> SyntheticBenchmark:
    """Build a fully deterministic benchmark from one seed.

    The consonant inventory is deliberately small so dictionary entries have
    close neighbours, and entries are kept distinct under the equivalence
    classes so every corrupted form still has a single right answer.  Every
    test input is guaranteed to pre-normalize to at most the longest
    pre-normalized training word, so a model trained on the lexicon can
    always encode it (corruptions are redrawn up to 20 times, falling back to
    the clean gold form).
    """
    if min(dict_size, train_size, test_size) < 1:
        raise ValueError("benchmark sizes must be positive")
    if min_syllables < 1:
        raise ValueError(f"min_syllables must be at least 1 (got {min_syllables})")
    if max_syllables < min_syllables:
        raise ValueError(
            f"max_syllables must be at least min_syllables (got {max_syllables} < {min_syllables})"
        )
    if not 0.0 <= coda_probability <= 1.0:
        raise ValueError(f"coda_probability must be in [0, 1] (got {coda_probability})")
    shapes = _word_shapes(min_syllables, max_syllables, coda_probability, consonants)
    space = sum(size for _, size in shapes)
    if dict_size > space:
        raise ValueError(
            f"word space too small for the requested dictionary size "
            f"({dict_size} requested, {space} distinct words)"
        )
    max_draws = 1000 * dict_size
    if _out_of_reach(dict_size, shapes, max_draws):
        raise ValueError(
            f"word space out of reach for the requested dictionary size ({dict_size} "
            f"requested; {max_draws} draws at coda probability {coda_probability} "
            f"almost surely find fewer distinct words)"
        )
    rng = np.random.default_rng(seed)
    scaled = NoiseModel().scaled(noise_rate)

    vocab: list[str] = []
    seen: set[str] = set()
    attempts = 0
    while len(vocab) < dict_size:
        attempts += 1
        if attempts > max_draws:
            raise ValueError("word space too small for the requested dictionary size")
        word = random_word(rng, min_syllables, max_syllables, coda_probability, consonants)
        key = canonicalize(word, DEFAULT_EQUIVALENCE_CLASSES)
        if key not in seen:
            seen.add(key)
            vocab.append(word)

    dictionary = TransliterationDictionary(entries=tuple((native_form(w), w) for w in vocab))

    train_pairs = []
    for _ in range(train_size):
        gold = vocab[int(rng.integers(0, dict_size))]
        train_pairs.append((corrupt(gold, scaled, rng), gold))
    lexicon = ParallelLexicon(entries=tuple(train_pairs))

    cap = max(max(len(prenormalize(noisy)), len(gold)) for noisy, gold in train_pairs)
    test_entries = []
    for _ in range(test_size):
        gold = vocab[int(rng.integers(0, dict_size))]
        noisy = corrupt(gold, scaled, rng)
        attempts = 0
        while len(prenormalize(noisy)) > cap and attempts < 20:
            noisy = corrupt(gold, scaled, rng)
            attempts += 1
        if len(prenormalize(noisy)) > cap:
            noisy = gold
        test_entries.append((noisy, gold))
    testset = TestSet(entries=tuple(test_entries))

    return SyntheticBenchmark(dictionary=dictionary, lexicon=lexicon, testset=testset)
