"""The benchmark's workloads: seeded inputs, set-up, closed-loop passes and
oracle checks.

Every workload is driven by one caller that waits for each result (a closed
loop with one client), through phonorm's public API only. Inputs are
generated from the workload seed and written to files; set-up reads them back
through the library's loaders, as a user of the CLI would.
"""

from __future__ import annotations

import hashlib
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import phonorm
from phonorm.evaluation import corrupt
from phonorm.lexicon import save_dictionary, save_parallel_lexicon, save_test_set

from tracer import Tracer

HERE = Path(__file__).resolve().parent
CHECKPOINT = HERE / "data" / "model.ckpt"
# SHA-256 of the committed checkpoint; make_checkpoint.py prints it.
CHECKPOINT_SHA256 = "efb3c4e054c994685eb32ce808b9e1c67ee2c9a812fee89da99bf19c6c76a3fa"
# The checkpoint was trained on generate_benchmark(seed=CHECKPOINT_SEED)'s
# lexicon, so the model workloads match against that benchmark's dictionary.
CHECKPOINT_SEED = 7
MODEL_DICT_SIZE = 200
# chat_5k's language: its dictionary and word pool, ranked by Zipf frequency.
# It is the same in every run, so that the few most frequent words, which
# carry most of the stream, do not change the cost from one seed to the next;
# the workload seed draws the stream.
LANGUAGE_SEED = 7

# characters a code-mixed word may carry that no lowercase-ASCII model encodes
FOREIGN_CHARS = "çñé'-"

_clock = time.perf_counter


@dataclass(frozen=True)
class Sizes:
    chat_dict: int = 5000
    chat_pool: int = 1000  # generated test pairs the Zipf stream draws from
    chat_message: int = 20  # words per pass of chat_5k
    chat_traced_messages: int = 5
    batch_words: int = 1000
    unencodable_share: float = 0.05
    eval_entries: int = 200
    train_pairs: int = 1000
    train_epochs: int = 3  # epochs per train() call
    oracle_sample: int = 10  # results per run re-checked against the oracles


FULL = Sizes()
SMOKE = Sizes(
    chat_dict=300,
    chat_pool=60,
    chat_message=4,
    chat_traced_messages=2,
    batch_words=60,
    eval_entries=12,
    train_pairs=80,
    train_epochs=1,
    oracle_sample=3,
)


@dataclass
class Loaded:
    """What one set-up read through the library's loaders."""

    dictionary: phonorm.TransliterationDictionary | None = None
    model: phonorm.ModelParams | None = None
    testset: phonorm.TestSet | None = None
    lexicon: phonorm.ParallelLexicon | None = None


@dataclass
class Pass:
    """One closed-loop unit of work: its words and per-word latency samples."""

    words: int
    seconds: float
    word_ms: list[float]
    epoch_s: list[float]  # train_1k: one per epoch; otherwise the pass itself
    correct: float  # accuracy numerator
    scored: int  # accuracy denominator
    errors: int  # BatchErrors and evaluate failures


def load_model_checked() -> phonorm.ModelParams:
    digest = hashlib.sha256(CHECKPOINT.read_bytes()).hexdigest()
    if digest != CHECKPOINT_SHA256:
        raise SystemExit(
            f"perfbench: {CHECKPOINT} has SHA-256 {digest}, expected {CHECKPOINT_SHA256}; "
            "refusing to run on a different checkpoint"
        )
    return phonorm.load_checkpoint(CHECKPOINT)


def zipf_probabilities(count: int, exponent: float = 1.0) -> np.ndarray:
    weights = 1.0 / np.arange(1, count + 1) ** exponent
    return weights / weights.sum()


def model_test_pairs(
    vocab: list[str], count: int, cap: int, rng: np.random.Generator
) -> list[tuple[str, str]]:
    """Noisy (input, gold) pairs over a fixed vocabulary.

    Same noise model and length policy as generate_benchmark's test set:
    corruptions longer than the model's max_len after pre-normalization are
    redrawn up to 20 times, then replaced by the clean gold.
    """
    noise = phonorm.NoiseModel()
    pairs = []
    for _ in range(count):
        gold = vocab[int(rng.integers(0, len(vocab)))]
        noisy = corrupt(gold, noise, rng)
        attempts = 0
        while len(phonorm.prenormalize(noisy)) > cap and attempts < 20:
            noisy = corrupt(gold, noise, rng)
            attempts += 1
        if len(phonorm.prenormalize(noisy)) > cap:
            noisy = gold
        pairs.append((noisy, gold))
    return pairs


def unencodable_word(vocab: list[str], model: phonorm.ModelParams, rng, kind: int) -> str:
    """A word the model cannot encode: a foreign character, or too long."""
    if kind == 0:
        word = vocab[int(rng.integers(0, len(vocab)))]
        ch = FOREIGN_CHARS[int(rng.integers(0, len(FOREIGN_CHARS)))]
        pos = int(rng.integers(0, len(word) + 1))
        word = word[:pos] + ch + word[pos:]
    else:
        word = ""
        while len(word) <= model.max_len:
            word += vocab[int(rng.integers(0, len(vocab)))]
    pre = phonorm.prenormalize(word)
    if len(pre) <= model.max_len and all(ch in model.source_alphabet for ch in pre):
        raise AssertionError(f"generated word {word!r} is encodable")
    return word


# ---------------------------------------------------------------------------
# oracle checks


def check_normalization(
    result, word: str, dictionary, model, mode: str, problems: list[str]
) -> None:
    """Compare one pipeline result with the slow reference implementations.

    Pre-normalization, single-word decoding, the full-scan best_match and a
    full-scan reverse lookup must all give what the pipeline reported.
    """
    pre = phonorm.prenormalize(word)
    first = phonorm.infer(model, pre) if model is not None else pre
    oracle = phonorm.best_match(first or pre, dictionary, mode=mode)
    index = dictionary.standards.index(result.final) if result.final in dictionary.standard_set else -1
    natives = [native for native, std in dictionary.entries if std == result.final]
    got = (result.prenormalized, result.first_degree, result.final, result.distance, index)
    want = (pre, first, oracle.matched_standard, oracle.distance, oracle.dictionary_index)
    if got != want:
        problems.append(f"{word!r}: pipeline gave {got}, oracles give {want}")
    if list(result.back_transliterations) != natives:
        problems.append(f"{word!r}: back-transliterations {result.back_transliterations} != {natives}")


def sample_indices(seed: int, population: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, 99])
    count = min(count, population)
    return sorted(int(i) for i in rng.choice(population, size=count, replace=False))


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Base: inputs in __init__, set-up in load(), one pass in run_pass()."""

    name = ""
    eval_entries = 0  # test entries per pass, for evaluation.infer_calls_per_entry

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.tracer: Tracer | None = None
        self.loaded: Loaded | None = None

    def set_up(self) -> float:
        """Set up once and return its wall seconds.

        Every pass uses the first set-up's objects, as one long-lived process
        would, so state the library keeps on them (a cache, an index) lasts
        across passes. Later set-ups are timed and then dropped.
        """
        start = _clock()
        loaded = self.load()
        seconds = _clock() - start
        if self.loaded is None:
            self.loaded = loaded
        return seconds

    def span(self, name: str, layer: str, new_word: bool = False):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, layer, new_word)

    def load_dictionary(self, path):
        with self.span("lexicon.load", "lexicon"):
            return phonorm.load_dictionary(path)

    def load_model(self):
        with self.span("seq2seq.load_checkpoint", "seq2seq"):
            return phonorm.load_checkpoint(CHECKPOINT)

    def load(self) -> Loaded:
        """Read the input files through the library's loaders and warm up."""
        raise NotImplementedError

    def run_pass(self, index: int) -> Pass:
        raise NotImplementedError

    def traced_passes(self) -> int:
        """Passes of fixed work the traced run records."""
        return 1

    def check(self) -> list[str]:
        raise NotImplementedError


class Chat5k(Workload):
    """setup_2: single normalize() calls, Zipf-drawn words, 5k-entry dictionary."""

    name = "chat_5k"
    mode = phonorm.MODIFIED

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        bench = phonorm.generate_benchmark(
            seed=LANGUAGE_SEED,
            dict_size=sizes.chat_dict,
            test_size=sizes.chat_pool,
            min_syllables=2,
            max_syllables=3,
        )
        self.dict_path = workdir / "chat_dictionary.tsv"
        save_dictionary(bench.dictionary, self.dict_path)
        self.pool = bench.testset.entries
        self.probs = zipf_probabilities(len(self.pool))
        self.seen: list[tuple[str, phonorm.NormalizationResult]] = []

    def message(self, index: int) -> list[tuple[str, str]]:
        rng = np.random.default_rng([self.seed, index])
        picks = rng.choice(len(self.pool), size=self.sizes.chat_message, p=self.probs)
        return [self.pool[int(i)] for i in picks]

    def load(self):
        dictionary = self.load_dictionary(self.dict_path)
        phonorm.normalize(self.pool[0][0], dictionary, mode=self.mode)
        return Loaded(dictionary=dictionary)

    def run_pass(self, index):
        dictionary = self.loaded.dictionary
        latencies = []
        correct = 0
        start = _clock()
        for word, gold in self.message(index):
            t0 = _clock()
            # phonorm.normalize, looked up where the traced run wraps it
            result = phonorm.pipeline.normalize(word, dictionary, mode=self.mode)
            latencies.append((_clock() - t0) * 1e3)
            correct += result.final == gold
            self.seen.append((word, result))
        seconds = _clock() - start
        n = len(latencies)
        return Pass(n, seconds, latencies, [seconds], correct, n, errors=0)

    def traced_passes(self):
        return self.sizes.chat_traced_messages

    def check(self):
        problems: list[str] = []
        for i in sample_indices(self.seed, len(self.seen), self.sizes.oracle_sample):
            word, result = self.seen[i]
            check_normalization(result, word, self.loaded.dictionary, None, self.mode, problems)
        return problems


class _ModelWorkload(Workload):
    """Shared inputs of the two workloads that load the committed checkpoint."""

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.input_model = load_model_checked()
        base = phonorm.generate_benchmark(seed=CHECKPOINT_SEED, dict_size=MODEL_DICT_SIZE)
        self.vocab = list(base.dictionary.standards)
        self.dict_path = workdir / "model_dictionary.tsv"
        save_dictionary(base.dictionary, self.dict_path)


class BatchModel200(_ModelWorkload):
    """setup_4: one normalize_batch call per file of generated inputs.

    Every pass draws a fresh file from (seed, pass index), so that a cache
    kept across calls sees only the repeats a real second file would have.
    """

    name = "batch_model_200"
    mode = phonorm.MODIFIED

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        # per pass: (words, golds, positions of unencodable words, results)
        self.runs: list[tuple[list[str], list[str], set[int], list]] = []

    def pass_input(self, index: int) -> tuple[list[str], list[str], set[int]]:
        rng = np.random.default_rng([self.seed, index])
        model = self.input_model
        n = self.sizes.batch_words
        pairs = model_test_pairs(self.vocab, n, model.max_len, rng)
        bad = max(1, round(self.sizes.unencodable_share * n))
        positions = sorted(int(i) for i in rng.choice(n, size=bad, replace=False))
        for kind, pos in enumerate(positions):
            pairs[pos] = (unencodable_word(self.vocab, model, rng, kind % 2), "")
        return [w for w, _ in pairs], [g for _, g in pairs], set(positions)

    def load(self):
        model = self.load_model()
        dictionary = self.load_dictionary(self.dict_path)
        phonorm.normalize_batch([self.vocab[0]], dictionary, model, mode=self.mode)
        return Loaded(dictionary=dictionary, model=model)

    def run_pass(self, index):
        words, golds, bad = self.pass_input(index)
        start = _clock()
        with self.span("pipeline.normalize_batch", "pipeline"):
            out = phonorm.normalize_batch(words, self.loaded.dictionary, self.loaded.model, mode=self.mode)
        seconds = _clock() - start
        self.runs.append((words, golds, bad, out))
        n = len(words)
        results = [(r, gold) for r, gold in zip(out, golds) if isinstance(r, phonorm.NormalizationResult)]
        correct = sum(1 for r, gold in results if r.final == gold)
        return Pass(n, seconds, [seconds * 1e3 / n], [seconds], correct, n, n - len(results))

    def check(self):
        problems: list[str] = []
        good = []
        for run, (words, _, bad, out) in enumerate(self.runs):
            if len(out) != len(words):
                problems.append(f"pass {run}: {len(out)} results for {len(words)} words")
            for pos, (res, word) in enumerate(zip(out, words)):
                is_error = not isinstance(res, phonorm.NormalizationResult)
                if is_error != (pos in bad):
                    problems.append(f"pass {run} position {pos} ({word!r}): error={is_error}")
                elif is_error and (res.index, res.word) != (pos, word):
                    problems.append(f"pass {run} position {pos}: BatchError names ({res.index}, {res.word!r})")
                elif not is_error:
                    good.append((res, word))
        for i in sample_indices(self.seed, len(good), self.sizes.oracle_sample):
            res, word = good[i]
            check_normalization(res, word, self.loaded.dictionary, self.loaded.model, self.mode, problems)
        return problems


class EvalAll200(_ModelWorkload):
    """evaluate for all four setups on a 200-entry test set.

    Pass 0's test set is written to a file that set-up loads; every later
    pass draws a fresh one from (seed, pass index), as BatchModel200 does.
    """

    name = "eval_all_200"

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.eval_entries = sizes.eval_entries
        self.test_path = workdir / "eval_testset.tsv"
        save_test_set(self.pass_testset(0), self.test_path)
        self.runs: list[tuple[phonorm.TestSet, list[phonorm.EvalReport]]] = []

    def pass_testset(self, index: int) -> phonorm.TestSet:
        rng = np.random.default_rng([self.seed, index])
        pairs = model_test_pairs(self.vocab, self.sizes.eval_entries, self.input_model.max_len, rng)
        return phonorm.TestSet(entries=tuple(pairs))

    def load(self):
        model = self.load_model()
        dictionary = self.load_dictionary(self.dict_path)
        with self.span("lexicon.load", "lexicon"):
            testset = phonorm.load_test_set(self.test_path)
        one = phonorm.TestSet(entries=testset.entries[:1])
        for setup in phonorm.SetupId:
            phonorm.evaluate(one, model, dictionary, setup=setup)
        return Loaded(dictionary=dictionary, model=model, testset=testset)

    def run_pass(self, index):
        model, dictionary = self.loaded.model, self.loaded.dictionary
        testset = self.loaded.testset if index == 0 else self.pass_testset(index)
        start = _clock()
        reports = []
        for setup in phonorm.SetupId:
            with self.span("evaluation.evaluate", "evaluation"):
                reports.append(phonorm.evaluate(testset, model, dictionary, setup=setup))
        seconds = _clock() - start
        self.runs.append((testset, reports))
        n = len(testset) * len(reports)
        correct = sum(r.exact_matches for r in reports)
        errors = sum(len(r.failures) for r in reports)
        return Pass(n, seconds, [seconds * 1e3 / n], [seconds], correct, n, errors)

    def check(self):
        problems: list[str] = []
        entries = []
        for testset, reports in self.runs:
            for report in reports:
                for failure in report.failures:
                    problems.append(f"{report.setup.label}: unexpected failure {failure}")
            entries += [(testset, reports, i) for i in range(len(testset))]
        for k in sample_indices(self.seed, len(entries), self.sizes.oracle_sample):
            testset, reports, i = entries[k]
            word, gold = testset.entries[i]
            for report in reports:
                setup = report.setup
                model = self.loaded.model if setup.uses_model else None
                result = phonorm.normalize(word, self.loaded.dictionary, model, mode=setup.mode)
                check_normalization(result, word, self.loaded.dictionary, model, setup.mode, problems)
                errors = [e for e in report.errors if e.index == i]
                if (result.final != gold) != bool(errors):
                    problems.append(f"{setup.label} entry {i}: report disagrees with normalize()")
                elif errors:
                    e = errors[0]
                    got = (e.prenormalized, e.first_degree, e.final, e.distance)
                    want = (result.prenormalized, result.first_degree, result.final, result.distance)
                    if got != want:
                        problems.append(f"{setup.label} entry {i}: error record {got} != {want}")
        return problems


class Train1k(Workload):
    """train on the seeded 1,000-pair lexicon at the default TrainingConfig."""

    name = "train_1k"

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        bench = phonorm.generate_benchmark(seed=seed, train_size=sizes.train_pairs)
        self.lexicon_path = workdir / "train_lexicon.tsv"
        save_parallel_lexicon(bench.lexicon, self.lexicon_path)
        self.config = phonorm.TrainingConfig(epochs=sizes.train_epochs)
        self.traces: list[phonorm.TrainingTrace] = []

    def load(self):
        with self.span("lexicon.load", "lexicon"):
            lexicon = phonorm.load_parallel_lexicon(self.lexicon_path)
        warm = phonorm.ParallelLexicon(entries=lexicon.entries[: self.config.batch_size])
        phonorm.train(warm, phonorm.TrainingConfig(epochs=1, validation_fraction=0.0))
        return Loaded(lexicon=lexicon)

    def run_pass(self, index):
        lexicon = self.loaded.lexicon
        marks = []
        start = _clock()
        with self.span("seq2seq.train", "seq2seq"):
            _, trace = phonorm.train(lexicon, self.config, on_epoch=lambda _: marks.append(_clock()))
        seconds = _clock() - start
        self.traces.append(trace)
        edges = [start] + marks
        epochs = [b - a for a, b in zip(edges, edges[1:])]
        n = len(lexicon)
        # accuracy is the last epoch's teacher-forced validation character accuracy
        accuracy = trace.final.val_char_accuracy
        return Pass(n * len(epochs), seconds, [e * 1e3 / n for e in epochs], epochs, accuracy, 1, 0)

    def check(self):
        problems: list[str] = []
        first = self.traces[0]
        for rec in first.records:
            values = [v for v in vars(rec).values() if isinstance(v, float)]
            if not all(math.isfinite(v) for v in values):
                problems.append(f"epoch {rec.epoch}: non-finite trace values {rec}")
        for later in self.traces[1:]:
            if later.to_tsv() != first.to_tsv():
                problems.append("train gave a different trace on a repeated call")
                break
        return problems


WORKLOADS = {w.name: w for w in (Chat5k, BatchModel200, EvalAll200, Train1k)}
