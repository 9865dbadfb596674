"""Print a SHA-256 fingerprint of phonorm's observable outputs.

Run it on two trees and compare the lines: equal lines mean the outputs
they cover are byte-identical. It takes no options:

    python tools/fingerprint.py                       # this tree's src/
    PYTHONPATH=<other tree>/src python tools/fingerprint.py

Each line is `<name> <sha256>`, covering:

* train.*: the checkpoint bytes and trace TSV of two seeded training runs
  on generate_benchmark(seed=1)'s lexicon;
* infer.seed<s>: infer's strings and error messages with the committed
  perfbench/data/model.ckpt (read only) on the pre-normalized test inputs
  of generate_benchmark(seed=s, test_size=1000), s in 0-2;
* cli.*: stdout of the in-process CLI for `normalize` under setups 1-4 and
  for `evaluate --setup all`, each in text and structured form, on
  generate_benchmark()'s dictionary and test set with the same checkpoint;
* cli.evaluate.failures: the same CLI's `evaluate` stdout for `--setup all`
  and for setups 1-4, text then structured, on that test set plus the
  words the checkpoint cannot encode and a whitespace-only input, so each
  setup reports its own failures;
* cli.normalize.repeats: the same CLI's `normalize` stdout under setups 2
  and 4, text then structured, on an input that gives every test word twice
  and once more as a variant (in capitals, or with a doubled letter
  stretched to three), which pre-normalizes like the word itself;
* cli.normalize.long: the same CLI's structured `normalize` stdout under
  setups 1 and 2 on generate_benchmark()'s dictionary, for every test word
  pre-normalized and repeated past 127 characters, so matching runs on
  int16 tables rather than int8 ones;
* cli.normalize.dict5k.setup<s>: the same CLI's structured `normalize`
  stdout under setups 1 and 2 on the test inputs of a 5,000-entry benchmark
  that `generate` writes as generate_benchmark(seed=7, dict_size=5000,
  max_syllables=3, test_size=1000) does, so matching runs over a dictionary
  large enough that a call scores its queries in several chunks;
* cli.normalize.dict5k.single: the same CLI's structured `normalize <word>`
  stdout under setup 2, one call per word for the first 100 of those test
  inputs, concatenated, so each non-exact word is a kernel pass of its own.

BLAS is pinned to one thread before numpy is imported, so the float
results do not depend on how many cores the machine has. The script imports
only long-standing library names (generate_benchmark, train, infer, the
checkpoint functions, prenormalize and cli.main; the dict5k lines use
cli.main alone, the long line cli.main and prenormalize), so it also runs
against older trees.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# appended, so a tree named on PYTHONPATH takes precedence
sys.path.append(str(ROOT / "src"))

from phonorm import cli  # noqa: E402
from phonorm.evaluation import generate_benchmark  # noqa: E402
from phonorm.lexicon import save_dictionary, save_test_set  # noqa: E402
from phonorm.prenorm import prenormalize  # noqa: E402
from phonorm.seq2seq import TrainingConfig, infer, load_checkpoint, save_checkpoint, train  # noqa: E402

CHECKPOINT = ROOT / "perfbench" / "data" / "model.ckpt"
TRAINING_CONFIGS = {
    "default3": TrainingConfig(epochs=3),
    "small": TrainingConfig(epochs=2, hidden_dim=16, num_layers=3, batch_size=7,
                            validation_fraction=0.25, rng_seed=3),
}
# words the checkpoint cannot encode: a foreign character, a digit that
# expands past max_len, and an overlong word
UNENCODABLE = ["kalé", "99999", "kalakalakalakala"]


def variant(index: int, word: str) -> str:
    """word in capitals or, for every other word that has a doubled letter,
    with the first one stretched to three."""
    stretched = re.sub(r"([a-z])\1", r"\1\1\1", word, count=1)
    return stretched if index % 2 and stretched != word else word.upper()


def emit(name: str, data: bytes) -> None:
    print(name, hashlib.sha256(data).hexdigest(), flush=True)


def cli_stdout(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return out.getvalue().encode("utf-8")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)

        lexicon = generate_benchmark(seed=1).lexicon
        for label, config in TRAINING_CONFIGS.items():
            params, trace = train(lexicon, config)
            path = tmp / f"{label}.ckpt"
            save_checkpoint(path, params)
            emit(f"train.{label}.checkpoint", path.read_bytes())
            emit(f"train.{label}.trace", trace.to_tsv().encode("utf-8"))

        model = load_checkpoint(CHECKPOINT)
        for seed in range(3):
            lines = []
            for noisy, _ in generate_benchmark(seed=seed, test_size=1000).testset.entries:
                try:
                    lines.append(infer(model, prenormalize(noisy)))
                except ValueError as exc:
                    lines.append(f"error\t{type(exc).__name__}\t{exc}")
            emit(f"infer.seed{seed}", "\n".join(lines).encode("utf-8"))

        bench = generate_benchmark()
        dict_path, test_path, input_path = tmp / "dictionary.tsv", tmp / "testset.tsv", tmp / "words.txt"
        save_dictionary(bench.dictionary, dict_path)
        save_test_set(bench.testset, test_path)
        words = [noisy for noisy, _ in bench.testset.entries] + UNENCODABLE
        input_path.write_text("".join(f"{w}\n" for w in words), encoding="utf-8")
        common = ["--dict", str(dict_path), "--checkpoint", str(CHECKPOINT)]
        for fmt in ("text", "structured"):
            for setup in "1234":
                emit(f"cli.normalize.setup{setup}.{fmt}", cli_stdout(
                    ["normalize", "--input", str(input_path), "--setup", setup, "--format", fmt, *common]))
            emit(f"cli.evaluate.all.{fmt}", cli_stdout(
                ["evaluate", "--testset", str(test_path), "--setup", "all", "--format", fmt, *common]))

        failing_path = tmp / "failing.tsv"
        gold = bench.testset.entries[0][1]
        failing_path.write_text(test_path.read_text(encoding="utf-8") + "".join(
            f"{w}\t{gold}\n" for w in [*UNENCODABLE, " "]), encoding="utf-8")
        emit("cli.evaluate.failures", b"".join(
            cli_stdout(["evaluate", "--testset", str(failing_path), "--setup", setup, "--format", fmt, *common])
            for setup in ("all", *"1234") for fmt in ("text", "structured")))

        repeats_path = tmp / "repeats.txt"
        repeats = words + [variant(i, w) for i, w in enumerate(words)] + words
        repeats_path.write_text("".join(f"{w}\n" for w in repeats), encoding="utf-8")
        emit("cli.normalize.repeats", b"".join(
            cli_stdout(["normalize", "--input", str(repeats_path), "--setup", setup, "--format", fmt, *common])
            for setup in "24" for fmt in ("text", "structured")))

        long_path = tmp / "long.txt"
        test_forms = [prenormalize(noisy) for noisy, _ in bench.testset.entries]
        long_words = [form * (127 // len(form) + 1) for form in test_forms]
        long_path.write_text("".join(f"{w}\n" for w in long_words), encoding="utf-8")
        emit("cli.normalize.long", b"".join(
            cli_stdout(["normalize", "--input", str(long_path), "--dict", str(dict_path),
                        "--setup", setup, "--format", "structured"])
            for setup in "12"))

        big = tmp / "dict5k"
        cli_stdout(["generate", "--out-dir", str(big), "--seed", "7", "--dict-size", "5000",
                    "--max-syllables", "3", "--test-size", "1000"])
        big_words = [line.split("\t")[0] for line in
                     (big / "testset.tsv").read_text(encoding="utf-8").splitlines()]
        big_input = big / "words.txt"
        big_input.write_text("".join(f"{w}\n" for w in big_words), encoding="utf-8")
        for setup in "12":
            emit(f"cli.normalize.dict5k.setup{setup}", cli_stdout(
                ["normalize", "--input", str(big_input), "--dict", str(big / "dictionary.tsv"),
                 "--setup", setup, "--format", "structured"]))
        emit("cli.normalize.dict5k.single", b"".join(
            cli_stdout(["normalize", word, "--dict", str(big / "dictionary.tsv"),
                        "--setup", "2", "--format", "structured"])
            for word in big_words[:100]))


if __name__ == "__main__":
    main()
