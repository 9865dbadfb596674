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
* cli.custom_tables: the same CLI's structured stdout of `normalize` under
  setups 2 and 4 and of `evaluate --setup all`, with an equivalence-class
  file and a digit table that differ from the defaults, on
  generate_benchmark()'s dictionary and test set plus words with digits,
  so the two loaders and non-default classes reach the outputs;
* cli.normalize.dict5k.setup<s>: the same CLI's structured `normalize`
  stdout under setups 1 and 2 on the test inputs of a 5,000-entry benchmark
  that `generate` writes as generate_benchmark(seed=7, dict_size=5000,
  max_syllables=3, test_size=1000) does, so matching runs over a dictionary
  large enough that a call scores its queries in several chunks;
* cli.normalize.dict5k.single: the same CLI's structured `normalize <word>`
  stdout under setup 2, one call per word for the first 100 of those test
  inputs, concatenated, so each non-exact word is a kernel pass of its own;
* normalize_batch.dict5k.warm: the reprs of `normalize_batch`'s results
  under setups 1 and 2 on those test inputs, from a second pass on the same
  loaded dictionary object, so the results the dictionary keeps across
  calls are checked against an older tree's first pass;
* normalize.dict5k.single.warm: the reprs of `normalize`'s results under
  setups 1 and 2, one call per word for the first 200 of those test
  inputs, from the second of two such rounds on one loaded dictionary, so
  a single word answered from the kept results is checked too;
* cli.errors: the exit code, stdout and stderr of the same CLI for each of
  a fixed list of failing calls (usage errors, missing and malformed input
  files, a --fail-fast stop, bad training and generate options, a bad
  training option given with a missing lexicon, and a generate size whose
  draws run out before filling the dictionary), with the
  temporary directory's path replaced by a fixed token, so the exit codes
  and error messages README's table describes are covered too. argparse
  words its messages differently from one Python version to the next, so
  compare this line only between runs of one interpreter;
* cli.errors.undecodable: the same for one call per text input
  (dictionary, lexicon through `train`, test set, equivalence classes,
  digit table, `--input` word list), each an input file above with one
  0xff byte put in at offset 5, so the message for a file that is not UTF-8
  is covered;
* cli.normalize.separators: the same CLI's structured `normalize --input`
  stdout under setup 2 on generate_benchmark()'s dictionary plus entries,
  and on test words, that hold a character str.splitlines breaks at but a
  newline is not (U+000B, U+000C, U+001C-U+001E, U+0085, U+2028, U+2029)
  inside a line, so the rule for what ends a line is covered. Older trees
  that split `--input` at those characters print a different line.

BLAS is pinned to one thread before numpy is imported, so the float
results do not depend on how many cores the machine has, and argparse's
line width to 80 columns, so its usage text does not depend on the
terminal. The script imports only long-standing library names
(generate_benchmark, train, infer, the checkpoint functions, prenormalize,
load_dictionary, normalize, normalize_batch and cli.main; the dict5k,
custom_tables and errors lines use cli.main alone, the long line cli.main
and prenormalize, the warm lines load_dictionary with normalize_batch or
normalize, the separators line cli.main alone), so it also runs against
older trees.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["COLUMNS"] = "80"

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
from phonorm.lexicon import load_dictionary, save_dictionary, save_test_set  # noqa: E402
from phonorm.pipeline import normalize, normalize_batch  # noqa: E402
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
# non-default tables: classes unlike {a,o} and {b,v}, and a phone per digit
# unlike DEFAULT_DIGIT_PHONES
EQ_CLASSES = ["ao", "bvw", "ie"]
DIGIT_PHONES = ["jiro", "wan", "tu", "tri", "for", "faib", "siks", "sabon", "eit", "nain"]
# characters that str.splitlines ends a line at and a newline is not
SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
DIGIT_WORDS = ["2", "ka2", "b4d", "mo9", "8ta", "si6", "1la", "d0bi", "ta7", "3ni", "5", "kaaa5"]


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


def cli_outcome(argv: list[str]) -> bytes:
    """The exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return f"exit {code}\n{out.getvalue()}{err.getvalue()}".encode("utf-8")


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

        eq_path, digits_path, custom_path = tmp / "eq.txt", tmp / "digits.tsv", tmp / "custom.txt"
        eq_path.write_text("".join(f"{group}\n" for group in EQ_CLASSES), encoding="utf-8")
        digits_path.write_text("".join(f"{d}\t{p}\n" for d, p in enumerate(DIGIT_PHONES)), encoding="utf-8")
        custom_path.write_text("".join(f"{w}\n" for w in words + DIGIT_WORDS), encoding="utf-8")
        custom_test_path = tmp / "custom_testset.tsv"
        custom_test_path.write_text(test_path.read_text(encoding="utf-8") + "".join(
            f"{w}\t{gold}\n" for w, (_, gold) in zip(DIGIT_WORDS, bench.testset.entries)), encoding="utf-8")
        tables = ["--eq-classes", str(eq_path), "--digit-table", str(digits_path), "--format", "structured"]
        emit("cli.custom_tables", b"".join(
            [cli_stdout(["normalize", "--input", str(custom_path), "--setup", setup, *tables, *common])
             for setup in "24"]
            + [cli_stdout(["evaluate", "--testset", str(custom_test_path), "--setup", "all", *tables, *common])]))

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
        big_dictionary = load_dictionary(big / "dictionary.tsv")
        for mode in ("standard", "modified"):
            normalize_batch(big_words, big_dictionary, mode=mode)
        emit("normalize_batch.dict5k.warm", "\n".join(
            repr(result) for mode in ("standard", "modified")
            for result in normalize_batch(big_words, big_dictionary, mode=mode)).encode("utf-8"))
        single_dictionary = load_dictionary(big / "dictionary.tsv")
        rounds = [[repr(normalize(word, single_dictionary, mode=mode))
                   for mode in ("standard", "modified") for word in big_words[:200]] for _ in range(2)]
        emit("normalize.dict5k.single.warm", "\n".join(rounds[1]).encode("utf-8"))

        one_column, one_char_eq, short_digits = tmp / "one_column.tsv", tmp / "one_char_eq.txt", tmp / "short.tsv"
        one_column.write_text(dict_path.read_text(encoding="utf-8") + "kala\n", encoding="utf-8")
        one_char_eq.write_text("ao\nb\n", encoding="utf-8")
        short_digits.write_text("".join(f"{d}\t{p}\n" for d, p in enumerate(DIGIT_PHONES[:9])), encoding="utf-8")
        truncated = tmp / "truncated.ckpt"
        truncated.write_bytes(CHECKPOINT.read_bytes()[:1000])
        absent = str(tmp / "absent.tsv")
        failing_calls = [
            # a model setup without --checkpoint, with an input file missing
            ["normalize", "kala", "--dict", absent, "--setup", "3"],
            ["evaluate", "--testset", absent, "--dict", str(dict_path), "--setup", "3"],
            ["normalize", "kala", "--dict", absent],
            ["normalize", "kala", "--dict", str(one_column)],
            # an unknown setup on evaluate, whose usage text older trees share
            ["evaluate", "--testset", str(test_path), "--dict", str(dict_path), "--setup", "5"],
            ["normalize", "kala", "--dict", str(dict_path), "--eq-classes", str(one_char_eq)],
            ["normalize", "ka2", "--dict", str(dict_path), "--digit-table", str(short_digits)],
            ["normalize", "kala", "--dict", str(dict_path), "--checkpoint", str(truncated), "--setup", "4"],
            ["normalize", "kala", "kalé", "bodo", "--fail-fast", "--setup", "4", *common],
            ["train", "--lexicon", str(big / "lexicon.tsv"), "--checkpoint", str(tmp / "nan.ckpt"), "--lr", "nan"],
            ["generate", "--out-dir", str(tmp / "huge"), "--dict-size", "100000"],
            # a bad option with a missing lexicon, and a size the draws do not fill
            ["train", "--lexicon", absent, "--checkpoint", str(tmp / "m.ckpt"), "--lr", "nan"],
            ["generate", "--out-dir", str(tmp / "cap"), "--dict-size", "33", "--min-syllables", "1",
             "--max-syllables", "1", "--coda-probability", "1e-6", "--seed", "0"],
        ]
        emit("cli.errors", b"".join(cli_outcome(argv) for argv in failing_calls).replace(
            str(tmp).encode("utf-8"), b"<tmp>"))

        undecodable = []
        for source, argv in [
            (dict_path, ["normalize", "kala", "--dict"]),
            (big / "lexicon.tsv", ["train", "--checkpoint", str(tmp / "u.ckpt"), "--lexicon"]),
            (test_path, ["evaluate", "--dict", str(dict_path), "--setup", "2", "--testset"]),
            (eq_path, ["normalize", "kala", "--dict", str(dict_path), "--eq-classes"]),
            (digits_path, ["normalize", "ka2", "--dict", str(dict_path), "--digit-table"]),
            (input_path, ["normalize", "--dict", str(dict_path), "--input"]),
        ]:
            bad = tmp / f"undecodable_{source.name}"
            data = source.read_bytes()
            bad.write_bytes(data[:5] + b"\xff" + data[5:])
            undecodable.append(cli_outcome([*argv, str(bad)]))
        emit("cli.errors.undecodable", b"".join(undecodable).replace(str(tmp).encode("utf-8"), b"<tmp>"))

        sep_dict_path, sep_input = tmp / "separators.tsv", tmp / "separators.txt"
        split = [(f"{native[:1]}{sep}{native[1:]}", f"{standard[:2]}{sep}{standard[2:]}")
                 for sep, (native, standard) in zip(SEPARATORS, bench.dictionary.entries)]
        sep_dict_path.write_text(dict_path.read_text(encoding="utf-8") + "".join(
            f"{native}\t{standard}\n" for native, standard in split), encoding="utf-8")
        sep_words = [standard for _, standard in split] + [
            f"{word[:3]}{sep}{word[3:]}" for sep, word in zip(SEPARATORS * 2, words[::7])]
        sep_input.write_text("".join(f"{w}\n" for w in sep_words), encoding="utf-8")
        emit("cli.normalize.separators", cli_stdout(
            ["normalize", "--input", str(sep_input), "--dict", str(sep_dict_path),
             "--setup", "2", "--format", "structured"]))


if __name__ == "__main__":
    main()
