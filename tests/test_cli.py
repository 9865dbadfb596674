"""In-process tests for the command-line interface."""

from __future__ import annotations

import argparse
import inspect
import json
import random
import re
import struct
import subprocess
import sys
from dataclasses import fields

import pytest
from conftest import subprocess_env

from phonorm.cli import build_parser, main
from phonorm.evaluation import generate_benchmark
from phonorm.lexicon import load_dictionary, load_parallel_lexicon, load_test_set, save_parallel_lexicon
from phonorm.matcher import load_equivalence_classes
from phonorm.prenorm import DEFAULT_DIGIT_PHONES, DigitTableError, load_digit_table
from phonorm.seq2seq import CHECKPOINT_MAGIC, MAX_LEN_LIMIT, TrainingConfig, load_checkpoint, save_checkpoint

DICT = "nk\tkala\nnb\tbodo\nnk2\tkala\nng\tgato\n"
LEXICON_WORDS = ["kala", "bodo", "gato", "kolo", "sela", "mibu", "lodi", "tabe"]
TESTSET = "kala\tkala\nkolo\tkala\nbaaad\tbad\n"
# a well-formed body for each text input
BODIES = {
    "dictionary": DICT,
    "lexicon": "kalo\tkala\nbodo\tbodo\n",
    "test set": TESTSET,
    "digit table": "".join(f"{d}\t{p}\n" for d, p in DEFAULT_DIGIT_PHONES.items()),
    "equivalence classes": "ao\nbv\n",
    "normalize --input": "kala\nkolo\nvodo\n",
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Dictionary, lexicon, test set and a small trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    (root / "dict.tsv").write_text(DICT, encoding="utf-8")
    (root / "lexicon.tsv").write_text(
        "".join(f"{w}\t{w}\n" for w in LEXICON_WORDS), encoding="utf-8"
    )
    (root / "testset.tsv").write_text(TESTSET, encoding="utf-8")
    (root / "empty.txt").write_text("", encoding="utf-8")
    code = main(
        [
            "train",
            "--lexicon", str(root / "lexicon.tsv"),
            "--checkpoint", str(root / "model.ckpt"),
            "--epochs", "2",
            "--hidden-dim", "8",
            "--batch-size", "4",
            "--validation-fraction", "0",
            "--seed", "3",
        ]
    )
    assert code == 0
    return root


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_train_writes_checkpoint_and_trace(workspace, capsys):
    capsys.readouterr()  # the fixture already trained; drain its output
    params = load_checkpoint(workspace / "model.ckpt")
    assert params.hidden_dim == 8
    trace = (workspace / "model.ckpt.trace.tsv").read_text(encoding="utf-8")
    lines = trace.strip().split("\n")
    assert lines[0].startswith("epoch\ttrain_loss")
    assert len(lines) == 3  # header + 2 epochs


def test_train_structured_epoch_records(workspace, capsys, tmp_path):
    code, out, _ = run(
        capsys,
        [
            "train",
            "--lexicon", str(workspace / "lexicon.tsv"),
            "--checkpoint", str(tmp_path / "m.ckpt"),
            "--trace", str(tmp_path / "trace.tsv"),
            "--epochs", "1",
            "--hidden-dim", "8",
            "--batch-size", "4",
            "--validation-fraction", "0.25",
            "--format", "structured",
        ],
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().split("\n")]
    assert [r["type"] for r in records] == ["epoch", "trained"]
    assert records[0]["val_loss"] is not None
    assert (tmp_path / "trace.tsv").exists()


def test_normalize_modified_matching_resolves_class_swap(capsys, tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("ck\tchala\n", encoding="utf-8")
    code, out, _ = run(capsys, ["normalize", "chalo", "--dict", str(path), "--setup", "2"])
    assert code == 0
    fields = out.strip().split("\t")
    assert fields == ["chalo", "chalo", "chalo", "chala", "0", "setup_2", "ck"]


def test_normalize_structured_records(workspace, capsys):
    code, out, _ = run(
        capsys,
        [
            "normalize", "baaaad", "kala",
            "--dict", str(workspace / "dict.tsv"),
            "--format", "structured",
        ],
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().split("\n")]
    assert len(records) == 2
    first = records[0]
    assert first["type"] == "result"
    assert first["input"] == "baaaad"
    assert first["prenormalized"] == "baad"
    assert first["setup"] == "setup_2"  # modified matching is the default
    assert records[1]["input"] == "kala"
    assert records[1]["distance"] == 0
    assert records[1]["back_transliterations"] == ["nk", "nk2"]
    # keys are emitted sorted
    line = out.strip().split("\n")[0]
    assert line == json.dumps(json.loads(line), sort_keys=True, ensure_ascii=False)


def test_normalize_reads_words_from_file(workspace, capsys, tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("kala\n\nbodo\n", encoding="utf-8")
    code, out, _ = run(
        capsys,
        ["normalize", "--input", str(words), "--dict", str(workspace / "dict.tsv")],
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 2


def test_normalize_empty_input_file_is_quiet_success(workspace, capsys):
    code, out, _ = run(
        capsys,
        ["normalize", "--input", str(workspace / "empty.txt"),
         "--dict", str(workspace / "dict.tsv")],
    )
    assert code == 0
    assert out == ""


def test_normalize_with_checkpoint_uses_setup_4(workspace, capsys):
    code, out, _ = run(
        capsys,
        [
            "normalize", "kala",
            "--dict", str(workspace / "dict.tsv"),
            "--checkpoint", str(workspace / "model.ckpt"),
            "--setup", "4",
        ],
    )
    assert code == 0
    assert out.strip().split("\t")[5] == "setup_4"


def test_normalize_non_finite_checkpoint_is_data_error(workspace, capsys, tmp_path):
    params = load_checkpoint(workspace / "model.ckpt")
    params.w_out[0, 0] = float("nan")
    params.b_out[0] = float("inf")
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, params)
    code, out, err = run(
        capsys,
        ["normalize", "kala", "--dict", str(workspace / "dict.tsv"), "--checkpoint", str(bad)],
    )
    assert code == 4
    assert out == ""
    assert "error:" in err and "out.w" in err


@pytest.mark.parametrize(
    "flag, value, field",
    [("--epochs", "0", "epochs"), ("--epochs", "-1", "epochs"),
     ("--batch-size", "0", "batch_size"), ("--hidden-dim", "0", "hidden_dim"),
     ("--validation-fraction", "-0.5", "validation_fraction"),
     ("--lr", "nan", "learning_rate"), ("--lr", "inf", "learning_rate"),
     ("--lr", "0", "learning_rate"), ("--lr", "-1", "learning_rate"),
     ("--layers", "0", "num_layers"), ("--layers", "-1", "num_layers"), ("--seed", "-1", "rng_seed")],
)
def test_train_rejects_unrunnable_config_before_writing(workspace, capsys, tmp_path, flag, value, field):
    checkpoint = tmp_path / "m.ckpt"
    # the options are checked before any file is read, so a missing lexicon
    # does not hide them
    for lexicon in (workspace / "lexicon.tsv", tmp_path / "absent.tsv"):
        code, out, err = run(
            capsys,
            ["train", "--lexicon", str(lexicon), "--checkpoint", str(checkpoint),
             "--epochs", "1", "--hidden-dim", "8", "--batch-size", "4", flag, value],
        )
        assert code == 4
        assert err.startswith("error:") and field in err and err.count("\n") == 1
        assert "Traceback" not in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []


def _cli_subprocess(argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "phonorm", *argv], capture_output=True, text=True, **kwargs)


def test_diverging_training_is_data_error_and_writes_nothing(tmp_path):
    # a subprocess, so stderr is what a user sees: the overflowing update
    # must leak no numpy RuntimeWarning there, and training must stop before
    # a forward pass runs on the broken weights
    lexicon = tmp_path / "lexicon.tsv"
    save_parallel_lexicon(generate_benchmark(train_size=100).lexicon, lexicon)
    proc = _cli_subprocess(
        ["train", "--lexicon", str(lexicon), "--checkpoint", str(tmp_path / "model.ckpt"),
         "--trace", str(tmp_path / "trace.tsv"), "--epochs", "3", "--hidden-dim", "8", "--lr", "1e308"],
        env=subprocess_env(),
    )
    assert proc.returncode == 4
    (error,) = proc.stderr.splitlines()
    assert re.fullmatch(r"error: training diverged: tensor \S+ holds non-finite values after epoch 1", error)
    assert proc.stdout == ""
    assert [path.name for path in tmp_path.iterdir()] == ["lexicon.tsv"]


def test_out_of_memory_is_data_error(workspace, tmp_path):
    resource = pytest.importorskip("resource")
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 3 * 2**30 if hard == resource.RLIM_INFINITY else min(hard, 3 * 2**30)

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

    # a hidden_dim of 100,000 asks for 298 GiB in its first recurrent tensor
    proc = _cli_subprocess(
        ["train", "--lexicon", str(workspace / "lexicon.tsv"), "--checkpoint", str(tmp_path / "model.ckpt"),
         "--epochs", "1", "--hidden-dim", "100000"],
        env={**subprocess_env(), "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=limit_address_space,
    )
    assert proc.returncode == 4
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


def _options(subcommand: str) -> dict[str, argparse.Action]:
    actions = build_parser()._actions
    (subparsers,) = [action for action in actions if isinstance(action, argparse._SubParsersAction)]
    return {action.dest: action for action in subparsers.choices[subcommand]._actions}


def test_generate_and_train_option_defaults_are_the_library_defaults():
    generate = _options("generate")
    for name, parameter in inspect.signature(generate_benchmark).parameters.items():
        if name == "consonants":
            assert name not in generate
            continue
        assert generate[name].default == parameter.default, name
        assert type(generate[name].default) is type(parameter.default), name
        assert generate[name].type is type(parameter.default), name
    train = _options("train")
    for field in fields(TrainingConfig):
        assert train[field.name].default == field.default, field.name
        assert train[field.name].type is type(field.default), field.name


@pytest.mark.parametrize("header", [b"[]", b"null", b'"v1"'])
def test_normalize_checkpoint_header_not_an_object_is_data_error(workspace, capsys, tmp_path, header):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(CHECKPOINT_MAGIC + b"\n" + struct.pack("<Q", len(header)) + header)
    code, out, err = run(
        capsys,
        ["normalize", "kala", "--dict", str(workspace / "dict.tsv"), "--checkpoint", str(bad)],
    )
    assert code == 4
    assert out == ""
    assert "error:" in err and "malformed header" in err


@pytest.mark.parametrize(
    "field, token",
    [("max_len", "1.5"), ("num_layers", "true"), ("hidden_dim", "1e400"), ("shape", "4.0")],
)
def test_normalize_checkpoint_dimension_not_an_integer_is_data_error(
    workspace, capsys, tmp_path, field, token
):
    # splice a raw JSON token into the saved header; the tensor bytes stay
    data = (workspace / "model.ckpt").read_bytes()
    offset = len(CHECKPOINT_MAGIC) + 1
    (header_len,) = struct.unpack_from("<Q", data, offset)
    header = json.loads(data[offset + 8 : offset + 8 + header_len])
    if field == "shape":
        header["tensors"][0][1][0] = "@"
    else:
        header[field] = "@"
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).replace('"@"', token).encode("ascii")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(data[:offset] + struct.pack("<Q", len(blob)) + blob + data[offset + 8 + header_len :])
    code, out, err = run(
        capsys,
        ["normalize", "kala", "--dict", str(workspace / "dict.tsv"), "--checkpoint", str(bad)],
    )
    assert code == 4
    assert out == ""
    assert "error:" in err and "malformed header" in err and "Traceback" not in err


def test_normalize_checkpoint_with_a_wrong_tensor_shape_is_data_error(workspace, capsys, tmp_path):
    # the manifest keeps its names and its element count; out.w's two
    # dimensions are swapped
    data = (workspace / "model.ckpt").read_bytes()
    offset = len(CHECKPOINT_MAGIC) + 1
    (header_len,) = struct.unpack_from("<Q", data, offset)
    header = json.loads(data[offset + 8 : offset + 8 + header_len])
    out_w = dict(header["tensors"])["out.w"]
    assert out_w[0] != out_w[1]
    out_w.reverse()
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(data[:offset] + struct.pack("<Q", len(blob)) + blob + data[offset + 8 + header_len :])
    code, out, err = run(
        capsys,
        ["normalize", "kala", "--dict", str(workspace / "dict.tsv"), "--checkpoint", str(bad)],
    )
    assert code == 4
    assert out == ""
    assert err == f"error: {bad}: tensor manifest does not match the declared dimensions\n"


@pytest.mark.parametrize("max_len", [MAX_LEN_LIMIT + 1, 10**12])
def test_normalize_checkpoint_max_len_above_the_limit_is_data_error(workspace, capsys, tmp_path, max_len):
    # every other header field stays valid; the tensor shapes do not depend on max_len
    data = (workspace / "model.ckpt").read_bytes()
    offset = len(CHECKPOINT_MAGIC) + 1
    (header_len,) = struct.unpack_from("<Q", data, offset)
    header = json.loads(data[offset + 8 : offset + 8 + header_len])
    header["max_len"] = max_len
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(data[:offset] + struct.pack("<Q", len(blob)) + blob + data[offset + 8 + header_len :])
    code, out, err = run(
        capsys,
        ["normalize", "--dict", str(workspace / "dict.tsv"), "--checkpoint", str(bad), "--setup", "4", "abc"],
    )
    assert code == 4
    assert out == ""
    assert err.startswith("error:") and f"max_len must be at most {MAX_LEN_LIMIT}" in err
    assert "Traceback" not in err


def test_train_rejects_a_lexicon_longer_than_the_max_len_limit(capsys, tmp_path):
    # so every checkpoint that train writes loads
    lexicon = tmp_path / "lexicon.tsv"
    long_word = "ab" * (MAX_LEN_LIMIT // 2) + "a"
    lexicon.write_text(f"kala\tkala\n{long_word}\tkala\n", encoding="utf-8")
    checkpoint = tmp_path / "out" / "m.ckpt"
    checkpoint.parent.mkdir()
    code, out, err = run(
        capsys,
        ["train", "--lexicon", str(lexicon), "--checkpoint", str(checkpoint),
         "--epochs", "1", "--hidden-dim", "8"],
    )
    assert code == 4
    assert err.startswith("error:") and f"max_len must be at most {MAX_LEN_LIMIT}" in err
    assert "Traceback" not in err
    assert out == ""
    assert list(checkpoint.parent.iterdir()) == []


def test_train_rejects_a_blank_source_before_writing(capsys, tmp_path):
    # trained with it, the model's source alphabet would be the characters
    # seen, not a-z, and "bala" could no longer be normalized under setup 4
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("kaal\tkaal\n \tkaal\nchala\tchala\n", encoding="utf-8")
    checkpoint = tmp_path / "out" / "m.ckpt"
    checkpoint.parent.mkdir()
    code, out, err = run(
        capsys,
        ["train", "--lexicon", str(lexicon), "--checkpoint", str(checkpoint),
         "--epochs", "2", "--hidden-dim", "8"],
    )
    assert code == 4
    assert err == "error: training pair 2 (' ', 'kaal') is blank after pre-normalization\n"
    assert out == ""
    assert list(checkpoint.parent.iterdir()) == []


def test_normalize_model_setup_requires_checkpoint(workspace, capsys):
    # a usage error with normalize's usage, reported before any file is read
    for dict_path in (workspace / "dict.tsv", workspace / "absent.tsv"):
        with pytest.raises(SystemExit) as exc:
            main(["normalize", "x", "--dict", str(dict_path), "--setup", "3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: phonorm normalize ")
        assert captured.err.endswith("error: --setup 3 needs --checkpoint\n")


def test_normalize_missing_dictionary_is_io_error(capsys, tmp_path):
    code, _, err = run(
        capsys, ["normalize", "x", "--dict", str(tmp_path / "absent.tsv")]
    )
    assert code == 3
    assert "error:" in err


def test_normalize_malformed_dictionary_is_data_error(capsys, tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("no tab here\n", encoding="utf-8")
    code, _, err = run(capsys, ["normalize", "x", "--dict", str(bad)])
    assert code == 4
    assert "error:" in err


def test_normalize_fail_fast_stops_at_first_error(workspace, capsys):
    long_word = "kala" * 10
    code, out, _ = run(
        capsys,
        [
            "normalize", long_word, "kala",
            "--dict", str(workspace / "dict.tsv"),
            "--checkpoint", str(workspace / "model.ckpt"),
            "--fail-fast",
        ],
    )
    assert code == 4
    lines = out.strip().split("\n")
    assert len(lines) == 1
    assert lines[0].startswith("error\t")


def test_normalize_without_fail_fast_reports_and_continues(workspace, capsys):
    long_word = "kala" * 10
    code, out, _ = run(
        capsys,
        [
            "normalize", long_word, "kala",
            "--dict", str(workspace / "dict.tsv"),
            "--checkpoint", str(workspace / "model.ckpt"),
        ],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[0].startswith("error\t")
    assert lines[1].split("\t")[0] == "kala"


def test_backtranslit_lists_native_forms(workspace, capsys):
    code, out, _ = run(
        capsys,
        ["backtranslit", "kala", "missing", "--dict", str(workspace / "dict.tsv"),
         "--format", "structured"],
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().split("\n")]
    assert records[0] == {"natives": ["nk", "nk2"], "standard": "kala", "type": "backtranslit"}
    assert records[1]["natives"] == []


def test_evaluate_all_setups_prints_table(workspace, capsys):
    code, out, _ = run(
        capsys,
        [
            "evaluate",
            "--testset", str(workspace / "testset.tsv"),
            "--dict", str(workspace / "dict.tsv"),
            "--checkpoint", str(workspace / "model.ckpt"),
        ],
    )
    assert code == 0
    lines = out.strip().split("\n")
    header, rows = lines[0], lines[1:5]
    assert header.split()[:3] == ["setup", "model", "distance"]
    assert [row.split()[0] for row in rows] == ["setup_1", "setup_2", "setup_3", "setup_4"]
    # per-setup analysis lines follow the table
    assert any(line.startswith("setup_1: oov errors") for line in lines[5:])


def test_evaluate_single_setup_structured(workspace, capsys):
    code, out, _ = run(
        capsys,
        [
            "evaluate",
            "--testset", str(workspace / "testset.tsv"),
            "--dict", str(workspace / "dict.tsv"),
            "--setup", "2",
            "--format", "structured",
        ],
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().split("\n")]
    assert len(records) == 1
    assert records[0]["type"] == "report"
    assert records[0]["setup"] == "setup_2"
    assert records[0]["total"] == 3
    assert 0.0 <= records[0]["accuracy"] <= 1.0


def test_evaluate_text_names_each_failure(workspace, capsys, tmp_path):
    # the model's source alphabet is a-z, so it cannot encode "kalé"
    testset = tmp_path / "testset.tsv"
    testset.write_text("kala\tkala\nkalé\tkala\n", encoding="utf-8")
    code, out, _ = run(
        capsys,
        ["evaluate", "--testset", str(testset), "--dict", str(workspace / "dict.tsv"),
         "--checkpoint", str(workspace / "model.ckpt"), "--setup", "4"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-2].startswith("setup_4: oov errors ") and lines[-2].endswith(", failures 1")
    assert lines[-1] == "setup_4: failure [1] kalé: character 'é' is not in the source alphabet"


def test_evaluate_all_without_checkpoint_is_usage_error(workspace, capsys):
    # a usage error with evaluate's usage, reported before any file is read
    for testset, setup in (("testset.tsv", []), ("absent.tsv", ["--setup", "3"])):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--testset", str(workspace / testset), "--dict", str(workspace / "dict.tsv"), *setup])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: phonorm evaluate ")
        assert captured.err.endswith(" needs --checkpoint\n")


def test_evaluate_empty_testset_is_data_error(workspace, capsys):
    code, _, err = run(
        capsys,
        ["evaluate", "--testset", str(workspace / "empty.txt"),
         "--dict", str(workspace / "dict.tsv"), "--setup", "1"],
    )
    assert code == 4
    assert "error:" in err


def test_generate_writes_benchmark_files(capsys, tmp_path):
    out_dir = tmp_path / "bench"
    code, out, _ = run(
        capsys,
        [
            "generate", "--out-dir", str(out_dir), "--seed", "5",
            "--dict-size", "12", "--train-size", "20", "--test-size", "8",
            "--format", "structured",
        ],
    )
    assert code == 0
    record = json.loads(out.strip())
    assert record["type"] == "generated"
    assert record["dict_size"] == 12
    for name, rows in (("dictionary.tsv", 12), ("lexicon.tsv", 20), ("testset.tsv", 8)):
        text = (out_dir / name).read_text(encoding="utf-8")
        assert len(text.strip().split("\n")) == rows


def test_generate_is_deterministic_across_runs(capsys, tmp_path):
    args = ["--seed", "5", "--dict-size", "12", "--train-size", "20", "--test-size", "8"]
    for sub in ("a", "b"):
        code, _, _ = run(capsys, ["generate", "--out-dir", str(tmp_path / sub)] + args)
        assert code == 0
    for name in ("dictionary.tsv", "lexicon.tsv", "testset.tsv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("dict_size", ["100000", "9217"])
def test_generate_impossible_dictionary_size_is_data_error(capsys, tmp_path, dict_size):
    # the default two-syllable space holds 9216 words distinct under the
    # equivalence classes; asking for more must fail at once, not draw for minutes
    out_dir = tmp_path / "bench"
    code, out, err = run(capsys, ["generate", "--out-dir", str(out_dir), "--dict-size", dict_size])
    assert code == 4
    assert out == ""
    assert "error:" in err and "word space too small" in err
    assert not out_dir.exists()


def test_generate_improbable_dictionary_size_is_data_error_without_drawing(capsys, tmp_path, monkeypatch):
    # 9216 fits the two-syllable space, but 8192 of its words need a coda,
    # which a 1e-9 coda probability almost never draws: the size is refused
    # before the first draw instead of after 9,216,000 of them
    import phonorm.evaluation

    def no_draws(*args, **kwargs):
        raise AssertionError("drew a word")

    monkeypatch.setattr(phonorm.evaluation, "random_word", no_draws)
    out_dir = tmp_path / "bench"
    code, out, err = run(capsys, ["generate", "--out-dir", str(out_dir),
                                  "--coda-probability", "1e-9", "--dict-size", "9216"])
    assert code == 4
    assert out == ""
    assert "error:" in err and "out of reach" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "args, field",
    [
        (["--min-syllables", "0"], "min_syllables"),
        (["--min-syllables", "3", "--max-syllables", "2"], "max_syllables"),
        (["--coda-probability", "5"], "coda_probability"),
        (["--seed", "-1"], "seed"),
    ],
)
def test_generate_rejects_invalid_word_shape(capsys, tmp_path, args, field):
    out_dir = tmp_path / "bench"
    code, out, err = run(capsys, ["generate", "--out-dir", str(out_dir)] + args)
    assert code == 4
    assert out == ""
    assert "error:" in err and field in err
    assert not out_dir.exists()


def test_generate_rejects_nan_noise_rate(capsys, tmp_path):
    # NaN fails every comparison, so it must not pass as a rate clipped to 1
    out_dir = tmp_path / "bench"
    code, out, err = run(capsys, ["generate", "--out-dir", str(out_dir), "--noise-rate", "nan"])
    assert code == 4
    assert out == ""
    assert "error:" in err and "noise rate" in err
    assert not out_dir.exists()


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [["normalize", "kala", "--setup", "5"], ["evaluate", "--testset", "testset.tsv", "--setup", "0"]],
)
def test_unknown_setup_is_usage_error(workspace, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--dict", str(workspace / "dict.tsv"), "--checkpoint", str(workspace / "model.ckpt")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--setup" in captured.err and "invalid choice" in captured.err


@pytest.mark.parametrize(
    "what",
    ["dictionary", "lexicon", "test set", "digit table", "equivalence classes", "normalize --input"],
)
def test_leading_byte_order_mark_is_ignored(capsys, tmp_path, what):
    dict_path = tmp_path / "dict.tsv"
    dict_path.write_text(DICT, encoding="utf-8")
    load = {
        "dictionary": load_dictionary,
        "lexicon": load_parallel_lexicon,
        "test set": load_test_set,
        "digit table": load_digit_table,
        "equivalence classes": load_equivalence_classes,
        "normalize --input": lambda path: run(
            capsys, ["normalize", "--input", str(path), "--dict", str(dict_path), "--setup", "2"]),
    }[what]
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(BODIES[what], encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + BODIES[what].encode("utf-8"))
    assert load(marked) == load(plain)


@pytest.mark.parametrize("sep", ["\x85", "\u2028"], ids=["U+0085", "U+2028"])
@pytest.mark.parametrize(
    "what",
    ["dictionary", "equivalence classes", "digit table", "normalize --input", "backtranslit --input"],
)
def test_only_a_newline_ends_a_line(capsys, tmp_path, what, sep):
    # str.splitlines would also break at sep; every reader keeps it inside
    # the line, and reads a file with \r\n endings as it reads one with \n
    dict_path = tmp_path / "dict.tsv"
    dict_path.write_text(f"n{sep}k\tka{sep}la\nnb\tbodo\n", encoding="utf-8")
    phones = {**DEFAULT_DIGIT_PHONES, "2": f"du{sep}i"}
    body, read, expected = {
        "dictionary": (dict_path.read_text(encoding="utf-8"), lambda path: load_dictionary(path).entries,
                       ((f"n{sep}k", f"ka{sep}la"), ("nb", "bodo"))),
        "equivalence classes": (f"a{sep}o\nbv\n", lambda path: load_equivalence_classes(path).classes,
                                (frozenset(f"a{sep}o"), frozenset("bv"))),
        "digit table": ("".join(f"{d}\t{p}\n" for d, p in phones.items()), _digit_table_error,
                        f"phone word {phones['2']!r} for digit '2' must be lowercase ASCII letters"),
        "normalize --input": (f"ka{sep}la\nbodo\n", lambda path: run(capsys, [
            "normalize", "--input", str(path), "--dict", str(dict_path), "--setup", "2", "--format", "text"]),
            (0, f"ka{sep}la\tka{sep}la\tka{sep}la\tka{sep}la\t0\tsetup_2\tn{sep}k\n"
                f"bodo\tbodo\tbodo\tbodo\t0\tsetup_2\tnb\n", "")),
        "backtranslit --input": (f"ka{sep}la\n", lambda path: run(capsys, [
            "backtranslit", "--input", str(path), "--dict", str(dict_path)]), (0, f"ka{sep}la\tn{sep}k\n", "")),
    }[what]
    plain, crlf = tmp_path / "plain.txt", tmp_path / "crlf.txt"
    plain.write_text(body, encoding="utf-8", newline="")
    crlf.write_text(body.replace("\n", "\r\n"), encoding="utf-8", newline="")
    assert read(plain) == read(crlf) == expected


def _digit_table_error(path) -> str:
    with pytest.raises(DigitTableError) as err:
        load_digit_table(path)
    return str(err.value)


@pytest.mark.parametrize("what", list(BODIES))
def test_a_file_that_is_not_utf8_is_a_data_error_that_names_it(workspace, capsys, tmp_path, what):
    dict_path, bad = str(workspace / "dict.tsv"), tmp_path / "bad.txt"
    argv = {
        "dictionary": ["normalize", "kala", "--dict", str(bad)],
        "lexicon": ["train", "--lexicon", str(bad), "--checkpoint", str(tmp_path / "m.ckpt")],
        "test set": ["evaluate", "--testset", str(bad), "--dict", dict_path, "--setup", "2"],
        "digit table": ["normalize", "ka2", "--dict", dict_path, "--digit-table", str(bad)],
        "equivalence classes": ["normalize", "kala", "--dict", dict_path, "--eq-classes", str(bad)],
        "normalize --input": ["normalize", "--input", str(bad), "--dict", dict_path],
    }[what]
    data = BODIES[what].encode("utf-8")
    bad.write_bytes(data[:3] + b"\xff" + data[3:])
    assert run(capsys, argv) == (4, "", f"error: {bad}: not UTF-8 text (invalid start byte at byte 3)\n")


def test_a_key_error_is_a_bug_not_a_data_error(workspace, monkeypatch):
    # each KeyError that data can cause is converted where it arises, so one
    # that reaches main is a bug and must not be reported as bad data
    def bug(path):
        raise KeyError("bug")

    monkeypatch.setattr("phonorm.cli.load_dictionary", bug)
    with pytest.raises(KeyError):
        main(["backtranslit", "kala", "--dict", str(workspace / "dict.tsv")])


def _corrupted(data: bytes, rng: random.Random, head: int) -> bytes:
    """data with 1-4 bytes overwritten, deleted or inserted at a seeded
    position, half the time within the first head bytes."""
    out = bytearray(data)
    pos = rng.randrange(min(head, len(out)) if rng.random() < 0.5 else len(out))
    junk = bytes(rng.randrange(256) for _ in range(rng.randint(1, 4)))
    kind = rng.randrange(3)
    if kind == 0:
        out[pos : pos + len(junk)] = junk[: len(out) - pos]
    elif kind == 1:
        del out[pos : pos + len(junk)]
    else:
        out[pos:pos] = junk
    return bytes(out)


@pytest.mark.parametrize(
    "target",
    ["checkpoint", "dictionary", "test set", "equivalence classes", "digit table", "normalize --input"],
)
def test_corrupted_inputs_exit_0_or_4_with_an_error_line(workspace, capsys, tmp_path, target):
    # seeded byte corruption of one input file: each run either succeeds or
    # reports a data error on stderr, and no exception leaves main
    dict_path = str(workspace / "dict.tsv")
    argv = {
        "checkpoint": ["normalize", "--dict", dict_path, "--checkpoint", "{}", "--setup", "4"],
        "dictionary": ["normalize", "--dict", "{}", "--setup", "2"],
        "test set": ["evaluate", "--testset", "{}", "--dict", dict_path, "--setup", "2"],
        "equivalence classes": ["normalize", "--dict", dict_path, "--eq-classes", "{}", "--setup", "2"],
        "digit table": ["normalize", "--dict", dict_path, "--digit-table", "{}", "--setup", "2"],
        "normalize --input": ["normalize", "--dict", dict_path, "--input", "{}", "--setup", "2"],
    }[target]
    if target == "checkpoint":
        data = (workspace / "model.ckpt").read_bytes()
        offset = len(CHECKPOINT_MAGIC) + 1
        head = offset + 8 + struct.unpack_from("<Q", data, offset)[0]
    else:
        data = BODIES[target].encode("utf-8")
        head = len(data)
    bad = tmp_path / "input"
    codes = []
    for case in range(300):
        bad.write_bytes(_corrupted(data, random.Random(case), head))
        args = [str(bad) if arg == "{}" else arg for arg in argv]
        if args[0] == "normalize":
            args += ["kala", "kolo", "vodo", "gato2"]
        code, _, err = run(capsys, args)
        assert code in (0, 4), (case, code, err)
        assert code == 0 or err.startswith("error:"), (case, err)
        codes.append(code)
    # the corruptions reach both outcomes
    assert set(codes) == {0, 4}
