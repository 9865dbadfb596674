"""In-process tests for the command-line interface."""

from __future__ import annotations

import json
import struct

import pytest

from phonorm.cli import main
from phonorm.seq2seq import CHECKPOINT_MAGIC, load_checkpoint, save_checkpoint

DICT = "nk\tkala\nnb\tbodo\nnk2\tkala\nng\tgato\n"
LEXICON_WORDS = ["kala", "bodo", "gato", "kolo", "sela", "mibu", "lodi", "tabe"]
TESTSET = "kala\tkala\nkolo\tkala\nbaaad\tbad\n"


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


def test_normalize_setup_and_mode_conflict(workspace):
    with pytest.raises(SystemExit) as exc:
        main(["normalize", "x", "--dict", str(workspace / "dict.tsv"),
              "--setup", "2", "--mode", "standard"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flag, value, field",
    [("--epochs", "0", "epochs"), ("--epochs", "-1", "epochs"),
     ("--batch-size", "0", "batch_size"), ("--hidden-dim", "0", "hidden_dim"),
     ("--validation-fraction", "-0.5", "validation_fraction")],
)
def test_train_rejects_unrunnable_config_before_writing(workspace, capsys, tmp_path, flag, value, field):
    checkpoint = tmp_path / "m.ckpt"
    code, out, err = run(
        capsys,
        ["train", "--lexicon", str(workspace / "lexicon.tsv"), "--checkpoint", str(checkpoint),
         "--epochs", "1", "--hidden-dim", "8", "--batch-size", "4", flag, value],
    )
    assert code == 4
    assert err.startswith("error:") and field in err
    assert "Traceback" not in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


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


def test_normalize_model_setup_requires_checkpoint(workspace):
    with pytest.raises(SystemExit) as exc:
        main(["normalize", "x", "--dict", str(workspace / "dict.tsv"), "--setup", "3"])
    assert exc.value.code == 2


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


def test_evaluate_all_without_checkpoint_is_usage_error(workspace):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--testset", str(workspace / "testset.tsv"),
              "--dict", str(workspace / "dict.tsv")])
    assert exc.value.code == 2


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


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
