import re
import string
from pathlib import Path

import numpy as np
import pytest

from phonorm.prenorm import (
    DEFAULT_DIGIT_PHONES,
    DigitTableError,
    expand_digits,
    load_digit_table,
    prenormalize,
    trim_elongation,
    validate_digit_table,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_elongation_golden():
    assert trim_elongation("baaaad") == "baad"
    assert prenormalize("baaaad") == "baad"


def test_elongation_keeps_doubles():
    assert trim_elongation("baad") == "baad"
    assert trim_elongation("aa") == "aa"
    assert trim_elongation("kaaatttttu") == "kaattu"


def test_elongation_trims_newline_runs():
    assert trim_elongation("a\n\n\n\nb") == "a\n\nb"


def test_digit_expansion_golden():
    assert expand_digits("1") == "ek"
    assert expand_digits("2") == "dui"
    assert expand_digits("chalo2") == "chalodui"
    assert expand_digits("k2b") == "kduib"


def test_digit_expansion_per_digit_not_numeral():
    # digits expand one at a time, not as multi-digit numbers
    assert expand_digits("12") == "ekdui"


def test_prenormalize_lowercases_first():
    assert prenormalize("ChAlO") == "chalo"
    assert prenormalize("BAAAAD") == "baad"


def test_prenormalize_digits_before_elongation():
    # digits expand first, then the elongated run is trimmed
    assert prenormalize("a222") == "aduiduidui"
    assert prenormalize("baaa1") == "baaek"


def test_prenormalize_empty():
    assert prenormalize("") == ""


def test_default_table_complete():
    assert sorted(DEFAULT_DIGIT_PHONES) == [str(d) for d in range(10)]
    validate_digit_table(DEFAULT_DIGIT_PHONES)


def test_custom_table():
    table = dict(DEFAULT_DIGIT_PHONES)
    table["2"] = "dos"
    assert expand_digits("a2", table) == "ados"


@pytest.mark.parametrize(
    "mutate",
    [
        lambda t: t.pop("3"),
        lambda t: t.update({"x": "ex"}),
        lambda t: t.update({"4": ""}),
        lambda t: t.update({"4": "Char"}),
        lambda t: t.update({"4": "ch4r"}),
        lambda t: t.update({"4": "chaaar"}),
    ],
)
def test_validate_rejects_bad_tables(mutate):
    table = dict(DEFAULT_DIGIT_PHONES)
    mutate(table)
    with pytest.raises(DigitTableError):
        validate_digit_table(table)


def test_load_digit_table(tmp_path):
    path = tmp_path / "digits.tsv"
    lines = [f"{digit}\t{phone}" for digit, phone in sorted(DEFAULT_DIGIT_PHONES.items())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert load_digit_table(path) == DEFAULT_DIGIT_PHONES
    # blank lines are skipped
    path.write_text("\n".join(lines[:5] + ["", "  "] + lines[5:]) + "\n\n", encoding="utf-8")
    assert load_digit_table(path) == DEFAULT_DIGIT_PHONES
    # the shipped table is the default one
    assert load_digit_table(CONFIGS / "digit_phones.txt") == DEFAULT_DIGIT_PHONES


def test_load_digit_table_rejects_duplicates(tmp_path):
    path = tmp_path / "digits.tsv"
    body = "".join(f"{d}\t{p}\n" for d, p in sorted(DEFAULT_DIGIT_PHONES.items()))
    path.write_text(body + "7\tagain\n", encoding="utf-8")
    with pytest.raises(DigitTableError):
        load_digit_table(path)
    # a line that is not digit<TAB>phone is refused with its file and line
    for bad in ("7 again", "7\tagain\textra"):
        path.write_text(body[:-1] + "\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(DigitTableError, match=rf"^{re.escape(str(path))}:11: expected"):
            load_digit_table(path)


def test_idempotence_random():
    rng = np.random.default_rng(2024)
    pool = string.ascii_letters + string.digits + "ïশ্ \n"
    for _ in range(400):
        n = int(rng.integers(0, 12))
        s = "".join(pool[i] for i in rng.integers(0, len(pool), size=n))
        once = prenormalize(s)
        assert prenormalize(once) == once
