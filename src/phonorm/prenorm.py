"""Rule-based pre-normalization applied before the character model.

Two rewrites: digit characters become their spoken phone words, and runs of
three or more identical characters (elongation, "baaaad") are trimmed down to
two. Source-side text is lowercased first; canonical target-side strings never
pass through here, since their case is significant.
"""

from __future__ import annotations

import re

from .lexicon import read_input

DEFAULT_DIGIT_PHONES: dict[str, str] = {
    "0": "shunno",
    "1": "ek",
    "2": "dui",
    "3": "tin",
    "4": "char",
    "5": "pach",
    "6": "chhoy",
    "7": "shat",
    "8": "at",
    "9": "noy",
}

_DIGITS = "0123456789"
_RUN = re.compile(r"(.)\1{2,}", re.DOTALL)


class DigitTableError(ValueError):
    """Raised for digit-phone tables that break the table contract."""


def validate_digit_table(table: dict[str, str]) -> dict[str, str]:
    """Check a digit-phone mapping and return it unchanged.

    All ten digits must be mapped. Phone words must be non-empty lowercase
    ASCII letters without runs of three identical characters; anything else
    would break idempotence of prenormalize.
    """
    if set(table) != set(_DIGITS):
        missing = sorted(set(_DIGITS) - set(table))
        extra = sorted(set(table) - set(_DIGITS))
        raise DigitTableError(
            f"digit table must map exactly the digits 0-9 "
            f"(missing {missing!r}, unexpected {extra!r})"
        )
    for digit, phone in table.items():
        if not phone:
            raise DigitTableError(f"empty phone word for digit {digit!r}")
        if not all("a" <= ch <= "z" for ch in phone):
            raise DigitTableError(
                f"phone word {phone!r} for digit {digit!r} must be lowercase ASCII letters"
            )
        if _RUN.search(phone):
            raise DigitTableError(
                f"phone word {phone!r} for digit {digit!r} contains a run of 3+ identical characters"
            )
    return table


def load_digit_table(path) -> dict[str, str]:
    """Read a digit-phone table from a file of ten `<digit>\\t<phone>` lines."""
    table: dict[str, str] = {}
    for lineno, line in enumerate(read_input(path), start=1):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise DigitTableError(f"{path}:{lineno}: expected '<digit>\\t<phone>'")
        digit, phone = cols
        if digit in table:
            raise DigitTableError(f"{path}:{lineno}: duplicate entry for digit {digit!r}")
        table[digit] = phone
    return validate_digit_table(table)


def expand_digits(s: str, table: dict[str, str] | None = None) -> str:
    """Replace each digit character with its phone word; everything else passes through."""
    t = DEFAULT_DIGIT_PHONES if table is None else table
    return "".join(t.get(ch, ch) if "0" <= ch <= "9" else ch for ch in s)


def trim_elongation(s: str) -> str:
    """Trim every run of 3+ identical consecutive characters to exactly 2."""
    return _RUN.sub(r"\1\1", s)


def prenormalize(s: str, table: dict[str, str] | None = None) -> str:
    """Lowercase, expand digits, then trim elongations.

    Digit expansion runs first so elongation trimming can also clean up any
    runs that expansion introduces. A word that is already normal comes back
    as the same object, so callers that keep both hold one string.
    """
    out = trim_elongation(expand_digits(s.lower(), table))
    return s if out == s else out
