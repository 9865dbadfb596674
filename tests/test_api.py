"""The public names: everything phonorm exports, and every entry point the
README names, must exist."""

from __future__ import annotations

import re
from pathlib import Path

import phonorm

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in phonorm.__all__ if not hasattr(phonorm, name)]
    assert missing == []


def test_readme_entry_points_resolve():
    text = " ".join(README.read_text(encoding="utf-8").split())
    sentence = re.search(r"Other entry points: (.*?\.) ", text).group(1)
    names = re.findall(r"`([^`]+)`", sentence)
    assert len(names) > 10
    unresolved = []
    for name in names:
        owner, _, attr = f"phonorm.{name}".rpartition(".")
        target = phonorm
        for part in owner.split(".")[1:]:
            target = getattr(target, part, None)
        # a dataclass field without a default is no class attribute
        if not (hasattr(target, attr) or attr in getattr(target, "__dataclass_fields__", {})):
            unresolved.append(name)
    assert unresolved == []
