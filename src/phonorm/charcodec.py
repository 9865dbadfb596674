"""Character index coding for the sequence model.

An Alphabet assigns dense indices to reserved markers plus the observed
content characters. A list of words becomes one index array, a right-padded
row per word, which the model reads directly. The target side wraps words in
explicit start/end markers so the decoder has a begin symbol and a stop
condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

SOURCE = "source"
TARGET = "target"

PAD_MARKER = "<pad>"
START_MARKER = "<s>"
END_MARKER = "</s>"

_ASCII_LOWER = "abcdefghijklmnopqrstuvwxyz"


class EncodingError(ValueError):
    """Raised when a word cannot be encoded with a given alphabet."""


@dataclass(frozen=True)
class Alphabet:
    """Index mapping for one side of the model.

    Index layout: pad at 0 (plus start at 1 and end at 2 on the target side),
    then content characters. `content` order is fixed at construction;
    build_alphabet always sorts it by code point.
    """

    side: str
    content: tuple[str, ...]

    def __post_init__(self):
        if self.side not in (SOURCE, TARGET):
            raise ValueError(f"side must be {SOURCE!r} or {TARGET!r}, got {self.side!r}")
        if not self.content:
            raise ValueError("alphabet needs at least one content character")
        if any(len(ch) != 1 for ch in self.content):
            raise ValueError("content symbols must be single characters")
        if len(set(self.content)) != len(self.content):
            raise ValueError("duplicate content characters")

    @cached_property
    def symbols(self) -> tuple[str, ...]:
        """Every index's symbol: the reserved markers, then content."""
        if self.side == SOURCE:
            return (PAD_MARKER, *self.content)
        return (PAD_MARKER, START_MARKER, END_MARKER, *self.content)

    @property
    def pad_index(self) -> int:
        return 0

    @property
    def start_index(self) -> int | None:
        return 1 if self.side == TARGET else None

    @property
    def end_index(self) -> int | None:
        return 2 if self.side == TARGET else None

    @property
    def size(self) -> int:
        return len(self.symbols)

    @cached_property
    def _content_index(self) -> dict[str, int]:
        offset = self.size - len(self.content)
        return {ch: offset + pos for pos, ch in enumerate(self.content)}

    def __contains__(self, ch: str) -> bool:
        return ch in self._content_index

    def index_of(self, ch: str) -> int:
        try:
            return self._content_index[ch]
        except KeyError:
            raise EncodingError(f"character {ch!r} is not in the {self.side} alphabet") from None


def build_alphabet(corpora: Iterable[str], side: str) -> Alphabet:
    """Build an alphabet from every character observed in `corpora`.

    The source side snaps to the full 26 lowercase ASCII letters whenever the
    corpus stays within them, so typical models share one stable input
    alphabet. Symbol order is sorted by code point, which makes builds from
    the same corpus identical.
    """
    words = list(corpora)
    if not words:
        raise ValueError("cannot build an alphabet from an empty corpus")
    observed = {ch for word in words for ch in word}
    if not observed:
        raise ValueError("corpus contains no characters")
    if side == SOURCE and observed <= set(_ASCII_LOWER):
        content = tuple(_ASCII_LOWER)
    else:
        content = tuple(sorted(observed))
    return Alphabet(side=side, content=content)


def encode(words: Sequence[str], alphabet: Alphabet, max_len: int) -> np.ndarray:
    """Encode words as one index array, a right-padded row per word.

    Source rows have max_len columns; target rows wrap each word in
    start/end and have max_len + 2. Unknown characters and overlong words
    are errors, raised for the first word that has one.
    """
    target = alphabet.side == TARGET
    width = max_len + 2 if target else max_len
    rows = []
    for word in words:
        if len(word) > max_len:
            raise EncodingError(f"word {word!r} has {len(word)} characters, max_len is {max_len}")
        body = [alphabet.index_of(ch) for ch in word]
        if target:
            body = [alphabet.start_index, *body, alphabet.end_index]
        rows.append(body + [alphabet.pad_index] * (width - len(body)))
    return np.array(rows, dtype=np.intp).reshape(len(words), width)


def decode(indices: Sequence[int], alphabet: Alphabet) -> str:
    """Inverse of encode for one row: content characters up to the end marker.

    Pad (and the target-side start marker) are skipped; the end marker stops
    decoding. Out-of-range indices are errors.
    """
    symbols, end = alphabet.symbols, alphabet.end_index
    skipped = (alphabet.pad_index, alphabet.start_index)
    chars = []
    for index in indices:
        i = int(index)
        if not 0 <= i < len(symbols):
            raise EncodingError(f"index {i} out of range for alphabet of size {len(symbols)}")
        if i in skipped:
            continue
        if i == end:
            break
        chars.append(symbols[i])
    return "".join(chars)
