"""End-to-end word normalization.

Stages: pre-normalization (digits, elongation, lowercasing), optional
first-degree correction by the trained encoder-decoder, then second-degree
matching against the transliteration dictionary. The matched standard form is
the final answer; its native-script spellings come from reverse lookup.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .lexicon import TransliterationDictionary
from .matcher import (
    DEFAULT_EQUIVALENCE_CLASSES,
    MODIFIED,
    STANDARD,
    EquivalenceClasses,
    best_match_pruned,
)
from .prenorm import prenormalize
from .seq2seq import ModelParams, infer


class SetupId(enum.Enum):
    """Ablation grid: (first-degree model?, matching distance).

    The only mapping between a setup and its two pipeline switches.
    """

    SETUP_1 = "setup_1"  # no model, standard distance
    SETUP_2 = "setup_2"  # no model, modified distance
    SETUP_3 = "setup_3"  # model, standard distance
    SETUP_4 = "setup_4"  # model, modified distance

    @property
    def label(self) -> str:
        return self.value

    @property
    def uses_model(self) -> bool:
        return self in (SetupId.SETUP_3, SetupId.SETUP_4)

    @property
    def mode(self) -> str:
        return STANDARD if self in (SetupId.SETUP_1, SetupId.SETUP_3) else MODIFIED

    @classmethod
    def parse(cls, text: str) -> "SetupId":
        """Accept '1'..'4' or 'setup_1'..'setup_4'."""
        name = text.strip().lower()
        if name in {"1", "2", "3", "4"}:
            name = f"setup_{name}"
        for member in cls:
            if member.value == name:
                return member
        raise ValueError(f"unknown setup {text!r} (expected 1-4 or setup_1..setup_4)")

    @classmethod
    def of(cls, uses_model: bool, mode: str) -> "SetupId":
        """The setup that runs (or skips) the first degree and matches under mode."""
        for member in cls:
            if member.uses_model == uses_model and member.mode == mode:
                return member
        raise ValueError(f"mode must be one of {(STANDARD, MODIFIED)}, got {mode!r}")


@dataclass(frozen=True, slots=True)
class NormalizationResult:
    """Every intermediate stage of normalizing one word.

    Slotted, and its strings and tuple are shared with the dictionary where
    possible, because callers keep one result per word of their input.
    """

    input: str
    prenormalized: str
    first_degree: str
    final: str
    distance: int
    back_transliterations: tuple[str, ...]
    mode: str
    setup: str


@dataclass(frozen=True)
class BatchError:
    """A word that could not be normalized, kept in batch order."""

    index: int
    word: str
    message: str


def normalize(
    word: str,
    dictionary: TransliterationDictionary,
    model: ModelParams | None = None,
    eq: EquivalenceClasses = DEFAULT_EQUIVALENCE_CLASSES,
    mode: str = MODIFIED,
    digit_table: dict[str, str] | None = None,
) -> NormalizationResult:
    """Normalize one word and report all intermediates.

    Without a model (the no-first-degree ablations) the matcher query is the
    pre-normalized word itself. If the model decodes to an empty string, the
    pre-normalized form is matched instead so the final answer is never
    driven by degenerate decoder output. A word that pre-normalizes to
    nothing but whitespace has no answer and raises ValueError.
    """
    prenormalized = prenormalize(word, digit_table)
    if not prenormalized.strip():
        raise ValueError("empty word: nothing to normalize")
    if model is not None:
        first_degree = infer(model, prenormalized)
    else:
        first_degree = prenormalized
    query = first_degree if first_degree else prenormalized
    match = best_match_pruned(query, dictionary, mode=mode, eq=eq)
    return NormalizationResult(
        input=word,
        prenormalized=prenormalized,
        first_degree=first_degree,
        final=match.matched_standard,
        distance=match.distance,
        back_transliterations=dictionary.natives(match.matched_standard),
        mode=mode,
        setup=SetupId.of(model is not None, mode).label,
    )


def normalize_batch(
    words,
    dictionary: TransliterationDictionary,
    model: ModelParams | None = None,
    eq: EquivalenceClasses = DEFAULT_EQUIVALENCE_CLASSES,
    mode: str = MODIFIED,
    digit_table: dict[str, str] | None = None,
) -> list[NormalizationResult | BatchError]:
    """Normalize many words, in order.

    Per-word failures (e.g. characters outside the model's alphabet) become
    BatchError entries in their input position instead of aborting the batch.
    """
    out: list[NormalizationResult | BatchError] = []
    for index, word in enumerate(words):
        try:
            out.append(normalize(word, dictionary, model, eq, mode, digit_table))
        except (ValueError, KeyError) as exc:
            out.append(BatchError(index=index, word=word, message=str(exc)))
    return out
