"""End-to-end word normalization.

Stages: pre-normalization (digits, elongation, lowercasing), optional
first-degree correction by the trained encoder-decoder, then second-degree
matching against the transliteration dictionary. The matched standard form is
the final answer; its native-script spellings come from reverse lookup.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .charcodec import EncodingError, encode
from .lexicon import TransliterationDictionary
from .matcher import (
    DEFAULT_EQUIVALENCE_CLASSES,
    MODIFIED,
    STANDARD,
    EquivalenceClasses,
    best_matches,
)
from .prenorm import prenormalize
from .seq2seq import ModelParams, infer_batch


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
    possible, because callers keep one result per word of their input: a
    prenormalized or first_degree equal to final is the final string object.
    """

    input: str
    prenormalized: str
    first_degree: str
    final: str
    distance: int
    back_transliterations: tuple[str, ...]
    mode: str
    setup: str


@dataclass(frozen=True, slots=True)
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
    """Normalize one word and report all intermediates: a batch of one.

    A word that normalize_batch turns into a BatchError raises ValueError
    with the error's message.
    """
    (result,) = normalize_batch([word], dictionary, model, eq, mode, digit_table)
    if isinstance(result, BatchError):
        raise ValueError(result.message)
    return result


def normalize_batch(
    words,
    dictionary: TransliterationDictionary,
    model: ModelParams | None = None,
    eq: EquivalenceClasses = DEFAULT_EQUIVALENCE_CLASSES,
    mode: str = MODIFIED,
    digit_table: dict[str, str] | None = None,
) -> list[NormalizationResult | BatchError]:
    """Normalize many words, in order, one stage at a time.

    Each stage runs once per distinct input to it, in order of first
    occurrence: pre-normalization once per word, the first degree once per
    pre-normalized form (all encodable forms decoded in one infer_batch
    call), matching once per distinct query (one best_matches call, which
    scores all queries that are not a standard together). The query is the
    first degree, or the form itself without a model or when the model
    decodes to an empty string. Identical words share one result object.
    Nothing is kept across calls.

    A word's own fault (blank after pre-normalization, or not encodable by
    the model) becomes a BatchError at each of its positions. A fault of the
    call itself (an unknown mode, an empty dictionary) raises ValueError.
    """
    setup = SetupId.of(model is not None, mode).label
    if len(dictionary) == 0:
        raise ValueError("cannot match against an empty dictionary")
    words = list(words)
    forms = {word: prenormalize(word, digit_table) for word in dict.fromkeys(words)}
    failures: dict[str, str] = {}  # form -> error message
    encodable = []
    for form in dict.fromkeys(forms.values()):
        if not form.strip():
            failures[form] = "empty word: nothing to normalize"
            continue
        if model is not None:
            try:
                encode([form], model.source_alphabet, model.max_len)
            except EncodingError as exc:
                failures[form] = str(exc)
                continue
        encodable.append(form)
    decoded = infer_batch(model, encodable) if model is not None else encodable
    first_degrees = dict(zip(encodable, decoded))
    queries = dict.fromkeys(first or form for form, first in first_degrees.items())
    matches = dict(zip(queries, best_matches(queries, dictionary, mode, eq)))
    results: dict[str, NormalizationResult] = {}
    for word, form in forms.items():
        if form in first_degrees:
            first = first_degrees[form]
            match = matches[first or form]
            final = match.matched_standard
            results[word] = NormalizationResult(
                input=word,
                prenormalized=final if form == final else form,
                first_degree=final if first == final else first,
                final=final,
                distance=match.distance,
                back_transliterations=dictionary.natives(final),
                mode=mode,
                setup=setup,
            )
    return [
        results[word] if word in results else BatchError(index, word, failures[forms[word]])
        for index, word in enumerate(words)
    ]
