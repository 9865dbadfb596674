"""End-to-end word normalization.

Stages: pre-normalization (digits, elongation, lowercasing), optional
first-degree correction by the trained encoder-decoder, then second-degree
matching against the transliteration dictionary. The matched standard form is
the final answer; its native-script spellings come from reverse lookup.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import islice

from .charcodec import EncodingError, encode
from .lexicon import TransliterationDictionary
from .matcher import (
    DEFAULT_EQUIVALENCE_CLASSES,
    MODES,
    MODIFIED,
    STANDARD,
    EquivalenceClasses,
    best_matches,
)
from .prenorm import prenormalize, validate_digit_table
from .seq2seq import ModelParams, infer_batch


class SetupId(enum.Enum):
    """Ablation grid: each setup's value is its (first-degree model?,
    matching distance) pair, the only mapping between a setup and its two
    pipeline switches."""

    SETUP_1 = (False, STANDARD)
    SETUP_2 = (False, MODIFIED)
    SETUP_3 = (True, STANDARD)
    SETUP_4 = (True, MODIFIED)

    def __init__(self, uses_model: bool, mode: str):
        self.uses_model = uses_model
        self.mode = mode
        self.label = self.name.lower()

    @classmethod
    def of(cls, uses_model: bool, mode: str) -> "SetupId":
        """The setup that runs (or skips) the first degree and matches under mode."""
        try:
            return _SETUPS[uses_model, mode]
        except (KeyError, TypeError):  # TypeError: an unhashable mode
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}") from None


# each setup by its value: a dict lookup, which on every normalize call
# costs a fraction of calling the Enum by value
_SETUPS = {setup.value: setup for setup in SetupId}


# words that each memo of model-free results keeps between calls: a call
# writes all its new results, then evicts the oldest down to this. An entry
# costs about 160 bytes (a 96-byte result, about 25 of dict slot, and its
# pre-normalized string where that is a string of its own), plus about 60
# for the word once the caller drops it: under 1 MB a memo.
MEMO_WORDS = 4096


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
    """Normalize many words, in order, under the one setup that model and mode
    name: normalize_setups of a list of one."""
    setup = SetupId.of(model is not None, mode)
    return normalize_setups(words, dictionary, model, [setup], eq, digit_table)[0]


def normalize_setups(
    words,
    dictionary: TransliterationDictionary,
    model: ModelParams | None,
    setups,
    eq: EquivalenceClasses = DEFAULT_EQUIVALENCE_CLASSES,
    digit_table: dict[str, str] | None = None,
) -> list[list[NormalizationResult | BatchError]]:
    """Normalize many words, in order, under each of setups: one list each.

    Each stage runs once per distinct input to it, in order of first
    occurrence, whatever the number of setups: pre-normalization once per
    word, the first degree once per pre-normalized form (all encodable forms
    decoded in one infer_batch call, made only if some setup uses the
    model), matching once per distinct query of a mode (one best_matches
    call per mode, which scores all queries that are not a standard
    together). A setup's query is its first degree, or the form itself
    without the model or when the model decodes to an empty string.
    Identical words share one result object within a setup.

    Each setup writes its results to one store, word -> result, and its list
    is read back from that store. For the setups that do not use the model
    (setup_1 and setup_2) the store is the dictionary's memo for (eq, mode,
    digit table contents), kept across calls; for the model setups it lives
    for this call only, since an in-place update of a ModelParams tensor is
    an update of the model. A word that every setup's store holds runs no
    stage and returns the same result object as before, so a call whose
    words are all known makes only lookups. Once the lists are read, each
    memo drops its oldest words down to MEMO_WORDS. BatchErrors, which carry
    their position, are never stored.

    A word's own fault becomes a BatchError at each of its positions: blank
    after pre-normalization in every setup, not encodable by the model in the
    setups that use it. A fault of the call itself raises ValueError before
    any lookup, on every call: first a setup that needs the model when none
    is given, then a digit table that breaks prenorm.validate_digit_table's
    rules (DigitTableError). A dictionary has entries: an empty one cannot
    be built.
    """
    setups = list(setups)
    for setup in setups:
        if setup.uses_model and model is None:
            raise ValueError(f"{setup.label} applies the first-degree model but none was given")
    digits = None if digit_table is None else frozenset(validate_digit_table(digit_table).items())
    stores = [{} if setup.uses_model else dictionary.result_memos.setdefault((eq, setup.mode, digits), {})
              for setup in setups]
    words = list(words)
    try:  # every setup knows every word: lookups only, before any stage is set up
        return [[store[word] for word in words] for store in stores]
    except KeyError:
        pass
    needs_model = any(setup.uses_model for setup in setups)
    forms = {word: prenormalize(word, digit_table) for word in dict.fromkeys(words)
             if not all(word in store for store in stores)}
    # form -> error message, in the setups where the form fails
    failures = {form: "empty word: nothing to normalize" for form in forms.values() if not form.strip()}
    plain = {form: form for form in forms.values() if form not in failures}
    for form in plain if needs_model else ():
        try:
            encode([form], model.source_alphabet, model.max_len)
        except EncodingError as exc:
            failures[form] = str(exc)
    encodable = [form for form in plain if needs_model and form not in failures]
    decoded = dict(zip(encodable, infer_batch(model, encodable))) if encodable else {}
    # per setup, word -> first degree for each word its store lacks, all
    # taken before any setup writes, since two setups may share one memo
    todos = []
    queries: dict[str, dict[str, None]] = {}  # mode -> distinct queries
    for setup, store in zip(setups, stores):
        source = decoded if setup.uses_model else plain
        todo = {word: source[form] for word, form in forms.items() if word not in store and form in source}
        queries.setdefault(setup.mode, {}).update((first or forms[word], None) for word, first in todo.items())
        todos.append(todo)
    matches = {mode: dict(zip(qs, best_matches(qs, dictionary, mode, eq))) for mode, qs in queries.items() if qs}
    for setup, store, todo in zip(setups, stores, todos):
        for word, first in todo.items():
            form = forms[word]
            match = matches[setup.mode][first or form]
            final = match.matched_standard
            store[word] = NormalizationResult(
                input=word,
                prenormalized=final if form == final else form,
                first_degree=final if first == final else first,
                final=final,
                distance=match.distance,
                back_transliterations=dictionary.natives(final),
                mode=setup.mode,
                setup=setup.label,
            )
    outcomes = [[store[word] if word in store else BatchError(index, word, failures[forms[word]])
                 for index, word in enumerate(words)] for store in stores]
    for store in stores:  # a model setup's store goes with the call anyway
        for word in list(islice(store, max(0, len(store) - MEMO_WORDS))):
            del store[word]  # the oldest
    return outcomes
