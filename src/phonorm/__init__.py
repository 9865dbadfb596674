"""Normalization of phonetically transliterated code-mixed words.

Pipeline: rule-based pre-normalization, an optional character-level
encoder-decoder correction (first degree), and dictionary matching by
(equivalence-class-modified) edit distance (second degree), with reverse
lookup back to native script.
"""

from .charcodec import Alphabet, EncodingError, build_alphabet, decode, encode
from .evaluation import (
    EvalReport,
    NoiseModel,
    SyntheticBenchmark,
    evaluate,
    evaluate_setups,
    generate_benchmark,
)
from .lexicon import (
    LexiconFormatError,
    ParallelLexicon,
    TestSet,
    TransliterationDictionary,
    load_dictionary,
    load_parallel_lexicon,
    load_test_set,
)
from .matcher import (
    DEFAULT_EQUIVALENCE_CLASSES,
    MODIFIED,
    STANDARD,
    EquivalenceClasses,
    MatchResult,
    best_match,
    best_matches,
    canonicalize,
    levenshtein,
    modified_levenshtein,
    tie_break_score,
)
from .pipeline import NormalizationResult, SetupId, normalize, normalize_batch, normalize_setups
from .prenorm import expand_digits, prenormalize, trim_elongation
from .seq2seq import (
    CheckpointError,
    ModelParams,
    TrainingConfig,
    TrainingTrace,
    infer,
    infer_batch,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "CheckpointError",
    "DEFAULT_EQUIVALENCE_CLASSES",
    "EncodingError",
    "EquivalenceClasses",
    "EvalReport",
    "LexiconFormatError",
    "MODIFIED",
    "MatchResult",
    "ModelParams",
    "NoiseModel",
    "NormalizationResult",
    "ParallelLexicon",
    "STANDARD",
    "SetupId",
    "SyntheticBenchmark",
    "TestSet",
    "TrainingConfig",
    "TrainingTrace",
    "TransliterationDictionary",
    "best_match",
    "best_matches",
    "build_alphabet",
    "canonicalize",
    "decode",
    "encode",
    "evaluate",
    "evaluate_setups",
    "expand_digits",
    "generate_benchmark",
    "infer",
    "infer_batch",
    "levenshtein",
    "load_checkpoint",
    "load_dictionary",
    "load_parallel_lexicon",
    "load_test_set",
    "modified_levenshtein",
    "normalize",
    "normalize_batch",
    "normalize_setups",
    "prenormalize",
    "save_checkpoint",
    "tie_break_score",
    "train",
    "trim_elongation",
]
