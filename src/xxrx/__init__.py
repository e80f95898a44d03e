"""Binary words avoiding x x^R x: recognition, factorization, enumeration.

The package provides the direct pattern scan, the block-profile
factorization with its linear-time recognizer, classification of
valley-free sequences and their partition-pair encoding, exact and
asymptotic count tables, brute-force oracles, and the quadruple-family
predicate, plus a CLI (``xxrx``) wiring it all together.

The kernels (pattern scan, profile extraction, membership) are pure
Python, in one module; ``BACKEND`` names it.
"""

__version__ = "0.1.0"

from ._backend import BACKEND, available_backends
from .bruteforce import (
    MAX_BRUTE_SEQ_WEIGHT,
    MAX_BRUTE_WORD_LEN,
    CrossCheckReport,
    Discrepancy,
    brute_count_words,
    brute_count_x,
    cross_check,
    iter_words_in_l,
    iter_x_sequences,
)
from .counting import (
    AsymptoticEstimate,
    CountTable,
    asymptotic_u_tilde,
    count_c,
    count_v,
    gf_u_tilde,
    type2_counts,
    verify_bounds,
)
from .factorization import (
    FactorDomainError,
    Factorization,
    ProfileError,
    factorize,
    is_in_l_linear,
    parse_profile,
    profile,
    reconstruct,
    validate_profile,
)
from .intersect import (
    IntersectionReport,
    QuadCase,
    QuadExponents,
    build_quad_word,
    quad_predicate,
    verify_intersection_claim,
)
from .oeis import (
    KNOWN_SEQUENCE_IDS,
    BFile,
    BFileParseError,
    SequenceMismatch,
    compare_values,
    format_bfile,
    parse_bfile,
    read_bfile,
)
from .sequences import (
    NotInXError,
    PartitionPair,
    SequenceClass,
    SequenceKind,
    classify,
    format_pair,
    format_sequence,
    in_x,
    pair_to_sequence,
    parse_sequence,
    sequence_to_pairs,
)
from .words import (
    PatternInstance,
    avoids_xxrx_naive,
    check_word,
    complement,
    find_xxrx_instance,
    reverse,
)

__all__ = [
    "BACKEND",
    "available_backends",
    "MAX_BRUTE_SEQ_WEIGHT",
    "MAX_BRUTE_WORD_LEN",
    "CrossCheckReport",
    "Discrepancy",
    "brute_count_words",
    "brute_count_x",
    "cross_check",
    "iter_words_in_l",
    "iter_x_sequences",
    "AsymptoticEstimate",
    "CountTable",
    "asymptotic_u_tilde",
    "count_c",
    "count_v",
    "gf_u_tilde",
    "type2_counts",
    "verify_bounds",
    "FactorDomainError",
    "Factorization",
    "ProfileError",
    "factorize",
    "is_in_l_linear",
    "parse_profile",
    "profile",
    "reconstruct",
    "validate_profile",
    "IntersectionReport",
    "QuadCase",
    "QuadExponents",
    "build_quad_word",
    "quad_predicate",
    "verify_intersection_claim",
    "KNOWN_SEQUENCE_IDS",
    "BFile",
    "BFileParseError",
    "SequenceMismatch",
    "compare_values",
    "format_bfile",
    "parse_bfile",
    "read_bfile",
    "NotInXError",
    "PartitionPair",
    "SequenceClass",
    "SequenceKind",
    "classify",
    "format_pair",
    "format_sequence",
    "in_x",
    "pair_to_sequence",
    "parse_sequence",
    "sequence_to_pairs",
    "PatternInstance",
    "avoids_xxrx_naive",
    "check_word",
    "complement",
    "find_xxrx_instance",
    "reverse",
    "__version__",
]
