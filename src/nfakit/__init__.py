"""NFA length acceptance and length-set enumeration via boolean matrix
powers, with reductions from triangle detection and orthogonal vectors."""

from .accept import (
    SymbolNotInAlphabetError,
    accepts_length,
    enumerate_naive,
    simulate,
)
from .automata import (
    EmptyLanguageError,
    Graph,
    Nfa,
    NotAcyclicError,
    NotUnaryError,
    ValidationReport,
    adjacency_matrix,
    finals_mask,
    trim,
    validate,
)
from .boolmat import (
    BoolMatrix,
    DimensionMismatchError,
    identity,
    mul,
    mul_calls,
    power,
    reset_mul_calls,
    row_times_power,
)
from .enumeration import enumerate_fast, pad_with_chain
from .reductions import (
    OvInstance,
    OvReduction,
    TriangleReduction,
    has_triangle_brute,
    has_triangle_matmul,
    has_triangle_reduction,
    ov_brute,
    reduce_ov,
    reduce_triangle,
)

__version__ = "0.1.0"

__all__ = [
    "BoolMatrix",
    "DimensionMismatchError",
    "EmptyLanguageError",
    "Graph",
    "Nfa",
    "NotAcyclicError",
    "NotUnaryError",
    "OvInstance",
    "OvReduction",
    "SymbolNotInAlphabetError",
    "TriangleReduction",
    "ValidationReport",
    "accepts_length",
    "adjacency_matrix",
    "enumerate_fast",
    "enumerate_naive",
    "finals_mask",
    "has_triangle_brute",
    "has_triangle_matmul",
    "has_triangle_reduction",
    "identity",
    "mul",
    "mul_calls",
    "ov_brute",
    "pad_with_chain",
    "power",
    "reduce_ov",
    "reduce_triangle",
    "reset_mul_calls",
    "row_times_power",
    "simulate",
    "trim",
    "validate",
]
