"""Exact construction, verification, and search of graph-state codes.

The dense oracle's names, `DenseState` and `state_vector`, are loaded from
`cwskit.dense` on first access and are left out of `__all__`, so neither
`import cwskit` nor `from cwskit import *` imports numpy.
"""

__version__ = "0.1.0"

from .cwscode import (
    CwsCode,
    KLReport,
    KLViolation,
    distance,
    error_pattern_set,
    kl_verify,
    matrix_element,
    proof_check,
    the_9_12_3,
    transition_set,
)
from .files import FileFormatError, load_code, load_graph, render_code, render_graph
from .graphstate import (
    Graph,
    loop_graph,
    overlap,
    reduce_error,
    stabilizer_element,
    vertex_stabilizer,
)
from .operatoralg import (
    Coeff,
    EnumeratorResult,
    PauliSum,
    build_A,
    build_projector,
    projector_from_codewords,
    stabilizes,
    weight_enumerator,
)
from .pauli import PauliOperator, enumerate_errors, parse_label, render_label
from .search import (
    SearchConfig,
    SearchResult,
    certify,
    compatibility_search,
    empty_pattern_present,
    forbidden_differences,
)

__all__ = [
    "__version__",
    "Coeff",
    "CwsCode",
    "EnumeratorResult",
    "FileFormatError",
    "Graph",
    "KLReport",
    "KLViolation",
    "PauliOperator",
    "PauliSum",
    "SearchConfig",
    "SearchResult",
    "build_A",
    "build_projector",
    "certify",
    "compatibility_search",
    "distance",
    "empty_pattern_present",
    "enumerate_errors",
    "error_pattern_set",
    "forbidden_differences",
    "kl_verify",
    "load_code",
    "load_graph",
    "loop_graph",
    "matrix_element",
    "overlap",
    "parse_label",
    "proof_check",
    "projector_from_codewords",
    "reduce_error",
    "render_code",
    "render_graph",
    "render_label",
    "stabilizer_element",
    "stabilizes",
    "the_9_12_3",
    "transition_set",
    "vertex_stabilizer",
    "weight_enumerator",
]


def __getattr__(name: str):
    if name in ("DenseState", "state_vector"):
        from . import dense

        return getattr(dense, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
