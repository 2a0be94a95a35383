"""Structural controllability of odd homogeneous polynomial control systems.

Systems ``dx/dt = A x^(k-1) + B u`` are analyzed two ways: structurally, on
the directed hypergraph induced by the sparsity pattern (no dilation, no
inaccessible vertex), and numerically, through the rank of an iteratively
reduced controllability matrix.  Desk-scale oracles (subset enumeration,
a set-algebra accessibility closure, Lie brackets at the origin, the Kalman
test) cross-check both routes.
"""

from .hypergraph import DirectedHypergraph, Hyperedge, build_hypergraph
from .numeric import (
    RankReport,
    explicit_controllability_matrix,
    strong_controllability,
    svd_rank,
)
from .oracle import (
    AccessClosure,
    PolyVectorField,
    brute_force_dilation,
    individual_accessibility_closure,
    kalman_rank,
    lie_algebra_rank_at_origin,
    lie_bracket,
)
from .structural import (
    DilationResult,
    StructuralVerdict,
    accessible_set,
    analyze_hypergraph,
    detect_dilation,
    structural_verdict,
    verdict_against_rank,
)
from .system import (
    Polysystem,
    SparsityPattern,
    sample_realization,
    sparsity_pattern,
)
from .tensor import (
    DEFAULT_CAP,
    CapacityError,
    SparseTensor,
    contract,
    kron_power,
    unfold,
)

__version__ = "0.1.0"

__all__ = [
    "AccessClosure",
    "CapacityError",
    "DEFAULT_CAP",
    "DilationResult",
    "DirectedHypergraph",
    "Hyperedge",
    "PolyVectorField",
    "Polysystem",
    "RankReport",
    "SparseTensor",
    "SparsityPattern",
    "StructuralVerdict",
    "accessible_set",
    "analyze_hypergraph",
    "brute_force_dilation",
    "build_hypergraph",
    "contract",
    "detect_dilation",
    "explicit_controllability_matrix",
    "individual_accessibility_closure",
    "kalman_rank",
    "kron_power",
    "lie_algebra_rank_at_origin",
    "lie_bracket",
    "sample_realization",
    "sparsity_pattern",
    "strong_controllability",
    "structural_verdict",
    "svd_rank",
    "unfold",
    "verdict_against_rank",
    "__version__",
]
