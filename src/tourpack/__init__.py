"""Arc-disjoint triangle and cycle packing in tournaments.

The package works with tournaments in linear representation: vertices
are positions 0..n-1 and the orientation is described by the set of
backward arcs.  It provides exact baseline solvers for small instances,
a polynomial-time optimal solver for sparse tournaments, a hardness
reduction from bounded-occurrence satisfiability, a linear-vertex
kernel for the parameterized decision problem, and a randomized
color-coding decision procedure.  :func:`solve` routes an instance to
the fitting solver, as the command line's ``solve`` does.
"""

from .core import (
    Arc,
    Cycle,
    LinearTournament,
    Triangle,
    check_cycle_packing,
    check_triangle_packing,
    concatenate,
    enumerate_triangles,
    induced_subtournament,
    is_fully_sparse,
    is_sparse,
    packing_arcs,
    validate_cycle_packing,
    validate_triangle_packing,
)
from .fpt import decide, trial_count
from .kernel import KernelResult, greedy_maximal_packing, kernelize
from .oracle import (
    BudgetExceeded,
    OracleBudget,
    exact_max_cycle_packing,
    exact_max_triangle_packing,
    exact_min_fas,
)
from .reduction import (
    Cnf3Instance,
    ReductionOutput,
    build_reduction,
    certificate_packing,
    decode_assignment,
    normalize,
    parse_dimacs,
)
from .route import SolveReport, solve
from .sparse import (
    build_conflict_digraph,
    decompose,
    max_cycle_packing_sparse,
    max_triangle_packing_sparse,
    normalize_representation,
)
from .steiner import (
    TripleSystem,
    blow_up,
    orient_clique,
    steiner_triple_system,
    tripartite_perfect_packing,
)

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "BudgetExceeded",
    "Cnf3Instance",
    "Cycle",
    "KernelResult",
    "LinearTournament",
    "OracleBudget",
    "ReductionOutput",
    "SolveReport",
    "Triangle",
    "TripleSystem",
    "blow_up",
    "build_conflict_digraph",
    "build_reduction",
    "certificate_packing",
    "check_cycle_packing",
    "check_triangle_packing",
    "concatenate",
    "decide",
    "decode_assignment",
    "decompose",
    "enumerate_triangles",
    "exact_max_cycle_packing",
    "exact_max_triangle_packing",
    "exact_min_fas",
    "greedy_maximal_packing",
    "induced_subtournament",
    "is_fully_sparse",
    "is_sparse",
    "kernelize",
    "max_cycle_packing_sparse",
    "max_triangle_packing_sparse",
    "normalize",
    "normalize_representation",
    "orient_clique",
    "packing_arcs",
    "parse_dimacs",
    "solve",
    "steiner_triple_system",
    "trial_count",
    "tripartite_perfect_packing",
    "validate_cycle_packing",
    "validate_triangle_packing",
    "__version__",
]
