"""One solve route, shared by the command line and the library.

The sparse solvers pack triangles and cycles; the kernel and the FPT
decision handle triangles only, so cycle decisions go to the exact
oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import formats
from .core import LinearTournament, Triangle, is_fully_sparse, is_sparse
from .fpt import decide
from .kernel import kernelize
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    OracleBudget,
    exact_max_cycle_packing,
    exact_max_triangle_packing,
)
from .sparse import max_cycle_packing_sparse, max_triangle_packing_sparse

METHODS = ("auto", "sparse-poly", "exact", "fpt")


@dataclass
class SolveReport:
    """What ``solve`` found, field for field as ``solve --json`` prints it."""

    n: int
    backward_arcs: int
    sparse: bool
    fully_sparse: bool
    method: str
    wall_time: float
    optimum: int | None = None
    decision: bool | None = None
    confidence: float | None = None
    witness: list[str] | None = None


def solve(
    T: LinearTournament,
    k: int | None = None,
    *,
    method: str = "auto",
    cycles: bool = False,
    delta: float = 0.001,
    seed: int = 0,
    budget: OracleBudget | None = None,
) -> SolveReport:
    """Pack T, or decide whether it packs k members, by the fitting route.

    ``auto`` takes the sparse solver on a sparse instance.  Otherwise,
    given k, it decides: triangles on the kernel, exactly within
    ``budget.max_vertices`` vertices and by the FPT search beyond;
    cycles by the exact oracle.  Without k it takes the exact optimum.
    Refusals, a search past ``budget.time_limit`` included, raise
    :class:`BudgetExceeded`.
    """
    budget = budget or DEFAULT_BUDGET
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if method == "fpt" and (k is None or cycles):
        raise ValueError("the fpt method decides triangle packing and needs k")
    sparse = is_sparse(T)
    decision_only = method == "auto" and not sparse and k is not None
    if method == "auto":
        if sparse:
            method = "sparse-poly"
        elif k is not None:
            method = "exact" if cycles else "kernelize"
        elif T.n <= budget.max_vertices:
            method = "exact"
        else:
            raise BudgetExceeded(
                f"n={T.n} exceeds the exact budget and no -k was given; "
                "use --sparse on a sparse instance or supply -k"
            )
    start = time.perf_counter()
    report = SolveReport(
        n=T.n, backward_arcs=len(T.backward), sparse=sparse,
        fully_sparse=is_fully_sparse(T), method=method, wall_time=0.0,
    )
    sub, back = T, None  # the instance solved, and its vertex map into T
    if method == "kernelize":
        result = kernelize(T, k)
        if result.outcome == "early-yes":
            report.decision, members = True, result.witness[:k]
        else:
            sub, back = result.kernel, result.index_map
            method += "+exact" if sub.n <= budget.max_vertices else "+fpt"
    if method == "sparse-poly":
        if not sparse:
            raise ValueError("instance is not sparse")
        solver = max_cycle_packing_sparse if cycles else max_triangle_packing_sparse
        report.optimum, members = solver(T)
    elif method.endswith("exact"):
        oracle = exact_max_cycle_packing if cycles else exact_max_triangle_packing
        size, members = oracle(sub, budget)
        if k is not None:
            report.decision = size >= k
        if decision_only:
            members = members[:k] if report.decision else None
        else:
            report.optimum = size
    elif method.endswith("fpt"):
        report.decision, members = decide(sub, k, delta, seed, budget=budget)
        report.confidence = 1 - delta

    if members is not None:
        if back is not None:
            members = [Triangle.of(back[t.a], back[t.b], back[t.c]) for t in members]
        # cycles keep the order their solver gives them
        ordered = members if cycles else sorted(members)
        report.witness = formats.format_packing(ordered).splitlines()
    report.method = method
    report.wall_time = time.perf_counter() - start
    return report
