"""Exact reference solvers for small instances.

Both packing oracles run one branch-and-bound search for a largest
arc-disjoint family of directed cycles: triangles for
:func:`exact_max_triangle_packing`, all simple cycles for
:func:`exact_max_cycle_packing`.  Every directed cycle uses a backward
arc of the representation, so the search branches on the open backward
arc (neither used nor given up) with the fewest candidates still
placeable, trying each candidate and then giving the arc up.  It prunes
with the smaller of two bounds on how many more members fit: the number
of open backward arcs, and a third of Σ_v min(free in-degree, free
out-degree), since a member of length L uses one in-arc and one out-arc
at each of its L vertices.

The oracles refuse oversized instances via :class:`BudgetExceeded`
rather than degrade into approximations, so a budget error is an
explicit outcome and never a silently wrong answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence, TypeVar

from .core import Cycle, LinearTournament, Triangle, enumerate_triangles

M = TypeVar("M", Triangle, Cycle)


@dataclass(frozen=True)
class OracleBudget:
    max_vertices: int = 12
    max_cycles: int = 250_000
    time_limit: float = 60.0


DEFAULT_BUDGET = OracleBudget()


class BudgetExceeded(Exception):
    """Instance too large for the requested exhaustive computation."""


def _check_vertices(T: LinearTournament, budget: OracleBudget) -> None:
    if T.n > budget.max_vertices:
        raise BudgetExceeded(
            f"n={T.n} exceeds budget.max_vertices={budget.max_vertices}"
        )


def _max_arc_disjoint(
    T: LinearTournament, members: Sequence[M], deadline: float
) -> list[M]:
    """Largest arc-disjoint subfamily of ``members``, the first in search order.

    Each member must be a directed cycle of T, so it uses a backward
    arc.  The search branches on the open backward arc with the fewest
    live candidates (lowest index on ties): one child per candidate in
    member order, then one child that gives the arc up.
    """
    arc_bit = {arc: 1 << i for i, arc in enumerate(T.arcs())}
    bw_index = {arc: j for j, arc in enumerate(sorted(T.backward))}
    masks, bw_masks, sizes = [], [], []
    covering: list[list[int]] = [[] for _ in bw_index]
    for i, member in enumerate(members):
        mask = bws = 0
        for arc in member.arcs():
            mask |= arc_bit[arc]
            j = bw_index.get(arc)
            if j is not None:
                bws |= 1 << j
                covering[j].append(i)
        masks.append(mask)
        bw_masks.append(bws)
        sizes.append(len(member.arcs()))

    # greedy seed so the bound starts pruning immediately
    best: list[M] = []
    used = 0
    for i, member in enumerate(members):
        if not masks[i] & used:
            best.append(member)
            used |= masks[i]

    out_deg = [0] * T.n
    for u, _ in arc_bit:
        out_deg[u] += 1
    degree_slack = sum(min(d, T.n - 1 - d) for d in out_deg)

    def search(used: int, open_bw: int, slack: int, chosen: list[M]) -> None:
        nonlocal best
        if time.monotonic() > deadline:
            raise BudgetExceeded("time limit exhausted in packing search")
        if len(chosen) > len(best):
            best = list(chosen)
        if len(chosen) + min(open_bw.bit_count(), slack // 3) <= len(best):
            return
        pick, pick_live = -1, None
        closed = ~open_bw
        rest = open_bw
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            live = [
                i
                for i in covering[j]
                if not masks[i] & used and not bw_masks[i] & closed
            ]
            if pick_live is None or len(live) < len(pick_live):
                pick, pick_live = j, live
                if not live:
                    break
        for i in pick_live:
            chosen.append(members[i])
            search(used | masks[i], open_bw & ~bw_masks[i], slack - sizes[i], chosen)
            chosen.pop()
        search(used, open_bw & ~(1 << pick), slack, chosen)

    search(0, (1 << len(bw_index)) - 1, degree_slack, [])
    return best


def exact_max_triangle_packing(
    T: LinearTournament, budget: OracleBudget | None = None
) -> tuple[int, list[Triangle]]:
    """Optimum arc-disjoint triangle packing, sorted canonically."""
    budget = budget or DEFAULT_BUDGET
    _check_vertices(T, budget)
    deadline = time.monotonic() + budget.time_limit
    best = _max_arc_disjoint(T, enumerate_triangles(T), deadline)
    return len(best), sorted(best)


def enumerate_simple_cycles(
    T: LinearTournament, limit: int | None = None, deadline: float | None = None
) -> list[Cycle]:
    """Every simple directed cycle, each rooted at its minimum vertex."""
    n = T.n
    out: list[Cycle] = []
    for s in range(n):
        path = [s]
        on_path = {s}

        def dfs(v: int) -> None:
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetExceeded("time limit exhausted enumerating cycles")
            for w in range(s, n):
                if w == v or w in on_path and w != s:
                    continue
                if not T.has_arc(v, w):
                    continue
                if w == s:
                    if len(path) >= 3:
                        out.append(Cycle.of(path))
                        if limit is not None and len(out) > limit:
                            raise BudgetExceeded(
                                f"more than {limit} simple cycles"
                            )
                else:
                    path.append(w)
                    on_path.add(w)
                    dfs(w)
                    path.pop()
                    on_path.remove(w)

        dfs(s)
    return out


def exact_max_cycle_packing(
    T: LinearTournament, budget: OracleBudget | None = None
) -> tuple[int, list[Cycle]]:
    """Optimum arc-disjoint cycle packing over all simple cycles.

    Refuses when T has more than ``budget.max_cycles`` simple cycles.
    The packing is sorted by length, then by vertices.
    """
    budget = budget or DEFAULT_BUDGET
    _check_vertices(T, budget)
    deadline = time.monotonic() + budget.time_limit
    cycles = enumerate_simple_cycles(T, budget.max_cycles, deadline)
    cycles.sort(key=lambda c: (len(c), c.vertices))
    best = _max_arc_disjoint(T, cycles, deadline)
    return len(best), sorted(best, key=lambda c: (len(c), c.vertices))


def exact_min_fas(
    T: LinearTournament, budget: OracleBudget | None = None
) -> tuple[int, frozenset[tuple[int, int]]]:
    """Minimum feedback arc set via the ordering formulation.

    For tournaments the minimum feedback arc set equals the minimum
    number of backward arcs over all orderings, found here by dynamic
    programming over vertex subsets (the cost of appending v to a
    placed set S is the number of arcs from v into S).
    """
    _check_vertices(T, budget or DEFAULT_BUDGET)
    n = T.n
    if n == 0:
        return 0, frozenset()

    out_mask = [0] * n
    for u in range(n):
        for v in range(n):
            if u != v and T.has_arc(u, v):
                out_mask[u] |= 1 << v

    size = 1 << n
    inf = n * n + 1
    dp = [inf] * size
    choice = [-1] * size
    dp[0] = 0
    for S in range(1, size):
        s_bits = S
        while s_bits:
            v_bit = s_bits & -s_bits
            s_bits ^= v_bit
            v = v_bit.bit_length() - 1
            prev = S ^ v_bit
            cost = dp[prev] + bin(out_mask[v] & prev).count("1")
            if cost < dp[S]:
                dp[S] = cost
                choice[S] = v

    order = []
    S = size - 1
    while S:
        v = choice[S]
        order.append(v)
        S ^= 1 << v
    order.reverse()

    placed_at = {v: i for i, v in enumerate(order)}
    fas = frozenset(
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and T.has_arc(u, v) and placed_at[u] > placed_at[v]
    )
    assert len(fas) == dp[size - 1]
    return dp[size - 1], fas
