"""Answers computed apart from tourpack, used to check its outputs.

Nothing here imports tourpack.  A tournament is the pair ``(n, B)``: the
vertex order 0..n-1 plus the set ``B`` of backward arcs ``(t, h)`` with
``h < t``; every other pair is a forward arc.  Packings are lists of
vertex tuples, each a directed cycle in order (a triangle is a 3-cycle).
scipy and networkx are imported lazily, only after the timed part of a
run, so they affect neither timings nor the peak resident set.
"""

from __future__ import annotations

from math import comb


def has_arc(B, u: int, v: int) -> bool:
    return (v, u) not in B if u < v else (u, v) in B


def out_masks(n: int, B) -> list[int]:
    """Out-neighbourhood of every vertex as an int bitset."""
    full = (1 << n) - 1
    out = [full ^ ((1 << (u + 1)) - 1) for u in range(n)]  # forward: all later
    for t, h in B:
        out[h] &= ~(1 << t)
        out[t] |= 1 << h
    return out


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def triangles(n: int, B) -> list[tuple[int, int, int]]:
    """Every directed triangle ``a -> b -> c -> a`` with ``a`` smallest, sorted."""
    out = out_masks(n, B)
    full = (1 << n) - 1
    found = []
    for a in range(n):
        above = full ^ ((1 << (a + 1)) - 1)
        into_a = above & ~out[a]
        for b in _bits(out[a] & above):
            for c in _bits(out[b] & into_a):
                found.append((a, b, c))
    found.sort()
    return found


def triangle_count(n: int, B) -> int:
    """C(n,3) - sum_v C(outdeg v, 2): every transitive triple has one source."""
    outdeg = [n - 1 - v for v in range(n)]
    for t, h in B:
        outdeg[t] += 1
        outdeg[h] -= 1
    return comb(n, 3) - sum(comb(d, 2) for d in outdeg)


def is_matching(B) -> bool:
    ends = [v for arc in B for v in arc]
    return len(ends) == len(set(ends))


def check_packing(n: int, B, members, triangles_only: bool = False) -> str | None:
    """None when ``members`` are valid, pairwise arc-disjoint cycles of (n, B)."""
    used = set()
    for m in members:
        if len(m) < 3 or len(set(m)) != len(m):
            return f"{m} is not a simple cycle"
        if triangles_only and len(m) != 3:
            return f"{m} is not a triangle"
        if not all(0 <= v < n for v in m):
            return f"{m} has a vertex out of range for n={n}"
        for i, u in enumerate(m):
            v = m[(i + 1) % len(m)]
            if not has_arc(B, u, v):
                return f"{m} uses absent arc ({u}, {v})"
            if (u, v) in used:
                return f"arc ({u}, {v}) is used twice"
            used.add((u, v))
    return None


def greedy_size(n: int, B) -> int:
    """Size of the first-fit packing over the sorted triangle list."""
    used = set()
    size = 0
    for a, b, c in triangles(n, B):
        arcs = ((a, b), (b, c), (c, a))
        if not used.intersection(arcs):
            used.update(arcs)
            size += 1
    return size


def max_packing(cycles) -> int:
    """Maximum number of pairwise arc-disjoint cycles, by integer programming."""
    if not cycles:
        return 0
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    arc_row: dict[tuple[int, int], int] = {}
    rows, cols = [], []
    for j, cyc in enumerate(cycles):
        for i, u in enumerate(cyc):
            arc = (u, cyc[(i + 1) % len(cyc)])
            rows.append(arc_row.setdefault(arc, len(arc_row)))
            cols.append(j)
    A = coo_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(len(arc_row), len(cycles))
    )
    res = milp(
        c=-np.ones(len(cycles)),
        constraints=LinearConstraint(A.tocsr(), -np.inf, 1),
        integrality=np.ones(len(cycles)),
        bounds=Bounds(0, 1),
    )
    if not res.success:
        raise RuntimeError(f"reference ILP failed: {res.message}")
    return round(-res.fun)


def triangle_optimum(n: int, B) -> int:
    return max_packing(triangles(n, B))


def cycle_optimum(n: int, B) -> int:
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from((u, v) for u in range(n) for v in range(n) if u != v and has_arc(B, u, v))
    return max_packing([tuple(c) for c in nx.simple_cycles(g)])


def induced(B, keep) -> set[tuple[int, int]]:
    """Backward arcs of the subtournament on ``keep``, renumbered in order."""
    pos = {v: i for i, v in enumerate(sorted(keep))}
    return {(pos[t], pos[h]) for t, h in B if t in pos and h in pos}


def reduction_threshold(n_vars: int, clauses) -> int:
    """6n(n-1) + 3m(m+1)/2 + 2n + alpha + 1 for a normalized formula."""
    m = len(clauses)
    alpha = sum(len(c) for c in clauses) + 3 * n_vars
    return 6 * n_vars * (n_vars - 1) + 3 * m * (m + 1) // 2 + 2 * n_vars + alpha + 1


def satisfies(clauses, values) -> bool:
    return all(any(values[v] == pos for v, pos in c) for c in clauses)
