"""Linear-vertex kernel for the triangle packing decision problem.

Starting from a greedy maximal packing X with vertex set V_X, every
triangle of the host tournament either lies inside V_X or uses one
outside vertex together with an arc between two V_X vertices.  Matching
arcs of T[V_X] to compatible outside vertices therefore captures all the
outside structure an optimum solution can need: outside vertices left
unmatched can be exchanged away, so the tournament induced on V_X plus
the matched vertices decides the same instances as the original.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from .core import (
    Arc,
    LinearTournament,
    Triangle,
    enumerate_triangles,
    induced_subtournament,
)


def greedy_maximal_packing(T: LinearTournament) -> list[Triangle]:
    """First-fit maximal packing over the canonical triangle order."""
    used: set[Arc] = set()
    out: list[Triangle] = []
    for tri in enumerate_triangles(T):
        arcs = tri.arcs()
        if all(a not in used for a in arcs):
            used.update(arcs)
            out.append(tri)
    return out


@dataclass(frozen=True)
class ConflictBipartite:
    """Left side: arcs of T[V_X]; right side: vertices outside V_X.

    An edge joins arc a and outside vertex u when a's tail, head, and u
    form a directed triangle, which is the only way u can participate in
    any triangle at all once X is maximal.
    """

    left: tuple[Arc, ...]
    right: tuple[int, ...]
    edges: dict[Arc, tuple[int, ...]]


def build_conflict_bipartite(
    T: LinearTournament, X: Sequence[Triangle]
) -> ConflictBipartite:
    packed = sorted({v for tri in X for v in tri.vertices()})
    packed_set = set(packed)
    outside = tuple(v for v in range(T.n) if v not in packed_set)
    left = []
    edges = {}
    for tail in packed:
        for head in packed:
            if tail == head or not T.has_arc(tail, head):
                continue
            arc = (tail, head)
            left.append(arc)
            hits = tuple(
                u for u in outside if T.has_arc(head, u) and T.has_arc(u, tail)
            )
            if hits:
                edges[arc] = hits
    return ConflictBipartite(tuple(left), outside, edges)


def maximum_bipartite_matching(
    adjacency: Mapping[Hashable, Sequence[Hashable]],
) -> dict[Hashable, Hashable]:
    """Maximum matching by augmenting paths, left keys in given order.

    Augmenting paths are searched depth-first scanning neighbors in
    listed order, so the matching is reproducible.  The result maps left
    to right; it is maximum because the loop ends with no left vertex
    admitting an augmenting path.
    """
    match_right: dict[Hashable, Hashable] = {}

    def augment(left, banned: set) -> bool:
        for right in adjacency[left]:
            if right in banned:
                continue
            banned.add(right)
            if right not in match_right or augment(match_right[right], banned):
                match_right[right] = left
                return True
        return False

    for left in adjacency:
        augment(left, set())
    return {left: right for right, left in match_right.items()}


@dataclass(frozen=True)
class KernelResult:
    outcome: str  # "early-yes" or "kernel"
    k: int
    witness: tuple[Triangle, ...] | None = None
    kernel: LinearTournament | None = None
    index_map: tuple[int, ...] | None = None


def kernelize(T: LinearTournament, k: int) -> KernelResult:
    """Shrink the instance to at most 4k - 4 vertices or answer outright.

    Answers early-yes when the greedy packing already has k triangles,
    or when the arc-to-outside matching does: matched triangles share no
    arcs since their inner arcs differ and their outside vertices do.
    Otherwise both sides are below k, so the kernel keeps at most
    3(k - 1) packed vertices and k - 1 matched outside ones.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    X = greedy_maximal_packing(T)
    if len(X) >= k:
        return KernelResult("early-yes", k, witness=tuple(X))
    bip = build_conflict_bipartite(T, X)
    matching = maximum_bipartite_matching(
        {arc: bip.edges[arc] for arc in bip.left if arc in bip.edges}
    )
    if len(matching) >= k:
        witness = tuple(
            Triangle.of(tail, head, u) for (tail, head), u in sorted(matching.items())
        )
        return KernelResult("early-yes", k, witness=witness)
    packed = {v for tri in X for v in tri.vertices()}
    keep = sorted(packed | set(matching.values()))
    sub, index_map = induced_subtournament(T, keep)
    return KernelResult("kernel", k, kernel=sub, index_map=index_map)

