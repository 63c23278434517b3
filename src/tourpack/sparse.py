"""Polynomial-time optimum packing for sparse tournaments.

A sparse representation has backward arcs forming a matching.  The
pipeline first normalizes away backward arcs between consecutive
positions, splits the ordering at vertices no backward arc covers
(collecting one bridging triangle per arc that spans the split vertex),
and solves each remaining fully sparse segment through its conflict
digraph: backward arcs become vertices, and an optimum packing
corresponds to a maximum digon-free subgraph in which no vertex has two
outgoing arcs.  That optimum is b - k where k counts terminal strong
components that are single vertices or digoned trees.

With backward arcs (t_i, h_i) ordered by head, conflict arc i -> j exists
iff h_i < h_j < t_i or h_i < t_j < t_i (the interval rule), so a segment
with b backward arcs and |E| conflict arcs costs O(b log b + |E|).  The
same rule gives the witness triangle (h_i, h_j, t_i) or (h_i, t_j, t_i)
of each of the b - k arcs the solution keeps.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field

from .core import (
    Cycle,
    LinearTournament,
    Triangle,
    check_triangle_packing,
    induced_subtournament,
    is_fully_sparse,
    is_sparse,
)

ISOLATED_VERTEX = "isolated-vertex"
DIGONED_TREE = "digoned-tree"
HAS_LONG_CYCLE = "has-long-cycle"


@dataclass
class ConflictDigraph:
    """Digraph on the backward arcs of a fully sparse tournament.

    Vertex i stands for the i-th backward arc in order of increasing
    head position.  An arc i -> j is present when redirecting arc j's
    triangle choice frees a triangle for arc i.  ``backward`` holds the
    backward arcs in that order, from which ``pi_map`` derives witness
    triangles; it is None for synthetic digraphs built directly in
    tests.  ``succ`` and ``pred``, the sorted adjacency lists, are built
    from ``arcs`` once: keep ``arcs`` fixed.
    """

    num_vertices: int
    arcs: frozenset[tuple[int, int]]
    backward: tuple[tuple[int, int], ...] | None = None
    succ: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    pred: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        succ: list[list[int]] = [[] for _ in range(self.num_vertices)]
        pred: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for u, v in self.arcs:
            succ[u].append(v)
            pred[v].append(u)
        self.succ = tuple(tuple(sorted(adj)) for adj in succ)
        self.pred = tuple(tuple(sorted(adj)) for adj in pred)


@dataclass(frozen=True)
class ComponentInfo:
    vertices: tuple[int, ...]
    kind: str
    terminal: bool


def normalize_representation(
    T: LinearTournament, return_map: bool = False
):
    """Swap away backward arcs between consecutive positions.

    Swapping the two endpoints of such an arc turns it forward and, the
    representation being a matching, moves no other backward arc.  With
    ``return_map`` the result includes a tuple mapping new positions to
    original ones.
    """
    if not is_sparse(T):
        raise ValueError("normalization requires a sparse representation")
    perm = list(range(T.n))
    consecutive = {(t, h) for t, h in T.backward if t == h + 1}
    for _, h in consecutive:
        perm[h], perm[h + 1] = perm[h + 1], perm[h]
    result = LinearTournament(T.n, T.backward - consecutive)
    if return_map:
        return result, tuple(perm)
    return result


def decompose(
    T: LinearTournament,
) -> tuple[list[tuple[LinearTournament, tuple[int, ...]]], list[Triangle]]:
    """Split a normalized sparse tournament at uncovered vertices.

    Processing one uncovered vertex x at a time, every backward arc
    spanning x yields the triangle (head, x, tail) and dies with the
    split, so each arc is consumed exactly once even when it spans
    several uncovered vertices.  What remains is a list of fully sparse
    segments, each an interval of the ordering returned with its
    position map, plus the collected bridging triangles.
    """
    if not is_sparse(T):
        raise ValueError("decomposition requires a sparse representation")
    if any(t == h + 1 for t, h in T.backward):
        raise ValueError("decomposition requires a normalized representation")
    segments: list[tuple[LinearTournament, tuple[int, ...]]] = []
    bridging: list[Triangle] = []
    stack = [(0, T.n - 1)]
    while stack:
        lo, hi = stack.pop()
        if lo > hi:
            continue
        inside = [(t, h) for (t, h) in T.backward if lo <= h and t <= hi]
        covered = {v for arc in inside for v in arc}
        free = next((p for p in range(lo, hi + 1) if p not in covered), None)
        if free is None:
            sub, index_map = induced_subtournament(T, range(lo, hi + 1))
            segments.append((sub, index_map))
            continue
        for t, h in sorted(inside):
            if h < free < t:
                bridging.append(Triangle(h, free, t))
        # right half pushed first so splits are handled left to right
        stack.append((free + 1, hi))
        stack.append((lo, free - 1))
    segments.sort(key=lambda seg: seg[1][0] if seg[1] else -1)
    bridging.sort()
    return segments, bridging


def build_conflict_digraph(T: LinearTournament) -> ConflictDigraph:
    """Conflict digraph of a normalized fully sparse tournament.

    With backward arcs (t_i, h_i) ordered by head, i -> j exists iff
    h_i < h_j < t_i or h_i < t_j < t_i; for j > i the second implies the
    first, and for j < i only the second can hold.
    """
    if not is_fully_sparse(T):
        raise ValueError("conflict digraph requires a fully sparse tournament")
    if any(t == h + 1 for t, h in T.backward):
        raise ValueError("conflict digraph requires a normalized representation")
    ordered = sorted(T.backward, key=lambda arc: arc[1])
    heads = [h for _, h in ordered]
    # the j > i with h_j < t_i form the index run i + 1 .. ends[i] - 1
    ends = [bisect_left(heads, t) for t, _ in ordered]
    arcs: list[tuple[int, int]] = []
    for i, (ti, _) in enumerate(ordered):
        for j in range(i + 1, ends[i]):
            arcs.append((i, j))
            if ordered[j][0] > ti:
                arcs.append((j, i))  # h_j < t_i < t_j
    return ConflictDigraph(len(ordered), frozenset(arcs), tuple(ordered))


def _strong_components(g: ConflictDigraph) -> list[tuple[int, ...]]:
    # iterative Tarjan; components come out sorted by minimum vertex
    n = g.num_vertices
    succ = g.succ
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[tuple[int, ...]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for next_pi in range(pi, len(succ[v])):
                w = succ[v][next_pi]
                if index[w] == -1:
                    work[-1] = (v, next_pi + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(tuple(sorted(comp)))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    components.sort()
    return components


def classify_components(g: ConflictDigraph) -> list[ComponentInfo]:
    """Strong components with their class and terminality.

    A component with a single vertex is an isolated vertex (the digraph
    has no self-loops).  A larger component whose arcs all come in
    reciprocal pairs and whose underlying simple graph is a tree is a
    digoned tree; everything else strongly connected contains a cycle of
    length at least 3.
    """
    components = _strong_components(g)
    comp_of = [0] * g.num_vertices
    for ci, comp in enumerate(components):
        for v in comp:
            comp_of[v] = ci
    out = []
    for ci, comp in enumerate(components):
        terminal = True
        internal = 0
        reciprocated = True
        for u in comp:
            for v in g.succ[u]:
                if comp_of[v] != ci:
                    terminal = False
                else:
                    internal += 1
                    reciprocated = reciprocated and (v, u) in g.arcs
        if len(comp) == 1:
            kind = ISOLATED_VERTEX
        elif reciprocated and internal // 2 == len(comp) - 1:
            kind = DIGONED_TREE
        else:
            kind = HAS_LONG_CYCLE
        out.append(ComponentInfo(comp, kind, terminal))
    return out


def _short_long_cycle(g: ConflictDigraph, members: set[int]) -> list[int]:
    # shortest cycle of length >= 3 inside a strong component: close
    # v -> w with a shortest w..v path that avoids the direct arc
    for v in sorted(members):
        for w in g.succ[v]:
            if w not in members:
                continue
            parent = {w: None}
            queue = deque([w])
            while queue:
                u = queue.popleft()
                if u == v:
                    break
                for x in g.succ[u]:
                    if x not in members or x in parent:
                        continue
                    if u == w and x == v:
                        continue  # skip the direct closing arc
                    parent[x] = u
                    queue.append(x)
            if v in parent:
                path = [v]
                u = parent[v]
                while u is not None:
                    path.append(u)
                    u = parent[u]
                path.reverse()  # w ... v
                cycle = [v] + path[:-1]
                if len(cycle) >= 3:
                    return cycle
    raise RuntimeError("no long cycle in a component classified as having one")


def _branch_to_targets(
    g: ConflictDigraph, sources: set[int], members: set[int] | None = None
) -> dict[int, int]:
    """Next-hop arcs sending every reachable vertex toward the sources.

    Breadth-first from the sources over reversed arcs; queue order and
    sorted neighbor scans make ties deterministic, preferring lower
    indices.
    """
    next_hop: dict[int, int] = {}
    seen = set(sources)
    queue = deque(sorted(sources))
    while queue:
        v = queue.popleft()
        for u in g.pred[v]:
            if u not in seen and (members is None or u in members):
                seen.add(u)
                next_hop[u] = v
                queue.append(u)
    return next_hop


def solve_pi_prime(
    g: ConflictDigraph, components: list[ComponentInfo] | None = None
) -> list[tuple[int, int]]:
    """Maximum digon-free arc set with out-degree at most one everywhere.

    Terminal components that hold a long cycle are covered completely:
    the cycle's arcs plus shortest-path next-hops toward it.  A terminal
    digoned tree takes an in-branching to its lowest vertex, one arc
    short of covering; a terminal isolated vertex takes nothing.  All
    remaining vertices point along shortest paths toward the finished
    components, so the result has exactly b - k arcs.  ``components``
    is ``classify_components(g)``, computed here when not given.
    """
    if components is None:
        components = classify_components(g)
    chosen: set[tuple[int, int]] = set()
    done: set[int] = set()
    k = 0
    for comp in components:
        if not comp.terminal:
            continue
        members = set(comp.vertices)
        if comp.kind == ISOLATED_VERTEX:
            k += 1
        elif comp.kind == DIGONED_TREE:
            k += 1
            root = comp.vertices[0]
            # in-branching: breadth-first tree arcs oriented toward root
            seen = {root}
            queue = deque([root])
            while queue:
                v = queue.popleft()
                for u in g.succ[v]:
                    if u in members and u not in seen:
                        # digoned component: u -> v exists as well
                        seen.add(u)
                        chosen.add((u, v))
                        queue.append(u)
        else:
            cycle = _short_long_cycle(g, members)
            for idx, v in enumerate(cycle):
                chosen.add((v, cycle[(idx + 1) % len(cycle)]))
            hops = _branch_to_targets(g, set(cycle), members)
            for u in sorted(members - set(cycle)):
                chosen.add((u, hops[u]))
        done |= members
    hops = _branch_to_targets(g, done)
    for u in range(g.num_vertices):
        if u not in done:
            if u not in hops:
                raise RuntimeError(f"vertex {u} cannot reach a terminal component")
            chosen.add((u, hops[u]))

    out_deg: dict[int, int] = {}
    for u, v in chosen:
        out_deg[u] = out_deg.get(u, 0) + 1
        if out_deg[u] > 1:
            raise RuntimeError(f"vertex {u} got two outgoing arcs")
        if (v, u) in chosen:
            raise RuntimeError(f"digon between {u} and {v} in solution")
    if len(chosen) != g.num_vertices - k:
        raise RuntimeError(
            f"solution size {len(chosen)} differs from expected "
            f"{g.num_vertices} - {k}"
        )
    return sorted(chosen)


def pi_map(g: ConflictDigraph, X: list[tuple[int, int]]) -> list[Triangle]:
    """Map each solution arc to a witness triangle, head shape preferred.

    Arc i -> j maps to (h_i, h_j, t_i) when h_i < h_j < t_i, else to
    (h_i, t_j, t_i) when h_i < t_j < t_i.  The mapped triangles are
    checked pairwise arc-disjoint before being returned; a solution arc
    with no witness, as in a synthetic digraph, is an error.
    """
    out: list[Triangle] = []
    used: set[tuple[int, int]] = set()
    for (i, j) in sorted(X):
        if (i, j) not in g.arcs:
            raise ValueError(f"({i}, {j}) is not an arc of the conflict digraph")
        if g.backward is None:
            raise ValueError(f"conflict arc ({i}, {j}) has no backward arcs to map")
        (ti, hi), (tj, hj) = g.backward[i], g.backward[j]
        if hi < hj < ti:
            tri = Triangle(hi, hj, ti)
        elif hi < tj < ti:
            tri = Triangle(hi, tj, ti)
        else:
            raise ValueError(f"conflict arc ({i}, {j}) has no witness triangle")
        for arc in tri.arcs():
            if arc in used:
                raise RuntimeError(
                    f"witness triangles collide on arc {arc}"
                )
            used.add(arc)
        out.append(tri)
    return out


def _map_triangle(tri: Triangle, mapping) -> Triangle:
    return Triangle.of(mapping(tri.a), mapping(tri.b), mapping(tri.c))


def max_triangle_packing_sparse(
    T: LinearTournament,
) -> tuple[int, list[Triangle]]:
    """Optimum triangle packing of a sparse tournament, with witness.

    Runs the normalize / decompose / conflict-digraph pipeline and maps
    every triangle back to the input's positions.  The assembled packing
    is validated before being returned.
    """
    if not is_sparse(T):
        raise ValueError("solver requires a sparse representation")
    norm, perm = normalize_representation(T, return_map=True)
    segments, bridging = decompose(norm)
    packing = [_map_triangle(tri, lambda p: perm[p]) for tri in bridging]
    for sub, index_map in segments:
        g = build_conflict_digraph(sub)
        components = classify_components(g)
        if any(c.terminal and c.kind == ISOLATED_VERTEX for c in components):
            raise RuntimeError("terminal isolated vertex in a fully sparse segment")
        X = solve_pi_prime(g, components)
        for tri in pi_map(g, X):
            packing.append(_map_triangle(tri, lambda p: perm[index_map[p]]))
    err = check_triangle_packing(T, packing)
    if err is not None:
        raise RuntimeError(f"internal: assembled packing invalid: {err}")
    return len(packing), sorted(packing)


def max_cycle_packing_sparse(T: LinearTournament) -> tuple[int, list[Cycle]]:
    """Optimum cycle packing of a sparse tournament.

    In sparse tournaments a maximum cycle packing never needs cycles
    longer than 3, so the triangle optimum is returned as 3-cycles.
    """
    size, triangles = max_triangle_packing_sparse(T)
    return size, [Cycle.of(tri.vertices()) for tri in triangles]
