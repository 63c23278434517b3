"""Linear-representation tournaments and arc-disjoint packing primitives.

A tournament on n vertices is stored as the identity ordering 0..n-1
together with the set of its backward arcs; every vertex pair not listed
carries the forward arc, so an instance always describes a complete
orientation of K_n.  Vertices are ordinal positions in that ordering.

All types here are immutable values and all operations are pure
functions, so everything in this module is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

Arc = tuple[int, int]
"""Directed arc as a (tail, head) pair of positions."""


@dataclass(frozen=True)
class LinearTournament:
    """Tournament given by a vertex ordering plus its backward arcs.

    ``backward`` holds pairs ``(t, h)`` with ``h < t``, meaning the arc
    between positions ``h`` and ``t`` runs from the later position ``t``
    back to the earlier ``h``.  The backward set of any ordering meets
    every directed cycle, so it is always a feedback arc set of the
    tournament it represents.

    Use :func:`from_backward_arcs` to build instances from untrusted
    input; it reports duplicates instead of silently collapsing them.
    """

    n: int
    backward: frozenset[Arc]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        for t, h in self.backward:
            if not (0 <= h < t < self.n):
                raise ValueError(
                    f"backward arc ({t}, {h}) invalid for n={self.n}: "
                    "need 0 <= head < tail < n"
                )

    def has_arc(self, u: int, v: int) -> bool:
        """True iff the arc u -> v is present."""
        if u == v:
            raise ValueError(f"no self arcs: vertex {u}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex pair ({u}, {v}) out of range for n={self.n}")
        if u < v:
            return (v, u) not in self.backward
        return (u, v) in self.backward

    def arcs(self) -> Iterator[Arc]:
        """Yield all n(n-1)/2 arcs as (tail, head) pairs."""
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if (v, u) in self.backward:
                    yield (v, u)
                else:
                    yield (u, v)


def from_backward_arcs(n: int, backward: Iterable[Arc]) -> LinearTournament:
    """Build a tournament, rejecting malformed or duplicate backward arcs."""
    seen: set[Arc] = set()
    for pair in backward:
        t, h = pair
        if h >= t:
            raise ValueError(f"backward arc ({t}, {h}) must have head < tail")
        if not (0 <= h and t < n):
            raise ValueError(f"backward arc ({t}, {h}) out of range for n={n}")
        if pair in seen:
            raise ValueError(f"duplicate backward arc ({t}, {h})")
        seen.add(pair)
    return LinearTournament(n, frozenset(seen))


@dataclass(frozen=True, order=True, slots=True)
class Triangle:
    """Directed 3-cycle a -> b -> c -> a, stored with the smallest vertex first."""

    a: int
    b: int
    c: int

    @classmethod
    def of(cls, a: int, b: int, c: int) -> "Triangle":
        """Canonicalize a cyclic vertex listing by rotating the minimum first."""
        if a == b or b == c or a == c:
            raise ValueError(f"triangle vertices must be distinct: ({a}, {b}, {c})")
        if b < a and b < c:
            a, b, c = b, c, a
        elif c < a and c < b:
            a, b, c = c, a, b
        return cls(a, b, c)

    def vertices(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def arcs(self) -> tuple[Arc, Arc, Arc]:
        return ((self.a, self.b), (self.b, self.c), (self.c, self.a))


@dataclass(frozen=True, order=True, slots=True)
class Cycle:
    """Simple directed cycle, stored with the smallest vertex first."""

    vertices: tuple[int, ...]

    @classmethod
    def of(cls, vertices: Sequence[int]) -> "Cycle":
        vs = tuple(vertices)
        if len(vs) < 3:
            raise ValueError(f"cycle needs at least 3 vertices, got {len(vs)}")
        if len(set(vs)) != len(vs):
            raise ValueError(f"cycle vertices must be distinct: {vs}")
        k = vs.index(min(vs))
        return cls(vs[k:] + vs[:k])

    def __len__(self) -> int:
        return len(self.vertices)

    def arcs(self) -> tuple[Arc, ...]:
        vs = self.vertices
        return tuple((vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs)))


PackingMember = Triangle | Cycle


def enumerate_triangles(T: LinearTournament) -> list[Triangle]:
    """All directed triangles of T, in canonical sorted order.

    For positions i < j < k the triple is a triangle in exactly one of
    two patterns: a single backward arc (k, i) with both short arcs
    forward, or the two backward arcs (j, i) and (k, j) with (k, i)
    forward.  Everything else is transitive.
    """
    B = T.backward
    out: list[Triangle] = []
    n = T.n
    for i in range(n - 2):
        for j in range(i + 1, n - 1):
            ji = (j, i) in B
            for k in range(j + 1, n):
                if (k, i) in B:
                    if not ji and (k, j) not in B:
                        out.append(Triangle(i, j, k))
                elif ji and (k, j) in B:
                    out.append(Triangle(i, k, j))
    out.sort()
    return out


def packing_arcs(packing: Iterable[PackingMember]) -> set[Arc]:
    """Union of the arcs used by the members of a packing."""
    used: set[Arc] = set()
    for member in packing:
        used.update(member.arcs())
    return used


def _check_member(T: LinearTournament, member: PackingMember) -> str | None:
    for u, v in member.arcs():
        if not (0 <= u < T.n and 0 <= v < T.n):
            return f"{member} has vertex out of range for n={T.n}"
        if not T.has_arc(u, v):
            return f"{member} uses arc ({u}, {v}) absent from the tournament"
    return None


def _check_packing(T: LinearTournament, packing: Sequence[PackingMember]) -> str | None:
    used: dict[Arc, PackingMember] = {}
    for member in packing:
        err = _check_member(T, member)
        if err is not None:
            return err
        for arc in member.arcs():
            if arc in used:
                return (
                    f"arc ({arc[0]}, {arc[1]}) used by both {used[arc]} and {member}"
                )
            used[arc] = member
    return None


def check_triangle_packing(
    T: LinearTournament, packing: Sequence[Triangle]
) -> str | None:
    """None if valid, else a diagnostic for the first violation found."""
    for member in packing:
        if not isinstance(member, Triangle):
            return f"not a triangle: {member}"
    return _check_packing(T, packing)


def validate_triangle_packing(T: LinearTournament, packing: Sequence[Triangle]) -> bool:
    return check_triangle_packing(T, packing) is None


def check_cycle_packing(
    T: LinearTournament, packing: Sequence[PackingMember]
) -> str | None:
    """Cycle packing check; triangles are accepted as 3-cycles."""
    return _check_packing(T, packing)


def validate_cycle_packing(T: LinearTournament, packing: Sequence[PackingMember]) -> bool:
    return check_cycle_packing(T, packing) is None


def is_sparse(T: LinearTournament) -> bool:
    """True iff the backward arcs of this representation form a matching."""
    seen: set[int] = set()
    for t, h in T.backward:
        if t in seen or h in seen:
            return False
        seen.add(t)
        seen.add(h)
    return True


def is_fully_sparse(T: LinearTournament) -> bool:
    """True iff sparse and every vertex is an endpoint of a backward arc."""
    if not is_sparse(T):
        return False
    # matching endpoints are distinct, so coverage is just a count
    return 2 * len(T.backward) == T.n


def concatenate(T1: LinearTournament, T2: LinearTournament) -> LinearTournament:
    """Place T2 after T1 with all connecting arcs forward.

    No directed cycle of the result crosses between the halves, so
    packings of the parts combine without interaction.
    """
    shifted = {(t + T1.n, h + T1.n) for (t, h) in T2.backward}
    return LinearTournament(T1.n + T2.n, T1.backward | shifted)


def induced_subtournament(
    T: LinearTournament, X: Iterable[int]
) -> tuple[LinearTournament, tuple[int, ...]]:
    """Subtournament on X with positions renumbered in order.

    Returns the subtournament and the index map, where entry i of the
    map is the original position of new position i.
    """
    order = sorted(set(X))
    for v in order:
        if not (0 <= v < T.n):
            raise ValueError(f"vertex {v} out of range for n={T.n}")
    pos = {v: i for i, v in enumerate(order)}
    sub = {
        (pos[t], pos[h]) for (t, h) in T.backward if t in pos and h in pos
    }
    return LinearTournament(len(order), frozenset(sub)), tuple(order)

