"""Steiner triple systems and the tournament constructions built on them.

A triple system on n points (n = 1 or 3 mod 6) covers every vertex pair
exactly once.  Orienting each triple's clique edge set with one backward
arc per triple yields a tournament whose triple triangles form a perfect
arc-disjoint packing, and blowing up its vertices into blocks produces
the layered tournaments used by the hardness construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import LinearTournament, Triangle


@dataclass(frozen=True)
class TripleSystem:
    """Point set 0..n-1 plus a tuple of sorted triples."""

    n: int
    triples: tuple[tuple[int, int, int], ...]


def _bose(n: int) -> list[tuple[int, int, int]]:
    # n = 6t + 3; points are (i, j) with i in Z_q, q = 2t + 1, j in {0,1,2},
    # laid out as position 3i + j.  The idempotent symmetric quasigroup on
    # Z_q is x * y = (x + y)(t + 1) mod q.
    t = (n - 3) // 6
    q = 2 * t + 1
    half = t + 1

    def point(i: int, j: int) -> int:
        return 3 * i + j

    triples = []
    for i in range(q):
        triples.append((point(i, 0), point(i, 1), point(i, 2)))
    for x in range(q):
        for y in range(x + 1, q):
            z = (x + y) * half % q
            for j in range(3):
                triples.append(
                    tuple(sorted((point(x, j), point(y, j), point(z, (j + 1) % 3))))
                )
    return triples


def _skolem(n: int) -> list[tuple[int, int, int]]:
    # n = 6t + 1; points are (i, j) with i in Z_2t at position 3i + j and
    # one extra point at position n - 1.  Uses the half-idempotent
    # symmetric quasigroup obtained from addition on Z_2t by relabeling
    # even sums 2r -> r and odd sums 2r+1 -> t + r.
    t = (n - 1) // 6
    q = 2 * t
    inf = n - 1

    def point(i: int, j: int) -> int:
        return 3 * i + j

    def relabel(s: int) -> int:
        return s // 2 if s % 2 == 0 else t + s // 2

    triples = []
    for i in range(t):
        triples.append((point(i, 0), point(i, 1), point(i, 2)))
    for i in range(t):
        for j in range(3):
            triples.append(
                tuple(sorted((inf, point(t + i, j), point(i, (j + 1) % 3))))
            )
    for x in range(q):
        for y in range(x + 1, q):
            z = relabel((x + y) % q)
            for j in range(3):
                triples.append(
                    tuple(sorted((point(x, j), point(y, j), point(z, (j + 1) % 3))))
                )
    return triples


def steiner_triple_system(n: int) -> TripleSystem:
    """Deterministic triple system on n points.

    Uses the Bose construction for n = 3 mod 6 and the Skolem
    construction for n = 1 mod 6; any other order is rejected since no
    triple system exists for it.
    """
    if n < 1 or n % 6 not in (1, 3):
        raise ValueError(
            f"no triple system on {n} points: need n = 1 or 3 (mod 6)"
        )
    if n == 1:
        return TripleSystem(1, ())
    triples = _bose(n) if n % 6 == 3 else _skolem(n)
    triples.sort()
    assert len(triples) == n * (n - 1) // 6
    return TripleSystem(n, tuple(triples))


def orient_clique(system: TripleSystem) -> LinearTournament:
    """Tournament whose backward arcs are (max, min) of each triple.

    Each triple {a < b < c} then induces the directed triangle
    a -> b -> c -> a, and those triangles consume every arc exactly
    once, giving a perfect triangle packing of size n(n-1)/6.
    """
    backward = set()
    for a, _, c in system.triples:
        backward.add((c, a))
    if len(backward) != len(system.triples):
        raise ValueError("triple system reuses a (min, max) pair")
    return LinearTournament(system.n, frozenset(backward))


def blow_up(T: LinearTournament, size: int) -> LinearTournament:
    """Replace each vertex by a block of consecutive positions.

    Vertex u becomes positions [u*size, (u+1)*size).  Arcs between
    blocks copy the orientation of the original arc; inside a block all
    arcs are forward.
    """
    if size < 1:
        raise ValueError(f"block size must be positive, got {size}")
    backward = set()
    for t, h in T.backward:
        for a in range(size):
            for b in range(size):
                backward.add((t * size + a, h * size + b))
    return LinearTournament(T.n * size, frozenset(backward))


def tripartite_perfect_packing(
    T: LinearTournament,
    block_a: list[int],
    block_b: list[int],
    block_c: list[int],
) -> list[Triangle]:
    """Perfect packing of the cross arcs between three equal blocks.

    Requires every arc a -> b, b -> c, and c -> a between the blocks to
    be present in T.  Pairing block positions i, j with the third index
    (i + j) mod s covers all 3*s*s cross arcs with s*s triangles.
    """
    s = len(block_a)
    if not (s == len(block_b) == len(block_c)) or s == 0:
        raise ValueError("blocks must be nonempty and of equal size")
    for xs, ys in ((block_a, block_b), (block_b, block_c), (block_c, block_a)):
        for x in xs:
            for y in ys:
                if not T.has_arc(x, y):
                    raise ValueError(
                        f"cross arc ({x}, {y}) missing between blocks"
                    )
    out = []
    for i in range(s):
        for j in range(s):
            out.append(
                Triangle.of(block_a[i], block_b[j], block_c[(i + j) % s])
            )
    return out
