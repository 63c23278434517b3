"""Helpers that more than one test module needs and no solver calls."""

from tourpack.core import LinearTournament, Triangle, packing_arcs
from tourpack.steiner import TripleSystem


def local_out_degree(T: LinearTournament, X, packing, x: int) -> int:
    """Number of arcs from x into X that no packing member uses."""
    xs = set(X)
    if x not in xs:
        raise ValueError(f"vertex {x} not in X")
    used = packing_arcs(packing)
    return sum(
        1 for a in xs if a != x and T.has_arc(x, a) and (x, a) not in used
    )


def triple_triangles(system: TripleSystem) -> list[Triangle]:
    """The perfect packing carried by orient_clique's tournament."""
    return [Triangle(a, b, c) for a, b, c in system.triples]
