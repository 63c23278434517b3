import itertools

import pytest

from helpers import triple_triangles
from tourpack.core import (
    LinearTournament,
    packing_arcs,
    validate_triangle_packing,
)
from tourpack.steiner import (
    blow_up,
    orient_clique,
    steiner_triple_system,
    tripartite_perfect_packing,
)


def assert_covers_pairs_once(system):
    seen = set()
    for a, b, c in system.triples:
        assert 0 <= a < b < c < system.n
        for pair in ((a, b), (a, c), (b, c)):
            assert pair not in seen, f"pair {pair} covered twice"
            seen.add(pair)
    assert len(seen) == system.n * (system.n - 1) // 2


@pytest.mark.parametrize("n", [1, 3, 7, 9, 13, 15, 19, 21, 25, 27])
def test_triple_system_covers_every_pair_once(n):
    system = steiner_triple_system(n)
    assert system.n == n
    assert len(system.triples) == n * (n - 1) // 6
    assert_covers_pairs_once(system)


@pytest.mark.parametrize("n", [0, 2, 4, 5, 6, 8, 11, 12])
def test_triple_system_rejects_impossible_orders(n):
    with pytest.raises(ValueError):
        steiner_triple_system(n)


def test_smallest_nontrivial_systems():
    assert steiner_triple_system(3).triples == ((0, 1, 2),)
    fano = steiner_triple_system(7)
    assert len(fano.triples) == 7
    # every point lies on exactly 3 triples
    for p in range(7):
        assert sum(p in tr for tr in fano.triples) == 3


@pytest.mark.parametrize("n", [3, 7, 9, 13, 15])
def test_orient_clique_carries_perfect_packing(n):
    system = steiner_triple_system(n)
    t = orient_clique(system)
    packing = triple_triangles(system)
    assert validate_triangle_packing(t, packing)
    # perfect: the packing uses every arc of the tournament
    assert len(packing_arcs(packing)) == n * (n - 1) // 2


def test_orient_clique_backward_arcs_are_extremes():
    system = steiner_triple_system(7)
    t = orient_clique(system)
    assert t.backward == frozenset((c, a) for a, _, c in system.triples)


def test_blow_up_structure():
    base = LinearTournament(3, frozenset({(2, 0)}))
    big = blow_up(base, 2)
    assert big.n == 6
    # block {4,5} beats block {0,1} entrywise, blocks are internally forward
    assert big.backward == frozenset({(4, 0), (4, 1), (5, 0), (5, 1)})
    assert big.has_arc(0, 1) and big.has_arc(2, 3) and big.has_arc(4, 5)
    assert big.has_arc(0, 2) and big.has_arc(3, 5)
    with pytest.raises(ValueError):
        blow_up(base, 0)


def test_blow_up_of_clique_orientation_six():
    # one triple blown into blocks of six: the layered instance used by
    # the variable part of the hardness construction
    t = blow_up(orient_clique(steiner_triple_system(3)), 6)
    assert t.n == 18
    assert len(t.backward) == 36
    blocks = [list(range(0, 6)), list(range(6, 12)), list(range(12, 18))]
    packing = tripartite_perfect_packing(t, *blocks)
    assert len(packing) == 36
    assert validate_triangle_packing(t, packing)
    arcs = packing_arcs(packing)
    assert len(arcs) == 108
    # exactly the cross arcs: nothing inside a block is touched
    for u, v in arcs:
        assert u // 6 != v // 6


def test_tripartite_perfect_packing_size_three_blocks():
    t = blow_up(orient_clique(steiner_triple_system(3)), 3)
    blocks = [list(range(0, 3)), list(range(3, 6)), list(range(6, 9))]
    packing = tripartite_perfect_packing(t, *blocks)
    assert len(packing) == 9
    assert validate_triangle_packing(t, packing)
    assert len(packing_arcs(packing)) == 27


def test_tripartite_perfect_packing_rejects_bad_blocks():
    t = blow_up(orient_clique(steiner_triple_system(3)), 2)
    with pytest.raises(ValueError, match="equal size"):
        tripartite_perfect_packing(t, [0, 1], [2, 3], [4])
    # blocks in the wrong cyclic order miss the closing arcs
    with pytest.raises(ValueError, match="missing"):
        tripartite_perfect_packing(t, [2, 3], [0, 1], [4, 5])


def test_blow_up_triangles_span_three_blocks():
    # intra-block arcs all point forward, so no triangle can use two
    # vertices of one block; the block triple must itself be a triangle
    # of the base tournament
    system = steiner_triple_system(7)
    base = orient_clique(system)
    t = blow_up(base, 2)
    for a, b, c in itertools.combinations(range(t.n), 3):
        for x, y, z in ((a, b, c), (a, c, b)):
            if t.has_arc(x, y) and t.has_arc(y, z) and t.has_arc(z, x):
                bx, by, bz = x // 2, y // 2, z // 2
                assert len({bx, by, bz}) == 3
                assert base.has_arc(bx, by)
                assert base.has_arc(by, bz)
                assert base.has_arc(bz, bx)
