import itertools

import pytest

from helpers import local_out_degree
from tourpack.core import (
    Cycle,
    LinearTournament,
    Triangle,
    check_cycle_packing,
    check_triangle_packing,
    concatenate,
    enumerate_triangles,
    from_backward_arcs,
    induced_subtournament,
    is_fully_sparse,
    is_sparse,
    packing_arcs,
    validate_cycle_packing,
    validate_triangle_packing,
)


def T(n, *backward):
    return LinearTournament(n, frozenset(backward))


def out_neighbors(t, u):
    return [v for v in range(t.n) if v != u and t.has_arc(u, v)]


def test_backward_arc_validation():
    with pytest.raises(ValueError):
        LinearTournament(3, frozenset({(0, 2)}))  # head after tail
    with pytest.raises(ValueError):
        LinearTournament(3, frozenset({(3, 0)}))  # tail out of range
    with pytest.raises(ValueError):
        LinearTournament(-1, frozenset())


def test_from_backward_arcs_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        from_backward_arcs(4, [(2, 0), (2, 0)])
    t = from_backward_arcs(4, [(2, 0), (3, 1)])
    assert t.backward == frozenset({(2, 0), (3, 1)})


def test_has_arc_is_total_and_antisymmetric():
    t = T(5, (2, 0), (4, 1), (4, 3))
    for u, v in itertools.combinations(range(5), 2):
        assert t.has_arc(u, v) != t.has_arc(v, u)
    assert t.has_arc(2, 0)
    assert not t.has_arc(0, 2)
    assert t.has_arc(0, 1)  # default direction is forward
    with pytest.raises(ValueError):
        t.has_arc(1, 1)


def test_arcs_covers_every_pair_once():
    t = T(6, (3, 0), (5, 2))
    arcs = list(t.arcs())
    assert len(arcs) == 15
    assert len(set(frozenset(a) for a in arcs)) == 15
    assert (3, 0) in arcs and (0, 3) not in arcs


def test_out_neighbors():
    t = T(4, (3, 1))
    assert out_neighbors(t, 1) == [2]
    assert out_neighbors(t, 3) == [1]
    assert out_neighbors(t, 0) == [1, 2, 3]


def test_triangle_canonical_rotation():
    assert Triangle.of(1, 2, 0) == Triangle(0, 1, 2)
    assert Triangle.of(2, 0, 1) == Triangle(0, 1, 2)
    assert Triangle.of(0, 2, 1) == Triangle(0, 2, 1)
    assert Triangle.of(5, 3, 4).arcs() == ((3, 4), (4, 5), (5, 3))
    with pytest.raises(ValueError):
        Triangle.of(1, 1, 2)


def test_cycle_canonical_rotation():
    c = Cycle.of([4, 2, 7, 3])
    assert c.vertices == (2, 7, 3, 4)
    assert c.arcs() == ((2, 7), (7, 3), (3, 4), (4, 2))
    assert len(c) == 4
    with pytest.raises(ValueError):
        Cycle.of([1, 2])
    with pytest.raises(ValueError):
        Cycle.of([1, 2, 1])


def test_enumerate_triangles_single_backward():
    # one backward arc over the full span makes exactly one triangle
    assert enumerate_triangles(T(3, (2, 0))) == [Triangle(0, 1, 2)]
    assert enumerate_triangles(T(3)) == []


def test_enumerate_triangles_double_backward():
    # chained backward arcs with the long arc forward form the other pattern
    assert enumerate_triangles(T(3, (1, 0), (2, 1))) == [Triangle(0, 2, 1)]
    # all three backward is transitive again (the reversed ordering)
    assert enumerate_triangles(T(3, (1, 0), (2, 0), (2, 1))) == []


def test_enumerate_triangles_against_brute_force():
    # every orientation on 5 vertices, checked against direct 3-cycle tests
    n = 5
    pairs = [(t, h) for h in range(n) for t in range(h + 1, n)]
    for bits in range(1 << len(pairs)):
        back = frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)
        t = LinearTournament(n, back)
        expect = []
        for i, j, k in itertools.combinations(range(n), 3):
            for a, b, c in ((i, j, k), (i, k, j)):
                if t.has_arc(a, b) and t.has_arc(b, c) and t.has_arc(c, a):
                    expect.append(Triangle.of(a, b, c))
        assert enumerate_triangles(t) == sorted(expect), bits


def test_packing_checks():
    t = T(6, (2, 0), (5, 3))
    p = enumerate_triangles(t)
    assert p == [Triangle(0, 1, 2), Triangle(3, 4, 5)]
    assert check_triangle_packing(t, p) is None
    assert validate_triangle_packing(t, p)

    # overlapping members share the arc between 1 and 2
    t2 = T(4, (2, 0), (3, 1))
    err = check_triangle_packing(t2, [Triangle(0, 1, 2), Triangle(1, 2, 3)])
    assert err is not None and "used by both" in err

    # a triangle that is not directed in t
    err = check_triangle_packing(t, [Triangle(0, 1, 3)])
    assert err is not None and "absent" in err

    err = check_triangle_packing(t, [Cycle.of([0, 1, 2])])
    assert err is not None and "not a triangle" in err


def test_cycle_packing_accepts_triangles():
    t = T(4, (3, 0))
    four = Cycle.of([0, 1, 2, 3])
    assert check_cycle_packing(t, [four]) is None
    # the short arc 2 -> 0 does not exist, only the span 3 -> 0 does
    assert validate_cycle_packing(t, [Triangle(0, 1, 2)]) is False
    t2 = T(3, (2, 0))
    assert validate_cycle_packing(t2, [Triangle(0, 1, 2)])


def test_packing_arcs_union():
    arcs = packing_arcs([Triangle(0, 1, 2), Triangle(1, 2, 3)])
    assert arcs == {(0, 1), (1, 2), (2, 0), (2, 3), (3, 1)}


def test_sparse_predicates():
    assert is_sparse(T(4, (2, 0), (3, 1)))
    assert not is_sparse(T(4, (2, 0), (3, 0)))  # shared endpoint 0
    assert not is_sparse(T(4, (2, 0), (3, 2)))
    assert is_sparse(T(4))

    assert is_fully_sparse(T(4, (2, 0), (3, 1)))
    assert not is_fully_sparse(T(4, (2, 0)))
    assert not is_fully_sparse(T(5, (2, 0), (4, 3)))  # vertex 1 uncovered
    assert is_fully_sparse(T(0))


def test_concatenate_shifts_second_half():
    a = T(3, (2, 0))
    b = T(4, (3, 1))
    c = concatenate(a, b)
    assert c.n == 7
    assert c.backward == frozenset({(2, 0), (6, 4)})
    assert c.has_arc(2, 5)  # cross arcs run forward


def test_induced_subtournament():
    t = T(6, (3, 0), (5, 2), (4, 1))
    sub, idx = induced_subtournament(t, [0, 3, 5, 2])
    assert idx == (0, 2, 3, 5)
    assert sub.n == 4
    # (3,0) -> (2,0); (5,2) -> (3,1); (4,1) dropped
    assert sub.backward == frozenset({(2, 0), (3, 1)})
    with pytest.raises(ValueError):
        induced_subtournament(t, [0, 9])


def test_local_out_degree():
    t = T(3, (2, 0))
    X = [0, 1, 2]
    assert local_out_degree(t, X, [], 0) == 1
    assert local_out_degree(t, X, [], 2) == 1
    assert local_out_degree(t, X, [Triangle(0, 1, 2)], 0) == 0
    with pytest.raises(ValueError):
        local_out_degree(t, [0, 1], [], 2)
