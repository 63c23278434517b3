import random

import pytest

from tourpack.core import (
    LinearTournament,
    Triangle,
    enumerate_triangles,
    packing_arcs,
    validate_triangle_packing,
)
from tourpack.generators import clique_sts_tournament, random_tournament
from tourpack.kernel import (
    build_conflict_bipartite,
    greedy_maximal_packing,
    kernelize,
    maximum_bipartite_matching,
)
from tourpack.oracle import exact_max_triangle_packing


def T(n, *backward):
    return LinearTournament(n, frozenset(backward))


def check_maximality_structure(t, X):
    """Audit that no triangle uses two vertices outside V_X.

    Such a triangle would be arc-disjoint from X, contradicting
    maximality; this also certifies that t restricted to the outside
    vertices is acyclic.
    """
    packed = {v for tri in X for v in tri.vertices()}
    for tri in enumerate_triangles(t):
        outside = sum(1 for v in tri.vertices() if v not in packed)
        if outside >= 2:
            return f"{tri} has {outside} vertices outside the packing"
    return None


# greedy stalls at one triangle here, yet two disjoint triangles exist:
# (1,2,3) and (0,4,2) both overlap the greedy pick (0,1,2) but not each
# other, so only the arc-to-outside matching can see the yes-answer
STUBBORN = T(5, (2, 0), (3, 1), (4, 1), (4, 2), (4, 3))


def test_greedy_small_frozen():
    assert greedy_maximal_packing(T(3, (2, 0))) == [Triangle(0, 1, 2)]
    assert greedy_maximal_packing(T(4, (2, 0), (3, 1))) == [Triangle(0, 1, 2)]
    assert greedy_maximal_packing(T(4)) == []


def test_greedy_is_maximal():
    rng = random.Random(3)
    for _ in range(40):
        t = random_tournament(rng.randint(3, 9), rng)
        packing = greedy_maximal_packing(t)
        assert validate_triangle_packing(t, packing)
        used = packing_arcs(packing)
        for tri in enumerate_triangles(t):
            assert any(arc in used for arc in tri.arcs())
        assert check_maximality_structure(t, packing) is None


def test_maximality_audit_flags_non_maximal():
    msg = check_maximality_structure(T(3, (2, 0)), [])
    assert msg is not None and "outside" in msg


def test_conflict_bipartite_structure():
    t = T(4, (2, 0), (3, 1))
    X = [Triangle(0, 1, 2)]
    bip = build_conflict_bipartite(t, X)
    assert bip.right == (3,)
    assert set(bip.left) == {(0, 1), (1, 2), (2, 0)}
    assert bip.edges == {(1, 2): (3,)}


def test_maximum_bipartite_matching_augments():
    # b forces a to release 1 and take 2
    matching = maximum_bipartite_matching({"a": [1, 2], "b": [1]})
    assert matching == {"a": 2, "b": 1}
    assert maximum_bipartite_matching({}) == {}
    matching = maximum_bipartite_matching({"a": [1], "b": [1]})
    assert matching == {"a": 1}


def test_kernelize_rejects_bad_k():
    with pytest.raises(ValueError):
        kernelize(T(3, (2, 0)), 0)


def test_kernelize_greedy_early_yes():
    t = clique_sts_tournament(7)
    result = kernelize(t, 3)
    assert result.outcome == "early-yes"
    assert len(result.witness) >= 3
    assert validate_triangle_packing(t, result.witness)


def test_kernelize_matching_early_yes():
    assert greedy_maximal_packing(STUBBORN) == [Triangle(0, 1, 2)]
    result = kernelize(STUBBORN, 2)
    assert result.outcome == "early-yes"
    assert set(result.witness) == {Triangle(1, 2, 3), Triangle(0, 4, 2)}
    assert validate_triangle_packing(STUBBORN, result.witness)
    # the oracle agrees the answer is yes
    assert exact_max_triangle_packing(STUBBORN)[0] == 2


def test_kernelize_shrinks_no_instance():
    t = T(6, (2, 0))
    result = kernelize(t, 2)
    assert result.outcome == "kernel"
    assert result.kernel == T(3, (2, 0))
    assert result.index_map == (0, 1, 2)
    # the kernel preserves the negative answer
    assert exact_max_triangle_packing(result.kernel)[0] < 2
    assert exact_max_triangle_packing(t)[0] < 2


def test_kernel_size_bound_and_equivalence():
    rng = random.Random(17)
    for trial in range(80):
        n = rng.randint(3, 9)
        t = random_tournament(n, rng)
        k = rng.randint(1, 3)
        truth = exact_max_triangle_packing(t)[0] >= k
        result = kernelize(t, k)
        if result.outcome == "early-yes":
            answer = True
            assert len(result.witness) >= k
            assert validate_triangle_packing(t, result.witness)
        else:
            kern = result.kernel
            assert kern.n <= 4 * k - 4
            answer = exact_max_triangle_packing(kern)[0] >= k
            # lifting any kernel packing must stay valid in the host
            size, packing = exact_max_triangle_packing(kern)
            lifted = [
                Triangle.of(*(result.index_map[v] for v in tri.vertices()))
                for tri in packing
            ]
            assert validate_triangle_packing(t, lifted)
        assert answer == truth, (trial, t, k)
