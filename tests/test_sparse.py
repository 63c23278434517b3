import random

import pytest

from tourpack.core import (
    LinearTournament,
    Triangle,
    validate_cycle_packing,
    validate_triangle_packing,
)
from tourpack.generators import (
    random_fully_sparse_tournament,
    random_sparse_tournament,
)
from tourpack.oracle import exact_max_cycle_packing, exact_max_triangle_packing
from tourpack import sparse
from tourpack.sparse import (
    DIGONED_TREE,
    HAS_LONG_CYCLE,
    ISOLATED_VERTEX,
    ConflictDigraph,
    build_conflict_digraph,
    classify_components,
    decompose,
    max_cycle_packing_sparse,
    max_triangle_packing_sparse,
    normalize_representation,
    pi_map,
    solve_pi_prime,
)


def T(n, *backward):
    return LinearTournament(n, frozenset(backward))


def digraph(n, *arcs):
    return ConflictDigraph(n, frozenset(arcs))


def _triangle_if(t, a, b, c):
    if t.has_arc(a, b) and t.has_arc(b, c) and t.has_arc(c, a):
        return Triangle.of(a, b, c)
    return None


def reference_conflict_arcs(t):
    """Conflict arcs by probing both witness shapes for every ordered pair.

    Maps each arc to its witness, the head shape preferred.
    """
    ordered = sorted(t.backward, key=lambda arc: arc[1])
    arcs = {}
    for i, (ti, hi) in enumerate(ordered):
        for j, (tj, hj) in enumerate(ordered):
            if i == j:
                continue
            head_w = _triangle_if(t, hi, hj, ti)
            tail_w = _triangle_if(t, hi, tj, ti)
            if head_w is not None or tail_w is not None:
                arcs[(i, j)] = head_w if head_w is not None else tail_w
    return arcs


def test_normalize_swaps_consecutive_arcs():
    norm, perm = normalize_representation(T(2, (1, 0)), return_map=True)
    assert norm.backward == frozenset()
    assert perm == (1, 0)

    norm, perm = normalize_representation(T(5, (1, 0), (3, 2)), return_map=True)
    assert norm.backward == frozenset()
    assert perm == (1, 0, 3, 2, 4)

    norm = normalize_representation(T(4, (2, 0)))
    assert norm.backward == frozenset({(2, 0)})


def test_normalize_rejects_non_sparse():
    with pytest.raises(ValueError):
        normalize_representation(T(4, (2, 0), (3, 0)))


def test_normalize_is_an_isomorphism():
    rng = random.Random(5)
    for _ in range(30):
        t = random_sparse_tournament(rng.randint(2, 11), rng.randint(0, 10_000))
        norm, perm = normalize_representation(t, return_map=True)
        for u in range(t.n):
            for v in range(t.n):
                if u != v:
                    assert norm.has_arc(u, v) == t.has_arc(perm[u], perm[v])


def test_decompose_free_vertex_bridges():
    segments, bridging = decompose(T(3, (2, 0)))
    assert segments == []
    assert bridging == [Triangle(0, 1, 2)]

    # an arc spanning two free vertices still yields one triangle only
    segments, bridging = decompose(T(4, (3, 0)))
    assert segments == []
    assert bridging == [Triangle(0, 1, 3)]

    segments, bridging = decompose(T(7, (2, 0), (6, 3)))
    assert segments == []
    assert bridging == [Triangle(0, 1, 2), Triangle(3, 4, 6)]


def test_decompose_keeps_fully_sparse_segment():
    t = T(4, (2, 0), (3, 1))
    segments, bridging = decompose(t)
    assert bridging == []
    assert len(segments) == 1
    sub, index_map = segments[0]
    assert index_map == (0, 1, 2, 3)
    assert sub == t


def test_decompose_mixed():
    # covered prefix, free middle vertex, covered suffix
    t = T(9, (2, 0), (3, 1), (7, 5), (8, 6))
    segments, bridging = decompose(t)
    assert bridging == []
    assert [seg[1] for seg in segments] == [(0, 1, 2, 3), (5, 6, 7, 8)]


def test_decompose_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        decompose(T(2, (1, 0)))
    with pytest.raises(ValueError, match="sparse"):
        decompose(T(4, (2, 0), (3, 0)))


def test_conflict_digraph_digon():
    g = build_conflict_digraph(T(4, (2, 0), (3, 1)))
    assert g.num_vertices == 2
    assert g.backward == ((2, 0), (3, 1))
    assert g.arcs == frozenset({(0, 1), (1, 0)})
    assert pi_map(g, [(0, 1)]) == [Triangle(0, 1, 2)]
    assert pi_map(g, [(1, 0)]) == [Triangle(1, 2, 3)]


def test_conflict_digraph_three_interleaved():
    g = build_conflict_digraph(T(6, (3, 0), (4, 1), (5, 2)))
    assert g.num_vertices == 3
    # every ordered pair conflicts here
    assert set(g.arcs) == {(i, j) for i in range(3) for j in range(3) if i != j}


def test_conflict_digraph_interval_rule_matches_reference():
    rng = random.Random(41)
    for trial in range(200):
        t = random_fully_sparse_tournament(2 * rng.randint(2, 20), rng)
        g = build_conflict_digraph(t)
        ref = reference_conflict_arcs(t)
        assert g.arcs == frozenset(ref), (trial, t)
        for i in range(g.num_vertices):
            assert g.succ[i] == tuple(sorted(j for a, j in ref if a == i))
            assert g.pred[i] == tuple(sorted(a for a, j in ref if j == i))
        for arc, witness in ref.items():
            assert pi_map(g, [arc]) == [witness], (trial, t, arc)


def test_conflict_digraph_input_checks():
    with pytest.raises(ValueError, match="fully sparse"):
        build_conflict_digraph(T(5, (3, 0), (4, 1)))
    with pytest.raises(ValueError, match="normalized"):
        build_conflict_digraph(T(2, (1, 0)))


def test_classify_synthetic_components():
    # a digon pair is a two-vertex digoned tree
    infos = classify_components(digraph(2, (0, 1), (1, 0)))
    assert len(infos) == 1
    assert infos[0].kind == DIGONED_TREE and infos[0].terminal

    # an undirected path of digons stays a tree
    infos = classify_components(digraph(3, (0, 1), (1, 0), (1, 2), (2, 1)))
    assert [i.kind for i in infos] == [DIGONED_TREE]

    # a plain directed 3-cycle has a long cycle
    infos = classify_components(digraph(3, (0, 1), (1, 2), (2, 0)))
    assert [i.kind for i in infos] == [HAS_LONG_CYCLE]

    # all six arcs on three vertices: reciprocated but not a tree
    arcs = [(i, j) for i in range(3) for j in range(3) if i != j]
    infos = classify_components(digraph(3, *arcs))
    assert [i.kind for i in infos] == [HAS_LONG_CYCLE]

    # no arcs at all: isolated and terminal
    infos = classify_components(digraph(1))
    assert infos == [
        type(infos[0])((0,), ISOLATED_VERTEX, True)
    ]


def test_classify_terminality():
    # digon component feeding another digon component one-way
    g = digraph(4, (0, 1), (1, 0), (2, 3), (3, 2), (0, 2))
    infos = classify_components(g)
    assert len(infos) == 2
    by_min = {info.vertices[0]: info for info in infos}
    assert not by_min[0].terminal
    assert by_min[2].terminal


def test_solve_pi_prime_synthetic():
    assert solve_pi_prime(digraph(1)) == []
    assert solve_pi_prime(digraph(2, (0, 1), (1, 0))) == [(1, 0)]
    assert solve_pi_prime(digraph(3, (0, 1), (1, 2), (2, 0))) == [
        (0, 1),
        (1, 2),
        (2, 0),
    ]
    # linked digons: the source pair routes toward the terminal pair
    g = digraph(4, (0, 1), (1, 0), (2, 3), (3, 2), (0, 2))
    X = solve_pi_prime(g)
    assert len(X) == 3  # b - k with one terminal digoned tree
    assert (3, 2) in X and (0, 2) in X and (1, 0) in X


def test_solve_pi_prime_unreachable_vertex():
    # no arcs from vertex 1, vertex 0 terminal-isolated: both contribute to k
    g = digraph(2)
    assert solve_pi_prime(g) == []


def test_pi_map_rejects_unknown_arc():
    g = build_conflict_digraph(T(4, (2, 0), (3, 1)))
    with pytest.raises(ValueError, match="not an arc"):
        pi_map(g, [(0, 0)])


def test_pi_map_rejects_synthetic_digraph():
    with pytest.raises(ValueError):
        pi_map(digraph(2, (0, 1), (1, 0)), [(1, 0)])


def test_triangles_are_made_only_for_chosen_arcs(monkeypatch):
    made = 0

    def counting_triangle(*vertices):
        nonlocal made
        made += 1
        return Triangle(*vertices)

    monkeypatch.setattr(sparse, "Triangle", counting_triangle)
    g = build_conflict_digraph(random_fully_sparse_tournament(400, 3))
    assert made == 0
    X = solve_pi_prime(g)
    assert len(pi_map(g, X)) == len(X) > 0
    assert made == len(X)


def test_pi_map_golden_three_interleaved():
    g = build_conflict_digraph(T(6, (3, 0), (4, 1), (5, 2)))
    X = solve_pi_prime(g)
    assert len(X) == 3
    tris = pi_map(g, X)
    assert tris == [Triangle(0, 1, 3), Triangle(1, 2, 4), Triangle(2, 3, 5)]


def test_sparse_solver_frozen_examples():
    size, packing = max_triangle_packing_sparse(T(3, (2, 0)))
    assert (size, packing) == (1, [Triangle(0, 1, 2)])

    size, packing = max_triangle_packing_sparse(T(4, (2, 0), (3, 1)))
    assert size == 1

    size, packing = max_triangle_packing_sparse(T(6, (3, 0), (4, 1), (5, 2)))
    assert size == 3

    # consecutive backward arc normalizes away to a transitive ordering
    assert max_triangle_packing_sparse(T(2, (1, 0))) == (0, [])
    assert max_triangle_packing_sparse(T(0)) == (0, [])


def test_sparse_solver_rejects_non_sparse():
    with pytest.raises(ValueError):
        max_triangle_packing_sparse(T(4, (2, 0), (3, 0)))


def test_sparse_solver_matches_oracle():
    rng = random.Random(23)
    instances = [
        random_sparse_tournament(rng.randint(2, 10), rng.randint(0, 10**6))
        for _ in range(60)
    ]
    for n in range(4, 13):
        instances += [random_sparse_tournament(n, seed) for seed in range(10)]
    for n in range(4, 13, 2):
        instances += [random_fully_sparse_tournament(n, seed) for seed in range(14)]
    for trial, t in enumerate(instances):
        size, packing = max_triangle_packing_sparse(t)
        assert validate_triangle_packing(t, packing)
        assert len(packing) == size
        oracle_size, _ = exact_max_triangle_packing(t)
        assert size == oracle_size, (trial, t)


def test_sparse_cycle_solver_matches_triangle_optimum():
    rng = random.Random(29)
    instances = [
        random_sparse_tournament(rng.randint(2, 9), rng.randint(0, 10**6))
        for _ in range(20)
    ]
    for n in range(4, 10):
        instances += [random_sparse_tournament(n, seed) for seed in range(5)]
    for n in range(4, 10, 2):
        instances += [random_fully_sparse_tournament(n, seed) for seed in range(5)]
    for t in instances:
        tri_size, _ = max_triangle_packing_sparse(t)
        cyc_size, cycles = max_cycle_packing_sparse(t)
        assert cyc_size == tri_size
        assert validate_cycle_packing(t, cycles)
        oracle_size, _ = exact_max_cycle_packing(t)
        assert cyc_size == oracle_size, t


def test_sparse_solver_probes_arcs_only_in_final_check(monkeypatch):
    t = random_fully_sparse_tournament(1600, 43)
    calls = 0
    has_arc = LinearTournament.has_arc

    def counting_has_arc(self, u, v):
        nonlocal calls
        calls += 1
        return has_arc(self, u, v)

    monkeypatch.setattr(LinearTournament, "has_arc", counting_has_arc)
    size, packing = max_triangle_packing_sparse(t)
    assert size == len(packing) > 0
    assert calls <= 3 * size
