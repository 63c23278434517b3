"""Reference solver checks, including brute-force cross-validation.

The small frozen answers here were derived independently by hand or by
the exhaustive routines in this file before being pinned.
"""

import itertools
import random

import pytest

from tourpack.core import (
    Cycle,
    LinearTournament,
    Triangle,
    check_cycle_packing,
    check_triangle_packing,
    enumerate_triangles,
    validate_cycle_packing,
    validate_triangle_packing,
)
from tourpack.generators import random_tournament
from tourpack.oracle import (
    BudgetExceeded,
    OracleBudget,
    enumerate_simple_cycles,
    exact_max_cycle_packing,
    exact_max_triangle_packing,
    exact_min_fas,
)


def T(n, *backward):
    return LinearTournament(n, frozenset(backward))


def all_tournaments(n):
    pairs = [(t, h) for h in range(n) for t in range(h + 1, n)]
    for bits in range(1 << len(pairs)):
        yield LinearTournament(
            n, frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)
        )


def brute_max_triangle_packing(t):
    tris = enumerate_triangles(t)
    best = 0
    for r in range(len(tris), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(tris, r):
            arcs = set()
            ok = True
            for tri in combo:
                for arc in tri.arcs():
                    if arc in arcs:
                        ok = False
                        break
                    arcs.add(arc)
                if not ok:
                    break
            if ok:
                best = r
                break
    return best


def is_acyclic_after_removal(t, removed):
    # Kahn's algorithm on the remaining arcs
    indeg = [0] * t.n
    succ = [[] for _ in range(t.n)]
    for u, v in t.arcs():
        if (u, v) in removed:
            continue
        succ[u].append(v)
        indeg[v] += 1
    queue = [v for v in range(t.n) if indeg[v] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return seen == t.n


def brute_min_fas(t):
    arcs = list(t.arcs())
    for r in range(len(arcs) + 1):
        for combo in itertools.combinations(arcs, r):
            if is_acyclic_after_removal(t, set(combo)):
                return r
    raise AssertionError("unreachable")


def test_triangle_packing_frozen_values():
    assert exact_max_triangle_packing(T(3, (2, 0))) == (1, [Triangle(0, 1, 2)])
    assert exact_max_triangle_packing(T(3)) == (0, [])
    # the two triangles share the arc between 1 and 2, so only one fits
    assert exact_max_triangle_packing(T(4, (2, 0), (3, 1)))[0] == 1
    assert exact_max_triangle_packing(T(6, (2, 0), (5, 3)))[0] == 2
    size, packing = exact_max_triangle_packing(T(6, (3, 0), (4, 1), (5, 2)))
    assert size == 3
    assert validate_triangle_packing(T(6, (3, 0), (4, 1), (5, 2)), packing)


def test_triangle_packing_matches_brute_force_n4():
    for t in all_tournaments(4):
        size, packing = exact_max_triangle_packing(t)
        assert validate_triangle_packing(t, packing)
        assert len(packing) == size
        assert size == brute_max_triangle_packing(t), t


def test_triangle_packing_matches_brute_force_n5_sample():
    import random

    rng = random.Random(7)
    ts = list(all_tournaments(5))
    for t in rng.sample(ts, 80):
        size, packing = exact_max_triangle_packing(t)
        assert validate_triangle_packing(t, packing)
        assert size == brute_max_triangle_packing(t), t


def test_triangle_packing_deterministic():
    t = T(7, (3, 0), (5, 1), (6, 2), (4, 2))
    first = exact_max_triangle_packing(t)
    second = exact_max_triangle_packing(t)
    assert first == second


def test_cycle_enumeration():
    cycles = enumerate_simple_cycles(T(3, (2, 0)))
    assert cycles == [Cycle.of([0, 1, 2])]
    assert enumerate_simple_cycles(T(4)) == []
    # all cycles through the single span plus the chained pair
    cycles = enumerate_simple_cycles(T(4, (3, 0)))
    assert sorted(c.vertices for c in cycles) == [
        (0, 1, 2, 3),
        (0, 1, 3),
        (0, 2, 3),
    ]
    with pytest.raises(BudgetExceeded):
        enumerate_simple_cycles(T(6, (5, 0), (4, 0), (3, 0)), limit=2)


def test_cycle_packing_frozen_values():
    assert exact_max_cycle_packing(T(3, (2, 0))) == (1, [Cycle.of([0, 1, 2])])
    # every cycle crosses the one backward arc
    size, packing = exact_max_cycle_packing(T(4, (3, 0)))
    assert size == 1
    size, packing = exact_max_cycle_packing(T(6, (3, 0), (4, 1), (5, 2)))
    assert size == 3
    assert validate_cycle_packing(T(6, (3, 0), (4, 1), (5, 2)), packing)


def test_cycle_packing_at_least_triangle_packing():
    import random

    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(3, 6)
        pairs = [(t, h) for h in range(n) for t in range(h + 1, n)]
        back = frozenset(p for p in pairs if rng.random() < 0.5)
        t = LinearTournament(n, back)
        tri_size, _ = exact_max_triangle_packing(t)
        cyc_size, cyc = exact_max_cycle_packing(t)
        assert cyc_size >= tri_size
        assert validate_cycle_packing(t, cyc)


def test_min_fas_frozen_values():
    assert exact_min_fas(T(3)) == (0, frozenset())
    count, fas = exact_min_fas(T(3, (2, 0)))
    assert count == 1
    # two disjoint spans admit a reordering with a single backward arc:
    # placing 2 0 3 1 leaves only the middle arc 1 -> 2 reversed
    count, fas = exact_min_fas(T(4, (2, 0), (3, 1)))
    assert count == 1
    assert is_acyclic_after_removal(T(4, (2, 0), (3, 1)), fas)


def test_min_fas_matches_brute_force_n4():
    for t in all_tournaments(4):
        count, fas = exact_min_fas(t)
        assert is_acyclic_after_removal(t, fas)
        assert len(fas) == count
        assert count == brute_min_fas(t), t


def test_min_fas_weak_duality_with_cycle_packing():
    import random

    rng = random.Random(13)
    ts = list(all_tournaments(5))
    for t in rng.sample(ts, 40):
        fas_count, _ = exact_min_fas(t)
        cyc_count, _ = exact_max_cycle_packing(t)
        assert cyc_count <= fas_count


def test_budget_refusals():
    big = T(13)
    with pytest.raises(BudgetExceeded):
        exact_max_triangle_packing(big)
    with pytest.raises(BudgetExceeded):
        exact_max_cycle_packing(big)
    with pytest.raises(BudgetExceeded):
        exact_min_fas(big)
    tight = OracleBudget(max_vertices=12, max_cycles=1, time_limit=60.0)
    with pytest.raises(BudgetExceeded):
        exact_max_cycle_packing(T(4, (3, 0)), tight)


def test_perfect_packing_on_rotational_seven():
    # quadratic-residue orientation on 7 vertices packs all 21 arcs
    back = frozenset(
        (t, h) for h in range(7) for t in range(h + 1, 7) if (t - h) in (3, 5, 6)
    )
    t = LinearTournament(7, back)
    size, packing = exact_max_triangle_packing(t)
    assert size == 7
    assert validate_triangle_packing(t, packing)


def test_triangle_search_reaches_n12():
    t = random_tournament(12, 3)
    size, packing = exact_max_triangle_packing(t, OracleBudget(time_limit=5.0))
    assert size == 11 == len(packing)
    assert check_triangle_packing(t, packing) is None


def test_cycle_search_reaches_n9():
    t = random_tournament(9, 5)
    size, packing = exact_max_cycle_packing(t, OracleBudget(time_limit=5.0))
    assert size == 8 == len(packing)
    assert check_cycle_packing(t, packing) is None


def test_triangle_cycle_fas_chain():
    # nu_triangle <= nu_cycle <= tau: a triangle is a cycle, and a
    # feedback arc set meets every cycle of a packing in its own arc
    for n in range(3, 9):
        for seed in range(3):
            t = random_tournament(n, 100 * n + seed)
            tri_size, _ = exact_max_triangle_packing(t)
            cyc_size, _ = exact_max_cycle_packing(t)
            fas_size, _ = exact_min_fas(t)
            assert tri_size <= cyc_size <= fas_size, (n, seed)


def networkx_cycles(t):
    nx = pytest.importorskip("networkx")
    g = nx.DiGraph()
    g.add_nodes_from(range(t.n))
    g.add_edges_from(t.arcs())
    return nx.simple_cycles(g)


def test_cycle_enumeration_matches_networkx():
    rng = random.Random(17)
    for _ in range(30):
        t = random_tournament(rng.randint(3, 7), rng)
        ours = enumerate_simple_cycles(t)
        assert len(set(ours)) == len(ours)
        assert set(ours) == {Cycle.of(c) for c in networkx_cycles(t)}


def plain_max_packing(members):
    """Largest arc-disjoint subfamily by include/exclude, with no bound."""
    arcs = [frozenset(m.arcs()) for m in members]

    def rec(i, used):
        if i == len(members):
            return 0
        best = rec(i + 1, used)
        if not arcs[i] & used:
            best = max(best, 1 + rec(i + 1, used | arcs[i]))
        return best

    return rec(0, frozenset())


def test_cycle_packing_matches_plain_search_over_networkx_cycles():
    rng = random.Random(19)
    for _ in range(60):
        t = random_tournament(rng.randint(3, 6), rng)
        size, packing = exact_max_cycle_packing(t)
        assert check_cycle_packing(t, packing) is None
        assert size == plain_max_packing([Cycle.of(c) for c in networkx_cycles(t)])
