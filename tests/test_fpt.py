import random
import time

import pytest

from tourpack.core import (
    LinearTournament,
    Triangle,
    enumerate_triangles,
    validate_triangle_packing,
)
from tourpack.fpt import _disjoint_cover, decide, trial_count
from tourpack.generators import random_tournament
from tourpack.oracle import BudgetExceeded, OracleBudget, exact_max_triangle_packing


def T(n, *backward):
    return LinearTournament(n, frozenset(backward))


def random_arc_coloring(t, num_colors, rng):
    """Uniform colors 1..num_colors for every arc of t."""
    if num_colors < 1:
        raise ValueError(f"need at least one color, got {num_colors}")
    return {arc: rng.randint(1, num_colors) for arc in t.arcs()}


def colorful_triangle_index(t, colors):
    """Triangles with three distinct arc colors, keyed by sorted color triple."""
    index = {}
    for tri in enumerate_triangles(t):
        a, b, c = (colors[arc] for arc in tri.arcs())
        if a != b and b != c and a != c:
            index.setdefault(tuple(sorted((a, b, c))), []).append(tri)
    return index


def dp_colorful_packing(t, colors, k):
    """Exact search for k color-disjoint colorful triangles.

    The 3k colors are covered by disjoint color triples exactly when the
    colored instance carries a k-packing; each triple stands for its
    first colorful triangle.  This runs the DP that ``decide`` runs in
    each trial, on a coloring the test fixes.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    num_colors = 3 * k
    by_mask = {}
    for triple, tris in sorted(colorful_triangle_index(t, colors).items()):
        if any(c > num_colors for c in triple):
            raise ValueError(f"color triple {triple} outside 1..{num_colors}")
        mask = 0
        for c in triple:
            mask |= 1 << (c - 1)
        by_mask.setdefault(mask, tris[0])
    cover = _disjoint_cover(by_mask, (1 << num_colors) - 1)
    if cover is None:
        return False, None
    return True, sorted(cover)


def test_random_arc_coloring_total_and_seeded():
    t = T(5, (3, 0), (4, 2))
    rng = random.Random(99)
    coloring = random_arc_coloring(t, 6, rng)
    assert set(coloring) == set(t.arcs())
    assert all(1 <= c <= 6 for c in coloring.values())
    again = random_arc_coloring(t, 6, random.Random(99))
    assert again == coloring
    with pytest.raises(ValueError):
        random_arc_coloring(t, 0, rng)


def test_colorful_triangle_index_filters_repeats():
    t = T(4, (2, 0), (3, 1))
    coloring = {
        (0, 1): 1,
        (1, 2): 2,
        (2, 0): 3,
        (0, 3): 6,
        (2, 3): 2,
        (3, 1): 5,
    }
    index = colorful_triangle_index(t, coloring)
    # (1,2,3) repeats color 2 on two of its arcs and drops out
    assert index == {(1, 2, 3): [Triangle(0, 1, 2)]}


def test_dp_colorful_packing_single():
    t = T(4, (2, 0), (3, 1))
    coloring = {
        (0, 1): 1,
        (1, 2): 2,
        (2, 0): 3,
        (0, 3): 1,
        (2, 3): 2,
        (3, 1): 1,
    }
    found, witness = dp_colorful_packing(t, coloring, 1)
    assert found and witness == [Triangle(0, 1, 2)]
    with pytest.raises(ValueError):
        dp_colorful_packing(t, coloring, 0)


def test_dp_colorful_packing_rejects_out_of_range_colors():
    t = T(3, (2, 0))
    coloring = {(0, 1): 1, (1, 2): 2, (2, 0): 7}
    with pytest.raises(ValueError, match="outside"):
        dp_colorful_packing(t, coloring, 1)


def base_coloring(t, value=1):
    return {arc: value for arc in t.arcs()}


def test_dp_colorful_packing_pair():
    t = T(6, (2, 0), (5, 3))
    coloring = base_coloring(t)
    coloring.update(
        {(0, 1): 1, (1, 2): 2, (2, 0): 3, (3, 4): 4, (4, 5): 5, (5, 3): 6}
    )
    found, witness = dp_colorful_packing(t, coloring, 2)
    assert found
    assert witness == [Triangle(0, 1, 2), Triangle(3, 4, 5)]

    # colliding colors inside one triangle kill the only second choice
    coloring[(4, 5)] = 6
    found, witness = dp_colorful_packing(t, coloring, 2)
    assert not found and witness is None


def test_trial_count_frozen():
    assert trial_count(1, 0.5) == 14
    assert trial_count(2, 0.001) == 2787
    assert trial_count(1, 0.001) > trial_count(1, 0.01)
    with pytest.raises(ValueError):
        trial_count(1, 0.0)
    with pytest.raises(ValueError):
        trial_count(1, 1.0)


def test_decide_small_yes():
    answer, witness = decide(T(3, (2, 0)), 1)
    assert answer and witness == [Triangle(0, 1, 2)]

    t = T(6, (2, 0), (5, 3))
    answer, witness = decide(t, 2)
    assert answer
    assert len(witness) == 2
    assert validate_triangle_packing(t, witness)


def test_decide_certain_no():
    assert decide(T(3), 1) == (False, None)
    # only one triangle exists, so two can never be packed
    assert decide(T(3, (2, 0)), 2) == (False, None)


def test_decide_no_by_search():
    # two triangles exist but they share an arc
    t = T(4, (2, 0), (3, 1))
    assert decide(t, 2, delta=0.01) == (False, None)


def test_decide_deterministic_per_seed():
    t = T(6, (2, 0), (5, 3))
    assert decide(t, 2, seed=5) == decide(t, 2, seed=5)


def test_decide_rejects_bad_k():
    with pytest.raises(ValueError):
        decide(T(3, (2, 0)), 0)


def test_decide_sound_against_oracle():
    rng = random.Random(31)
    for _ in range(25):
        t = random_tournament(rng.randint(3, 8), rng)
        k = rng.randint(1, 2)
        truth = exact_max_triangle_packing(t)[0] >= k
        answer, witness = decide(t, k, delta=0.05)
        if answer:
            assert truth
            assert len(witness) == k
            assert validate_triangle_packing(t, witness)
        # a false answer on a yes-instance is possible but must be rare;
        # the acceptance suite measures the rate, here we only require
        # that certain-no inputs never flip to yes
        if not truth:
            assert not answer


def test_decide_color_set_dp_stays_within_time_limit():
    # k=15 means 45 colors: a table over every color set would need 32 TiB,
    # so the DP must visit reachable sets only and stop at the deadline
    start = time.monotonic()
    with pytest.raises(BudgetExceeded):
        decide(random_tournament(16, 1), 15, budget=OracleBudget(time_limit=0.5))
    assert time.monotonic() - start < 5
