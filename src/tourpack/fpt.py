"""Randomized fixed-parameter decision for triangle packing.

Colors the arcs with 3k colors and searches for k triangles that are
colorful (three distinct colors) with pairwise disjoint color sets.
Disjoint color sets force disjoint arcs, so any colorful family found is
a genuine packing; a fixed k-packing survives a uniform coloring with
probability at least e^(-3k), which sets the trial count.  Answers are
one-sided: yes always comes with a validated witness, no is wrong with
probability at most delta.
"""

from __future__ import annotations

import math
import random
import time
from typing import Mapping, TypeVar

from .core import (
    LinearTournament,
    Triangle,
    enumerate_triangles,
    validate_triangle_packing,
)
from .oracle import DEFAULT_BUDGET, BudgetExceeded, OracleBudget

M = TypeVar("M")


def _disjoint_cover(
    by_mask: Mapping[int, M], full: int, deadline: float = math.inf
) -> list[M] | None:
    """Members whose color masks partition ``full``, or None if none do.

    Dynamic programming over the reachable color sets only, layer by
    layer from the empty set; past ``deadline``, a ``time.monotonic``
    reading, it raises :class:`BudgetExceeded`.  The cover walks back
    from ``full``, taking the numerically first mask at each level.
    """
    masks = sorted(by_mask)
    reachable, layer = {0}, {0}
    while layer:
        grown = set()
        for state in layer:
            if time.monotonic() > deadline:
                raise BudgetExceeded("time limit exhausted in the color-set DP")
            grown.update(state | m for m in masks if state & m == 0)
        layer = grown - reachable
        reachable |= layer
    if full not in reachable:
        return None
    cover = []
    state = full
    while state:
        for m in masks:
            if state & m == m and state ^ m in reachable:
                cover.append(by_mask[m])
                state ^= m
                break
        else:
            raise RuntimeError("reachable state with no mask split")
    return cover


def trial_count(k: int, delta: float) -> int:
    """Trials driving the per-packing miss probability below delta."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return math.ceil(math.exp(3 * k) * math.log(1 / delta))


def decide(
    T: LinearTournament,
    k: int,
    delta: float = 0.001,
    seed: int = 0,
    *,
    budget: OracleBudget | None = None,
) -> tuple[bool, list[Triangle] | None]:
    """Monte Carlo decision: does T pack k arc-disjoint triangles?

    True answers carry a witness that is validated before being
    returned, so they are never wrong.  False answers are wrong with
    probability at most delta.  All randomness comes from the given seed
    through Python's Mersenne Twister, so runs are reproducible across
    platforms.  Of the budget only ``time_limit`` applies: the trials
    stop with :class:`BudgetExceeded` once it has passed.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    triangles = enumerate_triangles(T)
    if len(triangles) < k:
        return False, None
    arcs = list(T.arcs())
    arc_pos = {arc: i for i, arc in enumerate(arcs)}
    tri_arcs = [
        tuple(arc_pos[arc] for arc in tri.arcs()) for tri in triangles
    ]
    num_colors = 3 * k
    full = (1 << num_colors) - 1
    rng = random.Random(seed)
    deadline = time.monotonic() + (budget or DEFAULT_BUDGET).time_limit

    for _ in range(trial_count(k, delta)):
        if time.monotonic() > deadline:
            raise BudgetExceeded("time limit exhausted in FPT trials")
        palette = [rng.randrange(num_colors) for _ in arcs]
        by_mask: dict[int, int] = {}
        for ti, (i, j, l) in enumerate(tri_arcs):
            a, b, c = palette[i], palette[j], palette[l]
            if a != b and b != c and a != c:
                mask = 1 << a | 1 << b | 1 << c
                if mask not in by_mask:
                    by_mask[mask] = ti
        if len(by_mask) < k:
            continue
        cover = _disjoint_cover(by_mask, full, deadline)
        if cover is not None:
            witness = sorted(triangles[ti] for ti in cover)
            if not validate_triangle_packing(T, witness) or len(witness) != k:
                raise RuntimeError("colorful witness failed validation")
            return True, witness
    return False, None
