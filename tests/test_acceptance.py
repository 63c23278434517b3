"""Acceptance suite: eight checks covering the package's core claims.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL
line per criterion.  Every check is seeded and deterministic apart from
wall-clock limits, which are generous for commodity hardware.
"""

import itertools
import random
import time

from helpers import triple_triangles
from tourpack.core import (
    LinearTournament,
    enumerate_triangles,
    is_fully_sparse,
    packing_arcs,
    validate_cycle_packing,
    validate_triangle_packing,
)
from tourpack.fpt import decide
from tourpack.generators import (
    random_fully_sparse_tournament,
    random_sparse_tournament,
    random_tournament,
)
from tourpack.kernel import kernelize
from tourpack.oracle import (
    exact_max_cycle_packing,
    exact_max_triangle_packing,
    exact_min_fas,
)
from tourpack.reduction import (
    build_reduction,
    certificate_packing,
    decode_assignment,
    parse_dimacs,
)
from tourpack.sparse import max_cycle_packing_sparse, max_triangle_packing_sparse
from tourpack.steiner import (
    blow_up,
    orient_clique,
    steiner_triple_system,
    tripartite_perfect_packing,
)

TWO_CLAUSE = "p cnf 3 2\n-1 2 -3 0\n1 -2 3 0\n"


def report(number, name, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"criterion {number} ({name}): {verdict} [{detail}]")
    assert passed, f"criterion {number}: {detail}"


def all_tournaments(n):
    pairs = [(t, h) for h in range(n) for t in range(h + 1, n)]
    for bits in range(1 << len(pairs)):
        yield LinearTournament(
            n, frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)
        )


def has_disjoint_triangles(t, k):
    """Ground truth for small k: do k arc-disjoint triangles exist?

    Bounded depth-first search; cheap even on dense instances where
    proving the exact optimum is not.
    """
    tris = enumerate_triangles(t)
    arc_sets = [frozenset(tri.arcs()) for tri in tris]

    def rec(start, used, depth):
        if depth == k:
            return True
        if len(tris) - start < k - depth:
            return False
        for i in range(start, len(tris)):
            if used & arc_sets[i]:
                continue
            if rec(i + 1, used | arc_sets[i], depth + 1):
                return True
        return False

    return rec(0, frozenset(), 0)


def test_criterion_1_reduction_arithmetic():
    start = time.perf_counter()
    R = build_reduction(parse_dimacs(TWO_CLAUSE))
    elapsed = time.perf_counter() - start
    ok = (
        R.tournament.n == 27
        and R.alpha == 15
        and R.threshold == 67
        and len(R.tournament.backward) == 67
        and elapsed < 1.0
    )
    report(
        1,
        "reduction arithmetic",
        ok,
        f"n={R.tournament.n} alpha={R.alpha} threshold={R.threshold} "
        f"backward={len(R.tournament.backward)} time={elapsed:.3f}s limit=1s",
    )


def test_criterion_2_certificates_round_trip():
    start = time.perf_counter()
    F = parse_dimacs(TWO_CLAUSE)
    R = build_reduction(F)
    checked = 0
    ok = True
    for bits in itertools.product([False, True], repeat=3):
        assignment = list(bits)
        if not F.is_satisfied_by(assignment):
            continue
        packing = certificate_packing(R, assignment)
        ok = ok and len(packing) == R.threshold
        ok = ok and validate_triangle_packing(R.tournament, packing)
        ok = ok and decode_assignment(R, packing) == assignment
        checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and checked == 6 and elapsed < 1.0
    report(
        2,
        "certificate round trips",
        ok,
        f"assignments={checked}/6 size=threshold time={elapsed:.3f}s limit=1s",
    )


def test_criterion_3_sparse_solver_vs_oracle():
    start = time.perf_counter()
    rng = random.Random(2024)
    samples = 0
    mismatches = 0
    while samples < 200:
        n = rng.randint(3, 12)
        t = random_sparse_tournament(n, rng)
        size, packing = max_triangle_packing_sparse(t)
        valid = validate_triangle_packing(t, packing) and len(packing) == size
        oracle_size, _ = exact_max_triangle_packing(t)
        if not valid or size != oracle_size:
            mismatches += 1
        samples += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    report(
        3,
        "sparse optimum equals oracle",
        ok,
        f"samples={samples} mismatches={mismatches} time={elapsed:.1f}s limit=60s",
    )


def test_criterion_4_fully_sparse_cycles_need_only_triangles():
    start = time.perf_counter()
    rng = random.Random(777)
    samples = 0
    mismatches = 0
    while samples < 100:
        n = rng.choice([4, 6, 8, 10])
        t = random_fully_sparse_tournament(n, rng)
        assert is_fully_sparse(t)
        tri_size, _ = max_triangle_packing_sparse(t)
        cyc_size, cycles = max_cycle_packing_sparse(t)
        oracle_cycles, _ = exact_max_cycle_packing(t)
        if not (
            tri_size == cyc_size == oracle_cycles
            and validate_cycle_packing(t, cycles)
        ):
            mismatches += 1
        samples += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 120.0
    report(
        4,
        "fully sparse cycle optimum",
        ok,
        f"samples={samples} mismatches={mismatches} time={elapsed:.1f}s limit=120s",
    )


def test_criterion_5_kernel_bound_and_equivalence():
    start = time.perf_counter()
    rng = random.Random(4242)
    samples = 0
    failures = 0
    while samples < 200:
        n = rng.randint(3, 12)
        t = random_tournament(n, rng)
        k = rng.randint(1, 3)
        truth = has_disjoint_triangles(t, k)
        result = kernelize(t, k)
        if result.outcome == "early-yes":
            good = truth and validate_triangle_packing(t, result.witness)
        else:
            kern = result.kernel
            answer = has_disjoint_triangles(kern, k)
            good = kern.n <= 4 * k - 4 and answer == truth
        if not good:
            failures += 1
        samples += 1
    sweep_elapsed = time.perf_counter() - start

    # growth check: the kernelization pipeline on doubling instance sizes
    times = []
    for n in (50, 100, 200):
        t = random_tournament(n, seed=n)
        t0 = time.perf_counter()
        kernelize(t, n * n)  # k too large for an early yes: full pipeline
        times.append(max(time.perf_counter() - t0, 0.005))
    ratios = [times[i + 1] / times[i] for i in range(2)]
    scaling_ok = all(r < 20 for r in ratios)

    ok = failures == 0 and sweep_elapsed < 60.0 and scaling_ok
    report(
        5,
        "kernel bound and equivalence",
        ok,
        f"samples={samples} failures={failures} sweep={sweep_elapsed:.1f}s "
        f"limit=60s doubling-ratios={[f'{r:.1f}' for r in ratios]} limit<20",
    )


def test_criterion_6_fpt_one_sided_error():
    start = time.perf_counter()
    rng = random.Random(999)
    samples = 0
    unsound = 0
    yes_instances = 0
    missed_yes = 0
    while samples < 200:
        n = rng.randint(3, 12)
        t = random_tournament(n, rng)
        k = rng.randint(1, 2)
        truth = has_disjoint_triangles(t, k)
        answer, witness = decide(t, k, delta=0.001, seed=samples)
        if answer:
            if witness is None or len(witness) != k or not validate_triangle_packing(t, witness):
                unsound += 1
            if not truth:
                unsound += 1
        if truth:
            yes_instances += 1
            if not answer:
                missed_yes += 1
        samples += 1
    elapsed = time.perf_counter() - start
    miss_rate = missed_yes / max(yes_instances, 1)
    ok = unsound == 0 and miss_rate <= 0.01 and elapsed < 300.0
    report(
        6,
        "randomized decision one-sided",
        ok,
        f"samples={samples} unsound={unsound} yes={yes_instances} "
        f"missed={missed_yes} rate={miss_rate:.3f} limit=0.01 "
        f"time={elapsed:.1f}s limit=300s",
    )


def test_criterion_7_triple_systems_and_perfect_packings():
    start = time.perf_counter()
    ok = True
    detail = []
    for n in (3, 7, 9, 13, 15):
        system = steiner_triple_system(n)
        seen = set()
        for a, b, c in system.triples:
            for pair in ((a, b), (a, c), (b, c)):
                ok = ok and pair not in seen
                seen.add(pair)
        ok = ok and len(seen) == n * (n - 1) // 2
        t = orient_clique(system)
        packing = triple_triangles(system)
        ok = ok and validate_triangle_packing(t, packing)
        ok = ok and len(packing_arcs(packing)) == n * (n - 1) // 2
        detail.append(f"n={n}:{len(system.triples)}")
    big = blow_up(orient_clique(steiner_triple_system(3)), 6)
    blocks = [list(range(0, 6)), list(range(6, 12)), list(range(12, 18))]
    tri = tripartite_perfect_packing(big, *blocks)
    ok = ok and len(tri) == 36 and len(packing_arcs(tri)) == 108
    ok = ok and validate_triangle_packing(big, tri)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(
        7,
        "triple systems and perfect packings",
        ok,
        f"{' '.join(detail)} tripartite=36/108 time={elapsed:.2f}s limit=5s",
    )


def test_criterion_8_cycle_packing_respects_feedback_bound():
    start = time.perf_counter()
    violations = 0
    samples = 0
    for n in (3, 4):
        for t in all_tournaments(n):
            cyc, _ = exact_max_cycle_packing(t)
            fas, _ = exact_min_fas(t)
            if cyc > fas:
                violations += 1
            samples += 1
    rng = random.Random(55)
    for _ in range(60):
        t = random_tournament(rng.choice([5, 6]), rng)
        cyc, _ = exact_max_cycle_packing(t)
        fas, _ = exact_min_fas(t)
        if cyc > fas:
            violations += 1
        samples += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0
    report(
        8,
        "packing bounded by feedback number",
        ok,
        f"samples={samples} violations={violations} time={elapsed:.1f}s",
    )
