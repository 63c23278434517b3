"""The four workloads: seeded inputs, the operation list, and answer checks.

Each workload builds one round, a fixed list of operations whose make-up
does not depend on the seed; the seed decides the random structure inside
each input, or which instances of a fixed pool run.  Sizes are fixed per
slot so that a round costs about the same on every seed.  Every operation is a user-facing route: a
``tourpack.cli.main(argv)`` call with stdout captured, or, for decoding a
reduction, the library call the CLI does not expose.

A workload is called as ``WORKLOADS[name](seed)``.  That call makes the
benchmark's own choices (random arc sets, formulas, the ``k`` of each
instance) and returns ``build(tp, workdir)``, which generates the inputs
with tourpack, writes them and returns the operations.  Only ``build`` is
part of the timed set-up, so ``setup_s`` measures tourpack's work alone.

Checks run after the timed part and use only ``reference``.
"""

from __future__ import annotations

import io
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import reference as ref
import stages

# Branch-and-bound time on random tournaments of one size spreads over
# three orders of magnitude, and no cheap property of the input predicts
# it well (for triangles, the triangle count comes closest).  So the
# oracle operations draw from fixed pools of generator seeds s, vetted
# when this benchmark was written: ``random_tournament(10, s)`` has 32
# triangles and its exact triangle search took 0.17-0.21 s;
# ``random_tournament(8, s)``'s exact cycle search took 0.19-0.26 s.
EXACT_POOL = (2045, 2048, 2049, 2075, 2118, 2154, 2160, 2172, 2177, 2236,
              2240, 2258, 2300, 2339, 2348, 2349, 2388, 2404, 2410)
CYCLE_POOL = (1005, 1037, 1051, 1055, 1056, 1060, 1081, 1090, 1099, 1106, 1124, 1142)

# Instances ``random_tournament(n, s)`` whose cycle optimum K exceeds their
# triangle optimum.  ``solve --cycles -k K`` routes them to kernelize, which
# decides triangle packing, and prints "no": a known routing fault, counted
# as failed on every run.  They do not depend on the seed.
CYCLE_ROUTING_FAULTS = ((6, 14, 3), (7, 23, 4))


@dataclass
class Op:
    kind: str
    run: Callable[[], tuple[int, str]]
    trace: Callable[[stages.Tracer], str]
    check: Callable[[str], str | None]
    # for an instance of a known fault: the exact output the fault prints
    fault_output: str | None = None


def cli_call(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _cli_op(tp, kind, argv, traced, check, fault_output=None) -> Op:
    return Op(kind, lambda: cli_call(tp.cli, argv), traced, check, fault_output)


def _write(tp, workdir: str, name: str, T) -> str:
    path = os.path.join(workdir, name + ".txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(tp.formats.format_tournament(T))
    return path


def _rng(workload: str, seed: int, slot: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{slot}")


def _near_transitive(n: int, b: int, rng: random.Random) -> frozenset:
    """``b`` backward arcs of span at least 2, drawn at random."""
    pairs = [(t, h) for h in range(n) for t in range(h + 2, n)]
    return frozenset(rng.sample(pairs, b))


# ---- parsing CLI output, independently of tourpack.formats --------------


def _members(lines) -> list[tuple[int, ...]]:
    out = []
    for line in lines:
        kind, *vs = line.split()
        if kind not in ("triangle", "cycle"):
            raise ValueError(f"unexpected line {line!r}")
        out.append(tuple(int(v) for v in vs))
    return out


def _tournament(lines) -> tuple[int, set[tuple[int, int]]]:
    """The ``tournament n`` / ``b t h`` lines of a tournament file."""
    n, B = None, set()
    for line in lines:
        fields = line.split("#", 1)[0].split()
        if not fields:
            continue
        if fields[0] == "tournament":
            n = int(fields[1])
        elif fields[0] == "b":
            B.add((int(fields[1]), int(fields[2])))
        else:
            raise ValueError(f"unexpected line {line!r}")
    return n, B


# ---- checks ---------------------------------------------------------------


def check_optimum(n, B, optimum: Callable[[], int], cycles=False, upper=None):
    """``optimum X`` plus a valid packing of X members, X the true optimum.

    A packing that reaches the upper bound ``upper`` is optimal without
    calling ``optimum``.
    """

    def check(out: str) -> str | None:
        head, *rest = out.splitlines()
        size = int(head.removeprefix("optimum "))
        found = _members(rest)
        err = ref.check_packing(n, B, found, triangles_only=not cycles)
        if err:
            return err
        if len(found) != size:
            return f"optimum {size} printed with {len(found)} members"
        if size == upper:
            return None
        expected = optimum()
        if size != expected:
            return f"optimum {size}, reference {expected}"
        return None

    return check


def check_decision(n, B, k: int, cycles=False):
    """yes with k valid members exactly when the instance packs k.

    When the backward arcs, a feedback arc set, number fewer than k, no
    packing reaches k; otherwise the ILP decides.
    """

    def check(out: str) -> str | None:
        head, *rest = out.splitlines()
        if len(B) < k:
            truth = False
        else:
            truth = (ref.cycle_optimum if cycles else ref.triangle_optimum)(n, B) >= k
        if head == "yes":
            err = ref.check_packing(n, B, _members(rest), triangles_only=not cycles)
            if err or len(rest) != k:
                return err or f"yes with {len(rest)} members, k={k}"
            return None if truth else "yes, but no packing reaches k"
        if head in ("no", "no (confidence 0.999)"):
            return "no, but a packing reaches k" if truth else None
        return f"unexpected answer {head!r}"

    return check


def check_kernelize(n, B, k: int):
    """early-yes with k valid triangles, or a kernel that decides the same."""

    def check(out: str) -> str | None:
        head, *rest = out.splitlines()
        if head == "early-yes":
            found = _members(rest)
            err = ref.check_packing(n, B, found, triangles_only=True)
            return err or (None if len(found) >= k else f"{len(found)} < k triangles")
        if head != "kernel":
            return f"unexpected outcome {head!r}"
        kn, kB = _tournament(l for l in rest if not l.startswith("# map"))
        olds = [int(l.split()[3]) for l in rest if l.startswith("# map")]
        if kn > 4 * k - 4:
            return f"kernel has {kn} > 4k-4 vertices"
        if len(olds) != kn or olds != sorted(set(olds)):
            return "kernel map is not an increasing list of its vertices"
        if kB != ref.induced(B, olds):
            return "kernel is not induced on its mapped vertices"
        if (ref.triangle_optimum(kn, kB) >= k) != (ref.triangle_optimum(n, B) >= k):
            return "kernel and original disagree on k"
        return None

    return check


def check_stats(n, B):
    def check(out: str) -> str | None:
        matching = ref.is_matching(B)
        expected = (
            f"n {n}\nbackward {len(B)}\nsparse {'yes' if matching else 'no'}\n"
            f"fully-sparse {'yes' if matching and 2 * len(B) == n else 'no'}\n"
            f"triangles {ref.triangle_count(n, B)}\n"
        )
        return None if out == expected else f"stats {out!r}, expected {expected!r}"

    return check


# ---- workloads ------------------------------------------------------------


def sparse_solve(seed: int):
    """``solve`` on uniform fully sparse inputs and on planted concatenations."""
    return lambda tp, workdir: _sparse_solve(tp, seed, workdir)


def _sparse_solve(tp, seed: int, workdir: str) -> list[Op]:
    gen, core = tp.generators, tp.core
    ops = []
    # The cost of one instance varies by up to 2x with its random structure
    # (for the uniform family, the search for a long cycle in
    # solve_pi_prime), and the median latency of a round is one of its
    # operations.  So a round holds several instances of one size per
    # family, sizes at which the two families cost about the same.
    n = 450
    for j in range(6):
        T = gen.random_fully_sparse_tournament(n, _rng("sparse-solve", seed, f"uniform-{j}"))
        path = _write(tp, workdir, f"uniform-{j}", T)
        B = T.backward
        # the backward arcs are a feedback arc set, so b bounds every packing
        ops.append(_cli_op(
            tp, "sparse-uniform", ["solve", path],
            lambda tr, path=path: stages.cmd_solve(tp, tr, path),
            check_optimum(n, B, lambda n=n, B=B: ref.triangle_optimum(n, B), upper=len(B)),
        ))
    block_optima: dict[tuple[int, frozenset], int] = {}
    for j in range(3):
        rng = _rng("sparse-solve", seed, f"planted-{j}")
        T, blocks = core.LinearTournament(0, frozenset()), []
        while T.n < 1500:
            block = gen.random_fully_sparse_tournament(rng.choice((4, 6, 8, 10, 12)), rng)
            blocks.append((block.n, block.backward))
            T = core.concatenate(T, block)
        path = _write(tp, workdir, f"planted-{j}", T)

        def optimum(blocks=blocks):
            for key in blocks:
                if key not in block_optima:
                    block_optima[key] = ref.triangle_optimum(*key)
            return sum(block_optima[key] for key in blocks)

        ops.append(_cli_op(
            tp, "sparse-planted", ["solve", path],
            lambda tr, path=path: stages.cmd_solve(tp, tr, path),
            check_optimum(T.n, T.backward, optimum),
        ))
    return ops


def kernel_dense(seed: int):
    """``kernelize -k 5`` and ``stats`` on uniform random tournaments."""
    return lambda tp, workdir: _kernel_dense(tp, seed, workdir)


def _kernel_dense(tp, seed: int, workdir: str) -> list[Op]:
    ops = []
    for n in (120, 140, 160):
        T = tp.generators.random_tournament(n, _rng("kernel-dense", seed, str(n)))
        path = _write(tp, workdir, f"random-{n}", T)
        ops.append(_cli_op(
            tp, "kernelize-dense", ["kernelize", path, "-k", "5"],
            lambda tr, path=path: stages.cmd_kernelize(tp, tr, path, 5),
            check_kernelize(n, T.backward, 5),
        ))
        ops.append(_cli_op(
            tp, "stats", ["stats", path],
            lambda tr, path=path: stages.cmd_stats(tp, tr, path),
            check_stats(n, T.backward),
        ))
    return ops


def decide_small(seed: int):
    """The small-answer routes: kernel outcome, oracles, FPT, kernelize+exact."""
    kernels = []
    for n, b in ((200, 10), (250, 20), (300, 30)):
        B = _near_transitive(n, b, _rng("decide-small", seed, f"kernel-{n}"))
        kernels.append((n, B, ref.greedy_size(n, B) + 1))

    k3s = []
    for n in (250, 300):
        rng = _rng("decide-small", seed, f"k3-{n}")
        # two backward arcs sharing an endpoint: not sparse, and no packing
        # has more than 2 triangles
        if rng.random() < 0.5:
            h = rng.randrange(n - 3)
            t1, t2 = rng.sample(range(h + 2, n), 2)
            k3s.append((n, frozenset({(t1, h), (t2, h)})))
        else:
            t = rng.randrange(3, n)
            h1, h2 = rng.sample(range(t - 1), 2)
            k3s.append((n, frozenset({(t, h1), (t, h2)})))

    exact = _rng("decide-small", seed, "exact").sample(EXACT_POOL, 3)
    cycles = _rng("decide-small", seed, "cycles").sample(CYCLE_POOL, 2)

    fpts = []
    for n in (20, 30):
        # one backward arc over 11 vertices: 11 triangles, all sharing it, so
        # there are enough triangles to run every trial and never 2 disjoint
        h = _rng("decide-small", seed, f"fpt-{n}").randrange(n - 12)
        fpts.append((n, frozenset({(h + 12, h)})))

    def build(tp, workdir: str) -> list[Op]:
        gen, core = tp.generators, tp.core
        ops = []
        for n, B, k in kernels:
            T = core.LinearTournament(n, B)
            path = _write(tp, workdir, f"kernel-{n}", T)
            ops.append(_cli_op(
                tp, "kernelize-kernel", ["kernelize", path, "-k", str(k)],
                lambda tr, path=path, k=k: stages.cmd_kernelize(tp, tr, path, k),
                check_kernelize(n, B, k),
            ))
        for n, B in k3s:
            path = _write(tp, workdir, f"k3-{n}", core.LinearTournament(n, B))
            ops.append(_cli_op(
                tp, "solve-k3", ["solve", path, "-k", "3"],
                lambda tr, path=path: stages.cmd_solve(tp, tr, path, k=3),
                check_decision(n, B, 3),
            ))
        for s in exact:
            T = gen.random_tournament(10, s)
            path = _write(tp, workdir, f"exact-{s}", T)
            ops.append(_cli_op(
                tp, "solve-exact", ["solve", path, "--exact"],
                lambda tr, path=path: stages.cmd_solve(tp, tr, path, exact=True),
                check_optimum(10, T.backward, lambda B=T.backward: ref.triangle_optimum(10, B)),
            ))
        for s in cycles:
            T = gen.random_tournament(8, s)
            path = _write(tp, workdir, f"cycles-{s}", T)
            ops.append(_cli_op(
                tp, "solve-exact-cycles", ["solve", path, "--exact", "--cycles"],
                lambda tr, path=path: stages.cmd_solve(tp, tr, path, exact=True, cycles=True),
                check_optimum(8, T.backward, lambda B=T.backward: ref.cycle_optimum(8, B),
                              cycles=True),
            ))
        for n, B in fpts:
            path = _write(tp, workdir, f"fpt-{n}", core.LinearTournament(n, B))
            ops.append(_cli_op(
                tp, "solve-fpt", ["solve", path, "--fpt", "-k", "2"],
                lambda tr, path=path: stages.cmd_solve(tp, tr, path, k=2, fpt=True),
                check_decision(n, B, 2),
            ))
        for n, s, k in CYCLE_ROUTING_FAULTS:
            T = gen.random_tournament(n, s)
            path = _write(tp, workdir, f"fault-{n}-{s}", T)
            ops.append(_cli_op(
                tp, "solve-cycles-k", ["solve", path, "--cycles", "-k", str(k)],
                lambda tr, path=path, k=k: stages.cmd_solve(tp, tr, path, k=k, cycles=True),
                check_decision(n, T.backward, k, cycles=True),
                fault_output="no\n",
            ))
        return ops

    return build


def planted_formula(n_vars: int, m: int, rng: random.Random):
    """Clauses of size 2-3 satisfied by a random planted assignment.

    Each variable offers two positive and one negative occurrence, the
    limits ``reduction.Cnf3Instance`` enforces.  Every clause takes one
    literal true under the assignment first, then false ones while any
    remain.  Returns (assignment, clauses) with 0-based variables.
    """
    while True:
        values = [rng.random() < 0.5 for _ in range(n_vars)]
        slots = [(v, True) for v in range(n_vars)] * 2 + [(v, False) for v in range(n_vars)]
        rng.shuffle(slots)
        threes = set(rng.sample(range(m), 3 * n_vars - 2 * m - 6))
        clauses = []
        try:
            for j in range(m):
                first = rng.choice([s for s in slots if values[s[0]] == s[1]])
                slots.remove(first)
                clause = [first]
                for _ in range(2 if j in threes else 1):
                    taken = {v for v, _ in clause}
                    free = [s for s in slots if s[0] not in taken]
                    pick = rng.choice([s for s in free if values[s[0]] != s[1]] or free)
                    slots.remove(pick)
                    clause.append(pick)
                clauses.append(tuple(clause))
        except IndexError:  # ran out of usable occurrences; draw again
            continue
        return values, clauses


def reduce_certify(seed: int):
    """``reduce``, ``certify`` and ``decode_assignment`` on satisfiable formulas."""
    formulas = []
    # n_vars = 1 or 3 (mod 6) and m + 1 = 1 or 3 (mod 6): already normalized
    for n_vars, m in ((43, 48), (45, 50), (49, 54), (51, 56)):
        values, clauses = planted_formula(n_vars, m, _rng("reduce-certify", seed, str(n_vars)))
        dimacs = f"p cnf {n_vars} {m}\n" + "".join(
            " ".join(str(v + 1 if pos else -v - 1) for v, pos in clause) + " 0\n"
            for clause in clauses
        )
        formulas.append((n_vars, values, clauses, dimacs))

    def build(tp, workdir: str) -> list[Op]:
        ops = []
        for n_vars, values, clauses, dimacs in formulas:
            base = os.path.join(workdir, f"formula-{n_vars}")
            cnf, assignment, red, pack = (base + ext for ext in (".cnf", ".asg", ".red", ".pack"))
            with open(cnf, "w", encoding="utf-8") as fh:
                fh.write(dimacs)
            with open(assignment, "w", encoding="utf-8") as fh:
                fh.write(tp.formats.format_assignment(values))
            ops.append(Op(
                "round-trip",
                lambda a=(cnf, assignment, red, pack): _round_trip(tp, *a),
                lambda tr, a=(cnf, assignment, red, pack): stages.round_trip(tp, tr, *a),
                check_round_trip(n_vars, clauses, red, pack),
            ))
        return ops

    return build


def _round_trip(tp, cnf: str, assignment: str, red: str, pack: str) -> tuple[int, str]:
    rc1, _ = cli_call(tp.cli, ["reduce", cnf, "-o", red])
    rc2, _ = cli_call(tp.cli, ["certify", cnf, assignment, "-o", pack])
    if rc1 or rc2:
        return rc1 or rc2, ""
    rd = tp.reduction
    with open(pack, encoding="utf-8") as fh:
        packing = tp.formats.parse_packing(fh.read())
    with open(cnf, encoding="utf-8") as fh:
        R = rd.build_reduction(rd.normalize(rd.parse_dimacs(fh.read())))
    decoded = rd.decode_assignment(R, packing)
    return 0, "".join("1" if v else "0" for v in decoded) + "\n"


def check_round_trip(n_vars: int, clauses, red: str, pack: str):
    """The decoded bits satisfy the formula; the packing meets the threshold."""

    def check(out: str) -> str | None:
        bits = out.strip()
        if len(bits) != n_vars or not ref.satisfies(clauses, [b == "1" for b in bits]):
            return "decoded assignment does not satisfy the formula"
        with open(red, encoding="utf-8") as fh:
            n, B = _tournament(fh.read().splitlines())
        with open(pack, encoding="utf-8") as fh:
            found = _members(fh.read().splitlines())
        threshold = ref.reduction_threshold(n_vars, clauses)
        if not len(found) == threshold == len(B):
            return f"packing {len(found)}, threshold {threshold}, backward arcs {len(B)}"
        return ref.check_packing(n, B, found, triangles_only=True)

    return check


WORKLOADS = {
    "sparse-solve": sparse_solve,
    "kernel-dense": kernel_dense,
    "decide-small": decide_small,
    "reduce-certify": reduce_certify,
}
