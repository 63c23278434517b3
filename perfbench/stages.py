"""Outside-in stage trace: each route re-enacted through its public stages.

A traced operation calls the same public functions, in the same order and
on the same branches, as the CLI or library route it stands for, and
records one span per call.  The program itself is not instrumented, so a
count that exists only inside a function (branch-and-bound nodes, FPT
masks) is not available here.

A span that is measured separately from the call that contains it, such
as the triangle enumeration inside ``greedy_maximal_packing``, names
that call as ``within``; the containing span's self time is its duration
minus its ``within`` children, so the self times of one operation sum to
its top-level stage time.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

# Per-layer metrics, in the order they are reported; every traced run
# reports all of them, with 0 for a layer its workload does not reach.
SELF_TIMES = (
    "formats.parse_tournament",
    "formats.format_packing",
    "formats.format_tournament",
    "formats.parse_packing",
    "sparse.normalize_representation",
    "sparse.decompose",
    "sparse.build_conflict_digraph",
    "sparse.classify_components",
    "sparse.solve_pi_prime",
    "sparse.pi_map",
    "core.enumerate_triangles",
    "core.check_triangle_packing",
    "core.induced_subtournament",
    "kernel.greedy_maximal_packing",
    "kernel.build_conflict_bipartite",
    "kernel.maximum_bipartite_matching",
    "oracle.exact_max_triangle_packing",
    "oracle.enumerate_simple_cycles",
    "oracle.exact_max_cycle_packing",
    "fpt.decide",
    "reduction.build_reduction",
    "reduction.certificate_packing",
    "reduction.decode_assignment",
    "steiner.steiner_triple_system",
)
# Counts of work a layer does: the same answers from fewer is less work.
COUNTS = (
    "sparse.conflict_vertices",
    "sparse.conflict_arcs",
    "core.triangles",
    "kernel.bipartite_edges",
    "kernel.kernel_vertices",
    "oracle.cycles",
    "fpt.trials",
    "trace.diverged",
)
# Counts the inputs and the answers fix, so no direction is better: they
# are reported beside the metrics, not as metrics.
DIAGNOSTICS = (
    "sparse.segments",
    "sparse.bridging_triangles",
    "sparse.terminal.isolated-vertex",
    "sparse.terminal.digoned-tree",
    "sparse.terminal.has-long-cycle",
    "kernel.greedy_size",
    "kernel.matching_size",
    "reduction.vertices",
    "reduction.backward_arcs",
    "reduction.threshold",
)


@dataclass
class Span:
    op: int
    id: int
    name: str
    start: float
    end: float
    within: int | None


class Tracer:
    """Spans and counts of one traced run, kept in memory until it ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = -1

    def begin(self, op: int) -> None:
        self.op = op

    def span(self, name: str, fn, *args, within: int | None = None, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        self.spans.append(Span(self.op, len(self.spans), name, start, end, within))
        return result

    def last(self) -> int:
        return self.spans[-1].id

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    def self_times(self, first_span: int) -> Counter:
        """Self seconds per stage name over the spans from ``first_span`` on."""
        out: Counter = Counter()
        for s in self.spans[first_span:]:
            out[s.name] += s.end - s.start
            if s.within is not None:
                out[self.spans[s.within].name] -= s.end - s.start
        return out

    def stage_seconds(self, first_span: int) -> float:
        """Summed duration of the top-level stage spans from ``first_span`` on."""
        return sum(
            s.end - s.start for s in self.spans[first_span:] if s.within is None
        )


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _lines(text: str) -> str:
    """What the CLI prints when it prints ``text.splitlines()`` one by one."""
    return "".join(line + "\n" for line in text.splitlines())


def load(tp, tr: Tracer, path: str):
    return tr.span("formats.parse_tournament", tp.formats.parse_tournament, _read(path))


def sparse_triangles(tp, tr: Tracer, T):
    """``sparse.max_triangle_packing_sparse``, stage by stage."""
    sp = tp.sparse
    norm, perm = tr.span(
        "sparse.normalize_representation", sp.normalize_representation, T, return_map=True
    )
    segments, bridging = tr.span("sparse.decompose", sp.decompose, norm)
    tr.count("sparse.segments", len(segments))
    tr.count("sparse.bridging_triangles", len(bridging))
    of = tp.core.Triangle.of
    packing = [of(perm[t.a], perm[t.b], perm[t.c]) for t in bridging]
    for sub, index_map in segments:
        g = tr.span("sparse.build_conflict_digraph", sp.build_conflict_digraph, sub)
        tr.count("sparse.conflict_vertices", g.num_vertices)
        tr.count("sparse.conflict_arcs", len(g.arcs))
        for comp in tr.span("sparse.classify_components", sp.classify_components, g):
            if comp.terminal:
                tr.count(f"sparse.terminal.{comp.kind}", 1)
                if comp.kind == sp.ISOLATED_VERTEX:
                    raise RuntimeError("terminal isolated vertex in a fully sparse segment")
        X = tr.span("sparse.solve_pi_prime", sp.solve_pi_prime, g)
        for t in tr.span("sparse.pi_map", sp.pi_map, g, X):
            m = index_map
            packing.append(of(perm[m[t.a]], perm[m[t.b]], perm[m[t.c]]))
    err = tr.span("core.check_triangle_packing", tp.core.check_triangle_packing, T, packing)
    if err is not None:
        raise RuntimeError(f"internal: assembled packing invalid: {err}")
    return len(packing), sorted(packing)


def kernelize(tp, tr: Tracer, T, k: int):
    """``kernel.kernelize``: (outcome, witness, kernel, index_map)."""
    kn = tp.kernel
    X = tr.span("kernel.greedy_maximal_packing", kn.greedy_maximal_packing, T)
    triangles = tr.span(
        "core.enumerate_triangles", tp.core.enumerate_triangles, T, within=tr.last()
    )
    tr.count("core.triangles", len(triangles))
    tr.count("kernel.greedy_size", len(X))
    if len(X) >= k:
        return "early-yes", tuple(X), None, None
    bip = tr.span("kernel.build_conflict_bipartite", kn.build_conflict_bipartite, T, X)
    tr.count("kernel.bipartite_edges", sum(len(hits) for hits in bip.edges.values()))
    matching = tr.span(
        "kernel.maximum_bipartite_matching",
        kn.maximum_bipartite_matching,
        {arc: bip.edges[arc] for arc in bip.left if arc in bip.edges},
    )
    tr.count("kernel.matching_size", len(matching))
    if len(matching) >= k:
        witness = tuple(
            tp.core.Triangle.of(t, h, u) for (t, h), u in sorted(matching.items())
        )
        return "early-yes", witness, None, None
    packed = {v for tri in X for v in tri.vertices()}
    keep = sorted(packed | set(matching.values()))
    sub, index_map = tr.span("core.induced_subtournament", tp.core.induced_subtournament, T, keep)
    tr.count("kernel.kernel_vertices", sub.n)
    return "kernel", None, sub, index_map


def cmd_kernelize(tp, tr: Tracer, path: str, k: int) -> str:
    T = load(tp, tr, path)
    outcome, witness, sub, index_map = kernelize(tp, tr, T, k)
    fmt = tp.formats
    if outcome == "early-yes":
        return "early-yes\n" + tr.span("formats.format_packing", fmt.format_packing, sorted(witness))
    body = tr.span("formats.format_tournament", fmt.format_tournament, sub)
    return "kernel\n" + body + "".join(f"# map {new} {old}\n" for new, old in enumerate(index_map))


def cmd_stats(tp, tr: Tracer, path: str) -> str:
    T = load(tp, tr, path)
    core = tp.core
    triangles = tr.span("core.enumerate_triangles", core.enumerate_triangles, T)
    tr.count("core.triangles", len(triangles))
    return (
        f"n {T.n}\nbackward {len(T.backward)}\n"
        f"sparse {'yes' if core.is_sparse(T) else 'no'}\n"
        f"fully-sparse {'yes' if core.is_fully_sparse(T) else 'no'}\n"
        f"triangles {len(triangles)}\n"
    )


def _packing_text(tp, tr: Tracer, members) -> str:
    return _lines(tr.span("formats.format_packing", tp.formats.format_packing, members))


def cmd_solve(tp, tr: Tracer, path: str, *, k=None, exact=False, fpt=False,
              cycles=False, delta=0.001, seed=0) -> str:
    """``tourpack solve`` without ``--json``, routed as ``cli._cmd_solve`` routes."""
    T = load(tp, tr, path)
    core, oracle = tp.core, tp.oracle
    if exact:
        method = "exact"
    elif fpt:
        method = "fpt"
    elif core.is_sparse(T):
        method = "sparse-poly"
    elif k is not None:
        method = "kernelize"
    elif T.n <= oracle.DEFAULT_BUDGET.max_vertices:
        method = "exact"
    else:
        raise ValueError("route refuses this instance")

    if method == "sparse-poly" and not cycles:
        size, packing = sparse_triangles(tp, tr, T)
        return f"optimum {size}\n" + _packing_text(tp, tr, packing)
    if method == "exact" and cycles:
        size, found = tr.span("oracle.exact_max_cycle_packing", oracle.exact_max_cycle_packing, T)
        budget = oracle.DEFAULT_BUDGET
        listed = tr.span(
            "oracle.enumerate_simple_cycles",
            oracle.enumerate_simple_cycles,
            T,
            budget.max_cycles,
            time.monotonic() + budget.time_limit,
            within=tr.last(),
        )
        tr.count("oracle.cycles", len(listed))
        return f"optimum {size}\n" + _packing_text(tp, tr, found)
    if method == "exact":
        size, packing = tr.span(
            "oracle.exact_max_triangle_packing", oracle.exact_max_triangle_packing, T
        )
        return f"optimum {size}\n" + _packing_text(tp, tr, sorted(packing))
    if method == "fpt":
        return _decide(tp, tr, T, k, delta, seed, lambda tri: tri)
    if method != "kernelize":
        raise ValueError(f"route {method} is not traced")

    # kernelize, then decide on the kernel; --cycles does not change this route
    outcome, witness, kern, back = kernelize(tp, tr, T, k)
    if outcome == "early-yes":
        return "yes\n" + _packing_text(tp, tr, sorted(witness[:k]))

    def lift(tri):
        return core.Triangle.of(back[tri.a], back[tri.b], back[tri.c])

    if kern.n <= oracle.DEFAULT_BUDGET.max_vertices:
        size, packing = tr.span(
            "oracle.exact_max_triangle_packing", oracle.exact_max_triangle_packing, kern
        )
        if size < k:
            return "no\n"
        return "yes\n" + _packing_text(tp, tr, sorted(lift(t) for t in packing[:k]))
    return _decide(tp, tr, kern, k, delta, seed, lift)


def _decide(tp, tr: Tracer, T, k, delta, seed, lift) -> str:
    answer, witness = tr.span("fpt.decide", tp.fpt.decide, T, k, delta, seed)
    if not answer:
        tr.count("fpt.trials", tp.fpt.trial_count(k, delta))
        return f"no (confidence {1 - delta})\n"
    return "yes\n" + _packing_text(tp, tr, sorted(lift(t) for t in witness))


def _reduction(tp, tr: Tracer, F):
    R = tr.span("reduction.build_reduction", tp.reduction.build_reduction, F)
    build = tr.last()
    sts = tp.steiner.steiner_triple_system
    tr.span("steiner.steiner_triple_system", sts, F.n_vars, within=build)
    tr.span("steiner.steiner_triple_system", sts, len(F.clauses) + 1, within=build)
    return R


def round_trip(tp, tr: Tracer, cnf: str, assignment: str, red: str, pack: str) -> str:
    """``reduce``, ``certify`` and ``decode_assignment``; returns the decoded bits.

    The re-enacted file contents are compared with what the CLI wrote.
    """
    rd, fmt = tp.reduction, tp.formats
    # reduce
    F = rd.normalize(rd.parse_dimacs(_read(cnf)))
    R = _reduction(tp, tr, F)
    tr.count("reduction.vertices", R.tournament.n)
    tr.count("reduction.backward_arcs", len(R.tournament.backward))
    tr.count("reduction.threshold", R.threshold)
    body = tr.span("formats.format_tournament", fmt.format_tournament, R.tournament)
    same = _read(red).startswith(body)
    # certify
    original = rd.parse_dimacs(_read(cnf))
    R = _reduction(tp, tr, rd.normalize(original))
    given = fmt.parse_assignment(_read(assignment))
    values = [given[v + 1] if v < original.n_vars else True for v in range(R.formula.n_vars)]
    packing = tr.span("reduction.certificate_packing", rd.certificate_packing, R, values)
    same &= _read(pack) == tr.span("formats.format_packing", fmt.format_packing, sorted(packing))
    # decode
    packing = tr.span("formats.parse_packing", fmt.parse_packing, _read(pack))
    R = _reduction(tp, tr, rd.normalize(rd.parse_dimacs(_read(cnf))))
    decoded = tr.span("reduction.decode_assignment", rd.decode_assignment, R, packing)
    bits = "".join("1" if v else "0" for v in decoded)
    return bits + "\n" if same else "files differ\n"
