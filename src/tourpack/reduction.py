"""Formula-to-tournament reduction and its certificate machinery.

Builds, from a CNF formula with clause sizes 2 and 3 and bounded literal
occurrences, a tournament whose maximum arc-disjoint triangle packing
reaches a computable threshold exactly when the formula is satisfiable.
The layout places one 6-vertex gadget per variable, then one 3-vertex
gadget per clause plus a closing dummy gadget; backward arcs between
gadgets of the same part come from blown-up oriented triple systems, so
the packing potential lost between gadgets is recovered exactly by
tripartite triangle packings regardless of the assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import LinearTournament, Triangle
from .steiner import (
    blow_up,
    orient_clique,
    steiner_triple_system,
    tripartite_perfect_packing,
)

Literal = tuple[int, bool]
"""(variable index 0-based, True for a positive occurrence)."""


@dataclass(frozen=True)
class Cnf3Instance:
    """Clauses of size 2 or 3 over variables 0..n_vars-1.

    Each variable may occur at most twice positively and at most once
    negatively, and no clause repeats a variable.
    """

    n_vars: int
    clauses: tuple[tuple[Literal, ...], ...]

    def __post_init__(self) -> None:
        pos = [0] * self.n_vars
        neg = [0] * self.n_vars
        for ci, clause in enumerate(self.clauses):
            if len(clause) not in (2, 3):
                raise ValueError(
                    f"clause {ci} has size {len(clause)}, only 2 or 3 allowed"
                )
            seen = set()
            for var, positive in clause:
                if not 0 <= var < self.n_vars:
                    raise ValueError(f"clause {ci}: variable {var} out of range")
                if var in seen:
                    raise ValueError(f"clause {ci}: variable {var} repeated")
                seen.add(var)
                if positive:
                    pos[var] += 1
                else:
                    neg[var] += 1
        for var in range(self.n_vars):
            if pos[var] > 2:
                raise ValueError(
                    f"variable {var}: {pos[var]} positive occurrences, at most 2 allowed"
                )
            if neg[var] > 1:
                raise ValueError(
                    f"variable {var}: {neg[var]} negative occurrences, at most 1 allowed"
                )

    def is_satisfied_by(self, assignment: Sequence[bool]) -> bool:
        return all(
            any(assignment[var] == positive for var, positive in clause)
            for clause in self.clauses
        )


def parse_dimacs(text: str) -> Cnf3Instance:
    """Parse DIMACS CNF, enforcing the occurrence restrictions.

    Violations of the clause-size or occurrence limits are reported as
    errors, never silently repaired.
    """
    n_vars = None
    n_clauses = None
    clauses: list[tuple[Literal, ...]] = []
    current: list[Literal] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise ValueError(f"line {lineno}: bad problem line {line!r}")
            n_vars, n_clauses = int(fields[2]), int(fields[3])
            continue
        if n_vars is None:
            raise ValueError(f"line {lineno}: clause before 'p cnf' header")
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise ValueError(f"line {lineno}: bad literal {token!r}")
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                var = abs(lit) - 1
                if var >= n_vars:
                    raise ValueError(
                        f"line {lineno}: variable {abs(lit)} exceeds header count"
                    )
                current.append((var, lit > 0))
    if current:
        raise ValueError("unterminated final clause (missing 0)")
    if n_vars is None:
        raise ValueError("missing 'p cnf' header")
    if n_clauses is not None and len(clauses) != n_clauses:
        raise ValueError(
            f"header declares {n_clauses} clauses but {len(clauses)} found"
        )
    return Cnf3Instance(n_vars, tuple(clauses))


def normalize(F: Cnf3Instance) -> Cnf3Instance:
    """Pad the formula so both part sizes admit triple systems.

    Adds unused variables until n_vars = 1 or 3 (mod 6), then repeatedly
    adds six fresh variables and one or two always-satisfiable padding
    clauses over them until the clause count m satisfies m + 1 = 1 or 3
    (mod 6).  Padding preserves satisfiability and the occurrence
    limits; padding variables are satisfied by the all-true default.
    """
    n = F.n_vars
    clauses = list(F.clauses)
    while n % 6 not in (1, 3):
        n += 1
    while (len(clauses) + 1) % 6 not in (1, 3):
        fresh = range(n, n + 6)
        n += 6
        p = [(v, True) for v in fresh]
        residue = (len(clauses) + 1) % 6
        if residue in (0, 2, 4):
            clauses.append(tuple(p[0:3]))
        else:  # residue 5: two clauses close the gap to 1 (mod 6)
            clauses.append(tuple(p[0:3]))
            clauses.append(tuple(p[3:6]))
    return Cnf3Instance(n, tuple(clauses))


@dataclass(frozen=True)
class VariableGadget:
    """Positions of one variable's six vertices, in ordering sequence."""

    r: int
    x_bar: int
    x1: int
    s: int
    x2: int
    t: int

    def positions(self) -> tuple[int, ...]:
        return (self.r, self.x_bar, self.x1, self.s, self.x2, self.t)


@dataclass(frozen=True)
class ClauseGadget:
    c1: int
    c2: int
    c3: int

    def positions(self) -> tuple[int, ...]:
        return (self.c1, self.c2, self.c3)


@dataclass(frozen=True)
class VcArc:
    """Backward arc from the clause part into the variable part.

    ``clause`` is the 0-based clause index for occurrence arcs and None
    for the three per-variable arcs leaving the dummy gadget.
    """

    tail: int
    head: int
    var: int
    clause: int | None
    positive: bool | None

    @property
    def is_dummy(self) -> bool:
        return self.clause is None

    def arc(self) -> tuple[int, int]:
        return (self.tail, self.head)


@dataclass(frozen=True)
class ReductionOutput:
    tournament: LinearTournament
    threshold: int
    alpha: int
    formula: Cnf3Instance
    variables: tuple[VariableGadget, ...]
    clauses: tuple[ClauseGadget, ...]  # includes the dummy gadget last
    vc_arcs: tuple[VcArc, ...]
    var_triples: tuple[tuple[int, int, int], ...]
    clause_triples: tuple[tuple[int, int, int], ...]


def gadget_triangles(g: VariableGadget) -> tuple[Triangle, Triangle, Triangle, Triangle]:
    """The four triangles living inside a variable gadget.

    The gadget's internal backward arcs are s -> r and t -> x1; each
    triangle uses exactly one of them.
    """
    return (
        Triangle.of(g.r, g.x_bar, g.s),
        Triangle.of(g.r, g.x1, g.s),
        Triangle.of(g.x1, g.s, g.t),
        Triangle.of(g.x1, g.x2, g.t),
    )


def variable_gadget_packings(g: VariableGadget) -> dict[str, list[Triangle]]:
    """The three maximal internal packings, keyed 'top', 'top_prime', 'bot'.

    'top' and 'top_prime' leave one free out-arc at x1 (and 'top' one at
    x2 as well) and three at x_bar; 'bot' exhausts x1 and x2 but leaves
    all four out-arcs of x_bar free.  A gadget decodes to false exactly
    when its restriction is 'bot'.
    """
    t1, t2, t3, t4 = gadget_triangles(g)
    return {
        "top": [t1, t3],
        "top_prime": [t1, t4],
        "bot": [t2, t4],
    }


def _variable_layout(n_vars: int) -> tuple[VariableGadget, ...]:
    out = []
    for i in range(n_vars):
        base = 6 * i
        out.append(
            VariableGadget(base, base + 1, base + 2, base + 3, base + 4, base + 5)
        )
    return tuple(out)


def _clause_layout(n_vars: int, m_plus_one: int) -> tuple[ClauseGadget, ...]:
    out = []
    for j in range(m_plus_one):
        base = 6 * n_vars + 3 * j
        out.append(ClauseGadget(base, base + 1, base + 2))
    return tuple(out)


def build_reduction(F: Cnf3Instance) -> ReductionOutput:
    """Construct the tournament for a normalized formula.

    The tournament has 6n + 3(m+1) vertices.  Its backward arcs are the
    two internal arcs of each variable gadget, the blown-up triple
    system arcs inside each part (block 6 for variables, block 3 for
    clauses), the dummy gadget's internal arc, one occurrence arc per
    literal of each clause, and three dummy arcs into each variable.
    The packing threshold is 6n(n-1) + 3m(m+1)/2 + 2n + alpha + 1 where
    alpha counts the occurrence and dummy arcs together.
    """
    n = F.n_vars
    m = len(F.clauses)
    if n % 6 not in (1, 3) or (m + 1) % 6 not in (1, 3):
        raise ValueError(
            f"formula not normalized: n={n}, m={m}; run normalize first"
        )
    variables = _variable_layout(n)
    clause_gadgets = _clause_layout(n, m + 1)
    dummy = clause_gadgets[-1]

    backward: set[tuple[int, int]] = set()
    for g in variables:
        backward.add((g.s, g.r))
        backward.add((g.t, g.x1))

    var_sts = steiner_triple_system(n)
    backward |= blow_up(orient_clique(var_sts), 6).backward

    clause_sts = steiner_triple_system(m + 1)
    clause_offset = 6 * n
    for t, h in blow_up(orient_clique(clause_sts), 3).backward:
        backward.add((t + clause_offset, h + clause_offset))

    backward.add((dummy.c3, dummy.c1))

    # occurrence arcs: tail c3 for 3-clauses, c2 for 2-clauses; the head
    # is x_bar for a negative literal, else x1 for the variable's first
    # positive occurrence in clause order and x2 for the second
    vc_arcs: list[VcArc] = []
    positive_seen = [0] * n
    for j, clause in enumerate(F.clauses):
        tail = clause_gadgets[j].c3 if len(clause) == 3 else clause_gadgets[j].c2
        for var, positive in clause:
            g = variables[var]
            if not positive:
                head = g.x_bar
            elif positive_seen[var] == 0:
                head = g.x1
                positive_seen[var] = 1
            else:
                head = g.x2
            vc_arcs.append(VcArc(tail, head, var, j, positive))
    for i, g in enumerate(variables):
        for u in (dummy.c1, dummy.c2, dummy.c3):
            vc_arcs.append(VcArc(u, g.x_bar, i, None, None))
    for a in vc_arcs:
        backward.add(a.arc())

    alpha = len(vc_arcs)
    assert alpha == sum(len(c) for c in F.clauses) + 3 * n
    threshold = 6 * n * (n - 1) + 3 * m * (m + 1) // 2 + 2 * n + alpha + 1

    total = 6 * n + 3 * (m + 1)
    return ReductionOutput(
        tournament=LinearTournament(total, frozenset(backward)),
        threshold=threshold,
        alpha=alpha,
        formula=F,
        variables=variables,
        clauses=clause_gadgets,
        vc_arcs=tuple(vc_arcs),
        var_triples=var_sts.triples,
        clause_triples=clause_sts.triples,
    )


def _occurrence_arc(R: ReductionOutput, clause_index: int, var: int) -> VcArc:
    for a in R.vc_arcs:
        if a.clause == clause_index and a.var == var:
            return a
    raise ValueError(f"no occurrence arc for variable {var} in clause {clause_index}")


def certificate_packing(
    R: ReductionOutput, assignment: Sequence[bool]
) -> list[Triangle]:
    """Threshold-size packing witnessing a satisfying assignment.

    Raises ValueError if the assignment does not satisfy the formula.
    Construction order matters: the inter-gadget tripartite packings and
    the per-gadget internal packings go in first, then the dummy-arc
    triangles claim three of x_bar's out-arcs, and each clause finally
    routes its satisfying literal through the earliest internal out-arc
    its gadget still has free.
    """
    F = R.formula
    if len(assignment) != F.n_vars:
        raise ValueError(
            f"assignment covers {len(assignment)} variables, formula has {F.n_vars}"
        )
    for j, clause in enumerate(F.clauses):
        if not any(assignment[var] == positive for var, positive in clause):
            raise ValueError(f"assignment does not satisfy clause {j + 1}")

    T = R.tournament
    packing: list[Triangle] = []
    used: set[tuple[int, int]] = set()

    def add(tri: Triangle) -> None:
        for arc in tri.arcs():
            if arc in used:
                raise RuntimeError(f"internal arc conflict on {arc} at {tri}")
            used.add(arc)
        packing.append(tri)

    for i, j, k in R.var_triples:
        blocks = [list(R.variables[v].positions()) for v in (i, j, k)]
        for tri in tripartite_perfect_packing(T, *blocks):
            add(tri)
    for i, j, k in R.clause_triples:
        blocks = [list(R.clauses[c].positions()) for c in (i, j, k)]
        for tri in tripartite_perfect_packing(T, *blocks):
            add(tri)

    dummy = R.clauses[-1]
    add(Triangle.of(dummy.c1, dummy.c2, dummy.c3))

    for var, g in enumerate(R.variables):
        key = "top" if assignment[var] else "bot"
        for tri in variable_gadget_packings(g)[key]:
            add(tri)

    for g in R.variables:
        add(Triangle.of(g.x_bar, g.t, dummy.c1))
        add(Triangle.of(g.x_bar, g.x1, dummy.c2))
        add(Triangle.of(g.x_bar, g.x2, dummy.c3))

    def free_internal_out_arc(g: VariableGadget, z: int) -> int:
        for other in g.positions():
            if other != z and T.has_arc(z, other) and (z, other) not in used:
                return other
        raise RuntimeError(f"no free internal out-arc at vertex {z}")

    for j, clause in enumerate(F.clauses):
        tail = R.clauses[j].c3 if len(clause) == 3 else R.clauses[j].c2
        chosen = next(
            (var, positive)
            for var, positive in clause
            if assignment[var] == positive
        )
        var, positive = chosen
        g = R.variables[var]
        z = _occurrence_arc(R, j, var).head
        add(Triangle.of(z, free_internal_out_arc(g, z), tail))
        rest = [lit for lit in clause if lit != chosen]
        anchors = (R.clauses[j].c1, R.clauses[j].c2)
        for (var_u, _), anchor in zip(rest, anchors):
            head_u = _occurrence_arc(R, j, var_u).head
            add(Triangle.of(head_u, anchor, tail))

    assert len(packing) == R.threshold
    return packing


def decode_assignment(
    R: ReductionOutput, packing: Sequence[Triangle]
) -> list[bool]:
    """Read an assignment off a threshold-size packing.

    Restricts the packing to each variable gadget and matches it against
    the three maximal internal packings; 'bot' decodes to false, the two
    'top' variants to true.  Any other restriction means the packing
    does not conform to the construction and is an error.
    """
    if len(packing) != R.threshold:
        raise ValueError(
            f"packing size {len(packing)} differs from threshold {R.threshold}"
        )
    gadget_of = {v: var for var, g in enumerate(R.variables) for v in g.positions()}
    restrictions: list[set[Triangle]] = [set() for _ in R.variables]
    for tri in packing:
        a, b, c = (gadget_of.get(v) for v in tri.vertices())
        if a is not None and a == b == c:
            restrictions[a].add(tri)
    out = []
    for var, g in enumerate(R.variables):
        restriction = restrictions[var]
        named = {
            key: set(tris) for key, tris in variable_gadget_packings(g).items()
        }
        if restriction == named["bot"]:
            out.append(False)
        elif restriction in (named["top"], named["top_prime"]):
            out.append(True)
        else:
            raise ValueError(
                f"gadget {var} restriction {sorted(restriction)} is not one of "
                "the three maximal internal packings"
            )
    return out
