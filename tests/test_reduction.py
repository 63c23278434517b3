import itertools

import pytest

from helpers import local_out_degree
from tourpack.core import validate_triangle_packing
from tourpack.oracle import exact_max_triangle_packing
from tourpack.reduction import (
    Cnf3Instance,
    build_reduction,
    certificate_packing,
    decode_assignment,
    gadget_triangles,
    normalize,
    parse_dimacs,
    variable_gadget_packings,
)

# two interlocking 3-clauses over three variables; six of the eight
# assignments satisfy it
TWO_CLAUSE = "p cnf 3 2\n-1 2 -3 0\n1 -2 3 0\n"


def two_clause_instance():
    return parse_dimacs(TWO_CLAUSE)


def test_parse_dimacs():
    F = two_clause_instance()
    assert F.n_vars == 3
    assert F.clauses == (
        ((0, False), (1, True), (2, False)),
        ((0, True), (1, False), (2, True)),
    )
    assert F.is_satisfied_by([True, True, True])
    assert not F.is_satisfied_by([True, False, True])


@pytest.mark.parametrize(
    "text,needle",
    [
        ("p cnf x 1\n1 2 0\n", "invalid literal"),
        ("1 2 0\n", "before"),
        ("p cnf 2 1\n1 3 0\n", "exceeds"),
        ("p cnf 2 1\n1 2\n", "unterminated"),
        ("p cnf 2 2\n1 2 0\n", "declares"),
        ("p cnf 2 1\n1 0\n", "size"),
        ("p cnf 2 1\n1 1 0\n", "repeated"),
        ("p cnf 4 1\n1 2 3 4 0\n", "size"),
    ],
)
def test_parse_dimacs_errors(text, needle):
    with pytest.raises(ValueError, match=needle):
        parse_dimacs(text)


def test_occurrence_limits_enforced():
    lits = lambda *ls: tuple((abs(l) - 1, l > 0) for l in ls)
    # three positive occurrences of variable 1
    with pytest.raises(ValueError, match="positive"):
        Cnf3Instance(4, (lits(1, 2), lits(1, 3), lits(1, 4)))
    # two negative occurrences
    with pytest.raises(ValueError, match="negative"):
        Cnf3Instance(3, (lits(-1, 2), lits(-1, 3)))
    # at the limits everything is fine
    Cnf3Instance(4, (lits(1, 2), lits(1, 3), lits(-1, 4)))


def test_normalize_identity_when_already_normalized():
    F = two_clause_instance()
    assert normalize(F) is not F
    assert normalize(F) == Cnf3Instance(F.n_vars, F.clauses)


@pytest.mark.parametrize("m", [1, 3, 4, 5, 7, 9])
def test_normalize_padding(m):
    # m two-literal clauses over disjoint variable pairs
    F = Cnf3Instance(
        2 * m, tuple(((2 * i, True), (2 * i + 1, True)) for i in range(m))
    )
    G = normalize(F)
    assert G.n_vars % 6 in (1, 3)
    assert (len(G.clauses) + 1) % 6 in (1, 3)
    assert G.clauses[: len(F.clauses)] == F.clauses
    # padding clauses are all-positive over fresh variables
    for clause in G.clauses[len(F.clauses):]:
        for var, positive in clause:
            assert positive and var >= F.n_vars
    # satisfiability carries over with the all-true extension
    padded = [True] * G.n_vars
    assert G.is_satisfied_by(padded)


def test_build_reduction_two_clause_numbers():
    R = build_reduction(two_clause_instance())
    assert R.tournament.n == 27
    assert R.alpha == 15
    assert R.threshold == 67
    assert len(R.tournament.backward) == 67
    assert len(R.variables) == 3
    assert len(R.clauses) == 3  # two real clauses plus the dummy


def test_backward_count_equals_threshold():
    # both quantities reduce to the same sum over the construction parts
    for F in (
        two_clause_instance(),
        Cnf3Instance(1, ()),
        Cnf3Instance(3, (((0, True), (1, True)), ((0, True), (2, True)))),
    ):
        R = build_reduction(normalize(F))
        assert len(R.tournament.backward) == R.threshold


def test_build_reduction_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalize"):
        build_reduction(Cnf3Instance(2, ()))
    with pytest.raises(ValueError, match="normalize"):
        build_reduction(Cnf3Instance(3, (((0, True), (1, True)),)))


def test_occurrence_arc_targets():
    # variable 0 occurs positively twice: first hit goes to x1, second to x2
    F = Cnf3Instance(3, (((0, True), (1, True)), ((0, True), (2, True))))
    R = build_reduction(F)
    g = R.variables[0]
    heads = [a.head for a in R.vc_arcs if a.var == 0 and not a.is_dummy]
    assert heads == [g.x1, g.x2]
    # 2-clauses anchor their occurrence arcs at the middle vertex
    tails = {a.tail for a in R.vc_arcs if a.clause == 0}
    assert tails == {R.clauses[0].c2}
    # negative occurrences point at x_bar
    R2 = build_reduction(two_clause_instance())
    neg = [a for a in R2.vc_arcs if a.clause == 0 and a.var == 0]
    assert neg[0].head == R2.variables[0].x_bar
    three_tails = {a.tail for a in R2.vc_arcs if a.clause == 0}
    assert three_tails == {R2.clauses[0].c3}
    # three dummy arcs per variable, leaving the last gadget
    dummies = [a for a in R2.vc_arcs if a.is_dummy]
    assert len(dummies) == 9
    dummy_gadget = R2.clauses[-1]
    assert {a.tail for a in dummies} == set(dummy_gadget.positions())


def test_gadget_triangles_and_out_degrees():
    R = build_reduction(two_clause_instance())
    T = R.tournament
    for g in R.variables:
        tris = gadget_triangles(g)
        assert validate_triangle_packing(T, [tris[0], tris[2]])
        packs = variable_gadget_packings(g)
        X = g.positions()
        # free internal out-degrees of the literal vertices decide the
        # decoding: 'bot' starves x1 and x2, the 'top' variants do not
        grid = {}
        for key, pack in packs.items():
            assert validate_triangle_packing(T, pack)
            grid[key] = (
                local_out_degree(T, X, pack, g.x1),
                local_out_degree(T, X, pack, g.x2),
                local_out_degree(T, X, pack, g.x_bar),
            )
        assert grid["top"] == (1, 1, 3)
        assert grid["top_prime"] == (1, 0, 3)
        assert grid["bot"] == (0, 0, 4)


def satisfying_assignments(F):
    for bits in itertools.product([False, True], repeat=F.n_vars):
        if F.is_satisfied_by(bits):
            yield list(bits)


def test_certificate_round_trip_all_satisfying():
    F = two_clause_instance()
    R = build_reduction(F)
    sats = list(satisfying_assignments(F))
    assert len(sats) == 6
    for assignment in sats:
        packing = certificate_packing(R, assignment)
        assert len(packing) == R.threshold
        assert validate_triangle_packing(R.tournament, packing)
        assert decode_assignment(R, packing) == assignment


def test_certificate_rejects_falsifying():
    F = two_clause_instance()
    R = build_reduction(F)
    for assignment in ([True, False, True], [False, True, False]):
        assert not F.is_satisfied_by(assignment)
        with pytest.raises(ValueError, match="satisfy"):
            certificate_packing(R, assignment)
    with pytest.raises(ValueError, match="covers"):
        certificate_packing(R, [True])


def test_decode_rejects_wrong_size():
    R = build_reduction(two_clause_instance())
    packing = certificate_packing(R, [True, True, True])
    with pytest.raises(ValueError, match="size"):
        decode_assignment(R, packing[:-1])


def test_decode_rejects_nonconforming_gadget():
    R = build_reduction(two_clause_instance())
    packing = certificate_packing(R, [True, True, True])
    inside = set(R.variables[1].positions())
    k = next(i for i, tri in enumerate(packing) if set(tri.vertices()) <= inside)
    outside = next(tri for tri in packing if not set(tri.vertices()) <= inside)
    with pytest.raises(ValueError, match="gadget 1 restriction"):
        decode_assignment(R, packing[:k] + [outside] + packing[k + 1 :])


def test_smallest_reduction_matches_oracle():
    # a clause-free formula yields a 9-vertex tournament the exhaustive
    # solver can still handle; the optimum must hit the threshold
    R = build_reduction(Cnf3Instance(1, ()))
    assert R.tournament.n == 9
    assert R.threshold == 6
    size, packing = exact_max_triangle_packing(R.tournament)
    assert size == R.threshold
    cert = certificate_packing(R, [True])
    assert len(cert) == R.threshold
    assert validate_triangle_packing(R.tournament, cert)
    assert decode_assignment(R, cert) == [True]
    cert_false = certificate_packing(R, [False])
    assert decode_assignment(R, cert_false) == [False]
