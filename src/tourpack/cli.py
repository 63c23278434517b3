"""Command line interface.

Exit codes: 0 success or pass, 1 failure or bad input data, 2 usage
error, 3 refusal because the instance exceeds the search budget.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import formats, generators
from .core import (
    LinearTournament,
    Triangle,
    check_cycle_packing,
    check_triangle_packing,
    enumerate_triangles,
    is_fully_sparse,
    is_sparse,
)
from .kernel import kernelize
from .oracle import BudgetExceeded
from .reduction import (
    build_reduction,
    certificate_packing,
    normalize,
    parse_dimacs,
)
from .route import solve
from .steiner import steiner_triple_system


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_out(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_tournament(path: str) -> LinearTournament:
    return formats.parse_tournament(_read(path))


def _cmd_gen(args) -> int:
    if args.sts is not None:
        system = steiner_triple_system(args.sts)
        body = "".join(f"{a} {b} {c}\n" for a, b, c in system.triples)
        _write_out(body, args.output)
        return 0
    if args.clique is not None:
        T = generators.clique_sts_tournament(args.clique)
    elif args.random is not None:
        T = generators.generate("random", args.random, args.seed)
    elif args.random_sparse is not None:
        T = generators.generate("random-sparse", args.random_sparse, args.seed)
    else:
        T = generators.generate(
            "random-fully-sparse", args.random_fully_sparse, args.seed
        )
    _write_out(formats.format_tournament(T), args.output)
    return 0


def _cmd_reduce(args) -> int:
    F = normalize(parse_dimacs(_read(args.cnf)))
    R = build_reduction(F)
    meta = [
        f"# threshold={R.threshold}",
        f"# alpha={R.alpha}",
    ]
    for i, g in enumerate(R.variables):
        meta.append(
            f"# var {i} r={g.r} xbar={g.x_bar} x1={g.x1} s={g.s} x2={g.x2} t={g.t}"
        )
    for j, g in enumerate(R.clauses):
        label = "dummy" if j == len(R.clauses) - 1 else str(j)
        meta.append(f"# clause {label} c1={g.c1} c2={g.c2} c3={g.c3}")
    body = formats.format_tournament(R.tournament) + "\n".join(meta) + "\n"
    _write_out(body, args.output)
    if args.output not in (None, "-"):
        _write_out("\n".join(meta) + "\n", args.output + ".meta")
    return 0


def _cmd_certify(args) -> int:
    original = parse_dimacs(_read(args.cnf))
    F = normalize(original)
    R = build_reduction(F)
    given = formats.parse_assignment(_read(args.assignment))
    assignment = []
    for var in range(F.n_vars):
        if var < original.n_vars:
            if var + 1 not in given:
                print(f"assignment missing v{var + 1}", file=sys.stderr)
                return 1
            assignment.append(given[var + 1])
        else:
            assignment.append(True)  # padding variables satisfy their clauses
    try:
        packing = certificate_packing(R, assignment)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_out(formats.format_packing(sorted(packing)), args.output)
    return 0


def _cmd_solve(args) -> int:
    T = _load_tournament(args.tournament)
    if args.method == "fpt" and args.k is None:
        print("error: --fpt requires -k", file=sys.stderr)
        return 2
    if args.method == "fpt" and args.cycles:
        print("error: --fpt decides triangle packing only", file=sys.stderr)
        return 2
    try:
        report = solve(
            T, args.k, method=args.method, cycles=args.cycles,
            delta=args.delta, seed=args.seed,
        )
    except BudgetExceeded as exc:
        print(f"refusing: {exc}", file=sys.stderr)
        return 3

    if args.json:
        print(json.dumps(dataclasses.asdict(report)))
        return 0
    if report.optimum is not None:
        print(f"optimum {report.optimum}")
    elif report.decision:
        print("yes")
    elif report.confidence is None:
        print("no")
    else:
        print(f"no (confidence {report.confidence})")
    for line in report.witness or []:
        print(line)
    return 0


def _cmd_kernelize(args) -> int:
    T = _load_tournament(args.tournament)
    result = kernelize(T, args.k)
    if result.outcome == "early-yes":
        print("early-yes")
        print(formats.format_packing(sorted(result.witness)), end="")
        return 0
    print("kernel")
    sys.stdout.write(formats.format_tournament(result.kernel))
    for new, old in enumerate(result.index_map):
        print(f"# map {new} {old}")
    return 0


def _cmd_verify(args) -> int:
    try:
        T = _load_tournament(args.tournament)
        packing = formats.parse_packing(_read(args.packing))
    except formats.FormatError as exc:
        print(f"fail: {exc}")
        return 1
    triangles_only = all(isinstance(m, Triangle) for m in packing)
    if triangles_only:
        err = check_triangle_packing(T, packing)
    else:
        err = check_cycle_packing(T, packing)
    if err is not None:
        print(f"fail: {err}")
        return 1
    if args.size is not None and len(packing) < args.size:
        print(f"fail: packing has {len(packing)} members, claimed {args.size}")
        return 1
    print(f"pass: {len(packing)} members, arc-disjoint")
    return 0


def _cmd_stats(args) -> int:
    T = _load_tournament(args.tournament)
    print(f"n {T.n}")
    print(f"backward {len(T.backward)}")
    print(f"sparse {'yes' if is_sparse(T) else 'no'}")
    print(f"fully-sparse {'yes' if is_fully_sparse(T) else 'no'}")
    print(f"triangles {len(enumerate_triangles(T))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tourpack",
        description="Arc-disjoint triangle and cycle packing in tournaments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate instances")
    kinds = gen.add_mutually_exclusive_group(required=True)
    kinds.add_argument("--random", type=int, metavar="N")
    kinds.add_argument("--random-sparse", type=int, metavar="N")
    kinds.add_argument("--random-fully-sparse", type=int, metavar="N")
    kinds.add_argument("--clique", type=int, metavar="N")
    kinds.add_argument("--sts", type=int, metavar="N")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", default=None)
    gen.set_defaults(func=_cmd_gen)

    red = sub.add_parser("reduce", help="formula to tournament")
    red.add_argument("cnf")
    red.add_argument("-o", "--output", default=None)
    red.set_defaults(func=_cmd_reduce)

    cert = sub.add_parser("certify", help="packing from a satisfying assignment")
    cert.add_argument("cnf")
    cert.add_argument("assignment")
    cert.add_argument("-o", "--output", default=None)
    cert.set_defaults(func=_cmd_certify)

    solve = sub.add_parser("solve", help="pack a tournament")
    solve.add_argument("tournament")
    modes = solve.add_mutually_exclusive_group()
    for flag, method in (("--sparse", "sparse-poly"), ("--exact", "exact"), ("--fpt", "fpt")):
        modes.add_argument(flag, dest="method", action="store_const", const=method)
    solve.add_argument("-k", type=int, default=None)
    solve.add_argument("--cycles", action="store_true")
    solve.add_argument("--delta", type=float, default=0.001)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--json", action="store_true")
    solve.set_defaults(func=_cmd_solve, method="auto")

    kern = sub.add_parser("kernelize", help="shrink a decision instance")
    kern.add_argument("tournament")
    kern.add_argument("-k", type=int, required=True)
    kern.set_defaults(func=_cmd_kernelize)

    ver = sub.add_parser("verify", help="check a packing against a tournament")
    ver.add_argument("tournament")
    ver.add_argument("packing")
    ver.add_argument("--size", type=int, default=None)
    ver.set_defaults(func=_cmd_verify)

    st = sub.add_parser("stats", help="instance statistics")
    st.add_argument("tournament")
    st.set_defaults(func=_cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (formats.FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
