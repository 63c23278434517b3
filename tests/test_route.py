import dataclasses
import json
import random
import time

import pytest

from tourpack import BudgetExceeded, OracleBudget, cli, solve
from tourpack.core import (
    LinearTournament,
    validate_cycle_packing,
    validate_triangle_packing,
)
from tourpack.formats import format_tournament, parse_packing
from tourpack.generators import random_tournament
from tourpack.oracle import exact_max_cycle_packing, exact_max_triangle_packing


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def answer(report, k):
    """The report's verdict on "packs k": sparse routes give only an optimum."""
    return report.decision if report.optimum is None else report.optimum >= k


def check_witness(T, report, k, cycles):
    """An optimum or a "yes" carries a valid witness of its size; a "no" none."""
    if report.optimum is None and not report.decision:
        assert report.witness is None
        return
    members = parse_packing("".join(line + "\n" for line in report.witness))
    valid = validate_cycle_packing if cycles else validate_triangle_packing
    assert len(members) == (k if report.optimum is None else report.optimum)
    assert valid(T, members)


@pytest.mark.parametrize("n, seed, k", [(6, 14, 3), (7, 23, 4)])
def test_cycle_decision_uses_cycle_oracle(tmp_path, capsys, n, seed, k):
    # the cycle optimum k exceeds the triangle optimum on both instances
    t = random_tournament(n, seed)
    assert exact_max_triangle_packing(t)[0] < k
    path = tmp_path / "t.txt"
    path.write_text(format_tournament(t))
    code, out, _ = run(capsys, "solve", str(path), "--cycles", "-k", str(k))
    assert code == 0
    head, *lines = out.splitlines()
    assert head == "yes" and len(lines) == k
    assert all(line.startswith("cycle ") for line in lines)
    assert validate_cycle_packing(t, parse_packing(out.split("\n", 1)[1]))
    code, out, _ = run(capsys, "solve", str(path), "--cycles", "-k", str(k + 1))
    assert code == 0 and out == "no\n"


def test_fpt_refuses_cycles(tmp_path, capsys):
    path = tmp_path / "t.txt"
    path.write_text(format_tournament(random_tournament(6, 14)))
    code, out, err = run(capsys, "solve", str(path), "--fpt", "--cycles", "-k", "1")
    assert code == 2 and out == "" and "triangle" in err
    with pytest.raises(ValueError):
        solve(random_tournament(6, 14), 1, method="fpt", cycles=True)


def test_fpt_route_refuses_at_time_limit():
    # kernelizes to 13 vertices, past the exact budget, so the FPT search
    # would run trial_count(5, 0.001) = 22,581,573 trials
    t = LinearTournament(17, frozenset(
        {(6, 5), (7, 1), (8, 7), (9, 6), (11, 10), (13, 12), (15, 1), (16, 8)}
    ))
    start = time.monotonic()
    with pytest.raises(BudgetExceeded):
        solve(t, 5, budget=OracleBudget(time_limit=0.5))
    assert time.monotonic() - start < 5


def test_route_agrees_with_oracles(tmp_path, capsys):
    rng = random.Random(7)
    for trial in range(12):
        n = rng.randint(3, 9)
        t = random_tournament(n, rng.randrange(10**6))
        path = str(tmp_path / f"t{trial}.txt")
        with open(path, "w") as fh:
            fh.write(format_tournament(t))
        tri_opt = exact_max_triangle_packing(t)[0]
        cyc_opt = exact_max_cycle_packing(t)[0] if n <= 7 else None
        for k in range(1, 5):
            report = solve(t, k)
            assert answer(report, k) == (tri_opt >= k)
            check_witness(t, report, k, cycles=False)
            if cyc_opt is not None:
                report = solve(t, k, cycles=True)
                assert answer(report, k) == (cyc_opt >= k)
                check_witness(t, report, k, cycles=True)
        k = rng.randint(1, 4)
        calls = [
            ([], {}),
            (["-k", str(k)], {"k": k}),
            (["--exact"], {"method": "exact"}),
            (["--fpt", "-k", "1", "--seed", "3"], {"k": 1, "method": "fpt", "seed": 3}),
        ]
        if n <= 7:
            calls.append((["--cycles", "-k", str(k)], {"k": k, "cycles": True}))
        for flags, kwargs in calls:
            code, out, _ = run(capsys, "solve", path, *flags, "--json")
            assert code == 0
            expected = dataclasses.asdict(solve(t, **kwargs))
            got = json.loads(out)
            del expected["wall_time"], got["wall_time"]
            assert got == expected
