"""Steadiness check: two sets of runs of the same code must agree.

    python3 perfbench/steady.py [--seeds 10]

Runs the command in BENCHMARK.json once per workload and seed, for seeds
1..N, then does the whole set again.  For every workload and end-to-end
metric it reports each set's median and spread (the distance between the
first and third quartile over the median) and whether

* each spread, that of ``setup_s`` included, is within the metric's bound,
* the two medians differ, in either direction, by at most the bound,
* every run is correct and the share of failed operations is the same.

The order of the two sets means nothing for the same code, so a second
set that reads better by more than the bound fails as well.

Each run's diagnostics (the ``# diagnostic`` lines: wall-time figures
and the median machine probe) are kept with its result, and the report
gives each set's median machine probe, so that a change in the machine's
own speed between the sets shows.  Runs one process at a time.  The
table goes to stdout and every run's result to
``.perfbench-out/steady-<time>.json``; the exit code is 0 only when
everything agrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["diagnostics"] = {
        name: float(value)
        for name, value, _ in (l.split()[2:5] for l in lines if l.startswith("# diagnostic "))
    }
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(bench: dict, results: dict) -> tuple[list[str], bool]:
    lines = [f"{'workload':<15} {'metric':<14} {'median 1':>11} {'median 2':>11} "
             f"{'spread 1':>8} {'spread 2':>8} {'bound':>6}  verdict"]
    ok = True
    for workload in results:
        sets = results[workload]
        shares = {Fraction(r["failed"], r["attempted"]) for runs in sets for r in runs}
        correct = all(r["correct"] for runs in sets for r in runs)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            m1, m2 = (statistics.median(v) for v in values)
            s1, s2 = (spread(v) for v in values)
            moved = (m2 - m1) / m1
            problems = []
            if max(s1, s2) > bound:
                problems.append("spread over bound")
            if abs(moved) > bound:
                problems.append(f"medians differ by {moved:+.1%}")
            verdict = "; ".join(problems) or (
                "agree" if max(s1, s2) < bound / 3
                else "agree (spread over a third of the bound)"
            )
            ok &= not problems
            lines.append(f"{workload:<15} {name:<14} {m1:>11.5g} {m2:>11.5g} "
                         f"{s1:>8.3f} {s2:>8.3f} {bound:>6}  {verdict}")
        share = ", ".join(str(s) for s in sorted(shares))
        probes = " / ".join(
            f"{statistics.median(r['diagnostics']['machine_probe_s'] for r in runs):.4f}"
            for runs in sets)
        lines.append(f"{workload:<15} failed share {share}; "
                     f"{'all runs correct' if correct else 'SOME RUNS INCORRECT'}; "
                     f"machine probe median {probes} s")
        ok &= correct and len(shares) == 1
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    results: dict[str, list[list[dict]]] = {w: [] for w in names}
    for s in range(2):
        for workload in names:
            runs = []
            for seed in range(1, args.seeds + 1):
                start = time.perf_counter()
                runs.append(run_once(bench, workload, seed))
                m = runs[-1]["metrics"]
                probe = runs[-1]["diagnostics"]["machine_probe_s"]
                print(f"# set {s + 1} {workload} seed {seed} ({time.perf_counter() - start:.0f} s, "
                      f"probe {probe:.4f} s): "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in m.items()), flush=True)
            results[workload].append(runs)

    lines, ok = compare(bench, results)
    print("\n".join(lines))
    out = ROOT / ".perfbench-out" / time.strftime("steady-%Y%m%d-%H%M%S.json")
    out.parent.mkdir(exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"seeds": args.seeds, "results": results, "report": lines, "ok": ok}, fh, indent=1)
    print(f"# results written to {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
