"""Route-level benchmark of tourpack.

    python3 perfbench/run.py --workload decide-small --seed 1 --seconds 15 --trace 0

Runs one workload in this process: one client, one thread, a closed loop
over whole rounds of a fixed, seeded list of operations, until the
operations have taken ``--seconds``.  Outputs are checked afterwards
against references computed apart from tourpack.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, their times
scaled to a nominal machine speed by a probe loop around every timed
call (see ``Machine``), and the per-layer metrics with ``--trace 1``.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import stages
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUPS_PER_ROUND = 5
# What the machine probe takes on the nominal machine that the end-to-end
# times are expressed in; about its median on the machine this was written on.
PROBE_REF_S = 0.03
MODULES = ("cli", "core", "formats", "fpt", "generators", "kernel", "oracle",
           "reduction", "sparse", "steiner")


def import_tourpack() -> SimpleNamespace:
    """Import tourpack from this checkout's ``src``, never from elsewhere."""
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    pkg = importlib.import_module("tourpack")
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "tourpack":
        raise ImportError(f"tourpack imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"tourpack.{m}") for m in MODULES})


def machine_probe() -> float:
    """Seconds for a fixed pure-Python loop: the machine's speed just now."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return time.perf_counter() - start


class Machine:
    """Times calls between machine probes, to take the machine's speed out.

    The probe runs before the first timed call and after every one, so each
    call sits between two probes.  ``timed`` returns the call's result, its
    wall time, and that time scaled to the nominal machine: multiplied by
    ``PROBE_REF_S`` over the mean of the two probes around it.
    """

    def __init__(self) -> None:
        self.probes = [machine_probe()]

    def timed(self, fn):
        start = time.perf_counter()
        result = fn()
        took = time.perf_counter() - start
        self.probes.append(machine_probe())
        probe = (self.probes[-2] + self.probes[-1]) / 2
        return result, took, took * PROBE_REF_S / probe


def set_up(build, workdir: str, machine: Machine):
    """Import tourpack afresh and build the inputs.

    Returns the operations, the wall time and the scaled time.  tourpack
    is dropped from ``sys.modules`` and the garbage collected first,
    untimed, so every set-up pays for the import and an earlier set-up's
    modules do not count in the peak resident set.
    """
    for name in [m for m in sys.modules if m == "tourpack" or m.startswith("tourpack.")]:
        del sys.modules[name]
    gc.collect()
    return machine.timed(lambda: build(import_tourpack(), workdir))


def _call(op) -> tuple[int | None, str]:
    try:
        return op.run()
    except (Exception, SystemExit):
        return None, traceback.format_exc()


def measure(build, workdir: str, seconds: float, tracer: stages.Tracer | None):
    """Whole rounds until the operations have taken ``seconds`` of wall time.

    Each round starts with ``SETUPS_PER_ROUND`` timed set-ups and runs the
    operations of the last one.  The machine's speed drifts over tens of
    seconds, so set-ups spread over the run see the same machine as the
    operations do, where set-ups made only at its start would see one
    moment of it.

    Returns the operations, the set-up times and the latencies (each a
    list of (wall, scaled) pairs, see ``Machine``; with ``tracer`` the
    traced replay runs between two calls, so only the wall times hold),
    the machine probes,
    the first output of every operation, the set of operations whose
    output changed between rounds, and per-round trace figures when
    ``tracer`` is given.
    """
    machine = Machine()
    ops = None
    setups: list[tuple[float, float]] = []
    latencies: list[tuple[float, float]] = []
    first: dict[int, tuple[int | None, str]] = {}
    unstable: set[int] = set()
    rounds: list[dict] = []
    busy = 0.0
    while busy < seconds:
        for _ in range(SETUPS_PER_ROUND):
            ops = None  # so that set_up can collect the previous set-up
            ops, took, scaled = set_up(build, workdir, machine)
            setups.append((took, scaled))
        if tracer is not None:
            tracer.counts = Counter()
            per_round = {"self": Counter(), "route": 0.0, "overhead": 0.0,
                         "stages": 0.0, "untraced": 0.0}
            rounds.append(per_round)
        for i, op in enumerate(ops):
            gc.collect()
            (rc, out), latency, scaled = machine.timed(lambda: _call(op))
            latencies.append((latency, scaled))
            busy += latency
            if i not in first:
                first[i] = (rc, out)
            elif first[i] != (rc, out):
                unstable.add(i)
            if tracer is None:
                continue
            tracer.begin(len(latencies) - 1)
            mark = len(tracer.spans)
            gc.collect()
            start = time.perf_counter()
            try:
                replay = op.trace(tracer)
            except Exception:
                replay = traceback.format_exc()
            traced = time.perf_counter() - start
            busy += traced
            if replay != out:
                tracer.count("trace.diverged", 1)
                print(f"# trace of {op.kind} diverged from its route", file=sys.stderr)
            staged = tracer.stage_seconds(mark)
            per_round["self"].update(tracer.self_times(mark))
            per_round["stages"] += staged
            per_round["untraced"] += latency
            per_round["route"] += latency - staged
            per_round["overhead"] += traced - latency
        if tracer is not None:
            per_round["counts"] = Counter(tracer.counts)
    return ops, setups, latencies, machine.probes, first, unstable, rounds


def verify(ops, first, unstable) -> tuple[list[bool], bool]:
    """Check every distinct operation; returns (failed per op, correct).

    A failed instance of a known fault leaves ``correct`` true only when
    it exits 0, prints the same output every round, and that output is
    exactly what the fault prints; any other failure is a new fault.
    """
    failed, correct = [], True
    for i, op in enumerate(ops):
        rc, out = first[i]
        if rc != 0:
            err = f"exit code {rc}: {out.strip()[-400:]}"
        elif i in unstable:
            err = "output differs between rounds"
        else:
            try:
                err = op.check(out)
            except Exception:
                err = traceback.format_exc()
        failed.append(err is not None)
        if err is not None:
            known = rc == 0 and i not in unstable and out == op.fault_output
            print(f"# {'known fault' if known else 'FAILED'}: {op.kind} op {i}: {err}",
                  file=sys.stderr)
            correct &= known
    return failed, correct


def layer_metrics(rounds: list[dict]) -> tuple[dict, dict]:
    """Per-round figures: the median over rounds for times, counts as they are.

    Returns the per-layer metrics and the diagnostics, which have no
    better direction.
    """
    med = statistics.median
    metrics = {}
    for name in stages.SELF_TIMES:
        metrics[f"{name}.self_s"] = (med([r["self"][name] for r in rounds]), "s")
    for name in stages.COUNTS:
        metrics[name] = (med([r["counts"][name] for r in rounds]), "count")
    trials = rounds[0]["counts"]["fpt.trials"]
    metrics["fpt.trial_s"] = (metrics["fpt.decide.self_s"][0] / trials if trials else 0.0, "s")
    metrics["cli.route.self_s"] = (med([r["route"] for r in rounds]), "s")
    metrics["trace.overhead_s"] = (med([r["overhead"] for r in rounds]), "s")
    diagnostics = {name: (med([r["counts"][name] for r in rounds]), "count")
                   for name in stages.DIAGNOSTICS}
    diagnostics["trace.span_share"] = (med([r["stages"] / r["untraced"] for r in rounds]), "ratio")
    return metrics, diagnostics


def end_to_end(n_ops: int, setups, latencies, probes, peak_rss_mb) -> tuple[dict, dict]:
    """The end-to-end metrics from scaled times, and the same in wall time.

    Each operation is taken at its median latency over the rounds, so that
    a few seconds of interference from outside touch one round only.
    Returns the metrics and the diagnostics: the wall-time figures and the
    median machine probe.
    """
    med = statistics.median

    def figures(pick: int, suffix: str) -> dict:
        typical = [med(t[pick] for t in latencies[i::n_ops]) for i in range(n_ops)]
        return {
            f"ops_per_s{suffix}": (n_ops / sum(typical), "1/s"),
            f"latency_s.p50{suffix}": (med(typical), "s"),
            f"setup_s{suffix}": (med(t[pick] for t in setups), "s"),
        }

    metrics = figures(1, "")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    diagnostics = figures(0, ".wall")
    diagnostics["machine_probe_s"] = (med(probes), "s")
    return metrics, diagnostics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = OUT_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # the benchmark's own choices for the inputs, made once and untimed
    build = WORKLOADS[args.workload](args.seed)
    tracer = stages.Tracer() if args.trace else None
    try:
        try:
            ops, setups, latencies, probes, first, unstable, rounds = measure(
                build, str(workdir), args.seconds, tracer)
        except ImportError as exc:
            print(f"error: cannot import tourpack: {exc}", file=sys.stderr)
            return 2
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed, correct = verify(ops, first, unstable)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n_rounds = len(latencies) // len(ops)
    diagnostics = {}
    if args.trace:
        metrics, diagnostics = layer_metrics(rounds)
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "workload": args.workload,
                "seed": args.seed,
                "ops": [op.kind for op in ops],
                "diagnostics": {name: value for name, (value, _) in diagnostics.items()},
                "spans": [vars(s) for s in tracer.spans],
            }, fh)
        print(f"# spans written to {path.relative_to(ROOT)}")
    else:
        metrics, diagnostics = end_to_end(len(ops), setups, latencies, probes, peak_rss_mb)
    print(f"# {args.workload} seed {args.seed}: {len(ops)} operations x {n_rounds} rounds")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6g} {unit}")
    for name, (value, unit) in diagnostics.items():
        print(f"# diagnostic {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(latencies),
        "failed": n_rounds * sum(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
