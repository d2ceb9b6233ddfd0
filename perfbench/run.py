#!/usr/bin/env python3
"""Solve benchmark for modchain: complete `solve_chain` runs, checked against an oracle.

A closed loop in one process: one serial solve at a time, each on a freshly
imported `modchain` (so every solve pays the cold caches a command-line user
pays). Every solve is compared with a brute-force oracle; a mismatch, an
exception or an incomplete report counts as failed.

    python3 perfbench/run.py --workload lift_heavy --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --all --seconds 60

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones from
a separate traced run (see perfbench/README.md). The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from layers import LAYERS, LayerTracer  # noqa: E402
from oracle import expected_solutions  # noqa: E402

SETUP_REPEATS = 9  # extra fresh setups per run, on top of one per solve

# (layer, counter) pairs reported from the tracer's totals as "<layer>.<counter>"
LAYER_COUNTS = (
    ("plan", "calls"),
    ("plan", "ordered_combos"),
    ("mitm", "calls"),
    ("mitm", "emitted"),
    ("mitm", "table_entries"),
    ("dlog_lift", "calls"),
    ("dlog_lift", "combos"),
    ("dlog_lift", "emitted"),
)


@dataclass(frozen=True)
class Workload:
    direction: str
    n: int
    chain: str


# The problems are fixed, not sampled: a (direction, n) pair is the unit a
# user asks the solver to prove, and --seed changes nothing about it.
WORKLOADS = {
    "lift_heavy": Workload("3=sum2", 14, "t2.chain"),
    "base_heavy": Workload("2=sum3", 16, "t3.chain"),
}


@dataclass
class Solve:
    """One timed solve. Holds plain numbers only: keeping the RunReport would
    keep that import of modchain, and all its caches, alive for the whole run."""

    seconds: float
    ok: bool
    counters: dict[str, int] | None = None  # engine_counters(report), when ok
    steps2_4_s: float = 0.0


class BenchmarkError(Exception):
    """A check of the benchmark's own invariants failed."""


# ---------------------------------------------------------------------------
# machine speed
#
# On a shared two-core VM each core switches between a fast and a slow regime
# every few seconds to minutes, independently of the other core, so the raw
# wall time of a run cannot stay within a bound. Each solve is therefore timed
# between two blocks of a fixed reference workload, run on every core the
# solve may use, and scaled to the reference's nominal speed. The reference
# uses none of modchain's code, and it allocates almost nothing: an earlier,
# allocation-heavy reference timed the heap the last solve left behind rather
# than the machine. See README.md.

REFERENCE_NOMINAL_S = 0.1  # seconds per reference pass that solve_s is scaled to
REFERENCE_PASSES = 5  # passes per core between two solves; fewer let the reference's own noise through


def _reference_work() -> int:
    M = (1 << 89) - 1
    seen = [0] * 4096
    v, acc = 1, 0
    for i in range(300_000):
        v = v * 3 % M
        slot = v & 4095
        acc += seen[slot]
        seen[slot] = i
    return acc


def reference_seconds(cpus: list[int]) -> float:
    """Mean wall seconds of one pass of the reference workload, timed on each of `cpus` in turn."""
    allowed = os.sched_getaffinity(0)
    gc.disable()  # a collection would time the heap the solves left, not the machine
    try:
        total = 0.0
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            for _ in range(REFERENCE_PASSES):
                _reference_work()
            total += time.perf_counter() - t0
        return total / (REFERENCE_PASSES * len(cpus))
    finally:
        os.sched_setaffinity(0, allowed)
        gc.enable()


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """Wall seconds of a solve, scaled by the reference blocks on either side."""
    return seconds * 2 * REFERENCE_NOMINAL_S / (ref_before + ref_after)


# ---------------------------------------------------------------------------
# set-up and one solve


def fresh_setup(chain_name: str):
    """Import modchain from scratch and load a bundled chain.

    Returns (modchain, chain, setup seconds, chain-load seconds).
    """
    for name in [m for m in sys.modules if m == "modchain" or m.startswith("modchain.")]:
        del sys.modules[name]
    gc.collect()  # free the previous import now, so no solve pays for it
    t0 = time.perf_counter()
    modchain = importlib.import_module("modchain")
    t1 = time.perf_counter()
    chain = modchain.chains.bundled_chain(chain_name)
    t2 = time.perf_counter()
    return modchain, chain, t2 - t0, t2 - t1


def solve_once(modchain, chain, wl: Workload, workers: int, expected) -> Solve:
    spec = modchain.ProblemSpec.from_direction(wl.direction, wl.n)
    config = modchain.SolverConfig(workers=workers)
    t0 = time.perf_counter()
    try:
        solutions, report = modchain.solve_chain(spec, chain, config)
    except Exception:
        # a failed solve is a measured outcome, not a benchmark crash
        traceback.print_exc()
        return Solve(time.perf_counter() - t0, False)
    seconds = time.perf_counter() - t0
    got = [(s.x, tuple(s.exponents)) for s in solutions]
    ok = report.complete and len(set(got)) == len(got) and set(got) == expected
    if not ok:
        print(f"error: solve mismatch, got {sorted(got)}, expected {sorted(expected)}", file=sys.stderr)
        return Solve(seconds, False)
    steps2_4_s = sum(st.seconds for st in report.steps if 2 <= st.index <= 4)
    return Solve(seconds, True, engine_counters(report), steps2_4_s)


def engine_counters(report) -> dict[str, int]:
    """Work counters read from a RunReport; they do not depend on the worker count."""
    incoming = [st.incoming for st in report.steps]
    return {
        "base.classes": report.base_count,
        "engine.classes_in": sum(incoming),
        "engine.peak_working": max(incoming),
        "engine.steps": report.terminated_at,
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def run_untraced(wl: Workload, seconds: float, expected) -> tuple[dict, list[Solve]]:
    start = time.perf_counter()
    # keep the solves on the core their reference blocks are timed on
    cpus = sorted(os.sched_getaffinity(0))[:1]
    os.sched_setaffinity(0, cpus)
    refs = [reference_seconds(cpus)]
    # set-ups are too short to sit between two reference blocks; each is
    # scaled by the block just before it
    setups = [fresh_setup(wl.chain)[2] * REFERENCE_NOMINAL_S / refs[0] for _ in range(SETUP_REPEATS)]
    solves: list[Solve] = []
    solve_s: list[float] = []
    while True:
        modchain, chain, setup_s, _ = fresh_setup(wl.chain)
        setups.append(setup_s * REFERENCE_NOMINAL_S / refs[-1])
        solves.append(solve_once(modchain, chain, wl, 1, expected))
        refs.append(reference_seconds(cpus))
        solve_s.append(scaled(solves[-1].seconds, refs[-2], refs[-1]))
        next_cost = setup_s + solves[-1].seconds + refs[-1] * REFERENCE_PASSES
        if time.perf_counter() - start + next_cost > seconds:
            break
    print(f"raw solve wall seconds {[round(s.seconds, 3) for s in solves]}, "
          f"reference pass seconds {[round(r, 3) for r in refs]}", file=sys.stderr)
    metrics = {
        "solve_s": (statistics.median(solve_s), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, solves


def traced_round(wl: Workload, expected) -> tuple[dict, list[Solve]]:
    """One untraced solve, one traced solve and one untraced solve with two pool
    workers, each between reference blocks (timed on both cores) as in the timed run."""
    cpus = sorted(os.sched_getaffinity(0))
    refs = [reference_seconds(cpus)]
    modchain, chain, _, _ = fresh_setup(wl.chain)
    untraced = solve_once(modchain, chain, wl, 1, expected)
    refs.append(reference_seconds(cpus))

    modchain, chain, _, _ = fresh_setup(wl.chain)
    with LayerTracer(modchain.solver) as tracer:
        traced = solve_once(modchain, chain, wl, 1, expected)
    refs.append(reference_seconds(cpus))

    modchain, chain, _, _ = fresh_setup(wl.chain)
    pooled = solve_once(modchain, chain, wl, 2, expected)
    refs.append(reference_seconds(cpus))

    solves = [untraced, traced, pooled]
    untraced_s, traced_s, pooled_s = (scaled(s.seconds, refs[i], refs[i + 1]) for i, s in enumerate(solves))
    round_ = {"untraced_s": untraced_s, "traced_s": traced_s, "speedup": untraced_s / pooled_s}
    if not all(s.ok for s in solves):
        return round_, solves

    counters = [s.counters for s in solves]
    if any(c != counters[0] for c in counters):
        raise BenchmarkError(f"work counters differ between 1 and 2 workers or under tracing: {counters}")

    totals = tracer.totals()
    if totals["base"].get("classes", 0) != counters[0]["base.classes"]:
        raise BenchmarkError("base layer returned a different class count than the RunReport")
    round_["counts"] = {
        **counters[0],
        **{f"{layer}.{key}": totals[layer].get(key, 0) for layer, key in LAYER_COUNTS},
    }
    round_["times"] = {
        **{f"{layer}.busy_s": totals[layer]["busy_s"] for layer in LAYERS},
        "engine.self_s": traced.seconds - tracer.busy(),
        "engine.steps2_4_s": traced.steps2_4_s,
    }
    return round_, solves


def run_traced(wl: Workload, seconds: float, expected) -> tuple[dict, list[Solve]]:
    start = time.perf_counter()
    loads = [fresh_setup(wl.chain)[3] for _ in range(SETUP_REPEATS)]
    rounds: list[dict] = []
    solves: list[Solve] = []
    while True:
        t0 = time.perf_counter()
        round_, round_solves = traced_round(wl, expected)
        solves += round_solves
        if "counts" not in round_:
            return {}, solves  # a failed solve: nothing to trace
        if rounds and round_["counts"] != rounds[0]["counts"]:
            raise BenchmarkError(f"traced counts did not repeat: {rounds[0]['counts']} vs {round_['counts']}")
        rounds.append(round_)
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            break

    def med(key):
        return statistics.median(r[key] for r in rounds)

    counts = rounds[0]["counts"]
    metrics = {"chains.load_s": (statistics.median(loads), "s")}
    for key in rounds[0]["times"]:
        metrics[key] = (statistics.median(r["times"][key] for r in rounds), "s")
    for key, value in counts.items():
        metrics[key] = (value, "count")
    metrics["mitm.yield"] = (_ratio(counts["mitm.emitted"], counts["mitm.table_entries"]), "ratio")
    metrics["dlog_lift.yield"] = (_ratio(counts["dlog_lift.emitted"], counts["dlog_lift.combos"]), "ratio")
    metrics["pool.speedup"] = (med("speedup"), "ratio")
    metrics["trace.overhead"] = (med("traced_s") / med("untraced_s") - 1, "ratio")
    return metrics, solves


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------------
# command line


def check_program() -> None:
    """Refuse to run unless modchain is importable from this checkout's src/."""
    if not (SRC / "modchain" / "__init__.py").is_file():
        sys.exit(f"error: no modchain sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import modchain

    if Path(modchain.__file__).resolve().parent != (SRC / "modchain").resolve():
        sys.exit(f"error: imported modchain from {modchain.__file__}, not from {SRC}")


def run_workload(name: str, seconds: float, trace: bool) -> int:
    wl = WORKLOADS[name]
    check_program()
    expected = expected_solutions(wl.direction, wl.n)
    try:
        metrics, solves = (run_traced if trace else run_untraced)(wl, seconds, expected)
        invariants_ok = True
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        metrics, solves, invariants_ok = {}, [], False
    failed = sum(not s.ok for s in solves)
    correct = invariants_ok and failed == 0 and bool(metrics)
    # a broken invariant discards the run's solves; report it as one failed attempt
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": max(len(solves), 1),
        "failed": failed if solves else 1,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Run every workload in its own process and print each metric with its unit."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: benchmark failed with exit code {proc.returncode}")
            status = 1
            if not lines:
                continue
        result = json.loads(lines[-1])
        for key, m in result["metrics"].items():
            print(f"{name:<11} {key:<20} {m['value']:>14.6g} {m['unit']}")
        error_rate = result["failed"] / result["attempted"]
        print(f"{name:<11} {'error_rate':<20} {error_rate:>14.6g} ratio"
              f"  ({result['failed']} of {result['attempted']} solves)")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=sorted(WORKLOADS))
    group.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--seed", type=int, default=0, help="accepted for a uniform command line; the problems are fixed")
    ap.add_argument("--seconds", type=int, default=60, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
