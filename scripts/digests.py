#!/usr/bin/env python3
"""Write or check sha256 digests of the solver's outputs on the bundled chains.

For each (direction, n) in CASES the digests cover the working set passed to
step_callback after every step, the StepStats without seconds, the run
report's outcome (complete, terminated_at, base_count, parity_shortcut) and
the solutions. Every case is solved with 1 and with 2 workers, which must
agree. A change that keeps the solver's outputs leaves every digest as it is;
regenerate the file only for a change that alters outputs on purpose.

--long runs the LONG cases instead of CASES: the settled cases beyond
CASES, which take minutes each (2=sum3 n=22 peaks above 1 GB). --case,
which may be repeated, runs only the named cases of CASES (or of LONG, with
--long). Rewriting the file replaces only the cases run and keeps the
others' entries.

Examples:
    python3 scripts/digests.py                  # rewrite the CASES entries
    python3 scripts/digests.py --check          # compare every CASES case with the file
    python3 scripts/digests.py --check --long   # compare the LONG cases
    python3 scripts/digests.py --long --case "3=sum2 n=18"   # rewrite one LONG entry
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

from modchain import ProblemSpec, SolverConfig, solve_chain
from modchain.chains import bundled_chain
from modchain.cli import BUNDLED

CASES = [("3=sum2", n) for n in range(1, 17)] + [("2=sum3", n) for n in range(2, 21, 2)]
LONG = [("3=sum2", n) for n in range(17, 21)] + [("2=sum3", 22)]
DIGESTS = Path(__file__).resolve().parents[1] / "tests" / "data" / "digests.json"
WORKERS = (1, 2)


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def case_key(direction: str, n: int) -> str:
    return f"{direction} n={n}"


def select_cases(keys: list[str], long: bool = False) -> list[tuple[str, int]]:
    """LONG (long) or CASES, restricted to the cases named in `keys` if any are.

    Raises ValueError for a key that is not in the list.
    """
    pool = LONG if long else CASES
    unknown = set(keys) - {case_key(d, n) for d, n in pool}
    if unknown:
        where = "LONG" if long else "CASES (a LONG case needs --long)"
        raise ValueError(
            f"unknown case(s) {', '.join(sorted(unknown))}: not in {where}; "
            f"keys look like {case_key(*pool[0])!r}"
        )
    return [c for c in pool if not keys or case_key(*c) in keys]


def case_digests(direction: str, n: int, workers: int = 1) -> dict:
    """Digests of one serial (workers=1) or pooled solve of (direction, n)."""
    working: list[str] = []

    def grab(stats, classes) -> None:
        working.append(_sha([[s.x, list(s.exponents), s.modulus_index] for s in classes]))

    spec = ProblemSpec.from_direction(direction, n)
    solutions, report = solve_chain(
        spec, bundled_chain(BUNDLED[direction]), SolverConfig(workers=workers), grab
    )
    stats = [{k: v for k, v in s._asdict().items() if k != "seconds"} for s in report.steps]
    outcome = [report.complete, report.terminated_at, report.base_count, report.parity_shortcut]
    return {
        "working": working,
        "stats": _sha(stats),
        "report": _sha(outcome),
        "solutions": _sha([[s.x, list(s.exponents)] for s in solutions]),
    }


def agreed_digests(direction: str, n: int) -> dict:
    """case_digests at every worker count in WORKERS; raises if they differ."""
    first, *rest = (case_digests(direction, n, w) for w in WORKERS)
    for w, other in zip(WORKERS[1:], rest):
        if other != first:
            raise AssertionError(f"{case_key(direction, n)}: {w} workers differ from {WORKERS[0]}")
    return first


def differences(got: dict, want: dict | None) -> str:
    """Which digests of one case differ from the recorded ones."""
    if want is None:
        return f"not in {DIGESTS.name}"
    out = [k for k in ("stats", "report", "solutions") if got[k] != want.get(k)]
    steps = [i for i, (a, b) in enumerate(zip(got["working"], want["working"]), 1) if a != b]
    if steps:
        out.append(f"working set (first at step {steps[0]})")
    elif len(got["working"]) != len(want["working"]):
        out.append("number of steps")
    return "differs in " + ", ".join(out)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help=f"compare with {DIGESTS.name} instead of rewriting it")
    ap.add_argument("--long", action="store_true", help="run the LONG cases instead of CASES")
    ap.add_argument("--case", action="append", default=[], metavar="KEY",
                    help='run only this case, e.g. "3=sum2 n=18" (repeatable)')
    args = ap.parse_args()
    try:
        cases = select_cases(args.case, args.long)
    except ValueError as exc:
        ap.error(str(exc))

    want = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    got = {}
    failed = []
    for direction, n in cases:
        key = case_key(direction, n)
        try:
            got[key] = agreed_digests(direction, n)
        except AssertionError as exc:
            failed.append(str(exc))
            continue
        status = "ok"
        if args.check and got[key] != want.get(key):
            status = differences(got[key], want.get(key))
            failed.append(f"{key}: {status}")
        print(f"{key}: {status}", flush=True)
    for line in failed:
        print(f"FAIL {line}", file=sys.stderr)
    if failed:
        return 1
    if not args.check:
        merged = {**want, **got}
        merged = {k: merged[k] for k in (case_key(d, n) for d, n in CASES + LONG) if k in merged}
        DIGESTS.parent.mkdir(parents=True, exist_ok=True)
        DIGESTS.write_text(json.dumps(merged, indent=1) + "\n")
        print(f"wrote {len(got)} cases to {DIGESTS}, {len(merged)} in all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
