#!/usr/bin/env python3
"""Run the solver for a range of n and print a timing/termination table.

The base and seconds columns are the run report's base enumeration time and
whole-run time.

Example:
    python3 scripts/sweep_solutions.py --direction 3=sum2 --n-max 14
"""

import argparse
import sys

from modchain import ChainExhausted, ModchainError, ProblemSpec, SolverConfig, solve_chain
from modchain.chains import DIRECTIONS
from modchain.cli import _error_exit, _load_chain, _positive_int


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--direction", choices=DIRECTIONS,
                    help="default: the chain file's direction, else 3=sum2")
    ap.add_argument("--n-max", type=_positive_int, default=14)
    ap.add_argument("--chain", help="chain file (default: the bundled one)")
    ap.add_argument("--workers", type=_positive_int, default=1)
    args = ap.parse_args()
    if not (args.chain or args.direction):
        args.direction = "3=sum2"

    try:
        chain, direction = _load_chain(args)
    except ModchainError as exc:
        return _error_exit(exc)

    cfg = SolverConfig(workers=args.workers)
    print(f"# chain of {len(chain)} steps, final modulus "
          f"{chain.final.modulus.value.bit_length()} bits")
    print(f"{'n':>3} {'count':>5} {'step':>5} {'base':>6} {'seconds':>8}  solutions")
    total = 0.0
    for n in range(1, args.n_max + 1):
        spec = ProblemSpec.from_direction(direction, n)
        note = ""
        try:
            sols, rep = solve_chain(spec, chain, cfg)
        except ChainExhausted as exc:
            sols, rep = exc.solutions, exc.report
            note = f" (+{len(rep.remaining)} unresolved)"
        except ModchainError as exc:
            return _error_exit(exc)
        total += rep.seconds
        where = "par" if rep.parity_shortcut else str(rep.terminated_at or "-")
        xs = ",".join(str(s.x) for s in sols) or "-"
        print(f"{n:>3} {len(sols):>5} {where:>5} {rep.base_seconds:>6.2f} "
              f"{rep.seconds:>8.2f}  x={xs}{note}")
    print(f"# total {total:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
