#!/usr/bin/env python3
"""Run the solver for a range of n and print a timing/termination table.

Example:
    python3 scripts/sweep_solutions.py --direction 3=sum2 --n-max 14
"""

import argparse
import sys
import time

from modchain import ChainExhausted, ProblemSpec, SolverConfig, solve_chain
from modchain.chains import bundled_chain, load_chain_file
from modchain.cli import BUNDLED, _positive_int


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--direction", choices=("3=sum2", "2=sum3"), default="3=sum2")
    ap.add_argument("--n-max", type=_positive_int, default=14)
    ap.add_argument("--chain", help="chain file (default: the bundled one)")
    ap.add_argument("--workers", type=_positive_int, default=1)
    args = ap.parse_args()

    if args.chain:
        cf = load_chain_file(args.chain)
        chain = cf.to_chain()
        chain.direction = cf.direction or args.direction
    else:
        chain = bundled_chain(BUNDLED[args.direction])

    cfg = SolverConfig(workers=args.workers)
    print(f"# chain of {len(chain)} steps, final modulus "
          f"{chain.final.modulus.value.bit_length()} bits")
    print(f"{'n':>3} {'count':>5} {'step':>5} {'seconds':>8}  solutions")
    total = 0.0
    for n in range(1, args.n_max + 1):
        spec = ProblemSpec.from_direction(args.direction, n)
        t0 = time.perf_counter()
        note = ""
        try:
            sols, rep = solve_chain(spec, chain, cfg)
        except ChainExhausted as exc:
            sols, rep = exc.solutions, exc.report
            note = f" (+{len(rep.remaining)} unresolved)"
        dt = time.perf_counter() - t0
        total += dt
        where = "par" if rep.parity_shortcut else str(rep.terminated_at or "-")
        xs = ",".join(str(s.x) for s in sols) or "-"
        print(f"{n:>3} {len(sols):>5} {where:>5} {dt:>8.2f}  x={xs}{note}")
    print(f"# total {total:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
