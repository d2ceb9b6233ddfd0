#!/usr/bin/env python3
"""Print per-step order growth for a chain: how each factor stretches the
loops of 2 and 3, and where the dlog lift is applicable.

Example:
    python3 scripts/audit_orders.py --direction 3=sum2
"""

import argparse
import sys

from modchain import ModchainError, step_diagnostics
from modchain.cli import _load_chain


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--direction", choices=("3=sum2", "2=sum3"),
                    help="default: the chain file's direction, else 3=sum2")
    ap.add_argument("--chain", help="chain file (default: the bundled one)")
    args = ap.parse_args()
    if not (args.chain or args.direction):
        args.direction = "3=sum2"

    try:
        chain, _ = _load_chain(args)
    except ModchainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"{'i':>3} {'factor':<24} {'xord2':>6} {'xord3':>6} "
          f"{'+tail2':>6} {'+tail3':>6}  dlog")
    for i in range(1, len(chain) + 1):
        d = step_diagnostics(chain, i)
        print(f"{i:>3} {str(d.factor):<24} {d.order2_ratio:>6} {d.order3_ratio:>6} "
              f"{d.tail2_growth:>6} {d.tail3_growth:>6}  "
              f"{'yes' if d.unbalanced_eligible else '-'}")
    final = chain.final
    print(f"# final modulus: {final.modulus.value.bit_length()} bits, "
          f"tail2={final.modulus.two_exp} tail3={final.modulus.three_exp}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
