"""Command line front end.

Subcommands:
  solve          run the chain solver for one n
  verify-table1  print and self-check the binary digit table of 3^x
  validate       audit a chain against known solutions for extraneous partners
  plan           search candidate primes for chain extension

Exit codes: 0 success, 1 failed check (verify-table1 mismatch or validate
hazard), 2 usage or parse error, 3 chain exhausted before termination,
4 resource limit (memory cap, factorization effort or a first modulus with
too many summand powers to enumerate).
"""

from __future__ import annotations

import argparse
import os
import sys

from .chains import DIRECTIONS, Chain, bundled_chain_text, load_chain_file, parse_chain_file
from .errors import (
    BaseModulusTooLarge,
    ChainExhausted,
    FactorizationNeeded,
    InvalidInput,
    MemoryBudgetExceeded,
    ModchainError,
)
from .solver import (
    DEFAULT_MEMORY_CAP,
    ExactSolution,
    ProblemSpec,
    SolverConfig,
    bit_count_table,
    solve_chain,
)

BUNDLED = {"3=sum2": "t2.chain", "2=sum3": "t3.chain"}


def _machine_line(x: int, exponents) -> str:
    return f"{x} {','.join(str(a) for a in exponents)}"


def _product_text(factors) -> str:
    return "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in factors) or "1"


def _text_line(spec: ProblemSpec, sol: ExactSolution) -> str:
    rhs = " + ".join(f"{spec.summand_base}^{a}" for a in sol.exponents)
    return f"{spec.power_base}^{sol.x} = {rhs}"


def parse_solutions_text(text: str, name: str = "<solutions>") -> list[tuple[int, tuple[int, ...]]]:
    """Machine format: one 'x a1,a2,...' per line; blank and # lines skipped."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InvalidInput(f"{name}:{lineno}: expected 'x a1,a2,...'")
        try:
            x = int(parts[0])
            exps = tuple(int(t) for t in parts[1].split(","))
        except ValueError as exc:
            raise InvalidInput(f"{name}:{lineno}: {exc}") from None
        out.append((x, exps))
    return out


def _positive_int(text: str) -> int:
    """argparse type for counts that must be >= 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _load_chain(args) -> tuple[Chain, str]:
    """Resolve --chain/--direction into a chain and a direction string."""
    direction = getattr(args, "direction", None)
    path = getattr(args, "chain", None)
    if path:
        try:
            cf = load_chain_file(path)
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidInput(f"cannot read chain file: {exc}") from None
    elif direction:
        cf = parse_chain_file(bundled_chain_text(BUNDLED[direction]), BUNDLED[direction])
    else:
        raise InvalidInput("need --chain or --direction to pick a chain")
    if direction and cf.direction and direction != cf.direction:
        raise InvalidInput(
            f"--direction {direction} contradicts the chain file ({cf.direction})"
        )
    direction = direction or cf.direction
    if not direction:
        raise InvalidInput("chain file has no direction line; pass --direction")
    chain = cf.to_chain()
    chain.direction = direction
    return chain, direction


def _write_checkpoint(path: str, step: int, working) -> None:
    """Write the working set beside `path`, then rename it into place, so a
    reader never sees a partly written checkpoint."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(f"# step {step}\n")
            fh.write(f"# working {len(working)}\n")
            for s in working:
                fh.write(_machine_line(s.x, s.exponents) + "\n")
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise InvalidInput(f"cannot write checkpoint: {exc}") from None


def _cmd_solve(args) -> int:
    chain, direction = _load_chain(args)
    spec = ProblemSpec.from_direction(direction, args.n)
    cfg = SolverConfig(workers=args.workers, memory_cap=args.memory_cap)

    callback = None
    if args.checkpoint:

        def callback(stats, working):
            _write_checkpoint(args.checkpoint, stats.index, working)

    try:
        solutions, report = solve_chain(spec, chain, cfg, callback)
    except ChainExhausted as exc:
        solutions, report = exc.solutions, exc.report
    for sol in solutions:
        print(_machine_line(sol.x, sol.exponents) if args.format == "machine" else _text_line(spec, sol))
    if not report.complete:  # the chain ran out
        print(
            f"chain exhausted after {len(chain)} steps with "
            f"{len(report.remaining)} unresolved congruence classes",
            file=sys.stderr,
        )
        return 3
    where = "parity" if report.parity_shortcut else f"step {report.terminated_at}"
    print(
        f"n={spec.n} {direction}: {len(solutions)} solution(s), settled at {where}, "
        f"{report.seconds:.2f}s (base {report.base_seconds:.2f}s)",
        file=sys.stderr,
    )
    return 0


# known (bits, ones) pairs of the binary expansion of 3^x for x = 0..25;
# rows beyond this list are printed without comparison
DIGIT_GOLDENS = (
    (1, 1), (2, 2), (4, 2), (5, 4), (7, 3), (8, 6), (10, 6), (12, 5),
    (13, 6), (15, 8), (16, 9), (18, 13), (20, 10), (21, 11), (23, 14),
    (24, 15), (26, 11), (27, 14), (29, 14), (31, 17), (32, 17), (34, 20),
    (35, 19), (37, 22), (39, 16), (40, 18),
)


def _cmd_verify_table1(args) -> int:
    rows = bit_count_table(args.x_max)
    print("# x bits ones")
    bad = 0
    for x, bits, ones in rows:
        if x < len(DIGIT_GOLDENS) and (bits, ones) != DIGIT_GOLDENS[x]:
            bad += 1
        print(f"{x} {bits} {ones}")
    if bad:
        print(f"{bad} row(s) disagree with the stored digit counts", file=sys.stderr)
        return 1
    return 0


def _cmd_validate(args) -> int:
    from .planner import validate_chain

    chain, direction = _load_chain(args)
    try:
        with open(args.solutions) as fh:
            pairs = parse_solutions_text(fh.read(), args.solutions)
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read solutions file: {exc}") from None
    spec = None
    sols = []
    for x, exps in pairs:
        if list(exps) != sorted(set(exps)):
            raise InvalidInput(
                f"{args.solutions}: {_machine_line(x, exps)} needs strictly increasing exponents"
            )
        if x < 0 or exps[0] < 0:
            raise InvalidInput(
                f"{args.solutions}: {_machine_line(x, exps)} has a negative exponent"
            )
        spec = ProblemSpec.from_direction(direction, len(exps))
        total = sum(spec.summand_base**a for a in exps)
        if total != spec.power_base**x:
            raise InvalidInput(
                f"{args.solutions}: {_machine_line(x, exps)} is not an integer identity"
            )
        sols.append(ExactSolution(x, exps))
    result = validate_chain(chain, sols)
    print(f"modulus {result.modulus}")
    print(f"checked {len(sols)} solution(s): {len(result.hazards)} hazard(s), "
          f"{len(result.protected)} protected, {len(result.unchecked)} unchecked")
    for entry in result.hazards:
        w = entry.witness
        print(
            f"HAZARD {_machine_line(entry.solution.x, entry.solution.exponents)}: "
            f"3^{entry.y} = c + 2^{entry.x} (c={entry.c}) admits the extraneous partner "
            f"3^{w.y_prime} = c + 2^{w.x_prime} (mod M)"
        )
    for sol, why in result.unchecked:
        print(f"unchecked {_machine_line(sol.x, sol.exponents)}: {why}")
    print(f"note: {result.DISCLAIMER}")
    return 1 if result.hazards else 0


def _cmd_plan(args) -> int:
    from .planner import search_factors

    candidates = None
    if args.candidates:
        try:
            candidates = [int(t) for t in args.candidates.split(",") if t.strip()]
        except ValueError:
            raise InvalidInput(f"bad candidate list {args.candidates!r}") from None
    found = search_factors(args.two_val, args.three_val, args.p_max, candidates)
    print("# p ord2 ord3 v2(ord3) v3(ord2)")
    for c in found:
        print(
            f"{c.p} {_product_text(c.order_two_factored)} "
            f"{_product_text(c.order_three_factored)} "
            f"{c.two_part_of_order_three} {c.three_part_of_order_two}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modchain",
        description="Find all ways to write powers of 3 as sums of n distinct powers "
        "of 2 (or powers of 2 as sums of powers of 3) by lifting congruence "
        "solutions along a chain of moduli.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the solver for one value of n")
    p_solve.add_argument("--direction", choices=DIRECTIONS)
    p_solve.add_argument("--n", type=int, required=True, help="number of summands")
    p_solve.add_argument("--chain", help="chain file path (default: bundled chain)")
    p_solve.add_argument(
        "--workers",
        type=_positive_int,
        # argparse runs a string default through `type`, so a bad value is a usage error
        default=os.environ.get("MODCHAIN_WORKERS", "1"),
        help="worker processes for lifting (default: MODCHAIN_WORKERS or 1)",
    )
    p_solve.add_argument("--memory-cap", type=_positive_int, default=DEFAULT_MEMORY_CAP,
                         help="max multiset entries per lift table side")
    p_solve.add_argument("--format", choices=("text", "machine"), default="text")
    p_solve.add_argument("--checkpoint", help="rewrite this file with the working set after each step")
    p_solve.set_defaults(func=_cmd_solve)

    p_t1 = sub.add_parser("verify-table1", help="binary length and ones count of 3^x")
    p_t1.add_argument("--x-max", type=int, default=25)
    p_t1.set_defaults(func=_cmd_verify_table1)

    p_val = sub.add_parser("validate", help="audit a chain against known solutions")
    p_val.add_argument("--direction", choices=DIRECTIONS)
    p_val.add_argument("--chain", help="chain file path (default: bundled chain)")
    p_val.add_argument("--solutions", required=True,
                       help="file of known solutions, one 'x a1,a2,...' per line")
    p_val.set_defaults(func=_cmd_validate)

    p_plan = sub.add_parser("plan", help="search primes for chain extension")
    p_plan.add_argument("--two-val", type=int, default=0,
                        help="a: require 2^a | p-1")
    p_plan.add_argument("--three-val", type=int, default=0,
                        help="b: require 3^b | p-1")
    p_plan.add_argument("--p-max", type=int)
    p_plan.add_argument("--candidates", help="comma separated explicit candidates")
    p_plan.set_defaults(func=_cmd_plan)
    return parser


def _error_exit(exc: ModchainError) -> int:
    """Print exc on stderr and return its exit code: 4 for a resource limit, else 2."""
    if isinstance(exc, (MemoryBudgetExceeded, FactorizationNeeded, BaseModulusTooLarge)):
        print(f"resource limit: {exc}", file=sys.stderr)
        return 4
    print(f"error: {exc}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ModchainError as exc:
        return _error_exit(exc)


if __name__ == "__main__":
    sys.exit(main())
