"""Chain-lifting solver for P^x = S^(a_1) + ... + S^(a_n) in Z/M_iZ, {P, S} = {2, 3}.

The pipeline: enumerate every solution modulo the first chain modulus, then
lift the surviving solutions modulus by modulus. An exponent below the tail
of its base (a "determinate" exponent) is pinned to a single integer; once
every summand exponent of a solution is pinned, the candidate is settled by
exact integer arithmetic. Lifting a solution means replacing each exponent by
the arithmetic progression of exponents that reduce to it, then keeping the
combinations that still satisfy the congruence at the bigger modulus, either
by a meet-in-the-middle match or, for a fresh prime factor, by a discrete log
condition on the left side.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .chains import Chain, ChainStep, direction_bases, fresh_prime
from .dlog import prime_context
from .errors import (
    BaseModulusTooLarge,
    ChainExhausted,
    InvalidInput,
    MemoryBudgetExceeded,
    NotDivisible,
    UnbalancedInapplicable,
)
from .modcore import CycleShape, FactoredModulus, crt_pair, cycle_shape

DEFAULT_MEMORY_CAP = 1 << 26  # entries per meet-in-the-middle side
DEFAULT_MAX_BASE_EXPONENTS = 64


@dataclass(frozen=True)
class ProblemSpec:
    """Which equation is being solved: power_base^x = sum of n summand_base powers."""

    power_base: int
    summand_base: int
    n: int

    def __post_init__(self):
        if {self.power_base, self.summand_base} != {2, 3}:
            raise InvalidInput("power and summand bases must be 2 and 3 in some order")
        if self.n < 1:
            raise InvalidInput("n must be >= 1")

    @classmethod
    def from_direction(cls, direction: str, n: int) -> "ProblemSpec":
        p, s = direction_bases(direction)
        return cls(p, s, n)

    @property
    def direction(self) -> str:
        return "3=sum2" if self.power_base == 3 else "2=sum3"


@dataclass(frozen=True)
class SolutionModM:
    """One congruence solution: power_base^x = sum of summand_base^a_j in Z/M_iZ.

    Exponents are sorted non-decreasingly; equal exponents are legal only
    while indeterminate (their lifts may separate later).
    """

    x: int
    exponents: tuple[int, ...]
    modulus_index: int

    def sort_key(self):
        return (self.x, self.exponents)


@dataclass(frozen=True)
class ExactSolution:
    """An integer identity power_base^x = sum of distinct summand_base^a_j."""

    x: int
    exponents: tuple[int, ...]


@dataclass(frozen=True)
class Progression:
    """Arithmetic progression start, start+step, ... with `count` members."""

    start: int
    step: int
    count: int

    def __len__(self) -> int:
        return self.count

    def members(self) -> range:
        return range(self.start, self.start + self.step * self.count, self.step or 1)

    @property
    def last(self) -> int:
        return self.start + self.step * (self.count - 1)


@dataclass(frozen=True)
class LiftPlan:
    """How one solution lifts from a modulus to the next one.

    lift_sets[j] holds the candidate new values of exponent a_j; left_lifts
    holds the candidate new values of x. chi = len(left_lifts). split_index k
    sends lift_sets[:k] to the left (subtracted) side of a balanced match.
    """

    lift_sets: tuple[Progression, ...]
    left_lifts: Progression
    chi: int
    split_index: int


@dataclass
class SolverConfig:
    workers: int = 1
    memory_cap: int = DEFAULT_MEMORY_CAP
    early_finalize: bool = True
    max_base_exponents: int = DEFAULT_MAX_BASE_EXPONENTS


@dataclass
class StepStats:
    index: int  # 1-based chain position
    factor: str
    incoming: int
    finalized_early: int
    balanced: int
    unbalanced: int
    survivors: int
    seconds: float


@dataclass
class RunReport:
    direction: str
    n: int
    steps: list[StepStats] = field(default_factory=list)
    complete: bool = False
    terminated_at: int | None = None
    base_count: int = 0
    parity_shortcut: bool = False
    remaining: list[SolutionModM] = field(default_factory=list)
    seconds: float = 0.0


# ---------------------------------------------------------------------------
# construction helpers


def _shapes(spec: ProblemSpec, m: FactoredModulus) -> tuple[CycleShape, CycleShape]:
    """(power shape, summand shape) of Z/mZ."""
    return cycle_shape(spec.power_base, m), cycle_shape(spec.summand_base, m)


def _distinctness_ok(exps: tuple[int, ...], tail: int) -> bool:
    """No repeated exponent below the tail (repeats are only allowed while indeterminate)."""
    prev = -1
    for a in exps:
        if a >= tail:
            return True  # sorted input: everything after is indeterminate
        if a == prev:
            return False
        prev = a
    return True


def make_solution(
    x: int,
    exponents: tuple[int, ...],
    modulus_index: int,
    spec: ProblemSpec,
    modulus: FactoredModulus,
    power_shape: CycleShape,
    summand_shape: CycleShape,
    pows: dict[int, int] | None = None,
    allow_repeats: bool = False,
) -> SolutionModM:
    """Checked constructor: validates ranges, the side condition and the congruence.

    allow_repeats lifts the no-repeated-determinate-exponent rule for raw
    census enumerations, which count multisets.
    """
    if len(exponents) != spec.n:
        raise InvalidInput(f"expected {spec.n} exponents, got {len(exponents)}")
    if any(exponents[i] > exponents[i + 1] for i in range(len(exponents) - 1)):
        raise InvalidInput("exponents must be sorted")
    if not 0 <= x < power_shape.num_powers:
        raise InvalidInput(f"x={x} outside canonical range [0, {power_shape.num_powers})")
    if exponents and not 0 <= exponents[0] <= exponents[-1] < summand_shape.num_powers:
        raise InvalidInput("exponent outside canonical range")
    if not allow_repeats and not _distinctness_ok(exponents, summand_shape.tail_len):
        raise InvalidInput("repeated determinate exponent")
    M = modulus.value
    if pows is None:
        total = sum(pow(spec.summand_base, a, M) for a in exponents) % M
    else:
        total = sum(pows[a] for a in exponents) % M
    if pow(spec.power_base, x, M) != total:
        raise InvalidInput(f"congruence fails mod {M} for x={x}, exponents={exponents}")
    return SolutionModM(x, exponents, modulus_index)


def reduce_solution(sol: SolutionModM, spec: ProblemSpec, m: FactoredModulus, index: int = 0) -> SolutionModM:
    """Canonical form of a solution pushed down to a smaller modulus m."""
    ps, ss = _shapes(spec, m)
    exps = tuple(sorted(ss.reduce_exponent(a) for a in sol.exponents))
    return SolutionModM(ps.reduce_exponent(sol.x), exps, index)


# ---------------------------------------------------------------------------
# base enumeration


def enumerate_base_solutions(
    spec: ProblemSpec,
    m1: FactoredModulus,
    side_conditions: bool = True,
    max_exponents: int = DEFAULT_MAX_BASE_EXPONENTS,
) -> list[SolutionModM]:
    """Every solution modulo the first chain modulus, by direct enumeration.

    Exponent multisets are scanned as multiplicity vectors over the distinct
    powers of the summand base. With side_conditions on (the solver default),
    some exponent must be 0 and determinate exponents cannot repeat; off, the
    raw census is returned (useful for audits and extraneous-solution checks).
    """
    power_shape, summand_shape = _shapes(spec, m1)
    T = summand_shape.num_powers
    if T > max_exponents:
        raise BaseModulusTooLarge(
            f"{T} distinct summand powers exceeds the configured bound {max_exponents}"
        )
    M = m1.value
    n = spec.n
    S = spec.summand_base

    pow_s = [pow(S, j, M) for j in range(T)]
    pow_to_idx = {pow_s[j]: j for j in range(T)}
    power_res: list[int] = []
    lookup: dict[int, int] = {}
    cur = 1 % M
    for x in range(power_shape.num_powers):
        power_res.append(cur)
        lookup.setdefault(cur, x)
        cur = cur * spec.power_base % M

    det = summand_shape.tail_len if side_conditions else 0
    mult = [0] * T
    hits: list[tuple[int, tuple[int, ...]]] = []

    def prefix(j: int) -> list[int]:
        exps = []
        for idx in range(j):
            exps.extend([idx] * mult[idx])
        return exps

    def last_summand(j: int, acc: int) -> None:
        # one copy left to place at some position >= j: solve for it directly
        hi = 1 if (side_conditions and j == 0) else T
        if len(power_res) < hi - j:
            for x, r in enumerate(power_res):
                idx = pow_to_idx.get((r - acc) % M)
                if idx is not None and j <= idx < hi:
                    hits.append((x, tuple(prefix(j) + [idx])))
        else:
            for idx in range(j, hi):
                x = lookup.get((acc + pow_s[idx]) % M)
                if x is not None:
                    hits.append((x, tuple(prefix(j) + [idx])))

    def rec(j: int, remaining: int, acc: int) -> None:
        if remaining == 1:
            last_summand(j, acc)
            return
        if remaining == 0:
            x = lookup.get(acc)
            if x is not None:
                hits.append((x, tuple(prefix(j))))
            return
        if j == T:
            return
        lo = 1 if (side_conditions and j == 0) else 0
        if lo == 0:
            rec(j + 1, remaining, acc)
        cap = 1 if j < det else remaining
        v = acc
        p = pow_s[j]
        for b in range(1, cap + 1):
            if b > remaining:
                break
            v = (v + p) % M
            mult[j] = b
            rec(j + 1, remaining - b, v)
        mult[j] = 0

    rec(0, n, 0)
    hits.sort()
    pows = {j: pow_s[j] for j in range(T)}
    return [
        make_solution(
            x, exps, 0, spec, m1, power_shape, summand_shape, pows,
            allow_repeats=not side_conditions,
        )
        for x, exps in hits
    ]


# ---------------------------------------------------------------------------
# lift plans


def lift_progression(e: int, prev: CycleShape, nxt: CycleShape) -> Progression:
    """All exponents in the canonical range of the next modulus whose power
    reduces to base^e modulo the previous one.

    A determinate exponent equals only itself. An indeterminate one is free
    mod the previous loop length, clipped to the next canonical range.
    """
    if e < prev.tail_len:
        return Progression(e, 1, 1)
    l0 = prev.loop_len
    start = prev.tail_len + (e - prev.tail_len) % l0
    stop = nxt.tail_len + nxt.loop_len
    count = (stop - start + l0 - 1) // l0
    return Progression(start, l0, count)


def _choose_split(chi: int, sizes: list[int]) -> int:
    """k minimizing the imbalance between chi*prod(sizes[:k]) and prod(sizes[k:]).

    Comparison is exact (cross-multiplied), ties go to the smallest k.
    """
    n = len(sizes)
    suffix = [1] * (n + 1)
    for i in reversed(range(n)):
        suffix[i] = suffix[i + 1] * sizes[i]
    left = chi
    best = (max(left, suffix[0]), min(left, suffix[0]))
    best_k = 0
    for k in range(1, n + 1):
        left *= sizes[k - 1]
        right = suffix[k]
        cand = (max(left, right), min(left, right))
        if cand[0] * best[1] < best[0] * cand[1]:
            best, best_k = cand, k
    return best_k


def compute_lift_plan(
    sol: SolutionModM, prev: ChainStep, nxt: ChainStep, spec: ProblemSpec
) -> LiftPlan:
    """Lift sets for each exponent, the left lift set for x, and the split point."""
    if nxt.modulus.value % prev.modulus.value != 0:
        raise NotDivisible("previous modulus must divide the next one")
    ps_prev, ss_prev = prev.shape(spec.power_base), prev.shape(spec.summand_base)
    ps_next, ss_next = nxt.shape(spec.power_base), nxt.shape(spec.summand_base)
    lift_sets = tuple(lift_progression(a, ss_prev, ss_next) for a in sol.exponents)
    left = lift_progression(sol.x, ps_prev, ps_next)
    sizes = [p.count for p in lift_sets]
    k = _choose_split(left.count, sizes)
    return LiftPlan(lift_sets, left, left.count, k)


# ---------------------------------------------------------------------------
# lifting


class _StepWorkspace:
    """Per-step caches shared across all solutions being lifted to one modulus."""

    def __init__(self, spec: ProblemSpec, nxt: ChainStep):
        self.spec = spec
        self.step = nxt
        self.M = nxt.modulus.value
        self.pow_summand: dict[int, int] = {}
        self.pow_power: dict[int, int] = {}
        self.power_shape = nxt.shape(spec.power_base)
        self.summand_shape = nxt.shape(spec.summand_base)

    def _fill(self, cache: dict[int, int], base: int, prog: Progression) -> None:
        missing = [e for e in prog.members() if e not in cache]
        if not missing:
            return
        if len(missing) == prog.count and prog.count > 1:
            # walk the progression with one multiply per member
            v = pow(base, prog.start, self.M)
            stepmul = pow(base, prog.step, self.M)
            e = prog.start
            for _ in range(prog.count):
                cache[e] = v
                v = v * stepmul % self.M
                e += prog.step
        else:
            for e in missing:
                cache[e] = pow(base, e, self.M)

    def summand_pows(self, prog: Progression) -> None:
        self._fill(self.pow_summand, self.spec.summand_base, prog)

    def power_pows(self, prog: Progression) -> None:
        self._fill(self.pow_power, self.spec.power_base, prog)


def _expand_sums(
    entries: list[tuple[int, tuple[int, ...]]],
    progs,
    pows: dict[int, int],
    M: int,
    sign: int,
) -> list[tuple[int, tuple[int, ...]]]:
    """Cross-product accumulation of (value, exponent tuple) over lift sets."""
    for prog in progs:
        vals = [(pows[a], a) for a in prog.members()]
        if sign > 0:
            entries = [((v + pv) % M, t + (a,)) for v, t in entries for pv, a in vals]
        else:
            entries = [((v - pv) % M, t + (a,)) for v, t in entries for pv, a in vals]
    return entries


def _emit(
    found: dict,
    x: int,
    exps: tuple[int, ...],
    ws: _StepWorkspace,
    index: int,
) -> None:
    exps = tuple(sorted(exps))
    key = (x, exps)
    if key in found:
        return
    if not _distinctness_ok(exps, ws.summand_shape.tail_len):
        return
    found[key] = make_solution(
        x, exps, index, ws.spec, ws.step.modulus, ws.power_shape, ws.summand_shape, ws.pow_summand
    )


def lift_balanced(
    sol: SolutionModM,
    plan: LiftPlan,
    prev: ChainStep,
    nxt: ChainStep,
    spec: ProblemSpec,
    memory_cap: int = DEFAULT_MEMORY_CAP,
    workspace: _StepWorkspace | None = None,
) -> list[SolutionModM]:
    """Meet-in-the-middle lift: match P^x' minus the first k summand lifts
    against sums over the remaining lifts, both tabulated modulo the next modulus."""
    ws = workspace or _StepWorkspace(spec, nxt)
    k = plan.split_index
    sizes = [p.count for p in plan.lift_sets]
    left_count = plan.chi * math.prod(sizes[:k])
    right_count = math.prod(sizes[k:])
    if max(left_count, right_count) > memory_cap:
        raise MemoryBudgetExceeded(
            f"balanced lift needs {left_count}/{right_count} entries, cap is {memory_cap}"
        )
    M = ws.M
    ws.power_pows(plan.left_lifts)
    for prog in plan.lift_sets:
        ws.summand_pows(prog)

    left = [(ws.pow_power[xp], (xp,)) for xp in plan.left_lifts.members()]
    left = _expand_sums(left, plan.lift_sets[:k], ws.pow_summand, M, sign=-1)
    right = [(0, ())]
    right = _expand_sums(right, plan.lift_sets[k:], ws.pow_summand, M, sign=+1)

    left.sort(key=lambda t: t[0])
    right.sort(key=lambda t: t[0])

    found: dict = {}
    i = j = 0
    nl, nr = len(left), len(right)
    while i < nl and j < nr:
        lv, rv = left[i][0], right[j][0]
        if lv < rv:
            i += 1
        elif lv > rv:
            j += 1
        else:
            i2 = i
            while i2 < nl and left[i2][0] == lv:
                i2 += 1
            j2 = j
            while j2 < nr and right[j2][0] == rv:
                j2 += 1
            for li in range(i, i2):
                lt = left[li][1]
                xp, head = lt[0], lt[1:]
                for rj in range(j, j2):
                    _emit(found, xp, head + right[rj][1], ws, sol.modulus_index + 1)
            i, j = i2, j2
    return sorted(found.values(), key=SolutionModM.sort_key)


def lift_unbalanced(
    sol: SolutionModM,
    plan: LiftPlan,
    prev: ChainStep,
    nxt: ChainStep,
    spec: ProblemSpec,
    memory_cap: int = DEFAULT_MEMORY_CAP,
    workspace: _StepWorkspace | None = None,
) -> list[SolutionModM]:
    """Dlog-based lift for a step whose factor is a fresh prime p.

    For each combination of summand lifts with sum s, the admissible x' form
    (possibly empty) congruence classes: x' must hit the dlog class of s in
    (Z/pZ)* and stay in the left lift progression. Useful when chi outruns
    the product of the lift set sizes.
    """
    p = fresh_prime(prev.modulus, nxt.factor)
    if p is None:
        raise UnbalancedInapplicable(f"step factor {nxt.factor} is not a fresh prime >= 5")
    ws = workspace or _StepWorkspace(spec, nxt)
    M = ws.M
    tuples_count = math.prod(pr.count for pr in plan.lift_sets)
    if tuples_count > memory_cap:
        raise MemoryBudgetExceeded(
            f"unbalanced lift needs {tuples_count} summand combinations, cap is {memory_cap}"
        )
    for prog in plan.lift_sets:
        ws.summand_pows(prog)
    ctx = prime_context(p)
    X = plan.left_lifts
    end = X.start + X.step * X.count

    combos = _expand_sums([(0, ())], plan.lift_sets, ws.pow_summand, M, sign=+1)
    found: dict = {}
    for s, exps in combos:
        sp = s % p
        if sp == 0:
            continue  # a power of the left base is a unit mod p
        cls = ctx.exponent_class(spec.power_base, sp)
        if cls is None:
            continue
        if X.count == 1:
            if (X.start - cls.residue_class) % cls.class_modulus == 0:
                _emit(found, X.start, exps, ws, sol.modulus_index + 1)
            continue
        merged = crt_pair(X.start % X.step, X.step, cls.residue_class, cls.class_modulus)
        if merged is None:
            continue
        r, mod = merged
        first = X.start + (r - X.start) % mod
        for xp in range(first, end, mod):
            _emit(found, xp, exps, ws, sol.modulus_index + 1)
    return sorted(found.values(), key=SolutionModM.sort_key)


def _lift_chunk(args) -> tuple[int, int, list[SolutionModM]]:
    spec, prev, nxt, chunk, memory_cap = args
    ws = _StepWorkspace(spec, nxt)
    dlog_applies = fresh_prime(prev.modulus, nxt.factor) is not None
    unbalanced = 0
    out: list[SolutionModM] = []
    for sol in chunk:
        plan = compute_lift_plan(sol, prev, nxt, spec)
        if dlog_applies and plan.chi > math.prod(p.count for p in plan.lift_sets):
            unbalanced += 1
            out.extend(lift_unbalanced(sol, plan, prev, nxt, spec, memory_cap, ws))
        else:
            out.extend(lift_balanced(sol, plan, prev, nxt, spec, memory_cap, ws))
    return len(chunk) - unbalanced, unbalanced, out


@contextmanager
def _lift_pool(workers: int):
    """A process pool of `workers` processes for _lift_step, or None to lift serially."""
    if workers <= 1:
        yield None
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers) as pool:
        yield pool


def _lift_step(
    working: list[SolutionModM],
    spec: ProblemSpec,
    prev: ChainStep,
    nxt: ChainStep,
    cfg: SolverConfig,
    pool,
) -> tuple[int, int, list[SolutionModM]]:
    """Lift every solution in `working` from prev's modulus to nxt's.

    Returns (balanced lifts, unbalanced lifts, children sorted by sort_key).
    Children of different parents never coincide: every lifted exponent
    reduces to its parent's exponent, so each child reduces to exactly one
    parent, and `working` holds distinct classes.
    """
    if pool is not None and len(working) >= 2 * cfg.workers:
        size = (len(working) + cfg.workers - 1) // cfg.workers
        chunks = [working[i : i + size] for i in range(0, len(working), size)]
        results = list(pool.map(_lift_chunk, [(spec, prev, nxt, c, cfg.memory_cap) for c in chunks]))
    else:
        results = [_lift_chunk((spec, prev, nxt, working, cfg.memory_cap))]
    children = [s for _, _, out in results for s in out]
    children.sort(key=SolutionModM.sort_key)
    return sum(r[0] for r in results), sum(r[1] for r in results), children


# ---------------------------------------------------------------------------
# the chain engine


def _exact_power_exponent(value: int, base: int) -> int | None:
    if value < 1:
        return None
    e = 0
    while value % base == 0:
        value //= base
        e += 1
    return e if value == 1 else None


def _try_finalize(sol: SolutionModM, spec: ProblemSpec) -> ExactSolution | None:
    """Exact integer check once every exponent is pinned. Returns None for
    repeated exponents (no integer solution has them) or a sum that is not a
    pure power."""
    exps = sol.exponents
    if any(exps[i] == exps[i + 1] for i in range(len(exps) - 1)):
        return None
    total = sum(spec.summand_base**a for a in exps)
    e = _exact_power_exponent(total, spec.power_base)
    if e is None:
        return None
    return ExactSolution(e, exps)


def _all_determinate(sol: SolutionModM, tail: int) -> bool:
    # exponents sorted: only the largest matters
    return sol.exponents[-1] < tail


def solve_chain(
    spec: ProblemSpec,
    chain: Chain,
    config: SolverConfig | None = None,
    step_callback=None,
) -> tuple[list[ExactSolution], RunReport]:
    """Run the whole pipeline and return (integer solutions, run report).

    Stops as soon as every live solution has only determinate exponents. With
    early_finalize on (default), a solution is settled the moment its own
    exponents are all pinned instead of riding along to that common point.
    Raises ChainExhausted (carrying partial results) if the chain ends first.
    """
    cfg = config or SolverConfig()
    t0 = time.perf_counter()
    report = RunReport(direction=spec.direction, n=spec.n)

    # parity shortcut: a sum of an odd number n > 1 of powers of 3 is odd and > 1
    if spec.power_base == 2 and spec.n > 1 and spec.n % 2 == 1:
        report.complete = True
        report.parity_shortcut = True
        report.seconds = time.perf_counter() - t0
        return [], report

    finals: dict[tuple[int, tuple[int, ...]], ExactSolution] = {}

    def finalize_batch(batch) -> None:
        for s in batch:
            ex = _try_finalize(s, spec)
            if ex is not None:
                finals.setdefault((ex.x, ex.exponents), ex)

    working = enumerate_base_solutions(spec, chain[0].modulus, max_exponents=cfg.max_base_exponents)
    report.base_count = len(working)

    with _lift_pool(cfg.workers) as pool:
        for idx, step in enumerate(chain.steps):
            t_step = time.perf_counter()
            stats = StepStats(
                index=step.index,
                factor=str(step.factor),
                incoming=len(working),
                finalized_early=0,
                balanced=0,
                unbalanced=0,
                survivors=0,
                seconds=0.0,
            )
            if idx > 0:
                stats.balanced, stats.unbalanced, working = _lift_step(
                    working, spec, chain[idx - 1], step, cfg, pool
                )

            tail = step.shape(spec.summand_base).tail_len
            settled = [s for s in working if _all_determinate(s, tail)]
            live = [s for s in working if not _all_determinate(s, tail)]
            # with nothing live, every exponent everywhere is pinned: settle and stop
            if not live or cfg.early_finalize:
                finalize_batch(settled)
                stats.finalized_early = len(settled)
                working = live
            stats.survivors = len(working)
            stats.seconds = time.perf_counter() - t_step
            report.steps.append(stats)
            if step_callback is not None:
                step_callback(stats, working)
            if not live:
                report.terminated_at = step.index
                report.complete = True
                break

    solutions = sorted(finals.values(), key=lambda s: (s.x, s.exponents))
    report.seconds = time.perf_counter() - t0
    if not report.complete:
        report.remaining = working
        raise ChainExhausted(solutions, report)
    return solutions, report


def modular_solutions(
    spec: ProblemSpec, chain: Chain, config: SolverConfig | None = None
) -> list[SolutionModM]:
    """Lift through every chain step with no finalization or early stop.

    Returns the modular solution set at the final modulus; the tool behind
    completeness audits against brute-force enumeration. Lifts in parallel
    when config.workers > 1, like solve_chain.
    """
    cfg = config or SolverConfig()
    working = enumerate_base_solutions(spec, chain[0].modulus, max_exponents=cfg.max_base_exponents)
    with _lift_pool(cfg.workers) as pool:
        for prev, step in zip(chain.steps, chain.steps[1:]):
            _, _, working = _lift_step(working, spec, prev, step, cfg, pool)
    return working


def bit_count_table(x_max: int) -> list[tuple[int, int, int]]:
    """(x, binary length, ones count) for 3^x, 0 <= x <= x_max."""
    if x_max < 0:
        raise InvalidInput("x_max must be >= 0")
    out = []
    for x in range(x_max + 1):
        t = 3**x
        out.append((x, t.bit_length(), t.bit_count()))
    return out
