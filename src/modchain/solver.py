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
from itertools import combinations, combinations_with_replacement, groupby
from typing import NamedTuple

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

DEFAULT_MEMORY_CAP = 1 << 26  # multiset entries per lift table side
DEFAULT_MAX_BASE_EXPONENTS = 64
# base search tables: one entry is worth two streamed multisets of work (an
# insert costs about twice a sum and lookup), and a plan may hold at most
# _BASE_TABLE_CAP entries (about 150 bytes each) at once when any plan can
_TABLE_ENTRY_WORK = 2
_BASE_TABLE_CAP = 1 << 16
# classes one base enumeration may return; the bundled chains need at most
# 32,672 (2=sum3 n=22), and a raw census can run to millions
_BASE_CLASS_CAP = 1 << 20


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

    def __post_init__(self):
        if self.step < 1 or self.count < 0:
            raise InvalidInput(f"progression needs step >= 1 and count >= 0, got {self}")

    def members(self) -> range:
        return range(self.start, self.start + self.step * self.count, self.step)


@dataclass(frozen=True)
class LiftPlan:
    """How one solution lifts from a modulus to the next one.

    runs holds (lift set, m) for each run of m equal exponents, in exponent
    order; the run's new exponents are an m-multiset of its lift set. Lift
    sets of different exponents are disjoint. left_lifts holds the candidate
    new values of x. runs[:split] go to the left (subtracted) side of a
    balanced match, so the split never separates equal exponents.
    """

    runs: tuple[tuple[Progression, int], ...]
    left_lifts: Progression
    split: int

    @property
    def chi(self) -> int:
        """The number of candidate new values of x."""
        return self.left_lifts.count

    @property
    def lift_sets(self) -> tuple[Progression, ...]:
        """The lift set of each exponent a_j, in order."""
        return tuple(prog for prog, m in self.runs for _ in range(m))

    @property
    def split_index(self) -> int:
        """The split as a position in lift_sets."""
        return sum(m for _, m in self.runs[: self.split])


@dataclass
class SolverConfig:
    workers: int = 1
    memory_cap: int = DEFAULT_MEMORY_CAP
    early_finalize: bool = True


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
    base_seconds: float = 0.0  # enumerate_base_solutions, outside every step
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


def _multiset_count(k: int, m: int) -> int:
    """Number of m-multisets drawn from k items."""
    return math.comb(k + m - 1, m) if k else int(m == 0)


def _base_plan(n: int, T: int, det: int, forced: int, num_powers: int) -> tuple[int, list[int]]:
    """The split s in [det, T] of the base search, and for each left count c
    the number of top right summands tabled with x, that need the least work.

    Work is table entries (one per left tuple, top multiset and canonical x,
    weighed _TABLE_ENTRY_WORK) plus bottom multisets streamed, all counted
    exactly; ties go to the smallest s and the fewest tabled summands. A count
    whose tables would all exceed _BASE_TABLE_CAP entries makes its s
    ineligible; if no s is eligible, s = det, and a count that fits no table
    gets the untopped one, the smallest there is. The left tuples of count c
    are those of _left_tuples; the right summands of count c are an
    (n-c)-multiset of [s, T), split into a streamed bottom and a tabled top.
    """
    optional = max(det - forced, 0)

    def count_work(s: int, c: int) -> tuple[float, int]:
        left = sum(
            math.comb(optional, k) * _multiset_count(s - det, c - forced - k)
            for k in range(min(optional, c - forced) + 1)
        )
        if not left:
            return 0, 0
        plans = []
        for r in range(n - c + 1):
            entries = num_powers * left * _multiset_count(T - s, r)
            if entries <= _BASE_TABLE_CAP:
                plans.append((_TABLE_ENTRY_WORK * entries + _multiset_count(T - s, n - c - r), r))
        return min(plans, default=(math.inf, 0))

    s = min(range(det, T + 1), key=lambda s: sum(count_work(s, c)[0] for c in range(n + 1)))
    return s, [count_work(s, c)[1] for c in range(n + 1)]


def _left_tuples(c: int, s: int, det: int, forced: int):
    """Sorted exponent tuples of count c over [0, s) that meet the side
    conditions: `forced` leading zeros, then k of the optional determinate
    indices [forced, det) once each, then a multiset of the free indices [det, s)."""
    optional = range(forced, det)
    for k in range(min(len(optional), c - forced) + 1):
        for mid in combinations(optional, k):
            for tail in combinations_with_replacement(range(det, s), c - forced - k):
                yield (0,) * forced + mid + tail


def enumerate_base_solutions(
    spec: ProblemSpec,
    m1: FactoredModulus,
    side_conditions: bool = True,
    max_exponents: int = DEFAULT_MAX_BASE_EXPONENTS,
) -> list[SolutionModM]:
    """Every solution modulo the first chain modulus, by a meet-in-the-middle search.

    With side_conditions on (the solver default), some exponent must be 0 and
    determinate exponents cannot repeat; off, the raw census of exponent
    multisets is returned (useful for audits and extraneous-solution checks).

    The summand indices [0, T) split at s >= the tail length, so the side
    conditions concern only the left part [0, s) and the right part [s, T)
    is free. For each left count c the right part is an (n-c)-multiset of
    [s, T). Its r largest members (the top) are tabled with x and the left
    tuple, keyed by P^x - (left sum) - (top sum) mod M; its other members
    (the bottom) are streamed with combinations_with_replacement, never
    stored, and looked up by their sum. A match counts only when the bottom
    lies below the top, so each multiset is found once. r = 0 is the plain
    split; r = 1 solves for the last summand, which wins when T is much
    larger than n.

    Split rule (_base_plan): s and each count's r minimise the work, table
    entries plus bottoms streamed, from exact counts, with a table entry
    weighed as two streamed bottoms (an insert costs about twice a lookup).
    Memory stays bounded because only one count's table is alive at a time
    and the rule only picks plans whose tables hold at most _BASE_TABLE_CAP
    entries; the plain split at s = det, which builds the smallest tables,
    is the fallback when no plan fits. MemoryBudgetExceeded is raised as soon
    as more than _BASE_CLASS_CAP solutions are found.
    """
    power_shape, summand_shape = _shapes(spec, m1)
    T = summand_shape.num_powers
    if T > max_exponents:
        raise BaseModulusTooLarge(
            f"{T} distinct summand powers exceeds the configured bound {max_exponents}"
        )
    M = m1.value
    n = spec.n
    pow_s = [pow(spec.summand_base, j, M) for j in range(T)]
    power_res: list[int] = []
    cur = 1 % M
    for _ in range(power_shape.num_powers):
        power_res.append(cur)
        cur = cur * spec.power_base % M

    det = summand_shape.tail_len if side_conditions else 0
    forced = 1 if side_conditions else 0
    s, tops = _base_plan(n, T, det, forced, power_shape.num_powers)
    right = range(s, T)

    xs = list(range(power_shape.num_powers))  # one int object per x, shared by the tables
    hits: list[tuple[int, tuple[int, ...]]] = []
    for c, r in enumerate(tops):
        # (P^x - left sum - top sum) mod M -> (x, left, top, next entry with that key),
        # for the left tuples of count c
        table: dict[int, tuple] = {}
        for left in _left_tuples(c, s, det, forced):
            for top in combinations_with_replacement(right, r):
                acc = sum(pow_s[i] for i in left + top)
                for x, p in zip(xs, power_res):
                    key = (p - acc) % M
                    table[key] = (x, left, top, table.get(key))
        if not table:
            continue
        bottoms = combinations_with_replacement(right, n - c - r)
        sums = map(M.__rmod__, map(sum, combinations_with_replacement(pow_s[s:], n - c - r)))
        for bottom, entry in zip(bottoms, map(table.get, sums)):
            while entry:
                x, left, top, entry = entry
                # each right multiset counts once: as the bottom below its top
                if not (bottom and top) or bottom[-1] <= top[0]:
                    hits.append((x, left + bottom + top))
                    if len(hits) > _BASE_CLASS_CAP:
                        raise MemoryBudgetExceeded(
                            f"more than {_BASE_CLASS_CAP} solutions modulo {M}"
                        )
    hits.sort()
    pows = dict(enumerate(pow_s))
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
    sol: SolutionModM,
    prev: ChainStep,
    nxt: ChainStep,
    spec: ProblemSpec,
    workspace: _StepWorkspace | None = None,
) -> LiftPlan:
    """The runs of equal exponents with their lift sets, the left lift set
    for x, and the split point.

    The split balances multiset counts: a run of m equal exponents whose lift
    set has s members costs C(s+m-1, m), and the split falls between runs.
    """
    ws = workspace or _StepWorkspace(spec, prev, nxt)
    facts = [ws.run(a, len(list(group))) for a, group in groupby(sol.exponents)]
    left = ws.left_lifts(sol.x)
    split = _choose_split(left.count, [f.multisets for f in facts])
    # a tuple of a list has its exact size; a tuple built from a generator is
    # over-allocated and then shrunk, and CPython's tuple free lists keep
    # those blocks (about 1 MB more peak RSS on 3=sum2 n=14)
    return LiftPlan(tuple([f.run for f in facts]), left, split)


# ---------------------------------------------------------------------------
# lifting


class _RunFacts(NamedTuple):
    """What a step knows of a run of m equal exponents before tabling it."""

    run: tuple[Progression, int]  # (lift set, m), as it stands in LiftPlan.runs
    multisets: int  # C(s+m-1, m) for a lift set of s members
    ordered: int  # s^m


class _StepWorkspace:
    """Everything about lifting from prev's modulus to nxt's that does not
    depend on one solution: the shapes at both moduli, the step's fresh
    prime and its dlog context (None when the dlog lift does not apply), and
    a memo of what depends only on one run (e, m) of equal exponents or on x
    alone, shared by every class of the step.

    The memo is keyed by ints: a canonical exponent e is the start of its
    own lift set, so (prog.start, m) finds the entry of a plan's run. Tables
    are built only when a lift asks for them, after its memory_cap check, and
    the memo lives exactly as long as the workspace.
    """

    def __init__(self, spec: ProblemSpec, prev: ChainStep, nxt: ChainStep):
        if nxt.modulus.value % prev.modulus.value != 0:
            raise NotDivisible("previous modulus must divide the next one")
        self.spec = spec
        self.step = nxt
        self.M = nxt.modulus.value
        self.prev_power_shape = prev.shape(spec.power_base)
        self.prev_summand_shape = prev.shape(spec.summand_base)
        self.power_shape = nxt.shape(spec.power_base)
        self.summand_shape = nxt.shape(spec.summand_base)
        self.prime = fresh_prime(prev.modulus, nxt.factor)
        self.prime_dlog = None if self.prime is None else prime_context(self.prime)
        self.pows: dict[int, int] = {}  # summand powers mod M, one lift set at a time
        self._runs: dict[tuple[int, int], _RunFacts] = {}
        self._tables: dict[tuple[int, int], tuple[list[tuple[int, ...]], list[int]]] = {}
        self._lefts: dict[int, Progression] = {}
        self._left_powers: dict[int, list[int]] = {}

    def run(self, e: int, m: int) -> _RunFacts:
        """The lift set and counts of a run of m exponents equal to e."""
        try:
            return self._runs[e, m]
        except KeyError:
            prog = lift_progression(e, self.prev_summand_shape, self.summand_shape)
            facts = _RunFacts((prog, m), _multiset_count(prog.count, m), prog.count**m)
            self._runs[e, m] = facts
            return facts

    def left_lifts(self, x: int) -> Progression:
        """The lift set of x."""
        try:
            return self._lefts[x]
        except KeyError:
            prog = self._lefts[x] = lift_progression(x, self.prev_power_shape, self.power_shape)
            return prog

    def left_powers(self, x: int) -> list[int]:
        """power_base^x' mod M for each x' in the lift set of x."""
        try:
            return self._left_powers[x]
        except KeyError:
            vals = self._left_powers[x] = self._walk(self.spec.power_base, self.left_lifts(x))
            return vals

    def table(self, e: int, m: int) -> tuple[list[tuple[int, ...]], list[int]]:
        """The m-multisets of the lift set of e as sorted tuples, and their
        sums of summand powers mod M."""
        try:
            return self._tables[e, m]
        except KeyError:
            prog = self.run(e, m).run[0]
            if prog.start not in self.pows:  # lift sets are disjoint and filled whole
                self.pows.update(zip(prog.members(), self._walk(self.spec.summand_base, prog)))
            if m == 1:  # the common case, spelled out for speed
                combos = [(a,) for a in prog.members()]
                table = (combos, [self.pows[a] for a in prog.members()])
            else:
                combos = list(combinations_with_replacement(prog.members(), m))
                sums = [sum(map(self.pows.__getitem__, c)) % self.M for c in combos]
                table = (combos, sums)
            self._tables[e, m] = table
            return table

    def _walk(self, base: int, prog: Progression) -> list[int]:
        """base^e mod M for each member e of prog, one multiply per member."""
        v = pow(base, prog.start, self.M)
        stepmul = pow(base, prog.step, self.M)
        out = []
        for _ in range(prog.count):
            out.append(v)
            v = v * stepmul % self.M
        return out


def _cross_sums(vals: list[int], tables, M: int, sign: int) -> list[int]:
    """Add (sign > 0) or subtract one multiset sum per run to every value.

    Entry i * len(combos) + r of each round extends entry i by combos[r], so
    _decode recovers the exponents behind any index."""
    for _, sums in tables:
        if sign > 0:
            vals = [(v + s) % M for v in vals for s in sums]
        else:
            vals = [(v - s) % M for v in vals for s in sums]
    return vals


def _decode(index: int, tables) -> tuple[int, tuple[int, ...]]:
    """(index into the starting values, exponents) of a _cross_sums entry."""
    exps: tuple[int, ...] = ()
    for combos, _ in reversed(tables):
        index, r = divmod(index, len(combos))
        exps = combos[r] + exps
    return index, exps


def _emit(
    out: list[SolutionModM],
    x: int,
    exps: tuple[int, ...],
    ws: _StepWorkspace,
    index: int,
) -> None:
    exps = tuple(sorted(exps))
    if not _distinctness_ok(exps, ws.summand_shape.tail_len):
        return
    out.append(make_solution(
        x, exps, index, ws.spec, ws.step.modulus, ws.power_shape, ws.summand_shape, ws.pows,
    ))


def lift_balanced(
    sol: SolutionModM,
    plan: LiftPlan,
    prev: ChainStep,
    nxt: ChainStep,
    spec: ProblemSpec,
    memory_cap: int = DEFAULT_MEMORY_CAP,
    workspace: _StepWorkspace | None = None,
) -> list[SolutionModM]:
    """Meet-in-the-middle lift: match P^x' minus the lifts of the runs before
    plan.split against sums over the remaining runs, both tabulated modulo
    the next modulus.

    Each run of equal exponents is drawn as a multiset, so every child is
    produced exactly once; memory_cap bounds the multiset entries per side.
    The tables hold values only; the exponents of the rare matches are
    decoded from their table indices.
    """
    ws = workspace or _StepWorkspace(spec, prev, nxt)
    left_runs, right_runs = plan.runs[: plan.split], plan.runs[plan.split :]
    left_count = plan.chi * math.prod(ws.run(p.start, m).multisets for p, m in left_runs)
    right_count = math.prod(ws.run(p.start, m).multisets for p, m in right_runs)
    if max(left_count, right_count) > memory_cap:
        raise MemoryBudgetExceeded(
            f"balanced lift needs {left_count}/{right_count} entries, cap is {memory_cap}"
        )
    M = ws.M
    xs = plan.left_lifts.members()
    left_tables = [ws.table(p.start, m) for p, m in left_runs]
    right_tables = [ws.table(p.start, m) for p, m in right_runs]
    left = _cross_sums(ws.left_powers(plan.left_lifts.start), left_tables, M, sign=-1)
    right = _cross_sums([0], right_tables, M, sign=+1)

    out: list[SolutionModM] = []
    small, big = sorted((left, right), key=len)
    common = set(small).intersection(big)
    if not common:
        return out
    right_at: dict[int, list[int]] = {}
    for j in [j for j, v in enumerate(right) if v in common]:
        right_at.setdefault(right[j], []).append(j)
    for i in [i for i, v in enumerate(left) if v in common]:
        xi, head = _decode(i, left_tables)
        for j in right_at[left[i]]:
            _emit(out, xs[xi], head + _decode(j, right_tables)[1], ws, sol.modulus_index + 1)
    return out


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

    For each multiset of summand lifts with sum s, the admissible x' form
    (possibly empty) congruence classes: x' must hit the dlog class of s in
    (Z/pZ)* and stay in the left lift progression. Useful when chi outruns
    the product of the lift set sizes.
    """
    ws = workspace or _StepWorkspace(spec, prev, nxt)
    p = ws.prime
    if p is None:
        raise UnbalancedInapplicable(f"step factor {nxt.factor} is not a fresh prime >= 5")
    combos_count = math.prod(ws.run(prog.start, m).multisets for prog, m in plan.runs)
    if combos_count > memory_cap:
        raise MemoryBudgetExceeded(
            f"unbalanced lift needs {combos_count} summand combinations, cap is {memory_cap}"
        )
    ctx = ws.prime_dlog
    X = plan.left_lifts
    end = X.start + X.step * X.count

    tables = [ws.table(prog.start, m) for prog, m in plan.runs]
    out: list[SolutionModM] = []
    for idx, s in enumerate(_cross_sums([0], tables, ws.M, sign=+1)):
        sp = s % p
        if sp == 0:
            continue  # a power of the left base is a unit mod p
        cls = ctx.exponent_class(spec.power_base, sp)
        if cls is None:
            continue
        merged = crt_pair(X.start % X.step, X.step, cls.residue_class, cls.class_modulus)
        if merged is None:
            continue
        r, mod = merged
        first = X.start + (r - X.start) % mod
        exps = _decode(idx, tables)[1]
        for xp in range(first, end, mod):
            _emit(out, xp, exps, ws, sol.modulus_index + 1)
    return out


def _lift_chunk(args) -> tuple[int, int, list[SolutionModM]]:
    spec, prev, nxt, chunk, memory_cap = args
    ws = _StepWorkspace(spec, prev, nxt)
    unbalanced = 0
    out: list[SolutionModM] = []
    for sol in chunk:
        plan = compute_lift_plan(sol, prev, nxt, spec, ws)
        # chi against the ordered product: the multiset product would send some
        # plans to the other lift and change StepStats.balanced/unbalanced
        if ws.prime is not None and plan.chi > math.prod(
            ws.run(p.start, m).ordered for p, m in plan.runs
        ):
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

    # a class settles once and its exponents fix x, so no identity is finalised twice
    finals: list[ExactSolution] = []

    def finalize_batch(batch) -> None:
        for s in batch:
            ex = _try_finalize(s, spec)
            if ex is not None:
                finals.append(ex)

    t_base = time.perf_counter()
    working = enumerate_base_solutions(spec, chain[0].modulus)
    report.base_seconds = time.perf_counter() - t_base
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

    solutions = sorted(finals, key=lambda s: (s.x, s.exponents))
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
    working = enumerate_base_solutions(spec, chain[0].modulus)
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
