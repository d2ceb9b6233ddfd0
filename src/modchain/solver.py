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
from collections import namedtuple
from contextlib import contextmanager
from functools import partial
from itertools import combinations, combinations_with_replacement

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


class ProblemSpec(namedtuple("ProblemSpec", "power_base summand_base n")):
    """Which equation is being solved: power_base^x = sum of n summand_base powers."""

    __slots__ = ()

    def __new__(cls, power_base: int, summand_base: int, n: int):
        if {power_base, summand_base} != {2, 3}:
            raise InvalidInput("power and summand bases must be 2 and 3 in some order")
        if n < 1:
            raise InvalidInput("n must be >= 1")
        return tuple.__new__(cls, (power_base, summand_base, n))

    @classmethod
    def from_direction(cls, direction: str, n: int) -> "ProblemSpec":
        p, s = direction_bases(direction)
        return cls(p, s, n)

    @property
    def direction(self) -> str:
        return "3=sum2" if self.power_base == 3 else "2=sum3"


SolutionModM = namedtuple("SolutionModM", "x exponents modulus_index")
SolutionModM.__doc__ = """One congruence solution: power_base^x = sum of summand_base^a_j in Z/M_iZ.

Exponents are sorted non-decreasingly; equal exponents are legal only
while indeterminate (their lifts may separate later).
"""

ExactSolution = namedtuple("ExactSolution", "x exponents")
ExactSolution.__doc__ = "An integer identity power_base^x = sum of distinct summand_base^a_j."


class Progression(namedtuple("Progression", "start step count")):
    """Arithmetic progression start, start+step, ... with `count` members."""

    __slots__ = ()

    def __new__(cls, start: int, step: int, count: int):
        if step < 1 or count < 0:
            raise InvalidInput(f"progression needs step >= 1 and count >= 0, got {step=}, {count=}")
        return tuple.__new__(cls, (start, step, count))

    def members(self) -> range:
        return range(self.start, self.start + self.step * self.count, self.step)


class LiftPlan(namedtuple("LiftPlan", "runs left_lifts split counts ordered")):
    """How one solution lifts from a modulus to the next one.

    runs holds (lift set, m) for each run of m equal exponents, in exponent
    order; the run's new exponents are an m-multiset of its lift set. Lift
    sets of different exponents are disjoint. left_lifts holds the candidate
    new values of x. runs[:split] go to the left (subtracted) side of a
    balanced match, so the split never separates equal exponents. counts
    (each run's multiset count) and ordered (the product of the lift-set
    sizes) depend on the runs alone, so they hold at any split: _replace
    moves the split and keeps them.
    """

    __slots__ = ()

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

    @property
    def _sizes(self) -> tuple[int, int, int]:
        """(ordered, left, right) at this plan's own split: left and right are the
        multiset entries of a balanced match's tables, chi counted on the left.
        ordered is what chi is weighed against to choose the lift; the multiset
        product would send some plans to the other lift and change the digests."""
        counts, k = self.counts, self.split
        return self.ordered, self.chi * math.prod(counts[:k]), math.prod(counts[k:])


class SolverConfig:
    """How a solve runs: its worker processes and the multiset entries one
    lift table side may hold."""

    def __init__(self, workers: int = 1, memory_cap: int = DEFAULT_MEMORY_CAP):
        for name, value in (("workers", workers), ("memory_cap", memory_cap)):
            if type(value) is not int or value < 1:
                raise InvalidInput(f"{name} must be an integer >= 1, got {value!r}")
        self.workers = workers
        self.memory_cap = memory_cap

    def __repr__(self) -> str:
        return f"SolverConfig(workers={self.workers}, memory_cap={self.memory_cap})"


StepStats = namedtuple(
    "StepStats", "index factor incoming finalized_early balanced unbalanced survivors seconds"
)
StepStats.__doc__ = "One step of a run: its 1-based chain index, class counts and wall seconds."


class RunReport:
    """What a solve did: its steps, where it stopped, the classes still live
    if the chain ran out, and its timings (base_seconds is
    enumerate_base_solutions, outside every step)."""

    def __init__(self, direction: str, n: int):
        self.direction = direction
        self.n = n
        self.steps: list[StepStats] = []
        self.complete = False
        self.terminated_at: int | None = None
        self.base_count = 0
        self.parity_shortcut = False
        self.remaining: list[SolutionModM] = []
        self.base_seconds = 0.0
        self.seconds = 0.0


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
    pows: dict[int, int] | list[int] | None = None,
    allow_repeats: bool = False,
) -> SolutionModM:
    """Checked constructor: validates ranges, the side condition and the congruence.

    allow_repeats lifts the no-repeated-determinate-exponent rule for raw
    census enumerations, which count multisets.
    """
    _require_order(exponents, summand_shape.tail_len, allow_repeats)
    return _checker(spec, modulus, power_shape, summand_shape, pows)(x, exponents, modulus_index)


def _require_order(exponents: tuple[int, ...], tail: int, allow_repeats: bool) -> None:
    """Raise unless the exponents are sorted and, when repeats are not
    allowed, repeat no determinate exponent."""
    if list(exponents) != sorted(exponents):
        raise InvalidInput("exponents must be sorted")
    if not allow_repeats and not _distinctness_ok(exponents, tail):
        raise InvalidInput("repeated determinate exponent")


def _checker(
    spec: ProblemSpec,
    modulus: FactoredModulus,
    power_shape: CycleShape,
    summand_shape: CycleShape,
    pows: dict[int, int] | list[int] | None,
):
    """check(x, exponents, modulus_index): _checked with the constants of one
    modulus bound once, so a step or a base search that checks many
    solutions reads no shape property per solution. The summand powers come
    from pows when given, else from pow."""
    M = modulus.value
    get = partial(pow, spec.summand_base, mod=M) if pows is None else pows.__getitem__
    return partial(
        _checked, spec.n, power_shape.num_powers, summand_shape.num_powers, M, spec.power_base, get
    )


def _checked(
    n: int,
    x_end: int,
    a_end: int,
    M: int,
    P: int,
    summand_pow,
    x: int,
    exponents: tuple[int, ...],
    modulus_index: int,
) -> SolutionModM:
    """The solution, once its length n, the ranges [0, x_end) of x and
    [0, a_end) of the exponents and the congruence P^x = sum of
    summand_pow(a) mod M hold; the caller has sorted the exponents and
    applied the distinctness rule. P^x is taken by pow, never from a lift's
    tables."""
    if len(exponents) != n:
        raise InvalidInput(f"expected {n} exponents, got {len(exponents)}")
    if not 0 <= x < x_end:
        raise InvalidInput(f"x={x} outside canonical range [0, {x_end})")
    if exponents and not 0 <= exponents[0] <= exponents[-1] < a_end:
        raise InvalidInput("exponent outside canonical range")
    if pow(P, x, M) != sum(map(summand_pow, exponents)) % M:
        raise InvalidInput(f"congruence fails mod {M} for x={x}, exponents={exponents}")
    return SolutionModM(x, exponents, modulus_index)


# ---------------------------------------------------------------------------
# base enumeration


def _multiset_count(k: int, m: int) -> int:
    """Number of m-multisets drawn from k items."""
    return math.comb(k + m - 1, m) if k else int(m == 0)


def _walk(base: int, prog: Progression, M: int) -> list[int]:
    """base^e mod M for each member e of prog, one multiply per member."""
    v = pow(base, prog.start, M)
    stepmul = pow(base, prog.step, M)
    out = []
    for _ in range(prog.count):
        out.append(v)
        v = v * stepmul % M
    return out


def _x_by_residue(power_res: list[int], Q: int) -> dict[int, list[tuple[int, int]]]:
    """(x, P^x mod M) for every canonical x, grouped by P^x mod Q, x ascending."""
    by_res: dict[int, list[tuple[int, int]]] = {}
    for x, p in enumerate(power_res):
        by_res.setdefault(p % Q, []).append((x, p))
    return by_res


def _base_plan(
    n: int, summand_shape: CycleShape, det: int, forced: int, power_res: list[int]
) -> tuple[int, list[tuple[int, int]]]:
    """The split s in [det, T] of the base search, and for each left count c
    (r, entries): the number r of top right summands tabled with x, and the
    entries of that count's table, that need the least work.

    A table entry is one (left tuple, x, top multiset) whose x fits the left
    tuple modulo Q = S^min(s, tail), S the summand base: every right summand
    is S^a with a >= s, so 0 mod Q, and P^x must equal the left sum there.
    The left tuples of count c are those of _left_tuples; only their
    exponents below e = min(s, tail) move their sum mod Q, so each count of
    entries is exact from the residues of the "low" parts (the forced zeros,
    the optional determinate indices and, in a census, multisets of [0, e)),
    times the multisets of [max(det, e), s) that complete them. power_res
    holds P^x mod M for each canonical x, and Q = 1 (s = 0 in a census, or
    a tail of 0) filters nothing.

    Work is table entries, weighed _TABLE_ENTRY_WORK, plus bottom multisets
    streamed, all counted exactly; ties go to the smallest s and the fewest
    tabled summands. A count whose tables would all exceed _BASE_TABLE_CAP
    entries makes its s ineligible; if no s is eligible, s = det, and a count
    that fits no table gets the untopped one, the smallest there is. The
    right summands of count c are an (n-c)-multiset of [s, T), split into a
    streamed bottom and a tabled top.
    """
    T, tail, S = summand_shape.num_powers, summand_shape.tail_len, summand_shape.base
    lows: dict[int, list[int]] = {}

    def admissible(e: int) -> list[int]:
        """For each count j, the (low tuple of count j, x) pairs that agree mod S^e."""
        if e not in lows:
            Q = S**e
            fits = {res: len(pairs) for res, pairs in _x_by_residue(power_res, Q).items()}
            # by_count[j]: sum of a low tuple of count j mod Q -> how many have it
            by_count: list[dict[int, int]] = [{} for _ in range(n + 1)]
            by_count[forced][forced % Q] = 1
            for i in range(forced, max(det, e)):
                w = S**i % Q
                # an optional index [forced, det) is used once: counts descend;
                # a free one [det, e) any number of times: counts ascend
                for j in range(n - 1, -1, -1) if i < det else range(n):
                    nxt = by_count[j + 1]
                    for res, k in by_count[j].items():
                        key = (res + w) % Q
                        nxt[key] = nxt.get(key, 0) + k
            lows[e] = [sum(k * fits.get(res, 0) for res, k in d.items()) for d in by_count]
        return lows[e]

    def count_work(s: int, c: int) -> tuple[float, int, int]:
        e = min(s, tail)
        low, free = admissible(e), s - max(det, e)
        pairs = sum(low[j] * _multiset_count(free, c - j) for j in range(c + 1))
        if not pairs:
            return 0, 0, 0
        plans = []
        for r in range(n - c + 1):
            entries = pairs * _multiset_count(T - s, r)
            if entries <= _BASE_TABLE_CAP:
                work = _TABLE_ENTRY_WORK * entries + _multiset_count(T - s, n - c - r)
                plans.append((work, r, entries))
        return min(plans, default=(math.inf, 0, pairs))

    s = min(range(det, T + 1), key=lambda s: sum(count_work(s, c)[0] for c in range(n + 1)))
    return s, [count_work(s, c)[1:] for c in range(n + 1)]


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

    The summand indices [0, T) split at s (at or past the tail length when
    the side conditions are on), so the side conditions concern only the
    left part [0, s) and the right part [s, T) is free. For each left count
    c the right part is an (n-c)-multiset of [s, T). Its r largest members
    (the top) are tabled with x and the left tuple, keyed by
    P^x - (left sum) - (top sum) mod M; its other members (the bottom) are
    streamed with combinations_with_replacement, never stored, and looked
    up by their sum. A match counts only when the bottom lies below the top,
    so each multiset is found once. r = 0 is the plain split; r = 1 solves
    for the last summand, which wins when T is much larger than n.

    Only the x that fit a left tuple are tabled with it. Q = S^min(s, tail)
    divides M, and every right summand S^a has a >= s, so it is 0 mod Q: a
    solution's x has P^x = (left sum) mod Q. A left tuple is tabled with the
    x of its residue alone, and skipped when there is none. The entries left
    out could never match, so the hits are exactly those of a search over
    every x. On t3's first modulus 2*3^4*13*757, 2 has order 54 mod 81, so a
    left tuple tables about 14 of the 757 canonical x. Q = 1 (a census split
    at 0, or a tail of 0) leaves every x in.

    Split rule (_base_plan): s and each count's r minimise the work, table
    entries plus bottoms streamed, from exact counts of the filtered entries,
    with a table entry weighed as two streamed bottoms (an insert costs
    about twice a lookup). Memory stays bounded because only one count's
    table is alive at a time and the rule only picks plans whose tables hold
    at most _BASE_TABLE_CAP entries; the plain split at s = det, which
    builds the smallest tables, is the fallback when no plan fits.
    MemoryBudgetExceeded is raised as soon as more than _BASE_CLASS_CAP
    solutions are found.
    """
    power_shape, summand_shape = _shapes(spec, m1)
    T = summand_shape.num_powers
    if T > max_exponents:
        raise BaseModulusTooLarge(
            f"{T} distinct summand powers exceeds the configured bound {max_exponents}"
        )
    M = m1.value
    n = spec.n
    pow_s = _walk(spec.summand_base, Progression(0, 1, T), M)
    power_res = _walk(spec.power_base, Progression(0, 1, power_shape.num_powers), M)

    det = summand_shape.tail_len if side_conditions else 0
    forced = 1 if side_conditions else 0
    s, plan = _base_plan(n, summand_shape, det, forced, power_res)
    right = range(s, T)
    Q = spec.summand_base ** min(s, summand_shape.tail_len)
    x_by_residue = _x_by_residue(power_res, Q)

    hits: list[tuple[int, tuple[int, ...]]] = []
    for c, (r, entries) in enumerate(plan):
        if not entries:
            continue
        # (P^x - left sum - top sum) mod M -> (x, left, top, next entry with that key),
        # for the left tuples of count c and the x that fit each one mod Q
        table: dict[int, tuple] = {}
        for left in _left_tuples(c, s, det, forced):
            left_sum = sum(pow_s[i] for i in left)
            fits = x_by_residue.get(left_sum % Q)
            if fits is None:
                continue
            for top in combinations_with_replacement(right, r):
                acc = left_sum + sum(pow_s[i] for i in top)
                for x, p in fits:
                    key = (p - acc) % M
                    table[key] = (x, left, top, table.get(key))
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
    # every hit is checked as make_solution checks it, with the modulus's constants bound once
    check, tail = _checker(spec, m1, power_shape, summand_shape, pow_s), summand_shape.tail_len
    out = []
    for x, exps in hits:
        _require_order(exps, tail, not side_conditions)
        out.append(check(x, exps, 0))
    return out


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

    chi and the sizes are >= 1, so the left product never falls and the
    right one never rises as k grows: the imbalance falls until the first k
    whose left product reaches its right one and rises after it, so the best
    k is that one or the k before it. Comparison is exact (cross-multiplied),
    ties go to the smallest k, which steps back over sizes of 1 (they leave
    both products unchanged).
    """
    total = math.prod(sizes)
    k, head, before = 0, 1, 1  # head = prod(sizes[:k]), before = prod(sizes[:k-1])
    while chi * head * head < total:  # left chi*head < right total/head
        before, head = head, head * sizes[k]
        k += 1
    # the imbalance at k-1, total/(chi*before^2), against chi*head^2/total at k
    if k and total <= chi * before * head:
        k -= 1
        while k and sizes[k - 1] == 1:
            k -= 1
    return k


def compute_lift_plan(
    sol: SolutionModM,
    prev: ChainStep,
    nxt: ChainStep,
    spec: ProblemSpec,
    workspace: _StepWorkspace | None = None,
) -> LiftPlan:
    """The runs of equal exponents with their lift sets and sizes, the left
    lift set for x, and the split point, which balances multiset counts: a
    run of m equal exponents whose lift set has s members costs C(s+m-1, m),
    and the split falls between runs."""
    ws = workspace or _StepWorkspace(spec, prev, nxt)
    exps, memo = sol.exponents, ws.runs
    runs, counts, ordered, i, n = [], [], 1, 0, len(exps)
    while i < n:
        a, j = exps[i], i + 1
        while j < n and exps[j] == a:
            j += 1
        run, count, size = memo[a if j == i + 1 else (a, j - i)]
        runs.append(run)
        counts.append(count)
        ordered *= size
        i = j
    left = ws.x_lifts[sol.x]
    # a tuple of a list has its exact size; a tuple built from a generator is
    # over-allocated and then shrunk, and CPython's tuple free lists keep
    # those blocks (about 1 MB more peak RSS on 3=sum2 n=14)
    counts = tuple(counts)
    return LiftPlan(tuple(runs), left, _choose_split(left.count, counts), counts, ordered)


# ---------------------------------------------------------------------------
# lifting


class _StepWorkspace:
    """Everything about lifting from prev's modulus to nxt's that does not
    depend on one solution: a child's checks at the next modulus (tail_len
    for the distinctness rule, and check, the step's _checker), the step's
    fresh prime and its dlog context (None when the dlog lift does not
    apply), and _Memo dicts of what depends only on an exponent, a run or x,
    shared by every class of the step and filled on the first read of a key:
    - pows[e]: summand_base^e mod M, filled a lift set at a time by tables;
    - runs[e] (a run of one exponent, the common case) or runs[e, m]:
      ((lift set of e, m), multiset count, ordered count). A canonical
      exponent starts its own lift set, so (prog.start, m) finds a plan's run;
    - tables[e, m]: the m-multisets of the lift set of e as sorted tuples
      and their sums mod M, read only after a lift's memory_cap check;
    - x_lifts[x]: the lift set of x; x_powers[x]: power_base^x' mod M for it.
    No fill function holds the workspace, so reference counting frees it and
    its memos when its chunk ends. So goes the last left side of a balanced
    match, which the next class reuses when its plan has the same left lift
    set and left runs: a step's classes come sorted by (x, exponents), so
    such classes are neighbours.
    """

    def __init__(self, spec: ProblemSpec, prev: ChainStep, nxt: ChainStep):
        if nxt.modulus.value % prev.modulus.value != 0:
            raise NotDivisible("previous modulus must divide the next one")
        self.M = M = nxt.modulus.value
        power_shape, summand_shape = nxt.shape(spec.power_base), nxt.shape(spec.summand_base)
        self.prime = fresh_prime(prev.modulus, nxt.factor)
        self.prime_dlog = None if self.prime is None else prime_context(self.prime)
        self.pows = pows = _Memo(partial(pow, spec.summand_base, mod=M))
        self.runs = runs = _Memo(partial(_run, prev.shape(spec.summand_base), summand_shape))
        self.tables = _Memo(partial(_table, runs, pows, spec.summand_base, M))
        self.x_lifts = x_lifts = _Memo(
            partial(lift_progression, prev=prev.shape(spec.power_base), nxt=power_shape)
        )
        self.x_powers = _Memo(lambda x: _walk(spec.power_base, x_lifts[x], M))
        # a child's checks, bound once per step; neither holds the workspace
        self.tail_len = summand_shape.tail_len
        self.check = _checker(spec, nxt.modulus, power_shape, summand_shape, pows)
        self._left_side: _LeftSide | None = None

    def left_side(self, left_lifts: Progression, left_runs: tuple) -> _LeftSide:
        """The left side of a balanced match over these x-lifts and runs,
        reused from the last call when it was over the same ones."""
        key = (left_lifts, left_runs)
        side = self._left_side
        if side is None or side.key != key:
            const, fixed, tables = _fold(left_runs, self.tables)
            values = self.x_powers[left_lifts.start]
            if const % self.M:
                values = [(v - const) % self.M for v in values]
            if tables:
                values = _cross_sums(values, tables, self.M, sign=-1)
            side = self._left_side = _LeftSide(key, fixed, tables, values)
        return side


class _Memo(dict):
    """A dict that fills a missing key with make(key) and keeps the value."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _run(prev: CycleShape, nxt: CycleShape, key) -> tuple[tuple[Progression, int], int, int]:
    """((lift set of e, m), multiset count, ordered count) of the run of m
    exponents equal to e, keyed by e when m is 1 and by (e, m) otherwise."""
    e, m = (key, 1) if isinstance(key, int) else key
    prog = lift_progression(e, prev, nxt)
    return (prog, m), _multiset_count(prog.count, m), prog.count**m


def _table(runs: _Memo, pows: _Memo, base: int, M: int, key: tuple[int, int]):
    """(the m-multisets of the lift set of e as sorted tuples, their sums of
    base powers mod M) for key (e, m)."""
    e, m = key
    (prog, _), _, _ = runs[e if m == 1 else key]
    # lift sets are disjoint and filled whole (a miss fills only a one-member one)
    if prog.start not in pows:
        pows.update(zip(prog.members(), _walk(base, prog, M)))
    combos = list(combinations_with_replacement(prog.members(), m))
    return combos, [sum(map(pows.__getitem__, c)) % M for c in combos]


def _fold(runs, tables: _Memo) -> tuple[int, tuple[int, ...], list]:
    """(constant, fixed exponents, tables) of one side's runs, the rule both
    sides of a match share. A run whose lift set has one member has one
    multiset (its multiset count is 1): its sum goes into the constant and
    its exponents into fixed, and it gets no _cross_sums round. Every other
    run gives its table, in run order. The constant is not reduced mod M."""
    const, fixed, out = 0, (), []
    for prog, m in runs:
        table = tables[prog.start, m]
        if prog.count == 1:
            const += table[1][0]
            fixed += table[0][0]
        else:
            out.append(table)
    return const, fixed, out


class _LeftSide:
    """P^x' minus one multiset sum per left run, for every x' and choice of
    multisets: the folded runs' constant is taken off every P^x' first, and
    the values are laid out by _cross_sums over the other runs' tables, with
    a set of them for probing. Every match on this side adds fixed, the
    folded runs' exponents, to what _decode gives."""

    __slots__ = ("key", "fixed", "tables", "values", "lookup")

    def __init__(self, key, fixed: tuple[int, ...], tables, values: list[int]):
        self.key = key  # (left lift set of x, left runs)
        self.fixed = fixed
        self.tables = tables
        self.values = values
        self.lookup = set(values)


def _indices(values: list[int], v: int) -> list[int]:
    """The indices of a value in values, ascending: list.count, then one
    list.index scan per occurrence, all in C. Matches are few, so this beats
    indexing every value."""
    out, i = [], -1
    for _ in range(values.count(v)):
        i = values.index(v, i + 1)
        out.append(i)
    return out


def _cross_sums(vals: list[int], tables, M: int, sign: int) -> list[int]:
    """Add (sign > 0) or subtract one multiset sum per table to every value.

    Entry i * len(combos) + r of each round extends entry i by combos[r], so
    _decode recovers the exponents behind any index. Three or more tables
    go in two halves: the first half onto vals, the second from its own
    first table's sums, and one last round takes every pair, entry
    i_A * |B| + i_B. That is the index the rounds one table at a time give,
    and the last list is the same, but fewer entries are built on the way.
    """
    if len(tables) >= 3:
        h = len(tables) // 2
        vals = _cross_sums(vals, tables[:h], M, sign)
        tables = [(None, _cross_sums(tables[h][1], tables[h + 1 :], M, +1))]
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


def _right_side(sol: SolutionModM, plan: LiftPlan, ws: _StepWorkspace):
    """(sums, tables, fixed) over the runs from plan.split on, folded as
    _fold folds them: the sum mod M of every choice of one multiset per
    table, as _cross_sums lays them out, and the folded runs' exponents,
    which every choice adds to _decode's. Without folded runs the sums
    start from the first table's own list, the layout _cross_sums gives
    from [0], so a one-table side is the memo's list and is only read.

    A pinned plan (every lift set has one member) folds every run: one sum,
    no table, and its children keep its exponents. Split at 0, as
    compute_lift_plan splits it, that sum is taken from the class's own
    exponents in one pass in C, which lifts t2's steps 2-45 at n=14 about
    3% faster than folding run by run."""
    if plan.ordered == 1 and not plan.split:
        return [sum(map(ws.pows.__getitem__, sol.exponents)) % ws.M], [], sol.exponents
    const, fixed, tables = _fold(plan.runs[plan.split :], ws.tables)
    if not tables:  # every run folded, or a plan moved to split after its last run
        return [const % ws.M], tables, fixed
    if fixed:
        return _cross_sums([const % ws.M], tables, ws.M, sign=+1), tables, fixed
    return _cross_sums(tables[0][1], tables[1:], ws.M, sign=+1), tables, fixed


def _emit(
    out: list[SolutionModM], x: int, exps: tuple[int, ...], index: int, tail_len: int, check
) -> None:
    """Append the child (x, exps) to out, sorted once and checked once: a
    child that repeats a determinate exponent below tail_len is dropped,
    and one that fails check (the step's _checker) raises InvalidInput."""
    exps = tuple(sorted(exps))
    if _distinctness_ok(exps, tail_len):
        out.append(check(x, exps, index))


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
    decoded from their table indices. The left side comes from the
    workspace, which keeps the last one built, so only the right side is
    built per class. The values the two sides share are found in C, by
    intersecting the left side's set with the right side, and each shared
    value's indices on either side by list.index scans, also in C.
    On either side a run whose lift set has one member is folded into a
    constant (_fold), and its exponents are added to every match's.
    A pinned plan (every lift set has one member) has no right table: its
    one summand sum is probed against the x-lifts alone, and its children
    keep its exponents.
    """
    ws = workspace or _StepWorkspace(spec, prev, nxt)
    _, left_count, right_count = plan._sizes
    if max(left_count, right_count) > memory_cap:
        raise MemoryBudgetExceeded(
            f"balanced lift needs {left_count}/{right_count} entries, cap is {memory_cap}"
        )
    left = ws.left_side(plan.left_lifts, plan.runs[: plan.split])
    right, right_tables, fixed = _right_side(sol, plan, ws)

    out: list[SolutionModM] = []
    xs = plan.left_lifts.members()
    index, tail_len, check = sol.modulus_index + 1, ws.tail_len, ws.check
    for v in left.lookup.intersection(right):
        heads = [_decode(i, left.tables) for i in _indices(left.values, v)]
        for j in _indices(right, v):
            rest = left.fixed + fixed + _decode(j, right_tables)[1]
            for xi, head in heads:
                _emit(out, xs[xi], head + rest, index, tail_len, check)
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
    the product of the lift set sizes. A pinned plan (every lift set has one
    member) has one sum, and its children keep its exponents.
    """
    ws = workspace or _StepWorkspace(spec, prev, nxt)
    p = ws.prime
    if p is None:
        raise UnbalancedInapplicable(f"step factor {nxt.factor} is not a fresh prime >= 5")
    # every run's multisets, as on the right of a balanced match split at 0;
    # _lift_chunk sends only plans whose chi outruns them, which split at 0
    whole = plan if not plan.split else plan._replace(split=0)
    combos_count = whole._sizes[2]
    if combos_count > memory_cap:
        raise MemoryBudgetExceeded(
            f"unbalanced lift needs {combos_count} summand combinations, cap is {memory_cap}"
        )
    ctx = ws.prime_dlog
    X = plan.left_lifts
    end = X.start + X.step * X.count

    sums, tables, fixed = _right_side(sol, whole, ws)
    index, tail_len, check = sol.modulus_index + 1, ws.tail_len, ws.check
    out: list[SolutionModM] = []
    for idx, s in enumerate(sums):
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
        exps = fixed + _decode(idx, tables)[1]
        for xp in range(first, end, mod):
            _emit(out, xp, exps, index, tail_len, check)
    return out


def _lift_chunk(args) -> tuple[int, int, list[SolutionModM]]:
    spec, prev, nxt, chunk, memory_cap = args
    ws = _StepWorkspace(spec, prev, nxt)
    unbalanced = 0
    out: list[SolutionModM] = []
    for sol in chunk:
        plan = compute_lift_plan(sol, prev, nxt, spec, ws)
        if ws.prime is not None and plan.left_lifts.count > plan.ordered:
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

    Returns (balanced lifts, unbalanced lifts, children sorted by (x, exponents)).
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
    # every child is at nxt's index, so tuple order is (x, exponents) order
    children = results[0][2]
    for _, _, out in results[1:]:
        children.extend(out)
    children.sort()
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


def solve_chain(
    spec: ProblemSpec,
    chain: Chain,
    config: SolverConfig | None = None,
    step_callback=None,
) -> tuple[list[ExactSolution], RunReport]:
    """Run the whole pipeline and return (integer solutions, run report).

    A class is settled at the step that pins its largest exponent below the
    tail, and is not lifted further; the run stops once no class is live.
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
    t_base = time.perf_counter()
    working = enumerate_base_solutions(spec, chain[0].modulus)
    report.base_seconds = time.perf_counter() - t_base
    report.base_count = len(working)

    with _lift_pool(cfg.workers) as pool:
        for idx, step in enumerate(chain.steps):
            t_step = time.perf_counter()
            incoming, balanced, unbalanced = len(working), 0, 0
            if idx > 0:
                balanced, unbalanced, working = _lift_step(working, spec, chain[idx - 1], step, cfg, pool)
            # exponents are sorted: the class is settled once its largest is pinned
            tail = step.shape(spec.summand_base).tail_len
            live = []
            for s in working:
                if s.exponents[-1] >= tail:
                    live.append(s)
                elif (ex := _try_finalize(s, spec)) is not None:
                    finals.append(ex)
            stats = StepStats(
                index=step.index,
                factor=str(step.factor),
                incoming=incoming,
                finalized_early=len(working) - len(live),
                balanced=balanced,
                unbalanced=unbalanced,
                survivors=len(live),
                seconds=time.perf_counter() - t_step,
            )
            working = live
            report.steps.append(stats)
            if step_callback is not None:
                step_callback(stats, working)
            if not working:
                report.terminated_at = step.index
                report.complete = True
                break

    finals.sort()
    report.seconds = time.perf_counter() - t0
    if not report.complete:
        report.remaining = working
        raise ChainExhausted(finals, report)
    return finals, report


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
