import collections
import gc
import itertools
import math
import pickle
import random
import time
import tracemalloc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from modchain import (
    Chain,
    ChainExhausted,
    ChainFile,
    ChainStep,
    CycleShape,
    DlogResult,
    ExactSolution,
    FactoredModulus,
    InvalidInput,
    LiftPlan,
    MemoryBudgetExceeded,
    NotDivisible,
    ProblemSpec,
    Progression,
    SolutionModM,
    SolverConfig,
    StepStats,
    UnbalancedInapplicable,
    bit_count_table,
    compute_lift_plan,
    cycle_shape,
    enumerate_base_solutions,
    lift_balanced,
    lift_progression,
    lift_unbalanced,
    make_solution,
    modular_solutions,
    solve_chain,
)
from modchain.chains import fresh_prime
from modchain.errors import BaseModulusTooLarge
from modchain.solver import (
    DEFAULT_MEMORY_CAP,
    _BASE_TABLE_CAP,
    _base_plan,
    _choose_split,
    _climb,
    _cross_sums,
    _decode,
    _indices,
    _left_tuples,
    _lift_chunk,
    _Memo,
    _multiset_count,
    _right_side,
    _StepWorkspace,
    _sum_blocks,
)

from conftest import FAMILY_FACTORS


def fm(n):
    return FactoredModulus.from_int(n)


def chain_of(*factor_values, direction="3=sum2"):
    return Chain.from_factors([fm(v) for v in factor_values], direction=direction)


SPEC3 = ProblemSpec(3, 2, 3)

# the full balanced lift of (57; 0,1,11,12,15,16,26,27,37,57,65,68) from 439
# up to 439*1753, computed once and frozen; completeness of lifting against
# brute force is covered separately on small instances
LIFTS_439_1753 = {
    (203, (0, 1, 26, 27, 57, 68, 84, 85, 88, 89, 110, 138)),
    (203, (1, 11, 57, 73, 85, 88, 89, 99, 100, 110, 138, 141)),
    (203, (11, 27, 57, 65, 73, 74, 85, 88, 89, 99, 110, 141)),
    (349, (27, 68, 73, 74, 84, 85, 88, 89, 99, 110, 130, 138)),
    (641, (0, 1, 12, 15, 16, 26, 37, 68, 84, 100, 130, 138)),
    (641, (0, 12, 15, 16, 26, 27, 37, 65, 68, 74, 84, 130)),
    (641, (11, 12, 15, 16, 37, 65, 73, 74, 99, 100, 130, 141)),
    (787, (0, 1, 11, 12, 15, 16, 26, 37, 57, 65, 100, 141)),
}

BASE_439 = (57, (0, 1, 11, 12, 15, 16, 26, 27, 37, 57, 65, 68))


def sol_at(chain, step_index, x, exps, spec):
    step = chain.steps[step_index - 1]
    return make_solution(
        x, tuple(exps), step_index, spec, step.modulus,
        step.shape(spec.power_base), step.shape(spec.summand_base),
    )


# ---------------------------------------------------------------------------
# problem specs and solution construction


def test_problem_spec():
    assert ProblemSpec.from_direction("3=sum2", 5) == ProblemSpec(3, 2, 5)
    assert ProblemSpec.from_direction("2=sum3", 4) == ProblemSpec(2, 3, 4)
    assert ProblemSpec(3, 2, 1).direction == "3=sum2"
    with pytest.raises(InvalidInput):
        ProblemSpec(3, 3, 2)
    with pytest.raises(InvalidInput):
        ProblemSpec(2, 2, 3)
    with pytest.raises(InvalidInput):
        ProblemSpec(3, 2, 0)
    with pytest.raises(InvalidInput):
        ProblemSpec(power_base=3, summand_base=2, n=0)
    with pytest.raises(InvalidInput):
        ProblemSpec.from_direction("3=sum4", 2)


def test_make_solution_checks():
    ch = chain_of(5440)
    assert sol_at(ch, 1, 4, (0, 4, 6), SPEC3).x == 4
    with pytest.raises(InvalidInput):
        sol_at(ch, 1, 4, (0, 4), SPEC3)  # wrong arity
    with pytest.raises(InvalidInput):
        sol_at(ch, 1, 4, (4, 0, 6), SPEC3)  # not sorted
    with pytest.raises(InvalidInput):
        sol_at(ch, 1, 4, (0, 4, 99), SPEC3)  # exponent out of range
    with pytest.raises(InvalidInput):
        sol_at(ch, 1, 99, (0, 4, 6), SPEC3)  # x out of range
    with pytest.raises(InvalidInput):
        sol_at(ch, 1, 4, (0, 4, 7), SPEC3)  # congruence fails
    with pytest.raises(InvalidInput):
        sol_at(ch, 1, 1, (0, 0, 0), SPEC3)  # repeated determinate exponent


def test_progression_members():
    p = Progression(4, 16, 3)
    assert list(p.members()) == [4, 20, 36]
    assert p.count == 3
    assert list(Progression(5, 1, 1).members()) == [5]
    assert list(Progression(5, 3, 0).members()) == []
    # a step below 1 would make members() disagree with count
    for step, count in ((0, 1), (-2, 3), (1, -1)):
        with pytest.raises(InvalidInput):
            Progression(5, step, count)
        with pytest.raises(InvalidInput):
            Progression(start=0, step=step, count=count)


# ---------------------------------------------------------------------------
# base enumeration


def test_base_census_5440():
    sols = enumerate_base_solutions(SPEC3, fm(5440), side_conditions=False)
    assert [(s.x, s.exponents) for s in sols] == [
        (1, (0, 0, 0)),
        (2, (0, 2, 2)),
        (4, (0, 4, 6)),
    ]


def test_base_strict_5440():
    sols = enumerate_base_solutions(SPEC3, fm(5440))
    assert [(s.x, s.exponents) for s in sols] == [(4, (0, 4, 6))]


def test_base_census_10880():
    m = FactoredModulus.from_prime_powers(FAMILY_FACTORS["m2"])
    sols = enumerate_base_solutions(SPEC3, m, side_conditions=False)
    assert [(s.x, s.exponents) for s in sols] == [
        (1, (0, 0, 0)),
        (2, (0, 2, 2)),
        (4, (0, 4, 6)),
        (20, (0, 4, 14)),
    ]


def test_base_census_257_extension_clean():
    m = FactoredModulus.from_prime_powers(FAMILY_FACTORS["m257"])
    sols = enumerate_base_solutions(SPEC3, m, side_conditions=False, max_exponents=300)
    assert [(s.x, s.exponents) for s in sols] == [
        (1, (0, 0, 0)),
        (2, (0, 2, 2)),
        (4, (0, 4, 6)),
    ]


def test_base_n1():
    sols = enumerate_base_solutions(ProblemSpec(3, 2, 1), fm(5440))
    assert [(s.x, s.exponents) for s in sols] == [(0, (0,))]


def test_base_brute_agreement():
    # census mode against a direct scan over all non-decreasing triples
    for m_val in (40, 85, 170, 544):
        m = fm(m_val)
        T = cycle_shape(2, m).num_powers
        P = cycle_shape(3, m).num_powers
        powers = {pow(3, x, m_val): x for x in range(P - 1, -1, -1)}
        expected = set()
        for a in range(T):
            for b in range(a, T):
                for c in range(b, T):
                    s = (2**a + 2**b + 2**c) % m_val
                    if s in powers:
                        expected.add((powers[s], (a, b, c)))
        got = {(s.x, s.exponents)
               for s in enumerate_base_solutions(SPEC3, m, side_conditions=False)}
        assert got == expected, m_val

    # every direction, n = 1..6, both modes, against a filter over all multisets;
    # the first t2 modulus at n = 7, 8 splits past the tail and tables tops there
    rng = random.Random(7)
    moduli = [85, 7, 24] + [rng.randrange(2, 4000) for _ in range(40)]
    cases = [(m_val, n) for m_val in moduli for n in range(1, 7)] + [(8176, 7), (8176, 8)]
    checked = dict.fromkeys([
        "tail 0", "n > T", "split past the tail", "tabled tops",
        "filter in both modes", "left residue with no x", "census split below the tail",
    ], 0)
    for m_val, n in cases:
        m = fm(m_val)
        for power_base, summand_base in ((3, 2), (2, 3)):
            ps, ss = cycle_shape(power_base, m), cycle_shape(summand_base, m)
            if ss.num_powers > 13:
                continue
            spec = ProblemSpec(power_base, summand_base, n)
            power_res = [pow(power_base, x, m_val) for x in range(ps.num_powers)]
            filtered = set()
            for side in (True, False):
                got = [(s.x, s.exponents)
                       for s in enumerate_base_solutions(spec, m, side_conditions=side)]
                assert got == sorted(set(got)), (m_val, spec, side)  # sorted, no repeats
                assert got == brute_base(spec, m, side), (m_val, spec, side)
                det = ss.tail_len if side else 0
                split, plan = _base_plan(n, ss, det, int(side), power_res)
                checked["split past the tail"] += split > det
                checked["tabled tops"] += split > det and any(r for r, _ in plan)
                Q = summand_base ** min(split, ss.tail_len)
                if Q > 1:
                    filtered.add(side)
                    x_residues = {p % Q for p in power_res}
                    checked["left residue with no x"] += any(
                        sum(summand_base**a for a in left) % Q not in x_residues
                        for c in range(n + 1)
                        for left in _left_tuples(c, split, det, int(side))
                    )
                checked["census split below the tail"] += not side and 0 < split < ss.tail_len
            checked["filter in both modes"] += filtered == {True, False}
            checked["tail 0"] += ss.tail_len == 0
            checked["n > T"] += n > ss.num_powers
    assert min(checked.values()) > 0, checked


@settings(deadline=None)
@given(st.lists(st.integers(0, 10**6), max_size=8), st.integers(1, 10**6))
def test_ladder_levels_and_blocks_list_every_multiset_sum(values, M):
    # level k lists the sums mod M of the k-multisets of values in
    # combinations_with_replacement order, and so do the blocks of level k
    # streamed from any kept level K <= k, joined in order
    levels = [[0]]
    for k in range(8):
        want = [sum(c) % M for c in itertools.combinations_with_replacement(values, k)]
        if k:
            levels.append(_climb(levels[-1], values, k, M))
        assert levels[k] == want, k
        for K in range(k + 1):
            blocks = list(_sum_blocks(levels[K], K, values, k, M))
            assert [t for block in blocks for t in block] == want, (K, k)
            assert all(len(block) <= len(levels[K]) for block in blocks), (K, k)


@pytest.mark.parametrize("cap", [_BASE_TABLE_CAP, 8])
def test_base_plan_counts_are_exact(monkeypatch, cap):
    # each count's planned table entries = left tuples x the x that fit them
    # mod S^min(s, tail) x top multisets, counted by brute force; a table over
    # the cap is only ever the fallback (s = det, no tabled top). The tiny cap
    # forces that fallback, and the search must still agree with brute force,
    # with bottoms both from a kept ladder level and streamed in blocks past it
    monkeypatch.setattr("modchain.solver._BASE_TABLE_CAP", cap)
    rng = random.Random(13)
    checked = dict.fromkeys([
        "filter, side conditions", "filter, census", "fallback",
        "kept level", "block-streamed level",
    ], 0)

    def sum_blocks(level, K, values, k, M):
        checked["kept level" if k == K else "block-streamed level"] += k > 0
        return _sum_blocks(level, K, values, k, M)

    monkeypatch.setattr("modchain.solver._sum_blocks", sum_blocks)
    for m_val in [5440, 8176, 1053] + [rng.randrange(2, 4000) for _ in range(60)]:
        m = fm(m_val)
        for power_base, summand_base in ((3, 2), (2, 3)):
            ps, ss = cycle_shape(power_base, m), cycle_shape(summand_base, m)
            if ss.num_powers > 12:
                continue
            power_res = [pow(power_base, x, m_val) for x in range(ps.num_powers)]
            T, tail = ss.num_powers, ss.tail_len
            for n, side in itertools.product(range(1, 6), (True, False)):
                det = tail if side else 0
                s, plan = _base_plan(n, ss, det, int(side), power_res)
                Q = summand_base ** min(s, tail)
                for c, (r, entries) in enumerate(plan):
                    brute = sum(
                        (p - sum(summand_base**a for a in left)) % Q == 0
                        for left in brute_lefts(c, s, tail, side) for p in power_res
                    )
                    assert entries == brute * _multiset_count(T - s, r), (m_val, n, side, c)
                    assert entries <= cap or (s == det and r == 0), (m_val, n, side, c)
                    checked["fallback"] += entries > cap
                if Q > 1:
                    checked["filter, side conditions" if side else "filter, census"] += 1
                if cap < _BASE_TABLE_CAP and n <= 4:
                    spec = ProblemSpec(power_base, summand_base, n)
                    got = [(sol.x, sol.exponents)
                           for sol in enumerate_base_solutions(spec, m, side_conditions=side)]
                    assert got == brute_base(spec, m, side), (m_val, spec, side)
    assert checked["filter, side conditions"] and checked["filter, census"], checked
    assert (checked["fallback"] > 0) == (cap < _BASE_TABLE_CAP), checked
    if cap < _BASE_TABLE_CAP:
        assert checked["kept level"] and checked["block-streamed level"], checked


def brute_lefts(c, s, tail, side_conditions):
    """The left tuples of count c below the split s, by filtering multisets:
    with side conditions, a 0 and c - 1 more below s (with a tail of 0, s
    may be 0), none repeated below the tail."""
    if side_conditions and not c:
        return
    for rest in itertools.combinations_with_replacement(range(s), c - side_conditions):
        left = (0,) * side_conditions + rest
        if not side_conditions or all(a != b or a >= tail for a, b in zip(left, left[1:])):
            yield left


def brute_base(spec, m, side_conditions):
    """Sorted (x, exponents) of the base solutions, by filtering every multiset."""
    M = m.value
    P = cycle_shape(spec.power_base, m).num_powers
    ss = cycle_shape(spec.summand_base, m)
    powers = {pow(spec.power_base, x, M): x for x in range(P - 1, -1, -1)}
    pow_s = [pow(spec.summand_base, a, M) for a in range(ss.num_powers)]
    out = []
    for exps in itertools.combinations_with_replacement(range(ss.num_powers), spec.n):
        if side_conditions and (
            exps[0] != 0 or any(a == b < ss.tail_len for a, b in zip(exps, exps[1:]))
        ):
            continue
        x = powers.get(sum(pow_s[a] for a in exps) % M)
        if x is not None:
            out.append((x, exps))
    return sorted(out)


def test_base_modulus_too_large():
    with pytest.raises(BaseModulusTooLarge):
        enumerate_base_solutions(ProblemSpec(3, 2, 2), fm(439))
    # explicit bound lifts the guard
    sols = enumerate_base_solutions(ProblemSpec(3, 2, 2), fm(439), max_exponents=80)
    assert all(len(s.exponents) == 2 for s in sols)


def test_base_class_cap(monkeypatch):
    # the cap admits exactly its own count of classes: the census mod 5440 has 3
    monkeypatch.setattr("modchain.solver._BASE_CLASS_CAP", 3)
    assert len(enumerate_base_solutions(SPEC3, fm(5440), side_conditions=False)) == 3
    monkeypatch.setattr("modchain.solver._BASE_CLASS_CAP", 2)
    with pytest.raises(MemoryBudgetExceeded):
        enumerate_base_solutions(SPEC3, fm(5440), side_conditions=False)
    # the raw census mod 1053 at n = 6 holds millions of classes; it stops early
    monkeypatch.setattr("modchain.solver._BASE_CLASS_CAP", 1000)

    def census():
        enumerate_base_solutions(
            ProblemSpec(3, 2, 6), fm(1053), side_conditions=False, max_exponents=4000
        )

    t0 = time.perf_counter()
    with pytest.raises(MemoryBudgetExceeded):
        census()
    assert time.perf_counter() - t0 < 1.0
    # and in bounded memory: its 108 powers have 215,820 3-multisets, a ladder
    # level over _BASE_TABLE_CAP, and 5,989,005 4-multisets to look up
    tracemalloc.start()
    try:
        with pytest.raises(MemoryBudgetExceeded):
            census()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


# ---------------------------------------------------------------------------
# lift sets


def test_lift_progression_examples():
    ch = chain_of(5440, 2 * 257)
    prev, nxt = ch.steps[0], ch.steps[1]
    a6 = lift_progression(6, prev.shape(2), nxt.shape(2))
    assert list(a6.members()) == [6, 14, 22]
    x4 = lift_progression(4, prev.shape(3), nxt.shape(3))
    assert (x4.start, x4.step, x4.count) == (4, 16, 16)
    assert list(x4.members()) == list(range(4, 256, 16))
    # determinate exponents lift to themselves
    a0 = lift_progression(0, prev.shape(2), nxt.shape(2))
    assert list(a0.members()) == [0]


def test_lift_progression_brute():
    rng = random.Random(31)
    pool = [8, 12, 16, 40, 48, 96, 5, 7, 13, 17, 2, 3, 9, 32, 257]
    cases = 0
    while cases < 200:
        m0 = rng.choice(pool)
        m1 = m0 * rng.choice(pool)
        if m1 > 10**6:
            continue
        ch = chain_of(m0, m1 // m0)
        prev, nxt = ch.steps[0], ch.steps[1]
        for b in (2, 3):
            s0, s1 = prev.shape(b), nxt.shape(b)
            e = rng.randrange(s0.num_powers)
            got = list(lift_progression(e, s0, s1).members())
            want = [e2 for e2 in range(s1.num_powers)
                    if pow(b, e2, m0) == pow(b, e, m0)]
            assert got == want, (b, m0, m1, e)
        cases += 1


def test_lift_plan_golden_family():
    ch = chain_of(5440, 2 * 257)
    sol = sol_at(ch, 1, 4, (0, 4, 6), SPEC3)
    plan = compute_lift_plan(sol, ch.steps[0], ch.steps[1], SPEC3)
    assert plan.chi == 16
    assert plan.left_lifts.count == 16
    assert [list(a.members()) for a in plan.lift_sets] == [[0], [4], [6, 14, 22]]


def test_lift_plan_golden_439():
    ch = chain_of(439, 1753)
    spec = ProblemSpec(3, 2, 12)
    sol = sol_at(ch, 1, *BASE_439, spec)
    plan = compute_lift_plan(sol, ch.steps[0], ch.steps[1], spec)
    assert list(plan.left_lifts.members()) == [57, 203, 349, 495, 641, 787]
    for a, prog in zip(BASE_439[1], plan.lift_sets):
        assert list(prog.members()) == [a, a + 73]
    assert plan.chi == 6
    assert plan.split_index == 5
    left = plan.chi * math.prod(a.count for a in plan.lift_sets[:5])
    right = math.prod(a.count for a in plan.lift_sets[5:])
    assert (left, right) == (192, 128)


def test_lift_plan_not_divisible():
    ch1, ch2 = chain_of(5440), chain_of(5441 * 2)
    sol = sol_at(ch1, 1, 4, (0, 4, 6), SPEC3)
    with pytest.raises(NotDivisible):
        compute_lift_plan(sol, ch1.steps[0], ch2.steps[0], SPEC3)
    # without a workspace, both lifts check the step themselves
    ch = chain_of(5440, 2 * 257)
    plan = compute_lift_plan(sol, ch.steps[0], ch.steps[1], SPEC3)
    for lift in (lift_balanced, lift_unbalanced):
        with pytest.raises(NotDivisible):
            lift(sol, plan, ch1.steps[0], ch2.steps[0], SPEC3)


def test_chi_three_cases():
    # x determinate below: a single lift; lifts staying in the loop: the order
    # ratio; lifts reaching into the new tail: strictly more than the ratio
    rng = random.Random(87)
    seen = {"one": 0, "ratio": 0, "extra": 0}
    pool = [2, 3, 4, 5, 7, 9, 13, 16, 17, 27, 81]
    for _ in range(4000):
        if min(seen.values()) >= 10:
            break
        m0 = rng.choice(pool) * rng.choice(pool)
        f = rng.choice(pool)
        ch = chain_of(m0, f)
        prev, nxt = ch.steps[0], ch.steps[1]
        spec = ProblemSpec(3, 2, 2)
        if prev.shape(2).num_powers > 24:
            continue
        s0, s1 = prev.shape(3), nxt.shape(3)
        assert s1.loop_len % s0.loop_len == 0
        ratio = s1.loop_len // s0.loop_len
        for sol in enumerate_base_solutions(spec, prev.modulus, side_conditions=False):
            plan = compute_lift_plan(sol, prev, nxt, spec)
            lifts = [x2 for x2 in range(s1.num_powers)
                     if pow(3, x2, m0) == pow(3, sol.x, m0)]
            assert list(plan.left_lifts.members()) == lifts
            assert plan.chi == len(lifts)
            if sol.x < s0.tail_len:
                assert lifts == [sol.x]
                seen["one"] += 1
            elif lifts[0] >= s1.tail_len:
                assert len(lifts) == ratio
                seen["ratio"] += 1
            else:
                assert len(lifts) > ratio
                seen["extra"] += 1
    assert all(v >= 10 for v in seen.values()), seen


# ---------------------------------------------------------------------------
# the two lift procedures


def test_unbalanced_golden_rejects():
    p = 9361973132609
    ch = chain_of(439, p)
    spec = ProblemSpec(3, 2, 12)
    sol = sol_at(ch, 1, *BASE_439, spec)
    plan = compute_lift_plan(sol, ch.steps[0], ch.steps[1], spec)
    assert plan.chi == 64123103648
    assert all(a.count == 1 for a in plan.lift_sets)
    out = lift_unbalanced(sol, plan, ch.steps[0], ch.steps[1], spec)
    assert out == []


def test_balanced_golden_eight():
    ch = chain_of(439, 1753)
    spec = ProblemSpec(3, 2, 12)
    sol = sol_at(ch, 1, *BASE_439, spec)
    plan = compute_lift_plan(sol, ch.steps[0], ch.steps[1], spec)
    out = lift_balanced(sol, plan, ch.steps[0], ch.steps[1], spec)
    assert {(s.x, s.exponents) for s in out} == LIFTS_439_1753
    # pin one member explicitly besides the frozen set
    golden = (203, tuple(sorted((73, 1, 11, 85, 88, 89, 99, 100, 110, 57, 138, 141))))
    assert golden in {(s.x, s.exponents) for s in out}


def test_unbalanced_requires_new_prime():
    ch = chain_of(5440, 2 * 257)  # factor shares 2 with the old modulus
    sol = sol_at(ch, 1, 4, (0, 4, 6), SPEC3)
    plan = compute_lift_plan(sol, ch.steps[0], ch.steps[1], SPEC3)
    with pytest.raises(UnbalancedInapplicable):
        lift_unbalanced(sol, plan, ch.steps[0], ch.steps[1], SPEC3)


def test_balanced_memory_cap():
    ch = chain_of(439, 1753)
    spec = ProblemSpec(3, 2, 12)
    sol = sol_at(ch, 1, *BASE_439, spec)
    plan = compute_lift_plan(sol, ch.steps[0], ch.steps[1], spec)
    with pytest.raises(MemoryBudgetExceeded):
        lift_balanced(sol, plan, ch.steps[0], ch.steps[1], spec, memory_cap=100)


@pytest.mark.parametrize("lift", [lift_balanced, lift_unbalanced])
def test_lift_refuses_a_child_that_fails_the_congruence(lift):
    # each child is checked once, against pow(P, x, M) and the step's pows
    # memo; the tables a warm workspace already holds still find the true
    # children, so one corrupted pows entry must make the lift raise
    ch = chain_of(439, 1753)  # 1753 is a fresh prime: both lifts apply
    spec = ProblemSpec(3, 2, 12)
    prev, nxt = ch.steps
    sol = sol_at(ch, 1, *BASE_439, spec)
    ws = _StepWorkspace(spec, prev, nxt)
    plan = compute_lift_plan(sol, prev, nxt, spec, ws)
    children = lift(sol, plan, prev, nxt, spec, workspace=ws)
    assert {(s.x, s.exponents) for s in children} == LIFTS_439_1753
    a = children[0].exponents[-1]
    ws.pows[a] = (ws.pows[a] + 1) % ws.M
    with pytest.raises(InvalidInput, match="congruence fails"):
        lift(sol, plan, prev, nxt, spec, workspace=ws)


def test_case_agreement():
    # wherever the dlog route is legal at all, it must produce exactly the
    # meet-in-the-middle answer
    bases = [5440, 2**4 * 7 * 73, 2**5 * 3**2 * 5, 10880]
    primes = [97, 193, 241, 257, 353, 433, 577, 641, 1753]
    rng = random.Random(55)
    instances = chi_one = 0
    for m0 in bases:
        for n in (2, 3):
            spec = ProblemSpec(3, 2, n)
            base_sols = enumerate_base_solutions(spec, fm(m0), max_exponents=80)
            for p in primes:
                if m0 % p == 0:
                    continue
                ch = chain_of(m0, p)
                for sol in base_sols:
                    plan = compute_lift_plan(sol, ch.steps[0], ch.steps[1], spec)
                    a = lift_balanced(sol, plan, ch.steps[0], ch.steps[1], spec)
                    b = lift_unbalanced(sol, plan, ch.steps[0], ch.steps[1], spec)
                    key = lambda s: (s.x, s.exponents)
                    assert sorted(map(key, a)) == sorted(map(key, b)), (m0, p, sol)
                    instances += 1
                    chi_one += plan.chi == 1
    # chi == 1 takes the same CRT path in lift_unbalanced as any other chi
    assert instances >= 50 and chi_one >= 10, (instances, chi_one)


def test_split_balance_is_optimal():
    # scanning every k must not find a strictly more even split, and ties go
    # to the smallest k
    ch = chain_of(439, 1753)
    spec = ProblemSpec(3, 2, 12)
    sol = sol_at(ch, 1, *BASE_439, spec)
    plan = compute_lift_plan(sol, ch.steps[0], ch.steps[1], spec)
    sizes = [a.count for a in plan.lift_sets]

    def imbalance(k):
        left = plan.chi * math.prod(sizes[:k])
        right = math.prod(sizes[k:])
        return Fraction(max(left, right), min(left, right))

    best = min(imbalance(k) for k in range(len(sizes) + 1))
    assert imbalance(plan.split_index) == best
    assert all(imbalance(k) > best for k in range(plan.split_index))


def scan_split(chi, sizes):
    """Reference for _choose_split: every k scanned, the imbalance compared
    exactly, the first k of least imbalance kept."""
    suffix = [1] * (len(sizes) + 1)
    for i in reversed(range(len(sizes))):
        suffix[i] = suffix[i + 1] * sizes[i]
    best = best_k = None
    left = chi
    for k in range(len(sizes) + 1):
        if k:
            left *= sizes[k - 1]
        lo, hi = sorted((left, suffix[k]))
        if best is None or hi * best[0] < best[1] * lo:
            best, best_k = (lo, hi), k
    return best_k


def test_choose_split_matches_exhaustive_scan():
    # the crossover rule against the scan over every k, on size pools full of
    # 1s (plateaus) and of small numbers whose products tie exactly
    rng = random.Random(20261018)
    pools = [[1, 2, 3, 4, 6], [1, 1, 1, 2], [1, 2, 4, 8], list(range(1, 40)), [1, 36, 120, 5000]]
    ties = plateaus = 0
    for _ in range(100_000):
        pool = rng.choice(pools)
        sizes = [rng.choice(pool) for _ in range(rng.randrange(15))]
        chi = rng.choice([1, 2, 3, 4, 6, 8, 12, rng.randrange(1, 10**6)])
        k = scan_split(chi, sizes)
        assert _choose_split(chi, sizes) == k, (chi, sizes)
        if k == len(sizes):
            continue
        # k+1 is as even as k: the left side is the smaller at k and the
        # larger at k+1 by the same ratio (a tie), or sizes[k] is 1 (a plateau)
        left, right = chi * math.prod(sizes[:k]), math.prod(sizes[k:])
        ties += right * (right // sizes[k]) == left * (left * sizes[k])
        plateaus += sizes[k] == 1 and left < right
    assert ties >= 1000 and plateaus >= 1000, (ties, plateaus)


def ordered_lift(sol, plan, nxt, spec):
    """Every ordered choice of one lift per exponent that satisfies the
    congruence mod the next modulus, as a list with repeats (x', sorted tuple)."""
    M = nxt.modulus.value
    tail = nxt.shape(spec.summand_base).tail_len
    out = []
    for exps in itertools.product(*(p.members() for p in plan.lift_sets)):
        total = sum(pow(spec.summand_base, a, M) for a in exps) % M
        t = tuple(sorted(exps))
        if any(a == b < tail for a, b in zip(t, t[1:])):
            continue
        out += [(xp, t) for xp in plan.left_lifts.members()
                if pow(spec.power_base, xp, M) == total]
    return out


def tiny_lift_steps(seed):
    """Endless random one-step chains as (prev, nxt, spec, up to 20 base
    classes), raw censuses and side-conditioned bases mixed."""
    rng = random.Random(seed)
    first = [8, 16, 24, 40, 48, 80, 96, 136]
    ext = [2, 3, 4, 5, 7, 9, 13, 17, 97]
    while True:
        m0, f = rng.choice(first), rng.choice(ext)
        ch = chain_of(m0, f)
        prev, nxt = ch.steps[0], ch.steps[1]
        spec = ProblemSpec(3, 2, rng.randrange(2, 6))
        census = rng.random() < 0.5
        yield prev, nxt, spec, enumerate_base_solutions(spec, prev.modulus, side_conditions=census)[:20]


def small_plan(plan) -> bool:
    return plan.chi * math.prod(p.count for p in plan.lift_sets) <= 20000


def test_multiset_lift_matches_ordered_lift():
    # both lift procedures enumerate each run of equal exponents as a
    # multiset; they must emit exactly the distinct children of the ordered
    # cross-product, each once, and split the plan between runs
    seen = {"repeats": 0, "distinct": 0, "unbalanced": 0}
    for prev, nxt, spec, sols in tiny_lift_steps(4242):
        if min(seen.values()) >= 40:
            break
        m0, f = prev.modulus.value, nxt.factor.value
        for sol in sols:
            plan = compute_lift_plan(sol, prev, nxt, spec)
            sizes = [p.count for p in plan.lift_sets]
            if not small_plan(plan):
                continue
            exps, k = sol.exponents, plan.split_index
            assert k in (0, len(exps)) or exps[k - 1] != exps[k], (sol, k)
            if len(set(exps)) == len(exps):
                # no runs: the ordered split, the most even one, ties to the smallest k
                seen["distinct"] += 1
                sides = [(plan.chi * math.prod(sizes[:j]), math.prod(sizes[j:]))
                         for j in range(len(sizes) + 1)]
                ranked = [(Fraction(max(s), min(s)), j) for j, s in enumerate(sides)]
                assert k == min(ranked)[1]
            else:
                seen["repeats"] += 1
            want = set(ordered_lift(sol, plan, nxt, spec))
            lifts = [lift_balanced]
            if fresh_prime(prev.modulus, nxt.factor) is not None:
                lifts.append(lift_unbalanced)
                seen["unbalanced"] += 1
            for lift in lifts:
                got = [(s.x, s.exponents) for s in lift(sol, plan, prev, nxt, spec)]
                assert len(got) == len(set(got)), (lift.__name__, sol)
                assert set(got) == want, (lift.__name__, m0, f, sol)


def test_memory_cap_counts_multisets():
    # (0; 0,4,4) mod 16 lifts to 16*17 with 4 x-lifts; the run 4,4 has 8
    # lifts, so it is C(9, 2) = 36 multisets against 64 ordered pairs
    ch = chain_of(16, 17)
    prev, nxt = ch.steps[0], ch.steps[1]
    sol = sol_at(ch, 1, 0, (0, 4, 4), SPEC3)
    plan = compute_lift_plan(sol, prev, nxt, SPEC3)
    assert (plan.chi, plan.split_index, [p.count for p in plan.lift_sets]) == (4, 0, [1, 8, 8])
    want = set(ordered_lift(sol, plan, nxt, SPEC3))
    # the plan moved to split after both runs tables 4 * 36 = 144 entries on
    # the left; the dlog lift tables the 36 multisets whatever the split
    moved = plan._replace(split=2)
    for p, caps in ((plan, {lift_balanced: 36, lift_unbalanced: 36}),
                    (moved, {lift_balanced: 144, lift_unbalanced: 36})):
        for lift, cap in caps.items():
            got = lift(sol, p, prev, nxt, SPEC3, memory_cap=cap)
            assert {(s.x, s.exponents) for s in got} == want and len(got) == len(want) == 10
            with pytest.raises(MemoryBudgetExceeded):
                lift(sol, p, prev, nxt, SPEC3, memory_cap=cap - 1)
        # a warm memo cannot bypass the cap: whichever lift fills a shared
        # workspace first, a lift one below its cap through it still raises
        for first, second in itertools.permutations(caps):
            ws = _StepWorkspace(SPEC3, prev, nxt)
            assert len(first(sol, p, prev, nxt, SPEC3, caps[first], ws)) == 10
            for lift in (first, second):
                with pytest.raises(MemoryBudgetExceeded):
                    lift(sol, p, prev, nxt, SPEC3, caps[lift] - 1, ws)
            assert len(second(sol, p, prev, nxt, SPEC3, caps[second], ws)) == 10


def test_plan_sizes_follow_the_plans_own_split():
    # the ordered product and both table sizes come from a plan's own runs
    # and split: at every legal split, whether compute_lift_plan or _replace
    # built the plan, they equal a brute-force count
    plans = moved = 0
    for prev, nxt, spec, sols in itertools.islice(tiny_lift_steps(4242), 40):
        for sol in sols:
            plan = compute_lift_plan(sol, prev, nxt, spec)
            ordered = math.prod(p.count for p in plan.lift_sets)
            counts = [_multiset_count(p.count, m) for p, m in plan.runs]
            sizes = {k: (ordered, plan.chi * math.prod(counts[:k]), math.prod(counts[k:]))
                     for k in range(len(plan.runs) + 1)}
            for k, want in sizes.items():
                assert plan._replace(split=k)._sizes == want, (sol, k)
                moved += want != sizes[plan.split]
            assert plan._sizes == sizes[plan.split], sol
            assert (plan.counts, plan.ordered) == (tuple(counts), ordered), sol
            # a plan chi outruns, which _lift_chunk sends to the dlog lift, splits at 0
            assert plan.chi <= ordered or plan.split == 0, sol
            plans += 1
    assert plans >= 300 and moved >= 300, (plans, moved)


def test_records_are_slotted_and_frozen():
    # every record is a named tuple with no instance dict that refuses
    # assignment, and the pool payload (the spec, the chain steps with their
    # moduli and a chunk of classes) survives the pickle round trip that
    # sends it to a worker
    m = FactoredModulus.from_int(2 * 7 * 73)
    spec, step, sol = ProblemSpec(3, 2, 5), ChainStep(1, m, m, 9, 12), SolutionModM(5, (0, 1, 3), 2)
    prog = Progression(1, 2, 3)
    records = [
        (spec, "n"), (sol, "x"), (sol, "exponents"), (ExactSolution(2, (0, 3)), "x"),
        (prog, "count"), (LiftPlan(((prog, 2),), Progression(0, 4, 2), 1, (6,), 9), "counts"),
        (StepStats(1, "7", 4, 0, 4, 0, 3, 0.5), "index"), (m, "value"),
        (CycleShape(2, 1, 3), "loop_len"), (step, "index"), (step, "modulus"),
        (ChainFile((("factor", m),)), "entries"), (DlogResult(1, 3), "residue_class"),
    ]
    for record, name in records:
        assert not hasattr(record, "__dict__"), type(record)
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        assert getattr(record, name) is before, (type(record), name)
    for protocol in (pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL):
        for record in (spec, step, sol):
            back = pickle.loads(pickle.dumps(record, protocol))
            assert type(back) is type(record) and back is not record, (record, protocol)
            assert back._asdict() == record._asdict(), (record, protocol)
        back = pickle.loads(pickle.dumps(step, protocol))
        assert type(back.factor) is type(back.modulus) is FactoredModulus, protocol
        assert back.modulus.coprime_factors == ((7, 1), (73, 1)), protocol


def test_left_side_indices_match_a_scan(t2):
    # _indices gives every index of a value in a left side, ascending, on the
    # real left sides of t2 steps 2-4, many of which hold a value twice
    spec = ProblemSpec(3, 2, 10)
    per_step = live_classes(spec, t2)
    sides = repeated = 0
    for k in (1, 2, 3):  # the classes step k leaves, lifted to step k + 1
        prev, nxt = t2.steps[k - 1], t2.steps[k]
        ws, seen = _StepWorkspace(spec, prev, nxt), set()
        for sol in per_step[k]:
            plan = compute_lift_plan(sol, prev, nxt, spec, ws)
            side = ws.left_side(plan.left_lifts, plan.runs[: plan.split])
            if side.key in seen:
                continue
            seen.add(side.key)
            want: dict[int, list[int]] = {}
            for i, v in enumerate(side.values):
                want.setdefault(v, []).append(i)
            for v, at in want.items():
                assert _indices(side.values, v) == at, (sol, v)
            sides += 1
            repeated += len(want) < len(side.values)
    assert sides >= 100 and repeated >= 30, (sides, repeated)


@settings(deadline=None)
@given(
    st.lists(st.integers(0, 96), min_size=1, max_size=3),
    st.lists(st.lists(st.integers(0, 96), min_size=1, max_size=4), max_size=6),
    st.sampled_from([1, -1]),
)
def test_cross_sums_in_halves_keep_the_layout(vals, sums, sign):
    # three or more tables are crossed in two halves and one last round; the
    # list must equal the rounds one table at a time, entry for entry, so
    # that _decode recovers the start index and the combos behind each entry
    M = 97
    tables = [([(10 * t + r,) for r in range(len(s))], s) for t, s in enumerate(sums)]
    want = vals
    for _, s in tables:
        want = [(v + sign * w) % M for v in want for w in s]
    got = _cross_sums(vals, tables, M, sign)
    assert got == want
    choices = itertools.product(range(len(vals)), *(range(len(s)) for s in sums))
    for index, (i, *rs) in enumerate(choices):
        assert _decode(index, tables) == (i, tuple(10 * t + r for t, r in enumerate(rs))), index


def assert_shared_workspace_agrees(sols, prev, nxt, spec):
    """Lifting every class through one workspace gives the plans and
    children of a fresh workspace per class; returns the classes compared."""
    ws = _StepWorkspace(spec, prev, nxt)
    lifts = [lift_balanced] if ws.prime is None else [lift_balanced, lift_unbalanced]
    compared = 0
    for sol in sols:
        plan = compute_lift_plan(sol, prev, nxt, spec, ws)
        assert plan == compute_lift_plan(sol, prev, nxt, spec), sol
        if not small_plan(plan):
            continue
        for lift in lifts:
            shared = lift(sol, plan, prev, nxt, spec, workspace=ws)
            assert shared == lift(sol, plan, prev, nxt, spec), (lift.__name__, sol)
        compared += 1
    return compared


def test_shared_workspace_matches_fresh_workspaces(t2):
    # the per-step memo is keyed by (exponent, multiplicity) and x alone, so
    # a class must lift the same whatever classes warmed the memo before it
    compared = 0
    for prev, nxt, spec, sols in itertools.islice(tiny_lift_steps(4242), 60):
        compared += assert_shared_workspace_agrees(sols, prev, nxt, spec)
    assert compared >= 300, compared
    spec = ProblemSpec(3, 2, 8)
    per_step = []
    solve_chain(spec, t2, step_callback=lambda stats, working: per_step.append(working))
    for i in (1, 2, 3):  # t2 steps 2-4, each lifting the classes left by the step before
        assert per_step[i - 1]
        assert assert_shared_workspace_agrees(per_step[i - 1], t2.steps[i - 1], t2.steps[i], spec)


def test_left_side_reuse_matches_fresh_workspaces(t2):
    # a workspace reuses the last left side of a balanced match while the
    # x-lifts and left runs stay the same; whatever class came before, a
    # class must lift as it does through a fresh workspace
    spec = ProblemSpec(3, 2, 10)
    per_step = []
    solve_chain(spec, t2, step_callback=lambda stats, working: per_step.append(working))
    rng = random.Random(7)
    other_x = other_split = 0
    for i in (1, 2, 3):  # t2 steps 2-4
        prev, nxt, sols = t2.steps[i - 1], t2.steps[i], per_step[i - 1]

        def lifted(sol, plan, ws=None):
            got = lift_balanced(sol, plan, prev, nxt, spec, workspace=ws)
            assert got == lift_balanced(sol, plan, prev, nxt, spec), (sol, plan.split)
            return got

        # sorted by exponents first, neighbours share left runs under another x
        ws, last = _StepWorkspace(spec, prev, nxt), None
        for sol in sorted(sols, key=lambda s: (s.exponents, s.x)):
            plan = compute_lift_plan(sol, prev, nxt, spec, ws)
            got = lifted(sol, plan, ws)
            if last and last[0].left_lifts != plan.left_lifts and (last[1] or got):
                other_x += last[0].runs[: last[0].split] == plan.runs[: plan.split]
            last = plan, got
        # the same x and runs under another split, by _replace
        ws = _StepWorkspace(spec, prev, nxt)
        for sol in sols:
            plan = compute_lift_plan(sol, prev, nxt, spec, ws)
            split = plan.split - 1 if plan.split else plan.split + 1
            if split > len(plan.runs) or not small_plan(plan):
                continue
            moved = plan._replace(split=split)
            got = lifted(sol, plan, ws)
            assert set(lifted(sol, moved, ws)) == set(got) == set(lifted(sol, plan, ws))
            other_split += bool(got)
        # the step's classes in shuffled order
        shuffled = list(sols)
        rng.shuffle(shuffled)
        assert assert_shared_workspace_agrees(shuffled, prev, nxt, spec)
    assert other_x >= 20 and other_split >= 20, (other_x, other_split)


def test_step_workspace_dropped_with_its_step(t2):
    # the memo lives in the workspace, so no memo outlives its step
    solve_chain(ProblemSpec(3, 2, 8), t2)
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, _StepWorkspace)]


def test_step_workspace_freed_by_reference_counting(t2):
    # no memo fill and no child check holds its workspace, so dropping the
    # last reference frees a workspace that has lifted classes without the
    # cycle collector: on balanced step 3, and on step 5, whose fresh prime
    # 17 lets both lifts run and whose classes are all pinned (no table)
    spec = ProblemSpec(3, 2, 8)
    per_step = live_classes(spec, t2)
    for step, lifts, filled in (
        (3, (lift_balanced,), "pows runs tables x_lifts x_powers"),
        (5, (lift_balanced, lift_unbalanced), "pows runs x_lifts x_powers"),
    ):
        prev, nxt = t2.steps[step - 2], t2.steps[step - 1]
        ws = _StepWorkspace(spec, prev, nxt)
        children = 0
        gc.disable()
        try:
            for sol in per_step[step - 1]:
                plan = compute_lift_plan(sol, prev, nxt, spec, ws)
                for lift in lifts:
                    children += len(lift(sol, plan, prev, nxt, spec, workspace=ws))
            assert children and all(getattr(ws, memo) for memo in filled.split()), step
            ref = weakref.ref(ws)
            del ws
            assert ref() is None, step
        finally:
            gc.enable()


def test_memo_makes_each_key_once():
    calls = []
    memo = _Memo(lambda k: calls.append(k) or k * k)
    assert [memo[k] for k in (3, 1, 3, 3, 1, 2)] == [9, 1, 9, 9, 1, 4]
    assert calls == [3, 1, 2] and memo == {3: 9, 1: 1, 2: 4}


def brute_lift(sol, prev, nxt, spec):
    """(children, choices the distinctness rule rejects) of a class, from
    every x' in the lift set of x and every choice of one lift per exponent,
    kept when the congruence mod the next modulus holds."""
    M = nxt.modulus.value
    tail = nxt.shape(spec.summand_base).tail_len
    xs = {}
    for xp in lift_progression(sol.x, prev.shape(spec.power_base), nxt.shape(spec.power_base)).members():
        xs.setdefault(pow(spec.power_base, xp, M), []).append(xp)
    lift_sets = [lift_progression(a, prev.shape(spec.summand_base), nxt.shape(spec.summand_base))
                 for a in sol.exponents]
    children, rejected = set(), 0
    for exps in itertools.product(*(p.members() for p in lift_sets)):
        t = tuple(sorted(exps))
        for xp in xs.get(sum(pow(spec.summand_base, a, M) for a in t) % M, ()):
            if any(a == b < tail for a, b in zip(t, t[1:])):
                rejected += 1
            else:
                children.add((xp, t))
    return children, rejected


def live_classes(spec, chain):
    """The classes each step of a solve leaves to the next, by step index."""
    per_step = {}
    solve_chain(spec, chain, step_callback=lambda stats, working: per_step.update({stats.index: working}))
    return per_step


def assert_lifts_as_brute_force(sols, prev, nxt, spec):
    """_lift_chunk lifts these classes to their brute-force children, each
    once, through one workspace and, for a pinned class (every lift set has
    one member), through a fresh one per class. Returns (pinned classes,
    choices the distinctness rule rejected from them)."""
    ws = _StepWorkspace(spec, prev, nxt)
    pinned = rejected = 0
    want = []
    for sol in sols:
        children, r = brute_lift(sol, prev, nxt, spec)
        if compute_lift_plan(sol, prev, nxt, spec, ws)._sizes[0] == 1:
            pinned += 1
            rejected += r
            alone = _lift_chunk((spec, prev, nxt, [sol], DEFAULT_MEMORY_CAP))[2]
            assert sorted((c.x, c.exponents) for c in alone) == sorted(children), sol
        want += children
    got = _lift_chunk((spec, prev, nxt, sols, DEFAULT_MEMORY_CAP))[2]
    assert sorted((c.x, c.exponents) for c in got) == sorted(want)
    return pinned, rejected


@pytest.mark.parametrize("direction, n, chain, steps, min_pinned", [
    ("2=sum3", 10, "t3", (4,), 4),
    ("2=sum3", 12, "t3", (4,), 29),
    # steps 5, 7 and 9 are pinned whole, steps 6 and 10 in part
    ("3=sum2", 10, "t2", (5, 6, 7, 9, 10), 500),
])
def test_pinned_classes_lift_as_brute_force(direction, n, chain, steps, min_pinned, request):
    # a pinned class lifts by one summand sum, and its children keep its exponents
    ch, spec = request.getfixturevalue(chain), ProblemSpec.from_direction(direction, n)
    per_step = live_classes(spec, ch)
    pinned = 0
    for i in steps:
        pinned += assert_lifts_as_brute_force(per_step[i - 1], ch.steps[i - 2], ch.steps[i - 1], spec)[0]
    assert pinned >= min_pinned, pinned


def test_pinned_census_classes_lift_as_brute_force():
    # no pinned child of the bundled chains repeats a determinate exponent,
    # but census classes with repeats do: the distinctness rule must reject them
    pinned = rejected = 0
    for prev, nxt, spec, sols in itertools.islice(tiny_lift_steps(4242), 40):
        sols = [s for s in sols if compute_lift_plan(s, prev, nxt, spec)._sizes[0] == 1]
        p, r = assert_lifts_as_brute_force(sols, prev, nxt, spec)
        pinned, rejected = pinned + p, rejected + r
    assert pinned >= 90 and rejected >= 30, (pinned, rejected)


def folded_runs(plan) -> int:
    """The runs of a plan whose lift set has one member (multiset count 1),
    which either side of a lift folds into its constant."""
    return sum(prog.count == 1 for prog, _ in plan.runs)


def test_mixed_classes_lift_as_brute_force(t2):
    # t2's balanced steps 6 and 10 hold classes whose plans mix folded runs
    # with table runs, on the left and on the right of the split; each lifts
    # to its brute-force children at its own split, at 0 and after its last
    # run, and through _lift_chunk
    spec = ProblemSpec(3, 2, 10)
    per_step = live_classes(spec, t2)
    mixed = left_folded = right_folded = 0
    for i in (6, 10):
        prev, nxt = t2.steps[i - 2], t2.steps[i - 1]
        ws = _StepWorkspace(spec, prev, nxt)
        sols = []
        for sol in per_step[i - 1]:
            plan = compute_lift_plan(sol, prev, nxt, spec, ws)
            if not 0 < folded_runs(plan) < len(plan.runs):
                continue
            sols.append(sol)
            left_folded += any(prog.count == 1 for prog, _ in plan.runs[: plan.split])
            right_folded += any(prog.count == 1 for prog, _ in plan.runs[plan.split :])
            children = sorted(brute_lift(sol, prev, nxt, spec)[0])
            for p in (plan, plan._replace(split=0), plan._replace(split=len(plan.runs))):
                got = lift_balanced(sol, p, prev, nxt, spec, workspace=ws)
                assert sorted((c.x, c.exponents) for c in got) == children, (sol, p.split)
        assert assert_lifts_as_brute_force(sols, prev, nxt, spec) == (0, 0), i
        mixed += len(sols)
    assert mixed >= 250 and left_folded >= 100 and right_folded >= 250, (mixed, left_folded, right_folded)


def test_folded_repeat_census_classes_lift_as_brute_force():
    # a census class may repeat an exponent whose lift set has one member:
    # its run folds to the one multiset (e, e) beside the class's table runs,
    # and the distinctness rule must still reject it when e is determinate
    mixed = rejected = 0
    for prev, nxt, spec, sols in itertools.islice(tiny_lift_steps(4242), 60):
        keep = []
        for sol in sols:
            plan = compute_lift_plan(sol, prev, nxt, spec)
            repeat = any(prog.count == 1 and m > 1 for prog, m in plan.runs)
            if repeat and folded_runs(plan) < len(plan.runs):
                keep.append(sol)
                rejected += brute_lift(sol, prev, nxt, spec)[1]
        assert_lifts_as_brute_force(keep, prev, nxt, spec)
        mixed += len(keep)
    assert mixed >= 60 and rejected >= 300, (mixed, rejected)


def test_pinned_dlog_step_builds_no_tables(t3, monkeypatch):
    # every class of t3's step 4 (the fresh prime 530713) is pinned and goes
    # to the dlog lift, which takes its one sum without _cross_sums
    spec = ProblemSpec(2, 3, 12)
    sols = live_classes(spec, t3)[3]
    calls = []
    monkeypatch.setattr("modchain.solver._cross_sums", lambda *a, **k: calls.append(a) or _cross_sums(*a, **k))
    balanced, unbalanced, _ = _lift_chunk((spec, t3.steps[2], t3.steps[3], sols, DEFAULT_MEMORY_CAP))
    assert (len(sols), balanced, unbalanced, len(calls)) == (29, 0, 29, 0)


def test_balanced_steps_lift_as_brute_force(t2):
    # t2's steps 2-4 are balanced and pin no class, so every child is matched
    # against a right side built from the step's tables; many right sides
    # hold a value more than once, and the list.index scans behind the
    # match must find each of its indices
    spec = ProblemSpec(3, 2, 10)
    per_step = live_classes(spec, t2)
    repeated = matched = 0
    for i in (2, 3, 4):
        prev, nxt, sols = t2.steps[i - 2], t2.steps[i - 1], per_step[i - 1]
        ws = _StepWorkspace(spec, prev, nxt)
        assert ws.prime is None, i
        for sol in sols:
            plan = compute_lift_plan(sol, prev, nxt, spec, ws)
            assert plan.ordered > 1, sol
            right = _right_side(sol, plan, ws)[0]
            twice = {v for v, k in collections.Counter(right).items() if k > 1}
            for v in twice:
                assert _indices(right, v) == [j for j, w in enumerate(right) if w == v], (sol, v)
            repeated += bool(twice)
            matched += bool(twice & ws.left_side(plan.left_lifts, plan.runs[: plan.split]).lookup)
        assert assert_lifts_as_brute_force(sols, prev, nxt, spec) == (0, 0), i
    assert repeated >= 100 and matched >= 5, (repeated, matched)


# ---------------------------------------------------------------------------
# whole-chain behaviour


def test_solve_small_n(t2):
    finals, rep = solve_chain(ProblemSpec(3, 2, 1), t2)
    assert [(s.x, s.exponents) for s in finals] == [(0, (0,))]
    finals, rep = solve_chain(ProblemSpec(3, 2, 2), t2)
    assert [(s.x, s.exponents) for s in finals] == [(1, (0, 1)), (2, (0, 3))]
    assert rep.complete and rep.terminated_at == 1
    finals, rep = solve_chain(SPEC3, t2)
    assert [(s.x, s.exponents) for s in finals] == [(4, (0, 4, 6))]
    assert rep.terminated_at == 10


def test_finalization_soundness(t2):
    for n in range(1, 7):
        finals, rep = solve_chain(ProblemSpec(3, 2, n), t2)
        assert len(set(finals)) == len(finals)
        for s in finals:
            assert list(s.exponents) == sorted(set(s.exponents))
            assert 3**s.x == sum(2**a for a in s.exponents)
        assert rep.complete


def test_mirror_parity_shortcut(t3):
    for n in (3, 5, 7, 9):
        finals, rep = solve_chain(ProblemSpec(2, 3, n), t3)
        assert finals == []
        assert rep.parity_shortcut and rep.complete
        assert rep.steps == []


def test_mirror_small(t3):
    finals, _ = solve_chain(ProblemSpec(2, 3, 2), t3)
    assert [(s.x, s.exponents) for s in finals] == [(2, (0, 1))]
    finals, _ = solve_chain(ProblemSpec(2, 3, 4), t3)
    assert [(s.x, s.exponents) for s in finals] == [(8, (0, 1, 2, 5))]
    for s in finals:
        assert 2**s.x == sum(3**a for a in s.exponents)


def test_worker_pool_matches_serial(t2):
    # at 3 workers a step merges three chunk lists, extended onto the first
    # and then sorted; the pooled class list must match the serial one in order
    spec = ProblemSpec(3, 2, 6)
    serial, rep1 = solve_chain(spec, t2)
    short = t2.prefix(6)
    classes = modular_solutions(spec, short)
    for workers in (2, 3):
        pooled, rep2 = solve_chain(spec, t2, SolverConfig(workers=workers))
        assert [(s.x, s.exponents) for s in serial] == [(s.x, s.exponents) for s in pooled]
        assert rep1.terminated_at == rep2.terminated_at
        assert modular_solutions(spec, short, SolverConfig(workers=workers)) == classes, workers


def test_chain_exhausted(t2):
    with pytest.raises(ChainExhausted) as err:
        solve_chain(ProblemSpec(3, 2, 6), t2.prefix(2))
    assert err.value.report.complete is False
    assert err.value.report.remaining


def test_memory_cap_enforced(t2):
    with pytest.raises(MemoryBudgetExceeded):
        solve_chain(ProblemSpec(3, 2, 6), t2, SolverConfig(memory_cap=2))


@pytest.mark.parametrize(
    "kwargs",
    [{"workers": 0}, {"workers": -3}, {"workers": 2.5}, {"workers": True},
     {"memory_cap": 0}, {"memory_cap": "8"}],
)
def test_solver_config_rejects_bad_values(kwargs):
    with pytest.raises(InvalidInput, match=next(iter(kwargs))):
        SolverConfig(**kwargs)


def test_run_report_counts(t2):
    _, rep = solve_chain(SPEC3, t2)
    assert rep.direction == "3=sum2"
    assert rep.n == 3
    assert rep.base_count == 1
    assert [s.index for s in rep.steps] == list(range(1, rep.terminated_at + 1))
    for s in rep.steps:
        assert s.balanced + s.unbalanced <= s.incoming
    # base enumeration is timed apart from the steps, inside the whole run
    assert 0 <= rep.base_seconds
    assert rep.base_seconds + sum(s.seconds for s in rep.steps) <= rep.seconds


# ---------------------------------------------------------------------------
# completeness and restriction on random tiny chains


def random_tiny_chains(count, seed, n_max=4, m_cap=10**5):
    rng = random.Random(seed)
    first = [8, 16, 24, 40, 48, 80, 96, 136, 272, 544]
    ext = [2, 3, 4, 5, 7, 9, 13, 17, 97, 193, 257]
    out = []
    while len(out) < count:
        m0 = rng.choice(first)
        parts = [m0]
        for _ in range(rng.randrange(1, 3)):
            parts.append(rng.choice(ext))
        if math.prod(parts) > m_cap:
            continue
        ch = chain_of(*parts)
        T = ch.final.shape(2).num_powers
        P = ch.final.shape(3).num_powers
        if T > 30 or P > 300:
            continue
        out.append((ch, rng.randrange(1, n_max + 1)))
    return out


def brute_modular(spec, chain):
    step = chain.final
    M = step.modulus.value
    T = step.shape(spec.summand_base).num_powers
    tail = step.shape(spec.summand_base).tail_len
    P = step.shape(spec.power_base).num_powers
    powers = {}
    for x in range(P - 1, -1, -1):
        powers[pow(spec.power_base, x, M)] = x
    pow_s = [pow(spec.summand_base, j, M) for j in range(T)]
    found = set()

    def no_repeat_determinate(t):
        return all(a != b or a >= tail for a, b in zip(t, t[1:]))

    def rec(start, left, acc, prefix):
        if left == 0:
            x = powers.get(acc % M)
            if x is not None and no_repeat_determinate(prefix):
                found.add((x, tuple(prefix)))
            return
        for j in range(start, T):
            rec(j, left - 1, acc + pow_s[j], prefix + [j])

    # first exponent pinned to zero, the rest free
    rec(0, spec.n - 1, pow_s[0], [0])
    return found


def test_completeness_on_tiny_chains():
    for ch, n in random_tiny_chains(100, seed=2024):
        spec = ProblemSpec(3, 2, n)
        got = {(s.x, s.exponents) for s in modular_solutions(spec, ch)}
        want = brute_modular(spec, ch)
        assert got == want, (n, [s.factor.value for s in ch.steps])


def reduce_solution(sol, spec, m, index):
    """Canonical form of a solution pushed down to a smaller modulus m."""
    ps, ss = cycle_shape(spec.power_base, m), cycle_shape(spec.summand_base, m)
    exps = tuple(sorted(ss.reduce_exponent(a) for a in sol.exponents))
    return SolutionModM(ps.reduce_exponent(sol.x), exps, index)


def test_restriction_property():
    checked = 0
    for ch, n in random_tiny_chains(30, seed=77):
        spec = ProblemSpec(3, 2, n)
        per_step = []

        def grab(stats, working):
            per_step.append(list(working))

        try:
            finals, _ = solve_chain(spec, ch, step_callback=grab)
        except ChainExhausted as exc:
            finals = exc.solutions
        # each child has one parent, so no step holds a class twice and no
        # identity is finalised twice
        assert len(set(finals)) == len(finals)
        # _lift_step sorts each step's working set; the lifts do not
        for working in per_step:
            keys = [(s.x, s.exponents) for s in working]
            assert len(keys) == len(set(keys))
            assert keys == sorted(keys)
        # per_step[i] is the working set after chain step i+1
        for i in range(1, len(per_step)):
            prev_step = ch.steps[i - 1]
            prev_set = {(s.x, s.exponents) for s in per_step[i - 1]}
            for s in per_step[i]:
                red = reduce_solution(s, spec, prev_step.modulus, prev_step.index)
                assert (red.x, red.exponents) in prev_set, (i, s)
                checked += 1
    assert checked >= 30


# ---------------------------------------------------------------------------
# digit table


def test_bit_count_table():
    rows = bit_count_table(200)
    assert len(rows) == 201
    for x, bits, ones in rows:
        t = 3**x
        assert bits == t.bit_length()
        assert ones == bin(t).count("1")
    assert rows[16][1:] == (26, 11)
    assert rows[25][1:] == (40, 18)
    assert rows[0] == (0, 1, 1)
