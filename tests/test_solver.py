import math
import random
from fractions import Fraction

import pytest

from modchain import (
    Chain,
    ChainExhausted,
    FactoredModulus,
    InvalidInput,
    MemoryBudgetExceeded,
    NotDivisible,
    ProblemSpec,
    Progression,
    SolverConfig,
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
    reduce_solution,
    solve_chain,
)
from modchain.errors import BaseModulusTooLarge

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
        ProblemSpec(3, 2, 0)
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
    assert p.last == 36
    assert len(p) == 3


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


def test_base_modulus_too_large():
    with pytest.raises(BaseModulusTooLarge):
        enumerate_base_solutions(ProblemSpec(3, 2, 2), fm(439))
    # explicit bound lifts the guard
    sols = enumerate_base_solutions(ProblemSpec(3, 2, 2), fm(439), max_exponents=80)
    assert all(len(s.exponents) == 2 for s in sols)


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
    assert len(plan.left_lifts) == 16
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
    left = plan.chi * math.prod(len(a) for a in plan.lift_sets[:5])
    right = math.prod(len(a) for a in plan.lift_sets[5:])
    assert (left, right) == (192, 128)


def test_lift_plan_not_divisible():
    ch1, ch2 = chain_of(5440), chain_of(5441 * 2)
    sol = sol_at(ch1, 1, 4, (0, 4, 6), SPEC3)
    with pytest.raises(NotDivisible):
        compute_lift_plan(sol, ch1.steps[0], ch2.steps[0], SPEC3)


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
    assert all(len(a) == 1 for a in plan.lift_sets)
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


def test_case_agreement():
    # wherever the dlog route is legal at all, it must produce exactly the
    # meet-in-the-middle answer
    bases = [5440, 2**4 * 7 * 73, 2**5 * 3**2 * 5, 10880]
    primes = [97, 193, 241, 257, 353, 433, 577, 641, 1753]
    rng = random.Random(55)
    instances = 0
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
    assert instances >= 50


def test_split_balance_is_optimal():
    # scanning every k must not find a strictly more even split, and ties go
    # to the smallest k
    ch = chain_of(439, 1753)
    spec = ProblemSpec(3, 2, 12)
    sol = sol_at(ch, 1, *BASE_439, spec)
    plan = compute_lift_plan(sol, ch.steps[0], ch.steps[1], spec)
    sizes = [len(a) for a in plan.lift_sets]

    def imbalance(k):
        left = plan.chi * math.prod(sizes[:k])
        right = math.prod(sizes[k:])
        return Fraction(max(left, right), min(left, right))

    best = min(imbalance(k) for k in range(len(sizes) + 1))
    assert imbalance(plan.split_index) == best
    assert all(imbalance(k) > best for k in range(plan.split_index))


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


def test_early_finalize_equivalence(t2):
    for n in (4, 5, 6):
        spec = ProblemSpec(3, 2, n)
        on, _ = solve_chain(spec, t2)
        off, _ = solve_chain(spec, t2, SolverConfig(early_finalize=False))
        assert [(s.x, s.exponents) for s in on] == [(s.x, s.exponents) for s in off]


def test_worker_pool_matches_serial(t2):
    spec = ProblemSpec(3, 2, 6)
    serial, rep1 = solve_chain(spec, t2)
    pooled, rep2 = solve_chain(spec, t2, SolverConfig(workers=2))
    assert [(s.x, s.exponents) for s in serial] == [(s.x, s.exponents) for s in pooled]
    assert rep1.terminated_at == rep2.terminated_at
    short = t2.prefix(6)
    assert modular_solutions(spec, short, SolverConfig(workers=2)) == modular_solutions(spec, short)


def test_chain_exhausted(t2):
    with pytest.raises(ChainExhausted) as err:
        solve_chain(ProblemSpec(3, 2, 6), t2.prefix(2))
    assert err.value.report.complete is False
    assert err.value.report.remaining


def test_memory_cap_enforced(t2):
    with pytest.raises(MemoryBudgetExceeded):
        solve_chain(ProblemSpec(3, 2, 6), t2, SolverConfig(memory_cap=2))


def test_run_report_counts(t2):
    _, rep = solve_chain(SPEC3, t2)
    assert rep.direction == "3=sum2"
    assert rep.n == 3
    assert rep.base_count == 1
    assert [s.index for s in rep.steps] == list(range(1, rep.terminated_at + 1))
    for s in rep.steps:
        assert s.balanced + s.unbalanced <= s.incoming


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


def test_restriction_property():
    checked = 0
    for ch, n in random_tiny_chains(30, seed=77):
        spec = ProblemSpec(3, 2, n)
        per_step = []

        def grab(stats, working):
            per_step.append(list(working))

        try:
            solve_chain(spec, ch, SolverConfig(early_finalize=False), step_callback=grab)
        except ChainExhausted:
            pass
        # each child has one parent, so no step holds a class twice
        for working in per_step:
            keys = [(s.x, s.exponents) for s in working]
            assert len(keys) == len(set(keys))
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
