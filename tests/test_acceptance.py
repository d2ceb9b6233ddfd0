"""End-to-end checks, one per shipped guarantee, each printing a PASS/FAIL
line with its runtime against the stated budget."""

import time

from modchain import (
    ExactSolution,
    FactoredModulus,
    ProblemSpec,
    compute_lift_plan,
    construct_extraneous,
    enumerate_base_solutions,
    lift_balanced,
    lift_unbalanced,
    make_solution,
    power_membership,
    solve_chain,
    validate_chain,
)
from modchain.chains import Chain
from modchain.cli import DIGIT_GOLDENS, main

import test_dlog
import test_modcore
import test_solver
from conftest import FAMILY_FACTORS, family_chain

SPEC3 = ProblemSpec(3, 2, 3)


def report(capsys, number, label, ok, elapsed, limit):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    with capsys.disabled():
        print(f"[criterion {number}] {status} {label} ({elapsed:.2f}s, limit {limit:g}s)")
    assert ok, label
    assert elapsed < limit, f"{label}: {elapsed:.2f}s over the {limit:g}s budget"


def census(m, n=3, cap=4000):
    sols = enumerate_base_solutions(ProblemSpec(3, 2, n), m,
                                    side_conditions=False, max_exponents=cap)
    return [(s.x, s.exponents) for s in sols]


def test_criterion_1_census_5440(capsys):
    t0 = time.perf_counter()
    got = census(FactoredModulus.from_int(5440))
    want = [(1, (0, 0, 0)), (2, (0, 2, 2)), (4, (0, 4, 6))]
    report(capsys, 1, "census mod 5440 lists exactly the three classes in order",
           got == want, time.perf_counter() - t0, 1.0)


def test_criterion_2_census_10880_and_witness(capsys):
    t0 = time.perf_counter()
    m = FactoredModulus.from_prime_powers(FAMILY_FACTORS["m2"])
    got = census(m)
    ok = len(got) == 4 and (20, (0, 4, 14)) in got
    w = construct_extraneous(m, 17, 6, 4)
    ok = ok and (w.x_prime, w.y_prime) == (14, 20) and w.holds() and w.indeterminate()
    report(capsys, 2, "census mod 10880 has the extra class and its witness checks",
           ok, time.perf_counter() - t0, 1.0)


def test_criterion_3_lift_cases(capsys):
    t0 = time.perf_counter()
    spec = ProblemSpec(3, 2, 12)
    x, exps = 57, (0, 1, 11, 12, 15, 16, 26, 27, 37, 57, 65, 68)

    def base_sol(chain):
        step = chain.steps[0]
        return make_solution(x, exps, 1, spec, step.modulus,
                             step.shape(3), step.shape(2))

    # a huge fresh prime: the dlog class of the sum disagrees with x, so the
    # lift is empty
    p = 9361973132609
    big = Chain.from_factors(
        [FactoredModulus.from_int(439), FactoredModulus.from_int(p)],
        direction="3=sum2")
    sol = base_sol(big)
    plan = compute_lift_plan(sol, big.steps[0], big.steps[1], spec)
    empty = lift_unbalanced(sol, plan, big.steps[0], big.steps[1], spec)
    s = sum(pow(2, a, p) for a in exps) % p
    hit = power_membership(3, s, p)
    ok = empty == [] and hit is not None
    ok = ok and hit.residue_class % 146 == 31 and x % 146 == 57

    # a small fresh prime: exactly eight lifts survive, one with x' = 203
    small = Chain.from_factors(
        [FactoredModulus.from_int(439), FactoredModulus.from_int(1753)],
        direction="3=sum2")
    sol = base_sol(small)
    plan = compute_lift_plan(sol, small.steps[0], small.steps[1], spec)
    eight = lift_balanced(sol, plan, small.steps[0], small.steps[1], spec)
    ok = ok and len(eight) == 8 and any(s.x == 203 for s in eight)
    report(capsys, 3, "unbalanced lift prunes to empty, balanced lift keeps 8",
           ok, time.perf_counter() - t0, 5.0)


def test_criterion_4_full_run_n_le_14(capsys, t2):
    t0 = time.perf_counter()
    bounds = {3: 10, 10: 27, 13: 37}
    ok = True
    for n in range(1, 15):
        want = {(x, tuple(i for i in range(41) if 3**x >> i & 1))
                for x in range(26) if bin(3**x).count("1") == n}
        finals, rep = solve_chain(ProblemSpec(3, 2, n), t2)
        got = {(s.x, s.exponents) for s in finals}
        ok = ok and got == want and rep.complete
        if n in bounds:
            ok = ok and rep.terminated_at <= bounds[n]
    report(capsys, 4, "all solution sets for n <= 14 match the digit counts",
           ok, time.perf_counter() - t0, 600.0)


def test_criterion_5_mirror(capsys, t3):
    t0 = time.perf_counter()
    want = {1: [(0, (0,))], 2: [(2, (0, 1))], 4: [(8, (0, 1, 2, 5))]}
    ok = True
    for n in (1, 2, 4, 6, 8, 10, 12, 14, 16):
        finals, rep = solve_chain(ProblemSpec(2, 3, n), t3)
        ok = ok and [(s.x, s.exponents) for s in finals] == want.get(n, [])
        ok = ok and rep.complete
    for n in (3, 5, 7):
        finals, rep = solve_chain(ProblemSpec(2, 3, n), t3)
        ok = ok and finals == [] and rep.parity_shortcut
    report(capsys, 5, "powers of 2 as sums of powers of 3: only n in {1,2,4}",
           ok, time.perf_counter() - t0, 120.0)


def test_criterion_6_digit_table(capsys):
    t0 = time.perf_counter()
    exit_code = main(["verify-table1", "--x-max", "25"])
    capsys.readouterr()
    ok = exit_code == 0
    for x in range(26):
        t = 3**x
        ok = ok and DIGIT_GOLDENS[x] == (t.bit_length(), bin(t).count("1"))
    report(capsys, 6, "stored digit table of 3^x agrees with direct expansion",
           ok, time.perf_counter() - t0, 1.0)


def test_criterion_7_property_suites(capsys):
    t0 = time.perf_counter()
    test_modcore.test_order_minimality_random()
    test_modcore.test_shape_census_brute_force()
    test_dlog.test_dlog_prime_roundtrip()
    test_dlog.test_log3_mod_2u_roundtrip()
    test_dlog.test_log2_mod_3v_roundtrip()
    test_solver.test_completeness_on_tiny_chains()
    test_solver.test_case_agreement()
    report(capsys, 7, "randomized property suites all hold",
           True, time.perf_counter() - t0, 300.0)


def test_criterion_8_hazards_match_extras(capsys):
    t0 = time.perf_counter()
    identity = ExactSolution(4, (0, 4, 6))
    displays = {(1, (0, 0, 0)), (2, (0, 2, 2)), (4, (0, 4, 6))}
    ok = True
    for key in ("m2", "m3", "m4", "m257"):
        chain = family_chain(key)
        val = validate_chain(chain, [identity])
        extras = set(census(chain.final.modulus)) - displays
        if val.hazards:
            w = val.hazards[0].witness
            ok = ok and (w.y_prime, (0, 4, w.x_prime)) in extras
        else:
            ok = ok and not extras
        ok = ok and (bool(val.hazards) == bool(extras))
    report(capsys, 8, "hazard flags coincide with enumerated extra classes",
           ok, time.perf_counter() - t0, 10.0)
