import pytest

from modchain import (
    ExactSolution,
    FactoredModulus,
    InvalidInput,
    PreconditionViolated,
    ProblemSpec,
    construct_extraneous,
    enumerate_base_solutions,
    search_factors,
    solve_chain,
    step_diagnostics,
    validate_chain,
)
from modchain.planner import ChainValidation

from conftest import FAMILY_FACTORS, family_chain


def fam(key):
    return FactoredModulus.from_prime_powers(FAMILY_FACTORS[key])


SOL_N3 = ExactSolution(4, (0, 4, 6))  # 81 = 1 + 16 + 64


# ---------------------------------------------------------------------------
# witness construction


def test_witness_family_goldens():
    # isolate the top summand of 81 = 17 + 2^6 and push both exponents
    # past the tails; each extension of the modulus stretches x'
    for key, xp in (("m2", 14), ("m3", 46), ("m4", 486)):
        w = construct_extraneous(fam(key), 17, 6, 4)
        assert (w.x_prime, w.y_prime) == (xp, 20)
        assert w.holds() and w.indeterminate()


def test_witness_blocked_by_257():
    with pytest.raises(PreconditionViolated, match="2-adic obstruction"):
        construct_extraneous(fam("m257"), 17, 6, 4)


def test_witness_matches_census_extra():
    # the constructed pair is exactly the extra member of the raw census
    w = construct_extraneous(fam("m2"), 17, 6, 4)
    sols = enumerate_base_solutions(
        ProblemSpec(3, 2, 3), fam("m2"), side_conditions=False
    )
    assert (w.y_prime, (0, 4, w.x_prime)) in {(s.x, s.exponents) for s in sols}


def test_witness_small_two_part_branches():
    fm = FactoredModulus.from_int
    # u = 0: the 2-adic side is free, only mod 3^v needs repair
    w = construct_extraneous(fm(279), -5, 3, 1)  # 9 * 31
    assert (w.x_prime, w.y_prime) == (23, 31)
    assert w.holds() and w.indeterminate()
    # u = 2 and u = 1: x > 2 makes 2^x = 0 mod 2^u, so y needs no 2-adic repair
    w = construct_extraneous(fm(540), -5, 3, 1)  # 4 * 27 * 5
    assert (w.x_prime, w.y_prime) == (23, 5)
    assert w.holds() and w.indeterminate()
    w = construct_extraneous(fm(270), -5, 3, 1)  # 2 * 27 * 5
    assert (w.x_prime, w.y_prime) == (23, 5)
    assert w.holds() and w.indeterminate()


def test_witness_three_adic_obstruction():
    with pytest.raises(PreconditionViolated, match="3-adic obstruction"):
        construct_extraneous(FactoredModulus.from_int(315), -5, 3, 1)


def test_witness_preconditions():
    m2 = fam("m2")
    with pytest.raises(PreconditionViolated, match="does not hold"):
        construct_extraneous(m2, 18, 6, 4)
    with pytest.raises(PreconditionViolated, match="x > 2"):
        construct_extraneous(m2, 81 - 4, 2, 4)
    with pytest.raises(PreconditionViolated, match="y >= 1"):
        construct_extraneous(m2, 1 - 64, 6, 0)
    with pytest.raises(PreconditionViolated, match="determinate side"):
        # both exponents already past the tails (u=7, v=0)
        construct_extraneous(m2, 17, 14, 20)


# ---------------------------------------------------------------------------
# chain validation


def test_validate_family_hazards():
    for key, xp in (("m2", 14), ("m3", 46), ("m4", 486)):
        val = validate_chain(family_chain(key), [SOL_N3])
        assert not val.ok
        assert len(val.hazards) == 1
        hz = val.hazards[0]
        assert hz.solution == SOL_N3
        assert (hz.x, hz.y, hz.c) == (6, 4, 17)
        assert (hz.witness.x_prime, hz.witness.y_prime) == (xp, 20)
        assert hz.witness.holds() and hz.witness.indeterminate()


def test_validate_protected_by_257():
    val = validate_chain(family_chain("m257"), [SOL_N3])
    assert val.ok and not val.hazards
    assert len(val.protected) == 1
    sol, reason = val.protected[0]
    assert sol == SOL_N3
    assert "2^5 divides ord(3)" in reason


def test_hazards_cooccur_with_census_extras():
    # whenever validation flags a hazard, the raw census really does contain
    # an extra congruence solution beyond the integer identities
    spec = ProblemSpec(3, 2, 3)
    identities = {(1, (0, 0, 0)), (2, (0, 2, 2)), (4, (0, 4, 6))}
    for key in ("m2", "m257"):
        ch = family_chain(key)
        census = {
            (s.x, s.exponents)
            for s in enumerate_base_solutions(spec, ch.final.modulus,
                                              side_conditions=False)
        }
        val = validate_chain(ch, [SOL_N3])
        extras = census - identities
        if val.hazards:
            assert extras, key
            w = val.hazards[0].witness
            assert (w.y_prime, (0, 4, w.x_prime)) in extras
        else:
            assert not extras, key


def test_validate_bundled_t2(t2):
    sols = []
    for n in range(1, 7):
        finals, _ = solve_chain(ProblemSpec(3, 2, n), t2)
        sols.extend(finals)
    assert len(sols) == 9
    val = validate_chain(t2, sols)
    assert val.ok and val.hazards == []
    assert len(val.protected) == 7
    reasons = [r for _, r in val.unchecked]
    assert len(reasons) == 2
    assert all("outside the obstruction argument" in r for r in reasons)
    assert "sufficient" in ChainValidation.DISCLAIMER


def test_validate_bundled_t3(t3):
    sols = []
    for n in (1, 2, 4):
        finals, _ = solve_chain(ProblemSpec(2, 3, n), t3)
        sols.extend(finals)
    assert [(s.x, s.exponents) for s in sols] == [
        (0, (0,)), (2, (0, 1)), (8, (0, 1, 2, 5)),
    ]
    val = validate_chain(t3, sols)
    assert val.ok and val.hazards == []
    assert len(val.protected) == 1
    assert len(val.unchecked) == 2


def test_validate_requires_direction():
    # a chain built without a direction tag cannot be validated
    from modchain import Chain

    bare = Chain.from_factors([fam("m2")])
    with pytest.raises(InvalidInput):
        validate_chain(bare, [SOL_N3])


# ---------------------------------------------------------------------------
# factor search


def test_search_factors_small_window():
    cands = search_factors(two_val=4, p_max=300)
    ps = [c.p for c in cands]
    assert ps == [17, 97, 113, 193, 241, 257]
    assert all(p % 16 == 1 for p in ps)
    c97 = next(c for c in cands if c.p == 97)
    assert c97.order_two == 48
    assert c97.order_three == 48
    assert dict(c97.order_two_factored) == {2: 4, 3: 1}


def test_search_factors_empty_window():
    assert search_factors(two_val=4, p_max=16) == []


def test_search_factors_fermat_prime():
    cands = search_factors(two_val=16, p_max=65600)
    hit = next(c for c in cands if c.p == 65537)
    assert hit.order_three == 2**16
    assert hit.two_part_of_order_three == 16


def test_search_factors_explicit_candidate():
    (hit,) = search_factors(two_val=24, candidates=[167772161])
    assert hit.p == 167772161
    assert hit.two_part_of_order_three == 25
    prod = 1
    for p, e in hit.order_three_factored:
        prod *= p**e
    assert prod == hit.order_three


def test_search_factors_three_val():
    ps = [c.p for c in search_factors(three_val=2, p_max=200)]
    assert ps == [19, 37, 73, 109, 127, 163, 181, 199]
    cands = search_factors(two_val=1, three_val=1, p_max=100)
    assert all(c.p % 6 == 1 for c in cands)
    assert 7 in [c.p for c in cands]


def test_search_factors_filters_candidates():
    cands = search_factors(candidates=[4, 9, 15, 2, 3, 17])
    assert [(c.p, c.order_two, c.order_three) for c in cands] == [(17, 8, 16)]


def test_search_factors_orders_minimal():
    for c in search_factors(two_val=2, p_max=500):
        for base, order in ((2, c.order_two), (3, c.order_three)):
            assert pow(base, order, c.p) == 1
            assert all(pow(base, k, c.p) != 1 for k in range(1, order))


def test_search_factors_bad_input():
    with pytest.raises(InvalidInput):
        search_factors(two_val=-1, p_max=10)
    with pytest.raises(InvalidInput):
        search_factors(two_val=2)


# ---------------------------------------------------------------------------
# step diagnostics


def test_step_diagnostics_first(t2):
    d = step_diagnostics(t2, 1)
    assert (d.order2_ratio, d.order3_ratio) == (9, 12)
    assert (d.tail2_growth, d.tail3_growth) == (4, 0)
    assert not d.unbalanced_eligible


def test_step_diagnostics_fresh_prime(t2):
    d = step_diagnostics(t2, 54)
    assert d.factor.value == 87211
    assert d.order2_ratio == 3
    assert d.unbalanced_eligible


def test_step_diagnostics_pure_power(t2):
    # a pure 2-power factor stretches no loops at all
    i = next(i for i, s in enumerate(t2.steps, start=1)
             if s.factor.value == 1 << s.factor.two_exp)
    d = step_diagnostics(t2, i)
    assert d.order2_ratio == 1
    assert d.tail2_growth == d.factor.two_exp
    assert not d.unbalanced_eligible


def test_step_diagnostics_range(t2):
    with pytest.raises(InvalidInput):
        step_diagnostics(t2, 0)
    with pytest.raises(InvalidInput):
        step_diagnostics(t2, len(t2) + 1)


def test_precondition_is_invalid_input():
    assert issubclass(PreconditionViolated, InvalidInput)
