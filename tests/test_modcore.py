import math
import random

import pytest
from hypothesis import given, strategies as st

from modchain import (
    FactoredModulus,
    InvalidInput,
    NotCoprime,
    crt_pair,
    cycle_shape,
    modified_orders,
    multiplicative_order,
)
from modchain.factorint import factorize


def fm(n):
    return FactoredModulus.from_int(n)


def brute_shape(b, M):
    """Walk b^0, b^1, ... mod M until the first repeat; (tail, loop)."""
    seen = {}
    v, i = 1 % M, 0
    while v not in seen:
        seen[v] = i
        v = v * b % M
        i += 1
    tail = seen[v]
    return tail, i - tail


# ---------------------------------------------------------------------------
# construction


def test_factored_modulus_value_cached():
    m = FactoredModulus.from_prime_powers(((2, 6), (5, 1), (17, 1)))
    assert m.value == 5440
    assert m.two_exp == 6 and m.three_exp == 0
    assert m.coprime_factors == ((5, 1), (17, 1))
    assert m.coprime_value == 85


def test_from_int_matches_from_prime_powers():
    assert fm(10880) == FactoredModulus.from_prime_powers(((2, 7), (5, 1), (17, 1)))


def test_composite_coprime_factor_rejected():
    with pytest.raises(InvalidInput):
        FactoredModulus.from_prime_powers(((15, 1),))
    with pytest.raises(InvalidInput):
        FactoredModulus.from_prime_powers(((5, 1), (5, 1)))


def test_unit_modulus_allowed_internally():
    one = FactoredModulus.from_prime_powers(())
    assert one.value == 1
    assert multiplicative_order(2, one) == 1


# ---------------------------------------------------------------------------
# orders


def test_order_of_three_mod_two_power():
    for u in range(3, 24):
        assert multiplicative_order(3, fm(2**u)) == 2 ** (u - 2)


def test_order_examples():
    assert multiplicative_order(2, fm(7 * 73)) == 9
    assert multiplicative_order(1, fm(5440)) == 1
    assert multiplicative_order(2, fm(85)) == 8
    assert multiplicative_order(3, fm(85)) == 16


def test_order_requires_coprime():
    with pytest.raises(NotCoprime):
        multiplicative_order(2, fm(6))


def test_order_minimality_random():
    # 1000 random (b, m): b^o = 1 and b^(o/q) != 1 for every prime q | o
    rng = random.Random(20260818)
    checked = 0
    while checked < 1000:
        m_val = rng.randrange(2, 10**7)
        b = rng.randrange(2, 10**4)
        if math.gcd(b, m_val) != 1:
            continue
        m = fm(m_val)
        o = multiplicative_order(b, m)
        assert pow(b, o, m_val) == 1
        for q, _ in factorize(o):
            assert pow(b, o // q, m_val) != 1, (b, m_val, o, q)
        checked += 1


def test_modified_orders_examples():
    m = FactoredModulus.from_prime_powers(((2, 4), (7, 1), (73, 1)))
    assert modified_orders(2, m) == (9, 9)
    assert modified_orders(3, m)[1] == 12
    assert modified_orders(2, fm(2**6)) == (1, 1)
    assert modified_orders(3, fm(3**5)) == (1, 1)


def test_modified_orders_strip_own_prime():
    # loop order of b ignores the b-part of the modulus, coprime order also
    # drops the other special prime
    m = fm(2**5 * 3**2 * 5 * 17)
    loop2, cop2 = modified_orders(2, m)
    assert loop2 == multiplicative_order(2, fm(3**2 * 5 * 17))
    assert cop2 == multiplicative_order(2, fm(5 * 17))
    loop3, cop3 = modified_orders(3, m)
    assert loop3 == multiplicative_order(3, fm(2**5 * 5 * 17))
    assert cop3 == multiplicative_order(3, fm(5 * 17))


def test_modified_orders_brute_small():
    rng = random.Random(11)
    for _ in range(200):
        m_val = rng.randrange(2, 3000)
        m = fm(m_val)
        for b in (2, 3):
            stripped = m_val
            while stripped % b == 0:
                stripped //= b
            loop, _ = modified_orders(b, m)
            e = 1
            while pow(b, e, stripped) != 1 % stripped:
                e += 1
            assert loop == e, (b, m_val)


# ---------------------------------------------------------------------------
# cycle shapes


def test_shape_examples():
    s = cycle_shape(2, fm(5440))
    assert (s.tail_len, s.loop_len) == (6, 8)
    assert s.num_powers == 14
    assert cycle_shape(3, fm(5440)).num_powers == 16
    s439 = cycle_shape(2, fm(439))
    assert (s439.tail_len, s439.loop_len) == (0, 73)


def test_shape_needs_base_2_or_3():
    for b in (1, 5, 6):
        with pytest.raises(InvalidInput, match="bases 2 and 3"):
            cycle_shape(b, fm(5440))


def test_shape_census_brute_force():
    # every modulus up to 10^4, both bases, against the orbit walk
    for M in range(2, 10**4 + 1):
        m = fm(M)
        for b in (2, 3):
            s = cycle_shape(b, m)
            assert (s.tail_len, s.loop_len) == brute_shape(b, M), (b, M)


def test_shape_loop_closes_and_is_distinct():
    rng = random.Random(5)
    for _ in range(100):
        M = rng.randrange(2, 10**5)
        m = fm(M)
        for b in (2, 3):
            s = cycle_shape(b, m)
            t, l = s.tail_len, s.loop_len
            assert pow(b, t + l, M) == pow(b, t, M)
            seen = {pow(b, t + i, M) for i in range(l)}
            assert len(seen) == l


def test_is_determinate():
    # b^i is determinate in Z/MZ (b^(i+1) divides M) exactly below the tail
    assert cycle_shape(2, fm(5440)).tail_len == 6  # 2^0..2^5 pinned, 2^6 not
    assert cycle_shape(2, fm(85)).tail_len == 0
    assert cycle_shape(3, fm(9)).tail_len == 2  # 3^0, 3^1 pinned, 3^2 not


# ---------------------------------------------------------------------------
# CRT


def test_crt_pair_basic():
    assert crt_pair(1, 2, 2, 3) == (5, 6)
    assert crt_pair(0, 1, 4, 7) == (4, 7)
    # incompatible congruences under a shared factor have no solution
    assert crt_pair(1, 4, 2, 4) is None
    assert crt_pair(1, 4, 3, 6) == (9, 12)


@given(st.integers(1, 10**6), st.integers(1, 10**6), st.data())
def test_crt_pair_roundtrip(m1, m2, data):
    r1 = data.draw(st.integers(0, m1 - 1))
    r2 = data.draw(st.integers(0, m2 - 1))
    got = crt_pair(r1, m1, r2, m2)
    g = math.gcd(m1, m2)
    if (r1 - r2) % g != 0:
        assert got is None
    else:
        r, m = got
        assert m == m1 * m2 // g
        assert r % m1 == r1 and r % m2 == r2
        assert 0 <= r < m


def test_tail_matches_valuation():
    # diagram check: 2^13 at 5440 sits on the loop, eight steps around
    m = fm(5440)
    s = cycle_shape(2, m)
    assert pow(2, 13, 5440) == pow(2, 13 - s.loop_len, 5440) * pow(2, s.loop_len, 5440) % 5440
    assert pow(2, 6 + 8, 5440) == pow(2, 6, 5440)
