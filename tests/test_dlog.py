import math
import random

import pytest

from modchain import (
    DlogResult,
    FactoredModulus,
    InvalidInput,
    MemoryBudgetExceeded,
    PrimeDlog,
    log2_mod_3v,
    log3_mod_2u,
    multiplicative_order,
    power_membership,
    prime_context,
)
from modchain import dlog as dlog_module
from modchain.dlog import find_generator
from modchain.factorint import factorize
from modchain.modcore import _order_from_multiple

PRIMES = [7, 257, 439, 1753, 65537, 167772161, 9361973132609]


def powers(b, m):
    """{b^e mod m: e} over one period of the powers of the unit b."""
    table, v = {}, 1
    while v not in table:
        table[v] = len(table)
        v = v * b % m
    return table


def brute_order(b, m):
    return len(powers(b, m))


def test_order_from_multiple_brute():
    # the order and its factorisation from phi(m), for primes below 2000, 2^u and 3^v
    primes = [p for p in range(3, 2000) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    cases = [(b, p, factorize(p - 1)) for p in primes for b in (2, 3) if p != b]
    cases += [(b, 1 << u, ((2, u - 1),)) for u in range(1, 13) for b in (3, 5, (1 << u) - 1)]
    cases += [(b, 3**v, ((2, 1), (3, v - 1))) for v in range(1, 8) for b in (2, 4, 3**v - 1)]
    for b, m, factors in cases:
        order, order_factors = _order_from_multiple(b % m, m, factors)
        assert order == brute_order(b, m), (b, m)
        assert order_factors == factorize(order), (b, m)


def test_find_generator_small():
    assert find_generator(2) == 1
    assert find_generator(7) == 3
    # least primitive root mod 257, confirmed by scanning orders
    g = find_generator(257)
    assert brute_order(g, 257) == 256
    for h in range(2, g):
        assert brute_order(h, 257) != 256


def test_generator_generates():
    for p in PRIMES:
        if p < 10**6:
            g = find_generator(p)
            assert brute_order(g, p) == p - 1


def test_dlog_prime_roundtrip():
    rng = random.Random(99)
    count = 0
    while count < 1000:
        p = rng.choice(PRIMES)
        ctx = prime_context(p)
        assert ctx.generator == find_generator(p)
        e = rng.randrange(p - 1)
        s = pow(ctx.generator, e, p)
        assert ctx.dlog(s) == e
        count += 1


def test_dlog_prime_identity():
    for p in PRIMES:
        assert prime_context(p).dlog(1) == 0


def test_dlog_big_prime_class():
    # ord(3) is the full group mod this prime, so logs base 3 are unique mod p-1
    p = 9361973132609
    assert multiplicative_order(3, FactoredModulus.from_prime_powers(((p, 1),))) == p - 1
    exponents = (0, 1, 11, 12, 15, 16, 26, 27, 37, 57, 65, 68)
    s = sum(pow(2, a, p) for a in exponents) % p
    res = power_membership(3, s, p)
    assert res is not None
    assert res.class_modulus == p - 1
    assert res.residue_class == 3976447101915
    assert res.residue_class % 146 == 31


def test_power_membership_examples():
    res = power_membership(3, pow(3, 57, 439), 439)
    assert res is not None
    assert res.class_modulus == 146
    assert res.residue_class == 57
    assert power_membership(3, 1, 439).residue_class == 0
    assert power_membership(2, 5, 7) is None
    with pytest.raises(InvalidInput):
        power_membership(2, 4, 15)  # 15 is not prime


def test_power_membership_brute_agreement():
    # subgroup membership against direct enumeration, every prime below 2000
    primes = [p for p in range(5, 2000) if all(p % d for d in range(2, int(p**0.5) + 1))]
    rng = random.Random(4)
    for p in primes:
        members = {}
        v = 1
        for e in range(brute_order(3, p)):
            members[v] = e
            v = v * 3 % p
        for s in {1, 3 % p, rng.randrange(1, p), rng.randrange(1, p)}:
            res = power_membership(3, s, p)
            if s in members:
                assert res is not None, (p, s)
                assert members[s] % res.class_modulus == res.residue_class
                assert res.class_modulus == len(members)
            else:
                assert res is None, (p, s)


def test_exponent_class_small_primes_brute():
    # every residue of every prime 5 <= p < 400, against the enumerated powers
    primes = [p for p in range(5, 400) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    for p in primes:
        ctx = prime_context(p)
        for b in (2, 3):
            order = brute_order(b, p)
            for s in range(1, p):
                res = ctx.exponent_class(b, s)
                if pow(s, order, p) == 1:  # s is in <b>
                    assert res is not None, (p, b, s)
                    assert res.class_modulus == order
                    assert pow(b, res.residue_class, p) == s
                else:
                    assert res is None, (p, b, s)


@pytest.mark.parametrize(
    "p, b",
    [
        (530713, 2),
        (38737, 3),  # ord has the prime 269 > 256: giant steps
        (1084521185281, 3),  # ord has a 2^22 part: several digit blocks
        (9361973132609, 3),  # ord has the prime 105465631: a sqrt-size baby table
    ],
)
def test_exponent_class_large_primes(p, b):
    order = multiplicative_order(b, FactoredModulus.from_prime_powers(((p, 1),)))
    ctx = prime_context(p)
    rng = random.Random(p)
    for k in range(2000):
        if k % 2:
            e = rng.randrange(order)
            s = pow(b, e, p)
        else:
            e, s = None, rng.randrange(1, p)
        res = ctx.exponent_class(b, s)
        if pow(s, order, p) != 1:
            assert res is None, (p, b, s)
            continue
        assert res is not None, (p, b, s)
        assert res.class_modulus == order
        assert pow(b, res.residue_class, p) == s
        if e is not None:
            assert res.residue_class == e


def test_exponent_class_errors():
    ctx = prime_context(530713)
    with pytest.raises(InvalidInput):
        ctx.exponent_class(3, 0)
    with pytest.raises(InvalidInput):
        ctx.exponent_class(530713, 5)
    with pytest.raises(InvalidInput):
        ctx.dlog(0)
    # a class outside [0, its modulus) is refused however it is built
    for residue in (3, -1):
        with pytest.raises(InvalidInput):
            DlogResult(residue, 3)
        with pytest.raises(InvalidInput):
            DlogResult(residue_class=residue, class_modulus=3)


def test_baby_table_cap(monkeypatch):
    # the order-105465631 subgroup needs a baby table of ceil(sqrt) = 10270 entries
    monkeypatch.setattr(dlog_module, "_MAX_BSGS_TABLE", 100)
    with pytest.raises(MemoryBudgetExceeded):
        PrimeDlog(9361973132609).dlog(5)


def test_baby_tables_stay_small():
    # A digit block tables at most 256 powers and a prime q > 256 at most
    # ceil(sqrt q). The literal 256 pins the bound: a larger block table costs
    # memory on every (prime, base) a run meets.
    for p in (530713, 1084521185281):
        ctx = PrimeDlog(p)
        for b in (2, 3):
            for s in range(1, 50):
                ctx.exponent_class(b, pow(b, s, p))
                ctx.exponent_class(b, s)
        assert set(ctx._logs) == {2, 3}
        for log in ctx._logs.values():
            for part in log.parts:
                for block in part.blocks:
                    table = block.table
                    assert len(table.baby) <= max(256, math.isqrt(table.order - 1) + 1)


def test_log3_mod_2u_examples():
    r = log3_mod_2u(1, 5)
    assert (r.residue_class, r.class_modulus) == (0, 8)
    r = log3_mod_2u(3, 4)
    assert (r.residue_class, r.class_modulus) == (1, 4)
    assert log3_mod_2u(5, 4) is None
    assert log3_mod_2u(7, 3) is None
    with pytest.raises(InvalidInput):
        log3_mod_2u(4, 5)


def test_log3_mod_2u_exhaustive():
    # every unit mod 2^u, across the 8-bit digit block of the non-cyclic (Z/2^uZ)*
    for u in range(3, 13):
        table = powers(3, 1 << u)
        for z in range(1, 1 << u, 2):
            r = log3_mod_2u(z, u)
            if z in table:
                assert (r.residue_class, r.class_modulus) == (table[z], len(table)), (z, u)
            else:
                assert r is None, (z, u)


def test_log3_mod_2u_roundtrip():
    rng = random.Random(12)
    for _ in range(1000):
        u = rng.randrange(3, 65)
        e = rng.randrange(1 << (u - 2))
        z = pow(3, e, 1 << u)
        r = log3_mod_2u(z, u)
        assert r.class_modulus == 1 << (u - 2)
        assert r.residue_class == e
        assert pow(3, r.residue_class, 1 << u) == z


def test_log3_mod_2u_divisibility():
    # z = 1 mod 2^w forces the exponent class to be divisible by 2^(w-2)
    rng = random.Random(13)
    for _ in range(300):
        u = rng.randrange(5, 40)
        w = rng.randrange(3, u + 1)
        k = rng.randrange(1 << (u - w)) | 1
        z = (1 + (k << w)) % (1 << u)
        if z == 1:
            continue
        r = log3_mod_2u(z, u)
        if r is None:
            continue
        assert r.residue_class % (1 << (w - 2)) == 0, (u, w, z)


def test_log2_mod_3v_examples():
    r = log2_mod_3v(1, 2)
    assert (r.residue_class, r.class_modulus) == (0, 6)
    r = log2_mod_3v(2, 1)
    assert (r.residue_class, r.class_modulus) == (1, 2)
    with pytest.raises(InvalidInput):
        log2_mod_3v(9, 3)


def test_log2_mod_3v_exhaustive():
    for v in range(1, 8):
        table = powers(2, 3**v)
        for z in range(1, 3**v):
            if z % 3:
                r = log2_mod_3v(z, v)
                assert (r.residue_class, r.class_modulus) == (table[z], len(table)), (z, v)


def test_log2_mod_3v_roundtrip():
    rng = random.Random(14)
    for _ in range(1000):
        v = rng.randrange(1, 41)
        period = 2 * 3 ** (v - 1)
        e = rng.randrange(period)
        z = pow(2, e, 3**v)
        r = log2_mod_3v(z, v)
        assert r.class_modulus == period
        assert r.residue_class == e
        assert pow(2, r.residue_class, 3**v) == z


def test_log2_mod_3v_divisibility():
    rng = random.Random(15)
    for _ in range(300):
        v = rng.randrange(2, 30)
        w = rng.randrange(1, v + 1)
        k = rng.randrange(3 ** (v - w))
        z = (1 + k * 3**w) % 3**v
        if z == 1 or z % 3 == 0:
            continue
        r = log2_mod_3v(z, v)
        assert r.residue_class % (2 * 3 ** (w - 1)) == 0, (v, w, z)


def test_class_exactness():
    rng = random.Random(16)
    for _ in range(50):
        u = rng.randrange(4, 30)
        e = rng.randrange(1 << (u - 2))
        z = pow(3, e, 1 << u)
        r = log3_mod_2u(z, u)
        assert pow(3, r.residue_class + r.class_modulus, 1 << u) == z
        if r.class_modulus > 1:
            assert pow(3, r.residue_class + 1, 1 << u) != z
