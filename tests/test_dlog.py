import random

import pytest

from modchain import (
    FactoredModulus,
    InvalidInput,
    log2_mod_3v,
    log3_mod_2u,
    multiplicative_order,
    power_membership,
    prime_context,
)
from modchain.dlog import find_generator

PRIMES = [7, 257, 439, 1753, 65537, 167772161, 9361973132609]


def brute_order(b, p):
    e, v = 1, b % p
    while v != 1:
        v = v * b % p
        e += 1
    return e


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


def test_log3_mod_2u_examples():
    r = log3_mod_2u(1, 5)
    assert (r.residue_class, r.class_modulus) == (0, 8)
    r = log3_mod_2u(3, 4)
    assert (r.residue_class, r.class_modulus) == (1, 4)
    assert log3_mod_2u(5, 4) is None
    assert log3_mod_2u(7, 3) is None
    with pytest.raises(InvalidInput):
        log3_mod_2u(4, 5)


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
