import math
import random

import pytest
from hypothesis import given, strategies as st

from modchain.factorint import factor_value, factorize, is_probable_prime

# composites that fool weak Fermat-style tests
CARMICHAELS = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265]

KNOWN_PRIMES = [
    2, 3, 5, 439, 1753, 65537, 1000003, 1000033,
    167772161, 9361973132609, 2**61 - 1,
]


def brute_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_small_primality_against_trial_division():
    for n in range(0, 3000):
        assert is_probable_prime(n) == brute_is_prime(n), n


def test_known_primes():
    for p in KNOWN_PRIMES:
        assert is_probable_prime(p), p


def test_carmichael_numbers_rejected():
    for n in CARMICHAELS:
        assert not is_probable_prime(n), n


# (psi_k, k): the smallest strong pseudoprime to each of the first k prime
# bases, for the k that is_probable_prime's witness counts switch at
PSI = [
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (3317044064679887385961981, 13),
]
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def strong_probable_prime(n, a):
    """Whether odd n > 2 passes the Miller-Rabin round for base a."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def reference_is_prime(n):
    """Miller-Rabin with all 13 bases: exact below psi_13."""
    if n < 2:
        return False
    if n in PRIME_BASES:
        return True
    if any(n % p == 0 for p in PRIME_BASES):
        return False
    return all(strong_probable_prime(n, a) for a in PRIME_BASES)


@pytest.mark.parametrize("psi, k", PSI)
def test_each_bound_is_composite(psi, k):
    # psi_k fools the first k bases, so it needs more witnesses than k
    assert all(strong_probable_prime(psi, a) for a in PRIME_BASES[:k])
    assert not is_probable_prime(psi)


def test_every_bound_range_agrees_with_the_13_witness_reference():
    rng = random.Random(2024)
    bounds = [41, *(psi for psi, _ in PSI)]
    primes_seen = 0
    for lo, hi in zip(bounds, bounds[1:]):
        sample = [rng.randrange(lo, hi) | 1 for _ in range(300)]
        # products of two primes between the range's square roots, the hardest composites
        roots = (max(43, math.isqrt(lo) + 1), math.isqrt(hi))
        halves = [p for p in (rng.randrange(*roots) | 1 for _ in range(400))
                  if reference_is_prime(p)][:20]
        sample += [p * q for p, q in zip(halves, halves[1:]) if lo <= p * q < hi]
        for n in sample:
            assert is_probable_prime(n) == reference_is_prime(n), n
        primes_seen += sum(map(reference_is_prime, sample))
    assert primes_seen > 100


def test_factorize_known():
    assert factorize(1) == ()
    assert factorize(2) == ((2, 1),)
    assert factorize(5440) == ((2, 6), (5, 1), (17, 1))
    assert factorize(10**6) == ((2, 6), (5, 6),)
    assert factorize(1000003 * 1000033) == ((1000003, 1), (1000033, 1))


def test_factorize_rejects_nonpositive():
    with pytest.raises(Exception):
        factorize(0)


@given(st.integers(min_value=1, max_value=10**12))
def test_factorize_roundtrip(n):
    fac = factorize(n)
    assert factor_value(fac) == n
    for p, e in fac:
        assert e >= 1
        assert is_probable_prime(p)
    primes = [p for p, _ in fac]
    assert primes == sorted(primes)
    assert len(set(primes)) == len(primes)


def test_factorize_big_smooth():
    # the order computations feed values like phi of ~50-digit chain moduli
    n = 2**40 * 3**12 * 5**6 * 65537 * 9361973132609
    assert factor_value(factorize(n)) == n


def test_random_semiprimes():
    rng = random.Random(7)
    small_primes = [p for p in range(10**3, 10**4) if brute_is_prime(p)]
    for _ in range(50):
        p, q = rng.choice(small_primes), rng.choice(small_primes)
        fac = factorize(p * q)
        assert factor_value(fac) == p * q
        assert all(is_probable_prime(f) for f, _ in fac)
