"""Integer factorization and primality for the sizes this package meets.

Chain moduli arrive already factored, so the only hard factorizations are of
p - 1 for chain primes (needed for multiplicative orders and discrete logs).
Those stay under ~60 bits, well inside Pollard rho range.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from itertools import compress

from .errors import FactorizationNeeded, InvalidInput

# Small primes used for quick trial division before rho kicks in.
_TRIAL_BOUND = 10_000
_SMALL_PRIMES: list[int] = []


def _init_small_primes() -> None:
    sieve = bytearray([1]) * (_TRIAL_BOUND + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(_TRIAL_BOUND) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    _SMALL_PRIMES.extend(compress(range(_TRIAL_BOUND + 1), sieve))


_init_small_primes()

# (psi_k, k): psi_k is the smallest strong pseudoprime to each of the first k
# prime bases, so the first k primes prove primality for every n < psi_k.
# psi_8 = psi_7 and psi_9 = psi_10 = psi_11, so k = 8, 10 and 11 never help.
_MR_BOUNDS = (
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
)
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first k primes as witnesses, for the fewest k
    proven enough for n; deterministic below psi_13 (about 2^81).

    psi_k in `_MR_BOUNDS` is the smallest strong pseudoprime to the first k
    prime bases: psi_1..psi_4 from Pomerance, Selfridge & Wagstaff (Math.
    Comp. 1980), psi_5..psi_8 from Jaeschke (Math. Comp. 1993), psi_9..psi_11
    from Jiang & Deng (Math. Comp. 2014), psi_12 and psi_13 from Sorenson &
    Webster (Math. Comp. 2017). Above psi_13 it is a strong probable-prime
    test with 32 witnesses drawn from a generator seeded by n.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for bound, k in _MR_BOUNDS:
        if n < bound:
            witnesses = _MR_WITNESSES[:k]
            break
    else:
        rng = random.Random(n)
        witnesses = tuple(rng.randrange(2, n - 1) for _ in range(32))
    for a in witnesses:
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int, max_iters: int) -> int | None:
    """Brent's variant. Returns a nontrivial factor of composite odd n, or None."""
    if n % 2 == 0:
        return 2
    rng = random.Random(n ^ 0x5EED)
    spent = 0
    while spent < max_iters:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1 and spent < max_iters:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                spent += min(m, r - k)
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                spent += 1
        if 1 < g < n:
            return g
    return None


# Effort bound: rho iterations per stubborn cofactor. 2^22 squarings handles
# factors up to roughly 2^44, far beyond what chain metadata needs.
_RHO_MAX_ITERS = 1 << 22


@lru_cache(maxsize=65536)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n as sorted ((p, e), ...).

    Raises FactorizationNeeded if a composite cofactor survives trial division
    and the rho effort bound.
    """
    if n < 1:
        raise InvalidInput(f"cannot factor {n}")
    if n == 1:
        return ()
    factors: dict[int, int] = {}
    rem = n
    for p in _SMALL_PRIMES:
        if p * p > rem:
            break
        while rem % p == 0:
            factors[p] = factors.get(p, 0) + 1
            rem //= p
    stack = [rem] if rem > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m, _RHO_MAX_ITERS)
        if d is None:
            raise FactorizationNeeded(m)
        stack.append(d)
        stack.append(m // d)
    return tuple(sorted(factors.items()))


def factor_value(factors: tuple[tuple[int, int], ...]) -> int:
    out = 1
    for p, e in factors:
        out *= p**e
    return out
