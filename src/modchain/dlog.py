"""Discrete logarithms: generic prime-field logs plus the 2-adic and 3-adic cases.

The generic path is Pohlig-Hellman over the factorization of p - 1 with
baby-step giant-step inside each prime-order subgroup. Baby tables are cached
per prime so repeated membership queries against the same modulus (the hot
pattern in dlog-based lift steps) pay the table cost once.

Powers of 3 modulo 2^u and powers of 2 modulo 3^v do not need any of that:
the unit groups are (almost) cyclic on those bases and a digit-by-digit lift
finds the exponent class directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidInput, MemoryBudgetExceeded
from .factorint import factorize, is_probable_prime
from .modcore import crt_ints

# Hard cap on one baby-step table; sqrt of the largest prime-order subgroup.
_MAX_BSGS_TABLE = 1 << 26


@dataclass(frozen=True)
class DlogResult:
    """An exponent class e = residue_class (mod class_modulus) with base^e = target."""

    residue_class: int
    class_modulus: int

    def __post_init__(self):
        if not 0 <= self.residue_class < self.class_modulus:
            raise InvalidInput("residue class out of range")


@lru_cache(maxsize=4096)
def find_generator(p: int) -> int:
    """Least generator g >= 2 of (Z/pZ)*; the trivial group mod 2 gives 1."""
    if p == 2:
        return 1
    primes = [q for q, _ in factorize(p - 1)]
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in primes):
            return g
        g += 1


class PrimeDlog:
    """Log machinery for one odd prime p, with subgroup tables reused across calls."""

    def __init__(self, p: int):
        if p < 3:
            raise InvalidInput("PrimeDlog needs an odd prime")
        self.p = p
        self.pm1 = p - 1
        self.pm1_factors = factorize(self.pm1)
        self.generator = find_generator(p)
        self._tables: dict[int, tuple[int, dict[int, int], int]] = {}
        self._base_logs: dict[int, int] = {}

    def _subgroup_table(self, q: int) -> tuple[int, dict[int, int], int]:
        cached = self._tables.get(q)
        if cached is not None:
            return cached
        m = math.isqrt(q - 1) + 1
        if m > _MAX_BSGS_TABLE:
            raise MemoryBudgetExceeded(f"baby-step table for subgroup of order {q} too large")
        gamma = pow(self.generator, self.pm1 // q, self.p)
        baby: dict[int, int] = {}
        cur = 1
        for j in range(m):
            baby.setdefault(cur, j)
            cur = cur * gamma % self.p
        giant = pow(gamma, -m, self.p)
        entry = (m, baby, giant)
        self._tables[q] = entry
        return entry

    def _subgroup_dlog(self, t: int, q: int) -> int:
        """Log of t with respect to the order-q subgroup generator."""
        m, baby, giant = self._subgroup_table(q)
        cur = t
        for i in range(m + 1):
            j = baby.get(cur)
            if j is not None:
                return (i * m + j) % q
            cur = cur * giant % self.p
        raise InvalidInput(f"{t} is not in the order-{q} subgroup mod {self.p}")

    def dlog(self, s: int) -> int:
        """z in [0, p-1) with generator^z = s mod p."""
        s %= self.p
        if s == 0:
            raise InvalidInput("0 has no discrete log")
        parts = []
        for q, e in self.pm1_factors:
            x = 0
            for j in range(e):
                expo = self.pm1 // q ** (j + 1)
                t = pow(s * pow(self.generator, -x, self.p) % self.p, expo, self.p)
                x += self._subgroup_dlog(t, q) * q**j
            parts.append((x % q**e, q**e))
        z, _ = crt_ints(parts)
        return z

    def _log_of_base(self, b: int) -> int:
        y = self._base_logs.get(b)
        if y is None:
            y = self.dlog(b)
            self._base_logs[b] = y
        return y

    def exponent_class(self, b: int, s: int) -> DlogResult | None:
        """All e with b^e = s mod p, as a class mod ord_p(b); None if s is not a power of b."""
        y = self._log_of_base(b % self.p)
        z = self.dlog(s)
        d = math.gcd(y, self.pm1)
        order = self.pm1 // d
        if z % d != 0:
            return None
        e0 = (z // d) * pow(y // d, -1, order) % order
        return DlogResult(residue_class=e0, class_modulus=order)


@lru_cache(maxsize=256)
def prime_context(p: int) -> PrimeDlog:
    """Shared per-prime dlog context (baby-step tables are cached inside).

    p is checked to be an odd prime on its first call only.
    """
    if p < 3 or not is_probable_prime(p):
        raise InvalidInput(f"{p} is not an odd prime")
    return PrimeDlog(p)


def power_membership(b: int, s: int, p: int) -> DlogResult | None:
    """Solve b^e = s mod p for the exponent class e, or None if unsolvable."""
    if p == 2:
        if s % 2 == 0 or b % 2 == 0:
            raise InvalidInput("arguments must be units mod 2")
        return DlogResult(0, 1)
    ctx = prime_context(p)
    if b % p == 0 or s % p == 0:
        raise InvalidInput("arguments must be units mod p")
    return ctx.exponent_class(b % p, s % p)


def log3_mod_2u(z: int, u: int) -> DlogResult | None:
    """Exponent class of z as a power of 3 modulo 2^u, for u >= 3.

    Powers of 3 mod 8 are exactly {1, 3}, so z = 5, 7 (mod 8) returns None.
    Otherwise the exponent is found one bit of precision at a time: the order
    of 3 mod 2^w is 2^(w-2), so each extra bit of modulus either keeps the
    exponent or bumps it by the previous order.
    """
    if u < 3:
        raise InvalidInput("u must be >= 3")
    if z % 2 == 0:
        raise InvalidInput("z must be odd")
    zr = z % 8
    if zr in (5, 7):
        return None
    e = 0 if zr == 1 else 1
    for w in range(4, u + 1):
        mod = 1 << w
        if pow(3, e, mod) != z % mod:
            e += 1 << (w - 3)
    order = 1 << (u - 2)
    return DlogResult(residue_class=e % order, class_modulus=order)


def log2_mod_3v(z: int, v: int) -> DlogResult:
    """Exponent class of z as a power of 2 modulo 3^v, for v >= 1.

    2 generates the full unit group mod 3^v (order 2 * 3^(v-1)), so every z
    coprime to 3 is a power of 2 and the class always exists.
    """
    if v < 1:
        raise InvalidInput("v must be >= 1")
    if z % 3 == 0:
        raise InvalidInput("z must be coprime to 3")
    e = 0 if z % 3 == 1 else 1
    for w in range(2, v + 1):
        mod = 3**w
        step = 2 * 3 ** (w - 2)
        target = z % mod
        for t in range(3):
            if pow(2, e + t * step, mod) == target:
                e += t * step
                break
        else:
            raise AssertionError("unreachable: 2 generates the units mod 3^w")
    order = 2 * 3 ** (v - 1)
    return DlogResult(residue_class=e % order, class_modulus=order)
