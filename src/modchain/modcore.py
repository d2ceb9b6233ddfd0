"""Arithmetic in Z/MZ for moduli kept in factored form 2^u * 3^v * M'.

The maps x -> 2*x and x -> 3*x on Z/MZ are "rho shaped": iterating from 1
walks a tail of length u = v_2(M) (resp. v = v_3(M)) and then a loop whose
length is the multiplicative order of the base modulo the coprime part.
Everything downstream (solution ranges, lift sets, determinacy) reduces to
those two numbers, so they are computed here and cached aggressively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidInput, NotCoprime
from .factorint import factor_value, factorize, is_probable_prime


@dataclass(frozen=True)
class FactoredModulus:
    """A positive integer M = 2^two_exp * 3^three_exp * prod(p^e) with p >= 5 prime.

    value caches the expanded product. The unit modulus (value 1) is allowed
    so degenerate rings behave uniformly.
    """

    two_exp: int
    three_exp: int
    coprime_factors: tuple[tuple[int, int], ...]
    value: int

    @classmethod
    def from_parts(
        cls,
        two_exp: int = 0,
        three_exp: int = 0,
        coprime_factors: tuple[tuple[int, int], ...] = (),
        check_primality: bool = True,
    ) -> "FactoredModulus":
        if two_exp < 0 or three_exp < 0:
            raise InvalidInput("negative exponent in factored modulus")
        seen = set()
        for p, e in coprime_factors:
            if p in (2, 3) or p < 5:
                raise InvalidInput(f"{p} is not allowed among coprime factors")
            if e < 1:
                raise InvalidInput(f"exponent {e} for prime {p} must be >= 1")
            if p in seen:
                raise InvalidInput(f"repeated prime {p}")
            if check_primality and not is_probable_prime(p):
                raise InvalidInput(f"{p} is not prime")
            seen.add(p)
        ordered = tuple(sorted(coprime_factors))
        value = 2**two_exp * 3**three_exp * factor_value(ordered)
        return cls(two_exp, three_exp, ordered, value)

    @classmethod
    def from_int(cls, n: int) -> "FactoredModulus":
        """Factor n (small or smooth enough for the factorizer) into a modulus."""
        if n < 1:
            raise InvalidInput(f"modulus must be positive, got {n}")
        return cls.from_prime_powers(factorize(n), check_primality=False)

    @classmethod
    def from_prime_powers(cls, pairs, check_primality: bool = True) -> "FactoredModulus":
        """Build from (prime, exp) pairs that may include 2 and 3; every prime,
        2 and 3 too, appears at most once and with an exponent >= 1."""
        exps: dict[int, int] = {}
        for p, e in pairs:
            if e < 1:
                raise InvalidInput(f"exponent {e} for prime {p} must be >= 1")
            if p in exps:
                raise InvalidInput(f"repeated prime {p}")
            exps[p] = e
        two, three = exps.pop(2, 0), exps.pop(3, 0)
        return cls.from_parts(two, three, tuple(exps.items()), check_primality)

    def all_prime_powers(self) -> tuple[tuple[int, int], ...]:
        out = []
        if self.two_exp:
            out.append((2, self.two_exp))
        if self.three_exp:
            out.append((3, self.three_exp))
        out.extend(self.coprime_factors)
        return tuple(out)

    @property
    def coprime_value(self) -> int:
        """M' = the part of M coprime to 6."""
        return factor_value(self.coprime_factors)

    def is_prime(self) -> bool:
        pows = self.all_prime_powers()
        return len(pows) == 1 and pows[0][1] == 1

    def __mul__(self, other: "FactoredModulus") -> "FactoredModulus":
        merged: dict[int, int] = {}
        for p, e in self.coprime_factors:
            merged[p] = e
        for p, e in other.coprime_factors:
            merged[p] = merged.get(p, 0) + e
        return FactoredModulus(
            self.two_exp + other.two_exp,
            self.three_exp + other.three_exp,
            tuple(sorted(merged.items())),
            self.value * other.value,
        )

    def __str__(self) -> str:
        parts = [f"{p}^{e}" if e > 1 else f"{p}" for p, e in self.all_prime_powers()]
        return " * ".join(parts) if parts else "1"


@dataclass(frozen=True)
class CycleShape:
    """Tail and loop lengths of the orbit 1, b, b^2, ... in Z/MZ."""

    base: int
    tail_len: int
    loop_len: int

    @property
    def num_powers(self) -> int:
        """Count of distinct powers of base in Z/MZ."""
        return self.tail_len + self.loop_len

    def reduce_exponent(self, e: int) -> int:
        """Canonical representative of exponent e: itself on the tail, else folded into the first loop pass."""
        if e < self.tail_len:
            return e
        return self.tail_len + (e - self.tail_len) % self.loop_len


def _order_from_multiple(
    b: int, m: int, factors: tuple[tuple[int, int], ...]
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Order of the unit b mod m and its factorisation, given the factorisation of a multiple of it.

    Each prime is stripped from the multiple while b still reaches 1.
    """
    order, order_factors = factor_value(factors), []
    for q, e in factors:
        while e and pow(b, order // q, m) == 1:
            order //= q
            e -= 1
        if e:
            order_factors.append((q, e))
    return order, tuple(order_factors)


@lru_cache(maxsize=None)
def _order_mod_prime_power(b: int, p: int, e: int) -> int:
    """Multiplicative order of b modulo p^e; b must be coprime to p."""
    pe = p**e
    b %= pe
    if pe == 1:
        return 1
    if math.gcd(b, pe) != 1:
        raise NotCoprime(f"gcd({b}, {p}^{e}) != 1")
    return _order_from_multiple(b, pe, factorize(p ** (e - 1) * (p - 1)))[0]


def multiplicative_order(b: int, m: FactoredModulus) -> int:
    """Least o >= 1 with b^o = 1 in Z/MZ; the unit modulus gives 1.

    Raises NotCoprime unless gcd(b, M) = 1, and FactorizationNeeded if some
    phi(p^e) cannot be factored within the effort bound.
    """
    if m.value == 1:
        return 1
    if math.gcd(b, m.value) != 1:
        raise NotCoprime(f"gcd({b}, {m.value}) != 1")
    order = 1
    for p, e in m.all_prime_powers():
        order = math.lcm(order, _order_mod_prime_power(b % p**e, p, e))
    return order


def _drop_base(m: FactoredModulus, b: int) -> FactoredModulus:
    """Remove the b-part of M (b in {2, 3}), keeping the factored form."""
    if b == 2:
        return FactoredModulus(0, m.three_exp, m.coprime_factors, m.value >> m.two_exp)
    return FactoredModulus(m.two_exp, 0, m.coprime_factors, m.value // 3**m.three_exp)


def modified_orders(b: int, m: FactoredModulus) -> tuple[int, int]:
    """(O_b(M), O_b'(M)) for b in {2, 3}.

    O_b(M) is the order of b modulo M with the b-part of M removed; it is the
    loop length of the powers of b in Z/MZ. O_b'(M) drops the 2-part and the
    3-part both, i.e. the order of b modulo M'.
    """
    if b not in (2, 3):
        raise InvalidInput("modified orders are defined for bases 2 and 3")
    loop_mod = _drop_base(m, b)
    coprime = FactoredModulus(0, 0, m.coprime_factors, m.coprime_value)
    return multiplicative_order(b, loop_mod), multiplicative_order(b, coprime)


def cycle_shape(b: int, m: FactoredModulus) -> CycleShape:
    """Tail and loop lengths of powers of b in Z/MZ for b in {2, 3}."""
    if m.value < 2:
        raise InvalidInput("cycle shape needs a modulus >= 2")
    tail = m.two_exp if b == 2 else m.three_exp
    loop, _ = modified_orders(b, m)
    return CycleShape(b, tail, loop)


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int] | None:
    """Combine x = r1 (mod m1), x = r2 (mod m2); moduli need not be coprime.

    Returns (r, lcm(m1, m2)) or None when the congruences conflict.
    """
    g = math.gcd(m1, m2)
    if (r2 - r1) % g != 0:
        return None
    l = m1 // g * m2
    step = (r2 - r1) // g * pow(m1 // g, -1, m2 // g) if m2 != g else 0
    r = (r1 + m1 * step) % l
    return r, l
