"""Discrete logarithms inside a base's subgroup: modulo an odd prime, 2^u and 3^v.

A log to base b modulo m is found inside <b>, the subgroup that b generates,
by Pohlig-Hellman over ord_m(b) (Pohlig & Hellman, IEEE Trans. IT 24(1),
1978), given the factorisation of a multiple of that order: p - 1 for an odd
prime p, 2^(u-1) for 2^u, 2 * 3^(v-1) for 3^v. Each prime-power part q^e of
the order is solved in blocks of c base-q digits, q^c <= _BLOCK_TABLE, by one
exponentiation and one lookup in a baby table of the block's q^c powers. A
prime q above _BLOCK_TABLE gets one digit per block and a baby-step
giant-step search (Shanks, 1971) over a table of max(_BLOCK_TABLE,
ceil(sqrt q)) entries. A lookup miss, or a result that b does not raise to
the target, means the target is not a power of b. The tables of an odd prime
are built once per base and cached in the prime's context, so repeated
queries against the same modulus (the hot pattern in dlog-based lift steps)
pay only the per-call exponentiations. The 2-adic and 3-adic logs build their
few small tables per call.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .errors import InvalidInput, MemoryBudgetExceeded
from .factorint import factorize, is_probable_prime
from .modcore import _order_from_multiple

# Largest baby table of a digit block: a block covers c base-q digits with
# q^c <= _BLOCK_TABLE, and a prime q above it gets one digit per block and
# giant steps. A larger bound saves exponentiations per call but costs memory
# and set-up for every (prime, base).
_BLOCK_TABLE = 256

# Hard cap on one baby-step table; sqrt of the largest prime-order subgroup.
_MAX_BSGS_TABLE = 1 << 26


class DlogResult(namedtuple("DlogResult", "residue_class class_modulus")):
    """An exponent class e = residue_class (mod class_modulus) with base^e = target."""

    __slots__ = ()

    def __new__(cls, residue_class: int, class_modulus: int):
        if not 0 <= residue_class < class_modulus:
            raise InvalidInput("residue class out of range")
        return tuple.__new__(cls, (residue_class, class_modulus))


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


class _DigitTable:
    """Logs to base g in the subgroup <g> mod m of order n, a prime power.

    The baby table holds g^j for j < k: all of <g> when n <= _BLOCK_TABLE,
    else k = max(_BLOCK_TABLE, ceil(sqrt n)) and giant steps of g^-k cover
    the rest. Giant steps need a prime n > _BLOCK_TABLE, so m is then an odd
    prime and (Z/mZ)* is cyclic.
    """

    __slots__ = ("m", "order", "baby", "giant", "steps")

    def __init__(self, g: int, order: int, m: int):
        k = order if order <= _BLOCK_TABLE else max(_BLOCK_TABLE, math.isqrt(order - 1) + 1)
        if k > _MAX_BSGS_TABLE:
            raise MemoryBudgetExceeded(f"baby-step table for subgroup of order {order} too large")
        baby: dict[int, int] = {}
        cur = 1
        for j in range(k):
            baby[cur] = j
            cur = cur * g % m
        self.m, self.order, self.baby = m, order, baby
        self.giant = pow(cur, -1, m)
        self.steps = -(-order // k)

    def log(self, z: int) -> int | None:
        """j in [0, order) with g^j = z, or None if z is not in <g>."""
        j = self.baby.get(z)
        if j is not None or self.steps == 1:
            return j
        m = self.m
        if pow(z, self.order, m) != 1:
            return None  # <g> is the only subgroup of its order
        baby, giant = self.baby, self.giant
        k = len(baby)
        for i in range(1, self.steps):
            z = z * giant % m
            j = baby.get(z)
            if j is not None:
                return i * k + j
        raise AssertionError("unreachable: z is in <g>")


# c base-q digits of a part, from digit offset o on; e is the part's exponent.
# power: q^(e - o - c), maps the remainder into the block's subgroup
# scale: q^o
# undo: h^-(q^o), strips the block's digits off the remainder; None if last
# table: the block's _DigitTable
_Block = namedtuple("_Block", "power scale undo table")
# The q^e part of ord_m(b): s^cofactor lies in <h>, h = b^cofactor, when s is in <b>.
# cofactor: ord_m(b) / q^e
# crt: 1 mod q^e and 0 mod ord_m(b) / q^e
# blocks: the part's _Blocks, in digit order
_Part = namedtuple("_Part", "cofactor crt blocks")


class _SubgroupLog:
    """Logs to base b mod m inside <b>, by Pohlig-Hellman over ord_m(b).

    factors is the factorisation of a multiple of ord_m(b), such as phi(m).
    """

    def __init__(self, m: int, b: int, factors: tuple[tuple[int, int], ...]):
        order, order_factors = _order_from_multiple(b, m, factors)
        self.m, self.b, self.order = m, b, order
        parts = []
        for q, e in order_factors:
            n = q**e
            cofactor = order // n
            h = pow(b, cofactor, m)
            h_inv = pow(h, -1, m)
            width = 1
            while width < e and q ** (width + 1) <= _BLOCK_TABLE:
                width += 1
            tables: dict[int, _DigitTable] = {}
            blocks = []
            for offset in range(0, e, width):
                w = min(width, e - offset)
                if w not in tables:
                    tables[w] = _DigitTable(pow(h, q ** (e - w), m), q**w, m)
                scale = q**offset
                undo = pow(h_inv, scale, m) if offset + w < e else None
                blocks.append(_Block(q ** (e - offset - w), scale, undo, tables[w]))
            parts.append(_Part(cofactor, cofactor * pow(cofactor, -1, n) % order, tuple(blocks)))
        self.parts = tuple(parts)

    def log(self, s: int) -> DlogResult | None:
        """The class of e with b^e = s mod m, for a reduced unit s; None if s is not in <b>.

        Within a part, rest = s^cofactor * h^-y once the digits y below a
        block are known, so rest^power is the block's digits in its table's
        subgroup.
        """
        m = self.m
        x = 0
        for cofactor, crt, blocks in self.parts:
            rest, digits = pow(s, cofactor, m), 0
            for power, scale, undo, table in blocks:
                d = table.log(pow(rest, power, m))
                if d is None:
                    return None
                digits += d * scale
                if undo is not None:
                    rest = rest * pow(undo, d, m) % m
            x += digits * crt
        x %= self.order
        if pow(self.b, x, m) != s:
            return None
        return DlogResult(residue_class=x, class_modulus=self.order)


class PrimeDlog:
    """Log machinery for one odd prime p, with per-base subgroup tables reused across calls."""

    def __init__(self, p: int):
        if p < 3:
            raise InvalidInput("PrimeDlog needs an odd prime")
        self.p = p
        self.pm1_factors = factorize(p - 1)
        self.generator = find_generator(p)
        self._logs: dict[int, _SubgroupLog] = {}

    def dlog(self, s: int) -> int:
        """z in [0, p-1) with generator^z = s mod p."""
        return self.exponent_class(self.generator, s).residue_class

    def exponent_class(self, b: int, s: int) -> DlogResult | None:
        """All e with b^e = s mod p, as a class mod ord_p(b); None if s is not a power of b."""
        b %= self.p
        s %= self.p
        if b == 0 or s == 0:
            raise InvalidInput("discrete logs need units mod p")
        log = self._logs.get(b)
        if log is None:
            log = self._logs[b] = _SubgroupLog(self.p, b, self.pm1_factors)
        return log.log(s)


@lru_cache(maxsize=256)
def prime_context(p: int) -> PrimeDlog:
    """Shared per-prime dlog context (the per-base baby tables are cached inside).

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
    """
    if u < 3:
        raise InvalidInput("u must be >= 3")
    if z % 2 == 0:
        raise InvalidInput("z must be odd")
    return _SubgroupLog(1 << u, 3, ((2, u - 1),)).log(z % (1 << u))


def log2_mod_3v(z: int, v: int) -> DlogResult:
    """Exponent class of z as a power of 2 modulo 3^v, for v >= 1.

    2 generates the full unit group mod 3^v (order 2 * 3^(v-1)), so every z
    coprime to 3 is a power of 2 and the class always exists.
    """
    if v < 1:
        raise InvalidInput("v must be >= 1")
    if z % 3 == 0:
        raise InvalidInput("z must be coprime to 3")
    return _SubgroupLog(3**v, 2, ((2, 1), (3, v - 1))).log(z % 3**v)
