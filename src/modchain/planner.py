"""Chain auditing and extension planning.

A modulus M can admit congruence solutions 3^y' = c + 2^x' whose exponents
are indeterminate on both sides and which come from no integer identity.
Given a true relation 3^y = c + 2^x with one determinate side, such an
extraneous partner exists exactly when two order conditions fail, and it can
then be written down explicitly. validate_chain runs that check against the
known integer solutions; search_factors hunts for primes whose orders close
the gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .chains import Chain, fresh_prime
from .dlog import log2_mod_3v, log3_mod_2u
from .errors import InvalidInput, PreconditionViolated
from .factorint import factorize, is_probable_prime
from .modcore import FactoredModulus, modified_orders, multiplicative_order
from .solver import ExactSolution


def _v2(n: int) -> int:
    return (n & -n).bit_length() - 1 if n else 0


def _v3(n: int) -> int:
    k = 0
    while n and n % 3 == 0:
        n //= 3
        k += 1
    return k


@dataclass(frozen=True)
class ExtraneousWitness:
    """A pair (x', y'), both indeterminate, with 3^y' = c + 2^x' mod modulus."""

    x_prime: int
    y_prime: int
    c: int
    modulus: FactoredModulus

    def holds(self) -> bool:
        M = self.modulus.value
        return (pow(3, self.y_prime, M) - self.c - pow(2, self.x_prime, M)) % M == 0

    def indeterminate(self) -> bool:
        return self.x_prime >= self.modulus.two_exp and self.y_prime >= self.modulus.three_exp


def construct_extraneous(m: FactoredModulus, c: int, x: int, y: int) -> ExtraneousWitness:
    """Build an extraneous congruence partner of the relation 3^y = c + 2^x mod m.

    Requires the relation to hold with x > 2 and y >= 1, and at least one of
    x, y determinate (x below the 2-adic tail or y below the 3-adic tail).
    The witness keeps the residues of x mod ord(2) and y mod ord(3) on the
    part of m coprime to 6, shifts x past the 2-tail and y past the 3-tail,
    and repairs the two prime-power congruences by discrete logs. Raises
    PreconditionViolated when the order obstruction blocks the construction
    (which is exactly the situation a safe chain engineers).
    """
    M, u, v = m.value, m.two_exp, m.three_exp
    if (pow(3, y, M) - c - pow(2, x, M)) % M != 0:
        raise PreconditionViolated("relation 3^y = c + 2^x does not hold at this modulus")
    if x <= 2 or y < 1:
        raise PreconditionViolated("need x > 2 and y >= 1")
    if x >= u and y >= v:
        raise PreconditionViolated("need a determinate side: x below the 2-tail or y below the 3-tail")
    o2 = modified_orders(2, m)[1]
    o3 = modified_orders(3, m)[1]

    # y' = y + s*o3 must satisfy 3^{y'} = c (mod 2^u) and reach past the tail
    if u >= 3:
        mod2 = 1 << u
        d = pow(c, -1, mod2)
        z1 = (1 + (d << x)) % mod2
        res = log3_mod_2u(z1, u)
        if res is None:
            raise InvalidInput(f"{z1} is not a power of 3 mod 2^{u}")
        e0, t = res.residue_class, res.class_modulus
        g = math.gcd(o3, t)
        if e0 % g != 0:
            raise PreconditionViolated(
                f"2-adic obstruction: ord(3) mod 2^{u} condition unsolvable (class {e0} mod {t})"
            )
        sper = t // g
        s = (-(e0 // g)) * pow(o3 // g, -1, sper) % sper if sper > 1 else 0
    elif u >= 1:
        # x > 2 >= u, so 2^x = 0 and the relation gives 3^y = c mod 2^u: s = 0 fits
        t = 1 if u == 1 else 2
        s, sper = 0, t // math.gcd(o3, t)
    else:
        s, sper = 0, 1
    while y + s * o3 <= v:
        s += sper
    y_prime = y + s * o3

    # x' = x + r*o2 must satisfy 2^{x'} = -c (mod 3^v) and reach past the tail
    if v >= 1:
        mod3 = 3**v
        z2 = (1 - pow(3, y, mod3) * pow(2, -x, mod3)) % mod3
        if z2 % 3 == 0:
            raise InvalidInput(f"-c * 2^-x is not a unit mod 3^{v}")
        res2 = log2_mod_3v(z2, v)
        f0, t2 = res2.residue_class, res2.class_modulus
        g2 = math.gcd(o2, t2)
        if f0 % g2 != 0:
            raise PreconditionViolated(
                f"3-adic obstruction: ord(2) mod 3^{v} condition unsolvable (class {f0} mod {t2})"
            )
        rper = t2 // g2
        r = (f0 // g2) * pow(o2 // g2, -1, rper) % rper if rper > 1 else 0
    else:
        r, rper = 0, 1
    while x + r * o2 <= u:
        r += rper
    x_prime = x + r * o2

    w = ExtraneousWitness(x_prime, y_prime, c, m)
    if not w.holds():
        raise InvalidInput("internal: constructed witness fails the congruence")
    return w


@dataclass(frozen=True)
class HazardEntry:
    solution: ExactSolution
    x: int
    y: int
    c: int
    witness: ExtraneousWitness


@dataclass
class ChainValidation:
    """Outcome of checking known solutions against a chain's final modulus.

    The order conditions are sufficient for safety, not necessary for danger
    in general position: an entry in `hazards` is a real extraneous
    congruence pair (its witness satisfies the congruence), while an empty
    hazard list certifies only that this particular family of extraneous
    partners is ruled out.
    """

    direction: str
    modulus: FactoredModulus
    hazards: list[HazardEntry]
    protected: list[tuple[ExactSolution, str]]
    unchecked: list[tuple[ExactSolution, str]]

    DISCLAIMER = (
        "order conditions are sufficient, not exhaustive: no hazard found means this "
        "family of extraneous pairs is excluded, not that none can exist"
    )

    @property
    def ok(self) -> bool:
        return not self.hazards


def _isolate_top(direction: str, sol: ExactSolution) -> tuple[int, int, int]:
    """Rewrite a known solution as 3^y = c + 2^x by isolating its top summand."""
    if direction == "3=sum2":
        x = sol.exponents[-1]
        y = sol.x
        c = sum(2**a for a in sol.exponents[:-1])
    else:
        y = sol.exponents[-1]
        x = sol.x
        c = -sum(3**a for a in sol.exponents[:-1])
    return x, y, c


def validate_chain(chain: Chain, solutions: Iterable[ExactSolution]) -> ChainValidation:
    """Check each known solution's top-summand relation for extraneous partners
    at the chain's final modulus. Report-only: hazards carry explicit witnesses."""
    direction = chain.direction
    if direction is None:
        raise InvalidInput("chain has no direction tag")
    m = chain.final.modulus
    u, v = m.two_exp, m.three_exp
    o2 = modified_orders(2, m)[1]
    o3 = modified_orders(3, m)[1]

    hazards: list[HazardEntry] = []
    protected: list[tuple[ExactSolution, str]] = []
    unchecked: list[tuple[ExactSolution, str]] = []
    for sol in solutions:
        x, y, c = _isolate_top(direction, sol)
        if x <= 2:
            unchecked.append((sol, f"x={x} <= 2 is outside the obstruction argument"))
            continue
        if y < 1:
            unchecked.append((sol, f"y={y} < 1 is outside the obstruction argument"))
            continue
        if x >= u and y >= v:
            unchecked.append((sol, "neither side is determinate at this modulus"))
            continue
        prot2 = x < u and u >= 3 and _v2(o3) >= x - 1
        prot3 = y < v and _v3(o2) >= y
        if prot2:
            protected.append((sol, f"2^{x - 1} divides ord(3) on the coprime part"))
        elif prot3:
            protected.append((sol, f"3^{y} divides ord(2) on the coprime part"))
        else:
            hazards.append(HazardEntry(sol, x, y, c, construct_extraneous(m, c, x, y)))
    return ChainValidation(direction, m, hazards, protected, unchecked)


@dataclass(frozen=True)
class FactorCandidate:
    p: int
    order_two: int
    order_three: int

    @property
    def two_part_of_order_three(self) -> int:
        return _v2(self.order_three)

    @property
    def three_part_of_order_two(self) -> int:
        return _v3(self.order_two)

    @property
    def order_two_factored(self) -> tuple[tuple[int, int], ...]:
        return factorize(self.order_two)

    @property
    def order_three_factored(self) -> tuple[tuple[int, int], ...]:
        return factorize(self.order_three)


def search_factors(
    two_val: int = 0,
    three_val: int = 0,
    p_max: int | None = None,
    candidates: Iterable[int] | None = None,
) -> list[FactorCandidate]:
    """Primes p = 1 (mod 2^two_val * 3^three_val), with the orders of 2 and 3 mod p.

    Such primes are the raw material for pushing up the 2-part of ord(3) or
    the 3-part of ord(2) of a chain modulus; whether a given p helps depends
    on its actual orders, hence the report.
    """
    if two_val < 0 or three_val < 0:
        raise InvalidInput("two_val and three_val must be >= 0")
    stride = (1 << two_val) * 3**three_val
    if candidates is None:
        if p_max is None:
            raise InvalidInput("need p_max or an explicit candidate list")
        candidates = range(1 + stride, p_max + 1, stride)
    out: list[FactorCandidate] = []
    for p in candidates:
        if p < 5 or (p - 1) % stride != 0 or not is_probable_prime(p):
            continue
        mp = FactoredModulus.from_prime_powers(((p, 1),), check_primality=False)
        out.append(
            FactorCandidate(p, multiplicative_order(2, mp), multiplicative_order(3, mp))
        )
    return out


@dataclass(frozen=True)
class StepDiagnostics:
    index: int
    factor: FactoredModulus
    order2_ratio: int
    order3_ratio: int
    tail2_growth: int
    tail3_growth: int
    unbalanced_eligible: bool


def step_diagnostics(chain: Chain, i: int) -> StepDiagnostics:
    """How much step i (1-based) grows each base's loop, and whether the
    dlog lift could apply there. Ratios are exact integers."""
    if not 1 <= i <= len(chain):
        raise InvalidInput(f"step {i} out of range")
    step = chain[i - 1]
    if i == 1:
        prev2 = prev3 = 1
        prev_mod = FactoredModulus.from_prime_powers(())
    else:
        prev = chain[i - 2]
        prev2, prev3, prev_mod = prev.loop2, prev.loop3, prev.modulus
    f = step.factor
    return StepDiagnostics(
        index=i,
        factor=f,
        order2_ratio=step.loop2 // prev2,
        order3_ratio=step.loop3 // prev3,
        tail2_growth=f.two_exp,
        tail3_growth=f.three_exp,
        unbalanced_eligible=fresh_prime(prev_mod, f) is not None,
    )
