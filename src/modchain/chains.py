"""Modulus chains: cumulative products of factored moduli with the loop lengths of 2 and 3.

A chain file lists one factor per line in factored form, e.g.

    # comment
    direction: 3=sum2
    2^4 * 7 * 73
    3^3 * 19

Lines are whitespace-insensitive products of prime powers. The optional
direction header records which equation the chain was designed for:
"3=sum2" (powers of 3 as sums of powers of 2) or "2=sum3" (the mirror).
"""

from __future__ import annotations

import math
import os
from collections import namedtuple

from .errors import InvalidInput
from .modcore import CycleShape, FactoredModulus, _order_mod_prime_power

DIRECTIONS = ("3=sum2", "2=sum3")


def direction_bases(direction: str) -> tuple[int, int]:
    """(power_base, summand_base) for a direction string."""
    if direction == "3=sum2":
        return 3, 2
    if direction == "2=sum3":
        return 2, 3
    raise InvalidInput(f"unknown direction {direction!r}")


def fresh_prime(prev_modulus: FactoredModulus, factor: FactoredModulus) -> int | None:
    """p if the step factor is a prime p >= 5 not dividing the previous modulus, else None.

    Exactly these steps admit the discrete-log lift.
    """
    p = factor.value
    if factor.is_prime() and p >= 5 and prev_modulus.value % p != 0:
        return p
    return None


class ChainStep(namedtuple("ChainStep", "index factor modulus loop2 loop3")):
    """Step index (1-based, matching the usual table numbering), its factor,
    the cumulative modulus M, and the loop lengths of the powers of 2 and of
    3 in Z/MZ."""

    __slots__ = ()

    def shape(self, b: int) -> CycleShape:
        if b == 2:
            return CycleShape(2, self.modulus.two_exp, self.loop2)
        return CycleShape(3, self.modulus.three_exp, self.loop3)


class Chain:
    """A sequence of factors m_1..m_k with cumulative moduli M_i = m_1 * ... * m_i."""

    def __init__(self, steps: list[ChainStep], direction: str | None = None):
        self.steps = steps
        self.direction = direction

    @classmethod
    def from_factors(cls, factors, direction: str | None = None) -> "Chain":
        if direction is not None and direction not in DIRECTIONS:
            raise InvalidInput(f"unknown direction {direction!r}")
        steps: list[ChainStep] = []
        cum = FactoredModulus.from_prime_powers(())
        exps: dict[int, int] = {}  # exponent of each prime in cum
        loop2 = loop3 = 1
        for i, f in enumerate(factors, start=1):
            cum = cum * f
            grown = []  # the prime powers of cum whose primes divide f
            for p, e in f.all_prime_powers():
                exps[p] = exps.get(p, 0) + e
                grown.append((p, exps[p]))
            # A loop length is the lcm of the base's orders modulo the prime
            # powers of cum other than its own. Only those in `grown` change,
            # each to a multiple of its order at the previous step.
            loop2 = math.lcm(loop2, *(_order_mod_prime_power(2, p, e) for p, e in grown if p != 2))
            loop3 = math.lcm(loop3, *(_order_mod_prime_power(3, p, e) for p, e in grown if p != 3))
            steps.append(ChainStep(i, f, cum, loop2, loop3))
        if not steps:
            raise InvalidInput("a chain needs at least one factor")
        return cls(steps, direction)

    def __len__(self) -> int:
        return len(self.steps)

    def __getitem__(self, i: int) -> ChainStep:
        return self.steps[i]

    @property
    def final(self) -> ChainStep:
        return self.steps[-1]

    def prefix(self, k: int) -> "Chain":
        """The subchain m_1..m_k, sharing step objects."""
        if not 1 <= k <= len(self.steps):
            raise InvalidInput(f"prefix length {k} out of range")
        return Chain(self.steps[:k], self.direction)


# ---------------------------------------------------------------------------
# chain file grammar


class ChainFile(namedtuple("ChainFile", "entries")):
    """Parsed chain file: comment/blank lines are kept verbatim, in order.

    entries holds ("comment", text), ("direction", d) and ("factor",
    FactoredModulus) pairs."""

    __slots__ = ()

    @property
    def direction(self) -> str | None:
        for kind, val in self.entries:
            if kind == "direction":
                return val
        return None

    @property
    def factors(self) -> tuple[FactoredModulus, ...]:
        return tuple(val for kind, val in self.entries if kind == "factor")

    def to_chain(self) -> Chain:
        return Chain.from_factors(self.factors, self.direction)

    def serialize(self) -> str:
        out = []
        for kind, val in self.entries:
            if kind == "comment":
                out.append(val)
            elif kind == "direction":
                out.append(f"direction: {val}")
            else:
                out.append(str(val))
        return "\n".join(out) + "\n"


def _parse_factor_line(line: str, where: str) -> FactoredModulus:
    pairs = []
    for tok in line.split("*"):
        tok = tok.strip()
        if not tok:
            raise InvalidInput(f"{where}: empty factor in {line!r}")
        base, _, exp = tok.partition("^")
        try:
            p = int(base.strip())
            e = int(exp.strip()) if exp else 1
        except ValueError:
            raise InvalidInput(f"{where}: cannot parse prime power {tok!r}") from None
        pairs.append((p, e))
    try:
        return FactoredModulus.from_prime_powers(pairs)
    except InvalidInput as err:
        raise InvalidInput(f"{where}: {err}") from None


def parse_chain_file(text: str, name: str = "<chain>") -> ChainFile:
    entries: list[tuple] = []
    direction_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        where = f"{name}:{lineno}"
        line = raw.strip()
        if not line or line.startswith("#"):
            entries.append(("comment", raw))
            continue
        if line.startswith("direction:"):
            if direction_seen:
                raise InvalidInput(f"{where}: duplicate direction line")
            d = line.split(":", 1)[1].strip()
            if d not in DIRECTIONS:
                raise InvalidInput(f"{where}: unknown direction {d!r}")
            entries.append(("direction", d))
            direction_seen = True
            continue
        entries.append(("factor", _parse_factor_line(line, where)))
    if not any(kind == "factor" for kind, _ in entries):
        raise InvalidInput(f"{name}: no factor lines found")
    return ChainFile(tuple(entries))


def load_chain_file(path: str) -> ChainFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_chain_file(fh.read(), name=path)


def bundled_chain_text(name: str) -> str:
    """The text of a bundled chain, read from tables/ beside this module."""
    with open(os.path.join(os.path.dirname(__file__), "tables", name), encoding="utf-8") as fh:
        return fh.read()


def bundled_chain(name: str) -> Chain:
    """Load one of the chains shipped with the package ("t2.chain", "t3.chain")."""
    return parse_chain_file(bundled_chain_text(name), name=name).to_chain()
