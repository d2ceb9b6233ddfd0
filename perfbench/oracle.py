"""Solution sets computed by brute force, independently of the solver.

3=sum2: 3^x is a sum of n distinct powers of 2 exactly when its binary
expansion has n ones; the exponents are the positions of those ones.
2=sum3: 2^x is a sum of n distinct powers of 3 exactly when its base-3
expansion has n ones and no twos.

Both scans stop at X_MAX. The solver claims completeness for every x, so a
solver answer with x > X_MAX is reported as a mismatch, not accepted.
"""

from __future__ import annotations

X_MAX = 1000


def sum2_solutions(n: int, x_max: int = X_MAX) -> set[tuple[int, tuple[int, ...]]]:
    """{(x, exponents)} with 3^x = sum of 2^a over n distinct a, for x <= x_max."""
    out = set()
    value = 1
    for x in range(x_max + 1):
        if value.bit_count() == n:
            out.add((x, tuple(i for i in range(value.bit_length()) if value >> i & 1)))
        value *= 3
    return out


def sum3_solutions(n: int, x_max: int = X_MAX) -> set[tuple[int, tuple[int, ...]]]:
    """{(x, exponents)} with 2^x = sum of 3^a over n distinct a, for x <= x_max."""
    out = set()
    digits = [1]  # base-3 digits of 2^x, least significant first
    for x in range(x_max + 1):
        if 2 not in digits and digits.count(1) == n:
            out.add((x, tuple(i for i, d in enumerate(digits) if d == 1)))
        carry = 0
        for i, d in enumerate(digits):
            carry, digits[i] = divmod(2 * d + carry, 3)
        if carry:
            digits.append(carry)
    return out


def expected_solutions(direction: str, n: int) -> set[tuple[int, tuple[int, ...]]]:
    if direction == "3=sum2":
        return sum2_solutions(n)
    if direction == "2=sum3":
        return sum3_solutions(n)
    raise ValueError(f"unknown direction {direction!r}")
