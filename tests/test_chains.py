import random
import re

import pytest

from modchain import (
    Chain,
    FactoredModulus,
    InvalidInput,
    bundled_chain_text,
    direction_bases,
    modified_orders,
    parse_chain_file,
)

from conftest import T2_ORDER_DATA, T3_ORDER_DATA


def v2(n):
    return (n & -n).bit_length() - 1


def v3(n):
    k = 0
    while n % 3 == 0:
        n //= 3
        k += 1
    return k


def test_direction_bases():
    assert direction_bases("3=sum2") == (3, 2)
    assert direction_bases("2=sum3") == (2, 3)
    with pytest.raises(InvalidInput):
        direction_bases("4=sum5")


def test_bundled_roundtrip_byte_identical():
    for name in ("t2.chain", "t3.chain"):
        text = bundled_chain_text(name)
        assert parse_chain_file(text, name).serialize() == text


def test_bundled_shapes(t2, t3):
    assert len(t2.steps) == 62
    assert len(t3.steps) == 8
    assert t2.direction == "3=sum2"
    assert t3.direction == "2=sum3"
    assert t2.final.modulus.value.bit_length() == 1264


def test_cumulative_products(t2, t3):
    for chain in (t2, t3):
        prev = 1
        for i, step in enumerate(chain.steps, start=1):
            assert step.index == i
            assert step.modulus.value == prev * step.factor.value
            prev = step.modulus.value


def _order_columns(step, b):
    """(loop order of the factor, loop length, coprime order of the factor,
    coprime order of the modulus) for base b and the other base b'."""
    other = 5 - b
    return (
        modified_orders(b, step.factor)[0],
        step.shape(b).loop_len,
        modified_orders(other, step.factor)[1],
        modified_orders(other, step.modulus)[1],
    )


def test_t2_order_columns(t2):
    assert set(T2_ORDER_DATA) == {s.index for s in t2.steps}
    for step in t2.steps:
        loop_f, loop_c, cop_f, v2_cop_c = T2_ORDER_DATA[step.index]
        o2_f, o2_c, o3_f, o3_c = _order_columns(step, 2)
        if loop_f is None:
            assert step.factor.coprime_factors == () and step.factor.three_exp == 0
            assert o2_f == 1
            assert o3_f == 1
        else:
            assert o2_f == loop_f, step.index
            assert o3_f == cop_f, step.index
        assert o2_c == loop_c, step.index
        assert v2(o3_c) == v2_cop_c, step.index


def test_t3_order_columns(t3):
    assert set(T3_ORDER_DATA) == {s.index for s in t3.steps}
    for step in t3.steps:
        loop_f, loop_c, cop_f, v3_cop_c = T3_ORDER_DATA[step.index]
        o3_f, o3_c, o2_f, o2_c = _order_columns(step, 3)
        if loop_f is None:
            assert step.factor.coprime_factors == () and step.factor.two_exp == 0
            assert o3_f == 1
            assert o2_f == 1
        else:
            assert o3_f == loop_f, step.index
            assert o2_f == cop_f, step.index
        assert o3_c == loop_c, step.index
        assert v3(o2_c) == v3_cop_c, step.index


def test_step_shapes(t2):
    step = t2.steps[0]
    s2, s3 = step.shape(2), step.shape(3)
    assert s2.tail_len == step.modulus.two_exp
    assert s2.loop_len == modified_orders(2, step.modulus)[0]
    assert s3.tail_len == step.modulus.three_exp
    assert s3.loop_len == modified_orders(3, step.modulus)[0]


SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def _random_factors(rng, length):
    """Factors over the primes 2..13 with exponents 1..3, some of them pure powers of 2 or 3."""
    factors = []
    for _ in range(length):
        kind = rng.random()
        if kind < 0.2:
            primes = [2]
        elif kind < 0.4:
            primes = [3]
        else:
            primes = rng.sample(SMALL_PRIMES, rng.randint(1, 3))
        factors.append(FactoredModulus.from_prime_powers([(p, rng.randint(1, 3)) for p in primes]))
    return factors


def _incremental_chains(t2, t3):
    yield t2
    yield t3
    yield Chain.from_factors([
        FactoredModulus.from_prime_powers([(2, 4), (7, 1)]),
        FactoredModulus.from_prime_powers([(2, 2)]),
        FactoredModulus.from_prime_powers([(7, 1)]),
        FactoredModulus.from_prime_powers([(7, 1), (13, 2)]),
        FactoredModulus.from_prime_powers([(3, 1)]),
        FactoredModulus.from_prime_powers([(3, 2), (5, 1)]),
    ])
    rng = random.Random(20261019)
    for _ in range(40):
        yield Chain.from_factors(_random_factors(rng, rng.randint(1, 8)))


def test_incremental_loop_lengths(t2, t3):
    """Each step's stored loop lengths are the orders over its whole modulus,
    and a chain's first k steps do not depend on the factors after them."""
    for chain in _incremental_chains(t2, t3):
        for step in chain.steps:
            m = step.modulus
            for b, tail in ((2, m.two_exp), (3, m.three_exp)):
                shape = step.shape(b)
                assert shape.loop_len == modified_orders(b, m)[0], (b, str(m))
                assert shape.tail_len == tail
        factors = [step.factor for step in chain.steps]
        for k in range(1, len(factors) + 1):
            assert Chain.from_factors(factors[:k]).steps == chain.steps[:k]


def test_prefix(t2):
    sub = t2.prefix(10)
    assert len(sub.steps) == 10
    assert sub.steps[-1] is t2.steps[9]
    assert sub.direction == t2.direction
    with pytest.raises(InvalidInput):
        t2.prefix(0)
    with pytest.raises(InvalidInput):
        t2.prefix(63)


def test_parse_factor_forms():
    cf = parse_chain_file("direction: 3=sum2\n2^4 * 7 * 73\n5\n")
    assert [f.value for f in cf.factors] == [2**4 * 7 * 73, 5]
    assert cf.direction == "3=sum2"
    chain = cf.to_chain()
    assert chain.steps[1].modulus.value == 2**4 * 7 * 73 * 5


def test_parse_whitespace_and_comments():
    cf = parse_chain_file("# hello\n\n  2 ^ 3*5  \n")
    assert cf.direction is None
    assert [f.value for f in cf.factors] == [40]


def test_parse_error_line_numbers():
    with pytest.raises(InvalidInput, match=r"bad:2"):
        parse_chain_file("2^2\nnot a factor\n", "bad")
    with pytest.raises(InvalidInput, match=r"x:1"):
        parse_chain_file("15\n", "x")  # composite stated as prime
    with pytest.raises(InvalidInput, match="direction"):
        parse_chain_file("direction: up\n2\n")
    with pytest.raises(InvalidInput, match="duplicate"):
        parse_chain_file("direction: 3=sum2\ndirection: 3=sum2\n2\n")


@pytest.mark.parametrize("line, why", [
    ("2^0", "exponent 0 for prime 2"),
    ("3^0", "exponent 0 for prime 3"),
    ("7^0", "exponent 0 for prime 7"),
    ("5 * 2^0", "exponent 0 for prime 2"),
    ("2^4 * 2^3", "repeated prime 2"),
    ("3 * 7 * 3^2", "repeated prime 3"),
    ("7 * 7", "repeated prime 7"),
    ("1", "1 is not prime"),
    ("0", "0 is not prime"),
    ("4", "4 is not prime"),
    ("-7", "-7 is not prime"),
])
def test_parse_one_rule_for_every_prime(line, why):
    with pytest.raises(InvalidInput, match=rf"^bad:3: {re.escape(why)}"):
        parse_chain_file(f"direction: 3=sum2\n2^4 * 7 * 73\n{line}\n", "bad")


def test_parse_requires_a_factor():
    with pytest.raises(InvalidInput):
        parse_chain_file("# nothing here\n")


def test_from_factors_rejects_empty():
    with pytest.raises(InvalidInput):
        Chain.from_factors([])
    with pytest.raises(InvalidInput):
        Chain.from_factors([FactoredModulus.from_int(8)], direction="sideways")
