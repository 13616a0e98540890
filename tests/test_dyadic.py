"""Exactness and algebra of the dyadic rational type."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dyadisc import DyadicRational, ONE, ZERO, dyadic

mantissas = st.integers(min_value=-(2**80), max_value=2**80)
exponents = st.integers(min_value=-60, max_value=120)
values = st.builds(dyadic, mantissas, exponents)


def test_zero_normalization():
    z = dyadic(0, 5)
    assert z.mantissa == 0 and z.exponent == 0
    assert z == ZERO and not z


def test_normalization_divides_out_twos():
    assert dyadic(4, 4) == dyadic(1, 2)
    assert dyadic(4, 4).mantissa == 1 and dyadic(4, 4).exponent == 2
    assert dyadic(-1, 3).as_fraction() == Fraction(-1, 8)


def test_integers_representable():
    assert dyadic(1, -3) == 8
    assert int(dyadic(5, 0)) == 5
    with pytest.raises(ValueError):
        int(dyadic(1, 1))


@given(values, values)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(values, values, values)
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(values)
def test_normalization_idempotent(a):
    again = dyadic(a.mantissa, a.exponent)
    assert again.mantissa == a.mantissa and again.exponent == a.exponent


ORDERINGS = (operator.lt, operator.le, operator.gt, operator.ge)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@given(values, values, st.integers(-(2**70), 2**70), finite_floats)
def test_ordering_matches_fractions(a, b, i, f):
    # DyadicRational on either side of a DyadicRational, Fraction, float or int
    for other in (b, b.as_fraction(), f, i):
        exact = Fraction(other.as_fraction() if other is b else other)
        for compare in ORDERINGS:
            assert compare(a, other) == compare(a.as_fraction(), exact)
            assert compare(other, a) == compare(exact, a.as_fraction())


def test_shuffled_sums_identical():
    # no operation rounds: any summation order gives the same value
    rng = random.Random(20240817)
    terms = [dyadic(rng.randrange(-(2**40), 2**40), rng.randrange(0, 60)) for _ in range(10**4)]
    total = sum(terms, ZERO)
    for _ in range(3):
        rng.shuffle(terms)
        assert sum(terms, ZERO) == total


def test_float_round_trip_within_window():
    rng = random.Random(99)
    for _ in range(2000):
        a = dyadic(rng.randrange(-(2**50) + 1, 2**50), rng.randrange(0, 51))
        assert DyadicRational.from_float(a.to_float()) == a


def test_to_float_examples():
    assert dyadic(1, 4).to_float() == 0.0625
    assert ZERO.to_float() == 0.0
    # magnitude of the low-level coefficient at n = 3
    assert dyadic(1, 2 * (3 + 1)).to_float() == 0.00390625


def test_to_float_nearest_even():
    # 2^53 + 1 is exactly between representables; ties go to even
    assert dyadic(2**53 + 1, 0).to_float() == float(2**53)
    assert dyadic(2**53 + 1, 53).to_float() == (float(2**53) / 2**53)


def test_to_float_overflow_signaled():
    with pytest.raises(OverflowError):
        dyadic(1, -3000).to_float()


def test_scale_pow2():
    assert dyadic(3, 5).scale_pow2(2) == dyadic(3, 3)
    assert dyadic(3, 5).scale_pow2(-2) == dyadic(3, 7)
    assert ZERO.scale_pow2(10) == ZERO


def test_pow():
    assert dyadic(-1, 3) ** 2 == dyadic(1, 6)
    assert dyadic(3, 1) ** 3 == dyadic(27, 3)
    assert dyadic(5, 2) ** 0 == ONE


def test_rendering():
    assert str(dyadic(3, 4)) == "3/2^4"
    assert str(dyadic(-5, 0)) == "-5"


def test_fraction_interop():
    assert dyadic(1, 1) == Fraction(1, 2)
    assert dyadic(1, 1) < Fraction(2, 3)


def test_immutability():
    a = dyadic(3, 1)
    with pytest.raises(AttributeError):
        a.mantissa = 5
