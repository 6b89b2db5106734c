from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mixtrace.errors import InputError
from mixtrace.rings import (INTEGERS, RATIONALS, divides_power, format_value,
                            is_unit, localized_integers, parse_value,
                            ring_contains)
from mixtrace.traces import _exact_div

Z2 = localized_integers(2)


def test_scalar_membership():
    assert not ring_contains(INTEGERS, Fraction(1, 2))
    assert not ring_contains(Z2, Fraction(1, 3))
    assert ring_contains(Z2, Fraction(3, 8))
    assert ring_contains(RATIONALS, Fraction(1, 3))
    with pytest.raises(InputError):
        localized_integers(0)


def test_parse_and_format():
    assert parse_value("-3/4") == Fraction(-3, 4)
    assert parse_value("17") == 17
    assert format_value(Fraction(-3, 4)) == "-3/4"
    assert format_value(Fraction(6, 3)) == "2"
    for bad in ("3/0", "1.5", "x", "1/-2", ""):
        with pytest.raises(InputError):
            parse_value(bad)


def test_units():
    assert is_unit(INTEGERS, 1) and is_unit(INTEGERS, -1)
    assert not is_unit(INTEGERS, 2) and not is_unit(INTEGERS, 0)
    assert is_unit(RATIONALS, Fraction(7, 5))
    assert is_unit(Z2, 8) and is_unit(Z2, Fraction(1, 4))
    assert not is_unit(Z2, 3)


def test_divides_power():
    assert divides_power(8, 2) and divides_power(12, 6) and divides_power(1, 1)
    assert not divides_power(3, 2) and not divides_power(2, 1)


@given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
def test_div_mul_roundtrip(a, b):
    if b == 0:
        return
    q = _exact_div(a, b, INTEGERS)
    if q is not None:
        assert type(q) is int and q * b == a
    else:
        assert a % b != 0
