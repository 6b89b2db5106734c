from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mixtrace.errors import InputError
from mixtrace.rings import (INTEGERS, RATIONALS, RingTag, divides_power,
                            format_value, is_unit, localized_integers,
                            parse_value, ring_contains)
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
    assert parse_value("+2") == 2
    # ASCII digits only, and nothing around them: no whitespace, no
    # trailing newline, no underscores, no other scripts' digits
    for bad in ("3/0", "1.5", "x", "1/-2", "", "2\n", " 3 ", "1_0",
                "\u0663", "1/\u0662", "+ 2"):
        with pytest.raises(InputError):
            parse_value(bad)


def test_localized_rings_compare_as_rings():
    # Z[1/4] is Z[1/2] and Z[1/12] is Z[1/6]; the parameter is kept as given
    four = localized_integers(4)
    assert four == Z2 and hash(four) == hash(Z2) and str(four) == "Z[1/4]"
    assert localized_integers(12) == localized_integers(6)
    assert localized_integers(6) != Z2 and localized_integers(3) != Z2
    assert localized_integers(1) != INTEGERS
    assert INTEGERS != RATIONALS and RATIONALS == RingTag("Q")
    # a 19-digit prime is compared without factoring
    p = 1000000000000000003
    assert localized_integers(p) == localized_integers(p * p)
    assert localized_integers(p) != localized_integers(p + 2)


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


def _format_by_fraction(v):
    f = Fraction(v)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


@given(st.integers() | st.integers(-2 ** 200, 2 ** 200) | st.booleans()
       | st.fractions() | st.integers().map(Fraction))
def test_format_value_matches_the_fraction_formula(v):
    assert format_value(v) == _format_by_fraction(v)

