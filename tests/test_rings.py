from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mixtrace.errors import InputError
from mixtrace.rings import (INTEGERS, RATIONALS, RingTag, _exact_div,
                            divides_power, format_value, localized_integers,
                            parse_value, ring_contains)

from trace_reference import is_unit

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
    # integer text is read as an int, a quotient as a Fraction
    for text, value in (("17", 17), ("-0", 0), ("+2", 2)):
        assert type(parse_value(text)) is int and parse_value(text) == value
    assert type(parse_value("3/4")) is Fraction
    assert parse_value("4/2") == 2
    # ASCII digits only, and nothing around them: no whitespace, no
    # trailing newline, no underscores, no other scripts' digits
    for bad in ("3/0", "1.5", "x", "1/-2", "", "2\n", " 3 ", "1_0",
                "\u0663", "1/\u0662", "+ 2"):
        with pytest.raises(InputError):
            parse_value(bad)


@pytest.mark.parametrize("text,error", [
    ("9" * 5000, "scalar with 5000 digits in one part, more than the limit "
                 "of 4300 digits"),
    ("-" + "9" * 4301, "scalar with 4301 digits in one part, more than the "
                       "limit of 4300 digits"),
    ("1/" + "0" * 5000, "scalar with 5000 digits in one part, more than the "
                        "limit of 4300 digits"),
    # the denominator is read first, so a zero one is named as before; a
    # long text is echoed as a prefix and its length, a short one whole
    ("9" * 5000 + "/0",
     "zero denominator in scalar '" + "9" * 32 + "'... (5002 characters)"),
    ("3/0", "zero denominator in scalar '3/0'"),
    ("9" * 30 + "/0", "zero denominator in scalar '" + "9" * 30 + "/0'"),
    ("1/" + "9" * 5000 + "x",
     "malformed scalar '1/" + "9" * 30 + "'... (5003 characters)"),
])
def test_parse_value_past_the_digit_limit(text, error):
    # int() refuses integer text past 4300 digits with ValueError; the
    # scalar reader names the limit instead
    with pytest.raises(InputError) as exc:
        parse_value(text)
    assert str(exc.value) == error
    assert parse_value("-" + "9" * 4300) == -(10 ** 4300 - 1)


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

