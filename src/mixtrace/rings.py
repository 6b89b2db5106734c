"""The exact rings of the matrix models: tags, membership, canonical
entries, exact division, localization, and the textual scalar syntax.

Three rings are supported: the integers, the rationals, and the integers
localized at a fixed m >= 1 (rationals whose denominator divides a power
of m).  Values are ints or Fractions, arbitrary precision and reduced with
a positive denominator; no floats anywhere.  Trace existence below is
decided by exact divisibility, so approximate arithmetic would be wrong,
not merely imprecise.

Every division by a mix power, in ``traces`` and ``compactify``, is
``divide_by_mix``: a divisor of 1 returns the rows, a row of ints that
an int divisor divides goes in one pass, everything else entry by entry,
since over Q and Z[1/M] a quotient that is not an int may still lie in the
ring; it stops at the first quotient outside the ring.  No other module
branches on a ring's kind.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter
from typing import List, Optional, Sequence, Union

from .errors import InputError, ResourceLimitError

Number = Union[int, Fraction]

_SCALAR_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")

# Input text echoed in an error message is cut to this many characters.
_ECHO_CHARS = 32


class Value:
    """An immutable record, compared, hashed and shown field by field.  A
    subclass names its fields in ``__slots__``, sets them in its
    ``__init__`` through ``object.__setattr__`` or, if built often, its
    slot descriptors (``Mor.entries.__set__``), and checks them in
    ``__post_init__``, all but those checked where they entered: ``Mor``
    checks its shape and trusts its ranks and entries.  A plain value, such
    as an object's rank, is no ``Value``.  A hot ``==`` is spelled out on
    the fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__slots__)
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


class RingTag(Value):
    """Names one of the supported rings; ``m`` is set for "Zloc" only."""

    __slots__ = ("kind", "m")

    def __init__(self, kind: str, m: Optional[int] = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "m", m)
        self.__post_init__()

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "Zloc"):
            raise InputError(f"unknown ring kind {self.kind!r}")
        if self.kind == "Zloc":
            if type(self.m) is not int or self.m < 1:
                raise InputError("localization requires an integer m >= 1")
        elif self.m is not None:
            raise InputError(f"ring {self.kind!r} takes no parameter")

    def __eq__(self, other):
        """Rings compare as rings: Z[1/m] equals Z[1/n] when each of m and
        n divides a power of the other (Z[1/4] is Z[1/2]).  The parameter
        itself is kept as given."""
        if not isinstance(other, RingTag):
            return NotImplemented
        return self.kind == other.kind and (
            self.m == other.m
            or (self.kind == "Zloc" and divides_power(self.m, other.m)
                and divides_power(other.m, self.m)))

    def __hash__(self):
        return hash(self.kind)

    def __str__(self):
        if self.kind == "Zloc":
            return f"Z[1/{self.m}]"
        return self.kind


INTEGERS = RingTag("Z")
RATIONALS = RingTag("Q")


def localized_integers(m: int) -> RingTag:
    """The ring of rationals with denominator a power of m."""
    return RingTag("Zloc", m)


def divides_power(d: int, m: int) -> bool:
    """True iff d divides some power of m."""
    d = abs(d)
    while d > 1:
        g = gcd(d, m)
        if g == 1:
            return False
        while d % g == 0:
            d //= g
    return d == 1


def ring_contains(ring: RingTag, value: Number) -> bool:
    """Membership test; plain ints belong to every supported ring."""
    if isinstance(value, int):
        return True
    v = Fraction(value)
    if ring.kind == "Z":
        return v.denominator == 1
    if ring.kind == "Q":
        return True
    return divides_power(v.denominator, ring.m)


def canonical(x, what: str = "matrix entries") -> Number:
    """Normalize an entry: exact int or Fraction, ints preferred."""
    if isinstance(x, bool):
        raise InputError(f"{what} must be exact numbers, not bool")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise InputError(f"{what} must be int or Fraction, got {type(x).__name__}")


def _exact_div(v: Number, m: Number, ring) -> Optional[Number]:
    if isinstance(v, int) and isinstance(m, int):
        q, r = divmod(v, m)
        if r == 0:
            return q
        val = Fraction(v, m)
    else:
        val = v / m
    if ring is None or ring_contains(ring, val):
        return int(val) if val.denominator == 1 else val
    return None


def divide_by_mix(rows: Sequence[Sequence[Number]], m: Number,
                  ring) -> Optional[Sequence[Sequence[Number]]]:
    """Every entry divided exactly by m, a power of the mix scalar, or None
    as soon as a quotient leaves the ring; a staircase stage's first half.
    With ring None the caller knows every quotient lies in its ring, and
    none is tested.  An m of 1, such as m^0, returns ``rows`` itself."""
    if m == 1:
        return rows
    divided: List[List[Number]] = []
    for row in rows:
        if type(m) is int and all(type(v) is int and not v % m for v in row):
            divided.append([v // m for v in row])
            continue
        out = []
        for v in row:
            q = _exact_div(v, m, ring)
            if q is None:
                return None
            out.append(q)
        divided.append(out)
    return divided


def localize(ring: RingTag, m: Number) -> RingTag:
    """The ring with its nonzero element m inverted: Q stays Q, and over
    Z[1/M] a mix p/q has q dividing a power of M, so inverting it inverts
    p: the ring is Z[1/lcm(M, |p|)], with M = 1 over Z."""
    if ring.kind == "Q":
        return RATIONALS
    return localized_integers(lcm(ring.m or 1, abs(Fraction(m).numerator)))


def clearing_exponent(rows: Sequence[Sequence[Number]], m: int) -> int:
    """The least k with m^k times every entry an integer, m a nonzero int;
    InputError at the first entry that no power of m clears."""
    k = 0
    power = 1
    for row in rows:
        for v in row:
            den = Fraction(v).denominator
            if not divides_power(den, m):
                raise InputError(
                    f"entry {echo(str(v), str)}: no power of the mix scalar "
                    f"{echo(str(m), str)} clears its denominator")
            while power % den != 0:
                power *= m
                k += 1
    return k


def parse_value(text: str) -> Number:
    """Parse the textual scalar syntax: optional sign, ASCII digits,
    optional "/" ASCII digits, and nothing else, not even whitespace.
    Text without "/" is an int, a quotient a Fraction.  Raises InputError
    on anything else (including "3/0"), and on a part longer than Python's
    limit on the digits of integer text."""
    if not _SCALAR_RE.fullmatch(text):
        raise InputError(f"malformed scalar {echo(text)}")
    num, _, den = text.partition("/")
    if den:
        d = _int_text(den)
        if d == 0:
            raise InputError(f"zero denominator in scalar {echo(text)}")
        return Fraction(_int_text(num), d)
    return _int_text(num)


def echo(text: str, show=repr) -> str:
    """show(text) for an error message: repr for input text, str for the
    text of a value.  Text longer than ``_ECHO_CHARS`` is shown as its
    first ``_ECHO_CHARS`` characters and its length."""
    if len(text) <= _ECHO_CHARS:
        return show(text)
    return f"{show(text[:_ECHO_CHARS])}... ({len(text)} characters)"


def _int_text(part: str) -> int:
    """int(part), with text past the digits int() converts an InputError."""
    try:
        return int(part)
    except ValueError as exc:
        raise InputError(
            f"scalar with {len(part.lstrip('+-'))} digits in one part, more "
            f"than the limit of {sys.get_int_max_str_digits()} digits"
        ) from exc


def format_value(v: Number) -> str:
    """The textual scalar syntax of a value: "n" or "n/d", reduced.  A
    part past Python's limit on the digits of integer text raises
    ResourceLimitError naming the limit."""
    try:
        return str(v) if type(v) is int else str(Fraction(v))
    except ValueError as exc:
        raise ResourceLimitError(
            f"an output value with more than {sys.get_int_max_str_digits()} "
            f"digits in one part, the limit of integer text") from exc
