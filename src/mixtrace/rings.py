"""The exact rings of the matrix models: tags, membership tests, and the
textual scalar syntax.

Three rings are supported: the integers, the rationals, and the integers
localized at a fixed m >= 1 (rationals whose denominator divides a power
of m).  Values are ints or Fractions, arbitrary precision and reduced with
a positive denominator; no floats anywhere.  Trace existence below is
decided by exact divisibility, so approximate arithmetic would be wrong,
not merely imprecise.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd
from operator import attrgetter
from typing import Optional, Union

from .errors import InputError, ResourceLimitError

Number = Union[int, Fraction]

_SCALAR_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")

# Input text echoed in an error message is cut to this many characters.
_ECHO_CHARS = 32


class Value:
    """An immutable record, compared, hashed and shown field by field.  A
    subclass names its fields in ``__slots__``, sets them in its
    ``__init__`` through ``object.__setattr__`` and checks them in
    ``__post_init__``.  A type whose ``==`` is hot spells it out on its
    fields."""

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
            if not isinstance(self.m, int) or self.m < 1:
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
