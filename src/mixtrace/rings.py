"""The exact rings of the matrix models: tags, membership and unit tests,
and the textual scalar syntax.

Three rings are supported: the integers, the rationals, and the integers
localized at a fixed m >= 1 (rationals whose denominator divides a power
of m).  Values are ints or Fractions, arbitrary precision and reduced with
a positive denominator; no floats anywhere.  Trace existence below is
decided by exact divisibility, so approximate arithmetic would be wrong,
not merely imprecise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Union

from .errors import InputError

Number = Union[int, Fraction]

_SCALAR_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


@dataclass(frozen=True)
class RingTag:
    """Names one of the supported rings; ``m`` is set for "Zloc" only."""

    kind: str
    m: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "Zloc"):
            raise InputError(f"unknown ring kind {self.kind!r}")
        if self.kind == "Zloc":
            if not isinstance(self.m, int) or self.m < 1:
                raise InputError("localization requires an integer m >= 1")
        elif self.m is not None:
            raise InputError(f"ring {self.kind!r} takes no parameter")

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


def is_unit(ring: RingTag, value: Number) -> bool:
    """True iff the value has a multiplicative inverse inside the ring."""
    v = Fraction(value)
    if v == 0:
        return False
    if ring.kind == "Z":
        return v == 1 or v == -1
    if ring.kind == "Q":
        return True
    return divides_power(v.numerator, ring.m)


def parse_value(text: str) -> Fraction:
    """Parse the textual scalar syntax: optional sign, digits, optional
    "/" digits.  Raises InputError on anything else (including "3/0")."""
    s = text.strip()
    if not _SCALAR_RE.match(s):
        raise InputError(f"malformed scalar {text!r}")
    num, _, den = s.partition("/")
    if den:
        d = int(den)
        if d == 0:
            raise InputError(f"zero denominator in scalar {text!r}")
        return Fraction(int(num), d)
    return Fraction(int(num))


def format_value(v: Number) -> str:
    f = Fraction(v)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"
