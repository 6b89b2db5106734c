"""Differential tests for the divisions by the mix scalar.

``divide_by_mix`` is checked against dividing every entry on its own with
``_exact_div``.  The induced trace and ``loop_value`` are checked against
contracting the hidden indices and scaling by the ``Fraction`` 1/m^k: the
loop value is that quotient over the localized model, and the induced
trace is the same quotient over the base model when every entry lies in
the base ring, and Undefined otherwise.  Both sides must give the same
entries of the same types (an int quotient stays an int, a non-integral
one is a ``Fraction``), or both must refuse.
"""

import random
from fractions import Fraction

import pytest

from mixtrace.category import Model, contract_hidden, mor
from mixtrace.compactify import localized_model, loop_value
from mixtrace.loops import Loop
from mixtrace.rings import (INTEGERS, RATIONALS, _exact_div, canonical,
                            divide_by_mix, localized_integers, ring_contains)
from mixtrace.traces import DEFINED, UNDEFINED, induced_mixed_trace

RINGS = (INTEGERS, RATIONALS, localized_integers(2))
MIXES = (2, -2, 3)
BIG = 2 ** 70


def _divide_entrywise(rows, m, ring):
    out = []
    for row in rows:
        quotients = [_exact_div(v, m, ring) for v in row]
        if any(q is None for q in quotients):
            return None
        out.append(quotients)
    return out


def _contract_by_fraction(p):
    contracted = contract_hidden(p.carrier, p.dom, p.cod, p.hidden)
    scale = Fraction(1) / Fraction(p.model.mix) ** p.k
    return tuple(tuple(canonical(v * scale) for v in row)
                 for row in contracted.entries)


def _typed(rows):
    return None if rows is None else [[(type(v), v) for v in row]
                                      for row in rows]


def _entry(rng, ring, m):
    """An int (often a multiple of m, sometimes above 2^64) or, outside Z,
    a Fraction of the ring."""
    v = rng.randint(-6, 6) * m ** rng.randint(0, 2)
    if rng.random() < 0.2:
        v += BIG * m * rng.choice((1, -1))
    if ring.kind != "Z" and rng.random() < 0.3:
        den = (2 ** rng.randint(1, 3) if ring.kind == "Zloc"
               else rng.randint(2, 7))
        v = Fraction(v + 1, den)
    return v


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("m", MIXES)
def test_divide_by_mix_matches_entrywise_division(ring, m):
    rng = random.Random(f"divide:{ring}:{m}")
    for _ in range(300):
        rows = [[_entry(rng, ring, m) for _ in range(rng.randint(0, 5))]
                for _ in range(rng.randint(1, 4))]
        assert (_typed(divide_by_mix(rows, m, ring))
                == _typed(_divide_entrywise(rows, m, ring)))


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("m", MIXES)
def test_divide_by_mix_edge_rows(ring, m):
    rows_list = [
        [[BIG * m, -BIG * m, 0]],              # above 2^64, divisible
        [[BIG + 1, 2 * m]],                    # above 2^64, not divisible
        [[m, Fraction(m, 2 ** 3), 4 * m]],     # ints and a Fraction
        [[Fraction(2 * m, 1), m]],             # an integral Fraction
        [[1, m], [m * m, 0]],                  # 1/m leaves Z only
        [[]],
    ]
    for rows in rows_list:
        if ring.kind == "Z" and any(isinstance(v, Fraction)
                                    and v.denominator > 1
                                    for row in rows for v in row):
            continue
        assert (_typed(divide_by_mix(rows, m, ring))
                == _typed(_divide_entrywise(rows, m, ring)))


def test_zloc_int_quotient_stays_in_the_ring_as_a_fraction():
    ring = localized_integers(2)
    got = divide_by_mix([[2, 1], [4, 6]], 2, ring)
    assert _typed(got) == [[(int, 1), (Fraction, Fraction(1, 2))],
                           [(int, 2), (int, 3)]]
    assert divide_by_mix([[2, 1]], 2, INTEGERS) is None
    assert divide_by_mix([[3]], 2, ring) == [[Fraction(3, 2)]]
    assert divide_by_mix([[3]], 3, ring) == [[1]]
    assert divide_by_mix([[1]], 3, ring) is None


def _random_loop(rng, model, k):
    m = model.mix
    a, b = rng.randint(0, 2), rng.randint(0, 2)
    hidden = tuple(rng.randint(1, 2) for _ in range(k))
    h = 1
    for u in hidden:
        h *= u
    scale = m ** k if rng.random() < 0.6 else m ** rng.randint(0, k)
    rows = [[scale * _entry(rng, model.ring, m) for _ in range(a * h)]
            for _ in range(b * h)]
    return Loop(model, a, b, hidden, mor(model, a * h,
                                         b * h, rows))


# two Fraction mix scalars over Q, next to the int ones of MIXES
FRACTION_MIXES = (Fraction(1, 2), Fraction(-3, 2))


def _assert_matches_oracle(p):
    """The induced trace and the loop value of p against the Fraction
    oracle: the same status, the same entries and the same entry types."""
    expected = _contract_by_fraction(p)
    value = loop_value(p)
    assert value.model == localized_model(p.model)
    assert _typed(value.entries) == _typed(expected)
    res = induced_mixed_trace(p)
    if all(ring_contains(p.model.ring, v) for row in expected for v in row):
        assert res.status == DEFINED
        assert res.value.model == p.model
        assert _typed(res.value.entries) == _typed(expected)
    else:
        assert res.status == UNDEFINED and res.value is None


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("m", MIXES)
@pytest.mark.parametrize("k", (0, 1, 2))
def test_contract_over_mix_power_matches_fraction_scaling(ring, m, k):
    model = Model(ring, m)
    rng = random.Random(f"contract:{ring}:{m}:{k}")
    for _ in range(60):
        _assert_matches_oracle(_random_loop(rng, model, k))


@pytest.mark.parametrize("m", FRACTION_MIXES, ids=str)
@pytest.mark.parametrize("k", (0, 1, 2))
def test_contract_over_fraction_mix_power_matches_fraction_scaling(m, k):
    model = Model(RATIONALS, m)
    rng = random.Random(f"contract:{RATIONALS}:{m}:{k}")
    for _ in range(60):
        _assert_matches_oracle(_random_loop(rng, model, k))


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_contract_over_mix_power_edge_loops(ring):
    mixes = MIXES + (FRACTION_MIXES if ring == RATIONALS else ())
    for m in mixes:
        model = Model(ring, m)
        r1, r2 = 1, 2
        loops = [
            # k = 0: the carrier itself, divided by m^0 = 1
            Loop(model, r2, r1, (), mor(model, r2, r1, [[BIG + 1, -3]])),
            # above 2^64 and divisible by m^2
            Loop(model, r1, r1, (r1, r1),
                 mor(model, r1, r1, [[BIG * m * m + m * m]])),
            # above 2^64 and not divisible: a Fraction outside Z
            Loop(model, r1, r1, (r2,),
                 mor(model, r2, r2, [[BIG, 1], [2, 3]])),
            # the first row's quotient leaves Z and Z[1/2] at m = 3, the
            # second row's does not
            Loop(model, r1, r2, (r1,), mor(model, r1, r2, [[1], [m]])),
            # the first row divides, the second does not
            Loop(model, r1, r2, (r1,), mor(model, r1, r2, [[m], [1]])),
        ]
        if ring.kind != "Z":
            loops.append(Loop(model, r1, r1, (r2,), mor(
                model, r2, r2, [[m, 5], [Fraction(1, 2), m]])))
        for p in loops:
            _assert_matches_oracle(p)
