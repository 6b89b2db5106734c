"""The compact envelope of a matrix model with nonzero mix scalar.

Quotienting loops by the congruence is represented by its normal form:
matrices over the base ring localized at the mix scalar (denominators
powers of m).  ``loop_value`` computes a loop's class, ``c_tr`` embeds
ordinary morphisms, ``realize`` sections the quotient, and ``comix`` is
the loop inverting the mix map in the quotient.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod

from .category import (Mor, Model, Obj, ValidationReport, canonical_map,
                       compose, dual_mor, identity, mor, mor_scale,
                       random_mor, tensor_mor)
from .errors import InputError, ModelNotCompactifiableError
from .loops import Loop, loop_compose, loop_dual, loop_tensor
from .rings import (INTEGERS, RATIONALS, divides_power, format_value,
                    localized_integers)
from . import traces
from .traces import _contract_over_mix_power


def localized_model(model: Model) -> Model:
    """The model over the base ring with the mix scalar inverted."""
    m = model.mix
    if m == 0:
        raise ModelNotCompactifiableError(
            "a zero mix scalar admits no compactification")
    ring = model.ring
    if ring.kind == "Q":
        return Model(RATIONALS, m)
    scale = abs(int(m)) if Fraction(m).denominator == 1 else None
    if scale is None:
        raise InputError("mix scalar of an integral ring must be an integer")
    if ring.kind == "Z":
        return Model(localized_integers(scale), m)
    return Model(localized_integers(ring.m * scale), m)


def loop_value(p: Loop) -> Mor:
    """The congruence-class normal form: contract the hidden indices and
    divide by m^k over the localized ring."""
    target = localized_model(p.model)
    return Mor(target, p.dom, p.cod, _contract_over_mix_power(p))


def c_tr(f: Mor) -> Mor:
    """Embed a morphism into the compactification: the same matrix over
    the localized ring."""
    target = localized_model(f.model)
    return Mor(target, f.dom, f.cod, f.entries)


def realize(m_mor: Mor) -> Loop:
    """A loop of the base model whose value is the given localized matrix:
    clear denominators with the least power m^k and hide k rank-1 objects.

    The base-ring free trace of the result is undefined as soon as k >= 1
    and the matrix is non-integral (free-trace values always lie in the
    base ring); the round trip goes through loop_value.
    """
    ring = m_mor.model.ring
    if ring.kind != "Zloc":
        raise InputError("realize expects a matrix over a localized ring")
    m = m_mor.model.mix
    if not isinstance(m, int) or m < 1:
        raise ModelNotCompactifiableError(
            "realize needs an integer mix scalar >= 1")
    k = 0
    power = 1
    for row in m_mor.entries:
        for v in row:
            den = Fraction(v).denominator
            if not divides_power(den, m):
                raise InputError(f"entry {format_value(v)}: no power of the "
                                 f"mix scalar {m} clears its denominator")
            while power % den != 0:
                power *= m
                k += 1
    base = Model(INTEGERS, m)
    rows = tuple(tuple(int(v * power) for v in row) for row in m_mor.entries)
    carrier = Mor(base, m_mor.dom, m_mor.cod, rows)
    return Loop(base, m_mor.dom, m_mor.cod, (Obj(1),) * k, carrier)


def comix(model: Model, a: Obj, b: Obj) -> Loop:
    """The loop inverting the mix map in the quotient: the mixed symmetry
    of A par B with A (x) B, hiding A and B."""
    n = Obj(a.rank * b.rank)
    carrier = canonical_map(model, "mixed_symmetry", [n, n])
    return Loop(model, n, n, (a, b), carrier)


def verify_compactness(model: Model, max_rank: int, seed: int = 0,
                       samples: int = 1000) -> ValidationReport:
    """Check that the localized matrices realize the compact envelope:
    the comix loop inverts the mix map, the embedding is a faithful
    structure-preserving functor, loop values are functorial, and every
    bounded-denominator matrix is realized."""
    if max_rank < 0 or samples < 0:
        raise InputError("max_rank and samples must be >= 0")
    if model.mix == 0:
        raise ModelNotCompactifiableError(
            "a zero mix scalar admits no compactification")
    rng = random.Random(f"compactness:{seed}")
    report = ValidationReport(
        f"compactness of the localization of {model} at ranks <= {max_rank}")
    target = localized_model(model)

    ok, detail = True, ""
    for ar in range(0, max_rank + 1):
        for br in range(0, max_rank + 1):
            a, b = Obj(ar), Obj(br)
            inv = loop_value(comix(model, a, b))
            mix = c_tr(canonical_map(model, "mix_map", [a, b]))
            ident = identity(target, Obj(ar * br))
            if compose(inv, mix) != ident or compose(mix, inv) != ident:
                ok, detail = False, f"comix fails at ranks {ar},{br}"
                break
        if not ok:
            break
    report.record("comix-inverts-mix", ok, detail)

    ok, detail = True, ""
    for i in range(samples):
        dom = Obj(rng.randint(0, max_rank))
        cod = Obj(rng.randint(0, max_rank))
        f = random_mor(model, rng, dom, cod)
        g = random_mor(model, rng, dom, cod)
        if (f.entries == g.entries) != (c_tr(f) == c_tr(g)):
            ok, detail = False, f"faithfulness fails at sample {i}"
            break
    report.record("embedding-faithful", ok, detail)

    ok, detail = True, ""
    for i in range(max(1, samples // 5)):
        a, b, c = (Obj(rng.randint(0, max_rank)) for _ in range(3))
        f = random_mor(model, rng, a, b)
        g = random_mor(model, rng, b, c)
        if c_tr(compose(g, f)) != compose(c_tr(g), c_tr(f)):
            ok, detail = False, "composition not preserved"
            break
        if c_tr(tensor_mor(f, g)) != tensor_mor(c_tr(f), c_tr(g)):
            ok, detail = False, "tensor not preserved"
            break
        if c_tr(dual_mor(f)) != dual_mor(c_tr(f)):
            ok, detail = False, "duality not preserved"
            break
    report.record("embedding-structure-preserving", ok, detail)

    ok, detail = True, ""
    for i in range(max(1, samples // 5)):
        rng_case = random.Random(f"compactness:{seed}:hom:{i}")
        p = traces.random_loop(rng_case, model, max_rank, 2)
        q = traces.random_loop(rng_case, model, max_rank, 2)
        if loop_value(loop_tensor(p, q)) != tensor_mor(loop_value(p),
                                                       loop_value(q)):
            ok, detail = False, f"tensor of values fails at sample {i}"
            break
        if loop_value(loop_dual(p)) != dual_mor(loop_value(p)):
            ok, detail = False, f"dual of values fails at sample {i}"
            break
        c = Obj(rng_case.randint(0, max_rank))
        khid = rng_case.randint(0, 2)
        hid = tuple(Obj(rng_case.randint(0, max_rank)) for _ in range(khid))
        h = prod(u.rank for u in hid)
        mid = Loop(model, p.cod, c, hid,
                   random_mor(model, rng_case, Obj(p.cod.rank * h),
                              Obj(c.rank * h)))
        if loop_value(loop_compose(mid, p)) != compose(loop_value(mid),
                                                       loop_value(p)):
            ok, detail = False, f"composition of values fails at sample {i}"
            break
    report.record("values-functorial", ok, detail)

    ok, detail = True, ""
    m_int = int(model.mix) if Fraction(model.mix).denominator == 1 else None
    if m_int is not None and m_int >= 1:
        for i in range(max(1, samples // 5)):
            dom = Obj(rng.randint(0, max_rank))
            cod = Obj(rng.randint(0, max_rank))
            j = rng.randint(0, 3)
            num = random_mor(model, rng, dom, cod, bound=5)
            rows = tuple(tuple(Fraction(v, m_int ** j) for v in row)
                         for row in num.entries)
            m_mat = mor(target, dom, cod, rows)
            back = loop_value(realize(m_mat))
            if back != m_mat:
                ok, detail = False, f"realization round trip fails at sample {i}"
                break
    report.record("realize-round-trip", ok, detail)

    ok, detail = True, ""
    for i in range(max(1, samples // 10)):
        dom = Obj(rng.randint(0, max_rank))
        cod = Obj(rng.randint(0, max_rank))
        f = random_mor(model, rng, dom, cod)
        j = rng.randint(0, 2)
        lifted = mor_scale(f, model.mix ** j)
        p = Loop(model, dom, cod, (Obj(1),) * j, lifted)
        t = traces.induced_mixed_trace(p)
        if not t.is_defined or t.value != f:
            ok, detail = False, f"congruent-to-morphism trace fails at {i}"
            break
    report.record("morphism-classes-trace-back", ok, detail)

    return report
