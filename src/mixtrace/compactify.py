"""The compact envelope of a matrix model with nonzero mix scalar, and
the loop congruence it is the quotient by.

Quotienting loops by the congruence is represented by its normal form:
matrices over the base ring with the mix scalar inverted, the ring
``rings.localize`` names; every ring operation here is a call into
``rings``.  ``loop_value`` computes a loop's class, ``c_tr`` embeds
ordinary morphisms, ``realize`` sections the quotient, and ``comix`` is
the loop inverting the mix map in the quotient.  The congruence is
generated by one-step moves, hidden traces and hidden symmetries, and
``congruent`` either compares normal forms ("semantic") or closes the
moves breadth first ("bounded").
"""

from __future__ import annotations

import random
from functools import partial
from math import factorial, prod
from typing import Iterator, Optional, Sequence, Set, Tuple

from . import traces
from .category import (Mor, Model, ValidationReport, canonical_map,
                       check_entry_count, compose, contract_hidden, dual_mor,
                       identity, mor, mor_scale, random_mor, tensor_mor)
from .errors import InputError, ModelNotCompactifiableError, ResourceLimitError
from .loops import (Loop, Permutation, _distinct_choices, hidden_symmetry,
                    loop_compose, loop_dual, loop_tensor, morphism_loop)
from .rings import (INTEGERS, RATIONALS, clearing_exponent, divide_by_mix,
                    localize)


def localized_model(model: Model) -> Model:
    """The model over the base ring with the mix scalar inverted."""
    m = model.mix
    if m == 0:
        raise ModelNotCompactifiableError(
            "a zero mix scalar admits no compactification")
    return Model(localize(model.ring, m), m)


def loop_value(p: Loop, target: Optional[Model] = None) -> Mor:
    """The congruence-class normal form: contract the hidden indices and
    divide by m^k through ``divide_by_mix``.  Every quotient lies in the
    localized ring, so none is tested.  ``target``, when given, is
    ``localized_model(p.model)``, computed once by the caller."""
    target = target or localized_model(p.model)
    rows = divide_by_mix(
        contract_hidden(p.carrier, p.dom, p.cod, p.hidden).entries,
        p.model.mix ** p.k, None)
    return Mor(target, p.dom, p.cod, tuple(map(tuple, rows)))


def c_tr(f: Mor, target: Optional[Model] = None) -> Mor:
    """Embed a morphism into the compactification: the same matrix over
    the localized ring, ``target`` as in ``loop_value``."""
    return Mor(target or localized_model(f.model), f.dom, f.cod, f.entries)


def realize(m_mor: Mor) -> Loop:
    """A loop of the base model whose value is the given localized matrix:
    clear denominators with the least power m^k (m may be negative, m^k
    then alternates in sign) and hide k rank-1 objects.  Over Q every
    nonzero mix is a unit, so the model is its own compactification and
    the matrix comes back as a loop with no hidden objects.

    The base-ring free trace of the result is undefined as soon as k >= 1
    and the matrix is non-integral (free-trace values always lie in the
    base ring); the round trip goes through loop_value.
    """
    ring = m_mor.model.ring
    m = m_mor.model.mix
    if ring == RATIONALS:
        if m == 0:
            raise ModelNotCompactifiableError(
                "a zero mix scalar admits no compactification")
        return morphism_loop(m_mor)
    if ring == INTEGERS:
        raise InputError("realize expects a matrix over a localized ring")
    if not isinstance(m, int) or m == 0:
        error = ModelNotCompactifiableError if m == 0 else InputError
        raise error("realize needs a nonzero integer mix scalar")
    k = clearing_exponent(m_mor.entries, m)
    power = m ** k
    base = Model(INTEGERS, m)
    rows = tuple(tuple(int(v * power) for v in row) for row in m_mor.entries)
    carrier = Mor(base, m_mor.dom, m_mor.cod, rows)
    return Loop(base, m_mor.dom, m_mor.cod, (1,) * k, carrier)


def comix(model: Model, a: int, b: int) -> Loop:
    """The loop inverting the mix map in the quotient: the mixed symmetry
    of A par B with A (x) B, hiding A and B."""
    n = a * b
    carrier = canonical_map(model, "mixed_symmetry", [n, n])
    return Loop(model, n, n, (a, b), carrier)


def verify_compactness(model: Model, max_rank: int, seed: int = 0,
                       samples: int = 1000) -> ValidationReport:
    """Check that the localized matrices realize the compact envelope:
    the comix loop inverts the mix map, the embedding is a faithful
    structure-preserving functor, loop values are functorial, and every
    bounded-denominator matrix is realized.  The largest matrix, a tensor
    of two loops with two hidden objects each, has max_rank^12 entries;
    past ``ENTRY_BOUND`` the call is refused before any matrix is built."""
    if max_rank < 0 or samples < 0:
        raise InputError("max_rank and samples must be >= 0")
    rng = random.Random(f"compactness:{seed}")
    report = ValidationReport(
        f"compactness of the localization of {model} at ranks <= {max_rank}")
    target = localized_model(model)
    check_entry_count(max_rank, 12,
                      f"a compactness check at max_rank {max_rank}")
    # every check but the realize round trip stays over this one target
    value = partial(loop_value, target=target)
    embed = partial(c_tr, target=target)

    def comix_inverts_mix():
        for a in range(0, max_rank + 1):
            for b in range(0, max_rank + 1):
                inv = value(comix(model, a, b))
                mix = embed(canonical_map(model, "mix_map", [a, b]))
                ident = identity(target, a * b)
                if compose(inv, mix) != ident or compose(mix, inv) != ident:
                    yield f"comix fails at ranks {a},{b}"

    def embedding_faithful():
        for i in range(samples):
            dom = rng.randint(0, max_rank)
            cod = rng.randint(0, max_rank)
            f = random_mor(model, rng, dom, cod)
            g = random_mor(model, rng, dom, cod)
            if (f.entries == g.entries) != (embed(f) == embed(g)):
                yield f"faithfulness fails at sample {i}"

    def embedding_structure_preserving():
        for i in range(max(1, samples // 5)):
            a, b, c = (rng.randint(0, max_rank) for _ in range(3))
            f = random_mor(model, rng, a, b)
            g = random_mor(model, rng, b, c)
            if embed(compose(g, f)) != compose(embed(g), embed(f)):
                yield "composition not preserved"
            if embed(tensor_mor(f, g)) != tensor_mor(embed(f), embed(g)):
                yield "tensor not preserved"
            if embed(dual_mor(f)) != dual_mor(embed(f)):
                yield "duality not preserved"

    def values_functorial():
        for i in range(max(1, samples // 5)):
            rng_case = random.Random(f"compactness:{seed}:hom:{i}")
            p = traces.random_loop(rng_case, model, max_rank, 2)
            q = traces.random_loop(rng_case, model, max_rank, 2)
            if value(loop_tensor(p, q)) != tensor_mor(value(p), value(q)):
                yield f"tensor of values fails at sample {i}"
            if value(loop_dual(p)) != dual_mor(value(p)):
                yield f"dual of values fails at sample {i}"
            c = rng_case.randint(0, max_rank)
            khid = rng_case.randint(0, 2)
            hid = tuple(rng_case.randint(0, max_rank) for _ in range(khid))
            h = prod(hid)
            mid = Loop(model, p.cod, c, hid,
                       random_mor(model, rng_case, p.cod * h, c * h))
            if value(loop_compose(mid, p)) != compose(value(mid), value(p)):
                yield f"composition of values fails at sample {i}"

    m_int = model.mix if type(model.mix) is int else None

    def realize_round_trip():
        if m_int in (None, 0):
            return
        for i in range(max(1, samples // 5)):
            dom = rng.randint(0, max_rank)
            cod = rng.randint(0, max_rank)
            j = rng.randint(0, 3)
            num = random_mor(model, rng, dom, cod, bound=5)
            m_mat = mor(target, dom, cod, divide_by_mix(
                num.entries, m_int ** j, target.ring))
            if loop_value(realize(m_mat)) != m_mat:
                yield f"realization round trip fails at sample {i}"

    def morphism_classes_trace_back():
        for i in range(max(1, samples // 10)):
            dom = rng.randint(0, max_rank)
            cod = rng.randint(0, max_rank)
            f = random_mor(model, rng, dom, cod)
            j = rng.randint(0, 2)
            lifted = mor_scale(f, model.mix ** j)
            p = Loop(model, dom, cod, (1,) * j, lifted)
            t = traces.induced_mixed_trace(p)
            if not t.is_defined or t.value != f:
                yield f"congruent-to-morphism trace fails at {i}"

    report.first_failure("comix-inverts-mix", comix_inverts_mix())
    report.first_failure("embedding-faithful", embedding_faithful())
    report.first_failure("embedding-structure-preserving",
                         embedding_structure_preserving())
    report.first_failure("values-functorial", values_functorial())
    report.first_failure("realize-round-trip", realize_round_trip())
    report.first_failure("morphism-classes-trace-back",
                         morphism_classes_trace_back())
    return report


# ---------------------------------------------------------------------------
# The congruence whose classes ``loop_value`` names.

# The most distinct hidden relabellings a congruence step tries (6!).
_RELABELLING_BOUND = 720


def _relabellings(p: Loop) -> Iterator[Permutation]:
    """The distinct hidden relabellings of p, in lexicographic order: slots
    of equal rank <= 1 keep their order, and so do slots of any equal rank
    when the carrier has no entries (a hidden object or an endpoint of rank
    0), since then no slot carries data.  There are k!/prod(n_r!) of them,
    n_r slots having such a rank r; past ``_RELABELLING_BOUND``
    ResourceLimitError is raised before the first."""
    dims = p.hidden
    free_rank = 1
    if p.carrier.dom * p.carrier.cod == 0:
        free_rank = max(dims, default=0)
    count = factorial(p.k) // prod(factorial(dims.count(r))
                                   for r in set(dims) if r <= free_rank)
    if count > _RELABELLING_BOUND:
        raise ResourceLimitError(
            f"hidden part has {count} distinct relabellings, more than the "
            f"bound {_RELABELLING_BOUND}")
    stack = [((), list(range(p.k)))]
    while stack:
        images, rest = stack.pop()
        if not rest:
            yield Permutation(images)
        for pos in reversed(_distinct_choices(dims, rest, free_rank)):
            stack.append((images + (rest[pos],), rest[:pos] + rest[pos + 1:]))


def _require_comparable(p: Loop, q: Loop) -> None:
    if p.model != q.model:
        raise InputError("loops belong to different models")
    if p.dom != q.dom or p.cod != q.cod:
        raise InputError("loops have different endpoints")


def _hidden_traces(p: Loop) -> Iterator[Loop]:
    for tail in range(1, p.k + 1):
        t = traces.hidden_trace(p, tail)
        if t is not None:
            yield t


def _one_step_moves(p: Loop, untracings: Sequence[Tuple[Loop, Set[Loop]]]
                    ) -> Iterator[Loop]:
    """The hidden traces and hidden symmetries of p, then each generator
    that one of its own hidden traces (given with it) takes to p."""
    yield from _hidden_traces(p)
    for alpha in _relabellings(p):
        if not alpha.is_identity:
            yield hidden_symmetry(p, alpha)
    for g, traced in untracings:
        if p in traced:
            yield g


def congruent(p: Loop, q: Loop, mode: str = "semantic", depth: int = 4,
              generators: Sequence[Loop] = ()) -> Optional[bool]:
    """Loop congruence.

    In "semantic" mode (mix scalar nonzero only) two loops are congruent
    iff their localized normal forms agree.  In "bounded" mode the
    one-step moves (hidden traces, hidden symmetries, and un-tracing drawn
    from the supplied generator loops) are closed breadth-first to the
    given depth from both sides; returns True when the closures meet and
    None when the search was cut off undecided.  When both closures are
    exhausted and disjoint it returns False, except at a nonzero mix when
    the loops' localized values agree: the moves tried may miss
    un-tracings that no generator supplies, so the answer is None.  A loop
    with more distinct hidden relabellings than ``_RELABELLING_BOUND``
    raises ResourceLimitError.
    """
    _require_comparable(p, q)
    if mode == "semantic":
        if p.model.mix == 0:
            raise ModelNotCompactifiableError(
                "semantic congruence needs a nonzero mix scalar")
        return loop_value(p) == loop_value(q)
    if mode != "bounded":
        raise InputError(f"unknown congruence mode {mode!r}")
    if depth < 0:
        raise InputError(f"bounded depth must be >= 0, got {depth}")

    # every move keeps the model and the endpoints, so only generators
    # that share them can un-trace; each is traced once, here
    untracings = [(g, set(_hidden_traces(g))) for g in generators
                  if g.model == p.model and g.dom == p.dom and g.cod == p.cod]
    # an empty frontier stays empty: that side's closure is exhausted
    seen, frontiers = ({p}, {q}), [[p], [q]]
    for _ in range(depth):
        if seen[0] & seen[1] or not any(frontiers):
            break
        for side in (0, 1):
            new = []
            for x in frontiers[side]:
                for y in _one_step_moves(x, untracings):
                    if y not in seen[side]:
                        seen[side].add(y)
                        new.append(y)
            frontiers[side] = new
    if seen[0] & seen[1]:
        return True
    if any(frontiers) or (p.model.mix != 0 and loop_value(p) == loop_value(q)):
        return None
    return False
