"""Reference implementations the library is cross-checked against.

``free_trace_by_orderings`` is the k! ordering enumerator: it runs one full
staircase per hidden ordering, in lexicographic order, and keeps the first
solvable one.  The library's prefix-set search must agree with it on
status, ordering, value and witness.  ``pairing_form_by_currying`` and
``provisional_trace_dual`` compute the pairing form and the staircase along
other routes than the library does.
"""

from dataclasses import replace
from math import prod

from mixtrace.category import (Mor, Obj, compose, curry, dual_mor,
                               factor_permutation, uncurry, zero_mor)
from mixtrace.loops import all_permutations, hidden_symmetry
from mixtrace.traces import (AMBIGUOUS, _exact_div, ambiguous, defined,
                             pairing_form, provisional_trace, undefined)


def free_trace_by_orderings(p, want_witness=False):
    saw_ambiguous = False
    for alpha in all_permutations(p.k):
        r = provisional_trace(hidden_symmetry(p, alpha),
                              want_witness=want_witness)
        if r.status == AMBIGUOUS:
            saw_ambiguous = True
        elif r.is_defined:
            return replace(r, alpha=alpha)
    return ambiguous() if saw_ambiguous else undefined()


def assert_solvable_orderings_agree(p, res):
    """Some ordering's staircase solves iff the free trace ``res`` is
    defined, and every one that solves gives its value."""
    values = [r.value for r in (provisional_trace(hidden_symmetry(p, alpha))
                                for alpha in all_permutations(p.k))
              if r.is_defined]
    assert bool(values) == res.is_defined, (len(values), res.status)
    assert all(v == res.value for v in values), (values, res.value)


def pairing_form_by_currying(p):
    """The pairing form computed the slow way: peel the hidden factors off
    the codomain through the closure bijection, reorder the domain so each
    hidden object sits next to its dual with the endpoint last, and curry
    once more."""
    model = p.model
    dims = [u.rank for u in p.hidden]
    k = p.k
    ba = p.cod.rank * p.dom.rank
    if any(d == 0 for d in dims):
        return Mor(model, Obj(0), Obj(ba), tuple(() for _ in range(ba)))
    cur = p.carrier
    cod_rank = p.carrier.cod.rank
    for i in reversed(range(k)):
        d = dims[i]
        cod_rank //= d
        cur = uncurry(cur, cur.dom, Obj(d), Obj(cod_rank))
    # reorder (A, U1..Uk, Uk*..U1*) into pairs-first layout with A last
    pair_dims = []
    for d in dims:
        pair_dims += [d, d]
    pair_dims.append(p.dom.rank)
    pos_map = [2 * k]
    for i in range(k):
        pos_map.append(2 * i)
    for t in range(k):
        pos_map.append(2 * (k - 1 - t) + 1)
    perm = factor_permutation(model, pair_dims, pos_map)
    reordered = compose(cur, perm)
    hh = prod(d * d for d in dims)
    return curry(reordered, Obj(hh), p.dom, p.cod)


def provisional_trace_dual(p):
    """The staircase run through the dualized ladder (evaluation maps on
    the cotensor side); must agree with ``provisional_trace``."""
    model = p.model
    m = model.mix
    dims = [u.rank for u in p.hidden]
    k = p.k
    pf_t = dual_mor(pairing_form(p))  # rows pair-flat, cols (b,a)-flat
    adim = p.dom.rank
    if k == 0:
        rows = tuple(tuple(pf_t.entries[0][bi * adim + ai]
                           for ai in range(adim))
                     for bi in range(p.cod.rank))
        return defined(Mor(model, p.dom, p.cod, rows))

    ba = p.cod.rank * p.dom.rank
    if m == 0:
        if any(v for row in pf_t.entries for v in row):
            return undefined()
        if ba == 0 or dims[-1] == 0:
            return defined(zero_mor(model, p.dom, p.cod))
        return ambiguous()

    rows_now = [list(r) for r in pf_t.entries]
    for i, d in enumerate(dims):
        divided = []
        for row in rows_now:
            out = []
            for v in row:
                q = _exact_div(v, m, model.ring)
                if q is None:
                    return undefined()
                out.append(q)
            divided.append(out)
        tail = prod(x * x for x in dims[i + 1:])
        rows_now = [
            [sum(divided[(u * d + u) * tail + t][col] for u in range(d))
             for col in range(ba)]
            for t in range(tail)]
    final = rows_now[0] if rows_now else [0] * ba
    rows = tuple(tuple(final[bi * adim + ai] for ai in range(adim))
                 for bi in range(p.cod.rank))
    return defined(Mor(model, p.dom, p.cod, rows))
