"""Reference implementations the library is cross-checked against.

``free_trace_by_orderings`` is the k! ordering enumerator: it runs one full
staircase per hidden ordering, in lexicographic order, and keeps the first
solvable one.  The library's prefix-set search must agree with it on
status, ordering, value and witness.  ``pairing_form_by_currying`` and
``provisional_trace_dual`` compute the pairing form and the staircase along
other routes than the library does.

The structural maps the library computes as one ``regroup`` each are here
as explicit index loops over multi-indices (``curry_by_loops``,
``uncurry_by_loops``, ``pairing_form_by_loops``,
``factor_permutation_by_product``) and, for loops, as conjugation by dense
permutation matrices (``hidden_symmetry_by_conjugation``,
``loop_compose_by_conjugation``, ``loop_tensor_by_conjugation``).
"""

import itertools
from dataclasses import replace
from math import prod

from mixtrace.category import (Mor, Obj, canonical_map, compose, curry,
                               dual_mor, factor_permutation, identity,
                               obj_tensor, tensor_mor, uncurry, zero_mor)
from mixtrace.errors import InputError
from mixtrace.loops import Loop, all_permutations, hidden_symmetry
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


def _flat(multi, dims):
    idx = 0
    for x, d in zip(multi, dims):
        idx = idx * d + x
    return idx


def factor_permutation_by_product(model, dims, pos_map):
    """Target slot i carries source factor pos_map[i]."""
    src = list(dims)
    if sorted(pos_map) != list(range(len(src))):
        raise InputError("pos_map must be a permutation of the factor slots")
    tgt = [src[p] for p in pos_map]
    n = prod(src)
    rows = [[0] * n for _ in range(n)]
    for flat_s, multi in enumerate(itertools.product(*[range(d) for d in src])):
        t = tuple(multi[p] for p in pos_map)
        rows[_flat(t, tgt)][flat_s] = 1
    return Mor(model, Obj(n), Obj(n), tuple(tuple(r) for r in rows))


def curry_by_loops(f, a, b, c):
    """entry[(c,b), a] = f[c, (a,b)]."""
    if f.dom.rank != a.rank * b.rank or f.cod.rank != c.rank:
        raise InputError("curry: declared ranks do not match the matrix")
    br = b.rank
    rows = []
    for ci in range(c.rank):
        src = f.entries[ci]
        for bi in range(br):
            rows.append(tuple(src[ai * br + bi] for ai in range(a.rank)))
    return Mor(f.model, a, Obj(c.rank * br), tuple(rows))


def uncurry_by_loops(g, a, b, c):
    if g.dom.rank != a.rank or g.cod.rank != c.rank * b.rank:
        raise InputError("uncurry: declared ranks do not match the matrix")
    br = b.rank
    rows = []
    for ci in range(c.rank):
        row = []
        for ai in range(a.rank):
            for bi in range(br):
                row.append(g.entries[ci * br + bi][ai])
        rows.append(tuple(row))
    return Mor(g.model, obj_tensor(a, b), c, tuple(rows))


def pairing_form_by_loops(p):
    bdim, adim = p.cod.rank, p.dom.rank
    dims = [u.rank for u in p.hidden]
    h = prod(dims)
    pair_dims = []
    for d in dims:
        pair_dims += [d, d]
    cols = h * h
    rows = [[0] * cols for _ in range(bdim * adim)]
    ent = p.carrier.entries
    for multi in itertools.product(*(range(d) for d in pair_dims)):
        us = multi[0::2]
        ws = multi[1::2]
        col = _flat(multi, pair_dims)
        uflat = _flat(us, dims)
        wflat = _flat(ws, dims)
        for bi in range(bdim):
            src = ent[bi * h + wflat]
            for ai in range(adim):
                v = src[ai * h + uflat]
                if v:
                    rows[bi * adim + ai][col] = v
    return Mor(p.model, Obj(cols), Obj(bdim * adim),
               tuple(tuple(r) for r in rows))


def hidden_symmetry_by_conjugation(p, alpha):
    model = p.model
    dims = [u.rank for u in p.hidden]
    new_hidden = alpha.apply(p.hidden)
    inv = alpha.inverse()
    dom_perm = factor_permutation_by_product(
        model, [p.dom.rank] + [dims[i] for i in alpha.images],
        [0] + [1 + inv.images[j] for j in range(p.k)])
    cod_perm = factor_permutation_by_product(
        model, [p.cod.rank] + dims,
        [0] + [1 + alpha.images[i] for i in range(p.k)])
    carrier = compose(cod_perm, compose(p.carrier, dom_perm))
    return Loop(model, p.dom, p.cod, new_hidden, carrier)


def loop_compose_by_conjugation(q, p):
    model = p.model
    hu = p.hidden_size
    hv = q.hidden_size
    lift_p = tensor_mor(p.carrier, identity(model, Obj(hv)))
    rho = factor_permutation_by_product(model, [p.cod.rank, hu, hv],
                                        [0, 2, 1])
    lift_q = tensor_mor(q.carrier, identity(model, Obj(hu)))
    unshuffle = factor_permutation_by_product(model, [q.cod.rank, hv, hu],
                                              [0, 2, 1])
    carrier = compose(unshuffle, compose(lift_q, compose(rho, lift_p)))
    return Loop(model, p.dom, q.cod, p.hidden + q.hidden, carrier)


def loop_tensor_by_conjugation(p, q):
    model = p.model
    hu, hv = p.hidden_size, q.hidden_size
    mid = factor_permutation_by_product(
        model, [p.dom.rank, q.dom.rank, hu, hv], [0, 2, 1, 3])
    ten = tensor_mor(p.carrier, q.carrier)
    shuffle = canonical_map(model, "times_rule",
                            [p.cod, Obj(hu), q.cod, Obj(hv)])
    carrier = compose(shuffle, compose(ten, mid))
    return Loop(model, obj_tensor(p.dom, q.dom), obj_tensor(p.cod, q.cod),
                p.hidden + q.hidden, carrier)
