"""Reference implementations the library is cross-checked against.

``all_permutations`` enumerates all of S_k, the relabellings the library's
congruence search narrows to the distinct ones.  ``provisional_trace`` is
the staircase oracle: it solves the staircase in the given hidden order,
one stage at a time, and builds its witness on the way.
``free_trace_by_orderings`` is the k! ordering enumerator: it runs
``provisional_trace`` once per hidden ordering, in lexicographic order,
and keeps the first solvable one.  The library's prefix-set search must
agree with it on status, ordering, value and witness.
``pairing_form_by_currying`` and ``provisional_trace_dual`` compute the
pairing form and the staircase along other routes than the library does.
``total_trace`` is the trace of a compact model as the canonical composite
through coevaluation and the inverse mix map; the induced trace and the
loop value must agree with it there.  ``is_compact`` decides which models
those are, through the unit test ``is_unit``; the library never asks.

``loop_par``, ``hide`` and ``one_step_congruent`` are loop operations
the library itself never needs: the cotensor through duality, moving an
endpoint factor into the hidden part, and the one-step congruence test
built from the library's own moves.  ``pre_compose``, ``post_compose``
and ``morphism_tensor_loop`` compose and tensor a loop with a morphism
directly on its carrier; the library builds the same loops as
``loop_compose`` and ``loop_tensor`` with a ``morphism_loop``.

``diagram_commutes_by_paths`` is the simple-path enumerator: it lists every
simple path out of every node and compares the parallel ones.  The
library's per-source tree check must reach the same verdict on every
diagram.  ``sources_reaching_last_two_tails`` is a reverse search for the
nodes with a path to the tail of one of a diagram's last two edges: the
sources the library's zig-zag check re-grows, which it reads off the
premise's trees instead.  ``check_trees`` and ``check_zigzag`` are the
library's per-source tree check and zig-zag check as they stood before
the check split into a walk per shape and a replay per sample: every
sample the search checks, and every instance ``zigzag-check`` checks, must
get the outcome ``check_zigzag`` gives its diagram.
``build_zigzag_diagram`` is that diagram: a zig-zag frame with its hub and
fillers filled in as edges.  ``frame_walks`` gives the library's premise
and conclusion walks of any frame or diagram, such as an edited one, where
the library builds them only for the frame of an instance.

The structural maps the library computes as one ``regroup`` each are here
as explicit index loops over multi-indices (``curry_by_loops``,
``uncurry_by_loops``, ``pairing_form_by_loops``,
``factor_permutation_by_product``) and, for loops, as conjugation by dense
permutation matrices (``hidden_symmetry_by_conjugation``,
``loop_compose_by_conjugation``, ``loop_tensor_by_conjugation``).
"""

import itertools
from fractions import Fraction
from math import prod
from typing import Dict, List, Sequence, Tuple

from mixtrace.category import (UNIT, Model, Mor, Obj, canonical_map,
                               compose, curry, dual_mor, factor_permutation,
                               identity, mor_scale, obj_tensor, tensor_mor,
                               uncurry, whisker, zero_mor)
from mixtrace.compactify import _one_step_moves, _require_comparable
from mixtrace.errors import InputError, ResourceLimitError
from mixtrace.loops import (Loop, Permutation, hidden_symmetry, loop_dual,
                            loop_tensor)
from mixtrace.rings import Number, RingTag, divides_power
from mixtrace.traces import (AMBIGUOUS, StaircaseWitness, TraceResult,
                             _contract_pair, _divide_by_mix, _exact_div,
                             ambiguous, defined, pairing_form, undefined)
from mixtrace.zigzag import (CounterPath, Diagram, Edge, Frame,
                             ZigZagOutcome, _walk)


def all_permutations(k):
    """All of S_k in lexicographic order of image tuples."""
    for images in itertools.permutations(range(k)):
        yield Permutation(images)


def loop_par(p: Loop, q: Loop) -> Loop:
    """Cotensor product, defined through duality: (p* (x) q*)*."""
    return loop_dual(loop_tensor(loop_dual(p), loop_dual(q)))


def hide(p: Loop, new_dom: Obj, v: Obj) -> Loop:
    """Move the declared endpoint factor V into the hidden part: a loop
    A'(x)V -|-> B' par V becomes A' -|-> B' with V prepended to the hidden
    list.  The factorization is caller data; rank arithmetic alone is
    ambiguous."""
    if v.rank == 0:
        raise InputError("cannot hide a rank-0 factor: target ranks ambiguous")
    if p.dom.rank != new_dom.rank * v.rank:
        raise InputError(
            f"hide: {p.dom.rank} does not factor as {new_dom.rank} * {v.rank}")
    if p.cod.rank % v.rank != 0:
        raise InputError(
            f"hide: codomain rank {p.cod.rank} not divisible by {v.rank}")
    new_cod = Obj(p.cod.rank // v.rank)
    return Loop(p.model, new_dom, new_cod, (v,) + p.hidden, p.carrier)


def pre_compose(p: Loop, f: Mor) -> Loop:
    """p . f for a morphism f into p's source endpoint."""
    if f.cod != p.dom or f.model != p.model:
        raise InputError("pre_compose: shape or model mismatch")
    return Loop(p.model, f.dom, p.cod, p.hidden,
                compose(p.carrier, whisker(UNIT, f, Obj(p.hidden_size))))


def post_compose(g: Mor, p: Loop) -> Loop:
    """g . p for a morphism g out of p's target endpoint."""
    if g.dom != p.cod or g.model != p.model:
        raise InputError("post_compose: shape or model mismatch")
    return Loop(p.model, p.dom, g.cod, p.hidden,
                compose(whisker(UNIT, g, Obj(p.hidden_size)), p.carrier))


def morphism_tensor_loop(f: Mor, p: Loop) -> Loop:
    """Multiplication by a morphism: the loop with carrier
    distributivity . (f (x) carrier) and the same hidden part.  The
    distributivity is the identity reindexing of the flattening."""
    if f.model != p.model:
        raise InputError("morphism_tensor_loop: model mismatch")
    return Loop(p.model, obj_tensor(f.dom, p.dom), obj_tensor(f.cod, p.cod),
                p.hidden, tensor_mor(f, p.carrier))


def one_step_congruent(p: Loop, q: Loop) -> bool:
    """True iff the loops are equal or one is a one-step move of the other:
    a hidden trace or a hidden symmetry (see ``compactify._relabellings``)."""
    _require_comparable(p, q)
    return (p == q or q in _one_step_moves(p, ())
            or p in _one_step_moves(q, ()))


def _value_from_column(p: Loop, column: Sequence[Sequence[Number]]) -> Mor:
    adim = p.dom.rank
    rows = tuple(tuple(column[bi * adim + ai][0] for ai in range(adim))
                 for bi in range(p.cod.rank))
    return Mor(p.model, p.dom, p.cod, rows)


def provisional_trace(p: Loop, want_witness: bool = False) -> TraceResult:
    """Solve the staircase for the hidden part in its given order.

    Stage i requires dividing the current matrix exactly by the mix scalar
    (the unique solution against Mix (x) Id when m is nonzero) and then
    contracts the leading evaluation pair.  With m = 0 a stage equation
    becomes 0 = goal: solvable only for the zero matrix and then wildly
    under-determined, which surfaces as Ambiguous.
    """
    model = p.model
    m = model.mix
    dims = [u.rank for u in p.hidden]
    k = p.k
    pf = pairing_form(p)
    if k == 0:
        witness = StaircaseWitness(pf, ()) if want_witness else None
        return defined(_value_from_column(p, pf.entries), witness=witness)

    ba = p.cod.rank * p.dom.rank
    if m == 0:
        if any(v for row in pf.entries for v in row):
            return undefined()
        if ba == 0 or dims[-1] == 0:
            return defined(zero_mor(p.model, p.dom, p.cod))
        return ambiguous()

    g_rows: Sequence[Sequence[Number]] = pf.entries
    fillers: List[Mor] = []
    for i, d in enumerate(dims):
        divided = _divide_by_mix(g_rows, m, model.ring)
        if divided is None:
            return undefined()
        tail = prod(x * x for x in dims[i + 1:])
        if want_witness:
            fillers.append(Mor(model, Obj(d * d * tail), Obj(ba),
                               tuple(tuple(r) for r in divided)))
        g_rows = _contract_pair(divided, d, 1, tail)
    psi_rows = tuple(tuple(r) for r in g_rows)
    value = _value_from_column(p, psi_rows)
    witness = None
    if want_witness:
        witness = StaircaseWitness(Mor(model, Obj(1), Obj(ba), psi_rows),
                                   tuple(fillers))
    return defined(value, witness=witness)


def free_trace_by_orderings(p, want_witness=False):
    saw_ambiguous = False
    for alpha in all_permutations(p.k):
        r = provisional_trace(hidden_symmetry(p, alpha),
                              want_witness=want_witness)
        if r.status == AMBIGUOUS:
            saw_ambiguous = True
        elif r.is_defined:
            return defined(r.value, alpha, r.witness)
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


def is_compact(model: Model) -> bool:
    """True iff the mix scalar is a unit of the ring."""
    return is_unit(model.ring, model.mix)


def total_trace(f: Mor, a: Obj, b: Obj, u: Obj) -> Mor:
    """The total trace of a compact model, computed as the canonical
    composite through coevaluation and the inverse mix map; equals the
    entrywise partial trace over U."""
    model = f.model
    if not is_compact(model):
        raise InputError(
            f"total trace needs a compact model; {model} is not")
    if f.dom.rank != a.rank * u.rank or f.cod.rank != b.rank * u.rank:
        raise InputError("total_trace: declared ranks do not match the matrix")
    recast = compose(canonical_map(model, "mix_map", [b, u]), f)
    peeled = uncurry(recast, obj_tensor(a, u), u, b)
    mix_inv = mor_scale(identity(model, Obj(u.rank * u.rank)),
                        Fraction(1) / Fraction(model.mix))
    feed = compose(mix_inv, canonical_map(model, "coev", [u]))
    return compose(peeled, tensor_mor(identity(model, a), feed))


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


def diagram_commutes_by_paths(d: Diagram, max_paths: int = 50000):
    """True iff every pair of parallel simple paths agrees (and every
    simple cycle composes to the identity); otherwise the first offending
    pair of paths."""
    adjacency: Dict[int, List[Tuple[int, Edge]]] = {}
    for idx, e in enumerate(d.edges):
        adjacency.setdefault(e.src, []).append((idx, e))
    counted = 0
    for src in range(len(d.objects)):
        by_dst: Dict[int, List[Tuple[Mor, Tuple[int, ...]]]] = {
            src: [(identity(d.model, d.objects[src]), ())]}
        stack = [(src, frozenset({src}),
                  identity(d.model, d.objects[src]), ())]
        while stack:
            v, visited, comp, path = stack.pop()
            for idx, e in adjacency.get(v, []):
                if e.dst in visited and e.dst != src:
                    continue
                new_comp = compose(e.mor, comp)
                new_path = path + (idx,)
                by_dst.setdefault(e.dst, []).append((new_comp, new_path))
                counted += 1
                if counted > max_paths:
                    raise ResourceLimitError(
                        f"more than {max_paths} simple paths")
                if e.dst != src:
                    stack.append((e.dst, visited | {e.dst},
                                  new_comp, new_path))
        for dst, entries in by_dst.items():
            first_m, first_p = entries[0]
            for m, pth in entries[1:]:
                if m.entries != first_m.entries:
                    return CounterPath(src, dst, first_p, pth, first_m, m)
    return True


def sources_reaching_last_two_tails(d: Diagram) -> List[int]:
    """The nodes, in ascending order, with a directed path over any edges
    to the tail of one of d's last two edges (each tail itself included):
    a reverse breadth-first search from those tails.  For a zig-zag
    diagram these are the sources whose trees the bottom symmetry can
    change."""
    into: Dict[int, List[int]] = {}
    for e in d.edges:
        into.setdefault(e.dst, []).append(e.src)
    reach = {e.src for e in d.edges[-2:]}
    queue = list(reach)
    while queue:
        for u in into.get(queue.pop(0), ()):
            if u not in reach:
                reach.add(u)
                queue.append(u)
    return sorted(reach)


def check_trees(d: Diagram, edges: Sequence[Edge], sources, tails=()):
    """``diagram_commutes`` of the diagram with d's objects and ``edges``, a
    prefix of ``d.edges``, restricted to the trees grown from ``sources``,
    taken in the order given: the first failing pair or, when every tree
    commutes, the list of those sources whose tree holds a node of
    ``tails``.  The identity at a source stays implicit (an out-edge's
    matrix is its own composite) until a counterexample names it."""
    reached = []
    adjacency: Dict[int, List[Tuple[int, Edge]]] = {}
    for idx, e in enumerate(edges):
        adjacency.setdefault(e.src, []).append((idx, e))
    for src in sources:
        tree = {src: (None, ())}
        stack = [src]
        while stack:
            u = stack.pop()
            comp, path = tree[u]
            for idx, e in adjacency.get(u, []):
                value = e.mor if comp is None else compose(e.mor, comp)
                via = path + (idx,)
                at_v = tree.get(e.dst)
                if at_v is None:
                    tree[e.dst] = (value, via)
                    stack.append(e.dst)
                elif at_v[0] is None:  # back at the source
                    if not is_identity_entries(value.entries):
                        return counter_pair(d, src, at_v, via, value)
                elif value.entries != at_v[0].entries:
                    return counter_pair(d, src, at_v, via, value)
        if any(t in tree for t in tails):
            reached.append(src)
    return reached


def is_identity_entries(entries) -> bool:
    return all(row[i] == 1 and not any(row[:i]) and not any(row[i + 1:])
               for i, row in enumerate(entries))


def counter_pair(d: Diagram, src: int, at_v, via: Tuple[int, ...],
                 value: Mor) -> CounterPath:
    v = d.edges[via[-1]].dst
    inner = [d.edges[i].dst for i in via[:-1]]
    if v == src or v not in inner:
        ref = at_v[0]
        if ref is None:
            ref = identity(d.model, d.objects[src])
        return CounterPath(src, v, at_v[1], via, ref, value)
    cycle = via[inner.index(v) + 1:]
    ident = value = identity(d.model, d.objects[v])
    for idx in cycle:
        value = compose(d.edges[idx].mor, value)
    return CounterPath(v, v, (), cycle, ident, value)


def check_zigzag(whole: Diagram) -> ZigZagOutcome:
    """Check the premise, the edge prefix without the bottom symmetry, over
    every source; if it commutes, re-grow over every edge just the trees
    that held a tail of the bottom symmetry.  A path that reaches such a
    tail reaches its first one over premise edges, so every other tree
    never uses the bottom symmetry and stays the premise's.  Sources are
    taken in ascending order, so the failure, if any, is the one a full
    check of the whole diagram reports."""
    premise = check_trees(whole, whole.edges[:-2], range(len(whole.objects)),
                          {e.src for e in whole.edges[-2:]})
    if isinstance(premise, CounterPath):
        return ZigZagOutcome("premise_fails", premise)
    conclusion = check_trees(whole, whole.edges, premise)
    if isinstance(conclusion, CounterPath):
        return ZigZagOutcome("violated", conclusion)
    return ZigZagOutcome("holds")


def build_zigzag_diagram(model: Model, frame: Frame, hub: Obj,
                         left: Sequence[Mor], right: Sequence[Mor]) -> Diagram:
    """The conclusion diagram of a zig-zag: its frame with the hub appended
    and the left and right filler columns in their slots.  Without its
    last two edges, the bottom symmetry, it is the premise diagram."""
    objects, slots = frame
    node = len(objects)
    fillers = {"left": left, "right": right}
    edges = [e if type(e) is Edge else
             Edge(e[0], node, fillers[e[1]][e[2]],
                  f"{e[1]}-filler-{e[2] or 'top'}")
             for e in slots]
    return Diagram(model, objects + (hub,), tuple(edges))


def frame_walks(model: Model, objects: Sequence[Obj], edges: Sequence[object]):
    """The premise walk, over all edges but the bottom symmetry with its
    tails, and the conclusion walk, over every edge, of a zig-zag frame or
    diagram, as ``zigzag._shape_walks`` builds them for an instance's
    frame."""
    return (_walk(model, objects, edges[:-2], {e.src for e in edges[-2:]}),
            _walk(model, objects, edges))
