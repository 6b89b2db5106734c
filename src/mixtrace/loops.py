"""Loops (morphisms with a hidden part) and the congruence they generate.

A loop A -|-> B is a carrier A(x)U1(x)...(x)Uk -> B par U1 par ... par Uk
together with the ordered list of hidden objects.  Ordinary morphisms are
the loops with empty hidden part, and every operation below restricts to
the ordinary one in that case.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod
from typing import Iterator, List, Optional, Sequence, Tuple

from .category import (Mor, Model, Obj, canonical_map, compose, dual_mor,
                       dual_obj, identity, obj_tensor, regroup, tensor_mor)
from .errors import InputError, ModelNotCompactifiableError, ResourceLimitError


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0..k-1}, stored as the image list."""

    images: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if sorted(self.images) != list(range(len(self.images))):
            raise InputError(f"not a permutation: {self.images}")

    @property
    def size(self) -> int:
        return len(self.images)

    @property
    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for i, x in enumerate(self.images):
            inv[x] = i
        return Permutation(tuple(inv))

    def apply(self, seq: Sequence) -> tuple:
        if len(seq) != self.size:
            raise InputError("permutation size mismatch")
        return tuple(seq[i] for i in self.images)


def identity_permutation(k: int) -> Permutation:
    return Permutation(tuple(range(k)))


def compose_permutations(outer: Permutation, inner: Permutation) -> Permutation:
    """The single relabeling equal to applying ``inner`` first and then
    ``outer`` (so hidden_symmetry(hidden_symmetry(p, inner), outer)
    == hidden_symmetry(p, compose_permutations(outer, inner)))."""
    return Permutation(tuple(inner.images[outer.images[i]]
                             for i in range(outer.size)))


@dataclass(frozen=True)
class Loop:
    """A carrier morphism with declared endpoints and hidden objects."""

    model: Model
    dom: Obj
    cod: Obj
    hidden: Tuple[Obj, ...]
    carrier: Mor

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(self.hidden))
        h = prod(u.rank for u in self.hidden)
        if self.carrier.model != self.model:
            raise InputError("carrier belongs to a different model")
        if self.carrier.dom.rank != self.dom.rank * h:
            raise InputError(
                f"carrier domain rank {self.carrier.dom.rank} != "
                f"{self.dom.rank} * {h}")
        if self.carrier.cod.rank != self.cod.rank * h:
            raise InputError(
                f"carrier codomain rank {self.carrier.cod.rank} != "
                f"{self.cod.rank} * {h}")

    @property
    def k(self) -> int:
        return len(self.hidden)

    @property
    def hidden_size(self) -> int:
        return prod(u.rank for u in self.hidden)


def morphism_loop(f: Mor) -> Loop:
    """A morphism, identified as the loop with empty hidden part."""
    return Loop(f.model, f.dom, f.cod, (), f)


def yanking_loop(model: Model, a: Obj) -> Loop:
    """The loop (mixed symmetry of A with itself; A): A -|-> A."""
    return Loop(model, a, a, (a,),
                canonical_map(model, "mixed_symmetry", [a, a]))


def loop_compose(q: Loop, p: Loop) -> Loop:
    """Composition of loops: hidden parts concatenate (p's first) and the
    carrier routes p's output through q, reshuffling the hidden blocks by
    the canonical symmetry/distributivity permutation."""
    if p.model != q.model:
        raise InputError("loops belong to different models")
    if p.cod != q.dom:
        raise InputError(
            f"cannot compose loops: endpoint ranks {q.dom.rank} vs {p.cod.rank}")
    model = p.model
    hu = p.hidden_size
    hv = q.hidden_size
    lift_p = tensor_mor(p.carrier, identity(model, Obj(hv)))
    # q (x) Id_U: B(x)V(x)U -> C par V par U, with both sides regrouped to
    # put U before V
    lift_q = regroup(tensor_mor(q.carrier, identity(model, Obj(hu))),
                     [q.cod.rank, hv, hu], [q.dom.rank, hv, hu],
                     [0, 2, 1], [3, 5, 4])
    return Loop(model, p.dom, q.cod, p.hidden + q.hidden,
                compose(lift_q, lift_p))


def loop_tensor(p: Loop, q: Loop) -> Loop:
    """Tensor product of loops; extends multiplication by a morphism when
    either hidden part is empty."""
    if p.model != q.model:
        raise InputError("loops belong to different models")
    hu, hv = p.hidden_size, q.hidden_size
    # the times_rule shuffle (B par U)(x)(D par V) -> (B(x)D) par U par V
    # on the codomain, its inverse on the domain
    carrier = regroup(tensor_mor(p.carrier, q.carrier),
                      [p.cod.rank, hu, q.cod.rank, hv],
                      [p.dom.rank, hu, q.dom.rank, hv],
                      [0, 2, 1, 3], [4, 6, 5, 7])
    return Loop(p.model, obj_tensor(p.dom, q.dom), obj_tensor(p.cod, q.cod),
                p.hidden + q.hidden, carrier)


def loop_dual(p: Loop) -> Loop:
    """Involutive duality: transpose the carrier, dualize the endpoints."""
    return Loop(p.model, dual_obj(p.cod), dual_obj(p.dom),
                tuple(dual_obj(u) for u in p.hidden), dual_mor(p.carrier))


def loop_par(p: Loop, q: Loop) -> Loop:
    """Cotensor product, defined through duality: (p* (x) q*)*."""
    return loop_dual(loop_tensor(loop_dual(p), loop_dual(q)))


def pre_compose(p: Loop, f: Mor) -> Loop:
    """p . f for a morphism f into p's source endpoint."""
    if f.cod != p.dom or f.model != p.model:
        raise InputError("pre_compose: shape or model mismatch")
    h = identity(p.model, Obj(p.hidden_size))
    return Loop(p.model, f.dom, p.cod, p.hidden,
                compose(p.carrier, tensor_mor(f, h)))


def post_compose(g: Mor, p: Loop) -> Loop:
    """g . p for a morphism g out of p's target endpoint."""
    if g.dom != p.cod or g.model != p.model:
        raise InputError("post_compose: shape or model mismatch")
    h = identity(p.model, Obj(p.hidden_size))
    return Loop(p.model, p.dom, g.cod, p.hidden,
                compose(tensor_mor(g, h), p.carrier))


def morphism_tensor_loop(f: Mor, p: Loop) -> Loop:
    """Multiplication by a morphism: the loop with carrier
    distributivity . (f (x) carrier) and the same hidden part.  The
    distributivity is the identity reindexing of the flattening."""
    if f.model != p.model:
        raise InputError("morphism_tensor_loop: model mismatch")
    return Loop(p.model, obj_tensor(f.dom, p.dom), obj_tensor(f.cod, p.cod),
                p.hidden, tensor_mor(f, p.carrier))


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


def hidden_symmetry(p: Loop, alpha: Permutation) -> Loop:
    """Relabel the hidden part by a permutation: hidden slot i of the
    result is slot ``alpha.images[i]`` of p, on both sides of the
    carrier."""
    if alpha.size != p.k:
        raise InputError("permutation size does not match the hidden part")
    if alpha.is_identity:
        return p
    dims = [u.rank for u in p.hidden]
    k = p.k
    carrier = regroup(p.carrier, [p.cod.rank] + dims, [p.dom.rank] + dims,
                      [0] + [1 + i for i in alpha.images],
                      [k + 1] + [k + 2 + i for i in alpha.images])
    return Loop(p.model, p.dom, p.cod, alpha.apply(p.hidden), carrier)


# The most distinct hidden relabellings a congruence step tries (6!).
_RELABELLING_BOUND = 720


def _distinct_choices(dims: Sequence[int], rest: Sequence[int],
                      free_rank: int = 1) -> List[int]:
    """The positions in ``rest`` (remaining hidden slots, ascending) worth
    taking next: every slot of rank > ``free_rank``, and the first of each
    rank <= ``free_rank``.  Hidden objects of rank <= 1 carry no data, so
    swapping two slots of equal rank <= 1 changes nothing."""
    first = {dims[i]: pos for pos, i in reversed(list(enumerate(rest)))}
    return [pos for pos, i in enumerate(rest)
            if dims[i] > free_rank or first[dims[i]] == pos]


def _relabellings(p: Loop) -> Iterator[Permutation]:
    """The distinct hidden relabellings of p, in lexicographic order: slots
    of equal rank <= 1 keep their order, and so do slots of any equal rank
    when the carrier has no entries (a hidden object or an endpoint of rank
    0), since then no slot carries data.  There are k!/prod(n_r!) of them,
    n_r slots having such a rank r; past ``_RELABELLING_BOUND``
    ResourceLimitError is raised before the first."""
    dims = [u.rank for u in p.hidden]
    free_rank = 1
    if p.carrier.dom.rank * p.carrier.cod.rank == 0:
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


def one_step_congruent(p: Loop, q: Loop) -> bool:
    """True iff the loops are equal or one is a one-step move of the other:
    a hidden trace or a hidden symmetry (see ``_relabellings``)."""
    _require_comparable(p, q)
    return (p == q or q in _one_step_moves(p, ())
            or p in _one_step_moves(q, ()))


def _one_step_moves(p: Loop, generators: Sequence[Loop]) -> Iterator[Loop]:
    from . import traces  # local import: traces also builds on loops

    for tail in range(1, p.k + 1):
        t = traces.hidden_trace(p, tail)
        if t is not None:
            yield t
    for alpha in _relabellings(p):
        if not alpha.is_identity:
            yield hidden_symmetry(p, alpha)
    for g in generators:
        if g.model != p.model or g.dom != p.dom or g.cod != p.cod:
            continue
        for tail in range(1, g.k + 1):
            if traces.hidden_trace(g, tail) == p:
                yield g
                break


def congruent(p: Loop, q: Loop, mode: str = "semantic", depth: int = 4,
              generators: Sequence[Loop] = ()) -> Optional[bool]:
    """Loop congruence.

    In "semantic" mode (mix scalar nonzero only) two loops are congruent
    iff their localized normal forms agree.  In "bounded" mode the
    one-step moves (hidden traces, hidden symmetries, and un-tracing drawn
    from the supplied generator loops) are closed breadth-first to the
    given depth from both sides; returns True when the closures meet,
    False when both closures are exhausted and disjoint, and None when the
    search was cut off undecided.  A loop with more distinct hidden
    relabellings than ``_RELABELLING_BOUND`` raises ResourceLimitError.
    """
    _require_comparable(p, q)
    if mode == "semantic":
        if p.model.mix == 0:
            raise ModelNotCompactifiableError(
                "semantic congruence needs a nonzero mix scalar")
        from . import compactify

        return compactify.loop_value(p) == compactify.loop_value(q)
    if mode != "bounded":
        raise InputError(f"unknown congruence mode {mode!r}")
    if depth < 0:
        raise InputError(f"bounded depth must be >= 0, got {depth}")

    # an empty frontier stays empty: that side's closure is exhausted
    seen, frontiers = ({p}, {q}), [[p], [q]]
    for _ in range(depth):
        if seen[0] & seen[1] or not any(frontiers):
            break
        for side in (0, 1):
            new = []
            for x in frontiers[side]:
                for y in _one_step_moves(x, generators):
                    if y not in seen[side]:
                        seen[side].add(y)
                        new.append(y)
            frontiers[side] = new
    if seen[0] & seen[1]:
        return True
    return None if any(frontiers) else False
