"""Loops (morphisms with a hidden part) and their operations.

A loop A -|-> B is a carrier A(x)U1(x)...(x)Uk -> B par U1 par ... par Uk
together with the ordered list of hidden objects.  Ordinary morphisms are
the loops with empty hidden part, and every operation below restricts to
the ordinary one in that case.  The congruence that hidden traces and
hidden symmetries generate lives with the quotient it defines, in
``compactify``; ``_distinct_choices`` stays here because both the
relabellings of a congruence step and the free-trace search use it.
"""

from __future__ import annotations

from math import prod
from typing import List, Sequence

from .category import (Mor, Model, canonical_map, check_ranks, compose,
                       dual_mor, regroup, tensor_mor, whisker)
from .errors import InputError
from .rings import Value


class Permutation(Value):
    """A bijection on {0..k-1}, stored as the image list."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        object.__setattr__(self, "images", tuple(images))
        self.__post_init__()

    def __post_init__(self):
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


class Loop(Value):
    """A carrier morphism with declared endpoint ranks and the ranks of
    its hidden objects, each checked here."""

    __slots__ = ("model", "dom", "cod", "hidden", "carrier")

    def __init__(self, model: Model, dom: int, cod: int,
                 hidden: Sequence[int], carrier: Mor):
        _set_model(self, model)
        _set_dom(self, dom)
        _set_cod(self, cod)
        _set_hidden(self, tuple(hidden))
        _set_carrier(self, carrier)
        self.__post_init__()

    def __post_init__(self):
        check_ranks(self.dom, self.cod, *self.hidden)
        carrier, h = self.carrier, prod(self.hidden)
        if carrier.model is not self.model and carrier.model != self.model:
            raise InputError("carrier belongs to a different model")
        if carrier.dom != self.dom * h:
            raise InputError(f"carrier domain rank {carrier.dom} != "
                             f"{self.dom} * {h}")
        if carrier.cod != self.cod * h:
            raise InputError(f"carrier codomain rank {carrier.cod} != "
                             f"{self.cod} * {h}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or (
                (self.model, self.dom, self.cod, self.hidden, self.carrier)
                == (other.model, other.dom, other.cod, other.hidden,
                    other.carrier))
        return NotImplemented

    def __hash__(self):
        return hash((self.model, self.dom, self.cod, self.hidden,
                     self.carrier))

    @property
    def k(self) -> int:
        return len(self.hidden)

    @property
    def hidden_size(self) -> int:
        return prod(self.hidden)


# Loop's slot setters, bound once, as category binds those of Mor
_set_model, _set_dom, _set_cod, _set_hidden, _set_carrier = (
    Loop.model.__set__, Loop.dom.__set__, Loop.cod.__set__,
    Loop.hidden.__set__, Loop.carrier.__set__)


def morphism_loop(f: Mor) -> Loop:
    """A morphism, identified as the loop with empty hidden part."""
    return Loop(f.model, f.dom, f.cod, (), f)


def yanking_loop(model: Model, a: int) -> Loop:
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
            f"cannot compose loops: endpoint ranks {q.dom} vs {p.cod}")
    hu = p.hidden_size
    hv = q.hidden_size
    lift_p = whisker(1, p.carrier, hv)
    # q (x) Id_U: B(x)V(x)U -> C par V par U, with both sides regrouped to
    # put U before V; swapping a block of size 1 moves no entry
    lift_q = whisker(1, q.carrier, hu)
    if hu != 1 and hv != 1:
        lift_q = regroup(lift_q, [q.cod, hv, hu], [q.dom, hv, hu],
                         [0, 2, 1], [3, 5, 4])
    return Loop(p.model, p.dom, q.cod, p.hidden + q.hidden,
                compose(lift_q, lift_p))


def loop_tensor(p: Loop, q: Loop) -> Loop:
    """Tensor product of loops; extends multiplication by a morphism when
    either hidden part is empty."""
    if p.model != q.model:
        raise InputError("loops belong to different models")
    hu, hv = p.hidden_size, q.hidden_size
    # the times_rule shuffle (B par U)(x)(D par V) -> (B(x)D) par U par V
    # on the codomain, its inverse on the domain; it moves no entry when U
    # has size 1
    carrier = tensor_mor(p.carrier, q.carrier)
    if hu != 1:
        carrier = regroup(carrier, [p.cod, hu, q.cod, hv],
                          [p.dom, hu, q.dom, hv],
                          [0, 2, 1, 3], [4, 6, 5, 7])
    return Loop(p.model, p.dom * q.dom, p.cod * q.cod, p.hidden + q.hidden,
                carrier)


def loop_dual(p: Loop) -> Loop:
    """Involutive duality: transpose the carrier and swap the endpoints;
    every object is its own dual."""
    return Loop(p.model, p.cod, p.dom, p.hidden, dual_mor(p.carrier))


def hidden_symmetry(p: Loop, alpha: Permutation) -> Loop:
    """Relabel the hidden part by a permutation: hidden slot i of the
    result is slot ``alpha.images[i]`` of p, on both sides of the
    carrier."""
    if alpha.size != p.k:
        raise InputError("permutation size does not match the hidden part")
    if alpha.is_identity:
        return p
    k = p.k
    carrier = regroup(p.carrier, [p.cod, *p.hidden], [p.dom, *p.hidden],
                      [0] + [1 + i for i in alpha.images],
                      [k + 1] + [k + 2 + i for i in alpha.images])
    return Loop(p.model, p.dom, p.cod, alpha.apply(p.hidden), carrier)


def _distinct_choices(dims: Sequence[int], rest: Sequence[int],
                      free_rank: int = 1) -> List[int]:
    """The positions in ``rest`` (remaining hidden slots, ascending) worth
    taking next: every slot of rank > ``free_rank``, and the first of each
    rank <= ``free_rank``.  Hidden objects of rank <= 1 carry no data, so
    swapping two slots of equal rank <= 1 changes nothing."""
    first = {dims[i]: pos for pos, i in reversed(list(enumerate(rest)))}
    return [pos for pos, i in enumerate(rest)
            if dims[i] > free_rank or first[dims[i]] == pos]
