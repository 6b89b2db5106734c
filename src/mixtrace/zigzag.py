"""Finite-diagram commutation checking and the contractible zig-zag
condition, including the counterexample search for the m = 0 model.

A diagram is a labelled multigraph of objects and morphisms; it commutes
when all simple directed paths between any two nodes compose to the same
matrix and all simple cycles compose to the identity (so isomorphism
edges, stored in both orientations, behave like the unoriented lines they
stand for).  ``diagram_commutes`` checks every edge against one tree of
composites per source node: O(V * E) composites, with no path limit.  A
failure is reported as two parallel simple paths with unequal composites.

A zig-zag instance is one diagram whose last two edges, the bottom
symmetry, turn the premise into the conclusion; the premise is checked as
the edge prefix before them, with no second diagram.  Once it commutes,
only the trees that reach the bottom symmetry can change, so the
conclusion check re-grows just those.  An instance computes its level
ranks once; Id (x) f (x) Id is whiskered by block copy
(``category.whisker``), and a search builds each base rank's mix map and
coevaluation once.

The module builds on ``category`` and ``loops`` only; ``traces`` draws a
free trace's staircase witness as a diagram and checks it here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Dict, List, Optional, Sequence, Tuple

from .category import (Mor, Model, Obj, canonical_map, compose, dual_mor,
                       factor_permutation, identity, obj_tensor, random_mor,
                       regroup, tensor_mor, whisker, zero_mor)
from .errors import InputError
from .loops import Permutation


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    mor: Mor
    label: str = ""


@dataclass(frozen=True)
class Diagram:
    model: Model
    objects: Tuple[Obj, ...]
    edges: Tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "edges", tuple(self.edges))
        n = len(self.objects)
        for e in self.edges:
            if not (0 <= e.src < n and 0 <= e.dst < n):
                raise InputError(f"edge {e.label!r} references a missing node")
            if e.mor.model != self.model:
                raise InputError(f"edge {e.label!r} is in the wrong model")
            if e.mor.dom.rank != self.objects[e.src].rank:
                raise InputError(
                    f"edge {e.label!r}: domain rank {e.mor.dom.rank} != "
                    f"node rank {self.objects[e.src].rank}")
            if e.mor.cod.rank != self.objects[e.dst].rank:
                raise InputError(
                    f"edge {e.label!r}: codomain rank {e.mor.cod.rank} != "
                    f"node rank {self.objects[e.dst].rank}")


@dataclass(frozen=True)
class CounterPath:
    """Two parallel paths (as edge index sequences) with unequal
    composites."""

    src: int
    dst: int
    path_a: Tuple[int, ...]
    path_b: Tuple[int, ...]
    value_a: Mor
    value_b: Mor


def diagram_commutes(d: Diagram):
    """True iff the diagram commutes; otherwise one offending pair.

    From each source a depth-first tree of composites P grows (the identity
    at the source), and every edge e: u -> v must satisfy e . P(u) = P(v).
    A failing edge names the tree path to v against the tree path to u
    plus e or, when v lies inside the latter, that cycle at v against the
    identity."""
    return _check_trees(d, d.edges, range(len(d.objects)))


def _check_trees(d: Diagram, edges: Sequence[Edge], sources):
    """``diagram_commutes`` of the diagram with d's objects and ``edges``, a
    prefix of ``d.edges``, restricted to the trees grown from ``sources``,
    taken in the order given.  The identity at a source stays implicit (an
    out-edge's matrix is its own composite) until a counterexample names
    it."""
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
                    if not _is_identity(value.entries):
                        return _counter_pair(d, src, at_v, via, value)
                elif value.entries != at_v[0].entries:
                    return _counter_pair(d, src, at_v, via, value)
    return True


def _is_identity(entries) -> bool:
    return all(row[i] == 1 and not any(row[:i]) and not any(row[i + 1:])
               for i, row in enumerate(entries))


def _check_conclusion(whole: Diagram):
    """``diagram_commutes(whole)`` for a diagram whose premise, all but its
    last two edges, commutes.  A tree that never reaches the tail of one of
    those edges never uses it and is the premise's tree, so only the
    sources with a path to such a tail are re-grown, in ascending order:
    the first failure is the one the full check reports."""
    into: Dict[int, List[int]] = {}
    for e in whole.edges:
        into.setdefault(e.dst, []).append(e.src)
    reach = {e.src for e in whole.edges[-2:]}
    stack = list(reach)
    while stack:
        for u in into.get(stack.pop(), ()):
            if u not in reach:
                reach.add(u)
                stack.append(u)
    return _check_trees(whole, whole.edges, sorted(reach))


def _counter_pair(d: Diagram, src: int, at_v, via: Tuple[int, ...],
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


@dataclass(frozen=True)
class ZigZagInstance:
    """The data of one contractible zig-zag check.

    ``down_maps[i]``: upper_i -> apex_i and ``up_maps[i]``: lower_i ->
    apex_i are the two morphism tuples; fillers map the top level (tensor
    of the upper objects) and each apex level into the hub object, one
    collection per column, the right column running through the
    permutation.
    """

    model: Model
    upper: Tuple[Obj, ...]
    apex: Tuple[Obj, ...]
    lower: Tuple[Obj, ...]
    down_maps: Tuple[Mor, ...]
    up_maps: Tuple[Mor, ...]
    perm: Permutation
    hub: Obj
    left_fillers: Tuple[Mor, ...]
    right_fillers: Tuple[Mor, ...]

    def __post_init__(self):
        for name in ("upper", "apex", "lower", "down_maps", "up_maps",
                     "left_fillers", "right_fillers"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        n = len(self.upper)
        if not (len(self.apex) == len(self.lower) == len(self.down_maps)
                == len(self.up_maps) == n):
            raise InputError("tuple lengths disagree")
        if self.perm.size != n:
            raise InputError("permutation size disagrees with the tuples")
        if len(self.left_fillers) != n + 1 or len(self.right_fillers) != n + 1:
            raise InputError("each filler column needs n + 1 morphisms")
        for i in range(n):
            f, g = self.down_maps[i], self.up_maps[i]
            if f.dom != self.upper[i] or f.cod != self.apex[i]:
                raise InputError(f"down map {i} has the wrong shape")
            if g.dom != self.lower[i] or g.cod != self.apex[i]:
                raise InputError(f"up map {i} has the wrong shape")
        levels = self.levels
        for side, fillers in (("left", self.left_fillers),
                              ("right", self.right_fillers)):
            for k, f in enumerate(fillers):
                if f.dom.rank != levels[side][1][k] or f.cod != self.hub:
                    raise InputError(
                        f"{side} filler {k} has the wrong shape")

    @cached_property
    def levels(self) -> Dict[str, Tuple[List[int], List[int]]]:
        """``level_ranks`` of this instance, computed once."""
        return level_ranks(self.upper, self.apex, self.lower, self.perm)

    @property
    def n(self) -> int:
        return len(self.upper)

    def _side_seqs(self, side: str):
        if side == "left":
            return self.upper, self.apex, self.lower, self.down_maps, self.up_maps
        return (self.perm.apply(self.upper), self.perm.apply(self.apex),
                self.perm.apply(self.lower), self.perm.apply(self.down_maps),
                self.perm.apply(self.up_maps))


def level_ranks(upper: Sequence[Obj], apex: Sequence[Obj],
                lower: Sequence[Obj], perm: Permutation
                ) -> Dict[str, Tuple[List[int], List[int]]]:
    """Per side, the ranks of the X levels 0..n and of the filler domains
    0..n of a zig-zag with these objects; the right side runs through the
    permutation.  X level i is lower_1..lower_i (x) upper_i+1..upper_n;
    filler 0 starts at X level 0 and filler k >= 1 at apex level k,
    lower_1..lower_k-1 (x) apex_k (x) upper_k+1..upper_n."""
    out = {}
    for side, order in (("left", range(len(upper))), ("right", perm.images)):
        up = [upper[i].rank for i in order]
        ap = [apex[i].rank for i in order]
        lo = [lower[i].rank for i in order]
        x_levels = [prod(lo[:i]) * prod(up[i:]) for i in range(len(up) + 1)]
        fillers = [x_levels[0]] + [prod(lo[:k - 1]) * ap[k - 1] * prod(up[k:])
                                   for k in range(1, len(up) + 1)]
        out[side] = (x_levels, fillers)
    return out


@dataclass(frozen=True)
class ZigZagOutcome:
    status: str  # "premise_fails" | "holds" | "violated"
    counter: Optional[CounterPath] = None


def build_zigzag_diagram(inst: ZigZagInstance) -> Diagram:
    """The conclusion diagram of a zig-zag instance: both filler columns,
    the top symmetry and, as the last two edges, the bottom symmetry.
    Without those two it is the premise diagram."""
    model = inst.model
    n = inst.n
    objects: List[Obj] = []
    # left X-levels 0..n, left apex levels 1..n, then the same on the
    # right, then the hub
    for side in ("left", "right"):
        x_levels, fillers = inst.levels[side]
        objects += [Obj(r) for r in x_levels] + [Obj(r) for r in fillers[1:]]
    objects.append(inst.hub)
    hub_idx = len(objects) - 1

    def x_idx(side: str, i: int) -> int:
        return (0 if side == "left" else 2 * n + 1) + i

    def a_idx(side: str, k: int) -> int:
        return (0 if side == "left" else 2 * n + 1) + (n + 1) + (k - 1)

    edges: List[Edge] = []
    for side in ("left", "right"):
        upper, apex, lower, downs, ups = inst._side_seqs(side)
        fillers = inst.left_fillers if side == "left" else inst.right_fillers
        for k in range(1, n + 1):
            pre, post = obj_tensor(*lower[:k - 1]), obj_tensor(*upper[k:])
            down = whisker(pre, downs[k - 1], post)
            up = whisker(pre, ups[k - 1], post)
            edges.append(Edge(x_idx(side, k - 1), a_idx(side, k), down,
                              f"{side}-down-{k}"))
            edges.append(Edge(x_idx(side, k), a_idx(side, k), up,
                              f"{side}-up-{k}"))
        edges.append(Edge(x_idx(side, 0), hub_idx, fillers[0],
                          f"{side}-filler-top"))
        for k in range(1, n + 1):
            edges.append(Edge(a_idx(side, k), hub_idx, fillers[k],
                              f"{side}-filler-{k}"))

    # the inverse of a permutation matrix is its transpose
    top = factor_permutation(model, [u.rank for u in inst.upper],
                             inst.perm.images)
    edges.append(Edge(x_idx("left", 0), x_idx("right", 0), top, "top-iso"))
    edges.append(Edge(x_idx("right", 0), x_idx("left", 0), dual_mor(top),
                      "top-iso-inv"))
    bottom = factor_permutation(model, [x.rank for x in inst.lower],
                                inst.perm.images)
    edges.append(Edge(x_idx("left", n), x_idx("right", n), bottom,
                      "bottom-iso"))
    edges.append(Edge(x_idx("right", n), x_idx("left", n), dual_mor(bottom),
                      "bottom-iso-inv"))
    return Diagram(model, tuple(objects), tuple(edges))


def check_zigzag_instance(inst: ZigZagInstance) -> ZigZagOutcome:
    """Build the instance's one diagram (from the levels the instance
    computed once) and check its premise, the edge prefix without the
    bottom symmetry; if that commutes, check the whole diagram by
    re-growing only the trees that reach the bottom symmetry, which report
    the failure, if any, that a full check of the whole diagram reports."""
    whole = build_zigzag_diagram(inst)
    premise = _check_trees(whole, whole.edges[:-2],
                           range(len(whole.objects)))
    if premise is not True:
        return ZigZagOutcome("premise_fails", premise)
    conclusion = _check_conclusion(whole)
    if conclusion is True:
        return ZigZagOutcome("holds")
    return ZigZagOutcome("violated", conclusion)


@dataclass(frozen=True)
class SearchResult:
    status: str  # "violated" | "none_found"
    instance: Optional[ZigZagInstance]
    stats: Dict[str, int]
    samples: int


def _corollary_frame(model: Model, rng: random.Random, n: int,
                     max_rank: int, structure: Dict[int, Tuple[Mor, Mor]]):
    """Objects and maps of the mix/coevaluation instance: the down maps
    are forced to mix maps of A_i with its dual and the up maps to
    coevaluations.  ``structure`` holds the pair (mix map, coevaluation)
    per base rank, built on first use."""
    bases = [Obj(rng.randint(1, max_rank)) for _ in range(n)]
    for b in bases:
        if b.rank not in structure:
            structure[b.rank] = (canonical_map(model, "mix_map", [b, b]),
                                 canonical_map(model, "coev", [b]))
    upper = tuple(Obj(b.rank * b.rank) for b in bases)
    apex = tuple(Obj(b.rank * b.rank) for b in bases)
    lower = tuple(Obj(1) for _ in range(n))
    downs = tuple(structure[b.rank][0] for b in bases)
    ups = tuple(structure[b.rank][1] for b in bases)
    return bases, upper, apex, lower, downs, ups


def _pullback_fillers(model: Model, rng: random.Random, bases,
                      perm: Permutation, hub: Obj, entry_bound: int,
                      structure: Dict[int, Tuple[Mor, Mor]]):
    """Premise-commuting fillers: one random map out of the tensor of the
    apex objects, pulled back along coevaluations (below the level) and
    mix maps (above it)."""
    n = len(bases)
    apex_all = Obj(prod(b.rank * b.rank for b in bases))
    rho = random_mor(model, rng, apex_all, hub, entry_bound)

    def side_fillers(side_bases, reorder: Optional[Sequence[int]]):
        fillers = []
        for k in range(0, n + 1):
            pieces = identity(model, Obj(1))
            for j, b in enumerate(side_bases):
                if k == 0 or j + 1 > k:
                    piece = structure[b.rank][0]
                elif j + 1 < k:
                    piece = structure[b.rank][1]
                else:
                    piece = identity(model, Obj(b.rank * b.rank))
                pieces = tensor_mor(pieces, piece)
            if reorder is not None:  # apex factors back in ``bases`` order
                pieces = regroup(pieces, [b.rank * b.rank for b in side_bases],
                                 [pieces.dom.rank], reorder, [n])
            fillers.append(compose(rho, pieces))
        return tuple(fillers)

    left = side_fillers(bases, None)
    right = side_fillers(perm.apply(tuple(bases)), perm.inverse().images)
    return left, right


def search_counterexample(model: Model, n: int, max_rank: int,
                          entry_bound: int = 2, seed: int = 0,
                          budget: int = 200) -> SearchResult:
    """Sample mix/coevaluation zig-zag instances and look for a violation.

    Rotates three filler strategies: a consistent pullback collection
    (exercising the Holds branch), a zero-top collection (the family that
    violates contractibility when m = 0), and fully random fillers.
    """
    if n < 0 or max_rank < 1 or entry_bound < 0 or budget < 0:
        raise InputError("n must be >= 0, max_rank >= 1, entry_bound >= 0 "
                         "and budget >= 0")
    rng = random.Random(f"zigzag:{seed}")
    stats = {"premise_fails": 0, "holds": 0, "violated": 0}
    structure: Dict[int, Tuple[Mor, Mor]] = {}
    for idx in range(budget):
        bases, upper, apex, lower, downs, ups = _corollary_frame(
            model, rng, n, max_rank, structure)
        images = list(range(n))
        rng.shuffle(images)
        perm = Permutation(tuple(images))
        hub = Obj(rng.randint(1, max_rank))
        strategy = idx % 3
        if strategy == 0:
            left, right = _pullback_fillers(model, rng, bases, perm, hub,
                                            entry_bound, structure)
        else:
            def col(ranks):
                fillers = []
                for k, r in enumerate(ranks):
                    dom = Obj(r)
                    if strategy == 1 and k == 0:
                        fillers.append(zero_mor(model, dom, hub))
                    else:
                        fillers.append(random_mor(model, rng, dom, hub,
                                                  entry_bound))
                return tuple(fillers)

            levels = level_ranks(upper, apex, lower, perm)
            left = col(levels["left"][1])
            right = col(levels["right"][1])
        inst = ZigZagInstance(model, upper, apex, lower, downs, ups, perm,
                              hub, left, right)
        outcome = check_zigzag_instance(inst)
        stats[outcome.status] += 1
        if outcome.status == "violated":
            return SearchResult("violated", inst, stats, idx + 1)
    return SearchResult("none_found", None, stats, budget)
