"""Finite-diagram commutation checking and the contractible zig-zag
condition, including the counterexample search for the m = 0 model.

A diagram is a labelled multigraph of objects and morphisms; it commutes
when all simple directed paths between any two nodes compose to the same
matrix (cycles must compose to the identity, which makes isomorphism
edges, stored in both orientations, behave like the unoriented lines they
stand for).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import prod
from typing import Dict, List, Optional, Sequence, Tuple

from .category import (Mor, Model, Obj, canonical_map, compose, dual_mor,
                       factor_permutation, identity, obj_tensor, random_mor,
                       regroup, tensor_mor, zero_mor)
from .errors import InputError, ResourceLimitError
from .loops import Loop, Permutation
from .traces import StaircaseWitness


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


def diagram_commutes(d: Diagram, max_paths: int = 50000):
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
        levels = level_ranks(self.upper, self.apex, self.lower, self.perm)
        for side, fillers in (("left", self.left_fillers),
                              ("right", self.right_fillers)):
            for k, f in enumerate(fillers):
                if f.dom.rank != levels[side][1][k] or f.cod != self.hub:
                    raise InputError(
                        f"{side} filler {k} has the wrong shape")

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


def build_zigzag_diagram(inst: ZigZagInstance, with_bottom: bool) -> Diagram:
    model = inst.model
    n = inst.n
    levels = level_ranks(inst.upper, inst.apex, inst.lower, inst.perm)
    objects: List[Obj] = []
    # left X-levels 0..n, left apex levels 1..n, then the same on the
    # right, then the hub
    for side in ("left", "right"):
        x_levels, fillers = levels[side]
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
            pre = identity(model, obj_tensor(*lower[:k - 1]))
            post = identity(model, obj_tensor(*upper[k:]))
            down = tensor_mor(tensor_mor(pre, downs[k - 1]), post)
            up = tensor_mor(tensor_mor(pre, ups[k - 1]), post)
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
    if with_bottom:
        bottom = factor_permutation(model, [x.rank for x in inst.lower],
                                    inst.perm.images)
        edges.append(Edge(x_idx("left", n), x_idx("right", n), bottom,
                          "bottom-iso"))
        edges.append(Edge(x_idx("right", n), x_idx("left", n),
                          dual_mor(bottom), "bottom-iso-inv"))
    return Diagram(model, tuple(objects), tuple(edges))


def check_zigzag_instance(inst: ZigZagInstance) -> ZigZagOutcome:
    """Check the premise diagram; if it commutes, fill in the bottom
    symmetry and re-check."""
    premise = diagram_commutes(build_zigzag_diagram(inst, with_bottom=False))
    if premise is not True:
        return ZigZagOutcome("premise_fails", premise)
    conclusion = diagram_commutes(build_zigzag_diagram(inst, with_bottom=True))
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
                     max_rank: int):
    """Objects and maps of the mix/coevaluation instance: the down maps
    are forced to mix maps of A_i with its dual and the up maps to
    coevaluations."""
    bases = [Obj(rng.randint(1, max_rank)) for _ in range(n)]
    upper = tuple(Obj(b.rank * b.rank) for b in bases)
    apex = tuple(Obj(b.rank * b.rank) for b in bases)
    lower = tuple(Obj(1) for _ in range(n))
    downs = tuple(canonical_map(model, "mix_map", [b, b]) for b in bases)
    ups = tuple(canonical_map(model, "coev", [b]) for b in bases)
    return bases, upper, apex, lower, downs, ups


def _pullback_fillers(model: Model, rng: random.Random, bases,
                      perm: Permutation, hub: Obj, entry_bound: int):
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
                    piece = canonical_map(model, "mix_map", [b, b])
                elif j + 1 < k:
                    piece = canonical_map(model, "coev", [b])
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
    for idx in range(budget):
        bases, upper, apex, lower, downs, ups = _corollary_frame(
            model, rng, n, max_rank)
        images = list(range(n))
        rng.shuffle(images)
        perm = Permutation(tuple(images))
        hub = Obj(rng.randint(1, max_rank))
        strategy = idx % 3
        if strategy == 0:
            left, right = _pullback_fillers(model, rng, bases, perm, hub,
                                            entry_bound)
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


def staircase_diagram(p: Loop, witness: StaircaseWitness) -> Diagram:
    """The solved staircase of a loop as a checkable diagram: the ladder of
    mix and coevaluation edges with the witness fillers pointing at the
    apex object.  Commutation of this diagram is exactly the staircase
    condition."""
    from .traces import pairing_form

    model = p.model
    dims = [u.rank for u in p.hidden]
    k = p.k
    ba = p.cod.rank * p.dom.rank
    suffix = [prod(d * d for d in dims[i:]) for i in range(k + 1)]
    objects: List[Obj] = [Obj(s) for s in suffix]          # tensor levels
    objects += [Obj(dims[i] ** 2 * suffix[i + 1]) for i in range(k)]
    objects.append(Obj(ba))                                # apex
    apex_idx = len(objects) - 1

    def t_idx(i: int) -> int:
        return i

    def l_idx(i: int) -> int:
        return (k + 1) + i

    edges: List[Edge] = []
    for i in range(k):
        u = p.hidden[i]
        rest = identity(model, Obj(suffix[i + 1]))
        edges.append(Edge(t_idx(i), l_idx(i),
                          tensor_mor(canonical_map(model, "mix_map", [u, u]),
                                     rest),
                          f"mix-{i}"))
        edges.append(Edge(t_idx(i + 1), l_idx(i),
                          tensor_mor(canonical_map(model, "coev", [u]), rest),
                          f"coev-{i}"))
        edges.append(Edge(l_idx(i), apex_idx, witness.fillers[i],
                          f"filler-{i}"))
    edges.append(Edge(t_idx(0), apex_idx, pairing_form(p), "pairing"))
    edges.append(Edge(t_idx(k), apex_idx, witness.psi, "psi"))
    return Diagram(model, tuple(objects), tuple(edges))
