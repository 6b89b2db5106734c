"""Finite-diagram commutation checking and the contractible zig-zag
condition, including the counterexample search for the m = 0 model.

A diagram is a labelled multigraph of objects and morphisms; it commutes
when all simple directed paths between any two nodes compose to the same
matrix and all simple cycles compose to the identity (so isomorphism
edges, stored in both orientations, behave like the unoriented lines they
stand for).  ``diagram_commutes`` checks every edge against one tree of
composites per source node: O(V * E) composites, with no path limit.  A
failure is reported as two parallel simple paths with unequal composites.

A zig-zag instance is a diagram whose last two edges, the bottom
symmetry, turn the premise into the conclusion; the premise is checked as
the edge prefix before them.  Once it commutes, only the trees that reach
the bottom symmetry can change, so the conclusion re-grows just the
premise trees that reach it, which the premise's check names.  Everything
of the diagram but the hub and the fillers depends only on the instance's
objects, maps and permutation: ``build_zigzag_frame`` builds that part,
the frame, with Id (x) f (x) Id whiskered by block copy
(``category.whisker``) and a slot per filler.  The hub is a sink that only
fillers enter, so a walk grows each tree over the frame's edges, checking
them, and keeps the path composite P_s(u) at each slot's tail; a replay
checks fillers f by the products f . P_s(u) alone, and no diagram with
the hub is ever built.  ``_shape_walks`` builds a frame with its premise
and conclusion walks, and ``check_zigzag_instance`` replays them with the
instance's fillers.  A search's samples are mix/coevaluation instances
whose base ranks and permutation, the shape, fix all but the hub and
fillers: it builds each shape it meets, with its walks, once per call
(``_corollary_shape``), replays them with each sample's fillers and makes
only the witness it returns an instance.

The module builds on ``category`` and ``loops`` only; ``traces`` draws a
free trace's staircase witness as a diagram and checks it here.
"""

from __future__ import annotations

import random
from itertools import tee
from math import prod
from typing import Dict, List, Optional, Sequence, Tuple

from .category import (Mor, Model, Obj, canonical_map, check_entry_count,
                       compose, dual_mor, factor_permutation, identity,
                       obj_tensor, random_mor, regroup, tensor_mor, whisker,
                       zero_mor)
from .errors import InputError, ResourceLimitError
from .loops import Permutation
from .rings import Value


class Edge(Value):
    __slots__ = ("src", "dst", "mor", "label")

    def __init__(self, src: int, dst: int, mor: Mor, label: str = ""):
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "mor", mor)
        object.__setattr__(self, "label", label)


class Diagram(Value):
    __slots__ = ("model", "objects", "edges")

    def __init__(self, model: Model, objects: Sequence[Obj],
                 edges: Sequence[Edge]):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "objects", tuple(objects))
        object.__setattr__(self, "edges", tuple(edges))
        self.__post_init__()

    def __post_init__(self):
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


class CounterPath(Value):
    """Two parallel paths (as edge index sequences) with unequal
    composites."""

    __slots__ = ("src", "dst", "path_a", "path_b", "value_a", "value_b")

    def __init__(self, src: int, dst: int, path_a: Tuple[int, ...],
                 path_b: Tuple[int, ...], value_a: Mor, value_b: Mor):
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "path_a", path_a)
        object.__setattr__(self, "path_b", path_b)
        object.__setattr__(self, "value_a", value_a)
        object.__setattr__(self, "value_b", value_b)


def diagram_commutes(d: Diagram):
    """True iff the diagram commutes; otherwise one offending pair.

    From each source a depth-first tree of composites P grows (the identity
    at the source), and every edge e: u -> v must satisfy e . P(u) = P(v).
    A failing edge names the tree path to v against the tree path to u
    plus e or, when v lies inside the latter, that cycle at v against the
    identity."""
    found = _replay(d.objects, _walk(d.model, d.objects, d.edges), None)
    return found if isinstance(found, CounterPath) else True


def _walk(model: Model, objects: Sequence[Obj], edges: Sequence[object],
          tails=()):
    """The events of each node's tree, by source in ascending order, in the
    diagram of ``objects`` and ``edges``: ``Edge``s and filler slots
    (u, side, k) into a sink after ``objects``.  A tree grows over the
    ``Edge``s, its composite P implicit at the source, and yields per slot
    met (index, side, k, the nonzeros (column, entry) per row of P_s(u) or
    None at the source, path to u); then the first failing edge's
    ``CounterPath`` or whether the tree holds a node of ``tails``.  Each
    source's events are a ``tee`` never advanced: each ``__copy__`` replays
    them, and the tree grows only as far as a replay has asked."""
    adjacency: Dict[int, List[Tuple[int, object]]] = {}
    for idx, e in enumerate(edges):
        adjacency.setdefault(e.src if type(e) is Edge else e[0],
                             []).append((idx, e))

    def grow(src: int):
        tree = {src: (None, ())}
        stack = [src]
        while stack:
            u = stack.pop()
            comp, path = tree[u]
            for idx, e in adjacency.get(u, []):
                if type(e) is not Edge:  # a slot, filled at replay
                    nonzeros = None if comp is None else tuple(
                        tuple((j, x) for j, x in enumerate(row) if x)
                        for row in comp.entries)
                    yield idx, e[1], e[2], nonzeros, path
                    continue
                value = e.mor if comp is None else compose(e.mor, comp)
                via = path + (idx,)
                at_v = tree.get(e.dst)
                if at_v is None:
                    tree[e.dst] = (value, via)
                    stack.append(e.dst)
                elif at_v[0] is None:  # back at the source
                    if not _is_identity(value.entries):
                        return _counter_pair(model, objects, edges, src, at_v,
                                             via, value)
                elif value.entries != at_v[0].entries:
                    return _counter_pair(model, objects, edges, src, at_v,
                                         via, value)
        return any(t in tree for t in tails)

    def events(src: int):  # the tree is dropped before the last event
        yield (yield from grow(src))

    return {src: tee(events(src), 1)[0] for src in range(len(objects))}


def _replay(objects: Sequence[Obj], walk, fillers, sources=None):
    """A walk's check over ``sources``, by default every source, with slot
    (u, side, k) filled by ``fillers[side][k]`` times P_s(u), in
    ``compose``'s order: the first failing pair or the sources whose tree
    holds a tail."""
    reached = []
    for src in walk if sources is None else sources:
        first, width = None, objects[src].rank
        for event in walk[src].__copy__():
            if type(event) is not tuple:
                break
            idx, side, k, nonzeros, path = event
            f = fillers[side][k]
            rows = list(f.entries)
            if nonzeros is not None:
                for i, frow in enumerate(f.entries):
                    acc = [0] * width
                    for x, row in zip(frow, nonzeros):
                        if x:
                            for j, y in row:
                                acc[j] += x * y
                    rows[i] = tuple(acc)
            if first is None:
                first = (rows, path + (idx,))
            elif rows != first[0]:
                return CounterPath(src, len(objects), first[1], path + (idx,),
                                   *(Mor(f.model, objects[src], f.cod,
                                         tuple(r)) for r in (first[0], rows)))
        if isinstance(event, CounterPath):
            return event
        if event:
            reached.append(src)
    return reached


def _is_identity(entries) -> bool:
    return all(row[i] == 1 and not any(row[:i]) and not any(row[i + 1:])
               for i, row in enumerate(entries))


def _counter_pair(model: Model, objects: Sequence[Obj], edges, src: int,
                  at_v, via: Tuple[int, ...], value: Mor) -> CounterPath:
    v = edges[via[-1]].dst
    inner = [edges[i].dst for i in via[:-1]]
    if v == src or v not in inner:
        ref = at_v[0]
        if ref is None:
            ref = identity(model, objects[src])
        return CounterPath(src, v, at_v[1], via, ref, value)
    cycle = via[inner.index(v) + 1:]
    ident = value = identity(model, objects[v])
    for idx in cycle:
        value = compose(edges[idx].mor, value)
    return CounterPath(v, v, (), cycle, ident, value)


class ZigZagInstance(Value):
    """The data of one contractible zig-zag check.

    ``down_maps[i]``: upper_i -> apex_i and ``up_maps[i]``: lower_i ->
    apex_i are the two morphism tuples; fillers map the top level (tensor
    of the upper objects) and each apex level into the hub object, one
    collection per column, the right column running through the
    permutation.
    """

    __slots__ = ("model", "upper", "apex", "lower", "down_maps", "up_maps",
                 "perm", "hub", "left_fillers", "right_fillers")

    def __init__(self, model: Model, upper: Sequence[Obj],
                 apex: Sequence[Obj], lower: Sequence[Obj],
                 down_maps: Sequence[Mor], up_maps: Sequence[Mor],
                 perm: Permutation, hub: Obj, left_fillers: Sequence[Mor],
                 right_fillers: Sequence[Mor]):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "upper", tuple(upper))
        object.__setattr__(self, "apex", tuple(apex))
        object.__setattr__(self, "lower", tuple(lower))
        object.__setattr__(self, "down_maps", tuple(down_maps))
        object.__setattr__(self, "up_maps", tuple(up_maps))
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "hub", hub)
        object.__setattr__(self, "left_fillers", tuple(left_fillers))
        object.__setattr__(self, "right_fillers", tuple(right_fillers))
        self.__post_init__()

    def __post_init__(self):
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
        for name in ("down_maps", "up_maps", "left_fillers", "right_fillers"):
            for k, f in enumerate(getattr(self, name)):
                if f.model != self.model:
                    raise InputError(f"{name}[{k}] is in the wrong model")


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


class ZigZagOutcome(Value):
    """``status`` is "premise_fails", "holds" or "violated"."""

    __slots__ = ("status", "counter")

    def __init__(self, status: str, counter: Optional[CounterPath] = None):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "counter", counter)


# A frame: the objects below the hub and the edges in diagram order, each
# filler edge a slot (src, side, k) for the side's filler k.
Frame = Tuple[Tuple[Obj, ...], Tuple[object, ...]]


def build_zigzag_frame(model: Model, upper: Sequence[Obj],
                       lower: Sequence[Obj], downs: Sequence[Mor],
                       ups: Sequence[Mor], perm: Permutation,
                       levels: Dict[str, Tuple[List[int], List[int]]]
                       ) -> Frame:
    """Everything of a zig-zag diagram but its hub and fillers, which the
    objects, the two map tuples and the permutation fix (the apex objects
    enter through ``levels`` and the maps' codomains): left X levels
    0..n and apex levels 1..n, the same on the right, and the edges,
    each side's whiskered down and up maps followed by its filler slots,
    then the top symmetry and, last, the bottom symmetry, each with its
    inverse (the transpose of a permutation matrix)."""
    n = len(upper)
    objects: List[Obj] = []
    for side in ("left", "right"):
        x_levels, fillers = levels[side]
        objects += [Obj(r) for r in x_levels] + [Obj(r) for r in fillers[1:]]

    def x_idx(side: str, i: int) -> int:
        return (0 if side == "left" else 2 * n + 1) + i

    def a_idx(side: str, k: int) -> int:
        return (0 if side == "left" else 2 * n + 1) + (n + 1) + (k - 1)

    edges: List[object] = []
    for side, order in (("left", range(n)), ("right", perm.images)):
        for k in range(1, n + 1):
            i = order[k - 1]
            pre = obj_tensor(*(lower[j] for j in order[:k - 1]))
            post = obj_tensor(*(upper[j] for j in order[k:]))
            edges.append(Edge(x_idx(side, k - 1), a_idx(side, k),
                              whisker(pre, downs[i], post),
                              f"{side}-down-{k}"))
            edges.append(Edge(x_idx(side, k), a_idx(side, k),
                              whisker(pre, ups[i], post), f"{side}-up-{k}"))
        edges.append((x_idx(side, 0), side, 0))
        edges += [(a_idx(side, k), side, k) for k in range(1, n + 1)]

    for name, objs, i in (("top", upper, 0), ("bottom", lower, n)):
        iso = factor_permutation(model, [o.rank for o in objs], perm.images)
        edges.append(Edge(x_idx("left", i), x_idx("right", i), iso,
                          f"{name}-iso"))
        edges.append(Edge(x_idx("right", i), x_idx("left", i), dual_mor(iso),
                          f"{name}-iso-inv"))
    return tuple(objects), tuple(edges)


def _shape_walks(model: Model, upper: Sequence[Obj], apex: Sequence[Obj],
                 lower: Sequence[Obj], downs: Sequence[Mor],
                 ups: Sequence[Mor], perm: Permutation):
    """Each side's filler domain ranks of a zig-zag with these objects,
    maps and permutation, its frame, and the frame's premise walk, over
    all edges but the bottom symmetry with its tails, and conclusion walk,
    over every edge."""
    levels = level_ranks(upper, apex, lower, perm)
    frame = build_zigzag_frame(model, upper, lower, downs, ups, perm, levels)
    objects, edges = frame
    return ((levels["left"][1], levels["right"][1]), frame,
            _walk(model, objects, edges[:-2], {e.src for e in edges[-2:]}),
            _walk(model, objects, edges))


def check_zigzag_instance(inst: ZigZagInstance) -> ZigZagOutcome:
    """Replay the walks of the instance's frame with its fillers, as the
    search checks a sample."""
    _, frame, premise, conclusion = _shape_walks(
        inst.model, inst.upper, inst.apex, inst.lower, inst.down_maps,
        inst.up_maps, inst.perm)
    return _check_zigzag(frame[0], premise, conclusion, {
        "left": inst.left_fillers, "right": inst.right_fillers})


def _check_zigzag(objects: Sequence[Obj], premise, conclusion,
                  fillers) -> ZigZagOutcome:
    """Check the premise over every node's tree; if it commutes, re-check
    over every edge just the trees that held a tail of the bottom symmetry.
    A path that reaches such a tail reaches its first one over premise
    edges, so every other tree never uses the bottom symmetry and stays the
    premise's.  Sources are taken in ascending order, so the failure, if
    any, is the one a full check of the whole diagram reports."""
    found = _replay(objects, premise, fillers)
    if isinstance(found, CounterPath):
        return ZigZagOutcome("premise_fails", found)
    found = _replay(objects, conclusion, fillers, found)
    if isinstance(found, CounterPath):
        return ZigZagOutcome("violated", found)
    return ZigZagOutcome("holds")


class SearchResult(Value):
    __slots__ = ("status", "instance", "stats", "samples")

    def __init__(self, status: str, instance: Optional[ZigZagInstance],
                 stats: Dict[str, int], samples: int):
        object.__setattr__(self, "status", status)  # "violated" | "none_found"
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "stats", stats)
        object.__setattr__(self, "samples", samples)


def _corollary_shape(model: Model, ranks: Tuple[int, ...],
                     images: Tuple[int, ...],
                     structure: Dict[int, Tuple[Mor, Mor]]):
    """Everything of a mix/coevaluation instance that its base ranks and
    permutation images fix: its objects, maps and permutation (the first
    seven instance fields; the down maps are mix maps of A_i with its dual
    and the up maps coevaluations), then what ``_shape_walks`` builds from
    them: each side's filler domain ranks, the frame and the frame's
    premise and conclusion walks.  ``structure`` holds the pair (mix map,
    coevaluation) per base rank, built on first use."""
    for r in ranks:
        if r not in structure:
            b = Obj(r)
            structure[r] = (canonical_map(model, "mix_map", [b, b]),
                            canonical_map(model, "coev", [b]))
    upper = apex = tuple(Obj(r * r) for r in ranks)
    lower = (Obj(1),) * len(ranks)
    downs = tuple(structure[r][0] for r in ranks)
    ups = tuple(structure[r][1] for r in ranks)
    fields = (model, upper, apex, lower, downs, ups, Permutation(images))
    return (fields, *_shape_walks(*fields))


def _pullback_pieces(model: Model, ranks: Tuple[int, ...], perm: Permutation,
                     structure: Dict[int, Tuple[Mor, Mor]]):
    """Per side, the maps from each filler level to the tensor of the apex
    objects (in ``ranks`` order) that a pullback filler composes with:
    coevaluations below the level and mix maps above it."""
    n = len(ranks)

    def side_pieces(side_ranks, reorder: Optional[Sequence[int]]):
        out = []
        for k in range(0, n + 1):
            pieces = identity(model, Obj(1))
            for j, r in enumerate(side_ranks):
                if k == 0 or j + 1 > k:
                    piece = structure[r][0]
                elif j + 1 < k:
                    piece = structure[r][1]
                else:
                    piece = identity(model, Obj(r * r))
                pieces = tensor_mor(pieces, piece)
            if reorder is not None:  # apex factors back in ``ranks`` order
                pieces = regroup(pieces, [r * r for r in side_ranks],
                                 [pieces.dom.rank], reorder, [n])
            out.append(pieces)
        return tuple(out)

    return (side_pieces(ranks, None),
            side_pieces(perm.apply(ranks), perm.inverse().images))


# The most tree work (nodes times edges) one shape's walk may do; see
# _check_search_size.
_SEARCH_TREE_BOUND = 10 ** 4


def _check_search_size(n: int, max_rank: int, budget: int) -> None:
    """Raise ResourceLimitError when the largest matrix a search at these
    sizes can build has more than ``ENTRY_BOUND`` entries.  That is a map
    out of the top level, of rank up to max_rank^(2n), to itself or to the
    hub, of rank up to max_rank: max_rank^(4n) entries for n >= 1,
    max_rank for n = 0.  When the search takes a sample, also raise it
    when a shape's walk, one tree per node, each over every edge, does
    more than ``_SEARCH_TREE_BOUND`` node-edge steps: a diagram at n has
    4n + 3 nodes and 6n + 6 edges, whatever the ranks."""
    check_entry_count(max_rank, 4 * n or 1, f"a zig-zag search at n = {n} "
                      f"and max_rank {max_rank}")
    nodes, edges = 4 * n + 3, 6 * n + 6
    if budget and nodes * edges > _SEARCH_TREE_BOUND:
        raise ResourceLimitError(
            f"a zig-zag search at n = {n} checks diagrams of {nodes} nodes "
            f"and {edges} edges, {nodes * edges} node-edge steps per "
            f"sample, more than the bound {_SEARCH_TREE_BOUND}")


def search_counterexample(model: Model, n: int, max_rank: int,
                          entry_bound: int = 2, seed: int = 0,
                          budget: int = 200) -> SearchResult:
    """Sample mix/coevaluation zig-zag instances and look for a violation.

    Rotates three filler strategies: a consistent pullback collection
    (exercising the Holds branch), a zero-top collection (the family that
    violates contractibility when m = 0), and fully random fillers.
    Everything but a sample's hub and fillers depends only on its shape,
    the base ranks and the permutation, so each shape is built once per
    call (``_corollary_shape``).  A sample is checked by replaying its
    shape's walks with its fillers; only the violated sample it returns
    is made an instance.
    """
    if n < 0 or max_rank < 1 or entry_bound < 0 or budget < 0:
        raise InputError("n must be >= 0, max_rank >= 1, entry_bound >= 0 "
                         "and budget >= 0")
    _check_search_size(n, max_rank, budget)
    rng = random.Random(f"zigzag:{seed}")
    stats = {"premise_fails": 0, "holds": 0, "violated": 0}
    structure: Dict[int, Tuple[Mor, Mor]] = {}
    shapes: Dict[tuple, tuple] = {}
    pullbacks: Dict[tuple, tuple] = {}
    for idx in range(budget):
        ranks = tuple(rng.randint(1, max_rank) for _ in range(n))
        images = list(range(n))
        rng.shuffle(images)
        key = (ranks, tuple(images))
        if key not in shapes:
            shapes[key] = _corollary_shape(model, *key, structure)
        fields, domains, frame, *walks = shapes[key]
        hub = Obj(rng.randint(1, max_rank))
        strategy = idx % 3
        if strategy == 0:
            # one random map out of the tensor of the apex objects, pulled
            # back to every level: premise-commuting fillers
            if key not in pullbacks:
                pullbacks[key] = _pullback_pieces(model, ranks, fields[6],
                                                  structure)
            rho = random_mor(model, rng, Obj(prod(r * r for r in ranks)),
                             hub, entry_bound)
            left, right = (tuple(compose(rho, p) for p in side)
                           for side in pullbacks[key])
        else:
            left, right = (tuple(
                zero_mor(model, Obj(r), hub) if strategy == 1 and k == 0
                else random_mor(model, rng, Obj(r), hub, entry_bound)
                for k, r in enumerate(side)) for side in domains)
        outcome = _check_zigzag(frame[0], *walks,
                                {"left": left, "right": right})
        stats[outcome.status] += 1
        if outcome.status == "violated":
            witness = ZigZagInstance(*fields, hub, left, right)
            return SearchResult("violated", witness, stats, idx + 1)
    return SearchResult("none_found", None, stats, budget)
