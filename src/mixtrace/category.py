"""Strict matrix models of *-autonomous Mix-categories.

Objects are bare ranks.  Tensor and cotensor coincide on data: ranks
multiply, morphisms Kronecker-multiply under a single row-major flattening
(the basis index of A(x)B at (i,j) is i*rank(B)+j), and every object is its
own dual.  What distinguishes the two monoidal roles is the mix structure,
a single ring scalar m: the unit map bot -> 1 is [[m]], the mix map
A(x)B -> A par B is m*Id, and a model is compact exactly when m is a unit
of its ring.

With the flattening fixed, both weak distributivities are identity
reindexings, and the symmetries, the duality, the closure bijection and
hidden relabelling are reindexings too: ``regroup`` applies each by moving
entries, and ``_flat_offsets``, shared with ``factor_permutation``, is the
one place that computes a reindexing's positions.  Only the mix scalar
does arithmetic.  Any composite of distributivities and symmetries between
fixed shapes is a single canonical permutation; ``validate_coherence``
checks all of this by explicit matrix composition.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from typing import Iterable, List, Sequence, Tuple

from .errors import InputError
from .rings import Number, RingTag, format_value, is_unit, ring_contains


def _canon(x) -> Number:
    """Normalize an entry: exact int or Fraction, ints preferred."""
    if isinstance(x, bool):
        raise InputError("matrix entries must be exact numbers, not bool")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise InputError(f"matrix entries must be int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class Model:
    """A matrix model: a base ring together with the mix scalar m."""

    ring: RingTag
    mix: Number

    def __post_init__(self):
        object.__setattr__(self, "mix", _canon(self.mix))
        if not ring_contains(self.ring, self.mix):
            raise InputError(f"mix scalar {self.mix} is not in {self.ring}")

    @property
    def is_compact(self) -> bool:
        return is_unit(self.ring, self.mix)

    def __str__(self):
        return f"({self.ring}, mix={format_value(self.mix)})"


@dataclass(frozen=True)
class Obj:
    """An object of the strict self-dual model: a non-negative rank."""

    rank: int

    def __post_init__(self):
        if not isinstance(self.rank, int) or self.rank < 0:
            raise InputError("object rank must be a non-negative integer")


UNIT = Obj(1)  # the monoidal unit; the dualizing object has the same rank


def obj_tensor(*objs: Obj) -> Obj:
    return Obj(prod(o.rank for o in objs))


def dual_obj(a: Obj) -> Obj:
    return a


@dataclass(frozen=True)
class Mor:
    """An exact matrix with declared endpoint ranks, cod.rank rows by
    dom.rank columns, row-major.

    Entries are trusted: ``mor()`` and the JSON loaders check them where
    they enter, and every operation below maps entries of the model's ring
    to entries of that ring.  Only the shape is checked here.
    """

    model: Model
    dom: Obj
    cod: Obj
    entries: Tuple[Tuple[Number, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.cod.rank:
            raise InputError(
                f"expected {self.cod.rank} rows, got {len(self.entries)}")
        for row in self.entries:
            if len(row) != self.dom.rank:
                raise InputError(
                    f"expected {self.dom.rank} columns, got {len(row)}")

    def __str__(self):
        if not self.entries:
            return f"(empty {self.cod.rank}x{self.dom.rank})"
        return "\n".join(" ".join(format_value(x) for x in row)
                         for row in self.entries)


def mor(model: Model, dom: Obj, cod: Obj, rows: Iterable[Iterable[Number]]) -> Mor:
    """The validating constructor: each entry is normalized and checked to
    lie in the model's ring."""
    f = Mor(model, dom, cod, tuple(tuple(_canon(x) for x in r) for r in rows))
    for row in f.entries:
        for x in row:
            if not ring_contains(model.ring, x):
                raise InputError(f"entry {x} is not in {model.ring}")
    return f


def identity(model: Model, a: Obj) -> Mor:
    n = a.rank
    rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return Mor(model, a, a, rows)


def zero_mor(model: Model, dom: Obj, cod: Obj) -> Mor:
    rows = tuple((0,) * dom.rank for _ in range(cod.rank))
    return Mor(model, dom, cod, rows)


def _require_same_model(f: Mor, g: Mor) -> None:
    if f.model != g.model:
        raise InputError("morphisms belong to different models")


def compose(g: Mor, f: Mor) -> Mor:
    """Matrix product g*f; zero entries are skipped so permutation-heavy
    composites stay cheap."""
    _require_same_model(f, g)
    if f.cod.rank != g.dom.rank:
        raise InputError(
            f"cannot compose: middle ranks {g.dom.rank} vs {f.cod.rank}")
    fent = f.entries
    width = f.dom.rank
    rows = []
    for grow in g.entries:
        acc = [0] * width
        for k, gv in enumerate(grow):
            if gv:
                for j, fv in enumerate(fent[k]):
                    if fv:
                        acc[j] += gv * fv
        rows.append(tuple(acc))
    return Mor(g.model, f.dom, g.cod, tuple(rows))


def tensor_mor(f: Mor, g: Mor) -> Mor:
    """Kronecker product under the global flattening."""
    _require_same_model(f, g)
    gw = g.dom.rank
    width = f.dom.rank * gw
    rows = []
    for frow in f.entries:
        for grow in g.entries:
            row = [0] * width
            for j, fv in enumerate(frow):
                if fv:
                    base = j * gw
                    for l, gv in enumerate(grow):
                        if gv:
                            row[base + l] = fv * gv
            rows.append(tuple(row))
    return Mor(f.model, obj_tensor(f.dom, g.dom), obj_tensor(f.cod, g.cod),
               tuple(rows))


def _flat_offsets(dims: Sequence[int], slots: Sequence[int]) -> List[int]:
    """For every index tuple over ``slots``, taken row-major in the order
    given, its row-major position among the index tuples of all of
    ``dims`` (the other slots held at 0)."""
    offsets = [0]
    for s in slots:
        stride = prod(dims[s + 1:])
        offsets = [o + x * stride for o in offsets for x in range(dims[s])]
    return offsets


def regroup(f: Mor, row_dims: Sequence[int], col_dims: Sequence[int],
            rows: Sequence[int], cols: Sequence[int]) -> Mor:
    """Reindex f as a tensor: its rows flatten factors of ranks
    ``row_dims`` and its columns factors of ranks ``col_dims``, slots
    numbered rows first.  The result's rows flatten the slots ``rows`` and
    its columns the slots ``cols``, each in the order listed.  Symmetries,
    duality, currying and hidden relabelling are all of this form."""
    dims = [*row_dims, *col_dims]
    if prod(row_dims) != f.cod.rank or prod(col_dims) != f.dom.rank:
        raise InputError("regroup: factor ranks do not match the matrix")
    if sorted([*rows, *cols]) != list(range(len(dims))):
        raise InputError("regroup: rows and cols must split the slots")
    flat = list(itertools.chain.from_iterable(f.entries))
    col_offsets = _flat_offsets(dims, cols)
    entries = tuple(tuple([flat[r + c] for c in col_offsets])
                    for r in _flat_offsets(dims, rows))
    return Mor(f.model, Obj(len(col_offsets)), Obj(len(entries)), entries)


def dual_mor(f: Mor) -> Mor:
    """The contravariant duality: transpose, with endpoints swapped."""
    return regroup(f, [f.cod.rank], [f.dom.rank], [1], [0])


def mor_scale(f: Mor, c: Number) -> Mor:
    rows = tuple(tuple(_canon(x * c) for x in row) for row in f.entries)
    return Mor(f.model, f.dom, f.cod, rows)


def factor_permutation(model: Model, dims: Sequence[int],
                       pos_map: Sequence[int]) -> Mor:
    """Permutation matrix reordering tensor factors of the given ranks.

    Target slot i carries source factor pos_map[i]; row-major flattening on
    both sides.
    """
    if sorted(pos_map) != list(range(len(dims))):
        raise InputError("pos_map must be a permutation of the factor slots")
    n = prod(dims)
    rows = []
    for s in _flat_offsets(dims, pos_map):
        row = [0] * n
        row[s] = 1
        rows.append(tuple(row))
    return Mor(model, Obj(n), Obj(n), tuple(rows))


# Canonical structure maps.  Kinds and their parameter arities:
CANONICAL_ARITY = {
    "symmetry": 2,            # A(x)B -> B(x)A
    "par_symmetry": 2,        # A par B -> B par A
    "coev": 1,                # 1 -> A par A*
    "ev": 1,                  # A(x)A* -> bot
    "mixed_ev": 1,            # mix . ev : A(x)A* -> 1
    "mix": 0,                 # bot -> 1
    "mix_map": 2,             # A(x)B -> A par B
    "mixed_symmetry": 2,      # A(x)B -> B par A
    "distributivity": 3,      # A(x)(B par C) -> (A(x)B) par C
    "right_distributivity": 3,  # (A par B)(x)C -> A par (B(x)C)
    "times_rule": 4,          # (A par B)(x)(C par D) -> (A(x)C) par B par D
}


def canonical_map(model: Model, kind: str, params: Sequence[Obj]) -> Mor:
    """The matrix of a named structure map of the model."""
    if kind not in CANONICAL_ARITY:
        raise InputError(f"unknown canonical map {kind!r}")
    if len(params) != CANONICAL_ARITY[kind]:
        raise InputError(
            f"{kind} takes {CANONICAL_ARITY[kind]} objects, got {len(params)}")
    if kind == "symmetry" or kind == "par_symmetry":
        a, b = params
        return factor_permutation(model, [a.rank, b.rank], [1, 0])
    if kind == "coev":
        (a,) = params
        return regroup(identity(model, a), [a.rank], [a.rank], [0, 1], [])
    if kind == "ev":
        (a,) = params
        return dual_mor(canonical_map(model, "coev", [a]))
    if kind == "mixed_ev":
        (a,) = params
        return mor_scale(canonical_map(model, "ev", [a]), model.mix)
    if kind == "mix":
        return Mor(model, UNIT, UNIT, ((model.mix,),))
    if kind == "mix_map":
        a, b = params
        return mor_scale(identity(model, obj_tensor(a, b)), model.mix)
    if kind == "mixed_symmetry":
        a, b = params
        return mor_scale(canonical_map(model, "symmetry", [a, b]), model.mix)
    if kind == "distributivity":
        a, b, c = params
        return identity(model, obj_tensor(a, b, c))
    if kind == "right_distributivity":
        a, b, c = params
        return identity(model, obj_tensor(a, b, c))
    # times_rule: the composite of symmetries and distributivities
    # (Id par tau) . (delta par Id) . tau . delta_R . (tau (x) Id),
    # which any other composite of the same shape must equal.
    a, b, c, d = params
    ar, br, cr, dr = a.rank, b.rank, c.rank, d.rank
    step1 = factor_permutation(model, [ar, br, cr, dr], [1, 0, 2, 3])
    step3 = factor_permutation(model, [br, ar * cr * dr], [1, 0])
    step5 = factor_permutation(model, [ar * cr, dr, br], [0, 2, 1])
    return compose(step5, compose(step3, step1))


def curry(f: Mor, a: Obj, b: Obj, c: Obj) -> Mor:
    """The closure bijection sending f: A(x)B -> C to A -> C par B*.

    A pure reindexing: entry[(c,b), a] = f[c, (a,b)].
    """
    return regroup(f, [c.rank], [a.rank, b.rank], [0, 2], [1])


def uncurry(g: Mor, a: Obj, b: Obj, c: Obj) -> Mor:
    """Inverse of curry: g: A -> C par B* becomes A(x)B -> C."""
    return regroup(g, [c.rank, b.rank], [a.rank], [0], [2, 1])


def contract_hidden(f: Mor, a: Obj, b: Obj, hidden: Sequence[Obj]) -> Mor:
    """Sum the diagonal hidden indices of f: A(x)U1(x)...(x)Uk ->
    B par U1 par ... par Uk, giving a morphism A -> B in the same ring."""
    h = prod(u.rank for u in hidden)
    if f.dom.rank != a.rank * h or f.cod.rank != b.rank * h:
        raise InputError("contract_hidden: shape mismatch")
    ent = f.entries
    rows = tuple(
        tuple(sum(ent[y * h + t][x * h + t] for t in range(h))
              for x in range(a.rank))
        for y in range(b.rank))
    return Mor(f.model, a, b, rows)


def random_mor(model: Model, rng: random.Random, dom: Obj, cod: Obj,
               bound: int = 3) -> Mor:
    rows = tuple(tuple(rng.randint(-bound, bound) for _ in range(dom.rank))
                 for _ in range(cod.rank))
    return Mor(model, dom, cod, rows)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def to_dict(self):
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class ValidationReport:
    description: str
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def record(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, passed, detail))

    def to_dict(self):
        return {
            "description": self.description,
            "ok": self.ok,
            "checks": [c.to_dict() for c in self.checks],
        }


def _alt_times_rule_composites(model: Model, a: Obj, b: Obj, c: Obj,
                               d: Obj) -> List[Mor]:
    """Two further composites of distributivities and symmetries with the
    times_rule shape, built along genuinely different routes."""
    ar, br, cr, dr = a.rank, b.rank, c.rank, d.rank
    # Route 2: swap the two tensor factors, apply the canonical shuffle
    # there, then repair with a symmetry on A,C and on B,D.
    swap = factor_permutation(model, [ar * br, cr * dr], [1, 0])
    shuffled = compose(canonical_map(model, "times_rule", [c, d, a, b]), swap)
    fix_ca = tensor_mor(canonical_map(model, "symmetry", [c, a]),
                        identity(model, Obj(dr * br)))
    fix_db = tensor_mor(identity(model, Obj(ar * cr)),
                        factor_permutation(model, [dr, br], [1, 0]))
    comp2 = compose(fix_db, compose(fix_ca, shuffled))
    # Route 3: through the right distributivity on the swapped factors.
    s1 = factor_permutation(model, [ar * br, cr * dr], [1, 0])
    s2 = tensor_mor(canonical_map(model, "par_symmetry", [c, d]),
                    identity(model, Obj(ar * br)))
    # right_distributivity and distributivity are identity reindexings
    s4 = tensor_mor(identity(model, Obj(dr)),
                    tensor_mor(canonical_map(model, "distributivity",
                                             [c, a, b]),
                               identity(model, UNIT)))
    s5 = factor_permutation(model, [dr, cr * ar * br], [1, 0])
    s6 = tensor_mor(canonical_map(model, "symmetry", [c, a]),
                    identity(model, Obj(br * dr)))
    comp3 = compose(s6, compose(s5, compose(s4, compose(s2, s1))))
    return [comp2, comp3]


def validate_coherence(model: Model, max_rank: int, seed: int = 0) -> ValidationReport:
    """Exhaustively check the structural coherence of the model at all
    object ranks <= max_rank.

    Covers: the mix unit square; both mix-distributivity triangles; the
    evaluation/coevaluation symmetry identities; the currying triangle on
    random morphisms; agreement of the distributivities with their
    bijection-based definitions; the mix map against its defining
    composite; and equality of three distinct distributivity/symmetry
    composition orders with the canonical times_rule map.
    """
    if max_rank < 1:
        raise InputError("max_rank must be >= 1")
    rng = random.Random(f"coherence:{seed}")
    report = ValidationReport(f"coherence of {model} at ranks <= {max_rank}")
    ranks = [Obj(r) for r in range(0, max_rank + 1)]

    mix = canonical_map(model, "mix", [])
    lhs = tensor_mor(mix, identity(model, UNIT))
    rhs = tensor_mor(identity(model, UNIT), mix)
    report.record("mix-unit-square", lhs.entries == rhs.entries)

    ok, detail = True, ""
    for a in ranks:
        ev = canonical_map(model, "ev", [a])
        coev = canonical_map(model, "coev", [a])
        sig = canonical_map(model, "symmetry", [a, a])
        tau = canonical_map(model, "par_symmetry", [a, a])
        if compose(ev, sig).entries != ev.entries:
            ok, detail = False, f"ev symmetry fails at rank {a.rank}"
            break
        if compose(tau, coev).entries != coev.entries:
            ok, detail = False, f"coev symmetry fails at rank {a.rank}"
            break
    report.record("dual-ev-coev-symmetry", ok, detail)

    ok, detail = True, ""
    for a, b in itertools.product(ranks, repeat=2):
        direct = canonical_map(model, "mix_map", [a, b])
        inner = tensor_mor(identity(model, a),
                           canonical_map(model, "mixed_ev", [b]))
        via_curry = curry(inner, obj_tensor(a, b), b, a)
        if direct.entries != via_curry.entries:
            ok, detail = False, f"mix map composite fails at {a.rank},{b.rank}"
            break
        msym = canonical_map(model, "mixed_symmetry", [a, b])
        tau = canonical_map(model, "par_symmetry", [a, b])
        sig = canonical_map(model, "symmetry", [a, b])
        other = canonical_map(model, "mix_map", [b, a])
        if compose(tau, direct).entries != msym.entries or \
                compose(other, sig).entries != msym.entries:
            ok, detail = False, f"mixed symmetry fails at {a.rank},{b.rank}"
            break
    report.record("mix-map-definition", ok, detail)

    ok, detail = True, ""
    for a, b, c in itertools.product(ranks, repeat=3):
        delta = canonical_map(model, "distributivity", [a, b, c])
        left = compose(delta, tensor_mor(identity(model, a),
                                         canonical_map(model, "mix_map", [b, c])))
        if left.entries != canonical_map(model, "mix_map",
                                         [obj_tensor(a, b), c]).entries:
            ok, detail = False, f"first triangle fails at {a.rank},{b.rank},{c.rank}"
            break
        right = compose(tensor_mor(canonical_map(model, "mix_map", [a, b]),
                                   identity(model, c)), delta)
        if right.entries != canonical_map(model, "mix_map",
                                          [a, obj_tensor(b, c)]).entries:
            ok, detail = False, f"second triangle fails at {a.rank},{b.rank},{c.rank}"
            break
    report.record("mix-distributivity-triangles", ok, detail)

    ok, detail = True, ""
    for a, b, c in itertools.product(ranks, repeat=3):
        expected = identity(model, obj_tensor(a, b, c))
        # delta from the closure bijection
        peeled = uncurry(identity(model, obj_tensor(b, c)),
                         obj_tensor(b, c), c, b)
        inner = tensor_mor(identity(model, a), peeled)
        delta = curry(inner, obj_tensor(a, b, c), c, obj_tensor(a, b))
        if delta.entries != expected.entries:
            ok, detail = False, f"distributivity fails at {a.rank},{b.rank},{c.rank}"
            break
        # right distributivity from symmetries and delta
        ar, br, cr = a.rank, b.rank, c.rank
        t1 = factor_permutation(model, [ar * br, cr], [1, 0])
        t2 = tensor_mor(identity(model, c),
                        canonical_map(model, "par_symmetry", [a, b]))
        t4 = factor_permutation(model, [cr * br, ar], [1, 0])
        t5 = tensor_mor(identity(model, a),
                        canonical_map(model, "symmetry", [c, b]))
        dr_alt = compose(t5, compose(t4, compose(t2, t1)))
        if dr_alt.entries != canonical_map(model, "right_distributivity",
                                           [a, b, c]).entries:
            ok, detail = False, f"right distributivity fails at {a.rank},{b.rank},{c.rank}"
            break
    report.record("distributivities-vs-bijection", ok, detail)

    ok, detail = True, ""
    for _ in range(40):
        x, a, b, c = (Obj(rng.randint(0, max_rank)) for _ in range(4))
        phi = random_mor(model, rng, obj_tensor(a, b), c)
        lhs_m = curry(tensor_mor(identity(model, x), phi),
                      obj_tensor(x, a), b, obj_tensor(x, c))
        rhs_m = compose(canonical_map(model, "distributivity", [x, c, b]),
                        tensor_mor(identity(model, x), curry(phi, a, b, c)))
        if lhs_m.entries != rhs_m.entries:
            ok, detail = False, (
                f"currying triangle fails at {x.rank},{a.rank},{b.rank},{c.rank}")
            break
    report.record("currying-triangle", ok, detail)

    ok, detail = True, ""
    for a, b, c, d in itertools.product(ranks, repeat=4):
        target = canonical_map(model, "times_rule", [a, b, c, d])
        direct = factor_permutation(
            model, [a.rank, b.rank, c.rank, d.rank], [0, 2, 1, 3])
        if target.entries != direct.entries:
            ok, detail = False, f"times rule disagrees with direct permutation"
            break
        bad = [m for m in _alt_times_rule_composites(model, a, b, c, d)
               if m.entries != target.entries]
        if bad:
            ok, detail = False, (
                f"composition orders disagree at {a.rank},{b.rank},{c.rank},{d.rank}")
            break
    report.record("shuffle-composition-orders", ok, detail)

    return report
