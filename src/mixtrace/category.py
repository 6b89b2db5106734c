"""Strict matrix models of *-autonomous Mix-categories.

Objects are bare ranks, plain ints: ``check_ranks`` refuses any other
value where a constructor takes ranks from a caller (``mor``, ``Loop``,
``Diagram``, ``ZigZagInstance``), and a rank built from checked ones is
not checked again.  Tensor and cotensor coincide on data: ranks
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
fixed shapes is a single canonical permutation: the times rule composes
it as an index map, the positions ``_flat_offsets`` gives.
``validate_coherence`` checks all of this on the builders' own matrices,
reading a permutation's index map off its matrix where a check composes
permutations alone, and multiplying elsewhere.
"""

from __future__ import annotations

import itertools
import random
from functools import cache
from math import prod
from typing import Iterable, Iterator, List, Sequence, Tuple

from .errors import InputError, ResourceLimitError
from .rings import (Number, RingTag, Value, canonical, echo, format_value,
                    ring_contains)


class Model(Value):
    """A matrix model: a base ring together with the mix scalar m."""

    __slots__ = ("ring", "mix")

    def __init__(self, ring: RingTag, mix: Number):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "mix", canonical(mix, "mix scalars"))
        self.__post_init__()

    def __post_init__(self):
        if not ring_contains(self.ring, self.mix):
            raise InputError(f"mix scalar {echo(str(self.mix), str)} is not "
                             f"in {self.ring}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.ring, self.mix) == (other.ring, other.mix)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.mix))

    def __str__(self):
        return f"({self.ring}, mix={format_value(self.mix)})"


def check_ranks(*ranks) -> None:
    """Refuse a rank that is no non-negative int; a bool is no rank.  The
    constructors that take ranks from a caller, ``mor``, ``Loop``,
    ``Diagram`` and ``ZigZagInstance``, call this, and every rank built
    from checked ones is trusted."""
    for r in ranks:
        if type(r) is not int or r < 0:
            raise InputError("object rank must be a non-negative integer")


class Mor(Value):
    """An exact matrix with declared endpoint ranks, cod rows by dom
    columns, row-major.

    Ranks and entries are trusted: ``mor()`` and the JSON loaders check
    them where they enter, every rank below is a product or a sum of
    checked ones, and every operation maps entries of the model's ring to
    entries of that ring.  Only the shape is checked here.
    """

    __slots__ = ("model", "dom", "cod", "entries")

    def __init__(self, model: Model, dom: int, cod: int,
                 entries: Tuple[Tuple[Number, ...], ...]):
        _set_model(self, model)
        _set_dom(self, dom)
        _set_cod(self, cod)
        _set_entries(self, entries)
        self.__post_init__()

    def __post_init__(self):
        entries, rows, cols = self.entries, self.cod, self.dom
        if len(entries) != rows:
            raise InputError(f"expected {rows} rows, got {len(entries)}")
        for row in entries:
            if len(row) != cols:
                raise InputError(f"expected {cols} columns, got {len(row)}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or (
                (self.model, self.dom, self.cod, self.entries)
                == (other.model, other.dom, other.cod, other.entries))
        return NotImplemented

    def __hash__(self):
        return hash((self.model, self.dom, self.cod, self.entries))


# Mor's slot setters, bound once: Mor is built on every operation, and
# each call skips the attribute lookup of ``object.__setattr__``.
_set_model, _set_dom, _set_cod, _set_entries = (
    Mor.model.__set__, Mor.dom.__set__, Mor.cod.__set__, Mor.entries.__set__)


def mor(model: Model, dom: int, cod: int,
        rows: Iterable[Iterable[Number]]) -> Mor:
    """The validating constructor: the ranks are checked, and each entry
    is normalized and checked to lie in the model's ring."""
    check_ranks(dom, cod)
    f = Mor(model, dom, cod, tuple(tuple(canonical(x) for x in r) for r in rows))
    for row in f.entries:
        for x in row:
            if not ring_contains(model.ring, x):
                raise InputError(
                    f"entry {echo(str(x), str)} is not in {model.ring}")
    return f


def identity(model: Model, a: int) -> Mor:
    return _permutation_mor(model, range(a))


def zero_mor(model: Model, dom: int, cod: int) -> Mor:
    rows = tuple((0,) * dom for _ in range(cod))
    return Mor(model, dom, cod, rows)


def _require_same_model(f: Mor, g: Mor) -> None:
    if f.model != g.model:
        raise InputError("morphisms belong to different models")


def compose(g: Mor, f: Mor) -> Mor:
    """Matrix product g*f; zero entries are skipped so permutation-heavy
    composites stay cheap."""
    _require_same_model(f, g)
    if f.cod != g.dom:
        raise InputError(f"cannot compose: middle ranks {g.dom} vs {f.cod}")
    fent = f.entries
    width = f.dom
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
    gw = g.dom
    width = f.dom * gw
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
    return Mor(f.model, width, f.cod * g.cod, tuple(rows))


def whisker(p: int, f: Mor, q: int) -> Mor:
    """Id_p (x) f (x) Id_q, with f's nonzero entries copied into their
    blocks: row (a, r, b) carries f's row r at the columns (a, c, b).
    Between identities of rank 1 that is f itself."""
    if p == q == 1:
        return f
    fd = f.dom
    width = p * fd * q
    nonzero = [[(c * q, v) for c, v in enumerate(row) if v]
               for row in f.entries]
    rows = []
    for a in range(p):
        base = a * fd * q
        for entries in nonzero:
            for b in range(base, base + q):
                row = [0] * width
                for c, v in entries:
                    row[c + b] = v
                rows.append(tuple(row))
    return Mor(f.model, width, p * f.cod * q, tuple(rows))


def _flat_offsets(dims: Sequence[int], slots: Sequence[int]) -> List[int]:
    """For every index tuple over ``slots``, taken row-major in the order
    given, its row-major position among the index tuples of all of
    ``dims`` (the other slots held at 0)."""
    offsets = [0]
    for s in slots:
        if dims[s] != 1:  # a rank-1 slot moves no offset
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
    if prod(row_dims) != f.cod or prod(col_dims) != f.dom:
        raise InputError("regroup: factor ranks do not match the matrix")
    if sorted([*rows, *cols]) != list(range(len(dims))):
        raise InputError("regroup: rows and cols must split the slots")
    row_offsets = _flat_offsets(dims, rows)
    if not row_offsets:  # no rows: list no column offsets
        return Mor(f.model, prod(dims[s] for s in cols), 0, ())
    flat = list(itertools.chain.from_iterable(f.entries))
    col_offsets = _flat_offsets(dims, cols)
    entries = tuple(tuple([flat[r + c] for c in col_offsets])
                    for r in row_offsets)
    return Mor(f.model, len(col_offsets), len(entries), entries)


def dual_mor(f: Mor) -> Mor:
    """The contravariant duality: transpose, with endpoints swapped."""
    return regroup(f, [f.cod], [f.dom], [1], [0])


def mor_scale(f: Mor, c: Number) -> Mor:
    rows = tuple(tuple(canonical(x * c) for x in row) for row in f.entries)
    return Mor(f.model, f.dom, f.cod, rows)


def factor_permutation(model: Model, dims: Sequence[int],
                       pos_map: Sequence[int]) -> Mor:
    """Permutation matrix reordering tensor factors of the given ranks.

    Target slot i carries source factor pos_map[i]; row-major flattening on
    both sides.
    """
    if sorted(pos_map) != list(range(len(dims))):
        raise InputError("pos_map must be a permutation of the factor slots")
    return _permutation_mor(model, _flat_offsets(dims, pos_map))


# An index map p stands for the permutation matrix whose row i has its 1
# at column p[i].  A matrix that is no permutation matrix has the map None,
# which equals no map, not even another None.

def _permutation_mor(model: Model, p: Sequence[int]) -> Mor:
    """The permutation matrix of the index map p."""
    zeros = (0,) * len(p)
    rows = tuple(zeros[:s] + (1,) + zeros[s + 1:] for s in p)
    return Mor(model, len(p), len(p), rows)


def _index_map(f: Mor):
    """The index map of f, or None when f is not a permutation matrix."""
    n = f.dom
    p = tuple([row.index(1) for row in f.entries
               if row.count(0) == n - 1 and 1 in row])
    return p if len(p) == n == f.cod == len(set(p)) else None


def _after(p, *maps):
    """The index map of the composite p . f . ..., the last map applied
    first: (p . f)[i] = f[p[i]]."""
    for f in maps:
        p = None if p is None or f is None else tuple([f[i] for i in p])
    return p


def _tensor_maps(p, q):
    """The index map of p (x) q: empty when a factor is, as its matrix is."""
    if p is None or q is None:
        return () if () in (p, q) else None
    return tuple([x * len(q) + y for x in p for y in q])


def _same_map(p, *others) -> bool:
    return p is not None and all(q == p for q in others)


class Monomial(Value):
    """A matrix of ``dom`` columns whose row i holds ``scalar`` at column
    ``cols[i]``, a partial index map, and 0 elsewhere; a row whose column
    is None is 0.  Whiskered structure maps such as m*Id and coev (x) Id
    are of this form, and ``serialize.dumps`` writes them from it without
    building a row.  It has no arithmetic; its shape is checked, its
    scalar trusted.  Its rows, ``cod``, are the length of ``cols``."""

    __slots__ = ("scalar", "dom", "cols")

    def __init__(self, scalar: Number, dom: int, cols: Iterable):
        object.__setattr__(self, "scalar", scalar)
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cols", tuple(cols))
        self.__post_init__()

    @property
    def cod(self) -> int:
        return len(self.cols)

    def __post_init__(self):
        w = self.dom
        if any(c is not None and not 0 <= c < w for c in self.cols):
            raise InputError(f"a monomial column outside 0..{w - 1}")


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


def canonical_map(model: Model, kind: str, params: Sequence[int]) -> Mor:
    """The matrix of a named structure map of the model at the object
    ranks ``params``."""
    if kind not in CANONICAL_ARITY:
        raise InputError(f"unknown canonical map {kind!r}")
    if len(params) != CANONICAL_ARITY[kind]:
        raise InputError(
            f"{kind} takes {CANONICAL_ARITY[kind]} objects, got {len(params)}")
    if kind == "symmetry" or kind == "par_symmetry":
        return factor_permutation(model, params, [1, 0])
    if kind == "coev":
        return regroup(identity(model, params[0]), params, params, [0, 1], [])
    if kind == "ev":
        return dual_mor(canonical_map(model, "coev", params))
    if kind == "mixed_ev":
        return mor_scale(canonical_map(model, "ev", params), model.mix)
    if kind == "mix":
        return Mor(model, 1, 1, ((model.mix,),))
    if kind == "mix_map":
        return mor_scale(identity(model, prod(params)), model.mix)
    if kind == "mixed_symmetry":
        return mor_scale(canonical_map(model, "symmetry", params), model.mix)
    if kind == "distributivity" or kind == "right_distributivity":
        return identity(model, prod(params))
    # times_rule: the composite of symmetries and distributivities
    # (Id par tau) . (delta par Id) . tau . delta_R . (tau (x) Id),
    # which any other composite of the same shape must equal.
    ar, br, cr, dr = params
    step1 = _flat_offsets([ar, br, cr, dr], [1, 0, 2, 3])
    step3 = _flat_offsets([br, ar * cr * dr], [1, 0])
    step5 = _flat_offsets([ar * cr, dr, br], [0, 2, 1])
    return _permutation_mor(model, _after(step5, step3, step1))


def curry(f: Mor, a: int, b: int, c: int) -> Mor:
    """The closure bijection sending f: A(x)B -> C to A -> C par B*.

    A pure reindexing: entry[(c,b), a] = f[c, (a,b)].
    """
    return regroup(f, [c], [a, b], [0, 2], [1])


def uncurry(g: Mor, a: int, b: int, c: int) -> Mor:
    """Inverse of curry: g: A -> C par B* becomes A(x)B -> C."""
    return regroup(g, [c, b], [a], [0], [2, 1])


def contract_hidden(f: Mor, a: int, b: int, hidden: Sequence[int]) -> Mor:
    """Sum the diagonal hidden indices of f: A(x)U1(x)...(x)Uk ->
    B par U1 par ... par Uk, giving a morphism A -> B in the same ring;
    a hidden size of 1 has nothing to sum, and f is returned."""
    h = prod(hidden)
    if f.dom != a * h or f.cod != b * h:
        raise InputError("contract_hidden: shape mismatch")
    if h == 1:
        return f
    ent = f.entries
    rows = tuple(
        tuple(sum(ent[y * h + t][x * h + t] for t in range(h))
              for x in range(a))
        for y in range(b))
    return Mor(f.model, a, b, rows)


def random_mor(model: Model, rng: random.Random, dom: int, cod: int,
               bound: int = 3) -> Mor:
    rows = tuple(tuple(rng.randrange(-bound, bound + 1) for _ in range(dom))
                 for _ in range(cod))
    return Mor(model, dom, cod, rows)


class CheckResult:
    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name, self.passed, self.detail = name, passed, detail

    def to_dict(self):
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


class ValidationReport:
    def __init__(self, description: str):
        self.description = description
        self.checks: List[CheckResult] = []

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failure(self, name: str, failures: Iterator[str]) -> None:
        """Record the check ``name`` from the details of its failures:
        passed when ``failures`` yields none, else failed with the first.
        Nothing more is drawn, so a check written as a generator stops
        at the first failure it yields."""
        detail = next(failures, None)
        self.checks.append(CheckResult(name, detail is None, detail or ""))

    def to_dict(self):
        return {
            "description": self.description,
            "ok": self.ok,
            "checks": [c.to_dict() for c in self.checks],
        }


# The most entries of one matrix a request may build; validate_coherence,
# the axiom suite, verify_compactness and the zig-zag search refuse, before
# building anything, past it, and so does a free trace asked for its
# witness, once its search has found an ordering.
ENTRY_BOUND = 10 ** 6


def check_entry_count(base: int, exp: int, what: str) -> None:
    """Raise ResourceLimitError when base^exp, the entries of the largest
    matrix that ``what`` builds, is more than ``ENTRY_BOUND``.  A power
    past 2^64 is named, not computed."""
    if exp > 1 and exp * (base.bit_length() - 1) >= 64:
        text = f"{base}^{exp}"
    else:
        size = base ** exp
        if size <= ENTRY_BOUND:
            return
        text = str(size) if exp == 1 else f"{base}^{exp} = {size}"
    raise ResourceLimitError(
        f"{what} builds matrices of up to {text} entries, more than the "
        f"bound {ENTRY_BOUND}")


def validate_coherence(model: Model, max_rank: int, seed: int = 0) -> ValidationReport:
    """Exhaustively check the structural coherence of the model at all
    object ranks <= max_rank.

    Covers: the mix unit square; both mix-distributivity triangles; the
    evaluation/coevaluation symmetry identities; the currying triangle on
    random morphisms; agreement of the distributivities with their
    bijection-based definitions; the mix map against its defining
    composite; and equality of three distinct distributivity/symmetry
    composition orders with the canonical times_rule map.

    Structure maps depend only on ranks, so each is built once per call
    and shared by every check that compares against it.  The largest are
    the times-rule maps at four objects of rank max_rank, with max_rank^8
    entries; past ``ENTRY_BOUND`` the call is refused before the first.
    """
    if max_rank < 1:
        raise InputError("max_rank must be >= 1")
    check_entry_count(max_rank, 8,
                      f"a coherence check at max_rank {max_rank}")
    rng = random.Random(f"coherence:{seed}")
    report = ValidationReport(f"coherence of {model} at ranks <= {max_rank}")
    ranks = range(0, max_rank + 1)
    canon = cache(lambda kind, *params: canonical_map(model, kind, params))
    ident = cache(lambda a: identity(model, a))
    # index maps, read off each builder's own matrix once; only the maps of
    # the times rule, the largest matrices, are used, so those are not kept
    canon_map = cache(lambda kind, *params: _index_map(canon(kind, *params)))
    times_map = cache(lambda *params: _index_map(
        canonical_map(model, "times_rule", params)))
    perm = cache(lambda dims, pos_map: _index_map(
        factor_permutation(model, dims, pos_map)))
    ident_map = cache(lambda n: _index_map(ident(n)))

    def mix_unit_square():
        mix = canon("mix")
        if tensor_mor(mix, ident(1)).entries != \
                tensor_mor(ident(1), mix).entries:
            yield ""

    def ev_coev_symmetry():
        for a in ranks:
            ev = canon("ev", a)
            coev = canon("coev", a)
            sig = canon("symmetry", a, a)
            tau = canon("par_symmetry", a, a)
            if compose(ev, sig).entries != ev.entries:
                yield f"ev symmetry fails at rank {a}"
            if compose(tau, coev).entries != coev.entries:
                yield f"coev symmetry fails at rank {a}"

    def mix_map_definition():
        for a, b in itertools.product(ranks, repeat=2):
            direct = canon("mix_map", a, b)
            inner = tensor_mor(ident(a), canon("mixed_ev", b))
            via_curry = curry(inner, a * b, b, a)
            if direct.entries != via_curry.entries:
                yield f"mix map composite fails at {a},{b}"
            msym = canon("mixed_symmetry", a, b)
            tau = canon("par_symmetry", a, b)
            sig = canon("symmetry", a, b)
            other = canon("mix_map", b, a)
            if compose(tau, direct).entries != msym.entries or \
                    compose(other, sig).entries != msym.entries:
                yield f"mixed symmetry fails at {a},{b}"

    def mix_distributivity_triangles():
        for a, b, c in itertools.product(ranks, repeat=3):
            delta = canon("distributivity", a, b, c)
            left = compose(delta, tensor_mor(ident(a),
                                             canon("mix_map", b, c)))
            if left.entries != canon("mix_map", a * b, c).entries:
                yield f"first triangle fails at {a},{b},{c}"
            right = compose(tensor_mor(canon("mix_map", a, b), ident(c)),
                            delta)
            if right.entries != canon("mix_map", a, b * c).entries:
                yield f"second triangle fails at {a},{b},{c}"

    def distributivities_vs_bijection():
        for a, b, c in itertools.product(ranks, repeat=3):
            expected = ident(a * b * c)
            # delta from the closure bijection
            peeled = uncurry(ident(b * c), b * c, c, b)
            inner = tensor_mor(ident(a), peeled)
            delta = curry(inner, a * b * c, c, a * b)
            if delta.entries != expected.entries:
                yield f"distributivity fails at {a},{b},{c}"
            # right distributivity from symmetries and delta
            t1 = perm((a * b, c), (1, 0))
            t2 = _tensor_maps(ident_map(c), canon_map("par_symmetry", a, b))
            t4 = perm((c * b, a), (1, 0))
            t5 = _tensor_maps(ident_map(a), canon_map("symmetry", c, b))
            dr_alt = _after(t5, t4, t2, t1)
            if not _same_map(canon_map("right_distributivity", a, b, c),
                             dr_alt):
                yield f"right distributivity fails at {a},{b},{c}"

    def currying_triangle():
        for _ in range(40):
            x, a, b, c = (rng.randint(0, max_rank) for _ in range(4))
            phi = random_mor(model, rng, a * b, c)
            lhs = curry(tensor_mor(ident(x), phi), x * a, b, x * c)
            rhs = compose(canon("distributivity", x, c, b),
                          tensor_mor(ident(x), curry(phi, a, b, c)))
            if lhs.entries != rhs.entries:
                yield f"currying triangle fails at {x},{a},{b},{c}"

    def shuffle_composition_orders():
        for a, b, c, d in itertools.product(ranks, repeat=4):
            target = times_map(a, b, c, d)
            if not _same_map(target, perm((a, b, c, d), (0, 2, 1, 3))):
                yield "times rule disagrees with direct permutation"
            # Route 2: swap the two tensor factors, apply the canonical
            # shuffle there, then repair with a symmetry on A,C and on B,D.
            swap = perm((a * b, c * d), (1, 0))
            shuffled = _after(times_map(c, d, a, b), swap)
            fix_ca = _tensor_maps(canon_map("symmetry", c, a),
                                  ident_map(d * b))
            fix_db = _tensor_maps(ident_map(a * c), perm((d, b), (1, 0)))
            comp2 = _after(fix_db, fix_ca, shuffled)
            # Route 3: through the right distributivity on the swapped
            # factors; right_distributivity and distributivity are
            # identity reindexings.
            s2 = _tensor_maps(canon_map("par_symmetry", c, d),
                              ident_map(a * b))
            s4 = _tensor_maps(ident_map(d), _tensor_maps(
                canon_map("distributivity", c, a, b), ident_map(1)))
            s5 = perm((d, c * a * b), (1, 0))
            s6 = _tensor_maps(canon_map("symmetry", c, a), ident_map(b * d))
            comp3 = _after(s6, s5, s4, s2, swap)
            if not _same_map(target, comp2, comp3):
                yield f"composition orders disagree at {a},{b},{c},{d}"

    report.first_failure("mix-unit-square", mix_unit_square())
    report.first_failure("dual-ev-coev-symmetry", ev_coev_symmetry())
    report.first_failure("mix-map-definition", mix_map_definition())
    report.first_failure("mix-distributivity-triangles",
                         mix_distributivity_triangles())
    report.first_failure("distributivities-vs-bijection",
                         distributivities_vs_bijection())
    report.first_failure("currying-triangle", currying_triangle())
    report.first_failure("shuffle-composition-orders",
                         shuffle_composition_orders())
    return report
