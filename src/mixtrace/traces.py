"""Trace machinery: the total trace of compact models, the staircase
("provisional") trace, the free and induced mixed traces, hidden traces,
and the randomized axiom suite.

The staircase works on the pairing form of a loop carrier: the same
entries rearranged into a map out of the tensor of hidden evaluation pairs
(U1(x)U1*)(x)...(x)(Uk(x)Uk*).  Each stage divides the whole matrix by the
mix scalar and then contracts the leading pair; a stage whose division
leaves the ring makes the trace undefined.

Division is entrywise and contraction is linear, so after the stages for a
set S of hidden indices the matrix is C_S/m^|S|, where C_S contracts the
pairs in S.  A hidden ordering therefore solves iff C_S/m^(|S|+1) lies in
the ring for every proper prefix set S of the ordering, and every solvable
ordering yields C_all/m^k.  The free mixed trace searches these prefix
sets depth first instead of running one staircase per ordering: O(2^k)
pair contractions on one pairing form rather than k! staircases.

The induced trace instead contracts everything first and divides once by
m^k over the rationals, so it is defined at least as often as the free
one, and strictly more often in general.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import prod
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .category import (Mor, Model, Obj, _canon, canonical_map, compose,
                       contract_hidden, dual_mor, identity, mor_scale,
                       obj_tensor, random_mor, regroup, tensor_mor, uncurry,
                       zero_mor)
from .errors import InputError, ModelNotCompactifiableError, ResourceLimitError
from .loops import (Loop, Permutation, hidden_symmetry, loop_dual,
                    morphism_loop, morphism_tensor_loop, post_compose,
                    pre_compose, yanking_loop)
from .rings import Number, ring_contains

DEFINED = "defined"
UNDEFINED = "undefined"
AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class StaircaseWitness:
    """The solved staircase: the final map psi out of the unit, plus the
    stage fillers, one per hidden object."""

    psi: Mor
    fillers: Tuple[Mor, ...]


@dataclass(frozen=True)
class TraceResult:
    status: str
    value: Optional[Mor] = None
    alpha: Optional[Permutation] = None
    witness: Optional[StaircaseWitness] = None

    @property
    def is_defined(self) -> bool:
        return self.status == DEFINED


def defined(value: Mor, alpha: Optional[Permutation] = None,
            witness: Optional[StaircaseWitness] = None) -> TraceResult:
    return TraceResult(DEFINED, value, alpha, witness)


def undefined() -> TraceResult:
    return TraceResult(UNDEFINED)


def ambiguous() -> TraceResult:
    return TraceResult(AMBIGUOUS)


def pairing_form(p: Loop) -> Mor:
    """The carrier rearranged as (U1(x)U1*)(x)...(x)(Uk(x)Uk*) -> B par A*.

    Pure reindexing: in each pair the first index is the domain-side copy
    of U_i and the second the codomain-side one, and the endpoints flatten
    with B outermost.
    """
    dims = [u.rank for u in p.hidden]
    k = p.k
    return regroup(p.carrier, [p.cod.rank] + dims, [p.dom.rank] + dims,
                   [0, k + 1],
                   [s for i in range(k) for s in (k + 2 + i, 1 + i)])


def _exact_div(v: Number, m: Number, ring) -> Optional[Number]:
    if isinstance(v, int) and isinstance(m, int):
        q, r = divmod(v, m)
        if r == 0:
            return q
        val = Fraction(v, m)
    else:
        val = Fraction(v) / Fraction(m)
    if ring_contains(ring, val):
        return int(val) if val.denominator == 1 else val
    return None


def _value_from_column(p: Loop, column: Sequence[Sequence[Number]]) -> Mor:
    adim = p.dom.rank
    rows = tuple(tuple(column[bi * adim + ai][0] for ai in range(adim))
                 for bi in range(p.cod.rank))
    return Mor(p.model, p.dom, p.cod, rows)


def _divide_by_mix(rows: Sequence[Sequence[Number]], m: Number,
                   ring) -> Optional[List[List[Number]]]:
    """The first half of a staircase stage: every entry divided exactly by
    the mix scalar, or None as soon as a quotient leaves the ring."""
    divided: List[List[Number]] = []
    for row in rows:
        out = []
        for v in row:
            q = _exact_div(v, m, ring)
            if q is None:
                return None
            out.append(q)
        divided.append(out)
    return divided


def _contract_pair(rows: Sequence[Sequence[Number]], d: int, outer: int,
                   inner: int) -> List[List[Number]]:
    """The second half of a stage: contract one evaluation pair of rank d,
    whose d*d columns sit between ``outer`` blocks of leading pair columns
    and ``inner`` trailing ones."""
    block = d * d * inner
    step = (d + 1) * inner
    return [[sum(row[o * block + u * step + t] for u in range(d))
             for o in range(outer) for t in range(inner)]
            for row in rows]


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
        res = defined(_value_from_column(p, pf.entries))
        if want_witness:
            res = replace(res, witness=StaircaseWitness(pf, ()))
        return res

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


def _first_solvable_order(pf_rows: Sequence[Sequence[Number]],
                          dims: Sequence[int], m: Number, ring
                          ) -> Optional[Tuple[Tuple[int, ...],
                                              List[List[Number]]]]:
    """Depth-first search over prefix sets of hidden indices for the
    lexicographically first solvable ordering (m nonzero).

    A node is a set S, given as a bitmask with its ordering so far, and
    carries C_S/m^|S| over the remaining pairs in index order.  It divides
    by m once and contracts each remaining index in ascending order; sets
    with no solvable completion are remembered and never expanded again.
    Returns the ordering and the final one-column matrix C_all/m^k.
    """
    k = len(dims)
    dead = set()

    def visit(mask, order, rows):
        if len(order) == k:
            return order, rows
        divided = _divide_by_mix(rows, m, ring)
        if divided is not None:
            rest = [i for i in range(k) if not mask >> i & 1]
            sizes = [dims[i] * dims[i] for i in rest]
            for pos, i in enumerate(rest):
                child = mask | 1 << i
                if child in dead:
                    continue
                found = visit(child, order + (i,),
                              _contract_pair(divided, dims[i],
                                             prod(sizes[:pos]),
                                             prod(sizes[pos + 1:])))
                if found is not None:
                    return found
        dead.add(mask)
        return None

    return visit(0, (), pf_rows)


def free_mixed_trace(p: Loop, perm_bound: int = 6,
                     want_witness: bool = False) -> TraceResult:
    """The staircase trace in the lexicographically first solvable hidden
    ordering, reported with that ordering as ``alpha``.

    An ordering solves iff C_S/m^(|S|+1) lies in the ring for each of its
    proper prefix sets S (see the module docstring), so the search walks
    subsets of the hidden indices rather than orderings: O(2^k) pair
    contractions of a single pairing form.  Every solvable ordering gives
    the same value C_all/m^k.  With m = 0 the outcome is read off directly:
    a nonzero pairing form is undefined; a zero one is defined (and zero)
    in the identity ordering when an endpoint has rank 0, else in the first
    ordering that ends in a rank-0 hidden object, else ambiguous.  With
    ``want_witness`` the staircase of the found ordering is run once more
    to build its fillers.
    """
    if p.k > perm_bound:
        raise ResourceLimitError(
            f"hidden part of length {p.k} exceeds the permutation bound "
            f"{perm_bound}")
    m = p.model.mix
    dims = [u.rank for u in p.hidden]
    pf = pairing_form(p)
    if p.k and m == 0:
        if any(v for row in pf.entries for v in row):
            return undefined()
        if p.cod.rank * p.dom.rank == 0:
            order = tuple(range(p.k))
        else:
            zero_rank = [j for j, d in enumerate(dims) if d == 0]
            if not zero_rank:
                return ambiguous()
            last = zero_rank[-1]
            order = tuple(i for i in range(p.k) if i != last) + (last,)
        value = zero_mor(p.model, p.dom, p.cod)
    else:
        found = _first_solvable_order(pf.entries, dims, m, p.model.ring)
        if found is None:
            return undefined()
        order, column = found
        value = _value_from_column(p, column)
    alpha = Permutation(order)
    if want_witness:
        return replace(provisional_trace(hidden_symmetry(p, alpha),
                                         want_witness=True), alpha=alpha)
    return defined(value, alpha)


def _contract_over_mix_power(p: Loop) -> Tuple[Tuple[Number, ...], ...]:
    """The hidden indices of the carrier contracted and every entry divided
    by m^k over the rationals (m nonzero); the caller decides which ring
    the quotients must lie in."""
    contracted = contract_hidden(p.carrier, p.dom, p.cod, p.hidden)
    scale = Fraction(1) / Fraction(p.model.mix) ** p.k
    return tuple(tuple(_canon(v * scale) for v in row)
                 for row in contracted.entries)


def induced_mixed_trace(p: Loop) -> TraceResult:
    """The trace induced by localizing the mix scalar: contract the hidden
    indices over the rationals, divide by m^k, and keep the result iff
    every entry lies back in the base ring."""
    if p.model.mix == 0:
        raise ModelNotCompactifiableError(
            "the induced trace needs a nonzero mix scalar")
    rows = _contract_over_mix_power(p)
    if not all(ring_contains(p.model.ring, v) for row in rows for v in row):
        return undefined()
    return defined(Mor(p.model, p.dom, p.cod, rows))


def hidden_trace(p: Loop, tail_len: int) -> Optional[Loop]:
    """Trace out the last ``tail_len`` hidden objects and hide the rest
    back; None when the free trace of the re-viewed loop is unsolvable."""
    if not 0 <= tail_len <= p.k:
        raise InputError(f"tail length {tail_len} out of range 0..{p.k}")
    head = p.hidden[:p.k - tail_len]
    tail = p.hidden[p.k - tail_len:]
    q = Loop(p.model, obj_tensor(p.dom, *head), obj_tensor(p.cod, *head),
             tail, p.carrier)
    r = free_mixed_trace(q)
    if not r.is_defined:
        return None
    return Loop(p.model, p.dom, p.cod, head, r.value)


def total_trace(f: Mor, a: Obj, b: Obj, u: Obj) -> Mor:
    """The total trace of a compact model, computed as the canonical
    composite through coevaluation and the inverse mix map; equals the
    entrywise partial trace over U."""
    model = f.model
    if not model.is_compact:
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


# ---------------------------------------------------------------------------
# The randomized axiom suite.

AXIOMS = ("naturality", "dinaturality", "strength", "vanishing",
          "adjointability", "yanking")


@dataclass
class AxiomStats:
    checked: int = 0
    skipped_undefined: int = 0
    one_sided: int = 0
    failures: List[dict] = field(default_factory=list)

    def to_dict(self):
        return {
            "checked": self.checked,
            "skippedUndefined": self.skipped_undefined,
            "oneSidedDefinedness": self.one_sided,
            "failures": self.failures,
        }


@dataclass
class SuiteReport:
    model: Model
    seed: int
    cases: int
    max_rank: int
    max_hidden: int
    stats: Dict[str, Dict[str, AxiomStats]] = field(default_factory=dict)
    defined_cases: Dict[str, int] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    @property
    def total_failures(self) -> int:
        return sum(len(ax.failures) for kind in self.stats.values()
                   for ax in kind.values())

    def definedness_ratio(self, kind: str) -> Fraction:
        if self.cases == 0:
            return Fraction(0)
        return Fraction(self.defined_cases.get(kind, 0), self.cases)

    def to_dict(self):
        return {
            "model": str(self.model),
            "seed": self.seed,
            "cases": self.cases,
            "maxRank": self.max_rank,
            "maxHidden": self.max_hidden,
            "definedCases": dict(sorted(self.defined_cases.items())),
            "notes": list(self.notes),
            "axioms": {
                kind: {name: st.to_dict() for name, st in sorted(axs.items())}
                for kind, axs in sorted(self.stats.items())
            },
            "totalFailures": self.total_failures,
        }


def _weighted_rank(rng: random.Random, max_rank: int) -> int:
    ranks = list(range(0, max_rank + 1))
    weights = [1] + [4] * max_rank
    return rng.choices(ranks, weights=weights)[0]


def random_loop(rng: random.Random, model: Model, max_rank: int,
                max_hidden: int, bound: int = 4) -> Loop:
    """A seeded random loop.  About half the carriers are pre-multiplied
    by m^k so the staircase divides cleanly, which keeps the defined
    branch of the trace well exercised."""
    k = rng.choices(range(0, max_hidden + 1),
                    weights=[2] + [3] * max_hidden)[0]
    a = Obj(_weighted_rank(rng, max_rank))
    b = Obj(_weighted_rank(rng, max_rank))
    hidden = tuple(Obj(_weighted_rank(rng, max_rank)) for _ in range(k))
    h = prod(u.rank for u in hidden)
    carrier = random_mor(model, rng, Obj(a.rank * h), Obj(b.rank * h), bound)
    style = rng.random()
    if style < 0.5:
        carrier = mor_scale(carrier, model.mix ** k if k else 1)
    elif style < 0.65 and k > 1:
        carrier = mor_scale(carrier, model.mix ** (k - 1))
    return Loop(model, a, b, hidden, carrier)


def _side_repr(side) -> str:
    if isinstance(side, Mor):
        return "[" + "; ".join(" ".join(str(v) for v in row)
                               for row in side.entries) + "]"
    if isinstance(side, TraceResult):
        return _side_repr(side.value) if side.is_defined else side.status
    return str(side)


def _record_failure(st: AxiomStats, seed, case: int, detail: str,
                    lhs=None, rhs=None, cap: int = 10) -> None:
    entry = {"seed": seed, "case": case, "detail": detail}
    if lhs is not None:
        entry["lhs"] = _side_repr(lhs)
    if rhs is not None:
        entry["rhs"] = _side_repr(rhs)
    if len(st.failures) >= cap:
        entry = {"seed": seed, "case": case, "detail": "..."}
    st.failures.append(entry)


def run_axiom_suite(model: Model, seed: int = 0, cases: int = 1000,
                    max_rank: int = 3, max_hidden: int = 2) -> SuiteReport:
    """Check the mixed-trace axioms on seeded random loops, for both the
    free and the induced trace, in their whenever-defined readings.

    A comparison is skipped when its governing side is undefined; for
    Vanishing the two outer traces may genuinely differ in definedness
    (the staircase is order-sensitive before the permutation search), so
    one-sided cases are tallied separately rather than failed.
    """
    if max_rank < 0 or max_hidden < 0 or cases < 0:
        raise InputError("max_rank, max_hidden and cases must be >= 0")
    report = SuiteReport(model, seed, cases, max_rank, max_hidden)
    kinds: List[Tuple[str, Callable[[Loop], TraceResult]]] = [
        ("free", free_mixed_trace)]
    if model.mix != 0:
        kinds.append(("induced", induced_mixed_trace))
    else:
        report.notes.append(
            "induced trace skipped: mix scalar is zero, no localization")
    for kind, _ in kinds:
        report.stats[kind] = {name: AxiomStats() for name in AXIOMS}
        report.defined_cases[kind] = 0

    for case in range(cases):
        rng = random.Random(f"axioms:{seed}:{case}")
        p = random_loop(rng, model, max_rank, max_hidden)
        x = Obj(_weighted_rank(rng, max_rank))
        y = Obj(_weighted_rank(rng, max_rank))
        f_in = random_mor(model, rng, x, p.dom)
        g_out = random_mor(model, rng, p.cod, y)
        f_str = random_mor(model, rng, x, y)
        split = rng.randint(0, p.k)
        alpha_images = list(range(p.k))
        rng.shuffle(alpha_images)
        alpha = Permutation(tuple(alpha_images))
        yank_rank = Obj(rng.randint(0, max_rank))

        for kind, trace_of in kinds:
            stats = report.stats[kind]
            tr = trace_of(p)
            if tr.is_defined:
                report.defined_cases[kind] += 1

            st = stats["naturality"]
            if not tr.is_defined:
                st.skipped_undefined += 1
            else:
                st.checked += 1
                lhs = compose(g_out, compose(tr.value, f_in))
                rhs = trace_of(post_compose(g_out, pre_compose(p, f_in)))
                if not rhs.is_defined or rhs.value != lhs:
                    _record_failure(st, seed, case, "naturality mismatch",
                                    lhs, rhs)

            st = stats["dinaturality"]
            other = trace_of(hidden_symmetry(p, alpha))
            if tr.is_defined or other.is_defined:
                st.checked += 1
                if not (tr.is_defined and other.is_defined
                        and tr.value == other.value):
                    _record_failure(st, seed, case, "dinaturality mismatch",
                                    tr, other)
            else:
                st.skipped_undefined += 1

            st = stats["strength"]
            if not tr.is_defined:
                st.skipped_undefined += 1
            else:
                st.checked += 1
                lhs = tensor_mor(f_str, tr.value)
                rhs = trace_of(morphism_tensor_loop(f_str, p))
                if not rhs.is_defined or rhs.value != lhs:
                    _record_failure(st, seed, case, "strength mismatch",
                                    lhs, rhs)

            st = stats["vanishing"]
            head = p.hidden[:split]
            tail = p.hidden[split:]
            q = Loop(model, obj_tensor(p.dom, *head),
                     obj_tensor(p.cod, *head), tail, p.carrier)
            tq = trace_of(q)
            if not tq.is_defined:
                st.skipped_undefined += 1
            else:
                outer = trace_of(Loop(model, p.dom, p.cod, head, tq.value))
                if tr.is_defined and outer.is_defined:
                    st.checked += 1
                    if tr.value != outer.value:
                        _record_failure(st, seed, case, "vanishing mismatch",
                                        tr, outer)
                elif tr.is_defined != outer.is_defined:
                    st.one_sided += 1
                else:
                    st.skipped_undefined += 1

            st = stats["adjointability"]
            dual_tr = trace_of(loop_dual(p))
            if tr.is_defined or dual_tr.is_defined:
                st.checked += 1
                if not (tr.is_defined and dual_tr.is_defined
                        and dual_tr.value == dual_mor(tr.value)):
                    _record_failure(st, seed, case, "adjointability mismatch",
                                    tr, dual_tr)
            else:
                st.skipped_undefined += 1

            st = stats["yanking"]
            st.checked += 1
            yl = yanking_loop(model, yank_rank)
            ty = trace_of(yl)
            if not ty.is_defined or ty.value != identity(model, yank_rank):
                _record_failure(
                    st, seed, case,
                    f"yanking fails at rank {yank_rank.rank}", ty,
                    identity(model, yank_rank))
    return report
