"""Trace machinery: the free and induced mixed traces, the staircase
diagram of a free trace's witness, hidden traces, and the randomized axiom
suite.

The staircase works on the pairing form of a loop carrier: the same
entries rearranged into a map out of the tensor of hidden evaluation pairs
(U1(x)U1*)(x)...(x)(Uk(x)Uk*).  Each stage divides the whole matrix by the
mix scalar and then contracts the next pair of the hidden ordering; a stage
whose division leaves the ring makes that ordering fail.

Division is entrywise and contraction is linear, so after the stages for a
set S of hidden indices the matrix is C_S/m^|S|, where C_S contracts the
pairs in S.  A hidden ordering therefore solves iff C_S/m^(|S|+1) lies in
the ring for every proper prefix set S of the ordering, and every solvable
ordering yields C_all/m^k.  The free mixed trace searches these prefix
sets depth first instead of running one staircase per ordering.  Hidden
objects of rank <= 1 carry no data, so the search takes those of equal
rank in their given order: contracting any of them gives the same matrix,
and any other order sorts later.  With n0, n1 and n2 hidden objects of rank
0, 1 and >= 2 it visits at most 2^n2*(n0+1)*(n1+1) prefix sets, where 2^n2
is at most the product of those n2 ranks.  This search is the only
staircase here: the matrices it divides along the found ordering are the
fillers of the trace's witness, and ``staircase_diagram`` draws that
witness as a diagram ``zigzag`` can check.

Every division by a mix power, here and in ``compactify``, is
``_divide_by_mix``: a row of ints that an int divisor divides goes in one
pass, everything else entry by entry, since over Q and Z[1/M] a quotient
that is not an int may still lie in the ring; it stops at the first
quotient outside the ring.

The induced trace instead contracts everything first and divides once by
m^k, so it is defined at least as often as the free one, and strictly
more often in general.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from math import prod
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .category import (UNIT, Mor, Model, Obj, canonical_map, compose,
                       contract_hidden, dual_mor, identity, mor_scale,
                       obj_tensor, random_mor, regroup, tensor_mor, whisker,
                       zero_mor)
from .errors import InputError, ModelNotCompactifiableError
from .loops import (Loop, Permutation, _distinct_choices, hidden_symmetry,
                    loop_dual, morphism_tensor_loop, post_compose,
                    pre_compose, yanking_loop)
from .rings import Number, ring_contains
from .zigzag import Diagram, Edge

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
        val = v / m
    if ring is None or ring_contains(ring, val):
        return int(val) if val.denominator == 1 else val
    return None


def _divide_by_mix(rows: Sequence[Sequence[Number]], m: Number,
                   ring) -> Optional[List[List[Number]]]:
    """Every entry divided exactly by m, a power of the mix scalar, or None
    as soon as a quotient leaves the ring; a staircase stage's first half.
    With ring None the caller knows every quotient lies in its ring, and
    none is tested."""
    divided: List[List[Number]] = []
    for row in rows:
        if type(m) is int and all(type(v) is int and not v % m for v in row):
            divided.append([v // m for v in row])
            continue
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


def _first_solvable_order(pf_rows: Sequence[Sequence[Number]],
                          dims: Sequence[int], m: Number, ring
                          ) -> Optional[Tuple[Tuple[int, ...],
                                              List[List[Number]],
                                              Tuple[List[List[Number]], ...]]]:
    """Depth-first search over prefix sets of hidden indices for the
    lexicographically first solvable ordering (m nonzero).

    A node is a set S, given as a bitmask, and carries C_S/m^|S| over the
    remaining pairs in index order.  It divides by m once and contracts the
    remaining indices in ascending order, of rank 0 and of rank 1 only the
    first (see the module docstring).  Nodes wait on an explicit stack with
    the contraction that builds their matrix and the divided matrices of
    their path; a set popped a second time had no solvable completion and
    is skipped.  Returns the ordering, the final one-column matrix C_all/m^k
    and the divided matrix of each stage, its columns the pairs not yet
    contracted in ascending index order.
    """
    k = len(dims)
    seen = set()
    stack = [(0, (), lambda: pf_rows, ())]
    while stack:
        mask, order, contract, path = stack.pop()
        if mask in seen:
            continue
        seen.add(mask)
        rows = contract()
        if len(order) == k:
            return order, rows, path
        divided = _divide_by_mix(rows, m, ring)
        if divided is None:
            continue
        rest = [i for i in range(k) if not mask >> i & 1]
        sizes = [dims[i] * dims[i] for i in rest]
        for pos in reversed(_distinct_choices(dims, rest)):
            i = rest[pos]
            stack.append((mask | 1 << i, order + (i,),
                          partial(_contract_pair, divided, dims[i],
                                  prod(sizes[:pos]), prod(sizes[pos + 1:])),
                          path + (divided,)))
    return None


def free_mixed_trace(p: Loop, want_witness: bool = False) -> TraceResult:
    """The staircase trace in the lexicographically first solvable hidden
    ordering, reported with that ordering as ``alpha``.

    An ordering solves iff C_S/m^(|S|+1) lies in the ring for each of its
    proper prefix sets S (see the module docstring), so the search walks
    subsets of the hidden indices rather than orderings, and takes hidden
    objects of equal rank <= 1 in their given order; no bound on k is
    needed.  Every solvable ordering gives the same value C_all/m^k.  With
    m = 0 the outcome is read off directly: a nonzero pairing form is
    undefined; a zero one is defined (and zero) in the identity ordering
    when an endpoint has rank 0, else in the first ordering that ends in a
    rank-0 hidden object, else ambiguous, and there is no witness.  With
    ``want_witness`` the stage matrices the search divided become the
    fillers of the staircase in the found ordering: filler i has its pairs
    regrouped into the order alpha[i:], and psi is the final column.
    """
    model = p.model
    m = model.mix
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
        return defined(zero_mor(model, p.dom, p.cod), Permutation(order))
    found = _first_solvable_order(pf.entries, dims, m, model.ring)
    if found is None:
        return undefined()
    order, column, path = found
    a, ba = p.dom.rank, p.cod.rank * p.dom.rank
    value = Mor(model, p.dom, p.cod, tuple(
        tuple(v for (v,) in column[b * a:b * a + a])
        for b in range(p.cod.rank)))
    witness = None
    if want_witness:
        psi = Mor(model, Obj(1), Obj(ba), tuple(map(tuple, column)))
        fillers = []
        rest = list(range(p.k))
        for i, divided in enumerate(path):
            sizes = [dims[j] * dims[j] for j in rest]
            slot = {j: 1 + pos for pos, j in enumerate(rest)}
            stage = Mor(model, Obj(prod(sizes)), Obj(ba),
                        tuple(map(tuple, divided)))
            fillers.append(regroup(stage, [ba], sizes, [0],
                                   [slot[j] for j in order[i:]]))
            rest.remove(order[i])
        witness = StaircaseWitness(psi, tuple(fillers))
    return defined(value, Permutation(order), witness)


def staircase_diagram(p: Loop, witness: StaircaseWitness) -> Diagram:
    """The solved staircase of a loop as a checkable diagram: the ladder of
    mix and coevaluation edges with the witness fillers pointing at the
    apex object.  Commutation of this diagram is exactly the staircase
    condition."""
    model = p.model
    dims = [u.rank for u in p.hidden]
    k = p.k
    ba = p.cod.rank * p.dom.rank
    suffix = [1] * (k + 1)
    for i in reversed(range(k)):
        suffix[i] = dims[i] * dims[i] * suffix[i + 1]
    objects: List[Obj] = [Obj(s) for s in suffix]          # tensor levels
    objects += [Obj(dims[i] ** 2 * suffix[i + 1]) for i in range(k)]
    objects.append(Obj(ba))                                # apex
    apex_idx = len(objects) - 1

    edges: List[Edge] = []
    for i in range(k):
        u, level = p.hidden[i], k + 1 + i
        rest = Obj(suffix[i + 1])
        edges.append(Edge(i, level,
                          whisker(UNIT, canonical_map(model, "mix_map",
                                                      [u, u]), rest),
                          f"mix-{i}"))
        edges.append(Edge(i + 1, level,
                          whisker(UNIT, canonical_map(model, "coev", [u]),
                                  rest),
                          f"coev-{i}"))
        edges.append(Edge(level, apex_idx, witness.fillers[i],
                          f"filler-{i}"))
    edges.append(Edge(0, apex_idx, pairing_form(p), "pairing"))
    edges.append(Edge(k, apex_idx, witness.psi, "psi"))
    return Diagram(model, tuple(objects), tuple(edges))


def induced_mixed_trace(p: Loop) -> TraceResult:
    """The trace induced by localizing the mix scalar: contract the hidden
    indices and divide by m^k through ``_divide_by_mix``, which stops at
    the first quotient outside the base ring; Undefined if there is one."""
    if p.model.mix == 0:
        raise ModelNotCompactifiableError(
            "the induced trace needs a nonzero mix scalar")
    rows = _divide_by_mix(
        contract_hidden(p.carrier, p.dom, p.cod, p.hidden).entries,
        p.model.mix ** p.k, p.model.ring)
    if rows is None:
        return undefined()
    return defined(Mor(p.model, p.dom, p.cod, tuple(map(tuple, rows))))


def hidden_trace(p: Loop, tail_len: int,
                 trace_of: Callable[[Loop], TraceResult] = free_mixed_trace
                 ) -> Optional[Loop]:
    """Trace out the last ``tail_len`` hidden objects with ``trace_of`` and
    hide the rest back; None when that trace of the re-viewed loop is not
    defined."""
    if not 0 <= tail_len <= p.k:
        raise InputError(f"tail length {tail_len} out of range 0..{p.k}")
    head = p.hidden[:p.k - tail_len]
    tail = p.hidden[p.k - tail_len:]
    q = Loop(p.model, obj_tensor(p.dom, *head), obj_tensor(p.cod, *head),
             tail, p.carrier)
    r = trace_of(q)
    if not r.is_defined:
        return None
    return Loop(p.model, p.dom, p.cod, head, r.value)


# ---------------------------------------------------------------------------
# The randomized axiom suite.

AXIOMS = ("naturality", "dinaturality", "strength", "vanishing",
          "adjointability", "yanking")

_CARRIER_BOUND = 4
# Failures of one axiom reported in full; later ones are reported as "...".
_FAILURE_DETAIL_CAP = 10


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
                max_hidden: int) -> Loop:
    """A seeded random loop.  About half the carriers are pre-multiplied
    by m^k so the staircase divides cleanly, which keeps the defined
    branch of the trace well exercised."""
    k = rng.choices(range(0, max_hidden + 1),
                    weights=[2] + [3] * max_hidden)[0]
    a = Obj(_weighted_rank(rng, max_rank))
    b = Obj(_weighted_rank(rng, max_rank))
    hidden = tuple(Obj(_weighted_rank(rng, max_rank)) for _ in range(k))
    h = prod(u.rank for u in hidden)
    carrier = random_mor(model, rng, Obj(a.rank * h), Obj(b.rank * h),
                         _CARRIER_BOUND)
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
                    lhs=None, rhs=None) -> None:
    entry = {"seed": seed, "case": case, "detail": detail}
    if lhs is not None:
        entry["lhs"] = _side_repr(lhs)
    if rhs is not None:
        entry["rhs"] = _side_repr(rhs)
    if len(st.failures) >= _FAILURE_DETAIL_CAP:
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
    # the yanking loop depends on its rank only: trace it once per kind
    yanked: Dict[Tuple[str, int], TraceResult] = {}

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
        # p's derived loops serve every kind; these two only once needed
        natural = cache(lambda: post_compose(g_out, pre_compose(p, f_in)))
        strong = cache(lambda: morphism_tensor_loop(f_str, p))
        swapped, dual = hidden_symmetry(p, alpha), loop_dual(p)

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
                rhs = trace_of(natural())
                if not rhs.is_defined or rhs.value != lhs:
                    _record_failure(st, seed, case, "naturality mismatch",
                                    lhs, rhs)

            st = stats["dinaturality"]
            other = trace_of(swapped)
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
                rhs = trace_of(strong())
                if not rhs.is_defined or rhs.value != lhs:
                    _record_failure(st, seed, case, "strength mismatch",
                                    lhs, rhs)

            st = stats["vanishing"]
            traced = hidden_trace(p, p.k - split, trace_of)
            if traced is None:
                st.skipped_undefined += 1
            else:
                outer = trace_of(traced)
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
            dual_tr = trace_of(dual)
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
            ty = yanked.get((kind, yank_rank.rank))
            if ty is None:
                ty = yanked[kind, yank_rank.rank] = trace_of(
                    yanking_loop(model, yank_rank))
            if not ty.is_defined or ty.value != identity(model, yank_rank):
                _record_failure(
                    st, seed, case,
                    f"yanking fails at rank {yank_rank.rank}", ty,
                    identity(model, yank_rank))
    return report
