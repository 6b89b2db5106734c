"""Trace machinery: the free and induced mixed traces, the staircase
layout of a free trace's witness, hidden traces, and the randomized axiom
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
is at most the product of those n2 ranks.  A node divides its matrix by
m once, and its children contract that quotient.  A witness replays the
found ordering once: the matrices it divides are the fillers, and
``staircase_layout`` lays it out as a diagram for ``serialize`` to write
and ``zigzag`` to check, its mix and coevaluation edges ``Monomial``s, a
scalar and an index map each.

At m != 0 a hidden part whose ranks multiply to at most 1 needs no
search.  A rank-1 contraction moves no entry, so C_S is C, and C/m^k in
the ring puts every C/m^j with j <= k there, as m lies in the ring: every
ordering solves iff C/m^k lies in the ring, and the identity sorts first.
A rank-0 object leaves the value zero.  Such a free trace is the induced
trace in the identity ordering, and at k = 0 both are the carrier.

The induced trace instead contracts everything first and divides once by
m^k, so it is defined at least as often as the free one, and strictly
more often in general.

The axiom suite reads each axiom whenever defined, and ``_judge`` tallies
every comparison of two sides.  A comparison with neither side defined is
skipped.  In the Kleene reading, which naturality, dinaturality, strength,
adjointability and yanking use, one with a single side defined fails; in
the one-sided reading, which Vanishing alone uses, it is tallied apart, as
a defined whole trace may have an undefined split.  Judging Vanishing in
the Kleene reading of Malherbe, Scott and Selinger is one argument at its
one call site.
"""

from __future__ import annotations

import operator
import random
from functools import cache, partial
from math import prod
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .category import (Model, Monomial, Mor, check_entry_count, compose,
                       contract_hidden, dual_mor, identity, mor_scale,
                       random_mor, regroup, tensor_mor, zero_mor)
from .errors import (InputError, ModelNotCompactifiableError,
                     ResourceLimitError)
from .loops import (Loop, Permutation, _distinct_choices, hidden_symmetry,
                    loop_compose, loop_dual, loop_tensor, morphism_loop,
                    yanking_loop)
from .rings import Number, Value, divide_by_mix

DEFINED = "defined"
UNDEFINED = "undefined"
AMBIGUOUS = "ambiguous"


class StaircaseWitness(Value):
    """The solved staircase: the final map psi out of the unit, plus the
    stage fillers, one per hidden object."""

    __slots__ = ("psi", "fillers")

    def __init__(self, psi: Mor, fillers: Tuple[Mor, ...]):
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "fillers", fillers)


class TraceResult(Value):
    __slots__ = ("status", "value", "alpha", "witness")

    def __init__(self, status: str, value: Optional[Mor] = None,
                 alpha: Optional[Permutation] = None,
                 witness: Optional[StaircaseWitness] = None):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "witness", witness)

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
    k = p.k
    return regroup(p.carrier, [p.cod, *p.hidden], [p.dom, *p.hidden],
                   [0, k + 1],
                   [s for i in range(k) for s in (k + 2 + i, 1 + i)])


def _contract_pair(rows: Sequence[Sequence[Number]], d: int, outer: int,
                   inner: int) -> List[List[Number]]:
    """The second half of a stage: contract one evaluation pair of rank d,
    whose d*d columns sit between ``outer`` blocks of leading pair columns
    and ``inner`` trailing ones."""
    step, span, block = (d + 1) * inner, d * (d + 1) * inner, d * d * inner
    starts = [o * block + t for o in range(outer) for t in range(inner)]
    return [[sum(row[s:s + span:step]) for s in starts] for row in rows]


def _first_solvable_order(pf_rows: Sequence[Sequence[Number]],
                          dims: Sequence[int], m: Number, ring
                          ) -> Optional[Tuple[Tuple[int, ...],
                                              List[List[Number]]]]:
    """Depth-first search over prefix sets of hidden indices for the
    lexicographically first solvable ordering (m nonzero).

    A node is a set S, given as a bitmask, and carries C_S/m^|S| over the
    remaining pairs in index order.  It divides by m once, and its children
    contract the remaining indices of that quotient in ascending order, of
    rank 0 and of rank 1 only the first (see the module docstring).  Nodes
    wait on an explicit stack with the contraction that builds their
    matrix; a set popped a second time had no solvable completion and is
    skipped.  Returns the ordering and the final column C_all/m^k.
    """
    k = len(dims)
    seen = set()
    stack = [(0, (), lambda: pf_rows)]
    while stack:
        mask, order, build = stack.pop()
        if mask in seen:
            continue
        seen.add(mask)
        rows = build()
        if len(order) == k:
            return order, rows
        divided = divide_by_mix(rows, m, ring)
        if divided is None:
            continue
        rest = [i for i in range(k) if not mask >> i & 1]
        sizes = [dims[i] * dims[i] for i in rest]
        for pos in reversed(_distinct_choices(dims, rest)):
            i = rest[pos]
            stack.append((mask | 1 << i, order + (i,),
                          partial(_contract_pair, divided, dims[i],
                                  prod(sizes[:pos]), prod(sizes[pos + 1:]))))
    return None


def free_mixed_trace(p: Loop, want_witness: bool = False) -> TraceResult:
    """The staircase trace in the lexicographically first solvable hidden
    ordering, reported with that ordering as ``alpha``.

    An ordering solves iff C_S/m^(|S|+1) lies in the ring for each of its
    proper prefix sets S (see the module docstring), so the search walks
    subsets of the hidden indices rather than orderings, and takes hidden
    objects of equal rank <= 1 in their given order; no bound on k is
    needed.  Every solvable ordering gives the same value C_all/m^k.  At
    m != 0 hidden ranks that multiply to at most 1 need no search, unless
    a witness is asked for (see the module docstring).  With m = 0 the
    outcome is read off directly: a nonzero pairing form is undefined; a
    zero one is defined (and zero) in the identity ordering when an
    endpoint has rank 0, else in the first ordering that ends in a rank-0
    hidden object, else ambiguous, and there is no witness.  With
    ``want_witness`` the found ordering is replayed once, and the matrix
    each stage divides becomes its filler: filler i has its pairs
    regrouped into the order alpha[i:], and psi is the final column.  The
    witness's diagram has h^4 entries in its widest edge, mix-0, for h the
    product of the hidden ranks: built as a ``Monomial`` of h^2 rows, it
    is still h^4 cells of output text.  Past ``ENTRY_BOUND`` a witness is
    refused once the search has found an ordering, before psi or a filler
    is built.
    """
    model = p.model
    m = model.mix
    dims = p.hidden
    if m != 0 and p.hidden_size <= 1 and not want_witness:
        r = induced_mixed_trace(p)
        return defined(r.value, Permutation(range(p.k))) \
            if r.is_defined else r
    pf = pairing_form(p)
    if p.k and m == 0:
        if any(v for row in pf.entries for v in row):
            return undefined()
        if p.cod * p.dom == 0:
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
    order, column = found
    a, ba = p.dom, p.cod * p.dom
    value = Mor(model, p.dom, p.cod, tuple(
        tuple(v for (v,) in column[b * a:b * a + a])
        for b in range(p.cod)))
    witness = None
    if want_witness:
        h = p.hidden_size
        check_entry_count(h, 4, f"a staircase witness at hidden size {h}")
        psi = Mor(model, 1, ba, tuple(map(tuple, column)))
        fillers = []
        rows, rest = pf.entries, list(range(p.k))
        for n, i in enumerate(order):
            divided = divide_by_mix(rows, m, None)  # m divides rows, as found
            sizes = [dims[j] * dims[j] for j in rest]
            slot = {j: 1 + pos for pos, j in enumerate(rest)}
            stage = Mor(model, prod(sizes), ba,
                        tuple(map(tuple, divided)))
            fillers.append(regroup(stage, [ba], sizes, [0],
                                   [slot[j] for j in order[n:]]))
            pos = slot[i] - 1
            rows = _contract_pair(divided, dims[i], prod(sizes[:pos]),
                                  prod(sizes[pos + 1:]))
            del rest[pos]
        witness = StaircaseWitness(psi, tuple(fillers))
    return defined(value, Permutation(order), witness)


def staircase_layout(p: Loop, witness: StaircaseWitness
                     ) -> Tuple[List[int], List[tuple]]:
    """The solved staircase of a loop laid out as a checkable diagram: the
    node ranks, and each edge as (src, dst, label, matrix).  Node i < k
    of the ladder reaches level k + 1 + i, of the same rank, by mix-i,
    m*Id, and node i + 1 reaches it by coev-i, coev_u (x) Id; both are
    ``Monomial``s.  Filler i points from level i, and the pairing form
    from node 0 and psi from node k, at the apex node of rank B*A.
    Commutation of this diagram is exactly the staircase condition."""
    dims, k = p.hidden, p.k
    m = p.model.mix
    suffix = [1] * (k + 1)
    for i in reversed(range(k)):
        suffix[i] = dims[i] * dims[i] * suffix[i + 1]
    apex = 2 * k + 1
    edges = []
    for i, u in enumerate(dims):
        level, rest = k + 1 + i, suffix[i + 1]
        # row (a, b, r) of coev_u (x) Id holds its 1 at column r iff a == b
        cols = [None] * suffix[i]
        for a in range(u):
            start = a * (u + 1) * rest
            cols[start:start + rest] = range(rest)
        edges += [(i, level, f"mix-{i}",
                   Monomial(m, suffix[i], range(suffix[i]))),
                  (i + 1, level, f"coev-{i}", Monomial(1, rest, cols)),
                  (level, apex, f"filler-{i}", witness.fillers[i])]
    edges += [(0, apex, "pairing", pairing_form(p)),
              (k, apex, "psi", witness.psi)]
    return suffix + suffix[:k] + [p.cod * p.dom], edges


def induced_mixed_trace(p: Loop) -> TraceResult:
    """The trace induced by localizing the mix scalar: contract the hidden
    indices and divide by m^k through ``divide_by_mix``, which stops at
    the first quotient outside the base ring; Undefined if there is one.
    At k = 0 it is the carrier."""
    if p.model.mix == 0:
        raise ModelNotCompactifiableError(
            "the induced trace needs a nonzero mix scalar")
    rows = divide_by_mix(
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
    q = Loop(p.model, p.dom * prod(head), p.cod * prod(head), tail,
             p.carrier)
    r = trace_of(q)
    if not r.is_defined:
        return None
    return Loop(p.model, p.dom, p.cod, head, r.value)


# ---------------------------------------------------------------------------
# The randomized axiom suite.

AXIOMS = ("naturality", "dinaturality", "strength", "vanishing",
          "adjointability", "yanking")

_CARRIER_BOUND = 4
# The most hidden objects an axiom suite's loops may draw.
_HIDDEN_BOUND = 32
# Failures of one axiom reported in full; later ones are reported as "...".
_FAILURE_DETAIL_CAP = 10


class AxiomStats:
    def __init__(self):
        self.checked = self.skipped_undefined = self.one_sided = 0
        self.failures: List[dict] = []

    def to_dict(self):
        return {
            "checked": self.checked,
            "skippedUndefined": self.skipped_undefined,
            "oneSidedDefinedness": self.one_sided,
            "failures": self.failures,
        }


class SuiteReport:
    def __init__(self, model: Model, seed: int, cases: int, max_rank: int,
                 max_hidden: int):
        self.model, self.seed, self.cases = model, seed, cases
        self.max_rank, self.max_hidden = max_rank, max_hidden
        self.stats: Dict[str, Dict[str, AxiomStats]] = {}
        self.defined_cases: Dict[str, int] = {}
        self.notes: List[str] = []

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
    a = _weighted_rank(rng, max_rank)
    b = _weighted_rank(rng, max_rank)
    hidden = tuple(_weighted_rank(rng, max_rank) for _ in range(k))
    h = prod(hidden)
    carrier = random_mor(model, rng, a * h, b * h, _CARRIER_BOUND)
    style = rng.random()
    if style < 0.5:
        carrier = mor_scale(carrier, model.mix ** k if k else 1)
    elif style < 0.65 and k > 1:
        carrier = mor_scale(carrier, model.mix ** (k - 1))
    return Loop(model, a, b, hidden, carrier)


def _side_repr(side) -> str:
    """One side of a failed comparison, a Mor or a TraceResult."""
    if isinstance(side, TraceResult):
        return _side_repr(side.value) if side.is_defined else side.status
    return "[" + "; ".join(" ".join(str(v) for v in row)
                           for row in side.entries) + "]"


def _judge(stats: Dict[str, AxiomStats], seed, case: int, axiom: str, lhs,
           rhs, one_sided: bool = False, agree=operator.eq,
           detail: str = "") -> None:
    """Tally one comparison of one axiom.  A side is a Mor, always defined,
    or a TraceResult.  Neither side defined skips the comparison; exactly
    one defined is tallied as one-sided under the ``one_sided`` reading;
    any other is checked, and fails unless both sides are defined and
    ``agree`` holds of their values."""
    st = stats[axiom]
    left, right = (s.value if isinstance(s, TraceResult) else s
                   for s in (lhs, rhs))
    if left is None and right is None:
        st.skipped_undefined += 1
    elif one_sided and (left is None or right is None):
        st.one_sided += 1
    else:
        st.checked += 1
        if left is None or right is None or not agree(left, right):
            entry = {"seed": seed, "case": case, "detail": "..."}
            if len(st.failures) < _FAILURE_DETAIL_CAP:
                entry.update(detail=detail or f"{axiom} mismatch",
                             lhs=_side_repr(lhs), rhs=_side_repr(rhs))
            st.failures.append(entry)


def run_axiom_suite(model: Model, seed: int = 0, cases: int = 1000,
                    max_rank: int = 3, max_hidden: int = 2) -> SuiteReport:
    """Check the mixed-trace axioms on seeded random loops, for both the
    free and the induced trace, in their whenever-defined readings (see
    the module docstring).

    Naturality and strength are compared only where the loop's trace is
    defined, and Vanishing only where its inner trace is.  The largest
    matrix, the strength loop's carrier, has max_rank^(2
    max_hidden + 4) entries; past ``ENTRY_BOUND`` the suite is refused
    before any matrix is built.  At max_rank <= 1 every matrix is 1 x 1,
    yet each loop draws up to max_hidden hidden objects, so past
    ``_HIDDEN_BOUND`` of them the suite is refused too.
    """
    if max_rank < 0 or max_hidden < 0 or cases < 0:
        raise InputError("max_rank, max_hidden and cases must be >= 0")
    check_entry_count(max_rank, 2 * max_hidden + 4,
                      f"an axiom suite at max_rank {max_rank} and max_hidden "
                      f"{max_hidden}")
    if max_hidden > _HIDDEN_BOUND:
        raise ResourceLimitError(
            f"an axiom suite at max_hidden {max_hidden} draws loops of up to "
            f"{max_hidden} hidden objects, more than the bound "
            f"{_HIDDEN_BOUND}")
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
        x = _weighted_rank(rng, max_rank)
        y = _weighted_rank(rng, max_rank)
        f_in = random_mor(model, rng, x, p.dom)
        g_out = random_mor(model, rng, p.cod, y)
        f_str = random_mor(model, rng, x, y)
        split = rng.randint(0, p.k)
        alpha_images = list(range(p.k))
        rng.shuffle(alpha_images)
        alpha = Permutation(tuple(alpha_images))
        yank_rank = rng.randint(0, max_rank)
        # p's derived loops serve every kind; these two only once needed
        natural = cache(lambda: loop_compose(
            morphism_loop(g_out), loop_compose(p, morphism_loop(f_in))))
        strong = cache(lambda: loop_tensor(morphism_loop(f_str), p))
        swapped, dual = hidden_symmetry(p, alpha), loop_dual(p)

        for kind, trace_of in kinds:
            stats = report.stats[kind]
            judge = partial(_judge, stats, seed, case)
            tr = trace_of(p)
            # naturality and strength are read where p's trace is defined
            if tr.is_defined:
                report.defined_cases[kind] += 1
                judge("naturality", compose(g_out, compose(tr.value, f_in)),
                      trace_of(natural()))
                judge("strength", tensor_mor(f_str, tr.value),
                      trace_of(strong()))
            else:
                stats["naturality"].skipped_undefined += 1
                stats["strength"].skipped_undefined += 1
            judge("dinaturality", tr, trace_of(swapped))
            # vanishing is read where the inner trace is defined
            traced = hidden_trace(p, p.k - split, trace_of)
            if traced is None:
                stats["vanishing"].skipped_undefined += 1
            else:
                judge("vanishing", tr, trace_of(traced), one_sided=True)
            judge("adjointability", tr, trace_of(dual),
                  agree=lambda t, d: d == dual_mor(t))
            ty = yanked.get((kind, yank_rank))
            if ty is None:
                ty = yanked[kind, yank_rank] = trace_of(
                    yanking_loop(model, yank_rank))
            judge("yanking", ty, identity(model, yank_rank),
                  detail=f"yanking fails at rank {yank_rank}")
    return report
