"""Reference free mixed trace: the k! ordering enumerator.

Runs one full staircase per hidden ordering, in lexicographic order, and
keeps the first solvable one.  The library's prefix-set search must agree
with it on status, ordering, value and witness.
"""

from dataclasses import replace

from mixtrace.loops import all_permutations, hidden_symmetry
from mixtrace.traces import (AMBIGUOUS, ambiguous, provisional_trace,
                             undefined)


def free_trace_by_orderings(p, want_witness=False):
    saw_ambiguous = False
    for alpha in all_permutations(p.k):
        r = provisional_trace(hidden_symmetry(p, alpha),
                              want_witness=want_witness)
        if r.status == AMBIGUOUS:
            saw_ambiguous = True
        elif r.is_defined:
            return replace(r, alpha=alpha)
    return ambiguous() if saw_ambiguous else undefined()


def assert_solvable_orderings_agree(p, res):
    """Some ordering's staircase solves iff the free trace ``res`` is
    defined, and every one that solves gives its value."""
    values = [r.value for r in (provisional_trace(hidden_symmetry(p, alpha))
                                for alpha in all_permutations(p.k))
              if r.is_defined]
    assert bool(values) == res.is_defined, (len(values), res.status)
    assert all(v == res.value for v in values), (values, res.value)
