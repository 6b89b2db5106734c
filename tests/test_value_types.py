"""The behaviour of 17 value types, pinned independently of how they are
declared: field-wise equality and hashing, the ``Name(field=...)`` repr,
immutability, the validation messages and positional and keyword
construction of 13 frozen types, and the fields and fresh containers of
the four mutable report types."""

import re
from fractions import Fraction
from types import SimpleNamespace

import pytest

from mixtrace.category import (CheckResult, Model, Monomial, Mor,
                               ValidationReport, identity, zero_mor)
from mixtrace.errors import InputError
from mixtrace.loops import Loop, Permutation
from mixtrace.rings import INTEGERS, RingTag
from mixtrace.traces import (AxiomStats, StaircaseWitness, SuiteReport,
                             TraceResult)
from mixtrace.zigzag import (CounterPath, Diagram, SearchResult,
                             ZigZagInstance, ZigZagOutcome)

Z1 = Model(INTEGERS, 1)
Z2 = Model(INTEGERS, 2)
r1, r2 = 1, 2
ONE = identity(Z2, r1)


def _zigzag_fields(**changed):
    """The fields of a well-formed one-factor zig-zag instance over Z2, in
    declaration order, with the given ones changed."""
    fields = dict(model=Z2, upper=(r1,), apex=(r1,), lower=(r1,),
                  down_maps=(ONE,), up_maps=(ONE,), perm=Permutation((0,)),
                  hub=r1, left_fillers=(ONE, ONE), right_fillers=(ONE, ONE))
    fields.update(changed)
    return fields


# Each frozen type with the fields of one instance, in declaration order.
FROZEN = [
    (RingTag, dict(kind="Zloc", m=6)),
    (Model, dict(ring=INTEGERS, mix=2)),
    (Mor, dict(model=Z2, dom=r1, cod=r2, entries=((1,), (2,)))),
    (Monomial, dict(scalar=2, dom=3, cols=(0, None, 2))),
    (Permutation, dict(images=(1, 0))),
    (Loop, dict(model=Z2, dom=r1, cod=r1, hidden=(r1,), carrier=ONE)),
    (Diagram, dict(model=Z2, objects=(r1, r1), edges=((0, 1, "f", ONE),))),
    (CounterPath, dict(src=0, dst=1, path_a=(0,), path_b=(1,))),
    (ZigZagInstance, _zigzag_fields()),
    (ZigZagOutcome, dict(status="holds", counter=None)),
    (SearchResult, dict(status="none_found", instance=None,
                        stats={"samples": 1}, samples=1)),
    (StaircaseWitness, dict(psi=ONE, fillers=(ONE,))),
    (TraceResult, dict(status="defined", value=ONE, alpha=Permutation((0,)),
                       witness=None)),
]
FROZEN_IDS = [cls.__name__ for cls, _ in FROZEN]


@pytest.mark.parametrize("cls, fields", FROZEN, ids=FROZEN_IDS)
def test_equal_fields_give_equal_values(cls, fields):
    a, b = cls(*fields.values()), cls(**fields)
    assert a is not b and a == b and not a != b
    assert a == a
    if cls is SearchResult:  # its stats dict makes it unhashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("cls, fields", FROZEN, ids=FROZEN_IDS)
def test_another_type_with_the_same_fields_is_unequal(cls, fields):
    a = cls(**fields)
    lookalike = SimpleNamespace(**fields)
    assert a != lookalike and not a == lookalike
    assert a.__eq__(tuple(fields.values())) is NotImplemented
    if cls is not RingTag:  # rings compare as rings, subclasses included
        sub = type("Sub", (cls,), {})(**fields)
        assert a.__eq__(sub) is NotImplemented and a != sub


# One field changed per frozen type, to a value that keeps it well-formed.
CHANGED = {
    RingTag: dict(m=5), Model: dict(mix=3),
    Mor: dict(entries=((1,), (3,))), Monomial: dict(cols=(0, None, 1)),
    Permutation: dict(images=(0, 1)),
    Loop: dict(carrier=zero_mor(Z2, r1, r1)),
    Diagram: dict(edges=()), CounterPath: dict(path_b=(2,)),
    ZigZagInstance: dict(right_fillers=(ONE, zero_mor(Z2, r1, r1))),
    ZigZagOutcome: dict(status="violated"), SearchResult: dict(samples=2),
    StaircaseWitness: dict(fillers=()),
    TraceResult: dict(witness=StaircaseWitness(ONE, ())),
}


@pytest.mark.parametrize("cls, fields", FROZEN, ids=FROZEN_IDS)
def test_one_changed_field_is_unequal(cls, fields):
    assert cls(**fields) != cls(**dict(fields, **CHANGED[cls]))


@pytest.mark.parametrize("cls, fields", FROZEN, ids=FROZEN_IDS)
def test_repr_names_every_field(cls, fields):
    a = cls(**fields)
    shown = ", ".join(f"{k}={getattr(a, k)!r}" for k in fields)
    assert repr(a) == f"{cls.__name__}({shown})"


def test_repr_text():
    assert repr(Permutation((1, 0))) == "Permutation(images=(1, 0))"
    assert repr(Model(INTEGERS, 2)) == (
        "Model(ring=RingTag(kind='Z', m=None), mix=2)")
    assert repr(identity(Z2, r1)) == (
        "Mor(model=Model(ring=RingTag(kind='Z', m=None), mix=2), "
        "dom=1, cod=1, entries=((1,),))")
    assert repr(Monomial(2, 3, [0, None, 2])) == (
        "Monomial(scalar=2, dom=3, cols=(0, None, 2))")
    assert Monomial(2, 3, [0, None, 2]).cod == 3
    assert repr(TraceResult("undefined")) == (
        "TraceResult(status='undefined', value=None, alpha=None, "
        "witness=None)")


@pytest.mark.parametrize("cls, fields", FROZEN, ids=FROZEN_IDS)
def test_frozen_types_refuse_assignment_and_deletion(cls, fields):
    a = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == cls(**fields)


def test_defaults_and_normalization():
    assert RingTag("Z").m is None
    assert ZigZagOutcome("holds").counter is None
    assert TraceResult("ambiguous") == TraceResult("ambiguous", None, None,
                                                   None)
    mix = Model(INTEGERS, Fraction(4, 2)).mix
    assert mix == 2 and type(mix) is int
    assert Permutation([1, 0]).images == (1, 0)
    assert Loop(Z2, r1, r1, [r1], ONE).hidden == (r1,)
    d = Diagram(Z2, [r1, r1], [(0, 1, "f", ONE)])
    assert d.objects == (r1, r1) and d.edges == ((0, 1, "f", ONE),)
    listed = {k: list(v) if isinstance(v, tuple) else v
              for k, v in _zigzag_fields().items()}
    assert ZigZagInstance(**listed) == ZigZagInstance(**_zigzag_fields())


def test_post_init_is_looked_up_on_the_class(monkeypatch):
    seen = []
    monkeypatch.setattr(Mor, "__post_init__", lambda self: seen.append(self))
    monkeypatch.setattr(Diagram, "__post_init__",
                        lambda self: seen.append(self))
    f = Mor(Z2, r2, r2, ())  # the shape check is patched out
    d = Diagram(Z2, [], [])
    assert seen == [f, d]


@pytest.mark.parametrize("build, message", [
    (lambda: RingTag("X"), "unknown ring kind 'X'"),
    (lambda: RingTag("Zloc"), "localization requires an integer m >= 1"),
    (lambda: RingTag("Zloc", 0), "localization requires an integer m >= 1"),
    (lambda: RingTag("Z", 2), "ring 'Z' takes no parameter"),
    (lambda: Model(INTEGERS, Fraction(1, 2)), "mix scalar 1/2 is not in Z"),
    (lambda: Model(INTEGERS, True),
     "mix scalars must be exact numbers, not bool"),
    (lambda: Model(INTEGERS, 1.5),
     "mix scalars must be int or Fraction, got float"),
    (lambda: Loop(Z2, -1, r1, (), ONE),
     "object rank must be a non-negative integer"),
    (lambda: ZigZagInstance(**_zigzag_fields(hub="3")),
     "object rank must be a non-negative integer"),
    (lambda: Mor(Z2, r2, r1, ((1, 2), (3, 4))), "expected 1 rows, got 2"),
    (lambda: Mor(Z2, r2, r1, ((1,),)), "expected 2 columns, got 1"),
    (lambda: Permutation([0, 2]), "not a permutation: (0, 2)"),
    (lambda: Loop(Z1, r1, r1, (), ONE), "carrier belongs to a different model"),
    (lambda: Loop(Z2, r1, r1, (r2,), ONE), "carrier domain rank 1 != 1 * 2"),
    (lambda: Loop(Z2, r1, r2, (), ONE), "carrier codomain rank 1 != 2 * 1"),
    (lambda: Diagram(Z2, (r1,), ((0, 1, "e", ONE),)),
     "edge 'e' references a missing node"),
    (lambda: Diagram(Z1, (r1, r1), ((0, 1, "e", ONE),)),
     "edge 'e' is in the wrong model"),
    (lambda: Diagram(Z2, (r2, r1), ((0, 1, "e", ONE),)),
     "edge 'e': domain rank 1 != node rank 2"),
    (lambda: Diagram(Z2, (r1, r2), ((0, 1, "e", ONE),)),
     "edge 'e': codomain rank 1 != node rank 2"),
    (lambda: ZigZagInstance(**_zigzag_fields(apex=(r1, r1))),
     "tuple lengths disagree"),
    (lambda: ZigZagInstance(**_zigzag_fields(perm=Permutation((1, 0)))),
     "permutation size disagrees with the tuples"),
    (lambda: ZigZagInstance(**_zigzag_fields(left_fillers=(ONE,))),
     "each filler column needs n + 1 morphisms"),
    (lambda: ZigZagInstance(**_zigzag_fields(
        down_maps=(identity(Z2, r2),))), "down map 0 has the wrong shape"),
    (lambda: ZigZagInstance(**_zigzag_fields(
        up_maps=(identity(Z2, r2),))), "up map 0 has the wrong shape"),
    (lambda: ZigZagInstance(**_zigzag_fields(
        left_fillers=(identity(Z2, r2), ONE))),
     "left filler 0 has the wrong shape"),
    (lambda: ZigZagInstance(**_zigzag_fields(
        right_fillers=(ONE, identity(Z2, r2)))),
     "right filler 1 has the wrong shape"),
])
def test_validation_messages(build, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        build()


def test_check_result_and_validation_report():
    c = CheckResult("c", False, "why")
    assert CheckResult("c", True).detail == ""
    c.passed = True
    assert c.to_dict() == {"name": "c", "passed": True, "detail": "why"}
    a, b = ValidationReport("a"), ValidationReport("b")
    a.first_failure("x", iter(["bad"]))
    assert b.checks == [] and b.ok and not a.ok
    assert a.to_dict()["checks"] == [
        {"name": "x", "passed": False, "detail": "bad"}]


def test_axiom_stats_and_suite_report():
    a = AxiomStats()
    a.checked, a.skipped_undefined, a.one_sided = 1, 2, 3
    a.failures.append({})
    assert AxiomStats().failures == []
    assert a.to_dict() == {"checked": 1, "skippedUndefined": 2,
                           "oneSidedDefinedness": 3, "failures": [{}]}
    s = SuiteReport(Z2, 1, 2, 3, 4)
    s.notes.append("n")
    s.defined_cases["free"] = 1
    s.stats["free"] = {}
    t = SuiteReport(Z2, 1, 2, 3, 4)
    assert (t.stats, t.defined_cases, t.notes) == ({}, {}, [])
    assert (s.model, s.seed, s.cases, s.max_rank, s.max_hidden) == (
        Z2, 1, 2, 3, 4)
