"""The ring decisions the engine makes, pinned through public entry points:
the ring a model localizes to, what ``realize`` returns or refuses, how a
``zloc`` selector is read, and the canonical form of a quotient entry."""

import json
from fractions import Fraction

import pytest

from mixtrace.category import Model
from mixtrace.cli import parse_model_arg
from mixtrace.compactify import localized_model, realize
from mixtrace.errors import InputError, ModelNotCompactifiableError
from mixtrace.rings import INTEGERS, RATIONALS, localized_integers
from mixtrace.serialize import dumps, loop_to_json, mor_from_json

RINGS = {"Z": INTEGERS, "Q": RATIONALS, "Z[1/2]": localized_integers(2),
         "Z[1/3]": localized_integers(3), "Z[1/6]": localized_integers(6)}
HALF, FOUR_NINTHS = Fraction(1, 2), Fraction(4, 9)

# (ring, mix) -> (the localized ring as printed, its parameter), for every
# mix of 1, -1, 2, -2, 3, 6, 1/2 and 4/9 that lies in the ring
LOCALIZED = {
    ("Z", 1): ("Z[1/1]", 1), ("Z", -1): ("Z[1/1]", 1),
    ("Z", 2): ("Z[1/2]", 2), ("Z", -2): ("Z[1/2]", 2),
    ("Z", 3): ("Z[1/3]", 3), ("Z", 6): ("Z[1/6]", 6),
    **{("Q", m): ("Q", None)
       for m in (1, -1, 2, -2, 3, 6, HALF, FOUR_NINTHS)},
    ("Z[1/2]", 1): ("Z[1/2]", 2), ("Z[1/2]", -1): ("Z[1/2]", 2),
    ("Z[1/2]", 2): ("Z[1/2]", 2), ("Z[1/2]", -2): ("Z[1/2]", 2),
    ("Z[1/2]", 3): ("Z[1/6]", 6), ("Z[1/2]", 6): ("Z[1/6]", 6),
    ("Z[1/2]", HALF): ("Z[1/2]", 2),
    ("Z[1/3]", 1): ("Z[1/3]", 3), ("Z[1/3]", -1): ("Z[1/3]", 3),
    ("Z[1/3]", 2): ("Z[1/6]", 6), ("Z[1/3]", -2): ("Z[1/6]", 6),
    ("Z[1/3]", 3): ("Z[1/3]", 3), ("Z[1/3]", 6): ("Z[1/6]", 6),
    ("Z[1/3]", FOUR_NINTHS): ("Z[1/12]", 12),
    **{("Z[1/6]", m): ("Z[1/6]", 6) for m in (1, -1, 2, -2, 3, 6, HALF)},
    ("Z[1/6]", FOUR_NINTHS): ("Z[1/12]", 12),
}


@pytest.mark.parametrize("ring,mix", sorted(LOCALIZED, key=str))
def test_localized_model_inverts_the_mix(ring, mix):
    target = localized_model(Model(RINGS[ring], mix))
    assert (str(target.ring), target.ring.m) == LOCALIZED[ring, mix]
    assert target.mix == mix


def test_mixes_outside_the_ring_are_the_ones_not_localized():
    for ring in RINGS:
        for mix in (1, -1, 2, -2, 3, 6, HALF, FOUR_NINTHS):
            if (ring, mix) not in LOCALIZED:
                with pytest.raises(InputError, match="is not in"):
                    Model(RINGS[ring], mix)


def _matrix(ring, mix, rows):
    return mor_from_json({"model": {"ring": ring, "mix": mix},
                          "dom": len(rows[0]), "cod": len(rows),
                          "entries": rows})


def _loop(model, hidden, rows):
    return {"model": model, "A": len(rows[0]), "B": len(rows),
            "hidden": hidden,
            "carrier": {"model": model, "dom": len(rows[0]),
                        "cod": len(rows), "entries": rows}}


@pytest.mark.parametrize("ring,mix,rows,expected", [
    # cleared by 2^2 and by (-2)^3 = -8, into the integers at the same mix
    ({"Zloc": 2}, "2", [["3/4", "1"], ["-1/2", "0"]],
     _loop({"ring": "Z", "mix": "2"}, [1, 1], [["3", "4"], ["-2", "0"]])),
    ({"Zloc": 2}, "-2", [["5/8"]],
     _loop({"ring": "Z", "mix": "-2"}, [1, 1, 1], [["-5"]])),
    # 36 = 6^2 clears both 4 and 9
    ({"Zloc": 6}, "6", [["1/4", "1/9"]],
     _loop({"ring": "Z", "mix": "6"}, [1, 1], [["9", "4"]])),
    # over Q the matrix comes back as it is
    ("Q", "1/2", [["1/3"], ["5"]],
     _loop({"ring": "Q", "mix": "1/2"}, [], [["1/3"], ["5"]])),
    # integral quotients are read as ints and need no clearing
    ({"Zloc": 2}, "2", [["4/2", "-6/3"]],
     _loop({"ring": "Z", "mix": "2"}, [], [["2", "-2"]])),
])
def test_realize_outputs(ring, mix, rows, expected):
    got = json.loads(dumps(loop_to_json(realize(_matrix(ring, mix, rows)))))
    assert got == expected


@pytest.mark.parametrize("ring,mix,rows,error,message", [
    ({"Zloc": 6}, "2", [["1/3"]], InputError,
     "entry 1/3: no power of the mix scalar 2 clears its denominator"),
    ("Q", "0", [["1"]], ModelNotCompactifiableError,
     "a zero mix scalar admits no compactification"),
    ("Z", "2", [["1"]], InputError,
     "realize expects a matrix over a localized ring"),
    ({"Zloc": 2}, "1/2", [["1"]], InputError,
     "realize needs a nonzero integer mix scalar"),
    ({"Zloc": 2}, "0", [["1"]], ModelNotCompactifiableError,
     "realize needs a nonzero integer mix scalar"),
])
def test_realize_refusals(ring, mix, rows, error, message):
    with pytest.raises(InputError) as info:
        realize(_matrix(ring, mix, rows))
    assert type(info.value) is error and str(info.value) == message


def test_zloc_selectors():
    model = parse_model_arg("zloc:2/1")
    assert model == Model(localized_integers(2), 2)
    assert type(model.mix) is int and type(model.ring.m) is int
    for text in ("zloc:1/2", "zloc:0"):
        with pytest.raises(InputError) as info:
            parse_model_arg(text)
        assert str(info.value) == (f"model {text!r}: localization requires "
                                   f"an integer m >= 1")


def test_an_integral_quotient_is_read_as_an_int():
    m = _matrix({"Zloc": 2}, "2", [["4/2", "1/2"]])
    assert m.entries == ((2, HALF),) and type(m.entries[0][0]) is int
