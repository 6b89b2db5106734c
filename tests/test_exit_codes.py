"""The exit-code contract under mutated input files: every run of
``cli.main`` on a loop, diagram, zig-zag instance, morphism or generators
file, however damaged, exits 0, 1 or 2 within a time bound, and no
exception escapes it (which on the command line would print a
traceback)."""

import contextlib
import io
import json
import os
import random
import signal
import sys
import tempfile
import time
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from mixtrace import cli
from mixtrace.category import Model, mor
from mixtrace.loops import Loop, morphism_loop
from mixtrace.rings import INTEGERS, RATIONALS, localized_integers
from mixtrace.serialize import (dumps, loop_to_json, mor_to_json,
                                trace_result_to_json, zigzag_to_json)
from mixtrace.traces import free_mixed_trace, random_loop
from mixtrace.zigzag import search_counterexample

SECONDS = 5  # per case; a case past it fails with CaseTooSlow

MODELS = (Model(INTEGERS, 2), Model(RATIONALS, Fraction(1, 2)),
          Model(localized_integers(2), 2))


def _plain(payload):
    """A ``*_to_json`` payload as the JSON it is written as."""
    return json.loads(dumps(payload))


def _loops():
    return [_plain(loop_to_json(random_loop(random.Random(seed), model, 3, 2)))
            for model in MODELS for seed in (1, 2)]


def _diagram():
    # the emitted staircase of the first seeded loop with a hidden object
    # and a free trace
    for seed in range(100):
        p = random_loop(random.Random(seed), MODELS[0], 2, 2)
        r = free_mixed_trace(p, want_witness=True)
        if p.hidden and r.is_defined:
            return _plain(trace_result_to_json(r, p))["witness"]["diagram"]
    raise AssertionError("no seed gives a defined free trace")


def _zigzag():
    found = search_counterexample(Model(INTEGERS, 0), 2, 2, seed=5)
    return _plain(zigzag_to_json(found.instance))


def _matrices():
    # localized entries realize clears with a power of the mix; over Q the
    # matrix comes back as it is
    return [_plain(mor_to_json(mor(model, len(rows[0]), len(rows),
                                   rows)))
            for model, rows in (
                (MODELS[2], [[Fraction(1, 4), 3], [Fraction(-1, 2), 0]]),
                (Model(localized_integers(6), 6),
                 [[Fraction(1, 6)], [Fraction(5, 4)]]),
                (MODELS[1], [[Fraction(1, 3), 2]]))]


# a pair the bounded search tells apart only through the generators, which
# share its model and endpoints, and a generator that does not
r1 = 1
THREE, FIVE = (_plain(loop_to_json(morphism_loop(mor(MODELS[0], r1, r1,
                                                     [[v]]))))
               for v in (3, 5))
GENERATORS = {"loops": [_plain(loop_to_json(p)) for p in (
    Loop(MODELS[0], r1, r1, (r1,), mor(MODELS[0], r1, r1, [[6]])),
    Loop(MODELS[0], r1, r1, (r1, 2),
         mor(MODELS[0], 2, 2, [[4, 2], [0, 8]])),
    random_loop(random.Random(3), MODELS[0], 3, 2))]}

LOOPS, DIAGRAM, ZIGZAG = _loops(), _diagram(), _zigzag()
MATRICES = _matrices()

# texts near the scalar syntax, quotients, and integer text past Python's
# limit on the digits it converts
LONG = "9" * 5000
NEAR_MISSES = [" 5", "5 ", "1 2", "1_0", "٣", "", "+", "1/", "1/0", "0/0",
               "-1/2", "4/2", "00", "-0", "1e3", "0.5", LONG, "1/" + LONG,
               "-" + LONG, LONG + "/7"]
SCALARS = ["0", "1", "-3", "1/2", "6/4"]


def _paths(node, path=()):
    """(path, value) for every list and leaf under node."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        yield path, node
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))
    else:
        yield path, node


def _set(data, path, value):
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@st.composite
def mutated(draw, base):
    """base with one to three changes: a text becomes a near miss or
    another scalar, a list gets longer or shorter, or an integer (a rank,
    an index, a size) changes."""
    data = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 3))):
        path, value = draw(st.sampled_from(list(_paths(data))))
        if isinstance(value, list):
            if value and draw(st.booleans()):
                value = value[:-1]
            else:
                value = value + [json.loads(json.dumps(
                    draw(st.sampled_from(value)) if value else "1"))]
        elif isinstance(value, str):
            value = draw(st.sampled_from(NEAR_MISSES + SCALARS))
        else:
            value = draw(st.integers(-1, 5) | st.sampled_from(
                [True, None, "1", 0.5]))
        data = _set(data, path, value)
    return data


class CaseTooSlow(Exception):
    pass


def _on_alarm(signum, frame):
    raise CaseTooSlow(f"a case ran past {SECONDS} s")


def _run(argv):
    """cli.main(argv) with stdout and stderr captured, under an alarm."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, SECONDS)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue(), time.perf_counter() - start


def _check(payload, argv_of):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        argv = argv_of(path)
        code, err, seconds = _run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, err
    assert code != 2 or err.startswith("input error:"), err
    assert seconds < SECONDS
    return code, err


LOOP_VERBS = (
    lambda f: ["trace", "--mode", "free", "--loop", f],
    lambda f: ["trace", "--mode", "free", "--witness", "--loop", f],
    lambda f: ["trace", "--mode", "induced", "--loop", f],
    lambda f: ["congruent", "--mode", "bounded:1", "--left", f, "--right", f],
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from(LOOP_VERBS))
def test_mutated_loop_files(data, argv_of):
    base = data.draw(st.sampled_from(LOOPS))
    _check(data.draw(mutated(base)), argv_of)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_diagram_files(data):
    _check(data.draw(mutated(DIAGRAM)),
           lambda f: ["zigzag-check", "--instance", f])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_zigzag_instance_files(data):
    _check(data.draw(mutated(ZIGZAG)),
           lambda f: ["zigzag-check", "--instance", f])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_morphism_files(data):
    base = data.draw(st.sampled_from(MATRICES))
    _check(data.draw(mutated(base)), lambda f: ["realize", "--matrix", f])


def _congruent_with_generators(path):
    """The bounded congruence of THREE and FIVE with the generators file
    at path; the two loop files are written beside it."""
    sides = []
    for name, loop in (("left", THREE), ("right", FIVE)):
        sides.append(os.path.join(os.path.dirname(path), f"{name}.json"))
        with open(sides[-1], "w", encoding="utf-8") as fh:
            json.dump(loop, fh)
    return ["congruent", "--mode", "bounded:1", "--left", sides[0],
            "--right", sides[1], "--generators", path]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_generators_files(data):
    _check(data.draw(mutated(GENERATORS)), _congruent_with_generators)


def test_oversized_output_value_is_a_resource_limit():
    # realize clears the denominator 10 with one factor of the mix 10^4000:
    # the carrier entry has 7999 digits, more than Python writes as integer
    # text, and the writer names the limit instead of a traceback
    matrix = {"model": {"ring": {"Zloc": 10 ** 4000}, "mix": str(10 ** 4000)},
              "dom": 1, "cod": 1, "entries": [["7" * 4000 + "/10"]]}
    code, err = _check(matrix, lambda f: ["realize", "--matrix", f])
    assert code == 1 and err == (
        "resource limit: an output value with more than 4300 digits in one "
        "part, the limit of integer text\n"), err


def test_long_integer_text_is_an_input_error():
    # past the limit int() refuses the text: exit 2 naming the limit, not a
    # traceback, for a carrier cell, a denominator and the mix alike
    for path in (("carrier", "entries", 0, 0), ("model", "mix")):
        for text in (LONG, "1/" + LONG):
            loop = _set(json.loads(json.dumps(LOOPS[0])), path, text)
            code, err = _check(
                loop, lambda f: ["trace", "--mode", "free", "--loop", f])
            assert code == 2 and err.endswith(
                "scalar with 5000 digits in one part, more than the limit "
                "of 4300 digits\n"), err
    # the model text is echoed as a prefix and its length, not whole
    code, err, _ = _run(["axioms", "--model", "zmod:" + LONG])
    assert code == 2 and err == (
        "input error: model 'zmod:" + "9" * 27 + "'... (5005 characters): "
        "scalar with 5000 digits in one part, more than the limit of 4300 "
        "digits\n"), err


def test_long_entry_outside_its_ring_is_named_by_a_prefix():
    # a value an error names is cut as echoed text is: up to 32 characters
    # in full ("entry 1/3 is not in Z"), past that its first 32 and its
    # length, in the reader's ring check, in realize and in a model alike
    def matrix(ring, mix, entry):
        return {"model": {"ring": ring, "mix": mix}, "dom": 1, "cod": 1,
                "entries": [[entry]]}

    threes, power = "1/" + "3" * 4000, "1/" + str(3 ** 8000)
    for data, error in (
            (matrix("Z", "2", "1/3"), "entry 1/3 is not in Z"),
            (matrix("Z", "2", threes),
             f"entry {threes[:32]}... (4002 characters) is not in Z"),
            (matrix({"Zloc": 6}, "2", power),
             f"entry {power[:32]}... (3819 characters): no power of the mix "
             "scalar 2 clears its denominator"),
            (matrix({"Zloc": 6}, "2" * 4000, "1/3"),
             f"entry 1/3: no power of the mix scalar {'2' * 32}... (4000 "
             "characters) clears its denominator")):
        code, err = _check(data, lambda f: ["realize", "--matrix", f])
        assert code == 2 and err.endswith(f"{error}\n"), err
        assert len(err) < 200, len(err)
    # a --model mix outside its ring: the selector and the value both cut
    code, err, _ = _run(["axioms", "--model", "zmod:" + threes])
    assert (code, err) == (2, (
        f"input error: model 'zmod:{threes[:27]}'... (4007 characters): mix "
        f"scalar {threes[:32]}... (4002 characters) is not in Z\n"))


def test_long_bounded_depth_is_refused_before_the_files_are_read():
    # int() converts at most sys.get_int_max_str_digits() digits; a longer
    # depth is an input error, named before the absent loop files
    limit = sys.get_int_max_str_digits()
    argv = ["congruent", "--mode", "bounded:" + "9" * (limit + 1),
            "--left", "absent.json", "--right", "absent.json"]
    code, err, _ = _run(argv)
    assert (code, err) == (2, f"input error: --mode bounded depth of "
                              f"{limit + 1} digits, over {limit}\n")


def test_long_option_text_is_echoed_as_a_prefix(monkeypatch):
    # an option's text is echoed as its first 32 characters and its length
    x = "x" * 3000
    clipped = "'" + "x" * 32 + "'... (3000 characters)"

    def congruent(path, mode):
        return ["congruent", "--mode", mode, "--left", path, "--right", path]

    for mode, error in (("bounded:" + x, "bad bounded depth " + clipped),
                        (x, "unknown congruence mode " + clipped)):
        code, err = _check(LOOPS[0], lambda f: congruent(f, mode))
        assert (code, err) == (2, f"input error: {error}\n")
    monkeypatch.setenv("MIXCAT_SEED", x)
    code, err, _ = _run(["axioms", "--model", "zmod:2", "--cases", "1"])
    assert (code, err) == (
        2, f"input error: MIXCAT_SEED={clipped} is not an integer\n")
