"""JSON schemas for models, morphisms, loops, zig-zag instances, diagrams
and reports.  Scalars travel as strings, never floats.

Input is read with ``json.load``.  Output is canonical JSON, written by
``dumps`` directly: the standard encoder, asked for an indent, runs in
pure Python, several times slower on a witness diagram.  The writer
accepts only the types these schemas build.  A matrix travels as its
``Mor`` entries and is written from them: only nonzero cells are
formatted, and a run of zero cells (a witness is mostly 0) is one string,
made once per indent and run length in a ``dumps`` call.  The mix and
coevaluation edges of a staircase witness travel as ``Monomial``s, as
``traces.staircase_layout`` lays them out: each row is written from those
zero runs and the scalar's text, formatted once per edge, and no dense row
is built or scanned."""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import compress
from json.encoder import encode_basestring_ascii as _quote
from typing import List, Optional, Sequence

from .category import Monomial, Mor, Model
from .errors import InputError
from .loops import Loop, Permutation, hidden_symmetry
from .rings import (INTEGERS, RATIONALS, RingTag, canonical, echo,
                    format_value, localized_integers, parse_value,
                    ring_contains)
from .traces import StaircaseWitness, TraceResult, staircase_layout
from .zigzag import Diagram, ZigZagInstance, check_edge, level_ranks


class FileFormatError(InputError):
    """Malformed input file; the message carries the offending field."""


def _need(data: dict, key: str, where: str):
    if not isinstance(data, dict) or key not in data:
        raise FileFormatError(f"{where}: missing field {key!r}")
    return data[key]


def _need_list(data: dict, key: str, where: str) -> list:
    value = _need(data, key, where)
    if not isinstance(value, list):
        raise FileFormatError(f"{where}.{key}: expected a list")
    return value


def _int_field(value, where: str, least: int = 0) -> int:
    """An integer field; JSON true/false are rejected although Python
    counts bool as int."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise FileFormatError(f"{where}: expected an integer >= {least}")
    return value


def _int_list(data: dict, key: str, where: str) -> List[int]:
    return [_int_field(r, f"{where}.{key}[{i}]")
            for i, r in enumerate(_need_list(data, key, where))]


def ring_to_json(ring: RingTag):
    if ring.kind == "Zloc":
        return {"Zloc": ring.m}
    return ring.kind


def ring_from_json(data, where: str = "ring") -> RingTag:
    if data == "Z":
        return INTEGERS
    if data == "Q":
        return RATIONALS
    if isinstance(data, dict) and set(data) == {"Zloc"}:
        return localized_integers(_int_field(data["Zloc"], f"{where}.Zloc", 1))
    raise FileFormatError(f"{where}: expected \"Z\", \"Q\" or {{\"Zloc\": m}}")


def model_to_json(model: Model):
    return {"ring": ring_to_json(model.ring), "mix": format_value(model.mix)}


def model_from_json(data, where: str = "model") -> Model:
    ring = ring_from_json(_need(data, "ring", where), f"{where}.ring")
    mix_text = _need(data, "mix", where)
    if not isinstance(mix_text, str):
        raise FileFormatError(f"{where}.mix: scalars must be strings")
    try:
        return Model(ring, parse_value(mix_text))
    except InputError as exc:
        raise FileFormatError(f"{where}.mix: {exc}") from exc


# A row of integer text, its cells joined by single spaces.
_INT_ROW = re.compile(r"[+-]?[0-9]+(?: [+-]?[0-9]+)*")


def _bare_matrix_from_json(data, model: Model, dom: int, cod: int,
                           where: str) -> Mor:
    """The matrix of a list of rows of scalar texts, each entry validated
    once.  A row whose cells, joined by single spaces, are integer text is
    read with one ``int`` map: ints lie in every ring.  Any other row is
    read per cell, each quotient canonicalised and ring-tested as it is
    read.  Errors come in reading order, except that an entry outside the
    ring is reported only once every cell has been read."""
    if not isinstance(data, list) or len(data) != cod:
        raise FileFormatError(f"{where}: expected {cod} rows")
    rows = []
    outside = None  # the first entry not in the ring
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != dom:
            raise FileFormatError(f"{where}[{i}]: expected {dom} entries")
        try:
            if _INT_ROW.fullmatch(" ".join(row)):
                rows.append(tuple(map(int, row)))
                continue
        except (TypeError, ValueError):  # a cell no str, or past int()'s limit
            pass
        new = []
        for j, cell in enumerate(row):
            if cell == "0":  # most cells of a witness; nothing to parse
                new.append(0)
                continue
            if not isinstance(cell, str):
                raise FileFormatError(
                    f"{where}[{i}][{j}]: scalars must be strings")
            try:
                x = canonical(parse_value(cell))
            except InputError as exc:
                raise FileFormatError(f"{where}[{i}][{j}]: {exc}") from exc
            if outside is None and not ring_contains(model.ring, x):
                outside = x
            new.append(x)
        rows.append(tuple(new))
    if outside is not None:
        raise FileFormatError(f"{where}: entry {echo(str(outside), str)} "
                              f"is not in {model.ring}")
    return Mor(model, dom, cod, tuple(rows))


def mor_to_json(m: Mor):
    return {
        "model": model_to_json(m.model),
        "dom": m.dom,
        "cod": m.cod,
        "entries": m.entries,
    }


def mor_from_json(data, where: str = "morphism",
                  model: Optional[Model] = None) -> Mor:
    got_model = model_from_json(_need(data, "model", where), f"{where}.model")
    if model is not None and got_model != model:
        raise FileFormatError(f"{where}: model disagrees with the enclosing file")
    dom = _int_field(_need(data, "dom", where), f"{where}.dom")
    cod = _int_field(_need(data, "cod", where), f"{where}.cod")
    return _bare_matrix_from_json(_need(data, "entries", where), got_model,
                                  dom, cod, f"{where}.entries")


def loop_to_json(p: Loop):
    return {
        "model": model_to_json(p.model),
        "A": p.dom,
        "B": p.cod,
        "hidden": list(p.hidden),
        "carrier": mor_to_json(p.carrier),
    }


def loop_from_json(data, where: str = "loop") -> Loop:
    model = model_from_json(_need(data, "model", where), f"{where}.model")
    a = _int_field(_need(data, "A", where), f"{where}.A")
    b = _int_field(_need(data, "B", where), f"{where}.B")
    hidden = _int_list(data, "hidden", where)
    carrier = mor_from_json(_need(data, "carrier", where),
                            f"{where}.carrier", model=model)
    try:
        return Loop(model, a, b, hidden, carrier)
    except InputError as exc:
        raise FileFormatError(f"{where}: {exc}") from exc


def zigzag_to_json(inst: ZigZagInstance):
    return {
        "model": model_to_json(inst.model),
        "upper": list(inst.upper),
        "apex": list(inst.apex),
        "lower": list(inst.lower),
        "alpha": list(inst.perm.images),
        "hub": inst.hub,
        "down_maps": [m.entries for m in inst.down_maps],
        "up_maps": [m.entries for m in inst.up_maps],
        "left_fillers": [m.entries for m in inst.left_fillers],
        "right_fillers": [m.entries for m in inst.right_fillers],
    }


def zigzag_from_json(data, where: str = "zigzag") -> ZigZagInstance:
    model = model_from_json(_need(data, "model", where), f"{where}.model")

    upper, apex, lower = (_int_list(data, key, where)
                          for key in ("upper", "apex", "lower"))
    n = len(upper)
    alpha = _int_list(data, "alpha", where)
    try:
        perm = Permutation(tuple(alpha))
    except InputError as exc:
        raise FileFormatError(f"{where}.alpha: {exc}") from exc
    if not len(apex) == len(lower) == perm.size == n:
        raise FileFormatError(
            f"{where}: upper, apex, lower and alpha differ in length")
    hub = _int_field(_need(data, "hub", where), f"{where}.hub")

    def maps(key, count):
        raw = _need_list(data, key, where)
        if len(raw) != count:
            raise FileFormatError(f"{where}.{key}: expected {count} matrices")
        return raw

    downs_raw, ups_raw = maps("down_maps", n), maps("up_maps", n)
    downs = tuple(
        _bare_matrix_from_json(downs_raw[i], model, upper[i], apex[i],
                               f"{where}.down_maps[{i}]") for i in range(n))
    ups = tuple(
        _bare_matrix_from_json(ups_raw[i], model, lower[i], apex[i],
                               f"{where}.up_maps[{i}]") for i in range(n))
    levels = level_ranks(upper, apex, lower, perm)

    def fillers(key, side):
        raw = maps(key, n + 1)
        return tuple(
            _bare_matrix_from_json(raw[k], model, levels[side][1][k], hub,
                                   f"{where}.{key}[{k}]")
            for k in range(n + 1))

    return ZigZagInstance(model, upper, apex, lower, downs, ups, perm, hub,
                          fillers("left_fillers", "left"),
                          fillers("right_fillers", "right"))


def diagram_to_json(model: Model, objects: Sequence[int],
                    edges: Sequence[tuple]):
    """A diagram of node ranks ``objects`` and edges (src, dst, label,
    matrix) as JSON, each edge checked by ``check_edge``.  A ``Mor``
    travels as its entries, a ``Monomial`` as itself."""
    for e in edges:
        check_edge(objects, e)
    return {
        "model": model_to_json(model),
        "objects": list(objects),
        "edges": [
            {"src": src, "dst": dst, "label": label,
             "entries": f if type(f) is Monomial else f.entries}
            for src, dst, label, f in edges
        ],
    }


def diagram_from_json(data, where: str = "diagram") -> Diagram:
    model = model_from_json(_need(data, "model", where), f"{where}.model")
    objects = _int_list(data, "objects", where)
    edges = []
    for i, e in enumerate(_need_list(data, "edges", where)):
        src = _int_field(_need(e, "src", f"{where}.edges[{i}]"),
                         f"{where}.edges[{i}].src")
        dst = _int_field(_need(e, "dst", f"{where}.edges[{i}]"),
                         f"{where}.edges[{i}].dst")
        for end, node in (("src", src), ("dst", dst)):
            if node >= len(objects):
                raise FileFormatError(
                    f"{where}.edges[{i}].{end}: node {node}, but the diagram "
                    f"has {len(objects)} objects")
        f = _bare_matrix_from_json(_need(e, "entries", f"{where}.edges[{i}]"),
                                   model, objects[src], objects[dst],
                                   f"{where}.edges[{i}].entries")
        label = e.get("label", "")
        if not isinstance(label, str):
            raise FileFormatError(
                f"{where}.edges[{i}].label: expected a string")
        edges.append((src, dst, label, f))
    return Diagram(model, objects, edges)


def witness_to_json(w: StaircaseWitness):
    return {"psi": w.psi.entries, "fillers": [f.entries for f in w.fillers]}


def trace_result_to_json(r: TraceResult, p: Loop):
    """The result as JSON; a staircase witness, present only when one was
    asked of the trace, is emitted with its diagram."""
    out = {"status": r.status}
    if r.is_defined:
        out["value"] = mor_to_json(r.value)
        if r.alpha is not None:
            out["alpha"] = list(r.alpha.images)
    if r.witness is not None:
        out["witness"] = witness_to_json(r.witness)
        aligned = p if r.alpha is None else hidden_symmetry(p, r.alpha)
        out["witness"]["diagram"] = diagram_to_json(
            p.model, *staircase_layout(aligned, r.witness))
    return out


def dumps(payload) -> str:
    """Canonical JSON: sorted keys, two-space indent, strings with ASCII
    escapes, ``[]`` and ``{}`` when empty, and a trailing newline; the
    standard encoder's bytes with ``sort_keys=True, indent=2``, plus the
    newline.  Only dicts with str keys, lists, strs, ints, bools, None and
    matrices (a ``Mor``'s entries: a tuple of row tuples, or a
    ``Monomial``, written as rows of scalar text) are written; anything
    else, or a monomial scalar that is no int or Fraction, raises
    TypeError."""
    out = []
    _write(payload, "\n", out, {})
    out.append("\n")
    return "".join(out)


def _write(x, nl: str, out: List[str], runs: dict) -> None:
    """Append x to out; ``nl`` is the line break and indent x starts on."""
    t = type(x)
    if t is str:
        out.append(_quote(x))
    elif t is int:
        out.append(str(x))
    elif t is bool:
        out.append("true" if x else "false")
    elif x is None:
        out.append("null")
    elif (t is list or t is tuple or t is dict) and not x:
        out.append("{}" if t is dict else "[]")
    elif t is list:
        inner = nl + "  "
        sep = "[" + inner
        for v in x:
            out.append(sep)
            _write(v, inner, out, runs)
            sep = "," + inner
        out.append(nl + "]")
    elif t is dict:
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(x):
            if type(key) is not str:
                raise TypeError(f"JSON keys must be str, not {key!r}")
            out.append(sep + _quote(key) + ": ")
            _write(x[key], inner, out, runs)
            sep = "," + inner
        out.append(nl + "}")
    elif t is tuple or t is Monomial:  # a matrix; 0 is "0", others formatted
        inner = nl + "  "
        cell = "," + inner + '  "'
        opened, zero = "[" + inner + '  "', cell + '0"'
        zeros = runs.setdefault(nl, {})  # the text of g zero cells, by g
        sep = "[" + inner
        if t is Monomial:  # each row zeros but for one cell, the scalar
            v, w = x.scalar, x.dom
            if type(v) is not int and type(v) is not Fraction:
                raise TypeError(f"{type(v).__name__} is not a scalar")
            if not x.cols:
                out.append("[]")
                return
            text = format_value(v) + '"'
            head, first, mid = opened + '0"', opened + text, cell + text
            for c in x.cols:
                if not w:
                    out += (sep, "[]")
                elif c:
                    g, h = c - 1, w - 1 - c
                    out += (sep, head,
                            zeros.get(g) or zeros.setdefault(g, zero * g), mid,
                            zeros.get(h) or zeros.setdefault(h, zero * h),
                            inner + "]")
                else:  # the scalar in column 0, or a row of zeros
                    g = w - 1
                    out += (sep, head if c is None else first,
                            zeros.get(g) or zeros.setdefault(g, zero * g),
                            inner + "]")
                sep = "," + inner
            out.append(nl + "]")
            return
        for row in x:
            if type(row) is not tuple:
                raise TypeError(f"{type(row).__name__} is not a matrix row")
            out.append(sep)
            sep = "," + inner
            if not row:
                out.append("[]")
                continue
            out.append(opened if row[0] else opened + '0"')
            last = count = 0
            for j in compress(range(len(row)), row):
                v = row[j]
                if type(v) is not int and type(v) is not Fraction:
                    raise TypeError(f"{type(v).__name__} is not a scalar")
                if j > last + 1:
                    g = j - last - 1
                    out.append(zeros.get(g) or zeros.setdefault(g, zero * g))
                out.append((cell if j else "") + format_value(v) + '"')
                last, count = j, count + 1
            if count + row.count(0) != len(row):
                raise TypeError("a false matrix entry that is not 0")
            g = len(row) - 1 - last
            if g:
                out.append(zeros.get(g) or zeros.setdefault(g, zero * g))
            out.append(inner + "]")
        out.append(nl + "]")
    else:
        raise TypeError(f"{t.__name__} is not written as JSON")



def load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}"
        ) from exc
