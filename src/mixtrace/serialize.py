"""JSON schemas for models, morphisms, loops, zig-zag instances, diagrams
and reports.  Scalars travel as strings, never floats.

Input is read with ``json.load``.  Output is canonical JSON, written by
``dumps`` directly: the standard encoder, asked for an indent, runs in
pure Python, several times slower on a witness diagram's rows of
strings.  The writer accepts only the types these schemas build.  A
matrix row formats only its nonzero entries (a witness is mostly 0), and
a row of plain scalars, which no escape touches, is written in one join."""

from __future__ import annotations

import json
import re
from itertools import compress
from json.encoder import encode_basestring_ascii as _quote
from typing import List, Optional

from .category import Mor, Model, Obj
from .errors import InputError
from .loops import Loop, Permutation, hidden_symmetry
from .rings import (INTEGERS, RATIONALS, RingTag, echo, format_value,
                    localized_integers, parse_value, ring_contains)
from .traces import StaircaseWitness, TraceResult, staircase_diagram
from .zigzag import Diagram, Edge, ZigZagInstance, level_ranks


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
        mix = parse_value(mix_text)
    except InputError as exc:
        raise FileFormatError(f"{where}.mix: {exc}") from exc
    if not ring_contains(ring, mix):
        raise FileFormatError(
            f"{where}: mix scalar {echo(mix_text)} is not in ring {ring}")
    return Model(ring, mix)


def _bare_matrix_to_json(m: Mor):
    width = m.dom.rank
    out = []
    for row in m.entries:
        text = ["0"] * width
        for j in compress(range(width), row):
            text[j] = format_value(row[j])
        out.append(text)
    return out


# A row of integer text, its cells joined by single spaces.
_INT_ROW = re.compile(r"[+-]?[0-9]+(?: [+-]?[0-9]+)*")


def _bare_matrix_from_json(data, model: Model, dom: Obj, cod: Obj,
                           where: str) -> Mor:
    """The matrix of a list of rows of scalar texts, each entry validated
    once.  A row whose cells, joined by single spaces, are integer text is
    read with one ``int`` map: ints lie in every ring.  Any other row is
    read per cell, each quotient canonicalised and ring-tested as it is
    read.  Errors come in reading order, except that an entry outside the
    ring is reported only once every cell has been read."""
    if not isinstance(data, list) or len(data) != cod.rank:
        raise FileFormatError(f"{where}: expected {cod.rank} rows")
    rows = []
    outside = None  # the first entry not in the ring
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != dom.rank:
            raise FileFormatError(f"{where}[{i}]: expected {dom.rank} entries")
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
                x = parse_value(cell)
            except InputError as exc:
                raise FileFormatError(f"{where}[{i}][{j}]: {exc}") from exc
            if type(x) is not int:
                if x.denominator == 1:
                    x = x.numerator
                elif outside is None and not ring_contains(model.ring, x):
                    outside = x
            new.append(x)
        rows.append(tuple(new))
    if outside is not None:
        raise FileFormatError(f"{where}: entry {outside} is not in {model.ring}")
    return Mor(model, dom, cod, tuple(rows))


def mor_to_json(m: Mor):
    return {
        "model": model_to_json(m.model),
        "dom": m.dom.rank,
        "cod": m.cod.rank,
        "entries": _bare_matrix_to_json(m),
    }


def mor_from_json(data, where: str = "morphism",
                  model: Optional[Model] = None) -> Mor:
    got_model = model_from_json(_need(data, "model", where), f"{where}.model")
    if model is not None and got_model != model:
        raise FileFormatError(f"{where}: model disagrees with the enclosing file")
    dom = _int_field(_need(data, "dom", where), f"{where}.dom")
    cod = _int_field(_need(data, "cod", where), f"{where}.cod")
    return _bare_matrix_from_json(_need(data, "entries", where), got_model,
                                  Obj(dom), Obj(cod), f"{where}.entries")


def loop_to_json(p: Loop):
    return {
        "model": model_to_json(p.model),
        "A": p.dom.rank,
        "B": p.cod.rank,
        "hidden": [u.rank for u in p.hidden],
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
        return Loop(model, Obj(a), Obj(b), tuple(Obj(h) for h in hidden),
                    carrier)
    except InputError as exc:
        raise FileFormatError(f"{where}: {exc}") from exc


def zigzag_to_json(inst: ZigZagInstance):
    return {
        "model": model_to_json(inst.model),
        "upper": [o.rank for o in inst.upper],
        "apex": [o.rank for o in inst.apex],
        "lower": [o.rank for o in inst.lower],
        "alpha": list(inst.perm.images),
        "hub": inst.hub.rank,
        "down_maps": [_bare_matrix_to_json(m) for m in inst.down_maps],
        "up_maps": [_bare_matrix_to_json(m) for m in inst.up_maps],
        "left_fillers": [_bare_matrix_to_json(m) for m in inst.left_fillers],
        "right_fillers": [_bare_matrix_to_json(m) for m in inst.right_fillers],
    }


def zigzag_from_json(data, where: str = "zigzag") -> ZigZagInstance:
    model = model_from_json(_need(data, "model", where), f"{where}.model")

    upper, apex, lower = ([Obj(r) for r in _int_list(data, key, where)]
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
    hub = Obj(_int_field(_need(data, "hub", where), f"{where}.hub"))

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
            _bare_matrix_from_json(raw[k], model, Obj(levels[side][1][k]), hub,
                                   f"{where}.{key}[{k}]")
            for k in range(n + 1))

    return ZigZagInstance(model, upper, apex, lower, downs, ups, perm, hub,
                          fillers("left_fillers", "left"),
                          fillers("right_fillers", "right"))


def diagram_to_json(d: Diagram):
    return {
        "model": model_to_json(d.model),
        "objects": [o.rank for o in d.objects],
        "edges": [
            {"src": e.src, "dst": e.dst, "label": e.label,
             "entries": _bare_matrix_to_json(e.mor)}
            for e in d.edges
        ],
    }


def diagram_from_json(data, where: str = "diagram") -> Diagram:
    model = model_from_json(_need(data, "model", where), f"{where}.model")
    objects = tuple(Obj(r) for r in _int_list(data, "objects", where))
    edges = []
    for i, e in enumerate(_need_list(data, "edges", where)):
        src = _int_field(_need(e, "src", f"{where}.edges[{i}]"),
                         f"{where}.edges[{i}].src")
        dst = _int_field(_need(e, "dst", f"{where}.edges[{i}]"),
                         f"{where}.edges[{i}].dst")
        if src >= len(objects) or dst >= len(objects):
            raise FileFormatError(f"{where}.edges[{i}]: bad node index")
        f = _bare_matrix_from_json(_need(e, "entries", f"{where}.edges[{i}]"),
                                   model, objects[src], objects[dst],
                                   f"{where}.edges[{i}].entries")
        edges.append(Edge(src, dst, f, e.get("label", "")))
    return Diagram(model, objects, edges)


def witness_to_json(w: StaircaseWitness):
    return {
        "psi": _bare_matrix_to_json(w.psi),
        "fillers": [_bare_matrix_to_json(f) for f in w.fillers],
    }


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
            staircase_diagram(aligned, r.witness))
    return out


def dumps(payload) -> str:
    """Canonical JSON: sorted keys, two-space indent, strings with ASCII
    escapes, ``[]`` and ``{}`` when empty, and a trailing newline; the
    standard encoder's bytes with ``sort_keys=True, indent=2``, plus the
    newline.  Only dicts with str keys, lists, strs, ints, bools and None
    are written; anything else raises TypeError."""
    out = []
    _write(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(x, nl: str, out: List[str]) -> None:
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
    elif t is list:
        if not x:
            out.append("[]")
            return
        inner = nl + "  "
        try:  # all strs, as in every matrix row: one join
            joined = "".join(x)
            if len(_quote(joined)) == len(joined) + 2:  # every escape grows
                body = '"' + ('",' + inner + '"').join(x) + '"'
            else:
                body = ("," + inner).join(map(_quote, x))
            out.append("[" + inner + body + nl + "]")
        except TypeError:  # the join refused an item that is no str
            sep = "[" + inner
            for v in x:
                out.append(sep)
                _write(v, inner, out)
                sep = "," + inner
            out.append(nl + "]")
    elif t is dict:
        if not x:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(x):
            if type(key) is not str:
                raise TypeError(f"JSON keys must be str, not {key!r}")
            out.append(sep + _quote(key) + ": ")
            _write(x[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
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
