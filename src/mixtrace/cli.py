"""Command-line front end.

Exit codes: 0 for a successful computation (including Holds, Undefined
reported as data, or a finished search), 1 for a property violation, an
unmet --expect-defined, or a hit resource limit (reported on stderr as
``resource limit:``), 2 for malformed input.  All reports are canonical
JSON with scalars as strings, so identical inputs and seeds produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import List, Optional

from . import compactify, serialize, traces, zigzag
from .category import Model, validate_coherence
from .compactify import congruent
from .errors import InputError, ModelNotCompactifiableError, ResourceLimitError
from .rings import (INTEGERS, RATIONALS, canonical, echo,
                    localized_integers, parse_value)
from .serialize import FileFormatError, dumps, load_json_file


def parse_model_arg(text: str) -> Model:
    """Model selectors: zmod:M (integers), qmod:M (rationals),
    zloc:M (integers localized at M, mix M)."""
    kind, _, rest = text.partition(":")
    if not rest:
        raise InputError(f"model {echo(text)}: expected kind:mix")
    try:
        if kind == "zmod":
            return Model(INTEGERS, parse_value(rest))
        if kind == "qmod":
            return Model(RATIONALS, parse_value(rest))
        if kind == "zloc":
            m = canonical(parse_value(rest))
            return Model(localized_integers(m), m)
    except InputError as exc:
        raise InputError(f"model {echo(text)}: {exc}") from exc
    raise InputError(f"model {echo(text)}: unknown kind {echo(kind)}")


def _default_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("MIXCAT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(
                f"MIXCAT_SEED={echo(env)} is not an integer") from exc
    return 0


def _emit(payload) -> None:
    sys.stdout.write(dumps(payload))


def cmd_validate(args) -> int:
    report = validate_coherence(parse_model_arg(args.model), args.max_rank,
                                seed=_default_seed(args))
    _emit(report.to_dict())
    return 0 if report.ok else 1


def cmd_trace(args) -> int:
    p = serialize.loop_from_json(load_json_file(args.loop), args.loop)
    if args.mode == "free":
        result = traces.free_mixed_trace(p, want_witness=args.witness)
    else:
        try:
            result = traces.induced_mixed_trace(p)
        except ModelNotCompactifiableError as exc:
            _emit({"status": "error", "error": str(exc)})
            return 1
    _emit(serialize.trace_result_to_json(result, p))
    if args.expect_defined and not result.is_defined:
        return 1
    return 0


def cmd_congruent(args) -> int:
    mode, colon, depth_text = args.mode.partition(":")
    if args.generators is not None and mode != "bounded":
        raise InputError("--generators is read only by --mode bounded")
    if mode != "bounded" and args.mode != "semantic":
        raise InputError(f"unknown congruence mode {echo(args.mode)}")
    if colon and not (depth_text.isascii() and depth_text.isdigit()):
        raise InputError(f"bad bounded depth {echo(depth_text)}")
    try:
        depth = int(depth_text or 4)
    except ValueError:  # more digits than int() converts
        raise InputError(f"--mode bounded depth of {len(depth_text)} digits, "
                         f"over {sys.get_int_max_str_digits()}") from None
    left = serialize.loop_from_json(load_json_file(args.left), args.left)
    right = serialize.loop_from_json(load_json_file(args.right), args.right)
    generators = ()
    if args.generators is not None:
        data = load_json_file(args.generators)
        raw = data.get("loops") if isinstance(data, dict) else None
        if not isinstance(raw, list):
            raise FileFormatError(f"{args.generators}: expected {{\"loops\": [...]}}")
        generators = tuple(
            serialize.loop_from_json(item, f"{args.generators}.loops[{i}]")
            for i, item in enumerate(raw))
    if mode == "semantic":
        verdict = congruent(left, right, mode="semantic")
    else:
        verdict = congruent(left, right, mode="bounded",
                            depth=depth,
                            generators=generators)
    _emit({"mode": args.mode,
           "congruent": verdict if verdict is not None else "unknown"})
    return 0 if verdict is True else 1


def _zigzag_report(outcome: str, counter, failed: bool) -> int:
    payload = {"outcome": outcome}
    if counter is not None:
        payload.update(paths={"a": list(counter.path_a),
                              "b": list(counter.path_b)},
                       src=counter.src, dst=counter.dst)
    _emit(payload)
    return 1 if failed else 0


def cmd_zigzag_check(args) -> int:
    data = load_json_file(args.instance)
    if isinstance(data, dict) and "edges" in data:
        result = zigzag.diagram_commutes(
            serialize.diagram_from_json(data, args.instance))
        if result is True:
            return _zigzag_report("commutes", None, False)
        return _zigzag_report("counterexample", result, True)
    outcome = zigzag.check_zigzag_instance(
        serialize.zigzag_from_json(data, args.instance))
    return _zigzag_report(outcome.status, outcome.counter,
                          outcome.status == "violated")


def cmd_zigzag_search(args) -> int:
    model = parse_model_arg(args.model)
    result = zigzag.search_counterexample(
        model, args.n, args.max_rank, entry_bound=args.entry_bound,
        seed=_default_seed(args), budget=args.budget)
    payload = {"status": result.status, "samples": result.samples,
               "stats": dict(sorted(result.stats.items()))}
    if result.instance is not None:
        payload["witness"] = serialize.zigzag_to_json(result.instance)
    _emit(payload)
    return 0


def cmd_axioms(args) -> int:
    model = parse_model_arg(args.model)
    report = traces.run_axiom_suite(model, seed=_default_seed(args),
                                    cases=args.cases, max_rank=args.max_rank,
                                    max_hidden=args.max_hidden)
    _emit(report.to_dict())
    return 0 if report.total_failures == 0 else 1


def cmd_compactify_verify(args) -> int:
    model = parse_model_arg(args.model)
    try:
        report = compactify.verify_compactness(
            model, args.max_rank, seed=_default_seed(args),
            samples=args.samples)
    except ModelNotCompactifiableError as exc:
        _emit({"ok": False, "status": "ModelNotCompactifiable",
               "detail": str(exc)})
        return 1
    _emit(report.to_dict())
    return 0 if report.ok else 1


def cmd_realize(args) -> int:
    m = serialize.mor_from_json(load_json_file(args.matrix), args.matrix)
    loop = compactify.realize(m)
    _emit(serialize.loop_to_json(loop))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixtrace",
        description="Exact traces, congruence and compactification for "
                    "matrix Mix-categories.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=None,
                       help="random seed (default: $MIXCAT_SEED or 0)")

    p = sub.add_parser("validate", help="run the coherence checks")
    p.add_argument("--model", required=True)
    p.add_argument("--max-rank", type=int, default=3)
    add_seed(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("trace", help="trace a loop file")
    p.add_argument("--mode", choices=("free", "induced"), required=True)
    p.add_argument("--loop", required=True, help="loop JSON file")
    p.add_argument("--witness", action="store_true",
                   help="emit the staircase witness and its diagram")
    p.add_argument("--expect-defined", action="store_true")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("congruent", help="decide loop congruence")
    p.add_argument("--mode", default="semantic",
                   help="semantic or bounded[:depth]")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--generators", default=None,
                   help="JSON file with candidate un-tracing pre-images")
    p.set_defaults(func=cmd_congruent)

    p = sub.add_parser("zigzag-check",
                       help="re-check a zig-zag instance or a diagram file")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=cmd_zigzag_check)

    p = sub.add_parser("zigzag-search",
                       help="search for contractibility violations")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--max-rank", type=int, default=2)
    p.add_argument("--entry-bound", type=int, default=2)
    p.add_argument("--budget", type=int, default=200)
    add_seed(p)
    p.set_defaults(func=cmd_zigzag_search)

    p = sub.add_parser("axioms", help="run the randomized axiom suite")
    p.add_argument("--model", required=True)
    p.add_argument("--cases", type=int, default=1000)
    p.add_argument("--max-rank", type=int, default=3)
    p.add_argument("--max-hidden", type=int, default=2)
    add_seed(p)
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("compactify-verify",
                       help="verify the localized compact envelope")
    p.add_argument("--model", required=True)
    p.add_argument("--max-rank", type=int, default=3)
    p.add_argument("--samples", type=int, default=1000)
    add_seed(p)
    p.set_defaults(func=cmd_compactify_verify)

    p = sub.add_parser("realize",
                       help="section a localized matrix back to a loop")
    p.add_argument("--matrix", required=True, help="morphism JSON file")
    p.set_defaults(func=cmd_realize)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call rather than at import: parsing
    keeps no state in it, as every call fills a fresh namespace."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
