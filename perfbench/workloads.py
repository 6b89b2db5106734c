"""Benchmark requests and their known answers.

A request is a ``mixtrace`` argument list plus the JSON files it reads.
Its expected answer comes either from theory (the paper's verdicts) or
from the plain-Python contraction reference in this module.  Nothing here
imports mixtrace, so no expected answer comes from the code under test.

Requests are generated round by round.  Every round of a workload holds
the same templates in the same order with fresh inputs, so the mix of
work is identical whatever the number of rounds a run completes.
"""

from __future__ import annotations

import itertools
import random
from math import prod

WORKLOADS = ("axioms", "zigzag", "deep-trace", "localize")

AXIOM_CASES = 20
ZIGZAG_BUDGET = 30
COMPACTIFY_SAMPLES = 100

# Hidden ranks of the deep-trace loops by (family, k).  Family 2 needs
# rank 2 on every index but j* = 0: a rank-1 index j has the full
# contraction as its complement contraction, which is then also 0 mod m.
# Family 4 is the criterion-4 loop and is rank 2 throughout by definition.
DEEP_DIMS = {
    (1, 3): (2, 1, 2), (1, 4): (2, 2, 1, 2), (1, 5): (2, 1, 2, 2, 1),
    (2, 3): (1, 2, 2), (2, 4): (2, 2, 2, 2), (2, 5): (1, 2, 2, 2, 2),
    (3, 3): (2, 2, 1), (3, 4): (1, 2, 2, 2), (3, 5): (2, 2, 1, 2, 2),
    (4, 3): (2, 2, 2), (4, 4): (2, 2, 2, 2), (4, 5): (2, 2, 2, 2, 2),
}
DEEP_MIX = (2, 3)
DEEP_K = (3, 4, 5)

# compactify-verify models whose paper answer is "ok" but which fail as
# seeded: the zloc models fail realize-round-trip and qmod:2 exits 2.
KNOWN_DEFECTS = {
    "zloc:2": "realize-round-trip fails on an already compact Zloc model",
    "zloc:6": "realize-round-trip fails on an already compact Zloc model",
    "qmod:2": "realize rejects the Q model with exit 2",
}


# ---------------------------------------------------------------------------
# Contraction reference.  A carrier has rows b*h + w and columns a*h + u,
# where u and w are the hidden multi-indices flattened row-major.

def _flat(multi, dims):
    idx = 0
    for x, d in zip(multi, dims):
        idx = idx * d + x
    return idx


def contract(carrier, a, b, dims, subset):
    """Contract the hidden indices in ``subset`` along their diagonal.

    Returns a dict from (b, a, u_F, w_F) to the summed entry, where F is
    the list of hidden indices outside ``subset``.
    """
    h = prod(dims)
    free = [j for j in range(len(dims)) if j not in subset]
    out = {}
    for u in itertools.product(*(range(d) for d in dims)):
        uf = _flat(u, dims)
        u_free = tuple(u[j] for j in free)
        for w_free in itertools.product(*(range(dims[j]) for j in free)):
            w = list(u)
            for j, x in zip(free, w_free):
                w[j] = x
            wf = _flat(w, dims)
            for bi in range(b):
                row = carrier[bi * h + wf]
                for ai in range(a):
                    key = (bi, ai, u_free, w_free)
                    out[key] = out.get(key, 0) + row[ai * h + uf]
    return out


def complement_zero(carrier, a, b, dims, j, m):
    """True iff contracting every hidden index but ``j`` gives 0 mod m."""
    others = frozenset(range(len(dims))) - {j}
    return all(v % m == 0
               for v in contract(carrier, a, b, dims, others).values())


def trace_reference(carrier, a, b, dims, m):
    """Known free and induced traces of an integer loop at mix m >= 2.

    The staircase divides by m before contracting each index in turn, so
    an ordering solves iff, for every prefix S of it, the contraction over
    S is 0 mod m^(|S|+1).  Returns the first solvable ordering in
    lexicographic order (None if none solves) and the induced value, the
    full contraction divided by m^k (None unless that is integral).
    """
    k = len(dims)
    memo = {}

    def stage_ok(s):
        if s not in memo:
            q = m ** (len(s) + 1)
            memo[s] = all(v % q == 0 for v in
                          contract(carrier, a, b, dims, s).values())
        return memo[s]

    first = next((order for order in itertools.permutations(range(k))
                  if all(stage_ok(frozenset(order[:s])) for s in range(k))),
                 None)
    full = contract(carrier, a, b, dims, frozenset(range(k)))
    total = [[full[(bi, ai, (), ())] for ai in range(a)] for bi in range(b)]
    q = m ** k
    value = None
    if all(v % q == 0 for row in total for v in row):
        value = [[v // q for v in row] for row in total]
    return first, value


def permute_hidden(carrier, a, b, dims, order):
    """The carrier of the same loop with hidden list [dims[i] for i in
    order], every hidden block index relabelled accordingly."""
    new_dims = [dims[i] for i in order]
    h = prod(dims)
    out = [[0] * (a * h) for _ in range(b * h)]
    ranges = [range(d) for d in dims]
    for u in itertools.product(*ranges):
        uf, nu = _flat(u, dims), _flat([u[i] for i in order], new_dims)
        for w in itertools.product(*ranges):
            wf, nw = _flat(w, dims), _flat([w[i] for i in order], new_dims)
            for bi in range(b):
                for ai in range(a):
                    out[bi * h + nw][ai * h + nu] = \
                        carrier[bi * h + wf][ai * h + uf]
    return out


# ---------------------------------------------------------------------------
# Deep-trace loop families.

def _random_matrix(rng, rows, cols, bound=4):
    return [[rng.randint(-bound, bound) for _ in range(cols)]
            for _ in range(rows)]


def _scaled(mat, c):
    return [[v * c for v in row] for row in mat]


def family_carrier(rng, family, m, dims):
    """A carrier of the given family (see README.md) at mix m, for a loop
    with A = B = rank 1.

    Families 2 and 3 are rejection-sampled against the reference; family
    2 first repairs one entry per block so that index 0 qualifies.
    """
    k = len(dims)
    h = prod(dims)
    if family == 1:
        return _scaled(_random_matrix(rng, h, h), m ** k)
    if family == 4:
        noise = _scaled(_random_matrix(rng, h, h), m ** k)
        for i in range(h):
            noise[i][i] += 1
        return noise
    for _ in range(1000):
        r = _random_matrix(rng, h, h)
        if family == 2:
            tail = h // dims[0]
            rest = frozenset(range(1, k))
            for (_, _, (u0,), (w0,)), v in \
                    contract(r, 1, 1, dims, rest).items():
                r[w0 * tail][u0 * tail] -= v % m
            wanted = [True] + [False] * (k - 1)
        else:
            wanted = [False] * k
        if [complement_zero(r, 1, 1, dims, j, m) for j in range(k)] == wanted:
            return _scaled(r, m ** (k - 1))
    raise RuntimeError(f"no family-{family} carrier found for {dims} at m={m}")


def loop_json(m, a, b, dims, carrier):
    model = {"ring": "Z", "mix": str(m)}
    h = prod(dims)
    return {"model": model, "A": a, "B": b, "hidden": list(dims),
            "carrier": {"model": model, "dom": a * h, "cod": b * h,
                        "entries": [[str(v) for v in row]
                                    for row in carrier]}}


def _value_strings(value):
    return [[str(v) for v in row] for row in value]


# ---------------------------------------------------------------------------
# Rounds.  ``r`` is the round number.  The warm-up round (r = -1) draws from
# one fixed stream whatever the run's seed, so set-up does the same work in
# every run; its CLI seeds are below 100 and every timed one (seed >= 0,
# r >= 0) is at least 100, so no warm-up input is also a timed input.

def _cli_seed(seed, r, i):
    if r < 0:
        return i
    return seed * 1_000_000 + (r + 1) * 100 + i


def make_round(workload, seed, r, workdir):
    """The requests of one round: dicts with ``id``, ``argv``, ``files``
    (path -> JSON payload, written before the request is sent) and
    ``expect`` (the known answer)."""
    warm = r < 0
    rng = random.Random(f"warmup:{workload}" if warm
                        else f"{workload}:{seed}:{r}")
    tag = "w" if warm else f"r{r}"
    reqs = []

    def add(name, argv, expect, files=None):
        reqs.append({"id": f"{tag}.{name}", "argv": argv,
                     "files": files or {}, "expect": expect})

    def seed_arg():
        return ["--seed", str(_cli_seed(seed, r, len(reqs)))]

    if workload == "axioms":
        for mix in (1, 2, 3):
            add(f"axioms.zmod{mix}",
                ["axioms", "--model", f"zmod:{mix}", "--cases",
                 str(AXIOM_CASES), "--max-rank", "3", "--max-hidden", "2"]
                + seed_arg(),
                {"kind": "axioms", "cases": AXIOM_CASES})
    elif workload == "zigzag":
        shapes = [(1, 1), (2, 1), (0, 1)] if warm else \
            [(1, 1), (1, 2), (2, 1), (2, 2), (0, 1)]
        for mix, n in shapes:
            kind = "zigzag-violated" if mix == 0 else "zigzag-none"
            add(f"zigzag.zmod{mix}.n{n}",
                ["zigzag-search", "--model", f"zmod:{mix}", "--n", str(n),
                 "--max-rank", "2", "--budget", str(ZIGZAG_BUDGET)]
                + seed_arg(),
                {"kind": kind, "budget": ZIGZAG_BUDGET})
    elif workload == "deep-trace":
        for m in DEEP_MIX:
            for k in (DEEP_K[:1] if warm else DEEP_K):
                for family in (1, 2, 3, 4):
                    dims = DEEP_DIMS[(family, k)]
                    carrier = family_carrier(rng, family, m, dims)
                    first, value = trace_reference(carrier, 1, 1, dims, m)
                    path = f"{workdir}/{tag}.f{family}.k{k}.m{m}.json"
                    files = {path: loop_json(m, 1, 1, dims, carrier)}
                    free = {"kind": "trace", "status": "undefined"}
                    if first is not None:
                        free = {"kind": "trace", "status": "defined",
                                "value": _value_strings(value),
                                "alpha": list(first)}
                    induced = {"kind": "trace", "status": "undefined"}
                    if value is not None:
                        induced = {"kind": "trace", "status": "defined",
                                   "value": _value_strings(value)}
                    name = f"f{family}.k{k}.m{m}"
                    add(f"{name}.free",
                        ["trace", "--mode", "free", "--witness", "--loop",
                         path], free, files)
                    add(f"{name}.induced",
                        ["trace", "--mode", "induced", "--loop", path],
                        induced)
            dims = DEEP_DIMS[(1, 3)]
            carrier = family_carrier(rng, 1, m, dims)
            order = rng.choice([o for o in itertools.permutations(range(3))
                                if o != (0, 1, 2)])
            image = permute_hidden(carrier, 1, 1, dims, order)
            left = f"{workdir}/{tag}.cong.m{m}.left.json"
            right = f"{workdir}/{tag}.cong.m{m}.right.json"
            add(f"congruent.m{m}",
                ["congruent", "--mode", "bounded:2", "--left", left,
                 "--right", right],
                {"kind": "congruent"},
                {left: loop_json(m, 1, 1, dims, carrier),
                 right: loop_json(m, 1, 1, [dims[i] for i in order],
                                  image)})
    elif workload == "localize":
        models = ["zmod:2", "qmod:1/2", "zmod:0"] if warm else \
            ["zmod:1", "zmod:2", "zmod:3", "zmod:6", "qmod:1/2", "zmod:0",
             "zloc:2", "zloc:6", "qmod:2"]
        for model in models:
            expect = {"kind": "compactify"}
            if model == "zmod:0":
                expect = {"kind": "not-compactifiable"}
            elif model in KNOWN_DEFECTS:
                expect["known_defect"] = KNOWN_DEFECTS[model]
            add(f"compactify.{model}",
                ["compactify-verify", "--model", model, "--max-rank", "2",
                 "--samples", str(COMPACTIFY_SAMPLES)] + seed_arg(),
                expect)
        for model in (["zmod:2"] if warm else
                      ["zmod:0", "zmod:2", "qmod:1/2"]):
            add(f"validate.{model}",
                ["validate", "--model", model, "--max-rank", "2"]
                + seed_arg(),
                {"kind": "validate"})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return reqs
