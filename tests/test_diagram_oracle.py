"""Differential test: ``zigzag.diagram_commutes`` against the simple-path
enumerator ``diagram_commutes_by_paths`` in ``trace_reference``.

The corpus is every diagram the zig-zag search checks (zmod:0/1/2, n = 1..3)
plus seeded random multigraphs with self-loops, parallel edges, 2-cycles
and rank-0 nodes.  The verdicts must agree, and every counterexample must
be a genuine pair: two simple paths from ``src`` to ``dst`` that compose to
``value_a`` and ``value_b``, which differ.

A zig-zag diagram is checked by ``zigzag._check_zigzag``: the premise over
every source, then the conclusion by re-growing only the premise trees
that hold a tail of the bottom symmetry.  On every diagram the search
samples, and on the random multigraphs read as zig-zags, it must name the
pair the full checks name, and the sources it re-grows must be the ones
the reverse search ``sources_reaching_last_two_tails`` finds.
"""

import random

import pytest

from mixtrace import zigzag
from mixtrace.category import (Model, Obj, compose, dual_mor, identity,
                               mor, mor_scale, random_mor)
from mixtrace.rings import INTEGERS
from mixtrace.zigzag import (CounterPath, Diagram, Edge, ZigZagOutcome,
                             diagram_commutes)

from trace_reference import (diagram_commutes_by_paths,
                             sources_reaching_last_two_tails)

Z2 = Model(INTEGERS, 2)


def _walk(d, src, path):
    """The nodes a path of edge indices visits, starting at ``src``, and
    its composite."""
    nodes, value = [src], identity(d.model, d.objects[src])
    for idx in path:
        e = d.edges[idx]
        assert e.src == nodes[-1], (path, idx)
        nodes.append(e.dst)
        value = compose(e.mor, value)
    return nodes, value


def assert_genuine(d, c):
    assert isinstance(c, CounterPath)
    for path, value in ((c.path_a, c.value_a), (c.path_b, c.value_b)):
        nodes, composite = _walk(d, c.src, path)
        assert nodes[-1] == c.dst
        inner = nodes[:-1] if c.src == c.dst else nodes
        assert len(set(inner)) == len(inner), ("not simple", nodes)
        assert composite == value
    assert c.value_a.entries != c.value_b.entries


def assert_agrees(d):
    new, old = diagram_commutes(d), diagram_commutes_by_paths(d)
    assert (new is True) == (old is True), (new, old)
    if new is not True:
        assert_genuine(d, new)
        assert_genuine(d, old)
    return new, old


def _verdict(found):
    """``_check_trees``'s answer as ``diagram_commutes`` gives it."""
    return found if isinstance(found, CounterPath) else True


def _check_zigzag_regrowing(d):
    """``zigzag._check_zigzag(d)`` and the sources its conclusion check
    re-grows, or None when the premise fails and nothing is re-grown."""
    grown = []
    original = zigzag._check_trees

    def record(d_, edges, sources, tails=()):
        grown.append(list(sources))
        return original(d_, edges, sources, tails)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zigzag, "_check_trees", record)
        outcome = zigzag._check_zigzag(d)
    assert len(grown) in (1, 2)
    return outcome, grown[1] if len(grown) == 2 else None


def assert_zigzag_check_agrees(d):
    """``_check_zigzag(d)`` against full checks of the premise (all but the
    last two edges) and of the whole diagram, and the sources it re-grows
    against the reverse search.  Returns the whole diagram's full check,
    or None when the premise fails."""
    outcome, regrown = _check_zigzag_regrowing(d)
    premise = diagram_commutes(Diagram(d.model, d.objects, d.edges[:-2]))
    if premise is not True:
        assert (outcome, regrown) == (
            ZigZagOutcome("premise_fails", premise), None)
        return None
    full = diagram_commutes(d)
    # ZigZagOutcome equality covers the status and the whole CounterPath:
    # src, dst, both paths and both values
    assert outcome == (ZigZagOutcome("holds") if full is True
                       else ZigZagOutcome("violated", full))
    assert regrown == sources_reaching_last_two_tails(d)
    return full


def _search_diagrams(monkeypatch):
    """Every tree check the zig-zag search makes, as the diagram it checks
    and the sources it grows trees from: all of them for a premise, those
    the premise reports for a conclusion.  A premise is checked as an edge
    prefix of the instance's diagram, so each check is recorded as a
    diagram of the edges it walks, built here.  Each commuting premise is
    also recorded with its whole diagram and the sources it reports."""
    seen, reported = [], []
    original = zigzag._check_trees

    def record(d, edges, sources, tails=()):
        assert tuple(edges) == d.edges[:len(edges)]
        seen.append((Diagram(d.model, d.objects, edges), sources))
        found = original(d, edges, sources, tails)
        if tails and not isinstance(found, CounterPath):
            reported.append((d, found))
        return found

    monkeypatch.setattr(zigzag, "_check_trees", record)
    for mix in (0, 1, 2):
        for n in (1, 2, 3):
            for seed in range(3):
                zigzag.search_counterexample(Model(INTEGERS, mix), n,
                                             max_rank=2, seed=seed, budget=12)
    monkeypatch.undo()
    return seen, reported


def test_search_diagrams_agree_and_name_the_same_pair(monkeypatch):
    checks, reported = _search_diagrams(monkeypatch)
    failing = partial = 0
    for d, sources in checks:
        new, old = assert_agrees(d)
        # on the search's own diagrams the tree check names the pair the
        # enumerator names, so `zigzag-check` on a witness is unchanged
        assert new == old
        # and a conclusion check, which re-grows only some of the trees,
        # names the pair the full check names
        assert _verdict(zigzag._check_trees(d, d.edges, sources)) == new
        failing += new is not True
        partial += len(sources) < len(d.objects)
    assert len(checks) > 200 and 0 < failing < len(checks)
    assert partial > 0
    # the sources a commuting premise reports are those with a path to the
    # bottom symmetry's tails
    for whole, sources in reported:
        assert sources == sources_reaching_last_two_tails(whole)
    assert len(reported) > 100


def _sampled_diagrams(monkeypatch, mix, n, seed, budget):
    """The whole diagram of every sample the search checks: the frame it
    is checked in, filled with its hub and fillers."""
    seen = []
    original = zigzag.build_zigzag_diagram

    def record(*args):
        seen.append(original(*args))
        return seen[-1]

    monkeypatch.setattr(zigzag, "build_zigzag_diagram", record)
    zigzag.search_counterexample(Model(INTEGERS, mix), n, max_rank=2,
                                 seed=seed, budget=budget)
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("n", range(4))
def test_partial_conclusion_check_matches_the_full_check(monkeypatch, n):
    # violations are rare in the samples at n >= 2, so each commuting
    # premise is also checked with the bottom symmetry negated, which keeps
    # the premise and mostly breaks the conclusion
    verdicts = {True: 0, False: 0, None: 0}
    for mix in (0, 1, 2):
        for seed in range(3):
            budget = 15 if n == 3 else 30
            for whole in _sampled_diagrams(monkeypatch, mix, n, seed,
                                           budget):
                full = assert_zigzag_check_agrees(whole)
                if full is None:  # the premise fails
                    verdicts[None] += 1
                    continue
                verdicts[full is True] += 1
                negated = tuple(Edge(e.src, e.dst, mor_scale(e.mor, -1),
                                     e.label) for e in whole.edges[-2:])
                full = assert_zigzag_check_agrees(Diagram(
                    whole.model, whole.objects, whole.edges[:-2] + negated))
                verdicts[full is True] += 1
    assert all(verdicts.values())


def test_two_cycle_through_the_source_names_the_oracle_pair():
    # the cycle back to the source is compared with the identity there,
    # which the counterexample then names as its first value
    f = mor(Z2, Obj(2), Obj(2), [[0, 1], [1, 0]])
    g = mor(Z2, Obj(2), Obj(2), [[0, 1], [2, 0]])
    for edges in ([Edge(0, 1, f, "f"), Edge(1, 0, g, "g")],
                  [Edge(0, 1, f, "f"), Edge(1, 0, dual_mor(f), "f-inv"),
                   Edge(1, 0, g, "g")],
                  [Edge(0, 0, g, "loop"), Edge(0, 1, f, "f")]):
        d = Diagram(Z2, (Obj(2), Obj(2)), tuple(edges))
        new, old = assert_agrees(d)
        assert new == old
        assert new.src == new.dst == 0
        assert new.value_a == identity(Z2, Obj(2))


def _signed_permutation(rng, r):
    images = list(range(r))
    rng.shuffle(images)
    return mor(Z2, Obj(r), Obj(r),
               [[rng.choice((1, -1)) if images[i] == j else 0
                 for j in range(r)] for i in range(r)])


def _random_edges(rng, nodes):
    """Random (src, dst) pairs, with a self-loop, a parallel edge and a
    2-cycle added at random."""
    pairs = [(rng.randrange(nodes), rng.randrange(nodes))
             for _ in range(rng.randint(0, 2 * nodes))]
    if rng.random() < 0.3:
        v = rng.randrange(nodes)
        pairs.append((v, v))
    if pairs and rng.random() < 0.5:
        pairs.append(rng.choice(pairs))
    if pairs and rng.random() < 0.5:
        u, v = rng.choice(pairs)
        pairs.append((v, u))
    rng.shuffle(pairs)
    return pairs


def _random_multigraph(rng):
    """Either nodes of one rank whose edges are the differences of a
    signed-permutation potential (so the diagram commutes) with one edge
    perhaps corrupted, or nodes of mixed ranks, rank 0 among them, with
    small random edges."""
    nodes = rng.randint(1, 5)
    pairs = _random_edges(rng, nodes)
    if rng.random() < 0.5:
        r = rng.choice((0, 1, 2, 2))
        objects = (Obj(r),) * nodes
        g = [_signed_permutation(rng, r) for _ in range(nodes)]
        mors = [compose(g[v], dual_mor(g[u])) for u, v in pairs]
        if mors and rng.random() < 0.5:
            i = rng.randrange(len(mors))
            mors[i] = random_mor(Z2, rng, Obj(r), Obj(r), 1)
    else:
        objects = tuple(Obj(rng.choice((0, 1, 1, 2))) for _ in range(nodes))
        mors = [random_mor(Z2, rng, objects[u], objects[v], 1)
                for u, v in pairs]
    edges = tuple(Edge(u, v, f, str(i))
                  for i, ((u, v), f) in enumerate(zip(pairs, mors)))
    return Diagram(Z2, objects, edges)


@pytest.mark.parametrize("seed", range(4))
def test_random_multigraphs_agree(seed):
    rng = random.Random(f"diagram-oracle:{seed}")
    verdicts = {True: 0, False: 0}
    premise_fails = partial = 0
    for _ in range(250):
        d = _random_multigraph(rng)
        new, _ = assert_agrees(d)
        verdicts[new is True] += 1
        # read the last two edges as the bottom symmetry: the zig-zag check
        # names the full checks' pairs and re-grows the reverse search's
        # sources
        if assert_zigzag_check_agrees(d) is None:
            premise_fails += 1
        elif len(d.edges) > 2:
            partial += 1
    assert verdicts[True] > 0 and verdicts[False] > 0
    assert premise_fails > 0 and partial > 0


def test_dense_dag_commutes_and_locates_a_changed_edge():
    # the complete DAG on 17 nodes has 2^15 simple paths from node 0 to
    # node 16 alone; the tree check composes each edge once per source
    rng = random.Random("dense-dag")
    g = [_signed_permutation(rng, 2) for _ in range(17)]
    pairs = [(u, v) for u in range(17) for v in range(u + 1, 17)]
    edges = [Edge(u, v, compose(g[v], dual_mor(g[u])), f"{u}-{v}")
             for u, v in pairs]
    assert diagram_commutes(Diagram(Z2, (Obj(2),) * 17, edges)) is True
    changed = pairs.index((5, 12))
    edges[changed] = Edge(5, 12, mor_scale(edges[changed].mor, -1), "5-12")
    d = Diagram(Z2, (Obj(2),) * 17, edges)
    counter = diagram_commutes(d)
    assert_genuine(d, counter)
    assert changed in counter.path_a + counter.path_b
