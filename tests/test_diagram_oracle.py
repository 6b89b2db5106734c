"""Differential test: ``zigzag.diagram_commutes`` against the simple-path
enumerator ``diagram_commutes_by_paths`` in ``trace_reference``.

The corpus is every diagram the zig-zag search checks (zmod:0/1/2, n = 1..3)
plus seeded random multigraphs with self-loops, parallel edges, 2-cycles
and rank-0 nodes.  The verdicts must agree, and every counterexample must
be a genuine pair: two simple paths from ``src`` to ``dst`` whose
composites differ.

A zig-zag diagram is checked by ``zigzag._check_zigzag``: the premise over
every source, then the conclusion by re-growing only the premise trees
that hold a tail of the bottom symmetry.  On every diagram the search
samples, and on the random multigraphs read as zig-zags, it must name the
pair the full checks name, and the sources it re-grows must be the ones
the reverse search ``sources_reaching_last_two_tails`` finds.  The search
replays each shape's walks with a sample's fillers; each sample's outcome
must be the enumerator's verdict on its premise and its whole diagram.
"""

import random

import pytest

from mixtrace import zigzag
from mixtrace.category import (Model, compose, dual_mor, identity, mor,
                               mor_scale, random_mor)
from mixtrace.rings import INTEGERS
from mixtrace.zigzag import (CounterPath, Diagram, ZigZagOutcome,
                             diagram_commutes)

from trace_reference import check_zigzag as reference_check_zigzag
from trace_reference import (build_zigzag_diagram, diagram_commutes_by_paths,
                             frame_walks, sources_reaching_last_two_tails)

Z2 = Model(INTEGERS, 2)


def _walk(d, src, path):
    """The nodes a path of edge indices visits, starting at ``src``, and
    its composite."""
    nodes, value = [src], identity(d.model, d.objects[src])
    for idx in path:
        u, v, _, f = d.edges[idx]
        assert u == nodes[-1], (path, idx)
        nodes.append(v)
        value = compose(f, value)
    return nodes, value


def assert_genuine(d, c):
    assert isinstance(c, CounterPath)
    composites = []
    for path in (c.path_a, c.path_b):
        nodes, composite = _walk(d, c.src, path)
        assert nodes[-1] == c.dst
        inner = nodes[:-1] if c.src == c.dst else nodes
        assert len(set(inner)) == len(inner), ("not simple", nodes)
        composites.append(composite.entries)
    assert composites[0] != composites[1]


def assert_agrees(d):
    new, old = diagram_commutes(d), diagram_commutes_by_paths(d)
    assert (new is True) == (old is True), (new, old)
    if new is not True:
        assert_genuine(d, new)
        assert_genuine(d, old)
    return new, old


def _verdict(found):
    """``_replay``'s answer as ``diagram_commutes`` gives it."""
    return found if isinstance(found, CounterPath) else True


def _check_zigzag_regrowing(d):
    """``zigzag._check_zigzag`` of d's fresh walks, with no slots, and the
    sources its conclusion check re-grows, or None when the premise fails
    and nothing is re-grown."""
    replays = []
    original = zigzag._replay

    def record(objects, walk, fillers, sources=None):
        replays.append(sources)
        return original(objects, walk, fillers, sources)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zigzag, "_replay", record)
        outcome = zigzag._check_zigzag(
            d.objects, *frame_walks(d.objects, d.edges), None)
    assert len(replays) in (1, 2) and replays[0] is None
    return outcome, replays[1] if len(replays) == 2 else None


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
    # src, dst and both paths
    assert outcome == (ZigZagOutcome("holds") if full is True
                       else ZigZagOutcome("violated", full))
    assert regrown == sources_reaching_last_two_tails(d)
    return full


def _spy_samples(monkeypatch):
    """A list that gets, per sample the zig-zag search checks, its whole
    diagram (its shape's frame with its hub and fillers), the sources of
    each replay of its check, the premise's and, when that commutes, the
    conclusion's, and its outcome."""
    samples, shapes, replays = [], {}, []
    make_shape = zigzag._corollary_shape
    check, replay = zigzag._check_zigzag, zigzag._replay

    def record_shape(*args):
        shape = make_shape(*args)
        shapes[id(shape[3])] = shape
        return shape

    def record_replay(objects, walk, fillers, sources=None):
        replays.append(list(walk if sources is None else sources))
        return replay(objects, walk, fillers, sources)

    def record_check(objects, premise, conclusion, fillers):
        replays.clear()
        outcome = check(objects, premise, conclusion, fillers)
        fields, _, frame, *walks = shapes[id(premise)]
        assert objects is frame[0] and walks == [premise, conclusion]
        left, right = fillers["left"], fillers["right"]
        whole = build_zigzag_diagram(fields[0], frame, left[0].cod, left,
                                     right)
        samples.append((whole, list(replays), outcome))
        return outcome

    monkeypatch.setattr(zigzag, "_corollary_shape", record_shape)
    monkeypatch.setattr(zigzag, "_replay", record_replay)
    monkeypatch.setattr(zigzag, "_check_zigzag", record_check)
    return samples


def _search_diagrams(monkeypatch):
    """Every tree check the zig-zag search makes, as the diagram it checks,
    the sources it grows trees from, its verdict and whether it is a
    conclusion check: the premise, all but the bottom symmetry, from every
    node of the frame, and, when the premise commutes, the whole diagram
    from the sources the premise reports.  Each commuting premise is also
    recorded with its whole diagram and the sources it reports."""
    seen, reported = [], []
    samples = _spy_samples(monkeypatch)
    for mix in (0, 1, 2):
        for n in (1, 2, 3):
            for seed in range(3):
                zigzag.search_counterexample(Model(INTEGERS, mix), n,
                                             max_rank=2, seed=seed, budget=12)
    monkeypatch.undo()
    for whole, replays, outcome in samples:
        counter = outcome.counter or True
        premise = Diagram(whole.model, whole.objects, whole.edges[:-2])
        if outcome.status == "premise_fails":
            seen.append((premise, replays[0], counter, False))
            continue
        seen.append((premise, replays[0], True, False))
        seen.append((whole, replays[1], counter, True))
        reported.append((whole, replays[1]))
    return seen, reported


def test_search_diagrams_agree_and_name_the_same_pair(monkeypatch):
    checks, reported = _search_diagrams(monkeypatch)
    failing = partial = 0
    for d, sources, verdict, conclusion in checks:
        new, old = assert_agrees(d)
        # on the search's own diagrams the tree check names the pair the
        # enumerator names, and so does the search's replay of its shape's
        # walks with the sample's fillers, so `zigzag-check` on a witness
        # is unchanged
        assert new == old == verdict
        # and a check of only some of the trees, as a conclusion's re-grows
        # and a premise's skips the hub, names the pair the full check names
        walk = zigzag._walk(d.objects, d.edges)
        assert _verdict(zigzag._replay(d.objects, walk, None, sources)) == new
        failing += new is not True
        # a conclusion check that re-grows fewer trees than its premise
        # grew, one per node of the frame: all but the hub
        partial += conclusion and len(sources) < len(d.objects) - 1
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
    samples = _spy_samples(monkeypatch)
    zigzag.search_counterexample(Model(INTEGERS, mix), n, max_rank=2,
                                 seed=seed, budget=budget)
    monkeypatch.undo()
    return [whole for whole, _, _ in samples]


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
                negated = tuple((u, v, label, mor_scale(f, -1))
                                for u, v, label, f in whole.edges[-2:])
                full = assert_zigzag_check_agrees(Diagram(
                    whole.model, whole.objects, whole.edges[:-2] + negated))
                verdicts[full is True] += 1
    assert all(verdicts.values())


def test_two_cycle_through_the_source_names_the_oracle_pair():
    # the cycle back to the source is compared with the identity there,
    # which the counterexample then names as its first path, the empty one
    f = mor(Z2, 2, 2, [[0, 1], [1, 0]])
    g = mor(Z2, 2, 2, [[0, 1], [2, 0]])
    for edges in ([(0, 1, "f", f), (1, 0, "g", g)],
                  [(0, 1, "f", f), (1, 0, "f-inv", dual_mor(f)),
                   (1, 0, "g", g)],
                  [(0, 0, "loop", g), (0, 1, "f", f)]):
        d = Diagram(Z2, (2, 2), tuple(edges))
        new, old = assert_agrees(d)
        assert new == old
        assert new.src == new.dst == 0
        assert new.path_a == ()


def _signed_permutation(rng, r):
    images = list(range(r))
    rng.shuffle(images)
    return mor(Z2, r, r,
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
        objects = (r,) * nodes
        g = [_signed_permutation(rng, r) for _ in range(nodes)]
        mors = [compose(g[v], dual_mor(g[u])) for u, v in pairs]
        if mors and rng.random() < 0.5:
            i = rng.randrange(len(mors))
            mors[i] = random_mor(Z2, rng, r, r, 1)
    else:
        objects = tuple(rng.choice((0, 1, 1, 2)) for _ in range(nodes))
        mors = [random_mor(Z2, rng, objects[u], objects[v], 1)
                for u, v in pairs]
    edges = tuple((u, v, str(i), f)
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


def _random_frame(rng):
    """A random multigraph with filler slots into a sink added among all
    but its last two edges, read as a zig-zag's bottom symmetry, and
    fillers for them: all zero or small random ones."""
    d = _random_multigraph(rng)
    hub, sink = rng.choice((1, 2)), len(d.objects)
    edges, fillers = list(d.edges[:-2]), {"left": [], "right": []}
    for u in range(len(d.objects)):
        if rng.random() < 0.6:
            side = rng.choice(("left", "right"))
            k = len(fillers[side])
            edges.insert(rng.randint(0, len(edges)),
                         (u, sink, f"{side}-filler-{k}", (side, k)))
            fillers[side].append(random_mor(Z2, rng, d.objects[u], hub, 1))
    if rng.random() < 0.3:
        fillers = {side: [mor_scale(f, 0) for f in column]
                   for side, column in fillers.items()}
    return (d.objects, tuple(edges) + d.edges[-2:]), hub, fillers


@pytest.mark.parametrize("seed", range(4))
def test_random_frames_replay_as_their_diagrams(seed):
    # the replay of a frame's walks with fillers gives the outcome the
    # reference check gives the frame filled in, CounterPath included;
    # failures found by the walk, trees that never reach the sink and
    # filler mismatches in a later source all occur
    rng = random.Random(f"frame-replay:{seed}")
    found = {"frame": 0, "no sink": 0, "later slot": 0}
    for _ in range(250):
        frame, hub, fillers = _random_frame(rng)
        if len(frame[1]) < 2 or type(frame[1][-2][3]) is tuple:
            continue
        premise, conclusion = frame_walks(*frame)
        outcome = zigzag._check_zigzag(frame[0], premise, conclusion,
                                       fillers)
        whole = build_zigzag_diagram(Z2, frame, hub, fillers["left"],
                                     fillers["right"])
        assert outcome == reference_check_zigzag(whole)
        sink = len(frame[0])
        if outcome.counter is not None:
            found["frame"] += outcome.counter.dst != sink
            found["later slot"] += (outcome.counter.dst == sink
                                    and outcome.counter.src > 0)
        found["no sink"] += sum(
            not any(type(e) is tuple for e in events.__copy__())
            for events in premise.values())
    assert all(found.values()), found


def test_dense_dag_commutes_and_locates_a_changed_edge():
    # the complete DAG on 17 nodes has 2^15 simple paths from node 0 to
    # node 16 alone; the tree check composes each edge once per source
    rng = random.Random("dense-dag")
    g = [_signed_permutation(rng, 2) for _ in range(17)]
    pairs = [(u, v) for u in range(17) for v in range(u + 1, 17)]
    edges = [(u, v, f"{u}-{v}", compose(g[v], dual_mor(g[u])))
             for u, v in pairs]
    assert diagram_commutes(Diagram(Z2, (2,) * 17, edges)) is True
    changed = pairs.index((5, 12))
    edges[changed] = (5, 12, "5-12", mor_scale(edges[changed][3], -1))
    d = Diagram(Z2, (2,) * 17, edges)
    counter = diagram_commutes(d)
    assert_genuine(d, counter)
    assert changed in counter.path_a + counter.path_b
