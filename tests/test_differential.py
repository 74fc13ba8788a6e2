"""Differential harness: compact kernels == dict references under churn.

Seeded randomized interleavings of mutations (add/remove edge, add/remove
vertex) and queries, asserting after **every** step that the compact
backend — base CSR snapshots, delta overlays, and post-compaction rebuilds
alike — answers identically to the dict/hash reference implementations:

* ``rpq_pairs`` vs ``rpq_pairs_basic`` on the multi-relational graph,
* BFS distances, weak/strong components, geodesic summaries
  (diameter / average path length), closeness, betweenness and pagerank
  on the single-relational ``DiGraph``.

Across the parametrized seeds the module executes well over 1000
mutation+query steps, and the multi-relational harness asserts that both
the delta-overlay state and the post-compaction (fresh base) state were
actually traversed — so snapshot staleness, journal replay bugs and
compaction regressions all fail loudly here.  A ``DiGraph`` snapshot has
no overlay; its harness checks the per-version rebuild.
"""

import random

import pytest

from repro.algorithms.centrality import (
    _betweenness_centrality_dict,
    _closeness_centrality_dict,
    betweenness_centrality,
    closeness_centrality,
)
from repro.algorithms.components import (
    _strongly_connected_components_dict,
    _weakly_connected_components_unionfind,
    strongly_connected_components,
    weakly_connected_components,
)
from repro.algorithms.digraph import DiGraph
from repro.algorithms.geodesics import (
    _average_path_length_sums_dict,
    _diameter_dict,
    average_path_length,
    diameter,
)
from repro.algorithms.pagerank import pagerank
from repro.errors import AlgorithmError
from repro.graph.compact import (
    _SHARED_BATCH,
    _SHARED_MIN_SEEDS,
    HAVE_NUMPY,
    CompactAdjacency,
    DeltaAdjacency,
    adjacency_snapshot,
    install_snapshot,
    rpq_pairs_on_snapshot,
)
from repro.graph.generators import uniform_random
from repro.graph.sharding import live_ids_in_range
from repro.rpq import (
    LabelEmpty,
    compile_rpq,
    lconcat,
    lstar,
    lunion,
    rpq_pairs,
    rpq_pairs_basic,
    rpq_pairs_between,
    rpq_pairs_to_targets,
    sym,
)
from repro.storage.snapshots import (
    open_adjacency_snapshot,
    write_adjacency_snapshot,
)

LABELS = ("a", "b", "c")

EXPRESSIONS = [
    lconcat(sym("a"), sym("b")),
    lconcat(sym("a"), lstar(sym("b"))),
    lunion(lconcat(sym("a"), sym("b")), lstar(sym("c"))),
]


@pytest.fixture
def force_compact(monkeypatch):
    """Drop the DiGraph fast-path threshold so small graphs hit the compact
    kernels (the dict references are called directly by their private
    names, so both sides stay observable)."""
    monkeypatch.setattr(DiGraph, "_COMPACT_MIN_ORDER", 0)


def _mutate_mrg(graph, rng, vertices, step):
    """One random structural mutation; may resurrect removed vertices."""
    roll = rng.random()
    if roll < 0.40 or graph.size() == 0:
        graph.add_edge(rng.choice(vertices), rng.choice(LABELS),
                       rng.choice(vertices))
    elif roll < 0.75:
        edge = rng.choice(sorted(graph.edge_set(), key=repr))
        graph.remove_edge(edge.tail, edge.label, edge.head)
    elif roll < 0.85:
        fresh = ("fresh", step)
        graph.add_vertex(fresh)
        vertices.append(fresh)
    else:
        target = rng.choice(vertices)
        if graph.has_vertex(target):
            graph.remove_vertex(target)


class TestRpqDifferential:
    @pytest.mark.parametrize("seed", [11, 29])
    def test_rpq_pairs_matches_reference_at_every_step(self, seed):
        rng = random.Random(seed)
        graph = uniform_random(40, 200, labels=LABELS, seed=seed)
        vertices = sorted(graph.vertices(), key=repr)
        cache_states = set()
        for step in range(300):
            _mutate_mrg(graph, rng, vertices, step)
            expression = EXPRESSIONS[step % len(EXPRESSIONS)]
            if step % 7 == 0:
                live = sorted(graph.vertices(), key=repr)
                sources = frozenset(rng.sample(live, min(8, len(live))))
                assert rpq_pairs(graph, expression, sources=sources) == \
                    rpq_pairs_basic(graph, expression, sources=sources), \
                    "step {}".format(step)
            else:
                assert rpq_pairs(graph, expression) == \
                    rpq_pairs_basic(graph, expression), "step {}".format(step)
            cache_states.add(type(adjacency_snapshot(graph)).__name__)
            if step % 60 == 0:
                # Overlay vs from-scratch rebuild: structural agreement.
                snapshot = adjacency_snapshot(graph)
                rebuilt = CompactAdjacency.build(graph)
                assert snapshot.num_edges == rebuilt.num_edges == graph.size()
                assert set(snapshot.vertex_ids) == set(graph.vertices())
        # The walk must have queried through a live delta overlay AND through
        # a post-compaction base CSR, or the harness proved nothing.
        assert cache_states == {"CompactAdjacency", "DeltaAdjacency"}


class TestDirectionalRpqDifferential:
    """Forward == backward == bidirectional == per-source reference, under
    churn, with and without endpoint filters.

    The three compact kernels traverse different arrays (forward CSR,
    reverse CSR, both) with different DFA orientations; this harness pins
    them to the dict-based reference on the same randomized
    mutation/query interleavings as the main RPQ differential, so a
    regression in the reverse blocks, the reversed move table, or the
    bitmask meet-join fails against ground truth, not just against a
    sibling kernel.
    """

    @pytest.mark.parametrize("seed", [3, 23])
    def test_all_directions_match_reference_under_churn(self, seed):
        rng = random.Random(seed)
        graph = uniform_random(30, 150, labels=LABELS, seed=seed)
        vertices = sorted(graph.vertices(), key=repr)
        for step in range(120):
            _mutate_mrg(graph, rng, vertices, step)
            if step % 3:
                continue
            expression = EXPRESSIONS[step % len(EXPRESSIONS)]
            live = sorted(graph.vertices(), key=repr)
            sources = frozenset(rng.sample(live, min(6, len(live))))
            targets = frozenset(rng.sample(live, min(6, len(live))))
            reference = rpq_pairs_basic(graph, expression)
            tag = "step {}".format(step)
            assert rpq_pairs_to_targets(graph, expression) == reference, tag
            restricted = frozenset(
                pair for pair in reference
                if pair[0] in sources and pair[1] in targets)
            assert rpq_pairs(graph, expression, sources=sources,
                             targets=targets) == restricted, tag
            assert rpq_pairs_to_targets(graph, expression, targets=targets,
                                        sources=sources) == restricted, tag
            assert rpq_pairs_between(graph, expression, sources,
                                     targets) == restricted, tag
            source, target = rng.choice(live), rng.choice(live)
            expected = frozenset(pair for pair in reference
                                 if pair == (source, target))
            assert rpq_pairs_between(graph, expression, {source},
                                     {target}) == expected, tag

    # The cases only a loop shared by all three configurations can get
    # wrong, as (label expression, sources, targets).  The graph below
    # reaches vertex "t" in two different accepting states of MULTI and
    # NULLABLE_MULTI (several reverse seeds per target; "t" or (t, t)
    # counted twice would exhaust ``remaining`` and drop "z" / "far", two
    # levels further out), "hub" answers every wanted vertex in the middle
    # of its first level, and "late" then sweeps through the
    # configurations "hub" left stamped.
    MULTI = lunion(lconcat(sym("a"), lstar(sym("b"))),
                   lconcat(sym("a"), lstar(sym("c"))))
    NULLABLE_MULTI = lunion(lstar(sym("a")), sym("b"))
    SHARED_LOOP_CASES = {
        "several accepting states, one vertex":
            (MULTI, {"x", "y", "hub"}, {"t", "z"}),
        "nullable, seed wanted":
            (NULLABLE_MULTI, {"t", "far", 2}, {"t", "far"}),
        "nullable, seed not wanted":
            (NULLABLE_MULTI, {"t", "x"}, {"far", 5}),
        "nullable star over a born-late label":
            (lstar(sym("d")), {"t", "far", "ghost"}, {"t", "far", "ghost"}),
        "filter satisfied mid-level, then another seed":
            (lconcat(sym("a"), lstar(sym("b"))), {"hub", "late", "x"},
             {"t", "m"}),
    }

    @staticmethod
    def _graph_behind(backend, tmp_path, extra=()):
        """One logical graph, its cached view in the requested shape
        (``extra`` edges join the base CSR)."""
        graph = uniform_random(24, 80, labels=LABELS, seed=5)
        for tail, label, head in [
                ("x", "a", "t"), ("y", "a", "m"), ("m", "b", "t"),
                ("t", "a", "far"), ("hub", "a", "t"), ("hub", "a", "m"),
                ("hub", "a", 0), ("hub", "a", 1), ("late", "a", "hub"),
                ("late", "a", "m"), ("doomed", "a", "t"), ("m", "b", 7),
                ("m", "b", "k"), ("k", "b", "z"), *extra]:
            graph.add_edge(tail, label, head)
        adjacency_snapshot(graph)  # the base CSR predates everything below
        graph.remove_edge("m", "b", 7)
        graph.remove_vertex("doomed")            # tombstones a base slot
        graph.add_edge("t", "d", "far")          # label born after the base
        graph.add_edge("far", "b", "t")
        graph.add_edge("fresh", "a", "t")        # vertex born after the base
        view = adjacency_snapshot(graph)
        assert isinstance(view, DeltaAdjacency) and view.dead_vertices
        assert "d" not in view.base.label_ids
        if backend == "heap":
            view = CompactAdjacency.build(graph)
        elif backend == "mmap":
            path = str(tmp_path / "g.rcsr")
            write_adjacency_snapshot(path, view, version=graph.version())
            view, _ = open_adjacency_snapshot(path, mmap=True)
            assert isinstance(view.reverse[0][1], memoryview)
        install_snapshot(graph, view)
        return graph, view

    @pytest.mark.parametrize("backend", ["heap", "overlay", "mmap"])
    @pytest.mark.parametrize("case", sorted(SHARED_LOOP_CASES))
    def test_shared_loop_edge_cases(self, backend, case, tmp_path):
        expression, sources, targets = self.SHARED_LOOP_CASES[case]
        graph, view = self._graph_behind(backend, tmp_path)
        reference = rpq_pairs_basic(graph, expression)
        restricted = frozenset(pair for pair in reference
                               if pair[0] in sources and pair[1] in targets)
        assert restricted, "the case must have answers to lose"
        assert rpq_pairs(graph, expression) == reference
        assert rpq_pairs_to_targets(graph, expression) == reference
        assert rpq_pairs(graph, expression, sources=sources,
                         targets=targets) == restricted
        assert rpq_pairs_to_targets(graph, expression, targets=targets,
                                    sources=sources) == restricted
        assert rpq_pairs_between(graph, expression, sources,
                                 targets) == restricted
        # Every kernel above ran on the pinned view, not on a rebuild.
        assert adjacency_snapshot(graph) is view

    # What only the shared sweep (>= _SHARED_MIN_SEEDS seeds travelling as
    # bitmasks, _SHARED_BATCH to a batch) can get wrong.  WIDE hangs
    # 2 x batch + 64 filler vertices off the graph above: most reach one
    # or two vertices of their own, one in three reaches nothing, and one
    # in fifty reaches "m" -> "t"/"k"/"z" — vertices that so answer seeds
    # of every batch, in two accepting states of MULTI.
    WIDE = [("f{}".format(i), "a", "f{}".format(i + 1))
            for i in range(2 * _SHARED_BATCH + 64) if i % 3] + \
        [("f{}".format(i), "b", "m")
         for i in range(0, 2 * _SHARED_BATCH + 64, 50)]

    @staticmethod
    def _first_live(view, count):
        """The ``count`` lowest live ids' vertices: the base graph's, then
        the fillers in order, so a longer prefix adds whole batches."""
        ids = list(view.live_vertex_ids())[:count]
        assert len(ids) == count
        return frozenset(view.vertex_of[i] for i in ids)

    @pytest.mark.parametrize("backend", ["heap", "overlay", "mmap"])
    def test_shared_sweep_batch_boundaries(self, backend, tmp_path):
        graph, view = self._graph_behind(backend, tmp_path, self.WIDE)
        reference = rpq_pairs_basic(graph, self.MULTI)
        for count in (_SHARED_MIN_SEEDS - 1, _SHARED_MIN_SEEDS,
                      _SHARED_BATCH - 1, _SHARED_BATCH, _SHARED_BATCH + 1,
                      2 * _SHARED_BATCH + 3):
            seeds = self._first_live(view, count)
            # Neither a dropped nor a duplicated pair at a boundary, nor a
            # mask leaked into the next batch: the answers are exact.
            assert rpq_pairs(graph, self.MULTI, sources=seeds) == frozenset(
                pair for pair in reference if pair[0] in seeds), count
            assert rpq_pairs_to_targets(graph, self.MULTI, targets=seeds) \
                == frozenset(pair for pair in reference
                             if pair[1] in seeds), count
        assert adjacency_snapshot(graph) is view

    @pytest.mark.parametrize("backend", ["heap", "overlay", "mmap"])
    def test_shared_sweep_end_filters(self, backend, tmp_path):
        graph, view = self._graph_behind(backend, tmp_path, self.WIDE)
        seeds = self._first_live(view, _SHARED_BATCH + 40)
        assert {"t", "far", "x"} <= seeds
        cases = {
            "nullable, seeds wanted": (self.NULLABLE_MULTI, seeds),
            "nullable, no seed wanted":
                (self.NULLABLE_MULTI, frozenset(graph.vertices()) - seeds),
            "unknown and tombstoned wanted":
                (self.MULTI, {"ghost", "doomed", "t", "f4"}),
            "only unknown wanted": (self.MULTI, {"ghost", "doomed"}),
        }
        for tag, (expression, wanted) in cases.items():
            reference = rpq_pairs_basic(graph, expression)
            assert rpq_pairs(graph, expression, sources=seeds,
                             targets=wanted) == frozenset(
                p for p in reference if p[0] in seeds and p[1] in wanted), tag
            assert rpq_pairs_to_targets(graph, expression, targets=seeds,
                                        sources=wanted) == frozenset(
                p for p in reference if p[1] in seeds and p[0] in wanted), tag
        # Seeds that reach nothing cost a bit each and answer nothing.
        barren = frozenset("f{}".format(i) for i in range(0, 300, 3))
        assert len(barren) >= _SHARED_MIN_SEEDS
        assert rpq_pairs(graph, self.MULTI, sources=barren) == frozenset()
        assert rpq_pairs_to_targets(graph, lconcat(sym("c"), sym("a")),
                                    targets=barren) == frozenset()

    @pytest.mark.parametrize("backend", ["heap", "overlay", "mmap"])
    def test_shared_sweep_on_a_cycle_longer_than_a_batch(self, backend,
                                                        tmp_path):
        # One batch, ~batch + 76 rounds: every seed's bit goes once round
        # the b-cycle, each configuration re-queued as each bit arrives.
        length = _SHARED_BATCH + 76
        gates = _SHARED_MIN_SEEDS + 4
        cycle = [("c{}".format(i), "b", "c{}".format((i + 1) % length))
                 for i in range(length)]
        entries = [("in{}".format(j), "a", "c{}".format(50 * j))
                   for j in range(gates)]
        graph, view = self._graph_behind(backend, tmp_path, cycle + entries)
        expression = lconcat(sym("a"), lstar(sym("b")))
        seeds = frozenset(tail for tail, _, _ in entries)
        forward = rpq_pairs(graph, expression, sources=seeds)
        assert forward == rpq_pairs_basic(graph, expression, sources=seeds)
        assert len(forward) == gates * length
        targets = frozenset(head for _, _, head in entries)
        assert rpq_pairs_to_targets(graph, expression, targets=targets) == \
            frozenset(pair for pair in rpq_pairs_basic(graph, expression)
                      if pair[1] in targets)

    @pytest.mark.parametrize("backend", ["heap", "overlay", "mmap"])
    def test_shared_sweep_over_a_worker_id_range(self, backend, tmp_path):
        # What a fork-pool task runs: a live id range, here one that
        # starts and ends inside a batch of the whole and spans a third.
        graph, view = self._graph_behind(backend, tmp_path, self.WIDE)
        lo, hi = _SHARED_BATCH - 5, 2 * _SHARED_BATCH + 40
        owned = {view.vertex_of[i] for i in live_ids_in_range(view, lo, hi)}
        answer = rpq_pairs_on_snapshot(
            view, compile_rpq(self.MULTI, graph),
            source_ids=live_ids_in_range(view, lo, hi))
        assert answer == frozenset(
            pair for pair in rpq_pairs_basic(graph, self.MULTI)
            if pair[0] in owned)


@pytest.mark.skipif(not HAVE_NUMPY, reason="compact DiGraph kernels need numpy")
class TestDiGraphKernelDifferential:
    @pytest.mark.parametrize("seed", [5, 17])
    def test_all_kernels_match_dict_references_under_churn(self, seed,
                                                           force_compact):
        rng = random.Random(seed)
        graph = DiGraph()
        for v in range(36):
            graph.add_vertex(v)
        while graph.size() < 140:
            graph.add_edge(rng.randrange(36), rng.randrange(36),
                           rng.choice((0.5, 1.0, 2.0)))
        for step in range(250):
            if rng.random() < 0.55 or graph.size() == 0:
                tail = rng.randrange(36)
                head = tail if rng.random() < 0.05 else rng.randrange(36)
                graph.add_edge(tail, head, rng.choice((0.5, 1.0, 2.0)))
            else:
                tail, head, _ = rng.choice(sorted(graph.edges()))
                graph.remove_edge(tail, head)

            family = step % 5
            if family == 0:
                source = rng.randrange(36)
                assert graph.bfs_distances(source) == \
                    graph._bfs_distances_dict(source), "step {}".format(step)
            elif family == 1:
                assert weakly_connected_components(graph) == \
                    _weakly_connected_components_unionfind(graph)
            elif family == 2:
                assert strongly_connected_components(graph) == \
                    _strongly_connected_components_dict(graph)
            elif family == 3:
                best = _diameter_dict(graph)
                if best < 0:
                    with pytest.raises(AlgorithmError):
                        diameter(graph)
                else:
                    assert diameter(graph) == best
                total, count = _average_path_length_sums_dict(graph)
                if count == 0:
                    with pytest.raises(AlgorithmError):
                        average_path_length(graph)
                else:
                    assert average_path_length(graph) == total / float(count)
            else:
                fast = closeness_centrality(graph)
                slow = _closeness_centrality_dict(graph)
                assert set(fast) == set(slow)
                assert max(abs(fast[v] - slow[v]) for v in fast) < 1.0e-12

            if step % 25 == 24:
                fast = betweenness_centrality(graph)
                slow = _betweenness_centrality_dict(graph)
                assert max(abs(fast[v] - slow[v]) for v in fast) < 1.0e-9
                fast_ranks = pagerank(graph)
                original = DiGraph._COMPACT_MIN_ORDER
                DiGraph._COMPACT_MIN_ORDER = graph.order() + 1
                try:
                    slow_ranks = pagerank(graph)
                finally:
                    DiGraph._COMPACT_MIN_ORDER = original
                assert max(abs(fast_ranks[v] - slow_ranks[v])
                           for v in fast_ranks) < 1.0e-9


class TestPrunedDfaDifferential:
    """Pre-flight DFA pruning is invisible to query results under churn.

    Interleaves random mutations with queries answered three ways — the
    dict reference, the compact kernel on the *unpruned* automaton, and
    the compact kernel on the *pruned* automaton — asserting exact parity
    at every step, plus the engine path (cached pruned DFA + provable-
    emptiness short-circuits) on top.  The expression mix includes a label
    the graph never carries (always provably empty) and a union branch
    that dead-ends in the empty language — subset construction emits a
    real trap state for it, so the pruner has actual work; the harness
    asserts both pruning and emptiness verdicts occurred.
    """

    # (label expression, equivalent PathQL) pairs: the engine speaks
    # PathQL, the reference and kernels speak label expressions.  PathQL
    # of None skips the engine check (the rewriter folds embedded empty
    # languages away before the engine ever sees the trap state).
    CASES = [
        (lunion(sym("a"), lconcat(sym("b"), LabelEmpty())), None),
        (lconcat(sym("a"), sym("b")),
         "[_, a, _] . [_, b, _]"),
        (lconcat(sym("a"), lstar(sym("b"))),
         "[_, a, _] . [_, b, _]*"),
        (lunion(lconcat(sym("a"), sym("b")), lstar(sym("c"))),
         "([_, a, _] . [_, b, _]) | [_, c, _]*"),
        (lconcat(sym("a"), sym("zz")),
         "[_, a, _] . [_, zz, _]"),
        (lconcat(lstar(sym("c")), sym("b")),
         "[_, c, _]* . [_, b, _]"),
    ]

    @pytest.mark.parametrize("seed", [7, 23])
    def test_pruned_equals_unpruned_at_every_step(self, seed):
        from repro.analysis.query import analyze_compiled_query, prune_dfa
        from repro.engine import Engine
        from repro.graph.compact import rpq_pairs_compact
        from repro.rpq.evaluation import compile_rpq

        rng = random.Random(seed)
        graph = uniform_random(30, 120, labels=LABELS, seed=seed)
        vertices = sorted(graph.vertices(), key=repr)
        engine = Engine(graph)
        states_pruned = 0
        empty_verdicts = 0
        for step in range(200):
            _mutate_mrg(graph, rng, vertices, step)
            label_expression, pathql = self.CASES[step % len(self.CASES)]
            reference = rpq_pairs_basic(graph, label_expression)

            unpruned = compile_rpq(label_expression, graph)
            pruned, removed = prune_dfa(unpruned)
            states_pruned += removed
            assert rpq_pairs_compact(graph, unpruned) == reference, \
                "unpruned kernel diverged at step {}".format(step)
            assert rpq_pairs_compact(graph, pruned) == reference, \
                "pruned kernel diverged at step {}".format(step)

            diagnostics = analyze_compiled_query(unpruned, label_expression,
                                                 graph.labels())
            if diagnostics.empty:
                empty_verdicts += 1
                assert reference == frozenset(), \
                    "unsound emptiness verdict at step {}".format(step)

            if pathql is not None:
                assert engine.pairs(pathql) == reference, \
                    "engine path diverged at step {}".format(step)
        assert states_pruned > 0, "churn never produced a prunable DFA"
        assert empty_verdicts > 0, "churn never produced an empty verdict"
