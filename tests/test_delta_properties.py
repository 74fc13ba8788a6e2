"""Property-based delta-overlay invariants (hypothesis).

The incremental snapshot contract: after **any** mutation sequence, with
snapshots touched at arbitrary points along the way (so deltas accumulate
over whatever base happened to be cached), ``base CSR + delta`` must answer
exactly like a from-scratch rebuild.  The patched-row invariant, checked
on every kind of overlay (a dict graph's, a lazily opened store's, a
replica's): each row of the overlay is the rebuilt snapshot's row as a
multiset, no row names a dead vertex, and ``row_degrees`` is exact.
Compaction-threshold crossing is exercised explicitly with deterministic
sequences, since it is a boundary behavior a random walk may miss.  The
overlay is patched at commit, so reads never write it: readers racing
after a write, and a write whose log append fails, both leave it equal
to a rebuild.  A single-relational ``DiGraph`` has no
overlay: its snapshot after any churn equals the graph, and it is rebuilt
once per mutate-then-read step.
"""

import tempfile
from collections import Counter

import pytest
from counting import counted_calls
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.digraph import DiGraph
from repro.graph import compact
from repro.graph.compact import (
    HAVE_NUMPY,
    CompactAdjacency,
    CompactDiGraph,
    DeltaAdjacency,
    adjacency_snapshot,
    digraph_snapshot,
)
from repro.graph.generators import uniform_random
from repro.graph.graph import MultiRelationalGraph
from repro.graph.sharding import row_degrees
from repro.replication import PrimaryFeed, ReplicaGraph
from repro.rpq import lconcat, lstar, rpq_pairs, rpq_pairs_basic, sym
from repro.storage import PersistentGraph

VERTICES = list(range(8)) + ["x", "y"]
LABELS = ["a", "b"]

vertex = st.sampled_from(VERTICES)
label = st.sampled_from(LABELS)

mrg_ops = st.lists(
    st.one_of(
        st.tuples(st.just("+e"), vertex, label, vertex),
        st.tuples(st.just("-e"), vertex, label, vertex),
        st.tuples(st.just("+v"), vertex),
        st.tuples(st.just("-v"), vertex),
    ),
    min_size=1, max_size=40,
)

digraph_ops = st.lists(
    st.one_of(
        st.tuples(st.just("+e"), vertex, vertex,
                  st.sampled_from([0.5, 1.0, 2.0])),
        st.tuples(st.just("-e"), vertex, vertex),
        st.tuples(st.just("+v"), vertex),
    ),
    min_size=1, max_size=40,
)


def apply_mrg_op(graph, op):
    kind = op[0]
    if kind == "+e":
        graph.add_edge(op[1], op[2], op[3])
    elif kind == "-e":
        if graph.has_edge(op[1], op[2], op[3]):
            graph.remove_edge(op[1], op[2], op[3])
    elif kind == "+v":
        graph.add_vertex(op[1])
    elif kind == "-v":
        if graph.has_vertex(op[1]):
            graph.remove_vertex(op[1])


def apply_digraph_op(graph, op):
    kind = op[0]
    if kind == "+e":
        graph.add_edge(op[1], op[2], op[3])
    elif kind == "-e":
        if graph.has_edge(op[1], op[2]):
            graph.remove_edge(op[1], op[2])
    elif kind == "+v":
        graph.add_vertex(op[1])


def assert_matches_rebuild(graph):
    """The cached (possibly overlaid) snapshot == a from-scratch rebuild."""
    snapshot = adjacency_snapshot(graph)
    rebuilt = CompactAdjacency.build(graph)
    assert snapshot.num_edges == rebuilt.num_edges == graph.size()
    assert set(snapshot.vertex_ids) == set(graph.vertices())
    assert set(snapshot.label_ids) >= set(graph.labels())
    live = {snapshot.vertex_of[i] for i in snapshot.live_vertex_ids()}
    assert live == set(graph.vertices())
    for v in graph.vertices():
        vid = snapshot.vertex_ids[v]
        for l in graph.labels():
            lid = snapshot.label_ids[l]
            out = {snapshot.vertex_of[i] for i in snapshot.out_neighbors(vid, lid)}
            assert out == set(graph.successors(v, l))
            into = {snapshot.vertex_of[i] for i in snapshot.in_neighbors(vid, lid)}
            assert into == set(graph.predecessors(v, l))


class TestAdjacencyDeltaInvariants:
    @settings(max_examples=60, deadline=None)
    @given(ops=mrg_ops, stride=st.integers(min_value=1, max_value=4))
    def test_overlay_equals_rebuild_after_any_mutation_sequence(self, ops, stride):
        graph = MultiRelationalGraph([(0, "a", 1), (1, "b", 2), (2, "a", 0)])
        adjacency_snapshot(graph)  # pin a base so deltas accumulate over it
        for position, op in enumerate(ops):
            apply_mrg_op(graph, op)
            if position % stride == 0:
                adjacency_snapshot(graph)  # interleaved touches extend the overlay
        assert_matches_rebuild(graph)

    @settings(max_examples=30, deadline=None)
    @given(ops=mrg_ops)
    def test_untouched_journal_replays_in_one_batch(self, ops):
        graph = MultiRelationalGraph([(0, "a", 1), (1, "b", 2)])
        adjacency_snapshot(graph)
        for op in ops:  # no snapshot touches: one big replay at the end
            apply_mrg_op(graph, op)
        assert_matches_rebuild(graph)


class TestCompactionThreshold:
    def test_crossing_folds_overlay_into_fresh_base(self, monkeypatch):
        monkeypatch.setattr(compact, "COMPACTION_MIN_OPS", 4)
        monkeypatch.setattr(compact, "COMPACTION_FRACTION", 0.0)
        graph = MultiRelationalGraph([(0, "a", 1), (1, "a", 2)])
        assert isinstance(adjacency_snapshot(graph), CompactAdjacency)
        seen = []
        for i in range(12):
            graph.add_edge(("n", i), "a", ("n", i + 1))
            snapshot = adjacency_snapshot(graph)
            seen.append(type(snapshot).__name__)
            assert_matches_rebuild(graph)
        # Both sides of the threshold were traversed, repeatedly.
        assert "DeltaAdjacency" in seen
        assert seen.count("CompactAdjacency") >= 2
        # The last commit left the cache at the graph's version.
        assert adjacency_snapshot(graph).version == graph.version()

    def test_below_the_threshold_mutate_then_query_never_rebuilds(self):
        # "Incremental beats a rebuild per mutation", counted: up to the
        # compaction threshold every single-edge mutate-then-query step
        # patches the cached snapshot; nothing is built from the dicts.
        steps = compact.COMPACTION_MIN_OPS
        graph = uniform_random(200, 800, labels=("a", "b"), seed=17)
        expression = lconcat(sym("a"), lstar(sym("b")))
        rpq_pairs(graph, expression, sources={0})  # the one base build
        with counted_calls([("adjacency", CompactAdjacency, "build")]) \
                as counts:
            for step in range(steps):
                tail, head = (step * 37) % 200, (step * 61 + 13) % 200
                if graph.has_edge(tail, "a", head):
                    graph.remove_edge(tail, "a", head)
                else:
                    graph.add_edge(tail, "a", head)
                rpq_pairs(graph, expression, sources={tail})
        assert counts == {}
        assert adjacency_snapshot(graph).delta_ops == steps

    def test_a_read_after_a_write_patches_nothing(self):
        # The write patches the overlay at commit; the read that follows
        # only fetches it.
        graph = uniform_random(200, 800, labels=("a", "b"), seed=19)
        expression = lconcat(sym("a"), lstar(sym("b")))
        rpq_pairs(graph, expression, sources={0})
        graph.add_edge(0, "a", 199)
        with counted_calls([("apply", DeltaAdjacency, "apply"),
                            ("build", CompactAdjacency, "build")]) as counts:
            assert rpq_pairs(graph, expression, sources={0}) == \
                rpq_pairs_basic(graph, expression, sources={0})
        assert counts == {}

    def test_default_threshold_scales_with_base_edges(self):
        assert not compact.compaction_due(64, 0)
        assert compact.compaction_due(65, 0)
        # A 10k-edge base tolerates a quarter of its size in deltas.
        assert not compact.compaction_due(2500, 10000)
        assert compact.compaction_due(2501, 10000)


class TestPatchedAtCommit:
    """Commits patch the cached overlay; reads only fetch it."""

    def test_readers_racing_after_a_write_all_answer(self):
        # Four readers start together right after a batch of commits over
        # a cached overlay.  A read must not write the shared overlay:
        # two readers patching in the same removals fail one of them
        # with a bare ValueError (an untyped 500 on a server).
        import random
        import sys
        import threading

        from repro.engine import Engine
        query = "[_, a, _] . [_, b, _]*"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the readers finely
        try:
            for round_ in range(4):
                graph = uniform_random(600, 3000, labels=("a", "b"),
                                       seed=5)
                engine = Engine(graph)
                graph.add_edge(0, "a", 1)
                engine.pairs(query, sources={0}, processes=1)
                graph.add_edge(1, "b", 2)  # the cache is an overlay now
                engine.pairs(query, sources={0}, processes=1)
                rng = random.Random(round_)
                for e in rng.sample(sorted(graph.edge_set(), key=repr), 200):
                    graph.remove_edge(e.tail, e.label, e.head)
                for _ in range(400):
                    graph.add_edge(rng.randrange(600), rng.choice("ab"),
                                   rng.randrange(600))
                barrier = threading.Barrier(4)
                answers, errors = {}, []

                def read(source):
                    barrier.wait()
                    try:
                        answers[source] = engine.pairs(
                            query, sources={source}, processes=1)
                    except Exception as exc:  # the race's symptom
                        errors.append(exc)

                threads = [threading.Thread(target=read, args=(source,))
                           for source in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert errors == [], "round {}".format(round_)
                for source, answer in answers.items():
                    assert answer == rpq_pairs_basic(
                        graph, lconcat(sym("a"), lstar(sym("b"))),
                        sources={source})
                assert_matches_rebuild(graph)
        finally:
            sys.setswitchinterval(interval)

    def test_a_dropped_graph_is_freed_without_a_cycle_collection(self):
        # The graph holds its snapshot feed: a feed holding the graph back
        # would keep every dropped graph, snapshot included, alive until
        # a full collection (peak memory of a run that rebuilds graphs).
        import gc
        import weakref
        graph = MultiRelationalGraph(CHURN_BASE)
        adjacency_snapshot(graph)
        graph.add_edge(0, "b", 2)
        alive = weakref.ref(graph)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del graph
            assert alive() is None
        finally:
            if enabled:
                gc.enable()

    def test_failing_subscriber_does_not_starve_the_snapshot(self):
        # A subscriber ahead of the snapshot feed raises on every record:
        # the feed still patches each op the graph applied, and the
        # first error reaches the caller.
        graph = MultiRelationalGraph(CHURN_BASE)
        seen = []

        def failing(record):
            seen.append(record)
            raise RuntimeError("log down")

        graph.subscribe(failing)
        adjacency_snapshot(graph)  # the feed subscribes after it
        with pytest.raises(RuntimeError, match="log down"):
            graph.add_edge(0, "b", 2)
        with pytest.raises(RuntimeError, match="log down"):
            graph.remove_edge(0, "a", 1)
        assert [record[1] for record in seen] == ["+e", "-e"]
        assert adjacency_snapshot(graph).version == graph.version()
        assert_matches_rebuild(graph)

    def test_snapshot_survives_a_failed_log_append(self, tmp_path):
        # A log append that fails flips the store degraded after the
        # graph applied the op: the snapshot built before the failure
        # must hold that op too, or the store would serve a view
        # missing it.
        from repro.errors import StoreDegradedError
        from repro.faults import FaultPlan, fault_scope
        with PersistentGraph.create(str(tmp_path / "g"),
                                    MultiRelationalGraph(CHURN_BASE),
                                    sync="always") as store:
            graph = store.graph()
            before = adjacency_snapshot(graph)
            plan = FaultPlan()
            plan.arm("wal.fsync", "eio", times=1)
            with fault_scope(plan):
                with pytest.raises(StoreDegradedError):
                    graph.add_edge(2, "b", 0)
            assert plan.fired() == 1 and store.degraded
            assert graph.has_edge(2, "b", 0)
            after = adjacency_snapshot(graph)
            assert after.version == graph.version()
            assert isinstance(after, DeltaAdjacency) and after.base is before
            assert_matches_rebuild(graph)
            # The store's own view took the op too, before the append.
            view = store.view()
            assert view.version == graph.version() and store.has_edge(2, "b", 0)
            assert view.num_edges == CompactAdjacency.build(graph).num_edges
            assert frozenset(store.match()) == graph.edge_set()


#: Churn over a base holding labels a, b and vertices 0-2: "c" is a label
#: born after the base, 3-7 / "x" / "y" vertices born after it, and "re"
#: re-adds the edge removed last (a base edge deleted, then restored).
churn_ops = st.lists(
    st.one_of(
        st.tuples(st.just("+e"), vertex, st.sampled_from(LABELS + ["c"]),
                  vertex),
        st.tuples(st.just("-e"), vertex, label, vertex),
        st.tuples(st.just("+v"), vertex),
        st.tuples(st.just("-v"), vertex),
        st.tuples(st.just("re")),
    ),
    min_size=1, max_size=40,
)

CHURN_BASE = [(0, "a", 1), (1, "b", 2), (2, "a", 0), (0, "a", 2),
              (1, "a", 1)]


def apply_churn_op(graph, op, removed):
    """``apply_mrg_op`` plus re-adds; ``removed`` remembers removals."""
    if op[0] == "re":
        if removed:
            graph.add_edge(*removed.pop())
    elif op[0] == "-e" and graph.has_edge(op[1], op[2], op[3]):
        graph.remove_edge(op[1], op[2], op[3])
        removed.append(op[1:])
    else:
        apply_mrg_op(graph, op)


def assert_rows_match_rebuild(view, graph):
    """Every row of ``view`` is the rebuilt snapshot's row as a multiset,
    no row names a dead vertex, and ``row_degrees`` counts the rows."""
    assert isinstance(view, DeltaAdjacency)
    rebuilt = CompactAdjacency.build(graph)
    dead = view.dead_vertices
    assert set(view.vertex_ids) == set(rebuilt.vertex_ids)
    assert view.num_edges == rebuilt.num_edges
    degrees = [0] * view.num_slots
    for label_name, label_id in view.label_ids.items():
        rebuilt_label = rebuilt.label_ids.get(label_name)
        for slot in range(view.num_slots):
            out = view.out_neighbors(slot, label_id)
            into = view.in_neighbors(slot, label_id)
            degrees[slot] += len(out)
            assert not dead.intersection(out)
            assert not dead.intersection(into)
            if slot in dead or rebuilt_label is None:
                assert out == [] and into == []
                continue
            twin = rebuilt.vertex_ids[view.vertex_of[slot]]
            for got, want in (
                    (out, rebuilt.out_neighbors(twin, rebuilt_label)),
                    (into, rebuilt.in_neighbors(twin, rebuilt_label))):
                assert Counter(view.vertex_of[i] for i in got) == \
                    Counter(rebuilt.vertex_of[i] for i in want)
    assert row_degrees(view) == degrees


class TestPatchedRows:
    @settings(max_examples=80, deadline=None)
    @given(ops=churn_ops, stride=st.integers(min_value=1, max_value=4))
    def test_graph_overlay_rows_equal_rebuild(self, ops, stride):
        graph = MultiRelationalGraph(CHURN_BASE)
        # A private overlay fed by its own subscription, in batches.
        overlay = DeltaAdjacency(CompactAdjacency.build(graph))
        pending = []
        graph.subscribe(pending.append)
        removed = []
        for position, op in enumerate(ops):
            apply_churn_op(graph, op, removed)
            if position % stride == 0:  # extend the same overlay in place
                overlay.apply(pending)
                pending.clear()
        overlay.apply(pending)
        assert_rows_match_rebuild(overlay, graph)

    @settings(max_examples=20, deadline=None)
    @given(ops=churn_ops)
    def test_lazy_store_overlay_rows_equal_rebuild(self, ops):
        with tempfile.TemporaryDirectory() as directory:
            path = directory + "/g"
            with PersistentGraph.create(
                    path, MultiRelationalGraph(CHURN_BASE)) as store:
                graph = store.graph()
                graph.add_edge(0, "b", 1)  # the log always holds a record
                removed = []
                for op in ops:
                    apply_churn_op(graph, op, removed)
            with PersistentGraph.open(path) as reopened:
                assert not reopened.materialized
                assert_rows_match_rebuild(reopened.view(), graph)

    @settings(max_examples=15, deadline=None)
    @given(ops=churn_ops, stride=st.integers(min_value=1, max_value=6))
    def test_replica_overlay_rows_equal_rebuild(self, ops, stride):
        with tempfile.TemporaryDirectory() as directory:
            with PersistentGraph.create(
                    directory + "/primary", MultiRelationalGraph(CHURN_BASE),
                    replicate=True) as store:
                feed = PrimaryFeed(store)
                replica = ReplicaGraph.bootstrap(directory + "/replica",
                                                 feed)
                try:
                    graph = store.graph()
                    graph.add_edge(0, "b", 1)
                    removed = []
                    for position, op in enumerate(ops):
                        apply_churn_op(graph, op, removed)
                        if position % stride == 0:  # apply mid-churn
                            replica.poll_once(feed)
                    while not replica.poll_once(feed)["at_end"]:
                        pass
                    assert replica.applied_version == feed.wal(
                        replica.cursor.token())[1]["version"]
                    assert_rows_match_rebuild(replica.view(), graph)
                finally:
                    replica.close()


@pytest.mark.skipif(not HAVE_NUMPY, reason="compact DiGraph kernels need numpy")
class TestDiGraphSnapshot:
    """A DiGraph has no overlay: its snapshot is rebuilt per version."""

    @settings(max_examples=60, deadline=None)
    @given(ops=digraph_ops, stride=st.integers(min_value=1, max_value=4))
    def test_snapshot_after_churn_equals_the_graph(self, ops, stride):
        graph = DiGraph([(0, 1), (1, 2), (2, 0)])
        digraph_snapshot(graph)
        for position, op in enumerate(ops):
            apply_digraph_op(graph, op)
            if position % stride == 0:
                digraph_snapshot(graph)
        snapshot = digraph_snapshot(graph)
        assert snapshot.version == graph.version()
        got = {(snapshot.vertex_of[t], snapshot.vertex_of[h]): w
               for t, h, w in zip(snapshot.tails.tolist(),
                                  snapshot.heads.tolist(),
                                  snapshot.weights.tolist())}
        want = {(t, h): w for t, h, w in graph.edges()}
        assert got == want
        for source in graph.vertices():
            assert snapshot.bfs_distances(source) == \
                graph._bfs_distances_dict(source)

    def test_one_build_per_mutate_then_read_step(self):
        # Counted: reads at one version share the cached snapshot; each
        # mutate-then-read step builds exactly one new one.
        steps = 16
        digraph = DiGraph((i, (i * 7 + 1) % 200) for i in range(200))
        digraph.bfs_distances(0)
        with counted_calls([("digraph", CompactDiGraph, "__init__")]) \
                as counts:
            for source in range(steps):
                digraph.bfs_distances(source)
        assert counts == {}
        with counted_calls([("digraph", CompactDiGraph, "__init__")]) \
                as counts:
            for step in range(steps):
                tail, head = (step * 37) % 200, (step * 61 + 13) % 200
                if digraph.has_edge(tail, head):
                    digraph.remove_edge(tail, head)
                else:
                    digraph.add_edge(tail, head)
                assert digraph.bfs_distances(tail) == \
                    digraph._bfs_distances_dict(tail)
                digraph.bfs_distances(head)
        assert counts == {"digraph": steps}


def assert_fanout_is_a_recount(graph):
    """The maintained per-label counters == a count over ``edge_set()``."""
    for name in graph.labels():
        edges = [e for e in graph.edge_set() if e.label == name]
        assert graph.label_fanout(name) == (
            len(edges), len({e.tail for e in edges}),
            len({e.head for e in edges})), name
    # A label's counters go when its last edge goes.
    assert set(graph._label_ends) == set(graph.labels())
    assert graph.label_fanout("never-seen") == (0, 0, 0)


class TestLabelFanoutInvariants:
    @settings(max_examples=150, deadline=None)
    @given(ops=mrg_ops)
    def test_fanout_equals_recount_after_any_churn(self, ops):
        graph = MultiRelationalGraph([(0, "a", 1), (1, "b", 2), (2, "a", 0)])
        for op in ops:
            apply_mrg_op(graph, op)     # adds, re-adds, removes, -v
            assert_fanout_is_a_recount(graph)
        assert_fanout_is_a_recount(graph.copy())
        inverted = graph.inverted()
        assert_fanout_is_a_recount(inverted)
        for name in graph.labels():
            edges, tails, heads = graph.label_fanout(name)
            assert inverted.label_fanout(name) == (edges, heads, tails)

    @settings(max_examples=10, deadline=None)
    @given(ops=mrg_ops)
    def test_fanout_of_a_reopened_materialised_store(self, ops):
        import tempfile

        from repro.storage import PersistentGraph
        with tempfile.TemporaryDirectory() as directory:
            with PersistentGraph.create(
                    directory + "/g",
                    MultiRelationalGraph([(0, "a", 1), (1, "b", 2)])) as store:
                for op in ops:
                    apply_mrg_op(store.graph(), op)
                want = {name: store.graph().label_fanout(name)
                        for name in store.graph().labels()}
            with PersistentGraph.open(directory + "/g",
                                      materialize=True) as reopened:
                assert_fanout_is_a_recount(reopened.graph())
                assert {name: reopened.graph().label_fanout(name)
                        for name in reopened.graph().labels()} == want
