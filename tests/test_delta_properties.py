"""Property-based delta-overlay invariants (hypothesis).

The incremental snapshot contract: after **any** mutation sequence, with
snapshots touched at arbitrary points along the way (so deltas accumulate
over whatever base happened to be cached), ``base CSR + delta`` must answer
exactly like a from-scratch rebuild.  The patched-row invariant, checked
on every kind of overlay (a dict graph's, a lazily opened store's, a
replica's): each row of the overlay is the rebuilt snapshot's row as a
multiset, no row names a dead vertex, and ``row_degrees`` is exact.
Compaction-threshold crossing and the journal-cap rebuild fallback are
exercised explicitly with deterministic sequences, since they are boundary
behaviors a random walk may miss.
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
from repro.rpq import lconcat, lstar, rpq_pairs, sym
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
        # Compaction consumed the journal up to the current version.
        assert graph.journal_since(graph.version()) == []

    def test_below_the_threshold_mutate_then_query_never_rebuilds(self):
        # "Incremental beats a rebuild per mutation", counted: up to the
        # compaction threshold every single-edge mutate-then-query step
        # patches the cached snapshot; nothing is built from the dicts.
        steps = compact.COMPACTION_MIN_OPS
        graph = uniform_random(200, 800, labels=("a", "b"), seed=17)
        digraph = DiGraph((i, (i * 7 + 1) % 200) for i in range(200))
        expression = lconcat(sym("a"), lstar(sym("b")))
        rpq_pairs(graph, expression, sources={0})  # the one base build
        digraph.bfs_distances(0)
        with counted_calls([
                ("adjacency", CompactAdjacency, "build"),
                ("digraph", CompactDiGraph, "__init__")]) as counts:
            for step in range(steps):
                tail, head = (step * 37) % 200, (step * 61 + 13) % 200
                if graph.has_edge(tail, "a", head):
                    graph.remove_edge(tail, "a", head)
                else:
                    graph.add_edge(tail, "a", head)
                rpq_pairs(graph, expression, sources={tail})
                if digraph.has_edge(tail, head):
                    digraph.remove_edge(tail, head)
                else:
                    digraph.add_edge(tail, head)
                digraph.bfs_distances(tail)
        assert counts == {}
        assert getattr(graph, compact._CACHE_ATTR).delta_ops == steps
        if HAVE_NUMPY:  # without it bfs_distances never leaves the dicts
            assert getattr(digraph, compact._CACHE_ATTR).delta_ops == steps

    def test_default_threshold_scales_with_base_edges(self):
        assert not compact.compaction_due(64, 0)
        assert compact.compaction_due(65, 0)
        # A 10k-edge base tolerates a quarter of its size in deltas.
        assert not compact.compaction_due(2500, 10000)
        assert compact.compaction_due(2501, 10000)

    def test_journal_cap_falls_back_to_full_rebuild(self, monkeypatch):
        monkeypatch.setattr(MultiRelationalGraph, "_JOURNAL_CAP", 8)
        graph = MultiRelationalGraph([(0, "a", 1)])
        base = adjacency_snapshot(graph)
        for i in range(20):  # blows past the cap: journal is dropped wholesale
            graph.add_edge(i, "b", i + 1)
        assert graph.journal_since(base.version) is None
        snapshot = adjacency_snapshot(graph)
        assert isinstance(snapshot, CompactAdjacency)  # rebuilt, not patched
        assert_matches_rebuild(graph)


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
        # The cached base turns the journal on; nothing else reads or
        # prunes it, so this overlay replays all of it.
        overlay = DeltaAdjacency(adjacency_snapshot(graph))
        applied = graph.version()
        removed = []
        for position, op in enumerate(ops):
            apply_churn_op(graph, op, removed)
            if position % stride == 0:  # extend the same overlay in place
                overlay.apply(graph.journal_since(applied))
                applied = graph.version()
        overlay.apply(graph.journal_since(applied))
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
                    assert replica.applied_version == \
                        store.replication_version()
                    assert_rows_match_rebuild(replica.view(), graph)
                finally:
                    replica.close()


@pytest.mark.skipif(not HAVE_NUMPY, reason="compact DiGraph kernels need numpy")
class TestDiGraphDeltaInvariants:
    @settings(max_examples=60, deadline=None)
    @given(ops=digraph_ops, stride=st.integers(min_value=1, max_value=4))
    def test_patched_arrays_equal_rebuild(self, ops, stride):
        graph = DiGraph([(0, 1), (1, 2), (2, 0)])
        digraph_snapshot(graph)
        for position, op in enumerate(ops):
            apply_digraph_op(graph, op)
            if position % stride == 0:
                digraph_snapshot(graph)
        snapshot = digraph_snapshot(graph)
        rebuilt = CompactDiGraph(graph)
        assert snapshot.version == graph.version()
        got = {(snapshot.vertex_of[t], snapshot.vertex_of[h]): w
               for t, h, w in zip(snapshot.tails.tolist(),
                                  snapshot.heads.tolist(),
                                  snapshot.weights.tolist())}
        want = {(t, h): w for t, h, w in graph.edges()}
        assert got == want
        assert len(rebuilt.tails) == len(snapshot.tails)
        for source in graph.vertices():
            assert snapshot.bfs_distances(source) == \
                graph._bfs_distances_dict(source)

    def test_compaction_promotes_materialized_base(self, monkeypatch):
        monkeypatch.setattr(compact, "COMPACTION_MIN_OPS", 3)
        monkeypatch.setattr(compact, "COMPACTION_FRACTION", 0.0)
        graph = DiGraph([(0, 1), (1, 2)])
        first = digraph_snapshot(graph)
        cache = getattr(graph, compact._CACHE_ATTR)
        assert cache.base is first
        base_ids = {id(cache.base)}
        for i in range(10):
            graph.add_edge(i, i + 10)
            snapshot = digraph_snapshot(graph)
            assert snapshot.version == graph.version()
            base_ids.add(id(cache.base))
            want = {(t, h) for t, h, _ in graph.edges()}
            got = {(snapshot.vertex_of[t], snapshot.vertex_of[h])
                   for t, h in zip(snapshot.tails.tolist(),
                                   snapshot.heads.tolist())}
            assert got == want
        assert len(base_ids) > 1  # at least one promotion happened
        assert cache.delta_ops <= 3  # deltas were reset by compaction


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
