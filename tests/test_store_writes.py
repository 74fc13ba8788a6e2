"""A store writes through its mapped view and never builds the dict graph.

What this file pins down:

* the churn property (hypothesis): a lazily opened store and a
  ``MultiRelationalGraph`` fed the same calls — all six mutators, no-op
  adds, absent removals, each error, and a failed log append armed at
  the ``wal.write`` fault site — agree on every call's outcome and, after
  every step, on edges, vertices, properties, ``version()`` and label
  counts; so do the store reopened lazily and ``materialize=True``, and a
  replica tailing the store's log, at its cursor; and so does a store
  made by ``create(dir, graph)``, each call sent to the store or to its
  dict graph, whose view stays equal to that graph,
* a write through the attached graph racing a checkpoint's publish waits
  for the store lock, so it lands in the view the checkpoint maps after,
* a write through a created store patches one overlay, the store's
  (counted: one ``DeltaAdjacency.apply`` per structural record), and the
  attached graph keeps no compact snapshot of its own,
* a served ``/mutate`` sequence that crosses a ``/checkpoint`` makes zero
  ``PersistentGraph._materialize`` and zero ``MultiRelationalGraph``
  constructions, and every ``/query`` reply is exact at its
  ``X-Repro-Graph-Version``,
* label counts are counted once per loaded view and patched per record
  after (counted: zero ``label_counts`` calls over applied batches on a
  store and on a replica), equal to a fresh recount after every record,
* ``info()["labels"]`` counts live labels only, and property reads on a
  view raise for absent ids as the dict graph's do.
"""

import asyncio
import json
import tempfile
import threading

import pytest
from counting import counted_calls
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.edge import Edge
from repro.errors import (
    EdgeNotFoundError,
    PathAlgebraError,
    ReplicationCursorGapError,
    StoreDegradedError,
    VertexNotFoundError,
)
from repro.faults import FaultPlan, fault_scope
from repro.graph import compact
from repro.graph.generators import uniform_random
from repro.graph.graph import MultiRelationalGraph
from repro.replication import PrimaryFeed, ReplicaGraph
from repro.rpq import lconcat, lstar, rpq_pairs_basic, sym
from repro.service import GraphRegistry, HttpServer, wire
from repro.storage import PersistentGraph, persistent

SEED = [(0, "a", 1), (1, "b", 2), (2, "a", 0), (2, "b", 2), ("x", "a", 0)]
VERTICES = [0, 1, 2, 3, "x", None]
LABELS = ["a", "b", None]

vertex = st.sampled_from(VERTICES)
label = st.sampled_from(LABELS)
props = st.dictionaries(st.sampled_from(["k", "w"]),
                        st.integers(0, 3), max_size=2)
key = st.sampled_from(["k", "w"])
value = st.integers(0, 3)

#: Calls whose records come out in one order on both sides (a vertex
#: removal's edge records follow set order, so a failed append could
#: keep a different edge on each side: it is never the faulted call).
ordered_call = st.one_of(
    st.tuples(st.just("add_vertex"), vertex, st.booleans(), props),
    st.tuples(st.just("add_edge"), vertex, label, vertex, props),
    st.tuples(st.just("remove_edge"), vertex, label, vertex),
    st.tuples(st.just("set_vertex_property"), vertex, key, value),
    st.tuples(st.just("set_edge_property"), vertex, label, vertex, key,
              value),
)
steps = st.lists(st.one_of(
    ordered_call,
    st.tuples(st.just("remove_vertex"), vertex),
    st.tuples(st.just("fail"), ordered_call),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("reopen")),
    st.tuples(st.just("poll")),
), min_size=1, max_size=30)


class LogRules:
    """The store's log as the dict graph's subscriber: every call is
    refused while degraded, and an armed failure keeps the record it
    fails on and degrades — what ``_WalSink`` does for a store."""

    def __init__(self):
        self.degraded = False
        self.fail_next = False

    def precheck(self, entries):
        if self.degraded:
            raise StoreDegradedError("oracle", "degraded")

    def __call__(self, record):
        if self.fail_next:
            self.fail_next, self.degraded = False, True
            raise StoreDegradedError("oracle", "append failed")


def invoke(target, call):
    """``("ok", result)`` or ``("error", type)`` of one mutator call."""
    name, args = call[0], list(call[1:])
    kwargs = {}
    if name == "add_vertex":
        kwargs = dict(args.pop(), strict=args.pop())
    elif name == "add_edge":
        kwargs = args.pop()
    try:
        return "ok", getattr(target, name)(*args, **kwargs)
    except PathAlgebraError as exc:
        return "error", type(exc)


def state(graph):
    """Everything a caller can read of one graph state."""
    edges = frozenset(graph.match())
    vertices = graph.vertices()
    return {
        "edges": edges,
        "vertices": vertices,
        "vertex_props": {v: graph.vertex_properties(v) for v in vertices},
        "edge_props": {e: graph.edge_properties(*e) for e in edges},
        "version": graph.version(),
        "labels": {l: graph.label_fanout(l) for l in graph.labels()},
        "histogram": graph.label_histogram(),
    }


def assert_same(store, graph):
    assert state(store) == state(graph)
    assert (store.order(), store.size()) == (graph.order(), graph.size())
    for v in VERTICES:
        assert store.has_vertex(v) == graph.has_vertex(v)
        if not graph.has_vertex(v):
            with pytest.raises(VertexNotFoundError):
                store.vertex_properties(v)


class TestChurnProperty:
    @settings(max_examples=60, deadline=None)
    @given(ops=steps)
    def test_store_replica_and_reopens_equal_the_dict_graph(self, ops):
        self.churn(ops)

    @settings(max_examples=60, deadline=None)
    @given(ops=steps, routes=st.lists(st.booleans(), min_size=30,
                                      max_size=30))
    def test_a_materialized_store_equals_its_dict_graph(self, ops, routes):
        """A store made by ``create(dir, graph)`` keeps its view as its
        state: each call goes to ``store`` or to ``store.graph()`` (as
        ``routes`` says), and the view equals the dict graph after each."""
        self.churn(ops, routes)

    def churn(self, ops, routes=None):
        """Run ``ops`` on a store and an oracle graph: a lazily opened
        store, or with ``routes`` a materialized one (reopened
        ``materialize=True``)."""
        graph = MultiRelationalGraph(SEED)
        rules = LogRules()
        graph.subscribe(rules)
        materialize = routes is not None
        with tempfile.TemporaryDirectory() as directory:
            path, copy = directory + "/store", directory + "/replica"
            writable = dict(replicate=True, sync="none", batch_size=1)
            if materialize:
                store = PersistentGraph.create(
                    path, MultiRelationalGraph(SEED), **writable)
            else:
                PersistentGraph.create(path, MultiRelationalGraph(SEED)
                                       ).close()
                store = PersistentGraph.open(path, **writable)
            replica = ReplicaGraph.bootstrap(copy, PrimaryFeed(store))
            states = {graph.version(): state(graph)}
            try:
                with counted_calls([("materialize", PersistentGraph,
                                     "_materialize")]) as counts:
                    for position, op in enumerate(ops):
                        store = self.step(op, store, graph, rules, replica,
                                          path, states,
                                          materialize and routes[position])
                        assert_same(store, graph)
                        assert_counts_fresh(store)
                        if materialize:
                            assert state(store.graph()) == state(graph)
                        states[graph.version()] = state(graph)
                assert store.materialized == materialize
                assert counts["materialize"] == 0 or materialize
                if store.degraded:
                    store.checkpoint()  # what the log lost is folded in
                store.close()
                for materialize in (False, True):
                    with PersistentGraph.open(
                            path, materialize=materialize) as reopened:
                        assert reopened.materialized == materialize
                        assert_same(reopened, graph)
            finally:
                store.close()
                replica.close()

    def step(self, op, store, graph, rules, replica, path, states,
             via_graph=False):
        """Run one step on both sides (a call on the store's side goes
        through ``store.graph()`` when ``via_graph``); returns the (maybe
        reopened) store."""
        kind = op[0]
        target = store.graph() if via_graph else store
        if kind == "checkpoint":
            store.checkpoint()
            rules.degraded = False
        elif kind == "reopen" and not store.degraded:
            store.close()
            store = PersistentGraph.open(
                path, materialize=store.materialized, replicate=True,
                sync="none", batch_size=1)
        elif kind == "poll":
            feed = PrimaryFeed(store)
            try:
                while not replica.poll_once(feed)["at_end"]:
                    pass
            except ReplicationCursorGapError:  # a heal restarted the log
                replica.rebootstrap(feed)
            assert state(replica) == states[replica.applied_version]
        elif kind == "fail":
            plan = FaultPlan()
            plan.arm("wal.write", "eio", times=1)
            rules.fail_next = True
            with fault_scope(plan):
                outcome = invoke(target, op[1])
            assert outcome == invoke(graph, op[1])
            assert plan.fired("wal.write") == int(rules.degraded
                                                  and not rules.fail_next)
            rules.fail_next = False  # a call that wrote nothing
        elif kind != "reopen":
            assert invoke(target, op) == invoke(graph, op)
        assert store.degraded == rules.degraded
        return store


class TestWriteStepLock:
    def test_a_graph_write_waits_out_a_checkpoint(self, tmp_path,
                                                  monkeypatch):
        """A write through the attached graph that commits while a
        checkpoint publishes applies to the view the checkpoint maps
        after, not to the one it folds."""
        graph = MultiRelationalGraph(SEED)
        path = str(tmp_path / "store")
        publish = persistent.publish_generation
        writers = []

        def publish_racing_a_write(*args, **kwargs):
            writer = threading.Thread(target=graph.add_edge,
                                      args=(3, "c", 0))
            writers.append(writer)
            writer.start()
            writer.join(0.2)
            return publish(*args, **kwargs)

        monkeypatch.setattr(persistent, "publish_generation",
                            publish_racing_a_write)
        with PersistentGraph.create(path, graph) as store:
            store.checkpoint()
            writers[0].join(10)
            assert not writers[0].is_alive() and graph.has_edge(3, "c", 0)
            assert state(store) == state(graph)
            assert frozenset(store.match()) == graph.edge_set()
            assert_counts_fresh(store)
        with PersistentGraph.open(path) as reopened:
            assert reopened.has_edge(3, "c", 0)
            assert_same(reopened, graph)


class TestCreatedStorePatchesOneView:
    def test_one_overlay_apply_per_write(self, tmp_path):
        graph = uniform_random(200, 1200, labels=("a", "b", "c"), seed=5)
        edges = sorted(graph.match(), key=repr)
        with PersistentGraph.create(str(tmp_path / "store"), graph,
                                    sync="none") as store:
            assert getattr(graph, compact._CACHE_ATTR, None) is None
            with counted_calls([("apply", compact.DeltaAdjacency,
                                 "apply")]) as counts:
                for i, edge in enumerate(edges[:64]):
                    target = store if i % 2 else graph
                    target.remove_edge(*edge)
                    target.add_edge(edge.tail, edge.label, edge.head)
                store.add_edge("new", "a", "newer")  # +v, +v, +e
            assert counts["apply"] == 64 * 2 + 3
            assert getattr(graph, compact._CACHE_ATTR, None) is None
            assert frozenset(store.match()) == graph.edge_set()
            assert store.version() == graph.version()


def mutate_body(adds=(), removes=()):
    return {"add_edges": [list(edge) for edge in adds],
            "remove_edges": [list(edge) for edge in removes]}


class TestServedWrites:
    QUERY = "[_, a, _] . [_, b, _]*"
    EXPRESSION = lconcat(sym("a"), lstar(sym("b")))

    def test_mutates_across_a_checkpoint_build_no_dict_graph(self, tmp_path):
        root = tmp_path / "graphs"
        root.mkdir()
        seed = uniform_random(40, 160, labels=("a", "b"), seed=3, name="g")
        PersistentGraph.create(str(root / "g"), seed, name="g").close()
        registry = GraphRegistry(str(root), max_workers=2)
        server = HttpServer(registry)
        edges = set(seed.match())
        states = {}  # version -> the edge set a reply there is exact at
        replies = []

        async def call(action, body):
            status, payload, headers = await server._dispatch(
                "POST", "/v1/graphs/g/" + action, {},
                json.dumps(body).encode())
            payload = json.loads(wire.encode_reply(payload)[0])
            assert status == 200, payload
            return payload, headers

        async def mutate(adds, removes=()):
            payload, _ = await call("mutate", mutate_body(adds, removes))
            edges.update(adds)
            edges.difference_update(removes)
            states[payload["version"]] = frozenset(edges)

        async def query(sources):
            payload, headers = await call(
                "query", {"query": self.QUERY, "sources": sources})
            replies.append((sources, int(headers["X-Repro-Graph-Version"]),
                            frozenset(map(tuple, payload["pairs"]))))

        async def scenario():
            try:
                await query([0, 1])
                states[replies[0][1]] = frozenset(edges)
                present = sorted(edges, key=repr)[:8]
                for batch in range(4):
                    await mutate([(batch, "b", 39 - batch),
                                  (39 - batch, "a", batch)],
                                 [present[batch], (0, "z", 0)])
                    await query([batch, 39 - batch])
                payload, _ = await call("checkpoint", {})
                assert payload["info"]["generation"] == 2
                for batch in range(4, 8):
                    await mutate([(batch, "a", batch + 1)], [present[batch]])
                    await query([batch])
            finally:
                await server.stop()

        store = registry.acquire("g").store
        registry.release("g")
        with counted_calls([
                ("materialize", PersistentGraph, "_materialize"),
                ("dict graph", MultiRelationalGraph, "__init__")]) as counts:
            asyncio.run(scenario())
        assert counts == {} and not store.materialized
        for sources, version, answer in replies:
            graph = MultiRelationalGraph(states[version])
            assert answer == rpq_pairs_basic(graph, self.EXPRESSION,
                                             frozenset(sources))


def assert_counts_fresh(source):
    assert source._label_counts() == compact.label_counts(source.view())


class TestPatchedLabelCounts:
    def churn(self, store):
        """Writes that move every count both ways: a label's last edge
        goes and comes back, rows empty and refill, a vertex with a
        self-loop is removed with its edges."""
        yield lambda: store.remove_edge("x", "a", 0)
        yield lambda: store.add_edge(3, "c", 3)
        yield lambda: store.add_edge(3, "c", 0)
        yield lambda: store.remove_edge(3, "c", 3)
        yield lambda: store.remove_vertex(2)
        yield lambda: store.remove_edge(3, "c", 0)
        yield lambda: store.add_edge(0, "c", 1)
        yield lambda: store.add_edge(1, "b", 0)
        yield lambda: store.set_edge_property(1, "b", 0, "w", 1)

    def test_a_store_patches_its_counts_per_record(self, tmp_path):
        path = str(tmp_path / "store")
        PersistentGraph.create(path, MultiRelationalGraph(SEED)).close()
        with PersistentGraph.open(path) as store:
            store.labels()  # the one count of this view
            with counted_calls([("recount", persistent, "label_counts")]) \
                    as counts:
                for write in self.churn(store):
                    write()
                    assert_counts_fresh(store)
            assert counts == {} and not store.materialized
            # A checkpoint reloads the view, which is counted afresh once
            # (by the info() the checkpoint returns).
            with counted_calls([("recount", persistent, "label_counts")]) \
                    as counts:
                store.checkpoint()
                assert_counts_fresh(store)
            assert counts["recount"] == 1

    def test_a_replica_patches_its_counts_per_applied_batch(self, tmp_path):
        path = str(tmp_path / "primary")
        with PersistentGraph.create(path, MultiRelationalGraph(SEED),
                                    replicate=True) as store:
            feed = PrimaryFeed(store)
            with ReplicaGraph.bootstrap(str(tmp_path / "replica"),
                                        feed) as replica:
                store.labels()  # the one count of each loaded view
                replica.labels()
                with counted_calls([("recount", persistent,
                                     "label_counts")]) as counts:
                    for write in self.churn(store):
                        write()
                        assert replica.poll_once(feed)["applied"] >= 1
                        assert_counts_fresh(replica)
                        assert replica.labels() == store.labels()
                assert counts == {}


class TestLiveLabelsAndPropertyReads:
    def test_info_counts_live_labels_only(self, tmp_path):
        path = str(tmp_path / "store")
        graph = MultiRelationalGraph([(1, "a", 2), (2, "b", 3)])
        PersistentGraph.create(path, graph).close()
        with PersistentGraph.open(path) as store:
            store.remove_edge(2, "b", 3)
            assert store.labels() == {"a"} and store.info()["labels"] == 1
            store.checkpoint()
            assert store.info()["labels"] == 1
            store.remove_edge(1, "a", 2)
            assert store.info()["labels"] == 0
        with PersistentGraph.open(path, materialize=True) as store:
            assert store.info()["labels"] == 0
            store.add_edge(1, "a", 2)
            assert store.info()["labels"] == 1

    def test_property_reads_raise_like_the_dict_graph(self, tmp_path):
        graph = MultiRelationalGraph()
        graph.add_edge(1, "a", 2, weight=3)
        graph.add_vertex(1, kind="root")
        with PersistentGraph.create(str(tmp_path / "p"), graph,
                                    replicate=True) as store:
            replica = ReplicaGraph.bootstrap(str(tmp_path / "r"),
                                             PrimaryFeed(store))
            store.close()
            try:
                with PersistentGraph.open(str(tmp_path / "p")) as lazy:
                    for source in (graph, lazy, replica):
                        assert source.vertex_properties(1) == {"kind": "root"}
                        assert source.vertex_properties(2) == {}
                        assert source.edge_properties(1, "a", 2) \
                            == {"weight": 3}
                        with pytest.raises(VertexNotFoundError):
                            source.vertex_properties(99)
                        with pytest.raises(EdgeNotFoundError) as error:
                            source.edge_properties(1, "b", 2)
                        assert error.value.args == EdgeNotFoundError(
                            Edge(1, "b", 2)).args
                    assert not lazy.materialized
            finally:
                replica.close()
