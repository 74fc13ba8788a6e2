"""A served store opens lazily and stays dict-free through its writes.

What this file pins down:

* a lazily opened store answers ``has_vertex`` / ``has_edge`` / ``match``
  from its view (CSR row plus patched row) exactly as a dict graph fed
  the same churn does, and without materializing,
* reads through ``HttpServer`` over a ``GraphRegistry`` store — ``/query``
  forward, backward, bidirectional, 4-source and batch, ``/explain`` and
  ``/stats`` — never materialize the dict graph (counted: zero
  ``PersistentGraph._materialize`` calls),
* ``/mutate`` writes through the view and materializes nothing (counted:
  zero ``_materialize`` calls), answers equal ``rpq_pairs_basic`` before
  and after it, and EXPLAIN's snapshot line never says "cold",
* every shape — ``max_length``, literals, products, big repeats, bound
  atoms anywhere — runs on the view of a lazy primary and of a replica,
  exactly, and an oversized repeat is the same typed 400 on both,
* readers racing writes: every reply's ``X-Repro-Graph-Version`` names
  the version its answer is exact at, and no reader sees the version go
  backwards,
* ``Engine.open`` binds the store itself: ``pairs`` stays lazy, ``query``
  materializes once.
"""

import asyncio
import itertools
import json

import pytest
from counting import counted_calls

from repro.concurrency import tracking_scope, witness_scope
from repro.engine import Engine
from repro.graph.generators import uniform_random
from repro.graph.graph import MultiRelationalGraph
from repro.replication import PrimaryFeed, ReplicaGraph
from repro.rpq import lconcat, lplus, lstar, lunion, rpq_pairs_basic, sym
from repro.service import GraphRegistry, HttpServer, wire
from repro.service.http import ReplicaHttpServer
from repro.storage import PersistentGraph, persistent

NAME = "g"
ROOT = "/v1/graphs/g/"
LABELS = ("a", "b", "c")

#: PathQL text -> the label expression ``rpq_pairs_basic`` evaluates.
EXPRESSIONS = {
    "[_, a, _] . [_, b, _]*": lconcat(sym("a"), lstar(sym("b"))),
    "([_, a, _] | [_, b, _])* . [_, c, _]":
        lconcat(lstar(lunion(sym("a"), sym("b"))), sym("c")),
    "[_, a, _]+": lplus(sym("a")),
}
T1, T3, APLUS = EXPRESSIONS

#: ``(query, sources, targets, kernel the engine routes it to)``.
READS = [
    (T1, [1], None, "forward"),
    (T1, None, [10], "backward"),
    (T3, [3], [4, 5], "bidirectional"),
    (APLUS, [6, 7, 8, 9], None, "forward"),
]


@pytest.fixture(autouse=True)
def concurrency_checks():
    with witness_scope() as witness, tracking_scope() as tracker:
        yield
        witness.assert_acyclic()
        tracker.assert_empty()


def base_graph():
    return uniform_random(60, 240, labels=LABELS, seed=5, name=NAME)


def churn(graph):
    """Structural records a reopened store replays into its overlay: edges
    added and removed, a vertex born and one removed with its edges."""
    for i in range(15):
        graph.add_edge(i, "b", (i * 7 + 3) % 60)
        graph.add_edge(60 + i % 4, "a", i)
    for edge in sorted(graph.match(label="c"), key=repr)[:12]:
        graph.remove_edge(*edge)
    graph.remove_vertex(17)


def expected(graph, query, sources, targets):
    pairs = rpq_pairs_basic(graph, EXPRESSIONS[query],
                            None if sources is None else frozenset(sources))
    return frozenset(pair for pair in pairs
                     if targets is None or pair[1] in targets)


def body_of(query, sources=None, targets=None, **extra):
    body = dict(extra, query=query)
    if sources is not None:
        body["sources"] = sources
    if targets is not None:
        body["targets"] = targets
    return body


async def call(server, method, action, body=None):
    """``(status, decoded reply, headers)`` of one request through
    ``_dispatch``."""
    status, payload, headers = await server._dispatch(
        method, ROOT + action, {},
        b"" if body is None else json.dumps(body).encode())
    return status, json.loads(wire.encode_reply(payload)[0]), headers


def pairs_of(payload):
    return frozenset(map(tuple, payload["pairs"]))


def counted_materialize():
    return counted_calls([("materialize", PersistentGraph, "_materialize")])


class Served:
    """A registry root holding ``g`` (``base_graph`` plus ``churn``), the
    lazily opened handle, an ``HttpServer`` and the reference dict graph."""

    def __init__(self, tmp_path):
        root = tmp_path / "graphs"
        root.mkdir()
        self.reference = base_graph()
        store = PersistentGraph.create(str(root / NAME), self.reference,
                                       name=NAME)
        churn(self.reference)  # logged: the open replays it
        store.close()
        self.registry = GraphRegistry(str(root), max_workers=2)
        self.server = HttpServer(self.registry)
        self.handle = self.registry.acquire(NAME)
        self.registry.release(NAME)
        self.store = self.handle.store

    def run(self, scenario):
        async def main():
            try:
                return await scenario(self.server)
            finally:
                await self.server.stop()
        return asyncio.run(main())


class TestLazyMembership:
    """``has_vertex`` / ``has_edge`` / ``match`` off the view equal the
    dict graph's, over base rows, patched rows and tombstones."""

    def check(self, store, graph):
        vertices = sorted(graph.vertices()) + [17, 99]
        for vertex in vertices:
            assert store.has_vertex(vertex) == graph.has_vertex(vertex)
        for tail, label, head in itertools.product(vertices, LABELS + ("z",),
                                                   vertices[::3]):
            assert store.has_edge(tail, label, head) \
                == graph.has_edge(tail, label, head), (tail, label, head)
        for tail, label, head in itertools.product(
                [None, 0, 5, 17, 60, 99], (None,) + LABELS,
                [None, 3, 10, 99]):
            assert store.match(tail, label, head) \
                == graph.match(tail, label, head), (tail, label, head)

    def test_lazy_store_answers_like_the_dict_graph(self, tmp_path):
        directory = str(tmp_path / "store")
        graph = base_graph()
        with PersistentGraph.create(directory, graph, name=NAME):
            churn(graph)
        with counted_materialize() as counts, \
                PersistentGraph.open(directory) as store:
            self.check(store, graph)
            assert not store.materialized and counts["materialize"] == 0
            # The same answers after a write through the view.
            store.add_edge(0, "c", 1)
            graph.add_edge(0, "c", 1)
            self.check(store, graph)
            assert counts["materialize"] == 0 and not store.materialized

    def test_materialized_label_counts_are_the_graphs(self, tmp_path):
        """A read after a write takes maintained label counts, never an
        O(labels x V) recount off the view: patched per record while the
        store is lazy, the dict graph's once it is materialized."""
        directory = str(tmp_path / "store")
        graph = base_graph()
        PersistentGraph.create(directory, graph, name=NAME).close()

        def write_and_read(store, offset):
            for i in range(offset, offset + 5):
                store.add_edge(i, "z", i + 1)
                graph.add_edge(i, "z", i + 1)
                assert store.labels() == graph.labels()
                assert [store.label_fanout(label) for label in "abcz"] \
                    == [graph.label_fanout(label) for label in "abcz"]

        with PersistentGraph.open(directory) as store:
            edge = sorted(graph.match(label="c"), key=repr)[0]
            store.remove_edge(*edge)
            graph.remove_edge(*edge)
            assert store.labels() == graph.labels()  # counted once, here
            with counted_calls([("recount", persistent, "label_counts")]) \
                    as counts:
                write_and_read(store, 0)
                assert not store.materialized
                store.graph()
                write_and_read(store, 5)
            assert counts["recount"] == 0


class TestReadsNeverMaterialize:
    def test_queries_explain_and_stats_stay_lazy(self, tmp_path):
        served = Served(tmp_path)
        engine = served.handle.engine
        assert engine.graph is served.store and not served.store.materialized
        kernels = {engine.route(engine.compile(query), frozenset(sources or ())
                                or None, frozenset(targets or ()) or None
                                ).kernel
                   for query, sources, targets, _ in READS}
        assert kernels == {kernel for *_, kernel in READS}

        async def scenario(server):
            for query, sources, targets, _ in READS:
                status, payload, _ = await call(
                    server, "POST", "query", body_of(query, sources, targets))
                assert status == 200, payload
                assert pairs_of(payload) == expected(
                    served.reference, query, sources, targets)
            status, payload, _ = await call(server, "POST", "query", {
                "queries": list(EXPRESSIONS), "sources": [1, 2, 3]})
            assert status == 200, payload
            for result in payload["results"]:
                assert pairs_of(result) == expected(
                    served.reference, result["query"], [1, 2, 3], None)
            status, payload, _ = await call(server, "POST", "explain",
                                            body_of(T1, [1]))
            assert status == 200, payload
            assert "compact snapshot: delta overlay" in payload["explain"]
            # Planning a bound atom counts it off the view (``match``);
            # explaining a bounded read only describes it.
            for body in (body_of("[0, a, _] . [_, b, _]*"),
                         body_of(T1, [1], max_length=3)):
                status, payload, _ = await call(server, "POST", "explain",
                                                body)
                assert status == 200, payload
            status, payload, _ = await call(server, "GET", "stats")
            assert status == 200 and not payload["info"]["materialized"]

        with counted_materialize() as counts:
            served.run(scenario)
        assert served.store.materialized is False
        assert counts["materialize"] == 0


class TestInteriorBindingStaysLazy:
    def test_a_lazy_store_answers_an_interior_binding(self, tmp_path):
        # A guard resolves against the mapped view: exact (12 pairs on
        # the 12-cycle) and no dict graph built for it.
        directory = str(tmp_path / "cycle")
        PersistentGraph.create(directory, MultiRelationalGraph(
            [(i, "a", (i + 1) % 12) for i in range(12)])).close()
        with counted_materialize() as counts, \
                PersistentGraph.open(directory) as store:
            engine = Engine(store)
            query = "[_, a, 3] . [_, a, _]*"
            assert engine.route(engine.compile(query)).kernel == "forward"
            assert len(engine.pairs(query)) == 12
            assert not store.materialized and counts["materialize"] == 0


class TestFirstWrite:
    def test_first_mutate_materializes_once(self, tmp_path):
        """Named for when the first write materialized the store; writes
        go through the view, so the count is zero."""
        served = Served(tmp_path)
        reference = served.reference
        store = served.store

        async def read_all(server):
            for query, sources, targets, _ in READS:
                status, payload, headers = await call(
                    server, "POST", "query", body_of(query, sources, targets))
                assert status == 200, payload
                assert int(headers["X-Repro-Graph-Version"]) \
                    == store.version()
                assert pairs_of(payload) == expected(
                    reference, query, sources, targets)

        async def explain(server):
            status, payload, _ = await call(server, "POST", "explain",
                                            body_of(T3, [3], [4, 5]))
            assert status == 200, payload
            return payload["explain"]

        async def mutate(server, adds, removes=()):
            status, payload, _ = await call(server, "POST", "mutate", {
                "add_edges": [list(edge) for edge in adds],
                "remove_edges": [list(edge) for edge in removes]})
            assert status == 200, payload
            for edge in adds:
                reference.add_edge(*edge)
            for edge in removes:
                if reference.has_edge(*edge):
                    reference.remove_edge(*edge)
            assert payload["version"] == store.version()

        async def scenario(server):
            await read_all(server)
            assert "cold" not in await explain(server)
            # Removing an absent edge writes nothing: still lazy.
            await mutate(server, [], [(0, "z", 0), (0, "a", 99)])
            assert not store.materialized
            present = sorted(reference.match(label="a"), key=repr)[0]
            await mutate(server, [(1, "c", 2), (2, "b", 1)],
                         [tuple(present), (0, "z", 0)])
            assert not store.materialized
            await read_all(server)
            assert "cold" not in await explain(server)
            # Past the dict graph's compaction floor: the overlay keeps
            # serving until a checkpoint folds it, never reported cold.
            await mutate(server, [(i, "c", (i * 5 + 1) % 60)
                                  for i in range(80)])
            assert "cold" not in await explain(server)
            await read_all(server)

        with counted_materialize() as counts:
            served.run(scenario)
        assert counts["materialize"] == 0 and not store.materialized


class TestBoundedReads:
    BOUNDED = "[_, a, _] . [_, b, _]*"
    #: The shapes a second, dict-graph evaluator used to answer: a bound,
    #: a literal (one end outside the graph), a product, a big repeat.
    SHAPES = ((BOUNDED, 3), ("{(1, a, 2, 2, b, 99)} . [_, a, _]*", None),
              ("[_, a, _] & [_, b, _]*", None), ("[_, a, _]{17}", None))
    OVERSIZED = "[_, a, _]{0,1000000}"

    def test_a_lazy_primary_answers_every_shape_unmaterialized(self, tmp_path):
        # Every shape runs on the view, exactly: nothing materializes.
        served = Served(tmp_path)
        reference = Engine(served.reference)
        truths = [reference.pairs(query, max_length=bound, sources=[1, 2])
                  for query, bound in self.SHAPES]

        async def scenario(server):
            answers = []
            for query, bound in self.SHAPES:
                status, payload, _ = await call(server, "POST", "query",
                                                body_of(query, [1, 2],
                                                        max_length=bound))
                assert status == 200, payload
                answers.append(pairs_of(payload))
            status, payload, _ = await call(server, "POST", "query",
                                            body_of(self.OVERSIZED))
            assert status == 400 and payload["type"] == "QueryTooLargeError"
            return answers

        with counted_materialize() as counts:
            assert served.run(scenario) == truths
        assert sum(counts.values()) == 0 and not served.store.materialized

    def test_a_replica_answers_every_shape_like_the_primary(self, tmp_path):
        # Only an oversized read is refused, as on the primary; every other
        # shape answers as the primary's engine does.
        with PersistentGraph.create(str(tmp_path / "p"), base_graph(),
                                    name=NAME, replicate=True) as store:
            truths = [Engine(store).pairs(query, max_length=bound,
                                          sources=[1, 2])
                      for query, bound in self.SHAPES]
            replica = ReplicaGraph.bootstrap(str(tmp_path / "r"),
                                             PrimaryFeed(store))
            try:
                server = ReplicaHttpServer(replica)

                async def scenario():
                    try:
                        replies = [await call(server, "POST", "query",
                                              body_of(query, [1, 2],
                                                      max_length=bound))
                                   for query, bound in self.SHAPES]
                        return replies, await call(server, "POST", "query",
                                                   body_of(self.OVERSIZED))
                    finally:
                        await server.stop()
                replies, refused = asyncio.run(scenario())
            finally:
                replica.close()
        assert [pairs_of(payload) for _, payload, _ in replies] == truths
        status, payload, _ = refused
        assert status == 400 and payload["type"] == "QueryTooLargeError"
        assert payload["retriable"] is False


class TestVersionsAcrossTheSwitch:
    READERS = 4
    WRITES = 3

    def test_every_reply_is_exact_at_its_version(self, tmp_path):
        served = Served(tmp_path)
        server = served.server
        states = {served.store.version(): served.reference.copy()}
        replies = []

        async def reader(index, done):
            seen = []
            step = 0
            while not done.is_set() or step < 6:
                query = list(EXPRESSIONS)[(index + step) % len(EXPRESSIONS)]
                # A fresh seed vertex per step: most reads miss the cache.
                sources = [(index * 13 + step) % 60]
                status, payload, headers = await call(
                    server, "POST", "query", body_of(query, sources))
                assert status == 200, payload
                seen.append(int(headers["X-Repro-Graph-Version"]))
                replies.append((query, sources, seen[-1], pairs_of(payload)))
                step += 1
                await asyncio.sleep(0)
            assert seen == sorted(seen), seen

        async def writer(done):
            graph = served.reference
            for batch in range(self.WRITES):
                await asyncio.sleep(0.01)
                adds = [(batch * 4 + i, "b", (batch * 9 + i * 5) % 60)
                        for i in range(4)]
                status, payload, _ = await call(server, "POST", "mutate",
                                                {"add_edges": adds})
                assert status == 200, payload
                for edge in adds:
                    graph.add_edge(*edge)
                states[payload["version"]] = graph.copy()
            done.set()

        async def scenario(server):
            done = asyncio.Event()
            await asyncio.gather(writer(done), *(
                reader(i, done) for i in range(self.READERS)))

        with counted_materialize() as counts:
            served.run(scenario)
        assert counts["materialize"] == 0
        versions = {version for _, _, version, _ in replies}
        assert len(versions) > 1, versions
        for query, sources, version, answer in replies:
            assert version in states, (version, sorted(states))
            assert answer == expected(states[version], query, sources,
                                      None), (query, sources, version)


class TestEngineOpen:
    def test_pairs_stay_lazy_and_query_materializes_once(self, tmp_path):
        directory = str(tmp_path / "store")
        graph = base_graph()
        with PersistentGraph.create(directory, graph, name=NAME):
            churn(graph)
        with counted_materialize() as counts:
            engine = Engine.open(directory)
            try:
                assert engine.graph is engine.store
                assert engine.pairs(T1, sources=[1]) == expected(
                    graph, T1, [1], None)
                assert counts["materialize"] == 0
                assert len(engine.query(T1, max_length=2)) == len(
                    Engine(graph).query(T1, max_length=2))
                assert engine.pairs(T3) == expected(graph, T3, None, None)
                assert counts["materialize"] == 1
            finally:
                engine.close()
                engine.store.close()
