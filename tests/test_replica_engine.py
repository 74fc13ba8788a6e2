"""A replica answers through ``Engine``: the primary's read path over its view.

``ReplicaHttpServer`` serves ``/query`` through
``AsyncEngine(Engine(replica))`` — the route, planner, pre-flight, DFA
cache, result cache and deadline handling the primary's registry uses —
with the replica (:class:`~repro.storage.persistent._LogBackedView`) as
the engine's source.  Four gates:

* **labels** — a lazy store, a replica and a checkpointed store report
  only the labels that still carry an edge (the DFA cache key and the
  pre-flight unknown-label verdict read them);
* **replies** — a hypothesis property: at equal versions the replica's
  ``/query`` reply is byte-identical to the primary's, with
  ``elapsed_ms`` and the replica's ``"replica": true`` flag dropped,
  for every shape — literals, products, ``max_length`` and bound atoms
  anywhere run on the kernel on both sides, and an oversized repeat is
  the same typed 400 on both;
* **counted** — a second identical replica read compiles no DFA and
  dispatches no kernel;
* **race** — reads racing a tailer that applies the primary's batches:
  each answer is ``rpq_pairs_basic`` at exactly the applied version its
  reply reports (no earlier than the one before the request).
"""

import asyncio
import json
import sys
import threading
import time

import pytest
from counting import counted_calls
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrency import tracking_scope, witness_scope
from repro.engine.parallel import ParallelExecutor
from repro.graph import compact
from repro.graph.generators import uniform_random
from repro.graph.graph import MultiRelationalGraph
from repro.replication import PrimaryFeed, ReplicaGraph, ReplicaTailer
from repro.rpq import evaluation as rpq_evaluation
from repro.rpq import lconcat, lstar, lunion, rpq_pairs_basic, sym
from repro.service import GraphRegistry, HttpServer, wire
from repro.service.http import ReplicaHttpServer
from repro.storage import PersistentGraph

NAME = "g"
PATH = "/v1/graphs/g/query"


@pytest.fixture(autouse=True)
def concurrency_checks():
    with witness_scope() as witness, tracking_scope() as tracker:
        yield
        witness.assert_acyclic()
        tracker.assert_empty()


def base_graph():
    graph = uniform_random(30, 90, labels=("a", "b", "c"), seed=3, name=NAME)
    graph.add_edge(0, "z", 1)  # a label the churn below retires
    return graph


def churn(graph):
    """Structural records after the replica bootstrapped."""
    graph.remove_edge(0, "z", 1)
    for i in range(12):
        graph.add_edge(i, "b", (i * 7 + 3) % 30)
        graph.add_edge(30 + i, "a", i)
    for edge in sorted(graph.match(label="c"), key=repr)[:10]:
        graph.remove_edge(edge.tail, edge.label, edge.head)


async def dispatch(server, body):
    """``(status, reply bytes, headers)`` of one ``/query`` through
    ``_dispatch``, without ``elapsed_ms`` and the replica flag."""
    status, payload, headers = await server._dispatch(
        "POST", PATH, {}, json.dumps(body).encode())
    payload.pop("elapsed_ms", None)
    payload.pop("replica", None)
    return status, wire.encode_reply(payload)[0], headers


class TestLabels:
    """A store or replica reports only the labels with a live edge."""

    def make(self, directory, replicate=False):
        graph = MultiRelationalGraph(name=NAME)
        graph.add_edge(1, "a", 2)
        graph.add_edge(2, "z", 3)
        return PersistentGraph.create(directory, graph, name=NAME,
                                      replicate=replicate)

    def test_lazy_and_checkpointed_stores(self, tmp_path):
        directory = str(tmp_path / "store")
        with self.make(directory) as store:
            store.remove_edge(2, "z", 3)
        with PersistentGraph.open(directory) as lazy:
            assert not lazy.materialized
            assert (lazy.labels(), lazy.size()) == ({"a"}, 1)
            assert lazy.label_histogram() == {"a": 1}
            assert lazy.label_fanout("z") == (0, 0, 0)
            assert lazy.label_fanout("a") == (1, 1, 1)
            assert lazy.graph().labels() == lazy.labels() == {"a"}
            lazy.checkpoint()
            assert lazy.labels() == {"a"}
        with PersistentGraph.open(directory) as reopened:
            assert reopened.labels() == {"a"}
        with PersistentGraph.open(directory) as lazy:
            lazy.checkpoint()  # a lazy checkpoint re-maps the fold
            assert not lazy.materialized and lazy.labels() == {"a"}

    def test_replica(self, tmp_path):
        with self.make(str(tmp_path / "p"), replicate=True) as store:
            feed = PrimaryFeed(store)
            replica = ReplicaGraph.bootstrap(str(tmp_path / "r"), feed)
            try:
                assert replica.labels() == {"a", "z"}
                store.remove_edge(2, "z", 3)
                replica.poll_once(feed)
                assert (replica.labels(), replica.size()) == ({"a"}, 1)
                assert replica.label_fanout("z") == (0, 0, 0)
            finally:
                replica.close()
            replica = ReplicaGraph.open(str(tmp_path / "r"))
            try:
                assert replica.labels() == {"a"}
            finally:
                replica.close()


class Deployment:
    """A primary registry serving ``g`` and a caught-up replica of it,
    one ``HttpServer`` each, driven on one event loop.  ``graph`` replaces
    :func:`base_graph` and its :func:`churn`."""

    def __init__(self, tmp_path, graph=None):
        root = tmp_path / "graphs"
        root.mkdir()
        PersistentGraph.create(str(root / NAME), graph or base_graph(),
                               name=NAME).close()
        self.registry = GraphRegistry(str(root), max_workers=2,
                                      replicate=True)
        self.primary = HttpServer(self.registry)
        handle = self.registry.acquire(NAME)
        self.registry.release(NAME)
        self.graph = handle.engine.graph
        self.store = handle.store
        feed = PrimaryFeed(self.store)
        self.replica = ReplicaGraph.bootstrap(str(tmp_path / "rep"), feed)
        if graph is None:
            churn(self.graph)
        while not self.replica.poll_once(feed)["at_end"]:
            pass
        # A poll of property records only: the view's version moves too.
        self.graph.set_vertex_property(3, "kind", "hub")
        assert self.replica.poll_once(feed)["applied"] == 1
        assert self.replica.applied_version == self.graph.version()
        self.server = ReplicaHttpServer(self.replica)
        self.loop = asyncio.new_event_loop()

    def close(self):
        try:
            self.loop.run_until_complete(self.server.stop())
            self.loop.run_until_complete(self.primary.stop())
        finally:
            self.loop.close()
            self.replica.close()


#: Label-only, endpoint-bound, interior-bound, wildcard-label, dead and
#: unknown labels, literals (one naming a vertex the graph lacks),
#: products, a big repeat, an oversized one (a 400) and a syntax error.
#: Every shape runs on the kernel on both sides.
QUERIES = [
    "[_, a, _]", "[_, a, _] . [_, b, _]*", "([_, a, _] | [_, c, _])*",
    "[_, b, _]{2}", "[0, a, _] . [_, b, _]*", "[_, a, _] . [_, b, 3]",
    "[1, b, _] . [_, a, 4]", "[_, z, _]", "[_, q, _] . [_, a, _]",
    "[_, a, _] . [5, b, _]", "[_, _, _]{1,2}", "{(0, a, 1)}",
    "{(99, a, 0)} . [_, a, _]*", "[_, a, _] & [_, b, _]",
    "[_, b, _]{17,20}", "[_, a, _]{0,100000}", "[_, a, _",
]
endpoints = st.one_of(st.none(), st.lists(
    st.sampled_from(list(range(0, 42, 3)) + [99]), max_size=4))


class TestRepliesMatchThePrimary:
    def test_replies_are_byte_identical(self, tmp_path):
        deployment = Deployment(tmp_path)

        @settings(max_examples=80, deadline=None)
        @given(query=st.sampled_from(QUERIES), sources=endpoints,
               targets=endpoints, max_length=st.sampled_from([None, None, 3]))
        def same_reply(query, sources, targets, max_length):
            body = {"query": query}
            for key, value in (("sources", sources), ("targets", targets),
                               ("max_length", max_length)):
                if value is not None:
                    body[key] = value
            primary = deployment.loop.run_until_complete(
                dispatch(deployment.primary, body))
            replica = deployment.loop.run_until_complete(
                dispatch(deployment.server, body))
            assert replica[:2] == primary[:2], (body, primary, replica)
            if primary[0] == 200:
                assert replica[2]["X-Repro-Graph-Version"] == \
                    primary[2]["X-Repro-Graph-Version"]

        try:
            same_reply()
        finally:
            deployment.close()


class TestWildcardLabel:
    def test_the_wildcard_star_runs_on_the_kernel_on_both_sides(self,
                                                                 tmp_path):
        # ``_`` is the union of the graph's labels: on the 12-cycle,
        # ``[_, _, _]*`` is every pair, as ``[_, a, _]*`` is.
        cycle = MultiRelationalGraph(
            [(i, "a", (i + 1) % 12) for i in range(12)], name=NAME)
        deployment = Deployment(tmp_path, cycle)
        try:
            engine = deployment.registry.acquire(NAME).engine
            deployment.registry.release(NAME)
            body = {"query": "[_, _, _]*"}
            assert engine.route(engine.compile(body["query"])).kernel \
                == "forward"
            primary = deployment.loop.run_until_complete(
                dispatch(deployment.primary, body))
            replica = deployment.loop.run_until_complete(
                dispatch(deployment.server, body))
            assert primary[0] == 200 and json.loads(primary[1])["count"] \
                == 144
            assert replica[:2] == primary[:2]
            assert replica[2]["X-Repro-Graph-Version"] == \
                primary[2]["X-Repro-Graph-Version"]
        finally:
            deployment.close()


class TestInteriorBinding:
    def test_an_interior_binding_runs_on_the_kernel_on_both_sides(
            self, tmp_path):
        # ``[_, a, 3]`` binds the path's second vertex: a guard, exact on
        # both sides.
        cycle = MultiRelationalGraph(
            [(i, "a", (i + 1) % 12) for i in range(12)], name=NAME)
        deployment = Deployment(tmp_path, cycle)
        try:
            body = {"query": "[_, a, 3] . [_, a, _]*"}
            primary = deployment.loop.run_until_complete(
                dispatch(deployment.primary, body))
            replica = deployment.loop.run_until_complete(
                dispatch(deployment.server, body))
            assert primary[0] == 200 and json.loads(primary[1])["count"] \
                == 12
            assert replica[:2] == primary[:2]
        finally:
            deployment.close()


class TestCountedHit:
    def test_second_identical_read_compiles_and_runs_nothing(self, tmp_path):
        deployment = Deployment(tmp_path)
        stages = (
            ("dfa", rpq_evaluation, "determinize"),
            ("forward", compact, "rpq_pairs_compact"),
            ("on-snapshot", compact, "rpq_pairs_on_snapshot"),
            ("backward", compact, "rpq_pairs_backward"),
            ("bidirectional", compact, "rpq_pairs_bidirectional"),
            ("fan-out", ParallelExecutor, "rpq_pairs"),
        )
        body = {"query": "[_, a, _] . [_, b, _]*", "sources": [0, 3]}
        try:
            with counted_calls(stages) as counts:
                status, first, _ = deployment.loop.run_until_complete(
                    dispatch(deployment.server, body))
                assert status == 200 and counts["dfa"] == 1
                assert sum(counts[kernel] for kernel in (
                    "forward", "backward", "bidirectional", "fan-out")) == 1
                counts.clear()
                status, second, _ = deployment.loop.run_until_complete(
                    dispatch(deployment.server, body))
                assert status == 200 and counts == {}
            assert json.loads(first)["cached"] is False
            assert json.loads(second)["cached"] is True
            assert json.loads(second)["pairs"] == json.loads(first)["pairs"]
        finally:
            deployment.close()


class TestReadsRacingTheTailer:
    """The tailer applies the primary's batches (a few frames a poll)
    while reads run; no read may see half a batch or file its answer
    under another version."""

    EXPRESSIONS = {
        "[_, a, _] . [_, b, _]*": lconcat(sym("a"), lstar(sym("b"))),
        "([_, a, _] | [_, c, _])*": lstar(lunion(sym("a"), sym("c"))),
    }
    #: Endpoint filters; the seed vertex varies with the step, so most
    #: reads miss the result cache and run a kernel against the tailer.
    FILTERS = [lambda k: (None, None), lambda k: ([k % 30, 2], None),
               lambda k: ([0, 4], [k % 30, 9, 12]), lambda k: (None, [1])]

    def test_each_answer_is_one_applied_version(self, tmp_path):
        with PersistentGraph.create(str(tmp_path / "p"), base_graph(),
                                    name=NAME, replicate=True) as store:
            feed = PrimaryFeed(store)
            replica = ReplicaGraph.bootstrap(str(tmp_path / "r"), feed)
            try:
                replies = self.race(store, replica, feed)
            finally:
                replica.close()
            self.check(store, replies)

    def race(self, store, replica, feed):
        server = ReplicaHttpServer(replica)
        tailer = ReplicaTailer(replica, feed, poll_interval=0.002,
                               max_bytes=300)
        stop = threading.Event()

        def write():
            graph = store.graph()
            for batch in range(120):
                for i in range(3):
                    tail = (batch * 3 + i) % 30
                    label = "abc"[(batch + i) % 3]
                    head = (tail * 11 + batch) % 30
                    if graph.has_edge(tail, label, head):
                        graph.remove_edge(tail, label, head)
                    else:
                        graph.add_edge(tail, label, head)
                store.flush()
                time.sleep(0.001)

        async def reader(index, replies):
            queries = sorted(self.EXPRESSIONS)
            step = 0
            while not stop.is_set() or step < 10:
                query = queries[(index + step) % len(queries)]
                sources, targets = self.FILTERS[step % len(self.FILTERS)](
                    index * 7 + step)
                body = {"query": query}
                if sources is not None:
                    body["sources"] = sources
                if targets is not None:
                    body["targets"] = targets
                before = replica.applied_version
                status, payload, headers = await server._dispatch(
                    "POST", PATH, {}, json.dumps(body).encode())
                assert status == 200, payload
                reported = int(headers["X-Repro-Graph-Version"])
                answer = frozenset(map(tuple, json.loads(
                    wire.encode_reply(payload)[0])["pairs"]))
                replies.append((query, sources, targets, before, reported,
                                answer))
                step += 1
                await asyncio.sleep(0.002)

        async def main():
            replies = []
            writer = threading.Thread(target=write)
            tail = threading.Thread(target=tailer.run, args=(stop,))
            writer.start()
            tail.start()
            try:
                readers = asyncio.gather(*(reader(i, replies)
                                           for i in range(4)))
                give_up = time.monotonic() + 60.0
                while writer.is_alive() \
                        or replica.applied_version < store.version():
                    assert time.monotonic() < give_up, "the tailer stalled"
                    await asyncio.sleep(0.005)
                stop.set()
                await readers
            finally:
                stop.set()
                writer.join(timeout=60.0)
                tail.join(timeout=60.0)
                await server.stop()
            assert not writer.is_alive() and not tail.is_alive()
            return replies

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave applies and reads finely
        try:
            return asyncio.run(main())
        finally:
            sys.setswitchinterval(interval)

    def check(self, store, replies):
        """Replay the log onto the base graph, answering at each version."""
        graph = base_graph()
        entries = list(store.segments.iter_entries())
        versions = [graph.version()] + [int(entry[0]) for entry in entries]
        reference = {}

        def answer_at(position, query, sources, targets):
            key = (position, query, None if sources is None
                   else tuple(sources), None if targets is None
                   else tuple(targets))
            if key not in reference:
                pairs = rpq_pairs_basic(
                    states[position], self.EXPRESSIONS[query],
                    None if sources is None else frozenset(sources))
                reference[key] = frozenset(
                    pair for pair in pairs
                    if targets is None or pair[1] in targets)
            return reference[key]

        states = [graph.copy()]
        for entry in entries:
            op = entry[1]
            if op == "+e":
                graph.add_edge(entry[2], entry[3], entry[4])
            elif op == "-e":
                graph.remove_edge(entry[2], entry[3], entry[4])
            states.append(graph.copy())
        for query, sources, targets, before, reported, answer in replies:
            assert before <= reported and reported in versions, \
                (before, reported)
            assert answer_at(versions.index(reported), query, sources,
                             targets) == answer, \
                (query, sources, targets, before, reported)
        assert len(replies) >= 40
        assert versions[-1] > versions[0] + 100
