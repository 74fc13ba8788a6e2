"""A read's memos are the engine's, and a reply names its answer's version.

``Engine`` owns three memos — ``compile`` (PathQL text -> normalized AST),
``preflight`` (``(label expression, label alphabet)`` -> minimal DFA and
verdict) and ``statistics`` (graph version -> ``GraphStatistics``) — each
a ``functools.lru_cache``; the service tier keeps none of its own.  Gates:

* **race** — threads sharing one engine's pre-flight memo, with more
  label expressions than it holds, never raise, and every call is one
  hit or one miss;
* **counted** — a served hit and a served miss on a query text already
  seen parse, normalize and determinize nothing; ``statistics()`` builds
  one ``GraphStatistics`` per version;
* **version** — a primary's ``/query`` reply (a miss, a hit, a batch)
  reports the version its answer is exact at, even when a write commits
  before the reply; a ``/mutate`` or ``/checkpoint`` reply, in its body
  and its header, the version its own write left, with eight writes in
  flight.
"""

import asyncio
import json
import sys
import threading

import pytest
from counting import counted_calls

from repro.concurrency import tracking_scope, witness_scope
from repro.engine import Engine, QueryCache
from repro.engine import engine as engine_module
from repro.engine import rewrite
from repro.graph.graph import MultiRelationalGraph
from repro.rpq import evaluation as rpq_evaluation
from repro.rpq import lconcat, lstar, lunion, sym
from repro.service import AsyncEngine, GraphRegistry, HttpServer, wire
from repro.storage import PersistentGraph

QUERY = "[_, a, _] . [_, b, _]*"
PATH = "/v1/graphs/g/query"

#: What a compile or a DFA build crosses.
COMPILES = (("parse", engine_module, "parse"),
            ("normalize", rewrite, "normalize"),
            ("determinize", rpq_evaluation, "determinize"))


@pytest.fixture(autouse=True)
def concurrency_checks():
    with witness_scope() as witness, tracking_scope() as tracker:
        yield
        witness.assert_acyclic()
        tracker.assert_empty()


def small_graph(name="g"):
    graph = MultiRelationalGraph(name=name)
    for i in range(12):
        graph.add_edge(i, "a", i + 1)
        graph.add_edge(i + 1, "b", (i * 5) % 13)
    graph.add_edge(3, "c", 7)
    return graph


class TestPreflightRace:
    THREADS = 4
    CALLS = 10000
    #: Nine label expressions against a two-entry memo: most calls evict.
    EXPRESSIONS = [sym("a"), sym("b"), sym("c"), lstar(sym("a")),
                   lstar(sym("b")), lconcat(sym("a"), sym("b")),
                   lconcat(sym("b"), sym("a")), lunion(sym("a"), sym("c")),
                   lconcat(sym("a"), lstar(sym("b")))]

    def test_threads_sharing_an_evicting_memo_never_raise(self, monkeypatch):
        monkeypatch.setattr(Engine, "_DFA_CACHE_CAP", 2)
        engine = Engine(small_graph())
        errors = []
        start = threading.Barrier(self.THREADS, timeout=60.0)

        def read(offset):
            try:
                start.wait()
                for call in range(self.CALLS):
                    engine.preflight(self.EXPRESSIONS[
                        (offset + call * 7) % len(self.EXPRESSIONS)])
            except Exception as error:  # a dead reader is the failure
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave lookups and evictions
        try:
            threads = [threading.Thread(target=read, args=(index,))
                       for index in range(self.THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        hits, misses, entries = engine.dfa_cache_info()
        assert hits + misses == self.THREADS * self.CALLS
        assert entries <= 2
        assert engine.cache_stats()["dfa_cache"]["capacity"] == 2


class TestCountedMemos:
    def test_a_served_hit_and_a_seen_miss_compile_nothing(self):
        async def run():
            engine = Engine(small_graph(), cache=QueryCache(capacity=8))
            async with AsyncEngine(engine, max_workers=2) as service:
                first = await service.served_pairs(QUERY, sources=[0])
                assert first.cached is False
                with counted_calls(COMPILES) as hit_counts:
                    hit = await service.served_pairs(QUERY, sources=[0])
                assert hit.cached is True and hit.answer is first.answer
                with counted_calls(COMPILES) as miss_counts:
                    miss = await service.served_pairs(QUERY, sources=[1])
                assert miss.cached is False
                assert miss.answer == engine.pairs(QUERY, sources=[1])
            return hit_counts, miss_counts
        hit_counts, miss_counts = asyncio.run(run())
        assert hit_counts == {}
        assert miss_counts == {}

    def test_engine_pairs_parses_a_text_once(self):
        engine = Engine(small_graph())
        with counted_calls(COMPILES) as counts:
            for sources in ([0], [1], [2], None):
                engine.pairs(QUERY, sources=sources)
        assert counts == {"parse": 1, "normalize": 1, "determinize": 1}
        assert engine.compile(QUERY) is engine.compile(QUERY)

    def test_statistics_is_built_once_per_version(self):
        graph = small_graph()
        engine = Engine(graph)
        with counted_calls((("statistics", engine_module,
                             "GraphStatistics"),)) as counts:
            first = engine.statistics()
            for _ in range(5):
                assert engine.statistics() is first
            graph.add_edge(0, "c", 5)
            second = engine.statistics()
            assert second is not first and engine.statistics() is second
        assert counts == {"statistics": 2}


class TestReplyVersion:
    BODIES = ({"query": QUERY}, {"query": QUERY}, {"queries": [QUERY, QUERY]})

    def test_a_write_before_the_reply_is_not_reported(self, tmp_path):
        root = tmp_path / "graphs"
        root.mkdir()
        PersistentGraph.create(str(root / "g"), small_graph(),
                               name="g").close()
        answered = []  # (version, answer) as each read returned

        async def scenario(server, handle):
            engine, service = handle.engine, handle.async_engine
            served, batch = service.served_pairs, service.served_pairs_batch

            async def write_after(result):
                # The read has its answer; a write commits before the
                # reply is framed.
                answered.append((engine.graph.version(),
                                 frozenset(engine.pairs(QUERY))))
                await service.mutate(
                    lambda g: g.add_edge(40 + len(answered), "a", 0))
                engine.pairs(QUERY)  # so the next single read is a hit
                return result

            async def served_then_write(*args, **kwargs):
                return await write_after(await served(*args, **kwargs))

            async def batch_then_write(*args, **kwargs):
                return await write_after(await batch(*args, **kwargs))

            service.served_pairs = served_then_write
            service.served_pairs_batch = batch_then_write
            replies = []
            for body in self.BODIES:
                status, payload, headers = await server._dispatch(
                    "POST", PATH, {}, json.dumps(body).encode())
                assert status == 200, payload
                replies.append((json.loads(wire.encode_reply(payload)[0]),
                                int(headers["X-Repro-Graph-Version"])))
            return replies, engine.graph.version()

        async def run():
            registry = GraphRegistry(str(root), max_workers=2)
            server = HttpServer(registry)
            handle = registry.acquire("g")
            try:
                return await scenario(server, handle)
            finally:
                registry.release("g")
                await server.stop()
        replies, final = asyncio.run(run())
        assert len(replies) == len(answered) == len(self.BODIES)
        assert [payload.get("cached") for payload, _ in replies] \
            == [False, True, None]
        for (payload, reported), (version, expected) in zip(replies,
                                                            answered):
            assert reported == version < final
            for result in payload.get("results", [payload]):
                assert frozenset(map(tuple, result["pairs"])) == expected

    def writes_in_flight(self, tmp_path, bodies, in_flight=8):
        """Dispatch ``(action, body)`` pairs through a primary, at most
        ``in_flight`` at once; returns ``(action, payload, header)``s."""
        root = tmp_path / "graphs"
        root.mkdir()
        PersistentGraph.create(str(root / "g"), small_graph(),
                               name="g").close()

        async def run():
            server = HttpServer(GraphRegistry(str(root), max_workers=2))
            gate = asyncio.Semaphore(in_flight)

            async def send(action, body):
                async with gate:
                    status, payload, headers = await server._dispatch(
                        "POST", "/v1/graphs/g/" + action, {},
                        json.dumps(body).encode())
                assert status == 200, payload
                return (action, payload,
                        int(headers["X-Repro-Graph-Version"]))
            try:
                return await asyncio.gather(
                    *(send(action, body) for action, body in bodies))
            finally:
                await server.stop()
        return asyncio.run(run())

    def test_concurrent_mutates_each_report_their_own_version(self, tmp_path):
        # Each batch adds one edge between fresh vertices, so each leaves
        # a version of its own; reading it after the writer slot is
        # released would name a later batch's instead.
        replies = self.writes_in_flight(tmp_path, [
            ("mutate", {"add_edges": [[100 + i, "a", 200 + i]]})
            for i in range(80)])
        versions = [payload["version"] for _, payload, _ in replies]
        assert [header for _, _, header in replies] == versions
        assert len(set(versions)) == 80

    def test_a_checkpoint_reports_the_version_it_folded(self, tmp_path):
        bodies = [("mutate", {"add_edges": [[100 + i, "a", 200 + i]]})
                  for i in range(40)]
        for slot in range(0, 40, 5):
            bodies.insert(slot, ("checkpoint", {}))
        replies = self.writes_in_flight(tmp_path, bodies)
        for action, payload, header in replies:
            assert header == payload["version"]
            if action == "checkpoint":
                assert payload["version"] == \
                    payload["info"]["snapshot_version"]
        assert len({payload["version"] for action, payload, _ in replies
                    if action == "mutate"}) == 40
