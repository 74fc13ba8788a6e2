"""The wire path: a cached answer is sorted and encoded once.

What this file pins down:

* the bytes on the wire are what ``json.dumps`` of the old inline
  ``sorted(map(list, answer), key=repr)`` payload produced — same order,
  same spelling, ``pairs`` a JSON *list* — for single, batch, primary and
  replica replies (only the envelope's key order may differ),
* a cached answer is encoded once, in the worker thread that computed it,
  and the bytes die with the cache entry (a mutation can never be served
  stale bytes),
* ``cached`` is reported with the answer (a computed answer never says
  ``true``, whatever other connections do meanwhile) and one served
  request is one hit or one miss in the cache statistics,
* a warm hit does not normalize the compiled expression again,
* ``Engine.pairs`` keeps its in-process contract with a cache attached,
* a request that negotiates blocks gets the answer's blocks whenever its
  endpoints round-trip through JSON exactly — the same set, decoded by
  the SDK's decoder, as the flat reply — and the flat bytes otherwise;
  a negotiated miss encodes the blocks once in the worker, a hit nothing,
* the error contract: every row of ``wire.ERROR_CONTRACT`` as the server
  sends it and as the SDK acts on it.
"""

import asyncio
import gc
import json
import pickle
import re
import socket
import sys
import threading
from collections.abc import Set
from itertools import chain, product

import pytest
from counting import counted_calls
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrency import tracking_scope, witness_scope
from repro.engine import Engine, QueryCache
from repro.errors import (
    AuthenticationError,
    DeadlineExceededError,
    OverloadedError,
    PathQLSyntaxError,
    QuotaExceededError,
    RemoteQueryError,
    ReplicaReadOnlyError,
    ReplicaStaleError,
    ReplicationCorruptionError,
    ReplicationCursorGapError,
    ReplicationError,
    StoreDegradedError,
    UnknownGraphError,
    WildcardIdError,
    WireProtocolError,
)
from repro.graph.generators import uniform_random
from repro.graph.graph import MultiRelationalGraph
from repro.graph.pairs import PairBlocks
from repro.replication import PrimaryFeed, ReplicaGraph
from repro.service import AsyncEngine, GraphRegistry, HttpServer
from repro.service import wire
from repro.service.client import RemoteFeed, ReproClient, _read_reply
from repro.service.http import _STATUS_TEXT as STATUS_TEXT, ReplicaHttpServer
from repro.storage import PersistentGraph

CHAIN = 40
QUERY = "[_, a, _] . [_, a, _]*"


@pytest.fixture(autouse=True)
def concurrency_checks():
    with witness_scope() as witness, tracking_scope() as tracker:
        yield
        witness.assert_acyclic()
        tracker.assert_empty()


def chain_graph(name="chain"):
    graph = MultiRelationalGraph(name=name)
    for i in range(CHAIN):
        graph.add_edge(i, "a", i + 1)
    graph.add_edge(0, "b", CHAIN)
    return graph


def legacy_pairs(answer):
    """The list the HTTP tier used to build inline on every response."""
    return sorted(map(list, answer), key=repr)


def legacy_bytes(answer):
    return json.dumps(legacy_pairs(answer), default=str).encode()


def legacy_decoded(payload):
    return json.loads(json.dumps(payload, default=str))


class NullWriter:
    """Swallows a response; keeps the bytes for inspection."""

    def __init__(self):
        self.data = b""

    def write(self, data):
        self.data += data

    async def drain(self):
        pass


async def post(server, path, body):
    """One request through ``_dispatch`` + ``_respond``; the decoded body."""
    status, payload, extra = await server._dispatch(
        "POST", path, {}, json.dumps(body).encode())
    writer = NullWriter()
    await server._respond(writer, status, payload, extra)
    head, _, data = writer.data.partition(b"\r\n\r\n")
    assert "Content-Length: {}".format(len(data)).encode() in head
    return status, json.loads(data)


@pytest.fixture
def store_root(tmp_path):
    root = tmp_path / "graphs"
    root.mkdir()
    PersistentGraph.create(str(root / "alpha"), chain_graph("alpha"),
                           name="alpha").close()
    return str(root)


def run_server(store_root, scenario):
    async def run():
        registry = GraphRegistry(store_root, max_workers=2)
        server = HttpServer(registry)
        try:
            await scenario(server, registry)
        finally:
            await server.stop()
    asyncio.run(run())


def count_encodes(monkeypatch):
    """Count (and record the thread of) every ``encode_pairs`` call."""
    calls = []
    original = wire.encode_pairs

    def counting(answer):
        calls.append(threading.current_thread())
        return original(answer)

    monkeypatch.setattr(wire, "encode_pairs", counting)
    return calls


INTS = st.integers(min_value=-2 ** 70, max_value=2 ** 70)
MIXED = st.one_of(INTS, st.booleans(), st.text(max_size=3),
                  st.floats(allow_nan=False), st.none(),
                  st.tuples(st.integers(0, 3), st.integers(0, 3)))


@st.composite
def block_answers(draw):
    """A ``PairBlocks`` of random disjoint crossed and zip blocks, its
    endpoints all ``int`` (half the time) or drawn from every kind."""
    vertices = INTS if draw(st.booleans()) else MIXED
    seen, blocks = set(), []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            firsts = draw(st.lists(vertices, max_size=4, unique=True))
            seconds = draw(st.lists(vertices, max_size=12, unique=True))
            pairs = set(product(firsts, seconds))
            if pairs & seen:
                continue
            blocks.append((firsts, seconds, True))
        else:
            pairs = set(draw(st.lists(st.tuples(vertices, vertices),
                                      max_size=12))) - seen
            blocks.append(([f for f, _ in pairs], [h for _, h in pairs],
                           False))
        seen |= pairs
    return PairBlocks(blocks)


class TestEncoding:
    def test_order_and_spelling_are_the_old_inline_ones(self):
        answer = frozenset({(7, 12), (7, 1), (10, 2), (1, 7)})
        assert wire.encode_pairs(answer) == \
            json.dumps(legacy_pairs(answer)).encode()
        # repr order, not natural order: "[7, 12]" < "[7, 1]".
        assert json.loads(wire.encode_pairs(answer)) == \
            [[1, 7], [10, 2], [7, 12], [7, 1]]

    def test_mixed_and_non_json_native_vertices(self):
        answer = frozenset({(1, "1"), ("b", 2), (b"raw", 3), (2.5, None),
                            ((1, 2), "t")})
        assert wire.encode_pairs(answer) == json.dumps(
            legacy_pairs(answer), default=str).encode()
        payload = {"graph": "g", "count": len(answer), "when": b"x"}
        spliced = wire.encode_reply(
            dict(payload, pairs=wire.encode_pairs(answer)))[0]
        assert json.loads(spliced) == legacy_decoded(
            dict(payload, pairs=legacy_pairs(answer)))

    def test_encoding_allocates_no_container_per_pair(self):
        """A list per pair is a GC-tracked allocation per pair; in the
        server those schedule the full collections that walk every cached
        answer.  Counted, not timed: a 5000-pair encode stays under the
        young-generation threshold (the old inline form passed it 7x)."""
        answer = frozenset((i, i * 7 % 1501) for i in range(5000))
        assert wire.encode_pairs(answer) == \
            json.dumps(legacy_pairs(answer)).encode()
        gc.collect()
        before = gc.get_stats()[0]["collections"]
        wire.encode_pairs(answer)
        assert gc.get_stats()[0]["collections"] == before

    @settings(max_examples=300, deadline=None)
    @given(answer=block_answers())
    def test_bytes_equal_the_json_encoding(self, answer):
        assert wire.encode_pairs(answer) == legacy_bytes(answer)
        plain = frozenset(answer)
        assert wire.encode_pairs(plain) == legacy_bytes(plain)

    @pytest.mark.parametrize("blocks", [
        [],
        [((), (1, 2), True), ((3,), (), True), ((), (), False)],
        [((7,), list(range(-12, 12)), True)],
        [(list(range(30)), (5,), True)],               # backward orientation
        [((1, 2), (3, 4), True), ((9, 8), (2 ** 64, -2 ** 63), False)],
        [((1,), (True,), True)],                       # bool is not an int
        [((False, 2), (0, 1), False)],
        [((1,), ("1", 1.0, None, (1, 2)), True)],
    ])
    def test_edge_cases(self, blocks):
        answer = PairBlocks(blocks)
        assert wire.encode_pairs(answer) == legacy_bytes(answer)

    def test_empty_answers(self):
        assert wire.encode_pairs(PairBlocks(())) == b"[]"
        assert wire.encode_pairs(frozenset()) == b"[]"

    def test_payload_without_a_fragment_is_plain_json(self):
        for payload in ({"status": "ok"}, {"results": []},
                        {"pairs": [[1, 2]], "count": 1},
                        {"results": [{"pairs": [[1, 2]]}]}):
            assert wire.encode_reply(payload)[0] == \
                json.dumps(payload).encode()

    def test_fragment_is_spliced_never_stringified(self):
        body = wire.encode_reply({"count": 1, "pairs": b"[[1, 2]]",
                                  "elapsed_ms": 0.1})[0]
        assert json.loads(body) == {"count": 1, "elapsed_ms": 0.1,
                                    "pairs": [[1, 2]]}
        assert wire.encode_reply({"pairs": b"[]"})[0] == b'{"pairs": []}'
        batch = wire.encode_reply({"graph": "g", "results": [
            {"query": "q1", "count": 1, "pairs": b"[[1, 2]]"},
            {"query": "q2", "count": 0, "pairs": b"[]"}]})[0]
        assert json.loads(batch) == {"graph": "g", "results": [
            {"query": "q1", "count": 1, "pairs": [[1, 2]]},
            {"query": "q2", "count": 0, "pairs": []}]}

    def test_fragment_memo_on_plain_and_cached_answers(self, monkeypatch):
        calls = count_encodes(monkeypatch)
        plain = frozenset({(1, 2)})
        assert wire.serve_pairs(plain).fragment == \
            wire.serve_pairs(plain).fragment
        assert len(calls) == 2  # nowhere to keep it
        cached = PairBlocks.from_pairs(plain)
        assert wire.serve_pairs(cached).fragment == b"[[1, 2]]"
        assert wire.serve_pairs(cached).fragment is cached.memo["pairs"]
        assert len(calls) == 3

    def test_racing_fillers_agree(self):
        """Loop and workers may fill one memo at once: no lock, because
        every filler stores equal bytes and every reader gets them."""
        answer = PairBlocks.from_pairs(
            (i, (i * 7) % 500) for i in range(500))
        expected = wire.encode_pairs(answer)
        got, start = [], threading.Barrier(8)

        def fill():
            start.wait(5)
            got.append(wire.serve_pairs(answer).fragment)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fill) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert got == [expected] * 8 and answer.memo["pairs"] == expected


class TestServedReads:
    def test_miss_then_hits_encode_once_in_the_worker(self, store_root,
                                                      monkeypatch):
        calls = count_encodes(monkeypatch)

        async def scenario(server, registry):
            path = "/v1/graphs/alpha/query"
            status, miss = await post(server, path, {"query": QUERY})
            assert status == 200 and miss["cached"] is False
            hits = [(await post(server, path, {"query": QUERY}))[1]
                    for _ in range(5)]
            assert len(calls) == 1
            assert calls[0] is not threading.main_thread()
            answer = registry.acquire("alpha").engine.pairs(QUERY)
            registry.release("alpha")
            assert isinstance(miss["pairs"], list)
            assert miss["pairs"] == legacy_pairs(answer)
            assert miss["count"] == len(answer) == len(miss["pairs"])
            assert set(miss) == {"graph", "tenant", "query", "count",
                                 "cached", "pairs", "elapsed_ms"}
            for hit in hits:
                assert hit["cached"] is True
                for volatile in ("cached", "elapsed_ms"):
                    hit.pop(volatile)
                assert hit == {k: v for k, v in miss.items()
                               if k not in ("cached", "elapsed_ms")}
        run_server(store_root, scenario)

    def test_mutation_drops_the_entry_and_its_bytes(self, store_root):
        async def scenario(server, registry):
            path = "/v1/graphs/alpha/query"
            _, before = await post(server, path, {"query": "[_, b, _]"})
            _, again = await post(server, path, {"query": "[_, b, _]"})
            assert again["cached"] is True
            assert len(registry._cache) == 1
            status, _ = await post(server, "/v1/graphs/alpha/mutate",
                                   {"add_edges": [[1, "b", 2]]})
            assert status == 200
            _, after = await post(server, path, {"query": "[_, b, _]"})
            assert after["cached"] is False
            assert before["pairs"] == [[0, CHAIN]]
            assert after["pairs"] == [[0, CHAIN], [1, 2]]
            # Only the live version's entry is left: the old answer and
            # the bytes in its memo went together.
            assert len(registry._cache) == 1
            assert registry._cache.stats()["entries"] == 1
        run_server(store_root, scenario)

    def test_batch_reply_keeps_its_shape(self, store_root, monkeypatch):
        calls = count_encodes(monkeypatch)

        async def scenario(server, registry):
            queries = ["[_, b, _]", QUERY, "[_, zz, _]"]
            status, reply = await post(
                server, "/v1/graphs/alpha/query", {"queries": queries})
            assert status == 200
            assert set(reply) == {"graph", "tenant", "results",
                                  "elapsed_ms"}
            engine = Engine(chain_graph())
            for query, result in zip(queries, reply["results"]):
                assert set(result) == {"query", "count", "pairs"}
                assert result["query"] == query
                assert result["pairs"] == legacy_pairs(engine.pairs(query))
                assert result["count"] == len(result["pairs"])
            assert reply["results"][2]["pairs"] == []
            # The batch memoised its answers: the same queries served
            # one by one are hits that encode nothing.
            encoded = len(calls)
            for query in queries[:2]:
                _, single = await post(
                    server, "/v1/graphs/alpha/query", {"query": query})
                assert single["cached"] is True
            assert len(calls) == encoded
            _, empty = await post(
                server, "/v1/graphs/alpha/query", {"queries": []})
            assert empty["results"] == []
        run_server(store_root, scenario)

    def test_sources_targets_reply_matches_legacy(self, store_root):
        async def scenario(server, registry):
            body = {"query": QUERY, "sources": [3, 30], "targets": [35, 5]}
            _, reply = await post(server, "/v1/graphs/alpha/query", body)
            expected = Engine(chain_graph()).pairs(
                QUERY, sources=frozenset([3, 30]),
                targets=frozenset([35, 5]))
            assert reply["pairs"] == legacy_pairs(expected) \
                == [[3, 35], [3, 5], [30, 35]]
        run_server(store_root, scenario)

    def test_uncached_registry_still_serves(self, store_root, monkeypatch):
        calls = count_encodes(monkeypatch)

        async def run():
            registry = GraphRegistry(store_root, max_workers=2,
                                     cache_capacity=0)
            server = HttpServer(registry)
            try:
                for _ in range(2):
                    _, reply = await post(
                        server, "/v1/graphs/alpha/query", {"query": QUERY})
                    assert reply["cached"] is False
                    assert reply["count"] == len(reply["pairs"]) > 0
                # No cache, no memo: each answer is encoded — off the loop.
                assert len(calls) == 2
                assert threading.main_thread() not in calls
            finally:
                await server.stop()
        asyncio.run(run())


class TestCachedFlagAndCounters:
    def test_computed_answer_never_reports_cached(self, store_root):
        """One slow miss in the executor, hits landing meanwhile."""
        async def scenario(server, registry):
            path = "/v1/graphs/alpha/query"
            await post(server, path, {"query": "[_, b, _]"})  # warm the hit
            handle = registry.acquire("alpha")
            registry.release("alpha")
            release = threading.Event()
            original = handle.engine.pairs

            def slow_pairs(*args, **kwargs):
                release.wait(10)
                return original(*args, **kwargs)

            handle.engine.pairs = slow_pairs
            try:
                miss = asyncio.ensure_future(
                    post(server, path, {"query": QUERY}))
                while handle.async_engine._active_readers == 0:
                    await asyncio.sleep(0.005)
                for _ in range(20):
                    _, hit = await post(server, path, {"query": "[_, b, _]"})
                    assert hit["cached"] is True
            finally:
                release.set()
            status, reply = await miss
            assert status == 200 and reply["count"] > 0
            assert reply["cached"] is False
        run_server(store_root, scenario)

    def test_one_request_is_one_lookup_outcome(self, store_root):
        async def scenario(server, registry):
            path = "/v1/graphs/alpha/query"
            plan = [("[_, b, _]", False), ("[_, b, _]", True),
                    (QUERY, False), ("[_, b, _]", True), (QUERY, True)]
            for query, cached in plan:
                _, reply = await post(server, path, {"query": query})
                assert reply["cached"] is cached
            stats = registry._cache.stats()
            assert (stats["hits"], stats["misses"]) == (3, 2)
            assert stats["hits"] + stats["misses"] == len(plan)
        run_server(store_root, scenario)

    def test_warm_hit_does_not_normalize_again(self, monkeypatch):
        import repro.engine.rewrite as rewrite
        normalized = []
        original = rewrite.normalize

        def counting(expression):
            normalized.append(expression)
            return original(expression)

        monkeypatch.setattr(rewrite, "normalize", counting)

        async def run():
            engine = Engine(chain_graph(), cache=QueryCache(capacity=8))
            async with AsyncEngine(engine, max_workers=2) as service:
                first = await service.served_pairs(QUERY, sources=[0])
                assert first.cached is False and normalized
                del normalized[:]
                for _ in range(3):
                    hit = await service.served_pairs(QUERY, sources=[0])
                    assert hit.cached is True
                    assert hit.fragment is first.answer.memo["pairs"]
                assert await service.pairs(QUERY, sources=[0]) \
                    == first.answer
                assert normalized == []
        asyncio.run(run())


class TestReplicaReplies:
    def test_single_and_batch_keep_their_shape(self, tmp_path):
        store = PersistentGraph.create(str(tmp_path / "g"), chain_graph("g"),
                                       name="g", replicate=True)
        try:
            replica = ReplicaGraph.bootstrap(str(tmp_path / "rep"),
                                             PrimaryFeed(store))
            try:
                self.check(ReplicaHttpServer(replica), store.graph())
            finally:
                replica.close()
        finally:
            store.close()

    def check(self, server, graph):
        engine = Engine(graph)

        async def scenario():
            path = "/v1/graphs/g/query"
            for repeat in range(2):  # the repeat is a result-cache hit
                status, reply = await post(server, path, {"query": QUERY})
                assert status == 200
                assert set(reply) == {"graph", "tenant", "replica", "query",
                                      "count", "cached", "pairs",
                                      "elapsed_ms"}
                assert reply["replica"] is True
                assert reply["cached"] is (repeat == 1)
                assert reply["pairs"] == legacy_pairs(engine.pairs(QUERY))
                assert reply["count"] == len(reply["pairs"])
            queries = [QUERY, "[0, b, _]"]
            status, reply = await post(
                server, path, {"queries": queries, "sources": [0, 1]})
            assert status == 200
            assert set(reply) == {"graph", "tenant", "replica", "results",
                                  "elapsed_ms"}
            for query, result in zip(queries, reply["results"]):
                assert set(result) == {"query", "count", "pairs"}
                assert result["pairs"] == legacy_pairs(engine.pairs(
                    query, sources=frozenset([0, 1])))
            # A bound endpoint the filter excludes: empty, no kernel run.
            _, reply = await post(server, path,
                                  {"query": "[0, b, _]", "sources": [5]})
            assert reply["pairs"] == [] and reply["count"] == 0
            # A bound runs on the replica's kernel too, exactly.
            status, reply = await post(server, path,
                                       {"query": QUERY, "max_length": 3})
            assert status == 200
            assert reply["pairs"] == legacy_pairs(engine.pairs(
                QUERY, max_length=3))
            await server.stop()
        asyncio.run(scenario())


class TestInProcessContract:
    def test_cached_engine_answer_is_still_a_frozenset(self):
        # To every reader, that is: a Set that equals, hashes like and
        # combines with the frozenset it used to be (now kept as blocks).
        graph = chain_graph()
        plain = frozenset(Engine(graph).pairs(QUERY))
        cache = QueryCache(capacity=4)
        engine = Engine(graph, cache=cache)
        for answer in (engine.pairs(QUERY), engine.pairs(QUERY),
                       engine.pairs_batch([QUERY])[0]):
            assert isinstance(answer, Set)
            assert answer == plain and plain == answer
            assert hash(answer) == hash(plain)
            assert {answer: 1}[plain] == 1
            extra = frozenset({("x", "y")})
            assert answer | extra == plain | extra
            assert extra | answer == plain | extra
            assert answer & plain == plain and answer - plain == frozenset()
            assert answer <= plain <= answer
            assert getattr(answer, "memo", None) is None
            copy = pickle.loads(pickle.dumps(answer))
            assert copy == plain and hash(copy) == hash(plain)
        assert engine.pairs(QUERY) is engine.cached_pairs(QUERY)
        with pytest.raises(AttributeError):
            engine.pairs(QUERY).anything_else = 1

    def test_dense_sweep_is_read_and_served_without_a_pair_set(
            self, monkeypatch):
        # Counted, not timed: an all-sources closure on the observatory's
        # dense graph stays the handful of blocks the sweep computed
        # through len(), a full walk and the wire encoding; the cache
        # holds that very object and its memo is filled once.
        calls = count_encodes(monkeypatch)
        graph = uniform_random(450, 3600, labels=("a", "b", "c"), seed=7)
        engine = Engine(graph, cache=QueryCache(capacity=4))
        answer = engine.pairs("([_, a, _] | [_, b, _])* . [_, c, _]")
        assert len(answer) > 100_000
        assert sum(1 for _ in answer) == len(answer)
        fragment = wire.serve_pairs(answer).fragment
        assert fragment.count(b"], [") + 1 == len(answer)
        members = sum(len(firsts) + len(seconds)
                      for firsts, seconds, _ in answer.blocks)
        assert members * 50 < len(answer)
        again = engine.cached_pairs("([_, a, _] | [_, b, _])* . [_, c, _]")
        assert again is answer
        assert wire.serve_pairs(again).fragment is fragment
        assert len(calls) == 1 and not answer.materialised

    def test_memo_survives_with_the_entry_and_pickles(self):
        engine = Engine(chain_graph(), cache=QueryCache(capacity=4))
        answer = engine.pairs("[_, b, _]")
        fragment = wire.serve_pairs(answer).fragment
        assert engine.cached_pairs("[_, b, _]").memo["pairs"] is fragment
        assert pickle.loads(pickle.dumps(answer)) == answer
        engine.cache.clear()
        assert engine.cached_pairs("[_, b, _]") is None

    def test_probe_records_hits_only(self):
        cache = QueryCache(capacity=4)
        engine = Engine(chain_graph(), cache=cache)
        assert engine.cached_pairs("[_, b, _]") is None
        assert (cache.hits, cache.misses) == (0, 0)
        engine.pairs("[_, b, _]")
        assert (cache.hits, cache.misses) == (0, 1)
        assert engine.cached_pairs("[_, b, _]") is not None
        assert (cache.hits, cache.misses) == (1, 1)
        assert Engine(chain_graph()).cached_pairs("[_, b, _]") is None


async def exchange(server, path, body, accept=None):
    """One request through ``_dispatch`` + ``_respond``, with ``accept`` as
    its ``Accept`` header: ``(status, Content-Type, body bytes)``."""
    headers = {"accept": accept} if accept is not None else {}
    status, payload, extra = await server._dispatch(
        "POST", path, headers, json.dumps(body).encode())
    writer = NullWriter()
    await server._respond(writer, status, payload, extra)
    head, _, data = writer.data.partition(b"\r\n\r\n")
    assert "Content-Length: {}".format(len(data)).encode() in head
    return status, re.search(rb"Content-Type: (\S+)", head).group(1) \
        .decode(), data


def json_exact(answer):
    """Whether every endpoint is a type JSON gives back as it was."""
    return all(type(member) in (int, str, float, bool, type(None))
               for firsts, seconds, _ in answer.blocks
               for member in chain(firsts, seconds))


def agree(flat, negotiated, answer):
    """One flat and one negotiated reply item carry the same answer; the
    negotiated one as blocks exactly when its endpoints allow it.  Returns
    whether it did."""
    assert negotiated["count"] == flat["count"] == len(answer)
    if not json_exact(answer):
        assert negotiated == flat     # the flat form, as is
        return False
    assert "pairs" not in negotiated
    decoded = wire.decode_answer(dict(negotiated))["pairs"]
    assert isinstance(decoded, PairBlocks) and len(decoded) == len(answer)
    assert decoded == {tuple(pair) for pair in flat["pairs"]} == answer
    return True


class StubReplica:
    """What ``ReplicaHttpServer`` reads of a replica when its engine's
    ``pairs`` is patched out."""

    graph_name = "g"
    applied_version = 1

    def lag(self):
        return 0, 0.0

    def version(self):
        return self.applied_version


class TestBlockReplies:
    BATCH = ["[_, a, _]", "[_, b, _]"]

    def check_server(self, server, path, serve):
        """Single and batch replies with and without the header, over
        drawn answers that ``serve(answers)`` arranges to be computed."""
        @settings(max_examples=40, deadline=None)
        @given(answers=st.lists(block_answers(), min_size=2, max_size=2))
        def negotiated_equals_flat(answers):
            async def replies(body):
                out = []
                for accept in (None, wire.BLOCKS_TYPE):
                    serve(answers)
                    status, content_type, data = await exchange(
                        server, path, body, accept)
                    assert status == 200
                    reply = json.loads(data)
                    reply.pop("elapsed_ms")
                    out.append((content_type, reply))
                return out

            (flat_type, flat), (blocks_type, negotiated) = \
                loop.run_until_complete(replies({"query": "[_, a, _]"}))
            assert flat_type == wire.JSON_TYPE
            as_blocks = agree(flat, negotiated, answers[0])
            assert blocks_type == (wire.BLOCKS_TYPE if as_blocks
                                   else wire.JSON_TYPE)
            (flat_type, flat), (blocks_type, negotiated) = \
                loop.run_until_complete(replies({"queries": self.BATCH}))
            assert flat_type == wire.JSON_TYPE
            assert flat.keys() == negotiated.keys()
            as_blocks = [agree(f, n, answer) for f, n, answer in zip(
                flat["results"], negotiated["results"], answers)]
            assert blocks_type == (wire.BLOCKS_TYPE if any(as_blocks)
                                   else wire.JSON_TYPE)

        loop = asyncio.new_event_loop()
        try:
            negotiated_equals_flat()
        finally:
            loop.run_until_complete(server.stop())
            loop.close()

    def test_primary_negotiated_reply_decodes_to_the_flat_set(
            self, store_root):
        registry = GraphRegistry(store_root, max_workers=2)
        handle = registry.acquire("alpha")
        registry.release("alpha")
        drawn = []
        # Every request misses the cache and computes the drawn answers,
        # in order: a batch is its members' pairs() reads.
        handle.engine.pairs = lambda expression, **options: drawn.pop(0)

        def serve(answers):
            drawn[:] = answers
        self.check_server(HttpServer(registry), "/v1/graphs/alpha/query",
                          serve)

    def test_replica_negotiated_reply_decodes_to_the_flat_set(self):
        server = ReplicaHttpServer(StubReplica())
        drawn = []
        # As on the primary: every request misses the cache and computes
        # the drawn answers, in order.
        server.async_engine.engine.pairs = \
            lambda expression, **options: drawn.pop(0)

        def serve(answers):
            drawn[:] = answers
        self.check_server(server, "/v1/graphs/g/query", serve)

    def test_real_answers_travel_as_blocks(self, store_root):
        async def scenario(server, registry):
            path = "/v1/graphs/alpha/query"
            engine = Engine(chain_graph())
            for body in ({"query": QUERY}, {"query": QUERY, "sources": [3]},
                         {"query": "[_, zz, _]"}):
                _, content_type, data = await exchange(
                    server, path, body, "text/html, " + wire.BLOCKS_TYPE)
                assert content_type == wire.BLOCKS_TYPE
                reply = wire.decode_answer(json.loads(data))
                assert reply["pairs"] == engine.pairs(
                    body["query"], sources=frozenset(body.get("sources",
                                                              [])) or None)
        run_server(store_root, scenario)

    def test_negotiated_hit_encodes_nothing_and_miss_encodes_blocks_once(
            self, store_root):
        def by_thread(name):
            def key(*args, **kwargs):
                main = threading.current_thread() is threading.main_thread()
                return name + (" on the loop" if main else " in a worker")
            return key

        async def scenario(server, registry):
            path = "/v1/graphs/alpha/query"
            with counted_calls([
                    (by_thread("encode_blocks"), wire, "encode_blocks"),
                    (by_thread("encode_pairs"), wire, "encode_pairs")
            ]) as counts:
                _, _, miss = await exchange(server, path, {"query": QUERY},
                                            wire.BLOCKS_TYPE)
                assert dict(counts) == {"encode_blocks in a worker": 1}
                hits = [(await exchange(server, path, {"query": QUERY},
                                        wire.BLOCKS_TYPE))[2]
                        for _ in range(3)]
                assert dict(counts) == {"encode_blocks in a worker": 1}
            assert json.loads(miss)["cached"] is False
            assert all(json.loads(hit)["cached"] is True for hit in hits)
            answer = registry.acquire("alpha").engine.cached_pairs(QUERY)
            registry.release("alpha")
            assert set(answer.memo) == {"blocks"}
            assert not answer.materialised
        run_server(store_root, scenario)

    def test_racing_fillers_of_both_forms_get_their_own_bytes(self):
        """Loop and workers may fill one memo with both forms at once:
        whoever loses the race to create the memo re-encodes, and every
        filler still gets the bytes of the form it asked for."""
        answer = PairBlocks([((i,), tuple(range(i, i + 30)), True)
                             for i in range(40)])
        expected = {"pairs": wire.encode_pairs(answer),
                    "blocks": wire.encode_blocks(answer)}
        got, start = [], threading.Barrier(8)

        def fill(blocks):
            start.wait(5)
            got.append(wire.serve_pairs(answer, blocks=blocks)[1:3])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fill, args=(i % 2 == 0,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(got) == sorted(list(expected.items()) * 4)
        assert all(answer.memo[key] == expected[key] for key in answer.memo)

    @pytest.mark.parametrize("item", [
        {"count": 1, "blocks": {"0": [1]}},
        {"count": 1, "blocks": [[[0], [1]]]},
        {"count": 1, "blocks": [[[0], [1], 1]]},
        {"count": 1, "blocks": [[0, [1], True]]},
        {"count": 1, "blocks": [[[0, 1], [1], False]]},
        {"count": 3, "blocks": [[[0], [1, 2], True]]},
        {"count": 0, "blocks": [[[0], [1], False]]},
        {"count": 2, "pairs": [[0, 1]]},
        {"count": 1, "pairs": [[0, 1, 2]]},
        {"pairs": {"0": 1}},
    ])
    def test_malformed_answer_or_wrong_count_is_a_wire_error(self, item):
        with pytest.raises(WireProtocolError):
            wire.decode_answer(item)

    def test_decoding_never_builds_a_pair(self):
        side = list(range(1000))
        item = wire.decode_answer({"count": 10 ** 6 + 3, "blocks": [
            [side, side, True], [[1, 2, 3], [4, 5, 6], False]]})
        answer = item["pairs"]
        assert len(answer) == 10 ** 6 + 3 and not answer.materialised
        flat = wire.decode_answer({"count": 2, "pairs": [[1, 2], [3, 4]]})
        assert flat["pairs"].blocks == [([1, 3], [2, 4], False)]
        assert wire.decode_answer({"graph": "g"}) == {"graph": "g"}

    @pytest.mark.parametrize("accept, wanted", [
        ("", False),
        ("application/json", False),
        (wire.BLOCKS_TYPE, True),
        ("application/json, {}; q=0.9".format(wire.BLOCKS_TYPE), True),
        (wire.BLOCKS_TYPE + "-v2", False),
    ])
    def test_accept_header_names_the_block_type(self, accept, wanted):
        assert wire.wants_blocks(accept) is wanted


def row_of(error):
    """The class whose :data:`wire.ERROR_CONTRACT` row answers ``error``."""
    return next(cls for cls in type(error).__mro__
                if cls in wire.ERROR_CONTRACT)


#: ``(error, status, body fields beyond error/retriable, headers)``: the
#: reply each error got from the ``except`` ladder the table replaced.
#: Every row of the table needs at least one example here.
CONTRACT = [
    (AuthenticationError("no token"), 401, {},
     {"WWW-Authenticate": "Bearer"}),
    (UnknownGraphError("nope"), 404, {}, {}),
    (wire.RouteNotFoundError("GET", "/nope"), 404, {}, {}),
    (wire.BadRequestError("bad body"), 400, {}, {}),
    (wire.PayloadTooLargeError("too big"), 413, {}, {}),
    (OverloadedError("shed", retry_after=0.5), 429, {"retry_after": 0.5},
     {"Retry-After": "0.5"}),
    (QuotaExceededError("t", 2, retry_after=2.0), 429, {"retry_after": 2.0},
     {"Retry-After": "2"}),
    (DeadlineExceededError(0.01, phase="queued"), 504, {"phase": "queued"},
     {}),
    (ReplicaReadOnlyError("/replica"), 403,
     {"replica": True, "read_only": True}, {}),
    (ReplicationCursorGapError("0:0", "3"), 410,
     {"rebootstrap": True, "cursor": "0:0", "first_retained": "3"}, {}),
    (ReplicaStaleError(7, 1.5, 100, retry_after=0.25), 503,
     {"stale": True, "lag_records": 7, "lag_seconds": 1.5,
      "retry_after": 0.25},
     {"Retry-After": "0.25",
      "X-Repro-Replica-Lag": "records=7; seconds=1.500"}),
    (ReplicationCorruptionError("segment 1"), 500,
     {"type": "ReplicationCorruptionError"}, {}),
    (ReplicationError("ship fault"), 503, {"retry_after": 1},
     {"Retry-After": "1"}),
    (StoreDegradedError("/store", "fsync", retry_after=3.0), 503,
     {"degraded": True, "retry_after": 3.0}, {"Retry-After": "3"}),
    (PathQLSyntaxError("bad token", 1, "[$"), 400,
     {"type": "PathQLSyntaxError"}, {}),
    (WildcardIdError("label"), 400, {"type": "WildcardIdError"}, {}),
    (RuntimeError("boom"), 500, {"type": "RuntimeError"}, {}),
]
CONTRACT_IDS = [type(error).__name__ for error, *_ in CONTRACT]


class TestErrorContract:
    """The one table both sides import: what the server sends for each
    error class, and what the SDK does with that reply."""

    def test_every_row_has_an_example(self):
        assert {row_of(error) for error, *_ in CONTRACT} == \
            set(wire.ERROR_CONTRACT)

    @staticmethod
    def reply(error):
        """``error`` raised from a stubbed route, through ``_dispatch``
        and ``_respond``: ``(status, body, headers, raw reply bytes)``."""
        async def route(method, path, headers, body):
            raise error

        async def run():
            server = HttpServer(None)
            server._route = route
            status, body, headers = await server._dispatch(
                "GET", "/v1/graphs/g/stats", {}, b"")
            writer = NullWriter()
            await server._respond(writer, status, body, headers)
            return status, body, headers, writer.data
        return asyncio.run(run())

    @staticmethod
    def sdk_reads(raw):
        """``raw`` as the SDK's own framing reads it off a socket:
        ``(status, lowercase headers, body)``."""
        ours, theirs = socket.socketpair()
        with ours, theirs:
            ours.sendall(raw)
            ours.shutdown(socket.SHUT_WR)
            return _read_reply(theirs)[:3]

    @pytest.mark.parametrize("error, status, fields, headers", CONTRACT,
                             ids=CONTRACT_IDS)
    def test_server_reply(self, error, status, fields, headers):
        got, body, extra, raw = self.reply(error)
        assert got == status
        assert raw.startswith("HTTP/1.1 {} {}\r\n".format(
            status, STATUS_TEXT[status]).encode())
        retriable = status in (429, 503, 504)
        assert retriable is (status in wire.RETRIABLE_STATUSES)
        assert body == dict({"error": str(error), "retriable": retriable},
                            **fields)
        assert extra == headers
        assert ("Retry-After" in extra) is ("retry_after" in body)
        _, sent_headers, sent_body = self.sdk_reads(raw)
        assert json.loads(sent_body) == json.loads(json.dumps(body))
        for name, value in headers.items():
            assert sent_headers[name.lower()] == value

    @pytest.mark.parametrize("error, status, fields, headers", CONTRACT,
                             ids=CONTRACT_IDS)
    def test_sdk_reads_the_reply_the_way_it_was_meant(self, error, status,
                                                      fields, headers):
        _, body, _, raw = self.reply(error)
        answers = [self.sdk_reads(raw), (200, {}, b'{"graphs": ["g"]}')]
        slept = []
        client = ReproClient("http://127.0.0.1:1", backoff_base=0.001,
                             jitter_seed=1, sleeper=slept.append,
                             transport=lambda *request: answers.pop(0))
        # An idempotent call retries exactly the retriable replies, with
        # Retry-After as the floor of its backoff (and no floor without).
        if body["retriable"]:
            assert client.list_graphs() == ["g"] and len(slept) == 1
            if "retry_after" in body:
                assert slept[0] == pytest.approx(body["retry_after"])
            else:
                assert slept[0] <= 0.001
        else:
            with pytest.raises(RemoteQueryError) as refused:
                client.list_graphs()
            assert (refused.value.status, refused.value.payload) == \
                (status, body)
            assert slept == []
        # The replication feed: a gap re-bootstraps, a transient failure
        # polls again, anything else is the caller's error.
        feed = RemoteFeed(ReproClient(
            "http://127.0.0.1:1",
            transport=lambda *request: self.sdk_reads(raw)))
        expected = ReplicationCursorGapError if status == 410 else \
            ReplicationError if body["retriable"] else RemoteQueryError
        with pytest.raises(expected) as failed:
            feed.wal("0:0")
        assert type(failed.value) is expected
        if expected is ReplicationCursorGapError:
            assert failed.value.retained == "3"
