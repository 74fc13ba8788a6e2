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
* ``Engine.pairs`` keeps its in-process contract with a cache attached.
"""

import asyncio
import gc
import json
import pickle
import sys
import threading
from collections.abc import Set
from itertools import product

import pytest
from counting import counted_calls
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrency import tracking_scope, witness_scope
from repro.engine import Engine, QueryCache
from repro.graph.generators import uniform_random
from repro.graph.graph import MultiRelationalGraph
from repro.graph.pairs import PairBlocks
from repro.replication import PrimaryFeed, ReplicaGraph
from repro.service import AsyncEngine, GraphRegistry, HttpServer
from repro.service import wire
from repro.service.http import ReplicaHttpServer
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
        spliced = wire.encode_payload(
            dict(payload, pairs=wire.encode_pairs(answer)))
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

    def test_payload_without_a_fragment_is_plain_json(self):
        for payload in ({"status": "ok"}, {"results": []},
                        {"pairs": [[1, 2]], "count": 1},
                        {"results": [{"pairs": [[1, 2]]}]}):
            assert wire.encode_payload(payload) == \
                json.dumps(payload).encode()

    def test_fragment_is_spliced_never_stringified(self):
        body = wire.encode_payload({"count": 1, "pairs": b"[[1, 2]]",
                                    "elapsed_ms": 0.1})
        assert json.loads(body) == {"count": 1, "elapsed_ms": 0.1,
                                    "pairs": [[1, 2]]}
        assert wire.encode_payload({"pairs": b"[]"}) == b'{"pairs": []}'
        batch = wire.encode_payload({"graph": "g", "results": [
            {"query": "q1", "count": 1, "pairs": b"[[1, 2]]"},
            {"query": "q2", "count": 0, "pairs": b"[]"}]})
        assert json.loads(batch) == {"graph": "g", "results": [
            {"query": "q1", "count": 1, "pairs": [[1, 2]]},
            {"query": "q2", "count": 0, "pairs": []}]}

    def test_fragment_memo_on_plain_and_cached_answers(self, monkeypatch):
        calls = count_encodes(monkeypatch)
        plain = frozenset({(1, 2)})
        assert wire.pairs_fragment(plain) == wire.pairs_fragment(plain)
        assert len(calls) == 2  # nowhere to keep it
        cached = PairBlocks.from_pairs(plain)
        assert wire.pairs_fragment(cached) == b"[[1, 2]]"
        assert wire.pairs_fragment(cached) is cached.memo
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
            got.append(wire.pairs_fragment(answer))

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
        assert got == [expected] * 8 and answer.memo == expected


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


def reference_bytes(answer):
    return json.dumps(sorted(answer, key=wire._pair_repr),
                      default=str).encode()


class TestIntWireText:
    """An all-``int`` block answer's wire list is its sorted pair texts;
    every other answer is ``json.dumps``'d.  Same bytes either way."""

    @settings(max_examples=300, deadline=None)
    @given(answer=block_answers())
    def test_bytes_equal_the_json_encoding(self, answer):
        assert wire.encode_pairs(answer) == reference_bytes(answer)
        plain = frozenset(answer)
        assert wire.encode_pairs(plain) == reference_bytes(plain)

    @pytest.mark.parametrize("blocks", [
        [],
        [((), (1, 2), True), ((3,), (), True), ((), (), False)],
        [((7,), list(range(-12, 12)), True)],          # wide: tails once
        [(list(range(30)), (5,), True)],               # backward orientation
        [((1, 2), (3, 4), True), ((9, 8), (2 ** 64, -2 ** 63), False)],
        [((1,), (True,), True)],                       # bool is not an int
        [((False, 2), (0, 1), False)],
        [((1,), ("1", 1.0, None, (1, 2)), True)],
    ])
    def test_edge_cases(self, blocks):
        answer = PairBlocks(blocks)
        assert wire.encode_pairs(answer) == reference_bytes(answer)

    def test_empty_answers(self):
        assert wire.encode_pairs(PairBlocks(())) == b"[]"
        assert wire.encode_pairs(frozenset()) == b"[]"

    def test_all_int_encode_calls_json_dumps_zero_times(self):
        ints = PairBlocks([((7,), list(range(40)), True),
                           ([1, 2, 3], [9, 8, 2 ** 64], False)])
        mixed = PairBlocks([((7,), list(range(40)), True),
                            ((1,), (True,), True)])
        for answer, dumps in ((ints, 0), (mixed, 1)):
            with counted_calls([("dumps", json, "dumps")]) as counts:
                encoded = wire.encode_pairs(answer)
            assert counts["dumps"] == dumps
            assert encoded == reference_bytes(answer)

    def test_int_path_allocates_no_container_per_pair(self):
        """As for the ``json.dumps`` path: the pair texts are strings,
        which the collector does not track, so a 5000-pair encode stays
        under the young-generation threshold."""
        answer = PairBlocks([((i,), tuple(range(i, i + 50)), True)
                             for i in range(50)]
                            + [(tuple(range(2500)),
                                tuple(range(2500, 5000)), False)])
        assert wire.encode_pairs(answer) == reference_bytes(answer)
        gc.collect()
        before = gc.get_stats()[0]["collections"]
        wire.encode_pairs(answer)
        assert gc.get_stats()[0]["collections"] == before


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
                    assert hit.fragment is first.answer.memo
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
            for _ in range(2):  # a replica keeps no result cache
                status, reply = await post(server, path, {"query": QUERY})
                assert status == 200
                assert set(reply) == {"graph", "tenant", "replica", "query",
                                      "count", "pairs", "elapsed_ms"}
                assert reply["replica"] is True
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
            status, _ = await post(server, path,
                                   {"query": QUERY, "max_length": 3})
            assert status == 400
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
        fragment = wire.pairs_fragment(answer)
        assert fragment.count(b"], [") + 1 == len(answer)
        members = sum(len(firsts) + len(seconds)
                      for firsts, seconds, _ in answer.blocks)
        assert members * 50 < len(answer)
        again = engine.cached_pairs("([_, a, _] | [_, b, _])* . [_, c, _]")
        assert again is answer and wire.pairs_fragment(again) is fragment
        assert len(calls) == 1 and not answer.materialised

    def test_memo_survives_with_the_entry_and_pickles(self):
        engine = Engine(chain_graph(), cache=QueryCache(capacity=4))
        answer = engine.pairs("[_, b, _]")
        fragment = wire.pairs_fragment(answer)
        assert engine.cached_pairs("[_, b, _]").memo is fragment
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
