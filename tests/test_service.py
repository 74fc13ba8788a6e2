"""The async query service tier: AsyncEngine, GraphRegistry, HTTP server.

The acceptance bar this file enforces:

* deadlines expire cleanly in every phase (queued, running, batch) and an
  expired or cancelled query never poisons the shared executor — the very
  next query on the same engine succeeds,
* reader/writer exclusivity: concurrent clients querying while a third
  mutates and checkpoints always observe an answer consistent with *some*
  graph version (never a torn half-mutation view),
* admission control sheds at the queue-depth bound (retriable 429
  semantics) and per-tenant quotas cap in-flight work,
* the HTTP tier round-trips queries and maps every service error onto the
  documented status codes (401/404/400/429/504) with backoff headers,
* the loop-side result-cache fast path answers repeated queries without
  an executor round trip and invalidates on mutation.

No pytest-asyncio in the container: each test drives its own loop with
``asyncio.run``.
"""

import asyncio
import json
import time

import pytest
from counting import counted_calls

from repro.concurrency import tracking_scope, witness_scope
from repro.engine import Engine, QueryCache
from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    QuotaExceededError,
    ServiceError,
    UnknownGraphError,
)
from repro.graph.graph import MultiRelationalGraph
from repro.service import AsyncEngine, Deadline, GraphRegistry, HttpServer
from repro.storage import PersistentGraph

CHAIN = 12


@pytest.fixture(autouse=True)
def concurrency_checks():
    """Every service test runs under the armed lock-order witness and
    leak registry: teardown must leave the acquisition graph acyclic and
    every executor/store/WAL the test opened released."""
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


def make_async_engine(graph=None, **kwargs):
    kwargs.setdefault("max_workers", 2)
    engine = Engine(graph if graph is not None else chain_graph(),
                    cache=QueryCache(capacity=16))
    return AsyncEngine(engine, **kwargs)


def slow_down(engine, delay):
    """Wrap ``engine.pairs`` so every evaluation takes >= ``delay``."""
    original = engine.pairs

    def slow_pairs(*args, **kwargs):
        time.sleep(delay)
        return original(*args, **kwargs)

    engine.pairs = slow_pairs


class TestDeadline:
    def test_validation_and_states(self):
        with pytest.raises(ServiceError):
            Deadline(0)
        unbounded = Deadline(None)
        assert unbounded.remaining() is None and not unbounded.expired()
        unbounded.cancel()
        with pytest.raises(DeadlineExceededError) as exc:
            unbounded.check()
        assert exc.value.phase == "cancelled"

    def test_expiry(self):
        budget = Deadline(0.005)
        time.sleep(0.02)
        assert budget.expired() and budget.remaining() == 0.0
        with pytest.raises(DeadlineExceededError) as exc:
            budget.check(phase="queued")
        assert exc.value.phase == "queued"


class TestAsyncEngine:
    def test_pairs_matches_blocking_engine(self):
        async def run():
            async with make_async_engine() as service:
                got = await service.pairs("[_, a, _] . [_, a, _]",
                                          sources=[0])
                assert got == service.engine.pairs(
                    "[_, a, _] . [_, a, _]", sources=[0])
                batch = await service.pairs_batch(["[_, a, _]", "[_, b, _]"])
                assert batch[1] == frozenset({(0, CHAIN)})
        asyncio.run(run())

    def test_uncached_read_is_one_hop_one_pairs_one_route(self):
        # The facade's cost on a miss, counted rather than timed: one
        # executor hop, one public Engine.pairs, one route, and no
        # re-normalizing of a query string the loop has already compiled.
        import threading

        from repro.engine import rewrite
        query = "[_, a, _] . [_, a, _]*"

        async def run():
            engine = Engine(chain_graph())  # no result cache: every read misses
            async with AsyncEngine(engine, max_workers=2) as service:
                want = await service.pairs(query, sources=[0])  # compile LRU
                loop = asyncio.get_running_loop()
                loop_thread = threading.get_ident()
                with counted_calls([
                        ("hop", loop, "run_in_executor"),
                        ("pairs", engine, "pairs"),
                        ("route", engine, "route"),
                        (lambda *_args, **_kwargs: "normalize on the loop"
                         if threading.get_ident() == loop_thread
                         else "normalize in the worker",
                         rewrite, "normalize")]) as counts:
                    assert await service.pairs(query, sources=[0]) == want
                assert service.counters["cache_fast_hits"] == 0
            return counts
        counts = asyncio.run(run())
        assert counts.pop("normalize in the worker", 0) <= 1
        assert counts == {"hop": 1, "pairs": 1, "route": 1}

    def test_cache_fast_path_skips_executor(self):
        async def run():
            async with make_async_engine() as service:
                first = await service.pairs("[_, a, _]")
                submitted = service.counters["submitted"]
                second = await service.pairs("[_, a, _]")
                assert second == first
                assert service.counters["submitted"] == submitted
                assert service.counters["cache_fast_hits"] == 1
                # Mutation invalidates: the next call recomputes.
                await service.mutate(
                    lambda g: g.add_edge(CHAIN, "a", CHAIN + 1))
                third = await service.pairs("[_, a, _]")
                assert (CHAIN, CHAIN + 1) in third
        asyncio.run(run())

    def test_deadline_expires_while_running(self):
        async def run():
            async with make_async_engine() as service:
                slow_down(service.engine, 0.4)
                started = time.monotonic()
                with pytest.raises(DeadlineExceededError):
                    await service.pairs("[_, a, _]", deadline=0.05)
                assert time.monotonic() - started < 0.3
                assert service.counters["deadline_exceeded"] == 1
                # The abandoned kernel finishes in its thread; the engine
                # (and its executor) stay healthy for the next query.
                answer = await service.pairs("[_, b, _]", deadline=5.0)
                assert answer == frozenset({(0, CHAIN)})
        asyncio.run(run())

    def test_deadline_expires_while_queued(self):
        async def run():
            async with make_async_engine(max_concurrency=1) as service:
                slow_down(service.engine, 0.3)
                hog = asyncio.ensure_future(service.pairs("[_, a, _]"))
                await asyncio.sleep(0.05)  # hog owns the only slot
                with pytest.raises(DeadlineExceededError) as exc:
                    await service.pairs("[_, b, _]", deadline=0.05)
                assert exc.value.phase == "queued"
                assert await hog  # the hog itself is unharmed
        asyncio.run(run())

    def test_cancellation_does_not_poison_the_pool(self):
        async def run():
            async with make_async_engine() as service:
                slow_down(service.engine, 0.3)
                victim = asyncio.ensure_future(service.pairs("[_, a, _]"))
                await asyncio.sleep(0.05)
                victim.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await victim
                answer = await service.pairs("[_, b, _]")
                assert answer == frozenset({(0, CHAIN)})
                assert service.counters["failed"] == 0
        asyncio.run(run())

    def test_queue_depth_sheds_with_overloaded(self):
        async def run():
            async with make_async_engine(max_concurrency=1,
                                         max_queue_depth=1) as service:
                slow_down(service.engine, 0.3)
                hog = asyncio.ensure_future(service.pairs("[_, a, _]"))
                await asyncio.sleep(0.05)
                waiter = asyncio.ensure_future(service.pairs("[_, b, _]"))
                await asyncio.sleep(0.05)  # waiter fills the queue
                with pytest.raises(OverloadedError) as exc:
                    await service.pairs("[_, b, _] . [_, a, _]")
                assert exc.value.retry_after > 0
                assert service.counters["shed"] == 1
                await hog
                await waiter
        asyncio.run(run())

    def test_batch_deadline_stops_between_items(self):
        async def run():
            async with make_async_engine() as service:
                slow_down(service.engine, 0.1)
                queries = ["[_, a, _]"] * 20
                started = time.monotonic()
                with pytest.raises(DeadlineExceededError):
                    await service.pairs_batch(queries, deadline=0.15)
                # Cooperative per-item checks: the worker stops at the
                # next item boundary instead of grinding through all 20.
                assert time.monotonic() - started < 1.0
        asyncio.run(run())

    def test_mutate_is_exclusive_and_versions_are_consistent(self):
        async def run():
            async with make_async_engine() as service:
                observed = []

                async def reader():
                    for _ in range(10):
                        observed.append(await service.pairs("[_, a, _]"))
                        await asyncio.sleep(0)

                async def writer():
                    for i in range(5):
                        await service.mutate(
                            lambda g, i=i: g.add_edge(
                                CHAIN + i, "a", CHAIN + i + 1))
                        await asyncio.sleep(0)

                await asyncio.gather(reader(), reader(), writer())
                # Every observation is a prefix-consistent snapshot: the
                # chain answer for SOME number of completed mutations.
                valid = set()
                edges = frozenset((i, i + 1) for i in range(CHAIN))
                for done in range(6):
                    valid.add(edges | frozenset(
                        (CHAIN + j, CHAIN + j + 1) for j in range(done)))
                for answer in observed:
                    assert answer in valid
                assert service.counters["mutations"] == 5
        asyncio.run(run())

    def test_closed_engine_refuses_work(self):
        async def run():
            service = make_async_engine()
            await service.aclose()
            await service.aclose()  # idempotent
            with pytest.raises(ServiceError):
                await service.pairs("[_, a, _]")
        asyncio.run(run())


@pytest.fixture
def store_root(tmp_path):
    root = tmp_path / "graphs"
    root.mkdir()
    for name in ("alpha", "beta"):
        PersistentGraph.create(str(root / name), chain_graph(name),
                               name=name).close()
    return str(root)


class TestGraphRegistry:
    def test_acquire_release_refcounts_and_listing(self, store_root):
        with GraphRegistry(store_root, max_workers=2) as registry:
            assert registry.list_graphs() == ["alpha", "beta"]
            handle = registry.acquire("alpha")
            again = registry.acquire("alpha")
            assert again is handle and handle.refcount == 2
            registry.release("alpha")
            registry.release("alpha")
            assert handle.refcount == 0
            assert registry.stats()["open_graphs"] == ["alpha"]

    def test_unknown_and_hostile_names_rejected(self, store_root):
        with GraphRegistry(store_root, max_workers=2) as registry:
            for name in ("missing", "../alpha", "a/b", ".hidden", ""):
                with pytest.raises(UnknownGraphError):
                    registry.acquire(name)

    def test_max_open_evicts_least_recently_used_idle(self, store_root):
        with GraphRegistry(store_root, max_workers=2,
                           max_open=1) as registry:
            registry.acquire("alpha")
            registry.release("alpha")
            registry.acquire("beta")  # evicts idle alpha
            names = registry.stats()["open_graphs"]
            assert names == ["beta"]

    def test_quota_admission(self, store_root):
        with GraphRegistry(store_root, max_workers=2,
                           quotas={"alice": 2}) as registry:
            first = registry.admit("alice")
            registry.admit("alice")
            with pytest.raises(QuotaExceededError) as exc:
                registry.admit("alice")
            assert exc.value.tenant == "alice"
            registry.admit("bob")  # separate tenant, separate budget
            first.release()
            first.release()  # release-once token: second call is a no-op
            assert registry.tenants()["alice"] == 1
            registry.admit("alice")

    def test_shared_cache_is_keyed_per_graph(self, store_root):
        async def run():
            registry = GraphRegistry(store_root, max_workers=2)
            try:
                alpha = registry.acquire("alpha")
                beta = registry.acquire("beta")
                got_a = await alpha.async_engine.pairs("[_, b, _]")
                got_b = await beta.async_engine.pairs("[_, b, _]")
                assert got_a == got_b == frozenset({(0, CHAIN)})
                # Same expression, same version counter — but distinct
                # graph tokens, so neither fast path crossed graphs.
                assert alpha.async_engine.counters["cache_fast_hits"] == 0
                assert beta.async_engine.counters["cache_fast_hits"] == 0
            finally:
                await registry.aclose()
        asyncio.run(run())

    def test_checkpoint_through_writer_slot(self, store_root):
        async def run():
            registry = GraphRegistry(store_root, max_workers=2)
            try:
                handle = registry.acquire("alpha")
                await handle.async_engine.mutate(
                    lambda g: g.add_edge("x", "a", "y"))
                info = await handle.checkpoint()
                assert info["generation"] == 2
            finally:
                await registry.aclose()
            with PersistentGraph.open(store_root + "/alpha") as reopened:
                # The checkpoint folded the log: nothing left to replay.
                assert reopened.info()["recovered_wal_records"] == 0
                assert reopened.graph().has_edge("x", "a", "y")
        asyncio.run(run())


async def http_request(host, port, method, path, body=None, token=None):
    """A minimal one-shot HTTP/1.1 client for the service under test."""
    reader, writer = await asyncio.open_connection(host, port)
    data = b"" if body is None else json.dumps(body).encode()
    lines = ["{} {} HTTP/1.1".format(method, path), "Host: test",
             "Content-Length: {}".format(len(data))]
    if token is not None:
        lines.append("Authorization: Bearer {}".format(token))
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + data)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, payload = raw.partition(b"\r\n\r\n")
    head_lines = head.decode("latin-1").split("\r\n")
    status = int(head_lines[0].split()[1])
    headers = {}
    for line in head_lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return status, json.loads(payload), headers


class TestHttpServer:
    def run_server(self, store_root, coro_factory, **server_kwargs):
        async def run():
            registry = GraphRegistry(store_root, max_workers=2,
                                     **server_kwargs.pop("registry", {}))
            server = HttpServer(registry, **server_kwargs)
            host, port = await server.start()
            try:
                await coro_factory(host, port, server)
            finally:
                await server.stop()
        asyncio.run(run())

    def test_query_roundtrip_and_cached_flag(self, store_root):
        async def scenario(host, port, server):
            status, payload, headers = await http_request(
                host, port, "POST", "/v1/graphs/alpha/query",
                {"query": "[_, b, _]"})
            assert status == 200
            assert payload["pairs"] == [[0, CHAIN]]
            assert payload["cached"] is False
            assert "x-repro-graph-version" in headers
            status, payload, _ = await http_request(
                host, port, "POST", "/v1/graphs/alpha/query",
                {"query": "[_, b, _]"})
            assert status == 200 and payload["cached"] is True
        self.run_server(store_root, scenario)

    def test_batch_sources_targets_and_listing(self, store_root):
        async def scenario(host, port, server):
            status, payload, _ = await http_request(
                host, port, "POST", "/v1/graphs/alpha/query",
                {"queries": ["[_, a, _]", "[_, b, _]"], "sources": [0]})
            assert status == 200
            by_query = {r["query"]: r for r in payload["results"]}
            assert by_query["[_, a, _]"]["pairs"] == [[0, 1]]
            assert by_query["[_, b, _]"]["pairs"] == [[0, CHAIN]]
            status, payload, _ = await http_request(
                host, port, "GET", "/v1/graphs")
            assert status == 200
            assert payload["graphs"] == ["alpha", "beta"]
        self.run_server(store_root, scenario)

    def test_healthz_stats_explain(self, store_root):
        async def scenario(host, port, server):
            status, payload, _ = await http_request(
                host, port, "GET", "/healthz")
            assert (status, payload) == (200, {"status": "ok"})
            status, payload, _ = await http_request(
                host, port, "GET", "/v1/graphs/alpha/stats")
            assert status == 200
            assert payload["info"]["name"] == "alpha"
            status, payload, _ = await http_request(
                host, port, "POST", "/v1/graphs/alpha/explain",
                {"query": "[_, a, _] . [_, b, _]"})
            assert status == 200
            assert "atomscan" in payload["explain"].lower()
        self.run_server(store_root, scenario)

    def test_explain_describes_the_request_query_would_run(self, store_root):
        # Drift (c): /query honoured ``processes``, /explain dropped it.
        async def scenario(host, port, server):
            body = {"query": "[_, a, _] . [_, a, _]*", "processes": 2}
            status, _, _ = await http_request(
                host, port, "POST", "/v1/graphs/alpha/query", body)
            assert status == 200
            status, payload, _ = await http_request(
                host, port, "GET", "/v1/graphs/alpha/stats")
            ran = payload["info"]["service"]["parallel"]
            assert ran["processes"] == 2
            status, payload, _ = await http_request(
                host, port, "POST", "/v1/graphs/alpha/explain", body)
            assert status == 200
            assert "pairs parallelism: parallel, {} process(es)".format(
                ran["processes"]) in payload["explain"]
            status, payload, _ = await http_request(
                host, port, "POST", "/v1/graphs/alpha/explain",
                dict(body, sources="not-a-list"))
            assert status == 400
        self.run_server(store_root, scenario)

    def test_auth_unknown_and_bad_requests(self, store_root):
        async def scenario(host, port, server):
            status, _, headers = await http_request(
                host, port, "GET", "/v1/graphs/alpha/stats")
            assert status == 401
            assert headers["www-authenticate"] == "Bearer"
            status, _, _ = await http_request(
                host, port, "GET", "/v1/graphs/alpha/stats", token="bogus")
            assert status == 401
            status, _, _ = await http_request(
                host, port, "GET", "/v1/graphs/nope/stats", token="s3cr3t")
            assert status == 404
            status, payload, _ = await http_request(
                host, port, "POST", "/v1/graphs/alpha/query",
                {"query": "[_, a"}, token="s3cr3t")
            assert status == 400 and payload["retriable"] is False
            status, _, _ = await http_request(
                host, port, "POST", "/v1/graphs/alpha/query",
                {"deadline_ms": -5, "query": "[_, a, _]"}, token="s3cr3t")
            assert status == 400
        self.run_server(store_root, scenario,
                        tokens={"s3cr3t": "alice"})

    def test_deadline_maps_to_504(self, store_root):
        async def scenario(host, port, server):
            handle = server.registry.acquire("alpha")
            slow_down(handle.engine, 0.4)
            server.registry.release("alpha")
            status, payload, _ = await http_request(
                host, port, "POST", "/v1/graphs/alpha/query",
                {"query": "[_, a, _]", "deadline_ms": 50})
            assert status == 504 and payload["retriable"] is True
            # Follow-up without a deadline still answers: no poisoning.
            status, payload, _ = await http_request(
                host, port, "POST", "/v1/graphs/alpha/query",
                {"query": "[_, b, _]"})
            assert status == 200 and payload["pairs"] == [[0, CHAIN]]
        self.run_server(store_root, scenario)

    def test_quota_maps_to_429_with_retry_after(self, store_root):
        async def scenario(host, port, server):
            handle = server.registry.acquire("alpha")
            slow_down(handle.engine, 0.4)
            server.registry.release("alpha")
            slow = asyncio.ensure_future(http_request(
                host, port, "POST", "/v1/graphs/alpha/query",
                {"query": "[_, a, _]"}, token="s3cr3t"))
            await asyncio.sleep(0.1)  # alice's only slot is now busy
            status, payload, headers = await http_request(
                host, port, "POST", "/v1/graphs/alpha/query",
                {"query": "[_, b, _]"}, token="s3cr3t")
            assert status == 429 and payload["retriable"] is True
            assert float(headers["retry-after"]) > 0
            status, _, _ = await slow
            assert status == 200
            # The slot came back with the admission token.
            status, _, _ = await http_request(
                host, port, "POST", "/v1/graphs/alpha/query",
                {"query": "[_, b, _]"}, token="s3cr3t")
            assert status == 200
        self.run_server(store_root, scenario,
                        tokens={"s3cr3t": "alice"},
                        registry={"quotas": {"alice": 1}})

    def test_mutate_and_checkpoint_endpoints(self, store_root):
        async def scenario(host, port, server):
            status, before, _ = await http_request(
                host, port, "POST", "/v1/graphs/alpha/query",
                {"query": "[_, a, _]", "sources": [CHAIN]})
            assert status == 200 and before["count"] == 0
            status, payload, _ = await http_request(
                host, port, "POST", "/v1/graphs/alpha/mutate",
                {"add_edges": [[CHAIN, "a", CHAIN + 1]],
                 "remove_edges": [[0, "b", CHAIN]]})
            assert status == 200
            assert payload["added"] == 1 and payload["removed"] == 1
            status, after, _ = await http_request(
                host, port, "POST", "/v1/graphs/alpha/query",
                {"query": "[_, a, _]", "sources": [CHAIN]})
            assert status == 200
            assert after["pairs"] == [[CHAIN, CHAIN + 1]]
            status, payload, _ = await http_request(
                host, port, "POST", "/v1/graphs/alpha/checkpoint", {})
            assert status == 200 and payload["info"]["generation"] == 2
        self.run_server(store_root, scenario)


#: Wrongly typed option values: the caller's bug, refused before anything
#: is evaluated.
async def raw_exchange(host, port, payload, then_eof=True):
    """Send raw bytes, read to EOF: everything the server said."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(payload)
        if then_eof:
            writer.write_eof()
        return await asyncio.wait_for(reader.read(), 10)
    finally:
        writer.close()


KEEPALIVE_GET = (b"GET /healthz HTTP/1.1\r\nHost: test\r\n"
                 b"Connection: keep-alive\r\n\r\n")


class TestConnectionFraming:
    """The request read: one ``readuntil`` per head under a watchdog
    timer (no ``wait_for`` task), same verdicts as line-by-line reads."""

    def serve(self, store_root, scenario, **server_kwargs):
        logged = []

        async def run():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: logged.append(context))
            server = HttpServer(GraphRegistry(store_root, max_workers=2),
                                **server_kwargs)
            host, port = await server.start()
            try:
                await scenario(host, port, server)
            finally:
                await server.stop()
        asyncio.run(run())
        assert logged == []

    def test_one_readuntil_and_no_wait_for_per_served_request(
            self, store_root):
        from repro.service.client import ReproClient

        async def scenario(host, port, server):
            client = ReproClient("http://{}:{}".format(host, port),
                                 keep_alive=True)

            def reads():
                try:
                    return [client.query("alpha", "[_, b, _]")["count"]
                            for _ in range(6)]
                finally:
                    client.close()

            with counted_calls([
                    ("readuntil", asyncio.StreamReader, "readuntil"),
                    ("readline", asyncio.StreamReader, "readline"),
                    ("wait_for", asyncio, "wait_for")]) as counts:
                answers = await asyncio.get_running_loop().run_in_executor(
                    None, reads)
            assert answers == [1] * 6
            # The cap's last response says close, so the handler never
            # parks in a seventh read: six requests, six reads.
            assert server.requests_served == 6
            assert server.connections_reused == 5
            assert dict(counts) == {"readuntil": 6}
        self.serve(store_root, scenario, keepalive_max_requests=6)

    def test_per_connection_cap_closes_after_the_capped_response(
            self, store_root):
        async def scenario(host, port, server):
            raw = await raw_exchange(host, port, KEEPALIVE_GET * 3,
                                     then_eof=False)
            assert raw.count(b"HTTP/1.1 200 OK") == 2
            first, second = raw.split(b"HTTP/1.1 200 OK")[1:]
            assert b"Connection: keep-alive" in first
            assert b"Connection: close" in second
        self.serve(store_root, scenario, keepalive_max_requests=2)

    def test_idle_keepalive_connection_is_reaped_silently(self, store_root):
        async def scenario(host, port, server):
            started = time.monotonic()
            raw = await raw_exchange(host, port, KEEPALIVE_GET,
                                     then_eof=False)
            assert raw.count(b"HTTP/1.1") == 1      # the 200, no 400
            assert 0.05 <= time.monotonic() - started < 5
        self.serve(store_root, scenario, keepalive_idle_timeout=0.1)

    @pytest.mark.parametrize("sent", [b"", b"POST /v1/graphs/alpha/query HT",
                                      b"POST /x HTTP/1.1\r\n"
                                      b"Content-Length: 9\r\n\r\n{"],
                             ids=["silent", "mid-head", "mid-body"])
    def test_slow_client_is_dropped_without_a_reply(self, store_root, sent,
                                                    monkeypatch):
        # A client that stalls before, inside the head or inside the body
        # runs into the delivery budget: the watchdog aborts, says nothing.
        monkeypatch.setattr("repro.service.http.READ_TIMEOUT", 0.1)

        async def scenario(host, port, server):
            try:
                raw = await raw_exchange(host, port, sent, then_eof=False)
            except ConnectionError:
                raw = b""
            assert raw == b""
            status, _, _ = await http_request(host, port, "GET", "/healthz")
            assert status == 200
        self.serve(store_root, scenario)

    @pytest.mark.parametrize("request_bytes, status, says", [
        (b"\r\n\r\n", 400, "empty request"),
        (b"GET /healthz\r\n\r\n", 400, "malformed request line"),
        (b"GET /healthz HTTP/1.1\r\nContent-Length: x\r\n\r\n", 400,
         "bad Content-Length"),
        (b"GET /healthz HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400,
         "bad Content-Length"),
        (b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"x" * 70000 + b"\r\n\r\n",
         400, "request head too large"),
        (b"POST /v1/graphs/alpha/query HTTP/1.1\r\n"
         b"Content-Length: 60\r\n\r\n{", 400, ""),      # EOF mid-body
        (b"GET /healthz HTTP/1.1\r\nHost: te", 400, ""),   # EOF mid-head
        (b"GET /healthz HTTP/1.1\r\nContent-Length: 999\r\n\r\n", 413,
         "byte limit"),
    ], ids=["blank", "request-line", "length-text", "length-negative",
            "head-over-64k", "eof-in-body", "eof-in-head", "over-max-body"])
    def test_framing_verdicts(self, store_root, request_bytes, status, says):
        async def scenario(host, port, server):
            raw = await raw_exchange(host, port, request_bytes)
            head, _, body = raw.partition(b"\r\n\r\n")
            assert head.startswith("HTTP/1.1 {} ".format(status).encode())
            assert b"Connection: close" in head
            payload = json.loads(body)
            assert payload["retriable"] is False and says in payload["error"]
        self.serve(store_root, scenario, max_body=64)

    def test_peer_closing_between_requests_is_not_an_error(self, store_root):
        async def scenario(host, port, server):
            assert await raw_exchange(host, port, b"") == b""
            raw = await raw_exchange(host, port, KEEPALIVE_GET)
            assert raw.count(b"HTTP/1.1") == 1
        self.serve(store_root, scenario)

    def test_stop_with_an_idle_keepalive_connection_logs_nothing(
            self, store_root):
        import socket
        idle = []

        async def scenario(host, port, server):
            def park():
                sock = socket.create_connection((host, port), timeout=10)
                idle.append(sock)
                sock.sendall(KEEPALIVE_GET)
                return sock.recv(65536)

            reply = await asyncio.get_running_loop().run_in_executor(
                None, park)
            assert b"Connection: keep-alive" in reply
            # Returning stops the server, then asyncio.run cancels the
            # handler task still parked in its next read.
        try:
            self.serve(store_root, scenario)
            assert idle[0].recv(65536) == b""     # closed, not leaked
        finally:
            for sock in idle:
                sock.close()


BAD_QUERY_OPTIONS = [
    {"max_length": "3"}, {"max_length": 2.5}, {"max_length": True},
    {"max_length": -1},
    {"processes": "2"}, {"processes": 0}, {"processes": True},
    {"processes": 9},
    {"deadline_ms": True}, {"deadline_ms": float("nan")},
    {"deadline_ms": "soon"}, {"deadline_ms": -5},
    {"sources": [[1, 2]]}, {"targets": [{"x": 1}]}, {"sources": [1, None]},
]


async def dispatch(server, action, body):
    """One POST through ``_dispatch``, no socket: ``(status, payload)``."""
    status, payload, _ = await server._dispatch(
        "POST", "/v1/graphs/alpha/" + action, {}, json.dumps(body).encode())
    return status, payload


class TestRequestValidation:
    def on_primary(self, store_root, scenario):
        async def run():
            server = HttpServer(GraphRegistry(store_root, max_workers=2))
            try:
                await scenario(server)
            finally:
                await server.stop()
        asyncio.run(run())

    @pytest.mark.parametrize("options", BAD_QUERY_OPTIONS, ids=json.dumps)
    def test_bad_query_options_are_400s(self, store_root, options):
        async def scenario(server):
            for action in ("query", "explain"):
                status, payload = await dispatch(
                    server, action, dict({"query": "[_, a, _]"}, **options))
                assert status == 400, (action, payload)
                assert payload["retriable"] is False
        self.on_primary(store_root, scenario)

    def on_replica(self, tmp_path, scenario):
        from repro.replication import PrimaryFeed, ReplicaGraph
        from repro.service.http import ReplicaHttpServer
        with PersistentGraph.create(str(tmp_path / "alpha"), chain_graph(),
                                    name="alpha", replicate=True) as store:
            replica = ReplicaGraph.bootstrap(str(tmp_path / "rep"),
                                             PrimaryFeed(store))

            async def run():
                server = ReplicaHttpServer(replica)
                try:
                    await scenario(server)
                finally:
                    await server.stop()
            try:
                asyncio.run(run())
            finally:
                replica.close()

    def test_replica_refuses_bad_query_options(self, tmp_path):
        async def scenario(server):
            for options in BAD_QUERY_OPTIONS:
                status, payload = await dispatch(
                    server, "query", dict({"query": "[_, a, _]"}, **options))
                assert status == 400, (options, payload)
                assert payload["retriable"] is False
        self.on_replica(tmp_path, scenario)

    @pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
    def test_replica_read_past_its_deadline_is_a_504(self, tmp_path,
                                                     monkeypatch, batch):
        # The kernel outlives the budget: the reply is the primary's 504,
        # sent at the deadline, not when the kernel finally returns.
        async def scenario(server):
            body = {"queries": ["[_, a, _]", "[_, b, _]"]} if batch \
                else {"query": "[_, a, _]"}
            # Filtered, so the budgeted read below is not a cache hit.
            status, payload = await dispatch(
                server, "query", dict(body, deadline_ms=10_000, sources=[0]))
            assert status == 200, payload
            engine = server.async_engine.engine
            original = engine.pairs

            def slow_pairs(*args, **kwargs):
                time.sleep(1.0)
                return original(*args, **kwargs)
            monkeypatch.setattr(engine, "pairs", slow_pairs)
            started = time.monotonic()
            status, payload = await dispatch(
                server, "query", dict(body, deadline_ms=50))
            assert time.monotonic() - started < 0.9
            assert status == 504, payload
            assert payload["retriable"] is True
            assert payload["phase"] == "running"
        self.on_replica(tmp_path, scenario)

    @pytest.mark.parametrize("form, bound", [
        ("body", "true"), ("body", '"nan"'), ("body", "1e999"),
        ("header", "nan"), ("header", "inf")])
    def test_replica_refuses_malformed_staleness_bounds(self, tmp_path,
                                                        form, bound):
        # A bool is an int, NaN passes every comparison by failing it, and
        # 1e999 is valid JSON that parses to infinity: none is a bound.
        body, headers = '{"query": "[_, a, _]"}', {}
        if form == "body":
            body = body[:-1] + ', "max_staleness_ms": ' + bound + "}"
        else:
            headers["x-repro-max-staleness-ms"] = bound

        async def scenario(server):
            status, payload, _ = await server._dispatch(
                "POST", "/v1/graphs/alpha/query", headers, body.encode())
            assert status == 400, payload
            assert "max_staleness_ms" in payload["error"]
            assert payload["retriable"] is False
        self.on_replica(tmp_path, scenario)

    ROUTE_MISSES = [("GET", "/v1/graphs/alpha/query"),
                    ("POST", "/v1/graphs/alpha/stats"),
                    ("DELETE", "/v1/graphs/alpha/mutate"),
                    ("GET", "/nope"), ("POST", "/v1/graphs"),
                    ("GET", "/replication/foo")]

    def test_route_miss_names_the_route_not_a_graph(self, store_root,
                                                    tmp_path):
        # A route no server serves is a 404 that names the method and
        # path, not a missing graph; a real unknown graph keeps its own
        # message.
        async def scenario(server):
            misses = list(self.ROUTE_MISSES)
            if hasattr(server, "replica"):  # no explain, no feed
                misses += [("POST", "/v1/graphs/alpha/explain"),
                           ("GET", "/replication/wal")]
            for method, path in misses:
                status, payload, _ = await server._dispatch(
                    method, path, {}, b"")
                assert status == 404, (method, path, payload)
                assert payload == {"error": "no route for {} {}".format(
                    method, path), "retriable": False}
            status, payload, _ = await server._dispatch(
                "POST", "/v1/graphs/nope/query", {}, b'{"query": "[_, a, _]"}')
            assert status == 404
            assert payload["error"] == "no graph store named 'nope' in " \
                "the registry"
        self.on_primary(store_root, scenario)
        self.on_replica(tmp_path, scenario)

    @pytest.mark.parametrize("bad_triple", [[[1], "a", 2],
                                            [1, {"x": 1}, 2],
                                            [1, "a", float("nan")],
                                            [None, "a", 2],
                                            [1, None, 2],
                                            [1, "a", None]])
    def test_refused_mutate_batch_applies_nothing(self, store_root,
                                                  bad_triple):
        # /mutate is not idempotent: a 400 must mean "nothing happened".
        good = [100, "a", 101]

        async def scenario(server):
            graph = server.registry.acquire("alpha").engine.graph
            version = graph.version()
            for body in ({"add_edges": [good, bad_triple]},
                         {"add_edges": [good], "remove_edges": [bad_triple]}):
                status, payload = await dispatch(server, "mutate", body)
                assert status == 400, payload
                assert payload["retriable"] is False
            assert graph.version() == version
            assert not graph.has_vertex(100)
            server.registry.release("alpha")
        self.on_primary(store_root, scenario)


class TestConcurrentClientsUnderMutation:
    """The PR 7 satellite scenario: two asyncio clients query over HTTP
    while a third mutates and checkpoints the same graph."""

    def test_results_consistent_with_some_version(self, store_root):
        async def run():
            registry = GraphRegistry(store_root, max_workers=3)
            server = HttpServer(registry)
            host, port = await server.start()
            observed = []
            try:
                async def client():
                    for _ in range(8):
                        status, payload, _ = await http_request(
                            host, port, "POST", "/v1/graphs/alpha/query",
                            {"query": "[_, a, _]"})
                        assert status == 200
                        observed.append(frozenset(
                            tuple(p) for p in payload["pairs"]))

                async def mutator():
                    for i in range(4):
                        status, _, _ = await http_request(
                            host, port, "POST", "/v1/graphs/alpha/mutate",
                            {"add_edges": [[CHAIN + i, "a", CHAIN + i + 1]]})
                        assert status == 200
                        if i == 1:
                            status, _, _ = await http_request(
                                host, port, "POST",
                                "/v1/graphs/alpha/checkpoint", {})
                            assert status == 200

                await asyncio.gather(client(), client(), mutator())
            finally:
                await server.stop()
            edges = frozenset((i, i + 1) for i in range(CHAIN))
            valid = set()
            for done in range(5):
                valid.add(edges | frozenset(
                    (CHAIN + j, CHAIN + j + 1) for j in range(done)))
            assert observed and all(answer in valid for answer in observed)
        asyncio.run(run())
