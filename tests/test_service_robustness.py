"""Service-tier robustness: 413, readiness, degraded 503s, eviction races.

The HTTP half of the fail-stop-or-correct contract: every injected or
induced failure must surface as the documented status code with the
documented retriability — and a store serving under degradation must
keep answering queries exactly while refusing mutations.
"""

import asyncio
import json

import pytest

from repro.errors import ServiceError
from repro.faults import FaultPlan, clear_plan, fault_scope
from repro.graph.graph import MultiRelationalGraph
from repro.service import GraphRegistry, HttpServer
from repro.storage import PersistentGraph

CHAIN = 10


@pytest.fixture(autouse=True)
def disarmed():
    clear_plan()
    yield
    clear_plan()


def chain_graph(name="chain"):
    graph = MultiRelationalGraph(name=name)
    for i in range(CHAIN):
        graph.add_edge(i, "a", i + 1)
    graph.add_edge(0, "b", CHAIN)
    return graph


@pytest.fixture
def store_root(tmp_path):
    root = tmp_path / "graphs"
    root.mkdir()
    for name in ("alpha", "beta"):
        PersistentGraph.create(str(root / name), chain_graph(name),
                               name=name).close()
    return str(root)


async def http_request(host, port, method, path, body=None, token=None,
                       content_length=None):
    """One-shot HTTP/1.1 client; ``content_length`` overrides the header."""
    reader, writer = await asyncio.open_connection(host, port)
    data = b"" if body is None else json.dumps(body).encode()
    length = len(data) if content_length is None else content_length
    lines = ["{} {} HTTP/1.1".format(method, path), "Host: test",
             "Content-Length: {}".format(length)]
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


def run_server(store_root, coro_factory, **server_kwargs):
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


class TestPayloadTooLarge:
    def test_oversize_body_maps_to_413(self, store_root):
        async def scenario(host, port, server):
            status, payload, _ = await http_request(
                host, port, "POST", "/v1/graphs/alpha/query",
                {"query": "[_, a, _]"}, content_length=256)
            assert status == 413
            assert payload["retriable"] is False
            assert "byte limit" in payload["error"]
            # In-bounds requests on the same server still serve.
            status, payload, _ = await http_request(
                host, port, "POST", "/v1/graphs/alpha/query",
                {"query": "[_, b, _]"})
            assert status == 200 and payload["pairs"] == [[0, CHAIN]]
        run_server(store_root, scenario, max_body=64)


class TestReadiness:
    def test_readyz_is_unauthenticated_and_ready(self, store_root):
        async def scenario(host, port, server):
            # No token on either probe, even though auth is configured.
            status, payload, _ = await http_request(host, port, "GET",
                                                    "/healthz")
            assert status == 200
            status, payload, _ = await http_request(host, port, "GET",
                                                    "/readyz")
            assert status == 200 and payload["status"] == "ready"
            assert payload["degraded"] == []
        run_server(store_root, scenario, tokens={"secret": "tenant"})

    def test_degraded_store_flips_readyz_and_maps_503(self, store_root):
        async def scenario(host, port, server):
            plan = FaultPlan()
            plan.arm("wal.write", "eio", times=1)
            # The registry opens stores with the batched WAL policy, so
            # the batch must overflow (64 records) to cross the write
            # site mid-mutation: 30 fresh edges emit ~90 records.
            edges = [["u{}".format(i), "a", "v{}".format(i)]
                     for i in range(30)]
            with fault_scope(plan):
                status, payload, headers = await http_request(
                    host, port, "POST", "/v1/graphs/alpha/mutate",
                    {"add_edges": edges})
            assert status == 503
            assert payload["retriable"] is True and payload["degraded"]
            assert float(headers["retry-after"]) == payload["retry_after"]
            # Live but not ready; the failing graph is named.
            status, payload, _ = await http_request(host, port, "GET",
                                                    "/healthz")
            assert status == 200
            status, payload, headers = await http_request(host, port, "GET",
                                                          "/readyz")
            assert status == 503 and payload["status"] == "unready"
            assert payload["degraded"] == ["alpha"]
            assert "retry-after" in headers
            # Queries still serve the exact live state while degraded.
            status, payload, _ = await http_request(
                host, port, "POST", "/v1/graphs/alpha/query",
                {"query": "[_, b, _]"})
            assert status == 200 and payload["pairs"] == [[0, CHAIN]]
            # A retried write is refused with the same 503 contract, even
            # one whose first edge the failed call left in memory.
            status, payload, _ = await http_request(
                host, port, "POST", "/v1/graphs/alpha/mutate",
                {"add_edges": edges[:1]})
            assert status == 503 and payload["retriable"] is True
            # Further mutations are refused with the same 503 contract.
            status, payload, _ = await http_request(
                host, port, "POST", "/v1/graphs/alpha/mutate",
                {"add_edges": [["x", "a", "y"]]})
            assert status == 503 and payload["retriable"] is True
            # Stats surface the mode for operators.
            status, payload, _ = await http_request(
                host, port, "GET", "/v1/graphs/alpha/stats")
            assert payload["info"]["degraded"] is True
            # A checkpoint heals: readyz recovers, mutations land again.
            status, payload, _ = await http_request(
                host, port, "POST", "/v1/graphs/alpha/checkpoint")
            assert status == 200
            status, payload, _ = await http_request(host, port, "GET",
                                                    "/readyz")
            assert status == 200 and payload["status"] == "ready"
            status, payload, _ = await http_request(
                host, port, "POST", "/v1/graphs/alpha/mutate",
                {"add_edges": [["x", "a", "y"]]})
            assert status == 200 and payload["added"] == 1
        run_server(store_root, scenario)


class TestInjectedConnectionFaults:
    def test_connection_drop_resets_without_partial_json(self, store_root):
        async def scenario(host, port, server):
            plan = FaultPlan()
            plan.arm("http.connection_drop", "drop", times=1)
            with fault_scope(plan):
                reader, writer = await asyncio.open_connection(host, port)
                body = json.dumps({"query": "[_, b, _]"}).encode()
                writer.write((
                    "POST /v1/graphs/alpha/query HTTP/1.1\r\n"
                    "Host: test\r\nContent-Length: {}\r\n\r\n".format(
                        len(body))).encode() + body)
                await writer.drain()
                raw = await reader.read()
                writer.close()
                # Fail-stop: the abort delivers nothing, never a torn 200.
                assert raw == b""
                assert plan.fired("http.connection_drop") == 1
            # The next request on a fresh connection is served normally.
            status, payload, _ = await http_request(
                host, port, "POST", "/v1/graphs/alpha/query",
                {"query": "[_, b, _]"})
            assert status == 200 and payload["pairs"] == [[0, CHAIN]]
        run_server(store_root, scenario)


class TestEvictionRaces:
    def test_inflight_query_blocks_eviction_until_drained(self, store_root):
        async def run():
            registry = GraphRegistry(store_root, max_workers=2, max_open=1)
            try:
                handle = registry.acquire("alpha")
                release = asyncio.Event()
                original = handle.engine.pairs

                def slow_pairs(*args, **kwargs):
                    import time
                    while not release.is_set():
                        time.sleep(0.005)
                    return original(*args, **kwargs)

                handle.engine.pairs = slow_pairs
                task = asyncio.ensure_future(
                    handle.async_engine.pairs("[_, b, _]"))
                while handle.async_engine._active_readers == 0:
                    await asyncio.sleep(0.005)
                # The HTTP tier already released its reference, but the
                # admitted query must keep the graph alive.
                registry.release("alpha")
                assert handle.refcount == 0
                assert not handle.async_engine.idle
                with pytest.raises(ServiceError, match="busy"):
                    registry.acquire("beta")
                release.set()
                answer = await task
                assert answer == frozenset({(0, CHAIN)})
                # Drained: beta can now open, evicting idle alpha.
                beta = registry.acquire("beta")
                assert sorted(registry.stats()["open_graphs"]) == ["beta"]
                got = await beta.async_engine.pairs("[_, b, _]")
                assert got == frozenset({(0, CHAIN)})
            finally:
                await registry.aclose()
        asyncio.run(run())
