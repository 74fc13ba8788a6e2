"""A minimal asyncio HTTP/1.1 JSON server over the graph registry.

Stdlib-only (``asyncio.start_server`` + hand-rolled request framing — no
new dependencies), JSON in/out.  Connections default to one request
(``Connection: close``); a client that sends ``Connection: keep-alive``
gets the connection held open for further requests, bounded by a
per-connection request cap and an idle timeout (see *Keep-alive* below).
The protocol surface:

==========  =======================================  =====================
method      path                                     body / response
==========  =======================================  =====================
GET         ``/healthz``                             liveness (no auth)
GET         ``/readyz``                              readiness (no auth)
GET         ``/v1/graphs``                           registry listing
POST        ``/v1/graphs/{name}/query``              ``{"query": ...}`` →
                                                     sorted pair list (or
                                                     blocks, negotiated),
                                                     encoded once per
                                                     cached answer
POST        ``/v1/graphs/{name}/explain``            EXPLAIN text
GET         ``/v1/graphs/{name}/stats``              store + cache + slots
POST        ``/v1/graphs/{name}/mutate``             edge add/remove batch
POST        ``/v1/graphs/{name}/checkpoint``         fold WAL, new gen
GET         ``/replication/snapshot``                snapshot bytes (binary)
GET         ``/replication/wal?cursor=S:O``          WAL frame run (binary)
==========  =======================================  =====================

The two ``/replication/*`` reads (authenticated; ``?graph=`` selects the
store, optional when exactly one is served) are the primary side of
WAL-shipped replication — binary bodies whose metadata travels in
``X-Repro-*`` headers, one per field of
:data:`repro.service.wire.FEED_FIELDS`.  They are only served by
``repro serve --replicate``; see ``docs/replication.md``.

Keep-alive
----------
The server only reuses a connection when the *client* asks
(``Connection: keep-alive``), so close-framed clients — including ones
that read to EOF — are untouched.  Reuse is bounded: at most
``keepalive_max_requests`` per connection (the response that hits the
cap says ``Connection: close``) and ``keepalive_idle_timeout`` seconds
of silence between requests (the connection is then quietly dropped —
an idle peer holding a socket costs a file descriptor, not a request).
The replica tailer rides this: one connection per poll loop instead of
one per poll.

Access log
----------
``access_log`` (off by default; ``repro serve --access-log``) is a
callable receiving one JSON-ready dict per served request: timestamp,
remote address, method, path, status, elapsed ms, response bytes,
tenant, and the request's index on its connection.  The CLI writes each
as one JSON line.

Query bodies: ``query`` (PathQL text; or ``queries`` for a batch),
optional ``sources`` / ``targets`` lists, ``max_length``, ``processes``
(at most the executor's ``MAX_WORKERS``), and ``deadline_ms`` — the
per-request deadline enforced by
:class:`~repro.service.async_engine.AsyncEngine`.  The reply's ``pairs``
is the answer as a JSON list sorted by ``repr``.  A request sending
``Accept: application/x-repro-pair-blocks+json`` gets the answer's
``blocks`` instead, unsorted, whenever every endpoint is a type JSON
round-trips exactly (the reply's ``Content-Type`` then names that type);
any other answer goes out flat.  Each form is encoded at most once per
cached answer (:mod:`repro.service.wire`), in the worker thread that
computed it, and a cache hit splices those bytes into the response.

Auth and the error contract
---------------------------
``tokens`` maps bearer tokens to tenant names; requests must send
``Authorization: Bearer <token>`` (pass no tokens to run open, every
caller the ``"anonymous"`` tenant).  Every failure, framing included,
becomes its reply through :func:`repro.service.wire.error_reply`; the
status table is in ``docs/serving.md``.

``GET /readyz`` (no auth) distinguishes *ready* from merely live: 200
only while the registry is open, no open store is degraded, and every
parallel pool is healthy; otherwise 503 with the failing checks listed.

Every response carries ``X-Repro-Graph-Version`` when a graph was
resolved, so clients can correlate answers with mutation versions; on a
``/query`` reply it is the version the answer is exact at (every member
of a batch is answered at that one version), and on a ``/mutate`` or
``/checkpoint`` reply the version its write left, taken in the writer
slot — never one read afterwards.  Those two bodies carry it as
``version`` too.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Optional, Tuple, Union
from urllib.parse import parse_qsl, urlsplit

from repro.replication import (REPLICA_META_NAME, PrimaryFeed, ReplicaGraph,
                               ReplicaTailer)

from repro.engine.cache import QueryCache
from repro.engine.engine import Engine
from repro.engine.parallel import MAX_WORKERS
from repro.errors import (
    AuthenticationError,
    ReplicaReadOnlyError,
    ReplicationError,
    UnknownGraphError,
)
from repro.faults import fault_hook
from repro.service.async_engine import AsyncEngine
from repro.service.client import RemoteFeed, ReproClient
from repro.service.registry import GraphHandle, GraphRegistry
from repro.service.wire import (FEED_FIELDS, BadRequestError,
                                PayloadTooLargeError, RouteNotFoundError,
                                encode_reply, error_reply, feed_headers,
                                replica_lag_header, wants_blocks)
from repro.storage.segments import ReplicationCursor

__all__ = ["HttpServer", "ReplicaHttpServer", "serve", "serve_replica"]

#: Largest accepted request body; bigger payloads get a 413.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: The payload key an action leaves its reply's version under, for
#: ``_route`` to move into the ``X-Repro-Graph-Version`` header.
_ANSWER_VERSION = "_answer_version"

#: Budget for a client to deliver its request head + body.
READ_TIMEOUT = 30.0

#: Keep-alive bounds: requests per connection, and idle seconds between
#: requests before the server quietly drops the socket.
KEEPALIVE_MAX_REQUESTS = 100
KEEPALIVE_IDLE_TIMEOUT = 5.0

#: Upper bound a ``/replication/wal`` request may ask for per fetch.
MAX_SHIP_BYTES = 8 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 401: "Unauthorized", 403: "Forbidden",
    404: "Not Found", 410: "Gone",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: An access-log sink: receives one JSON-ready dict per served request.
AccessLog = Callable[[Dict[str, Any]], None]


def _refuse_constant(name: str) -> Any:
    raise ValueError("{} is not a JSON number".format(name))


#: Request bodies are strict JSON: ``NaN`` / ``Infinity`` / ``-Infinity``
#: are Python extensions.  A NaN vertex id would be logged and never found
#: again (it equals nothing, itself included), a NaN deadline expires at
#: once; refusing them here makes both a 400.
_BODY_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def _is_id(value: Any) -> bool:
    """Vertex and label ids are JSON scalars — what the log can hold
    (:func:`repro.storage.frames.check_loggable`) and a set can hash —
    other than ``null``, which is the wildcard of a match and an atom;
    of a parsed JSON body, lists, objects and ``null`` are not ids."""
    return value is not None and not isinstance(value, (list, dict))


class _ConnectionClosed(Exception):
    """The peer closed between requests — a quiet end, not an error."""


class HttpServer:
    """The asyncio HTTP front end bound to one :class:`GraphRegistry`."""

    def __init__(self, registry: GraphRegistry,
                 tokens: Optional[Dict[str, str]] = None,
                 max_body: int = MAX_BODY_BYTES,
                 access_log: Optional[AccessLog] = None,
                 keepalive_max_requests: int = KEEPALIVE_MAX_REQUESTS,
                 keepalive_idle_timeout: float = KEEPALIVE_IDLE_TIMEOUT):
        self.registry = registry
        self.tokens = dict(tokens or {})
        self.max_body = max_body
        self.access_log = access_log
        self.keepalive_max_requests = max(1, keepalive_max_requests)
        self.keepalive_idle_timeout = keepalive_idle_timeout
        self._server: Optional[asyncio.AbstractServer] = None
        self.requests_served = 0
        self.connections_reused = 0

    # -- lifecycle -----------------------------------------------------

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> Tuple[str, int]:
        """Bind and serve; returns the actual ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_connection, host=host, port=port)
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def stop_listening(self) -> None:
        """Stop accepting connections (idempotent); stores stay open."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def stop(self, deadline: Optional[float] = 30.0) -> None:
        """Stop accepting, drain queries, close every store (idempotent)."""
        await self.stop_listening()
        await self.registry.aclose(deadline=deadline)

    # -- connection handling -------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            try:
                await self._serve_requests(reader, writer)
            finally:
                writer.close()
            await writer.wait_closed()
        except OSError:
            pass
        except asyncio.CancelledError:
            # A stopping server's loop cancels what is left — typically
            # here, idle between two keep-alive requests.  The transport
            # is closed above; finishing normally (nothing awaited, not
            # re-raised) keeps the stream protocol's done-callback from
            # logging the cancellation as an unhandled error.
            pass

    async def _serve_requests(self, reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
        loop = asyncio.get_running_loop()
        transport = writer.transport
        served_here = 0
        slow = fault_hook("http.slow_client")
        if slow is not None:
            # Injected "slow client": stall before the request is
            # read so the READ_TIMEOUT budget is what bounds us.
            await asyncio.sleep(slow.seconds)
        while True:
            # First request gets the full delivery budget; a reused
            # connection sitting silent only gets the idle timeout.
            # The watchdog aborts the transport, which ends the read
            # below; unlike ``asyncio.wait_for`` it costs no task.
            watchdog = loop.call_later(
                READ_TIMEOUT if served_here == 0
                else self.keepalive_idle_timeout, transport.abort)
            try:
                method, path, headers, body = \
                    await self._read_request(reader)
            except _ConnectionClosed:
                return
            except (BadRequestError, asyncio.IncompleteReadError,
                    ConnectionError) as error:
                if transport.is_closing():
                    return  # the watchdog fired: nobody left to tell
                if not isinstance(error, BadRequestError):
                    error = BadRequestError(str(error) or "bad request")
                await self._respond(writer, *error_reply(error))
                return
            finally:
                watchdog.cancel()
            started = time.perf_counter()
            status, payload, extra = await self._dispatch(
                method, path, headers, body)
            drop = fault_hook("http.connection_drop")
            if drop is not None:
                # Injected mid-response failure: hard-abort the
                # socket so the client sees a reset, never a
                # truncated 200.
                transport.abort()
                return
            # Reuse only on explicit client opt-in, and below the
            # per-connection cap — the capped response says close.
            keep = served_here + 1 < self.keepalive_max_requests and \
                headers.get("connection", "").lower() == "keep-alive"
            sent = await self._respond(writer, status, payload, extra,
                                       keep_alive=keep)
            served_here += 1
            self.requests_served += 1
            if served_here > 1:
                self.connections_reused += 1
            self._log_access(writer, method, path, headers, status,
                             started, sent, served_here)
            if not keep:
                return

    def _log_access(self, writer: asyncio.StreamWriter, method: str,
                    path: str, headers: Dict[str, str], status: int,
                    started: float, sent: int, seq: int) -> None:
        if self.access_log is None:
            return
        try:
            tenant = self._authenticate(headers)
        except AuthenticationError:
            tenant = None
        peer = writer.get_extra_info("peername")
        try:
            self.access_log({
                "ts": round(time.time(), 6),
                "remote": "{}:{}".format(peer[0], peer[1])
                if isinstance(peer, tuple) and len(peer) >= 2 else str(peer),
                "method": method,
                "path": path,
                "status": status,
                "elapsed_ms": round(
                    (time.perf_counter() - started) * 1000.0, 3),
                "bytes": sent,
                "tenant": tenant,
                "request_on_connection": seq,
            })
        except Exception:  # pragma: no cover - logging must never kill serving
            pass

    async def _read_request(
            self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, str], bytes]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                # EOF before any bytes: the peer closed (normal between
                # keep-alive requests) — not a protocol error.
                raise _ConnectionClosed() from exc
            raise
        except asyncio.LimitOverrunError as exc:
            raise BadRequestError("request head too large") from exc
        lines = head[:-4].decode("latin-1").split("\r\n")
        request_line = lines[0].strip()
        if not request_line:
            raise BadRequestError("empty request")
        parts = request_line.split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise BadRequestError("malformed request line")
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            key, colon, value = line.partition(":")
            if colon:
                headers[key.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError as exc:
            raise BadRequestError("bad Content-Length") from exc
        if length < 0:
            raise BadRequestError("bad Content-Length")
        if length > self.max_body:
            raise PayloadTooLargeError(
                "body of {} bytes exceeds the {} byte limit".format(
                    length, self.max_body))
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: Union[Dict[str, Any], bytes],
                       extra_headers: Optional[Dict[str, str]] = None,
                       keep_alive: bool = False) -> int:
        """Write one response; returns the body's length.

        A ``bytes`` payload is a binary body.  A dict is JSON, and may
        carry its ``pairs`` / ``blocks`` (or each ``results[i]``'s) as a
        pre-encoded fragment, which
        :func:`~repro.service.wire.encode_reply` writes out verbatim.
        """
        if isinstance(payload, bytes):
            data, content_type = payload, "application/octet-stream"
        else:
            data, content_type = encode_reply(payload)
        head = ["HTTP/1.1 {} {}".format(status,
                                        _STATUS_TEXT.get(status, "Status")),
                "Content-Type: {}".format(content_type),
                "Content-Length: {}".format(len(data))]
        if keep_alive:
            head.append("Connection: keep-alive")
            head.append("Keep-Alive: timeout={:g}, max={}".format(
                self.keepalive_idle_timeout, self.keepalive_max_requests))
        else:
            head.append("Connection: close")
        for key, value in (extra_headers or {}).items():
            head.append("{}: {}".format(key, value))
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                     + data)
        await writer.drain()
        return len(data)

    # -- routing -------------------------------------------------------

    async def _dispatch(self, method: str, path: str,
                        headers: Dict[str, str], body: bytes
                        ) -> Tuple[int, Union[Dict[str, Any], bytes],
                                   Dict[str, str]]:
        """Route, and turn any failure into its reply by the one table
        (:data:`repro.service.wire.ERROR_CONTRACT`)."""
        try:
            return await self._route(method, path, headers, body)
        except Exception as error:
            return error_reply(error)

    #: ``(method, action)`` of ``/v1/graphs/{name}/{action}`` -> the method
    #: that serves it; anything else is a route miss (404).
    _ACTIONS = {
        ("POST", "query"): "_action_query",
        ("POST", "explain"): "_action_explain",
        ("GET", "stats"): "_action_stats",
        ("POST", "mutate"): "_action_mutate",
        ("POST", "checkpoint"): "_action_checkpoint",
    }

    async def _route(self, method: str, path: str,
                     headers: Dict[str, str], body: bytes
                     ) -> Tuple[int, Union[Dict[str, Any], bytes],
                                Dict[str, str]]:
        """The one routing ladder; what differs per server is in the
        ``_readiness`` / ``_graph_listing`` / ``_resolve`` /
        ``_response_headers`` hooks and the ``_ACTIONS`` table."""
        started = time.perf_counter()
        path, params = self._split_target(path)
        if path == "/healthz" and method == "GET":
            return 200, {"status": "ok"}, {}
        if path == "/readyz" and method == "GET":
            ready_now, detail = self._readiness()
            if ready_now:
                return 200, detail, self._response_headers(None)
            return 503, dict(detail, retriable=True), \
                dict(self._response_headers(None), **{"Retry-After": "1"})
        tenant = self._authenticate(headers)
        if path == "/v1/graphs" and method == "GET":
            return 200, self._graph_listing(), self._response_headers(None)
        if path.startswith("/replication/"):
            return await self._route_replication(method, path, params)
        name, runner = self._graph_route(method, path)
        with self._resolve(name, tenant) as handle:
            payload = await self._run_action(
                handle, runner, self._parse_body(body), tenant, headers)
            extra = self._response_headers(
                handle, payload.pop(_ANSWER_VERSION, None))
        payload.setdefault("elapsed_ms", round(
            (time.perf_counter() - started) * 1000.0, 3))
        return 200, payload, extra

    # -- per-server hooks ----------------------------------------------

    def _readiness(self) -> Tuple[bool, Dict[str, Any]]:
        """``(ready, /readyz body)``; the body carries its ``status``."""
        ready_now, detail = self.registry.readiness()
        return ready_now, dict(
            detail, status="ready" if ready_now else "unready")

    def _graph_listing(self) -> Dict[str, Any]:
        return {"graphs": self.registry.list_graphs(),
                "stats": self.registry.stats()}

    @contextmanager
    def _resolve(self, name: str, tenant: str) -> Iterator[Any]:
        """Admit the tenant and hold graph ``name`` for one request."""
        admission = self.registry.admit(tenant)
        try:
            handle = self.registry.acquire(name)
            try:
                yield handle
            finally:
                self.registry.release(name)
        finally:
            admission.release()

    def _response_headers(self, handle: Any,
                          version: Optional[int] = None) -> Dict[str, str]:
        """Headers for a 200 (``handle`` is None outside a graph scope);
        ``version`` is a query answer's, else the graph's current one."""
        if handle is None:
            return {}
        return {"X-Repro-Graph-Version": str(
            handle.engine.graph.version() if version is None else version)}

    @staticmethod
    def _split_target(target: str) -> Tuple[str, Dict[str, str]]:
        parts = urlsplit(target)
        return parts.path, dict(parse_qsl(parts.query))

    # -- replication feed (primary side) -------------------------------

    async def _route_replication(self, method: str, path: str,
                                 params: Dict[str, str]
                                 ) -> Tuple[int, bytes, Dict[str, str]]:
        """A feed read's bytes, and its ``meta`` as headers; a store not
        serving its log is refused by :class:`PrimaryFeed` itself (400)."""
        action = path[len("/replication/"):]
        if method != "GET" or action not in FEED_FIELDS:
            raise RouteNotFoundError(method, path)
        name = params.get("graph", "")
        if not name:
            names = self.registry.list_graphs()
            if len(names) != 1:
                raise BadRequestError(
                    "graph parameter required ({} graphs "
                    "served)".format(len(names)))
            name = names[0]
        handle = self.registry.acquire(name)
        try:
            feed = PrimaryFeed(handle.store)
            args: Tuple[Any, ...] = ()
            if action == "wal":
                cursor = params.get("cursor", "")
                if not cursor:
                    raise BadRequestError("cursor parameter required")
                try:
                    ReplicationCursor.parse(cursor)
                except ReplicationError as exc:
                    # A malformed token is the client's bug (400), not a
                    # transient feed failure (503).
                    raise BadRequestError(str(exc)) from exc
                try:
                    max_bytes = min(MAX_SHIP_BYTES,
                                    int(params.get("max_bytes", 1 << 20)))
                except ValueError as exc:
                    raise BadRequestError("bad max_bytes") from exc
                if max_bytes <= 0:
                    raise BadRequestError("max_bytes must be positive")
                args = (cursor, max_bytes)
            # The feed's method is named after its action.
            data, meta = await asyncio.get_running_loop().run_in_executor(
                None, getattr(feed, action), *args)
            return 200, data, feed_headers(action, meta)
        finally:
            self.registry.release(name)

    def _authenticate(self, headers: Dict[str, str]) -> str:
        if not self.tokens:
            return "anonymous"
        authorization = headers.get("authorization", "")
        scheme, _, token = authorization.partition(" ")
        if scheme.lower() != "bearer" or token.strip() not in self.tokens:
            raise AuthenticationError(
                "missing or unknown bearer token")
        return self.tokens[token.strip()]

    def _graph_route(self, method: str, path: str) -> Tuple[str, str]:
        """``(graph name, serving method)`` of
        ``/v1/graphs/{name}/{action}``; anything else is a route miss."""
        parts = [p for p in path.split("/") if p]
        if len(parts) == 4 and parts[0] == "v1" and parts[1] == "graphs" \
                and (method, parts[3]) in self._ACTIONS:
            return parts[2], self._ACTIONS[method, parts[3]]
        raise RouteNotFoundError(method, path)

    def _parse_body(self, body: bytes) -> Dict[str, Any]:
        if not body:
            return {}
        try:
            parsed = _BODY_DECODER.decode(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise BadRequestError(
                "body is not valid JSON: {}".format(exc)) from exc
        if not isinstance(parsed, dict):
            raise BadRequestError("body must be a JSON object")
        return parsed

    # -- actions -------------------------------------------------------

    async def _run_action(self, handle: Any, runner: str,
                          body: Dict[str, Any], tenant: str,
                          headers: Dict[str, str]) -> Dict[str, Any]:
        return await getattr(self, runner)(handle, body, tenant, headers)

    @staticmethod
    def _deadline_of(body: Dict[str, Any]) -> Optional[float]:
        deadline_ms = body.get("deadline_ms")
        if deadline_ms is None:
            return None
        if isinstance(deadline_ms, bool) \
                or not isinstance(deadline_ms, (int, float)) \
                or deadline_ms <= 0:
            raise BadRequestError("deadline_ms must be a positive number")
        return float(deadline_ms) / 1000.0

    @staticmethod
    def _integer_of(body: Dict[str, Any], key: str, minimum: int,
                    maximum: Optional[int] = None) -> Optional[int]:
        value = body.get(key)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int) \
                or value < minimum:
            raise BadRequestError(
                "{} must be an integer >= {}".format(key, minimum))
        if maximum is not None and value > maximum:
            raise BadRequestError(
                "{} must be an integer <= {}".format(key, maximum))
        return value

    @staticmethod
    def _endpoints_of(body: Dict[str, Any], key: str) -> Optional[frozenset]:
        value = body.get(key)
        if value is None:
            return None
        if not isinstance(value, list) \
                or not all(_is_id(v) for v in value):
            raise BadRequestError(
                "{} must be a list of non-null scalar vertices".format(key))
        return frozenset(value)

    def _query_envelope(self, handle: Any, tenant: str) -> Dict[str, Any]:
        """The fields every query reply opens with."""
        return {"graph": handle.name, "tenant": tenant}

    def _read_options(self, body: Dict[str, Any]) -> Dict[str, Any]:
        """The validated evaluation options of a query body."""
        return {"deadline": self._deadline_of(body),
                "sources": self._endpoints_of(body, "sources"),
                "targets": self._endpoints_of(body, "targets"),
                "max_length": self._integer_of(body, "max_length", 0),
                # Each worker is a forked process: the wire may ask for
                # at most the executor's cap.
                "processes": self._integer_of(body, "processes", 1,
                                              MAX_WORKERS)}

    async def _action_query(self, handle: Any, body: Dict[str, Any],
                            tenant: str,
                            headers: Dict[str, str]) -> Dict[str, Any]:
        """One query or a batch.  Each answer goes out as its pre-encoded
        fragment, under ``blocks`` when the request's ``Accept`` asks for
        them and the answer allows it, else under ``pairs`` (see
        :mod:`repro.service.wire`)."""
        options = self._read_options(body)
        blocks = wants_blocks(headers.get("accept", ""))
        payload = self._query_envelope(handle, tenant)
        if "queries" in body:
            queries = body["queries"]
            if not isinstance(queries, list) or not all(
                    isinstance(q, str) for q in queries):
                raise BadRequestError(
                    "queries must be a list of PathQL strings")
            served = await handle.async_engine.served_pairs_batch(
                queries, blocks=blocks, **options)
            payload["results"] = [
                {"query": q, "count": len(s.answer), s.key: s.fragment}
                for q, s in zip(queries, served)]
            if served:
                payload[_ANSWER_VERSION] = served[0].version
            return payload
        query = body.get("query")
        if not isinstance(query, str):
            raise BadRequestError('body must carry "query" (PathQL text)')
        answer, key, fragment, cached, version = \
            await handle.async_engine.served_pairs(query, blocks=blocks,
                                                   **options)
        payload.update(query=query, count=len(answer))
        if cached is not None:
            payload["cached"] = cached
        payload[key] = fragment
        payload[_ANSWER_VERSION] = version
        return payload

    async def _action_explain(self, handle: GraphHandle,
                              body: Dict[str, Any],
                              tenant: str,
                              headers: Dict[str, str]) -> Dict[str, Any]:
        query = body.get("query")
        if not isinstance(query, str):
            raise BadRequestError('body must carry "query" (PathQL text)')
        # /query's options, read the same way: EXPLAIN describes the
        # request /query would run.
        text = await handle.async_engine.explain(
            query, **self._read_options(body))
        return {"graph": handle.name, "query": query, "explain": text}

    async def _action_stats(self, handle: GraphHandle,
                            body: Dict[str, Any],
                            tenant: str,
                            headers: Dict[str, str]) -> Dict[str, Any]:
        return {"graph": handle.name, "info": handle.info(),
                "registry": self.registry.stats()}

    async def _action_mutate(self, handle: GraphHandle,
                             body: Dict[str, Any],
                             tenant: str,
                             headers: Dict[str, str]) -> Dict[str, Any]:
        additions = body.get("add_edges", [])
        removals = body.get("remove_edges", [])
        for triples, label_ in ((additions, "add_edges"),
                                (removals, "remove_edges")):
            # Checked whole before apply() touches the graph: a refused
            # batch must leave nothing of itself behind.
            if not isinstance(triples, list) or not all(
                    isinstance(t, list) and len(t) == 3
                    and all(_is_id(member) for member in t)
                    for t in triples):
                raise BadRequestError(
                    "{} must be a list of [tail, label, head] triples "
                    "of non-null JSON scalars".format(label_))
        if not additions and not removals:
            raise BadRequestError(
                "mutate body carries no add_edges/remove_edges")

        def apply(graph: Any) -> Dict[str, int]:
            added = removed = 0
            for tail, label, head in additions:
                graph.add_edge(tail, label, head)
                added += 1
            for tail, label, head in removals:
                if graph.has_edge(tail, label, head):
                    graph.remove_edge(tail, label, head)
                    removed += 1
            # Read inside the writer slot: once it is released another
            # write may commit, and its version is not this batch's.
            return {"added": added, "removed": removed,
                    "version": graph.version()}

        outcome = await handle.async_engine.mutate(
            apply, deadline=self._deadline_of(body))
        outcome.update(graph=handle.name)
        outcome[_ANSWER_VERSION] = outcome["version"]
        return outcome

    async def _action_checkpoint(self, handle: GraphHandle,
                                 body: Dict[str, Any],
                                 tenant: str,
                                 headers: Dict[str, str]) -> Dict[str, Any]:
        info = await handle.checkpoint(deadline=self._deadline_of(body))
        # The folded generation's version, taken in the writer slot.
        version = info["snapshot_version"]
        return {"graph": handle.name, "info": info, "version": version,
                _ANSWER_VERSION: version}


class ReplicaHttpServer(HttpServer):
    """The read-only HTTP front end of one tailing replica.

    Same wire protocol and error contract as :class:`HttpServer` minus
    everything that writes: ``query`` reads (there is no ``explain``)
    run through ``AsyncEngine(Engine(replica))`` — the primary's route,
    planner, pre-flight, DFA cache, result cache and ``deadline_ms``
    handling — over the replica's applied state, so every shape answers
    as the primary's does, and an oversized repeat or ``max_length`` is
    the same **400** (:class:`~repro.errors.QueryTooLargeError`).
    ``mutate``/``checkpoint`` get **403** (:class:`~repro.errors.ReplicaReadOnlyError` — promote
    first), and
    ``/readyz`` reports *catching-up* (503) until the tailer has caught
    up at least once and is currently healthy.

    Every graph-scoped response carries
    ``X-Repro-Replica-Lag: records=N; seconds=S`` and
    ``X-Repro-Graph-Version`` (a ``/query`` answer's applied version —
    the facade holds the replica ``pinned()`` across a worker-side read
    and a whole batch — else the current one).  A request may
    bound its tolerated staleness with ``max_staleness_ms`` in the body
    (or the ``X-Repro-Max-Staleness-Ms`` header): when the replica's
    uncertainty window exceeds the bound the request gets **503** with
    ``Retry-After`` instead of a silently stale answer.
    """

    _ACTIONS = {
        ("POST", "query"): "_action_query",
        ("GET", "stats"): "_action_stats",
        ("POST", "mutate"): "_read_only",
        ("POST", "checkpoint"): "_read_only",
    }

    def __init__(self, replica: Any, tailer: Optional[Any] = None,
                 **options: Any):
        """``options`` are :class:`HttpServer`'s (tokens, limits, log)."""
        super().__init__(None, **options)  # type: ignore[arg-type]
        self.replica = replica
        self.tailer = tailer
        self.async_engine = AsyncEngine(
            Engine(replica, cache=QueryCache(256)))

    async def stop(self, deadline: Optional[float] = 30.0) -> None:
        """Stop accepting, drain and close the engine; the caller owns
        the replica's lifecycle."""
        await self.stop_listening()
        await self.async_engine.aclose(deadline=deadline)

    # -- per-server hooks ----------------------------------------------

    def _readiness(self) -> Tuple[bool, Dict[str, Any]]:
        state = self.tailer.state() if self.tailer is not None else {
            "ready": True, "phase": "ready"}
        ready_now = bool(state.get("ready"))
        return ready_now, dict(
            state, status="ready" if ready_now
            else state.get("phase", "catching-up"))

    def _graph_listing(self) -> Dict[str, Any]:
        return {"graphs": [self.replica.graph_name],
                "replica": self.replica.info()}

    @contextmanager
    def _resolve(self, name: str, tenant: str) -> Iterator[Any]:
        # The server is its one graph's handle: the inherited query
        # action reads ``handle.async_engine``.
        if name != self.replica.graph_name:
            raise UnknownGraphError(name)
        yield self

    def _response_headers(self, handle: Any,
                          version: Optional[int] = None) -> Dict[str, str]:
        return {"X-Repro-Replica-Lag": replica_lag_header(*self.replica.lag()),
                "X-Repro-Graph-Version": str(
                    self.replica.applied_version if version is None
                    else version)}

    async def _route_replication(self, method: str, path: str,
                                 params: Dict[str, str]
                                 ) -> Tuple[int, bytes, Dict[str, str]]:
        raise RouteNotFoundError(method, path)  # a replica serves no feed

    async def _run_action(self, handle: Any, runner: str,
                          body: Dict[str, Any], tenant: str,
                          headers: Dict[str, str]) -> Dict[str, Any]:
        bound = self._staleness_bound(headers, body)
        if bound is not None:
            self.replica.check_staleness(bound)
        return await super()._run_action(handle, runner, body, tenant,
                                         headers)

    @staticmethod
    def _staleness_bound(headers: Dict[str, str],
                         body: Dict[str, Any]) -> Optional[float]:
        value = body.get("max_staleness_ms",
                         headers.get("x-repro-max-staleness-ms"))
        if value is None:
            return None
        if isinstance(value, str):
            try:
                value = float(value)
            except ValueError as exc:
                raise BadRequestError(
                    "max_staleness_ms must be a number") from exc
        # bool is an int, and NaN compares false with every bound: refuse
        # both, and infinity, rather than serve past a bound never checked.
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not 0 <= value < float("inf"):
            raise BadRequestError("max_staleness_ms must be a finite "
                                  "non-negative number")
        return float(value)

    async def _read_only(self, handle: Any, body: Dict[str, Any],
                         tenant: str,
                         headers: Dict[str, str]) -> Dict[str, Any]:
        raise ReplicaReadOnlyError(self.replica.directory)

    async def _action_stats(self, handle: Any, body: Dict[str, Any],
                            tenant: str,
                            headers: Dict[str, str]) -> Dict[str, Any]:
        payload = {"graph": self.replica.graph_name,
                   "info": self.replica.info()}
        if self.tailer is not None:
            payload["tailer"] = self.tailer.state()
        return payload

    def _query_envelope(self, handle: Any, tenant: str) -> Dict[str, Any]:
        return {"graph": self.replica.graph_name, "tenant": tenant,
                "replica": True}


async def serve(root: str, host: str = "127.0.0.1", port: int = 8080,
                tokens: Optional[Dict[str, str]] = None,
                registry: Optional[GraphRegistry] = None,
                ready: Optional[Callable[[str, int], None]] = None,
                stop_event: Optional[asyncio.Event] = None,
                access_log: Optional[AccessLog] = None,
                **registry_options: Any) -> None:
    """Run the HTTP server until ``stop_event`` is set.

    ``ready(host, port)`` fires once the socket is bound (the CLI prints
    the endpoint; tests grab the ephemeral port).  Shutdown is graceful:
    stop accepting, drain in-flight queries, flush and close every store.
    """
    own_registry = registry is None
    if registry is None:
        registry = GraphRegistry(root, **registry_options)
    server = HttpServer(registry, tokens=tokens, access_log=access_log)
    bound_host, bound_port = await server.start(host=host, port=port)
    if ready is not None:
        ready(bound_host, bound_port)
    if stop_event is None:
        stop_event = asyncio.Event()
    try:
        await stop_event.wait()
    finally:
        if own_registry:
            await server.stop()
        else:
            await server.stop_listening()


async def serve_replica(directory: str, primary_url: str,
                        host: str = "127.0.0.1", port: int = 8080,
                        graph: Optional[str] = None,
                        tokens: Optional[Dict[str, str]] = None,
                        primary_token: Optional[str] = None,
                        poll_interval: float = 0.2,
                        ready: Optional[Callable[[str, int], None]] = None,
                        stop_event: Optional[asyncio.Event] = None,
                        access_log: Optional[AccessLog] = None,
                        seed: int = 0) -> None:
    """Run a tailing read replica of ``primary_url`` until stopped.

    Bootstraps ``directory`` from the primary's snapshot on first run
    (reopens and resumes from the local cursor afterwards), tails the
    WAL feed on a background thread over one keep-alive connection, and
    serves read-only queries throughout — including while catching up
    (``/readyz`` says so).  ``repro serve --replica-of URL`` lands here.
    """
    client = ReproClient(primary_url, token=primary_token,
                         keep_alive=True, jitter_seed=seed)
    source = RemoteFeed(client, graph=graph)
    loop = asyncio.get_running_loop()
    # Bootstrap blocks on the primary (snapshot fetch + CRC verify) —
    # run it off-loop so a primary served by this same loop (tests,
    # single-process demos) cannot deadlock it.
    if os.path.exists(os.path.join(directory, REPLICA_META_NAME)):
        replica = await loop.run_in_executor(None, ReplicaGraph.open,
                                             directory)
    else:
        replica = await loop.run_in_executor(
            None, lambda: ReplicaGraph.bootstrap(directory, source,
                                                 primary=primary_url))
    tailer = ReplicaTailer(replica, source, poll_interval=poll_interval,
                           seed=seed)
    tail_stop = threading.Event()
    tail_thread = threading.Thread(
        target=tailer.run, args=(tail_stop,),
        name="repro-replica-tail", daemon=True)
    tail_thread.start()
    server = ReplicaHttpServer(replica, tailer, tokens=tokens,
                               access_log=access_log)
    bound_host, bound_port = await server.start(host=host, port=port)
    if ready is not None:
        ready(bound_host, bound_port)
    if stop_event is None:
        stop_event = asyncio.Event()
    try:
        await stop_event.wait()
    finally:
        await server.stop()
        tail_stop.set()
        tail_thread.join(timeout=10.0)
        replica.close()
        client.close()
