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
                                                     sorted pair list,
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
``X-Repro-*`` headers (snapshot version, start/next cursor, primary
version, intended byte count).  They are only served by
``repro serve --replicate``; see ``docs/replication.md``.
A cursor that has fallen off the retained log gets **410 Gone** — the
replica must re-bootstrap, retrying is pointless.

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
is the answer as a JSON list sorted by ``repr``; it is sorted and encoded
once per cached answer (:mod:`repro.service.wire`), in the worker thread
that computed it, and a cache hit splices those bytes into the response.

Auth and backoff contract
-------------------------
``tokens`` maps bearer tokens to tenant names; requests must send
``Authorization: Bearer <token>`` (pass no tokens to run open, every
caller the ``"anonymous"`` tenant).  Error mapping:

* 401 — missing/unknown token (``WWW-Authenticate: Bearer``),
* 404 — unknown graph name,
* 400 — malformed body, PathQL syntax/compile errors,
* 413 — request body over the size cap (``retriable: false`` — the same
  payload will never fit; resending it is pointless),
* 429 — shed by admission control or tenant quota; the ``Retry-After``
  header carries the backoff seconds to wait before retrying,
* 503 — the store is in read-only degraded mode (WAL write failed);
  queries still serve, mutations are refused with ``retriable: true``
  and ``Retry-After`` — a checkpoint heals the store (see
  ``docs/robustness.md``),
* 504 — the request's ``deadline_ms`` expired (queued or running); retry
  with a larger budget or at lower load,
* 500 — anything else (the body names the exception class).

``GET /readyz`` (no auth) distinguishes *ready* from merely live: 200
only while the registry is open, no open store is degraded, and every
parallel pool is healthy; otherwise 503 with the failing checks listed.

Every response carries ``X-Repro-Graph-Version`` when a graph was
resolved, so clients can correlate answers with mutation versions.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union
from urllib.parse import parse_qsl, urlsplit

from repro.replication import REPLICA_META_NAME

from repro.engine.parallel import MAX_WORKERS
from repro.errors import (
    AuthenticationError,
    DeadlineExceededError,
    OverloadedError,
    PathAlgebraError,
    ReplicaReadOnlyError,
    ReplicaStaleError,
    ReplicationCorruptionError,
    ReplicationCursorGapError,
    ReplicationError,
    ServiceError,
    StorageError,
    StoreDegradedError,
    UnknownGraphError,
)
from repro.faults import fault_hook
from repro.service.registry import GraphHandle, GraphRegistry
from repro.service.wire import ServedPairs, encode_payload, serve_pairs

__all__ = ["HttpServer", "ReplicaHttpServer", "serve", "serve_replica"]

#: Largest accepted request body; bigger payloads get a 413.
MAX_BODY_BYTES = 4 * 1024 * 1024

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
    404: "Not Found", 405: "Method Not Allowed", 410: "Gone",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: An access-log sink: receives one JSON-ready dict per served request.
AccessLog = Callable[[Dict[str, Any]], None]


class _BadRequest(ServiceError):
    """Malformed request framing or body (HTTP 400)."""


class _PayloadTooLarge(_BadRequest):
    """Request body over ``max_body`` (HTTP 413, never retriable)."""


def _is_scalar(value: Any) -> bool:
    """Vertex and label ids are JSON scalars — what the log can hold
    (:func:`repro.storage.frames.check_loggable`) and a set can hash; of
    a parsed JSON body only lists and objects are not."""
    return not isinstance(value, (list, dict))


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
            except _PayloadTooLarge as error:
                await self._respond(writer, 413,
                                    {"error": str(error),
                                     "retriable": False})
                return
            except (_BadRequest, asyncio.IncompleteReadError,
                    ConnectionError) as error:
                if transport.is_closing():
                    return  # the watchdog fired: nobody left to tell
                await self._respond(writer, 400,
                                    {"error": str(error)
                                     or "bad request",
                                     "retriable": False})
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
            raise _BadRequest("request head too large") from exc
        lines = head[:-4].decode("latin-1").split("\r\n")
        request_line = lines[0].strip()
        if not request_line:
            raise _BadRequest("empty request")
        parts = request_line.split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _BadRequest("malformed request line")
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            key, colon, value = line.partition(":")
            if colon:
                headers[key.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError as exc:
            raise _BadRequest("bad Content-Length") from exc
        if length < 0:
            raise _BadRequest("bad Content-Length")
        if length > self.max_body:
            raise _PayloadTooLarge(
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
        carry its ``pairs`` (or each ``results[i]["pairs"]``) as a
        pre-encoded fragment, which
        :func:`~repro.service.wire.encode_payload` writes out verbatim.
        """
        if isinstance(payload, bytes):
            data, content_type = payload, "application/octet-stream"
        else:
            data = encode_payload(payload)
            content_type = "application/json"
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
        """Route and map every failure to its documented status code."""
        try:
            return await self._route(method, path, headers, body)
        except AuthenticationError as error:
            return 401, {"error": str(error), "retriable": False}, \
                {"WWW-Authenticate": "Bearer"}
        except UnknownGraphError as error:
            return 404, {"error": str(error), "retriable": False}, {}
        except DeadlineExceededError as error:
            return 504, {"error": str(error), "retriable": True,
                         "phase": error.phase}, {}
        except OverloadedError as error:
            # The backoff contract: 429 + Retry-After, client retries
            # with jittered exponential backoff from that floor.
            return 429, {"error": str(error), "retriable": True,
                         "retry_after": error.retry_after}, \
                {"Retry-After": "{:g}".format(error.retry_after)}
        except _BadRequest as error:
            return 400, {"error": str(error), "retriable": False}, {}
        except ReplicaReadOnlyError as error:
            # A mutation sent to a replica: refusing is permanent until
            # the operator promotes, so 403, never retried.
            return 403, {"error": str(error), "retriable": False,
                         "replica": True, "read_only": True}, {}
        except ReplicationCursorGapError as error:
            # The cursor fell off the retained log; re-asking with the
            # same cursor can never succeed — the replica re-bootstraps.
            return 410, {"error": str(error), "retriable": False,
                         "rebootstrap": True, "cursor": error.cursor,
                         "first_retained": error.retained}, {}
        except ReplicaStaleError as error:
            return 503, {"error": str(error), "retriable": True,
                         "stale": True,
                         "lag_records": error.lag_records,
                         "lag_seconds": error.lag_seconds,
                         "retry_after": error.retry_after}, \
                {"Retry-After": "{:g}".format(error.retry_after),
                 "X-Repro-Replica-Lag": "records={}; seconds={:.3f}".format(
                     error.lag_records, error.lag_seconds)}
        except ReplicationCorruptionError as error:
            return 500, {"error": str(error), "retriable": False,
                         "type": type(error).__name__}, {}
        except ReplicationError as error:
            # Transient feed failure (e.g. an injected ship fault):
            # retriable, same contract as a degraded store.
            return 503, {"error": str(error), "retriable": True}, \
                {"Retry-After": "1"}
        except StoreDegradedError as error:
            # Must precede PathAlgebraError: StoreDegradedError is a
            # StorageError and would otherwise map to a terminal 400.
            # Degradation is transient — a checkpoint heals the store —
            # so the contract is 503 + Retry-After, client may retry.
            return 503, {"error": str(error), "retriable": True,
                         "degraded": True,
                         "retry_after": error.retry_after}, \
                {"Retry-After": "{:g}".format(error.retry_after)}
        except PathAlgebraError as error:
            return 400, {"error": str(error), "retriable": False,
                         "type": type(error).__name__}, {}
        except Exception as error:  # pragma: no cover - defensive surface
            return 500, {"error": str(error), "retriable": False,
                         "type": type(error).__name__}, {}

    #: ``(method, action)`` of ``/v1/graphs/{name}/{action}`` -> the method
    #: that serves it; anything else is a 404.
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
        name, action = self._parse_graph_path(path)
        with self._resolve(name, tenant) as handle:
            payload = await self._run_action(
                handle, method, action, self._parse_body(body), tenant,
                headers)
            extra = self._response_headers(handle)
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

    def _response_headers(self, handle: Any) -> Dict[str, str]:
        """Headers for a 200 (``handle`` is None outside a graph scope)."""
        if handle is None:
            return {}
        return {"X-Repro-Graph-Version": str(handle.engine.graph.version())}

    @staticmethod
    def _split_target(target: str) -> Tuple[str, Dict[str, str]]:
        parts = urlsplit(target)
        return parts.path, dict(parse_qsl(parts.query))

    # -- replication feed (primary side) -------------------------------

    async def _route_replication(self, method: str, path: str,
                                 params: Dict[str, str]
                                 ) -> Tuple[int, bytes, Dict[str, str]]:
        action = path[len("/replication/"):]
        if method != "GET" or action not in ("snapshot", "wal"):
            raise UnknownGraphError("{} {}".format(method, path))
        name = params.get("graph", "")
        if not name:
            names = self.registry.list_graphs()
            if len(names) != 1:
                raise _BadRequest(
                    "graph parameter required ({} graphs "
                    "served)".format(len(names)))
            name = names[0]
        from repro.replication import PrimaryFeed
        loop = asyncio.get_running_loop()
        handle = self.registry.acquire(name)
        try:
            if not handle.store.replicating:
                raise _BadRequest(
                    "store {!r} does not serve its log; serve with "
                    "--replicate to ship replication".format(name))
            feed = PrimaryFeed(handle.store)
            if action == "snapshot":
                data, meta = await loop.run_in_executor(
                    None, feed.snapshot)
                return 200, data, {
                    "X-Repro-Graph-Name": str(meta["graph"]),
                    "X-Repro-Snapshot": str(meta["snapshot"]),
                    "X-Repro-Snapshot-Version":
                        str(meta["snapshot_version"]),
                    "X-Repro-Replication-Cursor": str(meta["cursor"]),
                    "X-Repro-Primary-Version": str(meta["version"]),
                    "X-Repro-Bytes": str(meta["bytes"]),
                }
            cursor = params.get("cursor", "")
            if not cursor:
                raise _BadRequest("cursor parameter required")
            try:
                from repro.storage.segments import ReplicationCursor
                ReplicationCursor.parse(cursor)
            except ReplicationError as exc:
                # A malformed token is the client's bug (400), not a
                # transient feed failure (503).
                raise _BadRequest(str(exc)) from exc
            try:
                max_bytes = min(MAX_SHIP_BYTES,
                                int(params.get("max_bytes", 1 << 20)))
            except ValueError as exc:
                raise _BadRequest("bad max_bytes") from exc
            if max_bytes <= 0:
                raise _BadRequest("max_bytes must be positive")
            data, meta = await loop.run_in_executor(
                None, feed.wal, cursor, max_bytes)
            return 200, data, {
                "X-Repro-Graph-Name": str(meta["graph"]),
                "X-Repro-Next-Cursor": str(meta["cursor"]),
                "X-Repro-At-End": "1" if meta["at_end"] else "0",
                "X-Repro-Primary-Version": str(meta["version"]),
                "X-Repro-Bytes": str(meta["bytes"]),
            }
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

    @staticmethod
    def _parse_graph_path(path: str) -> Tuple[str, str]:
        parts = [p for p in path.split("/") if p]
        # /v1/graphs/{name}/{action}
        if len(parts) == 4 and parts[0] == "v1" and parts[1] == "graphs":
            return parts[2], parts[3]
        raise UnknownGraphError(path)

    def _parse_body(self, body: bytes) -> Dict[str, Any]:
        if not body:
            return {}
        try:
            parsed = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise _BadRequest("body is not valid JSON: {}".format(exc)) \
                from exc
        if not isinstance(parsed, dict):
            raise _BadRequest("body must be a JSON object")
        return parsed

    # -- actions -------------------------------------------------------

    async def _run_action(self, handle: Any, method: str, action: str,
                          body: Dict[str, Any], tenant: str,
                          headers: Dict[str, str]) -> Dict[str, Any]:
        runner = self._ACTIONS.get((method, action))
        if runner is None:
            raise UnknownGraphError("{} {}".format(method, action))
        return await getattr(self, runner)(handle, body, tenant)

    @staticmethod
    def _deadline_of(body: Dict[str, Any]) -> Optional[float]:
        deadline_ms = body.get("deadline_ms")
        if deadline_ms is None:
            return None
        if isinstance(deadline_ms, bool) \
                or not isinstance(deadline_ms, (int, float)) \
                or deadline_ms <= 0:
            raise _BadRequest("deadline_ms must be a positive number")
        return float(deadline_ms) / 1000.0

    @staticmethod
    def _integer_of(body: Dict[str, Any], key: str, minimum: int,
                    maximum: Optional[int] = None) -> Optional[int]:
        value = body.get(key)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int) \
                or value < minimum:
            raise _BadRequest(
                "{} must be an integer >= {}".format(key, minimum))
        if maximum is not None and value > maximum:
            raise _BadRequest(
                "{} must be an integer <= {}".format(key, maximum))
        return value

    @staticmethod
    def _endpoints_of(body: Dict[str, Any], key: str) -> Optional[frozenset]:
        value = body.get(key)
        if value is None:
            return None
        if not isinstance(value, list) \
                or not all(_is_scalar(v) for v in value):
            raise _BadRequest(
                "{} must be a list of scalar vertices".format(key))
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

    async def _answer(self, handle: Any, query: str,
                      options: Dict[str, Any]) -> ServedPairs:
        return await handle.async_engine.served_pairs(query, **options)

    async def _answer_batch(self, handle: Any, queries: List[str],
                            options: Dict[str, Any]) -> List[ServedPairs]:
        return await handle.async_engine.served_pairs_batch(
            queries, **options)

    async def _action_query(self, handle: Any, body: Dict[str, Any],
                            tenant: str) -> Dict[str, Any]:
        """One query or a batch.  ``pairs`` goes out as the answer's
        pre-encoded fragment (see :mod:`repro.service.wire`)."""
        options = self._read_options(body)
        payload = self._query_envelope(handle, tenant)
        if "queries" in body:
            queries = body["queries"]
            if not isinstance(queries, list) or not all(
                    isinstance(q, str) for q in queries):
                raise _BadRequest("queries must be a list of PathQL strings")
            served = await self._answer_batch(handle, queries, options)
            payload["results"] = [
                {"query": q, "count": len(s.answer), "pairs": s.fragment}
                for q, s in zip(queries, served)]
            return payload
        query = body.get("query")
        if not isinstance(query, str):
            raise _BadRequest('body must carry "query" (PathQL text)')
        answer, fragment, cached = await self._answer(handle, query, options)
        payload.update(query=query, count=len(answer))
        if cached is not None:
            payload["cached"] = cached
        payload["pairs"] = fragment
        return payload

    async def _action_explain(self, handle: GraphHandle,
                              body: Dict[str, Any],
                              tenant: str) -> Dict[str, Any]:
        query = body.get("query")
        if not isinstance(query, str):
            raise _BadRequest('body must carry "query" (PathQL text)')
        # /query's options, read the same way: EXPLAIN describes the
        # request /query would run.
        text = await handle.async_engine.explain(
            query, **self._read_options(body))
        return {"graph": handle.name, "query": query, "explain": text}

    async def _action_stats(self, handle: GraphHandle,
                            body: Dict[str, Any],
                            tenant: str) -> Dict[str, Any]:
        return {"graph": handle.name, "info": handle.info(),
                "registry": self.registry.stats()}

    async def _action_mutate(self, handle: GraphHandle,
                             body: Dict[str, Any],
                             tenant: str) -> Dict[str, Any]:
        additions = body.get("add_edges", [])
        removals = body.get("remove_edges", [])
        for triples, label_ in ((additions, "add_edges"),
                                (removals, "remove_edges")):
            # Checked whole before apply() touches the graph: a refused
            # batch must leave nothing of itself behind.
            if not isinstance(triples, list) or not all(
                    isinstance(t, list) and len(t) == 3
                    and all(_is_scalar(member) for member in t)
                    for t in triples):
                raise _BadRequest(
                    "{} must be a list of [tail, label, head] triples "
                    "of JSON scalars".format(label_))
        if not additions and not removals:
            raise _BadRequest("mutate body carries no add_edges/remove_edges")

        def apply(graph: Any) -> Dict[str, int]:
            added = removed = 0
            for tail, label, head in additions:
                graph.add_edge(tail, label, head)
                added += 1
            for tail, label, head in removals:
                if graph.has_edge(tail, label, head):
                    graph.remove_edge(tail, label, head)
                    removed += 1
            return {"added": added, "removed": removed}

        outcome = await handle.async_engine.mutate(
            apply, deadline=self._deadline_of(body))
        outcome.update(graph=handle.name,
                       version=handle.engine.graph.version())
        return outcome

    async def _action_checkpoint(self, handle: GraphHandle,
                                 body: Dict[str, Any],
                                 tenant: str) -> Dict[str, Any]:
        info = await handle.checkpoint(deadline=self._deadline_of(body))
        return {"graph": handle.name, "info": info}


class ReplicaHttpServer(HttpServer):
    """The read-only HTTP front end of one tailing replica.

    Same wire protocol and error contract as :class:`HttpServer` minus
    everything that writes: ``query``/``explain-free`` reads serve from
    the replica's applied state, ``mutate``/``checkpoint`` get **403**
    (:class:`~repro.errors.ReplicaReadOnlyError` — promote first), and
    ``/readyz`` reports *catching-up* (503) until the tailer has caught
    up at least once and is currently healthy.

    Every graph-scoped response carries
    ``X-Repro-Replica-Lag: records=N; seconds=S`` and
    ``X-Repro-Graph-Version`` (the applied version).  A request may
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

    async def stop(self, deadline: Optional[float] = 30.0) -> None:
        """Stop accepting; the caller owns the replica's lifecycle."""
        await self.stop_listening()

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
        if name != self.replica.graph_name:
            raise UnknownGraphError(name)
        yield self.replica

    def _response_headers(self, handle: Any) -> Dict[str, str]:
        records, seconds = self.replica.lag()
        return {
            "X-Repro-Replica-Lag":
                "records={}; seconds={:.3f}".format(records, seconds),
            "X-Repro-Graph-Version": str(self.replica.applied_version),
        }

    async def _route_replication(self, method: str, path: str,
                                 params: Dict[str, str]
                                 ) -> Tuple[int, bytes, Dict[str, str]]:
        raise UnknownGraphError(path)  # a replica serves no feed

    async def _run_action(self, handle: Any, method: str, action: str,
                          body: Dict[str, Any], tenant: str,
                          headers: Dict[str, str]) -> Dict[str, Any]:
        bound = self._staleness_bound(headers, body)
        if bound is not None:
            self.replica.check_staleness(bound)
        return await super()._run_action(handle, method, action, body,
                                         tenant, headers)

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
                raise _BadRequest(
                    "max_staleness_ms must be a number") from exc
        if not isinstance(value, (int, float)) or value < 0:
            raise _BadRequest("max_staleness_ms must be a non-negative "
                              "number")
        return float(value)

    async def _read_only(self, handle: Any, body: Dict[str, Any],
                         tenant: str) -> Dict[str, Any]:
        raise ReplicaReadOnlyError(self.replica.directory)

    async def _action_stats(self, handle: Any, body: Dict[str, Any],
                            tenant: str) -> Dict[str, Any]:
        payload = {"graph": self.replica.graph_name,
                   "info": self.replica.info()}
        if self.tailer is not None:
            payload["tailer"] = self.tailer.state()
        return payload

    def _query_envelope(self, handle: Any, tenant: str) -> Dict[str, Any]:
        return {"graph": self.replica.graph_name, "tenant": tenant,
                "replica": True}

    def _read_options(self, body: Dict[str, Any]) -> Dict[str, Any]:
        for unsupported in ("max_length", "processes"):
            if body.get(unsupported) is not None:
                raise _BadRequest(
                    "{} is not supported on a replica".format(unsupported))
        return {"sources": self._endpoints_of(body, "sources"),
                "targets": self._endpoints_of(body, "targets")}

    async def _answer(self, handle: Any, query: str,
                      options: Dict[str, Any]) -> ServedPairs:
        from repro.engine.rewrite import normalize
        from repro.lang import parse
        from repro.rpq.evaluation import lower_to_constrained_query
        # Replicas run the compact pairs kernel only, so the query must
        # lower to a (possibly endpoint-bound) label RPQ — same fast path
        # the primary engine routes eligible queries through.
        constrained = lower_to_constrained_query(normalize(parse(query)))
        if constrained is None:
            raise _BadRequest(
                "query {!r} needs the bounded edge-set engine; a replica "
                "answers label-path pairs() queries only".format(query))
        merged = constrained.merge_filters(**options)
        if merged is None:  # a bound endpoint the caller's filter excludes
            return serve_pairs(frozenset())
        # Kernel and encode in one executor hop; a replica keeps no
        # result cache, so there is no hit to report.
        return await asyncio.get_running_loop().run_in_executor(
            None, lambda: serve_pairs(self.replica.pairs(
                constrained.label_expression, *merged)))

    async def _answer_batch(self, handle: Any, queries: List[str],
                            options: Dict[str, Any]) -> List[ServedPairs]:
        return [await self._answer(handle, q, options) for q in queries]


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
    import threading

    from repro.replication import ReplicaGraph, ReplicaTailer
    from repro.service.client import RemoteFeed, ReproClient

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
