"""``ReproClient`` — the retrying HTTP SDK for the serving tier.

Stdlib-only, over a plain socket: the client frames HTTP/1.1 the way the
server does (``docs/serving.md``, *Wire path*) — one ``sendall`` per
request, the reply head split by hand, exactly ``Content-Length`` body
bytes.  One connection per request unless ``keep_alive`` is set.  Every
request sends ``Accept: application/x-repro-pair-blocks+json``, so a
query's answer travels as the kernel's blocks whenever the server can
send them (:mod:`repro.service.wire`); ``query`` / ``query_batch`` hand
it back under ``"pairs"`` as a :class:`~repro.graph.pairs.PairBlocks`
either way.  The client owns the *retry half* of the service's backoff
contract (``docs/robustness.md``):

* **Only idempotent operations are retried** — ``query``, ``explain``,
  ``stats``, ``list_graphs``.  A query re-asked computes the same
  answer; a mutation re-sent may double-apply, so ``mutate`` and
  ``checkpoint`` raise on the *first* failure (including transport
  errors, where the outcome on the server is unknown).
* **Retriable failures** are the statuses the server's own table calls
  transient (:data:`~repro.service.wire.RETRIABLE_STATUSES`; the status
  table is in ``docs/serving.md``) and transport errors, which include
  a reply the client cannot frame or read
  (:class:`~repro.errors.WireProtocolError`).  Any other error status
  raises :class:`~repro.errors.RemoteQueryError` immediately.
* **Capped exponential backoff with jitter**: attempt *n* sleeps
  ``backoff_base * 2**n`` seconds, capped at ``backoff_cap``, then
  equal-jittered (half fixed, half uniform-random from a seedable RNG
  so tests are deterministic).  A ``Retry-After`` header (or
  ``retry_after`` body field) acts as a *floor*, never a ceiling — the
  server's guidance is the minimum politeness, not a promise the
  resource frees up exactly then.
* After ``max_retries`` failed retries the client gives up with
  :class:`~repro.errors.RetryBudgetExceededError`, whose ``attempts``
  trail records every ``(status_or_exception, slept)`` pair.

``sleeper`` and ``transport`` are injectable for tests: a recording
sleeper asserts the exact backoff sequence without waiting, and a
scripted transport replays canned ``(status, headers, body)`` answers.
"""

from __future__ import annotations

import json
import random
import re
import socket
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlencode, urlsplit

from repro.errors import (
    ClientError,
    RemoteQueryError,
    ReplicationCursorGapError,
    ReplicationError,
    RetryBudgetExceededError,
    WireProtocolError,
)
from repro.graph.pairs import PairBlocks
from repro.service.wire import (BLOCKS_TYPE, ERROR_CONTRACT,
                                RETRIABLE_STATUSES, decode_answer,
                                decode_batch, feed_meta)

__all__ = ["ReproClient", "RemoteFeed", "RETRIABLE_STATUSES"]

#: The status of a cursor that fell off the primary's retained log.
_CURSOR_GAP = ERROR_CONTRACT[ReplicationCursorGapError].status

#: ``transport(method, path, body) -> (status, lowercase headers, body)``.
Transport = Callable[[str, str, bytes],
                     Tuple[int, Dict[str, str], bytes]]

_HEAD_END = b"\r\n\r\n"

#: Largest reply head accepted, and the size of one ``recv``.
_MAX_HEAD_BYTES = 64 * 1024

#: What goes into a request head verbatim (target, host, token) must be
#: printable ASCII — a space or CR/LF could smuggle a second request line
#: into the one segment the client sends.
_NOT_PRINTABLE = re.compile(r"[^\x21-\x7e]")


def _read_reply(sock: socket.socket
                ) -> Tuple[int, Dict[str, str], bytes, bool]:
    """One reply off ``sock``: ``(status, headers, body, reusable)``.

    Accepts what ``HttpServer._respond`` emits (RFC 9112 section 6): a
    status line, ``name: value`` headers, then ``Content-Length`` body
    bytes — or, with no length, everything up to EOF.  Anything else is
    a :class:`~repro.errors.WireProtocolError`.  ``reusable`` says the
    connection may carry another request.
    """
    data = b""
    end = -1
    while end < 0:
        if len(data) > _MAX_HEAD_BYTES:
            raise WireProtocolError(
                "reply head exceeds {} bytes".format(_MAX_HEAD_BYTES))
        more = sock.recv(_MAX_HEAD_BYTES)
        if not more:
            raise WireProtocolError(
                "connection closed inside the reply head" if data
                else "connection closed before a reply")
        # The terminator may straddle two reads; one past the cap is
        # never found, so the next turn refuses the head.
        resume = max(0, len(data) - len(_HEAD_END) + 1)
        data += more
        end = data.find(_HEAD_END, resume,
                        _MAX_HEAD_BYTES + len(_HEAD_END))
    lines = data[:end].decode("latin-1").split("\r\n")
    version, _, rest = lines[0].partition(" ")
    code = rest[:3]
    if version not in ("HTTP/1.1", "HTTP/1.0") \
            or not (code.isascii() and code.isdigit() and len(code) == 3) \
            or rest[3:4] not in ("", " "):
        raise WireProtocolError(
            "malformed status line {!r}".format(lines[0][:80]))
    status = int(code)
    if status < 200:
        raise WireProtocolError(
            "interim {} reply is not supported".format(status))
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, colon, value = line.partition(":")
        if not colon:
            raise WireProtocolError(
                "malformed header line {!r}".format(line[:80]))
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise WireProtocolError(
            "transfer coding {!r} is not supported".format(
                headers["transfer-encoding"]))
    body = data[end + len(_HEAD_END):]
    framed = headers.get("content-length")
    if framed is None:
        # Close-delimited (HTTP/1.0 style): the body is all that follows.
        chunks = [body]
        while True:
            more = sock.recv(_MAX_HEAD_BYTES)
            if not more:
                return status, headers, b"".join(chunks), False
            chunks.append(more)
    if not (framed.isascii() and framed.isdigit()):
        raise WireProtocolError(
            "malformed Content-Length {!r}".format(framed[:80]))
    length = int(framed)
    if len(body) > length:
        raise WireProtocolError(
            "{} bytes follow a {} byte body".format(
                len(body) - length, length))
    if len(body) < length:
        buffer = bytearray(length)
        buffer[:len(body)] = body
        view = memoryview(buffer)
        filled = len(body)
        while filled < length:
            received = sock.recv_into(view[filled:])
            if not received:
                raise WireProtocolError(
                    "connection closed {} bytes into a {} byte "
                    "body".format(filled, length))
            filled += received
        body = bytes(buffer)
    reusable = version == "HTTP/1.1" \
        and headers.get("connection", "").lower() != "close"
    return status, headers, body, reusable


class ReproClient:
    """A client for one ``repro serve`` endpoint, with retry policy."""

    def __init__(self, base_url: str,
                 token: Optional[str] = None,
                 max_retries: int = 5,
                 backoff_base: float = 0.1,
                 backoff_cap: float = 5.0,
                 timeout: float = 30.0,
                 jitter_seed: Optional[int] = None,
                 sleeper: Callable[[float], None] = time.sleep,
                 transport: Optional[Transport] = None,
                 keep_alive: bool = False):
        parts = urlsplit(base_url if "//" in base_url
                         else "http://" + base_url)
        if parts.scheme != "http":
            raise ClientError(
                "unsupported URL scheme {!r} (http only)".format(
                    parts.scheme))
        self.host = parts.hostname or "127.0.0.1"
        if _NOT_PRINTABLE.search(self.host + (token or "")):
            raise ClientError("host and token must be printable ASCII")
        self.port = parts.port if parts.port is not None else 80
        self.token = token
        self.max_retries = max(0, max_retries)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.timeout = timeout
        self._rng = random.Random(jitter_seed)
        self._sleep = sleeper
        self._transport: Transport = transport or self._exchange
        self.keep_alive = keep_alive
        self._socket: Optional[socket.socket] = None
        # Everything of a request head that does not change per request.
        self._fixed_head = (
            " HTTP/1.1\r\nHost: {}:{}\r\n"
            "Content-Type: application/json\r\n"
            "Accept: {}\r\n"
            "Connection: {}\r\n{}Content-Length: ".format(
                "[{}]".format(self.host) if ":" in self.host else self.host,
                self.port, BLOCKS_TYPE,
                "keep-alive" if keep_alive else "close",
                "Authorization: Bearer {}\r\n".format(token)
                if token else ""))
        #: Total retries slept across this client's lifetime.
        self.retries_performed = 0

    # -- transport -----------------------------------------------------

    def _exchange(self, method: str, path: str,
                  body: bytes) -> Tuple[int, Dict[str, str], bytes]:
        """One request, one reply; the socket is kept only on keep-alive.

        Head and body leave in one ``sendall``.  The server caps requests
        per connection and reaps idle ones, so a kept connection going
        away mid-stream is routine — drop it and retry once on a fresh
        socket before surfacing the error (a fresh-socket failure is a
        real one the retry loop should see).
        """
        if _NOT_PRINTABLE.search(path):
            raise ClientError(
                "request target {!r} is not printable ASCII".format(path))
        request = "{} {}{}{}\r\n\r\n".format(
            method, path, self._fixed_head, len(body)).encode("ascii") + body
        for attempt in (0, 1):
            sock, self._socket = self._socket, None
            fresh = sock is None
            try:
                if sock is None:
                    sock = socket.create_connection(
                        (self.host, self.port), timeout=self.timeout)
                    sock.setsockopt(socket.IPPROTO_TCP,
                                    socket.TCP_NODELAY, 1)
                sock.sendall(request)
                status, headers, data, reusable = _read_reply(sock)
            except OSError:
                if sock is not None:
                    sock.close()
                if fresh or attempt:
                    raise
                continue
            if self.keep_alive and reusable:
                self._socket = sock
            else:
                sock.close()
            return status, headers, data
        raise AssertionError("unreachable")  # pragma: no cover

    def close(self) -> None:
        """Drop the kept keep-alive connection (if any)."""
        sock, self._socket = self._socket, None
        if sock is not None:
            sock.close()

    @staticmethod
    def _decode(data: bytes) -> Dict[str, Any]:
        """An error reply's body as a dict, ``{}`` when it is not one."""
        try:
            payload = json.loads(data.decode("utf-8")) if data else {}
        except (ValueError, UnicodeDecodeError):
            return {}
        return payload if isinstance(payload, dict) else {}

    @staticmethod
    def _success(data: bytes) -> Dict[str, Any]:
        """A success reply's body, which must be a JSON object: anything
        else is a :class:`~repro.errors.WireProtocolError`, never a
        silent empty answer."""
        try:
            payload = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise WireProtocolError(
                "success reply body is not JSON: {}".format(exc)) from exc
        if not isinstance(payload, dict):
            raise WireProtocolError(
                "success reply body is a JSON {}, not an object".format(
                    type(payload).__name__))
        return payload

    @staticmethod
    def _retry_after(headers: Dict[str, str],
                     payload: Dict[str, Any]) -> Optional[float]:
        value = headers.get("retry-after", payload.get("retry_after"))
        try:
            return float(value) if value is not None else None
        except (TypeError, ValueError):
            return None

    def _backoff(self, attempt: int,
                 retry_after: Optional[float]) -> float:
        delay = min(self.backoff_cap,
                    self.backoff_base * (2.0 ** attempt))
        # Equal jitter: half deterministic, half uniform — spreads a
        # thundering herd without ever halving below base politeness.
        delay = delay / 2.0 + self._rng.random() * (delay / 2.0)
        if retry_after is not None:
            delay = max(delay, retry_after)
        return delay

    # -- retry core ----------------------------------------------------

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None,
                 idempotent: bool = True,
                 operation: str = "request",
                 read: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]]
                 = None) -> Dict[str, Any]:
        """One operation under the retry policy.  A success's body goes
        through :meth:`_success` and then ``read``; either refusing it
        (:class:`~repro.errors.WireProtocolError`) is a transport error."""
        payload_bytes = json.dumps(body).encode("utf-8") \
            if body is not None else b""
        attempts: List[Tuple[Any, float]] = []
        last_status: Optional[int] = None
        last_error = "no attempt made"
        for attempt in range(self.max_retries + 1):
            retry_after: Optional[float] = None
            failure: Any
            try:
                status, headers, data = self._transport(
                    method, path, payload_bytes)
                if status < 400:
                    payload = self._success(data)
                    return read(payload) if read is not None else payload
            except OSError as exc:
                last_status = None
                last_error = "{}: {}".format(type(exc).__name__, exc)
                if not idempotent:
                    # The request may have been applied before the
                    # connection died; retrying could double-apply.
                    raise ClientError(
                        "{} hit a transport error and will not be "
                        "retried (non-idempotent): {}".format(
                            operation, last_error)) from exc
                failure = type(exc).__name__
            else:
                payload = self._decode(data)
                last_status = status
                last_error = "HTTP {}: {}".format(
                    status, payload.get("error", "unknown error"))
                if status not in RETRIABLE_STATUSES or not idempotent:
                    raise RemoteQueryError(status, payload, operation)
                retry_after = self._retry_after(headers, payload)
                failure = status
            if attempt >= self.max_retries:
                break
            delay = self._backoff(attempt, retry_after)
            attempts.append((failure, delay))
            self.retries_performed += 1
            self._sleep(delay)
        raise RetryBudgetExceededError(operation, attempts, last_status,
                                       last_error)

    @staticmethod
    def _graph_path(graph: str, action: str) -> str:
        return "/v1/graphs/{}/{}".format(graph, action)

    @staticmethod
    def _query_body(**fields: Any) -> Dict[str, Any]:
        body = {key: value for key, value in fields.items()
                if value is not None}
        for key in ("sources", "targets"):
            if key in body:
                body[key] = sorted(body[key], key=repr)
        return body

    # -- idempotent operations (retried) -------------------------------

    def query(self, graph: str, query: str, *,
              sources: Optional[Sequence[Any]] = None,
              targets: Optional[Sequence[Any]] = None,
              max_length: Optional[int] = None,
              processes: Optional[int] = None,
              deadline_ms: Optional[float] = None) -> Dict[str, Any]:
        """The JSON reply to one PathQL query (retried when retriable).
        Its answer is under ``"pairs"`` as a ``PairBlocks`` — the ``Set``
        of ``(source, target)`` tuples in-process ``Engine.pairs``
        returns — whichever form the server sent
        (:func:`~repro.service.wire.decode_answer`)."""
        return self._request(
            "POST", self._graph_path(graph, "query"),
            self._query_body(query=query, sources=sources, targets=targets,
                             max_length=max_length, processes=processes,
                             deadline_ms=deadline_ms),
            idempotent=True, operation="query({!r})".format(query),
            read=decode_answer)

    def query_pairs(self, graph: str, query: str,
                    **options: Any) -> PairBlocks:
        """Just the answer set (an empty one if the reply carries none)."""
        payload = self.query(graph, query, **options)
        return payload.get("pairs", PairBlocks(()))

    def query_batch(self, graph: str, queries: Sequence[str], *,
                    sources: Optional[Sequence[Any]] = None,
                    targets: Optional[Sequence[Any]] = None,
                    max_length: Optional[int] = None,
                    processes: Optional[int] = None,
                    deadline_ms: Optional[float] = None) -> Dict[str, Any]:
        """One round trip for many queries over one graph snapshot; each
        of ``"results"`` carries its answer as :meth:`query` does."""
        return self._request(
            "POST", self._graph_path(graph, "query"),
            self._query_body(queries=list(queries), sources=sources,
                             targets=targets, max_length=max_length,
                             processes=processes, deadline_ms=deadline_ms),
            idempotent=True,
            operation="query_batch({} queries)".format(len(queries)),
            read=decode_batch)

    def explain(self, graph: str, query: str,
                **options: Any) -> str:
        payload = self._request(
            "POST", self._graph_path(graph, "explain"),
            self._query_body(query=query, **options),
            idempotent=True, operation="explain({!r})".format(query))
        return payload.get("explain", "")

    def stats(self, graph: str) -> Dict[str, Any]:
        return self._request("GET", self._graph_path(graph, "stats"),
                             idempotent=True,
                             operation="stats({!r})".format(graph))

    def list_graphs(self) -> List[str]:
        payload = self._request("GET", "/v1/graphs", idempotent=True,
                                operation="list_graphs")
        return list(payload.get("graphs", []))

    # -- non-idempotent operations (never retried) ---------------------

    def mutate(self, graph: str, *,
               add_edges: Optional[Sequence[Sequence[Any]]] = None,
               remove_edges: Optional[Sequence[Sequence[Any]]] = None,
               deadline_ms: Optional[float] = None) -> Dict[str, Any]:
        """Apply an edge batch.  **Never retried** — see module docs."""
        body = self._query_body(
            add_edges=[list(edge) for edge in add_edges or []] or None,
            remove_edges=[list(edge) for edge in remove_edges or []] or None,
            deadline_ms=deadline_ms)
        return self._request("POST", self._graph_path(graph, "mutate"),
                             body, idempotent=False,
                             operation="mutate({!r})".format(graph))

    def checkpoint(self, graph: str,
                   deadline_ms: Optional[float] = None) -> Dict[str, Any]:
        """Fold the WAL into a new generation.  **Never retried.**"""
        body = self._query_body(deadline_ms=deadline_ms)
        return self._request("POST",
                             self._graph_path(graph, "checkpoint"),
                             body or {}, idempotent=False,
                             operation="checkpoint({!r})".format(graph))

    # -- probes (single shot, never raise on status) -------------------

    def health(self) -> bool:
        """One unretried ``GET /healthz``; transport errors propagate."""
        status, _, _ = self._transport("GET", "/healthz", b"")
        return status == 200

    def ready(self) -> Tuple[bool, Dict[str, Any]]:
        """``(ready, detail)`` from one unretried ``GET /readyz``."""
        status, _, data = self._transport("GET", "/readyz", b"")
        return status == 200, self._decode(data)

    def __repr__(self) -> str:
        return "ReproClient<http://{}:{}, max_retries={}>".format(
            self.host, self.port, self.max_retries)


class RemoteFeed:
    """The replica-side feed over a :class:`ReproClient`: the protocol
    :class:`repro.replication.PrimaryFeed` speaks in process.

    Each fetch is single-shot: the replica tailer owns the retry loop.
    ``meta`` is read by :func:`~repro.service.wire.feed_meta` (a missing
    or malformed field is a :class:`~repro.errors.WireProtocolError`); an
    error status is the cursor gap (re-bootstrap), a transient
    :class:`ReplicationError` (poll again) or a
    :class:`~repro.errors.RemoteQueryError`.
    """

    def __init__(self, client: ReproClient, graph: Optional[str] = None):
        self.client = client
        self.graph = graph

    def snapshot(self) -> Tuple[bytes, Dict[str, Any]]:
        return self._fetch("snapshot", {})

    def wal(self, cursor_token: str,
            max_bytes: int = 1 << 20) -> Tuple[bytes, Dict[str, Any]]:
        return self._fetch("wal", {"cursor": cursor_token,
                                   "max_bytes": max_bytes})

    def _fetch(self, action: str, params: Dict[str, Any]
               ) -> Tuple[bytes, Dict[str, Any]]:
        if self.graph:
            params["graph"] = self.graph
        path = "/replication/" + action
        if params:
            path += "?" + urlencode(params)
        status, headers, data = self.client._transport("GET", path, b"")
        if status < 400:
            return data, feed_meta(action, headers)
        payload = self.client._decode(data)
        if status == _CURSOR_GAP:
            raise ReplicationCursorGapError(
                params.get("cursor", ""),
                str(payload.get("first_retained", "unknown")))
        if status in RETRIABLE_STATUSES:
            raise ReplicationError(
                "replication {} failed: HTTP {}: {}".format(
                    action, status, payload.get("error", "unknown")))
        raise RemoteQueryError(status, payload, "replication " + action)
