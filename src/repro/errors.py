"""Exception hierarchy for the path-algebra library.

Every error raised by this package derives from :class:`PathAlgebraError`, so
callers can catch a single base class at API boundaries.  Subclasses are
grouped by subsystem: the graph store, the algebra core, the regular
expression layer, the automata layer, the PathQL language, and the engine;
a subsystem has its own base class only where code raises or catches it.
"""

from __future__ import annotations

__all__ = [
    "PathAlgebraError",
    "VertexNotFoundError",
    "EdgeNotFoundError",
    "DuplicateVertexError",
    "LabelNotFoundError",
    "WildcardIdError",
    "AlgebraError",
    "DisjointConcatenationError",
    "EmptyPathProjectionError",
    "IndexOutOfRangeError",
    "RegexError",
    "AutomatonError",
    "PathQLSyntaxError",
    "PlanningError",
    "ExecutionError",
    "QueryTooLargeError",
    "SerializationError",
    "StorageError",
    "StoreDegradedError",
    "ReplicationError",
    "ReplicationCursorGapError",
    "ReplicationCorruptionError",
    "ReplicaStaleError",
    "ReplicaReadOnlyError",
    "WorkerPoolError",
    "AlgorithmError",
    "ConvergenceError",
    "LockOrderViolation",
    "ResourceLeakError",
    "ServiceError",
    "DeadlineExceededError",
    "OverloadedError",
    "QuotaExceededError",
    "AuthenticationError",
    "UnknownGraphError",
    "ClientError",
    "RemoteQueryError",
    "RetryBudgetExceededError",
    "WireProtocolError",
]


class PathAlgebraError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class VertexNotFoundError(PathAlgebraError, KeyError):
    """A referenced vertex does not exist in the graph."""

    def __init__(self, vertex):
        super().__init__(vertex)
        self.vertex = vertex

    def __str__(self):
        return "vertex {!r} is not in the graph".format(self.vertex)


class EdgeNotFoundError(PathAlgebraError, KeyError):
    """A referenced edge does not exist in the graph."""

    def __init__(self, edge):
        super().__init__(edge)
        self.edge = edge

    def __str__(self):
        return "edge {!r} is not in the graph".format(self.edge)


class DuplicateVertexError(PathAlgebraError, ValueError):
    """A vertex was added twice with ``strict=True``."""


class LabelNotFoundError(PathAlgebraError, KeyError):
    """A referenced edge label (relation type) does not exist in the graph."""

    def __init__(self, label):
        super().__init__(label)
        self.label = label

    def __str__(self):
        return "label {!r} is not in the graph".format(self.label)


class WildcardIdError(PathAlgebraError, ValueError):
    """``None`` was given as a vertex or a label: it is the wildcard of
    :meth:`MultiRelationalGraph.match` and of an ``Atom``, so it names
    no element of ``V`` or ``Omega``."""

    def __init__(self, role: str):
        super().__init__(role)
        self.role = role

    def __str__(self):
        return "None cannot be a {}: it is the wildcard".format(self.role)


class AlgebraError(PathAlgebraError):
    """Base class for errors raised by the path-algebra core."""


class DisjointConcatenationError(AlgebraError, ValueError):
    """A strict joint concatenation was attempted on non-adjacent paths.

    Raised by :meth:`Path.joint_concat` when ``gamma_plus(a) != gamma_minus(b)``.
    The plain concatenation operator never raises this: the paper's ``x_o``
    (concatenative product) explicitly allows disjoint paths.
    """


class EmptyPathProjectionError(AlgebraError, ValueError):
    """A projection (tail/head/label) was requested from the empty path.

    The paper's gamma-/gamma+/omega are defined on ``E*`` but the empty path
    epsilon has no first or last vertex, so projecting from it is an error.
    """


class IndexOutOfRangeError(AlgebraError, IndexError):
    """``sigma(a, n)`` was called with ``n`` outside ``1..len(a)``."""


class RegexError(PathAlgebraError):
    """Base class for errors in the regular path-expression layer."""


class AutomatonError(PathAlgebraError):
    """Base class for errors in the automata layer."""


class PathQLSyntaxError(PathAlgebraError, SyntaxError):
    """The PathQL source text could not be tokenized or parsed."""

    def __init__(self, message, position=None, text=None):
        super().__init__(message)
        self.message = message
        self.position = position
        self.text = text

    def __str__(self):
        if self.position is None:
            return self.message
        location = "at offset {}".format(self.position)
        if self.text is not None:
            snippet = self.text[max(0, self.position - 10):self.position + 10]
            location += " near {!r}".format(snippet)
        return "{} ({})".format(self.message, location)


class PlanningError(PathAlgebraError):
    """The planner could not produce a plan for a query."""


class ExecutionError(PathAlgebraError):
    """Plan execution failed."""


class QueryTooLargeError(ExecutionError):
    """A read would build an automaton past the fixed size bound (a huge
    repeat, or a huge ``max_length``): refused before it is built, never
    truncated."""


class SerializationError(PathAlgebraError):
    """A graph could not be read from or written to an external format."""


class StorageError(PathAlgebraError):
    """The durable storage layer (WAL / snapshot store) hit invalid state.

    Raised for unreadable manifests, snapshot files with a bad magic or
    checksum, and values the JSON-framed log cannot represent faithfully.
    A *truncated* WAL tail is not an error — recovery silently keeps the
    durable prefix (that is the crash-consistency contract)."""


class StoreDegradedError(StorageError):
    """The store is serving reads only (WAL writes failed; HTTP 503).

    A write-ahead-log append or fsync failure means further mutations
    could not be made durable, so the store flips into an explicit
    **read-only degraded mode**: queries keep serving the live in-memory
    state exactly, mutations raise this error, and a successful
    :meth:`~repro.storage.persistent.PersistentGraph.checkpoint` — which
    folds the live state into a fresh snapshot generation with a fresh
    log — heals the store back to writable.  ``retry_after`` is backoff
    guidance for clients (the HTTP tier maps this to a retriable 503).
    """

    def __init__(self, directory, reason, retry_after=5.0):
        super().__init__(
            "graph store {} is in read-only degraded mode ({}); mutations "
            "are refused until a checkpoint heals it".format(
                directory, reason))
        self.directory = directory
        self.reason = reason
        self.retry_after = retry_after


class WorkerPoolError(ExecutionError):
    """A parallel worker died or wedged mid-task.

    Raised (and normally *handled*) inside
    :class:`~repro.engine.parallel.ParallelExecutor`: the executor
    respawns the pool and retries the lost tasks a bounded number of
    times, then falls back to serial execution — callers only ever see
    this error if even the serial fallback cannot run.
    """


class ServiceError(PathAlgebraError):
    """Base class for errors raised by the async query service tier."""


class DeadlineExceededError(ServiceError, TimeoutError):
    """A query's deadline expired (queued, running, or cancelled).

    ``deadline`` is the budget in seconds the caller set; ``phase`` says
    where it ran out (``"queued"``, ``"running"`` or ``"cancelled"``).
    The query's worker slot is reclaimed as soon as its kernel notices —
    the shared pool stays usable for follow-up queries.
    """

    def __init__(self, deadline, phase="running"):
        message = "query exceeded its {:.3f}s deadline ({})".format(
            deadline, phase) if deadline is not None else \
            "query was cancelled ({})".format(phase)
        super().__init__(message)
        self.deadline = deadline
        self.phase = phase


class OverloadedError(ServiceError):
    """The service shed this request; retry after a backoff (HTTP 429).

    Raised by admission control when the waiting queue is already at its
    depth bound — queuing deeper would only grow tail latency, so the
    request is rejected *before* consuming resources.  ``retry_after`` is
    the suggested backoff in seconds (surfaced as the ``Retry-After``
    header by the HTTP tier).
    """

    def __init__(self, message, retry_after=1.0):
        super().__init__(message)
        self.retry_after = retry_after


class QuotaExceededError(OverloadedError):
    """A tenant hit its own concurrency quota (still retriable)."""

    def __init__(self, tenant, quota, retry_after=1.0):
        super().__init__(
            "tenant {!r} is at its quota of {} concurrent queries".format(
                tenant, quota), retry_after=retry_after)
        self.tenant = tenant
        self.quota = quota


class AuthenticationError(ServiceError):
    """The request carried no valid API token (HTTP 401)."""


class UnknownGraphError(ServiceError, KeyError):
    """The registry has no graph store under the requested name."""

    def __init__(self, name):
        super().__init__(name)
        self.name = name

    def __str__(self):
        return "no graph store named {!r} in the registry".format(self.name)


class ClientError(ServiceError):
    """Base class for errors raised by the :mod:`repro.service.client` SDK."""


class RemoteQueryError(ClientError):
    """The server answered with a non-retriable (or non-retried) error.

    ``status`` is the HTTP status code, ``payload`` the decoded JSON error
    body (``{}`` when the body was not JSON).  Raised immediately for
    non-retriable statuses, and for *any* error status on non-idempotent
    operations (mutations are never retried — a retry could double-apply).
    """

    def __init__(self, status, payload, operation=""):
        message = "{} failed with HTTP {}: {}".format(
            operation or "request", status,
            (payload or {}).get("error", "unknown error"))
        super().__init__(message)
        self.status = status
        self.payload = payload or {}
        self.operation = operation


class RetryBudgetExceededError(ClientError):
    """Every retry attempt failed; ``attempts`` records the whole trail.

    ``attempts`` is a list of ``(status_or_exception_name, delay)`` pairs,
    one per attempt, with the backoff slept after each failed try —
    observability for tests and operators alike.  ``last_status`` is the
    final HTTP status (``None`` when the last failure was a transport
    error).
    """

    def __init__(self, operation, attempts, last_status, last_error):
        super().__init__(
            "{} still failing after {} attempt(s); last: {}".format(
                operation, len(attempts), last_error))
        self.operation = operation
        self.attempts = attempts
        self.last_status = last_status


class WireProtocolError(ClientError, ConnectionError):
    """The peer's reply is not HTTP/1.1 as ``repro serve`` frames it.

    Chunked coding, a 1xx status, a head over 64 KB, a non-numeric status
    or ``Content-Length``, the connection ending inside a reply, or a
    replication feed reply missing or garbling a metadata header.  It is
    a :class:`ConnectionError`, so the SDK's retry loop — and every caller
    that catches :class:`OSError` around a fetch — treats it as the
    transport failure it is.
    """


class LockOrderViolation(PathAlgebraError):
    """The armed lock-order witness saw a cyclic acquisition order.

    Raised *before* the offending acquire blocks, so the witness
    fail-stops on the first potential deadlock instead of exhibiting it.
    ``cycle`` is the lock-name path that closes the cycle (the witness
    orders locks by name, not instance — two instances of the same class
    share an order slot, which is exactly the discipline a class-level
    lock hierarchy promises).
    """

    def __init__(self, cycle, holding=()):
        self.cycle = tuple(cycle)
        self.holding = tuple(holding)
        message = "lock-order cycle: {}".format(" -> ".join(self.cycle))
        if holding:
            message += " (thread holds: {})".format(", ".join(self.holding))
        super().__init__(message)


class ResourceLeakError(PathAlgebraError):
    """The armed leak registry closed out with live tracked resources.

    ``leaks`` is a list of ``(kind, detail)`` pairs — one per resource
    (WAL handle, store, worker pool, executor) that was opened while
    tracking was armed and never released.
    """

    def __init__(self, leaks):
        self.leaks = list(leaks)
        super().__init__(
            "{} resource(s) never released: {}".format(
                len(self.leaks),
                "; ".join("{}[{}]".format(kind, detail)
                          for kind, detail in self.leaks)))


class AlgorithmError(PathAlgebraError):
    """Base class for errors in the single-relational algorithm library."""


class ConvergenceError(AlgorithmError, RuntimeError):
    """An iterative algorithm failed to converge within its iteration cap."""

    def __init__(self, algorithm, iterations, tolerance):
        message = "{} did not converge in {} iterations (tol={})".format(
            algorithm, iterations, tolerance)
        super().__init__(message)
        self.algorithm = algorithm
        self.iterations = iterations
        self.tolerance = tolerance


class ReplicationError(StorageError):
    """Base class for WAL-shipping replication failures.

    The replication contract is fail-stop: a replica either serves a
    view bit-identical to the primary at its applied cursor, or raises
    a member of this family — never a silently corrupt or divergent
    answer.  Subclasses distinguish the recovery action (retry the
    fetch, re-bootstrap from a fresh snapshot, or page an operator).
    """


class ReplicationCursorGapError(ReplicationError):
    """The requested cursor points before the primary's retained log.

    Sealed segments the replica never fetched have been dropped by a
    checkpoint (or the primary restarted its log after healing from
    degraded mode), so
    the suffix from ``cursor`` can no longer be served.  The only safe
    recovery is a full re-bootstrap from the current snapshot — tailing
    on would skip records.  The HTTP tier maps this to ``410 Gone``.
    """

    def __init__(self, cursor, retained):
        super().__init__(
            "replication cursor {} precedes the retained WAL (first "
            "retained segment {}); re-bootstrap from a fresh "
            "snapshot".format(cursor, retained))
        self.cursor = cursor
        self.retained = retained


class ReplicationCorruptionError(ReplicationError):
    """A shipped or local replication artifact failed its CRC.

    Raised for torn segment ships (a frame cut mid-payload), checksum
    mismatches in fetched snapshot bytes, and corrupt records found by
    the offline scrub.  ``detail`` names the artifact and offset so the
    first bad record is reportable (``repro db verify``)."""

    def __init__(self, detail):
        super().__init__("replication artifact failed verification: "
                         "{}".format(detail))
        self.detail = detail


class ReplicaStaleError(ReplicationError):
    """The replica's lag exceeds the caller's ``max-staleness`` bound.

    Bounded-staleness reads are a per-request contract: callers state
    the lag they tolerate and the replica refuses (HTTP 503 with
    ``Retry-After``) rather than silently serving an older view.
    ``lag_records``/``lag_seconds`` report the lag that broke the bound.
    """

    def __init__(self, lag_records, lag_seconds, bound_ms,
                 retry_after=1.0):
        super().__init__(
            "replica lag ({} records, {:.3f}s) exceeds max-staleness "
            "{}ms".format(lag_records, lag_seconds, bound_ms))
        self.lag_records = lag_records
        self.lag_seconds = lag_seconds
        self.bound_ms = bound_ms
        self.retry_after = retry_after


class ReplicaReadOnlyError(ReplicationError):
    """A mutation was sent to a replica (HTTP 403).

    Replicas apply records shipped from the primary only; accepting a
    local write would fork history.  ``repro db promote`` is the one
    sanctioned way to make a replica store writable."""

    def __init__(self, directory):
        super().__init__(
            "store {} is a read-only replica; promote it with 'repro db "
            "promote' before writing".format(directory))
        self.directory = directory
