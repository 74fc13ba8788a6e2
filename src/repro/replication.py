"""Log-shipped replication: primary feed, replica catch-up, promote.

Topology is single-primary, N read replicas, shipping the journal::

    primary store                          replica store
    ---------------                        --------------
    manifest.json                          replica.json   (cursor, lineage)
    snapshot-*.rcsr   --- bootstrap --->   snapshot-*.rcsr (copied bytes)
    segments/         ---- tailing ---->   segments/       (records fetched)
                                             applied via DeltaAdjacency

The store's log *is* what ships: the **primary side**
(:class:`PrimaryFeed`) serves two reads off a store opened with
``replicate=True`` — the current snapshot's raw bytes (bootstrap) and the
CRC-framed suffix of its :class:`~repro.storage.segments.WalSegments`
log at a :class:`~repro.storage.segments.ReplicationCursor` (catch-up).
Records ship as the exact frames the primary wrote — the per-record CRC32
protects them end-to-end from the primary's disk to the replica's apply
loop, and a byte-count in the reply metadata catches a frame-aligned
truncation the CRCs cannot.

The **replica side** (:class:`ReplicaGraph`) bootstraps by copying the
snapshot, then tails the feed: each poll fetches a byte run, decodes and
CRC-checks it (:func:`~repro.storage.segments.decode_frames`), drops
records at or below its ``applied_version`` (duplicate and re-ordered
fetches are absorbed by version dedup — the journal's versions are
strictly monotonic), persists the survivors to a *local* log of the same
kind, applies them through the same snapshot-plus-overlay view a lazily
opened primary uses, and only then advances its durable cursor.  A crash
at any point recovers to a state that re-fetches at most the
unacknowledged suffix; it can never skip records.  Queries (:meth:`ReplicaGraph.pairs`) serve throughout.

Failure contract (the robustness tentpole): every abnormal event is a
**typed error** — torn ship / corrupt frame raises
:class:`~repro.errors.ReplicationCorruptionError` and the batch is
rejected whole; a cursor that fell off the primary's retained log raises
:class:`~repro.errors.ReplicationCursorGapError` and the replica
re-bootstraps; a staleness bound the replica cannot meet raises
:class:`~repro.errors.ReplicaStaleError`.  At its applied cursor the
replica's answers are bit-identical to the primary's — there is no state
in which it serves a silently divergent view.

:func:`promote_replica` is the failover path: seal the local tail,
CRC-verify everything, and checkpoint snapshot + applied records into a
:class:`~repro.storage.persistent.PersistentGraph` generation — the
directory then opens writable as an ordinary (and immediately
replicable) primary.
"""

from __future__ import annotations

import os
import random
import re
import shutil
import time
from threading import Event
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.concurrency import ordered_lock, release_resource, track_resource
from repro.errors import (
    ReplicaStaleError,
    ReplicationCorruptionError,
    ReplicationCursorGapError,
    ReplicationError,
    StorageError,
)
from repro.faults import fault_hook, fault_point
from repro.graph.pairs import PairBlocks
from repro.storage.persistent import (
    MANIFEST_NAME,
    PersistentGraph,
    _LogBackedView,
    publish_generation,
)
from repro.storage.segments import (
    SEGMENTS_DIRNAME,
    SEGMENTS_MANIFEST_NAME,
    ReplicationCursor,
    WalSegments,
    decode_frames,
    publish_json,
    read_json,
    scrub_wal_file,
)
from repro.storage.snapshots import open_adjacency_snapshot

__all__ = [
    "PrimaryFeed",
    "ReplicaGraph",
    "ReplicaTailer",
    "promote_replica",
    "verify_store",
    "REPLICA_META_NAME",
]

#: The replica directory's metadata file (lineage, cursor, applied state).
REPLICA_META_NAME = "replica.json"

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{6})\.rcsr$")


# ----------------------------------------------------------------------
# Primary side
# ----------------------------------------------------------------------

def _torn(data: bytes, fraction: float) -> bytes:
    """``data`` cut short (never empty, never whole) — an injected torn ship."""
    return data[:min(len(data) - 1, max(1, int(len(data) * fraction)))]


class PrimaryFeed:
    """The primary's replication read surface over one open store.

    Both reads return ``(bytes, meta)`` where ``meta`` is JSON-scalar
    metadata the HTTP tier forwards as ``X-Repro-*`` headers (and the
    in-process loopback used by tests and benches passes through
    verbatim).  ``meta["bytes"]`` is always the *intended* payload length
    — the replica rejects any reply whose body does not match, which is
    what turns a torn ship into a typed error even when the cut lands on
    a frame boundary.

    Fault sites (kinds in parentheses): ``replication.snapshot`` (torn,
    eio) models primary death mid-bootstrap; ``replication.ship`` (torn,
    dup, eio) models a segment cut mid-ship and duplicate/re-ordered
    fetch delivery.
    """

    def __init__(self, store: PersistentGraph):
        self.store = store

    def snapshot(self) -> Tuple[bytes, Dict[str, Any]]:
        """Snapshot bytes + bootstrap metadata (version, start cursor)."""
        data, meta = self.store.replication_bootstrap()
        meta["bytes"] = len(data)
        fault = fault_hook("replication.snapshot")
        if fault is not None:
            if fault.kind == "torn":
                data = _torn(data, fault.fraction)
            elif fault.kind in ("eio", "enospc"):
                raise ReplicationError(
                    "injected snapshot feed failure at replication.snapshot")
        return data, meta

    def wal(self, cursor_token: str,
            max_bytes: int = 1 << 20) -> Tuple[bytes, Dict[str, Any]]:
        """The CRC-framed record run at ``cursor_token`` + next cursor."""
        cursor = ReplicationCursor.parse(cursor_token)
        result = self.store.replication_read(cursor, max_bytes=max_bytes)
        data, next_cursor, at_end = result.data, result.cursor, result.at_end
        meta: Dict[str, Any] = {
            "graph": self.store.name,
            "bytes": len(data),
            "version": self.store.replication_version(),
        }
        fault = fault_hook("replication.ship")
        if fault is not None:
            if fault.kind == "torn":
                data = _torn(data, fault.fraction)
            elif fault.kind == "dup":
                # Re-serve this run on the next poll too: the replica
                # sees the same records twice (and, interleaved with
                # fresh runs, out of order) — version dedup must absorb
                # them without double-applying.
                next_cursor, at_end = cursor, False
            elif fault.kind in ("eio", "enospc"):
                raise ReplicationError(
                    "injected wal feed failure at replication.ship")
        meta["cursor"] = next_cursor.token()
        meta["at_end"] = at_end
        return data, meta


# ----------------------------------------------------------------------
# Replica side
# ----------------------------------------------------------------------

def _clear_replica_files(directory: str, keep: str) -> None:
    """Drop any earlier or half-bootstrapped replica state but ``keep``."""
    for entry in os.listdir(directory):
        path = os.path.join(directory, entry)
        if entry == SEGMENTS_DIRNAME and os.path.isdir(path):
            shutil.rmtree(path)
        elif entry != keep and (
                _SNAPSHOT_RE.match(entry) or entry == REPLICA_META_NAME
                or entry.endswith(".tmp")):
            os.unlink(path)


def _fetch_snapshot(directory: str, source: Any, what: str
                    ) -> Tuple[str, Any, Any, Dict[str, Any]]:
    """Fetch, length-check, write and CRC-verify the primary's snapshot.

    Returns ``(snapshot_name, base, snapshot_metadata, feed_meta)`` with
    the file durably in ``directory``.  Nothing is committed here: the
    caller's ``replica.json`` write is the commit point.
    """
    data, meta = source.snapshot()
    expected = int(meta.get("bytes", len(data)))
    if len(data) != expected:
        raise ReplicationCorruptionError(
            "{} snapshot truncated: got {} of {} bytes (primary died "
            "mid-ship?)".format(what, len(data), expected))
    snapshot_name = os.path.basename(str(meta["snapshot"]))
    if not _SNAPSHOT_RE.match(snapshot_name):
        raise ReplicationError(
            "primary sent unexpected snapshot name {!r}".format(
                snapshot_name))
    os.makedirs(directory, exist_ok=True)
    snapshot_path = os.path.join(directory, snapshot_name)
    tmp_path = snapshot_path + ".tmp"
    with open(tmp_path, "wb") as stream:
        stream.write(data)
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(tmp_path, snapshot_path)
    try:
        base, smeta = open_adjacency_snapshot(snapshot_path, mmap=True,
                                              verify=True)
    except StorageError as exc:
        raise ReplicationCorruptionError(
            "{} snapshot failed verification: {}".format(what, exc)) \
            from exc
    return snapshot_name, base, smeta, meta


class ReplicaGraph(_LogBackedView):
    """A read-only graph tailing a primary's log feed.

    Built by :meth:`bootstrap` (fresh, from a primary snapshot) or
    :meth:`open` (crash recovery: replay the local log over the local
    snapshot copy — the rule a primary reopens by).  One
    ``replication.replica`` ordered lock serializes applies, queries,
    cursor persistence, and re-bootstrap, so a query always sees a whole
    applied batch or none of it.
    """

    def __init__(self, directory: str, meta: Dict[str, Any],
                 base: Any, smeta: Any, segments: WalSegments):
        self.directory = os.path.abspath(directory)
        self._meta = meta
        #: What ``replica.json`` holds on disk (see :meth:`_persist_meta`).
        self._published = dict(meta)
        self._load_view(base, smeta)
        self._segments = segments
        self._cursor = ReplicationCursor.parse(str(meta["cursor"]))
        self._applied_version = int(meta["applied_version"])
        self._primary_version = int(meta.get("primary_version",
                                             meta["applied_version"]))
        self._lock = ordered_lock("replication.replica")
        self._closed = False
        now = time.monotonic()
        self._last_contact = now
        self._caught_up_at = now if self._applied_version \
            >= self._primary_version else None
        self._rebootstraps = 0
        self._leak_token = track_resource("replica", self.directory)

    # -- construction --------------------------------------------------

    @classmethod
    def bootstrap(cls, directory: str, source: Any,
                  primary: str = "") -> "ReplicaGraph":
        """Create (or re-create) a replica from the primary's snapshot.

        ``source`` is anything with the feed protocol (``snapshot()`` /
        ``wal(cursor_token, max_bytes)``): a :class:`PrimaryFeed` in
        process, or the HTTP client adapter.  The fetched bytes are
        length- and CRC-verified before anything is committed; the
        ``replica.json`` write is the commit point, so a primary dying
        mid-bootstrap leaves a directory the next attempt wipes cleanly.
        """
        snapshot_name, base, smeta, meta = _fetch_snapshot(
            directory, source, "bootstrap")
        _clear_replica_files(directory, keep=snapshot_name)
        snapshot_version = int(meta["snapshot_version"])
        segments = WalSegments(os.path.join(directory, SEGMENTS_DIRNAME),
                               base_version=snapshot_version)
        replica_meta = {
            "format": 1,
            "kind": "replica",
            "graph": str(meta.get("graph", "")),
            "primary": primary,
            "snapshot": snapshot_name,
            "snapshot_version": snapshot_version,
            "cursor": str(meta["cursor"]),
            "applied_version": snapshot_version,
            "primary_version": int(meta.get("version", snapshot_version)),
        }
        try:
            publish_json(os.path.join(directory, REPLICA_META_NAME),
                         replica_meta)
        except BaseException:
            segments.close()
            raise
        return cls(directory, replica_meta, base, smeta, segments)

    @classmethod
    def open(cls, directory: str, verify: bool = False) -> "ReplicaGraph":
        """Recover a replica from its local snapshot + log.

        The local log is the durable record of what was applied:
        everything after ``snapshot_version`` is replayed through the
        overlay, and ``applied_version`` resumes from the last local
        record — the persisted cursor then re-fetches at most the
        unacknowledged suffix (dropped by dedup if already present).
        """
        meta_path = os.path.join(directory, REPLICA_META_NAME)
        if not os.path.exists(meta_path):
            raise StorageError(
                "{} is not a replica (no {})".format(directory,
                                                     REPLICA_META_NAME))
        meta = read_json(meta_path)
        if meta.get("format") != 1 or meta.get("kind") != "replica":
            raise StorageError(
                "{} has unsupported replica metadata".format(meta_path))
        snapshot_path = os.path.join(
            directory, os.path.basename(str(meta["snapshot"])))
        try:
            base, smeta = open_adjacency_snapshot(snapshot_path, mmap=True,
                                                  verify=verify)
        except StorageError as exc:
            if verify:
                raise ReplicationCorruptionError(
                    "replica snapshot failed verification: {}".format(exc)) \
                    from exc
            raise
        segments = WalSegments(os.path.join(directory, SEGMENTS_DIRNAME))
        replica = cls(directory, meta, base, smeta, segments)
        try:
            entries = list(segments.iter_entries(
                after_version=int(meta["snapshot_version"])))
        except BaseException:
            replica.close()
            raise
        replica._apply(entries)
        if entries:
            replica._applied_version = int(entries[-1][0])
        replica._meta["applied_version"] = replica._applied_version
        return replica

    # -- applying ------------------------------------------------------

    def poll_once(self, source: Any,
                  max_bytes: int = 1 << 20) -> Dict[str, Any]:
        """One tail step: fetch at the cursor, verify, apply, advance.

        Nothing is applied unless the *whole* fetched run decodes and
        CRC-checks (a torn ship rejects the batch and leaves the cursor
        where it was); records at or below ``applied_version`` are
        dropped (duplicate/re-ordered delivery); survivors are made
        durable in the local segment log *before* the in-memory apply
        and cursor advance, so a crash replays rather than skips.
        Raises the typed :class:`~repro.errors.ReplicationError` family
        on every abnormal path.
        """
        with self._lock:
            self._check_open()
            cursor = self._cursor
        # Fetch and decode outside the lock: a poll must never stall
        # concurrent reads (or, in single-process setups, the very
        # event loop serving the primary) on the network.
        data, meta = source.wal(cursor.token(), max_bytes=max_bytes)
        expected = int(meta.get("bytes", len(data)))
        if len(data) != expected:
            raise ReplicationCorruptionError(
                "wal ship truncated: got {} of {} bytes at cursor "
                "{}".format(len(data), expected, cursor))
        entries, offsets = decode_frames(data, with_spans=True)
        with self._lock:
            self._check_open()
            if self._cursor != cursor:
                # A concurrent re-bootstrap moved the cursor while this
                # fetch was in flight; its records belong to a discarded
                # lineage position — drop the batch, the next poll
                # refetches from the live cursor.
                records, seconds = self._lag_locked()
                return {"fetched": len(entries), "applied": 0,
                        "at_end": False, "lag_records": records,
                        "lag_seconds": seconds,
                        "cursor": self._cursor.token()}
            # The whole run must be version-monotonic (the journal it
            # was cut from is), which also proves the already-applied
            # records form a *prefix* — so the fresh remainder is a
            # contiguous byte suffix of the verified ship, journaled
            # below without re-framing a single record.
            for first, second in zip(entries, entries[1:]):
                if int(second[0]) <= int(first[0]):
                    raise ReplicationCorruptionError(
                        "shipped run is not version-monotonic at cursor "
                        "{} ({} then {})".format(self._cursor, first[0],
                                                 second[0]))
            stale = 0
            while stale < len(entries) \
                    and int(entries[stale][0]) <= self._applied_version:
                stale += 1
            fresh = entries[stale:]
            try:
                fault_point("replication.apply")
            except OSError as exc:
                raise ReplicationError(
                    "replica apply failed at cursor {}: {}".format(
                        self._cursor, exc)) from exc
            self._segments.extend_run(fresh, data, offsets[stale:])
            self._segments.flush()
            self._apply(fresh)
            if fresh:
                self._applied_version = int(fresh[-1][0])
            self._cursor = ReplicationCursor.parse(str(meta["cursor"]))
            self._primary_version = max(
                self._applied_version, int(meta.get("version",
                                                    self._applied_version)))
            now = time.monotonic()
            self._last_contact = now
            if self._applied_version >= self._primary_version:
                self._caught_up_at = now
            self._persist_meta()
            records, seconds = self._lag_locked()
            return {"fetched": len(entries), "applied": len(fresh),
                    "at_end": bool(meta.get("at_end", False)),
                    "lag_records": records, "lag_seconds": seconds,
                    "cursor": self._cursor.token()}

    def _persist_meta(self) -> None:  # guarded-by: _lock
        self._meta.update(cursor=self._cursor.token(),
                          applied_version=self._applied_version,
                          primary_version=self._primary_version)
        if self._meta == self._published:
            # A drained poll moves nothing: republishing the same file
            # would put two fsyncs and a rename under the lock every
            # query waits on, poll after poll, for no durability gained.
            return
        try:
            fault_point("replication.cursor")
            publish_json(os.path.join(self.directory, REPLICA_META_NAME),
                         self._meta)
            self._published = dict(self._meta)
        except (OSError, StorageError) as exc:
            # The records themselves are durable in the local segments;
            # a stale cursor only means refetching an already-applied
            # suffix after a crash (dropped by dedup).  Still a typed
            # error: the tailer counts it and retries.
            raise ReplicationError(
                "replica cursor persist failed: {}".format(exc)) from exc

    def rebootstrap(self, source: Any) -> None:
        """Discard local state and bootstrap afresh (cursor gap recovery).

        The fetch and verification happen before the lock is taken, so
        queries keep serving the old view until the new one is ready to
        swap in atomically.
        """
        snapshot_name, base, smeta, meta = _fetch_snapshot(
            self.directory, source, "re-bootstrap")
        with self._lock:
            self._check_open()
            old_snapshot = os.path.join(
                self.directory, os.path.basename(str(self._meta["snapshot"])))
            snapshot_version = int(meta["snapshot_version"])
            self._segments.reset_base(snapshot_version)
            self._load_view(base, smeta)
            self._cursor = ReplicationCursor.parse(str(meta["cursor"]))
            self._applied_version = snapshot_version
            self._primary_version = int(meta.get("version",
                                                 snapshot_version))
            self._meta.update(snapshot=snapshot_name,
                              snapshot_version=snapshot_version)
            now = time.monotonic()
            self._last_contact = now
            self._caught_up_at = now if self._applied_version \
                >= self._primary_version else None
            self._rebootstraps += 1
            self._persist_meta()
            if os.path.basename(old_snapshot) != snapshot_name:
                try:
                    os.unlink(old_snapshot)
                except OSError:
                    pass

    # -- reads ---------------------------------------------------------

    def view(self) -> Any:
        """The live compact adjacency (overlay once records applied)."""
        with self._lock:
            self._check_open()
            return self._live_view()

    def pairs(self, expression: Any,
              sources: Optional[Iterable[Hashable]] = None,
              targets: Optional[Iterable[Hashable]] = None
              ) -> PairBlocks:
        """RPQ reachability at the replica's applied cursor.

        Runs the same compact product-BFS kernels the primary runs; at
        equal versions the answer sets are identical by construction
        (same snapshot bytes, same records, same kernels).
        """
        with self._lock:
            self._check_open()
            return self._view_pairs(self._live_view(), expression, sources,
                                    targets)

    def vertex_properties(self, vertex: Hashable) -> Dict[str, Any]:
        with self._lock:
            return dict(self._vertex_props.get(vertex, {}))

    def edge_properties(self, tail: Hashable, label: Hashable,
                        head: Hashable) -> Dict[str, Any]:
        with self._lock:
            return dict(self._edge_props.get((tail, label, head), {}))

    # -- staleness -----------------------------------------------------

    @property
    def applied_version(self) -> int:
        return self._applied_version

    @property
    def primary_version(self) -> int:
        return self._primary_version

    @property
    def graph_name(self) -> str:
        return str(self._meta.get("graph", ""))

    @property
    def cursor(self) -> ReplicationCursor:
        return self._cursor

    @property
    def rebootstraps(self) -> int:
        return self._rebootstraps

    def lag(self) -> Tuple[int, float]:
        """``(records, seconds)`` behind the primary.

        ``records`` is the version gap at the last successful poll;
        ``seconds`` is the *uncertainty window* — time since the replica
        last confirmed it was caught up (or, while catching up, since it
        was last caught up at all).  Both grow monotonically while the
        primary is unreachable, which is what a staleness bound needs.
        """
        with self._lock:
            return self._lag_locked()

    def _lag_locked(self) -> Tuple[int, float]:
        records = max(0, self._primary_version - self._applied_version)
        now = time.monotonic()
        if records == 0:
            seconds = now - self._last_contact
        else:
            seconds = now - (self._caught_up_at
                             if self._caught_up_at is not None
                             else self._last_contact)
        return records, max(0.0, seconds)

    def check_staleness(self, bound_ms: float) -> Tuple[int, float]:
        """Enforce a per-request staleness bound; returns the lag.

        Raises :class:`~repro.errors.ReplicaStaleError` (HTTP 503 with
        ``Retry-After``) when the uncertainty window exceeds
        ``bound_ms`` — refusing is the contract; silently serving an
        out-of-bound view never is.
        """
        records, seconds = self.lag()
        if seconds * 1000.0 > bound_ms:
            raise ReplicaStaleError(records, seconds, bound_ms)
        return records, seconds

    def info(self) -> Dict[str, Any]:
        with self._lock:
            self._check_open()
            view = self._live_view()
            records, seconds = self._lag_locked()
            return {
                "directory": self.directory,
                "kind": "replica",
                "graph": self.graph_name,
                "primary": str(self._meta.get("primary", "")),
                "snapshot": str(self._meta.get("snapshot", "")),
                "snapshot_version": int(self._meta["snapshot_version"]),
                "applied_version": self._applied_version,
                "primary_version": self._primary_version,
                "cursor": self._cursor.token(),
                "lag_records": records,
                "lag_seconds": seconds,
                "rebootstraps": self._rebootstraps,
                "order": view.num_vertices,
                "size": view.num_edges,
            }

    # -- lifecycle -----------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(
                "replica {} is closed".format(self.directory))

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._segments.close()
            finally:
                self._base = None
                self._overlay = None
                release_resource(self._leak_token)

    def __enter__(self) -> "ReplicaGraph":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return "ReplicaGraph<{}, applied={}, cursor={}{}>".format(
            self.directory, self._applied_version, self._cursor,
            ", closed" if self._closed else "")


class ReplicaTailer:
    """The poll loop driving one replica against one feed.

    Poll-based with equal-jitter pacing (the same discipline as the
    client SDK's retry backoff): a drained feed sleeps about
    ``poll_interval`` (half fixed, half seeded-random — a fleet of
    replicas never thunders in phase), a non-drained one polls straight
    through, and errors back off exponentially up to ``backoff_cap``.
    Cursor gaps trigger an automatic re-bootstrap.  Runs inline
    (:meth:`run` blocks until ``stop`` is set) — callers give it a
    thread; it never spawns its own.
    """

    def __init__(self, replica: ReplicaGraph, source: Any,
                 poll_interval: float = 0.2,
                 backoff_base: float = 0.05,
                 backoff_cap: float = 2.0,
                 max_bytes: int = 1 << 20,
                 seed: int = 0,
                 on_event: Optional[Callable[[str, Dict[str, Any]], None]]
                 = None):
        self.replica = replica
        self.source = source
        self.poll_interval = poll_interval
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.max_bytes = max_bytes
        self._rng = random.Random(seed)
        self._on_event = on_event
        self.polls = 0
        self.failures = 0
        self.consecutive_failures = 0
        self.last_error: Optional[str] = None
        self._ever_caught_up = False

    def _emit(self, kind: str, detail: Dict[str, Any]) -> None:
        if self._on_event is not None:
            self._on_event(kind, detail)

    def _jitter(self, delay: float) -> float:
        # Equal jitter, the client SDK's discipline: half fixed, half
        # seeded-random — a fleet of replicas never polls in phase.
        return delay / 2.0 + self._rng.random() * (delay / 2.0)

    def step(self) -> float:
        """One poll; returns how long to sleep before the next one."""
        try:
            report = self.replica.poll_once(self.source,
                                            max_bytes=self.max_bytes)
        except ReplicationCursorGapError as exc:
            self.failures += 1
            self.consecutive_failures += 1
            self.last_error = str(exc)
            self._emit("gap", {"error": str(exc)})
            self.replica.rebootstrap(self.source)
            self._emit("rebootstrap", self.replica.info())
            self.consecutive_failures = 0
            self.last_error = None
            return 0.0
        except (ReplicationError, StorageError, OSError) as exc:
            self.failures += 1
            self.consecutive_failures += 1
            self.last_error = "{}: {}".format(type(exc).__name__, exc)
            self._emit("error", {"error": self.last_error,
                                 "consecutive": self.consecutive_failures})
            return self._jitter(
                min(self.backoff_cap,
                    self.backoff_base * (2 ** min(
                        10, self.consecutive_failures - 1))))
        self.polls += 1
        self.consecutive_failures = 0
        self.last_error = None
        if report["lag_records"] == 0:
            self._ever_caught_up = True
        if not report["at_end"]:
            return 0.0
        return self._jitter(self.poll_interval)

    def run(self, stop: Event) -> None:
        """Poll until ``stop`` is set (the serve tier's tail thread)."""
        while not stop.is_set():
            delay = self.step()
            if delay > 0:
                stop.wait(delay)

    def state(self) -> Dict[str, Any]:
        """Readiness detail for ``/readyz``: catching-up vs ready."""
        records, seconds = self.replica.lag()
        ready = self._ever_caught_up and self.consecutive_failures == 0 \
            and records == 0
        return {
            "ready": ready,
            "phase": "ready" if ready else "catching-up",
            "lag_records": records,
            "lag_seconds": seconds,
            "polls": self.polls,
            "failures": self.failures,
            "consecutive_failures": self.consecutive_failures,
            "last_error": self.last_error,
            "rebootstraps": self.replica.rebootstraps,
        }


# ----------------------------------------------------------------------
# Promote
# ----------------------------------------------------------------------

def promote_replica(directory: str) -> Dict[str, Any]:
    """Flip a replica store into a writable primary (operator failover).

    Seals the local log's tail, CRC-verifies the snapshot copy and every
    retained segment (a corrupt replica must fail promotion, not become
    the new source of truth), then takes the store's own checkpoint path
    (:func:`~repro.storage.persistent.publish_generation`): snapshot +
    applied records fold into a fresh generation whose ``manifest.json``
    is published, the log restarts at the promoted version, and
    ``replica.json`` is retired.  The directory then opens writable —
    and immediately serves as a replication primary whose old replicas
    re-bootstrap.
    """
    meta_path = os.path.join(directory, REPLICA_META_NAME)
    if not os.path.exists(meta_path):
        if os.path.exists(os.path.join(directory, MANIFEST_NAME)):
            raise StorageError(
                "{} is already a writable primary".format(directory))
        raise StorageError(
            "{} is not a replica (no {})".format(directory,
                                                 REPLICA_META_NAME))
    replica = ReplicaGraph.open(directory, verify=True)
    try:
        log = replica._segments
        log.seal_tail()
        report = log.verify()
        if not report["ok"]:
            raise ReplicationCorruptionError(
                "segment scrub failed at {}".format(report["first_corrupt"]))
        with replica._lock:
            version = replica._applied_version
            old_snapshot = os.path.basename(str(replica._meta["snapshot"]))
            match = _SNAPSHOT_RE.match(old_snapshot)
            # Shipped segments are provenance now: the checkpoint names
            # the cursor of a log restarted at the promoted version, so
            # this store can immediately serve as a primary in its own
            # right (and an interrupted restart is finished on open).
            manifest = publish_generation(
                directory,
                {"kind": "multirelational", "name": replica.graph_name,
                 "generation": int(match.group(1)) if match else 0},
                log.cursor_after_reset(), replica._live_view(), version,
                {v: p for v, p in replica._vertex_props.items() if p},
                {k: p for k, p in replica._edge_props.items() if p})
            log.reset_base(version)
            os.replace(meta_path, meta_path + ".promoted")
            if old_snapshot != manifest["snapshot"]:
                try:
                    os.unlink(os.path.join(directory, old_snapshot))
                except OSError:
                    pass
            return {"directory": os.path.abspath(directory),
                    "generation": manifest["generation"],
                    "snapshot": manifest["snapshot"],
                    "snapshot_version": version,
                    "promoted_from": str(replica._meta.get("primary", ""))}
    finally:
        replica.close()


# ----------------------------------------------------------------------
# Offline verification (repro db verify)
# ----------------------------------------------------------------------

def verify_store(directory: str) -> Dict[str, Any]:
    """Offline CRC scrub of a store directory (primary or replica).

    Checks the live snapshot's header + data-region CRC, every log
    record's frame CRC and payload shape, and the manifests — through
    the frame and header readers the live paths use (no second format
    implementation to drift).  Understands both store layouts: a
    ``format: 1`` manifest's generation ``wal-N.log`` is scrubbed as
    well as ``segments/``.  Returns ``{"ok", "kind", "artifacts",
    "first_corrupt", "notes"}``; a torn log tail is a *note* (the
    documented crash artifact, repaired on open), while any CRC
    mismatch, malformed record or short committed region is a corruption
    that fails the scrub.
    """
    directory = os.path.abspath(directory)
    findings: List[Dict[str, Any]] = []
    notes: List[Dict[str, Any]] = []
    artifacts: List[str] = []

    def record(path: str, finding: Optional[Dict[str, Any]]) -> None:
        artifacts.append(path)
        if finding is not None:
            (notes if finding["kind"] == "torn-tail" else findings).append(
                dict(finding, artifact=path))

    segments_dir = os.path.join(directory, SEGMENTS_DIRNAME)
    for kind, meta_name in (("store", MANIFEST_NAME),
                            ("replica", REPLICA_META_NAME)):
        meta_path = os.path.join(directory, meta_name)
        if os.path.exists(meta_path):
            break
    else:
        raise StorageError(
            "{} is neither a graph store nor a replica".format(directory))
    artifacts.append(meta_path)
    try:
        meta = read_json(meta_path)
        snapshot_path = os.path.join(
            directory, os.path.basename(str(meta["snapshot"])))
        try:
            open_adjacency_snapshot(snapshot_path, mmap=True, verify=True)
            record(snapshot_path, None)
        except StorageError as exc:
            record(snapshot_path, {"kind": "corrupt", "reason": str(exc)})
        if "wal" in meta:  # a format-1 store's generation WAL
            wal_path = os.path.join(
                directory, os.path.basename(str(meta["wal"])))
            record(wal_path, scrub_wal_file(wal_path)[2])
    except (StorageError, KeyError) as exc:
        findings.append({"artifact": meta_path, "kind": "corrupt",
                         "reason": str(exc)})
    if os.path.isdir(segments_dir):
        segments_manifest = os.path.join(segments_dir,
                                         SEGMENTS_MANIFEST_NAME)
        try:
            for item in WalSegments.scrub(segments_dir)["segments"]:
                record(os.path.join(segments_dir, item["name"]),
                       item["finding"])
            artifacts.append(segments_manifest)
        except StorageError as exc:
            record(segments_manifest, {"kind": "corrupt",
                                       "reason": str(exc)})
    return {
        "ok": not findings,
        "kind": kind,
        "directory": directory,
        "artifacts": artifacts,
        "first_corrupt": findings[0] if findings else None,
        "corrupt": findings,
        "notes": notes,
    }
