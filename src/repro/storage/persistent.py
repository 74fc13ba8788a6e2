"""Durable graphs: one log + snapshot store behind open/checkpoint/close.

A persistent store is a directory::

    mystore/
      manifest.json          which snapshot is live + where the log stood
      snapshot-000003.rcsr   CSR snapshot of generation 3 (mmap-reopened)
      segments/              the log: every mutation since, CRC-framed
                             (see :mod:`repro.storage.segments`)

The state is always ``snapshot ⊗ log suffix``: the manifest names a
snapshot and its journal version, and recovery replays the log records
with a greater version over it.  Primaries and replicas recover by that
same rule (:class:`_LogBackedView`).

Lifecycle
---------
* :meth:`PersistentGraph.create` seeds generation 1 from a (possibly empty)
  in-memory graph and attaches itself as a mutation sink: from then on
  every structural and property mutation of that graph is appended to the
  log — once.
* :meth:`PersistentGraph.open` is the cheap path back: it **maps** the
  manifest's snapshot (``mmap`` — CSR pages fault in lazily) and
  replays the log suffix through the existing
  :class:`~repro.graph.compact.DeltaAdjacency` overlay machinery.  The
  reopened store serves RPQ/pairs queries immediately, without rebuilding
  the dict store or loading the full CSR.
* Mutating a lazily-opened store (or asking for :meth:`graph`)
  **materializes** the dict-indexed
  :class:`~repro.graph.graph.MultiRelationalGraph` once, installs the
  already-mapped snapshot view as its compact-snapshot cache (so the first
  compact query after materialization is still rebuild-free), and resumes
  logging.
* :meth:`checkpoint` folds base + overlay into a fresh dense snapshot
  (generation ``g+1``), atomically swaps the manifest to name it together
  with the log position it covers, and only then drops what it folded —
  the old snapshot and the sealed log segments.  A crash before the swap
  leaves the old snapshot and the whole suffix; after it, replay skips by
  version what the new snapshot already holds.
* :meth:`close` flushes the log and detaches; reopening recovers exactly
  the durable prefix (torn tail records are truncated, never replayed).
"""

from __future__ import annotations

import os
import shutil
from typing import Any, Dict, FrozenSet, Hashable, Iterable, List, Optional, Tuple

from repro.concurrency import ordered_rlock, release_resource, track_resource
from repro.errors import StorageError, StoreDegradedError
from repro.faults import fault_point
from repro.graph.compact import (
    _CACHE_ATTR,
    DeltaAdjacency,
    adjacency_snapshot,
    rpq_pairs_on_snapshot,
)
from repro.graph.graph import MultiRelationalGraph
from repro.graph.pairs import PairBlocks
from repro.storage.frames import check_loggable
from repro.storage.segments import (
    SEGMENTS_DIRNAME,
    SEGMENTS_MANIFEST_NAME,
    ReplicationCursor,
    ShipResult,
    WalSegments,
    publish_json,
    read_json,
)
from repro.storage.snapshots import (
    open_adjacency_snapshot,
    write_adjacency_snapshot,
)
from repro.storage.wal import scan_wal

__all__ = ["PersistentGraph"]

MANIFEST_NAME = "manifest.json"


def _read_manifest(directory: str) -> Dict[str, Any]:
    path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(path):
        raise StorageError(
            "{} is not a graph store (no {})".format(directory, MANIFEST_NAME))
    manifest = read_json(path)
    if manifest.get("format") not in (1, 2):
        raise StorageError("{}: unsupported store format {!r}".format(
            path, manifest.get("format")))
    return manifest


def _upgrade_legacy(directory: str, manifest: Dict[str, Any]
                    ) -> Dict[str, Any]:
    """Turn a ``format: 1`` store (a ``wal-N.log`` per generation) into 2.

    The generation WAL's records are imported into the log, the format-2
    manifest is published, and only then is the file unlinked — a crash
    anywhere reruns the import, which skips what the log already has.  A
    format-1 store that replicated kept a second copy in ``segments/``:
    one *ahead* of the WAL or *behind the snapshot* is discarded via
    ``reset_base``, so its replicas re-bootstrap rather than tail across
    rewritten history.
    """
    wal_path = os.path.join(directory, str(manifest["wal"]))
    snapshot_version = int(manifest["snapshot_version"])
    entries, _, _ = scan_wal(wal_path)
    segments_dir = os.path.join(directory, SEGMENTS_DIRNAME)
    with WalSegments(segments_dir, base_version=snapshot_version) as log:
        last_durable = int(entries[-1][0]) if entries else snapshot_version
        if log.last_version > last_durable \
                or log.last_version < snapshot_version:
            log.reset_base(snapshot_version)
        for entry in entries:
            if int(entry[0]) > log.last_version:
                log.append(entry)
    upgraded = {key: value for key, value in manifest.items()
                if key != "wal"}
    upgraded["format"] = 2
    publish_json(os.path.join(directory, MANIFEST_NAME), upgraded)
    try:
        os.unlink(wal_path)
    except OSError:
        pass
    # Format 1 moved folded segments here and never read them again.
    shutil.rmtree(os.path.join(segments_dir, "archive"), ignore_errors=True)
    return upgraded


class _LogBackedView:
    """``snapshot ⊗ log suffix``, queryable without a dict graph: what a
    lazily-opened primary and a tailing replica both are — a mapped base
    snapshot, a :class:`DeltaAdjacency` overlay of the log records applied
    since, and the property sidecar maps.  ``_view_version`` is the version
    of the last record applied, property-only ones included: the overlay
    exists only once a structural record arrives, so it cannot carry it."""

    _base: Any = None
    _overlay: Optional[DeltaAdjacency] = None
    _view_version = 0

    def _load_view(self, base: Any, metadata: Any) -> None:
        self._base = base
        self._overlay = None
        self._view_version = int(metadata.version)
        self._vertex_props: Dict[Hashable, Dict[str, Any]] = \
            dict(metadata.vertex_properties)
        self._edge_props: Dict[Tuple, Dict[str, Any]] = \
            dict(metadata.edge_properties)

    # Callers hold their own lock (or are still constructing): the
    # overlay and sidecar maps are only read through that same lock.
    def _apply(self, entries: List[Tuple]) -> None:  # reprorace: ignore[unguarded-write]
        """Apply log records: structure to the overlay, property merges
        to the sidecar maps (deletes drop the matching maps)."""
        structural: List[Tuple] = []
        for entry in entries:
            op = entry[1]
            if op == "pv":
                self._vertex_props.setdefault(entry[2], {}).update(entry[3])
            elif op == "pe":
                self._edge_props.setdefault(
                    (entry[2], entry[3], entry[4]), {}).update(entry[5])
            else:
                structural.append(entry)
                if op == "-v":
                    self._vertex_props.pop(entry[2], None)
                elif op == "-e":
                    self._edge_props.pop((entry[2], entry[3], entry[4]),
                                         None)
        if structural:
            if self._overlay is None:
                self._overlay = DeltaAdjacency(self._base)
            self._overlay.apply(structural)
        if entries:
            self._view_version = int(entries[-1][0])
            if self._overlay is not None:
                self._overlay.version = self._view_version

    def _live_view(self) -> Any:
        return self._overlay if self._overlay is not None else self._base

    @staticmethod
    def _view_pairs(view: Any, expression: Any,
                    sources: Optional[Iterable[Hashable]],
                    targets: Optional[Iterable[Hashable]]) -> PairBlocks:
        """The compact product-BFS kernel over ``view`` (handed in: the
        caller fetched it under whatever lock guards it)."""
        from repro.rpq.evaluation import compile_rpq_over
        return rpq_pairs_on_snapshot(
            view, compile_rpq_over(expression, view.label_ids),
            sources=sources, targets=targets)


def publish_generation(directory: str, manifest: Dict[str, Any],
                       cursor: ReplicationCursor, view: Any, version: int,
                       vertex_props: Dict[Hashable, Dict[str, Any]],
                       edge_props: Dict[Tuple, Dict[str, Any]]
                       ) -> Dict[str, Any]:
    """Write the next snapshot generation and publish its manifest.

    The snapshot is written and fsynced under a *new* generation name,
    then ``manifest.json`` is atomically replaced to name it and
    ``cursor`` — the log position every record newer than ``version``
    lies at or after.  Nothing is dropped here: the caller retires the
    old snapshot and applies log retention once this returns.
    """
    generation = int(manifest["generation"]) + 1
    snapshot_name = "snapshot-{:06d}.rcsr".format(generation)
    write_adjacency_snapshot(
        os.path.join(directory, snapshot_name), view,
        name=manifest.get("name", ""), version=version,
        vertex_properties=vertex_props, edge_properties=edge_props)
    published = dict(manifest, format=2, generation=generation,
                     snapshot=snapshot_name, snapshot_version=version,
                     log_cursor=cursor.token())
    publish_json(os.path.join(directory, MANIFEST_NAME), published)
    return published


class _WalSink:
    """The mutation sink attached to a store's graph.

    ``precheck`` runs *before* the graph mutates (see
    :meth:`MultiRelationalGraph._wal_precheck`): an entry the JSON framing
    cannot represent — or a store already in read-only degraded mode —
    is rejected while graph, journal and log still agree.  The call
    itself appends the already-applied mutation to the log; if *that*
    append fails the store flips degraded (the triggering mutation stays
    applied in memory and keeps serving; it becomes durable again at the
    healing checkpoint, which folds the live state and restarts the log
    so no replica can tail across the gap).
    """

    __slots__ = ("store",)

    def __init__(self, store: "PersistentGraph"):
        self.store = store

    def __call__(self, record: Tuple) -> None:
        try:
            self.store._log.append(record)
        except (StorageError, OSError) as exc:
            raise self.store._enter_degraded(str(exc)) from exc

    def precheck(self, entry: Tuple) -> None:
        self.store._check_writable()
        check_loggable(entry)


class PersistentGraph(_LogBackedView):
    """One durable multi-relational graph: log + mmap'd snapshot + manifest."""

    def __init__(self, directory: str, manifest: Dict[str, Any],
                 log: WalSegments, mmap: bool, replicate: bool):
        self.directory = directory
        self._manifest = manifest
        self._log = log
        self._mmap = mmap
        self._replicate = replicate
        self._graph: Optional[MultiRelationalGraph] = None
        self._wal_sink = _WalSink(self)
        self._closed = False
        # Reason string while in read-only degraded mode (log writes
        # failed), None while writable.  Sticky until a checkpoint heals.
        self._degraded: Optional[str] = None
        # Serializes lifecycle transitions (materialize / checkpoint /
        # close): the service tier shares one store between query threads
        # and an admin endpoint, and e.g. two first-mutation calls racing
        # materialization must build the dict indices exactly once.
        # Re-entrant (checkpoint's heal path re-enters _enter_degraded)
        # and witness-ordered above storage.segments and storage.wal.
        self._lock = ordered_rlock("storage.store")
        self._recovery: Dict[str, Any] = {"wal_records": 0,
                                          "tail_torn": False}
        self._leak_token = track_resource("store", directory)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, directory: str,
               graph: Optional[MultiRelationalGraph] = None,
               name: str = "", sync: str = "batch",
               batch_size: int = 64,
               replicate: bool = False) -> "PersistentGraph":
        """Initialize a store directory (generation 1) and attach to ``graph``.

        ``graph`` defaults to a fresh empty graph; an existing graph is
        snapshotted as the first generation, so bulk loads should happen
        *before* ``create`` (no per-record log append) and churn after.
        Every store journals into the same log; ``replicate=True`` only
        lets this handle *serve* it to replicas (the ``replication_*``
        reads behind ``GET /replication/*``, :mod:`repro.replication`).
        """
        os.makedirs(directory, exist_ok=True)
        if os.path.exists(os.path.join(directory, MANIFEST_NAME)):
            raise StorageError(
                "{} already contains a graph store".format(directory))
        if graph is None:
            graph = MultiRelationalGraph(name=name)
        version = graph.version()
        manifest = {
            "format": 2,
            "kind": "multirelational",
            "name": name or graph.name,
            "generation": 1,
            "snapshot": "snapshot-000001.rcsr",
            "snapshot_version": version,
        }
        view = adjacency_snapshot(graph)
        write_adjacency_snapshot(
            os.path.join(directory, manifest["snapshot"]), view,
            name=manifest["name"], version=version,
            vertex_properties={v: p for v, p in graph._vertices.items() if p},
            edge_properties={(e.tail, e.label, e.head): p
                             for e, p in graph._edges.items() if p})
        log = WalSegments(os.path.join(directory, SEGMENTS_DIRNAME),
                          sync=sync, batch_size=batch_size,
                          base_version=version)
        try:
            if (log.base_version, log.last_version) != (version, version):
                # Left behind by a create that died before its manifest.
                log.reset_base(version)
            manifest["log_cursor"] = log.end_cursor().token()
            publish_json(os.path.join(directory, MANIFEST_NAME), manifest)
        except BaseException:
            log.close()  # the store was never born; don't leak its log
            raise
        store = cls(directory, manifest, log, mmap=True, replicate=replicate)
        store._graph = graph
        graph.attach_wal_sink(store._wal_sink)
        return store

    @classmethod
    def open(cls, directory: str, materialize: bool = False,
             mmap: bool = True, sync: str = "batch",
             batch_size: int = 64,
             replicate: bool = False) -> "PersistentGraph":
        """Map the manifest's snapshot and replay the log suffix.

        The default is the lazy read path: CSR arrays stay on disk behind
        ``memoryview``s of one ``mmap``, log records newer than the
        snapshot land in a :class:`DeltaAdjacency` overlay, and queries run
        through the compact kernels directly.  ``materialize=True``
        additionally builds the dict store up front (required before
        mutating; otherwise done on the first write).

        The replay starts at the log position the last checkpoint
        recorded, so it reads the un-checkpointed suffix only.  A
        ``format: 1`` directory is upgraded in place first.  ``replicate``
        is as for :meth:`create`: it gates serving the feed, nothing else."""
        manifest = _read_manifest(directory)
        if manifest["format"] == 1:
            manifest = _upgrade_legacy(directory, manifest)
        snapshot_version = int(manifest["snapshot_version"])
        base, metadata = open_adjacency_snapshot(
            os.path.join(directory, manifest["snapshot"]), mmap=mmap)
        segments_dir = os.path.join(directory, SEGMENTS_DIRNAME)
        if not os.path.exists(
                os.path.join(segments_dir, SEGMENTS_MANIFEST_NAME)):
            raise StorageError(
                "{}: the store's log manifest {} is missing".format(
                    directory, SEGMENTS_MANIFEST_NAME))
        log = WalSegments(segments_dir, sync=sync, batch_size=batch_size)
        try:
            cursor = ReplicationCursor.parse(manifest["log_cursor"]) \
                if "log_cursor" in manifest else None
            entries = list(log.iter_entries(after_version=snapshot_version,
                                            start=cursor))
            if cursor is not None and log.end_cursor() < cursor:
                # The log ends short of where the snapshot says it stood
                # (a heal's reset was interrupted after its manifest
                # swap).  What is missing is in the snapshot; restart the
                # log there so no replica tails across the hole.
                log.reset_base(snapshot_version)
        except BaseException:
            log.close()
            raise
        store = cls(directory, manifest, log, mmap, replicate)
        store._load_view(base, metadata)
        store._recovery = {"wal_records": len(entries),
                           "tail_torn": log.tail_torn}
        store._apply(entries)
        if materialize:
            store.graph()
        return store

    def close(self) -> None:
        """Flush the log and detach; the store directory is then quiescent.

        Idempotent and thread-safe: a server shutdown may close a store
        from its lifecycle thread while a late request handler does the
        same, and the log must be flushed-then-closed exactly once.
        """
        with self._lock:
            if self._closed:
                return
            if self._graph is not None:
                self._graph.detach_wal_sink(self._wal_sink)
            try:
                self._log.close()
            except (StorageError, OSError):
                # A degraded store's log may be unable to flush its
                # failed batch; the durable prefix on disk is already
                # consistent, and close must not raise on the way down.
                if self._degraded is None:
                    raise
            finally:
                self._base = None
                self._overlay = None
                self._closed = True
                release_resource(self._leak_token)

    def flush(self) -> None:
        """Force pending log records to disk (fsync per the sync policy).

        A flush failure is a log write failure: the store enters
        read-only degraded mode and raises :class:`StoreDegradedError`.
        """
        self._check_open()
        self._check_writable()
        try:
            self._log.flush()
        except (StorageError, OSError) as exc:
            raise self._enter_degraded(str(exc)) from exc

    def __enter__(self) -> "PersistentGraph":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Views and materialization
    # ------------------------------------------------------------------

    def view(self) -> Any:
        """The live compact adjacency: overlay if log records were
        replayed, the (mmap) base otherwise, or the attached graph's own
        snapshot once materialized."""
        self._check_open()
        if self._graph is not None:
            return adjacency_snapshot(self._graph)
        return self._live_view()

    @property
    def materialized(self) -> bool:
        """True once the dict-indexed graph exists in memory."""
        return self._graph is not None

    def graph(self) -> MultiRelationalGraph:
        """The mutable dict-indexed graph, materialized on first use.

        Materialization walks the mapped CSR once to rebuild the hash
        indices, then installs the *same* mapped view as the graph's
        compact-snapshot cache — so compact queries stay rebuild-free —
        and attaches the log sink so further mutations are logged.
        """
        with self._lock:
            self._check_open()
            if self._graph is None:
                self._graph = self._materialize()
            return self._graph

    def _materialize(self) -> MultiRelationalGraph:
        view = self._live_view()
        graph = MultiRelationalGraph(name=self._manifest.get("name", ""))
        vertex_of = view.vertex_of
        live = list(view.live_vertex_ids())
        for vertex_id in live:
            graph.add_vertex(vertex_of[vertex_id])
        for label_id, label in enumerate(view.label_of):
            for vertex_id in live:
                tail = vertex_of[vertex_id]
                for neighbor in view.out_neighbors(vertex_id, label_id):
                    graph.add_edge(tail, label, vertex_of[neighbor])
        for vertex, props in self._vertex_props.items():
            if props and graph.has_vertex(vertex):
                graph.add_vertex(vertex, **props)
        for (tail, label, head), props in self._edge_props.items():
            if props and graph.has_edge(tail, label, head):
                graph.add_edge(tail, label, head, **props)
        # Continue the version clock past everything the durable log (and
        # any replica tailing it) has already seen: the rebuild restarted
        # the counter, and reused versions would be dropped by version
        # dedup downstream.
        graph.advance_version(max(self.current_version(),
                                  self._log.last_version))
        # Adopt the mapped view as the graph's snapshot cache: the ids it
        # interned stay valid, so the first compact query after
        # materialization slices the same mmap pages instead of rebuilding.
        view.version = graph.version()
        setattr(graph, _CACHE_ATTR, view)
        graph.prune_journal(graph.version())
        graph.attach_wal_sink(self._wal_sink)
        return graph

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(
                "graph store {} is closed".format(self.directory))

    # ------------------------------------------------------------------
    # Degraded mode (read-only after a log write failure)
    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True while the store is read-only after a log write failure.

        Queries keep serving the live in-memory state exactly; mutations
        raise :class:`StoreDegradedError` *before* any state changes; a
        successful :meth:`checkpoint` — which folds the live state into a
        fresh generation and restarts the log — heals the store.
        """
        return self._degraded is not None

    @property
    def degraded_reason(self) -> Optional[str]:
        """Why the store went read-only, or None while writable."""
        return self._degraded

    def _enter_degraded(self, reason: str) -> StoreDegradedError:
        """Flip (sticky) into degraded mode; returns the error to raise.

        Takes the store lock: the log sink calls this from whichever
        thread's mutation hit the write failure (after the log's own lock
        is released), racing any concurrent checkpoint heal.  Re-entrant
        from ``_checkpoint_locked`` — the lock is an RLock.
        """
        with self._lock:
            if self._degraded is None:
                self._degraded = reason
            return StoreDegradedError(self.directory, self._degraded)

    def _check_writable(self) -> None:
        if self._degraded is not None:
            raise StoreDegradedError(self.directory, self._degraded)

    # ------------------------------------------------------------------
    # Reads (lazy-friendly)
    # ------------------------------------------------------------------

    def order(self) -> int:
        """``|V|`` of the live state (overlay-aware, no materialization)."""
        return self.view().num_vertices

    def size(self) -> int:
        """``|E|`` of the live state (overlay-aware, no materialization)."""
        return self.view().num_edges

    def vertices(self) -> FrozenSet[Hashable]:
        view = self.view()
        return frozenset(view.vertex_of[i] for i in view.live_vertex_ids())

    def labels(self) -> FrozenSet[Hashable]:
        return frozenset(self.view().label_ids)

    def vertex_properties(self, vertex: Hashable) -> Dict[str, Any]:
        if self._graph is not None:
            return self._graph.vertex_properties(vertex)
        return dict(self._vertex_props.get(vertex, {}))

    def edge_properties(self, tail: Hashable, label: Hashable,
                        head: Hashable) -> Dict[str, Any]:
        if self._graph is not None:
            return self._graph.edge_properties(tail, label, head)
        return dict(self._edge_props.get((tail, label, head), {}))

    def pairs(self, expression: Any,
              sources: Optional[Iterable[Hashable]] = None,
              targets: Optional[Iterable[Hashable]] = None
              ) -> PairBlocks:
        """RPQ reachability over the durable state.

        ``expression`` is a label expression (:func:`repro.rpq.sym` etc.);
        evaluation runs the compact product-BFS kernel against the mapped
        snapshot (plus overlay), whether or not the store is materialized.
        """
        self._check_open()
        try:
            fault_point("store.pairs")
        except OSError as exc:
            raise StorageError(
                "{}: read failed ({})".format(self.directory, exc)) from exc
        return self._view_pairs(self.view(), expression, sources, targets)

    # ------------------------------------------------------------------
    # Mutations (materialize-on-write)
    # ------------------------------------------------------------------

    def add_vertex(self, vertex: Hashable, **properties: Any) -> Hashable:
        return self.graph().add_vertex(vertex, **properties)

    def add_edge(self, tail: Hashable, label: Hashable, head: Hashable,
                 **properties: Any) -> Any:
        return self.graph().add_edge(tail, label, head, **properties)

    def remove_edge(self, tail: Hashable, label: Hashable,
                    head: Hashable) -> None:
        self.graph().remove_edge(tail, label, head)

    def remove_vertex(self, vertex: Hashable) -> None:
        self.graph().remove_vertex(vertex)

    def set_vertex_property(self, vertex: Hashable, key: str,
                            value: Any) -> None:
        self.graph().set_vertex_property(vertex, key, value)

    def set_edge_property(self, tail: Hashable, label: Hashable,
                          head: Hashable, key: str, value: Any) -> None:
        self.graph().set_edge_property(tail, label, head, key, value)

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Fold live state into a fresh snapshot generation and prune the log.

        Write order is the crash-safety argument: (1) the log is flushed
        and its end cursor taken, (2) the new snapshot is written and
        fsynced under a *new* generation name, (3) the manifest is
        atomically replaced to name both, (4) only then are the old
        snapshot and the folded sealed segments dropped.  A crash before
        (3) leaves the old snapshot and the full suffix; after it, replay
        skips by version whatever the new snapshot holds.
        Returns the refreshed :meth:`info` dict.
        """
        with self._lock:
            return self._checkpoint_locked()

    def _checkpoint_locked(self) -> Dict[str, Any]:  # guarded-by: _lock
        self._check_open()
        if self._degraded is None:
            try:
                self._log.flush()
            except (StorageError, OSError) as exc:
                # The checkpoint continues as the heal path: the live
                # in-memory state (which includes every entry the log
                # could not take) is folded into the new generation.
                self._enter_degraded(str(exc))
        healing = self._degraded is not None
        # A heal restarts the log, so it publishes the cursor the restart
        # will produce; a healthy checkpoint the flushed end.
        cursor = self._log.cursor_after_reset() if healing \
            else self._log.end_cursor()
        if self._graph is not None:
            view = adjacency_snapshot(self._graph)
            version = self._graph.version()
            vertex_props = {v: dict(p) for v, p in
                            self._graph._vertices.items() if p}
            edge_props = {(e.tail, e.label, e.head): dict(p) for e, p in
                          self._graph._edges.items() if p}
        else:
            view = self._live_view()
            version = self._view_version
            vertex_props = self._vertex_props
            edge_props = self._edge_props
        old_snapshot = self._manifest["snapshot"]
        self._manifest = publish_generation(
            self.directory, self._manifest, cursor, view, version,
            vertex_props, edge_props)
        # Every live entry is folded into the published generation: the
        # store is durable again.
        self._degraded = None
        try:
            if healing:
                # The degraded window may have mutations the log never
                # saw (they are only in the fold just published).
                # Restarting it gaps every replica cursor, forcing a
                # re-bootstrap from this snapshot instead of a silent
                # skip.
                self._log.reset_base(version)
            else:
                # The active segment stays: a tailing replica's cursor
                # survives a healthy checkpoint.
                self._log.drop_through(version)
        except (StorageError, OSError) as exc:
            self._enter_degraded("log retention failed: {}".format(exc))
        try:
            os.unlink(os.path.join(self.directory, old_snapshot))
        except OSError:
            pass
        if self._graph is None:
            # Lazy stores re-map the folded snapshot: the overlay's work is
            # now baked into dense base arrays.
            self._load_view(*open_adjacency_snapshot(
                os.path.join(self.directory, self._manifest["snapshot"]),
                mmap=self._mmap))
        return self.info()

    # ------------------------------------------------------------------
    # Replication feed (primary side)
    # ------------------------------------------------------------------

    @property
    def segments(self) -> WalSegments:
        """The store's log (what recovery replays and replicas tail)."""
        return self._log

    @property
    def replicating(self) -> bool:
        """True when this handle serves the replication feed."""
        return self._replicate

    def current_version(self) -> int:
        """The journal version of the live state (what a replica chases)."""
        if self._graph is not None:
            return self._graph.version()
        return self._view_version

    def _check_replicating(self) -> WalSegments:
        if not self._replicate:
            raise StorageError(
                "store {} was not opened with replicate=True and does not "
                "serve replication".format(self.directory))
        return self._log

    def replication_bootstrap(self) -> Tuple[bytes, Dict[str, Any]]:
        """Snapshot bytes + metadata for a replica bootstrap.

        Runs under the store lock so the snapshot file, its manifest
        version, and the start cursor are one consistent cut — a
        concurrent checkpoint cannot swap generations mid-read.  The
        returned cursor covers every record after ``snapshot_version``
        (the log only ever restarts *at* a snapshot already published).
        """
        with self._lock:
            self._check_open()
            segments = self._check_replicating()
            segments.flush()
            snapshot_version = int(self._manifest["snapshot_version"])
            path = os.path.join(self.directory, self._manifest["snapshot"])
            with open(path, "rb") as stream:
                data = stream.read()
            meta = {
                "graph": self._manifest.get("name", ""),
                "snapshot": str(self._manifest["snapshot"]),
                "snapshot_version": snapshot_version,
                "cursor": segments.cursor_for_version(
                    snapshot_version).token(),
                "version": max(snapshot_version, segments.last_version),
            }
            return data, meta

    def replication_version(self) -> int:
        """The shipped-log frontier a caught-up replica converges to.

        This is the newest version a replica can *reach* — the last
        record in the log (or the snapshot version when the log is
        empty).  Deliberately not :meth:`current_version`: the live
        graph clock advances on no-op mutations that log nothing, so
        measuring replica lag against it would never read zero.
        """
        with self._lock:
            self._check_open()
            segments = self._check_replicating()
            return max(int(self._manifest["snapshot_version"]),
                       segments.last_version)

    def replication_read(self, cursor: ReplicationCursor,
                         max_bytes: int = 1 << 20) -> ShipResult:
        """The CRC-framed log suffix at ``cursor`` (durable records only).

        Flushes the log first so a tailing replica's lag is bounded by
        the poll interval, not the fsync batch size.
        """
        self._check_open()
        segments = self._check_replicating()
        segments.flush()
        return segments.read_from(cursor, max_bytes=max_bytes)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """The graph's name from the manifest — no view materialization.

        ``info()`` builds the full adjacency view to report sizes; hot
        metadata consumers (the replication feed stamps the name on
        every log ship) must not pay that just for a label.
        """
        return str(self._manifest.get("name", ""))

    def info(self) -> Dict[str, Any]:
        """A JSON-ready summary: manifest, sizes, log and recovery state."""
        self._check_open()
        view = self.view()
        overlay_ops = view.delta_ops if isinstance(view, DeltaAdjacency) else 0
        return {
            "directory": self.directory,
            "name": self._manifest.get("name", ""),
            "generation": self._manifest["generation"],
            "snapshot": self._manifest["snapshot"],
            "snapshot_version": self._manifest["snapshot_version"],
            "wal": SEGMENTS_DIRNAME,
            "wal_records_logged": self._log.records_logged,
            "wal_bytes": self._log.retained_bytes(),
            "recovered_wal_records": self._recovery["wal_records"],
            "recovered_tail_torn": self._recovery["tail_torn"],
            "materialized": self.materialized,
            "degraded": self.degraded,
            "degraded_reason": self._degraded,
            "order": view.num_vertices,
            "size": view.num_edges,
            "labels": view.num_labels,
            "overlay_ops": overlay_ops,
            "replicating": self._replicate,
        }

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "materialized" if self.materialized else "lazy")
        return "PersistentGraph<{} gen {}, {}>".format(
            self.directory, self._manifest["generation"], state)
