"""Durable graphs: one log + snapshot store behind open/checkpoint/close.

A persistent store is a directory::

    mystore/
      manifest.json          which snapshot is live + where the log stood
      snapshot-000003.rcsr   CSR snapshot of generation 3 (mmap-reopened)
      segments/              the log: every mutation since, CRC-framed
                             (see :mod:`repro.storage.segments`)

The state is always ``snapshot ⊗ log suffix``: the manifest names a
snapshot and its journal version, and recovery replays the log records
with a greater version over it.  Primaries and replicas hold it by that
same rule (:class:`_LogBackedView`), the one state a store has and the
source :class:`~repro.engine.engine.Engine` reads a store or a replica
through: version, labels, label statistics, properties and the live
compact view.

Lifecycle
---------
* :meth:`PersistentGraph.create` seeds generation 1 from a (possibly empty)
  in-memory graph, maps it as :meth:`~PersistentGraph.open` does, and
  subscribes the store's write step to the graph.
* :meth:`PersistentGraph.open` is the cheap path back: it **maps** the
  manifest's snapshot (``mmap`` — CSR pages fault in lazily) and
  replays the log suffix into a
  :class:`~repro.graph.compact.DeltaAdjacency` overlay.  The reopened
  store serves queries without building a dict graph or loading the CSR.
* Every record is written by one step (:class:`_WalSink`): under the
  store lock, :meth:`_LogBackedView._apply` — the replica's apply — then
  the log append.  A store's mutators check membership off the view;
  with a dict graph (attached by ``create`` or built by
  :meth:`~PersistentGraph.graph`) they are the graph's, whose commits
  reach the same step: the graph writes in front of the view, never
  serves in its place.
* :meth:`checkpoint` folds base + overlay into a fresh dense snapshot
  (generation ``g+1``), atomically swaps the manifest to name it together
  with the log position it covers, and only then drops what it folded —
  the old snapshot and the sealed log segments.  A crash before the swap
  leaves the old snapshot and the whole suffix; after it, replay skips by
  version what the new snapshot already holds.
* :meth:`close` flushes the log and unsubscribes; reopening recovers exactly
  the durable prefix (torn tail records are truncated, never replayed).
"""

from __future__ import annotations

import functools
import os
import shutil
from typing import (Any, Callable, Dict, FrozenSet, Hashable, Iterable, List,
                    Optional, Tuple)

from repro.concurrency import ordered_rlock, release_resource, track_resource
from repro.core.edge import Edge
from repro.errors import (
    DuplicateVertexError,
    EdgeNotFoundError,
    StorageError,
    StoreDegradedError,
    VertexNotFoundError,
    WildcardIdError,
)
from repro.faults import fault_point
from repro.graph.compact import (
    CompactAdjacency,
    DeltaAdjacency,
    label_counts,
    patch_label_counts,
)
from repro.graph.graph import MultiRelationalGraph
from repro.graph.pairs import PairBlocks
from repro.rpq.evaluation import rpq_pairs
from repro.storage.frames import check_loggable
from repro.storage.segments import (
    SEGMENTS_DIRNAME,
    SEGMENTS_MANIFEST_NAME,
    ReplicationCursor,
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
    store and a tailing replica both are — a mapped base
    snapshot, a :class:`DeltaAdjacency` overlay of the log records applied
    since, and the property sidecar maps.  It is the source an
    :class:`~repro.engine.engine.Engine` reads in place of a graph: the
    kernels, membership, ``match`` and property reads read :meth:`view`,
    tagged with ``_view_version`` (the last record applied, property-only
    ones included).  Label counts are counted off the view once per
    :meth:`_load_view`, by the first read that needs them, and patched
    per record from then on."""

    _live: Any = None
    _view_version = 0
    _closed = False
    _counts: Optional[Dict[Hashable, Tuple[int, int, int]]] = None

    def _load_view(self, base: Any, metadata: Any) -> None:
        self._live = base
        self._view_version = int(metadata.version)
        self._counts = None
        self._vertex_props: Dict[Hashable, Dict[str, Any]] = \
            dict(metadata.vertex_properties)
        self._edge_props: Dict[Tuple, Dict[str, Any]] = \
            dict(metadata.edge_properties)

    # Callers hold their own lock (or are still constructing): the
    # overlay and sidecar maps are only read through that same lock.
    def _apply(self, entries: List[Tuple]) -> None:  # reprorace: ignore[unguarded-write]
        """Apply log records: structure to the overlay and to the label
        counts (once counted), property merges to the sidecar maps
        (deletes drop the matching maps)."""
        view, counts = self._live, self._counts
        for entry in entries:
            op = entry[1]
            if op == "pv":
                self._vertex_props.setdefault(entry[2], {}).update(entry[3])
            elif op == "pe":
                self._edge_props.setdefault(
                    (entry[2], entry[3], entry[4]), {}).update(entry[5])
            else:
                if not isinstance(view, DeltaAdjacency):
                    view = self._live = DeltaAdjacency(view)
                view.apply((entry,))
                if counts is not None:
                    patch_label_counts(counts, view, entry)
                if op == "-v":
                    self._vertex_props.pop(entry[2], None)
                elif op == "-e":
                    self._edge_props.pop((entry[2], entry[3], entry[4]),
                                         None)
        if entries:
            self._view_version = view.version = int(entries[-1][0])

    def view(self) -> Any:
        """The live compact adjacency (patched in place by applies)."""
        self._check_open()
        return self._live

    @property
    def _compact_snapshot_cache(self) -> Any:
        """What :func:`~repro.graph.compact.adjacency_snapshot` reads."""
        return self.view()

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("{!r} is closed".format(self))

    def version(self) -> int:
        """The version of the last applied record (the cache-key version)."""
        return self._view_version

    def order(self) -> int:
        """``|V|`` of the live state (overlay-aware, no materialization)."""
        return self.view().num_vertices

    def size(self) -> int:
        """``|E|`` of the live state (overlay-aware, no materialization)."""
        return self.view().num_edges

    def _label_counts(self) -> Dict[Hashable, Tuple[int, int, int]]:
        view = self.view()
        if self._counts is None:
            self._counts = label_counts(view)
        return self._counts

    def labels(self) -> FrozenSet[Hashable]:
        """The labels with at least one live edge."""
        return frozenset(self._label_counts())

    def label_histogram(self) -> Dict[Hashable, int]:
        """``label -> edge count`` over the live edges."""
        return {label: counts[0]
                for label, counts in self._label_counts().items()}

    def label_fanout(self, label: Hashable) -> Tuple[int, int, int]:
        """``(edges, distinct tails, distinct heads)`` of one label."""
        return self._label_counts().get(label, (0, 0, 0))

    def vertices(self) -> FrozenSet[Hashable]:
        view = self.view()
        return frozenset(view.vertex_of[i] for i in view.live_vertex_ids())

    def has_vertex(self, vertex: Hashable) -> bool:
        return vertex in self.view().vertex_ids

    def has_label(self, label: Hashable) -> bool:
        return label in self._label_counts()

    def has_edge(self, tail: Hashable, label: Hashable,
                 head: Hashable) -> bool:
        """``(tail, label, head) in E``, off the tail's row (``None`` is
        never an id here, as in the dict graph)."""
        view = self.view()
        ids = view.vertex_ids
        tail_id, head_id = ids.get(tail), ids.get(head)
        label_id = view.label_ids.get(label)
        return tail_id is not None and head_id is not None \
            and label_id is not None \
            and head_id in view.out_neighbors(tail_id, label_id)

    def match(self, tail: Optional[Hashable] = None,
              label: Optional[Hashable] = None,
              head: Optional[Hashable] = None) -> FrozenSet[Edge]:
        """The live edges a pattern matches (``None`` is the wildcard), off
        a bound end's rows (CSR slice or patched row), else every tail's."""
        view = self.view()
        ids, vertex_of = view.vertex_ids, view.vertex_of
        if {tail, head} - {None} - ids.keys():
            return frozenset()
        label_ids = [i for i, name in enumerate(view.label_of)
                     if label is None or name == label]
        if tail is None and head is not None:
            return frozenset(Edge(vertex_of[t], view.label_of[l], head)
                             for l in label_ids
                             for t in view.in_neighbors(ids[head], l))
        tails = view.live_vertex_ids() if tail is None else [ids[tail]]
        return frozenset(Edge(vertex_of[t], view.label_of[l], vertex_of[h])
                         for l in label_ids for t in tails
                         for h in view.out_neighbors(t, l)
                         if head is None or vertex_of[h] == head)

    def vertex_properties(self, vertex: Hashable) -> Dict[str, Any]:
        """A copy of ``vertex``'s property map."""
        if not self.has_vertex(vertex):
            raise VertexNotFoundError(vertex)
        return dict(self._vertex_props.get(vertex, {}))

    def edge_properties(self, tail: Hashable, label: Hashable,
                        head: Hashable) -> Dict[str, Any]:
        """A copy of one edge's property map."""
        if not self.has_edge(tail, label, head):
            raise EdgeNotFoundError(Edge(tail, label, head))
        return dict(self._edge_props.get((tail, label, head), {}))


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
    """The store's one write step, and its subscriber on an attached graph.

    ``precheck`` runs *before* anything mutates (see
    :meth:`MultiRelationalGraph._precheck`): an entry the JSON framing
    cannot represent — or a store already in read-only degraded mode —
    is rejected while graph, view and log still agree.  The call takes
    the store lock (a checkpoint cannot swap the view under it), applies
    the record to the view by :meth:`_LogBackedView._apply` — the
    replica's apply — and appends it to the log; if *that* append fails
    the store flips degraded (the record stays applied and keeps
    serving; it becomes durable again at the healing checkpoint, which
    folds the view and restarts the log so no replica can tail across
    the gap).
    """

    __slots__ = ("store",)

    def __init__(self, store: "PersistentGraph"):
        self.store = store

    def __call__(self, record: Tuple) -> None:
        store = self.store
        with store._lock:
            store._apply([record])
            try:
                store._log.append(record)
            except (StorageError, OSError) as exc:
                raise store._enter_degraded(str(exc)) from exc

    def precheck(self, entries: Iterable[Tuple]) -> None:
        self.store._check_writable()
        for entry in entries:
            check_loggable(entry)


def _lazy_write(mutator: Callable[..., Any]) -> Callable[..., Any]:
    """A store mutator, run under the store lock (a checkpoint cannot
    swap the view mid-write).  Without a dict graph, ``mutator`` itself:
    it checks membership off the view by the dict graph's rules — its
    no-ops, its errors and the order it raises them in — and writes
    through :meth:`PersistentGraph._write`.  With one, the dict graph's
    method of the same name, whose commits reach the same write step
    (:class:`_WalSink`)."""
    @functools.wraps(mutator)
    def write(store: "PersistentGraph", *args: Any, **kwargs: Any) -> Any:
        with store._lock:
            store._check_open()
            graph = store._graph
            if graph is None:
                return mutator(store, *args, **kwargs)
            return getattr(graph, mutator.__name__)(*args, **kwargs)
    return write


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
        # Reason string while in read-only degraded mode (log writes
        # failed), None while writable.  Sticky until a checkpoint heals.
        self._degraded: Optional[str] = None
        # Serializes writes with lifecycle transitions (materialize /
        # checkpoint / close): the service tier shares one store between
        # query threads and an admin endpoint.  Re-entrant (a forwarded
        # write re-enters it in the write step, a heal in _enter_degraded)
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
        """Initialize a store directory (generation 1) and attach ``graph``.

        ``graph`` defaults to a fresh empty graph; an existing graph is
        snapshotted as the first generation, which the store then maps as
        :meth:`open` does, so bulk loads should happen *before* ``create``
        (no per-record log append) and churn after.  The graph stays a
        writer in front of the store: each record it commits is applied
        to the store's view and logged (:class:`_WalSink`).
        Every store journals into the same log; ``replicate=True`` only
        lets this handle *serve* it to replicas (through
        :class:`~repro.replication.PrimaryFeed`, behind
        ``GET /replication/*``).
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
        # Built, not cached on the graph: the store's view is the one its
        # writes patch, and a cached copy would be patched beside it.
        write_adjacency_snapshot(
            os.path.join(directory, manifest["snapshot"]),
            CompactAdjacency.build(graph),
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
        store._map_generation()
        store._graph = graph
        graph.subscribe(store._wal_sink)
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
        through the compact kernels directly, and writes go through the
        view too.  ``materialize=True`` additionally builds the dict graph
        up front (otherwise :meth:`graph` — an engine's first path walk —
        builds it); the view stays the store's state either way.

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
        """Flush the log and unsubscribe; the directory is then quiescent.

        Idempotent and thread-safe: a server shutdown may close a store
        from its lifecycle thread while a late request handler does the
        same, and the log must be flushed-then-closed exactly once.
        """
        with self._lock:
            if self._closed:
                return
            if self._graph is not None:
                self._graph.unsubscribe(self._wal_sink)
            try:
                self._log.close()
            except (StorageError, OSError):
                # A degraded store's log may be unable to flush its
                # failed batch; the durable prefix on disk is already
                # consistent, and close must not raise on the way down.
                if self._degraded is None:
                    raise
            finally:
                self._live = None
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

    def _map_generation(self) -> None:
        """Load the manifest's snapshot generation as the view."""
        self._load_view(*open_adjacency_snapshot(
            os.path.join(self.directory, self._manifest["snapshot"]),
            mmap=self._mmap))

    @property
    def materialized(self) -> bool:
        """True once the dict-indexed graph exists in memory."""
        return self._graph is not None

    def graph(self) -> MultiRelationalGraph:
        """The mutable dict-indexed graph, materialized on first use.

        Materialization walks the view once to rebuild the hash indices
        and subscribes the store's write step (:class:`_WalSink`), so each
        record the graph commits is applied to the view and logged.  The
        view stays the store's state: reads of the store never go to the
        graph, and the graph builds its own compact snapshot on its first
        direct compact read.
        """
        with self._lock:
            self._check_open()
            if self._graph is None:
                self._graph = self._materialize()
            return self._graph

    def _materialize(self) -> MultiRelationalGraph:
        view = self.view()
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
        graph.advance_version(max(self.version(),
                                  self._log.last_version))
        graph.subscribe(self._wal_sink)
        return graph

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

        Takes the store lock (re-entrant from the write step and from
        ``_checkpoint_locked``): :meth:`flush` calls it without holding it.
        """
        with self._lock:
            if self._degraded is None:
                self._degraded = reason
            return StoreDegradedError(self.directory, self._degraded)

    def _check_writable(self) -> None:
        if self._degraded is not None:
            raise StoreDegradedError(self.directory, self._degraded)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def pairs(self, expression: Any,
              sources: Optional[Iterable[Hashable]] = None,
              targets: Optional[Iterable[Hashable]] = None
              ) -> PairBlocks:
        """RPQ reachability over the durable state.

        ``expression`` is a label expression (:func:`repro.rpq.sym` etc.);
        :func:`~repro.rpq.evaluation.rpq_pairs` evaluates it over this
        store's :meth:`view`.
        """
        self._check_open()
        try:
            fault_point("store.pairs")
        except OSError as exc:
            raise StorageError(
                "{}: read failed ({})".format(self.directory, exc)) from exc
        return rpq_pairs(self, expression, sources, targets)

    # ------------------------------------------------------------------
    # Mutations: through the view, or the dict graph's in front of it
    # ------------------------------------------------------------------

    def _write(self, entries: List[Tuple]) -> None:  # guarded-by: _lock
        """A call's records without a dict graph, in :meth:`
        MultiRelationalGraph._commit`'s order: the log's veto over the
        whole call first, then per record the next version and the write
        step (:class:`_WalSink`)."""
        self._wal_sink.precheck(entries)
        floor = max(self._view_version, self._log.last_version)
        for version, entry in enumerate(entries, floor + 1):
            self._wal_sink((version,) + entry)

    @_lazy_write
    def add_vertex(self, vertex: Hashable, strict: bool = False,
                   **properties: Any) -> Hashable:
        if vertex is None:
            raise WildcardIdError("vertex")
        exists = self.has_vertex(vertex)
        entries: List[Tuple] = [] if exists else [("+v", vertex)]
        if properties:
            entries.append(("pv", vertex, dict(properties)))
        if exists and strict:
            self._wal_sink.precheck(entries)  # a degraded store says so
            raise DuplicateVertexError(
                "vertex {!r} already exists".format(vertex))
        self._write(entries)
        return vertex

    @_lazy_write
    def add_edge(self, tail: Hashable, label: Hashable, head: Hashable,
                 **properties: Any) -> Edge:
        if tail is None or head is None:
            raise WildcardIdError("vertex")
        if label is None:
            raise WildcardIdError("label")
        entries: List[Tuple] = []
        if not self.has_edge(tail, label, head):
            entries = [("+v", vertex) for vertex in dict.fromkeys((tail, head))
                       if not self.has_vertex(vertex)]
            entries.append(("+e", tail, label, head))
        if properties:
            entries.append(("pe", tail, label, head, dict(properties)))
        self._write(entries)
        return Edge(tail, label, head)

    @_lazy_write
    def remove_edge(self, tail: Hashable, label: Hashable,
                    head: Hashable) -> None:
        if not self.has_edge(tail, label, head):
            raise EdgeNotFoundError(Edge(tail, label, head))
        self._write([("-e", tail, label, head)])

    @_lazy_write
    def remove_vertex(self, vertex: Hashable) -> None:
        if not self.has_vertex(vertex):
            raise VertexNotFoundError(vertex)
        incident = self.match(tail=vertex) | self.match(head=vertex)
        self._write([("-e",) + edge for edge in incident] + [("-v", vertex)])

    @_lazy_write
    def set_vertex_property(self, vertex: Hashable, key: str,
                            value: Any) -> None:
        if not self.has_vertex(vertex):
            raise VertexNotFoundError(vertex)
        self._write([("pv", vertex, {key: value})])

    @_lazy_write
    def set_edge_property(self, tail: Hashable, label: Hashable,
                          head: Hashable, key: str, value: Any) -> None:
        if not self.has_edge(tail, label, head):
            raise EdgeNotFoundError(Edge(tail, label, head))
        self._write([("pe", tail, label, head, {key: value})])

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
        version = self.version()
        old_snapshot = self._manifest["snapshot"]
        self._manifest = publish_generation(
            self.directory, self._manifest, cursor, self.view(), version,
            self._vertex_props, self._edge_props)
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
        # Re-map the folded snapshot: the overlay's work is now baked into
        # dense base arrays.
        self._map_generation()
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

    @property
    def snapshot_version(self) -> int:
        """The version the live snapshot generation holds."""
        return int(self._manifest["snapshot_version"])

    def snapshot_cut(self) -> Tuple[bytes, str, int, ReplicationCursor]:
        """A replica's bootstrap: the live snapshot's bytes, file name and
        version, and the log cursor every later record lies at or after —
        one cut, under the store lock, so a concurrent checkpoint cannot
        swap generations mid-read (the log only restarts *at* a snapshot
        already published)."""
        with self._lock:
            self._check_open()
            self._log.flush()
            name = str(self._manifest["snapshot"])
            version = self.snapshot_version
            with open(os.path.join(self.directory, name), "rb") as stream:
                data = stream.read()
            return data, name, version, self._log.cursor_for_version(version)

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
            "labels": len(self.labels()),
            "overlay_ops": overlay_ops,
            "replicating": self._replicate,
        }

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "materialized" if self.materialized else "lazy")
        return "PersistentGraph<{} gen {}, {}>".format(
            self.directory, self._manifest["generation"], state)
