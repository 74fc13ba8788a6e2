"""Compact integer-indexed adjacency snapshots and frontier traversal kernels.

The algebra's every operation — set-builder atoms ``[i, a, _]``,
concatenative joins, RPQ product traversals, the section IV-C projections —
bottoms out in label-restricted adjacency lookups.  The hash-indexed
:class:`~repro.graph.graph.MultiRelationalGraph` answers those lookups
correctly but expensively: each call walks dict buckets of :class:`Edge`
objects and hands back freshly allocated frozensets.  This module provides
the compact numeric backend the hot paths share instead:

* :class:`CompactAdjacency` — a read-only base **snapshot** of a
  ``MultiRelationalGraph``.  Vertices and labels are interned to dense
  integer ids; per-label adjacency is stored CSR-style (a flat ``indptr``
  offset array plus a flat ``indices`` neighbor array), forward and
  reverse.  Neighbor expansion is then two slices — no Edge objects, no
  set allocation, no hashing.
* :class:`DeltaAdjacency` — a **delta overlay** over a base snapshot:
  one merged row per touched vertex, label and direction, patched by
  each committed mutation record, so point mutations cost O(delta)
  instead of an O(V + E) rebuild.  Kernels read a touched vertex's row
  and every other vertex's CSR slice through the shared block
  interface, so an expansion costs the same on an overlay as on a base
  snapshot.
* :class:`CompactDiGraph` — the analogous snapshot of the single-relational
  :class:`~repro.algorithms.digraph.DiGraph`, with numpy edge/CSR arrays
  feeding the vectorized BFS / component / pagerank kernels plus the
  integer-indexed Tarjan SCC, geodesic-sweep and centrality kernels.  It
  lives in :mod:`repro.graph.compact_digraph` and is re-exported here.
* :func:`rpq_pairs_compact` — the frontier-set BFS over the
  (vertex, dfa-state) product that powers :func:`repro.rpq.rpq_pairs` and
  the engine's ``pairs`` fast path: one search per seed for a few seeds,
  one bit-parallel search per batch of seeds for many.

Snapshot lifecycle (incremental)
--------------------------------
Snapshots are built **lazily** on first use and cached on the graph
instance, tagged with the graph's ``version()``:

* A mutation-free workload pays the O(V + E) base build once and reuses it.
* The first build subscribes the graph's snapshot feed
  (:func:`install_snapshot`): from then on every committed mutation
  record patches the cached view inside the write — a structural record
  into a :class:`DeltaAdjacency` overlay, O(1) per record; a property
  record only retags the version.  :func:`adjacency_snapshot` never
  patches: it returns the cached view, or builds one.
* Once the accumulated delta exceeds a fraction of the base edge count
  (:data:`COMPACTION_FRACTION`, floored at :data:`COMPACTION_MIN_OPS`), the
  feed drops the overlay and the next read **compacts**: it builds a
  fresh base CSR, restoring slice-only adjacency lookups.

:class:`CompactDiGraph` has no overlay: it is cached per ``version()`` and
a DiGraph mutated between algorithm calls is rebuilt in O(V + E) on the
next one (every DiGraph the code builds is only read once built).
Handed-out ``CompactDiGraph`` instances stay immutable;
``DeltaAdjacency`` overlays are live views that their graph's commits
patch in place (documented, deliberate — kernels fetch them per call).

numpy is optional.  The :class:`CompactAdjacency`/:class:`DeltaAdjacency`
kernels are interpreter loops over Python ``int`` cells — lists when
built, ``memoryview.cast("q")`` slices when mapped from a store (a boxed
numpy scalar per neighbor costs ~5x); the :class:`CompactDiGraph` kernels
are vectorized and require numpy — when it is unavailable
``digraph_snapshot`` returns ``None`` and callers keep their pure-Python
implementations.
"""

from __future__ import annotations

import weakref
from itertools import compress
from operator import lt
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.concurrency import ordered_lock
from repro.graph.pairs import Block, PairBlocks

try:  # only the DiGraph kernels (compact_digraph.py) need numpy.
    import numpy as _np
except ImportError:  # pragma: no cover - the CI image ships numpy
    _np = None

__all__ = [
    "CompactAdjacency",
    "DeltaAdjacency",
    "CompactDiGraph",
    "adjacency_snapshot",
    "install_snapshot",
    "digraph_snapshot",
    "digraph_snapshot_if_large",
    "fold_adjacency_pairs",
    "label_counts",
    "rpq_pairs_compact",
    "rpq_pairs_on_snapshot",
    "rpq_pairs_backward",
    "rpq_pairs_bidirectional",
    "snapshot_state",
    "compaction_due",
    "COMPACTION_MIN_OPS",
    "COMPACTION_FRACTION",
    "HAVE_NUMPY",
]

#: True when the vectorized DiGraph kernels are available.
HAVE_NUMPY = _np is not None

#: Attribute name under which snapshots are cached on graph instances.
_CACHE_ATTR = "_compact_snapshot_cache"

#: Delta overlays are folded back into a fresh base CSR once their op count
#: exceeds ``max(COMPACTION_MIN_OPS, COMPACTION_FRACTION * |E_base|)``.
COMPACTION_MIN_OPS = 64
COMPACTION_FRACTION = 0.25

# Shared immutable placeholders for clean (unpatched) adjacency blocks.
_NO_ROWS: Dict[int, List[int]] = {}
_EMPTY_INDPTR = (0,)
_EMPTY_INDICES: Tuple[int, ...] = ()

#: ``(indptr, indices, patched, base_n)`` — what ``out_block`` /
#: ``in_block`` return and the kernels' move tables carry.
AdjacencyBlock = Tuple[Sequence[int], Sequence[int], Dict[int, List[int]], int]


def compaction_due(delta_ops: int, base_edges: int) -> bool:
    """True when an overlay of ``delta_ops`` ops over ``base_edges`` base
    edges has outgrown its usefulness and should fold into a fresh CSR."""
    return delta_ops > max(COMPACTION_MIN_OPS,
                           int(COMPACTION_FRACTION * base_edges))


def _build_csr(num_vertices: int, pairs: Iterable[Tuple[int, int]],
               count: int) -> Tuple[List[int], List[int]]:
    """Counting-sort ``(source, target)`` id pairs into ``(indptr, indices)``.

    ``indices[indptr[v]:indptr[v + 1]]`` lists the targets of ``v``.
    """
    degree = [0] * num_vertices
    buffered = list(pairs)
    for source, _ in buffered:
        degree[source] += 1
    indptr = [0] * (num_vertices + 1)
    for v in range(num_vertices):
        indptr[v + 1] = indptr[v] + degree[v]
    cursor = list(indptr[:num_vertices])
    indices = [0] * count
    for source, target in buffered:
        indices[cursor[source]] = target
        cursor[source] += 1
    return indptr, indices


class CompactAdjacency:
    """A dense-integer snapshot of one :class:`MultiRelationalGraph` version.

    Attributes
    ----------
    version:
        The ``graph.version()`` this snapshot reflects.
    vertex_ids / vertex_of:
        Interning maps ``vertex -> id`` and ``id -> vertex`` (ids are dense,
        covering isolated vertices too).
    label_ids / label_of:
        The same for labels that carry at least one edge.
    forward / reverse:
        Per-label CSR pairs ``(indptr, indices)``; ``forward[l]`` lists
        out-neighbors along label ``l``, ``reverse[l]`` in-neighbors.
    """

    __slots__ = ("version", "vertex_ids", "vertex_of", "label_ids",
                 "label_of", "forward", "reverse", "num_edges")

    def __init__(self, version: int, vertex_ids: Dict[Hashable, int],
                 vertex_of: List[Hashable], label_ids: Dict[Hashable, int],
                 label_of: List[Hashable],
                 forward: List[Tuple[List[int], List[int]]],
                 reverse: List[Tuple[List[int], List[int]]],
                 num_edges: int):
        self.version = version
        self.vertex_ids = vertex_ids
        self.vertex_of = vertex_of
        self.label_ids = label_ids
        self.label_of = label_of
        self.forward = forward
        self.reverse = reverse
        self.num_edges = num_edges

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_of)

    @property
    def num_labels(self) -> int:
        return len(self.label_of)

    @property
    def num_slots(self) -> int:
        """Vertex-id address space (== ``num_vertices``: no tombstones)."""
        return len(self.vertex_of)

    @classmethod
    def from_arrays(cls, version: int, vertex_of: List[Hashable],
                    label_of: List[Hashable],
                    forward: List[Tuple], reverse: List[Tuple],
                    num_edges: int) -> "CompactAdjacency":
        """Zero-copy construction from prebuilt CSR arrays.

        The per-label ``(indptr, indices)`` pairs are adopted as-is — plain
        lists, ``array.array`` cells or ``memoryview`` (format ``q``) slices
        of a mapped file all work, because every kernel only ever indexes,
        slices and ``len()``s them.  What they must share is that a cell
        reads back as a Python ``int``: the kernels are interpreter loops,
        and a boxed scalar type (numpy's) per neighbor costs them ~5x.
        This is the snapshot store's reopen path
        (:mod:`repro.storage.snapshots`): a graph mapped back from disk
        serves queries without re-walking any edge dict and without even
        faulting in CSR pages the traversal never touches.  Only the
        O(V + Omega) interning dicts are materialized here.
        """
        vertex_ids = {v: i for i, v in enumerate(vertex_of)}
        label_ids = {l: i for i, l in enumerate(label_of)}
        return cls(version, vertex_ids, vertex_of, label_ids, label_of,
                   forward, reverse, num_edges)

    @classmethod
    def build(cls, graph) -> "CompactAdjacency":
        """One O(V + E) pass over the graph's internal edge dict."""
        vertex_of = list(graph._vertices)
        vertex_ids = {v: i for i, v in enumerate(vertex_of)}
        label_of = list(graph._rel)
        label_ids = {l: i for i, l in enumerate(label_of)}
        n = len(vertex_of)
        per_label: List[List[Tuple[int, int]]] = [[] for _ in label_of]
        for e in graph._edges:
            per_label[label_ids[e.label]].append(
                (vertex_ids[e.tail], vertex_ids[e.head]))
        forward = []
        reverse = []
        for pairs in per_label:
            forward.append(_build_csr(n, pairs, len(pairs)))
            reverse.append(_build_csr(n, ((h, t) for t, h in pairs), len(pairs)))
        return cls(graph.version(), vertex_ids, vertex_of, label_ids,
                   label_of, forward, reverse, len(graph._edges))

    def live_vertex_ids(self):
        """All vertex ids (every slot is live in a base snapshot)."""
        return range(len(self.vertex_of))

    def out_block(self, label_id: int):
        """``(indptr, indices, patched, base_n)`` for one label.

        The shared kernel block interface: base CSR arrays, the label's
        patched rows ``{vertex_id: row}`` (none here — a base snapshot
        carries no delta) and the vertex count the CSR covers.
        """
        indptr, indices = self.forward[label_id]
        return indptr, indices, _NO_ROWS, len(self.vertex_of)

    def in_block(self, label_id: int):
        """Reverse-direction counterpart of :meth:`out_block`."""
        indptr, indices = self.reverse[label_id]
        return indptr, indices, _NO_ROWS, len(self.vertex_of)

    def out_neighbors(self, vertex_id: int, label_id: int) -> List[int]:
        """Out-neighbor ids of ``vertex_id`` along ``label_id`` (a slice)."""
        indptr, indices = self.forward[label_id]
        return indices[indptr[vertex_id]:indptr[vertex_id + 1]]

    def in_neighbors(self, vertex_id: int, label_id: int) -> List[int]:
        """In-neighbor ids of ``vertex_id`` along ``label_id`` (a slice)."""
        indptr, indices = self.reverse[label_id]
        return indices[indptr[vertex_id]:indptr[vertex_id + 1]]

    def __repr__(self) -> str:
        return "CompactAdjacency<|V|={}, |E|={}, |Omega|={}, version={}>".format(
            self.num_vertices, self.num_edges, self.num_labels, self.version)


class DeltaAdjacency:
    """A delta overlay over a base :class:`CompactAdjacency`.

    Holds one **patched row** per touched vertex, per label and direction
    (``rows_out`` / ``rows_in``: ``label_id -> {vertex_id: [neighbor_id,
    ...]}``), patched by mutation records (a graph's commits, or a
    store's log replayed at open): a row is copied from the base CSR the
    first time a mutation touches it and edited in place from then on,
    so it always holds base slice minus removals plus additions.
    Extended interning maps cover vertices and labels born after the
    base build.  Removed vertices leave **tombstone** slots:
    their id stays allocated (dead) and a re-added vertex gets a fresh id,
    so base CSR ids never ambiguate.  Kernels read through
    :meth:`out_block`/:meth:`in_block` exactly as they do on a base
    snapshot: a patched vertex expands by its row, every other one by its
    raw CSR slice.

    Unlike a base snapshot, an overlay is a **live view**: it is extended in
    place as further mutation records are applied to it.  Fetch it per
    query (as every kernel does) rather than holding one across mutations.
    """

    __slots__ = ("base", "version", "vertex_ids", "vertex_of", "label_ids",
                 "label_of", "rows_out", "rows_in", "dead_vertices",
                 "num_edges", "delta_ops")

    def __init__(self, base: CompactAdjacency):
        self.base = base
        self.version = base.version
        self.vertex_ids = dict(base.vertex_ids)
        self.vertex_of = list(base.vertex_of)
        self.label_ids = dict(base.label_ids)
        self.label_of = list(base.label_of)
        # label_id -> {vertex_id: the vertex's whole merged row}.
        self.rows_out: Dict[int, Dict[int, List[int]]] = {}
        self.rows_in: Dict[int, Dict[int, List[int]]] = {}
        self.dead_vertices: Set[int] = set()
        self.num_edges = base.num_edges
        self.delta_ops = 0

    @property
    def num_vertices(self) -> int:
        """Live vertex count (tombstoned slots excluded)."""
        return len(self.vertex_ids)

    @property
    def num_labels(self) -> int:
        return len(self.label_of)

    @property
    def num_slots(self) -> int:
        """Vertex-id address space, dead slots included (array sizing)."""
        return len(self.vertex_of)

    # -- mutation records --------------------------------------------------

    def apply(self, entries: Sequence[Tuple]) -> None:
        """Patch structural ``(version, op, *args)`` records into the delta."""
        for entry in entries:
            op = entry[1]
            if op == "+e":
                self._add_edge(entry[2], entry[3], entry[4])
            elif op == "-e":
                self._remove_edge(entry[2], entry[3], entry[4])
            elif op == "+v":
                self._add_vertex(entry[2])
            elif op == "-v":
                self._remove_vertex(entry[2])
        self.delta_ops += len(entries)

    def _add_vertex(self, vertex: Hashable) -> None:
        if vertex in self.vertex_ids:
            return
        self.vertex_ids[vertex] = len(self.vertex_of)
        self.vertex_of.append(vertex)

    def _remove_vertex(self, vertex: Hashable) -> None:
        # Incident edges were already applied as "-e" records (their rows
        # are empty now); only the slot dies.  The tombstoned id is unreachable
        # from here on.
        self.dead_vertices.add(self.vertex_ids.pop(vertex))

    def _row(self, rows: Dict[int, Dict[int, List[int]]],
             csr: List[Tuple], label_id: int, vertex_id: int) -> List[int]:
        """The patched row of ``vertex_id`` along ``label_id``, copied from
        the base CSR (``csr``: its forward or reverse side) on first touch."""
        patched = rows.get(label_id)
        if patched is None:
            patched = rows[label_id] = {}
        row = patched.get(vertex_id)
        if row is None:
            if label_id < len(csr) and vertex_id < self.base.num_vertices:
                indptr, indices = csr[label_id]
                row = list(indices[indptr[vertex_id]:indptr[vertex_id + 1]])
            else:
                row = []
            patched[vertex_id] = row
        return row

    def _add_edge(self, tail: Hashable, label: Hashable, head: Hashable) -> None:
        label_id = self.label_ids.get(label)
        if label_id is None:
            label_id = len(self.label_of)
            self.label_ids[label] = label_id
            self.label_of.append(label)
        tail_id = self.vertex_ids[tail]
        head_id = self.vertex_ids[head]
        self._row(self.rows_out, self.base.forward, label_id,
                  tail_id).append(head_id)
        self._row(self.rows_in, self.base.reverse, label_id,
                  head_id).append(tail_id)
        self.num_edges += 1

    def _remove_edge(self, tail: Hashable, label: Hashable, head: Hashable) -> None:
        label_id = self.label_ids[label]
        tail_id = self.vertex_ids[tail]
        head_id = self.vertex_ids[head]
        self._row(self.rows_out, self.base.forward, label_id,
                  tail_id).remove(head_id)
        self._row(self.rows_in, self.base.reverse, label_id,
                  head_id).remove(tail_id)
        self.num_edges -= 1

    # -- reads -------------------------------------------------------------

    def live_vertex_ids(self):
        """Ids of live vertices (tombstoned slots skipped)."""
        dead = self.dead_vertices
        if not dead:
            return range(len(self.vertex_of))
        return [i for i in range(len(self.vertex_of)) if i not in dead]

    def _block(self, csr: List[Tuple],
               rows: Dict[int, Dict[int, List[int]]],
               label_id: int) -> AdjacencyBlock:
        if label_id < len(csr):
            indptr, indices = csr[label_id]
            base_n = self.base.num_vertices
        else:  # label born after the base build: rows only.
            indptr, indices, base_n = _EMPTY_INDPTR, _EMPTY_INDICES, 0
        return indptr, indices, rows.get(label_id, _NO_ROWS), base_n

    def out_block(self, label_id: int):
        """``(indptr, indices, patched, base_n)`` for one label."""
        return self._block(self.base.forward, self.rows_out, label_id)

    def in_block(self, label_id: int):
        """Reverse-direction counterpart of :meth:`out_block`."""
        return self._block(self.base.reverse, self.rows_in, label_id)

    @staticmethod
    def _read_row(block: AdjacencyBlock, vertex_id: int) -> List[int]:
        indptr, indices, patched, base_n = block
        row = patched.get(vertex_id)
        if row is not None:
            return list(row)
        if vertex_id < base_n:
            return list(indices[indptr[vertex_id]:indptr[vertex_id + 1]])
        return []

    def out_neighbors(self, vertex_id: int, label_id: int) -> List[int]:
        """Out-neighbor ids: the patched row, else the base slice."""
        return self._read_row(self.out_block(label_id), vertex_id)

    def in_neighbors(self, vertex_id: int, label_id: int) -> List[int]:
        """In-neighbor ids: the patched row, else the base slice."""
        return self._read_row(self.in_block(label_id), vertex_id)

    def __repr__(self) -> str:
        return ("DeltaAdjacency<|V|={}, |E|={}, |Omega|={}, version={}, "
                "delta_ops={} over base v{}>").format(
            self.num_vertices, self.num_edges, self.num_labels,
            self.version, self.delta_ops, self.base.version)


def fold_adjacency_pairs(view) -> Tuple[List[Hashable], List[Hashable],
                                        List[List[Tuple[int, int]]], int]:
    """Flatten any snapshot view to ``(vertex_of, label_of, pairs, |E|)``.

    The one shared fold: works on a clean :class:`CompactAdjacency` and on
    a :class:`DeltaAdjacency` overlay alike (both expose
    ``live_vertex_ids`` / ``out_neighbors``) — tombstoned vertex slots are
    dropped and ids re-densified, per-label edge pairs come out as each
    vertex reads (its patched row, else its base slice).  The snapshot
    store's checkpoint fold (:func:`repro.storage.snapshots.fold_view`)
    builds on this.
    """
    live = list(view.live_vertex_ids())
    slots = view.num_slots
    remap: Optional[List[int]] = None
    if len(live) != slots:
        remap = [-1] * slots
        for new_id, old_id in enumerate(live):
            remap[old_id] = new_id
    vertex_of = [view.vertex_of[i] for i in live]
    label_of = list(view.label_of)
    per_label: List[List[Tuple[int, int]]] = []
    num_edges = 0
    for label_id in range(len(label_of)):
        pairs: List[Tuple[int, int]] = []
        for new_id, old_id in enumerate(live):
            for neighbor in view.out_neighbors(old_id, label_id):
                pairs.append((new_id,
                              remap[neighbor] if remap else neighbor))
        per_label.append(pairs)
        num_edges += len(pairs)
    return vertex_of, label_of, per_label, num_edges


def _row_counts(block: AdjacencyBlock) -> Tuple[int, int]:
    """``(edges, non-empty rows)`` of one label side: the CSR offsets,
    with each patched row counted in place of its base row."""
    indptr, _, patched, base_n = block
    edges = indptr[base_n]
    ends = sum(map(lt, indptr[:base_n], indptr[1:base_n + 1]))
    for vertex_id, row in patched.items():
        degree = indptr[vertex_id + 1] - indptr[vertex_id] \
            if vertex_id < base_n else 0
        edges += len(row) - degree
        ends += bool(row) - (degree > 0)
    return edges, ends


def label_counts(view) -> Dict[Hashable, Tuple[int, int, int]]:
    """``label -> (edges, distinct tails, distinct heads)`` of every label
    with a live edge of ``view``: ``label_fanout`` counted off the CSR."""
    counts = {}
    for label_id, label in enumerate(view.label_of):
        edges, tails = _row_counts(view.out_block(label_id))
        if edges:
            counts[label] = (edges, tails,
                             _row_counts(view.in_block(label_id))[1])
    return counts


class _SnapshotFeed:
    """The graph's one snapshot subscriber: keeps its cached view current.

    A structural record patches the view (the first one wraps a base in
    a :class:`DeltaAdjacency`), a property record retags its version.
    The view is dropped — the next read builds a fresh base — once its
    delta crosses :func:`compaction_due`, or when it is not at the
    version just before the record (patching could not make it current).
    """

    __slots__ = ("graph",)

    def __init__(self, graph):
        # Weak: the graph holds its feed, and a reference cycle would keep
        # every dropped graph alive until the next full collection.
        self.graph = weakref.ref(graph)

    def __call__(self, record: Tuple) -> None:
        graph = self.graph()  # alive: it is the one committing
        cached = getattr(graph, _CACHE_ATTR, None)
        if cached is None:
            return
        version, op = record[0], record[1]
        if cached.version != version - 1:
            cached = None
        elif op == "pv" or op == "pe":
            cached.version = version
        else:
            if not isinstance(cached, DeltaAdjacency):
                cached = DeltaAdjacency(cached)
            cached.apply((record,))
            cached.version = version
            if compaction_due(cached.delta_ops, cached.base.num_edges):
                cached = None
        setattr(graph, _CACHE_ATTR, cached)


#: Where a graph keeps its :class:`_SnapshotFeed`, once subscribed.
_FEED_ATTR = "_compact_snapshot_feed"

#: Serializes the first subscription of a graph's feed.
_FEED_LOCK = ordered_lock("graph.snapshot_feed")


def install_snapshot(graph, view) -> None:
    """Make ``view`` — ``graph`` at ``graph.version()`` — its cached
    snapshot, kept current at commit.  The first install subscribes the
    graph's one :class:`_SnapshotFeed`, under a lock: two first reads
    racing subscribe one."""
    if getattr(graph, _FEED_ATTR, None) is None:
        with _FEED_LOCK:
            if getattr(graph, _FEED_ATTR, None) is None:
                feed = _SnapshotFeed(graph)
                graph.subscribe(feed)
                setattr(graph, _FEED_ATTR, feed)
    setattr(graph, _CACHE_ATTR, view)


def adjacency_snapshot(graph, incremental: bool = True):
    """The compact adjacency of ``graph`` at its current version.

    The cached view (a :class:`CompactAdjacency`, or the
    :class:`DeltaAdjacency` its commits patched; one read interface), or
    a fresh base when there is none or ``incremental=False`` asks to
    fold the overlay.  A read never patches: commits do.
    """
    cached = getattr(graph, _CACHE_ATTR, None)
    if incremental and cached is not None \
            and cached.version == graph.version():
        return cached
    snapshot = CompactAdjacency.build(graph)
    install_snapshot(graph, snapshot)
    return snapshot


def snapshot_state(graph) -> str:
    """A one-line description of the graph's compact-snapshot cache state.

    Surfaced by ``Engine.explain`` so overlay growth is visible next to
    the plan.
    """
    cached = getattr(graph, _CACHE_ATTR, None)
    if cached is None or cached.version != graph.version():
        return "cold (first compact query builds the base CSR)"
    if isinstance(cached, DeltaAdjacency):
        return "delta overlay ({} op(s) over base v{})".format(
            cached.delta_ops, cached.base.version)
    return "base CSR (v{})".format(cached.version)


# ----------------------------------------------------------------------
# RPQ product-BFS kernels (vertex x dfa-state search over CSR + delta)
# ----------------------------------------------------------------------

def _product_moves(snapshot, dfa, reverse: bool) -> List[List[Tuple]]:
    """``moves[state] -> [(adjacency block fields..., neighbor state)]``.

    Each DFA transition that can actually fire in this graph, pre-resolved
    to its label's adjacency block.  Forward, ``p --a--> q`` files the
    *out*-block and ``q`` under ``p``; reversed, the *in*-block and ``p``
    under ``q``, so a step walks in-neighbors while undoing the DFA move —
    exactly the product automaton of the reversed graph with the reversed
    NFA, restricted to the states the forward DFA already built.

    :func:`_sweep` and :func:`_propagate` inline the block read (the
    vertex's patched row if the overlay touched it, else its base CSR
    slice) in their hot loops: a helper call per (vertex, move) expansion
    costs more than the read itself at interpreter speed.
    """
    block_of = snapshot.in_block if reverse else snapshot.out_block
    moves: List[List[Tuple]] = [[] for _ in range(dfa.num_states)]
    for state in range(dfa.num_states):
        for label, next_state in dfa.transitions[state].items():
            label_id = snapshot.label_ids.get(label)
            if label_id is not None:
                here, there = (next_state, state) if reverse \
                    else (state, next_state)
                moves[here].append(block_of(label_id) + (there,))
    return moves


def _seed_ids(snapshot, vertices: Optional[Iterable[Hashable]]):
    """Dense ids a search starts from: every live vertex for ``None``,
    else the known vertices of the filter, deduplicated and ascending."""
    if vertices is None:
        return snapshot.live_vertex_ids()
    vertex_ids = snapshot.vertex_ids
    return sorted({vertex_ids[v] for v in vertices if v in vertex_ids})


#: A one-directional call with at least this many seeds walks the product
#: with all of them on board (:func:`_shared_sweep`); with fewer it runs the
#: stamped per-seed loop, as every served few-seed query did before.  On the
#: 1500-vertex serve graph, with the minimal DFA, closures (T1, T3) break
#: even at 2-3 seeds and are 3x / 5x ahead at 16, while a two-hop (T2) has
#: nothing to share and stays ~1.4x behind at any count.  The floor stays
#: at 16: a lower one would also speed up the cold serve benchmark's
#: 4-source reads, whose bounded op stream a faster run can exhaust
#: (docs/compact_backend.md has the table and the cap).
_SHARED_MIN_SEEDS = 16

#: Seeds per shared batch, one mask bit each: wider masks make every ``|``
#: dearer, narrower ones repeat the walk.  Bounds the mask table at
#: ``slots x states x 128`` bytes; on the observatory's nine sweeps 512
#: costs 6 % more and 2048 9 % less (all of it one sparse closure) for
#: twice that bound.
_SHARED_BATCH = 1024

#: ``bin()`` digits -> selector bytes for :func:`itertools.compress`.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _mask_members(mask: int, members: Sequence[Hashable]
                  ) -> Iterable[Hashable]:
    """``members[i]`` for every set bit ``i`` of a (bignum) bitmask, in no
    promised order, decoded from ``bin(mask)`` at C speed.

    A sparse mask is ``str.find`` hops between its ``1`` digits (the zeros
    in between cost a ``memchr``, not an interpreter step); one that is not
    exhausted after a hop per 16 digits is dense, and a single
    :func:`itertools.compress` over the reversed digits is cheaper.
    """
    digits = bin(mask)
    top = len(digits) - 1
    found = []
    at = 2  # past the "0b": the leading digit is a 1
    for _ in range(top >> 4):
        found.append(members[top - at])
        at = digits.find("1", at + 1)
        if at < 0:
            return found
    return compress(members, digits[:1:-1].encode().translate(_BIT_BYTES))


def _shared_sweep(snapshot, moves: List[List[Tuple]], num_states: int,
                  seed_ids: Sequence[int], seed_states: List[int],
                  answering: List[bool], wanted_ok: Optional[bytearray],
                  reverse: bool) -> Iterable[Block]:
    """:func:`_sweep` with the seeds travelling together, a batch at a time:
    yields the answer's disjoint blocks, ``(sources, targets, crossed)``.

    Each seed of a batch owns one bit and :func:`_propagate` pushes the
    masks until the frontier drains, so a configuration expands once per
    round in which new seeds reach it, not once per seed (multi-source BFS:
    Then et al., "The More the Merrier", PVLDB 8(4), 2014).  No opposite
    search, so no meets: the other side's masks are all zero.  The drained
    frontier leaves a complete closure: the OR of the masks at a vertex's
    answering configurations names the seeds it answers — one mask per
    vertex per batch, so the blocks below cannot overlap.  Only touched
    masks are reset between batches.
    """
    vertex_of = snapshot.vertex_of
    size = snapshot.num_slots * num_states
    own_mask = [0] * size
    no_meets = [0] * size
    queued = [-1] * size
    round_number = 0
    for begin in range(0, len(seed_ids), _SHARED_BATCH):
        batch = seed_ids[begin:begin + _SHARED_BATCH]
        frontier: List[int] = []
        for bit, seed_id in enumerate(batch):
            for state in seed_states:
                code = seed_id * num_states + state
                own_mask[code] = 1 << bit
                frontier.append(code)
        touched: List[int] = []
        while frontier:
            touched += frontier
            round_number += 1
            frontier = _propagate(frontier, moves, num_states, own_mask,
                                  no_meets, queued, round_number, None)
        reached: Dict[int, int] = {}
        for code in touched:
            mask = own_mask[code]
            if mask:  # not yet read: a config is touched once per re-queue
                own_mask[code] = 0
                if answering[code % num_states]:
                    vertex_id = code // num_states
                    if wanted_ok is None or wanted_ok[vertex_id]:
                        reached[vertex_id] = reached.get(vertex_id, 0) | mask
        batch_vertices = [vertex_of[seed_id] for seed_id in batch]
        # Vertices answering the same seeds share one decode and leave as
        # one crossed block; a vertex with a single seed (the commonest mask
        # on a sparse graph) skips both the grouping and the decoder and
        # joins the batch's one zip block.
        alike: Dict[int, List[Hashable]] = {}
        lone_seeds: List[Hashable] = []
        lone_vertices: List[Hashable] = []
        for vertex_id, mask in reached.items():
            if mask & (mask - 1):
                alike.setdefault(mask, []).append(vertex_of[vertex_id])
            else:
                lone_seeds.append(batch_vertices[mask.bit_length() - 1])
                lone_vertices.append(vertex_of[vertex_id])
        if lone_seeds:
            yield (lone_vertices, lone_seeds, False) if reverse \
                else (lone_seeds, lone_vertices, False)
        for mask, vertices in alike.items():
            seeds = tuple(_mask_members(mask, batch_vertices))
            yield (vertices, seeds, True) if reverse \
                else (seeds, vertices, True)


def _sweep(snapshot, dfa, seed_ids: Sequence[int],
           wanted: Optional[Iterable[Hashable]], reverse: bool
           ) -> PairBlocks:
    """The one-directional product BFS: its ``(source, target)`` pairs.

    Forward, a search starts at ``(seed, start)`` and a configuration
    answers when its state accepts; reversed, the seeds are the targets, it
    starts at ``(seed, q)`` for every accepting ``q`` and answers at the
    start state (:func:`rpq_pairs_backward` says why).  A vertex answers at
    most once per seed — ``seed_ids`` must not repeat, or the answer's
    blocks would — and ``wanted`` restricts which vertices may.  From
    :data:`_SHARED_MIN_SEEDS` seeds up the walk is :func:`_shared_sweep`;
    below, one stamped BFS per seed, which stops at the next level boundary
    once every wanted vertex has answered.
    """
    num_states = dfa.num_states
    slots = snapshot.num_slots
    vertex_of = snapshot.vertex_of
    wanted_ok: Optional[bytearray] = None
    num_wanted = 0
    if wanted is not None:
        wanted_ids = _seed_ids(snapshot, wanted)
        if not wanted_ids:
            return PairBlocks(())
        num_wanted = len(wanted_ids)
        wanted_ok = bytearray(slots)
        for vertex_id in wanted_ids:
            wanted_ok[vertex_id] = 1

    moves = _product_moves(snapshot, dfa, reverse)
    if reverse:
        seed_states, answer_states = sorted(dfa.accepting), {dfa.start}
    else:
        seed_states, answer_states = [dfa.start], dfa.accepting
    answering = [state in answer_states for state in range(num_states)]
    if len(seed_ids) >= _SHARED_MIN_SEEDS:
        return PairBlocks(_shared_sweep(
            snapshot, moves, num_states, seed_ids, seed_states, answering,
            wanted_ok, reverse))

    blocks: List[Block] = []
    # In both orientations a seed answers itself iff the empty word matches.
    seed_answers = dfa.start in dfa.accepting

    # visited/answered are stamped with the per-seed sweep index, so the
    # O(V x states) product table is allocated once, not once per seed.
    visited = [-1] * (slots * num_states)
    answered = [-1] * slots

    # Frontier entries are packed ``vertex_id * num_states + state`` ints:
    # unlike tuples they are not cyclic-GC tracked, so the multi-million
    # entry sweeps do not trigger collector pauses.
    for stamp, seed_id in enumerate(seed_ids):
        found: List[Hashable] = []  # this seed's answering vertices
        remaining = num_wanted
        frontier = [seed_id * num_states + state for state in seed_states]
        for code in frontier:
            visited[code] = stamp
        if seed_answers and (wanted_ok is None or wanted_ok[seed_id]):
            answered[seed_id] = stamp
            found.append(vertex_of[seed_id])
            remaining -= 1
        while frontier:
            if wanted_ok is not None and remaining == 0:
                break  # every wanted vertex answered for this seed
            next_frontier: List[int] = []
            for packed in frontier:
                vertex_id, state = divmod(packed, num_states)
                for indptr, indices, patched, base_n, next_state \
                        in moves[state]:
                    row = patched.get(vertex_id) if patched else None
                    if row is not None:
                        neighbors = row
                    elif vertex_id < base_n:
                        neighbors = \
                            indices[indptr[vertex_id]:indptr[vertex_id + 1]]
                    else:
                        continue
                    for neighbor in neighbors:
                        code = neighbor * num_states + next_state
                        if visited[code] != stamp:
                            visited[code] = stamp
                            if answering[next_state] \
                                    and answered[neighbor] != stamp \
                                    and (wanted_ok is None
                                         or wanted_ok[neighbor]):
                                answered[neighbor] = stamp
                                found.append(vertex_of[neighbor])
                                remaining -= 1
                            next_frontier.append(code)
            frontier = next_frontier
        if found:
            seed = (vertex_of[seed_id],)
            blocks.append((found, seed, True) if reverse
                          else (seed, found, True))
    return PairBlocks(blocks)


def rpq_pairs_compact(graph, dfa, sources: Optional[Iterable[Hashable]] = None,
                      targets: Optional[Iterable[Hashable]] = None
                      ) -> PairBlocks:
    """All ``(x, y)`` pairs connected by a path whose label word is in the DFA.

    Frontier-set BFS over the (vertex, dfa-state) product using integer ids:
    one shared compact snapshot (base CSR, or base + delta overlay after
    mutations) and one per-(state, label) transition table resolving each
    DFA move directly to an adjacency block.  A few sources run one BFS
    each over a stamped ``visited`` array allocated once per call; many
    sources travel together as bitmasks, a batch at a time, so a
    configuration they share is expanded once (:func:`_sweep`).  A vertex
    the overlay touched expands by its patched row, every other one by
    its raw CSR slice.

    ``targets`` restricts the emitted pairs to those whose target is in the
    set; a per-source BFS stops at the next level boundary once its source
    has answered every live target instead of exhausting the cone.

    Semantically identical to the per-source product BFS
    (:func:`repro.rpq.evaluation.rpq_pairs_basic`); the equivalence and
    differential tests enforce it on random mutating graphs.
    """
    return rpq_pairs_on_snapshot(adjacency_snapshot(graph), dfa,
                                 sources=sources, targets=targets)


def rpq_pairs_on_snapshot(snapshot, dfa,
                          sources: Optional[Iterable[Hashable]] = None,
                          targets: Optional[Iterable[Hashable]] = None,
                          source_ids: Optional[Iterable[int]] = None
                          ) -> PairBlocks:
    """:func:`rpq_pairs_compact` on an explicit snapshot view.

    The graph-free entry point the parallel fan-out executor needs: worker
    processes hold a forked :class:`CompactAdjacency` /
    :class:`DeltaAdjacency` but no live graph object, and each sweeps only
    the ``source_ids`` slot range it owns.  ``source_ids`` (dense integer
    ids, already live) takes precedence over ``sources`` (vertex objects,
    interned here); both ``None`` means every live vertex.  Repeated ids
    count once: a seed swept twice would repeat its block of the answer.
    """
    if source_ids is None:
        seed_ids: Sequence[int] = _seed_ids(snapshot, sources)
    elif isinstance(source_ids, range) or (
            isinstance(source_ids, list)
            and all(map(lt, source_ids[:-1], source_ids[1:]))):
        # A worker's seed range or id chunk: strictly ascending, so already
        # free of repeats (the shared sweep sizes and slices its seeds).
        seed_ids = source_ids
    else:
        seed_ids = sorted(set(source_ids))
    return _sweep(snapshot, dfa, seed_ids, targets, False)


def rpq_pairs_backward(graph, dfa,
                       targets: Optional[Iterable[Hashable]] = None,
                       sources: Optional[Iterable[Hashable]] = None
                       ) -> PairBlocks:
    """:func:`rpq_pairs_compact` evaluated *backward* from the targets.

    The same :func:`_sweep` (per target, or shared by many) over the
    **reverse** CSR with the DFA's transition relation reversed: a search
    seeded at ``(target, q)`` for every accepting ``q`` reaches
    ``(v, start)`` exactly when some v -> target path spells a word the DFA
    accepts, so each settled start-state configuration emits one pair.
    Cost is bounded by the targets' *in*-cones — the profitable direction
    when targets are few or in-fanout is smaller than out-fanout (the
    planner's direction model decides).  ``sources`` restricts emissions,
    and a per-target BFS stops early once every wanted source has answered.
    """
    snapshot = adjacency_snapshot(graph)
    return _sweep(snapshot, dfa, _seed_ids(snapshot, targets), sources, True)


def _propagate(frontier: List[int], moves: List[List[Tuple]],
               num_states: int, own_mask: List[int], other_mask: List[int],
               queued: List[int], round_number: int, emit) -> List[int]:
    """One level of one mask-carrying search (:func:`_shared_sweep`, either
    side of :func:`rpq_pairs_bidirectional`): returns the next frontier,
    mutates ``own_mask`` and ``queued``.

    Each configuration pushes the endpoint bitmask it carries along
    ``moves``.  A neighbor whose mask grows is queued once per round
    (``queued`` holds round stamps; it reads its accumulated mask when it
    expands), and one the opposite search has labeled too is a meet:
    ``emit(its new bits, its other_mask)``.
    """
    next_frontier: List[int] = []
    for packed in frontier:
        carried = own_mask[packed]
        vertex_id, state = divmod(packed, num_states)
        for indptr, indices, patched, base_n, next_state \
                in moves[state]:
            row = patched.get(vertex_id) if patched else None
            if row is not None:
                neighbors = row
            elif vertex_id < base_n:
                neighbors = indices[indptr[vertex_id]:indptr[vertex_id + 1]]
            else:
                continue
            for neighbor in neighbors:
                code = neighbor * num_states + next_state
                known = own_mask[code]
                merged = carried | known  # once: the masks may be bignums
                if merged != known:
                    own_mask[code] = merged
                    meet = other_mask[code]
                    if meet:
                        emit(carried & ~known, meet)
                    if queued[code] != round_number:
                        queued[code] = round_number
                        next_frontier.append(code)
    return next_frontier


def rpq_pairs_bidirectional(graph, dfa, sources: Iterable[Hashable],
                            targets: Iterable[Hashable]
                            ) -> PairBlocks:
    """Meet-in-the-middle product BFS between explicit source/target sets.

    Two label-propagating frontiers share the (vertex, dfa-state) product:
    the forward one carries, per configuration, the bitmask of *sources*
    that reach it over the forward CSR; the backward one the bitmask of
    *targets* reachable from it over the reverse CSR with reversed DFA
    moves.  Each round expands whichever frontier is currently smaller.
    A configuration labeled by both sides is a **meet**: the mask product
    is emitted immediately, so a selective point-to-point query terminates
    as soon as the two half-depth cones touch — neither side ever explores
    the full depth the one-directional kernels would.

    Exactness does not depend on meets alone: masks only grow, so the
    moment either frontier drains that side's labeling is a complete
    closure and the full answer set is read off it directly (forward
    labels at ``(target, accepting)``, backward labels at ``(source,
    start)``).  Total work is therefore bounded by ~2x the *smaller* of
    the two cones — the bidirectional win on queries where one end is
    selective, and the reason the planner gates this kernel on bounded
    source *and* target sets.
    """
    snapshot = adjacency_snapshot(graph)
    num_states = dfa.num_states
    vertex_of = snapshot.vertex_of

    source_ids = _seed_ids(snapshot, sources)
    target_ids = _seed_ids(snapshot, targets)
    if not source_ids or not target_ids:
        return PairBlocks(())

    fwd_moves = _product_moves(snapshot, dfa, False)
    bwd_moves = _product_moves(snapshot, dfa, True)
    start_state = dfa.start
    accepting_states = sorted(dfa.accepting)

    fwd_mask = [0] * (snapshot.num_slots * num_states)
    bwd_mask = [0] * (snapshot.num_slots * num_states)
    # Per-round enqueue stamps: a config whose mask grows under several
    # predecessors in one round still expands once next round.  A round
    # expands one side only, so both sides share the stamp array.
    queued = [-1] * (snapshot.num_slots * num_states)
    answers: Set[Tuple[Hashable, Hashable]] = set()
    total = len(source_ids) * len(target_ids)
    round_number = 0

    # Per-mask decode caches: dense meets re-emit the same carried masks
    # over and over (every meet in a round shares the frontier's masks), so
    # decoding bit-by-bit inside emit made the meet phase quadratic in the
    # endpoint-set size.  Decoded vertex tuples are memoized per mask value.
    decoded_sources: Dict[int, Tuple[Hashable, ...]] = {}
    decoded_targets: Dict[int, Tuple[Hashable, ...]] = {}
    all_sources = [vertex_of[source_id] for source_id in source_ids]
    all_targets = [vertex_of[target_id] for target_id in target_ids]

    def emit(source_mask: int, target_mask: int) -> None:
        source_vertices = decoded_sources.get(source_mask)
        if source_vertices is None:
            source_vertices = tuple(_mask_members(source_mask, all_sources))
            decoded_sources[source_mask] = source_vertices
        target_vertices = decoded_targets.get(target_mask)
        if target_vertices is None:
            target_vertices = tuple(_mask_members(target_mask, all_targets))
            decoded_targets[target_mask] = target_vertices
        for source_vertex in source_vertices:
            for target_vertex in target_vertices:
                answers.add((source_vertex, target_vertex))

    def emit_from_targets(target_mask: int, source_mask: int) -> None:
        emit(source_mask, target_mask)

    bwd_frontier: List[int] = []
    for j, target_id in enumerate(target_ids):
        for state in accepting_states:
            code = target_id * num_states + state
            bwd_mask[code] = 1 << j
            bwd_frontier.append(code)
    fwd_frontier: List[int] = []
    for i, source_id in enumerate(source_ids):
        code = source_id * num_states + start_state
        fwd_mask[code] = 1 << i
        fwd_frontier.append(code)
        if bwd_mask[code]:  # seed-on-seed meet (an epsilon answer)
            emit(1 << i, bwd_mask[code])

    while fwd_frontier and bwd_frontier and len(answers) < total:
        round_number += 1
        if len(fwd_frontier) <= len(bwd_frontier):
            fwd_frontier = _propagate(fwd_frontier, fwd_moves, num_states,
                                      fwd_mask, bwd_mask, queued,
                                      round_number, emit)
        else:
            bwd_frontier = _propagate(bwd_frontier, bwd_moves, num_states,
                                      bwd_mask, fwd_mask, queued,
                                      round_number, emit_from_targets)

    if len(answers) < total:
        if not fwd_frontier:
            # Forward closure complete: pairs = sources labeled onto any
            # (target, accepting) configuration.
            for j, target_id in enumerate(target_ids):
                base = target_id * num_states
                combined = 0
                for state in accepting_states:
                    combined |= fwd_mask[base + state]
                if combined:
                    emit(combined, 1 << j)
        else:
            # Backward closure complete: pairs read off (source, start).
            for i, source_id in enumerate(source_ids):
                combined = bwd_mask[source_id * num_states + start_state]
                if combined:
                    emit(1 << i, combined)
    # Meets overlap (a pair can be emitted by several), so this answer is a
    # deduplicated set first and one ready-made block second.
    return PairBlocks.from_pairs(answers)


# The single-relational half, re-exported.  Imported last: it reads
# ``_CACHE_ATTR`` from this module while loading.
from repro.graph.compact_digraph import (  # noqa: E402
    CompactDiGraph,
    digraph_snapshot,
    digraph_snapshot_if_large,
)
