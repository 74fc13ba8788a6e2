"""Vertex-range sharding of compact CSR snapshots.

The ROADMAP's scale-out step: partition one
:class:`~repro.graph.compact.CompactAdjacency` into contiguous **vertex
ranges** so the all-sources sweeps that dominate production traffic can run
per-shard and merge.  The paper's path-algebra traversals are embarrassingly
parallel across disjoint source partitions — each source's product-BFS never
reads another source's state — so the partition is by *ownership*, not by
reachability:

* a shard **owns** the sources in its range ``[lo, hi)`` and answers every
  query row whose source falls there;
* **cross-shard edges stay on the source side**: shard k stores the full
  out-rows of its owned vertices, column ids remaining global, so a scatter
  kernel (pagerank's edge pass) touches only its own rows while a sweep
  kernel seeded at owned sources walks the shared global CSR.

Every shard is a self-contained :class:`CompactAdjacency` over the **global
slot space** (row slices outside the owned range are empty), produced by
slicing the global CSR — ``indptr[lo:hi+1]`` rebased to ``indptr[lo]``
plus one ``indices`` slice per label, a zero-copy view when the global
snapshot is a mapped file —
so the unchanged compact kernels run on a shard as-is and emit pairs only
for owned sources.  Ranges are balanced by **out-degree**, not vertex
count, so hub-heavy graphs do not starve all workers but one.

The parallel fan-out/merge executor lives in
:mod:`repro.engine.parallel`; its workers inherit the shards by fork.  See
``docs/sharding.md``.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, List, Tuple

from repro.graph.compact import (
    CompactAdjacency,
    DeltaAdjacency,
    _build_csr,
    fold_adjacency_pairs,
)

__all__ = [
    "ShardedSnapshot",
    "sharded_snapshot",
    "shard_ranges",
    "row_degrees",
    "live_ids_in_range",
    "scatter_rank_mass",
]

#: Attribute under which the sharded snapshot is cached on graph instances
#: (keyed by version + shard count, like the compact snapshot cache).
_SHARD_CACHE_ATTR = "_sharded_snapshot_cache"


def row_degrees(view: Any) -> List[int]:
    """Total out-degree per vertex slot, summed over every label.

    Exact on base snapshots and delta overlays alike: a patched row
    replaces its base slice, so its length is the vertex's live degree
    along that label (dead slots read 0).
    """
    n = view.num_slots
    degrees = [0] * n
    for label_id in range(view.num_labels):
        indptr, indices, patched, base_n = view.out_block(label_id)
        for v in range(base_n):
            degrees[v] += indptr[v + 1] - indptr[v]
        for v, row in patched.items():
            degrees[v] += len(row)
            if v < base_n:
                degrees[v] -= indptr[v + 1] - indptr[v]
    return degrees


def shard_ranges(degrees: List[int], num_shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` vertex ranges with ~equal out-edge mass.

    Exactly ``min(num_shards, max(n, 1))`` ranges covering ``[0, n)``; every
    range is non-empty while vertices remain.  Cuts fall where the running
    degree total crosses each ``total * k / num_shards`` threshold, so a
    hub-heavy prefix gets fewer vertices rather than all of the work.
    """
    from bisect import bisect_left
    n = len(degrees)
    if num_shards <= 1 or n <= 1:
        return [(0, n)]
    num_shards = min(num_shards, n)
    total = sum(degrees)
    prefix = [0] * (n + 1)
    for v, degree in enumerate(degrees):
        prefix[v + 1] = prefix[v] + degree
    ranges: List[Tuple[int, int]] = []
    lo = 0
    for shard in range(num_shards):
        if shard == num_shards - 1:
            hi = n
        else:
            threshold = total * (shard + 1) / num_shards
            hi = bisect_left(prefix, threshold, lo + 1, n)
            # Leave at least one vertex for every remaining shard.
            hi = min(hi, n - (num_shards - shard - 1))
        ranges.append((lo, hi))
        lo = hi
    return ranges


def live_ids_in_range(view: Any, lo: int, hi: int) -> Iterable[int]:
    """The live vertex ids inside ``[lo, hi)`` (tombstoned slots skipped)."""
    dead = getattr(view, "dead_vertices", None)
    if not dead:
        return range(lo, hi)
    return [i for i in range(lo, hi) if i not in dead]


def _densify(view: DeltaAdjacency) -> CompactAdjacency:
    """Fold a delta overlay into a fresh dense base snapshot.

    The fold itself (tombstone drop, id re-densify, per-label merge) is
    the shared :func:`~repro.graph.compact.fold_adjacency_pairs` — the
    same one the snapshot store's checkpoint uses — so the two layers can
    never disagree about what an overlay flattens to.
    """
    vertex_of, label_of, per_label, num_edges = fold_adjacency_pairs(view)
    n = len(vertex_of)
    forward = []
    reverse = []
    for pairs in per_label:
        forward.append(_build_csr(n, pairs, len(pairs)))
        reverse.append(_build_csr(n, ((h, t) for t, h in pairs), len(pairs)))
    return CompactAdjacency.from_arrays(view.version, vertex_of, label_of,
                                        forward, reverse, num_edges)


def _slice_rows(indptr: Any, indices: Any, lo: int, hi: int,
                n: int) -> Tuple[Any, Any]:
    """One label's forward CSR restricted to rows ``[lo, hi)``.

    Returns ``(shard_indptr, shard_indices)`` over the full ``n``-slot row
    space: rows outside the range are empty, owned rows keep their global
    column ids.  The indices are one slice of the global array — a copy of
    a heap list, a zero-copy view of a mapped snapshot's ``memoryview`` —
    and the indptr one rebased comprehension.
    """
    start = indptr[lo]
    stop = indptr[hi]
    rebased = [p - start for p in indptr[lo:hi + 1]]
    shard_indptr = [0] * lo + rebased + [stop - start] * (n - hi)
    return shard_indptr, indices[start:stop]


def _reverse_of_rows(indptr: Any, indices: Any, lo: int, hi: int,
                     n: int) -> Tuple[Any, Any]:
    """The reverse CSR of the edges owned by rows ``[lo, hi)``.

    Unlike the forward arrays this cannot be sliced (reverse rows are
    ordered by head, which crosses the range), so it is rebuilt from the
    shard's edges by counting sort.
    """
    pairs: List[Tuple[int, int]] = []
    for v in range(lo, hi):
        for neighbor in indices[indptr[v]:indptr[v + 1]]:
            pairs.append((neighbor, v))
    return _build_csr(n, pairs, len(pairs))


class ShardedSnapshot:
    """One compact snapshot partitioned into vertex-range shards.

    Attributes
    ----------
    version:
        The graph version the partition reflects.
    ranges:
        ``[(lo, hi), ...]`` — contiguous owned vertex-id ranges, one per
        shard, covering ``[0, num_vertices)``.
    shards:
        One self-contained :class:`CompactAdjacency` per range: global slot
        space and interning tables (shared by reference), CSR rows populated
        only for owned vertices.
    degrees:
        Total out-degree per vertex slot (the balancing weights; also the
        pagerank kernels' out-degree vector).
    """

    __slots__ = ("version", "ranges", "shards", "vertex_of", "num_edges",
                 "degrees", "_starts")

    def __init__(self, version: int, ranges: List[Tuple[int, int]],
                 shards: List[CompactAdjacency], vertex_of: List[Hashable],
                 num_edges: int, degrees: List[int]):
        self.version = version
        self.ranges = ranges
        self.shards = shards
        self.vertex_of = vertex_of
        self.num_edges = num_edges
        self.degrees = degrees
        self._starts = [lo for lo, _ in ranges]

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_of)

    @classmethod
    def build(cls, view: Any, num_shards: int) -> "ShardedSnapshot":
        """Partition a snapshot view into ``num_shards`` vertex-range shards.

        ``view`` may be a base :class:`CompactAdjacency` or a
        :class:`DeltaAdjacency` overlay — overlays are densified first
        (shards are immutable row slices; a live overlay has no stable rows
        to slice), so a sharded build doubles as a fold point.
        """
        if not isinstance(view, CompactAdjacency):
            view = _densify(view)
        n = view.num_vertices
        degrees = row_degrees(view)
        ranges = shard_ranges(degrees, num_shards)
        shards: List[CompactAdjacency] = []
        for lo, hi in ranges:
            forward = []
            reverse = []
            shard_edges = 0
            for label_id in range(view.num_labels):
                indptr, indices = view.forward[label_id]
                sliced = _slice_rows(indptr, indices, lo, hi, n)
                forward.append(sliced)
                reverse.append(_reverse_of_rows(indptr, indices, lo, hi, n))
                shard_edges += len(sliced[1])
            shards.append(CompactAdjacency(
                view.version, view.vertex_ids, view.vertex_of,
                view.label_ids, view.label_of, forward, reverse,
                shard_edges))
        return cls(view.version, ranges, shards, view.vertex_of,
                   view.num_edges, degrees)

    def shard_for(self, vertex_id: int) -> int:
        """Index of the shard owning ``vertex_id`` (one bisect)."""
        from bisect import bisect_right
        if not 0 <= vertex_id < self.num_vertices:
            raise IndexError("vertex id {} outside [0, {})".format(
                vertex_id, self.num_vertices))
        return bisect_right(self._starts, vertex_id) - 1

    def __repr__(self) -> str:
        return "ShardedSnapshot<{} shards, |V|={}, |E|={}, version={}>".format(
            self.num_shards, self.num_vertices, self.num_edges, self.version)


def sharded_snapshot(graph: Any, num_shards: int) -> ShardedSnapshot:
    """The cached :class:`ShardedSnapshot` for ``graph``, rebuilt when stale.

    Cached on the graph instance keyed by ``(version, num_shards)`` — a
    mutation or a different shard count invalidates it.  Builds on top of
    :func:`repro.graph.compact.adjacency_snapshot`, so pending journal
    deltas are replayed (and folded) before slicing.
    """
    from repro.graph.compact import adjacency_snapshot
    cached = getattr(graph, _SHARD_CACHE_ATTR, None)
    version = graph.version()
    if cached is not None and cached.version == version \
            and cached.num_shards == num_shards:
        return cached
    sharded = ShardedSnapshot.build(adjacency_snapshot(graph), num_shards)
    setattr(graph, _SHARD_CACHE_ATTR, sharded)
    return sharded


def scatter_rank_mass(shard: CompactAdjacency, lo: int, hi: int,
                      coefficients: Any) -> "array.array":
    """One pagerank power-iteration scatter over one shard's owned rows.

    ``coefficients[v - lo]`` is the damped per-edge share of owned vertex
    ``v`` (``damping * rank / out_degree``, zero for dangling vertices);
    the return value is the dense partial rank-mass vector this shard
    contributes, as an ``array('d')`` — a flat C buffer, so shipping a
    partial back through the pool pickles ~6x faster than a float list
    (this crosses the process boundary once per shard per iteration).
    Pure scalar arithmetic in a fixed row order, so the parallel merge
    (shard partials summed in shard order) is bit-for-bit reproducible
    and identical to the serial fallback.
    """
    import array
    n = shard.num_vertices
    partial = [0.0] * n
    for label_id in range(shard.num_labels):
        indptr, indices = shard.forward[label_id]
        for v in range(lo, hi):
            share = coefficients[v - lo]
            if share == 0.0:
                continue
            start = indptr[v]
            end = indptr[v + 1]
            if start == end:
                continue
            for neighbor in indices[start:end]:
                partial[neighbor] += share
    return array.array("d", partial)
