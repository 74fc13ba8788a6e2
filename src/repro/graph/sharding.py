"""Degree-balanced seed ranges over one compact CSR snapshot.

The paper's path-algebra traversals are embarrassingly parallel across
disjoint source partitions — each source's product-BFS never reads
another source's state — so an all-sources sweep splits by *seed
ownership*, not by reachability: worker k sweeps the sources in its
contiguous vertex-id range ``[lo, hi)`` over the one shared
:class:`~repro.graph.compact.CompactAdjacency` (or delta overlay), and
its cone is free to cross range boundaries.  Ranges are balanced by
**out-degree**, not vertex count, so hub-heavy graphs do not starve all
workers but one.

The parallel fan-out/merge executor lives in
:mod:`repro.engine.parallel`; its workers inherit the snapshot by fork.
See ``docs/sharding.md``.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Tuple

__all__ = ["shard_ranges", "row_degrees", "live_ids_in_range"]


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


def shard_ranges(degrees: List[int], parts: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` vertex ranges with ~equal out-edge mass.

    Exactly ``min(parts, max(n, 1))`` ranges covering ``[0, n)``; every
    range is non-empty while vertices remain.  Cuts fall where the running
    degree total crosses each ``total * k / parts`` threshold, so a
    hub-heavy prefix gets fewer vertices rather than all of the work.
    """
    from bisect import bisect_left
    n = len(degrees)
    if parts <= 1 or n <= 1:
        return [(0, n)]
    parts = min(parts, n)
    total = sum(degrees)
    prefix = [0] * (n + 1)
    for v, degree in enumerate(degrees):
        prefix[v + 1] = prefix[v] + degree
    ranges: List[Tuple[int, int]] = []
    lo = 0
    for part in range(parts):
        if part == parts - 1:
            hi = n
        else:
            threshold = total * (part + 1) / parts
            hi = bisect_left(prefix, threshold, lo + 1, n)
            # Leave at least one vertex for every remaining range.
            hi = min(hi, n - (parts - part - 1))
        ranges.append((lo, hi))
        lo = hi
    return ranges


def live_ids_in_range(view: Any, lo: int, hi: int) -> Iterable[int]:
    """The live vertex ids inside ``[lo, hi)`` (tombstoned slots skipped)."""
    dead = getattr(view, "dead_vertices", None)
    if not dead:
        return range(lo, hi)
    return [i for i in range(lo, hi) if i not in dead]
