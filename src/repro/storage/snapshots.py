"""The snapshot store: CSR adjacency spilled to a versioned binary layout.

A snapshot file holds one :class:`~repro.graph.compact.CompactAdjacency`
(or :class:`~repro.graph.compact.CompactDiGraph`) frozen at a graph
version, in a layout designed to be **mapped**, not parsed::

    +--------------------+  offset 0
    | magic   "RPCSR001" |  8 bytes
    | header_len  u32 LE |  4 bytes
    | header_crc  u32 LE |  4 bytes
    +--------------------+  offset 16
    | header JSON (utf-8,|  interning tables, per-label edge counts,
    |  space-padded to a |  properties, name, version, data_crc32
    |  16-byte boundary) |
    +--------------------+  data_offset = 16 + header_len
    | CSR array data     |  int64 LE arrays, back to back; float64
    |                    |  section last (digraph weights only)
    +--------------------+

For the multi-relational kind the data region is, per label ``l``:
``fwd_indptr`` (n+1), ``fwd_indices`` (m_l), ``rev_indptr`` (n+1),
``rev_indices`` (m_l).  All array offsets are *computed* from the header's
``label_counts`` — the layout is deterministic, so reopening maps the file
once (a read-only stdlib ``mmap.mmap``) and carves the region as one typed
``memoryview`` (format ``q``) whose per-array slices are zero-copy; a
traversal then faults in only the CSR pages it actually touches, and —
the point of a ``memoryview`` over an ndarray — indexing and iterating a
row yields plain Python ``int``s, so the interpreter-loop kernels run at
heap-list speed.  ``mmap=False`` (and any big-endian host) loads the
region eagerly into ``array.array('q')`` instead: same indexing/slicing
contract, same ``int`` cells, no mapping — mmap is a fast path, never a
correctness dependency.  The multi-relational open never touches numpy;
only the digraph kind, whose kernels are vectorised, maps through it.

The mapping is never closed by hand: every carved view holds a reference
to it, so it is unmapped when the last view is dropped (closing it under
an exported view raises ``BufferError``).  Views do not pickle — the
parallel executor's workers inherit a mapped snapshot by fork.

``data_crc32`` covers the whole data region.  It is verified on
``verify=True`` opens (and by ``repro db info``); the default mmap open
skips it precisely because checksumming would fault in every page.

Vertex and label identifiers must be JSON scalars (str/int/float/bool) —
the same restriction (and for the same identity-preserving reason) as the
write-ahead log's.
"""

from __future__ import annotations

import array
import json
import mmap as _mmap
import os
import sys
import zlib
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

try:
    import numpy as _np
except ImportError:  # pragma: no cover - the CI image ships numpy
    _np = None

from repro.errors import StorageError
from repro.faults import fault_point
from repro.graph.compact import (
    CompactAdjacency,
    CompactDiGraph,
    _build_csr,
    fold_adjacency_pairs,
)
from repro.storage.frames import (
    FRAME_HEADER,
    STOP_END,
    check_loggable,
    frame,
    walk_frames,
)

__all__ = [
    "SNAPSHOT_MAGIC",
    "SnapshotMetadata",
    "fold_view",
    "write_adjacency_snapshot",
    "open_adjacency_snapshot",
    "write_digraph_snapshot",
    "open_digraph_snapshot",
]

SNAPSHOT_MAGIC = b"RPCSR001"

# The JSON header is one length+crc32 frame (repro.storage.frames).
_PRELUDE_SIZE = len(SNAPSHOT_MAGIC) + FRAME_HEADER
_ALIGN = 16
_INT_DTYPE = "<i8"
_FLOAT_DTYPE = "<f8"


class SnapshotMetadata:
    """Sidecar state a snapshot carries beyond the CSR arrays."""

    __slots__ = ("kind", "name", "version", "vertex_properties",
                 "edge_properties", "path")

    def __init__(self, kind: str, name: str, version: int,
                 vertex_properties: Dict[Hashable, Dict[str, Any]],
                 edge_properties: Dict[Tuple, Dict[str, Any]], path: str):
        self.kind = kind
        self.name = name
        self.version = version
        self.vertex_properties = vertex_properties
        self.edge_properties = edge_properties
        self.path = path

    def __repr__(self) -> str:
        return "SnapshotMetadata<{} {!r} v{}>".format(
            self.kind, self.name, self.version)


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------

def _check_identifiers(values: Iterable[Hashable], what: str) -> None:
    for value in values:
        try:
            check_loggable((value,))
        except StorageError as exc:
            raise StorageError("{}: {}".format(what, exc)) from exc


def _int_cells(values: Iterable[int]) -> Any:
    """An int64 buffer for ``values`` — numpy array, or array.array('q')."""
    if _np is not None:
        return _np.asarray(values, dtype=_np.int64)
    return array.array("q", values)


def _cell_bytes(cells: Any) -> bytes:
    if _np is not None and isinstance(cells, _np.ndarray):
        return cells.astype(_INT_DTYPE, copy=False).tobytes()
    raw = cells.tobytes()
    if sys.byteorder != "little":  # pragma: no cover - x86/arm are LE
        swapped = cells.__copy__() if hasattr(cells, "__copy__") else cells[:]
        swapped.byteswap()
        raw = swapped.tobytes()
    return raw


def _write_file(path: str, header: Dict[str, Any],
                sections: List[bytes]) -> None:
    """Prelude + padded header + data, fsynced before returning.

    A write/fsync failure (real or injected at ``snapshot.fsync``)
    surfaces as :class:`StorageError` and removes the partial file —
    callers publish snapshots by writing under a fresh/tmp name first,
    so a failed spill must never leave a half-written file for a later
    open to trip over.
    """
    data = b"".join(sections)
    header = dict(header)
    header["data_crc32"] = zlib.crc32(data)
    raw = json.dumps(header, separators=(",", ":")).encode("utf-8")
    pad = -(_PRELUDE_SIZE + len(raw)) % _ALIGN
    raw += b" " * pad  # trailing whitespace is valid JSON
    try:
        with open(path, "wb") as stream:
            stream.write(SNAPSHOT_MAGIC)
            stream.write(frame(raw))
            stream.write(data)
            stream.flush()
            fault_point("snapshot.fsync")
            os.fsync(stream.fileno())
    except OSError as exc:
        try:
            os.unlink(path)
        except OSError:
            pass
        raise StorageError(
            "{}: snapshot write failed ({})".format(path, exc)) from exc


def _read_header(path: str) -> Tuple[Dict[str, Any], int]:
    """``(header, data_offset)`` with magic and header CRC verified."""
    with open(path, "rb") as stream:
        magic = stream.read(len(SNAPSHOT_MAGIC))
        if magic != SNAPSHOT_MAGIC:
            raise StorageError(
                "{}: not a snapshot file (bad magic {!r})".format(path, magic))
        prelude = stream.read(FRAME_HEADER)
        walk = walk_frames(prelude + stream.read(
            max(0, walk_frames(prelude).need - FRAME_HEADER)))
        if walk.stop != STOP_END or len(walk.payloads) != 1:
            raise StorageError("{}: snapshot header is corrupt".format(path))
        raw = walk.payloads[0]
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise StorageError(
            "{}: snapshot header is not valid JSON: {}".format(path, exc)
        ) from exc
    if header.get("format") != 1:
        raise StorageError("{}: unsupported snapshot format {!r}".format(
            path, header.get("format")))
    return header, _PRELUDE_SIZE + len(raw)


def _map_ints(path: str, data_offset: int, total: int, mmap: bool) -> Any:
    """The whole int64 data region as one flat buffer of ``total`` cells.

    ``mmap=True`` maps the file read-only and returns a ``memoryview``
    (format ``q``) over the region — zero-copy, lazily paged, and kept
    alive by the views carved from it.  Otherwise (or on a big-endian
    host, whose native ``q`` is not the file's) the cells are read into an
    ``array.array('q')``.  Either way indexing yields Python ``int``s.

    The file length is checked first: a truncated region is a
    :class:`StorageError`, never a short buffer (or the ``TypeError`` a
    ``cast`` of a non-multiple-of-8 slice would raise).
    """
    end = data_offset + 8 * total
    with open(path, "rb") as stream:
        size = os.fstat(stream.fileno()).st_size
        if size < end:
            raise StorageError(
                "{}: snapshot data region is truncated ({} of {} "
                "cells)".format(path, max(0, size - data_offset) // 8, total))
        if mmap and total and sys.byteorder == "little":
            mapping = _mmap.mmap(stream.fileno(), 0,
                                 access=_mmap.ACCESS_READ)
            return memoryview(mapping)[data_offset:end].cast("q")
        cells = array.array("q")
        stream.seek(data_offset)
        cells.fromfile(stream, total)
    if sys.byteorder != "little":  # pragma: no cover - x86/arm are LE
        cells.byteswap()
    return cells


def _verify_data_crc(path: str, data_offset: int, expected: int) -> None:
    crc = 0
    with open(path, "rb") as stream:
        stream.seek(data_offset)
        while True:
            chunk = stream.read(1 << 20)
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
    if crc != expected:
        raise StorageError(
            "{}: snapshot data checksum mismatch (file is corrupt)".format(
                path))


def _encode_properties(vertex_of: List[Hashable], label_of: List[Hashable],
                       vertex_properties: Optional[Dict[Hashable, Dict[str, Any]]],
                       edge_properties: Optional[Dict[Tuple, Dict[str, Any]]]) -> Dict[str, Any]:
    vertex_ids = {v: i for i, v in enumerate(vertex_of)}
    label_ids = {l: i for i, l in enumerate(label_of)}
    packed_vertices = {}
    for vertex, props in (vertex_properties or {}).items():
        if props and vertex in vertex_ids:
            packed_vertices[str(vertex_ids[vertex])] = props
    packed_edges = []
    for (tail, label, head), props in (edge_properties or {}).items():
        if props and tail in vertex_ids and head in vertex_ids \
                and label in label_ids:
            packed_edges.append([vertex_ids[tail], label_ids[label],
                                 vertex_ids[head], props])
    try:
        json.dumps(packed_vertices), json.dumps(packed_edges)
    except (TypeError, ValueError) as exc:
        raise StorageError(
            "graph properties are not JSON-serializable: {}".format(exc)
        ) from exc
    return packed_vertices, packed_edges


def _decode_properties(header: Dict[str, Any], vertex_of: List[Hashable],
                       label_of: List[Hashable]) -> Tuple[Dict[Hashable, Dict[str, Any]],
                                                          Dict[Tuple, Dict[str, Any]]]:
    vertex_properties: Dict[Hashable, Dict[str, Any]] = {}
    for index, props in (header.get("vertex_properties") or {}).items():
        vertex_properties[vertex_of[int(index)]] = dict(props)
    edge_properties: Dict[Tuple, Dict[str, Any]] = {}
    for tail_id, label_id, head_id, props in header.get("edge_properties", ()):
        edge_properties[(vertex_of[tail_id], label_of[label_id],
                         vertex_of[head_id])] = dict(props)
    return vertex_properties, edge_properties


def _decode_ids(values: Iterable[Hashable]) -> List[Hashable]:
    """JSON round-trips scalars losslessly; just guard against lists."""
    return list(values)


# ----------------------------------------------------------------------
# Folding (delta overlay -> dense arrays)
# ----------------------------------------------------------------------

def fold_view(view: Any) -> Tuple[List[Hashable], List[Hashable],
                             List[List[Tuple[int, int]]], int]:
    """Flatten any snapshot view to ``(vertex_of, label_of, pairs, |E|)``.

    The checkpoint's fold step — tombstoned vertex slots dropped, ids
    re-densified, per-label edge pairs merged (base minus removals plus
    additions).  The actual fold lives in
    :func:`repro.graph.compact.fold_adjacency_pairs`, shared with the
    sharding layer's overlay densification so the invariants cannot drift.
    """
    return fold_adjacency_pairs(view)


# ----------------------------------------------------------------------
# Multi-relational snapshots
# ----------------------------------------------------------------------

def write_adjacency_snapshot(path: str, view: Any, name: str = "",
                             version: int = 0,
                             vertex_properties: Optional[Dict[Hashable, Dict[str, Any]]] = None,
                             edge_properties: Optional[Dict[Tuple, Dict[str, Any]]] = None) -> None:
    """Spill one adjacency view (base or overlay) to ``path``.

    ``view`` is anything :func:`fold_view` accepts; properties are carried
    in the header sidecar (sparse — only non-empty maps are stored).
    """
    vertex_of, label_of, per_label, num_edges = fold_view(view)
    _check_identifiers(vertex_of, "vertex ids")
    _check_identifiers(label_of, "label ids")
    n = len(vertex_of)
    sections: List[bytes] = []
    label_counts: List[int] = []
    for pairs in per_label:
        label_counts.append(len(pairs))
        fwd_indptr, fwd_indices = _build_csr(n, pairs, len(pairs))
        rev_indptr, rev_indices = _build_csr(
            n, ((h, t) for t, h in pairs), len(pairs))
        for cells in (fwd_indptr, fwd_indices, rev_indptr, rev_indices):
            sections.append(_cell_bytes(_int_cells(cells)))
    packed_vertices, packed_edges = _encode_properties(
        vertex_of, label_of, vertex_properties, edge_properties)
    header = {
        "format": 1,
        "kind": "multirelational",
        "name": name,
        "version": version,
        "num_vertices": n,
        "num_edges": num_edges,
        "vertex_of": vertex_of,
        "label_of": label_of,
        "label_counts": label_counts,
        "vertex_properties": packed_vertices,
        "edge_properties": packed_edges,
    }
    try:
        json.dumps(header["vertex_of"]), json.dumps(header["label_of"])
    except (TypeError, ValueError) as exc:
        raise StorageError(
            "vertex/label ids are not JSON-serializable: {}".format(exc)
        ) from exc
    _write_file(path, header, sections)


def open_adjacency_snapshot(path: str, mmap: bool = True,
                            verify: bool = False
                            ) -> Tuple[CompactAdjacency, SnapshotMetadata]:
    """Reopen a multi-relational snapshot, mmap-backed by default.

    Returns ``(snapshot, metadata)``.  With ``mmap=True`` the CSR arrays
    are zero-copy ``memoryview`` slices of one read-only ``mmap.mmap`` —
    nothing beyond the header is read until a kernel slices a row;
    ``mmap=False`` reads them into one ``array.array('q')``.  Both hand
    the kernels Python ``int``s.  ``verify=True`` checksums the data
    region first (reads every page; use for integrity audits, not the
    serving path).
    """
    header, data_offset = _read_header(path)
    if header.get("kind") != "multirelational":
        raise StorageError("{}: expected a multirelational snapshot, found "
                           "kind {!r}".format(path, header.get("kind")))
    vertex_of = _decode_ids(header["vertex_of"])
    label_of = _decode_ids(header["label_of"])
    n = header["num_vertices"]
    label_counts = header["label_counts"]
    if len(vertex_of) != n or len(label_counts) != len(label_of):
        raise StorageError("{}: snapshot header is inconsistent".format(path))
    if verify:
        _verify_data_crc(path, data_offset, header["data_crc32"])
    total = sum(2 * (n + 1) + 2 * count for count in label_counts)
    flat = _map_ints(path, data_offset, total, mmap)
    forward: List[Tuple] = []
    reverse: List[Tuple] = []
    cursor = 0
    for count in label_counts:
        blocks = []
        for length in (n + 1, count, n + 1, count):
            blocks.append(flat[cursor:cursor + length])
            cursor += length
        forward.append((blocks[0], blocks[1]))
        reverse.append((blocks[2], blocks[3]))
    snapshot = CompactAdjacency.from_arrays(
        header.get("version", 0), vertex_of, label_of, forward, reverse,
        header["num_edges"])
    vertex_properties, edge_properties = _decode_properties(
        header, vertex_of, label_of)
    metadata = SnapshotMetadata("multirelational", header.get("name", ""),
                                header.get("version", 0), vertex_properties,
                                edge_properties, path)
    return snapshot, metadata


# ----------------------------------------------------------------------
# Single-relational (DiGraph) snapshots
# ----------------------------------------------------------------------

def write_digraph_snapshot(path: str, snapshot: CompactDiGraph,
                           name: str = "") -> None:
    """Spill one :class:`CompactDiGraph` (CSR arrays included) to ``path``."""
    if _np is None:
        raise StorageError("digraph snapshots require numpy")
    vertex_of = list(snapshot.vertex_of)
    _check_identifiers(vertex_of, "vertex ids")
    n = snapshot.num_vertices
    m = len(snapshot.tails)
    int_arrays = (snapshot.tails, snapshot.heads,
                  snapshot.fwd_indptr, snapshot.fwd_indices,
                  snapshot.rev_indptr, snapshot.rev_indices,
                  snapshot.und_indptr, snapshot.und_indices)
    sections = [_np.ascontiguousarray(a, dtype=_INT_DTYPE).tobytes()
                for a in int_arrays]
    for a in (snapshot.weights, snapshot.out_weight):
        sections.append(_np.ascontiguousarray(a, dtype=_FLOAT_DTYPE).tobytes())
    header = {
        "format": 1,
        "kind": "digraph",
        "name": name,
        "version": snapshot.version,
        "num_vertices": n,
        "num_edges": m,
        "vertex_of": vertex_of,
    }
    _write_file(path, header, sections)


def open_digraph_snapshot(path: str, mmap: bool = True,
                          verify: bool = False) -> CompactDiGraph:
    """Reopen a digraph snapshot; CSR index arrays are adopted, not rebuilt."""
    if _np is None:
        raise StorageError("digraph snapshots require numpy")
    header, data_offset = _read_header(path)
    if header.get("kind") != "digraph":
        raise StorageError("{}: expected a digraph snapshot, found kind "
                           "{!r}".format(path, header.get("kind")))
    if verify:
        _verify_data_crc(path, data_offset, header["data_crc32"])
    vertex_of = _decode_ids(header["vertex_of"])
    n, m = header["num_vertices"], header["num_edges"]
    if len(vertex_of) != n:
        raise StorageError("{}: snapshot header is inconsistent".format(path))
    int_lengths = (m, m, n + 1, m, n + 1, m, n + 1, 2 * m)
    total_ints = sum(int_lengths)
    if mmap and total_ints and (m + n):
        ints = _np.memmap(path, dtype=_INT_DTYPE, mode="r",
                          offset=data_offset, shape=(total_ints,))
        floats = _np.memmap(path, dtype=_FLOAT_DTYPE, mode="r",
                            offset=data_offset + 8 * total_ints,
                            shape=(m + n,))
    else:
        ints = _np.fromfile(path, dtype=_INT_DTYPE, count=total_ints,
                            offset=data_offset)
        floats = _np.fromfile(path, dtype=_FLOAT_DTYPE, count=m + n,
                              offset=data_offset + 8 * total_ints)
    if len(ints) != total_ints or len(floats) != m + n:
        raise StorageError("{}: snapshot data region is truncated".format(path))
    views = []
    cursor = 0
    for length in int_lengths:
        views.append(ints[cursor:cursor + length])
        cursor += length
    tails, heads, fwd_ip, fwd_ix, rev_ip, rev_ix, und_ip, und_ix = views
    weights, out_weight = floats[:m], floats[m:]
    vertex_ids = {v: i for i, v in enumerate(vertex_of)}
    return CompactDiGraph.from_csr(
        header.get("version", 0), vertex_of, vertex_ids, tails, heads,
        weights, fwd_ip, fwd_ix, rev_ip, rev_ix, und_ip, und_ix, out_weight)
