"""Durable graph storage: one segmented log + mmap'd CSR snapshot store.

See :mod:`repro.storage.persistent` for the lifecycle, ``docs/persistence.md``
for the on-disk formats and crash-consistency guarantees.
"""

from repro.storage.persistent import PersistentGraph
from repro.storage.snapshots import (
    SnapshotMetadata,
    open_adjacency_snapshot,
    write_adjacency_snapshot,
)
from repro.storage.segments import (
    ReplicationCursor,
    ShipResult,
    WalSegments,
    decode_frames,
    scrub_wal_file,
)
from repro.storage.wal import WriteAheadLog, scan_wal

__all__ = [
    "PersistentGraph",
    "WriteAheadLog",
    "scan_wal",
    "WalSegments",
    "ReplicationCursor",
    "ShipResult",
    "decode_frames",
    "scrub_wal_file",
    "SnapshotMetadata",
    "write_adjacency_snapshot",
    "open_adjacency_snapshot",
]
