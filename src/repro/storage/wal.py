"""One log file: durable, fsync-batched append of CRC-framed records.

The structural mutation journal :class:`~repro.graph.graph.MultiRelationalGraph`
already maintains for its compact snapshots is *exactly* the event stream a
write-ahead log needs.  :class:`WriteAheadLog` is the single-file append
primitive that makes it durable; a store's log
(:class:`~repro.storage.segments.WalSegments`) is a sequence of such files,
the newest of which is open for appends through this class.  The record
format lives in :mod:`repro.storage.frames`.

Crash consistency
-----------------
Appends are strictly sequential, so after a crash (or a ``kill -9``) the
file is a valid prefix followed by at most one torn record.  Recovery
(:func:`scan_wal`) keeps the records before the first incomplete frame,
CRC mismatch or undecodable payload, and reports the byte offset of the
last intact record; :class:`WriteAheadLog` truncates the torn tail before
appending again.  Nothing after the durable prefix is ever replayed —
losing the tail that was never fsynced is the documented contract,
silently corrupting state is not.

Durability batching
-------------------
``sync="always"`` fsyncs every append (slowest, loses nothing),
``sync="batch"`` fsyncs every ``batch_size`` records and on ``flush()``/
``close()`` (the default — bounded loss window, near-sequential-write
throughput), ``sync="none"`` never fsyncs (tests / bulk loads; the OS
decides).
"""

from __future__ import annotations

import os
from typing import IO, List, Optional, Tuple

from repro.concurrency import ordered_lock, release_resource, track_resource
from repro.errors import StorageError
from repro.faults import fault_hook, fault_point
from repro.storage.frames import (
    DATA_START,
    WAL_MAGIC,
    check_loggable,
    encode_record,
    scan_frames,
)

__all__ = ["WAL_MAGIC", "WriteAheadLog", "scan_wal", "encode_record",
           "check_loggable"]


def scan_wal(path: str, start: int = DATA_START
             ) -> Tuple[List[Tuple], int, bool]:
    """Read every intact record: ``(entries, durable_end, tail_torn)``.

    ``durable_end`` is the byte offset just past the last intact record —
    the truncation point a writer must restore before appending.
    ``tail_torn`` is True when trailing bytes past that offset were found
    (a crash mid-append, a CRC mismatch, or a CRC-valid payload that is
    not a record); those bytes are *not* decoded.  ``start`` is a frame
    boundary to begin at — records before it are not read; a ``start``
    past the end of the file is not a boundary this file has, so the
    whole file is scanned instead.

    A missing file yields ``([], 0, False)``; a file whose *header* is bad
    raises :class:`StorageError` (that is corruption, not a torn tail).
    """
    try:
        with open(path, "rb") as stream:
            magic = stream.read(DATA_START)
            if len(magic) < DATA_START:
                # Shorter than the magic: a writer died creating the file.
                return [], 0, len(magic) > 0
            if magic != WAL_MAGIC:
                raise StorageError(
                    "{}: not a write-ahead log (bad magic {!r})".format(
                        path, magic))
            if start > os.fstat(stream.fileno()).st_size:
                start = DATA_START
            stream.seek(start)
            data = stream.read()
    except FileNotFoundError:
        return [], 0, False
    entries, _, end, finding = scan_frames(data)
    return entries, start + end, finding is not None


class WriteAheadLog:
    """An append-only, CRC-framed, fsync-batched mutation log.

    Opening repairs the file: a torn tail left by a crash is truncated back
    to the durable prefix, so appends always extend a valid log.  Entries
    accepted by :meth:`append` are *pending* until the next fsync point;
    ``records_logged`` counts everything appended this session,
    ``records_durable`` only what has been fsynced.
    """

    def __init__(self, path: str, sync: str = "batch", batch_size: int = 64,
                 scanned: Optional[Tuple[int, bool]] = None):
        if sync not in ("always", "batch", "none"):
            raise StorageError(
                "unknown sync policy {!r}; expected 'always', 'batch' "
                "or 'none'".format(sync))
        if batch_size < 1:
            raise StorageError("batch_size must be >= 1")
        self.path = path
        self.sync = sync
        self.batch_size = batch_size
        self.records_logged = 0
        self.records_durable = 0
        self._pending: List[bytes] = []
        self._pending_records = 0
        #: Set (to a reason string) when a failed append could not even be
        #: rolled back to the durable prefix: the on-disk tail is torn and
        #: this handle refuses further writes.  Reopening the path repairs
        #: the file through the normal torn-tail recovery.
        self._broken: Optional[str] = None
        # Serializes append/flush/close: the service tier can drive a
        # mutation (appending) while a checkpoint flushes the same log
        # from another thread.  Witness-ordered: storage.wal sits below
        # storage.store and above faults.plan in the lock hierarchy.
        self._lock = ordered_lock("storage.wal")
        if scanned is None:
            # Callers that already ran scan_wal (for the replay entries)
            # pass its (durable_end, tail_torn) so the file — which can be
            # the bulk of a reopen — is not read and decoded twice.
            _, durable_end, tail_torn = scan_wal(path)
        else:
            durable_end, tail_torn = scanned
        exists = os.path.exists(path)
        self._stream: Optional[IO[bytes]] = open(path, "r+b" if exists else "w+b")
        self._leak_token = track_resource("wal", path)
        if not exists or durable_end == 0:
            self._stream.seek(0)
            self._stream.truncate(0)
            self._stream.write(WAL_MAGIC)
            self._fsync()
            durable_end = DATA_START
        elif tail_torn:
            self._stream.truncate(durable_end)
            self._fsync()
            self._stream.seek(durable_end)
        else:
            self._stream.seek(durable_end)
        #: Byte offset of the durable prefix: everything before it has
        #: been written *and* fsynced.  A failed flush rolls the file back
        #: to exactly this offset, so a retried flush re-writes the whole
        #: pending batch from here — never double-writing a prefix the
        #: failed attempt partially got out.
        self._durable_end = durable_end

    # ------------------------------------------------------------------

    def append(self, entry: Tuple) -> None:
        """Buffer one ``(version, op, *args)`` entry; flush per the policy."""
        self.append_blob(encode_record(entry), 1)

    def append_blob(self, blob: bytes, records: int) -> None:
        """Buffer a pre-framed byte run holding ``records`` frames.

        The replica-apply fast path: a shipped run arrives already
        length+CRC framed and verified, so re-journaling it must not
        pay a lock round-trip (or a re-encode) per record — the whole
        run lands as one buffered write.  The flush policy fires once:
        ``sync="always"`` still flushes, ``sync="batch"`` flushes when
        the pending batch has reached ``batch_size`` records.
        """
        with self._lock:
            if self._broken is not None:
                raise StorageError(
                    "write-ahead log {} is broken ({}); reopen the store "
                    "to recover the durable prefix".format(
                        self.path, self._broken))
            if self._stream is None:
                raise StorageError(
                    "write-ahead log {} is closed".format(self.path))
            self._pending.append(blob)
            self._pending_records += records
            self.records_logged += records
            if self.sync == "always" \
                    or self._pending_records >= self.batch_size:
                self._flush_pending()

    def flush(self) -> None:
        """Write buffered records and (unless ``sync='none'``) fsync them."""
        with self._lock:
            if self._stream is None and self._broken is None:
                raise StorageError(
                    "write-ahead log {} is closed".format(self.path))
            self._flush_pending()

    def _flush_pending(self) -> None:  # guarded-by: _lock
        """Write+fsync the pending batch transactionally; caller holds the lock.

        The batch only counts as durable — and only leaves ``_pending`` —
        after the fsync succeeds.  Any failure (a real ``ENOSPC``/``EIO``
        or an injected one, possibly after a *short* write that left a
        partial frame in the file) rolls the file back to the durable
        prefix and re-raises as :class:`StorageError`: the pending batch
        stays queued intact, so a later retry starts from a clean prefix
        and can never double-write the bytes the failed attempt got out.
        """
        if self._broken is not None:
            raise StorageError(
                "write-ahead log {} is broken ({}); reopen the store to "
                "recover the durable prefix".format(self.path, self._broken))
        if not self._pending:
            return
        assert self._stream is not None
        buffer = b"".join(self._pending)
        try:
            fault = fault_hook("wal.write")
            if fault is not None and fault.kind in ("eio", "enospc"):
                # Model a short write: part of the batch reaches the file
                # (a torn frame on disk), then the device errors out.
                short = int(len(buffer) * fault.fraction)
                if short:
                    self._stream.write(buffer[:short])
                    self._stream.flush()
                raise fault.to_error()
            self._stream.write(buffer)
            fault_point("wal.fsync")
            self._fsync()
        except OSError as exc:
            self._rewind_to_durable()
            raise StorageError(
                "write-ahead log {}: append failed ({}); the log was "
                "rolled back to its durable prefix".format(
                    self.path, exc)) from exc
        self._durable_end += len(buffer)
        flushed = self._pending_records
        self._pending = []
        self._pending_records = 0
        self.records_durable += flushed

    def _rewind_to_durable(self) -> None:  # guarded-by: _lock
        """Truncate the file back to the durable prefix after a failed flush.

        Reopens the path rather than reusing the failed stream: the
        ``BufferedWriter`` may still hold part of the failed batch, and a
        truncate through it would first try to flush those very bytes.
        If even the rewind fails the handle is poisoned (``_broken``) —
        the torn tail stays on disk, where :func:`scan_wal` recovery
        truncates it on the next open.
        """
        stream, self._stream = self._stream, None
        if stream is not None:
            try:
                stream.close()
            except OSError:
                pass  # the buffered partial batch may fail to flush again
        try:
            fault_point("wal.rewind")
            reopened = open(self.path, "r+b")
        except OSError as exc:
            self._broken = "rollback failed: {}".format(exc)
            return
        try:
            reopened.truncate(self._durable_end)
            reopened.flush()
            os.fsync(reopened.fileno())
            reopened.seek(self._durable_end)
        except OSError as exc:
            self._broken = "rollback failed: {}".format(exc)
            try:
                reopened.close()
            except OSError:
                pass
            return
        self._stream = reopened

    def _fsync(self) -> None:
        assert self._stream is not None
        self._stream.flush()
        if self.sync != "none":
            os.fsync(self._stream.fileno())

    def tell(self) -> int:
        """Durable byte size of the log (buffered records excluded)."""
        with self._lock:
            if self._stream is None:
                return os.path.getsize(self.path)
            return self._stream.tell()

    @property
    def pending(self) -> int:
        """Records appended but not yet flushed to the file."""
        return self._pending_records

    @property
    def broken(self) -> Optional[str]:
        """Why this handle refuses writes, or None while healthy."""
        return self._broken

    @property
    def durable_end(self) -> int:
        """Byte offset of the durable (written + fsynced) prefix."""
        return self._durable_end

    def close(self) -> None:
        """Flush pending records and close; further appends raise.

        Idempotent — and the flush-before-close ordering is the
        durability contract ``sync="batch"`` callers rely on: records
        appended below ``batch_size`` must hit the disk here, not be
        silently dropped with the stream (regression-pinned by
        ``tests/test_storage.py``).  A flush failure still closes the
        handle (the durable prefix on disk stays valid) before the
        :class:`StorageError` propagates; a *broken* handle closes
        quietly — its error already surfaced when the rollback failed,
        and reopening the path runs torn-tail recovery.
        """
        with self._lock:
            if self._stream is None and self._broken is None:
                return
            try:
                if self._broken is None:
                    self._flush_pending()
            finally:
                self._pending = []
                self._pending_records = 0
                self._broken = None
                stream, self._stream = self._stream, None
                if stream is not None:
                    try:
                        stream.close()
                    except OSError:
                        pass  # durable prefix is already fsynced
                release_resource(self._leak_token)

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._stream is None else "open"
        return "WriteAheadLog<{} {}, {} logged, {} durable, sync={}>".format(
            self.path, state, self.records_logged, self.records_durable,
            self.sync)
