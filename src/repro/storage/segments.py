"""The store's log: size-capped, CRC-framed segment files and their manifest.

Every durable graph keeps its mutation journal exactly once, here::

    store/segments/
      segments.json        manifest: retained segments + base version
      segment-000001.wal   sealed   (RPWAL001-framed, CRC per record)
      segment-000002.wal   active   (appends go here)

The same structure is a primary's write-ahead log, the feed its replicas
tail, and a replica's local record of what it applied.  Each segment file
is one :class:`~repro.storage.wal.WriteAheadLog` in the record format of
:mod:`repro.storage.frames`.  The active segment rotates once it exceeds
``segment_bytes``: it is flushed, recorded as *sealed* in the manifest
(with its durable byte length and last record version), and a fresh
segment opens on the next append.  Sealed segments whose records are all
folded into a published snapshot are *dropped*, which bounds retained
disk by the snapshot, the active segment and the unfolded suffix.

A segment file is created *before* the manifest naming it is published
and unlinked *after* the manifest forgetting it, so a ``segment-*.wal``
the manifest does not name is a rotation whose publish never happened
(it holds no record: appends start after the publish) or a dropped
segment whose unlink never happened — opening the log deletes both.

Cursors
-------
A :class:`ReplicationCursor` addresses a byte position ``(segment,
offset)`` in this log.  :meth:`WalSegments.read_from` returns the raw
CRC-framed byte run starting at a cursor — the bytes are shipped as-is,
so the per-record CRC32 protects the records end-to-end from the
primary's disk to the replica's apply loop.  A cursor pointing before the
first retained segment raises
:class:`~repro.errors.ReplicationCursorGapError`: the suffix can no
longer be served and the replica must re-bootstrap.  Segment indices are
never reused (dropping and :meth:`reset_base` keep counting upward), so a
stale cursor is always *detected*, never silently re-interpreted.

``base_version`` is the journal version the log starts after — records
with ``version <= base_version`` are only available via the snapshot.
:meth:`reset_base` discards everything and starts a fresh log after an
event that may have lost records (healing from degraded mode, a promoted
replica); every outstanding cursor then gaps, forcing replicas back
through bootstrap instead of letting them tail across a discontinuity.
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.concurrency import ordered_lock, release_resource, track_resource
from repro.errors import (
    ReplicationCorruptionError,
    ReplicationCursorGapError,
    ReplicationError,
    StorageError,
)
from repro.faults import fault_point
from repro.storage.frames import (
    DATA_START,
    FRAME_HEADER,
    STOP_CRC,
    STOP_INCOMPLETE,
    WAL_MAGIC,
    encode_record,
    scan_frames,
    walk_frames,
)
from repro.storage.wal import WriteAheadLog, scan_wal

__all__ = [
    "ReplicationCursor",
    "WalSegments",
    "ShipResult",
    "SEGMENTS_DIRNAME",
    "SEGMENTS_MANIFEST_NAME",
    "publish_json",
    "read_json",
    "scrub_wal_file",
    "decode_frames",
]

#: Subdirectory of a store that holds the log.
SEGMENTS_DIRNAME = "segments"

#: Manifest file inside the segments directory.
SEGMENTS_MANIFEST_NAME = "segments.json"

#: Rotate the active segment once it exceeds this many bytes.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

_SEGMENT_RE = re.compile(r"^segment-\d{6,}\.wal$")


def publish_json(path: str, payload: Dict[str, Any]) -> None:
    """Publish a manifest durably: tmp + fsync + atomic rename + dirsync.

    The one writer behind ``manifest.json``, ``segments.json`` and
    ``replica.json``.  Failure (real or injected at ``manifest.rename``)
    raises :class:`StorageError` with the tmp file removed — the
    previously published file stays live, so a crashed or failed swap can
    never leave a reader looking at a half-written manifest.
    """
    tmp_path = path + ".tmp"
    try:
        with open(tmp_path, "w", encoding="utf-8") as stream:
            json.dump(payload, stream, indent=2, sort_keys=True)
            stream.flush()
            os.fsync(stream.fileno())
        fault_point("manifest.rename")
        os.replace(tmp_path, path)
        fd = os.open(os.path.dirname(path), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except OSError as exc:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise StorageError(
            "{}: manifest publish failed ({})".format(path, exc)) from exc


def read_json(path: str) -> Dict[str, Any]:
    """The JSON object a manifest file holds, or :class:`StorageError`."""
    try:
        with open(path, "r", encoding="utf-8") as stream:
            payload = json.load(stream)
    except (OSError, ValueError) as exc:
        raise StorageError("unreadable {}: {}".format(path, exc)) from exc
    if not isinstance(payload, dict):
        raise StorageError("{} is not a JSON object".format(path))
    return payload


class ReplicationCursor(NamedTuple("_Cursor", [("segment", int),
                                                ("offset", int)])):
    """An immutable position in the segment log: ``(segment, offset)``.

    ``segment`` is a segment *index* (monotonic, never reused) and
    ``offset`` a byte offset inside that segment file, always on a frame
    boundary when produced by this module.  Cursors order as their
    tuples do.  The wire form is the token ``"<segment>:<offset>"``
    (``str(cursor)``).
    """

    __slots__ = ()

    def __new__(cls, segment: int, offset: int) -> "ReplicationCursor":
        if segment < 1 or offset < DATA_START:
            raise ReplicationError(
                "invalid replication cursor ({}, {})".format(segment, offset))
        return super().__new__(cls, segment, offset)

    @classmethod
    def parse(cls, token: str) -> "ReplicationCursor":
        """Parse the ``"segment:offset"`` wire token."""
        head, sep, tail = token.partition(":")
        if not sep:
            raise ReplicationError(
                "bad replication cursor token {!r}: expected "
                "'segment:offset'".format(token))
        try:
            return cls(int(head), int(tail))
        except ValueError as exc:
            raise ReplicationError(
                "bad replication cursor token {!r}: {}".format(token, exc)) \
                from exc

    def token(self) -> str:
        return "{}:{}".format(self.segment, self.offset)

    def __str__(self) -> str:
        return self.token()

    def __repr__(self) -> str:
        return "ReplicationCursor<{}>".format(self.token())


class ShipResult(NamedTuple):
    """One :meth:`WalSegments.read_from` batch: framed bytes + next cursor.

    ``data`` is a raw run of CRC-framed records (possibly empty);
    ``cursor`` is where the *next* read should start; ``at_end`` is True
    when the read drained everything durable at the time of the call.
    """

    data: bytes
    cursor: ReplicationCursor
    at_end: bool


def _segment_name(index: int) -> str:
    return "segment-{:06d}.wal".format(index)


def scrub_wal_file(path: str, limit: Optional[int] = None
                   ) -> Tuple[int, int, Optional[Dict[str, Any]]]:
    """Scrub one RPWAL001 file: ``(records, durable_end, finding)``.

    ``finding`` is None for a clean file, else a dict with ``kind``
    (``"torn-tail"`` for an incomplete trailing frame — the documented
    crash artifact — or ``"corrupt"`` for a CRC mismatch, a CRC-valid
    payload that is not a record, or a short file inside the committed
    region), plus the record index and byte offset of the first bad
    frame.  ``limit`` bounds the committed region (a sealed segment's
    recorded durable length): anything unreadable below it is
    corruption, never a torn tail.
    """
    try:
        with open(path, "rb") as stream:
            data = stream.read() if limit is None else stream.read(limit)
    except OSError as exc:
        return 0, 0, {"kind": "corrupt", "record": 0, "offset": 0,
                      "reason": "unreadable: {}".format(exc)}
    if data[:DATA_START] != WAL_MAGIC:
        return 0, 0, {"kind": "corrupt", "record": 0, "offset": 0,
                      "reason": "bad magic"}
    entries, _, end, finding = scan_frames(data, DATA_START)
    if finding is None:
        if limit is not None and end < limit:
            return len(entries), end, {
                "kind": "corrupt", "record": len(entries), "offset": end,
                "reason": "sealed segment shorter than its recorded "
                          "durable length"}
        return len(entries), end, None
    torn = finding["stop"] == STOP_INCOMPLETE and limit is None
    return len(entries), end, {
        "kind": "torn-tail" if torn else "corrupt",
        "record": finding["record"], "offset": finding["offset"],
        "reason": finding["reason"]}


class WalSegments:
    """The rotating log under ``<dir>``: a store's WAL and replication feed.

    Thread-safe: one ``storage.segments`` ordered lock guards appends,
    rotation, retention, and reads (reads open their own file handle but
    the manifest snapshot they act on must be consistent).

    The active segment is scanned — to find its durable end, truncate a
    torn tail and learn ``last_version`` — by the first call that needs
    it: an owner replaying the log on open (:meth:`iter_entries`) makes
    that replay the one scan, from its checkpoint's cursor; anything else
    scans the segment from its start.
    """

    def __init__(self, directory: str,
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 sync: str = "batch", batch_size: int = 64,
                 base_version: int = 0):
        self.directory = os.path.abspath(directory)
        self.segment_bytes = max(1, segment_bytes)
        self._sync = sync
        self._batch_size = batch_size
        self._lock = ordered_lock("storage.segments")
        self._closed = False
        self._active: Optional[WriteAheadLog] = None
        self._active_bytes = DATA_START
        #: Records appended through this handle (what ``info()`` reports).
        self.records_logged = 0
        #: True when recovery truncated a torn or corrupt active tail.
        self.tail_torn = False
        manifest_path = os.path.join(self.directory, SEGMENTS_MANIFEST_NAME)
        fresh = not os.path.exists(manifest_path)
        if fresh:
            os.makedirs(self.directory, exist_ok=True)
            manifest = {"format": 1, "base_version": base_version,
                        "next_index": 1, "segments": []}
        else:
            manifest = self.load_manifest(manifest_path)
        self._base_version = int(manifest["base_version"])
        self._next_index = int(manifest["next_index"])
        self._segments: List[Dict[str, Any]] = list(manifest["segments"])
        for entry in self._segments[:-1]:
            if not entry.get("sealed"):
                # A crash between seal and manifest publish can only lose
                # the *seal mark* of the final segment; anything earlier
                # unsealed means the manifest was edited by hand.
                raise StorageError(
                    "segments manifest lists unsealed non-tail segment "
                    "{!r}".format(entry.get("name")))
        self._last_version = self._base_version
        for entry in self._segments:
            if entry.get("sealed"):
                self._last_version = int(entry["end_version"])
        #: The manifest names an unsealed tail whose file is not scanned yet.
        self._tail_unscanned = bool(self._segments) \
            and not self._segments[-1].get("sealed")
        named = {str(entry["name"]) for entry in self._segments}
        for stray in os.listdir(self.directory):
            if _SEGMENT_RE.match(stray) and stray not in named:
                os.unlink(os.path.join(self.directory, stray))
        if fresh:
            self._write_manifest()
        self._leak_token = track_resource("segments", self.directory)

    # -- manifest ------------------------------------------------------

    @staticmethod
    def load_manifest(path: str) -> Dict[str, Any]:
        """Read and shape-check a ``segments.json`` (no repair, no writes)."""
        manifest = read_json(path)
        if manifest.get("format") != 1 \
                or not isinstance(manifest.get("segments"), list):
            raise StorageError(
                "segments manifest {} has unsupported structure".format(path))
        return manifest

    def _write_manifest(self) -> None:  # guarded-by: _lock
        publish_json(
            os.path.join(self.directory, SEGMENTS_MANIFEST_NAME),
            {"format": 1, "base_version": self._base_version,
             "next_index": self._next_index, "segments": self._segments})

    # -- open/recovery -------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(
                "segment log {} is closed".format(self.directory))

    def _ready(self) -> None:  # guarded-by: _lock
        """Refuse a closed log; scan the active tail if nothing has yet."""
        self._check_open()
        if self._tail_unscanned:
            self._recover_tail(DATA_START)

    def _recover_tail(self, start: int) -> List[Tuple]:  # guarded-by: _lock
        """Scan the active segment from ``start`` and open it for appends;
        returns the records decoded on the way."""
        tail = self._segments[-1]
        path = os.path.join(self.directory, str(tail["name"]))
        entries, durable_end, self.tail_torn = scan_wal(path, start)
        if entries:
            self._last_version = int(entries[-1][0])
        tail["end_offset"] = durable_end
        tail["end_version"] = self._last_version
        self._active = WriteAheadLog(
            path, sync=self._sync, batch_size=self._batch_size,
            scanned=(durable_end, self.tail_torn))
        self._active_bytes = self._active.durable_end
        self._tail_unscanned = False
        return entries

    def _open_fresh_segment(self) -> None:  # guarded-by: _lock
        index = self._next_index
        name = _segment_name(index)
        path = os.path.join(self.directory, name)
        active = WriteAheadLog(path, sync=self._sync,
                               batch_size=self._batch_size)
        self._segments.append({
            "index": index, "name": name, "sealed": False,
            "end_offset": DATA_START, "end_version": self._last_version})
        self._next_index = index + 1
        try:
            self._write_manifest()
        except BaseException:
            # Unpublished: a record appended to this file would be in no
            # manifest, so it must not become the active segment.
            self._segments.pop()
            self._next_index = index
            active.close()
            try:
                os.unlink(path)
            except OSError:
                pass
            raise
        self._active = active
        self._active_bytes = DATA_START

    # -- properties ----------------------------------------------------

    @property
    def base_version(self) -> int:
        """Versions at or below this are only in the snapshot."""
        return self._base_version

    @property
    def last_version(self) -> int:
        """Version of the newest appended record (buffered included)."""
        with self._lock:
            if not self._closed:
                self._ready()
            return self._last_version

    def retained_bytes(self) -> int:
        """Durable bytes in the retained segment files (buffered excluded)."""
        with self._lock:
            self._ready()
            total = sum(int(entry["end_offset"]) for entry in self._segments
                        if entry.get("sealed"))
            if self._active is not None:
                total += self._active.tell()
            return total

    def end_cursor(self) -> ReplicationCursor:
        """The durable end of the log — where a fresh tail would start."""
        with self._lock:
            self._ready()
            return self._end_cursor_locked()

    def _end_cursor_locked(self) -> ReplicationCursor:
        if not self._segments:
            return ReplicationCursor(self._next_index, DATA_START)
        tail = self._segments[-1]
        if self._active is None:
            return ReplicationCursor(int(tail["index"]),
                                     int(tail["end_offset"]))
        return ReplicationCursor(int(tail["index"]),
                                 self._active.durable_end)

    def cursor_after_reset(self) -> ReplicationCursor:
        """The :meth:`end_cursor` a :meth:`reset_base` will leave.  A
        checkpoint that resets the log publishes it first, so an open that
        finds the log ending short of it finishes the interrupted reset."""
        with self._lock:
            return ReplicationCursor(self._next_index + 1, DATA_START)

    def cursor_for_version(self, version: int) -> ReplicationCursor:
        """The earliest retained cursor whose suffix covers ``> version``.

        Used at bootstrap: the replica restored a snapshot at ``version``
        and needs every later record; sealed segments that end at or
        before it are skipped entirely (their records would only be
        dropped by the version-dedup on apply anyway).
        """
        with self._lock:
            self._ready()
            for entry in self._segments:
                if entry.get("sealed") and int(entry["end_version"]) \
                        <= version:
                    continue
                return ReplicationCursor(int(entry["index"]), DATA_START)
            return self._end_cursor_locked()

    # -- appends -------------------------------------------------------

    def append(self, entry: Tuple) -> None:
        """Append one journal record ``(version, op, *args)``."""
        record = encode_record(entry)
        with self._lock:
            self._ready()
            self._extend_run_locked([entry], record, [0, len(record)])

    def extend_run(self, entries: List[Tuple], blob: bytes,
                   offsets: List[int]) -> None:
        """Append a pre-framed byte run as one batch (replica fast path).

        ``entries`` are the decoded records, ``offsets`` their frame
        start offsets into ``blob`` plus an end sentinel (the shape
        ``decode_frames(..., with_spans=True)`` returns — ``offsets``
        may address a suffix of the decode, with ``offsets[-1]`` the
        end of the last frame).  The shipped bytes are journaled
        verbatim: no re-encode, one lock acquisition, one buffered
        write per segment crossed.  The caller vouches that each span
        is :func:`encode_record` of its entry; frames are CRC-checked
        again on every later read, so a lying caller is caught at read
        time, not silently replayed.
        """
        if not entries:
            return
        if len(offsets) != len(entries) + 1:
            raise StorageError(
                "extend_run needs one frame span per entry plus the end "
                "sentinel: {} entries, {} offsets".format(
                    len(entries), len(offsets)))
        with self._lock:
            self._ready()
            self._extend_run_locked(list(entries), blob, offsets)

    def _extend_run_locked(self, entries: List[Tuple], blob: bytes,
                           offsets: List[int]) -> None:  # guarded-by: _lock
        view = memoryview(blob)
        count = len(entries)
        position = 0
        while position < count:
            if self._active is None:
                self._open_fresh_segment()
            assert self._active is not None
            room = self.segment_bytes - self._active_bytes
            cut = position
            chunk = 0
            while cut < count and chunk < room:
                chunk += offsets[cut + 1] - offsets[cut]
                cut += 1
            self._active.append_blob(
                bytes(view[offsets[position]:offsets[cut]]),
                cut - position)
            self.records_logged += cut - position
            self._active_bytes += chunk
            self._last_version = int(entries[cut - 1][0])
            self._segments[-1]["end_version"] = self._last_version
            if self._active_bytes >= self.segment_bytes:
                self._seal_active_locked()
            position = cut

    def flush(self) -> None:
        """Flush (and fsync, per policy) the active segment."""
        with self._lock:
            self._ready()
            self._flush_active_locked()

    def _flush_active_locked(self) -> None:  # guarded-by: _lock
        if self._active is not None:
            self._active.flush()
            self._segments[-1]["end_offset"] = self._active.durable_end

    def seal_tail(self) -> None:
        """Flush and seal the active segment (promote/rotation barrier).

        The next append opens a fresh segment; until then the log has no
        active segment and :meth:`end_cursor` points at the sealed tail.
        """
        with self._lock:
            self._ready()
            if self._active is not None:
                self._seal_active_locked()

    def _seal_active_locked(self) -> None:  # guarded-by: _lock
        assert self._active is not None
        self._flush_active_locked()
        tail = self._segments[-1]
        tail["end_version"] = self._last_version
        tail["sealed"] = True
        self._active.close()
        self._active = None
        self._write_manifest()

    # -- retention -----------------------------------------------------

    def drop_through(self, version: int) -> int:
        """Drop sealed segments fully folded into snapshot ``version``.

        Returns the number dropped.  The active segment never moves; a
        cursor into a dropped segment gaps on its next read, which is the
        signal for that replica to re-bootstrap.
        """
        with self._lock:
            self._ready()
            doomed, kept = [], []
            for entry in self._segments:
                folded = entry.get("sealed") \
                    and int(entry["end_version"]) <= version
                (doomed if folded else kept).append(entry)
            if doomed:
                self._segments = kept
                self._write_manifest()
                self._unlink(doomed)
            return len(doomed)

    def reset_base(self, version: int) -> None:
        """Discard the whole retained log; restart after ``version``.

        Called when the log can no longer promise a contiguous suffix
        (degraded-mode heal, a promoted replica).  Every outstanding
        cursor will gap — fail-stop for tailing replicas, which then
        re-bootstrap from the snapshot that ``version`` identifies.
        """
        with self._lock:
            self._check_open()  # no tail scan: the tail is discarded
            if self._active is not None:
                try:
                    self._active.close()
                except StorageError:
                    # A degraded log may refuse its final flush; what it
                    # held is superseded by the snapshot at ``version``.
                    pass
                self._active = None
            doomed, self._segments = self._segments, []
            self._tail_unscanned = False
            # Always burn the upcoming segment index, even when the log
            # was empty: an empty log's ``cursor_for_version`` hands out a
            # cursor into the *next* segment speculatively, and that
            # cursor predates whatever this reset is hiding (a degraded
            # window folded straight into the snapshot).  Burning the
            # index makes it gap instead of silently resuming past the
            # hole.
            self._next_index += 1
            self._base_version = version
            self._last_version = version
            self._write_manifest()
            self._unlink(doomed)

    def _unlink(self, entries: List[Dict[str, Any]]) -> None:
        for entry in entries:
            try:
                os.unlink(os.path.join(self.directory, str(entry["name"])))
            except OSError:
                pass  # reopening deletes files the manifest does not name

    # -- reads ---------------------------------------------------------

    def read_from(self, cursor: ReplicationCursor,
                  max_bytes: int = 1 << 20) -> ShipResult:
        """The raw CRC-framed byte run at ``cursor``, whole frames only.

        Walks frames (validating each CRC — a corrupt retained segment is
        a primary-side fail-stop, not something to ship) until the
        durable end of the log or ``max_bytes``, crossing sealed-segment
        boundaries.  Raises :class:`ReplicationCursorGapError` when the
        cursor predates the first retained segment.
        """
        with self._lock:
            self._ready()
            segments = [dict(entry) for entry in self._segments]
            if self._active is not None:
                segments[-1]["end_offset"] = self._active.durable_end
            next_index = self._next_index
        if not segments:
            if cursor.segment < next_index:
                raise ReplicationCursorGapError(cursor.token(), next_index)
            return ShipResult(b"", cursor, True)
        first = int(segments[0]["index"])
        last = int(segments[-1]["index"])
        if cursor.segment < first:
            raise ReplicationCursorGapError(cursor.token(), first)
        if cursor.segment > last or (
                cursor.segment == last
                and cursor.offset > int(segments[-1]["end_offset"])):
            raise ReplicationError(
                "replication cursor {} is beyond the log end".format(
                    cursor.token()))
        by_index = {int(entry["index"]): entry for entry in segments}
        chunks: List[bytes] = []
        budget = max_bytes
        segment, offset = cursor.segment, cursor.offset
        while True:
            entry = by_index[segment]
            limit = int(entry["end_offset"])
            if offset < limit and budget > 0:
                data, offset = self._read_frames(
                    str(entry["name"]), offset, limit, budget)
                chunks.append(data)
                budget -= len(data)
            if offset >= limit and entry.get("sealed") \
                    and segment + 1 in by_index:
                segment, offset = segment + 1, DATA_START
                continue
            break
        # Short of the limit means the budget ran out mid-segment.
        return ShipResult(b"".join(chunks),
                          ReplicationCursor(segment, offset),
                          offset >= limit)

    def _read_frames(self, name: str, start: int, limit: int,
                     budget: int) -> Tuple[bytes, int]:
        """Whole CRC-checked frames from ``start`` toward ``limit``.

        One bulk read of (at most) the byte budget, cut at the last
        whole frame inside the window — except that a single frame
        larger than the whole budget is shipped alone: a poll must
        always make progress, or a record bigger than ``max_bytes``
        would wedge every replica forever.
        """
        span = limit - start
        want = min(span, max(budget, FRAME_HEADER + 1))
        try:
            with open(os.path.join(self.directory, name), "rb") as stream:
                stream.seek(start)
                blob = stream.read(want)
                walk = walk_frames(blob)
                if walk.stop == STOP_INCOMPLETE and walk.end == 0 \
                        and len(blob) == want < span \
                        and len(blob) < walk.need <= span:
                    # One frame bigger than the budget window: fetch its
                    # remainder and ship it whole.
                    blob += stream.read(walk.need - len(blob))
                    walk = walk_frames(blob)
        except OSError as exc:
            raise ReplicationCorruptionError(
                "cannot read segment {}: {}".format(name, exc)) from exc
        if len(blob) < want:
            raise ReplicationCorruptionError(
                "{} truncated below its durable end at byte {}".format(
                    name, start + len(blob)))
        if walk.stop == STOP_CRC or (walk.stop == STOP_INCOMPLETE and (
                walk.end == 0 or len(blob) == span)):
            raise ReplicationCorruptionError(
                "{} record at byte {} failed crc".format(
                    name, start + walk.end))
        return blob[:walk.end], start + walk.end

    def iter_entries(self, after_version: int = -1,
                     start: Optional[ReplicationCursor] = None
                     ) -> Iterator[Tuple]:
        """Decode retained records with ``version > after_version``.

        This is local recovery (store reopen, replica reopen, promote):
        sealed segments are read up to their recorded durable length, the
        active one through its intact prefix.  ``start`` is a cursor the
        caller knows all those records lie at or after (a checkpoint's
        log position), so a reopen reads the unfolded suffix only.
        """
        with self._lock:
            self._check_open()
            tail_entries: Optional[List[Tuple]] = None
            if self._tail_unscanned:
                tail = self._segments[-1]
                tail_entries = self._recover_tail(
                    start.offset if start is not None
                    and start.segment == int(tail["index"]) else DATA_START)
            self._flush_active_locked()
            segments = [dict(entry) for entry in self._segments]
        for entry in segments:
            index = int(entry["index"])
            sealed = entry.get("sealed")
            if (start is not None and index < start.segment) or (
                    sealed and int(entry["end_version"]) <= after_version):
                continue
            if not sealed and tail_entries is not None:
                records = tail_entries
            else:
                records, durable_end, _ = scan_wal(
                    os.path.join(self.directory, str(entry["name"])),
                    start.offset if start is not None
                    and index == start.segment else DATA_START)
                if durable_end < int(entry["end_offset"]):
                    raise ReplicationCorruptionError(
                        "segment {} readable only to byte {} of {}".format(
                            entry["name"], durable_end, entry["end_offset"]))
            for record in records:
                if int(record[0]) > after_version:
                    yield record

    # -- verification --------------------------------------------------

    def verify(self) -> Dict[str, Any]:
        """CRC scrub of every retained segment (see :meth:`scrub`)."""
        with self._lock:
            self._ready()
            self._flush_active_locked()
            segments = [dict(entry) for entry in self._segments]
        return self.scrub(self.directory, segments)

    @classmethod
    def scrub(cls, directory: str,
              segments: Optional[List[Dict[str, Any]]] = None
              ) -> Dict[str, Any]:
        """Read-only scrub of ``segments`` (default: what the directory's
        ``segments.json`` lists) — no repair, no writes.

        Returns ``{"ok": bool, "segments": [...], "first_corrupt":
        {...}|None}``; a torn active tail is reported but does not fail
        the scrub (it is the documented crash artifact — reopen truncates
        it), while any CRC mismatch, malformed payload or a sealed segment
        shorter than its recorded durable length does.
        """
        if segments is None:
            segments = cls.load_manifest(
                os.path.join(directory, SEGMENTS_MANIFEST_NAME))["segments"]
        report: Dict[str, Any] = {"ok": True, "segments": [],
                                  "first_corrupt": None}
        for entry in segments:
            name = str(entry["name"])
            records, durable_end, finding = scrub_wal_file(
                os.path.join(directory, name),
                limit=int(entry["end_offset"]) if entry.get("sealed")
                else None)
            report["segments"].append({
                "name": name, "records": records,
                "durable_end": durable_end, "finding": finding})
            if finding is not None and finding["kind"] == "corrupt" \
                    and report["first_corrupt"] is None:
                report["ok"] = False
                report["first_corrupt"] = dict(finding, segment=name)
        return report

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Flush and close the active segment; idempotent.

        A flush failure still closes the handle (the durable prefix on
        disk stays valid) before the :class:`StorageError` propagates.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                if self._active is not None:
                    self._active.close()
            finally:
                self._active = None
                release_resource(self._leak_token)

    def __enter__(self) -> "WalSegments":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return "WalSegments<{}, {} retained, base={}, last={}{}>".format(
            self.directory, len(self._segments), self._base_version,
            self._last_version, ", closed" if self._closed else "")


def decode_frames(data: bytes, with_spans: bool = False) -> Any:
    """Decode a shipped byte run back into journal entries, CRC-checked.

    The replica-side mirror of :meth:`WalSegments.read_from`: any torn,
    corrupt or malformed frame (a ship cut mid-payload, a flipped bit in
    transit) raises :class:`ReplicationCorruptionError` — the batch is
    rejected whole, never partially applied.

    With ``with_spans=True`` returns ``(entries, offsets)`` where
    ``offsets`` holds each frame's start offset into ``data`` plus an
    end sentinel (``len(entries) + 1`` values) — the shape
    :meth:`WalSegments.extend_run` takes, so a replica can journal the
    verified shipped bytes verbatim instead of re-encoding records it
    just decoded.
    """
    entries, starts, end, finding = scan_frames(data)
    if finding is not None:
        raise ReplicationCorruptionError(
            "shipped record at byte {} of {}: {}".format(
                finding["offset"], len(data), finding["reason"]))
    if with_spans:
        starts.append(end)
        return entries, starts
    return entries
