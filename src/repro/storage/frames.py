"""The record frame codec: the one place that knows the log's byte format.

A log file starts with an 8-byte magic (``RPWAL001``).  Each record is::

    +----------------+----------------+----------------------+
    | length: u32 LE | crc32:  u32 LE | payload (JSON, utf-8)|
    +----------------+----------------+----------------------+

``length`` counts payload bytes only; ``crc32`` is :func:`zlib.crc32` of the
payload.  The payload is the mutation entry ``(version, op, *args)`` encoded
as a compact JSON array, e.g. ``[17,"+e","a","knows","b"]`` or
``[18,"pv","a",{"age":29}]``.

Everything that reads frames goes through two functions: :func:`walk_frames`
(CRC-checked spans out of a byte buffer, plus why the walk stopped) and
:func:`scan_frames` (the walk plus one bulk JSON decode).  What a stop
*means* is the caller's policy, not the codec's: crash recovery calls an
incomplete or corrupt frame a torn tail and keeps the prefix, the offline
scrub calls anything bad below a sealed length corruption, the ship read
cuts a run at the last whole frame inside its byte budget, and a replica
rejects a shipped run whole.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import StorageError

__all__ = ["WAL_MAGIC", "DATA_START", "FRAME_HEADER", "check_loggable",
           "frame", "encode_record",
           "FrameWalk", "walk_frames", "scan_frames",
           "STOP_END", "STOP_INCOMPLETE", "STOP_CRC"]

WAL_MAGIC = b"RPWAL001"

#: Byte offset of the first frame in a log file (just past the magic).
DATA_START = len(WAL_MAGIC)

_FRAME = struct.Struct("<II")  # payload length, payload crc32

#: Bytes of frame header in front of every payload.
FRAME_HEADER = _FRAME.size

#: Why :func:`walk_frames` stopped: the buffer ended on a frame boundary,
#: inside a frame (header or payload cut short), or on a CRC mismatch.
STOP_END = "end"
STOP_INCOMPLETE = "incomplete"
STOP_CRC = "crc"

#: The scalar types the JSON framing round-trips with identity preserved.
#: Tuples would silently come back as lists and lose hash identity — the
#: exact class of bug the triple-CSV layer had with ints — so they are
#: rejected at append time instead.
_SCALARS = (str, int, float, bool, type(None))


def check_loggable(entry: Tuple) -> None:
    """Reject entries the JSON framing cannot round-trip faithfully.

    Vertex and label identifiers must be JSON scalars (str/int/float/bool/
    None) other than NaN, which equals nothing — itself included — so a
    logged NaN id could never be found or removed again; property maps
    must be strict-JSON dicts (no NaN or infinities).  Raises
    :class:`StorageError` naming the offending value.
    """
    for arg in entry:
        if isinstance(arg, _SCALARS):
            if arg != arg:
                raise StorageError(
                    "cannot log {!r}: a NaN id equals nothing, itself "
                    "included".format(arg))
            continue
        if isinstance(arg, dict):
            try:
                json.dumps(arg, allow_nan=False)
            except (TypeError, ValueError) as exc:
                raise StorageError(
                    "property map {!r} is not JSON-serializable: {}".format(
                        arg, exc)) from exc
            continue
        raise StorageError(
            "cannot log {!r}: vertex/label ids must be JSON scalars "
            "(str, int, float, bool or None) to round-trip with identity "
            "preserved".format(arg))


def frame(payload: bytes) -> bytes:
    """``payload`` behind its length + crc32 header."""
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def encode_record(entry: Tuple) -> bytes:
    """One framed record (length + crc + JSON payload) for ``entry``."""
    check_loggable(entry)
    return frame(
        json.dumps(list(entry), separators=(",", ":")).encode("utf-8"))


class FrameWalk(NamedTuple):
    """What :func:`walk_frames` found in a buffer.

    ``starts[i]`` is the byte offset of frame ``i`` and ``payloads[i]`` its
    CRC-verified payload; ``end`` is the offset just past the last intact
    frame; ``stop`` says why the walk ended there.  For
    :data:`STOP_INCOMPLETE`, ``need`` is the cut frame's full size in
    bytes (header included) when its header was readable, else 0.
    """

    starts: List[int]
    payloads: List[bytes]
    end: int
    stop: str
    need: int


def walk_frames(data: bytes, offset: int = 0) -> FrameWalk:
    """CRC-walk the frames in ``data`` from ``offset`` until one is bad."""
    starts: List[int] = []
    payloads: List[bytes] = []
    header = FRAME_HEADER
    unpack_from = _FRAME.unpack_from
    crc32 = zlib.crc32
    total = len(data)
    stop, need = STOP_END, 0
    while offset < total:
        body = offset + header
        if body > total:
            stop = STOP_INCOMPLETE
            break
        length, crc = unpack_from(data, offset)
        frame_end = body + length
        if frame_end > total:
            stop, need = STOP_INCOMPLETE, header + length
            break
        payload = data[body:frame_end]
        if crc32(payload) != crc:
            stop = STOP_CRC
            break
        starts.append(offset)
        payloads.append(payload)
        offset = frame_end
    return FrameWalk(starts, payloads, offset, stop, need)


def _decode_payloads(payloads: List[bytes]
                     ) -> Tuple[List[Tuple], Optional[Tuple[int, str]]]:
    """Decode verified payloads: ``(entries, (bad index, reason) | None)``.

    One parser call for the whole run (each payload is a JSON array, so
    the comma-joined run is itself one array of arrays) — the hot path of
    recovery and of replica catch-up.  Only when that fails does the
    per-payload pass run, to attribute the error to a record.  A payload
    that parses but is not a ``[version, op, ...]`` array is malformed
    too: every consumer indexes that prelude.
    """
    if not payloads:
        return [], None
    try:
        run: Optional[List[Any]] = json.loads(
            b"[" + b",".join(payloads) + b"]")
    except (UnicodeDecodeError, ValueError):
        run = None
    if run is not None and len(run) == len(payloads) and all(
            type(item) is list and len(item) >= 2 for item in run):
        return list(map(tuple, run)), None
    entries: List[Tuple] = []
    for index, payload in enumerate(payloads):
        try:
            item = json.loads(payload)
        except (UnicodeDecodeError, ValueError) as exc:
            return entries, (index, "payload is not valid JSON: {}".format(
                exc))
        if type(item) is not list or len(item) < 2:
            return entries, (index, "payload has no (version, op) prelude")
        entries.append(tuple(item))
    # Every payload decodes alone yet the joined run did not split back
    # into them: frame boundaries and JSON boundaries disagree, so no
    # record of the run can be trusted.
    return [], (0, "payload run does not decode record by record")


def scan_frames(data: bytes, offset: int = 0
                ) -> Tuple[List[Tuple], List[int], int,
                           Optional[Dict[str, Any]]]:
    """Walk and decode: ``(entries, starts, end, finding)``.

    ``entries`` are the records before the first bad frame, ``starts``
    their frame offsets, ``end`` the offset just past the last good one.
    ``finding`` is None for a buffer of whole, well-formed records, else
    ``{"stop", "record", "offset", "reason"}`` describing the first bad
    frame — ``stop`` is a ``STOP_*`` constant or ``"malformed"`` for a
    CRC-valid frame whose payload does not decode to a record.
    """
    walk = walk_frames(data, offset)
    entries, bad = _decode_payloads(walk.payloads)
    if bad is not None:
        index, reason = bad
        return entries, walk.starts[:index], walk.starts[index], {
            "stop": "malformed", "record": index,
            "offset": walk.starts[index], "reason": reason}
    if walk.stop == STOP_END:
        return entries, walk.starts, walk.end, None
    if walk.stop == STOP_CRC:
        reason = "payload crc32 mismatch"
    elif walk.need:
        reason = "incomplete payload"
    else:
        reason = "incomplete frame header"
    return entries, walk.starts, walk.end, {
        "stop": walk.stop, "record": len(entries), "offset": walk.end,
        "reason": reason}
