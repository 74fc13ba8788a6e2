"""The wire forms of a ``pairs()`` answer, each encoded once per cached answer.

A served answer goes out in one of two forms, chosen per request:

* **flat** (the default, and the compatibility form: the SDK never asks
  for it) — ``"pairs"``, a canonical JSON list: the pairs
  as two-element lists, sorted by their ``repr`` (``"[7, 12]" < "[7, 1]"``
  — the order is wire contract, not a natural sort);
* **blocks** — ``"blocks"``, the answer's own disjoint blocks as
  ``[firsts, seconds, crossed]`` triples in the kernel's order, unsorted
  (:class:`~repro.graph.pairs.PairBlocks`).  A request asks for it with
  ``Accept: application/x-repro-pair-blocks+json`` (:data:`BLOCKS_TYPE`);
  it is sent only when every endpoint is a type JSON gives back exactly
  (``int``, ``str``, ``float``, ``bool``, ``None``), and any other answer
  gets the flat form.

Either form is a pure function of an immutable answer set, so it is
computed at most once and kept in the answer's ``memo`` slot — one entry
per form — where it lives exactly as long as the result-cache entry does.
A response is then the small envelope encoded fresh plus those bytes
spliced in (:func:`encode_reply`); nothing is sorted or re-encoded on a
cache hit, and no block of the answer is touched.  :func:`decode_answer`
is the client's side: either form back to a ``PairBlocks``.

The error contract lives here too, because both sides read it:
:func:`error_reply` turns any error into the server's reply by
:data:`ERROR_CONTRACT`, and the SDK retries :data:`RETRIABLE_STATUSES`
(``docs/serving.md`` has the status table).  So does the replication
feed's reply schema, :data:`FEED_FIELDS`: the server writes a feed reply's
headers with :func:`feed_headers` and the SDK reads them back with
:func:`feed_meta` (``docs/replication.md`` has the field table).
"""

from __future__ import annotations

import json
from collections.abc import Set
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro.errors import (
    AuthenticationError, DeadlineExceededError, OverloadedError,
    PathAlgebraError, ReplicaReadOnlyError, ReplicaStaleError,
    ReplicationCorruptionError, ReplicationCursorGapError, ReplicationError,
    ServiceError, StoreDegradedError, UnknownGraphError, WireProtocolError)
from repro.graph.pairs import PairBlocks

__all__ = ["BLOCKS_TYPE", "ERROR_CONTRACT", "FEED_FIELDS", "JSON_TYPE",
           "RETRIABLE_STATUSES", "BadRequestError", "PayloadTooLargeError",
           "RouteNotFoundError", "ServedPairs", "decode_answer",
           "decode_batch", "encode_blocks", "encode_pairs", "encode_reply",
           "error_reply", "feed_headers", "feed_meta", "replica_lag_header",
           "serve_pairs", "wants_blocks"]

#: The media type of a reply that may carry block answers; a request
#: naming it in ``Accept`` asks for them.
BLOCKS_TYPE = "application/x-repro-pair-blocks+json"

#: The media type of every other JSON reply.
JSON_TYPE = "application/json"

#: Endpoint types JSON round-trips exactly, and so may travel as blocks.
_JSON_EXACT = frozenset({int, str, float, bool, type(None)})

#: The payload keys that may carry a pre-encoded answer.
_FRAGMENT_KEYS = ("pairs", "blocks")


#: ``repr([tail, head])`` of a pair, made from the tuple as it is.
_pair_repr = "[%r, %r]".__mod__


def _endpoint_types(answer: PairBlocks) -> set:
    """The exact types of every block member of ``answer``."""
    types: set = set()
    for firsts, seconds, _ in answer.blocks:
        types.update(map(type, firsts))
        types.update(map(type, seconds))
    return types


def encode_pairs(answer: Set) -> bytes:
    """The sorted JSON pair list of ``answer`` — the one place it is made.

    Byte for byte ``json.dumps(sorted(map(list, answer), key=repr),
    default=str)``: JSON spells a tuple as it spells a list, and the sort
    key is the list's ``repr``.  The sort reads the answer's iterator and
    the pairs stay the tuples they are, so no list is made per pair.
    This is the compatibility form: a client that asks for blocks never
    gets it (``docs/serving.md``, *Answers as blocks*, has the cost).
    """
    return json.dumps(sorted(answer, key=_pair_repr),
                      default=str).encode("utf-8")


def encode_blocks(answer: Set) -> Optional[bytes]:
    """The JSON block list of ``answer``, or None when it cannot travel as
    blocks (not a ``PairBlocks``, or an endpoint outside the types JSON
    round-trips exactly — those go out flat).

    The blocks are dumped as they are, in the kernel's order: a block
    tuple is already the ``[firsts, seconds, crossed]`` triple.  Nothing
    is sorted and no pair is made.
    """
    if not isinstance(answer, PairBlocks) \
            or _endpoint_types(answer) - _JSON_EXACT:
        return None
    # ``default=list``: a member sequence that is not a list or tuple.
    return json.dumps(answer.blocks, default=list).encode("utf-8")


def _fragment(answer: Set, blocks: bool) -> Tuple[str, bytes]:
    """``(key, bytes)`` of ``answer`` in the form asked for — ``"blocks"``
    when ``blocks`` and the answer allows it, else ``"pairs"`` — through
    the answer's memo if it has one (every engine answer does; a plain
    ``frozenset`` has nowhere to keep it).

    The memo maps a form to its bytes (``None`` under ``"blocks"``: the
    answer goes out flat), so a form is encoded at most once per cached
    answer and only when a request asks for it.  An unfilled memo (an
    entry an in-process ``Engine.pairs`` caller put in the cache) is
    filled on first serve; racing fillers store equal bytes, so no
    assignment needs a lock (a filler losing the race to create the memo
    costs one more encode, never a wrong byte).
    """
    memo = getattr(answer, "memo", None)
    if memo is None:
        memo = {}
        if isinstance(answer, PairBlocks):
            answer.memo = memo
    if blocks:
        if "blocks" not in memo:
            memo["blocks"] = encode_blocks(answer)
        if memo["blocks"] is not None:
            return "blocks", memo["blocks"]
    fragment = memo.get("pairs")
    if fragment is None:
        fragment = memo["pairs"] = encode_pairs(answer)
    return "pairs", fragment


class ServedPairs(NamedTuple):
    """One answer ready to be written out."""

    answer: Set
    key: str  #: the payload key: ``"pairs"`` or ``"blocks"``
    fragment: bytes  #: the encoded answer
    cached: Optional[bool]  #: result-cache hit; None where not reported
    version: Optional[int]  #: the graph version the answer is exact at


def serve_pairs(answer: Set, cached: Optional[bool] = None,
                blocks: bool = False,
                version: Optional[int] = None) -> ServedPairs:
    """Encode ``answer`` in the calling thread (or reuse its memo), as
    blocks when ``blocks`` asks and the answer allows it."""
    key, fragment = _fragment(answer, blocks)
    return ServedPairs(answer, key, fragment, cached, version)


def wants_blocks(accept: str) -> bool:
    """Whether an ``Accept`` header value names :data:`BLOCKS_TYPE`."""
    return BLOCKS_TYPE in accept and any(
        part.split(";", 1)[0].strip() == BLOCKS_TYPE
        for part in accept.split(","))


def _splice(fields: Dict[str, Any], key: str, fragment: bytes) -> bytes:
    """The JSON object ``fields`` with ``key`` last and ``fragment`` —
    already JSON — as its value, verbatim."""
    rest = {k: v for k, v in fields.items() if k != key}
    head = json.dumps(rest, default=str)[:-1] + (", " if rest else "")
    return b"".join(((head + json.dumps(key) + ": ").encode("utf-8"),
                     fragment, b"}"))


def _fragment_key(fields: Any) -> Optional[str]:
    """The key under which a dict carries a pre-encoded answer, if any."""
    if isinstance(fields, dict):
        for key in _FRAGMENT_KEYS:
            if isinstance(fields.get(key), bytes):
                return key
    return None


def encode_reply(payload: Dict[str, Any]) -> Tuple[bytes, str]:
    """A response body and its ``Content-Type``.

    The body is ``json.dumps(payload, default=str)``, except that a
    ``bytes`` value under ``"pairs"`` or ``"blocks"`` — of the payload, or
    of every item of its ``"results"`` list — is a pre-encoded fragment
    and is spliced in as is (``json.dumps`` would ``str()`` it into the
    body).  The type is :data:`BLOCKS_TYPE` when a ``"blocks"`` fragment
    is in the body, :data:`JSON_TYPE` otherwise.
    """
    key = _fragment_key(payload)
    if key is not None:
        return (_splice(payload, key, payload[key]),
                BLOCKS_TYPE if key == "blocks" else JSON_TYPE)
    results = payload.get("results")
    if isinstance(results, list) and results:
        keys = [_fragment_key(item) for item in results]
        if all(keys):
            return (_splice(payload, "results", b"[" + b", ".join(
                _splice(item, key, item[key])
                for item, key in zip(results, keys)) + b"]"),
                BLOCKS_TYPE if "blocks" in keys else JSON_TYPE)
    return json.dumps(payload, default=str).encode("utf-8"), JSON_TYPE


def _malformed(what: str) -> WireProtocolError:
    return WireProtocolError("malformed answer: {}".format(what))


def _blocks_answer(blocks: Any) -> PairBlocks:
    """A decoded ``"blocks"`` value as a ``PairBlocks``, shape-checked."""
    if type(blocks) is not list:
        raise _malformed("blocks is not a list")
    checked = []
    for block in blocks:
        if type(block) is not list or len(block) != 3:
            raise _malformed("a block is not a [firsts, seconds, crossed] "
                             "triple")
        firsts, seconds, crossed = block
        if type(firsts) is not list or type(seconds) is not list \
                or type(crossed) is not bool:
            raise _malformed("a block's sides are not two lists and a "
                             "bool")
        if not crossed and len(firsts) != len(seconds):
            raise _malformed("a zip block's sides differ in length")
        checked.append((firsts, seconds, crossed))
    return PairBlocks(checked)


def _flat_answer(pairs: Any) -> PairBlocks:
    """A decoded ``"pairs"`` list as one zip block, shape-checked."""
    if type(pairs) is not list or not all(
            type(pair) is list and len(pair) == 2 for pair in pairs):
        raise _malformed("pairs is not a list of [source, target] lists")
    if not pairs:
        return PairBlocks(())
    return PairBlocks([([pair[0] for pair in pairs],
                        [pair[1] for pair in pairs], False)])


def decode_answer(item: Dict[str, Any]) -> Dict[str, Any]:
    """A decoded query reply (or batch item) with its answer, in either
    form, replaced by a ``PairBlocks`` under ``"pairs"``; returns ``item``.

    A flat list becomes one zip block.  A ``"blocks"`` value that is not
    a list of ``[list, list, bool]`` triples (a zip block's sides equally
    long), a ``"pairs"`` value that is not a list of two-element lists,
    or a ``count`` other than the answer's length is a
    :class:`~repro.errors.WireProtocolError`.  The length is arithmetic
    over the blocks: no pair is made.  An item with neither key is left
    as it is.
    """
    if "blocks" in item:
        answer = _blocks_answer(item.pop("blocks"))
    elif "pairs" in item:
        answer = _flat_answer(item["pairs"])
    else:
        return item
    count = item.get("count")
    if count is not None and count != len(answer):
        raise _malformed("count {!r} but {} pairs".format(count,
                                                          len(answer)))
    item["pairs"] = answer
    return item


def decode_batch(payload: Dict[str, Any]) -> Dict[str, Any]:
    """A decoded batch reply with :func:`decode_answer` applied to every
    item of its ``"results"``; returns ``payload``."""
    results = payload.get("results", [])
    if type(results) is not list or not all(
            isinstance(item, dict) for item in results):
        raise _malformed("results is not a list of objects")
    for item in results:
        decode_answer(item)
    return payload


# -- the replication feed ----------------------------------------------------


class FeedField(NamedTuple):
    """One metadata field of a feed reply: ``meta`` key, header, type."""

    key: str
    header: str
    type: type


#: Feed action (``GET /replication/<action>``) -> the fields of its reply's
#: ``meta``, one header each.  ``bytes`` is the payload length the primary
#: meant to send, so a replica can tell a torn ship from a short run.
FEED_FIELDS: Dict[str, Tuple[FeedField, ...]] = {
    "snapshot": (
        FeedField("graph", "X-Repro-Graph-Name", str),
        FeedField("snapshot", "X-Repro-Snapshot", str),
        FeedField("snapshot_version", "X-Repro-Snapshot-Version", int),
        FeedField("cursor", "X-Repro-Replication-Cursor", str),
        FeedField("version", "X-Repro-Primary-Version", int),
        FeedField("bytes", "X-Repro-Bytes", int),
    ),
    "wal": (
        FeedField("graph", "X-Repro-Graph-Name", str),
        FeedField("cursor", "X-Repro-Next-Cursor", str),
        FeedField("at_end", "X-Repro-At-End", bool),
        FeedField("version", "X-Repro-Primary-Version", int),
        FeedField("bytes", "X-Repro-Bytes", int),
    ),
}

#: A field type -> (encode, decode); a decode gives None for a value that
#: is not one: an int is decimal digits, a bool ``"1"`` or ``"0"``.
_FEED_CODECS: Dict[type, Tuple[Callable[..., Any], ...]] = {
    str: (str, str),
    int: (str, lambda text: int(text)
          if text.isascii() and text.isdigit() else None),
    bool: (lambda value: "1" if value else "0", {"1": True, "0": False}.get),
}


def feed_headers(action: str, meta: Dict[str, Any]) -> Dict[str, str]:
    """The headers of a feed reply whose metadata is ``meta``."""
    return {field.header: _FEED_CODECS[field.type][0](meta[field.key])
            for field in FEED_FIELDS[action]}


def feed_meta(action: str, headers: Dict[str, str]) -> Dict[str, Any]:
    """The ``meta`` of a feed reply, read from its (lower-cased) headers;
    a missing or malformed field is a
    :class:`~repro.errors.WireProtocolError`, never a default."""
    meta: Dict[str, Any] = {}
    for field in FEED_FIELDS[action]:
        text = headers.get(field.header.lower())
        value = None if text is None else _FEED_CODECS[field.type][1](text)
        if value is None:
            raise WireProtocolError("malformed feed reply: {} {}".format(
                field.header, "missing" if text is None
                else "is {!r}".format(text)))
        meta[field.key] = value
    return meta


# -- the error contract ------------------------------------------------------


class BadRequestError(ServiceError):
    """Malformed request framing or body (HTTP 400)."""


class PayloadTooLargeError(BadRequestError):
    """Request body over the server's cap (HTTP 413; never retriable, the
    same payload will never fit)."""


class RouteNotFoundError(ServiceError):
    """No route serves this method and path (HTTP 404)."""

    def __init__(self, method: str, path: str):
        super().__init__("no route for {} {}".format(method, path))


#: The statuses the contract calls transient: their replies say
#: ``retriable: true``, and an idempotent SDK call retries them.
RETRIABLE_STATUSES = frozenset({429, 503, 504})


def replica_lag_header(records: int, seconds: float) -> str:
    """The ``X-Repro-Replica-Lag`` value of a replica's lag."""
    return "records={}; seconds={:.3f}".format(records, seconds)


def _nothing(error: Any) -> Dict[str, Any]:
    return {}


def _type(error: Any) -> Dict[str, Any]:
    return {"type": type(error).__name__}


class Contract(NamedTuple):
    """An error class's reply: its status, and the body fields and the
    headers it adds to every error reply's ``error`` and ``retriable``."""

    status: int
    fields: Callable[[Any], Dict[str, Any]] = _nothing
    headers: Callable[[Any], Dict[str, str]] = _nothing


#: Error class -> its reply.  :func:`error_reply` walks the error's MRO, so
#: a subclass takes its nearest listed ancestor's row and the order of the
#: rows decides nothing.
ERROR_CONTRACT: Dict[type, Contract] = {
    AuthenticationError: Contract(
        401, headers=lambda e: {"WWW-Authenticate": "Bearer"}),
    UnknownGraphError: Contract(404),
    RouteNotFoundError: Contract(404),
    BadRequestError: Contract(400),
    PayloadTooLargeError: Contract(413),
    OverloadedError: Contract(429, lambda e: {"retry_after": e.retry_after}),
    DeadlineExceededError: Contract(504, lambda e: {"phase": e.phase}),
    # Refused until the operator promotes the replica.
    ReplicaReadOnlyError: Contract(
        403, lambda e: {"replica": True, "read_only": True}),
    # The same cursor can never succeed again: the replica re-bootstraps.
    ReplicationCursorGapError: Contract(
        410, lambda e: {"rebootstrap": True, "cursor": e.cursor,
                        "first_retained": e.retained}),
    ReplicaStaleError: Contract(
        503, lambda e: {"stale": True, "lag_records": e.lag_records,
                        "lag_seconds": e.lag_seconds,
                        "retry_after": e.retry_after},
        lambda e: {"X-Repro-Replica-Lag": replica_lag_header(
            e.lag_records, e.lag_seconds)}),
    ReplicationCorruptionError: Contract(500, _type),
    # Any other feed failure (an injected ship fault) is transient.
    ReplicationError: Contract(503, lambda e: {"retry_after": 1}),
    # A checkpoint heals a degraded store.
    StoreDegradedError: Contract(
        503, lambda e: {"degraded": True, "retry_after": e.retry_after}),
    PathAlgebraError: Contract(400, _type),
    Exception: Contract(500, _type),
}


def error_reply(error: Exception
                ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
    """``(status, body, headers)`` of the reply to ``error``: the body is
    ``error`` (the message), ``retriable`` (the status is one of
    :data:`RETRIABLE_STATUSES`) and the row's fields; the headers are the
    row's, plus ``Retry-After`` exactly when the body has ``retry_after``."""
    row = next(ERROR_CONTRACT[cls] for cls in type(error).__mro__
               if cls in ERROR_CONTRACT)
    body: Dict[str, Any] = {"error": str(error),
                            "retriable": row.status in RETRIABLE_STATUSES}
    body.update(row.fields(error))
    headers = row.headers(error)
    if "retry_after" in body:
        headers["Retry-After"] = "{:g}".format(body["retry_after"])
    return row.status, body, headers
