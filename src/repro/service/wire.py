"""The wire form of a ``pairs()`` answer, encoded once per cached answer.

A served answer is a canonical JSON list: the pairs as two-element lists,
sorted by their ``repr`` (``"[7, 12]" < "[7, 1]"`` — the order is wire
contract, not a natural sort).  That list is a pure function of an
immutable answer set, so it is computed once and kept in the answer's
``memo`` slot (:class:`~repro.graph.pairs.PairBlocks`), where it lives
exactly as long as the result-cache entry does.  A response is then the
small envelope encoded fresh plus those bytes spliced in
(:func:`encode_payload`); nothing is sorted or re-encoded on a cache hit,
and no block of the answer is touched.
"""

from __future__ import annotations

import json
from collections.abc import Set
from itertools import chain, product
from typing import Any, Dict, List, NamedTuple, Optional

from repro.graph.pairs import PairBlocks

__all__ = ["ServedPairs", "encode_pairs", "encode_payload", "pairs_fragment",
           "serve_pairs"]


#: ``repr([tail, head])`` of a pair, made from the tuple as it is.
_pair_repr = "[%r, %r]".__mod__


#: A crossed block with at least this many seconds formats them once and
#: prefixes every head to the lot; smaller blocks (a sweep's many
#: two-seeds-one-vertex rectangles) are cheaper flattened into the one
#: ``%`` all zip pairs share than paying that per-block setup.
_TAILS_MIN = 8


def _int_pair_texts(answer: Set) -> Optional[List[str]]:
    """The JSON text of every pair of a block answer whose endpoints are
    all exact ``int`` s, or None for any other answer.

    For such a pair ``"[%r, %r]"`` — the wire sort key — already is the
    pair's JSON, so the texts are built straight from the blocks: a wide
    crossed block formats its ``", %r]"`` tails once and prefixes each
    ``"[%r"`` head to all of them; every other pair is flattened into one
    ``%`` over a NUL-joined ``"[%r, %r]"`` template.  The texts are cut
    apart by one ``split`` at the end, so no pair costs an interpreter
    step.  ``bool`` fails the exact type test (``repr(True)`` is not
    ``true``), as does every other ``int`` subclass, whose ``repr`` may
    differ from its JSON.
    """
    if not isinstance(answer, PairBlocks):
        return None
    types: set = set()
    for firsts, seconds, _ in answer.blocks:
        types.update(map(type, firsts))
        types.update(map(type, seconds))
    if types - {int}:
        return None
    chunks: List[str] = []
    loose: List[int] = []
    for firsts, seconds, crossed in answer.blocks:
        if not crossed:
            loose += chain.from_iterable(zip(firsts, seconds))
        elif len(seconds) < _TAILS_MIN:
            loose += chain.from_iterable(product(firsts, seconds))
        else:
            tails = "\0".join([", %r]"] * len(seconds)) % tuple(seconds)
            chunks += [head + tails.replace("\0", "\0" + head)
                       for head in map("[%r".__mod__, firsts)]
    if loose:
        chunks.append("\0".join(["[%r, %r]"] * (len(loose) >> 1))
                      % tuple(loose))
    return "\0".join(chunks).split("\0") if chunks else []


def encode_pairs(answer: Set) -> bytes:
    """The sorted JSON pair list of ``answer`` — the one place it is made.

    Byte for byte ``json.dumps(sorted(map(list, answer), key=repr),
    default=str)``: JSON spells a tuple as it spells a list, and the sort
    key is the list's ``repr``.  An all-``int`` block answer (what every
    served graph of integer vertices returns) sorts its pairs' JSON texts
    themselves and joins them — one sort, no second encoding
    (:func:`_int_pair_texts`).  Any other answer sorts its tuples under
    the ``repr`` key and ``json.dumps`` them: the sort reads the answer's
    iterator, and the pairs stay the tuples they are — one new list per
    pair is one GC-tracked allocation per pair, and those are what
    schedule the server's full collections (each one walks every cached
    answer: tens of ms with a full result cache).
    """
    texts = _int_pair_texts(answer)
    if texts is not None:
        texts.sort()
        return ("[" + ", ".join(texts) + "]").encode("ascii")
    return json.dumps(sorted(answer, key=_pair_repr),
                      default=str).encode("utf-8")


def pairs_fragment(answer: Set) -> bytes:
    """``encode_pairs(answer)``, through the answer's memo slot if it has one
    (every engine answer does; a plain ``frozenset`` has nowhere to keep it).

    An unfilled memo (an entry an in-process ``Engine.pairs`` caller put
    in the cache) is filled on first serve; racing fillers store equal
    bytes, so the assignment needs no lock.
    """
    fragment = getattr(answer, "memo", None)
    if fragment is None:
        fragment = encode_pairs(answer)
        if isinstance(answer, PairBlocks):
            answer.memo = fragment
    return fragment


class ServedPairs(NamedTuple):
    """One answer ready to be written out."""

    answer: Set
    fragment: bytes  #: the encoded pair list
    cached: Optional[bool]  #: result-cache hit; None where not reported


def serve_pairs(answer: Set,
                cached: Optional[bool] = None) -> ServedPairs:
    """Encode ``answer`` in the calling thread (or reuse its memo)."""
    return ServedPairs(answer, pairs_fragment(answer), cached)


def _splice(fields: Dict[str, Any], key: str, fragment: bytes) -> bytes:
    """The JSON object ``fields`` with ``key`` last and ``fragment`` —
    already JSON — as its value, verbatim."""
    rest = {k: v for k, v in fields.items() if k != key}
    head = json.dumps(rest, default=str)[:-1] + (", " if rest else "")
    return b"".join(((head + json.dumps(key) + ": ").encode("utf-8"),
                     fragment, b"}"))


def encode_payload(payload: Dict[str, Any]) -> bytes:
    """A response body: ``json.dumps(payload, default=str)``, except that a
    ``bytes`` value under ``"pairs"`` — of the payload, or of every item
    of its ``"results"`` list — is a pre-encoded fragment and is spliced
    in as is (``json.dumps`` would ``str()`` it into the body)."""
    pairs = payload.get("pairs")
    if isinstance(pairs, bytes):
        return _splice(payload, "pairs", pairs)
    results = payload.get("results")
    if isinstance(results, list) and results and all(
            isinstance(item, dict) and isinstance(item.get("pairs"), bytes)
            for item in results):
        return _splice(payload, "results", b"[" + b", ".join(
            _splice(item, "pairs", item["pairs"]) for item in results) + b"]")
    return json.dumps(payload, default=str).encode("utf-8")
