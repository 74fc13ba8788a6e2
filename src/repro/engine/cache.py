"""Query result caching keyed on the graph's mutation version.

Traversal workloads repeat queries (dashboards, recommendation batches), so
the engine supports an optional LRU result cache.  Correctness hinges on
invalidation: every :class:`MultiRelationalGraph` mutation bumps a version
counter, and cache keys embed it — a stale entry never matches again.

Memory hinges on it too.  A graph's version only moves forward, so an
entry of a superseded version is dead weight, and on a write mix waiting
for LRU pressure to push it out means a cache full of unreachable answer
sets.  ``put`` therefore drops a graph's older-version entries the first
time it sees that graph at a newer version, and refuses a late ``put``
for a version already superseded (a reader that raced a writer).  The
cache never holds more than the live version's entries per graph; other
graphs sharing the cache are untouched, and the LRU bound is unchanged.

The cache stores whole immutable results — :class:`PathSet` for ``query()``
entries, pair-block answers for ``pairs()`` entries (keyed apart by ``kind``).
Only full-result calls use it; ``limit`` queries bypass caching (a truncated
result is not reusable).

A ``pairs()`` entry is the :class:`~repro.graph.pairs.PairBlocks` the
kernel returned, stored as is (the engine makes no copy): the answer's
disjoint blocks plus one ``memo`` slot for whatever a caller derives from
the answer and wants back on the next hit (the serving tier keeps the
answer's encoded wire bytes there).  The memo hangs off the entry itself,
so its lifetime *is* the entry's — LRU eviction, the superseded-version
purge and ``clear()`` drop both together, and there is no second index to
keep in step.  A cache full of all-sources answers holds their block
members, not a GC-tracked tuple per pair.

Key audit (PR 7)
----------------
The key must cover **every parameter that can change the result**.  PRs 3-6
added ``sources``/``targets`` endpoint filters to the pairs path, so the key
now embeds them (``None`` = unfiltered keeps its own slot).  Two parameters
are deliberately *not* in the key: ``processes`` (the fan-out merges to the
same answer set by construction — tests/test_parallel.py pins that) and the
traversal direction (derived from expression + filters + statistics, all of
which the key already covers through expression/filters/version).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, FrozenSet, Hashable, Optional, Tuple

from repro.concurrency import ordered_lock
from repro.regex.ast import RegexExpr

__all__ = ["QueryCache"]

# Positions of the graph version and graph token in a ``_key`` tuple.
_VERSION, _TOKEN = 3, 5


class QueryCache:
    """A bounded LRU of ``(kind, expression, bound, filters, graph identity+version) -> result``.

    The key embeds a **per-graph token** besides the mutation version: one
    cache instance may be shared by engines over different graphs, and two
    graphs easily agree on ``version()`` (every fresh graph starts at the
    same counter) while holding different edges — without the token they
    would serve each other's results.

    All operations are thread-safe: the service tier's
    :class:`~repro.service.AsyncEngine` probes and fills one shared cache
    from multiple executor threads.
    """

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, Any]" = OrderedDict()
        # graph token -> the newest version ``put`` has seen for it (one
        # int per graph; entries of any older version are already gone).
        self._latest: Dict[Any, int] = {}
        # A leaf in the witness's lock hierarchy: nothing else is ever
        # acquired while a cache bucket operation holds this.
        self._lock = ordered_lock("engine.query_cache")
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(expression: RegexExpr, max_length: Optional[int],
             graph_version: int, strategy: str, graph_token,
             sources: Optional[FrozenSet[Hashable]],
             targets: Optional[FrozenSet[Hashable]],
             kind: str) -> Tuple:
        # Strategy is part of the key only to keep benchmark comparisons
        # honest; all strategies return equal sets, so sharing across them
        # would also be sound.  The token is NOT optional soundness-wise —
        # see the class docstring — and neither are the endpoint filters:
        # two pairs() calls differing only in sources/targets return
        # different sets, so each filter combination gets its own slot.
        sources = None if sources is None else frozenset(sources)
        targets = None if targets is None else frozenset(targets)
        return (kind, expression, max_length, graph_version, strategy,
                graph_token, sources, targets)

    def get(self, expression: RegexExpr, max_length: Optional[int],
            graph_version: int, strategy: str,
            graph_token=None,
            sources: Optional[FrozenSet[Hashable]] = None,
            targets: Optional[FrozenSet[Hashable]] = None,
            kind: str = "paths",
            record_miss: bool = True) -> Optional[Any]:
        """The cached result, or None; a hit refreshes LRU recency.

        ``record_miss=False`` is for a probe whose caller looks the key
        up again on ``None`` (that lookup records the outcome): one
        request then counts as one hit or one miss, never two.
        """
        key = self._key(expression, max_length, graph_version, strategy,
                        graph_token, sources, targets, kind)
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                if record_miss:
                    self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return result

    def put(self, expression: RegexExpr, max_length: Optional[int],
            graph_version: int, strategy: str, result: Any,
            graph_token=None,
            sources: Optional[FrozenSet[Hashable]] = None,
            targets: Optional[FrozenSet[Hashable]] = None,
            kind: str = "paths") -> None:
        """Insert a result, evicting the least recently used beyond capacity.

        The first ``put`` at a newer ``graph_version`` drops that
        ``graph_token``'s entries of every older version; a ``put`` below
        the newest version seen for the token stores nothing.
        """
        key = self._key(expression, max_length, graph_version, strategy,
                        graph_token, sources, targets, kind)
        with self._lock:
            latest = self._latest.get(graph_token)
            if latest is None or graph_version > latest:
                self._latest[graph_token] = graph_version
                if latest is not None:
                    for stale in [k for k in self._entries
                                  if k[_TOKEN] == graph_token
                                  and k[_VERSION] < graph_version]:
                        del self._entries[stale]
            elif graph_version < latest:
                return
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def stats(self) -> dict:
        """Hit/miss/occupancy counters (``Engine.cache_stats`` feeds on
        this shape for both of its caches)."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "entries": len(self._entries), "capacity": self.capacity}

    def clear(self) -> None:
        """Drop all entries and reset counters."""
        with self._lock:
            self._entries.clear()
            self._latest.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return "QueryCache<{}/{} entries, {} hits, {} misses>".format(
            len(self._entries), self.capacity, self.hits, self.misses)
