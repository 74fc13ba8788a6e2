"""A weighted directed graph — the single-relational substrate of section IV-C.

The paper's section IV-C feeds derived binary edge sets
``E' subseteq (V x V)`` to "all known single-relational graph algorithms".
This module is the substrate those algorithms run on: a minimal,
dependency-free weighted digraph.  It deliberately mirrors a subset of the
NetworkX DiGraph API (``add_edge``, ``successors``, ``out_degree``...) so the
test suite can cross-validate every algorithm against NetworkX on the same
data.

Weights default to 1.0; section IV-C projections use the number of witness
paths per pair as the weight (see :class:`repro.core.projection.BinaryProjection`).
"""

from __future__ import annotations

from collections import deque
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    Tuple,
)

from repro.errors import VertexNotFoundError

__all__ = ["DiGraph"]


class DiGraph:
    """A simple weighted directed graph (no parallel edges, loops allowed)."""

    def __init__(self, edges: Iterable[Tuple[Hashable, Hashable]] = ()):
        self._succ: Dict[Hashable, Dict[Hashable, float]] = {}
        self._pred: Dict[Hashable, Dict[Hashable, float]] = {}
        self._version = 0
        for tail, head in edges:
            self.add_edge(tail, head)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_vertex(self, vertex: Hashable) -> None:
        """Ensure ``vertex`` exists (idempotent)."""
        if vertex not in self._succ:
            self._succ[vertex] = {}
            self._pred[vertex] = {}
            self._version += 1

    def add_edge(self, tail: Hashable, head: Hashable, weight: float = 1.0) -> None:
        """Add (or re-weight) the edge ``tail -> head``."""
        self.add_vertex(tail)
        self.add_vertex(head)
        self._succ[tail][head] = float(weight)
        self._pred[head][tail] = float(weight)
        self._version += 1

    def remove_edge(self, tail: Hashable, head: Hashable) -> None:
        """Remove one edge (KeyError if absent)."""
        del self._succ[tail][head]
        del self._pred[head][tail]
        self._version += 1

    def version(self) -> int:
        """A counter bumped by every mutation (cache-invalidation token).

        :mod:`repro.graph.compact` keys its :class:`CompactDiGraph`
        snapshot on this: the first algorithm call after a mutation
        rebuilds it.
        """
        return self._version

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def vertices(self) -> FrozenSet[Hashable]:
        """All vertices."""
        return frozenset(self._succ)

    def edges(self) -> Iterator[Tuple[Hashable, Hashable, float]]:
        """All ``(tail, head, weight)`` triples."""
        for tail, targets in self._succ.items():
            for head, weight in targets.items():
                yield (tail, head, weight)

    def has_vertex(self, vertex: Hashable) -> bool:
        """True when the vertex exists."""
        return vertex in self._succ

    def has_edge(self, tail: Hashable, head: Hashable) -> bool:
        """True when ``tail -> head`` exists."""
        return tail in self._succ and head in self._succ[tail]

    def weight(self, tail: Hashable, head: Hashable) -> float:
        """The weight of one edge (KeyError if absent)."""
        return self._succ[tail][head]

    def successors(self, vertex: Hashable) -> FrozenSet[Hashable]:
        """Vertices one out-edge away."""
        self._require(vertex)
        return frozenset(self._succ[vertex])

    def predecessors(self, vertex: Hashable) -> FrozenSet[Hashable]:
        """Vertices one in-edge away (against direction)."""
        self._require(vertex)
        return frozenset(self._pred[vertex])

    def successor_weights(self, vertex: Hashable) -> Dict[Hashable, float]:
        """``head -> weight`` over the out-edges (a copy)."""
        self._require(vertex)
        return dict(self._succ[vertex])

    def predecessor_weights(self, vertex: Hashable) -> Dict[Hashable, float]:
        """``tail -> weight`` over the in-edges (a copy)."""
        self._require(vertex)
        return dict(self._pred[vertex])

    def out_degree(self, vertex: Hashable, weighted: bool = False) -> float:
        """Out-degree (count, or weight sum when ``weighted``)."""
        self._require(vertex)
        if weighted:
            return sum(self._succ[vertex].values())
        return len(self._succ[vertex])

    def in_degree(self, vertex: Hashable, weighted: bool = False) -> float:
        """In-degree (count, or weight sum when ``weighted``)."""
        self._require(vertex)
        if weighted:
            return sum(self._pred[vertex].values())
        return len(self._pred[vertex])

    def order(self) -> int:
        """``|V|``."""
        return len(self._succ)

    def size(self) -> int:
        """``|E|``."""
        return sum(len(targets) for targets in self._succ.values())

    def reversed(self) -> "DiGraph":
        """The transpose graph."""
        out = DiGraph()
        for v in self._succ:
            out.add_vertex(v)
        for tail, head, weight in self.edges():
            out.add_edge(head, tail, weight)
        return out

    def undirected_neighbors(self, vertex: Hashable) -> FrozenSet[Hashable]:
        """Successors and predecessors together."""
        return self.successors(vertex) | self.predecessors(vertex)

    def _require(self, vertex: Hashable) -> None:
        if vertex not in self._succ:
            raise VertexNotFoundError(vertex)

    # ------------------------------------------------------------------
    # Elementary traversals shared by the algorithm modules
    # ------------------------------------------------------------------

    #: Below this order the dict BFS wins; above it the vectorized kernel
    #: (when numpy is importable) is several times faster.
    _COMPACT_MIN_ORDER = 128

    def bfs_distances(self, source: Hashable) -> Dict[Hashable, int]:
        """Unweighted shortest-path distances from ``source`` (hops).

        Large graphs route through the compact-array frontier BFS
        (:class:`repro.graph.compact.CompactDiGraph`); the dict-based BFS
        below remains both the small-graph path and the no-numpy fallback.
        """
        self._require(source)
        from repro.graph.compact import digraph_snapshot_if_large
        snapshot = digraph_snapshot_if_large(self)
        if snapshot is not None:
            return snapshot.bfs_distances(source)
        return self._bfs_distances_dict(source)

    def _bfs_distances_dict(self, source: Hashable) -> Dict[Hashable, int]:
        """Reference dict-based BFS (always available; used by benchmarks)."""
        distances: Dict[Hashable, int] = {source: 0}
        queue: deque = deque([source])
        while queue:
            vertex = queue.popleft()
            for successor in self._succ[vertex]:
                if successor not in distances:
                    distances[successor] = distances[vertex] + 1
                    queue.append(successor)
        return distances

    def __len__(self) -> int:
        return self.order()

    def __contains__(self, vertex) -> bool:
        return vertex in self._succ

    def __repr__(self) -> str:
        return "DiGraph<|V|={}, |E|={}>".format(self.order(), self.size())
