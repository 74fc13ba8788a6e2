"""The single-relational compact backend: a numpy snapshot of a
:class:`~repro.algorithms.digraph.DiGraph` and its vectorized kernels.

Split from :mod:`repro.graph.compact` (which re-exports every name here,
so imports need not change): this half is numpy-only and label-blind —
BFS, components, Tarjan SCC, geodesic sweeps, centrality and pagerank
over one CSR — and shares with the RPQ backend only the snapshot-cache
attribute.  numpy is imported by the first snapshot build, so a process
that never runs a DiGraph kernel (a server) never loads it.  A snapshot
is built on first use and cached per ``DiGraph.version()``; a DiGraph
mutated between algorithm calls is rebuilt in O(V + E) on the next one.
Every DiGraph the code builds is only read once built, so there is no
delta to replay.
"""

from __future__ import annotations

from importlib.util import find_spec
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.graph.compact import _CACHE_ATTR

__all__ = ["CompactDiGraph", "digraph_snapshot", "digraph_snapshot_if_large",
           "HAVE_NUMPY"]

#: True when the vectorized DiGraph kernels are available.
HAVE_NUMPY = find_spec("numpy") is not None

#: numpy, imported by the first :func:`digraph_snapshot` call: every kernel
#: here is vectorized, and nothing else in the package needs it.
_np: Any = None


class CompactDiGraph:  # reprolint: ignore[numpy-gate] -- numpy-only by contract
    """A numpy snapshot of one :class:`~repro.algorithms.digraph.DiGraph`.

    Holds interning maps plus flat edge arrays (``tails``, ``heads``,
    ``weights``) and forward/reverse/undirected CSR index arrays — the
    inputs the vectorized BFS, component flood-fill and pagerank kernels
    consume, and (as lazily cached plain lists) the integer-indexed Tarjan
    SCC / Brandes betweenness kernels.  Immutable once built.  Only
    constructed when numpy is importable.
    """

    __slots__ = ("version", "vertex_ids", "vertex_of", "tails", "heads",
                 "weights", "fwd_indptr", "fwd_indices", "rev_indptr",
                 "rev_indices", "und_indptr", "und_indices", "out_weight",
                 "_scalar_fwd")

    def __init__(self, digraph):
        vertex_of = list(digraph._succ)
        vertex_ids = {v: i for i, v in enumerate(vertex_of)}
        tails: List[int] = []
        heads: List[int] = []
        weights: List[float] = []
        for tail, successors in digraph._succ.items():
            tail_id = vertex_ids[tail]
            for head, weight in successors.items():
                tails.append(tail_id)
                heads.append(vertex_ids[head])
                weights.append(weight)
        self.version = digraph.version()
        self.vertex_of = vertex_of
        self.vertex_ids = vertex_ids
        self.tails = tails = _np.asarray(tails, dtype=_np.int64)
        self.heads = heads = _np.asarray(heads, dtype=_np.int64)
        self.weights = weights = _np.asarray(weights, dtype=_np.float64)
        n = len(vertex_of)
        self.fwd_indptr, self.fwd_indices = self._csr(tails, heads, n)
        self.rev_indptr, self.rev_indices = self._csr(heads, tails, n)
        both_tails = _np.concatenate([tails, heads])
        both_heads = _np.concatenate([heads, tails])
        self.und_indptr, self.und_indices = self._csr(both_tails, both_heads, n)
        self.out_weight = _np.bincount(tails, weights=weights, minlength=n)
        self._scalar_fwd = None

    @staticmethod
    def _csr(sources, targets, n):
        order = _np.argsort(sources, kind="stable")
        indices = targets[order]
        counts = _np.bincount(sources, minlength=n)
        indptr = _np.zeros(n + 1, dtype=_np.int64)
        _np.cumsum(counts, out=indptr[1:])
        return indptr, indices

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_of)

    def _scalar_forward(self):
        """Forward CSR as plain lists (lazily cached): scalar-loop kernels
        (Tarjan, Brandes) index lists several times faster than numpy
        scalars inside the interpreter."""
        if self._scalar_fwd is None:
            self._scalar_fwd = (self.fwd_indptr.tolist(),
                                self.fwd_indices.tolist())
        return self._scalar_fwd

    # -- kernels ----------------------------------------------------------

    def _frontier_expand(self, indptr, indices, frontier):
        """All CSR targets of the frontier ids, as one flat gather."""
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return None
        offsets = _np.repeat(_np.cumsum(counts) - counts, counts)
        flat = _np.arange(total, dtype=_np.int64) - offsets
        return indices[_np.repeat(starts, counts) + flat]

    def bfs_levels(self, source_id: int, reverse: bool = False):
        """Vectorized level-synchronous BFS: the distance array (-1 = unreached).

        ``reverse=True`` walks edges against their direction (who reaches
        the source) — the closeness kernel's view.  Wide frontiers (more
        than ~1/8 of the vertices) switch from CSR slice-gathering to one
        masked scan of the flat edge arrays — the direction-optimizing
        trick's cheap cousin: when most vertices are active anyway, a
        single O(E) C pass beats assembling gather indices.
        """
        if reverse:
            indptr, indices = self.rev_indptr, self.rev_indices
            scan_from, scan_to = self.heads, self.tails
        else:
            indptr, indices = self.fwd_indptr, self.fwd_indices
            scan_from, scan_to = self.tails, self.heads
        n = self.num_vertices
        distance = _np.full(n, -1, dtype=_np.int64)
        distance[source_id] = 0
        frontier = _np.asarray([source_id], dtype=_np.int64)
        wide = max(n >> 3, 32)
        level = 0
        while frontier.size:
            level += 1
            if frontier.size >= wide:
                neighbors = scan_to[distance[scan_from] == level - 1]
            else:
                neighbors = self._frontier_expand(indptr, indices, frontier)
                if neighbors is None:
                    break
            fresh = neighbors[distance[neighbors] < 0]
            if fresh.size == 0:
                break
            # Scatter the level, then recover the deduplicated frontier with
            # a linear scan — cheaper than sorting via np.unique.
            distance[fresh] = level
            frontier = _np.flatnonzero(distance == level)
        return distance

    def bfs_distances(self, source: Hashable) -> Dict[Hashable, int]:
        """Hop distances from ``source`` — same contract as the dict BFS."""
        distance = self.bfs_levels(self.vertex_ids[source])
        reached = _np.flatnonzero(distance >= 0)
        vertex_of = self.vertex_of
        if reached.size == len(vertex_of):
            return dict(zip(vertex_of, distance.tolist()))
        return {vertex_of[i]: d
                for i, d in zip(reached.tolist(), distance[reached].tolist())}

    def weak_component_labels(self):
        """Component id per vertex via flood fill on the undirected CSR."""
        n = self.num_vertices
        component = _np.full(n, -1, dtype=_np.int64)
        next_id = 0
        for seed in range(n):
            if component[seed] >= 0:
                continue
            component[seed] = next_id
            frontier = _np.asarray([seed], dtype=_np.int64)
            while frontier.size:
                neighbors = self._frontier_expand(
                    self.und_indptr, self.und_indices, frontier)
                if neighbors is None:
                    break
                fresh = neighbors[component[neighbors] < 0]
                if fresh.size == 0:
                    break
                frontier = _np.unique(fresh)
                component[frontier] = next_id
            next_id += 1
        return component

    def strongly_connected_component_labels(self) -> List[int]:
        """Tarjan's SCC over the forward CSR: component id per vertex id.

        Iterative, integer-indexed: index/lowlink/on-stack state lives in
        flat lists and successor expansion is a CSR slice walk — no dict
        hashing, no Edge objects, no per-vertex neighbor sorting (the SCC
        partition is traversal-order independent, so determinism comes free
        from the final canonical sort in
        :func:`repro.algorithms.components.strongly_connected_components`).
        """
        indptr, indices = self._scalar_forward()
        n = self.num_vertices
        index = [-1] * n
        lowlink = [0] * n
        on_stack = bytearray(n)
        component = [-1] * n
        stack: List[int] = []
        work: List[Tuple[int, int]] = []
        counter = 0
        next_component = 0
        for root in range(n):
            if index[root] != -1:
                continue
            index[root] = lowlink[root] = counter
            counter += 1
            stack.append(root)
            on_stack[root] = 1
            work.append((root, indptr[root]))
            while work:
                vertex, cursor = work[-1]
                end = indptr[vertex + 1]
                advanced = False
                while cursor < end:
                    successor = indices[cursor]
                    cursor += 1
                    if index[successor] == -1:
                        work[-1] = (vertex, cursor)
                        index[successor] = lowlink[successor] = counter
                        counter += 1
                        stack.append(successor)
                        on_stack[successor] = 1
                        work.append((successor, indptr[successor]))
                        advanced = True
                        break
                    if on_stack[successor] and index[successor] < lowlink[vertex]:
                        lowlink[vertex] = index[successor]
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    if lowlink[vertex] < lowlink[parent]:
                        lowlink[parent] = lowlink[vertex]
                if lowlink[vertex] == index[vertex]:
                    while True:
                        member = stack.pop()
                        on_stack[member] = 0
                        component[member] = next_component
                        if member == vertex:
                            break
                    next_component += 1
        return component

    def geodesic_summary(self) -> Tuple[int, int, int]:
        """One BFS per source, reduced on the fly: ``(diameter, total, pairs)``.

        ``diameter`` is the max hop distance over reachable ordered pairs
        (-1 when no vertex reaches another); ``total`` and ``pairs`` are the
        sum and count of distances over reachable ordered pairs excluding
        self — exactly the quantities the dict sweeps in
        :mod:`repro.algorithms.geodesics` accumulate, without materializing
        any per-source distance dict.
        """
        best = -1
        total = 0
        pairs = 0
        for source_id in range(self.num_vertices):
            distance = self.bfs_levels(source_id)
            reached = distance > 0
            count = int(reached.sum())
            if count == 0:
                continue
            reached_distances = distance[reached]
            furthest = int(reached_distances.max())
            if furthest > best:
                best = furthest
            total += int(reached_distances.sum())
            pairs += count
        return best, total, pairs

    def closeness_centrality_scores(self) -> Dict[Hashable, float]:
        """Wasserman–Faust closeness via reverse-CSR BFS per vertex.

        Mirrors the dict implementation's arithmetic exactly (same operation
        order) so the two agree to the last bit on identical graphs.
        """
        n = self.num_vertices
        out: Dict[Hashable, float] = {}
        for vertex_id in range(n):
            distance = self.bfs_levels(vertex_id, reverse=True)
            mask = distance >= 0
            total = int(distance[mask].sum())
            if total > 0 and n > 1:
                reachable = int(mask.sum())
                closeness = (reachable - 1) / total
                closeness *= (reachable - 1) / (n - 1)
            else:
                closeness = 0.0
            out[self.vertex_of[vertex_id]] = closeness
        return out

    def betweenness_centrality_scores(self, normalized: bool = True
                                      ) -> Dict[Hashable, float]:
        """Brandes' betweenness over the forward CSR (unweighted).

        Same algorithm and accumulation formula as the dict implementation;
        only the successor visitation order differs (CSR order instead of
        frozenset order), so scores agree up to float associativity.
        """
        indptr, indices = self._scalar_forward()
        n = self.num_vertices
        betweenness = [0.0] * n
        for source in range(n):
            order: List[int] = []
            predecessors: List[List[int]] = [[] for _ in range(n)]
            sigma = [0.0] * n
            sigma[source] = 1.0
            distance = [-1] * n
            distance[source] = 0
            queue = [source]
            head = 0
            while head < len(queue):
                vertex = queue[head]
                head += 1
                order.append(vertex)
                next_level = distance[vertex] + 1
                for cursor in range(indptr[vertex], indptr[vertex + 1]):
                    successor = indices[cursor]
                    if distance[successor] == -1:
                        distance[successor] = next_level
                        queue.append(successor)
                    if distance[successor] == next_level:
                        sigma[successor] += sigma[vertex]
                        predecessors[successor].append(vertex)
            delta = [0.0] * n
            for w in reversed(order):
                for v in predecessors[w]:
                    delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
                if w != source:
                    betweenness[w] += delta[w]
        if normalized and n > 2:
            scale = 1.0 / ((n - 1) * (n - 2))
            betweenness = [value * scale for value in betweenness]
        return dict(zip(self.vertex_of, betweenness))

    def pagerank(self, damping: float, teleport, max_iterations: int,
                 tolerance: float) -> Optional[Dict[Hashable, float]]:
        """Vectorized power iteration (same update rule as the dict version).

        ``teleport`` maps vertex -> normalized teleport mass.  Returns None
        when the iteration cap is hit so the caller can raise its usual
        :class:`ConvergenceError`.
        """
        n = self.num_vertices
        teleport_vec = _np.asarray(
            [teleport[v] for v in self.vertex_of], dtype=_np.float64)
        out_weight = self.out_weight
        has_out = out_weight > 0.0
        safe_out = _np.where(has_out, out_weight, 1.0)
        tails, heads, weights = self.tails, self.heads, self.weights
        ranks = teleport_vec.copy()
        for _ in range(max_iterations):
            previous = ranks
            coefficient = _np.where(has_out, damping * previous / safe_out, 0.0)
            ranks = _np.bincount(heads, weights=coefficient[tails] * weights,
                                 minlength=n)
            dangling_mass = float(previous[~has_out].sum())
            ranks += (damping * dangling_mass + (1.0 - damping)) * teleport_vec
            if float(_np.abs(ranks - previous).sum()) < n * tolerance:
                return dict(zip(self.vertex_of, ranks.tolist()))
        return None

    def __repr__(self) -> str:
        return "CompactDiGraph<|V|={}, |E|={}, version={}>".format(
            self.num_vertices, len(self.tails), self.version)


def digraph_snapshot(digraph) -> Optional[CompactDiGraph]:
    """The cached :class:`CompactDiGraph` of ``digraph``, or None when
    numpy is missing.

    Cached on the instance and keyed on ``digraph.version()``: the first
    call after a mutation rebuilds the snapshot in O(V + E).  The first
    call imports numpy.
    """
    global _np
    if not HAVE_NUMPY:
        return None
    if _np is None:
        try:
            import numpy as _np
        except ImportError:  # pragma: no cover - found but broken
            return None
    snapshot = getattr(digraph, _CACHE_ATTR, None)
    if snapshot is None or snapshot.version != digraph.version():
        snapshot = CompactDiGraph(digraph)
        setattr(digraph, _CACHE_ATTR, snapshot)
    return snapshot


def digraph_snapshot_if_large(digraph) -> Optional[CompactDiGraph]:
    """:func:`digraph_snapshot`, gated on the DiGraph fast-path threshold.

    The shared guard for every algorithm-module fast path: below
    ``_COMPACT_MIN_ORDER`` vertices (or without numpy) it returns ``None``
    and callers keep their dict implementations, which win at that scale.
    """
    if digraph.order() >= digraph._COMPACT_MIN_ORDER:
        return digraph_snapshot(digraph)
    return None
