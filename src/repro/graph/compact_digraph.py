"""The single-relational compact backend: a numpy snapshot of a
:class:`~repro.algorithms.digraph.DiGraph` and its vectorized kernels.

Split from :mod:`repro.graph.compact` (which re-exports every name here,
so imports need not change): this half is numpy-only and label-blind —
BFS, components, Tarjan SCC, geodesic sweeps, centrality and pagerank
over one CSR — and shares with the RPQ backend only the snapshot-cache
attribute and the compaction threshold.  The snapshot lifecycle (lazy
build, journal-replayed delta, vectorized compaction) is described in
that module's docstring.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Tuple

try:  # every kernel here is vectorized; without numpy callers keep theirs.
    import numpy as _np
except ImportError:  # pragma: no cover - the CI image ships numpy
    _np = None

from repro.graph.compact import _CACHE_ATTR, compaction_due

__all__ = ["CompactDiGraph", "digraph_snapshot", "digraph_snapshot_if_large"]

#: Bit width of the head id inside a packed ``(tail << SHIFT) | head`` edge
#: key — collision-free for any graph this process can hold.
_KEY_SHIFT = 32


class CompactDiGraph:  # reprolint: ignore[numpy-gate] -- numpy-only by contract
    """A numpy snapshot of one :class:`~repro.algorithms.digraph.DiGraph`.

    Holds interning maps plus flat edge arrays (``tails``, ``heads``,
    ``weights``) and forward/reverse/undirected CSR index arrays — the
    inputs the vectorized BFS, component flood-fill and pagerank kernels
    consume, and (as lazily cached plain lists) the integer-indexed Tarjan
    SCC / Brandes betweenness kernels.  Immutable once built; the
    incremental layer produces successors via :meth:`from_arrays`.  Only
    constructed when numpy is importable.
    """

    __slots__ = ("version", "vertex_ids", "vertex_of", "tails", "heads",
                 "weights", "fwd_indptr", "fwd_indices", "rev_indptr",
                 "rev_indices", "und_indptr", "und_indices", "out_weight",
                 "edge_keys", "_scalar_fwd")

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
        self._finish(digraph.version(), vertex_of, vertex_ids,
                     _np.asarray(tails, dtype=_np.int64),
                     _np.asarray(heads, dtype=_np.int64),
                     _np.asarray(weights, dtype=_np.float64))

    @classmethod
    def from_arrays(cls, version: int, vertex_of: List[Hashable],
                    vertex_ids: Dict[Hashable, int], tails, heads,
                    weights) -> "CompactDiGraph":
        """Build a snapshot directly from edge arrays (the delta path)."""
        self = cls.__new__(cls)
        self._finish(version, vertex_of, vertex_ids, tails, heads, weights)
        return self

    def _finish(self, version, vertex_of, vertex_ids, tails, heads, weights):
        self.version = version
        self.vertex_of = vertex_of
        self.vertex_ids = vertex_ids
        self.tails = tails
        self.heads = heads
        self.weights = weights
        n = len(vertex_of)
        self.fwd_indptr, self.fwd_indices = self._csr(tails, heads, n)
        self.rev_indptr, self.rev_indices = self._csr(heads, tails, n)
        both_tails = _np.concatenate([tails, heads])
        both_heads = _np.concatenate([heads, tails])
        self.und_indptr, self.und_indices = self._csr(both_tails, both_heads, n)
        self.out_weight = _np.bincount(tails, weights=weights, minlength=n)
        self.edge_keys = None
        self._scalar_fwd = None

    @classmethod
    def from_csr(cls, version: int, vertex_of: List[Hashable],
                 vertex_ids: Dict[Hashable, int], tails, heads, weights,
                 fwd_indptr, fwd_indices, rev_indptr, rev_indices,
                 und_indptr, und_indices, out_weight) -> "CompactDiGraph":
        """Adopt fully prebuilt arrays (CSR included) without any recompute.

        The snapshot store's reopen path: unlike :meth:`from_arrays`, which
        re-derives the three CSR index families with sorts (touching every
        edge), this constructor trusts the arrays it is handed — under
        ``np.memmap`` nothing is faulted in until a kernel slices it.
        """
        self = cls.__new__(cls)
        self.version = version
        self.vertex_of = vertex_of
        self.vertex_ids = vertex_ids
        self.tails = tails
        self.heads = heads
        self.weights = weights
        self.fwd_indptr, self.fwd_indices = fwd_indptr, fwd_indices
        self.rev_indptr, self.rev_indices = rev_indptr, rev_indices
        self.und_indptr, self.und_indices = und_indptr, und_indices
        self.out_weight = out_weight
        self.edge_keys = None
        self._scalar_fwd = None
        return self

    def _edge_key_array(self):
        """Packed ``(tail << 32) | head`` identity keys, built on first use.

        Only the delta-overlay machinery needs these (one vectorized
        ``isin`` masks removed base edges), so query-only snapshots —
        including mmap-backed reopens — never pay for them."""
        if self.edge_keys is None:
            self.edge_keys = (self.tails << _KEY_SHIFT) | self.heads
        return self.edge_keys

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


class _DiGraphDelta:  # reprolint: ignore[numpy-gate] -- only built around a CompactDiGraph
    """Cache entry pairing a base :class:`CompactDiGraph` with pending deltas.

    Journal replay accumulates removed-edge keys and an added-edge table;
    :meth:`materialize` then produces an up-to-date immutable snapshot with
    vectorized array surgery (one ``isin`` mask + one concatenate + C-speed
    CSR sorts) instead of re-walking the successor dicts in the
    interpreter.  Past the compaction threshold the materialized snapshot
    is promoted to be the new base and the delta tables reset.
    """

    __slots__ = ("base", "snapshot", "vertex_ids", "vertex_of",
                 "removed_keys", "extra", "delta_ops")

    def __init__(self, base: CompactDiGraph):
        self.base = base
        self.snapshot = base
        self.vertex_ids = dict(base.vertex_ids)
        self.vertex_of = list(base.vertex_of)
        self.removed_keys: Set[int] = set()
        self.extra: Dict[Tuple[int, int], float] = {}
        self.delta_ops = 0

    def apply(self, entries: List[Tuple]) -> None:
        """Replay journal entries into the delta tables."""
        vertex_ids = self.vertex_ids
        for entry in entries:
            op = entry[1]
            if op == "+e":
                tail_id = vertex_ids[entry[2]]
                head_id = vertex_ids[entry[3]]
                # Uniform move (add, re-add, or re-weight): mask any base
                # occurrence and carry the live weight in the extra table.
                self.removed_keys.add((tail_id << _KEY_SHIFT) | head_id)
                self.extra[(tail_id, head_id)] = entry[4]
            elif op == "-e":
                tail_id = vertex_ids[entry[2]]
                head_id = vertex_ids[entry[3]]
                self.removed_keys.add((tail_id << _KEY_SHIFT) | head_id)
                self.extra.pop((tail_id, head_id), None)
            elif op == "+v":
                vertex = entry[2]
                if vertex not in vertex_ids:
                    vertex_ids[vertex] = len(self.vertex_of)
                    self.vertex_of.append(vertex)
        self.delta_ops += len(entries)

    def materialize(self, version: int) -> CompactDiGraph:
        """An immutable snapshot of base ⊖ removed ⊕ extra at ``version``."""
        base = self.base
        tails, heads, weights = base.tails, base.heads, base.weights
        if self.removed_keys:
            removed = _np.fromiter(self.removed_keys, dtype=_np.int64,
                                   count=len(self.removed_keys))
            keep = _np.isin(base._edge_key_array(), removed, invert=True)
            tails = tails[keep]
            heads = heads[keep]
            weights = weights[keep]
        if self.extra:
            count = len(self.extra)
            extra_tails = _np.fromiter((t for t, _ in self.extra),
                                       dtype=_np.int64, count=count)
            extra_heads = _np.fromiter((h for _, h in self.extra),
                                       dtype=_np.int64, count=count)
            extra_weights = _np.fromiter(self.extra.values(),
                                         dtype=_np.float64, count=count)
            tails = _np.concatenate([tails, extra_tails])
            heads = _np.concatenate([heads, extra_heads])
            weights = _np.concatenate([weights, extra_weights])
        self.snapshot = CompactDiGraph.from_arrays(
            version, list(self.vertex_of), dict(self.vertex_ids),
            tails, heads, weights)
        return self.snapshot

    def compact(self) -> None:
        """Fold the delta: the materialized snapshot becomes the new base."""
        self.base = self.snapshot
        self.removed_keys.clear()
        self.extra.clear()
        self.delta_ops = 0


def digraph_snapshot(digraph, incremental: bool = True
                     ) -> Optional[CompactDiGraph]:
    """The cached :class:`CompactDiGraph`, or None when numpy is missing.

    Same lifecycle as :func:`adjacency_snapshot`: cached on the instance,
    keyed on ``digraph.version()``; after mutations the journal is replayed
    into array-surgery deltas and a fresh immutable snapshot is materialized
    in vectorized time, falling back to a full dict-walk rebuild only when
    the journal cannot cover the gap (or ``incremental=False``).  Deltas
    fold into a new base past the compaction threshold.
    """
    if _np is None:
        return None
    cache = getattr(digraph, _CACHE_ATTR, None)
    version = digraph.version()
    if isinstance(cache, _DiGraphDelta):
        if cache.snapshot.version == version:
            return cache.snapshot
        if incremental:
            entries = digraph.journal_since(cache.snapshot.version)
            if entries is not None:
                if not entries:
                    # Property-only version bumps: retag, skip the surgery.
                    cache.snapshot.version = version
                    digraph.prune_journal(version)
                    return cache.snapshot
                cache.apply(entries)
                snapshot = cache.materialize(version)
                if compaction_due(cache.delta_ops, len(cache.base.tails)):
                    cache.compact()
                digraph.prune_journal(version)
                return snapshot
    base = CompactDiGraph(digraph)
    setattr(digraph, _CACHE_ATTR, _DiGraphDelta(base))
    digraph.prune_journal(version)
    return base


def digraph_snapshot_if_large(digraph) -> Optional[CompactDiGraph]:
    """:func:`digraph_snapshot`, gated on the DiGraph fast-path threshold.

    The shared guard for every algorithm-module fast path: below
    ``_COMPACT_MIN_ORDER`` vertices (or without numpy) it returns ``None``
    and callers keep their dict implementations, which win at that scale.
    """
    if digraph.order() >= digraph._COMPACT_MIN_ORDER:
        return digraph_snapshot(digraph)
    return None
