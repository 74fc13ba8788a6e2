"""Geodesic and spectral centrality measures.

These are the "geodesics (e.g. closeness centrality, betweenness
centrality), spectral (e.g. eigenvector centrality, ...)" algorithms the
paper's section IV-C names as consumers of projected single-relational
graphs.  Implementations follow the standard references (Brandes for
betweenness; power iteration for the spectral family) and are validated
against NetworkX in the test suite.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, Hashable

from repro.algorithms.digraph import DiGraph
from repro.errors import ConvergenceError

__all__ = [
    "degree_centrality",
    "in_degree_centrality",
    "out_degree_centrality",
    "closeness_centrality",
    "betweenness_centrality",
    "eigenvector_centrality",
    "katz_centrality",
]


def degree_centrality(graph: DiGraph) -> Dict[Hashable, float]:
    """Total degree divided by ``|V| - 1`` (the usual normalization)."""
    n = graph.order()
    if n <= 1:
        return {v: 0.0 for v in graph.vertices()}
    scale = 1.0 / (n - 1)
    return {
        v: (graph.in_degree(v) + graph.out_degree(v)) * scale
        for v in graph.vertices()
    }


def in_degree_centrality(graph: DiGraph) -> Dict[Hashable, float]:
    """In-degree divided by ``|V| - 1``."""
    n = graph.order()
    if n <= 1:
        return {v: 0.0 for v in graph.vertices()}
    scale = 1.0 / (n - 1)
    return {v: graph.in_degree(v) * scale for v in graph.vertices()}


def out_degree_centrality(graph: DiGraph) -> Dict[Hashable, float]:
    """Out-degree divided by ``|V| - 1``."""
    n = graph.order()
    if n <= 1:
        return {v: 0.0 for v in graph.vertices()}
    scale = 1.0 / (n - 1)
    return {v: graph.out_degree(v) * scale for v in graph.vertices()}


def closeness_centrality(graph: DiGraph) -> Dict[Hashable, float]:
    """Incoming-distance closeness with the Wasserman–Faust component scaling.

    Matches NetworkX's definition: for each vertex v, BFS over *incoming*
    paths (who can reach v), ``closeness = ((r - 1) / total_distance) *
    ((r - 1) / (n - 1))`` where r is v's reachable-set size.  Vertices
    reached by nobody score 0.

    Large graphs run reverse-CSR BFS sweeps on the compact snapshot
    (:meth:`repro.graph.compact.CompactDiGraph.closeness_centrality_scores`,
    same arithmetic, no transpose-graph materialization); the dict version
    below remains the small-graph path and no-numpy fallback.
    """
    from repro.graph.compact import digraph_snapshot_if_large
    snapshot = digraph_snapshot_if_large(graph)
    if snapshot is not None:
        return snapshot.closeness_centrality_scores()
    return _closeness_centrality_dict(graph)


def _closeness_centrality_dict(graph: DiGraph) -> Dict[Hashable, float]:
    """Reference dict implementation (always available)."""
    n = graph.order()
    reverse = graph.reversed()
    out: Dict[Hashable, float] = {}
    for v in graph.vertices():
        distances = reverse.bfs_distances(v)
        reachable = len(distances)
        total = sum(distances.values())
        if total > 0 and n > 1:
            closeness = (reachable - 1) / total
            closeness *= (reachable - 1) / (n - 1)
        else:
            closeness = 0.0
        out[v] = closeness
    return out


def betweenness_centrality(graph: DiGraph, normalized: bool = True) -> Dict[Hashable, float]:
    """Brandes' algorithm for shortest-path betweenness (unweighted).

    Directed normalization divides by ``(n - 1)(n - 2)``.

    Large graphs run the integer-indexed Brandes over the compact forward
    CSR (flat sigma/delta arrays, no per-source dict churn); the dict
    version below remains the small-graph path and no-numpy fallback.
    Scores agree up to float associativity (successor visitation order
    differs), which the differential tests bound at 1e-9.
    """
    from repro.graph.compact import digraph_snapshot_if_large
    snapshot = digraph_snapshot_if_large(graph)
    if snapshot is not None:
        return snapshot.betweenness_centrality_scores(normalized)
    return _betweenness_centrality_dict(graph, normalized)


def _betweenness_centrality_dict(graph: DiGraph,
                                 normalized: bool = True) -> Dict[Hashable, float]:
    """Reference dict implementation (always available)."""
    betweenness: Dict[Hashable, float] = {v: 0.0 for v in graph.vertices()}
    for source in graph.vertices():
        # Single-source shortest paths with path counting.
        stack = []
        predecessors: Dict[Hashable, list] = {v: [] for v in graph.vertices()}
        sigma: Dict[Hashable, float] = {v: 0.0 for v in graph.vertices()}
        sigma[source] = 1.0
        distance: Dict[Hashable, int] = {source: 0}
        queue: deque = deque([source])
        while queue:
            vertex = queue.popleft()
            stack.append(vertex)
            for successor in graph.successors(vertex):
                if successor not in distance:
                    distance[successor] = distance[vertex] + 1
                    queue.append(successor)
                if distance[successor] == distance[vertex] + 1:
                    sigma[successor] += sigma[vertex]
                    predecessors[successor].append(vertex)
        # Accumulation.
        delta: Dict[Hashable, float] = {v: 0.0 for v in graph.vertices()}
        while stack:
            w = stack.pop()
            for v in predecessors[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            if w != source:
                betweenness[w] += delta[w]
    n = graph.order()
    if normalized and n > 2:
        scale = 1.0 / ((n - 1) * (n - 2))
        betweenness = {v: value * scale for v, value in betweenness.items()}
    return betweenness


def eigenvector_centrality(graph: DiGraph, max_iterations: int = 1000,
                           tolerance: float = 1.0e-8) -> Dict[Hashable, float]:
    """Power-iteration eigenvector centrality (left eigenvector, in-edges).

    A vertex is central when pointed to by central vertices; weights are
    respected.  Follows NetworkX's convention (start uniform, L2-normalize,
    L1 convergence test scaled by n).

    Raises
    ------
    ConvergenceError
        If the iteration cap is reached first (e.g. strongly periodic graphs).
    """
    n = graph.order()
    if n == 0:
        return {}
    scores = {v: 1.0 / n for v in graph.vertices()}
    for _ in range(max_iterations):
        previous = scores
        scores = {v: 0.0 for v in previous}
        for v, value in previous.items():
            for successor, weight in graph.successor_weights(v).items():
                scores[successor] += value * weight
        norm = math.sqrt(sum(value * value for value in scores.values())) or 1.0
        scores = {v: value / norm for v, value in scores.items()}
        if sum(abs(scores[v] - previous[v]) for v in scores) < n * tolerance:
            return scores
    raise ConvergenceError("eigenvector_centrality", max_iterations, tolerance)


def katz_centrality(graph: DiGraph, alpha: float = 0.1, beta: float = 1.0,
                    max_iterations: int = 1000,
                    tolerance: float = 1.0e-8) -> Dict[Hashable, float]:
    """Katz centrality: ``x = alpha * A^T x + beta`` by fixed-point iteration.

    ``alpha`` must be below the reciprocal of the largest eigenvalue of the
    adjacency matrix for convergence; the default 0.1 is safe for the sparse
    graphs used here.  L2-normalized like NetworkX.
    """
    n = graph.order()
    if n == 0:
        return {}
    scores = {v: 0.0 for v in graph.vertices()}
    for _ in range(max_iterations):
        previous = scores
        scores = {v: 0.0 for v in previous}
        for v, value in previous.items():
            for successor, weight in graph.successor_weights(v).items():
                scores[successor] += value * weight
        scores = {v: alpha * value + beta for v, value in scores.items()}
        if sum(abs(scores[v] - previous[v]) for v in scores) < n * tolerance:
            norm = math.sqrt(sum(value * value for value in scores.values())) or 1.0
            return {v: value / norm for v, value in scores.items()}
    raise ConvergenceError("katz_centrality", max_iterations, tolerance)
