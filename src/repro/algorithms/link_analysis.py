"""Link-analysis extras: HITS and harmonic centrality.

Both belong to the "spectral" / "geodesic" families the paper's section
IV-C names as consumers of projected graphs; both are cross-validated
against NetworkX in the tests.
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

from repro.algorithms.digraph import DiGraph
from repro.errors import ConvergenceError

__all__ = ["hits", "harmonic_centrality"]


def hits(graph: DiGraph, max_iterations: int = 500,
         tolerance: float = 1.0e-10) -> Tuple[Dict[Hashable, float],
                                              Dict[Hashable, float]]:
    """Kleinberg's HITS: mutually reinforcing hub and authority scores.

    Returns ``(hubs, authorities)``, each L1-normalized like NetworkX.
    Weights are respected (authority gathers weighted hub mass).

    Raises
    ------
    ConvergenceError
        If the alternating iteration fails to converge.
    """
    n = graph.order()
    if n == 0:
        return {}, {}
    hubs = {v: 1.0 / n for v in graph.vertices()}
    for _ in range(max_iterations):
        previous = hubs
        authorities = {v: 0.0 for v in hubs}
        for v, hub_value in hubs.items():
            for successor, weight in graph.successor_weights(v).items():
                authorities[successor] += hub_value * weight
        hubs = {v: 0.0 for v in hubs}
        for v, auth_value in authorities.items():
            for predecessor, weight in graph.predecessor_weights(v).items():
                hubs[predecessor] += auth_value * weight
        norm = max(hubs.values()) or 1.0
        hubs = {v: value / norm for v, value in hubs.items()}
        if sum(abs(hubs[v] - previous[v]) for v in hubs) < n * tolerance:
            hub_total = sum(hubs.values()) or 1.0
            auth_total = sum(authorities.values()) or 1.0
            return ({v: value / hub_total for v, value in hubs.items()},
                    {v: value / auth_total for v, value in authorities.items()})
    raise ConvergenceError("hits", max_iterations, tolerance)


def harmonic_centrality(graph: DiGraph) -> Dict[Hashable, float]:
    """Harmonic centrality: ``sum over u != v of 1 / d(u, v)`` (incoming).

    The reciprocal-distance variant of closeness; well-defined on
    disconnected graphs (unreachable pairs contribute zero).  Matches
    NetworkX's convention of summing over incoming distances.
    """
    reverse = graph.reversed()
    out: Dict[Hashable, float] = {}
    for v in graph.vertices():
        total = 0.0
        for target, distance in reverse.bfs_distances(v).items():
            if target != v and distance > 0:
                total += 1.0 / distance
        out[v] = total
    return out
