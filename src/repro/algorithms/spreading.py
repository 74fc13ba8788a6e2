"""Spreading activation — the spectral-family ranking section IV-C names.

Energy is injected at seed vertices and diffused along out-edges for a fixed
number of steps, decaying each hop; a vertex's score is the total energy
that passed through it.  This is the classical associative-retrieval
algorithm (and the paper's earlier Grammar-Based Random Walker work built
on it), here implemented over the plain :class:`DiGraph` substrate so it
can consume section IV-C projections.
"""

from __future__ import annotations

from typing import Dict, Hashable

from repro.algorithms.digraph import DiGraph
from repro.errors import AlgorithmError

__all__ = ["spreading_activation"]


def spreading_activation(graph: DiGraph, seeds: Dict[Hashable, float],
                         steps: int = 3, decay: float = 0.85,
                         threshold: float = 1.0e-9) -> Dict[Hashable, float]:
    """Diffuse seed energy for ``steps`` hops; return accumulated activation.

    Parameters
    ----------
    graph:
        The digraph to diffuse over; out-edge weights split the energy
        proportionally.
    seeds:
        Initial energy per vertex (non-negative, at least one positive).
    steps:
        Number of diffusion rounds.
    decay:
        Per-hop retention factor in (0, 1]; lower means faster falloff.
    threshold:
        Energy packets below this are dropped (sparsity floor).

    Returns
    -------
    dict
        ``vertex -> accumulated activation`` including the seed energy.
    """
    if steps < 0:
        raise AlgorithmError("steps must be >= 0")
    if not 0.0 < decay <= 1.0:
        raise AlgorithmError("decay must be in (0, 1]")
    if not seeds or all(value <= 0.0 for value in seeds.values()):
        raise AlgorithmError("seeds must include at least one positive energy")
    for vertex, value in seeds.items():
        if value < 0.0:
            raise AlgorithmError("seed energy must be non-negative")
        if not graph.has_vertex(vertex):
            raise AlgorithmError("seed vertex {!r} not in graph".format(vertex))

    activation: Dict[Hashable, float] = dict(seeds)
    frontier: Dict[Hashable, float] = dict(seeds)
    for _ in range(steps):
        next_frontier: Dict[Hashable, float] = {}
        for vertex, energy in frontier.items():
            weights = graph.successor_weights(vertex)
            total = sum(weights.values())
            if total == 0.0:
                continue
            for successor, weight in weights.items():
                packet = decay * energy * (weight / total)
                if packet < threshold:
                    continue
                next_frontier[successor] = next_frontier.get(successor, 0.0) + packet
        for vertex, energy in next_frontier.items():
            activation[vertex] = activation.get(vertex, 0.0) + energy
        frontier = next_frontier
        if not frontier:
            break
    return activation
