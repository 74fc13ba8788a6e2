"""Descriptive statistics over multi-relational graphs.

Two consumers: human inspection (:func:`summarize`) and the traversal
engine's cost-based planner, which needs per-label cardinalities and
fan-out estimates to order joins (see :mod:`repro.engine.stats` for the
planner-facing wrapper that adds selectivity math).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Hashable

from repro.graph.graph import MultiRelationalGraph

__all__ = [
    "degree_distribution",
    "label_distribution",
    "mean_out_degree",
    "mean_out_degree_by_label",
    "fan_out",
    "reciprocity",
    "loop_count",
    "multiplicity_distribution",
    "summarize",
]


def degree_distribution(graph: MultiRelationalGraph,
                        direction: str = "out") -> Dict[int, int]:
    """``degree -> number of vertices with that degree``.

    ``direction`` is one of ``"out"``, ``"in"``, ``"total"``.
    """
    if direction not in ("out", "in", "total"):
        raise ValueError("direction must be 'out', 'in' or 'total'")
    counter: Counter = Counter()
    for v in graph.vertices():
        if direction == "out":
            counter[graph.out_degree(v)] += 1
        elif direction == "in":
            counter[graph.in_degree(v)] += 1
        else:
            counter[graph.degree(v)] += 1
    return dict(counter)


def label_distribution(graph: MultiRelationalGraph) -> Dict[Hashable, float]:
    """``label -> fraction of edges carrying it`` (sums to 1 on non-empty graphs)."""
    total = graph.size()
    if total == 0:
        return {}
    return {
        label: count / float(total)
        for label, count in graph.label_histogram().items()
    }


def mean_out_degree(graph: MultiRelationalGraph) -> float:
    """``|E| / |V|`` — the expansion factor of one unrestricted join step."""
    if graph.order() == 0:
        return 0.0
    return graph.size() / float(graph.order())


def mean_out_degree_by_label(graph: MultiRelationalGraph) -> Dict[Hashable, float]:
    """``label -> mean out-degree counting only that label's edges``.

    This is the planner's per-step fan-out estimate for a labeled traversal.
    """
    if graph.order() == 0:
        return {}
    order = float(graph.order())
    return {
        label: count / order
        for label, count in graph.label_histogram().items()
    }


def fan_out(graph: MultiRelationalGraph, label: Hashable) -> float:
    """Mean number of ``label`` out-edges per vertex *that has any*.

    A sharper per-step growth estimate than :func:`mean_out_degree_by_label`
    because vertices without the relation do not dilute it.
    """
    sources = defaultdict(int)
    for e in graph.match(label=label):
        sources[e.tail] += 1
    if not sources:
        return 0.0
    return sum(sources.values()) / float(len(sources))


def reciprocity(graph: MultiRelationalGraph) -> float:
    """Fraction of edges ``(i, a, j)`` whose reverse ``(j, a, i)`` also exists."""
    edges = graph.edge_set()
    if not edges:
        return 0.0
    reciprocated = sum(1 for e in edges if e.inverted() in edges)
    return reciprocated / float(len(edges))


def loop_count(graph: MultiRelationalGraph) -> int:
    """Number of self-loop edges ``(i, a, i)``."""
    return sum(1 for e in graph.edge_set() if e.is_loop())


def multiplicity_distribution(graph: MultiRelationalGraph) -> Dict[int, int]:
    """``k -> number of ordered vertex pairs linked by exactly k labels``.

    Multi-relational structure in one histogram: a graph with everything at
    ``k == 1`` is effectively single-relational on each pair.
    """
    per_pair: Counter = Counter()
    for e in graph.edge_set():
        per_pair[e.endpoints()] += 1
    histogram: Counter = Counter()
    for count in per_pair.values():
        histogram[count] += 1
    return dict(histogram)


def summarize(graph: MultiRelationalGraph) -> Dict[str, object]:
    """A one-call descriptive summary (used by examples and EXPERIMENTS.md)."""
    return {
        "name": graph.name,
        "vertices": graph.order(),
        "edges": graph.size(),
        "labels": graph.relation_count(),
        "density": graph.density(),
        "mean_out_degree": mean_out_degree(graph),
        "label_histogram": dict(sorted(graph.label_histogram().items(),
                                       key=lambda kv: repr(kv[0]))),
        "reciprocity": reciprocity(graph),
        "loops": loop_count(graph),
    }
