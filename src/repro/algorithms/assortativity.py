"""Assortativity: scalar (Pearson over edge endpoints) and discrete (modular).

The "assortative (e.g. scalar and discrete)" algorithms of section IV-C's
inventory.  Scalar assortativity is Newman's Pearson correlation between a
numeric vertex attribute at the tail and head of each edge (degree
assortativity is the special case where the attribute is the degree);
discrete assortativity is the normalized trace of the label mixing matrix.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable

from repro.algorithms.digraph import DiGraph
from repro.errors import AlgorithmError

__all__ = [
    "scalar_assortativity",
    "degree_assortativity",
    "discrete_assortativity",
    "mixing_matrix",
]


def scalar_assortativity(graph: DiGraph,
                         attribute: Dict[Hashable, float]) -> float:
    """Pearson correlation of ``attribute`` across directed edges.

    For each edge ``(u, v)`` the sample pairs are
    ``(attribute[u], attribute[v])``.

    Raises
    ------
    AlgorithmError
        If the graph has no edges, an endpoint lacks the attribute, or
        either marginal is constant (correlation undefined).
    """
    pairs = []
    for tail, head, _ in graph.edges():
        if tail not in attribute or head not in attribute:
            raise AlgorithmError(
                "attribute missing for edge ({!r}, {!r})".format(tail, head))
        pairs.append((float(attribute[tail]), float(attribute[head])))
    if not pairs:
        raise AlgorithmError("scalar assortativity undefined on an edgeless graph")
    n = float(len(pairs))
    mean_x = sum(x for x, _ in pairs) / n
    mean_y = sum(y for _, y in pairs) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in pairs) / n
    var_x = sum((x - mean_x) ** 2 for x, _ in pairs) / n
    var_y = sum((y - mean_y) ** 2 for _, y in pairs) / n
    if var_x == 0.0 or var_y == 0.0:
        raise AlgorithmError("scalar assortativity undefined: constant attribute")
    return cov / math.sqrt(var_x * var_y)


def degree_assortativity(graph: DiGraph) -> float:
    """Out-degree/in-degree assortativity: correlation of (out(u), in(v)) over edges."""
    pairs = []
    for tail, head, _ in graph.edges():
        pairs.append((float(graph.out_degree(tail)), float(graph.in_degree(head))))
    if not pairs:
        raise AlgorithmError("degree assortativity undefined on an edgeless graph")
    n = float(len(pairs))
    mean_x = sum(x for x, _ in pairs) / n
    mean_y = sum(y for _, y in pairs) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in pairs) / n
    var_x = sum((x - mean_x) ** 2 for x, _ in pairs) / n
    var_y = sum((y - mean_y) ** 2 for _, y in pairs) / n
    if var_x == 0.0 or var_y == 0.0:
        raise AlgorithmError("degree assortativity undefined: constant degrees")
    return cov / math.sqrt(var_x * var_y)


def mixing_matrix(graph: DiGraph,
                  category: Dict[Hashable, Hashable]) -> Dict[tuple, float]:
    """``(category_tail, category_head) -> edge fraction`` over all edges."""
    counts: Dict[tuple, int] = {}
    total = 0
    for tail, head, _ in graph.edges():
        if tail not in category or head not in category:
            raise AlgorithmError(
                "category missing for edge ({!r}, {!r})".format(tail, head))
        key = (category[tail], category[head])
        counts[key] = counts.get(key, 0) + 1
        total += 1
    if total == 0:
        raise AlgorithmError("mixing matrix undefined on an edgeless graph")
    return {key: count / float(total) for key, count in counts.items()}


def discrete_assortativity(graph: DiGraph,
                           category: Dict[Hashable, Hashable]) -> float:
    """Newman's discrete assortativity coefficient.

    ``r = (trace(M) - sum(a_i b_i)) / (1 - sum(a_i b_i))`` where M is the
    mixing matrix, ``a``/``b`` its row/column marginals.  1 means perfectly
    assortative (edges stay within categories); 0 means random mixing.
    """
    matrix = mixing_matrix(graph, category)
    categories = {key[0] for key in matrix} | {key[1] for key in matrix}
    row = {c: sum(value for key, value in matrix.items() if key[0] == c)
           for c in categories}
    col = {c: sum(value for key, value in matrix.items() if key[1] == c)
           for c in categories}
    trace = sum(matrix.get((c, c), 0.0) for c in categories)
    random_agreement = sum(row[c] * col[c] for c in categories)
    if random_agreement >= 1.0:
        raise AlgorithmError(
            "discrete assortativity undefined: single category")
    return (trace - random_agreement) / (1.0 - random_agreement)
