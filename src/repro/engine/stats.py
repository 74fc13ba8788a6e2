"""Planner-facing statistics and cardinality estimation.

The cost-based planner needs two things: the **exact** cardinality of each
atom's edge set (cheap — the graph's indices already know), and an
**estimate** of join result sizes.  The join estimate is the classical
equijoin formula: ``|A ><_o B| ~= |A| * |B| / max(|V|, 1)`` — each left path's
head matches a ``1/|V|`` fraction of right tails under uniformity.  Skewed
graphs (hubs) violate uniformity, which is precisely what experiment E9
measures the planner against.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Hashable, Iterable, NamedTuple

from repro.graph.graph import MultiRelationalGraph
from repro.regex.ast import (
    Atom,
    Empty,
    Epsilon,
    Join,
    Literal,
    Product,
    RegexExpr,
    Repeat,
    Star,
    Union,
)

__all__ = ["GraphStatistics", "LabelDegreeProfile"]


class LabelDegreeProfile(NamedTuple):
    """Per-label degree summary feeding the RPQ direction cost model.

    ``out_histogram``/``in_histogram`` map degree -> vertex count over the
    vertices that carry at least one edge of the label in that direction;
    ``avg_out``/``avg_in`` are the corresponding mean fanouts (edges per
    *participating* vertex, not per graph vertex — the frontier of a
    product BFS consists of participants, so this is the growth factor a
    label contributes per expansion step).
    """

    edges: int
    distinct_tails: int
    distinct_heads: int
    avg_out: float
    avg_in: float
    max_out: int
    max_in: int
    out_histogram: Dict[int, int]
    in_histogram: Dict[int, int]


_EMPTY_PROFILE = LabelDegreeProfile(0, 0, 0, 0.0, 0.0, 0, 0, {}, {})


class GraphStatistics:
    """Cardinality statistics for one graph, cached at construction.

    Build once per (graph version, planning session); the planner treats it
    as immutable.
    """

    def __init__(self, graph: MultiRelationalGraph):
        self.graph = graph
        self.vertex_count = graph.order()
        self.edge_count = graph.size()
        self.label_histogram: Dict[Hashable, int] = graph.label_histogram()
        # Per-label degree profiles are O(E_label) to derive, so they are
        # computed lazily on first request and cached for this instance's
        # lifetime (the engine refreshes the instance per graph version).
        # The planner does not ask for them: its growth factors read the
        # graph's maintained ``label_fanout``.
        self._degree_profiles: Dict[Hashable, LabelDegreeProfile] = {}

    # ------------------------------------------------------------------

    def degree_profile(self, label: Hashable) -> LabelDegreeProfile:
        """Degree summary of one label's edge set (cached per instance)."""
        profile = self._degree_profiles.get(label)
        if profile is None:
            edges = self.graph.match(label=label)
            if not edges:
                profile = _EMPTY_PROFILE
            else:
                out_degree = Counter(e.tail for e in edges)
                in_degree = Counter(e.head for e in edges)
                count = len(edges)
                profile = LabelDegreeProfile(
                    edges=count,
                    distinct_tails=len(out_degree),
                    distinct_heads=len(in_degree),
                    avg_out=count / len(out_degree),
                    avg_in=count / len(in_degree),
                    max_out=max(out_degree.values()),
                    max_in=max(in_degree.values()),
                    out_histogram=dict(Counter(out_degree.values())),
                    in_histogram=dict(Counter(in_degree.values())))
            self._degree_profiles[label] = profile
        return profile

    def _growth(self, labels: Iterable[Hashable], forward: bool) -> float:
        """Edge-weighted mean fanout across ``labels`` in one direction.

        The per-step frontier growth factor of a product BFS that may
        follow any of the expression's labels: the average out-fanout of
        edge-carrying tails (forward) or in-fanout of edge-carrying heads
        (backward).  The two diverge exactly on skewed graphs — hubs
        concentrate one side's edges onto few vertices — which is what
        makes the direction choice non-trivial.
        """
        total_edges = 0
        weighted = 0.0
        for label in labels:
            edges, tails, heads = self.graph.label_fanout(label)
            if edges:
                total_edges += edges
                weighted += edges * (edges / (tails if forward else heads))
        return weighted / total_edges if total_edges else 0.0

    def forward_growth(self, labels: Iterable[Hashable]) -> float:
        """Estimated forward frontier growth per step over ``labels``."""
        return self._growth(labels, forward=True)

    def backward_growth(self, labels: Iterable[Hashable]) -> float:
        """Estimated backward frontier growth per step over ``labels``."""
        return self._growth(labels, forward=False)

    def atom_cardinality(self, atom: Atom) -> int:
        """Exact edge count matched by a set-builder pattern.

        Fully-wild and label-only patterns read cached counters; patterns
        with a bound vertex consult the graph's per-vertex indices.
        """
        if atom.tail is None and atom.head is None:
            if atom.label is None:
                return self.edge_count
            return self.label_histogram.get(atom.label, 0)
        return len(self.graph.match(tail=atom.tail, label=atom.label,
                                    head=atom.head))

    def join_selectivity(self) -> float:
        """Equijoin selectivity under the uniform join-vertex assumption."""
        return 1.0 / max(self.vertex_count, 1)

    def estimate(self, expression: RegexExpr, max_length: int = 8) -> float:
        """Estimated number of paths matched by ``expression`` (bounded).

        Recursive over the AST; stars assume the per-repetition growth
        factor implied by the inner estimate, truncated at ``max_length``
        repetitions or convergence, mirroring how the bounded evaluators
        truncate.
        """
        expr = expression
        if isinstance(expr, Empty):
            return 0.0
        if isinstance(expr, Epsilon):
            return 1.0
        if isinstance(expr, Atom):
            return float(self.atom_cardinality(expr))
        if isinstance(expr, Literal):
            return float(len(expr.path_set))
        if isinstance(expr, Union):
            return sum(self.estimate(part, max_length) for part in expr.parts)
        if isinstance(expr, Join):
            selectivity = self.join_selectivity()
            total = 1.0
            for part in expr.parts:
                total = total * self.estimate(part, max_length) * selectivity
            return total / selectivity  # n-ary join applies n-1 selectivities
        if isinstance(expr, Product):
            total = 1.0
            for part in expr.parts:
                total *= self.estimate(part, max_length)
            return total
        if isinstance(expr, Star):
            return self._estimate_star(expr.inner, max_length)
        if isinstance(expr, Repeat):
            return self.estimate(expr.expand(), max_length)
        return float(self.edge_count)

    def _estimate_star(self, inner: RegexExpr, max_length: int) -> float:
        """``1 + sum_{k>=1} base * growth^(k-1)`` truncated at ``max_length`` terms.

        ``base`` estimates one repetition; each further repetition joins the
        previous result with ``inner``, multiplying by ``base * selectivity``.
        """
        base = self.estimate(inner, max_length)
        growth = base * self.join_selectivity()
        total = 1.0  # the epsilon repetition
        term = base
        for _ in range(max_length):
            total += term
            term *= growth
            if term < 1.0e-12:
                break
        return total
