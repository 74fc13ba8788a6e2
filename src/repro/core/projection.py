"""Section IV-C: constructing semantically-rich single-relational graphs.

The paper contrasts three ways of feeding a multi-relational graph to the
classical single-relational algorithm corpus:

* **M1 — ignore labels** (:func:`ignore_labels`): collapse every edge to a
  vertex pair.  Cheap, but "what is the resulting semantics of, say, a
  centrality algorithm?"
* **M2 — extract a relation** (:func:`extract_relation`): keep only
  ``E_a = {(gamma-(e), gamma+(e)) | omega(e) = a}``.
* **M3 — path projection** (:func:`project_paths`, :func:`project_label_sequence`,
  :func:`project_regular`): derive *implicit* edges from paths, e.g.
  ``E_ab = U_{a in A ><_o B} (gamma-(a), gamma+(a))``, optionally through a
  full regular path generator.

M3 is the paper's contribution; M1/M2 are the baselines experiment E5
compares against.  All three return :class:`BinaryProjection`, a small value
object bundling the binary edge set with provenance and conversion helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Optional, Sequence, Tuple

from repro.core.pathset import PathSet
from repro.core.traversal import labeled_traversal
from repro.graph.graph import MultiRelationalGraph

__all__ = [
    "BinaryProjection",
    "ignore_labels",
    "extract_relation",
    "project_paths",
    "project_label_sequence",
    "project_regular",
]


@dataclass(frozen=True)
class BinaryProjection:
    """A derived single-relational graph ``E' subseteq (V x V)`` with provenance.

    ``pairs`` is the binary edge set; ``method`` records which of the
    paper's three constructions produced it; ``weights`` optionally counts
    how many witness paths produced each pair (path multiplicity — useful as
    an edge weight for spectral algorithms).
    """

    pairs: FrozenSet[Tuple[Hashable, Hashable]]
    method: str
    description: str = ""
    weights: Optional[Dict[Tuple[Hashable, Hashable], int]] = field(
        default=None, compare=False)

    def vertices(self) -> FrozenSet[Hashable]:
        """Every vertex incident to a projected pair."""
        out = set()
        for tail, head in self.pairs:
            out.add(tail)
            out.add(head)
        return frozenset(out)

    def to_digraph(self):
        """The projection as a :class:`repro.algorithms.digraph.DiGraph`."""
        from repro.algorithms.digraph import DiGraph
        graph = DiGraph()
        for tail, head in self.pairs:
            weight = 1.0
            if self.weights is not None:
                weight = float(self.weights.get((tail, head), 1))
            graph.add_edge(tail, head, weight=weight)
        return graph

    def to_networkx(self):
        """The projection as a ``networkx.DiGraph`` (lazy import)."""
        from repro.graph.convert import binary_edges_to_networkx
        out = binary_edges_to_networkx(self.pairs, name=self.description)
        if self.weights is not None:
            for (tail, head), count in self.weights.items():
                out[tail][head]["weight"] = float(count)
        return out

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair) -> bool:
        return tuple(pair) in self.pairs

    def __repr__(self) -> str:
        return "BinaryProjection<{} pairs via {}>".format(len(self.pairs), self.method)


def ignore_labels(graph: MultiRelationalGraph) -> BinaryProjection:
    """Method M1: drop labels (and merge repeated edges between a pair)."""
    return BinaryProjection(
        pairs=graph.collapsed(),
        method="ignore-labels",
        description="all labels collapsed")


def extract_relation(graph: MultiRelationalGraph, label: Hashable) -> BinaryProjection:
    """Method M2: the single relation ``E_label``."""
    return BinaryProjection(
        pairs=graph.relation(label),
        method="extract-relation",
        description="relation {!r} only".format(label))


def project_paths(paths: PathSet, description: str = "") -> BinaryProjection:
    """Method M3 core: ``E' = U_{a in paths} (gamma-(a), gamma+(a))``.

    ``weights`` counts witness paths per pair, so downstream algorithms can
    treat "more distinct paths" as "stronger implicit relation".
    """
    weights: Dict[Tuple[Hashable, Hashable], int] = {}
    for p in paths:
        if not p:
            continue
        pair = (p.tail, p.head)
        weights[pair] = weights.get(pair, 0) + 1
    return BinaryProjection(
        pairs=frozenset(weights),
        method="path-projection",
        description=description or "projection of {} paths".format(len(paths)),
        weights=weights)


def project_label_sequence(graph: MultiRelationalGraph,
                           labels: Sequence[Hashable],
                           description: str = "") -> BinaryProjection:
    """Method M3, the paper's worked case: all ``a b ...``-paths projected.

    For ``labels = (a, b)`` this is exactly the paper's
    ``E_ab = U_{x in A ><_o B} (gamma-(x), gamma+(x))`` with
    ``A = {e | omega(e) = a}`` and ``B = {e | omega(e) = b}``.
    """
    if not labels:
        raise ValueError("need at least one label in the sequence")
    paths = labeled_traversal(graph, [frozenset([label]) for label in labels])
    return project_paths(
        paths,
        description=description or "label sequence {}".format("-".join(map(str, labels))))


def project_regular(graph: MultiRelationalGraph, expression,
                    max_length: int, description: str = "") -> BinaryProjection:
    """Method M3 with a full regular path expression (section IV-B generator).

    ``expression`` is a :mod:`repro.regex` AST; generation is bounded by
    ``max_length`` because Kleene stars over cyclic graphs are infinite.
    """
    from repro.automata.generator import generate_paths
    paths = generate_paths(graph, expression, max_length=max_length)
    return project_paths(
        paths,
        description=description or "regular expression projection")
