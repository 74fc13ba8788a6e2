"""The correctness oracle: every checked answer is recomputed here.

Independent of everything being measured: label expressions are built by
hand with the :mod:`repro.rpq` constructors (not lowered from the PathQL
text the servers parse), and evaluated by the dict-graph reference
``rpq_pairs_basic`` — never by a compact kernel.  Target-bound queries
run the *reversed* expression on the *inverted* dict graph from the
targets, which keeps even the backward ops cheap to verify.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.graph.generators import preferential_attachment, uniform_random
from repro.graph.graph import MultiRelationalGraph
from repro.rpq import lconcat, lplus, lstar, lunion, rpq_pairs_basic, sym

from . import opstream

_A, _B, _C = sym("a"), sym("b"), sym("c")

#: template -> (label expression, the same language reversed).
EXPRESSIONS = {
    "T1": (lconcat(_A, lstar(_B)), lconcat(lstar(_B), _A)),
    "T2": (lconcat(_A, _B), lconcat(_B, _A)),
    "T3": (lconcat(lstar(lunion(_A, _B)), _C),
           lconcat(_C, lstar(lunion(_A, _B)))),
    "APLUS": (lplus(_A), lplus(_A)),
    "ABSTAR": (lstar(lconcat(_A, _B)), lstar(lconcat(_B, _A))),
    "HOP3": (lconcat(_A, _B, _C), lconcat(_C, _B, _A)),
}

Pair = Tuple[int, int]


def serve_graph(seed: int) -> MultiRelationalGraph:
    """The graph every serve workload stores (seeded, named ``g``)."""
    return uniform_random(opstream.SERVE_VERTICES, opstream.SERVE_EDGES,
                          labels=opstream.LABELS,
                          seed=opstream.derive_int(seed, "graph"), name="g")


def sweep_graphs(seed: int) -> Dict[str, MultiRelationalGraph]:
    dense_v, dense_e = opstream.SWEEP_DENSE
    sparse_v, sparse_k = opstream.SWEEP_SPARSE
    return {
        "dense": uniform_random(
            dense_v, dense_e, labels=opstream.LABELS,
            seed=opstream.derive_int(seed, "sweep-dense"), name="dense"),
        "sparse": preferential_attachment(
            sparse_v, sparse_k, labels=opstream.LABELS,
            seed=opstream.derive_int(seed, "sweep-sparse"), name="sparse"),
    }


def edge_triples(graph: MultiRelationalGraph) -> List[opstream.Edge]:
    """``(tail, label, head)`` of every edge, in a seed-stable order."""
    return sorted((e.tail, e.label, e.head) for e in graph.edge_set())


class Oracle:
    """Reference answers over one (possibly mutating) dict graph."""

    def __init__(self, graph: MultiRelationalGraph):
        self.graph = graph
        self._inverted: Optional[MultiRelationalGraph] = None
        self._inverted_version = -1

    def _inverse(self) -> MultiRelationalGraph:
        if self._inverted_version != self.graph.version():
            self._inverted = self.graph.inverted()
            self._inverted_version = self.graph.version()
        return self._inverted

    def answer(self, op: opstream.Op) -> FrozenSet[Pair]:
        _, template, sources, targets = op[:4]
        forward, backward = EXPRESSIONS[template]
        if sources is None and targets is not None:
            flipped = rpq_pairs_basic(self._inverse(), backward,
                                      frozenset(targets))
            return frozenset((s, t) for t, s in flipped)
        pairs = rpq_pairs_basic(
            self.graph, forward,
            None if sources is None else frozenset(sources))
        if targets is not None:
            wanted = set(targets)
            pairs = frozenset(p for p in pairs if p[1] in wanted)
        return pairs

    def apply_records(self, records: Iterable[Tuple]) -> None:
        """Replay acknowledged journal records (``opstream.edge_records``)."""
        for sign, tail, label, head in records:
            if sign == "+":
                self.graph.add_edge(tail, label, head)
            else:
                self.graph.remove_edge(tail, label, head)

    def edge_set(self) -> Set[opstream.Edge]:
        return {(e.tail, e.label, e.head) for e in self.graph.edge_set()}


def as_pairs(payload_pairs: Sequence[Sequence[int]]) -> FrozenSet[Pair]:
    """The SDK's decoded ``pairs`` list as a set of tuples."""
    return frozenset((p[0], p[1]) for p in payload_pairs)
