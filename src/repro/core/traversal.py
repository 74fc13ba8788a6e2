"""The section III traversal idioms.

Section III expresses every traversal as an n-fold concatenative join in
which each operand is a *restriction* of the full edge set ``E``:

* **complete** — ``E ><_o ... ><_o E``: all joint paths of length n,
* **source** — the first operand keeps only edges with tail in ``Vs``,
* **destination** — the last operand keeps only edges with head in ``Vd``,
* **labeled** — each operand keeps only edges whose label is in a given set.

:class:`Step` captures one operand's restriction (tails, labels, heads — any
subset, all optional); :func:`traverse` evaluates a step sequence.  The
idiom functions below are the paper's four named traversals spelled as step
sequences.  All results are :class:`PathSet` of *joint* paths of exactly the
requested length (paths that dead-end early simply do not appear, matching
the algebra: a join with no partner contributes nothing).

The paper's complement convention ("start everywhere except ``Vs``") is
supported by the ``exclude_*`` fields of :class:`Step`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, FrozenSet, Hashable, Iterable, List, Optional, Sequence

from repro.core.edge import Edge
from repro.core.pathset import PathSet
from repro.graph.graph import MultiRelationalGraph

__all__ = [
    "Step",
    "resolve_step",
    "traverse",
    "complete_traversal",
    "source_traversal",
    "destination_traversal",
    "labeled_traversal",
    "between_traversal",
]


@dataclass(frozen=True)
class Step:
    """The restriction applied to one join operand.

    Each field narrows which edges of ``E`` participate in this step:

    * ``tails`` — keep edges with ``gamma-(e)`` in the set (section III-B),
    * ``heads`` — keep edges with ``gamma+(e)`` in the set (section III-C),
    * ``labels`` — keep edges with ``omega(e)`` in the set (section III-D),
    * ``exclude_tails`` / ``exclude_heads`` / ``exclude_labels`` — the
      paper's complement notation (``Vs-bar``): keep everything *not* listed.

    ``None`` means unconstrained.  A fully-default ``Step()`` is the complete
    traversal's operand ``E``.
    """

    tails: Optional[frozenset] = None
    labels: Optional[frozenset] = None
    heads: Optional[frozenset] = None
    exclude_tails: Optional[frozenset] = None
    exclude_labels: Optional[frozenset] = None
    exclude_heads: Optional[frozenset] = None

    @classmethod
    def make(cls, tails: Optional[Iterable[Hashable]] = None,
             labels: Optional[Iterable[Hashable]] = None,
             heads: Optional[Iterable[Hashable]] = None,
             exclude_tails: Optional[Iterable[Hashable]] = None,
             exclude_labels: Optional[Iterable[Hashable]] = None,
             exclude_heads: Optional[Iterable[Hashable]] = None) -> "Step":
        """Build a step from plain iterables (frozensets are made for you)."""
        def freeze(value: Optional[Iterable[Hashable]]) -> Optional[FrozenSet[Hashable]]:
            return None if value is None else frozenset(value)
        return cls(freeze(tails), freeze(labels), freeze(heads),
                   freeze(exclude_tails), freeze(exclude_labels),
                   freeze(exclude_heads))

    def admits(self, e: Edge) -> bool:
        """True when edge ``e`` satisfies every constraint of this step."""
        if self.tails is not None and e.tail not in self.tails:
            return False
        if self.labels is not None and e.label not in self.labels:
            return False
        if self.heads is not None and e.head not in self.heads:
            return False
        if self.exclude_tails is not None and e.tail in self.exclude_tails:
            return False
        if self.exclude_labels is not None and e.label in self.exclude_labels:
            return False
        if self.exclude_heads is not None and e.head in self.exclude_heads:
            return False
        return True


def resolve_step(graph: MultiRelationalGraph, step: Step) -> PathSet:
    """Materialize a step's edge set against a graph, via the best index.

    Positive tail/label/head constraints route through the graph's indices
    (union of point lookups); exclusions are applied as a post-filter.  Only
    a fully-unconstrained step scans all of ``E``.
    """
    candidates: Iterable[Edge]
    if step.tails is not None:
        candidates = []
        for tail in step.tails:
            if not graph.has_vertex(tail):
                continue
            if step.labels is not None:
                for label in step.labels:
                    candidates.extend(graph.match(tail=tail, label=label))
            else:
                candidates.extend(graph.match(tail=tail))
    elif step.heads is not None:
        candidates = []
        for head in step.heads:
            if not graph.has_vertex(head):
                continue
            if step.labels is not None:
                for label in step.labels:
                    candidates.extend(graph.match(label=label, head=head))
            else:
                candidates.extend(graph.match(head=head))
    elif step.labels is not None:
        candidates = []
        for label in step.labels:
            candidates.extend(graph.match(label=label))
    else:
        candidates = graph.edge_set()
    return PathSet.from_edges(e for e in candidates if step.admits(e))


def traverse(graph: MultiRelationalGraph, steps: Sequence[Step]) -> PathSet:
    """Evaluate ``resolve(s1) ><_o resolve(s2) ><_o ... ><_o resolve(sn)``.

    An empty step sequence yields ``{epsilon}`` (the join identity),
    mirroring ``A^0 = {eps}``.
    """
    result = PathSet.epsilon()
    for step in steps:
        operand = resolve_step(graph, step)
        result = result.join(operand)
        if not result:
            return result
    return result


def complete_traversal(graph: MultiRelationalGraph, length: int) -> PathSet:
    """Section III-A: all joint paths of exactly ``length`` edges.

    ``E ><_o E ><_o ... ><_o E`` (length times).  Beware: grows with the
    number of walks, which is exponential in dense graphs.
    """
    _require_positive_length(length)
    return traverse(graph, [Step()] * length)


def source_traversal(graph: MultiRelationalGraph,
                     sources: AbstractSet[Hashable], length: int,
                     complement: bool = False) -> PathSet:
    """Section III-B: joint paths of ``length`` edges emanating from ``sources``.

    The first operand is ``A = {e | gamma-(e) in Vs}``; subsequent operands
    are the full ``E``.  With ``complement=True`` the restriction inverts to
    the paper's ``Vs-bar`` ("start anywhere except Vs").
    """
    _require_positive_length(length)
    if complement:
        first = Step.make(exclude_tails=sources)
    else:
        first = Step.make(tails=sources)
    return traverse(graph, [first] + [Step()] * (length - 1))


def destination_traversal(graph: MultiRelationalGraph,
                          destinations: AbstractSet[Hashable], length: int,
                          complement: bool = False) -> PathSet:
    """Section III-C: joint paths of ``length`` edges terminating in ``destinations``.

    The last operand is ``B = {e | gamma+(e) in Vd}``.
    """
    _require_positive_length(length)
    if complement:
        last = Step.make(exclude_heads=destinations)
    else:
        last = Step.make(heads=destinations)
    return traverse(graph, [Step()] * (length - 1) + [last])


def between_traversal(graph: MultiRelationalGraph,
                      sources: AbstractSet[Hashable],
                      destinations: AbstractSet[Hashable],
                      length: int) -> PathSet:
    """Source and destination combined: ``A ><_o E ... E ><_o B``.

    For ``length == 1`` the single operand carries both restrictions.
    """
    _require_positive_length(length)
    if length == 1:
        return traverse(graph, [Step.make(tails=sources, heads=destinations)])
    steps = ([Step.make(tails=sources)]
             + [Step()] * (length - 2)
             + [Step.make(heads=destinations)])
    return traverse(graph, steps)


def labeled_traversal(graph: MultiRelationalGraph,
                      label_sequence: Sequence[Iterable[Hashable]]) -> PathSet:
    """Section III-D: constrain each step to a label set.

    ``label_sequence[k]`` is the allowed label set ``Omega_k`` of step k; a
    value of ``None`` leaves the step unconstrained.  The result contains
    exactly the joint paths whose path label ``omega'(a)`` is member-wise
    within the sequence.
    """
    steps: List[Step] = []
    for labels in label_sequence:
        if labels is None:
            steps.append(Step())
        else:
            steps.append(Step.make(labels=labels))
    return traverse(graph, steps)


def _require_positive_length(length: int) -> None:
    if length < 1:
        raise ValueError("traversal length must be >= 1 (got {})".format(length))
