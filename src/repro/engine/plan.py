"""Physical plan nodes for the materialized execution strategy.

A plan is a binary tree whose leaves scan edge sets (atom patterns or
literal path sets) and whose internal nodes combine child path sets with
the algebra's operations.  Because the concatenative join is associative,
a chain ``a1 . a2 . ... . an`` admits many trees with identical results but
very different intermediate sizes — the planner's job (matrix-chain style
dynamic programming in :mod:`repro.engine.planner`) is choosing among them.

Every node carries the planner's cardinality/cost annotations and renders
itself for ``EXPLAIN`` output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.regex.ast import Atom, Literal

__all__ = [
    "PlanNode",
    "AtomScan",
    "LiteralScan",
    "EpsilonScan",
    "EmptyScan",
    "JoinPlan",
    "ProductPlan",
    "UnionPlan",
    "StarPlan",
]


@dataclass
class PlanNode:
    """Base plan node: estimated output rows and cumulative cost."""

    estimated_rows: float = 0.0
    estimated_cost: float = 0.0

    def children(self) -> Tuple["PlanNode", ...]:
        """Child plan nodes."""
        return ()

    def label(self) -> str:
        """One-line description used by :meth:`explain`."""
        return type(self).__name__

    def explain(self, indent: int = 0) -> str:
        """An EXPLAIN-style indented tree with row/cost annotations."""
        pad = "  " * indent
        line = "{}{} (rows~{:.1f}, cost~{:.1f})".format(
            pad, self.label(), self.estimated_rows, self.estimated_cost)
        parts = [line]
        for child in self.children():
            parts.append(child.explain(indent + 1))
        return "\n".join(parts)

    def operator_count(self) -> int:
        """Number of plan nodes in this subtree."""
        return 1 + sum(child.operator_count() for child in self.children())


@dataclass
class AtomScan(PlanNode):
    """Leaf: resolve one set-builder pattern through the graph indices."""

    atom: Atom = None  # type: ignore[assignment]

    def label(self) -> str:
        return "AtomScan {}".format(self.atom)


@dataclass
class LiteralScan(PlanNode):
    """Leaf: a constant path set."""

    literal: Literal = None  # type: ignore[assignment]

    def label(self) -> str:
        return "LiteralScan {} paths".format(len(self.literal.path_set))


@dataclass
class EpsilonScan(PlanNode):
    """Leaf: the constant ``{epsilon}``."""

    def label(self) -> str:
        return "Epsilon"


@dataclass
class EmptyScan(PlanNode):
    """Leaf: the constant empty set."""

    def label(self) -> str:
        return "EmptySet"


@dataclass
class JoinPlan(PlanNode):
    """Binary concatenative hash-join of two child path sets."""

    left: PlanNode = None  # type: ignore[assignment]
    right: PlanNode = None  # type: ignore[assignment]

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        return "Join"


@dataclass
class ProductPlan(PlanNode):
    """Binary concatenative product (all pairs, disjoint allowed)."""

    left: PlanNode = None  # type: ignore[assignment]
    right: PlanNode = None  # type: ignore[assignment]

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        return "Product"


@dataclass
class UnionPlan(PlanNode):
    """N-ary set union of child path sets."""

    parts: Tuple[PlanNode, ...] = ()

    def children(self) -> Tuple[PlanNode, ...]:
        return self.parts

    def label(self) -> str:
        return "Union[{}]".format(len(self.parts))


@dataclass
class StarPlan(PlanNode):
    """Bounded Kleene fixpoint over the child's result."""

    inner: PlanNode = None  # type: ignore[assignment]

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.inner,)

    def label(self) -> str:
        return "Star (bounded fixpoint)"
