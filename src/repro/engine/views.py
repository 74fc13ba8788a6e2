"""Incrementally maintained projection views.

Section IV-C projections are *derived data*: `E_ab` is a function of the
base graph, so a serious engine keeps hot projections materialized and
maintains them under mutation rather than recomputing.  This module
implements incremental view maintenance for the two-label join view

    V = { (gamma-(x), gamma+(x)) : x in A ><_o B },   A = E_a, B = E_b

with *witness counts* (the count per pair is what makes deletions exact:
a pair disappears only when its last witness path does — the classical
counting algorithm for join-view maintenance).

Delta rules on base mutations:

* insert ``(t, a, h)``: for every ``(h, b, w)`` edge, witness ``(t, w)`` +1,
* insert ``(t, b, h)``: for every ``(u, a, t)`` edge, witness ``(u, h)`` +1,
* deletions are the same with -1,
* when ``a == b`` the edge plays both roles (and may chain with itself).

The view subscribes to the graph's committed mutation records (only
``+e`` / ``-e`` move it); `as_projection()`
exposes the current state as a standard :class:`BinaryProjection`.  The
tests mutate randomly and assert the view always equals a from-scratch
recomputation.
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

from repro.core.edge import Edge
from repro.core.projection import BinaryProjection, project_label_sequence
from repro.graph.graph import MultiRelationalGraph

__all__ = ["JoinView"]


class JoinView:
    """A live-maintained ``E_ab`` (two-label join) projection view.

    Parameters
    ----------
    graph:
        The base graph; the view subscribes to its mutation records.
    first_label / second_label:
        The ``a`` and ``b`` of ``E_ab``.

    Notes
    -----
    Call :meth:`close` to detach from the graph (or use the view as a
    context manager).  While attached, every ``add_edge``/``remove_edge``
    on the base updates the view in O(degree of the join vertex).
    """

    def __init__(self, graph: MultiRelationalGraph,
                 first_label: Hashable, second_label: Hashable):
        self.graph = graph
        self.first_label = first_label
        self.second_label = second_label
        self._weights: Dict[Tuple[Hashable, Hashable], int] = {}
        self._closed = False
        self._rebuild()
        graph.subscribe(self._on_record)

    # ------------------------------------------------------------------

    def _rebuild(self) -> None:
        """Recompute from scratch (used at attach time).

        Absent labels simply resolve to empty traversals, so no special
        casing is needed: the projection's weights are empty then.
        """
        projection = project_label_sequence(
            self.graph, [self.first_label, self.second_label])
        self._weights = dict(projection.weights or {})

    def _bump(self, pair: Tuple[Hashable, Hashable], delta: int) -> None:
        count = self._weights.get(pair, 0) + delta
        if count < 0:
            raise AssertionError(
                "view underflow on {} — maintenance bug".format(pair))
        if count == 0:
            self._weights.pop(pair, None)
        else:
            self._weights[pair] = count

    def _on_record(self, record: Tuple) -> None:
        op = record[1]
        if self._closed or (op != "+e" and op != "-e"):
            return
        e = Edge(*record[2:5])
        delta = 1 if op == "+e" else -1
        # Role 1: e is an A-edge (t -a-> h); partners are B-edges out of h.
        if e.label == self.first_label:
            for partner in self.graph.match(tail=e.head, label=self.second_label):
                # On removal the partner set no longer contains e-dependent
                # pairs that were already retracted; on addition it may
                # include e itself when a == b and e chains with itself —
                # handled below, so skip it here.
                if partner == e:
                    continue
                self._bump((e.tail, partner.head), delta)
        # Role 2: e is a B-edge (t -b-> h); partners are A-edges into t.
        if e.label == self.second_label:
            for partner in self.graph.match(label=self.first_label, head=e.tail):
                if partner == e:
                    continue
                self._bump((partner.tail, e.head), delta)
        # Self-chaining: a == b and the edge is a loop-compatible chain
        # e . e requires head == tail of the same edge (a self-loop).
        if (e.label == self.first_label == self.second_label
                and e.head == e.tail):
            self._bump((e.tail, e.head), delta)

    # ------------------------------------------------------------------

    def pairs(self) -> frozenset:
        """The current view support ``{(tail, head)}``."""
        return frozenset(self._weights)

    def weight(self, tail: Hashable, head: Hashable) -> int:
        """Witness-path count for one pair (0 when absent)."""
        return self._weights.get((tail, head), 0)

    def as_projection(self) -> BinaryProjection:
        """Snapshot the view as a standard :class:`BinaryProjection`."""
        return BinaryProjection(
            pairs=frozenset(self._weights),
            method="incremental-view",
            description="E_{}{} (maintained)".format(self.first_label,
                                                     self.second_label),
            weights=dict(self._weights))

    def close(self) -> None:
        """Detach from the base graph; the view freezes at its last state."""
        if not self._closed:
            self.graph.unsubscribe(self._on_record)
            self._closed = True

    def __enter__(self) -> "JoinView":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._weights)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "live"
        return "JoinView<E_{}.{}: {} pairs, {}>".format(
            self.first_label, self.second_label, len(self._weights), state)
