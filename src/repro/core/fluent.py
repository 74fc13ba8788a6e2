"""A fluent, Gremlin-flavored traversal DSL on top of the algebra.

The paper closes by noting the algebra "provides a set of core operations
for constructing a multi-relational graph traversal engine"; the authors'
own engine was Gremlin.  This module is the corresponding user-facing
surface: a chainable :class:`Traversal` whose every step is defined by the
section II/III operations (each ``out`` step *is* a concatenative join with
a restricted edge set).

The traversal is **eager but frontier-pruned**: at each step only edges
whose tail is in the current frontier are materialized, which is exactly the
hash-equijoin the :class:`PathSet` join performs, specialized to the graph's
indices.

Example
-------
>>> from repro.datasets import software_community
>>> g = software_community()
>>> t = Traversal(g).start("person0").out("knows").out("created")
>>> software = t.heads()   # projects created by person0's acquaintances
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Hashable, Iterator, List, Optional

from repro.core.edge import Edge
from repro.core.path import Path
from repro.core.pathset import PathSet
from repro.errors import VertexNotFoundError
from repro.graph.graph import MultiRelationalGraph

__all__ = ["Traversal"]


class Traversal:
    """A chainable traversal bound to one graph.

    A traversal carries an immutable :class:`PathSet`; every step returns a
    **new** traversal, so intermediate stages can be kept and branched
    without interference (`t2 = t.out("knows")` leaves ``t`` usable).
    """

    def __init__(self, graph: MultiRelationalGraph,
                 paths: Optional[PathSet] = None):
        self._graph = graph
        # None means "not started": start() must come before edge steps.
        self._paths = paths

    # ------------------------------------------------------------------
    # Starting
    # ------------------------------------------------------------------

    def start(self, *vertices: Hashable) -> "Traversal":
        """Begin at the given vertices (no vertices means *all* of ``V``).

        Starting materializes ``{epsilon}`` conceptually; the actual paths
        appear at the first edge step, restricted to tails in the start set
        (section III-B's left restriction).
        """
        if vertices:
            for v in vertices:
                if not self._graph.has_vertex(v):
                    raise VertexNotFoundError(v)
            starts = frozenset(vertices)
        else:
            starts = self._graph.vertices()
        t = Traversal(self._graph, PathSet.epsilon())
        t._starts = starts  # type: ignore[attr-defined]
        return t

    def start_from_paths(self, paths: PathSet) -> "Traversal":
        """Resume a traversal from an existing path set."""
        return Traversal(self._graph, paths)

    def _frontier(self) -> FrozenSet[Hashable]:
        """The set of vertices at the heads of the current paths."""
        if self._paths is None:
            raise ValueError("traversal not started; call .start() first")
        starts = getattr(self, "_starts", None)
        if self._paths == PathSet.epsilon() and starts is not None:
            return starts
        return self._paths.heads()

    # ------------------------------------------------------------------
    # Edge steps (each is one concatenative join)
    # ------------------------------------------------------------------

    def out(self, *labels: Hashable) -> "Traversal":
        """Follow out-edges (optionally restricted to the given labels).

        Equivalent algebra: join the current path set with
        ``{e | gamma-(e) in frontier, omega(e) in labels}``.
        """
        frontier = self._frontier()
        step_edges: List[Edge] = []
        for v in frontier:
            if not self._graph.has_vertex(v):
                continue
            if labels:
                for label in labels:
                    step_edges.extend(self._graph.match(tail=v, label=label))
            else:
                step_edges.extend(self._graph.match(tail=v))
        return self._joined(PathSet.from_edges(step_edges))

    def in_(self, *labels: Hashable) -> "Traversal":
        """Traverse in-edges *against* their direction.

        The appended path elements are the inverted edges (tail and head
        swapped, label preserved), so the path remains joint.  Note the
        resulting paths are paths of the inverted graph segmentwise — the
        standard Gremlin ``in()`` semantics.
        """
        frontier = self._frontier()
        step_edges: List[Edge] = []
        for v in frontier:
            if not self._graph.has_vertex(v):
                continue
            for e in self._graph.in_edges(v):
                if labels and e.label not in labels:
                    continue
                step_edges.append(e.inverted())
        return self._joined(PathSet.from_edges(step_edges))

    def both(self, *labels: Hashable) -> "Traversal":
        """Follow edges in either direction (union of :meth:`out` and :meth:`in_`)."""
        forward = self.out(*labels)
        backward = self.in_(*labels)
        merged = forward.paths() | backward.paths()
        return Traversal(self._graph, merged)

    def repeat(self, step: Callable[["Traversal"], "Traversal"],
               times: int) -> "Traversal":
        """Apply a step function ``times`` times: ``t.repeat(lambda s: s.out('knows'), 3)``."""
        if times < 0:
            raise ValueError("repeat count must be >= 0")
        current = self
        for _ in range(times):
            current = step(current)
        return current

    def _joined(self, step_set: PathSet) -> "Traversal":
        if self._paths is None:
            raise ValueError("traversal not started; call .start() first")
        starts = getattr(self, "_starts", None)
        if self._paths == PathSet.epsilon() and starts is not None:
            # First step: the epsilon join would admit every step edge, so
            # apply the start restriction explicitly.
            result = step_set.starting_in(starts)
        else:
            result = self._paths.join(step_set)
        return Traversal(self._graph, result)

    # ------------------------------------------------------------------
    # Filters
    # ------------------------------------------------------------------

    def filter(self, predicate: Callable[[Path], bool]) -> "Traversal":
        """Keep only paths satisfying ``predicate``."""
        return Traversal(self._graph, self.paths().filter(predicate))

    def simple(self) -> "Traversal":
        """Keep only simple paths (no repeated vertices) — cf. reference [8]."""
        return self.filter(lambda p: p.is_simple())

    def where_head(self, *vertices: Hashable) -> "Traversal":
        """Keep paths currently ending at one of ``vertices`` (right restriction)."""
        return Traversal(self._graph, self.paths().ending_in(set(vertices)))

    def where_head_has(self, key: str, value: Hashable) -> "Traversal":
        """Keep paths whose head vertex has property ``key == value``."""
        def check(p: Path) -> bool:
            head = p.head
            if not self._graph.has_vertex(head):
                return False
            return self._graph.vertex_properties(head).get(key) == value
        return self.filter(lambda p: bool(p) and check(p))

    def dedup_heads(self) -> "Traversal":
        """Keep one (arbitrary deterministic) path per distinct head vertex."""
        chosen = {}
        for p in self.paths():
            if p and p.head not in chosen:
                chosen[p.head] = p
        return Traversal(self._graph, PathSet(chosen.values()))

    # ------------------------------------------------------------------
    # Terminal steps
    # ------------------------------------------------------------------

    def paths(self) -> PathSet:
        """The current path set."""
        if self._paths is None:
            raise ValueError("traversal not started; call .start() first")
        return self._paths

    def heads(self) -> FrozenSet[Hashable]:
        """``{gamma+(a)}`` over the current paths."""
        return self.paths().heads()

    def tails(self) -> FrozenSet[Hashable]:
        """``{gamma-(a)}`` over the current paths."""
        return self.paths().tails()

    def count(self) -> int:
        """Number of paths currently held."""
        return len(self.paths())

    def head_histogram(self) -> dict:
        """``head vertex -> number of paths arriving there``.

        The path-counting semantics behind spreading-activation style
        rankings: more distinct paths into a vertex means more "energy".
        """
        histogram: dict = {}
        for p in self.paths():
            if p:
                histogram[p.head] = histogram.get(p.head, 0) + 1
        return histogram

    def __iter__(self) -> Iterator[Path]:
        return iter(self.paths())

    def __len__(self) -> int:
        return self.count()

    def __repr__(self) -> str:
        state = "unstarted" if self._paths is None else "{} paths".format(len(self._paths))
        return "Traversal<{} on {!r}>".format(state, self._graph.name or "graph")
