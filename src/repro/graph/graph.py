"""The multi-relational graph store.

The paper's structure is ``G = (V, E)`` with ``E subseteq (V x Omega x V)``:
a finite vertex set, a finite label set Omega (the relation types), and a set
of ternary edges.  :class:`MultiRelationalGraph` is an in-memory store for
that structure with the indices a traversal engine needs:

* ``out``  — tail vertex  -> edges leaving it,
* ``in``   — head vertex  -> edges entering it,
* ``rel``  — label        -> edges carrying it,
* combined ``(tail, label)`` and ``(label, head)`` indices so the paper's
  set-builder atoms ``[i, a, _]`` / ``[_, a, j]`` resolve without scanning.

Vertices and edges may carry property dictionaries (the "property graph"
model the authors' Gremlin system popularized); properties never affect
algebraic identity — an edge *is* its ``(tail, label, head)`` triple.

The store is mutable; every query returns fresh immutable results
(:class:`frozenset` / :class:`PathSet`), so callers can never corrupt the
indices through a returned value.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.core.edge import Edge
from repro.core.path import Path
from repro.core.pathset import PathSet
from repro.errors import (
    DuplicateVertexError,
    EdgeNotFoundError,
    LabelNotFoundError,
    VertexNotFoundError,
)

__all__ = ["MultiRelationalGraph"]

#: Process-wide mint for per-graph identity tokens.  Two graph instances
#: never share a token, even when their structure and ``version()`` agree —
#: the token is what keeps shared query caches from serving one graph's
#: results for another.
_GRAPH_TOKENS = itertools.count(1)


class MultiRelationalGraph:
    """A directed multi-relational graph ``G = (V, E subseteq V x Omega x V)``.

    Examples
    --------
    >>> g = MultiRelationalGraph()
    >>> g.add_edge("marko", "created", "gremlin")
    Edge('marko', 'created', 'gremlin')
    >>> g.add_edge("marko", "knows", "peter")
    Edge('marko', 'knows', 'peter')
    >>> sorted(g.labels())
    ['created', 'knows']
    >>> len(g.edges(tail="marko"))
    2
    """

    def __init__(self, edges: Iterable = (), name: str = ""):
        """Create a graph, optionally bulk-loading ``(tail, label, head)`` triples."""
        self.name = name
        self._graph_token = next(_GRAPH_TOKENS)
        self._version = 0
        self._vertices: Dict[Hashable, Dict[str, Any]] = {}
        self._edges: Dict[Edge, Dict[str, Any]] = {}
        self._out: Dict[Hashable, Set[Edge]] = defaultdict(set)
        self._in: Dict[Hashable, Set[Edge]] = defaultdict(set)
        self._rel: Dict[Hashable, Set[Edge]] = defaultdict(set)
        self._out_by_label: Dict[Tuple[Hashable, Hashable], Set[Edge]] = defaultdict(set)
        self._in_by_label: Dict[Tuple[Hashable, Hashable], Set[Edge]] = defaultdict(set)
        # label -> [distinct tails, distinct heads]: how many of the two
        # bucket kinds above the label has, kept in step with them.
        self._label_ends: Dict[Hashable, List[int]] = {}
        self._listeners: List = []
        # Pattern -> frozenset cache for match(); valid for one version only,
        # so repeated atom resolution stops allocating fresh frozensets.
        self._match_cache: Dict[Tuple, FrozenSet[Edge]] = {}
        self._match_cache_version = -1
        # Structural mutation journal: ``(version_after, op, *args)`` entries
        # covering versions in ``(_journal_floor, _version]``.  The compact
        # snapshot layer replays it to patch CSR overlays instead of paying
        # an O(V + E) rebuild per mutation; see :mod:`repro.graph.compact`.
        self._journal: List[Tuple] = []
        self._journal_floor = 0
        # Durable-log sinks (see :mod:`repro.storage`): each receives every
        # structural *and* property mutation as ``(version_after, op, *args)``.
        self._wal_sinks: List = []
        for item in edges:
            e = item if isinstance(item, Edge) else Edge(*item)
            self.add_edge(e.tail, e.label, e.head)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_vertex(self, vertex: Hashable, strict: bool = False, **properties: Any) -> Hashable:
        """Add a vertex; merging properties if it already exists.

        With ``strict=True`` re-adding an existing vertex raises
        :class:`DuplicateVertexError` instead of merging.
        """
        if self._wal_sinks:
            self._wal_precheck(("+v", vertex))
            if properties:
                self._wal_precheck(("pv", vertex, dict(properties)))
        if vertex in self._vertices:
            if strict:
                raise DuplicateVertexError(
                    "vertex {!r} already exists".format(vertex))
            self._vertices[vertex].update(properties)
            self._version += 1
        else:
            self._vertices[vertex] = dict(properties)
            self._version += 1
            self._journal_append(("+v", vertex))
        if properties and self._wal_sinks:
            self._wal_emit(("pv", vertex, dict(properties)))
        return vertex

    def add_edge(self, tail: Hashable, label: Hashable, head: Hashable,
                 **properties: Any) -> Edge:
        """Add the edge ``(tail, label, head)``, creating endpoints as needed.

        Adding an existing edge merges its properties (edge identity is the
        triple itself — ``E`` is a *set*, so there are no parallel duplicates
        of one triple).
        """
        e = Edge(tail, label, head)
        if self._wal_sinks:
            self._wal_precheck(("+e", tail, label, head))
            if properties:
                self._wal_precheck(("pe", tail, label, head, dict(properties)))
        if e in self._edges:
            self._edges[e].update(properties)
            self._version += 1
            if properties and self._wal_sinks:
                self._wal_emit(("pe", tail, label, head, dict(properties)))
            return e
        self.add_vertex(tail)
        self.add_vertex(head)
        self._edges[e] = dict(properties)
        self._out[tail].add(e)
        self._in[head].add(e)
        self._rel[label].add(e)
        # Buckets are pruned when they empty, so an empty one is new.
        ends = self._label_ends.setdefault(label, [0, 0])
        out_bucket = self._out_by_label[(tail, label)]
        in_bucket = self._in_by_label[(label, head)]
        ends[0] += not out_bucket
        ends[1] += not in_bucket
        out_bucket.add(e)
        in_bucket.add(e)
        self._version += 1
        self._journal_append(("+e", tail, label, head))
        if properties and self._wal_sinks:
            self._wal_emit(("pe", tail, label, head, dict(properties)))
        for listener in self._listeners:
            listener("add_edge", e)
        return e

    def add_edges(self, triples: Iterable) -> List[Edge]:
        """Bulk-add ``(tail, label, head)`` triples; returns the edges added."""
        return [
            self.add_edge(*((t.tail, t.label, t.head) if isinstance(t, Edge) else t))
            for t in triples
        ]

    def remove_edge(self, tail: Hashable, label: Hashable, head: Hashable) -> None:
        """Remove one edge.

        Raises
        ------
        EdgeNotFoundError
            If the edge is not present.
        """
        e = Edge(tail, label, head)
        if e not in self._edges:
            raise EdgeNotFoundError(e)
        if self._wal_sinks:
            self._wal_precheck(("-e", tail, label, head))
        del self._edges[e]
        # Prune every index symmetrically: an empty bucket left behind is an
        # unbounded memory leak under add/remove churn (and would make the
        # index key counts diverge from the live structure forever).
        for index, key in ((self._out, tail), (self._in, head),
                           (self._rel, label),
                           (self._out_by_label, (tail, label)),
                           (self._in_by_label, (label, head))):
            bucket = index.get(key)
            if bucket is not None:
                bucket.discard(e)
                if not bucket:
                    del index[key]
        if label in self._rel:
            ends = self._label_ends[label]
            ends[0] -= (tail, label) not in self._out_by_label
            ends[1] -= (label, head) not in self._in_by_label
        else:
            del self._label_ends[label]
        self._version += 1
        self._journal_append(("-e", tail, label, head))
        for listener in self._listeners:
            listener("remove_edge", e)

    def remove_vertex(self, vertex: Hashable) -> None:
        """Remove a vertex and every edge incident to it.

        Raises
        ------
        VertexNotFoundError
            If the vertex is not present.
        """
        if vertex not in self._vertices:
            raise VertexNotFoundError(vertex)
        if self._wal_sinks:
            self._wal_precheck(("-v", vertex))
        for e in list(self._out.get(vertex, ())) + list(self._in.get(vertex, ())):
            if e in self._edges:
                self.remove_edge(e.tail, e.label, e.head)
        self._out.pop(vertex, None)
        self._in.pop(vertex, None)
        del self._vertices[vertex]
        self._version += 1
        self._journal_append(("-v", vertex))

    # ------------------------------------------------------------------
    # Basic inspection
    # ------------------------------------------------------------------

    def vertices(self) -> FrozenSet[Hashable]:
        """The vertex set ``V``."""
        return frozenset(self._vertices)

    def labels(self) -> FrozenSet[Hashable]:
        """The label set ``Omega`` (only labels with at least one edge)."""
        return frozenset(self._rel)

    def edge_set(self) -> FrozenSet[Edge]:
        """The raw edge set ``E`` as a frozenset of :class:`Edge`."""
        return frozenset(self._edges)

    def has_vertex(self, vertex: Hashable) -> bool:
        """True when ``vertex in V``."""
        return vertex in self._vertices

    def has_edge(self, tail: Hashable, label: Hashable, head: Hashable) -> bool:
        """True when ``(tail, label, head) in E``."""
        return Edge(tail, label, head) in self._edges

    def has_label(self, label: Hashable) -> bool:
        """True when some edge carries ``label``."""
        return label in self._rel

    def order(self) -> int:
        """``|V|`` — the number of vertices."""
        return len(self._vertices)

    def size(self) -> int:
        """``|E|`` — the number of edges."""
        return len(self._edges)

    def relation_count(self) -> int:
        """``|Omega|`` — the number of distinct relation types in use."""
        return len(self._rel)


    def version(self) -> int:
        """A counter bumped by every mutation (cache-invalidation token)."""
        return self._version

    def advance_version(self, floor: int) -> None:
        """Raise the version clock to at least ``floor`` (never lowers it).

        Rebuilding a graph from a snapshot restarts the op counter at the
        rebuild's op count, which can fall *below* the version the durable
        log (and any replica tailing it) last saw — new WAL records would
        then reuse already-consumed versions and a version-deduplicating
        consumer would silently drop them.  The storage tier calls this
        after materialization with the durable floor so the clock stays
        monotonic across process restarts.  Jumping the clock is safe:
        versions are an ordering token, gaps are already routine (one
        ``add_edge`` can bump it three times).
        """
        if floor > self._version:
            self._version = floor

    def graph_token(self) -> int:
        """A process-unique identity token minted at graph construction.

        ``version()`` only distinguishes *states of one graph*; two distinct
        graphs can easily agree on it.  Cache keys that may be shared across
        graphs (e.g. :class:`repro.engine.cache.QueryCache`) must embed this
        token as well.
        """
        return self._graph_token

    # ------------------------------------------------------------------
    # Structural mutation journal (compact-snapshot delta source)
    # ------------------------------------------------------------------

    #: Journal entries are dropped wholesale past this length; consumers then
    #: fall back to a full snapshot rebuild, so the cap only bounds memory.
    _JOURNAL_CAP = 65536

    #: Where the compact layer caches snapshots; kept in sync with
    #: ``repro.graph.compact._CACHE_ATTR`` (the differential tests fail
    #: loudly on a mismatch: no overlay would ever form).
    _SNAPSHOT_CACHE_ATTR = "_compact_snapshot_cache"

    def _journal_append(self, entry: Tuple) -> None:
        """Record one structural op, tagged with the version it produced.

        The journal entry lands *before* the WAL sinks see the op: a sink
        may raise (a failed durable append flips the store read-only),
        and the in-memory journal must already agree with the applied
        structure when it does — otherwise the compact snapshot cache
        would stamp the new version onto a view missing this very op and
        serve silently wrong answers ever after.
        """
        if not self._journal and \
                getattr(self, self._SNAPSHOT_CACHE_ATTR, None) is None:
            # No snapshot consumer exists yet: journaling would only retain
            # memory.  Keep the floor pinned so a later consumer knows the
            # gap is uncovered and rebuilds.
            self._journal_floor = self._version
        else:
            self._journal.append((self._version,) + entry)
            if len(self._journal) > self._JOURNAL_CAP:
                del self._journal[:]
                self._journal_floor = self._version
        if self._wal_sinks:
            self._wal_emit(entry)

    def journal_since(self, version: int) -> Optional[List[Tuple]]:
        """Structural ops applied after ``version``, oldest first.

        Each entry is ``(version_after, op, *args)`` with ``op`` one of
        ``"+v"``, ``"-v"``, ``"+e"``, ``"-e"``.  Property-only mutations bump
        :meth:`version` without a journal entry — they never change
        structure.  Returns ``None`` when the journal no longer reaches back
        to ``version`` (capped or pruned), meaning a delta cannot be formed
        and the consumer must rebuild from scratch.
        """
        if version < self._journal_floor:
            return None
        return [entry for entry in self._journal if entry[0] > version]

    def prune_journal(self, version: int) -> None:
        """Drop journal entries at or before ``version`` (already consumed)."""
        if self._journal and self._journal[0][0] <= version:
            self._journal = [entry for entry in self._journal
                             if entry[0] > version]
        if version > self._journal_floor:
            self._journal_floor = version

    def _wal_emit(self, entry: Tuple) -> None:
        """Forward one mutation (structural or property) to every WAL sink."""
        record = (self._version,) + entry
        for sink in self._wal_sinks:
            sink(record)

    def _wal_precheck(self, entry: Tuple) -> None:
        """Let every sink veto a mutation BEFORE any state changes.

        A sink that cannot represent the entry (e.g. a tuple vertex id in
        the JSON-framed log) must get the chance to raise while the graph,
        journal and durable log still agree — raising from the post-apply
        emit would leave the in-memory store permanently ahead of all of
        them.  Called only when sinks are attached; sinks without a
        ``precheck`` attribute accept everything.
        """
        for sink in self._wal_sinks:
            precheck = getattr(sink, "precheck", None)
            if precheck is not None:
                precheck(entry)

    def attach_wal_sink(self, sink) -> None:
        """Register ``sink((version_after, op, *args))`` for every mutation.

        Unlike the bounded structural journal (which exists only to patch
        compact snapshots and drops property ops entirely), sinks see the
        **complete** durable event stream: ``+v``/``-v``/``+e``/``-e`` plus
        ``("pv", vertex, {props})`` and ``("pe", tail, label, head,
        {props})`` property merges.  Used by
        :class:`repro.storage.PersistentGraph` to append the write-ahead
        log.
        """
        self._wal_sinks.append(sink)

    def detach_wal_sink(self, sink) -> None:
        """Remove a previously attached WAL sink (no-op if absent)."""
        if sink in self._wal_sinks:
            self._wal_sinks.remove(sink)

    def subscribe(self, listener) -> None:
        """Register ``listener(event, edge)`` for edge mutations.

        ``event`` is ``"add_edge"`` or ``"remove_edge"``.  Used by
        incrementally-maintained views (:mod:`repro.engine.views`).
        """
        self._listeners.append(listener)

    def unsubscribe(self, listener) -> None:
        """Remove a previously registered listener (no-op if absent)."""
        if listener in self._listeners:
            self._listeners.remove(listener)

    def __len__(self) -> int:
        return len(self._edges)

    def __contains__(self, item) -> bool:
        if isinstance(item, Edge):
            return item in self._edges
        if isinstance(item, tuple) and len(item) == 3:
            return Edge(*item) in self._edges
        return item in self._vertices

    def __iter__(self) -> Iterator[Edge]:
        return iter(sorted(self._edges, key=repr))

    def __repr__(self) -> str:
        label = " {!r}".format(self.name) if self.name else ""
        return "MultiRelationalGraph{}<|V|={}, |E|={}, |Omega|={}>".format(
            label, self.order(), self.size(), self.relation_count())

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiRelationalGraph):
            return NotImplemented
        return (self.vertices() == other.vertices()
                and self.edge_set() == other.edge_set())

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    def vertex_properties(self, vertex: Hashable) -> Dict[str, Any]:
        """A copy of the property map of ``vertex``."""
        if vertex not in self._vertices:
            raise VertexNotFoundError(vertex)
        return dict(self._vertices[vertex])

    def edge_properties(self, tail: Hashable, label: Hashable, head: Hashable) -> Dict[str, Any]:
        """A copy of the property map of one edge."""
        e = Edge(tail, label, head)
        if e not in self._edges:
            raise EdgeNotFoundError(e)
        return dict(self._edges[e])

    def set_vertex_property(self, vertex: Hashable, key: str, value: Any) -> None:
        """Set one property on an existing vertex."""
        if vertex not in self._vertices:
            raise VertexNotFoundError(vertex)
        if self._wal_sinks:
            self._wal_precheck(("pv", vertex, {key: value}))
        self._vertices[vertex][key] = value
        self._version += 1
        if self._wal_sinks:
            self._wal_emit(("pv", vertex, {key: value}))

    def set_edge_property(self, tail: Hashable, label: Hashable, head: Hashable,
                          key: str, value: Any) -> None:
        """Set one property on an existing edge."""
        e = Edge(tail, label, head)
        if e not in self._edges:
            raise EdgeNotFoundError(e)
        if self._wal_sinks:
            self._wal_precheck(("pe", tail, label, head, {key: value}))
        self._edges[e][key] = value
        self._version += 1
        if self._wal_sinks:
            self._wal_emit(("pe", tail, label, head, {key: value}))

    # ------------------------------------------------------------------
    # The paper's set-builder notation (section IV-A)
    # ------------------------------------------------------------------

    def edges(self, tail: Optional[Hashable] = None, label: Optional[Hashable] = None,
              head: Optional[Hashable] = None) -> PathSet:
        """Resolve a set-builder atom to a :class:`PathSet` of length-1 paths.

        ``None`` plays the paper's underscore wildcard:

        * ``g.edges()``                      is ``[_, _, _] = E``,
        * ``g.edges(tail=i)``                is ``[i, _, _]``,
        * ``g.edges(label=a)``               is ``[_, a, _]``,
        * ``g.edges(head=j)``                is ``[_, _, j]``,
        * ``g.edges(tail=i, label=a)``       is ``[i, a, _]``, etc.

        Every result is a set of single-edge paths, ready for ``@`` joins.
        """
        return PathSet.from_edges(self.match(tail, label, head))

    def match(self, tail: Optional[Hashable] = None, label: Optional[Hashable] = None,
              head: Optional[Hashable] = None) -> FrozenSet[Edge]:
        """Like :meth:`edges` but returning raw :class:`Edge` objects.

        Uses the most selective available index; only the fully-wild pattern
        touches the whole edge set.

        Results are cached per pattern and invalidated by :meth:`version`,
        so repeated atom resolution against an unchanged graph returns the
        same frozenset instead of allocating a fresh copy of the bucket on
        every call.
        """
        if self._match_cache_version != self._version:
            self._match_cache.clear()
            self._match_cache_version = self._version
        key = (tail, label, head)
        cached = self._match_cache.get(key)
        if cached is not None:
            return cached
        result = self._match_uncached(tail, label, head)
        self._match_cache[key] = result
        return result

    def _match_uncached(self, tail: Optional[Hashable], label: Optional[Hashable],
                        head: Optional[Hashable]) -> FrozenSet[Edge]:
        """Resolve one pattern through the indices (no caching)."""
        if tail is not None and label is not None:
            candidates = self._out_by_label.get((tail, label), set())
            if head is not None:
                return frozenset(e for e in candidates if e.head == head)
            return frozenset(candidates)
        if label is not None and head is not None:
            return frozenset(self._in_by_label.get((label, head), set()))
        if tail is not None:
            candidates = self._out.get(tail, set())
            if head is not None:
                return frozenset(e for e in candidates if e.head == head)
            return frozenset(candidates)
        if head is not None:
            return frozenset(self._in.get(head, set()))
        if label is not None:
            return frozenset(self._rel.get(label, set()))
        return frozenset(self._edges)

    def all_paths(self) -> PathSet:
        """``E`` lifted to a path set — the starting point of every traversal."""
        return PathSet.from_edges(self._edges)

    # ------------------------------------------------------------------
    # Neighborhood queries
    # ------------------------------------------------------------------

    def out_edges(self, vertex: Hashable, label: Optional[Hashable] = None) -> FrozenSet[Edge]:
        """Edges leaving ``vertex`` (optionally restricted to one label)."""
        if vertex not in self._vertices:
            raise VertexNotFoundError(vertex)
        return self.match(tail=vertex, label=label)

    def in_edges(self, vertex: Hashable, label: Optional[Hashable] = None) -> FrozenSet[Edge]:
        """Edges entering ``vertex`` (optionally restricted to one label)."""
        if vertex not in self._vertices:
            raise VertexNotFoundError(vertex)
        return self.match(label=label, head=vertex)

    def successors(self, vertex: Hashable, label: Optional[Hashable] = None) -> FrozenSet[Hashable]:
        """Vertices reachable from ``vertex`` by one edge."""
        return frozenset(e.head for e in self.out_edges(vertex, label))

    def predecessors(self, vertex: Hashable, label: Optional[Hashable] = None) -> FrozenSet[Hashable]:
        """Vertices with one edge into ``vertex``."""
        return frozenset(e.tail for e in self.in_edges(vertex, label))

    def out_degree(self, vertex: Hashable, label: Optional[Hashable] = None) -> int:
        """Number of edges leaving ``vertex``."""
        return len(self.out_edges(vertex, label))

    def in_degree(self, vertex: Hashable, label: Optional[Hashable] = None) -> int:
        """Number of edges entering ``vertex``."""
        return len(self.in_edges(vertex, label))

    def degree(self, vertex: Hashable, label: Optional[Hashable] = None) -> int:
        """Total degree (in + out)."""
        return self.in_degree(vertex, label) + self.out_degree(vertex, label)

    # ------------------------------------------------------------------
    # Relation-level views (section IV-C method M2: extract one relation)
    # ------------------------------------------------------------------

    def relation(self, label: Hashable) -> FrozenSet[Tuple[Hashable, Hashable]]:
        """The binary relation ``E_a = {(gamma-(e), gamma+(e)) | omega(e) = a}``.

        This is the paper's "extract a single edge relation, based on its
        label" construction — section IV-C's second method of applying
        single-relational algorithms to a multi-relational graph.

        Raises
        ------
        LabelNotFoundError
            If no edge carries ``label``.
        """
        if label not in self._rel:
            raise LabelNotFoundError(label)
        return frozenset(e.endpoints() for e in self._rel[label])

    def subgraph_by_labels(self, labels: Iterable[Hashable]) -> "MultiRelationalGraph":
        """The multi-relational subgraph keeping only edges whose label is given.

        Vertices incident to a kept edge are retained (with their
        properties); isolated vertices are dropped.
        """
        wanted = set(labels)
        sub = MultiRelationalGraph(name=self.name)
        for label in wanted:
            for e in self._rel.get(label, ()):
                sub.add_edge(e.tail, e.label, e.head, **self._edges[e])
        for v in sub.vertices():
            for key, value in self._vertices.get(v, {}).items():
                sub.set_vertex_property(v, key, value)
        return sub

    def subgraph_by_vertices(self, vertices: Iterable[Hashable]) -> "MultiRelationalGraph":
        """The induced subgraph on a vertex subset (all labels kept)."""
        wanted = set(vertices)
        sub = MultiRelationalGraph(name=self.name)
        for v in wanted:
            if v in self._vertices:
                sub.add_vertex(v, **self._vertices[v])
        for e, props in self._edges.items():
            if e.tail in wanted and e.head in wanted:
                sub.add_edge(e.tail, e.label, e.head, **props)
        return sub

    def collapsed(self) -> FrozenSet[Tuple[Hashable, Hashable]]:
        """The label-blind binary relation ``{(gamma-(e), gamma+(e)) | e in E}``.

        Section IV-C's *first* method — "simply ignore edge labels and,
        potentially, repeated edges between the same two vertices".  The
        paper warns this destroys semantics; we expose it so experiment E5
        can demonstrate exactly that.
        """
        return frozenset(e.endpoints() for e in self._edges)

    def inverted(self) -> "MultiRelationalGraph":
        """A new graph with every edge reversed (labels preserved)."""
        out = MultiRelationalGraph(name=self.name)
        for v, props in self._vertices.items():
            out.add_vertex(v, **props)
        for e, props in self._edges.items():
            out.add_edge(e.head, e.label, e.tail, **props)
        return out

    def copy(self) -> "MultiRelationalGraph":
        """A deep-enough copy: structure and property maps are duplicated."""
        out = MultiRelationalGraph(name=self.name)
        for v, props in self._vertices.items():
            out.add_vertex(v, **props)
        for e, props in self._edges.items():
            out.add_edge(e.tail, e.label, e.head, **props)
        return out

    def merged(self, other: "MultiRelationalGraph") -> "MultiRelationalGraph":
        """The union graph of two multi-relational graphs."""
        out = self.copy()
        for v in other.vertices():
            out.add_vertex(v, **other.vertex_properties(v))
        for e in other.edge_set():
            out.add_edge(e.tail, e.label, e.head,
                         **other.edge_properties(e.tail, e.label, e.head))
        return out

    # ------------------------------------------------------------------
    # Statistics hooks (consumed by the engine's planner)
    # ------------------------------------------------------------------

    def label_histogram(self) -> Dict[Hashable, int]:
        """``label -> edge count`` — the planner's base cardinality statistic."""
        return {label: len(edges) for label, edges in self._rel.items()}

    def label_fanout(self, label: Hashable) -> Tuple[int, int, int]:
        """``(edges, distinct tails, distinct heads)`` of one label, O(1).

        Maintained by :meth:`add_edge` / :meth:`remove_edge`, not derived:
        ``edges / distinct tails`` is the label's mean out-fanout per
        edge-carrying tail, which the planner's direction choice reads
        once per query.
        """
        ends = self._label_ends.get(label)
        if ends is None:
            return 0, 0, 0
        return len(self._rel[label]), ends[0], ends[1]

    def density(self) -> float:
        """``|E| / (|V|^2 * |Omega|)`` — fraction of possible ternary edges present."""
        v, omega = self.order(), self.relation_count()
        if v == 0 or omega == 0:
            return 0.0
        return self.size() / float(v * v * omega)
