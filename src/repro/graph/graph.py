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
    Optional,
    Set,
    Tuple,
)

from repro.core.edge import Edge
from repro.core.pathset import PathSet
from repro.errors import (
    DuplicateVertexError,
    EdgeNotFoundError,
    LabelNotFoundError,
    VertexNotFoundError,
    WildcardIdError,
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
        # Pattern -> frozenset cache for match(); valid for one version only,
        # so repeated atom resolution stops allocating fresh frozensets.
        self._match_cache: Dict[Tuple, FrozenSet[Edge]] = {}
        self._match_cache_version = -1
        # Whatever hears committed records (see subscribe); replaced, never
        # edited, so a commit iterates a tuple nobody changes under it.
        self._subscribers: Tuple = ()
        for item in edges:
            e = item if isinstance(item, Edge) else Edge(*item)
            self.add_edge(e.tail, e.label, e.head)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_vertex(self, vertex: Hashable, strict: bool = False, **properties: Any) -> Hashable:
        """Add a vertex; merging properties if it already exists.

        With ``strict=True`` re-adding an existing vertex raises
        :class:`DuplicateVertexError` instead of merging.  ``None`` is
        the wildcard, never a vertex (:class:`WildcardIdError`).
        """
        if vertex is None:
            raise WildcardIdError("vertex")
        exists = vertex in self._vertices
        entries = [] if exists else [("+v", vertex)]
        if properties:
            entries.append(("pv", vertex, dict(properties)))
        # Vetoed even when nothing commits: a degraded store must refuse a
        # retried write, not answer it as if it were durable.
        self._precheck(entries)
        if exists and strict:
            raise DuplicateVertexError(
                "vertex {!r} already exists".format(vertex))
        # Each record's change, then its commit: a commit that raises
        # (a failed log append) leaves no later record's change behind.
        if not exists:
            self._vertices[vertex] = {}
            self._commit(entries[0])
        if properties:
            self._vertices[vertex].update(properties)
            self._commit(entries[-1])
        return vertex

    def add_edge(self, tail: Hashable, label: Hashable, head: Hashable,
                 **properties: Any) -> Edge:
        """Add the edge ``(tail, label, head)``, creating endpoints as needed.

        Adding an existing edge merges its properties (edge identity is the
        triple itself — ``E`` is a *set*, so there are no parallel duplicates
        of one triple).  ``None`` is the wildcard, never a vertex or a
        label (:class:`WildcardIdError`).
        """
        if tail is None or head is None:
            raise WildcardIdError("vertex")
        if label is None:
            raise WildcardIdError("label")
        e = Edge(tail, label, head)
        if e in self._edges:
            merged = (("pe", tail, label, head, dict(properties)),) \
                if properties else ()
            # Vetoed even when nothing commits, as in add_vertex.
            self._precheck(merged)
            if merged:
                self._edges[e].update(properties)
                self._commit(merged[0])
            return e
        born = []
        if tail not in self._vertices:
            born.append(("+v", tail))
        if head not in self._vertices and head != tail:
            born.append(("+v", head))
        linked = [("+e", tail, label, head)]
        if properties:
            linked.append(("pe", tail, label, head, dict(properties)))
        self._precheck(born + linked)
        for entry in born:
            self._vertices[entry[1]] = {}
            self._commit(entry)
        self._edges[e] = {}
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
        self._commit(linked[0])
        if properties:
            self._edges[e].update(properties)
            self._commit(linked[1])
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
        entry = ("-e", tail, label, head)
        self._precheck((entry,))
        self._unlink(e)
        self._commit(entry)

    def _unlink(self, e: Edge) -> None:
        """Drop one present edge from the edge dict and every index."""
        tail, label, head = e.tail, e.label, e.head
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

    def remove_vertex(self, vertex: Hashable) -> None:
        """Remove a vertex and every edge incident to it.

        Raises
        ------
        VertexNotFoundError
            If the vertex is not present.
        """
        if vertex not in self._vertices:
            raise VertexNotFoundError(vertex)
        incident = list(dict.fromkeys(itertools.chain(
            self._out.get(vertex, ()), self._in.get(vertex, ()))))
        entries = [("-e", e.tail, e.label, e.head) for e in incident]
        entries.append(("-v", vertex))
        self._precheck(entries)
        for e, entry in zip(incident, entries):
            self._unlink(e)
            self._commit(entry)
        del self._vertices[vertex]
        self._commit(entries[-1])

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
        """The version of the last committed record (cache-invalidation
        token); a call that changes nothing leaves it alone."""
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
        versions are an ordering token that consumers compare, never
        count.
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
    # Commit: one versioned record per mutation, to every subscriber
    # ------------------------------------------------------------------

    def _precheck(self, entries) -> None:
        """Let every subscriber veto a call's records BEFORE any state
        changes (a store's log refuses what it cannot frame, or everything
        once read-only): raising from :meth:`_commit` would leave the
        graph ahead of its subscribers."""
        for subscriber in self._subscribers:
            precheck = getattr(subscriber, "precheck", None)
            if precheck is not None:
                precheck(entries)

    def _commit(self, entry: Tuple) -> None:
        """Take the next version and hand ``(version, op, *args)`` to every
        subscriber, once the record's change is applied.  One that raises
        (a failed log append) does not keep the rest from the record — the
        snapshot must still patch in an op the graph holds; the first
        error is re-raised after all have run."""
        self._version += 1
        if not self._subscribers:
            return
        record = (self._version,) + entry
        error = None
        for subscriber in self._subscribers:
            try:
                subscriber(record)
            except Exception as exc:  # every subscriber sees the record
                if error is None:
                    error = exc
        if error is not None:
            raise error

    def subscribe(self, subscriber) -> None:
        """Register ``subscriber(record)`` for every committed mutation.

        ``record`` is ``(version, op, *args)``, ``op`` one of ``+v`` /
        ``-v`` / ``+e`` / ``-e`` / ``pv`` / ``pe``, one version each: a
        vertex or edge added with properties commits its ``+`` record,
        then its property record.  An optional ``subscriber.precheck``
        may veto a call's entries first (:meth:`_precheck`).
        """
        self._subscribers += (subscriber,)

    def unsubscribe(self, subscriber) -> None:
        """Remove a previously registered subscriber (no-op if absent)."""
        self._subscribers = tuple(
            known for known in self._subscribers if known != subscriber)

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
        entry = ("pv", vertex, {key: value})
        self._precheck((entry,))
        self._vertices[vertex][key] = value
        self._commit(entry)

    def set_edge_property(self, tail: Hashable, label: Hashable, head: Hashable,
                          key: str, value: Any) -> None:
        """Set one property on an existing edge."""
        e = Edge(tail, label, head)
        if e not in self._edges:
            raise EdgeNotFoundError(e)
        entry = ("pe", tail, label, head, {key: value})
        self._precheck((entry,))
        self._edges[e][key] = value
        self._commit(entry)

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
