"""Label-level RPQ evaluation: product construction and regular simple paths.

Mendelzon & Wood's problem (the paper's [8]): given vertices x, y and a
regular expression R over the *labels*, find paths from x to y whose path
label is in L(R).

* :func:`rpq_pairs` — all (source, target) pairs connected by some R-path
  (the standard RPQ answer; polynomial via DFA x graph product reachability),
* :func:`rpq_paths` — the witness paths themselves, bounded by length,
* :func:`regular_simple_paths` — the [8] variant that demands *simple*
  witness paths (no repeated vertex).  NP-hard in general, so implemented
  as a correct exponential backtracking search; fine at laptop scale and a
  deliberate contrast with the unrestricted case.

Comparison with the main algebra: a label expression lifts into an edge-set
expression by mapping each symbol ``a`` to the atom ``[_, a, _]``
(:func:`lift_to_edge_expression`), and the tests verify the two formulations
agree on path labels — which is exactly the paper's remark that its regex is
"defined for E" where [8]'s is "defined for Omega".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import FrozenSet, Hashable, Optional, Set, Tuple

from repro.core.path import EPSILON, Path
from repro.core.pathset import PathSet
from repro.graph.compact import (
    Guard,
    rpq_pairs_backward,
    rpq_pairs_bidirectional,
    rpq_pairs_compact,
)
from repro.graph.graph import MultiRelationalGraph
from repro.graph.pairs import PairBlocks
from repro.rpq.labelregex import (
    LabelConcat,
    LabelDFA,
    LabelEmpty,
    LabelEpsilon,
    LabelExpr,
    LabelStar,
    LabelSymbol,
    LabelUnion,
    build_label_nfa,
    determinize,
    lconcat,
)

__all__ = [
    "compile_rpq",
    "rpq_pairs",
    "rpq_pairs_basic",
    "rpq_pairs_to_targets",
    "rpq_pairs_between",
    "rpq_paths",
    "regular_simple_paths",
    "lift_to_edge_expression",
    "lower_to_label_expression",
    "ConstrainedQuery",
    "lower_to_constrained_query",
]


def compile_rpq(expression: LabelExpr, graph: MultiRelationalGraph) -> LabelDFA:
    """Compile a label expression to a DFA over the graph's label alphabet.

    Symbols outside the graph's alphabet are kept (they simply never fire),
    so expressions are portable across graphs.
    """
    alphabet = set(graph.labels()) | set(expression.symbols())
    return determinize(build_label_nfa(expression), alphabet)


def _kernel_dfa(expression: LabelExpr,
                graph: MultiRelationalGraph) -> LabelDFA:
    """The minimal DFA the compact kernels run: the automaton
    ``Engine.preflight`` hands them (:func:`repro.analysis.query.prune_dfa`),
    while :func:`rpq_pairs_basic` keeps the raw subset construction."""
    from repro.analysis.query import prune_dfa  # it imports this package
    return prune_dfa(compile_rpq(expression, graph))[0]


def rpq_pairs(graph: MultiRelationalGraph, expression: LabelExpr,
              sources: Optional[FrozenSet[Hashable]] = None,
              targets: Optional[FrozenSet[Hashable]] = None
              ) -> PairBlocks:
    """All ``(x, y)`` with some x->y path whose label word is in L(R).

    BFS over the (vertex, dfa-state) product graph — polynomial, the
    classical RPQ algorithm.  ``sources=None`` means all vertices;
    ``targets`` restricts the emitted pairs by target vertex.

    The traversal runs on the compact integer-indexed adjacency snapshot
    (:mod:`repro.graph.compact`): the minimal DFA is built once and every
    source shares the same snapshot and per-(state, label) CSR transition
    table.
    A few sources each run their own BFS over one stamped visited array;
    many sources share one walk per batch, carried through the product as
    bitmasks, so a configuration several of them reach is expanded once —
    the paper's set-at-a-time join.  Under mutation the snapshot is maintained
    incrementally — each committed record patches a delta overlay the
    kernel consults alongside the base CSR, so point updates between
    queries cost O(delta), not an O(V + E) rebuild.  ``graph`` may also be
    a lazy store or a replica: their live view is the snapshot.
    :func:`rpq_pairs_basic` keeps the direct per-source product BFS as the
    reference implementation; :func:`rpq_pairs_to_targets` and
    :func:`rpq_pairs_between` are the backward and bidirectional variants
    (identical answers, different cost shapes — the engine's direction
    model picks among the three).
    """
    return rpq_pairs_compact(graph, _kernel_dfa(expression, graph), sources,
                             targets=targets)


def rpq_pairs_to_targets(graph: MultiRelationalGraph, expression: LabelExpr,
                         targets: Optional[FrozenSet[Hashable]] = None,
                         sources: Optional[FrozenSet[Hashable]] = None
                         ) -> PairBlocks:
    """:func:`rpq_pairs`, evaluated backward from the target side.

    The same product BFS over the reverse CSR with the DFA reversed —
    cost bounded by the targets' in-cones instead of the sources'
    out-cones, so it wins when targets are the selective end (``R ·
    [_, a, j]``-style suffix-bound queries).  Answers are identical to the
    forward kernel's by construction; the differential suite enforces it.
    """
    return rpq_pairs_backward(graph, _kernel_dfa(expression, graph), targets,
                              sources=sources)


def rpq_pairs_between(graph: MultiRelationalGraph, expression: LabelExpr,
                      sources: FrozenSet[Hashable],
                      targets: FrozenSet[Hashable]
                      ) -> PairBlocks:
    """:func:`rpq_pairs` between explicit endpoint sets, meet-in-the-middle.

    Runs the forward and backward product searches simultaneously,
    expanding whichever frontier is smaller and joining on (vertex, state)
    meets — the point-to-point fast path
    (:func:`repro.graph.compact.rpq_pairs_bidirectional`).
    """
    return rpq_pairs_bidirectional(graph, _kernel_dfa(expression, graph),
                                   sources, targets)


def rpq_pairs_basic(graph: MultiRelationalGraph, expression: LabelExpr,
                    sources: Optional[FrozenSet[Hashable]] = None
                    ) -> FrozenSet[Tuple[Hashable, Hashable]]:
    """Reference implementation of :func:`rpq_pairs` (per-source product BFS).

    Kept verbatim as the oracle of the equivalence tests
    (``tests/test_rpq_directional.py``, ``test_sharding.py``,
    ``test_chaos.py``): it resolves adjacency through the hash indices
    (one frozenset per ``match`` pattern) instead of the compact snapshot.
    """
    dfa = compile_rpq(expression, graph)
    start_vertices = graph.vertices() if sources is None else sources
    answers: Set[Tuple[Hashable, Hashable]] = set()
    for source in start_vertices:
        if not graph.has_vertex(source):
            continue
        seen = {(source, dfa.start)}
        queue = deque(seen)
        if dfa.start in dfa.accepting:
            answers.add((source, source))
        while queue:
            vertex, state = queue.popleft()
            for e in graph.match(tail=vertex):
                next_state = dfa.step(state, e.label)
                if next_state is None:
                    continue
                config = (e.head, next_state)
                if config in seen:
                    continue
                seen.add(config)
                if next_state in dfa.accepting:
                    answers.add((source, e.head))
                queue.append(config)
    return frozenset(answers)


def rpq_paths(graph: MultiRelationalGraph, expression: LabelExpr,
              max_length: int,
              sources: Optional[FrozenSet[Hashable]] = None) -> PathSet:
    """Witness paths (length-bounded) whose label word is in L(R).

    Product BFS like :func:`rpq_pairs` but materializing paths; bounded by
    ``max_length`` because stars over cycles are infinite.

    No dedup set is kept: every queued configuration ``(vertex, state, path)``
    is uniquely determined by its path (the vertex is the path's head, and
    the DFA being deterministic fixes the state as the run over the path's
    label word), and each path is generated exactly once — its parent
    configuration is unique and dequeued once, and source vertices are
    deduplicated up front.  The seed implementation stored the full
    :class:`Path` inside every entry of a ``seen`` set "guarding" against
    revisits that cannot happen, which made memory O(paths x length) twice
    over; the regression test pins the fixed behaviour.
    """
    dfa = compile_rpq(expression, graph)
    start_vertices = frozenset(graph.vertices() if sources is None else sources)
    out: Set[Path] = set()
    queue: deque = deque()
    for source in start_vertices:
        if not graph.has_vertex(source):
            continue
        queue.append((source, dfa.start, EPSILON))
        if dfa.start in dfa.accepting:
            out.add(EPSILON)
    while queue:
        vertex, state, path = queue.popleft()
        if len(path) >= max_length:
            continue
        for e in graph.match(tail=vertex):
            next_state = dfa.step(state, e.label)
            if next_state is None:
                continue
            grown = path.concat(Path((e,)))
            if next_state in dfa.accepting:
                out.add(grown)
            queue.append((e.head, next_state, grown))
    return PathSet(out)


def regular_simple_paths(graph: MultiRelationalGraph, expression: LabelExpr,
                         source: Hashable, target: Hashable,
                         max_length: Optional[int] = None) -> PathSet:
    """Mendelzon & Wood's problem: *simple* x->y paths with label in L(R).

    Backtracking over the (vertex, dfa-state) product with a visited-vertex
    set — correct but worst-case exponential (the problem is NP-hard; [8]'s
    contribution was identifying tractable sub-cases).  ``max_length``
    defaults to ``|V| - 1``, the longest any simple path can be.
    """
    if not graph.has_vertex(source) or not graph.has_vertex(target):
        return PathSet.empty()
    dfa = compile_rpq(expression, graph)
    bound = max_length if max_length is not None else graph.order() - 1
    results: Set[Path] = set()

    def backtrack(vertex: Hashable, state: int, path: Path,
                  visited: Set[Hashable]) -> None:
        if vertex == target and state in dfa.accepting:
            results.add(path)
        if len(path) >= bound:
            return
        for e in graph.match(tail=vertex):
            if e.head in visited:
                continue
            next_state = dfa.step(state, e.label)
            if next_state is None:
                continue
            visited.add(e.head)
            backtrack(e.head, next_state, path.concat(Path((e,))), visited)
            visited.discard(e.head)

    backtrack(source, dfa.start, EPSILON, {source})
    return PathSet(results)


def lift_to_edge_expression(expression: LabelExpr):
    """Translate a label expression into the paper's edge-set formulation.

    Each symbol ``a`` becomes the atom ``[_, a, _]``; concatenation becomes
    the concatenative join (adjacency is exactly what makes a label word
    correspond to a joint path).  The resulting edge expression generates
    precisely the joint paths whose ``omega'`` word is in the label
    language — the bridge between [8]'s formulation and the paper's.
    """
    from repro.regex import EMPTY as EDGE_EMPTY
    from repro.regex import EPSILON as EDGE_EPSILON
    from repro.regex import atom, join, star, union

    expr = expression
    if isinstance(expr, LabelEmpty):
        return EDGE_EMPTY
    if isinstance(expr, LabelEpsilon):
        return EDGE_EPSILON
    if isinstance(expr, LabelSymbol):
        symbol = expr.label
        if type(symbol) is Guard:
            return atom(symbol.tail, symbol.label, symbol.head)
        return atom(label=symbol)
    if isinstance(expr, LabelUnion):
        return union(*(lift_to_edge_expression(p) for p in expr.parts))
    if isinstance(expr, LabelConcat):
        return join(*(lift_to_edge_expression(p) for p in expr.parts))
    if isinstance(expr, LabelStar):
        return star(lift_to_edge_expression(expr.inner))
    raise TypeError("unknown label expression {!r}".format(expr))


#: Bounded-repeat expansion limit for :func:`lower_to_label_expression` —
#: beyond this the expanded concatenation stops being cheaper than the
#: generic evaluator.
_MAX_REPEAT_EXPANSION = 16


def _atom_symbols(atom, alphabet: Optional[FrozenSet[Hashable]]
                  ) -> Optional[LabelExpr]:
    """``atom`` as DFA symbols: its label, or a :class:`Guard` when it
    binds a vertex; for the wildcard ``_`` the union of one per label of
    ``alphabet`` (``None`` without one; nothing for an empty one)."""
    bound = atom.tail is not None or atom.head is not None

    def symbol(label: Hashable) -> LabelSymbol:
        return LabelSymbol(Guard(label, atom.tail, atom.head) if bound
                           else label)

    if atom.label is not None:
        return symbol(atom.label)
    if alphabet is None:
        return None
    labels = sorted(alphabet, key=repr)  # one expression per alphabet
    return LabelUnion(map(symbol, labels)) if labels else LabelEmpty()


def lower_to_label_expression(expression,
                              alphabet: Optional[FrozenSet[Hashable]] = None
                              ) -> Optional[LabelExpr]:
    """The partial inverse of :func:`lift_to_edge_expression`.

    Translate an edge-set expression built from atoms by union, join,
    star or a small bounded repeat into the label formulation: ``[_, a,
    _]`` becomes the symbol ``a``, an atom binding its tail and/or head
    the guarded symbol ``Guard(a, i, j)``, which fires only on a matching
    edge.  A join's label word spells its joint path edge by edge, so
    endpoint-pair answers coincide with the label RPQ's and the compact
    kernels answer them (the engine's ``pairs`` fast path).  Given the
    graph's label ``alphabet``, a wildcard label ``_`` lowers to the union
    of its labels; without one it does not.

    Returns ``None`` for what genuinely needs the edge-set algebra:
    literal path sets, concatenative products (they admit disjoint,
    non-path concatenations) and oversized repeats.
    """
    from repro.regex.ast import (
        Atom,
        Empty,
        Epsilon,
        Join,
        Repeat,
        Star,
        Union,
    )

    expr = expression
    if isinstance(expr, Empty):
        return LabelEmpty()
    if isinstance(expr, Epsilon):
        return LabelEpsilon()
    if isinstance(expr, Atom):
        return _atom_symbols(expr, alphabet)
    if isinstance(expr, (Union, Join)):
        parts = [lower_to_label_expression(p, alphabet) for p in expr.parts]
        if any(p is None for p in parts):
            return None
        return LabelUnion(parts) if isinstance(expr, Union) \
            else LabelConcat(parts)
    if isinstance(expr, Star):
        inner = lower_to_label_expression(expr.inner, alphabet)
        return None if inner is None else LabelStar(inner)
    if isinstance(expr, Repeat) and max(
            expr.minimum, expr.maximum or 0) <= _MAX_REPEAT_EXPANSION:
        inner = lower_to_label_expression(expr.inner, alphabet)
        if inner is None:
            return None
        return lconcat(*[inner] * expr.minimum, *(
            [LabelStar(inner)] if expr.maximum is None
            else [LabelUnion((inner, LabelEpsilon()))]
            * (expr.maximum - expr.minimum)))
    return None


@dataclass(frozen=True)
class ConstrainedQuery:
    """A lowered edge expression: the label RPQ, over labels and
    :class:`Guard` symbols, that the kernels run."""

    label_expression: LabelExpr

    @property
    def guards(self) -> Tuple[Guard, ...]:
        """The vertex-bound atoms riding the DFA, in a stable order."""
        return tuple(sorted((symbol for symbol
                             in self.label_expression.symbols()
                             if type(symbol) is Guard), key=repr))

    @property
    def label_only(self) -> bool:
        """True when no atom binds a vertex (plain label RPQ)."""
        return not self.guards

    def describe(self, pinned: Tuple[Optional[Hashable],
                                     Optional[Hashable]] = (None, None)
                 ) -> str:
        """One phrase for EXPLAIN: the guards, and which bindings became
        the seed or target set (``pinned``, the pre-flight's)."""
        guards = self.guards
        if not guards:
            return "label-only expression"
        source, target = pinned
        ends = []
        if source is not None:
            ends.append("source={!r} is the seed set".format(source))
        if target is not None:
            ends.append("target={!r} the target set".format(target))
        return "vertex bindings ride the DFA as guards {}; {}".format(
            ", ".join(map(str, guards)),
            ", ".join(ends) if ends else "none pins a path end")


def lower_to_constrained_query(expression,
                               alphabet: Optional[FrozenSet[Hashable]] = None
                               ) -> Optional[ConstrainedQuery]:
    """:func:`lower_to_label_expression` as a :class:`ConstrainedQuery`,
    or ``None`` for the shapes that stay on the bounded strategy."""
    lowered = lower_to_label_expression(expression, alphabet)
    return None if lowered is None else ConstrainedQuery(lowered)
