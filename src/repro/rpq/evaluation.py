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
from typing import FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.core.path import EPSILON, Path
from repro.core.pathset import PathSet
from repro.graph.compact import (
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
        return atom(label=expr.label)
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


def _atom_label(atom, alphabet: Optional[FrozenSet[Hashable]]
                ) -> Optional[LabelExpr]:
    """``atom``'s label, or for the wildcard ``_`` the union of
    ``alphabet`` (``None`` without one; nothing for an empty one)."""
    if atom.label is not None:
        return LabelSymbol(atom.label)
    if alphabet is None:
        return None
    labels = sorted(alphabet, key=repr)  # one expression per alphabet
    return LabelUnion(map(LabelSymbol, labels)) if labels else LabelEmpty()


def lower_to_label_expression(expression,
                              alphabet: Optional[FrozenSet[Hashable]] = None
                              ) -> Optional[LabelExpr]:
    """The partial inverse of :func:`lift_to_edge_expression`.

    Translate an edge-set expression into the label formulation when — and
    only when — it is *label-only*: every atom is of the shape ``[_, a, _]``,
    combined by union, join, star or bounded repeat.  Such expressions
    constrain nothing but the label word, so their endpoint-pair semantics
    coincide with the label RPQ and :func:`rpq_pairs` can answer them with
    the compact frontier kernel (the engine's ``pairs`` fast path).  Given
    the graph's label ``alphabet``, a wildcard label ``[_, _, _]`` lowers
    too, to the union of its labels; without one it does not.

    Returns ``None`` for anything that genuinely needs the edge-set algebra:
    atoms binding a tail or head vertex, literal path sets, concatenative
    products (they admit disjoint, non-path concatenations), and oversized
    repeats.
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
        if expr.tail is None and expr.head is None:
            return _atom_label(expr, alphabet)
        return None
    if isinstance(expr, Union):
        parts = [lower_to_label_expression(p, alphabet) for p in expr.parts]
        if any(p is None for p in parts):
            return None
        return LabelUnion(parts)
    if isinstance(expr, Join):
        parts = [lower_to_label_expression(p, alphabet) for p in expr.parts]
        if any(p is None for p in parts):
            return None
        return LabelConcat(parts)
    if isinstance(expr, Star):
        inner = lower_to_label_expression(expr.inner, alphabet)
        return None if inner is None else LabelStar(inner)
    if isinstance(expr, Repeat):
        inner = lower_to_label_expression(expr.inner, alphabet)
        if inner is None or expr.minimum > _MAX_REPEAT_EXPANSION:
            return None
        required = [inner] * expr.minimum
        if expr.maximum is None:
            return LabelConcat(required + [LabelStar(inner)]) if required \
                else LabelStar(inner)
        if expr.maximum > _MAX_REPEAT_EXPANSION:
            return None
        optional = [LabelUnion((inner, LabelEpsilon()))] * (expr.maximum - expr.minimum)
        parts = required + optional
        if not parts:
            return LabelEpsilon()
        if len(parts) == 1:
            return parts[0]
        return LabelConcat(parts)
    return None


@dataclass(frozen=True)
class ConstrainedQuery:
    """A label RPQ plus optional bound endpoint vertices.

    The lowered form of an edge expression whose only vertex bindings sit
    at the path's ends: ``label_expression`` constrains the label word,
    ``source``/``target`` (``None`` = unbound) pin the path's first/last
    vertex.  Evaluable by the compact kernels as a source/target-
    constrained reachability query — no witness-path materialization.
    """

    label_expression: LabelExpr
    source: Optional[Hashable] = None
    target: Optional[Hashable] = None

    @property
    def label_only(self) -> bool:
        """True when no endpoint is bound (plain label RPQ)."""
        return self.source is None and self.target is None

    def merge_filters(
            self, sources: Optional[FrozenSet[Hashable]],
            targets: Optional[FrozenSet[Hashable]]
    ) -> Optional[Tuple[Optional[frozenset], Optional[frozenset]]]:
        """Merge caller endpoint filters with the bound vertices.

        Returns ``(sources, targets)`` as Optional[frozenset]s, or ``None``
        when a bound vertex is excluded by the corresponding filter (the
        result is provably empty).
        """
        if self.source is not None:
            if sources is not None and self.source not in frozenset(sources):
                return None
            sources = frozenset((self.source,))
        elif sources is not None:
            sources = frozenset(sources)
        if self.target is not None:
            if targets is not None and self.target not in frozenset(targets):
                return None
            targets = frozenset((self.target,))
        elif targets is not None:
            targets = frozenset(targets)
        return sources, targets

    def describe(self) -> str:
        """One-phrase summary for EXPLAIN output."""
        if self.label_only:
            return "label-only expression"
        bounds = []
        if self.source is not None:
            bounds.append("source={!r}".format(self.source))
        if self.target is not None:
            bounds.append("target={!r}".format(self.target))
        return "vertex-bound lowering ({})".format(", ".join(bounds))


def lower_to_constrained_query(expression,
                               alphabet: Optional[FrozenSet[Hashable]] = None
                               ) -> Optional[ConstrainedQuery]:
    """Lower an edge expression to a :class:`ConstrainedQuery` when possible.

    Extends :func:`lower_to_label_expression` to vertex-bound *ends*: a
    join whose first atom binds its tail (``[i, a, _] · R``), whose last
    atom binds its head (``R · [_, a, j]``), or both, lowers to the label
    concatenation with the bound vertices recorded as source/target
    constraints — the paper's joint-path semantics make the prefix atom's
    tail the path's first vertex and the suffix atom's head its last, so
    endpoint-pair answers coincide with the constrained label RPQ.  A lone
    atom may bind either or both of its endpoints (``[i, a, j]`` is the
    single-edge point query).  ``alphabet`` is as for
    :func:`lower_to_label_expression`.

    Returns ``None`` when the expression binds an *interior* vertex
    (including ``[i, a, j]`` used as a join prefix — its head pins the
    second vertex), has a wildcard label and no alphabet, or otherwise
    needs the full edge-set algebra (literals, products, unions over bound
    atoms): those still route through the bounded ``automaton`` strategy.
    """
    from repro.regex.ast import Atom, Join

    label_only = lower_to_label_expression(expression, alphabet)
    if label_only is not None:
        return ConstrainedQuery(label_only)
    expr = expression
    if isinstance(expr, Atom):
        # A label or an alphabet here means a bound tail or head, or the
        # label-only lowering above would have taken the expression.
        label = _atom_label(expr, alphabet)
        return None if label is None \
            else ConstrainedQuery(label, expr.tail, expr.head)
    if not isinstance(expr, Join):
        return None
    parts = expr.parts
    last = len(parts) - 1
    source: Optional[Hashable] = None
    target: Optional[Hashable] = None
    lowered: List[LabelExpr] = []
    for index, part in enumerate(parts):
        lowered_part = lower_to_label_expression(part, alphabet)
        if lowered_part is not None:
            lowered.append(lowered_part)
            continue
        label = _atom_label(part, alphabet) \
            if isinstance(part, Atom) else None
        if label is not None:
            if index == 0 and part.tail is not None and part.head is None:
                source = part.tail
                lowered.append(label)
                continue
            if index == last and part.head is not None and part.tail is None:
                target = part.head
                lowered.append(label)
                continue
        return None
    if source is None and target is None:  # pragma: no cover - label-only
        return None                        # joins already lowered above
    return ConstrainedQuery(LabelConcat(lowered), source, target)
