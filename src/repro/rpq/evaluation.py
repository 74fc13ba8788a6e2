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

import functools
from collections import deque
from dataclasses import dataclass
from typing import FrozenSet, Hashable, Optional, Set, Tuple

from repro.core.path import EPSILON, Path
from repro.core.pathset import PathSet
from repro.errors import ExecutionError, QueryTooLargeError, RegexError
from repro.graph.compact import (
    ENTER,
    LEAVE,
    Guard,
    Jump,
    Pinned,
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
    lunion,
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


def _reference_dfa(expression: LabelExpr,
                   graph: MultiRelationalGraph) -> LabelDFA:
    """:func:`compile_rpq` for the references, which step the DFA edge by
    edge (:meth:`LabelDFA.moves`) and so refuse a symbol reading none."""
    for symbol in expression.symbols():
        if type(symbol) in (Pinned, Jump):
            raise ExecutionError("the edge-by-edge references cannot "
                                 "evaluate the symbol {}".format(symbol))
    return compile_rpq(expression, graph)


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
    dfa = _reference_dfa(expression, graph)
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
                for next_state in dfa.moves(state, e):
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

    No dedup set is kept: a queued configuration ``(vertex, state, path)``
    is one of the few its path determines (the vertex is its head, the
    states the DFA's runs over its edges), so storing paths in a ``seen``
    set would only cost memory; the regression test pins that.
    """
    dfa = _reference_dfa(expression, graph)
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
            grown = path.concat(Path((e,)))
            for next_state in dfa.moves(state, e):
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
    dfa = _reference_dfa(expression, graph)
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
            visited.add(e.head)
            for next_state in dfa.moves(state, e):
                backtrack(e.head, next_state, path.concat(Path((e,))),
                          visited)
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


#: The most nodes one lowered repeat may have and the most states a
#: ``max_length`` automaton may have: past it a read raises
#: :class:`~repro.errors.QueryTooLargeError` before building either.
SIZE_BOUND = 1024


def _atom_symbols(atom, alphabet: Optional[FrozenSet[Hashable]]
                  ) -> LabelExpr:
    """``atom`` as DFA symbols: its label, or a :class:`Guard` when it
    binds a vertex; for the wildcard ``_`` the union of one per label of
    ``alphabet`` (nothing for an empty one)."""
    bound = atom.tail is not None or atom.head is not None

    def symbol(label: Hashable) -> LabelSymbol:
        return LabelSymbol(Guard(label, atom.tail, atom.head) if bound
                           else label)

    if atom.label is not None:
        return symbol(atom.label)
    if alphabet is None:
        raise ExecutionError("the wildcard label of {} lowers to the "
                             "graph's label alphabet; none was given"
                             .format(atom))
    labels = sorted(alphabet, key=repr)  # one expression per alphabet
    return LabelUnion(map(symbol, labels)) if labels else LabelEmpty()


def _split_epsilon(expr: LabelExpr) -> Tuple[LabelExpr, bool]:
    """``(expr without the empty word, whether expr matched it)``."""
    if isinstance(expr, LabelEpsilon):
        return LabelEmpty(), True
    if isinstance(expr, LabelStar):
        return lconcat(_split_epsilon(expr.inner)[0], expr), True
    if isinstance(expr, LabelUnion):
        split = [_split_epsilon(part) for part in expr.parts]
        return (LabelUnion(part for part, _ in split),
                any(nullable for _, nullable in split))
    if isinstance(expr, LabelConcat):
        first, nullable = _split_epsilon(expr.parts[0])
        if len(expr.parts) == 1:
            return first, nullable
        rest = lconcat(*expr.parts[1:])
        rest_plus, rest_nullable = _split_epsilon(rest)
        plus = LabelConcat((first, rest))
        return (LabelUnion((plus, rest_plus)) if nullable else plus,
                nullable and rest_nullable)
    return expr, False


def _product(left: LabelExpr, right: LabelExpr) -> LabelExpr:
    """``left & right``: the non-empty halves glued by a jump, plus
    ``right`` when ``left`` matches the empty path and ``left`` when
    ``right`` does (the empty path is the product's identity)."""
    (left_plus, left_nullable), (right_plus, right_nullable) = map(
        _split_epsilon, (left, right))
    return lunion(lconcat(left_plus, LabelSymbol(LEAVE), LabelSymbol(ENTER),
                          right_plus),
                  *([right] if left_nullable else []),
                  *([left] if right_nullable else []))


def lower_to_label_expression(expression,
                              alphabet: Optional[FrozenSet[Hashable]] = None
                              ) -> LabelExpr:
    """Lower an edge-set expression to the label RPQ the kernels run.

    The inverse of :func:`lift_to_edge_expression`, total: ``[_, a, _]``
    becomes the symbol ``a``, an atom binding a vertex ``Guard(a, i, j)``,
    a literal path a :class:`Pinned` move, ``R & Q`` :func:`_product`'s
    jump, a repeat its expansion.  A wildcard label ``_`` lowers to the
    union of ``alphabet``'s labels; without one it raises
    :class:`~repro.errors.ExecutionError`, as does a repeat past
    :data:`SIZE_BOUND` nodes (:class:`~repro.errors.QueryTooLargeError`,
    before the expansion is built).
    """
    from repro.analysis.query import label_expression_size
    from repro.regex import ast

    expr = expression
    if isinstance(expr, ast.Empty):
        return LabelEmpty()
    if isinstance(expr, ast.Epsilon):
        return LabelEpsilon()
    if isinstance(expr, ast.Atom):
        return _atom_symbols(expr, alphabet)
    if isinstance(expr, ast.Literal):
        return lunion(*(LabelSymbol(Pinned(path.tail, path.head, len(path)))
                        if path else LabelEpsilon()
                        for path in sorted(expr.path_set, key=repr)))
    parts = [lower_to_label_expression(part, alphabet)
             for part in expr.children()]
    if isinstance(expr, ast.Union):
        return LabelUnion(parts)
    if isinstance(expr, ast.Join):
        return LabelConcat(parts)
    if isinstance(expr, ast.Product):
        return functools.reduce(_product, parts)
    if isinstance(expr, ast.Star):
        return LabelStar(parts[0])
    if isinstance(expr, ast.Repeat):
        inner = parts[0]
        copies = max(expr.minimum, expr.maximum or 0) \
            + (expr.maximum is None)
        if copies * label_expression_size(inner) > SIZE_BOUND:
            raise QueryTooLargeError(
                "{} expands to {} copies of a {}-node expression, past the "
                "{}-node bound".format(expr, copies,
                                       label_expression_size(inner),
                                       SIZE_BOUND))
        return lconcat(*[inner] * expr.minimum, *(
            [LabelStar(inner)] if expr.maximum is None
            else [LabelUnion((inner, LabelEpsilon()))]
            * (expr.maximum - expr.minimum)))
    raise RegexError("cannot lower {!r}".format(expr))


@dataclass(frozen=True)
class ConstrainedQuery:
    """A lowered edge expression: the label RPQ, over labels,
    :class:`Guard`, :class:`Pinned` and :class:`Jump` symbols, that the
    kernels run."""

    label_expression: LabelExpr

    @property
    def guards(self) -> Tuple[Guard, ...]:
        """The vertex-bound atoms riding the DFA, in a stable order."""
        return tuple(sorted((symbol for symbol
                             in self.label_expression.symbols()
                             if type(symbol) is Guard), key=repr))

    def describe(self, pinned: Tuple[Optional[Hashable],
                                     Optional[Hashable]] = (None, None)
                 ) -> str:
        """One phrase for EXPLAIN: the guards and which bindings became
        the seed or target set (``pinned``, the pre-flight's), the
        literal moves, and whether a product's jump rides along."""
        symbols = self.label_expression.symbols()
        notes = []
        if self.guards:
            ends = ["{}={!r} {}".format(end, vertex, role) for end, vertex, role
                    in zip(("source", "target"), pinned,
                           ("is the seed set", "the target set"))
                    if vertex is not None]
            notes.append("vertex bindings ride the DFA as guards {}; {}"
                         .format(", ".join(map(str, self.guards)),
                                 ", ".join(ends) or "none pins a path end"))
        literals = sorted(str(symbol) for symbol in symbols
                          if type(symbol) is Pinned)
        if literals:
            notes.append("literal paths ride it as pinned moves " +
                         ", ".join(literals))
        if LEAVE in symbols:
            notes.append("a product's jump passes one hub per kernel call")
        return "; ".join(notes) or "label-only expression"


def lower_to_constrained_query(expression,
                               alphabet: Optional[FrozenSet[Hashable]] = None
                               ) -> ConstrainedQuery:
    """:func:`lower_to_label_expression` as a :class:`ConstrainedQuery`."""
    return ConstrainedQuery(lower_to_label_expression(expression, alphabet))
