"""Pre-flight RPQ query analysis: reject or shrink queries before dispatch.

The paper's path-algebra framing makes query expressions first-class
algebraic objects — which means they can be *analyzed* as objects, before
any kernel runs.  This module implements the three pre-flight passes the
engine performs on every compiled query:

* **Unknown-label detection** — labels the expression mentions that carry
  no edge in the graph can never fire; they are reported as warnings and
  drive the emptiness analysis below.
* **DFA minimisation** (:func:`prune_dfa`) — subset construction can
  emit states that are unreachable from the start state, *dead* (no path
  to an accepting state) or equivalent to another state (same residual
  language).  Moore's algorithm removes all three, preserving the
  language exactly, so the kernels sweep the product with the minimal
  DFA: a closure such as ``(a|b)* c`` walks ``|V| x 2`` configurations
  instead of the subset construction's ``|V| x 4``.
* **Provable emptiness** — a query whose language is empty, or whose
  every accepting run requires a label absent from the graph, provably
  answers the empty set.  ``Engine.pairs`` / ``Engine.query`` /
  ``Engine.pairs_batch`` short-circuit such queries to ∅ with **zero**
  kernel dispatch; the differential and hypothesis suites pin the verdict
  to the ground truth.

Complexity estimates (star height, DFA state count, expression size) ride
along in the diagnostics and feed the planner's direction cost model —
the product space is ``|V| x |Q|``, so the state count scales the frontier
cap (:meth:`repro.engine.planner.Planner.choose_rpq_direction`).

Everything here is pure and cheap — O(states x alphabet) on the DFA, one
walk over the AST — so the engine runs it on every compiled query and
caches the result alongside the DFA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Tuple,
)

from repro.regex.ast import (
    Atom,
    Empty,
    Join,
    Literal,
    Product,
    RegexExpr,
    Repeat,
    Star,
    Union,
)
from repro.rpq.labelregex import (
    LabelConcat,
    LabelDFA,
    LabelExpr,
    LabelStar,
    LabelUnion,
)
from repro.rpq.minimize import minimize

__all__ = [
    "QueryDiagnostics",
    "ExpressionDiagnostics",
    "analyze_compiled_query",
    "analyze_expression",
    "prune_dfa",
    "star_height",
    "label_expression_size",
]


# ----------------------------------------------------------------------
# Expression-shape measures
# ----------------------------------------------------------------------

def star_height(expression: object) -> int:
    """Maximum star-nesting depth of an expression (label- or edge-level).

    Unbounded repeats (``R+``, ``R{n,}``) count as stars — they expand to
    one — while bounded repeats do not add nesting.  Star height is the
    classical driver of RPQ product-space blowup: each star level lets
    the DFA revisit states, so it is surfaced as a complexity estimate in
    the EXPLAIN diagnostics.
    """
    expr = expression
    if isinstance(expr, (LabelStar, Star)):
        return 1 + star_height(expr.inner)
    if isinstance(expr, Repeat):
        inner = star_height(expr.inner)
        return (1 + inner) if expr.maximum is None else inner
    if isinstance(expr, (LabelUnion, LabelConcat)):
        return max(star_height(part) for part in expr.parts)
    if isinstance(expr, RegexExpr):
        children = expr.children()
        if children:
            return max(star_height(child) for child in children)
    return 0


def label_expression_size(expression: LabelExpr) -> int:
    """Node count of a label expression tree (the AST complexity measure)."""
    expr = expression
    if isinstance(expr, (LabelUnion, LabelConcat)):
        return 1 + sum(label_expression_size(part) for part in expr.parts)
    if isinstance(expr, LabelStar):
        return 1 + label_expression_size(expr.inner)
    return 1


# ----------------------------------------------------------------------
# DFA minimisation and reachability
# ----------------------------------------------------------------------

def _reachable(transitions: List[Dict[Hashable, int]], start: int,
               allowed: FrozenSet[Hashable]) -> FrozenSet[int]:
    """States reachable from ``start`` over ``allowed`` labels only."""
    seen = {start}
    stack = [start]
    while stack:
        state = stack.pop()
        for label, target in transitions[state].items():
            if label in allowed and target not in seen:
                seen.add(target)
                stack.append(target)
    return frozenset(seen)


def prune_dfa(dfa: LabelDFA) -> Tuple[LabelDFA, int]:
    """The minimal DFA of ``dfa``'s language, over the labels it uses.

    :func:`repro.rpq.minimize.minimize` drops every state that is
    unreachable from the start or *dead* (cannot reach acceptance) and
    merges states with equal residual languages; the start state is
    numbered 0.  Labels no transition uses cannot separate two states, so
    minimising over the used labels alone gives the same automaton.

    Returns ``(minimal_dfa, removed_state_count)``.  When the language is
    empty the result is the canonical one-state reject-everything DFA.
    """
    minimal = minimize(dfa, {label for row in dfa.transitions
                             for label in row})
    return minimal, dfa.num_states - minimal.num_states


# ----------------------------------------------------------------------
# Diagnostics containers
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class QueryDiagnostics:
    """The pre-flight verdict for one compiled (label-level) query.

    ``empty`` is a *proof*, not a heuristic: when True the query's answer
    is the empty set on the graph whose label alphabet was analyzed, and
    the engine returns ∅ without dispatching a kernel.  ``dfa`` is the
    minimal, language-equivalent automaton the kernels should run when the
    query is satisfiable.
    """

    dfa: LabelDFA
    unknown_labels: FrozenSet[Hashable]
    empty: bool
    empty_reason: Optional[str]
    original_states: int
    pruned_states: int
    star_height: int
    expression_size: int
    warnings: Tuple[str, ...]

    @property
    def state_count(self) -> int:
        """States the minimal automaton actually serves."""
        return self.dfa.num_states

    def describe(self) -> str:
        """The EXPLAIN ``diagnostics:`` section (multi-line, indented)."""
        lines = ["diagnostics:"]
        lines.append("  complexity: star-height {}, expression size {}, "
                     "dfa {} state(s)".format(
                         self.star_height, self.expression_size,
                         self.state_count))
        if self.pruned_states:
            lines.append("  dfa pruning: {} of {} state(s) were dead, "
                         "unreachable or equivalent and were removed".format(
                             self.pruned_states, self.original_states))
        for warning in self.warnings:
            lines.append("  warning: {}".format(warning))
        if self.empty:
            lines.append("  verdict: provably empty — {}; the engine "
                         "short-circuits to the empty result with no "
                         "kernel dispatch".format(self.empty_reason))
        else:
            lines.append("  verdict: satisfiable (no pre-flight "
                         "obstruction found)")
        return "\n".join(lines)


@dataclass(frozen=True)
class ExpressionDiagnostics:
    """Pre-flight verdict for a general edge-set expression.

    The structural analogue of :class:`QueryDiagnostics` for expressions
    that do not lower to a label RPQ (interior vertex bindings, literals,
    products): emptiness is proved by structural recursion — an atom over
    a label or vertex the graph has never seen resolves to ∅, and ∅
    propagates through joins and non-nullable repeats.
    """

    unknown_labels: FrozenSet[Hashable]
    unknown_vertices: FrozenSet[Hashable]
    empty: bool
    empty_reason: Optional[str]
    star_height: int
    expression_size: int
    warnings: Tuple[str, ...]

    def describe(self) -> str:
        """The EXPLAIN ``diagnostics:`` section (multi-line, indented)."""
        lines = ["diagnostics:"]
        lines.append("  complexity: star-height {}, expression size {}"
                     .format(self.star_height, self.expression_size))
        for warning in self.warnings:
            lines.append("  warning: {}".format(warning))
        if self.empty:
            lines.append("  verdict: provably empty — {}; the engine "
                         "short-circuits to the empty result with no "
                         "kernel dispatch".format(self.empty_reason))
        else:
            lines.append("  verdict: satisfiable (no pre-flight "
                         "obstruction found)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Label-level (DFA) analysis — the pairs fast path's pre-flight
# ----------------------------------------------------------------------

def analyze_compiled_query(dfa: LabelDFA, expression: LabelExpr,
                           graph_labels: FrozenSet[Hashable]
                           ) -> QueryDiagnostics:
    """Analyze one compiled label query against a graph's label alphabet.

    ``graph_labels`` must be the set of labels carrying at least one edge
    (exactly what ``MultiRelationalGraph.labels()`` returns) — the
    analysis is valid for any graph with that alphabet, which is why the
    engine caches it under the same ``(expression, alphabet)`` key as the
    DFA itself.

    The emptiness proof is a reachability argument: any non-empty path
    matched in the graph spells a word over ``graph_labels``, so if no
    accepting state is reachable from the start state using only those
    labels — and the start state is not itself accepting (the empty word)
    — no pair can ever be produced.
    """
    mentioned = expression.symbols()
    unknown = frozenset(mentioned - graph_labels)
    minimal, removed = prune_dfa(dfa)
    warnings: List[str] = []
    if unknown:
        warnings.append("label(s) {} never occur in this graph".format(
            ", ".join(sorted(repr(label) for label in unknown))))

    empty = False
    reason: Optional[str] = None
    if not minimal.accepting:
        # Minimisation collapsed everything: no accepting state was
        # reachable at all, so the language itself is empty on every graph.
        empty = True
        reason = "the expression's language is empty"
    else:
        alive = _reachable(minimal.transitions, minimal.start,
                           allowed=graph_labels)
        if not (alive & minimal.accepting):
            empty = True
            reason = ("no accepting state is reachable using labels that "
                      "occur in the graph")
    return QueryDiagnostics(
        dfa=minimal,
        unknown_labels=unknown,
        empty=empty,
        empty_reason=reason,
        original_states=dfa.num_states,
        pruned_states=removed,
        star_height=star_height(expression),
        expression_size=label_expression_size(expression),
        warnings=tuple(warnings))


# ----------------------------------------------------------------------
# Edge-level (structural) analysis — every other expression's pre-flight
# ----------------------------------------------------------------------

def _structurally_empty(expression: RegexExpr, graph: Any) -> Optional[str]:
    """A reason string when ``expression`` provably matches no path in
    ``graph``, else ``None``.

    Sound by construction: atoms naming an absent label or an absent
    bound vertex resolve to ∅; ∅ is absorbing for join and product,
    neutral for union, and survives repeats only when at least one
    repetition is required.  Literals are graph-independent (the paper's
    explicit path sets), so only a literally-empty literal is empty.
    """
    expr = expression
    if isinstance(expr, Empty):
        return "the expression is the empty language {}"
    if isinstance(expr, Atom):
        if expr.label is not None and not graph.has_label(expr.label):
            return "atom {} names label {!r}, which carries no edge".format(
                expr, expr.label)
        if expr.tail is not None and not graph.has_vertex(expr.tail):
            return "atom {} binds tail vertex {!r}, which is not in the " \
                "graph".format(expr, expr.tail)
        if expr.head is not None and not graph.has_vertex(expr.head):
            return "atom {} binds head vertex {!r}, which is not in the " \
                "graph".format(expr, expr.head)
        return None
    if isinstance(expr, Literal):
        if not expr.path_set:
            return "the literal path set is empty"
        return None
    if isinstance(expr, Union):
        reasons = [_structurally_empty(part, graph) for part in expr.parts]
        if all(reason is not None for reason in reasons):
            return "every union branch is empty (first: {})".format(
                reasons[0])
        return None
    if isinstance(expr, (Join, Product)):
        for part in expr.parts:
            reason = _structurally_empty(part, graph)
            if reason is not None:
                return reason
        return None
    if isinstance(expr, Star):
        return None  # stars always contain epsilon
    if isinstance(expr, Repeat):
        if expr.minimum == 0:
            return None
        return _structurally_empty(expr.inner, graph)
    return None


def _expression_labels(expression: RegexExpr) -> FrozenSet[Hashable]:
    """All labels named by the expression's atoms (wildcards excluded)."""
    labels = set()
    for atom in expression.atoms():
        if isinstance(atom, Atom) and atom.label is not None:
            labels.add(atom.label)
        elif isinstance(atom, Literal):
            for path in atom.path_set:
                for edge in path:
                    labels.add(edge.label)
    return frozenset(labels)


def _expression_vertices(expression: RegexExpr) -> FrozenSet[Hashable]:
    """All vertices bound by the expression's atoms."""
    vertices = set()
    for atom in expression.atoms():
        if isinstance(atom, Atom):
            if atom.tail is not None:
                vertices.add(atom.tail)
            if atom.head is not None:
                vertices.add(atom.head)
    return frozenset(vertices)


def analyze_expression(expression: RegexExpr, graph: Any) -> ExpressionDiagnostics:
    """Pre-flight analysis of a general edge-set expression against a graph.

    Used by ``Engine.query`` for every expression (including those that
    also get the sharper DFA analysis through the pairs fast path) and by
    ``Engine.explain`` for the diagnostics section of non-lowerable
    queries.
    """
    mentioned = _expression_labels(expression)
    unknown = frozenset(label for label in mentioned
                        if not graph.has_label(label))
    bound = _expression_vertices(expression)
    missing = frozenset(vertex for vertex in bound
                        if not graph.has_vertex(vertex))
    warnings: List[str] = []
    if unknown:
        warnings.append("label(s) {} never occur in this graph".format(
            ", ".join(sorted(repr(label) for label in unknown))))
    if missing:
        warnings.append("bound vertex(es) {} are not in this graph".format(
            ", ".join(sorted(repr(vertex) for vertex in missing))))
    reason = _structurally_empty(expression, graph)
    return ExpressionDiagnostics(
        unknown_labels=unknown,
        unknown_vertices=missing,
        empty=reason is not None,
        empty_reason=reason,
        star_height=star_height(expression),
        expression_size=expression.size(),
        warnings=tuple(warnings))
