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
  to the ground truth.  The memoised pass judges a
  :class:`~repro.graph.compact.Guard` by its label; each read then checks
  its bound vertices against the graph (:func:`absent_bindings`).

Complexity estimates (star height, DFA state count, expression size) ride
along in the diagnostics and feed the planner's direction cost model —
the product space is ``|V| x |Q|``, so the state count scales the frontier
cap (:meth:`repro.engine.planner.Planner.choose_rpq_direction`).

Everything here is pure and cheap — O(states x alphabet) on the DFA, one
walk over the AST — so the engine runs it on every compiled query and
caches the result alongside the DFA.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Tuple,
)

from repro.errors import ExecutionError, QueryTooLargeError
from repro.graph.compact import Guard, symbol_label, symbol_length
from repro.rpq.labelregex import (
    LabelConcat,
    LabelDFA,
    LabelExpr,
    LabelStar,
    LabelUnion,
)
from repro.rpq.evaluation import SIZE_BOUND
from repro.rpq.minimize import minimize

__all__ = [
    "QueryDiagnostics",
    "analyze_compiled_query",
    "prune_dfa",
    "bound_dfa",
    "pinned_ends",
    "absent_bindings",
    "star_height",
    "label_expression_size",
]


# ----------------------------------------------------------------------
# Expression-shape measures
# ----------------------------------------------------------------------

def star_height(expression: LabelExpr) -> int:
    """Maximum star-nesting depth of a label expression.

    Star height is the classical driver of RPQ product-space blowup: each
    star level lets the DFA revisit states, so it is surfaced as a
    complexity estimate in the EXPLAIN diagnostics.
    """
    expr = expression
    if isinstance(expr, LabelStar):
        return 1 + star_height(expr.inner)
    if isinstance(expr, (LabelUnion, LabelConcat)):
        return max(star_height(part) for part in expr.parts)
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
    """States reachable from ``start`` over ``allowed`` labels, literals
    and jumps (which read no label) only."""
    seen = {start}
    stack = [start]
    while stack:
        state = stack.pop()
        for symbol, target in transitions[state].items():
            label = symbol_label(symbol)
            if (label is None or label in allowed) and target not in seen:
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


def bound_dfa(dfa: LabelDFA, max_length: int) -> LabelDFA:
    """``dfa`` cut to L(R) ∩ Σ^{≤k}: the words consuming at most
    ``max_length`` edges (:func:`~repro.graph.compact.symbol_length` each),
    over the reachable states ``(q, edges so far)`` — exact in every
    kernel direction, each counter value being its own state.  Past
    :data:`~repro.rpq.evaluation.SIZE_BOUND` states it raises
    :class:`~repro.errors.QueryTooLargeError` before building more."""
    if max_length < 0:
        raise ExecutionError("max_length must be >= 0")
    index = {(dfa.start, 0): 0}
    order = [(dfa.start, 0)]
    transitions: List[Dict[Hashable, int]] = []
    for state, spent in order:  # grows while it is walked
        row: Dict[Hashable, int] = {}
        transitions.append(row)
        for symbol, target in dfa.transitions[state].items():
            key = (target, spent + symbol_length(symbol))
            if key[1] > max_length:
                continue
            if key not in index:
                if len(order) == SIZE_BOUND:
                    raise QueryTooLargeError(
                        "max_length={} needs more than {} automaton states"
                        .format(max_length, SIZE_BOUND))
                index[key] = len(order)
                order.append(key)
            row[symbol] = index[key]
    return LabelDFA(0, frozenset(number for number, (state, _)
                                 in enumerate(order)
                                 if state in dfa.accepting), transitions)


def pinned_ends(dfa: LabelDFA) -> Tuple[Optional[Hashable],
                                        Optional[Hashable]]:
    """``(source, target)``: the vertex every run the DFA accepts starts
    (ends) at, when each move out of the non-accepting start state (into
    an accepting state) is a :class:`~repro.graph.compact.Guard` binding
    that tail (head); else ``None``."""
    if dfa.start in dfa.accepting:
        return None, None

    def common(symbols, end: str) -> Optional[Hashable]:
        vertices = {getattr(symbol, end) if type(symbol) is Guard else None
                    for symbol in symbols}
        return vertices.pop() if len(vertices) == 1 else None

    return (common(dfa.transitions[dfa.start], "tail"),
            common([symbol for row in dfa.transitions
                    for symbol, target in row.items()
                    if target in dfa.accepting], "head"))


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
    query is satisfiable, ``pinned`` its :func:`pinned_ends`.
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
    pinned: Tuple[Optional[Hashable], Optional[Hashable]] = (None, None)
    bindings: FrozenSet[Hashable] = frozenset()

    @property
    def state_count(self) -> int:
        """States the minimal automaton actually serves."""
        return self.dfa.num_states

    def describe(self) -> str:
        """The EXPLAIN ``diagnostics:`` section (multi-line, indented)."""
        lines = ["  complexity: star-height {}, expression size {}, "
                 "dfa {} state(s)".format(self.star_height,
                                          self.expression_size,
                                          self.state_count)]
        if self.pruned_states:
            lines.append("  dfa pruning: {} of {} state(s) were dead, "
                         "unreachable or equivalent and were removed".format(
                             self.pruned_states, self.original_states))
        verdict = "  verdict: provably empty — {}; the engine " \
            "short-circuits to the empty result with no kernel dispatch" \
            .format(self.empty_reason) if self.empty \
            else "  verdict: satisfiable (no pre-flight obstruction found)"
        return "\n".join(["diagnostics:"] + lines + [
            "  warning: {}".format(warning) for warning in self.warnings
        ] + [verdict])


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
    mentioned = frozenset(map(symbol_label, expression.symbols()))
    unknown = frozenset(mentioned - graph_labels - {None})
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
        warnings=tuple(warnings),
        pinned=pinned_ends(minimal),
        bindings=frozenset(vertex for row in minimal.transitions
                           for symbol in row if type(symbol) is Guard
                           for vertex in (symbol.tail, symbol.head)
                           if vertex is not None))


def absent_bindings(diagnostics: QueryDiagnostics, has_vertex,
                    graph_labels: FrozenSet[Hashable]) -> QueryDiagnostics:
    """``diagnostics`` judged on one graph's vertices, which the memo
    (keyed per label alphabet) cannot see: without the transitions of
    guards on vertices ``has_vertex`` rejects, either no accepting state
    is reachable (provably empty) or those vertices become a warning."""
    absent = {vertex for vertex in diagnostics.bindings
              if not has_vertex(vertex)}
    if not absent or diagnostics.empty:
        return diagnostics
    named = ", ".join(sorted(map(repr, absent)))
    dfa = diagnostics.dfa
    kept = [{symbol: target for symbol, target in row.items()
             if type(symbol) is not Guard
             or (symbol.tail not in absent and symbol.head not in absent)}
            for row in dfa.transitions]
    if _reachable(kept, dfa.start, graph_labels) & dfa.accepting:
        return replace(diagnostics, warnings=diagnostics.warnings + (
            "bound vertex(es) {} are not in this graph".format(named),))
    return replace(diagnostics, empty=True, empty_reason=(
        "every accepting run passes a guard on bound vertex(es) {}, which "
        "are not in this graph".format(named)))
