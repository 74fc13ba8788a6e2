"""The regular path generator (paper section IV-B).

Section IV-B generates — rather than recognizes — all paths of a graph
matching a regular expression, using "a non-deterministic single-stack
automaton with a stack alphabet of ``P(E*)``": every automaton branch keeps
a path-set on its stack, and each state transition pops the set, joins it on
the right with the transition label's edge set, and pushes the result;
branches halt on the empty set or at accept states, and the union of
accept-branch stacks is the answer.

Two implementations live here:

* :class:`StackAutomaton` — the paper's construction *verbatim*: breadth-
  first over ``(state, stack)`` configurations with whole path-sets on the
  stack.  Kept primarily for fidelity and cross-validation.
* :func:`generate_paths` — the production generator: the same search with
  **per-path** configurations ``(state, path, exempt)``, which dedupes at
  much finer grain and exploits the graph's tail index to extend paths
  (each join step only touches edges adjacent to the path's head).

Both are bounded by ``max_length`` because a Kleene star over any graph
cycle denotes infinitely many paths; the bound truncates by path length,
matching :func:`repro.regex.ast.evaluate`'s reference semantics (the
property tests assert exact agreement).
"""

from __future__ import annotations

from collections import deque
from typing import Set, Tuple

from repro.core.path import EPSILON, Path
from repro.core.pathset import PathSet
from repro.errors import AutomatonError
from repro.graph.graph import MultiRelationalGraph
from repro.regex.ast import RegexExpr
from repro.automata.nfa import NFA, build_nfa

__all__ = ["generate_paths", "StackAutomaton"]


def generate_paths(graph: MultiRelationalGraph, expression: RegexExpr,
                   max_length: int) -> PathSet:
    """All paths of ``graph`` (length <= ``max_length``) matching ``expression``.

    The workhorse regular-path-query evaluator: a product construction
    between the expression's NFA and the graph, searched breadth-first.
    Configurations carry the concrete path built so far plus the adjacency
    exemption flag (see :mod:`repro.automata.recognizer` for the flag's
    semantics).
    """
    if max_length < 0:
        raise AutomatonError("max_length must be >= 0")
    nfa = build_nfa(expression)
    accepted: Set[Path] = set()
    # Configuration: (state, path, exempt). Seed with epsilon at the start.
    seen: Set[Tuple[int, Path, bool]] = set()
    queue: deque = deque()

    def push_closure(state: int, path: Path, exempt: bool) -> None:
        for closed_state, closed_exempt in nfa.closure({state: exempt}).items():
            config = (closed_state, path, closed_exempt)
            if config in seen:
                continue
            seen.add(config)
            if closed_state == nfa.accept:
                accepted.add(path)
            queue.append(config)

    push_closure(nfa.start, EPSILON, False)
    while queue:
        state, path, exempt = queue.popleft()
        if len(path) >= max_length:
            continue
        for matcher, target in nfa.consuming[state]:
            if path and not exempt:
                candidates = matcher.candidate_edges(graph, path.head)
            else:
                candidates = matcher.all_edges(graph)
            for e in candidates:
                push_closure(target, path.concat(Path((e,))), False)
    return PathSet(accepted)


class StackAutomaton:
    """The paper's section IV-B construction, followed to the letter.

    The automaton's configurations are ``(state, path_set, exempt)``; the
    initial stack holds ``{epsilon}``; each transition performs
    ``pop(); push(popped ><_o label_set)`` (or ``x_o`` across a product
    boundary); a branch halts when its set is empty; the result is the union
    of the sets held at accept states.

    Whole-set configurations blow up combinatorially compared to the
    per-path search, which is exactly the comparison benchmark E2 runs.
    """

    def __init__(self, expression: RegexExpr, graph: MultiRelationalGraph):
        self.graph = graph
        self.expression = expression
        self.nfa: NFA = build_nfa(expression)

    def run(self, max_length: int) -> PathSet:
        """Execute all branches "in parallel"; return the accepted union."""
        if max_length < 0:
            raise AutomatonError("max_length must be >= 0")
        nfa = self.nfa
        result = PathSet.empty()
        seen: Set[Tuple[int, PathSet, bool]] = set()
        queue: deque = deque()

        def push_closure(state: int, stack_top: PathSet, exempt: bool) -> None:
            nonlocal result
            for closed_state, closed_exempt in nfa.closure({state: exempt}).items():
                config = (closed_state, stack_top, closed_exempt)
                if config in seen:
                    continue
                seen.add(config)
                if closed_state == nfa.accept:
                    result = result | stack_top
                queue.append(config)

        push_closure(nfa.start, PathSet.epsilon(), False)
        while queue:
            state, stack_top, exempt = queue.popleft()
            for matcher, target in nfa.consuming[state]:
                label_set = matcher.resolve(self.graph)
                if exempt:
                    grown = stack_top.product(label_set)
                else:
                    grown = stack_top.join(label_set)
                bounded = PathSet(p for p in grown.paths if len(p) <= max_length)
                if not bounded:
                    # The paper: a branch whose stack element is the empty
                    # set halts.
                    continue
                push_closure(target, bounded, False)
        return result

    def __repr__(self) -> str:
        return "StackAutomaton<{} over {!r}>".format(
            self.nfa, self.graph.name or "graph")
