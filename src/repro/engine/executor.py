"""Execution strategies for the traversal engine.

Three ways to run one query, identical results (tests enforce it):

* **materialized** — execute the planner's tree bottom-up with whole
  :class:`PathSet` operations (set-at-a-time, like a classical relational
  executor).  Honors the planner's join association order.
* **streaming** — a lazy generator over the NFA-graph product: paths come
  out one at a time, depth-first, so ``limit=k`` touches only the work
  needed for k results and memory stays proportional to the frontier.
* **automaton** — the breadth-first per-path product construction
  (:func:`repro.automata.generate_paths`), the production RPQ evaluator.
* **stack** — the paper's section IV-B single-stack automaton, verbatim
  (whole path-sets on the stack); kept for fidelity and benchmarked in E2/E8.
"""

from __future__ import annotations

from typing import Iterator, Optional, Set, Tuple

from repro.automata.generator import StackAutomaton, generate_paths
from repro.automata.nfa import build_nfa
from repro.core.path import EPSILON, Path
from repro.core.pathset import PathSet
from repro.engine.plan import (
    AtomScan,
    EmptyScan,
    EpsilonScan,
    JoinPlan,
    LiteralScan,
    PlanNode,
    ProductPlan,
    StarPlan,
    UnionPlan,
)
from repro.errors import ExecutionError
from repro.graph.graph import MultiRelationalGraph
from repro.regex.ast import RegexExpr

__all__ = [
    "STRATEGIES",
    "execute_plan",
    "stream_paths",
    "run_strategy",
    "endpoint_pairs",
]

#: The strategy names accepted by the engine.
STRATEGIES = ("materialized", "streaming", "automaton", "stack")


def execute_plan(plan: PlanNode, graph: MultiRelationalGraph,
                 max_length: int) -> PathSet:
    """Bottom-up set-at-a-time execution of a physical plan."""
    if isinstance(plan, EmptyScan):
        return PathSet.empty()
    if isinstance(plan, EpsilonScan):
        return PathSet.epsilon()
    if isinstance(plan, AtomScan):
        resolved = plan.atom.resolve(graph)
        return PathSet(p for p in resolved if len(p) <= max_length)
    if isinstance(plan, LiteralScan):
        return PathSet(p for p in plan.literal.path_set if len(p) <= max_length)
    if isinstance(plan, UnionPlan):
        out = PathSet.empty()
        for part in plan.parts:
            out = out | execute_plan(part, graph, max_length)
        return out
    if isinstance(plan, JoinPlan):
        left = execute_plan(plan.left, graph, max_length)
        if not left:
            return left
        right = execute_plan(plan.right, graph, max_length)
        joined = left.join(right)
        return PathSet(p for p in joined.paths if len(p) <= max_length)
    if isinstance(plan, ProductPlan):
        left = execute_plan(plan.left, graph, max_length)
        if not left:
            return left
        right = execute_plan(plan.right, graph, max_length)
        product = left.product(right)
        return PathSet(p for p in product.paths if len(p) <= max_length)
    if isinstance(plan, StarPlan):
        base = execute_plan(plan.inner, graph, max_length)
        return base.closure(max_length)
    raise ExecutionError("cannot execute unknown plan node {!r}".format(plan))


def stream_paths(graph: MultiRelationalGraph, expression: RegexExpr,
                 max_length: int, limit: Optional[int] = None) -> Iterator[Path]:
    """Lazily yield matching paths, depth-first, de-duplicated.

    The generator compiles the expression once, then explores
    (state, path, exempt) configurations with an explicit stack; a path is
    yielded the first time any accepting configuration reaches it.  With
    ``limit`` the search stops as soon as enough results emerged — the
    whole point of the pipelined strategy.
    """
    if max_length < 0:
        raise ExecutionError("max_length must be >= 0")
    nfa = build_nfa(expression)
    emitted: Set[Path] = set()
    seen: Set[Tuple[int, Path, bool]] = set()
    stack = []

    def expand(state: int, path: Path, exempt: bool):
        """Epsilon-close a configuration; return (accepting_path, to_push)."""
        accepting = None
        pushes = []
        for closed_state, closed_exempt in nfa.closure({state: exempt}).items():
            config = (closed_state, path, closed_exempt)
            if config in seen:
                continue
            seen.add(config)
            if closed_state == nfa.accept:
                accepting = path
            pushes.append(config)
        return accepting, pushes

    accepting, pushes = expand(nfa.start, EPSILON, False)
    if accepting is not None and accepting not in emitted:
        emitted.add(accepting)
        yield accepting
        if limit is not None and len(emitted) >= limit:
            return
    stack.extend(pushes)
    while stack:
        state, path, exempt = stack.pop()
        if len(path) >= max_length:
            continue
        for matcher, target in nfa.consuming[state]:
            if path and not exempt:
                candidates = matcher.candidate_edges(graph, path.head)
            else:
                candidates = matcher.all_edges(graph)
            for e in sorted(candidates, key=repr):
                grown = path.concat(Path((e,)))
                accepting, pushes = expand(target, grown, False)
                stack.extend(pushes)
                if accepting is not None and accepting not in emitted:
                    emitted.add(accepting)
                    yield accepting
                    if limit is not None and len(emitted) >= limit:
                        return


def endpoint_pairs(paths: PathSet, expression: RegexExpr,
                   graph: MultiRelationalGraph,
                   sources: Optional[Set] = None,
                   targets: Optional[Set] = None
                   ) -> frozenset:
    """Project witness paths to filtered ``(source, target)`` endpoint pairs.

    The path strategies' meaning of an ``Engine.pairs`` answer, and its
    test oracle: non-empty paths contribute ``(tail, head)`` when the tail
    passes the ``sources`` filter and the head the ``targets`` filter; a
    nullable expression also matches the empty path *at every graph
    vertex* passing **both** filters — the rule the kernels apply via the
    DFA's accepting start state.
    """
    source_ok = None if sources is None else frozenset(sources)
    target_ok = None if targets is None else frozenset(targets)
    answers = set()
    for path in paths:
        if not path:
            continue  # epsilon: folded into the reflexive completion below
        if source_ok is not None and path.tail not in source_ok:
            continue
        if target_ok is not None and path.head not in target_ok:
            continue
        answers.add((path.tail, path.head))
    if expression.nullable:
        candidates = graph.vertices() if source_ok is None else source_ok
        for vertex in candidates:
            if target_ok is not None and vertex not in target_ok:
                continue
            if graph.has_vertex(vertex):
                answers.add((vertex, vertex))
    return frozenset(answers)


def run_strategy(strategy: str, graph: MultiRelationalGraph,
                 expression: RegexExpr, plan: Optional[PlanNode],
                 max_length: int, limit: Optional[int] = None) -> PathSet:
    """Dispatch one query through the named strategy, returning a PathSet."""
    if strategy == "materialized":
        if plan is None:
            raise ExecutionError("materialized strategy requires a plan")
        result = execute_plan(plan, graph, max_length)
        if limit is not None:
            result = PathSet(list(result)[:limit])
        return result
    if strategy == "streaming":
        return PathSet(stream_paths(graph, expression, max_length, limit))
    if strategy == "automaton":
        result = generate_paths(graph, expression, max_length)
        if limit is not None:
            result = PathSet(list(result)[:limit])
        return result
    if strategy == "stack":
        result = StackAutomaton(expression, graph).run(max_length)
        if limit is not None:
            result = PathSet(list(result)[:limit])
        return result
    raise ExecutionError(
        "unknown strategy {!r}; expected one of {}".format(strategy, STRATEGIES))
