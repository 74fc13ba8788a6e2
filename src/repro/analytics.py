"""Grammar-constrained analytics over the product automaton.

The paper's companion work (reference [5], Rodriguez & Shinavier) maps
single-relational algorithms onto multi-relational graphs by constraining
*which* paths an algorithm's random walker may take.  This module
implements the flagship instance: **grammar-constrained PageRank** — the
stationary distribution of a damped random walk on the product space
``(vertex, automaton state)``, where the automaton compiles a regular path
expression.  Projecting the stationary mass back onto vertices ranks them
by how often a *grammar-obeying* surfer visits.

With the trivial grammar ``[_,_,_]*`` the admissible moves are exactly the
collapsed graph's edges, so the ranking tracks ordinary PageRank (the
tests check rank agreement on such graphs).  With a real grammar — e.g.
only ``authored . cites`` moves — the ranking answers the multi-relational
question directly, which is the whole point of section IV-C.
"""

from __future__ import annotations

from typing import Dict, Hashable

from repro.algorithms.digraph import DiGraph
from repro.algorithms.pagerank import pagerank
from repro.automata.nfa import build_nfa
from repro.errors import AlgorithmError
from repro.graph.graph import MultiRelationalGraph
from repro.regex.ast import RegexExpr

__all__ = ["grammar_pagerank", "product_graph"]


def product_graph(graph: MultiRelationalGraph,
                  expression: RegexExpr) -> DiGraph:
    """The reachable product of the graph with the expression's NFA.

    Product vertices are ``(vertex, nfa_state, exempt)`` configurations —
    the same configuration space the recognizer simulates.  A product edge
    exists for every admissible consuming move: from a non-exempt
    configuration only graph edges leaving the current vertex (the join
    adjacency); from an exempt configuration any edge the matcher admits
    (the ``x_o`` teleport).  Only the portion reachable from the start
    configurations is built.
    """
    nfa = build_nfa(expression)
    start_closure = nfa.closure({nfa.start: False})
    out = DiGraph()
    frontier = []
    seen = set()
    for vertex in graph.vertices():
        for state, exempt in start_closure.items():
            config = (vertex, state, exempt)
            seen.add(config)
            frontier.append(config)
            out.add_vertex(config)
    while frontier:
        config = frontier.pop()
        vertex, state, exempt = config
        for matcher, target in nfa.consuming[state]:
            if exempt:
                candidates = matcher.all_edges(graph)
            else:
                candidates = matcher.candidate_edges(graph, vertex)
            for e in candidates:
                for closed_state, closed_exempt in nfa.closure({target: False}).items():
                    successor = (e.head, closed_state, closed_exempt)
                    out.add_edge(config, successor)
                    if successor not in seen:
                        seen.add(successor)
                        frontier.append(successor)
    return out


def grammar_pagerank(graph: MultiRelationalGraph, expression: RegexExpr,
                     damping: float = 0.85,
                     max_iterations: int = 200,
                     tolerance: float = 1.0e-10) -> Dict[Hashable, float]:
    """PageRank of a surfer who may only take grammar-admissible steps.

    Runs standard damped PageRank on :func:`product_graph` (teleportation
    jumps to any configuration — the paper's footnote-5 disjoint jump,
    realized), then sums stationary mass per underlying vertex.

    Returns ``vertex -> mass`` normalized to sum to 1.

    Raises
    ------
    AlgorithmError
        If the graph is empty.
    """
    if graph.order() == 0:
        raise AlgorithmError("grammar_pagerank needs a non-empty graph")
    product = product_graph(graph, expression)
    ranks = pagerank(product, damping=damping,
                     max_iterations=max_iterations, tolerance=tolerance)
    out: Dict[Hashable, float] = {}
    for (vertex, _state, _exempt), mass in ranks.items():
        out[vertex] = out.get(vertex, 0.0) + mass
    total = sum(out.values()) or 1.0
    return {vertex: mass / total for vertex, mass in out.items()}
