"""Vertex bindings anywhere: a bound atom is a guarded DFA symbol.

The paper's atom ``[i, a, j]`` may bind its tail, its head, both or
neither, in any position of a join, union, star or repeat.  Every such
expression lowers to a label expression over labels and
:class:`~repro.graph.compact.Guard` symbols and runs on the compact
kernels, so the answer is exact and unbounded.  What this file pins down:

* a hypothesis property over atom / union / join / star / repeat ASTs
  with bindings in any position, on small random DAGs and cyclic graphs:
  the route names a kernel, and ``Engine.pairs`` and every kernel
  (forward per-seed, forward shared sweep over >= 16 seeds, backward,
  bidirectional) equal an independent oracle — the join composition of
  the atoms' endpoint relations — and the dict-graph reference
  ``rpq_pairs_basic`` over the lowered expression, which fires guards as
  the kernels do; on DAGs also ``max_length=|V|``, which is exact there;
* on the 12-cycle the interior-bound reads answer all 12 pairs;
* pre-flight is memoised per label alphabet, so a guard's bound vertex
  is looked up per kernel call: one added after a read is seen by the
  next (dict graph and lazy store), and the route and EXPLAIN check it
  per read (an absent one proves the answer empty);
* the dict-graph references fire guards as the kernels do and refuse
  literal and jump symbols, typed;
* the planner prices a guard as its label.
"""

from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import Engine, Planner
from repro.graph import compact
from repro.core.path import Path
from repro.errors import ExecutionError
from repro.graph.compact import ENTER, LEAVE, _SHARED_MIN_SEEDS, Guard, Pinned
from repro.graph.graph import MultiRelationalGraph
from repro.regex import atom, join, star, union
from repro.regex.ast import Atom, Empty, Epsilon, Join, Repeat, Star, Union
from repro.rpq import (
    lconcat,
    lstar,
    regular_simple_paths,
    rpq_pairs_basic,
    rpq_paths,
    sym,
)
from repro.storage import PersistentGraph

# ----------------------------------------------------------------------
# The oracle: endpoint relations composed along the AST
# ----------------------------------------------------------------------

def _compose(left, right):
    """``{(s, t) : (s, m) in left, (m, t) in right}``."""
    heads = defaultdict(set)
    for middle, head in right:
        heads[middle].add(head)
    return {(tail, head) for tail, middle in left
            for head in heads.get(middle, ())}


def relation(expression, graph):
    """The endpoint pairs of ``expression``'s joint paths in ``graph``.

    No automaton, no kernel: an atom's pairs are the edges it matches, a
    join's are its parts' pairs composed on the shared vertex (the
    concatenative join glues a path's head to the next one's tail), a
    union's the union, and a star's the reflexive-transitive closure —
    the empty path pairs every vertex with itself.
    """
    if isinstance(expression, Empty):
        return set()
    if isinstance(expression, Epsilon):
        return {(vertex, vertex) for vertex in graph.vertices()}
    if isinstance(expression, Atom):
        return {(edge.tail, edge.head) for edge in graph.match(
            expression.tail, expression.label, expression.head)}
    if isinstance(expression, Union):
        return set().union(*(relation(part, graph)
                             for part in expression.parts))
    if isinstance(expression, Join):
        pairs = relation(expression.parts[0], graph)
        for part in expression.parts[1:]:
            pairs = _compose(pairs, relation(part, graph))
        return pairs
    if isinstance(expression, Star):
        step = relation(expression.inner, graph)
        closure = {(vertex, vertex) for vertex in graph.vertices()}
        frontier = closure
        while frontier:
            frontier = _compose(frontier, step) - closure
            closure |= frontier
        return closure
    if isinstance(expression, Repeat):
        return relation(expression.expand(), graph)
    raise TypeError(expression)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

@st.composite
def graphs(draw):
    """A small random graph: a DAG (edges go up the vertex order) of 6-9
    vertices, or a cyclic graph of 16-20 — enough vertices for an
    all-sources call to take the shared sweep."""
    dag = draw(st.booleans())
    order = draw(st.integers(6, 9) if dag else st.integers(
        _SHARED_MIN_SEEDS, _SHARED_MIN_SEEDS + 4))
    ends = st.tuples(st.integers(0, order - 1), st.integers(0, order - 1))
    pairs = draw(st.lists(ends, max_size=2 * order))
    graph = MultiRelationalGraph()
    for vertex in range(order):
        graph.add_vertex(vertex)
    labels = st.sampled_from(("a", "a", "b"))
    for tail, head in pairs:
        if dag and tail >= head:
            continue
        graph.add_edge(tail, draw(labels), head)
    return graph, dag


#: Vertices an atom or a filter may bind: some beyond a small graph's
#: order, and one never in any graph.
POOL = (0, 1, 2, 3, 5, 8, 13, 17, "ghost")


def expressions():
    ends = st.one_of(st.none(), st.none(), st.sampled_from(POOL))
    atoms = st.builds(atom, ends, st.sampled_from(("a", "b", None, "zz")),
                      ends)
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.builds(star, inner),
            st.builds(lambda *parts: join(*parts), inner, inner),
            st.builds(lambda *parts: join(*parts), inner, inner, inner),
            st.builds(lambda *parts: union(*parts), inner, inner),
            st.builds(lambda part, low, extra: part.repeat(
                low, None if extra is None else low + extra),
                inner, st.integers(0, 2),
                st.one_of(st.none(), st.integers(0, 2)))),
        max_leaves=5)


FILTERS = st.one_of(st.none(), st.none(), st.frozensets(
    st.sampled_from(POOL), min_size=1, max_size=3))


def _cycle12():
    return MultiRelationalGraph([(i, "a", (i + 1) % 12) for i in range(12)])


# ----------------------------------------------------------------------
# The property
# ----------------------------------------------------------------------

def _check(graph, dag, expression, sources, targets):
    engine = Engine(graph)
    compiled = engine.compile(expression)
    route = engine.route(compiled, sources, targets)
    assert route.kernel in ("forward", "backward", "bidirectional",
                            "fan-out", "none"), route.describe()
    truth = relation(expression, graph)
    answer = engine.pairs(expression, sources=sources, targets=targets)
    filtered = frozenset(
        (tail, head) for tail, head in truth
        if (sources is None or tail in sources)
        and (targets is None or head in targets))
    assert answer == filtered, expression
    assert frozenset(pair for pair in rpq_pairs_basic(
        graph, route.constrained.label_expression, sources)
        if targets is None or pair[1] in targets) == filtered, expression
    if dag:
        assert answer == engine.pairs(expression, sources=sources,
                                      targets=targets,
                                      max_length=graph.order())
    if route.kernel == "none":
        return
    # Every kernel on the route's DFA, whatever the planner picked: all
    # sources forward (>= 16 seeds on the cyclic graphs: the shared
    # sweep), all targets backward, and point reads each way.
    dfa = route.diagnostics.dfa
    every = frozenset(truth)
    assert compact.rpq_pairs_compact(graph, dfa) == every
    assert compact.rpq_pairs_backward(graph, dfa) == every
    vertices = sorted(graph.vertices())
    few = frozenset(vertices[::3])
    near = frozenset(vertices[1::4])
    within = frozenset(pair for pair in truth
                       if pair[0] in few and pair[1] in near)
    assert compact.rpq_pairs_compact(graph, dfa, few, near) == within
    assert compact.rpq_pairs_backward(graph, dfa, near, few) == within
    assert compact.rpq_pairs_bidirectional(graph, dfa, few, near) == within


class TestBindingsAnywhere:
    @settings(max_examples=250, deadline=None)
    @example(graph_and_dag=(_cycle12(), False),
             expression=join(atom(None, "a", 3), star(atom(None, "a"))),
             sources=None, targets=None)
    @given(graph_and_dag=graphs(), expression=expressions(),
           sources=FILTERS, targets=FILTERS)
    def test_every_atom_shape_runs_on_the_kernel_exactly(
            self, graph_and_dag, expression, sources, targets):
        graph, dag = graph_and_dag
        _check(graph, dag, expression, sources, targets)

    @pytest.mark.parametrize("head", (None, 0, 2, "ghost"))
    @pytest.mark.parametrize("tail", (None, 0, 2, "ghost"))
    def test_each_binding_in_each_position(self, tail, head):
        # A hub whose rows hold more than the bound vertex: a guard that
        # kept a whole row, or the wrong end of it, would show.
        hub = MultiRelationalGraph(
            [(0, "a", i) for i in range(1, 6)] + [(2, "a", 0), (3, "a", 0),
                                                 (5, "a", 2)]
            + [(i, "b", i + 1) for i in range(1, 5)])
        bound = atom(tail, "a", head)
        for expression in (bound, join(bound, star(atom(label="b"))),
                           join(star(atom(label="b")), bound),
                           join(atom(label="b"), bound, star(atom())),
                           star(bound), union(bound, atom(label="b"))):
            for sources, targets in ((None, None),
                                     (frozenset([0, 1, 2]), None),
                                     (None, frozenset([0, 2, 3])),
                                     (frozenset([0, 2]), frozenset([2, 3]))):
                _check(hub, False, expression, sources, targets)

    @pytest.mark.parametrize("query, kernel", [
        ("[_, a, 3] . [_, a, _]*", "forward"),
        ("[_, a, _]* . [3, a, _]", "forward"),
        ("[_, _, 3] . [_, _, _]*", "forward"),
        ("[3, a, _] . [_, a, _]*", "forward"),
        ("[_, a, _]* . [_, a, 3]", "backward"),
    ])
    def test_the_12_cycle_answers_every_pair(self, query, kernel):
        engine = Engine(_cycle12())
        assert engine.route(engine.compile(query)).kernel == kernel
        assert len(engine.pairs(query)) == 12

    def test_pinned_ends_become_seed_and_target_sets(self):
        engine = Engine(_cycle12())
        route = engine.route(engine.compile("[2, a, _] . [_, a, _]* . "
                                            "[_, a, 7]"))
        assert (route.sources, route.targets) == ({2}, {7})
        assert route.kernel == "forward" and route.direction.seeds == 1
        assert engine.pairs("[2, a, _] . [_, a, _]* . [_, a, 7]") == {(2, 7)}
        # The pin meets the caller's filter: outside it, nothing runs.
        excluded = engine.route(engine.compile("[2, a, _]"),
                                sources=frozenset([5]))
        assert excluded.kernel == "none"
        assert "no vertex passes the endpoint filters" in excluded.empty


class TestGuardChurn:
    """Pre-flight is memoised per label alphabet: whether a guard's
    vertex exists is decided per kernel call, never frozen there."""

    QUERY = "[_, a, 30] . [_, a, _]*"

    def _grow(self, graph):
        graph.add_vertex(30)
        graph.add_edge(5, "a", 30)

    def test_a_dict_graph_sees_the_new_vertex(self):
        graph = _cycle12()
        engine = Engine(graph)
        assert engine.pairs(self.QUERY) == frozenset()
        hits = engine.dfa_cache_info()[0]
        self._grow(graph)
        assert engine.pairs(self.QUERY) == {(5, 30)}
        assert engine.dfa_cache_info()[0] == hits + 1  # same alphabet

    def test_a_lazy_store_sees_the_new_vertex(self, tmp_path):
        directory = str(tmp_path / "store")
        PersistentGraph.create(directory, _cycle12()).close()
        with PersistentGraph.open(directory) as store:
            engine = Engine(store)
            assert engine.pairs(self.QUERY) == frozenset()
            self._grow(store)
            assert engine.pairs(self.QUERY) == {(5, 30)}
            assert not store.materialized


class TestAbsentBindings:
    """EXPLAIN and the route judge a guard's vertex per graph: the
    pre-flight memo, keyed per label alphabet, cannot."""

    def test_explain_sees_an_absent_bound_vertex(self):
        graph = _cycle12()
        engine = Engine(graph)
        text = engine.explain(TestGuardChurn.QUERY)
        assert "verdict: provably empty — every accepting run passes a " \
            "guard on bound vertex(es) 30" in text
        assert engine.route(engine.compile(TestGuardChurn.QUERY)).kernel \
            == "none"
        # Another branch survives: satisfiable, the vertex named.
        text = engine.explain(TestGuardChurn.QUERY + " | [_, a, 2]")
        assert "warning: bound vertex(es) 30 are not in this graph" in text
        assert "verdict: satisfiable" in text
        graph.add_vertex(30)
        assert "verdict: satisfiable" in engine.explain(TestGuardChurn.QUERY)


class TestReferenceEvaluators:
    """The dict-graph references fire every symbol an edge matches, as
    the kernels do, and refuse the symbols that read no edge."""

    def test_the_references_fire_guards(self):
        graph = _cycle12()
        for guard in (Guard("a", 3), Guard("a", None, 4), Guard("a", 3, 4)):
            assert rpq_pairs_basic(graph, sym(guard)) == {(3, 4)}
        walk = lconcat(sym("a"), sym(Guard("a", 1)), lstar(sym("a")))
        assert rpq_pairs_basic(graph, walk) == Engine(graph).pairs(
            "[_, a, _] . [1, a, _] . [_, a, _]*")
        assert set(rpq_paths(graph, sym(Guard("a", 3)), 2)) == {
            Path.of((3, "a", 4))}
        assert len(regular_simple_paths(graph, walk, 0, 5)) == 1

    @pytest.mark.parametrize("symbol", (Pinned(0, 1, 1), LEAVE, ENTER))
    def test_the_references_refuse_what_reads_no_edge(self, symbol):
        graph = _cycle12()
        for evaluate in (lambda: rpq_pairs_basic(graph, sym(symbol)),
                         lambda: rpq_paths(graph, sym(symbol), 2),
                         lambda: regular_simple_paths(graph, sym(symbol),
                                                      0, 1)):
            with pytest.raises(ExecutionError, match="cannot evaluate"):
                evaluate()


class TestGuardPricing:
    def test_a_guard_is_priced_as_its_label(self):
        graph = _cycle12()
        graph.add_edge(0, "b", 5)
        planner = Planner(Engine(graph).statistics())
        plain = planner.choose_rpq_direction(lconcat(sym("a"),
                                                     lstar(sym("b"))))
        guarded = planner.choose_rpq_direction(lconcat(
            sym(Guard("a", 3)), lstar(sym(Guard("b", None, 5)))))
        assert guarded == plain
        assert guarded.forward_cost > 12  # not a 0-growth unknown label
