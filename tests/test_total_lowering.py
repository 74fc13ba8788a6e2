"""Every expression the parser accepts runs on the compact kernels.

Literal path sets lower to pinned moves, products to a jump through a
per-call hub, repeats to their expansion (a typed error past the size
bound), and ``max_length=k`` cuts the automaton to the words of at most
``k`` edges.  What this file pins down:

* a hypothesis property over ASTs with products (top level, inside joins
  and stars), multi-edge literals (some naming vertices the graph lacks),
  repeats over 16 copies, guarded atoms and ``max_length``: in every
  kernel direction the answer equals the endpoint pairs of the
  ``automaton`` strategy's witness paths at the same bound, and without a
  bound, on DAGs whose answer is finite, at a bound past every path;
* the 12-cycle reads that the old bounded enumeration truncated;
* ``Engine.pairs`` / ``pairs_batch`` never enumerate a path, and a lazily
  opened store never builds its dict graph, for any shape;
* an oversized repeat or bound is refused before it is built.
"""

import sys
import time

import pytest
from counting import counted_calls
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.automata import generator
from repro.core.path import Path
from repro.core.pathset import PathSet
from repro.engine import Engine, executor
from repro.engine.executor import endpoint_pairs, run_strategy
from repro.engine.parallel import ParallelExecutor
from repro.errors import QueryTooLargeError
from repro.graph import compact
from repro.graph.graph import MultiRelationalGraph
from repro.regex import atom, join, product, star, union
from repro.regex.ast import Literal, Product, Repeat, Star
from repro.storage import PersistentGraph

#: The kernels a route may name: every read runs one of them, or none.
KERNELS = ("forward", "backward", "bidirectional", "fan-out", "none")

#: Vertices an atom, a literal or a filter may name: 7 is past every
#: generated graph, "ghost" in none.
POOL = (0, 1, 2, 3, 7, "ghost")


@st.composite
def graphs(draw):
    """A small random graph of 3-5 vertices over labels a and b: a DAG
    (edges go up the vertex order) or any graph."""
    dag = draw(st.booleans())
    order = draw(st.integers(3, 5))
    ends = st.tuples(st.integers(0, order - 1), st.integers(0, order - 1),
                     st.sampled_from("ab"))
    graph = MultiRelationalGraph()
    for vertex in range(order):
        graph.add_vertex(vertex)
    for tail, head, label in draw(st.lists(ends, max_size=order + 2)):
        if not dag or tail < head:
            graph.add_edge(tail, label, head)
    return graph, dag


def literals():
    """A literal set of one or two paths of 0-3 edges over :data:`POOL`
    (not necessarily joint: a literal is any edge string)."""
    edge = st.tuples(st.sampled_from(POOL), st.sampled_from("ab"),
                     st.sampled_from(POOL))
    path = st.lists(edge, max_size=3).map(lambda edges: Path.of(*edges))
    return st.lists(path, min_size=1, max_size=2).map(
        lambda paths: Literal(PathSet(paths)))


def expressions():
    ends = st.one_of(st.none(), st.none(), st.sampled_from(POOL))
    leaves = st.one_of(
        st.builds(atom, ends, st.sampled_from(("a", "b", None)), ends),
        literals())
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(star, inner),
            st.builds(lambda *parts: join(*parts), inner, inner),
            st.builds(lambda *parts: union(*parts), inner, inner),
            st.builds(lambda *parts: product(*parts), inner, inner),
            st.builds(lambda part, low, extra: part.repeat(
                low, None if extra is None else low + extra),
                inner, st.sampled_from((0, 1, 2, 17)),
                st.one_of(st.none(), st.sampled_from((0, 1, 3, 19))))),
        max_leaves=4)


FILTERS = st.one_of(st.none(), st.none(), st.frozensets(
    st.sampled_from(POOL), min_size=1, max_size=3))


def _cycle12():
    return MultiRelationalGraph([(i, "a", (i + 1) % 12) for i in range(12)])


def _literal(*edges):
    """The literal set of the one path ``edges`` spell."""
    return Literal(PathSet([Path.of(*edges)]))


def oracle(graph, expression, bound, sources=None, targets=None):
    """The endpoint pairs of every witness path of at most ``bound``
    edges, enumerated by the ``automaton`` strategy."""
    paths = run_strategy("automaton", graph, expression, None, bound)
    return endpoint_pairs(paths, expression, graph, sources, targets)


def _finite(expression) -> bool:
    """No star or unbounded repeat over a literal or a product: on a DAG,
    such an expression has finitely many paths."""
    if isinstance(expression, (Star, Repeat)) and (
            isinstance(expression, Star) or expression.maximum is None):
        return not any(isinstance(node, (Literal, Product))
                       for node in _nodes(expression.inner))
    return all(map(_finite, expression.children()))


def _nodes(expression):
    yield expression
    for child in expression.children():
        yield from _nodes(child)


#: Past every path a :func:`_finite` expression has on these DAGs (the
#: test checks that no enumerated path reaches it).
HORIZON = 48


def _check(graph, expression, bound, sources, targets):
    engine = Engine(graph)
    try:
        route = engine.route(engine.compile(expression), sources, targets,
                             bound)
    except QueryTooLargeError:
        return  # refused before anything was built: not a wrong answer
    assert route.kernel in KERNELS, route.describe()
    truth = oracle(graph, expression, bound, sources, targets)
    assert engine.pairs(expression, sources=sources, targets=targets,
                        max_length=bound) == truth, expression
    if route.kernel == "none":
        return
    # Every kernel on the route's DFA, whatever the planner picked.
    dfa = route.diagnostics.dfa
    assert compact.rpq_pairs_compact(graph, dfa, sources, targets) == truth
    assert compact.rpq_pairs_backward(graph, dfa, targets, sources) == truth
    if sources is not None and targets is not None:
        assert compact.rpq_pairs_bidirectional(graph, dfa, sources,
                                               targets) == truth


class TestEveryShapeIsExact:
    @settings(max_examples=300, deadline=None)
    @example(graph_and_dag=(_cycle12(), False),
             expression=product(atom(label="a"), star(atom(label="a"))),
             bound=3, sources=None, targets=None)
    @example(graph_and_dag=(MultiRelationalGraph([(0, "a", 1)]), True),
             expression=star(_literal((7, "a", 7))),
             bound=2, sources=None, targets=None)
    @example(graph_and_dag=(MultiRelationalGraph([(0, "a", 1)]), True),
             expression=join(_literal((0, "a", "ghost")),
                             _literal(("ghost", "b", 1))),
             bound=2, sources=None, targets=None)
    @example(graph_and_dag=(MultiRelationalGraph([(0, "a", 1)]), True),
             expression=product(atom(label="a"), _literal((7, "b", 0))),
             bound=2, sources=None, targets=frozenset([0]))
    @given(graph_and_dag=graphs(), expression=expressions(),
           bound=st.integers(0, 4), sources=FILTERS, targets=FILTERS)
    def test_a_bounded_read_equals_the_path_oracle(
            self, graph_and_dag, expression, bound, sources, targets):
        graph, _ = graph_and_dag
        _check(graph, expression, bound, sources, targets)

    @settings(max_examples=150, deadline=None)
    @given(graph_and_dag=graphs(), expression=expressions(),
           sources=FILTERS, targets=FILTERS)
    def test_an_unbounded_read_on_a_dag_equals_the_path_oracle(
            self, graph_and_dag, expression, sources, targets):
        graph, dag = graph_and_dag
        if not dag or not _finite(expression):
            return
        engine = Engine(graph)
        try:
            answer = engine.pairs(expression, sources=sources,
                                  targets=targets)
        except QueryTooLargeError:
            return
        longest = max((len(path) for path in run_strategy(
            "automaton", graph, expression, None, HORIZON)), default=0)
        assert longest < HORIZON, expression  # the oracle is complete
        assert answer == oracle(graph, expression, HORIZON, sources,
                                targets), expression


class TestFanOut:
    @pytest.mark.parametrize("query", (
        "{(30, a, 0)} . [_, a, _]*", "{(30, a, 31)}* . [_, a, _]",
        "([_, a, _] & [_, a, _]) . {(2, a, 30)}"))
    @pytest.mark.parametrize("sources", (None, frozenset([30, 1, 5])))
    def test_seed_ranges_cover_the_call_local_ids(self, query, sources):
        # The fan-out splits seeds over the snapshot's id space; a vertex
        # only a literal names is seeded by its call-local id too.
        engine = Engine(_cycle12())
        dfa = engine.route(engine.compile(query)).diagnostics.dfa
        fanned = ParallelExecutor(engine.graph, processes=3,
                                  min_edges=sys.maxsize)
        try:
            assert fanned.rpq_pairs(dfa, sources=sources, parts=3) == \
                engine.pairs(query, sources=sources, processes=1)
        finally:
            fanned.close()


class TestTheTwelveCycle:
    @pytest.mark.parametrize("query, max_length, answer", [
        ("[_, a, _]{17}", None, 12),
        ("[_, a, _]{3,20}", None, 144),
        ("{(0, a, 1)} . [_, a, _]*", None, 12),
        ("[_, a, _] & [_, a, _]*", None, 144),
        ("[_, a, _]*", 3, 48),
    ])
    def test_each_read_is_exact_on_a_kernel(self, query, max_length, answer):
        engine = Engine(_cycle12())
        route = engine.route(engine.compile(query), max_length=max_length)
        assert route.kernel in KERNELS[:4]
        assert len(engine.pairs(query, max_length=max_length)) == answer

    def test_a_literal_vertex_the_graph_lacks_keeps_its_pair(self):
        engine = Engine(_cycle12())
        assert engine.pairs("{(30, a, 31)}") == {(30, 31)}
        # The empty path answers at graph vertices only.
        assert engine.pairs("{(30, a, 31)}*") == frozenset(
            [(30, 31)] + [(v, v) for v in range(12)])
        assert engine.pairs("{(30, a, 0)} . [_, a, _]",
                            sources={30}) == {(30, 1)}
        assert engine.pairs("[_, a, _] . {(1, a, 30)}",
                            targets={30}) == {(0, 30)}
        assert "pinned moves {30..31: 1 edge(s)}" in engine.explain(
            "{(30, a, 31)}")


#: One read per shape the parser accepts.
SHAPES = ("[_, a, _]", "[3, a, _] . [_, a, _]*", "[_, _, _]*",
          "{(0, a, 1)} . [_, a, _]*", "{(30, a, 31); (1, a, 2, 2, a, 3)}",
          "[_, a, _] & [_, a, _]*", "([_, a, _] & [_, a, _])*",
          "[_, a, _]{17}", "[_, a, _]{3,20}", "[_, a, _]+ & {(0, b, 5)}")


class TestNoPathIsEnumerated:
    def test_pairs_and_batches_run_no_path_strategy(self):
        engine = Engine(_cycle12())
        with counted_calls([(name, owner, name) for owner, name in (
                (generator, "generate_paths"), (executor, "generate_paths"),
                (executor, "stream_paths"), (executor, "run_strategy"))]) \
                as calls:
            for shape in SHAPES:
                engine.pairs(shape)
                engine.pairs(shape, max_length=5)
            engine.pairs_batch(SHAPES)
            engine.pairs_batch(SHAPES, max_length=2)
        assert sum(calls.values()) == 0, calls

    def test_a_lazy_store_stays_lazy(self, tmp_path):
        directory = str(tmp_path / "store")
        PersistentGraph.create(directory, _cycle12()).close()
        reference = Engine(_cycle12())
        with PersistentGraph.open(directory) as store:
            engine = Engine(store)
            with counted_calls([("materialize", PersistentGraph,
                                 "_materialize")]) as calls:
                for shape in SHAPES:
                    for bound in (None, 4):
                        assert engine.pairs(shape, max_length=bound) \
                            == reference.pairs(shape, max_length=bound)
            assert sum(calls.values()) == 0
            assert not store.materialized


class TestOversizedReads:
    def test_a_huge_repeat_is_refused_before_it_is_built(self):
        engine = Engine(_cycle12())
        started = time.perf_counter()
        with pytest.raises(QueryTooLargeError, match="1000000 copies"):
            engine.pairs("[_, a, _]{0,1000000}")
        assert time.perf_counter() - started < 0.5

    def test_a_huge_bound_is_refused_before_it_is_built(self):
        engine = Engine(_cycle12())
        with pytest.raises(QueryTooLargeError, match="max_length=100000"):
            engine.pairs("[_, a, _]*", max_length=100000)
        # A bound the language never reaches builds no counter states.
        assert len(engine.pairs("[_, a, _] . [_, a, _]",
                                max_length=100000)) == 12
