"""Engine tests: strategies, planner, explain, limits, projections, and
the one route every ``pairs()`` read takes."""

from unittest import mock

import pytest
from counting import counted_calls
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.path import Path
from repro.datasets import figure1_graph
from repro.engine import Engine, GraphStatistics, Planner, QueryCache
from repro.engine import engine as engine_module
from repro.engine.executor import stream_paths
from repro.engine.parallel import ParallelExecutor
from repro.engine.plan import AtomScan, JoinPlan
from repro.errors import ExecutionError
from repro.graph import compact
from repro.graph.generators import uniform_random
from repro.lang import parse
from repro.regex import atom, evaluate, join, star, union
from repro.rpq import evaluation as rpq_evaluation
from repro.rpq import lower_to_constrained_query, rpq_pairs_basic

FIGURE1_QUERY = ("[i, alpha, _] . [_, beta, _]* . "
                 "(([_, alpha, j] . {(j, alpha, i)}) | [_, alpha, k])")


@pytest.fixture
def engine():
    return Engine(figure1_graph(), default_max_length=6)


@pytest.fixture
def random_engine():
    return Engine(uniform_random(25, 80, labels=("a", "b", "c"), seed=11),
                  default_max_length=4)


class TestStrategies:
    def test_all_strategies_agree_on_figure1(self, engine):
        results = {
            strategy: engine.query(FIGURE1_QUERY, strategy=strategy).paths
            for strategy in ("materialized", "streaming", "automaton", "stack")
        }
        reference = results["materialized"]
        assert len(reference) > 0
        for strategy, paths in results.items():
            assert paths == reference, strategy

    def test_all_strategies_agree_on_random_graph(self, random_engine):
        query = "[_, a, _] . [_, b, _]* . [_, c, _]"
        results = [
            random_engine.query(query, strategy=strategy).paths
            for strategy in ("materialized", "streaming", "automaton", "stack")
        ]
        assert results[0] == results[1] == results[2] == results[3]

    def test_unknown_strategy_rejected(self, engine):
        with pytest.raises(ExecutionError):
            engine.query(FIGURE1_QUERY, strategy="quantum")

    def test_results_match_reference_evaluator(self, engine):
        expression = parse(FIGURE1_QUERY)
        expected = evaluate(expression, engine.graph, 6)
        assert engine.query(FIGURE1_QUERY).paths == expected

    def test_ast_queries_accepted(self, engine):
        expr = join(atom(tail="i", label="alpha"), atom(label="beta"))
        result = engine.query(expr)
        assert all(p.tail == "i" for p in result.paths)

    def test_max_length_override(self, engine):
        short = engine.query(FIGURE1_QUERY, max_length=2)
        long = engine.query(FIGURE1_QUERY, max_length=6)
        assert short.paths < long.paths


class TestLimit:
    def test_streaming_limit_truncates(self, engine):
        limited = engine.query(FIGURE1_QUERY, strategy="streaming", limit=3)
        assert len(limited.paths) == 3

    def test_limited_results_are_members(self, engine):
        full = engine.query(FIGURE1_QUERY).paths
        limited = engine.query(FIGURE1_QUERY, strategy="streaming", limit=4)
        assert limited.paths <= full

    def test_stream_paths_is_lazy(self, random_engine):
        stream = stream_paths(random_engine.graph,
                              parse("[_, a, _] . [_, b, _]"), 4)
        first = next(stream, None)
        if first is not None:
            assert isinstance(first, Path)


class TestPlanner:
    def test_plan_result_invariance(self, random_engine):
        """Optimized and unoptimized plans return identical path sets."""
        query = "[0, _, _] . [_, _, _] . [_, a, _]"
        optimized = random_engine.query(query).paths
        random_engine.optimize = False
        unoptimized = random_engine.query(query).paths
        assert optimized == unoptimized

    def test_planner_prefers_selective_side(self):
        graph = uniform_random(40, 400, labels=("a", "b"), seed=5)
        stats = GraphStatistics(graph)
        # [v0,_,_] is tiny; [_,_,_] huge: the optimizer should not start by
        # joining the two full scans.
        expr = join(atom(tail=0), atom(), atom())
        optimized = Planner(stats, optimize_joins=True).plan(expr)
        greedy = Planner(stats, optimize_joins=False).plan(expr)
        assert optimized.estimated_cost <= greedy.estimated_cost

    def test_explain_renders_tree(self, engine):
        text = engine.explain(FIGURE1_QUERY)
        assert "AtomScan" in text
        assert "Join" in text
        assert "rows~" in text

    def test_explain_notes_planless_strategies(self, engine):
        result = engine.query(FIGURE1_QUERY, strategy="automaton")
        assert "no plan" in result.explain()

    def test_plan_shape(self, engine):
        plan = engine.plan("[i, alpha, _] . [_, beta, _]")
        assert isinstance(plan, JoinPlan)
        assert isinstance(plan.left, AtomScan)

    def test_statistics_refresh_on_mutation(self, engine):
        before = engine.statistics().edge_count
        engine.graph.add_edge("new1", "alpha", "new2")
        after = engine.statistics().edge_count
        assert after == before + 1

    def test_statistics_atom_cardinality(self, engine):
        stats = engine.statistics()
        assert stats.atom_cardinality(atom(label="beta")) == 5
        assert stats.atom_cardinality(atom()) == engine.graph.size()
        assert stats.atom_cardinality(atom(tail="i", label="alpha")) == 1

    def test_estimates_are_nonnegative(self, random_engine):
        stats = random_engine.statistics()
        expressions = [
            atom(), star(atom(label="a")),
            union(atom(label="a"), atom(label="b")),
            join(atom(), atom()),
        ]
        for expr in expressions:
            assert stats.estimate(expr) >= 0.0


class TestResultObject:
    def test_result_metadata(self, engine):
        result = engine.query(FIGURE1_QUERY)
        assert result.strategy == "materialized"
        assert result.max_length == 6
        assert result.elapsed >= 0.0
        assert len(result) == len(result.paths)
        assert set(iter(result)) == set(result.paths)

    def test_heads_and_tails(self, engine):
        result = engine.query(FIGURE1_QUERY)
        assert result.tails() == {"i"}
        assert result.heads() <= {"i", "k"}

    def test_projection(self, engine):
        projection = engine.project(FIGURE1_QUERY, max_length=6)
        assert projection.pairs <= {("i", "i"), ("i", "k")}
        assert len(projection.pairs) == 2


class TestRecognition:
    def test_recognize_accepts_query_member(self, engine):
        member = Path.of(("i", "alpha", "m"), ("m", "alpha", "k"))
        assert engine.recognize(FIGURE1_QUERY, member)

    def test_recognize_rejects_non_member(self, engine):
        assert not engine.recognize(FIGURE1_QUERY,
                                    Path.single("i", "beta", "m"))


# ----------------------------------------------------------------------
# The pairs() route: one decision, run by pairs / pairs_batch, printed by
# EXPLAIN
# ----------------------------------------------------------------------

#: Every way a ``pairs()`` read reaches a kernel, by the name
#: ``PairsRoute.kernel`` gives it.
KERNEL_ENTRIES = (
    ("forward", compact, "rpq_pairs_compact"),
    ("backward", compact, "rpq_pairs_backward"),
    ("bidirectional", compact, "rpq_pairs_bidirectional"),
    ("fan-out", ParallelExecutor, "rpq_pairs"),
)


def serve_like_graph():
    return uniform_random(300, 2400, labels=("a", "b", "c"), seed=7)


T1 = "[_, a, _] . [_, b, _]*"


class TestPairsRoute:
    @pytest.mark.parametrize("sources, targets, kernel", [
        (frozenset([3]), None, "forward"),
        (None, frozenset([5]), "backward"),
        (frozenset([3]), frozenset([5]), "bidirectional"),
    ])
    def test_counted_gate_one_of_each_stage_per_miss(self, sources, targets,
                                                     kernel):
        # The work of one read is counted, not timed: an uncached pairs()
        # lowers once, looks pre-flight up once, builds one Planner and
        # dispatches one kernel; a cached one does none of it.
        engine = Engine(serve_like_graph(), cache=QueryCache(8))
        expression = engine.compile(T1)
        stages = KERNEL_ENTRIES + (
            ("lower", rpq_evaluation, "lower_to_constrained_query"),
            ("preflight", Engine, "preflight"),
            ("planner", engine_module, "Planner"),
            ("route", Engine, "route"),
        )
        with counted_calls(stages) as counts:
            miss = engine.pairs(expression, sources=sources, targets=targets)
            assert counts == {"lower": 1, "preflight": 1, "planner": 1,
                              "route": 1, kernel: 1}
            counts.clear()
            hit = engine.pairs(expression, sources=sources, targets=targets)
            assert counts == {}
        assert hit is miss
        assert engine.cache.stats()["hits"] == 1
        assert engine.cache.stats()["misses"] == 1

    def test_explain_names_the_strategy_a_bounded_call_takes(self):
        # Drift (a): EXPLAIN with max_length described the unbounded
        # kernels while pairs() ran a second, path-enumerating strategy.
        # Now a bound cuts the kernels' automaton: one route either way.
        engine = Engine(figure1_graph())
        query = "[_, alpha, _] . [_, beta, _]*"
        for max_length, count in ((None, 16), (1, 7)):
            text = engine.explain(query, max_length=max_length)
            assert "Engine.pairs() runs the compact product-BFS kernels" \
                in text and "pairs direction:" in text
            kernel = engine.route(engine.compile(query),
                                  max_length=max_length).kernel
            with counted_calls(KERNEL_ENTRIES) as counts, \
                    mock.patch.object(engine_module, "run_strategy",
                                      side_effect=AssertionError(
                                          "pairs() enumerated paths")):
                assert len(engine.pairs(query,
                                        max_length=max_length)) == count
            assert counts == {kernel: 1}

    @pytest.mark.parametrize("with_sources", (False, True))
    def test_batch_looks_each_member_up_once(self, with_sources):
        # Drift (b): a member that did not fan out was looked up by the
        # batch and again by pairs() — 4+ misses for a cold 3-query batch.
        graph = uniform_random(60, 240, labels=("a", "b", "c"), seed=3)
        engine = Engine(graph, cache=QueryCache(16))
        sources = frozenset(sorted(graph.vertices())[:40]) \
            if with_sources else None
        queries = [T1, "[3, a, _] . [_, b, _]*", "[_, a, _]* . [_, b, 9]"]
        kernels = [engine.route(engine.compile(query), sources).kernel
                   for query in queries]
        assert kernels[0] == "forward"
        assert kernels[2] in ("backward", "bidirectional")
        cold = engine.pairs_batch(queries, sources=sources)
        stats = engine.cache.stats()
        assert (stats["hits"], stats["misses"]) == (0, len(queries))
        warm = engine.pairs_batch(queries, sources=sources)
        stats = engine.cache.stats()
        assert (stats["hits"], stats["misses"]) == (len(queries),
                                                    len(queries))
        assert all(again is first for again, first in zip(warm, cold))

    @pytest.mark.parametrize("cached", (False, True))
    @pytest.mark.parametrize("options", [
        {},
        {"sources": frozenset(range(0, 20))},
        {"targets": frozenset([5, 9])},
        {"sources": frozenset([3]), "targets": frozenset([9])},
        {"max_length": 2},
        {"processes": 2},
    ])
    def test_pairs_is_the_one_element_batch(self, options, cached):
        graph = uniform_random(60, 240, labels=("a", "b", "c"), seed=3)
        queries = [T1, "([_, a, _] | [_, b, _])* . [_, c, _]",
                   "[3, a, _] . [_, b, _]*", "[_, a, _]* . [_, b, 9]",
                   "[_, a, _] . [3, b, _]", "[_, zz, _]"]
        with Engine(graph, default_max_length=3,
                    cache=QueryCache(32) if cached else None) as engine, \
                Engine(graph, default_max_length=3) as single:
            batch = engine.pairs_batch(queries, **options)
            for query, answer in zip(queries, batch):
                assert answer == single.pairs(query, **options), query
                assert answer == engine.pairs_batch([query], **options)[0]
                if "max_length" in options:
                    continue
                lowered = lower_to_constrained_query(engine.compile(query))
                reference = rpq_pairs_basic(graph, lowered.label_expression,
                                            options.get("sources"))
                wanted = options.get("targets")
                assert answer == frozenset(
                    pair for pair in reference
                    if wanted is None or pair[1] in wanted), query


def _atoms():
    labels = st.sampled_from(("a", "a", "b", "b", "zz"))
    ends = st.sampled_from((None,) * 6 + (1, 4))
    return st.builds(lambda tail, label, head: atom(tail, label, head),
                     ends, labels, ends)


def _expressions():
    return st.recursive(
        _atoms(),
        lambda inner: st.one_of(
            st.builds(star, inner),
            st.builds(lambda *parts: join(*parts), inner, inner),
            st.builds(lambda *parts: join(*parts), inner, inner, inner),
            st.builds(lambda *parts: union(*parts), inner, inner)),
        max_leaves=4)


_ENDPOINTS = st.one_of(
    st.none(),
    st.frozensets(st.sampled_from((0, 1, 2, 4, 7, "ghost")), max_size=3))


class TestRouteProperty:
    # Big enough, with a horizon long enough, that the cost model picks
    # every direction.
    GRAPH = uniform_random(40, 160, labels=("a", "b"), seed=5)

    A_B_STAR = join(atom(label="a"), star(atom(label="b")))

    @settings(max_examples=120, deadline=None)
    @example(A_B_STAR, None, None, None, None)                     # forward
    @example(A_B_STAR, None, frozenset([4]), None, None)           # backward
    @example(A_B_STAR, frozenset([1]), frozenset([4]), None, 2)    # bidi
    @example(A_B_STAR, None, None, None, 2)                        # fan-out
    @example(A_B_STAR, None, None, 2, None)                        # max_length
    @example(join(atom(label="a"), atom(1, "b")), None, None, None, None)
    @example(atom(label="zz"), None, None, None, 2)                # none
    @example(atom(1, "a"), frozenset([4]), None, None, None)       # none
    @given(expression=_expressions(), sources=_ENDPOINTS,
           targets=_ENDPOINTS,
           max_length=st.sampled_from((None, None, None, 2)),
           processes=st.sampled_from((None, 2)))
    def test_explain_prints_and_pairs_runs_the_route(
            self, expression, sources, targets, max_length, processes):
        options = dict(sources=sources, targets=targets,
                       max_length=max_length, processes=processes)
        with Engine(self.GRAPH, default_max_length=4) as engine:
            route = engine.route(engine.compile(expression), **options)
            assert route.describe() in engine.explain(expression, **options)
            # The name the route runs under is the one its printed fields
            # spell out — EXPLAIN and the dispatch cannot part ways.
            assert route.kernel in ("forward", "backward", "bidirectional",
                                    "fan-out", "none")
            assert (route.kernel == "none") == (route.empty is not None)
            if route.direction is not None:
                assert route.kernel == ("fan-out" if route.parallelism.parallel
                                        else route.direction.direction)
            with counted_calls(KERNEL_ENTRIES) as counts:
                answer = engine.pairs(expression, **options)
            assert counts == ({} if route.kernel == "none"
                              else {route.kernel: 1})
            if route.kernel == "none":
                assert answer == frozenset()
            assert answer == engine.pairs_batch([expression], **options)[0]

    def test_route_after_a_mutation_derives_no_degree_profile(self):
        # Every mutation retires the statistics; the next route must read
        # the graph's maintained fan-outs, not recount a label's edges.
        graph = self.GRAPH.copy()
        with Engine(graph) as engine:
            expression = engine.compile(self.A_B_STAR)
            before = engine.route(expression, targets=frozenset([4]))
            with counted_calls((
                    ("degree_profile", GraphStatistics, "degree_profile"),
                    ("statistics", engine_module, "GraphStatistics"),
            )) as counts:
                for extra in range(3):
                    graph.add_edge(100 + extra, "a", 4)
                    route = engine.route(expression,
                                         targets=frozenset([4]))
            assert counts == {"statistics": 3}
            assert route.direction.direction == before.direction.direction
            edges, tails, heads = graph.label_fanout("a")
            stats = engine.statistics()
            assert stats.forward_growth(["a"]) == edges / tails \
                == stats.degree_profile("a").avg_out
            assert stats.backward_growth(["a"]) == edges / heads \
                == stats.degree_profile("a").avg_in
