"""Directional RPQ evaluation: kernels, lowering, cost model, engine wiring.

Covers the bidirectional tentpole end to end:

* backward / bidirectional kernel semantics (reflexive pairs, filters,
  missing vertices, empty languages),
* ``lower_to_constrained_query`` — which vertex-bound shapes lower and
  which stay on the bounded fallback,
* the engine's compiled-DFA cache (hits, alphabet-version invalidation),
* version-keyed statistics refresh + per-label degree profiles,
* the planner's direction cost model on symmetric and hub-skewed graphs,
* fast-path vs automaton-fallback parity on vertex-bound queries,
  including nullable reflexive semantics under endpoint filters.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine, Planner
from repro.graph import compact
from repro.graph.compact import (
    _SHARED_BATCH,
    _SHARED_MIN_SEEDS,
    adjacency_snapshot,
    rpq_pairs_on_snapshot,
)
from repro.graph.generators import uniform_random
from repro.graph.graph import MultiRelationalGraph
from repro.regex import atom, join, star, union
from repro.regex.builder import literal
from repro.rpq import (
    ConstrainedQuery,
    LabelConcat,
    LabelStar,
    LabelSymbol,
    compile_rpq,
    lconcat,
    lower_to_constrained_query,
    lstar,
    lunion,
    rpq_pairs,
    rpq_pairs_basic,
    rpq_pairs_between,
    rpq_pairs_to_targets,
    sym,
)


@pytest.fixture
def diamond():
    """s -> {m1, m2} -> t plus a b-cycle hanging off m1."""
    return MultiRelationalGraph([
        ("s", "a", "m1"), ("s", "a", "m2"),
        ("m1", "b", "t"), ("m2", "b", "t"),
        ("m1", "b", "m1"),
    ])


class TestBackwardKernel:
    def test_matches_forward_on_all_pairs(self, diamond):
        expression = lconcat(sym("a"), lstar(sym("b")))
        assert rpq_pairs_to_targets(diamond, expression) == \
            rpq_pairs_basic(diamond, expression)

    def test_target_filter_bounds_the_answer(self, diamond):
        expression = lconcat(sym("a"), lstar(sym("b")))
        pairs = rpq_pairs_to_targets(diamond, expression, targets={"t"})
        assert pairs == {("s", "t")}

    def test_nullable_reflexive_pairs(self, diamond):
        expression = lstar(sym("b"))
        pairs = rpq_pairs_to_targets(diamond, expression, targets={"m1"})
        assert ("m1", "m1") in pairs
        assert ("s", "m1") not in pairs  # no b-path from s

    def test_missing_targets_are_skipped(self, diamond):
        expression = lstar(sym("b"))
        assert rpq_pairs_to_targets(diamond, expression,
                                    targets={"ghost"}) == frozenset()


class TestBidirectionalKernel:
    def test_point_to_point_positive_and_negative(self, diamond):
        expression = lconcat(sym("a"), lstar(sym("b")))
        assert rpq_pairs_between(diamond, expression, {"s"}, {"t"}) == \
            {("s", "t")}
        assert rpq_pairs_between(diamond, expression, {"t"}, {"s"}) == \
            frozenset()

    def test_set_to_set_matches_filtered_reference(self, diamond):
        expression = lconcat(sym("a"), lstar(sym("b")))
        reference = rpq_pairs_basic(diamond, expression)
        sources, targets = {"s", "m1"}, {"t", "m1", "m2"}
        expected = frozenset(p for p in reference
                             if p[0] in sources and p[1] in targets)
        assert rpq_pairs_between(diamond, expression, sources,
                                 targets) == expected

    def test_nullable_needs_overlapping_endpoints(self, diamond):
        expression = lstar(sym("b"))
        assert ("s", "s") in rpq_pairs_between(diamond, expression,
                                               {"s"}, {"s"})
        assert rpq_pairs_between(diamond, expression, {"s"},
                                 {"m2"}) == frozenset()

    def test_empty_language_and_missing_endpoints(self, diamond):
        assert rpq_pairs_between(diamond, lconcat(sym("a"), sym("zz")),
                                 {"s"}, {"t"}) == frozenset()
        assert rpq_pairs_between(diamond, lstar(sym("b")), {"ghost"},
                                 {"t"}) == frozenset()

    def test_wide_endpoint_sets_use_bignum_masks(self):
        rng = random.Random(7)
        graph = uniform_random(90, 400, labels=("a", "b"), seed=7)
        vertices = sorted(graph.vertices(), key=repr)
        sources = frozenset(rng.sample(vertices, 80))
        targets = frozenset(rng.sample(vertices, 80))
        expression = lconcat(sym("a"), lstar(sym("b")))
        reference = frozenset(
            p for p in rpq_pairs_basic(graph, expression)
            if p[0] in sources and p[1] in targets)
        assert rpq_pairs_between(graph, expression, sources,
                                 targets) == reference


T3 = lconcat(lstar(lunion(sym("a"), sym("b"))), sym("c"))


class TestSharedSweep:
    """The many-seed configuration of the one-directional kernel (the
    differential suite pins its answers on every snapshot shape)."""

    @settings(max_examples=40, deadline=None)
    @given(edges=st.lists(st.tuples(st.integers(0, 29),
                                    st.sampled_from("abc"),
                                    st.integers(0, 29)),
                          min_size=1, max_size=90),
           seeds=st.sets(st.integers(0, 29), min_size=_SHARED_MIN_SEEDS),
           expression=st.sampled_from([
               T3, lconcat(sym("a"), lstar(sym("b"))), lstar(sym("a")),
               lunion(lconcat(sym("a"), sym("b")), lstar(sym("c")))]))
    def test_multi_seed_answer_is_the_union_of_single_seed_answers(
            self, edges, seeds, expression):
        graph = MultiRelationalGraph(edges)
        for vertex in range(30):
            graph.add_vertex(vertex)
        # Single seeds run the per-seed loop; together they share the
        # walk, in batches of 7 so that several boundaries are crossed.
        with mock.patch.object(compact, "_SHARED_BATCH", 7):
            together = rpq_pairs(graph, expression, sources=seeds)
            together_back = rpq_pairs_to_targets(graph, expression,
                                                 targets=seeds)
        assert together == frozenset().union(*(
            rpq_pairs(graph, expression, sources={seed}) for seed in seeds))
        assert together_back == frozenset().union(*(
            rpq_pairs_to_targets(graph, expression, targets={seed})
            for seed in seeds))

    def test_all_sources_sweep_walks_the_product_once(self, monkeypatch):
        # Counted, not timed: the seeds are never walked one by one, and
        # _propagate is handed at most every configuration once a round
        # (5693 in 7 rounds here; one BFS per seed expands 566 642).
        graph = uniform_random(450, 3600, labels=("a", "b", "c"), seed=7)
        snapshot = adjacency_snapshot(graph)
        dfa = compile_rpq(T3, graph)

        class Seeds(list):
            walked = 0

            def __iter__(self):
                for seed in list.__iter__(self):
                    Seeds.walked += 1
                    yield seed

        frontiers = []
        propagate = compact._propagate

        def counted(frontier, *rest):
            frontiers.append(len(frontier))
            return propagate(frontier, *rest)

        monkeypatch.setattr(compact, "_propagate", counted)
        answer = rpq_pairs_on_snapshot(
            snapshot, dfa, source_ids=Seeds(snapshot.live_vertex_ids()))
        assert Seeds.walked == 0
        assert 0 < sum(frontiers) <= \
            len(frontiers) * snapshot.num_slots * dfa.num_states
        sample = frozenset(sorted(graph.vertices())[::19])
        assert frozenset(p for p in answer if p[0] in sample) == \
            rpq_pairs_basic(graph, T3, sources=sample)
        # Below the floor the same call is the stamped loop: no rounds.
        del frontiers[:]
        few = Seeds(range(_SHARED_MIN_SEEDS - 1))
        rpq_pairs_on_snapshot(snapshot, dfa, source_ids=few)
        assert (Seeds.walked, frontiers) == (_SHARED_MIN_SEEDS - 1, [])


class TestLowerToConstrainedQuery:
    def test_label_only_passthrough(self):
        lowered = lower_to_constrained_query(
            join(atom(label="a"), star(atom(label="b"))))
        assert lowered == ConstrainedQuery(
            LabelConcat((LabelSymbol("a"), LabelStar(LabelSymbol("b")))))
        assert lowered.label_only

    def test_source_bound_prefix(self):
        lowered = lower_to_constrained_query(
            join(atom(tail="i", label="a"), star(atom(label="b"))))
        assert lowered.source == "i" and lowered.target is None
        assert "source='i'" in lowered.describe()

    def test_target_bound_suffix(self):
        lowered = lower_to_constrained_query(
            join(star(atom(label="a")), atom(label="b", head="j")))
        assert lowered.source is None and lowered.target == "j"

    def test_both_ends_bound(self):
        lowered = lower_to_constrained_query(
            join(atom(tail="i", label="a"), atom(label="b"),
                 atom(label="c", head="j")))
        assert (lowered.source, lowered.target) == ("i", "j")
        assert lowered.label_expression == LabelConcat(
            (LabelSymbol("a"), LabelSymbol("b"), LabelSymbol("c")))

    def test_single_atom_shapes(self):
        assert lower_to_constrained_query(atom(tail="i", label="a")) == \
            ConstrainedQuery(LabelSymbol("a"), "i", None)
        assert lower_to_constrained_query(atom(label="a", head="j")) == \
            ConstrainedQuery(LabelSymbol("a"), None, "j")
        assert lower_to_constrained_query(atom(tail="i", label="a", head="j")) \
            == ConstrainedQuery(LabelSymbol("a"), "i", "j")

    def test_rejected_shapes(self):
        # Interior bindings, missing labels, unions over bound atoms,
        # literals: all genuinely need the edge-set algebra.
        assert lower_to_constrained_query(
            join(atom(label="a"), atom(tail="i", label="b"))) is None
        assert lower_to_constrained_query(
            join(atom(tail="i", label="a", head="j"),
                 atom(label="b"))) is None
        assert lower_to_constrained_query(atom(tail="i")) is None
        assert lower_to_constrained_query(
            union(atom(tail="i", label="a"), atom(label="b"))) is None
        assert lower_to_constrained_query(
            star(atom(tail="i", label="a"))) is None


class TestCompiledDfaCache:
    def test_repeat_queries_hit_the_cache(self, diamond):
        engine = Engine(diamond)
        query = "[_, a, _] . [_, b, _]*"
        engine.pairs(query)
        hits0, misses0, size0 = engine.dfa_cache_info()
        assert (misses0, size0) == (1, 1)
        engine.pairs(query)
        engine.pairs(query)
        hits1, misses1, _ = engine.dfa_cache_info()
        assert misses1 == misses0
        assert hits1 == hits0 + 2

    def test_alphabet_change_invalidates(self, diamond):
        engine = Engine(diamond)
        query = "[_, a, _]*"
        engine.pairs(query)
        diamond.add_edge("t", "c", "s")  # new label -> new alphabet
        engine.pairs(query)
        _, misses, size = engine.dfa_cache_info()
        assert misses == 2 and size == 2

    def test_label_preserving_mutation_keeps_the_entry(self, diamond):
        engine = Engine(diamond)
        query = "[_, a, _]*"
        engine.pairs(query)
        diamond.add_edge("t", "a", "s")  # alphabet unchanged
        engine.pairs(query)
        hits, misses, _ = engine.dfa_cache_info()
        assert misses == 1 and hits == 1

    def test_cache_is_lru_bounded(self, diamond):
        engine = Engine(diamond)
        engine._DFA_CACHE_CAP = 4
        for i in range(10):
            engine.compiled_dfa(lconcat(*[sym("a")] * (i + 1)))
        assert engine.dfa_cache_info()[2] == 4


class TestStatisticsRefresh:
    def test_version_keyed_invalidation_catches_same_size_churn(self, diamond):
        engine = Engine(diamond)
        first = engine.statistics()
        assert engine.statistics() is first  # no mutation: cached
        # remove+add keeps size() constant but shifts the histogram — the
        # old size-keyed cache served stale statistics here.
        diamond.remove_edge("m1", "b", "m1")
        diamond.add_edge("m1", "a", "m1")
        refreshed = engine.statistics()
        assert refreshed is not first
        assert refreshed.label_histogram["a"] == 3

    def test_degree_profiles(self):
        graph = MultiRelationalGraph([
            ("hub", "a", "x"), ("hub", "a", "y"), ("hub", "a", "z"),
            ("u", "b", "hub"), ("v", "b", "hub"),
        ])
        stats = Engine(graph).statistics()
        a = stats.degree_profile("a")
        assert (a.edges, a.distinct_tails, a.distinct_heads) == (3, 1, 3)
        assert (a.avg_out, a.avg_in, a.max_out) == (3.0, 1.0, 3)
        assert a.out_histogram == {3: 1} and a.in_histogram == {1: 3}
        b = stats.degree_profile("b")
        assert (b.avg_out, b.avg_in) == (1.0, 2.0)
        missing = stats.degree_profile("nope")
        assert missing.edges == 0
        # Growth factors feed the direction model: 'a' fans out, 'b'
        # fans in.
        assert stats.forward_growth(["a"]) > stats.backward_growth(["a"])
        assert stats.backward_growth(["b"]) > stats.forward_growth(["b"])


class TestDirectionChoice:
    def _planner(self, graph, max_length=8):
        return Planner(Engine(graph).statistics(), max_length=max_length)

    def test_unfiltered_symmetric_graph_stays_forward(self):
        graph = uniform_random(40, 160, labels=("a", "b"), seed=3)
        choice = self._planner(graph).choose_rpq_direction(
            lconcat(sym("a"), lstar(sym("b"))))
        assert choice.direction == "forward"
        assert choice.bidirectional_cost is None  # needs both ends bound

    def test_selective_targets_go_backward(self):
        graph = uniform_random(40, 160, labels=("a", "b"), seed=3)
        choice = self._planner(graph).choose_rpq_direction(
            lstar(sym("a")), num_sources=None, num_targets=1)
        assert choice.direction == "backward"
        assert choice.backward_cost < choice.forward_cost

    def test_point_to_point_goes_bidirectional(self):
        graph = uniform_random(40, 160, labels=("a", "b"), seed=3)
        choice = self._planner(graph).choose_rpq_direction(
            lstar(sym("a")), num_sources=1, num_targets=1)
        assert choice.direction == "bidirectional"
        assert "bidirectional" in choice.describe()

    def test_hub_skew_prefers_the_converging_direction(self):
        # All 'a' edges fan out of one hub: backward steps converge onto
        # it (avg_in = 1) while forward steps explode (avg_out = |E|).
        graph = MultiRelationalGraph(
            [("hub", "a", "v{}".format(i)) for i in range(50)])
        planner = self._planner(graph)
        stats = planner.statistics
        assert stats.forward_growth(["a"]) > stats.backward_growth(["a"])
        choice = planner.choose_rpq_direction(lstar(sym("a")))
        assert choice.direction == "backward"

    def test_oversized_endpoint_sets_disable_bidirectional(self):
        graph = uniform_random(40, 160, labels=("a",), seed=3)
        choice = self._planner(graph).choose_rpq_direction(
            lstar(sym("a")), num_sources=100, num_targets=100)
        assert choice.bidirectional_cost is None

    def test_shared_sweep_is_priced_per_batch_not_per_seed(self):
        # The size of the observatory's dense sweep graph: the shared
        # walk expands 3114 configurations for all-sources T1, one BFS
        # per seed 170 712; the estimate used to read 1.6e6.
        graph = uniform_random(450, 3600, labels=("a", "b", "c"), seed=7)
        planner = self._planner(graph)
        t1 = lconcat(sym("a"), lstar(sym("b")))
        growth = planner.statistics.forward_growth(t1.symbols())
        lone = planner._cone_cost(1.0, growth, 8, 1350)
        choice = planner.choose_rpq_direction(t1, states=3)
        assert choice.direction == "forward"
        assert planner._cone_cost(450, growth, 8, 1350) \
            < choice.forward_cost == _SHARED_MIN_SEEDS * lone < 1e5
        assert "shared sweep: 450 seeds in 1 batch(es)" in choice.describe()
        wide = planner.choose_rpq_direction(
            t1, num_sources=2 * _SHARED_BATCH + 3, num_targets=1, states=3)
        assert wide.direction == "backward"
        assert wide.forward_cost == 3 * choice.forward_cost
        assert "per-seed sweep" in wide.describe()
        # The price never falls when a seed is added, so a few sources
        # are not traded for a sweep from every target (which measured
        # 3-7x slower here): the observatory's 8-source warm-up query.
        costs = [planner.choose_rpq_direction(t1, num_sources=count,
                                              states=3).forward_cost
                 for count in range(1, 2 * _SHARED_MIN_SEEDS)]
        assert costs == sorted(costs)
        assert costs[_SHARED_MIN_SEEDS - 2] == (_SHARED_MIN_SEEDS - 1) * lone
        for count in (4, 8, _SHARED_MIN_SEEDS - 1):
            assert planner.choose_rpq_direction(
                t1, num_sources=count, states=3).direction == "forward"

    def test_cold_mix_picks_on_the_serve_graph_are_unchanged(self):
        # The four selective shapes serve_cold_selective sends, on its
        # graph: repricing the broad side must not flip a selective pick.
        graph = uniform_random(1500, 12000, labels=("a", "b", "c"), seed=7)
        engine = Engine(graph)
        one, other, *more = sorted(graph.vertices())[:5]
        t1 = "[_, a, _] . [_, b, _]*"
        t3 = "([_, a, _] | [_, b, _])* . [_, c, _]"
        for query, sources, targets, pick in (
                (t1, {one}, None, "forward"),
                (t1, {one}, {other}, "bidirectional"),
                (t3, {one, *more}, None, "forward"),
                (t1, None, {one}, "backward")):
            text = engine.explain(
                query, sources=sources and frozenset(sources),
                targets=targets and frozenset(targets), processes=1)
            assert "pairs direction: direction={} ".format(pick) in text
            assert ("per-seed sweep" in text) == (pick != "bidirectional")


class TestEnginePairsDirectional:
    @pytest.fixture
    def dag_engine(self):
        """A random DAG so the bounded automaton fallback is exhaustive."""
        rng = random.Random(41)
        graph = MultiRelationalGraph()
        for v in range(12):
            graph.add_vertex(v)
        while graph.size() < 22:
            tail, head = sorted(rng.sample(range(12), 2))
            graph.add_edge(tail, rng.choice(("a", "b")), head)
        return Engine(graph, default_max_length=12)

    QUERIES = [
        "[3, a, _] . [_, b, _]*",
        "[_, a, _]* . [_, b, 9]",
        "[3, a, _] . [_, a, _]* . [_, b, 9]",
        "[3, a, 5]",
        "[_, a, _]*",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_fast_path_matches_automaton_fallback(self, dag_engine, query):
        # max_length routes through the bounded automaton strategy; on a
        # DAG with bound >= |V| that enumeration is exhaustive, so the
        # unbounded kernels must agree exactly.
        assert dag_engine.pairs(query) == \
            dag_engine.pairs(query, max_length=12), query

    @pytest.mark.parametrize("query", QUERIES)
    def test_parity_under_endpoint_filters(self, dag_engine, query):
        sources = frozenset({0, 3, 4, "ghost"})
        targets = frozenset({5, 9, 11, "ghost"})
        fast = dag_engine.pairs(query, sources=sources, targets=targets)
        slow = dag_engine.pairs(query, sources=sources, targets=targets,
                                max_length=12)
        assert fast == slow, query

    def test_nullable_reflexive_parity_with_filters(self, dag_engine):
        query = "[_, a, _]*"
        sources = frozenset({1, 2, "ghost"})
        fast = dag_engine.pairs(query, sources=sources)
        slow = dag_engine.pairs(query, sources=sources, max_length=12)
        assert fast == slow
        assert ("ghost", "ghost") not in fast
        assert (1, 1) in fast
        # Reflexive pairs must clear the *target* filter too, on both paths.
        assert dag_engine.pairs(query, sources=frozenset({1}),
                                targets=frozenset({2})) == \
            dag_engine.pairs(query, sources=frozenset({1}),
                             targets=frozenset({2}), max_length=12)

    def test_bound_vertex_conflicting_filter_is_empty(self, dag_engine):
        assert dag_engine.pairs("[3, a, _]",
                                sources=frozenset({4})) == frozenset()
        assert dag_engine.pairs("[3, a, _]", sources=frozenset({4}),
                                max_length=12) == frozenset()

    def test_vertex_bound_query_matches_reference_kernel(self):
        graph = uniform_random(40, 200, labels=("a", "b"), seed=13)
        engine = Engine(graph)
        source = sorted(graph.vertices(), key=repr)[0]
        fast = engine.pairs("[{}, a, _] . [_, b, _]*".format(source))
        reference = rpq_pairs_basic(
            graph, lconcat(sym("a"), lstar(sym("b"))),
            sources=frozenset({source}))
        assert fast == reference

    def test_ineligible_expression_still_falls_back(self, dag_engine):
        # A literal needs the edge-set algebra; pairs() must still answer.
        graph = dag_engine.graph
        edge = sorted(graph.edge_set(), key=repr)[0]
        expression = join(
            literal((edge.tail, edge.label, edge.head)),
            atom(label="a"))
        pairs = dag_engine.pairs(expression)
        assert all(s == edge.tail for s, _ in pairs)

    def test_explain_reports_direction_for_filters(self, dag_engine):
        text = dag_engine.explain("[3, a, _] . [_, b, 9]")
        assert "vertex-bound lowering (source=3, target=9)" in text
        assert "pairs direction: direction=bidirectional" in text
        conflicting = dag_engine.explain("[3, a, _]",
                                         sources=frozenset({4}))
        assert "endpoint filters exclude the bound vertex" in conflicting
