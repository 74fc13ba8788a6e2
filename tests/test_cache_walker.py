"""Tests for the query cache, graph versioning, the grammar walker, and HITS."""

import pytest

from repro.automata import Recognizer, generate_paths
from repro.datasets.paper import figure1_expression, figure1_graph
from repro.engine import Engine, QueryCache
from repro.graph.graph import MultiRelationalGraph
from repro.regex import atom, join, star
from repro.walker import GrammarWalker

QUERY = "[i, alpha, _] . [_, beta, _]* . (([_, alpha, j] . {(j, alpha, i)}) | [_, alpha, k])"


class TestGraphVersioning:
    def test_version_starts_and_grows(self):
        g = MultiRelationalGraph()
        v0 = g.version()
        g.add_edge("a", "r", "b")
        assert g.version() > v0

    def test_every_mutation_bumps(self):
        g = MultiRelationalGraph([("a", "r", "b")])
        checkpoints = [g.version()]
        g.add_vertex("c")
        checkpoints.append(g.version())
        g.set_vertex_property("c", "k", 1)
        checkpoints.append(g.version())
        g.set_edge_property("a", "r", "b", "k", 1)
        checkpoints.append(g.version())
        g.remove_edge("a", "r", "b")
        checkpoints.append(g.version())
        g.remove_vertex("c")
        checkpoints.append(g.version())
        assert checkpoints == sorted(set(checkpoints))

    def test_reads_do_not_bump(self):
        g = MultiRelationalGraph([("a", "r", "b")])
        version = g.version()
        g.edges(label="r")
        g.vertices()
        g.out_degree("a")
        assert g.version() == version


class TestQueryCache:
    @pytest.fixture
    def engine(self):
        return Engine(figure1_graph(), default_max_length=6,
                      cache=QueryCache(capacity=8))

    def test_second_query_hits(self, engine):
        first = engine.query(QUERY)
        second = engine.query(QUERY)
        assert second.paths == first.paths
        assert engine.cache.hits == 1

    def test_cached_result_reports_zero_elapsed(self, engine):
        engine.query(QUERY)
        assert engine.query(QUERY).elapsed == 0.0

    def test_mutation_invalidates(self, engine):
        before = engine.query(QUERY).paths
        engine.graph.add_edge("i", "alpha", "extra")
        engine.graph.add_edge("extra", "alpha", "k")
        after = engine.query(QUERY).paths
        assert engine.cache.hits == 0
        assert before < after  # new paths through 'extra'

    def test_mutation_during_evaluation_is_not_cached_as_current(
            self, engine, monkeypatch):
        """A result computed at version N is filed under N, even when a
        writer bumps the graph to N+1 before the evaluation returns."""
        import repro.engine.engine as engine_module
        real = engine_module.run_strategy

        def racing(strategy, graph, *args):
            paths = real(strategy, graph, *args)
            graph.add_edge("i", "alpha", "extra")
            graph.add_edge("extra", "alpha", "k")
            return paths

        monkeypatch.setattr(engine_module, "run_strategy", racing)
        stale = engine.query(QUERY).paths
        monkeypatch.undo()
        fresh = engine.query(QUERY)
        assert engine.cache.hits == 0
        assert stale < fresh.paths  # recomputed: sees the paths via 'extra'

    def test_different_bounds_cached_separately(self, engine):
        engine.query(QUERY, max_length=4)
        engine.query(QUERY, max_length=6)
        assert engine.cache.misses == 2
        engine.query(QUERY, max_length=4)
        assert engine.cache.hits == 1

    def test_limit_queries_bypass_cache(self, engine):
        engine.query(QUERY, strategy="streaming", limit=2)
        engine.query(QUERY, strategy="streaming", limit=2)
        assert len(engine.cache) == 0

    def test_lru_eviction(self):
        cache = QueryCache(capacity=2)
        expressions = [atom(label=str(k)) for k in range(3)]
        for expr in expressions:
            cache.put(expr, 4, 0, "materialized", None or __import__(
                "repro.core.pathset", fromlist=["PathSet"]).PathSet())
        assert len(cache) == 2
        assert cache.get(expressions[0], 4, 0, "materialized") is None

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            QueryCache(capacity=0)

    def test_shared_cache_distinguishes_graphs(self):
        # Two engines sharing one cache over different graphs that agree on
        # version() must not serve each other's results: the key embeds a
        # per-graph identity token.
        g1 = MultiRelationalGraph([("a", "r", "b")])
        g2 = MultiRelationalGraph([("a", "r", "c")])
        assert g1.version() == g2.version()  # the collision the token fixes
        assert g1.graph_token() != g2.graph_token()
        shared = QueryCache(capacity=8)
        e1 = Engine(g1, cache=shared)
        e2 = Engine(g2, cache=shared)
        first = e1.query("[_, r, _]").paths
        second = e2.query("[_, r, _]").paths
        assert shared.hits == 0  # g2's query must MISS, not reuse g1's entry
        assert first != second
        assert {p.head for p in first} == {"b"}
        assert {p.head for p in second} == {"c"}

    def test_clear(self, engine):
        engine.query(QUERY)
        engine.cache.clear()
        assert len(engine.cache) == 0
        assert engine.cache.hits == 0

    def test_bounded_pairs_files_only_its_pair_answer(self):
        # A bounded read runs a kernel over the automaton its bound cuts:
        # one pair answer is filed, under the bound, and nothing else.
        graph = MultiRelationalGraph(
            [(i, "a", (i + 1) % 12) for i in range(12)])
        engine = Engine(graph, cache=QueryCache(16))
        assert engine.route(engine.compile("[_, a, _]*"),
                            max_length=8).kernel == "forward"
        assert len(engine.pairs("[_, a, _]*", max_length=8)) == 12 * 9
        assert [key[0] for key in engine.cache._entries] == ["pairs"]
        assert len(engine.pairs("[_, a, _]*")) == 144  # its own entry

    def test_sources_and_targets_key_the_cache(self, engine):
        """PR 7 regression: sources/targets entered ``pairs()`` in PR 3
        but the cache key never learned them, so a source-restricted call
        could poison the unrestricted answer (and vice versa)."""
        full = engine.pairs("[_, alpha, _]")
        restricted = engine.pairs("[_, alpha, _]", sources=["i"])
        assert restricted < full
        # Both answers must round-trip through the cache unmixed.
        assert engine.pairs("[_, alpha, _]") == full
        assert engine.pairs("[_, alpha, _]", sources=["i"]) == restricted
        assert engine.pairs("[_, alpha, _]", targets=["j"]) < full
        assert engine.cache.hits == 2

    def test_cache_get_distinguishes_endpoint_sets(self):
        cache = QueryCache(capacity=8)
        expr = atom(label="r")
        cache.put(expr, 4, 0, "pairs", frozenset({("a", "b")}),
                  sources=frozenset({"a"}), kind="pairs")
        assert cache.get(expr, 4, 0, "pairs",
                         sources=frozenset({"a"}), kind="pairs") is not None
        assert cache.get(expr, 4, 0, "pairs", kind="pairs") is None
        assert cache.get(expr, 4, 0, "pairs",
                         sources=frozenset({"z"}), kind="pairs") is None
        assert cache.get(expr, 4, 0, "pairs", sources=frozenset({"a"}),
                         targets=frozenset({"b"}), kind="pairs") is None

    def test_newer_version_purges_that_graphs_older_entries(self):
        cache = QueryCache(capacity=8)
        answer = frozenset({("a", "b")})
        exprs = [atom(label=str(k)) for k in range(3)]
        for expr in exprs:
            cache.put(expr, None, 4, "pairs", answer, graph_token=1,
                      kind="pairs")
        cache.put(exprs[0], None, 4, "pairs", answer, graph_token=2,
                  kind="pairs")
        assert len(cache) == 4
        # First put at version 5 for graph 1: its version-4 entries go,
        # graph 2's version-4 entry stays.
        cache.put(exprs[0], None, 5, "pairs", answer, graph_token=1,
                  kind="pairs")
        assert len(cache) == cache.stats()["entries"] == 2
        for expr in exprs:
            assert cache.get(expr, None, 4, "pairs", graph_token=1,
                             kind="pairs") is None
        assert cache.get(exprs[0], None, 5, "pairs", graph_token=1,
                         kind="pairs") == answer
        assert cache.get(exprs[0], None, 4, "pairs", graph_token=2,
                         kind="pairs") == answer
        # Further puts at the live version accumulate as before.
        cache.put(exprs[1], None, 5, "pairs", answer, graph_token=1,
                  kind="pairs")
        assert len(cache) == 3

    def test_late_put_below_latest_version_stores_nothing(self):
        # A reader that raced a writer finishes its version-4 answer after
        # version 5 was cached: nobody can ask for it again.
        cache = QueryCache(capacity=8)
        expr = atom(label="r")
        cache.put(expr, None, 5, "pairs", frozenset(), graph_token=1,
                  kind="pairs")
        cache.put(expr, None, 4, "pairs", frozenset({("a", "b")}),
                  graph_token=1, kind="pairs")
        assert len(cache) == cache.stats()["entries"] == 1
        assert cache.get(expr, None, 4, "pairs", graph_token=1,
                         kind="pairs") is None
        # Another graph at version 4 is not "late".
        cache.put(expr, None, 4, "pairs", frozenset(), graph_token=2,
                  kind="pairs")
        assert len(cache) == 2

    def test_mutate_then_query_holds_only_the_live_version(self):
        graph = MultiRelationalGraph(
            [(i, "r", (i + 1) % 12) for i in range(12)])
        engine = Engine(graph, cache=QueryCache(capacity=64))
        queries = [("[_, r, _]", [i]) for i in range(4)]
        for round_number in range(6):
            graph.add_edge(round_number, "s", round_number + 1)
            for text, sources in queries:
                assert engine.pairs(text, sources=sources) == \
                    engine.pairs(text, sources=sources)
            assert len(engine.cache) == len(queries)
        assert engine.cache.hits == 6 * len(queries)

    def test_pairs_and_query_results_never_collide(self, engine):
        """The ``kind`` component keeps frozenset pair answers and PathSet
        query answers apart even for the same expression and bound."""
        pairs = engine.pairs("[_, alpha, _]", max_length=6)
        result = engine.query("[_, alpha, _]", max_length=6)
        assert pairs == {(p.tail, p.head) for p in result.paths}
        assert engine.pairs("[_, alpha, _]", max_length=6) == pairs


class TestGrammarWalker:
    @pytest.fixture
    def walker(self):
        return GrammarWalker(figure1_graph(), figure1_expression(), seed=7)

    def test_accepted_walks_are_language_members(self, walker):
        recognizer = Recognizer(figure1_expression(), figure1_graph())
        samples = walker.sample_paths(40, max_steps=8)
        assert samples
        for p in samples:
            assert recognizer.accepts(p)

    def test_deterministic_under_seed(self):
        a = GrammarWalker(figure1_graph(), figure1_expression(), seed=3)
        b = GrammarWalker(figure1_graph(), figure1_expression(), seed=3)
        assert a.sample_paths(20, 8) == b.sample_paths(20, 8)

    def test_different_seeds_differ(self):
        a = GrammarWalker(figure1_graph(), figure1_expression(), seed=1)
        b = GrammarWalker(figure1_graph(), figure1_expression(), seed=2)
        assert a.sample_paths(30, 8) != b.sample_paths(30, 8)

    def test_samples_are_subset_of_generation(self, walker):
        exact = generate_paths(figure1_graph(), figure1_expression(), 8)
        for p in walker.sample_paths(40, max_steps=8):
            assert p in exact

    def test_visit_counts_cover_reachable_core(self, walker):
        counts = walker.visit_counts(100, max_steps=8)
        # Every walk starts i -alpha-> m, so both are visited every time.
        assert counts["i"] >= 100
        assert counts["m"] >= 100

    def test_dead_end_grammar(self):
        g = MultiRelationalGraph([("a", "x", "b")])
        walker = GrammarWalker(g, join(atom(label="x"), atom(label="zz")),
                               seed=0)
        result = walker.walk(max_steps=4)
        assert not result.accepted

    def test_stop_probability_one_is_shortest_biased(self):
        g = MultiRelationalGraph([("a", "x", "a")])
        walker = GrammarWalker(g, star(atom(label="x")), seed=0,
                               stop_probability=1.0)
        result = walker.walk(max_steps=10)
        assert result.accepted
        assert len(result.path) == 0  # epsilon accepted immediately

    def test_acceptance_rate_bounds(self, walker):
        rate = walker.acceptance_rate(30, max_steps=8)
        assert 0.0 <= rate <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            GrammarWalker(figure1_graph(), figure1_expression(),
                          stop_probability=0.0)
        walker = GrammarWalker(figure1_graph(), figure1_expression())
        with pytest.raises(ValueError):
            walker.acceptance_rate(0)


class TestLinkAnalysis:
    def test_hits_against_networkx(self):
        import random
        import networkx as nx
        from repro.algorithms import DiGraph, hits
        rng = random.Random(4)
        edges = set()
        while len(edges) < 50:
            a, b = rng.randrange(14), rng.randrange(14)
            if a != b:
                edges.add((a, b))
        ours_h, ours_a = hits(DiGraph(edges))
        theirs_h, theirs_a = nx.hits(nx.DiGraph(list(edges)),
                                     max_iter=1000, tol=1e-12)
        for v in ours_h:
            assert ours_h[v] == pytest.approx(theirs_h[v], abs=1e-6)
            assert ours_a[v] == pytest.approx(theirs_a[v], abs=1e-6)

    def test_harmonic_against_networkx(self):
        import random
        import networkx as nx
        from repro.algorithms import DiGraph, harmonic_centrality
        rng = random.Random(5)
        edges = set()
        while len(edges) < 40:
            a, b = rng.randrange(12), rng.randrange(12)
            if a != b:
                edges.add((a, b))
        ours = harmonic_centrality(DiGraph(edges))
        theirs = nx.harmonic_centrality(nx.DiGraph(list(edges)))
        for v in ours:
            assert ours[v] == pytest.approx(theirs[v], abs=1e-9)

    def test_hits_empty_graph(self):
        from repro.algorithms import DiGraph, hits
        assert hits(DiGraph()) == ({}, {})

    def test_harmonic_on_line(self):
        from repro.algorithms import DiGraph, harmonic_centrality
        g = DiGraph([("a", "b"), ("b", "c")])
        scores = harmonic_centrality(g)
        assert scores["c"] == pytest.approx(1.0 + 0.5)
        assert scores["a"] == 0.0
