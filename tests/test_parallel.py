"""The parallel fan-out executor: real worker pools, merge parity, reuse.

The multiprocessing half of the sharding battery (the pool-free half is
``tests/test_sharding.py``): every test here actually forks workers (two,
to stay CI-friendly) and asserts that sharded-parallel evaluation equals
the single-core compact kernels and dict references across shard counts
{1, 2, 7} and under delta overlays, that one executor survives graph
mutations (stale state invalidated by ``version()``), and that the
engine-level plumbing (``pairs``, ``pairs_batch``, ``query``,
``cache_stats``, EXPLAIN) routes through it correctly.

Forced low thresholds (``min_edges=0``) keep the graphs small; platforms
without the ``fork`` start method skip the pool-backed tests — the serial
fallback they would degrade to is covered by the sibling module.
"""

import random

import pytest

from repro.algorithms.digraph import DiGraph
from repro.engine import Engine
from repro.engine.parallel import ParallelExecutor, fork_available
from repro.graph.compact import _SHARED_BATCH, adjacency_snapshot
from repro.graph.generators import uniform_random
from repro.rpq import lconcat, lstar, sym
from repro.rpq.evaluation import compile_rpq, rpq_pairs, rpq_pairs_basic

needs_fork = pytest.mark.skipif(
    not fork_available(),
    reason="inline worker mode needs the fork start method")

STAR = lconcat(sym("a"), lstar(sym("b")))


def small_graph(seed=11, vertices=150, edges=1100):
    return uniform_random(vertices, edges, labels=("a", "b", "c"), seed=seed)


def pool_executor(graph, **kwargs):
    kwargs.setdefault("processes", 2)
    kwargs.setdefault("min_edges", 0)
    return ParallelExecutor(graph, **kwargs)


@needs_fork
class TestParallelDifferential:

    @pytest.mark.parametrize("count", (1, 2, 7))
    def test_rpq_matches_kernels_and_reference_under_churn(self, count):
        graph = small_graph(seed=3)
        adjacency_snapshot(graph)
        rng = random.Random(7)
        vertices = sorted(graph.vertices())
        with pool_executor(graph, num_shards=count) as executor:
            for step in range(5):
                tail, head = rng.choice(vertices), rng.choice(vertices)
                if graph.has_edge(tail, "b", head):
                    graph.remove_edge(tail, "b", head)
                else:
                    graph.add_edge(tail, "b", head)
                dfa = compile_rpq(STAR, graph)
                answer = executor.rpq_pairs(dfa)
                assert answer == rpq_pairs(graph, STAR)
                assert answer == rpq_pairs_basic(graph, STAR)

    def test_parallel_equals_serial_with_filters(self):
        graph = small_graph(seed=13)
        vertices = sorted(graph.vertices())
        sources = frozenset(vertices[::3])
        targets = frozenset(vertices[::5])
        dfa = compile_rpq(STAR, graph)
        with pool_executor(graph, num_shards=3) as parallel:
            got = parallel.rpq_pairs(dfa, sources=sources, targets=targets)
        serial = ParallelExecutor(graph, processes=1, num_shards=3)
        assert got == serial.rpq_pairs(dfa, sources=sources, targets=targets)
        serial.close()

    def test_worker_ranges_wider_than_a_shared_batch(self):
        # Two workers over > 2 batches of sources: each ("range", lo, hi)
        # slice is swept as several mask batches inside its worker.
        graph = uniform_random(2 * _SHARED_BATCH + 150, 2600,
                               labels=("a", "b", "c"), seed=17)
        dfa = compile_rpq(STAR, graph)
        with pool_executor(graph, num_shards=2) as executor:
            answer = executor.rpq_pairs(dfa)
            stats = executor.stats()
            assert stats["pool_live"] and not stats["serial_fallbacks"]
        assert answer == rpq_pairs_basic(graph, STAR)

    def test_pagerank_parallel_is_bit_identical_to_serial(self):
        graph = small_graph(seed=17)
        serial = ParallelExecutor(graph, processes=1, num_shards=4)
        want = serial.pagerank(tolerance=1.0e-12)
        serial.close()
        with pool_executor(graph, num_shards=4) as executor:
            got = executor.pagerank(tolerance=1.0e-12)
        assert got == want  # bit-for-bit: shard-ordered float merge

    def test_more_shards_and_processes_than_vertices(self):
        # shard_ranges clamps to the vertex count: 4 shards over 3
        # vertices run as 3 tasks on a 4-worker pool.
        graph = uniform_random(3, 4, labels=("a",), seed=89)
        expression = lstar(sym("a"))
        dfa = compile_rpq(expression, graph)
        serial = ParallelExecutor(graph, processes=1, num_shards=4)
        want = serial.pagerank(tolerance=1.0e-10)
        serial.close()
        with pool_executor(graph, processes=4, num_shards=4) as executor:
            assert executor.rpq_pairs(dfa) == rpq_pairs(graph, expression)
            assert executor.pagerank(tolerance=1.0e-10) == want
            stats = executor.stats()
            assert stats["pool_live"] and not stats["serial_fallbacks"]

    def test_bfs_batch_parallel_matches_digraph(self):
        rng = random.Random(19)
        digraph = DiGraph()
        for v in range(200):
            digraph.add_vertex(v)
        while digraph.size() < 1500:
            digraph.add_edge(rng.randrange(200), rng.randrange(200))
        sources = list(range(0, 200, 3))
        with pool_executor(digraph) as executor:
            got = executor.bfs_distances(sources)
        assert got == {s: digraph.bfs_distances(s) for s in sources}


@needs_fork
class TestPoolLifecycle:

    def test_one_executor_survives_graph_mutations(self):
        """Fork safety: stale shard state is invalidated by version()."""
        graph = small_graph(seed=23)
        with pool_executor(graph, num_shards=2) as executor:
            for step in range(4):
                dfa = compile_rpq(STAR, graph)
                assert executor.rpq_pairs(dfa) == \
                    rpq_pairs_basic(graph, STAR)
                ranks = executor.pagerank(tolerance=1.0e-10)
                serial = ParallelExecutor(graph, processes=1, num_shards=2)
                assert ranks == serial.pagerank(tolerance=1.0e-10)
                serial.close()
                graph.add_edge("m{}".format(step), "a",
                               sorted(graph.vertices(), key=repr)[0])

    def test_stale_inline_pool_is_replaced_not_reused(self):
        graph = small_graph(seed=29)
        with pool_executor(graph, num_shards=2) as executor:
            dfa = compile_rpq(STAR, graph)
            executor.rpq_pairs(dfa)
            first_key = executor._pool_key
            graph.add_edge(0, "a", 1)
            executor.rpq_pairs(compile_rpq(STAR, graph))
            assert executor._pool_key != first_key

    def test_concurrent_executors_do_not_cross_payloads(self):
        graph_a = small_graph(seed=31)
        graph_b = small_graph(seed=37, vertices=80, edges=500)
        dfa_a = compile_rpq(STAR, graph_a)
        dfa_b = compile_rpq(STAR, graph_b)
        with pool_executor(graph_a) as a, pool_executor(graph_b) as b:
            assert a.rpq_pairs(dfa_a) == rpq_pairs_basic(graph_a, STAR)
            assert b.rpq_pairs(dfa_b) == rpq_pairs_basic(graph_b, STAR)
            assert a.rpq_pairs(dfa_a) == rpq_pairs_basic(graph_a, STAR)

    def test_close_is_idempotent_and_releases_payload(self):
        from repro.engine import parallel as parallel_module
        graph = small_graph(seed=41)
        executor = pool_executor(graph)
        executor.rpq_pairs(compile_rpq(STAR, graph))
        token = executor._token
        assert token in parallel_module._FORK_PAYLOADS
        executor.close()
        executor.close()
        assert token not in parallel_module._FORK_PAYLOADS

    def test_close_joins_live_pool_without_terminate(self):
        """PR 7 regression: close() used to go straight to terminate(),
        killing workers mid-write.  A live idle pool must drain via
        close()/join(); terminate() is only the timeout fallback."""
        graph = small_graph(seed=47)
        executor = pool_executor(graph)
        executor.rpq_pairs(compile_rpq(STAR, graph))
        pool = executor._pool
        assert pool is not None
        terminated = []
        original_terminate = pool.terminate
        pool.terminate = lambda: (terminated.append(True),
                                  original_terminate())[-1]
        executor.close()
        assert terminated == []
        assert executor._pool is None

    def test_engine_close_releases_pool_idempotently(self):
        """Engine.close() with a live pool is graceful and repeatable."""
        graph = small_graph(seed=53)
        engine = Engine(graph)
        answer = engine.pairs("[_, a, _] . [_, b, _]*", processes=2)
        assert answer == rpq_pairs_basic(graph, STAR)
        engine.close()
        engine.close()
        # The engine stays usable for serial evaluation after close.
        assert engine.pairs("[_, a, _] . [_, b, _]*") == answer


@needs_fork
class TestEnginePlumbing:

    QUERY = "[_, a, _] . [_, b, _]*"

    def test_pairs_with_processes_matches_serial(self):
        graph = small_graph(seed=47)
        engine = Engine(graph)
        try:
            want = engine.pairs(self.QUERY)
            assert engine.pairs(self.QUERY, processes=2) == want
            assert engine.pairs(self.QUERY, processes=1) == want
        finally:
            engine.close()

    def test_pairs_batch_keeps_order_and_parity(self):
        graph = small_graph(seed=53)
        queries = [self.QUERY, "[_, c, _]", "[0, a, _] . [_, b, _]*",
                   self.QUERY]
        engine = Engine(graph)
        try:
            want = [engine.pairs(q) for q in queries]
            got = engine.pairs_batch(queries, processes=2)
            assert got == want
            assert engine.pairs_batch(queries) == want
        finally:
            engine.close()

    def test_batch_shares_one_pool_dispatch(self, monkeypatch):
        # Two fan-out members and one that cannot be split: the batch
        # still reaches the pool exactly once, with both DFAs.
        graph = small_graph(seed=53)
        queries = [self.QUERY, "[0, a, _] . [_, b, _]*", "[_, c, _]"]
        dispatched = []
        original = ParallelExecutor.rpq_pairs_batch

        def counted(executor, dfas, **filters):
            dispatched.append(len(dfas))
            return original(executor, dfas, **filters)

        monkeypatch.setattr(ParallelExecutor, "rpq_pairs_batch", counted)
        engine = Engine(graph)
        try:
            got = engine.pairs_batch(queries, processes=2)
            assert dispatched == [2]
            assert got == [engine.pairs(q) for q in queries]
        finally:
            engine.close()

    def test_deadline_batch_goes_item_by_item_through_public_pairs(self):
        # AsyncEngine's deadline mode checks the budget between members,
        # so it must keep calling the public Engine.pairs (which tests
        # and operators wrap), never the batch loop.
        import asyncio

        from repro.service import AsyncEngine
        graph = small_graph(seed=53)
        queries = [self.QUERY, "[_, c, _]", "[0, a, _] . [_, b, _]*"]
        engine = Engine(graph)
        want = [engine.pairs(q) for q in queries]
        seen = []
        original = engine.pairs

        def public_pairs(expression, **options):
            seen.append(options["processes"])
            return original(expression, **options)

        engine.pairs = public_pairs
        engine.pairs_batch = None  # must not be reached under a deadline

        async def run():
            async with AsyncEngine(engine, max_workers=2) as service:
                return await service.pairs_batch(queries, processes=1,
                                                 deadline=30.0)

        assert asyncio.run(run()) == want
        assert seen == [1] * len(queries)

    def test_query_automaton_fan_out_matches_serial(self):
        graph = small_graph(seed=59)
        engine = Engine(graph)
        try:
            serial = engine.query(self.QUERY, strategy="automaton",
                                  max_length=2)
            fanned = engine.query(self.QUERY, strategy="automaton",
                                  max_length=2, processes=2)
            assert fanned.paths == serial.paths
        finally:
            engine.close()

    def test_explain_reports_parallelism_and_caches(self):
        graph = small_graph(seed=61)
        engine = Engine(graph)
        try:
            text = engine.explain(self.QUERY, processes=2)
            assert "pairs parallelism: parallel, 2 process(es) x 2 " \
                   "shard(s)" in text
            assert "caches: dfa" in text
            text = engine.explain(self.QUERY)
            assert "pairs parallelism:" in text
            selective = engine.explain(
                "[0, a, _] . [_, b, _]*",
                sources=frozenset([0]), processes=2)
            assert "single-core" in selective or "n/a" in selective
        finally:
            engine.close()

    def test_cache_stats_shape(self):
        from repro.engine import QueryCache
        graph = small_graph(seed=67)
        engine = Engine(graph, cache=QueryCache(capacity=4))
        try:
            engine.query(self.QUERY, strategy="automaton", max_length=2)
            engine.query(self.QUERY, strategy="automaton", max_length=2)
            stats = engine.cache_stats()
            assert set(stats) == {"dfa_cache", "query_cache"}
            assert stats["query_cache"]["hits"] == 1
            assert stats["query_cache"]["capacity"] == 4
            assert stats["dfa_cache"]["capacity"] == Engine._DFA_CACHE_CAP
            uncached = Engine(graph)
            assert uncached.cache_stats()["query_cache"] is None
        finally:
            engine.close()


class TestSerialFallbackEverywhere:
    """The executor must answer correctly even where pools cannot run."""

    def test_processes_one_never_forks(self):
        graph = small_graph(seed=71)
        executor = ParallelExecutor(graph, processes=1)
        dfa = compile_rpq(STAR, graph)
        assert executor.rpq_pairs(dfa) == rpq_pairs_basic(graph, STAR)
        assert executor._pool is None
        executor.close()

    def test_tiny_graph_stays_serial_despite_processes(self):
        graph = uniform_random(20, 60, labels=("a", "b"), seed=73)
        executor = ParallelExecutor(graph, processes=2)  # default min_edges
        dfa = compile_rpq(STAR, graph)
        assert executor.rpq_pairs(dfa) == rpq_pairs_basic(graph, STAR)
        assert executor._pool is None
        executor.close()

