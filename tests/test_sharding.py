"""Degree-balanced seed ranges: structure, serial parity, determinism.

The pool-free half of the fan-out test battery (its multiprocessing
sibling is ``tests/test_parallel.py``): range balancing, tombstone-aware
range seeds, and the executor's in-process merge of {1, 2, 7} seed
ranges — ``processes=k`` with ``min_edges`` above the graph size, so the
k range tasks run serially — against the compact kernels and dict
references, including under delta overlays, and merge determinism.
"""

import random
import sys

import pytest
from counting import counted_calls

from repro.engine.parallel import ParallelExecutor
from repro.graph.compact import adjacency_snapshot
from repro.graph.generators import uniform_random
from repro.graph.sharding import live_ids_in_range, shard_ranges
from repro.rpq import lconcat, lstar, lunion, sym
from repro.rpq.evaluation import compile_rpq, rpq_pairs, rpq_pairs_basic

SHARD_COUNTS = (1, 2, 7)

EXPRESSIONS = {
    "chain": lconcat(sym("a"), sym("b")),
    "star": lconcat(sym("a"), lstar(sym("b"))),
    "union": lunion(lconcat(sym("a"), sym("b")), lstar(sym("c"))),
}


def small_graph(seed=11, vertices=120, edges=900):
    return uniform_random(vertices, edges, labels=("a", "b", "c"), seed=seed)


def in_process_executor(graph, ranges):
    """An executor that splits sweeps into ``ranges`` seed ranges and runs
    them in-process: every graph is below its fan-out floor."""
    return ParallelExecutor(graph, processes=ranges, min_edges=sys.maxsize)


class TestShardRanges:

    def test_ranges_partition_the_slot_space(self):
        degrees = [3, 0, 5, 1, 1, 0, 9, 2, 2, 1]
        for count in (1, 2, 3, 7, 10, 25):
            ranges = shard_ranges(degrees, count)
            assert ranges[0][0] == 0
            assert ranges[-1][1] == len(degrees)
            for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                assert hi == lo
            assert len(ranges) == min(max(count, 1), len(degrees))
            assert all(hi > lo for lo, hi in ranges)

    def test_ranges_balance_by_degree_not_count(self):
        # One huge hub up front: the first shard should own few vertices.
        degrees = [1000] + [1] * 99
        ranges = shard_ranges(degrees, 4)
        lo, hi = ranges[0]
        assert hi - lo < 10
        assert ranges[-1][1] == 100

    def test_degenerate_inputs(self):
        assert shard_ranges([], 4) == [(0, 0)]
        assert shard_ranges([5], 4) == [(0, 1)]
        assert shard_ranges([1, 2, 3], 1) == [(0, 3)]


class TestShardedSnapshot:

    def test_live_ids_in_range_skips_tombstones(self):
        graph = small_graph(seed=3)
        adjacency_snapshot(graph)
        victim = sorted(graph.vertices())[4]
        graph.remove_vertex(victim)
        view = adjacency_snapshot(graph)
        if getattr(view, "dead_vertices", None):
            dead = next(iter(view.dead_vertices))
            ids = list(live_ids_in_range(view, 0, view.num_slots))
            assert dead not in ids
            assert len(ids) == view.num_slots - len(view.dead_vertices)


class TestSerialExecutorParity:
    """Below the fan-out floor: the range tasks and merge, in-process.

    The single-core half of the differential battery: evaluation split
    over {1, 2, 7} seed ranges must equal the unsplit compact kernels and
    the dict references, including under delta overlays.
    """

    @pytest.mark.parametrize("count", SHARD_COUNTS)
    def test_rpq_pairs_matches_kernels_and_reference(self, count):
        graph = small_graph(seed=21)
        executor = in_process_executor(graph, count)
        for expression in EXPRESSIONS.values():
            dfa = compile_rpq(expression, graph)
            split_answer = executor.rpq_pairs(dfa)
            assert split_answer == rpq_pairs(graph, expression)
            assert split_answer == rpq_pairs_basic(graph, expression)
        assert executor._pool is None  # the ranges ran in-process
        executor.close()

    def test_parts_sets_the_range_count_and_degrees_run_once(self):
        # An Engine's one executor splits each read into the ranges its
        # ``processes`` names; reads alternating their count at one
        # version share one degree pass.
        import repro.engine.parallel as parallel
        graph = small_graph(seed=25)
        expression = EXPRESSIONS["star"]
        dfa = compile_rpq(expression, graph)
        want = rpq_pairs_basic(graph, expression)
        executor = in_process_executor(graph, 2)
        entries = [("degrees", parallel, "row_degrees"),
                   (lambda degrees, parts: parts, parallel, "shard_ranges")]
        with counted_calls(entries) as counts:
            for parts in (3, 1, 7, 3):
                assert executor.rpq_pairs(dfa, parts=parts) == want
        assert counts == {"degrees": 1, 3: 2, 1: 1, 7: 1}
        executor.close()

    @pytest.mark.parametrize("count", SHARD_COUNTS)
    def test_rpq_pairs_with_endpoint_filters(self, count):
        graph = small_graph(seed=23)
        vertices = sorted(graph.vertices())
        sources = frozenset(vertices[::5])
        targets = frozenset(vertices[::7])
        expression = EXPRESSIONS["star"]
        dfa = compile_rpq(expression, graph)
        executor = in_process_executor(graph, count)
        got = executor.rpq_pairs(dfa, sources=sources, targets=targets)
        want = rpq_pairs(graph, expression, sources=sources, targets=targets)
        assert got == want
        assert executor.rpq_pairs(dfa, sources=frozenset()) == frozenset()
        executor.close()

    @pytest.mark.parametrize("count", SHARD_COUNTS)
    def test_rpq_parity_under_delta_overlays(self, count):
        graph = small_graph(seed=29)
        expression = EXPRESSIONS["star"]
        adjacency_snapshot(graph)
        rng = random.Random(31)
        vertices = sorted(graph.vertices())
        executor = in_process_executor(graph, count)
        for step in range(8):
            tail, head = rng.choice(vertices), rng.choice(vertices)
            if graph.has_edge(tail, "b", head):
                graph.remove_edge(tail, "b", head)
            else:
                graph.add_edge(tail, "b", head)
            dfa = compile_rpq(expression, graph)
            assert executor.rpq_pairs(dfa) == \
                rpq_pairs_basic(graph, expression)
        executor.close()


class TestMergeDeterminism:

    def test_rpq_identical_across_shard_counts(self):
        graph = small_graph(seed=47)
        expression = EXPRESSIONS["union"]
        dfa = compile_rpq(expression, graph)
        answers = set()
        for count in SHARD_COUNTS:
            executor = in_process_executor(graph, count)
            answers.add(executor.rpq_pairs(dfa))
            executor.close()
        assert len(answers) == 1
