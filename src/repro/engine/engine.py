"""The multi-relational graph traversal engine — the paper's closing goal.

:class:`Engine` ties the layers together: PathQL text (or a regex AST) in,
paths out, with strategy selection, cost-based planning, EXPLAIN output and
section IV-C projection as a first-class operation.

The pairs fast path
-------------------
Beyond the four path-materializing strategies, :meth:`Engine.pairs` answers
the *reachability* question — which ``(source, target)`` pairs are connected
by a matching path — without materializing any path.  When the compiled
expression lowers to a :class:`~repro.rpq.ConstrainedQuery` (every atom is
``[_, a, _]``, except that the *first* may bind its tail and the *last* its
head — detected by :func:`repro.rpq.lower_to_constrained_query`), it is
evaluated by the compact product-BFS kernels of :mod:`repro.graph.compact`:
the DFA comes from a per-engine compilation cache keyed on ``(expression,
label alphabet)``, the graph's integer-indexed CSR snapshot from the
version-keyed snapshot cache (patched incrementally after mutations), and
a **direction cost model** (:meth:`Planner.choose_rpq_direction`, driven
by the statistics' per-label degree profiles) picks among three kernels:

* **forward** — product BFS from the sources over the forward CSR (one
  search per source, or one bit-parallel search per batch of many),
* **backward** — the same from the targets over the reverse CSR with the
  DFA's transitions reversed,
* **bidirectional** — meet-in-the-middle between explicit source and
  target sets, expanding whichever frontier is smaller and joining on
  (vertex, state) meets — the point-to-point fast path.

How a read is evaluated is one decision, :meth:`Engine.route` (lower ->
merge endpoint filters with the bound vertices -> pre-flight DFA and
emptiness verdict -> planner direction -> planner parallelism), with five
outcomes: a kernel above runs (or the seed-range fan-out of a forward sweep);
the filters exclude a bound vertex, or pre-flight proved the answer empty
(no kernel at all); the expression binds interior vertices or needs
literals / products; or an explicit ``max_length`` bounds the answer, which
the *unbounded* kernels (true Kleene-star reachability) cannot honor.  The
last two run the bounded ``automaton`` strategy and project endpoints from
the witness paths (:func:`repro.engine.executor.endpoint_pairs` keeps the
filter/reflexive semantics identical).  :meth:`Engine.pairs` and every
:meth:`Engine.pairs_batch` member run that route and ``EXPLAIN`` prints it
(the trailing ``pairs ...`` lines), so what is described is what runs.

Example
-------
>>> from repro.datasets import figure1_graph
>>> from repro.engine import Engine
>>> engine = Engine(figure1_graph())
>>> result = engine.query(
...     "[i, alpha, _] . [_, beta, _]* . "
...     "(([_, alpha, j] . {(j, alpha, i)}) | [_, alpha, k])",
...     max_length=6)
>>> len(result.paths) > 0
True
"""

from __future__ import annotations

import itertools
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.automata.recognizer import Recognizer
from repro.concurrency import ordered_lock
from repro.core.path import Path
from repro.core.pathset import PathSet
from repro.core.projection import BinaryProjection, project_paths
from repro.engine.executor import STRATEGIES, endpoint_pairs, run_strategy
from repro.engine.plan import PlanNode
from repro.engine.planner import PairsRoute, Planner
from repro.engine.stats import GraphStatistics
from repro.errors import ExecutionError
from repro.graph import compact
from repro.graph.graph import MultiRelationalGraph
from repro.graph.pairs import PairBlocks
from repro.lang.parser import parse
from repro.regex.ast import RegexExpr

__all__ = ["Engine", "QueryResult"]

#: Fallback identity mint for duck-typed graphs without ``graph_token()``.
#: Never ``id(graph)``: CPython recycles addresses, so a collected graph's
#: id can be reissued to a new one with a matching fresh ``version()`` —
#: exactly the shared-cache collision the token exists to prevent.
_ANONYMOUS_TOKENS = itertools.count(1)


def _frozen(vertices) -> Optional[frozenset]:
    """An endpoint filter as the frozenset cache keys and routes carry."""
    return None if vertices is None else frozenset(vertices)


@dataclass
class QueryResult:
    """The outcome of one engine query.

    ``paths`` is the matched path set; ``elapsed`` the wall-clock seconds;
    ``plan`` the physical plan (populated for the materialized strategy, or
    whenever ``explain=True`` was requested); ``strategy`` what ran it.
    """

    paths: PathSet
    expression: RegexExpr
    strategy: str
    max_length: int
    elapsed: float
    plan: Optional[PlanNode] = None

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)

    def heads(self):
        """``{gamma+(a)}`` over the results."""
        return self.paths.heads()

    def tails(self):
        """``{gamma-(a)}`` over the results."""
        return self.paths.tails()

    def projection(self, description: str = "") -> BinaryProjection:
        """Section IV-C projection of the result paths to a binary edge set."""
        return project_paths(self.paths, description=description)

    def explain(self) -> str:
        """The EXPLAIN tree (or a note when the strategy is planless)."""
        if self.plan is None:
            return "(no plan: strategy {!r} executes the expression directly)".format(
                self.strategy)
        return self.plan.explain()

    def __repr__(self) -> str:
        return "QueryResult<{} paths via {} in {:.4f}s>".format(
            len(self.paths), self.strategy, self.elapsed)


class Engine:
    """A traversal engine bound to one graph.

    Parameters
    ----------
    graph:
        The multi-relational graph to query, or a lazy store or replica
        (:class:`~repro.storage.persistent._LogBackedView`): ``pairs``
        over those runs every route but ``bounded``.
    default_max_length:
        Bound applied when a query does not specify one (stars make
        unbounded result sets possible, so a bound always exists).
    optimize:
        Whether the planner reorders join chains (turn off to measure the
        optimizer's benefit — experiment E9 does exactly that).
    """

    #: Compiled-DFA cache capacity (LRU) — bounds memory on engines serving
    #: many distinct query shapes.
    _DFA_CACHE_CAP = 128

    def __init__(self, graph: MultiRelationalGraph,
                 default_max_length: int = 8, optimize: bool = True,
                 cache: Optional["QueryCache"] = None):
        self.graph = graph
        self.default_max_length = default_max_length
        self.optimize = optimize
        self.cache = cache
        # Graph identity for shared result caches: version() alone cannot
        # distinguish two graphs, so cache keys carry this token too.
        token = getattr(graph, "graph_token", None)
        self._graph_token = token() if callable(token) \
            else ("anon", next(_ANONYMOUS_TOKENS))
        self._statistics: Optional[GraphStatistics] = None
        self._statistics_version: Optional[int] = None
        # (label expression, label alphabet) -> compiled DFA, LRU-bounded.
        self._dfa_cache: "OrderedDict" = OrderedDict()
        self._dfa_cache_hits = 0
        self._dfa_cache_misses = 0
        # Lazily created fan-out executor (see repro.engine.parallel), one
        # per engine, its pool at the executor's default size: a call's
        # ``processes`` only sets how many seed ranges (so how many busy
        # workers) its sweep splits into, so no call closes a pool another
        # one is using.  The lock makes racing first fan-outs create one.
        self._parallel = None
        self._parallel_lock = ordered_lock("engine.parallel")

    # ------------------------------------------------------------------

    @classmethod
    def open(cls, directory: str, default_max_length: int = 8,
             optimize: bool = True, cache=None) -> "Engine":
        """An engine over a durable graph store (see :mod:`repro.storage`).

        Opens the store at ``directory`` — mapping its latest CSR snapshot
        and replaying the write-ahead-log suffix — materializes the dict
        indices the path-materializing strategies need (the mapped snapshot
        is adopted as the compact cache, so the ``pairs`` fast path still
        serves from mmap), and binds the engine to the result.  Mutations
        through ``engine.graph`` keep appending to the store's WAL; the
        store handle is exposed as ``engine.store`` for ``checkpoint()`` /
        ``close()``.
        """
        from repro.storage import PersistentGraph
        store = PersistentGraph.open(directory, materialize=True)
        engine = cls(store.graph(), default_max_length=default_max_length,
                     optimize=optimize, cache=cache)
        engine.store = store
        return engine

    def statistics(self) -> GraphStatistics:
        """Current graph statistics, refreshed on ``graph.version()``.

        Keyed on the mutation counter rather than the edge count: a
        remove+add cycle leaves ``size()`` unchanged while shifting label
        histograms and degree profiles, and version-keying also means one
        rebuild per mutation batch instead of comparing structure on every
        access.
        """
        version = self.graph.version()
        if self._statistics is None or self._statistics_version != version:
            self._statistics = GraphStatistics(self.graph)
            self._statistics_version = version
        return self._statistics

    def preflight(self, label_expression) -> "QueryDiagnostics":
        """Pre-flight analysis for a label expression, via the LRU cache.

        Compiles the expression (subset construction), then runs
        :func:`repro.analysis.query.analyze_compiled_query` over it: the
        DFA is minimised (dead, unreachable and equivalent states go; the
        language is unchanged), unknown labels become warnings, and
        provable emptiness — an empty language, or no accepting state
        reachable through labels the graph actually carries — becomes a
        verdict :meth:`pairs` / :meth:`pairs_batch` short-circuit on.

        Keyed by ``(expression, label alphabet)`` — the alphabet frozenset
        is the "alphabet version": mutations that do not add or retire a
        label keep every cached entry valid, so steady-state repeated
        queries pay neither re-determinization nor re-analysis.
        """
        from repro.analysis.query import analyze_compiled_query
        from repro.rpq.evaluation import compile_rpq
        key = (label_expression, self.graph.labels())
        diagnostics = self._dfa_cache.get(key)
        if diagnostics is None:
            self._dfa_cache_misses += 1
            dfa = compile_rpq(label_expression, self.graph)
            diagnostics = analyze_compiled_query(
                dfa, label_expression, self.graph.labels())
            self._dfa_cache[key] = diagnostics
            if len(self._dfa_cache) > self._DFA_CACHE_CAP:
                self._dfa_cache.popitem(last=False)
        else:
            self._dfa_cache_hits += 1
            self._dfa_cache.move_to_end(key)
        return diagnostics

    def compiled_dfa(self, label_expression):
        """The minimal DFA for a label expression, via the LRU cache.

        The automaton comes out of :meth:`preflight`, so it is already
        minimal — same language, smallest product space for the kernels.
        """
        return self.preflight(label_expression).dfa

    def dfa_cache_info(self) -> Tuple[int, int, int]:
        """``(hits, misses, current size)`` of the compiled-DFA cache."""
        return self._dfa_cache_hits, self._dfa_cache_misses, \
            len(self._dfa_cache)

    def cache_stats(self) -> dict:
        """Combined hit/miss/occupancy stats for both engine caches.

        ``dfa_cache`` covers compiled-query reuse (per engine);
        ``query_cache`` covers whole-result reuse (``None`` when the engine
        was built without one).  Surfaced in :meth:`explain` so cache wins
        are observable next to the parallelism decision.
        """
        hits, misses, entries = self.dfa_cache_info()
        stats = {
            "dfa_cache": {"hits": hits, "misses": misses,
                          "entries": entries,
                          "capacity": self._DFA_CACHE_CAP},
            "query_cache": None,
        }
        if self.cache is not None:
            stats["query_cache"] = self.cache.stats()
        return stats

    # -- parallel fan-out plumbing -------------------------------------

    def _executor(self):
        """The engine's one :class:`ParallelExecutor` (``min(cpu,
        MAX_WORKERS)`` workers), created by the first fan-out and kept
        until :meth:`close`."""
        from repro.engine.parallel import ParallelExecutor
        with self._parallel_lock:
            if self._parallel is None:
                self._parallel = ParallelExecutor(self.graph)
            return self._parallel

    def pool_healthy(self) -> bool:
        """Whether the lazy parallel pool (if started) has no dead workers.

        ``True`` when no pool was ever started — a cold engine is healthy,
        not broken.  Used by the service readiness probe.
        """
        with self._parallel_lock:
            executor = self._parallel
        return executor is None or executor.healthy()

    def parallel_stats(self) -> Optional[dict]:
        """Self-healing counters of the live executor, ``None`` if cold."""
        with self._parallel_lock:
            executor = self._parallel
        return None if executor is None else executor.stats()

    def close(self) -> None:
        """Release the parallel worker pool (if one was ever started).

        Idempotent and thread-safe: a server shutdown may race a late
        query's first fan-out, and both may run `close` more than once —
        the pool is drained gracefully exactly once either way (see
        :meth:`ParallelExecutor.close`), so no semaphores or workers leak.
        """
        with self._parallel_lock:
            executor, self._parallel = self._parallel, None
        if executor is not None:
            executor.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def compile(self, query: Union[str, RegexExpr]) -> RegexExpr:
        """PathQL text -> AST (ASTs pass through), algebraically normalized.

        Normalization (see :mod:`repro.engine.rewrite`) simplifies, folds
        constant sub-expressions, and factors shared union prefixes —
        language-preserving by construction and by property test.
        """
        from repro.engine.rewrite import normalize
        expression = parse(query) if isinstance(query, str) else query
        return normalize(expression)

    def plan(self, query: Union[str, RegexExpr],
             max_length: Optional[int] = None) -> PlanNode:
        """The physical plan the materialized strategy would run."""
        expression = self.compile(query)
        planner = Planner(self.statistics(),
                          max_length=max_length or self.default_max_length,
                          optimize_joins=self.optimize)
        return planner.plan(expression)

    def explain(self, query: Union[str, RegexExpr],
                max_length: Optional[int] = None,
                sources: Optional[frozenset] = None,
                targets: Optional[frozenset] = None,
                processes: Optional[int] = None) -> str:
        """EXPLAIN: the annotated plan tree, plus pairs-fast-path routing.

        The trailing lines print the :meth:`route` a :meth:`pairs` call
        with the same arguments would take — the compact product-BFS
        kernels or bounded path materialization, the direction the cost
        model picks for the endpoint filters (with its frontier-work
        estimates), whether the fan-out runs it (over how many
        processes) — then the state of the graph's compact
        snapshot cache (cold, base CSR, or delta overlay awaiting
        compaction) and the engine's cache hit rates — so staleness,
        parallelism and cache wins are all visible next to the plan.

        The output closes with a ``diagnostics:`` section from pre-flight
        analysis (see :mod:`repro.analysis.query`): star-height and DFA
        state-count complexity estimates, pruned-state counts, warnings
        about labels the graph has never seen, and — when the analysis can
        prove it — a "provably empty" verdict, which :meth:`pairs`,
        :meth:`pairs_batch` and :meth:`query` short-circuit on without a
        kernel dispatch.
        """
        from repro.analysis.query import analyze_expression
        expression = self.compile(query)
        text = self.plan(expression, max_length).explain()
        route = self.route(expression, _frozen(sources), _frozen(targets),
                           max_length, processes)
        diagnostics = route.diagnostics
        if diagnostics is None:
            # Not consulted: filters excluded the bound vertex first, or
            # the bounded strategy runs (its pre-flight is structural).
            diagnostics = analyze_expression(expression, self.graph) \
                if route.constrained is None \
                else self.preflight(route.constrained.label_expression)
        snapshot_note = "compact snapshot: " \
            + compact.snapshot_state(self.graph)
        return text + "\n" + route.describe() + "\n" + snapshot_note \
            + "\n" + self._cache_note() + "\n" + diagnostics.describe()

    def _cache_note(self) -> str:
        """The EXPLAIN line summarizing :meth:`cache_stats`."""
        stats = self.cache_stats()
        dfa = stats["dfa_cache"]
        note = "caches: dfa {}/{} hit/miss, {}/{} entries".format(
            dfa["hits"], dfa["misses"], dfa["entries"], dfa["capacity"])
        results = stats["query_cache"]
        if results is None:
            return note + "; results uncached"
        return note + "; results {}/{} hit/miss, {}/{} entries".format(
            results["hits"], results["misses"], results["entries"],
            results["capacity"])

    # -- pairs fast-path plumbing --------------------------------------

    def route(self, expression: RegexExpr,
              sources: Optional[frozenset] = None,
              targets: Optional[frozenset] = None,
              max_length: Optional[int] = None,
              processes: Optional[int] = None) -> PairsRoute:
        """How :meth:`pairs` evaluates one read — decided once, here (see
        the module docstring): :meth:`pairs` / :meth:`pairs_batch` run the
        :class:`~repro.engine.planner.PairsRoute`, :meth:`explain` prints
        it.  ``expression`` is what :meth:`compile` returned; an explicit
        ``max_length`` skips the lowering."""
        from repro.rpq.evaluation import lower_to_constrained_query
        constrained = None if max_length is not None \
            else lower_to_constrained_query(expression)
        if constrained is None:
            return PairsRoute("bounded", None, sources, targets, max_length)
        merged = constrained.merge_filters(sources, targets)
        if merged is None:
            return PairsRoute("none", constrained, sources, targets,
                              empty="endpoint filters exclude the bound "
                                    "vertex (empty result)")
        sources, targets = merged
        diagnostics = self.preflight(constrained.label_expression)
        if diagnostics.empty:
            # Pre-flight proved the answer is empty (empty language, or no
            # accepting state reachable through labels the graph carries).
            return PairsRoute("none", constrained, sources, targets,
                              empty="pre-flight analysis proved the result "
                                    "empty (short-circuit, no kernel "
                                    "dispatch)", diagnostics=diagnostics)
        planner = Planner(self.statistics(),
                          max_length=self.default_max_length,
                          optimize_joins=self.optimize)
        num_sources = None if sources is None else len(sources)
        # The planner caps per-level frontiers at |V| x the minimal DFA's
        # state count (the product space the kernels actually walk).
        direction = planner.choose_rpq_direction(
            constrained.label_expression, num_sources,
            None if targets is None else len(targets),
            states=diagnostics.dfa.num_states)
        parallelism = planner.choose_parallelism(num_sources, processes,
                                                 direction.direction)
        return PairsRoute(
            "fan-out" if parallelism.parallel else direction.direction,
            constrained, sources, targets, diagnostics=diagnostics,
            direction=direction, parallelism=parallelism)

    def _run(self, route: PairsRoute, expression: RegexExpr) -> PairBlocks:
        """Evaluate ``route`` (``expression``'s) in this process."""
        kernel = route.kernel
        if kernel == "none":
            return PairBlocks(())
        if kernel == "bounded":
            return self._bounded_pairs(route, expression)
        dfa = route.diagnostics.dfa
        if kernel == "bidirectional":
            return compact.rpq_pairs_bidirectional(
                self.graph, dfa, route.sources, route.targets)
        if kernel == "backward":
            return compact.rpq_pairs_backward(
                self.graph, dfa, route.targets, sources=route.sources)
        if kernel == "fan-out":
            return self._executor().rpq_pairs(
                dfa, sources=route.sources, targets=route.targets,
                parts=route.parallelism.processes)
        return compact.rpq_pairs_compact(self.graph, dfa, route.sources,
                                         targets=route.targets)

    def _bounded_pairs(self, route: PairsRoute,
                       expression: RegexExpr) -> PairBlocks:
        """Endpoint pairs of the automaton strategy's witness paths, which
        are scratch: no cache entry but the caller's pair answer.  The
        strategy walks the dict graph, so a view source refuses it."""
        from repro.analysis.query import analyze_expression
        if not isinstance(self.graph, MultiRelationalGraph):
            raise ExecutionError("the bounded edge-set strategy needs the "
                                 "dict graph, which a {} does not have"
                                 .format(type(self.graph).__name__))
        bound = route.max_length if route.max_length is not None \
            else self.default_max_length
        paths = PathSet() if analyze_expression(expression, self.graph).empty \
            else run_strategy("automaton", self.graph, expression, None,
                              bound, None)
        return PairBlocks.from_pairs(endpoint_pairs(
            paths, expression, self.graph,
            sources=route.sources, targets=route.targets))

    def _probe(self, expression: RegexExpr, sources: Optional[frozenset],
               targets: Optional[frozenset], max_length: Optional[int],
               version: int, record_miss: bool = True
               ) -> Optional[PairBlocks]:
        """The cached :meth:`pairs` answer at ``version``, or ``None``."""
        if self.cache is None:
            return None
        return self.cache.get(
            expression, max_length, version, "pairs",
            graph_token=self._graph_token, sources=sources,
            targets=targets, kind="pairs", record_miss=record_miss)

    def _answer(self, expression: RegexExpr, sources: Optional[frozenset],
                targets: Optional[frozenset], max_length: Optional[int],
                processes: Optional[int], version: int) -> PairBlocks:
        """One :meth:`pairs` answer: cache probe -> route -> run -> put.
        The answer is filed under ``version`` as the kernel returned it
        (blocks, memo slot and all), never a copy."""
        cached = self._probe(expression, sources, targets, max_length,
                             version)
        if cached is not None:
            return cached
        route = self.route(expression, sources, targets, max_length,
                           processes)
        answer = self._run(route, expression)
        if self.cache is not None:
            self.cache.put(
                expression, max_length, version, "pairs", answer,
                graph_token=self._graph_token, sources=sources,
                targets=targets, kind="pairs")
        return answer

    def pairs(self, query: Union[str, RegexExpr],
              sources: Optional[frozenset] = None,
              targets: Optional[frozenset] = None,
              max_length: Optional[int] = None,
              processes: Optional[int] = None) -> PairBlocks:
        """All ``(source, target)`` pairs connected by a matching path.

        The answer is a :class:`~repro.graph.pairs.PairBlocks`: a
        ``collections.abc.Set`` of the pair tuples — ``len``, iteration,
        ``sorted``, ``in``, ``==`` / ``hash`` and set algebra against any
        ``frozenset`` all hold — kept as the disjoint product / zip blocks
        the sweep computed, so an all-sources answer costs its members,
        not a tuple per pair, until a caller asks for a hash table.

        Expressions lowering to a constrained label RPQ (label-only, or
        vertex-bound only at the ends — see module docstring) run the
        compact product-BFS kernels: exact, *unbounded* reachability
        semantics, with the compiled DFA served from the engine's cache
        and the traversal direction (forward / backward / bidirectional)
        chosen by the statistics-driven cost model.  The fast path only
        applies when no ``max_length`` is given — an explicit bound is
        honored by routing through the bounded ``automaton`` strategy
        instead, like every expression that needs the edge-set algebra
        (interior-bound atoms, literals, products), projecting endpoint
        pairs from the length-limited witness paths with identical
        filter/reflexive semantics (:func:`~repro.engine.executor.endpoint_pairs`).

        ``sources``/``targets`` of ``None`` mean all vertices; otherwise
        only pairs whose endpoints are in the given sets are returned.

        ``processes`` controls the fan-out of broad forward sweeps
        (see :mod:`repro.engine.parallel`): ``None`` lets the planner's
        cost threshold decide from graph and source-set size, ``1`` forces
        single-core, ``N > 1`` requests N workers.  Selective directions
        (backward / bidirectional) always stay single-core — they were
        chosen precisely because little work remains to split.

        When the engine carries a :class:`QueryCache`, the returned pair
        set is cached under ``(expression, max_length, sources, targets,
        graph version+token)`` — every parameter that can change the
        answer (``processes`` only changes the wall-clock, never the set,
        so it is deliberately not in the key).
        """
        # The version is read once, before evaluation: a mutation racing
        # the kernel must not let a result computed at version N be
        # stored — and later served — under version N+1.
        return self._answer(self.compile(query), _frozen(sources),
                            _frozen(targets), max_length, processes,
                            self.graph.version())

    def cached_pairs(self, query: Union[str, RegexExpr],
                     sources: Optional[frozenset] = None,
                     targets: Optional[frozenset] = None,
                     max_length: Optional[int] = None
                     ) -> Optional[PairBlocks]:
        """The cached :meth:`pairs` result, or ``None`` — pure O(lookup).

        Never dispatches a kernel; the service tier probes this in the
        event loop before paying an executor round trip.  A hit counts as
        one; ``None`` records nothing — the caller's follow-up
        :meth:`pairs` looks the key up again and records that outcome, so
        probe-then-compute is one cache lookup in the statistics.
        """
        return self._cached_pairs(self.compile(query), sources, targets,
                                  max_length)

    def _cached_pairs(self, expression: RegexExpr,
                      sources: Optional[frozenset],
                      targets: Optional[frozenset],
                      max_length: Optional[int]) -> Optional[PairBlocks]:
        """:meth:`cached_pairs` for an expression :meth:`compile` already
        returned (the service tier keeps those: normalizing a normalized
        AST again is most of a warm probe's cost)."""
        return self._probe(expression, _frozen(sources), _frozen(targets),
                           max_length, self.graph.version(),
                           record_miss=False)

    def pairs_batch(self, queries, sources: Optional[frozenset] = None,
                    targets: Optional[frozenset] = None,
                    max_length: Optional[int] = None,
                    processes: Optional[int] = None) -> list:
        """:meth:`pairs` for many expressions, at one graph version.

        Every member is its own read: one cache lookup, one :meth:`route`
        and that route's kernel, exactly as :meth:`pairs` takes it.
        Results keep the input order.
        """
        expressions = [self.compile(query) for query in queries]
        sources, targets = _frozen(sources), _frozen(targets)
        version = self.graph.version()
        return [self._answer(expression, sources, targets, max_length,
                             processes, version)
                for expression in expressions]

    def query(self, query: Union[str, RegexExpr], strategy: str = "materialized",
              max_length: Optional[int] = None,
              limit: Optional[int] = None) -> QueryResult:
        """Run a query and return its :class:`QueryResult`.

        ``strategy`` is one of ``materialized`` (planned, set-at-a-time),
        ``streaming`` (lazy pipeline, respects ``limit`` early),
        ``automaton`` (per-path product BFS) or ``stack`` (the paper's
        section IV-B construction).
        """
        if strategy not in STRATEGIES:
            raise ExecutionError(
                "unknown strategy {!r}; expected one of {}".format(
                    strategy, STRATEGIES))
        from repro.analysis.query import analyze_expression
        expression = self.compile(query)
        bound = max_length if max_length is not None else self.default_max_length
        diagnostics = analyze_expression(expression, self.graph)
        if diagnostics.empty:
            # Structural pre-flight proved the language empty over this
            # graph (absent labels/vertices, empty literals, ...): skip
            # planning, caching and execution entirely.
            return QueryResult(paths=PathSet(), expression=expression,
                               strategy=strategy, max_length=bound,
                               elapsed=0.0, plan=None)
        cacheable = self.cache is not None and limit is None
        # Read once, before evaluation, for the reason pairs() gives: a
        # mutation racing the run must not file its result under N+1.
        version = self.graph.version()
        if cacheable:
            cached = self.cache.get(expression, bound, version,
                                    strategy, graph_token=self._graph_token)
            if cached is not None:
                return QueryResult(paths=cached, expression=expression,
                                   strategy=strategy, max_length=bound,
                                   elapsed=0.0, plan=None)
        plan = None
        if strategy == "materialized":
            planner = Planner(self.statistics(), max_length=bound,
                              optimize_joins=self.optimize)
            plan = planner.plan(expression)
        started = time.perf_counter()
        paths = run_strategy(strategy, self.graph, expression, plan, bound,
                             limit)
        elapsed = time.perf_counter() - started
        if cacheable:
            self.cache.put(expression, bound, version,
                           strategy, paths, graph_token=self._graph_token)
        return QueryResult(paths=paths, expression=expression,
                           strategy=strategy, max_length=bound,
                           elapsed=elapsed, plan=plan)

    def recognize(self, query: Union[str, RegexExpr], path: Path) -> bool:
        """Section IV-A recognition: is ``path`` in the query's language?"""
        expression = self.compile(query)
        return Recognizer(expression, self.graph).accepts(path)

    def project(self, query: Union[str, RegexExpr],
                max_length: Optional[int] = None,
                strategy: str = "automaton",
                description: str = "") -> BinaryProjection:
        """Section IV-C: run a query and project its paths to a binary edge set."""
        result = self.query(query, strategy=strategy, max_length=max_length)
        return result.projection(description=description)

    def __repr__(self) -> str:
        return "Engine<{!r}, default_max_length={}, optimize={}>".format(
            self.graph, self.default_max_length, self.optimize)
