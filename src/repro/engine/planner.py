"""The cost-based planner: regex AST -> physical plan.

The planner's one real decision is **join association order**.  The
concatenative join is associative (section II), so a chain
``a1 ><_o a2 ><_o ... ><_o an`` may be evaluated under any parenthesization;
intermediate result sizes differ wildly when some atoms are selective (a
bound vertex) and others are not (``[_, _, _]``).  We run the classical
matrix-chain dynamic program over the chain with

* ``rows(i, j)`` — estimated paths for the sub-chain ``i..j`` (equijoin
  formula from :class:`GraphStatistics`),
* ``cost(i, j) = min_k cost(i, k) + cost(k+1, j) + rows(i, k) + rows(k+1, j)
  + rows(i, j)`` — hash-join cost is linear in both inputs plus the output.

Products are planned the same way (their estimate just omits the
selectivity factor); unions and stars plan their children recursively.
Correctness never depends on the chosen order — ``tests/test_engine.py``
asserts plan-result invariance — only resource use does (experiment E9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.engine.parallel import MAX_WORKERS
from repro.engine.plan import (
    AtomScan,
    EmptyScan,
    EpsilonScan,
    JoinPlan,
    LiteralScan,
    PlanNode,
    ProductPlan,
    StarPlan,
    UnionPlan,
)
from repro.engine.stats import GraphStatistics
from repro.errors import PlanningError
from repro.graph.compact import _SHARED_BATCH, _SHARED_MIN_SEEDS
from repro.regex.ast import (
    Atom,
    Empty,
    Epsilon,
    Join,
    Literal,
    Product,
    RegexExpr,
    Repeat,
    Star,
    Union,
)

if TYPE_CHECKING:
    from repro.analysis.query import QueryDiagnostics
    from repro.rpq.evaluation import ConstrainedQuery

__all__ = ["Planner", "DirectionChoice", "ParallelismChoice", "PairsRoute"]

#: Bidirectional evaluation is only offered while both endpoint sets are
#: this small: it pays when the two half-depth cones are selective, and a
#: broad side is what the one-directional kernel's shared sweep (the same
#: masks, batched, no meet bookkeeping) is for.
_BIDI_MAX_SIDE = 64

#: A non-forward direction must beat forward by this factor.  The growth
#: estimates are sampling-noisy on near-symmetric graphs, and forward is
#: the best-tuned kernel — flip direction only on a clear win.
_DIRECTION_MARGIN = 0.9

#: Auto-parallelism floors: below either, pool setup and result pickling
#: outweigh the fan-out win and the planner keeps queries single-core.
#: (An *explicit* ``processes=`` request only has to clear the executor's
#: much smaller ``PARALLEL_MIN_EDGES`` safety floor.)
_PARALLEL_AUTO_MIN_EDGES = 25_000
_PARALLEL_AUTO_MIN_SOURCES = 256


@dataclass(frozen=True)
class DirectionChoice:
    """Outcome of the RPQ direction cost model (see
    :meth:`Planner.choose_rpq_direction`).

    ``direction`` is ``"forward"``, ``"backward"`` or ``"bidirectional"``;
    the ``*_cost`` fields are the estimated product-configuration
    expansions of each feasible strategy (``None`` = infeasible for this
    query shape).  Surfaced verbatim by ``Engine.explain``.
    """

    direction: str
    forward_cost: float
    backward_cost: Optional[float] = None
    bidirectional_cost: Optional[float] = None
    #: Seed count of the chosen one-directional sweep (``None`` when the
    #: choice is bidirectional): decides which loop the kernel runs.
    seeds: Optional[int] = None

    def describe(self) -> str:
        """One-line summary for EXPLAIN output."""
        def fmt(cost: Optional[float]) -> str:
            return "n/a" if cost is None else "{:.3g}".format(cost)
        if self.seeds is None:
            loop = ""
        elif self.seeds < _SHARED_MIN_SEEDS:
            loop = "; per-seed sweep"
        else:
            loop = "; shared sweep: {} seeds in {} batch(es)".format(
                self.seeds, -(-self.seeds // _SHARED_BATCH))
        return ("direction={} (est. frontier work: forward~{}, "
                "backward~{}, bidirectional~{}{})").format(
            self.direction, fmt(self.forward_cost),
            fmt(self.backward_cost), fmt(self.bidirectional_cost), loop)


@dataclass(frozen=True)
class ParallelismChoice:
    """Outcome of the sharded-parallel cost threshold
    (:meth:`Planner.choose_parallelism`).

    ``processes == 1`` means single-core; otherwise the executor should fan
    out over ``shards`` vertex-range shards with ``processes`` workers.
    ``reason`` says why, verbatim, for EXPLAIN output.
    """

    processes: int
    shards: int
    reason: str

    @property
    def parallel(self) -> bool:
        return self.processes > 1

    def describe(self) -> str:
        """One-line summary for EXPLAIN output."""
        if not self.parallel:
            return "single-core ({})".format(self.reason)
        return "parallel, {} process(es) x {} shard(s) ({})".format(
            self.processes, self.shards, self.reason)


@dataclass(frozen=True)
class PairsRoute:
    """How one ``Engine.pairs`` read is evaluated (``Engine.route``).

    ``kernel`` names what runs: ``"forward"`` / ``"backward"`` /
    ``"bidirectional"`` single-core, ``"fan-out"`` (sharded forward sweep),
    ``"none"`` or ``"bounded"`` (``automaton`` strategy: not eligible, or
    ``max_length`` given — ``constrained`` is ``None``).  ``sources`` /
    ``targets`` are the endpoint filters merged with the bound vertices,
    ``empty`` the reason no kernel needs to run, ``diagnostics`` the
    pre-flight record if consulted, the last two the planner's picks.
    """

    kernel: str
    constrained: Optional["ConstrainedQuery"]
    sources: Optional[frozenset]
    targets: Optional[frozenset]
    max_length: Optional[int] = None
    empty: Optional[str] = None
    diagnostics: Optional["QueryDiagnostics"] = None
    direction: Optional[DirectionChoice] = None
    parallelism: Optional[ParallelismChoice] = None

    def describe(self) -> str:
        """The ``pairs ...`` lines of EXPLAIN output."""
        if self.kernel == "bounded":
            if self.max_length is not None:
                return ("pairs fast path: not used — explicit max_length={} "
                        "bounds the answer; Engine.pairs() runs the bounded "
                        "automaton strategy").format(self.max_length)
            return ("pairs fast path: not eligible — expression binds interior "
                    "vertices or needs the edge-set algebra; Engine.pairs() "
                    "falls back to bounded automaton evaluation")
        note = ("pairs fast path: eligible — {}; Engine.pairs() runs "
                "the compact product-BFS kernels (unbounded, no path "
                "materialization)").format(self.constrained.describe())
        if self.kernel == "none":
            return "{}\npairs direction: n/a — {}\npairs parallelism: " \
                "n/a (empty result)".format(note, self.empty)
        return "{}\npairs direction: {}\npairs parallelism: {}".format(
            note, self.direction.describe(), self.parallelism.describe())


class Planner:
    """Builds cost-annotated physical plans for one graph's statistics."""

    def __init__(self, statistics: GraphStatistics, max_length: int = 8,
                 optimize_joins: bool = True):
        self.statistics = statistics
        self.max_length = max_length
        self.optimize_joins = optimize_joins

    def plan(self, expression: RegexExpr) -> PlanNode:
        """Compile an expression into a physical plan tree."""
        expr = expression
        if isinstance(expr, Empty):
            return EmptyScan(estimated_rows=0.0, estimated_cost=0.0)
        if isinstance(expr, Epsilon):
            return EpsilonScan(estimated_rows=1.0, estimated_cost=0.0)
        if isinstance(expr, Atom):
            rows = float(self.statistics.atom_cardinality(expr))
            return AtomScan(estimated_rows=rows, estimated_cost=rows, atom=expr)
        if isinstance(expr, Literal):
            rows = float(len(expr.path_set))
            return LiteralScan(estimated_rows=rows, estimated_cost=rows,
                               literal=expr)
        if isinstance(expr, Union):
            parts = tuple(self.plan(part) for part in expr.parts)
            rows = sum(part.estimated_rows for part in parts)
            cost = sum(part.estimated_cost for part in parts) + rows
            return UnionPlan(estimated_rows=rows, estimated_cost=cost, parts=parts)
        if isinstance(expr, Join):
            children = [self.plan(part) for part in expr.parts]
            return self._plan_chain(children, JoinPlan,
                                    self.statistics.join_selectivity())
        if isinstance(expr, Product):
            children = [self.plan(part) for part in expr.parts]
            return self._plan_chain(children, ProductPlan, 1.0)
        if isinstance(expr, Star):
            inner = self.plan(expr.inner)
            rows = self.statistics.estimate(expr, self.max_length)
            cost = inner.estimated_cost + rows * max(self.max_length, 1)
            return StarPlan(estimated_rows=rows, estimated_cost=cost, inner=inner)
        if isinstance(expr, Repeat):
            return self.plan(expr.expand())
        raise PlanningError("cannot plan unknown node {!r}".format(expr))

    # ------------------------------------------------------------------
    # RPQ direction selection (the pairs fast path's one decision)
    # ------------------------------------------------------------------

    @staticmethod
    def _cone_cost(seeds: float, growth: float, horizon: int,
                   cap: float) -> float:
        """Configurations touched by a BFS cone: ``seeds`` initial frontier
        entries growing by ``growth`` per level for ``horizon`` levels, each
        level capped at ``cap`` (the frontier cannot exceed the vertex
        set)."""
        frontier = float(seeds)
        total = frontier
        for _ in range(horizon):
            frontier *= growth
            if frontier > cap:
                frontier = cap
            total += frontier
            if frontier == 0.0:
                break
        return total

    @staticmethod
    def _sweep_cost(seeds: int, growth: float, horizon: int,
                    cap: float) -> float:
        """Configurations a one-directional kernel call touches: one cone
        per seed below the kernel's shared-sweep floor; from the floor up,
        one cone per batch, whose seeds start out together.

        A batch is never priced below ``_SHARED_MIN_SEEDS`` lone cones:
        the floor is where the kernel takes sharing to break even with
        lone searches, and more seeds do not make a sweep cheaper.  Without
        it the price *fell* 5x from 15 seeds to 16 on a small dense graph
        (the shared cone saturates at the cap, a lone one is overstated by
        its capped tail), and few-source queries flipped to a sweep from
        every target that measured 3-7x slower.
        """
        lone = Planner._cone_cost(1.0, growth, horizon, cap)
        if seeds < _SHARED_MIN_SEEDS:
            return seeds * lone
        together = Planner._cone_cost(min(seeds, _SHARED_BATCH), growth,
                                      horizon, cap)
        return -(-seeds // _SHARED_BATCH) * max(together,
                                                _SHARED_MIN_SEEDS * lone)

    def choose_rpq_direction(self, label_expression,
                             num_sources: Optional[int] = None,
                             num_targets: Optional[int] = None,
                             states: int = 1) -> DirectionChoice:
        """Pick forward / backward / bidirectional for one pairs query.

        ``num_sources``/``num_targets`` are the bound endpoint-set sizes
        (``None`` = unconstrained, i.e. every vertex).  The model compares
        estimated frontier work: a cone grows by the statistics' per-label
        mean fanout (out-fanout forward, in-fanout backward — asymmetric
        exactly on skewed graphs), and the one-directional kernels walk one
        cone per seed vertex for a few seeds or one per batch of seeds for
        many (:meth:`_sweep_cost`); the bidirectional kernel runs a single
        meet-in-the-middle pass whose two cones each stop at half the
        horizon.  Bidirectional is only offered when both endpoint sets
        are explicit and small; forward wins ties, preserving the
        pre-cost-model behavior on symmetric graphs.

        ``states`` is the (pruned) DFA state count from pre-flight
        analysis: the product BFS walks ``(vertex, state)`` configurations,
        so the per-level frontier cap is ``|V| x |Q|``, not ``|V|``.  The
        default of 1 reproduces the pre-analysis model.
        """
        statistics = self.statistics
        vertex_count = max(statistics.vertex_count, 1)
        frontier_cap = vertex_count * max(states, 1)
        labels = label_expression.symbols()
        forward_growth = statistics.forward_growth(labels)
        backward_growth = statistics.backward_growth(labels)
        horizon = max(self.max_length, 1)
        seeds_forward = vertex_count if num_sources is None else num_sources
        seeds_backward = vertex_count if num_targets is None else num_targets

        forward_cost = self._sweep_cost(seeds_forward, forward_growth,
                                        horizon, frontier_cap)
        backward_cost = self._sweep_cost(seeds_backward, backward_growth,
                                         horizon, frontier_cap)
        bidirectional_cost = None
        if num_sources is not None and num_targets is not None \
                and 0 < num_sources <= _BIDI_MAX_SIDE \
                and 0 < num_targets <= _BIDI_MAX_SIDE:
            half = (horizon + 1) // 2
            bidirectional_cost = (
                self._cone_cost(num_sources, forward_growth, half,
                                frontier_cap)
                + self._cone_cost(num_targets, backward_growth, half,
                                  frontier_cap))

        best = "forward"
        best_cost = forward_cost
        seeds: Optional[int] = seeds_forward
        if backward_cost < best_cost * _DIRECTION_MARGIN:
            best = "backward"
            best_cost = backward_cost
            seeds = seeds_backward
        if bidirectional_cost is not None \
                and bidirectional_cost < best_cost * _DIRECTION_MARGIN:
            best = "bidirectional"
            seeds = None
        return DirectionChoice(direction=best, forward_cost=forward_cost,
                               backward_cost=backward_cost,
                               bidirectional_cost=bidirectional_cost,
                               seeds=seeds)

    # ------------------------------------------------------------------
    # Sharded-parallel threshold (the fan-out executor's go / no-go)
    # ------------------------------------------------------------------

    def choose_parallelism(self, num_sources: Optional[int] = None,
                           processes: Optional[int] = None,
                           direction: str = "forward") -> ParallelismChoice:
        """Sharded-parallel vs single-core for one pairs-style sweep.

        The fan-out only pays when there is enough independent per-source
        work to split: the graph must carry real edge volume, the source
        set must be broad (an all-sources sweep, or a large batch), the
        direction must be the forward per-source sweep (the backward and
        bidirectional kernels are picked *because* the query is selective,
        where one core already wins), and the machine must have cores.
        ``processes`` is the caller's explicit request: it overrides the
        volume thresholds (the executor still keeps its own tiny-graph
        safety floor) but never parallelizes a selective direction.
        """
        if direction != "forward":
            return ParallelismChoice(1, 1, "selective {} evaluation stays "
                                     "single-core".format(direction))
        if num_sources is not None and num_sources < 2:
            return ParallelismChoice(1, 1, "a {}-source sweep cannot be "
                                     "split".format(num_sources))
        if processes is not None:
            if processes <= 1:
                return ParallelismChoice(1, 1, "explicit processes=1")
            chosen = max(1, processes)
            return ParallelismChoice(
                chosen, chosen,
                "explicit processes={}".format(processes))
        # Read last: a selective or explicit pick needs none of these, and
        # os.cpu_count() alone is ~2 us of a point read's ~80.
        import os
        cpu = os.cpu_count() or 1
        edges = self.statistics.edge_count
        sources = self.statistics.vertex_count if num_sources is None \
            else num_sources
        if cpu < 2:
            return ParallelismChoice(1, 1, "single-core machine")
        if edges < _PARALLEL_AUTO_MIN_EDGES:
            return ParallelismChoice(
                1, 1, "{} edges below the {} auto floor".format(
                    edges, _PARALLEL_AUTO_MIN_EDGES))
        if sources < _PARALLEL_AUTO_MIN_SOURCES:
            return ParallelismChoice(
                1, 1, "{} sources below the {} auto floor".format(
                    sources, _PARALLEL_AUTO_MIN_SOURCES))
        chosen = min(cpu, MAX_WORKERS)
        return ParallelismChoice(
            chosen, chosen,
            "{} edges, {} sources over auto floors".format(edges, sources))

    # ------------------------------------------------------------------

    def _plan_chain(self, children: List[PlanNode], node_type: type,
                    selectivity: float) -> PlanNode:
        """Choose an association order for an n-ary join/product chain."""
        if len(children) == 1:
            return children[0]
        if not self.optimize_joins or len(children) == 2:
            return self._left_deep(children, node_type, selectivity)
        return self._matrix_chain(children, node_type, selectivity)

    def _combine(self, left: PlanNode, right: PlanNode, node_type: type,
                 selectivity: float) -> PlanNode:
        rows = left.estimated_rows * right.estimated_rows * selectivity
        cost = (left.estimated_cost + right.estimated_cost
                + left.estimated_rows + right.estimated_rows + rows)
        return node_type(estimated_rows=rows, estimated_cost=cost,
                         left=left, right=right)

    def _left_deep(self, children: List[PlanNode], node_type: type,
                   selectivity: float) -> PlanNode:
        result = children[0]
        for child in children[1:]:
            result = self._combine(result, child, node_type, selectivity)
        return result

    def _matrix_chain(self, children: List[PlanNode], node_type: type,
                      selectivity: float) -> PlanNode:
        """Optimal parenthesization by interval dynamic programming.

        O(n^3) over the chain length — chains in practice are short (query
        depth), so this never dominates.
        """
        n = len(children)
        # best[i][j] is the cheapest plan covering children[i..j] inclusive.
        best: List[List[PlanNode]] = [[None] * n for _ in range(n)]  # type: ignore
        for i in range(n):
            best[i][i] = children[i]
        for span in range(2, n + 1):
            for i in range(0, n - span + 1):
                j = i + span - 1
                candidates = []
                for k in range(i, j):
                    candidate = self._combine(best[i][k], best[k + 1][j],
                                              node_type, selectivity)
                    candidates.append(candidate)
                best[i][j] = min(candidates, key=lambda node: node.estimated_cost)
        return best[0][n - 1]
