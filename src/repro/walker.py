"""Grammar-guided random walkers: Monte Carlo traversal under a regex.

The paper's authors' companion line of work ("grammar-based random
walkers") samples walks whose *next step* is constrained by an automaton
state — a random-walk approximation of the exact path semantics the
algebra computes.  :class:`GrammarWalker` implements that idea over this
library's NFA: each step, the walker epsilon-closes its configuration set,
enumerates the admissible ``(edge, target state)`` moves (respecting the
join-adjacency / product-exemption rules), and picks one uniformly at
random.

Uses:

* **visitation statistics** — run many walks, histogram the vertices;
  with enough samples the histogram tracks the exact witness-path counts
  (the tests compare against :func:`generate_paths` on small graphs),
* **sampled query answering** — accepted walks are exact members of the
  query's language (asserted against the recognizer), useful when the
  full result set is too large to materialize.

Fully deterministic given ``seed``; no global random state is touched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Hashable, List, Tuple

from repro.automata.nfa import NFA, build_nfa
from repro.core.path import EPSILON, Path
from repro.graph.graph import MultiRelationalGraph
from repro.regex.ast import RegexExpr

__all__ = ["GrammarWalker", "WalkResult"]


@dataclass
class WalkResult:
    """One walk's outcome: the path taken and whether it ended accepted."""

    path: Path
    accepted: bool
    steps: int

    def __repr__(self) -> str:
        status = "accepted" if self.accepted else "rejected"
        return "WalkResult<{} after {} steps: {}>".format(
            status, self.steps, self.path)


class GrammarWalker:
    """A random walker whose moves are constrained by a regular expression.

    Parameters
    ----------
    graph:
        The multi-relational graph to walk.
    expression:
        The grammar (a :mod:`repro.regex` AST); only moves that keep the
        walk inside the expression's language-prefixes are admissible.
    seed:
        RNG seed; identical seeds produce identical walk sequences.
    stop_probability:
        When the walker sits in an accepting configuration, it halts with
        this probability (otherwise it keeps walking if moves exist).
        1.0 means "stop at the first acceptance" — shortest-biased; lower
        values explore longer members.
    """

    def __init__(self, graph: MultiRelationalGraph, expression: RegexExpr,
                 seed: int = 0, stop_probability: float = 0.5):
        if not 0.0 < stop_probability <= 1.0:
            raise ValueError("stop_probability must be in (0, 1]")
        self.graph = graph
        self.expression = expression
        self.nfa: NFA = build_nfa(expression)
        self.stop_probability = stop_probability
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------

    def _admissible_moves(self, configs: Dict[int, bool],
                          path: Path) -> List[Tuple[object, int]]:
        """All (edge, target state) moves from the current configuration set."""
        moves: List[Tuple[object, int]] = []
        seen = set()
        for state, exempt in configs.items():
            for matcher, target in self.nfa.consuming[state]:
                if path and not exempt:
                    candidates = matcher.candidate_edges(self.graph, path.head)
                else:
                    candidates = matcher.all_edges(self.graph)
                for e in candidates:
                    key = (e, target)
                    if key not in seen:
                        seen.add(key)
                        moves.append(key)
        return sorted(moves, key=repr)

    def walk(self, max_steps: int = 32) -> WalkResult:
        """One random walk; halts on acceptance (per ``stop_probability``),
        dead ends, or the step cap."""
        configs = self.nfa.closure({self.nfa.start: False})
        path = EPSILON
        steps = 0
        while True:
            accepting = self.nfa.accept in configs
            if accepting and self._rng.random() < self.stop_probability:
                return WalkResult(path=path, accepted=True, steps=steps)
            if steps >= max_steps:
                return WalkResult(path=path, accepted=accepting, steps=steps)
            moves = self._admissible_moves(configs, path)
            if not moves:
                return WalkResult(path=path, accepted=accepting, steps=steps)
            e, target = self._rng.choice(moves)
            path = path.concat(Path((e,)))
            steps += 1
            configs = self.nfa.closure({target: False})

    def sample_paths(self, num_walks: int, max_steps: int = 32) -> List[Path]:
        """The accepted paths from ``num_walks`` independent walks (with
        duplicates — it is a sampler, not a set)."""
        out = []
        for _ in range(num_walks):
            result = self.walk(max_steps)
            if result.accepted:
                out.append(result.path)
        return out

    def visit_counts(self, num_walks: int,
                     max_steps: int = 32) -> Dict[Hashable, int]:
        """Vertex visitation histogram over ``num_walks`` walks.

        Every vertex touched by a walk (accepted or not) counts once per
        touch; the start configuration contributes nothing until an edge is
        taken.
        """
        counts: Dict[Hashable, int] = {}
        for _ in range(num_walks):
            result = self.walk(max_steps)
            for vertex in result.path.vertices():
                counts[vertex] = counts.get(vertex, 0) + 1
        return counts

    def acceptance_rate(self, num_walks: int, max_steps: int = 32) -> float:
        """Fraction of walks ending accepted — a query 'answerability' probe."""
        if num_walks <= 0:
            raise ValueError("num_walks must be positive")
        accepted = sum(
            1 for _ in range(num_walks) if self.walk(max_steps).accepted)
        return accepted / float(num_walks)

    def __repr__(self) -> str:
        return "GrammarWalker<{} over {!r}>".format(
            self.nfa, self.graph.name or "graph")
