"""Static analysis for the path-algebra engine.

Two analyzers live here, both pre-flight — they inspect expressions and
source code *before* anything runs, so bad queries are rejected (or
short-circuited) without a kernel dispatch and repo invariants are
machine-checked instead of remembered:

* :mod:`repro.analysis.query` — pre-flight RPQ analysis: unknown-label
  detection, dead/unreachable DFA state pruning (language-preserving),
  provable-emptiness verdicts, and star-height / state-count complexity
  estimates.  Wired into ``Engine.pairs`` / ``Engine.query`` /
  ``Engine.pairs_batch`` (provably-empty queries return the empty result
  with zero kernel work), ``Engine.explain`` (the ``diagnostics:``
  section) and the ``repro lint-query`` CLI.
* :mod:`repro.analysis.lint` — **reprolint**, an AST-walking checker for
  repo-specific invariants generic linters cannot express (numpy gating,
  kernel purity, pool-payload pickle safety, storage tmp+rename writes).
  Runnable as ``python -m repro.analysis.lint src/repro``; see
  ``docs/static_analysis.md`` for the rule catalog and suppression
  syntax.
* :mod:`repro.analysis.concurrency` — **reprorace**, the lock-discipline
  and resource-lifecycle checker: guarded-attribute inference with
  unguarded-write detection, nested-acquire (self-deadlock) detection, a
  static cross-module lock-order graph with cycle reporting, and
  must-close lifecycle rules for ``storage/`` and ``service/``.
  Runnable as ``python -m repro.analysis.concurrency src/repro``; its
  dynamic counterpart is the runtime witness in
  :mod:`repro.concurrency`.
"""

from typing import Any

from repro.analysis.query import (
    QueryDiagnostics,
    analyze_compiled_query,
    prune_dfa,
    star_height,
)

__all__ = [
    "QueryDiagnostics",
    "RACE_RULES",
    "RULES",
    "Violation",
    "analyze_compiled_query",
    "analyze_paths",
    "lint_paths",
    "prune_dfa",
    "star_height",
]

#: Lazily-resolved re-exports.  ``lint`` and ``concurrency`` are also
#: ``python -m`` entry points; importing them eagerly here would load
#: them twice under runpy (sys.modules warning), so resolve on demand.
_LAZY = {
    "RACE_RULES": "repro.analysis.concurrency",
    "analyze_paths": "repro.analysis.concurrency",
    "RULES": "repro.analysis.lint",
    "Violation": "repro.analysis.lint",
    "lint_paths": "repro.analysis.lint",
}


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            "module {!r} has no attribute {!r}".format(__name__, name))
    import importlib

    return getattr(importlib.import_module(module_name), name)
