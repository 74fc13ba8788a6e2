"""Algebraic rewrite rules for regular path expressions.

:meth:`RegexExpr.simplified` handles local identities (units, zeros,
flattening, star idempotence).  This module adds the *global* rewrites a
query optimizer wants, each justified by an algebraic law of section II:

* :func:`fold_literals` — joins/products/unions of constant path sets are
  computed at rewrite time (constant folding; literals are
  graph-independent, so this is always sound),
* :func:`distribute_joins` — ``(A U B) >< C  ->  (A >< C) U (B >< C)``
  (distributivity), which exposes per-branch selectivity to the planner,
* :func:`factor_unions` — the inverse: ``(A >< C) U (B >< C) -> (A U B) >< C``
  when branches share a prefix or suffix, shrinking repeated work,
* :func:`normalize` — simplification + literal folding to a fixpoint, the
  default pipeline the engine can run before planning.

Every rewrite preserves the expression's language; the property tests
evaluate original vs rewritten on random graphs to enforce that.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.core.pathset import PathSet
from repro.regex.ast import (
    EMPTY,
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

__all__ = ["fold_literals", "distribute_joins", "factor_unions", "normalize"]


def _rebuild(expr: RegexExpr, rewrite: Callable[[RegexExpr], RegexExpr]) -> RegexExpr:
    """Apply ``rewrite`` bottom-up to every node."""
    if isinstance(expr, Union):
        return rewrite(Union(tuple(_rebuild(p, rewrite) for p in expr.parts)))
    if isinstance(expr, Join):
        return rewrite(Join(tuple(_rebuild(p, rewrite) for p in expr.parts)))
    if isinstance(expr, Product):
        return rewrite(Product(tuple(_rebuild(p, rewrite) for p in expr.parts)))
    if isinstance(expr, Star):
        return rewrite(Star(_rebuild(expr.inner, rewrite)))
    if isinstance(expr, Repeat):
        return rewrite(Repeat(_rebuild(expr.inner, rewrite),
                              expr.minimum, expr.maximum))
    return rewrite(expr)


def _is_constant(expr: RegexExpr) -> bool:
    """True for nodes whose language is graph-independent and finite."""
    return isinstance(expr, (Literal, Epsilon, Empty))


def _constant_value(expr: RegexExpr) -> PathSet:
    if isinstance(expr, Literal):
        return expr.path_set
    if isinstance(expr, Epsilon):
        return PathSet.epsilon()
    return PathSet.empty()


def fold_literals(expression: RegexExpr) -> RegexExpr:
    """Compute constant sub-expressions now (joins/products/unions of literals).

    Only *adjacent* constant operands are folded inside joins/products
    (associativity allows grouping neighbours; reordering would not be
    sound since the operations are non-commutative).
    """

    def fold(expr: RegexExpr) -> RegexExpr:
        if isinstance(expr, Union):
            constants = [p for p in expr.parts if _is_constant(p)]
            others = [p for p in expr.parts if not _is_constant(p)]
            if len(constants) >= 2:
                merged = PathSet.empty()
                for part in constants:
                    merged = merged | _constant_value(part)
                folded = Literal(merged) if merged else EMPTY
                return Union(tuple(others) + (folded,)) if others else folded
            return expr
        if isinstance(expr, (Join, Product)):
            combine = PathSet.join if isinstance(expr, Join) else PathSet.product
            parts: List[RegexExpr] = []
            for part in expr.parts:
                if (_is_constant(part) and parts
                        and _is_constant(parts[-1])):
                    merged = combine(_constant_value(parts[-1]),
                                     _constant_value(part))
                    # An empty constant annihilates the whole join/product.
                    parts[-1] = Literal(merged) if merged else EMPTY
                    if not merged:
                        return EMPTY
                else:
                    parts.append(part)
            if len(parts) == 1:
                return parts[0]
            if len(parts) != len(expr.parts):
                return type(expr)(tuple(parts))
            return expr
        return expr

    return _rebuild(expression, fold).simplified()


def distribute_joins(expression: RegexExpr) -> RegexExpr:
    """Distribute joins (and products) over immediate union operands.

    ``(A U B) >< C -> (A >< C) U (B >< C)`` and symmetrically on the right.
    Only the first union operand is expanded per pass (full expansion is
    exponential); call repeatedly or via :func:`normalize` if deeper
    expansion is wanted.
    """

    def distribute(expr: RegexExpr) -> RegexExpr:
        if not isinstance(expr, (Join, Product)):
            return expr
        node_type = type(expr)
        for position, part in enumerate(expr.parts):
            if isinstance(part, Union):
                prefix = expr.parts[:position]
                suffix = expr.parts[position + 1:]
                branches = tuple(
                    node_type(prefix + (branch,) + suffix).simplified()
                    for branch in part.parts)
                return Union(branches)
        return expr

    return _rebuild(expression, distribute).simplified()


def factor_unions(expression: RegexExpr) -> RegexExpr:
    """Factor shared prefixes/suffixes out of unions of joins.

    ``(A >< C) U (B >< C) -> (A U B) >< C`` — the planner then evaluates the
    shared operand once.  Prefix factoring is tried first, then suffix.
    """

    def split(part: RegexExpr) -> Tuple[RegexExpr, ...]:
        if isinstance(part, Join):
            return part.parts
        return (part,)

    def factor(expr: RegexExpr) -> RegexExpr:
        if not isinstance(expr, Union) or len(expr.parts) < 2:
            return expr
        sequences = [split(p) for p in expr.parts]
        # Longest common prefix across all branches.
        prefix_length = 0
        while all(len(s) > prefix_length for s in sequences):
            heads = {s[prefix_length] for s in sequences}
            if len(heads) != 1:
                break
            prefix_length += 1
        # Leave at least one element per branch un-factored.
        while prefix_length > 0 and any(len(s) == prefix_length for s in sequences):
            prefix_length -= 1
        if prefix_length > 0:
            shared = sequences[0][:prefix_length]
            rests = tuple(
                Join(s[prefix_length:]) if len(s) - prefix_length > 1
                else s[prefix_length]
                for s in sequences)
            return Join(shared + (Union(rests),)).simplified()
        # Longest common suffix.
        suffix_length = 0
        while all(len(s) > suffix_length for s in sequences):
            tails = {s[-1 - suffix_length] for s in sequences}
            if len(tails) != 1:
                break
            suffix_length += 1
        while suffix_length > 0 and any(len(s) == suffix_length for s in sequences):
            suffix_length -= 1
        if suffix_length > 0:
            shared = sequences[0][len(sequences[0]) - suffix_length:]
            rests = tuple(
                Join(s[:len(s) - suffix_length]) if len(s) - suffix_length > 1
                else s[len(s) - suffix_length - 1]
                for s in sequences)
            return Join((Union(rests),) + shared).simplified()
        return expr

    return _rebuild(expression, factor).simplified()


def normalize(expression: RegexExpr, max_passes: int = 8) -> RegexExpr:
    """Simplify + fold literals + factor unions, iterated to a fixpoint.

    Distribution is *not* part of normalization (it can grow the tree); the
    planner may request it separately when branch selectivity matters.
    """
    current = expression.simplified()
    for _ in range(max_passes):
        rewritten = factor_unions(fold_literals(current))
        if rewritten == current:
            return current
        current = rewritten
    return current
