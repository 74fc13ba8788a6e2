"""Convenience constructors for regular path expressions.

These are the spellings used throughout the examples, tests and datasets:

>>> from repro.regex import atom, literal, join, union, star
>>> expr = join(atom(tail="i", label="alpha"),
...             star(atom(label="beta")),
...             union(join(atom(label="alpha", head="j"),
...                        literal(("j", "alpha", "i"))),
...                   atom(label="alpha", head="k")))

which is the paper's Figure 1 expression
``[i,a,_] ><_o [_,b,_]* ><_o (([_,a,j] ><_o {(j,a,i)}) U [_,a,k])``.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.core.pathset import PathSet
from repro.regex.ast import (
    EMPTY,
    EPSILON,
    Atom,
    Join,
    Literal,
    Product,
    RegexExpr,
    Repeat,
    Star,
    Union,
)

__all__ = [
    "atom",
    "literal",
    "empty",
    "epsilon",
    "union",
    "join",
    "product",
    "star",
    "plus",
    "optional",
    "power",
    "repeat",
    "any_edge",
    "labeled",
    "from_vertex",
    "to_vertex",
]


def atom(tail: Optional[Hashable] = None, label: Optional[Hashable] = None,
         head: Optional[Hashable] = None) -> Atom:
    """The set-builder pattern ``[tail, label, head]`` (None = wildcard)."""
    return Atom(tail=tail, label=label, head=head)


def literal(*paths) -> Literal:
    """An explicit path set: ``literal(("j", "a", "i"))`` is ``{(j, a, i)}``."""
    return Literal(PathSet(paths))


def empty() -> RegexExpr:
    """The empty language ``{}``."""
    return EMPTY


def epsilon() -> RegexExpr:
    """The language ``{eps}``."""
    return EPSILON


def union(*expressions: RegexExpr) -> RegexExpr:
    """``R1 U R2 U ...`` (zero operands give the empty language)."""
    if not expressions:
        return EMPTY
    if len(expressions) == 1:
        return expressions[0]
    return Union(expressions)


def join(*expressions: RegexExpr) -> RegexExpr:
    """``R1 ><_o R2 ><_o ...`` (zero operands give ``{eps}``)."""
    if not expressions:
        return EPSILON
    if len(expressions) == 1:
        return expressions[0]
    return Join(expressions)


def product(*expressions: RegexExpr) -> RegexExpr:
    """``R1 x_o R2 x_o ...`` (zero operands give ``{eps}``)."""
    if not expressions:
        return EPSILON
    if len(expressions) == 1:
        return expressions[0]
    return Product(expressions)


def star(expression: RegexExpr) -> Star:
    """``R*``."""
    return Star(expression)


def plus(expression: RegexExpr) -> RegexExpr:
    """``R+ = R ><_o R*``."""
    return expression.plus()


def optional(expression: RegexExpr) -> RegexExpr:
    """``R? = R U {eps}``."""
    return expression.optional()


def power(expression: RegexExpr, n: int) -> RegexExpr:
    """``R^n`` — exactly n join-repetitions."""
    return expression ** n


def repeat(expression: RegexExpr, minimum: int, maximum: Optional[int]) -> RegexExpr:
    """``R{min,max}`` (``maximum=None`` for unbounded)."""
    return Repeat(expression, minimum, maximum)


def any_edge() -> Atom:
    """``[_, _, _] = E`` — one arbitrary edge."""
    return Atom()


def labeled(label: Hashable) -> Atom:
    """``[_, label, _]`` — one edge carrying ``label``."""
    return Atom(label=label)


def from_vertex(vertex: Hashable, label: Optional[Hashable] = None) -> Atom:
    """``[vertex, label?, _]`` — one edge leaving ``vertex``."""
    return Atom(tail=vertex, label=label)


def to_vertex(vertex: Hashable, label: Optional[Hashable] = None) -> Atom:
    """``[_, label?, vertex]`` — one edge entering ``vertex``."""
    return Atom(label=label, head=vertex)
