"""Regular path expressions over the edge alphabet ``E`` (section IV-A).

The paper defines regular expressions whose alphabet is the *edge set*
(not the label set, which is reference [8]'s setting): the empty expression,
epsilon, and any edge set are regular; and closure under union ``U``,
concatenative join ``><_o``, and Kleene star ``*``.  Footnote 8 adds the
derived forms ``R+ = R ><_o R*``, ``R? = R U {eps}``, ``R^n``.  The
concatenative product ``x_o`` may replace the join to admit disjoint paths
(footnote 7).

Atoms come in two shapes, matching the paper's set-builder notation:

* :class:`Atom` — a **pattern** ``[tail, label, head]`` with ``None`` as the
  underscore wildcard; resolved against a graph at evaluation time.
* :class:`Literal` — an **explicit** path set like ``{(j, a, i)}``.

Expressions are immutable, hashable, comparable trees.  Python operators
mirror the algebra: ``r | q`` (union), ``r @ q`` (join), ``r * q``
(product), ``r.star()``, ``r.plus()``, ``r.optional()``, ``r ** n``.

:func:`evaluate` is the direct structural evaluator (the semantics);
:mod:`repro.automata` provides the equivalent automaton-based recognizer and
generator, and the test suite property-checks the two against each other.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Tuple

from repro.core.edge import Edge
from repro.core.path import Path
from repro.core.pathset import PathSet
from repro.errors import RegexError
from repro.graph.graph import MultiRelationalGraph

__all__ = [
    "RegexExpr",
    "Empty",
    "Epsilon",
    "Atom",
    "Literal",
    "Union",
    "Join",
    "Product",
    "Star",
    "Repeat",
    "EMPTY",
    "EPSILON",
    "evaluate",
]


class RegexExpr:
    """Base class for regular path expression nodes.

    Subclasses are value objects: construction normalizes nothing (use
    :meth:`simplified` for algebraic normalization), equality is structural.
    """

    __slots__ = ()

    # -- pickling ---------------------------------------------------------
    # Nodes are slot-based and guard mutation with a raising __setattr__,
    # which also breaks pickle's default state restore.  Spell the state
    # protocol out through object.__setattr__ (the same side door the
    # constructors use) so expressions can cross process boundaries — the
    # parallel executor ships them to its workers.

    def __getstate__(self) -> Dict[str, object]:
        state = {}
        for klass in type(self).__mro__:
            for slot in getattr(klass, "__slots__", ()):
                state[slot] = getattr(self, slot)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        for slot, value in state.items():
            object.__setattr__(self, slot, value)

    # -- algebra operators ------------------------------------------------

    def __or__(self, other: "RegexExpr") -> "RegexExpr":
        return Union((self, _check_expr(other)))

    def __matmul__(self, other: "RegexExpr") -> "RegexExpr":
        return Join((self, _check_expr(other)))

    def __mul__(self, other: "RegexExpr") -> "RegexExpr":
        return Product((self, _check_expr(other)))

    def __pow__(self, n: int) -> "RegexExpr":
        if not isinstance(n, int) or n < 0:
            raise RegexError("R ** n requires an integer n >= 0")
        return Repeat(self, n, n)

    def star(self) -> "RegexExpr":
        """Kleene star ``R*`` (zero or more join-repetitions)."""
        return Star(self)

    def plus(self) -> "RegexExpr":
        """``R+ = R ><_o R*`` (footnote 8)."""
        return Repeat(self, 1, None)

    def optional(self) -> "RegexExpr":
        """``R? = R U {eps}`` (footnote 8)."""
        return Repeat(self, 0, 1)

    def repeat(self, minimum: int, maximum: Optional[int]) -> "RegexExpr":
        """Bounded repetition ``R{min,max}`` (``max=None`` for unbounded)."""
        return Repeat(self, minimum, maximum)

    # -- structural protocol ----------------------------------------------

    def children(self) -> Tuple["RegexExpr", ...]:
        """Immediate sub-expressions."""
        return ()

    @property
    def nullable(self) -> bool:
        """True when epsilon is in the expression's language."""
        raise NotImplementedError

    def simplified(self) -> "RegexExpr":
        """An algebraically simplified equivalent expression.

        Applies: identity/zero laws of union and join, flattening and
        deduplication of unions, flattening of joins/products, star
        idempotence (``(R*)* = R*``), ``{}* = eps* = eps``, and collapse of
        trivial repeats.
        """
        return self

    def size(self) -> int:
        """Number of nodes in the expression tree."""
        return 1 + sum(child.size() for child in self.children())

    def depth(self) -> int:
        """Height of the expression tree."""
        kids = self.children()
        if not kids:
            return 1
        return 1 + max(child.depth() for child in kids)

    def atoms(self) -> Tuple["RegexExpr", ...]:
        """All Atom/Literal leaves, left to right (with repetition)."""
        if isinstance(self, (Atom, Literal)):
            return (self,)
        out: Tuple[RegexExpr, ...] = ()
        for child in self.children():
            out += child.atoms()
        return out

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self) -> Hashable:
        raise NotImplementedError


def _check_expr(value: object) -> "RegexExpr":
    if not isinstance(value, RegexExpr):
        raise RegexError(
            "expected a regular path expression, got {!r}".format(value))
    return value


class Empty(RegexExpr):
    """The empty language ``{}`` — matches no path at all."""

    __slots__ = ()

    @property
    def nullable(self) -> bool:
        return False

    def _key(self) -> Hashable:
        return ()

    def __repr__(self) -> str:
        return "Empty()"

    def __str__(self) -> str:
        return "{}"


class Epsilon(RegexExpr):
    """The language ``{eps}`` — matches exactly the empty path."""

    __slots__ = ()

    @property
    def nullable(self) -> bool:
        return True

    def _key(self) -> Hashable:
        return ()

    def __repr__(self) -> str:
        return "Epsilon()"

    def __str__(self) -> str:
        return "eps"


class Atom(RegexExpr):
    """A set-builder pattern ``[tail, label, head]`` with ``None`` wildcards.

    ``Atom()`` is ``[_, _, _] = E``; ``Atom(label="a")`` is ``[_, a, _]``;
    etc.  Matches exactly the length-1 paths whose edge satisfies the
    pattern in the graph being queried.
    """

    __slots__ = ("tail", "label", "head")

    def __init__(self, tail: Optional[Hashable] = None,
                 label: Optional[Hashable] = None,
                 head: Optional[Hashable] = None):
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "head", head)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Atom is immutable")

    @property
    def nullable(self) -> bool:
        return False

    def resolve(self, graph: MultiRelationalGraph) -> PathSet:
        """The pattern's edge set in ``graph``, as length-1 paths."""
        return graph.edges(tail=self.tail, label=self.label, head=self.head)

    def matches_edge(self, e: Edge, graph: MultiRelationalGraph) -> bool:
        """Membership test for one edge (the automaton's transition function)."""
        if self.tail is not None and e.tail != self.tail:
            return False
        if self.label is not None and e.label != self.label:
            return False
        if self.head is not None and e.head != self.head:
            return False
        return graph.has_edge(e.tail, e.label, e.head)

    def _key(self) -> Hashable:
        return (self.tail, self.label, self.head)

    def __repr__(self) -> str:
        return "Atom(tail={!r}, label={!r}, head={!r})".format(
            self.tail, self.label, self.head)

    def __str__(self) -> str:
        def show(part: Optional[Hashable]) -> str:
            return "_" if part is None else str(part)
        return "[{}, {}, {}]".format(show(self.tail), show(self.label), show(self.head))


class Literal(RegexExpr):
    """An explicit path set, e.g. the paper's ``{(j, a, i)}``.

    Unlike :class:`Atom`, a literal is graph-independent: it matches its
    paths whether or not they exist in the queried graph (the generator
    intersects with graph paths implicitly because joins only extend with
    the literal's own content; the recognizer checks raw equality).
    Multi-edge paths are allowed.
    """

    __slots__ = ("path_set",)

    def __init__(self, paths: Iterable):
        object.__setattr__(self, "path_set",
                           paths if isinstance(paths, PathSet) else PathSet(paths))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Literal is immutable")

    @property
    def nullable(self) -> bool:
        return Path() in self.path_set

    def resolve(self, graph: MultiRelationalGraph) -> PathSet:
        """The literal's own path set (graph-independent)."""
        return self.path_set

    def _key(self) -> Hashable:
        return self.path_set

    def __repr__(self) -> str:
        return "Literal({!r})".format(self.path_set)

    def __str__(self) -> str:
        return "{" + ", ".join(str(p) for p in self.path_set) + "}"


class _Nary(RegexExpr):
    """Shared machinery for Union/Join/Product."""

    __slots__ = ("parts",)
    _symbol = "?"

    def __init__(self, parts: Iterable[RegexExpr]):
        normalized = tuple(_check_expr(p) for p in parts)
        if len(normalized) < 1:
            raise RegexError("{} needs at least one operand".format(type(self).__name__))
        object.__setattr__(self, "parts", normalized)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("regex nodes are immutable")

    def children(self) -> Tuple[RegexExpr, ...]:
        return self.parts

    def _key(self) -> Hashable:
        return self.parts

    def __repr__(self) -> str:
        return "{}({!r})".format(type(self).__name__, list(self.parts))

    def __str__(self) -> str:
        return "(" + (" " + self._symbol + " ").join(str(p) for p in self.parts) + ")"


class Union(_Nary):
    """``R U Q`` — set union of path languages."""

    __slots__ = ()
    _symbol = "|"

    @property
    def nullable(self) -> bool:
        return any(p.nullable for p in self.parts)

    def simplified(self) -> RegexExpr:
        flat = []
        for part in self.parts:
            part = part.simplified()
            if isinstance(part, Union):
                flat.extend(part.parts)
            elif isinstance(part, Empty):
                continue
            else:
                flat.append(part)
        unique = []
        for part in flat:
            if part not in unique:
                unique.append(part)
        if not unique:
            return EMPTY
        if len(unique) == 1:
            return unique[0]
        return Union(tuple(unique))


class Join(_Nary):
    """``R ><_o Q`` — concatenative join: only joint concatenations survive."""

    __slots__ = ()
    _symbol = "."

    @property
    def nullable(self) -> bool:
        return all(p.nullable for p in self.parts)

    def simplified(self) -> RegexExpr:
        flat = []
        for part in self.parts:
            part = part.simplified()
            if isinstance(part, Empty):
                return EMPTY
            if isinstance(part, Epsilon):
                continue
            if isinstance(part, Join):
                flat.extend(part.parts)
            else:
                flat.append(part)
        if not flat:
            return EPSILON
        if len(flat) == 1:
            return flat[0]
        return Join(tuple(flat))


class Product(_Nary):
    """``R x_o Q`` — concatenative product: disjoint concatenations allowed."""

    __slots__ = ()
    _symbol = "x"

    @property
    def nullable(self) -> bool:
        return all(p.nullable for p in self.parts)

    def simplified(self) -> RegexExpr:
        flat = []
        for part in self.parts:
            part = part.simplified()
            if isinstance(part, Empty):
                return EMPTY
            if isinstance(part, Epsilon):
                continue
            if isinstance(part, Product):
                flat.extend(part.parts)
            else:
                flat.append(part)
        if not flat:
            return EPSILON
        if len(flat) == 1:
            return flat[0]
        return Product(tuple(flat))


class Star(RegexExpr):
    """``R*`` — zero or more join-repetitions of ``R``."""

    __slots__ = ("inner",)

    def __init__(self, inner: RegexExpr):
        object.__setattr__(self, "inner", _check_expr(inner))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("regex nodes are immutable")

    @property
    def nullable(self) -> bool:
        return True

    def children(self) -> Tuple[RegexExpr, ...]:
        return (self.inner,)

    def simplified(self) -> RegexExpr:
        inner = self.inner.simplified()
        if isinstance(inner, (Empty, Epsilon)):
            return EPSILON
        if isinstance(inner, Star):
            return inner
        if isinstance(inner, Repeat) and inner.minimum == 0 and inner.maximum is None:
            return inner
        return Star(inner)

    def _key(self) -> Hashable:
        return (self.inner,)

    def __repr__(self) -> str:
        return "Star({!r})".format(self.inner)

    def __str__(self) -> str:
        return "{}*".format(self.inner)


class Repeat(RegexExpr):
    """Bounded repetition ``R{min,max}`` with join semantics between copies.

    ``maximum=None`` means unbounded (``R{min,} = R^min ><_o R*``).  The
    derived forms all reduce here: ``R? = R{0,1}``, ``R+ = R{1,}``,
    ``R^n = R{n,n}``.
    """

    __slots__ = ("inner", "minimum", "maximum")

    def __init__(self, inner: RegexExpr, minimum: int, maximum: Optional[int]):
        if minimum < 0:
            raise RegexError("repetition minimum must be >= 0")
        if maximum is not None and maximum < minimum:
            raise RegexError("repetition maximum must be >= minimum")
        object.__setattr__(self, "inner", _check_expr(inner))
        object.__setattr__(self, "minimum", minimum)
        object.__setattr__(self, "maximum", maximum)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("regex nodes are immutable")

    @property
    def nullable(self) -> bool:
        return self.minimum == 0 or self.inner.nullable

    def children(self) -> Tuple[RegexExpr, ...]:
        return (self.inner,)

    def simplified(self) -> RegexExpr:
        inner = self.inner.simplified()
        if isinstance(inner, Empty):
            return EPSILON if self.minimum == 0 else EMPTY
        if isinstance(inner, Epsilon):
            return EPSILON
        if self.minimum == 0 and self.maximum is None:
            return Star(inner).simplified()
        if self.minimum == 1 and self.maximum == 1:
            return inner
        if self.maximum == 0:
            return EPSILON
        return Repeat(inner, self.minimum, self.maximum)

    def expand(self) -> RegexExpr:
        """Rewrite into the primitive operators (join / union / star).

        ``R{2,4} -> R . R . (R | eps) . (R | eps)``;
        ``R{2,} -> R . R . R*``.  Used by the Thompson construction so the
        NFA only needs the primitive node types.
        """
        copies = [self.inner] * self.minimum
        if self.maximum is None:
            copies.append(Star(self.inner))
        else:
            optional_part = Union((self.inner, EPSILON))
            copies.extend([optional_part] * (self.maximum - self.minimum))
        if not copies:
            return EPSILON
        if len(copies) == 1:
            return copies[0]
        return Join(tuple(copies))

    def _key(self) -> Hashable:
        return (self.inner, self.minimum, self.maximum)

    def __repr__(self) -> str:
        return "Repeat({!r}, {}, {})".format(self.inner, self.minimum, self.maximum)

    def __str__(self) -> str:
        if self.minimum == 0 and self.maximum == 1:
            return "{}?".format(self.inner)
        if self.minimum == 1 and self.maximum is None:
            return "{}+".format(self.inner)
        if self.maximum is None:
            return "{}{{{},}}".format(self.inner, self.minimum)
        if self.minimum == self.maximum:
            return "{}{{{}}}".format(self.inner, self.minimum)
        return "{}{{{},{}}}".format(self.inner, self.minimum, self.maximum)


#: Shared singletons for the two constant languages.
EMPTY = Empty()
EPSILON = Epsilon()


def evaluate(expression: RegexExpr, graph: MultiRelationalGraph,
             max_length: int) -> PathSet:
    """Directly evaluate a regular path expression against a graph.

    This is the *reference semantics*: a structural recursion using the
    section II operations, with stars computed as bounded fixpoints (any
    star over a cyclic graph is infinite, so ``max_length`` truncates by
    path length).  The automaton generator in :mod:`repro.automata` must
    agree with this function up to the bound — the property-based tests
    enforce exactly that.
    """
    if max_length < 0:
        raise RegexError("max_length must be >= 0")
    expr = expression
    if isinstance(expr, Empty):
        return PathSet.empty()
    if isinstance(expr, Epsilon):
        return PathSet.epsilon()
    if isinstance(expr, (Atom, Literal)):
        resolved = expr.resolve(graph)
        return PathSet(p for p in resolved if len(p) <= max_length)
    if isinstance(expr, Union):
        out = PathSet.empty()
        for part in expr.parts:
            out = out | evaluate(part, graph, max_length)
        return out
    if isinstance(expr, Join):
        out = PathSet.epsilon()
        for part in expr.parts:
            out = out.join(evaluate(part, graph, max_length))
            out = PathSet(p for p in out if len(p) <= max_length)
            if not out:
                return out
        return out
    if isinstance(expr, Product):
        out = PathSet.epsilon()
        for part in expr.parts:
            out = out.product(evaluate(part, graph, max_length))
            out = PathSet(p for p in out if len(p) <= max_length)
            if not out:
                return out
        return out
    if isinstance(expr, Star):
        base = evaluate(expr.inner, graph, max_length)
        return _bounded_star(base, max_length)
    if isinstance(expr, Repeat):
        return evaluate(expr.expand(), graph, max_length)
    raise RegexError("unknown expression node {!r}".format(expr))


def _bounded_star(base: PathSet, max_length: int) -> PathSet:
    """``U_n base^n`` truncated at path length ``max_length`` (a fixpoint)."""
    result = {Path()}
    frontier = {Path()}
    while frontier:
        grown = PathSet(frontier).join(base)
        fresh = {p for p in grown.paths if len(p) <= max_length and p not in result}
        result.update(fresh)
        frontier = fresh
    return PathSet(result)
