"""Path sets: elements of ``P(E*)`` and the three set-level operations.

Section II of the paper lifts the path monoid to sets of paths with three
binary operations:

* ``U``   — standard set union (:meth:`PathSet.union`, ``A | B``),
* ``><_o`` — the *concatenative join* (:meth:`PathSet.join`, ``A @ B``):
  concatenate all pairs whose join vertex matches,
  ``{a o b | a in A, b in B, (a = eps or b = eps or gamma+(a) = gamma-(b))}``,
* ``x_o`` — the *concatenative product* (:meth:`PathSet.product`, ``A * B``):
  concatenate **all** pairs, permitting disjoint paths (teleportation).

The join is the paper's workhorse: footnote 4 identifies it as the theta-join
(equijoin) of Codd's relational algebra with predicate
``gamma+(a) = gamma-(b)``.  We therefore implement it as a hash equijoin —
bucket the right operand by tail vertex and probe with each left path's head
— rather than the naive quadratic filter.  Both are exposed so the benchmark
suite can measure the difference (experiment E6).

:class:`PathSet` is immutable (backed by :class:`frozenset`), hashable, and
iterable in a deterministic sorted order so results are reproducible.
"""

from __future__ import annotations

from collections import defaultdict
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.core.edge import Edge
from repro.core.path import EPSILON, Path

__all__ = ["PathSet", "EMPTY", "EPSILON_SET"]


def _as_path(item: object) -> Path:
    """Coerce edges / raw 3-tuples / edge iterables into :class:`Path`."""
    if isinstance(item, Path):
        return item
    if isinstance(item, Edge):
        return Path((item,))
    if isinstance(item, tuple) and len(item) == 3 and not isinstance(item[0], tuple):
        return Path((item,))
    return Path(item)


class PathSet:
    """An immutable set of paths, closed under the section II operations.

    Construction accepts any iterable of paths, edges, or raw
    ``(tail, label, head)`` triples; everything is normalized to
    :class:`Path`.

    Operator summary (paper notation -> Python):

    ========  ==========================  =====================
    paper     method                      operator
    ========  ==========================  =====================
    ``U``     :meth:`union`               ``A | B``
    ``><_o``  :meth:`join`                ``A @ B``
    ``x_o``   :meth:`product`             ``A * B``
    n-fold    :meth:`join_power`          ``A ** n``
    ========  ==========================  =====================

    Examples
    --------
    >>> A = PathSet([("i", "a", "j")])
    >>> B = PathSet([("j", "b", "k"), ("x", "b", "y")])
    >>> sorted(str(p) for p in A @ B)
    ['(i, a, j, j, b, k)']
    >>> len(A * B)   # the product keeps the disjoint concatenation too
    2
    """

    __slots__ = ("_paths", "_by_tail")

    def __init__(self, paths: Iterable = ()):  # noqa: D107 - documented on class
        self._paths: FrozenSet[Path] = frozenset(_as_path(p) for p in paths)
        self._by_tail: Optional[Dict[Hashable, List[Path]]] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def of(cls, *paths) -> "PathSet":
        """Build a path set from path/edge arguments."""
        return cls(paths)

    @classmethod
    def empty(cls) -> "PathSet":
        """The empty path set (the zero of union and of join)."""
        return _EMPTY

    @classmethod
    def epsilon(cls) -> "PathSet":
        """``{epsilon}`` — the identity of the concatenative join and product."""
        return _EPSILON_SET

    @classmethod
    def from_edges(cls, edges: Iterable[Edge]) -> "PathSet":
        """Lift an edge iterable to the set of its length-1 paths."""
        return cls(Path((e,)) for e in edges)

    # ------------------------------------------------------------------
    # Set protocol
    # ------------------------------------------------------------------

    def __contains__(self, item: object) -> bool:
        return _as_path(item) in self._paths

    def __iter__(self) -> Iterator[Path]:
        # Deterministic order: sort by (length, repr) so mixed vertex types
        # (ints and strings) never raise on comparison.
        return iter(sorted(self._paths, key=lambda p: (len(p), repr(p))))

    def __len__(self) -> int:
        return len(self._paths)

    def __bool__(self) -> bool:
        return bool(self._paths)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PathSet):
            return self._paths == other._paths
        if isinstance(other, (set, frozenset)):
            return self._paths == frozenset(_as_path(p) for p in other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._paths)

    def __le__(self, other: "PathSet") -> bool:
        """Subset test: ``A <= B``."""
        return self._paths <= _coerce(other)._paths

    def __lt__(self, other: "PathSet") -> bool:
        return self._paths < _coerce(other)._paths

    def __ge__(self, other: "PathSet") -> bool:
        return self._paths >= _coerce(other)._paths

    def __gt__(self, other: "PathSet") -> bool:
        return self._paths > _coerce(other)._paths

    def issubset(self, other: "PathSet") -> bool:
        """True when every path of this set is in ``other``."""
        return self <= other

    @property
    def paths(self) -> FrozenSet[Path]:
        """The underlying frozenset of :class:`Path` objects."""
        return self._paths

    # ------------------------------------------------------------------
    # The section II operations
    # ------------------------------------------------------------------

    def union(self, other: "PathSet") -> "PathSet":
        """Set union ``A U B``."""
        return PathSet(self._paths | _coerce(other)._paths)

    def __or__(self, other: object) -> "PathSet":
        return self.union(_coerce(other))

    __ror__ = __or__

    def intersection(self, other: "PathSet") -> "PathSet":
        """Set intersection (not named in the paper, standard on ``P(E*)``)."""
        return PathSet(self._paths & _coerce(other)._paths)

    def __and__(self, other: object) -> "PathSet":
        return self.intersection(_coerce(other))

    def difference(self, other: "PathSet") -> "PathSet":
        """Set difference ``A \\ B``."""
        return PathSet(self._paths - _coerce(other)._paths)

    def __sub__(self, other: object) -> "PathSet":
        return self.difference(_coerce(other))

    def join(self, other: "PathSet") -> "PathSet":
        """The concatenative join ``A ><_o B`` (hash equijoin on the join vertex).

        Only *joint* pairs are concatenated: ``gamma+(a) == gamma-(b)``, with
        the paper's epsilon escape hatch — if either operand path is epsilon
        the pair always joins (epsilon is the concatenation identity).
        """
        other = _coerce(other)
        if not self._paths or not other._paths:
            return _EMPTY
        out: Set[Path] = set()
        right_index = other._tail_index()
        right_has_epsilon = EPSILON in other._paths
        for a in self._paths:
            if a.is_epsilon:
                # epsilon o b == b for every b in B.
                out.update(other._paths)
                continue
            for b in right_index.get(a.head, ()):
                out.add(a.concat(b))
            if right_has_epsilon:
                out.add(a)
        return PathSet(out)

    def join_naive(self, other: "PathSet") -> "PathSet":
        """The concatenative join computed by the definition's quadratic scan.

        Semantically identical to :meth:`join`; kept as the baseline for
        experiment E6 (naive filter vs hash equijoin).
        """
        other = _coerce(other)
        out = {
            a.concat(b)
            for a in self._paths
            for b in other._paths
            if a.is_epsilon or b.is_epsilon or a.head == b.tail
        }
        return PathSet(out)

    def __matmul__(self, other: object) -> "PathSet":
        return self.join(_coerce(other))

    def product(self, other: "PathSet") -> "PathSet":
        """The concatenative product ``A x_o B``: all pairwise concatenations.

        Unlike the join, disjoint pairs are kept — the paper's footnote 5
        motivates this with "teleportation" in priors-based algorithms.
        ``A ><_o B`` is always a subset of ``A x_o B`` (footnote 7).
        """
        other = _coerce(other)
        return PathSet(a.concat(b) for a in self._paths for b in other._paths)

    def __mul__(self, other: object) -> "PathSet":
        if isinstance(other, int):
            raise TypeError(
                "A * n is ambiguous; use A.join_power(n) (A ** n) or A.product(...)")
        return self.product(_coerce(other))

    def join_power(self, n: int) -> "PathSet":
        """The n-fold concatenative join ``A ><_o A ><_o ... ><_o A``.

        ``A ** 0`` is ``{epsilon}`` (the join identity), matching the regular
        expression convention ``R^0 = {eps}``.  Evaluated left-to-right;
        associativity (inherited from ``o``) makes the grouping immaterial.
        """
        if n < 0:
            raise ValueError("join power requires n >= 0")
        result = _EPSILON_SET
        for _ in range(n):
            result = result.join(self)
        return result

    def __pow__(self, n: int) -> "PathSet":
        return self.join_power(n)

    def closure(self, max_length: int) -> "PathSet":
        """Bounded Kleene star: ``U_{n=0..k} A^n`` truncated at ``max_length``.

        The true ``A*`` is infinite whenever the graph under ``A`` has a
        cycle, so any materialized star must be bounded.  ``max_length``
        bounds the *path length* of the result, not the exponent, so joining
        length-2 paths stops as soon as results would exceed the bound.
        """
        if max_length < 0:
            raise ValueError("closure bound must be >= 0")
        result: Set[Path] = {EPSILON}
        frontier: Set[Path] = {EPSILON}
        while frontier:
            grown = PathSet(frontier).join(self)
            fresh = {
                p for p in grown.paths
                if len(p) <= max_length and p not in result
            }
            result.update(fresh)
            frontier = fresh
        return PathSet(result)

    # ------------------------------------------------------------------
    # Restriction / projection helpers (the section III idioms build on these)
    # ------------------------------------------------------------------

    def starting_in(self, vertices: AbstractSet[Hashable]) -> "PathSet":
        """Paths whose tail is in ``vertices`` (left restriction, section III-B)."""
        vertex_set = set(vertices)
        return PathSet(p for p in self._paths if p and p.tail in vertex_set)

    def ending_in(self, vertices: AbstractSet[Hashable]) -> "PathSet":
        """Paths whose head is in ``vertices`` (right restriction, section III-C)."""
        vertex_set = set(vertices)
        return PathSet(p for p in self._paths if p and p.head in vertex_set)

    def with_labels(self, labels: AbstractSet[Hashable], position: Optional[int] = None) -> "PathSet":
        """Paths constrained by edge labels (section III-D).

        With ``position=None`` every edge of the path must carry a label in
        ``labels``; with ``position=n`` (1-indexed, like ``sigma``) only the
        nth edge is constrained.
        """
        label_set = set(labels)
        if position is None:
            return PathSet(
                p for p in self._paths
                if all(e.label in label_set for e in p))
        return PathSet(
            p for p in self._paths
            if len(p) >= position and p.edge(position).label in label_set)

    def filter(self, predicate: Callable[[Path], bool]) -> "PathSet":
        """Paths satisfying an arbitrary predicate."""
        return PathSet(p for p in self._paths if predicate(p))

    def joint(self) -> "PathSet":
        """Only the joint paths (Definition 3) of this set."""
        return PathSet(p for p in self._paths if p.is_joint)

    def of_length(self, n: int) -> "PathSet":
        """Only the paths with ``||a|| == n``."""
        return PathSet(p for p in self._paths if len(p) == n)

    def map(self, function: Callable[[Path], Path]) -> "PathSet":
        """Apply ``function`` to every path, collecting results as a set."""
        return PathSet(function(p) for p in self._paths)

    def tails(self) -> FrozenSet[Hashable]:
        """``{gamma-(a) | a in A}`` for the non-empty paths."""
        return frozenset(p.tail for p in self._paths if p)

    def heads(self) -> FrozenSet[Hashable]:
        """``{gamma+(a) | a in A}`` for the non-empty paths."""
        return frozenset(p.head for p in self._paths if p)

    def endpoint_pairs(self) -> FrozenSet[Tuple[Hashable, Hashable]]:
        """``{(gamma-(a), gamma+(a)) | a in A}`` — the section IV-C projection.

        This is the binary edge set ``E_ab`` the paper derives from a path
        set so single-relational algorithms can run on it.
        """
        return frozenset((p.tail, p.head) for p in self._paths if p)

    def label_paths(self) -> FrozenSet[Tuple[Hashable, ...]]:
        """``{omega'(a) | a in A}`` — the set of path labels (strings over Omega)."""
        return frozenset(p.label_path for p in self._paths)

    def max_length(self) -> int:
        """The length of the longest path (0 for the empty set)."""
        return max((len(p) for p in self._paths), default=0)

    # ------------------------------------------------------------------
    # Internal indices
    # ------------------------------------------------------------------

    def _tail_index(self) -> Dict[Hashable, List[Path]]:
        """Bucket non-empty paths by tail vertex (probe side of the equijoin)."""
        if self._by_tail is None:
            index: Dict[Hashable, List[Path]] = defaultdict(list)
            for p in self._paths:
                if p:
                    index[p.tail].append(p)
            self._by_tail = dict(index)
        return self._by_tail

    def __repr__(self) -> str:
        if not self._paths:
            return "PathSet()"
        preview = ", ".join(str(p) for n, p in zip(range(4), self))
        if len(self._paths) > 4:
            preview += ", ..."
        return "PathSet<{} paths: {}>".format(len(self._paths), preview)


def _coerce(value: object) -> PathSet:
    """Accept PathSet or any path iterable where a PathSet is expected."""
    if isinstance(value, PathSet):
        return value
    return PathSet(value)


_EMPTY = PathSet()
_EPSILON_SET = PathSet((EPSILON,))

#: The empty path set — absorbing for join and product, identity for union.
EMPTY = _EMPTY

#: ``{epsilon}`` — identity for the concatenative join and product.
EPSILON_SET = _EPSILON_SET
