"""The answer of a ``pairs()`` read: disjoint product / zip blocks.

The algebra builds a traversal from joins and products, so the endpoint
projection of a regular path set is a union of rectangles ``S_i x T_i`` —
and the product-BFS kernels (:mod:`repro.graph.compact`) compute it in
that factorised form: a shared sweep finds, per batch of seeds, groups of
vertices answering the same seeds; a per-seed search finds one
``{seed} x answers`` rectangle.  :class:`PairBlocks` hands that form on as
it is instead of exploding it into one tuple per pair (a dense all-sources
closure is ~190k pairs and an 18 MB ``frozenset``, or one block of ~900
members; Olteanu & Zavodny, "Size Bounds for Factorised Representations
of Query Results", TODS 40(1), 2015).  To its readers it is the set of
``(source, target)`` tuples it always was.
"""

from __future__ import annotations

from collections.abc import Set
from itertools import chain, product
from typing import (Any, FrozenSet, Hashable, Iterable, Iterator, List,
                    Optional, Sequence, Tuple)

__all__ = ["Block", "Pair", "PairBlocks"]

Pair = Tuple[Hashable, Hashable]

#: ``(firsts, seconds, crossed)``: every ``(f, s)`` of
#: ``product(firsts, seconds)`` when ``crossed``, of ``zip(firsts, seconds)``
#: (equally long) otherwise.
Block = Tuple[Sequence[Hashable], Sequence[Hashable], bool]


def _as_frozenset(name: str) -> Any:
    """``frozenset.<name>`` over the operands' materialised pair sets."""
    method = getattr(frozenset, name)

    def through(self: "PairBlocks", *others: Any) -> Any:
        return method(self._pairs(), *(
            other._pairs() if isinstance(other, PairBlocks) else other
            for other in others))
    through.__name__ = name
    through.__doc__ = "``frozenset.{}`` of the pairs.".format(name)
    return through


class PairBlocks(Set):
    """An immutable set of ``(source, target)`` pairs kept as blocks.

    The blocks must be pairwise **disjoint** and free of repeats inside
    (the kernels guarantee both: a vertex has one seed mask per batch, and
    batches, seeds and shards are distinct), so ``len`` is arithmetic and
    iteration is a ``chain`` of ``product`` / ``zip`` yielding each pair
    once.  Everything that needs a hash table — ``in``, ``==``, ``hash``,
    the comparison and set operators (either operand order) and
    ``frozenset``'s named methods — builds the ``frozenset`` of pairs on
    first use and keeps it; results of set algebra are plain
    ``frozenset`` s, and equality and hash are those of that ``frozenset``.

    ``memo`` starts unset and is opaque here: one slot for whatever a
    caller derives from the answer and wants back with it (the serving
    tier keeps the encoded wire bytes there, one entry per form; read it
    with ``getattr(answer, "memo", None)``).  Pickling ships the blocks,
    not the pairs, and drops the memo.

    The lazy set and the memo are each filled by one idempotent
    assignment — racing threads store equal values — so neither is locked.
    """

    __slots__ = ("blocks", "_frozen", "memo")

    memo: Any

    def __init__(self, blocks: Iterable[Block]) -> None:
        #: The disjoint blocks (read-only by convention).
        self.blocks: List[Block] = list(blocks)
        self._frozen: Optional[FrozenSet[Pair]] = None

    @classmethod
    def from_pairs(cls, pairs: Iterable[Pair]) -> "PairBlocks":
        """A ready pair set (deduplicated here) as one materialised zip
        block — for answers no sweep produced in blocks."""
        frozen = frozenset(pairs)
        answer = cls([tuple(zip(*frozen)) + (False,)] if frozen else ())
        answer._frozen = frozen
        return answer

    @property
    def materialised(self) -> bool:
        """Whether the ``frozenset`` of pairs has been built."""
        return self._frozen is not None

    def _pairs(self) -> FrozenSet[Pair]:
        frozen = self._frozen
        if frozen is None:
            frozen = self._frozen = frozenset(self)
        return frozen

    def __len__(self) -> int:
        return sum(len(firsts) * len(seconds) if crossed else len(firsts)
                   for firsts, seconds, crossed in self.blocks)

    def __iter__(self) -> Iterator[Pair]:
        return chain.from_iterable(
            product(firsts, seconds) if crossed else zip(firsts, seconds)
            for firsts, seconds, crossed in self.blocks)

    def __contains__(self, pair: object) -> bool:
        return pair in self._pairs()

    def __hash__(self) -> int:
        return hash(self._pairs())

    def __reduce__(self) -> Tuple[Any, ...]:
        return PairBlocks, (self.blocks,)

    def __repr__(self) -> str:
        return "PairBlocks<{} pairs in {} block(s)>".format(
            len(self), len(self.blocks))

    __eq__ = _as_frozenset("__eq__")
    __ne__ = _as_frozenset("__ne__")
    __le__ = _as_frozenset("__le__")
    __lt__ = _as_frozenset("__lt__")
    __ge__ = _as_frozenset("__ge__")
    __gt__ = _as_frozenset("__gt__")
    __and__ = _as_frozenset("__and__")
    __rand__ = _as_frozenset("__rand__")
    __or__ = _as_frozenset("__or__")
    __ror__ = _as_frozenset("__ror__")
    __sub__ = _as_frozenset("__sub__")
    __rsub__ = _as_frozenset("__rsub__")
    __xor__ = _as_frozenset("__xor__")
    __rxor__ = _as_frozenset("__rxor__")
    union = _as_frozenset("union")
    intersection = _as_frozenset("intersection")
    difference = _as_frozenset("difference")
    symmetric_difference = _as_frozenset("symmetric_difference")
    issubset = _as_frozenset("issubset")
    issuperset = _as_frozenset("issuperset")
    isdisjoint = _as_frozenset("isdisjoint")
