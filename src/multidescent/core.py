"""Descent sets, argument checks and the errors shared by every route.

Compositions and block sums live here too, though no route uses them: only
``formulas.signed_coarsenings`` (so demo 04), the tests and the bench do.
The objects here are deliberately small.  A descent set is a strictly
increasing tuple of positive positions, a composition is a plain tuple of
positive integers, and a word is any sequence of integers.  Positions are
1-indexed throughout, so ``descent_set((1, 3, 2))`` reports a descent at
position 2.  All arithmetic is exact (Python ints only).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its configured resource budget."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; this signals a bug, not bad input."""


def require_positive(**named: int) -> None:
    """Raise DomainError unless every named argument is an ``int`` (not a
    ``bool``) of at least 1."""
    for name, value in named.items():
        strict_ints((value,), name, 1)


def strict_ints(
    values: Iterable[object], what: str, low: int | None = None
) -> tuple[int, ...]:
    """The values as a tuple, the one check of integer arguments.

    Raises DomainError for a non-``int`` or a ``bool`` (nothing is coerced)
    and, when ``low`` is given, for a value below it.
    """
    items = tuple(values)
    for x in items:
        if isinstance(x, bool) or not isinstance(x, int):
            raise DomainError(f"{what} must be integers, got {x!r}")
        if low is not None and x < low:
            raise DomainError(f"{what} must be >= {low}, got {x}")
    return items


@dataclass(frozen=True)
class DescentSet:
    """A finite set of descent positions, kept strictly increasing.

    Duplicates in the input collapse (set semantics).  Elements must be
    ``int`` and not ``bool``; nothing is coerced.  The derived data used
    by the counting routes hangs off this type: the largest position, the set
    without it, the longest block of consecutive positions, and the first
    differences measured from zero.
    """

    elements: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        items = tuple(sorted(set(strict_ints(self.elements, "descent positions", 1))))
        object.__setattr__(self, "elements", items)

    @classmethod
    def _of(cls, elements: tuple[int, ...]) -> "DescentSet":
        """The set of ``elements``, already a strictly increasing tuple of
        positive ints, built without checking them again."""
        ds = object.__new__(cls)
        object.__setattr__(ds, "elements", elements)
        return ds

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, position: object) -> bool:
        return position in self.elements

    def __bool__(self) -> bool:
        return bool(self.elements)

    def __str__(self) -> str:
        return "{" + ",".join(str(x) for x in self.elements) + "}"

    @property
    def largest(self) -> int:
        if not self.elements:
            raise DomainError("the empty descent set has no largest element")
        return self.elements[-1]

    @property
    def without_largest(self) -> "DescentSet":
        """The same set with its largest element removed."""
        if not self.elements:
            raise DomainError("cannot drop the largest element of an empty set")
        return DescentSet._of(self.elements[:-1])

    @property
    def longest_run(self) -> int:
        """Length of the longest block of consecutive positions.

        Undefined (an error) for the empty set.
        """
        if not self.elements:
            raise DomainError("the longest run of an empty descent set is undefined")
        best = run = 1
        for prev, cur in zip(self.elements, self.elements[1:]):
            run = run + 1 if cur == prev + 1 else 1
            if run > best:
                best = run
        return best

    @property
    def first_differences(self) -> tuple[int, ...]:
        """Gaps between consecutive elements, the first measured from zero.

        The differences are all positive and sum to the largest element; they
        are also the row lengths of the associated ribbon, bottom to top.
        """
        out = []
        prev = 0
        for x in self.elements:
            out.append(x - prev)
            prev = x
        return tuple(out)


def descent_set(values: Sequence[int]) -> DescentSet:
    """Positions i (1-indexed) where ``values[i] > values[i+1]``."""
    if len(values) == 0:
        raise DomainError("the descent set of an empty word is undefined")
    return DescentSet(
        tuple(i for i in range(1, len(values)) if values[i - 1] > values[i])
    )


def compositions(total: int) -> Iterator[tuple[int, ...]]:
    """Yield every ordered tuple of positive integers summing to ``total``.

    Output is lazy and lexicographic: for total 3 the order is (1,1,1),
    (1,2), (2,1), (3).  There are 2**(total-1) of them; a total below 1
    yields nothing; a non-``int`` total is refused.  No counting route uses
    it: only ``formulas.signed_coarsenings`` (so demo 04), the tests and the
    bench's ``core.compositions`` rows do.
    """
    strict_ints((total,), "total")
    if total < 1:
        return
    parts = [1] * total
    while True:
        yield tuple(parts)
        if len(parts) == 1:
            return
        # The next tuple grows the second-to-last part by one and spreads the
        # rest of the last part as ones, the largest tail its sum allows.
        tail = parts.pop() - 1
        parts[-1] += 1
        parts.extend([1] * tail)


def block_sums(weights: Sequence[int], parts: Sequence[int]) -> tuple[int, ...]:
    """Collapse ``weights`` into consecutive blocks of sizes ``parts``.

    The block sizes must be positive and sum to ``len(weights)``; the result
    has one entry per block and preserves the total.  No counting route uses
    it: only ``formulas.signed_coarsenings`` (so demo 04), the tests and the
    bench's ``core.block_sums`` rows do.
    """
    strict_ints(parts, "block sizes", 1)
    if sum(parts) != len(weights):
        raise DomainError(
            f"block sizes sum to {sum(parts)}, expected {len(weights)}"
        )
    sums = []
    start = 0
    for size in parts:
        sums.append(sum(weights[start : start + size]))
        start += size
    return tuple(sums)
