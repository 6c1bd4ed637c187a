"""Shifted diagrams, set-valued shifted tableaux, and GP/GQ truncations.

Marked letters 1' < 1 < 2' < 2 < ... are encoded as integers 2v-1 (primed)
and 2v (unprimed), so the alphabet order is plain integer order.  A tableau
assigns each cell a nonempty set of letter codes; semistandardness says
row-adjacent cells overlap only in unprimed letters and column-adjacent
cells only in primed ones, with max <= min across the boundary.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .rings import Monomial, TruncPoly, z_monomial
from .weyl import SignedPermutation, generator, identity


def check_strict(parts: tuple[int, ...]) -> tuple[int, ...]:
    parts = tuple(parts)
    for i, p in enumerate(parts):
        if p <= 0:
            raise ValueError(f"parts must be positive: {parts}")
        if i and parts[i - 1] <= p:
            raise ValueError(f"parts must strictly decrease: {parts}")
    return parts


def contains(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    return len(inner) <= len(outer) and all(
        inner[i] <= outer[i] for i in range(len(inner))
    )


def shifted_cells(parts: tuple[int, ...]) -> set[tuple[int, int]]:
    """SD_lambda = {(i, i+j-1) : 1 <= j <= lambda_i} as matrix positions."""
    return {
        (i, i + j - 1)
        for i, p in enumerate(parts, start=1)
        for j in range(1, p + 1)
    }


class ShiftedSkewShape:
    """A skew shifted shape lambda/mu with mu contained in lambda."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer, inner=()):
        self.outer = check_strict(tuple(outer)) if outer else ()
        self.inner = check_strict(tuple(inner)) if inner else ()
        if not contains(self.outer, self.inner):
            raise ValueError(f"{self.inner} is not contained in {self.outer}")

    def cells(self) -> list[tuple[int, int]]:
        """Row-major list of the skew cells."""
        skew = shifted_cells(self.outer) - shifted_cells(self.inner)
        return sorted(skew)

    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    def __eq__(self, other):
        return (
            isinstance(other, ShiftedSkewShape)
            and self.outer == other.outer
            and self.inner == other.inner
        )

    def __hash__(self):
        return hash((self.outer, self.inner))

    def __str__(self):
        return f"outer={list(self.outer)} inner={list(self.inner)}"


def letter_value(code: int) -> int:
    return (code + 1) // 2


def is_primed(code: int) -> bool:
    return code % 2 == 1


Tableau = dict[tuple[int, int], frozenset[int]]


def _subsets_from(letters: list[int], max_size: int) -> Iterator[tuple[int, ...]]:
    """Nonempty subsets, smallest elements first, capped in size."""
    n = len(letters)

    def rec(start: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        for k in range(start, n):
            acc.append(letters[k])
            yield tuple(acc)
            if len(acc) < max_size:
                yield from rec(k + 1, acc)
            acc.pop()

    yield from rec(0, [])


def enumerate_tableaux(
    shape: ShiftedSkewShape, flavor: str, num_letters: int, max_size: int
) -> Iterator[Tableau]:
    """All semistandard set-valued shifted tableaux with letters <= num_letters
    and total size <= max_size, in a deterministic backtracking order.  Each
    is a dict from cell to its nonempty set of letter codes.

    flavor "P" forbids primed letters on the diagonal; "Q" allows them.
    """
    if flavor not in ("P", "Q"):
        raise ValueError(f"flavor must be P or Q, got {flavor!r}")
    cells = shape.cells()
    if not cells:
        yield {}
        return
    if max_size < len(cells):
        return
    alphabet = list(range(1, 2 * num_letters + 1))
    entries: Tableau = {}

    def rec(pos: int, used: int) -> Iterator[Tableau]:
        if pos == len(cells):
            yield dict(entries)
            return
        i, j = cells[pos]
        remaining = len(cells) - pos - 1
        budget = max_size - used - remaining
        if budget < 1:
            return
        left = entries.get((i, j - 1))
        above = entries.get((i - 1, j))
        lo = 1
        if left:
            lo = max(lo, max(left))
        if above:
            lo = max(lo, max(above))
        candidates = [c for c in alphabet if c >= lo]
        if flavor == "P" and i == j:
            candidates = [c for c in candidates if not is_primed(c)]
        for subset in _subsets_from(candidates, budget):
            m = subset[0]
            # a shared boundary letter must be unprimed along rows, primed down columns
            if left and m == max(left) and is_primed(m):
                continue
            if above and m == max(above) and not is_primed(m):
                continue
            entries[(i, j)] = frozenset(subset)
            yield from rec(pos + 1, used + len(subset))
        entries.pop((i, j), None)

    yield from rec(0, 0)


@lru_cache(maxsize=None)
def _generating_function(
    shape: ShiftedSkewShape, flavor: str, num_letters: int, bound: int
) -> TruncPoly:
    terms: dict[Monomial, int] = {}
    k = shape.size()
    for tab in enumerate_tableaux(shape, flavor, num_letters, bound):
        letters = [letter_value(c) for s in tab.values() for c in s]
        m = z_monomial(len(letters) - k, letters)
        terms[m] = terms.get(m, 0) + 1
    return TruncPoly(terms, bound)


def gp(shape: ShiftedSkewShape, num_letters: int, bound: int) -> TruncPoly:
    """The K-theoretic Schur P-function, truncated to z_1..z_N, degree <= bound."""
    return _generating_function(shape, "P", num_letters, bound)


def gq(shape: ShiftedSkewShape, num_letters: int, bound: int) -> TruncPoly:
    """The K-theoretic Schur Q-function, truncated likewise."""
    return _generating_function(shape, "Q", num_letters, bound)


def reading_word(t: str, shape: ShiftedSkewShape) -> list[int]:
    """Generator indices read row by row from the canonical filling.

    Types B/C put j - i in cell (i, j).  Type D puts j - i + 1 off the
    diagonal and alternates +1, -1, +1, ... down the diagonal, matching the
    worked tableau for (5,3,1)/(2).
    """
    word = []
    for (i, j) in shape.cells():
        if t in ("B", "C"):
            word.append(j - i)
        elif t == "D":
            if i == j:
                word.append(1 if i % 2 == 1 else -1)
            else:
                word.append(j - i + 1)
        else:
            raise ValueError(f"no reading word for type {t!r}")
    return word


def w_shape(t: str, shape: ShiftedSkewShape) -> SignedPermutation:
    """The fully commutative signed permutation whose K-Stanley function is
    GP (types B, D) or GQ (type C) of the shape."""
    w = identity()
    for a in reading_word(t, shape):
        w = w * generator(t if t == "D" else "B", a)
    return w
