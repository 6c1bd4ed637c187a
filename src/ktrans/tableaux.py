"""Shifted diagrams, set-valued shifted tableaux, and GP/GQ truncations.

Marked letters 1' < 1 < 2' < 2 < ... are encoded as integers 2v-1 (primed)
and 2v (unprimed), so the alphabet order is plain integer order.  A tableau
assigns each cell a nonempty set of letter codes; semistandardness says
row-adjacent cells overlap only in unprimed letters and column-adjacent
cells only in primed ones, with max <= min across the boundary.

GP and GQ are summed over these tableaux without listing them: a transfer
matrix runs over the cells in row-major order, and its state is the max
code of each filled cell an unfilled cell still borders, with the letters
used so far.  Each state holds its partial tableaux as a table from
monomial to count, so tableaux that agree on the state and the monomial
are counted together.

The engine needs only the shape half (check_strict, ShiftedSkewShape,
w_shape), so the generating function imports rings in its body, which
runs once per cache miss.
"""

from __future__ import annotations

from functools import lru_cache

from .weyl import SignedPermutation, _apply_word, check_classical


def check_strict(parts: tuple[int, ...]) -> tuple[int, ...]:
    parts = tuple(parts)
    for i, p in enumerate(parts):
        if type(p) is not int or p <= 0:  # bools and floats are not parts
            raise ValueError(f"parts must be positive integers: {parts}")
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
    """A skew shifted shape lambda/mu with mu contained in lambda: immutable,
    equal and hashed by (outer, inner)."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer: tuple[int, ...], inner: tuple[int, ...] = ()):
        outer = check_strict(outer) if outer else ()
        inner = check_strict(inner) if inner else ()
        if not contains(outer, inner):
            raise ValueError(f"{inner} is not contained in {outer}")
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.outer, self.inner) == (other.outer, other.inner)

    def __hash__(self):
        return hash((self.outer, self.inner))

    def __reduce__(self):
        # unpickle through the validating constructor
        return (ShiftedSkewShape, (self.outer, self.inner))

    def __repr__(self):
        return f"ShiftedSkewShape(outer={self.outer!r}, inner={self.inner!r})"

    def cells(self) -> list[tuple[int, int]]:
        """Row-major list of the skew cells."""
        skew = shifted_cells(self.outer) - shifted_cells(self.inner)
        return sorted(skew)

    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    def __str__(self):
        return f"outer={list(self.outer)} inner={list(self.inner)}"


@lru_cache(maxsize=None)
def _generating_function(
    shape: ShiftedSkewShape, flavor: str, num_letters: int, bound: int
) -> TruncPoly:
    """The sum of beta^(|T| - |shape|) z^T over the semistandard set-valued
    shifted tableaux T with letters <= num_letters and at most bound
    entries, by a transfer matrix over the cells in row-major order.

    A cell's admissible sets depend only on its left and above neighbours'
    max codes, on whether it is a diagonal cell of flavor P, and on the
    letters left in the budget, so they are tabulated once per call.  The
    state after a cell is the max code of every filled cell that is still
    the left or above neighbour of an unfilled one, in row-major order, with
    the number of letters used; its value maps each monomial, as the sorted
    z codes of rings.TruncPoly, to its number of partial tableaux.  Cell
    (i, j) finds its above neighbour at the front of the state (the cells of
    row i - 1 still waiting are in columns >= j) and its left neighbour at
    the back, drops the one and, if it has no cell below, the other, and
    joins the back itself if a cell lies to its right or below.
    """
    from .rings import Z, TruncPoly, var_code

    cells = shape.cells()
    skew = set(cells)
    k = len(cells)
    top = 2 * num_letters
    table: dict[tuple[int, int, bool, int], dict] = {}

    def choices(left: int, above: int, diag: bool, budget: int) -> dict:
        """The sets a cell admits, counted by what its filling passes on:
        (max code, size, sorted z codes).  0 stands for a missing neighbour."""
        key = (left, above, diag, budget)
        if key not in table:
            merged = table[key] = {}
            # the sets of codes above c, which the sets with least code c extend
            tails = {(0, 0, ()): 1}
            for c in range(top, max(left, above, 1) - 1, -1) if budget > 0 else ():
                if diag and c % 2:
                    continue  # flavor P keeps primed letters off the diagonal
                z = (var_code(Z, (c + 1) // 2),)
                grown = [
                    ((high or c, size + 1, z + zs), n) for (high, size, zs), n in tails.items()
                ]
                # a shared boundary letter is unprimed along rows, primed down columns
                if not (c % 2 and c == left or not c % 2 and c == above):
                    for group, n in grown:
                        merged[group] = merged.get(group, 0) + n
                for group, n in grown:
                    if group[1] < budget:  # only a set that can still grow
                        tails[group] = tails.get(group, 0) + n
        return table[key]

    layer: dict[tuple[tuple[int, ...], int], dict[tuple[int, ...], int]] = {((), 0): {(): 1}}
    for pos, (i, j) in enumerate(cells):
        up = 1 if (i - 1, j) in skew else 0
        left = (i, j - 1) in skew
        drop = 1 if left and (i + 1, j - 1) not in skew else 0
        keep = (i, j + 1) in skew or (i + 1, j) in skew
        diag = flavor == "P" and i == j
        remaining = k - pos - 1
        nxt: dict = {}
        for (state, used), monos in layer.items():
            rest = state[up : len(state) - drop]
            options = choices(
                state[-1] if left else 0, state[0] if up else 0, diag, bound - used - remaining
            )
            for (high, size, zs), mult in options.items():
                target = nxt.setdefault((rest + (high,) if keep else rest, used + size), {})
                for m, c in monos.items():
                    m = m + zs if not m or m[-1] <= zs[0] else tuple(sorted(m + zs))
                    target[m] = target.get(m, 0) + c * mult
        layer = nxt
    # the last cell leaves the state empty, so the keys differ only in used
    return TruncPoly(
        {(used - k, zs): n for (_, used), monos in layer.items() for zs, n in monos.items()},
        bound,
    )


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
    worked tableau for (5,3,1)/(2).  Any other type raises ValueError, even
    for the empty shape.
    """
    if t in ("B", "C"):
        return [j - i for (i, j) in shape.cells()]
    check_classical(t, "a reading word")
    return [(1 if i % 2 else -1) if i == j else j - i + 1 for (i, j) in shape.cells()]


def w_shape(t: str, shape: ShiftedSkewShape) -> SignedPermutation:
    """The fully commutative signed permutation whose K-Stanley function is
    GP (types B, D) or GQ (type C) of the shape: the product of the
    generators of its reading word, applied to one window in place."""
    return SignedPermutation._trusted(_apply_word(t, [], reading_word(t, shape)))
