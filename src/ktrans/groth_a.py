"""Type A double Grothendieck polynomials, as sums over pipe dreams.

A pipe dream of w crosses some cells (i, j), i + j <= n = support(w); read
row by row from the top, each row right to left, its crosses spell a word
in the letters i + j - 1 whose Demazure product is w (Fomin and Kirillov
1994, Knutson and Miller 2005).  G_w sums beta^(crosses - l(w)) times a
factor per cross: x_i + y_j + beta*x_i*y_j for the double polynomial, x_i
for the single one G_w(x), the double one at y = 0, and y_i for its y
copy.  One pass reads the cells on `hecke._prefix_moves`, the machine of
the B, C, D word oracles.  This module only evaluates: the operator
calculus and the Monk and transition checks live in rings, shared with
types B, C, D, and take groth_poly as their evaluator.
"""

from __future__ import annotations

from .hecke import _prefix_moves
from .rings import X, Y, Monomial, TruncPoly, var_code
from .weyl import SignedPermutation

# the most terms one layer of tables may hold, counted as each enters:
# every element of S_6 fits, while s_k holds 4^k - 1, so s_11 is refused
MAX_TERMS = 1 << 20

# the one memo, keyed by (w, family), family "xy" (double), "x" or "y";
# bench/worker.reset clears it
_memo: dict[tuple[SignedPermutation, str], TruncPoly] = {}


def _cross(terms: dict[Monomial, int], factor: tuple, extra: int):
    """The terms of a table times a cross's factor and beta^extra."""
    for (b, v), c in terms.items():
        for fb, fv in factor:
            yield (b + fb + extra, tuple(sorted(v + fv))), c


def _pipe_dreams(w: SignedPermutation, family: str) -> TruncPoly:
    """The Grothendieck polynomial of w in family "xy", "x" or "y".

    One pass over the cells whose letter is in supp(w) holds a term table
    per Demazure prefix state: an elbow keeps a table, a cross moves it
    along the letter's move, and a state that the cells left cannot finish
    is dropped.  A ValueError naming w refuses the pass before a layer of
    tables holds more than MAX_TERMS terms."""
    cached = _memo.get((w, family))
    if cached is not None:
        return cached
    start, goal, moves = _prefix_moves("A", w)
    n = w.support
    cells = [(i, j) for i in range(1, n) for j in range(n - i, 0, -1) if i + j - 1 in moves.gens]
    tables: dict[tuple, dict[Monomial, int]] = {start: {(0, ()): 1}}
    for k, (i, j) in enumerate(cells):
        rem = len(cells) - 1 - k  # the cells left after this one
        g = i + j - 1
        if family == "xy":
            cx, cy = var_code(X, i), var_code(Y, j)
            factor = ((0, (cx,)), (0, (cy,)), (1, (cx, cy)))
        else:
            factor = ((0, (var_code(X if family == "x" else Y, i),)),)
        nxt: dict[tuple, dict[Monomial, int]] = {}
        held = 0
        for state, terms in tables.items():
            steps = [(state, terms.items())] if moves.lw - state[1] <= rem else []  # an elbow
            for h, q, need in moves[state]:
                if h == g and need <= rem:  # a cross, one more beta if it does not raise
                    steps.append((q, _cross(terms, factor, int(q == state))))
            for q, new in steps:
                into = nxt.setdefault(q, {})
                for m, c in new:
                    if m in into:
                        into[m] += c
                        continue
                    held += 1
                    if held > MAX_TERMS:
                        raise ValueError(
                            f"{w}: the pipe-dream tables would hold more than {MAX_TERMS} terms")
                    into[m] = c
        tables = nxt
    result = TruncPoly(tables.get(goal, {}))
    _memo[w, family] = result
    return result


def groth_poly(w: SignedPermutation) -> TruncPoly:
    """The double Grothendieck polynomial of a permutation, exact in beta, x,
    y; the pass refuses a non-member as every type A operator does."""
    return _pipe_dreams(w, "xy")


def groth_single(w: SignedPermutation, family: str) -> TruncPoly:
    """The single Grothendieck polynomial G_w(x), the double one at y = 0;
    in the y family, the same polynomial in y_i for each x_i.  The family
    is checked before w, which is refused as ``groth_poly`` refuses it."""
    if family not in ("x", "y"):
        raise ValueError(f"family must be x or y, got {family!r}")
    return _pipe_dreams(w, family)
