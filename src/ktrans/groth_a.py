"""Type A double Grothendieck polynomials.

The double polynomial of the longest element of S_n is the product of
x_i + y_j + beta*x_i*y_j over i + j <= n, and every double polynomial
descends from it through the isobaric divided differences.  The single
polynomials, the double ones at y = 0, descend the same way from x^delta =
x_1^(n-1) x_2^(n-2) ... x_(n-1), far more cheaply than building the double
polynomial and dropping its y terms.  This module only evaluates: the
operator calculus (R_k, M_k, the transition certificate) and the checks of
the Monk identity and Lascoux's transition equation live in rings, shared
with types B, C, D, and take groth_poly as their evaluator.
"""

from __future__ import annotations

from functools import lru_cache

from .rings import BETA, ONE, Y, TruncPoly, code_index, pi_operator, var_code, xvar, yvar
from .weyl import SignedPermutation, reflection

# the one descent memo, keyed by (w, double); bench/worker.reset clears it
_memo: dict[tuple[SignedPermutation, bool], TruncPoly] = {}


def _descend(w: SignedPermutation, double: bool) -> TruncPoly:
    """The double polynomial of w if double, else the single one: from the
    longest element of S_n down to w, one pi_operator at each first ascent."""
    cached = _memo.get((w, double))
    if cached is not None:
        return cached
    n = w.support
    result = ONE
    if w == tuple(range(n, 0, -1)):
        for i in range(1, n):
            for j in range(1, n - i + 1):
                xi, yj = xvar(i), yvar(j)
                result = result * ((xi + yj + BETA * xi * yj) if double else xi)
    else:
        i = next(i for i in range(1, n) if w(i) < w(i + 1))
        result = pi_operator(i, _descend(w * reflection(i, i + 1), double))
    _memo[w, double] = result
    return result


def groth_poly(w: SignedPermutation) -> TruncPoly:
    """The double Grothendieck polynomial of a permutation, exact in beta, x, y."""
    if not w.in_group("A"):
        raise ValueError(f"{w} is not a type A element")
    return _descend(w, True)


@lru_cache(maxsize=None)
def groth_single(w: SignedPermutation, family: str) -> TruncPoly:
    """The single Grothendieck polynomial G_w(x), the double one at y = 0;
    in the y family, the same polynomial with each x_i renamed y_i.  Every
    code of G_w(x) is an x, so each renamed tuple stays sorted."""
    if not w.in_group("A"):
        raise ValueError(f"{w} is not a type A element")
    if family == "x":
        return _descend(w, False)
    if family == "y":
        terms = {(b, tuple(var_code(Y, code_index(code)) for code in v)): c
                 for (b, v), c in _descend(w, False).terms.items()}
        return TruncPoly(terms)
    raise ValueError(f"family must be x or y, got {family!r}")
