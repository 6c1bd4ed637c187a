"""Type A double Grothendieck polynomials and their transition calculus.

The polynomial of the longest element of S_n is the product of x_i + y_j +
beta*x_i*y_j over i + j <= n; everything else descends from it through the
isobaric divided differences.  The operator calculus itself (R_k, M_k and
the transition certificate) lives in rings and is shared with types B, C, D;
this module evaluates combinations with it and checks the Monk identity and
Lascoux's transition equation exactly.
"""

from __future__ import annotations

from functools import lru_cache

from .rings import (
    BETA,
    ONE,
    FCombo,
    TruncPoly,
    X,
    Y,
    YRational,
    apply_M,
    pi_operator,
    transition,
    unit_combo,
    xvar,
    yvar,
)
from .weyl import SignedPermutation, reflection

_memo: dict[tuple[int, ...], TruncPoly] = {}


def _staircase(n: int) -> TruncPoly:
    prod = ONE
    for i in range(1, n):
        for j in range(1, n - i + 1):
            xi, yj = xvar(i), yvar(j)
            prod = prod * (xi + yj + BETA * xi * yj)
    return prod


def groth_poly(w: SignedPermutation) -> TruncPoly:
    """The double Grothendieck polynomial of a permutation, exact in beta, x, y."""
    if not w.in_group("A"):
        raise ValueError(f"{w} is not a type A element")
    key = w.window
    cached = _memo.get(key)
    if cached is not None:
        return cached
    n = w.support
    if n == 0:
        result = ONE
    elif w.window == tuple(range(n, 0, -1)):
        result = _staircase(n)
    else:
        i = next(i for i in range(1, n) if w(i) < w(i + 1))
        result = pi_operator(i, groth_poly(w * reflection(i, i + 1)))
    _memo[key] = result
    return result


@lru_cache(maxsize=None)
def groth_single(w: SignedPermutation, family: str) -> TruncPoly:
    """The single Grothendieck polynomial, with its x-variables renamed."""
    p = groth_poly(w).set_zero([Y])
    if family == "x":
        return p
    if family == "y":
        return p.rename_family(X, Y)
    raise ValueError(f"family must be x or y, got {family!r}")


# -- the Monk rule and the transition equation ----------------------------


def combo_poly(combo: FCombo) -> YRational:
    """Evaluate a formal combination to sum of coeff * Grothendieck poly."""
    total = YRational.const(0)
    for u, c in combo:
        if isinstance(c, TruncPoly):
            c = YRational.from_poly(c)
        total = total + c * groth_poly(u)
    return total


def monk_identity_holds(u: SignedPermutation, k: int) -> bool:
    """(1 + beta*x_k) G_u == M_k G_u, as exact cleared polynomials."""
    lhs = YRational.from_poly((ONE + BETA * xvar(k)) * groth_poly(u))
    rhs = combo_poly(apply_M("A", k, unit_combo("A", u)))
    return lhs == rhs


def transition_identity_holds(w: SignedPermutation) -> bool:
    """G_w == ((1+beta*y_c)(1+beta*x_a) * R_a G_v - G_v) / beta, exactly."""
    v, a, c, combo = transition("A", w)
    bracket = (ONE + BETA * yvar(c)) * (ONE + BETA * xvar(a)) * combo_poly(combo) - groth_poly(v)
    return bracket.divide_beta() == YRational.from_poly(groth_poly(w))
