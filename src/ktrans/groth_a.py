"""Type A double Grothendieck polynomials and their transition calculus.

The polynomial of the longest element of S_n is the product of x_i + y_j +
beta*x_i*y_j over i + j <= n; everything else descends from it through the
isobaric divided differences.  The Monk-type operator calculus acts on
formal combinations with coefficients in the localized y-ring.
"""

from __future__ import annotations

import threading
from functools import lru_cache

from .rings import (
    BETA,
    ONE,
    FCombo,
    TruncPoly,
    X,
    Y,
    YRational,
    apply_R,
    pi_operator,
    star_action,
    xvar,
    yvar,
)
from .weyl import SignedPermutation, length_increment_ok, reflection, transition_data

_memo_lock = threading.Lock()
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
    with _memo_lock:
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
    with _memo_lock:
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


# -- the operator calculus ----------------------------------------------


def _t_move(u: SignedPermutation, i: int, j: int) -> SignedPermutation | None:
    """u * (i,j) when that raises type A length by one, else None."""
    if length_increment_ok("A", u, i, j):
        return u * reflection(i, j)
    return None


def apply_R_a(k: int, combo: FCombo) -> FCombo:
    """(1 + beta t_{k-1,k}) ... (1 + beta t_{1,k}), rightmost factor first."""
    return apply_R("A", k, combo)


def apply_M_a(k: int, combo: FCombo) -> FCombo:
    """The Monk-type operator: t-product, u-product, and the v scaling.

    Factors act rightmost first: scale by 1/(1+beta*y_{u(k)}), then the
    twisted u-moves for j = k-1 down to 1, then the t-moves for l above k.
    """
    out = FCombo(combo.group_type)
    for u, c in combo:
        out.add_term(u, c * YRational.inverse_unit(u(k)))
    for j in range(k - 1, 0, -1):
        extra = FCombo(combo.group_type)
        for u, c in out:
            v = _t_move(u, j, k)
            if v is not None:
                twist = v * u.inverse()
                extra.add_term(v, star_action(twist, c) * BETA * (-1))
        out = out + extra
    max_l = max([k] + [u.support for u, _ in out]) + 1
    for l in range(max_l, k, -1):
        extra = FCombo(combo.group_type)
        for u, c in out:
            v = _t_move(u, k, l)
            if v is not None:
                extra.add_term(v, c * BETA)
        out = out + extra
    return out


def combo_poly(combo: FCombo) -> YRational:
    """Evaluate a formal combination to sum of coeff * Grothendieck poly."""
    total = YRational.const(0)
    for u, c in combo:
        if isinstance(c, TruncPoly):
            c = YRational.from_poly(c)
        total = total + c * groth_poly(u)
    return total


def unit_combo(w: SignedPermutation) -> FCombo:
    return FCombo("A", {w: YRational.const(1)})


def monk_identity_holds(u: SignedPermutation, k: int) -> bool:
    """(1 + beta*x_k) G_u == M_k G_u, as exact cleared polynomials."""
    lhs = YRational.from_poly((ONE + BETA * xvar(k)) * groth_poly(u))
    rhs = combo_poly(apply_M_a(k, unit_combo(u)))
    return lhs == rhs


# -- the transition equation ----------------------------------------------


def transition_a(w: SignedPermutation) -> tuple[SignedPermutation, int, int, FCombo]:
    """The transition identity data for a type A element with a descent.

    Returns (v, a, c, R_a applied to G_v); the identity says
    G_w = ((1+beta*y_c)(1+beta*x_a) * combo - G_v) / beta, exactly.
    """
    if not w.in_group("A"):
        raise ValueError(f"{w} is not a type A element")
    v, a, _, c = transition_data(w)
    return v, a, c, apply_R_a(a, unit_combo(v))


def transition_identity_holds(w: SignedPermutation) -> bool:
    v, a, c, combo = transition_a(w)
    bracket = (ONE + BETA * yvar(c)) * (ONE + BETA * xvar(a)) * combo_poly(combo) - groth_poly(v)
    return bracket.divide_beta() == YRational.from_poly(groth_poly(w))
