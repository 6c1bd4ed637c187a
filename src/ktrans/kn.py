"""Double Grothendieck polynomials of types B, C, D via the Demazure triple
sum, and the checks of the Monk and transition identities against them.

The operator calculus (R_k, M_k at truncation and the transition
certificate) lives in rings and is shared with type A.  The triple-sum
evaluator is deliberately independent of it: it enumerates (sigma, u, tau)
directly and is the oracle every operator identity is checked against.
Both the Demazure product and Bruhat order force the factors of w to have
length at most l(w) and support inside the window of w, which keeps the
enumeration small.
"""

from __future__ import annotations

from functools import lru_cache

from .groth_a import groth_single
from .hecke import fstanley
from .rings import (
    BETA,
    ONE,
    FCombo,
    TruncPoly,
    YRational,
    apply_M,
    ominus_y,
    transition,
    unit_combo,
    xvar,
    yvar,
)
from .weyl import SignedPermutation, demazure_mul, elements_up_to_length, length


@lru_cache(maxsize=None)
def _demazure(t: str, u: SignedPermutation, v: SignedPermutation) -> SignedPermutation:
    return demazure_mul(t, u, v)


@lru_cache(maxsize=None)
def kn_eval(t: str, w: SignedPermutation, num_vars: int, bound: int) -> TruncPoly:
    """The classical-type double Grothendieck series of w, truncated."""
    if t not in ("B", "C", "D"):
        raise ValueError(f"type must be B, C, or D, not {t!r}")
    lw = length(t, w)
    n = max(w.support, 1)
    cap = min(lw, bound)
    sigmas = [(s, length("A", s)) for s in elements_up_to_length("A", n, cap)]
    xelems = [(u, length(t, u)) for u in elements_up_to_length(t, n, cap)]
    total = TruncPoly.zero(bound)
    for sigma, ls in sigmas:
        if ls > bound:
            continue
        sigma_inv = sigma.inverse()
        gy = groth_single(sigma, "y").with_bound(bound)
        for u, lu in xelems:
            if ls + lu > bound:
                continue
            p = _demazure(t, sigma_inv, u)
            if length(t, p) > lw:
                continue
            fu = None
            for tau, lt in sigmas:
                if ls + lu + lt > bound:
                    continue
                if _demazure(t, p, tau) != w:
                    continue
                if fu is None:
                    fu = fstanley(t, u, num_vars, bound)
                term = (
                    TruncPoly.beta(ls + lu + lt - lw, bound)
                    * gy
                    * fu
                    * groth_single(tau, "x").with_bound(bound)
                )
                total = total + term
    return total


# -- evaluation and the transition identity ---------------------------------


def combo_kn(t: str, combo: FCombo, num_vars: int, bound: int) -> YRational:
    """Sum coeff_u * KN polynomial of u, over the combination."""
    total = YRational.const(0)
    for u, c in combo:
        if isinstance(c, TruncPoly):
            c = YRational.from_poly(c)
        total = total + c * kn_eval(t, u, num_vars, bound)
    return total


def monk_identity_holds(t: str, u: SignedPermutation, k: int, num_vars: int, bound: int) -> bool:
    """(1 + beta*x_k) * KN_u == M_k KN_u at the given truncation."""
    lhs = YRational.from_poly(
        ((ONE + BETA * xvar(k)) * kn_eval(t, u, num_vars, bound)).with_bound(bound)
    )
    rhs = combo_kn(t, apply_M(t, k, unit_combo(t, u), bound), num_vars, bound)
    return lhs == rhs


def y_factor(c: int) -> YRational:
    """1 + beta*y_c, reading y_{-i} as the ominus of y_i."""
    if c > 0:
        return YRational.from_poly(ONE + BETA * yvar(c))
    return YRational.const(1) + BETA * ominus_y(-c)


def transition_residual(
    t: str, w: SignedPermutation, num_vars: int, bound: int
) -> YRational:
    """The difference between the two sides of the transition identity; the
    beta-division exactness is part of the check.

    The identity: KN_w = ((1+beta*y_c)(1+beta*x_a) * R_a KN_v - KN_v) / beta,
    with y_c read as ominus y_{|c|} when c is negative.
    """
    v, a, c, combo = transition(t, w)
    bracket = (
        y_factor(c) * (ONE + BETA * xvar(a)) * combo_kn(t, combo, num_vars, bound)
        - kn_eval(t, v, num_vars, bound)
    )
    return bracket.divide_beta() - kn_eval(t, w, num_vars, bound)


def transition_identity_holds(t: str, w: SignedPermutation, num_vars: int, bound: int) -> bool:
    return transition_residual(t, w, num_vars, bound).is_zero()
