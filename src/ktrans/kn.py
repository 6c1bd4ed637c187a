"""Double Grothendieck polynomials of types B, C, D via the Demazure triple
sum, and the classical-type operator calculus with its transition identity.

The triple-sum evaluator is deliberately independent of the operator code:
it enumerates (sigma, u, tau) directly and is the oracle every operator
identity is checked against.  Both the Demazure product and Bruhat order
force the factors of w to have length at most l(w) and support inside the
window of w, which keeps the enumeration small.
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
    apply_R,
    ominus_y,
    star_action,
    xvar,
    yvar,
)
from .weyl import (
    SignedPermutation,
    demazure_mul,
    elements_up_to_length,
    is_valid_reflection,
    length,
    length_increment_ok,
    reflection,
    transition_data,
)


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
    sigmas = [s for s in elements_up_to_length("A", n, cap)]
    xelems = [u for u in elements_up_to_length(t, n, cap)]
    total = TruncPoly.zero(bound)
    for sigma in sigmas:
        ls = length("A", sigma)
        if ls > bound:
            continue
        sigma_inv = sigma.inverse()
        gy = groth_single(sigma, "y").with_bound(bound)
        for u in xelems:
            lu = length(t, u)
            if ls + lu > bound:
                continue
            p = _demazure(t, sigma_inv, u)
            if length(t, p) > lw:
                continue
            fu = None
            for tau in sigmas:
                lt = length("A", tau)
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


# -- the operator calculus ----------------------------------------------


def _raise_move(t: str, u: SignedPermutation, i: int, j: int) -> SignedPermutation | None:
    """u * t_{ij} when valid in type t and length raises by one, else None."""
    if not is_valid_reflection(t, i, j):
        return None
    if length_increment_ok(t, u, i, j):
        return u * reflection(i, j)
    return None


def unit_combo(t: str, w: SignedPermutation) -> FCombo:
    return FCombo(t, {w: YRational.const(1)})


def apply_R_bcd(t: str, k: int, combo: FCombo) -> FCombo:
    """The transition operator R_k of type B, C or D: the n-factor first
    (type B only), then the t-moves for j ascending (see weyl.r_chains)."""
    return apply_R(t, k, combo)


def apply_M_bcd(t: str, k: int, combo: FCombo, bound: int) -> FCombo:
    """The Monk-type operator at truncation: v-scaling, then the twisted
    u-moves for j descending below k, then the o-correction (type B), then
    the t-moves for l above k.

    Basis elements of length above the bound are dropped as they appear:
    their coefficients sit in degrees the truncation cannot see.
    """
    out = FCombo(t)
    for u, c in combo:
        wk = u(k)
        if wk > 0:
            out.add_term(u, c * YRational.inverse_unit(wk))
        else:
            out.add_term(u, c * (ONE + BETA * yvar(-wk)))

    def prune(comb: FCombo) -> FCombo:
        res = FCombo(t)
        for u, c in comb:
            if length(t, u) <= bound:
                res.add_term(u, c)
        return res

    out = prune(out)
    j = k - 1
    while out.terms and j >= -(max(k, max(u.support for u, _ in out)) + 1):
        extra = FCombo(t)
        for u, c in out:
            v = _raise_move(t, u, j, k)
            if v is not None and length(t, v) <= bound:
                twist = v * u.inverse()
                extra.add_term(v, star_action(twist, c) * BETA * (-1))
        out = out + extra
        j -= 1
    if t == "B":
        extra = FCombo(t)
        for u, c in out:
            v = _raise_move("B", u, 0, k)
            if v is not None and length("B", v) <= bound:
                extra.add_term(v, YRational.from_poly(c.at_y_zero()) * BETA * (-1))
        out = out + extra
    if out.terms:
        for l in range(max(k, max(u.support for u, _ in out)) + 1, k, -1):
            extra = FCombo(t)
            for u, c in out:
                v = _raise_move(t, u, k, l)
                if v is not None and length(t, v) <= bound:
                    extra.add_term(v, c * BETA)
            out = out + extra
    return out


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
    rhs = combo_kn(t, apply_M_bcd(t, k, unit_combo(t, u), bound), num_vars, bound)
    return lhs == rhs


def transition_bcd(t: str, w: SignedPermutation) -> tuple[SignedPermutation, int, int, FCombo]:
    """Transition certificate (v, a, c, R_a applied to KN_v).

    The identity: KN_w = ((1+beta*y_c)(1+beta*x_a) * combo - KN_v) / beta,
    with y_c read as ominus y_{|c|} when c is negative.
    """
    if not w.in_group(t):
        raise ValueError(f"{w} is not in the group of type {t}")
    v, a, _, c = transition_data(w)
    return v, a, c, apply_R_bcd(t, a, unit_combo(t, v))


def y_factor(c: int) -> YRational:
    """1 + beta*y_c, reading y_{-i} as the ominus of y_i."""
    if c > 0:
        return YRational.from_poly(ONE + BETA * yvar(c))
    return YRational.const(1) + BETA * ominus_y(-c)


def transition_residual(
    t: str, w: SignedPermutation, num_vars: int, bound: int
) -> YRational:
    """The difference between the two sides of the transition identity; the
    beta-division exactness is part of the check."""
    v, a, c, combo = transition_bcd(t, w)
    bracket = (
        y_factor(c) * (ONE + BETA * xvar(a)) * combo_kn(t, combo, num_vars, bound)
        - kn_eval(t, v, num_vars, bound)
    )
    return bracket.divide_beta() - kn_eval(t, w, num_vars, bound)


def transition_identity_holds(t: str, w: SignedPermutation, num_vars: int, bound: int) -> bool:
    return transition_residual(t, w, num_vars, bound).is_zero()
