"""Double Grothendieck polynomials of types B, C, D via the Demazure triple
sum.

This module only evaluates.  The operator calculus (R_k, M_k at truncation,
the transition certificate) and the checks of the Monk and transition
identities live in rings, shared with type A, and take kn_eval at a fixed
truncation as their evaluator.  The triple-sum evaluator is deliberately
independent of that calculus: it enumerates (sigma, u, tau) directly and is
the oracle every operator identity is checked against.  Both the Demazure
product and Bruhat order force the factors of w to have length at most l(w)
and support inside the window of w, which keeps the enumeration small.
"""

from __future__ import annotations

from functools import lru_cache

from .groth_a import groth_single
from .hecke import fstanley
from .rings import TruncPoly
from .weyl import SignedPermutation, demazure_mul, elements_up_to_length, length


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
        sigma_inv = sigma.inverse()
        gy = groth_single(sigma, "y")
        for u, lu in xelems:
            if ls + lu > bound:
                continue
            p = demazure_mul(t, sigma_inv, u)
            if length(t, p) > lw:
                continue
            fu = None
            for tau, lt in sigmas:
                if ls + lu + lt > bound:
                    continue
                if demazure_mul(t, p, tau) != w:
                    continue
                if fu is None:
                    fu = fstanley(t, u, num_vars, bound)
                # the beta power carries the bound, so the product truncates from its first step
                beta = TruncPoly.beta(ls + lu + lt - lw, bound)
                total = total + beta * gy * fu * groth_single(tau, "x")
    return total
