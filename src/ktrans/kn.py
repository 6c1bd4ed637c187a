"""Double Grothendieck polynomials of types B, C, D via the Demazure triple
sum.

This module only evaluates.  The operator calculus (R_k, M_k at truncation,
the transition certificate) and the checks of the Monk and transition
identities live in rings, shared with type A, and take kn_eval at a fixed
truncation as their evaluator.  The triple-sum evaluator is deliberately
independent of that calculus and is the oracle every operator identity is
checked against.

It meets only the triples (sigma, u, tau) with sigma^-1 o u o tau = w, by
undoing Demazure steps from w: x o t_g = y holds exactly when g is a right
descent of y and x is y or y*t_g.  Undoing the reduced word of tau from its
last letter gives the set of p with p o tau = w; undoing the word of sigma
the same way from each p^-1 gives, inverted, the u with sigma^-1 o u = p.
A Demazure product lies above each factor in Bruhat order, so sigma^-1,
u, p and tau all lie below w: each has length at most l(w) and support
inside the window of w, and the walk, which only ever steps down from w,
stays inside both caps without checking them.
"""

from __future__ import annotations

from functools import lru_cache

from .groth_a import groth_single
from .hecke import fstanley
from .rings import TruncPoly
from .weyl import (
    SignedPermutation,
    elements_up_to_length,
    generator,
    length,
    reduced_word,
    right_ascent,
)


def _undo(t: str, ends: dict, word: tuple[int, ...]) -> dict:
    """{x: l(x)} over the x with x o t_{a_1} o ... o t_{a_k} in ends, for
    word = (a_1, ..., a_k) and ends mapping elements to their lengths.
    Each x has one Demazure image, so no x is reached twice."""
    for g in reversed(word):
        tg = generator(t, g)
        prev = {}
        for y, ly in ends.items():
            if not right_ascent(y, g):
                prev[y] = ly
                prev[y * tg] = ly - 1
        ends = prev
    return ends


@lru_cache(maxsize=None)
def _perms(n: int, cap: int) -> tuple:
    """(s, l(s), a reduced word of s) over the s in S_n of length <= cap."""
    return tuple((s, length("A", s), tuple(reduced_word("A", s)))
                 for s in elements_up_to_length("A", n, cap))


@lru_cache(maxsize=None)
def kn_eval(t: str, w: SignedPermutation, num_vars: int, bound: int) -> TruncPoly:
    """The classical-type double Grothendieck series of w, truncated."""
    if t not in ("B", "C", "D"):
        raise ValueError(f"type must be B, C, or D, not {t!r}")
    lw = length(t, w)
    perms = _perms(max(w.support, 1), min(lw, bound))
    total = TruncPoly.zero(bound)
    for tau, lt, tau_word in perms:
        # p o tau = w, kept as p^-1 for the walk along sigma
        ends = {p.inverse(): lp for p, lp in _undo(t, {w: lw}, tau_word).items()}
        by_tau = TruncPoly.zero(bound)
        for sigma, ls, sigma_word in perms:
            room = bound - ls - lt
            if room < 0:
                continue
            inner = TruncPoly.zero(bound)
            # v o sigma = p^-1 exactly when sigma^-1 o v^-1 = p, so u = v^-1
            for v, lu in _undo(t, ends, sigma_word).items():
                if lu <= room:
                    fu = fstanley(t, v.inverse(), num_vars, bound)
                    inner = inner + TruncPoly.beta(ls + lu + lt - lw) * fu
            if inner:
                by_tau = by_tau + inner * groth_single(sigma, "y")
        if by_tau:
            total = total + by_tau * groth_single(tau, "x")
    return total
