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

The sum factors through p: the half-sum K_p over the (sigma, u) with
sigma^-1 o u = p is memoized by (t, p, N, D), so every w whose walk
reaches p shares it.  Both levels are one Demazure fold, _fold: K_p folds
G_sigma(y) against F_u(z) at p^-1, and kn_eval folds G_tau(x) against K_p
at w.  The fold adds into one term table through rings._mul_into, which
joins codes already in order without a sort; since codes sort x < y < z,
a product of G_tau(x), G_sigma(y) and F_u(z) monomials is always their
code tuples joined.
"""

from __future__ import annotations

from functools import lru_cache

from .groth_a import groth_single
from .hecke import fstanley
from .rings import TruncPoly, _mul_into, z_start
from .weyl import (
    SignedPermutation,
    check_classical,
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
    words = {s: tuple(reduced_word("A", s)) for s in elements_up_to_length("A", n, cap)}
    return tuple((s, len(word), word) for s, word in words.items())


def _fold(t: str, y: SignedPermutation, family: str, inner, bound: int) -> dict:
    """The sum of beta^(l(s)+l(x)-l(y)) G_s(family) inner(x) over s in S_n,
    n the support of y, and the x with x o s = y, as a term table cut at
    degree bound.  s lies below y in Bruhat order, so its reduced words use
    only y's generators and l(s) <= l(y); inner(x) has least degree l(x),
    and its codes sort after those of family."""
    ly = length(t, y)
    table: dict = {}
    for s, ls, s_word in _perms(max(y.support, 1), min(ly, bound)):
        # G_s is built only for an s that some x meets
        for x, lx in _undo(t, {y: ly}, s_word).items():
            if ls + lx <= bound:
                _mul_into(table, groth_single(s, family).terms, inner(x), bound, ls + lx - ly)
    return {m: c for m, c in table.items() if c}


@lru_cache(maxsize=None)
def _half_sum(t: str, p: SignedPermutation, num_vars: int, bound: int) -> dict:
    """K_p, the sum of beta^(l(sigma)+l(u)-l(p)) G_sigma(y) F_u(z) over the
    sigma^-1 o u = p: the fold at p^-1, since v o sigma = p^-1 exactly when
    sigma^-1 o v^-1 = p, so u = v^-1."""
    return _fold(t, p.inverse(), "y",
                 lambda v: fstanley(t, v.inverse(), num_vars, bound).terms, bound)


@lru_cache(maxsize=None)
def kn_eval(t: str, w: SignedPermutation, num_vars: int, bound: int) -> TruncPoly:
    """The classical-type double Grothendieck series of w, truncated: the
    sum of beta^(l(p)+l(tau)-l(w)) G_tau(x) K_p over the p o tau = w.
    N is checked by ``rings.z_start`` here, for every w and bound, not
    only where the fold reaches `fstanley`."""
    check_classical(t, "kn_eval")
    z_start(num_vars)
    return TruncPoly(_fold(t, w, "x", lambda p: _half_sum(t, p, num_vars, bound), bound), bound)
