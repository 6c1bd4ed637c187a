"""Hecke words, compatible sequences, unimodal factorizations, and the
brute-force generating-function oracles built from them.

Everything here enumerates: these are the reference implementations the
operator calculus is checked against, so they stay close to the defining
sums.  `_walk` is the one pass over Demazure prefixes.  It runs layer by
word length, and a layer maps each state (the prefix p, l(p) and the last
two letters) to a value: a table from partial sequences to counts.
Prefixes that reach the same state share one table, whose counts add.  A
prefix's moves are built on its first visit and kept per (t, w), so every
walk of w, whatever the oracle or (N, D), shares them.  `hecke_words`
carries the words themselves.  `fstanley` carries the
partial sequences valid for the prefix, each with its monomial, and
extends them by one letter per edge through the method's one per-letter
step, `_compat_step` or `_unimodal_step`, which reads only the last two
letters.  Every sequence rule looks only at earlier positions, so a state
with no valid sequence is dropped, and the pass stops at its first empty
layer.  `quasi` runs the same kind of pass over the words that collapse to
a multi-permutation, keyed by the letter of it they end in.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Sequence

from .rings import Z, Monomial, TruncPoly, var_code
from .weyl import (
    IDENTITY,
    SignedPermutation,
    generator,
    length,
    reduced_word,
    right_ascent,
)


def _add(into: dict, value: dict) -> None:
    """Add the counts of value into the table into."""
    for s, c in value.items():
        into[s] = into.get(s, 0) + c


@lru_cache(maxsize=None)
def _prefix_moves(t: str, w: SignedPermutation) -> tuple:
    """(the letters of w with their generators, w^-1, l(w), the move table
    of w).  The table maps each Demazure prefix p that a walk of w has
    reached to its moves (g, p o t_g, l(p o t_g)), one per letter g that
    keeps p below w.  A prefix's moves are built on its first visit, and
    the walks of every oracle at every (N, D) share them."""
    letters = sorted(set(reduced_word(t, w)))
    return {g: generator(t, g) for g in letters}, w.inverse(), length(t, w), {}


def _walk(t: str, w: SignedPermutation, max_len: int, root: dict, step) -> dict:
    """The merged value of the words of length <= max_len whose Demazure
    product is w, starting from root at the empty word.

    step(last, g, value) is the value of the prefixes ending in the letters
    last, at most two, extended by the letter g; an empty one drops the
    state.

    Letters come from supp(w), the generators of a reduced word of w: the
    Demazure product of a word lies above each of its letters in Bruhat
    order.  The Demazure prefixes of a word climb a chain in the right weak
    order, so a prefix p can still reach w iff p <= w in that order and
    l(w) - l(p) letters remain.  With w = p u and l(w) = l(p) + l(u), a
    letter g that raises p keeps p t_g below w iff g is a left descent of
    u, that is a right descent of r = u^-1 = w^-1 p.
    """
    gens, w_inv, lw, table = _prefix_moves(t, w)
    done: dict = {}
    layer = {(IDENTITY, 0, ()): root}
    n = 0
    while layer:
        rem = max_len - n - 1
        nxt: dict = {}
        for (p, lp, last), value in layer.items():
            if lp == lw:
                # p <= w and l(p) = l(w): p is w
                _add(done, value)
            moves = table.get(p)
            if moves is None:
                r, moves = w_inv * p, []
                for g, tg in gens.items():
                    if not right_ascent(p, g):
                        moves.append((g, p, lp))
                    elif not right_ascent(r, g):
                        moves.append((g, p * tg, lp + 1))
                # only a whole list enters the table, so an interrupted walk leaves none
                table[p] = moves
            for g, q, lq in moves:
                if lw - lq > rem:
                    continue
                out = step(last, g, value)
                if out:
                    # a state keeps its first table, uncopied; later ones add into it
                    key = (q, lq, (*last[-1:], g))
                    held = nxt.setdefault(key, out)
                    if held is not out:
                        _add(held, out)
        layer, n = nxt, n + 1
    return done


def _word_step(last, g: int, words: dict) -> dict:
    """Extend each word by the letter g."""
    return {a + (g,): c for a, c in words.items()}


def hecke_words(t: str, w: SignedPermutation, max_len: int) -> list[tuple[int, ...]]:
    """All words of length <= max_len whose Demazure product is w, in
    lexicographic order."""
    return sorted(_walk(t, w, max_len, {(): 1}, _word_step))


def _is_o(t: str, g: int) -> bool:
    """Whether g is an o-letter: 0 in type B, +-1 in type D."""
    return (t == "B" and g == 0) or (t == "D" and abs(g) == 1)


def _compat_step(t: str, top: int, last: Sequence[int], g: int, seqs: dict) -> dict:
    """Extend each partial compatible sequence of a prefix ending in the
    letters last (at most two) by the letter g.

    A partial sequence is (b, e): b is its weakly increasing values, as z
    codes up to top, and e the exponent of its weight 2^e so far; seqs maps
    each to its count.  b_{i-1} < b_{i+1} at every weak peak |a_{i-1}| <=
    |a_i| >= |a_{i+1}|, and b strictly increases across equal adjacent
    o-letters.  The exponent is e = |b| - gamma - o, where |b| counts the
    distinct values of b, gamma the positions repeating both the previous
    letter and the previous value, and o the o-letters.  The output keeps
    the order of seqs and, within one, increasing values.
    """
    is_o = _is_o(t, g)
    peak = len(last) >= 2 and abs(last[-2]) <= abs(last[-1]) >= abs(g)
    repeat = bool(last) and last[-1] == g
    out: dict = {}
    for (b, e), n in seqs.items():
        if b:
            v = b[-1]
            # a repeated value: only a strict rise before a peak allows it,
            # and equal adjacent o-letters never do
            if not (peak and b[-2] >= v) and not (repeat and is_o):
                s = (b + (v,), e - repeat - is_o)
                out[s] = out.get(s, 0) + n
            lo = v + 1
        else:
            lo = var_code(Z, 1)
        # a new value rises past b[-1] >= b[-2], so a peak cannot stop it
        grow = e + 1 - is_o
        for c in range(lo, top + 1):
            s = (b + (c,), grow)
            out[s] = out.get(s, 0) + n
    return out


def _letter_key(t: str, x: int):
    """The letter comparison used by the equal-b tiebreak.

    Types B and C compare |x|.  Type D refines ties between the commuting
    letters -1 and 1 by putting -1 first; without this the unimodal sum
    drops the square terms that the compatible-sequence sum produces.
    """
    if t == "D" and abs(x) == 1:
        return (1, x)
    return (abs(x), 0)


def _unimodal_step(t: str, symbols: list, last: Sequence[int], g: int, seqs: dict) -> dict:
    """Extend each partial unimodal factorization of a prefix ending in the
    letters last (at most two) by the letter g.

    Values run -1 < 1 < -2 < 2 < ..., index i standing for -(i//2 + 1)
    when i is even and i//2 + 1 when odd; a partial factorization is
    (b, i), b its symbols (``symbols[i]`` for each value) and i the index
    of its last value, and seqs maps each to its count.  b weakly
    increases; a repeated value needs the letter keys (``_letter_key``) to
    fall if it is negative and to rise if positive; an o-letter takes
    positive values only.  Two factorizations can meet: with z_1 for both
    -1 and 1, (b, 0) moving on and (b, 1) repeating both reach
    (b + (z_1,), 1), so counts add.  The output keeps the order of seqs
    and, within one, increasing values.
    """
    is_o = _is_o(t, g)
    if last:
        prev, cur = _letter_key(t, last[-1]), _letter_key(t, g)
        fall, rise = prev > cur, prev < cur
    size = len(symbols)
    out: dict = {}
    for (b, i), n in seqs.items():
        if last:
            # repeat the last value: i odd is positive, i even negative
            if (rise if i % 2 else fall and not is_o):
                s = (b + (symbols[i],), i)
                out[s] = out.get(s, 0) + n
            i += 1
        # an o-letter takes the positive values past the last one: odd indices
        for j in range(i | 1, size, 2) if is_o else range(i, size):
            s = (b + (symbols[j],), j)
            out[s] = out.get(s, 0) + n
    return out


# -- K-Stanley symmetric functions ----------------------------------------


@lru_cache(maxsize=None)
def fstanley(
    t: str,
    w: SignedPermutation,
    num_vars: int,
    bound: int,
    method: str = "compat",
) -> TruncPoly:
    """The K-Stanley symmetric function of w, truncated to z_1..z_N and
    total degree <= bound: the sum over the Hecke words a of w of
    beta^(|a|-l(w)) times the weights of their sequences.

    method "compat" sums 2^(|b|-gamma-o) z^b over compatible sequences;
    method "unimodal" sums z^|b| over unimodal factorizations.  The two
    must agree.  One `_walk` counts every sequence of every word; each
    partial sequence carries its monomial as sorted z codes, since b (and
    |b| in the unimodal order) weakly increases.
    """
    if method not in ("compat", "unimodal"):
        raise ValueError(f"unknown method {method!r}")
    if t not in ("B", "C", "D"):
        raise ValueError(f"K-Stanley functions need type B, C, or D, not {t!r}")
    lw = length(t, w)
    z1 = var_code(Z, 1)
    compat = method == "compat"
    if compat:
        step = partial(_compat_step, t, z1 + num_vars - 1)
    else:
        step = partial(_unimodal_step, t, [z1 + i // 2 for i in range(2 * num_vars)])
    # A compatible sequence can carry a half-integer weight 2^e; accumulate
    # everything scaled by 2^bound and divide back at the end.
    terms: dict[Monomial, int] = {}
    for (b, e), n in _walk(t, w, bound, {((), 0): 1}, step).items():
        m = (len(b) - lw, b)
        terms[m] = terms.get(m, 0) + (n * 2 ** (bound + e) if compat else n)
    if compat:
        divisor = 2**bound
        for m, c in terms.items():
            q, r = divmod(c, divisor)
            if r:
                raise AssertionError("compatible-sequence weights did not sum to integers")
            terms[m] = q
    return TruncPoly(terms, bound)


# -- multi-permutations and quasisymmetric functions -------------------------


def mperm(a: tuple[int, ...]) -> tuple[int, ...]:
    """Collapse adjacent equal letters."""
    out = []
    for x in a:
        if not out or out[-1] != x:
            out.append(x)
    return tuple(out)


def quasi(pi: tuple[int, ...], num_vars: int, bound: int) -> TruncPoly:
    """The multi-peak quasisymmetric function attached to a
    multi-permutation, truncated: the sum of beta^(|a|-|pi|) z^|b| over the
    words a = pi_1^+ pi_2^+ ... of length <= bound and the type C unimodal
    factorizations b of a.  A pass by word length keys each prefix by the j
    with the prefix ending in pi_j; its next letter repeats pi_j or moves
    on to pi_(j+1), and the partial factorizations, with their counts, ride
    along through `_unimodal_step`, as in `fstanley`."""
    if mperm(pi) != tuple(pi):
        raise ValueError(f"{pi} is not a multi-permutation")
    r = len(pi)
    symbols = [var_code(Z, 1) + i // 2 for i in range(2 * num_vars)]
    terms: dict[Monomial, int] = {}
    # the empty prefix sits at j = -1
    layer = {-1: {((), 0): 1}}
    n = 0
    while layer:
        nxt: dict = {}
        for j, seqs in layer.items():
            if j == r - 1:
                for (b, _), c in seqs.items():
                    m = (len(b) - r, b)
                    terms[m] = terms.get(m, 0) + c
            for k in range(max(j, 0), min(j + 2, r)):
                # pi[k] and the r - k - 1 letters after it must fit
                if n + r - k > bound:
                    continue
                out = _unimodal_step("C", symbols, pi[max(j, 0) : j + 1], pi[k], seqs)
                if out:
                    held = nxt.setdefault(k, out)
                    if held is not out:
                        _add(held, out)
        layer, n = nxt, n + 1
    return TruncPoly(terms, bound)
