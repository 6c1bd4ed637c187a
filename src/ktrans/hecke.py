"""Hecke words, compatible sequences, unimodal factorizations, and the
brute-force generating-function oracles built from them.

Everything here enumerates: these are the reference implementations the
operator calculus is checked against, so they stay close to the defining
sums.  `_walk` is the one walk over Demazure prefixes: it visits the prefix
tree of the Hecke words of w depth first and carries a state down each
edge.  `hecke_words` carries nothing.  `fstanley` carries the list of
partial sequences valid for the prefix, each with its monomial, and extends
them by one letter per edge through the method's one per-letter step,
`_compat_step` or `_unimodal_step`.  Every sequence rule looks only at
earlier positions, so a prefix with no valid sequence is dropped with its
whole subtree, and the walk goes no deeper than the longest sequence.
`quasi` walks the words that collapse to a multi-permutation the same way.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

from .rings import Z, Monomial, TruncPoly, var_code
from .weyl import (
    SignedPermutation,
    generator,
    identity,
    length,
    reduced_word,
    right_ascent,
)


def _walk(
    t: str,
    w: SignedPermutation,
    max_len: int,
    root,
    extend: Callable,
    emit: Callable,
) -> None:
    """Walk the prefixes of the Hecke words of w of length <= max_len, in
    lexicographic order, carrying a state from root down each edge.

    extend(state, word, g) is the state of word + (g,), or a falsy one for
    a dead prefix, which is dropped with its subtree.  emit(word, state)
    sees each word whose Demazure product is w.

    Letters come from supp(w), the generators of a reduced word of w: the
    Demazure product of a word lies above each of its letters in Bruhat
    order.  The Demazure prefixes of a word climb a chain in the right weak
    order, so a prefix p can still reach w iff p <= w in that order and
    l(w) - l(p) letters remain.  With w = p u and l(w) = l(p) + l(u), a
    letter g that raises p keeps p t_g below w iff g is a left descent of
    u, that is a right descent of r = u^-1 = w^-1 p, which the walk carries.
    """
    letters = sorted(set(reduced_word(t, w)))
    gens = {g: generator(t, g) for g in letters}
    lw = length(t, w)
    word: list[int] = []

    def rec(p: SignedPermutation, r: SignedPermutation, lp: int, state) -> None:
        if lp == lw:
            # p <= w and l(p) = l(w): p is w
            emit(word, state)
        if len(word) == max_len:
            return
        rem = max_len - len(word) - 1
        for g in letters:
            if right_ascent(p, g):
                if lw - lp - 1 > rem or right_ascent(r, g):
                    continue
                q, rq, lq = p * gens[g], r * gens[g], lp + 1
            else:
                if lw - lp > rem:
                    continue
                q, rq, lq = p, r, lp
            nxt = extend(state, word, g)
            if nxt:
                word.append(g)
                rec(q, rq, lq, nxt)
                word.pop()

    rec(identity(), w.inverse(), 0, root)


def hecke_words(t: str, w: SignedPermutation, max_len: int) -> list[tuple[int, ...]]:
    """All words of length <= max_len whose Demazure product is w, in
    lexicographic order."""
    words: list[tuple[int, ...]] = []

    def emit(word, state):
        words.append(tuple(word))

    _walk(t, w, max_len, True, lambda state, word, g: True, emit)
    return words


def _is_o(t: str, g: int) -> bool:
    """Whether g is an o-letter: 0 in type B, +-1 in type D."""
    return (t == "B" and g == 0) or (t == "D" and abs(g) == 1)


def _compat_step(
    t: str, top: int, word: Sequence[int], g: int, seqs: list[tuple[tuple[int, ...], int]]
) -> list[tuple[tuple[int, ...], int]]:
    """Extend each partial compatible sequence of word by the letter g.

    A partial sequence is (b, e): b is its weakly increasing values, as z
    codes up to top, and e the exponent of its weight 2^e so far.  b_{i-1}
    < b_{i+1} at every weak peak |a_{i-1}| <= |a_i| >= |a_{i+1}|, and b
    strictly increases across equal adjacent o-letters.  The exponent is e
    = |b| - gamma - o, where |b| counts the distinct values of b, gamma the
    positions repeating both the previous letter and the previous value,
    and o the o-letters.  The output keeps the order of seqs and, within
    one, increasing values, so lexicographic input stays lexicographic.
    """
    is_o = _is_o(t, g)
    peak = len(word) >= 2 and abs(word[-2]) <= abs(word[-1]) >= abs(g)
    repeat = bool(word) and word[-1] == g
    out = []
    for b, e in seqs:
        if b:
            last = b[-1]
            # a repeated value: only a strict rise before a peak allows it,
            # and equal adjacent o-letters never do
            if not (peak and b[-2] >= last) and not (repeat and is_o):
                out.append((b + (last,), e - repeat - is_o))
            lo = last + 1
        else:
            lo = var_code(Z, 1)
        # a new value rises past b[-1] >= b[-2], so a peak cannot stop it
        grow = e + 1 - is_o
        out += [(b + (c,), grow) for c in range(lo, top + 1)]
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


def _unimodal_step(
    t: str, symbols: list, word: Sequence[int], g: int, seqs: list[tuple[tuple, int]]
) -> list[tuple[tuple, int]]:
    """Extend each partial unimodal factorization of word by the letter g.

    Values run -1 < 1 < -2 < 2 < ..., index i standing for -(i//2 + 1)
    when i is even and i//2 + 1 when odd; a partial factorization is
    (b, i), b its symbols (``symbols[i]`` for each value) and i the index
    of its last value.  b weakly increases; a repeated value needs the
    letter keys (``_letter_key``) to fall if it is negative and to rise if
    positive; an o-letter takes positive values only.  The output keeps
    the order of seqs and, within one, increasing values, so lexicographic
    input stays lexicographic.
    """
    is_o = _is_o(t, g)
    if word:
        prev, cur = _letter_key(t, word[-1]), _letter_key(t, g)
        fall, rise = prev > cur, prev < cur
    out = []
    for b, i in seqs:
        if word:
            # repeat the last value: i odd is positive, i even negative
            if (rise if i % 2 else fall and not is_o):
                out.append((b + (symbols[i],), i))
            i += 1
        if is_o:
            # the positive values past the last one: odd indices only
            out += [(b + (symbols[j],), j) for j in range(i | 1, len(symbols), 2)]
        else:
            out += [(b + (symbols[j],), j) for j in range(i, len(symbols))]
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
    must agree.  One `_walk` enumerates every (word, sequence) pair; each
    partial sequence carries its monomial as sorted z codes, since b (and
    |b| in the unimodal order) weakly increases.
    """
    if method not in ("compat", "unimodal"):
        raise ValueError(f"unknown method {method!r}")
    if t not in ("B", "C", "D"):
        raise ValueError(f"K-Stanley functions need type B, C, or D, not {t!r}")
    lw = length(t, w)
    terms: dict[Monomial, int] = {}
    z1 = var_code(Z, 1)
    if method == "unimodal":
        symbols = [z1 + i // 2 for i in range(2 * num_vars)]

        def extend(seqs, word, g):
            return _unimodal_step(t, symbols, word, g, seqs)

        def emit(word, seqs):
            for b, _ in seqs:
                m = (len(b) - lw, b)
                terms[m] = terms.get(m, 0) + 1

        _walk(t, w, bound, [((), 0)], extend, emit)
        return TruncPoly(terms, bound)

    top = z1 + num_vars - 1

    def extend(seqs, word, g):
        return _compat_step(t, top, word, g, seqs)

    # Individual words can carry half-integer weights 2^e; accumulate
    # everything scaled by 2^bound and divide back at the end.
    def emit(word, seqs):
        for b, e in seqs:
            m = (len(b) - lw, b)
            terms[m] = terms.get(m, 0) + 2 ** (bound + e)

    _walk(t, w, bound, [((), 0)], extend, emit)
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
    factorizations b of a.  A walk on the prefixes of those words, each
    letter repeating pi_j or moving on to pi_(j+1), carries the partial
    factorizations through `_unimodal_step`, as `fstanley` does."""
    if mperm(pi) != tuple(pi):
        raise ValueError(f"{pi} is not a multi-permutation")
    r = len(pi)
    symbols = [var_code(Z, 1) + i // 2 for i in range(2 * num_vars)]
    terms: dict[Monomial, int] = {}
    word: list[int] = []

    def rec(j: int, seqs: list[tuple[tuple, int]]) -> None:
        # word ends in pi[j], or is empty at j = -1
        if j == r - 1:
            for b, _ in seqs:
                m = (len(b) - r, b)
                terms[m] = terms.get(m, 0) + 1
        for k in range(max(j, 0), min(j + 2, r)):
            # pi[k] and the r - k - 1 letters after it must fit
            if len(word) + r - k > bound:
                continue
            nxt = _unimodal_step("C", symbols, word, pi[k], seqs)
            if nxt:
                word.append(pi[k])
                rec(k, nxt)
                word.pop()

    rec(-1, [((), 0)])
    return TruncPoly(terms, bound)
