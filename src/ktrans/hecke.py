"""Hecke words, compatible sequences, unimodal factorizations, and the
brute-force generating-function oracles built from them.

Everything here enumerates: these are the reference implementations the
operator calculus is checked against, so they stay close to the defining
sums.  `hecke_words` is the one walk over Demazure products; the oracles
sum their sequences over its words.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .rings import Monomial, TruncPoly, z_monomial
from .weyl import (
    SignedPermutation,
    demazure_apply,
    identity,
    length,
    reduced_word,
)


def hecke_words(t: str, w: SignedPermutation, max_len: int) -> Iterator[tuple[int, ...]]:
    """All words of length <= max_len whose Demazure product is w, in
    lexicographic order.

    Letters come from supp(w), the generators of a reduced word of w: the
    Demazure product of a word lies above each of its letters in Bruhat
    order.  The Demazure prefixes of a word climb a chain in the right weak
    order, so a prefix q can still reach w iff q <= w in that order and
    l(w) - l(q) letters remain.
    """
    letters = sorted(set(reduced_word(t, w)))
    lw = length(t, w)
    word: list[int] = []

    def rec(p: SignedPermutation, lp: int) -> Iterator[tuple[int, ...]]:
        if p == w:
            yield tuple(word)
        if len(word) == max_len:
            return
        rem = max_len - len(word) - 1
        for g in letters:
            q = demazure_apply(t, p, g)
            lq = lp if q is p else lp + 1
            if lw - lq > rem:
                continue
            # a raised prefix must stay below w in the right weak order
            # (p already does)
            if q is not p and length(t, q.inverse() * w) != lw - lq:
                continue
            word.append(g)
            yield from rec(q, lq)
            word.pop()

    yield from rec(identity(), 0)


def compatible_sequences(
    t: str, a: tuple[int, ...], num_vars: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Compatible sequences b of the word a with values in [1, num_vars],
    each with the exponent e of its weight 2^e.

    b weakly increases, with b_{i-1} < b_{i+1} at every weak peak
    |a_{i-1}| <= |a_i| >= |a_{i+1}|, and strictly increases across equal
    adjacent o-letters: 0 in type B, +-1 in type D.  The exponent is
    e = |b| - gamma - o, where |b| counts the distinct values of b, gamma
    the positions repeating both the previous letter and the previous
    value, and o the o-letters.
    """
    k = len(a)
    b: list[int] = []

    def rec(pos: int, e: int) -> Iterator[tuple[tuple[int, ...], int]]:
        if pos == k:
            yield tuple(b), e
            return
        g = a[pos]
        is_o = (t == "B" and g == 0) or (t == "D" and abs(g) == 1)
        peak = pos >= 2 and abs(a[pos - 2]) <= abs(a[pos - 1]) >= abs(g)
        for val in range(b[-1] if b else 1, num_vars + 1):
            if peak and not b[-2] < val:
                continue
            same = pos >= 1 and val == b[-1]
            repeat = same and a[pos - 1] == g
            if repeat and is_o:
                continue
            b.append(val)
            yield from rec(pos + 1, e + (not same) - repeat - is_o)
            b.pop()

    yield from rec(0, 0)


def _letter_key(t: str, x: int):
    """The letter comparison used by the equal-b tiebreak.

    Types B and C compare |x|.  Type D refines ties between the commuting
    letters -1 and 1 by putting -1 first; without this the unimodal sum
    drops the square terms that the compatible-sequence sum produces.
    """
    if t == "D" and abs(x) == 1:
        return (1, x)
    return (abs(x), 0)


def unimodal_factorizations(
    t: str, a: tuple[int, ...], num_vars: int
) -> Iterator[tuple[int, ...]]:
    """Unimodal factorizations b of the word a with |b_i| <= num_vars.

    b weakly increases in the order -1 < 1 < -2 < 2 < ... of ``values``.  A
    repeated value needs the letter keys (``_letter_key``) to fall if it is
    negative and to rise if positive.  An o-letter (0 in type B, +-1 in
    type D) takes positive values only.
    """
    k = len(a)
    values = [v for m in range(1, num_vars + 1) for v in (-m, m)]
    b: list[int] = []

    def rec(pos: int, lo: int) -> Iterator[tuple[int, ...]]:
        # lo is the index of b[-1] in values, the least one b can take next
        if pos == k:
            yield tuple(b)
            return
        g = a[pos]
        is_o = (t == "B" and g == 0) or (t == "D" and abs(g) == 1)
        if pos:
            prev, cur = _letter_key(t, a[pos - 1]), _letter_key(t, g)
        for i in range(lo, len(values)):
            val = values[i]
            if val < 0 and is_o:
                continue
            if pos and i == lo and not (prev > cur if val < 0 else prev < cur):
                continue
            b.append(val)
            yield from rec(pos + 1, i)
            b.pop()

    yield from rec(0, 0)


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
    must agree.
    """
    if method not in ("compat", "unimodal"):
        raise ValueError(f"unknown method {method!r}")
    if t not in ("B", "C", "D"):
        raise ValueError(f"K-Stanley functions need type B, C, or D, not {t!r}")
    lw = length(t, w)
    terms: dict[Monomial, int] = {}
    if method == "unimodal":
        for a in hecke_words(t, w, bound):
            for b in unimodal_factorizations(t, a, num_vars):
                m = z_monomial(len(a) - lw, [abs(v) for v in b])
                terms[m] = terms.get(m, 0) + 1
        return TruncPoly(terms, bound)
    # Individual words can carry half-integer weights 2^e; accumulate
    # everything scaled by 2^bound and divide back at the end.
    for a in hecke_words(t, w, bound):
        for b, e in compatible_sequences(t, a, num_vars):
            m = z_monomial(len(a) - lw, b)
            terms[m] = terms.get(m, 0) + 2 ** (bound + e)
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


def _words_with_mperm(pi: tuple[int, ...], max_len: int) -> Iterator[tuple[int, ...]]:
    """All sequences of length <= max_len collapsing to pi."""
    r = len(pi)
    if r == 0:
        yield ()
        return
    if r > max_len:
        return

    def rec(i: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if i == r:
            yield tuple(acc)
            return
        least = r - i - 1
        for rep in range(1, max_len - len(acc) - least + 1):
            yield from rec(i + 1, acc + [pi[i]] * rep)

    yield from rec(0, [])


def quasi(pi: tuple[int, ...], num_vars: int, bound: int) -> TruncPoly:
    """The multi-peak quasisymmetric function attached to a
    multi-permutation, truncated."""
    if mperm(pi) != tuple(pi):
        raise ValueError(f"{pi} is not a multi-permutation")
    lp = len(pi)
    terms: dict[Monomial, int] = {}
    for a in _words_with_mperm(tuple(pi), bound):
        for b in unimodal_factorizations("C", a, num_vars):
            m = z_monomial(len(a) - lp, [abs(v) for v in b])
            terms[m] = terms.get(m, 0) + 1
    return TruncPoly(terms, bound)
