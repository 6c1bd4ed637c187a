"""Hecke words, compatible sequences, unimodal factorizations, and the
brute-force generating-function oracles built from them.

Everything here enumerates: these are the reference implementations the
operator calculus is checked against, so they stay close to the defining
sums.  The fused word-and-sequence search prunes with a memoized
reachability distance, which keeps the desk-scale truncations quick.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .rings import TruncPoly, zvar
from .weyl import (
    SignedPermutation,
    demazure_apply,
    generator,
    generator_indices,
    identity,
    length,
    right_ascent,
)


class _Reach:
    """Memoized minimal number of letters needed to reach the target,
    keyed by window."""

    def __init__(self, t: str, target: SignedPermutation, letters: list[int]):
        self.t = t
        self.target = target.window
        self.target_len = length(t, target)
        self.letters = letters
        self.memo: dict[tuple[int, ...], int] = {}

    def dist(self, p: SignedPermutation, lp: int) -> int:
        """The distance from p, whose length lp the caller already knows."""
        key = p.window
        if key == self.target:
            return 0
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        if lp >= self.target_len:
            self.memo[key] = 10**9
            return 10**9
        self.memo[key] = 10**9  # block cycles while recursing
        best = 10**9
        for g in self.letters:
            if right_ascent(self.t, p, g):
                d = self.dist(p * generator(self.t, g), lp + 1)
                if d + 1 < best:
                    best = d + 1
        self.memo[key] = best
        return best


def hecke_words(t: str, w: SignedPermutation, max_len: int) -> Iterator[tuple[int, ...]]:
    """All words of length <= max_len whose Demazure product is w.

    Letters are capped at index support(w) + max_len - 1: any larger
    generator raises the length irrecoverably.
    """
    letters = generator_indices(t, max(w.support + max_len, 2))
    reach = _Reach(t, w, letters)
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
            if reach.dist(q, lq) <= rem:
                word.append(g)
                yield from rec(q, lq)
                word.pop()

    yield from rec(identity(), 0)


def _rank(v: int) -> int:
    # the order 0 < -1 < 1 < -2 < 2 < ...
    return 0 if v == 0 else 2 * abs(v) - (1 if v < 0 else 0)


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
    """Unimodal factorizations b of the word a with |b_i| <= num_vars."""
    k = len(a)
    if k == 0:
        yield ()
        return
    values = sorted(
        [v for m in range(1, num_vars + 1) for v in (-m, m)], key=_rank
    )
    b: list[int] = []

    def rec(pos: int) -> Iterator[tuple[int, ...]]:
        if pos == k:
            yield tuple(b)
            return
        floor = _rank(b[-1]) if b else 1
        for val in values:
            if _rank(val) < floor:
                continue
            if b and val == b[-1]:
                if val < 0 and not _letter_key(t, a[pos - 1]) > _letter_key(t, a[pos]):
                    continue
                if val > 0 and not _letter_key(t, a[pos - 1]) < _letter_key(t, a[pos]):
                    continue
            if t == "B" and a[pos] == 0 and val < 0:
                continue
            if t == "D" and abs(a[pos]) == 1 and val < 0:
                continue
            b.append(val)
            yield from rec(pos + 1)
            b.pop()

    yield from rec(0)


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
    total degree <= bound.

    method "compat" sums 2^(|b|-gamma-o) over compatible sequences; method
    "unimodal" sums over unimodal factorizations.  The two must agree.
    """
    if method not in ("compat", "unimodal"):
        raise ValueError(f"unknown method {method!r}")
    if t not in ("B", "C", "D"):
        raise ValueError(f"K-Stanley functions need type B, C, or D, not {t!r}")
    lw = length(t, w)
    total = TruncPoly.zero(bound)
    if bound < lw:
        return total
    letters = generator_indices(t, max(w.support + bound, 2))
    reach = _Reach(t, w, letters)
    zcache = [None] + [zvar(m, bound) for m in range(1, num_vars + 1)]

    acc = [total]

    def total_add(term):
        acc[0] = acc[0] + term

    if method == "compat":
        # Compatible sequences b weakly increase in [1, N], with b_{i-1} <
        # b_{i+1} at every weak peak |a_{i-1}| <= |a_i| >= |a_{i+1}|, and
        # strictly increase across equal adjacent 0-letters (B) or equal
        # adjacent +-1 letters (D); o counts those letters.
        # Individual words can carry half-integer weights 2^(|b|-gamma-o);
        # accumulate everything scaled by 2^bound and divide back at the end.
        # State: prefix product, letters so far, the last two (a, b) entries,
        # and the running exponent of 2; lp is the length of p.
        shift = bound

        def rec(p, lp, pos, a2, a1, b2, b1, twos, mono):
            if p == w:
                total_add(TruncPoly.beta(pos - lw, bound) * mono * (2 ** (shift + twos)))
            if pos == bound:
                return
            rem = bound - pos - 1
            for g in letters:
                q = demazure_apply(t, p, g)
                lq = lp if q is p else lp + 1
                if reach.dist(q, lq) > rem:
                    continue
                is_o = (t == "B" and g == 0) or (t == "D" and abs(g) == 1)
                for val in range(b1 if b1 else 1, num_vars + 1):
                    if pos >= 2 and abs(a2) <= abs(a1) >= abs(g) and not b2 < val:
                        continue
                    same = pos >= 1 and val == b1
                    if same and a1 == g and (g == 0 if t == "B" else abs(g) == 1 if t == "D" else False):
                        continue
                    d_twos = (0 if same else 1) - (1 if same and a1 == g else 0) - (1 if is_o else 0)
                    rec(q, lq, pos + 1, a1, g, b1, val, twos + d_twos, mono * zcache[val])

        rec(identity(), 0, 0, 0, 0, 0, 0, 0, TruncPoly.const(1, bound))
        scaled = acc[0]
        divisor = 2**shift
        terms = {}
        for m, c in scaled.terms.items():
            q, r = divmod(c, divisor)
            if r:
                raise AssertionError("compatible-sequence weights did not sum to integers")
            terms[m] = q
        return TruncPoly(terms, bound)

    values = sorted([v for m in range(1, num_vars + 1) for v in (-m, m)], key=_rank)

    def rec_uni(p, lp, pos, a1, b1, mono):
        if p == w:
            total_add(TruncPoly.beta(pos - lw, bound) * mono)
        if pos == bound:
            return
        rem = bound - pos - 1
        for g in letters:
            q = demazure_apply(t, p, g)
            lq = lp if q is p else lp + 1
            if reach.dist(q, lq) > rem:
                continue
            floor = _rank(b1) if b1 is not None else 1
            for val in values:
                if _rank(val) < floor:
                    continue
                if b1 is not None and val == b1:
                    if val < 0 and not _letter_key(t, a1) > _letter_key(t, g):
                        continue
                    if val > 0 and not _letter_key(t, a1) < _letter_key(t, g):
                        continue
                if t == "B" and g == 0 and val < 0:
                    continue
                if t == "D" and abs(g) == 1 and val < 0:
                    continue
                rec_uni(q, lq, pos + 1, g, val, mono * zcache[abs(val)])

    rec_uni(identity(), 0, 0, None, None, TruncPoly.const(1, bound))
    return acc[0]


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


def quasi(pi: tuple[int, ...], kind: str, num_vars: int, bound: int) -> TruncPoly:
    """The multi-fundamental (kind L) or multi-peak (kind K) quasisymmetric
    function attached to a multi-permutation, truncated."""
    if kind not in ("L", "K"):
        raise ValueError(f"kind must be L or K, got {kind!r}")
    if mperm(pi) != tuple(pi):
        raise ValueError(f"{pi} is not a multi-permutation")
    lp = len(pi)
    total = TruncPoly.zero(bound)
    for a in _words_with_mperm(tuple(pi), bound):
        coeff = TruncPoly.beta(len(a) - lp, bound)
        if kind == "L":
            for b in _type_a_compatible(a, num_vars):
                mono = coeff
                for val in b:
                    mono = mono * zvar(val, bound)
                total = total + mono
        else:
            for b in unimodal_factorizations("C", a, num_vars):
                mono = coeff
                for val in b:
                    mono = mono * zvar(abs(val), bound)
                total = total + mono
    return total


def _type_a_compatible(a: tuple[int, ...], num_vars: int) -> Iterator[tuple[int, ...]]:
    k = len(a)
    if k == 0:
        yield ()
        return
    b: list[int] = []

    def rec(pos: int) -> Iterator[tuple[int, ...]]:
        if pos == k:
            yield tuple(b)
            return
        lo = b[-1] if b else 1
        for val in range(lo, num_vars + 1):
            if pos >= 1 and a[pos - 1] <= a[pos] and val == b[-1]:
                continue
            b.append(val)
            yield from rec(pos + 1)
            b.pop()

    yield from rec(0)
