"""Hecke words, compatible sequences, unimodal factorizations, and the
brute-force generating-function oracles built from them.

Everything here enumerates: these are the reference implementations the
operator calculus is checked against, so they stay close to the defining
sums.  `_walk` is the one layered pass over words.  It takes its machine
from the caller: a start state, a goal state and each state's moves
(letter, next state, letters still needed).  It runs layer by word
length, and a layer maps each state, with the last letter, to a
value: a table from partial sequences to counts.  Prefixes that reach
the same key share one table, and each per-letter step adds into the
table of the key it reaches.  There are two machines.  The Demazure
prefixes (p, l(p)) of w serve `hecke_words` and `fstanley`; a prefix's
moves are built on its first visit and kept per (t, w), so every walk of
w, whatever the oracle or (N, D), shares them.  The positions j of a
multi-permutation serve `quasi`: its words collapse to it, and a prefix
ends in its letter pi_j.  Outside `_walk`, the Demazure-prefix machine
also serves type A: `groth_a` runs it over the cells of the pipe dreams of
w, so types A to D build their prefixes through `_prefix_moves` alone.
`hecke_words` carries the words themselves.  `fstanley` and `quasi`
carry the partial sequences valid for the prefix, each with its
monomial, and extend them by one letter per edge through the method's
one per-letter step, `_compat_step` or `_unimodal_step`, which reads
only the last letter; a compatible sequence carries its own peak bit.
Every sequence rule looks only at earlier positions, so a state with no
valid sequence is dropped, and the pass stops at its first empty layer.
"""

from __future__ import annotations

from functools import lru_cache, partial

from .rings import Z, Monomial, TruncPoly, var_code
from .weyl import (
    IDENTITY,
    SignedPermutation,
    check_classical,
    generator,
    reduced_word,
    right_ascent,
)


class _PrefixMoves(dict):
    """The move table of w: it maps each Demazure prefix state (p, l(p))
    that a walk of w has reached to its moves (g, (p o t_g, l(p o t_g)),
    l(w) - l(p o t_g)), one per letter g that keeps p below w.  A state's
    moves are built on its first visit.

    Letters come from supp(w), the generators of a reduced word of w: the
    Demazure product of a word lies above each of its letters in Bruhat
    order.  The Demazure prefixes of a word climb a chain in the right weak
    order, so a prefix p can still reach w iff p <= w in that order and
    l(w) - l(p) letters remain.  With w = p u and l(w) = l(p) + l(u), a
    letter g that raises p keeps p t_g below w iff g is a left descent of
    u, that is a right descent of r = u^-1 = w^-1 p.  l(w) is the length
    of that reduced word, and ``reduced_word`` refuses a w outside the
    group of type t.
    """

    def __init__(self, t: str, w: SignedPermutation):
        word = reduced_word(t, w)
        self.gens = {g: generator(t, g) for g in sorted(set(word))}
        self.w_inv, self.lw = w.inverse(), len(word)

    def __missing__(self, state: tuple) -> list:
        p, lp = state
        r, moves = self.w_inv * p, []
        for g, tg in self.gens.items():
            if not right_ascent(p, g):
                moves.append((g, state, self.lw - lp))
            elif not right_ascent(r, g):
                moves.append((g, (p * tg, lp + 1), self.lw - lp - 1))
        # only a whole list enters the table, so an interrupted walk leaves none
        self[state] = moves
        return moves


@lru_cache(maxsize=None)
def _prefix_moves(t: str, w: SignedPermutation) -> tuple:
    """The Demazure-prefix machine of w: its start (e, 0), its goal
    (w, l(w)) and its lazy move table, kept so that the walks of every
    oracle at every (N, D), and the pipe-dream passes of groth_a, share
    it.  p <= w and l(p) = l(w) make p = w."""
    table = _PrefixMoves(t, w)
    return (IDENTITY, 0), (w, table.lw), table


def _walk(start, goal, moves, max_len: int, root: dict, step) -> dict:
    """The merged value of the words of length <= max_len that lead the
    machine from start to goal, starting from root at the empty word.

    moves[state] lists the state's moves (g, next state, letters still
    needed after g); a move that needs more letters than remain is pruned.
    A prefix is keyed by its state and last letter, None for the empty
    word; step(last, g, value, into) adds its value, extended by g, into
    the table into.  A state whose table stays empty is dropped.
    """
    done: dict = {}
    layer = {(start, None): root}
    rem = max_len
    while layer:
        rem -= 1
        nxt: dict = {}
        for (state, last), value in layer.items():
            if not value:
                continue  # no valid sequence: the state is dropped
            if state == goal:
                for s, c in value.items():
                    done[s] = done.get(s, 0) + c
            for g, q, need in moves[state]:
                if need <= rem:
                    step(last, g, value, nxt.setdefault((q, g), {}))
        layer = nxt
    return done


def _word_step(last, g: int, words: dict, into: dict) -> None:
    """Extend each word by the letter g, into the table into."""
    for a, c in words.items():
        into[a + (g,)] = c


def hecke_words(t: str, w: SignedPermutation, max_len: int) -> list[tuple[int, ...]]:
    """All words of length <= max_len whose Demazure product is w, in
    lexicographic order."""
    return sorted(_walk(*_prefix_moves(t, w), max_len, {(): 1}, _word_step))


def _is_o(t: str, g: int) -> bool:
    """Whether g is an o-letter: 0 in type B, +-1 in type D."""
    return (t == "B" and g == 0) or (t == "D" and abs(g) == 1)


def _compat_step(t: str, top: int, last: int | None, g: int, seqs: dict, into: dict) -> None:
    """Extend each partial compatible sequence of a prefix ending in the
    letter last (None for the empty prefix) by the letter g, adding the
    counts into the table into.

    A partial sequence is (b, e, rose): b its weakly increasing values, as z
    codes up to top, e the exponent of its weight 2^e so far, and rose
    whether |a_{i-1}| <= |a_i| at its last letter a_i; seqs maps each to its
    count.  b_{i-1} < b_{i+1} at every weak peak |a_{i-1}| <= |a_i| >=
    |a_{i+1}|, and b strictly increases across equal adjacent o-letters.
    The exponent is e = |b| - gamma - o, where |b| counts the distinct
    values of b, gamma the positions repeating both the previous letter and
    the previous value, and o the o-letters.  New sequences enter into in
    the order of seqs and, within one, of increasing values.
    """
    is_o = _is_o(t, g)
    rise = last is not None and abs(last) <= abs(g)  # not `last`: the letter 0 is falsy
    repeat = last == g
    for (b, e, rose), n in seqs.items():
        if b:
            v = b[-1]
            # a repeated value: only a strict rise before a peak allows it,
            # and equal adjacent o-letters never do
            if not (rose and abs(last) >= abs(g) and b[-2] >= v) and not (repeat and is_o):
                s = (b + (v,), e - repeat - is_o, rise)
                into[s] = into.get(s, 0) + n
            lo = v + 1
        else:
            lo = var_code(Z, 1)
        # a new value rises past b[-1] >= b[-2], so a peak cannot stop it
        grow = e + 1 - is_o
        for c in range(lo, top + 1):
            s = (b + (c,), grow, rise)
            into[s] = into.get(s, 0) + n


def _letter_key(t: str, x: int):
    """The letter comparison used by the equal-b tiebreak.

    Types B and C compare |x|.  Type D refines ties between the commuting
    letters -1 and 1 by putting -1 first; without this the unimodal sum
    drops the square terms that the compatible-sequence sum produces.
    """
    if t == "D" and abs(x) == 1:
        return (1, x)
    return (abs(x), 0)


def _unimodal_step(t: str, symbols: list, last: int | None, g: int, seqs: dict, into: dict) -> None:
    """Extend each partial unimodal factorization of a prefix ending in the
    letter last (None for the empty prefix) by the letter g, adding the
    counts into the table into.

    Values run -1 < 1 < -2 < 2 < ..., index i standing for -(i//2 + 1)
    when i is even and i//2 + 1 when odd; a partial factorization is
    (b, i), b its symbols (``symbols[i]`` for each value) and i the index
    of its last value, and seqs maps each to its count.  b weakly
    increases; a repeated value needs the letter keys (``_letter_key``) to
    fall if it is negative and to rise if positive; an o-letter takes
    positive values only.  Two factorizations can meet: with z_1 for both
    -1 and 1, (b, 0) moving on and (b, 1) repeating both reach
    (b + (z_1,), 1), so counts add.  New factorizations enter into in the
    order of seqs and, within one, of increasing values.
    """
    is_o = _is_o(t, g)
    if last is not None:
        prev, cur = _letter_key(t, last), _letter_key(t, g)
        fall, rise = prev > cur, prev < cur
    size = len(symbols)
    for (b, i), n in seqs.items():
        if last is not None:
            # repeat the last value: i odd is positive, i even negative
            if (rise if i % 2 else fall and not is_o):
                s = (b + (symbols[i],), i)
                into[s] = into.get(s, 0) + n
            i += 1
        # an o-letter takes the positive values past the last one: odd indices
        for j in range(i | 1, size, 2) if is_o else range(i, size):
            s = (b + (symbols[j],), j)
            into[s] = into.get(s, 0) + n


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
    must agree.  One `_walk` over the Demazure prefixes of w counts every
    sequence of every word; each partial sequence carries its monomial as
    sorted z codes, since b (and |b| in the unimodal order) weakly
    increases.  The compat weights are summed scaled by 2^k, k the largest
    -e the walk found, so the cost of a bound past the walk's last layer
    does not grow with it; a sum that 2^k does not divide raises
    AssertionError.  l(w) is read off the machine's goal state, and a w
    outside the group of type t raises ValueError there.  z_1 is found from
    z_N, so ``var_code`` refuses an N past rings.MAX_INDEX; N = 0 leaves no
    z value.
    """
    if method not in ("compat", "unimodal"):
        raise ValueError(f"unknown method {method!r}")
    check_classical(t, "fstanley")
    start, goal, moves = _prefix_moves(t, w)
    lw = goal[1]
    z1 = var_code(Z, num_vars) + 1 - num_vars if num_vars > 0 else 0
    compat = method == "compat"
    if compat:
        step, root = partial(_compat_step, t, z1 + num_vars - 1), ((), 0, False)
    else:
        step, root = partial(_unimodal_step, t, [z1 + i // 2 for i in range(2 * num_vars)]), ((), 0)
    seqs = _walk(start, goal, moves, bound, {root: 1}, step)
    # A compatible sequence can carry a weight 2^e with e < 0; accumulate
    # everything scaled by 2^k, k the largest -e of the sequences found (at
    # least 0), and divide back at the end.
    k = max([0] + [-e for _, e, _ in seqs]) if compat else 0
    terms: dict[Monomial, int] = {}
    for (b, e, *_), n in seqs.items():
        m = (len(b) - lw, b)
        terms[m] = terms.get(m, 0) + (n << (k + e) if compat else n)
    if k:
        divisor = 1 << k
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
    factorizations b of a.  The `_walk` machine's state is the j with the
    prefix ending in pi_j, the empty prefix at j = -1: the next letter pi_k
    repeats pi_j (k = j) or moves on (k = j + 1), and needs the r - k - 1
    letters after it.  The partial factorizations, with their counts, ride
    along through `_unimodal_step`, as in `fstanley`, which also checks N
    the same way."""
    if mperm(pi) != tuple(pi):
        raise ValueError(f"{pi} is not a multi-permutation")
    r = len(pi)
    moves = {j: [(pi[k], k, r - k - 1) for k in range(max(j, 0), min(j + 2, r))]
             for j in range(-1, r)}
    z1 = var_code(Z, num_vars) + 1 - num_vars if num_vars > 0 else 0
    step = partial(_unimodal_step, "C", [z1 + i // 2 for i in range(2 * num_vars)])
    terms: dict[Monomial, int] = {}
    for (b, _), c in _walk(-1, r - 1, moves, bound, {((), 0): 1}, step).items():
        m = (len(b) - r, b)
        terms[m] = terms.get(m, 0) + c
    return TruncPoly(terms, bound)
