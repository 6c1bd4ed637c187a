"""The transition recursion: expanding K-Stanley symbols into Grassmannian
terms with nonnegative coefficients.

Everything here is symbolic: a combination maps signed permutations to
plain integers, where the basis symbol of u implicitly carries degree l(u).
A coefficient a of u in the expansion of a source of length l therefore
stands for the single monomial a * beta^(l(u) - l); the transition step
counts R_k's chains in the Weyl group and never builds a polynomial.
Every output of a step lies strictly below its source in the LD order, so
the full expansion is one memoized recursion over that order.  Most steps
fire one move (``weyl._one_move``) and have one output with coefficient 1;
the recursion follows such chains in a loop, so its depth counts only the
steps with several outputs.

The recursion needs weyl and the shapes of tableaux alone; the numerical
check against the oracles (expansion_poly, verify_expansion) imports rings,
hecke and the GP/GQ functions when it runs.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple

from .tableaux import ShiftedSkewShape, check_strict, w_shape
from .weyl import (
    SignedPermutation,
    _chains,
    _least_descent,
    _one_move,
    _raises_length,
    _shape,
    _support,
    _transition_window,
    check_classical,
    length,
)

Window = tuple[int, ...]
Shape = tuple[int, ...]  # a strict partition, the name of a GP/GQ term

_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")  # an lru_cache's


def _perm(win: Window) -> SignedPermutation:
    return SignedPermutation._trusted(list(win))  # a window the engine built


def _step(t: str, w: Window, a: int) -> list[tuple[Window, int, int]]:
    """The transition step on plain windows: (u, LD(u), coefficient) for
    each output u, trimmed, of the trimmed window w with least descent a > 0.
    Asserts that v * t_{ab} = w raises length by one, and that every
    coefficient is positive, every u lies below w in the LD order, and
    support(u) + LD(u) <= support(w) + LD(w).

    Most steps fire one move: when ``_one_move`` finds that R_a fires
    t_{-a,q} alone on v, the one end is that move, with coefficient 1 by
    its lemma, applied to v in place; no padded copy or chain table is
    built.  Any other step counts R_a's chains with ``_chains``, and each
    end u, trimmed, has coefficient plain + via_n - [u == v].  Both kinds
    of end pass the same checks, in one loop.
    """
    v, b = _transition_window(w, a)
    if not _raises_length(t, v, a, b):
        raise AssertionError(f"{_perm(v)} * t_({a},{b}) = {_perm(w)} does not raise length by one")
    hit = _one_move(v, a)
    if hit is not None:
        q, y = hit
        z = v[a - 1]
        if q > len(v):
            v.append(-z)
        else:
            v[q - 1] = -z
        v[a - 1] = -y
        # u is trimmed: v(n) = n only when b = n and w(a) = n, and then
        # v(a+1..n-1) = w(a+1..n-1) < w(n) = z < 0, so the scan stops at
        # q = n; an appended entry is |z| <= n
        ends = [(tuple(v), 1)]
    else:
        v = tuple(v[: _support(v)])
        ends = []
        for u, (plain, via_n) in _chains(t, a, v).items():
            u = u[: _support(u)]
            ends.append((u, plain + via_n - (u == v)))
    x = w[a - 1]
    bound = len(w) + a
    outputs = []
    for u, coeff in ends:
        if not coeff:
            continue
        d = _least_descent(u)
        if coeff < 0:
            raise AssertionError(f"transition coefficient of {_perm(u)} is {coeff} < 0")
        if d > a or (d == a and u[d - 1] >= x):
            raise AssertionError(f"transition produced {_perm(u)} not below {_perm(w)} in LD order")
        if len(u) + d > bound:
            raise AssertionError(f"{_perm(u)} escapes the support bound {bound} of {_perm(w)}")
        outputs.append((u, d, coeff))
    return outputs


def transition_step(t: str, w: SignedPermutation) -> dict[SignedPermutation, int]:
    """One application of the symbolic transition: F_w as a nonnegative
    combination of F_u with u strictly below w in the LD order.

    A coefficient a of u stands for a * beta^(l(u) - l(w)).  At y = 0 the
    transition identity reads F_w = (R_a F_v - F_v) / beta, and R_a's chain
    counts give a = plain + via_n - [u == v]; since v * t_{ab} = w raises
    length by one, the division by beta lowers every exponent l(u) - l(v)
    to l(u) - l(w).  Wraps the outputs of ``_step``, the recursion's step.
    ``length`` refuses a w outside the group of type t before the descent
    test.
    """
    check_classical(t, "transition")
    length(t, w)  # raises for a w outside the group
    a = w.least_descent()
    if not a:
        raise ValueError(f"{w} has no descent")
    return {_perm(u): coeff for u, _, coeff in _step(t, tuple(w), a)}


class ExpansionResult:
    """A finite nonnegative expansion F_w = sum a_lam * beta^(|lam|-l) GP/GQ."""

    def __init__(
        self, group_type: str, source: SignedPermutation, length: int, basis: str,
        terms: dict[Shape, int],
    ):
        self.group_type = group_type
        self.source = source
        self.length = length
        self.basis = basis
        self.terms = terms

    def beta_power(self, lam: Shape) -> int:
        return sum(lam) - self.length

    def to_json_dict(self) -> dict:
        terms = [
            {"lambda": list(lam), "coeff": coeff, "beta_power": self.beta_power(lam)}
            for lam, coeff in sorted(self.terms.items())
        ]
        doc = {"type": self.group_type, "w": list(self.source), "length": self.length}
        return {**doc, "basis": self.basis, "terms": terms}


# (t, w) -> (l(w), the expansion of F_w)
_cache: dict[tuple[str, SignedPermutation], tuple[int, dict[Shape, int]]] = {}


_memo: dict[tuple[str, Window], dict[Shape, int]] = {}
_lookups = [0, 0]  # the hits and misses of `_memo`, one per key looked up


def _expansion(t: str, u: Window, d: int) -> dict[Shape, int]:
    """The expansion {lambda: coeff} of F_u, for the trimmed window u with
    least descent d, shared by every caller and by `_cache`: not to be mutated.

    A dynamic program over the LD order, on plain windows, memoized in
    `_memo` by (t, u).  A Grassmannian u is the one term of its shape, and
    any other u is the sum of the expansions of its ``_step`` outputs, each
    strictly below u and keyed with the LD that ``_step`` computed.  Most
    steps have one output with coefficient 1, so F_u = F_v: one loop
    follows such a chain from u and probes `_memo` at one site.  A hit ends
    the chain with its dict; a miss joins the chain and then ends it at a
    leaf, ends it at a step with several outputs, which recurses, or moves
    on to the step's one output.  Every key on the chain gets the dict at
    its end, and the depth counts the steps with several outputs alone.
    `_cache` is not consulted here, so a persisted entry serves its own key
    alone.  ``_step`` asserts the support bound of u at every output; by
    induction, every intermediate of a root w stays within support(w) +
    LD(w), memo hits included, so lambda_1 does too.

    ``cache_info()`` and ``cache_clear()`` work as an lru_cache's would:
    every key looked up counts one hit or one miss, chain keys included.
    """
    memo, lookups = _memo, _lookups
    chain = []
    while True:
        key = (t, u)
        total = memo.get(key)
        if total is not None:
            lookups[0] += 1
            break
        lookups[1] += 1
        chain.append(key)
        if not d:  # a Grassmannian leaf: the one term of its shape
            total = {_shape(t, u): 1}
            break
        outputs = _step(t, u, d)
        if len(outputs) != 1 or outputs[0][2] != 1:
            total = {}
            for v, dv, coeff in outputs:
                for lam, c in _expansion(t, v, dv).items():
                    total[lam] = total.get(lam, 0) + coeff * c
            break
        u, d, _ = outputs[0]
    for key in chain:
        memo[key] = total
    return total


def _clear_expansion() -> None:
    _memo.clear()
    _lookups[:] = [0, 0]


_expansion.cache_clear = _clear_expansion
_expansion.cache_info = lambda: _CacheInfo(*_lookups, None, len(_memo))


def expand_grassmannian(t: str, w: SignedPermutation) -> ExpansionResult:
    """Fully expand F_w into GP/GQ terms by iterated transitions.

    Two memos serve it.  `_expansion` keeps every key it expanded, in
    process; `_cache` keeps the requested keys alone, each mapped to the
    pair of l(w) and the dict that `_expansion` returned.  It serves each
    key only for itself, without recounting l(w), and is the one that
    `save_cache` persists.  Every step asserts that v * t_ab raises length
    by one, nonnegativity, descent in the LD order and the support bound.
    A type other than B, C or D, or steps with several outputs nested
    deeper than the interpreter's recursion limit, raises ValueError.
    """
    check_classical(t, "expansion")
    cached = _cache.get((t, w))
    if cached is None:
        lw = length(t, w)  # raises for a w outside the group
        try:
            cached = _cache[(t, w)] = (lw, _expansion(t, tuple(w), w.least_descent()))
        except RecursionError:
            raise ValueError(f"the transition chain of {w} is too deep to expand") from None
    lw, terms = cached
    return ExpansionResult(t, w, lw, "GQ" if t == "C" else "GP", dict(terms))


def skew_expansion(basis: str, outer, inner=()) -> ExpansionResult:
    """Expand a skew GP or GQ function into straight shapes.

    GP goes through the type B reading-word element, GQ through type C;
    the type D route computes the same GP expansion and is exercised in
    the tests.
    """
    if basis not in ("GP", "GQ"):
        raise ValueError(f"basis must be GP or GQ, got {basis!r}")
    sh = ShiftedSkewShape(outer, inner)
    t = "B" if basis == "GP" else "C"
    return expand_grassmannian(t, w_shape(t, sh))


class VerificationReport:
    """Numerical certification of an expansion against the word oracle."""

    def __init__(self, expansion: ExpansionResult, difference: TruncPoly):
        self.expansion = expansion
        self.difference = difference

    @property
    def ok(self) -> bool:
        return not self.difference


def expansion_poly(result: ExpansionResult, num_vars: int, bound: int) -> TruncPoly:
    """Sum a_lam * beta^(|lam|-l) * GP/GQ_lam at the truncation."""
    from .rings import TruncPoly
    from .tableaux import gp, gq

    fn = gp if result.basis == "GP" else gq
    total = TruncPoly.zero(bound)
    for lam, coeff in result.terms.items():
        term = TruncPoly.beta(result.beta_power(lam)) * coeff
        total = total + term * fn(ShiftedSkewShape(lam), num_vars, bound)
    return total


def verify_expansion(
    t: str, w: SignedPermutation, num_vars: int, bound: int
) -> VerificationReport:
    from .hecke import fstanley

    result = expand_grassmannian(t, w)
    recombined = expansion_poly(result, num_vars, bound)
    direct = fstanley(t, w, num_vars, bound)
    return VerificationReport(result, recombined - direct)


# -- cache persistence -------------------------------------------------------

_VERSION = 3


def save_cache(path: str) -> int:
    """Write the memo as a version 3 JSON document; returns the entry count.

    ``{"version": 3, "entries": [[t, window, [[lambda, coeff], ...]], ...]}``,
    keys sorted by type and window, values by lambda.
    """
    entries = [
        [t, list(w), sorted([list(lam), c] for lam, c in g.items())]
        for (t, w), (_, g) in sorted(_cache.items())
    ]
    text = json.dumps({"version": _VERSION, "entries": entries}, separators=(",", ":"))
    # a temp file of its own, so concurrent writers never share one; created
    # with mode 0o666, so the umask sets the mode that os.replace keeps
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return len(entries)


def _list(value) -> list:
    if not isinstance(value, list):
        raise ValueError(f"expected a list, not {type(value).__name__}")
    return value


def load_cache(path: str) -> int:
    """Merge a cache file written by save_cache; ignores other versions.

    All or nothing: a malformed document (a v1 binary file included), a
    group type other than B, C or D, a window the validating constructor
    rejects, a key outside the group of its type, a value that is not a
    strict partition of int parts (``check_strict``), a value whose first
    part exceeds support(w) + LD(w) of its key w or whose size |lambda| is
    below l(w), a coefficient that is not a positive int, a key or a value
    within one entry that repeats (keys compared after trimming), an entry
    with no values, a Grassmannian key whose entry is not its own shape
    with coefficient 1, or an entry with no shape of size l(w) raises
    ValueError and merges no entry.  The last rule holds for every true
    expansion: its beta^0 part is the nonzero Stanley function of w.  Each
    key is stored with the l(w) that these rules computed, so a hit is
    served without recounting it.  The count is also the membership test:
    ``length`` rejects a key outside the group of its type, and that
    rejection is reported as the key's.

    A value is checked in one scan: every part p of its list must pass
    ``type(p) is int and 0 < p < prev``, where prev starts at support + LD
    + 1 and then is the part before, which tests int, positive and strictly
    decreasing parts and the bound on lambda_1 at once.  Only a value that
    fails the scan goes through ``check_strict`` and then the bound, so its
    error names the same rule, with the same message, as a check per rule.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    loaded: dict[tuple[str, SignedPermutation], tuple[int, dict[Shape, int]]] = {}
    try:
        doc = json.loads(data)
        if doc.get("version") != _VERSION:
            return 0
        # unpacking rejects a record or pair of the wrong arity
        for t, window, values in _list(doc["entries"]):
            check_classical(t, "a cache entry")
            w = SignedPermutation(_list(window))
            if (t, w) in loaded:
                raise ValueError(f"the key {t} {w} repeats")
            try:  # length rejects a key outside the group of its type
                lw = length(t, w)
            except ValueError:
                raise ValueError(f"the key {w} is not in the group of type {t}") from None
            d = w.least_descent()
            top = len(w) + d
            entries: dict[Shape, int] = {}
            at_length = False  # whether a shape has |lambda| = l(w)
            for parts, coeff in _list(values):
                if type(coeff) is not int or coeff <= 0:
                    raise ValueError(f"the coefficient {coeff!r} is not a positive integer")
                if type(parts) is not list:
                    _list(parts)  # raises, naming the type
                # every leaf of w lies within the support bound, and a term
                # a * beta^(|lam| - l(w)) needs |lam| >= l(w)
                prev = top + 1
                for p in parts:
                    if type(p) is not int or not 0 < p < prev:  # bools are not parts
                        # check_strict passing leaves the bound as the failed rule
                        lam = check_strict(parts)
                        raise ValueError(f"the shape {lam} exceeds support + LD = {top} of {w}")
                    prev = p
                lam = tuple(parts)
                size = sum(lam)
                if size < lw:
                    raise ValueError(f"the shape {lam} has |lambda| below l({w}) = {lw}")
                if size == lw:
                    at_length = True
                if lam in entries:
                    raise ValueError(f"the shape {lam} repeats in the entry of {w}")
                entries[lam] = coeff
            if not entries:
                raise ValueError(f"the entry of {w} has no values")
            if not d and entries != {_shape(t, w): 1}:
                raise ValueError(f"the entry of the Grassmannian key {w} is not its shape alone")
            if not at_length:
                raise ValueError(f"the entry of {w} has no shape of size l({w}) = {lw}")
            loaded[(t, w)] = (lw, entries)
    except (ValueError, TypeError, KeyError, AttributeError, RecursionError) as exc:
        raise ValueError(f"{path} is not an expansion cache: {type(exc).__name__}: {exc}") from exc
    for key, value in loaded.items():
        _cache.setdefault(key, value)
    return len(loaded)
