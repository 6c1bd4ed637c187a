"""Exact sparse polynomial arithmetic over Z[beta] with degree truncation.

Monomials are tuples (beta_exp, vars) where vars is the sorted tuple of
variable codes, each repeated as often as its exponent: x1^2*z3 is
(c_x1, c_x1, c_z3).  Codes pack a variable family x / y / z with a
positive index so the x-block sorts before y before z.  The total degree
is len(vars), and a product's vars are the two factors' vars joined,
sorted only when they are not already in order.  Truncation discards any
monomial whose total degree across x, y, z exceeds the bound; beta is
never truncated.  All coefficients are Python ints, so nothing overflows.

The module also provides the localized ring with inverted (1 + beta*y_i)
factors (YRational), the isobaric divided difference, the signed star
substitution, the K-supersymmetry check, and the operator calculus that
every type shares: the transition operator R_k and the Monk-type operator
M_k, each acting on one group element, the transition certificate and the
checks of the Monk and transition identities.  An operator's result is a
plain dict from group elements to coefficients, as in the engine.  Only the
evaluator of the double Grothendieck polynomials differs by type
(groth_a.groth_poly for A, kn.kn_eval for B, C, D); the checks take it as
an argument.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import groupby
from math import comb
from collections.abc import Iterable

from .weyl import (
    SignedPermutation,
    _chains,
    _raises_length,
    _transition_window,
    is_valid_reflection,
    length,
    reflection,
)

X, Y, Z = 0, 1, 2
_FAMILY_NAMES = {X: "x", Y: "y", Z: "z"}
_STRIDE = 1 << 20
MAX_INDEX = _STRIDE - 1  # a larger index would spill into the next family's codes


def var_code(family: int, index: int) -> int:
    if index < 1:
        raise ValueError(f"variable index must be positive, got {index}")
    if index > MAX_INDEX:
        raise ValueError(f"variable index must be at most {MAX_INDEX}, got {index}")
    return family * _STRIDE + index


def code_family(code: int) -> int:
    return code // _STRIDE


def code_index(code: int) -> int:
    return code % _STRIDE


Monomial = tuple[int, tuple[int, ...]]

_ONE_MONO: Monomial = (0, ())


def _mul_into(into: dict, left: dict, right: dict, bound: int | None, shift: int = 0) -> None:
    """Add beta^shift times the product of the term tables left and right
    into the table into, cut at degree bound.  A coefficient there may cancel
    to zero; the caller drops it.  Codes already in order (a side empty, or
    the left's last code at most the right's first) are joined without a
    sort; codes are positive, so an empty left reads as last code 0."""
    top = float("inf") if bound is None else bound
    for (b1, v1), c1 in left.items():
        room, b1, last = top - len(v1), b1 + shift, v1[-1] if v1 else 0
        for (b2, v2), c2 in right.items():
            if len(v2) <= room:
                m = (b1 + b2, v1 + v2 if not v2 or last <= v2[0] else tuple(sorted(v1 + v2)))
                into[m] = into.get(m, 0) + c1 * c2


class TruncPoly:
    """Sparse polynomial in beta and the x/y/z families, optionally truncated.

    It holds no monomial of degree above its bound: the constructor cuts what
    it is handed, and the arithmetic, whose results keep that property when
    its operands have it, builds them through _within without a second scan.
    A product of two polynomials is one _mul_into pass, whatever their sizes."""

    __slots__ = ("terms", "bound")

    def __init__(self, terms: dict[Monomial, int] | None = None, bound: int | None = None):
        terms = terms or {}
        if bound is not None and any(len(v) > bound for _, v in terms):
            # a monomial above the bound is not in the truncated series; a
            # negative bound keeps none, since no monomial has negative degree
            terms = {m: c for m, c in terms.items() if len(m[1]) <= bound}
        self.terms = terms
        self.bound = bound

    @staticmethod
    def _within(terms: dict[Monomial, int], bound: int | None) -> "TruncPoly":
        """A TruncPoly of terms already of degree at most bound."""
        p = object.__new__(TruncPoly)
        p.terms = terms
        p.bound = bound
        return p

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(bound: int | None = None) -> "TruncPoly":
        return TruncPoly({}, bound)

    @staticmethod
    def const(c: int, bound: int | None = None) -> "TruncPoly":
        return TruncPoly({_ONE_MONO: c} if c else {}, bound)

    @staticmethod
    def beta(exp: int = 1) -> "TruncPoly":
        return TruncPoly({(exp, ()): 1})

    # -- helpers ----------------------------------------------------------

    @staticmethod
    def _join_bound(a: int | None, b: int | None) -> int | None:
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def with_bound(self, bound: int | None) -> "TruncPoly":
        return TruncPoly(dict(self.terms), bound)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = TruncPoly.const(other)
        return isinstance(other, TruncPoly) and self.terms == other.terms

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other) -> "TruncPoly":
        if isinstance(other, int):
            other = TruncPoly.const(other)
        if not isinstance(other, TruncPoly):
            return NotImplemented
        bound = self._join_bound(self.bound, other.bound)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            new = terms.get(m, 0) + c
            if new:
                terms[m] = new
            else:
                terms.pop(m, None)
        if self.bound == other.bound:
            return TruncPoly._within(terms, bound)
        return TruncPoly(terms, bound)

    __radd__ = __add__

    def __neg__(self) -> "TruncPoly":
        return TruncPoly._within({m: -c for m, c in self.terms.items()}, self.bound)

    def __sub__(self, other) -> "TruncPoly":
        return self + (-other)

    def __mul__(self, other) -> "TruncPoly":
        if isinstance(other, int):
            if other == 0:
                return TruncPoly.zero(self.bound)
            return TruncPoly._within({m: c * other for m, c in self.terms.items()}, self.bound)
        if not isinstance(other, TruncPoly):
            return NotImplemented
        bound = self._join_bound(self.bound, other.bound)
        terms: dict[Monomial, int] = {}
        _mul_into(terms, self.terms, other.terms, bound)
        return TruncPoly._within({m: c for m, c in terms.items() if c}, bound)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TruncPoly":
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = TruncPoly.const(1, self.bound)
        for _ in range(n):
            result = result * self
        return result

    def divide_beta(self) -> "TruncPoly":
        """Exact division by beta; raises if any term lacks a beta factor."""
        terms = {}
        for (b, v), c in self.terms.items():
            if b == 0:
                raise ArithmeticError("polynomial is not divisible by beta")
            terms[(b - 1, v)] = c
        return TruncPoly._within(terms, self.bound)

    def set_zero(self, families: Iterable[int]) -> "TruncPoly":
        """Kill every monomial using a variable from the given families."""
        fams = set(families)
        terms = {
            m: c
            for m, c in self.terms.items()
            if all(code_family(code) not in fams for code in m[1])
        }
        return TruncPoly(terms, self.bound)


ONE = TruncPoly.const(1)
BETA = TruncPoly.beta()


def xvar(i: int) -> TruncPoly:
    return TruncPoly({(0, (var_code(X, i),)): 1})


def yvar(i: int) -> TruncPoly:
    return TruncPoly({(0, (var_code(Y, i),)): 1})


# -- divided differences -----------------------------------------------


def _split(v: tuple[int, ...], ci: int, cj: int) -> tuple[tuple, tuple, int, int]:
    """(lo, hi, p, q) for the sorted codes v of r * x_i^p * x_{i+1}^q, where
    ci and cj are the codes of x_i and x_{i+1}: lo and hi are r's codes
    below ci and above cj.  The two codes are adjacent, so the x_i and
    x_{i+1} runs sit together between lo and hi."""
    at = bisect_left(v, ci)
    mid = bisect_right(v, ci, at)
    end = bisect_right(v, cj, mid)
    return v[:at], v[end:], mid - at, end - mid


def _divided_into(into: dict, ci: int, cj: int, b: int, lo: tuple, hi: tuple,
                  p: int, q: int, c: int) -> None:
    """Add the divided difference of c * beta^b * r * x_i^p * x_{i+1}^q,
    with r's codes split as lo and hi by _split, into the table into,
    dropping a coefficient that cancels.  (x^p y^q - x^q y^p)/(x - y) is the
    sum of x^k y^(p+q-1-k) over q <= k < p, negated when p < q, so the
    division is exact by construction and each monomial is joined in
    order, with no sort."""
    if p < q:
        p, q, c = q, p, -c
    for k in range(q, p):
        m = (b, lo + (ci,) * k + (cj,) * (p + q - 1 - k) + hi)
        new = into.get(m, 0) + c
        if new:
            into[m] = new
        else:
            del into[m]


def divided_difference(i: int, f: TruncPoly) -> TruncPoly:
    """The Newton divided difference (f - s_i f) / (x_i - x_{i+1}),
    computed monomial by monomial by _divided_into."""
    ci, cj = var_code(X, i), var_code(X, i + 1)
    result: dict[Monomial, int] = {}
    for (b, v), c in f.terms.items():
        _divided_into(result, ci, cj, b, *_split(v, ci, cj), c)
    return TruncPoly(result, f.bound)


def pi_operator(i: int, f: TruncPoly) -> TruncPoly:
    """The isobaric operator ((1+bx_{i+1})f - (1+bx_i) s_i f)/(x_i - x_{i+1}),
    that is the divided difference of (1 + beta*x_{i+1}) f, in one pass over
    f: each monomial m adds the divided differences of m and, within f's
    bound, of beta*x_{i+1}*m into one table.  No product is built."""
    if i < 1:
        raise ValueError("pi_i needs a positive index")
    ci, cj = var_code(X, i), var_code(X, i + 1)
    top = float("inf") if f.bound is None else f.bound
    result: dict[Monomial, int] = {}
    for (b, v), c in f.terms.items():
        lo, hi, p, q = _split(v, ci, cj)
        _divided_into(result, ci, cj, b, lo, hi, p, q, c)
        if len(v) < top:
            _divided_into(result, ci, cj, b + 1, lo, hi, p, q + 1, c)
    return TruncPoly(result, f.bound)


# -- the localized coefficient ring --------------------------------------


class YRational:
    """num / prod (1 + beta*y_i)^{e_i}, kept as built: no factor is divided
    out of num, and equality is decided over the least common denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: TruncPoly, den: dict[int, int] | None = None):
        den = {i: e for i, e in (den or {}).items() if e}
        if any(e < 0 for e in den.values()):
            raise ValueError("denominator multiplicities must be nonnegative")
        if not num:
            den = {}
        self.num = num
        self.den = den

    @staticmethod
    def const(c: int) -> "YRational":
        return YRational(TruncPoly.const(c), {})

    def __bool__(self) -> bool:
        return bool(self.num)

    def _over_common(self, other: "YRational") -> tuple[TruncPoly, TruncPoly, dict[int, int]]:
        """Both numerators over the least common denominator, and that
        denominator; numerators over one denominator already stand as they are."""
        if self.den == other.den:
            return self.num, other.num, self.den
        lcm = {
            i: max(self.den.get(i, 0), other.den.get(i, 0))
            for i in set(self.den) | set(other.den)
        }
        scale_self = _unit_product({i: lcm[i] - self.den.get(i, 0) for i in lcm})
        scale_other = _unit_product({i: lcm[i] - other.den.get(i, 0) for i in lcm})
        return self.num * scale_self, other.num * scale_other, lcm

    def __add__(self, other) -> "YRational":
        a, b, lcm = self._over_common(_lift(other))
        return YRational(a + b, lcm)

    __radd__ = __add__

    def __neg__(self) -> "YRational":
        return YRational(-self.num, dict(self.den))

    def __sub__(self, other) -> "YRational":
        return self + (-other)

    def __mul__(self, other) -> "YRational":
        other = _lift(other)
        den = dict(self.den)
        for i, e in other.den.items():
            den[i] = den.get(i, 0) + e
        return YRational(self.num * other.num, den)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = _lift(other)
        if not isinstance(other, YRational):
            return NotImplemented
        a, b, _ = self._over_common(other)
        return a == b

    def __repr__(self):
        return f"YRational({yrational_str(self)!r})"

    def divide_beta(self) -> "YRational":
        return YRational(self.num.divide_beta(), dict(self.den))

    def at_y_zero(self) -> TruncPoly:
        """Evaluate every y_i at 0; the denominator units become 1."""
        return self.num.set_zero([Y])


def _lift(x):
    """An int or TruncPoly as a YRational; anything else unchanged."""
    if isinstance(x, int):
        return YRational.const(x)
    if isinstance(x, TruncPoly):
        return YRational(x)
    return x


@lru_cache(maxsize=None)
def _unit_power(items: tuple[tuple[int, int], ...]) -> TruncPoly:
    """prod (1 + beta*y_i)^e over the items (i, e), sorted by i with e >= 1,
    by the binomial theorem: beta^(sum k_i) prod y_i^k_i has coefficient
    prod C(e_i, k_i), and its codes, taken in index order, are sorted.
    Callers share the result, so none may change it."""
    terms = {_ONE_MONO: 1}
    for i, e in items:
        code = var_code(Y, i)
        terms = {(b + k, v + (code,) * k): c * comb(e, k)
                 for (b, v), c in terms.items() for k in range(e + 1)}
    return TruncPoly._within(terms, None)


def _unit_product(exps: dict[int, int]) -> TruncPoly:
    """prod (1 + beta*y_i)^{e_i} over the e_i >= 0 of exps, from the memo."""
    return _unit_power(tuple(sorted((i, e) for i, e in exps.items() if e)))


def y_factor(c: int, e: int = 1) -> YRational:
    """(1 + beta*y_c)^e for a signed index c and any integer e.  Reading
    y_{-i} as the ominus of y_i makes 1 + beta*y_{-i} = 1/(1 + beta*y_i), so
    the power is a polynomial when c and e have the same sign and an
    inverted unit otherwise; this is the one place that reading is applied
    to a unit."""
    if (c > 0) == (e > 0):
        return YRational(_unit_product({abs(c): abs(e)}))
    return YRational(ONE, {abs(c): abs(e)})


def _sum_by_den(parts: list, bound: int | None) -> YRational:
    """The sum of left * right / den over parts, triples (den, left, right)
    of a denominator (a dict from index to multiplicity) and two term
    tables, cut at degree bound.  The sum stands over the least common
    denominator of the parts: each left is scaled once, by its cofactor,
    and every product adds into one term table."""
    lcm: dict[int, int] = {}
    for den, _, _ in parts:
        for i, e in den.items():
            if e > lcm.get(i, 0):
                lcm[i] = e
    terms: dict[Monomial, int] = {}
    for den, left, right in parts:
        scale = {i: e - den.get(i, 0) for i, e in lcm.items()}
        if any(scale.values()):
            scaled: dict[Monomial, int] = {}
            _mul_into(scaled, left, _unit_product(scale).terms, bound)
            left = scaled
        _mul_into(terms, left, right, bound)
    return YRational(TruncPoly._within({m: c for m, c in terms.items() if c}, bound), lcm)


def star_action(w: SignedPermutation, f: YRational) -> YRational:
    """Substitute y_i -> y_{w(i)}, reading y_{-j} as -y_j/(1+beta*y_j).

    A term whose y_i meet k negative targets has k unit factors below it,
    so the terms are grouped by that denominator: each group adds as a
    polynomial, and the groups add over their least common denominator.
    A unit of f's denominator becomes 1/(1 + beta*y_{w(i)}), a unit of the
    denominator, when w(i) > 0, and 1 + beta*y_{-w(i)}, a unit of the
    numerator, when w(i) < 0; both join that one sum."""
    above: dict[int, int] = {}
    below: dict[int, int] = {}
    for i, e in f.den.items():
        target = w(i)
        if target > 0:
            below[target] = e
        else:
            above[-target] = e
    groups: dict[tuple, dict] = {}
    for (b, v), c in f.num.terms.items():
        codes, den = [], dict(below)
        for code in v:
            if code_family(code) == Y:
                target = w(code_index(code))
                if target < 0:
                    c, target = -c, -target
                    den[target] = den.get(target, 0) + 1
                code = var_code(Y, target)
            codes.append(code)
        # w permutes the indices, so distinct terms stay distinct
        groups.setdefault(tuple(sorted(den.items())), {})[(b, tuple(sorted(codes)))] = c
    # an index permutation keeps degree, so each group keeps f's bound
    units = _unit_product(above).terms
    return _sum_by_den([(dict(den), units, terms) for den, terms in groups.items()], f.num.bound)


def _times_beta(c: YRational, sign: int) -> YRational:
    """sign * beta * c, shifting each beta exponent in one pass."""
    num = {(b + 1, v): sign * k for (b, v), k in c.num.terms.items()}
    return YRational(TruncPoly._within(num, c.num.bound), c.den)


# -- the operators on one group element -----------------------------------
#
# An operator acts on one element, checked to lie in its group, and returns
# a plain dict from group elements to coefficients (TruncPoly or YRational,
# never zero); its terms are that element times reflections of its type.


def _add_term(terms: dict, w: SignedPermutation, coeff) -> None:
    """Add coeff at w, dropping a coefficient that is or becomes zero."""
    new = terms[w] + coeff if w in terms else coeff
    if new:
        terms[w] = new
    else:
        terms.pop(w, None)


def apply_R(t: str, k: int, w: SignedPermutation) -> dict:
    """R_k on the element w from the chain counts of weyl._chains: a chain
    end u gets beta^(l(u)-l(w)) * (plain + via_n / (1 + beta*y_{w(k)})); the
    chains share one padded length, so distinct ends are distinct elements."""
    lw = length(t, w)
    out: dict = {}
    for u, (plain, via_n) in _chains(t, k, w).items():
        u = SignedPermutation._trusted(list(u))
        coeff = YRational.const(plain)
        if via_n:
            # the n-move fires only when w(k) > 0
            coeff = coeff + y_factor(w(k), -1) * via_n
        out[u] = coeff * TruncPoly.beta(length(t, u) - lw)
    return out


def _factor(t: str, combo: dict, lengths: dict, i: int, j: int, weight,
            bound: int | None = None) -> dict:
    """One factor of M_k on a combination: each term c*u of the input also
    adds weight(u, v, c) at v = u * t_{ij}, when t_{ij} is a reflection of
    type t that raises the length of u by one and v has length at most
    bound.  lengths maps each element of combo to its length, and gains
    l(v) = l(u) + 1 at each v added, so no length is counted again."""
    if not is_valid_reflection(t, i, j):
        return combo
    tij = reflection(i, j)
    if abs(i) > j:
        i, j = -j, -i  # the same reflection, in the form _raises_length reads
    out = dict(combo)
    for u, c in combo.items():
        lv = lengths[u] + 1
        if (bound is None or lv <= bound) and _raises_length(
                t, u + tuple(range(len(u) + 1, j + 1)), i, j):
            v = u * tij
            lengths[v] = lv
            _add_term(out, v, weight(u, v, c))
    return out


def apply_M(t: str, k: int, u: SignedPermutation, bound: int | None = None) -> dict:
    """The Monk-type operator M_k, which acts on the double Grothendieck
    polynomial of the element u as multiplication by 1 + beta*x_k.

    Factors act rightmost first: the v-scaling by 1/(1 + beta*y_{u(k)}), the
    twisted u-moves for j descending below k, the o-correction (type B only),
    then the t-moves for l above k.  With bound=None the result is exact and
    finite, which holds in type A only.  In types B, C and D the u-moves
    never stop growing the support, so basis elements of length above the
    bound are dropped as they appear: their coefficients sit in degrees the
    truncation cannot see.  ``length`` refuses a u outside the group of
    type t, before the bound is looked at.
    """
    lengths = {u: length(t, u)}
    if bound is None and t != "A":
        raise ValueError(f"the Monk operator of type {t} needs a length bound")
    out: dict = {}
    if bound is None or lengths[u] <= bound:
        out[u] = y_factor(u(k), -1)
    j = k - 1
    while j >= -(max([k] + [u.support for u in out]) + 1):
        out = _factor(
            t, out, lengths, j, k,
            lambda u, v, c: _times_beta(star_action(v * u.inverse(), c), -1), bound
        )
        j -= 1
    if t == "B":
        out = _factor(t, out, lengths, 0, k,
                      lambda u, v, c: _times_beta(YRational(c.at_y_zero()), -1), bound)
    for l in range(max([k] + [u.support for u in out]) + 1, k, -1):
        out = _factor(t, out, lengths, k, l, lambda u, v, c: _times_beta(c, 1), bound)
    return out


def transition(t: str, w: SignedPermutation) -> tuple[SignedPermutation, int, int, dict]:
    """The transition certificate (v, a, c, R_a v): a = LD(w), v = w * t_{ab}
    as in weyl._transition_window, and c = w(b) = v(a), which may be negative.

    With G the double Grothendieck polynomial of the type, the identity is
    G_w = ((1+beta*y_c)(1+beta*x_a) * sum_u coeff_u G_u - G_v) / beta,
    with y_c read as ominus y_{|c|} when c is negative.  ``length`` refuses
    a w outside the group of type t before the descent test; ``apply_R``
    then counts l(v) for its own input.
    """
    length(t, w)  # raises for a w outside the group
    a = w.least_descent()
    if not a:
        raise ValueError(f"{w} has no descent")
    v = SignedPermutation._trusted(_transition_window(w, a)[0])
    return v, a, v(a), apply_R(t, a, v)


# -- the Monk and transition identities ---------------------------------------
#
# G maps a group element to its double Grothendieck polynomial:
# groth_a.groth_poly in type A, kn.kn_eval at a fixed (t, N, D) in B, C, D.


def _combo_parts(combo: dict, G) -> tuple[list, int | None]:
    """The parts (den, numerator, G(u)) of the sum of coeff_u * G(u) over
    the combination, for _sum_by_den, and the bound of that sum.  A zero
    G(u) adds no part, so its denominator is not in the sum's."""
    parts, bound = [], None
    for u, c in combo.items():
        c, g = _lift(c), G(u)
        bound = TruncPoly._join_bound(bound, TruncPoly._join_bound(c.num.bound, g.bound))
        if g:
            parts.append((c.den, c.num.terms, g.terms))
    return parts, bound


def monk_identity_holds(t: str, u: SignedPermutation, k: int, G) -> bool:
    """(1 + beta*x_k) G(u) == M_k G(u), with M_k cut at the length D =
    G(u).bound.  The cut is exact: G(v) has least degree l(v), so it is zero
    at D when l(v) > D, and every factor of M_k raises length, so no dropped
    term feeds back below D.  An untruncated G (type A) gives the exact M_k.
    The left side joins the sum of the right as one more part, so the two
    sides meet over one denominator and the identity holds when it is zero."""
    gu = G(u)
    parts, bound = _combo_parts(apply_M(t, k, u, gu.bound), G)
    parts.append(({}, (-(ONE + BETA * xvar(k))).terms, gu.terms))
    return not _sum_by_den(parts, TruncPoly._join_bound(bound, gu.bound))


def transition_residual(
    w: SignedPermutation, certificate: tuple[SignedPermutation, int, int, dict], G
) -> YRational:
    """The difference between the two sides of the transition identity
    G(w) = ((1+beta*y_c)(1+beta*x_a) * R_a G(v) - G(v)) / beta, with y_c
    read as ominus y_{|c|} when c is negative; zero when it holds.  The
    certificate (v, a, c, R_a) is transition(t, w), which callers that
    print it have already built.

    beta times the residual is one sum, as in monk_identity_holds: each
    term of R_a joins it as the numerator of (1+beta*y_c)(1+beta*x_a) *
    coeff_u, over its denominator, against G(u), and G(v) and G(w) join it
    with the factors -1 and -beta.  The residual is that sum divided by
    beta, which raises ArithmeticError exactly when the bracket above is
    not divisible by beta."""
    v, a, c, combo = certificate
    parts, bound = _combo_parts(combo, G)
    gv, gw = G(v), G(w)
    bound = TruncPoly._join_bound(bound, TruncPoly._join_bound(gv.bound, gw.bound))
    unit = y_factor(c)
    front = (unit.num * (ONE + BETA * xvar(a))).terms
    for at, (den, num, g) in enumerate(parts):
        scaled: dict[Monomial, int] = {}
        _mul_into(scaled, front, num, bound)
        parts[at] = ({i: den.get(i, 0) + unit.den.get(i, 0) for i in den.keys() | unit.den.keys()},
                     scaled, g)
    parts += [({}, {_ONE_MONO: -1}, gv.terms), ({}, {(1, ()): -1}, gw.terms)]
    return _sum_by_den(parts, bound).divide_beta()


# -- the K-supersymmetry check ---------------------------------------------


def supersym_check(f: TruncPoly) -> bool:
    """Whether f(t, ominus t, z_3, ...) == f(0, 0, z_3, ...) up to the bound D
    of f, which must be truncated, with t a fresh variable.

    No series is built.  As ominus t = -t/(1 + beta*t), the coefficient of
    t^k in t^a (ominus t)^b is (-1)^(k-a) C(k-a-1, b-1) beta^(k-a-b) when
    b >= 1, and [k = a] when b = 0.  A term z_1^a z_2^b r of f, with r free
    of z_1 and z_2, so gives r times that coefficient at t^k for each k with
    a + b <= k <= D - deg(r).  The t^0 part is f(0, 0, z_3, ...), so f
    passes when every sum at t^k, k >= 1, is zero."""
    bound = f.bound
    if bound is None:
        raise ValueError("the supersymmetry check needs a truncated series")
    z1, z2 = var_code(Z, 1), var_code(Z, 2)
    sums: dict[tuple[int, Monomial], int] = {}
    for (beta, v), c in f.terms.items():
        a, b = v.count(z1), v.count(z2)
        if not a + b:
            continue
        rest = tuple(code for code in v if code != z1 and code != z2)
        top = bound - len(rest) if b else min(a, bound - len(rest))
        for k in range(a + b, top + 1):
            coeff = (-1) ** (k - a) * comb(k - a - 1, b - 1) if b else 1
            key = (k, (beta + k - a - b, rest))
            sums[key] = sums.get(key, 0) + c * coeff
    return not any(sums.values())


# -- rendering and parsing ---------------------------------------------------


def _powers(vars_: tuple[int, ...]) -> list[tuple[int, int]]:
    """The (code, exp) pairs of a monomial's sorted codes."""
    return [(code, len(list(run))) for code, run in groupby(vars_)]


def _mono_sort_key(mono: Monomial) -> list:
    """The canonical order: by the beta exponent, then for x, y and z in
    turn by the degree in the family and by its (index, exponent) pairs.
    One pass over the sorted codes builds the flat key [b, deg_x, x pairs,
    deg_y, y pairs, deg_z, z pairs], a pair as (code, exponent): two blocks
    of one degree differ inside both unless equal, so the flat pairs compare
    as their tuples would, and a family with no codes after the last one
    read is left out, which sorts first, as its zero degree would."""
    b, v = mono
    key, at, family = [b, 0], 1, X  # at: where the degree of family is kept
    for code, run in groupby(v):
        while family < code // _STRIDE:
            family += 1
            at = len(key)
            key.append(0)
        e = sum(1 for _ in run)
        key[at] += e
        key += (code, e)
    return key


def _mono_str(mono: Monomial, coeff: int) -> str:
    b, v = mono
    parts = []
    if abs(coeff) != 1 or (b == 0 and not v):
        parts.append(str(abs(coeff)))
    if b:
        parts.append("b" if b == 1 else f"b^{b}")
    for code, e in _powers(v):
        name = f"{_FAMILY_NAMES[code_family(code)]}{code_index(code)}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def poly_str(p: TruncPoly, suffix: str = "") -> str:
    """Canonical rendering: the terms of p in canonical order, each
    followed by suffix, joined with their signs, e.g. "2*z1 + b*z1^2"."""
    if not p:
        return "0"
    out = []
    for mono in sorted(p.terms, key=_mono_sort_key):
        c = p.terms[mono]
        body = _mono_str(mono, c) + suffix
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(out)


def yrational_str(f: YRational) -> str:
    """Canonical rendering with the denominator after every term, e.g.
    "b/(1+b*y1) + b^2*y1/(1+b*y1)"."""
    den = ""
    if f.den:
        factors = []
        for i, e in sorted(f.den.items()):
            base = f"(1+b*y{i})"
            factors.append(base if e == 1 else f"{base}^{e}")
        den = "/" + "*".join(factors) if len(factors) == 1 else "/(" + "*".join(factors) + ")"
    return poly_str(f.num, den)
