"""Polynomial arithmetic, the pi operators, and the localized y-ring."""

import random
from math import inf

import pytest

from ktrans.expand import expand_grassmannian, transition_step
from ktrans.groth_a import groth_poly
from ktrans.hecke import fstanley, hecke_words, quasi
from ktrans.kn import kn_eval
from ktrans.rings import (
    BETA,
    MAX_INDEX,
    ONE,
    X,
    Y,
    Z,
    TruncPoly,
    YRational,
    _add_term,
    _combo_parts,
    _lift,
    _mono_sort_key,
    _mul_into,
    _sum_by_den,
    _unit_power,
    _unit_product,
    apply_M,
    apply_R,
    code_family,
    code_index,
    divided_difference,
    monk_identity_holds,
    pi_operator,
    poly_str,
    star_action,
    supersym_check,
    transition,
    transition_residual,
    var_code,
    xvar,
    y_factor,
    yrational_str,
    yvar,
    z_start,
)
from ktrans.tableaux import ShiftedSkewShape, gp, gq
from ktrans.weyl import (
    IDENTITY,
    SignedPermutation,
    elements_up_to_length,
    group_elements,
    parse_oneline,
    reduced_word,
    reflection,
    shape,
)


def zvar(i, bound=inf):
    """The variable z_i, cut at the bound if one is given."""
    return TruncPoly({(0, (var_code(Z, i),)): 1}, bound)


def mono_degree(mono):
    """Total degree over x, y, z (beta does not count)."""
    return len(mono[1])


def homogeneous_degree(f):
    """The degree of a TruncPoly or YRational under deg beta = -1, deg of a
    variable = 1 and deg 1/(1+beta*y) = 0; None if f is not homogeneous."""
    terms = f.num.terms if isinstance(f, YRational) else f.terms
    degs = {len(v) - b for b, v in terms}
    if not degs:
        return 0
    return degs.pop() if len(degs) == 1 else None


def random_poly(rng, nvars=4, max_deg=4, terms=6, var=xvar):
    p = TruncPoly.zero()
    for _ in range(terms):
        term = TruncPoly.const(rng.randint(-3, 3))
        budget = rng.randint(0, max_deg)
        for _ in range(budget):
            term = term * var(rng.randint(1, nvars))
        if rng.random() < 0.3:
            term = term * BETA
        p = p + term
    return p


def reference_product(a, b):
    """The product by the generic double loop: every pair of terms, with
    coefficients accumulated, cancellations dropped, and the degree filter
    of the joined bound."""
    bound = min(a.bound, b.bound)
    terms = {}
    for (b1, v1), c1 in a.terms.items():
        for (b2, v2), c2 in b.terms.items():
            if len(v1) + len(v2) <= bound:
                m = (b1 + b2, tuple(sorted(v1 + v2)))
                terms[m] = terms.get(m, 0) + c1 * c2
    return TruncPoly({m: c for m, c in terms.items() if c}, bound)


class TestTruncPoly:
    def test_basic_identities(self):
        x1, x2 = xvar(1), xvar(2)
        assert x1 + x2 == x2 + x1
        assert (x1 + x2) * x1 == x1 * x1 + x2 * x1
        assert x1 - x1 == TruncPoly.zero()
        assert ONE * x1 == x1
        # times 0 keeps the bound; an operand that is not a number is refused
        p = x1.with_bound(3)
        assert (p * 0).terms == {} and (p * 0).bound == 3
        with pytest.raises(TypeError) as err:
            p + object()
        assert err.type is TypeError
        assert str(err.value) == "unsupported operand type(s) for +: 'TruncPoly' and 'object'"
        with pytest.raises(ValueError) as err:
            p ** -1
        assert err.type is ValueError and str(err.value) == "negative powers are not defined"

    def test_ring_laws_random(self):
        rng = random.Random(7)
        for _ in range(10):
            a, b, c = (random_poly(rng, terms=4) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_truncation_commutes_with_arithmetic(self):
        rng = random.Random(11)
        for _ in range(10):
            a, b = random_poly(rng), random_poly(rng)
            assert (a * b).with_bound(3) == (a.with_bound(3) * b.with_bound(3)).with_bound(3)
            assert (a + b).with_bound(3) == (a.with_bound(3) + b.with_bound(3))

    def test_beta_never_truncated(self):
        p = (BETA ** 5 * xvar(1)).with_bound(2)
        assert p

    def test_divide_beta(self):
        p = BETA * xvar(1) + BETA * BETA
        assert p.divide_beta() == xvar(1) + BETA
        with pytest.raises(ArithmeticError):
            xvar(1).divide_beta()

    def test_homogeneous_degree(self):
        assert homogeneous_degree(xvar(1) + yvar(2) + BETA * xvar(1) * xvar(2)) == 1
        assert homogeneous_degree(xvar(1) + xvar(1) * xvar(2)) is None

    def test_constructor_cuts_at_its_bound(self):
        # z3^5 is above the bound 2, so a sum and a product agree on dropping it
        p = TruncPoly({(0, (var_code(Z, 3),) * 5): 1}, 2)
        assert not p
        added, multiplied = p + zvar(1), p * TruncPoly.const(1, 2) + zvar(1)
        assert added.terms == multiplied.terms == zvar(1).terms
        assert added.bound == multiplied.bound == 2


class TestOneMonomialProduct:
    """A factor with one term, a power of beta or a monomial with variables,
    runs the one product loop of TruncPoly.__mul__ as any factor does; it
    must give the double loop's terms and bound, on either side."""

    @staticmethod
    def one_term_factors():
        x1, y2, z3 = (var_code(f, i) for f, i in ((X, 1), (Y, 2), (Z, 3)))
        return [
            TruncPoly.beta(3),
            TruncPoly.const(-5),
            TruncPoly({(2, (x1, x1, y2)): 7}),
            TruncPoly({(0, (x1, y2, y2, z3)): -2}),
        ]

    @staticmethod
    def many_term_factors():
        rng = random.Random(5)
        polys = [random_poly(rng, terms=6) for _ in range(4)]
        mixed = (ONE + BETA * yvar(2)) * (xvar(1) + zvar(3)) ** 2 - BETA ** 2 * xvar(1)
        return polys + [mixed, xvar(1) * yvar(2)]

    @pytest.mark.parametrize("bounds", [(inf, inf), (inf, 3), (3, inf), (2, 4), (4, 2)])
    def test_matches_the_double_loop(self, bounds):
        for one in self.one_term_factors():
            for many in self.many_term_factors():
                a = TruncPoly(dict(many.terms), bounds[0])
                b = TruncPoly(dict(one.terms), bounds[1])
                for got, want in ((a * b, reference_product(a, b)),
                                  (b * a, reference_product(b, a))):
                    assert (got.terms, got.bound) == (want.terms, want.bound)


def reference_substitute(f, mapping):
    """The substitution as a running sum of one product per term of f, each
    image cut at the bound of f."""
    mapping = {code: p.with_bound(f.bound) for code, p in mapping.items()}
    result = TruncPoly.zero(f.bound)
    for (b, v), c in f.terms.items():
        term = TruncPoly({(b, tuple(code for code in v if code not in mapping)): c}, f.bound)
        for code in v:
            if code in mapping:
                term = term * mapping[code]
        result = result + term
    return result


class TestNegativeBound:
    # every monomial has degree >= 0, so a negative bound keeps none of them
    def test_every_truncated_object_is_zero(self):
        empty = ShiftedSkewShape(())
        objects = [
            TruncPoly.const(1, -1),
            TruncPoly.beta(1).with_bound(-1),
            (ONE + xvar(1)).with_bound(-1),
            xvar(1).with_bound(-1),
            gp(empty, 2, -1),
            gq(empty, 2, -1),
            quasi((), 2, -1),
            fstanley("B", IDENTITY, 2, -1),
            fstanley("C", IDENTITY, 2, -1, "unimodal"),
            kn_eval("D", IDENTITY, 2, -1),
        ]
        for p in objects:
            assert not p and p.bound == -1, p.terms

    def test_a_negative_bound_admits_no_word_and_no_element(self):
        # the empty word has length 0 > bound, as the identity has
        for bound in (-1, -2):
            assert hecke_words("B", IDENTITY, bound) == []
            assert hecke_words("C", parse_oneline("-2,1"), bound) == []
            for t in "ABCD":
                assert elements_up_to_length(t, 2, bound) == ()
        assert hecke_words("B", IDENTITY, 0) == [()]
        assert all(elements_up_to_length(t, 2, 0) == (IDENTITY,) for t in "ABCD")

    def test_compat_weights_stay_integers(self):
        # the compatible-sequence sum divides by 2**bound at the end
        one = fstanley("B", IDENTITY, 2, 0)
        assert one.terms == {(0, ()): 1}
        assert all(type(c) is int for c in one.terms.values())


# each oracle in the variables z_1..z_N, at (N, D)
Z_ORACLES = {
    "fstanley-compat": lambda n, d: fstanley("B", parse_oneline("-2,1"), n, d),
    "fstanley-unimodal": lambda n, d: fstanley("D", parse_oneline("-1,-2"), n, d, "unimodal"),
    "quasi": lambda n, d: quasi((1, 2), n, d),
    "kn_eval": lambda n, d: kn_eval("B", parse_oneline("-2,1"), n, d),
    # l(w) = 6 > D, so no term of the fold reaches fstanley
    "kn_eval-long": lambda n, d: kn_eval("C", parse_oneline("-3,-2,1"), n, d),
    "gp": lambda n, d: gp(ShiftedSkewShape((2, 1)), n, d),
    "gq": lambda n, d: gq(ShiftedSkewShape((2, 1)), n, d),
    "gp-empty": lambda n, d: gp(ShiftedSkewShape(()), n, d),
    "gq-empty": lambda n, d: gq(ShiftedSkewShape(()), n, d),
}


class TestVariableCount:
    """rings.z_start is the one rule for the number N of z variables."""

    def test_z_start_names_z1_and_refuses_a_bad_count(self):
        for n in (0, 1, 5, MAX_INDEX):
            assert z_start(n) == var_code(Z, 1)
        with pytest.raises(ValueError) as err:
            z_start(-1)
        assert err.type is ValueError
        assert str(err.value) == "the number of variables must be nonnegative, got -1"
        with pytest.raises(ValueError) as err:
            z_start(MAX_INDEX + 1)
        assert err.type is ValueError
        assert str(err.value) == f"variable index must be at most {MAX_INDEX}, got {MAX_INDEX + 1}"

    @pytest.mark.parametrize("bound", [3, -1])
    @pytest.mark.parametrize("oracle", list(Z_ORACLES))
    def test_every_oracle_refuses_a_negative_count(self, oracle, bound):
        with pytest.raises(ValueError) as err:
            Z_ORACLES[oracle](-1, bound)
        assert err.type is ValueError
        assert str(err.value) == "the number of variables must be nonnegative, got -1"

    @pytest.mark.parametrize("bound", [3, -1])
    @pytest.mark.parametrize("oracle", list(Z_ORACLES))
    def test_every_oracle_refuses_a_count_past_the_code_layout(self, oracle, bound):
        # for every shape and bound: the empty shape, and D = -1, use no letter
        with pytest.raises(ValueError) as err:
            Z_ORACLES[oracle](MAX_INDEX + 1, bound)
        assert err.type is ValueError
        assert str(err.value) == f"variable index must be at most {MAX_INDEX}, got {MAX_INDEX + 1}"

    @pytest.mark.parametrize("oracle", list(Z_ORACLES))
    def test_no_variable_is_a_real_count(self, oracle):
        # N = 0 answers: each w here has a negative entry, which only a term
        # with a z variable carries, so only the empty shapes keep a term
        want = TruncPoly.const(1, 3) if oracle.endswith("empty") else TruncPoly.zero(3)
        assert Z_ORACLES[oracle](0, 3) == want

    def test_the_largest_count_answers(self):
        one = TruncPoly.const(1, 3)
        assert gp(ShiftedSkewShape(()), MAX_INDEX, 3) == gq(ShiftedSkewShape(()), MAX_INDEX, 3) == one
        assert fstanley("B", IDENTITY, MAX_INDEX, 3) == one


def assert_exact(got, truncated, top=40):
    """got, an oracle at D = inf, is the untruncated series (bound inf) with
    the terms of its truncation at top, which lies past got's top degree."""
    assert all(len(v) < top for _, v in got.terms)
    want = TruncPoly(dict(truncated.terms))
    assert (got.terms, got.bound) == (want.terms, want.bound)


class TestUntruncated:
    """An untruncated series has the bound inf, and every oracle answers
    exactly at D = inf: each pass stops at its first empty layer."""

    def test_an_untruncated_series_has_bound_inf(self):
        assert TruncPoly().bound == TruncPoly.zero().bound == TruncPoly.const(3).bound == inf
        assert ONE.bound == BETA.bound == xvar(1).bound == inf
        assert groth_poly(parse_oneline("2,4,1,3")).bound == inf
        assert (ONE + xvar(1).with_bound(3)).bound == (xvar(1).with_bound(3) * ONE).bound == 3
        with pytest.raises(ValueError) as err:
            apply_M("B", 1, parse_oneline("2,1"))
        assert str(err.value) == "the Monk operator of type B needs a length bound"
        with pytest.raises(ValueError) as err:
            supersym_check(ONE)
        assert str(err.value) == "the supersymmetry check needs a truncated series"

    @pytest.mark.parametrize("t", ["B", "C", "D"])
    def test_fstanley_is_exact_on_w3(self, t):
        # both sequence rules, which agree
        elements = group_elements(t, 3)
        assert len(elements) == (48 if t != "D" else 24)
        for w in elements:
            compat = fstanley(t, w, 2, inf)
            assert_exact(compat, fstanley(t, w, 2, 40))
            assert_exact(fstanley(t, w, 2, inf, "unimodal"), compat)

    @pytest.mark.parametrize("pi", [(1,), (1, 2), (2, 1, 2), (0, 1, 0)])
    def test_quasi_is_exact(self, pi):
        assert_exact(quasi(pi, 2, inf), quasi(pi, 2, 40))

    @pytest.mark.parametrize("t", ["B", "C", "D"])
    def test_kn_eval_is_exact_on_w2(self, t):
        for w in group_elements(t, 2):
            assert_exact(kn_eval(t, w, 2, inf), kn_eval(t, w, 2, 40))


class TestMonomialFormat:
    """A monomial's variables are its sorted codes, each repeated as often
    as its exponent, so its degree is their number."""

    def oracle_polys(self):
        from ktrans.groth_a import groth_poly
        from ktrans.hecke import fstanley
        from ktrans.kn import kn_eval
        from ktrans.tableaux import ShiftedSkewShape, gp, gq

        w = parse_oneline("-2,3,1")
        yield fstanley("B", w, 3, 5)
        yield kn_eval("D", parse_oneline("-2,-1,3"), 2, 4)
        yield kn_eval("C", w, 2, 4)
        for shape in (ShiftedSkewShape((3, 1)), ShiftedSkewShape((4, 2), (1,))):
            yield gp(shape, 3, 5)
            yield gq(shape, 3, 5)
        yield groth_poly(parse_oneline("2,4,1,3"))

    def test_oracle_monomials_are_sorted_codes(self):
        for p in self.oracle_polys():
            assert p.terms
            for mono in p.terms:
                b, v = mono
                assert type(b) is int and type(v) is tuple
                assert all(type(code) is int for code in v)
                assert list(v) == sorted(v)
                assert mono_degree(mono) == len(v)

    def test_powers_render_with_exponents(self):
        p = xvar(1) * xvar(1) * yvar(2) * zvar(3) ** 2
        x1, y2, z3 = var_code(X, 1), var_code(Y, 2), var_code(Z, 3)
        assert p.terms == {(0, (x1, x1, y2, z3, z3)): 1}
        assert poly_str(p) == "x1^2*y2*z3^2"

    @pytest.mark.parametrize("family", [X, Y, Z])
    def test_var_code_rejects_an_index_past_its_family(self, family):
        # an index of 2**20 would decode as the next family's index 0
        assert var_code(family, 2**20 - 1) == family * 2**20 + 2**20 - 1
        with pytest.raises(ValueError):
            var_code(family, 2**20)
        with pytest.raises(ValueError) as err:
            var_code(family, 0)
        assert err.type is ValueError and str(err.value) == "variable index must be positive, got 0"

    def test_rename_into_a_present_family_merges_powers(self):
        renamed = reference_substitute(yvar(2) * zvar(2), {var_code(Y, 2): zvar(2)})
        assert renamed.terms == (zvar(2) * zvar(2)).terms == {(0, (var_code(Z, 2),) * 2): 1}


class TestDividedDifference:
    def test_matches_its_definition(self):
        # (x_i - x_{i+1}) * d_i f == f - s_i f
        rng = random.Random(13)
        for _ in range(20):
            f = TruncPoly.zero()
            for _ in range(5):
                term = TruncPoly.const(rng.choice([-3, -2, -1, 1, 2, 3]))
                for j in range(1, 5):
                    term = term * xvar(j) ** rng.randint(0, 3)
                f = f + term * BETA ** rng.randint(0, 1)
            for i in (1, 2, 3):
                swap = {var_code(X, i): xvar(i + 1), var_code(X, i + 1): xvar(i)}
                swapped = reference_substitute(f, swap)
                assert (xvar(i) - xvar(i + 1)) * divided_difference(i, f) == f - swapped


class TestRendering:
    def test_examples(self):
        assert poly_str(2 * zvar(1) + BETA * zvar(1) * zvar(1)) == "2*z1 + b*z1^2"
        assert poly_str(TruncPoly.zero()) == "0"
        assert poly_str(TruncPoly.const(-1) * xvar(1) + yvar(2)) == "y2 - x1"

    def test_yrational_rendering(self):
        f = YRational(yvar(1) * BETA * 5, {1: 1})
        assert yrational_str(f) == "5*b*y1/(1+b*y1)"
        assert repr(f) == "YRational('5*b*y1/(1+b*y1)')"


class TestPiOperator:
    def test_kills_x1(self):
        assert pi_operator(1, xvar(1)) == ONE
        with pytest.raises(ValueError) as err:
            pi_operator(0, xvar(1))
        assert err.type is ValueError and str(err.value) == "pi_i needs a positive index"

    def test_constant_gives_minus_beta(self):
        c = TruncPoly.const(5)
        assert pi_operator(1, c) == -5 * BETA

    def test_symmetric_input(self):
        f = xvar(1) * xvar(2)
        assert pi_operator(1, f) == -1 * BETA * f

    def test_idempotent_up_to_beta(self):
        rng = random.Random(5)
        for _ in range(5):
            f = random_poly(rng)
            pf = pi_operator(2, f)
            assert pi_operator(2, pf) == -1 * BETA * pf

    def test_braid_and_commuting_relations(self):
        rng = random.Random(9)
        for _ in range(5):
            f = random_poly(rng)
            for i in (1, 2):
                lhs = pi_operator(i, pi_operator(i + 1, pi_operator(i, f)))
                rhs = pi_operator(i + 1, pi_operator(i, pi_operator(i + 1, f)))
                assert lhs == rhs
            assert pi_operator(1, pi_operator(3, f)) == pi_operator(3, pi_operator(1, f))

    @pytest.mark.parametrize("bound", [inf, *range(7)])
    def test_matches_the_divided_difference_of_the_product(self, bound):
        # the one pass against its definition: the product by
        # 1 + beta*x_{i+1}, cut at f's bound, then the divided difference
        rng = random.Random(48 + (0 if bound == inf else bound))
        for _ in range(8):
            f = random_poly(rng, max_deg=5, terms=8).with_bound(bound)
            for i in (1, 2, 3):
                got = pi_operator(i, f)
                want = divided_difference(i, (ONE + BETA * xvar(i + 1)) * f)
                assert (got.terms, got.bound) == (want.terms, want.bound), (i, poly_str(f))


def ominus_series(a):
    """The series -a + beta a^2 - beta^2 a^3 + ... truncated at the bound of
    a.  Each power of a raises the least degree, so the sum ends when a is
    truncated and has no term of degree 0 (a constant or a power of beta)."""
    if a.bound == inf or any(not v for _, v in a.terms):
        raise ValueError("ominus needs a truncated series with no term of degree 0")
    acc = TruncPoly.zero(a.bound)
    power = a
    factor = TruncPoly.const(-1, a.bound)
    while power:
        acc = acc + factor * power
        power = power * a
        factor = factor * (-BETA)
    return acc


class TestOminus:
    def test_zero(self):
        assert ominus_series(TruncPoly.zero(3)) == TruncPoly.zero(3)

    def test_geometric_expansion(self):
        t = zvar(1)
        expect = -1 * t + BETA * t * t - BETA * BETA * t * t * t
        got = ominus_series(t.with_bound(3))
        assert (got.terms, got.bound) == (expect.with_bound(3).terms, 3)

    def test_involution(self):
        t = zvar(1).with_bound(4)
        assert ominus_series(ominus_series(t)) == t

    def test_refuses_an_untruncated_series(self):
        # its powers never leave the truncation, so the sum would not end
        with pytest.raises(ValueError):
            ominus_series(zvar(1))

    @pytest.mark.parametrize("head", [BETA, ONE, -2 * BETA ** 3])
    def test_refuses_a_term_of_degree_zero(self, head):
        with pytest.raises(ValueError):
            ominus_series((head + zvar(1)).with_bound(2))


class TestYRational:
    def test_add_zero(self):
        f = YRational(yvar(1), {1: 1})
        assert f + YRational.const(0) == f
        # an object that is not a number is unequal, and a negative
        # multiplicity is refused
        assert f.__eq__(object()) is NotImplemented and f != object()
        with pytest.raises(ValueError) as err:
            YRational(ONE, {1: -1})
        assert err.type is ValueError
        assert str(err.value) == "denominator multiplicities must be nonnegative"

    def test_unit_inverse(self):
        assert YRational(ONE, {1: 1}) * (ONE + BETA * yvar(1)) == YRational.const(1)

    def test_ominus_convention(self):
        # 1/(1 + beta*y_{-1}) = 1 + beta*y_1
        lhs = YRational.const(1) + BETA * ominus_y(1)
        assert lhs * (ONE + BETA * yvar(1)) == YRational.const(1)

    @pytest.mark.parametrize("c", [2, -2])
    def test_signed_unit_power_matches_product(self, c):
        # (1 + beta*y_c)^e, with y_{-2} read as the ominus of y_2
        unit = YRational(ONE + BETA * yvar(c)) if c > 0 else 1 + BETA * ominus_y(-c)
        for e in range(-2, 3):
            power = YRational.const(1)
            for _ in range(abs(e)):
                power = power * unit
            got = y_factor(c, e)
            assert (got if e >= 0 else got * power) == (power if e >= 0 else 1), e
            # a polynomial when c and e agree in sign, else an inverted unit
            if e and (c > 0) != (e > 0):
                assert (got.num, got.den) == (ONE, {2: abs(e)}), e
            else:
                assert not got.den, e

    def test_normalization(self):
        # the fraction keeps its factor; equality cross-multiplies
        f = YRational((ONE + BETA * yvar(2)) * yvar(1), {2: 1})
        assert f == YRational(yvar(1))
        assert f.den == {2: 1}

    def test_homogeneity_additive(self):
        f = YRational(yvar(1), {2: 1})
        g = YRational(BETA * yvar(1) * yvar(3), {1: 2})
        assert homogeneous_degree(f * g) == homogeneous_degree(f) + homogeneous_degree(g)


def ominus_y(i):
    """y_{-i} = -y_i / (1 + beta*y_i)."""
    return YRational(-yvar(i), {i: 1})


def reference_star_action(w, f):
    """The reference: substitute y_i -> y_{w(i)} term by term, each term a
    YRational, reading y_{-j} as -y_j/(1+beta*y_j), and add the terms one by
    one as fractions."""
    result = YRational.const(0)
    for (b, v), c in f.num.terms.items():
        term = YRational(TruncPoly({(b, ()): c}))
        for code in v:
            if code_family(code) != Y:
                term = term * TruncPoly({(0, (code,)): 1})
                continue
            target = w(code_index(code))
            term = term * (YRational(yvar(target)) if target > 0 else ominus_y(-target))
        result = result + term
    for i, e in sorted(f.den.items()):
        result = result * y_factor(w(i), -e)
    return result


def random_fraction(rng):
    """A fraction in x, y, z over units of y_1..y_3, built as a + 2b - b'
    with b' the fraction b over one more unit, so that terms cancel."""
    a, b = (
        YRational(
            random_poly(rng, nvars=3, max_deg=3, terms=3, var=yvar)
            * random_poly(rng, nvars=2, max_deg=1, terms=2, var=rng.choice([xvar, zvar])),
            {i: rng.randint(0, 1) for i in (1, 2, 3)},
        )
        for _ in range(2)
    )
    i = rng.randint(1, 3)
    wider = YRational(b.num * (ONE + BETA * yvar(i)), {**b.den, i: b.den.get(i, 0) + 1})
    return a + b + b - wider


class TestStarAction:
    @pytest.mark.parametrize(
        "t, rank, bound", [(t, rank, 4) for t in "BCD" for rank in (2, 3)] + [("A", 4, inf)]
    )
    def test_matches_reference_inside_monk(self, monkeypatch, t, rank, bound):
        # every (w, f) that apply_M hands to star_action: each answer is the
        # reference's fraction, with the same numerator and denominator
        import ktrans.rings as rings_mod

        seen = []

        def recording(w, f):
            got = star_action(w, f)
            seen.append((w, f, got))
            return got

        monkeypatch.setattr(rings_mod, "star_action", recording)
        for u in group_elements(t, rank):
            for k in range(1, rank + 1):
                apply_M(t, k, u, bound)
        assert seen
        for w, f, got in seen:
            want = reference_star_action(w, f)
            assert got == want, (str(w), yrational_str(f))
            assert (got.num.terms, got.den) == (want.num.terms, want.den), str(w)

    def test_matches_reference_on_random_fractions(self):
        # negated targets turn y_i into units, and the fractions cancel terms
        rng = random.Random(33)
        fractions = [random_fraction(rng) for _ in range(6)]
        fractions.append(YRational(yvar(1) - yvar(1)))
        for w in group_elements("B", 3):
            for f in fractions:
                got, want = star_action(w, f), reference_star_action(w, f)
                assert got == want, (str(w), yrational_str(f))
                assert (got.num.terms, got.den) == (want.num.terms, want.den), str(w)

    def test_identity(self):
        f = YRational(yvar(1), {2: 1})
        assert star_action(IDENTITY, f) == f

    def test_keeps_the_truncation(self):
        # an index permutation keeps degree, so the image is cut where f is,
        # and a term above the cut added to it is dropped, as it is from f
        f = YRational((yvar(1) + yvar(1) * yvar(2)).with_bound(1))
        for w in (parse_oneline("2,1"), parse_oneline("-2,1")):
            assert star_action(w, f).num.bound == 1, str(w)
        total = star_action(parse_oneline("2,1"), f) + YRational(yvar(2) * yvar(1))
        assert (total.num.terms, total.num.bound) == (yvar(2).terms, 1)
        assert (f + YRational(yvar(2) * yvar(1))).num.terms == yvar(1).terms
        zero = YRational(TruncPoly.zero(1))
        assert not (star_action(parse_oneline("2,1"), zero) + YRational(yvar(2) * yvar(1)))

    def test_sign_change(self):
        t0 = reflection(0, 1)
        assert star_action(t0, YRational(yvar(1))) == ominus_y(1)
        twice = star_action(t0, star_action(t0, YRational(yvar(1))))
        assert twice == YRational(yvar(1))

    def test_group_action_on_rank_two(self):
        probes = [
            YRational(yvar(1)),
            YRational(yvar(2)),
            YRational(yvar(1), {2: 1}),
        ]
        elems = group_elements("B", 2)
        for u in elems:
            for v in elems:
                for f in probes:
                    assert star_action(u * v, f) == star_action(u, star_action(v, f))


class TestSupersym:
    def test_constant(self):
        assert supersym_check(ONE.with_bound(4))

    def test_single_variable_fails(self):
        assert not supersym_check(zvar(1).with_bound(4))

    def test_fresh_variable_is_new_to_f(self):
        # with t = z3, f(t, ominus t, z3) would read t^2 - t*t = 0
        assert not supersym_check((zvar(1) * zvar(1) - zvar(1) * zvar(3)).with_bound(4))

    def test_gp_one_passes(self):
        # e_1 + beta e_2 + beta^2 e_3 in three variables
        e1 = zvar(1) + zvar(2) + zvar(3)
        e2 = zvar(1) * zvar(2) + zvar(1) * zvar(3) + zvar(2) * zvar(3)
        e3 = zvar(1) * zvar(2) * zvar(3)
        f = (e1 + BETA * e2 + BETA * BETA * e3).with_bound(4)
        assert supersym_check(f)

    def test_refuses_an_untruncated_series(self):
        with pytest.raises(ValueError):
            supersym_check(ONE)


def reference_supersym(f):
    """The supersymmetry check by its definition: substitute t and the series
    ominus t for z_1 and z_2, with t a z past z_2 and every z of f, and
    compare with f(0, 0, z_3, ...)."""
    last = max([2] + [code_index(c) for _, v in f.terms for c in v if code_family(c) == Z])
    t = zvar(last + 1, f.bound)
    z1, z2 = var_code(Z, 1), var_code(Z, 2)
    lhs = reference_substitute(f, {z1: t, z2: ominus_series(t)})
    return lhs == reference_substitute(f, {z1: TruncPoly.zero(), z2: TruncPoly.zero()})


def bumped(f, rng):
    """f with one coefficient raised by 1: that of a term in z_1 or z_2 of f,
    or of z_1 itself when f has none (of 1 at bound 0)."""
    z12 = (var_code(Z, 1), var_code(Z, 2))
    terms = [m for m in sorted(f.terms) if any(c in z12 for c in m[1])]
    m = rng.choice(terms) if terms else (0, z12[:1] if f.bound else ())
    return f + TruncPoly({m: 1}, f.bound)


class TestSupersymAgainstSubstitution:
    """supersym_check reads coefficients off a closed form; the substitution
    of t and the ominus series must give the same answer, true or false, on
    each input and on the input with one coefficient bumped."""

    @staticmethod
    def agree(cases):
        rng = random.Random(30)
        answers = []
        for f in cases:
            for g in (f, bumped(f, rng)):
                got = supersym_check(g)
                assert got == reference_supersym(g), poly_str(g)
                answers.append(got)
        return answers

    def test_k_stanley_functions_of_rank_three(self):
        cases = [fstanley(t, w, 3, 6) for t in "BCD" for w in group_elements(t, 3)]
        answers = self.agree(cases)
        # every F_w passes, and a bump of a term in z_1 or z_2 breaks it
        assert answers == [True, False] * len(cases)

    def test_gp_gq_up_to_size_six(self):
        from test_tableaux import strict_partitions

        cases = [fn(ShiftedSkewShape(lam), 3, 6) for lam in strict_partitions(6) for fn in (gp, gq)]
        assert self.agree(cases) == [True, False] * len(cases)

    @pytest.mark.parametrize("bound", range(7))
    def test_random_polynomials(self, bound):
        rng = random.Random(100 + bound)
        cases = [random_poly(rng, max_deg=6, var=zvar).with_bound(bound) for _ in range(12)]
        # supersymmetric ones too: GP_(2,1) in z_1..z_4 times a polynomial in z_3, z_4
        g = gp(ShiftedSkewShape((2, 1)), 4, bound)
        cases += [g * (random_poly(rng, nvars=2, terms=3, var=lambda i: zvar(i + 2)) + 1)
                  for _ in range(4)]
        self.agree(cases)


class TestCombination:
    def test_drops_zero_coefficients(self):
        c = {}
        _add_term(c, parse_oneline("2,1"), TruncPoly.zero())
        assert c == {}

    def test_add_and_cancel(self):
        w = parse_oneline("2,1")
        c = {w: ONE}
        _add_term(c, w, BETA)
        assert c == {w: ONE + BETA}
        _add_term(c, w, -1 * (ONE + BETA))
        assert c == {}

    @pytest.mark.parametrize("t", ["A", "D"])
    def test_operators_reject_an_element_outside_the_group(self, t):
        # type A has no sign changes, and type D needs an even number of
        # them; the evaluator below checks nothing, so the Monk identity
        # reaches apply_M's own check, also in type A with no length bound
        w = SignedPermutation([-1])
        with pytest.raises(ValueError):
            apply_R(t, 1, w)
        for bound in (inf, 3) if t == "A" else (3,):
            with pytest.raises(ValueError):
                apply_M(t, 1, w, bound)
            with pytest.raises(ValueError):
                monk_identity_holds(t, w, 1, lambda u: ONE.with_bound(bound))
        with pytest.raises(ValueError):
            transition(t, w)

    @pytest.mark.parametrize("k", [0, -1])
    @pytest.mark.parametrize("t", ["A", "B", "C", "D"])
    def test_operators_refuse_an_index_that_names_no_operator(self, t, k):
        # R_k and M_k exist for k >= 1 only; the refusal comes before any
        # chain is counted, also at a bound below l(u), which would keep
        # nothing
        w = parse_oneline("2,1")
        with pytest.raises(ValueError) as err:
            apply_R(t, k, w)
        assert err.type is ValueError and str(err.value) == f"R_k needs a positive index, got {k}"
        for bound in (inf, 3, 0) if t == "A" else (3, 0):
            with pytest.raises(ValueError) as err:
                apply_M(t, k, w, bound)
            assert err.type is ValueError and str(err.value) == f"M_k needs a positive index, got {k}"

    @pytest.mark.parametrize(
        "t, window, message",
        [
            ("A", "-2,1", "-2,1 is not in the group of type A"),
            ("D", "-1", "-1 is not in the group of type D"),
            ("E", "2,1", "unknown group type 'E'"),
        ],
    )
    def test_monk_operator_names_what_it_refuses(self, t, window, message):
        # the group is tested before the bound, with or without one
        for bound in (inf, 3):
            with pytest.raises(ValueError) as err:
                apply_M(t, 1, parse_oneline(window), bound)
            assert str(err.value) == message

    @pytest.mark.parametrize(
        "t, window, message",
        [
            ("A", "-2,1", "-2,1 is not in the group of type A"),
            ("D", "-1", "-1 is not in the group of type D"),
            ("D", "-3,1,2", "-3,1,2 is not in the group of type D"),
            ("D", "2,-1", "2,-1 is not in the group of type D"),
            ("E", "-2,1", "unknown group type 'E'"),
        ],
    )
    def test_membership_is_refused_before_the_descent_test(self, t, window, message):
        # ``length`` is the one membership test, and each caller asks it
        # before its descent or Grassmannian test: the Grassmannian D -1
        # gets the group message, not "has no descent", and D 2,-1 not "has
        # a descent"; transition_step, expand_grassmannian, fstanley and
        # kn_eval refuse a type outside B-D first, each naming itself
        w = parse_oneline(window)
        calls = [
            (transition_step, "transition needs type B, C, or D, not {t!r}"),
            (expand_grassmannian, "expansion needs type B, C, or D, not {t!r}"),
            (lambda t, w: fstanley(t, w, 2, 4), "fstanley needs type B, C, or D, not {t!r}"),
            (lambda t, w: kn_eval(t, w, 2, 4), "kn_eval needs type B, C, or D, not {t!r}"),
            (transition, None),
            (shape, None),
            (reduced_word, None),
        ]
        for call, own_type in calls:
            with pytest.raises(ValueError) as err:
                call(t, w)
            assert err.type is ValueError
            assert str(err.value) == (own_type.format(t=t) if own_type and t not in "BCD" else message)

    def test_combo_value_matches_the_term_by_term_sum(self):
        # coefficients over four denominators (the empty one included) and
        # a plain polynomial; the groups must sum to what the terms do
        G = lambda u: kn_eval("B", u, 2, 4)  # noqa: E731
        combo = {
            parse_oneline("-1"): YRational(yvar(1), {1: 1}),
            parse_oneline("2,1"): YRational(BETA, {2: 1}),
            parse_oneline("-2,1"): YRational(ONE + xvar(1), {1: 1, 2: 2}),
            parse_oneline("1,-2"): YRational(-yvar(2) * BETA, {1: 1}),
            parse_oneline("-1,-2"): YRational(BETA * BETA),
            parse_oneline("2,-1"): BETA * xvar(2),
        }
        assert len({tuple(sorted(_lift(c).den.items())) for c in combo.values()}) >= 3
        want = YRational.const(0)
        for u, c in combo.items():
            want = want + c * G(u)
        got = combo_sum(combo, G)
        assert (got.num.terms, got.num.bound, got.den) == (
            want.num.terms, want.num.bound, want.den)


def running_sum(groups):
    """The reference sum of num / den over groups, a dict from sorted
    denominator items to numerators: a running pairwise sum of YRationals,
    which re-scales the growing total at every group."""
    total = YRational.const(0)
    for den, num in groups.items():
        term = YRational(num, dict(den))
        # a zero total has the empty denominator, so the sum would be term
        total = total + term if total else term
    return total


def combo_sum(combo, G):
    """The sum of coeff_u * G(u) over the combination, as the Monk and
    transition checks build theirs: one _sum_by_den over _combo_parts."""
    return _sum_by_den(*_combo_parts(combo, G))


def reference_combo_sum(combo, G):
    """The reference sum of coeff_u * G(u): each coefficient times G(u) as a
    product, the products added per denominator, then the running sum."""
    groups = {}
    for u, c in combo.items():
        c = _lift(c)
        den = tuple(sorted(c.den.items()))
        num = c.num * G(u)
        groups[den] = groups[den] + num if den in groups else num
    return running_sum(groups)


def same_fraction(got, want):
    """The same value, and the same numerator terms, bound and denominator."""
    return got == want and (got.num.terms, got.num.bound, got.den) == (
        want.num.terms, want.num.bound, want.den)


def monk_combinations(t, rank, bound):
    """Every combination apply_M builds on W_rank (k <= 3), factor by factor."""
    import ktrans.rings as rings_mod

    seen = []
    factor = rings_mod._factor

    def recording(*args, **kwargs):
        seen.append(factor(*args, **kwargs))
        return seen[-1]

    rings_mod._factor = recording
    try:
        for u in group_elements(t, rank):
            for k in range(1, min(rank, 3) + 1):
                seen.append(apply_M(t, k, u, bound))
    finally:
        rings_mod._factor = factor
    return seen


class TestOneDenominator:
    """combo_sum and star_action sum over the least common denominator to
    what the running pairwise sum gives, in value and in representation."""

    @pytest.mark.parametrize("t, rank, bound", [(t, 3, 4) for t in "BCD"] + [("A", 4, inf)])
    def test_combo_value_on_every_monk_combination(self, t, rank, bound):
        G = groth_poly if t == "A" else (lambda u: kn_eval(t, u, 2, bound))  # noqa: E731
        combos = monk_combinations(t, rank, bound)
        assert any(len({tuple(sorted(c.den.items())) for c in combo.values()}) > 2
                   for combo in combos)
        for combo in combos:
            assert same_fraction(combo_sum(combo, G), reference_combo_sum(combo, G))

    @pytest.mark.parametrize("t", "ABCD")
    def test_combo_value_on_every_transition_certificate(self, t):
        G = groth_poly if t == "A" else (lambda u: kn_eval(t, u, 2, 4))  # noqa: E731
        for w in group_elements(t, 4 if t == "A" else 3):
            if w.least_descent():
                combo = transition(t, w)[3]
                assert same_fraction(combo_sum(combo, G), reference_combo_sum(combo, G)), str(w)

    @pytest.mark.parametrize("t", "BCD")
    def test_monk_check_is_the_fraction_comparison(self, t):
        # the check sums both sides over one denominator; it must answer as
        # comparing the two fractions does, also where a bumped G breaks it
        G = lambda u: kn_eval(t, u, 2, 4)  # noqa: E731
        bump = TruncPoly({(1, (var_code(X, 1), var_code(Y, 2))): 1}, 4)
        answers = []
        for v in group_elements(t, 2):
            bumped = lambda u, v=v: G(u) + bump if u == v else G(u)  # noqa: E731
            for u in group_elements(t, 2):
                for k in (1, 2, 3):
                    for g in (G, bumped):
                        gu = g(u)
                        want = YRational((ONE + BETA * xvar(k)) * gu) == combo_sum(
                            apply_M(t, k, u, gu.bound), g)
                        assert monk_identity_holds(t, u, k, g) == want, (str(v), str(u), k)
                        answers.append(want)
        assert True in answers and False in answers

    def test_empty_combination_is_zero(self):
        got = combo_sum({}, lambda u: ONE)
        assert same_fraction(got, reference_combo_sum({}, lambda u: ONE))

    def test_star_action_against_the_grouped_running_sum(self):
        # the grouped substitution summed pairwise, then times f's units
        rng = random.Random(38)
        fractions = [random_fraction(rng) for _ in range(6)]
        for w in group_elements("C", 3):
            for f in fractions:
                groups = {}
                for (b, v), c in f.num.terms.items():
                    term = reference_star_action(w, YRational(TruncPoly({(b, v): c}, f.num.bound)))
                    den = tuple(sorted(term.den.items()))
                    groups[den] = groups[den] + term.num if den in groups else term.num
                want = running_sum(groups)
                for i, e in sorted(f.den.items()):
                    want = want * y_factor(w(i), -e)
                assert same_fraction(star_action(w, f), want), (str(w), yrational_str(f))


def reference_transition_residual(w, certificate, G):
    """The transition residual as a chain of ring operations: the bracket
    (1+beta*y_c)(1+beta*x_a) * sum_u coeff_u G(u) - G(v), divided by beta,
    minus G(w)."""
    v, a, c, combo = certificate
    bracket = y_factor(c) * (ONE + BETA * xvar(a)) * combo_sum(combo, G) - G(v)
    return bracket.divide_beta() - G(w)


def same_residual(w, certificate, G):
    """Both residuals, checked to have the same numerator terms, bound and
    denominator, and the same rendering; the new one is returned."""
    got = transition_residual(w, certificate, G)
    want = reference_transition_residual(w, certificate, G)
    assert same_fraction(got, want) and yrational_str(got) == yrational_str(want), str(w)
    return got


class TestTransitionResidual:
    """transition_residual, one sum over one denominator, against the chain
    of ring operations it replaces, in value and in representation."""

    def test_type_a_on_s4(self):
        for w in group_elements("A", 4):
            if w.least_descent():
                assert not same_residual(w, transition("A", w), groth_poly)

    @pytest.mark.parametrize("t", "BCD")
    def test_on_w3_at_n2_d4(self, t):
        G = lambda u: kn_eval(t, u, 2, 4)  # noqa: E731
        for w in group_elements(t, 3):
            if w.least_descent():
                assert not same_residual(w, transition(t, w), G)

    @pytest.mark.parametrize("t", "ABCD")
    def test_a_bumped_coefficient(self, t):
        # a beta-divisible bump breaks the identity: both residuals are
        # the same nonzero fraction, rendered alike
        G = groth_poly if t == "A" else (lambda u: kn_eval(t, u, 2, 4))  # noqa: E731
        bump = YRational(BETA * xvar(1) + BETA * BETA * yvar(2), {1: 1})
        seen = 0
        for w in group_elements(t, 3):
            if not w.least_descent():
                continue
            v, a, c, combo = transition(t, w)
            for u in combo:
                bumped = dict(combo)
                bumped[u] = _lift(bumped[u]) + bump
                seen += bool(same_residual(w, (v, a, c, bumped), G))
        assert seen

    @pytest.mark.parametrize("t", "ABCD")
    def test_a_beta_free_bump_raises_in_both(self, t):
        # bumping coeff_u by 1 adds G(u)'s beta-free part to the bracket,
        # which G(u) has when it is not cut away at the bound
        G = groth_poly if t == "A" else (lambda u: kn_eval(t, u, 2, 4))  # noqa: E731
        seen = 0
        for w in group_elements(t, 3):
            if not w.least_descent():
                continue
            v, a, c, combo = transition(t, w)
            for u in combo:
                if not any(b == 0 for b, _ in G(u).terms):
                    continue
                bumped = {**combo, u: _lift(combo[u]) + 1}
                for residual in (transition_residual, reference_transition_residual):
                    with pytest.raises(ArithmeticError):
                        residual(w, (v, a, c, bumped), G)
                seen += 1
        assert seen


class TestUnitPower:
    @pytest.mark.parametrize("e", range(1, 7))
    def test_matches_repeated_multiplication(self, e):
        unit = ONE + BETA * yvar(2)
        power = ONE
        for _ in range(e):
            power = power * unit
        assert _unit_power(((2, e),)).terms == power.terms
        for f in (1, 3, 6):
            other = ONE
            for _ in range(f):
                other = other * (ONE + BETA * yvar(5))
            assert _unit_power(((2, e), (5, f))).terms == (power * other).terms
            assert _unit_product({5: f, 2: e, 7: 0}) is _unit_power(((2, e), (5, f)))

    def test_every_code_tuple_is_sorted(self):
        for (b, v), c in _unit_power(((1, 3), (4, 2), (9, 4))).terms.items():
            assert v == tuple(sorted(v)) and b == len(v) and c > 0

    def test_empty_product_is_one(self):
        assert _unit_power(()).terms == ONE.terms

    def test_cleared_with_the_package_memos(self):
        from test_expand import _clear_memos

        _unit_product({1: 2})
        assert _unit_power.cache_info().currsize > 0
        _clear_memos()
        assert _unit_power.cache_info().currsize == 0


class TestProductKernel:
    def test_adds_into_the_table_it_is_given(self):
        # cancellation leaves a zero coefficient, which the caller drops
        into = {(0, (var_code(X, 1),)): 5, (1, ()): -1}
        _mul_into(into, ONE.terms, (xvar(1) + BETA).terms, inf)
        assert into == {(0, (var_code(X, 1),)): 6, (1, ()): 0}

    def test_cut_at_the_bound(self):
        rng = random.Random(38)
        for bound in (inf, 0, 2, 5):
            a, b = random_poly(rng).with_bound(bound), random_poly(rng)
            into = {}
            _mul_into(into, a.terms, b.terms, bound)
            want = reference_product(a, b)
            assert {m: c for m, c in into.items() if c} == want.terms

    @staticmethod
    def kernel_cases():
        """Pairs of term tables: x-only against z-only, whose codes are in
        order and join; interleaved codes, which sort; and empty sides."""
        rng = random.Random(45)
        xs = [random_poly(rng, terms=5) for _ in range(2)]
        zs = [random_poly(rng, terms=5, var=zvar) for _ in range(2)]
        mixed = [random_poly(rng, terms=5, var=rng.choice((xvar, yvar, zvar)))
                 + random_poly(rng, terms=4, var=yvar) for _ in range(2)]
        empty = [TruncPoly.zero(), BETA ** 2 - 3, TruncPoly.const(4)]
        return ([(x, z) for x in xs for z in zs]
                + [(a, b) for a in mixed for b in mixed + xs]
                + [(a, b) for a in empty for b in xs + zs + mixed]
                + [(b, a) for a in empty for b in xs + zs + mixed])

    @pytest.mark.parametrize("shift", [0, 3])
    @pytest.mark.parametrize("bound", [inf, 0, 3])
    def test_matches_the_double_loop_shifted(self, shift, bound):
        joined = interleaved = 0
        for a, b in self.kernel_cases():
            into = {}
            _mul_into(into, a.terms, b.terms, bound, shift)
            shifted = TruncPoly({(e + shift, v): c for (e, v), c in b.terms.items()})
            want = reference_product(a.with_bound(bound), shifted)
            assert {m: c for m, c in into.items() if c} == want.terms
            for _, v1 in a.terms:
                for _, v2 in b.terms:
                    if v1 and v2:
                        if v1[-1] <= v2[0]:
                            joined += 1
                        else:
                            interleaved += 1
        assert joined and interleaved

    def test_ordered_codes_join_without_a_sort(self, monkeypatch):
        # x-only times z-only and a side with no variables never sort
        import builtins

        import ktrans.rings as rings_mod

        calls = []
        monkeypatch.setattr(rings_mod, "sorted",
                            lambda v: calls.append(v) or builtins.sorted(v), raising=False)
        into = {}
        x, z = xvar(1) * xvar(2) + BETA * xvar(3), zvar(1) + zvar(2) * zvar(2)
        _mul_into(into, x.terms, z.terms, inf, 1)
        _mul_into(into, (BETA - 1).terms, z.terms, inf)
        _mul_into(into, z.terms, ONE.terms, inf)
        assert not calls
        _mul_into({}, z.terms, x.terms, inf)
        assert calls


def reference_sort_key(mono):
    """The canonical order by its definition: beta exponent, then for x, y,
    z in turn the degree in the family and its (index, exponent) pairs."""
    b, v = mono
    powers = [(code, v.count(code)) for code in sorted(set(v))]
    blocks = []
    for fam in (X, Y, Z):
        pairs = tuple((code_index(c), e) for c, e in powers if code_family(c) == fam)
        blocks.append((sum(e for _, e in pairs), pairs))
    return (b, *blocks)


class TestSortKey:
    def test_orders_as_the_definition(self):
        rng = random.Random(38)
        monos = {
            (rng.randint(0, 2),
             tuple(sorted(var_code(rng.randrange(3), rng.randint(1, 3))
                          for _ in range(rng.randint(0, 5)))))
            for _ in range(4000)
        }
        monos = sorted(monos)
        rng.shuffle(monos)
        assert sorted(monos, key=_mono_sort_key) == sorted(monos, key=reference_sort_key)
