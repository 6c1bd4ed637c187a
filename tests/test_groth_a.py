"""Type A Grothendieck polynomials, the Monk rule, and transitions."""

import pytest

from ktrans import groth_a
from ktrans.groth_a import groth_poly, groth_single
from ktrans.rings import (
    BETA,
    ONE,
    X,
    Y,
    TruncPoly,
    YRational,
    apply_M,
    apply_R,
    code_index,
    monk_identity_holds,
    pi_operator,
    transition,
    transition_residual,
    var_code,
    xvar,
    yrational_str,
    yvar,
)
from ktrans.weyl import (
    IDENTITY,
    _transition_window,
    group_elements,
    length,
    parse_oneline,
    reflection,
)
from test_rings import combo_sum, homogeneous_degree, mono_degree, reference_substitute


def x_to_y(p):
    """p with each x_i renamed y_i, code by code; p has no y or z variables."""
    terms = {(b, tuple(var_code(Y, code_index(c)) for c in v)): n for (b, v), n in p.terms.items()}
    return TruncPoly(terms, p.bound)


def oplus(a, b):
    return a + b + BETA * a * b


def staircase(n, double):
    """The polynomial of the longest element of S_n: the product of
    x_i + y_j + beta*x_i*y_j over i + j <= n, or x^delta if not double."""
    result = ONE
    for i in range(1, n):
        for j in range(1, n - i + 1):
            result = result * (oplus(xvar(i), yvar(j)) if double else xvar(i))
    return result


def isobaric_descent(w, double, memo):
    """The Grothendieck polynomial of w by the isobaric divided differences:
    from the staircase of S_n, n = support(w), one pi_i at the first ascent
    i of each element on the way down to w."""
    if w not in memo:
        n = w.support
        if w == tuple(range(n, 0, -1)):
            memo[w] = staircase(n, double)
        else:
            i = next(i for i in range(1, n) if w(i) < w(i + 1))
            memo[w] = pi_operator(i, isobaric_descent(w * reflection(i, i + 1), double, memo))
    return memo[w]


class TestGrothPoly:
    def test_identity(self):
        assert groth_poly(IDENTITY) == ONE

    def test_staircase_product(self):
        expect = oplus(xvar(1), yvar(1)) * oplus(xvar(1), yvar(2)) * oplus(xvar(2), yvar(1))
        assert groth_poly(parse_oneline("3,2,1")) == expect

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_simple_reflection_product_formula(self, k):
        lhs = ONE + BETA * groth_poly(reflection(k, k + 1))
        rhs = ONE
        for i in range(1, k + 1):
            rhs = rhs * (ONE + BETA * xvar(i)) * (ONE + BETA * yvar(i))
        assert lhs == rhs

    def test_rejects_signed(self):
        # worded as every other operator on a non-member words it
        with pytest.raises(ValueError) as err:
            groth_poly(parse_oneline("-1"))
        assert str(err.value) == "-1 is not in the group of type A"

    def test_cap_is_on_terms_held(self, monkeypatch):
        # s_3's last layer holds its 4^3 - 1 = 63 terms and nothing else: a
        # state that cannot finish is dropped, so 63 answers and 62 refuses
        w = parse_oneline("1,2,4,3")
        monkeypatch.setattr(groth_a, "_memo", {})
        monkeypatch.setattr(groth_a, "MAX_TERMS", 63)
        assert len(groth_poly(w).terms) == 63
        groth_a._memo.clear()
        monkeypatch.setattr(groth_a, "MAX_TERMS", 62)
        with pytest.raises(ValueError, match="^1,2,4,3: .* more than 62 terms$"):
            groth_poly(w)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_isobaric_descent(self, n):
        # the pipe-dream pass against the divided differences, in each family
        double, single = {}, {}
        for w in group_elements("A", n):
            at_y_zero = isobaric_descent(w, False, single)
            assert groth_poly(w) == isobaric_descent(w, True, double), str(w)
            assert groth_single(w, "x") == at_y_zero, str(w)
            assert groth_single(w, "y") == x_to_y(at_y_zero), str(w)

    def test_path_independence(self):
        # recompute every S_4 polynomial along the opposite descent strategy
        def groth_last_ascent(w, n):
            if w == tuple(range(n, 0, -1)):
                return staircase(n, True)
            i = max(i for i in range(1, n) if w(i) < w(i + 1))
            return pi_operator(i, groth_last_ascent(w * reflection(i, i + 1), n))

        for w in group_elements("A", 4):
            if w.is_identity():
                continue
            assert groth_last_ascent(w, 4) == groth_poly(w), str(w)

    def test_homogeneous_with_nonnegative_coefficients(self):
        for w in group_elements("A", 4):
            g = groth_poly(w)
            assert homogeneous_degree(g) == length("A", w)
            assert all(c > 0 for c in g.terms.values())

    def test_stability_under_inclusion(self):
        # embedding S_3 in S_4 adds a fixed point and does not change the poly
        w = parse_oneline("1,3,2")
        via_s4 = pi_operator(3, groth_poly(parse_oneline("1,3,4,2")))
        assert via_s4 == groth_poly(w)

    def test_beta_zero_degree(self):
        for w in group_elements("A", 4):
            g0 = [m for m in groth_poly(w).terms if m[0] == 0]
            lw = length("A", w)
            assert all(mono_degree(m) == lw for m in g0)

    def test_single_polynomials(self):
        s1 = parse_oneline("2,1")
        assert groth_single(s1, "x") == xvar(1)
        assert groth_single(s1, "y") == yvar(1)


class TestGrothSingle:
    def test_equals_double_polynomial_at_y_zero_on_s4(self):
        # the single pass against the double pass with y set to 0
        for w in group_elements("A", 4):
            at_y_zero = groth_poly(w).set_zero([Y])
            assert groth_single(w, "x") == at_y_zero, str(w)
            assert groth_single(w, "y") == x_to_y(at_y_zero), str(w)

    def test_y_copy_renames_every_x_on_s5(self):
        # against the substitution of y_i for each x_i, one product per term
        for w in group_elements("A", 5):
            got = groth_single(w, "y")
            want = reference_substitute(
                groth_single(w, "x"), {var_code(X, i): yvar(i) for i in range(1, 6)}
            )
            assert (got.terms, got.bound) == (want.terms, want.bound), str(w)

    def test_rejects_signed_element_and_unknown_family(self):
        for family in ("x", "y"):
            with pytest.raises(ValueError) as err:
                groth_single(parse_oneline("-1"), family)
            assert str(err.value) == "-1 is not in the group of type A"
        with pytest.raises(ValueError):
            groth_single(parse_oneline("2,1"), "z")

    def test_cleared_caches_recompute_cold(self, monkeypatch):
        # bench/worker.reset clears every module-level cache_clear and
        # groth_a._memo; a memo it cannot see would make the second call free
        calls = []
        cross = groth_a._cross

        def counting_cross(terms, factor, extra):
            calls.append(extra)
            return cross(terms, factor, extra)

        def clear():
            for obj in vars(groth_a).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
            groth_a._memo.clear()

        monkeypatch.setattr(groth_a, "_cross", counting_cross)
        w = parse_oneline("2,4,1,3")
        counts = []
        for _ in range(2):
            clear()
            calls.clear()
            groth_single(w, "x")
            counts.append(len(calls))
        assert counts[0] > 0 and counts[0] == counts[1]


class TestOperators:
    def test_v_scaling_on_identity(self):
        out = apply_M("A", 2, IDENTITY)
        # the identity term keeps the bare unit scaling
        assert out[IDENTITY] == YRational(ONE, {2: 1})

    def test_operator_coefficients_homogeneous(self):
        for u in group_elements("A", 3):
            for k in (1, 2):
                for w, c in apply_M("A", k, u).items():
                    assert homogeneous_degree(c) is not None, (str(u), k, str(w))

    def test_monk_golden_example(self):
        # the six-term expansion of (1 + beta x_3) acting on the unit
        out = apply_M("A", 3, IDENTITY)
        got = {
            w: yrational_str(c)
            for w, c in out.items()
        }
        assert got == {
            (): "1/(1+b*y3)",
            (1, 2, 4, 3): "b/(1+b*y3)",
            (1, 3, 2): "-b/(1+b*y2)",
            (1, 3, 4, 2): "-b^2/(1+b*y2)",
            (2, 3, 1): "b^2/(1+b*y1)",
            (2, 3, 4, 1): "b^3/(1+b*y1)",
        }

    def test_monk_golden_example_larger_support(self):
        out = apply_M("A", 3, parse_oneline("1,3,4,5,2"))
        got = {w: yrational_str(c) for w, c in out.items()}
        assert got == {
            (1, 3, 4, 5, 2): "1/(1+b*y4)",
            (1, 3, 5, 4, 2): "b/(1+b*y4)",
            (1, 4, 3, 5, 2): "-b/(1+b*y3)",
            (1, 4, 5, 3, 2): "-b^2/(1+b*y3)",
            (3, 4, 1, 5, 2): "b^2/(1+b*y1)",
            (3, 4, 2, 5, 1): "b^3/(1+b*y1)",
            (3, 4, 5, 1, 2): "b^3/(1+b*y1)",
            (3, 4, 5, 2, 1): "b^4/(1+b*y1)",
        }

    def test_r_one_is_identity_operator(self):
        w = parse_oneline("2,1")
        assert apply_R("A", 1, w) == {w: YRational.const(1)}

    def test_r_two_fixes_s1(self):
        # no length-raising (1,2)-move exists past 21
        w = parse_oneline("2,1")
        assert apply_R("A", 2, w) == {w: YRational.const(1)}

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_monk_identity_on_s3(self, k):
        for u in group_elements("A", 3):
            assert monk_identity_holds("A", u, k, groth_poly), (str(u), k)

    def test_x_factor_absorbs_r_operator(self):
        # (1 + beta x_k) R_k F equals the raising tail of M_k applied to F
        from ktrans.rings import _factor

        k = 2
        for w in group_elements("A", 3):
            lhs = YRational(ONE + BETA * xvar(k)) * combo_sum(
                apply_R("A", k, w), groth_poly
            )
            out, lengths = {w: YRational(ONE, {w(k): 1})}, {w: length("A", w)}
            for l in range(max(k, w.support) + 1, k, -1):
                out = _factor("A", out, lengths, k, l, lambda u, v, c: c * BETA)
            assert lhs == combo_sum(out, groth_poly), str(w)


class TestTransition:
    def test_data_for_s1(self):
        w = parse_oneline("2,1")
        v, a, c, _ = transition("A", w)
        assert (v, a, _transition_window(w, a)[1], c) == (IDENTITY, 1, 2, 1)

    def test_data_for_132(self):
        w = parse_oneline("1,3,2")
        v, a, c, _ = transition("A", w)
        assert (v, a, _transition_window(w, a)[1], c) == (IDENTITY, 2, 3, 2)

    def test_s1_identity_reduces_to_product(self):
        # G_21 = ((1+b y_1)(1+b x_1) - 1) / b
        bracket = (ONE + BETA * yvar(1)) * (ONE + BETA * xvar(1)) - ONE
        assert bracket.divide_beta() == groth_poly(parse_oneline("2,1"))

    def test_identity_input_rejected(self):
        with pytest.raises(ValueError):
            transition("A", IDENTITY)

    def test_exactness_and_identity_on_s4(self):
        for w in group_elements("A", 4):
            if not w.is_grassmannian():
                assert not transition_residual(w, transition("A", w), groth_poly), str(w)
