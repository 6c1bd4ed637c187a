"""Classical-type double Grothendieck series and their operator calculus."""

import pytest

from ktrans.groth_a import groth_single
from ktrans.hecke import fstanley
from ktrans.kn import kn_eval
from ktrans.rings import (
    BETA,
    MAX_INDEX,
    ONE,
    TruncPoly,
    X,
    Y,
    YRational,
    _factor,
    apply_M,
    apply_R,
    monk_identity_holds,
    star_action,
    transition,
    transition_residual,
    xvar,
    y_factor,
    yvar,
    yrational_str,
)
from ktrans.tableaux import ShiftedSkewShape, gp, gq
from ktrans.weyl import (
    IDENTITY,
    SignedPermutation,
    _chains,
    _transition_window,
    elements_up_to_length,
    group_elements,
    length,
    parse_oneline,
)
from test_expand import _clear_memos
from test_rings import combo_sum, homogeneous_degree
from test_weyl import demazure_mul


def forward_triple_sum(t, w, num_vars, bound):
    """The triple sum by its definition: beta^(l(s)+l(u)+l(tau)-l(w))
    G_s(y) F_u G_tau(x) over s, tau in S_n and u in W_n, n the window of w,
    with l(s) + l(u) + l(tau) <= bound and s^-1 o u o tau = w as forward
    Demazure products."""
    lw = length(t, w)
    n = max(w.support, 1)
    perms = [(s, length("A", s)) for s in elements_up_to_length("A", n, bound)]
    total = TruncPoly.zero(bound)
    for s, ls in perms:
        for u in elements_up_to_length(t, n, bound):
            lu = length(t, u)
            p = demazure_mul(t, s.inverse(), u)
            for tau, lt in perms:
                if ls + lu + lt <= bound and demazure_mul(t, p, tau) == w:
                    total = total + (
                        TruncPoly.beta(ls + lu + lt - lw).with_bound(bound)
                        * groth_single(s, "y")
                        * fstanley(t, u, num_vars, bound)
                        * groth_single(tau, "x")
                    )
    return total


def kn_at(t, num_vars, bound):
    return lambda u: kn_eval(t, u, num_vars, bound)


def times_beta(u, v, c):
    return c * BETA


def twisted(u, v, c):
    return star_action(v * u.inverse(), c) * BETA * (-1)


class TestKnEval:
    def test_identity(self):
        assert kn_eval("B", IDENTITY, 2, 4) == TruncPoly.const(1, 4)

    def test_num_vars_past_the_code_layout_is_refused(self):
        # fstanley refuses the N, and kn_eval passes its error on
        w = parse_oneline("-2,1")
        with pytest.raises(ValueError) as err:
            kn_eval("B", w, MAX_INDEX + 2, 4)
        assert err.type is ValueError
        assert str(err.value) == f"variable index must be at most {MAX_INDEX}, got {MAX_INDEX + 2}"
        assert kn_eval("B", IDENTITY, 0, 4) == TruncPoly.const(1, 4)

    def test_rank_two_sign_change_type_b(self):
        got = kn_eval("B", parse_oneline("-2,1"), 2, 4)
        y1 = yvar(1).with_bound(4)
        want = (
            y1 * gp(ShiftedSkewShape((1,)), 2, 4)
            + (ONE + BETA * yvar(1)).with_bound(4) * gp(ShiftedSkewShape((2,)), 2, 4)
        ).with_bound(4)
        assert got == want

    def test_rank_two_sign_change_type_c(self):
        got = kn_eval("C", parse_oneline("-2,1"), 2, 4)
        y1 = yvar(1).with_bound(4)
        want = (
            y1 * gq(ShiftedSkewShape((1,)), 2, 4)
            + (ONE + BETA * yvar(1)).with_bound(4) * gq(ShiftedSkewShape((2,)), 2, 4)
        ).with_bound(4)
        assert got == want

    @pytest.mark.parametrize("t", ["B", "C", "D"])
    def test_specializes_to_stanley(self, t):
        for w in group_elements(t, 2):
            assert kn_eval(t, w, 2, 4).set_zero([X, Y]) == fstanley(t, w, 2, 4)

    @pytest.mark.parametrize("t", ["B", "C", "D"])
    def test_homogeneous(self, t):
        for w in group_elements(t, 2):
            assert homogeneous_degree(kn_eval(t, w, 2, 4)) == length(t, w)

    @pytest.mark.parametrize("t", ["B", "C", "D"])
    @pytest.mark.parametrize(
        "rank, num_vars, bound", [(3, 2, 4), (3, 1, 3), (3, 2, 0), (3, 2, -1), (4, 2, 4)]
    )
    def test_walk_matches_forward_triple_sum(self, t, rank, num_vars, bound):
        # kn_eval undoes Demazure steps from w; the reference multiplies
        # every candidate triple forward and keeps the ones that land on w
        for w in group_elements(t, rank):
            got = kn_eval(t, w, num_vars, bound)
            want = forward_triple_sum(t, w, num_vars, bound)
            assert (got.terms, got.bound) == (want.terms, want.bound), (t, str(w))

    def test_half_sum_memo_keyed_by_truncation(self):
        # one process, three truncations in turn: a K_p memo keyed without
        # N or D would serve the first truncation's half-sums to the others
        _clear_memos()
        for num_vars, bound in ((2, 4), (3, 4), (2, 5)):
            for t in ("B", "C", "D"):
                for w in group_elements(t, 3):
                    got = kn_eval(t, w, num_vars, bound)
                    want = forward_triple_sum(t, w, num_vars, bound)
                    assert (got.terms, got.bound) == (want.terms, want.bound), (
                        t, str(w), num_vars, bound
                    )

    @pytest.mark.parametrize("t", ["B", "C", "D"])
    def test_support_cap_is_safe(self, t):
        # the triple enumeration restricts factors to the window of w; a
        # brute-force pass with the window widened by the degree bound must
        # find nothing extra
        from ktrans.groth_a import groth_single
        from ktrans.weyl import elements_up_to_length

        bound = 3
        for w in group_elements(t, 2):
            lw = length(t, w)
            if lw > bound:
                continue
            wide = w.support + bound
            sig = elements_up_to_length("A", wide, bound)
            total = TruncPoly.zero(bound)
            for s in sig:
                ls = length("A", s)
                si = s.inverse()
                for u in elements_up_to_length(t, wide, bound):
                    lu = length(t, u)
                    if ls + lu > bound:
                        continue
                    p = demazure_mul(t, si, u)
                    for tau in sig:
                        if ls + lu + length("A", tau) > bound:
                            continue
                        if demazure_mul(t, p, tau) != w:
                            continue
                        total = total + (
                            TruncPoly.beta(ls + lu + length("A", tau) - lw).with_bound(bound)
                            * groth_single(s, "y").with_bound(bound)
                            * fstanley(t, u, 2, bound)
                            * groth_single(tau, "x").with_bound(bound)
                        )
            assert total == kn_eval(t, w, 2, bound), (t, str(w))


class TestROperator:
    def test_unitriangular(self):
        # the input term always passes through with coefficient one; moves
        # that fail the length condition contribute nothing
        for t in ("B", "C", "D"):
            for w in group_elements(t, 2):
                for k in (1, 2):
                    out = apply_R(t, k, w)
                    assert out[w] == YRational.const(1)
                    for u in out:
                        assert u == w or length(t, u) > length(t, w)

    @pytest.mark.parametrize("t", ["B", "C", "D"])
    def test_one_term_per_chain(self, t):
        # the chains of one call share their padded length, so each chain
        # end trims to its own element and no coefficient is written twice
        for w in group_elements(t, 4):
            for k in range(1, 6):
                chains = _chains(t, k, w)
                out = apply_R(t, k, w)
                assert len(out) == len(chains), (t, str(w), k)
                assert set(out) == {SignedPermutation(u) for u in chains}, (t, str(w), k)

    def test_b_sign_term_from_identity(self):
        out = apply_R("B", 1, IDENTITY)
        got = {w: yrational_str(c) for w, c in out.items()}
        # the n-factor and the in-product sign move together contribute
        # b*(2 + b*y1)/(1 + b*y1) on the sign change
        assert got == {
            (): "1",
            (-1,): "2*b/(1+b*y1) + b^2*y1/(1+b*y1)",
            (-2, 1): "b^2/(1+b*y1)",
        }

    def test_golden_five_term_example(self):
        v = parse_oneline("-3,4,-1,2,5")
        out = apply_R("C", 4, v)
        got = {w: yrational_str(c) for w, c in out.items()}
        assert got == {
            (-3, 4, -1, 2): "1",
            (-3, 4, 2, -1): "b",
            (-3, 4, -2, 1): "b",
            (-3, 4, -2, -1): "b^2",
            (-3, 4, 1, -2): "b^2",
            (-3, 4, -1, -2): "b^3",
        }


class TestMOperator:
    def test_v_scaling(self):
        out = apply_M("C", 1, IDENTITY, 0)
        assert out[IDENTITY] == YRational(ONE, {1: 1})

    @pytest.mark.parametrize("t", ["B", "C", "D"])
    def test_needs_a_bound(self, t):
        # the u-moves of types B, C, D grow the support without end
        with pytest.raises(ValueError):
            apply_M(t, 1, IDENTITY)

    def test_type_b_golden_terms(self):
        # the expansion of (1 + beta x_1) acting on the unit in type B,
        # with the alternating infinite tail cut at length 4
        out = apply_M("B", 1, IDENTITY, 4)
        got = {u: yrational_str(c) for u, c in out.items()}
        assert got == {
            (): "1/(1+b*y1)",
            (2, 1): "b/(1+b*y1)",
            (-1,): "-2*b - b^2*y1",
            (2, -1): "-2*b^2 - b^3*y1",
            (-2, 1): "b^2 + b^3*y2",
            (1, -2): "b^3 + b^4*y2",
            (-3, 1, 2): "-b^3 - b^4*y3",
            (1, -3, 2): "-b^4 - b^5*y3",
            (-4, 1, 2, 3): "b^4 + b^5*y4",
        }

    def test_support_six_golden_terms(self):
        # a length-17 element: the expansion carries sign-twisted units, the
        # type-B-only correction pair, and the first alternating tail term
        w = parse_oneline("-6,-1,3,-4,-2,5")
        out = apply_M("B", 3, w, 20)
        got = {u: yrational_str(c) for u, c in out.items()}
        assert got == {
            (-6, -1, 3, -4, -2, 5): "1/(1+b*y3)",
            (-6, -1, 5, -4, -2, 3): "b/(1+b*y3)",
            (-6, -1, 2, -4, -3, 5): "-b/(1+b*y2)",
            (-6, -1, 5, -4, -3, 2): "-b^2/(1+b*y2)",
            (-6, -3, 1, -4, -2, 5): "-b/(1+b*y1)",
            (-6, -3, 5, -4, -2, 1): "-b^2/(1+b*y1)",
            (-6, 3, -1, -4, -2, 5): "-b - b^2*y1",
            (-6, 3, 5, -4, -2, -1): "-b^2 - b^3*y1",
            (-6, 1, -3, -4, -2, 5): "b^2 + b^3*y3",
            (-6, 1, -2, -4, -3, 5): "b^3 + b^4*y3",
            (-6, 1, -5, -4, -2, 3): "-b^3 - b^4*y5",
            (-1, 3, -6, -4, -2, 5): "b^2 + b^3*y6",
            (-1, 3, -4, -6, -2, 5): "b^3 + b^4*y6",
            # the two correction terms below do not appear in types C and D
            (-6, -3, -1, -4, -2, 5): "b^2",
            (-6, -3, 5, -4, -2, -1): "b^3",
            # head of the alternating support-7 tail
            (-1, 3, -7, -4, -2, 5, 6): "-b^3 - b^4*y7",
        }
        for t in ("C", "D"):
            other = apply_M(t, 3, w, length(t, w) + 3)
            assert (-6, -3, -1, -4, -2, 5) not in other
            assert len(other) == 14

    @pytest.mark.parametrize("t", ["B", "C", "D"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_monk_identity_rank_two(self, t, k):
        for u in group_elements(t, 2):
            assert monk_identity_holds(t, u, k, kn_at(t, 2, 4)), (t, str(u), k)

    @pytest.mark.parametrize("t", ["B", "C", "D"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_monk_identity_rank_three(self, t, k):
        # all of W_3: the v-scaling and the twisted u-moves meet units y_{-i}
        for u in group_elements(t, 3):
            assert monk_identity_holds(t, u, k, kn_at(t, 2, 4)), (t, str(u), k)

    @pytest.mark.parametrize("t", ["B", "C", "D"])
    def test_monk_cut_at_the_truncation_is_exact(self, t):
        # G(v) vanishes at D = 4 when l(v) > 4, so a cut 2 longer adds nothing
        G = kn_at(t, 2, 4)
        for u in group_elements(t, 2):
            for k in (1, 2, 3):
                cut = G(u).bound
                value = combo_sum(apply_M(t, k, u, cut), G)
                assert value == combo_sum(apply_M(t, k, u, cut + 2), G), (str(u), k)
                assert monk_identity_holds(t, u, k, G), (str(u), k)

    def test_x_factor_absorbs_r_operator(self):
        # (1 + beta x_k) R_k F == (t-tail . v_k) F at truncation
        bound = 4
        for t in ("B", "C", "D"):
            for w in group_elements(t, 2):
                for k in (1, 2):
                    lhs_c = apply_R(t, k, w)
                    lhs = YRational(ONE + BETA * xvar(k)) * combo_sum(
                        lhs_c, kn_at(t, 2, bound)
                    )
                    wk = w(k)
                    coeff = (
                        YRational(ONE, {wk: 1})
                        if wk > 0
                        else YRational(ONE + BETA * yvar(-wk))
                    )
                    out, lengths = {w: coeff}, {w: length(t, w)}
                    for l in range(max(k, w.support) + 1, k, -1):
                        out = _factor(t, out, lengths, k, l, times_beta, bound)
                    assert lhs == combo_sum(out, kn_at(t, 2, bound)), (t, str(w), k)

    def test_twisted_product_collapses_to_scaling(self):
        # (u-product . v_k . t-product-below-k) F == v_k F
        bound = 4
        for t in ("B", "C", "D"):
            for w in group_elements(t, 2):
                for k in (1, 2):
                    out, lengths = {w: YRational.const(1)}, {w: length(t, w)}
                    j_min = -(max(k, w.support) + 1)
                    for j in range(j_min, k):
                        out = _factor(t, out, lengths, j, k, times_beta)
                    scaled = {}
                    for u, c in out.items():
                        uk = u(k)
                        f = (
                            YRational(ONE, {uk: 1})
                            if uk > 0
                            else YRational(ONE + BETA * yvar(-uk))
                        )
                        scaled[u] = c * f
                    j = k - 1
                    out = scaled
                    while out and j >= -(max(k, max(u.support for u in out)) + 1):
                        out = _factor(t, out, lengths, j, k, twisted, bound)
                        j -= 1
                    wk = w(k)
                    expect = (
                        YRational(ONE, {wk: 1})
                        if wk > 0
                        else YRational(ONE + BETA * yvar(-wk))
                    )
                    assert combo_sum(out, kn_at(t, 2, bound)) == expect * kn_eval(
                        t, w, 2, bound
                    ), (t, str(w), k)


class TestTransition:
    def test_data_examples(self):
        w = parse_oneline("-3,4,-1,5,2")
        v, a, c, _ = transition("B", w)
        assert (v, a, _transition_window(w, a)[1], c) == ((-3, 4, -1, 2), 4, 5, 2)
        w = parse_oneline("1,-2")
        v, a, c, _ = transition("B", w)
        assert (v, a, _transition_window(w, a)[1], c) == ((-2, 1), 1, 2, -2)

    def test_rejects_grassmannian(self):
        with pytest.raises(ValueError):
            transition("B", parse_oneline("-2,1"))

    def test_y_factor_negative_is_unit_inverse(self):
        assert y_factor(-2) * (ONE + BETA * yvar(2)) == YRational.const(1)

    # rank 3: all 100 elements with a descent (40 B, 40 C, 20 D)
    @pytest.mark.parametrize("t", ["B", "C", "D"])
    @pytest.mark.parametrize("rank", [2, 3])
    def test_identity_and_beta_exactness(self, rank, t):
        for w in group_elements(t, rank):
            if not w.is_grassmannian():
                residual = transition_residual(w, transition(t, w), kn_at(t, 2, 4))
                assert not residual, (t, str(w))

    # 7 of W_2's 10 steps leave _step through its one-move exit; W_3 and
    # W_4 bring the kernel's family loops (588 of W_4's 920 steps)
    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_reduces_to_symbolic_step_at_x_y_zero(self, rank):
        from ktrans.expand import transition_step

        for t in ("B", "C", "D"):
            for w in group_elements(t, rank):
                if w.is_grassmannian():
                    continue
                v, a, c, combo = transition(t, w)
                at_zero = {}
                for u, coeff in combo.items():
                    p = coeff.at_y_zero()
                    if p:
                        at_zero[u] = p
                at_zero[v] = at_zero[v] - 1
                if not at_zero[v]:
                    del at_zero[v]
                divided = {u: p.divide_beta() for u, p in at_zero.items()}
                step = transition_step(t, w)
                assert divided.keys() == step.keys(), (t, str(w))
                for u, p in divided.items():
                    # a single monomial step[u] * beta^(l(u) - l(w))
                    beta_exp = length(t, u) - length(t, w)
                    assert p.terms == {(beta_exp, ()): step[u]}, (t, str(w), str(u))
