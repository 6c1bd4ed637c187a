"""Acceptance criteria: one test per criterion, every check exact.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion; each test also prints its own verdict line for plain runs.
"""

from ktrans.expand import (
    expand_grassmannian,
    expansion_poly,
    skew_expansion,
    transition_step,
)
from ktrans.groth_a import groth_poly
from ktrans.hecke import fstanley, hecke_words, mperm, quasi
from ktrans.kn import kn_eval
from ktrans.rings import (
    BETA,
    ONE,
    TruncPoly,
    monk_identity_holds,
    supersym_check,
    transition,
    transition_residual,
    yvar,
)
from ktrans.tableaux import ShiftedSkewShape, gp, gq, w_shape
from ktrans.weyl import (
    group_elements,
    is_valid_reflection,
    length,
    length_increment_ok,
    parse_oneline,
    reflection,
    shape,
)

GOLDEN_W = parse_oneline("-3,4,-1,5,2")


def report(name, ok):
    print(f"{name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def strict_partitions(max_size):
    out = [()]

    def rec(prefix, remaining, top):
        for p in range(min(remaining, top), 0, -1):
            out.append(prefix + (p,))
            rec(prefix + (p,), remaining - p, p - 1)

    rec((), max_size, max_size)
    return out


def test_criterion_01_golden_expansion_type_b():
    expected = {
        (4, 2, 1): 4, (4, 3): 2, (5, 2): 2,
        (4, 3, 1): 5, (5, 2, 1): 5, (5, 3): 3, (5, 3, 1): 6,
    }
    result = expand_grassmannian("B", GOLDEN_W)
    report("criterion-01 golden expansion type B", result.terms == expected)


def test_criterion_02_golden_expansion_type_c():
    expected = {
        (4, 2, 1): 2, (4, 3): 2, (5, 2): 2,
        (4, 3, 1): 3, (5, 2, 1): 3, (5, 3): 3, (5, 3, 1): 4,
    }
    result = expand_grassmannian("C", GOLDEN_W)
    report("criterion-02 golden expansion type C", result.terms == expected)


def test_criterion_03_golden_transition_step():
    # (coefficient, beta exponent l(u) - l(w)) of every term
    expected = {
        parse_oneline("-3,4,2,-1"): (1, 0),
        parse_oneline("-3,4,-2,1"): (1, 0),
        parse_oneline("-3,4,-2,-1"): (1, 1),
        parse_oneline("-3,4,1,-2"): (1, 1),
        parse_oneline("-3,4,-1,-2"): (1, 2),
    }
    ok = all(
        {
            u: (coeff, length(t, u) - length(t, GOLDEN_W))
            for u, coeff in transition_step(t, GOLDEN_W).items()
        }
        == expected
        for t in ("B", "C")
    )
    report("criterion-03 golden transition step", ok)


def test_criterion_04_skew_consistency():
    sh = ShiftedSkewShape((5, 3, 1), (2,))
    via_b = expand_grassmannian("B", w_shape("B", sh))
    via_d = expand_grassmannian("D", w_shape("D", sh))
    ok = via_b.terms == via_d.terms
    ok = ok and skew_expansion("GP", (5, 3, 1), (2,)).terms == via_b.terms
    recombined = expansion_poly(via_b, 3, 8)
    ok = ok and recombined == gp(sh, 3, 8)
    report("criterion-04 skew consistency", ok)


def test_criterion_05_gq_gp_relations():
    ok = True
    for n in (1, 2, 3):
        lhs = gq(ShiftedSkewShape((n,)), 3, 6)
        rhs = (
            2 * gp(ShiftedSkewShape((n,)), 3, 6)
            + BETA * gp(ShiftedSkewShape((n + 1,)), 3, 6)
        ).with_bound(6)
        ok = ok and lhs == rhs
    one = gp(ShiftedSkewShape((1,)), 3, 6)
    ok = ok and gp(ShiftedSkewShape((2,)), 3, 6) == one * one
    report("criterion-05 GQ/GP relations", ok)


def test_criterion_06_method_agreement():
    ok = True
    for t in ("B", "C", "D"):
        for w in group_elements(t, 3):
            if length(t, w) <= 3:
                ok = ok and fstanley(t, w, 3, 5, "compat") == fstanley(
                    t, w, 3, 5, "unimodal"
                )
    report("criterion-06 compat/unimodal agreement", ok)


def test_criterion_07_grassmannian_law():
    ok = True
    for t in ("B", "C", "D"):
        fn = gp if t in ("B", "D") else gq
        for w in group_elements(t, 3):
            if w.is_grassmannian():
                lam = shape(t, w)
                ok = ok and fstanley(t, w, 3, 6) == fn(ShiftedSkewShape(lam), 3, 6)
    report("criterion-07 Grassmannian law", ok)


def test_criterion_08_type_a_transitions():
    ok = all(
        transition_residual(w, transition("A", w), groth_poly).is_zero()
        for w in group_elements("A", 4)
        if w.descents()
    )
    ok = ok and all(
        monk_identity_holds("A", u, k, groth_poly)
        for u in group_elements("A", 3)
        for k in (1, 2, 3)
    )
    report("criterion-08 type A transitions and Monk rule", ok)


def test_criterion_09_kn_oracle():
    w = parse_oneline("-2,1")
    y1 = yvar(1).with_bound(4)
    unit = (ONE + BETA * yvar(1)).with_bound(4)
    ok = kn_eval("B", w, 2, 4) == (
        y1 * gp(ShiftedSkewShape((1,)), 2, 4)
        + unit * gp(ShiftedSkewShape((2,)), 2, 4)
    ).with_bound(4)
    ok = ok and kn_eval("C", w, 2, 4) == (
        y1 * gq(ShiftedSkewShape((1,)), 2, 4)
        + unit * gq(ShiftedSkewShape((2,)), 2, 4)
    ).with_bound(4)
    report("criterion-09 triple-sum oracle", ok)


def test_criterion_10_classical_transitions():
    ok = True
    for t in ("B", "C", "D"):
        G = lambda u, t=t: kn_eval(t, u, 2, 4)
        for w in group_elements(t, 2):
            if w.descents():
                ok = ok and transition_residual(w, transition(t, w), G).is_zero()
            for k in (1, 2):
                ok = ok and monk_identity_holds(t, w, k, G, 4)
    report("criterion-10 classical transitions at truncation", ok)


def test_criterion_11_length_rule_equivalence():
    ok = True
    for t in ("A", "B", "C", "D"):
        for w in group_elements(t, 3):
            lw = length(t, w)
            for j in range(1, 5):
                for i in range(-4, j):
                    if not is_valid_reflection(t, i, j):
                        continue
                    wt = w * reflection(i, j)
                    if not wt.in_group(t):
                        continue
                    ok = ok and length_increment_ok(t, w, i, j) == (
                        length(t, wt) == lw + 1
                    )
    report("criterion-11 length rule vs direct length", ok)


def test_criterion_12_supersymmetry():
    ok = True
    for t in ("B", "C", "D"):
        for w in group_elements(t, 2):
            ok = ok and supersym_check(fstanley(t, w, 3, 6), 3, 6)
    for lam in strict_partitions(4):
        sh = ShiftedSkewShape(lam)
        ok = ok and supersym_check(gp(sh, 3, 6), 3, 6)
        ok = ok and supersym_check(gq(sh, 3, 6), 3, 6)
    report("criterion-12 K-supersymmetry", ok)


def test_criterion_13_quasisymmetric_identity():
    ok = True
    for w in group_elements("C", 2):
        lw = length("C", w)
        total = TruncPoly.zero(5)
        for a in hecke_words("C", w, 5):
            if mperm(a) == a:
                total = total + TruncPoly.beta(len(a) - lw, 5) * quasi(a, "K", 3, 5)
        ok = ok and total == fstanley("C", w, 3, 5)
    report("criterion-13 quasisymmetric K-expansion", ok)


def test_criterion_14_positivity_sweep():
    # transition_step asserts nonnegativity and the LD descent on every
    # step; expand_grassmannian asserts the support bound as it runs
    ok = True
    for w in group_elements("B", 3):
        result = expand_grassmannian("B", w)
        ok = ok and all(c > 0 for c in result.terms.values())
    report("criterion-14 positivity and support bound", ok)
