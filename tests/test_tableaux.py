"""Shifted tableau enumeration and the GP/GQ generating functions."""

import pytest

from ktrans.rings import BETA, supersym_check, zvar
from ktrans.tableaux import (
    ShiftedSkewShape,
    enumerate_tableaux,
    gp,
    gq,
    reading_word,
    shifted_cells,
    w_shape,
)
from ktrans.weyl import length, parse_oneline, identity


def strict_partitions(max_size):
    out = [()]

    def rec(prefix, remaining, max_part):
        for p in range(min(remaining, max_part), 0, -1):
            out.append(prefix + (p,))
            rec(prefix + (p,), remaining - p, p - 1)

    rec((), max_size, max_size)
    return out


class TestShapes:
    def test_shifted_cells(self):
        assert shifted_cells((3, 1)) == {(1, 1), (1, 2), (1, 3), (2, 2)}

    def test_skew_cells_row_major(self):
        sh = ShiftedSkewShape((5, 3, 1), (2,))
        assert sh.cells() == [(1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (2, 4), (3, 3)]
        assert sh.size() == 7

    def test_rejects_non_containment(self):
        # non-contained pairs have no tableaux; the shape type rejects them
        # outright rather than modeling an empty diagram
        with pytest.raises(ValueError):
            ShiftedSkewShape((2,), (3,))
        with pytest.raises(ValueError):
            ShiftedSkewShape((2, 2), ())

    def test_serialization(self):
        sh = ShiftedSkewShape((5, 3, 1), (2,))
        assert str(sh) == "outer=[5, 3, 1] inner=[2]"


class TestEnumeration:
    def test_single_cell_q_flavor(self):
        # letter codes: 1' is 1, 1 is 2
        tabs = list(enumerate_tableaux(ShiftedSkewShape((1,)), "Q", 1, 2))
        entries = sorted(tuple(sorted(t[(1, 1)])) for t in tabs)
        assert entries == [(1,), (1, 2), (2,)]

    def test_single_cell_p_flavor(self):
        tabs = list(enumerate_tableaux(ShiftedSkewShape((1,)), "P", 1, 2))
        assert tabs == [{(1, 1): frozenset({2})}]

    def test_empty_shape(self):
        tabs = list(enumerate_tableaux(ShiftedSkewShape(()), "P", 2, 3))
        assert len(tabs) == 1
        assert tabs[0] == {}

    def test_row_overlap_must_be_unprimed(self):
        # shape (2): cells (1,1),(1,2); at N=1, D=3 the shared letter is 1
        tabs = list(enumerate_tableaux(ShiftedSkewShape((2,)), "Q", 1, 4))
        for t in tabs:
            common = t[(1, 1)] & t[(1, 2)]
            assert all(c % 2 == 0 for c in common)

    def test_column_overlap_must_be_primed(self):
        tabs = list(enumerate_tableaux(ShiftedSkewShape((2, 1), ()), "Q", 2, 5))
        assert tabs
        for t in tabs:
            common = t[(1, 2)] & t[(2, 2)]
            assert all(c % 2 == 1 for c in common)


class TestGeneratingFunctions:
    def test_gp_one_is_elementary_series(self):
        e1 = zvar(1) + zvar(2) + zvar(3)
        e2 = zvar(1) * zvar(2) + zvar(1) * zvar(3) + zvar(2) * zvar(3)
        e3 = zvar(1) * zvar(2) * zvar(3)
        expect = (e1 + BETA * e2 + BETA * BETA * e3).with_bound(3)
        assert gp(ShiftedSkewShape((1,)), 3, 3) == expect

    def test_gp_two_is_square(self):
        one = gp(ShiftedSkewShape((1,)), 3, 6)
        assert gp(ShiftedSkewShape((2,)), 3, 6) == one * one

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gq_gp_relation(self, n):
        lhs = gq(ShiftedSkewShape((n,)), 3, 6)
        rhs = 2 * gp(ShiftedSkewShape((n,)), 3, 6) + BETA * gp(
            ShiftedSkewShape((n + 1,)), 3, 6
        )
        assert lhs == rhs.with_bound(6)

    def test_symmetric_in_z(self):
        from ktrans.rings import Z, var_code

        def swap(f, i):
            return f.substitute(
                {var_code(Z, i): zvar(i + 1, f.bound), var_code(Z, i + 1): zvar(i, f.bound)}
            )

        for lam in ((2, 1), (3,), (3, 1)):
            for fn in (gp, gq):
                f = fn(ShiftedSkewShape(lam), 3, 5)
                assert swap(f, 1) == f
                assert swap(f, 2) == f

    def test_supersymmetry_small_shapes(self):
        for lam in strict_partitions(4):
            sh = ShiftedSkewShape(lam)
            assert supersym_check(gp(sh, 3, 6), 3, 6), ("gp", lam)
            assert supersym_check(gq(sh, 3, 6), 3, 6), ("gq", lam)

    def test_homogeneous(self):
        sh = ShiftedSkewShape((3, 1), (1,))
        assert gp(sh, 3, 6).homogeneous_degree() == 3
        assert gq(sh, 3, 6).homogeneous_degree() == 3


class TestReadingWords:
    def test_type_b_word(self):
        sh = ShiftedSkewShape((5, 3, 1), (2,))
        assert reading_word("B", sh) == [2, 3, 4, 0, 1, 2, 0]

    def test_reading_word_windows(self):
        sh = ShiftedSkewShape((5, 3, 1), (2,))
        assert w_shape("B", sh) == parse_oneline("-3,4,-1,5,2")
        assert w_shape("D", sh) == parse_oneline("4,-2,5,-1,6,3")

    def test_empty_shape(self):
        assert w_shape("B", ShiftedSkewShape(())) == identity()

    def test_length_equals_shape_size(self):
        for lam in strict_partitions(6):
            if not lam or lam[0] > 4 or len(lam) > 4:
                continue
            for mu in strict_partitions(sum(lam)):
                try:
                    sh = ShiftedSkewShape(lam, mu)
                except ValueError:
                    continue
                assert length("B", w_shape("B", sh)) == sh.size()
                assert length("C", w_shape("C", sh)) == sh.size()
                assert length("D", w_shape("D", sh)) == sh.size()
