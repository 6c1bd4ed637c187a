"""Shifted tableau enumeration and the GP/GQ generating functions."""

import itertools
import pickle
from math import inf
from typing import Iterator

import pytest

from ktrans.rings import BETA, Z, TruncPoly, supersym_check, var_code
from ktrans.tableaux import (
    ShiftedSkewShape,
    _generating_function,
    contains,
    gp,
    gq,
    reading_word,
    shifted_cells,
    w_shape,
)
from ktrans.weyl import IDENTITY, SignedPermutation, generator, length, parse_oneline
from test_rings import assert_exact, homogeneous_degree, reference_substitute, zvar

Tableau = dict[tuple[int, int], frozenset[int]]


def z_monomial(beta_exp, indices):
    """The monomial beta^beta_exp times z_i for each i in indices, a
    repeated index raising its power."""
    return (beta_exp, tuple(sorted(var_code(Z, i) for i in indices)))


def is_primed(code: int) -> bool:
    return code % 2 == 1


def _subsets_from(letters: list[int], max_size: int) -> Iterator[tuple[int, ...]]:
    """Nonempty subsets, smallest elements first, capped in size."""
    n = len(letters)

    def rec(start: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        for k in range(start, n):
            acc.append(letters[k])
            yield tuple(acc)
            if len(acc) < max_size:
                yield from rec(k + 1, acc)
            acc.pop()

    yield from rec(0, [])


def enumerate_tableaux(
    shape: ShiftedSkewShape, flavor: str, num_letters: int, max_size: int
) -> Iterator[Tableau]:
    """All semistandard set-valued shifted tableaux with letters <= num_letters
    and total size <= max_size, in a deterministic backtracking order.  Each
    is a dict from cell to its nonempty set of letter codes.

    flavor "P" forbids primed letters on the diagonal; "Q" allows them.
    The reference for the transfer matrix of tableaux._generating_function.
    """
    if flavor not in ("P", "Q"):
        raise ValueError(f"flavor must be P or Q, got {flavor!r}")
    cells = shape.cells()
    if not cells:
        yield {}
        return
    if max_size < len(cells):
        return
    alphabet = list(range(1, 2 * num_letters + 1))
    entries: Tableau = {}

    def rec(pos: int, used: int) -> Iterator[Tableau]:
        if pos == len(cells):
            yield dict(entries)
            return
        i, j = cells[pos]
        remaining = len(cells) - pos - 1
        budget = max_size - used - remaining
        if budget < 1:
            return
        left = entries.get((i, j - 1))
        above = entries.get((i - 1, j))
        lo = 1
        if left:
            lo = max(lo, max(left))
        if above:
            lo = max(lo, max(above))
        candidates = [c for c in alphabet if c >= lo]
        if flavor == "P" and i == j:
            candidates = [c for c in candidates if not is_primed(c)]
        for subset in _subsets_from(candidates, budget):
            m = subset[0]
            # a shared boundary letter must be unprimed along rows, primed down columns
            if left and m == max(left) and is_primed(m):
                continue
            if above and m == max(above) and not is_primed(m):
                continue
            entries[(i, j)] = frozenset(subset)
            yield from rec(pos + 1, used + len(subset))
        entries.pop((i, j), None)

    yield from rec(0, 0)


def tableau_sums(
    shape: ShiftedSkewShape, flavor: str, num_letters: int, bounds: range
) -> dict[int, TruncPoly]:
    """The generating function at each bound, summed tableau by tableau over
    one enumeration at the largest.  A smaller bound keeps what
    enumerate_tableaux yields at it: the tableaux with at most that many
    letters."""
    k = shape.size()
    tally: dict = {}
    for tab in enumerate_tableaux(shape, flavor, num_letters, max(bounds)):
        letters = [(c + 1) // 2 for s in tab.values() for c in s]
        m = z_monomial(len(letters) - k, letters)
        tally[m] = tally.get(m, 0) + 1
    return {
        bound: TruncPoly({m: n for m, n in tally.items() if len(m[1]) <= bound}, bound)
        for bound in bounds
    }


def strict_partitions(max_size):
    out = [()]

    def rec(prefix, remaining, max_part):
        for p in range(min(remaining, max_part), 0, -1):
            out.append(prefix + (p,))
            rec(prefix + (p,), remaining - p, p - 1)

    rec((), max_size, max_size)
    return out


# every skew shape lam/mu with |lam| <= 6, mu empty or not, the empty one too
SKEW_SHAPES = [
    ShiftedSkewShape(lam, mu)
    for lam in strict_partitions(6)
    for mu in strict_partitions(sum(lam))
    if contains(lam, mu)
]


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

    def test_equal_shapes_share_one_cache_entry(self):
        a, b = ShiftedSkewShape((4, 2), (1,)), ShiftedSkewShape([4, 2], [1])
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != ShiftedSkewShape((4, 2)) and a != ((4, 2), (1,))
        first = gp(a, 2, 5)
        before = _generating_function.cache_info()
        assert gp(b, 2, 5) is first
        after = _generating_function.cache_info()
        assert after.hits == before.hits + 1 and after.currsize == before.currsize

    def test_immutable(self):
        sh = ShiftedSkewShape((3, 1))
        with pytest.raises(AttributeError):
            sh.outer = (4, 1)
        with pytest.raises(AttributeError):
            del sh.inner
        assert (sh.outer, sh.inner) == ((3, 1), ())

    def test_repr_names_both_parts(self):
        sh = ShiftedSkewShape((5, 3, 1), (2,))
        assert repr(sh) == "ShiftedSkewShape(outer=(5, 3, 1), inner=(2,))"

    @pytest.mark.parametrize(
        "outer, inner",
        [((2, 2), ()), ((3, 0), ()), ((True,), ()), ((3,), (1, 1)), ((3,), (4,)), ((3,), (1, 1.0))],
    )
    def test_bad_or_uncontained_inner_raises(self, outer, inner):
        with pytest.raises(ValueError):
            ShiftedSkewShape(outer, inner)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        sh = ShiftedSkewShape((5, 3, 1), (2,))
        back = pickle.loads(pickle.dumps(sh, protocol))
        assert back == sh and back.cells() == sh.cells()


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
            return reference_substitute(
                f, {var_code(Z, i): zvar(i + 1, f.bound), var_code(Z, i + 1): zvar(i, f.bound)}
            )

        for lam in ((2, 1), (3,), (3, 1)):
            for fn in (gp, gq):
                f = fn(ShiftedSkewShape(lam), 3, 5)
                assert swap(f, 1) == f
                assert swap(f, 2) == f

    def test_supersymmetry_small_shapes(self):
        for lam in strict_partitions(6):
            sh = ShiftedSkewShape(lam)
            assert supersym_check(gp(sh, 3, 6)), ("gp", lam)
            assert supersym_check(gq(sh, 3, 6)), ("gq", lam)

    def test_homogeneous(self):
        sh = ShiftedSkewShape((3, 1), (1,))
        assert homogeneous_degree(gp(sh, 3, 6)) == 3
        assert homogeneous_degree(gq(sh, 3, 6)) == 3


class TestTransferMatrix:
    """gp and gq against the tableau-by-tableau sum of enumerate_tableaux."""

    def test_shape_count(self):
        assert len(SKEW_SHAPES) == 81
        assert ShiftedSkewShape(()) in SKEW_SHAPES

    @pytest.mark.parametrize("num_letters", [1, 2, 3, 4])
    @pytest.mark.parametrize("flavor, oracle", [("P", gp), ("Q", gq)], ids=["P", "Q"])
    def test_matches_tableau_sum(self, flavor, oracle, num_letters):
        # D from one below the cell count, where only the empty shape has a
        # tableau, to two letters past it
        for sh in SKEW_SHAPES:
            bounds = range(sh.size() - 1, sh.size() + 3)
            for bound, want in tableau_sums(sh, flavor, num_letters, bounds).items():
                got = oracle(sh, num_letters, bound)
                assert (got.terms, got.bound) == (want.terms, want.bound), (str(sh), bound)

    def test_a_shape_past_the_bound_lists_no_cell(self, monkeypatch):
        # every tableau has at least |shape| entries, so at D = |shape| - 1
        # the answer is zero before any cell is listed; at D = |shape| the
        # transfer matrix runs and gives the exact series cut at D, which
        # three letters keep nonzero on these shapes of at most three rows
        shapes = [sh for sh in SKEW_SHAPES if sh.size()]
        want = {(oracle, sh): oracle(sh, 3, inf).with_bound(sh.size())
                for oracle in (gp, gq) for sh in shapes}
        _generating_function.cache_clear()
        for (oracle, sh), series in want.items():
            got = oracle(sh, 3, sh.size())
            assert (got.terms, got.bound) == (series.terms, series.bound), str(sh)
            assert got, str(sh)
        _generating_function.cache_clear()

        def no_cells(shape):
            raise AssertionError(f"{shape} listed its cells")

        monkeypatch.setattr(ShiftedSkewShape, "cells", no_cells)
        for oracle in (gp, gq):
            for sh in shapes:
                got = oracle(sh, 3, sh.size() - 1)
                assert not got and got.bound == sh.size() - 1, str(sh)
            assert not oracle(ShiftedSkewShape((100_000_000,)), 1, 3)
        _generating_function.cache_clear()

    @pytest.mark.parametrize("oracle", [gp, gq], ids=["gp", "gq"])
    def test_exact_at_an_unbounded_degree(self, oracle):
        # every strict lam/mu with |lam| <= 6, past its top degree at D = 40
        for sh in SKEW_SHAPES:
            assert_exact(oracle(sh, 2, inf), oracle(sh, 2, 40))

    def test_long_row_is_homogeneous_and_symmetric(self):
        # exponents past 255 and a degree bound past the row: a packed
        # exponent field too narrow for the bound would break both
        f = gp(ShiftedSkewShape((300,)), 2, 301)
        z1, z2 = var_code(Z, 1), var_code(Z, 2)
        swap = {z1: z2, z2: z1}
        swapped = {(b, tuple(sorted(swap[v] for v in vs))): c for (b, vs), c in f.terms.items()}
        assert homogeneous_degree(f) == 300
        assert swapped == f.terms
        assert f.terms[(0, (z1,) * 150 + (z2,) * 150)] == 2


class TestReadingWords:
    def test_type_b_word(self):
        sh = ShiftedSkewShape((5, 3, 1), (2,))
        assert reading_word("B", sh) == [2, 3, 4, 0, 1, 2, 0]

    def test_reading_word_windows(self):
        sh = ShiftedSkewShape((5, 3, 1), (2,))
        assert w_shape("B", sh) == parse_oneline("-3,4,-1,5,2")
        assert w_shape("D", sh) == parse_oneline("4,-2,5,-1,6,3")

    def test_empty_shape(self):
        assert w_shape("B", ShiftedSkewShape(())) == IDENTITY

    @pytest.mark.parametrize("t", ["A", "Q"])
    @pytest.mark.parametrize("outer", [(), (3, 1)])
    def test_a_type_outside_b_c_d_is_refused(self, t, outer):
        # even for the empty shape, whose word has no letter to refuse
        for call in (reading_word, w_shape):
            with pytest.raises(ValueError) as err:
                call(t, ShiftedSkewShape(outer))
            assert err.type is ValueError
            assert str(err.value) == f"a reading word needs type B, C, or D, not {t!r}"

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


def product_w_shape(t, shape):
    """The reference w_shape: the product of the generators of the reading
    word, one signed permutation per letter."""
    w = IDENTITY
    for a in reading_word(t, shape):
        w = w * generator(t if t == "D" else "B", a)
    return w


def skew_shapes_up_to(max_outer, max_rows, max_inner):
    """Every skew shape lam/mu with lam_1 <= max_outer, at most max_rows
    rows, and mu_1 <= max_inner, the empty one included."""
    def strict(top):
        return [
            tuple(sorted(parts, reverse=True))
            for k in range(max_rows + 1)
            for parts in itertools.combinations(range(1, top + 1), k)
        ]

    return [
        ShiftedSkewShape(lam, mu)
        for lam in strict(max_outer)
        for mu in strict(max_inner)
        if contains(lam, mu)
    ]


class TestWShape:
    @pytest.mark.parametrize("t", ["B", "C", "D"])
    def test_matches_the_product_of_generators(self, t):
        shapes = skew_shapes_up_to(7, 4, 4)
        assert len(shapes) == 1285
        for sh in shapes:
            w = w_shape(t, sh)
            assert w == product_w_shape(t, sh), sh
            assert type(w) is SignedPermutation
