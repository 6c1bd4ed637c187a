"""Hecke words, compatible sequences, and the generating-function oracles."""

import itertools
from fractions import Fraction
from functools import partial
from typing import Callable

import pytest

from ktrans import hecke
from ktrans.hecke import _letter_key, _unimodal_step, fstanley, hecke_words, mperm, quasi
from ktrans.rings import BETA, MAX_INDEX, Z, TruncPoly, poly_str, supersym_check, var_code
from ktrans.tableaux import ShiftedSkewShape, gp, gq, w_shape
from ktrans.weyl import (
    IDENTITY,
    SignedPermutation,
    elements_up_to_length,
    generator,
    generator_indices,
    group_elements,
    length,
    parse_oneline,
    reduced_word,
    reflection,
    right_ascent,
    shape,
)
from test_expand import _clear_memos
from test_rings import reference_substitute, zvar
from test_tableaux import z_monomial
from test_weyl import demazure_apply


def compatible_sequences(t, a, num_vars):
    """The reference: compatible sequences b of the word a with values in
    [1, num_vars], each with the exponent e of its weight 2^e, enumerated
    for the whole word.

    b weakly increases, with b_{i-1} < b_{i+1} at every weak peak
    |a_{i-1}| <= |a_i| >= |a_{i+1}|, and strictly increases across equal
    adjacent o-letters: 0 in type B, +-1 in type D.  The exponent is
    e = |b| - gamma - o, where |b| counts the distinct values of b, gamma
    the positions repeating both the previous letter and the previous value,
    and o the o-letters.
    """
    k = len(a)
    b = []

    def rec(pos, e):
        if pos == k:
            yield tuple(b), e
            return
        g = a[pos]
        is_o = (t == "B" and g == 0) or (t == "D" and abs(g) == 1)
        peak = pos >= 2 and abs(a[pos - 2]) <= abs(a[pos - 1]) >= abs(g)
        for val in range(b[-1] if b else 1, num_vars + 1):
            if peak and not b[-2] < val:
                continue
            same = pos >= 1 and val == b[-1]
            repeat = same and a[pos - 1] == g
            if repeat and is_o:
                continue
            b.append(val)
            yield from rec(pos + 1, e + (not same) - repeat - is_o)
            b.pop()

    yield from rec(0, 0)


def unimodal_factorizations(t, a, num_vars):
    """The reference: unimodal factorizations b of the whole word a with
    |b_i| <= num_vars, in lexicographic order of -1 < 1 < -2 < 2 < ...,
    folded letter by letter through `_unimodal_step`, which keeps insertion
    order; signed values never collide, so every count is 1."""
    values = [v for m in range(1, num_vars + 1) for v in (-m, m)]
    seqs = {((), 0): 1}
    for pos, g in enumerate(a):
        nxt = {}
        _unimodal_step(t, values, a[pos - 1] if pos else None, g, seqs, nxt)
        seqs = nxt
    return (b for b, _ in seqs)


def words_with_mperm(pi, max_len):
    """All sequences of length <= max_len collapsing to pi."""
    r = len(pi)
    if r == 0:
        yield ()
        return
    if r > max_len:
        return

    def rec(i, acc):
        if i == r:
            yield tuple(acc)
            return
        least = r - i - 1
        for rep in range(1, max_len - len(acc) - least + 1):
            yield from rec(i + 1, acc + [pi[i]] * rep)

    yield from rec(0, [])


def quasi_reference(pi, num_vars, bound):
    """The reference: every word collapsing to pi, each with every unimodal
    factorization of the whole word."""
    terms = {}
    for a in words_with_mperm(pi, bound):
        for b in unimodal_factorizations("C", a, num_vars):
            m = z_monomial(len(a) - len(pi), [abs(v) for v in b])
            terms[m] = terms.get(m, 0) + 1
    return terms


def tree_walk(
    t: str,
    w: SignedPermutation,
    max_len: int,
    root,
    extend: Callable,
    emit: Callable,
) -> None:
    """Walk the prefixes of the Hecke words of w of length <= max_len, in
    lexicographic order, carrying a state from root down each edge.

    extend(state, word, g) is the state of word + (g,), or a falsy one for
    a dead prefix, which is dropped with its subtree.  emit(word, state)
    sees each word whose Demazure product is w.

    Letters come from supp(w), the generators of a reduced word of w: the
    Demazure product of a word lies above each of its letters in Bruhat
    order.  The Demazure prefixes of a word climb a chain in the right weak
    order, so a prefix p can still reach w iff p <= w in that order and
    l(w) - l(p) letters remain.  With w = p u and l(w) = l(p) + l(u), a
    letter g that raises p keeps p t_g below w iff g is a left descent of
    u, that is a right descent of r = u^-1 = w^-1 p, which the walk carries.
    """
    letters = sorted(set(reduced_word(t, w)))
    gens = {g: generator(t, g) for g in letters}
    lw = length(t, w)
    word: list[int] = []

    def rec(p: SignedPermutation, r: SignedPermutation, lp: int, state) -> None:
        if lp == lw:
            # p <= w and l(p) = l(w): p is w
            emit(word, state)
        if len(word) == max_len:
            return
        rem = max_len - len(word) - 1
        for g in letters:
            if right_ascent(p, g):
                if lw - lp - 1 > rem or right_ascent(r, g):
                    continue
                q, rq, lq = p * gens[g], r * gens[g], lp + 1
            else:
                if lw - lp > rem:
                    continue
                q, rq, lq = p, r, lp
            nxt = extend(state, word, g)
            if nxt:
                word.append(g)
                rec(q, rq, lq, nxt)
                word.pop()

    rec(IDENTITY, w.inverse(), 0, root)


def tree_hecke_words(t, w, max_len):
    """The reference: the words the tree walk reaches, in its order."""
    words = []

    def emit(word, state):
        words.append(tuple(word))

    tree_walk(t, w, max_len, True, lambda state, word, g: True, emit)
    return words


def tree_fstanley(t, w, num_vars, bound, method):
    """The reference: the terms of F_w from the tree walk, which carries
    each word's own list of partial sequences and never merges two words.
    Each sequence goes through the step alone, as a one-entry table, and
    each weight is an exact fraction."""
    z1 = var_code(Z, 1)
    if method == "compat":
        step = partial(hecke._compat_step, t, z1 + num_vars - 1)
    else:
        step = partial(hecke._unimodal_step, t, [z1 + i // 2 for i in range(2 * num_vars)])
    lw = length(t, w)
    terms = {}

    def extend(seqs, word, g):
        out = []
        for seq in seqs:
            into = {}
            step(word[-1] if word else None, g, {seq: 1}, into)
            out += into
        return out

    def emit(word, seqs):
        for b, e, *_ in seqs:
            m = (len(b) - lw, b)
            terms[m] = terms.get(m, 0) + (Fraction(2) ** e if method == "compat" else 1)

    tree_walk(t, w, bound, [((), 0, False) if method == "compat" else ((), 0)], extend, emit)
    return terms


class TestHeckeWords:
    def test_single_generator(self):
        assert sorted(hecke_words("B", reflection(0, 1), 2)) == [(0,), (0, 0)]

    def test_identity(self):
        assert list(hecke_words("B", IDENTITY, 1)) == [()]

    def test_reduced_words_only_at_minimal_length(self):
        # all 2-letter words over the alphabet whose product is t_1 t_0
        w = parse_oneline("-2,1")
        assert sorted(hecke_words("C", w, 2)) == [(1, 0)]

    def test_empty_when_too_short(self):
        assert list(hecke_words("B", parse_oneline("-2,1"), 1)) == []

    def test_letter_bound(self):
        # brute force over a deliberately wide alphabet: every Demazure word
        # of w stays inside supp(w), and the pruned walk finds them all
        for t in "BCD":
            wide = generator_indices(t, 6)
            for w in elements_up_to_length(t, 3, 3):
                L = length(t, w) + 1
                found = []

                def rec(p, word):
                    if p == w:
                        found.append(tuple(word))
                    if len(word) == L:
                        return
                    for g in wide:
                        word.append(g)
                        rec(demazure_apply(t, p, g), word)
                        word.pop()

                rec(IDENTITY, [])
                assert found
                support = set(reduced_word(t, w))
                assert all(g in support for a in found for g in a), (t, str(w))
                assert sorted(found) == list(hecke_words(t, w, L)), (t, str(w))

    @pytest.mark.parametrize("t", ["B", "C", "D"])
    def test_words_multiply_back(self, t):
        for w in group_elements(t, 2):
            if length(t, w) > 2:
                continue
            for a in hecke_words(t, w, 3):
                acc = IDENTITY
                for g in a:
                    acc = demazure_apply(t, acc, g)
                assert acc == w


class TestUnimodal:
    def test_empty(self):
        assert list(unimodal_factorizations("C", (), 1)) == [()]

    def test_c_example(self):
        got = list(unimodal_factorizations("C", (1, 0), 1))
        assert (-1, -1) in got
        assert (1, 1) not in got

    def test_b_zero_positive(self):
        assert list(unimodal_factorizations("B", (0,), 1)) == [(1,)]

    def test_lexicographic_order(self):
        # strictly increasing in lexicographic order of -1 < 1 < -2 < 2 < ...,
        # on Hecke words and on the arbitrary letters that quasi passes
        def ranks(b):
            return [2 * abs(v) - (v < 0) for v in b]

        words = [(t, a) for t in "BCD" for w in group_elements(t, 3) for a in hecke_words(t, w, 5)]
        words += [("C", a) for n in range(5) for a in itertools.product(range(4), repeat=n)]
        for t, a in words:
            got = [ranks(b) for b in unimodal_factorizations(t, a, 3)]
            assert all(x < y for x, y in zip(got, got[1:])), (t, a)

    @pytest.mark.parametrize("t", ["B", "C", "D"])
    def test_matches_definition(self, t):
        # every value sequence, filtered by the definition, in product order:
        # ranks weakly increase in the order -1 < 1 < -2 < 2; a repeated
        # negative value needs a falling letter key and a repeated positive
        # one a rising key; an o-letter (B: 0, D: +-1) takes no negative value
        def rank(v):
            return abs(v), v > 0

        def unimodal(a, b):
            for i, (g, v) in enumerate(zip(a, b)):
                if v < 0 and (t == "B" and g == 0 or t == "D" and abs(g) == 1):
                    return False
                if i and rank(b[i - 1]) > rank(v):
                    return False
                if i and b[i - 1] == v:
                    prev, cur = _letter_key(t, a[i - 1]), _letter_key(t, g)
                    if not (prev > cur if v < 0 else prev < cur):
                        return False
            return True

        for num_vars in (1, 2):
            values = [v for m in range(1, num_vars + 1) for v in (-m, m)]
            for w in group_elements(t, 3):
                for a in hecke_words(t, w, 5):
                    want = [
                        b for b in itertools.product(values, repeat=len(a)) if unimodal(a, b)
                    ]
                    assert list(unimodal_factorizations(t, a, num_vars)) == want, (t, a)


class TestFStanley:
    @pytest.mark.parametrize("t", ["B", "C", "D"])
    def test_matches_sum_over_words(self, t):
        # the walk against the per-word sum: every Hecke word of w, each with
        # every compatible sequence of the reference, at every truncation;
        # the unimodal method must give the same function
        for w in group_elements(t, 3):
            lw = length(t, w)
            words = hecke_words(t, w, 5)
            for num_vars in (1, 2, 3):
                want = {}
                for a in words:
                    for b, e in compatible_sequences(t, a, num_vars):
                        m = z_monomial(len(a) - lw, b)
                        want[m] = want.get(m, 0) + Fraction(2) ** e
                for bound in range(6):
                    got = {m: c for m, c in want.items() if len(m[1]) <= bound}
                    for method in ("compat", "unimodal"):
                        f = fstanley(t, w, num_vars, bound, method)
                        assert f.terms == got, (t, str(w), num_vars, bound, method)

    @pytest.mark.parametrize("method, step", [("compat", "_compat_step"), ("unimodal", "_unimodal_step")])
    def test_dead_prefix_is_dropped(self, monkeypatch, method, step):
        # at N = 1 no sequence of the word 1,1,1 exists (a weak peak needs two
        # values, a repeat a strict letter key), so the walk stops at 1,1,
        # while hecke_words, which carries no sequence, goes on to D letters;
        # the step sees the last letter, None for the empty prefix
        w = parse_oneline("2,1")
        real = getattr(hecke, step)
        calls, live = [], []

        def recording(t, table, last, g, seqs, into):
            before = dict(into)
            real(t, table, last, g, seqs, into)
            calls.append((last, g))
            if into != before:
                live.append((last, g))

        monkeypatch.setattr(hecke, step, recording)
        f = fstanley.__wrapped__("B", w, 1, 8, method)
        assert poly_str(f) == "2*z1 + b*z1^2"
        assert hecke_words("B", w, 8) == [(1,) * n for n in range(1, 9)]
        assert live == [(None, 1), (1, 1)]
        # 1,1,1 leaves an empty table, which the pass extends no further
        assert calls == [(None, 1), (1, 1), (1, 1)]

    def test_b_sign_change(self):
        f = fstanley("B", reflection(0, 1), 2, 2)
        expect = zvar(1) + zvar(2) + BETA * zvar(1) * zvar(2)
        assert f == expect.with_bound(2)

    def test_c_sign_change(self):
        f = fstanley("C", reflection(0, 1), 1, 2)
        assert poly_str(f) == "2*z1 + b*z1^2"

    def test_identity(self):
        assert fstanley("B", IDENTITY, 2, 3) == TruncPoly.const(1, 3)

    @pytest.mark.parametrize("t", ["B", "C", "D"])
    def test_methods_agree_rank_two(self, t):
        for w in group_elements(t, 2):
            assert fstanley(t, w, 2, 4, "compat") == fstanley(t, w, 2, 4, "unimodal")
        with pytest.raises(ValueError) as err:
            fstanley(t, IDENTITY, 2, 4, "x")
        assert err.type is ValueError and str(err.value) == "unknown method 'x'"

    @pytest.mark.parametrize("method", ["compat", "unimodal"])
    def test_num_vars_past_the_code_layout_is_refused(self, method):
        # z_N must have a code of its own family, as in gp and gq; N = 0
        # answers with no z variable at all
        message = f"variable index must be at most {MAX_INDEX}, got {MAX_INDEX + 2}"
        with pytest.raises(ValueError) as err:
            fstanley("B", SignedPermutation([2, 1]), MAX_INDEX + 2, 1, method)
        assert err.type is ValueError and str(err.value) == message
        assert fstanley("B", SignedPermutation([2, 1]), 0, 3, method) == TruncPoly.zero(3)
        assert fstanley("B", IDENTITY, 0, 3, method) == TruncPoly.const(1, 3)

    def test_d_square_terms(self):
        # F^D of t_{-1} t_1 is GP_(2), whose expansion has square terms;
        # this pins the literal adjacency condition for the -1,1 letters
        w = parse_oneline("-1,-2")
        assert fstanley("D", w, 3, 5) == gp(ShiftedSkewShape((2,)), 3, 5)

    @pytest.mark.parametrize("t", ["B", "C", "D"])
    def test_inverse_symmetry(self, t):
        for w in group_elements(t, 2):
            assert fstanley(t, w, 2, 4) == fstanley(t, w.inverse(), 2, 4)

    def test_d_star_symmetry(self):
        def star(w):
            acc = IDENTITY
            for g in reduced_word("D", w):
                acc = acc * generator("D", -g if abs(g) == 1 else g)
            return acc

        for w in group_elements("D", 3):
            assert fstanley("D", w, 2, 4) == fstanley("D", star(w), 2, 4)

    def test_supersymmetric(self):
        for t in ("B", "C", "D"):
            for w in group_elements(t, 3):
                assert supersym_check(fstanley(t, w, 3, 6)), (t, str(w))

    def test_grassmannian_law_examples(self):
        w = parse_oneline("-2,1")
        assert fstanley("B", w, 3, 5) == gp(ShiftedSkewShape(shape("B", w)), 3, 5)
        assert fstanley("C", w, 3, 5) == gq(ShiftedSkewShape(shape("C", w)), 3, 5)

    def test_d_grassmannian_shape_cross_check(self):
        # the type D shape shifts every part down by one before trimming
        w = parse_oneline("-5,-3,1,2,4")
        assert shape("D", w) == (4, 2)
        assert fstanley("D", w, 2, 6) == gp(ShiftedSkewShape((4, 2)), 2, 6)

    def test_symmetric_in_z(self):
        def swap(f, i):
            return reference_substitute(
                f, {var_code(Z, i): zvar(i + 1, f.bound), var_code(Z, i + 1): zvar(i, f.bound)}
            )

        for t in ("B", "C", "D"):
            for w in group_elements(t, 2):
                f = fstanley(t, w, 3, 4)
                assert swap(f, 1) == f and swap(f, 2) == f, (t, str(w))

    def test_skew_reading_word_identities(self):
        sh = ShiftedSkewShape((3, 1), ())
        want_p = gp(sh, 2, 5)
        assert fstanley("B", w_shape("B", sh), 2, 5) == want_p
        assert fstanley("D", w_shape("D", sh), 2, 5) == want_p
        assert fstanley("C", w_shape("C", sh), 2, 5) == gq(sh, 2, 5)


class TestMergedPass:
    """The layered pass, which merges prefixes that share a state, against
    the tree walk, which never merges two words."""

    @pytest.mark.parametrize("t", ["B", "C", "D"])
    def test_matches_tree_walk_on_w4(self, t):
        for w in group_elements(t, 4):
            assert hecke_words(t, w, 6) == tree_hecke_words(t, w, 6), (t, str(w))
            for num_vars in (2, 3):
                for method in ("compat", "unimodal"):
                    got = fstanley.__wrapped__(t, w, num_vars, 6, method).terms
                    want = tree_fstanley(t, w, num_vars, 6, method)
                    assert got == want, (t, str(w), num_vars, method)

    @pytest.mark.parametrize("t", ["B", "C", "D"])
    def test_matches_tree_walk_on_golden_element(self, t):
        w = parse_oneline("-3,4,-1,5,2")
        for method in ("compat", "unimodal"):
            got = fstanley.__wrapped__(t, w, 3, 10, method).terms
            assert got == tree_fstanley(t, w, 3, 10, method), method

    @pytest.mark.parametrize("t", ["B", "C", "D"])
    def test_golden_element_in_five_variables(self, t):
        # past three rows: the methods agree, and F_w is K-supersymmetric
        f = fstanley(t, parse_oneline("-3,4,-1,5,2"), 5, 10)
        assert f == fstanley(t, parse_oneline("-3,4,-1,5,2"), 5, 10, "unimodal")
        assert supersym_check(f)

    @pytest.mark.parametrize("t, steps", [("B", 321), ("C", 322), ("D", 163)])
    @pytest.mark.parametrize("method, step", [("compat", "_compat_step"), ("unimodal", "_unimodal_step")])
    def test_golden_element_step_count(self, monkeypatch, t, steps, method, step):
        # one step per (key, move): prefixes that end in one state and one
        # letter share a key, whatever the letter before
        real = getattr(hecke, step)
        calls = []

        def counting(*args):
            calls.append(args)
            real(*args)

        monkeypatch.setattr(hecke, step, counting)
        fstanley.__wrapped__(t, parse_oneline("-3,4,-1,5,2"), 3, 10, method)
        assert len(calls) == steps


class TestWeightScale:
    """The compat weights are summed scaled by 2^k, k the largest -e of the
    sequences found, and come out as the exact fractions of the tree walk."""

    @pytest.mark.parametrize("t", ["B", "C", "D"])
    def test_matches_tree_walk_on_w3_at_small_bounds(self, t):
        for w in group_elements(t, 3):
            for num_vars in (1, 2, 3):
                for bound in (0, 1, 3, 5, 7):
                    got = fstanley.__wrapped__(t, w, num_vars, bound).terms
                    assert got == tree_fstanley(t, w, num_vars, bound, "compat"), (
                        str(w), num_vars, bound)

    def test_half_integer_weights_are_scaled(self, monkeypatch):
        # type D's o-letters give e = -2 here, so the sum is taken at 2^2;
        # one more sequence of that weight leaves a total 2^2 does not divide
        w = parse_oneline("-1,-2")
        seqs = hecke._walk(*hecke._prefix_moves("D", w), 5, {((), 0, False): 1},
                           partial(hecke._compat_step, "D", var_code(Z, 2)))
        assert min(e for _, e, _ in seqs) == -2
        assert fstanley.__wrapped__("D", w, 2, 5).terms == tree_fstanley("D", w, 2, 5, "compat")
        real = hecke._walk

        def one_more(*args):
            seqs = real(*args)
            key = min(seqs, key=lambda s: s[1])
            return {**seqs, key: seqs[key] + 1}

        monkeypatch.setattr(hecke, "_walk", one_more)
        with pytest.raises(AssertionError, match="did not sum to integers"):
            fstanley.__wrapped__("D", w, 2, 5)


class TestMoveTable:
    """Each Demazure prefix's moves are built on its first visit and kept
    per (t, w) for every later walk."""

    def test_stays_lazy(self):
        # the rank-10 element is far longer than D, so no walk leaves the
        # empty word and the table holds that one prefix
        _clear_memos()
        w = parse_oneline("6,5,-9,-3,10,-7,8,1,-2,4")
        table = hecke._prefix_moves("D", w)[-1]
        for bound in (0, 3):
            assert fstanley("D", w, 2, bound) == 0
            assert sum(length("D", p) > bound for p, _ in table) == 0
            assert len(table) == 1

    @pytest.mark.parametrize("t", ["B", "C", "D"])
    def test_shallow_table_serves_deeper_walk(self, t):
        _clear_memos()
        elements = group_elements(t, 3)
        for w in elements:
            for method in ("compat", "unimodal"):
                fstanley(t, w, 2, 2, method)
        for w in elements:
            assert hecke_words(t, w, 6) == sorted(tree_hecke_words(t, w, 6)), str(w)
            for method in ("compat", "unimodal"):
                got = fstanley(t, w, 2, 6, method).terms
                assert got == tree_fstanley(t, w, 2, 6, method), (str(w), method)


class TestQuasisymmetric:
    def test_mperm_collapses_runs(self):
        assert mperm((2, 2, 3, 3, 2)) == (2, 3, 2)
        assert mperm(()) == ()

    def test_rejects_non_multipermutation(self):
        with pytest.raises(ValueError):
            quasi((1, 1), 2, 2)

    def test_num_vars_past_the_code_layout_is_refused(self):
        with pytest.raises(ValueError) as err:
            quasi((1, 2), MAX_INDEX + 2, 2)
        assert err.type is ValueError
        assert str(err.value) == f"variable index must be at most {MAX_INDEX}, got {MAX_INDEX + 2}"
        assert quasi((1, 2), 0, 2) == TruncPoly.zero(2)
        assert quasi((), 0, 2) == TruncPoly.const(1, 2)

    def test_matches_reference(self):
        # every multi-permutation over {0,1,2} of length <= 4: 46 of them,
        # at N = 1..3 and D = 0..6, 966 cases
        pis = [
            pi
            for n in range(5)
            for pi in itertools.product(range(3), repeat=n)
            if mperm(pi) == pi
        ]
        assert len(pis) == 46
        for pi in pis:
            for num_vars in (1, 2, 3):
                for bound in range(7):
                    want = quasi_reference(pi, num_vars, bound)
                    assert quasi(pi, num_vars, bound).terms == want, (pi, num_vars, bound)

    @staticmethod
    def record_steps(monkeypatch):
        """The (last, g) of each `_unimodal_step` call, in call order."""
        real = hecke._unimodal_step
        calls = []

        def recording(t, symbols, last, g, seqs, into):
            calls.append((last, g))
            real(t, symbols, last, g, seqs, into)

        monkeypatch.setattr(hecke, "_unimodal_step", recording)
        return calls

    def test_prunes_prefixes_that_cannot_finish(self, monkeypatch):
        # at D = 3 only the word 1,2,3 collapses to (1,2,3): a repeated letter
        # leaves too few letters for the rest of pi, so the step never sees one
        calls = self.record_steps(monkeypatch)
        assert quasi((1, 2, 3), 2, 3).terms == quasi_reference((1, 2, 3), 2, 3)
        assert calls == [(None, 1), (1, 2), (2, 3)]

    def test_prefixes_merge_across_the_letter_before_last(self, monkeypatch):
        # a prefix is keyed by its position and last letter: 1,1,2 and 1,2,2
        # both end at pi_2 = 2, so the pass extends them as one key
        calls = self.record_steps(monkeypatch)
        assert quasi((1, 2), 2, 4).terms == quasi_reference((1, 2), 2, 4)
        assert calls == [(None, 1), (1, 1), (1, 2), (1, 1), (1, 2), (2, 2), (1, 2), (2, 2)]

    def test_k_expansion_of_type_c(self):
        # the K-quasisymmetric expansion of F^C over multi-permutation words
        for w in group_elements("C", 2):
            lw = length("C", w)
            total = TruncPoly.zero(4)
            for a in hecke_words("C", w, 4):
                if mperm(a) == a:
                    total = total + TruncPoly.beta(len(a) - lw).with_bound(4) * quasi(a, 2, 4)
            assert total == fstanley("C", w, 2, 4), str(w)
