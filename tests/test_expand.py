"""The transition recursion and its Grassmannian expansions."""

import json
import sys

import pytest

from ktrans.expand import (
    expand_grassmannian,
    expansion_poly,
    load_cache,
    save_cache,
    skew_expansion,
    transition_step,
    verify_expansion,
)
from ktrans.tableaux import ShiftedSkewShape, contains, gp, gq, w_shape
from ktrans.weyl import (
    SignedPermutation,
    _chains,
    _one_move,
    _support,
    _transition_window,
    group_elements,
    length,
    parse_oneline,
    shape,
)
from test_cli import GOLDEN, _depth
from test_tableaux import strict_partitions
from test_weyl import increases_past, ld_less  # kept with their own tests

GOLDEN_W = parse_oneline("-3,4,-1,5,2")

def step_terms(t, w):
    """The step as u -> (coefficient, beta exponent l(u) - l(w))."""
    lw = length(t, w)
    return {u: (c, length(t, u) - lw) for u, c in transition_step(t, w).items()}


class TestTransitionStep:
    @pytest.mark.parametrize("t", ["B", "C"])
    def test_golden_five_terms(self, t):
        assert step_terms(t, GOLDEN_W) == {
            parse_oneline("-3,4,2,-1"): (1, 0),
            parse_oneline("-3,4,-2,1"): (1, 0),
            parse_oneline("-3,4,-2,-1"): (1, 1),
            parse_oneline("-3,4,1,-2"): (1, 1),
            parse_oneline("-3,4,-1,-2"): (1, 2),
        }

    def test_b_simple_reflection(self):
        # F^B of 21 expands as 2 GP_1 + beta GP_2 symbols, i.e. GQ_1
        assert step_terms("B", parse_oneline("2,1")) == {
            parse_oneline("-1"): (2, 0),
            parse_oneline("-2,1"): (1, 1),
        }

    def test_rejects_grassmannian(self):
        with pytest.raises(ValueError):
            transition_step("B", parse_oneline("-2,1"))

    @pytest.mark.parametrize("t", ["B", "C", "D"])
    def test_outputs_descend_in_ld_order(self, t):
        for w in group_elements(t, 3):
            if w.is_grassmannian():
                continue
            for u, (coeff, beta_exp) in step_terms(t, w).items():
                assert ld_less(u, w)
                assert coeff > 0 and beta_exp >= 0


class TestExpand:
    def test_grassmannian_input_is_single_term(self):
        w = parse_oneline("-2,1")
        result = expand_grassmannian("B", w)
        assert result.terms == {(2,): 1}
        assert result.basis == "GP"

    def test_json_schema(self):
        doc = expand_grassmannian("B", GOLDEN_W).to_json_dict()
        assert doc["type"] == "B"
        assert doc["w"] == [-3, 4, -1, 5, 2]
        assert doc["length"] == 7
        assert doc["basis"] == "GP"
        by_lambda = {tuple(t["lambda"]): t for t in doc["terms"]}
        assert by_lambda[(4, 2, 1)]["coeff"] == 4
        assert by_lambda[(4, 2, 1)]["beta_power"] == 0
        assert by_lambda[(5, 3, 1)]["beta_power"] == 2

    @pytest.mark.parametrize("t", ["B", "C", "D"])
    def test_beta_powers_respect_homogeneity(self, t):
        for w in group_elements(t, 3):
            result = expand_grassmannian(t, w)
            for lam, coeff in result.terms.items():
                assert coeff > 0
                assert sum(lam) >= result.length or not lam


def _clear_memos() -> None:
    """Clear every lru_cache of the package, the expansion memo and the type
    A Grothendieck memo, as the benchmark does before each cold operation."""
    from ktrans import cli, expand, groth_a, hecke, kn, rings, tableaux, weyl

    for mod in (cli, expand, groth_a, hecke, kn, rings, tableaux, weyl):
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)) and getattr(
                obj, "__module__", ""
            ).startswith("ktrans"):
                obj.cache_clear()
    expand._cache.clear()
    groth_a._memo.clear()


class TestWorklist:
    """The recursion expands each key once; the step counts pin the work."""

    @pytest.mark.parametrize(
        "t, w, steps, terms",
        [
            ("C", "-3,4,-1,5,2", 25, 7),
            ("D", "-6,5,-2,7,8,1,3,4", 563, 68),
            ("B", "4,7,2,6,-8,1,-5,-3", 3031, 328),
        ],
    )
    def test_each_key_expanded_once(self, monkeypatch, t, w, steps, terms):
        from collections import Counter

        from ktrans import expand as expand_mod

        calls = Counter()
        step = expand_mod._step

        def counting_step(tt, u, a):
            calls[u] += 1
            return step(tt, u, a)

        monkeypatch.setattr(expand_mod, "_step", counting_step)
        monkeypatch.setattr(expand_mod, "_cache", {})
        expand_mod._expansion.cache_clear()
        result = expand_grassmannian(t, parse_oneline(w))
        assert max(calls.values()) == 1
        assert sum(calls.values()) == steps
        assert len(result.terms) == terms
        assert all(coeff > 0 for coeff in result.terms.values())

    @pytest.mark.parametrize("margin, refused", [(10, True), (20, False)])
    def test_too_deep_nesting_is_refused_and_not_kept(self, monkeypatch, margin, refused):
        # B 4,7,2,6,-8,1,-5,-3 nests steps with several outputs 9 deep: with
        # the recursion limit 10 frames past this test's depth the expansion
        # is refused and nothing is memoized, and with 20 it answers
        from ktrans import expand as expand_mod

        monkeypatch.setattr(expand_mod, "_cache", {})
        expand_mod._expansion.cache_clear()
        w = parse_oneline("4,7,2,6,-8,1,-5,-3")
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_depth() + margin)
        try:
            if refused:
                with pytest.raises(ValueError) as err:
                    expand_grassmannian("B", w)
            else:
                terms = expand_grassmannian("B", w).terms
        finally:
            sys.setrecursionlimit(limit)
            expand_mod._expansion.cache_clear()
        if refused:
            assert str(err.value) == f"the transition chain of {w} is too deep to expand"
            assert expand_mod._cache == {}
        else:
            golden = json.loads((GOLDEN / "expand-B-rank8.json").read_text(encoding="utf-8"))
            assert terms == {tuple(t["lambda"]): t["coeff"] for t in golden["terms"]}
            assert list(expand_mod._cache) == [("B", w)]


class TestMemo:
    """The in-process memo of every expanded key, at its two edges."""

    def test_cleared_memos_expand_cold(self, monkeypatch):
        from ktrans import expand as expand_mod

        want = expand_grassmannian("C", GOLDEN_W).terms
        _clear_memos()
        calls = []
        step = expand_mod._step

        def counting_step(tt, u, a):
            calls.append(u)
            return step(tt, u, a)

        monkeypatch.setattr(expand_mod, "_step", counting_step)
        assert expand_grassmannian("C", GOLDEN_W).terms == want
        assert len(calls) == 25

    @pytest.mark.parametrize("t", ["B", "C", "D"])
    def test_shared_memo_sweep_matches_cold(self, t):
        from ktrans import expand as expand_mod

        elements = group_elements(t, 4)
        cold = {}
        for w in elements:
            _clear_memos()
            cold[w] = expand_grassmannian(t, w).terms
        _clear_memos()
        for w in elements:
            assert expand_grassmannian(t, w).terms == cold[w], str(w)
        assert len(expand_mod._cache) == len(elements)
        _clear_memos()

    def test_shared_memo_sweep_of_w5(self, monkeypatch):
        # every element of W_5 in B, C and D through one memo: the documents'
        # digest and the memo's counts pin the sweep, and no step that
        # reaches the kernel is one that the step's one-move exit answers
        import hashlib
        import json

        from ktrans import expand as expand_mod

        chains = expand_mod._chains
        misses = []

        def checking_chains(t, k, v):
            top = max(len(v), k) + 1
            start = (*v, *range(len(v) + 1, top + 1))
            if _one_move(start, k) is not None:
                misses.append((t, k, v))
            return chains(t, k, v)

        monkeypatch.setattr(expand_mod, "_chains", checking_chains)
        _clear_memos()
        digest = hashlib.sha256()
        for t in "BCD":
            for w in group_elements(t, 5):
                doc = expand_grassmannian(t, w).to_json_dict()
                # the beta^0 part is the Stanley function of w, never zero,
                # which load_cache relies on
                assert any(term["beta_power"] == 0 for term in doc["terms"]), (t, w)
                text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
                digest.update(text.encode())
        info = expand_mod._expansion.cache_info()
        _clear_memos()
        assert digest.hexdigest() == (
            "0f3c2cf66c86ac693c0306dbf9aca7cd786c469975dca3055156eee4aad3325e"
        )
        assert tuple(info) == (25_854, 13_975, None, 13_975)
        assert misses == []

    def test_one_move_is_asked_inside_its_domain(self, monkeypatch):
        # every call the engine makes over W_5 in B, C and D, through one
        # memo, passes a window whose entries past k increase, with k inside
        # the window: the precondition that lets _one_move bisect for q
        from ktrans import expand as expand_mod

        one_move = expand_mod._one_move
        calls = []

        def recording_one_move(win, k):
            calls.append((tuple(win), k))
            return one_move(win, k)

        monkeypatch.setattr(expand_mod, "_one_move", recording_one_move)
        _clear_memos()
        for t in "BCD":
            for w in group_elements(t, 5):
                expand_grassmannian(t, w)
        _clear_memos()
        assert calls
        for win, k in calls:
            assert 1 <= k <= len(win) and increases_past(win, k), (win, k)

    def test_cache_holds_the_recursions_own_dict(self):
        # one copy of each expansion: `_cache` keeps the memo's dict, whose
        # keys are the leaves' shapes, plain tuples shared between roots
        from ktrans import expand as expand_mod

        _clear_memos()
        leaves = {}
        for t, w in (("B", GOLDEN_W), ("B", parse_oneline("-3,4,-2,1")), ("C", GOLDEN_W)):
            result = expand_grassmannian(t, w)
            found = expand_mod._expansion(t, tuple(w), w.least_descent())
            assert expand_mod._cache[(t, w)][1] is found
            assert result.terms == found and result.terms is not found
            for lam in found:
                assert type(lam) is tuple
                assert leaves.setdefault((t, lam), lam) is lam
        # the two B roots share their leaves: fewer shapes than terms
        assert len(leaves) < sum(len(g) for _, g in expand_mod._cache.values())
        _clear_memos()

    def test_cached_entry_serves_only_its_key(self):
        # a wrong entry for an intermediate key must not leak into its callers
        from ktrans import expand as expand_mod

        _clear_memos()
        want = expand_grassmannian("B", GOLDEN_W).terms
        inner = parse_oneline("-3,4,-2,1")
        assert inner in transition_step("B", GOLDEN_W)
        expand_grassmannian("B", inner)
        lw, terms = expand_mod._cache[("B", inner)]
        poisoned = dict(terms)
        poisoned[next(iter(poisoned))] = 99
        _clear_memos()
        expand_mod._cache[("B", inner)] = (lw, poisoned)
        try:
            assert expand_grassmannian("B", GOLDEN_W).terms == want
        finally:
            _clear_memos()


class TestMemoContract:
    """`_expansion` keeps an lru_cache's two methods on a plain dict memo,
    which ``_clear_memos`` and the benchmark's reset find by attribute."""

    def test_cleared_memo_is_empty(self):
        from ktrans import expand as expand_mod

        expand_grassmannian("B", GOLDEN_W)
        assert expand_mod._expansion.cache_info().currsize > 0
        _clear_memos()
        info = expand_mod._expansion.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
        assert expand_mod._memo == {}

    def test_no_module_level_class_has_cache_clear(self):
        # the scans call cache_clear() on what they find; on a class that
        # would be an unbound call, which raises
        from ktrans import cli, expand, groth_a, hecke, kn, rings, tableaux, weyl

        for mod in (cli, expand, groth_a, hecke, kn, rings, tableaux, weyl):
            for name, obj in vars(mod).items():
                if isinstance(obj, type):
                    assert not hasattr(obj, "cache_clear"), (mod.__name__, name)

    def test_chain_keys_share_the_dict_at_its_end(self):
        # B 2,3,4,5,1 has two outputs, each the head of a chain of four keys
        # that ends at a leaf: each key of a chain holds that leaf's dict
        from ktrans import expand as expand_mod

        _clear_memos()
        terms = expand_grassmannian("B", parse_oneline("2,3,4,5,1")).terms
        assert terms == {(4,): 2, (5,): 1}
        groups = {}
        for key, found in expand_mod._memo.items():
            groups.setdefault(id(found), (found, []))[1].append(key)
        assert len(expand_mod._memo) == expand_mod._expansion.cache_info().misses == 9
        assert sorted((len(keys), sorted(found.items())) for found, keys in groups.values()) == [
            (1, sorted(terms.items())), (4, [((4,), 1)]), (4, [((5,), 1)])
        ]
        _clear_memos()


class TestAssertions:
    """The engine's assertions fire, through expand_grassmannian, on a step
    that breaks them: each fault is injected into a function that the
    recursion's window step calls."""

    @pytest.fixture(autouse=True)
    def _cold_memo(self, monkeypatch):
        from ktrans import expand as expand_mod

        monkeypatch.setattr(expand_mod, "_cache", {})
        expand_mod._expansion.cache_clear()
        yield
        expand_mod._expansion.cache_clear()

    def test_negative_coefficient(self, monkeypatch):
        from ktrans import expand as expand_mod

        # v itself with no chain counts gets coefficient 0 + 0 - 1
        monkeypatch.setattr(expand_mod, "_chains", lambda t, k, v: {v: (0, 0)})
        with pytest.raises(AssertionError, match="< 0"):
            expand_grassmannian("B", GOLDEN_W)

    def test_output_not_below_in_ld_order(self, monkeypatch):
        from ktrans import expand as expand_mod

        monkeypatch.setattr(expand_mod, "_chains", lambda t, k, v: {GOLDEN_W: (1, 0)})
        with pytest.raises(AssertionError, match="LD order"):
            expand_grassmannian("B", GOLDEN_W)

    def test_output_escaping_the_support_bound(self, monkeypatch):
        from ktrans import expand as expand_mod

        w = parse_oneline("1,3,2")  # support 3, LD 2
        wide = parse_oneline("5,1,2,3,4")  # support 5, LD 1: below w in LD order
        assert ld_less(wide, w)
        assert wide.support + wide.least_descent() > w.support + w.least_descent()
        monkeypatch.setattr(expand_mod, "_chains", lambda t, k, v: {wide: (1, 0)})
        with pytest.raises(AssertionError, match="support bound"):
            expand_grassmannian("B", w)

    def test_step_that_does_not_raise_length(self, monkeypatch):
        from ktrans import expand as expand_mod

        monkeypatch.setattr(expand_mod, "_raises_length", lambda t, win, i, j: False)
        with pytest.raises(AssertionError, match="does not raise length by one"):
            expand_grassmannian("B", GOLDEN_W)

    # the one-move exit: B 2,-1 steps to -2,1 and B 1,-2 to -3,1,2 by it

    @pytest.mark.parametrize("w", ["2,-1", "1,-2"])
    def test_exit_steps(self, w):
        w = parse_oneline(w)
        v, _ = _transition_window(w, w.least_descent())
        assert _one_move(v, w.least_descent()) is not None

    def test_exit_step_that_does_not_raise_length(self, monkeypatch):
        from ktrans import expand as expand_mod

        monkeypatch.setattr(expand_mod, "_raises_length", lambda t, win, i, j: False)
        with pytest.raises(AssertionError, match="does not raise length by one"):
            expand_grassmannian("B", parse_oneline("2,-1"))

    def test_exit_output_not_below_in_ld_order(self, monkeypatch):
        from ktrans import expand as expand_mod

        # a scan that runs past the end moves 2,-1 to -3,2,1, of LD 2
        monkeypatch.setattr(expand_mod, "_one_move", lambda win, k: (len(win) + 1, len(win) + 1))
        with pytest.raises(AssertionError, match="-3,2,1 not below 2,-1 in LD order"):
            expand_grassmannian("B", parse_oneline("2,-1"))

    def test_exit_output_escaping_the_support_bound(self, monkeypatch):
        from ktrans import expand as expand_mod

        # an LD scan that reads 1 for -3,1,2 puts it below 1,-2 in LD order,
        # with support 3 + LD 1 past the bound 2 + 1 of 1,-2
        monkeypatch.setattr(expand_mod, "_least_descent", lambda u: 1)
        with pytest.raises(AssertionError, match="-3,1,2 escapes the support bound 3 of 1,-2"):
            expand_grassmannian("B", parse_oneline("1,-2"))

    def test_no_check_is_an_assert_statement(self):
        # python -O strips assert statements; every engine and cache check
        # is an explicit raise, so the package has none
        import ast
        from pathlib import Path

        import ktrans

        sources = sorted(Path(ktrans.__file__).parent.glob("*.py"))
        assert {"cli.py", "expand.py", "weyl.py"} <= {path.name for path in sources}
        for path in sources:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
            assert found == [], f"{path.name} asserts at lines {found}"


class TestWindowStep:
    """The recursion's window step against the public, wrapped forms."""

    @pytest.mark.parametrize("t", ["B", "C", "D"])
    def test_matches_transition_step_on_w4(self, t):
        from ktrans import expand as expand_mod

        for w in group_elements(t, 4):
            a = w.least_descent()
            if not a:
                continue
            outputs = expand_mod._step(t, tuple(w), a)
            for u, d, _ in outputs:
                # trimmed, so that no key is memoized twice
                assert type(u) is tuple and (not u or u[-1] != len(u)), (t, w, u)
                assert d == SignedPermutation(u).least_descent(), (t, w, u)
            wrapped = {SignedPermutation(u): c for u, _, c in outputs}
            assert len(wrapped) == len(outputs)
            assert transition_step(t, w) == wrapped, (t, str(w))
            # and against the kernel's chain counts at the transition window
            v, _ = _transition_window(w, a)
            v = tuple(v[: _support(v)])
            ends = {u[: _support(u)]: c for u, c in _chains(t, a, v).items()}
            want = {u: p + n - (u == v) for u, (p, n) in ends.items()}
            assert wrapped == {u: c for u, c in want.items() if c}, (t, str(w))


class TestOneMoveStep:
    """The step's one-move exit against its general path through
    ``_chains``, reached by a ``_one_move`` that never hits."""

    @staticmethod
    def general(monkeypatch, t, u, a):
        from ktrans import expand as expand_mod

        with monkeypatch.context() as m:
            m.setattr(expand_mod, "_one_move", lambda win, k: None)
            return expand_mod._step(t, u, a)

    @pytest.mark.parametrize("t", ["B", "C", "D"])
    def test_matches_general_path_on_w4(self, monkeypatch, t):
        from ktrans import expand as expand_mod

        exits = 0
        for w in group_elements(t, 4):
            a = w.least_descent()
            if not a:
                continue
            v, _ = _transition_window(w, a)
            exits += _one_move(v, a) is not None
            got = expand_mod._step(t, tuple(w), a)
            assert got == self.general(monkeypatch, t, tuple(w), a), (t, str(w))
        assert exits > 0

    @pytest.mark.parametrize(
        "t, w", [("C", "-3,4,-1,5,2"), ("D", "-6,5,-2,7,8,1,3,4"), ("B", "4,7,2,6,-8,1,-5,-3")]
    )
    def test_matches_general_path_on_every_key(self, monkeypatch, t, w):
        # every key that the cold expansion steps, as in TestWorklist
        from ktrans import expand as expand_mod

        keys = []
        step = expand_mod._step

        def recording_step(tt, u, a):
            keys.append((u, a))
            return step(tt, u, a)

        _clear_memos()
        with monkeypatch.context() as m:
            m.setattr(expand_mod, "_step", recording_step)
            expand_grassmannian(t, parse_oneline(w))
        _clear_memos()
        exits = 0
        for u, a in keys:
            v, _ = _transition_window(u, a)
            exits += _one_move(v, a) is not None
            assert step(t, u, a) == self.general(monkeypatch, t, u, a), (t, u)
        assert 0 < exits < len(keys)


class TestSkew:
    def test_b_and_d_routes_agree(self):
        for lam, mu in (((5, 3, 1), (2,)), ((4, 2), (1,)), ((3, 2, 1), ())):
            sh = ShiftedSkewShape(lam, mu)
            eB = expand_grassmannian("B", w_shape("B", sh))
            eD = expand_grassmannian("D", w_shape("D", sh))
            assert eB.terms == eD.terms, (lam, mu)
            assert skew_expansion("GP", lam, mu).terms == eB.terms, (lam, mu)

    def test_route_redundancy_exhaustive_small(self):
        # every skew shape inside the staircase (4,3,2,1)
        shapes = []
        from ktrans.tableaux import contains

        def strict_parts(maxi):
            out = [()]

            def rec(prefix, top):
                for p in range(top, 0, -1):
                    cand = prefix + (p,)
                    if contains((4, 3, 2, 1), cand):
                        out.append(cand)
                        rec(cand, p - 1)

            rec((), 4)
            return out

        for lam in strict_parts(4):
            for mu in strict_parts(4):
                if contains(lam, mu):
                    shapes.append((lam, mu))
        for lam, mu in shapes:
            sh = ShiftedSkewShape(lam, mu)
            eB = expand_grassmannian("B", w_shape("B", sh))
            eD = expand_grassmannian("D", w_shape("D", sh))
            assert eB.terms == eD.terms, (lam, mu)

    @pytest.mark.parametrize("basis, oracle", [("GP", gp), ("GQ", gq)], ids=["GP", "GQ"])
    def test_matches_tableau_oracle(self, basis, oracle):
        # every skew shape lam/mu with mu nonempty and strictly inside lam,
        # |lam| <= 8, at N = 3 and D = |lam/mu| + 2
        shapes = [
            (lam, mu)
            for lam in strict_partitions(8)
            for mu in strict_partitions(sum(lam) - 1)
            if mu and contains(lam, mu)
        ]
        assert len(shapes) == 172
        for lam, mu in shapes:
            sh = ShiftedSkewShape(lam, mu)
            bound = sh.size() + 2
            got = expansion_poly(skew_expansion(basis, lam, mu), 3, bound)
            assert got == oracle(sh, 3, bound), (basis, lam, mu)

    def test_trivial_straight_shape(self):
        assert skew_expansion("GQ", (3,)).terms == {(3,): 1}
        assert skew_expansion("GP", (3, 1)).terms == {(3, 1): 1}

    def test_gs_function_is_nonnegative(self):
        result = skew_expansion("GP", (2,), (1,))
        assert result.terms == {(1,): 2, (2,): 1}

    def test_skew_beta_power_convention(self):
        # beta powers are |nu| + |mu| - |lambda|
        result = skew_expansion("GP", (5, 3, 1), (2,))
        for lam in result.terms:
            assert result.beta_power(lam) == sum(lam) + 2 - 9

    def test_rejects_non_contained(self):
        with pytest.raises(ValueError):
            skew_expansion("GP", (2,), (3,))
        with pytest.raises(ValueError) as err:
            skew_expansion("GX", (2,))
        assert err.type is ValueError and str(err.value) == "basis must be GP or GQ, got 'GX'"

    @pytest.mark.parametrize("outer", [(2.0, 1), (True,), (2, True), ("2",)])
    def test_rejects_parts_that_are_not_ints(self, outer):
        with pytest.raises(ValueError, match="parts must be positive integers"):
            skew_expansion("GP", outer)


class TestVerify:
    def test_gq_one_case(self):
        rep = verify_expansion("C", parse_oneline("-1"), 2, 3)
        assert rep.ok

    def test_d_grassmannian_case(self):
        rep = verify_expansion("D", parse_oneline("-2,-1"), 2, 3)
        assert rep.ok

    def test_skew_gp_case(self):
        for lam, mu, bound in (((2,), (1,), 5), ((5, 3, 1), (2,), 8)):
            sh = ShiftedSkewShape(lam, mu)
            rep = verify_expansion("B", w_shape("B", sh), 3, bound)
            assert rep.ok, (lam, mu)
            assert expansion_poly(rep.expansion, 3, bound) == gp(sh, 3, bound), (lam, mu)

    @pytest.mark.parametrize("t", ["B", "C", "D"])
    def test_oracle_agreement_rank_three(self, t):
        for w in group_elements(t, 3):
            if length(t, w) <= 4:
                assert verify_expansion(t, w, 3, 6).ok, (t, str(w))

    def test_golden_element_deep_truncation(self):
        assert verify_expansion("B", GOLDEN_W, 3, 8).ok

    def test_rank_eight_past_three_rows(self):
        # N = 5 variables see every shape of this expansion (up to five rows),
        # where GP of a shape with more rows than variables vanishes; D =
        # l(w) = 16 checks the beta^0 part, every |lambda| = 16 term
        rep = verify_expansion("D", parse_oneline("-6,5,-2,7,8,1,3,4"), 5, 16)
        assert rep.ok
        terms = rep.expansion.terms
        assert terms[(6, 4, 3, 2, 1)] == 4
        four_rows = [lam for lam in terms if len(lam) == 4 and sum(lam) == 16]
        assert len(four_rows) == 7
        # any one of those coefficients bumped by one no longer matches
        for lam in four_rows:
            assert rep.difference + gp(ShiftedSkewShape(lam), 5, 16), lam


class TestShapeBounds:
    """What the version 3 cache loader relies on: a term's shape names its
    Grassmannian element, and lambda_1 stays within support + LD."""

    @pytest.mark.parametrize("t", ["B", "C", "D"])
    def test_shape_is_injective_on_grassmannian_elements(self, t):
        grassmannian = [w for w in group_elements(t, 5) if w.is_grassmannian()]
        shapes = {shape(t, w) for w in grassmannian}
        assert len(shapes) == len(grassmannian) == 2 ** (5 if t != "D" else 4)

    @pytest.mark.parametrize("t", ["B", "C", "D"])
    def test_first_part_within_support_plus_ld(self, t):
        attained = False
        for w in group_elements(t, 4):
            top = w.support + w.least_descent()
            first = max((lam[0] for lam in expand_grassmannian(t, w).terms if lam), default=0)
            assert first <= top, str(w)
            attained = attained or first == top
        assert attained


class TestCachePersistence:
    def test_type_a_raises_before_the_memo(self, tmp_path, monkeypatch):
        from ktrans import expand as expand_mod

        monkeypatch.setattr(expand_mod, "_cache", {})
        with pytest.raises(ValueError, match="type B, C, or D"):
            expand_grassmannian("A", parse_oneline("2,1"))
        assert expand_mod._cache == {}
        want = expand_grassmannian("B", parse_oneline("2,1")).terms
        path = str(tmp_path / "expansions.ktrx")
        assert save_cache(path) == 1
        expand_mod._cache.clear()
        assert load_cache(path) == 1
        assert expand_mod._cache == {("B", (2, 1)): (1, want)}

    def test_round_trip(self, tmp_path):
        want = expand_grassmannian("B", GOLDEN_W).terms
        path = str(tmp_path / "expansions.ktrx")
        count = save_cache(path)
        assert count >= 1

        from ktrans import expand as expand_mod

        saved = dict(expand_mod._cache)
        expand_mod._cache.clear()
        loaded = load_cache(path)
        assert loaded == count
        assert expand_mod._cache == saved
        assert expand_grassmannian("B", GOLDEN_W).terms == want

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ktrx"
        path.write_bytes(b"not a cache")
        with pytest.raises(ValueError):
            load_cache(str(path))

    def test_rejects_truncated_header(self, tmp_path):
        path = tmp_path / "short.ktrx"
        path.write_bytes(b"KTRX\x01\x00")
        with pytest.raises(ValueError):
            load_cache(str(path))

    def test_corrupt_last_record_merges_nothing(self, tmp_path):
        from ktrans import expand as expand_mod

        want = expand_grassmannian("B", GOLDEN_W).terms
        expand_grassmannian("B", parse_oneline("2,1"))
        path = tmp_path / "expansions.ktrx"
        assert save_cache(str(path)) >= 2
        path.write_bytes(path.read_bytes()[:-1])
        expand_mod._cache.clear()
        with pytest.raises(ValueError):
            load_cache(str(path))
        assert expand_mod._cache == {}
        assert expand_grassmannian("B", GOLDEN_W).terms == want

    def test_w3_sweep_bytes_and_lengths(self, tmp_path):
        # the version 3 bytes of a W_3 sweep are pinned, and every key loaded
        # back keeps l(w) beside its terms
        import hashlib

        from ktrans import expand as expand_mod

        _clear_memos()
        for t in "BCD":
            for w in group_elements(t, 3):
                expand_grassmannian(t, w)
        path = tmp_path / "expansions.ktrx"
        assert save_cache(str(path)) == 120
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "325f221ebf167e87c4668180f7974d7fd0e7b4e867201af1f05836ee1e402559"
        )
        _clear_memos()
        assert load_cache(str(path)) == 120
        for (t, w), (lw, _) in expand_mod._cache.items():
            assert lw == length(t, w), (t, w)
        _clear_memos()

    @pytest.mark.parametrize("t", ["B", "C", "D"])
    def test_served_hit_equals_cold(self, tmp_path, t):
        # a hit, in process or loaded from a file, is the cold result: the
        # same length, terms and document, served with no recursion
        from ktrans import expand as expand_mod

        _clear_memos()
        cold = {w: expand_grassmannian(t, w) for w in group_elements(t, 4)}
        path = str(tmp_path / "expansions.ktrx")
        save_cache(path)
        hits = {w: expand_grassmannian(t, w) for w in cold}
        _clear_memos()
        assert load_cache(path) == len(cold)
        for w, want in cold.items():
            for got in (hits[w], expand_grassmannian(t, w)):
                assert got.length == want.length, str(w)
                assert got.terms == want.terms, str(w)
                assert got.to_json_dict() == want.to_json_dict(), str(w)
        assert expand_mod._expansion.cache_info().currsize == 0
        _clear_memos()

    def test_file_mode_follows_the_umask(self, tmp_path):
        import os
        import stat

        expand_grassmannian("B", parse_oneline("2,1"))
        path = tmp_path / "expansions.ktrx"
        old = os.umask(0o022)
        try:
            save_cache(str(path))
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o644

    def test_concurrent_writers(self, tmp_path):
        import threading

        expand_grassmannian("B", GOLDEN_W)
        path = str(tmp_path / "expansions.ktrx")
        errors = []

        def writer():
            try:
                for _ in range(20):
                    save_cache(path)
            except OSError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        assert [p.name for p in tmp_path.iterdir()] == ["expansions.ktrx"]
        assert load_cache(path) >= 1

    # one version 3 record per rule of load_cache, each after a good record
    # so that a partial merge would show, with the message that names it
    REJECTED = {
        "part-float": (["B", [2, 1], [[[2.0], 1]]], "parts must be positive integers: (2.0,)"),
        "part-bool": (["B", [2, 1], [[[True], 1]]], "parts must be positive integers: (True,)"),
        "part-zero": (["B", [2, 1], [[[1, 0], 1]]], "parts must be positive integers: (1, 0)"),
        "part-negative": (["B", [2, 1], [[[-1], 1]]], "parts must be positive integers: (-1,)"),
        "parts-equal": (["B", [2, 1], [[[2, 2], 1]]], "parts must strictly decrease: (2, 2)"),
        "parts-rising": (["B", [2, 1], [[[1, 2], 1]]], "parts must strictly decrease: (1, 2)"),
        # a non-strict shape is named so even when its first part is too big
        "parts-equal-above-bound": (
            ["B", [2, 1], [[[5, 5], 1]]], "parts must strictly decrease: (5, 5)"
        ),
        "part-float-above-bound": (
            ["B", [2, 1], [[[9.0], 1]]], "parts must be positive integers: (9.0,)"
        ),
        "part-above-bound": (
            ["B", [2, 1], [[[4], 1]]], "the shape (4,) exceeds support + LD = 3 of 2,1"
        ),
        "size-below-length": (
            ["B", [2, 1], [[[], 1]]], "the shape () has |lambda| below l(2,1) = 1"
        ),
        "shape-repeats": (
            ["B", [2, 1], [[[1], 1], [[2], 1], [[1], 5]]], "the shape (1,) repeats in the entry of 2,1"
        ),
        "no-values": (["B", [2, 1], []], "the entry of 2,1 has no values"),
        # F_{2,1} = 2 GP_1 + beta GP_2: its beta^0 part cannot be missing
        "no-shape-at-length": (
            ["B", [2, 1], [[[2], 1]]], "the entry of 2,1 has no shape of size l(2,1) = 1"
        ),
        "parts-a-string": (["B", [2, 1], [["21", 1]]], "expected a list, not str"),
        "parts-empty-string": (["B", [2, 1], [["", 1]]], "expected a list, not str"),
        "parts-an-object": (["B", [2, 1], [[{}, 1]]], "expected a list, not dict"),
        "coeff-float": (["B", [2, 1], [[[1], 2.0]]], "the coefficient 2.0 is not a positive integer"),
        "coeff-true": (["B", [2, 1], [[[1], True]]], "the coefficient True is not a positive integer"),
        "coeff-zero": (["B", [2, 1], [[[1], 0]]], "the coefficient 0 is not a positive integer"),
        "pair-too-long": (["B", [2, 1], [[[1], 1, 1]]], "too many values to unpack (expected 2)"),
        "pair-too-short": (
            ["B", [2, 1], [[[1]]]], "not enough values to unpack (expected 2, got 1)"
        ),
        "key-D-odd-negatives": (
            ["D", [-1, 2], [[[1], 1]]], "the key -1 is not in the group of type D"
        ),
        "key-type-A": (["A", [2, 1], [[[1], 1]]], "a cache entry needs type B, C, or D, not 'A'"),
        "window-float": (
            ["B", [2.0, 1], [[[1], 1]]], "window entries must be nonzero integers: [2.0, 1]"
        ),
        "window-zero": (
            ["B", [0, 1], [[[1], 1]]], "window entries must be nonzero integers: [0, 1]"
        ),
        "window-repeats": (
            ["B", [2, -2], [[[1], 1]]], "repeated absolute value 2 in window [2, -2]"
        ),
        "window-gap": (
            ["B", [1, 3], [[[1], 1]]], "window [1, 3] is not a signed permutation of 1..2"
        ),
        # the shape of the Grassmannian B -2,1 is (2,)
        "grassmannian-other-shape": (
            ["B", [-2, 1], [[[2, 1], 1]]],
            "the entry of the Grassmannian key -2,1 is not its shape alone",
        ),
        "grassmannian-coeff-two": (
            ["B", [-2, 1], [[[2], 2]]],
            "the entry of the Grassmannian key -2,1 is not its shape alone",
        ),
    }

    @staticmethod
    def _write(tmp_path, *records) -> str:
        import json

        path = tmp_path / "expansions.ktrx"
        path.write_text(json.dumps({"version": 3, "entries": [["B", [-1], [[[1], 1]]], *records]}))
        return str(path)

    @pytest.mark.parametrize("record, message", REJECTED.values(), ids=REJECTED.keys())
    def test_each_rule_rejects_with_its_message(self, tmp_path, monkeypatch, record, message):
        from ktrans import expand as expand_mod

        held = {("C", (2, 1)): (1, {(1,): 2, (2,): 1})}
        monkeypatch.setattr(expand_mod, "_cache", dict(held))
        path = self._write(tmp_path, record)
        with pytest.raises(ValueError) as err:
            load_cache(path)
        assert str(err.value) == f"{path} is not an expansion cache: ValueError: {message}"
        assert expand_mod._cache == held

    def test_repeated_key_after_trimming(self, tmp_path, monkeypatch):
        from ktrans import expand as expand_mod

        monkeypatch.setattr(expand_mod, "_cache", {})
        path = self._write(tmp_path, ["B", [2, 1, 3], [[[1], 2]]], ["B", [2, 1], [[[1], 2]]])
        with pytest.raises(ValueError) as err:
            load_cache(path)
        assert str(err.value) == f"{path} is not an expansion cache: ValueError: the key B 2,1 repeats"
        assert expand_mod._cache == {}

    @pytest.mark.parametrize(
        "record, key",
        [
            (["B", [], [[[], 1]]], ("B", ())),  # the identity is its own empty shape
            (["B", [2, 1], [[[1], 1], [[3], 1]]], ("B", (2, 1))),  # lambda_1 = support + LD
            (["B", [2, 1], [[[1], 1]]], ("B", (2, 1))),  # |lambda| = l(w)
            (["D", [-2, -1, 3], [[[1], 1]]], ("D", (-2, -1))),  # trimmed; (1,) is the shape of D -2,-1
        ],
        ids=["identity", "first-part-at-bound", "size-at-length", "trimmed-grassmannian-D"],
    )
    def test_accepts_the_edge_cases(self, tmp_path, monkeypatch, record, key):
        from ktrans import expand as expand_mod

        monkeypatch.setattr(expand_mod, "_cache", {})
        assert load_cache(self._write(tmp_path, record)) == 2
        lw = length(key[0], SignedPermutation(key[1]))
        assert expand_mod._cache == {
            ("B", (-1,)): (1, {(1,): 1}), key: (lw, {tuple(lam): c for lam, c in record[2]})
        }
