"""Property tests on random small elements: the engine against the word
oracle, the two oracle methods against each other, and the persisted memo
against the memo it was saved from."""

import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ktrans import expand  # noqa: E402
from ktrans.expand import expand_grassmannian, verify_expansion  # noqa: E402
from ktrans.hecke import fstanley  # noqa: E402
from ktrans.weyl import elements_up_to_length, group_elements, length  # noqa: E402

# Expansions are checked on W_4 up to length 10, where the word oracle
# takes well under a second per element; at length 13 it takes seconds and
# at 15 about a minute.  N covers every row of the expansion's shapes, so
# the oracle is nonzero and agreement is not the vacuous 0 = 0.  The
# method comparison at D=4 is trivially zero beyond length 4.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)


def elements(max_len):
    return st.sampled_from("BCD").flatmap(
        lambda t: st.tuples(st.just(t), st.sampled_from(elements_up_to_length(t, 4, max_len)))
    )


@PROPERTY
@given(elements(10))
def test_expansion_agrees_with_word_oracle(case):
    t, w = case
    num_vars = max([1, *map(len, expand_grassmannian(t, w).terms)])
    bound = length(t, w) + 1
    assert fstanley(t, w, num_vars, bound)
    assert verify_expansion(t, w, num_vars, bound).ok


@PROPERTY
@given(elements(4))
def test_compat_and_unimodal_agree(case):
    t, w = case
    assert fstanley(t, w, 2, 4, "compat") == fstanley(t, w, 2, 4, "unimodal")


W3 = [(t, w) for t in "BCD" for w in group_elements(t, 3)]


@PROPERTY
@given(st.lists(st.sampled_from(W3), max_size=12, unique=True))
def test_cache_round_trip(cases):
    expand._cache.clear()
    terms = [expand_grassmannian(t, w).terms for t, w in cases]
    saved = dict(expand._cache)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "expansions.ktrx")
        assert expand.save_cache(path) == len(saved)
        expand._cache.clear()
        assert expand.load_cache(path) == len(saved)
    assert expand._cache == saved
    assert [expand_grassmannian(t, w).terms for t, w in cases] == terms
