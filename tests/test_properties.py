"""Property tests on random small elements: the engine against the word
oracle, and the two oracle methods against each other."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ktrans.expand import verify_expansion  # noqa: E402
from ktrans.hecke import fstanley  # noqa: E402
from ktrans.weyl import elements_up_to_length, length  # noqa: E402

# The oracle's cost grows about fourfold per unit of length (a length-8
# element of rank 4 takes over 2 s at N=2), so elements are drawn from
# W_4 up to length 5; the method comparison at D=4 is trivially zero
# beyond length 4.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)


def elements(max_len):
    return st.sampled_from("BCD").flatmap(
        lambda t: st.tuples(st.just(t), st.sampled_from(elements_up_to_length(t, 4, max_len)))
    )


@PROPERTY
@given(elements(5))
def test_expansion_agrees_with_word_oracle(case):
    t, w = case
    assert verify_expansion(t, w, 2, length(t, w) + 1).ok


@PROPERTY
@given(elements(4))
def test_compat_and_unimodal_agree(case):
    t, w = case
    assert fstanley(t, w, 2, 4, "compat") == fstanley(t, w, 2, 4, "unimodal")
