"""Acceptance: every check of the verification battery passes.

The battery is `cli.CHECKS`, the same list `ktrans verify-suite` runs; run
`pytest -v tests/test_acceptance.py` for one pass/fail line per check.
"""

import pytest

from ktrans import cli


@pytest.mark.parametrize("index", range(len(cli.CHECKS)), ids=[name for name, _ in cli.CHECKS])
def test_check(index):
    name, ok, detail = cli._run_check(index)
    assert ok, f"{name}: {detail}"
