"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import pytest

from latdft.acceptance import ALL_CRITERIA


@pytest.mark.parametrize("criterion", ALL_CRITERIA, ids=lambda c: c.check.__name__)
def test_criterion(criterion):
    result = criterion.run()
    print(result.line())
    assert result.passed, result.line()
