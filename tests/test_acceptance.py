"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import pytest

from latdft.acceptance import ALL_CRITERIA, Criterion


@pytest.mark.parametrize("criterion", ALL_CRITERIA, ids=lambda c: c.check.__name__)
def test_criterion(criterion):
    result = criterion.run()
    print(result.line())
    assert result.passed, result.line()


def test_overrun_fails_its_row():
    # The budget is seconds; the overrun text is derived from the number.
    result = Criterion(10, "slow", lambda: (True, "ok"), 0).run()
    assert not result.passed and result.details == "ok (over 0s budget)"
