"""Shared acceptance reporting, a cold Monte Carlo block cache per test,
and a spy on the closed forms' survival calls.

test_acceptance registers one line per criterion before asserting,
so the summary below a run shows every criterion's verdict and what
it checked, failing or not (see the README on the published tables'
known quirks, which the criteria pin).
"""

from __future__ import annotations

import numpy as np
import pytest

from crn_sense import analytic, montecarlo

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


@pytest.fixture(autouse=True)
def _cold_block_cache():
    # a test that counts pool tasks or drawn blocks must not find an
    # earlier test's blocks already drawn
    montecarlo._block.cache_clear()


@pytest.fixture
def spy_tails(monkeypatch):
    """spy(module) replaces module.tails by one whose (idle, busy)
    survivals record the level count of each call, and returns the two
    lists of counts, idle first."""

    def recorded(survival, sizes):
        def call(x):
            sizes.append(np.size(x))
            return survival(x)

        return call

    def spy(module):
        calls = ([], [])

        def spied(params, form):
            return tuple(recorded(survival, sizes) for survival, sizes in zip(analytic.tails(params, form), calls))

        monkeypatch.setattr(module, "tails", spied)
        return calls

    return spy


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
