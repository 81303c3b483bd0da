"""Shared acceptance reporting, and a cold Monte Carlo block cache per test.

test_acceptance registers one line per criterion before asserting,
so the summary below a run shows every criterion's verdict and what
it checked, failing or not (see the README on the published tables'
known quirks, which the criteria pin).
"""

from __future__ import annotations

import pytest

from crn_sense import montecarlo

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


@pytest.fixture(autouse=True)
def _cold_block_cache():
    # a test that counts pool tasks or drawn blocks must not find an
    # earlier test's blocks already drawn
    montecarlo._block.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
