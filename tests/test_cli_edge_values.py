"""Every numeric CLI flag at its edge values, through cli.main.

Each command runs with one numeric flag at a time set to 0, -1, nan,
+-inf, 1e-320, 1e308 and one step past each documented bound. Integer
flags parse integers only, so their non-integer values must be usage
errors (exit 2); they also get a huge integer where one is bounded.
The string flags with numeric fields, roc --grid and collision --pair,
also get those edges field by field, and malformed field lists.
Every run must end in exit 0, exit 2, or exit 1 with a numeric or
memory failure: no traceback, and no warning (pytest turns warnings
into errors, so one would fail the run as an exception would).

Flags that size an allocation (--trials, --samples, --u) run with
montecarlo._statistics, through which every command draws, replaced
by ten fixed statistics. Left out: roc --max-iter 13 to 50, which the
resolved closed form still sums cell by cell, 2^max_iter cells.
"""

from __future__ import annotations

import numpy as np
import pytest

from crn_sense import montecarlo
from crn_sense.cli import main

EDGES = ("0", "-1", "nan", "inf", "-inf", "1e-320", "1e308")
HUGE_INTEGER = str(2**64)

# name -> (argv before the flag under test, {flag: values past its documented bounds})
COMMANDS = {
    "tables": (
        ["tables", "--which", "2"],
        {"--which": ["1", "6"], "--snr-db": ["28.6", "3083"], "--u": ["1000001", HUGE_INTEGER],
         "--samples": [HUGE_INTEGER], "--noise-var": []},
    ),
    "roc": (
        ["roc", "--grid", "10:20:3", "--trials", "10"],
        {"--grid": ["nan:1:3", "0:inf:3", "1:0:3", "0:1:0", "0:1:1e3", "-1:1:3", "0:1e308:3",
                    "0:1.7976931348623157e308:2", "1e-320:2e-320:2", "a:b:c", "0:1:3:4"],
         "--lambda-low": ["18.5"], "--lambda-high": ["11.5"], "--max-iter": ["51", HUGE_INTEGER],
         "--snr-db": ["28.6", "3083"], "--u": ["1000001", HUGE_INTEGER], "--samples": ["8193", HUGE_INTEGER],
         "--noise-var": [], "--trials": [HUGE_INTEGER], "--seed": [HUGE_INTEGER], "--chunks": [HUGE_INTEGER]},
    ),
    "roc-sample": (
        ["roc", "--model", "sample", "--mode", "carrier", "--samples", "64", "--grid", "0.5:2:3",
         "--lambda-low", "0.9", "--lambda-high", "1.1", "--trials", "10"],
        {"--snr-db": ["3083"], "--noise-var": [], "--samples": ["8193"]},
    ),
    "collision": (
        ["collision", "--pair", "12:18", "--energy", "14", "--trials", "10"],
        {"--pair": ["nan:1", "1:0", "0:inf", "-1:1", "0:1e308", "1e-320:2e-320", "1:2:3"],
         "--energy": ["11.5", "18.5"], "--max-iter": ["2100", HUGE_INTEGER], "--snr-db": ["28.6", "3083"],
         "--u": ["1000001", HUGE_INTEGER], "--samples": ["8193", HUGE_INTEGER], "--noise-var": [],
         "--trials": ["1", HUGE_INTEGER], "--seed": [HUGE_INTEGER], "--chunks": [HUGE_INTEGER]},
    ),
    "bisect": (
        ["bisect", "--energy", "14"],
        {"--lambda-low": ["14.5"], "--lambda-high": ["13.5"], "--energy": ["11.5", "18.5"],
         "--max-iter": ["2100", HUGE_INTEGER]},
    ),
}

SIZES_ALLOCATION = ("--trials", "--samples", "--u")

CASES = [
    pytest.param(name, flag, [*EDGES, *past_bounds], id=f"{name}{flag}")
    for name, (_, flags) in COMMANDS.items()
    for flag, past_bounds in flags.items()
]


def ten_statistics(config, truth, count=None):
    return np.linspace(0.0, 40.0, 10)


@pytest.mark.parametrize("name, flag, values", CASES)
def test_edge_values_exit_cleanly(name, flag, values, tmp_path, monkeypatch, capsys):
    if flag in SIZES_ALLOCATION:
        monkeypatch.setattr(montecarlo, "_statistics", ten_statistics)
    prefix = COMMANDS[name][0]
    out = [] if name == "bisect" else ["--out", str(tmp_path / "out.csv")]
    for value in values:
        code = main([*prefix, *out, f"{flag}={value}"])
        err = capsys.readouterr().err
        assert "Traceback" not in err, (flag, value)
        if code == 1:
            assert err.startswith(("numeric failure:", "memory failure:")), (flag, value, err)
        else:
            assert code in (0, 2), (flag, value, code, err)
