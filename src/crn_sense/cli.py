"""Command-line front end.

Four subcommands: `tables` re-derives the published comparison tables
next to their printed values, `roc` sweeps operating curves for the
three detector variants, `collision` compares collision rates across
threshold bands, and `bisect` shows one threshold resolution in full.

A command parses its flags, calls the library and only formats the
result: `roc` is one `roc_table` call, `collision` one
`collision_sweep` call, `bisect` one `bisection_optimum_threshold`
call, and `tables` lays out beside the paper's rows the closed forms
of one unit-noise chi-square `tails` pair. It returns its tables (CSV
path -> rows) and the manifest values that replace raw flags; `main`
writes the CSVs and the manifest.

Every run is deterministic given its flags. The seed comes from
--seed, else the CRN_SENSE_SEED environment variable, else 0. CSV
cells use %.17g so files round-trip losslessly; a flat key=value
manifest is written next to each run's output. Exit codes: 0 on
success, 2 for usage or validation problems, 1 for runtime failures.
The parser is built once per process: every `main` call reuses it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
import time
from collections.abc import Sequence

import numpy as np

from . import __version__
from .analytic import DoubleThresholdReport, _closed_forms, _report, tails
from .detector import BisectionConfig, ThresholdPair, bisection_optimum_threshold
from .montecarlo import (
    GenerativeModel,
    RateEstimate,
    TrialConfig,
    collision_sweep,
    roc_table,
)
from .reference_tables import (
    COLLISION_ROWS,
    COLLISION_SENSED_ENERGY,
    DETECTION_ROWS,
    DOUBLE_BAND_HIGH,
    DOUBLE_BAND_LOW,
    FALSE_ALARM_ROWS,
    MISS_ROWS,
    PD_DOUBLE_PRINTED,
    PF_DOUBLE_PRINTED,
    PM_DOUBLE_PRINTED,
)
from .signal_model import SensingParams, SignalMode

__all__ = ["build_parser", "main"]

_MODES = {"baseband": SignalMode.BASEBAND_BPSK, "carrier": SignalMode.CARRIER_BPSK}

# --which -> (fixture rows, printed double-threshold value, printed rate name, difference name)
_COMPARISON_TABLES = {
    2: (DETECTION_ROWS, PD_DOUBLE_PRINTED, "pd", "improvement"),
    3: (FALSE_ALARM_ROWS, PF_DOUBLE_PRINTED, "pf", "deterioration"),
    4: (MISS_ROWS, PM_DOUBLE_PRINTED, "pm", "improvement"),
}


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_csv(path: str, rows: Sequence[Sequence[tuple[str, object]]]) -> None:
    """Write rows of (column name, value) pairs under the first row's names."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(name for name, _ in rows[0]) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(value) for _, value in row) + "\n")


def _write_manifest(
    anchor_path: str,
    command: str,
    parameters: dict,
    outputs: Sequence[str],
    duration: float,
) -> None:
    path = anchor_path + ".manifest.txt"
    lines = [f"command={command}", f"version={__version__}"]
    for key in sorted(parameters):
        lines.append(f"{key}={parameters[key]}")
    lines.append("outputs=" + ";".join(outputs))
    lines.append(f"duration_seconds={duration:.3f}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _resolve_seed(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    raw = os.environ.get("CRN_SENSE_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"CRN_SENSE_SEED must be an integer, got {raw!r}") from None


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be lo:hi:n, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"grid must be lo:hi:n with numeric fields, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("grid endpoints must be finite")
    if hi < lo:
        raise ValueError(f"grid upper end {hi!r} below lower end {lo!r}")
    if count < 1:
        raise ValueError(f"grid needs at least 1 point, got {count!r}")
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    grid = [lo + k * step for k in range(count - 1)]
    grid.append(hi)
    return grid


def _parse_pair(text: str) -> ThresholdPair:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"pair must be low:high, got {text!r}")
    try:
        low, high = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"pair must be low:high with numeric fields, got {text!r}") from None
    return ThresholdPair(lambda_low=low, lambda_high=high)


def _sensing_params(args: argparse.Namespace) -> SensingParams:
    return SensingParams(
        num_samples=args.samples,
        snr_db=args.snr_db,
        noise_variance=args.noise_var,
        time_bandwidth=args.u,
    )


def _trial_config(args: argparse.Namespace, seed: int) -> TrialConfig:
    return TrialConfig(
        num_trials=args.trials,
        seed=seed,
        params=_sensing_params(args),
        mode=_MODES[args.mode],
        parallel_chunks=args.chunks,
        model=GenerativeModel(args.model),
    )


def _suffixed(path: str, suffix: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}_{suffix}{ext or '.csv'}"


def _estimate_columns(name: str, estimate: RateEstimate) -> list[tuple[str, float]]:
    return [(name, estimate.rate), (f"{name}_ci", estimate.ci95_halfwidth)]


def _report_columns(report: DoubleThresholdReport) -> list[tuple[str, float]]:
    return [
        ("analytic_pf_double", report.pf),
        ("analytic_pd_double", report.pd),
        ("analytic_pm_double", report.pm),
        ("analytic_pc", report.pc),
        ("analytic_pna", report.pna),
    ]


def cmd_tables(args: argparse.Namespace) -> tuple[dict, dict]:
    # the tables' levels are in units of the noise variance, so the
    # chi-square pair is taken at unit noise; --samples and --noise-var
    # are only validated
    survivals = tails(dataclasses.replace(_sensing_params(args), noise_variance=1.0), "gamma-marcum")
    bisection = BisectionConfig()
    rows: list[list[tuple[str, object]]] = []
    if args.which in _COMPARISON_TABLES:
        pair = ThresholdPair(DOUBLE_BAND_LOW, DOUBLE_BAND_HIGH)
        fixture, baseline, printed_name, diff_name = _COMPARISON_TABLES[args.which]
        lambda_opts = [bisection_optimum_threshold(pair, row.sensed_energy, bisection).lambda_opt for row in fixture]
        # one call per tail over the band's levels and every row's lambda_opt,
        # busy first, so that an order past specfun's bound names marcum_q
        (pd, _), (pf, _) = _closed_forms(survivals[::-1], [pair.lambda_high, pair.lambda_low, *lambda_opts])
        double = _report_columns(_report(pf[:2], pd[:2]))
        for index, (fixture_row, lambda_opt, pf_opt, pd_opt) in enumerate(
            zip(fixture, lambda_opts, pf[2:], pd[2:]), start=1
        ):
            rows.append(
                [
                    ("row", index),
                    ("sensed_energy", fixture_row.sensed_energy),
                    ("lambda_low", pair.lambda_low),
                    ("lambda_high", pair.lambda_high),
                    ("lambda_opt", lambda_opt),
                    ("analytic_pf_opt", pf_opt),
                    ("analytic_pd_opt", pd_opt),
                    ("analytic_pm_opt", 1.0 - pd_opt),
                    *double,
                    ("paper_printed_lambda_opt", fixture_row.lambda_opt),
                    (f"paper_printed_{printed_name}_opt", fixture_row.probability),
                    (f"paper_printed_{printed_name}_double", baseline),
                    (f"paper_printed_{diff_name}", fixture_row.difference),
                    (f"recomputed_{diff_name}", fixture_row.probability - baseline),
                ]
            )
    else:
        pairs = [ThresholdPair(row.lambda_low, row.lambda_high) for row in COLLISION_ROWS]
        levels = [level for pair in pairs for level in (pair.lambda_high, pair.lambda_low)]
        (pd, pd_res), (pf, pf_res) = _closed_forms(survivals[::-1], levels, pairs, bisection)
        for index, (fixture_row, pair) in enumerate(zip(COLLISION_ROWS, pairs)):
            resolved = bisection_optimum_threshold(pair, COLLISION_SENSED_ENERGY, bisection)
            rows.append(
                [
                    ("row", index + 1),
                    ("lambda_low", pair.lambda_low),
                    ("lambda_high", pair.lambda_high),
                    ("sensed_energy", COLLISION_SENSED_ENERGY),
                    ("lambda_opt", resolved.lambda_opt),
                    *_report_columns(_report(pf[2 * index : 2 * index + 2], pd[2 * index : 2 * index + 2])),
                    ("analytic_pf_optimum", pf_res[index]),
                    ("analytic_pd_optimum", pd_res[index]),
                    ("analytic_pc_optimum", 1.0 - pd_res[index]),
                    ("paper_printed_lambda_opt", fixture_row.lambda_opt),
                    ("paper_printed_pc_double", fixture_row.pc_double),
                    ("paper_printed_pc_optimum", fixture_row.pc_optimum),
                    ("paper_printed_pf", fixture_row.pf),
                    ("paper_printed_reduction", fixture_row.reduction),
                    ("recomputed_reduction", fixture_row.pc_optimum - fixture_row.pc_double),
                ]
            )
    return {args.out: rows}, {}


def cmd_roc(args: argparse.Namespace) -> tuple[dict, dict]:
    seed = _resolve_seed(args.seed)
    config = _trial_config(args, seed)
    grid = _parse_grid(args.grid)
    band_width = args.lambda_high - args.lambda_low
    if band_width < 0.0:
        raise ValueError("lambda_high must be >= lambda_low")
    bisection = BisectionConfig(max_iter=args.max_iter)
    pairs = [ThresholdPair(lam, lam + band_width) for lam in sorted(grid, reverse=True)]
    # the closed forms read each level in units of the noise variance
    top = pairs[0].lambda_high
    noise_variance = config.params.noise_variance
    if not math.isfinite(top / noise_variance):
        raise ValueError(
            f"--noise-var {noise_variance!r} is too small for level {top!r}: their ratio is no finite double"
        )
    files = {
        _suffixed(args.out, suffix): [
            [("lambda", point.threshold), ("pf_analytic", point.pf), ("pd_analytic", point.pd),
             ("pf_emp", pf.rate), ("pd_emp", pd.rate), ("pf_ci", pf.ci95_halfwidth), ("pd_ci", pd.ci95_halfwidth)]
            for point, pf, pd in rows
        ]
        for suffix, rows in roc_table(pairs, config, bisection).items()
    }
    return files, {"seed": seed}


def cmd_collision(args: argparse.Namespace) -> tuple[dict, dict]:
    seed = _resolve_seed(args.seed)
    config = _trial_config(args, seed)
    if args.paper_table5:
        if args.pairs:
            raise ValueError("--paper-table5 and --pair are mutually exclusive")
        if args.energy is not None:
            raise ValueError("--paper-table5 and --energy are mutually exclusive")
        pairs = [ThresholdPair(r.lambda_low, r.lambda_high) for r in COLLISION_ROWS]
        energy = COLLISION_SENSED_ENERGY
    else:
        if not args.pairs:
            raise ValueError("no threshold pairs given; use --pair low:high or --paper-table5")
        pairs = [_parse_pair(text) for text in args.pairs]
        if args.energy is None:
            raise ValueError("--energy is required with explicit pairs")
        energy = args.energy
    bisection = BisectionConfig(max_iter=args.max_iter)
    table = collision_sweep(pairs, [energy], config, bisection)
    rows = [
        [
            ("row", index),
            ("lambda_low", entry.pair.lambda_low),
            ("lambda_high", entry.pair.lambda_high),
            ("sensed_energy", energy),
            ("lambda_opt", entry.lambda_opt),
            *_estimate_columns("pc_double", entry.pc_double),
            *_estimate_columns("pc_optimum", entry.pc_optimum),
            *_estimate_columns("pf", entry.pf),
        ]
        for index, entry in enumerate(table, start=1)
    ]
    pairs_text = ";".join(f"{p.lambda_low}:{p.lambda_high}" for p in pairs)
    return {args.out: rows}, {"seed": seed, "energy": energy, "pairs": pairs_text}


def cmd_bisect(args: argparse.Namespace) -> tuple[dict, dict]:
    pair = ThresholdPair(args.lambda_low, args.lambda_high)
    result = bisection_optimum_threshold(
        pair, args.energy, BisectionConfig(max_iter=args.max_iter)
    )
    print(",".join(_fmt(mid) for mid in result.trace))
    print(_fmt(result.lambda_opt))
    rows = [
        [("iteration", index), ("midpoint", mid), ("is_final", 1 if index == len(result.trace) else 0)]
        for index, mid in enumerate(result.trace, start=1)
    ]
    return ({args.out: rows} if args.out else {}), {}


def _add_sensing_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--snr-db", type=float, default=-14.0, help="signal-to-noise ratio in dB")
    parser.add_argument("--u", type=int, default=5, help="integer order of the chi-square family, 1 to 10^6")
    parser.add_argument("--samples", type=int, default=1000, help="window length of the sample model")
    parser.add_argument("--noise-var", type=float, default=1.0, help="per-sample noise power")


def _add_trial_flags(parser: argparse.ArgumentParser, trials_help: str) -> None:
    parser.add_argument("--trials", type=int, default=100000, help=trials_help)
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (default: CRN_SENSE_SEED or 0)")
    parser.add_argument("--chunks", type=int, default=1, help="parallel worker count; never changes results")
    parser.add_argument(
        "--model",
        choices=["sample", "chisq"],
        default="chisq",
        help="generative model: full sample windows, or the exact chi-square statistic",
    )
    parser.add_argument(
        "--mode",
        choices=["baseband", "carrier"],
        default="baseband",
        help="busy-hypothesis waveform (sample model only)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The program's parser, built once per process; callers must not mutate it."""
    parser = argparse.ArgumentParser(
        prog="crn-sense",
        description="Energy-detection spectrum sensing: closed forms, Monte Carlo, threshold resolution.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    tables = sub.add_parser("tables", help="re-derive a published comparison table next to its printed values")
    tables.add_argument("--which", type=int, choices=[2, 3, 4, 5], required=True, help="table number")
    tables.add_argument("--out", required=True, help="output CSV path")
    _add_sensing_flags(tables)
    tables.set_defaults(func=cmd_tables)

    roc = sub.add_parser("roc", help="operating curves for single, double, and resolved detectors")
    roc.add_argument("--grid", default="0:30:31", help="threshold grid as lo:hi:n")
    roc.add_argument(
        "--lambda-low", type=float, default=12.0,
        help="reference band lower level; only --lambda-high minus it is used, as each grid point's band width",
    )
    roc.add_argument(
        "--lambda-high", type=float, default=18.0,
        help="reference band upper level; only it minus --lambda-low is used, as each grid point's band width",
    )
    roc.add_argument("--max-iter", type=int, default=4, help="bisection depth for the resolved detector")
    roc.add_argument("--out", required=True, help="output CSV base path; one file per variant")
    _add_sensing_flags(roc)
    _add_trial_flags(roc, "Monte Carlo trials per hypothesis")
    roc.set_defaults(func=cmd_roc)

    collision = sub.add_parser("collision", help="collision comparison across threshold bands")
    collision.add_argument(
        "--pair", action="append", dest="pairs", metavar="PAIR", help="threshold band low:high; repeatable"
    )
    collision.add_argument("--paper-table5", action="store_true", help="use the published collision bands")
    collision.add_argument("--energy", type=float, default=None, help="representative fuzzy energy")
    collision.add_argument("--max-iter", type=int, default=4, help="bisection depth")
    collision.add_argument("--out", required=True, help="output CSV path")
    _add_sensing_flags(collision)
    _add_trial_flags(
        collision, "Monte Carlo trials in all, split between H0 and H1 (H1 gets the odd one), so at least 2"
    )
    collision.set_defaults(func=cmd_collision)

    bisect = sub.add_parser("bisect", help="print one threshold resolution trace")
    bisect.add_argument("--lambda-low", type=float, default=12.0, help="band lower level")
    bisect.add_argument("--lambda-high", type=float, default=18.0, help="band upper level")
    bisect.add_argument("--energy", type=float, required=True, help="sensed energy inside the band")
    bisect.add_argument("--max-iter", type=int, default=4, help="bisection depth")
    bisect.add_argument("--out", default=None, help="optional CSV path for the trace")
    bisect.set_defaults(func=cmd_bisect)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        start = time.monotonic()
        files, resolved = args.func(args)
        for path, rows in files.items():
            _write_csv(path, rows)
        if files:
            parameters = {key: value for key, value in vars(args).items() if key not in ("command", "func", "out")}
            _write_manifest(args.out, args.command, parameters | resolved, list(files), time.monotonic() - start)
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # ConvergenceError included
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"memory failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
