"""Acceptance suite: one test per shipping criterion.

Each test registers a single verdict line (see conftest) before its
assert, so `pytest` ends with a readable scoreboard. The published
tables carry three known quirks (README, "Known quirks"); each is
pinned by an exact assertion, so a check fails when a quirk changes
or a new inconsistency appears, not because the quirk exists.
Wall-clock times are reported on the scoreboard but never gate a
verdict; speed is measured by perfbench.
"""

from __future__ import annotations

import functools
import math
import os
import time

import numpy as np
import pytest
from scipy.stats import chi2

from crn_sense import montecarlo
from crn_sense.analytic import (
    double_threshold_report,
    pd_gaussian,
    pd_marcum,
    pf_gamma,
    pf_gaussian,
    resolved_occupied_probability,
    tails,
)
from crn_sense.cli import main
from crn_sense.detector import BisectionConfig, ThresholdPair, bisection_optimum_threshold
from crn_sense.montecarlo import GenerativeModel, TrialConfig, count_bands, draw_statistics
from crn_sense.reference_tables import (
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
from crn_sense.signal_model import SensingParams
from crn_sense.specfun import gaussian_q, marcum_q, reg_upper_gamma

from conftest import record_acceptance
from oracles import finite_sum_oracle, marcum_quad_oracle, noncentral_chi2_sf_oracle, sample_energy_sf_oracle

SNR = 10.0 ** (-1.4)
CHISQ_TAILS = tails(SensingParams(snr_db=-14.0, time_bandwidth=5), "gamma-marcum")  # at SNR, order 5, unit noise
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

# hand-derived dyadic resolutions of the published scenarios: the
# comparison-table band at its eight sensed energies, then the eight
# collision bands at sensed energy 14.5
FULL_PRECISION_BAND = [12.375, 13.875, 17.625, 15.375, 16.125, 17.625, 16.875, 17.625]
FULL_PRECISION_COLLISION = [14.75, 21.0625, 15.0, 13.8125, 13.375, 14.0, 13.6875, 14.8125]

# the tables print thresholds truncated to two decimals, so a print may
# sit up to 0.01 below its value; only this row sits more than 0.005
# from its print (README quirk 1)
OFF_BY_TRUNCATION = [(13.6875, 13.68)]

# (table, row) -> (printed difference, re-added from the printed
# operands): the two difference cells that disagree with their own
# operands, transcribed as printed (README quirk 2)
DIFFERENCE_ERRATA = {
    ("false-alarm", 1): (0.0542, 0.0524),  # 0.9259 - 0.8735, digits transposed
    ("collision", 2): (-0.0007, -0.0070),  # 0.9731 - 0.9801, a dropped zero
}


def truncate2(value: float) -> float:
    return math.floor(value * 100.0) / 100.0


def test_criterion_1_threshold_reproduction():
    """All sixteen published thresholds, exact and against their prints."""
    pair = ThresholdPair(DOUBLE_BAND_LOW, DOUBLE_BAND_HIGH)
    scenarios = [(pair, row.sensed_energy) for row in DETECTION_ROWS]
    scenarios += [
        (ThresholdPair(row.lambda_low, row.lambda_high), COLLISION_SENSED_ENERGY)
        for row in COLLISION_ROWS
    ]
    printed = [row.lambda_opt for row in DETECTION_ROWS]
    printed += [row.lambda_opt for row in COLLISION_ROWS]
    expected = FULL_PRECISION_BAND + FULL_PRECISION_COLLISION

    start = time.perf_counter()
    results = [bisection_optimum_threshold(p, e) for p, e in scenarios]
    elapsed = time.perf_counter() - start
    resolved = [result.lambda_opt for result in results]

    exact_ok = resolved == expected
    trunc_ok = all(truncate2(r) == pytest.approx(p, abs=1e-9) for r, p in zip(resolved, printed))
    iterations_ok = all(len(result.trace) == 4 for result in results)
    off_print = [
        (r, p) for r, p in zip(resolved, printed) if abs(r - p) > 0.005 + 1e-9
    ]
    quirk_ok = off_print == OFF_BY_TRUNCATION
    detail = (
        f"exact dyadic 16/16={exact_ok}; prints are two-decimal truncations 16/16={trunc_ok}; "
        f"four halvings 16/16={iterations_ok}; "
        f"more than 0.005 off print only (resolved, printed) {OFF_BY_TRUNCATION}={quirk_ok}"
    )
    if not quirk_ok:
        detail += f" [off print: {off_print}]"
    detail += f"; runtime {elapsed * 1e6:.0f} us"
    ok = exact_ok and trunc_ok and iterations_ok and quirk_ok
    record_acceptance(f"ACCEPTANCE 1: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_2_table_arithmetic():
    """Printed difference columns re-added from the printed fixtures.

    Every cell must agree within 0.0001 except the two documented
    errata, which must keep exactly their printed and re-added values.
    """
    inconsistent = {}
    for label, rows, baseline in (
        ("detection", DETECTION_ROWS, PD_DOUBLE_PRINTED),
        ("false-alarm", FALSE_ALARM_ROWS, PF_DOUBLE_PRINTED),
        ("miss", MISS_ROWS, PM_DOUBLE_PRINTED),
    ):
        for index, row in enumerate(rows, start=1):
            recomputed = row.probability - baseline
            if abs(recomputed - row.difference) > 1e-4 + 1e-12:
                inconsistent[(label, index)] = (row.difference, recomputed)
    for index, row in enumerate(COLLISION_ROWS, start=1):
        recomputed = row.pc_optimum - row.pc_double
        if abs(recomputed - row.reduction) > 1e-4 + 1e-12:
            inconsistent[("collision", index)] = (row.reduction, recomputed)
    errata_ok = inconsistent.keys() == DIFFERENCE_ERRATA.keys() and all(
        inconsistent[cell] == pytest.approx(values, abs=1e-9)
        for cell, values in DIFFERENCE_ERRATA.items()
    )
    errata = ", ".join(
        f"{label} row {index} printed {printed} re-adds to {recomputed:.4f}"
        for (label, index), (printed, recomputed) in DIFFERENCE_ERRATA.items()
    )
    detail = (
        f"{32 - len(inconsistent)}/32 difference cells consistent within 0.0001; "
        f"the rest are exactly the two errata ({errata})={errata_ok}"
    )
    if not errata_ok:
        detail += "; inconsistent cells: " + "; ".join(
            f"{label} row {index}: {recomputed:.4f} vs printed {printed}"
            for (label, index), (printed, recomputed) in inconsistent.items()
        )
    record_acceptance(f"ACCEPTANCE 2: {'PASS' if errata_ok else 'FAIL'} - {detail}")
    assert errata_ok, detail


def test_criterion_3_printed_probabilities_not_reproducible():
    """The published probability columns are fixtures, not model output.

    At the published operating point (snr 10^-1.4, order 5, band 12..18)
    every printed probability sits far from the closed forms here, so
    agreement is asserted to FAIL; reproducing them would mean the
    closed forms had been bent toward the prints.
    """
    gaps = [
        abs(pf_gamma(18.0, 5) - PF_DOUBLE_PRINTED),
        abs(pd_marcum(18.0, SNR, 5) - PD_DOUBLE_PRINTED),
        abs(1.0 - pd_marcum(18.0, SNR, 5) - PM_DOUBLE_PRINTED),
    ]
    for row, lam in zip(DETECTION_ROWS, FULL_PRECISION_BAND):
        gaps.append(abs(pd_marcum(lam, SNR, 5) - row.probability))
    for row, lam in zip(FALSE_ALARM_ROWS, FULL_PRECISION_BAND):
        gaps.append(abs(pf_gamma(lam, 5) - row.probability))
    for row, lam in zip(MISS_ROWS, FULL_PRECISION_BAND):
        gaps.append(abs(1.0 - pd_marcum(lam, SNR, 5) - row.probability))
    smallest = min(gaps)
    ok = smallest > 0.005
    detail = (
        f"all {len(gaps)} printed probabilities differ from the closed forms "
        f"by more than 0.005 (smallest gap {smallest:.4f})"
    )
    record_acceptance(f"ACCEPTANCE 3: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_4_special_function_oracles():
    """Brute-force oracle agreement for the special functions."""
    worst_marcum = 0.0
    for u in (1, 2, 5):
        for a in (0.0, 0.28, 1.0, 3.0):
            for b in (0.0, 1.0, 3.5, 6.0):
                gap = abs(marcum_q(u, a, b) - marcum_quad_oracle(u, a, b))
                worst_marcum = max(worst_marcum, gap)
    worst_gamma = 0.0
    for u in range(1, 11):
        for x in (0.0, 0.4, 1.0, 3.0, 6.0, 9.0, 15.0, 30.0):
            gap = abs(reg_upper_gamma(u, x) - finite_sum_oracle(u, x))
            worst_gamma = max(worst_gamma, gap)
    worst_reflection = max(
        abs(gaussian_q(x) + gaussian_q(-x) - 1.0) for x in np.linspace(-8.0, 8.0, 321)
    )
    ok = worst_marcum <= 1e-8 and worst_gamma <= 1e-8 and worst_reflection <= 1e-12
    detail = (
        f"marcum vs quadrature worst {worst_marcum:.2e} (<=1e-8); "
        f"gamma tail vs finite sum worst {worst_gamma:.2e} (<=1e-8); "
        f"reflection worst {worst_reflection:.2e} (<=1e-12)"
    )
    record_acceptance(f"ACCEPTANCE 4: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


RATE_TRIALS = 100000

# acceptance 5's pair grid, band width and exact (idle, busy) tails per
# model, which acceptance 10 reuses on the same draws
RATE_SWEEPS = {
    GenerativeModel.CHISQ: (
        np.linspace(4.0, 22.0, 10),
        6.0,
        lambda x: pf_gamma(x, 5),
        lambda x: pd_marcum(x, SNR, 5),
    ),
    GenerativeModel.SAMPLE: (
        np.linspace(0.92, 1.10, 10),
        0.06,
        lambda x: sample_energy_sf_oracle(x, 1000, 1.0, 0.0),
        lambda x: sample_energy_sf_oracle(x, 1000, 1.0, SNR),
    ),
}


@functools.lru_cache(maxsize=None)
def _rate_draws(model):
    """The (H0, H1) statistics acceptance 5 and 10 count, drawn once per
    module: conftest empties the block cache before every test."""
    draws = draw_statistics(TrialConfig(num_trials=RATE_TRIALS, seed=0, model=model))
    for stats in draws:
        stats.flags.writeable = False
    return draws


def _rate_sweep(model, grid, width, idle_tail, busy_tail):
    """(checks, failures, seconds) for all five rates over a pair grid."""
    trials = RATE_TRIALS
    start = time.monotonic()
    pairs = [ThresholdPair(lam, lam + width) for lam in grid]
    counts = [count_bands(stats, pairs) for stats in _rate_draws(model)]
    checks = 0
    failures = []
    for pair, h0, h1 in zip(pairs, *counts):
        lam = pair.lambda_low
        observed = {
            "pf": (h0.above / trials, idle_tail(pair.lambda_high)),
            "pd": (h1.above / trials, busy_tail(pair.lambda_high)),
            "pm": ((trials - h1.above) / trials, 1.0 - busy_tail(pair.lambda_high)),
            "pc": (h1.below / trials, 1.0 - busy_tail(pair.lambda_low)),
            "pna": ((h0.above + h0.inside) / trials, idle_tail(pair.lambda_low)),
        }
        for name, (emp, truth) in observed.items():
            checks += 1
            bound = 3.0 * math.sqrt(truth * (1.0 - truth) / trials)
            if abs(emp - truth) > bound:
                failures.append(f"{name}@{lam:.3g} off {abs(emp - truth):.5f} (3sig {bound:.5f})")
    return checks, failures, time.monotonic() - start


def test_criterion_5_chisq_model_agreement():
    """Exact-law generator versus the chi-square formula family."""
    checks, failures, seconds = _rate_sweep(GenerativeModel.CHISQ, *RATE_SWEEPS[GenerativeModel.CHISQ])
    ok = not failures
    detail = f"{checks - len(failures)}/{checks} rates within 3 sigma at 10^5 trials ({seconds:.1f}s)"
    if failures:
        detail += "; " + "; ".join(failures[:4])
    record_acceptance(f"ACCEPTANCE 5 (chi-square model): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _edgeworth_gap_bound(num_samples: int, snr_linear: float) -> float:
    """Largest CLT tail error the averaged window allows, to order 1/M.

    M*T/noise_variance is noncentral chi-square with M degrees of
    freedom and noncentrality nc = M*snr, so its skewness is
    8 (M + 3 nc) / (2 (M + 2 nc))^1.5. The leading Edgeworth
    correction to the normal tail is skew/6 (z^2 - 1) phi(z), largest
    in magnitude at z = 0; the next terms are O(1/M).
    """
    nc = num_samples * snr_linear
    skew = 8.0 * (num_samples + 3.0 * nc) / (2.0 * (num_samples + 2.0 * nc)) ** 1.5
    return skew / (6.0 * math.sqrt(2.0 * math.pi)) + 1.0 / num_samples


def test_criterion_5_sample_model_agreement():
    """Averaged-window generator versus its exact law; CLT family versus the same law.

    The generator's statistic M*T/noise_variance is exactly
    (noncentral) chi-square with M degrees of freedom, so the 3 sigma
    sweep takes its truth from that law. The central-limit formulas
    are an approximation of it: their worst gap on the sweep's
    thresholds must stay within the leading Edgeworth term plus 1/M
    (about 0.0069 at M = 1000), which a wrong mean or variance in
    either formula exceeds.
    """
    num_samples = 1000
    grid, width, *_ = RATE_SWEEPS[GenerativeModel.SAMPLE]
    checks, failures, seconds = _rate_sweep(GenerativeModel.SAMPLE, *RATE_SWEEPS[GenerativeModel.SAMPLE])
    thresholds = {float(x) for lam in grid for x in (lam, lam + width)}
    clt_gaps = []
    for name, snr, clt in (
        ("pf", 0.0, lambda x: pf_gaussian(x, 1.0, num_samples)),
        ("pd", SNR, lambda x: pd_gaussian(x, 1.0, SNR, num_samples)),
    ):
        gap = max(abs(clt(x) - sample_energy_sf_oracle(x, num_samples, 1.0, snr)) for x in thresholds)
        clt_gaps.append((name, gap, _edgeworth_gap_bound(num_samples, snr)))
    clt_ok = all(gap <= bound for _name, gap, bound in clt_gaps)
    ok = not failures and clt_ok
    detail = (
        f"generator vs exact chi-square law: {checks - len(failures)}/{checks} rates "
        f"within 3 sigma at 10^5 trials ({seconds:.1f}s); CLT worst gap vs Edgeworth bound: "
        + ", ".join(f"{name} {gap:.5f} (<={bound:.5f})" for name, gap, bound in clt_gaps)
    )
    if failures:
        detail += "; first offenders: " + "; ".join(failures[:3])
    record_acceptance(f"ACCEPTANCE 5 (sample model): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_6_identities_and_monotonicity():
    """Complement identity, threshold monotonicity, detection dominance."""
    rng = np.random.default_rng(23)
    problems = []

    lams = np.sort(rng.uniform(0.0, 40.0, 1200))
    if not all(
        double_threshold_report(ThresholdPair(lam, lam), CHISQ_TAILS).pm == 1.0 - pd_marcum(lam, SNR, 5)
        for lam in map(float, lams)
    ):
        problems.append("pm complement not exact")

    pf_vals = [pf_gamma(float(lam), 5) for lam in lams]
    pd_vals = [pd_marcum(float(lam), SNR, 5) for lam in lams]
    if any(a < b for a, b in zip(pf_vals, pf_vals[1:])):
        problems.append("pf not nonincreasing")
    if any(a < b for a, b in zip(pd_vals, pd_vals[1:])):
        problems.append("pd not nonincreasing")
    if any(pd < pf for pf, pd in zip(pf_vals, pd_vals)):
        problems.append("detection below false alarm at positive snr")

    gauss_lams = np.sort(rng.uniform(0.5, 1.6, 1200))
    gauss_pf = [pf_gaussian(float(lam), 1.0, 1000) for lam in gauss_lams]
    gauss_pd = [pd_gaussian(float(lam), 1.0, SNR, 1000) for lam in gauss_lams]
    if any(a < b for a, b in zip(gauss_pf, gauss_pf[1:])):
        problems.append("gaussian pf not nonincreasing")
    if any(pd < pf for pf, pd in zip(gauss_pf, gauss_pd)):
        problems.append("gaussian detection below false alarm")

    # empirical complement on a pinned run: integer counts by
    # construction, and the float rates happen to sum exactly too
    from crn_sense.montecarlo import estimate_double

    report = estimate_double(
        ThresholdPair(12.0, 18.0),
        TrialConfig(num_trials=100000, seed=2024, model=GenerativeModel.CHISQ),
    )
    if report.pm.successes + report.pd.successes != report.pd.trials:
        problems.append("empirical pm counts not complementary")
    if report.pm.rate + report.pd.rate != 1.0:
        problems.append("empirical pm.rate + pd.rate != 1.0")

    ok = not problems
    detail = "complement exact, rates monotone, pd >= pf on 1200-point grids, both families"
    if problems:
        detail = "; ".join(problems)
    record_acceptance(f"ACCEPTANCE 6: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_7_bisection_convergence():
    """Deep halving converges to the energy; shallow stays in band."""
    rng = np.random.default_rng(29)
    deep = BisectionConfig(max_iter=60)
    worst_gap = 0.0
    out_of_band = 0
    for _ in range(400):
        low = float(rng.uniform(0.0, 25.0))
        high = low + float(rng.uniform(0.25, 25.0))
        energy = float(rng.uniform(low, high))
        got = bisection_optimum_threshold(ThresholdPair(low, high), energy, deep).lambda_opt
        worst_gap = max(worst_gap, abs(got - energy))
        shallow = bisection_optimum_threshold(ThresholdPair(low, high), energy).lambda_opt
        if not low <= shallow <= high:
            out_of_band += 1
    for pair, energy in (
        (ThresholdPair(12.0, 18.0), 12.0),
        (ThresholdPair(12.0, 18.0), 18.0),
        (ThresholdPair(12.0, 18.0), 15.0),
    ):
        got = bisection_optimum_threshold(pair, energy).lambda_opt
        if not pair.lambda_low <= got <= pair.lambda_high:
            out_of_band += 1
    ok = worst_gap < 1e-9 and out_of_band == 0
    detail = (
        f"60-step worst |resolved - energy| = {worst_gap:.2e} (<1e-9) over 400 random bands; "
        f"default depth stayed in band {403 - out_of_band}/403"
    )
    record_acceptance(f"ACCEPTANCE 7: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_8_determinism_and_goldens(tmp_path, capsys):
    """Chunk-count invariance of CSV bytes plus golden-file checks."""
    problems = []

    args = ["roc", "--grid", "6:18:5", "--trials", "4096", "--seed", "11"]
    serial = str(tmp_path / "serial.csv")
    threaded = str(tmp_path / "threaded.csv")
    assert main(args + ["--out", serial, "--chunks", "1"]) == 0
    montecarlo._block.cache_clear()
    assert main(args + ["--out", threaded, "--chunks", "4"]) == 0
    for suffix in ("single", "double", "optimum"):
        with open(str(tmp_path / f"serial_{suffix}.csv"), encoding="utf-8") as fh:
            a = fh.read()
        with open(str(tmp_path / f"threaded_{suffix}.csv"), encoding="utf-8") as fh:
            b = fh.read()
        if a != b:
            problems.append(f"chunk count changed {suffix} bytes")

    for which, name in ((2, "tables2.csv"), (5, "tables5.csv")):
        out = str(tmp_path / name)
        assert main(["tables", "--which", str(which), "--out", out]) == 0
        with open(out, encoding="utf-8") as fh:
            got = fh.read()
        with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
            want = fh.read()
        if got != want:
            problems.append(f"table {which} deviates from golden")

    capsys.readouterr()
    assert main(["bisect", "--energy", "12.5"]) == 0
    if capsys.readouterr().out != "15,13.5,12.75,12.375\n12.375\n":
        problems.append("bisect trace deviates from golden")

    ok = not problems
    detail = "csv bytes invariant across chunks {1,4}; table and trace goldens match"
    if problems:
        detail = "; ".join(problems)
    record_acceptance(f"ACCEPTANCE 8: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_9_matched_false_alarm_audit():
    """At its own pf, the resolved detector never beats one threshold.

    The chi-square family has a monotone likelihood ratio in the
    energy, so by Karlin-Rubin the single threshold set to the
    resolved detector's pf is the most powerful test at that pf. At
    depth 1 the resolved detector is that threshold (the band's
    midpoint); every deeper bisection loses detection to it.
    """
    u = 5
    start = time.perf_counter()
    worst_depth1 = 0.0
    worst_deeper = math.inf
    for row in COLLISION_ROWS:
        pair = ThresholdPair(row.lambda_low, row.lambda_high)
        for depth in range(1, 13):
            config = BisectionConfig(max_iter=depth)
            pf, pd = (resolved_occupied_probability(pair, config, survival) for survival in CHISQ_TAILS)
            single = noncentral_chi2_sf_oracle(float(chi2.isf(pf, 2 * u)), 2 * u, 2.0 * SNR)
            margin = single - pd
            if depth == 1:
                worst_depth1 = max(worst_depth1, abs(margin))
            else:
                worst_deeper = min(worst_deeper, margin)
    elapsed = time.perf_counter() - start
    ok = worst_depth1 <= 1e-12 and worst_deeper > 1e-4
    detail = (
        f"single threshold at the resolved pf minus resolved pd, 8 table-5 bands: depth 1 worst "
        f"|margin| {worst_depth1:.1e} (<=1e-12); depths 2-12 worst margin {worst_deeper:.2e} (>1e-4); "
        f"{elapsed:.1f}s"
    )
    record_acceptance(f"ACCEPTANCE 9: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_10_resolved_detector_agreement():
    """The resolved detector's drawn counts against its closed form.

    On acceptance 5's draws and pair grids, at depths 1, 2, 4, 8 and 12,
    each resolved pf and pd must lie within 3 sigma of
    resolved_occupied_probability over the model's exact tails: the
    gamma/Marcum family for the chi-square model, scipy's chi-square
    law of M*T (sample_energy_sf_oracle) for the sample model.
    """
    trials = RATE_TRIALS
    start = time.monotonic()
    summaries = []
    failures = []
    for model, label in ((GenerativeModel.CHISQ, "chi-square model"), (GenerativeModel.SAMPLE, "sample model")):
        grid, width, idle_tail, busy_tail = RATE_SWEEPS[model]
        pairs = [ThresholdPair(lam, lam + width) for lam in grid]
        checks = misses = 0
        worst = 0.0
        for depth in (1, 2, 4, 8, 12):
            bisection = BisectionConfig(max_iter=depth)
            counts = [count_bands(stats, pairs, bisection) for stats in _rate_draws(model)]
            for pair, h0, h1 in zip(pairs, *counts):
                for name, band, tail in (("pf", h0, idle_tail), ("pd", h1, busy_tail)):
                    truth = resolved_occupied_probability(pair, bisection, tail)
                    gap = abs(band.resolved_occupied / trials - truth)
                    sigma = math.sqrt(truth * (1.0 - truth) / trials)
                    checks += 1
                    worst = max(worst, gap / sigma)
                    if gap > 3.0 * sigma:
                        misses += 1
                        failures.append(f"{label} {name}@{pair.lambda_low:.3g} depth {depth} off {gap / sigma:.2f} sigma")
        summaries.append(f"{label} {checks - misses}/{checks} (worst {worst:.2f} sigma)")
    ok = not failures
    detail = (
        "resolved pf and pd within 3 sigma of the closed form at depths 1, 2, 4, 8 and 12, 10^5 trials: "
        + "; ".join(summaries)
        + f" ({time.monotonic() - start:.1f}s)"
    )
    if failures:
        detail += "; first offenders: " + "; ".join(failures[:3])
    record_acceptance(f"ACCEPTANCE 10: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# the law of the printed detection-type columns: the order-5 Marcum
# survival at gamma = -4 dB with a = sqrt(gamma) (Digham, Alouini and
# Simon 2007), which is snr_linear = gamma / 2 in pd_marcum's
# a = sqrt(2 snr); acceptance 3's -14 dB model is a separate claim
PAPER_LAW_GAMMA_DB = -4.0
PAPER_LAW_ORDER = 5


def _printed_detection_cells():
    """(printed threshold, print, read as 1 - pd) for every detection-type cell.

    Table 2's pd and Table 4's pm at each printed lambda_opt and at the
    double detector's upper level 18; Table 5's pc_optimum at the
    printed lambda_opt and pc_double at the band's upper level.
    """
    cells = [(row.lambda_opt, row.probability, False) for row in DETECTION_ROWS]
    cells.append((DOUBLE_BAND_HIGH, PD_DOUBLE_PRINTED, False))
    cells += [(row.lambda_opt, row.probability, True) for row in MISS_ROWS]
    cells.append((DOUBLE_BAND_HIGH, PM_DOUBLE_PRINTED, True))
    for row in COLLISION_ROWS:
        cells += [(row.lambda_opt, row.pc_optimum, True), (row.lambda_high, row.pc_double, True)]
    return cells


def _worst_law_gap(gamma_db: float, order: int) -> float:
    levels, printed, as_miss = (np.array(column) for column in zip(*_printed_detection_cells()))
    pd = pd_marcum(levels, 10.0 ** (gamma_db / 10.0) / 2.0, order)
    return float(np.max(np.abs(np.where(as_miss, 1.0 - pd, pd) - printed)))


def test_criterion_11_printed_detection_columns_follow_one_law():
    """The printed detection, miss and collision columns follow one closed form.

    With the package's own pd_marcum at the printed (truncated)
    thresholds, all 34 detection-type cells of tables 2, 4 and 5 lie
    within a print's half unit, 5e-5, of the law above. The fit is
    sharp: half a dB either way, or order 4 or 6, misses some cell by
    more than 1e-3. The false-alarm columns are not checked; they fit
    no law tried (README, "Known quirks").
    """
    count = len(_printed_detection_cells())
    worst = _worst_law_gap(PAPER_LAW_GAMMA_DB, PAPER_LAW_ORDER)
    neighbours = {
        f"{PAPER_LAW_GAMMA_DB + 0.5:g} dB": _worst_law_gap(PAPER_LAW_GAMMA_DB + 0.5, PAPER_LAW_ORDER),
        f"{PAPER_LAW_GAMMA_DB - 0.5:g} dB": _worst_law_gap(PAPER_LAW_GAMMA_DB - 0.5, PAPER_LAW_ORDER),
        f"u={PAPER_LAW_ORDER - 1}": _worst_law_gap(PAPER_LAW_GAMMA_DB, PAPER_LAW_ORDER - 1),
        f"u={PAPER_LAW_ORDER + 1}": _worst_law_gap(PAPER_LAW_GAMMA_DB, PAPER_LAW_ORDER + 1),
    }
    sharp = min(neighbours.values()) > 1e-3
    ok = count == 34 and worst <= 5e-5 and sharp
    detail = (
        f"{count} printed pd/pm/pc cells vs pd_marcum(printed level, 10^({PAPER_LAW_GAMMA_DB:g}/10)/2, "
        f"u={PAPER_LAW_ORDER}): worst {worst:.2e} (<=5e-5); "
        "worst at the neighbours (>1e-3): " + ", ".join(f"{name} {gap:.2e}" for name, gap in neighbours.items())
    )
    record_acceptance(f"ACCEPTANCE 11: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail
