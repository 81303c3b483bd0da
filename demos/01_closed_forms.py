"""Closed-form detection probabilities at a glance.

Sweeps the single-threshold detector through both formula families,
then prints the full double-threshold report for the default band.
Run from the repo root: python3 demos/01_closed_forms.py
"""

from __future__ import annotations

import numpy as np

from crn_sense import (
    SensingParams,
    ThresholdPair,
    double_threshold_report,
    pd_gaussian,
    pd_marcum,
    pf_gamma,
    pf_gaussian,
    tails,
    threshold_for_target_pf,
)


def main() -> None:
    params = SensingParams()
    snr = params.snr_linear
    print(f"operating point: snr {params.snr_db} dB (linear {snr:.5f}), "
          f"window {params.num_samples}, order {params.time_bandwidth}")

    # chi-square family: threshold measured in total collected energy
    print("\nchi-square / Marcum family (exact for the order-u statistic)")
    print(f"{'lambda':>8} {'pf':>10} {'pd':>10}")
    for lam in np.linspace(4.0, 22.0, 7):
        print(f"{lam:8.2f} {pf_gamma(lam, params.time_bandwidth):10.6f} "
              f"{pd_marcum(lam, snr, params.time_bandwidth):10.6f}")

    # central-limit family: threshold measured in mean square per sample
    print("\ncentral-limit family (averaged 1000-sample window)")
    print(f"{'lambda':>8} {'pf':>10} {'pd':>10}")
    for lam in np.linspace(0.94, 1.10, 5):
        print(f"{lam:8.3f} {pf_gaussian(lam, params.noise_variance, params.num_samples):10.6f} "
              f"{pd_gaussian(lam, params.noise_variance, snr, params.num_samples):10.6f}")

    target = 0.1
    lam = threshold_for_target_pf(target, params.noise_variance, params.num_samples)
    back = pf_gaussian(lam, params.noise_variance, params.num_samples)
    print(f"\nthreshold for pf={target}: {lam:.6f} (round trip pf {back:.6f})")

    report = double_threshold_report(ThresholdPair(12.0, 18.0), tails(params, "gamma-marcum"))
    print("\ndouble threshold on the band [12, 18]")
    print(f"  false alarm        {report.pf:.6f}")
    print(f"  detection          {report.pd:.6f}")
    print(f"  miss               {report.pm:.6f}")
    print(f"  collision          {report.pc:.6f}")
    print(f"  band not available {report.pna:.6f}")


if __name__ == "__main__":
    main()
