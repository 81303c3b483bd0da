"""Operating points of the three detectors and the collision comparison.

`roc_table` evaluates the single, double and bisection-resolved
detectors on the same bands, each closed form next to its estimate.
The estimates reuse one set of trials for every band and detector
(common random numbers), so the detectors differ only through their
thresholds. The collision sweep then contrasts the double detector
with its bisection-resolved variant on the published threshold pairs.
"""

from __future__ import annotations

import numpy as np

from crn_sense import (
    BisectionConfig,
    GenerativeModel,
    ThresholdPair,
    TrialConfig,
    collision_sweep,
    roc_table,
)

PAIRS = [
    ThresholdPair(12.0, 18.0),
    ThresholdPair(8.0, 20.0),
    ThresholdPair(7.0, 22.0),
    ThresholdPair(5.0, 25.0),
]


def main() -> None:
    config = TrialConfig(num_trials=50_000, seed=3, model=GenerativeModel.CHISQ)
    # bands of width 6 whose lower level runs down from 26 to 2
    bands = [ThresholdPair(lam, lam + 6.0) for lam in np.linspace(26.0, 2.0, 9).tolist()]

    table = roc_table(bands, config, BisectionConfig())
    print("three detectors per band [lambda, lambda + 6], closed form vs shared-trial estimate")
    print(f"{'lambda':>7} {'detector':>8} {'pf':>9} {'pd':>9} {'pf_emp':>9} {'pd_emp':>9}")
    for index in range(len(bands)):
        for name, rows in table.items():
            point, pf, pd = rows[index]
            print(f"{point.threshold:7.2f} {name:>8} {point.pf:9.5f} {point.pd:9.5f} {pf.rate:9.5f} {pd.rate:9.5f}")
    print("single thresholds at the lower level, double at the upper one; the resolved")
    print("detector settles each fuzzy reading by bisection and lands in between")

    rows = collision_sweep(PAIRS, [14.5], config)
    print("\ncollision with the primary user, sensed energy 14.5 in every band")
    print(f"{'band':>12} {'lam_opt':>8} {'pc_double':>10} {'pc_optimum':>11} {'pf':>9}")
    for row in rows:
        band = f"[{row.pair.lambda_low:g}, {row.pair.lambda_high:g}]"
        print(f"{band:>12} {row.lambda_opt:8.4f} {row.pc_double.rate:10.5f} "
              f"{row.pc_optimum.rate:11.5f} {row.pf.rate:9.5f}")
    print("resolving fuzzy trials instead of abstaining trades a wider band's")
    print("protection for throughput; the sign of the change is reported, not assumed")


if __name__ == "__main__":
    main()
