"""Bisection resolution of a fuzzy energy into its own threshold.

Walks the four-step halving for the scenarios behind the published
comparison tables, prints each trace, and shows what the resolved
detector's error rates look like in closed form.
"""

from __future__ import annotations

from crn_sense import (
    BisectionConfig,
    SensingParams,
    ThresholdPair,
    bisection_optimum_threshold,
    resolved_occupied_probability,
    tails,
)

BAND = ThresholdPair(12.0, 18.0)
ENERGIES = [12.5, 14.0, 15.0, 15.5, 16.0, 16.5, 17.0, 17.5]


def main() -> None:
    # -14 dB, order 5, unit noise: the chi-square survival pair
    idle, busy = tails(SensingParams(snr_db=-14.0, time_bandwidth=5), "gamma-marcum")

    print(f"band [{BAND.lambda_low}, {BAND.lambda_high}], default 4 halvings")
    print(f"{'energy':>7}  {'trace':<34} {'resolved':>9}")
    for energy in ENERGIES:
        result = bisection_optimum_threshold(BAND, energy)
        trace = " -> ".join(f"{m:g}" for m in result.trace)
        print(f"{energy:7.2f}  {trace:<34} {result.lambda_opt:9.4f}")

    # four halvings resolve to multiples of (high - low) / 16, so the
    # resolved values are exact binary fractions; two-decimal prints
    # drop the trailing digits of e.g. 13.6875
    value = bisection_optimum_threshold(ThresholdPair(2.0, 19.0), 14.5).lambda_opt
    print(f"\nexample full precision: {value!r} (a table would print 13.68)")

    deep = bisection_optimum_threshold(BAND, 16.0, BisectionConfig(max_iter=60))
    print(f"60 halvings pin the energy itself: {deep.lambda_opt!r}")

    print("\nresolved-detector closed forms versus the plain detectors")
    print(f"{'detector':<28} {'pf':>10} {'pd':>10}")
    pf_res, pd_res = (resolved_occupied_probability(BAND, BisectionConfig(), s) for s in (idle, busy))
    print(f"{'single at lower level':<28} {idle(BAND.lambda_low):10.6f} {busy(BAND.lambda_low):10.6f}")
    print(f"{'bisection resolved':<28} {pf_res:10.6f} {pd_res:10.6f}")
    print(f"{'single at upper level':<28} {idle(BAND.lambda_high):10.6f} {busy(BAND.lambda_high):10.6f}")
    print("the resolved detector lands between the two fixed ones")


if __name__ == "__main__":
    main()
