"""Printed values from the published comparison tables, kept as fixtures.

These numbers are transcribed, not computed. The reproduction
commands emit them in columns with an explicit paper_printed_ prefix
next to freshly computed ones, so the two provenances can never be
confused. Nothing in this module feeds back into the model.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "DOUBLE_BAND_LOW",
    "DOUBLE_BAND_HIGH",
    "PD_DOUBLE_PRINTED",
    "PF_DOUBLE_PRINTED",
    "PM_DOUBLE_PRINTED",
    "COLLISION_SENSED_ENERGY",
    "PrintedComparisonRow",
    "PrintedCollisionRow",
    "DETECTION_ROWS",
    "FALSE_ALARM_ROWS",
    "MISS_ROWS",
    "COLLISION_ROWS",
]

# Band shared by the detection / false-alarm / miss comparisons.
DOUBLE_BAND_LOW = 12.0
DOUBLE_BAND_HIGH = 18.0

# Printed double-threshold baselines the difference columns refer to.
PD_DOUBLE_PRINTED = 0.0676
PF_DOUBLE_PRINTED = 0.8735
PM_DOUBLE_PRINTED = 0.9324

# Representative fuzzy energy used throughout the collision comparison.
COLLISION_SENSED_ENERGY = 14.5


@dataclass(frozen=True)
class PrintedComparisonRow:
    """One printed row: sensed energy, resolved threshold, probability, difference."""

    sensed_energy: float
    lambda_opt: float
    probability: float
    difference: float


@dataclass(frozen=True)
class PrintedCollisionRow:
    """One printed collision row for a (lambda_low, lambda_high) band."""

    lambda_low: float
    lambda_high: float
    lambda_opt: float
    pc_double: float
    pc_optimum: float
    pf: float
    reduction: float


# Detection comparison: probability is the resolved detector's detection
# rate; difference = probability - PD_DOUBLE_PRINTED as printed. It and
# PD_DOUBLE_PRINTED (at lambda 18) follow pd_marcum(printed lambda,
# 10^-0.4 / 2, 5) within 5e-5: Digham, Alouini and Simon's a = sqrt(gamma)
# at gamma = -4 dB, not the -14 dB default (acceptance 11).
DETECTION_ROWS: tuple[PrintedComparisonRow, ...] = (
    PrintedComparisonRow(12.5, 12.37, 0.2921, 0.2245),
    PrintedComparisonRow(14.0, 13.87, 0.2053, 0.1377),
    PrintedComparisonRow(15.0, 17.62, 0.0755, 0.0079),
    PrintedComparisonRow(15.5, 15.37, 0.1401, 0.0725),
    PrintedComparisonRow(16.0, 16.12, 0.1147, 0.0471),
    PrintedComparisonRow(16.5, 17.62, 0.0755, 0.0079),
    PrintedComparisonRow(17.0, 16.87, 0.0933, 0.0257),
    PrintedComparisonRow(17.5, 17.62, 0.0755, 0.0079),
)

# False-alarm comparison; difference = probability - PF_DOUBLE_PRINTED.
# The probability column fits no law tried (README, "Known quirks").
# The first row's printed difference does not match its own operands
# (0.9259 - 0.8735 = 0.0524, printed 0.0542); transcribed as printed.
FALSE_ALARM_ROWS: tuple[PrintedComparisonRow, ...] = (
    PrintedComparisonRow(12.5, 12.37, 0.9259, 0.0542),
    PrintedComparisonRow(14.0, 13.87, 0.9130, 0.0395),
    PrintedComparisonRow(15.0, 17.62, 0.8789, 0.0054),
    PrintedComparisonRow(15.5, 15.37, 0.8997, 0.0262),
    PrintedComparisonRow(16.0, 16.12, 0.8929, 0.0194),
    PrintedComparisonRow(16.5, 17.62, 0.8789, 0.0054),
    PrintedComparisonRow(17.0, 16.87, 0.8860, 0.0125),
    PrintedComparisonRow(17.5, 17.62, 0.8789, 0.0054),
)

# Miss-detection comparison; difference = probability - PM_DOUBLE_PRINTED.
# It and PM_DOUBLE_PRINTED follow 1 - pd of the detection rows' law.
MISS_ROWS: tuple[PrintedComparisonRow, ...] = (
    PrintedComparisonRow(12.5, 12.37, 0.7079, -0.2245),
    PrintedComparisonRow(14.0, 13.87, 0.7947, -0.1377),
    PrintedComparisonRow(15.0, 17.62, 0.9245, -0.0079),
    PrintedComparisonRow(15.5, 15.37, 0.8599, -0.0725),
    PrintedComparisonRow(16.0, 16.12, 0.8853, -0.0471),
    PrintedComparisonRow(16.5, 17.62, 0.9245, -0.0079),
    PrintedComparisonRow(17.0, 16.87, 0.9067, -0.0257),
    PrintedComparisonRow(17.5, 17.62, 0.9245, -0.0079),
)

# Collision comparison across bands; reduction = pc_optimum - pc_double
# as printed. pc_optimum is 1 - pd(printed lambda_opt) and pc_double is
# 1 - pd(lambda_high), the miss rate at the upper level, under the
# detection rows' law; pf fits no law tried. The second row's printed
# reduction does not match its own operands (0.9731 - 0.9801 = -0.0070,
# printed -0.0007); transcribed as printed.
COLLISION_ROWS: tuple[PrintedCollisionRow, ...] = (
    PrintedCollisionRow(8.0, 20.0, 14.75, 0.9627, 0.8354, 0.8561, -0.1273),
    PrintedCollisionRow(7.0, 22.0, 21.06, 0.9801, 0.9731, 0.8365, -0.0007),
    PrintedCollisionRow(2.0, 18.0, 15.00, 0.9324, 0.8456, 0.8753, -0.0868),
    PrintedCollisionRow(11.0, 26.0, 13.81, 0.9947, 0.7917, 0.7962, -0.2030),
    PrintedCollisionRow(12.0, 34.0, 13.37, 0.9997, 0.7683, 0.7146, -0.2314),
    PrintedCollisionRow(5.0, 21.0, 14.00, 0.9726, 0.8012, 0.8463, -0.1714),
    PrintedCollisionRow(2.0, 19.0, 13.68, 0.9496, 0.7850, 0.8658, -0.1646),
    PrintedCollisionRow(10.0, 21.0, 14.81, 0.9726, 0.8379, 0.8463, -0.1347),
)
