"""Energy-detection spectrum sensing toolkit.

Closed-form and Monte Carlo detection probabilities for single,
double, and bisection-resolved threshold detectors, with a CLI that
reproduces the published comparison tables and operating curves.
"""

__version__ = "0.1.0"

from .analytic import (
    DoubleThresholdReport,
    RocCurve,
    RocPoint,
    double_threshold_report,
    pd_gaussian,
    pd_marcum,
    pf_gamma,
    pf_gaussian,
    resolved_occupied_probability,
    tails,
    threshold_for_target_pf,
)
from .detector import (
    BisectionConfig,
    BisectionResult,
    ThresholdPair,
    bisection_optimum_threshold,
)
from .montecarlo import (
    BLOCK_TRIALS,
    BandCounts,
    CollisionRow,
    EmpiricalReport,
    GenerativeModel,
    RateEstimate,
    TrialConfig,
    collision_sweep,
    count_band,
    count_bands,
    draw_statistics,
    estimate_double,
    estimate_single,
    roc_empirical,
    roc_table,
)
from .signal_model import (
    Hypothesis,
    SensingParams,
    SignalMode,
    snr_db_to_linear,
)
from .specfun import (
    ConvergenceError,
    gaussian_q,
    gaussian_q_inv,
    marcum_q,
    reg_upper_gamma,
)

__all__ = [
    "__version__",
    "BLOCK_TRIALS",
    "BandCounts",
    "BisectionConfig",
    "BisectionResult",
    "CollisionRow",
    "ConvergenceError",
    "DoubleThresholdReport",
    "EmpiricalReport",
    "GenerativeModel",
    "Hypothesis",
    "RateEstimate",
    "RocCurve",
    "RocPoint",
    "SensingParams",
    "SignalMode",
    "ThresholdPair",
    "TrialConfig",
    "bisection_optimum_threshold",
    "collision_sweep",
    "count_band",
    "count_bands",
    "double_threshold_report",
    "draw_statistics",
    "estimate_double",
    "estimate_single",
    "gaussian_q",
    "gaussian_q_inv",
    "marcum_q",
    "pd_gaussian",
    "pd_marcum",
    "pf_gamma",
    "pf_gaussian",
    "reg_upper_gamma",
    "resolved_occupied_probability",
    "roc_empirical",
    "roc_table",
    "snr_db_to_linear",
    "tails",
    "threshold_for_target_pf",
]
