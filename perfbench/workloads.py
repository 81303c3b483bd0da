"""The benchmark's workloads: operations built from a seed.

An operation is one CLI command (`crn_sense.cli.main(argv)`) or one
library call, the unit that succeeds or fails. CLI operations write
their files under the operation's name in the current directory, so
relative names keep manifests identical between checkouts. The seed
only picks the Monte Carlo streams: the amount of work is the same for
every seed, so run-to-run spread is the machine's, not the input's.

Why each workload exists:

* sample-roc: 1000-sample windows make signal_model (Philox streams,
  Box-Muller, BPSK) nearly all of the run; a narrow band gives the
  decision step real fuzzy trials; two chunks exercise the thread
  pool; specfun is only erfc here.
* deep-resolve: the resolved closed form at bisection depth 11,
  2^11 cells x 2 tails x 31 points of scalar bisection probes and
  low-SNR Marcum calls; Monte Carlo is a few percent.
* high-snr: tables 2-5 and chi-square curves at 20 and 25 dB, where
  the Marcum series is long; kept apart from deep-resolve's low-SNR
  Marcum load so a rewrite that wins one regime and loses the other
  shows. It stays below the 28.7 dB series-start underflow.
* library-redraw: one chi-square TrialConfig used through the public
  API as the demos do; every call draws its statistics again (2,548
  blocks drawn, 392 unique), so a draw cache or a draw-once API gains
  here and nowhere else.

Sizes are chosen so one run takes about a second and an invocation
averages over a dozen or more fresh processes.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from collections.abc import Callable
from dataclasses import dataclass
from types import ModuleType

WORKLOADS = ("sample-roc", "deep-resolve", "high-snr", "library-redraw")

# Mean of the H1 statistic, 2u + 2 snr, at 25 dB with u = 5 is 642.5.
_HIGH_SNR_GRIDS = {20.0: ("150:270:31", "150:270:7"), 25.0: ("630:660:3", "630:660:2")}


@dataclass(frozen=True)
class Op:
    """One CLI command (argv) or one library call (call), with the trials it asks for."""

    name: str
    trials: int
    argv: tuple[str, ...] = ()
    call: Callable[[ModuleType], object] | None = None


def mc_seed(seed: int) -> int:
    """The Monte Carlo seed a benchmark seed maps to (any int is accepted)."""
    return seed % 2**32


def _sample_roc(seed: int, short: bool, chunks: int = 2) -> Op:
    trials = 3000 if short else 12000
    grid = "0.9:1.1:11" if short else "0.9:1.1:41"
    argv = (
        "roc", "--model", "sample", "--grid", grid, "--lambda-low", "0.97", "--lambda-high", "1.03",
        "--chunks", str(chunks), "--trials", str(trials), "--seed", str(mc_seed(seed)), "--out", "roc.csv",
    )
    return Op("roc", 2 * trials, argv)


def determinism_op(seed: int, short: bool, chunks: int) -> Op:
    """The sample-roc command with a given chunk count; CSV bytes must not depend on it."""
    return _sample_roc(seed, short, chunks)


def _deep_resolve(seed: int, short: bool) -> list[Op]:
    trials = 2000 if short else 20000
    argv = (
        "roc", "--model", "chisq", "--grid", "0:30:7" if short else "0:30:31",
        "--lambda-low", "12", "--lambda-high", "18", "--max-iter", "8" if short else "11",
        "--trials", str(trials), "--seed", str(mc_seed(seed)), "--out", "roc.csv",
    )
    return [Op("roc", 2 * trials, argv)]


def _high_snr(seed: int, short: bool) -> list[Op]:
    ops = [Op(f"tables{which}", 0, ("tables", "--which", str(which), "--snr-db", "20", "--out", f"tables{which}.csv"))
           for which in (2, 3, 4, 5)]
    trials = 2000 if short else 20000
    # distinct seeds per command: one process must not be able to reuse
    # the other command's draws, as separate CLI invocations cannot
    for offset, (snr_db, grids) in enumerate(_HIGH_SNR_GRIDS.items()):
        name = f"roc{int(snr_db)}"
        argv = (
            "roc", "--model", "chisq", "--snr-db", str(snr_db), "--grid", grids[short],
            "--lambda-low", "0", "--lambda-high", "30", "--trials", str(trials),
            "--seed", str(mc_seed(2 * seed + offset)), "--out", f"{name}.csv",
        )
        ops.append(Op(name, 2 * trials, argv))
    return ops


def _library_redraw(seed: int, short: bool) -> list[Op]:
    trials = 50_000 if short else 200_000

    def config(cs: ModuleType):
        return cs.TrialConfig(num_trials=trials, seed=mc_seed(seed), model=cs.GenerativeModel.CHISQ)

    def single(threshold: float, truth: str):
        return lambda cs: cs.estimate_single(threshold, config(cs), cs.Hypothesis[truth])

    def double(resolver: str):
        return lambda cs: cs.estimate_double(cs.ThresholdPair(12.0, 18.0), config(cs), resolver=resolver)

    def sweep(cs: ModuleType):
        from crn_sense.reference_tables import COLLISION_ROWS, COLLISION_SENSED_ENERGY

        pairs = [cs.ThresholdPair(row.lambda_low, row.lambda_high) for row in COLLISION_ROWS]
        return cs.collision_sweep(pairs, [COLLISION_SENSED_ENERGY], config(cs))

    def roc(cs: ModuleType):
        return cs.roc_empirical([float(k) for k in range(31)], config(cs))

    ops = [Op(f"single_{truth}_{threshold:g}", trials, call=single(threshold, truth))
           for truth in ("H0", "H1") for threshold in (10.0, 14.0, 18.0, 22.0)]
    ops += [Op(f"double_{resolver}", trials, call=double(resolver))
            for resolver in ("report-fuzzy", "bisection-resolve")]
    ops.append(Op("collision_sweep", trials, call=sweep))
    ops.append(Op("roc_empirical", 2 * trials, call=roc))
    return ops


def build(workload: str, seed: int, short: bool = False) -> list[Op]:
    """The operations of one full run of `workload`."""
    if workload == "sample-roc":
        return [_sample_roc(seed, short)]
    if workload == "deep-resolve":
        return _deep_resolve(seed, short)
    if workload == "high-snr":
        return _high_snr(seed, short)
    if workload == "library-redraw":
        return _library_redraw(seed, short)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def canonical(value) -> object:
    """A library result as JSON-ready data, floats kept exact by repr."""
    if dataclasses.is_dataclass(value):
        return {f.name: canonical(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"cannot canonicalise {type(value).__name__}")


def result_text(value) -> str:
    return json.dumps(canonical(value), sort_keys=True)
