"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload high-snr --seeds 0-4 --seconds 15 [--baseline]

From the root of a checkout. For every end-to-end metric this prints
the median of the per-seed values and the distance between their
first and third quartiles (statistics.quantiles, n=4) as a share of
the median, next to the metric's bound in BENCHMARK.json; a spread
should stay below a third of its bound. With --baseline the medians,
quartiles and the environment are stored in perfbench/baseline.json
under the workload's name, with the per-layer metrics of one traced
run on the first seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range, as 0-9")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--baseline", action="store_true", help="store the medians in baseline.json")
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    baseline_path = os.path.join(BENCH_DIR, "baseline.json")
    worst = 0.0
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        env = None
        for seed in seed_range(args.seeds):
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
            result = json.loads(lines[-1])
            env = json.loads(lines[0].removeprefix("env: "))
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect result: " + "; ".join(
                    line for line in lines if line.startswith("problem")))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "runs": len(vals)}
            flag = "" if spread < bounds[name] / 3 else "  <-- above a third of the bound"
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {workload:15s} {name:13s} median={med:.6g} spread={spread:.4f} bound={bounds[name]}{flag}")
        if args.baseline:
            baseline = {}
            if os.path.isfile(baseline_path):
                with open(baseline_path, encoding="utf-8") as fh:
                    baseline = json.load(fh)
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                   "--seed", str(seed_range(args.seeds)[0]), "--seconds", str(args.seconds), "--trace", "1"]
            traced = json.loads(subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()[-1])
            baseline.setdefault("workloads", {})[workload] = {
                "seeds": args.seeds, "seconds": args.seconds, "metrics": summary,
                "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            }
            baseline["environment"] = env
            with open(baseline_path, "w", encoding="utf-8") as fh:
                json.dump(baseline, fh, indent=1, sort_keys=True)
                fh.write("\n")
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
