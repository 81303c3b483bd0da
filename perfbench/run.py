"""crn-sense benchmark: time a workload end to end, check every output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--short]

Run from the root of a checkout; the package is imported from its
`src/`. Each full run of the workload happens in a fresh process
(perfbench/child.py), so set-up time and peak memory belong to that
run alone. Runs repeat until S seconds have passed; medians are
reported. Every operation's output is compared with the digest
recorded for the seed in expected.json, or, for a seed without one,
with the other runs of the same invocation.

Once per invocation, untimed: sample-roc with --chunks 1 must give
the same CSV bytes as with --chunks 2, and `tables --which 2
--snr-db 30` is probed and its exit status reported by name.

--trace 0 prints the end-to-end metrics; --trace 1 alternates
untraced and traced runs and prints the per-layer metrics (see
tracer.py), including the tracing overhead. The last line of standard
output is the JSON result; details go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import tracer  # noqa: E402
import workloads  # noqa: E402

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("trials_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_ratio", "ratio", "higher"),
)

SETUP_SAMPLES = 9  # set-up is short and noisy: take at least this many per invocation
CHILD_TIMEOUT_S = 150
LOOP_LIMIT_S = 110  # stop starting runs past this, whatever --seconds says
EXIT_NAMES = {0: "success", 1: "runtime-failure", 2: "usage-error"}


def _clock_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def git_sha(root: str) -> str:
    """HEAD's commit, read from .git without running git; 'unknown' outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": git_sha(root),
    }


class Bench:
    """One invocation: spawns the child processes and checks what they return."""

    def __init__(self, root: str, workload: str, seed: int, short: bool) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.short = short
        self.entry = "library" if workload == "library-redraw" else "cli"
        self.out_dir = os.path.join(BENCH_DIR, "out")
        os.makedirs(os.path.join(self.out_dir, "work"), exist_ok=True)
        self.expected = {} if short else self._recorded(workload, seed)
        self.first: dict[str, dict] = {}  # op -> digests of its first good run here
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @staticmethod
    def _recorded(workload: str, seed: int) -> dict:
        path = os.path.join(BENCH_DIR, "expected.json")
        if not os.path.isfile(path):
            return {}
        with open(path, encoding="utf-8") as fh:
            return json.load(fh).get(workload, {}).get(str(seed), {})

    def spawn(self, mode: str, trace: bool = False, chunks: int = 0, spans: str = "") -> dict | None:
        """Run one child process; None if it crashed or timed out."""
        run_dir = tempfile.mkdtemp(dir=os.path.join(self.out_dir, "work"))
        try:
            workdir = os.path.join(run_dir, "files")
            os.mkdir(workdir)
            spec = {
                "root": self.root, "workload": self.workload, "seed": self.seed, "short": self.short,
                "mode": mode, "entry": "cli" if mode in ("determinism", "probe") else self.entry,
                "trace": trace, "chunks": chunks, "spans": spans, "workdir": workdir,
                "result": os.path.join(run_dir, "result.json"),
            }
            spec_path = os.path.join(run_dir, "spec.json")
            with open(spec_path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            env = dict(os.environ)
            # the package comes from the checkout alone, and its bytecode is
            # cached as after an install, so set-up is what users pay
            for name in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "CRN_SENSE_SEED"):
                env.pop(name, None)
            spawned = _clock_ns()
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.join(BENCH_DIR, "child.py"), spec_path],
                    cwd=self.root, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                self.problems.append(f"{mode} run timed out after {CHILD_TIMEOUT_S} s")
                return None
            if proc.returncode != 0 or not os.path.isfile(spec["result"]):
                self.problems.append(f"{mode} run exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
                return None
            with open(spec["result"], encoding="utf-8") as fh:
                result = json.load(fh)
            result["setup_s"] = (result["ready_ns"] - spawned) / 1e9
            return result
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    def check(self, result: dict | None) -> None:
        """Count one workload run's operations and fail those without the expected bytes."""
        n_ops = len(workloads.build(self.workload, self.seed, self.short))
        self.attempted += n_ops
        if result is None:
            self.failed += n_ops
            return
        for op in result["ops"]:
            reason = None
            if op["status"] != "ok":
                reason = op["status"]
            elif not op["digests"]:
                reason = "no output"
            elif op["name"] in self.expected and op["digests"] != self.expected[op["name"]]:
                reason = "output differs from the recorded digest"
            elif op["name"] in self.first and op["digests"] != self.first[op["name"]]:
                reason = "output differs from an earlier run of this invocation"
            if reason is None:
                self.first.setdefault(op["name"], op["digests"])
            else:
                self.failed += 1
                self.problems.append(f"{op['name']}: {reason}")

    def determinism(self) -> str:
        """sample-roc with --chunks 1 against --chunks 2: the CSVs must be the same bytes."""

        def csvs(result: dict | None) -> dict | None:
            if result is None or result["ops"][0]["status"] != "ok":
                return None
            return {k: v for k, v in result["ops"][0]["digests"].items() if k.endswith(".csv")}

        one = csvs(self.spawn("determinism", chunks=1))
        if self.workload == "sample-roc" and "roc" in self.first:
            two = {k: v for k, v in self.first["roc"].items() if k.endswith(".csv")}
        else:
            two = csvs(self.spawn("determinism", chunks=2))
        self.attempted += 1
        if one and one == two:
            return "match"
        self.failed += 1
        self.problems.append("determinism: --chunks 1 and --chunks 2 CSV bytes differ")
        return "differ"

    def probe(self) -> str:
        """Exit status of `tables --which 2 --snr-db 30`, by name (runtime-failure today)."""
        result = self.spawn("probe")
        if result is None:
            return "crash"
        status = result["ops"][0]["status"]
        if status == "ok":
            return "exit 0 (success)"
        if status.startswith("exit "):
            code = int(status.split()[1])
            return f"exit {code} ({EXIT_NAMES.get(code, 'unknown')})"
        return status

    def setups(self, runs: list[dict | None]) -> list[float]:
        samples = [r["setup_s"] for r in runs if r is not None]
        for _ in range(max(3, SETUP_SAMPLES - len(samples))):
            r = self.spawn("setup")
            if r is not None:
                samples.append(r["setup_s"])
        return samples


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _loop(bench: Bench, seconds: float, traced: bool) -> tuple[list, list]:
    """Repeat full runs until `seconds` have passed; in trace mode alternate untraced and traced."""
    min_runs = 1 if bench.expected else 2  # without a recorded digest, two runs must agree
    plain: list = []
    spans_runs: list = []
    spans_path = os.path.join(bench.out_dir, f"spans-{bench.workload}.npz")
    started = time.monotonic()
    while True:
        result = bench.spawn("run")
        bench.check(result)
        plain.append(result)
        if traced:
            result = bench.spawn("run", trace=True, spans=spans_path)
            bench.check(result)
            spans_runs.append(result)
        elapsed = time.monotonic() - started
        done = len(spans_runs) if traced else len(plain)
        if elapsed >= LOOP_LIMIT_S or (elapsed >= seconds and done >= min_runs and (not traced or done >= 2)):
            return plain, spans_runs


def _end_to_end(bench: Bench, runs: list) -> dict[str, float]:
    good = [r for r in runs if r is not None]
    return {
        "setup_s": _median(bench.setups(runs)),
        "wall_s": _median([r["wall_s"] for r in good]),
        "trials_per_s": _median([sum(op["trials"] for op in r["ops"]) / r["wall_s"] for r in good]),
        "peak_rss_mb": _median([r["peak_rss_kb"] / 1024.0 for r in good]),
    }


def _per_layer(bench: Bench, plain: list, traced: list) -> tuple[dict[str, float], list[str], int]:
    good = [r["trace"] for r in traced if r is not None]
    if not good:
        bench.problems.append("no traced run completed")
        return {name: 0.0 for name, _, _ in tracer.PER_LAYER}, [], 0
    for other in good[1:]:
        for name in tracer.COUNT_METRICS:
            if other["metrics"][name] != good[0]["metrics"][name]:
                bench.problems.append(f"traced runs disagree on {name}")
    metrics = {name: _median([t["metrics"][name] for t in good]) for name in good[0]["metrics"]}
    untraced_wall = _median([r["wall_s"] for r in plain if r is not None])
    traced_wall = _median([r["wall_s"] for r in traced if r is not None])
    metrics["trace.overhead"] = traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0
    return metrics, good[0]["absent"], max(t["hook_errors"] for t in good)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to keep repeating full runs")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--short", action="store_true", help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "crn_sense", "__init__.py")):
        print(f"error: no src/crn_sense under {root}; run from the root of a checkout", file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed, args.short)
    env = environment(root)
    print("env: " + json.dumps(env, sort_keys=True))
    bench.spawn("setup")  # compiles bytecode once, so no timed set-up pays for it

    plain, traced = _loop(bench, args.seconds, bool(args.trace))
    absent: list[str] = []
    hook_errors = 0
    if args.trace:
        metrics, absent, hook_errors = _per_layer(bench, plain, traced)
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    else:
        metrics = _end_to_end(bench, plain)
        units = {name: unit for name, unit, _ in END_TO_END}
    determinism = bench.determinism()
    probe = bench.probe()
    if not args.trace:
        metrics["ok_ratio"] = 1.0 - bench.failed / bench.attempted  # after the determinism check

    for run in plain + traced:
        if run is not None:
            print(f"run: wall_s={run['wall_s']:.4f} setup_s={run['setup_s']:.4f} "
                  f"peak_rss_mb={run['peak_rss_kb'] / 1024:.1f} traced={'trace' in run}")
    print(f"determinism (--chunks 1 vs 2): {determinism}")
    print(f"probe tables --which 2 --snr-db 30: {probe}")
    if absent:
        print("absent boundaries: " + ", ".join(absent))
    if hook_errors:
        print(f"count hooks that no longer fit their function: {hook_errors} calls")
    for problem in bench.problems:
        print(f"problem: {problem}")
    print(f"fail_ratio: {bench.failed}/{bench.attempted}")

    correct = not bench.problems
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "short": args.short, "environment": env, "determinism": determinism, "probe": probe,
        "absent": absent, "hook_errors": hook_errors, "problems": bench.problems, "attempted": bench.attempted, "failed": bench.failed,
        "metrics": metrics,
        "runs": [{k: v for k, v in r.items() if k != "ops"} if r else None for r in plain + traced],
    }
    with open(os.path.join(bench.out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(details, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
