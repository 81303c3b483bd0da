"""One fresh process: set up, run one workload's operations, report.

Usage: python3 perfbench/child.py SPEC.json

SPEC names the checkout root, workload, seed, mode and where to write
the result. The process imports the package from the checkout's
`src/`, stamps the moment the entry point can be called (setup ends),
then times the operations as one run. Outputs are hashed after the
timed region. Modes: "run" (the workload), "setup" (stop after
set-up), "determinism" (sample-roc at a given chunk count) and
"probe" (a command expected to fail today; its exit status is the
result).
"""

import json
import os
import sys
import time


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    if spec["entry"] == "cli":
        import crn_sense.cli

        crn_sense.cli.build_parser()
    else:
        import crn_sense
    ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    package_dir = os.path.dirname(os.path.abspath(crn_sense.__file__))
    if package_dir != os.path.join(os.path.abspath(src), "crn_sense"):
        print(f"crn_sense imported from {package_dir}, not from {src}", file=sys.stderr)
        return 3
    result = {"ready_ns": ready_ns}
    if spec["mode"] != "setup":
        result.update(_run(spec))
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _ops(spec, workloads):
    mode, seed, short = spec["mode"], spec["seed"], spec["short"]
    if mode == "run":
        return workloads.build(spec["workload"], seed, short)
    if mode == "determinism":
        return [workloads.determinism_op(seed, short, spec["chunks"])]
    if mode == "probe":
        return [workloads.Op("probe", 0, ("tables", "--which", "2", "--snr-db", "30", "--out", "probe.csv"))]
    raise ValueError(f"unknown mode {mode!r}")


def _run(spec) -> dict:
    import hashlib
    import resource
    import traceback

    import crn_sense
    import workloads

    ops = _ops(spec, workloads)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    os.chdir(spec["workdir"])
    cli_main = crn_sense.cli.main if spec["entry"] == "cli" else None
    statuses, values = [], {}
    start = time.perf_counter()
    for op in ops:
        try:
            if op.call is None:
                code = cli_main(list(op.argv))
                statuses.append("ok" if code == 0 else f"exit {code}")
            else:
                values[op.name] = op.call(crn_sense)
                statuses.append("ok")
        except Exception as exc:  # one failed operation must not stop the run
            traceback.print_exc()
            statuses.append(f"exception {type(exc).__name__}: {exc}")
    wall_s = time.perf_counter() - start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()[:32]

    files = sorted(os.listdir("."))
    reports = []
    for op, status in zip(ops, statuses):
        digests = {}
        if op.call is None:
            for fname in files:
                if fname.startswith((op.name + ".", op.name + "_")):
                    with open(fname, "rb") as fh:
                        data = fh.read()
                    if fname.endswith(".manifest.txt"):
                        # the one line that changes from run to run
                        data = b"".join(
                            line for line in data.splitlines(keepends=True)
                            if not line.startswith(b"duration_seconds=")
                        )
                    digests[fname] = digest(data)
        elif op.name in values:
            digests["result"] = digest(workloads.result_text(values[op.name]).encode())
        reports.append({"name": op.name, "status": status, "trials": op.trials, "digests": digests})
    out = {"wall_s": wall_s, "peak_rss_kb": peak_rss_kb, "ops": reports}
    if tracer is not None:
        spans = tracer.spans()
        out["trace"] = {
            "metrics": tracer.metrics(spans, wall_s),
            "absent": tracer.absent,
            "hook_errors": tracer.hook_errors,
        }
        if spec.get("spans"):
            tracer.write_spans(spec["spans"], spans)
    return out


if __name__ == "__main__":
    sys.exit(main())
