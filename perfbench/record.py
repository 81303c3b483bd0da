"""Record each operation's output digests for a range of seeds.

    python3 perfbench/record.py --seeds 0-31

From the root of a checkout whose outputs are known good. Writes
perfbench/expected.json: workload -> seed -> operation -> file ->
digest, which run.py then holds every later run to. Digests cover
every CSV and each manifest without its duration_seconds= line; a
library call's digest covers its returned counts and rates.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import BENCH_DIR, Bench
from spread import seed_range
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range, as 0-31")
    args = parser.parse_args()
    recorded: dict = {}
    for workload in WORKLOADS:
        for seed in seed_range(args.seeds):
            bench = Bench(os.getcwd(), workload, seed, short=False)
            result = bench.spawn("run")
            if result is None or any(op["status"] != "ok" or not op["digests"] for op in result["ops"]):
                print(f"{workload} seed {seed}: run failed, nothing recorded: {bench.problems}", file=sys.stderr)
                return 1
            recorded.setdefault(workload, {})[str(seed)] = {op["name"]: op["digests"] for op in result["ops"]}
            print(f"{workload} seed {seed}: recorded {len(result['ops'])} operations", flush=True)
    with open(os.path.join(BENCH_DIR, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
