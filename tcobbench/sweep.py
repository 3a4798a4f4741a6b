#!/usr/bin/env python3
"""Run a set of benchmark runs and record their results.

    python3 tcobbench/sweep.py --out SET.jsonl [--workloads a,b]
        [--seeds 1-10] [--seconds S] [--trace 0|1]

Runs `run.py` once per (workload, seed), one process at a time, and
appends one JSON line per run to --out:
    {"workload": ..., "seed": ..., "trace": ..., "exit": ...,
     "result": {<the run's last stdout line>}}
Defaults come from BENCHMARK.json (all workloads, its run_seconds).
Compare two such files with compare.py.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", args.trace]
            start = time.time()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1]) if lines else None
            except ValueError:
                result = None
            record = {"workload": workload, "seed": seed,
                      "trace": int(args.trace), "exit": proc.returncode,
                      "wall_s": round(time.time() - start, 2),
                      "result": result}
            with open(args.out, "a") as f:
                f.write(json.dumps(record) + "\n")
            print("%s seed %d: exit %d in %.1f s" %
                  (workload, seed, proc.returncode, record["wall_s"]),
                  file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
