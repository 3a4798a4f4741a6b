#!/usr/bin/env python3
"""Run one workload of the TCOB end-to-end benchmark.

    python3 tcobbench/run.py --workload slice_now|history_cold|commit_mix \
        --seed N --seconds S --trace 0|1 [--plant-wrong-answer]

Builds the engine library from src/ and the benchmark binary into
.bench_build/tcobbench (a Release build; the first run of a checkout
pays for it), then runs the binary from the repository root. The
binary prints one JSON object as the last line of standard output;
build output goes to standard error. Scratch files and traced-run
span files go to .bench_out/.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "tcobbench")
BINARY = os.path.join(BUILD, "tcobbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: engine sources (src/) not found next to %s" % HERE,
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", "4"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["slice_now", "history_cold", "commit_mix"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--plant-wrong-answer", action="store_true")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", ".bench_out"]
    if args.plant_wrong_answer:
        cmd.append("--plant-wrong-answer")
    # Replace this process with the binary, so the run is one process
    # whose exit status and output are the binary's own.
    sys.stdout.flush()
    sys.stderr.flush()
    os.chdir(ROOT)
    os.execv(BINARY, cmd)


if __name__ == "__main__":
    sys.exit(main())
