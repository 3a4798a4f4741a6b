#!/usr/bin/env python3
"""Self-test of the benchmark's answer checks.

    python3 tcobbench/selftest.py

For every workload, one short run must report correct answers, and one
run with --plant-wrong-answer (which perturbs one expected value the
ledger computed) must report "correct": false and exit non-zero. A
check that cannot fail would pass the second run; this script then
exits 1.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["slice_now", "history_cold", "commit_mix"]


def run(workload, plant):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", "0"]
    if plant:
        cmd.append("--plant-wrong-answer")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return proc.returncode, result, proc.stderr


def main():
    ok = True
    for workload in WORKLOADS:
        code, result, _ = run(workload, plant=False)
        good = code == 0 and result.get("correct") is True
        code_p, result_p, err_p = run(workload, plant=True)
        caught = code_p != 0 and result_p.get("correct") is False
        wrong = [l for l in err_p.splitlines() if l.startswith("WRONG")]
        print("%-13s clean run correct: %-5s planted wrong answer caught: %s"
              % (workload, good, caught))
        if wrong:
            print("              " + wrong[0])
        ok = ok and good and caught
    print("selftest %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
