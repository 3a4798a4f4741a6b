#!/usr/bin/env python3
"""Compare two sets of benchmark runs (stdlib only).

    python3 tcobbench/compare.py BASE.jsonl [NEW.jsonl]

Each file holds one JSON line per run, as sweep.py writes them. For
every workload and metric the script prints each set's median, its
quartiles (statistics.quantiles(values, n=4)) and its spread (the
quartile distance as a share of the median). Given two sets it also
prints the pair wins of NEW over BASE (runs paired by seed, ties count
for neither), the change of the median in the metric's worse direction,
and whether that change exceeds the metric's bound in BENCHMARK.json.
Finally it prints the share of failed operations per workload and set.

Exit status: 0 when every spread of a bounded metric (setup_s aside) is
within its bound and, with two sets, no median got worse by more than
its bound and the failed shares agree; 1 otherwise.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def values(recs, metric):
    out = {}
    for rec in recs:
        result = rec.get("result") or {}
        m = result.get("metrics", {}).get(metric)
        if m is not None:
            out[rec["seed"]] = float(m["value"])
    return out


def summary(vals):
    xs = sorted(vals)
    if len(xs) < 2:
        x = xs[0] if xs else float("nan")
        return x, x, x, 0.0
    q1, med, q3 = statistics.quantiles(xs, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return q1, med, q3, spread


def failed_share(recs):
    attempted = sum((r.get("result") or {}).get("attempted", 0) for r in recs)
    failed = sum((r.get("result") or {}).get("failed", 0) for r in recs)
    return failed, attempted


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = [(m["name"], m["better"], m.get("bound"))
               for m in spec["end_to_end"] + spec["per_layer"]]
    base = load(argv[1])
    new = load(argv[2]) if len(argv) == 3 else None
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base:
            continue
        print("== %s" % workload)
        for name, better, bound in metrics:
            a = values(base[workload], name)
            if not a:
                continue
            q1, med, q3, spread = summary(a.values())
            line = "%-34s base med %-12.6g q [%.6g, %.6g] spread %.3f" % (
                name, med, q1, q3, spread)
            if bound is not None and name != "setup_s" and spread > bound:
                line += " SPREAD>BOUND"
                ok = False
            if new is not None and workload in new:
                b = values(new[workload], name)
                if b:
                    bq1, bmed, bq3, bspread = summary(b.values())
                    sign = 1 if better == "lower" else -1
                    change = sign * (bmed - med) / med if med else 0.0
                    wins = sum(1 for s in a if s in b and
                               sign * (b[s] - a[s]) < 0)
                    pairs = sum(1 for s in a if s in b)
                    line += ("\n%-34s new  med %-12.6g q [%.6g, %.6g] spread "
                             "%.3f | worse by %+.3f, new wins %d/%d" % (
                                 "", bmed, bq1, bq3, bspread, change, wins,
                                 pairs))
                    if bound is not None and change > bound:
                        line += " WORSE>BOUND"
                        ok = False
            print(line)
        f, n = failed_share(base[workload])
        share = "failed %d of %d (%.6f)" % (f, n, f / n if n else 0)
        if new is not None and workload in new:
            g, m = failed_share(new[workload])
            share += " | new: failed %d of %d (%.6f)" % (g, m,
                                                         g / m if m else 0)
            if (f / n if n else 0) != (g / m if m else 0):
                ok = False
        print(share)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
