#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file is a results log written by perfbench/run.py (one JSON record per
run). For every workload and metric the medians of the two sets are
compared. End-to-end metrics are gated against the bounds in BENCHMARK.json
only when every run in both sets carries the same host fingerprint (CPU
model, nproc, SIMD dispatch, compiler, build type); the code identity
fields (git, source) are expected to differ. With mismatched fingerprints
the numbers are only reported. Exits 1 when a gated metric regressed.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CODE_FIELDS = {"git", "source"}


def load(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def host_key(rec):
    return json.dumps({k: v for k, v in rec["host"].items() if k not in CODE_FIELDS},
                      sort_keys=True)


def medians(records):
    """{(workload, metric): median value} over the records."""
    vals = {}
    for rec in records:
        args = rec["args"]
        workload = args[args.index("--workload") + 1]
        for name, m in rec["result"]["metrics"].items():
            vals.setdefault((workload, name), []).append(m["value"])
    return {k: statistics.median(v) for k, v in vals.items()}


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        sys.exit(2)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    base, new = load(sys.argv[1]), load(sys.argv[2])
    hosts = {host_key(r) for r in base + new}
    gated = len(hosts) == 1
    if not gated:
        print("host fingerprints differ; reporting only:")
        for h in sorted(hosts):
            print("  " + h)
    mb, mn = medians(base), medians(new)
    regressions = 0
    for key in sorted(set(mb) & set(mn)):
        workload, name = key
        b, n = mb[key], mn[key]
        change = (n - b) / abs(b) if b else float("nan")
        verdict = ""
        if name in e2e and gated and b:
            worse = change < 0 if e2e[name]["better"] == "higher" else change > 0
            if worse and abs(change) > e2e[name]["bound"]:
                verdict = f"REGRESSION (bound {e2e[name]['bound']})"
                regressions += 1
        print(f"{workload:12s} {name:28s} {b:14.6g} -> {n:14.6g} {change:+8.1%} {verdict}")
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
