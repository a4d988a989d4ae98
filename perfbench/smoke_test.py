#!/usr/bin/env python3
"""Smoke test for the repository benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at a tiny input size (--tiny), once
untraced and once traced, through perfbench/run.py. Checks that each run
exits 0, that its correctness gates pass, and that it prints exactly the
metrics BENCHMARK.json names, each with its declared unit. Exits non-zero
on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for wl in bench["workloads"]:
        for trace in ("0", "1"):
            cmd = bench["command"] + ["--workload", wl["name"], "--seed", "1",
                                      "--seconds", "1", "--trace", trace, "--tiny"]
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            label = f"{wl['name']} trace={trace}"
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines:
                failures.append(f"{label}: exit {r.returncode}\n{r.stdout}{r.stderr}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                failures.append(f"{label}: gates failed\n{r.stdout}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                failures.append(f"{label}: metrics {got} != {expected[trace]}")
            print(f"ok   {label}: {len(got)} metrics, {result['attempted']} attempted")
    for f in failures:
        print("FAIL " + f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
