#!/usr/bin/env python3
"""Bench throughput regression gate.

Compares a freshly emitted bench JSON against the committed baseline at the
repo root and fails (exit 1) when any gated per-case throughput figure
regressed by more than the threshold (default 20%).

Two bench families are understood, auto-detected from the top-level "bench"
key of the new results:

  stream  (BENCH_stream.json)  — gates the "scan" table's decimated coarse
      pass and full-rate correlation kernel (the real-time scan budget) on
      every baseline case: three dense captures and the 5%-air-time 2x2
      capture. A baseline case missing from the new results, or one whose
      two-pass records diverged, fails. End-to-end figures are
      decode-dominated and reported but not gated.

  hotpath (BENCH_hotpath.json) — gates the E17 e2e samples/sec cases and the
      E21 "decode" table's batched decode-only samples/sec, plus the
      batched-vs-per-symbol record-identity flags. Stage kernel figures are
      informational (the bench binary itself asserts the kernel bar).

  mu      (BENCH_mu.json) — gates the E22 multi-user sum-throughput figures:
      fresh-CSI downlink points (stale_symbols == 0) and every uplink point.
      Stale-CSI rows are the impairment sweep — small-sample PER noise
      dominates them, so they are reported but not gated (the bench binary
      itself asserts their monotonic degradation).

  harq    (BENCH_harq.json) — gates the E23 goodput figures at the pinned
      chase-combining cliff SNR (per policy) and every interference-campaign
      policy row, ISSUE 10's acceptance shape. Off-cliff sweep points are
      reported but not gated; the bench binary itself asserts the two
      load-bearing shapes (chase delivers at the cliff, evidence out-earns
      the blind baseline) and records them as "shape_ok".

Usage:
    scripts/bench_diff.py NEW.json [--baseline BASELINE.json]
                          [--threshold 0.20]

Exit codes: 0 ok / nothing to compare against, 1 regression, 2 bad input.
"""

import argparse
import json
import os
import sys

SCAN_GATED_KEYS = ("coarse_msamp_s", "full_kernel_msamp_s")
SCAN_REPORTED_KEYS = ("e2e_exhaustive_msamp_s", "e2e_twopass_msamp_s")

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")


def load_doc(path):
    with open(path) as f:
        return json.load(f)


def cases_by_name(table):
    return {c["bench"]: c for c in table.get("cases", [])}


def gate_ratio(failures, name, key, base_case, new_case, threshold,
               unit="Msamp/s"):
    """Print one gated figure and record a failure if it regressed."""
    b, n = base_case.get(key), new_case.get(key)
    if b is None or n is None or b <= 0:
        return
    ratio = n / b
    status = "ok"
    if ratio < 1.0 - threshold:
        status = "REGRESSION"
        failures.append(
            f"{name}.{key}: {n:.3g} vs baseline {b:.3g} {unit} "
            f"({(1.0 - ratio) * 100.0:.1f}% slower, "
            f"threshold {threshold * 100.0:.0f}%)")
    print(f"  {name:.<28s} {key:.<28s} {n:12.4g} / {b:12.4g} "
          f"{unit}  {status}")


def diff_scan(new_doc, base_doc, threshold):
    """Gate BENCH_stream.json's scan table. Returns (failures, gated_any)."""
    new_scan = new_doc.get("scan")
    base_scan = base_doc.get("scan")
    if new_scan is None:
        print("bench_diff: new results have no scan table", file=sys.stderr)
        return None, False
    if base_scan is None:
        print("bench_diff: baseline has no scan table; nothing to gate")
        return [], False
    new, base = cases_by_name(new_scan), cases_by_name(base_scan)

    failures = []
    for name, base_case in sorted(base.items()):
        new_case = new.get(name)
        if new_case is None:
            failures.append(f"{name}: case missing from new results")
            continue
        if not new_case.get("records_identical", False):
            failures.append(f"{name}: two-pass records diverged from the "
                            "exhaustive scan")
        for key in SCAN_GATED_KEYS:
            gate_ratio(failures, name, key, base_case, new_case, threshold)
        for key in SCAN_REPORTED_KEYS:
            b, n = base_case.get(key), new_case.get(key)
            if b is None or n is None or b <= 0:
                continue
            print(f"  {name:.<28s} {key:.<28s} {n:12.4g} / {b:12.4g} "
                  f"Msamp/s  (not gated)")
    return failures, True


def diff_hotpath(new_doc, base_doc, threshold):
    """Gate BENCH_hotpath.json: E17 e2e cases + E21 decode table."""
    failures = []
    gated_any = False

    # E17 e2e cases: samples/sec through the full receive chain. A file
    # emitted by E21 alone has no e2e table — skip it rather than flag every
    # baseline case as missing (each smoke gates only what its bench ran).
    if "cases" in new_doc:
        new, base = cases_by_name(new_doc), cases_by_name(base_doc)
        for name, base_case in sorted(base.items()):
            new_case = new.get(name)
            if new_case is None:
                failures.append(f"{name}: e2e case missing from new results")
                continue
            gated_any = True
            gate_ratio(failures, name, "samples_per_sec", base_case, new_case,
                       threshold, unit="samp/s")
        if not new_doc.get("all_packets_decoded", True):
            failures.append("e2e: not all packets decoded")

    # E21 decode table: batched decode-only throughput + record identity.
    new_dec = new_doc.get("decode")
    base_dec = base_doc.get("decode")
    if new_dec is not None:
        if not new_dec.get("all_records_identical", False):
            failures.append("decode: batched records diverged from the "
                            "per-symbol path")
        new_cases = cases_by_name(new_dec)
        base_cases = cases_by_name(base_dec) if base_dec is not None else {}
        for name, new_case in sorted(new_cases.items()):
            if not new_case.get("records_identical", False):
                failures.append(f"decode.{name}: batched record diverged "
                                "from the per-symbol path")
            base_case = base_cases.get(name)
            if base_case is None:
                continue
            gated_any = True
            gate_ratio(failures, f"decode.{name}", "batched_samples_per_sec",
                       base_case, new_case, threshold, unit="samp/s")
    return failures, gated_any


def diff_mu(new_doc, base_doc, threshold):
    """Gate BENCH_mu.json: fresh-CSI downlink + uplink sum throughput."""
    failures = []
    gated_any = False

    def points_by_key(doc, table):
        out = {}
        for p in doc.get(table, []):
            out[(p["users"], p.get("stale_symbols", 0))] = p
        return out

    for table in ("downlink", "uplink"):
        new, base = points_by_key(new_doc, table), points_by_key(base_doc, table)
        for key, base_pt in sorted(base.items()):
            users, stale = key
            new_pt = new.get(key)
            name = f"{table}.u{users}.stale{stale}"
            if new_pt is None:
                failures.append(f"{name}: point missing from new results")
                continue
            if table == "downlink" and stale != 0:
                # Stale rows are the impairment sweep: small-sample PER noise
                # dominates, and the bench binary itself asserts their
                # monotonic degradation. Report, don't gate.
                b = base_pt.get("sum_throughput_mbps")
                n = new_pt.get("sum_throughput_mbps")
                if b is not None and n is not None and b > 0:
                    print(f"  {name:.<28s} {'sum_throughput_mbps':.<28s} "
                          f"{n:12.4g} / {b:12.4g} Mb/s  (not gated)")
                continue
            gated_any = True
            gate_ratio(failures, name, "sum_throughput_mbps", base_pt, new_pt,
                       threshold, unit="Mb/s")
    return failures, gated_any


def diff_harq(new_doc, base_doc, threshold):
    """Gate BENCH_harq.json: cliff-SNR sweep goodput + campaign goodput."""
    failures = []
    gated_any = False

    if not new_doc.get("shape_ok", False):
        failures.append("harq: bench shape assertions failed (shape_ok false)")

    cliff = base_doc.get("cliff_snr_db")

    def points_by_key(doc):
        return {(p.get("snr_db"), p["policy"]): p
                for p in doc.get("points", [])}

    new, base = points_by_key(new_doc), points_by_key(base_doc)
    for key, base_pt in sorted(base.items(), key=str):
        snr, policy = key
        new_pt = new.get(key)
        name = f"snr{snr:g}.{policy}"
        if new_pt is None:
            failures.append(f"{name}: point missing from new results")
            continue
        if snr == cliff:
            # The acceptance point: chase must keep delivering (and earning)
            # where standalone retries cannot. gate_ratio skips baselines at
            # zero goodput (standalone below the cliff has nothing to gate).
            gated_any = True
            gate_ratio(failures, name, "goodput_mbps", base_pt, new_pt,
                       threshold, unit="Mb/s")
        else:
            b, n = base_pt.get("goodput_mbps"), new_pt.get("goodput_mbps")
            if b is not None and n is not None and b > 0:
                print(f"  {name:.<28s} {'goodput_mbps':.<28s} "
                      f"{n:12.4g} / {b:12.4g} Mb/s  (not gated)")

    new_camp = {p["policy"]: p for p in new_doc.get("interference", [])}
    base_camp = {p["policy"]: p for p in base_doc.get("interference", [])}
    for policy, base_pt in sorted(base_camp.items()):
        new_pt = new_camp.get(policy)
        name = f"interference.{policy}"
        if new_pt is None:
            failures.append(f"{name}: row missing from new results")
            continue
        gated_any = True
        gate_ratio(failures, name, "goodput_mbps", base_pt, new_pt,
                   threshold, unit="Mb/s")
    return failures, gated_any


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("new", help="freshly emitted bench JSON")
    ap.add_argument(
        "--baseline", default=None,
        help="committed baseline (default: repo-root file matching the "
        "new results' bench family)")
    ap.add_argument(
        "--threshold", type=float,
        default=float(os.environ.get("MIMONET_SCAN_DIFF_THRESHOLD", "0.20")),
        help="allowed fractional regression (default 0.20 = 20%%)")
    args = ap.parse_args()

    try:
        new_doc = load_doc(args.new)
    except (OSError, ValueError) as e:
        print(f"bench_diff: cannot read {args.new}: {e}", file=sys.stderr)
        return 2

    family = new_doc.get("bench")
    if family == "hotpath":
        default_baseline = os.path.join(REPO_ROOT, "BENCH_hotpath.json")
        diff = diff_hotpath
    elif family == "stream":
        default_baseline = os.path.join(REPO_ROOT, "BENCH_stream.json")
        diff = diff_scan
    elif family == "mu":
        default_baseline = os.path.join(REPO_ROOT, "BENCH_mu.json")
        diff = diff_mu
    elif family == "harq":
        default_baseline = os.path.join(REPO_ROOT, "BENCH_harq.json")
        diff = diff_harq
    else:
        print(f"bench_diff: unknown bench family {family!r} in {args.new}",
              file=sys.stderr)
        return 2
    baseline = args.baseline or default_baseline

    if not os.path.exists(baseline):
        print(f"bench_diff: no baseline at {baseline}; nothing to gate")
        return 0
    try:
        base_doc = load_doc(baseline)
    except (OSError, ValueError) as e:
        print(f"bench_diff: cannot read baseline {baseline}: {e}",
              file=sys.stderr)
        return 2

    failures, gated_any = diff(new_doc, base_doc, args.threshold)
    if failures is None:
        return 2
    if failures:
        print(f"bench_diff: {family} throughput regressed:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    if gated_any:
        print(f"bench_diff: {family} throughput within "
              f"{args.threshold * 100.0:.0f}% of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
