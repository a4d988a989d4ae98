#!/usr/bin/env bash
# Full local verification matrix: plain, ASan+UBSan, and TSan builds, each
# running the complete ctest suite (unit tests, stress harness, integration).
# This is the correctness gate every performance PR runs against:
#
#   scripts/check.sh            # all three configurations + bench smokes
#   scripts/check.sh plain      # just the plain build (-Werror)
#   scripts/check.sh asan tsan  # any subset, in order
#   scripts/check.sh bench-smoke  # hot-path bench on 4 packets + JSON schema + diff
#   scripts/check.sh farm-smoke   # E19 receiver-farm bench + "farm" schema
#   scripts/check.sh scan-smoke   # E18 length sweep + E20 scan bench + schema + diff
#   scripts/check.sh decode-smoke # E21 batched-decode bench + "decode" schema + diff
#   scripts/check.sh mu-smoke     # E22 multi-user bench + "mu" schema + diff
#   scripts/check.sh harq-smoke   # E23 HARQ/adaptation bench + "harq" schema + diff
#   scripts/check.sh perf-smoke   # perfbench smoke test + stream_long gates on 4 seeds
#
# Build trees are kept per-configuration (build/, build-asan/, build-tsan/)
# so incremental re-runs are cheap.
set -euo pipefail

cd "$(dirname "$0")/.."

configs=("$@")
if [ ${#configs[@]} -eq 0 ]; then
  configs=(plain asan tsan bench-smoke farm-smoke scan-smoke decode-smoke mu-smoke harq-smoke perf-smoke)
fi

run_config() {
  local name="$1" dir="$2"
  shift 2
  echo "==== [$name] configure ===="
  cmake -B "$dir" -S . "$@" > "$dir.configure.log" 2>&1 || {
    cat "$dir.configure.log"; return 1; }
  echo "==== [$name] build ===="
  cmake --build "$dir" -j > "$dir.build.log" 2>&1 || {
    tail -50 "$dir.build.log"; return 1; }
  echo "==== [$name] ctest ===="
  ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
}

# Hot-path bench smoke: a handful of packets through bench_e17_hotpath, then
# a schema check on the emitted BENCH_hotpath.json. Catches both a broken
# hot path (the bench fails if any packet fails to decode) and a broken
# JSON emitter before a real perf run wastes an hour on it.
run_bench_smoke() {
  echo "==== [bench-smoke] build ===="
  cmake -B build -S . > build.configure.log 2>&1 || {
    cat build.configure.log; return 1; }
  cmake --build build -j --target bench_e17_hotpath > build.build.log 2>&1 || {
    tail -50 build.build.log; return 1; }
  echo "==== [bench-smoke] run (4 packets) ===="
  local tmp
  tmp="$(mktemp -d)"
  MIMONET_BENCH_PACKETS=4 MIMONET_BENCH_JSON_DIR="$tmp" \
    ./build/bench/bench_e17_hotpath || { rm -rf "$tmp"; return 1; }
  echo "==== [bench-smoke] validate BENCH_hotpath.json ===="
  python3 - "$tmp/BENCH_hotpath.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    d = json.load(f)
for key in ("bench", "baseline_commit", "timed_packets", "payload_bytes",
            "n_threads", "cases", "all_packets_decoded"):
    assert key in d, f"missing key: {key}"
assert d["bench"] == "hotpath"
assert isinstance(d["cases"], list) and len(d["cases"]) == 2, "want 2 cases"
for c in d["cases"]:
    for key in ("bench", "mcs", "samples_per_sec", "packets_per_sec",
                "baseline_samples_per_sec", "speedup_vs_baseline",
                "decode_failures"):
        assert key in c, f"missing case key: {key}"
    assert c["samples_per_sec"] > 0, "non-positive sample rate"
    assert c["decode_failures"] == 0, "decode failures in smoke run"
print("BENCH_hotpath.json schema OK")
EOF
  local rc=$?
  if [ "$rc" -ne 0 ]; then rm -rf "$tmp"; return "$rc"; fi
  echo "==== [bench-smoke] diff vs committed baseline ===="
  # 4-packet e2e timings are noisy; the loose threshold only catches a
  # catastrophic hot-path regression, the committed baseline tracks real runs.
  python3 scripts/bench_diff.py "$tmp/BENCH_hotpath.json" \
    --threshold "${MIMONET_HOTPATH_SMOKE_THRESHOLD:-0.5}"
  rc=$?
  rm -rf "$tmp"
  return "$rc"
}

# Receiver-farm smoke: a few packets through bench_e19_farm (which asserts
# sharded scans stay bit-identical to the sequential baseline), then a
# schema check on the "farm" saturation table merged into BENCH_stream.json.
run_farm_smoke() {
  echo "==== [farm-smoke] build ===="
  cmake -B build -S . > build.configure.log 2>&1 || {
    cat build.configure.log; return 1; }
  cmake --build build -j --target bench_e19_farm > build.build.log 2>&1 || {
    tail -50 build.build.log; return 1; }
  echo "==== [farm-smoke] run (6 packets, 4 streams) ===="
  local tmp
  tmp="$(mktemp -d)"
  MIMONET_BENCH_PACKETS=6 MIMONET_BENCH_STREAMS=4 MIMONET_BENCH_JSON_DIR="$tmp" \
    ./build/bench/bench_e19_farm || { rm -rf "$tmp"; return 1; }
  echo "==== [farm-smoke] validate BENCH_stream.json farm table ===="
  python3 - "$tmp/BENCH_stream.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    d = json.load(f)
assert d["bench"] == "stream"
farm = d["farm"]
for key in ("hardware_concurrency", "packets_per_capture", "streams",
            "sharded", "base_station", "all_exact"):
    assert key in farm, f"missing farm key: {key}"
assert farm["all_exact"] is True, "farm results diverged from baseline"
for mode in ("sharded", "base_station"):
    rows = farm[mode]
    assert isinstance(rows, list) and len(rows) >= 2, f"want {mode} rows"
    for r in rows:
        assert r["workers"] >= 1
        assert r["packets_per_sec"] > 0, "non-positive rate"
    assert rows[0]["workers"] == 1, "first row must be the 1-worker baseline"
for r in farm["sharded"]:
    assert r["bit_identical"] is True, "sharded scan not bit-identical"
print("BENCH_stream.json farm schema OK")
EOF
  local rc=$?
  rm -rf "$tmp"
  return "$rc"
}

# Front-end scan smoke: the E18 length sweep at 8/32/128 packets (the bench
# exits nonzero unless scan Msamp/s stays within 20% of flat — a receive
# whose work grows with the capture tail fails here), then a few packets
# through bench_e20_scan (which asserts the two-pass scan's records match
# the exhaustive scan and that the coarse pass clears the 20 Msamp/s
# real-time bar), a schema check on the sweep and the "scan" table merged
# into BENCH_stream.json, then scripts/bench_diff.py against the committed
# baseline — >20% scan-throughput regression fails the job.
run_scan_smoke() {
  echo "==== [scan-smoke] build ===="
  cmake -B build -S . > build.configure.log 2>&1 || {
    cat build.configure.log; return 1; }
  cmake --build build -j --target bench_e18_stream bench_e20_scan \
    > build.build.log 2>&1 || { tail -50 build.build.log; return 1; }
  local tmp
  tmp="$(mktemp -d)"
  echo "==== [scan-smoke] E18 length sweep (8/32/128 packets) ===="
  MIMONET_BENCH_PACKETS=8 MIMONET_BENCH_JSON_DIR="$tmp" \
    ./build/bench/bench_e18_stream || { rm -rf "$tmp"; return 1; }
  echo "==== [scan-smoke] run (4 packets) ===="
  MIMONET_BENCH_PACKETS=4 MIMONET_BENCH_JSON_DIR="$tmp" \
    ./build/bench/bench_e20_scan || { rm -rf "$tmp"; return 1; }
  echo "==== [scan-smoke] validate BENCH_stream.json scan table ===="
  python3 - "$tmp/BENCH_stream.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    d = json.load(f)
assert d["bench"] == "stream"
scan = d["scan"]
for key in ("packets_per_capture", "decimation", "simd_active", "cases",
            "coarse_2x2_clean_msamp_s", "meets_20msps_bar"):
    assert key in scan, f"missing scan key: {key}"
assert scan["meets_20msps_bar"] is True, "coarse pass below 20 Msamp/s"
cases = {c["bench"]: c for c in scan["cases"]}
want = {"1x1_mcs7_clean", "1x1_mcs7_faulted_gaps", "2x2_mcs15_clean",
        "2x2_mcs15_5pct_air"}
assert set(cases) == want, f"want scan cases {sorted(want)}, got {sorted(cases)}"
assert cases["2x2_mcs15_5pct_air"]["air_pct"] == 5, "sparse case not at 5% air"
for c in cases.values():
    for key in ("bench", "mcs", "coarse_msamp_s", "full_kernel_msamp_s",
                "full_kernel_scalar_msamp_s", "e2e_exhaustive_msamp_s",
                "e2e_twopass_msamp_s", "delivered", "records_identical"):
        assert key in c, f"missing scan case key: {key}"
    assert c["coarse_msamp_s"] > 0, "non-positive coarse rate"
    assert c["records_identical"] is True, "two-pass records diverged"
sweep = d["length_sweep"]
assert isinstance(sweep, list) and len(sweep) == 3, "want 3 sweep lengths"
for r in sweep:
    assert r["msamp_s"] > 0, "non-positive sweep rate"
assert d["flatness"] <= d["max_flatness"], "scan rate not flat in capture length"
print("BENCH_stream.json scan + length-sweep schema OK")
EOF
  local rc=$?
  if [ "$rc" -ne 0 ]; then rm -rf "$tmp"; return "$rc"; fi
  echo "==== [scan-smoke] diff vs committed baseline ===="
  python3 scripts/bench_diff.py "$tmp/BENCH_stream.json"
  rc=$?
  rm -rf "$tmp"
  return "$rc"
}

# Batched-decode smoke: a few receives through bench_e21_decode, which
# itself asserts (a) the batched symbol-plane decode stays record-identical
# to the per-symbol reference path and (b) the batched eq/demap/deinterleave
# kernels clear the 20 Msamp/s-equivalent bar (MIMONET_DECODE_KERNEL_MSPS
# overrides the bar for slow CI hardware). Then a schema check on the
# "decode" table merged into BENCH_hotpath.json and a loose regression diff.
run_decode_smoke() {
  echo "==== [decode-smoke] build ===="
  cmake -B build -S . > build.configure.log 2>&1 || {
    cat build.configure.log; return 1; }
  cmake --build build -j --target bench_e21_decode > build.build.log 2>&1 || {
    tail -50 build.build.log; return 1; }
  echo "==== [decode-smoke] run (4 receives) ===="
  local tmp
  tmp="$(mktemp -d)"
  MIMONET_BENCH_PACKETS=4 MIMONET_BENCH_JSON_DIR="$tmp" \
    ./build/bench/bench_e21_decode || { rm -rf "$tmp"; return 1; }
  echo "==== [decode-smoke] validate BENCH_hotpath.json decode table ===="
  python3 - "$tmp/BENCH_hotpath.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    d = json.load(f)
assert d["bench"] == "hotpath"
dec = d["decode"]
for key in ("timed_receives", "payload_bytes", "chunk_symbols", "demap_simd",
            "deint_simd", "cases", "stages", "kernel_bar_msamp_s",
            "kernels_meet_bar", "all_records_identical"):
    assert key in dec, f"missing decode key: {key}"
assert dec["kernels_meet_bar"] is True, "batched kernels below the bar"
assert dec["all_records_identical"] is True, \
    "batched decode diverged from the per-symbol path"
cases = dec["cases"]
assert isinstance(cases, list) and len(cases) == 2, "want 2 decode cases"
for c in cases:
    for key in ("bench", "mcs", "batched_samples_per_sec",
                "per_symbol_samples_per_sec", "batched_over_per_symbol",
                "speedup_vs_baseline", "records_identical",
                "decode_failures"):
        assert key in c, f"missing decode case key: {key}"
    assert c["batched_samples_per_sec"] > 0, "non-positive decode rate"
    assert c["records_identical"] is True, "decode record diverged"
    assert c["decode_failures"] == 0, "decode failures in smoke run"
stages = dec["stages"]
for key in ("fft_msamp_s", "eq_msamp_s", "demap_msamp_s", "deint_msamp_s",
            "viterbi_msamp_s"):
    assert key in stages and stages[key] > 0, f"bad stage figure: {key}"
print("BENCH_hotpath.json decode schema OK")
EOF
  local rc=$?
  if [ "$rc" -ne 0 ]; then rm -rf "$tmp"; return "$rc"; fi
  echo "==== [decode-smoke] diff vs committed baseline ===="
  python3 scripts/bench_diff.py "$tmp/BENCH_hotpath.json" \
    --threshold "${MIMONET_HOTPATH_SMOKE_THRESHOLD:-0.5}"
  rc=$?
  rm -rf "$tmp"
  return "$rc"
}

# Multi-user smoke: a reduced-packet run of bench_e22_mu, which itself
# asserts the MU acceptance shape (fresh-CSI 2-user per-user throughput
# >= 80% of single-link, monotonic sum-throughput degradation with CSI
# staleness). Then a schema check on BENCH_mu.json and a regression diff
# against the committed baseline — >20% fresh-CSI sum-throughput loss fails
# full runs; the reduced smoke run gets a looser, env-overridable bar since
# its per-point PER is quantized to a handful of packets.
run_mu_smoke() {
  echo "==== [mu-smoke] build ===="
  cmake -B build -S . > build.configure.log 2>&1 || {
    cat build.configure.log; return 1; }
  cmake --build build -j --target bench_e22_mu > build.build.log 2>&1 || {
    tail -50 build.build.log; return 1; }
  echo "==== [mu-smoke] run (12 packets per point) ===="
  local tmp
  tmp="$(mktemp -d)"
  MIMONET_BENCH_PACKETS=12 MIMONET_BENCH_JSON_DIR="$tmp" \
    ./build/bench/bench_e22_mu || { rm -rf "$tmp"; return 1; }
  echo "==== [mu-smoke] validate BENCH_mu.json ===="
  python3 - "$tmp/BENCH_mu.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    d = json.load(f)
for key in ("bench", "packets_per_point", "mcs", "snr_db", "doppler_norm",
            "downlink", "uplink"):
    assert key in d, f"missing key: {key}"
assert d["bench"] == "mu"
dl = d["downlink"]
assert isinstance(dl, list) and len(dl) == 9, "want 3 users x 3 staleness"
for p in dl:
    for key in ("users", "stale_symbols", "sum_throughput_mbps", "per",
                "sinr_db"):
        assert key in p, f"missing downlink key: {key}"
    assert p["users"] in (1, 2, 4)
    assert p["stale_symbols"] in (0, 4, 16)
    assert 0.0 <= p["per"] <= 1.0
fresh = {p["users"]: p for p in dl if p["stale_symbols"] == 0}
assert fresh[2]["sum_throughput_mbps"] > fresh[1]["sum_throughput_mbps"], \
    "2-user fresh-CSI sum throughput below single-link"
ul = d["uplink"]
assert isinstance(ul, list) and len(ul) == 3, "want 3 uplink points"
for p in ul:
    for key in ("users", "sum_throughput_mbps", "per", "sinr_db"):
        assert key in p, f"missing uplink key: {key}"
    assert p["sum_throughput_mbps"] > 0, "non-positive uplink throughput"
print("BENCH_mu.json schema OK")
EOF
  local rc=$?
  if [ "$rc" -ne 0 ]; then rm -rf "$tmp"; return "$rc"; fi
  echo "==== [mu-smoke] diff vs committed baseline ===="
  python3 scripts/bench_diff.py "$tmp/BENCH_mu.json" \
    --threshold "${MIMONET_MU_SMOKE_THRESHOLD:-0.4}"
  rc=$?
  rm -rf "$tmp"
  return "$rc"
}

# HARQ/adaptation smoke: a full-count run of bench_e23_harq — unlike the
# perf smokes this bench is a deterministic link simulation, not a
# wall-clock timing, so the full default sweep runs in about a second and
# reruns are bit-identical. The binary itself asserts the two load-bearing
# shapes (chase combining delivers at the pinned cliff SNR where standalone
# retries cannot; the evidence controller out-earns the blind failure-count
# baseline under pulsed interference) and exits nonzero if either fails.
# Then a schema check on BENCH_harq.json and the regression diff — >20%
# goodput loss at the cliff or in the campaign fails the job.
run_harq_smoke() {
  echo "==== [harq-smoke] build ===="
  cmake -B build -S . > build.configure.log 2>&1 || {
    cat build.configure.log; return 1; }
  cmake --build build -j --target bench_e23_harq > build.build.log 2>&1 || {
    tail -50 build.build.log; return 1; }
  echo "==== [harq-smoke] run (full deterministic sweep) ===="
  local tmp
  tmp="$(mktemp -d)"
  MIMONET_BENCH_JSON_DIR="$tmp" \
    ./build/bench/bench_e23_harq || { rm -rf "$tmp"; return 1; }
  echo "==== [harq-smoke] validate BENCH_harq.json ===="
  python3 - "$tmp/BENCH_harq.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    d = json.load(f)
for key in ("bench", "msdus_per_point", "campaign_msdus", "payload_bytes",
            "mcs", "cliff_snr_db", "max_retries", "shape_ok", "points",
            "interference"):
    assert key in d, f"missing key: {key}"
assert d["bench"] == "harq"
assert d["shape_ok"] is True, "bench shape assertions failed"
pts = d["points"]
assert isinstance(pts, list) and len(pts) == 18, "want 6 SNRs x 3 policies"
policies = {"standalone", "chase", "chase_evidence"}
for p in pts:
    for key in ("snr_db", "policy", "delivered", "lost", "goodput_mbps",
                "avg_attempts", "harq_combined_ok", "mcs_fallbacks",
                "interference_holds", "final_mcs"):
        assert key in p, f"missing point key: {key}"
    assert p["policy"] in policies
cliff = {p["policy"]: p for p in pts if p["snr_db"] == d["cliff_snr_db"]}
assert cliff["chase"]["delivered"] > cliff["standalone"]["delivered"], \
    "chase combining no better than standalone at the cliff"
assert cliff["chase"]["harq_combined_ok"] > 0, \
    "no combined decodes at the cliff"
camp = {p["policy"]: p for p in d["interference"]}
assert set(camp) == policies, "want all 3 campaign policies"
assert camp["chase_evidence"]["goodput_mbps"] >= \
    camp["standalone"]["goodput_mbps"], \
    "evidence policy below the failure-count baseline under interference"
assert camp["chase_evidence"]["interference_holds"] > 0, \
    "evidence policy logged no interference holds"
print("BENCH_harq.json schema OK")
EOF
  local rc=$?
  if [ "$rc" -ne 0 ]; then rm -rf "$tmp"; return "$rc"; fi
  echo "==== [harq-smoke] diff vs committed baseline ===="
  python3 scripts/bench_diff.py "$tmp/BENCH_harq.json"
  rc=$?
  rm -rf "$tmp"
  return "$rc"
}

# Repository-benchmark smoke. The ctest suite never builds perfbench/, so a
# library change that breaks its build or its correctness gates would go
# unseen until a benchmark run. perfbench/smoke_test.py runs every workload
# at tiny size, untraced and traced (the traced run gates the stage replay
# bit-identical to Receiver::receive). Then full-size stream_long at seeds
# whose captures each once hid real frames behind a false sync (29, 35, 97:
# a lucky HT-SIG; 59: a rewind repeat straddling a shard boundary); each
# run exits nonzero unless all 256 frames are delivered and the sharded
# scan's records equal the 1-worker scan's.
run_perf_smoke() {
  echo "==== [perf-smoke] perfbench smoke test ===="
  python3 perfbench/smoke_test.py || return 1
  local seed
  for seed in 29 35 59 97; do
    echo "==== [perf-smoke] stream_long seed $seed ===="
    python3 perfbench/run.py --workload stream_long --seed "$seed" \
      --seconds 1 --trace 0 | tail -n 1 || {
      echo "stream_long seed $seed failed its gates" >&2; return 1; }
  done
}

for cfg in "${configs[@]}"; do
  case "$cfg" in
    plain)
      # Warnings are errors here only: a new warning fails the plain job.
      run_config plain build -DCMAKE_CXX_FLAGS=-Werror ;;
    asan)
      # halt_on_error keeps UBSan findings fatal even where
      # -fno-sanitize-recover is not honored by the toolchain.
      UBSAN_OPTIONS="print_stacktrace=1" \
      run_config asan+ubsan build-asan -DMIMONET_ASAN=ON -DMIMONET_UBSAN=ON ;;
    tsan)
      run_config tsan build-tsan -DMIMONET_TSAN=ON ;;
    bench-smoke)
      run_bench_smoke ;;
    farm-smoke)
      run_farm_smoke ;;
    scan-smoke)
      run_scan_smoke ;;
    decode-smoke)
      run_decode_smoke ;;
    mu-smoke)
      run_mu_smoke ;;
    harq-smoke)
      run_harq_smoke ;;
    perf-smoke)
      run_perf_smoke ;;
    *)
      echo "unknown config: $cfg (want plain|asan|tsan|bench-smoke|farm-smoke|scan-smoke|decode-smoke|mu-smoke|harq-smoke|perf-smoke)" >&2
      exit 2 ;;
  esac
done

echo "==== all requested configurations clean ===="
