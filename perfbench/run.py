#!/usr/bin/env python3
"""Build and run the MIMONet repository benchmark.

    python3 perfbench/run.py --workload stream_long --seed 1 --seconds 15 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (and the library sources under src/) into .bench_build/perfbench;
later runs only rebuild what changed. Build output goes to stderr. The
benchmark's stdout is passed through, followed by a '# host' fingerprint
line, and its last line is the result JSON. Each result is also appended,
with its fingerprint, to .bench_build/perfbench/results.jsonl, which
perfbench/compare.py reads. The exit code is the benchmark's: non-zero when
a correctness gate failed or the benchmark could not be built or run.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    exe = os.path.join(bdir, "perfbench")
    if not os.access(exe, os.X_OK):
        fail("build produced no perfbench executable")
    return exe


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                       capture_output=True, text=True, check=False)
    return r.stdout.strip() if r.returncode == 0 else "none"


def option(args, name, default):
    return args[args.index(name) + 1] if name in args[:-1] else default


def main():
    args = sys.argv[1:]
    bdir = build_dir()
    exe = build(bdir)
    cmd = [exe] + args
    if option(args, "--trace", "0") != "0" and "--trace-out" not in args:
        workload = option(args, "--workload", "none")
        seed = option(args, "--seed", "0")
        cmd += ["--trace-out", os.path.join(bdir, f"spans-{workload}-{seed}.csv")]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                           check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(r.stdout)
        fail(f"benchmark exited {r.returncode} without a result")

    host = {}
    for line in lines[:-1]:
        if line.startswith("# host "):
            host = json.loads(line[len("# host "):])
        else:
            print(line)
    host.update(cpu=cpu_model(), git=git_sha(), source=source_digest())
    result = json.loads(lines[-1])
    with open(os.path.join(bdir, "results.jsonl"), "a", encoding="utf-8") as f:
        f.write(json.dumps({"args": args, "host": host, "result": result}) + "\n")
    print("# host " + json.dumps(host))
    print(lines[-1])
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
