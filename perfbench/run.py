#!/usr/bin/env python3
"""End-to-end benchmark of three prio_server processes on loopback.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the servers and the generator (perfbench/CMakeLists.txt, Release,
into .bench_build/), runs one measured run, and prints as the last stdout
line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). The line before it records the host fingerprint. The full
report of the run, fingerprint included, is written to
.bench_out/<workload>/report.json (and the traced run's spans to
spans.csv next to it). See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ["ingest-short", "survey-wide", "steady-open", "wan-rounds"]
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; raises on failure."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "prio_server",
         "perfgen"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return (os.path.join(BUILD, "prio", "prio_server"),
            os.path.join(BUILD, "perfgen"))


def read_first(path, pattern):
    try:
        with open(path) as f:
            for line in f:
                m = re.match(pattern, line)
                if m:
                    return m.group(1).strip()
    except OSError:
        pass
    return "unknown"


def filesystem_of(path):
    """Filesystem type of the mount holding `path` (longest prefix)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) >= 3 and (path == parts[1] or path.startswith(
                        parts[1].rstrip("/") + "/")) and len(parts[1]) > len(best):
                    best, fstype = parts[1], parts[2]
    except OSError:
        pass
    return fstype


def source_digest():
    """SHA-256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in sorted(paths):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def fingerprint(seed):
    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line.strip())
                if m:
                    cache[m.group(1)] = m.group(2)
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        commit = commit.stdout.strip() if commit.returncode == 0 else "none"
    except OSError:
        commit = "none"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": read_first("/proc/cpuinfo", r"^model name\s*:\s*(.*)$"),
        "kernel": platform.release(),
        "data_dir_fs": filesystem_of(OUT),
        "compiler": version,
        "cmake_build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "git_commit": commit,
        "source_sha256": source_digest(),
        "seed": seed,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--corrupt-epoch", type=int, default=None,
                    help="feed the oracle gate a wrong expected aggregate "
                         "for this epoch (the run must come out incorrect)")
    args = ap.parse_args()

    try:
        server_bin, perfgen = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2

    out_dir = os.path.join(OUT, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    cmd = [perfgen, "--server-bin", server_bin, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir]
    if args.corrupt_epoch is not None:
        cmd += ["--corrupt-epoch", str(args.corrupt_epoch)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()  # its servers die with it (PR_SET_PDEATHSIG)
        proc.communicate()
        log("perfgen did not finish in %d s" % RUN_TIMEOUT_S)
        return 3
    lines = [l for l in stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        log("perfgen failed with exit code %d" % proc.returncode)
        return 4
    result = json.loads(lines[-1])

    fp = fingerprint(args.seed)
    report_path = os.path.join(out_dir, "report.json")
    with open(report_path) as f:
        report = json.load(f)
    report["fingerprint"] = fp
    with open(report_path, "w") as f:
        json.dump(report, f, indent=1)
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
