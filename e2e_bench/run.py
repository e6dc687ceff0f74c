#!/usr/bin/env python3
"""Builds and runs the fmmsw end-to-end query benchmark.

One run (the last stdout line is the JSON result):

    python3 e2e_bench/run.py --workload tri_dense --seed 1 --seconds 15 --trace 0

Every workload plus the traced runs, printing every metric by name with
its unit and saving the records for compare.py:

    python3 e2e_bench/run.py --all --seeds 1-10 --out results.json

The library and the client are built from the checkout's sources with
CMake into $CARGO_TARGET_DIR (default .bench_build, or --build DIR), in
Release mode. Each result file records a machine fingerprint: nproc,
FMMSW_THREADS, the active SIMD level, the build type, the compiler, the
git revision and the seed.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["tri_dense", "tri_skew", "pyramid", "churn"]
# The library pool size. One worker: on a shared 4-vCPU host, five runs of
# one seed with 2 or 4 workers spread their medians over 7-40% of the
# median (co-tenant load stalls the slowest worker of every fan-out), and
# with one worker over 2-10%. See CALIBRATION.md.
THREADS = 1
# A run must end within 180 s; the build gets its own, longer budget.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_group(cmd, timeout, env=None, stdout=None):
    """Runs cmd in its own process group and returns (returncode, stdout).
    On timeout the whole group (compilers under make, say) is killed and
    reaped before TimeoutExpired propagates."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build_dir(arg):
    path = arg or os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def build(bdir):
    """Configures (once) and builds the client; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError("no fmmsw sources (CMakeLists.txt, src/) at " +
                           ROOT)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    # Compiler temporaries stay inside the build directory.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "fmmsw_e2e", "-j",
                  str(os.cpu_count() or 1)])
    for cmd in steps:
        left = max(1.0, deadline - time.monotonic())
        code, _ = run_group(cmd, left, env=env, stdout=sys.stderr)
        if code != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(bdir, "fmmsw_e2e")


def first_line(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def fingerprint(bdir, seed, simd):
    cache = {}
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith("//"):
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    return {
        "nproc": os.cpu_count(),
        "FMMSW_THREADS": THREADS,
        "simd": simd,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "compiler": first_line([compiler, "--version"]),
        "git": (first_line(["git", "rev-parse", "HEAD"])
                if os.path.exists(os.path.join(ROOT, ".git")) else "unknown"),
        "seed": seed,
    }


def run_one(binary, bdir, workload, seed, seconds, trace):
    """Runs one workload; returns the record (fingerprint, info, result)."""
    env = dict(os.environ, FMMSW_THREADS=str(THREADS))
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace)]
    code, out = run_group(cmd, RUN_TIMEOUT_S, env=env,
                          stdout=subprocess.PIPE)
    lines = [l for l in out.splitlines() if l.startswith("{")]
    if code != 0 or len(lines) < 2:
        raise RuntimeError("%s exited with %d" % (workload, code))
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "fingerprint": fingerprint(bdir, seed, info.get("simd")),
        "info": info,
        "result": result,
    }
    out_dir = os.path.join(bdir, "results")
    os.makedirs(out_dir, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (workload, seed, trace)
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(record, f, indent=1)
    log("fingerprint: " + json.dumps(record["fingerprint"]))
    return record


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def print_table(records):
    """Every metric by name and unit, median over seeds, one column per
    workload."""
    cols = [w for w in WORKLOADS if any(r["workload"] == w for r in records)]
    for trace in (0, 1):
        rows = {}
        for r in records:
            if r["trace"] != trace:
                continue
            for name, m in r["result"]["metrics"].items():
                rows.setdefault((name, m["unit"]), {}).setdefault(
                    r["workload"], []).append(m["value"])
        if not rows:
            continue
        print("\n%s metrics (median over seeds)" %
              ("per-layer" if trace else "end-to-end"))
        print("%-32s %-6s" % ("metric", "unit") +
              "".join("%14s" % w for w in cols))
        for (name, unit), per in rows.items():
            cells = "".join(
                "%14.5g" % statistics.median(per[w]) if w in per else
                "%14s" % "-" for w in cols)
            print("%-32s %-6s%s" % (name, unit, cells))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true",
                   help="every workload at every --seeds, plus one traced "
                   "run per workload")
    p.add_argument("--seeds", default=None,
                   help="with --all: seeds as a list or ranges, e.g. 1-10")
    p.add_argument("--out", help="with --all: append every record to this "
                   "JSON file")
    p.add_argument("--build", help="build directory (relative to the root)")
    args = p.parse_args()
    if not args.all and args.workload is None:
        p.error("give --workload or --all")

    try:
        bdir = build_dir(args.build)
        binary = build(bdir)
        if not args.all:
            record = run_one(binary, bdir, args.workload, args.seed,
                             args.seconds, args.trace)
            print(json.dumps(record["result"]), flush=True)
            return 0 if record["result"]["correct"] else 1
        seeds = parse_seeds(args.seeds) if args.seeds else [args.seed]
        records = []
        for seed in seeds:
            for w in WORKLOADS:
                records.append(run_one(binary, bdir, w, seed, args.seconds, 0))
        for w in WORKLOADS:
            records.append(run_one(binary, bdir, w, seeds[0], args.seconds,
                                   1))
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log("run.py: %s" % e)
        return 2
    if args.out:
        saved = []
        if os.path.exists(args.out):
            with open(args.out) as f:
                saved = json.load(f)
        with open(args.out, "w") as f:
            json.dump(saved + records, f, indent=1)
    print_table(records)
    return 0 if all(r["result"]["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
