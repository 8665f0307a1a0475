#!/usr/bin/env python3
"""End-to-end benchmark of segram's shipping path.

Run from the root of a segram checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --all [--seed N] [--seconds S]
  python3 perfbench/run.py --self-test

The first form builds the C++ benchmark program (perfbench/CMakeLists.txt,
into $CARGO_TARGET_DIR or .bench_build), runs one workload and prints its
result as the last line of standard output: one JSON object with
`correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1). The metrics only the serve workload has (the daemon's
latency and capacity, the serve layer's) are listed on standard error.
A failed correctness gate exits non-zero without a result line.

--all runs every workload untraced and traced, prints every metric with
its unit and the scale-exposure ratio. --self-test runs the benchmark's
own tests (perfbench/test_bench.py).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ["chr40m-long", "repeats-long", "pangenome-short-serve"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Configures and builds the benchmark program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "sharded_mapper.h")):
        log("perfbench: no segram sources under %s/src; run from the "
            "root of a segram checkout" % ROOT)
        sys.exit(2)
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    for cmd in (["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "-j", jobs, "--target", "segram_bench"]):
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("perfbench: build step failed: %s" % " ".join(cmd))
            sys.exit(proc.returncode or 1)
    return os.path.join(out, "segram_bench")


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, result dict or None,
    workload-only metrics dict)."""
    work = os.path.join(".bench_work", "%s-s%d-p%d" % (workload, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work", work]
    if trace:
        cmd += ["--trace-out", os.path.join(".bench_traces",
                                            "%s-seed%d.json" % (workload, seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1, None, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [line for line in stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1, None, {}
    extra = {}
    if len(lines) > 1 and lines[-2].startswith('{"workload_metrics"'):
        extra = json.loads(lines[-2])["workload_metrics"]
    return 0, json.loads(lines[-1]), extra


def format_metrics(metrics):
    return ["  %-32s %14.6g %s" % (name, m["value"], m["unit"])
            for name, m in metrics.items()]


def run_all(binary, seed, seconds):
    """Every workload, untraced then traced, as one report."""
    layer = {}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result, extra = run_workload(binary, workload, seed,
                                               seconds, trace)
            if code != 0 or not result or not result["correct"]:
                log("perfbench: %s (trace %d) FAILED" % (workload, trace))
                ok = False
                continue
            kind = "per-layer" if trace else "end-to-end"
            print("== %s (%s; attempted %d, failed %d)" % (
                workload, kind, result["attempted"], result["failed"]))
            for line in format_metrics(result["metrics"]):
                print(line)
            if extra:
                print("  -- %s only" % workload)
                for line in format_metrics(extra):
                    print(line)
            if trace:
                layer[workload] = result["metrics"]
    key = "graph.linearize.us_per_region"
    if "chr40m-long" in layer and "pangenome-short-serve" in layer:
        big = layer["chr40m-long"][key]["value"]
        small = layer["pangenome-short-serve"][key]["value"]
        print("scale exposure: %s chr40m-long / pangenome-short-serve = "
              "%.1fx (report only; ROADMAP item 1(a) targets <= 1.5x)" % (
                  key, big / small if small > 0 else float("inf")))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        binary = build()
        return subprocess.call([sys.executable,
                                os.path.join(BENCH_DIR, "test_bench.py"), binary])
    if not args.all and not args.workload:
        parser.error("one of --workload, --all or --self-test is required")
    binary = build()
    if args.all:
        return run_all(binary, args.seed, args.seconds)
    start = time.monotonic()
    code, result, extra = run_workload(binary, args.workload, args.seed,
                                       args.seconds, args.trace)
    log("perfbench: %s finished in %.1f s" % (args.workload, time.monotonic() - start))
    if code != 0 or result is None:
        return code or 1
    if extra:
        log("perfbench: %s only:\n%s" % (args.workload,
                                         "\n".join(format_metrics(extra))))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
