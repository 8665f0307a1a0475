#!/usr/bin/env python3
"""The benchmark's own tests.

  python3 perfbench/test_bench.py [path/to/segram_bench]

Run from the repository root (`python3 perfbench/run.py --self-test`
builds the benchmark program and runs this). Checks that:

  * the same seed generates byte-identical inputs (FASTA/VCF/GFA, reads,
    truth), and a different seed generates different reads and truth
    (the reference is a fixed asset of each workload and must not move);
  * a short smoke run of every workload, untraced and traced, passes the
    correctness gate (1-thread vs N-thread PAF, served vs offline PAF,
    replay region count vs the mapper's, read accounting), and only the
    serve workload reports the daemon's metrics.

The inputs cannot depend on the thread count: generation runs on one
thread and takes no thread count (the program has no thread setting;
it maps at min(nproc, 4) threads and at 1 thread in every run).
"""

import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["chr40m-long", "repeats-long", "pangenome-short-serve"]
WORK = os.path.join(".bench_work", "selftest-%d" % os.getpid())


def run_bench(binary, *args):
    """Returns (exit code, result line, workload-only metrics, stderr)."""
    proc = subprocess.run([binary, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    extra = {}
    if len(lines) > 1 and lines[-2].startswith('{"workload_metrics"'):
        extra = json.loads(lines[-2])["workload_metrics"]
    return (proc.returncode, (json.loads(lines[-1]) if lines else None), extra,
            proc.stderr)


def digests(binary, workload, seed):
    work = os.path.join(WORK, "gen-%s-%d" % (workload, seed))
    code, result, _, err = run_bench(binary, "--workload", workload,
                                     "--seed", str(seed), "--work", work,
                                     "--gen-only")
    shutil.rmtree(work, ignore_errors=True)
    assert code == 0 and result, "gen-only failed:\n" + err
    return result["digests"]


def main():
    binary = sys.argv[1] if len(sys.argv) > 1 else os.path.join(".bench_build",
                                                                "segram_bench")
    failures = []

    def check(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    try:
        for workload in WORKLOADS:
            a = digests(binary, workload, 11)
            b = digests(binary, workload, 11)
            c = digests(binary, workload, 12)
            check(a == b, "%s: same seed, identical inputs %s" % (workload, a))
            reads = ("reads.fq", "reads.truth.tsv")
            check(all(a[f] != c[f] for f in reads),
                  "%s: another seed changes the reads and truth" % workload)
            check(all(a[f] == c[f] for f in a if f not in reads),
                  "%s: the reference does not depend on the seed" % workload)

        for workload in WORKLOADS:
            for trace in ("0", "1"):
                work = os.path.join(WORK, "smoke-%s-%s" % (workload, trace))
                code, result, extra, err = run_bench(
                    binary, "--workload", workload, "--seed", "3",
                    "--seconds", "1", "--trace", trace, "--work", work,
                    "--smoke")
                shutil.rmtree(work, ignore_errors=True)
                ok = code == 0 and result is not None and result["correct"] \
                    and result["failed"] == 0 and result["attempted"] > 0
                check(ok, "%s: smoke run (trace %s) passes the gate" % (workload, trace))
                if not ok:
                    print(err[-3000:], file=sys.stderr)
                serves = workload == "pangenome-short-serve"
                check(bool(extra) == serves,
                      "%s: daemon metrics %s (trace %s)" % (
                          workload, "reported" if serves else "absent", trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
