#!/usr/bin/env python3
"""End-to-end benchmark of subspar.

Builds the benchmark program (perfbench/main.cpp) and the library from this
source tree into .bench_build/, then runs one workload per process:

    python3 perfbench/run.py                     # all four workloads, untraced
    python3 perfbench/run.py --trace 1           # all four, traced
    python3 perfbench/run.py --workload wavelet-fd-256 --seed 3 --seconds 10 --trace 0

With --workload, the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the metrics are the end_to_end
(--trace 0) or per_layer (--trace 1) entries of BENCHMARK.json. The lines
before it are the program's own report: run context, every metric it
measured with unit and sample count, and in a traced run the span self-time
table and the path of the Chrome trace (.bench_build/traces/).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["lowrank-surface-256", "wavelet-surface-1024", "wavelet-fd-256", "service-mix"]


def build():
    """Configures and builds the benchmark program; returns its path."""
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench", "-j",
                    str(min(4, os.cpu_count() or 1))], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def source_id():
    """The git commit of this tree when it is a checkout, else a digest of
    the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "include", "src"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def run_workload(binary, spec, workload, seed, seconds, trace, commit):
    """Runs one workload; prints its report and the result line. Returns
    (exit code, the program's full result or None)."""
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--commit", commit, "--refs-dir", os.path.join(HERE, "refs"),
           "--trace-out", os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        full = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        print("perfbench: %s produced no result (exit %d)" % (workload, proc.returncode),
              file=sys.stderr)
        return 1, None
    print("\n".join(lines[:-1]))
    metrics = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        got = full["metrics"].get(entry["name"])
        if got is None or got["unit"] != entry["unit"]:
            print("perfbench: %s did not report %s in %s" % (workload, entry["name"],
                                                            entry["unit"]), file=sys.stderr)
            return 1, None
        metrics[entry["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": full["correct"], "attempted": full["attempted"],
                      "failed": full["failed"], "metrics": metrics}), flush=True)
    return proc.returncode, full


def print_summary(results, trace):
    names = []
    for full in results.values():
        for name in full["metrics"]:
            if name not in names:
                names.append(name)
    print("\nsummary (%s run; value [samples])" % ("traced" if trace else "untraced"))
    print("%-28s %-6s" % ("metric", "unit") + "".join("%24s" % w for w in results))
    for name in names:
        row, unit = "", ""
        for full in results.values():
            m = full["metrics"].get(name)
            unit = unit or (m["unit"] if m else "")
            row += "%24s" % ("%.6g [%d]" % (m["value"], m["samples"]) if m else "-")
        print("%-28s %-6s" % (name, unit) + row)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        binary = build()
    except (OSError, ValueError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    commit = source_id()
    if args.workload:
        return run_workload(binary, spec, args.workload, args.seed, args.seconds, args.trace,
                            commit)[0]
    rc, results = 0, {}
    for workload in WORKLOADS:
        print("=== %s" % workload, flush=True)
        code, full = run_workload(binary, spec, workload, args.seed, args.seconds, args.trace,
                                  commit)
        rc = rc or code
        if full is not None:
            results[workload] = full
    print_summary(results, args.trace)
    return rc


if __name__ == "__main__":
    sys.exit(main())
