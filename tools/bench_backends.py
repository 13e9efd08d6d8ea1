#!/usr/bin/env python3
"""Run a subspar google-benchmark binary once per kernel backend and merge
the per-run JSON dumps into one baseline file.

The committed baselines under bench/baselines/ record one entry per backend
(the fp64-scalar reference, plus the best SIMD backend the host dispatches
to), each a verbatim google-benchmark dump — context block included, so the
`subspar_backend` / `subspar_threads` provenance the bench main() adds is
preserved per entry, so fp64-scalar vs fp64-SIMD comparisons come from the
same file.

Typical regeneration (matches README "Performance"):

  python3 tools/bench_backends.py --bench ./build/bench/bench_micro_kernels \
      --threads 1 --min-time 0.1 --out bench/baselines/BENCH_micro_kernels.json
  python3 tools/bench_backends.py --bench ./build/bench/bench_micro_kernels \
      --threads 4 --min-time 0.1 --filter 'BM_SpMM|BM_Ic0|BM_FdSolve' \
      --out bench/baselines/BENCH_sparse_engine.json
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile


def run_backend(bench, backend, threads, min_time, bench_filter):
    """One bench run; `backend` None means the process default (best SIMD)."""
    env = dict(os.environ)
    env.pop("SUBSPAR_BACKEND", None)
    if backend is not None:
        env["SUBSPAR_BACKEND"] = backend
    if threads is not None:
        env["SUBSPAR_THREADS"] = str(threads)
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out_path = tmp.name
    try:
        cmd = [
            bench,
            f"--benchmark_out={out_path}",
            "--benchmark_out_format=json",
            f"--benchmark_min_time={min_time}",
        ]
        if bench_filter:
            cmd.append(f"--benchmark_filter={bench_filter}")
        label = backend or "default"
        print(f"[bench_backends] running backend={label} ...", flush=True)
        subprocess.run(cmd, env=env, check=True, stdout=sys.stderr)
        with open(out_path) as f:
            return json.load(f)
    finally:
        os.unlink(out_path)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", required=True, help="benchmark binary to run")
    parser.add_argument("--out", required=True, help="merged baseline JSON to write")
    parser.add_argument(
        "--backends",
        default="scalar,default",
        help="comma-separated SUBSPAR_BACKEND values; 'default' = unset "
        "(the best backend the host dispatches to). Default: scalar,default",
    )
    parser.add_argument("--threads", type=int, default=None, help="SUBSPAR_THREADS for every run")
    parser.add_argument("--min-time", default="0.1", help="--benchmark_min_time per run")
    parser.add_argument("--filter", default=None, help="--benchmark_filter per run")
    args = parser.parse_args()

    entries = []
    seen = set()
    for backend in args.backends.split(","):
        backend = backend.strip()
        dump = run_backend(args.bench, None if backend == "default" else backend,
                           args.threads, args.min_time, args.filter)
        # Label from the run's own context: 'default' resolves to whatever
        # the dispatcher picked, and a host without SIMD TUs (where default
        # == scalar) collapses to a single entry instead of duplicating it.
        name = dump.get("context", {}).get("subspar_backend", backend)
        if name in seen:
            print(f"[bench_backends] backend '{name}' already recorded; skipping", flush=True)
            continue
        seen.add(name)
        entries.append({"backend": name, "context": dump["context"],
                        "benchmarks": dump["benchmarks"]})

    with open(args.out, "w") as f:
        json.dump({"schema": "subspar-bench-backends-v1", "entries": entries}, f, indent=1)
        f.write("\n")
    print(f"[bench_backends] wrote {args.out}: "
          + ", ".join(e["backend"] for e in entries), flush=True)


if __name__ == "__main__":
    main()
