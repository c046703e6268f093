"""airbeam benchmark: one command runs a workload, checks its outputs and
prints every metric by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the root of a checkout; the package is imported from `src/`.
With --trace 0 the last stdout line holds the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer metrics of a separate traced
pass. Earlier stdout lines carry the environment record and run details.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads():
    """Cap every BLAS/OpenMP thread variable at the usable core count.
    Must run before numpy is imported."""
    ncores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            want = int(os.environ.get(var, ncores))
        except ValueError:
            want = ncores
        os.environ[var] = str(max(1, min(want, ncores)))
    return ncores


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="patch wrong programs in-process and confirm the checks trip")
    args = ap.parse_args(argv)

    ncores = pin_threads()
    if not (ROOT / "src" / "airbeam" / "__init__.py").is_file():
        print(f"perfbench: no airbeam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))

    from perfbench import environment, selftest, workloads

    if args.self_test:
        return selftest.main()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    env = environment.record(ncores, workloads.PAPER_BATCH)
    print(json.dumps({"env": env}))
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": result["detail"]}))
    if result["failures"]:
        print(json.dumps({"check_failures": result["failures"]}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
