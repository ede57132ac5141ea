"""asmfit benchmark: one workload per run, end-to-end metrics or a layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload fit-256 --seed 7 --seconds 3 --trace 0

Workloads (BENCHMARK.json says why each exists): fit-256, train-240,
cli-oneshot. --seed makes the synthetic inputs; --seconds is the least time
the timed fit phase lasts; --trace 1 runs the operations under span
wrappers (some also untraced, for the overhead) and reports per-layer
metrics instead of end-to-end ones. Times are reported at a reference host
speed measured by a fixed kernel around and during each operation (see
workloads.py); raw wall times are printed beside them. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. A fuller record (environment, sample counts, raw times, checks)
goes to perfbench/out/.

The benchmark needs the asmfit sources in src/ next to this directory and
exits with status 2 without a result when they are missing.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# The plain single-threaded baseline: BLAS threads pinned before numpy loads.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOAD_NAMES = ("fit-256", "train-240", "cli-oneshot")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float,
                        help="least duration of the timed fit phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "asmfit" / "__init__.py").is_file():
        print(f"perfbench: asmfit sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    return workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), root)


if __name__ == "__main__":
    sys.exit(main())
