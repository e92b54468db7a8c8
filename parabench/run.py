"""Benchmark of parashield: end-to-end and per-layer metrics on three workloads.

    python3 parabench/run.py --workload online-fine --seed 1 --seconds 25 --trace 0

Run from the repository root.  The package is imported from `src/` of the
same tree.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  See README.md.
"""

from __future__ import annotations

import os

# one thread: numpy's optional thread pools stay off
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Put this tree's `src/` first and make sure parashield comes from it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import parashield
    except ImportError as e:
        raise SystemExit(f"parabench: cannot import parashield from {src}: {e}")
    if Path(parashield.__file__).resolve().parent != src / "parashield":
        raise SystemExit(f"parabench: parashield imported from {parashield.__file__}, not {src}")


def main(argv=None):
    import_program()
    import workloads

    args = parse_args(argv, list(workloads.WORKLOADS))
    result, summary, problems = workloads.execute(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print("\n".join(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
