"""gfnlab benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload gcn-dense --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; gfnlab is imported from the checkout's
``src/``. The untraced run (``--trace 0``) reports the end-to-end metrics; the
traced run (``--trace 1``) alternates untraced and traced repetitions and
reports the per-layer metrics and the tracing overhead. Human-readable lines
come first; the last line of standard output is one JSON object. Details,
including the spans of the last traced repetition, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# BLAS/OpenMP threads for this process only; one keeps timings steady on a
# shared machine and never exceeds the core count.
THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gfnlab benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "gfnlab" / "__init__.py").is_file():
        print(f"perfbench: no gfnlab sources under {src}; run it inside a full checkout", file=sys.stderr)
        return 2
    # Must precede the first numpy import, which happens in bench.
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path.insert(0, str(src))

    import bench

    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, THREAD_VARS)


if __name__ == "__main__":
    sys.exit(main())
