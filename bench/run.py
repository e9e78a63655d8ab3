#!/usr/bin/env python3
"""spikeopt benchmark entry point.

    python3 bench/run.py --workload mlp-wide --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. `--trace 0` measures the end-to-end
metrics untraced; `--trace 1` alternates untraced and traced rounds and
reports the per-layer split plus the tracing overhead. `--smoke` shrinks
every workload to tiny sizes. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

The run pins BLAS to one thread unless the caller set the thread variables,
and leaves `SNN_THREADS` unset so the CLI runs its default single worker.
"""

import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main():
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "spikeopt" / "__init__.py").is_file():
        sys.exit(f"error: no spikeopt sources under {src}; run from a repository checkout")
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")  # must precede the first numpy import
    os.environ.pop("SNN_THREADS", None)
    sys.path.insert(0, str(src))

    import harness

    return harness.main(sys.argv[1:], root)


if __name__ == "__main__":
    sys.exit(main())
