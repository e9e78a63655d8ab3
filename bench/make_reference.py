#!/usr/bin/env python3
"""Write bench/reference.json: the outputs every benchmark run checks.

    python3 bench/make_reference.py

For each network workload, at full and at smoke sizes, it generates the
workload at the reference seed, drives it through the CLI and records the
total spikes of `energy` and item 0's readout(T) from `infer --run-trace`.
Rewrite the file only with a change that is meant to alter spikes or
readouts, and say so with that change.
"""

import contextlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from run import BLAS_THREAD_VARS


def main():
    root = Path(__file__).resolve().parent.parent
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(root / "src"))

    import harness
    from workloads import WORKLOADS

    refs = {}
    checks = harness.Checks()
    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=root / ".bench_work"))
    try:
        for wl in WORKLOADS.values():
            if not wl.nets:
                continue
            for smoke in (False, True):
                key = harness.reference_key(wl, smoke)
                refs[key] = harness.reference_outputs(wl, work / key, smoke, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    if checks.failed:
        sys.exit("error: output checks failed:\n" + "\n".join(checks.errors))
    harness.REFERENCE_FILE.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {harness.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
