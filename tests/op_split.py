"""Per-op split of a step on the benchmark's nets, in one process.

    python tests/op_split.py CHECKOUT [--workload W] [--runs N] [--reads R]

Imports `spikeopt` from CHECKOUT's `src/` and the net builders from its
`bench/workloads.py` (read only, as `tests/output_digest.py` does), and
builds each seed-0 net of the network workloads (or of W alone) as the
bench does: the model and items stored as float32 files and read back,
then converted under `inv:1` canonical, with `--normalize-relu` where the
bench uses it. Each net runs `engine.run_batch` on the first chunk of its
items, as many as `infer` and `energy` step in lockstep, for T = 64 steps
under the bench's encoder, N times. It prints, per net:

- the untraced microseconds per step, the minimum over the N runs;
- the microseconds per step of each plan op, timed as `Plan.step` runs it:
  the plan's observer stamps the clock after each op (after each step of a
  neuron layer), and each interval goes to the op it ends; the minimum over
  the N runs, and their sum. The encoder's interval also holds the run
  loop's work between blocks, and the observer's own calls are inside the
  intervals, so the traced sum is above the untraced step.

With `--reads`, a comma-separated subset of readout, spikes and decoded,
the instance computes only those (`SnnInstance(snn, reads=...)`; a checkout
without the keyword refuses it), as `infer` (readout), `energy` (spikes)
and `probe` (readout, decoded) run. BLAS runs on one thread, as in the
bench, unless the thread variables are set.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before the first numpy import

T = 64


def nets(checkout: Path, only: str | None):
    """(workload, net, snn graph, items) per network net of the bench, seed 0."""
    for sub in ("bench", "src"):
        sys.path.insert(0, str(checkout / sub))
    import numpy as np
    from spikeopt.graph import (convert, load_model, load_tensor, normalize_relu, save_model,
                                save_tensor)
    from spikeopt.schedules import parse_schedule
    from workloads import WORKLOADS

    for wl in WORKLOADS.values():
        if not wl.nets or only not in (None, wl.name):
            continue
        rng = np.random.default_rng(0)  # as the bench generates a workload's files
        for net in wl.nets:
            g = net.build(rng, False)
            x = net.inputs(rng, wl.items, tuple(g.nodes[g.input_id].params["shape"]))
            with tempfile.TemporaryDirectory() as tmp:
                save_model(g, Path(tmp, "ann"))
                save_tensor(x, Path(tmp, "x.sten"))
                g, _ = load_model(Path(tmp, "ann"))
                x = load_tensor(Path(tmp, "x.sten")).astype(np.float64)
            if net.normalize_relu:
                g = normalize_relu(g, list(x[: net.normalize_relu]))
            yield wl.name, net, convert(g, net.family, parse_schedule("inv:1")), x


def split(snn, X, encoder, runs, reads):
    """(untraced us/step, {(node, kind): us/step}) over `runs` runs of X."""
    from spikeopt import engine

    kw = {} if reads is None else {"reads": reads}
    inst = engine.SnnInstance(snn, **kw)
    untraced, ops = [], defaultdict(list)
    for _ in range(runs):
        t0 = time.perf_counter()
        engine.run_batch(snn, X, T, encoder=encoder, instance=inst)
        untraced.append((time.perf_counter() - t0) / T * 1e6)
        spent, last = defaultdict(float), [0.0]

        def observe(nid, kind, k):
            now = time.perf_counter()
            spent[nid, kind] += now - last[0]
            last[0] = now

        last[0] = time.perf_counter()
        engine.run_batch(snn, X, T, encoder=encoder, instance=inst, observer=observe)
        for key, seconds in spent.items():
            ops[key].append(seconds / T * 1e6)
    return min(untraced), {key: min(v) for key, v in ops.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkout", type=Path)
    p.add_argument("--workload", default=None)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--reads", default=None, type=lambda s: frozenset(s.split(",")))
    args = p.parse_args(argv)
    checkout = args.checkout.resolve()
    from_checkout = False
    for wl, net, snn, x in nets(checkout, args.workload):
        from spikeopt import cli, engine

        if not from_checkout:
            from_checkout = True
            print(f"spikeopt from {Path(engine.__file__).parent}")
        neurons = engine.SnnInstance(snn).total_neurons
        B = min(len(x), max(1, min(cli.CHUNK, cli.CHUNK_NEURONS // max(neurons, 1))))
        untraced, ops = split(snn, x[:B], net.encoder, args.runs, args.reads)
        print(f"{wl} {net.name} (B = {B}, T = {T}, min of {args.runs}): "
              f"untraced {untraced:.2f} us/step, ops sum {sum(ops.values()):.2f}")
        for (nid, kind), us in ops.items():
            print(f"  {nid:<16} {kind:<8} {us:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
