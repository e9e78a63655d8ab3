"""Per-command fixed cost of the benchmark's CLI commands, in one process.

    python tests/fixed_cost.py CHECKOUT [--workload W] [--runs N]
    python tests/fixed_cost.py A B [--workload W] [--runs N] [--passes P]

Imports `spikeopt` from CHECKOUT's `src/` and the workloads from its
`bench/workloads.py` (read only, as `tests/op_split.py` does), and writes
each seed-0 network workload's files (or W's alone) as the bench does: the
model, its items and their ANN-argmax labels. It then runs, through
`spikeopt.cli.main` with stdout captured, each command the bench runs with
the bench's flags: `convert` (with `--normalize-relu` where the bench uses
it), then `infer`, `energy` and `probe` at T = 64 on every net, and
`oracle-check` on every configuration of the oracle-replay workload. Each
command runs N times, and the wall time of each run is split into phases:

- parse: from `main`'s call to the handler's, building the parser included;
- load: `SnnGraph.load`;
- instance: `engine.SnnInstance()`;
- encoder: the input encoder's set-up (`engine.make_input_encoder`);
- steps: `engine.run_batch`, less the phases inside it;
- neuron: `oracle-check`'s neuron block, its per-step decode included
  (the `step` of the neuron `cli._oracle_pair` builds);
- oracle: `oracle-check`'s oracle replay (that oracle's `step` and `run`);
- report: `cli._write_csv`;
- other: the rest (reading items and labels, the ANN reference of `probe`,
  converting, printing).

A phase's time is its own, less that of the phases it calls. The tool prints
each phase's minimum over the N runs, and the minimum total: the phases'
minimums need not sum to it. BLAS runs on one thread, as in the bench,
unless the thread variables are set.

The second form compares two checkouts over P passes (2 by default). A
pass measures A and then B, or B and then A in every other pass, each as
one process of the first form, so that a drift of the machine reaches both
alike. It prints, per command, each phase's minimum over every run of every
pass for A and for B, and below each its spread across passes (the largest
less the smallest of the passes' minimums; a spread as large as B - A
says that the passes disagree about it), and then B - A.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before the first numpy import

T = 64
SCHEDULE = "inv:1"
PHASES = ("parse", "load", "instance", "encoder", "steps", "neuron", "oracle", "report",
          "other")
COLUMNS = ("total", *PHASES)


class Phases:
    """Charges wall time to the innermost running phase."""

    def __init__(self):
        self.spent = defaultdict(float)
        self.stack = []
        self.last = 0.0

    def _charge(self):
        now = time.perf_counter()
        self.spent[self.stack[-1]] += now - self.last
        self.last = now

    def timed(self, phase, fn):
        """`fn`, its time charged to `phase`."""
        def call(*args, **kwargs):
            self._charge()
            self.stack.append(phase)
            try:
                return fn(*args, **kwargs)
            finally:
                self._charge()
                self.stack.pop()
        return call

    def handler(self, fn):
        """A command's handler: parsing ends where it starts."""
        def call(args):
            self._charge()
            self.stack[-1] = "other"
            return fn(args)
        return call

    def run(self, main, argv):
        """{phase: seconds} of one `main(argv)`, which must exit 0."""
        self.spent.clear()
        self.stack = ["parse"]
        out = io.StringIO()
        self.last = time.perf_counter()
        with contextlib.redirect_stdout(out):
            rc = main(argv)
        self._charge()
        if rc != 0:
            raise SystemExit(f"{' '.join(argv)} exited {rc}:\n{out.getvalue()}")
        return dict(self.spent)


def instrument(phases: Phases):
    """Wrap the checkout's functions so that `phases` sees each phase."""
    from spikeopt import cli, engine
    from spikeopt.graph import SnnGraph

    for name, (help_line, add_args, handler) in cli.COMMANDS.items():
        cli.COMMANDS[name] = (help_line, add_args, phases.handler(handler))
    SnnGraph.load = staticmethod(phases.timed("load", SnnGraph.load))
    engine.SnnInstance.__init__ = phases.timed("instance", engine.SnnInstance.__init__)
    engine.make_input_encoder = phases.timed("encoder", engine.make_input_encoder)
    engine.run_batch = phases.timed("steps", engine.run_batch)
    cli._write_csv = phases.timed("report", cli._write_csv)
    pair = cli._oracle_pair

    def timed_pair(*args):
        neuron, oracle, inputs, decoded = pair(*args)
        neuron.step = phases.timed("neuron", neuron.step)
        for name in ("step", "run"):  # an oracle of an older checkout has no `run`
            if hasattr(oracle, name):
                setattr(oracle, name, phases.timed("oracle", getattr(oracle, name)))
        return neuron, oracle, inputs, decoded

    cli._oracle_pair = timed_pair
    return cli.main


def commands(only: str | None, work: Path):
    """(workload, net, argv) of every command the bench runs, in its order,
    the files they read written to `work`."""
    import numpy as np
    from spikeopt.engine import ann_forward
    from spikeopt.graph import load_model, save_labels, save_model, save_tensor
    from workloads import WORKLOADS

    for wl in WORKLOADS.values():
        if only not in (None, wl.name):
            continue
        rng = np.random.default_rng(0)  # as the bench generates a workload's files
        for net in wl.nets:
            stem = str(work / net.name)
            g = net.build(rng, False)
            save_model(g, stem + ".json")
            x = net.inputs(rng, wl.items, tuple(g.nodes[g.input_id].params["shape"]))
            save_tensor(x, stem + ".sten")
            ann, _ = load_model(stem + ".json")
            x32 = x.astype(np.float32).astype(np.float64)
            save_labels(np.array([np.argmax(ann_forward(ann, xi)[ann.output_id]) for xi in x32]),
                        stem + ".slbl")
            convert = ["convert", stem + ".json", "--family", net.family, "--schedule",
                       SCHEDULE, "--seed", "0", "--out", stem + "_snn"]
            if net.normalize_relu:
                convert += ["--normalize-relu", str(net.normalize_relu),
                            "--calib-data", stem + ".sten"]
            yield wl.name, net.name, convert
            snn, data = stem + "_snn.json", stem + ".sten"
            run_flags = ["--T", str(T), "--encoder", net.encoder, "--seed", "0"]
            yield wl.name, net.name, ["infer", snn, "--data", data, "--labels", stem + ".slbl",
                                      *run_flags, "--report", stem + "_acc.csv",
                                      "--run-trace", stem + "_trace.csv", "--index", "0"]
            yield wl.name, net.name, ["energy", snn, "--data", data, *run_flags,
                                      "--out", stem + "_energy.csv"]
            yield wl.name, net.name, ["probe", snn, "--data", data, "--index", "0",
                                      *run_flags, "--out", stem + "_probe.csv"]
        for k, (neuron, sched, param) in enumerate(wl.oracle_checks):
            yield wl.name, f"{neuron} {sched}", [
                "oracle-check", "--neuron", neuron, "--schedule", sched,
                "--parameterization", param, "--steps", str(wl.oracle_steps), "--seed", str(k)]


def measure(checkout: Path, only: str | None, runs: int) -> list:
    """(workload, net, command, {phase or "total": ms}) of each command, the
    minimums over `runs` runs of `checkout`'s spikeopt, in this process."""
    for sub in ("bench", "src"):
        sys.path.insert(0, str(checkout.resolve() / sub))
    phases = Phases()
    run_main = instrument(phases)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for wl, net, cmd in commands(only, Path(tmp)):
            times = [phases.run(run_main, cmd) for _ in range(runs)]
            best = {ph: min(r.get(ph, 0.0) for r in times) * 1e3 for ph in PHASES}
            best["total"] = min(sum(r.values()) for r in times) * 1e3
            rows.append((wl, net, cmd[0], best))
    return rows



def compare(a: Path, b: Path, args) -> None:
    """Alternated passes of one process per checkout; the minimums per side
    and their spread across passes."""
    flags = ["--runs", str(args.runs), "--json"]
    if args.workload:
        flags += ["--workload", args.workload]
    passes: dict = {}  # (workload, net, command) -> side -> each pass's minimums
    for i in range(args.passes):
        for side in ("AB" if i % 2 == 0 else "BA"):
            checkout = a if side == "A" else b
            out = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                  str(checkout), *flags], capture_output=True, text=True)
            if out.returncode:
                raise SystemExit(f"pass {i + 1} in {checkout} exited {out.returncode}:\n"
                                 f"{out.stderr}")
            for wl, net, command, ms in json.loads(out.stdout):
                passes.setdefault((wl, net, command), {}).setdefault(side, []).append(ms)
    print(f"A = {a.resolve()}, B = {b.resolve()}; min of {args.passes} alternated passes "
          f"of {args.runs} runs, and spread (~) across passes, ms")
    print(f"{'workload':<14} {'net':<28} {'command':<13} {'side':<4}"
          + "".join(f" {ph:>8}" for ph in COLUMNS))
    for (wl, net, command), sides in passes.items():
        rows = {}
        for side in "AB":
            per_pass = {ph: [ms[ph] for ms in sides[side]] for ph in COLUMNS}
            rows[side] = {ph: min(v) for ph, v in per_pass.items()}
            rows[side + "~"] = {ph: max(v) - min(v) for ph, v in per_pass.items()}
        rows["B-A"] = {ph: rows["B"][ph] - rows["A"][ph] for ph in COLUMNS}
        for side, ms in rows.items():
            print(f"{wl:<14} {net:<28} {command:<13} {side:<4}"
                  + "".join(f" {ms[ph]:8.3f}" for ph in COLUMNS))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkouts", type=Path, nargs="+", metavar="CHECKOUT",
                   help="one checkout, or two to compare (A, the baseline, then B)")
    p.add_argument("--workload", default=None)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--passes", type=int, default=2, help="alternated passes of two checkouts")
    p.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if len(args.checkouts) > 2:
        p.error("give one checkout, or two to compare")
    if len(args.checkouts) == 2:
        compare(*args.checkouts, args)
        return 0
    rows = measure(args.checkouts[0], args.workload, args.runs)
    if args.json:
        print(json.dumps(rows))
        return 0
    from spikeopt import cli

    print(f"spikeopt from {Path(cli.__file__).parent}; min of {args.runs} runs, ms")
    print(f"{'workload':<14} {'net':<28} {'command':<13}"
          + "".join(f" {ph:>8}" for ph in COLUMNS))
    for wl, net, command, ms in rows:
        print(f"{wl:<14} {net:<28} {command:<13}" + "".join(f" {ms[ph]:8.3f}" for ph in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
