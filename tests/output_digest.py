"""Digests of every CLI output of a checkout, to show that a change keeps them.

    python tests/output_digest.py CHECKOUT OUT.json
    python tests/output_digest.py --compare A.json B.json

The first form imports `spikeopt` and the net builders from CHECKOUT (its
`src/`, `tests/conftest.py` and `bench/workloads.py`) and writes the sha256
of each output to OUT.json. Its nets are every (model, family) of conftest's
CONFIGS and the seed-0 nets of the bench's network workloads. Each is
converted under `inv:1` canonical and, in the sign family, under
`exp:1:0.995` unit-current; a bench net that the bench converts with
`--normalize-relu` is converted with it here too. Per conversion it hashes
the `convert` stdout, the `.json` and `.bin` files, an order-free digest of
the converted graph as `load_model` returns it (nodes sorted by id, edges
sorted, index tables as int lists and tensors by value, so a change of how
the files store the graph shows only in the file entries), and the order of
its node ids; then, under the float, det and stoch encoders, the stdout and CSVs
of `infer` (with `--run-trace`), `energy`, dense `probe` and checkpoint
`probe` on two items at T = 8. The bench's mlp-wide and cnn-pool nets also
run `infer` and `energy` as the bench runs them: all their items (8 and 4)
under the float encoder at T = 64 (`inv:1` canonical only), whose blocks
hold 192 and 128 rows on mlp-wide and 7 steps of 2 items on cnn-pool, where
the max-pool stages form their firing targets step by step. Beside every
`infer` entry it hashes the raw bytes of the readout history and spike
counts of the same runs, stepped in process as `infer` and `energy` step
them, so a change in a readout's last bits shows (the CSVs print 8 digits). It also
hashes the stdout of `oracle-check` on the bench's oracle-replay configurations
and on each sign mechanism near the float range, each also with its
`--corrupt-*` controls, at the long horizons whose checks print FAIL
(`LONG_ORACLE`), so a change of the referee that moves a FAIL line shows,
and on leaky slopes whose targets overflow (`LEAKY_OVERFLOW`); the stdout
and CSV of `neuron-sweep` for every mechanism under both parameterizations
and the float, det and stoch encoders, at a width below and one above
`neurons.SMALL_OPERANDS`, and on a grid whose span overflows
(`SPAN_OVERFLOW`); and the stdout and CSV of `encode` for every
encoder. Every command runs in one scratch directory on relative paths, so
the digests do not depend on where it is. The warnings a command raises
are hashed with its output as their category and message: the source file
and line they name differ between checkouts.

The second form lists the entries that differ between two such files, and
exits 1 if there are any.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

SETTINGS = {"signgd": [("inv:1", "canonical"), ("exp:1:0.995", "unit-current")],
            "subgrad": [("inv:1", "canonical")]}
ENCODERS = ("float", "det", "stoch")
COMMANDS = {  # output name -> the command and the flags of its output files
    "infer": ["infer", "--report", "acc.csv", "--run-trace", "trace.csv"],
    "energy": ["energy", "--out", "energy.csv"],
    "probe": ["probe", "--dense-trace", "--out", "probe.csv"],
    "probe-checkpoints": ["probe", "--out", "checkpoints.csv"],
}
T = 8
# nets that also run `infer` and `energy` on all their items at a T of
# their own, under one encoder
LONG_RUNS = {"bench_mlp": (64, "float"), "bench_cnn": (64, "float")}
ORACLE_STEPS = 300
# per sign and subgrad check, the controls that must fail
CORRUPT = {"signgd": [["--corrupt-beta1", "1.001"], ["--corrupt-beta1", "-1"],
                      ["--corrupt-beta1", "0"]],
           "subgrad": [["--corrupt-alpha", "1.01"], ["--corrupt-alpha", "1e308"]]}
# (neuron, schedule, steps) of checks that print FAIL where eta(t) has fallen
# to ~1e-13 or below, at seed 1
LONG_ORACLE = [("subgrad", "exp:0.5:0.99", 3000), ("subgrad", "exp:0.5:0.9", 1000),
               ("signgd:misr", "exp:0.5:0.99", 4000)]
SWEEP_MECHS = ("relu", "leaky:0.1", "gelu", "square", "max2", "misr")
# sign checks near the float range, where gelu's and misr's products of u
# may overflow
FLOAT_RANGE = [(f"signgd:{m}", f"const:{c}", "canonical") for m in SWEEP_MECHS
               for c in ("1e150", "1e152", "5e152")]
# leaky checks whose targets delta v0 overflow to +-inf, at seed 0
LEAKY_OVERFLOW = ["signgd:leaky:1e308", "signgd:leaky:-1e308"]
# a sweep whose grid span --xmax - --xmin overflows
SPAN_OVERFLOW = ["--mech", "signgd:relu", "--xmin=-9e307", "--xmax=9e307", "--points", "3",
                 "--T", "4"]
SWEEP_POINTS = (21, 601)  # 21 and 42 operand values per step, and 601 and 1202
SWEEP_T = 200
ENCODE = [("float", "0.3"), ("det", "-0.7"), ("stoch", "0.45"), ("poisson", "0.6"),
          ("det", "40")]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def nets(checkout: Path):
    """(name, graph, family, items, normalize-relu batches) per net: two
    items, or all of a bench workload's."""
    for sub in ("bench", "tests", "src"):
        sys.path.insert(0, str(checkout / sub))
    import numpy as np
    from conftest import CONFIGS, MODELS
    from spikeopt.codec import make_rng
    from workloads import WORKLOADS

    for model, family in CONFIGS:
        g = MODELS[model]()
        shape = g.nodes[g.input_id].params["shape"]
        yield f"{model}_{family}", g, family, make_rng(3).normal(0, 1, (2, *shape)), 0
    for wl in WORKLOADS.values():
        rng = np.random.default_rng(0)  # as the bench generates a workload's files
        for net in wl.nets:
            g = net.build(rng, False)
            x = net.inputs(rng, wl.items, tuple(g.nodes[g.input_id].params["shape"]))
            yield f"bench_{net.name}", g, net.family, x, net.normalize_relu


@contextlib.contextmanager
def _inside(directory):
    """Run the block with `directory` as the working directory."""
    back = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(back)


def cli(main, argv) -> tuple[int, bytes]:
    """Run a command: its exit status, then its stdout, stderr and warnings.
    A warning is kept as its category and message, without the source file
    and line it names, and each distinct one once, in sorted order."""
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        rc = main(argv)
    warned = sorted({f"{w.category.__name__}: {w.message}\n" for w in caught})
    return rc, f"exit {rc}\n{out.getvalue()}{err.getvalue()}{''.join(warned)}".encode()


def graph_digests(path) -> dict:
    """The order-free digest of the converted graph `load_model` reads from
    `path`, arrays as nested lists of their values, and its node order."""
    from spikeopt.graph import load_model

    g, meta = load_model(path)
    nodes = [{"id": n.id, "kind": n.kind, "params": n.params}
             for n in sorted(g.nodes.values(), key=lambda n: n.id)]
    free = {"nodes": nodes, "edges": sorted(g.edges), "meta": meta}
    return {"graph": sha(json.dumps(free, sort_keys=True, default=lambda a: a.tolist()).encode()),
            "node_order": sha(json.dumps(list(g.nodes)).encode())}


def digest(checkout: Path) -> dict:
    entries = {}
    for name, g, family, items, batches in nets(checkout):
        from spikeopt.cli import main
        from spikeopt.graph import save_model, save_tensor

        for schedule, param in SETTINGS[family]:
            key = f"{name}/{schedule}/{param}"
            with tempfile.TemporaryDirectory() as tmp, _inside(tmp):
                save_model(g, "ann")
                save_tensor(items[:2], "data.sten")
                argv = ["convert", "ann.json", "--family", family, "--schedule", schedule,
                        "--parameterization", param, "--out", "snn"]
                if batches:
                    argv += ["--normalize-relu", str(batches), "--calib-data", "data.sten"]
                rc, text = cli(main, argv)
                entries[f"{key}/convert.stdout"] = sha(text)
                if rc:
                    continue
                for f in ("snn.json", "snn.bin"):
                    entries[f"{key}/{f}"] = sha(Path(f).read_bytes())
                for k, v in graph_digests("snn.json").items():
                    entries[f"{key}/{k}"] = v
                for encoder in ENCODERS:
                    entries.update(run_digests(main, key, "data.sten", T, encoder, COMMANDS))
                if name in LONG_RUNS and (schedule, param) == SETTINGS[family][0]:
                    save_tensor(items, "items.sten")
                    long_t, encoder = LONG_RUNS[name]
                    commands = {c: COMMANDS[c] for c in ("infer", "energy")}
                    entries.update(run_digests(main, f"{key}/T{long_t}", "items.sten", long_t,
                                               encoder, commands))
    from spikeopt.cli import main
    from workloads import WORKLOADS

    entries.update(command_digests(main, WORKLOADS["oracle-replay"].oracle_checks))
    return entries


def batch_digest(data, T, encoder) -> str:
    """The digest of the raw bytes of the readout history and spike counts
    of the `engine.run_batch` calls `infer` and `energy` make on snn.json
    over `data`: their chunks, seeds, encoder and default --c; or of the
    error they raise. Where the checkout's `cli._run_items` takes what to
    compute, the history comes from a run that computes only the readout,
    as `infer`'s does, and the counts from one that counts only spikes, as
    `energy`'s does; otherwise both come from one run."""
    import argparse

    import numpy as np
    from spikeopt import cli
    from spikeopt.graph import SnnGraph

    args = argparse.Namespace(T=T, encoder=encoder, c=0.5, seed=0)
    try:
        snn, items = SnnGraph.load("snn.json"), cli._items("--data", data)
        try:  # calling a generator function only binds its arguments
            split = (cli._run_items(snn, items, args, {"readout"}),
                     cli._run_items(snn, items, args, {"spikes"}))
        except TypeError:  # a `_run_items` of (snn, data, args) only
            split = None
        runs = (list(cli._run_items(snn, items, args)) if split is None
                else [(h, n) for (h, _), (_, n) in zip(*split)])
    except Exception as exc:  # hashed as the outcome, as a command's error line is
        return sha(f"{type(exc).__name__}: {exc}".encode())
    history = np.stack([hist for hist, _ in runs])  # (items, T, n_out) float64
    spikes = np.array([n for _, n in runs], dtype=np.int64)
    return sha(history.tobytes() + spikes.tobytes())


def run_digests(main, key, data, T, encoder, commands) -> dict:
    """The stdout and CSVs of each of `commands` on snn.json over `data`,
    and with `infer`, the raw bytes of its runs (`batch_digest`)."""
    entries = {}
    if "infer" in commands:
        entries[f"{key}/{encoder}/run_batch"] = batch_digest(data, T, encoder)
    for name, (command, *flags) in commands.items():
        _, text = cli(main, [command, "snn.json", "--data", data, "--T", str(T),
                             "--encoder", encoder, *flags])
        entries[f"{key}/{encoder}/{name}.stdout"] = sha(text)
        for f in (f for f in flags if f.endswith(".csv")):
            entries[f"{key}/{encoder}/{f}"] = (
                sha(Path(f).read_bytes()) if Path(f).exists() else "missing")
            Path(f).unlink(missing_ok=True)
    return entries


def command_digests(main, oracle_checks) -> dict:
    """The oracle-check, neuron-sweep and encode digests."""
    entries = {}
    with tempfile.TemporaryDirectory() as tmp, _inside(tmp):
        for k, (neuron, schedule, param) in enumerate([*oracle_checks, *FLOAT_RANGE]):
            family = neuron.split(":")[0]
            for extra in [[], *CORRUPT.get(family, [])]:
                argv = ["oracle-check", "--neuron", neuron, "--schedule", schedule,
                        "--parameterization", param, "--steps", str(ORACLE_STEPS),
                        "--seed", str(k), *extra]
                entries["oracle-check/" + " ".join(argv[1:])] = sha(cli(main, argv)[1])
        for neuron, schedule, steps in LONG_ORACLE:
            argv = ["oracle-check", "--neuron", neuron, "--schedule", schedule,
                    "--steps", str(steps), "--seed", "1"]
            entries["oracle-check/" + " ".join(argv[1:])] = sha(cli(main, argv)[1])
        for neuron in LEAKY_OVERFLOW:
            argv = ["oracle-check", "--neuron", neuron, "--steps", "30"]
            entries["oracle-check/" + " ".join(argv[1:])] = sha(cli(main, argv)[1])
        key = "neuron-sweep/" + " ".join(SPAN_OVERFLOW)
        entries[f"{key}.stdout"] = sha(cli(main, ["neuron-sweep", *SPAN_OVERFLOW,
                                                  "--out", "sweep.csv"])[1])
        entries[f"{key}.csv"] = (sha(Path("sweep.csv").read_bytes())
                                 if Path("sweep.csv").exists() else "missing")
        Path("sweep.csv").unlink(missing_ok=True)
        for mech in SWEEP_MECHS:
            grid = ["--xmin", "0.1", "--xmax", "3"] if mech == "misr" else []
            for schedule, param in SETTINGS["signgd"]:
                for encoder in ENCODERS:
                    for points in SWEEP_POINTS:
                        argv = ["neuron-sweep", "--mech", f"signgd:{mech}", "--schedule", schedule,
                                "--parameterization", param, "--encoder", encoder,
                                "--points", str(points), "--T", str(SWEEP_T), *grid,
                                "--out", "sweep.csv"]
                        key = "neuron-sweep/" + " ".join(argv[1:-2])
                        entries[f"{key}.stdout"] = sha(cli(main, argv)[1])
                        entries[f"{key}.csv"] = sha(Path("sweep.csv").read_bytes())
                        Path("sweep.csv").unlink()
        for encoder, x in ENCODE:
            for schedule in ("inv:1", "exp:1:0.995"):
                argv = ["encode", "--x", x, "--schedule", schedule, "--T", "100",
                        "--encoder", encoder, "--seed", "4", "--out", "train.csv"]
                key = "encode/" + " ".join(argv[1:-2])
                entries[f"{key}.stdout"] = sha(cli(main, argv)[1])
                entries[f"{key}.csv"] = sha(Path("train.csv").read_bytes())
                Path("train.csv").unlink()
    return entries


def compare(a: dict, b: dict) -> list[str]:
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        a, b = (json.loads(Path(p).read_text()) for p in argv[1:])
        differ = compare(a, b)
        for k in differ:
            print(f"differs: {k}")
        print(f"{len(a.keys() | b.keys())} entries, {len(differ)} differ")
        return 1 if differ else 0
    if len(argv) == 2:
        entries = digest(Path(argv[0]).resolve())
        Path(argv[1]).write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
        print(f"{len(entries)} entries -> {argv[1]}")
        return 0
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
