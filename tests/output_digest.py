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
the converted graph (nodes sorted by id, edges sorted), and the order of its
node ids; then, under the float, det and stoch encoders, the stdout and CSVs
of `infer` (with `--run-trace`), `energy` and dense `probe`. It also hashes
the stdout of `oracle-check` on the bench's oracle-replay configurations
and on each sign mechanism near the float range, each also with its
`--corrupt-*` controls; the stdout and CSV of
`neuron-sweep` for every mechanism under both parameterizations and the
float, det and stoch encoders, at a width below and one above
`neurons.SMALL_OPERANDS`; and the stdout and CSV of `encode` for every
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
COMMANDS = {  # command -> the flags of its output files
    "infer": ["--report", "acc.csv", "--run-trace", "trace.csv"],
    "energy": ["--out", "energy.csv"],
    "probe": ["--dense-trace", "--out", "probe.csv"],
}
T = 8
ORACLE_STEPS = 300
# per sign and subgrad check, the controls that must fail
CORRUPT = {"signgd": [["--corrupt-beta1", "1.001"], ["--corrupt-beta1", "-1"],
                      ["--corrupt-beta1", "0"]],
           "subgrad": [["--corrupt-alpha", "1.01"], ["--corrupt-alpha", "1e308"]]}
SWEEP_MECHS = ("relu", "leaky:0.1", "gelu", "square", "max2", "misr")
# sign checks near the float range, where gelu's and misr's products of u
# may overflow
FLOAT_RANGE = [(f"signgd:{m}", f"const:{c}", "canonical") for m in SWEEP_MECHS
               for c in ("1e150", "1e152", "5e152")]
SWEEP_POINTS = (21, 601)  # 21 and 42 operand values per step, and 601 and 1202
SWEEP_T = 200
ENCODE = [("float", "0.3"), ("det", "-0.7"), ("stoch", "0.45"), ("poisson", "0.6"),
          ("det", "40")]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def nets(checkout: Path):
    """(name, graph, family, data, normalize-relu batches) per net."""
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
            yield f"bench_{net.name}", g, net.family, x[:2], net.normalize_relu


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


def graph_digests(manifest: dict) -> dict:
    """The order-free digest of a converted graph, and its node order."""
    nodes = sorted(manifest["nodes"], key=lambda n: n["id"])
    free = dict(manifest, nodes=nodes, edges=sorted(manifest["edges"]))
    return {"graph": sha(json.dumps(free, sort_keys=True).encode()),
            "node_order": sha(json.dumps([n["id"] for n in manifest["nodes"]]).encode())}


def digest(checkout: Path) -> dict:
    entries = {}
    for name, g, family, data, batches in nets(checkout):
        from spikeopt.cli import main
        from spikeopt.graph import save_model, save_tensor

        for schedule, param in SETTINGS[family]:
            key = f"{name}/{schedule}/{param}"
            with tempfile.TemporaryDirectory() as tmp, _inside(tmp):
                save_model(g, "ann")
                save_tensor(data, "data.sten")
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
                for k, v in graph_digests(json.loads(Path("snn.json").read_text())).items():
                    entries[f"{key}/{k}"] = v
                for encoder in ENCODERS:
                    for command, flags in COMMANDS.items():
                        _, text = cli(main, [command, "snn.json", "--data", "data.sten",
                                             "--T", str(T), "--encoder", encoder, *flags])
                        entries[f"{key}/{encoder}/{command}.stdout"] = sha(text)
                        for f in (f for f in flags if f.endswith(".csv")):
                            entries[f"{key}/{encoder}/{f}"] = (
                                sha(Path(f).read_bytes()) if Path(f).exists() else "missing")
                            Path(f).unlink(missing_ok=True)
    from spikeopt.cli import main
    from workloads import WORKLOADS

    entries.update(command_digests(main, WORKLOADS["oracle-replay"].oracle_checks))
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
