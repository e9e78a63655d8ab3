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
of `infer` (with `--run-trace`), `energy` and dense `probe`. Every command
runs in one scratch directory on relative paths, so the digests do not
depend on where it is.

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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, f"exit {rc}\n{out.getvalue()}{err.getvalue()}".encode()


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
