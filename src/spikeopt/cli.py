"""Command-line surface.

Subcommands: encode, oracle-check, neuron-sweep, convert, infer, probe,
energy. Every subcommand is deterministic under fixed flags and seeds; CSVs
are UTF-8 with LF line endings and a header row.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import engine
from .codec import PoissonEncoder, make_rng, signed_encoder
from .graph import (
    SnnGraph,
    calibrate,
    convert,
    load_labels,
    load_model,
    load_tensor,
    normalize_relu,
)
from .neurons import (
    IfLifParams,
    IfNeuron,
    LifNeuron,
    SignGdNeuron,
    SubgradNeuron,
    parse_mechanism,
)
from .oracles import (
    IfRateOracle,
    LifEmaOracle,
    SignGdOracle,
    SqErrObjective,
    SubgradOracle,
    if_transform,
    lif_transform,
    reference_nonlinearity,
)
from .schedules import (
    SubgradCoefficients,
    parse_schedule,
    solve_signgd_coefficients,
    solve_subgrad_coefficients,
)

DEVIATION_LIMIT = 1e-9


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _checkpoints(T, extra=()):
    pts = set(int(x) for x in extra)
    p = 1
    while p <= T:
        pts.add(p)
        p *= 2
    pts.add(T)
    return sorted(pts)


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------


def cmd_encode(args):
    schedule = parse_schedule(args.schedule)
    if args.encoder == "poisson":
        enc = PoissonEncoder(args.x, seed=args.seed)
    else:
        enc = signed_encoder(args.encoder, args.x, schedule, args.c, args.seed)
    rows = [(t, enc.step()) for t in range(1, args.T + 1)]
    _write_csv(args.out, ["t", "s"], rows)
    print(f"wrote {args.T} steps to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# oracle-check
# ---------------------------------------------------------------------------


def _signgd_check_inputs(schedule, steps, arity, rng):
    """Weights/bias keeping the decoded input inside the smooth region, per
    the wander scale sqrt(sum eta^2) of a random +-1 train."""
    spread = float(np.sqrt(np.sum(schedule(np.arange(1, steps + 1)) ** 2)))
    W = rng.uniform(0.5, 1.5, (arity, 1)) * rng.choice([-1.0, 1.0], (arity, 1))
    b = 4.0 * max(spread, 1.0) * np.abs(W) + rng.uniform(0, 1, (arity, 1))
    return W, b


def cmd_oracle_check(args):
    schedule = parse_schedule(args.schedule)
    rng = make_rng(args.seed)
    name = args.neuron

    # per kind: neuron, oracle, one step's input draw, decode in oracle coordinates
    if name == "if":
        neuron = IfNeuron(IfLifParams(theta_th=1.0, R=1.0, u0=0.0), n=1)
        oracle = IfRateOracle(theta=1.0, R=1.0, u0=0.0, n=1)
        draw = lambda: rng.uniform(0.0, 1.2, 1)
        decoded = lambda t: if_transform(neuron.decoded, t, u0=0.0, theta=1.0)
    elif name == "lif":
        tau = 10.0
        neuron = LifNeuron(IfLifParams(theta_th=1.0, R=1.0, tau_m=tau, u_rest=0.0), n=1)
        oracle = LifEmaOracle(theta=1.0, R=1.0, tau=tau, u_rest=0.0, u0=0.0, n=1)
        draw = lambda: rng.uniform(0.0, 12.0, 1)
        decoded = lambda t: lif_transform(
            neuron.decoded, t, u0=0.0, u_rest=0.0, theta=1.0, tau=tau)
    elif name == "subgrad":
        coeffs = solve_subgrad_coefficients(schedule)
        if args.corrupt_alpha != 1.0:
            base = coeffs.alpha
            coeffs = SubgradCoefficients(
                alpha=lambda t: np.asarray(base(t)) * args.corrupt_alpha,
                beta=coeffs.beta, gamma=coeffs.gamma, schedule=schedule,
            )
        neuron = SubgradNeuron(coeffs, n=1, validate=False)
        oracle = SubgradOracle(schedule, n=1)
        draw = lambda: rng.uniform(0.0, 1.0, 1)
        decoded = lambda t: neuron.decoded
    elif name.startswith("signgd"):
        mech = parse_mechanism(name)
        coeffs = solve_signgd_coefficients(schedule, args.parameterization)
        if args.corrupt_beta1 != 1.0:
            base = coeffs.beta1
            coeffs = coeffs.replace(
                beta1=lambda t: np.asarray(base(t)) * args.corrupt_beta1
            )
        W, b = _signgd_check_inputs(schedule, args.steps, mech.arity, rng)
        neuron = SignGdNeuron(mech, coeffs, schedule, W=W, b=b, n=1, validate=False)
        oracle = SignGdOracle(SqErrObjective(mech.kind, mech.delta), schedule, W=W, b=b, n=1)
        draw = lambda: b + W * rng.integers(0, 2, (mech.arity, 1))
        decoded = lambda t: neuron.decoded
    else:
        raise SystemExit(f"unknown neuron kind {name!r}")

    deviation = 0.0
    for t in range(1, args.steps + 1):
        I = draw()
        s_n, s_o = neuron.step(I), oracle.step(I)
        deviation = max(deviation, float(np.abs(s_n - s_o).max()),
                        float(np.abs(decoded(t) - oracle.f).max()))

    ok = deviation <= DEVIATION_LIMIT
    print(f"neuron={name} schedule={schedule} steps={args.steps} "
          f"max-deviation={deviation:.3e} -> {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# neuron-sweep
# ---------------------------------------------------------------------------


def _sweep_operands(kind, grid, seed):
    """Per-mechanism operand pairs for the sweep grid.

    max2 follows the patch protocol: partner = min(x_max, eps - 1) with unit
    Gaussian eps. misr sweeps the denominator with unit numerator.
    """
    if kind == "max2":
        eps = make_rng(seed).normal(0.0, 1.0, grid.size)
        return np.stack([grid, np.minimum(grid, eps - 1.0)])
    if kind == "misr":
        return np.stack([np.ones_like(grid), grid])
    return grid[None, :]


def cmd_neuron_sweep(args):
    schedule = parse_schedule(args.schedule)
    mech = parse_mechanism(args.mech)
    grid = np.linspace(args.xmin, args.xmax, args.points)
    ops = _sweep_operands(mech.kind, grid, args.seed)
    n = grid.size
    coeffs = solve_signgd_coefficients(schedule, args.parameterization)
    neuron = SignGdNeuron(mech, coeffs, schedule,
                          W=np.ones((mech.arity, n)), b=np.zeros((mech.arity, n)), n=n)
    encs = [signed_encoder(args.encoder, ops[k], schedule, args.c, args.seed + k)
            for k in range(mech.arity)]
    target = reference_nonlinearity(mech.kind, ops if mech.arity == 2 else ops[0], mech.delta)
    marks = set(_checkpoints(args.T))
    rows = []
    for t in range(1, args.T + 1):
        frame = np.stack([e.step() for e in encs])
        neuron.step(frame)
        if t in marks:
            err = np.abs(neuron.decoded - target)
            rows.extend((float(x), t, float(e)) for x, e in zip(grid, err))
    _write_csv(args.out, ["x", "t", "err"], rows)
    final = np.abs(neuron.decoded - target)
    print(f"mech={mech.name} T={args.T} max|err|={final.max():.4f} "
          f"median|err|={np.median(final):.4f}")
    return 0


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------


def cmd_convert(args):
    g, _ = load_model(args.model)
    schedule = parse_schedule(args.schedule)
    if args.normalize_relu:
        if args.calib_data:
            batch = load_tensor(args.calib_data)
            batches = [batch[i] for i in range(min(args.normalize_relu, batch.shape[0]))]
        else:
            in_shape = tuple(g.nodes[g.input_id].params["shape"])
            rng = make_rng(args.seed)
            batches = [rng.normal(0, 1, in_shape) for _ in range(args.normalize_relu)]
        g = normalize_relu(g, batches)
    snn = calibrate(convert(g, args.family, schedule, parameterization=args.parameterization))
    snn.save(args.out)
    census = snn.graph.census()
    neuron_kinds = {k: v for k, v in census.items() if k.startswith("neuron:")}
    print(f"converted {args.model} -> {args.out} [{args.family}, {schedule}]")
    for k, v in sorted(census.items()):
        print(f"  {k}: {v}")
    if not neuron_kinds:
        print("  (no neuron layers)")
    return 0


# ---------------------------------------------------------------------------
# infer / probe / energy
# ---------------------------------------------------------------------------


def _dataset(args):
    data = load_tensor(args.data)
    if data.ndim == 1:
        data = data[None, :]
    return data


def _run_items(snn, data, args):
    """(readout history, total spikes) of engine.run per item, in item order,
    seeded args.seed + 1000 i, all on one reused SnnInstance."""
    inst = engine.SnnInstance(snn)
    items = []
    for i in range(data.shape[0]):
        hist = engine.run(snn, data[i], args.T, encoder=args.encoder, stoch_c=args.c,
                          seed=args.seed + 1000 * i, instance=inst)
        items.append((hist, inst.total_spikes))
    return items


def cmd_infer(args):
    snn = SnnGraph.load(args.snn)
    data = _dataset(args)
    labels = load_labels(args.labels) if args.labels else None
    if labels is not None and labels.shape[0] != data.shape[0]:
        raise SystemExit(
            f"label count {labels.shape[0]} != item count {data.shape[0]}"
        )
    marks = _checkpoints(args.T, args.checkpoints or ())
    hists = [hist for hist, _ in _run_items(snn, data, args)]
    preds = np.asarray([[int(np.argmax(h[m - 1])) for m in marks] for h in hists])
    rows = [(m, float(np.mean(preds[:, j] == labels)) if labels is not None else float("nan"))
            for j, m in enumerate(marks)]
    _write_csv(args.report, ["T", "acc"], rows)
    if args.run_trace:
        h = hists[args.index]
        n_out = h.shape[1]
        trace_rows = [
            (m, int(np.argmax(h[m - 1])), *(f"{v:.8g}" for v in h[m - 1]))
            for m in marks
        ]
        _write_csv(args.run_trace, ["t", "class"] + [f"logit{k}" for k in range(n_out)],
                   trace_rows)
    for m, acc in rows:
        print(f"T={m:6d} acc={acc:.4f}")
    return 0


def cmd_probe(args):
    snn = SnnGraph.load(args.snn)
    data = _dataset(args)
    x = data[args.index]
    rec = engine.probe(snn, x, args.T, encoder=args.encoder, stoch_c=args.c, seed=args.seed)
    marks = set(range(1, args.T + 1)) if args.dense_trace else set(_checkpoints(args.T))
    rows = [(layer, t, err) for layer, t, err in rec.rows() if t in marks]
    _write_csv(args.out, ["layer", "t", "err"], rows)
    last = {layer: rec.errors[layer][-1] for layer in rec.layer_ids}
    last["readout"] = rec.readout_error[-1]
    for layer, err in last.items():
        print(f"{layer}: err(T)={err:.5f}")
    return 0


def cmd_energy(args):
    snn = SnnGraph.load(args.snn)
    data = _dataset(args)
    kind = "signgd" if snn.family == "signgd" else "if"
    spikes = sum(n for _, n in _run_items(snn, data, args))
    neurons = sum(node.params["count"] for node in snn.neuron_nodes())
    rep = engine.estimate_energy(spikes, args.T * data.shape[0], neurons, kind)
    _write_csv(
        args.out,
        ["neurons", "spikes", "fr", "n_sop", "energy_pj"],
        [(rep.neurons, rep.spikes, f"{rep.firing_rate:.6f}", rep.n_sop,
          f"{rep.energy_pj:.4f}")],
    )
    print(f"neurons={rep.neurons} spikes={rep.spikes} fr={rep.firing_rate:.4f} "
          f"energy={rep.energy_pj:.2f} pJ")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spikeopt",
        description="Spiking neuronal dynamics as verifiable first-order optimizers",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common_run_flags(q):
        q.add_argument("--encoder", default="float", choices=["float", "det", "stoch"])
        q.add_argument("--c", type=float, default=0.5, help="stochastic encoder steepness")
        q.add_argument("--seed", type=int, default=0)

    q = sub.add_parser("encode", help="emit one encoded train as CSV (t,s)")
    q.add_argument("--x", type=float, required=True)
    q.add_argument("--schedule", default="inv:1")
    q.add_argument("--T", type=int, default=64)
    q.add_argument("--encoder", default="det", choices=["float", "det", "stoch", "poisson"])
    q.add_argument("--c", type=float, default=0.5)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_encode)

    q = sub.add_parser("oracle-check", help="replay a neuron against its optimizer form")
    q.add_argument("--neuron", required=True,
                   help="if | lif | subgrad | signgd:relu | signgd:leaky:<d> | ...")
    q.add_argument("--schedule", default="inv:1")
    q.add_argument("--steps", type=int, default=10_000)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--parameterization", default="canonical",
                   choices=["canonical", "unit-current"])
    q.add_argument("--corrupt-beta1", type=float, default=1.0,
                   help="debug: scale beta1 and bypass validation")
    q.add_argument("--corrupt-alpha", type=float, default=1.0,
                   help="debug: scale the subgrad alpha and bypass validation")
    q.set_defaults(func=cmd_oracle_check)

    q = sub.add_parser("neuron-sweep", help="single-neuron approximation error over a grid")
    q.add_argument("--mech", required=True)
    q.add_argument("--schedule", default="inv:1")
    q.add_argument("--xmin", type=float, default=-3.0)
    q.add_argument("--xmax", type=float, default=3.0)
    q.add_argument("--points", type=int, default=121)
    q.add_argument("--T", type=int, default=1000)
    q.add_argument("--parameterization", default="canonical",
                   choices=["canonical", "unit-current"])
    common_run_flags(q)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_neuron_sweep)

    q = sub.add_parser("convert", help="convert an ANN model file to a spiking network")
    q.add_argument("model")
    q.add_argument("--family", required=True, choices=["subgrad", "signgd"])
    q.add_argument("--schedule", default="inv:1")
    q.add_argument("--parameterization", default="canonical",
                   choices=["canonical", "unit-current"])
    q.add_argument("--normalize-relu", type=int, default=0, metavar="N",
                   help="record ReLU ranges over N calibration batches and fold them")
    q.add_argument("--calib-data", default=None,
                   help="STEN tensor of calibration inputs (default: seeded Gaussians)")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_convert)

    q = sub.add_parser("infer", help="accuracy vs time steps on a dataset")
    q.add_argument("snn")
    q.add_argument("--data", required=True)
    q.add_argument("--labels", default=None)
    q.add_argument("--T", type=int, default=256)
    q.add_argument("--checkpoints", type=lambda s: [int(v) for v in s.split(",")],
                   default=None)
    q.add_argument("--run-trace", default=None, metavar="CSV",
                   help="also dump one item's readout (t,class,logit0..logitN)")
    q.add_argument("--index", type=int, default=0,
                   help="dataset item for --run-trace")
    common_run_flags(q)
    q.add_argument("--report", required=True)
    q.set_defaults(func=cmd_infer)

    q = sub.add_parser("probe", help="layer-wise decode error trace")
    q.add_argument("snn")
    q.add_argument("--data", required=True)
    q.add_argument("--index", type=int, default=0)
    q.add_argument("--T", type=int, default=256)
    q.add_argument("--dense-trace", action="store_true",
                   help="emit every step instead of checkpoints")
    common_run_flags(q)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_probe)

    q = sub.add_parser("energy", help="synaptic-operation energy report")
    q.add_argument("snn")
    q.add_argument("--data", required=True)
    q.add_argument("--T", type=int, default=64)
    common_run_flags(q)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_energy)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
