"""Command-line surface.

Subcommands: encode, oracle-check, neuron-sweep, convert, infer, probe,
energy. Every subcommand is deterministic under fixed flags and seeds; CSVs
are UTF-8 with LF line endings and a header row. `infer` and `energy` step
the dataset's items in lockstep chunks (see CHUNK); their outputs are
byte-identical to running the items one at a time. Every CSV report goes
through `_write_csv`, which overwrites an existing report in place instead
of truncating it on open; `probe` scores only the steps it writes.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import math
import os
import shutil
import stat
import sys

import numpy as np

from . import engine
from .codec import PoissonEncoder, make_rng, signed_encoder
from .graph import (
    GraphError,
    SnnGraph,
    calibrate,
    convert,
    load_labels,
    load_model,
    load_tensor,
    normalize_relu,
)
from .graph.plan import block_steps
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
    ScheduleError,
    check_coefficients,
    parse_schedule,
    solve_signgd_coefficients,
    solve_subgrad_coefficients,
)

DEVIATION_LIMIT = 1e-9
# `infer` and `energy` step up to CHUNK items in lockstep, fewer where the
# chunk would hold more than CHUNK_NEURONS neuron states: `plan.BLOCK_BYTES`
# bounds the plan's stores, and this the neuron state one step of a chunk
# touches, leaving the budget to steps (15-item chunks ran 7% slower on cnn-pool)
CHUNK = 16
CHUNK_NEURONS = 20000


class RangeError(ValueError):
    """A flag's value outside the values its command accepts, a name it does
    not know included; `main` prints it as one stderr line, which names the
    flag, and exits with status 2."""


def _at_least_one(flag, value):
    if value < 1:
        raise RangeError(f"{flag} must be >= 1, got {value}")


def _parsed(flag, parse, text):
    """parse(text); a value it rejects is a RangeError naming `flag`."""
    try:
        return parse(text)
    except ValueError as exc:  # ScheduleError is a ValueError
        raise RangeError(f"{flag}: {exc}") from None


def _schedule(args, family=None):
    """(--schedule, the coefficient set of `family` (signgd or subgrad) solved
    under --parameterization and checked, or None); a schedule the parser,
    the solve or the check rejects is a RangeError naming --schedule."""
    def parse(text):
        s = parse_schedule(text)
        if family is None:
            return s, None
        solve = solve_signgd_coefficients if family == "signgd" else solve_subgrad_coefficients
        c = solve(s, args.parameterization)
        check_coefficients(c)
        return s, c

    return _parsed("--schedule", parse, args.schedule)


def _finite(flag, value):
    if not math.isfinite(value):
        raise RangeError(f"{flag} must be a finite number, got {value}")


def _check_c(args):
    """The stochastic encoder draws with probability sigmoid(c (f - x)), c in [0, 1]."""
    if args.encoder == "stoch" and not 0.0 <= args.c <= 1.0:
        raise RangeError(f"--c {args.c:g} is outside [0, 1], the stochastic encoder's range")


def _check_index(index, items):
    """--index counts the dataset's items from 0 and must name one."""
    if not 0 <= index < items:
        raise RangeError(f"--index {index} is out of range for {items} items")


def _items(flag, path):
    """The STEN tensor `path`, given as `flag`, with its items on the first
    axis, a rank-0 or rank-1 tensor as one item; one of no items is a
    RangeError naming the file. The run, or the calibration, then checks
    each item's size (`engine.input_rows`)."""
    data = load_tensor(path)
    if data.ndim < 2:
        data = data.reshape(1, data.size)
    if not len(data):
        raise RangeError(f"{flag} {path} holds no items")
    return data


def _write_csv(path, header, rows):
    """Write the report `path`, header and rows, formed in memory, over the
    file from byte 0, and then cut a regular file at the bytes written, also
    when the write fails: where a truncating open would leave it. Opening an
    existing report with O_TRUNC frees its blocks first, 0.2-0.6 ms on ext4
    mounted with `discard`, against microseconds for the overwrite. A
    process killed inside the write can leave the old report's tail after
    the new bytes. A FIFO, a pipe or /dev/null is written and cut at nothing."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    data = memoryview(text.getvalue().encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    written = 0
    try:
        while written < len(data):
            written += os.write(fd, data[written:])
    finally:
        try:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, written)
        finally:
            os.close(fd)


def _checkpoints(T, extra=()):
    """The powers of 2 up to T, T and `extra`, ascending."""
    return sorted({*map(int, extra), *(2**k for k in range(T.bit_length())), T})


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------


def cmd_encode(args):
    _at_least_one("--T", args.T)
    _finite("--x", args.x)
    _check_c(args)
    schedule, _ = _schedule(args)
    if args.encoder == "poisson":
        enc = PoissonEncoder(args.x, seed=args.seed)
    else:
        enc = signed_encoder(args.encoder, args.x, schedule, args.c, args.seed)
    frames = np.empty(args.T)
    enc.fill(frames)
    _write_csv(args.out, ["t", "s"], enumerate(frames.tolist(), 1))
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


def _scaled(coeffs, name, factor):
    """`coeffs` with its coefficient `name` scaled by `factor`, a --corrupt-* flag."""
    base = getattr(coeffs, name)
    return coeffs if factor == 1.0 else dataclasses.replace(
        coeffs, **{name: lambda t: np.asarray(base(t)) * factor})


def _oracle_pair(args, coeffs, rng):
    """The neuron under check, its oracle, all `args.steps` inputs drawn in
    one call (step t reads row t - 1; PCG64 emits its stream in order, so the
    rows are the per-step draws) and decoded(t), the neuron's decode after
    step t in oracle coordinates. The subgradient and sign neurons step
    `coeffs`, the set `_schedule` checked, with --corrupt-* applied."""
    name, steps = args.neuron, args.steps
    if name == "if":
        neuron = IfNeuron(IfLifParams(theta_th=1.0, R=1.0, u0=0.0), n=1)
        oracle = IfRateOracle(theta=1.0, R=1.0, u0=0.0, n=1)
        inputs = rng.uniform(0.0, 1.2, (steps, 1))
        decoded = lambda t: if_transform(neuron.decoded, t, u0=0.0, theta=1.0)
    elif name == "lif":
        tau = 10.0
        neuron = LifNeuron(IfLifParams(theta_th=1.0, R=1.0, tau_m=tau, u_rest=0.0), n=1)
        oracle = LifEmaOracle(theta=1.0, R=1.0, tau=tau, u_rest=0.0, u0=0.0, n=1)
        inputs = rng.uniform(0.0, 12.0, (steps, 1))
        decoded = lambda t: lif_transform(
            neuron.decoded, t, u0=0.0, u_rest=0.0, theta=1.0, tau=tau)
    elif name == "subgrad":
        neuron = SubgradNeuron(_scaled(coeffs, "alpha", args.corrupt_alpha), n=1)
        oracle = SubgradOracle(coeffs.schedule, n=1)
        inputs = rng.uniform(0.0, 1.0, (steps, 1))
        decoded = lambda t: neuron.decoded
    elif name.startswith("signgd"):
        mech = _parsed("--neuron", parse_mechanism, name)
        schedule, coeffs = coeffs.schedule, _scaled(coeffs, "beta1", args.corrupt_beta1)
        with np.errstate(over="ignore"):  # an overflow is rejected below
            W, b = _signgd_check_inputs(schedule, steps, mech.arity, rng)
            inputs = b + W * rng.integers(0, 2, (steps, mech.arity, 1))
            # b + 0 W or b + W: a non-finite W or b shows, and the oracle squares them
            finite = np.isfinite(np.square(inputs)).all()
        if not finite:
            raise RangeError(f"--schedule {schedule}: its step sizes over {steps} steps "
                             f"overflow the check's inputs or their squares")
        neuron = SignGdNeuron(mech, coeffs, W=W, b=b, n=1)
        oracle = SignGdOracle(SqErrObjective(mech.kind, mech.delta), schedule, W=W, b=b, n=1)
        decoded = lambda t: neuron.decoded
    else:
        raise RangeError(f"--neuron: unknown neuron kind {name!r}; "
                         f"expected if, lif, subgrad or signgd:<mechanism>")
    return neuron, oracle, inputs, decoded


def cmd_oracle_check(args):
    _at_least_one("--steps", args.steps)
    family = ("subgrad" if args.neuron == "subgrad"
              else "signgd" if args.neuron.startswith("signgd") else None)
    schedule, coeffs = _schedule(args, family)
    neuron, oracle, inputs, decoded = _oracle_pair(args, coeffs, make_rng(args.seed))

    # per step: the neuron's and the oracle's spikes, then decoded(t) and the
    # oracle's iterate f(t); the neuron steps the whole trace as one block,
    # as a network's layers step theirs, and the oracle replays it in one
    # run. The deviation is one max over the whole trace, and a NaN
    # anywhere makes it NaN, which fails
    trace = np.empty((args.steps, 4, 1))

    def record(k):  # decoded(t) after step t = k + 1
        trace[k, 2] = decoded(k + 1)

    trace[:, 0] = neuron.step(inputs.reshape(args.steps, -1), steps=args.steps, observer=record)
    del neuron, decoded, coeffs  # with their coefficient rows: the replay reads the trace alone
    trace[:, 1], trace[:, 3] = oracle.run(inputs)
    deviation = np.abs(trace[:, 0::2] - trace[:, 1::2]).max()

    ok = deviation <= DEVIATION_LIMIT
    print(f"neuron={args.neuron} schedule={schedule} steps={args.steps} "
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
    schedule, coeffs = _schedule(args, "signgd")
    mech = _parsed("--mech", parse_mechanism, args.mech)
    _at_least_one("--points", args.points)
    _at_least_one("--T", args.T)
    _check_c(args)
    _finite("--xmin", args.xmin)
    _finite("--xmax", args.xmax)
    if not math.isfinite(args.xmax - args.xmin):
        raise RangeError("the grid's span --xmax - --xmin must be a finite number; got "
                         f"--xmin {args.xmin:g} --xmax {args.xmax:g}")
    grid = np.linspace(args.xmin, args.xmax, args.points)
    if mech.kind == "misr" and np.any(grid <= 0):
        raise RangeError(f"misr sweeps its denominator, which must be > 0 on the whole "
                         f"grid; got --xmin {args.xmin:g} --xmax {args.xmax:g}")
    ops = _sweep_operands(mech.kind, grid, args.seed)
    n = grid.size
    neuron = SignGdNeuron(mech, coeffs, W=np.ones((mech.arity, n)),
                          b=np.zeros((mech.arity, n)), n=n)
    encs = [signed_encoder(args.encoder, ops[k], schedule, args.c, args.seed + k)
            for k in range(mech.arity)]
    target = reference_nonlinearity(mech.kind, ops if mech.arity == 2 else ops[0], mech.delta)
    marks = set(_checkpoints(args.T))
    rows = []

    def record(k):  # after step t0 + k + 1 of the block starting at t0
        if t0 + k + 1 in marks:
            err = np.abs(neuron.decoded - target)
            rows.extend((float(x), t0 + k + 1, float(e)) for x, e in zip(grid, err))

    # blocks of K steps of the ops.size-wide frames, each encoded, then stepped
    K = block_steps(ops.size, 1, args.T)
    frames = np.empty((K, *ops.shape))
    for t0 in range(0, args.T, K):
        block = frames[: min(K, args.T - t0)]
        for j, enc in enumerate(encs):
            enc.fill(block[:, j])
        neuron.step(block, steps=len(block), observer=record)
    _write_csv(args.out, ["x", "t", "err"], rows)
    final = np.abs(neuron.decoded - target)
    print(f"mech={mech.name} T={args.T} max|err|={final.max():.4f} "
          f"median|err|={np.median(final):.4f}")
    return 0


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------


def cmd_convert(args):
    if args.normalize_relu < 0:
        raise RangeError(f"--normalize-relu must be >= 0, got {args.normalize_relu}")
    schedule, _ = _schedule(args, args.family)
    g, _ = load_model(args.model)
    if args.normalize_relu:
        in_shape = tuple(g.nodes[g.input_id].params["shape"])
        if args.calib_data:
            items = _items("--calib-data", args.calib_data)[: args.normalize_relu]
            batches = list(engine.input_rows(g, items, len(items)).reshape(len(items), *in_shape))
        else:
            rng = make_rng(args.seed)
            batches = [rng.normal(0, 1, in_shape) for _ in range(args.normalize_relu)]
        g = normalize_relu(g, batches)
    snn = calibrate(convert(g, args.family, schedule, parameterization=args.parameterization))
    snn.save(args.out)
    census = snn.graph.census()
    print(f"converted {args.model} -> {args.out} [{args.family}, {schedule}]")
    for k, v in sorted(census.items()):
        print(f"  {k}: {v}")
    if not any(k.startswith("neuron:") for k in census):
        print("  (no neuron layers)")
    return 0


# ---------------------------------------------------------------------------
# infer / probe / energy
# ---------------------------------------------------------------------------


def _run_items(snn, data, args, reads=engine.READS):
    """(readout history, total spikes) per item, in item order, each None
    where `reads` leaves it out (`engine.SnnInstance`). Items run in
    lockstep chunks through engine.run_batch on one reused SnnInstance,
    item i seeded args.seed + 1000 i, so each item's outputs are those of
    running it alone."""
    inst = engine.SnnInstance(snn, reads=reads)
    chunk = max(1, min(CHUNK, CHUNK_NEURONS // max(inst.total_neurons, 1)))
    for k in range(0, data.shape[0], chunk):
        hist, spikes = engine.run_batch(snn, data[k : k + chunk], args.T, encoder=args.encoder,
                                        stoch_c=args.c, seed=args.seed + 1000 * k,
                                        instance=inst)
        n = len(data[k : k + chunk])
        yield from zip([None] * n if hist is None else hist.transpose(1, 0, 2),
                       [None] * n if spikes is None else spikes.tolist())


def cmd_infer(args):
    _at_least_one("--T", args.T)
    _check_c(args)
    for m in args.checkpoints or ():
        if not 1 <= m <= args.T:
            raise RangeError(f"--checkpoints {m} is outside 1..{args.T}, the steps --T runs")
    snn = SnnGraph.load(args.snn)
    data = _items("--data", args.data)
    labels = load_labels(args.labels) if args.labels else None
    if labels is not None and labels.shape[0] != data.shape[0]:
        raise RangeError(f"--labels {args.labels} holds {labels.shape[0]} labels but "
                         f"--data {args.data} holds {data.shape[0]} items")
    if args.run_trace:
        _check_index(args.index, data.shape[0])
    marks = _checkpoints(args.T, args.checkpoints or ())
    # each item's readouts at the marks, (items, marks, n_out), and their
    # argmax in one call
    mark_rows = np.subtract(marks, 1)
    at_marks = np.stack([hist[mark_rows] for hist, _ in _run_items(snn, data, args, {"readout"})])
    preds = np.argmax(at_marks, axis=2)
    rows = [(m, float(np.mean(preds[:, j] == labels)) if labels is not None else float("nan"))
            for j, m in enumerate(marks)]
    _write_csv(args.report, ["T", "acc"], rows)
    if args.run_trace:
        logits = at_marks[args.index]
        n_out = logits.shape[1]
        trace_rows = [(m, int(c), *(f"{v:.8g}" for v in r))
                      for m, c, r in zip(marks, preds[args.index], logits)]
        _write_csv(args.run_trace, ["t", "class"] + [f"logit{k}" for k in range(n_out)],
                   trace_rows)
    for m, acc in rows:
        print(f"T={m:6d} acc={acc:.4f}")
    return 0


def cmd_probe(args):
    _at_least_one("--T", args.T)
    _check_c(args)
    snn = SnnGraph.load(args.snn)
    data = _items("--data", args.data)
    _check_index(args.index, data.shape[0])
    x = data[args.index]
    rec = engine.probe(snn, x, args.T, encoder=args.encoder, stoch_c=args.c, seed=args.seed,
                       times=None if args.dense_trace else _checkpoints(args.T))
    _write_csv(args.out, ["layer", "t", "err"], rec.rows())
    last = {layer: rec.errors[layer][-1] for layer in rec.layer_ids}
    last["readout"] = rec.readout_error[-1]
    for layer, err in last.items():
        print(f"{layer}: err(T)={err:.5f}")
    return 0


def cmd_energy(args):
    _at_least_one("--T", args.T)
    _check_c(args)
    snn = SnnGraph.load(args.snn)
    data = _items("--data", args.data)
    spikes = sum(n for _, n in _run_items(snn, data, args, {"spikes"}))
    neurons = sum(node.params["count"] for node in snn.neuron_nodes())
    rep = engine.estimate_energy(spikes, args.T * data.shape[0], neurons, snn.family)
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


def _common_run_flags(q):
    q.add_argument("--encoder", default="float", choices=["float", "det", "stoch"])
    q.add_argument("--c", type=float, default=0.5, help="stochastic encoder steepness")
    q.add_argument("--seed", type=int, default=0)


def _encode_args(q):
    q.add_argument("--x", type=float, required=True)
    q.add_argument("--schedule", default="inv:1")
    q.add_argument("--T", type=int, default=64)
    q.add_argument("--encoder", default="det", choices=["float", "det", "stoch", "poisson"])
    q.add_argument("--c", type=float, default=0.5)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", required=True)


def _oracle_check_args(q):
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


def _neuron_sweep_args(q):
    q.add_argument("--mech", required=True)
    q.add_argument("--schedule", default="inv:1")
    q.add_argument("--xmin", type=float, default=-3.0)
    q.add_argument("--xmax", type=float, default=3.0)
    q.add_argument("--points", type=int, default=121)
    q.add_argument("--T", type=int, default=1000)
    q.add_argument("--parameterization", default="canonical",
                   choices=["canonical", "unit-current"])
    _common_run_flags(q)
    q.add_argument("--out", required=True)


def _convert_args(q):
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


def _step_numbers(text):
    """--checkpoints: comma-separated step numbers."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated step numbers, got {text!r}") from None


def _infer_args(q):
    q.add_argument("snn")
    q.add_argument("--data", required=True)
    q.add_argument("--labels", default=None)
    q.add_argument("--T", type=int, default=256)
    q.add_argument("--checkpoints", type=_step_numbers, default=None)
    q.add_argument("--run-trace", default=None, metavar="CSV",
                   help="also dump one item's readout (t,class,logit0..logitN)")
    q.add_argument("--index", type=int, default=0,
                   help="dataset item for --run-trace")
    _common_run_flags(q)
    q.add_argument("--report", required=True)


def _probe_args(q):
    q.add_argument("snn")
    q.add_argument("--data", required=True)
    q.add_argument("--index", type=int, default=0)
    q.add_argument("--T", type=int, default=256)
    q.add_argument("--dense-trace", action="store_true",
                   help="emit every step instead of checkpoints")
    _common_run_flags(q)
    q.add_argument("--out", required=True)


def _energy_args(q):
    q.add_argument("snn")
    q.add_argument("--data", required=True)
    q.add_argument("--T", type=int, default=64)
    _common_run_flags(q)
    q.add_argument("--out", required=True)


# subcommand -> (help line, function adding its arguments, handler), in the
# order the top-level help lists them
COMMANDS = {
    "encode": ("emit one encoded train as CSV (t,s)", _encode_args, cmd_encode),
    "oracle-check": ("replay a neuron against its optimizer form", _oracle_check_args,
                     cmd_oracle_check),
    "neuron-sweep": ("single-neuron approximation error over a grid", _neuron_sweep_args,
                     cmd_neuron_sweep),
    "convert": ("convert an ANN model file to a spiking network", _convert_args,
                cmd_convert),
    "infer": ("accuracy vs time steps on a dataset", _infer_args, cmd_infer),
    "probe": ("layer-wise decode error trace", _probe_args, cmd_probe),
    "energy": ("synaptic-operation energy report", _energy_args, cmd_energy),
}


def _add_command(q, name):
    """Give `q` the flags of subcommand `name` and its handler."""
    add_args, handler = COMMANDS[name][1:]
    add_args(q)
    q.set_defaults(func=handler, command=name)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser: the full one, or with `command` that subcommand's alone.

    The subcommand's parser stands by itself, as `spikeopt <command>`, and
    parses the arguments after the command's name. Its help, usage and
    argument errors are those of the full parser's subparser, which holds
    the same flags under the same name. It reads the help width
    (`shutil.get_terminal_size`) once, where argparse would read it in
    every `add_argument`. Building and parsing the bench's `infer` arguments
    takes ~0.19 ms this way, against ~0.35 ms through the full parser
    (median of 400 in process, 2 shared CPUs, Python 3.11).
    """
    if command is not None:
        width = shutil.get_terminal_size().columns - 2  # as HelpFormatter reads it
        q = argparse.ArgumentParser(
            prog=f"spikeopt {command}",
            formatter_class=functools.partial(argparse.HelpFormatter, width=width),
        )
        _add_command(q, command)
        return q
    p = argparse.ArgumentParser(
        prog="spikeopt",
        description="Spiking neuronal dynamics as verifiable first-order optimizers",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_line), name)
    return p


def main(argv=None) -> int:
    """Run one subcommand; a bad model or graph, a path that cannot be read
    or written, a flag out of range and a step its schedule cannot take end
    it with one line on stderr and exit status 2."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # only the named command's parser; top-level help, a missing or unknown
    # command and leftover arguments go to the full parser, whose usage line
    # lists every command
    extra = True
    if argv and argv[0] in COMMANDS:
        args, extra = build_parser(argv[0]).parse_known_args(argv[1:])
    if extra:
        args = build_parser().parse_args(argv)
    try:
        # every command takes --seed, and seeds PCG64 with it (and with
        # seed + k and seed + 1000 i), which takes no negative integer
        if args.seed < 0:
            raise RangeError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except (GraphError, RangeError, ScheduleError) as exc:
        print(f"spikeopt {args.command}: error: {exc}", file=sys.stderr)
    except OSError as exc:  # one on a path: no such file, is a directory, ...
        if exc.filename is None:
            raise
        why = "no such file" if isinstance(exc, FileNotFoundError) else exc.strerror.lower()
        print(f"spikeopt {args.command}: error: {why}: {exc.filename}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
