"""Time-stepped execution of converted networks.

An SnnInstance compiles its network once into a step plan (`graph.plan`),
whose one forced step on its stand-ins gives the calibration
(`Plan.calibration`) before each neuron layer takes its place; so a
re-loaded network runs as the in-memory one, and no stored `cal_*` record
is read. One coefficient set, with its memo of each step's scalars,
serves every neuron layer and the readout. It steps B items in lockstep,
K steps at a time, and the whole step is the plan's: its first op has the
installed encoder fill the items' next K input frames, and its last op
folds the K output currents into the installed readout, a codec decoder:

  sign family      `SignedDecoder` with the calibrated W_out and b_out,
                   r(t) = r(t-1) - eta(t) (2 (I_out - b_out) - W_out), r(0) = b_out
  subgradient      `RateDecoder`, r(t) = running mean of the output currents

Every op works row by row with the arithmetic of a one-item step, and a
dense product does not depend on the rows computed with it (see
`graph.plan`), so each item's readouts and spike counts are bit-identical
to running it alone, one step at a time. K is `Plan.block_steps`.

`run_batch` is the one run loop: `run` is `run_batch` on one item, and
`probe` is `run_batch` on one item with an observer that reads each layer
after each of its steps, plus the ANN reference to compare it with.

Inputs are encoded per element with the family's codec, so the first neuron
layer sees encoder emissions exactly like upstream spikes; an item may have
any shape that holds as many values as the network's input. Classification
reads argmax r(T).

An instance is single-writer and is reused across inputs via `reset`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .codec import (ConstantEncoder, PoissonEncoder, RateDecoder, RateDeterministicEncoder,
                    SignedDecoder, signed_encoder)
from .graph.model import ShapeMismatchError, run_forward as ann_forward
from .graph.model import node_forward  # noqa: F401  (bench/tracing.py wraps engine.node_forward)
from .graph.plan import Plan
from .graph.transforms import ConversionError, SnnGraph
from .neurons import SignGdNeuron, SubgradNeuron, parse_mechanism
from .schedules import (
    ScheduleError,
    check_coefficients,
    solve_signgd_coefficients,
    solve_subgrad_coefficients,
)

__all__ = [
    "ann_forward",
    "SnnInstance",
    "input_rows",
    "make_input_encoder",
    "run",
    "run_batch",
    "probe",
    "TraceRecord",
    "EnergyModel",
    "EnergyReport",
    "estimate_energy",
]


class SnnInstance:
    """Executable state for one converted network: a batch of items stepped in
    lockstep (one item until `reset` says otherwise). It solves and checks its
    coefficient set once; a family, schedule and parameterization that give no
    set, or one that fails the check, are a ConversionError naming all three
    and the file the network was loaded from.
    Its plan calibrates the network (`Plan.calibration`), and then each
    layer takes its stand-in's place in `plan.layers`."""

    def __init__(self, snn: SnnGraph):
        self.snn = snn
        # one family per network: one coefficient set, checked once, whose
        # step rows serve every layer and, in the sign family, the readout's
        # eta(t)
        signgd = snn.family == "signgd"
        try:
            solve = solve_signgd_coefficients if signgd else solve_subgrad_coefficients
            self.coeffs = c = solve(snn.schedule, snn.parameterization)
            check_coefficients(c)
        except ScheduleError as exc:
            where = f"{snn.path}: " if snn.path else ""
            raise ConversionError(f"{where}{snn.family} network under schedule {snn.schedule}, "
                                  f"parameterization {snn.parameterization!r}: {exc}") from None
        # one plan: its forced step on stand-ins gives each layer's and the
        # readout's W and b, and then each layer takes its stand-in's place
        self.plan = Plan(snn.graph)
        cal, (self.readout_w, self.readout_b) = self.plan.calibration()
        self.layers: dict[str, object] = self.plan.layers
        for nid, (W, b) in cal.items():
            node = snn.graph.nodes[nid]
            n = node.params["count"]
            self.layers[nid] = SignGdNeuron(
                parse_mechanism(node.params["mech"]), c, W=W, b=b, n=n,
            ) if signgd else SubgradNeuron(c, n=n)
        self._readout = partial(SignedDecoder, lambda t: c.row(t)[0], W=self.readout_w,
                                b=self.readout_b) if signgd else RateDecoder
        self.reset()

    def reset(self, batch: int = 1, steps: int = 1):
        """Clear the state for a batch of `batch` items, stepped up to `steps`
        steps per call: a new readout, and no encoder until one is installed."""
        self.plan.reset(batch, steps)
        for layer in self.layers.values():
            layer.reset(batch)
        self.plan.codecs.update(encoder=None, readout=self._readout((batch, self.readout_b.size)))

    def step(self, steps: int, observer=None) -> np.ndarray:
        """Propagate a block of `steps` steps from the encoder installed in
        `plan.codecs` and return the readout after each, (steps, B, n_out), as
        a new array; `observer` sees the plan's ops (`Plan.step`)."""
        return self.plan.step(steps, observer)

    @property
    def spike_counts(self) -> dict[str, np.ndarray]:
        """Spikes each layer has fired since reset, per item: (B,) ints."""
        return {nid: layer.spike_count for nid, layer in self.layers.items()}

    @property
    def total_spikes(self) -> int:
        """Spikes fired since reset by every layer, over all items."""
        return int(sum(count.sum() for count in self.spike_counts.values()))

    @property
    def total_neurons(self) -> int:
        return sum(layer.n for layer in self.layers.values())

    def layer_decoded(self) -> dict[str, np.ndarray]:
        """Each layer's decoded activations, per item: (B, n)."""
        return {nid: np.asarray(layer.decoded).copy() for nid, layer in self.layers.items()}


def input_rows(graph, x, items: int | None = None) -> np.ndarray:
    """x as float64 values of one item, flat, or with `items`, as (items,
    size) rows; an item may have any shape that holds as many values as the
    input of `graph` (an ANN or a network), and only finite values."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1) if items is None else x.reshape(items, -1)
    size = math.prod(graph.nodes[graph.input_id].params["shape"])
    if flat.shape[-1] != size:
        raise ShapeMismatchError(f"an input item holds {flat.shape[-1]} values, but the "
                                 f"network's input takes {size}")
    if not np.isfinite(flat).all():
        raise ValueError("input holds NaN or inf values")
    return flat


def make_input_encoder(snn: SnnGraph, x, encoder: str = "float",
                       stoch_c: float = 0.5, seed=0):
    """Per-element input encoder matched to the network's coding family.

    sign family: the signed-schedule codecs (float / det / stoch).
    subgradient family: constant current (float), greedy rate spikes (det),
    or Bernoulli(ReLU1(x)) spikes (stoch).

    With a list of seeds, x is a batch of one item per seed: the encoder
    emits (B, size) frames, and item i draws from its own generator, seed[i].
    An item may have any shape that holds as many values as the network's
    input.
    """
    flat = input_rows(snn.graph, x, None if np.ndim(seed) == 0 else len(seed))
    if snn.family == "signgd":
        return signed_encoder(encoder, flat, snn.schedule, stoch_c, seed)
    if encoder == "float":
        return ConstantEncoder(flat)
    if encoder == "det":
        return RateDeterministicEncoder(flat)
    if encoder == "stoch":
        return PoissonEncoder(flat, seed=seed)
    raise ValueError(f"unknown encoder {encoder!r}")


def run_batch(snn: SnnGraph, X, T: int, encoder: str = "float", stoch_c: float = 0.5,
              seed: int = 0, instance: SnnInstance | None = None, observer=None):
    """Drive the items X[0..B-1] in lockstep for T steps, item i seeded
    seed + 1000 i. Returns the readout history, (T, B, n_out), and each
    item's total spikes, (B,) ints; both are what running each item alone
    gives, bit for bit. `observer`, if given, sees the plan's ops in every
    block (`Plan.step`)."""
    if T < 1:
        raise ValueError("T must be >= 1")
    inst = instance or SnnInstance(snn)
    B = len(X)
    K = inst.plan.block_steps(B, T)
    inst.reset(B, K)
    inst.plan.codecs["encoder"] = make_input_encoder(snn, X, encoder, stoch_c,
                                                     [seed + 1000 * i for i in range(B)])
    history = np.concatenate([inst.step(min(K, T - t), observer) for t in range(0, T, K)])
    return history, sum(inst.spike_counts.values(), np.zeros(B, dtype=np.int64))


def run(snn: SnnGraph, x, T: int, encoder: str = "float", stoch_c: float = 0.5,
        seed: int = 0, instance: SnnInstance | None = None) -> np.ndarray:
    """Drive T steps of one item; returns the readout history of shape (T, n_out)."""
    return run_batch(snn, np.asarray(x)[None], T, encoder, stoch_c, seed, instance)[0][:, 0]


@dataclass
class TraceRecord:
    """Per-layer decode-vs-reference errors (max abs) for one run."""

    layer_ids: list[str]
    times: np.ndarray
    errors: dict[str, np.ndarray]          # layer id -> (T,) max abs errors
    readout_error: np.ndarray              # (T,)

    def rows(self):
        """CSV rows (layer, t, err), readout listed as layer 'readout'."""
        for lid in self.layer_ids:
            for t, e in zip(self.times, self.errors[lid]):
                yield lid, int(t), float(e)
        for t, e in zip(self.times, self.readout_error):
            yield "readout", int(t), float(e)


def probe(snn: SnnGraph, x, T: int, encoder: str = "float", stoch_c: float = 0.5,
          seed: int = 0) -> TraceRecord:
    """Compare per-layer decoded activations against the reference forward:
    `run_batch` on the one item, each layer read after each of its steps
    through the plan's observer."""
    g = snn.graph
    acts = ann_forward(g, input_rows(g, x).reshape(g.nodes[g.input_id].params["shape"]))
    inst = SnnInstance(snn)
    ref = {nid: acts[nid].reshape(-1) for nid in inst.layers}
    errors = {nid: np.empty(T) for nid in inst.layers}
    # max |decoded - reference| of each layer, through one buffer per layer
    diffs = {nid: np.empty_like(r) for nid, r in ref.items()}

    def observe(nid, kind, k):
        if kind == "neuron":
            layer = inst.layers[nid]
            d = np.subtract(layer.decoded[0], ref[nid], diffs[nid])
            errors[nid][layer.t - 1] = np.abs(d, d).max()

    history = run_batch(snn, np.asarray(x)[None], T, encoder, stoch_c, seed, inst,
                        observer=observe)[0][:, 0]
    readout_error = np.abs(history - acts[g.output_id].reshape(-1)).max(axis=1)
    return TraceRecord(layer_ids=list(inst.layers), times=np.arange(1, T + 1), errors=errors,
                       readout_error=readout_error)


@dataclass(frozen=True)
class EnergyModel:
    """Per-synaptic-operation energy on 45nm CMOS, in picojoules."""

    e_sop_ac: float = 0.9      # IF / LIF accumulate
    e_sop_signgd: float = 1.8  # sign-based neuron (two internal updates)
    e_mac: float = 4.6         # float multiply-accumulate

    def e_sop(self, neuron_kind: str) -> float:
        return self.e_sop_signgd if neuron_kind == "signgd" else self.e_sop_ac


@dataclass(frozen=True)
class EnergyReport:
    neurons: int
    timesteps: int
    spikes: int
    firing_rate: float
    n_sop: int
    energy_joules: float

    @property
    def energy_pj(self) -> float:
        return self.energy_joules * 1e12


def estimate_energy(spikes: int, timesteps: int, neurons: int, neuron_kind: str,
                    model: EnergyModel = EnergyModel()) -> EnergyReport:
    """fr = spikes / (timesteps * neurons); N_SOP = spikes; E = N_SOP * E_SOP."""
    fr = spikes / (timesteps * neurons) if timesteps * neurons else 0.0
    e = spikes * model.e_sop(neuron_kind) * 1e-12
    return EnergyReport(
        neurons=neurons, timesteps=timesteps, spikes=spikes,
        firing_rate=fr, n_sop=spikes, energy_joules=e,
    )
