"""Time-stepped execution of converted networks.

An SnnInstance compiles its network once into a step plan (`graph.plan`).
In the sign family the plan's one forced step on its stand-ins gives the
calibration (`Plan.calibration`) before each neuron layer takes its place;
so a re-loaded network runs as the in-memory one, and no stored `cal_*`
record is read. The subgradient family's layers and readout read no
calibration, so its instance never calibrates. One coefficient set, with
its memos of each t's coefficient values and each step's scalars, serves
every neuron layer and the readout. A new instance is sized for one item,
and a reset sizes it again only for another item count (another row
count, for the plan's stores), clearing the buffers it holds otherwise: a
command sizes each layer, and a subgradient network's plan stores, once
when it builds its instance and once for its run. It steps B items in
lockstep, K steps at a time, and the whole step is the plan's: its first
op has the installed encoder fill the items' next K input frames, and its
last op folds the K output currents into the installed readout, a codec
decoder:

  sign family      `SignedDecoder` with the calibrated W_out and b_out,
                   r(t) = r(t-1) - eta(t) (2 (I_out - b_out) - W_out), r(0) = b_out
  subgradient      `RateDecoder`, r(t) = running mean of the output currents

Every op works row by row with the arithmetic of a one-item step, and a
dense product does not depend on the rows computed with it (see
`graph.plan`), so each item's readouts and spike counts are bit-identical
to running it alone, one step at a time. K is `Plan.block_steps`.

`run_batch` is the one run loop: `run` is `run_batch` on one item, and
`probe` is `run_batch` on one item with an observer that reads each layer
after each of its steps that it scores, plus the ANN reference to compare
it with.

A run computes, beyond the layers' spikes, only what its instance reads
(`SnnInstance(snn, reads=)`, all of READS by default): the readout, the
spike counts and the subgradient layers' decodes each run only where
read, and what runs has the bits it has when everything does; the plan,
not the layers, counts the spikes (`Plan.count_spikes`). `probe` reads
the readout and the decodes; the CLI's `infer` reads only the readout and
its `energy` only the spike counts.

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
    "READS",
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


# what a run can compute beyond the layers' spikes: the readout, each
# layer's spike counts, and each layer's decode
READS = frozenset({"readout", "spikes", "decoded"})


class SnnInstance:
    """Executable state for one converted network: a batch of items stepped in
    lockstep (one item until `reset` says otherwise). It solves and checks its
    coefficient set once; a family, schedule and parameterization that give no
    set, or one that fails the check, are a ConversionError naming all three
    and the file the network was loaded from.
    In the sign family its plan calibrates the network (`Plan.calibration`)
    for the layers' and the readout's W and b, which they alone hold (the
    installed readout, `plan.codecs["readout"]`, as `W` and `b`); then each
    layer takes its stand-in's place in `plan.layers`. A subgradient
    instance, whose layers and readout read no W or b, never calibrates.

    A new instance is ready for one item, one step per block: its layers
    are sized for one item, and its plan's stores for one row (a sign
    instance's sized them for calibration's two rows first).
    `reset(batch, steps)` sizes them again only for another item count, or
    another row count batch steps, and otherwise clears the state in what
    they hold.

    `reads`, a subset of READS (all of it by default), names what its runs
    compute beyond the spikes: without "readout" the plan drops the readout
    and the ops that only feed it (`Plan.drop_readout`) and `step` returns
    None; with "spikes" the plan counts each layer's spikes
    (`Plan.count_spikes`), and without it `spike_counts` raises; without
    "decoded" subgradient layers keep no decode and
    `layer_decoded` raises. Calibration steps the whole plan either way,
    and what is computed has the bits of a run that computes everything."""

    def __init__(self, snn: SnnGraph, reads=READS):
        self.reads = reads = frozenset(reads)
        if not reads <= READS:
            raise ValueError(f"unknown reads {sorted(reads - READS)}; expected a subset of "
                             f"{sorted(READS)}")
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
        # one plan: in the sign family its forced step on stand-ins gives
        # each layer's and the readout's W and b; then each layer takes its
        # stand-in's place
        self.plan = Plan(snn.graph)
        if signgd:
            cal, (w_out, b_out) = self.plan.calibration()
        self.layers: dict[str, object] = self.plan.layers
        for nid in self.layers:
            node = snn.graph.nodes[nid]
            n = node.params["count"]
            self.layers[nid] = SignGdNeuron(
                parse_mechanism(node.params["mech"]), c, *cal[nid], n=n,
                spike_fed=nid in self.plan.spike_fed,
            ) if signgd else SubgradNeuron(c, n=n, decodes="decoded" in reads)
        if "readout" not in reads:
            self.plan.drop_readout()
        if "spikes" in reads:
            self.plan.count_spikes()
        self._readout = partial(SignedDecoder, lambda t: c.row(t)[0], W=w_out,
                                b=b_out) if signgd else RateDecoder
        self._n_out = self.plan.widths[self.plan.out_slot]
        self.reset()

    def reset(self, batch: int = 1, steps: int = 1):
        """Clear the state for a batch of `batch` items, stepped up to `steps`
        steps per call: a new readout, and no encoder until one is installed."""
        self.plan.reset(batch, steps)
        for layer in self.layers.values():
            layer.reset(batch)
        readout = self._readout((batch, self._n_out)) if "readout" in self.reads else None
        self.plan.codecs.update(encoder=None, readout=readout)

    def step(self, steps: int, observer=None) -> np.ndarray | None:
        """Propagate a block of `steps` steps from the encoder installed in
        `plan.codecs` and return the readout after each, (steps, B, n_out), as
        a new array (None without "readout"); `observer` sees the plan's ops
        (`Plan.step`)."""
        return self.plan.step(steps, observer)

    @property
    def spike_counts(self) -> dict[str, np.ndarray]:
        """Spikes each layer has fired since reset, per item: (B,) ints."""
        self._check_reads("spikes")
        return {nid: rows.sum(-1).astype(np.int64) for nid, rows in self.plan.counts.items()}

    @property
    def total_spikes(self) -> int:
        """Spikes fired since reset by every layer, over all items."""
        return int(sum(count.sum() for count in self.spike_counts.values()))

    @property
    def total_neurons(self) -> int:
        return sum(layer.n for layer in self.layers.values())

    def layer_decoded(self) -> dict[str, np.ndarray]:
        """Each layer's decoded activations, per item: (B, n)."""
        self._check_reads("decoded")
        return {nid: np.asarray(layer.decoded).copy() for nid, layer in self.layers.items()}

    def _check_reads(self, what: str):
        if what not in self.reads:
            raise RuntimeError(f"this instance does not compute {what!r}: its reads are "
                               f"{sorted(self.reads)}")


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
    gives, bit for bit, and each is None where `instance` does not compute
    it (`SnnInstance(snn, reads=)`; a new instance computes both).
    `observer`, if given, sees the plan's ops in every block (`Plan.step`)."""
    if T < 1:
        raise ValueError("T must be >= 1")
    inst = instance or SnnInstance(snn)
    B = len(X)
    K = inst.plan.block_steps(B, T)
    inst.reset(B, K)
    inst.plan.codecs["encoder"] = make_input_encoder(snn, X, encoder, stoch_c,
                                                     [seed + 1000 * i for i in range(B)])
    history = [inst.step(min(K, T - t), observer) for t in range(0, T, K)]
    history = np.concatenate(history) if "readout" in inst.reads else None
    if "spikes" not in inst.reads:
        return history, None
    return history, sum(inst.spike_counts.values(), np.zeros(B, dtype=np.int64))


def run(snn: SnnGraph, x, T: int, encoder: str = "float", stoch_c: float = 0.5,
        seed: int = 0, instance: SnnInstance | None = None) -> np.ndarray:
    """Drive T steps of one item; returns the readout history of shape (T, n_out)."""
    return run_batch(snn, np.asarray(x)[None], T, encoder, stoch_c, seed, instance)[0][:, 0]


@dataclass
class TraceRecord:
    """Per-layer decode-vs-reference errors (max abs) for one run, at the
    scored steps `times`."""

    layer_ids: list[str]
    times: np.ndarray                      # the scored steps, ascending
    errors: dict[str, np.ndarray]          # layer id -> max abs errors at `times`
    readout_error: np.ndarray              # at `times`

    def rows(self):
        """CSV rows (layer, t, err), readout listed as layer 'readout'."""
        for lid in self.layer_ids:
            for t, e in zip(self.times, self.errors[lid]):
                yield lid, int(t), float(e)
        for t, e in zip(self.times, self.readout_error):
            yield "readout", int(t), float(e)


def probe(snn: SnnGraph, x, T: int, encoder: str = "float", stoch_c: float = 0.5,
          seed: int = 0, times=None) -> TraceRecord:
    """Compare per-layer decoded activations against the reference forward:
    `run_batch` on the one item, each layer read through the plan's observer
    after each of its steps in `times` (every step of 1..T by default; the
    steps are scored in ascending order, each once). A step outside 1..T is
    a ValueError. The network is built and checked before the item is."""
    # sorted in Python: np.unique pages in over 1 MiB of numpy's sort code
    steps = range(1, T + 1) if times is None else sorted({int(t) for t in times})
    if steps and not 1 <= steps[0] <= steps[-1] <= T:
        raise ValueError(f"probe times must lie in 1..{T}, got {steps[0]}..{steps[-1]}")
    inst = SnnInstance(snn, reads={"readout", "decoded"})
    g = snn.graph
    acts = ann_forward(g, input_rows(g, x).reshape(g.nodes[g.input_id].params["shape"]))
    ref = {nid: acts[nid].reshape(-1) for nid in inst.layers}
    errors = {nid: np.empty(len(steps)) for nid in inst.layers}
    # max |decoded - reference| of each layer after a scored step t, at
    # slot[t] of the record, through one buffer per layer
    slot = {t: i for i, t in enumerate(steps)}
    diffs = {nid: np.empty_like(r) for nid, r in ref.items()}

    def observe(nid, kind, k):
        if kind == "neuron":
            layer = inst.layers[nid]
            i = slot.get(layer.t)
            if i is not None:
                d = np.subtract(layer.decoded[0], ref[nid], diffs[nid])
                errors[nid][i] = np.abs(d, d).max()

    history = run_batch(snn, np.asarray(x)[None], T, encoder, stoch_c, seed, inst,
                        observer=observe)[0][:, 0]
    times = np.asarray(steps, dtype=np.int64)
    readout_error = np.abs(history[times - 1] - acts[g.output_id].reshape(-1)).max(axis=1)
    return TraceRecord(layer_ids=list(inst.layers), times=times, errors=errors,
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
