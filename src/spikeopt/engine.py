"""Time-stepped execution of converted networks.

An SnnInstance compiles its network once into a step plan (`graph.plan`)
and tabulates the per-step schedule and coefficient scalars in one StepTable
shared by every neuron layer and the readout. One global step encodes the
next input frame, runs the plan (linear ops map the instantaneous frame,
neuron layers integrate, fire and reset), and folds the output node's
current into the readout:

  sign family      readout r(t) = r(t-1) - eta(t) (2 (I_out - b_out) - W_out),
                   r(0) = b_out (the calibrated output bias image)
  subgradient/rate readout r(t) = running mean of output currents

Inputs are encoded per element with the family's codec, so the first neuron
layer sees encoder emissions exactly like upstream spikes. Classification
reads argmax r(T).

An instance is single-writer and is reused across inputs via `reset`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .codec import ConstantEncoder, PoissonEncoder, RateDeterministicEncoder, signed_encoder
from .graph.model import Graph, run_forward
from .graph.model import node_forward  # noqa: F401  (bench/tracing.py wraps engine.node_forward)
from .graph.plan import Plan
from .graph.transforms import ConversionError, SnnGraph
from .neurons import SignGdNeuron, SubgradNeuron, parse_mechanism
from .schedules import (
    StepTable,
    signgd_step_factors,
    solve_signgd_coefficients,
    solve_subgrad_coefficients,
    subgrad_step_factors,
)

__all__ = [
    "ann_forward",
    "SnnInstance",
    "make_input_encoder",
    "run",
    "probe",
    "TraceRecord",
    "EnergyModel",
    "EnergyReport",
    "estimate_energy",
]


def ann_forward(g: Graph, x) -> dict[str, np.ndarray]:
    """Reference activations of every node (neuron layers evaluate their
    target nonlinearity)."""
    return run_forward(g, np.asarray(x, dtype=np.float64))


class SnnInstance:
    """Executable state for one converted network (single input stream)."""

    def __init__(self, snn: SnnGraph):
        if not snn.calibrated:
            raise ConversionError("calibrate the network before executing it")
        self.snn = snn
        out = snn.graph.nodes[snn.graph.output_id]
        self.readout_w = out.tensor("cal_w")
        self.readout_b = out.tensor("cal_b")
        # one family per network: one coefficient set and one StepTable shared
        # by every layer and, in the sign family, the readout's eta(t)
        s = snn.schedule
        signgd = snn.family == "signgd"
        if signgd:
            c = solve_signgd_coefficients(s, snn.parameterization)
            self._table = StepTable(partial(signgd_step_factors, c, s))
        else:
            c = solve_subgrad_coefficients(s)
            self._table = StepTable(partial(subgrad_step_factors, c))
        self.layers: dict[str, object] = {}
        for node in snn.neuron_nodes():
            n = node.params["count"]
            self.layers[node.id] = SignGdNeuron(
                parse_mechanism(node.params["mech"]), c, s,
                W=node.tensor("cal_w"), b=node.tensor("cal_b"), n=n, table=self._table,
            ) if signgd else SubgradNeuron(c, n=n, table=self._table)
        self._r0 = self.readout_b if signgd else np.zeros_like(self.readout_b)
        self.plan = Plan(snn.graph, self.layers)
        self.reset()

    def reset(self):
        for layer in self.layers.values():
            layer.reset()
        self.t = 0
        self.r = self._r0.copy()

    def step(self, input_frame) -> np.ndarray:
        """Propagate one spike/current frame; returns the readout snapshot."""
        self.t += 1
        out_current = self.plan.step(input_frame)
        if self.snn.family == "signgd":
            eta_t = self._table[self.t][0]
            self.r = self.r - eta_t * (2.0 * (out_current - self.readout_b) - self.readout_w)
        else:
            self.r = self.r * (self.t - 1) / self.t + out_current / self.t
        return self.r.copy()

    @property
    def spike_counts(self) -> dict[str, int]:
        return {nid: layer.spike_count for nid, layer in self.layers.items()}

    @property
    def total_spikes(self) -> int:
        return sum(layer.spike_count for layer in self.layers.values())

    @property
    def total_neurons(self) -> int:
        return sum(layer.n for layer in self.layers.values())

    def layer_decoded(self) -> dict[str, np.ndarray]:
        return {nid: np.asarray(layer.decoded).copy() for nid, layer in self.layers.items()}


def make_input_encoder(snn: SnnGraph, x, encoder: str = "float",
                       stoch_c: float = 0.5, seed: int = 0):
    """Per-element input encoder matched to the network's coding family.

    sign family: the signed-schedule codecs (float / det / stoch).
    subgradient family: constant current (float), greedy rate spikes (det),
    or Bernoulli(ReLU1(x)) spikes (stoch).
    """
    flat = np.asarray(x, dtype=np.float64).reshape(-1)
    if snn.family == "signgd":
        return signed_encoder(encoder, flat, snn.schedule, stoch_c, seed)
    if encoder == "float":
        return ConstantEncoder(flat)
    if encoder == "det":
        return RateDeterministicEncoder(flat)
    if encoder == "stoch":
        return PoissonEncoder(flat, seed=seed)
    raise ValueError(f"unknown encoder {encoder!r}")


def run(snn: SnnGraph, x, T: int, encoder: str = "float", stoch_c: float = 0.5,
        seed: int = 0, instance: SnnInstance | None = None) -> np.ndarray:
    """Drive T steps; returns the readout history of shape (T, n_out)."""
    if T < 1:
        raise ValueError("T must be >= 1")
    inst = instance or SnnInstance(snn)
    inst.reset()
    enc = make_input_encoder(snn, x, encoder, stoch_c, seed)
    history = np.empty((T, inst.readout_b.size))
    for t in range(T):
        history[t] = inst.step(enc.step())
    return history


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
    """Compare per-layer decoded activations against the reference forward."""
    inst = SnnInstance(snn)
    enc = make_input_encoder(snn, x, encoder, stoch_c, seed)
    acts = ann_forward(snn.graph, x)
    ref = {nid: acts[nid].reshape(-1) for nid in inst.layers}
    ref_out = acts[snn.graph.output_id].reshape(-1)

    layer_ids = list(inst.layers)
    errors = {nid: np.empty(T) for nid in layer_ids}
    readout_error = np.empty(T)
    for t in range(T):
        r = inst.step(enc.step())
        decoded = inst.layer_decoded()
        for nid in layer_ids:
            errors[nid][t] = np.max(np.abs(decoded[nid] - ref[nid]))
        readout_error[t] = np.max(np.abs(r - ref_out))
    return TraceRecord(layer_ids=layer_ids, times=np.arange(1, T + 1), errors=errors,
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


def classify(history: np.ndarray) -> int:
    """Classification decision from a readout history: argmax of r(T)."""
    return int(np.argmax(history[-1]))
