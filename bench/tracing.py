"""Span tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own files only: `instrumented()`
replaces each traced function at the name its caller looks it up (engine
imports `node_forward` by name, so `spikeopt.engine.node_forward` is
wrapped) and restores the originals on exit. Spans are aggregated in memory
by (name, parent) and written out when the run ends.

The tracer keeps one span stack for the process. That is exact while one
thread at a time runs traced code, which the CLI guarantees with its default
of one worker (`SNN_THREADS` unset).
"""

from __future__ import annotations

import dataclasses
import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

NODE_KINDS = ("dense", "conv2d", "gather", "affine", "reshape", "flatten")
NEURONS = (
    ("IfNeuron", "if"), ("LifNeuron", "lif"), ("SubgradNeuron", "subgrad"),
    *(("SignGdNeuron", m) for m in ("relu", "leaky", "gelu", "square", "max2", "misr")),
)
ENCODERS = ("FloatEncoder", "DeterministicEncoder", "PoissonEncoder")
ORACLES = ("IfRateOracle", "LifEmaOracle", "SubgradOracle", "SignGdOracle")
TRANSFORMS = ("convert", "calibrate", "normalize_relu", "decompose_maxpool",
              "decompose_layernorm")
IO_CALLS = ("save_model", "load_model", "load_tensor")
COMMANDS = ("convert", "infer", "energy", "probe", "oracle-check")

STEP = "engine.step"


class Tracer:
    """In-memory span aggregate: (name, parent) -> [count, total_ns, child_ns]."""

    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0, 0])
        self.work = defaultdict(float)   # name -> summed work count (spikes)
        self._stack = []                 # open spans: [name, child_ns]

    def call(self, name, fn, *args, **kwargs):
        frame = [name, 0]
        self._stack.append(frame)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter_ns() - t0
            self._stack.pop()
            parent = self._stack[-1] if self._stack else None
            if parent is not None:
                parent[1] += dt
            agg = self.spans[(name, parent[0] if parent else "")]
            agg[0] += 1
            agg[1] += dt
            agg[2] += frame[1]

    def merge(self, other: "Tracer"):
        for key, (n, tot, child) in other.spans.items():
            agg = self.spans[key]
            agg[0] += n
            agg[1] += tot
            agg[2] += child
        for name, w in other.work.items():
            self.work[name] += w

    # -- queries ------------------------------------------------------------

    def _select(self, name, parent=None):
        return [v for (n, p), v in self.spans.items()
                if n == name and (parent is None or p == parent)]

    def count(self, name, parent=None) -> int:
        return sum(v[0] for v in self._select(name, parent))

    def total_us(self, name, parent=None) -> float:
        return sum(v[1] for v in self._select(name, parent)) / 1e3

    def self_us(self, name, parent=None) -> float:
        return sum(v[1] - v[2] for v in self._select(name, parent)) / 1e3

    def child_us(self, name) -> float:
        return sum(v[2] for v in self._select(name)) / 1e3

    def rows(self):
        """(name, parent, count, total_ms, self_ms) sorted by total time."""
        return sorted(
            ((n, p or "-", v[0], v[1] / 1e6, (v[1] - v[2]) / 1e6)
             for (n, p), v in self.spans.items()),
            key=lambda r: -r[3],
        )


def _wrap(tracer, fn, name_of, work=None):
    """Span-recording stand-in for `fn`; `name_of(args)` names the span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = name_of(args)
        out = tracer.call(name, fn, *args, **kwargs)
        if work is not None:
            tracer.work[name] += work(out)
        return out

    return wrapper


def _fixed(name):
    return lambda args: name


def _spikes(s):
    return float(np.sum(s))


def _patches(tracer):
    """(owner, attribute, replacement) for every traced call site."""
    from spikeopt import cli, codec, engine, neurons, oracles, schedules
    from spikeopt.graph import io as gio
    from spikeopt.graph import model as gmodel
    from spikeopt.graph import transforms as gtr

    out = []

    def patch(owner, attr, name_of, work=None):
        out.append((owner, attr, _wrap(tracer, vars(owner)[attr], name_of, work)))

    patch(engine, "node_forward", lambda a: f"graph.model.node_forward.{a[0].kind}")
    patch(gmodel.Graph, "predecessors", _fixed("graph.model.predecessors"))
    patch(engine.SnnInstance, "step", _fixed(STEP))
    patch(engine.SnnInstance, "__init__", _fixed("engine.instance_init"))
    patch(engine, "run", _fixed("engine.run"))
    patch(engine, "probe", _fixed("engine.probe"))

    patch(neurons.IfNeuron, "step", _fixed("neurons.IfNeuron.if"), _spikes)
    patch(neurons.LifNeuron, "step", _fixed("neurons.LifNeuron.lif"), _spikes)
    patch(neurons.SubgradNeuron, "step", _fixed("neurons.SubgradNeuron.subgrad"), _spikes)
    patch(neurons.SignGdNeuron, "step",
          lambda a: f"neurons.SignGdNeuron.{a[0].mech.kind}", _spikes)

    patch(schedules.Schedule, "__call__", _fixed("schedules.Schedule"))
    # Coefficient callables are closures made per solve; wrap the solvers
    # where the engine and CLI look them up and wrap what they return. Fields
    # that are Schedule objects are already traced by Schedule.__call__.
    for owner in (engine, cli):
        for attr in ("solve_signgd_coefficients", "solve_subgrad_coefficients"):
            solve = vars(owner)[attr]
            out.append((owner, attr, _traced_solver(tracer, solve, schedules.Schedule)))

    for cls in ENCODERS:
        patch(getattr(codec, cls), "step", _fixed(f"codec.{cls}"))
    for cls in ORACLES:
        patch(getattr(oracles, cls), "step", _fixed(f"oracles.{cls}"))

    for name in ("convert", "calibrate", "normalize_relu"):
        patch(cli, name, _fixed(f"graph.transforms.{name}"))
    for name in ("decompose_maxpool", "decompose_layernorm"):
        patch(gtr, name, _fixed(f"graph.transforms.{name}"))

    # SnnGraph.save/load reach io through the module (`gio.save_model`); the
    # CLI imported load_model/load_tensor/load_labels by name.
    patch(gio, "save_model", _fixed("graph.io.save_model"))
    patch(gio, "load_model", _fixed("graph.io.load_model"))
    for name in ("load_model", "load_tensor", "load_labels"):
        patch(cli, name, _fixed(f"graph.io.{name}"))
    return out


def _traced_solver(tracer, solve, schedule_cls):
    name_of = _fixed("schedules.coefficients")

    @functools.wraps(solve)
    def wrapper(*args, **kwargs):
        coeffs = solve(*args, **kwargs)
        wrapped = {
            f.name: _wrap(tracer, getattr(coeffs, f.name), name_of)
            for f in dataclasses.fields(coeffs)
            if callable(getattr(coeffs, f.name))
            and not isinstance(getattr(coeffs, f.name), schedule_cls)
        }
        return dataclasses.replace(coeffs, **wrapped)

    return wrapper


@contextmanager
def instrumented(tracer):
    """Install the span wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, replacement in _patches(tracer):
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
