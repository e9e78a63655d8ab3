"""Workload definitions: seeded synthetic models, datasets and oracle checks.

Every workload is generated from the benchmark seed alone and reaches the
program only as files (model manifests/blobs, STEN tensors, SLBL labels) and
CLI arguments. Each definition carries its rationale: why it was chosen,
which layers it loads, and which metrics it predicts will not move.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spikeopt.graph import Graph, Node

# ---------------------------------------------------------------------------
# Model builders. Weights are N(0, 1/fan_in) so pre-activations stay O(1)
# under N(0, 1) inputs; biases are N(0, 0.1).
# ---------------------------------------------------------------------------


def _dense(rng, nid, n_in, n_out):
    return Node(nid, "dense", {
        "weight": rng.normal(0.0, 1.0 / np.sqrt(n_in), (n_out, n_in)),
        "bias": rng.normal(0.0, 0.1, n_out),
    })


def _chain(nodes):
    ids = [n.id for n in nodes]
    return Graph(nodes, [(a, b, 0) for a, b in zip(ids, ids[1:])])


def build_mlp(rng, dims):
    """input -> (dense -> relu)* -> dense -> output."""
    nodes = [Node("in", "input", {"shape": [dims[0]]})]
    for k in range(len(dims) - 1):
        nodes.append(_dense(rng, f"fc{k}", dims[k], dims[k + 1]))
        if k < len(dims) - 2:
            nodes.append(Node(f"act{k}", "relu", {}))
    nodes.append(Node("out", "output", {}))
    return _chain(nodes)


def build_cnn(rng, in_shape, channels, n_out, kernel=3, pool=2):
    """input -> conv2d -> relu -> maxpool2d -> flatten -> dense -> output."""
    c, h, _ = in_shape
    side = (h - kernel + 1) // pool
    return _chain([
        Node("in", "input", {"shape": list(in_shape)}),
        Node("conv", "conv2d", {
            "weight": rng.normal(0.0, 1.0 / np.sqrt(c * kernel * kernel),
                                 (channels, c, kernel, kernel)),
            "bias": rng.normal(0.0, 0.1, channels),
            "stride": [1, 1], "padding": [0, 0],
        }),
        Node("act", "relu", {}),
        Node("pool", "maxpool2d", {"kernel": [pool, pool], "stride": [pool, pool]}),
        Node("flat", "flatten", {}),
        _dense(rng, "fc", channels * side * side, n_out),
        Node("out", "output", {}),
    ])


def build_layernorm_block(rng, n, n_out):
    """input -> dense -> layernorm -> gelu -> dense -> output."""
    return _chain([
        Node("in", "input", {"shape": [n]}),
        _dense(rng, "fc0", n, n),
        Node("ln", "layernorm", {
            "gamma": rng.uniform(0.5, 1.5, n), "beta": rng.normal(0.0, 0.2, n),
            "eps": 1e-5,
        }),
        Node("act", "gelu", {}),
        _dense(rng, "fc1", n, n_out),
        Node("out", "output", {}),
    ])


# ---------------------------------------------------------------------------
# Definitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Net:
    """One converted network of a workload and how the CLI drives it."""

    name: str
    build: object          # (rng, smoke) -> Graph
    inputs: object         # (rng, items, shape) -> float64 array
    family: str
    encoder: str
    normalize_relu: int = 0  # calibration batches for --normalize-relu; 0 = off


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loads: str
    steady: str             # metrics predicted not to move, and why
    nets: tuple = ()
    items: int = 0
    # Limits on agreement with the ANN at full size, about twice the worst
    # readout_err and the worst argmax_agree less an item or two, as seen
    # over seeds 1-200 when the benchmark was defined.
    min_agree: float = 0.0
    max_readout_err: float = 0.0
    oracle_checks: tuple = ()  # (neuron, schedule, parameterization)
    oracle_steps: int = 0


def _normal(rng, items, shape):
    return rng.normal(0.0, 1.0, (items, *shape))


def _unit(rng, items, shape):
    return rng.uniform(0.0, 1.0, (items, *shape))


_SIGN_MECHS = ("relu", "leaky:0.1", "gelu", "square", "max2", "misr")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mlp-wide",
            why="784-256-256-10 ReLU MLP (signgd, inv:1, float encoder): the step is "
                "bound by dense arithmetic, so matmul, batching or event-driven gains show.",
            loads="graph.model dense node_forward (most of the step), the two 256-wide "
                  "SignGdNeuron relu layers, codec FloatEncoder over 784 inputs, and "
                  "graph.io (a 1 MB blob loaded by every command).",
            steady="Dispatch-only changes (compiled plan, predecessor caching, tabulated "
                   "coefficients) should barely move cli_steps_per_ref here; "
                   "energy_pj_per_item, argmax_agree and readout_err move only if "
                   "the arithmetic changes.",
            nets=(Net("mlp", lambda rng, smoke: build_mlp(
                rng, (32, 16, 16, 10) if smoke else (784, 256, 256, 10)),
                _normal, "signgd", "float"),),
            items=8, min_agree=0.5, max_readout_err=0.15,  # worst seen: 0.625, 0.068
        ),
        Workload(
            name="cnn-pool",
            why="1x28x28 input, 8-channel 3x3 conv, ReLU, 2x2 max-pool, dense->10 "
                "(signgd, float): after the tournament decomposition gathers, conv2d "
                "and two-port max2 neurons dominate a step of 9,464 neurons.",
            loads="graph.model gather/reshape/flatten/conv2d node_forward, "
                  "Graph.predecessors over the largest graph, SignGdNeuron relu and "
                  "max2, engine.instance_init (infer_shapes), and "
                  "graph.transforms.decompose_maxpool in setup_s.",
            steady="Dense-only matmul changes should not move it much (one 1352x10 "
                   "dense); energy_pj_per_item is modelled and must not move under a "
                   "speed-only change.",
            nets=(Net("cnn", lambda rng, smoke: build_cnn(
                rng, (1, 8, 8) if smoke else (1, 28, 28), 2 if smoke else 8, 10),
                _normal, "signgd", "float"),),
            items=4, min_agree=0.5, max_readout_err=0.4,  # worst seen: 0.75, 0.195
        ),
        Workload(
            name="small-nets",
            why="8-16-16-4 MLP (subgrad, --normalize-relu, stoch encoder) and the "
                "10-wide layer-norm block (signgd, det): layers of <=16 units, so "
                "fixed per-call overhead dominates the step.",
            loads="engine.step dispatch, Graph.predecessors, schedules.Schedule and "
                  "coefficient callables, SubgradNeuron and the rate readout, "
                  "codec PoissonEncoder/DeterministicEncoder, normalize_relu, "
                  "decompose_layernorm, and the square/misr/gelu neurons.",
            steady="Matmul-bound changes (BLAS, event-driven accumulation) should not "
                   "move cli_steps_per_ref here; a compiled plan or tabulated "
                   "coefficients should.",
            nets=(
                Net("mlp_subgrad", lambda rng, smoke: build_mlp(rng, (8, 16, 16, 4)),
                    _unit, "subgrad", "stoch", normalize_relu=4),
                Net("ln_block", lambda rng, smoke: build_layernorm_block(rng, 10, 4),
                    _normal, "signgd", "det"),
            ),
            items=16, min_agree=0.75, max_readout_err=1.3,  # worst seen: 0.844, 0.653
        ),
        Workload(
            name="oracle-replay",
            why="oracle-check of single neurons (n=1) against their optimizer forms: "
                "if, lif, subgrad and six sign mechanisms under inv:1, plus the sign "
                "mechanisms under exp:1:0.999 unit-current.",
            loads="neurons (all classes, n=1), oracles, schedules and codec.heaviside; "
                  "no graph and no engine. setup_s is coefficient solve and validation.",
            steady="Graph and engine changes (compiled plan, batching) should not move "
                   "it; per-call cost added in neurons or schedules shows here.",
            oracle_checks=(
                ("if", "inv:1", "canonical"),
                ("lif", "inv:1", "canonical"),
                ("subgrad", "inv:1", "canonical"),
                *((f"signgd:{m}", "inv:1", "canonical") for m in _SIGN_MECHS),
                *((f"signgd:{m}", "exp:1:0.999", "unit-current") for m in _SIGN_MECHS),
            ),
            oracle_steps=500,
        ),
    )
}

SMOKE_SIZES = {"items": 2, "T": 8, "oracle_steps": 50}
