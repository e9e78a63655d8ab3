"""Compiled step plans against a node-by-node reference walk.

The walker steps a converted network the way the engine did before it
compiled plans: every node in topological order with its predecessors looked
up per step, linear nodes through `node_forward`, and neuron layers built
from the neuron classes with callable coefficients. The plan must reproduce
it bit for bit: readout history, per-layer spike counts, layer decodes and
the calibration records.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_cnn, build_layernorm_block, build_mlp, chain_edges, dense_node
from spikeopt.codec import make_rng
from spikeopt.engine import SnnInstance, make_input_encoder, run
from spikeopt.graph import Graph, Node, calibrate, convert, node_forward
from spikeopt.graph.model import conv2d
from spikeopt.neurons import SignGdNeuron, SubgradNeuron, parse_mechanism
from spikeopt.schedules import (
    parse_schedule,
    solve_signgd_coefficients,
    solve_subgrad_coefficients,
)


def build_add_concat(seed=0):
    """in -> fc0 -> relu -> fc1 -> add(fc0) -> relu -> concat(first relu) -> head."""
    rng = make_rng(seed)
    nodes = [
        Node("in", "input", {"shape": [6]}),
        dense_node(rng, "fc0", 6, 6),
        Node("act0", "relu", {}),
        dense_node(rng, "fc1", 6, 6),
        Node("skip", "add", {}),
        Node("act1", "relu", {}),
        Node("cat", "concat", {}),
        dense_node(rng, "head", 12, 3),
        Node("out", "output", {}),
    ]
    edges = [
        ("in", "fc0", 0), ("fc0", "act0", 0), ("act0", "fc1", 0),
        ("fc1", "skip", 0), ("fc0", "skip", 1), ("skip", "act1", 0),
        ("act1", "cat", 0), ("act0", "cat", 1), ("cat", "head", 0), ("head", "out", 0),
    ]
    return Graph(nodes, edges)


def build_padded_bye_cnn(seed=0):
    """Padded, strided conv and 3x3 max-pool: tournament byes and concats."""
    rng = make_rng(seed)
    nodes = [
        Node("in", "input", {"shape": [1, 7, 7]}),
        Node("conv", "conv2d", {
            "weight": rng.normal(0, 0.3, (2, 1, 3, 3)), "bias": rng.normal(0, 0.1, 2),
            "stride": [2, 2], "padding": [1, 1],
        }),
        Node("act", "relu", {}),
        Node("pool", "maxpool2d", {"kernel": [3, 3], "stride": [3, 3]}),
        Node("flat", "flatten", {}),
        dense_node(rng, "fc", 2, 2),
        Node("out", "output", {}),
    ]
    return Graph(nodes, chain_edges(["in", "conv", "act", "pool", "flat", "fc", "out"]))


MODELS = {
    "mlp": lambda: build_mlp(seed=5, dims=(8, 16, 4)),
    "cnn": lambda: build_cnn(seed=6),
    "layernorm": lambda: build_layernorm_block(seed=7, n=10),
    "add_concat": lambda: build_add_concat(seed=8),
    "bye_cnn": lambda: build_padded_bye_cnn(seed=9),
}
# (model, family) pairs; the subgrad family converts ReLU-only graphs
CONFIGS = [(m, "signgd") for m in MODELS] + [("mlp", "subgrad"), ("add_concat", "subgrad")]
SCHEDULES = ["inv:1", "exp:0.5:0.99"]


@lru_cache(maxsize=None)
def converted(model, family, schedule, parameterization):
    return calibrate(convert(MODELS[model](), family, parse_schedule(schedule),
                             parameterization=parameterization))


def walk(g, frame, fire):
    """One reference step: returns the output current; `fire(node, currents)`
    returns a neuron layer's spikes for its (arity, n) currents."""
    frames, current = {}, None
    for nid in g.topo_order:
        node = g.nodes[nid]
        if node.kind == "input":
            frames[nid] = np.asarray(frame, dtype=np.float64).reshape(node.params["shape"])
            continue
        inputs = [frames[s] for s, _ in g.predecessors(nid)]
        if node.kind == "neuron":
            n = node.params["count"]
            if node.params["arity"] == 1:
                currents = inputs[0].reshape(1, -1)
            else:
                currents = np.stack([
                    np.broadcast_to(p.reshape(-1), (n,)) if p.size != n else p.reshape(-1)
                    for p in inputs
                ])
            frames[nid] = fire(node, currents).reshape(node.params["shape"])
        elif node.kind == "output":
            current = inputs[0].reshape(-1)
            frames[nid] = inputs[0]
        else:
            frames[nid] = node_forward(node, inputs)
    return current


def reference_run(snn, x, T, encoder, seed):
    g = snn.graph
    layers = {}
    for node in snn.neuron_nodes():
        n = node.params["count"]
        if node.params["mech"] == "subgrad":
            layers[node.id] = SubgradNeuron(solve_subgrad_coefficients(snn.schedule), n=n)
        else:
            coeffs = solve_signgd_coefficients(snn.schedule, snn.parameterization)
            layers[node.id] = SignGdNeuron(
                parse_mechanism(node.params["mech"]), coeffs, snn.schedule,
                W=node.tensor("cal_w"), b=node.tensor("cal_b"), n=n,
            )
    out = g.nodes[g.output_id]
    w_out, b_out = out.tensor("cal_w"), out.tensor("cal_b")
    r = b_out.copy() if snn.family == "signgd" else np.zeros_like(b_out)
    enc = make_input_encoder(snn, x, encoder, seed=seed)
    history = np.empty((T, b_out.size))
    for t in range(1, T + 1):
        current = walk(g, enc.step(), lambda node, cur: layers[node.id].step(cur))
        if snn.family == "signgd":
            r = r - float(snn.schedule(t)) * (2.0 * (current - b_out) - w_out)
        else:
            r = r * (t - 1) / t + current / t
        history[t - 1] = r
    spikes = {nid: layer.spike_count for nid, layer in layers.items()}
    decoded = {nid: np.asarray(layer.decoded).copy() for nid, layer in layers.items()}
    return history, spikes, decoded


def input_for(snn, seed):
    g = snn.graph
    return make_rng(seed).normal(0, 1, tuple(g.nodes[g.input_id].params["shape"]))


@settings(max_examples=100, deadline=None)
@given(
    config=st.sampled_from(CONFIGS),
    schedule=st.sampled_from(SCHEDULES),
    unit_current=st.booleans(),
    encoder=st.sampled_from(["float", "det", "stoch"]),
    T=st.integers(1, 64),
    seed=st.integers(0, 2**16),
)
def test_plan_matches_reference_walk(config, schedule, unit_current, encoder, T, seed):
    model, family = config
    param = ("unit-current" if unit_current and family == "signgd"
             and schedule.startswith("exp") else "canonical")
    snn = converted(model, family, schedule, param)
    x = input_for(snn, seed)
    want_hist, want_spikes, want_decoded = reference_run(snn, x, T, encoder, seed)
    inst = SnnInstance(snn)
    hist = run(snn, x, T, encoder=encoder, seed=seed, instance=inst)
    np.testing.assert_array_equal(hist, want_hist)
    assert inst.spike_counts == want_spikes
    decoded = inst.layer_decoded()
    assert decoded.keys() == want_decoded.keys()
    for nid, want in want_decoded.items():
        np.testing.assert_array_equal(decoded[nid], want)


@pytest.mark.parametrize("model,family", CONFIGS)
def test_reused_instance_matches_fresh_runs(model, family):
    snn = converted(model, family, "inv:1", "canonical")
    inst = SnnInstance(snn)
    for seed in (1, 2):
        x = input_for(snn, seed)
        got = run(snn, x, 16, encoder="stoch", seed=seed, instance=inst)
        np.testing.assert_array_equal(got, run(snn, x, 16, encoder="stoch", seed=seed))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), stride=st.integers(1, 2), pad=st.integers(0, 1))
def test_conv2d_is_the_tensordot_accumulation(seed, stride, pad):
    """Tap for tap in dy, dx order, bit for bit."""
    rng = make_rng(seed)
    x, w, b = rng.normal(size=(2, 7, 6)), rng.normal(size=(3, 2, 3, 2)), rng.normal(size=3)
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    ho, wo = (xp.shape[1] - 3) // stride + 1, (xp.shape[2] - 2) // stride + 1
    want = np.zeros((3, ho, wo))
    for dy in range(3):
        for dx in range(2):
            patch = xp[:, dy : dy + ho * stride : stride, dx : dx + wo * stride : stride]
            want += np.tensordot(w[:, :, dy, dx], patch, axes=(1, 0))
    got = conv2d(x, w, b, (stride, stride), (pad, pad))
    np.testing.assert_array_equal(got, want + b[:, None, None])


@pytest.mark.parametrize("model,family", CONFIGS)
@pytest.mark.parametrize("schedule", SCHEDULES)
def test_calibration_matches_reference_walk(model, family, schedule):
    snn = converted(model, family, schedule, "canonical")
    g = snn.graph
    in_shape = g.nodes[g.input_id].params["shape"]
    records = []
    for emission in (1.0, 0.0):
        seen = {}

        def forced(node, currents):
            seen[node.id] = currents
            return np.full(node.params["count"], emission)

        records.append((seen, walk(g, np.full(in_shape, emission), forced)))
    (hi, out_hi), (lo, out_lo) = records
    for node in snn.neuron_nodes():
        np.testing.assert_array_equal(node.params["cal_w"], hi[node.id] - lo[node.id])
        np.testing.assert_array_equal(node.params["cal_b"], lo[node.id])
    out = g.nodes[g.output_id]
    np.testing.assert_array_equal(out.params["cal_w"], out_hi - out_lo)
    np.testing.assert_array_equal(out.params["cal_b"], out_lo)
