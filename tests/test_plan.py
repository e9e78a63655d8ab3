"""Compiled step plans against a node-by-node reference walk.

The walker steps a converted network the way the engine did before it
compiled plans: every node in topological order with its predecessors looked
up per step, linear nodes through `node_forward`, and neuron layers with
callable coefficients: the reference neurons of `reference_neuron.py`,
whose spike rules and state updates are the paper's expressions. The plan
must reproduce it bit for bit: readout history, per-layer spike counts,
layer decodes, each layer's state (u and v of a sign layer, u and y of a
subgradient layer), and the calibration records. A batch of items stepped
in lockstep must give each item what running it alone gives, bit for bit.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIGS, MODELS
from reference_neuron import ReferenceSignGdNeuron, ReferenceSubgradNeuron
from spikeopt.codec import make_rng
from spikeopt.engine import SnnInstance, make_input_encoder, run, run_batch
from spikeopt.graph import Graph, Node, calibrate, convert, node_forward, run_forward
from spikeopt.graph.model import conv2d
from spikeopt.graph.plan import Plan
from spikeopt.neurons import parse_mechanism
from spikeopt.schedules import (
    parse_schedule,
    solve_signgd_coefficients,
    solve_subgrad_coefficients,
)


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
            if len(inputs) == 1:  # one operand per input edge
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
            layers[node.id] = ReferenceSubgradNeuron(solve_subgrad_coefficients(snn.schedule), n)
        else:
            coeffs = solve_signgd_coefficients(snn.schedule, snn.parameterization)
            layers[node.id] = ReferenceSignGdNeuron(
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
    # u and v of a sign layer, u and y of a subgradient layer
    states = {nid: {k: getattr(layer, k) for k in ("u", "v", "y") if hasattr(layer, k)}
              for nid, layer in layers.items()}
    return history, spikes, decoded, states


def input_for(snn, seed, items=None):
    g = snn.graph
    shape = tuple(g.nodes[g.input_id].params["shape"])
    return make_rng(seed).normal(0, 1, shape if items is None else (items, *shape))


configs = st.tuples(
    st.sampled_from(CONFIGS), st.sampled_from(SCHEDULES), st.booleans(),
).map(lambda c: (*c[0], c[1], "unit-current" if c[2] and c[0][1] == "signgd"
                 and c[1].startswith("exp") else "canonical"))


@settings(max_examples=100, deadline=None)
@given(
    config=configs,
    encoder=st.sampled_from(["float", "det", "stoch"]),
    T=st.integers(1, 64),
    seed=st.integers(0, 2**16),
)
def test_plan_matches_reference_walk(config, encoder, T, seed):
    snn = converted(*config)
    x = input_for(snn, seed)
    want_hist, want_spikes, want_decoded, want_states = reference_run(snn, x, T, encoder, seed)
    inst = SnnInstance(snn)
    hist = run(snn, x, T, encoder=encoder, seed=seed, instance=inst)
    np.testing.assert_array_equal(hist, want_hist)
    assert {nid: int(c[0]) for nid, c in inst.spike_counts.items()} == want_spikes
    decoded = inst.layer_decoded()
    assert decoded.keys() == want_decoded.keys()
    for nid, want in want_decoded.items():
        np.testing.assert_array_equal(decoded[nid][0], want)
    for nid, state in want_states.items():  # each layer's state, bit for bit
        for name, want in state.items():
            got = getattr(inst.layers[nid], name)
            np.testing.assert_array_equal(got[:, 0] if name == "v" else got[0], want)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["signgd", "subgrad"]),
    schedule=st.sampled_from(SCHEDULES),
    items=st.integers(1, 4),
    T=st.integers(1, 40),
    seed=st.integers(0, 2**16),
)
def test_readout_is_the_allocating_formula(family, schedule, items, T, seed):
    """The readout update, fed arbitrary output currents, equals its formula
    bit for bit, and each step returns an array later steps leave alone."""
    snn = converted("mlp", family, schedule, "canonical")
    inst = SnnInstance(snn)
    inst.reset(items)
    w_out, b_out = inst.readout_w, inst.readout_b
    currents = make_rng(seed).normal(0, 2, (T, items, b_out.size))
    frames = iter(currents)
    inst.plan.step = lambda x: next(frames)  # the output currents of each step
    r = np.tile(b_out if family == "signgd" else np.zeros_like(b_out), (items, 1))
    kept = []
    for t in range(1, T + 1):
        got = inst.step(None)
        if family == "signgd":
            r = r - float(snn.schedule(t)) * (2.0 * (currents[t - 1] - b_out) - w_out)
        else:
            r = r * (t - 1) / t + currents[t - 1] / t
        np.testing.assert_array_equal(got, r)
        kept.append((got, r))
    for got, want in kept:
        np.testing.assert_array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(
    config=configs,
    encoder=st.sampled_from(["float", "det", "stoch"]),
    items=st.integers(1, 5),
    T=st.integers(1, 32),
    seed=st.integers(0, 2**16),
)
def test_batch_matches_items_run_alone(config, encoder, items, T, seed):
    snn = converted(*config)
    X = input_for(snn, seed, items)
    batch = SnnInstance(snn)
    hist, spikes = run_batch(snn, X, T, encoder=encoder, seed=seed, instance=batch)
    assert hist.shape == (T, items, batch.readout_b.size) and spikes.shape == (items,)
    counts, decoded = batch.spike_counts, batch.layer_decoded()
    alone = SnnInstance(snn)
    for i in range(items):
        want = run(snn, X[i], T, encoder=encoder, seed=seed + 1000 * i, instance=alone)
        np.testing.assert_array_equal(hist[:, i], want)
        assert spikes[i] == alone.total_spikes
        for nid, count in alone.spike_counts.items():
            np.testing.assert_array_equal(counts[nid][i], count[0])
        for nid, want_decoded in alone.layer_decoded().items():
            np.testing.assert_array_equal(decoded[nid][i], want_decoded[0])


@pytest.mark.parametrize("model,family", CONFIGS)
def test_converted_forward_matches_source(model, family):
    """Conversion (bn folding, decompositions, neuron substitution) keeps the
    real-arithmetic forward within the 1e-6 transform bound."""
    g = MODELS[model]()
    snn = converted(model, family, "inv:1", "canonical")
    rng = make_rng(12)
    for _ in range(20):
        x = rng.normal(0, 1, tuple(g.nodes[g.input_id].params["shape"]))
        np.testing.assert_allclose(run_forward(snn.graph, x)[snn.graph.output_id],
                                   run_forward(g, x)[g.output_id], atol=1e-6)


def test_leaky_mechanism_name_and_batchnorm_folded():
    snn = converted("leaky", "signgd", "inv:1", "canonical")
    assert [n.params["mech"] for n in snn.neuron_nodes()] == ["signgd:leaky:0.2"]
    assert "bn" not in converted("bn_mlp", "signgd", "inv:1", "canonical").graph.nodes


@pytest.mark.parametrize("model,family", CONFIGS)
def test_reused_instance_matches_fresh_runs(model, family):
    snn = converted(model, family, "inv:1", "canonical")
    inst = SnnInstance(snn)
    for seed in (1, 2):
        x = input_for(snn, seed)
        got = run(snn, x, 16, encoder="stoch", seed=seed, instance=inst)
        np.testing.assert_array_equal(got, run(snn, x, 16, encoder="stoch", seed=seed))


@pytest.mark.parametrize("model,family", CONFIGS)
def test_reused_instance_across_batch_sizes(model, family):
    """Each reset sizes the layers' buffers to its batch: one instance run
    through chunks of 4, 3, 1 and 4 items gives what fresh instances give."""
    snn = converted(model, family, "inv:1", "canonical")
    inst = SnnInstance(snn)
    for seed, items in enumerate((4, 3, 1, 4)):
        X = input_for(snn, seed, items)
        hist, spikes = run_batch(snn, X, 16, encoder="stoch", seed=seed, instance=inst)
        want_hist, want_spikes = run_batch(snn, X, 16, encoder="stoch", seed=seed)
        np.testing.assert_array_equal(hist, want_hist)
        np.testing.assert_array_equal(spikes, want_spikes)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), stride=st.integers(1, 2), pad=st.integers(0, 1),
       items=st.integers(1, 4), channels=st.sampled_from([2, 8, 16]))
def test_conv2d_is_the_tensordot_accumulation(seed, stride, pad, items, channels):
    """Item by item, tap for tap in dy, dx order, bit for bit; with 8 or 16
    input channels one product over all items' patches would differ."""
    rng = make_rng(seed)
    x = rng.normal(size=(items, channels, 7, 6))
    w, b = rng.normal(size=(3, channels, 3, 2)), rng.normal(size=3)
    got = conv2d(x, w, b, (stride, stride), (pad, pad))
    for item in range(items):
        xp = np.pad(x[item], ((0, 0), (pad, pad), (pad, pad)))
        ho, wo = (xp.shape[1] - 3) // stride + 1, (xp.shape[2] - 2) // stride + 1
        want = np.zeros((3, ho, wo))
        for dy in range(3):
            for dx in range(2):
                patch = xp[:, dy : dy + ho * stride : stride, dx : dx + wo * stride : stride]
                want += np.tensordot(w[:, :, dy, dx], patch, axes=(1, 0))
        np.testing.assert_array_equal(got[item], want + b[:, None, None])


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


@pytest.mark.parametrize("shapes", [
    [(6,), (6,), (6,)],
    [(2, 3), (3,)],
    [(3,), (2, 1, 3), (1, 3)],
    [(4, 1), (1, 5), (5,)],
], ids=["three-inputs", "row", "ranks-3-1-2", "outer"])
def test_batched_add_is_the_per_item_add(shapes):
    """The add op sums each item's operands in port order, their ranks padded
    on the left as numpy pads them for one item, bit for bit."""
    sizes = [int(np.prod(sh)) for sh in shapes]
    starts = np.cumsum([0, *sizes])
    nodes, edges = [Node("in", "input", {"shape": [int(starts[-1])]})], []
    for k, sh in enumerate(shapes):
        nodes += [Node(f"g{k}", "gather", {"indices": list(range(starts[k], starts[k + 1]))}),
                  Node(f"r{k}", "reshape", {"shape": list(sh)})]
        edges += [("in", f"g{k}", 0), (f"g{k}", f"r{k}", 0), (f"r{k}", "add", k)]
    add = Node("add", "add", {})
    g = Graph(nodes + [add, Node("out", "output", {})], edges + [("add", "out", 0)])
    X = make_rng(3).normal(0, 1, (4, int(starts[-1])))
    got = Plan(g, None).step(X)
    for x, row in zip(X, got):
        operands = [x[a:b].reshape(sh) for a, b, sh in zip(starts, starts[1:], shapes)]
        np.testing.assert_array_equal(row, node_forward(add, operands).reshape(-1))
