"""Compiled step plans against a node-by-node reference walk.

The walker steps a converted network the way the engine did before it
compiled plans: one step at a time, every node in topological order with its
predecessors looked up per step, linear nodes through `node_forward` (dense
and affine nodes through the plan's `DenseRule`, one row per product, and
conv2d nodes through its `ConvRule`, one frame per product), and neuron
layers with callable coefficients: the reference neurons of `reference_neuron.py`,
whose spike rules and state updates are the paper's expressions. The plan
must reproduce it bit for bit: readout history, per-layer spike counts,
layer decodes, each layer's state (u and v of a sign layer, u and y of a
subgradient layer), and the calibration records. A batch of items stepped
in lockstep must give each item what running it alone gives, bit for bit.
"""

import gc
import itertools
import math
import weakref
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (CONFIGS, MODELS, build_cnn, build_layernorm_block, build_mlp,
                      chain_edges, dense_node)
from reference_neuron import ReferenceSignGdNeuron, ReferenceSubgradNeuron
from spikeopt.cli import _checkpoints
from spikeopt.codec import ConstantEncoder, make_rng
from spikeopt.engine import (READS, SnnInstance, ann_forward, make_input_encoder, probe, run,
                             run_batch)
from spikeopt.graph import Graph, Node, calibrate, convert, node_forward, run_forward
from spikeopt.graph.model import conv2d, infer_shapes
from spikeopt.graph import plan as plan_module
from spikeopt.graph.plan import ConvRule, DenseRule, Plan
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
    frames, current, rules = {}, None, linear_rules(g)
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
        elif node.kind in ("dense", "affine"):
            frames[nid] = rules[nid](inputs[0].reshape(1, -1))[0]
        elif node.kind == "conv2d":
            frames[nid] = rules[nid](inputs[0].reshape(1, -1)).reshape(rules[nid].shape)
        else:
            frames[nid] = node_forward(node, inputs)
    return current


_RULES = {}


def linear_rules(g):
    """The `DenseRule` of each dense and affine node of g and the `ConvRule`
    of each conv2d node, built once per graph."""
    if id(g) not in _RULES:
        shapes, rules = infer_shapes(g), {}
        for nid, node in g.nodes.items():
            if node.kind in ("dense", "affine"):
                rules[nid] = DenseRule.of(node)
            elif node.kind == "conv2d":
                rules[nid] = ConvRule.of(node, shapes[g.inputs_of(nid)[0]])
        _RULES[id(g)] = (g, rules)
    return _RULES[id(g)][1]


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
    blocks=st.lists(st.integers(1, 8), min_size=1, max_size=8),
    seed=st.integers(0, 2**16),
)
def test_readout_is_the_allocating_formula(family, schedule, items, T, blocks, seed):
    """The installed readout, fed arbitrary output currents in blocks of any
    length, equals its formula bit for bit, and each block returns an array
    later blocks leave alone."""
    snn = converted("mlp", family, schedule, "canonical")
    inst = SnnInstance(snn)
    inst.reset(items, T)
    readout = inst.plan.codecs["readout"]
    w_out, b_out = Plan(snn.graph).calibration()[1]
    currents = make_rng(seed).normal(0, 2, (T, items, b_out.size))
    r = np.tile(b_out if family == "signgd" else np.zeros_like(b_out), (items, 1))
    kept, t = [], 0
    while t < T:
        k = min(blocks[len(kept) % len(blocks)], T - t)
        got = readout.fold(currents[t : t + k])
        want = []
        for t in range(t + 1, t + k + 1):
            if family == "signgd":
                r = r - float(snn.schedule(t)) * (2.0 * (currents[t - 1] - b_out) - w_out)
            else:
                r = r * (t - 1) / t + currents[t - 1] / t
            want.append(r)
        np.testing.assert_array_equal(got, want)
        kept.append((got, np.stack(want)))
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
    n_out = batch.plan.widths[batch.plan.out_slot]
    assert hist.shape == (T, items, n_out) and spikes.shape == (items,)
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


@pytest.mark.parametrize("model,family", CONFIGS)
@pytest.mark.parametrize("schedule", SCHEDULES)
def test_instance_calibration_is_calibrates_records(model, family, schedule):
    """A plan's calibration is the W and b that `calibrate` writes, bit for
    bit, every layer's and the readout's; a sign instance's layers and
    installed readout hold them."""
    snn = converted(model, family, schedule, "canonical")
    cal, (w_out, b_out) = Plan(snn.graph).calibration()
    out = snn.graph.nodes[snn.graph.output_id]
    np.testing.assert_array_equal(w_out, out.params["cal_w"])
    np.testing.assert_array_equal(b_out, out.params["cal_b"])
    for node in snn.neuron_nodes():
        np.testing.assert_array_equal(cal[node.id][0], node.params["cal_w"])
        np.testing.assert_array_equal(cal[node.id][1], node.params["cal_b"])
    if family == "signgd":
        inst = SnnInstance(snn)
        for node in snn.neuron_nodes():
            np.testing.assert_array_equal(inst.layers[node.id].W, node.params["cal_w"])
            np.testing.assert_array_equal(inst.layers[node.id].b, node.params["cal_b"])
        readout = inst.plan.codecs["readout"]
        np.testing.assert_array_equal(readout.W, out.params["cal_w"])
        np.testing.assert_array_equal(readout.b, out.params["cal_b"])


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
    plan = Plan(g)
    plan.reset(len(X))
    plan.codecs["encoder"] = ConstantEncoder(X)
    (got,) = plan.step(1)  # the readout's stand-in gives back the output currents
    for x, row in zip(X, got):
        operands = [x[a:b].reshape(sh) for a, b, sh in zip(starts, starts[1:], shapes)]
        np.testing.assert_array_equal(row, node_forward(add, operands).reshape(-1))


# (fan_in, n_out) of every dense and affine node in the benchmark's networks
# at full and smoke sizes, beyond MODELS; two widths above 192 that are not
# multiples of 8; the fan-ins on either side of GEMM_SMALL at GEMM_WIDTH;
# and the first fan-ins above GEMM_SMALL at widths 24 and 16, below it
BENCH_DENSE = [(784, 256), (256, 256), (256, 10), (1352, 10), (32, 16), (16, 16), (16, 10),
               (18, 10), (8, 16), (16, 4), (10, 10), (10, 1), (10, 4)]
WIDE = [(64, 193), (37, 300), (1953, 32), (1954, 32), (2605, 24), (3907, 16)]
# the shapes that make one GEMM per block
ONE_GEMM = {(784, 256), (256, 256), (1954, 32)}


def dense_shapes():
    shapes = set(BENCH_DENSE + WIDE)
    for model, family in CONFIGS:
        for node in converted(model, family, "inv:1", "canonical").graph.nodes.values():
            if node.kind in ("dense", "affine"):
                shapes.add(tuple(np.shape(node.params["weight"]))[::-1])
    return sorted(shapes)


def lone_dense_plan(fan_in, n_out):
    """The plan of a network that is one dense node of this shape."""
    nodes = [Node("in", "input", {"shape": [fan_in]}),
             Node("fc", "dense", {"weight": np.zeros((n_out, fan_in)), "bias": np.zeros(n_out)}),
             Node("out", "output", {})]
    return Plan(Graph(nodes, [("in", "fc", 0), ("fc", "out", 0)]))


@pytest.mark.parametrize("fan_in,n_out", dense_shapes())
@pytest.mark.parametrize("rows", [1, 37, 64, 192, "block"])
@pytest.mark.parametrize("spikes", [False, True], ids=["random", "spikes"])
def test_dense_row_is_the_row_alone(fan_in, n_out, rows, spikes):
    """Each row of a block's product, at every position of its tile and next
    to random or 0/1 rows, has the bits of that row computed alone: the
    rule that lets the plan, calibration and the walker agree exactly. It
    holds for the R-row tiles of every weight and for the one GEMM over a
    whole block of a weight with `one_gemm`, up to the largest block
    `block_steps` gives a network of this one node at B = 1 (at most 4,096
    rows, the block of T = 4,096)."""
    if rows == "block":
        rows = lone_dense_plan(fan_in, n_out).block_steps(1, 4096)
    rng = make_rng(fan_in * 1000 + n_out)
    rule = DenseRule(rng.normal(0, 1, (n_out, fan_in)).astype(np.float32),
                     rng.normal(0, 1, n_out))
    x = (rng.random((rows, fan_in)) < 0.5).astype(np.float64) if spikes \
        else rng.normal(0, 1, (rows, fan_in))
    block = rule(x).copy()
    for j in range(rows):
        np.testing.assert_array_equal(block[j], rule(x[j : j + 1])[0])
    out = np.empty((rows, n_out))
    np.testing.assert_array_equal(rule(x, out), block)


def test_a_weight_is_widened_once_per_graph():
    """`Node.tensor` keeps one read-only float64 widening per parameter:
    the weight of a dense rule of whole 8-row groups and of a conv2d rule,
    and what the ANN reference reads, while a dense weight that needs
    padding keeps its padded copy alone. Reassigning the parameter, as the
    transforms do, makes a new widening."""
    nodes = build_mlp(seed=2, dims=(4, 16, 3)).nodes
    fc0, fc1 = nodes["fc0"], nodes["fc1"]
    w = fc0.tensor("weight")
    assert w is fc0.tensor("weight") and not w.flags.writeable
    assert w.dtype == np.float64 and (w == fc0.params["weight"]).all()
    assert DenseRule.of(fc0).wt.base is w
    assert DenseRule.of(fc1).wt.base is not fc1.tensor("weight")
    conv = build_cnn(seed=6).nodes["conv"]
    assert ConvRule.of(conv, (1, 8, 8)).w.base is conv.tensor("weight")
    fc0.params["weight"] = (w * 2).astype(np.float32)
    assert fc0.tensor("weight") is not w
    np.testing.assert_array_equal(fc0.tensor("weight"), 2 * w)


@pytest.mark.parametrize("fan_in,n_out", BENCH_DENSE + WIDE)
@pytest.mark.parametrize("rows", [1, 37, 192])
def test_dense_rule_makes_one_gemm_above_the_small_matrix_bound(fan_in, n_out, rows):
    """A weight whose one R-row tile is above GEMM_SMALL (R fan_in width,
    width rounded up to 8) and at least GEMM_WIDTH wide takes a block's
    rows, zero-padded to whole tiles, in one GEMM: mlp-wide's 784->256 and
    256->256. Every other weight makes one GEMM per R-row tile: 256->10,
    cnn-pool's 1352->10 and every small net's, whose rows would change bits
    in one GEMM of a block, and 2605->24 and 3907->16, whose rows change
    bits there when BLAS runs more than one thread."""
    rule = DenseRule(np.zeros((n_out, fan_in)), np.zeros(n_out))
    tiles = -(-rows // plan_module.R)
    with mock.patch.object(np, "matmul", wraps=np.matmul) as matmul:
        rule(np.zeros((rows, fan_in)))
    (x, _), _ = matmul.call_args
    stack = (1, tiles * plan_module.R) if (fan_in, n_out) in ONE_GEMM else (tiles, plan_module.R)
    assert x.shape == (*stack, fan_in)


@settings(max_examples=80, deadline=None)
@given(channels=st.integers(1, 12), n_out=st.integers(1, 12), kh=st.integers(1, 4),
       kw=st.integers(1, 4), stride=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       pad=st.tuples(st.integers(0, 2), st.integers(0, 2)), rows=st.integers(2, 10),
       spikes=st.booleans(), data=st.data())
def test_conv_frame_is_the_frame_alone(channels, n_out, kh, kw, stride, pad, rows, spikes,
                                       data):
    """Each frame of a block's conv2d product, at every position of the block
    and next to random or 0/1 frames, has the bits of that frame computed
    alone by the same rule: the premise that lets the plan, calibration and
    the walker agree exactly. It holds because numpy makes one BLAS call of
    one shape per frame, which needs the weight and the patch stack to be
    C-contiguous float64 (numpy's own loop takes any other layout)."""
    h = data.draw(st.integers(max(1, kh - 2 * pad[0]), 12), label="height")
    w = data.draw(st.integers(max(1, kw - 2 * pad[1]), 12), label="width")
    rng = make_rng(data.draw(st.integers(0, 2**16), label="seed"))
    rule = ConvRule(rng.normal(0, 1, (n_out, channels, kh, kw)).astype(np.float32),
                    rng.normal(0, 1, n_out), (channels, h, w), stride, pad)
    size = channels * h * w
    x = (rng.random((rows, size)) < 0.5).astype(np.float64) if spikes \
        else rng.normal(0, 1, (rows, size))
    stack = rule.patches(x)
    for a in (rule.w, stack):
        assert a.dtype == np.float64 and a.flags.c_contiguous
    assert stack.shape == (rows, channels * kh * kw, math.prod(rule.shape[1:]))
    patches, out = np.empty((rows, rule.table.size)), np.empty((rows, math.prod(rule.shape)))
    block = rule(x, patches, out)
    assert block is out
    for j in range(rows):
        np.testing.assert_array_equal(block[j], rule(x[j : j + 1])[0])
    np.testing.assert_array_equal(rule(x), block)


@pytest.mark.parametrize("shape,stride,pad", [
    ((8, 1, 3, 3, 28, 28), (1, 1), (0, 0)),   # the benchmark's cnn-pool
    ((4, 2, 3, 3, 8, 8), (1, 1), (0, 0)),
    ((16, 8, 3, 3, 12, 12), (2, 2), (1, 1)),
    ((3, 5, 2, 3, 7, 6), (2, 1), (0, 2)),
    ((6, 16, 4, 1, 9, 5), (3, 2), (2, 0)),
])
def test_conv_rule_is_the_taps_within_1e_12(shape, stride, pad):
    """The plan's conv2d rule, one GEMM per frame over im2col patches, is
    within 1e-12 of `model.conv2d`'s taps, the ANN reference."""
    o, c, kh, kw, h, w = shape
    rng = make_rng(sum(shape))
    weight, bias = rng.normal(0, 1, (o, c, kh, kw)), rng.normal(0, 1, o)
    x = rng.normal(0, 1, (5, c, h, w))
    rule = ConvRule(weight, bias, (c, h, w), stride, pad)
    got = rule(x.reshape(5, -1)).reshape(5, *rule.shape)
    np.testing.assert_allclose(got, conv2d(x, weight, bias, stride, pad), rtol=0, atol=1e-12)


def test_conv_rule_is_the_taps_on_the_padded_strided_net():
    """conftest's padded, strided CNN (stride 2, padding 1): its conv2d node's
    rule against `node_forward`, frame by frame, within 1e-12."""
    g = MODELS["bye_cnn"]()
    conv, in_shape = g.nodes["conv"], tuple(g.nodes[g.input_id].params["shape"])
    assert conv.params["stride"] == [2, 2] and conv.params["padding"] == [1, 1]
    rule = ConvRule.of(conv, in_shape)
    x = make_rng(4).normal(0, 1, (8, *in_shape))
    got = rule(x.reshape(8, -1)).reshape(8, *rule.shape)
    for frame, want in zip(x, got):
        np.testing.assert_allclose(want, node_forward(conv, [frame]), rtol=0, atol=1e-12)


def one_step_run(snn, X, T, encoder, seed):
    """run_batch one SnnInstance.step per step: history, spikes, states."""
    inst = SnnInstance(snn)
    inst.reset(len(X))
    inst.plan.codecs["encoder"] = make_input_encoder(
        snn, X, encoder, seed=[seed + 1000 * i for i in range(len(X))])
    history = np.concatenate([inst.step(1) for _ in range(T)])
    return history, inst


def assert_same_state(got, want):
    """Spike counts, decodes and u, v, y of every layer, bit for bit."""
    for nid, layer in want.layers.items():
        np.testing.assert_array_equal(got.spike_counts[nid], want.spike_counts[nid])
        np.testing.assert_array_equal(got.layer_decoded()[nid], want.layer_decoded()[nid])
        for name in ("u", "v", "y"):
            if hasattr(layer, name):
                np.testing.assert_array_equal(getattr(got.layers[nid], name),
                                              getattr(layer, name))


@settings(max_examples=60, deadline=None)
@given(
    config=configs,
    encoder=st.sampled_from(["float", "det", "stoch"]),
    items=st.integers(1, 16),
    T=st.integers(1, 24),
    block=st.integers(1, 24),
    seed=st.integers(0, 2**16),
)
def test_blocks_match_single_steps(config, encoder, items, T, block, seed):
    """Blocks of any length K, the last one short where K does not divide T,
    and run_batch with its own K, give what one step per call gives."""
    snn = converted(*config)
    X = input_for(snn, seed, items)
    want, alone = one_step_run(snn, X, T, encoder, seed)
    K = min(block, T)
    inst = SnnInstance(snn)
    inst.reset(items, K)
    inst.plan.codecs["encoder"] = make_input_encoder(
        snn, X, encoder, seed=[seed + 1000 * i for i in range(items)])
    got = []
    for t in range(0, T, K):
        got.extend(inst.step(min(K, T - t)))
    np.testing.assert_array_equal(np.stack(got), want)
    assert_same_state(inst, alone)
    # run_batch with a budget that makes K = block, often not dividing T
    with mock.patch.object(plan_module, "BLOCK_BYTES", block * 8 * items * inst.plan.block_width):
        assert inst.plan.block_steps(items, T) <= K
        hist, spikes = run_batch(snn, X, T, encoder=encoder, seed=seed, instance=inst)
    np.testing.assert_array_equal(hist, want)
    np.testing.assert_array_equal(spikes, sum(alone.spike_counts.values()))
    assert_same_state(inst, alone)


def step_by_step_probe(snn, x, T, encoder, seed):
    """The errors `probe` reports, read after each one-step call."""
    acts = ann_forward(snn.graph, x)
    inst = SnnInstance(snn)
    inst.plan.codecs["encoder"] = make_input_encoder(snn, x[None], encoder, seed=[seed])
    errors = {nid: np.empty(T) for nid in inst.layers}
    readout = np.empty(T)
    for t in range(T):
        r = inst.step(1)[0, 0]
        for nid, layer in inst.layers.items():
            errors[nid][t] = np.max(np.abs(layer.decoded[0] - acts[nid].reshape(-1)))
        readout[t] = np.max(np.abs(r - acts[snn.graph.output_id].reshape(-1)))
    return errors, readout


@settings(max_examples=30, deadline=None)
@given(config=configs, encoder=st.sampled_from(["float", "det", "stoch"]),
       T=st.integers(1, 80), seed=st.integers(0, 2**16))
def test_probe_observer_is_the_step_by_step_probe(config, encoder, T, seed):
    """probe reads each layer inside its block's K-loop, through the plan's
    observer: the errors of reading it after every one-step call."""
    snn = converted(*config)
    x = input_for(snn, seed)
    errors, readout = step_by_step_probe(snn, x, T, encoder, seed)
    rec = probe(snn, x, T, encoder=encoder, seed=seed)
    assert rec.layer_ids == list(errors)
    for nid, want in errors.items():
        np.testing.assert_array_equal(rec.errors[nid], want)
    np.testing.assert_array_equal(rec.readout_error, readout)


@pytest.mark.parametrize("model,family", CONFIGS)
@pytest.mark.parametrize("encoder", ["float", "stoch"])
def test_probe_scores_only_the_steps_it_is_given(model, family, encoder):
    """probe(times=S) is the every-step record at the steps of S, bit for
    bit: S the checkpoints `probe` writes, and a random subset given
    unsorted and with a repeat, which the record holds sorted, each step
    once."""
    snn = converted(model, family, "inv:1", "canonical")
    T, seed = 40, 7
    x = input_for(snn, seed)
    full = probe(snn, x, T, encoder=encoder, seed=seed)
    picked = make_rng(3).choice(np.arange(1, T + 1), 9, replace=False)
    for times in (_checkpoints(T), [*picked, picked[0]]):
        rec = probe(snn, x, T, encoder=encoder, seed=seed, times=times)
        want = np.unique(times)
        np.testing.assert_array_equal(rec.times, want)
        assert rec.layer_ids == full.layer_ids
        for nid in full.layer_ids:
            np.testing.assert_array_equal(rec.errors[nid], full.errors[nid][want - 1])
        np.testing.assert_array_equal(rec.readout_error, full.readout_error[want - 1])
        assert list(rec.rows()) == [r for r in full.rows() if r[1] in set(want.tolist())]


@pytest.mark.parametrize("times", [[0], [1, 11], [-3, 4], [2, 5, 12]])
def test_probe_times_outside_the_run_are_a_value_error(times):
    snn = converted("mlp", "signgd", "inv:1", "canonical")
    with pytest.raises(ValueError, match=r"1\.\.10"):
        probe(snn, input_for(snn, 0), 10, times=times)


@settings(max_examples=30, deadline=None)
@given(config=configs, encoder=st.sampled_from(["float", "det", "stoch"]),
       items=st.integers(1, 4), T=st.integers(1, 40), block=st.integers(1, 8),
       seed=st.integers(0, 2**16))
def test_every_block_is_seen_from_the_encoder_to_the_readout(config, encoder, items, T, block,
                                                             seed):
    """In every block of run_batch, the observer sees the input's encoder
    first, each op in plan order (a neuron layer after each of its steps),
    and the output's readout last: the whole step is the plan's."""
    snn = converted(*config)
    inst = SnnInstance(snn)
    g, seen = snn.graph, []
    with mock.patch.object(plan_module, "BLOCK_BYTES", block * 8 * items * inst.plan.block_width):
        K = inst.plan.block_steps(items, T)
        run_batch(snn, input_for(snn, seed, items), T, encoder=encoder, seed=seed, instance=inst,
                  observer=lambda nid, kind, k: seen.append((nid, kind, k)))
    ops = [(nid, kind) for nid, kind, _ in inst.plan.ops]
    assert ops[0] == (g.input_id, "encoder") and ops[-1] == (g.output_id, "readout")
    want = [(nid, kind, k) for t in range(0, T, K)
            for nid, kind in ops
            for k in (range(min(K, T - t)) if kind == "neuron" else [None])]
    assert seen == want


@pytest.mark.parametrize("model,family", CONFIGS)
def test_a_spent_instance_is_freed_without_the_collector(model, family):
    """Nothing an instance or its plan holds refers back to them, the ops,
    the installed encoder and readout included, so after a run_batch
    reference counting alone frees both, and the plan leaves its stores
    to the spare pool at once."""
    snn = converted(model, family, "inv:1", "canonical")
    inst = SnnInstance(snn)
    run_batch(snn, input_for(snn, 0, 3), 20, encoder="stoch", instance=inst)
    refs = [weakref.ref(inst), weakref.ref(inst.plan)]
    gc.disable()
    try:
        del inst
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


# the benchmark's networks: mlp-wide, cnn-pool and small-nets' layer-norm block
BENCH_NETS = {
    "mlp-wide": lambda: build_mlp(seed=1, dims=(784, 256, 256, 10)),
    "cnn-pool": lambda: build_cnn(seed=1, in_shape=(1, 28, 28), channels=8, n_out=10),
    "ln_block": lambda: build_layernorm_block(seed=1, n=10),
}


@pytest.mark.parametrize("net,width,batch,T,steps", [
    ("mlp-wide", 1296, 8, 64, 24),   # infer and energy: 192 rows, whole tiles
    ("mlp-wide", 1296, 1, 64, 64),   # probe
    ("cnn-pool", 16900, 2, 64, 7),   # infer and energy: no whole tile fits the budget
    ("cnn-pool", 16900, 1, 64, 15),  # probe
    ("ln_block", 41, 16, 64, 64),    # K = T
    ("ln_block", 41, 16, 8, 8),      # capped at T
])
def test_block_steps(net, width, batch, T, steps):
    """K is the most steps whose rows of the plan's stores, layer scratch
    included, fit BLOCK_BYTES (2 MiB), rounded down to whole R-row tiles
    where the budget allows, and at most T."""
    plan = Plan(calibrate(convert(BENCH_NETS[net](), "signgd", parse_schedule("inv:1"))).graph)
    assert plan.block_width == width
    assert plan.block_steps(batch, T) == steps


@settings(max_examples=40, deadline=None)
@given(config=configs, batch=st.integers(1, 16), T=st.integers(1, 80),
       seed=st.integers(0, 2**16))
def test_block_budget_counts_the_stores(config, batch, T, seed):
    """The budget counts what a block allocates: after run_batch's reset the
    plan's stores hold B K block_width doubles, within BLOCK_BYTES unless a
    single step exceeds it."""
    snn = converted(*config)
    inst = SnnInstance(snn)
    run_batch(snn, input_for(snn, seed, batch), T, instance=inst)
    plan = inst.plan
    K = plan.rows // batch
    assert (plan.batch, K) == (batch, plan.block_steps(batch, T))
    # the doubles of the distinct stores behind the slot buffers
    stored = sum({id(buf.base): buf.base.size for buf in plan._buffers}.values())
    assert stored == batch * K * plan.block_width
    if K > 1:
        assert stored <= plan_module.BLOCK_BYTES // 8


def test_spare_stores_stay_within_their_bound():
    """Plans of the benchmark's nets, built, sized at the CLI's batches and
    dropped, leave at most _SPARE_COUNT stores and 2 BLOCK_BYTES in the
    spare pool; cnn-pool at 16 items, one step per block, makes the byte
    bound bind. A plan sized again takes its stores from the pool."""
    graphs = {net: calibrate(convert(build(), "signgd", parse_schedule("inv:1"))).graph
              for net, build in BENCH_NETS.items()}
    for net, batch in [("ln_block", 16), ("ln_block", 1), ("mlp-wide", 8), ("mlp-wide", 1),
                       ("cnn-pool", 2), ("cnn-pool", 1), ("cnn-pool", 16)]:
        plan = Plan(graphs[net])
        plan.reset(batch, plan.block_steps(batch, 64))
        del plan
        gc.collect()
        spares = plan_module._spares
        assert 0 < len(spares) <= plan_module._SPARE_COUNT
        assert sum(store.nbytes for store in spares) <= 2 * plan_module.BLOCK_BYTES
    pooled = {id(store) for store in spares}
    plan = Plan(graphs["cnn-pool"])
    plan.reset(16, plan.block_steps(16, 64))
    assert {id(buf.base) for buf in plan._buffers} <= pooled


def test_the_bench_cnn_takes_no_copy_of_a_whole_slot():
    """The max-pool tournament's last stage holds the pooled values in
    (C, Ho, Wo) order, so `flat` reads the last max2 layer's slot."""
    plan = Plan(convert(BENCH_NETS["cnn-pool"](), "signgd", parse_schedule("inv:1")).graph)
    assert [kind for _, kind, _ in plan.ops] == [
        "encoder", "conv2d", "neuron", "neuron", "neuron", "dense", "readout"]


# the neuron layers whose operands all hold 0/1 spike rows: the max-pool
# tournament's stages, which bye_cnn's 3x3 windows feed through a take and a
# concat across slots from stage 1 on
SPIKE_FED = {"cnn": {"pool.s0.max", "pool.s1.max"},
             "bye_cnn": {"pool.s0.max", "pool.s1.max", "pool.s2.max", "pool.s3.max"},
             "cnn-pool": {"pool.s0.max", "pool.s1.max"}}
# the bench's nets by the shapes and families it runs them at
BENCH_FAMILIES = [("mlp-wide", "signgd"), ("cnn-pool", "signgd"), ("ln_block", "signgd"),
                  ("mlp_subgrad", "subgrad")]


def spike_fed_net(net):
    if net == "mlp_subgrad":
        return build_mlp(seed=1, dims=(8, 16, 16, 4))
    return (MODELS.get(net) or BENCH_NETS[net])()


@pytest.mark.parametrize("net,family", CONFIGS + BENCH_FAMILIES)
def test_spike_fed_layers(net, family):
    """`Plan.spike_fed` holds exactly the layers whose every operand slot
    holds spikes, and each of them, and no other layer, takes the
    spike-fed drive once the network runs."""
    inst = SnnInstance(convert(spike_fed_net(net), family, parse_schedule("inv:1")))
    want = SPIKE_FED.get(net, set())
    assert inst.plan.spike_fed == want
    assert {nid for nid, layer in inst.layers.items() if getattr(layer, "spike_fed", False)} == want


def test_an_encoder_fed_layer_is_not_spike_fed():
    """in -> relu -> dense -> out: the relu layer calibrates to W = 1 and
    b = 0, as a spike-fed layer does, but slot 0 holds the encoder's frames,
    which under the float encoder are not 0/1. The plan leaves the layer
    out, and its v after T steps is the four-pass reference's, bit for bit."""
    rng = make_rng(3)
    g = Graph([Node("in", "input", {"shape": [16]}), Node("act", "relu", {}),
               dense_node(rng, "fc", 16, 4), Node("out", "output", {})],
              chain_edges(["in", "act", "fc", "out"]))
    snn = calibrate(convert(g, "signgd", parse_schedule("inv:1")))
    plan = Plan(snn.graph)
    W, b = plan.calibration()[0]["act"]
    assert (W == 1.0).all() and (b == 0.0).all()
    assert plan.spike_fed == set()
    x, T = rng.normal(0, 1, 16), 64
    want = reference_run(snn, x, T, "float", 0)[3]["act"]["v"]
    inst = SnnInstance(snn)
    run(snn, x, T, encoder="float", instance=inst)
    got = inst.layers["act"].v[:, 0]  # (arity, n) of the one item
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


# ---------------------------------------------------------------------------
# Selections: a strided copy where a table has an affine form, else a take
# ---------------------------------------------------------------------------


def expand(form):
    """The flat table of an (offset, shape, strides) form."""
    offset, shape, strides = form
    table = np.full(shape, offset, dtype=np.int64)
    for axis, (n, s) in enumerate(zip(shape, strides)):
        table += (np.arange(n) * s).reshape((n,) + (1,) * (len(shape) - axis - 1))
    return table.reshape(-1)


def factorizations(n):
    """Every ordered tuple of factors >= 2 whose product is n."""
    if n == 1:
        yield ()
    for d in range(2, n + 1):
        if n % d == 0:
            for rest in factorizations(n // d):
                yield (d, *rest)


def has_affine_form(table):
    """Whether some shape and strides give `table`, by trying every shape."""
    t = np.asarray(table).reshape(-1)
    for shape in factorizations(t.size):
        inner = [math.prod(shape[k + 1:]) for k in range(len(shape))]
        strides = [int(t[i] - t[0]) if i < t.size else 0 for i in inner]
        if np.array_equal(expand((int(t[0]), shape, strides)), t):
            return True
    return False


affine_specs = st.lists(st.tuples(st.integers(1, 6), st.integers(-9, 9)), min_size=1,
                        max_size=4)


@settings(max_examples=300, deadline=None)
@given(spec=affine_specs, offset=st.integers(-20, 20))
def test_every_affine_table_round_trips(spec, offset):
    """Every affine table, with strides of 0 and negative ones, has a form,
    and the form gives the table back."""
    shape, strides = zip(*spec)
    table = expand((offset, shape, strides))
    form = plan_module.affine_form(table)
    assert form is not None
    np.testing.assert_array_equal(expand(form), table)


def test_an_empty_table_has_no_affine_form():
    assert plan_module.affine_form(np.array([], dtype=np.int64)) is None


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 48), kind=st.sampled_from(["permutation", "wrong"]))
def test_a_table_has_a_form_only_if_some_shape_gives_it(data, n, kind):
    """Permutations, and affine tables with one entry made wrong: the helper
    finds a form exactly when trying every shape finds one, and then the
    form is the table; a wrong entry inside a form with no level of 2 or
    fewer entries leaves no form at all."""
    if kind == "permutation":
        table = np.asarray(data.draw(st.permutations(range(n))), dtype=np.int64)
    else:
        shape = data.draw(st.sampled_from(list(factorizations(n))))
        strides = data.draw(st.lists(st.integers(-9, 9).filter(bool), min_size=len(shape),
                                     max_size=len(shape)))
        table = expand((data.draw(st.integers(0, 9)), shape, strides))
        table[data.draw(st.integers(0, n - 1))] += data.draw(st.integers(-5, 5).filter(bool))
    form = plan_module.affine_form(table)
    assert (form is not None) == has_affine_form(table)
    if form is not None:
        np.testing.assert_array_equal(expand(form), table)


@settings(max_examples=200, deadline=None)
@given(spec=affine_specs, rows=st.integers(1, 6), pad=st.integers(0, 5),
       seed=st.integers(0, 2**16))
def test_the_strided_copy_is_the_take(spec, rows, pad, seed):
    """A selection through its affine form copies, from random rows, the
    bits np.take gives, strides of 0 and negative ones included."""
    shape, strides = zip(*spec)
    table = expand((0, shape, strides))
    table -= table.min()
    width = int(table.max()) + 1 + pad
    x = make_rng(seed).normal(0, 1, (rows, width))
    select = plan_module._selection(table, plan_module.affine_form(table))
    out = np.full((rows, table.size), np.nan)
    np.testing.assert_array_equal(select(x, out), np.take(x, table, axis=1))


def compiled_selections(graph):
    """(table, form, select) of every selection the plan of `graph` compiles,
    in plan order."""
    made = []
    real = plan_module._selection

    def record(table, form):
        select = real(table, form)
        made.append((np.array(table), form, select))
        return select

    with mock.patch.object(plan_module, "_selection", record):
        Plan(graph)
    return made


# the selections that keep np.take, per net: layernorm's misr operands (20
# entries), bye_cnn's padded conv2d and its first stage's operands (16)
TAKES = {"layernorm": [20], "bye_cnn": [144, 16]}


@pytest.mark.parametrize("net", [*MODELS, "cnn-pool"])
def test_every_selection_is_its_take(net):
    """Each selection the plan compiles, a move's take, a neuron layer's
    operand table and a conv2d node's patch table, copies what np.take of
    its table gives on random rows; the tables without an affine form, and
    a padded conv2d's, keep np.take. An unpadded conv2d's form comes from
    its geometry; a padded one keeps its table and pad mask."""
    g = MODELS[net]() if net in MODELS else BENCH_NETS[net]()
    made = compiled_selections(convert(g, "signgd", parse_schedule("inv:1")).graph)
    assert [table.size for table, form, _ in made if form is None] == TAKES.get(net, [])
    rng = make_rng(5)
    for table, form, select in made:
        x = rng.normal(0, 1, (3, int(table.max()) + 1))
        out = np.full((3, table.size), np.nan)
        np.testing.assert_array_equal(select(x, out), np.take(x, table, axis=1))
        if form is not None:
            np.testing.assert_array_equal(expand(form), table)


def test_the_bench_cnn_copies_every_selection():
    """On the bench cnn the conv2d patches and both max-pool stages' operand
    tables take strided copies, with the forms these shapes give."""
    g = convert(BENCH_NETS["cnn-pool"](), "signgd", parse_schedule("inv:1")).graph
    made = compiled_selections(g)
    assert [form for _, form, _ in made] == [
        (0, (1, 3, 3, 26, 26), (784, 28, 1, 28, 1)),
        (0, (2, 104, 26), (26, 52, 1)),
        (0, (2, 1352), (1, 2)),
    ]


def test_a_padded_conv_keeps_its_take():
    """bye_cnn's padded, strided conv2d takes its table and zeroes the
    padding through its mask: its patches are np.take of the table with
    every padding entry 0."""
    rule = ConvRule.of(MODELS["bye_cnn"]().nodes["conv"], (1, 7, 7))
    assert rule.pad is not None and rule.pad.any()
    x = make_rng(2).normal(0, 1, (4, 49))
    want = np.where(rule.pad, 0.0, np.take(x, rule.table, axis=1))
    np.testing.assert_array_equal(rule.patches(x).reshape(4, -1), want)


# ---------------------------------------------------------------------------
# What a run computes: each read on and off
# ---------------------------------------------------------------------------


READ_SETS = [frozenset(r) for k in range(4) for r in itertools.combinations(sorted(READS), k)]


@pytest.mark.parametrize("config", CONFIGS, ids=[f"{m}-{f}" for m, f in CONFIGS])
@pytest.mark.parametrize("encoder", ["float", "stoch"])
def test_what_is_computed_does_not_depend_on_what_else_is(config, encoder):
    """Every subset of READS gives the readouts, spike counts and decodes
    that computing everything gives, bit for bit, in blocks of 4 steps over
    T = 13; what it leaves out is None, or raises when read."""
    snn = converted(*config, "inv:1", "canonical")
    X, T = input_for(snn, 3, 3), 13
    full = SnnInstance(snn)
    budget = 4 * 8 * len(X) * full.plan.block_width
    with mock.patch.object(plan_module, "BLOCK_BYTES", budget):
        assert full.plan.block_steps(len(X), T) == 4
        want_hist, want_spikes = run_batch(snn, X, T, encoder=encoder, seed=2, instance=full)
        for reads in READ_SETS:
            inst = SnnInstance(snn, reads=reads)
            hist, spikes = run_batch(snn, X, T, encoder=encoder, seed=2, instance=inst)
            if "readout" in reads:
                np.testing.assert_array_equal(hist, want_hist)
            else:
                assert hist is None
            if "spikes" in reads:
                np.testing.assert_array_equal(spikes, want_spikes)
                for nid, count in full.spike_counts.items():
                    np.testing.assert_array_equal(inst.spike_counts[nid], count)
            else:
                assert spikes is None
                with pytest.raises(RuntimeError, match="spikes"):
                    inst.spike_counts
            if "decoded" in reads:
                for nid, dec in full.layer_decoded().items():
                    np.testing.assert_array_equal(inst.layer_decoded()[nid], dec)
            else:
                with pytest.raises(RuntimeError, match="decoded"):
                    inst.layer_decoded()


@pytest.mark.parametrize("model,family", [("mlp", "subgrad"), ("add_concat", "subgrad")])
def test_a_subgrad_layer_that_does_not_decode_keeps_no_y(model, family):
    """Without "decoded" a subgradient layer leaves y as reset left it, and
    reading its decode raises instead of giving that stale y."""
    snn = converted(model, family, "inv:1", "canonical")
    inst = SnnInstance(snn, reads={"readout", "spikes"})
    run_batch(snn, input_for(snn, 1, 2), 9, instance=inst)
    for layer in inst.layers.values():
        assert not layer.y.any()
        with pytest.raises(RuntimeError, match="decoded"):
            layer.decoded


@pytest.mark.parametrize("model", ["mlp", "cnn", "layernorm", "add_concat"])
def test_without_the_readout_no_op_that_only_feeds_it_runs(model):
    """Without "readout" the plan runs every neuron layer and what feeds
    them, and neither the readout nor the linear ops only the readout reads
    (the last dense of each net, and add_concat's concat before it)."""
    snn = converted(model, "signgd", "inv:1", "canonical")
    full = [(nid, kind) for nid, kind, _ in SnnInstance(snn).plan.ops]
    kept = [(nid, kind) for nid, kind, _ in SnnInstance(snn, reads={"spikes"}).plan.ops]
    g = snn.graph
    last = {"mlp": ["fc1"], "cnn": ["fc"], "layernorm": ["fc1"], "add_concat": ["cat", "head"]}[model]
    assert kept == [op for op in full if op[0] not in [*last, g.output_id]]


def test_a_network_with_no_neuron_layer_runs_with_any_reads():
    """in -> dense -> out converts to a network with no neuron layer: with
    or without the readout it runs, with no spikes to count."""
    rng = make_rng(4)
    g = Graph([Node("in", "input", {"shape": [5]}), dense_node(rng, "fc", 5, 3),
               Node("out", "output", {})], chain_edges(["in", "fc", "out"]))
    snn = convert(g, "signgd", parse_schedule("inv:1"))
    X = input_for(snn, 0, 2)
    want, _ = run_batch(snn, X, 6)
    for reads in READ_SETS:
        inst = SnnInstance(snn, reads=reads)
        hist, spikes = run_batch(snn, X, 6, instance=inst)
        if "readout" in reads:
            np.testing.assert_array_equal(hist, want)
        if "spikes" in reads:
            np.testing.assert_array_equal(spikes, [0, 0])


def test_unknown_reads_are_a_value_error():
    with pytest.raises(ValueError, match="unknown reads"):
        SnnInstance(converted("mlp", "signgd", "inv:1", "canonical"), reads={"spike"})
