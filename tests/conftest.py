"""Shared model builders for the graph/engine/CLI/acceptance tests."""

import numpy as np
import pytest

from spikeopt.codec import make_rng
from spikeopt.graph import Graph, Node


def chain_edges(ids):
    return [(a, b, 0) for a, b in zip(ids, ids[1:])]


def dense_node(rng, nid, n_in, n_out, scale=None):
    scale = scale if scale is not None else 1.0 / np.sqrt(n_in)
    return Node(nid, "dense", {
        "weight": rng.normal(0, scale, (n_out, n_in)),
        "bias": rng.normal(0, 0.1, n_out),
    })


def build_mlp(seed=0, dims=(8, 16, 4), act="relu", act_params=None):
    """input -> dense -> act -> dense -> ... -> output."""
    rng = make_rng(seed)
    nodes = [Node("in", "input", {"shape": [dims[0]]})]
    ids = ["in"]
    for k in range(len(dims) - 1):
        nid = f"fc{k}"
        nodes.append(dense_node(rng, nid, dims[k], dims[k + 1]))
        ids.append(nid)
        if k < len(dims) - 2:
            aid = f"act{k}"
            nodes.append(Node(aid, act, dict(act_params or {})))
            ids.append(aid)
    nodes.append(Node("out", "output", {}))
    ids.append("out")
    return Graph(nodes, chain_edges(ids))


def build_cnn(seed=0, in_shape=(1, 8, 8), channels=4, kernel=3, pool=2, n_out=4):
    rng = make_rng(seed)
    c, h, w = in_shape
    hc = h - kernel + 1
    hp = hc // pool
    flat = channels * hp * hp
    nodes = [
        Node("in", "input", {"shape": list(in_shape)}),
        Node("conv", "conv2d", {
            "weight": rng.normal(0, 1.0 / np.sqrt(c * kernel * kernel),
                                 (channels, c, kernel, kernel)),
            "bias": rng.normal(0, 0.1, channels),
            "stride": [1, 1], "padding": [0, 0],
        }),
        Node("act", "relu", {}),
        Node("pool", "maxpool2d", {"kernel": [pool, pool], "stride": [pool, pool]}),
        Node("flat", "flatten", {}),
        dense_node(rng, "fc", flat, n_out),
        Node("out", "output", {}),
    ]
    return Graph(nodes, chain_edges(["in", "conv", "act", "pool", "flat", "fc", "out"]))


def build_layernorm_block(seed=0, n=10, n_out=4):
    rng = make_rng(seed)
    nodes = [
        Node("in", "input", {"shape": [n]}),
        dense_node(rng, "fc0", n, n),
        Node("ln", "layernorm", {
            "gamma": rng.uniform(0.5, 1.5, n), "beta": rng.normal(0, 0.2, n),
            "eps": 1e-5,
        }),
        Node("act", "gelu", {}),
        dense_node(rng, "fc1", n, n_out),
        Node("out", "output", {}),
    ]
    return Graph(nodes, chain_edges(["in", "fc0", "ln", "act", "fc1", "out"]))


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


def build_bn_mlp(seed=0):
    """in -> fc0 -> batchnorm -> relu -> fc1 -> out; convert folds the batch norm."""
    rng = make_rng(seed)
    nodes = [
        Node("in", "input", {"shape": [8]}),
        dense_node(rng, "fc0", 8, 12),
        Node("bn", "batchnorm", {
            "gamma": rng.uniform(0.5, 1.5, 12), "beta": rng.normal(0, 0.2, 12),
            "mean": rng.normal(0, 0.2, 12), "var": rng.uniform(0.5, 2, 12), "eps": 1e-5,
        }),
        Node("act", "relu", {}),
        dense_node(rng, "fc1", 12, 4),
        Node("out", "output", {}),
    ]
    return Graph(nodes, chain_edges(["in", "fc0", "bn", "act", "fc1", "out"]))


MODELS = {
    "mlp": lambda: build_mlp(seed=5, dims=(8, 16, 4)),
    "leaky": lambda: build_mlp(seed=10, dims=(8, 16, 4), act="leaky_relu",
                               act_params={"delta": 0.2}),
    "bn_mlp": lambda: build_bn_mlp(seed=11),
    "cnn": lambda: build_cnn(seed=6),
    "layernorm": lambda: build_layernorm_block(seed=7, n=10),
    "add_concat": lambda: build_add_concat(seed=8),
    "bye_cnn": lambda: build_padded_bye_cnn(seed=9),
}
# (model, family) pairs; the subgrad family converts ReLU-only graphs
CONFIGS = [(m, "signgd") for m in MODELS] + [
    ("mlp", "subgrad"), ("add_concat", "subgrad"), ("bn_mlp", "subgrad")]


@pytest.fixture
def rng():
    return make_rng(1234)
