"""Operator-graph model for small feed-forward networks.

A graph is a DAG of operator nodes with exactly one `input` and one `output`
node. Edges are (producer, consumer, port) triples; multi-operand nodes (add,
concat, max2, mul_inv_sqrt, two-port neuron layers) receive one edge per port.

Tensor parameters are stored as float32 arrays (the storage format), all
arithmetic runs in float64. Structural parameters (strides, index lists,
shapes) are plain Python values.

Beyond the source-model kinds (dense, conv2d, pooling, norms, activations),
the conversion transforms introduce structural kinds: `affine` (explicit
matrix on a flattened vector), `gather` (flat index selection), `concat`,
`reshape`, the decomposed nonlinearities `max2`, `square`, `mul_inv_sqrt`,
and `neuron` layers inside converted graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..oracles import gelu_sigmoid

__all__ = [
    "Node",
    "Graph",
    "GraphError",
    "DagViolationError",
    "ShapeMismatchError",
    "UnknownOperatorError",
    "node_forward",
    "conv2d",
    "infer_shapes",
    "run_forward",
]


class GraphError(ValueError):
    """Malformed graph structure or parameters."""


class DagViolationError(GraphError):
    """Cycle detected, or input/output nodes are not unique."""


class ShapeMismatchError(GraphError):
    """Node input shapes are inconsistent with its parameters."""


class UnknownOperatorError(GraphError):
    """Operator kind not supported by this runtime."""


KINDS = {
    "input", "output", "dense", "conv2d", "avgpool2d", "maxpool2d",
    "batchnorm", "layernorm", "relu", "leaky_relu", "gelu", "add",
    "flatten", "transpose", "reshape", "affine", "gather", "concat",
    "max2", "square", "mul_inv_sqrt", "neuron",
}

# model parameters are float32 storage; calibration records (cal_w, cal_b)
# stay float64 in memory so spike-to-sign translation adds no rounding
_TENSOR_PARAMS = {"weight", "bias", "gamma", "beta", "mean", "var"}


@dataclass
class Node:
    id: str
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UnknownOperatorError(f"unknown operator kind {self.kind!r} (node {self.id!r})")
        for key in list(self.params):
            if key in _TENSOR_PARAMS and self.params[key] is not None:
                self.params[key] = np.asarray(self.params[key], dtype=np.float32)

    def tensor(self, key: str) -> np.ndarray:
        """Parameter as float64 for arithmetic."""
        return np.asarray(self.params[key], dtype=np.float64)


def _n_ports(node: Node, n_edges: int) -> int:
    """Input ports a node takes: 0..n-1, given its number of input edges."""
    if node.kind == "input":
        return 0
    if node.kind in ("add", "concat"):
        return n_edges
    if node.kind in ("max2", "mul_inv_sqrt"):
        return 2
    if node.kind == "neuron":
        return node.params.get("arity", 1)
    return 1


class Graph:
    """Ordered node list plus (src, dst, port) edges."""

    def __init__(self, nodes: list[Node], edges: list[tuple[str, str, int]]):
        self.nodes = {n.id: n for n in nodes}
        if len(self.nodes) != len(nodes):
            raise GraphError("duplicate node ids")
        self.edges = [(s, d, int(p)) for s, d, p in edges]
        for s, d, _ in self.edges:
            if s not in self.nodes or d not in self.nodes:
                raise GraphError(f"edge references unknown node: {(s, d)}")
        self._validate()

    def _validate(self):
        inputs = [n for n in self.nodes.values() if n.kind == "input"]
        outputs = [n for n in self.nodes.values() if n.kind == "output"]
        if len(inputs) != 1 or len(outputs) != 1:
            raise DagViolationError(
                f"need exactly one input and one output node, got {len(inputs)}/{len(outputs)}"
            )
        self.input_id = inputs[0].id
        self.output_id = outputs[0].id
        self._topo = self._topo_sort()
        ports: dict[str, list[int]] = {i: [] for i in self.nodes}
        for _, d, p in self.edges:
            ports[d].append(p)
        for nid, node in self.nodes.items():
            got = sorted(ports[nid])
            if not got and node.kind != "input":
                raise GraphError(f"node {nid!r} ({node.kind}) has no inputs")
            want = list(range(_n_ports(node, len(got))))
            if got != want:
                raise GraphError(
                    f"node {nid!r} ({node.kind}) takes input ports {want}, got {got}")

    def _topo_sort(self) -> list[str]:
        indeg = {i: 0 for i in self.nodes}
        for _, d, _ in self.edges:
            indeg[d] += 1
        ready = sorted(i for i, k in indeg.items() if k == 0)
        order = []
        succ: dict[str, list[str]] = {i: [] for i in self.nodes}
        for s, d, _ in self.edges:
            succ[s].append(d)
        while ready:
            i = ready.pop()
            order.append(i)
            for d in succ[i]:
                indeg[d] -= 1
                if indeg[d] == 0:
                    ready.append(d)
        if len(order) != len(self.nodes):
            raise DagViolationError("graph contains a cycle")
        return order

    @property
    def topo_order(self) -> list[str]:
        return list(self._topo)

    def predecessors(self, node_id: str) -> list[tuple[str, int]]:
        """(producer, port) pairs sorted by port."""
        return sorted(((s, p) for s, d, p in self.edges if d == node_id), key=lambda e: e[1])

    def successors(self, node_id: str) -> list[str]:
        return [d for s, d, _ in self.edges if s == node_id]

    def inputs_of(self, node_id: str) -> list[str]:
        return [s for s, _ in self.predecessors(node_id)]

    def copy(self) -> "Graph":
        nodes = [Node(n.id, n.kind, dict(n.params)) for n in (self.nodes[i] for i in self._topo)]
        return Graph(nodes, list(self.edges))

    def census(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for n in self.nodes.values():
            key = n.kind if n.kind != "neuron" else f"neuron:{n.params['mech']}"
            out[key] = out.get(key, 0) + 1
        return out


def _pool_geometry(shape, kernel, stride):
    c, h, w = shape
    kh, kw = kernel
    sh, sw = stride
    ho = (h - kh) // sh + 1
    wo = (w - kw) // sw + 1
    if ho < 1 or wo < 1:
        raise ShapeMismatchError(f"pooling window {kernel} too large for input {shape}")
    return c, ho, wo


def node_forward(node: Node, inputs: list[np.ndarray]) -> np.ndarray:
    """Reference real-arithmetic semantics of one node.

    `inputs` are float64 arrays ordered by port. Linear kinds double as the
    per-step frame map during SNN execution.
    """
    k = node.kind
    p = node.params
    if k in ("input", "output"):
        return inputs[0] if inputs else None
    if k == "dense":
        w, b = node.tensor("weight"), node.tensor("bias")
        x = inputs[0].reshape(-1)
        if x.shape[0] != w.shape[1]:
            raise ShapeMismatchError(
                f"dense {node.id!r}: weight expects {w.shape[1]} inputs, got {x.shape[0]}"
            )
        return w @ x + b
    if k == "affine":
        w, b = node.tensor("weight"), node.tensor("bias")
        return w @ inputs[0].reshape(-1) + b
    if k == "conv2d":
        w, x = node.tensor("weight"), inputs[0]
        if x.ndim != 3 or x.shape[0] != w.shape[1]:
            raise ShapeMismatchError(
                f"conv2d {node.id!r}: expected ({w.shape[1]}, H, W) input, got {x.shape}"
            )
        return conv2d(x, w, node.tensor("bias"), p.get("stride", (1, 1)),
                      p.get("padding", (0, 0)))
    if k == "avgpool2d":
        return _pool(node, inputs[0], np.mean)
    if k == "maxpool2d":
        return _pool(node, inputs[0], np.max)
    if k == "batchnorm":
        x = inputs[0]
        g, b = node.tensor("gamma"), node.tensor("beta")
        m, v = node.tensor("mean"), node.tensor("var")
        scale = g / np.sqrt(v + p["eps"])
        if x.ndim == 3:  # (C, H, W): per-channel statistics
            return (x - m[:, None, None]) * scale[:, None, None] + b[:, None, None]
        return (x - m) * scale + b
    if k == "layernorm":
        x = inputs[0]
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        xhat = (x - mu) / np.sqrt(var + p["eps"])
        return xhat * node.tensor("gamma") + node.tensor("beta")
    if k == "relu":
        return np.maximum(inputs[0], 0.0)
    if k == "leaky_relu":
        x = inputs[0]
        return np.where(x >= 0, x, p["delta"] * x)
    if k == "gelu":
        return gelu_sigmoid(inputs[0])
    if k == "add":
        out = inputs[0]
        for x in inputs[1:]:
            out = out + x
        return out
    if k == "flatten":
        return inputs[0].reshape(-1)
    if k == "reshape":
        return inputs[0].reshape(tuple(p["shape"]))
    if k == "transpose":
        return np.transpose(inputs[0], p["perm"])
    if k == "gather":
        return inputs[0].reshape(-1)[np.asarray(p["indices"], dtype=np.intp)]
    if k == "concat":
        return np.concatenate([x.reshape(-1) for x in inputs])
    if k == "max2":
        return np.maximum(inputs[0], inputs[1])
    if k == "square":
        return inputs[0] ** 2
    if k == "mul_inv_sqrt":
        x1 = inputs[0].reshape(-1)
        x2 = np.broadcast_to(inputs[1].reshape(-1), x1.shape)
        return x1 / np.sqrt(x2)
    if k == "neuron":
        return _neuron_reference(node, inputs)
    raise UnknownOperatorError(f"no forward rule for kind {k!r}")


# firing mechanism -> the source kind whose forward rule is its ANN semantics
_MECH_SOURCE = {"relu": "relu", "leaky": "leaky_relu", "gelu": "gelu", "square": "square",
                "max2": "max2", "misr": "mul_inv_sqrt"}


def _neuron_reference(node: Node, inputs: list[np.ndarray]) -> np.ndarray:
    """ANN semantics of a converted neuron layer (its target nonlinearity)."""
    mech = node.params["mech"]
    parts = mech.split(":") if mech.startswith("signgd:") else ["", "relu"]
    if parts[1] not in _MECH_SOURCE:
        raise UnknownOperatorError(f"no reference semantics for mechanism {mech!r}")
    params = {"delta": float(parts[2])} if parts[1] == "leaky" else {}
    source = Node(node.id, _MECH_SOURCE[parts[1]], params)
    return node_forward(source, [x.reshape(-1) for x in inputs]).reshape(node.params["shape"])


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride=(1, 1),
           padding=(0, 0)) -> np.ndarray:
    """Cross-correlate a (C, H, W) input with (O, C, kh, kw) weights, plus bias.

    Taps accumulate in dy, dx order; each is the matrix product that
    np.tensordot(w[:, :, dy, dx], patch, axes=(1, 0)) computes.
    """
    (sh, sw), (ph, pw) = stride, padding
    if ph or pw:
        x = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    o, c, kh, kw = w.shape
    _, ho, wo = _pool_geometry(x.shape, (kh, kw), (sh, sw))
    out = np.zeros((o, ho * wo))
    for dy in range(kh):
        for dx in range(kw):
            patch = x[:, dy : dy + ho * sh : sh, dx : dx + wo * sw : sw]
            out += np.dot(w[:, :, dy, dx], patch.reshape(c, ho * wo))
    return (out + b[:, None]).reshape(o, ho, wo)


def _pool(node: Node, x: np.ndarray, reducer) -> np.ndarray:
    kh, kw = node.params["kernel"]
    sh, sw = node.params.get("stride", node.params["kernel"])
    c, ho, wo = _pool_geometry(x.shape, (kh, kw), (sh, sw))
    out = np.empty((c, ho, wo))
    for i in range(ho):
        for j in range(wo):
            out[:, i, j] = reducer(
                x[:, i * sh : i * sh + kh, j * sw : j * sw + kw], axis=(1, 2)
            )
    return out


def infer_shapes(g: Graph) -> dict[str, tuple]:
    """Every node's output shape: the shapes of `run_forward` on a ones input
    (values are not read, so numeric warnings are silenced)."""
    x = np.ones(tuple(g.nodes[g.input_id].params["shape"]))
    with np.errstate(all="ignore"):
        return {nid: np.shape(a) for nid, a in run_forward(g, x).items()}


def run_forward(g: Graph, x: np.ndarray) -> dict[str, np.ndarray]:
    """Real-arithmetic forward pass; returns every node's activation.

    Converted neuron layers evaluate their reference nonlinearity, so the
    same driver scores source models, transformed models, and SNN graphs.
    """
    x = np.asarray(x, dtype=np.float64)
    acts: dict[str, np.ndarray] = {}
    for nid in g.topo_order:
        node = g.nodes[nid]
        if node.kind == "input":
            want = tuple(node.params["shape"])
            if x.shape != want:
                raise ShapeMismatchError(f"input shape {x.shape} != declared {want}")
            acts[nid] = x
            continue
        inputs = [acts[s] for s, _ in g.predecessors(nid)]
        acts[nid] = node_forward(node, inputs)
    return acts
