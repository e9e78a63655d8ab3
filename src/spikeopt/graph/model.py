"""Operator-graph model for small feed-forward networks.

A graph is a DAG of operator nodes with exactly one `input` and one `output`
node. Edges are (producer, consumer, port) triples; multi-operand nodes (add,
concat, max2, mul_inv_sqrt, two-port neuron layers) receive one edge per port.

Tensor parameters are stored as float32 arrays (the storage format), all
arithmetic runs in float64. A `gather`'s indices are held as a flat intp
array; other structural parameters (strides, shapes) are plain Python values.

Beyond the source-model kinds (dense, conv2d, pooling, norms, activations),
the conversion transforms introduce structural kinds: `affine` (explicit
matrix on a flattened vector), `gather` (flat index selection), `concat`,
`reshape`, the decomposed nonlinearities `max2`, `square`, `mul_inv_sqrt`,
and `neuron` layers inside converted graphs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from ..neurons import MECHANISMS, FiringMechanism, parse_mechanism
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
    "leaky_slope",
    "linear_shape",
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

# model parameters are float32 storage; the spike-to-sign calibration is
# computed from them in float64 by every instance (`transforms.calibration`),
# and the cal_w/cal_b records files carry are not read
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
        return _mechanism(node)[0]
    return 1


def _required(kind: str) -> tuple:
    """The params the rules of an operator of `kind` read that have no default."""
    return {
        "input": ("shape",), "reshape": ("shape",), "gather": ("indices",),
        "transpose": ("perm",), "maxpool2d": ("kernel",), "avgpool2d": ("kernel",),
        "dense": ("weight", "bias"), "affine": ("weight", "bias"),
        "conv2d": ("weight", "bias"), "layernorm": ("gamma", "beta", "eps"),
        "batchnorm": ("gamma", "beta", "mean", "var", "eps"),
    }.get(kind, ())


def leaky_slope(node: Node) -> float:
    """The negative slope of a leaky_relu node: its `delta` param, or the
    default of `FiringMechanism`, the neuron that replaces it."""
    return node.params.get("delta", FiringMechanism.delta)


def _mechanism(node: Node) -> tuple[int, Node]:
    """A neuron node's operand count and the source node whose forward rule is
    its ANN semantics, both from its `mech` (a subgrad layer computes ReLU)."""
    mech = node.params.get("mech")
    try:
        m = parse_mechanism("relu" if mech == "subgrad" else mech)
    except AttributeError:
        raise UnknownOperatorError(f"node {node.id!r} has unknown mechanism {mech!r}") from None
    except ValueError as exc:
        raise UnknownOperatorError(f"node {node.id!r} has mechanism {mech!r}: {exc}") from None
    arity, kind = MECHANISMS[m.kind]
    return arity, Node(node.id, kind, {"delta": m.delta})


def _flat_indices(node: Node) -> np.ndarray:
    """A gather node's indices as a flat intp array, or a GraphError naming
    the node if they are not a flat sequence of integers (a bool is not one,
    though numpy would read it as 0 or 1)."""
    idx = node.params["indices"]
    if isinstance(idx, np.ndarray):
        ok = idx.ndim == 1 and idx.dtype.kind in "iu"
    else:  # one C-level pass collects the element types
        ok = isinstance(idx, (list, tuple)) and all(
            issubclass(t, (int, np.integer)) and t is not bool for t in set(map(type, idx)))
    if ok:
        try:
            return np.asarray(idx, dtype=np.intp)
        except OverflowError:  # an int past the intp range
            pass
    raise GraphError(f"node {node.id!r} (gather) has indices that are not a flat list of integers")


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
            for key in _required(node.kind):
                if node.params.get(key) is None:
                    raise GraphError(f"node {nid!r} ({node.kind}) lacks its {key!r} param")
            got = sorted(ports[nid])
            if not got and node.kind != "input":
                raise GraphError(f"node {nid!r} ({node.kind}) has no inputs")
            want = list(range(_n_ports(node, len(got))))
            if got != want:
                raise GraphError(
                    f"node {nid!r} ({node.kind}) takes input ports {want}, got {got}")
            count, shape = node.params.get("count"), node.params.get("shape")
            if node.kind == "neuron" and not (
                    isinstance(count, (int, np.integer)) and count == np.prod(shape)):
                raise GraphError(f"node {nid!r} (neuron) has count {count!r} but shape {shape!r}")
            delta = leaky_slope(node)
            if node.kind == "leaky_relu" and not (
                    isinstance(delta, numbers.Real) and math.isfinite(delta)):
                raise GraphError(f"node {nid!r} (leaky_relu) has slope {delta!r}, not a finite number")
            if node.kind == "gather":  # converted once, so no reader converts the list again
                node.params["indices"] = _flat_indices(node)

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

    def walk(self, visit) -> dict:
        """Each node's value, `visit(node, its inputs' values in port order)`,
        visited in topological order."""
        values: dict = {}
        for nid in self._topo:
            values[nid] = visit(self.nodes[nid], [values[s] for s, _ in self.predecessors(nid)])
        return values

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


def _pool_geometry(shape, kernel, stride, name="pooling"):
    """The (C, Ho, Wo) of a `kernel` window slid by `stride` over a (C, H, W)
    frame of `shape`; errors begin with `name`."""
    if len(shape) != 3:
        raise ShapeMismatchError(f"{name}: expected a (C, H, W) input, got {tuple(shape)}")
    c, h, w = shape
    kh, kw = kernel
    sh, sw = stride
    ho = (h - kh) // sh + 1
    wo = (w - kw) // sw + 1
    if ho < 1 or wo < 1:
        raise ShapeMismatchError(f"{name}: window {tuple(kernel)} too large for input "
                                 f"{tuple(shape)}")
    return c, ho, wo


def _pool_shape(node: Node, shape) -> tuple:
    """The shape a pooling node gives a frame of `shape`."""
    kernel = node.params["kernel"]
    return _pool_geometry(shape, kernel, node.params.get("stride", kernel),
                          f"{node.kind} {node.id!r}")


def node_forward(node: Node, inputs: list[np.ndarray]) -> np.ndarray:
    """Reference real-arithmetic semantics of one node.

    `inputs` are float64 arrays ordered by port. The step plan runs the
    element moves on index arrays to compose its selections, and each of
    its batched ops computes, item by item, what this rule computes.
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
        return conv2d(x[None], w, node.tensor("bias"), p.get("stride", (1, 1)),
                      p.get("padding", (0, 0)))[0]
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
        return np.where(x >= 0, x, leaky_slope(node) * x)
    if k == "gelu":
        return gelu_sigmoid(inputs[0])
    if k == "add":
        out = inputs[0]
        for x in inputs[1:]:
            out = out + x
        return out
    if k == "flatten":
        return inputs[0].reshape(-1)
    if k in ("reshape", "transpose"):
        x, key = inputs[0], "shape" if k == "reshape" else "perm"
        try:
            return x.reshape(tuple(p[key])) if k == "reshape" else np.transpose(x, p[key])
        except (TypeError, ValueError):  # a size or axes that do not fit
            raise ShapeMismatchError(f"{k} {node.id!r}: {key} {p[key]!r} does not fit its "
                                     f"input of shape {x.shape}") from None
    if k == "gather":
        x, idx = inputs[0].reshape(-1), np.asarray(p["indices"], dtype=np.intp)
        outside = (idx < 0) | (idx >= x.size)
        if outside.any():
            raise ShapeMismatchError(f"gather {node.id!r}: index {idx[outside][0]} is outside "
                                     f"its input of {x.size} values")
        return x[idx]
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


def _neuron_reference(node: Node, inputs: list[np.ndarray]) -> np.ndarray:
    """ANN semantics of a converted neuron layer (its target nonlinearity)."""
    source = _mechanism(node)[1]
    return node_forward(source, [x.reshape(-1) for x in inputs]).reshape(node.params["shape"])


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride=(1, 1),
           padding=(0, 0), out=None) -> np.ndarray:
    """Cross-correlate (B, C, H, W) inputs with (O, C, kh, kw) weights, plus bias,
    into `out` (any array of B O Ho Wo doubles in C order) if given.

    Taps accumulate in dy, dx order; each is, item by item, the matrix product
    that np.tensordot(w[:, :, dy, dx], patch, axes=(1, 0)) computes. One
    product over all items' patches side by side is faster but not bitwise
    equal: BLAS may sum over C in another order for a wider matrix.
    """
    (sh, sw), (ph, pw) = stride, padding
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    o, c, kh, kw = w.shape
    _, ho, wo = _pool_geometry(x.shape[1:], (kh, kw), (sh, sw))
    if out is None:
        out = np.zeros((len(x), o, ho * wo))
    else:
        out = out.reshape(len(x), o, ho * wo)
        out[...] = 0.0
    for item, acc in zip(x, out):
        for dy in range(kh):
            for dx in range(kw):
                patch = item[:, dy : dy + ho * sh : sh, dx : dx + wo * sw : sw]
                acc += np.dot(w[:, :, dy, dx], patch.reshape(c, ho * wo))
    return np.add(out, b[:, None], out=out).reshape(len(x), o, ho, wo)


def _pool(node: Node, x: np.ndarray, reducer) -> np.ndarray:
    c, ho, wo = _pool_shape(node, x.shape)
    kh, kw = node.params["kernel"]
    sh, sw = node.params.get("stride", node.params["kernel"])
    out = np.empty((c, ho, wo))
    for i in range(ho):
        for j in range(wo):
            out[:, i, j] = reducer(
                x[:, i * sh : i * sh + kh, j * sw : j * sw + kw], axis=(1, 2)
            )
    return out


def linear_shape(node: Node, shapes: list[tuple]) -> tuple:
    """The shape `node_forward` gives a dense, affine, conv2d, concat or add
    node fed frames of `shapes`, by shape arithmetic alone."""
    k, p = node.kind, node.params
    if k in ("dense", "affine"):
        w, b = np.shape(p["weight"]), np.shape(p["bias"])
        if len(w) != 2 or math.prod(shapes[0]) != w[1]:
            raise ShapeMismatchError(f"{k} {node.id!r}: weight of shape {w} expects "
                                     f"{w[-1]} inputs, got {math.prod(shapes[0])}")
        shapes = [(w[0],), b]  # the product's and the bias's
    elif k == "conv2d":
        o, c, kh, kw = np.shape(p["weight"])
        (ph, pw), x = p.get("padding", (0, 0)), shapes[0]
        if len(x) != 3 or x[0] != c:
            raise ShapeMismatchError(f"conv2d {node.id!r}: expected ({c}, H, W) input, "
                                     f"got {x}")
        _, ho, wo = _pool_geometry((c, x[1] + 2 * ph, x[2] + 2 * pw), (kh, kw),
                                   p.get("stride", (1, 1)), f"conv2d {node.id!r}")
        return (o, ho, wo)
    elif k == "concat":
        return (sum(math.prod(sh) for sh in shapes),)
    try:  # numpy broadcasts the terms of a sum
        return np.broadcast_shapes(*shapes)
    except ValueError:
        raise ShapeMismatchError(f"{k} {node.id!r} cannot take shapes "
                                 f"{[tuple(sh) for sh in shapes]}") from None


def infer_shapes(g: Graph) -> dict[str, tuple]:
    """Every node's output shape: the shapes of `run_forward` on a ones input,
    those of the `linear_shape` kinds and of pooling by shape arithmetic
    (values are not read, so numeric warnings are silenced)."""
    def visit(node, inputs):
        if node.kind == "input":
            return np.ones(tuple(node.params["shape"]))
        if node.kind in ("dense", "affine", "conv2d"):
            return np.ones(linear_shape(node, [x.shape for x in inputs]))
        if node.kind in ("maxpool2d", "avgpool2d"):
            return np.ones(_pool_shape(node, inputs[0].shape))
        return node_forward(node, inputs)

    with np.errstate(all="ignore"):
        acts = g.walk(visit)
    return {nid: a.shape for nid, a in acts.items()}


def run_forward(g: Graph, x: np.ndarray) -> dict[str, np.ndarray]:
    """Real-arithmetic forward pass; returns every node's activation.

    Converted neuron layers evaluate their reference nonlinearity, so the
    same driver scores source models, transformed models, and SNN graphs.
    """
    x = np.asarray(x, dtype=np.float64)

    def visit(node, inputs):
        if node.kind != "input":
            return node_forward(node, inputs)
        want = tuple(node.params["shape"])
        if x.shape != want:
            raise ShapeMismatchError(f"input shape {x.shape} != declared {want}")
        return x

    return g.walk(visit)
