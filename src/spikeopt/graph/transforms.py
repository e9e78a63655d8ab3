"""Conversion transforms: batch-norm folding, ReLU range normalization,
max-pool tree decomposition, layer-norm decomposition and neuron
substitution. The stimulate/depress calibration is a step of the network's
own plan (`Plan.calibration`), which every `SnnInstance` runs; `calibrate`
only writes it into the records files carry.

Every transform preserves the graph's real-arithmetic forward semantics; the
decompositions rewrite one nonlinear tensor operator into linear plumbing plus
binary-input nonlinearities that spiking neurons can evaluate. Every transform
is a set of rewrite rules applied in one visit of `Graph.walk` (`_rewrite`): a
rule keeps its node or replaces it by the nodes it emits, which go through the
rules in turn, so one walk of `convert` folds each batch norm, turns a max
pool into max2 stages and each max2 into a neuron layer. Shapes travel with
the walk as `model.shape_witness` arrays.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..neurons import FiringMechanism
from ..schedules import Schedule, ScheduleError, parse_schedule
from . import io as gio
from .model import (MECHANISM_OF, Graph, GraphError, Node, leaky_slope, run_forward,
                    shape_witness, window_indices)
from .plan import STEPPABLE, Plan

__all__ = [
    "ConversionError",
    "SnnGraph",
    "fold_batchnorm",
    "normalize_relu",
    "decompose_maxpool",
    "decompose_layernorm",
    "convert",
    "calibrate",
]


class ConversionError(GraphError):
    """A node cannot be converted or transformed as requested."""


def _rewrite(g: Graph, rules: dict) -> Graph:
    """`g` rewritten in one walk: each node goes to the rule for its kind,
    `rule(node, ins, emit, nodes)`, or is copied. A value of the walk is
    (node id, shape witness), from `model.shape_witness`. `emit(node, ins)`
    adds `node` fed by the values `ins` in port order, through the rules
    first, and returns its value; `nodes` maps the ids emitted so far to
    their nodes. A rule returns the value its node's consumers read, or None
    to keep its node with the params the rule left on it."""
    nodes: dict[str, Node] = {}
    edges: list = []

    def emit(node, ins):
        if node.kind in rules and (value := rules[node.kind](node, ins, emit, nodes)) is not None:
            return value
        if node.id in nodes:
            raise GraphError("duplicate node ids")
        nodes[node.id] = node
        edges.extend((src, node.id, port) for port, (src, _) in enumerate(ins))
        return node.id, shape_witness(node, [x for _, x in ins])

    try:
        g.walk(lambda node, ins: emit(Node(node.id, node.kind, dict(node.params)), ins))
    finally:
        del emit  # it holds itself: unbound, the new graph is freed by reference counting
    return Graph(list(nodes.values()), edges)


def _fold(g, bn, ins, emit, nodes):
    """A batch norm folded into its emitted producer (`fold_batchnorm`); the
    producer and its consumers are those of the source graph `g`."""
    prev = g.nodes[g.inputs_of(bn.id)[0]]
    if prev.kind not in ("dense", "conv2d"):
        raise ConversionError(f"batchnorm {bn.id!r} follows {prev.kind!r}; "
                              "only dense/conv2d can fold")
    if len(set(g.successors(prev.id))) != 1:
        raise ConversionError(f"cannot fold batchnorm {bn.id!r}: producer {prev.id!r} "
                              "feeds other nodes")
    out = nodes[ins[0][0]]
    scale = bn.tensor("gamma") / np.sqrt(bn.tensor("var") + bn.params["eps"])
    w, b = out.tensor("weight"), out.tensor("bias")
    if scale.shape != w.shape[:1]:
        raise ConversionError(f"batchnorm {bn.id!r} has {scale.size} channels but its "
                              f"producer {prev.id!r} has {w.shape[0]}")
    w = w * scale.reshape(-1, *[1] * (w.ndim - 1))  # per output channel
    b = (b - bn.tensor("mean")) * scale + bn.tensor("beta")
    out.params["weight"] = w.astype(np.float32)
    out.params["bias"] = b.astype(np.float32)
    return ins[0]  # consumers read the producer


def fold_batchnorm(g: Graph) -> Graph:
    """Absorb inference-time batch norm into the preceding dense/conv node."""
    return _rewrite(g, {"batchnorm": partial(_fold, g)})


def normalize_relu(g: Graph, calib_inputs) -> Graph:
    """Scale each ReLU's neighborhood by its maximum observed activation.

    Batch norms are folded first. Records M_f on the node (params['m_f']) and,
    by ReLU's positive homogeneity, divides the affine producer, which must
    feed only the ReLU, and multiplies each affine consumer by M_f, so the
    forward output is unchanged. Dead ReLUs (M_f <= 0) are skipped with a warning.
    """
    if any(n.kind == "batchnorm" for n in g.nodes.values()):
        g = fold_batchnorm(g)
    relus = [n.id for n in g.nodes.values() if n.kind == "relu"]
    if not relus:
        raise ConversionError("graph has no ReLU nodes to normalize")
    batches = list(calib_inputs)
    if not batches:
        raise ConversionError("need at least one calibration batch")
    peaks = {rid: 0.0 for rid in relus}
    for x in batches:
        acts = run_forward(g, x)
        for rid in relus:
            peaks[rid] = max(peaks[rid], float(np.max(acts[rid])))
    scaled: dict[str, float] = {}  # the M_f of each ReLU scaled here, not a stale m_f
    affine = ("dense", "conv2d", "affine")

    def relu(node, ins, emit, nodes):
        rid, m = node.id, peaks[node.id]
        if m <= 0.0:
            warnings.warn(f"ReLU {rid!r} never activates on calibration data; skipped")
            return None
        prev = nodes[ins[0][0]]
        if prev.kind not in affine:
            raise ConversionError(f"ReLU {rid!r} lacks an affine producer to scale")
        if g.successors(prev.id) != [rid]:
            raise ConversionError(
                f"ReLU {rid!r}: producer {prev.id!r} feeds other nodes; cannot scale it")
        for sid in set(g.successors(rid)):
            if g.nodes[sid].kind not in affine:
                raise ConversionError(f"ReLU {rid!r} feeds {g.nodes[sid].kind!r} node "
                                      f"{sid!r}; cannot fold its scale")
        prev.params["weight"] = (prev.tensor("weight") / m).astype(np.float32)
        prev.params["bias"] = (prev.tensor("bias") / m).astype(np.float32)
        node.params["m_f"] = scaled[rid] = m

    def consumer(node, ins, emit, nodes):
        if ins[0][0] in scaled:
            node.params["weight"] = (node.tensor("weight") * scaled[ins[0][0]]).astype(np.float32)

    return _rewrite(g, {"relu": relu, **dict.fromkeys(affine, consumer)})


def _maxpool(mp, ins, emit, nodes):
    """The binary-max tournament of a max pooling (`decompose_maxpool`)."""
    c, ho, wo = shape_witness(mp, [ins[0][1]]).shape  # a misfit is named first
    kernel = mp.params["kernel"]
    table, _ = window_indices(ins[0][1].shape, kernel, mp.params.get("stride", kernel))
    # pos[window, l] = flat index into the current stage tensor of window
    # element l; windows in (C, Ho, Wo) order, elements in (dx, dy) order
    pos = table.transpose(0, 3, 4, 2, 1).reshape(c * ho * wo, -1)
    value, stage = ins[0], 0
    while pos.shape[1] > 1:
        # pair slots 2i and 2i + 1; an odd count's last slot is a bye
        m = pos.shape[1] // 2
        a, b, bye = pos[:, 0 : 2 * m : 2], pos[:, 1 : 2 * m : 2], pos[:, 2 * m :]
        base, stage_in = f"{mp.id}.s{stage}", [value]

        def select(suffix, part):
            return emit(Node(f"{base}.{suffix}", "gather", {"indices": part.reshape(-1)}),
                        stage_in)

        ga, gb = select("a", a), select("b", b)
        value = emit(Node(f"{base}.max", "max2", {}), [ga, gb])
        if bye.size:
            value = emit(Node(f"{base}.cat", "concat", {}), [value, select("bye", bye)])
        # positions in the stage output: every pair, then every bye
        pos = np.concatenate([np.arange(a.size).reshape(a.shape),
                              a.size + np.arange(bye.size).reshape(bye.shape)], axis=1)
        stage += 1
    # a last stage leaves the survivors in (C, Ho, Wo) order; with no stage
    # (a 1x1 window) they are selected first. The reshape keeps the id.
    if not stage:
        value = emit(Node(f"{mp.id}.order", "gather", {"indices": pos.reshape(-1)}), [value])
    return emit(Node(mp.id, "reshape", {"shape": [c, ho, wo]}), [value])


def decompose_maxpool(g: Graph) -> Graph:
    """Replace each max pooling with a tournament of binary max stages.

    The K_r*K_c elements of each window are paired in one tournament, giving
    K_r*K_c - 1 binary-max evaluations per window at tree depth
    ceil(log2(K_r*K_c)); an odd count passes its last element through as a
    bye. Stage inputs are flat `gather` selections of the window elements
    `model.window_indices` lists, so overlapping windows are supported. The
    last stage holds the pooled values in (C, Ho, Wo) order; the pooling
    node's id goes to a reshape of it.
    """
    return _rewrite(g, {"maxpool2d": _maxpool})


def _layernorm(ln, ins, emit, nodes):
    """The five stages of a layer norm (`decompose_layernorm`)."""
    shape = ins[0][1].shape
    if len(shape) != 1:
        raise ConversionError(f"layernorm {ln.id!r}: only flat (n,) inputs are supported, "
                              f"got {shape}")
    n = shape[0]
    gamma, beta, eps = ln.tensor("gamma"), ln.tensor("beta"), ln.params["eps"]
    center = emit(Node(f"{ln.id}.center", "affine", {
        "weight": np.eye(n) - np.full((n, n), 1.0 / n), "bias": np.zeros(n)}), ins)
    sq = emit(Node(f"{ln.id}.sq", "square", {}), [center])
    var = emit(Node(f"{ln.id}.var", "affine", {
        "weight": np.full((1, n), 1.0 / n), "bias": np.array([eps])}), [sq])
    norm = emit(Node(f"{ln.id}.norm", "mul_inv_sqrt", {}), [center, var])
    return emit(Node(ln.id, "affine", {"weight": np.diag(gamma), "bias": beta}), [norm])


def decompose_layernorm(g: Graph) -> Graph:
    """Rewrite layer norm into centering, square, mean+eps, and x1/sqrt(x2).

    Stages: affine (I - J/n) -> square layer -> affine (mean row, bias eps)
    -> mul_inv_sqrt (centered value over shared variance) -> affine
    (gamma scale, beta shift, keeping the original node id). Variance uses
    the population divisor n.
    """
    return _rewrite(g, {"layernorm": _layernorm})


def _avgpool(node, ins, emit, nodes):
    """An average pooling as a conv2d of fixed weights."""
    c = shape_witness(node, [ins[0][1]]).shape[0]  # a misfit is named first
    kh, kw = node.params["kernel"]
    w = np.zeros((c, c, kh, kw), dtype=np.float32)
    w[np.arange(c), np.arange(c)] = 1.0 / (kh * kw)
    return emit(Node(node.id, "conv2d", {
        "weight": w, "bias": np.zeros(c, dtype=np.float32),
        "stride": list(node.params.get("stride", node.params["kernel"])), "padding": [0, 0],
    }), ins)


@dataclass
class SnnGraph:
    """Converted network: operator DAG with neuron layers, one shared schedule.

    Every node is of a kind the step plan can step (`plan.STEPPABLE`): linear
    plumbing between neuron layers, never an ANN nonlinearity. `path` names
    the file a loaded network came from, for errors found after loading."""

    graph: Graph
    family: str
    schedule: Schedule
    parameterization: str = "canonical"
    meta: dict = field(default_factory=dict)
    path: str | None = None

    def __post_init__(self):
        if self.family not in ("subgrad", "signgd"):
            raise ConversionError(f"unknown neuron family {self.family!r}")
        for node in self.graph.nodes.values():
            if node.kind not in STEPPABLE:
                raise ConversionError(f"node {node.id!r} ({node.kind}) cannot be stepped "
                                      f"by a spiking network")
        for node in self.neuron_nodes():
            if (node.params["mech"] == "subgrad") != (self.family == "subgrad"):
                raise ConversionError(f"node {node.id!r} ({node.params['mech']}) is not "
                                      f"supported by the {self.family} family")

    @property
    def calibrated(self) -> bool:
        """Whether the records `calibrate` writes are all present (unread)."""
        return all(n.params.get(key) is not None
                   for n in [*self.neuron_nodes(), self.graph.nodes[self.graph.output_id]]
                   for key in ("cal_w", "cal_b"))

    def neuron_nodes(self) -> list[Node]:
        return [self.graph.nodes[i] for i in self.graph.topo_order
                if self.graph.nodes[i].kind == "neuron"]

    def save(self, path) -> None:
        gio.save_model(self.graph, path, meta={
            **self.meta, "family": self.family, "schedule": str(self.schedule),
            "parameterization": self.parameterization, "kind": "snn"})

    @classmethod
    def load(cls, path) -> "SnnGraph":
        graph, meta = gio.load_model(path)
        if not isinstance(meta, dict):
            raise gio.ModelFormatError(f"{path}: meta is not an object")
        if meta.get("kind") != "snn":
            raise ConversionError(f"{path} is not a converted SNN model")
        try:
            family = meta.pop("family")
            schedule = parse_schedule(meta.pop("schedule"))
        except KeyError as exc:
            raise gio.ModelFormatError(f"{path}: meta lacks {exc}") from None
        except (AttributeError, ScheduleError) as exc:
            raise gio.ModelFormatError(f"{path}: bad meta schedule: {exc}") from None
        parameterization = meta.pop("parameterization", "canonical")
        meta.pop("kind", None)
        return cls(graph, family, schedule, parameterization, meta, str(path))


def convert(g: Graph, neuron_family: str, schedule: Schedule,
            parameterization: str = "canonical") -> SnnGraph:
    """Convert an operator graph into a spiking network.

    One walk folds batch norms, applies the max-pool / layer-norm
    decompositions, rewrites average pooling as fixed convolution weights and
    substitutes each nonlinearity, decomposed ones included, with its neuron
    layer. The subgradient family supports ReLU-only graphs; the sign family
    covers every decomposed nonlinearity.
    """
    for kind in ("maxpool2d", "layernorm"):
        node = next((n for n in g.nodes.values() if n.kind == kind), None)
        if node is not None and neuron_family == "subgrad":
            raise ConversionError(
                f"node {node.id!r} ({kind}) is not supported by the subgrad family")

    def neuron(node, ins, emit, nodes):
        mech = FiringMechanism(MECHANISM_OF[node.kind], leaky_slope(node)).name
        if neuron_family == "subgrad" and node.kind == "relu":
            mech = "subgrad"  # SnnGraph rejects any other kind in this family
        shape = shape_witness(node, [x for _, x in ins]).shape
        params = {"mech": mech, "count": int(np.prod(shape)), "shape": list(shape)}
        if node.params.get("m_f") is not None:
            params["m_f"] = node.params["m_f"]
        return emit(Node(node.id, "neuron", params), ins)

    rules = {"batchnorm": partial(_fold, g), "maxpool2d": _maxpool, "layernorm": _layernorm,
             "avgpool2d": _avgpool, **dict.fromkeys(MECHANISM_OF, neuron)}
    return SnnGraph(_rewrite(g, rules), neuron_family, schedule, parameterization)


def calibrate(snn: SnnGraph) -> SnnGraph:
    """Write the network's `Plan.calibration` into the `cal_w`/`cal_b`
    records of its neuron nodes and output node, which model files carry.
    Nothing reads the records: every `SnnInstance` computes its own."""
    g = snn.graph
    layers, (w_out, b_out) = Plan(g).calibration()
    for nid, (w, b) in layers.items():
        g.nodes[nid].params.update(cal_w=w, cal_b=b)
    g.nodes[g.output_id].params.update(cal_w=w_out, cal_b=b_out)
    return snn
