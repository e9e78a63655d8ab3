"""Conversion transforms: batch-norm folding, ReLU range normalization,
max-pool tree decomposition, layer-norm decomposition, neuron substitution,
and the stimulate/depress calibration, which every `SnnInstance` computes
from the weights (`calibration`); `calibrate` only writes the records files carry.

Every transform preserves the graph's real-arithmetic forward semantics; the
decompositions rewrite one nonlinear tensor operator into linear plumbing plus
binary-input nonlinearities that spiking neurons can evaluate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ..neurons import MECHANISMS, FiringMechanism
from ..schedules import Schedule, ScheduleError, parse_schedule
from . import io as gio
from .model import Graph, GraphError, Node, infer_shapes, leaky_slope, run_forward
from .plan import STEPPABLE, Plan

__all__ = [
    "ConversionError",
    "SnnGraph",
    "fold_batchnorm",
    "normalize_relu",
    "decompose_maxpool",
    "decompose_layernorm",
    "convert",
    "calibration",
    "calibrate",
]


class ConversionError(GraphError):
    """A node cannot be converted or transformed as requested."""


def fold_batchnorm(g: Graph) -> Graph:
    """Absorb inference-time batch norm into the preceding dense/conv node."""
    g = g.copy()
    nodes = [g.nodes[i] for i in g.topo_order]
    edges = list(g.edges)
    for bn in [n for n in nodes if n.kind == "batchnorm"]:
        preds = g.inputs_of(bn.id)
        if len(preds) != 1:
            raise ConversionError(f"batchnorm {bn.id!r} needs a single producer")
        prev = g.nodes[preds[0]]
        if prev.kind not in ("dense", "conv2d"):
            raise ConversionError(
                f"batchnorm {bn.id!r} follows {prev.kind!r}; only dense/conv2d can fold"
            )
        if len(set(g.successors(prev.id))) != 1:
            raise ConversionError(
                f"cannot fold batchnorm {bn.id!r}: producer {prev.id!r} feeds other nodes"
            )
        scale = bn.tensor("gamma") / np.sqrt(bn.tensor("var") + bn.params["eps"])
        w, b = prev.tensor("weight"), prev.tensor("bias")
        if prev.kind == "dense":
            w = w * scale[:, None]
        else:
            w = w * scale[:, None, None, None]
        b = (b - bn.tensor("mean")) * scale + bn.tensor("beta")
        prev.params["weight"] = w.astype(np.float32)
        prev.params["bias"] = b.astype(np.float32)
        # splice the bn node out
        nodes = [n for n in nodes if n.id != bn.id]
        edges = [(s, d, p) for s, d, p in edges if d != bn.id]
        edges = [
            (prev.id, d, p) if s == bn.id else (s, d, p) for s, d, p in edges
        ]
    return Graph(nodes, edges)


def normalize_relu(g: Graph, calib_inputs) -> Graph:
    """Scale each ReLU's neighborhood by its maximum observed activation.

    Records M_f on the node (params['m_f']) and folds M_f into the adjacent
    affine parameters using ReLU's positive homogeneity, so the forward
    output is unchanged. Dead ReLUs (M_f <= 0) are skipped with a warning.
    """
    g = g.copy()
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
    for rid in relus:
        m = peaks[rid]
        relu_node = g.nodes[rid]
        if m <= 0.0:
            warnings.warn(f"ReLU {rid!r} never activates on calibration data; skipped")
            continue
        preds = g.inputs_of(rid)
        succs = list(set(g.successors(rid)))
        if len(preds) != 1 or g.nodes[preds[0]].kind not in ("dense", "conv2d", "affine"):
            raise ConversionError(f"ReLU {rid!r} lacks an affine producer to scale")
        for sid in succs:
            if g.nodes[sid].kind not in ("dense", "conv2d", "affine"):
                raise ConversionError(
                    f"ReLU {rid!r} feeds {g.nodes[sid].kind!r} node {sid!r}; cannot fold its scale"
                )
        prev = g.nodes[preds[0]]
        prev.params["weight"] = (prev.tensor("weight") / m).astype(np.float32)
        prev.params["bias"] = (prev.tensor("bias") / m).astype(np.float32)
        for sid in succs:
            nxt = g.nodes[sid]
            nxt.params["weight"] = (nxt.tensor("weight") * m).astype(np.float32)
        relu_node.params["m_f"] = m
    return g


def _tournament_rounds(count: int) -> list[tuple[list[int], list[int], list[int]]]:
    """Pairings (a_idx, b_idx, bye_idx) per round reducing `count` slots to 1."""
    rounds = []
    slots = list(range(count))
    while len(slots) > 1:
        a = slots[0::2][: len(slots) // 2]
        b = slots[1::2]
        bye = slots[len(b) * 2 :]
        rounds.append((a, b, bye))
        slots = list(range(len(b) + len(bye)))
    return rounds


def decompose_maxpool(g: Graph) -> Graph:
    """Replace each max pooling with a tournament of binary max stages.

    Rows of each window are reduced K_r -> 1, then columns K_c -> 1, giving
    K_r*K_c - 1 binary-max evaluations per window at tree depth
    ceil(log2 K_r) + ceil(log2 K_c); odd counts pass an element through as a
    bye. Stage inputs are flat `gather` selections, so overlapping windows
    are supported. The final stage keeps the pooling node's id.
    """
    g = g.copy()
    shapes = infer_shapes(g)
    nodes = [g.nodes[i] for i in g.topo_order]
    edges = list(g.edges)
    for mp in [n for n in nodes if n.kind == "maxpool2d"]:
        src = g.inputs_of(mp.id)[0]
        c, h, w = shapes[src]
        kh, kw = mp.params["kernel"]
        sh, sw = mp.params.get("stride", mp.params["kernel"])
        ho = (h - kh) // sh + 1
        wo = (w - kw) // sw + 1
        # pos[window, k, l] = flat index into the current stage tensor of the
        # window element being reduced along l; windows in (C, Ho, Wo) order,
        # and k = dx while the rows (l = dy) reduce in lockstep over dx
        ci, i, j, dy, dx = np.ix_(range(c), range(ho), range(wo), range(kh), range(kw))
        pos = (ci * h * w + (i * sh + dy) * w + (j * sw + dx)).reshape(-1, kh, kw)
        pos = pos.transpose(0, 2, 1)
        new_nodes: list[Node] = []
        new_edges: list = []
        prev_id = src
        stage = 0
        for _ in ("rows", "columns"):
            for a, b, bye in _tournament_rounds(pos.shape[2]):
                base, stage_in = f"{mp.id}.s{stage}", prev_id

                def select(suffix, cols):
                    sel = Node(f"{base}.{suffix}", "gather",
                               {"indices": pos[:, :, cols].reshape(-1)})
                    new_nodes.append(sel)
                    new_edges.append((stage_in, sel.id, 0))
                    return sel.id

                ga, gb = select("a", a), select("b", b)
                mx = Node(f"{base}.max", "max2", {})
                new_nodes.append(mx)
                new_edges.extend([(ga, mx.id, 0), (gb, mx.id, 1)])
                prev_id = mx.id
                if bye:
                    gc = select("bye", bye)
                    cat = Node(f"{base}.cat", "concat", {})
                    new_nodes.append(cat)
                    new_edges.extend([(mx.id, cat.id, 0), (gc, cat.id, 1)])
                    prev_id = cat.id
                # positions in the stage output: every pair, then every bye
                n_win, k = pos.shape[:2]
                pairs = np.arange(n_win * k * len(a)).reshape(n_win, k, len(a))
                byes = pairs.size + np.arange(n_win * k * len(bye)).reshape(n_win, k, len(bye))
                pos = np.concatenate([pairs, byes], axis=2)
                stage += 1
            pos = pos.transpose(0, 2, 1)  # each window now holds one row of kw
        # reorder the surviving elements into (C, Ho, Wo) and keep the id
        order = Node(f"{mp.id}.order", "gather", {"indices": pos.reshape(-1)})
        final = Node(mp.id, "reshape", {"shape": [c, ho, wo]})
        new_nodes.extend([order, final])
        new_edges.extend([(prev_id, order.id, 0), (order.id, final.id, 0)])

        nodes = [n for n in nodes if n.id != mp.id] + new_nodes
        edges = [(s, d, p) for s, d, p in edges if d != mp.id and s != mp.id] + new_edges
        edges += [(final.id, d, p) for s, d, p in g.edges if s == mp.id]
    return Graph(nodes, edges)


def decompose_layernorm(g: Graph) -> Graph:
    """Rewrite layer norm into centering, square, mean+eps, and x1/sqrt(x2).

    Stages: affine (I - J/n) -> square layer -> affine (mean row, bias eps)
    -> mul_inv_sqrt (centered value over shared variance) -> affine
    (gamma scale, beta shift, keeping the original node id). Variance uses
    the population divisor n.
    """
    g = g.copy()
    shapes = infer_shapes(g)
    nodes = [g.nodes[i] for i in g.topo_order]
    edges = list(g.edges)
    for ln in [n for n in nodes if n.kind == "layernorm"]:
        src = g.inputs_of(ln.id)[0]
        shape = shapes[src]
        if len(shape) != 1:
            raise ConversionError(
                f"layernorm {ln.id!r}: only flat (n,) inputs are supported, got {shape}"
            )
        n = shape[0]
        gamma, beta, eps = ln.tensor("gamma"), ln.tensor("beta"), ln.params["eps"]
        center = Node(
            f"{ln.id}.center", "affine",
            {"weight": np.eye(n) - np.full((n, n), 1.0 / n), "bias": np.zeros(n)},
        )
        sq = Node(f"{ln.id}.sq", "square", {})
        var = Node(
            f"{ln.id}.var", "affine",
            {"weight": np.full((1, n), 1.0 / n), "bias": np.array([eps])},
        )
        norm = Node(f"{ln.id}.norm", "mul_inv_sqrt", {})
        out = Node(ln.id, "affine", {"weight": np.diag(gamma), "bias": beta})
        new_edges = [
            (src, center.id, 0),
            (center.id, sq.id, 0),
            (sq.id, var.id, 0),
            (center.id, norm.id, 0),
            (var.id, norm.id, 1),
            (norm.id, out.id, 0),
        ]
        nodes = [x for x in nodes if x.id != ln.id] + [center, sq, var, norm, out]
        edges = [(s, d, p) for s, d, p in edges if d != ln.id] + new_edges
    return Graph(nodes, edges)


# ANN operator kind -> the firing mechanism that replaces it
_MECHANISM_OF = {kind: mech for mech, (_, kind) in MECHANISMS.items()}


@dataclass
class SnnGraph:
    """Converted network: operator DAG with neuron layers, one shared schedule.

    Every node is of a kind the step plan can step (`plan.STEPPABLE`): linear
    plumbing between neuron layers, never an ANN nonlinearity."""

    graph: Graph
    family: str
    schedule: Schedule
    parameterization: str = "canonical"
    meta: dict = field(default_factory=dict)

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
        meta = dict(self.meta)
        meta.update(
            family=self.family,
            schedule=str(self.schedule),
            parameterization=self.parameterization,
            kind="snn",
        )
        gio.save_model(self.graph, path, meta=meta)

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
        return cls(graph, family, schedule, parameterization, meta)


def convert(g: Graph, neuron_family: str, schedule: Schedule,
            parameterization: str = "canonical") -> SnnGraph:
    """Convert an operator graph into a spiking network.

    Applies batch-norm folding and the max-pool / layer-norm decompositions,
    rewrites average pooling as fixed convolution weights, then substitutes
    each nonlinearity with its neuron layer. The subgradient family supports
    ReLU-only graphs; the sign family covers every decomposed nonlinearity.
    """
    if any(n.kind == "batchnorm" for n in g.nodes.values()):
        g = fold_batchnorm(g)
    for kind, decompose in (("maxpool2d", decompose_maxpool), ("layernorm", decompose_layernorm)):
        node = next((n for n in g.nodes.values() if n.kind == kind), None)
        if node is None:
            continue
        if neuron_family == "subgrad":
            raise ConversionError(
                f"node {node.id!r} ({kind}) is not supported by the subgrad family")
        g = decompose(g)
    g = g.copy()
    shapes = infer_shapes(g)

    for nid in g.topo_order:
        node = g.nodes[nid]
        if node.kind == "avgpool2d":
            src = g.inputs_of(nid)[0]
            c = shapes[src][0]
            kh, kw = node.params["kernel"]
            sh, sw = node.params.get("stride", node.params["kernel"])
            w = np.zeros((c, c, kh, kw), dtype=np.float32)
            for ci in range(c):
                w[ci, ci] = 1.0 / (kh * kw)
            node.kind = "conv2d"
            node.params = {
                "weight": w, "bias": np.zeros(c, dtype=np.float32),
                "stride": [sh, sw], "padding": [0, 0],
            }
            continue
        if node.kind in _MECHANISM_OF:
            mech = FiringMechanism(_MECHANISM_OF[node.kind], leaky_slope(node)).name
            if neuron_family == "subgrad" and node.kind == "relu":
                mech = "subgrad"  # SnnGraph rejects any other kind in this family
            in_shape = shapes[g.predecessors(nid)[0][0]]
            m_f = node.params.get("m_f")
            node.kind = "neuron"
            node.params = {"mech": mech, "count": int(np.prod(in_shape)), "shape": list(in_shape)}
            if m_f is not None:
                node.params["m_f"] = m_f

    snn_graph = Graph([g.nodes[i] for i in g.topo_order], list(g.edges))
    return SnnGraph(snn_graph, neuron_family, schedule, parameterization)


class Forced:
    """Calibration stand-in for neuron node `node` (a `Plan` layer): records
    its currents; item 0 emits 1 and item 1 emits 0."""

    def __init__(self, node: Node):
        self.n = node.params["count"]

    def step(self, currents, steps, out, scratch=None, observer=None):
        """A block of one step of the two items: keeps the (arity, 2, n)
        currents (the plan reuses its buffers) and writes the spikes."""
        self.currents = currents.reshape(2, -1, self.n).transpose(1, 0, 2).copy()
        out[0], out[1] = 1.0, 0.0
        return out


def calibration(plan: Plan) -> tuple[dict, tuple]:
    """Stimulate/depress on `plan`, compiled with `Forced` layers: one step of
    two items, the input and every layer emitting all-ones in item 0 (the
    stimulated currents I+) and all-zeros in item 1 (the idle currents I-).
    Returns ({neuron node id: (W, b)}, (W_out, b_out)) in float64, W = I+ - I-
    and b = I- per neuron operand, (arity, n), and for the output node."""
    plan.reset(2)
    out_hi, out_lo = plan.step(np.repeat([[1.0], [0.0]], plan.input_size, axis=1))
    layers = {nid: (layer.currents[:, 0] - layer.currents[:, 1], layer.currents[:, 1].copy())
              for nid, layer in plan.layers.items()}
    return layers, (out_hi - out_lo, out_lo.copy())


def calibrate(snn: SnnGraph) -> SnnGraph:
    """Write the network's `calibration` into the `cal_w`/`cal_b` records of
    its neuron nodes and output node, which model files carry. Nothing reads
    the records: every `SnnInstance` computes its own calibration."""
    g = snn.graph
    layers, (w_out, b_out) = calibration(Plan(g, Forced))
    for nid, (w, b) in layers.items():
        g.nodes[nid].params.update(cal_w=w, cal_b=b)
    g.nodes[g.output_id].params.update(cal_w=w_out, cal_b=b_out)
    return snn
