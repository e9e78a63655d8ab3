"""Step plans: a converted network compiled once into a flat list of ops.

Clock-driven execution runs the same linear plumbing every step, so the
graph is compiled once (as Brian 2 compiles a clock-driven model into
per-step kernels): inputs resolve to integer slots of flat float64 vectors,
float64 weights are hoisted, and element moves (gather, reshape, flatten,
transpose, concat within one source) compose into one index selection; a
two-port neuron layer with operands from one slot reads one (2, n) selection.

Each op computes what `node_forward` computes for its node, from the same
operands in the same order, so a plan is bit-identical to a node-by-node walk.
"""

from __future__ import annotations

import numpy as np

from .model import Graph, conv2d, node_forward

__all__ = ["Plan"]

# kinds that only move elements; the first three keep a frame's flat order
_VIEWS = {"output", "reshape", "flatten"}
_MOVES = _VIEWS | {"gather", "transpose", "concat"}


class _Value:
    """A node's frame at compile time: `slots[slot]`, selected by `idx` if set."""

    def __init__(self, slot: int, idx, shape: tuple):
        self.slot, self.idx, self.shape = slot, idx, tuple(shape)

    def indices(self) -> np.ndarray:
        """Flat source indices of the frame, in its shape."""
        flat = np.arange(int(np.prod(self.shape))) if self.idx is None else self.idx
        return flat.reshape(self.shape)


class Plan:
    """The per-step ops of one graph. `layers` maps each neuron node id to an
    object whose `step(currents)` takes the (arity, n) influx currents and
    returns the n spikes; `step(x)` returns the output node's influx current.
    """

    def __init__(self, graph: Graph, layers: dict):
        self.input_size = int(np.prod(graph.nodes[graph.input_id].params["shape"]))
        self.ops: list = []
        self.n_slots = 1  # slot 0 holds the input frame
        values: dict[str, _Value] = {}
        for nid in graph.topo_order:
            node = graph.nodes[nid]
            ins = [values[s] for s, _ in graph.predecessors(nid)]
            if node.kind == "input":
                values[nid] = _Value(0, None, node.params["shape"])
            elif node.kind == "neuron":
                values[nid] = self._neuron(node, ins, layers[nid])
            elif node.kind in _MOVES and len({v.slot for v in ins}) == 1:
                # run the move on the inputs' source indices: one composed selection
                sel = node_forward(node, [v.indices() for v in ins])
                view = node.kind in _VIEWS and ins[0].idx is None
                values[nid] = _Value(ins[0].slot, None if view else sel.reshape(-1), sel.shape)
            else:
                values[nid] = self._linear(node, ins)
        self.out_slot = self._flat(values[graph.output_id])
        self.slots: list = [None] * self.n_slots

    def step(self, x) -> np.ndarray:
        s = self.slots
        s[0] = np.asarray(x, dtype=np.float64).reshape(self.input_size)
        for op in self.ops:
            op(s)
        return s[self.out_slot]

    def _slot(self) -> int:
        self.n_slots += 1
        return self.n_slots - 1

    def _flat(self, v: _Value) -> int:
        """Slot holding v's frame, adding its selection op on first use."""
        if v.idx is not None:
            src, idx, out = v.slot, v.idx, self._slot()

            def take(s):
                s[out] = s[src][idx]

            self.ops.append(take)
            v.slot, v.idx = out, None
        return v.slot

    def _linear(self, node, ins: list[_Value]) -> _Value:
        srcs = [(self._flat(v), v.shape) for v in ins]
        # one reference evaluation checks the input shapes and gives the output's
        shape = node_forward(node, [np.ones(sh) for _, sh in srcs]).shape
        out = self._slot()
        (a, in_shape), p = srcs[0], node.params
        if node.kind in ("dense", "affine"):
            w, b = node.tensor("weight"), node.tensor("bias")

            def op(s):
                s[out] = w @ s[a] + b
        elif node.kind == "conv2d":
            w, b = node.tensor("weight"), node.tensor("bias")
            stride, padding = p.get("stride", (1, 1)), p.get("padding", (0, 0))

            def op(s):
                s[out] = conv2d(s[a].reshape(in_shape), w, b, stride, padding).reshape(-1)
        else:
            def op(s):
                s[out] = node_forward(node, [s[i].reshape(sh) for i, sh in srcs]).reshape(-1)

        self.ops.append(op)
        return _Value(out, None, shape)

    def _neuron(self, node, ins: list[_Value], layer) -> _Value:
        n, out = node.params["count"], self._slot()
        if len({v.slot for v in ins}) == 1:
            # operands from one slot: one (arity, n) selection (None adds the arity axis)
            src = ins[0].slot
            sel = None if len(ins) == 1 and ins[0].idx is None else np.stack(
                [np.broadcast_to(v.indices().reshape(-1), (n,)) for v in ins])

            def op(s):
                s[out] = layer.step(s[src][sel]).reshape(-1)
        else:
            srcs = [(self._flat(v), int(np.prod(v.shape)) != n) for v in ins]

            def op(s):
                s[out] = layer.step(np.stack([
                    np.broadcast_to(s[a], (n,)) if bcast else s[a] for a, bcast in srcs
                ])).reshape(-1)

        self.ops.append(op)
        return _Value(out, None, node.params["shape"])
