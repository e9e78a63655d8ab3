"""Step plans: a converted network compiled once into a flat list of ops.

A spiking network holds only the kinds in `STEPPABLE`, each with one
batched rule: element moves (output, reshape, flatten, gather, transpose,
concat within one slot) compose into one index selection; dense/affine,
conv2d, add and concat across slots fill a new slot; a neuron layer reads
one whole slot, or takes its operands from one slot with one (arity, n)
index table (operands in several slots are joined by the concat rule first).
Inputs resolve to integer slots and float64 weights are hoisted once.

A plan steps a batch of items in lockstep: every slot holds a (B, size)
array, one row per item. Each op computes, row by row, what `node_forward`
computes for its node, from the same operands in the same order with the
same BLAS call shapes, so a batched step is bit-identical both to a
node-by-node walk and to stepping each item on its own.
"""

from __future__ import annotations

import math

import numpy as np

from .model import Graph, GraphError, Node, conv2d, node_forward

__all__ = ["Plan", "STEPPABLE"]

# kinds that only move elements; the first three keep a frame's flat order
_VIEWS = {"output", "reshape", "flatten"}
_MOVES = _VIEWS | {"gather", "transpose", "concat"}
# every kind a spiking network can hold
STEPPABLE = frozenset(_MOVES | {"input", "dense", "affine", "conv2d", "add", "neuron"})


class _Value:
    """A node's frame at compile time: `slots[slot]`, selected by `idx` if set."""

    def __init__(self, slot: int, idx, shape: tuple):
        self.slot, self.idx, self.shape = slot, idx, tuple(shape)

    def indices(self) -> np.ndarray:
        """Flat source indices of the frame, in its shape."""
        flat = np.arange(math.prod(self.shape)) if self.idx is None else self.idx
        return flat.reshape(self.shape)


class Plan:
    """The per-step ops of one graph of `STEPPABLE` kinds. `layer(node)` builds
    the object that steps neuron node `node`: its `step(currents)` takes the
    (arity, B, n) influx currents and returns the (B, n) spikes; `layers` maps
    each neuron node id to it. `step(x)` takes the (B, ...) input frames and
    returns the output node's (B, n_out) influx currents."""

    def __init__(self, graph: Graph, layer):
        self.input_size = int(np.prod(graph.nodes[graph.input_id].params["shape"]))
        self.ops: list = []
        self.layers: dict = {}
        self.n_slots = 1  # slot 0 holds the input frames
        values: dict[str, _Value] = {}
        for nid in graph.topo_order:
            node = graph.nodes[nid]
            ins = [values[s] for s, _ in graph.predecessors(nid)]
            if node.kind not in STEPPABLE:
                raise GraphError(f"node {nid!r} ({node.kind}) has no step rule")
            if node.kind == "input":
                values[nid] = _Value(0, None, node.params["shape"])
            elif node.kind == "neuron":
                values[nid] = self._neuron(node, ins, layer)
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
        s[0] = np.asarray(x, dtype=np.float64).reshape(-1, self.input_size)
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
                s[out] = s[src].take(idx, axis=1)

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
                # stacked matrix-vector products: row i is the gemv of w @ x_i
                s[out] = np.matmul(w, s[a][:, :, None])[:, :, 0] + b
        elif node.kind == "conv2d":
            w, b = node.tensor("weight"), node.tensor("bias")
            stride, padding = p.get("stride", (1, 1)), p.get("padding", (0, 0))

            def op(s):
                x = s[a]
                s[out] = conv2d(x.reshape(len(x), *in_shape), w, b, stride,
                                padding).reshape(len(x), -1)
        elif node.kind == "concat":
            def op(s):
                s[out] = np.concatenate([s[i] for i, _ in srcs], axis=1)
        else:  # add, in port order; each operand's rank padded as numpy pads it
            shapes = [(1,) * (len(shape) - len(sh)) + sh for _, sh in srcs]

            def op(s):
                B = len(s[a])
                acc = s[a].reshape(B, *shapes[0])
                for (i, _), sh in zip(srcs[1:], shapes[1:]):
                    acc = acc + s[i].reshape(B, *sh)
                s[out] = acc.reshape(B, -1)

        self.ops.append(op)
        return _Value(out, None, shape)

    def _neuron(self, node, ins: list[_Value], layer) -> _Value:
        n, out = node.params["count"], self._slot()
        sizes = [math.prod(v.shape) for v in ins]
        if any(size not in (n, 1) for size in sizes):
            raise GraphError(f"node {node.id!r} (neuron) has count {n} but operands "
                             f"of sizes {sizes}")
        for key in ("cal_w", "cal_b"):
            cal = node.params.get(key)
            try:
                if cal is not None:
                    np.broadcast_to(cal, (len(ins), n))
            except ValueError:
                raise GraphError(f"node {node.id!r} (neuron) has {key} of shape "
                                 f"{np.shape(cal)}, not ({len(ins)}, {n})") from None
        neuron = self.layers[node.id] = layer(node)
        if len({v.slot for v in ins}) > 1:  # join the operands into one slot
            joined = self._linear(Node(f"{node.id}.join", "concat"), ins).slot
            ins = [_Value(joined, start + np.arange(k), (k,))
                   for start, k in zip(np.cumsum([0, *sizes]), sizes)]
        src = ins[0].slot
        if len(ins) == 1 and ins[0].idx is None and sizes[0] == n:
            def op(s):
                s[out] = neuron.step(s[src][None])
        else:
            # one take of the (arity, n) index table gives the (B, arity, n) block
            sel = np.stack([np.broadcast_to(v.indices().reshape(-1), (n,)) for v in ins])

            def op(s):
                s[out] = neuron.step(s[src].take(sel, axis=1).transpose(1, 0, 2))

        self.ops.append(op)
        return _Value(out, None, node.params["shape"])
