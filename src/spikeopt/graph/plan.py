"""Step plans: a converted network compiled once into a flat list of ops.

A spiking network holds only the kinds in `STEPPABLE`, each with one
batched rule: element moves (output, reshape, flatten, gather, transpose,
concat within one slot) compose into one index selection; dense/affine,
conv2d, add and concat across slots fill a new slot; a neuron layer reads
one whole slot, or takes its operands from one slot with one (arity, n)
index table (operands in several slots are joined by the concat rule first).
The compiler is a visit of `Graph.walk`, the walk `run_forward`,
`infer_shapes` and the conversion transforms make: it maps each node, given
its inputs' compiled values, to its own. Inputs resolve to integer slots,
output shapes come from the one shape rule, `model.output_shape`, and each
weight is converted to float64 once.

A plan steps a block of K steps of B items: every slot holds (K B, width)
rows, row k B + b being step k of item b. Each move, take, add, concat and
conv2d op runs once per block; moves, takes, adds and concats row by row
with the arithmetic `node_forward` uses for one frame. Each neuron layer
takes the block too, in one call of its `step`: after one take of its
operands where it has one, it forms the state-free part of its dynamics for
all K steps in its scratch slot, runs only what reads its state step by
step, and writes its K B spike rows into its output slot. A sign layer of
at most `neurons.SMALL_OPERANDS` operand values per step also runs v's
recurrence through the scratch slot, which then holds v after each step,
and forms its firing targets for all K steps in its output slot before the
per-step comparisons overwrite them with spikes. In a feed-forward network
a layer's state at step t depends only on its inputs up to t, so a block
gives every step what stepping it alone gives, bit for bit. K comes from
one rule, `block_steps`, which the plans and `neuron-sweep` share.

Each neuron layer compiles as a `Forced` stand-in, which reads its currents
in the plan's row layout; `Plan.calibration`, the stimulate/depress step, is
one plan step on them. A network then puts its layers in their places.

Dense and affine nodes have their own rule, `DenseRule`: row j of x W^T + b
is row j of one GEMM over a tile of exactly R = 16 rows, against the
transposed weight with its output rows zero-padded to a multiple of 8, plus
the bias. With OpenBLAS, calls of one fixed row count against such a weight
give every row the bits that row gets alone, whatever its position and
neighbours (`tests/test_plan.py` checks it on every dense shape in use), so
a product does not depend on the block it is computed in. It differs from
the matrix-vector product of `node_forward`, the ANN reference, by ~1e-13.
conv2d nodes have theirs, `ConvRule`: one take of a fixed im2col index table
gathers each frame's patches, and one np.matmul makes one GEMM of the same
shape per frame, so a frame's product does not depend on its block either.
It differs from the per-tap accumulation of `model.conv2d`, the ANN
reference, by ~1e-14. Its patch stack is a slot of the plan, whose store
later slots reuse once the product has read it.

The slot buffers of one plan share stores where slot lifetimes do not
overlap, and K counts BLOCK_BYTES on these stores, each neuron layer's
scratch slot and each conv2d node's patch stack included. A plan that is
resized or gone leaves its stores to the next plan of the process: freed,
they would let the allocator hand the heap's top back to the system, and
the next network would fault its pages in again.
"""

from __future__ import annotations

import math
import threading
import weakref
from functools import partial

import numpy as np

from .model import Graph, GraphError, Node, node_forward, output_shape, window_indices

__all__ = ["Plan", "DenseRule", "ConvRule", "STEPPABLE", "R", "BLOCK_BYTES", "block_steps"]

# kinds that only move elements; the first three keep a frame's flat order
_VIEWS = {"output", "reshape", "flatten"}
_MOVES = _VIEWS | {"gather", "transpose", "concat"}
# every kind a spiking network can hold
STEPPABLE = frozenset(_MOVES | {"input", "dense", "affine", "conv2d", "add", "neuron"})

R = 16  # rows of every dense product: one GEMM tile
BLOCK_BYTES = 1 << 21  # budget for the shared stores of one block


# stores left by plans that are resized or gone, newest last, for the next
# plan to take (at most _SPARE_COUNT of them and 2 BLOCK_BYTES in all)
_spares: list = []
_spares_lock = threading.Lock()
_SPARE_COUNT = 8


def _take_store(size: int) -> np.ndarray:
    with _spares_lock:
        for i, store in enumerate(_spares):
            if store.size == size:
                return _spares.pop(i)
    return np.empty(size)


def _give_stores(stores: list):
    with _spares_lock:
        _spares.extend(stores)
        while (len(_spares) > _SPARE_COUNT
               or sum(store.nbytes for store in _spares) > 2 * BLOCK_BYTES):
            _spares.pop(0)


def block_steps(width: int, batch: int, T: int) -> int:
    """Steps per block for `batch` items over T steps, each item's step
    holding `width` doubles of the plan's stores: the most steps whose
    rows fit in BLOCK_BYTES, rounded down to make whole R-row tiles where
    the budget allows, and at most T."""
    k = max(1, BLOCK_BYTES // (8 * batch * width))
    whole = R // math.gcd(batch, R)  # steps per whole number of tiles
    if k >= whole:
        k -= k % whole
    return min(k, T)


class DenseRule:
    """The product of one dense or affine node: x W^T + b for (N, fan_in)
    rows x. Row j is row j of np.matmul(tile, wt), the bias added after:
    `tile` is R rows of x, zero-padded at the end, and `wt` the float64
    weight with its output rows zero-padded to a multiple of 8, transposed
    once (a view of the padded weight). Full tiles are read in place; the
    padded tile and the product of a padded width go to buffers kept for
    the next call."""

    def __init__(self, w, b):
        self.n_out, fan_in = np.shape(w)
        padded = np.empty((-(-self.n_out // 8) * 8, fan_in))
        padded[: self.n_out] = w  # float32 storage widens exactly
        padded[self.n_out :] = 0.0
        self.wt = padded.T
        self.b = np.asarray(b, dtype=np.float64)
        self._tile = self._prod = None

    @classmethod
    def of(cls, node: Node) -> "DenseRule":
        return cls(node.params["weight"], node.tensor("bias"))

    def __call__(self, x, out=None):
        """The (N, n_out) product of the (N, fan_in) rows x, into `out` if given."""
        n, fan_in = x.shape
        tiles = -(-n // R)
        if n % R or not x.flags.c_contiguous:
            if self._tile is None or len(self._tile) < tiles * R:
                self._tile = np.empty((tiles * R, fan_in))
            tile = self._tile[: tiles * R]
            tile[:n] = x
            tile[n:] = 0.0
            x = tile
        width = self.wt.shape[1]
        if out is not None and n % R == 0 and width == self.n_out and out.flags.c_contiguous:
            np.matmul(x.reshape(tiles, R, fan_in), self.wt, out=out.reshape(tiles, R, width))
            return np.add(out, self.b, out=out)
        if self._prod is None or len(self._prod) < tiles * R:
            self._prod = np.empty((tiles * R, width))
        prod = self._prod[: tiles * R]
        np.matmul(x.reshape(tiles, R, fan_in), self.wt, out=prod.reshape(tiles, R, width))
        return np.add(prod[:n, : self.n_out], self.b, out=out)


class ConvRule:
    """The product of one conv2d node fed (C, H, W) frames: the (O, Ho, Wo)
    cross-correlation plus bias, for (N, C H W) rows x, as (N, O P) rows
    with P = Ho Wo. One take of the flat (F, P) index `table`, F = C kh kw,
    the windows of `model.window_indices`, gathers each frame's patches
    into an (N, F, P) stack, the stride folded into the table and each
    padding entry zeroed after the take through the `pad` mask (None
    without padding). Then one np.matmul of the C-contiguous (O, F)
    float64 weight against the stack makes one BLAS call of the same shape
    per frame, and the bias, repeated over the P positions once, is added
    in place (an (O, 1) bias broadcast over P made numpy allocate a buffer
    on every call): a frame's bits do not depend on its neighbours or on
    its position in the block."""

    def __init__(self, w, b, in_shape, stride=(1, 1), padding=(0, 0)):
        o = len(w)
        table, inside = window_indices(in_shape, np.shape(w)[2:], stride, padding)
        self.shape = (o, *table.shape[3:])
        self.table = table.reshape(-1)
        self.pad = np.broadcast_to(~inside, table.shape).reshape(-1) if any(padding) else None
        self.w = np.ascontiguousarray(np.reshape(w, (o, -1)), dtype=np.float64)
        self.b = np.repeat(np.asarray(b, dtype=np.float64), math.prod(self.shape[1:]))

    @classmethod
    def of(cls, node: Node, in_shape) -> "ConvRule":
        p = node.params
        return cls(p["weight"], node.tensor("bias"), in_shape, p.get("stride", (1, 1)),
                   p.get("padding", (0, 0)))

    def patches(self, x, out=None) -> np.ndarray:
        """The (N, F, P) patch stack of the (N, C H W) rows x, in `out`, an
        (N, F P) buffer, if given."""
        out = np.take(x, self.table, axis=1, out=out, mode="clip")
        if self.pad is not None:
            np.copyto(out, 0.0, where=self.pad)
        return out.reshape(len(x), self.w.shape[1], -1)

    def __call__(self, x, patches=None, out=None) -> np.ndarray:
        """The (N, O P) product of the (N, C H W) rows x, into `out` if
        given; `patches`, if given, is the (N, F P) buffer of the stack."""
        stack = self.patches(x, patches)
        if out is None:
            out = np.empty((len(x), math.prod(self.shape)))
        np.matmul(self.w, stack, out=out.reshape(len(x), self.w.shape[0], -1))
        return np.add(out, self.b, out=out)


class _Value:
    """A node's frame at compile time: `slots[slot]`, selected by `idx` if set;
    `node` names the node that produced it."""

    def __init__(self, slot: int, idx, shape: tuple, node: str):
        self.slot, self.idx, self.shape, self.node = slot, idx, tuple(shape), node

    def indices(self) -> np.ndarray:
        """Flat source indices of the frame, in its shape."""
        flat = np.arange(math.prod(self.shape)) if self.idx is None else self.idx
        return flat.reshape(self.shape)


class Forced:
    """Calibration stand-in for neuron node `node`: records its currents;
    item 0 emits 1 and item 1 emits 0."""

    def __init__(self, node: Node):
        self.n = node.params["count"]

    def step(self, currents, steps, out, scratch=None, observer=None):
        """A block of one step of the two items: keeps the (arity, 2, n)
        currents (the plan reuses its buffers) and writes the spikes."""
        self.currents = currents.reshape(2, -1, self.n).transpose(1, 0, 2).copy()
        out[0], out[1] = 1.0, 0.0
        return out


class Plan:
    """The ops of one graph of `STEPPABLE` kinds. `layers` maps each neuron
    node id to the object that steps it, at first a `Forced` stand-in; a
    neuron op steps the object `layers` holds when it runs, so another put
    in its place steps from then on. Its
    `step(I, steps=K, out=, scratch=, observer=)` takes the
    K B rows of arity n influx currents of a block, row k B + b holding step
    k of item b operand by operand, writes the K B rows of n spikes into
    `out` and calls `observer(k)`, if given, after step k; `scratch` is a
    slot shaped like I, which I may be, for the layer to overwrite.

    `reset(batch, steps)` sizes the slot buffers for blocks of up to `steps`
    steps of `batch` items; `step(x)` takes a block's input frames, k B rows
    for k <= steps, and returns the output node's (k B, n_out) influx
    currents, a view that the next block overwrites. `ops` holds one
    (node id, kind, op) per op; with an observer, `step` calls
    `observer(node id, kind, k)` after step k of each neuron layer and
    `observer(node id, kind, None)` after every other op."""

    def __init__(self, graph: Graph):
        self.input_size = math.prod(graph.nodes[graph.input_id].params["shape"])
        self.ops: list = []
        self.layers: dict = {}
        self.widths = [self.input_size]  # slot 0 holds the input frames
        self._io: list = []  # per op: the slots it reads, the slots it writes
        self.batch = self.rows = 0  # set by reset
        self._release = None

        def visit(node, ins: list[_Value]) -> _Value:
            if node.kind not in STEPPABLE:
                raise GraphError(f"node {node.id!r} ({node.kind}) has no step rule")
            if node.kind == "input":
                return _Value(0, None, node.params["shape"], node.id)
            if node.kind == "neuron":
                return self._neuron(node, ins)
            if node.kind in _MOVES and len({v.slot for v in ins}) == 1:
                # run the move on the inputs' source indices: one composed selection
                sel = node_forward(node, [v.indices() for v in ins])
                view = node.kind in _VIEWS and ins[0].idx is None
                return _Value(ins[0].slot, None if view else sel.reshape(-1), sel.shape, node.id)
            return self._linear(node, ins)

        self.out_slot = self._flat(graph.walk(visit)[graph.output_id])
        self._share()
        self.block_width = sum(self._caps)  # doubles per row of the stores

    def calibration(self) -> tuple[dict, tuple]:
        """Stimulate/depress on the `Forced` stand-ins: one step of two items,
        the input and every layer emitting all-ones in item 0 (the stimulated
        currents I+) and all-zeros in item 1 (the idle currents I-). Returns
        ({neuron node id: (W, b)}, (W_out, b_out)) in float64, W = I+ - I-
        and b = I- per neuron operand, (arity, n), and for the output node."""
        self.reset(2)
        out_hi, out_lo = self.step(np.repeat([[1.0], [0.0]], self.input_size, axis=1))
        layers = {nid: (layer.currents[:, 0] - layer.currents[:, 1], layer.currents[:, 1].copy())
                  for nid, layer in self.layers.items()}
        return layers, (out_hi - out_lo, out_lo.copy())

    def block_steps(self, batch: int, T: int) -> int:
        """Steps per block for `batch` items over T steps (`block_steps`)."""
        return block_steps(self.block_width, batch, T)

    def reset(self, batch: int, steps: int = 1):
        """Size the slot buffers for blocks of up to `steps` steps of `batch`
        items; the buffers of the last (batch, steps) are kept. `frames`, the
        (steps, batch, input size) buffer of slot 0, may hold a block's input."""
        rows = batch * steps
        if (batch, rows) != (self.batch, self.rows):
            self.batch, self.rows = batch, rows
            if self._release is not None:
                self._release()
            store = [_take_store(rows * cap) for cap in self._caps]
            self._release = weakref.finalize(self, _give_stores, store)
            self._buffers = [store[b][: rows * w].reshape(rows, w)
                             for w, b in zip(self.widths, self._store_of)]
            self.frames = self._buffers[0].reshape(steps, batch, -1)

    def step(self, x, observer=None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64).reshape(-1, self.input_size)
        n = len(x)
        if not 0 < n <= self.rows or n % self.batch:
            raise ValueError(f"{n} input rows are not whole steps of the {self.batch} "
                             f"items and at most {self.rows} rows that reset sized")
        s, B = [x] + [buf[:n] for buf in self._buffers[1:]], self.batch
        if observer is None:
            for _, _, op in self.ops:
                op(s, B, None)
        else:
            for nid, kind, op in self.ops:
                op(s, B, observer)
                if kind != "neuron":
                    observer(nid, kind, None)
        return s[self.out_slot]

    def _share(self):
        """Give each slot a store: the store of a slot whose last reader has
        run, grown to fit, or a new one. `_caps` holds each store's doubles
        per row and `_store_of` each slot's store."""
        last = {self.out_slot: len(self._io)}
        for i, (reads, _) in enumerate(self._io):
            last.update(dict.fromkeys(reads, i))
        self._caps, self._store_of, holder = [], [None] * len(self.widths), []
        writes = [(i, slot) for i, (_, slots) in enumerate(self._io) for slot in slots]
        for i, slot in [(-1, 0)] + writes:
            free = [b for b, h in enumerate(holder) if last.get(h, -2) < i]
            b = max(free, key=self._caps.__getitem__) if free else len(holder)
            if b == len(holder):
                holder.append(slot)
                self._caps.append(0)
            holder[b], self._store_of[slot] = slot, b
            self._caps[b] = max(self._caps[b], self.widths[slot])

    def _op(self, node: str, kind: str, op, reads, *writes: int):
        self.ops.append((node, kind, op))
        self._io.append((tuple(reads), writes))

    def _slot(self, width: int) -> int:
        """A new slot of `width` doubles per row."""
        self.widths.append(int(width))
        return len(self.widths) - 1

    def _flat(self, v: _Value) -> int:
        """Slot holding v's frame, adding its selection op on first use."""
        if v.idx is not None:
            src, idx, out = v.slot, v.idx, self._slot(v.idx.size)

            def take(s, B, observe):
                np.take(s[src], idx, axis=1, out=s[out], mode="clip")

            self._op(v.node, "take", take, [src], out)
            v.slot, v.idx = out, None
        return v.slot

    def _linear(self, node, ins: list[_Value]) -> _Value:
        srcs = [(self._flat(v), v.shape) for v in ins]
        shape = output_shape(node, [sh for _, sh in srcs])
        out = self._slot(math.prod(shape))
        a, in_shape = srcs[0]
        if node.kind in ("dense", "affine"):
            rule = DenseRule.of(node)

            def op(s, B, observe):
                rule(s[a], s[out])
        elif node.kind == "conv2d":
            rule = ConvRule.of(node, in_shape)
            patches = self._slot(rule.table.size)  # its store is free once read

            def op(s, B, observe):
                rule(s[a], s[patches], s[out])

            self._op(node.id, node.kind, op, [a, patches], patches, out)
            return _Value(out, None, shape, node.id)
        elif node.kind == "concat":
            def op(s, B, observe):
                np.concatenate([s[i] for i, _ in srcs], axis=1, out=s[out])
        else:  # add, in port order; each operand's rank padded as numpy pads it
            shapes = [(1,) * (len(shape) - len(sh)) + sh for _, sh in srcs]

            def op(s, B, observe):
                n = len(s[out])
                acc = s[out].reshape(n, *shape)
                np.copyto(acc, s[a].reshape(n, *shapes[0]))
                for (i, _), sh in zip(srcs[1:], shapes[1:]):
                    np.add(acc, s[i].reshape(n, *sh), out=acc)

        self._op(node.id, node.kind, op, [i for i, _ in srcs], out)
        return _Value(out, None, shape, node.id)

    def _neuron(self, node, ins: list[_Value]) -> _Value:
        n, shape = node.params["count"], output_shape(node, [v.shape for v in ins])
        sizes = [math.prod(v.shape) for v in ins]
        self.layers[node.id] = Forced(node)
        if len({v.slot for v in ins}) > 1:  # join the operands into one slot
            joined = self._linear(Node(f"{node.id}.join", "concat"), ins).slot
            ins = [_Value(joined, start + np.arange(k), (k,), node.id)
                   for start, k in zip(np.cumsum([0, *sizes]), sizes)]
        nid, src, sel, layers = node.id, ins[0].slot, None, self.layers
        if len(ins) > 1 or ins[0].idx is not None or sizes[0] != n:
            # one take of the (arity, n) index table per block
            sel = np.stack([np.broadcast_to(v.indices().reshape(-1), (n,)) for v in ins])
            sel = sel.reshape(-1)
        # the layer's scratch: its taken currents, then the state-free part
        # of its steps
        scratch = self._slot(len(ins) * n)
        out = self._slot(n)

        def op(s, B, observe):
            I = s[src]
            if sel is not None:
                I = np.take(I, sel, axis=1, out=s[scratch], mode="clip")
            layers[nid].step(I, steps=len(I) // B, out=s[out], scratch=s[scratch],
                             observer=None if observe is None else partial(observe, nid, "neuron"))

        self._op(nid, "neuron", op, [src, scratch], scratch, out)
        return _Value(out, None, shape, nid)
