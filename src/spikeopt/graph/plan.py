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
weight is converted to float64 once: a conv2d weight, and a dense one that
needs no padding, is the node's own widening (`Node.tensor`), which the
ANN reference reads too.

A selection, a take of a slot's columns by a flat index table (a move's
take, a neuron layer's operand table, a conv2d node's im2col patches),
compiles to one of two copies with the same bits. A table with an affine
form (`affine_form`: an offset, a shape and strides, found by a greedy
search over the table, or for an unpadded conv2d built from its kernel,
stride and input shape) is one np.copyto from a strided view of the
source rows; any other table, and a padded conv2d's, is one np.take.

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

The plan knows which slots hold 0/1 spike rows: a neuron layer's output,
the take of a slot that holds them, and a concat across slots whose every
input holds them (a move within one slot keeps its slot). Slot 0 never
does, as a float encoder's frames are not 0/1. `Plan.spike_fed` names the
neuron layers whose every operand slot holds spikes, taken before their
operands are joined: the max-pool tournament's stages, which calibrate to
W = 1 and b = 0 and so form their drive in two passes (`SignGdNeuron`).

A block's first op has the input's encoder fill slot 0 with its frames,
and its last folds the output currents into the readout, so an observer
sees the whole step. The encoder, the readout and each neuron layer compile
as `Forced` stand-ins; `Plan.calibration`, the stimulate/depress step, is
one plan step on them, of two rows. A network then puts its own in their
places: a sign network after its calibration, whose W and b its layers
and readout read, and a subgradient network at once, as its layers and
readout read none (its instance never calibrates). A run that reads no
readout drops it and the ops that only feed it (`Plan.drop_readout`), and
only a run that reads spike counts has each neuron op add its block's
spike rows to its layer's counts (`Plan.count_spikes`): a layer only
steps.

Dense and affine nodes have their own rule, `DenseRule`: x's rows,
zero-padded to whole tiles of R = 16 rows, against the transposed weight
with its output rows zero-padded to a multiple of 8, plus the bias. A
weight whose one tile is above BLAS's small-matrix bound (R fan_in width >
GEMM_SMALL = 100**3) and at least GEMM_WIDTH = 32 wide takes all of a
block's tiles in one GEMM, which spares BLAS packing the whole weight
again for every tile; every other weight makes one GEMM per tile. With
OpenBLAS both give every row the bits that row gets alone, whatever its
position, neighbours and block length (`tests/test_plan.py` checks it on
every dense shape in use), so a product does not depend on the block it
is computed in. One GEMM over a block of a weight below the bound, or of
a narrower one once BLAS runs more than one thread, would change a row's
bits with the block's row count. The product differs from the
matrix-vector product of `node_forward`, the ANN reference, by ~1e-13.
conv2d nodes have theirs, `ConvRule`: one selection of a fixed im2col
index table gathers each frame's patches, and one np.matmul makes one GEMM
of the same shape per frame, so a frame's product does not depend on its
block either.
It differs from the per-tap accumulation of `model.conv2d`, the ANN
reference, by ~1e-14. Its patch stack is a slot of the plan, whose store
later slots reuse once the product has read it.

The slot buffers of one plan share stores where slot lifetimes do not
overlap, and K counts BLOCK_BYTES on these stores, each neuron layer's
scratch slot and each conv2d node's patch stack included. A plan keeps its
stores while its row count, batch steps, stays the same; a plan sized for
another row count, or gone, leaves its stores to the next plan of the
process: freed, they would let the allocator hand the heap's top back to
the system, and the next network would fault its pages in again.
"""

from __future__ import annotations

import math
import threading
import weakref
from functools import partial

import numpy as np

from .model import Graph, GraphError, Node, node_forward, output_shape, window_indices

__all__ = ["Plan", "DenseRule", "ConvRule", "affine_form", "STEPPABLE", "R", "GEMM_SMALL",
           "GEMM_WIDTH", "BLOCK_BYTES", "block_steps"]

# kinds that only move elements; the first three keep a frame's flat order
_VIEWS = {"output", "reshape", "flatten"}
_MOVES = _VIEWS | {"gather", "transpose", "concat"}
# every kind a spiking network can hold
STEPPABLE = frozenset(_MOVES | {"input", "dense", "affine", "conv2d", "add", "neuron"})

R = 16  # rows of a dense product's tile: a block's rows are padded to whole tiles
# a dense weight takes all of a block's tiles in one GEMM when one tile's
# M N K is above BLAS's small-matrix bound and its padded width is at least
# GEMM_WIDTH; narrower ones change row bits with the row count once BLAS
# runs more than one thread (see DenseRule)
GEMM_SMALL = 100**3
GEMM_WIDTH = 32
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


def affine_form(table) -> tuple | None:
    """(offset, shape, strides) of the flat index `table` if it has an
    affine form: entry i, at the C-order index (i_0, .., i_m) of `shape`,
    is offset + i_0 strides_0 + .. + i_m strides_m (a stride may be 0 or
    negative); None if it has none, or no entries. Level by level from the
    innermost, a greedy pass takes the longest arithmetic run from the
    start of the table of the level's first entries. That is complete for
    affine tables: a run that outlasts a level's length d (stride s) has
    next-level stride d s, so the two levels merge into one."""
    t = np.asarray(table).reshape(-1)
    n = t.size
    if not n:
        return None
    shape, strides = [], []
    while n > 2:
        d = t[1:] - t[:-1]
        off = d != d[0]
        i = int(off.argmax())
        run = i + 1 if off[i] else n
        # rows of `run` entries stepping by d[0]: each step off d[0] ends a row
        if n % run or np.count_nonzero(off) != np.count_nonzero(off[run - 1 :: run]):
            return None
        shape.insert(0, run)
        strides.insert(0, int(d[0]))
        t, n = t[::run], n // run
    if n == 2:
        shape.insert(0, 2)
        strides.insert(0, int(t[1] - t[0]))
    return int(t[0]), tuple(shape), tuple(strides)


def _selection(table, form):
    """select(x, out): columns `table` of the C-contiguous (N, width) rows x
    into the (N, table.size) rows `out`. With the table's affine `form`,
    one np.copyto from a strided view of x's rows; with None, one np.take."""
    if form is None:
        return lambda x, out: np.take(x, table, axis=1, out=out, mode="clip")
    offset, shape, strides = form
    offset, strides = 8 * offset, tuple(8 * s for s in strides)

    def select(x, out):
        assert x.flags.c_contiguous and x.dtype == np.float64
        n = len(x)
        np.copyto(out.reshape(n, *shape),
                  np.ndarray((n, *shape), np.float64, x, offset, (x.strides[0], *strides)))
        return out

    return select


class DenseRule:
    """The product of one dense or affine node: x W^T + b for (N, fan_in)
    rows x. x, zero-padded at the end to whole R-row tiles, goes through
    one np.matmul against `wt`, the float64 weight with its output rows
    zero-padded to a multiple of 8 (one of whole 8-row groups is used as it
    is), transposed once (a view of the padded weight), and row j of the
    product, the bias added after, is row j of x W^T + b. With `one_gemm`,
    set where one tile's R fan_in width is above GEMM_SMALL and the padded
    width at least GEMM_WIDTH, np.matmul takes all tiles as one GEMM, a
    stack of one; otherwise it makes one GEMM per tile, a stack of tiles.
    Whole tiles are read in place; padded rows and the product of a padded
    width go to buffers kept for the next call."""

    def __init__(self, w, b):
        self.n_out, fan_in = np.shape(w)
        if self.n_out % 8:
            padded = np.empty((-(-self.n_out // 8) * 8, fan_in))
            padded[: self.n_out] = w  # float32 storage widens exactly
            padded[self.n_out :] = 0.0
        else:
            padded = np.ascontiguousarray(w, dtype=np.float64)
        self.wt = padded.T
        self.b = np.asarray(b, dtype=np.float64)
        self.one_gemm = R * fan_in * len(padded) > GEMM_SMALL and len(padded) >= GEMM_WIDTH
        self._tile = self._prod = None

    @classmethod
    def of(cls, node: Node) -> "DenseRule":
        """The rule of `node`: a weight that needs no padding is the node's
        own widening (`Node.tensor`), which the ANN reference reads too."""
        w = node.params["weight"]
        return cls(w if len(w) % 8 else node.tensor("weight"), node.tensor("bias"))

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
        width, stack = self.wt.shape[1], 1 if self.one_gemm else tiles
        if out is not None and n % R == 0 and width == self.n_out and out.flags.c_contiguous:
            np.matmul(x.reshape(stack, -1, fan_in), self.wt, out=out.reshape(stack, -1, width))
            return np.add(out, self.b, out=out)
        if self._prod is None or len(self._prod) < tiles * R:
            self._prod = np.empty((tiles * R, width))
        prod = self._prod[: tiles * R]
        np.matmul(x.reshape(stack, -1, fan_in), self.wt, out=prod.reshape(stack, -1, width))
        return np.add(prod[:n, : self.n_out], self.b, out=out)


class ConvRule:
    """The product of one conv2d node fed (C, H, W) frames: the (O, Ho, Wo)
    cross-correlation plus bias, for (N, C H W) rows x, as (N, O P) rows
    with P = Ho Wo. One selection of the flat (F, P) index `table`, F = C
    kh kw, the windows of `model.window_indices`, gathers each frame's
    patches into an (N, F, P) stack, the stride folded into the table:
    without padding a strided copy through the form its geometry gives,
    with padding a take, each padding entry zeroed after it through the
    `pad` mask (None without padding). Then one np.matmul of the
    C-contiguous (O, F) float64 weight against the stack makes one BLAS
    call of the same shape per frame, and the bias, repeated over the P positions once, is added
    in place (an (O, 1) bias broadcast over P made numpy allocate a buffer
    on every call): a frame's bits do not depend on its neighbours or on
    its position in the block."""

    def __init__(self, w, b, in_shape, stride=(1, 1), padding=(0, 0)):
        o = len(w)
        table, inside = window_indices(in_shape, np.shape(w)[2:], stride, padding)
        self.shape = (o, *table.shape[3:])
        self.table = table.reshape(-1)
        self.pad = np.broadcast_to(~inside, table.shape).reshape(-1) if any(padding) else None
        # without padding, window element (c, dy, dx) of window (y, x) is
        # frame index c H W + (dy + sh y) W + dx + sw x
        _, h, w_in = in_shape
        form = None if any(padding) else (
            0, table.shape, (h * w_in, w_in, 1, stride[0] * w_in, stride[1]))
        self._select = _selection(self.table, form)
        self.w = np.ascontiguousarray(np.reshape(w, (o, -1)), dtype=np.float64)
        self.b = np.repeat(np.asarray(b, dtype=np.float64), math.prod(self.shape[1:]))

    @classmethod
    def of(cls, node: Node, in_shape) -> "ConvRule":
        p = node.params
        return cls(node.tensor("weight"), node.tensor("bias"), in_shape, p.get("stride", (1, 1)),
                   p.get("padding", (0, 0)))

    def patches(self, x, out=None) -> np.ndarray:
        """The (N, F, P) patch stack of the (N, C H W) rows x, in `out`, an
        (N, F P) buffer, if given."""
        if out is None:
            out = np.empty((len(x), self.table.size))
        self._select(x, out)
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
    """Calibration stand-in, stepped one step of two items: as a layer it
    records its (arity, 2, n) currents, as a layer or the encoder it emits 1
    in item 0 and 0 in item 1, and as the readout it gives the currents back."""

    def step(self, currents, steps, out, scratch=None, observer=None):
        self.currents = currents.reshape(2, -1, out.shape[1]).transpose(1, 0, 2).copy()
        self.fill(out)

    def fill(self, frames):
        frames.reshape(2, -1)[:] = [[1.0], [0.0]]

    def fold(self, currents):
        return currents


class Plan:
    """The ops of one graph of `STEPPABLE` kinds. `layers` maps each neuron
    node id to the object that steps it, and `codecs` maps "encoder" and
    "readout" to the objects that fill the input and decode the output, all
    at first `Forced` stand-ins; an op steps the object held there when it
    runs, so another put in its place steps from then on. A layer's
    `step(I, steps=K, out=, scratch=, observer=)` takes the K B rows of
    arity n influx currents of a block, row k B + b holding step k of item
    b operand by operand, writes the K B rows of n spikes into `out` and
    calls `observer(k)`, if given, after step k; `scratch` is a slot shaped
    like I, which I may be, for the layer to overwrite. The encoder's
    `fill` writes the block's (K, B, input size) frames, and the readout's
    `fold` takes its (K, B, n_out) output currents and returns what `step`
    returns.

    `spike_fed` holds the ids of the neuron layers whose every operand slot
    holds 0/1 spike rows.

    `reset(batch, steps)` sizes the slot buffers for blocks of up to `steps`
    steps of `batch` items, and `step(k)` runs a block of k of them and
    returns the readout's result. `ops` holds one (node id, kind, op) per
    op, the input's encoder first and the output's readout last, until
    `drop_readout` leaves out the readout and what only feeds it (`step`
    then returns None). After `count_spikes`, `counts` maps each neuron
    node id to its (batch, n) float spike counts since reset, which each
    of its blocks adds to; until then it is empty and no op counts. With
    an observer, `step` calls
    `observer(node id, kind, k)` after step k of each neuron layer and
    `observer(node id, kind, None)` after every other op."""

    def __init__(self, graph: Graph):
        self.ops: list = []
        self.layers: dict = {}
        self.codecs = codecs = {"encoder": Forced(), "readout": Forced()}
        self.counts: dict = {}  # filled by count_spikes
        self.widths = [math.prod(graph.nodes[graph.input_id].params["shape"])]
        self._io: list = []  # per op: the slots it reads, the slots it writes
        self._spikes: set = set()  # slots that hold 0/1 spike rows
        self.spike_fed: set = set()  # neuron ids whose operands are all spikes
        self.batch = self.rows = 0  # set by reset
        self._release = None

        def encode(s, B, observe):  # the input frames, in slot 0
            codecs["encoder"].fill(s[0].reshape(len(s[0]) // B, B, -1))

        def visit(node, ins: list[_Value]) -> _Value:
            if node.kind not in STEPPABLE:
                raise GraphError(f"node {node.id!r} ({node.kind}) has no step rule")
            if node.kind == "input":
                self._op(node.id, "encoder", encode, (), 0)
                return _Value(0, None, node.params["shape"], node.id)
            if node.kind == "neuron":
                return self._neuron(node, ins)
            if node.kind in _MOVES and len({v.slot for v in ins}) == 1:
                # run the move on the inputs' source indices: one composed selection
                sel = node_forward(node, [v.indices() for v in ins])
                view = node.kind in _VIEWS and ins[0].idx is None
                return _Value(ins[0].slot, None if view else sel.reshape(-1), sel.shape, node.id)
            return self._linear(node, ins)

        out = self.out_slot = self._flat(graph.walk(visit)[graph.output_id])

        def readout(s, B, observe):
            return codecs["readout"].fold(s[out].reshape(len(s[out]) // B, B, -1))

        self._op(graph.output_id, "readout", readout, [out])
        self._share()
        self.block_width = sum(self._caps)  # doubles per row of the stores

    def calibration(self) -> tuple[dict, tuple]:
        """Stimulate/depress on the `Forced` stand-ins: one step of two items,
        the input and every layer emitting all-ones in item 0 (the stimulated
        currents I+) and all-zeros in item 1 (the idle currents I-). Returns
        ({neuron node id: (W, b)}, (W_out, b_out)) in float64, W = I+ - I-
        and b = I- per neuron operand, (arity, n), and for the output node."""
        self.reset(2)
        (out_hi, out_lo), = self.step(1)
        layers = {nid: (layer.currents[:, 0] - layer.currents[:, 1], layer.currents[:, 1].copy())
                  for nid, layer in self.layers.items()}
        return layers, (out_hi - out_lo, out_lo.copy())

    def block_steps(self, batch: int, T: int) -> int:
        """Steps per block for `batch` items over T steps (`block_steps`)."""
        return block_steps(self.block_width, batch, T)

    def reset(self, batch: int, steps: int = 1):
        """Size the slot buffers for blocks of up to `steps` steps of `batch`
        items, batch steps rows; the stores of the last row count are kept
        (`_size` takes new ones for another)."""
        rows = batch * steps
        if (batch, rows) != (self.batch, self.rows):
            if rows != self.rows:
                self._size(rows)
            self.batch, self.rows = batch, rows
            self._buffers = [self._stores[b][: rows * w].reshape(rows, w)
                             for w, b in zip(self.widths, self._store_of)]
        for nid, rows in self.counts.items():
            if len(rows) == batch:
                rows.fill(0.0)
            else:
                self.counts[nid] = np.zeros((batch, rows.shape[1]))

    def _size(self, rows: int):
        """Stores of `rows` rows, the last ones left to the pool."""
        if self._release is not None:
            self._release()
        self._stores = [_take_store(rows * cap) for cap in self._caps]
        self._release = weakref.finalize(self, _give_stores, self._stores)

    def step(self, steps: int, observer=None):
        n, B = steps * self.batch, self.batch
        if not 0 < n <= self.rows:
            raise ValueError(f"{steps} steps are not 1 to the {self.rows // B} that reset sized")
        s, out = [buf[:n] for buf in self._buffers], None
        if observer is None:
            for _, _, op in self.ops:
                out = op(s, B, None)
        else:
            for nid, kind, op in self.ops:
                out = op(s, B, observer)
                if kind != "neuron":
                    observer(nid, kind, None)
        return out

    def drop_readout(self):
        """Run neither the readout nor the ops whose output only it reads,
        from then on (a network's last linear nodes, the output's take); a
        step then returns None. Every neuron layer's op stays, with every
        op it reads from, and the stores stay as they are."""
        kept, read = [], set()
        for op, (reads, writes) in zip(self.ops[::-1], self._io[::-1]):
            if op[1] == "neuron" or read.intersection(writes):
                kept.append((op, (reads, writes)))
                read.update(reads)
        self.ops = [op for op, _ in kept[::-1]]
        self._io = [io for _, io in kept[::-1]]

    def count_spikes(self):
        """Count each neuron layer's spikes from then on, per item and
        neuron, into `counts` (float counts are exact to 2**53); a reset
        zeroes them."""
        self.counts.update((nid, np.zeros((self.batch, self.widths[writes[-1]])))
                           for (nid, kind, _), (_, writes) in zip(self.ops, self._io)
                           if kind == "neuron")

    def _share(self):
        """Give each slot a store: the store of a slot whose last reader has
        run, grown to fit, or a new one. `_caps` holds each store's doubles
        per row and `_store_of` each slot's store."""
        last = {slot: i for i, (reads, _) in enumerate(self._io) for slot in reads}
        self._caps, self._store_of, holder = [], [None] * len(self.widths), []
        writes = [(i, slot) for i, (_, slots) in enumerate(self._io) for slot in slots]
        for i, slot in writes:
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
            src, out = v.slot, self._slot(v.idx.size)
            select = _selection(v.idx, affine_form(v.idx))

            def take(s, B, observe):
                select(s[src], s[out])

            self._op(v.node, "take", take, [src], out)
            if src in self._spikes:
                self._spikes.add(out)
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
            if all(i in self._spikes for i, _ in srcs):
                self._spikes.add(out)

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
        self.layers[node.id] = Forced()
        if all(v.slot in self._spikes for v in ins):
            self.spike_fed.add(node.id)
        if len({v.slot for v in ins}) > 1:  # join the operands into one slot
            joined = self._linear(Node(f"{node.id}.join", "concat"), ins).slot
            ins = [_Value(joined, start + np.arange(k), (k,), node.id)
                   for start, k in zip(np.cumsum([0, *sizes]), sizes)]
        nid, src, sel, layers, counts = node.id, ins[0].slot, None, self.layers, self.counts
        if len(ins) > 1 or ins[0].idx is not None or sizes[0] != n:
            # one take of the (arity, n) index table per block
            sel = np.concatenate([idx if idx.size == n else np.broadcast_to(idx, (n,))
                                  for idx in (v.indices().reshape(-1) for v in ins)])
            sel = _selection(sel, affine_form(sel))
        # the layer's scratch: its taken currents, then the state-free part
        # of its steps
        scratch = self._slot(len(ins) * n)
        out = self._slot(n)
        self._spikes.add(out)

        def op(s, B, observe):
            I = s[src]
            if sel is not None:
                I = sel(I, s[scratch])
            layers[nid].step(I, steps=len(I) // B, out=s[out], scratch=s[scratch],
                             observer=None if observe is None else partial(observe, nid, "neuron"))
            fired = counts.get(nid)
            if fired is not None:
                np.add(fired, s[out].reshape(-1, B, n).sum(0), fired)

        self._op(nid, "neuron", op, [src, scratch], scratch, out)
        return _Value(out, None, shape, nid)
