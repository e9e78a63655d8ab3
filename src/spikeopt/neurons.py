"""Discrete neuronal dynamics: integrate-and-fire (plain and leaky), the
generalized subgradient-based neuron, and the sign-based neuron with pluggable
firing mechanisms.

All neuron classes hold vectorized state: `n` independent neurons that share
parameters and schedule advance in lockstep. Per-step order is
integrate(I(t)) -> fire(s(t)) -> reset(u(t+1)).

The subgradient and sign-based neurons step the coefficient set they are
given: its one check, `schedules.check_coefficients`, is made where it is
solved.

Every neuron class steps through one protocol, `_Layer.step`: one step
per `step(I)` call, or a block of K steps per `step(I, steps=K, ...)` call,
the form a network's layers and the oracle check use. A block forms the
part of the dynamics that never reads the state once for the whole block
and runs the rest step by step; a small sign layer also forms its firing
rule's targets for all K steps at once (see SignGdNeuron). A one-step call
is a block of one step, so there is one copy of the arithmetic, and a
block gives every step the bits that stepping it alone gives. A layer
only steps: what a run records of its spikes, such as their counts, is the
step plan's (`graph.plan`). A subgradient layer keeps its decode y only
where it `decodes`; reading it otherwise raises.

Sign-based dynamics (internal variables u and v, coefficients a1, a2, b1, b2
with step sizes eta):

    v_k(t) = a1(t-1) v_k(t-1) - a2(t) (2 I_k(t) - W_k)
    s(t)   = H( dL/dy ( eta(t-1)/b2(t-1) * u(t), eta(t)/a2(t) * v(t) ) )
    u(t+1) = u(t)/b1(t) - b2(t) (2 s(t) - 1)

The u decay is 1/b1(t): with the coefficient constraints written as
eta(t)/eta(t-1) = b1(t) b2(t)/b2(t-1), the recurrence that keeps
eta(t)/b2(t) * u(t+1) equal to the optimizer iterate has decay
b2(t) eta(t-1) / (eta(t) b2(t-1)) = 1/b1(t). The canonical parameterization
(b1 = 1) is unaffected; the unit-current one (b1 = gamma) decays u by
1/gamma, mirroring the v side's a1 = 1/gamma.

Raw influx currents carry the layer bias at every step, so integration
subtracts the calibrated idle current b before the spike-to-sign translation
and folds b once into v's initial condition; a layer fed only by 0/1 spike
rows forms that input term in two passes, not four (see SignGdNeuron).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import EmaDecoder, RateDecoder, heaviside
from .schedules import SignGdCoefficients, SubgradCoefficients, float_text

__all__ = [
    "IfLifParams",
    "IfNeuron",
    "LifNeuron",
    "SubgradNeuron",
    "FiringMechanism",
    "parse_mechanism",
    "SignGdNeuron",
    "MECHANISMS",
    "SMALL_OPERANDS",
]

_HALF_MAX = np.finfo(np.float64).max / 2  # the largest x whose 2 x is finite
# operand values per step (batch x arity x n) up to which a sign layer forms
# its firing targets once per block (see SignGdNeuron)
SMALL_OPERANDS = 1024


@dataclass(frozen=True)
class IfLifParams:
    """Integrate-and-fire parameters; tau_m and u_rest only matter for LIF."""

    theta_th: float = 1.0
    R: float = 1.0
    tau_m: float = 10.0
    u_rest: float = 0.0
    u0: float = 0.0

    def __post_init__(self):
        if self.theta_th <= 0:
            raise ValueError(f"threshold must be positive, got {self.theta_th}")
        if self.R <= 0:
            raise ValueError(f"membrane resistance must be positive, got {self.R}")


class _Layer:
    """n neurons of one class that share parameters and step in lockstep;
    `reset(batch)` gives the state a leading axis of `batch` items. A
    subgradient or sign layer clears its state in the buffers it holds
    where they hold as many items (one for None), and sizes new ones only
    for another count, so a network sized for one item and then run on B
    sizes its layers twice.

    `step(I)` takes one step's currents, shaped like u (the sign neuron's
    like v), and returns its spikes, shaped like u, as a new array.
    `step(I, steps=K, out=, scratch=, observer=)` steps a block: I holds
    K B rows of one item's currents (row k B + b is step k of item b), and
    the K B spike rows go to `out`. The part of the dynamics that reads no
    state is formed once for the whole block, into `scratch` if given (it
    may be I itself); the rest runs step by step, with the operations of
    the one-step form in the same order. `observer(k)`, if given, is called
    after step k: the state, t and `decoded` are then those after step k.
    A layer keeps no record of its spikes; a run's counts are its plan's
    (`Plan.count_spikes`).

    A class steps a block's rows I into its (K, B, n) spike rows `s_k` in
    `_block(I, s_k, scratch, observer)`, and holds `step` in its own
    namespace, so that wrapping one class's `step` (as `bench/tracing.py`
    does) wraps that class only.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.step = _Layer.step

    def step(self, I, steps=None, out=None, scratch=None, observer=None) -> np.ndarray:
        I = np.asarray(I, dtype=np.float64)
        K, B = 1 if steps is None else steps, self.u.size // self.n
        if steps is None:
            I = self._one_step(I)
        spikes = np.empty((K * B, self.n)) if out is None else out
        s_k = spikes.reshape(K, B, self.n)
        self._block(I, s_k, scratch, observer)
        return spikes if steps is not None else spikes.reshape(self.u.shape)

    def _one_step(self, I):
        """One step's currents as the rows of a block of one."""
        return I.reshape(self.u.shape)


class IfNeuron(_Layer):
    """IF dynamics with reset-by-subtraction: u_pre = u + R*I, spike on
    u_pre >= theta, then u <- u_pre - theta*s. Output decoded by rate. A
    block forms the drive R I once, in the arrays each expression allocates."""

    def __init__(self, params: IfLifParams, n: int = 1):
        self.p = params
        self.n = n
        self.reset()

    def reset(self, batch: int | None = None):
        shape = (self.n,) if batch is None else (batch, self.n)
        self.u = np.full(shape, float(self.p.u0))
        self.decoder = self._decoder(shape)
        self.t = 0

    def _decoder(self, shape):
        return RateDecoder(shape)

    def _drive(self, I, out):
        return np.multiply(self.p.R, I, out)

    def _integrate(self, u, drive):
        """u_pre = u + R I."""
        return u + drive

    def _block(self, I, s_k, scratch, observer):
        shape = (len(s_k), *self.u.shape)
        drive = self._drive(I.reshape(shape), None if scratch is None else scratch.reshape(shape))
        theta, t0 = self.p.theta_th, self.t
        for k, (RI, s) in enumerate(zip(drive, s_k.reshape(shape))):
            u_pre = self._integrate(self.u, RI)
            s[...] = heaviside(u_pre - theta)
            self.u = u_pre - theta * s
            self.decoder.step(s)
            self.t = t0 + k + 1
            if observer is not None:
                observer(k)

    @property
    def decoded(self):
        return self.decoder.y


class LifNeuron(IfNeuron):
    """LIF dynamics: u_pre = u - (u - u_rest)/tau + (R/tau)*I, same firing and
    reset as IF. Output decoded by EMA with base tau."""

    def __init__(self, params: IfLifParams, n: int = 1):
        if params.tau_m <= 1:
            raise ValueError(f"LIF needs tau_m > 1, got {params.tau_m}")
        super().__init__(params, n)

    def _decoder(self, shape):
        return EmaDecoder(self.p.tau_m, shape)

    def _drive(self, I, out):
        return np.multiply(self.p.R / self.p.tau_m, I, out)

    def _integrate(self, u, drive):
        """u_pre = u - (u - u_rest)/tau + (R/tau) I."""
        return u - (u - self.p.u_rest) / self.p.tau_m + drive


class SubgradNeuron(_Layer):
    """Generalized subgradient-based neuron.

        u_pre(t) = alpha(t-1) u(t-1) + gamma(t) I(t),   u(0) = 0
        s(t)     = H(u_pre(t))
        u(t)     = u_pre(t) - beta(t) s(t)

    The schedule decode of the emitted spikes tracks the subgradient method on
    the clipped-ReLU objective; `decoded` maintains that decode. A step reads
    its scalars as the coefficient set's row of its t (`coeffs.row(t)`).
    A block forms gamma(t) I(t) once; only the recurrence on u, the firing
    comparison and, where `decodes` (as by default), the decode y run per
    step, in place, each expression in its comment.
    """

    def __init__(self, coeffs: SubgradCoefficients, n: int = 1, decodes: bool = True):
        self.c = coeffs
        self.n = n
        self.decodes = decodes
        self._state = None
        self.reset()

    def reset(self, batch: int | None = None):
        if self._state is None or self._state.shape[1] != (batch or 1):
            self._size(batch or 1)
        self._state.fill(0.0)
        self.u, self.y, self._x = self._state if batch is not None else self._state[:, 0]
        self.t = 0

    def _size(self, B: int):
        """The buffers of B items: u, y and the scratch x, item by item."""
        self._state = np.empty((3, B, self.n))

    def _block(self, I, s_k, scratch, observer):
        K, B = s_k.shape[:2]
        u, y, x = self.u.reshape(B, -1), self.y.reshape(B, -1), self._x.reshape(B, -1)
        t0, row, decodes = self.t, self.c.row, self.decodes
        rows = [row(t) for t in range(t0 + 1, t0 + K + 1)]
        # gamma(t) I(t), the state-free part, for the whole block
        gI = np.multiply(I.reshape(K, B, -1), np.array([r[1] for r in rows])[:, None, None],
                         None if scratch is None else scratch.reshape(K, B, -1))
        for k, (alpha, _, beta, eta_t) in enumerate(rows):
            s = s_k[k]
            # u_pre = alpha u + gamma I
            np.multiply(u, alpha, u)
            np.add(u, gI[k], u)
            # s = H(u_pre)
            np.greater_equal(u, 0.0, s)
            # u <- u_pre - beta s
            np.multiply(s, beta, x)
            np.subtract(u, x, u)
            if decodes:
                # y <- (1 - eta) y + eta s; eta s is beta s when eta == beta
                np.multiply(y, 1.0 - eta_t, y)
                if eta_t != beta:
                    np.multiply(s, eta_t, x)
                np.add(y, x, y)
            self.t = t0 + k + 1
            if observer is not None:
                observer(k)

    @property
    def decoded(self):
        if not self.decodes:
            raise RuntimeError("this layer keeps no 'decoded': it was built with decodes=False")
        return self.y


# ---------------------------------------------------------------------------
# Sign-based neuron.
# ---------------------------------------------------------------------------

# firing mechanism -> (operand count, the ANN operator kind it replaces), read by every module
MECHANISMS = {
    "relu": (1, "relu"), "leaky": (1, "leaky_relu"), "gelu": (1, "gelu"),
    "square": (1, "square"), "max2": (2, "max2"), "misr": (2, "mul_inv_sqrt"),
}


@dataclass(frozen=True)
class FiringMechanism:
    """Heaviside condition over scaled (u, v) encoding a gradient sign.

    Every rule but misr is one comparison: u >= m(v) against the target
    m(v) of its nonlinearity, or (1 + exp(-1.702 v0)) u >= v0 for gelu,
    which at u = 0 is v0 <= 0. A tie fires, as H(0) = 1 does. The leaky
    slope `delta` must be finite.

    A rule is evaluated in two parts: `target`, which reads only v, and
    `compare`, which reads u. A layer forms the targets of one step, or of
    a whole block of steps at once, and compares each step's u with its
    step's rows; both ways run the same two functions.
    """

    kind: str
    delta: float = 0.1

    def __post_init__(self):
        if self.kind not in MECHANISMS:
            raise ValueError(f"unknown firing mechanism {self.kind!r}")
        if not math.isfinite(self.delta):
            raise ValueError(f"leaky slope must be finite, got {self.delta!r}")

    @property
    def arity(self) -> int:
        return MECHANISMS[self.kind][0]

    def spike(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The spikes, as a new float array, of scale-corrected u and the
        operands v, v[i] being operand i: u is (n,) or (B, n), and v is
        (arity, n) or (arity, B, n).

        Each comparison x >= y is the Heaviside H(x - y) of the rule as the
        paper writes it, bit for bit: for finite x and y, under
        round-to-nearest with gradual underflow, x - y rounds to zero only
        when x == y and otherwise keeps the sign of the exact difference, and
        an overflow to +-inf keeps it too. The inputs are finite because the
        model and tensor loaders and the input encoder reject NaN and inf. A
        target that overflows (v0 ** 2 for |v0| > 1.3e154, exp(-1.702 v0) for
        v0 < -417, leaky's delta v0 past the float range) becomes +-inf, and
        the comparison gives the spike the difference would. At u = 0 gelu's
        rule is H(-v0); the overflowed inf * 0 is NaN, so where a gain
        overflowed gelu fires on (u == 0) & (v0 <= 0), which repeats its
        comparison wherever exp is finite.
        """
        u, v = np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)
        shape = np.broadcast_shapes(u.shape, v.shape[1:])
        target, flags, tmp = self.scratch(shape)
        self.compare(u, v, target, flags, self.target(v, target, flags), target, tmp)
        return target

    @staticmethod
    def scratch(shape) -> tuple:
        """Buffers for spikes of `shape`: a target and the two `flags` of
        `target`, and the float and three bools `compare` works in."""
        return (np.empty(shape), np.empty((2, *shape), dtype=bool),
                (np.empty(shape), *(np.empty(shape, dtype=bool) for _ in range(3))))

    def target(self, v, out, flags) -> int:
        """The part of the rule that reads only the operands v, (arity,
        *shape), into `out`, shaped like one operand: the target m(v) of
        relu, leaky, square and max2, gelu's gain 1 + exp(-1.702 v0), or
        misr's v1 ** 2, with v1 >= 0 and v2 > 0 in the bools `flags[0]` and
        `flags[1]`. Returns how many evaluations fall back: gelu's gains
        that overflowed, where `compare` adds the u == 0 case, and misr's
        v2 <= 0, where it drives the output toward zero (its layer counts
        these degeneracies); 0 for every other rule. The rules whose targets
        can overflow silence overflow warnings."""
        k = self.kind
        if k == "relu":
            np.maximum(v[0], 0.0, out=out)
        elif k == "max2":
            np.maximum(v[0], v[1], out=out)
        elif k == "leaky":
            # where(v0 >= 0, v0, delta v0)
            v0 = v[0]
            with np.errstate(over="ignore"):
                np.multiply(v0, self.delta, out)
            np.copyto(out, v0, where=np.greater_equal(v0, 0.0, flags[0]))
        elif k == "square":
            with np.errstate(over="ignore"):
                np.square(v[0], out)
        elif k == "gelu":
            with np.errstate(over="ignore"):
                np.multiply(v[0], -1.702, out)
                np.exp(out, out)
                np.add(out, 1.0, out)
            return np.count_nonzero(np.isinf(out, flags[0]))
        else:
            v1, v2 = v[0], v[1]
            with np.errstate(over="ignore"):
                np.multiply(v1, v1, out)
            np.greater_equal(v1, 0.0, flags[0])
            ok = np.greater(v2, 0.0, flags[1])
            return ok.size - np.count_nonzero(ok)
        return 0

    def overflows(self, v, target, fallbacks, umax) -> bool:
        """Whether gelu's or misr's `compare` of these targets may, for some
        |u| <= umax, form a product that overflows or is inf * 0: gelu's
        gain u and misr's v2 u u can, and the rules allow for it (no other
        rule forms a product of u). The bound is checked in floats with a
        factor of 2 to spare; a NaN anywhere says it may."""
        if self.kind == "gelu":
            return not (fallbacks == 0 and float(target.max()) * umax <= _HALF_MAX)
        return not (float(np.abs(v[1]).max()) * umax * umax <= _HALF_MAX
                    and float(target.max()) <= _HALF_MAX)

    def compare(self, u, v, target, flags, fallbacks, out, tmp, quiet=True):
        """Write into `out` the spikes of u against the `target` of the
        operands v, with its `flags` and its count of `fallbacks`, through
        the buffers `tmp`; `out` may be `target`. Each rule reaches its
        spikes as booleans, which one copy turns into 0.0/1.0. With `quiet`,
        gelu and misr run in np.errstate, silencing the overflow and
        inf * 0 warnings of their products of u; a caller that has shown
        that none occurs (`overflows`) passes False and saves its cost."""
        k = self.kind
        if quiet and k in ("gelu", "misr"):
            with np.errstate(over="ignore", invalid="ignore"):
                return self.compare(u, v, target, flags, fallbacks, out, tmp, quiet=False)
        f0, b0, b1, b2 = tmp
        if k == "gelu":
            # (1 + exp(-1.702 v0)) u >= v0, or u == 0 and v0 <= 0 where the
            # gain overflowed
            v0 = v[0]
            np.multiply(target, u, f0)
            np.greater_equal(f0, v0, b0)
            if fallbacks:
                np.logical_and(np.equal(u, 0.0, b1), np.less_equal(v0, 0.0, b2), b1)
                np.logical_or(b0, b1, b0)
        elif k == "misr":
            # mul-inverse-sqrt: target v1/sqrt(v2) needs v2 > 0; otherwise
            # H(u). With u and v1 of one sign the rule is H(+-lead),
            # lead = v2 u^2 - v1^2; with mixed signs it is H(u) H(-v1), which
            # is H(u) then.
            np.multiply(v[1], u, f0)
            np.multiply(f0, u, f0)
            np.subtract(f0, target, f0)  # lead
            pu = np.greater_equal(u, 0.0, b0)
            hit = np.less_equal(f0, 0.0, b1)  # H(-lead), and H(lead) where u >= 0
            np.copyto(hit, np.greater_equal(f0, 0.0, b2), where=pu)
            same = np.equal(pu, flags[0], b2)
            if fallbacks:
                np.logical_and(same, flags[1], same)
            np.copyto(pu, hit, where=same)
        else:
            np.greater_equal(u, target, b0)
        np.copyto(out, b0)

    @property
    def name(self) -> str:
        if self.kind == "leaky":
            return f"signgd:leaky:{float_text(self.delta)}"
        return f"signgd:{self.kind}"


def parse_mechanism(text: str) -> FiringMechanism:
    """Parse stable mechanism names: signgd:relu, signgd:leaky:<delta>, ..."""
    parts = text.split(":")
    if parts[0] == "signgd":
        parts = parts[1:]
    if not parts or parts[0] not in MECHANISMS:
        raise ValueError(f"unknown mechanism name {text!r}")
    if parts[0] == "leaky" and len(parts) > 1:
        return FiringMechanism("leaky", float(parts[1]))
    if len(parts) > 1:
        raise ValueError(f"mechanism {parts[0]!r} takes no parameter")
    return FiringMechanism(parts[0])


def _per_operand(x, shape) -> np.ndarray:
    """x as a new float64 array of `shape`, (arity, n), broadcast to it."""
    x = np.asarray(x, dtype=np.float64)
    return x.copy() if x.shape == shape else np.broadcast_to(x, shape).copy()


class SignGdNeuron(_Layer):
    """Sign-based neuron layer: n neurons of one mechanism sharing a schedule.

    W and b are the calibrated per-operand weight sums and idle currents,
    shape (arity, n). `reset(batch)` gives the state a leading item axis:
    u is (n,), or (batch, n), and v, like the currents of one step, is
    (arity, n), or (arity, batch, n).

    A step takes raw influx currents: one step's are shaped like v, and a
    block's rows hold arity n currents each, operand by operand. v's input
    term, a2(t) (2 (I(t) - b) - W), reads no state and is formed once for
    the whole block. The rest takes one of two paths, by the size B arity n
    of a step's operands:

    - up to SMALL_OPERANDS values, the fixed cost of a numpy call outweighs
      its arithmetic. v's recurrence runs row by row through the scratch
      rows, which then hold v after each step, and the firing rule's target
      (`FiringMechanism.target`) is formed for all K steps at once, one call
      per operation, in the spike rows. Only the comparison with u and u's
      reset run per step; gelu's and misr's comparisons skip np.errstate
      where b1 = u_scale = 1 bounds |u| by |u| + sum |b2| over the block
      and that bound shows their products of u finite
      (`FiringMechanism.overflows`).
    - above it, each step forms v, its target, the comparison and u's reset
      in turn, in buffers of one step's size, which stay in cache; rows of
      a whole block are colder and made max2 on 2 x 1,352 values slower.

    Both paths run the same expressions, each in its comment with the same
    operations in the same order, so u, v and the spikes keep every bit the
    expression gives them; a factor of 1.0 (a1, b1 and both scales in the
    canonical parameterization) is skipped, as x 1.0 and x / 1.0 are x.
    An observer sees v and `degeneracies` after its step too.

    A `spike_fed` layer, whose plan says that its operands are all 0/1
    spike rows (`Plan.spike_fed`), must be built with W = 1 and b = 0
    exactly (a ValueError otherwise). Its input term is then exactly +-a2:
    2 (I - b) - W is -1 or 1, and a2 times either is exact. Where every a2
    of a block is at most _HALF_MAX, it forms the term in two passes over
    the block, (2 a2) I - a2, which gives the same bits, as doubling a2 is
    exact: 2 a2 0 - a2 is -a2 and 2 a2 - a2 is a2. Any other block keeps
    the four passes, since 2 a2 is inf there. No row has a2 = 0, where the
    two forms would differ in the sign of zero: its maker refuses it.

    A step reads its scalars as the coefficient set's row of its t
    (`coeffs.row(t)`), which the set evaluates once for every layer it serves.
    `degeneracies` counts misr evaluations with a non-positive denominator.
    """

    def __init__(self, mech: FiringMechanism, coeffs: SignGdCoefficients, W, b, n: int = 1,
                 spike_fed: bool = False):
        self.mech = mech
        self.c = coeffs
        self.W, self.b = (_per_operand(x, (mech.arity, n)) for x in (W, b))
        if spike_fed and not ((self.W == 1.0).all() and (self.b == 0.0).all()):
            raise ValueError("a spike-fed sign layer needs W = 1 and b = 0 exactly")
        self.spike_fed = spike_fed
        self.n = n
        self._u = None
        self.reset()

    def reset(self, batch: int | None = None):
        if self._u is None or len(self._u) != (batch or 1):
            self._size(batch or 1)
        # u(0) = 0, and v(0) = alpha2(0)/eta(0) b, whose decode is b
        eta0, _, a2_0, _, _ = self.c.at(0)
        self._u.fill(0.0)
        np.multiply(self.b, a2_0 / eta0, self._v)
        self.u = self._u[0] if batch is None else self._u
        self.v = self._v[0] if batch is None else self._v_ops
        self.t = 0
        self.degeneracies = 0

    def _size(self, B: int):
        """The buffers of B items: the state item by item, u (B, n) and v
        (B, arity, n) like a block row; v and v_scale v with their operands
        first, as the rule reads them; u_scale u; +-b2; the firing rule's
        buffers."""
        shape = (B, self.mech.arity, self.n)
        self._u, self._v, self._vs = np.empty((B, self.n)), np.empty(shape), np.empty(shape)
        self._v_ops, self._vs_ops = self._v.transpose(1, 0, 2), self._vs.transpose(1, 0, 2)
        self._us, self._pm = np.empty_like(self._u), np.empty_like(self._u)
        self._target, self._flags, self._tmp = self.mech.scratch(self._u.shape)

    def _one_step(self, I):
        """One step's (arity, [B,] n) currents, item by item."""
        B, arity, n = self._v.shape
        return I.reshape(arity, B, n).transpose(1, 0, 2)

    def _block(self, I, s_k, scratch, observer):
        B, arity, n = self._v.shape
        K, t0, row = len(s_k), self.t, self.c.row
        rows = [row(t) for t in range(t0 + 1, t0 + K + 1)]
        # a2(t) (2 (I(t) - b) - W), the state-free part, for the whole block
        I, a2 = I.reshape(K, B, arity, n), np.array([r[2] for r in rows])[:, None, None, None]
        d = None if scratch is None else scratch.reshape(K, B, arity, n)
        if self.spike_fed and all(abs(r[2]) <= _HALF_MAX for r in rows):
            # (2 a2) I - a2: on 0/1 rows with W = 1 and b = 0, both forms are +-a2
            d = np.multiply(I, 2.0 * a2, d)
            np.subtract(d, a2, d)
        else:
            d = np.subtract(I, self.b, d)
            np.multiply(d, 2.0, d)
            np.subtract(d, self.W, d)
            np.multiply(d, a2, d)
        if B * arity * n <= SMALL_OPERANDS:
            self._block_targets(d, rows, s_k, observer)
        else:
            self._step_targets(d, rows, s_k, observer)

    def _step_targets(self, d, rows, s_k, observer):
        """The block, each step forming v and its target in turn."""
        u, v, t0 = self._u, self._v, self.t
        mech, target, flags, tmp = self.mech, self._target, self._flags, self._tmp
        misr = mech.kind == "misr"
        for k, (_, a1, _, u_scale, v_scale, b1, b2) in enumerate(rows):
            s = s_k[k]
            # v <- a1 v - a2 (2 (I - b) - W)
            if a1 != 1.0:
                np.multiply(v, a1, v)
            np.subtract(v, d[k], v)
            # s = spike(u_scale u, v_scale v)
            us, vs = u, self._v_ops
            if u_scale != 1.0:
                us = np.multiply(u, u_scale, self._us)
            if v_scale != 1.0:
                np.multiply(v, v_scale, self._vs)
                vs = self._vs_ops
            fallbacks = mech.target(vs, target, flags)
            mech.compare(us, vs, target, flags, fallbacks, s, tmp)
            if misr:
                self.degeneracies += fallbacks
            self._reset_u(s, b1, b2)
            self.t = t0 + k + 1
            if observer is not None:
                observer(k)

    def _block_targets(self, d, rows, s_k, observer):
        """The block, with v and the targets formed for all its steps first."""
        u, v, t0, K = self._u, self._v, self.t, len(rows)
        mech, tmp = self.mech, self._tmp
        # v <- a1 v - a2 (2 (I - b) - W), row k of d becoming v after step k
        last = v
        for k, r in enumerate(rows):
            if r[1] != 1.0:
                last = np.multiply(last, r[1], self._vs)
            last = np.subtract(last, d[k], d[k])
        # v_scale v, step by step with its operands first, and the targets of
        # all K steps in the spike rows
        scales = np.array([r[4] for r in rows])
        vs = d if (scales == 1.0).all() else np.multiply(d, scales[:, None, None, None])
        vs = vs.transpose(0, 2, 1, 3)
        flags = np.empty((K, 2, *s_k.shape[1:]), dtype=bool)
        vs_ops = vs.transpose(1, 0, 2, 3)
        fallbacks = mech.target(vs_ops, s_k, flags.transpose(1, 0, 2, 3))
        # only gelu and misr form products of u; with b1 = u_scale = 1, |u|
        # stays within |u| + sum |b2| over the block, which may show that
        # their comparisons need no np.errstate
        quiet = mech.kind in ("gelu", "misr") and (
            not all(r[3] == r[5] == 1.0 for r in rows) or mech.overflows(
                vs_ops, s_k, fallbacks, float(np.abs(u).max()) + sum(abs(r[6]) for r in rows)))
        if mech.kind == "misr" and observer is not None:
            # the degeneracies after each step
            ok = np.count_nonzero(flags[:, 1].reshape(K, -1), axis=1)
            seen = self.degeneracies + np.cumsum(s_k[0].size - ok)
        for k, (row, s, v_k, flags_k) in enumerate(zip(rows, s_k, vs, flags)):
            _, _, _, u_scale, _, b1, b2 = row
            # s = spike(u_scale u, v_scale v)
            us = u if u_scale == 1.0 else np.multiply(u, u_scale, self._us)
            mech.compare(us, v_k, s, flags_k, fallbacks, s, tmp, quiet)
            self._reset_u(s, b1, b2)
            self.t = t0 + k + 1
            if observer is not None:
                np.copyto(v, d[k])
                if mech.kind == "misr":
                    self.degeneracies = int(seen[k])
                observer(k)
        np.copyto(v, d[K - 1])
        if mech.kind == "misr" and observer is None:
            self.degeneracies += fallbacks

    def _reset_u(self, s, b1, b2):
        """u <- u / b1 - b2 (2 s - 1); b2 (2 s - 1) is +-b2, formed as
        2 b2 s - b2 where 2 b2 is finite."""
        u, pm = self._u, self._pm
        if abs(b2) <= _HALF_MAX:
            np.subtract(np.multiply(s, 2.0 * b2, pm), b2, pm)
        else:
            np.multiply(np.subtract(np.multiply(s, 2.0, pm), 1.0, pm), b2, pm)
        if b1 != 1.0:
            np.divide(u, b1, u)
        np.subtract(u, pm, u)

    @property
    def decoded(self) -> np.ndarray:
        """Signed-schedule decode of the emitted train after the last step."""
        if self.t == 0:
            return np.zeros_like(self.u)
        # eta(t)/beta2(t): the u scale of the next step
        return self.c.row(self.t + 1)[3] * self.u

    @property
    def decoded_input(self) -> np.ndarray:
        """Reconstruction of the decoded input activations, shaped like v:
        (arity, n), or (arity, batch, n)."""
        eta, _, a2, _, _ = self.c.at(self.t)
        return eta / a2 * self.v
