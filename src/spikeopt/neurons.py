"""Discrete neuronal dynamics: integrate-and-fire (plain and leaky), the
generalized subgradient-based neuron, and the sign-based neuron with pluggable
firing mechanisms.

All neuron classes hold vectorized state: `n` independent neurons that share
parameters and schedule advance in lockstep. Per-step order is
integrate(I(t)) -> fire(s(t)) -> reset(u(t+1)).

The subgradient and sign-based neurons step the coefficient set they are
given: its one check, `schedules.check_coefficients`, is made where it is
solved.

IF and LIF neurons take one step per `step()` call. The subgradient and
sign-based neurons take one step per `step(I)` call, or a block of K steps
per `step(I, steps=K, ...)` call, the form a network's layers and the
oracle check use. A block call splits the dynamics in two. The part that
never reads the state (the sign neuron's a2(t) (2 (I(t) - b) - W), the
subgradient neuron's gamma(t) I(t)) is formed once for the whole block.
The part that does (v's and u's recurrences, the firing comparison, the
decode y) then runs step by step in preallocated buffers, each expression
with the operations of the one-step form in the same order. A one-step call
is a block of one step, so there is one copy of the arithmetic, and a block
gives every step the bits that stepping it alone gives. An observer passed
to a block call is called after each of its steps and sees the state after
that step; the spike tally is added when the block ends.

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
and folds b once into v's initial condition.
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
]

_HALF_MAX = np.finfo(np.float64).max / 2  # the largest x whose 2 x is finite


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


class IfNeuron:
    """IF dynamics with reset-by-subtraction: u_pre = u + R*I, spike on
    u_pre >= theta, then u <- u_pre - theta*s. Output decoded by rate."""

    def __init__(self, params: IfLifParams, n: int = 1):
        self.p = params
        self.n = n
        self.u = np.full(n, float(params.u0))
        self.reset()

    def _decoder(self):
        return RateDecoder(self.n)

    def reset(self):
        self.u[:] = self.p.u0
        self.t = 0
        self.decoder = self._decoder()
        self.spike_count = 0

    def step(self, I) -> np.ndarray:
        self.t += 1
        u_pre = self.u + self.p.R * np.asarray(I, dtype=np.float64)
        s = heaviside(u_pre - self.p.theta_th)
        self.u = u_pre - self.p.theta_th * s
        self.decoder.step(s)
        self.spike_count += int(np.sum(s))
        return s

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

    def _decoder(self):
        return EmaDecoder(self.p.tau_m, self.n)

    def step(self, I) -> np.ndarray:
        p = self.p
        self.t += 1
        u_pre = self.u - (self.u - p.u_rest) / p.tau_m + (p.R / p.tau_m) * np.asarray(I, dtype=np.float64)
        s = heaviside(u_pre - p.theta_th)
        self.u = u_pre - p.theta_th * s
        self.decoder.step(s)
        self.spike_count += int(np.sum(s))
        return s


class _SpikeTally:
    """Each neuron's spikes since reset, kept as a float tally `_fired` that a
    block call adds its spikes to once (float counts are exact to 2**53)."""

    @property
    def spike_count(self):
        """Spikes fired since reset: an int, or (batch,) ints."""
        return self._fired.sum(-1).astype(np.int64)

    def _tally(self, spikes):
        """Add a block's (K, B, n) spikes to the tally."""
        fired = self._fired.reshape(spikes.shape[1:])
        np.add(fired, spikes.sum(0), fired)


def _currents(I, steps, shape):
    """(K, currents) of a step call: one step's currents in `shape`, or the
    K B rows of a block of K = `steps` steps."""
    I = np.asarray(I, dtype=np.float64)
    return (1, I.reshape(shape)) if steps is None else (steps, I)


class SubgradNeuron(_SpikeTally):
    """Generalized subgradient-based neuron.

        u_pre(t) = alpha(t-1) u(t-1) + gamma(t) I(t),   u(0) = 0
        s(t)     = H(u_pre(t))
        u(t)     = u_pre(t) - beta(t) s(t)

    The schedule decode of the emitted spikes tracks the subgradient method on
    the clipped-ReLU objective; `decoded` maintains that decode. A step reads
    its scalars as the coefficient set's row of its t (`coeffs.row(t)`).
    `reset(batch)` gives the state a leading axis of `batch` items.

    `step(I)` takes one step's currents, shaped like u, and returns its
    spikes as a new array. `step(I, steps=K, out=, scratch=, observer=)`
    steps a block: I holds K B rows of n currents (row k B + b is step k of
    item b), and the K B spike rows go to `out`. gamma(t) I(t) is formed
    once for the whole block, into `scratch` if given (it may be I itself);
    only the recurrence on u, the firing comparison and the decode y run per
    step, in place, each expression in its comment with the same operations
    in the same order. `observer(k)`, if given, is called after step k:
    u, y, t and `decoded` are then those after step k, while `spike_count`
    adds the block's spikes when the block ends.
    """

    def __init__(self, coeffs: SubgradCoefficients, n: int = 1):
        self.c = coeffs
        self.n = n
        self.reset()

    def reset(self, batch: int | None = None):
        shape = (self.n,) if batch is None else (batch, self.n)
        self.u, self.y = np.zeros(shape), np.zeros(shape)
        self._x = np.empty(shape)
        self._fired = np.zeros(shape)
        self.t = 0

    def step(self, I, steps=None, out=None, scratch=None, observer=None) -> np.ndarray:
        shape = self.u.shape
        K, I = _currents(I, steps, shape)
        B = self.u.size // self.n
        u, y, x = self.u.reshape(B, -1), self.y.reshape(B, -1), self._x.reshape(B, -1)
        spikes = np.empty((K * B, self.n)) if out is None else out
        s_k = spikes.reshape(K, B, -1)
        t0, row = self.t, self.c.row
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
            # y <- (1 - eta) y + eta s; eta s is beta s when eta == beta
            np.multiply(y, 1.0 - eta_t, y)
            if eta_t != beta:
                np.multiply(s, eta_t, x)
            np.add(y, x, y)
            self.t = t0 + k + 1
            if observer is not None:
                observer(k)
        self._tally(s_k)
        return spikes if steps is not None else spikes.reshape(shape)

    @property
    def decoded(self):
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
        v0 < -417) becomes inf, and the comparison gives the spike the
        difference would. At u = 0 gelu's rule is H(-v0); the overflowed
        inf * 0 is NaN, so gelu fires there on (u == 0) & (v0 <= 0), which
        repeats its comparison wherever exp is finite.
        """
        u, v = np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)
        shape = np.broadcast_shapes(u.shape, v.shape[1:])
        out = np.empty(shape)
        self.fire(u, v, out, self.scratch(shape))
        return out

    @staticmethod
    def scratch(shape) -> tuple:
        """The buffers `fire` needs for spikes of `shape`: two float, four bool."""
        return ((np.empty(shape), np.empty(shape)),
                tuple(np.empty(shape, dtype=bool) for _ in range(4)))

    def fire(self, u, v, out, tmp) -> int:
        """Write the spikes of `spike(u, v)` into `out` through the `scratch`
        buffers `tmp`, and return how many evaluations fell back (misr with
        v2 <= 0; 0 for every other rule). Each rule reaches its spikes as
        booleans, which one copy turns into `out`'s 0.0/1.0. The rules whose
        targets can overflow silence overflow and invalid-value warnings."""
        (f0, f1), (b0, b1, b2, b3) = tmp
        k, fallbacks = self.kind, 0
        if k == "relu":
            np.greater_equal(u, np.maximum(v[0], 0.0, out=f0), b0)
        elif k == "max2":
            np.greater_equal(u, np.maximum(v[0], v[1], out=f0), b0)
        elif k == "leaky":
            # target where(v0 >= 0, v0, delta v0)
            v0 = v[0]
            np.multiply(v0, self.delta, f0)
            np.copyto(f0, v0, where=np.greater_equal(v0, 0.0, b0))
            np.greater_equal(u, f0, b0)
        elif k == "square":
            with np.errstate(over="ignore"):
                np.greater_equal(u, np.square(v[0], f0), b0)
        elif k == "gelu":
            v0 = v[0]
            # (1 + exp(-1.702 v0)) u >= v0, or u == 0 and v0 <= 0
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply(v0, -1.702, f0)
                np.exp(f0, f0)
                np.add(f0, 1.0, f0)
                np.multiply(f0, u, f0)
                np.greater_equal(f0, v0, b0)
            np.logical_and(np.equal(u, 0.0, b1), np.less_equal(v0, 0.0, b2), b1)
            np.logical_or(b0, b1, b0)
        else:
            # mul-inverse-sqrt: target v1/sqrt(v2) needs v2 > 0; otherwise drive
            # the output toward zero (SignGdNeuron counts these degeneracies).
            # With u and v1 of one sign the rule is H(+-lead), lead = v2 u^2 - v1^2;
            # with mixed signs it is H(u) H(-v1), which is H(u) then.
            v1, v2 = v[0], v[1]
            with np.errstate(invalid="ignore", over="ignore"):
                np.multiply(v2, u, f0)
                np.multiply(f0, u, f0)
                np.subtract(f0, np.multiply(v1, v1, f1), f0)  # lead
            pu = np.greater_equal(u, 0.0, b0)
            hit = np.less_equal(f0, 0.0, b1)  # H(-lead), and H(lead) where u >= 0
            np.copyto(hit, np.greater_equal(f0, 0.0, b2), where=pu)
            same = np.equal(pu, np.greater_equal(v1, 0.0, b2), b2)
            ok = np.greater(v2, 0.0, b3)
            np.copyto(pu, hit, where=np.logical_and(same, ok, same))
            fallbacks = ok.size - np.count_nonzero(ok)
        np.copyto(out, b0)
        return fallbacks

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


class SignGdNeuron(_SpikeTally):
    """Sign-based neuron layer: n neurons of one mechanism sharing a schedule.

    W and b are the calibrated per-operand weight sums and idle currents,
    shape (arity, n). `reset(batch)` gives the state a leading item axis:
    u is (n,), or (batch, n), and v, like the currents of one step, is
    (arity, n), or (arity, batch, n).

    `step(I)` takes one step's raw influx currents and returns its spikes,
    shaped like u, as a new array. `step(I, steps=K, out=, scratch=,
    observer=)` steps a block: I holds K B rows of arity n currents (row
    k B + b is step k of item b, operand by operand), and the K B spike rows
    go to `out`. The part that does not read the state,
    a2(t) (2 (I(t) - b) - W), is formed once for the whole block, into
    `scratch` if given (it may be I itself). Only v's recurrence, the firing
    comparison and u's reset run per step, in place, each expression in its
    comment with the same operations in the same order, so u and v keep
    every bit the expression gives them; a factor of 1.0 (a1, b1 and both
    scales in the canonical parameterization) is skipped, as x 1.0 and
    x / 1.0 are x. `observer(k)`, if given, is called after step k: u, v,
    t, `degeneracies` and `decoded` are then those after step k, while
    `spike_count` adds the block's spikes when the block ends.

    A step reads its scalars as the coefficient set's row of its t
    (`coeffs.row(t)`), which the set evaluates once for every layer it serves.
    `degeneracies` counts misr evaluations with a non-positive denominator.
    """

    def __init__(self, mech: FiringMechanism, coeffs: SignGdCoefficients, W, b, n: int = 1):
        self.mech = mech
        self.c = coeffs
        self.W = np.broadcast_to(np.asarray(W, dtype=np.float64), (mech.arity, n)).copy()
        self.b = np.broadcast_to(np.asarray(b, dtype=np.float64), (mech.arity, n)).copy()
        self.n = n
        self.reset()

    def reset(self, batch: int | None = None):
        B, arity = batch or 1, self.mech.arity
        # the state item by item: u (B, n), v (B, arity, n) like a block row
        self._u = np.zeros((B, self.n))
        scale = float(self.c.alpha2(0)) / float(self.c.schedule(0))
        self._v = np.broadcast_to(scale * self.b, (B, arity, self.n)).copy()
        self.u = self._u[0] if batch is None else self._u
        self.v = self._v[0] if batch is None else self._v.transpose(1, 0, 2)
        # v and v_scale v with their operands first, as `fire` reads them;
        # u_scale u; +-b2; the firing rule's buffers
        self._vs = np.empty_like(self._v)
        self._v_ops, self._vs_ops = self._v.transpose(1, 0, 2), self._vs.transpose(1, 0, 2)
        self._us, self._pm = np.empty_like(self._u), np.empty_like(self._u)
        self._tmp = self.mech.scratch(self._u.shape)
        self._fired = np.zeros(self.u.shape)
        self.t = 0
        self.degeneracies = 0

    def step(self, I, steps=None, out=None, scratch=None, observer=None) -> np.ndarray:
        u, v, pm = self._u, self._v, self._pm
        B, arity, n = v.shape
        K, I = _currents(I, steps, self.v.shape)
        if steps is None:  # one step's (arity, [B,] n) currents, item by item
            I = I.reshape(arity, B, n).transpose(1, 0, 2)
        spikes = np.empty((K * B, n)) if out is None else out
        s_k = spikes.reshape(K, B, n)
        t0, row = self.t, self.c.row
        rows = [row(t) for t in range(t0 + 1, t0 + K + 1)]
        # a2(t) (2 (I(t) - b) - W), the state-free part, for the whole block
        d = np.subtract(I.reshape(K, B, arity, n), self.b,
                        None if scratch is None else scratch.reshape(K, B, arity, n))
        np.multiply(d, 2.0, d)
        np.subtract(d, self.W, d)
        np.multiply(d, np.array([r[2] for r in rows])[:, None, None, None], d)
        fire, tmp = self.mech.fire, self._tmp
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
            self.degeneracies += fire(us, vs, s, tmp)
            # u <- u / b1 - b2 (2 s - 1); b2 (2 s - 1) is +-b2, formed as
            # 2 b2 s - b2 where 2 b2 is finite
            if abs(b2) <= _HALF_MAX:
                np.subtract(np.multiply(s, 2.0 * b2, pm), b2, pm)
            else:
                np.multiply(np.subtract(np.multiply(s, 2.0, pm), 1.0, pm), b2, pm)
            if b1 != 1.0:
                np.divide(u, b1, u)
            np.subtract(u, pm, u)
            self.t = t0 + k + 1
            if observer is not None:
                observer(k)
        self._tally(s_k)
        return spikes if steps is not None else spikes.reshape(self.u.shape)

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
        scale = float(self.c.schedule(self.t)) / float(self.c.alpha2(self.t))
        return scale * self.v
