"""Discrete neuronal dynamics: integrate-and-fire (plain and leaky), the
generalized subgradient-based neuron, and the sign-based neuron with pluggable
firing mechanisms.

All neuron classes hold vectorized state: `n` independent neurons that share
parameters and schedule advance in lockstep, one `step()` per global time
step. Per-step order is integrate(I(t)) -> fire(s(t)) -> reset(u(t+1)).

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

Raw influx currents carry the layer bias at every step, so integrate
subtracts the calibrated idle current b before the spike-to-sign translation
and folds b once into v's initial condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .codec import EmaDecoder, RateDecoder, heaviside
from .schedules import (
    Schedule,
    SignGdCoefficients,
    StepTable,
    SubgradCoefficients,
    signgd_step_factors,
    subgrad_step_factors,
    validate_signgd_coefficients,
    validate_subgrad_coefficients,
)

__all__ = [
    "IfLifParams",
    "IfNeuron",
    "LifNeuron",
    "SubgradNeuron",
    "check_subgrad_coefficients",
    "check_signgd_coefficients",
    "FiringMechanism",
    "parse_mechanism",
    "SignGdNeuron",
    "MECHANISMS",
]


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


def check_subgrad_coefficients(coeffs: SubgradCoefficients) -> None:
    """Raise ValueError unless the coefficients meet their constraints to t = 32."""
    if not validate_subgrad_coefficients(coeffs, coeffs.schedule, t_max=32):
        raise ValueError("subgradient coefficients violate their constraint equations")


def check_signgd_coefficients(coeffs: SignGdCoefficients, schedule: Schedule) -> None:
    """Raise ValueError unless the coefficients meet their constraints to t = 64."""
    if not validate_signgd_coefficients(coeffs, schedule, t_max=64, tol=1e-9):
        raise ValueError("sign-dynamics coefficients violate their constraint equations")


class _SpikeTally:
    """Each neuron's spikes since reset, kept as a float tally `_fired` with
    one add per step (float counts are exact to 2**53)."""

    @property
    def spike_count(self):
        """Spikes fired since reset: an int, or (batch,) ints."""
        return self._fired.sum(-1).astype(np.int64)


class SubgradNeuron(_SpikeTally):
    """Generalized subgradient-based neuron.

        u_pre(t) = alpha(t-1) u(t-1) + gamma(t) I(t),   u(0) = 0
        s(t)     = H(u_pre(t))
        u(t)     = u_pre(t) - beta(t) s(t)

    The schedule decode of the emitted spikes tracks the subgradient method on
    the clipped-ReLU objective; `decoded` maintains that decode. `table`
    shares the `subgrad_step_factors` rows between the layers of one network.
    `reset(batch)` gives the state a leading axis of `batch` items.

    A step computes each expression in its comment with the same operations
    in the same order, into three scratch buffers, and writes u and the
    decode y last, in place; the spikes it returns are new arrays.
    """

    def __init__(self, coeffs: SubgradCoefficients, n: int = 1, validate: bool = True,
                 table: StepTable | None = None):
        if validate:
            check_subgrad_coefficients(coeffs)
        self.c = coeffs
        self._factors = (table.__getitem__ if table is not None
                         else partial(subgrad_step_factors, coeffs))
        self.n = n
        self.reset()

    def reset(self, batch: int | None = None):
        shape = (self.n,) if batch is None else (batch, self.n)
        self.u = np.zeros(shape)
        self.t = 0
        self.y = np.zeros(shape)
        self._x, self._y, self._z = np.empty(shape), np.empty(shape), np.empty(shape)
        self._fired = np.zeros(shape)

    def step(self, I) -> np.ndarray:
        self.t += 1
        alpha, gamma, beta, eta_t = self._factors(self.t)
        I = np.asarray(I, dtype=np.float64).reshape(self.u.shape)
        x, y, z = self._x, self._y, self._z
        # u_pre = alpha u + gamma I
        np.multiply(self.u, alpha, x)
        np.multiply(I, gamma, y)
        np.add(x, y, z)
        # s = H(u_pre)
        s = (z >= 0).astype(np.float64)
        # u <- u_pre - beta s
        np.multiply(s, beta, x)
        np.subtract(z, x, self.u)
        # y <- (1 - eta) y + eta s
        np.multiply(self.y, 1.0 - eta_t, x)
        np.multiply(s, eta_t, z)
        np.add(x, z, self.y)
        np.add(self._fired, s, self._fired)
        return s

    @property
    def decoded(self):
        return self.y


# ---------------------------------------------------------------------------
# Sign-based neuron.
# ---------------------------------------------------------------------------

# firing mechanism -> (operand count, the ANN operator kind it replaces)
MECHANISMS = {
    "relu": (1, "relu"), "leaky": (1, "leaky_relu"), "gelu": (1, "gelu"),
    "square": (1, "square"), "max2": (2, "max2"), "misr": (2, "mul_inv_sqrt"),
}


@dataclass(frozen=True)
class FiringMechanism:
    """Heaviside condition over scaled (u, v) encoding a gradient sign.

    Every rule but misr is one comparison: u >= m(v) against the target
    m(v) of its nonlinearity, or (1 + exp(-1.702 v0)) u >= v0 for gelu,
    which at u = 0 is v0 <= 0. A tie fires, as H(0) = 1 does.
    """

    kind: str
    delta: float = 0.1

    def __post_init__(self):
        if self.kind not in MECHANISMS:
            raise ValueError(f"unknown firing mechanism {self.kind!r}")

    @property
    def arity(self) -> int:
        return MECHANISMS[self.kind][0]

    def spike(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """u: shape (n,); v: shape (arity, n), both already scale-corrected.

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
        k = self.kind
        if k == "relu":
            return (u >= np.maximum(v[0], 0.0)).astype(np.float64)
        if k == "max2":
            return (u >= np.maximum(v[0], v[1])).astype(np.float64)
        if k == "leaky":
            v0 = v[0]
            return (u >= np.where(v0 >= 0, v0, self.delta * v0)).astype(np.float64)
        if k == "square":
            with np.errstate(over="ignore"):
                return (u >= v[0] ** 2).astype(np.float64)
        if k == "gelu":
            v0 = v[0]
            with np.errstate(over="ignore", invalid="ignore"):
                fire = (1.0 + np.exp(-1.702 * v0)) * u >= v0
            return (fire | ((u == 0) & (v0 <= 0))).astype(np.float64)
        # mul-inverse-sqrt: target v1/sqrt(v2) needs v2 > 0; otherwise drive
        # the output toward zero (SignGdNeuron counts these degeneracies).
        # With u and v1 of one sign the rule is H(+-lead), lead = v2 u^2 - v1^2;
        # with mixed signs it is H(u) H(-v1), which is H(u) then.
        v1, v2 = v[0], v[1]
        pu, pv = u >= 0, v1 >= 0
        with np.errstate(invalid="ignore", over="ignore"):
            lead = v2 * u * u - v1 * v1
        s = np.where(pu & pv, lead >= 0, np.where(pu | pv, pu, lead <= 0))
        return np.where(v2 > 0, s, pu).astype(np.float64)

    @property
    def name(self) -> str:
        if self.kind == "leaky":
            return f"signgd:leaky:{self.delta:g}"
        return f"signgd:{self.kind}"


def parse_mechanism(text: str) -> FiringMechanism:
    """Parse stable mechanism names: signgd:relu, signgd:leaky:<delta>, ..."""
    parts = text.split(":")
    if parts[0] == "signgd":
        parts = parts[1:]
    if not parts or parts[0] not in MECHANISMS:
        raise ValueError(f"unknown mechanism name {text!r}")
    if parts[0] == "leaky":
        delta = float(parts[1]) if len(parts) > 1 else 0.1
        return FiringMechanism("leaky", delta)
    if len(parts) > 1:
        raise ValueError(f"mechanism {parts[0]!r} takes no parameter")
    return FiringMechanism(parts[0])


class SignGdNeuron(_SpikeTally):
    """Sign-based neuron layer: n neurons of one mechanism sharing a schedule.

    W and b are the calibrated per-operand weight sums and idle currents,
    shape (arity, n). `step` takes the raw influx currents I of shape
    (arity, n) and returns the spike vector of shape (n,). `reset(batch)`
    gives the state a leading item axis: the currents are then
    (arity, batch, n), the spikes (batch, n), and W and b broadcast over it.

    A step reads its scalars once, as the `signgd_step_factors` row `f`;
    `table` shares those rows between the layers of one network.
    `degeneracies` counts misr evaluations with a non-positive denominator.
    The spikes a step returns are new arrays; u and v, which `integrate` and
    `reset_potential` return, are updated in place by the next step.
    """

    def __init__(self, mech: FiringMechanism, coeffs: SignGdCoefficients,
                 schedule: Schedule, W, b, n: int = 1, validate: bool = True,
                 table: StepTable | None = None):
        W = np.broadcast_to(np.asarray(W, dtype=np.float64), (mech.arity, n)).copy()
        b = np.broadcast_to(np.asarray(b, dtype=np.float64), (mech.arity, n)).copy()
        if validate:
            check_signgd_coefficients(coeffs, schedule)
        self.mech = mech
        self.c = coeffs
        self.schedule = schedule
        self.W = W
        self.b = b
        self.n = n
        self._factors = (table.__getitem__ if table is not None
                         else partial(signgd_step_factors, coeffs, schedule))
        self.reset()

    def reset(self, batch: int | None = None):
        shape = (self.n,) if batch is None else (batch, self.n)
        # W and b as they broadcast against v, shape (arity, *shape)
        self._W, self._b = (self.W, self.b) if batch is None else (self.W[:, None], self.b[:, None])
        self.u = np.zeros(shape)
        scale = float(self.c.alpha2(0)) / float(self.schedule(0))
        self.v = np.broadcast_to(scale * self._b, (self.mech.arity, *shape)).copy()
        # two scratch buffers shaped like v and two like u
        self._vx, self._vy = np.empty_like(self.v), np.empty_like(self.v)
        self._ux, self._uy = np.empty_like(self.u), np.empty_like(self.u)
        self._fired = np.zeros(shape)
        self.t = 0
        self.degeneracies = 0
        self.f = self._factors(1)

    # -- the three stages of step t + 1 (factors f); step() runs them in order.
    # Each computes the expression in its comment with the same operations in
    # the same order, so u and v keep every bit the expression gives them.
    # Intermediates go to the scratch buffers and the last operation writes
    # u or v, so none of them writes over its own operand (numpy copies such
    # an operand first when it has one element, as in the standalone n = 1
    # neuron). The spike tally is the one update in place.

    def integrate(self, I) -> np.ndarray:
        """Advance v with the raw currents of the step being processed."""
        _, a1, a2, _, _, _, _ = self.f
        I = np.asarray(I, dtype=np.float64).reshape(self.v.shape)
        x, y, v = self._vx, self._vy, self.v
        # v <- a1 v - a2 (2 (I - b) - W)
        np.subtract(I, self._b, x)
        np.multiply(x, 2.0, y)
        np.subtract(y, self._W, x)
        np.multiply(x, a2, y)
        np.multiply(v, a1, x)
        np.subtract(x, y, v)
        return v

    def fire(self) -> np.ndarray:
        _, _, _, u_scale, v_scale, _, _ = self.f
        # spike(u_scale u, v_scale v)
        v = np.multiply(self.v, v_scale, self._vx)
        if self.mech.kind == "misr":
            self.degeneracies += v[1].size - np.count_nonzero(v[1] > 0)
        return self.mech.spike(np.multiply(self.u, u_scale, self._ux), v)

    def reset_potential(self, s) -> np.ndarray:
        _, _, _, _, _, b1, b2 = self.f
        s = np.asarray(s)
        x, y, u = self._ux, self._uy, self.u
        # u <- u / b1 - b2 (2 s - 1)
        np.multiply(s, 2.0, x)
        np.subtract(x, 1.0, y)
        np.multiply(y, b2, x)
        np.divide(u, b1, y)
        np.subtract(y, x, u)
        np.add(self._fired, s, self._fired)
        self.t += 1
        self.f = self._factors(self.t + 1)
        return u

    def step(self, I) -> np.ndarray:
        self.integrate(I)
        s = self.fire()
        self.reset_potential(s)
        return s

    @property
    def decoded(self) -> np.ndarray:
        """Signed-schedule decode of the emitted train after the last step."""
        if self.t == 0:
            return np.zeros_like(self.u)
        return self.f[3] * self.u  # eta(t)/beta2(t): the u scale of the next step

    @property
    def decoded_input(self) -> np.ndarray:
        """Reconstruction of the decoded input activations, shaped like v:
        (arity, n), or (arity, batch, n)."""
        scale = float(self.schedule(self.t)) / float(self.c.alpha2(self.t))
        return scale * self.v
