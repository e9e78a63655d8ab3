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


class SubgradNeuron:
    """Generalized subgradient-based neuron.

        u_pre(t) = alpha(t-1) u(t-1) + gamma(t) I(t)
        s(t)     = H(u_pre(t) - u_pre(0) * prod_{j=0..t-1} alpha(j))
        u(t)     = u_pre(t) - beta(t) s(t)

    The schedule decode of the emitted spikes tracks the subgradient method on
    the clipped-ReLU objective; `decoded` maintains that decode. `table`
    shares the `subgrad_step_factors` rows between the layers of one network.
    """

    def __init__(self, coeffs: SubgradCoefficients, n: int = 1, u_pre0: float = 0.0,
                 validate: bool = True, table: StepTable | None = None):
        if validate and not validate_subgrad_coefficients(coeffs, coeffs.schedule, t_max=32):
            raise ValueError("subgradient coefficients violate their constraint equations")
        self.c = coeffs
        self._factors = (table.__getitem__ if table is not None
                         else partial(subgrad_step_factors, coeffs))
        self.n = n
        self.u_pre0 = float(u_pre0)
        self.u = np.full(n, float(u_pre0))
        self.alpha_prod = 1.0
        self.t = 0
        self.y = np.zeros(n)
        self.spike_count = 0

    def reset(self):
        self.u[:] = self.u_pre0
        self.alpha_prod = 1.0
        self.t = 0
        self.y[:] = 0.0
        self.spike_count = 0

    def step(self, I) -> np.ndarray:
        self.t += 1
        alpha, gamma, beta, eta_t = self._factors(self.t)
        self.alpha_prod *= alpha
        u_pre = alpha * self.u + gamma * np.asarray(I, dtype=np.float64)
        s = heaviside(u_pre - self.u_pre0 * self.alpha_prod)
        self.u = u_pre - beta * s
        self.y = (1.0 - eta_t) * self.y + eta_t * s
        self.spike_count += int(np.sum(s))
        return s

    @property
    def decoded(self):
        return self.y


# ---------------------------------------------------------------------------
# Sign-based neuron.
# ---------------------------------------------------------------------------

_ARITY = {"relu": 1, "leaky": 1, "gelu": 1, "square": 1, "max2": 2, "misr": 2}
MECHANISMS = tuple(_ARITY)


@dataclass(frozen=True)
class FiringMechanism:
    """Heaviside condition over scaled (u, v) encoding a gradient sign.

    The branch structure is exclusive so the output stays binary at ties
    (H(0) = 1 everywhere; max2 lets the first operand win ties).
    """

    kind: str
    delta: float = 0.1

    def __post_init__(self):
        if self.kind not in _ARITY:
            raise ValueError(f"unknown firing mechanism {self.kind!r}")

    @property
    def arity(self) -> int:
        return _ARITY[self.kind]

    def spike(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """u: shape (n,); v: shape (arity, n), both already scale-corrected."""
        k = self.kind
        if k == "relu":
            v0 = v[0]
            return np.where(v0 >= 0, heaviside(u - v0), heaviside(u))
        if k == "leaky":
            v0 = v[0]
            return np.where(v0 >= 0, heaviside(u - v0), heaviside(u - self.delta * v0))
        if k == "gelu":
            v0 = v[0]
            return heaviside((1.0 + np.exp(-1.702 * v0)) * u - v0)
        if k == "square":
            return heaviside(u - v[0] ** 2)
        if k == "max2":
            sel = v[0] >= v[1]
            return heaviside(u - np.where(sel, v[0], v[1]))
        # mul-inverse-sqrt: target v1/sqrt(v2) needs v2 > 0; otherwise drive
        # the output toward zero (SignGdNeuron counts these degeneracies).
        v1, v2 = v[0], v[1]
        ok = v2 > 0
        pos_u = u >= 0
        pos_v1 = v1 >= 0
        with np.errstate(invalid="ignore", over="ignore"):
            lead = v2 * u * u - v1 * v1
        s = np.where(
            pos_u & pos_v1, heaviside(lead),
            np.where(~pos_u & ~pos_v1, heaviside(-lead), heaviside(u) * heaviside(-v1)),
        )
        return np.where(ok, s, heaviside(u))

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
    if not parts or parts[0] not in _ARITY:
        raise ValueError(f"unknown mechanism name {text!r}")
    if parts[0] == "leaky":
        delta = float(parts[1]) if len(parts) > 1 else 0.1
        return FiringMechanism("leaky", delta)
    if len(parts) > 1:
        raise ValueError(f"mechanism {parts[0]!r} takes no parameter")
    return FiringMechanism(parts[0])


class SignGdNeuron:
    """Sign-based neuron layer: n neurons of one mechanism sharing a schedule.

    W and b are the calibrated per-operand weight sums and idle currents,
    shape (arity, n). `step` takes the raw influx currents I of shape
    (arity, n) and returns the spike vector of shape (n,).

    A step reads its scalars once, as the `signgd_step_factors` row `f`;
    `table` shares those rows between the layers of one network.
    `degeneracies` counts misr evaluations with a non-positive denominator.
    """

    def __init__(self, mech: FiringMechanism, coeffs: SignGdCoefficients,
                 schedule: Schedule, W, b, n: int = 1, validate: bool = True,
                 table: StepTable | None = None):
        W = np.broadcast_to(np.asarray(W, dtype=np.float64), (mech.arity, n)).copy()
        b = np.broadcast_to(np.asarray(b, dtype=np.float64), (mech.arity, n)).copy()
        if validate and not validate_signgd_coefficients(coeffs, schedule, t_max=64, tol=1e-9):
            raise ValueError("sign-dynamics coefficients violate their constraint equations")
        self.mech = mech
        self.c = coeffs
        self.schedule = schedule
        self.W = W
        self.b = b
        self.n = n
        self._factors = (table.__getitem__ if table is not None
                         else partial(signgd_step_factors, coeffs, schedule))
        self.u = np.zeros(n)
        self.reset()

    def _v0(self) -> np.ndarray:
        scale = float(self.c.alpha2(0)) / float(self.schedule(0))
        return scale * self.b

    def reset(self):
        self.u[:] = 0.0
        self.v = self._v0()
        self.t = 0
        self.spike_count = 0
        self.degeneracies = 0
        self.f = self._factors(1)

    # -- the three stages of step t + 1 (factors f); step() runs them in order

    def integrate(self, I) -> np.ndarray:
        """Advance v with the raw currents of the step being processed."""
        _, a1, a2, _, _, _, _ = self.f
        I = np.asarray(I, dtype=np.float64).reshape(self.mech.arity, self.n)
        self.v = a1 * self.v - a2 * (2.0 * (I - self.b) - self.W)
        return self.v

    def fire(self) -> np.ndarray:
        _, _, _, u_scale, v_scale, _, _ = self.f
        v = v_scale * self.v
        if self.mech.kind == "misr":
            self.degeneracies += int(np.sum(~(v[1] > 0)))
        return self.mech.spike(u_scale * self.u, v)

    def reset_potential(self, s) -> np.ndarray:
        _, _, _, _, _, b1, b2 = self.f
        self.u = self.u / b1 - b2 * (2.0 * np.asarray(s) - 1.0)
        self.t += 1
        self.spike_count += int(np.sum(s))
        self.f = self._factors(self.t + 1)
        return self.u

    def step(self, I) -> np.ndarray:
        self.integrate(I)
        s = self.fire()
        self.reset_potential(s)
        return s

    @property
    def decoded(self) -> np.ndarray:
        """Signed-schedule decode of the emitted train after the last step."""
        if self.t == 0:
            return np.zeros(self.n)
        return self.f[3] * self.u  # eta(t)/beta2(t): the u scale of the next step

    @property
    def decoded_input(self) -> np.ndarray:
        """Reconstruction of the decoded input activations, shape (arity, n)."""
        scale = float(self.schedule(self.t)) / float(self.c.alpha2(self.t))
        return scale * self.v
