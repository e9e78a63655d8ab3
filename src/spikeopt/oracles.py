"""Optimizer-form reference implementations.

For every neuronal dynamics in `neurons` there is an iteration here that the
spike trace must reproduce exactly:

  * rate-coded IF       <->  subgradient method, step 1/(t+1), on
                             ReLU(R x/theta - y) + y^2/2
  * EMA-coded LIF       <->  subgradient method, constant step 1/tau
  * sign-based neuron   <->  sign gradient descent with schedule eta(t) on
                             |y - f(x)|^2 / 2

plus the output transforms that map decoded neuron output into the oracle's
coordinate, and the convergence bound with its nondifferentiability and input
error terms.

Each trace oracle replays a whole trace through `run(I)`, which returns the
spikes and the iterate f after every step. The IF, LIF and subgradient
oracles step their one-step numpy form once per row. The sign-gradient
oracle forms what does not depend on its iterate once per block: the decoded
inputs x(t) as one left fold and every target f(x(t)) in one call. It steps
only the iterate, neuron by neuron, on Python floats, whose -, * and >= are
the IEEE double operations numpy applies, so its bits are those of a
step-by-step replay; its `step` is a run of one step, a block of one row.

Sign conventions mirror the neurons: H(0) = 1, hence sign(0) = +1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .codec import heaviside, sigmoid
from .neurons import MECHANISMS
from .schedules import Schedule

__all__ = [
    "reference_nonlinearity",
    "IfObjective",
    "LifObjective",
    "SqErrObjective",
    "subgradient_step",
    "gradient_sign",
    "signgd_oracle_step",
    "if_transform",
    "lif_transform",
    "convergence_bound",
    "BoundChecker",
    "IfRateOracle",
    "LifEmaOracle",
    "SubgradOracle",
    "SignGdOracle",
]


def relu(x):
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def relu1(x):
    return np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)


def gelu_sigmoid(x):
    """The sigmoid approximation x / (1 + exp(-1.702 x))."""
    x = np.asarray(x, dtype=np.float64)
    return x * sigmoid(1.702 * x)


def reference_nonlinearity(kind: str, x, delta: float = 0.1):
    """Exact real-arithmetic target values for each firing mechanism (and
    relu1), the ANN reference's too (`model.node_forward`) but for misr's.

    Two-operand kinds (`neurons.MECHANISMS`) take x as a pair (or an array
    with a leading axis of length 2), whose operands broadcast.
    """
    if MECHANISMS.get(kind, (1,))[0] == 2:
        x1, x2 = np.asarray(x[0], dtype=np.float64), np.asarray(x[1], dtype=np.float64)
        if kind == "max2":
            return np.maximum(x1, x2)
        if np.any(x2 <= 0):
            raise ValueError("mul-inverse-sqrt needs a positive second operand")
        return x1 / np.sqrt(x2)
    x = np.asarray(x, dtype=np.float64)
    if kind == "relu":
        return relu(x)
    if kind == "relu1":
        return relu1(x)
    if kind == "leaky":
        with np.errstate(over="ignore"):  # an overflowed target is inf, as the neuron's is
            return np.where(x >= 0, x, delta * x)
    if kind == "gelu":
        return gelu_sigmoid(x)
    if kind == "square":
        with np.errstate(over="ignore"):  # an overflowed target is inf, as the neuron's is
            return x**2
    raise ValueError(f"unknown nonlinearity kind {kind!r}")


# ---------------------------------------------------------------------------
# Objectives: evaluable value L(y; x) and subgradient g(y; x).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IfObjective:
    """ReLU(R x/theta - y) + y^2/2; minimizer ReLU1(R x/theta)."""

    theta: float = 1.0
    R: float = 1.0

    def value(self, y, x):
        z = (self.R / self.theta) * np.asarray(x, dtype=np.float64)
        return relu(z - y) + 0.5 * np.asarray(y) ** 2

    def grad(self, y, x):
        z = (self.R / self.theta) * np.asarray(x, dtype=np.float64)
        return np.asarray(y) - heaviside(z - y)

    def minimizer(self, x):
        return relu1((self.R / self.theta) * np.asarray(x, dtype=np.float64))


@dataclass(frozen=True)
class LifObjective:
    """y^2/2 + u_rest y/(theta (tau-1)) + ReLU(R x/(theta (tau-1)) - 1/(tau-1) - y).

    For u_rest = 0 the minimizer is ReLU1(R x/(theta (tau-1)) - 1/(tau-1));
    no closed form is claimed otherwise.
    """

    theta: float = 1.0
    R: float = 1.0
    tau: float = 10.0
    u_rest: float = 0.0

    def _kink(self, x):
        d = self.theta * (self.tau - 1.0)
        return (self.R * np.asarray(x, dtype=np.float64) - self.theta) / d

    def value(self, y, x):
        y = np.asarray(y, dtype=np.float64)
        lin = self.u_rest / (self.theta * (self.tau - 1.0))
        return 0.5 * y**2 + lin * y + relu(self._kink(x) - y)

    def grad(self, y, x):
        lin = self.u_rest / (self.theta * (self.tau - 1.0))
        return np.asarray(y) + lin - heaviside(self._kink(x) - np.asarray(y))

    def minimizer(self, x):
        if self.u_rest != 0.0:
            raise ValueError("closed-form minimizer is only stated for u_rest = 0")
        return relu1(self._kink(x))


@dataclass(frozen=True)
class SqErrObjective:
    """|y - f(x)|^2 / 2 for a target nonlinearity f; smooth in y."""

    kind: str
    delta: float = 0.1

    def target(self, x):
        return reference_nonlinearity(self.kind, x, self.delta)

    def value(self, y, x):
        return 0.5 * (np.asarray(y) - self.target(x)) ** 2

    def grad(self, y, x):
        return np.asarray(y) - self.target(x)

    def minimizer(self, x):
        return self.target(x)


def subgradient_step(f, x, obj, eta_t: float):
    """One subgradient update f - eta_t * g(f; x)."""
    return np.asarray(f) - eta_t * obj.grad(f, x)


def _sign_plus(z):
    """sign with sign(0) = +1, mirroring H(0) = 1."""
    return 2.0 * heaviside(z) - 1.0


def gradient_sign(f, x, obj):
    """sign(g(f; x)) with sign(0) = +1.

    For the mul-inverse-sqrt target with a non-positive second operand the
    gradient is undefined; the sign falls back to the sign of f itself,
    matching the neuron's degeneracy contract.
    """
    f = np.asarray(f, dtype=np.float64)
    if getattr(obj, "kind", None) == "misr":
        x = np.asarray(x, dtype=np.float64)
        ok = x[1] > 0
        safe_x2 = np.where(ok, x[1], 1.0)
        g = f - x[0] / np.sqrt(safe_x2)
        return np.where(ok, _sign_plus(g), _sign_plus(f))
    return _sign_plus(obj.grad(f, x))


def signgd_oracle_step(f, x, obj, eta_t: float):
    """One sign-gradient update f - eta_t * sign(g(f; x))."""
    return np.asarray(f, dtype=np.float64) - eta_t * gradient_sign(f, x, obj)


# ---------------------------------------------------------------------------
# Output transforms into oracle coordinates.
# ---------------------------------------------------------------------------


def if_transform(y_t, t: int, u0: float = 0.0, theta: float = 1.0):
    """Map rate-decoded IF output y(t) into the subgradient iterate."""
    return (t / (t + 1.0)) * np.asarray(y_t) - (u0 - theta) / (theta * (t + 1.0))


def lif_transform(y_t, t: int, u0: float = 0.0, u_rest: float = 0.0,
                  theta: float = 1.0, tau: float = 10.0):
    """Map EMA-decoded LIF output y(t) into the constant-step iterate."""
    rho = (tau - 1.0) / tau
    geom = (1.0 - rho ** (t + 1)) * tau  # sum_{i=0..t} rho^(t-i)
    return (
        np.asarray(y_t)
        - (rho**t) * u0 / (tau * theta)
        - u_rest * geom / (theta * tau * (tau - 1.0))
    )


# ---------------------------------------------------------------------------
# Convergence bound.
# ---------------------------------------------------------------------------


def nondiff_weight(i):
    """h(i) = 1 - sqrt((i-1)/(i+1)); the per-step nondifferentiability error."""
    i = np.asarray(i, dtype=np.float64)
    return 1.0 - np.sqrt((i - 1.0) / (i + 1.0))


def convergence_bound(f0: float, f_star: float, M: float, x: float,
                      x_tilde_history, t: int) -> float:
    """Upper bound on (f_tilde(t) - f*)^2 for the rate-coded IF iterate.

        (f0 - f*)^2/(t+1) + (M+1)/(t+1) * sum_{i<=t} h(i)
                          + 4/(t+1) * sum_{i<=t} min(|x - x_tilde(i)|, 1)

    M must dominate max_i |f_tilde(i)| over the trace; the bound is only valid
    under that cap, so `BoundChecker.check_m` warns when a trace violates it
    instead of assuming it holds.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    xs = np.asarray(x_tilde_history, dtype=np.float64)[:t]
    if xs.shape[0] < t:
        raise ValueError(f"need {t} input estimates, got {xs.shape[0]}")
    i = np.arange(1, t + 1)
    nd = float(np.sum(nondiff_weight(i)))
    ie = float(np.sum(np.minimum(np.abs(x - xs), 1.0)))
    return ((f0 - f_star) ** 2 + (M + 1.0) * nd + 4.0 * ie) / (t + 1.0)


class BoundChecker:
    """Streaming form of the bound: push x_tilde(i) step by step, query bound(t).

    Vectorized over a batch of independent traces.
    """

    def __init__(self, f0, f_star, M, x):
        self.f0 = np.asarray(f0, dtype=np.float64)
        self.f_star = np.asarray(f_star, dtype=np.float64)
        self.M = np.asarray(M, dtype=np.float64)
        self.x = np.asarray(x, dtype=np.float64)
        self.t = 0
        self._nd = 0.0
        self._ie = np.zeros_like(self.x)

    def push(self, x_tilde):
        self.t += 1
        self._nd += float(nondiff_weight(self.t))
        self._ie = self._ie + np.minimum(np.abs(self.x - np.asarray(x_tilde)), 1.0)

    def bound(self):
        if self.t < 1:
            raise ValueError("push at least one step first")
        return (
            (self.f0 - self.f_star) ** 2 + (self.M + 1.0) * self._nd + 4.0 * self._ie
        ) / (self.t + 1.0)

    def check_m(self, f_trace_max):
        if np.any(np.asarray(f_trace_max) > self.M):
            warnings.warn(
                "trace exceeded the bound's norm cap M; the bound is not valid there",
                RuntimeWarning,
            )


# ---------------------------------------------------------------------------
# Trace oracles: run the optimizer form step-for-step next to a neuron.
# ---------------------------------------------------------------------------


class _SteppedOracle:
    """An oracle whose trace form steps its one-step form once per row."""

    def run(self, I):
        """Consume a trace whose K rows are the currents `step` takes;
        return the spikes and the iterate f after each step, both (K, n)."""
        spikes, f = np.empty((len(I), self.n)), np.empty((len(I), self.n))
        for k, row in enumerate(I):
            spikes[k] = self.step(row)
            f[k] = self.f
        return spikes, f


class IfRateOracle(_SteppedOracle):
    """Subgradient iterate equivalent to a rate-coded IF neuron.

    State is kept in exact summed form: the iterate is
    f(t) = (f(0) + #spikes) / (t+1) and the input estimate is the running
    mean of currents. Divisions happen at read time, so ties that are exact
    in real arithmetic stay exact in floats for representable inputs.
    """

    def __init__(self, theta: float = 1.0, R: float = 1.0, u0: float = 0.0, n: int = 1):
        self.theta = theta
        self.R = R
        self.f0 = (theta - u0) / theta
        self.n = n
        self.num = np.full(n, self.f0)  # f(0) + spike count
        self.cur_sum = np.zeros(n)
        self.t = 0

    @property
    def f(self):
        """Current iterate f(t)."""
        return self.num / (self.t + 1.0)

    def step(self, I) -> np.ndarray:
        """Consume the step-t current; spike = H(R x(t)/theta - f(t-1))."""
        self.t += 1
        self.cur_sum = self.cur_sum + np.asarray(I, dtype=np.float64)
        x_tilde = self.cur_sum / self.t
        f_prev = self.num / self.t
        s = heaviside((self.R / self.theta) * x_tilde - f_prev)
        self.num = self.num + s
        return s

    @property
    def x_tilde(self):
        return self.cur_sum / max(self.t, 1)


class LifEmaOracle(_SteppedOracle):
    """Constant-step subgradient iterate equivalent to an EMA-coded LIF neuron."""

    def __init__(self, theta: float = 1.0, R: float = 1.0, tau: float = 10.0,
                 u_rest: float = 0.0, u0: float = 0.0, n: int = 1):
        self.theta = theta
        self.R = R
        self.tau = tau
        self.u_rest = u_rest
        self.f0 = -u0 / (tau * theta) - u_rest / (theta * tau * (tau - 1.0))
        self.n = n
        self.f = np.full(n, self.f0)
        self.x_tilde = np.zeros(n)
        self.t = 0

    def step(self, I) -> np.ndarray:
        tau, theta, R = self.tau, self.theta, self.R
        self.t += 1
        self.x_tilde = self.x_tilde * (tau - 1.0) / tau + np.asarray(I, dtype=np.float64) / tau
        # H-argument in pre-scaled form: R x - theta (tau-1) f - theta
        s = heaviside(R * self.x_tilde - theta * (tau - 1.0) * self.f - theta)
        lin = self.u_rest / (theta * (tau - 1.0))
        self.f = self.f - (1.0 / tau) * (self.f + lin - s)
        return s


class SubgradOracle(_SteppedOracle):
    """Schedule-coded subgradient iterate equivalent to the generalized
    subgradient-based neuron (clipped-ReLU objective, any schedule with
    eta(t) < 1).

        x(t) = (1 - eta(t)) x(t-1) + eta(t) I(t)
        s(t) = H(x(t) - (1 - eta(t)) f(t-1))
        f(t) = (1 - eta(t)) f(t-1) + eta(t) s(t)

    The previous iterate enters the step decision after its decay half-step;
    for the inverse schedule this is the classic rate-coded decision
    H(x_rate(t) - f(t-1)) up to a positive rescale, so the two forms
    coincide exactly there.
    """

    def __init__(self, schedule: Schedule, n: int = 1):
        self.schedule = schedule
        self.n = n
        self.f = np.zeros(n)
        self.x_tilde = np.zeros(n)
        self.t = 0

    def step(self, I) -> np.ndarray:
        self.t += 1
        eta_t = float(self.schedule(self.t))
        self.x_tilde = (1.0 - eta_t) * self.x_tilde + eta_t * np.asarray(I, dtype=np.float64)
        s = heaviside(self.x_tilde - (1.0 - eta_t) * self.f)
        self.f = (1.0 - eta_t) * self.f + eta_t * s
        return s


class SignGdOracle:
    """Sign-gradient iterate equivalent to a sign-based neuron layer.

    Decodes the raw influx currents with the signed-schedule recurrence
    (x(t) = x(t-1) - eta(t) (2 (I - b) - W), x(0) = b) and applies
    f(t) = f(t-1) - eta(t) sign(grad L(f(t-1); x(t))), the gradient being
    g = f - target(x) of |f - target(x)|^2 / 2 and sign(g) = 2 H(g) - 1
    with sign(0) = +1. misr's sign falls back to that of f where its target
    is undefined (x2 <= 0), as `gradient_sign`'s does.

    `run` replays a whole trace in one call. Only f depends on the iterate
    before it; x(t) and target(x(t)) do not, so the block forms them once:
    x(t) as one left fold (`np.subtract.accumulate`) from x(t0) over the rows
    eta(t) (2 (I - b) - W), each row's operations in a step's order, and
    every target in one call (misr's quotient and its x2 > 0 mask
    included). It then steps f neuron by neuron on Python floats: their -,
    * and >= are the IEEE double operations numpy applies elementwise, and
    `fj - y >= 0.0` gives H(0) = 1 and H(NaN) = 0 as `heaviside` does, so
    each spike, f and x keeps the bits of a step-by-step replay. eta(t) is
    evaluated one int t at a time, as a step does: on exp schedules the
    schedule's array path differs in the last bit. `step` is a run of one
    step, a block of one row. The oracle reads no coefficient row and takes
    none of the neuron's form.
    """

    def __init__(self, obj: SqErrObjective, schedule: Schedule, W, b, n: int = 1):
        arity = MECHANISMS[obj.kind][0]
        self.obj = obj
        self.schedule = schedule
        # (1, arity, n): a block's rows broadcast against them
        self.W = np.broadcast_to(np.asarray(W, dtype=np.float64), (1, arity, n)).copy()
        self.b = np.broadcast_to(np.asarray(b, dtype=np.float64), (1, arity, n)).copy()
        self.arity = arity
        self.n = n
        self._f = [0.0] * n  # the iterate, as the Python floats it is stepped on
        self._x = self.b.copy()  # x(t), (1, arity, n)
        self.t = 0

    @property
    def f(self):
        """Current iterate f(t)."""
        return np.array(self._f)

    @property
    def x_tilde(self):
        """Current decoded input x(t), (arity, n)."""
        return self._x[0]

    def _targets(self, x):
        """target(x(t)) of a (K, arity, n) block of decoded inputs, as
        (K, n); misr's is 0 where x2 <= 0 or NaN, so that H(f - 0) = H(f)
        there."""
        if self.obj.kind == "misr":
            ok = x[:, 1] > 0
            return np.where(ok, x[:, 0] / np.sqrt(np.where(ok, x[:, 1], 1.0)), 0.0)
        return self.obj.target(x.swapaxes(0, 1) if self.arity == 2 else x[:, 0])

    def run(self, I):
        """Consume a (K, arity, n) trace of raw currents; return the spikes
        and the iterate f after each of its K steps, both (K, n)."""
        I = np.asarray(I, dtype=np.float64).reshape(-1, self.arity, self.n)
        t0, K = self.t, len(I)
        if not K:
            return np.empty((0, self.n)), np.empty((0, self.n))
        etas = [float(self.schedule(t)) for t in range(t0 + 1, t0 + K + 1)]
        # x(t) = x(t-1) - eta(t) (2 (I - b) - W): the rows eta(t) (2 (I - b) - W),
        # then their left fold from x(t0)
        x = np.array(etas).reshape(K, 1, 1) * (2.0 * (I - self.b) - self.W)
        x[0] = self._x[0] - x[0]
        np.subtract.accumulate(x, axis=0, out=x)
        spikes, f = [], []
        for fj, targets in zip(self._f, self._targets(x).T.tolist()):
            for eta_t, y in zip(etas, targets):
                s = 1.0 if fj - y >= 0.0 else 0.0  # H(g), g = f - target: H(0) = 1, H(NaN) = 0
                fj = fj - eta_t * (2.0 * s - 1.0)
                spikes.append(s)
                f.append(fj)
        self.t, self._x, self._f = t0 + K, x[-1:], f[K - 1::K]
        spikes, f = np.array(spikes + f).reshape(2, self.n, K).transpose(0, 2, 1)
        return spikes, f

    def step(self, I) -> np.ndarray:
        """Consume raw currents of shape (arity, n); return the spike vector,
        the spikes of a run of one step."""
        return self.run(I)[0][0]
