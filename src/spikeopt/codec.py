"""Neural coding: encode real activations into spike/current trains and decode
trains back into running activation estimates.

Decoding schemes (y(0) = 0 everywhere):

  rate:    y(t) = y(t-1) * (t-1)/t + s(t) / t
  ema:     y(t) = y(t-1) * (tau-1)/tau + s(t) / tau
  signed:  y(t) = y(t-1) - eta(t) * (2 s(t) - 1)

Encoders emit, step by step, the train whose decode chases the target x. They
never clamp x: a target outside the reachable range R(eta, T) = sum eta(t)
saturates silently. The tie convention is fixed repo-wide as H(0) = 1.

Stochastic encoders take explicit seeds and use numpy's PCG64 generator, so
trains are reproducible across platforms.
"""

from __future__ import annotations

import numpy as np

from .schedules import Schedule

__all__ = [
    "heaviside",
    "sigmoid",
    "RateDecoder",
    "EmaDecoder",
    "SignedDecoder",
    "FloatEncoder",
    "DeterministicEncoder",
    "StochasticEncoder",
    "PoissonEncoder",
    "ConstantEncoder",
    "RateDeterministicEncoder",
    "EmaDeterministicEncoder",
    "signed_encoder",
    "encode_float",
    "encode_deterministic",
    "encode_stochastic",
    "encode_poisson",
    "make_rng",
]


def heaviside(x):
    """Step function with H(0) = 1, elementwise on arrays."""
    x = np.asarray(x)
    out = (x >= 0).astype(np.float64)
    return out if out.ndim else float(out)


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))
    return out if out.ndim else float(out)


def make_rng(seed: int) -> np.random.Generator:
    """Repo-wide generator: PCG64 seeded with a 64-bit integer."""
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------------------
# Decoders. Value objects: one writer per instance, no shared state.
# ---------------------------------------------------------------------------


class RateDecoder:
    """Running spike rate, y(t) = (1/t) sum_{i<=t} s(i)."""

    def __init__(self, n=None):
        self.y = 0.0 if n is None else np.zeros(n)
        self.t = 0

    def step(self, s):
        self.t += 1
        self.y = self.y * (self.t - 1) / self.t + np.asarray(s) / self.t
        return self.y


class EmaDecoder:
    """Exponential moving average with base tau > 1."""

    def __init__(self, tau: float, n=None):
        if tau <= 1:
            raise ValueError(f"EMA base must exceed 1, got {tau}")
        self.tau = float(tau)
        self.y = 0.0 if n is None else np.zeros(n)
        self.t = 0

    def step(self, s):
        self.t += 1
        self.y = self.y * (self.tau - 1.0) / self.tau + np.asarray(s) / self.tau
        return self.y


class SignedDecoder:
    """Signed schedule decoding: each spike contributes -eta(t) * (2 s - 1)."""

    def __init__(self, schedule: Schedule, n=None):
        self.schedule = schedule
        self.y = 0.0 if n is None else np.zeros(n)
        self.t = 0

    def step(self, s):
        self.t += 1
        self.y = self.y - self.schedule(self.t) * (2.0 * np.asarray(s) - 1.0)
        return self.y


# ---------------------------------------------------------------------------
# Encoders for signed schedule coding. Each keeps the internal estimate f that
# a signed-schedule decoder of the emitted train reproduces exactly.
# ---------------------------------------------------------------------------


class FloatEncoder:
    """Relaxed current encoder: emits 0.5 * (1 + (f - x)) each step."""

    def __init__(self, x, schedule: Schedule):
        self.x = np.asarray(x, dtype=np.float64)
        self.schedule = schedule
        self.f = np.zeros_like(self.x)
        self.t = 0

    def step(self):
        self.t += 1
        grad = self.f - self.x
        current = 0.5 * (1.0 + grad)
        self.f = self.f - self.schedule(self.t) * grad
        return current


class DeterministicEncoder:
    """Binary encoder: emits H(f - x), then moves f one signed step."""

    def __init__(self, x, schedule: Schedule):
        self.x = np.asarray(x, dtype=np.float64)
        self.schedule = schedule
        self.f = np.zeros_like(self.x)
        self.t = 0

    def step(self):
        self.t += 1
        s = heaviside(self.f - self.x)
        self.f = self.f - self.schedule(self.t) * (2.0 * s - 1.0)
        return s


class StochasticEncoder:
    """Sigmoidal stochastic encoder: s ~ Bernoulli(sigmoid(c * (f - x)))."""

    def __init__(self, x, schedule: Schedule, c: float, seed: int):
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"stochasticity c must lie in [0, 1], got {c}")
        self.x = np.asarray(x, dtype=np.float64)
        self.schedule = schedule
        self.c = float(c)
        self.rng = make_rng(seed)
        self.f = np.zeros_like(self.x)
        self.t = 0

    def step(self):
        self.t += 1
        p = sigmoid(self.c * (self.f - self.x))
        s = (self.rng.random(np.shape(self.x)) < p).astype(np.float64)
        if np.ndim(self.x) == 0:
            s = float(s)
        self.f = self.f - self.schedule(self.t) * (2.0 * np.asarray(s) - 1.0)
        return s


def signed_encoder(kind: str, x, schedule: Schedule, c: float = 0.5, seed: int = 0):
    """Signed-schedule encoder by name: float, det or stoch (steepness c)."""
    if kind == "float":
        return FloatEncoder(x, schedule)
    if kind == "det":
        return DeterministicEncoder(x, schedule)
    if kind == "stoch":
        return StochasticEncoder(x, schedule, c=c, seed=seed)
    raise ValueError(f"unknown encoder {kind!r}")


# ---------------------------------------------------------------------------
# Encoders for the rate / EMA family.
# ---------------------------------------------------------------------------


class ConstantEncoder:
    """Float encoding for rate and EMA coding: I(t) = x for every t."""

    def __init__(self, x, schedule=None):
        self.x = np.asarray(x, dtype=np.float64)
        self.t = 0

    def step(self):
        self.t += 1
        return self.x.copy() if self.x.ndim else float(self.x)


class PoissonEncoder:
    """i.i.d. Bernoulli(ReLU1(x)) spikes; rate-decodes toward ReLU1(x)."""

    def __init__(self, x, seed: int):
        self.p = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)
        self.rng = make_rng(seed)
        self.t = 0

    def step(self):
        self.t += 1
        s = (self.rng.random(self.p.shape) < self.p).astype(np.float64)
        return s if self.p.ndim else float(s)


class RateDeterministicEncoder:
    """Greedy rate encoder: keeps the running spike count within 1 of t*x.

    The rate decode then satisfies |y(t) - clip(x, 0, 1)| <= 1/t, the
    deterministic O(1/t) input regime.
    """

    def __init__(self, x, schedule=None):
        self.x = np.asarray(x, dtype=np.float64)
        self.count = np.zeros_like(self.x)
        self.t = 0

    def step(self):
        self.t += 1
        s = heaviside(self.t * self.x - self.count - 0.5)
        self.count = self.count + s
        return s


class EmaDeterministicEncoder:
    """Deterministic spike encoder for EMA coding with base tau.

    Emits I(t) = H(x - (tau-1)/tau * xt(t-1)) where xt is the EMA decode of
    the emitted train.
    """

    def __init__(self, x, tau: float):
        self.x = np.asarray(x, dtype=np.float64)
        self.tau = float(tau)
        self.xt = np.zeros_like(self.x)
        self.t = 0

    def step(self):
        self.t += 1
        rho = (self.tau - 1.0) / self.tau
        s = heaviside(self.x - rho * self.xt)
        self.xt = rho * self.xt + s / self.tau
        return s


# ---------------------------------------------------------------------------
# Whole-train convenience wrappers.
# ---------------------------------------------------------------------------


def _drive(encoder, T: int) -> np.ndarray:
    if T < 1:
        raise ValueError("T must be >= 1")
    return np.array([encoder.step() for _ in range(T)])


def encode_float(x: float, schedule: Schedule, T: int) -> np.ndarray:
    return _drive(FloatEncoder(x, schedule), T)


def encode_deterministic(x: float, schedule: Schedule, T: int) -> np.ndarray:
    return _drive(DeterministicEncoder(x, schedule), T)


def encode_stochastic(x: float, schedule: Schedule, T: int, c: float, seed: int) -> np.ndarray:
    return _drive(StochasticEncoder(x, schedule, c, seed), T)


def encode_poisson(x: float, T: int, seed: int) -> np.ndarray:
    return _drive(PoissonEncoder(x, seed), T)
