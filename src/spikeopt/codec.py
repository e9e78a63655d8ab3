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
    "make_rng",
]


def heaviside(x):
    """Step function with H(0) = 1, elementwise on arrays."""
    x = np.asarray(x)
    out = (x >= 0).astype(np.float64)
    return out if out.ndim else float(out)


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))  # exp(-x) where x >= 0 and exp(x) below; never overflows
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return out if out.ndim else float(out)


def make_rng(seed: int) -> np.random.Generator:
    """Repo-wide generator: PCG64 seeded with a 64-bit integer."""
    return np.random.Generator(np.random.PCG64(seed))


class _ItemGenerators:
    """One generator per item of a batch: `random((B, ...))` gives each
    item's own draws, so row i is what item i alone would draw.

    A PCG64 generator emits its doubles in sequence, so `g.random((k, *shape))`
    is k calls of `g.random(shape)`, bit for bit. Each item therefore draws k
    frames at a time, as many as fit in BLOCK doubles, and a call returns the
    next frame of every item: a view into the block, which the draw k calls
    later overwrites. Every call must ask for the same shape.
    """

    BLOCK = 4096

    def __init__(self, seeds):
        self.rngs = [make_rng(s) for s in seeds]
        self.block = None
        self.next = 0

    def random(self, shape):
        if self.block is None or self.next == self.block.shape[1]:
            k = max(1, self.BLOCK // max(1, int(np.prod(shape[1:]))))
            if self.block is None:
                self.block = np.empty((len(self.rngs), k, *shape[1:]))
            for g, rows in zip(self.rngs, self.block):
                g.random(out=rows)
            self.next = 0
        self.next += 1
        return self.block[:, self.next - 1]


def _generator(seed):
    """A generator for an int seed; for a sequence of seeds, one per item."""
    return make_rng(seed) if np.ndim(seed) == 0 else _ItemGenerators(seed)


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
    """Sigmoidal stochastic encoder: s ~ Bernoulli(sigmoid(c * (f - x))).

    With a sequence of seeds, x is a batch (one row per seed) and each row
    draws from its own generator.
    """

    def __init__(self, x, schedule: Schedule, c: float, seed: int):
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"stochasticity c must lie in [0, 1], got {c}")
        self.x = np.asarray(x, dtype=np.float64)
        self.schedule = schedule
        self.c = float(c)
        self.rng = _generator(seed)
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

    def __init__(self, x):
        self.x = np.asarray(x, dtype=np.float64)
        self.t = 0

    def step(self):
        self.t += 1
        return self.x.copy() if self.x.ndim else float(self.x)


class PoissonEncoder:
    """i.i.d. Bernoulli(ReLU1(x)) spikes; rate-decodes toward ReLU1(x).
    A sequence of seeds draws each row of a batch x from its own generator."""

    def __init__(self, x, seed: int):
        self.p = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)
        self.rng = _generator(seed)
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

    def __init__(self, x):
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
