"""Neural coding: encode real activations into spike/current trains and decode
trains back into running activation estimates.

Decoding schemes (y(0) = 0 but where given):

  rate:    y(t) = y(t-1) * (t-1)/t + s(t) / t
  ema:     y(t) = y(t-1) * (tau-1)/tau + s(t) / tau
  signed:  y(t) = y(t-1) - eta(t) * (2 (s(t) - b) - W),  y(0) = b

A spike train decodes with W = 1 and b = 0, and a network's readout with
its output's calibrated W and b.

Encoders emit the train whose decode chases the target x. They never clamp
x: a target outside the reachable range R(eta, T) = sum eta(t) saturates
silently. The tie convention is fixed repo-wide as H(0) = 1. An encoder
writes a block of K frames into a buffer it is given (`fill(frames)`), and
a decoder folds a block of K frames into the estimate after each
(`fold(s)`); `step` is a block of one frame, so each rule has one copy. The
parts that read no state (the Poisson and constant frames, the stochastic
encoder's uniform draws, the decoders' terms without y) are formed for the
whole block; the recurrences on f, the spike count and the decodes run
frame by frame in place, with the operations of their expressions in
order, so a block gives every frame the bits that stepping it alone gives.

Stochastic encoders take explicit seeds and use numpy's PCG64 generator, so
trains are reproducible across platforms. A block draws exactly its frames'
uniforms, in stream order, so it draws what one frame per step would.
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


def sigmoid(x, out=None, tmp=None, hit=None):
    """1 / (1 + exp(-x)), as 1 / (1 + e) where x >= 0 and e / (1 + e)
    below, with e = exp(-|x|), which never overflows. Written into `out`
    through `tmp`, float buffers shaped like x, and `hit`, a bool one, if
    given; a new array, or a float for a scalar x, otherwise."""
    x = np.asarray(x, dtype=np.float64)
    e = np.empty(x.shape) if out is None else out
    q = np.empty(x.shape) if tmp is None else tmp
    np.exp(np.negative(np.abs(x, e), e), e)
    np.add(e, 1.0, q)
    np.divide(e, q, e)
    np.divide(1.0, q, q)
    np.copyto(e, q, where=np.greater_equal(x, 0.0, hit))
    return e if e.ndim else float(e)


def make_rng(seed: int) -> np.random.Generator:
    """Repo-wide generator: PCG64 seeded with a 64-bit integer."""
    return np.random.Generator(np.random.PCG64(seed))


class _ItemGenerators:
    """One generator per item of a batch: `random((K, B, ...))` gives K
    frames of the B items, row i of each drawn by item i's own generator,
    so frame k's row i is what item i alone draws at its k-th draw. A PCG64
    generator emits its doubles in order, so one draw of K frames is K
    draws of one frame, bit for bit, and each item draws exactly the
    block's frames."""

    def __init__(self, seeds):
        self.rngs = [make_rng(s) for s in seeds]

    def random(self, shape):
        draws = np.empty((shape[1], shape[0], *shape[2:]))
        for g, rows in zip(self.rngs, draws):
            g.random(out=rows)
        return draws.swapaxes(0, 1)


def _generator(seed):
    """A generator for an int seed; for a sequence of seeds, one per item."""
    return make_rng(seed) if np.ndim(seed) == 0 else _ItemGenerators(seed)


# ---------------------------------------------------------------------------
# Decoders. Value objects: one writer per instance, no shared state. `fold(s)`
# returns the estimates after the K frames s, (K, *shape), as a new array.
# ---------------------------------------------------------------------------


class _Decoder:
    def __init__(self, n=None, y0=0.0):
        self.y = np.full(() if n is None else n, y0)
        self.t = 0

    def step(self, s):
        return self.fold(np.asarray(s, dtype=np.float64)[None])[0]


class RateDecoder(_Decoder):
    """Running spike rate, y(t) = (1/t) sum_{i<=t} s(i)."""

    def _bases(self, K):
        return np.arange(self.t + 1, self.t + K + 1, dtype=np.float64)

    def fold(self, s):
        a = self._bases(len(s))
        self.t += len(s)
        ys = np.divide(s, a.reshape(a.shape + (1,) * (np.ndim(s) - 1)))
        y = self.y
        for k, a_k in enumerate(a.tolist()):
            # y <- y (a - 1) / a + s / a
            y = np.add(np.divide(np.multiply(y, a_k - 1), a_k), ys[k, ...], ys[k, ...])
        self.y = y
        return ys


class EmaDecoder(RateDecoder):
    """Exponential moving average with base tau > 1: the rate rule, tau for t."""

    def __init__(self, tau: float, n=None):
        if tau <= 1:
            raise ValueError(f"EMA base must exceed 1, got {tau}")
        self.tau = float(tau)
        super().__init__(n)

    def _bases(self, K):
        return np.array([self.tau] * K)


class SignedDecoder(_Decoder):
    """Signed schedule decoding around the idle value b with swing W:
    y(t) = y(t-1) - eta(t) (2 (s(t) - b) - W), y(0) = b, where eta(t) =
    schedule(t), any callable of an int t. The defaults W = 1, b = 0 decode
    a spike train, each spike contributing -eta(t) (2 s - 1); a network's
    readout decodes its output currents with their calibrated W and b."""

    def __init__(self, schedule, n=None, W=1.0, b=0.0):
        super().__init__(n, b)
        self.schedule, self.W, self.b = schedule, W, b

    def fold(self, s):
        eta = np.array([self.schedule(t) for t in range(self.t + 1, self.t + len(s) + 1)])
        self.t += len(s)
        d = np.subtract(s, self.b)
        np.multiply(d, 2.0, d)
        np.subtract(d, self.W, d)
        np.multiply(d, eta.reshape(eta.shape + (1,) * (np.ndim(s) - 1)), d)
        y = self.y
        for k in range(len(d)):
            # y <- y - eta(t) (2 (s - b) - W)
            y = np.subtract(y, d[k, ...], d[k, ...])
        self.y = y
        return d


# ---------------------------------------------------------------------------
# Encoders. `fill(frames)` writes the next K = len(frames) frames, (K,
# *shape), and `step()` is a fill of one frame, so each encoder's arithmetic
# has one copy; each recurrence's expression is in its comment.
# ---------------------------------------------------------------------------


class _Encoder:
    """Frames shaped like `shape`: `step()` returns the next one, a float for
    a scalar target and a new array otherwise. Every encoder class holds
    `step` in its own namespace, so that wrapping one class's `step` (as
    `bench/tracing.py` does) wraps that class only."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.step = _Encoder.step

    def step(self):
        frame = np.empty((1, *self.shape))
        self.fill(frame)
        return frame[0] if self.shape else float(frame[0])


class _SignedEncoder(_Encoder):
    """The state of a signed-schedule encoder: the target x, the estimate f
    a signed-schedule decoder of the train reproduces, and buffers of one
    frame."""

    def __init__(self, x, schedule: Schedule):
        self.x = np.asarray(x, dtype=np.float64)
        self.shape = self.x.shape
        self.schedule = schedule
        self.f = np.zeros(self.shape)
        self._tmp, self._hit = np.empty(self.shape), np.empty(self.shape, dtype=bool)
        self.t = 0

    def _move(self, s):
        """f <- f - eta(t) (2 s - 1)."""
        tmp = self._tmp
        np.multiply(s, 2.0, tmp)
        np.subtract(tmp, 1.0, tmp)
        np.multiply(tmp, self.schedule(self.t), tmp)
        np.subtract(self.f, tmp, self.f)


class FloatEncoder(_SignedEncoder):
    """Relaxed current encoder: emits 0.5 * (1 + (f - x)) each step."""

    def fill(self, frames):
        f, x, grad = self.f, self.x, self._tmp
        for k in range(len(frames)):
            self.t += 1
            # grad = f - x; current = 0.5 (1 + grad); f <- f - eta(t) grad
            np.subtract(f, x, grad)
            current = np.add(grad, 1.0, frames[k, ...])
            np.multiply(current, 0.5, current)
            np.multiply(grad, self.schedule(self.t), grad)
            np.subtract(f, grad, f)


class DeterministicEncoder(_SignedEncoder):
    """Binary encoder: emits H(f - x), then moves f one signed step."""

    def fill(self, frames):
        hit = self._hit
        for k in range(len(frames)):
            self.t += 1
            # s = H(f - x)
            np.greater_equal(np.subtract(self.f, self.x, self._tmp), 0.0, hit)
            s = frames[k, ...]
            np.copyto(s, hit)
            self._move(s)


class StochasticEncoder(_SignedEncoder):
    """Sigmoidal stochastic encoder: s ~ Bernoulli(sigmoid(c * (f - x))).

    With a sequence of seeds, x is a batch (one row per seed) and each row
    draws from its own generator.
    """

    def __init__(self, x, schedule: Schedule, c: float, seed: int):
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"stochasticity c must lie in [0, 1], got {c}")
        super().__init__(x, schedule)
        self.c = float(c)
        self.rng = _generator(seed)
        self._e, self._q = np.empty(self.shape), np.empty(self.shape)

    def fill(self, frames):
        draws = self.rng.random(frames.shape)  # the block's uniforms, in stream order
        z, e, q, hit = self._tmp, self._e, self._q, self._hit
        for k in range(len(frames)):
            self.t += 1
            # p = sigmoid(c (f - x))
            np.multiply(np.subtract(self.f, self.x, z), self.c, z)
            sigmoid(z, e, q, hit)
            # s = (uniform < p)
            s = frames[k, ...]
            np.copyto(s, np.less(draws[k], e, hit))
            self._move(s)


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


class ConstantEncoder(_Encoder):
    """Float encoding for rate and EMA coding: I(t) = x for every t."""

    def __init__(self, x):
        self.x = np.asarray(x, dtype=np.float64)
        self.shape = self.x.shape
        self.t = 0

    def fill(self, frames):
        self.t += len(frames)
        frames[...] = self.x


class PoissonEncoder(_Encoder):
    """i.i.d. Bernoulli(ReLU1(x)) spikes; rate-decodes toward ReLU1(x).
    A sequence of seeds draws each row of a batch x from its own generator."""

    def __init__(self, x, seed: int):
        self.p = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)
        self.shape = self.p.shape
        self.rng = _generator(seed)
        self.t = 0

    def fill(self, frames):
        self.t += len(frames)
        np.copyto(frames, np.less(self.rng.random(frames.shape), self.p))


class RateDeterministicEncoder(_Encoder):
    """Greedy rate encoder: keeps the running spike count within 1 of t*x.

    The rate decode then satisfies |y(t) - clip(x, 0, 1)| <= 1/t, the
    deterministic O(1/t) input regime.
    """

    def __init__(self, x):
        self.x = np.asarray(x, dtype=np.float64)
        self.shape = self.x.shape
        self.count = np.zeros(self.shape)
        self._tmp, self._hit = np.empty(self.shape), np.empty(self.shape, dtype=bool)
        self.t = 0

    def fill(self, frames):
        tmp, hit = self._tmp, self._hit
        for k in range(len(frames)):
            self.t += 1
            # s = H(t x - count - 0.5); count <- count + s
            np.multiply(self.x, self.t, tmp)
            np.subtract(tmp, self.count, tmp)
            np.greater_equal(np.subtract(tmp, 0.5, tmp), 0.0, hit)
            s = frames[k, ...]
            np.copyto(s, hit)
            np.add(self.count, s, self.count)


class EmaDeterministicEncoder(_Encoder):
    """Deterministic spike encoder for EMA coding with base tau.

    Emits I(t) = H(x - (tau-1)/tau * xt(t-1)) where xt is the EMA decode of
    the emitted train.
    """

    def __init__(self, x, tau: float):
        self.x = np.asarray(x, dtype=np.float64)
        self.shape = self.x.shape
        self.tau = float(tau)
        self.xt = np.zeros(self.shape)
        self._tmp, self._hit = np.empty(self.shape), np.empty(self.shape, dtype=bool)
        self.t = 0

    def fill(self, frames):
        xt, tmp, hit = self.xt, self._tmp, self._hit
        rho = (self.tau - 1.0) / self.tau
        for k in range(len(frames)):
            self.t += 1
            # s = H(x - rho xt); xt <- rho xt + s / tau
            np.multiply(xt, rho, xt)
            np.greater_equal(np.subtract(self.x, xt, tmp), 0.0, hit)
            s = frames[k, ...]
            np.copyto(s, hit)
            np.add(xt, np.divide(s, self.tau, tmp), xt)
