"""The IF, LIF, sign-based and subgradient neurons written as the paper
writes them, for tests only.

Each spike rule is the Heaviside of a difference, and each stage of a step
is one expression that allocates its result. `spikeopt.neurons` computes the
same rules as comparisons and the same stages in preallocated buffers; the
tests require it to reproduce this reference bit for bit.
"""

import numpy as np

from spikeopt.codec import EmaDecoder, RateDecoder, heaviside
from spikeopt.schedules import signgd_step_factors


def reference_spike(mech, u, v):
    """The firing rule of `mech` on scaled u, (n,), and v, (arity, n)."""
    k = mech.kind
    with np.errstate(all="ignore"):
        if k == "relu":
            v0 = v[0]
            return np.where(v0 >= 0, heaviside(u - v0), heaviside(u))
        if k == "leaky":
            v0 = v[0]
            return np.where(v0 >= 0, heaviside(u - v0), heaviside(u - mech.delta * v0))
        if k == "gelu":
            v0 = v[0]
            # at u = 0 the difference is -v0, also where exp overflows (inf * 0)
            return np.where(u == 0, heaviside(-v0),
                            heaviside((1.0 + np.exp(-1.702 * v0)) * u - v0))
        if k == "square":
            return heaviside(u - v[0] ** 2)
        if k == "max2":
            sel = v[0] >= v[1]
            return heaviside(u - np.where(sel, v[0], v[1]))
        v1, v2 = v[0], v[1]
        ok = v2 > 0
        pos_u = u >= 0
        pos_v1 = v1 >= 0
        lead = v2 * u * u - v1 * v1
        s = np.where(
            pos_u & pos_v1, heaviside(lead),
            np.where(~pos_u & ~pos_v1, heaviside(-lead), heaviside(u) * heaviside(-v1)),
        )
        return np.where(ok, s, heaviside(u))


class ReferenceSignGdNeuron:
    """n sign-based neurons of one mechanism, one item, with callable
    coefficients: the arithmetic `SignGdNeuron` must reproduce."""

    def __init__(self, mech, coeffs, schedule, W, b, n):
        self.mech, self.c, self.schedule = mech, coeffs, schedule
        self.W = np.broadcast_to(np.asarray(W, dtype=np.float64), (mech.arity, n)).copy()
        self.b = np.broadcast_to(np.asarray(b, dtype=np.float64), (mech.arity, n)).copy()
        self.u = np.zeros(n)
        self.v = float(coeffs.alpha2(0)) / float(schedule(0)) * self.b
        self.t = 0
        self.spike_count = 0
        self.degeneracies = 0  # misr evaluations with a scaled v2 <= 0

    def _factors(self):
        return signgd_step_factors(self.c, self.t + 1)

    def step(self, I):
        _, a1, a2, u_scale, v_scale, b1, b2 = self._factors()
        I = np.asarray(I, dtype=np.float64).reshape(self.v.shape)
        self.v = a1 * self.v - a2 * (2.0 * (I - self.b) - self.W)
        v = v_scale * self.v
        if self.mech.kind == "misr":
            self.degeneracies += int(np.sum(~(v[1] > 0)))
        s = reference_spike(self.mech, u_scale * self.u, v)
        self.u = self.u / b1 - b2 * (2.0 * s - 1.0)
        self.t += 1
        self.spike_count += int(s.sum())
        return s

    @property
    def decoded(self):
        return np.zeros_like(self.u) if self.t == 0 else self._factors()[3] * self.u


class ReferenceSubgradNeuron:
    """n subgradient neurons, one item, with callable coefficients: the
    arithmetic `SubgradNeuron` must reproduce."""

    def __init__(self, coeffs, n):
        self.c = coeffs
        self.u = np.zeros(n)
        self.y = np.zeros(n)
        self.t = 0
        self.spike_count = 0

    def step(self, I):
        self.t += 1
        c, t = self.c, self.t
        alpha, gamma, beta, eta_t = (float(c.alpha(t - 1)), float(c.gamma(t)),
                                     float(c.beta(t)), float(c.schedule(t)))
        u_pre = alpha * self.u + gamma * np.asarray(I, dtype=np.float64).reshape(self.u.shape)
        s = heaviside(u_pre)
        self.u = u_pre - beta * s
        self.y = (1.0 - eta_t) * self.y + eta_t * s
        self.spike_count += int(s.sum())
        return s

    @property
    def decoded(self):
        return self.y


class ReferenceIfNeuron:
    """n IF neurons, one item, one step per call: the arithmetic `IfNeuron`
    must reproduce."""

    def __init__(self, params, n):
        self.p = params
        self.u = np.full(n, float(params.u0))
        self.t = 0
        self.decoder = self._decoder(n)
        self.spike_count = 0

    def _decoder(self, n):
        return RateDecoder(n)

    def step(self, I):
        self.t += 1
        u_pre = self.u + self.p.R * np.asarray(I, dtype=np.float64)
        s = heaviside(u_pre - self.p.theta_th)
        self.u = u_pre - self.p.theta_th * s
        self.decoder.step(s)
        self.spike_count += np.count_nonzero(s)
        return s

    @property
    def decoded(self):
        return self.decoder.y


class ReferenceLifNeuron(ReferenceIfNeuron):
    """n LIF neurons, one item, one step per call: the arithmetic
    `LifNeuron` must reproduce."""

    def _decoder(self, n):
        return EmaDecoder(self.p.tau_m, n)

    def step(self, I):
        p = self.p
        self.t += 1
        u_pre = self.u - (self.u - p.u_rest) / p.tau_m + (p.R / p.tau_m) * np.asarray(I, dtype=np.float64)
        s = heaviside(u_pre - p.theta_th)
        self.u = u_pre - p.theta_th * s
        self.decoder.step(s)
        self.spike_count += np.count_nonzero(s)
        return s
