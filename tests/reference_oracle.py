"""`oracle-check` and the sign-gradient oracle step as they were written
before the check ran on whole traces, for tests only.

`reference_oracle_check` draws each step's input in its own generator call,
steps a neuron that evaluates its coefficient callables itself, and folds
the deviation into a running Python `max` (which drops NaN).
`ReferenceSignGdOracle` is the sign-gradient oracle as it stepped before
it replayed whole traces: one numpy expression per step, its gradient sign
taken through `gradient_sign`, its spikes that sign's Heaviside. The CLI
must print the same line for every configuration whose deviation is
finite, and `SignGdOracle`, step by step or over a trace cut into any
blocks, must reproduce this step bit for bit.
"""

import dataclasses

import numpy as np

from spikeopt.cli import DEVIATION_LIMIT, _signgd_check_inputs
from spikeopt.codec import heaviside, make_rng
from spikeopt.neurons import (
    MECHANISMS,
    IfLifParams,
    IfNeuron,
    LifNeuron,
    SignGdNeuron,
    SubgradNeuron,
    parse_mechanism,
)
from spikeopt.oracles import (
    IfRateOracle,
    LifEmaOracle,
    SqErrObjective,
    SubgradOracle,
    gradient_sign,
    if_transform,
    lif_transform,
)
from spikeopt.schedules import (
    SubgradCoefficients,
    parse_schedule,
    solve_signgd_coefficients,
    solve_subgrad_coefficients,
)


class ReferenceSignGdOracle:
    def __init__(self, obj, schedule, W, b, n=1):
        arity = MECHANISMS[obj.kind][0]
        self.obj = obj
        self.schedule = schedule
        self.W = np.broadcast_to(np.asarray(W, dtype=np.float64), (arity, n)).copy()
        self.b = np.broadcast_to(np.asarray(b, dtype=np.float64), (arity, n)).copy()
        self.arity = arity
        self.n = n
        self.f = np.zeros(n)
        self.x_tilde = self.b.copy()
        self.t = 0

    def step(self, I):
        self.t += 1
        eta_t = float(self.schedule(self.t))
        I = np.asarray(I, dtype=np.float64).reshape(self.arity, self.n)
        self.x_tilde = self.x_tilde - eta_t * (2.0 * (I - self.b) - self.W)
        x = self.x_tilde if self.arity == 2 else self.x_tilde[0]
        sgn = gradient_sign(self.f, x, self.obj)
        self.f = self.f - eta_t * sgn
        return heaviside(sgn)


def reference_setup(args, schedule, rng):
    """(neuron, oracle, draw() giving one step's input, decoded(t)) of one check."""
    name = args.neuron
    if name == "if":
        neuron = IfNeuron(IfLifParams(theta_th=1.0, R=1.0, u0=0.0), n=1)
        oracle = IfRateOracle(theta=1.0, R=1.0, u0=0.0, n=1)
        draw = lambda: rng.uniform(0.0, 1.2, 1)
        decoded = lambda t: if_transform(neuron.decoded, t, u0=0.0, theta=1.0)
    elif name == "lif":
        tau = 10.0
        neuron = LifNeuron(IfLifParams(theta_th=1.0, R=1.0, tau_m=tau, u_rest=0.0), n=1)
        oracle = LifEmaOracle(theta=1.0, R=1.0, tau=tau, u_rest=0.0, u0=0.0, n=1)
        draw = lambda: rng.uniform(0.0, 12.0, 1)
        decoded = lambda t: lif_transform(
            neuron.decoded, t, u0=0.0, u_rest=0.0, theta=1.0, tau=tau)
    elif name == "subgrad":
        coeffs = solve_subgrad_coefficients(schedule)
        if args.corrupt_alpha != 1.0:
            base = coeffs.alpha
            coeffs = SubgradCoefficients(
                alpha=lambda t: np.asarray(base(t)) * args.corrupt_alpha,
                beta=coeffs.beta, gamma=coeffs.gamma, schedule=schedule,
            )
        neuron = SubgradNeuron(coeffs, n=1)
        oracle = SubgradOracle(schedule, n=1)
        draw = lambda: rng.uniform(0.0, 1.0, 1)
        decoded = lambda t: neuron.decoded
    else:
        mech = parse_mechanism(name)
        coeffs = solve_signgd_coefficients(schedule, args.parameterization)
        if args.corrupt_beta1 != 1.0:
            base = coeffs.beta1
            coeffs = dataclasses.replace(
                coeffs, beta1=lambda t: np.asarray(base(t)) * args.corrupt_beta1
            )
        W, b = _signgd_check_inputs(schedule, args.steps, mech.arity, rng)
        neuron = SignGdNeuron(mech, coeffs, W=W, b=b, n=1)
        oracle = ReferenceSignGdOracle(SqErrObjective(mech.kind, mech.delta), schedule,
                                       W=W, b=b, n=1)
        draw = lambda: b + W * rng.integers(0, 2, (mech.arity, 1))
        decoded = lambda t: neuron.decoded
    return neuron, oracle, draw, decoded


def reference_oracle_check(args):
    """(exit status, the line `oracle-check` prints) for parsed arguments."""
    schedule = parse_schedule(args.schedule)
    neuron, oracle, draw, decoded = reference_setup(args, schedule, make_rng(args.seed))
    deviation = 0.0
    for t in range(1, args.steps + 1):
        I = draw()
        s_n, s_o = neuron.step(I), oracle.step(I)
        deviation = max(deviation, float(np.abs(s_n - s_o).max()),
                        float(np.abs(decoded(t) - oracle.f).max()))
    ok = deviation <= DEVIATION_LIMIT
    line = (f"neuron={args.neuron} schedule={schedule} steps={args.steps} "
            f"max-deviation={deviation:.3e} -> {'OK' if ok else 'FAIL'}")
    return (0 if ok else 1), line
