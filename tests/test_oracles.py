import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_oracle import ReferenceSignGdOracle
from spikeopt.codec import (
    ConstantEncoder,
    EmaDeterministicEncoder,
    RateDeterministicEncoder,
    make_rng,
)
from spikeopt.neurons import IfLifParams, IfNeuron, LifNeuron, parse_mechanism
from spikeopt.oracles import (
    BoundChecker,
    IfObjective,
    IfRateOracle,
    LifEmaOracle,
    LifObjective,
    SignGdOracle,
    SqErrObjective,
    convergence_bound,
    if_transform,
    lif_transform,
    reference_nonlinearity,
    signgd_oracle_step,
    subgradient_step,
)
from spikeopt.schedules import parse_schedule


class TestReferenceNonlinearity:
    def test_relu1_clips(self):
        assert reference_nonlinearity("relu1", 1.7) == 1.0

    def test_gelu_value(self):
        assert reference_nonlinearity("gelu", 1.0) == pytest.approx(
            1 / (1 + np.exp(-1.702)), abs=1e-12
        )
        assert reference_nonlinearity("gelu", 1.0) == pytest.approx(0.8458, abs=1e-4)

    def test_misr(self):
        assert reference_nonlinearity("misr", (1.0, 4.0)) == 0.5

    def test_misr_domain_error(self):
        with pytest.raises(ValueError):
            reference_nonlinearity("misr", (1.0, -1.0))


class TestSubgradientStep:
    def test_if_objective_step(self):
        obj = IfObjective(theta=1.0, R=1.0)
        assert subgradient_step(1.0, 0.5, obj, 0.5) == pytest.approx(0.5)

    def test_fixed_point(self):
        obj = SqErrObjective("relu")
        assert subgradient_step(2.0, 2.0, obj, 0.7) == 2.0

    def test_negative_input_minimizer(self):
        obj = IfObjective()
        assert subgradient_step(0.0, -1.0, obj, 0.3) == 0.0


class TestSignGdStep:
    def test_relu_below_target(self):
        assert signgd_oracle_step(0.0, 3.0, SqErrObjective("relu"), 0.5) == 0.5

    def test_max2(self):
        assert signgd_oracle_step(0.0, (3.0, 1.0), SqErrObjective("max2"), 0.5) == 0.5

    def test_gelu(self):
        f = signgd_oracle_step(0.0, 1.0, SqErrObjective("gelu"), 0.1)
        assert f == pytest.approx(0.1)

    def test_misr_fallback(self):
        # x2 <= 0: step follows the sign of f itself
        obj = SqErrObjective("misr")
        assert signgd_oracle_step(0.4, (1.0, -2.0), obj, 0.1) == pytest.approx(0.3)
        assert signgd_oracle_step(-0.4, (1.0, 0.0), obj, 0.1) == pytest.approx(-0.3)


@settings(max_examples=60, deadline=None)
@given(
    mech=st.sampled_from(["relu", "leaky:0.1", "leaky:0.3", "gelu", "square", "max2", "misr"]),
    schedule=st.sampled_from(["inv:1", "exp:1:0.999", "const:0.05"]),
    n=st.integers(1, 5),
    steps=st.integers(1, 40),
    seed=st.integers(0, 2**16),
)
def test_signgd_oracle_step_is_the_gradient_sign_form(mech, schedule, n, steps, seed):
    """SignGdOracle's one-Heaviside step gives the spikes, f and x_tilde of
    f - eta sign(g) with the sign from gradient_sign, bit for bit. The raw
    currents move the decoded input across zero, where relu's target ties
    f = 0, and misr's denominator to values <= 0, where its sign falls back
    to that of f."""
    m = parse_mechanism(mech)
    rng = make_rng(seed)
    W = rng.uniform(0.5, 1.5, (m.arity, n)) * rng.choice([-1.0, 1.0], (m.arity, n))
    b = rng.normal(0.0, 1.0, (m.arity, n))
    obj, sched = SqErrObjective(m.kind, m.delta), parse_schedule(schedule)
    got, want = SignGdOracle(obj, sched, W, b, n), ReferenceSignGdOracle(obj, sched, W, b, n)
    for I in b + W * rng.normal(0.5, 2.0, (steps, m.arity, n)):
        np.testing.assert_array_equal(got.step(I), want.step(I))
        np.testing.assert_array_equal(got.f, want.f)
        np.testing.assert_array_equal(got.x_tilde, want.x_tilde)


@settings(max_examples=60, deadline=None)
@given(
    mech=st.sampled_from(["relu", "leaky:0.1", "gelu", "square", "max2", "misr"]),
    schedule=st.sampled_from(["inv:1", "exp:1:0.999", "const:0.05", "exp:0.5:0.99"]),
    n=st.integers(1, 5),
    steps=st.integers(1, 3000),
    cuts=st.lists(st.integers(1, 2999), max_size=5),
    offset=st.sampled_from([0.0, -3.0]),
    nan_at=st.none() | st.integers(1, 3000),
    seed=st.integers(0, 2**16),
)
# the schedule's int and array paths differ in the last bit at 169 of these t
@example(mech="misr", schedule="exp:0.5:0.99", n=3, steps=3000, cuts=[1000], offset=0.0,
         nan_at=None, seed=5)
@example(mech="relu", schedule="inv:1", n=2, steps=4, cuts=[1, 2], offset=-3.0, nan_at=None,
         seed=0)
def test_signgd_oracle_run_is_its_steps(mech, schedule, n, steps, cuts, offset, nan_at, seed):
    """SignGdOracle.run, over a trace cut into blocks, gives the spikes, f
    and x_tilde of the reference oracle stepped one step at a time, bit for
    bit. A negative `offset` of b puts relu's target at 0 = f(0) at step 1,
    a tie; misr's denominator crosses to values <= 0; and a NaN current from
    step `nan_at` on makes x_tilde NaN in the last operand of neuron 0
    (misr's denominator; H(NaN) = 0 elsewhere)."""
    m = parse_mechanism(mech)
    rng = make_rng(seed)
    W = rng.uniform(0.5, 1.5, (m.arity, n)) * rng.choice([-1.0, 1.0], (m.arity, n))
    b = rng.normal(offset, 1.0, (m.arity, n))
    I = b + W * rng.normal(0.5, 2.0, (steps, m.arity, n))
    if nan_at is not None and nan_at <= steps:
        I[nan_at - 1, -1, 0] = np.nan
    obj, sched = SqErrObjective(m.kind, m.delta), parse_schedule(schedule)
    got, want = SignGdOracle(obj, sched, W, b, n), ReferenceSignGdOracle(obj, sched, W, b, n)
    bits = lambda a: np.ascontiguousarray(a, dtype=np.float64).view(np.int64)
    edges = [0, *sorted({c for c in cuts if c < steps}), steps]
    for lo, hi in zip(edges, edges[1:]):
        spikes, f = got.run(I[lo:hi])
        assert spikes.shape == f.shape == (hi - lo, n)
        for k in range(hi - lo):
            np.testing.assert_array_equal(bits(spikes[k]), bits(want.step(I[lo + k])))
            np.testing.assert_array_equal(bits(f[k]), bits(want.f))
        np.testing.assert_array_equal(bits(got.x_tilde), bits(want.x_tilde))
        np.testing.assert_array_equal(bits(got.f), bits(want.f))
        assert got.t == want.t == hi


def test_signgd_oracle_run_of_no_steps_changes_nothing():
    """A 0-step trace gives two (0, n) arrays and leaves t, f and x_tilde as
    the steps before it left them."""
    m, n = parse_mechanism("max2"), 3
    W, b = np.ones((2, n)), np.arange(6.0).reshape(2, n)
    oracle = SignGdOracle(SqErrObjective(m.kind, m.delta), parse_schedule("inv:1"), W, b, n)
    oracle.run(b + W * make_rng(0).integers(0, 2, (4, 2, n)))
    f, x = oracle.f, oracle.x_tilde.copy()
    spikes, iterates = oracle.run(np.empty((0, 2, n)))
    assert spikes.shape == iterates.shape == (0, n)
    assert oracle.t == 4
    np.testing.assert_array_equal(oracle.f, f)
    np.testing.assert_array_equal(oracle.x_tilde, x)


class TestTransforms:
    def test_if_anchor(self):
        assert if_transform(0.0, 0, u0=0.0, theta=1.0) == 1.0

    def test_if_t1(self):
        assert if_transform(0.0, 1, u0=0.0, theta=1.0) == 0.5

    def test_if_offset_vanishes(self):
        y = 0.37
        assert if_transform(y, 10, u0=2.0, theta=2.0) == pytest.approx(10 / 11 * y)

    def test_lif_zero_initials(self):
        assert lif_transform(0.42, 7, u0=0.0, u_rest=0.0) == pytest.approx(0.42)

    def test_lif_u0_at_t0(self):
        tau, theta = 10.0, 1.0
        got = lif_transform(0.0, 0, u0=tau * theta, u_rest=0.0, theta=theta, tau=tau)
        assert got == pytest.approx(-1.0)

    def test_lif_urest_term(self):
        # t=1, tau=2, theta=1: correction = (1/2 + 1) * u_rest / 2
        got = lif_transform(0.0, 1, u0=0.0, u_rest=0.8, theta=1.0, tau=2.0)
        assert got == pytest.approx(-(1.5) * 0.8 / 2.0)


class TestObjectiveMinimizers:
    @pytest.mark.parametrize("x", [-2.0, -0.3, 0.0, 0.4, 1.0, 1.7])
    def test_if_grid_search(self, x):
        obj = IfObjective(theta=1.0, R=1.0)
        ys = np.arange(-10, 10, 1e-3)
        best = ys[np.argmin(obj.value(ys, x))]
        assert abs(best - obj.minimizer(x)) <= 2e-3

    @pytest.mark.parametrize("x", [-2.0, 0.5, 3.0, 9.5, 12.0])
    def test_lif_grid_search(self, x):
        obj = LifObjective(theta=1.0, R=1.0, tau=10.0, u_rest=0.0)
        ys = np.arange(-10, 10, 1e-3)
        best = ys[np.argmin(obj.value(ys, x))]
        assert abs(best - obj.minimizer(x)) <= 2e-3

    @pytest.mark.parametrize("kind,x", [
        ("relu", -1.3), ("relu", 2.2), ("leaky", -2.0), ("gelu", 0.7),
        ("square", 1.4), ("max2", (0.3, 2.0)), ("misr", (2.0, 4.0)),
    ])
    def test_sqerr_grid_search(self, kind, x):
        obj = SqErrObjective(kind)
        ys = np.arange(-10, 10, 1e-3)
        vals = [obj.value(y, x) for y in ys] if isinstance(x, tuple) else obj.value(ys, x)
        best = ys[np.argmin(vals)]
        assert abs(best - obj.minimizer(x)) <= 2e-3


@settings(max_examples=60, deadline=None)
@given(
    y=st.floats(-5, 5), x=st.floats(-5, 5), z=st.floats(-5, 5),
    which=st.sampled_from(["if", "lif", "relu", "gelu", "square"]),
)
def test_subgradient_validity(y, x, z, which):
    """First-order convexity: L(z) >= L(y) + g(y) (z - y) for every objective."""
    obj = {
        "if": IfObjective(),
        "lif": LifObjective(),
        "relu": SqErrObjective("relu"),
        "gelu": SqErrObjective("gelu"),
        "square": SqErrObjective("square"),
    }[which]
    lhs = obj.value(z, x)
    rhs = obj.value(y, x) + obj.grad(y, x) * (z - y)
    assert lhs >= rhs - 1e-9


def equivalence_grid(lo, hi, count, seed, dyadics=(0.0, 0.25, 0.5, 0.75, 1.0)):
    """Near-uniform grid avoiding decimal-rational resonances.

    Small-denominator rationals (0.6 = 3/5, ...) drive integrate-and-fire
    dynamics through exact threshold ties whose true float margins are
    sub-ulp, unresolvable consistently by two different arithmetic routes.
    Jittered points keep every margin generic; exactly-representable dyadic
    values are appended since both routes resolve their ties exactly.
    """
    rng = make_rng(seed)
    k = count - len(dyadics)
    step = (hi - lo) / (k - 1)
    x = lo + (np.arange(k) + rng.uniform(-0.2, 0.2, k)) * step
    return np.concatenate([x, np.asarray(dyadics)])


class TestIfEquivalence:
    def test_float_input_trace(self):
        # transformed IF trace equals the oracle iterate at every step
        x = equivalence_grid(-0.1, 1.1, 121, seed=77)
        n = x.size
        neuron = IfNeuron(IfLifParams(theta_th=1.0, R=1.0, u0=0.0), n=n)
        oracle = IfRateOracle(theta=1.0, R=1.0, u0=0.0, n=n)
        enc = ConstantEncoder(x)
        worst = 0.0
        for t in range(1, 2001):
            I = enc.step()
            s_n = neuron.step(I)
            s_o = oracle.step(I)
            assert np.array_equal(s_n, s_o), t
            f_n = if_transform(neuron.decoded, t, u0=0.0, theta=1.0)
            worst = max(worst, np.abs(f_n - oracle.f).max())
        assert worst <= 1e-9
        # decoded output approaches ReLU1(x)
        err = np.abs(oracle.f - np.clip(x, 0, 1))
        assert err.max() <= 2e-3

    def test_poisson_input_trace(self):
        from spikeopt.codec import PoissonEncoder

        x = np.array([0.2, 0.5, 0.9])
        neuron = IfNeuron(IfLifParams(), n=3)
        oracle = IfRateOracle(n=3)
        enc = PoissonEncoder(x, seed=9)
        for t in range(1, 1001):
            I = enc.step()
            assert np.array_equal(neuron.step(I), oracle.step(I))
            f_n = if_transform(neuron.decoded, t)
            np.testing.assert_allclose(f_n, oracle.f, atol=1e-9)


class TestLifEquivalence:
    @pytest.mark.parametrize("encoding", ["float", "spike"])
    def test_traces_match(self, encoding):
        tau = 10.0
        # jittered grids keep decision margins generic; the float grid also
        # avoids the never-spiking resonance at x = theta/R exactly
        if encoding == "float":
            x = equivalence_grid(-0.5, 12.0, 44, seed=31, dyadics=(0.0, 0.25, 6.5))
        else:
            x = equivalence_grid(0.03, 0.96, 43, seed=32, dyadics=(0.25, 0.5))
        n = x.size
        neuron = LifNeuron(IfLifParams(theta_th=1.0, R=1.0, tau_m=tau, u_rest=0.0), n=n)
        oracle = LifEmaOracle(theta=1.0, R=1.0, tau=tau, u_rest=0.0, u0=0.0, n=n)
        enc = ConstantEncoder(x) if encoding == "float" else EmaDeterministicEncoder(x, tau)
        worst = 0.0
        for t in range(1, 2001):
            I = enc.step()
            s_n = neuron.step(I)
            s_o = oracle.step(I)
            assert np.array_equal(s_n, s_o), t
            f_n = lif_transform(neuron.decoded, t, u0=0.0, u_rest=0.0, theta=1.0, tau=tau)
            worst = max(worst, np.abs(f_n - oracle.f).max())
        assert worst <= 1e-9
        # constant-step band around the closed-form solution: the oscillation
        # amplitude is eta * max(f*, 1 - f*), so the 0.06 band holds where
        # the target sits at 0 or in the mid range; eta + slack holds always
        target = np.clip(x / 9.0 - 1.0 / 9.0, 0.0, 1.0)
        err = np.abs(neuron.decoded - target)
        assert err.max() <= 1.0 / tau + 0.01
        calm = (target == 0.0) | (target >= 0.4)
        assert err[calm].max() <= 0.06

    def test_nonzero_urest_supported(self):
        tau = 10.0
        neuron = LifNeuron(IfLifParams(theta_th=1.0, tau_m=tau, u_rest=0.4, u0=0.2), n=1)
        oracle = LifEmaOracle(tau=tau, u_rest=0.4, u0=0.2, n=1)
        for t in range(1, 500):
            s_n = neuron.step(np.array([3.0]))
            s_o = oracle.step(np.array([3.0]))
            assert np.array_equal(s_n, s_o), t
            f_n = lif_transform(neuron.decoded, t, u0=0.2, u_rest=0.4, theta=1.0, tau=tau)
            np.testing.assert_allclose(f_n, oracle.f, atol=1e-9)


class TestConvergenceBound:
    def test_direct_formula(self):
        # exact input, f0=1, f*=0.5, M=1, t=1: 0.25/2 + 2/2 * h(1) = 1.125
        got = convergence_bound(1.0, 0.5, 1.0, 0.5, [0.5], 1)
        assert got == pytest.approx(1.125)

    def test_exact_input_error_term_zero(self):
        b1 = convergence_bound(1.0, 0.5, 1.0, 0.5, [0.5] * 100, 100)
        b2 = convergence_bound(1.0, 0.5, 1.0, 0.5, [0.4] * 100, 100)
        assert b2 > b1

    def test_bound_vanishes_for_exact_input(self):
        ts = [10, 100, 1000, 10_000]
        vals = [
            convergence_bound(1.0, 0.5, 1.0, 0.5, np.full(t, 0.5), t) for t in ts
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 5e-3

    def test_checker_matches_direct(self):
        rng = make_rng(2)
        xs = 0.5 + rng.normal(0, 0.1, 50)
        chk = BoundChecker(f0=1.0, f_star=0.5, M=1.2, x=0.5)
        for v in xs:
            chk.push(v)
        direct = convergence_bound(1.0, 0.5, 1.2, 0.5, xs, 50)
        assert chk.bound() == pytest.approx(direct)

    def test_m_warning(self):
        chk = BoundChecker(1.0, 0.5, 1.0, 0.5)
        chk.push(0.5)
        with pytest.warns(RuntimeWarning):
            chk.check_m(2.0)

    def test_soundness_on_if_trace(self):
        # (f(t) - f*)^2 <= bound(t) along a float-encoded IF run
        x = np.array([-0.05, 0.3, 0.62, 0.95, 1.1])
        oracle = IfRateOracle(n=x.size)
        f_star = np.clip(x, 0, 1)
        chk = BoundChecker(f0=oracle.f0, f_star=f_star, M=1.0, x=x)
        enc = ConstantEncoder(x)
        max_f = np.zeros(x.size)
        for t in range(1, 2001):
            oracle.step(enc.step())
            chk.push(x)
            max_f = np.maximum(max_f, np.abs(oracle.f))
            assert np.all((oracle.f - f_star) ** 2 <= chk.bound() + 1e-12), t
        assert np.all(max_f <= 1.0)

    def test_input_error_regimes(self):
        # deterministic O(1/t) input: error decreases through decades
        x = equivalence_grid(-0.1, 1.1, 121, seed=78)
        oracle = IfRateOracle(n=x.size)
        enc = RateDeterministicEncoder(x)
        errs = {}
        f_star = np.clip(x, 0, 1)
        for t in range(1, 10_001):
            oracle.step(enc.step())
            if t in (1, 100, 10_000):
                errs[t] = np.abs(oracle.f - f_star).max()
        assert errs[10_000] <= 5e-2
        assert errs[10_000] < errs[100] < errs[1]
