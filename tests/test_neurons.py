import numpy as np
import pytest

from spikeopt.codec import heaviside, make_rng
from spikeopt.neurons import (
    FiringMechanism,
    IfLifParams,
    IfNeuron,
    LifNeuron,
    SignGdNeuron,
    SubgradNeuron,
    parse_mechanism,
)
from spikeopt.oracles import (
    IfRateOracle,
    SignGdOracle,
    SqErrObjective,
    if_transform,
    reference_nonlinearity,
)
from spikeopt.schedules import (
    Schedule,
    solve_signgd_coefficients,
    solve_subgrad_coefficients,
)


class TestIfStep:
    def test_fire_and_subtract(self):
        n = IfNeuron(IfLifParams(theta_th=1.0, R=1.0, u0=0.5))
        s = n.step(0.7)
        assert s == 1.0 and n.u[0] == pytest.approx(0.2)

    def test_subthreshold(self):
        n = IfNeuron(IfLifParams(theta_th=1.0, u0=0.0))
        s = n.step(0.0)
        assert s == 0.0 and n.u[0] == 0.0

    def test_rate_decode_converges_to_relu1(self):
        n = IfNeuron(IfLifParams())
        T = 1000
        for _ in range(T):
            n.step(0.5)
        assert abs(n.decoded[0] - 0.5) <= 1.0 / T

    def test_scale_invariance(self):
        # joint scaling (theta, R, u0, I) -> (c theta, c R, c u0, I) keeps spikes
        rng = make_rng(11)
        I = rng.uniform(0, 2, 500)
        base = IfNeuron(IfLifParams(theta_th=1.0, R=1.0, u0=0.3))
        scaled = IfNeuron(IfLifParams(theta_th=7.0, R=7.0, u0=2.1))
        for i in I:
            assert base.step(i) == scaled.step(i)


class TestLifStep:
    def test_pure_leak(self):
        n = LifNeuron(IfLifParams(theta_th=1.0, tau_m=10.0, u_rest=0.0, u0=1.0))
        s = n.step(0.0)
        assert s == 0.0 and n.u[0] == pytest.approx(0.9)

    def test_fire(self):
        n = LifNeuron(IfLifParams(theta_th=1.0, tau_m=10.0, u_rest=0.0, u0=1.0))
        s = n.step(10.0)
        assert s == 1.0 and n.u[0] == pytest.approx(0.9)

    def test_constant_input_tracks_closed_form(self):
        # EMA-decoded output approaches ReLU1(x/9 - 1/9) within the step band
        tau = 10.0
        for x in (0.5, 2.0, 5.0, 9.5):
            n = LifNeuron(IfLifParams(theta_th=1.0, R=1.0, tau_m=tau, u_rest=0.0))
            for _ in range(2000):
                n.step(x)
            target = np.clip(x / 9.0 - 1.0 / 9.0, 0.0, 1.0)
            assert abs(n.decoded[0] - target) <= 0.06, x

    def test_needs_tau_above_one(self):
        with pytest.raises(ValueError):
            LifNeuron(IfLifParams(tau_m=1.0))


class TestSubgradNeuron:
    def test_constant_current_converges(self):
        c = solve_subgrad_coefficients(Schedule.inverse(1.0))
        n = SubgradNeuron(c)
        T = 1000
        for _ in range(T):
            n.step(0.5)
        assert abs(n.decoded[0] - 0.5) <= 2.0 / T

    def test_silent_input_stays_near_zero(self):
        c = solve_subgrad_coefficients(Schedule.inverse(1.0))
        n = SubgradNeuron(n=1, coeffs=c)
        spikes = [n.step(0.0)[0] for _ in range(50)]
        assert spikes[0] == 1.0  # H(0) = 1 tie
        assert abs(n.decoded[0]) <= Schedule.inverse(1.0)(1)

    def test_oracle_replay_random_input(self):
        # spike-for-spike equality with the rate-coded IF oracle
        s = Schedule.inverse(1.0)
        c = solve_subgrad_coefficients(s)
        n = SubgradNeuron(c, n=8)
        oracle = IfRateOracle(theta=1.0, R=1.0, u0=1.0, n=8)
        rng = make_rng(5)
        for _ in range(10_000):
            I = rng.uniform(0, 1, 8)
            np.testing.assert_array_equal(n.step(I), oracle.step(I))
        np.testing.assert_allclose(n.decoded, oracle.f * (oracle.t / (oracle.t + 1.0)) ** 0, atol=1e-9)

    def test_generic_schedule_oracle_replay(self):
        # gamma chosen so eta(T) stays far above float resolution: once the
        # step size drops below ~1e-13 the iterate freezes onto exact ties
        # that two arithmetic routes cannot resolve consistently
        from spikeopt.oracles import SubgradOracle

        s = Schedule.exponential(0.15, 0.995)
        c = solve_subgrad_coefficients(s)
        n = SubgradNeuron(c, n=4)
        oracle = SubgradOracle(s, n=4)
        rng = make_rng(7)
        for _ in range(3000):
            I = rng.uniform(0, 1, 4)
            np.testing.assert_array_equal(n.step(I), oracle.step(I))
        np.testing.assert_allclose(n.decoded, oracle.f, atol=1e-9)

    def test_matches_if_neuron_spikes(self):
        # IF neuron started at u0 = theta is the exact specialization
        s = Schedule.inverse(1.0)
        c = solve_subgrad_coefficients(s)
        sub = SubgradNeuron(c, n=4)
        iff = IfNeuron(IfLifParams(theta_th=1.0, R=1.0, u0=1.0), n=4)
        rng = make_rng(17)
        T = 3000
        for _ in range(T):
            I = rng.uniform(0, 1.2, 4)
            np.testing.assert_array_equal(sub.step(I), iff.step(I))
        # schedule decode == Eq.-style transform of the rate decode (u0 = theta)
        np.testing.assert_allclose(
            sub.decoded, if_transform(iff.decoded, T, u0=1.0, theta=1.0), atol=1e-12
        )


class TestMechanisms:
    def test_parse_names(self):
        assert parse_mechanism("signgd:relu").kind == "relu"
        assert parse_mechanism("signgd:leaky:0.2").delta == 0.2
        assert parse_mechanism("misr").arity == 2
        with pytest.raises(ValueError):
            parse_mechanism("signgd:tanh")
        with pytest.raises(ValueError):
            parse_mechanism("signgd:relu:0.3")

    def test_relu_sign_logic(self):
        m = FiringMechanism("relu")
        assert m.spike(np.array([0.5]), np.array([[2.0]]))[0] == 0.0
        assert m.spike(np.array([0.3]), np.array([[-1.0]]))[0] == 1.0

    def test_gelu_at_zero(self):
        m = FiringMechanism("gelu")
        assert m.spike(np.array([1.0]), np.array([[0.0]]))[0] == 1.0

    def test_max2_selector(self):
        m = FiringMechanism("max2")
        assert m.spike(np.array([2.0]), np.array([[3.0], [1.0]]))[0] == 0.0

    def test_max2_tie_first_operand_wins(self):
        m = FiringMechanism("max2")
        # v1 == v2: selector must stay exclusive, spike stays binary
        s = m.spike(np.array([5.0]), np.array([[1.0], [1.0]]))
        assert s[0] == 1.0

    def test_square(self):
        m = FiringMechanism("square")
        assert m.spike(np.array([3.0]), np.array([[2.0]]))[0] == 0.0

    def test_misr_first_branch(self):
        m = FiringMechanism("misr")
        assert m.spike(np.array([1.0]), np.array([[1.0], [4.0]]))[0] == 1.0

    def test_misr_degenerate_counts_and_falls_back(self):
        m = FiringMechanism("misr")
        s = m.spike(np.array([0.5, -0.5]), np.array([[1.0, 1.0], [-1.0, 0.0]]))
        np.testing.assert_array_equal(s, [1.0, 0.0])  # H(u)
        # the neuron layer counts them: with W = b = 0, the scaled v is -I
        neuron = misr_layer(m)
        neuron.step(np.array([[-1.0, -1.0], [1.0, 0.0]]))
        assert neuron.degeneracies == 2

    def test_misr_layers_of_one_mechanism_count_independently(self):
        m = FiringMechanism("misr")
        a, b = misr_layer(m), misr_layer(m)
        a.step(np.array([[-1.0, -1.0], [1.0, 0.0]]))  # v2 = [-1, 0]: both degenerate
        b.step(np.array([[-1.0, -1.0], [-1.0, -2.0]]))  # v2 = [1, 2]: healthy
        assert (a.degeneracies, b.degeneracies) == (2, 0)
        b.reset()
        assert a.degeneracies == 2

    def test_grad_sign_against_reference(self):
        # exclusive-branch forms equal sign(u - f(v)) on random data
        rng = make_rng(23)
        for kind in ("relu", "leaky", "gelu", "square"):
            m = FiringMechanism(kind)
            u = rng.normal(0, 2, 400)
            v = rng.normal(0, 2, (1, 400))
            want = heaviside(u - reference_nonlinearity(kind, v[0], m.delta))
            np.testing.assert_array_equal(m.spike(u, v), want)
        m = FiringMechanism("max2")
        v = rng.normal(0, 2, (2, 400))
        u = rng.normal(0, 2, 400)
        np.testing.assert_array_equal(
            m.spike(u, v), heaviside(u - np.maximum(v[0], v[1]))
        )
        m = FiringMechanism("misr")
        v = np.stack([rng.normal(0, 2, 400), rng.uniform(0.1, 5, 400)])
        np.testing.assert_array_equal(
            m.spike(u, v), heaviside(u - v[0] / np.sqrt(v[1]))
        )


def misr_layer(mech):
    """Two-neuron misr layer with W = b = 0 under inv:1 (scaled v(1) = -I)."""
    s = Schedule.inverse(1.0)
    return SignGdNeuron(mech, solve_signgd_coefficients(s), s, W=0.0, b=0.0, n=2)


def make_neuron_oracle_pair(kind, schedule, parameterization, n, W, b, delta=0.1):
    mech = FiringMechanism(kind, delta)
    coeffs = solve_signgd_coefficients(schedule, parameterization)
    neuron = SignGdNeuron(mech, coeffs, schedule, W=W, b=b, n=n)
    oracle = SignGdOracle(SqErrObjective(kind, delta), schedule, W=W, b=b, n=n)
    return neuron, oracle


class TestSignGdNeuronUnits:
    def test_integrate_spec_example(self):
        s = Schedule.constant(0.5)
        neuron, _ = make_neuron_oracle_pair("relu", s, "canonical", 1, W=1.0, b=0.0)
        neuron.integrate(np.array([[1.0]]))
        assert neuron.v[0, 0] == pytest.approx(-0.5)

    def test_zero_current_drifts_up(self):
        s = Schedule.inverse(1.0)
        neuron, _ = make_neuron_oracle_pair("relu", s, "canonical", 1, W=1.0, b=0.0)
        v_prev = neuron.v[0, 0]
        for t in range(1, 6):
            neuron.step(np.array([[0.0]]))
            assert neuron.v[0, 0] == pytest.approx(v_prev + s(t))
            v_prev = neuron.v[0, 0]

    def test_reset_directions_canonical(self):
        s = Schedule.constant(0.5)
        neuron, _ = make_neuron_oracle_pair("relu", s, "canonical", 1, W=1.0, b=0.0)
        neuron.reset_potential(np.array([1.0]))
        assert neuron.u[0] == pytest.approx(-0.5)
        neuron2, _ = make_neuron_oracle_pair("relu", s, "canonical", 1, W=1.0, b=0.0)
        neuron2.reset_potential(np.array([0.0]))
        assert neuron2.u[0] == pytest.approx(0.5)

    def test_reset_unit_current_decays_up(self):
        # exponential a*g^t with unit-current coefficients: u <- u/g -+ eta(1)
        g = 0.9
        s = Schedule.exponential(0.5, g)
        neuron, _ = make_neuron_oracle_pair("relu", s, "unit-current", 1, W=1.0, b=0.0)
        neuron.u[0] = 1.0
        neuron.reset_potential(np.array([1.0]))
        assert neuron.u[0] == pytest.approx(1.0 / g - 0.45)

    def test_v_reconstruction_matches_weighted_decode(self):
        # v(t) under canonical coefficients equals sum_i W_i x_i(t) + b exactly
        s = Schedule.inverse(1.0)
        rng = make_rng(3)
        W_in = rng.normal(0, 1, 5)
        bias = 0.7
        neuron, _ = make_neuron_oracle_pair(
            "relu", s, "canonical", 1, W=[[W_in.sum()]], b=[[bias]]
        )
        from spikeopt.codec import SignedDecoder

        decs = [SignedDecoder(s) for _ in range(5)]
        for _ in range(200):
            spikes = rng.integers(0, 2, 5).astype(float)
            current = W_in @ spikes + bias
            neuron.step(np.array([[current]]))
            for d, sp in zip(decs, spikes):
                d.step(sp)
            want = sum(w * d.y for w, d in zip(W_in, decs)) + bias
            assert neuron.decoded_input[0, 0] == pytest.approx(want, abs=1e-12)

    def test_bias_only_initialization(self):
        s = Schedule.exponential(0.5, 0.9)
        for p in ("canonical", "unit-current"):
            neuron, _ = make_neuron_oracle_pair("relu", s, p, 1, W=1.0, b=2.0)
            assert neuron.decoded_input[0, 0] * 0 == 0  # finite
            # scaled v(0) must reconstruct the bias exactly
            scale = s(0) / float(neuron.c.alpha2(0))
            assert scale * neuron.v[0, 0] == pytest.approx(2.0)

    def test_corrupted_coefficients_rejected(self):
        s = Schedule.inverse(1.0)
        c = solve_signgd_coefficients(s).replace(beta1=lambda t: 1.001)
        with pytest.raises(ValueError):
            SignGdNeuron(FiringMechanism("relu"), c, s, W=1.0, b=0.0)

    def test_arity_mismatch_rejected(self):
        s = Schedule.inverse(1.0)
        coeffs = solve_signgd_coefficients(s)
        with pytest.raises(ValueError):
            # two-operand calibration cannot attach to a one-operand mechanism
            SignGdNeuron(FiringMechanism("relu"), coeffs, s,
                         W=np.ones((2, 3)), b=np.zeros((2, 3)), n=3)
        neuron = SignGdNeuron(FiringMechanism("max2"), coeffs, s,
                              W=np.ones((2, 3)), b=np.zeros((2, 3)), n=3)
        with pytest.raises(ValueError):
            neuron.step(np.ones((1, 3)))  # missing the second operand current


MECH_CASES = ["relu", "leaky", "gelu", "max2", "square", "misr"]


def equivalence_inputs(kind, arity, n, rng, spread):
    """Weights and biases that keep the decoded input inside the mechanism's
    smooth active region for a random-walk input of the given spread.

    Flat target stretches (ReLU's zero branch, saturated GELU, x2 <= 0 for the
    inverse-sqrt) make real-arithmetic decision margins cascade toward zero,
    where any cross-route rounding drift could flip a spike; the flat branches
    get their own dedicated short-horizon checks instead.
    """
    W = rng.uniform(0.5, 1.5, (arity, n)) * rng.choice([-1.0, 1.0], (arity, n))
    b = 4.0 * spread * np.abs(W) + rng.uniform(0, 1, (arity, n))
    if kind == "max2":
        b[1] += rng.uniform(1, 2, n)
    if kind == "misr":
        W[1] = 0.2 * W[1]
        b[1] = 4.0 * spread * np.abs(W[1]) + rng.uniform(1, 2, n)
    return W, b


def run_equivalence(kind, parameterization, schedule, spread, T, n=3, seed=0):
    arity = 2 if kind in ("max2", "misr") else 1
    rng = make_rng(seed)
    W, b = equivalence_inputs(kind, arity, n, rng, spread)
    neuron, oracle = make_neuron_oracle_pair(kind, schedule, parameterization, n, W, b)
    spikes = rng.integers(0, 2, (T, arity, n)).astype(np.float64)
    for t in range(T):
        I = b + W * spikes[t]
        s_n = neuron.step(I)
        s_o = oracle.step(I)
        if not np.array_equal(s_n, s_o):
            raise AssertionError(f"{kind}/{parameterization}: spikes diverged at step {t + 1}")
    np.testing.assert_allclose(neuron.decoded, oracle.f, atol=1e-9)
    np.testing.assert_allclose(neuron.decoded_input, oracle.x_tilde, atol=1e-9)


class TestOptimizerEquivalence:
    """Core contract: spike-for-spike equality with the sign-gradient oracle."""

    @pytest.mark.parametrize("kind", MECH_CASES)
    def test_canonical_random_trains(self, kind):
        # inverse(1): decoded-input wander has std sqrt(sum eta^2) ~ 0.8
        run_equivalence(kind, "canonical", Schedule.inverse(1.0), spread=0.9, T=2000, seed=11)

    @pytest.mark.parametrize("kind", MECH_CASES)
    def test_unit_current_random_trains(self, kind):
        # exponential(0.5, 0.999): wander std ~ 11
        run_equivalence(
            kind, "unit-current", Schedule.exponential(0.5, 0.999), spread=11.0, T=2000, seed=12
        )

    @pytest.mark.parametrize("parameterization,schedule", [
        ("canonical", Schedule.inverse(1.0)),
        ("unit-current", Schedule.exponential(0.5, 0.999)),
    ])
    def test_relu_flat_branch_short_horizon(self, parameterization, schedule):
        # negative inputs, target pinned at zero: margins stay above the
        # cross-route drift for a short run
        n = 3
        rng = make_rng(21)
        W = rng.uniform(0.5, 1.5, (1, n))
        b = -5.0 * np.ones((1, n))
        neuron, oracle = make_neuron_oracle_pair("relu", schedule, parameterization, n, W, b)
        for _ in range(64):
            I = b + W * rng.integers(0, 2, (1, n))
            np.testing.assert_array_equal(neuron.step(I), oracle.step(I))


class TestUnaryApproximation:
    @pytest.mark.parametrize("kind", ["relu", "leaky", "gelu"])
    def test_deterministic_encoding_grid(self, kind):
        # single neuron approximates its nonlinearity over x in [-3, 3]
        s = Schedule.inverse(1.0)
        x = np.linspace(-3, 3, 121)
        mech = FiringMechanism(kind, 0.1)
        coeffs = solve_signgd_coefficients(s)
        neuron = SignGdNeuron(mech, coeffs, s, W=np.ones((1, 121)), b=np.zeros((1, 121)), n=121)
        from spikeopt.codec import DeterministicEncoder

        enc = DeterministicEncoder(x, s)
        for _ in range(1000):
            neuron.step(enc.step()[None, :])
        err = np.abs(neuron.decoded - reference_nonlinearity(kind, x, 0.1))
        assert err.max() <= 0.05
        assert np.median(err) <= 0.01
