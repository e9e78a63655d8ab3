import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_neuron import (
    ReferenceIfNeuron,
    ReferenceLifNeuron,
    ReferenceSignGdNeuron,
    ReferenceSubgradNeuron,
    reference_spike,
)
from spikeopt.codec import heaviside, make_rng
from spikeopt.neurons import (
    SMALL_OPERANDS,
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
    ScheduleError,
    check_coefficients,
    parse_schedule,
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

    @pytest.mark.parametrize("batch", [None, 3])
    def test_buffers_keep_returned_spikes_and_counts(self, batch):
        # u and y are updated in place; the spikes a step returns are the
        # caller's to keep, and spike_count sums them
        neuron = SubgradNeuron(solve_subgrad_coefficients(Schedule.inverse(1.0)), n=4)
        neuron.reset(batch)
        rng = make_rng(8)
        shape = (4,) if batch is None else (batch, 4)
        kept = [(s, s.copy()) for s in (neuron.step(rng.uniform(0.0, 1.0, shape))
                                        for _ in range(20))]
        assert len({s.tobytes() for _, s in kept}) > 1
        for spikes, copy in kept:
            np.testing.assert_array_equal(spikes, copy)
        count = neuron.spike_count
        assert count.dtype == np.int64 and count.shape == shape[:-1]
        np.testing.assert_array_equal(count, sum(copy for _, copy in kept).sum(-1))

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

    @settings(max_examples=300, deadline=None)
    @given(d=st.floats(allow_nan=False, allow_infinity=False))
    def test_a_leaky_name_reads_back_as_its_slope(self, d):
        """A leaky mechanism's name keeps every bit of its slope: the name is
        where a converted graph keeps it."""
        assert parse_mechanism(FiringMechanism("leaky", d).name) == FiringMechanism("leaky", d)

    def test_relu_sign_logic(self):
        m = FiringMechanism("relu")
        assert m.spike(np.array([0.5]), np.array([[2.0]]))[0] == 0.0
        assert m.spike(np.array([0.3]), np.array([[-1.0]]))[0] == 1.0

    def test_gelu_at_zero(self):
        m = FiringMechanism("gelu")
        assert m.spike(np.array([1.0]), np.array([[0.0]]))[0] == 1.0

    def test_gelu_overflowing_exp_fires_without_warning(self):
        # exp(1702) overflows to inf: (1 + inf) * u >= v0 for u > 0
        m = FiringMechanism("gelu")
        assert m.spike(np.array([1.0]), np.array([[-1000.0]]))[0] == 1.0
        assert m.spike(np.array([-1.0]), np.array([[-1000.0]]))[0] == 0.0

    @pytest.mark.parametrize("v0", [-417.5, -500.0, -1e308])
    def test_gelu_fires_at_zero_u_where_exp_overflows(self, v0):
        # gelu(v0) ~ -0 <= u = 0, though (1 + inf) * 0 is NaN
        m = FiringMechanism("gelu")
        u, v = np.array([0.0, -0.0]), np.array([[v0, v0]])
        np.testing.assert_array_equal(m.spike(u, v), [1.0, 1.0])
        np.testing.assert_array_equal(reference_spike(m, u, v), [1.0, 1.0])

    def test_square_overflowing_target_stays_silent_without_warning(self):
        # 1e200 ** 2 overflows to inf, above every finite u
        m = FiringMechanism("square")
        s = m.spike(np.array([1e300, -1.0]), np.array([[1e200, -1e200]]))
        np.testing.assert_array_equal(s, [0.0, 0.0])

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


RULES = [FiringMechanism(k) for k in ("relu", "gelu", "square", "max2", "misr")] + [
    FiringMechanism("leaky", d) for d in (0.01, 0.1, 0.2, 0.5, 1.0)]
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1.0, -1.0,
         1e154, -1e154, 1e308, -1e308, 1.7976931348623157e308]
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGES)


def target(mech, v0, v1):
    """The m(v) of `mech` as a float, where u == m(v) is a tie."""
    with np.errstate(all="ignore"):
        return float({
            "relu": lambda: max(v0, 0.0),
            "max2": lambda: max(v0, v1),
            "leaky": lambda: v0 if v0 >= 0 else mech.delta * v0,
            "square": lambda: np.float64(v0) ** 2,
            "gelu": lambda: v0 / (1.0 + np.exp(np.float64(-1.702 * v0))),
            "misr": lambda: v0 / np.sqrt(np.float64(v1)) if v1 > 0 else 0.0,
        }[mech.kind]())


@settings(max_examples=300, deadline=None)
@given(mech=st.sampled_from(RULES),
       rows=st.lists(st.tuples(finite, finite, finite, st.booleans()), min_size=1, max_size=8))
@example(mech=FiringMechanism("gelu"), rows=[(0.0, -1000.0, 0.0, False)])
@example(mech=FiringMechanism("square"), rows=[(1e300, 1e200, 0.0, False)])
def test_spike_rules_equal_the_heaviside_forms(mech, rows):
    """Each comparison rule gives, bit for bit, the Heaviside of the
    difference it replaces, on every finite input and at exact ties."""
    cols = []
    for x, a, b, tie in rows:
        m = target(mech, a, b)
        cols.append((m if tie and np.isfinite(m) else x, a, b))
    u, v0, v1 = map(np.array, zip(*cols))
    v = np.stack([v0, v1][:mech.arity])
    np.testing.assert_array_equal(mech.spike(u, v), reference_spike(mech, u, v))


def misr_layer(mech):
    """Two-neuron misr layer with W = b = 0 under inv:1 (scaled v(1) = -I)."""
    s = Schedule.inverse(1.0)
    return SignGdNeuron(mech, solve_signgd_coefficients(s), W=0.0, b=0.0, n=2)


def make_neuron_oracle_pair(kind, schedule, parameterization, n, W, b, delta=0.1):
    mech = FiringMechanism(kind, delta)
    coeffs = solve_signgd_coefficients(schedule, parameterization)
    neuron = SignGdNeuron(mech, coeffs, W=W, b=b, n=n)
    oracle = SignGdOracle(SqErrObjective(kind, delta), schedule, W=W, b=b, n=n)
    return neuron, oracle


class TestSignGdNeuronUnits:
    def test_integrate_spec_example(self):
        s = Schedule.constant(0.5)
        neuron, _ = make_neuron_oracle_pair("relu", s, "canonical", 1, W=1.0, b=0.0)
        neuron.step(np.array([[1.0]]))  # firing and reset leave v as integrated
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
        # I = 1 drives v to -0.5: u = 0 meets the target 0 and fires
        assert neuron.step(np.array([[1.0]]))[0] == 1.0
        assert neuron.u[0] == pytest.approx(-0.5)
        neuron2, _ = make_neuron_oracle_pair("relu", s, "canonical", 1, W=1.0, b=0.0)
        # I = 0 drives v to 0.5, above u = 0: no spike
        assert neuron2.step(np.array([[0.0]]))[0] == 0.0
        assert neuron2.u[0] == pytest.approx(0.5)

    def test_reset_unit_current_decays_up(self):
        # exponential a*g^t with unit-current coefficients: u <- u/g -+ eta(1)
        g = 0.9
        s = Schedule.exponential(0.5, g)
        neuron, _ = make_neuron_oracle_pair("relu", s, "unit-current", 1, W=1.0, b=0.0)
        neuron.u[0] = 1.0
        # I = 1 drives v below 0, under the scaled u: a spike
        assert neuron.step(np.array([[1.0]]))[0] == 1.0
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

    @pytest.mark.parametrize("kind", ["relu", "leaky", "gelu", "square", "max2", "misr"])
    @pytest.mark.parametrize("batch", [None, 3])
    def test_returned_spikes_survive_the_next_step(self, kind, batch):
        # the stages reuse their buffers from step to step; the spikes they
        # return are the caller's to keep
        s = Schedule.inverse(1.0)
        arity = FiringMechanism(kind).arity
        neuron = SignGdNeuron(FiringMechanism(kind), solve_signgd_coefficients(s),
                              W=1.0, b=np.linspace(-1.0, 1.0, 4), n=4)
        neuron.reset(batch)
        shape = (arity, 4) if batch is None else (arity, batch, 4)
        rng = make_rng(4)
        kept = [(spikes, spikes.copy()) for spikes in (
            neuron.step(rng.uniform(-2.0, 2.0, shape)) for _ in range(20))]
        assert len({sp.tobytes() for _, sp in kept}) > 1
        for spikes, copy in kept:
            np.testing.assert_array_equal(spikes, copy)

    @pytest.mark.parametrize("family,name", [("signgd", "sign-dynamics"),
                                             ("subgrad", "subgradient")])
    def test_corrupted_coefficients_rejected(self, family, name):
        """A neuron steps the set it is given; `check_coefficients`, made where
        a set is solved, is what rejects a corrupted one, naming its family."""
        s = Schedule.inverse(1.0)
        if family == "signgd":
            c = dataclasses.replace(solve_signgd_coefficients(s), beta1=lambda t: 1.001)
            neuron = SignGdNeuron(FiringMechanism("relu"), c, W=1.0, b=0.0)
        else:
            base = solve_subgrad_coefficients(s)
            c = dataclasses.replace(base, alpha=lambda t: 1.01 * base.alpha(t))
            neuron = SubgradNeuron(c)
        neuron.step(np.ones(1))
        assert neuron.t == 1
        with pytest.raises(ScheduleError,
                           match=f"^{name} coefficients violate their constraint equations$"):
            check_coefficients(c)

    def test_arity_mismatch_rejected(self):
        s = Schedule.inverse(1.0)
        coeffs = solve_signgd_coefficients(s)
        with pytest.raises(ValueError):
            # two-operand calibration cannot attach to a one-operand mechanism
            SignGdNeuron(FiringMechanism("relu"), coeffs,
                         W=np.ones((2, 3)), b=np.zeros((2, 3)), n=3)
        neuron = SignGdNeuron(FiringMechanism("max2"), coeffs,
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
        neuron = SignGdNeuron(mech, coeffs, W=np.ones((1, 121)), b=np.zeros((1, 121)), n=121)
        from spikeopt.codec import DeterministicEncoder

        enc = DeterministicEncoder(x, s)
        for _ in range(1000):
            neuron.step(enc.step()[None, :])
        err = np.abs(neuron.decoded - reference_nonlinearity(kind, x, 0.1))
        assert err.max() <= 0.05
        assert np.median(err) <= 0.01


# ---------------------------------------------------------------------------
# Block calls against the reference neurons
# ---------------------------------------------------------------------------

# (kind, leaky slope), or for subgrad the solved set (None) or beta = 0.5 eta,
# or for IF and LIF the threshold over `scale`
BLOCK_MECHS = [("relu", 0.1), ("gelu", 0.1), ("square", 0.1), ("max2", 0.1), ("misr", 0.1),
               *(("leaky", d) for d in (0.1, 0.0, 1.0, 2.5, -0.3)), ("subgrad", None),
               ("subgrad", 0.5), ("if", 1.0), ("if", 0.5), ("lif", 1.0), ("lif", 0.25)]
# exp:0.5:0.5 keeps every factor a power of two, so small integer currents
# give dyadic u and v and exact ties u == target
BLOCK_SCHEDULES = [("inv:1", "canonical"), ("exp:0.5:0.99", "canonical"),
                   ("exp:0.5:0.99", "unit-current"), ("exp:0.5:0.5", "canonical"),
                   ("exp:0.5:0.5", "unit-current")]


def block_layer(kind, delta, schedule, parameterization, n, rng, scale):
    """A layer under test, one reference neuron factory per item, and the
    operand count; W, b and currents are integers times `scale`. A subgrad
    `delta` sets beta = delta eta, so y's eta s is not the reset's beta s.
    IF and LIF (which take no schedule) have the threshold `delta` `scale`
    and dyadic R, tau, u_rest and u0."""
    if kind in ("if", "lif"):
        p = IfLifParams(theta_th=delta * scale, R=0.5, tau_m=4.0, u_rest=0.5 * scale,
                        u0=0.25 * scale)
        layer, ref = {"if": (IfNeuron, ReferenceIfNeuron),
                      "lif": (LifNeuron, ReferenceLifNeuron)}[kind]
        return layer(p, n=n), lambda: ref(p, n), 1, None, None
    s = parse_schedule(schedule)
    if kind == "subgrad":
        c = solve_subgrad_coefficients(s)
        if delta is not None:
            c = dataclasses.replace(c, beta=lambda t: delta * s(t))
        return (SubgradNeuron(c, n=n),
                lambda: ReferenceSubgradNeuron(c, n), 1, None, None)
    mech = FiringMechanism(kind, delta)
    c = solve_signgd_coefficients(s, parameterization)
    # misr's idle denominators may be <= 0, so some evaluations fall back
    W = scale * rng.integers(-2, 3, (mech.arity, n)).astype(float)
    b = scale * rng.integers(-2, 3, (mech.arity, n)).astype(float)
    return (SignGdNeuron(mech, c, W=W, b=b, n=n),
            lambda: ReferenceSignGdNeuron(mech, c, s, W, b, n), mech.arity, W, b)


def reference_state(refs, batched):
    """The references' state after a step, shaped like the layer's."""
    pick = (lambda x: np.stack(x)) if batched else (lambda x: x[0])
    state = {"u": pick([r.u for r in refs]), "decoded": pick([r.decoded for r in refs]),
             "t": refs[0].t}
    if hasattr(refs[0], "v"):
        state["v"] = np.stack([r.v for r in refs], axis=1) if batched else refs[0].v
        state["degeneracies"] = sum(r.degeneracies for r in refs)
    elif hasattr(refs[0], "y"):
        state["y"] = pick([r.y for r in refs])
    return state


def layer_state(layer, names):
    return {name: np.copy(getattr(layer, name)) for name in names}


def layer_width(side, B, arity):
    """n for a sign layer of B items on one `side` of SMALL_OPERANDS: 3
    ("small"), the widest whose B arity n operands take the block-target
    path ("edge"), or one more, which takes the per-step path ("large")."""
    if side == "small":
        return 3
    edge = SMALL_OPERANDS // (B * arity)
    return edge if side == "edge" else edge + 1


@pytest.mark.parametrize("mech", BLOCK_MECHS, ids=lambda m: ":".join(map(str, m)))
@settings(max_examples=40, deadline=None)
@given(sched=st.sampled_from(BLOCK_SCHEDULES),
       B=st.integers(1, 16), T=st.integers(1, 40), K=st.integers(1, 40),
       scale=st.sampled_from([1.0, 0.5, 1000.0]), scratch=st.sampled_from(["none", "own", "I"]),
       one_step=st.booleans(), seed=st.integers(0, 2**16),
       side=st.sampled_from(["small", "edge", "large"]))
def test_block_steps_are_the_reference_steps(mech, sched, B, T, K, scale, scratch, one_step,
                                              seed, side):
    """Blocks of K steps of B items, K from 1 to T and not always dividing T,
    give every step what the reference neurons give, bit for bit: spikes, u,
    v or y, t, `decoded` and misr degeneracies after each step (read by the
    observer), and `spike_count` after each block. Ties (dyadic currents
    under exp:0.5:0.5, and IF's and LIF's u_pre == theta with dyadic
    parameters and currents), misr's fallback (idle denominators <= 0) and
    gelu targets with exp overflowing (currents of 1000s) all occur. With
    `one_step`, one `step(I)` call per step, without `steps`. A sign layer
    takes both paths of `SignGdNeuron.step`: `side` puts its B arity n at,
    or just past, SMALL_OPERANDS, or far below it."""
    (kind, delta), (schedule, parameterization) = mech, sched
    rng = make_rng(seed)
    n = layer_width(side, B, 2 if kind in ("max2", "misr") else 1)
    layer, make_ref, arity, W, b = block_layer(kind, delta, schedule, parameterization, n,
                                               rng, scale)
    batched = B > 1 or seed % 2  # one item also as the unbatched layer
    layer.reset(B if batched else None)
    refs = [make_ref() for _ in range(B)]
    if kind in ("if", "lif"):  # multiples of scale / 4, R I of scale / 8
        currents = scale * rng.integers(-2, 7, (T, B, arity, n)) / 4
    elif W is None:
        currents = rng.uniform(-0.5, 1.5, (T, B, arity, n))
    else:  # the idle current plus spikes on the weights, and a little noise
        currents = (b + W * rng.integers(0, 2, (T, B, arity, n))
                    + scale * rng.integers(-1, 2, (T, B, arity, n)))
    names = ["u", "decoded", "t"] + (["v", "degeneracies"] if W is not None
                                     else ["y"] if kind == "subgrad" else [])
    K = min(K, T)
    for t0 in range(0, T, K):
        k = min(K, T - t0)
        want_spikes, want_states = [], []
        for I in currents[t0 : t0 + k]:
            # one item's (arity, n) currents, or (n,) for a one-operand neuron
            want_spikes.append(np.stack([r.step(I[i] if W is not None else I[i, 0])
                                         for i, r in enumerate(refs)]))
            want_states.append(reference_state(refs, batched))
        if one_step:
            got_states = []
            for I, want in zip(currents[t0 : t0 + k], want_spikes):
                # one step's currents, shaped like v (sign) or like u (subgrad)
                I = I.transpose(1, 0, 2) if W is not None else I[:, 0]
                spikes = layer.step(I.reshape(layer.v.shape if W is not None else layer.u.shape))
                np.testing.assert_array_equal(spikes, want.reshape(layer.u.shape))
                got_states.append(layer_state(layer, names))
        else:
            rows = currents[t0 : t0 + k].reshape(k * B, arity * n).copy()
            buf = {"none": None, "own": np.empty_like(rows), "I": rows}[scratch]
            out = np.empty((k * B, n))
            got_states = []
            spikes = layer.step(rows, steps=k, out=out, scratch=buf,
                                observer=lambda j: got_states.append(layer_state(layer, names)))
            assert spikes is out and len(got_states) == k
            np.testing.assert_array_equal(out.reshape(k, B, n), np.stack(want_spikes))
        for got, want in zip(got_states, want_states):
            for name in names:
                np.testing.assert_array_equal(got[name], want[name], err_msg=name)
        np.testing.assert_array_equal(layer.spike_count,
                                      np.array([r.spike_count for r in refs]) if batched
                                      else refs[0].spike_count)


@pytest.mark.parametrize("n", [4, SMALL_OPERANDS + 4], ids=["block-targets", "step-targets"])
def test_block_step_where_twice_b2_overflows(n):
    """const:1.7e308 is a valid schedule whose b2 = 1.7e308 has 2 b2 = inf:
    the reset still subtracts exactly +-b2, as the reference does, on both
    sides of SMALL_OPERANDS. Inputs that alternate keep v and u finite."""
    s = parse_schedule("const:1.7e308")
    c = solve_signgd_coefficients(s)
    mech, W = FiringMechanism("relu"), np.ones((1, n))
    b = np.resize([0.0, 1.0, -1.0, 2.0], (1, n))
    layer = SignGdNeuron(mech, c, W=W, b=b, n=n)
    ref = ReferenceSignGdNeuron(mech, c, s, W, b, n)
    pattern = (np.arange(8)[:, None] + np.arange(n)) % 2
    currents = (b + W * pattern[:, None]).astype(float)  # (8, 1, n)
    got = layer.step(currents.reshape(8, n), steps=8)
    want = np.stack([ref.step(I) for I in currents])
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(layer.u, ref.u)
    np.testing.assert_array_equal(layer.v, ref.v)
    assert np.isfinite(ref.u).all() and np.isfinite(ref.v).all() and 0 < want.sum() < want.size


@pytest.mark.parametrize("kind,v0", [("gelu", [-410.0]), ("misr", [1.0, 1e300])])
def test_block_targets_whose_products_of_u_overflow(kind, v0):
    """A block-target layer whose comparisons overflow, gelu's finite gain
    1 + exp(1.702 410) ~ 5e302 times |u| ~ 1e6 or misr's v2 u u with
    v2 = 1e300, still steps as the reference does and warns of nothing:
    the bound on |u| sends it through np.errstate. The currents hold v
    where it starts, and const:1e6 moves u by 1e6 a step."""
    s = parse_schedule("const:1e6")
    c = solve_signgd_coefficients(s)
    mech, n = FiringMechanism(kind), 2
    b = np.repeat(np.array(v0)[:, None], n, axis=1)
    W = np.ones_like(b)
    layer = SignGdNeuron(mech, c, W=W, b=b, n=n)
    ref = ReferenceSignGdNeuron(mech, c, s, W, b, n)
    currents = np.broadcast_to(b + W / 2, (8, *b.shape))
    got = layer.step(currents.reshape(8, -1), steps=8)
    want, peak = [], 0.0
    for I in currents:
        peak = max(peak, np.abs(ref.u).max())  # the |u| this step compares
        want.append(ref.step(I))
    np.testing.assert_array_equal(got, np.stack(want))
    np.testing.assert_array_equal(layer.u, ref.u)
    np.testing.assert_array_equal(layer.v, ref.v)
    assert peak >= 1e6


@pytest.mark.parametrize("c", [0.125, 0.0625])
@pytest.mark.parametrize("n", [8, SMALL_OPERANDS // 2 + 8], ids=["block-targets", "step-targets"])
def test_block_step_where_gelu_gain_times_u_is_v0(c, n):
    """Under const:c (c a power of two, so v moves exactly) step 1 leaves
    u = -c where a neuron fired and +c where it did not, and step 2 puts v0
    on the float fixed point of v0 = (1 + exp(-1.702 v0)) u: gain u lands
    exactly on v0, a tie, which fires. Two items on both sides of
    SMALL_OPERANDS step as the reference does; a gain one ulp high misses
    the ties at u = -c, one ulp low those at u = +c."""
    s = parse_schedule(f"const:{c}")
    coeffs = solve_signgd_coefficients(s)
    mech, B, eps = FiringMechanism("gelu"), 2, 2.0**-40
    tie = {}
    for u in (-c, c):
        v0 = np.zeros(1)
        for _ in range(100):
            v0 = (1.0 + np.exp(-1.702 * v0)) * u
        tie[u] = float(v0[0])
    # v moves by -2 c I: item b's neuron j goes to v0 = 0 at step 1 (fires,
    # as u = 0) where j + b is even and to v0 = eps (silent) where it is odd
    fired = (np.arange(n) + np.arange(B)[:, None]) % 2 == 0
    first = np.where(fired, 0.0, -eps / (2 * c))
    second = np.where(fired, -tie[-c] / (2 * c), (eps - tie[c]) / (2 * c))
    currents = np.stack([first, second])[:, :, None, :]  # (2, B, 1, n)
    refs = [ReferenceSignGdNeuron(mech, coeffs, s, 0.0, 0.0, n) for _ in range(B)]
    want = [np.stack([r.step(I) for r, I in zip(refs, currents[0])])]
    u = np.stack([r.u for r in refs])
    np.testing.assert_array_equal(u, np.where(fired, -c, c))
    want.append(np.stack([r.step(I) for r, I in zip(refs, currents[1])]))
    v0 = np.stack([r.v[0] for r in refs])
    np.testing.assert_array_equal(v0, np.where(fired, tie[-c], tie[c]))
    np.testing.assert_array_equal((1.0 + np.exp(-1.702 * v0)) * u, v0)  # the ties
    assert (want[1] == 1.0).all()
    layer = SignGdNeuron(mech, coeffs, W=0.0, b=0.0, n=n)
    layer.reset(B)
    got = layer.step(currents.reshape(2 * B, n), steps=2)
    np.testing.assert_array_equal(got.reshape(2, B, n), np.stack(want))
    np.testing.assert_array_equal(layer.u, np.stack([r.u for r in refs]))
    np.testing.assert_array_equal(layer.v, np.stack([r.v for r in refs], axis=1))
