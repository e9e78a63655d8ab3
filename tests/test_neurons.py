import dataclasses
import warnings
from unittest import mock

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
from spikeopt import neurons
from spikeopt.codec import heaviside, make_rng
from spikeopt.neurons import (
    FLOAT_OPERANDS,
    MECHANISMS,
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
        # caller's to keep, and they count what the reference neurons fire
        coeffs = solve_subgrad_coefficients(Schedule.inverse(1.0))
        neuron = SubgradNeuron(coeffs, n=4)
        neuron.reset(batch)
        refs = [ReferenceSubgradNeuron(coeffs, 4) for _ in range(batch or 1)]
        shape = (4,) if batch is None else (batch, 4)
        currents = make_rng(8).uniform(0.0, 1.0, (20, *shape))
        kept = [(s, s.copy()) for s in map(neuron.step, currents)]
        assert len({s.tobytes() for _, s in kept}) > 1
        for spikes, copy in kept:
            np.testing.assert_array_equal(spikes, copy)
        for I in currents:
            for r, row in zip(refs, I.reshape(len(refs), 4)):
                r.step(row)
        np.testing.assert_array_equal(sum(copy for _, copy in kept).sum(-1),
                                      np.reshape([r.spike_count for r in refs], shape[:-1]))

    def test_a_layer_that_does_not_decode_fires_the_same_spikes(self):
        # decodes=False drops only y; the option takes no read names
        c = solve_subgrad_coefficients(Schedule.exponential(0.15, 0.995))
        full, bare = SubgradNeuron(c, n=4), SubgradNeuron(c, n=4, decodes=False)
        for I in make_rng(9).uniform(0, 1, (30, 4)):
            np.testing.assert_array_equal(bare.step(I), full.step(I))
        assert full.decoded.any() and not bare.y.any()
        with pytest.raises(RuntimeError, match="decodes=False"):
            bare.decoded
        with pytest.raises(TypeError):
            SubgradNeuron(c, n=4, reads=("decode",))

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

    def test_leaky_overflowing_target_fires_as_the_heaviside_form(self):
        # 1e308 * -3 overflows to -inf, below every finite u
        m = FiringMechanism("leaky", 1e308)
        u = np.array([-1e308, -1.0, 0.0, 1.0, -1.0, 2.0])
        v = np.array([[-3.0, -3.0, -1e-300, -3.0, 3.0, 3.0]])
        with np.errstate(over="ignore"):
            want = heaviside(u - np.where(v[0] >= 0, v[0], 1e308 * v[0]))
        np.testing.assert_array_equal(want, [1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
        np.testing.assert_array_equal(m.spike(u, v), want)
        np.testing.assert_array_equal(reference_nonlinearity("leaky", v[0], 1e308),
                                      [-np.inf, -np.inf, -1e8, -np.inf, 3.0, 3.0])

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

    @pytest.mark.parametrize("batch", [None, 2])
    def test_decodes_zeros_before_its_first_step(self, batch):
        """At t = 0 a sign layer decodes zeros shaped like u, where the u scale
        of step 1 would read eta(0) and beta2(0)."""
        c = solve_signgd_coefficients(parse_schedule("inv:1"))
        layer = SignGdNeuron(FiringMechanism("relu"), c, W=1.0, b=0.5, n=3)
        layer.reset(batch)
        assert layer.t == 0
        assert_bits_equal(layer.decoded, np.zeros_like(layer.u))

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
    currents = b + W * rng.integers(0, 2, (T, arity, n)).astype(np.float64)
    # one neuron call per step; the oracle replays the whole trace at once
    got = np.stack([neuron.step(I) for I in currents])
    want, _ = oracle.run(currents)
    diverged = (got != want).any(axis=1)
    if diverged.any():
        raise AssertionError(f"{kind}/{parameterization}: spikes diverged at step "
                             f"{int(diverged.argmax()) + 1}")
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


def layer_width(side, B, arity, bound=SMALL_OPERANDS):
    """n for a sign layer of B items on one `side` of a bound on B arity n:
    3 ("small"), the widest within the bound ("edge"), or one more, past it
    ("large" or "above"). Below SMALL_OPERANDS a layer takes the
    block-target path, and up to FLOAT_OPERANDS that path's float steps."""
    if side == "small":
        return 3
    edge = bound // (B * arity)
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
    observer). Ties (dyadic currents under exp:0.5:0.5, and IF's and LIF's
    u_pre == theta with dyadic parameters and currents), misr's fallback (idle denominators <= 0) and
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
    assert_blocks_are_the_reference_steps(layer, refs, currents, min(K, T), batched, scratch,
                                          one_step, sign=W is not None)


def assert_bits_equal(got, want, err_msg=""):
    """got == want, signs of zero included: assert_array_equal takes -0.0
    for 0.0, so the sign bits are compared too."""
    np.testing.assert_array_equal(got, want, err_msg=err_msg)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want), err_msg=err_msg)


def assert_blocks_are_the_reference_steps(layer, refs, currents, K, batched, scratch, one_step,
                                          sign):
    """Step `layer` through the (T, B, arity, n) `currents` in blocks of K
    steps (or one `step(I)` call per step), and require the bits that the
    references give: spikes and the state after each step (read by the
    observer). `sign` says whether the layer is a sign layer."""
    T, B, arity, n = currents.shape
    names = ["u", "decoded", "t"] + (["v", "degeneracies"] if sign
                                     else ["y"] if hasattr(layer, "y") else [])
    for t0 in range(0, T, K):
        k = min(K, T - t0)
        want_spikes, want_states = [], []
        for I in currents[t0 : t0 + k]:
            # one item's (arity, n) currents, or (n,) for a one-operand neuron
            want_spikes.append(np.stack([r.step(I[i] if sign else I[i, 0])
                                         for i, r in enumerate(refs)]))
            want_states.append(reference_state(refs, batched))
        if one_step:
            got_states = []
            for I, want in zip(currents[t0 : t0 + k], want_spikes):
                # one step's currents, shaped like v (sign) or like u (subgrad)
                I = I.transpose(1, 0, 2) if sign else I[:, 0]
                spikes = layer.step(I.reshape(layer.v.shape if sign else layer.u.shape))
                assert_bits_equal(spikes, want.reshape(layer.u.shape))
                got_states.append(layer_state(layer, names))
        else:
            rows = currents[t0 : t0 + k].reshape(k * B, arity * n).copy()
            buf = {"none": None, "own": np.empty_like(rows), "I": rows}[scratch]
            out = np.empty((k * B, n))
            got_states = []
            spikes = layer.step(rows, steps=k, out=out, scratch=buf,
                                observer=lambda j: got_states.append(layer_state(layer, names)))
            assert spikes is out and len(got_states) == k
            assert_bits_equal(out.reshape(k, B, n), np.stack(want_spikes))
        for got, want in zip(got_states, want_states):
            for name in names:
                assert_bits_equal(got[name], want[name], err_msg=name)


SIGN_MECHS = [m for m in BLOCK_MECHS if m[0] in MECHANISMS]


@pytest.mark.parametrize("mech", SIGN_MECHS, ids=lambda m: ":".join(map(str, m)))
@settings(max_examples=40, deadline=None)
@given(sched=st.sampled_from(BLOCK_SCHEDULES),
       B=st.integers(1, 16), T=st.integers(1, 40), K=st.integers(1, 40),
       scratch=st.sampled_from(["none", "own", "I"]), one_step=st.booleans(),
       seed=st.integers(0, 2**16), side=st.sampled_from(["small", "edge", "large"]),
       b=st.sampled_from([0.0, -0.0]), rate=st.sampled_from([0.1, 0.5, 0.9]))
def test_spike_fed_steps_are_the_reference_steps(mech, sched, B, T, K, scratch, one_step, seed,
                                                 side, b, rate):
    """A spike-fed sign layer (W = 1, b = 0 of either sign, 0/1 currents
    firing at `rate`) forms its drive as (2 a2) I - a2 and gives every step
    the bits the four-pass reference a2 (2 (I - b) - W) gives: spikes, u,
    v, `decoded` and misr degeneracies after each step, signs of zero
    included, in blocks and one step at a time, on both sides of
    SMALL_OPERANDS."""
    (kind, delta), (schedule, parameterization) = mech, sched
    rng = make_rng(seed)
    m = FiringMechanism(kind, delta)
    n = layer_width(side, B, m.arity)
    s = parse_schedule(schedule)
    c = solve_signgd_coefficients(s, parameterization)
    layer = SignGdNeuron(m, c, W=1.0, b=b, n=n, spike_fed=True)
    batched = B > 1 or seed % 2  # one item also as the unbatched layer
    layer.reset(B if batched else None)
    refs = [ReferenceSignGdNeuron(m, c, s, 1.0, b, n) for _ in range(B)]
    currents = (rng.uniform(0.0, 1.0, (T, B, m.arity, n)) < rate).astype(float)
    assert_blocks_are_the_reference_steps(layer, refs, currents, min(K, T), batched, scratch,
                                          one_step, sign=True)


@pytest.mark.parametrize("n", [4, SMALL_OPERANDS + 4], ids=["block-targets", "step-targets"])
def test_spike_fed_drive_where_twice_a2_overflows(n):
    """Under const:1.7e308, a2 = 1.7e308 has 2 a2 = inf: a spike-fed layer
    then forms its drive in four passes, ±a2 as the reference does, on both
    sides of SMALL_OPERANDS. Spikes that alternate keep v and u finite, and
    after an odd number of steps |v| = a2."""
    s = parse_schedule("const:1.7e308")
    c = solve_signgd_coefficients(s)
    mech = FiringMechanism("relu")
    layer = SignGdNeuron(mech, c, W=1.0, b=0.0, n=n, spike_fed=True)
    ref = ReferenceSignGdNeuron(mech, c, s, 1.0, 0.0, n)
    currents = ((np.arange(7)[:, None] + np.arange(n)) % 2).astype(float)[:, None]  # (7, 1, n)
    got = layer.step(currents.reshape(7, n), steps=7)
    want = np.stack([ref.step(I) for I in currents])
    assert_bits_equal(got, want)
    assert_bits_equal(layer.u, ref.u)
    assert_bits_equal(layer.v, ref.v)
    assert np.isfinite(ref.v).all() and np.abs(ref.v).max() > 1e308


@pytest.mark.parametrize("W,b", [(0.5, 0.0), (1.0, 0.25), ([[1.0, 2.0]], 0.0),
                                 (1.0, [[0.0, 1e-300]])])
def test_spike_fed_layer_needs_unit_weights_and_zero_idle_currents(W, b):
    """A spike-fed layer's drive holds only where W = 1 and b = 0 exactly,
    so any other calibration is refused when the layer is built."""
    c = solve_signgd_coefficients(parse_schedule("inv:1"))
    mech = FiringMechanism("relu")
    with pytest.raises(ValueError, match="spike-fed"):
        SignGdNeuron(mech, c, W=W, b=b, n=2, spike_fed=True)
    SignGdNeuron(mech, c, W=W, b=b, n=2)
    SignGdNeuron(mech, c, W=1.0, b=-0.0, n=2, spike_fed=True)


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


# ---------------------------------------------------------------------------
# The float steps of a sign layer of few values
# ---------------------------------------------------------------------------


def numpy_steps():
    """A patch under which every block compares and resets u on numpy."""
    return mock.patch.object(neurons, "FLOAT_OPERANDS", 0)


def counted_float_steps(calls):
    """A patch under which each block stepped on floats adds its t to `calls`."""
    float_steps = SignGdNeuron._float_steps

    def counted(self, *args):
        t0, stepped = self.t, float_steps(self, *args)
        if stepped:
            calls.append(t0)
        return stepped

    return mock.patch.object(SignGdNeuron, "_float_steps", counted)


SIGN_STATE = ["u", "v", "t", "decoded", "degeneracies"]


def stepped_block(layer, rows, k, observe):
    """The spikes of one block of k steps, the states an observer saw after
    each step (None without an observer) and the state after the block."""
    seen = [] if observe else None
    observer = (lambda j: seen.append(layer_state(layer, SIGN_STATE))) if observe else None
    return layer.step(rows, steps=k, observer=observer), seen, layer_state(layer, SIGN_STATE)


def assert_states_equal(got, want):
    for name in SIGN_STATE:
        assert_bits_equal(got[name], want[name], err_msg=name)


@pytest.mark.parametrize("mech", SIGN_MECHS, ids=lambda m: ":".join(map(str, m)))
@settings(max_examples=40, deadline=None)
@given(sched=st.sampled_from(BLOCK_SCHEDULES), B=st.integers(1, FLOAT_OPERANDS),
       T=st.integers(1, 40), K=st.integers(1, 40), scale=st.sampled_from([1.0, 0.5, 1000.0]),
       observe=st.booleans(), seed=st.integers(0, 2**16),
       side=st.sampled_from(["edge", "above"]))
def test_float_steps_are_the_numpy_and_reference_steps(mech, sched, B, T, K, scale, observe,
                                                       seed, side):
    """A sign layer whose step holds at most FLOAT_OPERANDS operand values
    ("edge": B arity n at the bound) compares and resets u on Python floats;
    one more neuron ("above") keeps numpy. Either way, blocks of K steps
    give the bits of the numpy path and of the reference neurons: spikes,
    and u, v, `decoded` and misr degeneracies after the block and, with an
    observer, at each of its calls. Ties, misr's fallback and gelu's
    overflowing gains occur as in test_block_steps_are_the_reference_steps."""
    (kind, delta), (schedule, parameterization) = mech, sched
    arity = MECHANISMS[kind][0]
    B = min(B, FLOAT_OPERANDS // arity)
    n = layer_width(side, B, arity, FLOAT_OPERANDS)
    layer, make_ref, _, W, b = block_layer(kind, delta, schedule, parameterization, n,
                                           make_rng(seed), scale)
    twin = block_layer(kind, delta, schedule, parameterization, n, make_rng(seed), scale)[0]
    layer.reset(B)
    twin.reset(B)
    refs = [make_ref() for _ in range(B)]
    rng = make_rng(seed + 1)
    currents = (b + W * rng.integers(0, 2, (T, B, arity, n))
                + scale * rng.integers(-1, 2, (T, B, arity, n)))
    calls = []
    for t0 in range(0, T, K):
        k = min(K, T - t0)
        rows = currents[t0 : t0 + k].reshape(k * B, arity * n)
        with counted_float_steps(calls):
            got = stepped_block(layer, rows.copy(), k, observe)
        with numpy_steps():
            want = stepped_block(twin, rows.copy(), k, observe)
        spikes, states = [], []
        for I in currents[t0 : t0 + k]:
            spikes.append(np.stack([r.step(I[i]) for i, r in enumerate(refs)]))
            states.append(reference_state(refs, True))
        assert_bits_equal(got[0], want[0])
        assert_bits_equal(got[0].reshape(k, B, n), np.stack(spikes))
        assert_states_equal(got[2], want[2])
        assert_states_equal(got[2], states[-1])
        if observe:
            assert len(got[1]) == len(want[1]) == k
            for g, w, r in zip(got[1], want[1], states):
                assert_states_equal(g, w)
                assert_states_equal(g, r)
    assert calls == (list(range(0, T, K)) if side == "edge" else [])


def warned_block(layer, currents):
    """(spikes, u, v, the warnings' categories and messages) of one block."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spikes = layer.step(currents, steps=len(currents))
    return spikes, layer.u.copy(), layer.v.copy(), [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("case", ["b1=0", "overflow"])
def test_a_block_floats_would_step_otherwise_keeps_numpy_and_its_warnings(case):
    """A layer of one value whose block Python floats would not step as numpy
    does keeps numpy's path, and gives the spikes, state and warnings that
    path gives with the float steps switched off (FLOAT_OPERANDS = 0):
    b1 = 0 (oracle-check --corrupt-beta1 0), where x / 0.0 raises in Python
    and numpy warns and gives NaN; and const:1.5e308 with v held at
    1.7e308, where u climbs past the float range and numpy warns of the
    overflow."""
    mech = FiringMechanism("relu")
    if case == "b1=0":
        s = parse_schedule("inv:1")
        c = dataclasses.replace(solve_signgd_coefficients(s), beta1=lambda t: np.asarray(t) * 0.0)
        W, b = 1.0, 0.0
        currents = make_rng(3).integers(0, 2, (6, 1)).astype(float)
    else:
        s = parse_schedule("const:1.5e308")
        c = solve_signgd_coefficients(s)
        W, b = 0.0, 1.7e308
        currents = np.full((6, 1), b)  # a2 (2 (I - b) - W) = 0: v stays b
    calls = []
    with counted_float_steps(calls):
        got = warned_block(SignGdNeuron(mech, c, W=W, b=b, n=1), currents.copy())
    with numpy_steps():
        want = warned_block(SignGdNeuron(mech, c, W=W, b=b, n=1), currents.copy())
    assert calls == []
    for g, w in zip(got[:3], want[:3]):
        np.testing.assert_array_equal(g, w)
    assert got[3] == want[3] and want[3]
