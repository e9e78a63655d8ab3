"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. Grids avoid decimal-rational resonance inputs (see
test_oracles.equivalence_grid); schedules for the n-ary approximations are
chosen so the target range is reachable within the step budget.
"""

import time

import numpy as np
import pytest

from conftest import build_cnn, build_layernorm_block, build_mlp, chain_edges, dense_node
from test_neurons import MECH_CASES, run_equivalence
from test_oracles import equivalence_grid

from spikeopt.codec import (
    ConstantEncoder,
    DeterministicEncoder,
    EmaDeterministicEncoder,
    FloatEncoder,
    RateDeterministicEncoder,
    make_rng,
)
from spikeopt.engine import (
    EnergyModel,
    SnnInstance,
    ann_forward,
    estimate_energy,
    run,
    run_batch,
)
from spikeopt.graph import (
    Graph,
    Node,
    calibrate,
    convert,
    decompose_layernorm,
    decompose_maxpool,
    fold_batchnorm,
    normalize_relu,
    run_forward,
)
from spikeopt.neurons import (
    FiringMechanism,
    IfLifParams,
    IfNeuron,
    LifNeuron,
    SignGdNeuron,
)
from spikeopt.oracles import (
    IfRateOracle,
    LifEmaOracle,
    if_transform,
    lif_transform,
    nondiff_weight,
    reference_nonlinearity,
)
from spikeopt.schedules import (
    Schedule,
    solve_signgd_coefficients,
    solve_subgrad_coefficients,
    validate_signgd_coefficients,
    validate_subgrad_coefficients,
)


def report(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


@pytest.fixture(scope="module")
def if_float_traces():
    """Criterion-1 run shared with criteria 3 and 4: float-encoded IF grid."""
    x = equivalence_grid(-0.1, 1.1, 121, seed=77)
    n = x.size
    T = 10_000
    neuron = IfNeuron(IfLifParams(theta_th=1.0, R=1.0, u0=0.0), n=n)
    oracle = IfRateOracle(theta=1.0, R=1.0, u0=0.0, n=n)
    enc = ConstantEncoder(x)
    f_hist = np.empty((T, n))
    worst = 0.0
    t0 = time.perf_counter()
    for t in range(1, T + 1):
        I = enc.step()
        s_n = neuron.step(I)
        s_o = oracle.step(I)
        if not np.array_equal(s_n, s_o):
            raise AssertionError(f"criterion 1: spikes diverged at t={t}")
        f_n = if_transform(neuron.decoded, t, u0=0.0, theta=1.0)
        worst = max(worst, float(np.abs(f_n - oracle.f).max()))
        f_hist[t - 1] = oracle.f
    elapsed = time.perf_counter() - t0
    return dict(x=x, f_hist=f_hist, worst=worst, elapsed=elapsed, f0=oracle.f0)


class TestCriterion1:
    def test_if_equivalence(self, if_float_traces):
        tr = if_float_traces
        assert tr["worst"] <= 1e-9, tr["worst"]
        assert tr["elapsed"] < 5.0, tr["elapsed"]
        report(1, f"IF float-input trace deviation {tr['worst']:.2e} <= 1e-9 over "
                  f"121 inputs x 10^4 steps in {tr['elapsed']:.2f}s")


class TestCriterion2:
    def test_lif_equivalence_and_band(self):
        tau = 10.0
        # float grid: targets 0, mid-band [0.45, 0.55], and 1 keep the
        # constant-step oscillation amplitude eta*max(f*, 1-f*) under 0.06
        x_float = np.concatenate([
            equivalence_grid(-0.5, 0.9, 16, seed=51, dyadics=(0.0, 0.25, 0.5)),
            equivalence_grid(5.05, 5.95, 14, seed=52, dyadics=()),
            equivalence_grid(10.5, 12.0, 12, seed=53, dyadics=(11.0,)),
        ])
        x_spike = equivalence_grid(0.03, 0.96, 43, seed=54, dyadics=(0.25, 0.5))
        worst_trace = 0.0
        worst_band = 0.0
        for x, enc_cls in ((x_float, "float"), (x_spike, "spike")):
            n = x.size
            neuron = LifNeuron(IfLifParams(theta_th=1.0, R=1.0, tau_m=tau, u_rest=0.0), n=n)
            oracle = LifEmaOracle(theta=1.0, R=1.0, tau=tau, u_rest=0.0, u0=0.0, n=n)
            enc = ConstantEncoder(x) if enc_cls == "float" else EmaDeterministicEncoder(x, tau)
            for t in range(1, 2001):
                I = enc.step()
                s_n = neuron.step(I)
                s_o = oracle.step(I)
                assert np.array_equal(s_n, s_o), (enc_cls, t)
                f_n = lif_transform(neuron.decoded, t, u0=0.0, u_rest=0.0, theta=1.0, tau=tau)
                worst_trace = max(worst_trace, float(np.abs(f_n - oracle.f).max()))
            target = np.clip(x / 9.0 - 1.0 / 9.0, 0.0, 1.0)
            worst_band = max(worst_band, float(np.abs(neuron.decoded - target).max()))
        assert worst_trace <= 1e-9, worst_trace
        assert worst_band <= 0.06, worst_band
        report(2, f"LIF trace deviation {worst_trace:.2e} <= 1e-9, decoded band "
                  f"{worst_band:.4f} <= 0.06 (float + deterministic spikes, T=2000)")


class TestCriterion3:
    def test_bound_soundness(self, if_float_traces):
        tr = if_float_traces
        x, f_hist, f0 = tr["x"], tr["f_hist"], tr["f0"]
        T, n = f_hist.shape
        f_star = np.clip(x, 0.0, 1.0)
        t_axis = np.arange(1, T + 1)

        def check(f_hist, x, f_star, ie_hist):
            M = np.abs(f_hist).max(axis=0)
            dev2 = (f_hist - f_star) ** 2
            nd = np.cumsum(nondiff_weight(t_axis))
            bound = (
                (f0 - f_star) ** 2 + (M + 1.0)[None, :] * nd[:, None] + 4.0 * ie_hist
            ) / (t_axis + 1.0)[:, None]
            return int(np.sum(dev2 > bound + 1e-12))

        # exact input: input-error terms vanish
        violations = check(f_hist, x, f_star, np.zeros((T, n)))

        # 100 random deterministic-input traces
        rng = make_rng(99)
        xr = rng.uniform(-0.1, 1.1, 100)
        oracle = IfRateOracle(theta=1.0, R=1.0, u0=0.0, n=100)
        enc = RateDeterministicEncoder(xr)
        fr_hist = np.empty((T, 100))
        ie_hist = np.empty((T, 100))
        ie = np.zeros(100)
        for t in range(1, T + 1):
            oracle.step(enc.step())
            fr_hist[t - 1] = oracle.f
            ie = ie + np.minimum(np.abs(xr - oracle.x_tilde), 1.0)
            ie_hist[t - 1] = ie
        violations += check(fr_hist, xr, np.clip(xr, 0, 1), ie_hist)
        assert violations == 0
        report(3, "0 bound violations over 221 traces x 10^4 steps "
                  "(M = realized max |f|)")


class TestCriterion4:
    def test_input_regimes(self, if_float_traces):
        tr = if_float_traces
        x = tr["x"]
        f_star = np.clip(x, 0.0, 1.0)
        exact_err = {
            t: np.abs(tr["f_hist"][t - 1] - f_star).max() for t in (1, 100, 10_000)
        }
        assert exact_err[10_000] <= 1e-3
        assert exact_err[10_000] < exact_err[100] < exact_err[1]

        xr = equivalence_grid(-0.1, 1.1, 121, seed=78)
        fr_star = np.clip(xr, 0.0, 1.0)
        oracle = IfRateOracle(n=xr.size)
        enc = RateDeterministicEncoder(xr)
        det_err = {}
        for t in range(1, 10_001):
            oracle.step(enc.step())
            if t in (1, 100, 10_000):
                det_err[t] = np.abs(oracle.f - fr_star).max()
        assert det_err[10_000] <= 5e-2
        assert det_err[10_000] < det_err[100] < det_err[1]
        report(4, f"exact-input err {exact_err[10_000]:.2e} <= 1e-3; deterministic "
                  f"O(1/t)-input err {det_err[10_000]:.3f} <= 5e-2; both shrink by decade")


class TestCriterion5:
    def test_signgd_equivalence_all_mechanisms(self):
        t0 = time.perf_counter()
        for kind in MECH_CASES:
            run_equivalence(kind, "canonical", Schedule.inverse(1.0),
                            spread=0.9, T=10_000, seed=101)
            run_equivalence(kind, "unit-current", Schedule.exponential(0.5, 0.999),
                            spread=11.0, T=10_000, seed=102)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, elapsed
        report(5, f"6 mechanisms x 2 parameterizations spike-identical over 10^4 "
                  f"random steps, decoded <= 1e-9, in {elapsed:.1f}s")


class TestCriterion6:
    def test_unary_approximation(self):
        s = Schedule.inverse(1.0)
        x = np.linspace(-3.0, 3.0, 121)
        stats = {}
        for kind in ("relu", "leaky", "gelu"):
            mech = FiringMechanism(kind, 0.1)
            neuron = SignGdNeuron(
                mech, solve_signgd_coefficients(s),
                W=np.ones((1, 121)), b=np.zeros((1, 121)), n=121,
            )
            enc = DeterministicEncoder(x, s)
            for _ in range(1000):
                neuron.step(enc.step()[None, :])
            err = np.abs(neuron.decoded - reference_nonlinearity(kind, x, 0.1))
            assert err.max() <= 0.05, (kind, err.max())
            assert np.median(err) <= 0.01, (kind, np.median(err))
            stats[kind] = err.max()
        report(6, "unary approximation at T=1000: " + ", ".join(
            f"{k} max err {v:.4f}" for k, v in stats.items()) + " (<= 0.05, median <= 0.01)")


class TestCriterion7:
    def run_binary(self, kind, operands, schedule, T):
        n = operands.shape[1]
        neuron = SignGdNeuron(
            FiringMechanism(kind), solve_signgd_coefficients(schedule),
            W=np.ones((2, n)), b=np.zeros((2, n)), n=n,
        )
        encs = [FloatEncoder(operands[k], schedule) for k in range(2)]
        for _ in range(T):
            neuron.step(np.stack([e.step() for e in encs]))
        return np.abs(neuron.decoded - reference_nonlinearity(kind, operands))

    def test_nary_approximation(self):
        # max2 per the patch protocol: partner = min(x_max, eps - 1)
        s1 = Schedule.inverse(1.0)
        x_max = np.linspace(-3.0, 3.0, 61)
        eps = make_rng(7).normal(0.0, 1.0, 61)
        pairs = np.stack([x_max, np.minimum(x_max, eps - 1.0)])
        # the tournament winner is x_max by construction
        err_max2 = self.run_binary("max2", pairs, s1, 1000)
        assert err_max2.max() <= 0.05, err_max2.max()

        # square needs the target range x^2 <= 9 reachable: sum eta >= 9
        s4 = Schedule.inverse(4.0)
        xs = np.linspace(-3.0, 3.0, 61)
        sq_ops = np.stack([xs, np.ones_like(xs)])
        n = xs.size
        neuron = SignGdNeuron(
            FiringMechanism("square"), solve_signgd_coefficients(s4),
            W=np.ones((1, n)), b=np.zeros((1, n)), n=n,
        )
        enc = FloatEncoder(xs, s4)
        for _ in range(1000):
            neuron.step(enc.step()[None, :])
        err_sq = np.abs(neuron.decoded - xs**2)
        assert err_sq.max() <= 0.1, err_sq.max()

        # mul-inverse-sqrt: unit numerator, denominator sweep
        x2 = np.concatenate([[0.01], np.linspace(0.5, 10.0, 39), [1.0]])
        ops = np.stack([np.ones_like(x2), x2])
        err_misr = self.run_binary("misr", ops, s1, 1000)
        in_range = (x2 >= 0.5) & (x2 <= 10.0)
        assert err_misr[in_range].max() <= 0.1, err_misr[in_range].max()
        # documented degradation for tiny denominators
        assert err_misr[x2 == 0.01][0] > err_misr[x2 == 1.0][0]
        report(7, f"max2 err {err_max2.max():.4f} <= 0.05; square err "
                  f"{err_sq.max():.4f} <= 0.1; misr err {err_misr[in_range].max():.4f}"
                  f" <= 0.1 with x2->0 degradation observed")


class TestCriterion8:
    def test_conversion_fidelity(self):
        t0 = time.perf_counter()
        s = Schedule.inverse(1.0)
        rng = make_rng(88)

        mlp = build_mlp(seed=801, dims=(8, 16, 16, 4))
        snn_mlp = calibrate(convert(mlp, "signgd", s))
        cnn = build_cnn(seed=802)
        snn_cnn = calibrate(convert(cnn, "signgd", s))

        agreements = checked = 0
        worst = 0.0
        # each net's items run in lockstep; item i's readout is run(snn, x_i)'s
        for snn, xs in ((snn_mlp, [rng.normal(0, 1, 8) for _ in range(48)]),
                        (snn_cnn, [rng.normal(0, 1, (1, 8, 8)) for _ in range(16)])):
            final = run_batch(snn, np.stack(xs), T=2000)[0][-1]
            for x, got in zip(xs, final):
                ref = ann_forward(snn.graph, x)["out"]
                worst = max(worst, float(np.abs(got - ref).max()))
                margin = np.sort(ref)[-1] - np.sort(ref)[-2]
                if margin >= 0.2:
                    checked += 1
                    agreements += int(np.argmax(got) == np.argmax(ref))
        elapsed = time.perf_counter() - t0
        assert worst <= 0.05, worst
        assert checked > 0 and agreements == checked
        assert elapsed < 60.0, elapsed
        report(8, f"MLP+CNN logit error {worst:.4f} <= 0.05 at T=2000; argmax "
                  f"agreement {agreements}/{checked} on margin >= 0.2; {elapsed:.0f}s")


class TestCriterion9:
    def test_layernorm_path(self):
        g = build_layernorm_block(seed=901, n=10)
        snn = calibrate(convert(g, "signgd", Schedule.inverse(1.0)))
        rng = make_rng(90)
        worst = 0.0
        used = 0
        while used < 6:
            x = rng.normal(0, 1.2, 10)
            pre = ann_forward(g, x)["fc0"]
            sigma = float(pre.std())
            if not 0.5 <= sigma <= 3.0:
                continue
            used += 1
            ref = ann_forward(snn.graph, x)["out"]
            got = run(snn, x, T=5000)[-1]
            worst = max(worst, float(np.abs(got - ref).max()))
        assert worst <= 0.15, worst
        report(9, f"decomposed layer-norm block logit error {worst:.4f} <= 0.15 "
                  f"at T=5000 (pre-norm sigma in [0.5, 3])")


class TestCriterion10:
    def test_transform_preservation(self):
        rng = make_rng(100)
        worst = {}

        g_bn_nodes = [
            Node("in", "input", {"shape": [6]}),
            dense_node(rng, "fc", 6, 5),
            Node("bn", "batchnorm", {
                "gamma": rng.uniform(0.5, 1.5, 5), "beta": rng.normal(0, 0.3, 5),
                "mean": rng.normal(0, 0.5, 5), "var": rng.uniform(0.5, 2.0, 5),
                "eps": 1e-5,
            }),
            Node("out", "output", {}),
        ]
        g_bn = Graph(g_bn_nodes, chain_edges(["in", "fc", "bn", "out"]))
        folded = fold_batchnorm(g_bn)
        worst["fold_batchnorm"] = max(
            float(np.abs(run_forward(folded, x)["out"] - run_forward(g_bn, x)["out"]).max())
            for x in rng.normal(0, 1, (100, 6))
        )

        g_mlp = build_mlp(seed=1001, dims=(6, 12, 3))
        normed = normalize_relu(g_mlp, [rng.normal(0, 1, 6) for _ in range(10)])
        worst["normalize_relu"] = max(
            float(np.abs(run_forward(normed, x)["out"] - run_forward(g_mlp, x)["out"]).max())
            for x in rng.normal(0, 1, (100, 6))
        )

        mp_nodes = [
            Node("in", "input", {"shape": [2, 6, 6]}),
            Node("pool", "maxpool2d", {"kernel": [2, 2], "stride": [2, 2]}),
            Node("out", "output", {}),
        ]
        g_mp = Graph(mp_nodes, chain_edges(["in", "pool", "out"]))
        d_mp = decompose_maxpool(g_mp)
        worst["decompose_maxpool"] = max(
            float(np.abs(run_forward(d_mp, x)["out"] - run_forward(g_mp, x)["out"]).max())
            for x in rng.normal(0, 1, (100, 2, 6, 6))
        )

        g_ln = build_layernorm_block(seed=1002, n=10)
        d_ln = decompose_layernorm(g_ln)
        worst["decompose_layernorm"] = max(
            float(np.abs(run_forward(d_ln, x)["out"] - run_forward(g_ln, x)["out"]).max())
            for x in rng.normal(0, 1, (100, 10))
        )

        for name, err in worst.items():
            assert err <= 1e-6, (name, err)
        report(10, "transform preservation <= 1e-6 x 100 inputs each: " +
               ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))


class TestCriterion11:
    def test_energy_constants_and_arithmetic(self):
        m = EnergyModel()
        assert (m.e_sop_ac, m.e_sop_signgd, m.e_mac) == (0.9, 1.8, 4.6)

        sign_uj = 17.943e6 * m.e_sop_signgd * 1e-12 * 1e6
        if_uj = 22.431e6 * m.e_sop_ac * 1e-12 * 1e6
        assert abs(sign_uj - 32.298) <= 1e-3
        assert abs(if_uj - 20.188) <= 1e-3
        assert abs(sign_uj / if_uj - 1.6) <= 0.01

        # accounting identity on an actual run
        snn = calibrate(convert(build_mlp(seed=1101, dims=(6, 12, 3)),
                                "signgd", Schedule.inverse(1.0)))
        inst = SnnInstance(snn)
        run(snn, make_rng(11).normal(0, 1, 6), T=128, instance=inst)
        rep = estimate_energy(inst.total_spikes, 128, inst.total_neurons, "signgd")
        assert rep.energy_joules == inst.total_spikes * 1.8e-12
        report(11, f"E_SOP table (0.9/1.8/4.6 pJ) exact; table arithmetic "
                   f"{sign_uj:.3f}/{if_uj:.3f} uJ, ratio {sign_uj/if_uj:.3f} ~ 1.6x; "
                   f"run energy == spikes x constant")


class TestCriterion12:
    def test_coefficient_validators(self):
        s_inv = Schedule.inverse(1.0)
        s_exp = Schedule.exponential(0.15, 0.965)
        ok = (
            validate_signgd_coefficients(
                solve_signgd_coefficients(s_inv, "canonical"), s_inv, 10_000, 1e-12)
            and validate_signgd_coefficients(
                solve_signgd_coefficients(s_exp, "canonical"), s_exp, 10_000, 1e-12)
            and validate_signgd_coefficients(
                solve_signgd_coefficients(s_exp, "unit-current"), s_exp, 10_000, 1e-12)
        )
        assert ok
        assert validate_subgrad_coefficients(
            solve_subgrad_coefficients(s_inv), s_inv, t_max=1000, tol=1e-10)
        assert validate_subgrad_coefficients(
            solve_subgrad_coefficients(Schedule.constant(0.1)),
            Schedule.constant(0.1), t_max=1000, tol=1e-10)
        report(12, "coefficient replay: canonical + unit-current at 1e-12 up to "
                   "t=10^4; subgrad conditions at 1e-10 up to t=10^3 (log space)")
