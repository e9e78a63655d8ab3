import numpy as np
import pytest

from conftest import (
    CONFIGS,
    MODELS,
    build_cnn,
    build_layernorm_block,
    build_mlp,
    chain_edges,
    dense_node,
)
from spikeopt import engine, schedules
from spikeopt.codec import DeterministicEncoder, make_rng
from spikeopt.engine import (
    EnergyModel,
    SnnInstance,
    ann_forward,
    estimate_energy,
    make_input_encoder,
    probe,
    run,
    run_batch,
)
from spikeopt.graph import (
    ConversionError,
    Graph,
    Node,
    ShapeMismatchError,
    SnnGraph,
    calibrate,
    convert,
)
from spikeopt.graph.plan import Plan
from spikeopt.neurons import FiringMechanism, SignGdNeuron, SubgradNeuron
from spikeopt.schedules import Schedule, parse_schedule, solve_signgd_coefficients


def snn_of(g, family="signgd", schedule=None, parameterization="canonical"):
    return calibrate(convert(g, family, schedule or Schedule.inverse(1.0),
                             parameterization=parameterization))


class TestAnnForward:
    def test_relu(self):
        g = build_mlp(seed=1, dims=(2, 2))
        acts = ann_forward(g, np.array([0.3, -0.4]))
        assert set(acts) == {"in", "fc0", "out"}

    def test_dense_identity(self):
        nodes = [
            Node("in", "input", {"shape": [3]}),
            Node("fc", "dense", {"weight": np.eye(3), "bias": np.zeros(3)}),
            Node("out", "output", {}),
        ]
        g = Graph(nodes, chain_edges(["in", "fc", "out"]))
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(ann_forward(g, x)["out"], x)

    def test_layernorm_unit(self):
        nodes = [
            Node("in", "input", {"shape": [2]}),
            Node("ln", "layernorm", {"gamma": np.ones(2), "beta": np.zeros(2), "eps": 0.0}),
            Node("out", "output", {}),
        ]
        g = Graph(nodes, chain_edges(["in", "ln", "out"]))
        np.testing.assert_allclose(ann_forward(g, np.array([1.0, -1.0]))["out"], [1.0, -1.0])


class TestInstance:
    @pytest.mark.parametrize("model,family", CONFIGS)
    def test_an_uncalibrated_network_runs_as_its_calibrated_twin(self, model, family):
        """An instance computes its own calibration: `convert`'s output runs
        without `calibrate`, bit for bit as the calibrated network does."""
        bare, twin = (convert(MODELS[model](), family, Schedule.inverse(1.0)) for _ in range(2))
        calibrate(twin)
        assert not bare.calibrated and twin.calibrated
        shape = bare.graph.nodes[bare.graph.input_id].params["shape"]
        X = make_rng(3).normal(0, 1, (2, *shape))
        for got, want in zip(run_batch(bare, X, 32), run_batch(twin, X, 32)):
            np.testing.assert_array_equal(got, want)

    def test_an_instance_compiles_one_plan(self, monkeypatch):
        """The plan that calibrates the network is the plan that runs it."""
        compiled = []

        def compile_plan(*args):
            compiled.append(Plan(*args))
            return compiled[-1]

        monkeypatch.setattr(engine, "Plan", compile_plan)
        inst = SnnInstance(snn_of(build_mlp(seed=2, dims=(4, 4, 2))))
        assert compiled == [inst.plan]
        assert all(isinstance(layer, SignGdNeuron) for layer in inst.plan.layers.values())

    @pytest.mark.parametrize("model,family", CONFIGS)
    def test_only_a_sign_instance_calibrates(self, model, family, monkeypatch):
        """Over its build and a run, an instance compiles one plan, its own,
        and a sign instance calibrates it once, for its layers' and its
        readout's W and b, which its installed readout holds as `calibrate`
        writes them, bit for bit. A subgradient instance, whose layers and
        readout read none, never calibrates."""
        snn = snn_of(MODELS[model](), family)
        compiled, calibrated = [], []
        init, calibration = Plan.__init__, Plan.calibration
        monkeypatch.setattr(Plan, "__init__",
                            lambda plan, *args: compiled.append(plan) or init(plan, *args))
        monkeypatch.setattr(Plan, "calibration",
                            lambda plan: calibrated.append(plan) or calibration(plan))
        inst = SnnInstance(snn)
        shape = snn.graph.nodes[snn.graph.input_id].params["shape"]
        run_batch(snn, make_rng(3).normal(0, 1, (2, *shape)), 8, instance=inst)
        assert compiled == [inst.plan]
        assert calibrated == ([inst.plan] if family == "signgd" else [])
        assert not hasattr(inst, "readout_w") and not hasattr(inst, "readout_b")
        if family == "signgd":
            readout, out = inst.plan.codecs["readout"], snn.graph.nodes[snn.graph.output_id]
            np.testing.assert_array_equal(readout.W, out.params["cal_w"])
            np.testing.assert_array_equal(readout.b, out.params["cal_b"])

    @pytest.mark.parametrize("model,family", CONFIGS)
    def test_a_run_sizes_each_layer_and_the_plan_once_more(self, model, family, monkeypatch):
        """`SnnInstance()` and one `run_batch` of B = 3 items in blocks of K
        steps size each layer twice, for the one item a new instance is
        ready for and for the run's B (a reset to as many items clears what
        a layer holds), and the plan's stores for the one row of a new
        instance and the run's B K rows, after the two rows of calibration
        in the sign family alone."""
        snn = snn_of(MODELS[model](), family)
        sized = []
        for owner in (SignGdNeuron, SubgradNeuron, Plan):
            size = owner._size
            monkeypatch.setattr(owner, "_size",
                                lambda obj, n, size=size: sized.append((obj, n)) or size(obj, n))
        inst = SnnInstance(snn)
        shape = snn.graph.nodes[snn.graph.input_id].params["shape"]
        T = 8
        run_batch(snn, make_rng(3).normal(0, 1, (3, *shape)), T, instance=inst)
        rows = 3 * inst.plan.block_steps(3, T)
        plan = [n for obj, n in sized if obj is inst.plan]
        assert plan == ([2] if family == "signgd" else []) + [1, rows]
        for layer in inst.layers.values():
            assert [n for obj, n in sized if obj is layer] == [1, 3]
        assert len(sized) == len(plan) + 2 * len(inst.layers)

    def test_reset_drops_the_encoder(self, rng):
        """`reset` leaves no encoder installed, neither the last batch's nor
        the calibration stand-in, so a block stepped before another is
        installed fails instead of reading stale or forced frames."""
        snn = snn_of(build_mlp(seed=2, dims=(4, 4, 2)))
        inst = SnnInstance(snn)
        with pytest.raises(AttributeError):
            inst.step(1)
        run_batch(snn, rng.normal(0, 1, (2, 4)), 4, instance=inst)
        inst.reset(2)
        with pytest.raises(AttributeError):
            inst.step(1)

    def test_zero_weight_network_holds_bias(self, rng):
        nodes = [
            Node("in", "input", {"shape": [3]}),
            Node("fc", "dense", {"weight": np.zeros((2, 3)), "bias": np.array([0.7, -0.2])}),
            Node("act", "relu", {}),
            Node("fc2", "dense", {"weight": np.zeros((2, 2)), "bias": np.array([1.5, 0.5])}),
            Node("out", "output", {}),
        ]
        g = Graph(nodes, chain_edges(["in", "fc", "act", "fc2", "out"]))
        snn = snn_of(g)
        hist = run(snn, rng.normal(0, 1, 3), T=20)
        np.testing.assert_allclose(hist, np.tile([1.5, 0.5], (20, 1)))

    def test_spike_counters_count_fired(self, rng):
        from test_plan import reference_run

        snn = snn_of(build_mlp(seed=3, dims=(4, 8, 2)))
        inst = SnnInstance(snn)
        # a batch, then resets to another batch size and to the same one
        for B, T in ((3, 50), (2, 20), (2, 7)):
            X = rng.normal(0, 1, (B, 4))
            inst.reset(B)
            inst.plan.codecs["encoder"] = make_input_encoder(snn, X, "det", seed=list(range(B)))
            for _ in range(T):
                before = inst.total_spikes
                inst.step(1)
                assert 0 <= inst.total_spikes - before <= 8 * B  # one spike per neuron per step
            counts = inst.spike_counts
            assert all(c.dtype == np.int64 and c.shape == (B,) for c in counts.values())
            # each item's counts are the per-layer sums of a reference walk
            for i, x in enumerate(X):
                want = reference_run(snn, x, T, "det", i)[1]
                assert {nid: int(c[i]) for nid, c in counts.items()} == want
            assert inst.total_spikes > 0

    def test_single_neuron_engine_matches_unit_trace(self):
        # identity weights: the engine must add no semantics of its own
        nodes = [
            Node("in", "input", {"shape": [1]}),
            Node("fc", "dense", {"weight": np.eye(1), "bias": np.zeros(1)}),
            Node("act", "relu", {}),
            Node("out", "output", {}),
        ]
        g = Graph(nodes, chain_edges(["in", "fc", "act", "out"]))
        s = Schedule.inverse(1.0)
        snn = snn_of(g, schedule=s)
        inst = SnnInstance(snn)
        inst.plan.codecs["encoder"] = DeterministicEncoder(np.array([[0.83]]), s)  # one item
        # standalone neuron fed the same encoder emissions
        unit = SignGdNeuron(
            FiringMechanism("relu"), solve_signgd_coefficients(s), W=1.0, b=0.0, n=1
        )
        enc_unit = DeterministicEncoder(np.array([0.83]), s)
        for _ in range(500):
            inst.step(1)
            unit.step(enc_unit.step()[None, :])
            # the instance steps a batch of one item: its state has a leading item axis
            np.testing.assert_array_equal(inst.layers["act"].decoded[0], unit.decoded)

    def test_determinism(self, rng):
        g = build_mlp(seed=4, dims=(6, 12, 3))
        snn = snn_of(g)
        x = rng.normal(0, 1, 6)
        a = run(snn, x, T=64, encoder="stoch", stoch_c=0.7, seed=5)
        b = run(snn, x, T=64, encoder="stoch", stoch_c=0.7, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_readout_superposition_affine_only(self, rng):
        # affine-only graph: r(t) - ANN(x) is the encoder residual pushed
        # through the composed linear map
        w1, b1 = rng.normal(0, 1, (5, 3)), rng.normal(0, 1, 5)
        w2, b2 = rng.normal(0, 1, (2, 5)), rng.normal(0, 1, 2)
        nodes = [
            Node("in", "input", {"shape": [3]}),
            Node("a", "dense", {"weight": w1, "bias": b1}),
            Node("b", "dense", {"weight": w2, "bias": b2}),
            Node("out", "output", {}),
        ]
        g = Graph(nodes, chain_edges(["in", "a", "b", "out"]))
        s = Schedule.inverse(1.0)
        snn = snn_of(g, schedule=s)
        x = rng.normal(0, 1, 3)
        inst = SnnInstance(snn)
        from spikeopt.codec import FloatEncoder

        inst.plan.codecs["encoder"] = enc = FloatEncoder(x[None], s)  # a batch of one item
        ref = ann_forward(snn.graph, x)["out"]
        m = (
            w2.astype(np.float32).astype(np.float64)
            @ w1.astype(np.float32).astype(np.float64)
        )
        for t in range(1, 101):
            r = inst.step(1)[0, 0]  # the readouts of a block of one step of one item
            residual = enc.f[0] - x  # encoder's remaining input error
            if t in (1, 10, 100):
                np.testing.assert_allclose(r - ref, m @ residual, atol=1e-9)

    @pytest.mark.parametrize("family,validator,message", [
        ("signgd", "validate_signgd_coefficients", "sign-dynamics coefficients"),
        ("subgrad", "validate_subgrad_coefficients", "subgradient coefficients"),
    ])
    def test_coefficients_validated_once(self, monkeypatch, family, validator, message):
        """One coefficient set per network, checked once, not once per layer."""
        snn = snn_of(build_mlp(seed=3, dims=(8, 16, 16, 4)), family)
        assert len(snn.neuron_nodes()) == 2
        calls, check = [], getattr(schedules, validator)

        def counted(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

        monkeypatch.setattr(schedules, validator, counted)
        SnnInstance(snn)
        assert len(calls) == 1
        monkeypatch.setattr(schedules, validator, lambda *args, **kwargs: False)
        with pytest.raises(ConversionError,
                           match=f"{message} violate their constraint equations"):
            SnnInstance(snn)


class TestRunFidelity:
    def test_mlp_float_encoding(self, rng):
        g = build_mlp(seed=8, dims=(8, 16, 4))
        snn = snn_of(g)
        x = rng.normal(0, 1, 8)
        ref = ann_forward(g, x)["out"]
        hist = run(snn, x, T=1000)
        assert np.abs(hist[-1] - ref).max() <= 0.05

    def test_mlp_det_encoding_comparable(self, rng):
        g = build_mlp(seed=8, dims=(8, 16, 4))
        snn = snn_of(g)
        x = rng.normal(0, 1, 8)
        ref = ann_forward(g, x)["out"]
        e_float = np.abs(run(snn, x, T=1000)[-1] - ref).max()
        e_det = np.abs(run(snn, x, T=1000, encoder="det")[-1] - ref).max()
        assert e_det <= max(2 * e_float, 0.05)

    def test_subgrad_family_runs(self, rng):
        from spikeopt.graph import normalize_relu

        g = build_mlp(seed=9, dims=(6, 12, 3))
        batches = [rng.normal(0, 1, 6) for _ in range(10)]
        g = normalize_relu(g, batches)
        snn = snn_of(g, family="subgrad")
        x = batches[0]
        ref = ann_forward(g, x)["out"]
        hist = run(snn, x, T=2000)
        assert np.abs(hist[-1] - ref).max() <= 0.1

    def test_t1_returns_single_snapshot(self, rng):
        g = build_mlp(seed=8, dims=(8, 16, 4))
        snn = snn_of(g)
        hist = run(snn, rng.normal(0, 1, 8), T=1)
        assert hist.shape == (1, 4)

    @pytest.mark.parametrize("family", ["signgd", "subgrad"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, rng, family, bad):
        # heaviside(NaN) = 0 would turn the element into silent spike decisions
        snn = snn_of(build_mlp(seed=8, dims=(8, 16, 4)), family=family)
        x = rng.normal(0, 1, 8)
        x[3] = bad
        with pytest.raises(ValueError, match="NaN or inf"):
            make_input_encoder(snn, x, "float")


class TestProbe:
    def test_affine_only_has_no_layers(self, rng):
        nodes = [
            Node("in", "input", {"shape": [3]}),
            dense_node(rng, "fc", 3, 2),
            Node("out", "output", {}),
        ]
        g = Graph(nodes, chain_edges(["in", "fc", "out"]))
        rec = probe(snn_of(g), rng.normal(0, 1, 3), T=10)
        assert rec.layer_ids == []
        assert rec.readout_error.shape == (10,)

    def test_error_decreases(self, rng):
        g = build_mlp(seed=8, dims=(8, 16, 4))
        snn = snn_of(g)
        rec = probe(snn, rng.normal(0, 1, 8), T=1000)
        assert rec.readout_error[-1] <= rec.readout_error[249]

    def test_rows_format(self, rng):
        g = build_mlp(seed=8, dims=(4, 6, 2))
        rec = probe(snn_of(g), rng.normal(0, 1, 4), T=5)
        rows = list(rec.rows())
        assert rows[0][0] == "act0" and rows[0][1] == 1
        assert all(len(r) == 3 for r in rows)


@pytest.mark.parametrize("model,family", CONFIGS)
def test_layers_and_readout_read_one_step_table(model, family, monkeypatch):
    """Every neuron layer of an instance reads the instance's one coefficient
    set, whose rows no step has read when the layers are built; over a run
    each row is evaluated once, for the layers and the readout alike."""
    inst = SnnInstance(snn_of(MODELS[model](), family))
    assert inst.layers and all(layer.c is inst.coeffs for layer in inst.layers.values())
    assert not inst.coeffs._rows
    name = f"{'signgd' if family == 'signgd' else 'subgrad'}_step_factors"
    evaluated, factors = [], getattr(schedules, name)
    monkeypatch.setattr(schedules, name, lambda c, t: evaluated.append(t) or factors(c, t))
    shape = inst.snn.graph.nodes[inst.snn.graph.input_id].params["shape"]
    run(inst.snn, make_rng(3).normal(0, 1, shape), 20, instance=inst)
    assert evaluated == list(range(1, 21))


def test_input_of_another_size_names_both_sizes():
    """An item must hold as many values as the network's input, in any shape."""
    snn = snn_of(build_mlp(seed=8, dims=(4, 6, 2)))
    for x, seed in ((np.ones(5), 0), (np.ones((3, 5)), [0, 1, 2])):
        with pytest.raises(ShapeMismatchError, match="holds 5 values.*takes 4"):
            make_input_encoder(snn, x, seed=seed)
    x = make_rng(4).normal(0, 1, 4)
    np.testing.assert_array_equal(run(snn, x.reshape(2, 2), 16), run(snn, x, 16))


class TestEnergy:
    def test_table_values(self):
        m = EnergyModel()
        assert (m.e_sop_ac, m.e_sop_signgd, m.e_mac) == (0.9, 1.8, 4.6)

    def test_signgd_paper_arithmetic(self):
        rep = estimate_energy(spikes=17_943_000, timesteps=64, neurons=1, neuron_kind="signgd")
        assert rep.energy_joules * 1e6 == pytest.approx(32.2974)

    def test_if_paper_arithmetic(self):
        rep = estimate_energy(spikes=22_431_000, timesteps=64, neurons=1, neuron_kind="if")
        assert rep.energy_joules * 1e6 == pytest.approx(20.1879)

    def test_zero_spikes(self):
        rep = estimate_energy(0, 10, 5, "signgd")
        assert rep.energy_joules == 0.0 and rep.firing_rate == 0.0

    def test_accounting_matches_counters(self, rng):
        g = build_mlp(seed=8, dims=(8, 16, 4))
        snn = snn_of(g)
        inst = SnnInstance(snn)
        run(snn, rng.normal(0, 1, 8), T=128, instance=inst)
        rep = estimate_energy(inst.total_spikes, 128, inst.total_neurons, "signgd")
        assert rep.n_sop == inst.total_spikes
        assert rep.energy_joules == pytest.approx(inst.total_spikes * 1.8e-12)
        assert 0.0 <= rep.firing_rate <= 1.0


class TestResidualPath:
    def residual_graph(self, seed):
        # in -> fc0 -> relu -> fc1 -> add(skip from fc0's input) -> out
        rng = make_rng(seed)
        nodes = [
            Node("in", "input", {"shape": [6]}),
            dense_node(rng, "fc0", 6, 6),
            Node("act", "relu", {}),
            dense_node(rng, "fc1", 6, 6),
            Node("skip", "add", {}),
            dense_node(rng, "head", 6, 3),
            Node("out", "output", {}),
        ]
        edges = [
            ("in", "fc0", 0), ("fc0", "act", 0), ("act", "fc1", 0),
            ("fc1", "skip", 0), ("fc0", "skip", 1),
            ("skip", "head", 0), ("head", "out", 0),
        ]
        return Graph(nodes, edges)

    def test_add_node_calibration_and_fidelity(self, rng):
        g = self.residual_graph(31)
        snn = snn_of(g)
        x = rng.normal(0, 1, 6)
        ref = ann_forward(snn.graph, x)["out"]
        hist = run(snn, x, T=1500)
        assert np.abs(hist[-1] - ref).max() <= 0.05

    def test_structural_node_semantics(self, rng):
        from spikeopt.graph import node_forward

        x = rng.normal(0, 1, (2, 3, 4))
        flat = node_forward(Node("f", "flatten", {}), [x])
        assert flat.shape == (24,)
        back = node_forward(Node("r", "reshape", {"shape": [4, 3, 2]}), [flat])
        assert back.shape == (4, 3, 2)
        tr = node_forward(Node("t", "transpose", {"perm": [2, 0, 1]}), [x])
        np.testing.assert_array_equal(tr, np.transpose(x, (2, 0, 1)))
        gathered = node_forward(Node("g", "gather", {"indices": [5, 0, 23]}), [x])
        np.testing.assert_array_equal(gathered, x.reshape(-1)[[5, 0, 23]])
        cat = node_forward(Node("c", "concat", {}), [np.array([1.0]), np.array([2.0, 3.0])])
        np.testing.assert_array_equal(cat, [1.0, 2.0, 3.0])
        both = node_forward(Node("a", "add", {}), [x, 2 * x])
        np.testing.assert_allclose(both, 3 * x)

    def test_dense_shape_mismatch_diagnostic(self, rng):
        from spikeopt.graph import ShapeMismatchError

        node = dense_node(rng, "fc", 4, 2)
        from spikeopt.graph import node_forward

        with pytest.raises(ShapeMismatchError, match="fc"):
            node_forward(node, [np.zeros(5)])


class TestCnnPath:
    def test_cnn_fidelity_quick(self, rng):
        g = build_cnn(seed=21)
        snn = snn_of(g)
        x = rng.normal(0, 1, (1, 8, 8))
        ref = ann_forward(snn.graph, x)["out"]
        hist = run(snn, x, T=600)
        assert np.abs(hist[-1] - ref).max() <= 0.1

    def test_padded_strided_conv_with_bye_pooling(self, rng):
        # 3x3 pooling exercises tournament byes through the live engine
        nodes = [
            Node("in", "input", {"shape": [1, 7, 7]}),
            Node("conv", "conv2d", {
                "weight": rng.normal(0, 0.3, (2, 1, 3, 3)),
                "bias": rng.normal(0, 0.1, 2),
                "stride": [2, 2], "padding": [1, 1],
            }),
            Node("act", "relu", {}),
            Node("pool", "maxpool2d", {"kernel": [3, 3], "stride": [3, 3]}),
            Node("flat", "flatten", {}),
            dense_node(rng, "fc", 2, 2),
            Node("out", "output", {}),
        ]
        g = Graph(nodes, chain_edges(["in", "conv", "act", "pool", "flat", "fc", "out"]))
        snn = snn_of(g)
        x = rng.normal(0, 1, (1, 7, 7))
        ref = ann_forward(snn.graph, x)["out"]
        hist = run(snn, x, T=800)
        assert np.abs(hist[-1] - ref).max() <= 0.1

    def test_layernorm_block_quick(self, rng):
        g = build_layernorm_block(seed=22, n=10)
        snn = snn_of(g)
        x = rng.normal(0, 1, 10)
        x = x / x.std() * 1.5
        ref = ann_forward(snn.graph, x)["out"]
        hist = run(snn, x, T=1500)
        assert np.abs(hist[-1] - ref).max() <= 0.2


@pytest.mark.parametrize("model,family", CONFIGS)
@pytest.mark.parametrize("schedule", ["inv:1", "exp:0.5:0.99", "inv:1.2345678"])
def test_a_saved_and_reloaded_network_runs_as_the_in_memory_one(tmp_path, model, family,
                                                                 schedule):
    """Model files store float32 records; a re-loaded network still computes
    the float64 calibration of the in-memory one, and its file holds every
    bit of its schedule, so its readouts and spike counts are the same, bit
    for bit, under every encoder."""
    snn = calibrate(convert(MODELS[model](), family, parse_schedule(schedule)))
    snn.save(tmp_path / "net")
    back = SnnGraph.load(tmp_path / "net")
    shape = snn.graph.nodes[snn.graph.input_id].params["shape"]
    X = make_rng(3).normal(0, 1, (3, *shape))
    for encoder in ("float", "det", "stoch"):
        for got, want in zip(run_batch(back, X, 96, encoder=encoder, seed=5),
                             run_batch(snn, X, 96, encoder=encoder, seed=5)):
            np.testing.assert_array_equal(got, want)
