import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_cnn, build_layernorm_block, build_mlp, chain_edges, dense_node
from spikeopt.codec import make_rng
from spikeopt.graph import (
    ConversionError,
    DagViolationError,
    Graph,
    GraphError,
    ModelFormatError,
    Node,
    SnnGraph,
    TruncatedBlobError,
    UnknownOperatorError,
    calibrate,
    convert,
    decompose_layernorm,
    decompose_maxpool,
    fold_batchnorm,
    infer_shapes,
    load_model,
    load_tensor,
    normalize_relu,
    run_forward,
    save_model,
    save_tensor,
)
from spikeopt.schedules import Schedule


def forward_out(g, x):
    return run_forward(g, x)[g.output_id]


class TestModelIo:
    def test_minimal_roundtrip(self, tmp_path, rng):
        g = build_mlp(seed=3, dims=(4, 2))
        save_model(g, tmp_path / "m")
        g2, meta = load_model(tmp_path / "m.json")
        assert meta == {}
        assert g2.topo_order == g.topo_order
        x = rng.normal(0, 1, 4)
        np.testing.assert_allclose(forward_out(g, x), forward_out(g2, x), atol=0)

    def test_save_load_save_byte_identical(self, tmp_path):
        g = build_cnn(seed=5)
        save_model(g, tmp_path / "a")
        g2, _ = load_model(tmp_path / "a")
        save_model(g2, tmp_path / "b")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()

    def test_truncated_blob(self, tmp_path):
        g = build_mlp(seed=3, dims=(4, 2))
        save_model(g, tmp_path / "m")
        raw = (tmp_path / "m.bin").read_bytes()
        (tmp_path / "m.bin").write_bytes(raw[: len(raw) - 8])
        with pytest.raises(TruncatedBlobError):
            load_model(tmp_path / "m")

    def test_unknown_kind(self, tmp_path):
        g = build_mlp(seed=3, dims=(4, 2))
        save_model(g, tmp_path / "m")
        manifest = json.loads((tmp_path / "m.json").read_text())
        manifest["nodes"][1]["kind"] = "hyperbole"
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        with pytest.raises(UnknownOperatorError):
            load_model(tmp_path / "m")

    def test_cycle_rejected(self):
        nodes = [
            Node("in", "input", {"shape": [2]}),
            Node("a", "relu", {}),
            Node("b", "relu", {}),
            Node("out", "output", {}),
        ]
        edges = [("in", "a", 0), ("a", "b", 0), ("b", "a", 0), ("b", "out", 0)]
        with pytest.raises(DagViolationError):
            Graph(nodes, edges)

    def test_tensor_header_truncated(self, tmp_path):
        save_tensor(np.zeros((3, 5, 2), dtype=np.float32), tmp_path / "x.sten")
        path = tmp_path / "x.sten"
        path.write_bytes(path.read_bytes()[:14])  # magic, rank 3, half the dims
        with pytest.raises(TruncatedBlobError, match="x.sten"):
            load_tensor(path)

    def test_negative_tensor_offset(self, tmp_path):
        g = build_mlp(seed=3, dims=(4, 2))
        save_model(g, tmp_path / "m")
        manifest = json.loads((tmp_path / "m.json").read_text())
        manifest["tensors"]["fc0.bias"]["offset"] = -8
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        with pytest.raises(ModelFormatError, match="m.json.*fc0.bias"):
            load_model(tmp_path / "m")

    @pytest.mark.parametrize("key", ["kind", "id"])
    def test_node_entry_without_key(self, tmp_path, key):
        g = build_mlp(seed=3, dims=(4, 2))
        save_model(g, tmp_path / "m")
        manifest = json.loads((tmp_path / "m.json").read_text())
        del manifest["nodes"][1][key]
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        with pytest.raises(ModelFormatError, match=f"m.json.*lacks {key}"):
            load_model(tmp_path / "m")

    def test_tensor_file_roundtrip(self, tmp_path, rng):
        arr = rng.normal(0, 1, (3, 5, 2)).astype(np.float32)
        save_tensor(arr, tmp_path / "x.sten")
        np.testing.assert_array_equal(load_tensor(tmp_path / "x.sten"), arr)

    def test_labels_roundtrip(self, tmp_path):
        from spikeopt.graph import load_labels, save_labels

        save_labels([3, 1, 2], tmp_path / "y.slbl")
        np.testing.assert_array_equal(load_labels(tmp_path / "y.slbl"), [3, 1, 2])


def port_graph(kind, ports, params=None):
    """input -> relu "a" -> node "x" of `kind` on `ports` (all fed by "a") -> output."""
    nodes = [Node("in", "input", {"shape": [2]}), Node("a", "relu", {}),
             Node("x", kind, dict(params or {})), Node("out", "output", {})]
    edges = [("in", "a", 0), ("x", "out", 0)] + [("a", "x", p) for p in ports]
    return Graph(nodes, edges)


class TestGraphValidation:
    def test_node_without_inputs(self):
        nodes = [Node("in", "input", {"shape": [2]}), Node("a", "relu", {}),
                 Node("orphan", "relu", {}), Node("out", "output", {})]
        edges = [("in", "a", 0), ("a", "out", 0)]
        with pytest.raises(GraphError, match="'orphan'.*no inputs"):
            Graph(nodes, edges)

    @pytest.mark.parametrize("kind,ports,params", [
        ("max2", [0], None),
        ("max2", [0, 2], None),
        ("mul_inv_sqrt", [1], None),
        ("relu", [1], None),
        ("relu", [0, 1], None),
        ("dense", [0, 0], {"weight": np.eye(2), "bias": np.zeros(2)}),
        ("add", [1, 2], None),
        ("concat", [0, 0], None),
        ("neuron", [0], {"mech": "signgd:max2", "count": 2, "arity": 2, "shape": [2]}),
        ("neuron", [0, 1], {"mech": "signgd:relu", "count": 2, "arity": 1, "shape": [2]}),
    ])
    def test_ports_checked_per_kind(self, kind, ports, params):
        with pytest.raises(GraphError, match=rf"'x' \({kind}\).*ports"):
            port_graph(kind, ports, params)

    @pytest.mark.parametrize("kind,ports", [
        ("max2", [0, 1]), ("add", [0]), ("add", [0, 1, 2]), ("concat", [1, 0]),
    ])
    def test_valid_ports_accepted(self, kind, ports):
        g = port_graph(kind, ports)
        assert infer_shapes(g)["out"] == ((2 * len(ports),) if kind == "concat" else (2,))


def bn_graph(seed, mean, var, gamma, beta, eps):
    rng = make_rng(seed)
    nodes = [
        Node("in", "input", {"shape": [4]}),
        dense_node(rng, "fc", 4, 3),
        Node("bn", "batchnorm", {
            "gamma": np.full(3, gamma), "beta": np.full(3, beta),
            "mean": np.full(3, mean), "var": np.full(3, var), "eps": eps,
        }),
        Node("out", "output", {}),
    ]
    return Graph(nodes, chain_edges(["in", "fc", "bn", "out"]))


class TestFoldBatchnorm:
    def test_identity_bn(self, rng):
        g = bn_graph(7, mean=0.0, var=1.0, gamma=1.0, beta=0.0, eps=0.0)
        folded = fold_batchnorm(g)
        assert "bn" not in folded.nodes
        x = rng.normal(0, 1, 4)
        np.testing.assert_allclose(forward_out(folded, x), forward_out(g, x), atol=1e-6)

    def test_random_bn_equivalence(self, rng):
        g = bn_graph(8, mean=0.3, var=2.5, gamma=1.7, beta=-0.4, eps=1e-5)
        folded = fold_batchnorm(g)
        for _ in range(100):
            x = rng.normal(0, 1, 4)
            np.testing.assert_allclose(forward_out(folded, x), forward_out(g, x), atol=1e-6)

    def test_eps_enters_scale(self):
        g = bn_graph(9, mean=0.0, var=0.0, gamma=1.0, beta=0.0, eps=0.04)
        folded = fold_batchnorm(g)
        w0 = g.nodes["fc"].tensor("weight")
        w1 = folded.nodes["fc"].tensor("weight")
        np.testing.assert_allclose(w1, w0 / 0.2, rtol=1e-6)

    def test_conv_bn(self, rng):
        nodes = [
            Node("in", "input", {"shape": [2, 5, 5]}),
            Node("conv", "conv2d", {
                "weight": rng.normal(0, 0.5, (3, 2, 3, 3)),
                "bias": rng.normal(0, 0.1, 3),
                "stride": [1, 1], "padding": [1, 1],
            }),
            Node("bn", "batchnorm", {
                "gamma": rng.uniform(0.5, 1.5, 3), "beta": rng.normal(0, 1, 3),
                "mean": rng.normal(0, 1, 3), "var": rng.uniform(0.5, 2, 3), "eps": 1e-5,
            }),
            Node("out", "output", {}),
        ]
        g = Graph(nodes, chain_edges(["in", "conv", "bn", "out"]))
        folded = fold_batchnorm(g)
        for _ in range(20):
            x = rng.normal(0, 1, (2, 5, 5))
            np.testing.assert_allclose(forward_out(folded, x), forward_out(g, x), atol=1e-5)

    def test_unfoldable_pattern(self):
        nodes = [
            Node("in", "input", {"shape": [3]}),
            Node("bn", "batchnorm", {
                "gamma": np.ones(3), "beta": np.zeros(3),
                "mean": np.zeros(3), "var": np.ones(3), "eps": 0.0,
            }),
            Node("out", "output", {}),
        ]
        g = Graph(nodes, chain_edges(["in", "bn", "out"]))
        with pytest.raises(ConversionError):
            fold_batchnorm(g)


class TestNormalizeRelu:
    def test_m_f_recorded_and_forward_unchanged(self, rng):
        g = build_mlp(seed=11, dims=(6, 12, 3))
        batches = [rng.normal(0, 1, 6) for _ in range(10)]
        normed = normalize_relu(g, batches)
        m = normed.nodes["act0"].params["m_f"]
        assert m > 0
        peak = max(float(run_forward(g, x)["act0"].max()) for x in batches)
        assert m == pytest.approx(peak)
        for _ in range(100):
            x = rng.normal(0, 1, 6)
            np.testing.assert_allclose(forward_out(normed, x), forward_out(g, x), atol=1e-5)

    def test_known_max(self):
        nodes = [
            Node("in", "input", {"shape": [2]}),
            Node("fc", "dense", {"weight": np.eye(2), "bias": np.zeros(2)}),
            Node("act", "relu", {}),
            Node("fc2", "dense", {"weight": np.ones((1, 2)), "bias": np.zeros(1)}),
            Node("out", "output", {}),
        ]
        g = Graph(nodes, chain_edges(["in", "fc", "act", "fc2", "out"]))
        normed = normalize_relu(g, [np.array([3.5, 1.0])])
        assert normed.nodes["act"].params["m_f"] == pytest.approx(3.5)
        # scales folded: producer divided, consumer multiplied
        np.testing.assert_allclose(normed.nodes["fc"].tensor("weight"), np.eye(2) / 3.5)
        np.testing.assert_allclose(normed.nodes["fc2"].tensor("weight"), np.ones((1, 2)) * 3.5)

    def test_dead_relu_skipped(self):
        nodes = [
            Node("in", "input", {"shape": [2]}),
            Node("fc", "dense", {"weight": -np.eye(2), "bias": np.zeros(2)}),
            Node("act", "relu", {}),
            Node("fc2", "dense", {"weight": np.ones((1, 2)), "bias": np.zeros(1)}),
            Node("out", "output", {}),
        ]
        g = Graph(nodes, chain_edges(["in", "fc", "act", "fc2", "out"]))
        with pytest.warns(UserWarning):
            normed = normalize_relu(g, [np.array([1.0, 2.0])])
        assert "m_f" not in normed.nodes["act"].params


class TestDecomposeMaxpool:
    @pytest.mark.parametrize("k,neurons,depth", [(2, 3, 2), (3, 8, 4), (4, 15, 4)])
    def test_counts_and_depth(self, k, neurons, depth):
        nodes = [
            Node("in", "input", {"shape": [1, k, k]}),
            Node("pool", "maxpool2d", {"kernel": [k, k], "stride": [k, k]}),
            Node("out", "output", {}),
        ]
        g = Graph(nodes, chain_edges(["in", "pool", "out"]))
        d = decompose_maxpool(g)
        stages = [n for n in d.nodes.values() if n.kind == "max2"]
        assert len(stages) == depth
        shapes = infer_shapes(d)
        total = sum(int(np.prod(shapes[n.id])) for n in stages)
        assert total == neurons  # one window here, so per-window count

    def test_small_patch_value(self):
        nodes = [
            Node("in", "input", {"shape": [1, 2, 2]}),
            Node("pool", "maxpool2d", {"kernel": [2, 2], "stride": [2, 2]}),
            Node("out", "output", {}),
        ]
        g = Graph(nodes, chain_edges(["in", "pool", "out"]))
        d = decompose_maxpool(g)
        x = np.array([[[1.0, 3.0], [2.0, 0.0]]])
        assert forward_out(d, x)[0, 0, 0] == 3.0

    @pytest.mark.parametrize("shape,kernel,stride", [
        ((1, 4, 4), (2, 2), (2, 2)),
        ((3, 6, 6), (2, 2), (2, 2)),
        ((2, 5, 5), (3, 3), (1, 1)),  # overlapping windows
        ((1, 6, 4), (3, 2), (3, 2)),
        ((2, 7, 7), (3, 3), (2, 2)),
    ])
    def test_forward_equivalence(self, shape, kernel, stride, rng):
        nodes = [
            Node("in", "input", {"shape": list(shape)}),
            Node("pool", "maxpool2d", {"kernel": list(kernel), "stride": list(stride)}),
            Node("out", "output", {}),
        ]
        g = Graph(nodes, chain_edges(["in", "pool", "out"]))
        d = decompose_maxpool(g)
        for _ in range(20):
            x = rng.normal(0, 1, shape)
            np.testing.assert_allclose(forward_out(d, x), forward_out(g, x), atol=1e-6)

    def test_inside_cnn(self, rng):
        g = build_cnn(seed=13)
        d = decompose_maxpool(g)
        for _ in range(100):
            x = rng.normal(0, 1, (1, 8, 8))
            np.testing.assert_allclose(forward_out(d, x), forward_out(g, x), atol=1e-6)


class TestDecomposeLayernorm:
    def test_zero_variance_gives_beta(self):
        n = 4
        beta = np.array([0.1, 0.2, 0.3, 0.4])
        nodes = [
            Node("in", "input", {"shape": [n]}),
            Node("ln", "layernorm", {"gamma": np.ones(n), "beta": beta, "eps": 0.01}),
            Node("out", "output", {}),
        ]
        g = Graph(nodes, chain_edges(["in", "ln", "out"]))
        d = decompose_layernorm(g)
        np.testing.assert_allclose(forward_out(d, np.full(n, 2.2)), beta, atol=1e-6)

    def test_unit_variance_pair(self):
        nodes = [
            Node("in", "input", {"shape": [2]}),
            Node("ln", "layernorm", {"gamma": np.ones(2), "beta": np.zeros(2), "eps": 0.0}),
            Node("out", "output", {}),
        ]
        g = Graph(nodes, chain_edges(["in", "ln", "out"]))
        d = decompose_layernorm(g)
        np.testing.assert_allclose(forward_out(d, np.array([1.0, -1.0])), [1.0, -1.0], atol=1e-9)

    def test_random_equivalence(self, rng):
        g = build_layernorm_block(seed=17, n=10)
        d = decompose_layernorm(g)
        for _ in range(100):
            x = rng.normal(0, 1, 10)
            np.testing.assert_allclose(forward_out(d, x), forward_out(g, x), atol=1e-6)


class TestConvert:
    def test_mlp_census(self):
        g = build_mlp(seed=19, dims=(8, 16, 4))
        snn = convert(g, "signgd", Schedule.inverse(1.0))
        census = snn.graph.census()
        assert census["neuron:signgd:relu"] == 1
        assert census["dense"] == 2
        # linear parameters untouched
        np.testing.assert_array_equal(
            snn.graph.nodes["fc0"].params["weight"], g.nodes["fc0"].params["weight"]
        )

    def test_subgrad_rejects_gelu(self):
        g = build_mlp(seed=19, dims=(8, 16, 4), act="gelu")
        with pytest.raises(ConversionError, match="act0"):
            convert(g, "subgrad", Schedule.inverse(1.0))

    def test_layernorm_gelu_block_census(self):
        g = build_layernorm_block(seed=23)
        snn = convert(g, "signgd", Schedule.inverse(1.0))
        census = snn.graph.census()
        assert census["neuron:signgd:gelu"] == 1
        assert census["neuron:signgd:square"] == 1
        assert census["neuron:signgd:misr"] == 1

    def test_avgpool_becomes_conv(self, rng):
        nodes = [
            Node("in", "input", {"shape": [2, 4, 4]}),
            Node("pool", "avgpool2d", {"kernel": [2, 2], "stride": [2, 2]}),
            Node("flat", "flatten", {}),
            dense_node(rng, "fc", 8, 3),
            Node("act", "relu", {}),
            Node("out", "output", {}),
        ]
        g = Graph(nodes, chain_edges(["in", "pool", "flat", "fc", "act", "out"]))
        snn = convert(g, "signgd", Schedule.inverse(1.0))
        assert snn.graph.nodes["pool"].kind == "conv2d"
        x = rng.normal(0, 1, (2, 4, 4))
        np.testing.assert_allclose(
            run_forward(snn.graph, x)["pool"], run_forward(g, x)["pool"], atol=1e-6
        )

    def test_snn_roundtrip(self, tmp_path):
        g = build_mlp(seed=29, dims=(8, 16, 4))
        snn = calibrate(convert(g, "signgd", Schedule.inverse(1.0)))
        snn.save(tmp_path / "net")
        back = SnnGraph.load(tmp_path / "net")
        assert back.family == "signgd"
        assert str(back.schedule) == "inv:1"
        assert back.calibrated
        node = back.graph.nodes["act0"]
        # file storage is float32, in-memory calibration float64
        np.testing.assert_allclose(
            node.params["cal_w"], snn.graph.nodes["act0"].params["cal_w"], rtol=1e-6
        )


class TestCalibrate:
    def test_worked_example(self):
        w = np.array([[1.0, -2.0], [0.0, 3.0]])
        b = np.array([0.5, -1.0])
        nodes = [
            Node("in", "input", {"shape": [2]}),
            Node("fc", "dense", {"weight": w, "bias": b}),
            Node("act", "relu", {}),
            Node("out", "output", {}),
        ]
        g = Graph(nodes, chain_edges(["in", "fc", "act", "out"]))
        snn = calibrate(convert(g, "signgd", Schedule.inverse(1.0)))
        cal = snn.graph.nodes["act"].params
        np.testing.assert_allclose(cal["cal_w"][0], [-1.0, 3.0])
        np.testing.assert_allclose(cal["cal_b"][0], [0.5, -1.0])

    def test_identity_layer(self):
        nodes = [
            Node("in", "input", {"shape": [3]}),
            Node("fc", "dense", {"weight": np.eye(3), "bias": np.zeros(3)}),
            Node("act", "relu", {}),
            Node("out", "output", {}),
        ]
        g = Graph(nodes, chain_edges(["in", "fc", "act", "out"]))
        snn = calibrate(convert(g, "signgd", Schedule.inverse(1.0)))
        cal = snn.graph.nodes["act"].params
        np.testing.assert_allclose(cal["cal_w"][0], np.ones(3))
        np.testing.assert_allclose(cal["cal_b"][0], np.zeros(3))

    def test_composed_affines(self, rng):
        a_w, a_b = rng.normal(0, 1, (3, 4)), rng.normal(0, 1, 3)
        b_w, b_b = rng.normal(0, 1, (2, 3)), rng.normal(0, 1, 2)
        nodes = [
            Node("in", "input", {"shape": [4]}),
            Node("a", "dense", {"weight": a_w, "bias": a_b}),
            Node("b", "dense", {"weight": b_w, "bias": b_b}),
            Node("act", "relu", {}),
            Node("out", "output", {}),
        ]
        g = Graph(nodes, chain_edges(["in", "a", "b", "act", "out"]))
        snn = calibrate(convert(g, "signgd", Schedule.inverse(1.0)))
        cal = snn.graph.nodes["act"].params
        composed_w = b_w.astype(np.float32).astype(np.float64) @ a_w.astype(np.float32).astype(np.float64)
        composed_b = b_w.astype(np.float32).astype(np.float64) @ a_b.astype(np.float32).astype(np.float64) + b_b.astype(np.float32).astype(np.float64)
        np.testing.assert_allclose(cal["cal_w"][0], composed_w.sum(axis=1), rtol=1e-5)
        np.testing.assert_allclose(cal["cal_b"][0], composed_b, rtol=1e-5)

    def test_misr_shared_variance_operand(self):
        g = build_layernorm_block(seed=31)
        snn = calibrate(convert(g, "signgd", Schedule.inverse(1.0)))
        norm = next(n for n in snn.neuron_nodes() if n.params["mech"] == "signgd:misr")
        # operand 2 comes through the mean row: weight sum 1, idle current eps
        np.testing.assert_allclose(norm.params["cal_w"][1], np.ones(10), atol=1e-6)
        np.testing.assert_allclose(norm.params["cal_b"][1], np.full(10, 1e-5), atol=1e-7)

    def test_readout_calibration(self):
        g = build_mlp(seed=37, dims=(4, 6, 3))
        snn = calibrate(convert(g, "signgd", Schedule.inverse(1.0)))
        out = snn.graph.nodes[snn.graph.output_id]
        w2 = snn.graph.nodes["fc1"].tensor("weight")
        np.testing.assert_allclose(out.params["cal_w"], w2.sum(axis=1), rtol=1e-6)
        np.testing.assert_allclose(out.params["cal_b"], snn.graph.nodes["fc1"].tensor("bias"), rtol=1e-6)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    depth=st.integers(1, 4),
)
def test_calibration_linearity_property(seed, depth):
    """W equals the analytic signed row-sum of the composed affine map."""
    rng = make_rng(seed)
    dims = list(rng.integers(2, 6, depth + 1))
    nodes = [Node("in", "input", {"shape": [int(dims[0])]})]
    ids = ["in"]
    mats = []
    for k in range(depth):
        w = rng.normal(0, 1, (int(dims[k + 1]), int(dims[k]))).astype(np.float32)
        b = rng.normal(0, 1, int(dims[k + 1])).astype(np.float32)
        nodes.append(Node(f"a{k}", "dense", {"weight": w, "bias": b}))
        ids.append(f"a{k}")
        mats.append((w.astype(np.float64), b.astype(np.float64)))
    nodes += [Node("act", "relu", {}), Node("out", "output", {})]
    ids += ["act", "out"]
    g = Graph(nodes, chain_edges(ids))
    snn = calibrate(convert(g, "signgd", Schedule.inverse(1.0)))
    w_total = mats[0][0]
    b_total = mats[0][1]
    for w, b in mats[1:]:
        b_total = w @ b_total + b
        w_total = w @ w_total
    cal = snn.graph.nodes["act"].params
    np.testing.assert_allclose(cal["cal_w"][0], w_total.sum(axis=1), rtol=1e-4, atol=1e-5)
    np.testing.assert_allclose(cal["cal_b"][0], b_total, rtol=1e-4, atol=1e-5)
