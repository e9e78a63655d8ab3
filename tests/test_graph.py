import gc
import json
import math
import os
import struct
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spikeopt.graph.io as gio
from conftest import (
    CONFIGS,
    MODELS,
    build_cnn,
    build_layernorm_block,
    build_mlp,
    chain_edges,
    dense_node,
)
from reference_io import json_list_form, reference_save_model
from spikeopt.codec import make_rng
from spikeopt.graph import (
    ConversionError,
    DagViolationError,
    Graph,
    GraphError,
    ModelFormatError,
    Node,
    ShapeMismatchError,
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
from spikeopt.graph.model import KINDS, node_forward, shape_witness
from spikeopt.graph.plan import STEPPABLE, Plan
from spikeopt.neurons import FiringMechanism
from spikeopt.schedules import Schedule


def forward_out(g, x):
    return run_forward(g, x)[g.output_id]


def _set(path, value):
    """Manifest mutation: set the field at `path` (keys and indices) to `value`."""
    def mutate(manifest):
        obj = manifest
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
    return mutate


# malformed fields of the manifest of build_mlp(dims=(4, 2)): wrong types, a negative dim
MANIFEST_MUTATIONS = {
    "nodes-null": _set(["nodes"], None),
    "edges-null": _set(["edges"], None),
    "params-null": _set(["nodes", 1, "params"], None),
    "edge-two-elements": _set(["edges", 0], ["in", "fc0"]),
    "id-list": _set(["nodes", 1, "id"], ["fc0"]),
    "node-tensors-list": _set(["nodes", 1, "tensors"], ["fc0.bias"]),
    "tensors-list": _set(["tensors"], []),
    "shape-null": _set(["tensors", "fc0.bias", "shape"], None),
    "shape-negative": _set(["tensors", "fc0.bias", "shape"], [-1]),
}


def _put(index, value):
    """Blob fault: element `index` of fc0.bias (after the magic) set to `value`."""
    def mutate(manifest, blob):
        start = 4 + manifest["tensors"]["fc0.bias"]["offset"] + 4 * index
        blob[start:start + 4] = np.float32(value).tobytes()
    return mutate


def _offset(value):
    def mutate(manifest, blob):
        manifest["tensors"]["fc0.bias"]["offset"] = value
    return mutate


# faults of the files of build_mlp(dims=(4, 2)), whose blob holds fc0.bias
# (2 values) and then fc0.weight (8): (mutation of the manifest and blob,
# error load_model raises, what its message names)
BLOB_FAULTS = {
    "nan": (_put(1, np.nan), ModelFormatError, "m.bin.*fc0.bias.*NaN or inf"),
    "inf": (_put(1, np.inf), ModelFormatError, "m.bin.*fc0.bias.*NaN or inf"),
    "-inf": (_put(1, -np.inf), ModelFormatError, "m.bin.*fc0.bias.*NaN or inf"),
    "truncated": (lambda m, blob: blob.__delitem__(slice(-8, None)), TruncatedBlobError,
                  r"m.bin.*fc0.weight.*needs bytes \[8, 40\) but blob has 32"),
    "offset-negative": (_offset(-8), ModelFormatError, "m.json.*fc0.bias.*invalid offset"),
    "offset-past-end": (_offset(36), TruncatedBlobError, "m.bin.*fc0.bias.*needs bytes"),
    "no-magic": (lambda m, blob: blob.__setitem__(slice(0, 4), b"STEN"), ModelFormatError,
                 "m.bin.*SGM1 magic"),
}


def _last(value):
    """STEN fault: the last element of the payload set to `value`."""
    def mutate(raw):
        raw[-4:] = np.float32(value).tobytes()
    return mutate


# faults of a (2, 3) STEN file of zeros: (mutation of its bytes, error
# load_tensor raises, what its message names)
STEN_FAULTS = {
    "nan": (_last(np.nan), ModelFormatError, "x.sten.*NaN or inf"),
    "inf": (_last(np.inf), ModelFormatError, "x.sten.*NaN or inf"),
    "-inf": (_last(-np.inf), ModelFormatError, "x.sten.*NaN or inf"),
    "truncated": (lambda raw: raw.__delitem__(slice(-4, None)), TruncatedBlobError,
                  r"x.sten: payload shorter than \(2, 3\)"),
    "no-magic": (lambda raw: raw.__setitem__(slice(0, 4), b"SGM1"), ModelFormatError,
                 "x.sten: missing STEN magic"),
}


def gather_net():
    """input (4) -> gather "g" (3, 0, 1, 2) -> dense "fc" (4 -> 2) -> output;
    its blob holds fc.bias (2 values), fc.weight (8) and the g.indices
    table (4 int64 values, bytes [40, 72) after the magic)."""
    nodes = [Node("in", "input", {"shape": [4]}), Node("g", "gather", {"indices": [3, 0, 1, 2]}),
             dense_node(make_rng(4), "fc", 4, 2), Node("out", "output", {})]
    return Graph(nodes, chain_edges([n.id for n in nodes]))


# faults of the files of gather_net(): (mutation of the manifest, error
# load_model raises, what its message names)
TABLE_FAULTS = {
    "dtype-unknown": (_set(["tensors", "g.indices", "dtype"], "<f8"), ModelFormatError,
                      r"m.json: tensor 'g.indices' of node 'g' has dtype '<f8', "
                      r"but gather 'indices' takes <i8"),
    "weight-int64": (_set(["tensors", "fc.weight", "dtype"], "<i8"), ModelFormatError,
                     r"m.json: tensor 'fc.weight' of node 'fc' has dtype '<i8', "
                     r"but dense 'weight' takes <f4"),
    "indices-float32": (lambda m: m["tensors"]["g.indices"].pop("dtype"), ModelFormatError,
                        r"m.json: tensor 'g.indices' of node 'g' has dtype '<f4'"),
    "float32-shape": (lambda m: m["nodes"][0]["tensors"].update(shape="fc.bias"),
                      ModelFormatError, r"tensor 'fc.bias' of node 'in' .* 'shape' is no tensor"),
    "table-2d": (_set(["tensors", "g.indices", "shape"], [2, 2]), GraphError,
                 r"'g' \(gather\) has indices that are not a flat list of integers"),
    "table-past-end": (_set(["tensors", "g.indices", "offset"], 48), TruncatedBlobError,
                       r"m.bin: tensor 'g.indices' of node 'g' needs bytes \[48, 80\) "
                       r"but blob has 72"),
}


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

    @pytest.mark.parametrize("key", ["kind", "id"])
    def test_node_entry_without_key(self, tmp_path, key):
        g = build_mlp(seed=3, dims=(4, 2))
        save_model(g, tmp_path / "m")
        manifest = json.loads((tmp_path / "m.json").read_text())
        del manifest["nodes"][1][key]
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        with pytest.raises(ModelFormatError, match=f"m.json.*lacks {key}"):
            load_model(tmp_path / "m")

    def test_tensor_dims_counted_without_wrap(self, tmp_path):
        # 2^21 * 2^21 * 2^22 elements wrap to 0 in int64
        path = tmp_path / "x.sten"
        path.write_bytes(b"STEN" + struct.pack("<4I", 3, 2**21, 2**21, 2**22))
        with pytest.raises(TruncatedBlobError, match="x.sten"):
            load_tensor(path)

    @pytest.mark.parametrize("fault", STEN_FAULTS.values(), ids=list(STEN_FAULTS))
    def test_bad_tensor_file_rejected(self, tmp_path, fault):
        mutate, error, match = fault
        save_tensor(np.zeros((2, 3), dtype=np.float32), tmp_path / "x.sten")
        raw = bytearray((tmp_path / "x.sten").read_bytes())
        mutate(raw)
        (tmp_path / "x.sten").write_bytes(bytes(raw))
        with pytest.raises(error, match=match):
            load_tensor(tmp_path / "x.sten")

    @pytest.mark.parametrize("fault", BLOB_FAULTS.values(), ids=list(BLOB_FAULTS))
    def test_bad_blob_rejected(self, tmp_path, fault):
        """Each fault is caught on the one-copy read and named
        with the file that holds it."""
        mutate, error, match = fault
        save_model(build_mlp(seed=3, dims=(4, 2)), tmp_path / "m")
        manifest = json.loads((tmp_path / "m.json").read_text())
        blob = bytearray((tmp_path / "m.bin").read_bytes())
        mutate(manifest, blob)
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        (tmp_path / "m.bin").write_bytes(bytes(blob))
        with pytest.raises(error, match=match):
            load_model(tmp_path / "m")

    def test_loaded_tensors_are_writable_float32(self, tmp_path):
        g = build_layernorm_block(seed=2)
        save_model(g, tmp_path / "m")
        g2, _ = load_model(tmp_path / "m")
        loaded = [val for node in g2.nodes.values() for key, val in node.params.items()
                  if key in gio._TENSOR_KEYS]
        assert len(loaded) == 6
        for arr in loaded:
            assert arr.dtype == np.float32 and arr.flags.writeable
        arr = loaded[0]
        arr[...] = 7.0  # a loaded tensor belongs to its graph: writing it reaches no other
        assert all((other != 7.0).all() for other in loaded[1:])

    @pytest.mark.parametrize("mutate", MANIFEST_MUTATIONS.values(), ids=list(MANIFEST_MUTATIONS))
    def test_malformed_manifest_field(self, tmp_path, mutate):
        g = build_mlp(seed=3, dims=(4, 2))
        save_model(g, tmp_path / "m")
        manifest = json.loads((tmp_path / "m.json").read_text())
        mutate(manifest)
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        with pytest.raises(ModelFormatError, match="m.json"):
            load_model(tmp_path / "m")

    @pytest.mark.parametrize("shape", [(3, 5, 2), (), (0, 4)])
    def test_tensor_file_roundtrip(self, tmp_path, rng, shape):
        arr = rng.normal(0, 1, shape).astype(np.float32)
        save_tensor(arr, tmp_path / "x.sten")
        loaded = load_tensor(tmp_path / "x.sten")
        np.testing.assert_array_equal(loaded, arr)
        assert loaded.shape == shape and loaded.dtype == np.float32 and loaded.flags.writeable

    def test_labels_roundtrip(self, tmp_path):
        from spikeopt.graph import load_labels, save_labels

        save_labels([3, 1, 2], tmp_path / "y.slbl")
        np.testing.assert_array_equal(load_labels(tmp_path / "y.slbl"), [3, 1, 2])

    @pytest.mark.parametrize("model,family", CONFIGS)
    def test_converted_roundtrip_keeps_index_tables(self, tmp_path, model, family):
        """A gather's indices load as the flat intp array they were saved
        from, and save(load(x)) is byte-identical."""
        snn = calibrate(convert(MODELS[model](), family, Schedule.inverse(1.0)))
        snn.save(tmp_path / "a")
        loaded = SnnGraph.load(tmp_path / "a")
        for nid, node in snn.graph.nodes.items():
            if node.kind == "gather":
                got = loaded.graph.nodes[nid].params["indices"]
                assert got.dtype == np.intp and got.ndim == 1
                np.testing.assert_array_equal(got, node.params["indices"])
        loaded.save(tmp_path / "b")
        for suffix in (".json", ".bin"):
            assert ((tmp_path / "a").with_suffix(suffix).read_bytes()
                    == (tmp_path / "b").with_suffix(suffix).read_bytes()), suffix

    def test_index_table_is_int64_in_the_blob(self, tmp_path):
        save_model(gather_net(), tmp_path / "m")
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert manifest["tensors"]["g.indices"] == {"dtype": "<i8", "offset": 40, "shape": [4]}
        assert manifest["nodes"][1]["params"] == {}
        assert (tmp_path / "m.bin").read_bytes()[44:] == np.array(
            [3, 0, 1, 2], dtype="<i8").tobytes()
        assert all("dtype" not in e for k, e in manifest["tensors"].items() if k != "g.indices")

    @pytest.mark.parametrize("fault", TABLE_FAULTS.values(), ids=list(TABLE_FAULTS))
    def test_bad_tensor_dtype_rejected(self, tmp_path, fault):
        """An entry is read by its dtype: int64 only as a gather's indices,
        float32 only under the tensor keys; any other dtype or pairing, and
        a table of another shape or past the blob's end, names the tensor
        or the node."""
        mutate, error, match = fault
        save_model(gather_net(), tmp_path / "m")
        manifest = json.loads((tmp_path / "m.json").read_text())
        mutate(manifest)
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        with pytest.raises(error, match=match):
            load_model(tmp_path / "m")


STALE = b"stale file bytes\n" * 4000


class TestFileWriter:
    """Model, tensor and label files written over a longer file hold only
    their new bytes."""

    def save(self, kind, path):
        if kind == "tensor":
            save_tensor(make_rng(2).normal(0, 1, (3, 5)), path)
        elif kind == "labels":
            gio.save_labels(np.arange(40) % 7, path)
        else:
            save_model(gather_net(), path.with_suffix(""))

    @pytest.mark.parametrize("name", ["m.json", "m.bin", "x.sten", "y.slbl"])
    def test_a_longer_file_is_rewritten_to_exactly_its_new_bytes(self, tmp_path, name):
        kind = {".sten": "tensor", ".slbl": "labels"}.get(os.path.splitext(name)[1], "model")
        (tmp_path / "fresh").mkdir()
        self.save(kind, tmp_path / "fresh" / name)
        (tmp_path / name).write_bytes(STALE)
        self.save(kind, tmp_path / name)
        assert (tmp_path / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


class TestManifestWriter:
    """The manifest is json.dumps(manifest, sort_keys=True) plus a newline;
    files of the earlier, indented writer load and re-save in that form."""

    @pytest.mark.parametrize("model,family", CONFIGS)
    def test_converted_files_are_the_reference_writers(self, tmp_path, monkeypatch, model,
                                                       family):
        from spikeopt.engine import run_batch

        snn = calibrate(convert(MODELS[model](), family, Schedule.inverse(1.0)))
        snn.save(tmp_path / "new")
        with monkeypatch.context() as patch:
            patch.setattr(gio, "save_model", reference_save_model)
            snn.save(tmp_path / "old")
        new, old = (tmp_path / "new.json").read_text(), (tmp_path / "old.json").read_text()
        assert new == json.dumps(json.loads(new), sort_keys=True) + "\n"
        # the one difference: a gather's indices are an int64 entry, not a list in params
        gathers = [n for n in json.loads(new)["nodes"] if n["kind"] == "gather"]
        assert bool(gathers) == (model in ("cnn", "bye_cnn"))
        for node in gathers:
            assert "indices" not in node["params"]
            assert json.loads(new)["tensors"][node["tensors"]["indices"]]["dtype"] == "<i8"
        assert json_list_form(json.loads(new), (tmp_path / "new.bin").read_bytes()) == (
            json.loads(old), (tmp_path / "old.bin").read_bytes())
        older = SnnGraph.load(tmp_path / "old")
        shape = snn.graph.nodes[snn.graph.input_id].params["shape"]
        X = make_rng(3).normal(0, 1, (2, *shape))
        for got, want in zip(run_batch(older, X, 32),
                             run_batch(SnnGraph.load(tmp_path / "new"), X, 32)):
            np.testing.assert_array_equal(got, want)
        older.save(tmp_path / "again")
        for suffix in (".json", ".bin"):
            assert ((tmp_path / "again").with_suffix(suffix).read_bytes()
                    == (tmp_path / "new").with_suffix(suffix).read_bytes()), suffix


def _json_values():
    scalars = st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from(
        ["", "in", "fc0", "relu", "fc0.bias", "neuron"])
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.sampled_from(["id", "shape", "offset"]), inner,
                                          max_size=2), max_leaves=5)


def _paths(obj, prefix=()):
    """Every (keys and indices) path into a JSON value."""
    yield list(prefix)
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(
        obj, list) else ()
    for key, val in items:
        yield from _paths(val, (*prefix, key))


class TestLoaderFuzz:
    """Corrupted files raise ModelFormatError or GraphError, nothing else."""

    @settings(max_examples=200, deadline=None)
    @given(magic=st.sampled_from([b"STEN", b"SLBL"]), body=st.binary(max_size=64))
    def test_tensor_and_label_bytes(self, tmp_path_factory, magic, body):
        from spikeopt.graph import load_labels

        path = tmp_path_factory.mktemp("fuzz") / "f"
        path.write_bytes(magic + body)
        try:
            (load_tensor if magic == b"STEN" else load_labels)(path)
        except GraphError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_manifest_fields(self, tmp_path_factory, data):
        tmp = tmp_path_factory.mktemp("fuzz")
        save_model(build_mlp(seed=3, dims=(4, 3, 2)), tmp / "m")
        manifest = json.loads((tmp / "m.json").read_text())
        for _ in range(data.draw(st.integers(1, 3))):
            path = data.draw(st.sampled_from(list(_paths(manifest))))
            value = data.draw(_json_values())
            if path:
                _set(path, value)(manifest)
            else:
                manifest = value
        (tmp / "m.json").write_text(json.dumps(manifest))
        try:
            load_model(tmp / "m")
        except GraphError:
            pass


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
        # the operand count comes from the mechanism, not from a stored arity
        ("neuron", [0], {"mech": "signgd:max2", "count": 2, "arity": 1, "shape": [2]}),
        ("neuron", [0, 1], {"mech": "subgrad", "count": 2, "shape": [2]}),
    ])
    def test_ports_checked_per_kind(self, kind, ports, params):
        with pytest.raises(GraphError, match=rf"'x' \({kind}\).*ports"):
            port_graph(kind, ports, params)

    @pytest.mark.parametrize("params", [
        {"mech": "signgd:relu", "count": 3, "shape": [2]},
        {"mech": "subgrad", "count": 2, "shape": [3]},
        {"mech": "signgd:relu", "shape": [2]},
    ])
    def test_neuron_count_must_match_shape(self, params):
        with pytest.raises(GraphError, match=r"'x' \(neuron\).*count"):
            port_graph("neuron", [0], params)

    @pytest.mark.parametrize("mech", ["signgd:foo", "gelu:2", "signgd:leaky:x", None, 3])
    def test_unknown_mechanism(self, mech):
        with pytest.raises(UnknownOperatorError, match="'x'.*mechanism"):
            port_graph("neuron", [0], {"mech": mech, "count": 2, "shape": [2]})

    @pytest.mark.parametrize("kind,ports", [
        ("max2", [0, 1]), ("add", [0]), ("add", [0, 1, 2]), ("concat", [1, 0]),
    ])
    def test_valid_ports_accepted(self, kind, ports):
        g = port_graph(kind, ports)
        assert infer_shapes(g)["out"] == ((2 * len(ports),) if kind == "concat" else (2,))


# a node of each kind whose rules read params with no default: kind, params
# and the producer's shape; dropping any one key is a GraphError at Graph()
REQUIRED_PARAMS = {
    "input": ({"shape": [4]}, None),
    "reshape": ({"shape": [2, 2]}, [4]),
    "gather": ({"indices": [3, 0]}, [4]),
    "transpose": ({"perm": [1, 0]}, [2, 2]),
    "maxpool2d": ({"kernel": [2, 2]}, [1, 2, 2]),
    "avgpool2d": ({"kernel": [2, 2]}, [1, 2, 2]),
    "layernorm": ({"gamma": np.ones(4), "beta": np.zeros(4), "eps": 1e-5}, [4]),
    "batchnorm": ({**{k: np.ones(4) for k in ("gamma", "beta", "mean", "var")},
                   "eps": 1e-5}, [4]),
    "dense": ({"weight": np.ones((2, 4)), "bias": np.zeros(2)}, [4]),
    "affine": ({"weight": np.ones((2, 4)), "bias": np.zeros(2)}, [4]),
    "conv2d": ({"weight": np.ones((2, 1, 1, 1)), "bias": np.zeros(2)}, [1, 2, 2]),
}


def required_param_graph(kind, params):
    """input -> node "x" of `kind` -> output, or input "x" -> output."""
    if kind == "input":
        return Graph([Node("x", "input", params), Node("out", "output", {})], [("x", "out", 0)])
    shape = REQUIRED_PARAMS[kind][1]
    nodes = [Node("in", "input", {"shape": shape}), Node("x", kind, params),
             Node("out", "output", {})]
    return Graph(nodes, chain_edges(["in", "x", "out"]))


@pytest.mark.parametrize("kind,key", [(kind, key) for kind, (params, _) in
                                      REQUIRED_PARAMS.items() for key in params])
def test_a_missing_param_is_a_graph_error(kind, key):
    """The whole node runs its forward rule; without any one of its params, or
    with it None, Graph() raises a GraphError naming the node and the key."""
    params = REQUIRED_PARAMS[kind][0]
    g = required_param_graph(kind, dict(params))
    run_forward(g, np.ones(g.nodes[g.input_id].params["shape"]))
    for lacking in ({k: v for k, v in params.items() if k != key}, {**params, key: None}):
        with pytest.raises(GraphError, match=rf"'x' \({kind}\) lacks its '{key}' param"):
            required_param_graph(kind, lacking)


@pytest.mark.parametrize("indices", [
    [3, 0.0], [3, False], [[3], [0]], [2**70, 0], 3, "30",
    np.array([3.0, 0.0]), np.array([True, False]), np.array([[3, 0]])])
def test_gather_indices_must_be_a_flat_list_of_integers(indices):
    with pytest.raises(GraphError, match=r"'x' \(gather\) has indices that are not"):
        required_param_graph("gather", {"indices": indices})


def test_gather_indices_are_held_as_one_intp_array():
    for indices in ([3, 0], (3, 0), np.array([3, 0], dtype=np.uint8)):
        g = required_param_graph("gather", {"indices": indices})
        held = g.nodes["x"].params["indices"]
        assert held.dtype == np.intp and held.tolist() == [3, 0]


def test_a_leaky_relu_without_a_slope_takes_the_default():
    """Graph(), node_forward and convert read one default slope, the leaky
    firing mechanism's."""
    g = build_mlp(seed=5, dims=(4, 6, 2), act="leaky_relu")
    assert "delta" not in g.nodes["act0"].params
    with_default = build_mlp(seed=5, dims=(4, 6, 2), act="leaky_relu",
                             act_params={"delta": FiringMechanism.delta})
    x = make_rng(2).normal(0, 3, 4)
    np.testing.assert_array_equal(run_forward(g, x)["out"], run_forward(with_default, x)["out"])
    snn = convert(g, "signgd", Schedule.inverse(1.0))
    assert snn.graph.nodes["act0"].params["mech"] == f"signgd:leaky:{FiringMechanism.delta:g}"


def test_a_converted_leaky_layer_keeps_its_slope(tmp_path):
    """The mechanism name is the only place a converted graph keeps a leaky
    slope, and it keeps every bit of it: at slope 1/3 the converted graph's
    forward, in memory and re-loaded, is the source's, bit for bit."""
    g = build_mlp(seed=5, dims=(4, 6, 2), act="leaky_relu", act_params={"delta": 1 / 3})
    snn = calibrate(convert(g, "signgd", Schedule.inverse(1.0)))
    snn.save(tmp_path / "snn")
    X = make_rng(2).normal(0, 10, (8, 4))
    assert min(run_forward(g, x)["fc0"].min() for x in X) < -10
    for net in (snn, SnnGraph.load(tmp_path / "snn")):
        for x in X:
            np.testing.assert_array_equal(run_forward(net.graph, x)["out"],
                                          run_forward(g, x)["out"])


@pytest.mark.parametrize("family", ["signgd", "subgrad"])
@pytest.mark.parametrize("node,key", [("act0", "cal_w"), ("act0", "cal_b"),
                                      ("out", "cal_w"), ("out", "cal_b")])
@pytest.mark.parametrize("edit", ["dropped", "short", "misshapen"])
def test_stored_calibration_records_are_ignored(tmp_path, family, node, key, edit):
    """A file whose cal_w or cal_b record of a neuron node or of the output
    node is dropped, holds one value fewer, or is read in another shape runs
    exactly like the intact file: an instance computes its calibration from
    the weights, as it takes a neuron's arity from its mechanism."""
    from spikeopt.engine import run_batch

    manifest = saved_snn(tmp_path, family)
    spec = next(n for n in manifest["nodes"] if n["id"] == node)
    entry = manifest["tensors"][spec["tensors"][key]]
    size = math.prod(entry["shape"])
    if edit == "dropped":
        del spec["tensors"][key]
    else:
        entry["shape"] = [1, size - 1] if edit == "short" else [2, size // 2]
    (tmp_path / "edited.json").write_text(json.dumps(manifest))
    (tmp_path / "edited.bin").write_bytes((tmp_path / "net.bin").read_bytes())
    intact, edited = SnnGraph.load(tmp_path / "net"), SnnGraph.load(tmp_path / "edited")
    assert edited.calibrated == (edit != "dropped")
    X = make_rng(4).normal(0, 1, (2, 8))
    for got, want in zip(run_batch(edited, X, 32), run_batch(intact, X, 32)):
        np.testing.assert_array_equal(got, want)


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


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("delta", NON_FINITE)
def test_leaky_slope_must_be_finite(tmp_path, delta):
    """A leaky_relu node with a NaN or infinite slope is rejected with a
    GraphError naming the node, built in memory or loaded from a file, and
    so is a leaky neuron whose mech carries such a slope."""
    with pytest.raises(GraphError, match="'act0' \\(leaky_relu\\) has slope"):
        build_mlp(seed=5, dims=(4, 6, 2), act="leaky_relu", act_params={"delta": delta})
    g = build_mlp(seed=5, dims=(4, 6, 2), act="leaky_relu", act_params={"delta": 0.2})
    save_model(g, tmp_path / "ann")
    manifest = json.loads((tmp_path / "ann.json").read_text())
    act0(manifest)["delta"] = delta  # json writes NaN, Infinity, -Infinity
    (tmp_path / "ann.json").write_text(json.dumps(manifest))
    with pytest.raises(GraphError, match="'act0' \\(leaky_relu\\) has slope"):
        load_model(tmp_path / "ann")
    calibrate(convert(g, "signgd", Schedule.inverse(1.0))).save(tmp_path / "snn")
    manifest = json.loads((tmp_path / "snn.json").read_text())
    assert act0(manifest)["mech"] == "signgd:leaky:0.2"
    act0(manifest)["mech"] = f"signgd:leaky:{delta}"
    (tmp_path / "snn.json").write_text(json.dumps(manifest))
    with pytest.raises(GraphError, match="'act0'.*finite"):
        SnnGraph.load(tmp_path / "snn")


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

    @pytest.mark.parametrize("shared", [False, True])
    def test_a_batchnorm_after_a_batchnorm_is_named(self, rng, shared):
        """The producer a batch norm folds into is the one of the source
        graph: `fc -> bn1 -> bn2` names bn2's producer bn1, and so does a
        bn1 that feeds bn2 and another node."""
        def bn(nid):
            return Node(nid, "batchnorm", {"gamma": np.ones(3), "beta": np.zeros(3),
                                           "mean": np.zeros(3), "var": np.ones(3), "eps": 0.0})

        nodes = [Node("in", "input", {"shape": [3]}), dense_node(rng, "fc", 3, 3), bn("bn1"),
                 bn("bn2"), Node("out", "output", {})]
        edges = chain_edges(["in", "fc", "bn1", "bn2"])
        if shared:
            nodes += [Node("act", "relu", {}), Node("sum", "add", {})]
            edges += [("bn1", "act", 0), ("bn2", "sum", 0), ("act", "sum", 1), ("sum", "out", 0)]
        else:
            edges += [("bn2", "out", 0)]
        with pytest.raises(ConversionError, match="^batchnorm 'bn2' follows 'batchnorm'; "
                                                  "only dense/conv2d can fold$"):
            fold_batchnorm(Graph(nodes, edges))


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

    @pytest.mark.parametrize("fanout", ["add", "relu"])
    def test_a_producer_that_feeds_other_nodes_is_not_scaled(self, fanout):
        """Dividing a ReLU's producer by M_f changes what its other consumers
        read: `fc0 -> sum` beside `fc0 -> act0 -> fc1 -> sum` is refused, and
        so is a producer of two ReLUs, which would be divided twice."""
        rng = make_rng(0)
        nodes = [Node("in", "input", {"shape": [4]}), dense_node(rng, "fc0", 4, 4),
                 Node("act0", "relu", {}), dense_node(rng, "fc1", 4, 4),
                 Node("sum", "add", {}), Node("out", "output", {})]
        edges = chain_edges(["in", "fc0", "act0", "fc1", "sum", "out"])
        if fanout == "add":
            edges.append(("fc0", "sum", 1))
        else:
            nodes += [Node("act1", "relu", {}), dense_node(rng, "fc2", 4, 4)]
            edges += [("fc0", "act1", 0), ("act1", "fc2", 0), ("fc2", "sum", 1)]
        with pytest.raises(ConversionError, match=r"^ReLU 'act\d': producer 'fc0' feeds other "
                                                  r"nodes; cannot scale it$"):
            normalize_relu(Graph(nodes, edges), list(rng.normal(0, 1, (4, 4))))


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

    @pytest.mark.parametrize("kernel", [(2, 2), (2, 3), (3, 3), (3, 5), (5, 3), (5, 5)])
    def test_a_window_is_one_tournament(self, kernel):
        """All K_r*K_c elements of a window meet in one tournament of depth
        ceil(log2(K_r*K_c)): a 5x5 window takes 5 max2 stages, not 3 for its
        rows and 3 more for its columns."""
        nodes = [
            Node("in", "input", {"shape": [1, *kernel]}),
            Node("pool", "maxpool2d", {"kernel": list(kernel), "stride": list(kernel)}),
            Node("out", "output", {}),
        ]
        d = decompose_maxpool(Graph(nodes, chain_edges(["in", "pool", "out"])))
        stages = sum(n.kind == "max2" for n in d.nodes.values())
        assert stages == math.ceil(math.log2(kernel[0] * kernel[1]))

    @pytest.mark.parametrize("kernel,stride,gathers", [
        ((2, 2), (2, 2), False), ((3, 3), (1, 2), False), ((1, 1), (1, 1), True),
        ((1, 1), (2, 1), True)])
    def test_only_a_pool_without_a_stage_gathers_its_survivors(self, kernel, stride, gathers):
        """A last stage leaves the pooled values in (C, Ho, Wo) order, so no
        `pool.order` gather follows it; a 1x1 window makes no stage, and its
        selection is gathered."""
        nodes = [
            Node("in", "input", {"shape": [2, 5, 4]}),
            Node("pool", "maxpool2d", {"kernel": list(kernel), "stride": list(stride)}),
            Node("out", "output", {}),
        ]
        g = Graph(nodes, chain_edges(["in", "pool", "out"]))
        d = decompose_maxpool(g)
        assert ("pool.order" in d.nodes) == gathers
        x = make_rng(3).normal(0, 1, (2, 5, 4))
        np.testing.assert_array_equal(forward_out(d, x), forward_out(g, x))

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

    @settings(max_examples=200, deadline=None)
    @given(c=st.integers(1, 3), h=st.integers(1, 9), w=st.integers(1, 9),
           kernel=st.tuples(st.integers(1, 4), st.integers(1, 4)),
           stride=st.tuples(st.integers(1, 3), st.integers(1, 3)), seed=st.integers(0, 2**16))
    def test_the_tournament_is_the_max_pool_bit_for_bit(self, c, h, w, kernel, stride, seed):
        """A max is exact, so the decomposed forward equals the pooling's."""
        assume(kernel[0] <= h and kernel[1] <= w)
        nodes = [
            Node("in", "input", {"shape": [c, h, w]}),
            Node("pool", "maxpool2d", {"kernel": list(kernel), "stride": list(stride)}),
            Node("out", "output", {}),
        ]
        g = Graph(nodes, chain_edges(["in", "pool", "out"]))
        x = make_rng(seed).normal(0, 1, (c, h, w))
        np.testing.assert_array_equal(forward_out(decompose_maxpool(g), x), forward_out(g, x))

    @pytest.mark.parametrize("transform", [
        decompose_maxpool, lambda g: convert(g, "signgd", Schedule.inverse(1.0))])
    def test_a_node_named_like_a_generated_one_is_a_duplicate_id(self, transform):
        """The tournament of `pool` emits `pool.s0.max`; a source node of
        that name is a duplicate, not an edge into the tournament."""
        g = build_cnn(seed=6)
        name = {"flat": "pool.s0.max"}
        nodes = [Node(name.get(n.id, n.id), n.kind, n.params) for n in g.nodes.values()]
        edges = [(name.get(s, s), name.get(d, d), p) for s, d, p in g.edges]
        with pytest.raises(GraphError, match="^duplicate node ids$"):
            transform(Graph(nodes, edges))


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

    def test_a_batch_norm_folds_in_the_one_walk(self, monkeypatch):
        walks = []
        walk = Graph.walk
        monkeypatch.setattr(Graph, "walk", lambda g, visit: walks.append(g) or walk(g, visit))
        snn = convert(MODELS["bn_mlp"](), "signgd", Schedule.inverse(1.0))
        assert "bn" not in snn.graph.nodes and len(walks) == 1

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
        # the records are stored as float32 (an instance reads none of them)
        np.testing.assert_allclose(
            node.params["cal_w"], snn.graph.nodes["act0"].params["cal_w"], rtol=1e-6
        )


@pytest.mark.parametrize("model,transform,node", [
    ("cnn", lambda g: convert(g, "signgd", Schedule.inverse(1.0)).graph, "pool.s0.a"),
    ("layernorm", lambda g: convert(g, "signgd", Schedule.inverse(1.0)).graph, "ln.sq"),
    ("bn_mlp", lambda g: convert(g, "signgd", Schedule.inverse(1.0)).graph, "fc0"),
    ("cnn", decompose_maxpool, "pool.s0.a"),
    ("layernorm", decompose_layernorm, "ln.center"),
    ("bn_mlp", fold_batchnorm, "fc0"),
    ("mlp", lambda g: normalize_relu(g, make_rng(0).normal(0, 1, (4, 8))), "fc0"),
])
def test_a_rewritten_graph_is_freed_without_the_collector(model, transform, node):
    """Nothing a transform leaves behind refers back to the graph it
    returns, so reference counting alone frees it and its nodes."""
    g = transform(MODELS[model]())
    ref = weakref.ref(g.nodes[node])
    gc.disable()
    try:
        del g
        assert ref() is None
    finally:
        gc.enable()


PUBLIC_TRANSFORMS = {
    "fold_batchnorm": lambda g, family: fold_batchnorm(g),
    "normalize_relu": lambda g, family: normalize_relu(
        g, make_rng(0).normal(0, 1, (4, *g.nodes[g.input_id].params["shape"]))),
    "decompose_maxpool": lambda g, family: decompose_maxpool(g),
    "decompose_layernorm": lambda g, family: decompose_layernorm(g),
    "convert": lambda g, family: convert(g, family, Schedule.inverse(1.0)),
}


@pytest.mark.parametrize("transform", sorted(PUBLIC_TRANSFORMS))
@pytest.mark.parametrize("model,family", CONFIGS)
def test_a_transform_leaves_its_input_graph_unchanged(model, family, transform):
    """Every node's params and the edge list read the same after a public
    transform, whether it accepts the graph or refuses it."""
    def snapshot(g):
        return ({n.id: (n.kind, {k: np.asarray(v).tolist() for k, v in n.params.items()})
                 for n in g.nodes.values()}, list(g.edges))

    g = MODELS[model]()
    before = snapshot(g)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a dead ReLU's warning
        try:
            PUBLIC_TRANSFORMS[transform](g, family)
        except ConversionError:
            pass
    assert snapshot(g) == before


def saved_snn(tmp_path, family):
    """A calibrated 8-16-4 MLP saved as `net`; returns its parsed manifest."""
    g = build_mlp(seed=29, dims=(8, 16, 4))
    calibrate(convert(g, family, Schedule.inverse(1.0))).save(tmp_path / "net")
    return json.loads((tmp_path / "net.json").read_text())


def act0(manifest):
    return next(n for n in manifest["nodes"] if n["id"] == "act0")["params"]


def edit_act0(**edit):
    return lambda manifest: act0(manifest).update(edit)


# the source-model kinds that conversion replaces or folds away
ANN_ONLY = ["avgpool2d", "batchnorm", "gelu", "layernorm", "leaky_relu", "max2",
            "maxpool2d", "mul_inv_sqrt", "relu", "square"]
# params of node "x" in one_node_graph for the kinds a spiking network steps,
# and for the pooling and norm kinds, whose rules read params with no default
STEP_PARAMS = {
    "avgpool2d": {"kernel": [1, 1]},
    "maxpool2d": {"kernel": [1, 1]},
    "batchnorm": {**{k: np.ones(1) for k in ("gamma", "beta", "mean", "var")}, "eps": 1e-5},
    "layernorm": {"gamma": np.ones(2), "beta": np.zeros(2), "eps": 1e-5},
    "dense": {"weight": np.ones((3, 4)), "bias": np.zeros(3)},
    "affine": {"weight": np.ones((3, 4)), "bias": np.zeros(3)},
    "conv2d": {"weight": np.ones((2, 1, 1, 1)), "bias": np.zeros(2)},
    "reshape": {"shape": [4]},
    "transpose": {"perm": [0, 2, 1]},
    "gather": {"indices": [3, 0]},
    "neuron": {"mech": "signgd:max2", "count": 4, "shape": [1, 2, 2]},
}


def one_node_graph(kind):
    """input (1, 2, 2) -> node "x" of `kind`, the input on each port -> output."""
    ports = 2 if kind in ("add", "concat", "max2", "mul_inv_sqrt", "neuron") else 1
    nodes = [Node("in", "input", {"shape": [1, 2, 2]}),
             Node("x", kind, STEP_PARAMS.get(kind, {})), Node("out", "output", {})]
    return Graph(nodes, [("x", "out", 0)] + [("in", "x", p) for p in range(ports)])


@pytest.mark.parametrize("kind", sorted(KINDS - {"input", "output"}))
def test_every_kind_is_steppable_or_rejected(kind):
    """The plan steps every kind SnnGraph accepts; SnnGraph rejects the rest."""
    assert set(ANN_ONLY).isdisjoint(STEPPABLE) and STEPPABLE <= KINDS
    g = one_node_graph(kind)
    if kind not in STEPPABLE:
        with pytest.raises(GraphError, match=rf"'x' \({kind}\)"):
            SnnGraph(g, "signgd", Schedule.inverse(1.0))
        with pytest.raises(GraphError, match=rf"'x' \({kind}\) has no step rule"):
            Plan(g)
        return
    from spikeopt.engine import run

    snn = calibrate(SnnGraph(g, "signgd", Schedule.inverse(1.0)))
    hist = run(snn, make_rng(2).normal(0, 1, (1, 2, 2)), 4)
    assert hist.shape[0] == 4 and np.isfinite(hist).all()


class TestSnnLoad:
    """Bad neuron files fail in SnnGraph.load, naming the node or the family."""

    @pytest.mark.parametrize("family,mutate,error,match", [
        ("signgd", edit_act0(mech="signgd:max2", arity=1), GraphError,
         r"'act0' \(neuron\).*ports"),
        ("signgd", edit_act0(mech="signgd:foo"), UnknownOperatorError, "'act0'.*signgd:foo"),
        ("signgd", edit_act0(mech="subgrad"), ConversionError, "'act0'.*signgd family"),
        ("subgrad", edit_act0(mech="signgd:gelu"), ConversionError, "'act0'.*subgrad family"),
        ("subgrad", _set(["meta", "family"], "sgd"), ConversionError, "family 'sgd'"),
        ("signgd", edit_act0(count=15), GraphError, "'act0'.*count 15"),
        ("subgrad", edit_act0(count=15), GraphError, "'act0'.*count 15"),
    ], ids=["max2-one-port", "unknown-mech", "subgrad-in-signgd", "gelu-in-subgrad",
            "unknown-family", "count-signgd", "count-subgrad"])
    def test_bad_neuron_file(self, tmp_path, family, mutate, error, match):
        manifest = saved_snn(tmp_path, family)
        mutate(manifest)
        (tmp_path / "net.json").write_text(json.dumps(manifest))
        with pytest.raises(error, match=match):
            SnnGraph.load(tmp_path / "net")

    @pytest.mark.parametrize("kind", ANN_ONLY)
    def test_ann_only_kind_rejected(self, tmp_path, kind):
        """A converted net whose act0 is an ANN nonlinearity again would apply
        it to spike currents: loading it names the node and its kind."""
        manifest = saved_snn(tmp_path, "signgd")
        next(n for n in manifest["nodes"] if n["id"] == "act0")["kind"] = kind
        if kind in ("max2", "mul_inv_sqrt"):  # two-port kinds get a second operand
            manifest["edges"].append(["fc0", "act0", 1])
        (tmp_path / "net.json").write_text(json.dumps(manifest))
        with pytest.raises(GraphError, match=rf"'act0' \({kind}\)"):
            SnnGraph.load(tmp_path / "net")

    @pytest.mark.parametrize("mutate,match", [
        (_set(["meta"], ["signgd"]), "meta is not an object"),
        (lambda m: m["meta"].pop("family"), "meta lacks 'family'"),
        (_set(["meta", "schedule"], "inv:x"), "bad meta schedule.*inv:x"),
        (_set(["meta", "schedule"], 1), "bad meta schedule"),
    ], ids=["meta-list", "no-family", "bad-schedule", "number-schedule"])
    def test_bad_meta(self, tmp_path, mutate, match):
        manifest = saved_snn(tmp_path, "signgd")
        mutate(manifest)
        (tmp_path / "net.json").write_text(json.dumps(manifest))
        with pytest.raises(ModelFormatError, match=f"net.*{match}"):
            SnnGraph.load(tmp_path / "net")

    @pytest.mark.parametrize("family", ["signgd", "subgrad"])
    @pytest.mark.parametrize("mutate,match", [
        (edit_act0(count=15, shape=[15]), r"count 15 but operands of sizes \[16\]"),
    ], ids=["count"])
    def test_neuron_sizes_checked_when_plan_is_built(self, tmp_path, family, mutate, match):
        """The file loads (count matches shape), but the layer cannot take its
        16-wide operand: building the step plan names the node."""
        from spikeopt.engine import SnnInstance

        manifest = saved_snn(tmp_path, family)
        mutate(manifest)
        (tmp_path / "net.json").write_text(json.dumps(manifest))
        snn = SnnGraph.load(tmp_path / "net")
        with pytest.raises(GraphError, match=rf"'act0' \(neuron\) has {match}"):
            SnnInstance(snn)

    @pytest.mark.parametrize("family", ["signgd", "subgrad"])
    def test_stored_arity_is_ignored(self, tmp_path, family):
        from spikeopt.engine import run

        manifest = saved_snn(tmp_path, family)
        assert "arity" not in act0(manifest)
        act0(manifest)["arity"] = 1  # as earlier versions wrote it
        (tmp_path / "old.json").write_text(json.dumps(manifest, sort_keys=True) + "\n")
        (tmp_path / "old.bin").write_bytes((tmp_path / "net.bin").read_bytes())
        new, old = SnnGraph.load(tmp_path / "net"), SnnGraph.load(tmp_path / "old")
        x = make_rng(4).normal(0, 1, 8)
        np.testing.assert_array_equal(run(old, x, 32), run(new, x, 32))
        for name in ("net", "old"):
            SnnGraph.load(tmp_path / name).save(tmp_path / "again")
            for suffix in (".json", ".bin"):
                assert ((tmp_path / "again").with_suffix(suffix).read_bytes()
                        == (tmp_path / name).with_suffix(suffix).read_bytes())


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


def operand_graph(kind, params, shapes):
    """in -> per operand i a gather of the input's first values and a reshape
    to shapes[i] -> node "x" of `kind` with `params`, operand i on port i ->
    output."""
    size = max(math.prod(sh) for sh in shapes)
    nodes = [Node("in", "input", {"shape": [size]}), Node("x", kind, params),
             Node("out", "output", {})]
    edges = [("x", "out", 0)]
    for i, sh in enumerate(shapes):
        nodes += [Node(f"g{i}", "gather", {"indices": list(range(math.prod(sh)))}),
                  Node(f"r{i}", "reshape", {"shape": list(sh)})]
        edges += [("in", f"g{i}", 0), (f"g{i}", f"r{i}", 0), (f"r{i}", "x", i)]
    return Graph(nodes, edges)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_one_shape_rule_for_multi_operand_kinds(data):
    """shape_witness, node_forward on random values and the step plan (of
    the converted graph, for the ANN-only max2 and mul_inv_sqrt) agree on
    an add, max2, mul_inv_sqrt, concat or neuron node: the same output shape
    (the plan's output width being its size), or each raises a
    ShapeMismatchError naming the node."""
    kind = data.draw(st.sampled_from(["add", "max2", "mul_inv_sqrt", "concat", "neuron"]))
    params, arity = {}, 2
    if kind == "neuron":
        mech = data.draw(st.sampled_from(["signgd:relu", "signgd:max2", "signgd:misr"]))
        arity = 1 if mech == "signgd:relu" else 2
    elif kind in ("add", "concat"):
        arity = data.draw(st.integers(1 if kind == "concat" else 2, 3))
    shapes = [tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
              for _ in range(arity)]
    if kind == "neuron":
        count = data.draw(st.sampled_from(sorted({1, 5, *map(math.prod, shapes)})))
        params = {"mech": mech, "count": count, "shape": [count]}
    g = operand_graph(kind, params, shapes)
    node, xs = g.nodes["x"], [make_rng(0).uniform(0.5, 2.0, sh) for sh in shapes]

    def outcome(f):
        try:
            return f()
        except ShapeMismatchError as exc:
            assert "'x'" in str(exc), exc
            return "misfit"

    def plan_width():
        steppable = g if kind in STEPPABLE else convert(g, "signgd", Schedule.inverse(1.0)).graph
        plan = Plan(steppable)
        return plan.widths[plan.out_slot]

    witness = outcome(lambda: shape_witness(node, xs).shape)
    assert outcome(lambda: node_forward(node, xs).shape) == witness
    assert outcome(plan_width) == (witness if witness == "misfit" else math.prod(witness))
