import csv

import numpy as np
import pytest

from conftest import build_layernorm_block, build_mlp
from spikeopt.cli import main
from spikeopt.codec import make_rng
from spikeopt.engine import ann_forward
from spikeopt.graph import save_labels, save_model, save_tensor


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


class TestEncode:
    def test_det_csv(self, tmp_path):
        out = tmp_path / "train.csv"
        assert main(["encode", "--x", "0.3", "--schedule", "inv:1",
                     "--T", "8", "--encoder", "det", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["t", "s"]
        assert len(rows) == 9
        assert rows[1][0] == "1"
        assert set(r[1] for r in rows[1:]) <= {"0.0", "1.0"}

    def test_lf_line_endings(self, tmp_path):
        out = tmp_path / "train.csv"
        main(["encode", "--x", "0.0", "--T", "4", "--out", str(out)])
        raw = out.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")


class TestOracleCheck:
    @pytest.mark.parametrize("neuron,schedule", [
        ("if", "inv:1"),
        ("lif", "inv:1"),
        ("subgrad", "inv:1"),
        ("signgd:relu", "inv:1"),
        ("signgd:gelu", "inv:1"),
        ("signgd:leaky:0.1", "inv:1"),
        ("signgd:max2", "inv:1"),
        ("signgd:square", "inv:1"),
        ("signgd:misr", "inv:1"),
    ])
    def test_clean_pass(self, neuron, schedule, capsys):
        rc = main(["oracle-check", "--neuron", neuron, "--schedule", schedule,
                   "--steps", "2000"])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_unit_current_pass(self):
        rc = main(["oracle-check", "--neuron", "signgd:relu",
                   "--schedule", "exp:0.5:0.999", "--steps", "2000",
                   "--parameterization", "unit-current"])
        assert rc == 0

    def test_corrupted_coefficients_fail(self):
        rc = main(["oracle-check", "--neuron", "signgd:relu", "--steps", "500",
                   "--corrupt-beta1", "1.001"])
        assert rc == 1

    def test_corrupted_subgrad_fail(self):
        rc = main(["oracle-check", "--neuron", "subgrad", "--steps", "500",
                   "--corrupt-alpha", "1.01"])
        assert rc == 1


class TestNeuronSweep:
    def test_relu_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["neuron-sweep", "--mech", "signgd:relu", "--schedule", "inv:1",
                   "--xmin", "-3", "--xmax", "3", "--points", "121",
                   "--T", "1000", "--encoder", "det", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["x", "t", "err"]
        final_errs = [float(r[2]) for r in rows[1:] if r[1] == "1000"]
        assert len(final_errs) == 121
        assert max(final_errs) <= 0.05
        # checkpoints are logarithmic: powers of two plus the final step
        ts = sorted({int(r[1]) for r in rows[1:]})
        assert ts == [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1000]

    def test_unknown_mechanism(self, tmp_path):
        with pytest.raises(ValueError):
            main(["neuron-sweep", "--mech", "signgd:softmax",
                  "--out", str(tmp_path / "x.csv")])

    def test_misr_denominator_degradation(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        rc = main(["neuron-sweep", "--mech", "signgd:misr", "--schedule", "inv:1",
                   "--xmin", "0.01", "--xmax", "10", "--points", "40",
                   "--T", "400", "--encoder", "float", "--out", str(out)])
        assert rc == 0
        rows = [r for r in read_csv(out)[1:] if r[1] == "400"]
        errs = {float(r[0]): float(r[2]) for r in rows}
        xs = sorted(errs)
        assert errs[xs[0]] > errs[xs[-1]]  # small denominators converge worse


@pytest.fixture
def pipeline(tmp_path):
    """An ANN model file plus a small dataset on disk."""
    g = build_mlp(seed=41, dims=(8, 16, 4))
    save_model(g, tmp_path / "ann")
    rng = make_rng(9)
    data = rng.normal(0, 1, (6, 8)).astype(np.float32)
    labels = [int(np.argmax(ann_forward(g, x)["out"])) for x in data]
    save_tensor(data, tmp_path / "data.sten")
    save_labels(labels, tmp_path / "labels.slbl")
    return tmp_path, g


class TestConvertInferProbeEnergy:
    def test_full_pipeline(self, pipeline, capsys):
        tmp, g = pipeline
        rc = main(["convert", str(tmp / "ann.json"), "--family", "signgd",
                   "--schedule", "inv:1", "--out", str(tmp / "snn")])
        assert rc == 0
        assert "neuron:signgd:relu" in capsys.readouterr().out

        rc = main(["infer", str(tmp / "snn.json"), "--data", str(tmp / "data.sten"),
                   "--labels", str(tmp / "labels.slbl"), "--T", "512",
                   "--report", str(tmp / "acc.csv")])
        assert rc == 0
        rows = read_csv(tmp / "acc.csv")
        assert rows[0] == ["T", "acc"]
        ts = [int(r[0]) for r in rows[1:]]
        assert {16, 32, 64, 128, 256}.issubset(set(ts))
        final_acc = float(rows[-1][1])
        assert final_acc == 1.0  # labels are the ANN argmax

        rc = main(["probe", str(tmp / "snn.json"), "--data", str(tmp / "data.sten"),
                   "--T", "128", "--out", str(tmp / "probe.csv")])
        assert rc == 0
        rows = read_csv(tmp / "probe.csv")
        assert rows[0] == ["layer", "t", "err"]

        rc = main(["infer", str(tmp / "snn.json"), "--data", str(tmp / "data.sten"),
                   "--T", "64", "--run-trace", str(tmp / "trace.csv"),
                   "--report", str(tmp / "acc2.csv")])
        assert rc == 0
        rows = read_csv(tmp / "trace.csv")
        assert rows[0] == ["t", "class", "logit0", "logit1", "logit2", "logit3"]
        assert int(rows[-1][0]) == 64

        rc = main(["energy", str(tmp / "snn.json"), "--data", str(tmp / "data.sten"),
                   "--T", "32", "--out", str(tmp / "energy.csv")])
        assert rc == 0
        rows = read_csv(tmp / "energy.csv")
        assert rows[0] == ["neurons", "spikes", "fr", "n_sop", "energy_pj"]
        spikes = int(rows[1][1])
        assert float(rows[1][4]) == pytest.approx(spikes * 1.8, rel=1e-6)

    def test_subgrad_with_normalization(self, pipeline, capsys):
        tmp, _ = pipeline
        rc = main(["convert", str(tmp / "ann.json"), "--family", "subgrad",
                   "--schedule", "inv:1", "--normalize-relu", "10",
                   "--calib-data", str(tmp / "data.sten"),
                   "--out", str(tmp / "snn_sub")])
        assert rc == 0
        from spikeopt.graph import SnnGraph

        snn = SnnGraph.load(tmp / "snn_sub")
        relu_layer = snn.graph.nodes["act0"]
        assert relu_layer.params["mech"] == "subgrad"
        assert relu_layer.params.get("m_f", 0) > 0

        # rate-family inference reaches the ANN argmax labels
        rc = main(["infer", str(tmp / "snn_sub.json"), "--data", str(tmp / "data.sten"),
                   "--labels", str(tmp / "labels.slbl"), "--T", "1024",
                   "--report", str(tmp / "acc_sub.csv")])
        assert rc == 0
        rows = read_csv(tmp / "acc_sub.csv")
        assert float(rows[-1][1]) == 1.0

    def test_infer_without_labels_and_dense_probe(self, pipeline):
        tmp, _ = pipeline
        main(["convert", str(tmp / "ann.json"), "--family", "signgd",
              "--out", str(tmp / "s2")])
        rc = main(["infer", str(tmp / "s2.json"), "--data", str(tmp / "data.sten"),
                   "--T", "32", "--report", str(tmp / "nolabel.csv")])
        assert rc == 0
        rows = read_csv(tmp / "nolabel.csv")
        assert rows[1][1] == "nan"
        rc = main(["probe", str(tmp / "s2.json"), "--data", str(tmp / "data.sten"),
                   "--T", "16", "--dense-trace", "--out", str(tmp / "dense.csv")])
        assert rc == 0
        rows = read_csv(tmp / "dense.csv")
        act_rows = [r for r in rows[1:] if r[0] == "act0"]
        assert len(act_rows) == 16  # every step present

    def test_encode_poisson(self, tmp_path):
        out = tmp_path / "p.csv"
        rc = main(["encode", "--x", "0.7", "--T", "200", "--encoder", "poisson",
                   "--seed", "4", "--out", str(out)])
        assert rc == 0
        vals = [float(r[1]) for r in read_csv(out)[1:]]
        assert set(vals) <= {0.0, 1.0}
        assert 0.5 <= np.mean(vals) <= 0.9

    def test_subgrad_rejects_gelu_model(self, tmp_path):
        g = build_layernorm_block(seed=5)
        save_model(g, tmp_path / "ln")
        from spikeopt.graph import ConversionError

        with pytest.raises(ConversionError):
            main(["convert", str(tmp_path / "ln.json"), "--family", "subgrad",
                  "--out", str(tmp_path / "x")])

    def test_signgd_layernorm_census(self, tmp_path, capsys):
        g = build_layernorm_block(seed=5)
        save_model(g, tmp_path / "ln")
        rc = main(["convert", str(tmp_path / "ln.json"), "--family", "signgd",
                   "--schedule", "inv:1", "--out", str(tmp_path / "snn_ln")])
        assert rc == 0
        out = capsys.readouterr().out
        for kind in ("neuron:signgd:gelu", "neuron:signgd:square", "neuron:signgd:misr"):
            assert kind in out

    def test_determinism(self, pipeline):
        tmp, _ = pipeline
        main(["convert", str(tmp / "ann.json"), "--family", "signgd",
              "--out", str(tmp / "s1")])
        for name in ("r1.csv", "r2.csv"):
            main(["infer", str(tmp / "s1.json"), "--data", str(tmp / "data.sten"),
                  "--labels", str(tmp / "labels.slbl"), "--T", "64",
                  "--encoder", "stoch", "--seed", "3",
                  "--report", str(tmp / name)])
        assert (tmp / "r1.csv").read_bytes() == (tmp / "r2.csv").read_bytes()

    def test_repeat_runs_write_identical_csvs(self, pipeline):
        tmp, _ = pipeline
        main(["convert", str(tmp / "ann.json"), "--family", "signgd",
              "--out", str(tmp / "s3")])
        flags = ["--data", str(tmp / "data.sten"), "--T", "32",
                 "--encoder", "stoch", "--seed", "3"]
        for run in ("1", "2"):
            assert main(["infer", str(tmp / "s3.json"), *flags,
                         "--labels", str(tmp / "labels.slbl"),
                         "--report", str(tmp / f"acc{run}.csv"),
                         "--run-trace", str(tmp / f"trace{run}.csv"), "--index", "5"]) == 0
            assert main(["energy", str(tmp / "s3.json"), *flags,
                         "--out", str(tmp / f"energy{run}.csv")]) == 0
        for stem in ("acc", "trace", "energy"):
            assert (tmp / f"{stem}1.csv").read_bytes() == (tmp / f"{stem}2.csv").read_bytes()
