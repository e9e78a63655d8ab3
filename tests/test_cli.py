import contextlib
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spikeopt
from conftest import CONFIGS, MODELS, build_layernorm_block, build_mlp, chain_edges, dense_node
from reference_oracle import reference_oracle_check, reference_setup
from spikeopt import cli
from spikeopt.cli import main
from spikeopt.codec import make_rng
from spikeopt.engine import ann_forward
from spikeopt.graph import (
    Graph,
    Node,
    SnnGraph,
    calibrate,
    convert,
    run_forward,
    save_labels,
    save_model,
    save_tensor,
)
from spikeopt.schedules import (
    parse_schedule,
    solve_signgd_coefficients,
    solve_subgrad_coefficients,
)


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


ORACLE_MECHS = ("relu", "leaky:0.1", "gelu", "square", "max2", "misr")
# the oracle-check configurations the benchmark's oracle-replay workload runs
ORACLE_BENCH = [
    ("if", "inv:1", "canonical"), ("lif", "inv:1", "canonical"),
    ("subgrad", "inv:1", "canonical"),
    *((f"signgd:{m}", "inv:1", "canonical") for m in ORACLE_MECHS),
    *((f"signgd:{m}", "exp:1:0.999", "unit-current") for m in ORACLE_MECHS),
]


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

    @pytest.mark.parametrize("neuron", ["signgd:relu", "signgd:misr"])
    def test_nan_deviation_fails(self, capsys, neuron):
        """--corrupt-beta1 0 divides u by zero, so the decode is NaN from
        step 1 on; a NaN deviation is not within the limit."""
        with pytest.warns(RuntimeWarning, match="invalid value"):
            rc = main(["oracle-check", "--neuron", neuron, "--steps", "50",
                       "--corrupt-beta1", "0"])
        assert rc == 1
        assert capsys.readouterr().out.endswith(" max-deviation=nan -> FAIL\n")

    @pytest.mark.parametrize("neuron,steps", [("signgd:relu", "0"), ("if", "-3")])
    def test_steps_must_be_at_least_one(self, capsys, neuron, steps):
        rc = main(["oracle-check", "--neuron", neuron, "--steps", steps])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"spikeopt oracle-check: error: --steps must be >= 1, got {steps}\n"

    @pytest.mark.parametrize("seed", [0, 5, 1412])
    @pytest.mark.parametrize("neuron,schedule,param", ORACLE_BENCH)
    def test_prints_the_per_step_reference_line(self, capsys, neuron, schedule, param, seed):
        """The whole-trace check prints what the per-step loop printed, for
        the benchmark's configurations and their corrupted controls."""
        corrupt = ([["--corrupt-beta1", "1.001"], ["--corrupt-beta1", "-1"]]
                   if neuron.startswith("signgd") else
                   [["--corrupt-alpha", "1.01"], ["--corrupt-alpha", "1e308"]]
                   if neuron == "subgrad" else [])
        for steps, extra in [("1", []), ("2", []), ("3", []), ("257", []),
                             *(("257", c) for c in corrupt)]:
            argv = ["oracle-check", "--neuron", neuron, "--schedule", schedule,
                    "--parameterization", param, "--steps", steps, "--seed", str(seed), *extra]
            with np.errstate(over="ignore"):  # --corrupt-alpha 1e308 overflows u
                want = reference_oracle_check(cli.build_parser().parse_args(argv))
                capsys.readouterr()
                rc = main(argv)
            assert (rc, capsys.readouterr().out) == (want[0], want[1] + "\n")
            assert rc == (1 if extra else 0)


@settings(max_examples=60, deadline=None)
@given(
    neuron=st.sampled_from(["if", "lif", "subgrad", "signgd:relu", "signgd:max2"]),
    schedule=st.sampled_from(["inv:1", "exp:1:0.999"]),
    steps=st.integers(1, 65),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_call_draws_are_the_per_step_draws(neuron, schedule, steps, seed):
    """oracle-check draws all inputs of a check in one generator call; row
    t - 1 is the input the per-step loop drew at step t, for odd counts (the
    generator keeps half of a 64-bit output for the next integer draw) and
    after the sign check's weight draws, for one and two operands."""
    args = cli.build_parser().parse_args(
        ["oracle-check", "--neuron", neuron, "--steps", str(steps), "--seed", str(seed)])
    sched = parse_schedule(schedule)
    coeffs = (solve_subgrad_coefficients(sched) if neuron == "subgrad" else
              solve_signgd_coefficients(sched) if neuron.startswith("signgd") else None)
    _, _, inputs, _ = cli._oracle_pair(args, coeffs, make_rng(args.seed))
    _, _, draw, _ = reference_setup(args, sched, make_rng(args.seed))
    assert inputs.shape[0] == steps
    np.testing.assert_array_equal(inputs, np.stack([draw() for _ in range(steps)]))


@pytest.mark.parametrize("argv,rc", [
    (["oracle-check", "--neuron", "subgrad", "--steps", "20"], 0),
    (["oracle-check", "--neuron", "subgrad", "--steps", "500", "--corrupt-alpha", "1.01"], 1),
    (["oracle-check", "--neuron", "signgd:relu", "--steps", "20"], 0),
    (["oracle-check", "--neuron", "signgd:max2", "--steps", "20", "--schedule", "exp:1:0.999",
      "--parameterization", "unit-current"], 0),
    (["oracle-check", "--neuron", "signgd:relu", "--steps", "500", "--corrupt-beta1", "1.001"], 1),
    (["neuron-sweep", "--mech", "signgd:relu", "--points", "5", "--T", "8", "--out", "OUT"], 0),
], ids=["subgrad", "subgrad-corrupt", "signgd", "signgd-unit-current", "signgd-corrupt",
        "sweep"])
def test_a_command_steps_the_one_set_it_solved_and_checked(tmp_path, capsys, monkeypatch,
                                                         argv, rc):
    """oracle-check and neuron-sweep solve their coefficient set once, where
    --schedule is checked, and step that set (--corrupt-* after the check)."""
    solves = []
    for name in ("solve_signgd_coefficients", "solve_subgrad_coefficients"):
        def counted(*args, _solve=getattr(cli, name), **kwargs):
            solves.append(args)
            return _solve(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    assert main([str(tmp_path / "out.csv") if x == "OUT" else x for x in argv]) == rc
    assert len(solves) == 1


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

    @pytest.mark.parametrize("mech", ["signgd:relu", "signgd:max2"])
    def test_sweep_does_not_depend_on_the_block_size(self, tmp_path, monkeypatch, mech):
        """The sweep steps in blocks of `plan.block_steps`; budgets that fit a
        step or a few give the CSV and the summary of the default budget."""
        from spikeopt.graph import plan

        argv = ["neuron-sweep", "--mech", mech, "--points", "9", "--T", "40",
                "--encoder", "stoch"]
        outputs = []
        for budget in (plan.BLOCK_BYTES, 8 * 9 * 2, 7 * 8 * 9 * 2):
            monkeypatch.setattr(plan, "BLOCK_BYTES", budget)
            out = tmp_path / f"sweep_{budget}.csv"
            summary = io.StringIO()
            with contextlib.redirect_stdout(summary):
                assert main([*argv, "--out", str(out)]) == 0
            outputs.append((out.read_bytes(), summary.getvalue()))
        assert outputs[1:] == outputs[:1] * 2

    def test_unknown_mechanism(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(["neuron-sweep", "--mech", "signgd:softmax", "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err == (
            "spikeopt neuron-sweep: error: --mech: unknown mechanism name 'signgd:softmax'\n")

    @pytest.mark.parametrize("grid", [[], ["--xmin", "0"], ["--xmin", "1", "--xmax", "-1"]])
    def test_misr_grid_must_keep_the_denominator_positive(self, tmp_path, capsys, grid):
        out = tmp_path / "m.csv"
        rc = main(["neuron-sweep", "--mech", "signgd:misr", *grid, "--T", "4",
                   "--out", str(out)])
        assert rc == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("spikeopt neuron-sweep: error: ")
        assert "--xmin" in err

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

    def test_normalization_on_seeded_draws(self, pipeline):
        """--normalize-relu without --calib-data normalizes on Gaussian draws
        from --seed: one seed gives byte-identical files, another seed other
        files, and the loaded network's reference forward stays within the
        1e-6 transform bound of the source ANN."""
        tmp, g = pipeline
        for name, seed in (("a", "4"), ("b", "4"), ("c", "5")):
            assert main(["convert", str(tmp / "ann.json"), "--family", "subgrad",
                         "--schedule", "inv:1", "--normalize-relu", "10", "--seed", seed,
                         "--out", str(tmp / name)]) == 0
        files = {name: [(tmp / f"{name}{ext}").read_bytes() for ext in (".json", ".bin")]
                 for name in "abc"}
        assert files["a"] == files["b"] and files["a"] != files["c"]
        snn = SnnGraph.load(tmp / "a")
        for x in make_rng(5).normal(0, 1, (20, 8)):
            err = np.abs(run_forward(snn.graph, x)["out"] - run_forward(g, x)["out"]).max()
            assert err <= 1e-6, err

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

    def test_subgrad_rejects_gelu_model(self, tmp_path, capsys):
        g = build_layernorm_block(seed=5)
        save_model(g, tmp_path / "ln")
        rc = main(["convert", str(tmp_path / "ln.json"), "--family", "subgrad",
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("spikeopt convert: error: node 'ln' (layernorm)")

    @pytest.mark.parametrize("missing", ["snn.json", "data.sten"])
    def test_missing_input_file(self, pipeline, capsys, missing):
        tmp, _ = pipeline
        assert main(["convert", str(tmp / "ann.json"), "--family", "signgd",
                     "--out", str(tmp / "snn")]) == 0
        (tmp / missing).unlink()
        capsys.readouterr()
        rc = main(["infer", str(tmp / "snn.json"), "--data", str(tmp / "data.sten"),
                   "--T", "4", "--report", str(tmp / "acc.csv")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"spikeopt infer: error: no such file: {tmp / missing}\n")

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

    @pytest.mark.parametrize("family", ["signgd", "subgrad"])
    def test_chunked_runs_match_items_run_alone(self, pipeline, monkeypatch, family):
        """6 items in lockstep chunks of 4 (the last one partial), set by CHUNK
        or by the CHUNK_NEURONS budget of the 16-neuron net, write the CSVs
        of running each item alone."""
        from spikeopt import cli

        tmp, _ = pipeline
        main(["convert", str(tmp / "ann.json"), "--family", family, "--out", str(tmp / "s")])
        flags = ["--data", str(tmp / "data.sten"), "--T", "32", "--encoder", "stoch",
                 "--seed", "3"]
        for name, chunk, budget in (("alone", 1, 10**6), ("chunk", 4, 10**6),
                                    ("budget", 16, 4 * 16)):
            monkeypatch.setattr(cli, "CHUNK", chunk)
            monkeypatch.setattr(cli, "CHUNK_NEURONS", budget)
            assert main(["infer", str(tmp / "s.json"), *flags,
                         "--labels", str(tmp / "labels.slbl"),
                         "--report", str(tmp / f"acc_{name}.csv"),
                         "--run-trace", str(tmp / f"trace_{name}.csv"), "--index", "5"]) == 0
            assert main(["energy", str(tmp / "s.json"), *flags,
                         "--out", str(tmp / f"energy_{name}.csv")]) == 0
        for stem in ("acc", "trace", "energy"):
            want = (tmp / f"{stem}_alone.csv").read_bytes()
            for name in ("chunk", "budget"):
                assert (tmp / f"{stem}_{name}.csv").read_bytes() == want, (stem, name)


# a flag out of range, the command it is given to and the flag the error names
RANGE_ERRORS = {
    "infer-T": (["infer", "--T", "0"], "--T"),
    "energy-T": (["energy", "--T", "0"], "--T"),
    "probe-T": (["probe", "--T", "0"], "--T"),
    "probe-index-past-end": (["probe", "--index", "99"], "--index"),
    "probe-index-negative": (["probe", "--index", "-1"], "--index"),
    "infer-trace-index": (["infer", "--run-trace", "TRACE", "--index", "99"], "--index"),
    "infer-checkpoint-zero": (["infer", "--checkpoints", "0"], "--checkpoints"),
    "infer-checkpoint-past-T": (["infer", "--T", "8", "--checkpoints", "4,9"], "--checkpoints"),
    "infer-c-stoch": (["infer", "--encoder", "stoch", "--c", "2"], "--c"),
    "probe-c-stoch": (["probe", "--encoder", "stoch", "--c", "-0.5"], "--c"),
    "infer-labels-count": (["infer", "--labels", "SHORT"], "--labels"),
    "encode-c-stoch": (["encode", "--encoder", "stoch", "--c", "2"], "--c"),
    "encode-T": (["encode", "--T", "0"], "--T"),
    "encode-x-nan": (["encode", "--x", "nan"], "--x"),
    "encode-x-inf": (["encode", "--x", "inf"], "--x"),
    "sweep-xmin-nan": (["neuron-sweep", "--xmin", "nan"], "--xmin"),
    "sweep-xmax-inf": (["neuron-sweep", "--xmax", "inf"], "--xmax"),
    "oracle-schedule-overflows": (["oracle-check", "--schedule", "const:1e200", "--steps", "20"],
                                  "--schedule"),
    "oracle-schedule-overflows-nan": (["oracle-check", "--schedule", "const:1e308",
                                       "--steps", "20"], "--schedule"),
    # a negative seed, which PCG64 rejects, also where the command draws nothing
    "encode-seed": (["encode", "--encoder", "poisson", "--seed", "-1"], "--seed"),
    "oracle-check-seed": (["oracle-check", "--seed", "-1"], "--seed"),
    "neuron-sweep-seed": (["neuron-sweep", "--encoder", "stoch", "--seed", "-2"], "--seed"),
    "convert-seed": (["convert", "ANN", "--family", "signgd", "--normalize-relu", "2",
                      "--seed", "-1"], "--seed"),
    "infer-seed": (["infer", "--encoder", "stoch", "--seed", "-1"], "--seed"),
    "energy-seed": (["energy", "--seed", "-1000"], "--seed"),
    "probe-seed": (["probe", "--encoder", "stoch", "--seed", "-1"], "--seed"),
    "convert-normalize-relu": (["convert", "ANN", "--family", "signgd", "--normalize-relu", "-1"],
                               "--normalize-relu"),
}
# the arguments a command of RANGE_ERRORS needs besides the flag under test
# (the others read the converted network and the dataset)
RANGE_INPUTS = {"encode": ["--x", "0.3"], "neuron-sweep": ["--mech", "signgd:relu"],
                "oracle-check": ["--neuron", "signgd:relu"], "convert": []}


@pytest.mark.parametrize("case", list(RANGE_ERRORS))
def test_flag_out_of_range_exits_2(pipeline, capsys, case):
    """A flag out of range ends the command before it writes anything, with
    exit status 2 and one stderr line naming the flag."""
    tmp, _ = pipeline
    assert main(["convert", str(tmp / "ann.json"), "--family", "signgd",
                 "--out", str(tmp / "snn")]) == 0
    save_labels([0, 1, 2], tmp / "short.slbl")  # the dataset holds 6 items
    (command, *flags), flag = RANGE_ERRORS[case]
    flags = [{"TRACE": str(tmp / "trace.csv"), "SHORT": str(tmp / "short.slbl"),
              "ANN": str(tmp / "ann.json")}.get(f, f) for f in flags]
    inputs = RANGE_INPUTS.get(command, [str(tmp / "snn.json"), "--data", str(tmp / "data.sten")])
    out = ([] if command == "oracle-check" else
           ["--report" if command == "infer" else "--out", str(tmp / "out.csv")])
    capsys.readouterr()
    rc = main([command, *inputs, *flags, *out])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"spikeopt {command}: error: {flag} ")
    if flag == "--labels":
        assert "short.slbl" in err and "data.sten" in err
    assert not (tmp / "out.csv").exists() and not (tmp / "trace.csv").exists()


def test_oracle_check_of_a_finite_draw_near_the_float_range_runs(capsys):
    """The largest step sizes whose drawn inputs stay finite still check."""
    assert main(["oracle-check", "--neuron", "signgd:relu", "--schedule", "const:1e150",
                 "--steps", "20"]) == 0
    assert capsys.readouterr().out.endswith("max-deviation=0.000e+00 -> OK\n")


@pytest.mark.parametrize("steps", [20, 500])
@pytest.mark.parametrize("value", ["1", "100", "1e100", "1e150", "1e152", "5e152", "1e153",
                                   "2e153"])
@pytest.mark.parametrize("mech", ORACLE_MECHS)
def test_a_sign_check_near_the_float_range_is_ok_or_rejected(capfd, mech, value, steps):
    """Up to the largest step sizes, a sign check warns of nothing and either
    ends OK or exits 2 with one stderr line naming --schedule, never FAIL:
    drawn inputs whose squares overflow are rejected. const:1e150 runs."""
    rc = main(["oracle-check", "--neuron", f"signgd:{mech}", "--schedule", f"const:{value}",
               "--steps", str(steps)])
    out, err = capfd.readouterr()
    if rc == 0:
        assert out.endswith(" -> OK\n") and err == ""
    else:
        assert value != "1e150"
        assert rc == 2 and out == "" and err.count("\n") == 1 and "--schedule" in err


@pytest.mark.parametrize("command", ["infer", "energy", "probe", "convert"])
def test_data_of_another_width_exits_2(pipeline, capsys, command):
    """`--data` items, or `convert --calib-data` items, that hold more or
    fewer values than the network's input end the command with exit status
    2 and one stderr line naming both sizes."""
    tmp, _ = pipeline
    assert main(["convert", str(tmp / "ann.json"), "--family", "signgd",
                 "--out", str(tmp / "snn")]) == 0
    save_tensor(np.ones((3, 5), dtype=np.float32), tmp / "wide.sten")
    capsys.readouterr()
    if command == "convert":
        argv = ["convert", str(tmp / "ann.json"), "--family", "signgd", "--normalize-relu", "2",
                "--calib-data", str(tmp / "wide.sten"), "--out", str(tmp / "out")]
    else:
        argv = [command, str(tmp / "snn.json"), "--data", str(tmp / "wide.sten"),
                "--report" if command == "infer" else "--out", str(tmp / "out.csv")]
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == 2 and out == "" and err.count("\n") == 1
    assert err.startswith(f"spikeopt {command}: error: ")
    assert "holds 5 values" in err or "(5,)" in err
    assert "takes 8" in err or "(8,)" in err
    assert not list(tmp.glob("out*"))


@pytest.mark.parametrize("command", ["infer", "energy", "probe"])
def test_items_of_any_shape_that_holds_the_input_run(tmp_path, command):
    """Items saved as (3, 2, 2) for a 4-input network give the outputs of the
    same items saved as (3, 4)."""
    save_model(build_mlp(seed=3, dims=(4, 6, 2)), tmp_path / "ann")
    assert main(["convert", str(tmp_path / "ann.json"), "--family", "signgd",
                 "--out", str(tmp_path / "snn")]) == 0
    data = make_rng(5).normal(0, 1, (3, 4))
    save_tensor(data, tmp_path / "flat.sten")
    save_tensor(data.reshape(3, 2, 2), tmp_path / "square.sten")
    out_flag = "--report" if command == "infer" else "--out"
    for name in ("flat", "square"):
        assert main([command, str(tmp_path / "snn.json"), "--data", str(tmp_path / f"{name}.sten"),
                     "--T", "16", out_flag, str(tmp_path / f"{name}.csv")]) == 0
    assert (tmp_path / "square.csv").read_bytes() == (tmp_path / "flat.csv").read_bytes()


@pytest.mark.parametrize("command", ["infer", "energy", "probe", "convert"])
def test_a_rank_0_or_rank_1_tensor_is_one_item(tmp_path, command):
    """A rank-0 or rank-1 `--data` or `--calib-data` tensor is one item: it
    gives the outputs of the same values saved as one (1, size) item.
    Calibration items of any shape that holds the input's values, (3, 2, 2)
    for 4 inputs, convert as their (3, 4) rows do."""
    cases = [((), 1), ((4,), 4)] + ([((3, 2, 2), 4)] if command == "convert" else [])
    for shape, size in cases:
        tmp = tmp_path / f"in{size}_{len(shape)}"
        tmp.mkdir()
        save_model(build_mlp(seed=3, dims=(size, 6, 2)), tmp / "ann")
        assert main(["convert", str(tmp / "ann.json"), "--family", "signgd",
                     "--out", str(tmp / "snn")]) == 0
        data = make_rng(4).uniform(0.5, 2.0, shape).astype(np.float32)
        save_tensor(data, tmp / "given.sten")
        save_tensor(data.reshape(-1, size), tmp / "rows.sten")
        outputs = []
        for name in ("given", "rows"):
            data, out = str(tmp / f"{name}.sten"), str(tmp / f"out_{name}")
            if command == "convert":
                argv = ["convert", str(tmp / "ann.json"), "--family", "signgd",
                        "--normalize-relu", "5", "--calib-data", data, "--out", out]
            else:
                argv = [command, str(tmp / "snn.json"), "--T", "16", "--data", data,
                        "--report" if command == "infer" else "--out", out]
            assert main(argv) == 0
            outputs.append(sorted((p.suffix, p.read_bytes()) for p in tmp.glob(f"out_{name}*")))
        assert outputs[0] == outputs[1] and outputs[0], shape


EMPTY_DATA = {
    "infer": ["infer", "SNN", "--data", "EMPTY", "--labels", "NONE", "--report", "OUT"],
    "energy": ["energy", "SNN", "--data", "EMPTY", "--out", "OUT"],
    "probe": ["probe", "SNN", "--data", "EMPTY", "--out", "OUT"],
    "convert": ["convert", "ANN", "--family", "signgd", "--normalize-relu", "2",
                "--calib-data", "EMPTY", "--out", "OUT"],
}


@pytest.mark.parametrize("case", list(EMPTY_DATA))
def test_a_dataset_with_no_items_exits_2(pipeline, capsys, case):
    """A `--data` or `--calib-data` tensor of no items (with as many labels)
    ends the command with exit status 2 and one stderr line naming the
    flag and the file."""
    tmp, _ = pipeline
    assert main(["convert", str(tmp / "ann.json"), "--family", "signgd",
                 "--out", str(tmp / "snn")]) == 0
    save_tensor(np.zeros((0, 8)), tmp / "empty.sten")
    save_labels([], tmp / "none.slbl")
    files = {"SNN": tmp / "snn.json", "ANN": tmp / "ann.json", "EMPTY": tmp / "empty.sten",
             "NONE": tmp / "none.slbl", "OUT": tmp / "out"}
    capsys.readouterr()
    rc = main([str(files.get(a, a)) for a in EMPTY_DATA[case]])
    out, err = capsys.readouterr()
    flag = "--calib-data" if case == "convert" else "--data"
    assert rc == 2 and out == "" and err.count("\n") == 1
    assert err.startswith(f"spikeopt {case}: error: {flag} ") and "empty.sten" in err
    assert not list(tmp.glob("out*"))


# a name or literal a command does not know: the command, its arguments and
# the flag the error names
BAD_NAMES = {
    "oracle-neuron-mech": (["oracle-check", "--neuron", "signgd:bogus"], "--neuron"),
    "oracle-neuron-kind": (["oracle-check", "--neuron", "bogus"], "--neuron"),
    "oracle-neuron-delta": (["oracle-check", "--neuron", "signgd:leaky:x"], "--neuron"),
    **{f"oracle-neuron-delta-{d}": (["oracle-check", "--neuron", f"signgd:leaky:{d}",
                                     "--schedule", "inv:1"], "--neuron")
       for d in ("nan", "inf", "-inf")},
    **{f"sweep-mech-delta-{d}": (["neuron-sweep", "--mech", f"signgd:leaky:{d}",
                                  "--out", "OUT"], "--mech")
       for d in ("nan", "inf", "-inf")},
    "oracle-schedule": (["oracle-check", "--neuron", "if", "--schedule", "bogus:1"],
                        "--schedule"),
    "oracle-schedule-range": (["oracle-check", "--neuron", "if", "--schedule", "exp:1:2"],
                              "--schedule"),
    "sweep-mech": (["neuron-sweep", "--mech", "bogus", "--out", "OUT"], "--mech"),
    "sweep-schedule": (["neuron-sweep", "--mech", "signgd:relu", "--schedule", "inv",
                        "--out", "OUT"], "--schedule"),
    "encode-schedule": (["encode", "--x", "0.3", "--schedule", "bogus:1", "--out", "OUT"],
                        "--schedule"),
    "convert-schedule": (["convert", "ANN", "--family", "signgd", "--schedule", "bogus:1",
                          "--out", "OUT"], "--schedule"),
}


@pytest.mark.parametrize("case", list(BAD_NAMES))
def test_bad_name_exits_2(pipeline, capsys, case):
    """An unknown neuron, mechanism or schedule ends the command with exit
    status 2 and one stderr line naming the flag, not a traceback."""
    tmp, _ = pipeline
    (command, *args), flag = BAD_NAMES[case]
    args = [{"ANN": str(tmp / "ann.json"), "OUT": str(tmp / "out")}.get(a, a) for a in args]
    rc = main([command, *args])
    out, err = capsys.readouterr()
    assert rc == 2 and out == "" and not list(tmp.glob("out*"))
    assert err.count("\n") == 1 and err.startswith(f"spikeopt {command}: error: {flag}: ")


# every command that takes --schedule, with the family and parameterization
# whose coefficient set it solves; ANN and OUT stand for a model file and an
# output path
SCHEDULE_COMMANDS = [
    ["encode", "--x", "0.3", "--T", "8", "--out", "OUT"],
    ["oracle-check", "--neuron", "if", "--steps", "20"],
    ["oracle-check", "--neuron", "subgrad", "--steps", "20"],
    *(["oracle-check", "--neuron", "signgd:relu", "--steps", "20", "--parameterization", p]
      for p in ("canonical", "unit-current")),
    *(["neuron-sweep", "--mech", "signgd:gelu", "--points", "5", "--T", "8",
       "--parameterization", p, "--out", "OUT"] for p in ("canonical", "unit-current")),
    ["convert", "ANN", "--family", "subgrad", "--out", "OUT"],
    *(["convert", "ANN", "--family", "signgd", "--parameterization", p, "--out", "OUT"]
      for p in ("canonical", "unit-current")),
]
SCHEDULE_VALUES = st.sampled_from(["nan", "inf", "-inf", "0", "-0", "-1", "-2.5", "0.25",
                                   "0.5", "0.9", "0.999", "1", "1.5", "3"])


@pytest.fixture(scope="module")
def ann_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("ann") / "ann"
    save_model(build_mlp(seed=41, dims=(8, 16, 4)), path)
    return path.with_suffix(".json")


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(SCHEDULE_COMMANDS),
       kind=st.sampled_from(["inv", "exp", "const"]), a=SCHEDULE_VALUES, g=SCHEDULE_VALUES)
def test_schedule_is_rejected_when_parsed_or_runs(ann_file, tmp_path_factory,
                                                  command, kind, a, g):
    """A --schedule literal either ends the command with exit status 2 and one
    stderr line naming --schedule, or the command runs and exits 0: a schedule
    its coefficient set cannot use is rejected where the flag is parsed."""
    out = tmp_path_factory.mktemp("out") / "out"
    schedule = f"{kind}:{a}:{g}" if kind == "exp" else f"{kind}:{a}"
    argv = [{"ANN": str(ann_file), "OUT": str(out)}.get(x, x) for x in command]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([*argv, "--schedule", schedule])
    err = err.getvalue()
    if rc == 2:
        assert err.count("\n") == 1
        assert err.startswith(f"spikeopt {command[0]}: error: --schedule: ")
        assert not list(out.parent.iterdir())
    else:
        assert rc == 0 and err == ""


@pytest.mark.parametrize("argv", [
    ["encode", "--x", "0.3", "--schedule", "inv:nan"],
    ["encode", "--x", "0.3", "--schedule", "exp:inf:0.5"],
    ["oracle-check", "--neuron", "subgrad", "--schedule", "const:1"],
    ["oracle-check", "--neuron", "signgd:relu", "--schedule", "const:1",
     "--parameterization", "unit-current"],
], ids=["encode-nan", "encode-inf", "oracle-subgrad-const", "oracle-unit-current-const"])
def test_schedule_the_coefficients_cannot_use_exits_2(tmp_path, capfd, argv):
    out = ["--out", str(tmp_path / "out.csv")] if argv[0] == "encode" else []
    assert main([*argv, *out]) == 2
    err = capfd.readouterr().err
    assert err.count("\n") == 1 and "--schedule" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["oracle-check", "--neuron", "subgrad", "--steps", "20"],
    ["convert", "ANN", "--family", "subgrad", "--out", "OUT"],
], ids=["oracle-check", "convert"])
def test_subgrad_takes_only_the_canonical_parameterization(ann_file, tmp_path, capsys, argv):
    """The subgradient family has one named coefficient set: unit-current
    ends the command with exit status 2 and one stderr line naming
    --schedule, as the sign family's unit-current on inv:1 does."""
    argv = [{"ANN": str(ann_file), "OUT": str(tmp_path / "out")}.get(x, x) for x in argv]
    assert main([*argv, "--parameterization", "unit-current"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and not list(tmp_path.iterdir())
    assert err.startswith(f"spikeopt {argv[0]}: error: --schedule: subgradient coefficients "
                          f"have only the canonical parameterization, not 'unit-current'")


def test_a_converted_network_reloads_under_its_schedule(ann_file, tmp_path, capsys):
    """A converted file holds the schedule of --schedule to the last bit: at
    six significant digits the decay 0.9999999 would read back as 1, a
    constant schedule."""
    flag = "exp:0.9:0.9999999"
    assert main(["convert", str(ann_file), "--family", "signgd", "--schedule", flag,
                 "--out", str(tmp_path / "snn")]) == 0
    assert SnnGraph.load(tmp_path / "snn.json").schedule == parse_schedule(flag)


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    """Per (model, family) of CONFIGS: the saved ANN file, the saved converted
    and calibrated SNN file and a two-item dataset, as (ann, snn, data) paths."""
    root = tmp_path_factory.mktemp("models")
    files = {}
    for model, family in CONFIGS:
        g, base = MODELS[model](), root / f"{model}_{family}"
        save_model(g, f"{base}_ann")
        calibrate(convert(g, family, parse_schedule("inv:1"))).save(f"{base}_snn")
        shape = g.nodes[g.input_id].params["shape"]
        save_tensor(make_rng(3).normal(0, 1, (2, *shape)), f"{base}_data.sten")
        files[model, family] = (Path(f"{base}_ann.json"), Path(f"{base}_snn.json"),
                                Path(f"{base}_data.sten"))
    return files


def replacements(value) -> list:
    """What a model file's value is replaced with: a wrong type (a string,
    or a list for a string, and an object), zero, a negative number, NaN, a
    JSON true and, for a list, the list one short and one long."""
    out = [["x"] if isinstance(value, str) else "x", {}, 0, -1, -2.5, math.nan, True]
    if isinstance(value, list) and value:
        out += [value[:-1], value + value[-1:]]
    return out


def downstream(manifest, node_id) -> set:
    """The ids of node `node_id` and of every node its output reaches."""
    reached, todo = set(), [node_id]
    while todo:
        nid = todo.pop()
        if nid not in reached:
            reached.add(nid)
            todo += [d for s, d, _ in manifest["edges"] if s == nid]
    return reached


@settings(max_examples=400, deadline=None)
@given(config=st.sampled_from(CONFIGS), snn_file=st.booleans(), data=st.data())
def test_a_model_with_one_value_dropped_or_replaced_exits_cleanly(
        model_files, tmp_path_factory, config, snn_file, data):
    """Drop any one key from any node's params or tensors of a saved ANN or SNN
    file, or replace its value, or the shape of one of its tensors, with a
    value of `replacements`: `convert` (ANN) or `infer` (SNN) exits 0, or
    exits 2 with one stderr line naming the node or a node its output
    reaches; a missing or malformed value is never a traceback."""
    ann, snn, dataset = model_files[config]
    src = snn if snn_file else ann
    manifest = json.loads(src.read_text())
    places = [(node, section, key) for node in manifest["nodes"]
              for section in ("params", "tensors", "shape")
              for key in node["tensors" if section == "shape" else section]]
    node, section, key = data.draw(st.sampled_from(places))
    if section == "shape":  # the shape of the tensor entry the node names
        entry = manifest["tensors"][node["tensors"][key]]
        entry["shape"] = data.draw(st.sampled_from(replacements(entry["shape"])))
    else:
        value = data.draw(st.sampled_from(["drop", *replacements(node[section][key])]))
        if value == "drop":
            del node[section][key]
        else:
            node[section][key] = value
    tmp = tmp_path_factory.mktemp("edited")
    (tmp / "m.json").write_text(json.dumps(manifest))
    shutil.copy(src.with_suffix(".bin"), tmp / "m.bin")
    argv = (["infer", str(tmp / "m.json"), "--data", str(dataset), "--T", "4",
             "--report", str(tmp / "acc.csv")] if snn_file else
            ["convert", str(tmp / "m.json"), "--family", config[1], "--out", str(tmp / "snn")])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    err = err.getvalue()
    assert rc in (0, 2), err
    if rc == 2:
        assert err.count("\n") == 1 and err.startswith(f"spikeopt {argv[0]}: error: ")
        assert any(repr(nid) in err for nid in downstream(manifest, node["id"])), err
    else:
        assert err == ""


def edited_meta(snn, tmp, key, value):
    """A copy of the SNN file `snn` in `tmp` with its meta `key` dropped
    (value "drop") or set to `value`; returns the copy's manifest path."""
    manifest = json.loads(snn.read_text())
    if value == "drop":
        del manifest["meta"][key]
    else:
        manifest["meta"][key] = value
    (tmp / "m.json").write_text(json.dumps(manifest))
    shutil.copy(snn.with_suffix(".bin"), tmp / "m.bin")
    return tmp / "m.json"


@settings(max_examples=120, deadline=None)
@given(config=st.sampled_from(CONFIGS),
       key=st.sampled_from(["family", "schedule", "parameterization", "kind"]), data=st.data())
def test_an_snn_file_with_one_meta_value_dropped_or_replaced_exits_cleanly(
        model_files, tmp_path_factory, config, key, data):
    """Drop the SNN file's meta `family`, `schedule`, `parameterization` or
    `kind`, or replace it with a value of `replacements`, a schedule that
    needs eta(1) >= 1 in the subgrad family (inv:2) or a parameterization the
    file's inv:1 cannot take (unit-current): `infer` exits 0, or exits 2 with
    one stderr line; bad meta is never a traceback."""
    _, snn, dataset = model_files[config]
    value = json.loads(snn.read_text())["meta"][key]
    extra = {"schedule": ["inv:2"], "parameterization": ["unit-current"]}.get(key, [])
    value = data.draw(st.sampled_from(["drop", *replacements(value), *extra]))
    tmp = tmp_path_factory.mktemp("meta")
    argv = ["infer", str(edited_meta(snn, tmp, key, value)), "--data", str(dataset),
            "--T", "4", "--report", str(tmp / "acc.csv")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    err = err.getvalue()
    assert rc in (0, 2), err
    if rc == 2:
        assert err.count("\n") == 1 and err.startswith("spikeopt infer: error: "), err
    else:
        assert err == ""


@pytest.mark.parametrize("command", ["infer", "energy", "probe"])
@pytest.mark.parametrize("family,key,value,reason", [
    ("subgrad", "schedule", "inv:2", "subgradient coefficients need eta(t) < 1"),
    ("subgrad", "schedule", "const:1", "subgradient coefficients need eta(t) < 1"),
    ("signgd", "parameterization", "unit-current",
     "unit-current parameterization requires an exponential schedule"),
    ("signgd", "parameterization", "bogus", "unknown parameterization 'bogus'"),
    ("signgd", "parameterization", 3, "unknown parameterization 3"),
    *(("subgrad", "parameterization", value, "subgradient coefficients have only the "
       f"canonical parameterization, not {value!r}")
      for value in ("unit-current", "bogus", 3, {})),
])
def test_meta_whose_coefficient_set_cannot_be_solved_exits_2(
        model_files, tmp_path, capsys, command, family, key, value, reason):
    """A converted file whose meta names a coefficient set the network's
    family cannot solve ends the command before it writes anything, with
    exit status 2 and one stderr line naming the file, family, schedule and
    parameterization."""
    _, snn, dataset = model_files["mlp", family]
    path = edited_meta(snn, tmp_path, key, value)
    meta = json.loads(path.read_text())["meta"]
    out = tmp_path / "out.csv"
    rc = main([command, str(path), "--data", str(dataset), "--T", "4",
               "--report" if command == "infer" else "--out", str(out)])
    stdout, err = capsys.readouterr()
    assert (rc, stdout) == (2, "")
    assert err.startswith(f"spikeopt {command}: error: {path}: {family} network under schedule "
                          f"{meta['schedule']}, parameterization {meta['parameterization']!r}: "
                          f"{reason}")
    assert err.count("\n") == 1 and not out.exists()


def run_outputs(snn, dataset, tmp):
    """What `infer` (report and run trace), `energy` and dense `probe` write
    and print for the SNN file `snn` on `dataset`, as bytes per output."""
    outputs = {}
    for command, flags in (("infer", ["--report", "acc.csv", "--run-trace", "trace.csv"]),
                           ("energy", ["--out", "energy.csv"]),
                           ("probe", ["--dense-trace", "--out", "probe.csv"])):
        files = [f for f in flags if f.endswith(".csv")]
        flags = [str(tmp / f) if f in files else f for f in flags]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main([command, str(snn), "--data", str(dataset), "--T", "8",
                         "--encoder", "stoch", *flags]) == 0
        outputs[command] = stdout.getvalue()
        outputs.update((f, (tmp / f).read_bytes()) for f in files)
    return outputs


@pytest.fixture(scope="module")
def intact_outputs(model_files, tmp_path_factory):
    """`run_outputs` of each config's intact SNN file, computed once."""
    cache = {}

    def outputs(config):
        if config not in cache:
            _, snn, dataset = model_files[config]
            cache[config] = run_outputs(snn, dataset, tmp_path_factory.mktemp("intact"))
        return cache[config]
    return outputs


@settings(max_examples=60, deadline=None)
@given(config=st.sampled_from(CONFIGS), data=st.data())
def test_stored_calibration_records_are_never_read(model_files, intact_outputs,
                                                   tmp_path_factory, config, data):
    """The key-dropping property above, carried to outputs for the records
    an instance computes itself: drop any of the cal_w and cal_b records of a
    saved SNN file, or give any of them another shape of at most as many
    values, and `infer`, `energy` and `probe` write and print, byte for byte,
    what they do for the intact file."""
    _, snn, dataset = model_files[config]
    manifest = json.loads(snn.read_text())
    records = [(node, key) for node in manifest["nodes"] for key in node["tensors"]
               if key in ("cal_w", "cal_b")]
    picked = data.draw(st.lists(st.sampled_from(records), min_size=1, unique_by=id))
    for node, key in picked:
        entry = manifest["tensors"][node["tensors"][key]]
        if data.draw(st.booleans()):
            del node["tensors"][key]
        else:
            k = data.draw(st.integers(0, math.prod(entry["shape"])))
            entry["shape"] = data.draw(st.sampled_from([[k], [1, k], [k, 1], *([[]] * (k == 1))]))
    tmp = tmp_path_factory.mktemp("edited")
    (tmp / "m.json").write_text(json.dumps(manifest))
    shutil.copy(snn.with_suffix(".bin"), tmp / "m.bin")
    assert run_outputs(tmp / "m.json", dataset, tmp) == intact_outputs(config)


@pytest.fixture(scope="module")
def move_files(tmp_path_factory):
    """A (2, 3) input moved by transpose `t`, reshape `r` and gather `g` into
    a 6-4-2 ReLU MLP: the saved ANN file, its converted SNN file (which keeps
    the three moves) and a two-item dataset, as (ann, snn, data) paths."""
    root = tmp_path_factory.mktemp("moves")
    rng = make_rng(5)
    nodes = [Node("in", "input", {"shape": [2, 3]}), Node("t", "transpose", {"perm": [1, 0]}),
             Node("r", "reshape", {"shape": [6]}),
             Node("g", "gather", {"indices": [5, 4, 3, 2, 1, 0]}),
             dense_node(rng, "fc0", 6, 4), Node("act", "relu", {}),
             dense_node(rng, "fc1", 4, 2), Node("out", "output", {})]
    save_model(Graph(nodes, chain_edges([n.id for n in nodes])), root / "ann")
    assert main(["convert", str(root / "ann.json"), "--family", "signgd",
                 "--out", str(root / "snn")]) == 0
    save_tensor(make_rng(3).normal(0, 1, (2, 2, 3)), root / "data.sten")
    return root / "ann.json", root / "snn.json", root / "data.sten"


# node -> the fields its manifest entry gets, for a move that does not fit
# its input (a 2x3 frame, then 6 values) or indices that are not integers
MISFITS = {
    "gather-99": ("g", {"params": {"indices": [99, 4, 3, 2, 1, 0]}}),
    "gather-negative": ("g", {"params": {"indices": [5, 4, 3, 2, 1, -1]}}),
    "gather-float": ("g", {"params": {"indices": [1.5, 4, 3, 2, 1, 0]}}),
    "gather-true": ("g", {"params": {"indices": [True, 4, 3, 2, 1, 0]}}),
    "reshape-size": ("r", {"params": {"shape": [5]}}),
    "transpose-repeated": ("t", {"params": {"perm": [0, 0]}}),
    "transpose-rank": ("t", {"params": {"perm": [0]}}),
    "transpose-axis": ("t", {"params": {"perm": [1, 2]}}),
    "maxpool-not-chw": ("t", {"kind": "maxpool2d", "params": {"kernel": [1, 1]}}),
    "avgpool-not-chw": ("t", {"kind": "avgpool2d", "params": {"kernel": [1, 1]}}),
}
# a converted file cannot hold pooling, so those cases only reach `convert`
MISFIT_RUNS = [(case, command) for case in MISFITS
               for command in ("convert", "infer", "energy", "probe")
               if command == "convert" or "pool" not in case]


@pytest.mark.parametrize("case,command", MISFIT_RUNS)
def test_a_move_that_does_not_fit_its_input_exits_2(move_files, tmp_path, capsys, case,
                                                    command):
    """A gather, reshape, transpose or pooling whose parameters do not fit its
    input, and a gather index that is not an integer, end `convert` (ANN
    file) and `infer`, `energy` and `probe` (SNN file) with exit status 2 and
    one stderr line naming the node, not a numpy traceback."""
    ann, snn, dataset = move_files
    src = ann if command == "convert" else snn
    manifest = json.loads(src.read_text())
    node_id, fields = MISFITS[case]
    next(n for n in manifest["nodes"] if n["id"] == node_id).update(fields)
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    shutil.copy(src.with_suffix(".bin"), tmp_path / "m.bin")
    out = tmp_path / "out.csv"
    flags = {"convert": ["--family", "signgd", "--out", str(tmp_path / "snn")],
             "infer": ["--data", str(dataset), "--report", str(out)],
             "energy": ["--data", str(dataset), "--out", str(out)],
             "probe": ["--data", str(dataset), "--out", str(out)]}[command]
    capsys.readouterr()
    rc = main([command, str(tmp_path / "m.json"), *flags])
    stdout, err = capsys.readouterr()
    assert rc == 2 and stdout == "" and err.count("\n") == 1, err
    assert err.startswith(f"spikeopt {command}: error: ") and repr(node_id) in err
    assert not out.exists() and not (tmp_path / "snn.json").exists()


# node of the conftest CNN -> the params its manifest entry gets: pooling
# kernels and strides and conv2d strides must be two ints >= 1, and conv2d
# paddings two ints >= 0
BAD_GEOMETRY = {
    "pool-kernel-short": ("pool", {"kernel": [2]}),
    "pool-kernel-float": ("pool", {"kernel": [1.5, 2]}),
    "pool-kernel-true": ("pool", {"kernel": [True, 2]}),
    "pool-stride-zero": ("pool", {"kernel": [2, 2], "stride": [0, 2]}),
    "avgpool-stride-long": ("pool", {"kernel": [2, 2], "stride": [2, 2, 2]}),
    "conv-stride-zero": ("conv", {"stride": [0, 1], "padding": [0, 0]}),
    "conv-padding-float": ("conv", {"stride": [1, 1], "padding": [1.5, 0]}),
    "conv-padding-negative": ("conv", {"stride": [1, 1], "padding": [-1, 0]}),
}


@pytest.mark.parametrize("case", BAD_GEOMETRY)
def test_malformed_geometry_exits_2_naming_the_node(model_files, tmp_path, capsys, case):
    """`convert` of an ANN file with a malformed kernel, stride or padding
    exits 2 with one stderr line naming the node and the key, not a numpy or
    arithmetic traceback and not an error about a node further on."""
    ann = model_files["cnn", "signgd"][0]
    manifest = json.loads(ann.read_text())
    node_id, params = BAD_GEOMETRY[case]
    node = next(n for n in manifest["nodes"] if n["id"] == node_id)
    node["params"] = params
    if case.startswith("avgpool"):
        node["kind"] = "avgpool2d"
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    shutil.copy(ann.with_suffix(".bin"), tmp_path / "m.bin")
    capsys.readouterr()
    rc = main(["convert", str(tmp_path / "m.json"), "--family", "signgd",
               "--out", str(tmp_path / "snn")])
    stdout, err = capsys.readouterr()
    assert rc == 2 and stdout == "" and err.count("\n") == 1, err
    key = case.split("-")[1]
    assert err.startswith(f"spikeopt convert: error: node {node_id!r} ") and key in err, err
    assert not (tmp_path / "snn.json").exists()


def test_a_batchnorm_of_another_width_exits_2_naming_it(tmp_path, capsys):
    """A batch norm whose tensors hold another number of channels than its
    producer has outputs ends `convert` with exit status 2 and one stderr
    line naming it, not a numpy traceback from the fold."""
    g = MODELS["bn_mlp"]()
    g.nodes["bn"].params.update({k: np.ones(13) for k in ("gamma", "beta", "mean", "var")})
    save_model(g, tmp_path / "m")
    capsys.readouterr()
    assert main(["convert", str(tmp_path / "m.json"), "--family", "signgd",
                 "--out", str(tmp_path / "snn")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("spikeopt convert: error: batchnorm 'bn' ")


def test_normalize_relu_names_a_batchnorm_of_another_width(tmp_path, capsys):
    """`--normalize-relu` folds batch norms before it runs the ANN, so a
    batch norm of another width exits 2 naming it, as plain `convert` does."""
    g = MODELS["bn_mlp"]()
    bn = g.nodes["bn"].params
    bn.update({k: bn[k][:5] for k in ("gamma", "beta", "mean", "var")})
    save_model(g, tmp_path / "m")
    capsys.readouterr()
    assert main(["convert", str(tmp_path / "m.json"), "--family", "signgd",
                 "--normalize-relu", "4", "--out", str(tmp_path / "snn")]) == 2
    assert capsys.readouterr().err == ("spikeopt convert: error: batchnorm 'bn' has 5 channels "
                                       "but its producer 'fc0' has 12\n")


def test_normalize_relu_converts_a_batch_normed_net(tmp_path):
    """A ReLU behind a batch norm is normalized on the folded net, and the
    loaded network's reference forward stays within the 1e-6 transform
    bound of the source ANN."""
    g = MODELS["bn_mlp"]()
    save_model(g, tmp_path / "m")
    assert main(["convert", str(tmp_path / "m.json"), "--family", "signgd",
                 "--normalize-relu", "4", "--out", str(tmp_path / "snn")]) == 0
    snn = SnnGraph.load(tmp_path / "snn")
    assert snn.graph.nodes["act"].params["m_f"] > 0
    for x in make_rng(5).normal(0, 1, (20, 8)):
        err = np.abs(run_forward(snn.graph, x)["out"] - run_forward(g, x)["out"]).max()
        assert err <= 1e-6, err


def two_operand_net(kind, a, b):
    """in(4) -> dense fa (a outputs) and dense fb (b outputs) -> node "x" of
    `kind`, fa on port 0 and fb on port 1 -> output."""
    rng = make_rng(12)
    nodes = [Node("in", "input", {"shape": [4]}), dense_node(rng, "fa", 4, a),
             dense_node(rng, "fb", 4, b), Node("x", kind, {}), Node("out", "output", {})]
    return Graph(nodes, [("in", "fa", 0), ("in", "fb", 0), ("fa", "x", 0), ("fb", "x", 1),
                         ("x", "out", 0)])


def layer_misfit_net(kind, weight, bias):
    """in(4) -> node "x" of `kind` with `weight` and `bias` -> relu -> dense -> output."""
    rng = make_rng(13)
    nodes = [Node("in", "input", {"shape": [4]}),
             Node("x", kind, {"weight": weight, "bias": bias}), Node("act", "relu", {}),
             dense_node(rng, "fc", 3, 2), Node("out", "output", {})]
    return Graph(nodes, chain_edges([n.id for n in nodes]))


# an ANN whose operands do not fit a node -> the flags `convert` takes
OPERAND_MISFITS = {
    "add": (lambda: two_operand_net("add", 3, 5), []),
    "max2": (lambda: two_operand_net("max2", 3, 5), []),
    "mul_inv_sqrt": (lambda: two_operand_net("mul_inv_sqrt", 3, 2), []),
    "dense-bias": (lambda: layer_misfit_net("dense", np.ones((3, 4)), np.zeros(2)),
                   ["--normalize-relu", "1"]),
    "affine-fan-in": (lambda: layer_misfit_net("affine", np.ones((3, 5)), np.zeros(3)),
                      ["--normalize-relu", "1"]),
}


@pytest.mark.parametrize("case", OPERAND_MISFITS)
def test_operands_that_do_not_fit_their_node_exit_2_naming_it(tmp_path, capsys, case):
    """An add, max2 or mul_inv_sqrt whose operands do not broadcast, and a
    dense or affine node whose bias or input does not fit its weight (found
    by the ANN run of `--normalize-relu`), end `convert` with exit status 2
    and one stderr line naming the node, not a numpy traceback."""
    build, flags = OPERAND_MISFITS[case]
    save_model(build(), tmp_path / "m")
    capsys.readouterr()
    rc = main(["convert", str(tmp_path / "m.json"), "--family", "signgd", *flags,
               "--out", str(tmp_path / "snn")])
    stdout, err = capsys.readouterr()
    assert rc == 2 and stdout == "" and err.count("\n") == 1, err
    assert err.startswith("spikeopt convert: error: ") and "'x'" in err, err
    assert not (tmp_path / "snn.json").exists()


def test_a_manifest_that_is_not_utf8_exits_2(tmp_path, capsys):
    """A converted manifest with the byte 0xff at offset 10, which no UTF-8
    text holds, ends `infer` with exit status 2 and one stderr line naming
    the manifest, not a UnicodeDecodeError traceback."""
    save_model(MODELS["mlp"](), tmp_path / "ann")
    assert main(["convert", str(tmp_path / "ann.json"), "--family", "signgd",
                 "--out", str(tmp_path / "snn")]) == 0
    manifest = bytearray((tmp_path / "snn.json").read_bytes())
    manifest[10] = 0xFF
    (tmp_path / "snn.json").write_bytes(manifest)
    save_tensor(make_rng(4).normal(0, 1, (2, 8)), tmp_path / "data.sten")
    capsys.readouterr()
    rc = main(["infer", str(tmp_path / "snn.json"), "--data", str(tmp_path / "data.sten"),
               "--report", str(tmp_path / "acc.csv")])
    stdout, err = capsys.readouterr()
    assert rc == 2 and stdout == "" and err.count("\n") == 1, err
    assert err.startswith("spikeopt infer: error: ") and str(tmp_path / "snn.json") in err, err
    assert not (tmp_path / "acc.csv").exists()


def test_probe_of_a_neuron_count_its_operands_do_not_fit_exits_2(tmp_path, capsys):
    """A converted conftest mlp whose act0 says count 5 (and shape [5]) for
    its 16 currents ends `probe` as it ends `infer`: exit status 2 and one
    stderr line naming the node and the sizes."""
    save_model(MODELS["mlp"](), tmp_path / "ann")
    assert main(["convert", str(tmp_path / "ann.json"), "--family", "signgd",
                 "--out", str(tmp_path / "snn")]) == 0
    manifest = json.loads((tmp_path / "snn.json").read_text())
    next(n for n in manifest["nodes"] if n["id"] == "act0")["params"].update(
        count=5, shape=[5])
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    shutil.copy(tmp_path / "snn.bin", tmp_path / "m.bin")
    save_tensor(make_rng(4).normal(0, 1, (2, 8)), tmp_path / "data.sten")
    out = tmp_path / "out.csv"
    for command, flag in (("infer", "--report"), ("probe", "--out")):
        capsys.readouterr()
        rc = main([command, str(tmp_path / "m.json"), "--data", str(tmp_path / "data.sten"),
                   flag, str(out)])
        stdout, err = capsys.readouterr()
        assert rc == 2 and stdout == "" and err == (
            f"spikeopt {command}: error: node 'act0' (neuron) has count 5 but operands "
            f"of sizes [16]\n"), err
        assert not out.exists()


def test_a_max2_whose_first_operand_broadcasts_converts(tmp_path, capsys):
    """A max2 of one value against three is a numpy broadcast: it converts
    to a 3-neuron layer, the network runs, and its reference forward stays
    within the 1e-6 transform bound of the source's."""
    g = two_operand_net("max2", 1, 3)
    save_model(g, tmp_path / "m")
    assert main(["convert", str(tmp_path / "m.json"), "--family", "signgd",
                 "--out", str(tmp_path / "snn")]) == 0
    snn = SnnGraph.load(tmp_path / "snn")
    assert snn.graph.nodes["x"].params["count"] == 3
    data = make_rng(6).normal(0, 1, (3, 4))
    save_tensor(data, tmp_path / "data.sten")
    assert main(["infer", str(tmp_path / "snn.json"), "--data", str(tmp_path / "data.sten"),
                 "--T", "8", "--report", str(tmp_path / "acc.csv")]) == 0
    for x in data:
        err = np.abs(run_forward(snn.graph, x)["out"] - run_forward(g, x)["out"]).max()
        assert err <= 1e-6, err


@pytest.mark.parametrize("flag,value", [("--points", "0"), ("--points", "-2"), ("--T", "0")])
def test_sweep_points_and_steps_must_be_at_least_one(tmp_path, capsys, flag, value):
    out = tmp_path / "s.csv"
    rc = main(["neuron-sweep", "--mech", "signgd:relu", "--points", "5", "--T", "4", flag, value,
               "--out", str(out)])
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err == (
        f"spikeopt neuron-sweep: error: {flag} must be >= 1, got {value}\n")


# one valid argument list per subcommand; the files need not exist, since
# these tests stop at parsing
VALID_ARGS = {
    "encode": ["--x", "0.3", "--out", "t.csv"],
    "oracle-check": ["--neuron", "if"],
    "neuron-sweep": ["--mech", "signgd:relu", "--out", "s.csv"],
    "convert": ["ann.json", "--family", "signgd", "--out", "snn"],
    "infer": ["snn.json", "--data", "d.sten", "--report", "acc.csv"],
    "probe": ["snn.json", "--data", "d.sten", "--out", "p.csv"],
    "energy": ["snn.json", "--data", "d.sten", "--out", "e.csv"],
}


def _exit(parse, argv, capsys):
    """(exit status, stdout, stderr) of a parse that ends the program."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


class TestParser:
    """main() builds only the invoked subcommand's parser; what it prints and
    how it exits must be what the fully built parser gives."""

    @pytest.mark.parametrize("command", list(VALID_ARGS))
    @pytest.mark.parametrize("tail", [["--help"], [], ["--T", "abc"], ["--bogus"]],
                             ids=["help", "missing", "bad-value", "unrecognized"])
    def test_subcommand_help_and_errors_match_the_full_parser(self, command, tail, capsys):
        argv = [command, *(VALID_ARGS[command] if tail == ["--bogus"] else []), *tail]
        full = _exit(lambda a: cli.build_parser().parse_args(a), argv, capsys)
        assert _exit(main, argv, capsys) == full
        assert full[0] == (0 if tail == ["--help"] else 2)

    @pytest.mark.parametrize("argv", [["--help"], [], ["bogus"], ["-h", "infer"], ["--x", "1"]],
                             ids=["help", "no-command", "unknown", "help-first", "option-first"])
    def test_top_level_help_and_errors_match_the_full_parser(self, argv, capsys):
        full = _exit(lambda a: cli.build_parser().parse_args(a), argv, capsys)
        assert _exit(main, argv, capsys) == full

    def test_main_builds_only_the_invoked_subcommand(self, monkeypatch, tmp_path):
        built, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda command=None: built.append(command) or build(command))
        assert main(["encode", "--x", "0.3", "--T", "4", "--out", str(tmp_path / "t.csv")]) == 0
        assert built == ["encode"]

    def test_module_entry_point_reads_sys_argv(self, tmp_path):
        src = str(Path(spikeopt.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = tmp_path / "t.csv"
        run = subprocess.run([sys.executable, "-m", "spikeopt.cli", "encode", "--x", "0.3",
                              "--T", "4", "--out", str(out)],
                             capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout == f"wrote 4 steps to {out}\n"
        assert len(read_csv(out)) == 5
        run = subprocess.run([sys.executable, "-m", "spikeopt.cli", "encode"],
                             capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 2
        assert "the following arguments are required: --x, --out" in run.stderr
