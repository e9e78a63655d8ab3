"""Measurement loop, output checks and metrics of the spikeopt benchmark.

Network workloads drive the public CLI: `spikeopt convert` (set-up), then
rounds of `infer`, `energy` and `probe` on the converted files. The
oracle-replay workload runs rounds of `spikeopt oracle-check`. Every command
goes through `spikeopt.cli.main(argv)` in this process, and every output is
checked; a failed check counts against `attempted`. Beyond format and
determinism, network outputs are checked against independent references:
the ANN (argmax agreement and readout error within the workload's limits)
and the spikes and readouts recorded in reference.json.

End-to-end numbers come from untraced rounds. With `--trace 1`, rounds
alternate untraced and traced, and the traced ones give the per-layer split
(see tracing.py) and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import spikeopt
from spikeopt import cli
from spikeopt import engine
from spikeopt.engine import ann_forward
from spikeopt.graph import (
    SnnGraph,
    calibrate,
    convert,
    load_model,
    load_tensor,
    normalize_relu,
    save_labels,
    save_model,
    save_tensor,
)
from spikeopt.schedules import (
    parse_schedule,
    solve_signgd_coefficients,
    solve_subgrad_coefficients,
    validate_signgd_coefficients,
    validate_subgrad_coefficients,
)

import tracing
from workloads import SMOKE_SIZES, WORKLOADS

# Independent statement of the energy contract: N_SOP = spikes, E = N_SOP * E_SOP.
E_SOP_PJ = {"signgd": 1.8, "subgrad": 0.9}
DEVIATION_LIMIT = 1e-9
ORACLE_SETUP_PASSES = 20  # one oracle set-up pass takes about 1 ms
# setup_s is reported in yardstick runs converted to seconds at this nominal
# yardstick time (about its median on a 2-CPU Xeon host with numpy 2.4).
YARD_NOMINAL_S = 2.0e-3
MIN_TIMED_ROUNDS = 3
# Every network workload runs T steps under this schedule.
SCHEDULE = "inv:1"
T = 64
# Reference outputs of this benchmark's networks at REFERENCE_SEED, through
# the CLI, written by make_reference.py. Each run checks that the program
# still gives them, up to a few threshold flips: floating-point changes of
# 1e-8 relative (the float32 calibration round trip) flip up to 3 spikes and
# move a readout(T) by up to 0.01.
REFERENCE_FILE = Path(__file__).resolve().with_name("reference.json")
REFERENCE_SEED = 0
SPIKE_FLIPS = 3
SPIKES_RTOL = 1e-4
READOUT_ATOL = 0.02

# The end-to-end metrics the table prints, with units. Those named in
# BENCHMARK.json are the ones that apply to every workload.
E2E_UNITS = {
    "setup_s": "s",
    "setup_raw_s": "s",
    "cli_steps_per_ref": "steps/ref",
    "cli_steps_per_s": "steps/s",
    "infer_item_steps_per_s": "item*steps/s",
    "energy_item_steps_per_s": "item*steps/s",
    "probe_steps_per_s": "steps/s",
    "oracle_steps_per_s": "neuron*steps/s",
    "argmax_agree": "fraction",
    "readout_err": "abs",
    "energy_pj_per_item": "pJ",
    "save_load_drift": "abs",
    "fail_frac": "fraction",
    "peak_rss_mb": "MiB",
}
JSON_E2E = ("setup_s", "cli_steps_per_ref", "peak_rss_mb")


class CheckFailed(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


class Checks:
    """Counts attempted and failed output checks; a failure never aborts the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    @contextlib.contextmanager
    def attempt(self, what):
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # a failed command or check is a result, not a crash
            self.failed += 1
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")


def run_cli(argv, tracer=None):
    """Run one CLI command in-process; returns (exit status, wall s, stdout)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.call(f"cli.{argv[0]}", cli.main, argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    return rc, time.perf_counter() - t0, buf.getvalue()


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def checkpoints(T):
    """Powers of two up to T, plus T: the rows infer and probe must report."""
    pts = {T}
    p = 1
    while p <= T:
        pts.add(p)
        p *= 2
    return sorted(pts)


def digest(*paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


_YARD_W = np.random.default_rng(0).normal(0.0, 0.125, (64, 64))


def yardstick() -> float:
    """Seconds for one fixed run of a Python-level loop over small numpy ops
    and a 64x64 matvec: the unit `ref` of the normalized throughput.

    Machine speed on a shared host drifts by tens of percent over seconds to
    minutes. The yardstick is sampled just before every timed command and
    set-up, and each of those is measured against its own sample, so
    throughput and set-up time in yardstick runs stay comparable between
    runs and commits where raw seconds do not.
    """
    t0 = time.perf_counter()
    x = np.linspace(-1.0, 1.0, 64)
    for _ in range(250):
        y = np.where(x > 0.0, x, 0.1 * x)
        x = np.tanh(_YARD_W @ y) * 0.5 + float(y.sum()) * 1e-3
    return time.perf_counter() - t0


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


class Round:
    """The timed commands of one round: (command, its argv, steps, wall
    seconds, yardstick seconds sampled just before the command)."""

    def __init__(self):
        self.calls = []
        self._last = None

    def cli(self, argv, tracer=None):
        self._last = (tuple(argv), yardstick())
        return run_cli(argv, tracer)

    def add(self, cmd, steps, wall):
        argv, yard = self._last
        self.calls.append((cmd, argv, steps, wall, yard))

    def rate(self, cmd=None):
        """Steps per wall second of one command kind; without `cmd`, the
        geometric mean over command kinds, so each command moves it by the
        same share whatever its step count."""
        if cmd is None:
            return geomean(self.rate(c) for c in dict.fromkeys(c[0] for c in self.calls))
        calls = [c for c in self.calls if c[0] == cmd]
        return sum(c[2] for c in calls) / sum(c[3] for c in calls)


def steps_per_ref(rounds):
    """Geometric mean over the distinct commands a round runs (the same
    argv) of the median over rounds of steps per yardstick run, each call
    against its own yardstick sample. Every command kind runs on every net,
    so each kind carries the same weight."""
    per_call = {}
    for r in rounds:
        for _, argv, steps, wall, yard in r.calls:
            per_call.setdefault(argv, []).append(steps * yard / wall)
    return geomean(statistics.median(v) for v in per_call.values())


# ---------------------------------------------------------------------------
# Network workloads: convert -> infer / energy / probe
# ---------------------------------------------------------------------------


class NetWorkload:
    def __init__(self, wl, work: Path, seed: int, smoke: bool, checks: Checks):
        self.wl = wl
        self.work = work
        self.seed = seed
        self.smoke = smoke
        self.checks = checks
        self.items = SMOKE_SIZES["items"] if smoke else wl.items
        self.T = SMOKE_SIZES["T"] if smoke else T
        self.state = {net.name: {} for net in wl.nets}
        self.first_outputs = {}
        self.quality = {}

    def _path(self, net, suffix):
        return str(self.work / f"{net.name}{suffix}")

    def generate(self):
        """Write the seeded model, dataset and ANN-argmax labels of each net."""
        rng = np.random.default_rng(self.seed)
        for net in self.wl.nets:
            g = net.build(rng, self.smoke)
            save_model(g, self._path(net, ".json"))
            shape = tuple(g.nodes[g.input_id].params["shape"])
            x = net.inputs(rng, self.items, shape)
            save_tensor(x, self._path(net, ".sten"))
            # references use the float32-stored inputs and weights the CLI reads
            ann, _ = load_model(self._path(net, ".json"))
            x32 = x.astype(np.float32).astype(np.float64)
            logits = np.stack([ann_forward(ann, xi)[ann.output_id].reshape(-1) for xi in x32])
            save_labels(np.argmax(logits, axis=1), self._path(net, ".slbl"))
            self.state[net.name]["ann_logits0"] = logits[0]

    def setup_once(self, tracer=None) -> float:
        """convert (with --normalize-relu where used) + save + one SnnGraph.load."""
        total = 0.0
        for net in self.wl.nets:
            st = self.state[net.name]
            stem = self._path(net, "_snn")
            argv = ["convert", self._path(net, ".json"), "--family", net.family,
                    "--schedule", SCHEDULE, "--seed", str(self.seed), "--out", stem]
            if net.normalize_relu:
                argv += ["--normalize-relu", str(net.normalize_relu),
                         "--calib-data", self._path(net, ".sten")]
            with self.checks.attempt(f"{net.name} convert"):
                rc, wall, _ = run_cli(argv, tracer)
                require(rc == 0, f"exit status {rc}")
                t0 = time.perf_counter()
                snn = SnnGraph.load(stem + ".json")
                wall += time.perf_counter() - t0
                total += wall
                require(snn.calibrated, "loaded network is not calibrated")
                require(snn.family == net.family, f"family {snn.family!r}")
                layers = [n.id for n in snn.neuron_nodes()]
                require(layers, "no neuron layers")
                files = digest(stem + ".json", stem + ".bin")
                require(st.setdefault("snn_digest", files) == files,
                        "convert output differs from the first set-up")
                st["layers"] = layers
                st["neurons"] = sum(n.params["count"] for n in snn.neuron_nodes())
                st["n_out"] = int(np.asarray(snn.graph.nodes[snn.graph.output_id]
                                             .params["cal_b"]).size)
                st["model_bytes"] = sum(os.path.getsize(stem + s) for s in (".json", ".bin"))
        return total

    def _same_as_first(self, key, *paths):
        d = digest(*paths)
        require(self.first_outputs.setdefault(key, d) == d,
                f"{key} output differs from the first round (not deterministic)")

    def round(self, tracer=None) -> Round:
        rnd = Round()
        T, items, seed = self.T, self.items, str(self.seed)
        for net in self.wl.nets:
            st = self.state[net.name]
            snn = self._path(net, "_snn.json")
            data = self._path(net, ".sten")
            run_flags = ["--T", str(T), "--encoder", net.encoder, "--seed", seed]

            report, trace = self._path(net, "_acc.csv"), self._path(net, "_trace.csv")
            with self.checks.attempt(f"{net.name} infer"):
                rc, wall, _ = rnd.cli(["infer", snn, "--data", data, "--labels",
                                       self._path(net, ".slbl"), *run_flags,
                                       "--report", report, "--run-trace", trace,
                                       "--index", "0"], tracer)
                require(rc == 0, f"exit status {rc}")
                rnd.add("infer", items * T, wall)
                acc, final = self._check_infer(st, report, trace)
                self._same_as_first(f"{net.name} infer", report, trace)
                self.quality.setdefault(net.name, {}).update(
                    acc=acc, readout=final,
                    readout_err=float(np.max(np.abs(final - st["ann_logits0"]))))

            out = self._path(net, "_energy.csv")
            with self.checks.attempt(f"{net.name} energy"):
                rc, wall, _ = rnd.cli(["energy", snn, "--data", data, *run_flags,
                                       "--out", out], tracer)
                require(rc == 0, f"exit status {rc}")
                rnd.add("energy", items * T, wall)
                spikes, energy = self._check_energy(st, net.family, out)
                self._same_as_first(f"{net.name} energy", out)
                self.quality[net.name].update(spikes=spikes, energy_pj=energy)

            out = self._path(net, "_probe.csv")
            with self.checks.attempt(f"{net.name} probe"):
                rc, wall, _ = rnd.cli(["probe", snn, "--data", data, "--index", "0",
                                       *run_flags, "--out", out], tracer)
                require(rc == 0, f"exit status {rc}")
                rnd.add("probe", T, wall)
                self._check_probe(st, out)
                self._same_as_first(f"{net.name} probe", out)
        return rnd

    def _check_infer(self, st, report, trace):
        marks = checkpoints(self.T)
        rows = read_csv(report)
        require(rows[0] == ["T", "acc"], f"report header {rows[0]}")
        require([int(r[0]) for r in rows[1:]] == marks, "report checkpoint rows")
        accs = [float(r[1]) for r in rows[1:]]
        require(all(0.0 <= a <= 1.0 for a in accs), "accuracy outside [0, 1]")
        rows = read_csv(trace)
        n_out = st["n_out"]
        require(rows[0] == ["t", "class"] + [f"logit{k}" for k in range(n_out)],
                f"run-trace header {rows[0]}")
        require([int(r[0]) for r in rows[1:]] == marks, "run-trace checkpoint rows")
        for r in rows[1:]:
            logits = [float(v) for v in r[2:]]
            require(all(math.isfinite(v) for v in logits), "non-finite readout")
            require(logits[int(r[1])] == max(logits), f"class {r[1]} is not the argmax")
        return accs[-1], np.array([float(v) for v in rows[-1][2:]])

    def measure_drift(self):
        """Save/load drift per net: max |CLI run-trace readout r(T) - the
        readout of the in-memory library network| for item 0, with the same
        model file, T, encoder and seed. The CLI network went through
        `SnnGraph.save`/`load`, which store `cal_w`/`cal_b` as float32 while
        calibration runs in float64 (ROADMAP item 4); with an exact round
        trip it reads at most the 8 significant digits of the run-trace CSV."""
        for net in self.wl.nets:
            g, _ = load_model(self._path(net, ".json"))
            data = load_tensor(self._path(net, ".sten"))
            if net.normalize_relu:
                g = normalize_relu(g, [data[i] for i in
                                       range(min(net.normalize_relu, data.shape[0]))])
            snn = calibrate(convert(g, net.family, parse_schedule(SCHEDULE)))
            ref = engine.run(snn, data[0], self.T, encoder=net.encoder, seed=self.seed)[-1]
            q = self.quality[net.name]
            q["drift"] = float(np.max(np.abs(q["readout"] - ref)))

    def _check_energy(self, st, family, path):
        rows = read_csv(path)
        require(rows[0] == ["neurons", "spikes", "fr", "n_sop", "energy_pj"],
                f"energy header {rows[0]}")
        require(len(rows) == 2, "energy report needs exactly one data row")
        row = rows[1]
        neurons, spikes, n_sop = int(row[0]), int(row[1]), int(row[3])
        fr, energy = float(row[2]), float(row[4])
        require(neurons == st["neurons"], f"neurons {neurons} != {st['neurons']}")
        require(n_sop == spikes, f"n_sop {n_sop} != spikes {spikes}")
        expect = spikes * E_SOP_PJ[family]
        require(abs(energy - expect) <= 5e-5 + 1e-12 * expect,
                f"energy_pj {energy} != spikes x E_SOP = {expect}")
        expect_fr = spikes / (self.T * self.items * neurons)
        require(abs(fr - expect_fr) <= 5e-7 + 1e-12, f"fr {fr} != {expect_fr}")
        return spikes, energy

    def _check_probe(self, st, path):
        rows = read_csv(path)
        require(rows[0] == ["layer", "t", "err"], f"probe header {rows[0]}")
        seen = {(r[0], int(r[1])) for r in rows[1:]}
        want = {(lid, t) for lid in st["layers"] + ["readout"] for t in checkpoints(self.T)}
        require(seen == want and len(rows) - 1 == len(want), "probe rows")
        errs = [float(r[2]) for r in rows[1:]]
        require(all(math.isfinite(e) and e >= 0.0 for e in errs), "probe error not finite")

    def _ann_quality(self):
        q = self.quality.values()
        # mean agreement over every item of every net; worst net's readout
        return (sum(v["acc"] for v in q) / len(self.quality),
                max(v["readout_err"] for v in q))

    def verify(self):
        """Checks after the timed rounds: agreement with the ANN within the
        workload's limits (full sizes; at smoke sizes, T=8 on 2 items, the
        network has not converged), and the reference outputs at
        REFERENCE_SEED. Also measures the save/load drift (not a check)."""
        with self.checks.attempt("in-memory library run"):
            self.measure_drift()
        if not self.smoke:
            with self.checks.attempt("agreement with the ANN"):
                agree, err = self._ann_quality()
                require(agree >= self.wl.min_agree,
                        f"argmax_agree {agree} < {self.wl.min_agree}")
                require(err <= self.wl.max_readout_err,
                        f"readout_err {err} > {self.wl.max_readout_err}")
        want = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))[
            reference_key(self.wl, self.smoke)]
        got = reference_outputs(self.wl, self.work / "reference", self.smoke, self.checks)
        for name, ref in want.items():
            with self.checks.attempt(f"{name} reference outputs"):
                out = got[name]
                require(abs(out["spikes"] - ref["spikes"])
                        <= max(SPIKE_FLIPS, SPIKES_RTOL * ref["spikes"]),
                        f"spikes {out['spikes']} != reference {ref['spikes']}")
                dev = float(np.max(np.abs(np.subtract(out["readout"], ref["readout"]))))
                require(dev <= READOUT_ATOL, f"readout(T) differs from reference by {dev}")

    def e2e(self, rounds):
        items_total = self.items * len(self.wl.nets)
        q = self.quality.values()
        agree, err = self._ann_quality()
        return {
            "infer_item_steps_per_s": [r.rate("infer") for r in rounds],
            "energy_item_steps_per_s": [r.rate("energy") for r in rounds],
            "probe_steps_per_s": [r.rate("probe") for r in rounds],
            "argmax_agree": agree,
            "readout_err": err,
            "energy_pj_per_item": sum(v["energy_pj"] for v in q) / items_total,
            "save_load_drift": max((v["drift"] for v in q if "drift" in v), default=None),
        }

    def per_net(self):
        return {name: {k: q.get(k) for k in ("acc", "readout_err", "drift", "spikes")}
                for name, q in self.quality.items()}

    @property
    def model_bytes(self):
        return sum(st.get("model_bytes", 0) for st in self.state.values())


def reference_key(wl, smoke):
    return f"{wl.name}-smoke" if smoke else wl.name


def reference_outputs(wl, work: Path, smoke: bool, checks: Checks) -> dict:
    """Total spikes of `energy` and item 0's readout(T) from `infer
    --run-trace`, per net, for the workload generated at REFERENCE_SEED."""
    work.mkdir()
    runner = NetWorkload(wl, work, REFERENCE_SEED, smoke, checks)
    runner.generate()
    runner.setup_once()
    runner.round()
    return {name: {"spikes": q["spikes"], "readout": q["readout"].tolist()}
            for name, q in runner.quality.items() if "spikes" in q}


# ---------------------------------------------------------------------------
# oracle-replay: single neurons against their optimizer forms
# ---------------------------------------------------------------------------


class OracleWorkload:
    def __init__(self, wl, work: Path, seed: int, smoke: bool, checks: Checks):
        self.wl = wl
        self.seed = seed
        self.checks = checks
        self.steps = SMOKE_SIZES["oracle_steps"] if smoke else wl.oracle_steps
        self.setup_passes = 1 if smoke else ORACLE_SETUP_PASSES
        self.model_bytes = 0

    def generate(self):
        """Inputs are drawn inside oracle-check from its --seed argument."""

    def setup_once(self, tracer=None) -> float:
        """Coefficient solve and validation for every checked configuration;
        returns the mean seconds per pass over all configurations."""
        ok = []
        t0 = time.perf_counter()
        for _ in range(self.setup_passes):
            for neuron, sched, param in self.wl.oracle_checks:
                s = parse_schedule(sched)
                if neuron.startswith("signgd"):
                    c = solve_signgd_coefficients(s, param)
                    ok.append(validate_signgd_coefficients(c, s, t_max=64, tol=1e-9))
                elif neuron == "subgrad":
                    c = solve_subgrad_coefficients(s)
                    ok.append(validate_subgrad_coefficients(c, s, t_max=32))
        wall = (time.perf_counter() - t0) / self.setup_passes
        with self.checks.attempt("coefficient validation"):
            require(all(ok), f"validation failed for {ok}")
        return wall

    def round(self, tracer=None) -> Round:
        rnd = Round()
        for k, (neuron, sched, param) in enumerate(self.wl.oracle_checks):
            with self.checks.attempt(f"oracle-check {neuron} {sched}"):
                rc, wall, out = rnd.cli(
                    ["oracle-check", "--neuron", neuron, "--schedule", sched,
                     "--parameterization", param, "--steps", str(self.steps),
                     "--seed", str(self.seed * 100 + k)], tracer)
                require(rc == 0 and out.rstrip().endswith("-> OK"),
                        f"exit status {rc}: {out.strip()}")
                dev = float(out.split("max-deviation=")[1].split()[0])
                require(dev <= DEVIATION_LIMIT, f"deviation {dev}")
                rnd.add("oracle-check", self.steps, wall)
        return rnd

    def verify(self):
        """Every oracle-check output is checked against its oracle in round()."""

    def e2e(self, rounds):
        return {"oracle_steps_per_s": [r.rate("oracle-check") for r in rounds]}

    def per_net(self):
        return {}


# ---------------------------------------------------------------------------
# Run facts, metrics and output
# ---------------------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def run_facts(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {v: os.environ.get(v, "unset") for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "SNN_THREADS": os.environ.get("SNN_THREADS", "unset (CLI default: 1 worker)"),
    }


def _summary(values):
    if len(values) < 2:
        return {"median": values[0], "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer_metrics(runner, rt: tracing.Tracer, both: tracing.Tracer, plain, traced):
    """Per-layer split: per-step figures from the traced rounds (rt), per-call
    figures from the traced rounds and set-ups together (both)."""
    steps = rt.count(tracing.STEP) + sum(rt.count(f"oracles.{o}") for o in tracing.ORACLES)

    def per_step(x):
        return x / steps

    def per_call_ms(tr, name):
        n = tr.count(name)
        return tr.total_us(name) / n / 1e3 if n else 0.0

    m = {}
    for kind in tracing.NODE_KINDS:
        name = f"graph.model.node_forward.{kind}"
        m[f"{name}.us_per_step"] = (per_step(rt.total_us(name, tracing.STEP)), "us")
    name = "graph.model.predecessors"
    m[f"{name}.calls_per_step"] = (per_step(rt.count(name, tracing.STEP)), "count")
    m[f"{name}.us_per_step"] = (per_step(rt.total_us(name, tracing.STEP)), "us")
    m["engine.step.self_us_per_step"] = (per_step(rt.self_us(tracing.STEP)), "us")
    for cls, mech in tracing.NEURONS:
        name = f"neurons.{cls}.{mech}"
        m[f"{name}.us_per_step"] = (per_step(rt.total_us(name)), "us")
        m[f"{name}.spikes_per_step"] = (per_step(rt.work[name]), "count")
    for name in ("schedules.Schedule", "schedules.coefficients"):
        m[f"{name}.calls_per_step"] = (per_step(rt.count(name)), "count")
        m[f"{name}.us_per_step"] = (per_step(rt.total_us(name)), "us")
    for cls in tracing.ENCODERS:
        m[f"codec.{cls}.us_per_step"] = (per_step(rt.total_us(f"codec.{cls}")), "us")
    for cls in tracing.ORACLES:
        m[f"oracles.{cls}.us_per_step"] = (per_step(rt.total_us(f"oracles.{cls}")), "us")
    m["engine.instance_init_ms"] = (per_call_ms(rt, "engine.instance_init"), "ms")
    for name in tracing.TRANSFORMS:
        m[f"graph.transforms.{name}_ms"] = (per_call_ms(both, f"graph.transforms.{name}"), "ms")
    for name in tracing.IO_CALLS:
        m[f"graph.io.{name}_ms"] = (per_call_ms(both, f"graph.io.{name}"), "ms")
    m["graph.io.model_bytes"] = (float(runner.model_bytes), "bytes")
    for cmd in tracing.COMMANDS:
        name = f"cli.{cmd}"
        n, total = both.count(name), both.total_us(name)
        m[f"{name}.self_ms"] = (both.self_us(name) / n / 1e3 if n else 0.0, "ms")
        m[f"{name}.child_share"] = (both.child_us(name) / total if total else 0.0, "fraction")
    untraced = statistics.median([r.rate() for r in plain])
    traced_rate = statistics.median([r.rate() for r in traced])
    m["trace.untraced_steps_per_s"] = (untraced, "steps/s")
    m["trace.traced_steps_per_s"] = (traced_rate, "steps/s")
    m["trace.overhead_frac"] = (1.0 - traced_rate / untraced, "fraction")
    return m


def parse_args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, minimum rounds")
    return p.parse_args(argv)


def main(argv, root: Path) -> int:
    args = parse_args(argv)
    src = (root / "src").resolve()
    if src not in Path(spikeopt.__file__).resolve().parents:
        raise SystemExit(f"error: imported spikeopt from {spikeopt.__file__}, not {src}")
    wl = WORKLOADS[args.workload]
    work = root / ".bench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True)
    try:
        report = measure(wl, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    report["facts"] = run_facts(args)
    print_report(report, args)
    print(json.dumps(report["result"]))
    return 0


def measure(wl, args, work: Path) -> dict:
    checks = Checks()
    kind = NetWorkload if wl.nets else OracleWorkload
    runner = kind(wl, work, args.seed, args.smoke, checks)
    runner.generate()
    st, rt = tracing.Tracer(), tracing.Tracer()

    def complete(round_fn, *args):
        """Run a round; keep it only if every command in it passed."""
        failed = checks.failed
        rnd = round_fn(*args)
        return [rnd] if checks.failed == failed else []

    # Set-up samples are interleaved with the rounds, so slow drifts in
    # machine speed reach set-up and throughput alike.
    setup = [(yardstick(), runner.setup_once())]  # (yardstick s, set-up s)
    runner.round()  # warm-up: checked, not timed
    plain, traced = [], []
    min_rounds = 1 if args.smoke else MIN_TIMED_ROUNDS
    deadline = time.perf_counter() + args.seconds
    attempts = 0
    while time.perf_counter() < deadline or (
            attempts < 4 * min_rounds
            and (len(plain) < min_rounds or (args.trace and len(traced) < min_rounds))):
        attempts += 1
        if args.trace and len(traced) < len(plain):
            with tracing.instrumented(st):
                runner.setup_once(st)
            with tracing.instrumented(rt):
                traced += complete(runner.round, rt)
        else:
            setup.append((yardstick(), runner.setup_once()))
            plain += complete(runner.round)
    if not plain or (args.trace and not traced):
        raise SystemExit("error: no round passed every output check:\n"
                         + "\n".join(checks.errors[:10]))

    yard = statistics.median(c[4] for r in plain for c in r.calls)
    e2e = {"setup_s": statistics.median(s / y for y, s in setup) * YARD_NOMINAL_S,
           "setup_raw_s": [s for _, s in setup],
           "cli_steps_per_ref": steps_per_ref(plain),
           "cli_steps_per_s": [r.rate() for r in plain]}
    runner.verify()
    e2e.update(runner.e2e(plain))
    e2e["fail_frac"] = checks.failed / checks.attempted
    e2e["peak_rss_mb"] = peak_rss_mb()
    table = {}
    for name, unit in E2E_UNITS.items():
        v = e2e.get(name)
        table[name] = {"unit": unit, **(_summary(v) if isinstance(v, list) else {"value": v})}

    spans = tracing.Tracer()
    spans.merge(st)
    spans.merge(rt)
    if args.trace:
        layers = per_layer_metrics(runner, rt, spans, plain, traced)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": table[k].get("median", table[k].get("value")),
                       "unit": table[k]["unit"]} for k in JSON_E2E}
    return {
        "workload": {"name": wl.name, "why": wl.why, "loads": wl.loads, "steady": wl.steady},
        "end_to_end": table,
        "per_layer": metrics if args.trace else {},
        "spans": [list(r) for r in spans.rows()],
        "per_net": runner.per_net(),
        "errors": checks.errors,
        "yardstick_s": yard,
        "result": {
            "correct": checks.failed == 0,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": metrics,
        },
    }


def print_report(report, args):
    print("facts " + json.dumps(report["facts"], sort_keys=True))
    print("workload " + json.dumps(report["workload"]))
    print(f"yardstick {report['yardstick_s'] * 1e3:.4f} ms (median; 1 ref = one run)")
    for err in report["errors"]:
        print(f"FAILED {err}")
    for name, q in report["per_net"].items():
        print(f"net {name:12s} " + " ".join(f"{k}={v:.6g}" for k, v in (
            ("argmax_agree", q["acc"]), ("readout_err", q["readout_err"]),
            ("save_load_drift", q["drift"]), ("spikes", q["spikes"])) if v is not None))
    if args.trace:
        print(f"{'span':48s} {'parent':32s} {'count':>9s} {'total_ms':>10s} {'self_ms':>10s}")
        for name, parent, n, tot, own in report["spans"]:
            print(f"{name:48s} {parent:32s} {n:9d} {tot:10.2f} {own:10.2f}")
        for name, m in report["per_layer"].items():
            print(f"layer {name:52s} {m['value']:14.6g} {m['unit']}")
        return
    for name, m in report["end_to_end"].items():
        if m.get("value", 0) is None:  # the metric does not apply to this workload
            print(f"metric {name:26s} {'n/a':>14s} {m['unit']}")
        elif "median" in m:
            spread = f"  q1={m['q1']:.6g} q3={m['q3']:.6g}" if "q1" in m else ""
            print(f"metric {name:26s} {m['median']:14.6g} {m['unit']}  "
                  f"(median of n={m['n']}{spread})")
        else:
            print(f"metric {name:26s} {m['value']:14.6g} {m['unit']}")
