"""Alternated benchmark pairs of two checkouts, one workload at a time.

    python tests/bench_pairs.py A B --workload W --pairs N --seconds S --seed K

Runs `bench/run.py --workload W --seed K --seconds S --trace 0` in checkout A
(the baseline) and in checkout B, N times each, as N pairs whose first run
alternates: A then B in pair 1, B then A in pair 2, and so on, so a slow
drift of the machine reaches both sides alike. Each run is its own process,
started in its checkout's root. For every end-to-end metric of the run's
last output line, and `fail_frac` (failed over attempted checks), it prints
every run's value per side, both medians and quartiles, A's interquartile
range, the median change, the pairs in which B is better, and B's median
gain in the better direction (negative for a loss) beside A's IQR. Which
way is better comes from A's BENCHMARK.json (`end_to_end`); a metric it
does not list is printed without a pairs count.

It reads the checkouts and changes nothing in them but the scratch folder a
bench run makes and removes itself. Exits 1 if any run failed or reported an
incorrect output, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, args) -> dict:
    """One bench run in `checkout`: its result line, parsed."""
    argv = [sys.executable, "bench/run.py", "--workload", args.workload, "--seed",
            str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        print(f"run in {checkout} exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def values(result: dict) -> dict:
    """metric -> value of one run, `fail_frac` included."""
    out = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    if result.get("attempted"):
        out["fail_frac"] = result["failed"] / result["attempted"]
    return out


def quartiles(xs: list) -> tuple:
    """(q1, median, q3), as the bench summarizes its samples."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def better_ways(checkout: Path) -> dict:
    """metric -> "higher" or "lower", from the checkout's BENCHMARK.json."""
    path = checkout / "BENCHMARK.json"
    spec = json.loads(path.read_text()) if path.is_file() else {}
    ways = {m["name"]: m["better"] for m in spec.get("end_to_end", [])}
    ways.setdefault("fail_frac", "lower")
    return ways


def report(runs: dict, ways: dict) -> list[str]:
    """The lines printed per metric; `runs` holds each side's per-run values."""
    lines = []
    names = sorted({k for side in runs.values() for r in side for k in r})
    for name in names:
        a = [r.get(name) for r in runs["A"]]
        b = [r.get(name) for r in runs["B"]]
        if None in a or None in b:
            lines.append(f"{name}: missing from some runs")
            continue
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        way = ways.get(name)
        change = f"{(bm - am) / am * 100:+.2f}%" if am else "n/a"
        lines += [f"{name}" + (f" ({way} is better)" if way else ""),
                  "  A runs: " + " ".join(f"{v:.6g}" for v in a),
                  "  B runs: " + " ".join(f"{v:.6g}" for v in b),
                  f"  A median {am:.6g} [{a1:.6g}, {a3:.6g}]  IQR {a3 - a1:.6g}",
                  f"  B median {bm:.6g} [{b1:.6g}, {b3:.6g}]  change {change}"]
        if way:
            won = sum(y > x if way == "higher" else y < x for x, y in zip(a, b))
            gain = bm - am if way == "higher" else am - bm
            lines.append(f"  B better in {won} of {len(a)} pairs; median gain {gain:+.6g} "
                         f"against A's IQR {a3 - a1:.6g}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a", type=Path, help="baseline checkout")
    p.add_argument("b", type=Path, help="checkout under test")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    sides = {"A": args.a.resolve(), "B": args.b.resolve()}
    runs, ok = {"A": [], "B": []}, True
    for i in range(args.pairs):
        for side in ("AB" if i % 2 == 0 else "BA"):
            result = run_once(sides[side], args)
            ok &= bool(result.get("correct"))
            runs[side].append(values(result))
            print(f"pair {i + 1} {side}: " + " ".join(
                f"{k}={v:.6g}" for k, v in sorted(runs[side][-1].items())), flush=True)
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s; A = {sides['A']}, B = {sides['B']}")
    print("\n".join(report(runs, better_ways(sides["A"]))))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
