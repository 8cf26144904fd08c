#!/usr/bin/env python3
"""Builds the WLQ program and its benchmark, runs one workload, and compares
sets of runs.

Run from the repository root:

    python3 wlqbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out DIR]
    python3 wlqbench/run.py sweep --workloads a,b --seeds 1-10 [--seconds S] [--trace 0|1] --out DIR
    python3 wlqbench/run.py compare <base-dir> <change-dir>

A run prints, as its last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`, and writes a result file with
provenance and every sample under the output directory (default
`wlqbench/out`). Exit codes: 0 all answers correct, 1 an answer disagreed
with the oracle, 2 the run could not be made.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_OUT = BENCH_DIR / "out"
SPEC = BENCH_DIR.parent / "BENCHMARK.json"


def fail(msg):
    print(f"wlqbench: {msg}", file=sys.stderr)
    sys.exit(2)


def target_dir(root):
    return Path(os.environ.get("CARGO_TARGET_DIR") or root / ".bench_build").resolve()


def build(root):
    """Builds the `wlq` binary and the benchmark in release mode."""
    if not (root / "Cargo.toml").is_file() or not (root / "crates").is_dir():
        fail(f"{root} is not a checkout of the WLQ workspace")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir(root)))
    steps = [
        ["cargo", "build", "--release", "--offline", "--bin", "wlq"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(BENCH_DIR / "Cargo.toml")],
    ]
    for cmd in steps:
        # Cargo reports progress on stderr; keep stdout for the result line.
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = target_dir(root) / "release"
    return release / "wlq", release / "wlqbench"


def provenance(root):
    def first_line(cmd):
        try:
            out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
        return out.stdout.strip().splitlines()[0] if out.returncode == 0 and out.stdout.strip() else "unknown"

    return first_line(["git", "rev-parse", "HEAD"]), first_line(["rustc", "--version"])


def run_one(root, wlq, bench, workload, seed, seconds, trace, out, rev, rustc, capture=False):
    out.mkdir(parents=True, exist_ok=True)
    cmd = [
        str(bench), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--wlq", str(wlq), "--out", str(out), "--rev", rev, "--rustc", rustc,
    ]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE if capture else None, text=True)


def cmd_run(argv):
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--out", type=Path, default=DEFAULT_OUT)
    a = p.parse_args(argv)
    root = Path.cwd()
    wlq, bench = build(root)
    rev, rustc = provenance(root)
    proc = run_one(root, wlq, bench, a.workload, a.seed, a.seconds, a.trace, a.out.resolve(), rev, rustc)
    return proc.returncode


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median (the run-to-run spread the acceptance check uses)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def cmd_sweep(argv):
    p = argparse.ArgumentParser(prog="run.py sweep")
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", type=Path, required=True)
    a = p.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    seconds = a.seconds or spec["run_seconds"]
    root = Path.cwd()
    wlq, bench = build(root)
    rev, rustc = provenance(root)
    status = 0
    for workload in a.workloads.split(","):
        values = {}
        for seed in parse_seeds(a.seeds):
            proc = run_one(root, wlq, bench, workload, seed, seconds, a.trace, a.out.resolve(), rev, rustc, True)
            line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(line)
            if proc.returncode != 0 or not result.get("correct"):
                status = 1
            for name, m in result.get("metrics", {}).items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {len(parse_seeds(a.seeds))} runs")
        for name, vals in values.items():
            print(f"  {name:<28} median {statistics.median(vals):>14.4f}  spread {spread(vals):7.2%}")
    return status


def load_runs(directory):
    """Untraced result files of a directory, by workload and seed."""
    runs = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        r = json.loads(path.read_text())
        runs.setdefault(r["workload"], {})[r["seed"]] = r
    return runs


def verdict(base, change, better, bound):
    """Classifies one workload x metric by the pairing rules of the
    choosing-metrics guide, section 8.

    `base` and `change` are per-run values paired by index. Returns the
    verdict and the pair win ratio of the change.
    """
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    win_ratio = wins / len(base) if base else 0.0
    med_b, med_c = statistics.median(base), statistics.median(change)
    q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else (med_b, med_b, med_b)
    worse_by = sign * (med_b - med_c) / med_b if med_b else 0.0
    if win_ratio >= 0.9 and abs(med_c - med_b) > (q3 - q1):
        return "gain", win_ratio
    every_better = all(sign * (c - b) > 0 for c in change for b in base)
    if spread(base) > bound and not every_better:
        return "unresolved", win_ratio
    if worse_by > bound:
        return "regression", win_ratio
    return "no change", win_ratio


def cmd_compare(argv):
    p = argparse.ArgumentParser(prog="run.py compare")
    p.add_argument("base", type=Path)
    p.add_argument("change", type=Path)
    a = p.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    base, change = load_runs(a.base), load_runs(a.change)
    regressions = 0
    gated = [w["name"] for w in spec["workloads"]]
    for workload in gated + sorted(set(base) - set(gated)):
        b_runs, c_runs = base.get(workload, {}), change.get(workload, {})
        seeds = sorted(set(b_runs) & set(c_runs))
        if not seeds:
            continue
        print(f"{workload} ({len(seeds)} paired seeds)")
        print(f"  {'metric':<18} {'base median [q1, q3]':>36} {'change median [q1, q3]':>36} {'wins':>6}  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [b_runs[s]["result"]["metrics"][name]["value"] for s in seeds]
            cv = [c_runs[s]["result"]["metrics"][name]["value"] for s in seeds]
            v, wins = verdict(bv, cv, m["better"], m["bound"])
            regressions += v == "regression"

            def fmt(vals):
                q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
                return f"{statistics.median(vals):.4g} [{q[0]:.4g}, {q[2]:.4g}]"

            print(f"  {name:<18} {fmt(bv):>36} {fmt(cv):>36} {wins:>6.0%}  {v}")
    return 1 if regressions else 0


def main(argv):
    if argv[:1] == ["compare"]:
        return cmd_compare(argv[1:])
    if argv[:1] == ["sweep"]:
        return cmd_sweep(argv[1:])
    return cmd_run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
