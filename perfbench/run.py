#!/usr/bin/env python3
"""Benchmark of the rpolar library: four workloads, each in fresh processes.

    python3 perfbench/run.py --workload fem3 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload runs in a fresh
single-threaded Python process (BLAS threads pinned to 1) that imports the
library from ``src/``.  With ``--trace 0`` the last line of output is one
JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics from a traced run and the tracing overhead against an
untraced run of the same rounds.  Without ``--workload`` every workload
runs in turn and the metrics are prefixed with the workload name.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("fem3", "wide", "verify", "classify")
# Extra fresh processes that only set up, half before the measuring
# process and half after it, so that a slow spell of the host does not
# meet them all; with the measuring process they give eleven set-up
# samples, of which the median is reported.
SETUP_PROBES = 10
# A worker that runs longer than this is stopped and the run fails.
WORKER_TIMEOUT_S = 170
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all four)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0, help="length of the measured phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def worker(workload: str, seed: int, seconds: float, *extra: str) -> dict:
    env = dict(os.environ, **PINNED)
    env.pop("PYTHONPATH", None)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), *extra,
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    def probe() -> float:
        return worker(workload, seed, seconds, "--setup-only")["setup_s"]

    setups = [probe() for _ in range(SETUP_PROBES // 2)]
    rep = worker(workload, seed, seconds)
    setups += [rep["setup_s"]] + [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    rep["metrics"] = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (rep["ops_per_s"], "1/s"),
        "op_p50_ms": (rep["op_p50_ms"], "ms"),
        "peak_rss_mb": (rep["peak_rss_mb"], "MiB"),
    }
    return rep


def per_layer(workload: str, seed: int, seconds: float) -> dict:
    # An untraced run before and one after the traced run, on the same
    # rounds and so the same operations in the same order.  Each traced call
    # is compared with the mean of its two untraced twins, and the median
    # ratio is the overhead: a drift of the host's speed cancels, and a
    # slow spell in one run moves only the calls it met.
    before = worker(workload, seed, seconds)
    rounds = ("--rounds", str(before["rounds"]))
    rep = worker(workload, seed, seconds, "--trace", "1", *rounds)
    after = worker(workload, seed, seconds, *rounds)
    metrics = dict(rep.pop("layers"))
    ratios = [2.0 * t / (b + a) for t, b, a in zip(rep["times"], before["times"], after["times"], strict=True)]
    overhead = (statistics.median(ratios) - 1.0) * 100.0
    metrics[tracing.OVERHEAD] = (overhead, "%")
    rep["metrics"] = metrics
    return rep


def describe(rep: dict) -> None:
    print(
        f"# {rep['workload']}: seed {rep['seed']}, {rep['rounds']} rounds, "
        f"{rep['attempted']} attempted, {rep['failed']} failed {rep['failed_kinds']}, "
        f"{rep['call_s']:.2f} s in calls, {rep['phase_s']:.2f} s in the phase, {rep['wall_s']:.2f} s measured"
    )
    for problem in rep["problems"]:
        print(f"#   WRONG {problem}")
    for name, (value, unit) in rep["metrics"].items():
        print(f"{rep['workload']:<9} {name:<42} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rpolar" / "__init__.py").is_file():
        print(f"error: no rpolar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    names = [args.workload] if args.workload else list(WORKLOADS)
    reports = []
    for name in names:
        rep = measure(name, args.seed, args.seconds)
        if not reports:
            print(f"# python {sys.version.split()[0]}, numpy {rep['numpy']}, {rep['blas']}, "
                  f"BLAS threads {rep['blas_threads']}")
        describe(rep)
        reports.append(rep)
    OUT.mkdir(exist_ok=True)
    tag = args.workload or "all"
    with open(OUT / f"result-{tag}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(reports, fh, indent=1)

    prefix = len(reports) > 1
    metrics = {
        (f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": u}
        for r in reports
        for k, (v, u) in r["metrics"].items()
    }
    correct = all(r["correct"] for r in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    # A wrong output fails the run itself, after the result is printed.
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
