"""Smoke test of the benchmark: one traced round of each workload.

A traced round wraps every library attribute that ``perfbench/tracing.py``
names and checks every output, so it fails as soon as one of those names
or an output the benchmark checks goes away, not only when the benchmark
itself is next run.  Traces go to ``perfbench/out/``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["fem3", "wide", "verify", "classify"])
def test_one_traced_round(workload):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    argv = ["--workload", workload, "--seed", "0", "--rounds", "1", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True, report["problems"]
    assert report["rounds"] == 1 and report["ops"] > 0
