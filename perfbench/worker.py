"""One workload in one fresh process: set up, measure, check, report.

Started by run.py with the BLAS thread count pinned to 1.  Imports the
library from ``src/`` of the checkout this file sits in, times the import
and the warm-up, then runs whole rounds of operations in a closed loop
(one caller; each call issued when the previous one returned and its
output was checked).  Only the calls are timed.  Prints one JSON object as
its last line of output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
BENCHMARK = HERE.parent / "BENCHMARK.json"
MAX_PROBLEMS = 5
WARMUP_SEED = 20160629


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--rounds", type=int, default=0, help="run exactly this many rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", dest="setup_only")
    return p.parse_args(argv)


def import_library():
    sys.path.insert(0, str(SRC))
    import rpolar
    import rpolar.cli  # noqa: F401  (the cli module is not imported by the package)

    location = Path(rpolar.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise SystemExit(f"rpolar was imported from {location}, not from {SRC}")
    return rpolar


def layer_metrics(tracer, ops: int) -> dict:
    """Per-layer figures of the traced run, one per ``per_layer`` entry of BENCHMARK.json.

    A name ending in ``.self_s`` reads the self time of that span, a ratio
    reads two counters, and any other name reads one counter (span call
    counts are counters too).  A unit ending in ``/op`` is divided by the
    number of completed operations.
    """
    self_s = tracer.self_times()
    out = {}
    for metric in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]:
        name, unit = metric["name"], metric["unit"]
        if name == tracing.OVERHEAD:
            continue
        span, _, field = name.rpartition(".")
        if field == "self_s" and span in tracing.SPANS:
            value = self_s.get(span, 0.0)
        elif name in tracing.RATIOS:
            num, den = (tracer.counts[c] for c in tracing.RATIOS[name])
            value = num / den if den else 0.0
        elif name in tracer.counts:
            value = tracer.counts[name]
        else:
            raise SystemExit(f"per-layer metric {name} of BENCHMARK.json is not recorded by the tracer")
        if unit.endswith("/op"):
            value /= max(ops, 1)
        out[name] = (value, unit)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    rpolar = import_library()
    import_s = time.perf_counter() - t0

    import numpy as np

    import workloads
    from checks import CheckFailed

    cls = workloads.WORKLOADS[args.workload]
    index = list(workloads.WORKLOADS).index(args.workload)
    # Warm-up inputs do not depend on the seed, so set-up time does not either.
    warm = cls(rpolar, np.random.default_rng([WARMUP_SEED, index]))
    warm_ops = warm.warmup()
    warm_s = 0.0
    for op in warm_ops:
        t = time.perf_counter()
        op.call()
        warm_s += time.perf_counter() - t
    setup_s = import_s + warm_s
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    workload = cls(rpolar, np.random.default_rng([args.seed, index]), tracer)
    if tracer is not None:
        tracer.install(rpolar)

    times: list[float] = []
    attempted = failed = rounds = 0
    failed_kinds: dict[str, int] = {}
    by_kind: dict[str, list] = {}
    problems: list[str] = []
    n_problems = 0
    # Making a round's inputs and checking outputs are timed and taken out
    # of the phase's wall time; freeing results and the loop stay in it.
    # Each round is a window: ops_per_s is the median over rounds of the
    # operations a round completed over its phase time, so that a few
    # seconds in which the host runs slow move it little.
    untimed_s = 0.0
    rates: list[float] = []
    start = time.perf_counter()
    while True:
        round_start, round_untimed, round_ops = time.perf_counter(), untimed_s, len(times)
        ops = workload.round()
        untimed_s += time.perf_counter() - round_start
        for op in ops:
            attempted += 1
            t = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # the operation failed; keep measuring
                failed += 1
                failed_kinds[op.kind] = failed_kinds.get(op.kind, 0) + 1
                print(f"{op.kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            t_check = time.perf_counter()
            dt = t_check - t
            times.append(dt)
            kind = by_kind.setdefault(op.kind, [0, 0.0])
            kind[0] += 1
            kind[1] += dt
            try:
                if not op.check(result):
                    failed += 1
                    failed_kinds[op.kind] = failed_kinds.get(op.kind, 0) + 1
            except CheckFailed as exc:
                n_problems += 1
                if len(problems) < MAX_PROBLEMS:
                    problems.append(f"{op.kind}: {exc}")
            untimed_s += time.perf_counter() - t_check
            del result
        del ops
        round_phase = time.perf_counter() - round_start - (untimed_s - round_untimed)
        rates.append((len(times) - round_ops) / round_phase)
        rounds += 1
        if args.rounds:
            if rounds >= args.rounds:
                break
        elif time.perf_counter() - start >= args.seconds:
            break
    wall_s = time.perf_counter() - start
    phase_s = wall_s - untimed_s
    if tracer is not None:
        tracer.restore()

    call_s = sum(times)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report = {
        "workload": args.workload,
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": args.seed,
        "trace": args.trace,
        "correct": n_problems == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_kinds": failed_kinds,
        "problems": problems,
        "calls_by_kind": by_kind,
        "rounds": rounds,
        "ops": len(times),
        "call_s": call_s,
        "wall_s": wall_s,
        "phase_s": phase_s,
        "import_s": import_s,
        "setup_s": setup_s,
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": statistics.median(times) * 1e3 if times else 0.0,
        "times": times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        report["layers"] = layer_metrics(tracer, len(times))
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
