"""Spans around calls into the library, recorded from outside it.

A ``Tracer`` replaces chosen module attributes of the ``rpolar`` package
with wrappers that record one span per call: a name, a start, an end and
the index of the enclosing span.  Because the library looks these names
up in its own module namespaces at call time, nested calls (for example
``rpolar_full`` calling ``rpolar_diag``) are recorded too.  Spans stay in
memory until the run ends; self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (module attribute, span name).  Entry points the benchmark calls come
# first; the rest are the attributes through which the library calls its
# own inner layers.
TRACED = (
    ("relaxed", "rpolar_full", "relaxed.rpolar_full"),
    ("relaxed", "rpolar_diag", "relaxed.rpolar_diag"),
    ("oracle", "brute_force_min", "oracle.brute_force_min"),
    ("oracle", "integrate_flow", "oracle.flow"),
    ("oracle", "biot_flow", "oracle.flow"),
    ("cli", "main", "cli.main"),
    ("blockdiag", "block_diagonalize", "blockdiag.block_diagonalize"),
    ("oracle", "exp_skew_batch", "linalg.exp_skew_batch"),
    ("oracle", "haar_rotations", "linalg.haar_rotations"),
    ("critical", "realize", "critical.realize"),
    ("cli", "enumerate_critical", "critical.enumerate_critical"),
    ("blockdiag", "scalar_square_blocks", "blockdiag.scalar_square_blocks"),
)

# Names whose span covers consuming a generator, not just creating it.
GENERATORS = frozenset({"critical.enumerate_critical"})

# Counters kept beside the spans: the result hooks below fill them, and
# the classify workload adds the bytes that `rpolar critical` prints.
COUNTERS = (
    "relaxed.rotations_out",
    "relaxed.rotation_bytes_computed",
    "linalg.exp_skew_batch.matrices",
    "oracle.starts",
    "oracle.converged",
    "oracle.flow_steps",
    "critical.points",
    "cli.bytes_out",
    "blockdiag.blocks_out",
)
# Ratio name: (numerator counter, denominator counter).
RATIOS = {"oracle.converged_ratio": ("oracle.converged", "oracle.starts")}
SPANS = tuple(dict.fromkeys(name for _, _, name in TRACED))
# Traced call time over untraced call time on the same rounds, minus one;
# run.py computes it from the two runs.
OVERHEAD = "tracing_overhead_pct"


def _minimizer_counts(tracer, result, args, top_level):
    n = len(args[0]) if args else 0
    sets = 2**result.k
    if top_level:
        tracer.counts["relaxed.rotations_out"] += sets
    tracer.counts["relaxed.rotation_bytes_computed"] += sets * n * n * 8


def _exp_counts(tracer, result, args, top_level):
    tracer.counts["linalg.exp_skew_batch.matrices"] += result.size // (
        result.shape[-1] * result.shape[-2]
    )


def _oracle_counts(tracer, result, args, top_level):
    tracer.counts["oracle.starts"] += result.n_starts
    tracer.counts["oracle.converged"] += result.n_converged


def _flow_counts(tracer, result, args, top_level):
    tracer.counts["oracle.flow_steps"] += len(result.times) - 1


def _block_counts(tracer, result, args, top_level):
    tracer.counts["blockdiag.blocks_out"] += len(result.blocks)


RESULT_HOOKS = {
    "relaxed.rpolar_full": _minimizer_counts,
    "relaxed.rpolar_diag": _minimizer_counts,
    "linalg.exp_skew_batch": _exp_counts,
    "oracle.brute_force_min": _oracle_counts,
    "oracle.flow": _flow_counts,
    "blockdiag.block_diagonalize": _block_counts,
}


class Tracer:
    """In-memory span recorder with counters; install, run, restore."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        # A plain dict, so that a counter nobody declared raises KeyError.
        self.counts: dict[str, float] = dict.fromkeys(
            COUNTERS + tuple(name + ".calls" for name in SPANS), 0.0
        )
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        hook = RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top_level = not self._stack
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.counts[name + ".calls"] += 1
            if hook is not None:
                hook(self, result, args, top_level)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        # The span stays open while the consumer iterates, so work done in
        # the library between yields (including nested spans) is covered.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                for item in fn(*args, **kwargs):
                    self.counts["critical.points"] += 1
                    yield item
            finally:
                self._close(idx)
            self.counts[name + ".calls"] += 1

        return wrapper

    def install(self, package) -> None:
        for module_name, attr, name in TRACED:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            wrap = self._wrap_generator if name in GENERATORS else self._wrap
            setattr(module, attr, wrap(name, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        totals: defaultdict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            totals[name] += self.ends[i] - self.starts[i] - child[i]
        return dict(totals)

    def dump(self, path) -> None:
        """Write every span as [name, start, end, parent] to a JSON file."""
        spans = [
            [n, s, e, p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counts": dict(self.counts)}, fh)
