"""The four workloads: inputs made from a seed, the timed call, the check.

A workload yields rounds of operations.  Every round has the same
operations in the same order; only the values drawn from the seed differ,
so any run is a whole number of identical rounds.  An operation is a
zero-argument ``call`` (the only part that is timed) and a ``check`` on
its result.  ``check`` returns True when the operation succeeded, False
when it failed its own acceptance test (an operation that fails), and
raises ``checks.CheckFailed`` when the output is wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks
from checks import require


@dataclass(frozen=True)
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def haar(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed rotation in SO(n) (QR of a Gaussian, signs fixed)."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def spaced(rng, n: int, lo: float, hi: float, gap: float) -> np.ndarray:
    """n values in (lo, hi), sorted descending, neighbours at least ``gap`` apart."""
    while True:
        v = np.sort(rng.uniform(lo, hi, n))[::-1]
        if n < 2 or np.min(-np.diff(v)) >= gap:
            return v


def spectrum_with_k(rng, n: int, k: int) -> np.ndarray:
    """Descending values whose optimal label has exactly k leading pairs.

    The 2k leading values lie in (1.1, 3.0), so each leading pair sums to
    more than 2.2; the rest lie in (0.1, 0.9), so the next pair sums to
    less than 1.8.  Every pair decision is 0.2 away from the boundary.
    """
    top = np.sort(rng.uniform(1.1, 3.0, 2 * k))[::-1]
    rest = np.sort(rng.uniform(0.1, 0.9, n - 2 * k))[::-1]
    return np.concatenate([top, rest])


def read_all(ms):
    """Touch every returned rotation, as a caller writing them out would."""
    total = 0.0
    for r in ms.rotations:
        total += float(r.sum())
    return ms


def read_summary(ms):
    """Read only what a caller that needs one minimizer reads."""
    _ = (ms.k, ms.reduced_energy, ms.cos_alphas, ms.rotations[0])
    return ms


class Workload:
    name = ""

    def __init__(self, rp, rng: np.random.Generator, tracer=None):
        self.rp = rp
        self.rng = rng
        # Random probes of the checks draw from their own stream, so the
        # inputs depend on the seed alone.
        self.check_rng = np.random.default_rng(rng.integers(2**63))
        self.tracer = tracer

    def warmup(self) -> list[Op]:
        raise NotImplementedError

    def round(self) -> list[Op]:
        raise NotImplementedError

    def minimizer_op(self, kind: str, entry: str, arg: np.ndarray, f: np.ndarray, use) -> Op:
        relaxed = self.rp.relaxed
        if entry == "diag":
            call = lambda: use(relaxed.rpolar_diag(arg))  # noqa: E731
        else:
            call = lambda: use(relaxed.rpolar_full(arg))  # noqa: E731

        def check(ms) -> bool:
            rotations = ms.rotations if use is read_all else [ms.rotations[0]]
            checks.check_minimizers(
                f, ms.k, ms.reduced_energy, ms.cos_alphas, rotations, self.check_rng,
                count=len(ms.rotations),
            )
            return True

        return Op(kind, call, check)


# -- fem3 ---------------------------------------------------------------------


class Fem3(Workload):
    """Per-integration-point calls: 3x3 F with det F > 0 through rpolar_full."""

    name = "fem3"
    # (kind, count per round): stretched (k = 1), compressed (k = 0) and
    # near-rotations (singular values within 5% of 1, either k).  No mesh
    # is modelled.  One point in five is barely strained, as in the
    # unloaded part of a body.  A k = 1 call costs about 7% more than a
    # k = 0 call; stretched points are half of the round, so that with the
    # near-rotations k = 1 holds about 60% of the calls and the median call
    # lies inside that branch instead of on the step between the two.
    MIX = (("stretch", 100), ("compress", 60), ("near_rotation", 40))

    def spectrum(self, kind: str) -> np.ndarray:
        rng = self.rng
        while True:
            if kind == "stretch":
                s = spaced(rng, 3, 0.3, 2.5, 0.05)
                margin = s[0] + s[1] - 2.0 >= 0.1
            elif kind == "compress":
                s = spaced(rng, 3, 0.2, 1.3, 0.05)
                margin = 2.0 - s[0] - s[1] >= 0.1
            else:
                s = 1.0 + spaced(rng, 3, -0.05, 0.05, 0.01)
                margin = abs(s[0] + s[1] - 2.0) >= 0.005
            if margin:
                return s

    def make(self, kind: str) -> Op:
        s = self.spectrum(kind)
        f = haar(self.rng, 3) @ np.diag(s) @ haar(self.rng, 3).T
        return self.minimizer_op(kind, "full", f, f, read_all)

    def warmup(self) -> list[Op]:
        return [self.make(kind) for kind, _ in self.MIX for _ in range(5)]

    def round(self) -> list[Op]:
        return [self.make(kind) for kind, count in self.MIX for _ in range(count)]


# -- wide ---------------------------------------------------------------------


class Wide(Workload):
    """Minimizer sets from n = 10 to 300 and k = 0 to 14."""

    name = "wide"
    # (entry, use, n, k).  "all" reads every minimizer inside the timed
    # call; "summary" reads k, the energy, the cosines and one rotation.
    ROUND = (
        ("diag", "all", 10, 5),
        ("diag", "all", 20, 10),
        ("diag", "all", 28, 14),
        ("diag", "all", 64, 8),
        ("diag", "all", 200, 4),
        ("full", "all", 12, 6),
        ("full", "all", 24, 12),
        ("full", "all", 100, 3),
        ("full", "all", 300, 2),
        ("diag", "summary", 16, 8),
        ("diag", "summary", 26, 13),
        ("diag", "summary", 300, 0),
        ("full", "summary", 50, 5),
        ("full", "summary", 150, 1),
        ("full", "summary", 300, 0),
        ("full", "summary", 28, 14),
    )

    def make(self, entry: str, use: str, n: int, k: int) -> Op:
        d = spectrum_with_k(self.rng, n, k)
        reader = read_all if use == "all" else read_summary
        kind = f"{entry}-{use}-n{n}-k{k}"
        if entry == "diag":
            d = self.rng.permutation(d)
            return self.minimizer_op(kind, "diag", d, np.diag(d), reader)
        f = haar(self.rng, n) @ np.diag(d) @ haar(self.rng, n).T
        return self.minimizer_op(kind, "full", f, f, reader)

    def warmup(self) -> list[Op]:
        return [self.make(e, u, 10, 2) for e in ("diag", "full") for u in ("all", "summary")]

    def round(self) -> list[Op]:
        return [self.make(*spec) for spec in self.ROUND]


# -- verify -------------------------------------------------------------------


# Acceptance criterion 3 (tests/test_acceptance.py) compares the closed form
# with brute_force_min on 50 cases each at n = 2, 3, 4 and 5, 300 starts per
# case.  A round here runs the first case of each n, drawn exactly as the
# test draws them, with the test's start count and seeds, so a round is
# criterion 3 cut down from 50 cases per n to one.  These inputs do not
# depend on --seed.  Random draws cannot be used here: one case at
# n = 4 or 5 takes from 0.4 s to 7 s depending on whether the descent
# stalls, and a 20 s run holds too few cases for that to average out.
CRITERION3_N = (2, 3, 4, 5)
CRITERION3_CASES = 50
CRITERION3_STARTS = 300
ORACLE_TOL = 1e-7

# Near-tied parameters, 20 starts and seed 0 each.  On the first, the
# polish stalls near a gradient norm of 5e-7 yet the value agrees.  On the
# second, every start stops at max_iter with a gradient norm near 1e-4 and
# the best value lands 3.7e-7 above the closed form: that operation fails
# every time and is counted as failed.
NEAR_TIES = ((3.155, 3.078, 2.535, 0.261, 0.204), (2.84, 1.873, 1.871, 1.255, 0.979, 0.977))
NEAR_TIE_STARTS = 20

FLOW_STEP = 0.02
FLOW_T_END = 400.0
FLOW_GTOL = 1e-6
BIOT_T_END = 40.0
BIOT_TO_IDENTITY = 1e-6


def criterion3_cases() -> list[tuple[np.ndarray, int]]:
    """(d, oracle seed) of the first case at each n of acceptance criterion 3."""
    rng = np.random.default_rng(99)
    cases = []
    total = 0
    for n in CRITERION3_N:
        for i in range(CRITERION3_CASES):
            d = np.sort(rng.uniform(0.2, 3.5, n))[::-1]
            while not np.all(np.diff(d) < 0):
                d = np.sort(rng.uniform(0.2, 3.5, n))[::-1]
            if i == 0:
                cases.append((d, 1000 + total))
            total += 1
    return cases


def separated(rng, n: int) -> np.ndarray:
    """Descending d in (0.2, 3.5): neighbours and every d_i + d_j - 2 at least 0.2 from 0."""
    iu = np.triu_indices(n, 1)
    while True:
        d = spaced(rng, n, 0.2, 3.5, 0.2)
        sums = d[:, None] + d[None, :]
        if n < 2 or np.min(np.abs(sums[iu] - 2.0)) >= 0.2:
            return d


class Verify(Workload):
    """Closed form against the multistart oracle, plus gradient flows."""

    name = "verify"
    # Flows run from seeded inputs, on d kept away from ties and from the
    # pair boundary so that each flow reaches its gradient tolerance.  They
    # take under a tenth of a round's time.  A Biot flow runs a fixed 2000
    # steps, so its cost does not depend on the draw.  Below the Biot
    # flows in cost lies the n = 2 case of criterion 3, above them the five
    # dearer oracle cases, and the two gradient flows, whose step counts
    # depend on the draw, fall on either side.  With nine Biot flows the
    # median operation is a Biot flow either way.  op_p50_ms then follows
    # the one-matrix exponential the flows call per step, and ops_per_s
    # the 300-start batches of criterion 3.
    FLOWS = (("flow", 2), ("flow", 3)) + (("biot", 3),) * 9

    def oracle_op(self, kind: str, d: np.ndarray, starts: int, seed: int) -> Op:
        relaxed, oracle = self.rp.relaxed, self.rp.oracle

        def call():
            return relaxed.rpolar_diag(d), oracle.brute_force_min(d, n_starts=starts, seed=seed)

        def check(result) -> bool:
            ms, report = result
            s = np.sort(d)[::-1]
            scale = 1.0 + float(np.sum(s * s))
            e_ref = checks.reduced_energy(s, checks.optimal_pairs(s))
            require(
                abs(ms.reduced_energy - e_ref) <= checks.ENERGY_RTOL * scale,
                f"closed form {ms.reduced_energy!r} differs from the paper's {e_ref!r}",
            )
            best = np.asarray(report.best_rotation)
            checks.check_so_n(best[None])
            e_best = float(checks.shear_energy(best, np.diag(d)))
            require(
                abs(e_best - report.best_value) <= checks.ENERGY_RTOL * scale,
                "oracle best_value is not the energy of its best rotation",
            )
            require(
                e_best >= ms.reduced_energy - checks.ENERGY_RTOL * scale,
                f"oracle found {e_best!r} below the closed form {ms.reduced_energy!r}",
            )
            return abs(report.best_value - ms.reduced_energy) <= ORACLE_TOL

        return Op(f"{kind}-n{d.size}", call, check)

    def flow_op(self, d: np.ndarray, r0: np.ndarray) -> Op:
        oracle = self.rp.oracle

        def call():
            return oracle.integrate_flow(r0, d, step=FLOW_STEP, t_end=FLOW_T_END, gtol=FLOW_GTOL)

        def check(traj) -> bool:
            states = np.asarray(traj.states)
            checks.check_so_n(states)
            f = np.diag(d)
            e = checks.shear_energy(states, f)
            scale = 1.0 + float(np.sum(d * d))
            require(
                float(np.max(np.abs(e - traj.energies))) <= checks.ENERGY_RTOL * scale,
                "recorded flow energies differ from the states' energies",
            )
            require(bool(np.all(np.diff(e) <= 1e-9)), "flow energy increases")
            g = float(np.linalg.norm(checks.shear_gradient(states[-1], f)))
            require(g <= 2.0 * FLOW_GTOL, f"flow ends with gradient {g:.2e}")
            return True

        return Op("flow", call, check)

    def biot_op(self, d: np.ndarray, r0: np.ndarray) -> Op:
        oracle = self.rp.oracle

        def call():
            return oracle.biot_flow(r0, d, step=FLOW_STEP, t_end=BIOT_T_END)

        def check(traj) -> bool:
            states = np.asarray(traj.states)
            checks.check_so_n(states)
            x = states * d[None, None, :] - np.eye(d.size)
            v = 0.5 * np.sum(x * x, axis=(-2, -1))
            require(
                float(np.max(np.abs(v - traj.energies))) <= 1e-10 * (1.0 + float(np.sum(d * d))),
                "recorded Biot energies differ from the states' energies",
            )
            require(bool(np.all(np.diff(v) <= 1e-9)), "Biot energy increases")
            dist = float(np.linalg.norm(states[-1] - np.eye(d.size)))
            require(dist <= BIOT_TO_IDENTITY, f"Biot flow ends {dist:.2e} from the identity")
            return True

        return Op("biot", call, check)

    def make(self, kind: str, n: int) -> Op:
        rng = self.rng
        if kind == "flow":
            return self.flow_op(separated(rng, n), haar(rng, n))
        b = rng.standard_normal((n, n))
        b = 0.2 * (b - b.T) / np.linalg.norm(b - b.T)
        return self.biot_op(separated(rng, n), checks.cayley(b))

    def warmup(self) -> list[Op]:
        return [
            self.oracle_op("oracle", separated(self.rng, 3), 5, 0),
            self.make("flow", 2),
            self.make("biot", 2),
        ]

    def round(self) -> list[Op]:
        ops = [
            self.oracle_op("criterion3", d, CRITERION3_STARTS, seed)
            for d, seed in criterion3_cases()
        ]
        ops += [self.oracle_op("near_tie", np.array(d), NEAR_TIE_STARTS, 0) for d in NEAR_TIES]
        ops += [self.make(kind, n) for kind, n in self.FLOWS]
        return ops


# -- classify -----------------------------------------------------------------


# Value bands whose every pair decision is at least 0.05 from its boundary:
# huge-anything pairs admit det +1, and det -1 too (difference > 2.3);
# large-large and large-small pairs admit det +1 only; small-small pairs
# admit neither.  The point count therefore depends on n and the band
# sizes alone.
BANDS = {"huge": (4.3, 4.7), "large": (1.5, 2.0), "small": (0.55, 0.9)}


class Classify(Workload):
    """`rpolar critical` through cli.main, and block_diagonalize."""

    name = "classify"
    # (n, huge, large, small) per `critical` call in a round.
    CRITICAL = ((6, 1, 2, 3), (7, 1, 3, 3), (8, 1, 3, 4))
    # Eleven sizes, so that the median operation of a round is in the
    # middle of the n = 12 calls rather than at the edge of a size.
    BLOCK_SIZES = (2, 3, 4, 6, 8, 12, 16, 24, 32, 40, 48)
    BLOCK_REPEATS = 50

    def critical_op(self, n: int, huge: int, large: int, small: int) -> Op:
        rng = self.rng
        parts = [rng.uniform(*BANDS[b], c) for b, c in (("huge", huge), ("large", large), ("small", small))]
        d = rng.permutation(np.concatenate(parts))
        argv = ["critical", ",".join(repr(float(x)) for x in d)]
        cli = self.rp.cli

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        def check(result) -> bool:
            code, text = result
            require(code == 0, f"rpolar critical exited {code}")
            if self.tracer is not None:
                self.tracer.counts["cli.bytes_out"] += len(text)
            checks.check_critical_listing(d, map(json.loads, io.StringIO(text)))
            return True

        return Op(f"critical-n{n}", call, check)

    def symmetric_square(self, n: int) -> np.ndarray:
        """T0 diag(B_j) T0^T with each B_j^2 = mu_j I; some mu values repeat."""
        rng = self.rng
        x = np.zeros((n, n))
        mus: list[float] = []
        pos = 0
        while pos < n:
            size = 1 if pos == n - 1 or rng.random() < 0.45 else 2
            reuse = [m for m in mus if size == 2 or m > 0]
            if reuse and rng.random() < 0.3:
                mu = float(rng.choice(reuse))
            else:
                mu = float(rng.uniform(-4.0, 4.0) if size == 2 else rng.uniform(0.05, 4.0))
            mus.append(mu)
            if size == 1:
                block = np.array([[rng.choice([-1.0, 1.0]) * np.sqrt(mu)]])
            else:
                a = rng.uniform(-2.0, 2.0)
                b = rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])
                block = np.array([[a, b], [(mu - a * a) / b, -a]])
            x[pos : pos + size, pos : pos + size] = block
            pos += size
        t0 = haar(rng, n)
        return t0 @ x @ t0.T

    def blockdiag_op(self, n: int) -> Op:
        x = self.symmetric_square(n)
        blockdiag = self.rp.blockdiag

        def check(dec) -> bool:
            checks.check_blocks(x, dec.basis, [(b.entries, b.mu) for b in dec.blocks])
            return True

        return Op(f"blockdiag-n{n}", lambda: blockdiag.block_diagonalize(x), check)

    def warmup(self) -> list[Op]:
        return [self.critical_op(4, 1, 1, 2)] + [self.blockdiag_op(n) for n in (2, 4, 8)]

    def round(self) -> list[Op]:
        ops = [self.critical_op(*spec) for spec in self.CRITICAL]
        ops += [self.blockdiag_op(n) for n in self.BLOCK_SIZES for _ in range(self.BLOCK_REPEATS)]
        return ops


WORKLOADS = {cls.name: cls for cls in (Fem3, Wide, Verify, Classify)}
