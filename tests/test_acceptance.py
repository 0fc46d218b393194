"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The multistart oracle
comparison (criterion 3) takes about 6 s and blockdiag's property suite
(criterion 4) about 7 s on a 2-core x86 host with single-threaded BLAS;
everything else completes in a few seconds.
"""

import time

import numpy as np

import rpolar as rp
from rpolar.critical import PartitionLabel, SubsetLabel
from rpolar.oracle import _descend_batch
from util import random_symmetric_square

D5 = [4.0, 2.0, 1.0, 0.5, 0.25]


def report(num: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_worked_5x5_pipeline():
    t0 = time.perf_counter()
    start = PartitionLabel(
        subsets=(
            SubsetLabel((1,), 1),
            SubsetLabel((2, 5), -1),
            SubsetLabel((3,), -1),
            SubsetLabel((4,), -1),
        )
    )
    trace = rp.scheme_minimize(start, D5)
    ms = rp.rpolar_diag(D5)
    w_identity = rp.energy(np.eye(5), D5)
    checks = [
        abs(trace.values[0] - 569 / 32) <= 1e-12,
        abs(trace.values[1] - 345 / 32) <= 1e-12,
        abs(trace.values[3] - 45 / 16) <= 1e-12,
        abs(trace.final_value - 45 / 16) <= 1e-12,
        abs(ms.reduced_energy - 45 / 16) <= 1e-12,
        abs(w_identity - 173 / 16) <= 1e-12,
        abs(ms.cos_alphas[0] - 1 / 3) <= 1e-12,
        ms.k == 1,
        len(ms.rotations) == 2,
    ]
    elapsed = time.perf_counter() - t0
    report(
        1,
        all(checks) and elapsed < 1.0,
        f"W0=569/32, W1=345/32, W3=Wred=45/16, W(1;D)=173/16, cos=1/3, "
        f"k=1, 2 minimizers ({elapsed:.3f}s)",
    )


def test_criterion_2_n3_closed_form():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2025)
    worst = 0.0
    ok = True
    for _ in range(100):
        d = np.sort(rng.uniform(0.2, 1.8, 3) * rng.choice([1.0, 2.0]))[::-1]
        if not np.all(np.diff(d) < 0):
            continue
        ms = rp.rpolar_diag(d)
        if d[0] + d[1] <= 2.0:
            expected = float(np.sum((d - 1.0) ** 2))
            ok &= ms.k == 0 and np.array_equal(ms.rotations[0], np.eye(3))
        else:
            expected = 0.5 * (d[0] - d[1]) ** 2 + (d[2] - 1.0) ** 2
            cos_err = abs(ms.cos_alphas[0] - 2.0 / (d[0] + d[1]))
            ok &= ms.k == 1 and cos_err <= 1e-12
        worst = max(worst, abs(ms.reduced_energy - expected))
    elapsed = time.perf_counter() - t0
    report(
        2,
        ok and worst <= 1e-12 and elapsed < 1.0,
        f"100 random D, both angle branches, worst |Wred error| = {worst:.2e} "
        f"({elapsed:.3f}s)",
    )


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    n_pass = 0
    total = 0
    worst = 0.0
    converged = 0
    for n in (2, 3, 4, 5):
        for _ in range(50):
            d = np.sort(rng.uniform(0.2, 3.5, n))[::-1]
            while not np.all(np.diff(d) < 0):
                d = np.sort(rng.uniform(0.2, 3.5, n))[::-1]
            closed = rp.rpolar_diag(d).reduced_energy
            oracle = rp.brute_force_min(d, n_starts=300, seed=1000 + total)
            diff = abs(closed - oracle.best_value)
            worst = max(worst, diff)
            n_pass += diff <= 1e-7
            converged += oracle.n_converged
            total += 1
    elapsed = time.perf_counter() - t0
    report(
        3,
        n_pass == total == 200 and converged == 300 * total and elapsed < 300.0,
        f"{n_pass}/{total} cases agree within 1e-7 (worst {worst:.2e}, "
        f"300 starts each, {converged}/{300 * total} starts converged, "
        f"{elapsed:.1f}s)",
    )


def test_criterion_4_blockdiag_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4242)
    count = 0
    worst = {"orth": 0.0, "block": 0.0, "recon": 0.0, "norm": 0.0}
    for n in range(2, 9):
        for _ in range(1000):
            x, _ = random_symmetric_square(rng, n)
            dec = rp.block_diagonalize(x)
            worst["orth"] = max(
                worst["orth"], rp.frob_norm(dec.basis.T @ dec.basis - np.eye(n))
            )
            worst["block"] = max(
                worst["block"], max(b.square_residual() for b in dec.blocks)
            )
            worst["recon"] = max(worst["recon"], dec.reconstruction_residual(x))
            total = sum(rp.frob_norm_sq(b.entries) for b in dec.blocks)
            worst["norm"] = max(
                worst["norm"], abs(total - rp.frob_norm_sq(x)) / rp.frob_norm_sq(x)
            )
            count += 1
    y = np.array([[1, 0, 1, 1], [0, 1, 1, 1], [0, 0, -1, 0], [0, 0, 0, -1]], float)
    dec_y = rp.block_diagonalize(y)
    y_total = sum(rp.frob_norm_sq(b.entries) for b in dec_y.blocks)
    y_ok = (
        abs(y_total - 8.0) <= 1e-10
        and dec_y.reconstruction_residual(y) <= 1e-8
        and all(b.square_residual() <= 1e-8 for b in dec_y.blocks)
    )
    ok = (
        count == 7000
        and worst["orth"] <= 1e-10
        and worst["block"] <= 1e-8
        and worst["recon"] <= 1e-8
        and worst["norm"] <= 1e-8
        and y_ok
    )
    elapsed = time.perf_counter() - t0
    report(
        4,
        ok,
        f"{count} synthesized matrices, worst orth {worst['orth']:.1e}, "
        f"block {worst['block']:.1e}, recon {worst['recon']:.1e}, "
        f"norm {worst['norm']:.1e}; worked 4x4 total = 8 ({elapsed:.1f}s)",
    )


def test_criterion_5_completeness_small_n():
    t0 = time.perf_counter()
    cases = {2: np.array([3.0, 1.2]), 3: np.array([3.0, 1.5, 0.8])}
    ok = True
    worst_dist = 0.0
    worst_grad = 0.0
    for n, d in cases.items():
        points = list(rp.enumerate_critical(d))
        for p in points:
            gn = rp.frob_norm(rp.riemannian_gradient(p.rotation, d))
            worst_grad = max(worst_grad, gn)
            ok &= gn <= 1e-9
        r0 = rp.linalg.haar_rotations(n, 500, rng=n)
        limits, _, conv, _, _ = _descend_batch(r0, d, gtol=1e-9, max_iter=5000)
        ok &= bool(np.all(conv))
        for r in limits:
            dist = min(rp.frob_norm(r - p.rotation) for p in points)
            worst_dist = max(worst_dist, dist)
            ok &= dist <= 1e-6
    elapsed = time.perf_counter() - t0
    report(
        5,
        ok,
        f"2x500 descent limits within {worst_dist:.1e} of enumerated points, "
        f"worst enumerated gradient {worst_grad:.1e} ({elapsed:.1f}s)",
    )


def test_criterion_6_comparison_identity():
    rng = np.random.default_rng(66)
    worst = 0.0
    count = 0
    while count < 1000:
        di, dj = np.sort(rng.uniform(0.2, 4.0, 2))[::-1]
        if di + dj <= 2.0 or di == dj:
            continue
        d = np.array([di, dj])
        merged = rp.critical_value(
            PartitionLabel(subsets=(SubsetLabel((1, 2), 1),)), d
        )
        split = rp.critical_value(PartitionLabel.singletons(2), d)
        worst = max(worst, abs((merged - split) + 0.5 * (di + dj - 2.0) ** 2))
        count += 1
    report(
        6,
        worst <= 1e-12,
        f"1000 feasible pairs, worst |identity error| = {worst:.2e}",
    )


def test_criterion_7_gradient_flows():
    t0 = time.perf_counter()
    d = [4.0, 2.0, 1.0]
    ok = True
    worst_grad = 0.0
    for seed in range(20):
        r0 = rp.random_rotation(3, seed)
        traj = rp.integrate_flow(r0, d, step=0.02, t_end=2000.0, gtol=1e-6)
        ok &= bool(np.all(np.diff(traj.energies) <= 1e-9))
        gn = rp.frob_norm(rp.riemannian_gradient(traj.states[-1], d))
        worst_grad = max(worst_grad, gn)
        ok &= gn <= 1e-6
    worst_biot = 0.0
    rng = np.random.default_rng(7)
    for _ in range(20):
        r0 = rp.exp_skew(rp.skew(rng.standard_normal((3, 3))), scale=0.2)
        traj = rp.biot_flow(r0, d, step=0.02, t_end=40.0)
        dist = rp.frob_norm(traj.states[-1] - np.eye(3))
        worst_biot = max(worst_biot, dist)
        ok &= dist <= 1e-6
    elapsed = time.perf_counter() - t0
    report(
        7,
        ok,
        f"20 monotone trajectories, terminal gradient <= {worst_grad:.1e}; "
        f"Biot limit within {worst_biot:.1e} of identity ({elapsed:.1f}s)",
    )


def test_criterion_8_classical_case():
    rng = np.random.default_rng(88)
    worst = 0.0
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 6))
        f = rng.standard_normal((n, n))
        if np.linalg.det(f) < 0:
            f[:, 0] *= -1.0
        f += (0.1 - np.linalg.eigvalsh(rp.sym(f)).min()) * np.eye(n)
        if np.linalg.det(f) <= 0:
            continue
        mu = float(rng.uniform(0.1, 2.0))
        mu_c = mu * float(rng.uniform(1.0, 3.0))
        pf = rp.polar_decompose(f)
        r = rp.rpolar_classical(f, mu, mu_c)
        ok &= rp.frob_norm(r - pf.rot) <= 1e-10
        biot = rp.frob_norm_sq(r.T @ f - np.eye(n))
        stretch_dist = rp.frob_norm_sq(pf.stretch - np.eye(n))
        worst = max(worst, abs(biot - stretch_dist))
    report(
        8,
        ok and worst <= 1e-10,
        f"100 random F: classical minimizer is polar(F), "
        f"worst | ||R^T F - I||^2 - ||U - I||^2 | = {worst:.2e}",
    )
