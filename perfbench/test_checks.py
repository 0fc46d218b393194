"""Self-tests of the benchmark's output checkers.

Each checker is fed a right answer, built here from first principles, and
then a slightly wrong one, which it must reject.  Run with

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from workloads import haar  # noqa: E402

RNG = np.random.default_rng(2016)


def planar(n: int, i: int, j: int, c: float, s: float) -> np.ndarray:
    r = np.eye(n)
    r[i, i], r[i, j], r[j, i], r[j, j] = c, -s, s, c
    return r


def minimizers_3x3():
    """F = U diag(3, 2, 0.5) V^T: k = 1, cos a = 2/5, two minimizers."""
    s = np.array([3.0, 2.0, 0.5])
    u, v = haar(RNG, 3), haar(RNG, 3)
    f = u @ np.diag(s) @ v.T
    c = 2.0 / 5.0
    q = u @ v.T
    rotations = [q @ v @ planar(3, 0, 1, c, sg * np.sqrt(1 - c * c)) @ v.T for sg in (1, -1)]
    energy = 0.5 * (3.0 - 2.0) ** 2 + (0.5 - 1.0) ** 2
    return f, energy, (c,), rotations


def check(f, energy, cos, rotations, count=None):
    checks.check_minimizers(
        f, 1, energy, cos, rotations, np.random.default_rng(0),
        count=len(rotations) if count is None else count,
    )


def test_minimizers_accepted():
    check(*minimizers_3x3())


def test_rotation_perturbed_by_1e6_rejected():
    f, energy, cos, rotations = minimizers_3x3()
    bad = rotations[0].copy()
    bad[0, 0] += 1e-6
    with pytest.raises(CheckFailed):
        check(f, energy, cos, [bad, rotations[1]])


def test_rotation_moved_along_so_n_rejected():
    # Still a rotation, so only the energy and gradient checks can see it.
    f, energy, cos, rotations = minimizers_3x3()
    b = np.zeros((3, 3))
    b[0, 2], b[2, 0] = 1e-6, -1e-6
    with pytest.raises(CheckFailed):
        check(f, energy, cos, [rotations[0] @ checks.cayley(b), rotations[1]])


def test_energy_shifted_by_1e6_rejected():
    f, energy, cos, rotations = minimizers_3x3()
    with pytest.raises(CheckFailed):
        check(f, energy + 1e-6, cos, rotations)


def test_minimizer_count_off_by_one_rejected():
    f, energy, cos, rotations = minimizers_3x3()
    with pytest.raises(CheckFailed):
        check(f, energy, cos, rotations[:1] * 3)
    with pytest.raises(CheckFailed):
        check(f, energy, cos, rotations, count=3)


def test_repeated_minimizer_rejected():
    f, energy, cos, rotations = minimizers_3x3()
    with pytest.raises(CheckFailed):
        check(f, energy, cos, [rotations[0], rotations[0]])


def test_saddle_rejected():
    # The identity is critical for D = diag(3, 2, 0.5) but not minimal.
    d = np.array([3.0, 2.0, 0.5])
    with pytest.raises(CheckFailed):
        checks.check_minimizers(np.diag(d), 1, 1.25, (0.4,), [np.eye(3)], RNG, count=None)


def test_gradient_matches_central_differences():
    for n in (2, 3, 5):
        f = RNG.standard_normal((n, n))
        r = haar(RNG, n)
        b = RNG.standard_normal((n, n))
        b = b - b.T
        h = 1e-6
        up = checks.shear_energy(r @ checks.cayley(h * b), f)
        down = checks.shear_energy(r @ checks.cayley(-h * b), f)
        fd = (up - down) / (2 * h)
        assert fd == pytest.approx(-2.0 * np.sum(checks.shear_gradient(r, f) * b), rel=1e-6)


def test_reduced_energy_worked_example():
    # The paper's 5x5 example: W_red(4, 2, 1, 0.5, 0.25) = 45/16 with k = 1.
    s = np.array([4.0, 2.0, 1.0, 0.5, 0.25])
    assert checks.optimal_pairs(s) == 1
    assert checks.reduced_energy(s, 1) == pytest.approx(45.0 / 16.0)


def test_critical_count_small_cases():
    # d = (3, 1): identity, -identity and two planar rotations.
    assert checks.count_critical_points(np.array([3.0, 1.0])) == 4
    # d = (0.5, 0.4): no pair admits a block; two sign patterns with parity +1.
    assert checks.count_critical_points(np.array([0.5, 0.4])) == 2
    # d = (4, 0.5): the det -1 block exists but alone has parity -1.
    assert checks.count_critical_points(np.array([4.0, 0.5])) == 4
    # d = (4, 0.5, 0.4): 4 sign patterns; pairs {1,2} and {1,3} each with
    # det +1 and det -1 (the singleton takes the matching sign), 2 angles each.
    assert checks.count_critical_points(np.array([4.0, 0.5, 0.4])) == 4 + 2 * 2 * 2


def critical_listing():
    """The two singleton points and two planar points of d = (3, 1)."""
    lines = []
    for det in (1, -1):
        r = np.diag([det, det]).astype(float)
        value = (3.0 - det) ** 2 + (1.0 - det) ** 2
        label = [{"idx": [1], "det": det, "angle": 1}, {"idx": [2], "det": det, "angle": 1}]
        lines.append({"kind": "critical_point", "label": {"subsets": label}, "value": value,
                      "rotation": r.ravel().tolist()})
    c = 0.5
    for angle in (1, -1):
        r = planar(2, 0, 1, c, angle * np.sqrt(1 - c * c))
        label = [{"idx": [1, 2], "det": 1, "angle": angle}]
        lines.append({"kind": "critical_point", "label": {"subsets": label}, "value": 2.0,
                      "rotation": r.ravel().tolist()})
    lines.sort(key=lambda p: p["value"])
    return lines


def test_critical_listing_accepted():
    checks.check_critical_listing(np.array([3.0, 1.0]), critical_listing())


def test_critical_count_off_by_one_rejected():
    lines = critical_listing()
    with pytest.raises(CheckFailed):
        checks.check_critical_listing(np.array([3.0, 1.0]), lines[:-1])


def test_critical_value_shifted_rejected():
    lines = critical_listing()
    lines[0]["value"] += 1e-6
    with pytest.raises(CheckFailed):
        checks.check_critical_listing(np.array([3.0, 1.0]), lines)


def block_problem():
    a, b, mu = 0.7, 1.3, -2.0
    block = np.array([[a, b], [(mu - a * a) / b, -a]])
    t0 = haar(RNG, 3)
    x = t0 @ np.block([[block, np.zeros((2, 1))], [np.zeros((1, 2)), np.array([[1.5]])]]) @ t0.T
    return x, t0, [(block, mu), (np.array([[1.5]]), 2.25)]


def test_blocks_accepted():
    x, t0, blocks = block_problem()
    checks.check_blocks(x, t0, blocks)


def test_block_without_scalar_square_rejected():
    x, t0, blocks = block_problem()
    entries, mu = blocks[0]
    skewed = entries.copy()
    skewed[0, 1] += 1e-3
    with pytest.raises(CheckFailed):
        checks.check_blocks(x, t0, [(skewed, mu), blocks[1]])


def test_block_that_does_not_reconstruct_rejected():
    x, t0, blocks = block_problem()
    with pytest.raises(CheckFailed):
        checks.check_blocks(x, t0, [blocks[0], (-blocks[1][0], 2.25)])


def test_block_basis_not_orthogonal_rejected():
    x, t0, blocks = block_problem()
    t = t0.copy()
    t[0, 0] += 1e-6
    with pytest.raises(CheckFailed):
        checks.check_blocks(x, t, blocks)
