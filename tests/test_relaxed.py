import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rpolar as rp
from rpolar.critical import (
    BOUNDARY_TOL,
    PartitionLabel,
    RotationFamily,
    SubsetLabel,
    _pair_signs,
)
from rpolar.errors import (
    Degenerate,
    DegenerateD,
    DimensionMismatch,
    InfeasibleLabel,
    NonClassicalRange,
    NonInvertibleOrReflective,
    TiesNotStrictWarning,
)
from util import is_rotation, label_of, random_scheme_start

RNG = np.random.default_rng(271828)

D5 = [4.0, 2.0, 1.0, 0.5, 0.25]


class TestOptimalK:
    def test_worked_5x5(self):
        assert rp.optimal_k(D5) == 1

    def test_all_ones_boundary_excluded(self):
        assert rp.optimal_k(np.ones(4)) == 0

    def test_two_pairs(self):
        assert rp.optimal_k([3.0, 2.5, 2.0, 1.9]) == 2

    def test_n1(self):
        assert rp.optimal_k([5.0]) == 0


class TestRpolarDiag:
    def test_worked_5x5(self):
        ms = rp.rpolar_diag(D5)
        assert ms.k == 1
        assert ms.reduced_energy == pytest.approx(45 / 16, abs=1e-14)
        assert ms.cos_alphas[0] == pytest.approx(1 / 3, abs=1e-15)
        assert len(ms.rotations) == 2
        for r in ms.rotations:
            assert is_rotation(r)
            assert rp.energy(r, D5) == pytest.approx(45 / 16, rel=1e-12)
            assert rp.is_critical(r, D5)

    def test_small_values_identity(self):
        d = [0.9, 0.7, 0.5]
        ms = rp.rpolar_diag(d)
        assert ms.k == 0
        np.testing.assert_array_equal(ms.rotations[0], np.eye(3))
        assert ms.reduced_energy == pytest.approx(np.sum((np.array(d) - 1) ** 2))

    def test_n3_closed_form(self):
        ms = rp.rpolar_diag([3.0, 2.0, 0.5])
        assert ms.reduced_energy == pytest.approx(0.75, abs=1e-14)
        assert ms.cos_alphas[0] == pytest.approx(0.4)
        assert len(ms.rotations) == 2

    def test_two_closed_forms_agree(self):
        for _ in range(100):
            n = int(RNG.integers(1, 8))
            d = np.sort(RNG.uniform(0.1, 4.0, n))[::-1]
            ms = rp.rpolar_diag(d)
            k = ms.k
            alt = np.sum((d - 1.0) ** 2) - 0.5 * sum(
                (d[2 * i] + d[2 * i + 1] - 2.0) ** 2 for i in range(k)
            )
            assert ms.reduced_energy == pytest.approx(alt, rel=1e-12, abs=1e-12)

    def test_identity_optimal_iff_all_pair_sums_small(self):
        for _ in range(200):
            n = int(RNG.integers(2, 7))
            d = np.sort(RNG.uniform(0.1, 1.8, n))[::-1]
            ms = rp.rpolar_diag(d)
            identity_only = len(ms.rotations) == 1 and np.array_equal(
                ms.rotations[0], np.eye(n)
            )
            assert identity_only == (d[0] + d[1] <= 2.0)

    def test_minimizer_count(self):
        ms = rp.rpolar_diag([3.0, 2.5, 2.0, 1.9])
        assert ms.k == 2
        assert len(ms.rotations) == 4
        values = {tuple(np.round(r, 12).reshape(-1)) for r in ms.rotations}
        assert len(values) == 4

    def test_unsorted_user_order(self):
        d = np.array([1.0, 4.0, 2.0, 0.25, 0.5])
        ms = rp.rpolar_diag(d)
        assert ms.k == 1
        assert ms.reduced_energy == pytest.approx(45 / 16, abs=1e-14)
        pair = ms.label.pairs()[0].indices
        assert pair == (2, 3)  # positions of 4 and 2 in user order
        for r in ms.rotations:
            assert rp.energy(r, d) == pytest.approx(45 / 16, rel=1e-12)

    def test_minimizer_order_matches_realize(self):
        # sorted input: the optimal label's pairs come in rank order, so the
        # documented sign order (first pair slowest, +1 first) is realize's
        d = [3.0, 2.5, 2.2, 1.9, 0.5]
        ms = rp.rpolar_diag(d)
        assert ms.k == 2
        realized = [p.rotation for p in rp.realize(ms.label, d)]
        assert len(realized) == len(ms.rotations) == 4
        for r, expected in zip(ms.rotations, realized):
            np.testing.assert_array_equal(r, expected)

    def test_angle_signs_refer_to_rank_ordered_pairs(self):
        # unsorted input: pairs come in rank order, each written larger
        # value first, so realize's order and angle signs may differ
        d = [1.5, 2.0]
        ms = rp.rpolar_diag(d)
        realized = [p.rotation for p in rp.realize(ms.label, d)]
        assert ms.rotations[0].tobytes() == realized[1].tobytes()
        assert ms.rotations[1].tobytes() == realized[0].tobytes()
        d = [2.0, 1.5, 4.0, 3.0]
        ms = rp.rpolar_diag(d)
        realized = [p.rotation for p in rp.realize(ms.label, d)]
        for m, point in enumerate((0, 2, 1, 3)):
            assert ms.rotations[m].tobytes() == realized[point].tobytes()

    def test_minimizers_equal_realize_as_sets(self):
        rng = np.random.default_rng(314)
        for _ in range(200):
            d = rng.uniform(0.1, 5.0, int(rng.integers(1, 9)))
            ms = rp.rpolar_diag(d)
            realized = sorted(p.rotation.tobytes() for p in rp.realize(ms.label, d))
            assert sorted(r.tobytes() for r in ms.rotations) == realized

    def test_boundary_flagged(self):
        ms = rp.rpolar_diag([1.0, 1.0, 0.5])
        assert ms.k == 0
        assert "boundary_case" in ms.flags

    def test_reduced_energy_lower_bounds_random_rotations(self):
        # oracle-style optimality check: the closed-form value never
        # exceeds the energy of any sampled rotation (one Haar batch per
        # dimension, reused across parameter draws)
        from rpolar.linalg import haar_rotations

        for n in (2, 3, 4, 5):
            rots = haar_rotations(n, 10_000, rng=n)
            eye = np.eye(n)
            for case in range(200):
                d = np.sort(RNG.uniform(0.2, 3.5, n))[::-1]
                if not np.all(np.diff(d) < 0):
                    continue
                reduced = rp.rpolar_diag(d).reduced_energy
                x = rots * d[None, :] - eye
                s = (x + np.swapaxes(x, -1, -2)) / 2.0
                sampled_min = float(np.sum(s * s, axis=(-2, -1)).min())
                assert reduced <= sampled_min + 1e-9

    def test_active_tie_warns(self):
        with pytest.warns(TiesNotStrictWarning):
            ms = rp.rpolar_diag([3.0, 2.0, 2.0])
        assert "non_isolated" in ms.flags
        assert ms.reduced_energy == pytest.approx(0.5 * 1.0 + 1.0)
        for r in ms.rotations:
            assert rp.energy(r, [3.0, 2.0, 2.0]) == pytest.approx(
                ms.reduced_energy, rel=1e-12
            )

    def test_tie_inside_pair_is_isolated(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ms = rp.rpolar_diag([3.0, 3.0, 0.5])
        assert "non_isolated" not in ms.flags
        assert ms.reduced_energy == pytest.approx(0.25)


class TestBoundaryConsistency:
    # Leading pair sum 2 + t with t straddling the boundary tolerance; the
    # trailing entries are too small to form further pairs.
    @pytest.mark.filterwarnings("ignore::UserWarning")
    @settings(max_examples=60, deadline=None)
    @given(
        t=st.floats(-1e-8, 1e-8)
        | st.sampled_from([BOUNDARY_TOL, -BOUNDARY_TOL, 5e-10, -5e-10]),
        u=st.floats(0.0, 0.4),
        rest=st.lists(st.floats(0.05, 0.5), max_size=2),
    )
    @example(t=5e-10, u=5e-10, rest=[0.5])
    def test_entry_points_agree(self, t, u, rest):
        d = np.array([1.0 + u, 1.0 + (t - u), *rest])
        n = d.size
        ms = rp.rpolar_diag(d)
        trace = rp.scheme_minimize(PartitionLabel.singletons(n), d)
        assert ms.k == rp.optimal_k(d) == len(trace.final_label.pairs())
        sd = np.sort(d)[::-1]
        if ms.k == 0:
            near = abs(sd[0] + sd[1] - 2.0) <= BOUNDARY_TOL
            assert ("boundary_case" in ms.flags) == near
        assert len(rp.realize(ms.label, d)) == 2**ms.k
        for point in rp.enumerate_critical(d):
            for sub in point.label.pairs():
                i, j = sub.indices
                assert sub.det_sign in _pair_signs(d[i - 1], d[j - 1])


class TestOneValue:
    """The reduced energy is the optimal label's critical value, bitwise."""

    def test_diag_unsorted(self):
        rng = np.random.default_rng(161)
        for _ in range(300):
            d = rng.uniform(0.1, 5.0, int(rng.integers(2, 9)))
            ms = rp.rpolar_diag(d)
            assert ms.reduced_energy == rp.critical_value(ms.label, d)

    def test_signed_diag(self):
        rng = np.random.default_rng(162)
        for _ in range(150):
            n = int(rng.integers(2, 9))
            signs = np.ones(n)
            signs[rng.choice(n, size=2 * int(rng.integers(0, n // 2 + 1)), replace=False)] = -1
            d = signs * rng.uniform(0.1, 5.0, n)
            ms = rp.rpolar_diag(d)
            assert ms.reduced_energy == rp.critical_value(ms.label, np.abs(d))

    @pytest.mark.filterwarnings("error")
    def test_overflow_is_inf(self):
        # squares overflow to inf, as in critical_value, not to an OverflowError
        for d in ([1e200, 1.0], [3e154, 1.0, 0.5]):
            ms = rp.rpolar_diag(d)
            assert ms.reduced_energy == np.inf
            assert rp.critical_value(ms.label, d) == np.inf

    def test_full(self):
        rng = np.random.default_rng(163)
        for _ in range(150):
            n = int(rng.integers(2, 9))
            f = rng.standard_normal((n, n)) + rng.uniform(0.0, 3.0) * np.eye(n)
            if np.linalg.det(f) <= 0:
                f[:, 0] *= -1.0
            ms = rp.rpolar_full(f)
            assert ms.reduced_energy == rp.critical_value(ms.label, np.linalg.svd(f)[1])

    @pytest.mark.filterwarnings("ignore::rpolar.errors.TiesNotStrictWarning")
    def test_diag_ties_and_boundary(self):
        rng = np.random.default_rng(165)
        edge = [1.0, 1.0 + 5e-10, 1.0 - 5e-10]
        for _ in range(300):
            n = int(rng.integers(2, 40))
            pool = np.concatenate([rng.uniform(0.1, 3.0, int(rng.integers(1, 5))), edge])
            d = rng.choice(pool, n)
            ms = rp.rpolar_diag(d)
            assert ms.reduced_energy == rp.critical_value(ms.label, d)

    def test_scheme_final_value_unsorted(self):
        rng = np.random.default_rng(164)
        for _ in range(150):
            d = rng.uniform(0.2, 4.0, int(rng.integers(2, 8)))
            trace = rp.scheme_minimize(random_scheme_start(rng, d), d)
            assert trace.final_value == rp.rpolar_diag(d).reduced_energy


class TestRpolarFull:
    def test_rotation_input_costs_nothing(self):
        f = rp.random_rotation(4, 3)
        ms = rp.rpolar_full(f)
        assert ms.k == 0
        assert ms.reduced_energy == pytest.approx(0.0, abs=1e-12)
        assert len(ms.rotations) == 1
        np.testing.assert_allclose(ms.rotations[0], f, atol=1e-10)

    def test_diagonal_input_matches_diag_solver(self):
        ms = rp.rpolar_full(np.diag(D5))
        assert ms.k == 1
        assert ms.reduced_energy == pytest.approx(45 / 16, abs=1e-12)
        diag_ms = rp.rpolar_diag(D5)
        got = sorted(tuple(np.round(r, 10).reshape(-1)) for r in ms.rotations)
        want = sorted(tuple(np.round(r, 10).reshape(-1)) for r in diag_ms.rotations)
        assert got == want

    def test_isotropy_conjugation(self):
        # W(Q1 F Q2, Q1 Rb Q2) = W(F, Rb): minimize for a conjugated matrix
        # and check every returned rotation realizes the reduced energy
        g = rp.random_rotation(3, 11)
        h = rp.random_rotation(3, 12)
        f = g @ np.diag([3.0, 2.0, 0.5]) @ h.T
        ms = rp.rpolar_full(f)
        assert ms.reduced_energy == pytest.approx(0.75, abs=1e-12)
        assert len(ms.rotations) == 2
        for r in ms.rotations:
            assert rp.energy_weighted(r, f, 1.0, 0.0) == pytest.approx(0.75, rel=1e-10)

    def test_reflective_rejected(self):
        with pytest.raises(NonInvertibleOrReflective):
            rp.rpolar_full(np.diag([2.0, -1.0]))

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatch):
            rp.rpolar_full(np.zeros((0, 0)))


class TestRpolarClassical:
    def test_returns_polar_factor(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            f = rng.standard_normal((3, 3)) + 2.5 * np.eye(3)
            if np.linalg.det(f) <= 0:
                f = f.T @ f + 0.5 * np.eye(3)
            r = rp.rpolar_classical(f, 1.0, 1.0)
            np.testing.assert_allclose(r, rp.polar_decompose(f).rot, atol=1e-12)

    def test_psym_gives_identity(self):
        s = np.diag([2.0, 1.0]) + 0.3 * np.ones((2, 2))
        np.testing.assert_allclose(rp.rpolar_classical(s, 0.5, 2.0), np.eye(2), atol=1e-12)

    def test_non_classical_rejected(self):
        with pytest.raises(NonClassicalRange):
            rp.rpolar_classical(np.eye(2), 1.0, 0.5)

    def test_bad_weights_rejected(self):
        with pytest.raises(NonClassicalRange):
            rp.rpolar_classical(np.eye(2), 0.0, 1.0)

    @pytest.mark.parametrize("mu, mu_c", [(np.nan, np.nan), (np.inf, np.inf), (1.0, np.nan), (1.0, np.inf)])
    def test_non_finite_weights_rejected(self, mu, mu_c):
        with pytest.raises(NonClassicalRange):
            rp.rpolar_classical(np.eye(2), mu, mu_c)


class TestScheme:
    def test_worked_example_trace(self):
        start = label_of(((1,), 1), ((2, 5), -1), ((3,), -1), ((4,), -1))
        trace = rp.scheme_minimize(start, D5)
        assert trace.values == pytest.approx(
            [569 / 32, 345 / 32, 345 / 32, 45 / 16, 45 / 16], abs=1e-14
        )
        names = [s.name for s in trace.steps]
        assert names == ["sign-flip", "disentangle", "shift", "exhaust"]
        assert [s.changed for s in trace.steps] == [True, False, True, False]
        assert trace.final_label.same_partition(rp.rpolar_diag(D5).label)

    def test_optimal_start_is_fixed_point(self):
        start = rp.rpolar_diag(D5).label
        trace = rp.scheme_minimize(start, D5)
        assert all(not s.changed for s in trace.steps)
        assert trace.values == pytest.approx([45 / 16] * 5)

    def test_nested_overlap_disentangled(self):
        d = [4.0, 3.0, 2.5, 2.0]
        start = label_of(((1, 4), 1), ((2, 3), 1))
        trace = rp.scheme_minimize(start, d)
        dis = trace.steps[1]
        assert dis.value_before == pytest.approx(2.125)  # (4-2)^2/2 + (3-2.5)^2/2
        assert dis.value_after == pytest.approx(0.625)  # (4-3)^2/2 + (2.5-2)^2/2
        assert dis.value_after < dis.value_before
        assert trace.final_value == pytest.approx(rp.rpolar_diag(d).reduced_energy)

    def test_crossing_overlap_disentangled(self):
        d = [4.0, 3.0, 2.5, 2.0]
        start = label_of(((1, 3), 1), ((2, 4), 1))
        trace = rp.scheme_minimize(start, d)
        dis = trace.steps[1]
        assert dis.value_before == pytest.approx(1.625)
        assert dis.value_after == pytest.approx(0.625)

    def test_overlap_into_singletons(self):
        # inner pair sum below 2 after disentangling: {3,4} must split
        d = [4.0, 3.0, 0.9, 0.8]
        start = label_of(((1, 4), 1), ((2, 3), 1))
        trace = rp.scheme_minimize(start, d)
        final_pairs = [s.indices for s in trace.final_label.pairs()]
        assert final_pairs == [(1, 2)]
        assert trace.final_value == pytest.approx(rp.rpolar_diag(d).reduced_energy)

    def test_random_starts_monotone_and_optimal(self):
        for _ in range(60):
            n = int(RNG.integers(2, 8))
            d = np.sort(RNG.uniform(0.2, 4.0, n))[::-1]
            if not np.all(np.diff(d) < 0):
                continue
            start = random_scheme_start(RNG, d)
            trace = rp.scheme_minimize(start, d)
            vals = trace.values
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
            assert trace.final_label.same_partition(rp.rpolar_diag(d).label)
            assert trace.final_value == pytest.approx(
                rp.rpolar_diag(d).reduced_energy, rel=1e-12, abs=1e-12
            )

    def test_unsorted_user_order(self):
        d = [1.0, 4.0, 2.0, 0.25, 0.5]
        start = label_of(((2, 3), 1), ((1,), -1), ((4,), 1), ((5,), -1))
        trace = rp.scheme_minimize(start, d)
        assert trace.final_label.same_partition(rp.rpolar_diag(d).label)

    def test_infeasible_start_rejected(self):
        with pytest.raises(InfeasibleLabel):
            rp.scheme_minimize(label_of(((1, 2), 1)), [0.9, 0.8])

    def test_wrong_size_start_rejected(self):
        with pytest.raises(InfeasibleLabel):
            rp.scheme_minimize(label_of(((1, 3), -1), ((2,), 1)), [3.0, 2.0])

    def test_sign_flip_keeps_angle_signs_and_steps_chain(self):
        d = [1.9, 4.0, 2.0, 0.25, 0.5]
        start = PartitionLabel(
            subsets=(SubsetLabel((2, 3), -1, -1), SubsetLabel((1, 5), 1, -1), SubsetLabel((4,), -1))
        )
        trace = rp.scheme_minimize(start, d)
        flip = trace.steps[0]
        assert flip.label_before == start
        assert [(s.indices, s.det_sign, s.angle_sign) for s in flip.label_after.subsets] == [
            ((1, 5), 1, -1),
            ((2, 3), 1, -1),
            ((4,), 1, 1),
        ]
        for before, after in zip(trace.steps, trace.steps[1:]):
            assert after.label_before == before.label_after
            assert after.value_before == before.value_after


class TestReflectNegative:
    """Signed diagonals: ``rpolar_diag`` reduces them to |D| by the
    reflection J = diag(sign d_i)."""

    def test_positive_passthrough(self):
        ms = rp.rpolar_diag([2.0, 1.0])
        assert "reflected" not in ms.flags
        assert ms.reduced_energy == 0.5
        for r in ms.rotations:
            assert rp.is_critical(r, [2.0, 1.0])
            assert rp.energy(r, [2.0, 1.0]) == pytest.approx(0.5, rel=1e-12)

    def test_orientation_reversed_flag(self):
        with pytest.raises(DegenerateD, match="orientation"):
            rp.rpolar_diag([2.0, -3.0])
        # one more negative entry makes det J = +1: |D| = [2, 3], J = -I
        ms = rp.rpolar_diag([-2.0, -3.0])
        base = rp.rpolar_diag([2.0, 3.0])
        for r, b in zip(ms.rotations, base.rotations):
            assert r.tobytes() == (b @ np.diag([-1.0, -1.0])).tobytes()

    def test_even_sign_composition_energy(self):
        d_signed = np.array([-2.0, -3.0])
        ms = rp.rpolar_diag(d_signed)
        assert "reflected" in ms.flags
        base = rp.rpolar_diag([2.0, 3.0])
        assert ms.reduced_energy == base.reduced_energy
        for r in ms.rotations:
            assert is_rotation(r)
            assert rp.energy(r, d_signed) == pytest.approx(
                ms.reduced_energy, rel=1e-12
            )

    def test_energy_invariance_under_reflection(self):
        # ||sym(R D - I)||^2 == ||sym((R J)(J D) - I)||^2 for random R
        d_signed = np.array([2.5, -1.5, -0.5, 1.2])
        j = np.diag(np.sign(d_signed))
        for seed in range(5):
            r = rp.random_rotation(4, seed)
            lhs = rp.energy(r, d_signed)
            rhs = rp.frob_norm_sq(rp.sym((r @ j) @ np.diag(np.abs(d_signed)) - np.eye(4)))
            assert lhs == pytest.approx(rhs, rel=1e-13)
        # so R minimizes D exactly when R J minimizes |D|
        ms = rp.rpolar_diag(d_signed)
        assert "reflected" in ms.flags
        for r in ms.rotations:
            assert rp.energy(r @ j, np.abs(d_signed)) == pytest.approx(ms.reduced_energy, rel=1e-13)

    @pytest.mark.parametrize(
        "bad",
        [[0.0, 1.0], [2.0, -2.0], [1.0, 3.0, -3.0], [np.inf, -1.0], [2.0, np.nan, -1.0]],
    )
    def test_degenerate_rejected(self, bad):
        with pytest.raises(DegenerateD) as exc:
            rp.rpolar_diag(bad)
        # the message names the real fault, not a zero entry at scale inf
        assert ("finite" in str(exc.value)) == (not np.all(np.isfinite(bad)))

    def test_signed_solver_rejects_reversed(self):
        with pytest.raises(DegenerateD):
            rp.rpolar_diag([2.0, -3.0, 1.0])

    @pytest.mark.parametrize("scale", [1e11, 1e12, 1e100])
    def test_huge_signed_entries(self, scale):
        # the pair-sum test must not compare the diagonal's own placeholder
        ms = rp.rpolar_diag([-2.0 * scale, -3.0 * scale])
        assert "reflected" in ms.flags
        assert ms.reduced_energy == rp.rpolar_diag([2.0 * scale, 3.0 * scale]).reduced_energy
        with pytest.raises(DegenerateD, match="cancel"):
            rp.rpolar_diag([2.0 * scale, -2.0 * scale, -scale])


def _spectrum(rng, n, k):
    """Descending values with exactly k leading pairs, 0.2 from the boundary."""
    top = np.sort(rng.uniform(1.1, 3.0, 2 * k))[::-1]
    rest = np.sort(rng.uniform(0.1, 0.9, n - 2 * k))[::-1]
    return np.concatenate([top, rest])


def _full_matrix(rng, d):
    n = d.size
    return rp.random_rotation(n, rng) @ np.diag(d) @ rp.random_rotation(n, rng).T


def _full_stationarity(r, f):
    # critical points of ||sym(R^T F - I)||^2 have skew((R^T F - I)^2) = 0
    x = r.T @ f - np.eye(f.shape[0])
    return rp.frob_norm(rp.skew(x @ x))


class TestLazyRotations:
    def test_length_is_two_to_k(self):
        rng = np.random.default_rng(1)
        for n, k in ((1, 0), (3, 0), (3, 1), (6, 3), (9, 4)):
            d = _spectrum(rng, n, k)
            f = _full_matrix(rng, d)
            for ms in (rp.rpolar_diag(rng.permutation(d)), rp.rpolar_full(f)):
                assert ms.k == k
                assert len(ms.rotations) == 2**k
                assert len(list(ms.rotations)) == 2**k

    def test_negative_and_out_of_range_indices(self):
        rng = np.random.default_rng(2)
        d = _spectrum(rng, 7, 3)
        for ms in (rp.rpolar_diag(d), rp.rpolar_full(_full_matrix(rng, d))):
            rot = ms.rotations
            for i in range(1, 9):
                assert rot[-i].tobytes() == rot[8 - i].tobytes()
            for bad in (8, 9, -9, 2**70, -(2**70)):
                with pytest.raises(IndexError):
                    rot[bad]
            with pytest.raises(TypeError):
                rot[1.0]
            assert [r.tobytes() for r in rot[1:6:2]] == [rot[i].tobytes() for i in (1, 3, 5)]

    def test_small_sets_indices_and_fresh_reads(self):
        # rpolar_full's direct path at n <= 3 keeps the sequence contract
        rng = np.random.default_rng(6)
        for n, k in ((2, 0), (2, 1), (3, 0), (3, 1)):
            ms = rp.rpolar_full(_full_matrix(rng, _spectrum(rng, n, k)))
            rot, count = ms.rotations, 2**k
            assert ms.k == k and len(rot) == count
            want = [rot[i].tobytes() for i in range(count)]
            for i in range(1, count + 1):
                assert rot[-i].tobytes() == want[count - i]
            for bad in (count, count + 1, -count - 1, 2**70, -(2**70)):
                with pytest.raises(IndexError):
                    rot[bad]
            with pytest.raises(TypeError):
                rot[1.0]
            assert [r.tobytes() for r in rot[::-1]] == want[::-1]
            assert [r.tobytes() for r in rot[1:]] == want[1:]
            # writing into a returned rotation changes no later read
            for r in rot:
                r[...] = np.nan
            rot[0][...] = np.nan
            last = rot[-1]
            last += 1.0
            assert [r.tobytes() for r in rot] == want
            assert [rot[i].tobytes() for i in range(count)] == want

    def test_iteration_matches_indexing_across_chunks(self):
        from rpolar.critical import CHUNK_BYTES

        rng = np.random.default_rng(3)
        n, k = 40, 9
        assert 2**k > CHUNK_BYTES // (8 * n * n)  # several chunks, the last one partial
        d = _spectrum(rng, n, k)
        for ms in (rp.rpolar_diag(rng.permutation(d)), rp.rpolar_full(_full_matrix(rng, d))):
            listed = list(ms.rotations)
            assert len(listed) == 2**k
            for i, r in enumerate(listed):
                assert r.tobytes() == ms.rotations[i].tobytes()

    def test_full_matches_conjugated_relative_minimizers(self):
        # the previous construction: Q W R W^T for each relative minimizer R
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = int(rng.integers(1, 13))
            f = rng.standard_normal((n, n)) + rng.uniform(0.0, 3.0) * np.eye(n)
            if np.linalg.det(f) <= 0:
                f[:, 0] *= -1.0
            v, s, wh = np.linalg.svd(f)
            q, w = v @ wh, wh.T
            ms = rp.rpolar_full(f)
            relative = rp.rpolar_diag(s)
            assert ms.k == relative.k and len(ms.rotations) == len(relative.rotations)
            for r, rel in zip(ms.rotations, relative.rotations):
                np.testing.assert_allclose(r, q @ w @ rel @ w.T, rtol=0, atol=1e-13)

    def test_reflected_set_equals_reflection_product(self):
        d_signed = np.array([-3.0, 2.8, -2.5, 2.2, 1.9, 1.6, 0.5])
        ms = rp.rpolar_diag(d_signed)
        base = rp.rpolar_diag(np.abs(d_signed))
        assert ms.k == base.k == 3
        assert "reflected" in ms.flags
        j = np.diag(np.sign(d_signed))
        assert len(ms.rotations) == 8
        for r, b in zip(ms.rotations, base.rotations):
            assert r.tobytes() == (b @ j).tobytes()

    @pytest.mark.parametrize("entry", ["diag", "full"])
    def test_huge_set_is_lazy(self, entry):
        import tracemalloc

        n, k = 200, 100
        rng = np.random.default_rng(5)
        d = _spectrum(rng, n, k)
        f = _full_matrix(rng, d) if entry == "full" else None
        tracemalloc.start()
        try:
            ms = rp.rpolar_diag(d) if entry == "diag" else rp.rpolar_full(f)
            picked = [ms.rotations[i] for i in (0, -1, 2**99)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * n * n * 8
        assert ms.k == k
        # builtin len() stops at sys.maxsize, as for range
        assert ms.rotations.__len__() == 2**100
        scale = 1.0 + float(np.sum(d * d))
        for r in picked:
            assert is_rotation(r)
            if entry == "diag":
                assert rp.energy(r, d) == pytest.approx(ms.reduced_energy, rel=1e-10)
                assert rp.is_critical(r, d)
            else:
                assert rp.energy_weighted(r, f, 1.0, 0.0) == pytest.approx(
                    ms.reduced_energy, rel=1e-10
                )
                assert _full_stationarity(r, f) <= 1e-9 * scale
        # minimizer 2^99 flips only the first pair's angle sign: a rank-2 change
        assert np.linalg.matrix_rank(picked[2] - picked[0]) == 2


def _general_path(f):
    """k, flags, label, cosines and value of ``rpolar_diag`` on the singular
    values, and the rotations of the frame family on the same SVD."""
    v, s, wh = np.linalg.svd(f)
    ref = rp.rpolar_diag(s)
    pairs = [(2 * p, 2 * p + 1, 1) for p in range(ref.k)]
    return ref, RotationFamily([1.0] * s.size, pairs, s.tolist(), v, wh)


def _small_inputs():
    """Seeded F at n = 1, 2, 3 and the edge cases of the direct path."""
    rng = np.random.default_rng(2601)
    for n in (1, 2, 3):
        for lo, hi in ((1.0, 3.0), (0.2, 1.3), (0.95, 1.05), (3e-4, 3e3)):
            for _ in range(40):
                s = np.sort(rng.uniform(lo, hi, n))[::-1]
                yield rp.random_rotation(n, rng) @ np.diag(s) @ rp.random_rotation(n, rng).T
    spectra = [[1.3, 0.7 + t, 0.5] for t in (5e-10, -5e-10, BOUNDARY_TOL, -BOUNDARY_TOL)]
    # an active tie (non-isolated), a tie inside the pair and all tied
    spectra += [[2.5, 1.0, 1.0], [1.5, 1.5, 0.5], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]
    spectra += [list(10.0**e * np.array([1.7, 1.1, 0.4])) for e in range(-6, 7)]
    for s in spectra:
        for n in (1, 2, 3):
            yield np.diag(s[:n])
            yield rp.random_rotation(n, rng) @ np.diag(s[:n]) @ rp.random_rotation(n, rng).T


class TestSmallFull:
    """``rpolar_full`` at n <= 3 builds its rotations directly from the SVD:
    the frame family's rotations, with ``rpolar_diag``'s results on the
    singular values."""

    @pytest.mark.filterwarnings("ignore::rpolar.errors.TiesNotStrictWarning")
    def test_agrees_with_general_path(self):
        flags = set()
        for f in _small_inputs():
            ms, (ref, family) = rp.rpolar_full(f), _general_path(f)
            assert (ms.k, ms.flags, ms.label) == (ref.k, ref.flags, ref.label)
            assert [c.hex() for c in ms.cos_alphas] == [c.hex() for c in ref.cos_alphas]
            assert ms.reduced_energy.hex() == ref.reduced_energy.hex()
            assert len(ms.rotations) == len(family)
            for r, q in zip(ms.rotations, family):
                assert np.max(np.abs(r - q)) <= 1e-15
            flags.update(ms.flags)
        assert flags == {"boundary_case", "non_isolated"}

    def test_errors(self):
        rng = np.random.default_rng(2602)
        for n in (1, 2, 3):
            q = rp.random_rotation(n, rng)
            flip = np.diag([1.0] * (n - 1) + [-1.0])
            with pytest.raises(NonInvertibleOrReflective):
                rp.rpolar_full(q @ np.diag(np.linspace(2.0, 0.5, n)) @ flip)
            # at n = 1 only zero is rank deficient
            for bad in (np.zeros((n, n)), q @ np.diag([1.0] * (n - 1) + [1e-13 * (n > 1)])):
                with pytest.raises(Degenerate):
                    rp.rpolar_full(bad)
            for value in (np.nan, np.inf, -np.inf):
                f = q.copy()
                f[n - 1, 0] = value
                with pytest.raises(Degenerate):
                    rp.rpolar_full(f)
        with pytest.raises(Degenerate):
            rp.rpolar_full(np.outer([1.0, 2.0, 3.0], [0.5, -1.0, 2.0]))

    def test_no_determinant_factorization(self, monkeypatch):
        # det F's sign comes from the SVD factors, not from an LU of F
        f = _full_matrix(np.random.default_rng(2603), np.array([2.5, 1.2, 0.5]))

        def no_det(*args, **kwargs):
            raise AssertionError("np.linalg.det called")

        monkeypatch.setattr(np.linalg, "det", no_det)
        assert rp.rpolar_full(f).k == 1
        with pytest.raises(NonInvertibleOrReflective):
            rp.rpolar_full(f @ np.diag([1.0, 1.0, -1.0]))

    @pytest.mark.parametrize("d", [[2.5, 1.0, 1.0], [3.0, 2.0, 2.0, 0.5, 0.25]])
    @pytest.mark.parametrize("entry", ["diag", "full"])
    def test_tie_warning_points_at_caller(self, d, entry):
        with pytest.warns(TiesNotStrictWarning) as record:
            ms = rp.rpolar_diag(d) if entry == "diag" else rp.rpolar_full(np.diag(d))
        assert "non_isolated" in ms.flags
        assert [w.filename for w in record] == [__file__]


def _streamed_sets(rng, n=40, k=9):
    """Minimizer sets of the identity, reflection and SVD frames, whose
    iteration takes several chunks, the last one partial."""
    from rpolar.critical import CHUNK_BYTES

    step = CHUNK_BYTES // (8 * n * n)
    assert 2 * step < 2**k and 2**k % step  # several chunks, the last one partial
    d = _spectrum(rng, n, k)
    signs = np.ones(n)
    signs[rng.choice(n, size=4, replace=False)] = -1.0
    reflected = rp.rpolar_diag(signs * rng.permutation(d))
    assert "reflected" in reflected.flags
    return [rp.rpolar_diag(rng.permutation(d)), reflected, rp.rpolar_full(_full_matrix(rng, d))]


def _data_addresses(rotations):
    """Where each streamed rotation starts in memory; keeps no view alive."""
    return [r.__array_interface__["data"][0] for r in rotations]


class TestStreamedIteration:
    """Iteration yields views into chunk memory that is reused only once no
    view of it is alive, so whatever a caller keeps never changes."""

    def test_repeated_lists_are_equal_and_share_no_memory(self):
        for ms in _streamed_sets(np.random.default_rng(31)):
            lists = [list(ms.rotations) for _ in range(3)]
            for a, b in ((0, 1), (0, 2), (1, 2)):
                for r, s in zip(lists[a], lists[b]):
                    assert r.tobytes() == s.tobytes()
                    assert not np.shares_memory(r, s)

    def test_kept_view_is_unchanged(self):
        sets = _streamed_sets(np.random.default_rng(32))
        for ms in sets:
            it = iter(ms.rotations)
            kept = next(it)
            expected = ms.rotations[0].tobytes()
            for _ in it:
                pass
            assert kept.tobytes() == expected
            # second full passes over every set, this one included
            for other in sets:
                for _ in other.rotations:
                    pass
            assert kept.tobytes() == expected

    def test_interleaved_iterators_match_indexing(self):
        rng = np.random.default_rng(33)
        # chunks of 81 and of 227 rotations, so their ends do not line up
        first = _streamed_sets(rng, n=40, k=9)
        second = _streamed_sets(rng, n=24, k=9)
        for a, b in zip(first, second[::-1]):
            for i, (r, s) in enumerate(zip(a.rotations, b.rotations)):
                assert r.tobytes() == a.rotations[i].tobytes()
                assert s.tobytes() == b.rotations[i].tobytes()

    def test_threads_match_indexing(self):
        import sys
        import threading

        rng = np.random.default_rng(34)
        sets = _streamed_sets(rng) + _streamed_sets(rng, n=24, k=9)[:1]
        mismatches = [None] * len(sets)

        def stream(t):
            rotations = sets[t].rotations
            mismatches[t] = sum(
                r.tobytes() != rotations[i].tobytes() for i, r in enumerate(rotations)
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=stream, args=(t,)) for t in range(len(sets))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == [0] * len(sets)

    def test_second_pass_builds_into_first_pass_buffers(self):
        import threading

        from rpolar.critical import CHUNK_BYTES

        passes = []

        def stream():
            # a fresh thread starts with no chunk buffers in use
            for ms in _streamed_sets(np.random.default_rng(35)):
                first = _data_addresses(ms.rotations)
                # takes the first pass's chunk memory, were it freed
                blocker = np.ones(4 * CHUNK_BYTES // 8)
                passes.append((first, _data_addresses(ms.rotations)))
                del blocker

        thread = threading.Thread(target=stream)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert len(passes) == 3
        for first, second in passes:
            assert first == second
