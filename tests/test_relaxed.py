import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rpolar as rp
from rpolar.critical import BOUNDARY_TOL, PartitionLabel, SubsetLabel, _pair_signs
from rpolar.errors import (
    DegenerateD,
    DimensionMismatch,
    InfeasibleLabel,
    NonClassicalRange,
    NonInvertibleOrReflective,
    TiesNotStrictWarning,
)
from util import random_scheme_start

RNG = np.random.default_rng(271828)

D5 = [4.0, 2.0, 1.0, 0.5, 0.25]


def label_of(*subs):
    return PartitionLabel(subsets=tuple(SubsetLabel(s, g) for s, g in subs))


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
            assert rp.is_rotation(r)
            assert rp.energy(r, D5) == pytest.approx(45 / 16, rel=1e-12)
            assert rp.is_critical(r, D5, tol=1e-9)

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


class TestReflectNegative:
    def test_positive_passthrough(self):
        info = rp.reflect_negative([2.0, 1.0])
        assert not info.orientation_reversed
        np.testing.assert_array_equal(info.signs, [1.0, 1.0])
        np.testing.assert_array_equal(info.abs_params.d, [2.0, 1.0])

    def test_orientation_reversed_flag(self):
        info = rp.reflect_negative([2.0, -3.0])
        assert info.det_sign == -1
        assert info.orientation_reversed
        np.testing.assert_array_equal(info.abs_params.d, [2.0, 3.0])
        np.testing.assert_array_equal(info.reflection(), np.diag([1.0, -1.0]))

    def test_even_sign_composition_energy(self):
        d_signed = np.array([-2.0, -3.0])
        ms = rp.rpolar_signed_diag(d_signed)
        assert "reflected" in ms.flags
        base = rp.rpolar_diag([2.0, 3.0])
        assert ms.reduced_energy == base.reduced_energy
        for r in ms.rotations:
            assert rp.is_rotation(r)
            assert rp.energy(r, d_signed) == pytest.approx(
                ms.reduced_energy, rel=1e-12
            )

    def test_energy_invariance_under_reflection(self):
        # ||sym(R D - I)||^2 == ||sym((R J)(J D) - I)||^2 for random R
        d_signed = np.array([2.5, -1.5, -0.5, 1.2])
        info = rp.reflect_negative(d_signed)
        j = info.reflection()
        for seed in range(5):
            r = rp.random_rotation(4, seed)
            lhs = rp.energy(r, d_signed)
            rhs = rp.frob_norm_sq(rp.sym((r @ j) @ np.diag(np.abs(d_signed)) - np.eye(4)))
            assert lhs == pytest.approx(rhs, rel=1e-13)

    @pytest.mark.parametrize(
        "bad",
        [[0.0, 1.0], [2.0, -2.0], [1.0, 3.0, -3.0], [np.inf, -1.0], [2.0, np.nan, -1.0]],
    )
    def test_degenerate_rejected(self, bad):
        with pytest.raises(DegenerateD) as exc:
            rp.reflect_negative(bad)
        # the message names the real fault, not a zero entry at scale inf
        assert ("finite" in str(exc.value)) == (not np.all(np.isfinite(bad)))

    def test_signed_solver_rejects_reversed(self):
        with pytest.raises(DegenerateD):
            rp.rpolar_signed_diag([2.0, -3.0, 1.0])


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

    def test_iteration_matches_indexing_across_chunks(self):
        from rpolar.relaxed import CHUNK_BYTES

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
        ms = rp.rpolar_signed_diag(d_signed)
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
            assert rp.is_rotation(r)
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
