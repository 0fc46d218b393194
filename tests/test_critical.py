import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rpolar as rp
from rpolar.critical import (
    BOUNDARY_TOL,
    MAX_LISTING_ENTRIES,
    DiagParams,
    PartitionLabel,
    SubsetLabel,
    _critical_table,
)
from rpolar.errors import (
    DegenerateD,
    DimensionMismatch,
    InfeasibleLabel,
    InvalidWeights,
    TiesNotStrictWarning,
    TooLarge,
)
from util import is_rotation, label_of, random_realizable_label, reference_labels

RNG = np.random.default_rng(314159)

D5 = [4.0, 2.0, 1.0, 0.5, 0.25]

WORKED_START = PartitionLabel(
    subsets=(
        SubsetLabel((1,), 1),
        SubsetLabel((2, 5), -1),
        SubsetLabel((3,), -1),
        SubsetLabel((4,), -1),
    )
)


class TestDiagParams:
    def test_sorting_metadata(self):
        p = DiagParams.from_values([1.0, 4.0, 2.0])
        np.testing.assert_array_equal(p.sorted_d, [4.0, 2.0, 1.0])
        assert p.strict
        # the permutation P[order[s], s] = 1 maps the sorted frame back to
        # the user frame
        perm = np.eye(3)[:, p.order]
        np.testing.assert_array_equal(perm @ np.diag(p.sorted_d) @ perm.T, np.diag(p.d))

    def test_ties_not_strict(self):
        assert not DiagParams.from_values([2.0, 2.0, 1.0]).strict

    @pytest.mark.parametrize("bad", [[1.0, -2.0], [0.0, 1.0], [np.nan, 1.0], []])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(DegenerateD):
            DiagParams.from_values(bad)


class TestEnergy:
    def test_identity_rotation(self):
        d = np.array([3.0, 1.5, 0.5])
        assert rp.energy(np.eye(3), d) == pytest.approx(np.sum((d - 1) ** 2))

    def test_worked_5x5_identity_value(self):
        assert rp.energy(np.eye(5), D5) == pytest.approx(173 / 16, abs=1e-14)

    def test_matches_entrywise_expansion(self):
        # independent oracle: expand sym and the square sum with loops
        r = rp.random_rotation(4, RNG)
        d = np.ones(4)
        x = r @ np.diag(d) - np.eye(4)
        acc = 0.0
        for i in range(4):
            for j in range(4):
                acc += (0.5 * (x[i, j] + x[j, i])) ** 2
        assert rp.energy(r, d) == pytest.approx(acc, rel=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            rp.energy(np.eye(2), [1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatch):
            rp.energy(np.ones((2, 3)), [1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, bad):
        for check in (rp.energy, rp.is_critical, rp.riemannian_gradient):
            with pytest.raises(DegenerateD, match="finite"):
                check(np.eye(2), [bad, 1.0])


class TestEnergyWeighted:
    def test_equal_weights_collapse(self):
        r = rp.random_rotation(3, RNG)
        f = RNG.standard_normal((3, 3)) + 2 * np.eye(3)
        x = r.T @ f - np.eye(3)
        assert rp.energy_weighted(r, f, 2.0, 2.0) == pytest.approx(
            2.0 * rp.frob_norm_sq(x), rel=1e-12
        )

    def test_zero_at_identity(self):
        assert rp.energy_weighted(np.eye(3), np.eye(3), 1.0, 0.0) == 0.0

    def test_two_path_evaluation(self):
        r = rp.random_rotation(3, RNG)
        f = RNG.standard_normal((3, 3))
        mu, mu_c = 1.7, 0.4
        x = r.T @ f - np.eye(3)
        expected = mu * rp.frob_norm_sq(rp.sym(x)) + mu_c * rp.frob_norm_sq(rp.skew(x))
        assert rp.energy_weighted(r, f, mu, mu_c) == pytest.approx(expected, rel=1e-13)

    def test_reduces_to_diagonal_energy(self):
        # for F = Rb R D the weighted (1, 0) energy equals energy(R, D)
        d = np.array([2.0, 1.3, 0.4])
        r = rp.random_rotation(3, RNG)
        rbar = rp.random_rotation(3, RNG)
        f = rbar @ r @ np.diag(d)
        assert rp.energy_weighted(rbar, f, 1.0, 0.0) == pytest.approx(
            rp.energy(r, d), rel=1e-12
        )

    def test_negative_weights_rejected(self):
        with pytest.raises(InvalidWeights):
            rp.energy_weighted(np.eye(2), np.eye(2), -1.0, 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            rp.energy_weighted(np.eye(2), np.eye(3), 1.0, 0.0)

    @pytest.mark.parametrize("mu, mu_c", [(np.nan, 0.0), (1.0, np.nan), (np.inf, 0.0), (1.0, np.inf)])
    def test_non_finite_weights_rejected(self, mu, mu_c):
        with pytest.raises(InvalidWeights):
            rp.energy_weighted(np.eye(2), np.eye(2), mu, mu_c)


def planar(alpha, det=1):
    c, s = np.cos(alpha), np.sin(alpha)
    if det == 1:
        return np.array([[c, -s], [s, c]])
    return np.array([[c, s], [s, -c]])


class TestIsCritical:
    def test_dimension_mismatch(self):
        for check in (rp.is_critical, rp.riemannian_gradient):
            with pytest.raises(DimensionMismatch):
                check(np.eye(3), [1.0, 2.0])

    def test_defect_is_twice_the_gradient_norm(self):
        # independent oracle: ||skew((R D - I)^2)||_F written out directly
        rng = np.random.default_rng(31)
        for n in range(1, 8):
            for _ in range(20):
                d = rng.uniform(0.1, 4.0, n)
                r = rp.random_rotation(n, rng)
                x = r @ np.diag(d) - np.eye(n)
                direct = rp.frob_norm(x @ x - (x @ x).T) / 2.0
                got = 2.0 * rp.frob_norm(rp.riemannian_gradient(r, d))
                assert got == pytest.approx(direct, rel=1e-12, abs=1e-14)

    def test_identity_always_critical(self):
        for d in ([3.0, 1.0], [4.0, 2.0, 1.0, 0.5, 0.25], [0.3, 0.2]):
            assert rp.is_critical(np.eye(len(d)), d)

    def test_planar_block_critical(self):
        # direct arithmetic oracle: trace of RD - I vanishes at this angle,
        # so Cayley-Hamilton makes (RD - I)^2 a scalar matrix
        d = np.array([3.0, 1.0])
        r = planar(np.arccos(0.5))
        x = r @ np.diag(d) - np.eye(2)
        assert abs(np.trace(x)) <= 1e-14
        assert rp.frob_norm(rp.skew(x @ x)) <= 1e-14
        assert rp.is_critical(r, d)

    def test_generic_angle_not_critical(self):
        d = np.array([3.0, 1.0])
        r = planar(0.3)
        x = r @ np.diag(d) - np.eye(2)
        assert rp.frob_norm(rp.skew(x @ x)) > 1e-3
        assert not rp.is_critical(r, d)


class TestCriticalValue:
    def test_worked_start_label(self):
        assert rp.critical_value(WORKED_START, D5) == pytest.approx(569 / 32, abs=1e-14)

    def test_worked_optimal_label(self):
        label = label_of(((1, 2), 1), ((3,), 1), ((4,), 1), ((5,), 1))
        assert rp.critical_value(label, D5) == pytest.approx(45 / 16, abs=1e-14)

    def test_all_singleton_positive(self):
        d = np.array([2.5, 1.5, 0.75])
        label = PartitionLabel.singletons(3)
        assert rp.critical_value(label, d) == pytest.approx(np.sum((d - 1) ** 2))

    def test_pair_without_block_rejected(self):
        with pytest.raises(InfeasibleLabel):
            rp.critical_value(label_of(((1, 2), 1)), [1.0, 0.5])

    def test_wrong_size_rejected(self):
        with pytest.raises(InfeasibleLabel):
            rp.critical_value(PartitionLabel.singletons(2), [1.0, 2.0, 3.0])

    def test_comparison_identity_random_pairs(self):
        # merging {i},{j} into a det +1 pair changes the value by exactly
        # -(d_i + d_j - 2)^2 / 2
        for _ in range(200):
            di, dj = np.sort(RNG.uniform(0.3, 4.0, 2))[::-1]
            if di + dj <= 2.0 or di == dj:
                continue
            d = np.array([di, dj])
            merged = rp.critical_value(label_of(((1, 2), 1)), d)
            split = rp.critical_value(PartitionLabel.singletons(2), d)
            assert merged - split == pytest.approx(-0.5 * (di + dj - 2.0) ** 2, abs=1e-12)

    def test_values_added_left_to_right(self):
        # compensated summation (sum() of floats on Python 3.12+, or
        # math.fsum) rounds some of these sums differently, so the value
        # must be the left-to-right sum of the subset terms
        rng = np.random.default_rng(2718)
        rounds_differently = 0
        for _ in range(300):
            d = rng.uniform(0.1, 5.0, rng.integers(3, 10))
            label = random_realizable_label(rng, d)
            terms = []
            for s in label.subsets:
                di, dj = d[s.indices[0] - 1], d[s.indices[-1] - 1]
                if s.size == 1:
                    terms.append((di - 1.0) ** 2 if s.det_sign == 1 else (di + 1.0) ** 2)
                else:
                    terms.append(0.5 * (di - dj) ** 2 if s.det_sign == 1 else 0.5 * (di + dj) ** 2)
            total = 0.0
            for t in terms:
                total += t
            rounds_differently += math.fsum(terms) != total
            assert rp.critical_value(label, d) == total
            assert all(p.value == total for p in rp.realize(label, d))
        assert rounds_differently > 0


class TestRealize:
    def test_rhat_two_rotations(self):
        d = np.array([3.0, 2.0, 0.5])
        label = label_of(((1, 2), 1), ((3,), 1))
        points = rp.realize(label, d)
        assert len(points) == 2
        alpha = np.arccos(2.0 / 5.0)
        expected = np.eye(3)
        expected[:2, :2] = planar(alpha)
        np.testing.assert_allclose(points[0].rotation, expected, atol=1e-14)
        np.testing.assert_allclose(points[1].rotation, expected.T, atol=1e-14)
        for p in points:
            assert rp.is_critical(p.rotation, d)
            assert rp.energy(p.rotation, d) == pytest.approx(p.value, rel=1e-12)

    def test_all_singleton_identity(self):
        points = rp.realize(PartitionLabel.singletons(3), [1.5, 1.0, 0.5])
        assert len(points) == 1
        np.testing.assert_array_equal(points[0].rotation, np.eye(3))

    def test_parity_enforced(self):
        with pytest.raises(InfeasibleLabel):
            rp.realize(label_of(((1, 2), -1)), [5.0, 1.0])

    def test_det_negative_pair(self):
        d = np.array([5.0, 2.0, 1.0])
        label = label_of(((1, 3), -1), ((2,), -1))
        points = rp.realize(label, d)
        assert len(points) == 2
        expected = 0.5 * (5.0 + 1.0) ** 2 + (2.0 + 1.0) ** 2
        for p in points:
            assert np.linalg.det(p.rotation) == pytest.approx(1.0, abs=1e-12)
            assert rp.is_critical(p.rotation, d)
            assert rp.energy(p.rotation, d) == pytest.approx(expected, rel=1e-12)
            assert p.value == pytest.approx(expected, rel=1e-14)

    def test_det_negative_infeasible_when_close(self):
        with pytest.raises(InfeasibleLabel):
            rp.realize(label_of(((1, 2), -1), ((3,), -1)), [3.0, 1.5, 1.0])

    def test_input_angle_signs_ignored_and_order(self):
        d = [5.0, 3.0, 0.5, 2.5, 0.4]
        subs = [((1, 5), -1), ((2, 4), 1), ((3,), -1)]
        plus = rp.realize(label_of(*subs), d)
        minus = rp.realize(
            PartitionLabel(tuple(SubsetLabel(s, g, -1) for s, g in subs)), d
        )
        assert [p.label.to_dict() for p in plus] == [p.label.to_dict() for p in minus]
        for a, b in zip(plus, minus):
            assert a.rotation.tobytes() == b.rotation.tobytes()
            assert a.value == b.value
        # first pair slowest, +1 before -1 per pair; singletons keep +1
        angles = [[s.angle_sign for s in p.label.subsets] for p in plus]
        assert angles == [[1, 1, 1], [1, -1, 1], [-1, 1, 1], [-1, -1, 1]]
        assert plus[0].rotation[1, 3] == -plus[1].rotation[1, 3] != 0.0
        assert plus[0].rotation[0, 4] == -plus[2].rotation[0, 4] != 0.0


class TestEnumerate:
    def test_so1(self):
        points = list(rp.enumerate_critical([2.0]))
        assert len(points) == 1
        np.testing.assert_array_equal(points[0].rotation, [[1.0]])
        assert points[0].value == pytest.approx(1.0)

    def test_n2_count_and_values(self):
        points = list(rp.enumerate_critical([3.0, 1.0]))
        assert len(points) == 4
        assert sorted(p.value for p in points) == pytest.approx([2.0, 2.0, 4.0, 20.0])

    def test_n3_small_values_all_singleton(self):
        points = list(rp.enumerate_critical([0.5, 1 / 3, 0.25]))
        assert all(len(p.label.pairs()) == 0 for p in points)
        assert len(points) == 4  # sign patterns with even number of -1

    def test_consistency_and_stationarity(self):
        d = np.array([3.1, 2.2, 0.9, 0.4])
        for p in rp.enumerate_critical(d):
            assert abs(rp.energy(p.rotation, d) - p.value) <= 1e-10 * (1 + p.value)
            assert rp.is_critical(p.rotation, d)
            assert rp.frob_norm(rp.riemannian_gradient(p.rotation, d)) <= 1e-9
            assert is_rotation(p.rotation)

    def test_no_duplicates(self):
        points = list(rp.enumerate_critical([3.3, 2.4, 1.1]))
        keys = {tuple(np.round(p.rotation, 9).reshape(-1)) for p in points}
        assert len(keys) == len(points)

    def test_guard(self):
        # every pair admits both signs: 4 861 952 points of 100 entries fit
        # MAX_LISTING_ENTRIES at n = 10, and n = 11 passes it
        with pytest.raises(TooLarge):
            next(rp.enumerate_critical(10.0 + 7.0 * np.arange(11)))

    def test_ties_warn(self):
        with pytest.warns(TiesNotStrictWarning) as record:
            list(rp.enumerate_critical([2.0, 2.0]))
        # the warning points at the caller, not into the package
        assert [w.filename for w in record] == [__file__]

    def test_points_equal_realize_bitwise(self):
        d = np.array([4.0, 0.3, 2.6, 0.5, 1.9])
        points = list(rp.enumerate_critical(d))
        assert any(s.det_sign == -1 for p in points for s in p.label.pairs())
        at = 0
        while at < len(points):
            realized = rp.realize(points[at].label, d)
            for want in realized:
                got = points[at]
                assert got.label.to_dict() == want.label.to_dict()
                assert got.rotation.tobytes() == want.rotation.tobytes()
                assert got.value == want.value
                at += 1

    def test_realizable_labels_roundtrip(self):
        # every random realizable label appears among the enumerated ones
        d = np.sort(RNG.uniform(0.3, 4.0, 4))[::-1]
        enumerated = list(rp.enumerate_critical(d))
        for _ in range(10):
            label = random_realizable_label(RNG, d)
            value = rp.critical_value(label, d)
            matches = [
                p for p in enumerated if p.label.same_partition(label)
            ]
            assert matches, f"label {label} missing from enumeration"
            assert matches[0].value == pytest.approx(value, rel=1e-12)


class TestCriticalTable:
    CASES = [RNG.uniform(0.1, 5.0, n) for n in range(1, 8) for _ in range(2)] + [
        np.array([4.5, 1.8, 1.6, 0.7]),  # det -1 pairs
        np.array([0.7, 4.5, 1.6, 1.8, 0.2, 3.1]),  # unsorted
        10.0 + 7.0 * np.arange(6),  # every pair admits both signs
    ]

    @pytest.mark.parametrize("d", CASES, ids=lambda d: f"n{d.size}")
    def test_rows_match_reference_enumeration(self, d):
        labels = list(reference_labels(d))
        table = _critical_table(d)
        assert [table.label(row) for row in table.rows()] == labels
        values = np.array([rp.critical_value(label, d) for label in labels])
        assert table.values.tobytes() == values.tobytes()
        points = list(rp.enumerate_critical(d))
        expected = [p for label in labels for p in rp.realize(label, d)]
        assert len(points) == len(expected) == int(np.sum(2 ** (d.size - table.sizes)))
        for got, want in zip(points, expected):
            assert got.label == want.label
            assert got.rotation.tobytes() == want.rotation.tobytes()
            assert got.value == want.value

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.01, 1.99),
                st.floats(-1e-8, 1e-8)
                | st.sampled_from([0.0, BOUNDARY_TOL, -BOUNDARY_TOL, 2 * BOUNDARY_TOL]),
                st.booleans(),
            ),
            min_size=1,
            max_size=3,
        )
    )
    @example([(1.0, BOUNDARY_TOL, True), (0.5, BOUNDARY_TOL, False)])
    def test_boundary_margins_match_reference(self, pairs):
        # entries 2k-1 and 2k sum (True) or differ (False) by 2 + margin, so
        # their pair admits no sign, +1 only or both near BOUNDARY_TOL
        d = np.array(
            [v for x, m, on_sum in pairs for v in ((2.0 + m - x) if on_sum else (x + 2.0 + m), x)]
        )
        labels = list(reference_labels(d))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TiesNotStrictWarning)
            table = _critical_table(d)
        assert [table.label(row) for row in table.rows()] == labels
        values = np.array([rp.critical_value(label, d) for label in labels])
        assert table.values.tobytes() == values.tobytes()

    def test_ties_warn_and_match(self):
        d = np.array([2.0, 2.0, 1.0, 3.5])
        with pytest.warns(TiesNotStrictWarning) as record:
            table = _critical_table(d)
        assert [w.filename for w in record] == [__file__]
        assert [table.label(row) for row in table.rows()] == list(reference_labels(d))

    def test_guard(self):
        with pytest.raises(TooLarge):
            _critical_table(10.0 + 7.0 * np.arange(11))

    def test_largest_listing_within_the_bound(self):
        table = _critical_table(10.0 + 7.0 * np.arange(10))
        assert len(table.codes) == 460592
        points = int(np.sum(2 ** (10 - table.sizes)))
        assert points * 100 <= MAX_LISTING_ENTRIES < 2 * points * 100

    def test_pruned_walk_keeps_the_order(self):
        # pairs admitting no sign, +1 only and both: the walk skips the
        # first kind and must still list the labels in unpruned order
        rng = np.random.default_rng(28)
        for n in list(range(2, 9)) * 3 + [9]:
            d = rng.choice([0.2, 0.5, 0.8, 1.4, 2.2, 3.6, 5.0], n) + rng.uniform(0.0, 0.05, n)
            table = _critical_table(d)
            assert [table.label(row) for row in table.rows()] == list(reference_labels(d))

    def test_subset_rotations_sum_to_points(self):
        d = np.array([4.0, 0.3, 2.6, 0.5, 1.9])
        table = _critical_table(d)
        for row in table.rows():
            blocks = [table.subset_rotations(c) for c in row]
            for point, combo in zip(
                rp.realize(table.label(row), d), itertools.product(*blocks)
            ):
                assert point.rotation.tobytes() == sum(combo).tobytes()


class TestLabelJson:
    def test_round_trip(self):
        data = WORKED_START.to_dict()
        assert data["subsets"][0] == {"idx": [1], "det": 1, "angle": 1}
        again = PartitionLabel.from_dict(data)
        assert again == WORKED_START

    @pytest.mark.parametrize(
        "make",
        [
            lambda: PartitionLabel(subsets=()),
            lambda: PartitionLabel.from_dict({"subsets": [{"idx": [1], "det": 2}]}),
        ],
        ids=["empty", "det-2"],
    )
    def test_malformed_rejected(self, make):
        with pytest.raises(InfeasibleLabel):
            make()

    def test_parity(self):
        assert WORKED_START.det_parity == -1
        assert PartitionLabel.singletons(3).det_parity == 1
