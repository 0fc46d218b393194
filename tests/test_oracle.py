import numpy as np
import pytest

import rpolar as rp
from rpolar.errors import Degenerate, DimensionMismatch, RpolarError, StepTooLarge, TooLarge
from rpolar.oracle import _grad_batch, _jacobian_batch

RNG = np.random.default_rng(1618)


def planar(alpha):
    c, s = np.cos(alpha), np.sin(alpha)
    return np.array([[c, -s], [s, c]])


class TestGradient:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            rp.riemannian_gradient(np.eye(3), [1.0, 2.0])

    def test_zero_at_identity_for_diagonal(self):
        a = rp.riemannian_gradient(np.eye(2), [3.0, 1.0])
        np.testing.assert_allclose(a, np.zeros((2, 2)), atol=1e-15)

    def test_zero_at_enumerated_points(self):
        d = [3.0, 1.9, 0.7]
        for p in rp.enumerate_critical(d):
            assert rp.frob_norm(rp.riemannian_gradient(p.rotation, d)) <= 1e-9

    def test_is_skew(self):
        r = rp.random_rotation(4, RNG)
        a = rp.riemannian_gradient(r, [2.0, 1.5, 1.0, 0.5])
        np.testing.assert_allclose(a + a.T, np.zeros((4, 4)), atol=1e-14)

    def test_matches_central_differences(self):
        # sign convention: d/dt W(R exp(tB))|_0 = 2 <A, B>
        h = 1e-5
        for n in range(2, 7):
            for _ in range(100):
                d = np.sort(RNG.uniform(0.2, 3.5, n))[::-1]
                r = rp.random_rotation(n, RNG)
                a = rp.riemannian_gradient(r, d)
                b = rp.skew(RNG.standard_normal((n, n)))
                fd = (
                    rp.energy(r @ rp.exp_skew(b, h), d)
                    - rp.energy(r @ rp.exp_skew(b, -h), d)
                ) / (2 * h)
                an = 2.0 * rp.frob_inner(a, b)
                assert fd == pytest.approx(an, rel=1e-6, abs=1e-8)


def separated_strict(rng, n, margin=0.1):
    """Descending d whose gaps and pair margins |d_i +- d_j - 2| exceed ``margin``."""
    iu, ju = np.triu_indices(n, 1)
    while True:
        d = np.sort(rng.uniform(0.2, 3.5, n))[::-1]
        gaps = np.abs(np.diff(d))
        sums = np.abs(d[iu] + d[ju] - 2.0)
        diffs = np.abs(d[iu] - d[ju] - 2.0)
        if min(gaps.min(), sums.min(), diffs.min()) > margin:
            return d


class TestJacobian:
    def test_matches_central_differences(self):
        # J[B] = d/dt A(R exp(tB))|_0 in upper-triangle coordinates
        h = 1e-6
        for n in range(2, 7):
            iu, ju = np.triu_indices(n, 1)
            for _ in range(50):
                d = np.sort(RNG.uniform(0.2, 3.5, n))[::-1]
                r = rp.random_rotation(n, RNG)
                b = RNG.standard_normal(iu.size)
                bm = np.zeros((n, n))
                bm[iu, ju] = b
                bm[ju, iu] = -b
                fd = (
                    _grad_batch(r @ rp.exp_skew(bm, h), d)
                    - _grad_batch(r @ rp.exp_skew(bm, -h), d)
                ) / (2 * h)
                an = _jacobian_batch(r[None], d)[0] @ b
                np.testing.assert_allclose(an, fd[iu, ju], rtol=1e-6, atol=1e-7)

    def test_symmetric_at_critical_points(self):
        for d in ([3.0, 1.9, 0.7], [3.2, 2.1, 1.4, 0.6], [4.0, 2.0, 1.0, 0.5, 0.25]):
            for p in rp.enumerate_critical(d):
                jac = _jacobian_batch(p.rotation[None], np.asarray(d))[0]
                assert np.max(np.abs(jac - jac.T)) <= 1e-10

    def test_positive_definite_at_minimizers(self):
        rng = np.random.default_rng(31)
        for n in range(2, 7):
            for _ in range(20):
                d = separated_strict(rng, n)
                for r in rp.rpolar_diag(d).rotations:
                    jac = _jacobian_batch(r[None], d)[0]
                    assert np.linalg.eigvalsh(0.5 * (jac + jac.T))[0] > 1e-6


class TestConvergence:
    # Each start must reach the gradient tolerance, not only the best one
    # land within 1e-7 of the closed form.
    @pytest.mark.parametrize(
        "d, n_starts, seed",
        [
            # near-tied pairs: starts used to stall above gtol
            ([3.155, 3.078, 2.535, 0.261, 0.204], 20, 0),
            ([2.84, 1.873, 1.871, 1.255, 0.979, 0.977], 20, 0),
            # draw 176 of acceptance criterion 3: starts pass near a saddle
            (
                [
                    3.129817561056196,
                    2.4405958541626886,
                    2.439259799869267,
                    2.2321519206630054,
                    0.26053001308877677,
                ],
                300,
                1176,
            ),
        ],
    )
    def test_every_start_converges(self, d, n_starts, seed):
        report = rp.brute_force_min(d, n_starts=n_starts, seed=seed)
        assert report.n_converged == report.n_starts == n_starts
        assert report.best_value == pytest.approx(rp.rpolar_diag(d).reduced_energy, abs=1e-7)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_every_start_converges_large_n(self, n):
        d = np.sort(np.random.default_rng(n).uniform(0.2, 3.5, n))[::-1]
        report = rp.brute_force_min(d, n_starts=100, seed=n)
        assert report.n_converged == report.n_starts == 100
        assert report.best_value == pytest.approx(rp.rpolar_diag(d).reduced_energy, abs=1e-7)

    def test_large_d_converges(self):
        # energy near 5e5: the polish switch must scale with 1 + ||D||^2
        d = [1000.0, 1.0, 0.5]
        report = rp.brute_force_min(d, n_starts=100, seed=0)
        assert report.n_converged == 100
        assert report.best_value == pytest.approx(rp.rpolar_diag(d).reduced_energy, rel=1e-12)

    # ||D||^2 from 1.8e8 to 1e10: the gradient tolerance scales with it
    @pytest.mark.parametrize("d", [[1e4, 9e3, 2.0, 0.5], [3e4, 1.0, 0.5], [1e5, 1.0, 0.5]])
    def test_huge_d_converges(self, d):
        report = rp.brute_force_min(d, n_starts=100, seed=0)
        assert report.n_converged == 100
        assert report.tolerance == 4 * np.finfo(float).eps * (1 + np.dot(d, d))
        assert report.best_value == pytest.approx(rp.rpolar_diag(d).reduced_energy, rel=1e-12)

    def test_tolerance_absolute_at_unit_scale(self):
        report = rp.brute_force_min([3.0, 2.0, 0.5], n_starts=10, seed=0)
        assert report.tolerance == rp.oracle.GTOL

    def test_energy_blind_direction(self):
        # with d_2 = d_3 = 0 the energy ignores rotations in the (2, 3)
        # plane, so J has a zero row and column there
        report = rp.brute_force_min([1.5, 0.0, 0.0], n_starts=50, seed=3)
        assert report.n_converged == 50
        assert report.best_value == pytest.approx(2.25, abs=1e-10)

    def test_iterations_reported_per_start(self):
        report = rp.brute_force_min([3.0, 2.0, 0.5], n_starts=50, seed=5)
        assert report.iterations.shape == (50,)
        assert report.iterations.dtype.kind == "i"
        assert np.all((report.iterations >= 1) & (report.iterations < 2000))


class TestDescend:
    def test_start_at_minimizer_returns_it(self):
        d = [4.0, 2.0, 1.0]
        r0 = rp.rpolar_diag(d).rotations[0]
        res = rp.descend(r0, d)
        assert res.converged
        assert res.iterations == 0
        np.testing.assert_allclose(res.rotation, r0, atol=1e-12)
        assert res.value == pytest.approx(2.0, rel=1e-12)

    def test_n2_multistart_reaches_global(self):
        # each limit sits at one of the enumerated critical values 2, 4, 20
        d = [3.0, 1.0]
        best = np.inf
        for seed in range(100):
            res = rp.descend(rp.random_rotation(2, seed), d)
            assert res.converged
            assert res.grad_norm <= 1e-9
            assert min(abs(res.value - v) for v in (2.0, 4.0, 20.0)) <= 1e-6
            best = min(best, res.value)
        assert best == pytest.approx(2.0, abs=1e-8)

    def test_n3_global_value(self):
        report = rp.brute_force_min([4.0, 2.0, 1.0], n_starts=200, seed=4)
        assert report.best_value == pytest.approx(2.0, abs=1e-8)

    def test_iterates_on_manifold(self):
        res = rp.descend(rp.random_rotation(4, 5), [3.0, 2.0, 1.5, 0.5])
        assert rp.frob_norm(res.rotation.T @ res.rotation - np.eye(4)) <= 1e-10


class TestBruteForce:
    def test_identity_parameters(self):
        # D = I sits on the bifurcation boundary (d_i + d_j = 2 for every
        # pair), where the energy is quartically flat in skew directions;
        # the value pins the minimizer, the rotation only loosely
        report = rp.brute_force_min(np.ones(3), n_starts=50, seed=1)
        assert report.best_value == pytest.approx(0.0, abs=1e-10)
        np.testing.assert_allclose(report.best_rotation, np.eye(3), atol=0.05)

    def test_worked_5x5(self):
        report = rp.brute_force_min([4, 2, 1, 0.5, 0.25], n_starts=500, seed=2)
        assert report.best_value == pytest.approx(45 / 16, abs=1e-7)

    def test_n3_closed_form_cross_check(self):
        report = rp.brute_force_min([3.0, 2.0, 0.5], n_starts=200, seed=3)
        assert report.best_value == pytest.approx(0.75, abs=1e-7)

    def test_report_internally_consistent(self):
        d = [3.0, 2.0, 0.5]
        report = rp.brute_force_min(d, n_starts=100, seed=8)
        assert abs(report.best_value - rp.energy(report.best_rotation, d)) <= 1e-12
        assert rp.is_rotation(report.best_rotation)
        assert report.n_converged == report.n_starts == 100

    def test_deterministic(self):
        a = rp.brute_force_min([3.0, 1.5], n_starts=40, seed=9)
        b = rp.brute_force_min([3.0, 1.5], n_starts=40, seed=9)
        assert a.best_value == b.best_value
        np.testing.assert_array_equal(a.best_rotation, b.best_rotation)

    def test_guard(self):
        with pytest.raises(ValueError):
            rp.brute_force_min(np.linspace(3, 1, 9))

    @pytest.mark.parametrize("d, n_starts", [([], 10), ([2.0, 1.0], 0), ([2.0, 1.0], -5)])
    def test_nothing_to_search_rejected(self, d, n_starts):
        with pytest.raises(RpolarError):
            rp.brute_force_min(d, n_starts=n_starts)

    def test_start_count_bounded_before_drawing(self, monkeypatch):
        # at n = 3 each start holds 9 rotation and 9 Jacobian entries
        def no_draw(n, count, rng):
            raise AssertionError("drew starts")

        monkeypatch.setattr(rp.oracle, "haar_rotations", no_draw)
        with pytest.raises(TooLarge):
            rp.brute_force_min([3.0, 2.0, 1.0], n_starts=10**11)
        with pytest.raises(TooLarge):
            rp.brute_force_min([3.0, 2.0, 1.0], n_starts=2**24 // 18 + 1)
        with pytest.raises(AssertionError, match="drew starts"):
            rp.brute_force_min([3.0, 2.0, 1.0], n_starts=2**24 // 18)


class TestIntegrateFlow:
    def test_identity_start_is_constant(self):
        traj = rp.integrate_flow(np.eye(3), [4.0, 2.0, 1.0], step=0.05, t_end=2.0)
        for state in traj.states:
            np.testing.assert_allclose(state, np.eye(3), atol=1e-12)

    def test_n2_basin(self):
        traj = rp.integrate_flow(planar(0.1), [3.0, 1.0], step=0.02, t_end=200.0, gtol=1e-8)
        assert traj.energies[-1] == pytest.approx(2.0, abs=1e-9)
        final = traj.states[-1]
        assert final[0, 0] == pytest.approx(0.5, abs=1e-5)
        assert np.all(np.diff(traj.energies) <= 1e-9)

    def test_limit_is_enumerated_critical_point(self):
        d = [4.0, 2.0, 1.0]
        points = list(rp.enumerate_critical(d))
        r0 = rp.random_rotation(3, 17)
        traj = rp.integrate_flow(r0, d, step=0.02, t_end=500.0, gtol=1e-7)
        final = traj.states[-1]
        dist = min(rp.frob_norm(final - p.rotation) for p in points)
        assert dist <= 1e-5

    def test_states_stay_rotations(self):
        traj = rp.integrate_flow(rp.random_rotation(3, 2), [2.5, 1.5, 0.5], 0.05, 10.0)
        for state in traj.states[:: max(1, len(traj.states) // 10)]:
            assert rp.is_rotation(state, tol=1e-9)

    def test_step_too_large(self):
        with pytest.raises(StepTooLarge):
            rp.integrate_flow(planar(0.3), [3.0, 1.0], step=5.0, t_end=50.0)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            rp.integrate_flow(np.eye(2), [3.0, 1.0], step=0.0, t_end=1.0)


class TestBiotFlow:
    def test_near_identity_converges_to_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            a = rp.skew(rng.standard_normal((3, 3)))
            r0 = rp.exp_skew(a, scale=0.2)
            traj = rp.biot_flow(r0, [4.0, 2.0, 1.0], step=0.02, t_end=40.0)
            assert rp.frob_norm(traj.states[-1] - np.eye(3)) <= 1e-6

    def test_identity_start_is_constant(self):
        traj = rp.biot_flow(np.eye(3), [4.0, 2.0, 1.0], step=0.05, t_end=2.0)
        np.testing.assert_allclose(traj.states[-1], np.eye(3), atol=1e-12)

    def test_energy_monotone(self):
        # recorded energy is ||R D - I||^2 / 2 and never increases
        r0 = rp.exp_skew(rp.skew(RNG.standard_normal((3, 3))), scale=0.3)
        traj = rp.biot_flow(r0, [4.0, 2.0, 1.0], step=0.02, t_end=30.0)
        assert traj.energies[0] == pytest.approx(
            0.5 * rp.frob_norm_sq(r0 @ np.diag([4.0, 2.0, 1.0]) - np.eye(3))
        )
        assert np.all(np.diff(traj.energies) <= 1e-9)


@pytest.mark.parametrize("flow", [rp.integrate_flow, rp.biot_flow])
class TestFlowValidation:
    def test_dimension_mismatch(self, flow):
        with pytest.raises(DimensionMismatch):
            flow(np.eye(3), [2.0, 1.0], step=0.1, t_end=1.0)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_values(self, flow):
        with pytest.raises(Degenerate):
            flow(np.eye(2), [np.inf, 1.0], step=0.1, t_end=1.0)

    @pytest.mark.parametrize(
        "step, t_end",
        [(np.nan, 1.0), (np.inf, 1.0), (-0.1, 1.0), (0.1, np.inf), (0.1, np.nan), (1e-300, 1e300)],
    )
    def test_non_finite_schedule_rejected(self, flow, step, t_end):
        with pytest.raises(RpolarError):
            flow(np.eye(2), [3.0, 1.0], step=step, t_end=t_end)

    @pytest.mark.parametrize("t_end", [-5.0, -1e-3])
    def test_negative_t_end_rejected(self, flow, t_end):
        with pytest.raises(RpolarError):
            flow(np.eye(2), [3.0, 1.0], step=0.1, t_end=t_end)

    def test_zero_t_end_keeps_the_start(self, flow):
        traj = flow(np.eye(2), [3.0, 1.0], step=0.1, t_end=0.0)
        assert len(traj.states) == 1

    # 5e13 states of 2x2; 2^22 + 1 states of 2x2, one over the bound
    @pytest.mark.parametrize("step, t_end", [(0.02, 1e12), (1.0, 2.0**22)])
    def test_state_count_bounded_before_stepping(self, flow, monkeypatch, step, t_end):
        def no_steps(a):
            raise AssertionError("stepped before the bound was checked")

        monkeypatch.setattr(rp.oracle, "exp_skew_batch", no_steps)
        with pytest.raises(TooLarge):
            flow(np.eye(2), [3.0, 1.0], step=step, t_end=t_end)

    def test_state_count_at_the_bound_accepted(self, flow):
        # 2^22 states of 2x2 fill the bound exactly; stop at the start
        traj = flow(np.eye(2), [3.0, 1.0], step=1.0, t_end=2.0**22 - 1, gtol=1.0)
        assert len(traj.states) == 1

    def test_states_are_one_array(self, flow):
        traj = flow(planar(0.3), [3.0, 1.0], step=0.1, t_end=1.0)
        assert isinstance(traj.states, np.ndarray)
        assert traj.states.shape == (len(traj.times), 2, 2)
        assert traj.energies.shape == traj.times.shape

    def test_start_state_is_a_copy(self, flow):
        r0 = planar(0.3)
        traj = flow(r0, [3.0, 1.0], step=0.1, t_end=1.0)
        r0[0, 0] = 5.0
        np.testing.assert_array_equal(traj.states[0], planar(0.3))
