"""Independent verification of the closed forms.

Multistart Riemannian Newton descent on SO(n), two gradient flows and
finite-difference friendly gradients.  Nothing here trusts the
closed-form minimizers: descent uses only the energy, its body-frame
gradient and the gradient's Jacobian (the Riemannian Hessian at critical
points), so agreement with the formulas is evidence, not circularity.

Sign convention: ``riemannian_gradient`` returns the body-frame matrix A
with d/dt W(R exp(tB))|_{t=0} = 2 <A, B> for skew B, so R exp(-h A) is a
descent step.  The convention is pinned by the finite-difference tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .critical import _checked, _diag_values, _energy_batch, _grad_batch
from .errors import Degenerate, RpolarError, StepTooLarge, TooLarge
from .linalg import MAX_OUTPUT_ENTRIES, as_matrix, exp_skew_batch, haar_rotations

GTOL = 1e-9
MAX_ITER = 2000
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
MAX_BACKTRACKS = 60

# Away from a minimum the Newton system is solved with J + sigma I, where
# sigma lifts the smallest eigenvalue of sym(J) (half the Riemannian
# Hessian) to NEWTON_DELTA times its largest modulus, so the step is a
# descent direction for the energy.  Steps are capped at STEP_MAX in
# Frobenius norm, which bounds how far a nearly singular system can throw
# an iterate.
NEWTON_DELTA = 1e-4
STEP_MAX = 2.0

# Below this gradient norm the per-step energy decrease (about ||A||^2
# over the curvature) approaches double-precision resolution of the energy
# itself, so steps are accepted when they lower ||A|| instead.  That
# resolution scales with 1 + ||D||^2, so above ||D||^2 ~ 100 the switch
# is 1e-7 * (1 + ||D||^2) instead.
POLISH_GN = 1e-5


@dataclass(frozen=True, eq=False)
class DescentResult:
    """Outcome of a single Newton descent run."""

    rotation: np.ndarray
    value: float
    converged: bool
    iterations: int
    grad_norm: float


@dataclass(frozen=True, eq=False)
class DescentReport:
    """Best-of-multistart summary; deterministic for a fixed seed.

    ``tolerance`` is ``_gtol`` of D.  ``iterations`` holds the Newton
    iterations each start took, in start order.
    """

    best_value: float
    best_rotation: np.ndarray
    n_starts: int
    n_converged: int
    tolerance: float
    seed: int
    iterations: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class FlowTrajectory:
    """Sampled gradient-flow trajectory with recorded energies.

    ``states`` is one (len(times), n, n) array, the rotation at each time.
    """

    times: np.ndarray
    states: np.ndarray = field(repr=False)
    energies: np.ndarray
    step_size: float


def riemannian_gradient(r, d) -> np.ndarray:
    """Body-frame gradient A(R) = skew((R^T D - I)^2) / 2.

    Vanishes exactly at the critical points of the energy; equals
    skew(R^T sym(R D - I) D), so d/dt W(R exp(tB))|_0 = 2 <A, B>.
    """
    return _grad_batch(*_checked(r, d))


def _gtol(dv: np.ndarray) -> float:
    # a gradient of size ||D||^2 is resolved only to about eps * ||D||^2
    return max(GTOL, 4.0 * np.finfo(float).eps * (1.0 + float(dv @ dv)))


def _project_batch(r: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(r)
    return u @ vh


def _jacobian_batch(r: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Jacobian of the body-frame gradient, one p x p matrix per rotation.

    J[B] = d/dt A(R exp(tB))|_0 = skew(-B M X - X B M) / 2 with
    M = R^T D and X = M - I, written in the coordinates b_k = B[i_k, j_k]
    of ``np.triu_indices(n, 1)``, p = n(n-1)/2.  Since
    d^2/dt^2 W(R exp(tB))|_0 = 2 <J[B], B>, sym(J) carries the curvature
    of the energy; at critical points J is symmetric.  Entries come from
    index formulas on M, X and M X, one (batch, p, p) array per term.
    """
    m = np.swapaxes(r, -1, -2) * dv[None, :]
    x = m - np.eye(dv.size)
    mx = m @ x
    iu, ju = np.triu_indices(dv.size, 1)
    i, j = iu[:, None], ju[:, None]
    k, l = iu[None, :], ju[None, :]
    jac = np.zeros((r.shape[0], iu.size, iu.size))
    # skew part of row (i, j) and skew basis element E_kl - E_lk of column
    terms = ((i, j, k, l, -0.25), (i, j, l, k, 0.25), (j, i, k, l, 0.25), (j, i, l, k, -0.25))
    for a, b, c, e, sign in terms:
        # entry (a, b) of B M X + X B M for B = E_ce, the matrix unit
        jac += sign * (x[:, a, c] * m[:, e, b] + (a == c) * mx[:, e, b])
    return jac


def _descend_batch(r0: np.ndarray, dv: np.ndarray, gtol: float, max_iter: int):
    """Safeguarded Riemannian Newton descent, batched over starts.

    Each iteration solves (J + sigma I) b = -a for the skew step B, with
    J from ``_jacobian_batch`` and a the coordinates of A(R), and caps
    ||B|| at ``STEP_MAX``.  While ||A|| exceeds ``POLISH_GN`` and sym(J)
    is not positive definite, sigma shifts its spectrum as described at
    ``NEWTON_DELTA``, so B is a descent direction for the energy;
    otherwise B is the Newton step for A = 0.  Trial points R cay(tB),
    with the Cayley retraction cay(B) = (I - B/2)^{-1} (I + B/2), start
    at t = 1 and halve until accepted: by the Armijo condition on the
    energy while ||A|| exceeds ``POLISH_GN``, and by a decrease of ||A||
    below it, which the Newton step guarantees for small t wherever J is
    regular, near a saddle too.  A start stops when ||A|| <= gtol,
    after ``max_iter`` iterations, or when ``MAX_BACKTRACKS`` halvings
    find no acceptable step.

    Returns the projected rotations, their energies, the converged mask
    (||A|| <= gtol after projection), the per-start iteration counts and
    the final gradient norms.
    """
    r = r0.copy()
    nb, n = r.shape[0], dv.size
    iu, ju = np.triu_indices(n, 1)
    diag = np.arange(iu.size)
    rcond = iu.size * np.finfo(float).eps
    eye_n = np.eye(n)
    polish_gn = max(POLISH_GN, 1e-7 * (1.0 + float(dv @ dv)))
    e = _energy_batch(r, dv)
    gn = np.linalg.norm(_grad_batch(r, dv), axis=(-2, -1))
    active = gn > gtol
    iters = np.zeros(nb, dtype=int)

    for it in range(max_iter):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        iters[idx] = it + 1
        ri = r[idx]
        a = _grad_batch(ri, dv)[:, iu, ju]
        jac = _jacobian_batch(ri, dv)
        w = np.linalg.eigvalsh(jac + np.swapaxes(jac, -1, -2)) / 2.0
        scale = np.abs(w).max(axis=-1)
        polish = gn[idx] <= polish_gn
        sigma = np.where(polish | (w[:, 0] > 0.0), 0.0, NEWTON_DELTA * scale - w[:, 0])
        # the relative shift rcond keeps J regular where the energy is
        # blind to a direction (zero d_i), too small to slow Newton
        jac[:, diag, diag] += (sigma + rcond * scale)[:, None]
        b = -np.linalg.solve(jac, a[..., None])[..., 0]
        bn = np.sqrt(2.0) * np.linalg.norm(b, axis=-1)
        b *= np.minimum(1.0, STEP_MAX / bn)[:, None]
        slope = 4.0 * np.sum(a * b, axis=-1)

        t = np.ones(idx.size)
        pending = np.arange(idx.size)
        for _ in range(MAX_BACKTRACKS):
            sub = idx[pending]
            half = np.zeros((pending.size, n, n))
            half[:, iu, ju] = 0.5 * t[pending, None] * b[pending]
            half[:, ju, iu] = -half[:, iu, ju]
            trial = ri[pending] @ np.linalg.solve(eye_n - half, eye_n + half)
            e_trial = _energy_batch(trial, dv)
            gn_trial = np.linalg.norm(_grad_batch(trial, dv), axis=(-2, -1))
            ok = np.where(
                polish[pending],
                gn_trial < gn[sub],
                e_trial <= e[sub] + ARMIJO_C * t[pending] * slope[pending],
            )
            acc = sub[ok]
            r[acc] = trial[ok]
            e[acc] = e_trial[ok]
            gn[acc] = gn_trial[ok]
            pending = pending[~ok]
            t[pending] *= ARMIJO_SHRINK
            if pending.size == 0:
                break
        active[idx[pending]] = False
        active[idx] &= gn[idx] > gtol

    r = _project_batch(r)
    e = _energy_batch(r, dv)
    gnorm_final = np.linalg.norm(_grad_batch(r, dv), axis=(-2, -1))
    converged = gnorm_final <= gtol
    return r, e, converged, iters, gnorm_final


def descend(r0, d) -> DescentResult:
    """Safeguarded Riemannian Newton descent from one start.

    Steps R <- R cay(tB) with the Cayley retraction and the Newton
    direction B of ``_descend_batch``, shifted to a descent direction
    where the Hessian is not positive definite and backtracked.
    Terminates when the body-frame gradient norm drops below ``_gtol`` of
    D or after ``MAX_ITER`` iterations; the last iterate is returned
    either way, with ``converged`` reporting which case occurred.
    """
    rm = as_matrix(r0)
    dv = _diag_values(d)
    r, e, conv, iters, gn = _descend_batch(rm[None], dv, _gtol(dv), MAX_ITER)
    return DescentResult(
        rotation=r[0],
        value=float(e[0]),
        converged=bool(conv[0]),
        iterations=int(iters[0]),
        grad_norm=float(gn[0]),
    )


def brute_force_min(d, n_starts: int = 200, seed: int = 0) -> DescentReport:
    """Best value over multistart descent from Haar-random rotations.

    Deterministic for a fixed seed; the merge is a min-reduction with ties
    broken by start index, so it does not depend on evaluation order.

    Raises
    ------
    TooLarge
        If n > 8, or if the starts' rotations and Jacobians, n_starts *
        (n^2 + p^2) entries with p = n(n-1)/2, exceed
        ``MAX_OUTPUT_ENTRIES``; checked before any start is drawn.
    """
    dv = _diag_values(d)
    n = dv.size
    if n > 8:
        raise TooLarge(f"n = {n} exceeds the multistart guard n <= 8")
    if n == 0 or n_starts < 1:
        raise RpolarError("need at least one diagonal value and one start")
    p = n * (n - 1) // 2
    if n_starts * (n * n + p * p) > MAX_OUTPUT_ENTRIES:
        raise TooLarge(
            f"{n_starts} starts at n = {n} need more than {MAX_OUTPUT_ENTRIES} work entries"
        )
    gtol = _gtol(dv)
    r0 = haar_rotations(n, n_starts, seed)
    r, e, conv, iters, _ = _descend_batch(r0, dv, gtol, MAX_ITER)
    best = int(np.argmin(e))
    return DescentReport(
        best_value=float(e[best]),
        best_rotation=r[best],
        n_starts=n_starts,
        n_converged=int(np.sum(conv)),
        tolerance=gtol,
        seed=seed,
        iterations=iters,
    )


def _integrate(r0, dv, rhs, energy_fn, step, t_end, gtol):
    """Lie-Euler steps R <- R exp(step * rhs(R)) with kernels that skip validation."""
    if not (0 < step < np.inf and t_end >= 0 and np.isfinite(float(t_end) / float(step))):
        raise RpolarError(
            "step must be positive and finite, t_end non-negative and t_end / step finite"
        )
    r, dv = _checked(r0, dv)
    n_steps = int(round(t_end / step))
    if (n_steps + 1) * dv.size**2 > MAX_OUTPUT_ENTRIES:
        raise TooLarge(
            f"{n_steps + 1} states of {dv.size}x{dv.size} exceed {MAX_OUTPUT_ENTRIES} entries"
        )
    states = np.empty((n_steps + 1, dv.size, dv.size))
    energies = np.empty(n_steps + 1)
    states[0] = r
    energies[0] = energy_fn(r)
    if not np.isfinite(energies[0]):
        raise Degenerate("flow energy is not finite at the start")
    k = 0
    while k < n_steps:
        a = rhs(states[k])
        if gtol is not None and np.linalg.norm(a) <= gtol:
            break
        np.matmul(states[k], exp_skew_batch(step * a), out=states[k + 1])
        e = energy_fn(states[k + 1])
        if e > energies[k] + 1e-9:
            raise StepTooLarge(
                f"energy increased by {e - energies[k]:.3e} at t = "
                f"{(k + 1) * step:g}; halve the step size"
            )
        energies[k + 1] = e
        k += 1
    return FlowTrajectory(
        times=step * np.arange(k + 1),
        states=states[: k + 1],
        energies=energies[: k + 1],
        step_size=step,
    )


def integrate_flow(r0, d, step: float, t_end: float, gtol=None) -> FlowTrajectory:
    """Lie-Euler integration of the shear-stretch gradient flow.

    Steps R_{k+1} = R_k exp(-step * A(R_k)) with the body-frame gradient
    A, which keeps iterates on SO(n) exactly.  Records W(R; D) along the
    trajectory; energies are non-increasing for a stable step size, and a
    per-step increase beyond 1e-9 raises.  With ``gtol`` set, integration
    stops early once ||A|| drops below it.

    Raises
    ------
    StepTooLarge
        If a step increases the energy by more than 1e-9.
    TooLarge
        If the (t_end / step + 1) states would hold more than
        ``MAX_OUTPUT_ENTRIES`` entries; checked before the first step.
    """
    dv = _diag_values(d)
    return _integrate(
        r0,
        dv,
        rhs=lambda r: -_grad_batch(r, dv),
        energy_fn=lambda r: float(_energy_batch(r, dv)),
        step=step,
        t_end=t_end,
        gtol=gtol,
    )


def biot_flow(r0, d, step: float, t_end: float, gtol=None) -> FlowTrajectory:
    """Lie-Euler integration of the Biot-energy flow R^T R' = skew(R^T D).

    Descends V(R) = ||R D - I||^2 / 2, whose unique minimizer is the
    identity; trajectories from starts near the identity converge to it.
    Recorded energies are V(R).
    """
    dv = _diag_values(d)

    def rhs(r):
        m = r.T * dv[None, :]
        return (m - m.T) / 2.0

    def energy_fn(r):
        x = r * dv[None, :] - np.eye(dv.size)
        return 0.5 * float(np.sum(x * x))

    return _integrate(r0, dv, rhs, energy_fn, step, t_end, gtol)
