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

import math
from dataclasses import dataclass, field

import numpy as np

from .critical import _checked, _energy_batch, _finite_values, _grad_batch
from .errors import Degenerate, RpolarError, StepTooLarge, TooLarge
from .linalg import MAX_OUTPUT_ENTRIES, _project, _rotation_drift, exp_skew_batch, haar_rotations

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


def _start(r0, d) -> tuple[np.ndarray, np.ndarray]:
    """A start that ``as_rotation`` accepts, used as given, and the
    diagonal values; checked once per call, never per step."""
    r, dv = _checked(r0, d)
    _rotation_drift(r)
    return r, dv


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


def _grad_norm(r: np.ndarray, dv: np.ndarray, unit: float) -> np.ndarray:
    """||A(R)||_F of each rotation, squared on A / unit: ``unit`` is a power
    of two near 1 + ||D||^2, so the scaling is exact and the squares of
    gradient entries of size ||D||^2 stay finite."""
    return np.linalg.norm(_grad_batch(r, dv) / unit, axis=(-2, -1)) * unit


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
    scale = 1.0 + float(dv @ dv)
    polish_gn = max(POLISH_GN, 1e-7 * scale)
    unit = math.ldexp(1.0, math.frexp(scale)[1] - 1)
    e = _energy_batch(r, dv)
    gn = _grad_norm(r, dv, unit)
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
            gn_trial = _grad_norm(trial, dv, unit)
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

    r = _project(r)
    e = _energy_batch(r, dv)
    gnorm_final = _grad_norm(r, dv, unit)
    converged = gnorm_final <= gtol
    return r, e, converged, iters, gnorm_final


def descend(r0, d) -> DescentResult:
    """Safeguarded Riemannian Newton descent from one start.

    Steps R <- R cay(tB) with the Cayley retraction and the Newton
    direction B of ``_descend_batch``, shifted to a descent direction
    where the Hessian is not positive definite and backtracked.
    Terminates when the body-frame gradient norm drops below ``_gtol`` of
    D or after ``MAX_ITER`` iterations; the last iterate is returned
    either way, with ``converged`` reporting which case occurred.  The
    start must be a rotation within ``MAX_ROTATION_DRIFT``; D whose
    energies could overflow raises ``Degenerate`` before any step.
    """
    rm, dv = _start(r0, d)
    _energy_scale(dv)
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
    Degenerate
        If 8 (1 + ||D||^2 + n) overflows, so that energies could; checked
        before any start is drawn.
    TooLarge
        If n > 16, or if the starts' rotations and Jacobians, n_starts *
        (n^2 + p^2) entries with p = n(n-1)/2, exceed
        ``MAX_OUTPUT_ENTRIES``; checked before any start is drawn.
    """
    dv = _finite_values(d)
    _energy_scale(dv)
    n = dv.size
    if n > 16:
        raise TooLarge(f"n = {n} exceeds the multistart guard n <= 16")
    if n_starts < 1:
        raise RpolarError("need at least one start")
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


def _energy_scale(dv: np.ndarray) -> float:
    """1 + ||D||^2, checked so that energies and gradients on SO(n) stay finite."""
    with np.errstate(over="ignore"):
        scale = 1.0 + float(dv @ dv)
    # on SO(n) energies and gradient entries stay below 4 (||D||^2 + n)
    if not np.isfinite(8.0 * (scale + dv.size)):
        raise Degenerate("||D||^2 is too large: energies could overflow")
    return scale


def _step_too_large(rise: float, t: float) -> StepTooLarge:
    return StepTooLarge(f"energy increased by {rise:.3e} at t = {t:g}; halve the step size")


def _exp_skew3(p, q, s):
    """exp([[0, p, q], [-p, 0, s], [-q, -s, 0]]) on Python floats, row-major.

    Rodrigues' formula I + sin(t)/t S + (1 - cos t)/t^2 S^2 with
    t = ||(p, q, s)||, written with sin(t/2) to avoid cancellation, and
    its series below t = 1e-4, whose truncation error is below 1e-18.
    With q = s = 0 it is the planar rotation by p in the leading 2x2 block.
    """
    t = math.hypot(p, q, s)
    if t < 1e-4:
        t2 = t * t
        a, b = 1.0 - t2 / 6.0, 0.5 - t2 / 24.0
    elif t < math.inf:
        h = math.sin(0.5 * t) / t
        a, b = math.sin(t) / t, 2.0 * h * h
    else:
        raise StepTooLarge("the rotation angle of a flow step overflows; halve the step size")
    pp, qq, ss, pq, ps, qs = b * p * p, b * q * q, b * s * s, b * p * q, b * p * s, b * q * s
    p, q, s = a * p, a * q, a * s
    return (
        1.0 - pp - qq, p - qs, q + ps,
        -p - qs, 1.0 - pp - ss, s - pq,
        -q + ps, -s - pq, 1.0 - qq - ss,
    )  # fmt: skip


def _small_steps(r, dv, field3, step, states, energies, gtol, allowance) -> int:
    """Lie-Euler steps at n <= 3 on Python floats; returns the step count.

    R is padded to a 3x3 block rotation diag(R, I) and D with ones, so that
    X = R^T D - I is zero outside the n x n block.  ``field3(*X)`` gives the
    upper entries (0, 1), (0, 2), (1, 2) of the rhs and the energy from X,
    so one product per step serves the step, the ``gtol`` stop and the
    energy check.  States and energies go into the given arrays.
    """
    n, step, allowance = dv.size, float(step), float(allowance)
    pad = np.eye(3)
    pad[:n, :n] = r
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = r = tuple(pad.ravel().tolist())
    d0, d1, d2 = dv.tolist() + [1.0] * (3 - n)
    keep = [3 * i + j for i in range(n) for j in range(n)]
    flat = states.reshape(-1)
    n_steps = energies.size - 1
    k = 0
    while True:
        w01, w02, w12, e = field3(
            r00 * d0 - 1.0, r10 * d1, r20 * d2,
            r01 * d0, r11 * d1 - 1.0, r21 * d2,
            r02 * d0, r12 * d1, r22 * d2 - 1.0,
        )  # fmt: skip
        if k and e > e_prev + allowance:
            raise _step_too_large(e - e_prev, k * step)
        energies[k] = e_prev = e
        flat[k * n * n : (k + 1) * n * n] = r if n == 3 else [r[i] for i in keep]
        if k == n_steps or (
            gtol is not None and math.sqrt(2.0 * (w01 * w01 + w02 * w02 + w12 * w12)) <= gtol
        ):
            break
        e00, e01, e02, e10, e11, e12, e20, e21, e22 = _exp_skew3(step * w01, step * w02, step * w12)
        r00, r01, r02, r10, r11, r12, r20, r21, r22 = r = (
            r00 * e00 + r01 * e10 + r02 * e20, r00 * e01 + r01 * e11 + r02 * e21,
            r00 * e02 + r01 * e12 + r02 * e22, r10 * e00 + r11 * e10 + r12 * e20,
            r10 * e01 + r11 * e11 + r12 * e21, r10 * e02 + r11 * e12 + r12 * e22,
            r20 * e00 + r21 * e10 + r22 * e20, r20 * e01 + r21 * e11 + r22 * e21,
            r20 * e02 + r21 * e12 + r22 * e22,
        )  # fmt: skip
        k += 1
    return k


def _shear_field3(x00, x01, x02, x10, x11, x12, x20, x21, x22):
    """Upper entries of -A = -skew(X^2) / 2 and the energy ||sym X||^2."""
    return (
        (x10 * x00 + x11 * x10 + x12 * x20 - (x00 * x01 + x01 * x11 + x02 * x21)) / 4.0,
        (x20 * x00 + x21 * x10 + x22 * x20 - (x00 * x02 + x01 * x12 + x02 * x22)) / 4.0,
        (x20 * x01 + x21 * x11 + x22 * x21 - (x10 * x02 + x11 * x12 + x12 * x22)) / 4.0,
        x00 * x00 + x11 * x11 + x22 * x22
        + ((x01 + x10) * (x01 + x10) + (x02 + x20) * (x02 + x20) + (x12 + x21) * (x12 + x21)) / 2.0,
    )  # fmt: skip


def _biot_field3(x00, x01, x02, x10, x11, x12, x20, x21, x22):
    """Upper entries of skew(R^T D) and the Biot energy ||X||^2 / 2."""
    return (
        (x01 - x10) / 2.0,
        (x02 - x20) / 2.0,
        (x12 - x21) / 2.0,
        (x00 * x00 + x01 * x01 + x02 * x02 + x10 * x10 + x11 * x11
         + x12 * x12 + x20 * x20 + x21 * x21 + x22 * x22) / 2.0,
    )  # fmt: skip


def _shear_field(x):
    """-A = -skew(X^2) / 2 and the energy ||sym X||^2 from X = R^T D - I."""
    xx = x @ x
    s = (x + x.T) / 2.0
    return (xx.T - xx) / 4.0, float(np.sum(s * s))


def _biot_field(x):
    """skew(R^T D) and the Biot energy ||X||^2 / 2 from X = R^T D - I."""
    return (x - x.T) / 2.0, 0.5 * float(np.sum(x * x))


def _integrate(r, dv, field, field3, step, t_end, gtol):
    """Lie-Euler steps R <- R exp(step * rhs) from a checked ``_start``.

    The rhs and the energy come from X = R^T D - I: at n <= 3
    ``_small_steps`` runs the steps with ``field3``; above, the loop below
    runs them in the same order with ``field`` and one ``exp_skew_batch``
    per step.
    """
    if not (0 < step < np.inf and t_end >= 0 and np.isfinite(float(t_end) / float(step))):
        raise RpolarError(
            "step must be positive and finite, t_end non-negative and t_end / step finite"
        )
    n_steps = int(round(t_end / step))
    if (n_steps + 1) * dv.size**2 > MAX_OUTPUT_ENTRIES:
        raise TooLarge(
            f"{n_steps + 1} states of {dv.size}x{dv.size} exceed {MAX_OUTPUT_ENTRIES} entries"
        )
    # an energy of size ||D||^2 is resolved only to about eps * ||D||^2
    allowance = 1e-9 + 8.0 * np.finfo(float).eps * _energy_scale(dv)
    states = np.empty((n_steps + 1, dv.size, dv.size))
    energies = np.empty(n_steps + 1)
    if dv.size <= 3:
        k = _small_steps(r, dv, field3, step, states, energies, gtol, allowance)
    else:
        eye = np.eye(dv.size)
        states[0] = r
        k = 0
        while True:
            a, e = field(states[k].T * dv[None, :] - eye)
            if k and e > e_prev + allowance:
                raise _step_too_large(e - e_prev, k * step)
            energies[k] = e_prev = e
            if k == n_steps or (gtol is not None and np.linalg.norm(a) <= gtol):
                break
            np.matmul(states[k], exp_skew_batch(step * a), out=states[k + 1])
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
    per-step increase beyond 1e-9 + 8 eps (1 + ||D||^2), the energy's
    rounding level, raises.  With ``gtol`` set, integration stops early
    once ||A|| drops below it.  The start must be a rotation within
    ``MAX_ROTATION_DRIFT``.

    Raises
    ------
    StepTooLarge
        If a step increases the energy by more than 1e-9 + 8 eps (1 + ||D||^2),
        or its rotation angle overflows.
    TooLarge
        If the (t_end / step + 1) states would hold more than
        ``MAX_OUTPUT_ENTRIES`` entries; checked before the first step.
    """
    r0, dv = _start(r0, d)
    return _integrate(r0, dv, _shear_field, _shear_field3, step, t_end, gtol)


def biot_flow(r0, d, step: float, t_end: float, gtol=None) -> FlowTrajectory:
    """Lie-Euler integration of the Biot-energy flow R^T R' = skew(R^T D).

    Descends V(R) = ||R D - I||^2 / 2, whose unique minimizer is the
    identity; trajectories from starts near the identity converge to it.
    Recorded energies are V(R); as for ``integrate_flow``, a per-step
    increase beyond 1e-9 + 8 eps (1 + ||D||^2) raises ``StepTooLarge``,
    and the start must be a rotation as for ``integrate_flow``.
    """
    r0, dv = _start(r0, d)
    return _integrate(r0, dv, _biot_field, _biot_field3, step, t_end, gtol)
