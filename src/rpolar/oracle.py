"""Independent verification of the closed forms.

Multistart Riemannian gradient descent on SO(n), two gradient flows and
finite-difference friendly gradients.  Nothing here trusts the
closed-form minimizers: descent uses only the energy and its first-order
geometry, so agreement with the formulas is evidence, not circularity.

Sign convention: ``riemannian_gradient`` returns the body-frame matrix A
with d/dt W(R exp(tB))|_{t=0} = 2 <A, B> for skew B, so R exp(-h A) is a
descent step.  The convention is pinned by the finite-difference tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .critical import _diag_values, _energy_batch, energy
from .errors import RpolarError, StepTooLarge, TooLarge
from .linalg import as_matrix, exp_skew_batch, frob_norm, haar_rotations

GTOL_DEFAULT = 1e-9
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
STEP_INITIAL = 1.0
STEP_MAX = 2.0
PROJECT_EVERY = 20

# Below this gradient norm the per-step energy decrease (about 2 h ||A||^2)
# approaches double-precision resolution of the energy itself, so line
# search on energy values stalls; a gradient-norm-guarded polish phase
# takes over.
POLISH_GN = 1e-5
POLISH_MAX_ITER = 400


@dataclass(frozen=True, eq=False)
class DescentResult:
    """Outcome of a single geodesic descent run."""

    rotation: np.ndarray
    value: float
    converged: bool
    iterations: int
    grad_norm: float


@dataclass(frozen=True, eq=False)
class DescentReport:
    """Best-of-multistart summary; deterministic for a fixed seed."""

    best_value: float
    best_rotation: np.ndarray
    n_starts: int
    n_converged: int
    tolerance: float
    seed: int


@dataclass(frozen=True, eq=False)
class FlowTrajectory:
    """Sampled gradient-flow trajectory with recorded energies."""

    times: np.ndarray
    states: tuple[np.ndarray, ...] = field(repr=False)
    energies: np.ndarray
    step_size: float


def riemannian_gradient(r, d) -> np.ndarray:
    """Body-frame gradient A(R) = skew((R^T D - I)^2) / 2.

    Vanishes exactly at the critical points of the energy; equals
    skew(R^T sym(R D - I) D), so d/dt W(R exp(tB))|_0 = 2 <A, B>.
    """
    return _grad_batch(as_matrix(r), _diag_values(d))


def _skew_np(m: np.ndarray) -> np.ndarray:
    return (m - np.swapaxes(m, -1, -2)) / 2.0


def _grad_batch(r: np.ndarray, dv: np.ndarray) -> np.ndarray:
    x = np.swapaxes(r, -1, -2) * dv[None, :] - np.eye(dv.size)
    return 0.5 * _skew_np(x @ x)


def _project_batch(r: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(r)
    return u @ vh


def _descend_batch(r0: np.ndarray, dv: np.ndarray, gtol: float, max_iter: int):
    """Geodesic descent with warm-started backtracking, batched over starts.

    Phase 1 runs Armijo backtracking (condition E_trial <= E - c*h*2||A||^2
    with c = 1e-4, shrink 0.5, accepted steps doubled up to ``STEP_MAX``)
    until the gradient norm reaches ``POLISH_GN``.  Phase 2 then iterates
    fixed exponential steps accepted only when ||A|| decreases, which is
    measurable far below the energy-difference resolution.
    """
    r = r0.copy()
    nb = r.shape[0]
    e = _energy_batch(r, dv)
    step = np.full(nb, STEP_INITIAL)
    active = np.ones(nb, dtype=bool)
    iters = np.zeros(nb, dtype=int)
    switch = max(POLISH_GN, gtol)

    for it in range(max_iter):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        a = _grad_batch(r[idx], dv)
        gn = np.linalg.norm(a, axis=(-2, -1))
        done = gn <= switch
        if done.any():
            active[idx[done]] = False
            idx = idx[~done]
            if idx.size == 0:
                continue
            a = a[~done]
            gn = gn[~done]

        slope = 2.0 * gn * gn
        pending = np.arange(idx.size)
        for _ in range(60):
            if pending.size == 0:
                break
            sub = idx[pending]
            trial = r[sub] @ exp_skew_batch(-step[sub, None, None] * a[pending])
            e_trial = _energy_batch(trial, dv)
            ok = e_trial <= e[sub] - ARMIJO_C * step[sub] * slope[pending]
            acc = sub[ok]
            r[acc] = trial[ok]
            e[acc] = e_trial[ok]
            step[acc] = np.minimum(step[acc] * 2.0, STEP_MAX)
            step[sub[~ok]] *= ARMIJO_SHRINK
            stalled = step[sub] < 1e-16
            active[sub[stalled & ~ok]] = False
            pending = pending[~ok & ~stalled]
        iters[active] = it + 1
        if (it + 1) % PROJECT_EVERY == 0:
            r[active] = _project_batch(r[active])

    if gtol < switch:
        r = _polish_batch(r, dv, gtol)

    r = _project_batch(r)
    e = _energy_batch(r, dv)
    gnorm_final = np.linalg.norm(_grad_batch(r, dv), axis=(-2, -1))
    converged = gnorm_final <= gtol
    return r, e, converged, iters, gnorm_final


def _polish_batch(r: np.ndarray, dv: np.ndarray, gtol: float) -> np.ndarray:
    """Drive the gradient norm below ``gtol`` by gn-monotone fixed steps.

    A step R exp(-h A) is accepted only if it lowers ||A||; rejected steps
    shrink h, sluggish accepted ones grow it.  Near a nondegenerate
    critical point the map contracts ||A|| linearly for h below the local
    curvature scale, so this converges without comparing energies.
    """
    r = r.copy()
    nb = r.shape[0]
    h = np.full(nb, 0.25)
    a = _grad_batch(r, dv)
    gn = np.linalg.norm(a, axis=(-2, -1))
    active = gn > gtol
    for _ in range(POLISH_MAX_ITER):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        trial = r[idx] @ exp_skew_batch(-h[idx, None, None] * a[idx])
        a_trial = _grad_batch(trial, dv)
        gn_trial = np.linalg.norm(a_trial, axis=(-2, -1))
        ok = gn_trial < gn[idx]
        acc = idx[ok]
        r[acc] = trial[ok]
        a[acc] = a_trial[ok]
        slow = gn_trial[ok] > 0.9 * gn[acc]
        gn[acc] = gn_trial[ok]
        h[acc[slow]] = np.minimum(h[acc[slow]] * 1.5, STEP_MAX)
        rej = idx[~ok]
        h[rej] *= 0.4
        active[acc] = gn[acc] > gtol
        active[rej] = h[rej] > 1e-14
    return r


def descend(
    r0,
    d,
    gtol: float = GTOL_DEFAULT,
    max_iter: int = 2000,
) -> DescentResult:
    """Geodesic gradient descent R <- R exp(-h A) with backtracking.

    Terminates when the body-frame gradient norm drops below ``gtol`` or
    after ``max_iter`` iterations; the best iterate is returned either
    way, with ``converged`` reporting which case occurred.
    """
    rm = as_matrix(r0)
    dv = _diag_values(d)
    r, e, conv, iters, gn = _descend_batch(rm[None], dv, gtol, max_iter)
    return DescentResult(
        rotation=r[0],
        value=float(e[0]),
        converged=bool(conv[0]),
        iterations=int(iters[0]),
        grad_norm=float(gn[0]),
    )


def brute_force_min(
    d,
    n_starts: int = 200,
    seed: int = 0,
    gtol: float = 1e-8,
    max_iter: int = 2000,
) -> DescentReport:
    """Best value over multistart descent from Haar-random rotations.

    Deterministic for a fixed seed; the merge is a min-reduction with ties
    broken by start index, so it does not depend on evaluation order.
    """
    dv = _diag_values(d)
    n = dv.size
    if n > 8:
        raise TooLarge(f"n = {n} exceeds the multistart guard n <= 8")
    r0 = haar_rotations(n, n_starts, seed)
    r, e, conv, _, _ = _descend_batch(r0, dv, gtol, max_iter)
    best = int(np.argmin(e))
    return DescentReport(
        best_value=float(e[best]),
        best_rotation=r[best],
        n_starts=n_starts,
        n_converged=int(np.sum(conv)),
        tolerance=gtol,
        seed=seed,
    )


def _integrate(r0, dv, rhs, energy_fn, step, t_end, gtol):
    if step <= 0:
        raise RpolarError("step size must be positive")
    r = as_matrix(r0)
    times = [0.0]
    states = [r.copy()]
    energies = [energy_fn(r)]
    n_steps = int(round(t_end / step))
    for k in range(n_steps):
        a = rhs(r)
        if gtol is not None and frob_norm(a) <= gtol:
            break
        r_next = r @ exp_skew_batch(step * a)
        e_next = energy_fn(r_next)
        if e_next > energies[-1] + 1e-9:
            raise StepTooLarge(
                f"energy increased by {e_next - energies[-1]:.3e} at t = "
                f"{(k + 1) * step:g}; halve the step size"
            )
        r = r_next
        times.append((k + 1) * step)
        states.append(r.copy())
        energies.append(e_next)
    return FlowTrajectory(
        times=np.array(times),
        states=tuple(states),
        energies=np.array(energies),
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
    """
    dv = _diag_values(d)
    return _integrate(
        r0,
        dv,
        rhs=lambda r: -riemannian_gradient(r, dv),
        energy_fn=lambda r: energy(r, dv),
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
        return _skew_np(r.T * dv[None, :])

    def energy_fn(r):
        x = r * dv[None, :] - np.eye(dv.size)
        return 0.5 * float(np.sum(x * x))

    return _integrate(r0, dv, rhs, energy_fn, step, t_end, gtol)
