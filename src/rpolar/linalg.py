"""Small dense real matrix kernel.

Symmetric/skew splitting, Frobenius norms, SVD-based polar
decomposition, the exponential map on skew-symmetric matrices and Haar
rotation sampling.  Everything operates on plain ``numpy`` arrays; the
functions here are pure and never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    Degenerate,
    DimensionMismatch,
    NonInvertibleOrReflective,
    NotSkew,
    RpolarError,
)

# Absolute Frobenius tolerance of exp_skew's skew-symmetry check.
TOL_SYM = 1e-10

# Drift beyond which a would-be rotation is rejected instead of re-projected.
MAX_ROTATION_DRIFT = 1e-8

# Values at or below RANK_TOL times the largest of their kind count as zero.
RANK_TOL = 1e-12

# Bound on the matrix entries one call may produce: the 2^k n^2 rotation
# entries `rpolar rpolar` writes (2^24 entries are 100-400 MB of JSON),
# the states a gradient flow keeps (128 MiB of doubles) and the rotations
# and p x p Jacobians, p = n(n-1)/2, of a multistart descent's starts.
MAX_OUTPUT_ENTRIES = 2**24


def as_matrix(x) -> np.ndarray:
    """Validate a square real matrix; non-finite entries raise ``Degenerate``."""
    m = np.asarray(x, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise Degenerate("matrix entries must be finite")
    return m


def sym(x) -> np.ndarray:
    """Symmetric part (x + x^T) / 2; the result is symmetric exactly."""
    m = as_matrix(x)
    return (m + m.T) / 2.0


def skew(x) -> np.ndarray:
    """Skew-symmetric part (x - x^T) / 2."""
    m = as_matrix(x)
    return (m - m.T) / 2.0


def frob_norm(x) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(x, dtype=float)))


def frob_norm_sq(x) -> float:
    """Squared Frobenius norm, the sum of the squared entries."""
    a = np.asarray(x, dtype=float)
    return float(np.sum(a * a))


def _project(a: np.ndarray) -> np.ndarray:
    """Nearest orthogonal matrices U V^T to a batch (..., n, n) of finite
    matrices, by SVD; rotations where det > 0, which callers ensure."""
    u, _, vh = np.linalg.svd(a)
    return u @ vh


def as_rotation(m) -> np.ndarray:
    """Validate a rotation, re-orthonormalizing small drift.

    Drift up to ``MAX_ROTATION_DRIFT`` (Frobenius) is repaired by polar
    projection, so rounding is forgiven without masking genuinely wrong
    inputs; anything beyond is rejected.
    """
    a = as_matrix(m)
    if _rotation_drift(a) > 1e-15:
        a = _project(a)
    return a


def _rotation_drift(a: np.ndarray) -> float:
    """Orthogonality defect of a checked square matrix that ``as_rotation``
    accepts; raises as it does otherwise."""
    defect = float(np.linalg.norm(a.T @ a - np.eye(a.shape[0])))
    if defect > MAX_ROTATION_DRIFT:
        raise RpolarError(f"orthogonality drift {defect:.3e} exceeds {MAX_ROTATION_DRIFT:.1e}")
    if np.linalg.det(a) <= 0:
        raise NonInvertibleOrReflective("matrix is not orientation preserving")
    return defect


@dataclass(frozen=True, eq=False)
class PolarFactors:
    """Right polar decomposition F = rot @ stretch.

    Attributes
    ----------
    rot : ndarray
        Orthogonal factor in SO(n).
    stretch : ndarray
        Symmetric positive definite factor sqrt(F^T F).
    singular_values : ndarray
        Singular values of F, sorted descending.
    """

    rot: np.ndarray
    stretch: np.ndarray
    singular_values: np.ndarray = field(repr=False)


def _small_det(m: np.ndarray) -> float:
    """Determinant of a 1x1, 2x2 or 3x3 matrix, on Python floats."""
    rows = m.tolist()
    if len(rows) == 1:
        return rows[0][0]
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _svd_polar(f: np.ndarray):
    """SVD-based polar factors (v, s, wh) with degeneracy checks."""
    if f.size == 0:
        raise DimensionMismatch("expected a non-empty matrix")
    v, s, wh = np.linalg.svd(f)
    if s[0] == 0.0 or s[-1] <= RANK_TOL * s[0]:
        raise Degenerate("matrix is numerically rank deficient")
    # With s > 0, det F has the sign of det V det W^T.  At n <= 3 those
    # orthogonal factors give it without another factorization and, as
    # their determinants are +-1, reliably even for nearly singular F; at
    # larger n they would cost two LUs where F alone costs one.  The sign
    # of slogdet, unlike det, does not overflow or underflow to 0 at scale.
    if (_small_det(v) * _small_det(wh) if f.shape[0] <= 3 else np.linalg.slogdet(f)[0]) <= 0:
        raise NonInvertibleOrReflective("determinant must be positive")
    return v, s, wh


def polar_decompose(f) -> PolarFactors:
    """Right polar decomposition of F with det(F) > 0.

    Computes F = V diag(s) W^T and returns rot = V W^T in SO(n) and
    stretch = W diag(s) W^T in PSym(n).  Singular values come out sorted
    descending; signs are absorbed so that all s_i > 0, which makes the
    factorization unique.

    Raises
    ------
    DimensionMismatch
        If F is not square or is empty.
    NonInvertibleOrReflective
        If det(F) <= 0.
    Degenerate
        If F is numerically rank deficient.
    """
    a = as_matrix(f)
    v, s, wh = _svd_polar(a)
    rot = v @ wh
    stretch = wh.T @ (s[:, None] * wh)
    stretch = (stretch + stretch.T) / 2.0
    return PolarFactors(rot=rot, stretch=stretch, singular_values=s)


def exp_skew_batch(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a batch (..., n, n) of skew matrices.

    i*A is Hermitian for skew A, so exp(A) = U exp(-i diag(w)) U^H with
    (w, U) = eigh(i*A); the result is real up to rounding.
    """
    w, u = np.linalg.eigh(1j * a)
    phase = np.exp(-1j * w)
    out = (u * phase[..., None, :]) @ np.conj(np.swapaxes(u, -1, -2))
    return np.real(out)


def exp_skew(a, scale: float = 1.0) -> np.ndarray:
    """Rotation exp(scale * A) for a skew-symmetric matrix A.

    The result is re-orthonormalized by polar projection so that
    ||R^T R - I||_F stays at rounding level.

    Raises
    ------
    NotSkew
        If ||A + A^T||_F exceeds ``TOL_SYM``.
    Degenerate
        If ``scale`` or the exponential is not finite.
    NonInvertibleOrReflective
        If the angles are so large that the rounded exponential projects
        onto a reflection.
    """
    m = as_matrix(a)
    if frob_norm(m + m.T) > TOL_SYM:
        raise NotSkew("argument is not skew-symmetric")
    if not np.isfinite(scale):
        raise Degenerate("scale must be finite")
    m = (m - m.T) / 2.0
    r = _project(as_matrix(exp_skew_batch(scale * m)))
    if np.linalg.det(r) < 0:
        raise NonInvertibleOrReflective("cannot project a reflective matrix onto SO(n)")
    return r


def _resolve_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def haar_rotations(n: int, count: int, rng) -> np.ndarray:
    """Batch of ``count`` Haar-distributed rotations, shape (count, n, n)."""
    gen = _resolve_rng(rng)
    g = gen.standard_normal((count, n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0.0] = 1.0
    q = q * np.sign(d)[..., None, :]
    det = np.linalg.det(q)
    q[det < 0, :, -1] *= -1.0
    return q


def random_rotation(n: int, seed) -> np.ndarray:
    """Haar-distributed rotation from a seed or Generator, deterministic.

    Gaussian matrix orthonormalized by QR with the sign convention that
    makes the factorization unique, then the last column is flipped when
    needed to land in SO(n).
    """
    if n < 1:
        raise RpolarError("dimension must be >= 1")
    return haar_rotations(n, 1, seed)[0]
