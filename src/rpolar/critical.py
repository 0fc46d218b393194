"""Critical points of the Cosserat shear-stretch energy on SO(n).

The energy W(R; D) = ||sym(R D - I)||_F^2 with diagonal positive D has
critical points exactly where (R D - I)^2 is symmetric.  They are indexed
by partitions of {1, ..., n} into subsets of size one or two together
with a determinant sign per subset: singletons contribute +-1 diagonal
entries, two-element subsets contribute planar rotation blocks
(cos a = 2 / (d_i + d_j), det +1) or reflection-type blocks
(cos a = 2 / (d_i - d_j), det -1), subject to the feasibility
inequalities d_i + d_j > 2 respectively |d_i - d_j| > 2 and to the
overall parity prod(det) = +1 that keeps R in SO(n).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateD,
    DimensionMismatch,
    InfeasibleLabel,
    InvalidWeights,
    NonIsolatedWarning,
    TooLarge,
)
from .linalg import as_matrix, frob_norm, frob_norm_sq, skew, sym

DEFAULT_MAX_N = 10
CRITICAL_TOL = 1e-9
# A pair whose feasibility margin is at or below this is treated as two
# singletons: its rotation angle is zero to within rounding.
BOUNDARY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DiagParams:
    """Diagonal parameter matrix D = diag(d_1, ..., d_n) with d_i > 0.

    Keeps the values in user order together with the stable permutation
    that sorts them descending.  ``sorted_d`` (the values sorted
    descending) and ``strict`` (whether they strictly decrease; ties make
    some critical points non-isolated) are derived once from the two.
    """

    d: np.ndarray
    order: np.ndarray = field(repr=False)
    sorted_d: np.ndarray = field(init=False, repr=False)
    strict: bool = field(init=False)

    def __post_init__(self):
        sorted_d = self.d[self.order]
        object.__setattr__(self, "sorted_d", sorted_d)
        object.__setattr__(self, "strict", bool((sorted_d[1:] < sorted_d[:-1]).all()))

    @classmethod
    def from_values(cls, values) -> "DiagParams":
        d = np.atleast_1d(np.asarray(values, dtype=float))
        if d.ndim != 1 or d.size == 0:
            raise DegenerateD("expected a non-empty vector of diagonal values")
        if not np.all(np.isfinite(d)):
            raise DegenerateD("diagonal values must be finite")
        if np.any(d <= 0.0):
            raise DegenerateD(
                "diagonal values must be positive; reduce signed inputs "
                "with reflect_negative first"
            )
        return cls(d=d, order=np.argsort(-d, kind="stable"))

    @property
    def n(self) -> int:
        return int(self.d.size)

    def matrix(self) -> np.ndarray:
        return np.diag(self.d)

    def perm_matrix(self) -> np.ndarray:
        """P with P @ (sorted-frame vector) in user frame: P[order[s], s] = 1."""
        p = np.zeros((self.n, self.n))
        p[self.order, np.arange(self.n)] = 1.0
        return p


def as_diag(d) -> DiagParams:
    """Coerce an array-like or DiagParams to DiagParams."""
    if isinstance(d, DiagParams):
        return d
    return DiagParams.from_values(d)


def _diag_values(d) -> np.ndarray:
    """Raw diagonal values; accepts DiagParams or any array-like."""
    if isinstance(d, DiagParams):
        return d.d
    v = np.atleast_1d(np.asarray(d, dtype=float))
    if v.ndim != 1:
        raise DimensionMismatch("diagonal values must be a vector")
    return v


@dataclass(frozen=True)
class SubsetLabel:
    """One partition subset: 1-based indices, det sign, angle sign.

    ``angle_sign`` selects one of the two symmetric rotation angles and is
    meaningful only for two-element subsets realized with a nontrivial
    angle.
    """

    indices: tuple[int, ...]
    det_sign: int
    angle_sign: int = 1

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.indices))
        object.__setattr__(self, "indices", idx)
        if len(idx) not in (1, 2) or len(set(idx)) != len(idx):
            raise InfeasibleLabel(f"subset must have 1 or 2 distinct indices, got {idx}")
        if any(i < 1 for i in idx):
            raise InfeasibleLabel("subset indices are 1-based and must be >= 1")
        if self.det_sign not in (-1, 1) or self.angle_sign not in (-1, 1):
            raise InfeasibleLabel("det_sign and angle_sign must be +1 or -1")

    @property
    def size(self) -> int:
        return len(self.indices)

    def to_dict(self) -> dict:
        return {"idx": list(self.indices), "det": self.det_sign, "angle": self.angle_sign}


@dataclass(frozen=True)
class PartitionLabel:
    """Partition of {1, ..., n} into labeled subsets of size one or two."""

    subsets: tuple[SubsetLabel, ...]

    def __post_init__(self):
        subs = tuple(sorted(self.subsets, key=lambda s: s.indices[0]))
        object.__setattr__(self, "subsets", subs)
        covered = [i for s in subs for i in s.indices]
        n = len(covered)
        if n == 0:
            raise InfeasibleLabel("label must contain at least one subset")
        if sorted(covered) != list(range(1, n + 1)):
            raise InfeasibleLabel(
                f"subsets must partition {{1,...,{n}}}, got indices {sorted(covered)}"
            )

    @property
    def n(self) -> int:
        return sum(s.size for s in self.subsets)

    @property
    def det_parity(self) -> int:
        p = 1
        for s in self.subsets:
            p *= s.det_sign
        return p

    def pairs(self) -> list[SubsetLabel]:
        return [s for s in self.subsets if s.size == 2]

    def to_dict(self) -> dict:
        return {"subsets": [s.to_dict() for s in self.subsets]}

    @classmethod
    def from_dict(cls, data: dict) -> "PartitionLabel":
        subs = tuple(
            SubsetLabel(
                indices=tuple(entry["idx"]),
                det_sign=int(entry.get("det", 1)),
                angle_sign=int(entry.get("angle", 1)),
            )
            for entry in data["subsets"]
        )
        return cls(subsets=subs)

    @classmethod
    def singletons(cls, n: int, det_signs=None) -> "PartitionLabel":
        """All-singleton label; det_signs defaults to all +1."""
        if det_signs is None:
            det_signs = [1] * n
        return cls(
            subsets=tuple(
                SubsetLabel(indices=(i + 1,), det_sign=int(det_signs[i]))
                for i in range(n)
            )
        )

    def same_partition(self, other: "PartitionLabel") -> bool:
        """Equality of partitions and det signs, ignoring angle signs."""
        mine = [(s.indices, s.det_sign) for s in self.subsets]
        theirs = [(s.indices, s.det_sign) for s in other.subsets]
        return mine == theirs


@dataclass(frozen=True, eq=False)
class CriticalPoint:
    """A partition label, its realized rotation and the critical value."""

    label: PartitionLabel
    rotation: np.ndarray
    value: float


def _checked(r, d) -> tuple[np.ndarray, np.ndarray]:
    """Validated rotation and diagonal values of matching dimension."""
    rm = as_matrix(r)
    dv = _diag_values(d)
    if rm.shape[0] != dv.size:
        raise DimensionMismatch("rotation and diagonal dimensions differ")
    return rm, dv


def energy(r, d) -> float:
    """Cosserat shear-stretch energy ||sym(R D - I)||_F^2."""
    return float(_energy_batch(*_checked(r, d)))


def _energy_batch(r: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Energy of each matrix in a batch (..., n, n), without validation."""
    x = r * dv[None, :] - np.eye(dv.size)
    s = (x + np.swapaxes(x, -1, -2)) / 2.0
    return np.sum(s * s, axis=(-2, -1))


def _grad_batch(r: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Gradient skew((R^T D - I)^2) / 2 of each matrix in a batch, without validation."""
    x = np.swapaxes(r, -1, -2) * dv[None, :] - np.eye(dv.size)
    xx = x @ x
    return (xx - np.swapaxes(xx, -1, -2)) / 4.0


def energy_weighted(rbar, f, mu: float, mu_c: float) -> float:
    """Weighted energy mu*||sym(Rb^T F - I)||^2 + mu_c*||skew(Rb^T F - I)||^2.

    Reduces to the pure shear-stretch term for (mu, mu_c) = (1, 0); for
    mu_c = mu it collapses to mu*||Rb^T F - I||^2 because the symmetric
    and skew parts are orthogonal.
    """
    if mu < 0 or mu_c < 0:
        raise InvalidWeights("weights must be non-negative")
    rm = as_matrix(rbar)
    fm = as_matrix(f)
    if rm.shape != fm.shape:
        raise DimensionMismatch("rotation and matrix dimensions differ")
    x = rm.T @ fm - np.eye(fm.shape[0])
    return mu * frob_norm_sq(sym(x)) + mu_c * frob_norm_sq(skew(x))


def stationarity_defect(r, d) -> float:
    """||skew((R D - I)^2)||_F, zero exactly at critical points.

    Computed as twice the norm of the body-frame gradient
    skew((R^T D - I)^2) / 2, which has the same norm.
    """
    return 2.0 * frob_norm(_grad_batch(*_checked(r, d)))


def is_critical(r, d, tol: float = CRITICAL_TOL) -> bool:
    """Stationarity test: skew((R D - I)^2) small relative to 1 + ||D||^2."""
    dv = _diag_values(d)
    return stationarity_defect(r, dv) <= tol * (1.0 + float(np.sum(dv * dv)))


# -- critical values ---------------------------------------------------------


def _subset_values(sub: SubsetLabel, dv: np.ndarray) -> float:
    if sub.size == 1:
        di = dv[sub.indices[0] - 1]
        return (di - 1.0) ** 2 if sub.det_sign == 1 else (di + 1.0) ** 2
    di, dj = (dv[i - 1] for i in sub.indices)
    if sub.det_sign == 1:
        return 0.5 * (di - dj) ** 2
    return 0.5 * (di + dj) ** 2


def _check_structure(label: PartitionLabel, n: int) -> None:
    if label.n != n:
        raise InfeasibleLabel(f"label covers {label.n} indices, parameters have {n}")


def _pair_signs(di: float, dj: float) -> tuple[int, ...]:
    """Det signs for which the pair {i, j} admits a 2x2 block.

    det +1 needs d_i + d_j > 2 and det -1 needs |d_i - d_j| > 2, each by
    more than ``BOUNDARY_TOL``.  For positive entries the sum dominates the
    difference, so the result is (), (1,) or (1, -1).
    """
    if not di + dj > 2.0 + BOUNDARY_TOL:
        return ()
    if not abs(di - dj) > 2.0 + BOUNDARY_TOL:
        return (1,)
    return (1, -1)


def critical_value(label: PartitionLabel, d) -> float:
    """Critical value of a labeled partition.

    Sum of (d_i - 1)^2 over positive singletons, (d_i + 1)^2 over negative
    singletons, (d_i - d_j)^2 / 2 over positive pairs and
    (d_i + d_j)^2 / 2 over negative pairs.  The formula is evaluated for
    any label whose pairs admit a block for some sign choice, that is
    d_i + d_j > 2 + ``BOUNDARY_TOL``; use ``realize`` to additionally
    enforce the per-sign inequalities and the SO(n) parity.
    """
    params = as_diag(d)
    _check_structure(label, params.n)
    for sub in label.pairs():
        di, dj = (params.d[i - 1] for i in sub.indices)
        if not _pair_signs(di, dj):
            raise InfeasibleLabel(
                f"pair {sub.indices}: d_i + d_j = {di + dj:.12g} is not above "
                f"2 + {BOUNDARY_TOL:g}, no 2x2 block exists"
            )
    return float(sum(_subset_values(s, params.d) for s in label.subsets))


# -- realization -------------------------------------------------------------


def _check_realizable(label: PartitionLabel, params: DiagParams) -> None:
    _check_structure(label, params.n)
    if label.det_parity != 1:
        raise InfeasibleLabel("det signs must multiply to +1 for R in SO(n)")
    for sub in label.pairs():
        di, dj = (params.d[i - 1] for i in sub.indices)
        if sub.det_sign not in _pair_signs(di, dj):
            need = "d_i + d_j > 2" if sub.det_sign == 1 else "|d_i - d_j| > 2"
            raise InfeasibleLabel(
                f"pair {sub.indices} with det {sub.det_sign:+d} needs {need}, "
                f"got d = ({di:g}, {dj:g})"
            )


def _write_pair(r, i, j, di, dj, det: int) -> None:
    """Write the 2x2 critical block of the pair (i, j) (0-based) into r.

    cos a = 2 / (d_i + det d_j); the block is a rotation for det +1 and a
    reflection for det -1, written with angle sign +1 (sin a > 0).
    """
    c = 2.0 / (di + det * dj)
    s = math.sqrt(max(0.0, 1.0 - c * c))
    r[i, i], r[i, j], r[j, i], r[j, j] = c, -det * s, s, det * c


def _sign_bits(m: np.ndarray, k: int) -> np.ndarray:
    """(len(m), k) angle-sign bits of int64 indices m: pair p takes bit k-1-p."""
    # shifts past 63 select bits that are zero for every int64 index
    shifts = np.minimum(k - 1 - np.arange(k), 63)
    return (m[:, None] >> shifts) & 1


def _angle_variants(base, off, values, bits) -> np.ndarray:
    """Copies of ``base``, one per row of a (batch, k) sign-bit array.

    ``off`` = (i + j, j + i) locates the off-diagonal entries of the k pairs
    (i[p], j[p]), written into ``base`` with angle sign +1, and ``values``
    = ``base[off]``.  The angle sign is the sign of sin a, so a set bit p
    negates exactly the two off-diagonal entries of pair p.
    """
    sigma = 1.0 - 2.0 * bits
    out = np.repeat(base[None], bits.shape[0], axis=0)
    out[:, off[0], off[1]] = np.concatenate([sigma, sigma], axis=1) * values
    return out


def _points(label: PartitionLabel, dv: np.ndarray) -> list[CriticalPoint]:
    """The 2^m critical points of a checked label, ignoring its angle signs."""
    base = np.zeros((dv.size, dv.size))
    options, pairs = [], []
    for sub in label.subsets:
        i, j = sub.indices[0] - 1, sub.indices[-1] - 1
        if sub.size == 1:
            base[i, i] = sub.det_sign
        else:
            _write_pair(base, i, j, dv[i], dv[j], sub.det_sign)
            pairs.append((i, j))
        # angle signs: +1 for a singleton, +1 then -1 for a pair
        angles = (1, -1)[: sub.size]
        options.append(tuple(SubsetLabel(sub.indices, sub.det_sign, a) for a in angles))
    i, j = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    off = (np.concatenate([i, j]), np.concatenate([j, i]))
    bits = _sign_bits(np.arange(2 ** len(pairs), dtype=np.int64), len(pairs))
    rotations = _angle_variants(base, off, base[off], bits)
    value = float(sum(_subset_values(s, dv) for s in label.subsets))
    return [
        CriticalPoint(label=PartitionLabel(subsets=subs), rotation=r, value=value)
        for subs, r in zip(itertools.product(*options), rotations)
    ]


def realize(label: PartitionLabel, d) -> list[CriticalPoint]:
    """Explicit rotations for a feasible label, one per angle-sign choice.

    Each two-element subset carries two symmetric critical rotations; the
    returned list covers all 2^m combinations (m pairs), whatever angle
    signs ``label`` carries, with the first pair varying slowest and the
    +1 angle first per pair.  Every point satisfies the stationarity test
    and realizes ``critical_value(label, d)``.

    Raises
    ------
    InfeasibleLabel
        If the parity or a feasibility inequality fails.
    """
    params = as_diag(d)
    _check_realizable(label, params)
    return _points(label, params.d)


# -- enumeration -------------------------------------------------------------


def _partitions(indices: tuple[int, ...]):
    """All partitions of sorted ``indices`` into subsets of size 1 or 2."""
    if not indices:
        yield ()
        return
    first, rest = indices[0], indices[1:]
    for tail in _partitions(rest):
        yield ((first,),) + tail
    for j, other in enumerate(rest):
        remaining = rest[:j] + rest[j + 1 :]
        for tail in _partitions(remaining):
            yield ((first, other),) + tail


def enumerate_critical(d, max_n: int = DEFAULT_MAX_N):
    """Yield every critical point of W(.; D), without duplicates.

    Iterates over partitions into subsets of size one or two, all feasible
    determinant signs with overall parity +1, and both angle signs per
    pair.  Deterministic order.  The count grows super-exponentially, so
    dimensions above ``max_n`` are rejected.

    Raises
    ------
    TooLarge
        If n exceeds ``max_n``.
    """
    params = as_diag(d)
    n = params.n
    if n > max_n:
        raise TooLarge(f"n = {n} exceeds max_n = {max_n}")
    if not params.strict:
        warnings.warn(
            "tied diagonal entries: degenerate det = -1 families on tied "
            "pairs are not enumerated",
            NonIsolatedWarning,
            stacklevel=2,
        )
    for partition in _partitions(tuple(range(1, n + 1))):
        options = [
            (1, -1) if len(sub) == 1 else _pair_signs(*(params.d[i - 1] for i in sub))
            for sub in partition
        ]
        if any(not opt for opt in options):
            continue
        for combo in itertools.product(*options):
            if int(np.prod(combo)) != 1:
                continue
            subsets = tuple(SubsetLabel(sub, sgn) for sub, sgn in zip(partition, combo))
            yield from _points(PartitionLabel(subsets=subsets), params.d)
