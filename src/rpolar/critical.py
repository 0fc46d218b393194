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

import functools
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


def _subset_value(indices, det: int, dv) -> float:
    """Critical value of one subset, given by its 1-based indices and det sign."""
    if len(indices) == 1:
        di = dv[indices[0] - 1]
        return (di - 1.0) ** 2 if det == 1 else (di + 1.0) ** 2
    di, dj = (dv[i - 1] for i in indices)
    if det == 1:
        return 0.5 * (di - dj) ** 2
    return 0.5 * (di + dj) ** 2


def _label_value(subsets, dv) -> float:
    """Sum of the values of (indices, det) subsets, added left to right.

    An explicit loop rather than ``sum()``, so that the value does not
    depend on the Python version's float summation; ``_table`` adds its
    columns in the same order.
    """
    total = 0.0
    for indices, det in subsets:
        total += _subset_value(indices, det, dv)
    return float(total)


def _check_structure(label: PartitionLabel, n: int) -> None:
    if label.n != n:
        raise InfeasibleLabel(f"label covers {label.n} indices, parameters have {n}")


def _pair_signs(di, dj) -> tuple[int, ...]:
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
    (d_i + d_j)^2 / 2 over negative pairs, added left to right in label
    order.  The formula is evaluated for any label whose pairs admit a
    block for some sign choice, that is d_i + d_j > 2 + ``BOUNDARY_TOL``;
    use ``realize`` to additionally enforce the per-sign inequalities and
    the SO(n) parity.
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
    return _label_value(((s.indices, s.det_sign) for s in label.subsets), params.d)


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


def _rotations(subsets, dv: np.ndarray) -> np.ndarray:
    """The 2^m critical rotations of checked (indices, det) subsets.

    Variant v gives pair p the angle sign -1 where bit m-1-p of v is set,
    so the first pair varies slowest and each pair takes +1 first.
    """
    base = np.zeros((dv.size, dv.size))
    pairs = []
    for indices, det in subsets:
        i, j = indices[0] - 1, indices[-1] - 1
        if i == j:
            base[i, i] = det
        else:
            _write_pair(base, i, j, dv[i], dv[j], det)
            pairs.append((i, j))
    i, j = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    off = (np.concatenate([i, j]), np.concatenate([j, i]))
    bits = _sign_bits(np.arange(2 ** len(pairs), dtype=np.int64), len(pairs))
    return _angle_variants(base, off, base[off], bits)


def _points(label: PartitionLabel, dv: np.ndarray) -> list[CriticalPoint]:
    """The 2^m critical points of a checked label, ignoring its angle signs."""
    subsets = [(s.indices, s.det_sign) for s in label.subsets]
    rotations = _rotations(subsets, dv)
    value = _label_value(subsets, dv)
    # angle signs: +1 for a singleton, +1 then -1 for a pair
    options = [
        tuple(SubsetLabel(indices, det, a) for a in (1, -1)[: len(indices)])
        for indices, det in subsets
    ]
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


@functools.lru_cache(maxsize=None)
def _partition_rows(n: int) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The partitions of {1, ..., n} into subsets of size 1 or 2 as integer rows.

    Returns (subsets, sids, sizes).  ``subsets`` lists (1-based indices,
    det sign) per subset code: codes 2s and 2s + 1 are subset s with det
    +1 and det -1, the singletons {1}, ..., {n} first, then the pairs in
    lexicographic order.  Row k of ``sids`` holds the ``sizes[k]`` subsets
    s of one partition in label order, padded with n(n + 1) / 2, the
    number of subsets.  Rows follow ``_partitions``.  Cached read-only per
    n; one row per partition, not per label (140 152 rows at n = 12).
    """
    index_sets = [(i,) for i in range(1, n + 1)]
    index_sets += itertools.combinations(range(1, n + 1), 2)
    subsets = tuple((indices, det) for indices in index_sets for det in (1, -1))
    sid = {indices: s for s, indices in enumerate(index_sets)}
    # partitions of {1, ..., m}: m alone, or paired with one of the others
    counts = [1, 1]
    for m in range(2, n + 1):
        counts.append(counts[-1] + (m - 1) * counts[-2])
    # the smallest integer type that holds every code, n(n + 1) for padding
    sids = np.full((counts[n], n), len(index_sets), np.min_scalar_type(-n * (n + 1)))
    sizes = np.empty(counts[n], np.int64)
    for k, partition in enumerate(_partitions(tuple(range(1, n + 1)))):
        sids[k, : len(partition)] = [sid[sub] for sub in partition]
        sizes[k] = len(partition)
    sids.setflags(write=False)
    sizes.setflags(write=False)
    return subsets, sids, sizes


@dataclass(frozen=True, eq=False)
class _CriticalTable:
    """Every critical label of W(.; D) as integer rows, in enumeration order.

    Row k is one label: ``codes[k, :sizes[k]]`` are its subsets in label
    order, as indices into ``subsets`` (1-based indices, det sign), and
    ``values[k]`` is its critical value.  A label with m pairs has 2^m
    critical points, one per choice of angle signs.
    """

    params: DiagParams
    subsets: tuple
    codes: np.ndarray
    sizes: np.ndarray
    values: np.ndarray

    def rows(self):
        """Each label's subset codes as a list, in row order."""
        for row, size in zip(self.codes.tolist(), self.sizes.tolist()):
            yield row[:size]

    def label(self, row) -> PartitionLabel:
        """The label of a row of subset codes, with angle signs +1."""
        return PartitionLabel(subsets=tuple(SubsetLabel(*self.subsets[c]) for c in row))

    def subset_rotations(self, code: int) -> np.ndarray:
        """One subset's blocks of the critical rotations, angle sign +1 first.

        An array (1 or 2, n, n), zero outside the subset's rows and
        columns: a label's rotation is the sum of its subsets' blocks for
        the chosen angle signs.
        """
        return _rotations([self.subsets[code]], self.params.d)


def _enumerable(d, max_n: int) -> DiagParams:
    """Parameters of an enumeration: rejects n > max_n, warns on ties.

    The warning names the line that called the caller of this function.
    """
    params = as_diag(d)
    if params.n > max_n:
        raise TooLarge(f"n = {params.n} exceeds max_n = {max_n}")
    if not params.strict:
        warnings.warn(
            "tied diagonal entries: degenerate det = -1 families on tied "
            "pairs are not enumerated",
            NonIsolatedWarning,
            stacklevel=3,
        )
    return params


def _table(params: DiagParams) -> _CriticalTable:
    """The partitions whose pairs all admit a block, each expanded to its
    admitted det signs of product +1, with their values."""
    subsets, sids, sizes = _partition_rows(params.n)
    dv = params.d
    # how many det signs each subset admits; with one, it is +1, because a
    # pair that admits -1 admits +1; the padding has one and adds 0.0
    options = [
        2 if len(indices) == 1 else len(_pair_signs(dv[indices[0] - 1], dv[indices[1] - 1]))
        for indices, _ in subsets[::2]
    ]
    options = np.array(options + [1], np.int8)[sids]
    keep = (options > 0).all(axis=1)
    sids, sizes, free = sids[keep], sizes[keep], options[keep] == 2
    # A partition with f subsets free to take either sign has 2^(f-1) sign
    # patterns with an even number of -1 (one if f = 0); in product order
    # the r-th is 2r + parity(r), whose bit f-1-q is 1 where the q-th free
    # subset has det -1.
    f = free.sum(axis=1)
    counts = 2 ** np.maximum(f - 1, 0)
    row_part = np.repeat(np.arange(len(sids)), counts)
    r = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    parity = np.zeros_like(r)
    for b in range(params.n):
        parity ^= (r >> b) & 1
    pattern = 2 * r + parity
    # each column's bit position; shifts past 63 select a zero bit
    shifts = np.where(free, f[:, None] - np.cumsum(free, axis=1), 63)
    codes = 2 * sids[row_part]
    for p in range(params.n):
        codes[:, p] += (pattern >> shifts[row_part, p]) & 1
    terms = np.array([_subset_value(indices, det, dv) for indices, det in subsets] + [0.0])
    values = terms[codes[:, 0]]
    for column in codes.T[1:]:
        values += terms[column]
    return _CriticalTable(params, subsets, codes, sizes[row_part], values)


def _critical_table(d, max_n: int = DEFAULT_MAX_N) -> _CriticalTable:
    """Every critical label of W(.; D) and its value, as arrays.

    The rows are the labels of ``enumerate_critical`` in its order, and
    each value equals ``critical_value`` of its label bitwise.  No rotation
    is realized; ``_CriticalTable.subset_rotations`` gives the blocks.

    Raises
    ------
    TooLarge
        If n exceeds ``max_n``.
    """
    return _table(_enumerable(d, max_n))


def enumerate_critical(d, max_n: int = DEFAULT_MAX_N):
    """Yield every critical point of W(.; D), without duplicates.

    Partitions into subsets of size one or two in a fixed order, then all
    feasible determinant signs with overall parity +1 (first subset
    slowest, +1 before -1), then both angle signs per pair (first pair
    slowest, +1 first).  The labels and values come from one integer
    table; rotations are realized one label at a time.  The ``critical``
    CLI streams the same points sorted by value, then by label string,
    then in this angle order.  The count grows super-exponentially, so
    dimensions above ``max_n`` are rejected.

    Raises
    ------
    TooLarge
        If n exceeds ``max_n``.
    """
    params = _enumerable(d, max_n)
    table = _table(params)
    for row in table.rows():
        yield from _points(table.label(row), params.d)
