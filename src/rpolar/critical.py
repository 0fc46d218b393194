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

A label with m pairs has 2^m critical points, one per choice of angle
signs.  ``RotationFamily`` is the one builder of such a set, for
``realize``, ``enumerate_critical`` and the global minimizers of
``relaxed`` alike; its docstring gives the blocks and their order.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateD,
    DimensionMismatch,
    InfeasibleLabel,
    InvalidWeights,
    TiesNotStrictWarning,
    TooLarge,
)
from .linalg import as_matrix, frob_norm, frob_norm_sq, skew, sym

# A critical listing holds at most this many matrix entries, n^2 per point:
# the smallest power of two above n = 10 with every pair feasible.
MAX_LISTING_ENTRIES = 2**29
CRITICAL_TOL = 1e-9
# A pair whose feasibility margin is at or below this is treated as two
# singletons: its rotation angle is zero to within rounding.
BOUNDARY_TOL = 1e-9
# Iteration builds a rotation family in chunks of about this many bytes,
# one batched call per chunk, so its memory does not grow with 2^m.
CHUNK_BYTES = 1 << 20


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
        d = _finite_values(values)
        if np.any(d <= 0.0):
            raise DegenerateD("diagonal values must be positive")
        return cls(d=d, order=np.argsort(-d, kind="stable"))

    @property
    def n(self) -> int:
        return int(self.d.size)


def _finite_values(values) -> np.ndarray:
    """``values`` as a float vector, checked non-empty and finite."""
    d = np.atleast_1d(np.asarray(values, dtype=float))
    if d.ndim != 1 or d.size == 0:
        raise DegenerateD("expected a non-empty vector of diagonal values")
    if not np.all(np.isfinite(d)):
        raise DegenerateD("diagonal values must be finite")
    return d


def as_diag(d) -> DiagParams:
    """Coerce an array-like or DiagParams to DiagParams."""
    if isinstance(d, DiagParams):
        return d
    return DiagParams.from_values(d)


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
    def singletons(cls, n: int) -> "PartitionLabel":
        """All-singleton label with every det sign +1."""
        return cls(subsets=tuple(SubsetLabel(indices=(i + 1,), det_sign=1) for i in range(n)))

    def same_partition(self, other: "PartitionLabel") -> bool:
        """Equality of partitions and det signs, ignoring angle signs."""
        mine = [(s.indices, s.det_sign) for s in self.subsets]
        theirs = [(s.indices, s.det_sign) for s in other.subsets]
        return mine == theirs


def _subsets_label(subsets) -> PartitionLabel:
    """The label of (1-based indices, det) subsets, with angle signs +1."""
    return PartitionLabel(subsets=tuple(SubsetLabel(*sub) for sub in subsets))


@dataclass(frozen=True, eq=False)
class CriticalPoint:
    """A partition label, its realized rotation and the critical value."""

    label: PartitionLabel
    rotation: np.ndarray
    value: float


def _checked(r, d) -> tuple[np.ndarray, np.ndarray]:
    """Validated rotation and diagonal values of matching dimension."""
    rm = as_matrix(r)
    dv = _finite_values(d)
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
    if not (0 <= mu < np.inf and 0 <= mu_c < np.inf):
        raise InvalidWeights("weights must be finite and non-negative")
    rm = as_matrix(rbar)
    fm = as_matrix(f)
    if rm.shape != fm.shape:
        raise DimensionMismatch("rotation and matrix dimensions differ")
    x = rm.T @ fm - np.eye(fm.shape[0])
    return mu * frob_norm_sq(sym(x)) + mu_c * frob_norm_sq(skew(x))


def is_critical(r, d) -> bool:
    """Stationarity test: ||skew((R D - I)^2)|| <= CRITICAL_TOL (1 + ||D||^2).

    The norm is computed as twice that of the body-frame gradient
    skew((R^T D - I)^2) / 2, since skew((R^T D - I)^2) has the same norm.
    """
    rm, dv = _checked(r, d)
    defect = 2.0 * frob_norm(_grad_batch(rm, dv))
    return defect <= CRITICAL_TOL * (1.0 + float(np.sum(dv * dv)))


# -- critical values ---------------------------------------------------------


def _label_value(subsets, dv) -> float:
    """Sum of the values of (1-based indices, det) subsets, added left to right.

    A singleton's value is (d_i - det)^2 and a pair's (d_i - det d_j)^2 / 2.
    An explicit loop rather than ``sum()``, so that the value does not
    depend on the Python version's float summation; ``_table`` adds its
    columns in the same order.  ``dv`` is a list of Python floats, whose
    products overflow to inf without an exception or a warning.
    """
    total = 0.0
    for indices, det in subsets:
        if len(indices) == 1:
            t = dv[indices[0] - 1] - det
            total += t * t
        else:
            t = dv[indices[0] - 1] - det * dv[indices[1] - 1]
            total += 0.5 * (t * t)
    return total


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


def _block_cos_sin(di, dj, det) -> tuple[float, float]:
    """cos a = 2 / (d_i + det d_j) and sin a = sqrt(1 - cos^2 a) of a pair's block."""
    c = 2.0 / (di + det * dj)
    return c, math.sqrt(max(0.0, 1.0 - c * c))


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
    return _label_value(((s.indices, s.det_sign) for s in label.subsets), params.d.tolist())


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


# Per thread, the two flat buffers that iteration builds chunks into, kept
# across calls so that streaming a family does not fault in fresh pages.
_chunk_buffers = threading.local()


def _chunk_buffer(size: int) -> np.ndarray:
    """``size`` floats in one of this thread's two chunk buffers, if one of
    them has no live view, else in fresh memory."""
    pool = getattr(_chunk_buffers, "pool", None)
    if pool is None:
        pool = _chunk_buffers.pool = [np.empty(0), np.empty(0)]
    for slot in range(len(pool)):
        # every view of a buffer holds a reference to it, so a count of 2
        # (the list and the argument) means that none is alive
        if sys.getrefcount(pool[slot]) == 2:
            if pool[slot].size < size:
                pool[slot] = np.empty(max(size, CHUNK_BYTES // 8))
            return pool[slot][:size]
    return np.empty(size)


class RotationFamily(Sequence):
    """The 2^m critical rotations of one labeled partition, built on demand.

    B_0 has the given diagonal, over which each of the m pairs (i, j, det)
    has its 2x2 critical block, cos a = 2 / (d_i + det d_j), at rows and
    columns (i, j), in that order: cos a at (i, i), -det sin a at (i, j),
    sin a at (j, i) and det cos a at (j, j), with sin a > 0, so the angle
    sign refers to the block written i first.  The block is a rotation
    for det +1 and a reflection for det -1.
    Rotation v is L B_v R, where B_v is B_0 with the angle sign of pair
    p negated (its two off-diagonal entries flipped) where bit m-1-p of v
    is set: the first pair varies slowest and takes +1 first.  Without a
    left frame L = I, and R is I or a reflection J, a column sign flip.
    With the frames (L, R) = (V, W^T) of F = V S W^T, each rotation is a
    rank-2m update of one fixed matrix, through the 2m paired columns of
    V and rows of W^T.

    Indexing builds one matrix in O(n^2 m) time and O(n^2) memory, and
    ``_chunk`` a fresh batch.  Iteration builds chunks of about
    ``CHUNK_BYTES`` with one batched call each and yields views into them.
    The chunk memory is reused only once no view of it is alive: a thread
    keeps at most two chunk buffers across calls and builds a chunk into
    one that no view holds, else into fresh memory, so a kept view never
    changes.  ``len`` is 2^m, which, as for ``range``, the builtin
    ``len()`` can report only up to ``sys.maxsize`` (m <= 62); indexing
    works for any m.  ``cosines`` holds cos a per pair.
    """

    def __init__(self, diagonal, pairs, dv, left=None, right=None):
        """Family of B_0 with ``diagonal`` and the 0-based ``pairs`` (i, j, det).

        ``dv`` holds the n values the pairs index.  ``left`` and ``right``
        are the frames V and W^T; with ``left`` None, ``right`` is None or
        the diagonal of the reflection J.
        """
        self.m = len(pairs)
        self._n = len(dv)
        self._count = 2**self.m
        # B_0's diagonal and, per pair, its entries at (i, j) and (j, i)
        diagonal = list(diagonal)
        upper, lower = [], []
        for i, j, det in pairs:
            c, s = _block_cos_sin(dv[i], dv[j], det)
            diagonal[i], diagonal[j] = c, det * c
            upper.append(-det * s)
            lower.append(s)
        self.cosines = tuple([float(diagonal[i]) for i, _, _ in pairs])
        diagonal = np.array(diagonal, dtype=float)
        paired = np.array([index for i, j, _ in pairs for index in (i, j)], np.intp)
        if left is None:
            i, j = paired[0::2], paired[1::2]
            self._off = (np.concatenate([i, j]), np.concatenate([j, i]))
            self._off_values = np.array(upper + lower, dtype=float)
            if right is not None:
                # B_0 J flips column signs; + 0.0 turns the -0.0 of a flipped
                # zero into the +0.0 that the product B_0 @ J gives
                diagonal = diagonal * right + 0.0
                self._off_values = self._off_values * right[self._off[1]] + 0.0
            self._diagonal = diagonal
            self._frames = None
        else:
            # V B_v W^T = V C W^T + V_P diag(sigma_v) O_P W^T, where C is the
            # diagonal of B_0, O its off-diagonal part and sigma_v the signs:
            # O_P W^T has, per pair, row j of W^T times the entry at (i, j)
            # and row i times the entry at (j, i)
            self._base = (left * diagonal) @ right
            swapped = [index for i, j, _ in pairs for index in (j, i)]
            off = [value for entries in zip(upper, lower) for value in entries]
            self._frames = (left.take(paired, axis=1), right[swapped] * np.array(off)[:, None])

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(self._count)[index])
        v = range(self._count)[index]
        bits = [(v >> (self.m - 1 - p)) & 1 for p in range(self.m)]
        out = np.empty((1, self._n, self._n))
        return self._build(np.array(bits, dtype=np.int64).reshape(1, self.m), out)[0]

    def __iter__(self):
        n = self._n
        step = max(1, CHUNK_BYTES // (8 * n * n))
        for start in range(0, self._count, step):
            bits = self._bits(start, min(start + step, self._count))
            out = _chunk_buffer(len(bits) * n * n).reshape(-1, n, n)
            yield from self._build(bits, out)
            # only views the caller still holds keep the buffer in use
            del out

    def _bits(self, start: int, stop: int) -> np.ndarray:
        """Sign bits of rotations start, ..., stop - 1, shape (stop - start, m)."""
        v = np.arange(start, stop, dtype=np.int64)
        # shifts past 63 select bits that are zero for every int64 index
        shifts = np.minimum(self.m - 1 - np.arange(self.m), 63)
        return (v[:, None] >> shifts) & 1

    def _chunk(self, start: int, stop: int) -> np.ndarray:
        """Rotations start, ..., stop - 1 in fresh memory, shape (stop - start, n, n)."""
        out = np.empty((stop - start, self._n, self._n))
        return self._build(self._bits(start, stop), out)

    def _build(self, bits: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the rotations of a (batch, m) array of sign bits into ``out``,
        a C-contiguous (batch, n, n) array, and return it."""
        sigma = 1.0 - 2.0 * bits
        if self._frames is None:
            out.fill(0.0)
            out.reshape(len(out), -1)[:, :: self._n + 1] = self._diagonal
            out[:, self._off[0], self._off[1]] = (
                np.concatenate([sigma, sigma], axis=1) * self._off_values
            )
            return out
        left_p, off_rows = self._frames
        np.matmul(left_p * np.repeat(sigma, 2, axis=1)[:, None, :], off_rows, out=out)
        out += self._base
        return out


def _family(subsets, dv: np.ndarray) -> RotationFamily:
    """The rotation family of checked (indices, det) subsets in label order."""
    diagonal = [0.0] * dv.size
    pairs = []
    for indices, det in subsets:
        if len(indices) == 1:
            diagonal[indices[0] - 1] = det
        else:
            pairs.append((indices[0] - 1, indices[1] - 1, det))
    return RotationFamily(diagonal, pairs, dv)


def _points(label: PartitionLabel, dv: np.ndarray) -> list[CriticalPoint]:
    """The 2^m critical points of a checked label, ignoring its angle signs."""
    subsets = [(s.indices, s.det_sign) for s in label.subsets]
    family = _family(subsets, dv)
    rotations = family._chunk(0, len(family))
    value = _label_value(subsets, dv.tolist())
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
    signs ``label`` carries, in the order of ``RotationFamily`` with the
    pairs in label order, each written smaller index first.  Every point
    satisfies the stationarity test and realizes ``critical_value(label, d)``.

    Raises
    ------
    InfeasibleLabel
        If the parity or a feasibility inequality fails.
    """
    params = as_diag(d)
    _check_realizable(label, params)
    return _points(label, params.d)


# -- enumeration -------------------------------------------------------------


def _feasible_partitions(indices: tuple[int, ...], sid: dict, options: list):
    """Partitions of sorted ``indices`` into singletons and pairs that admit
    a block, as tuples of subset ids ``sid[indices]``.

    The first index goes alone, then with each later index in turn, so
    dropping the pairs with no det sign (``options[id]`` 0) keeps the order
    of the unpruned partitions.
    """
    if not indices:
        yield ()
        return
    first, rest = indices[0], indices[1:]
    for tail in _feasible_partitions(rest, sid, options):
        yield (sid[(first,)],) + tail
    for j, other in enumerate(rest):
        s = sid[(first, other)]
        if options[s]:
            for tail in _feasible_partitions(rest[:j] + rest[j + 1 :], sid, options):
                yield (s,) + tail


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
        return _subsets_label(self.subsets[c] for c in row)

    def subset_rotations(self, code: int) -> np.ndarray:
        """One subset's blocks of the critical rotations, angle sign +1 first.

        An array (1 or 2, n, n), zero outside the subset's rows and
        columns: a label's rotation is the sum of its subsets' blocks for
        the chosen angle signs.
        """
        family = _family([self.subsets[code]], self.params.d)
        return family._chunk(0, len(family))


def _check_listing(points: int, n: int) -> None:
    """Raise ``TooLarge`` if ``points`` of n x n pass ``MAX_LISTING_ENTRIES``."""
    if points * n * n > MAX_LISTING_ENTRIES:
        raise TooLarge(f"the critical points of n = {n} exceed {MAX_LISTING_ENTRIES} entries")


def _table(d) -> _CriticalTable:
    """The partitions whose pairs all admit a block, each expanded to its
    admitted det signs of product +1, with their values.

    Subset code 2s or 2s + 1 is subset s with det +1 or -1: the singletons
    {1}, ..., {n} first, then the pairs in lexicographic order.  The points
    are counted as the partitions are generated, and ``TooLarge`` is
    raised once they hold more than ``MAX_LISTING_ENTRIES`` entries.  A
    tie warns, naming the line that called the caller of this function.
    """
    params = as_diag(d)
    if not params.strict:
        warnings.warn(
            "tied diagonal entries: degenerate det = -1 families on tied "
            "pairs are not enumerated",
            TiesNotStrictWarning,
            stacklevel=3,
        )
    n = params.n
    # the all-singleton partition alone has 2^(n - 1) points: bound it
    # before the n(n + 1) subset codes are built and the walk recurses n deep
    _check_listing(2 ** (n - 1), n)
    dv = params.d.tolist()
    index_sets = [(i,) for i in range(1, n + 1)]
    index_sets += itertools.combinations(range(1, n + 1), 2)
    subsets = tuple((indices, det) for indices in index_sets for det in (1, -1))
    sid = {indices: s for s, indices in enumerate(index_sets)}
    # how many det signs each subset admits; with one, it is +1, because a
    # pair that admits -1 admits +1; the padding has one and adds 0.0
    options = [2] * n + [len(_pair_signs(dv[i - 1], dv[j - 1])) for i, j in index_sets[n:]] + [1]
    pad = (len(index_sets),) * n
    rows, points = [], 0
    for row in _feasible_partitions(tuple(range(1, n + 1)), sid, options):
        # 2^(f - 1) det sign patterns for f free subsets (one if f = 0),
        # and two angle signs per pair
        f = sum(options[s] == 2 for s in row)
        points += 2 ** (max(f - 1, 0) + n - len(row))
        _check_listing(points, n)
        rows.append(row + pad[len(row) :])
    # the smallest integer type that holds every code, n(n + 1) for padding
    sids = np.array(rows, np.min_scalar_type(-n * (n + 1)))
    sizes = np.count_nonzero(sids < len(index_sets), axis=1)
    free = np.array(options, np.int8)[sids] == 2
    # A partition with f subsets free to take either sign has 2^(f-1) sign
    # patterns with an even number of -1 (one if f = 0); in product order
    # the r-th is 2r + parity(r), whose bit f-1-q is 1 where the q-th free
    # subset has det -1.
    f = free.sum(axis=1)
    counts = 2 ** np.maximum(f - 1, 0)
    row_part = np.repeat(np.arange(len(sids)), counts)
    r = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    parity = np.zeros_like(r)
    for b in range(n):
        parity ^= (r >> b) & 1
    pattern = 2 * r + parity
    # each column's bit position; shifts past 63 select a zero bit
    shifts = np.where(free, f[:, None] - np.cumsum(free, axis=1), 63)
    codes = 2 * sids[row_part]
    for p in range(n):
        codes[:, p] += (pattern >> shifts[row_part, p]) & 1
    terms = np.array([_label_value([sub], dv) for sub in subsets] + [0.0])
    values = terms[codes[:, 0]]
    for column in codes.T[1:]:
        values += terms[column]
    return _CriticalTable(params, subsets, codes, sizes[row_part], values)


def _critical_table(d) -> _CriticalTable:
    """Every critical label of W(.; D) and its value, as arrays.

    The rows are the labels of ``enumerate_critical`` in its order, and
    each value equals ``critical_value`` of its label bitwise.  No rotation
    is realized; ``_CriticalTable.subset_rotations`` gives the blocks.
    This wraps ``_table`` so that, as for ``enumerate_critical``, the tie
    warning names the line that called this function.

    Raises
    ------
    TooLarge
        If the critical points hold more than ``MAX_LISTING_ENTRIES``
        matrix entries, n^2 per point.
    """
    return _table(d)


def enumerate_critical(d):
    """Yield every critical point of W(.; D), without duplicates.

    Partitions into subsets of size one or two in a fixed order, then all
    feasible determinant signs with overall parity +1 (first subset
    slowest, +1 before -1), then both angle signs per pair in the order
    of ``RotationFamily``.  The labels and values come from one integer
    table; rotations are realized one label at a time.  The ``critical``
    CLI streams the same points sorted by value, then by label string,
    then in this angle order.  The count grows super-exponentially, so
    it is bounded before the first point is yielded.

    Raises
    ------
    TooLarge
        If the critical points hold more than ``MAX_LISTING_ENTRIES``
        matrix entries, n^2 per point.
    """
    table = _table(d)
    for row in table.rows():
        yield from _points(table.label(row), table.params.d)
