"""Closed-form global minimization of the shear-stretch energy.

The global minimizers of W(R; D) over SO(n) for strictly ordered positive
d_1 > ... > d_n correspond to the partition with k leading pairs
{1,2}, ..., {2k-1,2k} and singletons elsewhere, where k is maximal with
d_{2k-1} + d_{2k} > 2.  Each pair contributes a planar rotation with
cos(a_i) = 2 / (d_{2i-1} + d_{2i}) and a free angle sign, so there are
2^k minimizers, and the reduced energy is

    W_red(D) = 1/2 sum_{i<=k} (d_{2i-1} - d_{2i})^2
             + sum_{i>2k} (d_i - 1)^2.

The 2^k minimizers share one frame and the k cosines and differ only in
the angle signs, so they are kept as a lazy sequence and built on demand.

This module also provides the energy-decreasing label transformation that
connects an arbitrary critical point to the optimal one, the full-matrix
entry point via polar reduction, and the sign-reflection reduction for
diagonal parameters with negative entries.
"""

from __future__ import annotations

import operator
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .critical import (
    BOUNDARY_TOL,
    DiagParams,
    PartitionLabel,
    SubsetLabel,
    _angle_variants,
    _pair_signs,
    _sign_bits,
    _write_pair,
    as_diag,
    critical_value,
)
from .errors import DegenerateD, NonClassicalRange, TiesNotStrictWarning
from .linalg import RANK_TOL, _svd_polar, as_matrix, polar_decompose

# Iteration builds the minimizers in chunks of about this many bytes, one
# batched call per chunk, so its memory does not grow with 2^k.
CHUNK_BYTES = 1 << 20


class MinimizerRotations(Sequence):
    """The 2^k global minimizers of one problem, built on demand.

    Minimizer m is L B_m R^T: B_m is the identity with the k 2x2 rotation
    blocks written at the paired indices, and pair p takes angle sign -1
    where bit k-1-p of m is set, so the first pair's sign varies slowest
    and +1 comes first.  Without a left frame L = I and B_m is built by
    ``critical._angle_variants``, as ``critical.realize`` builds it; the
    right frame is then I or a reflection J, a column sign flip.  With
    the frames (L, R) = (V, W) of F = V S W^T, each minimizer is a
    rank-2k update of one fixed matrix, through the 2k paired columns of
    V and W.

    Indexing builds one matrix in O(n^2 k) time and O(n^2) memory;
    iteration builds chunks of about ``CHUNK_BYTES`` with one batched call
    each and yields views into them.  ``len`` is 2^k, which, as for
    ``range``, the builtin ``len()`` can report only up to ``sys.maxsize``
    (k <= 62); indexing works for any k.
    """

    def __init__(self, params: DiagParams, k: int, left=None, right=None):
        """Minimizers for the k leading sorted pairs of ``params``.

        ``left`` and ``right`` are the frames V and W; with ``left`` None,
        ``right`` is None or the diagonal of the reflection J.
        """
        self.k = k
        self._n = params.n
        self._count = 2**k
        paired = params.order[: 2 * k]
        i, j = paired[0::2], paired[1::2]
        # B_0 has every block with angle sign +1, written by the one block
        # writer; B_m differs from it only in the sign of the off-diagonal
        # entries of the pairs whose bit is set.
        base = np.eye(self._n)
        for p in range(k):
            _write_pair(base, i[p], j[p], params.d[i[p]], params.d[j[p]], 1)
        if left is None:
            if right is not None:
                # B_0 J flips column signs; + 0.0 turns the -0.0 of a flipped
                # zero into the +0.0 that the product B_0 @ J gives
                base = base * right + 0.0
            self._base = base
            self._off = (np.concatenate([i, j]), np.concatenate([j, i]))
            self._off_values = base[self._off]
            self._frames = None
        else:
            # V B_m W^T = V C W^T + V_P diag(sigma_m) O_P W^T, where C is the
            # diagonal of B_0, O its off-diagonal part and sigma_m the signs
            c = np.diagonal(base)
            self._base = (left * c) @ right.T
            self._frames = (left[:, paired], (base - np.diag(c))[paired] @ right.T)

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(self._count)[index])
        m = operator.index(index)
        if m < 0:
            m += self._count
        if not 0 <= m < self._count:
            raise IndexError(f"minimizer index {index} out of range for 2^{self.k}")
        bits = [(m >> (self.k - 1 - p)) & 1 for p in range(self.k)]
        return self._build(np.array(bits, dtype=np.int64).reshape(1, self.k))[0]

    def __iter__(self):
        step = max(1, CHUNK_BYTES // (8 * self._n * self._n))
        for start in range(0, self._count, step):
            m = np.arange(start, min(start + step, self._count), dtype=np.int64)
            yield from self._build(_sign_bits(m, self.k))

    def _build(self, bits: np.ndarray) -> np.ndarray:
        """Minimizers for a (batch, k) array of sign bits, shape (batch, n, n)."""
        if self._frames is None:
            return _angle_variants(self._base, self._off, self._off_values, bits)
        left_p, off_rows = self._frames
        sigma = 1.0 - 2.0 * bits
        out = (left_p * np.repeat(sigma, 2, axis=1)[:, None, :]) @ off_rows
        out += self._base
        return out


@dataclass(frozen=True, eq=False)
class MinimizerSet:
    """All global minimizers of W(.; D) plus the reduced energy.

    ``rotations`` is a lazy, read-only sequence of the 2^k minimizers
    (matrices in user index order): ``rotations[m]`` builds the minimizer
    whose angle sign on pair p is -1 where bit k-1-p of m is set (per pair
    the +1 sign first, the first pair varying slowest), iteration builds
    them in chunks, and ``np.stack(list(ms.rotations))`` materializes them
    all.  ``cos_alphas`` holds the per-pair rotation cosines in sorted
    order, and ``label`` the optimal partition in user indices with all
    det signs +1, built on first read.
    ``flags`` may contain "boundary_case" (the first sorted pair left as
    singletons has a sum within ``BOUNDARY_TOL`` of 2),
    "non_isolated" (an active tie makes the family continuous) and
    "reflected" (minimizers were composed with a sign reflection).
    """

    k: int
    rotations: Sequence[np.ndarray]
    reduced_energy: float
    cos_alphas: tuple[float, ...]
    flags: tuple[str, ...]
    _params: DiagParams = field(repr=False)

    @cached_property
    def label(self) -> PartitionLabel:
        return _relabel(_leading_pairs(self.k, self._params.n), self._params.order)


@dataclass(frozen=True)
class SchemeStep:
    name: str
    label_before: PartitionLabel
    label_after: PartitionLabel
    value_before: float
    value_after: float

    @property
    def changed(self) -> bool:
        return not self.label_before.same_partition(self.label_after)


@dataclass(frozen=True)
class SchemeTrace:
    """Record of the four label transformations, values non-increasing."""

    steps: tuple[SchemeStep, ...]

    @property
    def final_label(self) -> PartitionLabel:
        return self.steps[-1].label_after

    @property
    def final_value(self) -> float:
        return self.steps[-1].value_after

    @property
    def values(self) -> list[float]:
        return [self.steps[0].value_before] + [s.value_after for s in self.steps]


def optimal_k(d) -> int:
    """Number of leading sorted pairs {1,2}, {3,4}, ... that admit a block.

    Counts pairs while d_{2k-1} + d_{2k} > 2 + ``BOUNDARY_TOL`` on the
    sorted values (0 if none).
    """
    sd = as_diag(d).sorted_d
    k = 0
    while 2 * k + 1 < sd.size and _pair_signs(sd[2 * k], sd[2 * k + 1]):
        k += 1
    return k


def _build_label(pairs, singles) -> PartitionLabel:
    subs = [SubsetLabel(indices=tuple(p), det_sign=1) for p in pairs]
    subs += [SubsetLabel(indices=(i,), det_sign=1) for i in singles]
    return PartitionLabel(subsets=tuple(subs))


def _tie_flags(params: DiagParams, k: int) -> list[str]:
    # A tie produces a continuous minimizer family only when it crosses an
    # even cut inside the leading pair region: swapping the tied entries
    # then connects distinct optimal blocks.  Ties strictly inside a pair
    # or entirely within the trailing singleton region keep the 2^k
    # minimizers isolated (the identity block is unique regardless).
    sd = params.sorted_d
    for j in range(2, 2 * k + 1, 2):
        if j < params.n and sd[j - 1] == sd[j]:
            return ["non_isolated"]
    return []


def _minimize(params: DiagParams, left=None, right=None) -> MinimizerSet:
    """Minimizer set of W(.; diag(params.d)) in the frames (left, right).

    See ``MinimizerRotations`` for the frames.  Warns, on behalf of the
    public caller, when an active tie makes the minimizers non-isolated.
    """
    k = optimal_k(params)
    sd = params.sorted_d.tolist()
    flags: list[str] = []
    if 2 * k + 1 < len(sd) and abs(sd[2 * k] + sd[2 * k + 1] - 2.0) <= BOUNDARY_TOL:
        flags.append("boundary_case")

    tie_flags = _tie_flags(params, k)
    if tie_flags:
        warnings.warn(
            "tied diagonal entries: global minimizers form a continuous "
            "family; returning representatives",
            TiesNotStrictWarning,
            stacklevel=3,
        )
    flags.extend(tie_flags)

    cos_alphas = tuple(2.0 / (sd[2 * i] + sd[2 * i + 1]) for i in range(k))
    # Summed term by term in this order, so the value does not depend on
    # the Python version's float summation.
    pair_sum = 0.0
    for i in range(k):
        pair_sum += (sd[2 * i] - sd[2 * i + 1]) ** 2
    single_sum = 0.0
    for j in range(2 * k, len(sd)):
        single_sum += (sd[j] - 1.0) ** 2

    return MinimizerSet(
        k=k,
        rotations=MinimizerRotations(params, k, left, right),
        reduced_energy=0.5 * pair_sum + single_sum,
        cos_alphas=cos_alphas,
        flags=tuple(flags),
        _params=params,
    )


def rpolar_diag(d) -> MinimizerSet:
    """All global minimizers of W(R; D) for positive diagonal parameters.

    Pairs are formed on the sorted values and mapped back to user index
    positions; ``optimal_k`` decides how many.  A pair sum at or below
    2 + ``BOUNDARY_TOL`` leaves the pair as singletons, and the result is
    flagged "boundary_case" when that sum lies within ``BOUNDARY_TOL`` of 2.
    With tied entries a representative of each minimizer family is returned
    and a ``TiesNotStrictWarning`` is emitted when the tie is active.
    """
    return _minimize(as_diag(d))


def rpolar_full(f) -> MinimizerSet:
    """Absolute energy-minimizing rotations for a full matrix F, det F > 0.

    Reduces to the diagonal problem through the polar decomposition: with
    F = V diag(s) W^T the polar factor is Q = V W^T, the relative problem
    is solved for diag(s), and each relative minimizer R maps to the
    absolute rotation V R W^T = Q W R W^T.  The reduced energy is
    unchanged.  When F has repeated singular values the eigenbasis W is not
    unique; the returned rotations are representatives and the set is
    flagged "non_isolated".
    """
    v, s, wh = _svd_polar(as_matrix(f))
    # singular values come sorted, finite and positive (_svd_polar rejects
    # rank deficiency), so they need no validation or sorting
    return _minimize(DiagParams(d=s, order=np.arange(s.size)), v, wh.T)


def rpolar_classical(f, mu: float, mu_c: float) -> np.ndarray:
    """Unique minimizer in the classical weight range mu_c >= mu > 0.

    In that range the weighted energy is minimized by the orthogonal polar
    factor of F, for any F with det F > 0.

    Raises
    ------
    NonClassicalRange
        If mu_c < mu; use ``rpolar_full`` for the (1, 0) limit case.
    """
    if mu <= 0 or mu_c < 0:
        raise NonClassicalRange("requires mu > 0 and mu_c >= 0")
    if mu_c < mu:
        raise NonClassicalRange(
            "weights are outside the classical range mu_c >= mu"
        )
    return polar_decompose(f).rot


# -- minimizing scheme -------------------------------------------------------


def _relabel(label: PartitionLabel, index_of) -> PartitionLabel:
    """``label`` with each 1-based index i renamed index_of[i - 1] + 1."""
    rename = [int(u) + 1 for u in index_of]
    return PartitionLabel(
        subsets=tuple(
            SubsetLabel(tuple(rename[i - 1] for i in s.indices), s.det_sign, s.angle_sign)
            for s in label.subsets
        )
    )


def _flip_positive(label: PartitionLabel) -> PartitionLabel:
    # One composite transformation: the all-positive target always has
    # parity +1, so no intermediate parity bookkeeping is needed.
    return PartitionLabel(
        subsets=tuple(SubsetLabel(s.indices, 1, s.angle_sign) for s in label.subsets)
    )


def _overlapping(pairs: list[tuple[int, int]]):
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            p, q = pairs[a], pairs[b]
            lo, hi = (p, q) if p[0] < q[0] else (q, p)
            if hi[0] < lo[1]:  # spans interleave or nest
                return lo, hi
    return None


def _disentangle(label: PartitionLabel, sd: np.ndarray) -> PartitionLabel:
    # Replace each interleaving or nested pair of blocks by the sorted
    # pairing {p1,p2}, {p3,p4}; the second block degenerates to singletons
    # when it admits no block.  Every rewrite strictly lowers the
    # critical value, so the loop terminates.
    pairs = [s.indices for s in label.pairs()]
    singles = [s.indices[0] for s in label.subsets if s.size == 1]
    while True:
        clash = _overlapping(pairs)
        if clash is None:
            break
        lo, hi = clash
        pairs.remove(lo)
        pairs.remove(hi)
        p1, p2, p3, p4 = sorted(lo + hi)
        pairs.append((p1, p2))
        if _pair_signs(sd[p3 - 1], sd[p4 - 1]):
            pairs.append((p3, p4))
        else:
            singles.extend([p3, p4])
    return _build_label(pairs, singles)


def _leading_pairs(k: int, n: int) -> PartitionLabel:
    pairs = [(2 * i + 1, 2 * i + 2) for i in range(k)]
    return _build_label(pairs, range(2 * k + 1, n + 1))


def scheme_minimize(start: PartitionLabel, d) -> SchemeTrace:
    """Energy-decreasing label transformation ending at the optimal label.

    Applies, in order: flip all det signs positive, disentangle
    overlapping pairs, shift pairs to the leading (sorted) positions, and
    join adjacent singletons into new pairs while their sum exceeds 2.
    Each recorded step has value_after <= value_before; the final label is
    the one returned by ``rpolar_diag``.

    The start label is accepted whenever each of its pairs admits a block
    for some sign choice; overall parity is not required (labels are
    evaluated by the value formula, not realized).

    Raises
    ------
    InfeasibleLabel
        If a pair of the start label admits no block at all.
    """
    params = as_diag(d)
    critical_value(start, params)
    sd = params.sorted_d

    # params.order maps sorted ranks to user indices, its inverse back
    current = _relabel(start, np.argsort(params.order))
    rank_params = DiagParams.from_values(sd)

    steps = []
    for name, transform in (
        ("sign-flip", _flip_positive),
        ("disentangle", lambda lab: _disentangle(lab, sd)),
        # Move the (non-overlapping) blocks to the leading rank positions
        # {1,2}, {3,4}, ...; sums only grow, so feasibility and monotonicity
        # are preserved.
        ("shift", lambda lab: _leading_pairs(len(lab.pairs()), lab.n)),
        # After the shift every block sits at a leading position and admits a
        # block, so joining singletons continues the leading run to optimal_k.
        ("exhaust", lambda lab: _leading_pairs(optimal_k(sd), lab.n)),
    ):
        after = transform(current)
        steps.append(
            SchemeStep(
                name=name,
                label_before=_relabel(current, params.order),
                label_after=_relabel(after, params.order),
                value_before=critical_value(current, rank_params),
                value_after=critical_value(after, rank_params),
            )
        )
        current = after
    return SchemeTrace(steps=tuple(steps))


# -- sign reflection ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ReflectionInfo:
    """Reduction of signed diagonal parameters to |D|.

    ``signs`` is the diagonal of the reflection J with J D = |D|.  When
    det J = +1, minimizers of W(.; D) over SO(n) are exactly
    {R' J : R' minimizes W(.; |D|)}; when det J = -1 the minimization
    lives in the orientation-reversing component, for which no closed form
    is provided, and ``orientation_reversed`` is set for the caller.
    """

    abs_params: DiagParams
    signs: np.ndarray
    det_sign: int

    @property
    def orientation_reversed(self) -> bool:
        return self.det_sign < 0

    def reflection(self) -> np.ndarray:
        return np.diag(self.signs)


def reflect_negative(d_signed) -> ReflectionInfo:
    """Reduce signed diagonal parameters to positive ones via a reflection.

    Requires d_i != 0 and d_i + d_j != 0 for all i, j (no additive
    cancellation), checked within ``RANK_TOL`` relative to max|d_i|.

    Raises
    ------
    DegenerateD
        If an entry is not finite, vanishes or two entries cancel.
    """
    dv = np.atleast_1d(np.asarray(d_signed, dtype=float))
    if dv.ndim != 1 or dv.size == 0:
        raise DegenerateD("expected a non-empty vector of diagonal values")
    if not np.all(np.isfinite(dv)):
        raise DegenerateD("diagonal values must be finite")
    scale = float(np.max(np.abs(dv)))
    if scale == 0.0 or np.any(np.abs(dv) <= RANK_TOL * scale):
        raise DegenerateD("diagonal entries must be nonzero")
    sums = dv[:, None] + dv[None, :]
    np.fill_diagonal(sums, 1.0)  # d_i + d_i = 2 d_i != 0 already checked
    if np.any(np.abs(sums) <= RANK_TOL * scale):
        raise DegenerateD("diagonal entries must not cancel additively")
    signs = np.where(dv > 0, 1.0, -1.0)
    det_sign = int(np.prod(signs))
    return ReflectionInfo(
        abs_params=DiagParams.from_values(np.abs(dv)),
        signs=signs,
        det_sign=det_sign,
    )


def rpolar_signed_diag(d_signed) -> MinimizerSet:
    """Minimizers for signed diagonal parameters with det J = +1.

    Composes the minimizers of |D| with the reflection J; the energies
    agree because sym(R D - I) = sym((R J)(J D) - I).

    Raises
    ------
    DegenerateD
        If the reflection is orientation reversing (det J = -1), in which
        case the minimizers are not characterized, or the entries violate
        the reflection preconditions.
    """
    info = reflect_negative(d_signed)
    if info.orientation_reversed:
        raise DegenerateD(
            "orientation-reversing reflection: minimizers over SO(n) are "
            "not characterized for this sign pattern"
        )
    if np.all(info.signs > 0):
        return _minimize(info.abs_params)
    ms = _minimize(info.abs_params, right=info.signs)
    return replace(ms, flags=ms.flags + ("reflected",))
