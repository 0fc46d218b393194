"""Closed-form global minimization of the shear-stretch energy.

The global minimizers of W(R; D) over SO(n) for strictly ordered positive
d_1 > ... > d_n correspond to the partition with k leading pairs
{1,2}, ..., {2k-1,2k} and singletons elsewhere, where k is maximal with
d_{2k-1} + d_{2k} > 2.  Each pair contributes a planar rotation with
cos(a_i) = 2 / (d_{2i-1} + d_{2i}) and a free angle sign, so there are
2^k minimizers, and the reduced energy is

    W_red(D) = 1/2 sum_{i<=k} (d_{2i-1} - d_{2i})^2
             + sum_{i>2k} (d_i - 1)^2.

This module also provides the energy-decreasing label transformation that
connects an arbitrary critical point to the optimal one, the full-matrix
entry point via polar reduction, and the sign-reflection reduction for
diagonal parameters with negative entries.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .critical import (
    BOUNDARY_TOL,
    DiagParams,
    PartitionLabel,
    SubsetLabel,
    _pair_signs,
    _write_pair,
    as_diag,
    critical_value,
)
from .errors import DegenerateD, NonClassicalRange, TiesNotStrictWarning
from .linalg import _svd_polar, as_matrix, polar_decompose


@dataclass(frozen=True, eq=False)
class MinimizerSet:
    """All global minimizers of W(.; D) plus the reduced energy.

    ``rotations`` holds the 2^k minimizers (matrices in user index order;
    per pair the +1 angle sign comes first, the first pair varying slowest),
    ``cos_alphas`` the per-pair rotation cosines in sorted order, and
    ``label`` the optimal partition in user indices with all det signs +1.
    ``flags`` may contain "boundary_case" (the first sorted pair left as
    singletons has a sum within ``BOUNDARY_TOL`` of 2),
    "non_isolated" (an active tie makes the family continuous) and
    "reflected" (minimizers were composed with a sign reflection).
    """

    k: int
    rotations: tuple[np.ndarray, ...]
    reduced_energy: float
    label: PartitionLabel
    cos_alphas: tuple[float, ...] = ()
    flags: tuple[str, ...] = ()


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


def _optimal_label(params: DiagParams, k: int) -> PartitionLabel:
    user = [int(u) + 1 for u in params.order]
    return _build_label(zip(user[0 : 2 * k : 2], user[1 : 2 * k : 2]), user[2 * k :])


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


def rpolar_diag(d) -> MinimizerSet:
    """All global minimizers of W(R; D) for positive diagonal parameters.

    Pairs are formed on the sorted values and mapped back to user index
    positions; ``optimal_k`` decides how many.  A pair sum at or below
    2 + ``BOUNDARY_TOL`` leaves the pair as singletons, and the result is
    flagged "boundary_case" when that sum lies within ``BOUNDARY_TOL`` of 2.
    With tied entries a representative of each minimizer family is returned
    and a ``TiesNotStrictWarning`` is emitted when the tie is active.
    """
    params = as_diag(d)
    sd = params.sorted_d
    k = optimal_k(params)
    flags: list[str] = []
    if 2 * k + 1 < sd.size and abs(sd[2 * k] + sd[2 * k + 1] - 2.0) <= BOUNDARY_TOL:
        flags.append("boundary_case")

    tie_flags = _tie_flags(params, k)
    if tie_flags:
        warnings.warn(
            "tied diagonal entries: global minimizers form a continuous "
            "family; returning representatives",
            TiesNotStrictWarning,
            stacklevel=2,
        )
    flags.extend(tie_flags)

    cos_alphas = tuple(float(2.0 / (sd[2 * i] + sd[2 * i + 1])) for i in range(k))
    reduced = float(
        0.5 * sum((sd[2 * i] - sd[2 * i + 1]) ** 2 for i in range(k))
        + sum((sd[j] - 1.0) ** 2 for j in range(2 * k, sd.size))
    )

    # Minimizer m takes angle sign -1 on pair p where bit k-1-p of m is set,
    # so the first pair's sign varies slowest.
    m = np.arange(2**k)
    rotations = np.repeat(np.eye(params.n)[None], 2**k, axis=0)
    by_entry = rotations.transpose(1, 2, 0)
    for p in range(k):
        i, j = params.order[2 * p], params.order[2 * p + 1]
        angle = 1 - 2 * ((m >> (k - 1 - p)) & 1)
        _write_pair(by_entry, i, j, params.d[i], params.d[j], 1, angle)

    return MinimizerSet(
        k=k,
        rotations=tuple(rotations),
        reduced_energy=reduced,
        label=_optimal_label(params, k),
        cos_alphas=cos_alphas,
        flags=tuple(flags),
    )


def rpolar_full(f) -> MinimizerSet:
    """Absolute energy-minimizing rotations for a full matrix F, det F > 0.

    Reduces to the diagonal problem through the polar decomposition: with
    F = V diag(s) W^T the polar factor is Q = V W^T, the relative problem
    is solved for diag(s), and each relative minimizer R maps to the
    absolute rotation Q W R W^T.  The reduced energy is unchanged.  When F
    has repeated singular values the eigenbasis W is not unique; the
    returned rotations are representatives and the set is flagged
    "non_isolated".
    """
    a = as_matrix(f)
    v, s, wh = _svd_polar(a)
    q = v @ wh
    w = wh.T
    relative = rpolar_diag(s)
    rotations = tuple(q @ w @ r @ w.T for r in relative.rotations)
    return MinimizerSet(
        k=relative.k,
        rotations=rotations,
        reduced_energy=relative.reduced_energy,
        label=relative.label,
        cos_alphas=relative.cos_alphas,
        flags=relative.flags,
    )


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


def _to_ranks(label: PartitionLabel, params: DiagParams) -> PartitionLabel:
    rank_of = {int(u) + 1: r + 1 for r, u in enumerate(params.order)}
    return PartitionLabel(
        subsets=tuple(
            SubsetLabel(tuple(rank_of[i] for i in s.indices), s.det_sign, s.angle_sign)
            for s in label.subsets
        )
    )


def _from_ranks(label: PartitionLabel, params: DiagParams) -> PartitionLabel:
    user_of = {r + 1: int(u) + 1 for r, u in enumerate(params.order)}
    return PartitionLabel(
        subsets=tuple(
            SubsetLabel(tuple(user_of[i] for i in s.indices), s.det_sign, s.angle_sign)
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


def _shift_down(label: PartitionLabel) -> PartitionLabel:
    # Move the (non-overlapping) blocks to the leading rank positions
    # {1,2}, {3,4}, ...; sums only grow, so feasibility and monotonicity
    # are preserved.
    return _leading_pairs(len(label.pairs()), label.n)


def _exhaust(label: PartitionLabel, sd: np.ndarray) -> PartitionLabel:
    # After the shift every block sits at a leading position and admits a
    # block, so joining singletons continues the leading run to optimal_k.
    return _leading_pairs(optimal_k(sd), label.n)


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

    current = _to_ranks(start, params)
    rank_params = DiagParams.from_values(sd)

    steps = []
    for name, transform in (
        ("sign-flip", _flip_positive),
        ("disentangle", lambda lab: _disentangle(lab, sd)),
        ("shift", _shift_down),
        ("exhaust", lambda lab: _exhaust(lab, sd)),
    ):
        after = transform(current)
        steps.append(
            SchemeStep(
                name=name,
                label_before=_from_ranks(current, params),
                label_after=_from_ranks(after, params),
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


def reflect_negative(d_signed, tol: float = 1e-12) -> ReflectionInfo:
    """Reduce signed diagonal parameters to positive ones via a reflection.

    Requires d_i != 0 and d_i + d_j != 0 for all i, j (no additive
    cancellation), checked within a small relative tolerance.

    Raises
    ------
    DegenerateD
        If an entry vanishes or two entries cancel.
    """
    dv = np.atleast_1d(np.asarray(d_signed, dtype=float))
    if dv.ndim != 1 or dv.size == 0:
        raise DegenerateD("expected a non-empty vector of diagonal values")
    scale = float(np.max(np.abs(dv))) if dv.size else 0.0
    if scale == 0.0 or np.any(np.abs(dv) <= tol * scale):
        raise DegenerateD("diagonal entries must be nonzero")
    sums = dv[:, None] + dv[None, :]
    np.fill_diagonal(sums, 1.0)  # d_i + d_i = 2 d_i != 0 already checked
    if np.any(np.abs(sums) <= tol * scale):
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
    base = rpolar_diag(info.abs_params)
    if np.all(info.signs > 0):
        return base
    j = info.reflection()
    return MinimizerSet(
        k=base.k,
        rotations=tuple(r @ j for r in base.rotations),
        reduced_energy=base.reduced_energy,
        label=base.label,
        cos_alphas=base.cos_alphas,
        flags=base.flags + ("reflected",),
    )
