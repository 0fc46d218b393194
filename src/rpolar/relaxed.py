"""Closed-form global minimization of the shear-stretch energy.

The global minimizers of W(R; D) over SO(n) for strictly ordered positive
d_1 > ... > d_n correspond to the partition with k leading pairs
{1,2}, ..., {2k-1,2k} and singletons elsewhere, where k is maximal with
d_{2k-1} + d_{2k} > 2.  Each pair contributes a planar rotation with
cos(a_i) = 2 / (d_{2i-1} + d_{2i}) and a free angle sign, so there are
2^k minimizers, and the reduced energy is

    W_red(D) = 1/2 sum_{i<=k} (d_{2i-1} - d_{2i})^2
             + sum_{i>2k} (d_i - 1)^2.

The 2^k minimizers are the critical points of that optimal label, so
they are built on demand as its ``critical.RotationFamily`` (see
``MinimizerSet`` for their order), and W_red is its critical value.  One
helper computes k, the flags, the label and W_red for every entry point;
a full matrix of size n <= 3 has k <= 1, and it only keeps its one or two
minimizers in a smaller container built directly from its SVD.

Signed parameters reduce to |D| with the reflection J = diag(sign d_i):
sym(R D - I) = sym((R J)(J D) - I), so when det J = +1 the minimizers of D
are those of |D| composed with J.  This module also provides the
energy-decreasing label transformation that connects an arbitrary critical
point to the optimal one, and the full-matrix entry point via polar
reduction.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .critical import (
    BOUNDARY_TOL,
    PartitionLabel,
    RotationFamily,
    SubsetLabel,
    _block_cos_sin,
    _finite_values,
    _label_value,
    _pair_signs,
    _subsets_label,
    as_diag,
    critical_value,
)
from .errors import DegenerateD, NonClassicalRange, TiesNotStrictWarning
from .linalg import RANK_TOL, _svd_polar, as_matrix, polar_decompose


@dataclass(frozen=True, eq=False)
class MinimizerSet:
    """All global minimizers of W(.; D) plus the reduced energy.

    ``rotations`` is the lazy, read-only ``critical.RotationFamily`` of
    the optimal label (matrices in user index order, in the family's bit
    order): ``rotations[m]`` builds one minimizer, iteration builds them
    in chunks and yields views into chunk memory that is reused only once
    no view of it is alive (a thread keeps at most two chunk buffers), and
    ``np.stack(list(ms.rotations))`` materializes them all.  For
    ``rpolar_full`` at n <= 3 it is a ``_SmallRotations`` of the same
    rotations in the same order, each read a fresh array; k, the flags,
    the label and the value come from the same code at every n.  Its pairs
    come in rank order, pair p holding the entries of sorted ranks 2p+1
    and 2p+2, each written larger value first, so an angle sign refers to
    that block.  ``realize(ms.label, d)`` gives the same set, but orders
    the pairs by their smaller index and writes each smaller index first.
    For unsorted d the two orders can differ, and a pair whose larger
    value sits at the larger index has its angle sign negated: for
    d = [1.5, 2], ``rotations[0]`` is realize's -1 point.

    ``cos_alphas`` holds the per-pair rotation cosines in rank order,
    ``reduced_energy`` is ``critical_value(label, d)`` bitwise, and
    ``label`` is the optimal partition in user indices with all det signs
    +1, built on first read.  ``flags`` may contain "boundary_case" (the
    first sorted pair left as singletons has a sum within
    ``BOUNDARY_TOL`` of 2), "non_isolated" (an active tie makes the
    family continuous) and "reflected" (minimizers were composed with a
    sign reflection).
    """

    k: int
    rotations: Sequence[np.ndarray]
    reduced_energy: float
    cos_alphas: tuple[float, ...]
    flags: tuple[str, ...]
    _subsets: list = field(repr=False)

    @cached_property
    def label(self) -> PartitionLabel:
        return _subsets_label(self._subsets)


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
    return len(_leading_pairs(as_diag(d).sorted_d.tolist()))


def _leading_pairs(sd: list[float]) -> list[tuple[int, int]]:
    """The optimal label's pairs of 0-based ranks (0, 1), (2, 3), ...

    The leading pairs of the sorted values ``sd`` that admit a block, up
    to the first that does not.
    """
    pairs, a = [], 0
    while a + 1 < len(sd) and _pair_signs(sd[a], sd[a + 1]):
        pairs.append((a, a + 1))
        a += 2
    return pairs


def _optimal_subsets(pairs, order) -> list[tuple[tuple[int, ...], int]]:
    """The (1-based indices, det +1) subsets of 0-based rank pairs, in label order.

    ``order`` maps ranks to 0-based user indices; an index in no pair is a
    singleton.  ``_subsets_label`` gives their label and ``_label_value``
    its value.
    """
    partner = list(range(len(order)))
    for a, b in pairs:
        i, j = order[a], order[b]
        partner[i], partner[j] = j, i
    return [((i + 1,) if i == j else (i + 1, j + 1), 1) for i, j in enumerate(partner) if i <= j]


def _flags(sd: list[float], k: int) -> tuple[str, ...]:
    """Flags of the optimal label with k leading pairs of the sorted values.

    Warns when an active tie makes the minimizers non-isolated, pointing at
    the caller of ``rpolar_diag`` or ``rpolar_full``, each of which calls
    this through one helper.
    """
    flags: list[str] = []
    if 2 * k + 1 < len(sd) and abs(sd[2 * k] + sd[2 * k + 1] - 2.0) <= BOUNDARY_TOL:
        flags.append("boundary_case")

    # A tie produces a continuous minimizer family only when it crosses an
    # even cut inside the leading pair region: swapping the tied entries
    # then connects distinct optimal blocks.  Ties strictly inside a pair
    # or entirely within the trailing singleton region keep the 2^k
    # minimizers isolated (the identity block is unique regardless).
    if any(sd[j - 1] == sd[j] for j in range(2, min(2 * k + 1, len(sd)), 2)):
        warnings.warn(
            "tied diagonal entries: global minimizers form a continuous "
            "family; returning representatives",
            TiesNotStrictWarning,
            stacklevel=4,
        )
        flags.append("non_isolated")
    return tuple(flags)


def _minimize(dv: list[float], order, left=None, right=None) -> MinimizerSet:
    """Minimizer set of W(.; diag(dv)) in the frames (left, right).

    ``dv`` holds Python floats in user order, and ``order`` maps ranks to
    0-based user indices, sorting ``dv`` descending.  A full matrix of size n <= 3 keeps its one or two
    minimizers in a ``_SmallRotations``, anything else in a
    ``critical.RotationFamily`` (see there for the frames).
    """
    sd = [dv[i] for i in order]
    leading = _leading_pairs(sd)
    k = len(leading)
    if left is not None and len(dv) <= 3:
        rotations = _SmallRotations(left, sd, right, k)
    else:
        # the optimal label: the k leading rank pairs, each written larger
        # value first, and every subset with det +1
        pairs = [(order[a], order[b], 1) for a, b in leading]
        rotations = RotationFamily([1.0] * len(dv), pairs, dv, left, right)
    subsets = _optimal_subsets(leading, order)
    return MinimizerSet(
        k=k,
        rotations=rotations,
        reduced_energy=_label_value(subsets, dv),
        cos_alphas=rotations.cosines,
        flags=_flags(sd, k),
        _subsets=subsets,
    )


class _SmallRotations(Sequence):
    """The one or two minimizers of an n x n matrix F = V diag(s) W^T, n <= 3.

    As in ``critical.RotationFamily``'s frame case, minimizer m is V C W^T
    plus, with angle sign (-1)^m, ``delta`` = V_P O_P W^T, the leading
    pair's off-diagonal part, where C = diag(c, c, 1) and O_P W^T has the
    rows -sin a (W^T)_1 and sin a (W^T)_0; without a pair it is V W^T.
    Each read returns a fresh array.
    """

    def __init__(self, v: np.ndarray, s: list[float], wh: np.ndarray, k: int):
        if k:
            c, sin = _block_cos_sin(s[0], s[1], 1)
            self.cosines = (c,)
            self._base = (v * np.array([c, c, 1.0][: len(s)])) @ wh
            self._delta = v[:, :2] @ (wh[1::-1] * np.array([[-sin], [sin]]))
        else:
            self.cosines, self._base, self._delta = (), v @ wh, None

    def __len__(self) -> int:
        return 1 if self._delta is None else 2

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(len(self))[index])
        return self._build(range(len(self))[index])

    def __iter__(self):
        return map(self._build, range(len(self)))

    def _build(self, m: int) -> np.ndarray:
        if self._delta is None:
            return self._base.copy()
        return self._base - self._delta if m else self._base + self._delta


def rpolar_diag(d) -> MinimizerSet:
    """All global minimizers of W(R; D) for diagonal parameters.

    Pairs are formed on the sorted values and mapped back to user index
    positions; ``optimal_k`` decides how many.  A pair sum at or below
    2 + ``BOUNDARY_TOL`` leaves the pair as singletons, and the result is
    flagged "boundary_case" when that sum lies within ``BOUNDARY_TOL`` of 2.
    With tied entries a representative of each minimizer family is returned
    and a ``TiesNotStrictWarning`` is emitted when the tie is active.

    Input with an entry <= 0 is reduced to |D| by the reflection
    J = diag(sign d_i): the minimizers of |D| composed with J, flagged
    "reflected".  That needs det J = +1, no entry within ``RANK_TOL`` of 0
    and no two entries cancelling within ``RANK_TOL``, both relative to
    max |d_i|.

    Raises
    ------
    DegenerateD
        If an entry is not finite, or a signed input vanishes, cancels or
        has an odd number of negative entries (the minimizers then lie in
        the orientation-reversing component, which has no closed form
        here).
    """
    dv = _finite_values(d)
    signs = None
    if np.any(dv <= 0):
        scale = float(np.max(np.abs(dv)))
        if scale == 0.0 or np.any(np.abs(dv) <= RANK_TOL * scale):
            raise DegenerateD("diagonal entries must be nonzero")
        sums = dv[:, None] + dv[None, :]
        np.fill_diagonal(sums, np.inf)  # d_i + d_i = 2 d_i != 0 already checked
        if np.any(np.abs(sums) <= RANK_TOL * scale):
            raise DegenerateD("diagonal entries must not cancel additively")
        signs = np.where(dv > 0, 1.0, -1.0)
        if np.prod(signs) < 0:
            raise DegenerateD(
                "orientation-reversing reflection: minimizers over SO(n) are "
                "not characterized for this sign pattern"
            )
        dv = np.abs(dv)
    ms = _minimize(dv.tolist(), np.argsort(-dv, kind="stable").tolist(), right=signs)
    return ms if signs is None else replace(ms, flags=ms.flags + ("reflected",))


def rpolar_full(f) -> MinimizerSet:
    """Absolute energy-minimizing rotations for a full matrix F, det F > 0.

    Reduces to the diagonal problem through the polar decomposition: with
    F = V diag(s) W^T the polar factor is Q = V W^T, the relative problem
    is solved for diag(s), and each relative minimizer R maps to the
    absolute rotation V R W^T = Q W R W^T.  The reduced energy is
    unchanged.  When F has repeated singular values the eigenbasis W is not
    unique; the returned rotations are representatives and the set is
    flagged "non_isolated".  At n <= 3 (so k <= 1) the one or two
    rotations are built directly from the SVD, with the same results.
    """
    v, s, wh = _svd_polar(as_matrix(f))
    # singular values come sorted, finite and positive (_svd_polar rejects
    # rank deficiency), so they need no validation or sorting
    return _minimize(s.tolist(), range(s.size), v, wh)


def rpolar_classical(f, mu: float, mu_c: float) -> np.ndarray:
    """Unique minimizer in the classical weight range mu_c >= mu > 0.

    In that range the weighted energy is minimized by the orthogonal polar
    factor of F, for any F with det F > 0.

    Raises
    ------
    NonClassicalRange
        If mu_c < mu; use ``rpolar_full`` for the (1, 0) limit case.
    """
    if not (0 < mu < np.inf and 0 <= mu_c < np.inf):
        raise NonClassicalRange("requires finite mu > 0 and mu_c >= 0")
    if mu_c < mu:
        raise NonClassicalRange(
            "weights are outside the classical range mu_c >= mu"
        )
    return polar_decompose(f).rot


# -- minimizing scheme -------------------------------------------------------


def _overlapping(pairs: list[tuple[int, int]]):
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            p, q = pairs[a], pairs[b]
            lo, hi = (p, q) if p[0] < q[0] else (q, p)
            if hi[0] < lo[1]:  # spans interleave or nest
                return lo, hi
    return None


def _disentangle(pairs: list[tuple[int, int]], sd: list[float]) -> list[tuple[int, int]]:
    # Replace each interleaving or nested pair of blocks (0-based ranks) by
    # the sorted pairing {p1,p2}, {p3,p4}; the second block degenerates to
    # singletons when it admits no block.  Every rewrite strictly lowers
    # the critical value, so the loop terminates.  Rewrites ``pairs``.
    while (clash := _overlapping(pairs)) is not None:
        lo, hi = clash
        pairs.remove(lo)
        pairs.remove(hi)
        p1, p2, p3, p4 = sorted(lo + hi)
        pairs.append((p1, p2))
        if _pair_signs(sd[p3], sd[p4]):
            pairs.append((p3, p4))
    return pairs


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
    values = [critical_value(start, params)]
    # One composite sign flip: the all-positive target always has parity
    # +1, so no intermediate parity bookkeeping is needed.
    labels = [
        start,
        PartitionLabel(
            subsets=tuple(SubsetLabel(s.indices, 1, s.angle_sign) for s in start.subsets)
        ),
    ]
    # the start's pairs in 0-based ranks (params.order maps ranks to user
    # indices, its inverse back), ordered by smaller rank
    rank = np.argsort(params.order).tolist()
    sd = params.sorted_d.tolist()
    untangled = _disentangle(
        sorted(tuple(sorted(rank[i - 1] for i in s.indices)) for s in start.pairs()), sd
    )
    # Shift moves the (non-overlapping) blocks to the leading rank pairs
    # (0, 1), (2, 3), ...; sums only grow, so feasibility and monotonicity
    # are preserved.  Then every block sits at a leading position and
    # admits a block, so exhaust, joining singletons, continues the leading
    # run to optimal_k.  The p-th untangled pair has ranks of at least 2p
    # and 2p + 1, so the greedy run holds a pair for each untangled one.
    order = params.order.tolist()
    leading = _leading_pairs(sd)
    for pairs in (untangled, leading[: len(untangled)], leading):
        labels.append(_subsets_label(_optimal_subsets(pairs, order)))
    values += [critical_value(label, params) for label in labels[1:]]
    names = ("sign-flip", "disentangle", "shift", "exhaust")
    return SchemeTrace(
        steps=tuple(
            SchemeStep(name, labels[i], labels[i + 1], values[i], values[i + 1])
            for i, name in enumerate(names)
        )
    )
