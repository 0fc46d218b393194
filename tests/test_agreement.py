"""Agreement of the entry points that find the global minimizers.

Every test draws from one strategy of signed diagonals in user order:
strict, tied, unsorted, pair sums at the ``BOUNDARY_TOL`` edge, entries
1e-13 times the largest, entries up to 1e150 and sign patterns of both
parities.  The search is derandomized, and the edges are explicit
examples, so every run checks the same inputs.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rpolar as rp
from rpolar.critical import BOUNDARY_TOL, _critical_table
from rpolar.errors import Degenerate, DegenerateD, NonInvertibleOrReflective
from rpolar.linalg import RANK_TOL

pytestmark = pytest.mark.filterwarnings("ignore::rpolar.errors.TiesNotStrictWarning")

EDGES = [BOUNDARY_TOL, -BOUNDARY_TOL, 5e-10, -5e-10]

EXAMPLES = [
    # pair sums 2 +- BOUNDARY_TOL and 2 +- 5e-10, sorted and not
    *([1.3, 0.7 + t, 0.5] for t in EDGES),
    [0.5, 1.0 + BOUNDARY_TOL, 3.0, 1.0],
    # an active tie, a tie inside the pair, all tied, a tie in the trailing singletons
    [2.5, 1.0, 1.0],
    [1.5, 1.5, 0.5],
    [2.0, 2.0, 2.0],
    [3.0, 2.0, 2.0, 0.5, 0.25],
    [3.0, 2.5, 0.5, 0.5],
    # n = 1
    [2.0],
    [0.5],
    [-2.0],
    # an entry 1e-13 times the largest, and huge entries
    [3.0, 1.5, 3e-13],
    [1e150, 2.0, 0.5],
    [1e150, 7e149, 1e149],
    # even sign patterns, an odd one and a cancelling pair
    [-3.0, 2.0, -1.5, 0.4],
    [-4.0, -2.0, 1.0, 0.5, 0.25],
    [-1e150, 7e149, -1e149],
    [-3.0, 2.0, 1.0],
    [-2.0, 2.0, -0.5],
    # unsorted, with two pairs
    [0.5, 4.0, 1.0, 2.0, 0.25, 3.0],
]


def with_examples(**extra):
    """Add each of ``EXAMPLES`` as an explicit example, with ``extra``."""

    def add(test):
        for d in reversed(EXAMPLES):
            test = example(d=d, **extra)(test)
        return test

    return add


AGREE = settings(derandomize=True, deadline=None, max_examples=100)


@st.composite
def diagonals(draw):
    n = draw(st.sampled_from(range(1, 7)))
    d = draw(st.lists(st.floats(0.05, 4.0), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        d[j] = d[i]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        x = draw(st.floats(0.0, 0.9))
        d[i], d[j] = 1.0 + x, 1.0 - x + draw(st.sampled_from(EDGES))
    scale = draw(st.sampled_from([1.0, 1.0, 1.0, 1e150]))
    d = [scale * v for v in d]
    if n > 1 and draw(st.integers(0, 4)) == 0:
        d[draw(st.integers(0, n - 1))] = 1e-13 * max(d)
    # mostly no or an even number of negative entries
    count = min(n, draw(st.sampled_from([0, 0, 2, 2, 4, 1, 3])))
    for i in draw(st.permutations(range(n)))[:count]:
        d[i] = -d[i]
    return d


def _diag(d):
    """``rpolar_diag(d)``, or None where it rejects a signed d as documented."""
    dv = np.array(d)
    signed = bool(np.any(dv < 0))
    scale = float(np.max(np.abs(dv)))
    cancels = any(
        abs(dv[i] + dv[j]) <= RANK_TOL * scale for i in range(dv.size) for j in range(i)
    )
    if signed and (np.prod(np.sign(dv)) < 0 or np.min(np.abs(dv)) <= RANK_TOL * scale or cancels):
        with pytest.raises(DegenerateD):
            rp.rpolar_diag(d)
        return None
    ms = rp.rpolar_diag(d)
    assert ("reflected" in ms.flags) == signed
    return ms


def _leading_sums(d):
    """Sums of the sorted pairs (1, 2), (3, 4), ... of |d|."""
    sd = sorted(np.abs(d).tolist(), reverse=True)
    return [sd[a] + sd[a + 1] for a in range(0, len(sd) - 1, 2)]


def _reference_k(d):
    """The paper's k: the leading run of sorted pair sums above 2 + BOUNDARY_TOL."""
    k = 0
    for total in _leading_sums(d):
        if not total > 2.0 + BOUNDARY_TOL:
            break
        k += 1
    return k


def _reference_energy(d, k):
    """W_red = 1/2 sum_{i<=k} (d_{2i-1} - d_{2i})^2 + sum_{i>2k} (d_i - 1)^2."""
    sd = sorted(np.abs(d).tolist(), reverse=True)
    pairs = sum(0.5 * (sd[2 * i] - sd[2 * i + 1]) ** 2 for i in range(k))
    return pairs + sum((v - 1.0) ** 2 for v in sd[2 * k :])


class TestDiagonal:
    @AGREE
    @given(d=diagonals())
    @with_examples()
    def test_k_flags_and_value(self, d):
        ms = _diag(d)
        if ms is None:
            return
        k = _reference_k(d)
        assert rp.optimal_k(np.abs(d)) == ms.k == k
        sums = _leading_sums(d)
        assert [c.hex() for c in ms.cos_alphas] == [(2.0 / t).hex() for t in sums[:k]]
        near = k < len(sums) and abs(sums[k] - 2.0) <= BOUNDARY_TOL
        assert ("boundary_case" in ms.flags) == near
        assert len(ms.rotations) == 2**k
        assert ms.reduced_energy == pytest.approx(_reference_energy(d, k), rel=1e-12)

    @AGREE
    @given(d=diagonals())
    @with_examples()
    def test_table_minimum_is_the_reduced_energy(self, d):
        ms = _diag(d)
        if ms is None:
            return
        table = _critical_table(np.abs(d))
        assert table.values.min().hex() == ms.reduced_energy.hex()

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(d=diagonals())
    @with_examples()
    def test_scheme_from_every_realizable_label(self, d):
        ms = _diag(d)
        if ms is None:
            return
        table = _critical_table(np.abs(d))
        for row in table.rows():
            trace = rp.scheme_minimize(table.label(row), np.abs(d))
            assert trace.final_value.hex() == ms.reduced_energy.hex()
            assert trace.final_label == ms.label

    @AGREE
    @given(d=diagonals())
    @with_examples()
    def test_minimizers_are_critical_and_realized(self, d):
        ms = _diag(d)
        if ms is None:
            return
        scale = 1.0 + float(np.sum(np.square(d)))
        for r in ms.rotations:
            assert rp.is_critical(r, d)
            assert abs(rp.energy(r, d) - ms.reduced_energy) <= 1e-12 * scale
        # realize takes |d|; a signed d composes its points with J
        j = np.sign(d) if "reflected" in ms.flags else None
        points = rp.realize(ms.label, np.abs(d))
        realized = [p.rotation if j is None else p.rotation @ np.diag(j) for p in points]
        assert {r.tobytes() for r in ms.rotations} == {r.tobytes() for r in realized}
        assert len(points) == len(ms.rotations)


def _svd_rounding(d):
    """A bound on how far an SVD moves the singular values |d|."""
    return 64 * len(d) * np.finfo(float).eps * float(np.max(np.abs(d)))


def _rounding_safe(d):
    """Whether the SVD's rounding can change no decision: no sorted pair
    sum near 2 +- BOUNDARY_TOL and no two values near each other without
    being equal."""
    sd = sorted(np.abs(d).tolist(), reverse=True)
    delta = _svd_rounding(d)
    edges = (2.0 + BOUNDARY_TOL, 2.0 - BOUNDARY_TOL)
    near_edge = any(abs(t - e) <= delta for t in _leading_sums(d) for e in edges)
    near_tie = any(0.0 < a - b <= delta for a, b in zip(sd, sd[1:]))
    return not (near_edge or near_tie)


class TestFull:
    @AGREE
    @given(d=diagonals(), seed=st.integers(0, 2**16))
    @with_examples(seed=0)
    def test_full_matches_diagonal(self, d, seed):
        rng = np.random.default_rng(seed)
        n = len(d)
        q1, q2 = rp.random_rotation(n, rng), rp.random_rotation(n, rng)
        f = q1 @ np.diag(d) @ q2.T
        dv = np.abs(d)
        if np.min(dv) <= RANK_TOL * np.max(dv):
            with pytest.raises(Degenerate):
                rp.rpolar_full(f)
            return
        if np.prod(np.sign(d)) < 0:
            with pytest.raises(NonInvertibleOrReflective):
                rp.rpolar_full(f)
            return
        ms = rp.rpolar_full(f)
        # exactly the diagonal problem of its own singular values (the
        # values of svd without vectors may differ in the last bits)
        ref = rp.rpolar_diag(np.linalg.svd(f)[1])
        assert (ms.k, ms.flags, ms.label) == (ref.k, ref.flags, ref.label)
        assert ms.reduced_energy.hex() == ref.reduced_energy.hex()
        assert [c.hex() for c in ms.cos_alphas] == [c.hex() for c in ref.cos_alphas]
        # rpolar_diag rejects a cancelling pair that the SVD does not see
        diag = _diag(d)
        if diag is None or not _rounding_safe(d):
            return
        assert ms.k == diag.k
        # W_red is a sum of n squares of differences that each move by at
        # most 2 delta
        n_delta = 2 * n * _svd_rounding(d)
        tol = 2 * n_delta * math.sqrt(diag.reduced_energy) + n_delta**2
        assert abs(ms.reduced_energy - diag.reduced_energy) <= tol
        tied = len(set(dv.tolist())) < n
        if tied:
            assert ("boundary_case" in ms.flags) == ("boundary_case" in diag.flags)
            return
        assert ms.flags == tuple(flag for flag in diag.flags if flag != "reflected")
        # away from ties the minimizers are Q1 R Q2^T, R those of diag(d),
        # to the SVD's accuracy eps max|d| / (smallest gap of |d|)
        sd = np.sort(dv)[::-1]
        gap = np.min(np.diff(-sd)) if n > 1 else sd[0]
        tol = 1e3 * np.finfo(float).eps * sd[0] / gap
        expected = [q1 @ r @ q2.T for r in diag.rotations]
        got = list(ms.rotations)
        assert len(got) == len(expected)
        # each side matches the other, so the two sets agree
        for r in got:
            assert min(np.max(np.abs(r - e)) for e in expected) <= tol
        for e in expected:
            assert min(np.max(np.abs(r - e)) for r in got) <= tol


def test_suite_covers_the_edges():
    """The explicit examples reach each flag and each rejection."""
    flags, rejected = set(), 0
    for d in EXAMPLES:
        ms = _diag(d)
        if ms is None:
            rejected += 1
        else:
            flags.update(ms.flags)
    assert flags == {"boundary_case", "non_isolated", "reflected"}
    assert rejected == 3
