import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import rpolar as rp
from rpolar.blockdiag import _eigsplit
from rpolar.errors import Degenerate, NotLambdaSquare, NotSymmetricSquare
from util import (
    random_symmetric_square,
    random_trace_zero_block,
    reference_block_diagonalize,
    reference_scalar_square_blocks,
)

RNG = np.random.default_rng(77)

WORKED_Y = np.array(
    [[1, 0, 1, 1], [0, 1, 1, 1], [0, 0, -1, 0], [0, 0, 0, -1]], dtype=float
)


QUARTER_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])


def padded_rotated(y, n, seed):
    """T diag(Y, 0) T^T for a seeded rotation T of dimension n >= dim Y."""
    x = np.zeros((n, n))
    x[: y.shape[0], : y.shape[0]] = y
    t = rp.random_rotation(n, seed)
    return t @ x @ t.T


def scale_separated(eps):
    """One plane with G-eigenvalues 1e4 and 1e-4 beside a nearly symmetric
    block whose G-eigenvalues are 1 +- ~2 eps, both squaring to I exactly,
    so |lam| = 1 is dwarfed by max(G); rotated by a seeded T."""
    t = rp.random_rotation(4, 11)
    y = np.zeros((4, 4))
    y[:2, :2] = [[0.0, 100.0], [0.01, 0.0]]
    a = 0.6
    b = np.sqrt(1.0 + eps * eps - a * a)
    y[2:, 2:] = [[a, b + eps], [b - eps, -a]]
    return t @ y @ t.T


def nearly_symmetric(eps):
    """(X, lam): a 2x2 block with skew part eps beside symmetric blocks of
    the same square lam, in one eigenspace of X^2, rotated by a seeded T."""
    lam = 1.0 - eps * eps
    y = np.zeros((6, 6))
    y[:2, :2] = [[0.6, 0.8 + eps], [0.8 - eps, -0.6]]
    y[2, 2], y[3, 3] = np.sqrt(lam), -np.sqrt(lam)
    y[4:, 4:] = [[0.0, 2.0], [lam / 2.0, 0.0]]
    t = rp.random_rotation(6, 7)
    return t @ y @ t.T, lam


def rotated_nilpotent(seed):
    """T Y T^T with Y strictly upper triangular in 2x2 blocks, n = 2..8."""
    rng = np.random.default_rng(seed)
    n = 2 + seed % 7
    y = np.zeros((n, n))
    for j in range(int(rng.integers(1, n // 2 + 1))):
        y[2 * j, 2 * j + 1] = rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
    t = rp.random_rotation(n, rng)
    return t @ y @ t.T


def check_decomposition(dec, x, tol=1e-8):
    n = x.shape[0]
    scale = 1.0 + rp.frob_norm(x)
    assert sum(b.size for b in dec.blocks) == n
    assert rp.frob_norm(dec.basis.T @ dec.basis - np.eye(n)) <= 1e-10
    assert dec.reconstruction_residual(x) <= tol * scale
    for b in dec.blocks:
        assert b.size in (1, 2)
        assert b.square_residual() <= tol * (1.0 + rp.frob_norm_sq(x))
    total = sum(rp.frob_norm_sq(b.entries) for b in dec.blocks)
    assert total == pytest.approx(rp.frob_norm_sq(x), rel=1e-8)


class TestIsSymmetricSquare:
    """Membership: ``block_diagonalize`` raises ``NotSymmetricSquare``
    exactly when X^2 is not symmetric within ``TOL_BLOCK``."""

    def test_symmetric_input(self):
        s = rp.sym(RNG.standard_normal((4, 4)))
        rp.block_diagonalize(s)

    def test_trace_zero_2x2(self):
        x = np.array([[1.5, 2.0], [0.75, -1.5]])
        rp.block_diagonalize(x)

    def test_counterexample(self):
        x = np.array([[1.0, 1.0], [0.0, 2.0]])
        # direct oracle: skew(X^2) has off-diagonal (3 - 0)/2
        assert rp.frob_norm(rp.skew(x @ x)) > 1.0
        with pytest.raises(NotSymmetricSquare):
            rp.block_diagonalize(x)

    @settings(max_examples=25)
    @given(arrays(float, (3, 3), elements=st.floats(-5, 5, allow_nan=False)))
    # eigenvalues about 0, 2e-4 and 2.38: X^2 merges the first two into one
    # eigenspace whose restriction is tiny beside X
    @example(np.array([[1e-4, 1e-4, 1e-4], [1e-4, 1e-4, 1e-4], [1e-4, 1e-4, 2.3822757652963675]]))
    def test_any_symmetric_matrix_passes(self, raw):
        x = rp.sym(raw)
        dec = rp.block_diagonalize(x)
        assert dec.reconstruction_residual(x) <= 1e-6 * (1.0 + rp.frob_norm(x))

    @pytest.mark.filterwarnings("error")
    def test_large_finite_entries_are_judged_before_squaring(self):
        # X^2 overflows the double range, X scaled by a power of two does
        # not: a symmetric square passes membership and then overflows, a
        # non-symmetric one fails membership
        with pytest.raises(Degenerate, match="overflows"):
            rp.block_diagonalize([[1e160, 0.0], [0.0, 1.0]])
        with pytest.raises(NotSymmetricSquare):
            rp.block_diagonalize([[1e160, 1e160], [0.0, 1.0]])


def eigsplit(s):
    """The clusters of ``_eigsplit`` as (eigenvalue, basis) pairs."""
    v, lams, starts, dims = _eigsplit(s, 0.0)
    return [(float(lam), v[:, a : a + d]) for lam, a, d in zip(lams, starts, dims)]


class TestEigsplit:
    def test_identity_single_cluster(self):
        clusters = eigsplit(np.eye(3))
        assert len(clusters) == 1
        lam, basis = clusters[0]
        assert lam == pytest.approx(1.0)
        assert basis.shape == (3, 3)

    def test_exact_repeats(self):
        clusters = eigsplit(np.diag([4.0, 4.0, 1.0]))
        assert [(round(lam, 12), b.shape[1]) for lam, b in clusters] == [(4.0, 2), (1.0, 1)]

    def test_worked_square_is_identity(self):
        s = WORKED_Y @ WORKED_Y
        np.testing.assert_allclose(s, np.eye(4), atol=1e-14)
        clusters = eigsplit(s)
        assert len(clusters) == 1
        assert clusters[0][1].shape == (4, 4)

    def test_bases_orthonormal_and_spanning(self):
        s = rp.sym(RNG.standard_normal((6, 6)))
        clusters = eigsplit(s)
        full = np.hstack([b for _, b in clusters])
        assert full.shape == (6, 6)
        np.testing.assert_allclose(full.T @ full, np.eye(6), atol=1e-12)


class TestScalarSquareBlocks:
    def test_identity_splits_to_singletons(self):
        dec = rp.scalar_square_blocks(np.eye(3), 1.0)
        assert [b.size for b in dec.blocks] == [1, 1, 1]
        np.testing.assert_allclose(dec.block_diagonal(), np.eye(3), atol=1e-14)

    def test_quarter_turn_is_irreducible(self):
        y = np.array([[0.0, -1.0], [1.0, 0.0]])
        dec = rp.scalar_square_blocks(y, -1.0)
        assert [b.size for b in dec.blocks] == [2]
        assert dec.blocks[0].mu == pytest.approx(-1.0)

    def test_worked_4x4_split(self):
        dec = rp.scalar_square_blocks(WORKED_Y, 1.0)
        check_decomposition(dec, WORKED_Y)
        norms = sorted(rp.frob_norm_sq(b.entries) for b in dec.blocks)
        # one genuinely two-dimensional piece of norm^2 6, the rest norm^2 2
        assert norms[-1] == pytest.approx(6.0, abs=1e-12)
        assert sum(norms) == pytest.approx(8.0, abs=1e-12)

    def test_precondition_checked(self):
        with pytest.raises(NotLambdaSquare):
            rp.scalar_square_blocks(np.diag([1.0, 2.0]), 1.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_non_finite_lam_rejected(self, lam):
        with pytest.raises(Degenerate):
            rp.scalar_square_blocks(np.eye(2), lam)

    @pytest.mark.parametrize(
        "y",
        [
            [[1e-5]],
            np.diag([1e-5, 2e-5, -1e-5]),
            padded_rotated(np.diag([1e-5, 2e-5, -1e-5]), 3, seed=5),
            1e-5 * QUARTER_TURN,
            padded_rotated(1e-5 * QUARTER_TURN, 4, seed=3),
            padded_rotated(np.kron(np.eye(2), 1e-5 * QUARTER_TURN), 4, seed=3),
        ],
        ids=["1x1", "diag", "diag-rotated", "quarter", "quarter-4d", "two-quarters-4d"],
    )
    def test_tiny_input_at_small_negative_lambda(self, y):
        # ||Y|| ~ 1e-5 passes the lam-square check at lam = -1e-10 whatever
        # Y is, so these need not square to lam * I at all
        y = np.asarray(y, dtype=float)
        dec = rp.scalar_square_blocks(y, -1e-10)
        assert dec.basis.shape == y.shape
        check_decomposition(dec, y)

    def test_scale_separated_planes(self):
        for eps in (1e-5, 1e-6, 1e-7, 1e-8):
            x = scale_separated(eps)
            dec = rp.scalar_square_blocks(x, 1.0)
            assert [blk.size for blk in dec.blocks] == [2, 2]
            check_decomposition(dec, x)

    def test_negative_lambda_blocks(self):
        rng = np.random.default_rng(5)
        b1 = random_trace_zero_block(rng, -2.5)
        b2 = random_trace_zero_block(rng, -2.5)
        y = np.zeros((4, 4))
        y[:2, :2], y[2:, 2:] = b1, b2
        t0 = rp.random_rotation(4, rng)
        x = t0 @ y @ t0.T
        dec = rp.scalar_square_blocks(x, -2.5)
        assert [b.size for b in dec.blocks] == [2, 2]
        check_decomposition(dec, x)


class TestBlockDiagonalize:
    def test_symmetric_gives_singletons(self):
        s = rp.sym(RNG.standard_normal((5, 5)))
        dec = rp.block_diagonalize(s)
        assert all(b.size == 1 for b in dec.blocks)
        check_decomposition(dec, s)
        # the basis columns are then eigenvectors of s
        d = dec.basis.T @ s @ dec.basis
        assert rp.frob_norm(d - np.diag(np.diag(d))) <= 1e-8 * (1 + rp.frob_norm(s))

    def test_worked_4x4(self):
        dec = rp.block_diagonalize(WORKED_Y)
        check_decomposition(dec, WORKED_Y)
        assert all(b.mu == pytest.approx(1.0, abs=1e-12) for b in dec.blocks)
        total = sum(rp.frob_norm_sq(b.entries) for b in dec.blocks)
        assert total == pytest.approx(8.0, abs=1e-12)

    def test_rejects_non_symmetric_square(self):
        with pytest.raises(NotSymmetricSquare):
            rp.block_diagonalize(np.array([[1.0, 1.0], [0.0, 2.0]]))

    def test_synthesize_then_decompose(self):
        rng = np.random.default_rng(123)
        x, blocks = random_symmetric_square(rng, 6)
        dec = rp.block_diagonalize(x)
        check_decomposition(dec, x)
        # mu values, weighted by block size, are the eigenvalues of X^2
        # with multiplicity, so the multisets must agree even though the
        # block sizes themselves may differ from the synthesis.
        def mu_of(b):
            if b.shape[0] == 1:
                return float(b[0, 0] ** 2)
            return float(b[0, 0] ** 2 + b[0, 1] * b[1, 0])

        synth = sorted(mu_of(b) for b in blocks for _ in range(b.shape[0]))
        got = sorted(b.mu for b in dec.blocks for _ in range(b.size))
        np.testing.assert_allclose(got, synth, atol=1e-8)

    def test_fuzz_small(self):
        rng = np.random.default_rng(2024)
        for n in range(2, 9):
            for _ in range(60):
                x, _ = random_symmetric_square(rng, n)
                check_decomposition(rp.block_diagonalize(x), x)

    def test_block_ordering_deterministic(self):
        x, _ = random_symmetric_square(np.random.default_rng(9), 5)
        a = rp.block_diagonalize(x)
        b = rp.block_diagonalize(x)
        np.testing.assert_array_equal(a.basis, b.basis)
        mus = [blk.mu for blk in a.blocks]
        assert mus == sorted(mus, reverse=True)

    @pytest.mark.parametrize("eps", [10.0**-e for e in range(4, 14)])
    def test_nearly_symmetric_block(self, eps):
        # below about CLUSTER_GAP the block may come back as two 1x1 blocks
        x, lam = nearly_symmetric(eps)
        check_decomposition(rp.block_diagonalize(x), x)
        check_decomposition(rp.scalar_square_blocks(x, lam), x)

    def test_rotated_nilpotents(self):
        # X^2 = 0 is zero only up to rounding, so the eigenspace split of
        # X^2 must not separate its eigenvalues at rounding level
        t = rp.random_rotation(2, 0)
        x = t @ np.array([[0.0, 1.0], [0.0, 0.0]]) @ t.T
        dec = rp.block_diagonalize(x)
        assert [b.size for b in dec.blocks] == [2]
        check_decomposition(dec, x)
        for seed in range(200):
            x = rotated_nilpotent(seed)
            dec = rp.block_diagonalize(x)
            assert all(b.mu == pytest.approx(0.0, abs=1e-12) for b in dec.blocks)
            check_decomposition(dec, x)

    def test_noisy_inputs(self):
        # Relative noise 1e-12..1e-8.5 on a synthesized symmetric square.
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 10))
            scale = 10.0 ** rng.uniform(-12, -8.5)
            x, _ = random_symmetric_square(rng, n)
            y = x + scale * rp.frob_norm(x) * rng.standard_normal((n, n))
            try:
                dec = rp.block_diagonalize(y)
            except (NotSymmetricSquare, NotLambdaSquare):
                continue
            assert rp.frob_norm(dec.basis.T @ dec.basis - np.eye(n)) <= 1e-10
            assert all(b.size in (1, 2) for b in dec.blocks)
            assert dec.reconstruction_residual(y) <= 1e-6 * (1.0 + rp.frob_norm(y))

    def test_empty_matrix(self):
        empty = np.zeros((0, 0))
        for dec in (rp.block_diagonalize(empty), rp.scalar_square_blocks(empty, 1.0)):
            assert dec.basis.shape == (0, 0) and dec.blocks == () and dec.source_dim == 0

    @pytest.mark.filterwarnings("error")
    def test_large_finite_entries_decompose(self):
        dec = rp.block_diagonalize([[1e150, 0.0], [0.0, 1.0]])
        assert [b.entries.tolist() for b in dec.blocks] == [[[1e150]], [[1.0]]]
        assert [b.mu for b in dec.blocks] == [1e150 * 1e150, 1.0]
        np.testing.assert_array_equal(dec.basis, np.eye(2))

    @pytest.mark.filterwarnings("error")
    def test_square_overflow_raises_degenerate(self):
        with pytest.raises(Degenerate, match="overflows"):
            rp.block_diagonalize([[1e160, 0.0], [0.0, 1.0]])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("power", [-480, -60, 1, 60, 480])
    def test_power_of_two_scaling_is_exact(self, power):
        # the construction runs on X over a power of two near max|x_ij|,
        # so 2^power X gives the same basis and exactly scaled blocks
        x, _ = random_symmetric_square(np.random.default_rng(abs(power)), 7)
        c = 2.0**power
        a, b = rp.block_diagonalize(x), rp.block_diagonalize(c * x)
        np.testing.assert_array_equal(a.basis, b.basis)
        assert [blk.mu * c * c for blk in a.blocks] == [blk.mu for blk in b.blocks]
        for p, q in zip(a.blocks, b.blocks):
            np.testing.assert_array_equal(c * p.entries, q.entries)

    @pytest.mark.filterwarnings("error")
    def test_square_residual_of_large_entries_is_finite(self):
        # entries near 1e152: b b - mu I is about 1e288, its square overflows
        t = rp.random_rotation(2, 0)
        dec = rp.block_diagonalize(t @ np.diag([1e152, 3e151]) @ t.T)
        for blk in dec.blocks:
            assert np.isfinite(blk.square_residual())
            assert blk.square_residual() <= 1e-8 * blk.mu

    def test_square_residual_unchanged_on_ordinary_blocks(self):
        # the power-of-two scaling is exact, so the bits equal the direct formula
        for seed in range(20):
            x, _ = random_symmetric_square(np.random.default_rng(seed), 2 + seed % 7)
            for blk in rp.block_diagonalize(x).blocks:
                b = blk.entries
                direct = rp.frob_norm(b @ b - blk.mu * np.eye(blk.size))
                assert blk.square_residual() == direct


def assert_matches_reference(dec, reference, x):
    """Same block sizes, mu values and order; basis and entries within
    1e-13, relative to max|x_ij| for the entries."""
    basis, blocks = reference
    assert [(b.size, b.mu) for b in dec.blocks] == [(e.shape[0], mu) for e, mu in blocks]
    np.testing.assert_allclose(dec.basis, basis, rtol=0.0, atol=1e-13)
    tol = 1e-13 * max(1.0, float(np.max(np.abs(x))))
    for blk, (entries, _) in zip(dec.blocks, blocks):
        np.testing.assert_allclose(blk.entries, entries, rtol=0.0, atol=tol)


def check_block_diagonalize(x):
    assert_matches_reference(rp.block_diagonalize(x), reference_block_diagonalize(x), x)


def check_scalar_square_blocks(x, lam):
    assert_matches_reference(
        rp.scalar_square_blocks(x, lam), reference_scalar_square_blocks(x, lam), x
    )


class TestAgainstReference:
    """The stacked pass against the loop over one eigenspace at a time."""

    def test_classify_recipe(self):
        # the recipe of the benchmark's block-diagonalization inputs
        for n in range(2, 49):
            rng = np.random.default_rng(1000 + n)
            for _ in range(3):
                check_block_diagonalize(random_symmetric_square(rng, n)[0])

    def test_random_symmetric_square(self):
        for seed in range(300):
            rng = np.random.default_rng(seed)
            check_block_diagonalize(random_symmetric_square(rng, 2 + seed % 8)[0])

    def test_rotated_nilpotents(self):
        for seed in range(200):
            check_block_diagonalize(rotated_nilpotent(seed))

    @pytest.mark.parametrize("eps", [10.0**-e for e in range(4, 14)])
    def test_nearly_symmetric_blocks(self, eps):
        x, lam = nearly_symmetric(eps)
        check_block_diagonalize(x)
        check_scalar_square_blocks(x, lam)

    @pytest.mark.parametrize("eps", [1e-5, 1e-6, 1e-7, 1e-8])
    def test_scale_separated_planes(self, eps):
        x = scale_separated(eps)
        check_block_diagonalize(x)
        check_scalar_square_blocks(x, 1.0)

    def test_worked_and_tiny_inputs(self):
        check_block_diagonalize(WORKED_Y)
        check_scalar_square_blocks(WORKED_Y, 1.0)
        for y in (np.diag([1e-5, 2e-5, -1e-5]), 1e-5 * QUARTER_TURN):
            check_scalar_square_blocks(y, -1e-10)
            check_scalar_square_blocks(padded_rotated(y, 4, seed=3), -1e-10)


def count_factorizations(monkeypatch, fn, *args):
    """Calls of np.linalg.eigh and np.linalg.qr made by fn(*args)."""
    counts = {"eigh": 0, "qr": 0}
    for name in counts:

        def counted(*a, _real=getattr(np.linalg, name), _name=name, **kw):
            counts[_name] += 1
            return _real(*a, **kw)

        monkeypatch.setattr(np.linalg, name, counted)
    fn(*args)
    return counts


def rotated_blocks(blocks, seed):
    n = sum(b.shape[0] for b in blocks)
    y = np.zeros((n, n))
    pos = 0
    for b in blocks:
        y[pos : pos + b.shape[0], pos : pos + b.shape[0]] = b
        pos += b.shape[0]
    t = rp.random_rotation(n, seed)
    return t @ y @ t.T


class TestFactorizationCount:
    """Eigenspaces of one dimension share their factorizations."""

    @pytest.mark.parametrize("m", [12, 24])
    def test_distinct_planes(self, monkeypatch, m):
        # non-normal 2x2 blocks squaring to -(1 + j) I: m eigenspaces of
        # dimension 2 with one plane each
        x = rotated_blocks(
            [np.array([[0.5, 2.0], [-(1.25 + j) / 2.0, -0.5]]) for j in range(m)], m
        )
        assert [b.size for b in rp.block_diagonalize(x).blocks] == [2] * m
        # one eigh of X^2, one of the stacked Y^T Y and one stacked QR
        assert count_factorizations(monkeypatch, rp.block_diagonalize, x) == {"eigh": 2, "qr": 1}

    def test_distinct_singletons(self, monkeypatch):
        x = rotated_blocks([np.array([[(-1.0) ** j * (1.0 + j / 8.0)]]) for j in range(48)], 48)
        assert len(rp.block_diagonalize(x).blocks) == 48
        # the eigh of X^2 only: a 1x1 eigenspace is its own block
        assert count_factorizations(monkeypatch, rp.block_diagonalize, x) == {"eigh": 1, "qr": 0}
