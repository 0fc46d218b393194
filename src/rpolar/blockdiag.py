"""Orthogonal block-diagonalization of matrices with a symmetric square.

If X^2 is symmetric there is an orthogonal T such that T^-1 X T is
block-diagonal with blocks of size at most two, each block squaring to a
scalar multiple of the identity.  The construction is fully constructive:
eigenspaces of S = X^2 are split off first (X preserves them because X
commutes with its square).  On each, the restriction Y has Y^2 = lam * I,
and one eigendecomposition of Y^T Y gives every block at once: its
eigenvectors for eigenvalues s > |lam| span 2x2 blocks together with
their images under Y, and on the rest Y / sqrt|lam| is orthogonal, hence
symmetric or skew.

The restrictions of one dimension are stacked and go through each step
together: the lam-square check, the eigendecomposition of Y^T Y, the
choice of planes, their QR completion (one call per plane count), the
second plane pass and the split of the rest.  So the number of
factorizations per call depends on the dimensions and plane counts that
occur, not on the number of eigenspaces.  A one-dimensional eigenspace is
its own 1x1 block and needs no factorization.

All of this runs on X divided by a power of two near its largest entry.
The division is exact, so for ordinary input every comparison and every
output equals that of the unscaled arithmetic, and neither X^2 nor the
norms in the relative checks overflow unless X^2 itself does, which
raises ``Degenerate``.

Orthogonality of T matters: it preserves the Frobenius norm, so the norm
of X splits into per-block contributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Degenerate, NotLambdaSquare, NotSymmetricSquare
from .linalg import as_matrix, frob_norm

# Relative tolerance for symmetric-square membership and block residuals.
TOL_BLOCK = 1e-8

# Relative eigenvalue gap below which eigenvalues of S are clustered.
CLUSTER_GAP = 1e-8


@dataclass(frozen=True, eq=False)
class Block:
    """Diagonal block of size one or two with entries^2 = mu * I."""

    entries: np.ndarray
    mu: float

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def square_residual(self) -> float:
        """||B^2 - mu I||_F, evaluated on B over a power of two, which is exact."""
        scale = _scale(self.entries)
        b = self.entries / scale
        return scale * (scale * frob_norm(b @ b - self.mu / scale / scale * np.eye(self.size)))


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """Orthogonal basis T and the diagonal blocks of T^-1 X T."""

    basis: np.ndarray
    blocks: tuple[Block, ...]
    source_dim: int

    def block_diagonal(self) -> np.ndarray:
        """Assembled block-diagonal matrix diag(blocks)."""
        out = np.zeros((self.source_dim, self.source_dim))
        pos = 0
        for blk in self.blocks:
            out[pos : pos + blk.size, pos : pos + blk.size] = blk.entries
            pos += blk.size
        return out

    def reconstruction_residual(self, x) -> float:
        """||T^-1 X T - diag(blocks)||_F."""
        m = as_matrix(x)
        return frob_norm(self.basis.T @ m @ self.basis - self.block_diagonal())


def _scale(m: np.ndarray) -> float:
    """Power of two within a factor 2 of max|m_ij|; dividing by it is exact."""
    return float(np.ldexp(1.0, np.frexp(abs(m).max(initial=0.0))[1] - 1))


def _eigsplit(s: np.ndarray, floor: float):
    """Eigenvectors v of sym(s) and its clusters, eigenvalue descending.

    Eigenvalues closer than ``CLUSTER_GAP * max|eigenvalue|`` or than
    ``floor`` share a cluster.  Cluster c has mean eigenvalue lams[c] and
    the columns starts[c] .. starts[c] + dims[c] of v.
    """
    w, v = np.linalg.eigh((s + s.T) / 2.0)
    tau = max(CLUSTER_GAP * float(abs(w).max(initial=0.0)), floor)
    bounds = np.empty(w.size + 1, dtype=bool)
    bounds[0] = bounds[-1] = True
    bounds[1:-1] = w[1:] - w[:-1] > tau
    edges = bounds.nonzero()[0]
    starts, dims = edges[:-1], edges[1:] - edges[:-1]
    lams = w[starts]
    for c in (dims > 1).nonzero()[0].tolist():
        lams[c] = w[edges[c] : edges[c + 1]].mean()
    return v, lams[::-1], starts[::-1], dims[::-1]


def _not_lambda_square(y: np.ndarray, lam: np.ndarray, unit: float) -> np.ndarray:
    """Mask of the stacked Y with ||Y^2 - lam I||_F > TOL_BLOCK (unit + ||Y||_F^2)."""
    res = y @ y - lam[:, None, None] * np.eye(y.shape[1])
    norm = np.sqrt(np.add.reduce(y * y, axis=(1, 2)))
    return np.sqrt(np.add.reduce(res * res, axis=(1, 2))) > TOL_BLOCK * (unit + norm * norm)


def _split(keys: list[int]) -> list[tuple[int, slice | np.ndarray]]:
    """(value, rows holding it) for each distinct value in keys."""
    values = sorted(set(keys))
    if len(values) == 1:
        return [(values[0], slice(None))]
    return [(k, np.array([i for i, key in enumerate(keys) if key == k])) for k in values]


def _planes(y: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal Q per stacked Y, plane basis first, and the plane counts.

    The planes are span{p, Y p} for the eigenvectors p of G = Y^T Y with
    eigenvalue s above |lam| + ``CLUSTER_GAP`` * max(s).  The plane basis
    is interleaved (p_1, q_1, p_2, q_2, ...), q_j = Y p_j / sqrt(s_j) made
    orthogonal by one QR per plane count; the columns after it complete
    it.  Without planes Q holds the eigenvectors of G.
    """
    c, n, _ = y.shape
    w, q = np.linalg.eigh(y.transpose(0, 2, 1) @ y)
    yv = y @ q
    # eigh sorts ascending, so w[:, -1] is max(s)
    big = w > abs(lam)[:, None] + CLUSTER_GAP * np.maximum(w[:, -1:], 0.0)
    root = np.sqrt(abs(w))
    # Y^2 = lam * I makes p orthogonal to Y p; a p that Y nearly keeps
    # fixed is noise, as in a tiny Y that passes the lam-square check for
    # any small lam, and stays in the complement.
    big &= abs(np.add.reduce(q * yv, axis=1)) < 0.5 * root
    count = big.sum(axis=1)
    for p, rows in _split(count.tolist()):
        if p:
            pick = big[rows]
            vecs = q[rows].transpose(0, 2, 1)[pick]
            images = yv[rows].transpose(0, 2, 1)[pick] / root[rows][pick][:, None]
            pairs = np.concatenate((vecs, images), axis=1).reshape(-1, 2 * p, n)
            q[rows] = np.linalg.qr(pairs.transpose(0, 2, 1), mode="complete")[0]
    return q, count


def _factor(y: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns Q of T, plane counts and rest block widths for stacked Y.

    Y^2 = lam * I for each Y of the stack.  An eigenvector p of G = Y^T Y
    for s > |lam| is mapped by Y to sqrt(s) q, with q the unit eigenvector
    for lam^2 / s, and q back to lam / sqrt(s) p, so each such p carries a
    2x2 block on span{p, q}.  On the rest G = |lam| I, so Y / sqrt|lam| is
    orthogonal there with square sign(lam) I, hence symmetric (1x1 blocks
    on its eigenvectors, width 1) or skew (2x2 blocks on the real and
    imaginary parts of its complex eigenvectors, width 2).  The blocks of
    one Y lie on Q's columns in order: its planes, then the rest.
    """
    c, n, _ = y.shape
    width = np.ones(c, dtype=int)
    q, count = _planes(y, lam)
    # max(s) may dwarf |lam|; a second pass at the scale of the rest finds
    # the planes whose s lies within CLUSTER_GAP * max(s) of |lam|.
    for p, rows in _split([p if n - 2 * p > 1 else 0 for p in count.tolist()]):
        if p:
            rest = q[rows, :, 2 * p :]
            more, extra = _planes((rest.transpose(0, 2, 1) @ y[rows]) @ rest, lam[rows])
            q[rows, :, 2 * p :] = rest @ more
            count[rows] += extra
    for p, rows in _split(count.tolist()):
        r = n - 2 * p
        if r < 2:
            # a 1x1 rest is an eigenvector already: its eigh is 1 exactly
            continue
        rows = np.arange(c)[rows]
        rest = q[rows, :, 2 * p :]
        k = (rest.transpose(0, 2, 1) @ y[rows]) @ rest
        sym = (k + k.transpose(0, 2, 1)) / 2.0
        skew = (k - k.transpose(0, 2, 1)) / 2.0
        two = np.sqrt((skew * skew).sum(axis=(1, 2))) > np.sqrt((sym * sym).sum(axis=(1, 2)))
        two &= r % 2 == 0
        if not two.all():
            q[rows[~two], :, 2 * p :] = rest[~two] @ np.linalg.eigh(sym[~two])[1]
        if two.any():
            # Largest rotations first: should k be nearly singular, the QR
            # then completes the planes with a basis of its near-null space.
            u = np.linalg.eigh(1j * skew[two])[1][:, :, ::-1][:, :, : r // 2]
            u = u.transpose(0, 2, 1)
            rotations = np.concatenate((u.real, u.imag), axis=2).reshape(-1, r, r)
            q[rows[two], :, 2 * p :] = rest[two] @ np.linalg.qr(rotations.transpose(0, 2, 1))[0]
            width[rows[two]] = 2
    return q, count, width


def _blocks(y, lam, scale: float, mus: list[float], b=None):
    """Columns of T and blocks of each stacked Y, both in block order.

    b maps each Y's space into R^N; without it the columns lie in Y's own
    space.  A Y's blocks come 2x2 first, in place, then 1x1 by entry
    descending, ties in place.  Entries are scaled back by ``scale`` and
    carry their Y's mu.
    """
    c, n, _ = y.shape
    if n == 1:
        e = y * scale
        t = np.ones((c, 1, 1)) if b is None else b
        return [(t[j], [Block(entries=e[j], mu=mus[j])]) for j in range(c)]
    q, count, width = _factor(y, lam)
    qt, yq = q.transpose(0, 2, 1), y @ q
    # columns of 2x2 blocks come first, up to ends[j]
    ends = [2 * p if wd == 1 else n for p, wd in zip(count.tolist(), width.tolist())]
    if any(ends):
        t = q if b is None else b @ q
        e = (qt @ yq) * scale
    if min(ends) < n:
        # A 1x1 block's entry is one row times one column and its column
        # of T one matrix times one column, as when its eigenspace is
        # factored alone: the diagonal and the columns of a matrix product
        # round otherwise, and the entries order the 1x1 blocks.
        ones = (qt[:, :, None, :] @ yq.transpose(0, 2, 1)[:, :, :, None]) * scale
        t1 = q if b is None else (b[:, None] @ qt[:, :, :, None])[..., 0].transpose(0, 2, 1)
        diag = ones[:, :, 0, 0].tolist()
    out = []
    for j, end in enumerate(ends):
        singles = sorted(range(end, n), key=lambda a: -diag[j][a])
        blocks = [
            Block(entries=np.ascontiguousarray(e[j, a : a + 2, a : a + 2]), mu=mus[j])
            for a in range(0, end, 2)
        ]
        blocks += [Block(entries=ones[j, a], mu=mus[j]) for a in singles]
        if not singles:
            cols = t[j]
        elif not end:
            cols = t1[j][:, singles]
        else:
            cols = np.concatenate((t[j, :, :end], t1[j][:, singles]), axis=1)
        out.append((cols, blocks))
    return out


def scalar_square_blocks(y, lam: float) -> BlockDecomposition:
    """Orthogonal block-diagonalization of Y with Y^2 = lam * I.

    Each eigenvector p of Y^T Y for an eigenvalue above |lam| spans a 2x2
    block with Y p; the rest, where Y / sqrt|lam| is orthogonal, splits
    into 1x1 blocks if Y is symmetric there and into 2x2 blocks if it is
    skew.  Symmetric input therefore yields only 1x1 blocks, and so may a
    2x2 block whose skew part is below about ``CLUSTER_GAP`` times its
    norm, within ``TOL_BLOCK``.  Output blocks are sorted by mu descending,
    larger blocks first, then by leading entry.

    Raises
    ------
    NotLambdaSquare
        If ||Y^2 - lam*I||_F exceeds TOL_BLOCK * (1 + ||Y||_F^2).
    Degenerate
        If lam is not finite.
    """
    m = as_matrix(y)
    if not np.isfinite(lam):
        raise Degenerate("lam must be finite")
    n = m.shape[0]
    if n == 0:
        return BlockDecomposition(basis=np.eye(0), blocks=(), source_dim=0)
    scale = _scale(m)
    ys = (m / scale)[None]
    lams = np.array([lam / scale / scale])
    if _not_lambda_square(ys, lams, 1.0 / scale / scale)[0]:
        raise NotLambdaSquare(f"matrix square is not {lam} * identity")
    [(basis, blocks)] = _blocks(ys, lams, scale, [float(lam)])
    return BlockDecomposition(basis=basis, blocks=tuple(blocks), source_dim=n)


def block_diagonalize(x) -> BlockDecomposition:
    """Orthogonal block-diagonalization of X with symmetric square.

    Splits R^n into the eigenspaces of S = X^2 (which X preserves), runs
    the construction of ``scalar_square_blocks`` on each restriction, and
    concatenates.  Eigenvalues of S closer than CLUSTER_GAP * max|eig S|
    or than the rounding level 64 n eps ||X||_F^2 of X^2 share an
    eigenspace, so a nilpotent X is one eigenspace with lam = 0.  Block
    mu values equal the eigenvalues of X^2, with multiplicity spread
    across blocks.  The decomposition is not unique; this routine fixes
    one deterministic output.

    Raises
    ------
    NotSymmetricSquare
        If ||skew(X^2)||_F > TOL_BLOCK (1 + ||X||_F^2), tested on X over a
        power of two, so that a large finite X is judged before its square
        can overflow.
    Degenerate
        If X has non-finite entries, or if X^2 overflows.
    NotLambdaSquare
        If an eigenspace restriction of a noisy X that passes the check
        above squares to no multiple of the identity within ``TOL_BLOCK``.
    """
    m = as_matrix(x)
    n = m.shape[0]
    scale = _scale(m)
    unit = 1.0 / scale / scale
    xs = m / scale
    sq = xs @ xs
    norm_sq = float((xs * xs).sum())
    # ||skew(X^2)||_F > TOL_BLOCK (1 + ||X||_F^2), on X / scale
    if float(np.linalg.norm((sq - sq.T) / 2.0)) > TOL_BLOCK * (unit + norm_sq):
        raise NotSymmetricSquare("matrix square has a nonzero skew part")
    if n == 0:
        return BlockDecomposition(basis=np.eye(0), blocks=(), source_dim=0)
    v, lams, starts, dims = _eigsplit(sq, 64 * n * np.finfo(float).eps * norm_sq)
    mus = [lam * scale * scale for lam in lams.tolist()]
    if max(map(abs, mus)) == np.inf:
        raise Degenerate("matrix square overflows")
    groups = []
    for d, idx in _split(dims.tolist()):
        idx = np.arange(dims.size)[idx]
        # rows strided as in a column slice of v, so that each product
        # rounds as it does on that eigenspace alone
        b = np.empty((idx.size, n, d + 1))[:, :, :d]
        b[...] = v[:, starts[idx, None] + np.arange(d)].transpose(1, 0, 2)
        groups.append((idx, b, (b.transpose(0, 2, 1) @ xs) @ b))
    bad = [i for idx, _, y in groups for i in idx[_not_lambda_square(y, lams[idx], unit)]]
    if bad:
        raise NotLambdaSquare(f"matrix square is not {mus[min(bad)]} * identity")
    ordered: list = [None] * len(mus)
    for idx, b, y in groups:
        for i, part in zip(idx.tolist(), _blocks(y, lams[idx], scale, [mus[i] for i in idx], b)):
            ordered[i] = part
    return BlockDecomposition(
        basis=np.concatenate([cols for cols, _ in ordered], axis=1),
        blocks=tuple(blk for _, blks in ordered for blk in blks),
        source_dim=n,
    )
