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

Orthogonality of T matters: it preserves the Frobenius norm, so the norm
of X splits into per-block contributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotLambdaSquare, NotSymmetricSquare
from .linalg import as_matrix, frob_norm, frob_norm_sq, skew, sym

# Default relative tolerance for symmetric-square membership and block
# residuals.
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
        b = self.entries
        return frob_norm(b @ b - self.mu * np.eye(self.size))


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


def is_symmetric_square(x, tol: float = TOL_BLOCK) -> bool:
    """Test whether X^2 is symmetric within a relative tolerance.

    True iff ||skew(X^2)||_F <= tol * (1 + ||X||_F^2).
    """
    m = as_matrix(x)
    return frob_norm(skew(m @ m)) <= tol * (1.0 + frob_norm_sq(m))


def eigsplit_symmetric(s, gap: float = CLUSTER_GAP) -> list[tuple[float, np.ndarray]]:
    """Clustered eigendecomposition of a symmetric matrix.

    Eigenvalues closer than ``gap * max|eigenvalue|`` are merged into one
    cluster.  Returns (eigenvalue, orthonormal basis) pairs sorted by
    eigenvalue descending; the bases are mutually orthonormal and together
    span R^n.
    """
    return _eigsplit(s, gap, 0.0)


def _eigsplit(s, gap: float, floor: float) -> list[tuple[float, np.ndarray]]:
    """``eigsplit_symmetric`` merging eigenvalues closer than ``floor`` too."""
    w, v = np.linalg.eigh(sym(s))
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    tau = max(gap * scale, floor)
    clusters: list[tuple[float, np.ndarray]] = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > tau:
            lam = float(np.mean(w[start:i]))
            clusters.append((lam, v[:, start:i]))
            start = i
    clusters.reverse()
    return clusters


def _planes(m: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the planes span{p, Y p} and of their complement.

    p runs over the eigenvectors of G = Y^T Y for eigenvalues s above
    |lam| + ``CLUSTER_GAP`` * max(s).  The plane basis is interleaved
    (p_1, q_1, p_2, q_2, ...), q_j = Y p_j / sqrt(s_j) made orthogonal.
    """
    n = m.shape[0]
    w, v = np.linalg.eigh(m.T @ m)
    yv = m @ v
    big = w > abs(lam) + CLUSTER_GAP * w.max(initial=0.0)
    # Y^2 = lam * I makes p orthogonal to Y p; a p that Y nearly keeps
    # fixed is noise, as in a tiny Y that passes the lam-square check for
    # any small lam, and stays in the complement.
    big &= np.abs(np.sum(v * yv, axis=0)) < 0.5 * np.sqrt(np.abs(w))
    if not big.any():
        return v[:, :0], v
    pairs = np.stack([v[:, big], yv[:, big] / np.sqrt(w[big])], axis=2)
    pairs = pairs.reshape(n, 2 * pairs.shape[1])
    basis = np.linalg.qr(pairs, mode="complete")[0]
    return basis[:, : pairs.shape[1]], basis[:, pairs.shape[1] :]


def _pieces(m: np.ndarray, lam: float, tol: float) -> list[tuple[np.ndarray, Block]]:
    """(columns of T, block) pairs for Y with Y^2 = lam * I.

    An eigenvector p of G = Y^T Y for s > |lam| is mapped by Y to
    sqrt(s) q, with q the unit eigenvector for lam^2 / s, and q back to
    lam / sqrt(s) p, so each such p carries a 2x2 block on span{p, q}.
    On the rest G = |lam| I, so Y / sqrt|lam| is orthogonal there with
    square sign(lam) I, hence symmetric (1x1 blocks on its eigenvectors)
    or skew (2x2 blocks on the real and imaginary parts of its complex
    eigenvectors).
    """
    n = m.shape[0]
    norm_m = frob_norm(m)
    if frob_norm(m @ m - lam * np.eye(n)) > tol * (1.0 + norm_m * norm_m):
        raise NotLambdaSquare(f"matrix square is not {lam} * identity")
    planes, rest = _planes(m, lam)
    if planes.size and rest.shape[1] > 1:
        # max(s) may dwarf |lam|; a second pass at the scale of the rest
        # finds the planes whose s lies within CLUSTER_GAP * max(s) of |lam|.
        more, rest_of_rest = _planes(rest.T @ m @ rest, lam)
        planes = np.hstack([planes, rest @ more])
        rest = rest @ rest_of_rest
    k = rest.T @ m @ rest
    if k.shape[0] % 2 or frob_norm(skew(k)) <= frob_norm(sym(k)):
        width = 1
        rest = rest @ np.linalg.eigh(sym(k))[1]
    else:
        # Largest rotations first: should k be nearly singular, the QR
        # then completes the planes with a basis of its near-null space.
        width = 2
        u = np.linalg.eigh(1j * skew(k))[1][:, ::-1][:, : k.shape[0] // 2]
        rotations = np.stack([u.real, u.imag], axis=2).reshape(k.shape[0], -1)
        rest = rest @ np.linalg.qr(rotations)[0]
    cols = np.hstack([planes, rest])
    mc = m @ cols
    edges = [*range(0, planes.shape[1], 2), *range(planes.shape[1], n + 1, width)]
    return [
        (cols[:, a:b], Block(entries=cols[:, a:b].T @ mc[:, a:b], mu=lam))
        for a, b in zip(edges[:-1], edges[1:])
    ]


def scalar_square_blocks(y, lam: float, tol: float = TOL_BLOCK) -> BlockDecomposition:
    """Orthogonal block-diagonalization of Y with Y^2 = lam * I.

    Each eigenvector p of Y^T Y for an eigenvalue above |lam| spans a 2x2
    block with Y p; the rest, where Y / sqrt|lam| is orthogonal, splits
    into 1x1 blocks if Y is symmetric there and into 2x2 blocks if it is
    skew.  Symmetric input therefore yields only 1x1 blocks, and so may a
    2x2 block whose skew part is below about ``CLUSTER_GAP`` times its
    norm, within ``tol``.  Output blocks are sorted by mu descending,
    larger blocks first, then by leading entry.

    Raises
    ------
    NotLambdaSquare
        If ||Y^2 - lam*I||_F exceeds tol * (1 + ||Y||_F^2).
    """
    m = as_matrix(y)
    return _assemble(_pieces(m, lam, tol), m.shape[0])


def _assemble(pieces: list[tuple[np.ndarray, Block]], n: int) -> BlockDecomposition:
    def sort_key(item):
        _, blk = item
        lead = blk.entries[0, 0] if blk.size == 1 else 0.0
        return (-blk.mu, -blk.size, -lead)

    pieces = sorted(pieces, key=sort_key)
    basis = np.hstack([cols for cols, _ in pieces]) if pieces else np.eye(n)
    return BlockDecomposition(
        basis=basis, blocks=tuple(blk for _, blk in pieces), source_dim=n
    )


def block_diagonalize(x, tol: float = TOL_BLOCK) -> BlockDecomposition:
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
        If ``is_symmetric_square(x, tol)`` fails.
    NotLambdaSquare
        If an eigenspace restriction of a noisy X that passes the check
        above squares to no multiple of the identity within ``tol``.
    """
    m = as_matrix(x)
    if not is_symmetric_square(m, tol):
        raise NotSymmetricSquare("matrix square has a nonzero skew part")
    n = m.shape[0]
    floor = 64 * n * np.finfo(float).eps * frob_norm_sq(m)
    pieces = [
        (basis @ cols, blk)
        for lam, basis in _eigsplit(m @ m, CLUSTER_GAP, floor)
        for cols, blk in _pieces(basis.T @ m @ basis, lam, tol)
    ]
    return _assemble(pieces, n)
