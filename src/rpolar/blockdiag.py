"""Orthogonal block-diagonalization of matrices with a symmetric square.

If X^2 is symmetric there is an orthogonal T such that T^-1 X T is
block-diagonal with blocks of size at most two, each block squaring to a
scalar multiple of the identity.  The construction is fully constructive:
eigenspaces of S = X^2 are split off first (X preserves them because X
commutes with its square), and inside each eigenspace a loop peels off
one- or two-dimensional invariant subspaces, each found from a common
eigenvector of Y Y^T and Y^T Y, continuing on the orthogonal complement.

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

# w counts as an eigenvector of Y when the residual of the Rayleigh
# quotient is below this times (1 + ||Y||_F).
EIGVEC_TOL = 1e-8

# A 2x2 block is split into two 1x1 blocks only when its skew part is at
# rounding level; the acceptance tolerances above leave ample headroom.
SPLIT_TOL = 1e-10


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
    m = sym(s)
    w, v = np.linalg.eigh(m)
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    tau = gap * scale
    clusters: list[tuple[float, np.ndarray]] = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > tau:
            lam = float(np.mean(w[start:i]))
            clusters.append((lam, v[:, start:i]))
            start = i
    clusters.reverse()
    return clusters


def _common_eigvecs(y: np.ndarray) -> np.ndarray:
    """Columns are common eigenvectors of Y^T Y and Y Y^T.

    The two Gram matrices commute whenever Y^2 is a scalar matrix, so each
    eigenvalue cluster of Y^T Y is invariant under Y Y^T; diagonalizing
    the restriction refines the cluster basis into common eigenvectors.
    """
    gram_r = y.T @ y
    gram_l = y @ y.T
    cols = []
    for _, basis in eigsplit_symmetric(gram_r):
        restricted = basis.T @ gram_l @ basis
        _, q = np.linalg.eigh(sym(restricted))
        cols.append(basis @ q)
    return np.hstack(cols)


def _invariant_subspace(y: np.ndarray, w: np.ndarray, eig_tol: float) -> np.ndarray:
    """One- or two-dimensional Y- and Y^T-invariant subspace containing w.

    Returns an orthonormal basis (n, 1) or (n, 2).  Three cases: w is an
    eigenvector of both Y and Y^T (span{w}); of Y only (span{w, Y^T w});
    of neither (span{w, Y w}).
    """
    yw = y @ w
    ytw = y.T @ w
    is_right = np.linalg.norm(yw - (w @ yw) * w) <= eig_tol
    is_left = np.linalg.norm(ytw - (w @ ytw) * w) <= eig_tol
    if is_right and is_left:
        return w[:, None]
    second = ytw if is_right else yw
    u = second - (w @ second) * w
    u = u / np.linalg.norm(u)
    return np.stack([w, u], axis=1)


def _orth_complement_basis(v_basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of an orthonormal set, via QR."""
    tail = np.linalg.qr(v_basis, mode="complete")[0][:, v_basis.shape[1] :]
    # Re-orthogonalize the tail against the (already orthonormal) given set.
    return np.linalg.qr(tail - v_basis @ (v_basis.T @ tail))[0]


def _peel(sub: np.ndarray, eig_tol: float):
    """Invariant subspace to split off next, and its orthogonal complement.

    Any common eigenvector works in exact arithmetic; the candidates are
    scanned in order and the first whose invariant subspace leaks at most
    ``eig_tol`` into its complement is kept, else the one that leaks
    least, which guards near-degenerate clusters.  Returns orthonormal
    bases (v_basis, tail) of the subspace and its complement.
    """
    cands = _common_eigvecs(sub)
    best, best_leak = None, np.inf
    for j in range(cands.shape[1]):
        v_basis = _invariant_subspace(sub, cands[:, j], eig_tol)
        if v_basis.shape[1] == sub.shape[0]:
            return v_basis, np.zeros((sub.shape[0], 0))
        tail = _orth_complement_basis(v_basis)
        leak = np.linalg.norm(tail.T @ sub @ v_basis) + np.linalg.norm(v_basis.T @ sub @ tail)
        if leak <= eig_tol:
            return v_basis, tail
        if leak < best_leak:
            best, best_leak = (v_basis, tail), leak
    return best


def _split_symmetric_block(t_cols: np.ndarray, block: np.ndarray, lam: float):
    """Split a symmetric 2x2 block into two ordered 1x1 blocks."""
    w, q = np.linalg.eigh(sym(block))
    order = np.argsort(-w)
    w = w[order]
    q = q[:, order]
    cols = t_cols @ q
    return [
        (cols[:, 0:1], Block(entries=np.array([[w[0]]]), mu=lam)),
        (cols[:, 1:2], Block(entries=np.array([[w[1]]]), mu=lam)),
    ]


def _pieces(m: np.ndarray, lam: float, tol: float) -> list[tuple[np.ndarray, Block]]:
    """(columns of T, block) pairs for Y with Y^2 = lam * I, in peel order.

    Each pass splits an invariant subspace off with ``_peel``, writes its
    block (a symmetric 2x2 block as two 1x1 blocks) and continues on the
    restriction of Y to the complement.
    """
    n = m.shape[0]
    norm_m = frob_norm(m)
    if frob_norm(m @ m - lam * np.eye(n)) > tol * (1.0 + norm_m * norm_m):
        raise NotLambdaSquare(f"matrix square is not {lam} * identity")
    eig_tol = EIGVEC_TOL * (1.0 + norm_m)
    split_tol = SPLIT_TOL * (1.0 + norm_m)
    pieces: list[tuple[np.ndarray, Block]] = []
    sub, cols = m, np.eye(n)
    while sub.shape[0] > 1:
        v_basis, tail = _peel(sub, eig_tol)
        block = v_basis.T @ sub @ v_basis
        if block.shape[0] == 2 and frob_norm(block - block.T) <= split_tol:
            pieces.extend(_split_symmetric_block(cols @ v_basis, block, lam))
        else:
            pieces.append((cols @ v_basis, Block(entries=block, mu=lam)))
        sub, cols = tail.T @ sub @ tail, cols @ tail
    if sub.shape[0] == 1:
        pieces.append((cols, Block(entries=sub.copy(), mu=lam)))
    return pieces


def scalar_square_blocks(y, lam: float, tol: float = TOL_BLOCK) -> BlockDecomposition:
    """Orthogonal block-diagonalization of Y with Y^2 = lam * I.

    Repeatedly peels off a one- or two-dimensional invariant subspace
    built from a common eigenvector of Y Y^T and Y^T Y and continues on
    the orthogonal complement.  Symmetric 2x2 blocks are split further,
    so symmetric input yields only 1x1 blocks.  Output blocks are sorted
    by mu descending, larger blocks first, then by leading entry.

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
    the scalar-square construction on each restriction, and concatenates.
    Block mu values equal the eigenvalues of X^2, with multiplicity spread
    across blocks.  The decomposition is not unique; this routine fixes
    one deterministic output.

    Raises
    ------
    NotSymmetricSquare
        If ``is_symmetric_square(x, tol)`` fails.
    """
    m = as_matrix(x)
    if not is_symmetric_square(m, tol):
        raise NotSymmetricSquare("matrix square has a nonzero skew part")
    n = m.shape[0]
    s = sym(m @ m)
    pieces = [
        (basis @ cols, blk)
        for lam, basis in eigsplit_symmetric(s)
        for cols, blk in _pieces(basis.T @ m @ basis, lam, tol)
    ]
    return _assemble(pieces, n)
