"""Shared helpers for the test suite: independent synthesizers.

Everything here builds inputs from first principles (explicit block
algebra, explicit partitions) so the tests do not reuse the code paths
they are checking.
"""

from __future__ import annotations

import itertools

import numpy as np

from rpolar.blockdiag import CLUSTER_GAP, TOL_BLOCK
from rpolar.critical import PartitionLabel, SubsetLabel, _pair_signs
from rpolar.errors import NotLambdaSquare
from rpolar.linalg import frob_norm, frob_norm_sq, haar_rotations, skew, sym


def is_rotation(r, tol: float = 1e-10) -> bool:
    """||R^T R - I||_F <= tol and det R = 1 within max(1e-10, 10 tol)."""
    m = np.asarray(r, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    if np.linalg.norm(m.T @ m - np.eye(m.shape[0])) > tol:
        return False
    return abs(np.linalg.det(m) - 1.0) <= max(1e-10, 10 * tol)


def random_trace_zero_block(rng: np.random.Generator, mu: float) -> np.ndarray:
    """2x2 matrix [[a, b], [c, -a]] with a^2 + bc = mu, so B^2 = mu * I."""
    a = rng.uniform(-2.0, 2.0)
    b = rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])
    c = (mu - a * a) / b
    return np.array([[a, b], [c, -a]])


def random_symmetric_square(rng: np.random.Generator, n: int):
    """Matrix with symmetric square built as T0 @ blkdiag @ T0^T.

    Returns (X, block_list); each block squares to a scalar matrix by
    construction, so X^2 = T0 diag(mu_j I) T0^T is symmetric.  Scalar
    values are occasionally reused across blocks to exercise degenerate
    eigenvalue clusters.
    """
    sizes = []
    left = n
    while left > 0:
        if left == 1 or rng.random() < 0.45:
            sizes.append(1)
            left -= 1
        else:
            sizes.append(2)
            left -= 2
    mus: list[float] = []
    blocks = []
    for size in sizes:
        reusable = [m for m in mus if size == 2 or m > 0]
        if reusable and rng.random() < 0.3:
            mu = float(rng.choice(reusable))
        else:
            mu = float(rng.uniform(-4.0, 4.0)) if size == 2 else float(rng.uniform(0.05, 4.0))
        mus.append(mu)
        if size == 1:
            blocks.append(np.array([[rng.choice([-1.0, 1.0]) * np.sqrt(mu)]]))
        else:
            blocks.append(random_trace_zero_block(rng, mu))
    x = np.zeros((n, n))
    pos = 0
    for b in blocks:
        k = b.shape[0]
        x[pos : pos + k, pos : pos + k] = b
        pos += k
    t0 = haar_rotations(n, 1, rng)[0]
    return t0 @ x @ t0.T, blocks


def label_of(*subs) -> PartitionLabel:
    """The label of (indices, det sign) subsets, with angle signs +1."""
    return PartitionLabel(subsets=tuple(SubsetLabel(s, g) for s, g in subs))


def random_partition(rng: np.random.Generator, n: int):
    """Partition of {1..n} into subsets of size one or two, as index tuples."""
    indices = list(range(1, n + 1))
    rng.shuffle(indices)
    subsets = []
    while indices:
        if len(indices) == 1 or rng.random() < 0.5:
            subsets.append((indices.pop(),))
        else:
            i, j = indices.pop(), indices.pop()
            subsets.append(tuple(sorted((i, j))))
    return subsets


def _all_partitions(indices: tuple[int, ...]):
    """Partitions of sorted ``indices`` into subsets of size 1 or 2: first
    index alone, then paired with each later index in turn."""
    if not indices:
        yield ()
        return
    first, rest = indices[0], indices[1:]
    for tail in _all_partitions(rest):
        yield ((first,),) + tail
    for j, other in enumerate(rest):
        for tail in _all_partitions(rest[:j] + rest[j + 1 :]):
            yield ((first, other),) + tail


def reference_labels(d: np.ndarray):
    """Every critical label in enumeration order, one object at a time.

    Per partition, the det signs run over ``itertools.product`` of each
    subset's options (first subset slowest, +1 first), keeping those with
    product +1; pair options come from the scalar ``_pair_signs``.
    """
    for partition in _all_partitions(tuple(range(1, d.size + 1))):
        options = [
            (1, -1) if len(sub) == 1 else _pair_signs(d[sub[0] - 1], d[sub[1] - 1])
            for sub in partition
        ]
        for signs in itertools.product(*options):
            if int(np.prod(signs)) == 1:
                yield PartitionLabel(
                    subsets=tuple(SubsetLabel(s, g) for s, g in zip(partition, signs))
                )


def random_scheme_start(rng: np.random.Generator, d: np.ndarray) -> PartitionLabel:
    """Random start label whose pairs all admit a block (d_i + d_j > 2)."""
    n = d.size
    while True:
        subsets = random_partition(rng, n)
        if all(len(s) == 1 or d[s[0] - 1] + d[s[1] - 1] > 2.0 for s in subsets):
            break
    labeled = tuple(
        SubsetLabel(indices=s, det_sign=int(rng.choice([-1, 1]))) for s in subsets
    )
    return PartitionLabel(subsets=labeled)


def random_realizable_label(rng: np.random.Generator, d: np.ndarray) -> PartitionLabel:
    """Random label satisfying the per-sign inequalities and SO(n) parity."""
    n = d.size
    while True:
        subsets = random_partition(rng, n)
        choices = []
        ok = True
        for s in subsets:
            if len(s) == 1:
                choices.append((1, -1))
                continue
            di, dj = d[s[0] - 1], d[s[1] - 1]
            opts = tuple(
                sgn
                for sgn, cond in ((1, di + dj > 2.0), (-1, abs(di - dj) > 2.0))
                if cond
            )
            if not opts:
                ok = False
                break
            choices.append(opts)
        if not ok:
            continue
        for _ in range(40):
            signs = [int(rng.choice(c)) for c in choices]
            if int(np.prod(signs)) == 1:
                return PartitionLabel(
                    subsets=tuple(
                        SubsetLabel(indices=s, det_sign=g)
                        for s, g in zip(subsets, signs)
                    )
                )


def _reference_eigsplit(s, floor):
    """Eigenspaces of sym(s) as (mean eigenvalue, basis), descending,
    merging neighbours closer than CLUSTER_GAP * max|w| or ``floor``."""
    w, v = np.linalg.eigh(sym(s))
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    tau = max(CLUSTER_GAP * scale, floor)
    clusters = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > tau:
            clusters.append((float(np.mean(w[start:i])), v[:, start:i]))
            start = i
    clusters.reverse()
    return clusters


def _reference_planes(m, lam):
    """Plane basis and complement of Y, one eigenspace at a time."""
    n = m.shape[0]
    w, v = np.linalg.eigh(m.T @ m)
    yv = m @ v
    big = w > abs(lam) + CLUSTER_GAP * w.max(initial=0.0)
    big &= np.abs(np.sum(v * yv, axis=0)) < 0.5 * np.sqrt(np.abs(w))
    if not big.any():
        return v[:, :0], v
    pairs = np.stack([v[:, big], yv[:, big] / np.sqrt(w[big])], axis=2)
    pairs = pairs.reshape(n, 2 * pairs.shape[1])
    basis = np.linalg.qr(pairs, mode="complete")[0]
    return basis[:, : pairs.shape[1]], basis[:, pairs.shape[1] :]


def _reference_pieces(m, lam):
    """(columns, entries) per block of Y with Y^2 = lam I, unsorted."""
    n = m.shape[0]
    norm_m = frob_norm(m)
    if frob_norm(m @ m - lam * np.eye(n)) > TOL_BLOCK * (1.0 + norm_m * norm_m):
        raise NotLambdaSquare(f"matrix square is not {lam} * identity")
    planes, rest = _reference_planes(m, lam)
    if planes.size and rest.shape[1] > 1:
        more, rest_of_rest = _reference_planes(rest.T @ m @ rest, lam)
        planes = np.hstack([planes, rest @ more])
        rest = rest @ rest_of_rest
    k = rest.T @ m @ rest
    if k.shape[0] % 2 or frob_norm(skew(k)) <= frob_norm(sym(k)):
        width = 1
        rest = rest @ np.linalg.eigh(sym(k))[1]
    else:
        width = 2
        u = np.linalg.eigh(1j * skew(k))[1][:, ::-1][:, : k.shape[0] // 2]
        rotations = np.stack([u.real, u.imag], axis=2).reshape(k.shape[0], -1)
        rest = rest @ np.linalg.qr(rotations)[0]
    cols = np.hstack([planes, rest])
    mc = m @ cols
    edges = [*range(0, planes.shape[1], 2), *range(planes.shape[1], n + 1, width)]
    return [
        (cols[:, a:b], cols[:, a:b].T @ mc[:, a:b], lam) for a, b in zip(edges[:-1], edges[1:])
    ]


def _reference_sorted(pieces, n):
    """Basis and (entries, mu) blocks, by mu, size and leading entry descending."""

    def key(piece):
        entries, mu = piece[1], piece[2]
        lead = entries[0, 0] if entries.shape[0] == 1 else 0.0
        return (-mu, -entries.shape[0], -lead)

    pieces = sorted(pieces, key=key)
    basis = np.hstack([cols for cols, _, _ in pieces]) if pieces else np.eye(n)
    return basis, [(entries, mu) for _, entries, mu in pieces]


def reference_block_diagonalize(x):
    """Block-diagonalization of X one eigenspace of X^2 at a time.

    The per-eigenspace loop that ``rpolar.block_diagonalize`` replaces by
    stacks of eigenspaces of one dimension: each restriction is factored
    on its own, with the validating ``linalg`` helpers and without
    scaling, and the blocks are sorted at the end.  Returns
    (basis, [(entries, mu), ...]).
    """
    m = np.asarray(x, dtype=float)
    n = m.shape[0]
    floor = 64 * n * np.finfo(float).eps * frob_norm_sq(m)
    pieces = [
        (basis @ cols, entries, mu)
        for lam, basis in _reference_eigsplit(m @ m, floor)
        for cols, entries, mu in _reference_pieces(basis.T @ m @ basis, lam)
    ]
    return _reference_sorted(pieces, n)


def reference_scalar_square_blocks(y, lam):
    """``reference_block_diagonalize`` for Y with Y^2 = lam I alone."""
    m = np.asarray(y, dtype=float)
    return _reference_sorted(_reference_pieces(m, lam), m.shape[0])
