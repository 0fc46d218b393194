"""Shared helpers for the test suite: independent synthesizers.

Everything here builds inputs from first principles (explicit block
algebra, explicit partitions) so the tests do not reuse the code paths
they are checking.
"""

from __future__ import annotations

import itertools

import numpy as np

from rpolar.critical import PartitionLabel, SubsetLabel, _pair_signs
from rpolar.linalg import haar_rotations


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
