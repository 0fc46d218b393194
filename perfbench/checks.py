"""Output checkers that share no code with the library.

Everything here is computed from first principles with numpy: the
shear-stretch energy, its Riemannian gradient, the paper's reduced energy
on singular values from numpy's own SVD, a count of critical points from
the classification rules, and block-diagonalization invariants.  A checker
raises ``CheckFailed`` with a message when an output is wrong.
"""

from __future__ import annotations

import itertools

import numpy as np


class CheckFailed(Exception):
    """An output of the library violates a property it must have."""


# Rotations built by a few products of orthogonal matrices drift by a few
# ulps per entry; these bounds scale with n and leave ample headroom.
ORTH_TOL_PER_N = 1e-10
# Energies and gradients are compared relative to 1 + ||F||_F^2.
ENERGY_RTOL = 1e-10
GRAD_RTOL = 1e-9
# Step of the random descent probe.  The second-order energy rise
# (about eps^2 times the curvature) stays far above rounding.
PROBE_EPS = 1e-3
CHUNK = 512


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _t(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2)


def shear_energy(r: np.ndarray, f: np.ndarray) -> np.ndarray:
    """||sym(R^T F - I)||_F^2 for one rotation or a stack of them.

    For F = diag(d) this equals ||sym(R D - I)||_F^2 because
    tr(R D) = tr(R^T D) and tr(R D R D) = tr(R^T D R^T D).
    """
    x = _t(r) @ f - np.eye(f.shape[0])
    s = (x + _t(x)) / 2.0
    return np.sum(s * s, axis=(-2, -1))


def shear_energy_gradient(r: np.ndarray, f: np.ndarray):
    """Energy and skew G with d/dt E(R exp(tB))|_0 = -2 <G, B>.

    With X = R^T F - I and S = sym(X): dE = -2 <S, B R^T F>, so
    G = skew(S F^T R).
    """
    x = _t(r) @ f - np.eye(f.shape[0])
    s = (x + _t(x)) / 2.0
    m = s @ (f.T @ r)
    return np.sum(s * s, axis=(-2, -1)), (m - _t(m)) / 2.0


def shear_gradient(r: np.ndarray, f: np.ndarray) -> np.ndarray:
    return shear_energy_gradient(r, f)[1]


def cayley(b: np.ndarray) -> np.ndarray:
    """Exactly orthogonal (I - B/2)^-1 (I + B/2) for skew B (stacked)."""
    eye = np.eye(b.shape[-1])
    return np.linalg.solve(eye - b / 2.0, eye + b / 2.0)


def check_so_n(r: np.ndarray) -> None:
    """Every matrix of a stack is in SO(n): R^T R = I and det R = +1."""
    n = r.shape[-1]
    tol = ORTH_TOL_PER_N * n
    defect = np.linalg.norm(_t(r) @ r - np.eye(n), axis=(-2, -1))
    require(bool(np.all(defect <= tol)), f"R^T R - I = {defect.max():.2e} > {tol:.1e}")
    sign, logdet = np.linalg.slogdet(r)
    require(bool(np.all(sign > 0)), "det R < 0")
    require(bool(np.all(np.abs(logdet) <= tol)), f"|log det R| = {np.abs(logdet).max():.2e}")


def optimal_pairs(s: np.ndarray) -> int:
    """Largest k with s_{2i-1} + s_{2i} > 2 for every i <= k (s descending)."""
    k = 0
    while 2 * k + 1 < s.size and s[2 * k] + s[2 * k + 1] > 2.0:
        k += 1
    return k


def reduced_energy(s: np.ndarray, k: int) -> float:
    """The paper's minimum: 1/2 sum_{i<=k} (s_{2i-1} - s_{2i})^2 + sum_{j>2k} (s_j - 1)^2."""
    pairs = s[: 2 * k].reshape(k, 2)
    return float(0.5 * np.sum((pairs[:, 0] - pairs[:, 1]) ** 2) + np.sum((s[2 * k :] - 1.0) ** 2))


def check_minimizers(
    f: np.ndarray,
    k: int,
    energy: float,
    cos_alphas,
    rotations,
    rng: np.random.Generator,
    count: int | None,
) -> None:
    """Check a minimizer set for F (diagonal or full) against the paper.

    ``rotations`` is a sequence of matrices; all of them are checked.
    ``count`` is the number of minimizers the set reports (its length),
    which must be 2^k with k counted here; ``None`` skips the count.
    """
    s = np.linalg.svd(f, compute_uv=False)
    scale = 1.0 + float(np.sum(s * s))
    k_ref = optimal_pairs(s)
    require(k == k_ref, f"k = {k}, expected {k_ref}")
    e_ref = reduced_energy(s, k_ref)
    require(
        abs(energy - e_ref) <= ENERGY_RTOL * scale,
        f"reduced_energy {energy!r} differs from the paper's {e_ref!r}",
    )
    cos_ref = 2.0 / (s[0 : 2 * k_ref : 2] + s[1 : 2 * k_ref : 2])
    require(
        len(cos_alphas) == k_ref and np.allclose(cos_alphas, cos_ref, rtol=0, atol=1e-12),
        "cos_alphas differ from 2 / (s_{2i-1} + s_{2i})",
    )
    if count is not None:
        require(count == 2**k_ref, f"{count} minimizers, expected 2^{k_ref}")
    keys = set()
    seen = 0
    it = iter(rotations)
    while chunk := list(itertools.islice(it, CHUNK)):
        r = np.asarray(chunk)
        seen += r.shape[0]
        check_so_n(r)
        e, g = shear_energy_gradient(r, f)
        worst = float(np.max(np.abs(e - e_ref)))
        require(worst <= ENERGY_RTOL * scale, f"a rotation's energy is off by {worst:.2e}")
        g = np.linalg.norm(g, axis=(-2, -1))
        require(
            float(g.max()) <= GRAD_RTOL * scale,
            f"Riemannian gradient {g.max():.2e} does not vanish",
        )
        check_no_descent(r, f, e, rng, scale)
        keys.update(hash(m.tobytes()) for m in np.round(r, 8))
    if count is not None and seen == count:
        require(len(keys) == count, f"only {len(keys)} of {count} minimizers are distinct")


def check_no_descent(r, f, e, rng, scale) -> None:
    """A small random rotation R -> R Q (one Q per stack) lowers no energy."""
    b = rng.standard_normal(r.shape[-2:])
    b = b - b.T
    b *= PROBE_EPS / np.linalg.norm(b)
    moved = shear_energy(r @ cayley(b), f)
    drop = float(np.max(e - moved))
    require(drop <= ENERGY_RTOL * scale, f"a rotation by {PROBE_EPS:g} lowers the energy by {drop:.2e}")


def count_critical_points(d: np.ndarray) -> int:
    """Critical points of W(.; D) from the classification rules alone.

    Partitions of {1..n} into subsets of size one or two; a singleton takes
    det +1 or -1; a pair takes det +1 when d_i + d_j > 2 and det -1 when
    |d_i - d_j| > 2; the det signs multiply to +1; each pair carries two
    angle signs.
    """

    def walk(rest: tuple[int, ...]) -> tuple[int, int]:
        # (count with det product +1, count with det product -1)
        if not rest:
            return 1, 0
        first, tail = rest[0], rest[1:]
        even, odd = walk(tail)
        plus, minus = even + odd, odd + even  # singleton det +1 or -1
        for j, other in enumerate(tail):
            e2, o2 = walk(tail[:j] + tail[j + 1 :])
            di, dj = d[first], d[other]
            if di + dj > 2.0:
                plus += 2 * e2
                minus += 2 * o2
            if abs(di - dj) > 2.0:
                plus += 2 * o2
                minus += 2 * e2
        return plus, minus

    return walk(tuple(range(d.size)))[0]


def check_critical_listing(d: np.ndarray, records) -> None:
    """Check ``rpolar critical`` output: count, stationarity, values, order.

    ``records`` is an iterable of the parsed JSON lines; it is consumed in
    chunks, so the check holds little more than one chunk in memory.
    """
    n = d.size
    f = np.diag(d)
    scale = 1.0 + float(np.sum(d * d))
    labels = set()
    count = 0
    last = -np.inf
    it = iter(records)
    while chunk := list(itertools.islice(it, CHUNK)):
        count += len(chunk)
        require(all(p.get("kind") == "critical_point" for p in chunk), "unexpected record kind")
        labels.update(
            tuple((tuple(s["idx"]), s["det"], s["angle"]) for s in p["label"]["subsets"])
            for p in chunk
        )
        values = np.array([p["value"] for p in chunk])
        require(values[0] >= last and bool(np.all(np.diff(values) >= 0.0)), "points are not sorted by value")
        last = values[-1]
        r = np.array([p["rotation"] for p in chunk]).reshape(-1, n, n)
        check_so_n(r)
        e, g = shear_energy_gradient(r, f)
        g = np.linalg.norm(g, axis=(-2, -1))
        require(float(g.max()) <= GRAD_RTOL * scale, f"a critical point has gradient {g.max():.2e}")
        off = float(np.max(np.abs(e - values)))
        require(off <= ENERGY_RTOL * scale, f"a critical value is off its energy by {off:.2e}")
    expected = count_critical_points(d)
    require(count == expected, f"{count} critical points, expected {expected}")
    require(len(labels) == count, "critical point labels repeat")


def check_blocks(x: np.ndarray, basis: np.ndarray, blocks) -> None:
    """Check an orthogonal block-diagonalization of X (blocks: (entries, mu))."""
    n = x.shape[0]
    scale = 1.0 + float(np.sum(x * x))
    tol = 1e-8 * scale
    require(basis.shape == (n, n), "basis has the wrong shape")
    defect = float(np.linalg.norm(basis.T @ basis - np.eye(n)))
    require(defect <= ORTH_TOL_PER_N * n, f"T^T T - I = {defect:.2e}")
    diag = np.zeros((n, n))
    pos = 0
    mus = []
    for entries, mu in blocks:
        size = entries.shape[0]
        require(size in (1, 2) and entries.shape == (size, size), f"block of shape {entries.shape}")
        sq = float(np.linalg.norm(entries @ entries - mu * np.eye(size)))
        require(sq <= tol, f"block square differs from mu I by {sq:.2e}")
        require(pos + size <= n, "blocks exceed the dimension")
        diag[pos : pos + size, pos : pos + size] = entries
        mus.extend([mu] * size)
        pos += size
    require(pos == n, f"blocks cover {pos} of {n} dimensions")
    recon = float(np.linalg.norm(basis.T @ x @ basis - diag))
    require(recon <= tol, f"reconstruction residual {recon:.2e}")
    split = sum(float(np.sum(e * e)) for e, _ in blocks)
    require(abs(split - float(np.sum(x * x))) <= tol, "Frobenius split does not sum to ||X||^2")
    eig = np.sort(np.linalg.eigvalsh((x @ x + (x @ x).T) / 2.0))
    off = float(np.max(np.abs(np.sort(mus) - eig)))
    require(off <= tol, f"block mu values differ from eigvalsh(X^2) by {off:.2e}")
