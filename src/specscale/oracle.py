"""Brute-force ground truth for cross-checking the spectral calculus.

Nothing here uses interval projections or the face machinery: the scale
is probed by sampling the positive unit ball directly, by exact support
values from raw eigenvalue sums, and by convex hulls of the sampled
images.  Agreement between these and the analytic path is what the test
suite leans on.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from . import algebra
from .errors import ZeroDirectionError

EXHAUSTIVE_DIM_LIMIT = 12  # enumerate all 0/1 diagonal patterns up to here
PATTERN_PRODUCT_LIMIT = 64  # rotated pattern combinations added per draw


def _haar_unitary(rng, d):
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phase = np.diag(r).copy()
    phase /= np.abs(phase)
    return q * phase


def _bit_patterns(total):
    idx = np.arange(2**total, dtype=np.uint32)
    return ((idx[:, None] >> np.arange(total)) & 1).astype(float)


def sample_unit_ball(optuple, m, seed=0):
    """psi-images of sampled elements of the positive unit ball.

    Each draw takes a Haar-like random unitary and independent uniform
    eigenvalues per block, giving ``U diag(u) U*`` which lies in the ball
    by construction.  Two deterministic augmentations sharpen the cloud
    near the boundary: all 0/1 diagonal patterns in the identity basis
    (exhaustive when the total dimension is small), and per draw the 0/1
    patterns rotated by that draw's unitaries.  Returns the stacked
    psi-images, one row per sample.
    """
    if m < 1:
        raise ValueError("need at least one sample")
    alg = optuple.algebra
    rng = np.random.default_rng(seed)
    dims = alg.dims
    total = alg.total_dim
    block_slices = []
    start = 0
    for d in dims:
        block_slices.append(slice(start, start + d))
        start += d

    samples = [[] for _ in dims]  # per-block lists of (d, d) matrices

    def emit(block_mats):
        for store, mat in zip(samples, block_mats):
            store.append(mat)

    if total <= EXHAUSTIVE_DIM_LIMIT:
        for bits in _bit_patterns(total):
            emit(
                [
                    np.diag(bits[sl]).astype(complex)
                    for sl in block_slices
                ]
            )

    expand_patterns = 2**total <= PATTERN_PRODUCT_LIMIT
    pattern_bits = _bit_patterns(total) if expand_patterns else None
    for _ in range(m):
        unitaries = [_haar_unitary(rng, d) for d in dims]
        u_vals = [rng.uniform(0.0, 1.0, d) for d in dims]
        emit(
            [
                (U * u) @ U.conj().T
                for U, u in zip(unitaries, u_vals)
            ]
        )
        if expand_patterns:
            for bits in pattern_bits:
                emit(
                    [
                        (U * bits[sl]) @ U.conj().T
                        for U, sl in zip(unitaries, block_slices)
                    ]
                )

    stacks = [np.array(store) for store in samples]
    k = stacks[0].shape[0]
    points = np.zeros((k, optuple.n + 1))
    for (d, c), stack in zip(alg.blocks, stacks):
        points[:, 0] += c * np.einsum("kii->k", stack).real
    for i, op in enumerate(optuple.operators):
        for (d, c), stack, b in zip(alg.blocks, stacks, op.blocks):
            points[:, i + 1] += c * np.einsum("kab,ba->k", stack, b).real
    return points


def random_ball_operators(optuple, m, seed=0):
    """m random elements of the positive unit ball as operators."""
    alg = optuple.algebra
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(m):
        blocks = []
        for d in alg.dims:
            U = _haar_unitary(rng, d)
            u = rng.uniform(0.0, 1.0, d)
            blocks.append((U * u) @ U.conj().T)
        out.append(algebra._raw(blocks))
    return out


def oracle_support(optuple, u):
    """Exact support value ``h(u) = max <u, x>`` over the scale.

    Equals the trace of the positive part of ``u_0 + b_{(u_1..u_n)}``,
    computed from raw blockwise eigenvalues.
    """
    u = np.asarray(u, dtype=float).ravel()
    if u.shape != (optuple.n + 1,) or np.linalg.norm(u) == 0.0:
        raise ZeroDirectionError(
            f"need a nonzero vector of length {optuple.n + 1}"
        )
    alg = optuple.algebra
    total = 0.0
    for j, (d, c) in enumerate(alg.blocks):
        block = u[0] * np.eye(d, dtype=complex)
        for coeff, op in zip(u[1:], optuple.operators):
            block = block + coeff * op.blocks[j]
        w = np.linalg.eigvalsh(block)
        total += c * float(w[w > 0.0].sum())
    return total


class PointCloudHull:
    """Convex hull of a psi-image cloud, tolerant of flat scales.

    The hull is built in the affine span of the points, so degenerate
    scales (tuples with affine relations) do not upset qhull.  Above
    three effective dimensions only the support function is available.
    """

    def __init__(self, points, flat_tol=1e-9):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        self.points = points
        self.center = points.mean(axis=0)
        centered = points - self.center
        _, svals, vt = np.linalg.svd(centered, full_matrices=False)
        scale = max(1.0, float(svals[0]) if len(svals) else 1.0)
        rank = int(np.sum(svals > flat_tol * scale))
        self.affine_rank = rank
        self.basis = vt[:rank]
        self.simplices = None
        if rank == 0:
            self.vertex_indices = np.array([0])
        elif rank == 1:
            coords = centered @ self.basis[0]
            self.vertex_indices = np.unique([np.argmin(coords), np.argmax(coords)])
        elif rank <= 3:
            projected = centered @ self.basis.T
            try:
                hull = ConvexHull(projected)
            except QhullError:
                hull = ConvexHull(projected, qhull_options="QJ")
            self.vertex_indices = hull.vertices
            if rank == points.shape[1] == 3:
                self.simplices = hull.simplices
        else:
            self.vertex_indices = None

    @property
    def hull_points(self):
        if self.vertex_indices is None:
            raise ValueError("vertex enumeration unavailable above 3 dimensions")
        return self.points[self.vertex_indices]

    def support(self, u):
        """``max <u, x>`` over the cloud (an inner bound for the scale)."""
        u = np.asarray(u, dtype=float).ravel()
        return float(np.max(self.points @ u))


def hull_faces(hull, u, tol=1e-9):
    """Hull vertices lying on the supporting hyperplane ``<u, x> = h(u)``."""
    verts = hull.hull_points
    vals = verts @ np.asarray(u, dtype=float).ravel()
    return verts[vals >= hull.support(u) - tol]
