"""The spectral scale as a convex body.

Support values and exposed faces come straight from the spectral
calculus: for a pair ``(s, t)`` the hyperplane

    -s x_0 + <t, (x_1..x_n)> = alpha,   alpha = tr((b_t - s) p)

supports the scale from below, touching it exactly on the image of the
order interval ``[p_minus, p_plus]`` of the interval projections of
``b_t`` at ``s``.  Sweeping ``s`` across the spectrum of ``b_t`` for a
direction sample therefore enumerates extreme points and exposed faces
without ever building the body itself.  Each sampled direction is
decomposed once (``spectral.sweep``) and all of its cut levels are read
off that one eigenframe: a level's interval is a pair of leading cluster
counts, its endpoints' ``psi`` are rows of the frame's ``psi`` table and
``alpha`` is ``<(-s, t), row>``, computed and checked for all levels of a
frame at once, so a sweep builds no d×d projection.
A face's dimension is read off its interval's gap columns, and a
rank-one gap is a segment, which needs no cut-down.  Extreme clouds keep
each projection as a leading range ``(frame, count)``, merge two ranges
by ``spectral.same_range`` and build a projection as an operator only
when a caller reads it.

An isotrace slice is batched over its directions instead: per block
size, the ``b_u`` of many directions are stacked as
``(directions, m_k, d, d)`` and decomposed by one ``eigh``, and each
boundary point is the water-filling coefficients of a direction's
clusters times their summed per-column ``psi``, with no operator built.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import algebra, sampling, spectral
from .algebra import Compression, max_norm
from .errors import InvariantViolation
from .spectral import OrderInterval, SpectralPair

POINT_DEDUP_TOL = 1e-8
PROJECTION_MATCH_TOL = 1e-6
RELATION_TOL = 1e-8
# Bound on one stacked (directions, m_k, d, d) array of an isotrace slice.
# About three are alive at once; larger stacks run no faster, since eigh
# then dominates, but raise the peak memory.
SLICE_CHUNK_BYTES = 2**18


@dataclass(frozen=True)
class SupportHyperplane:
    """A supporting hyperplane ``<(-s, t), x> = alpha`` with the scale above."""

    pair: SpectralPair
    alpha: float

    def signed_distance(self, points):
        """``<(-s,t), x> - alpha`` per row; nonnegative on the scale."""
        pts = np.atleast_2d(points)
        return pts @ self.pair.normal_vector() - self.alpha


@dataclass(frozen=True)
class ExposedFace:
    hyperplane: SupportHyperplane
    interval: OrderInterval
    vertices: np.ndarray  # rows psi(p_minus), psi(p_plus)
    dimension: int

    @property
    def pair(self):
        return self.hyperplane.pair

    @property
    def alpha(self):
        return self.hyperplane.alpha


@dataclass(frozen=True)
class ScaleDimension:
    dimension: int
    relations: tuple  # of (t, s) with b_t = s * identity


@dataclass(frozen=True)
class IsotraceSlice:
    level: float
    points: np.ndarray  # (m, n) cross-section coordinates


def _support_in_frame(frame, s, lower, upper):
    """Support values at levels ``s`` (a number or an array) of a decomposed
    direction (a ``spectral.DirectionFrame``) whose intervals span the
    leading ``lower`` and ``upper`` clusters: ``<(-s, t), psi(p)>`` for
    either endpoint, read off the frame's ``psi`` table, all levels at once."""
    ends = frame.psi_table[np.stack([upper, lower])]  # (2, ..., n + 1)
    alpha_plus, alpha_minus = ends[..., 1:] @ frame.t - np.multiply(s, ends[..., 0])
    gap_weight = ends[0, ..., 0] - ends[1, ..., 0]
    # The two agree exactly in exact arithmetic: the difference is the gap
    # columns' Rayleigh quotients minus s, weighted, and those quotients lie
    # in the equality band around s.
    bad = np.abs(alpha_plus - alpha_minus) > 1e-9 + frame.eff_tol * np.maximum(
        gap_weight, 0.0
    )
    if np.any(bad):
        k = np.flatnonzero(bad)[0]
        plus, minus = np.ravel(alpha_plus)[k], np.ravel(alpha_minus)[k]
        raise InvariantViolation(
            "support value differs between the two interval projections: "
            f"{float(plus)!r} vs {float(minus)!r}"
        )
    return alpha_plus


def support_value(optuple, pair, cluster_tol=None, eig_eq_tol=None):
    """``tr((b_t - s) p_plus)``: the minimum of ``<(-s,t), x>`` over the scale."""
    frame = spectral.direction_frame(optuple, pair.t, cluster_tol, eig_eq_tol)
    lower, upper = spectral.cut_clusters(frame.spectrum, pair.s, frame.eff_tol)
    return float(_support_in_frame(frame, pair.s, lower, upper))


def face_dimension(optuple, interval):
    """Affine dimension of the image of an order interval.

    Zero for a point; otherwise the cut-down scale of ``upper - lower``
    has the same dimension as the image (the cut-down map is an affine
    isomorphism onto it).
    """
    if interval.is_point():
        return 0
    gap = interval.columns("gap")
    # a rank-one gap cuts down to a one-dimensional algebra, whose
    # operators are all scalars: its scale is a segment
    if sum(V.shape[1] for V in gap) == 1:
        return 1
    return scale_dimension(Compression(optuple, gap).tuple).dimension


def _face_in_frame(frame, pair, lower, upper, alpha):
    """The exposed face of ``pair`` at a level of ``frame`` whose interval
    spans the leading ``lower`` and ``upper`` clusters, with support value
    ``alpha``."""
    interval = OrderInterval._from_frame(frame.spectrum, lower, upper)
    return ExposedFace(
        hyperplane=SupportHyperplane(pair=pair, alpha=alpha),
        interval=interval,
        vertices=frame.psi_table[[lower, upper]],
        dimension=face_dimension(frame.optuple, interval),
    )


def exposed_face(optuple, pair, cluster_tol=None, eig_eq_tol=None):
    """The face cut out by the supporting hyperplane of ``(s, t)``.

    The face is the image of the order interval of the interval
    projections; it is a single exposed point exactly when the two
    projections coincide.
    """
    frame = spectral.direction_frame(optuple, pair.t, cluster_tol, eig_eq_tol)
    lower, upper = spectral.cut_clusters(frame.spectrum, pair.s, frame.eff_tol)
    alpha = float(_support_in_frame(frame, pair.s, lower, upper))
    return _face_in_frame(frame, pair, lower, upper, alpha)


def sweep_frames(
    optuple, directions=sampling.DEFAULT_DIRECTIONS, cluster_tol=None, eig_eq_tol=None
):
    """One ``spectral.DirectionFrame`` per distinct direction part of a
    sphere sample (as for ``extreme_point_cloud``)."""
    return spectral.sweep(
        optuple, _cloud_t_directions(optuple.n, directions), cluster_tol, eig_eq_tol
    )


def faces_in_frame(frame):
    """Exposed faces of every sweep level of one decomposed direction.

    The levels share ``t``, checked once, and their support values are
    computed and checked together, in one pass over the frame.
    """
    t = SpectralPair(s=0.0, t=frame.t).t
    lowers, uppers = frame.cuts
    alphas = _support_in_frame(frame, frame.levels, lowers, uppers)
    for s, lower, upper, alpha in zip(
        frame.levels.tolist(), lowers, uppers, alphas.tolist()
    ):
        yield _face_in_frame(frame, SpectralPair._at_level(s, t), lower, upper, alpha)


def sweep_faces(
    optuple, directions=sampling.DEFAULT_DIRECTIONS, cluster_tol=None, eig_eq_tol=None
):
    """Exposed faces of every sweep level of every sampled direction part.

    ``directions`` is a sphere sample as for ``extreme_point_cloud``; each
    direction is decomposed once for all of its levels.
    """
    for frame in sweep_frames(optuple, directions, cluster_tol, eig_eq_tol):
        yield from faces_in_frame(frame)


def scale_dimension(optuple):
    """Dimension of the linear span of the scale, with the affine relations.

    Relations ``b_t = s 1`` are read off the null space of the Gram matrix
    of the trace-centered operators; each candidate is verified directly
    in operator norm before it is counted.  Every relation flattens the
    scale by one dimension.
    """
    alg = optuple.algebra
    n = optuple.n
    one = alg.identity()
    traces = np.array([alg.trace(b) for b in optuple.operators])
    centered = [b - traces[i] * one for i, b in enumerate(optuple.operators)]
    gram = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            gram[i, j] = gram[j, i] = alg.inner(centered[i], centered[j])
    w, v = np.linalg.eigh(gram)
    scale_ref = max(1.0, float(w[-1]) if n else 1.0)
    relations = []
    for k in range(n):
        if w[k] <= 1e-12 * scale_ref:
            t = v[:, k]
            s = float(traces @ t)
            b_t = algebra.linear_combination(optuple, t)
            if max_norm(b_t - s * one) <= RELATION_TOL:
                relations.append((t, s))
    return ScaleDimension(
        dimension=n + 1 - len(relations), relations=tuple(relations)
    )


def _cloud_t_directions(n, directions):
    """Unique direction parts from a sphere sample in R^{n+1}."""
    if isinstance(directions, (int, np.integer)):
        dirs = sampling.unit_directions(n + 1, int(directions))
    else:
        dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    return sampling.distinct_unit_vectors(
        u[1:] if u.shape[0] == n + 1 else u for u in dirs
    )


class _LeadingRanges(Sequence):
    """Cloud projections kept as leading ranges ``(frame, count)`` of a
    ``spectral.SpectralFrame``; item ``i`` is built as an operator when read."""

    def __init__(self):
        self.sources = []

    def __len__(self):
        return len(self.sources)

    def __getitem__(self, idx):
        frame, count = self.sources[idx]
        return frame.projection(0, count)

    def rank(self, idx):
        """``Σ Tr`` of projection ``idx``: its column count."""
        frame, count = self.sources[idx]
        return int(frame.bounds[count].sum())


class ExtremePointCloud:
    """Deduplicated extreme points ``psi(p)`` with their projections.

    ``points`` fill a buffer that doubles when full.  ``add`` takes each
    projection as a leading range ``(frame, count)`` of a
    ``spectral.SpectralFrame``, and ``projections[i]`` builds it as an
    operator only when read.  A point merges into an earlier one only when
    the coordinates agree within ``POINT_DEDUP_TOL`` and the projections
    within ``PROJECTION_MATCH_TOL``.
    """

    def __init__(self, n):
        self._buffer = np.empty((16, n + 1))
        self._size = 0
        self.projections = _LeadingRanges()

    @property
    def points(self):
        return self._buffer[: self._size]

    @points.setter
    def points(self, points):
        self._buffer = np.asarray(points, dtype=float)
        self._size = len(self._buffer)

    def add(self, point, projection):
        count = self._size
        if count:
            dist = np.linalg.norm(self._buffer[:count] - point, axis=1)
            for idx in np.flatnonzero(dist <= POINT_DEDUP_TOL):
                source = self.projections.sources[idx]
                if spectral.same_range(source, projection, PROJECTION_MATCH_TOL):
                    return int(idx)
        if count == len(self._buffer):
            self._buffer = np.concatenate([self._buffer, np.empty_like(self._buffer)])
        self._buffer[count] = point
        self._size += 1
        self.projections.sources.append(projection)
        return count

    def add_frame(self, frame):
        """Add ``psi(p_minus)`` and ``psi(p_plus)`` of every sweep level of a
        ``spectral.DirectionFrame``, level by level."""
        seen = set()  # a repeated count is the same projection, kept or merged
        for lower, upper in zip(*frame.cuts):
            for k in (lower, upper):
                if k not in seen:
                    seen.add(k)
                    self.add(frame.psi_table[k], (frame.spectrum, k))

    def __len__(self):
        return len(self.projections)

    def __iter__(self):
        return zip(self.points, self.projections)


def extreme_point_cloud(
    optuple, directions=sampling.DEFAULT_DIRECTIONS, cluster_tol=None, eig_eq_tol=None
):
    """Sample extreme points ``psi(p_minus), psi(p_plus)`` over directions.

    For every sampled direction part ``t`` the cut level sweeps all
    eigenvalue clusters of ``b_t`` and the gap midpoints, so every
    distinct interval projection for that ``t`` is reached.  Points are
    deduplicated; a pair merges only when both the coordinates and the
    projections agree.
    """
    cloud = ExtremePointCloud(optuple.n)
    for frame in sweep_frames(optuple, directions, cluster_tol, eig_eq_tol):
        cloud.add_frame(frame)
    return cloud


def _fill(weights, level):
    """Water-filling coefficients of clusters with trace ``weights``, ordered
    from the top along the last axis (a zero weight pads a ragged row).

    Each cluster takes ``clip((level - weight_above) / weight, 0, 1)``: the
    clusters above it are full, and it takes what is left of the budget.
    """
    above = np.zeros_like(weights)
    np.cumsum(weights[..., :-1], axis=-1, out=above[..., 1:])
    share = np.divide(
        level - above, weights, out=np.zeros_like(weights), where=weights > 0
    )
    return np.clip(share, 0.0, 1.0)


def waterfill(optuple, direction, level, cluster_tol=None):
    """Maximizer of ``tr(b_u a)`` over ``0 <= a <= 1`` with ``tr(a) = level``.

    Fills eigenprojections of ``b_u`` from the largest eigenvalue down,
    putting a fractional coefficient on the marginal cluster once the
    trace budget runs out.
    """
    if not 0.0 <= level <= 1.0:
        raise ValueError(f"trace level must be in [0, 1], got {level}")
    b_u = algebra.linear_combination(optuple, direction)
    spectrum = spectral.decompose(optuple.algebra, b_u, cluster_tol=cluster_tol)
    weights = np.diff(spectrum.bounds, axis=0) @ optuple.algebra.weights
    return spectrum.combination(_fill(weights[::-1], level)[::-1])


def _size_classes(optuple):
    """Per distinct block size: the block indices, their trace weights and
    every operator's blocks stacked as ``(n, m_k, d, d)``."""
    dims = np.array(optuple.algebra.dims)
    weights = np.array(optuple.algebra.weights)
    classes = []
    for d in np.unique(dims):
        idx = np.flatnonzero(dims == d)
        ops = np.array([[b.blocks[j] for j in idx] for b in optuple.operators])
        classes.append((idx, weights[idx], ops))
    return classes


def _waterfill_points(optuple, classes, dirs, level, cluster_tol):
    """``psi(waterfill(optuple, u, level))[1:]`` for every row ``u`` of
    ``dirs``, with one stacked ``eigh`` per block size.

    Each column of each ``b_u`` block contributes ``psi`` of its rank-one
    projection (``spectral.column_psi``); columns are clustered per row by
    ``decompose``'s rule, and a row's point is its fill coefficients times
    its cluster sums, so no operator is built.
    """
    rows, n = len(dirs), optuple.n
    norms = np.zeros(rows)
    eigenvalues, per_column = [], []
    for idx, weights, ops in classes:
        b_u = np.einsum("un,nmij->umij", dirs, ops)
        b_u = b_u.conj().swapaxes(-1, -2) + b_u
        b_u /= 2  # (b + b*) / 2, as _raw symmetrizes
        norms = np.maximum(norms, np.abs(b_u).max(axis=(1, 2, 3)))
        w, v = spectral.eigh(b_u, int(idx[0]))
        del b_u  # free the stack before the per-column products
        eigenvalues.append(w.reshape(rows, -1))
        psi_v = spectral.column_psi(v, weights[:, None], ops)
        per_column.append(psi_v.reshape(n + 1, rows, -1))
    eigenvalues = np.concatenate(eigenvalues, axis=1)
    per_column = np.concatenate(per_column, axis=2)  # (n + 1, rows, columns)
    order = np.argsort(eigenvalues, axis=1, kind="stable")
    ordered = np.take_along_axis(eigenvalues, order, axis=1)
    starts, _ = spectral.cluster_starts(ordered, norms[:, None], cluster_tol)
    per_column = np.take_along_axis(per_column, order[None], axis=2)
    sums = np.add.reduceat(per_column.reshape(n + 1, -1), starts, axis=1)
    # cluster sums per row, the top cluster first and zeros after the last
    row = starts // ordered.shape[1]
    count = np.bincount(row, minlength=rows)
    from_top = np.cumsum(count)[row] - 1 - np.arange(len(starts))
    table = np.zeros((n + 1, rows, count.max()))
    table[:, row, from_top] = sums
    takes = _fill(table[0], level)
    return np.einsum("rk,irk->ri", takes, table[1:])


def isotrace_slice(optuple, level, resolution=720, cluster_tol=None):
    """Cross-section of the scale at trace coordinate ``level``.

    Each boundary point is found exactly by the water-filling maximizer
    along one direction in R^n; for ``n = 2`` the angular sweep returns
    the boundary polygon in order, for other ``n`` the result is a point
    sample of the boundary.  All directions are filled together: per
    block size, the ``b_u`` of up to ``SLICE_CHUNK_BYTES`` worth of
    directions are stacked as ``(directions, m_k, d, d)`` and decomposed
    by one ``eigh`` (``_waterfill_points``).  Points repeating an earlier
    one within 1e-12 are dropped.
    """
    if not 0.0 <= level <= 1.0:
        raise ValueError(f"trace level must be in [0, 1], got {level}")
    n = optuple.n
    if n == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif n == 2:
        theta = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    else:
        dirs = sampling.unit_directions(n, resolution)
    classes = _size_classes(optuple)
    # one direction stacks 16 bytes per complex entry of every block
    step = max(1, SLICE_CHUNK_BYTES // (16 * sum(d * d for d in optuple.algebra.dims)))
    points = np.concatenate(
        [
            _waterfill_points(optuple, classes, dirs[k : k + step], level, cluster_tol)
            for k in range(0, len(dirs), step)
        ]
    )
    keep = [0]
    for i in range(1, len(points)):
        if np.all(np.linalg.norm(points[keep] - points[i], axis=1) > 1e-12):
            keep.append(i)
    return IsotraceSlice(level=float(level), points=points[keep])


def _number(x):
    """Every number written out: ``x`` as a float, with ``-0.0`` as ``0.0``."""
    return float(x) + 0.0


def _f17(x):
    return format(_number(x), ".17g")


def export_extremes_csv(cloud, fh):
    """Write the cloud as RFC-4180 CSV: x0..xn, projection id and trace
    (``Σ Tr`` over blocks, the projection's rank)."""
    n_plus_1 = cloud.points.shape[1]
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow([f"x{i}" for i in range(n_plus_1)] + ["proj_id", "proj_trace"])
    for idx, point in enumerate(cloud.points):
        trace = cloud.projections.rank(idx)
        writer.writerow([_f17(x) for x in point] + [idx, _f17(trace)])


def export_hull_obj(optuple, fh, samples=4096, seed=0):
    """Triangulated OBJ mesh of the sampled hull of the scale (n = 2 only)."""
    from . import oracle  # local import; oracle does not import this module

    if optuple.n != 2:
        raise ValueError("OBJ export requires a two-operator tuple (3D scale)")
    points = oracle.sample_unit_ball(optuple, samples, seed=seed)
    hull = oracle.PointCloudHull(points)
    if hull.simplices is None:
        raise ValueError("hull triangulation unavailable for this point cloud")
    # qhull's simplices index the whole sampled cloud; renumber them to
    # the written vertex list (OBJ indices are 1-based)
    position = np.zeros(len(points), dtype=int)
    position[hull.vertex_indices] = np.arange(1, len(hull.vertex_indices) + 1)
    for v in hull.hull_points:
        fh.write("v " + " ".join(_f17(x) for x in v) + "\n")
    for tri in position[hull.simplices]:
        fh.write("f " + " ".join(str(i) for i in tri) + "\n")
