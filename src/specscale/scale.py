"""The spectral scale as a convex body.

Support values and exposed faces come straight from the spectral
calculus: for a pair ``(s, t)`` the hyperplane

    -s x_0 + <t, (x_1..x_n)> = alpha,   alpha = tr((b_t - s) p)

supports the scale from below, touching it exactly on the image of the
order interval ``[p_minus, p_plus]`` of the interval projections of
``b_t`` at ``s``.  Sweeping ``s`` across the spectrum of ``b_t`` for a
direction sample therefore enumerates extreme points and exposed faces
without ever building the body itself.  The sampled directions are
decomposed together, each once (``spectral.direction_frames``), and all
cut levels of a direction are read off its one eigenframe: a level's
interval is a pair of leading cluster counts, its endpoints' ``psi`` are
rows of the frame's ``psi`` table and ``alpha`` is ``<(-s, t), row>``,
computed and checked for all levels of a frame at once, so a sweep
builds no d×d projection.
A face's dimension is that of its cut-down scale, the tuple compressed to
the gap of its interval.  A gap of rank zero is a point and one of rank
one a segment; only for a larger gap is the frame's entry table built
(``SpectralFrame.entries``, the operators rotated into the frame once for
all of its levels), and each gap's Gram matrix and relation residuals are
read off the entries whose row and column clusters lie in the gap
(``interval_dimensions``), with no cut-down algebra built.
``scale_dimension`` of a built ``Compression`` stays the reference it is
tested against.  Extreme clouds keep each projection as a leading range
``(frame, count)`` and build a projection as an operator only when a
caller reads it.  They take the points of all swept frames at once: the
near pairs come from one sort on the coordinate of widest spread
(``_near_pairs``; the trace takes few values), and only a pair within
``POINT_DEDUP_TOL`` compares its two ranges (``spectral.same_range``).

An isotrace slice reads the same batched decomposition as a sweep
(``spectral._chunks``): each boundary point is the water-filling
coefficients of a direction's clusters, from the top, times their summed
``psi``, with no operator built.  Its points are deduplicated on the same
near pairs as a cloud's.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import algebra, sampling, spectral
from .errors import InvariantViolation, ShapeError
from .spectral import OrderInterval, SpectralPair

POINT_DEDUP_TOL = 1e-8
PROJECTION_MATCH_TOL = 1e-6
RELATION_TOL = 1e-8


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
    isomorphism onto it), read off the interval's frame by
    ``interval_dimensions`` without building the cut-down.
    """
    counts = [[k] for k in interval.counts]
    return int(interval_dimensions(optuple, interval.frame, *counts)[0])


def interval_dimensions(optuple, frame, lowers, uppers):
    """``face_dimension`` of the intervals of a ``spectral.SpectralFrame``
    spanning its leading ``lowers[g]`` and ``uppers[g]`` clusters, all at
    once.

    A gap of rank zero is a point, and a rank-one gap cuts down to a
    one-dimensional algebra, whose scale is a segment.  For the larger
    gaps, ``scale_dimension(Compression(optuple, gap).tuple).dimension``
    is computed with no cut-down built, from the frame's entry table
    (``SpectralFrame.entries``).  Gap ``g``'s cut-down is the entries with
    ``lowers[g] <= lo`` and ``hi < uppers[g]``, over the trace ``c_j / T_g``
    with ``T_g = tr(gap)``.  Its diagonal is centred by the cut-down's own
    traces before any product is formed, so no Gram entry is a difference
    of large raw products; the Gram matrices, their eigenvectors and the
    max-abs residual of each as a relation are then batched reductions
    over the gaps' entries.
    """
    lowers, uppers = np.asarray(lowers, dtype=int), np.asarray(uppers, dtype=int)
    ranks = (frame.bounds[uppers] - frame.bounds[lowers]).sum(axis=1)
    dims = np.minimum(ranks, 1)
    wide = np.flatnonzero(ranks > 1)
    if not wide.size:
        return dims
    table = frame.entries(optuple)
    # (gap, entry) pairs, sorted by gap; every gap holds entries
    gap, entry = np.nonzero(
        (lowers[wide, None] <= table.lo) & (table.hi < uppers[wide, None])
    )
    starts = np.searchsorted(gap, np.arange(len(wide)))
    x, w = table.values[:, entry], table.weight[entry]
    on_diag = table.row[entry] == table.col[entry]
    trace_r = np.add.reduceat(np.where(on_diag, w, 0.0), starts)
    if np.any(trace_r <= 1e-10):
        raise ShapeError("projection has (numerically) zero trace")
    w = w / trace_r[gap]
    traces = np.add.reduceat(np.where(on_diag, w * x.real, 0.0), starts, axis=1)
    x[:, on_diag] -= traces[:, gap[on_diag]]
    products = np.einsum("ip,jp->pij", x.conj() * w, x).real
    _, vectors = np.linalg.eigh(np.add.reduceat(products, starts))
    residual = np.abs(np.einsum("ip,pik->pk", x, vectors[gap]))
    relations = np.maximum.reduceat(residual, starts) <= RELATION_TOL
    dims[wide] = optuple.n + 1 - relations.sum(axis=1)
    return dims


def _face_in_frame(frame, pair, lower, upper, alpha, dimension):
    """The exposed face of ``pair`` at a level of ``frame`` whose interval
    spans the leading ``lower`` and ``upper`` clusters, with support value
    ``alpha`` and affine dimension ``dimension``."""
    return ExposedFace(
        hyperplane=SupportHyperplane(pair=pair, alpha=alpha),
        interval=OrderInterval._from_frame(frame.spectrum, lower, upper),
        vertices=frame.psi_table[[lower, upper]],
        dimension=dimension,
    )


def exposed_face(optuple, pair, cluster_tol=None, eig_eq_tol=None):
    """The face cut out by the supporting hyperplane of ``(s, t)``.

    The face is the image of the order interval of the interval
    projections; it is a single exposed point exactly when the two
    projections coincide.
    """
    frame = spectral.direction_frame(optuple, pair.t, cluster_tol, eig_eq_tol)
    return exposed_in_frame(frame, pair)


def exposed_in_frame(frame, pair):
    """``exposed_face`` of ``pair`` read off ``frame``, the decomposed
    direction (a ``spectral.DirectionFrame``) of ``pair.t``."""
    lower, upper = spectral.cut_clusters(frame.spectrum, pair.s, frame.eff_tol)
    alpha = float(_support_in_frame(frame, pair.s, lower, upper))
    (dimension,) = interval_dimensions(frame.optuple, frame.spectrum, [lower], [upper])
    return _face_in_frame(frame, pair, lower, upper, alpha, int(dimension))


def sweep_frames(
    optuple, directions=sampling.DEFAULT_DIRECTIONS, cluster_tol=None, eig_eq_tol=None
):
    """One ``spectral.DirectionFrame`` per distinct direction part of a
    sphere sample (as for ``extreme_point_cloud``), decomposed together."""
    return spectral.direction_frames(
        optuple, _cloud_t_directions(optuple.n, directions), cluster_tol, eig_eq_tol
    )


def level_supports(frame):
    """The support values and face dimensions of every sweep level of one
    decomposed direction, computed (and the values checked) together, in
    one pass over the frame."""
    lowers, uppers = frame.cuts
    alphas = _support_in_frame(frame, frame.levels, lowers, uppers)
    dims = interval_dimensions(frame.optuple, frame.spectrum, lowers, uppers)
    return alphas, dims


def faces_in_frame(frame):
    """Exposed faces of every sweep level of one decomposed direction.

    The levels share ``t``, checked once, and read their support values
    and dimensions off ``level_supports``.
    """
    t = SpectralPair(s=0.0, t=frame.t).t
    alphas, dims = level_supports(frame)
    for s, lower, upper, alpha, dim in zip(
        frame.levels.tolist(), *frame.cuts, alphas.tolist(), dims.tolist()
    ):
        pair = SpectralPair._at_level(s, t)
        yield _face_in_frame(frame, pair, lower, upper, alpha, dim)


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

    Relations ``b_t = s 1`` are the eigenvectors of the Gram matrix of the
    trace-centered operators whose ``b_t - s`` has no entry above
    ``RELATION_TOL``; such a ``t`` has a Gram eigenvalue of at most
    ``RELATION_TOL²`` times the largest block size, so only the null space
    passes.  Every relation flattens the scale by one dimension.
    """
    alg = optuple.algebra
    n = optuple.n
    ops = algebra.stacked(optuple.operators)
    traces = alg._sum(np.einsum("imaa->mi", x).real for x in ops)
    centered = [x - traces[:, None, None, None] * np.eye(x.shape[-1]) for x in ops]
    gram = alg._sum(np.einsum("imab,jmab->mij", x.conj(), x).real for x in centered)
    _, v = np.linalg.eigh(gram)
    relations = []
    for t in v.T:
        # b_t - s = sum_i t_i (b_i - tr(b_i)), with s = <traces, t>
        residual = (np.einsum("i,imab->mab", t, x) for x in centered)
        if algebra._max_abs(residual) <= RELATION_TOL:
            relations.append((t, float(traces @ t)))
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

    ``add`` takes each projection as a leading range ``(frame, count)`` of
    a ``spectral.SpectralFrame``, and ``projections[i]`` builds it as an
    operator only when read.  A point merges into the first earlier point
    whose coordinates agree within ``POINT_DEDUP_TOL`` and whose
    projection agrees within ``PROJECTION_MATCH_TOL``.  ``add_frames``
    adds the points of many sweep frames at once, by the same rule.
    """

    def __init__(self, n):
        self.points = np.empty((0, n + 1))
        self.projections = _LeadingRanges()

    def add(self, point, projection):
        """Add one point with its projection; its id, or the id it merges
        into."""
        return int(self._merge(np.asarray(point, dtype=float)[None], [projection])[0])

    def add_frames(self, frames):
        """Add ``psi(p_minus)`` and ``psi(p_plus)`` of every sweep level of
        every ``spectral.DirectionFrame`` in ``frames``, in order, as
        ``add`` would one by one; returns the id of each.

        A repeated count of one frame is the same projection, kept or
        merged, so each frame offers every count once, at its first level.
        """
        points, sources = [self.points[:0]], []
        for frame in frames:
            counts = list(dict.fromkeys(np.stack(frame.cuts, axis=1).ravel().tolist()))
            points.append(frame.psi_table[counts])
            sources += [(frame.spectrum, k) for k in counts]
        return self._merge(np.concatenate(points), sources)

    def _merge(self, points, sources):
        """Add candidate ``points`` with their projections ``sources`` in
        order: each merges into the first earlier kept point (one already
        held or an earlier candidate) within ``POINT_DEDUP_TOL``
        (``_near_pairs``) whose projection matches, and is kept otherwise.
        Returns each candidate's id."""
        held = len(self.points)
        every = np.concatenate([self.points, points])
        i, j = _near_pairs(every, POINT_DEDUP_TOL, start=held)
        j = j[np.lexsort((j, i))].tolist()  # each point's near points in order
        starts = np.searchsorted(i, np.arange(held, len(every) + 1)).tolist()
        kept = self.projections.sources
        ids = list(range(held)) + [None] * len(points)  # None: merged
        out = []
        news = zip(range(held, len(every)), sources, starts, starts[1:])
        for x, source, a, b in news:
            match = next(
                (
                    ids[y]
                    for y in j[a:b]
                    if ids[y] is not None
                    and spectral.same_range(kept[ids[y]], source, PROJECTION_MATCH_TOL)
                ),
                None,
            )
            if match is None:
                match = ids[x] = len(kept)
                kept.append(source)
            out.append(match)
        self.points = every[[True] * held + [x is not None for x in ids[held:]]]
        return np.array(out, dtype=int)

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
    projections agree.  All directions are decomposed together and their
    points merged in one pass (``ExtremePointCloud.add_frames``).
    """
    cloud = ExtremePointCloud(optuple.n)
    cloud.add_frames(sweep_frames(optuple, directions, cluster_tol, eig_eq_tol))
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


def isotrace_slice(optuple, level, resolution=720, cluster_tol=None):
    """Cross-section of the scale at trace coordinate ``level``.

    Each boundary point is found exactly by the water-filling maximizer
    along one direction ``u`` in R^n; for ``n = 2`` the angular sweep
    returns the boundary polygon in order, for other ``n`` the result is a
    point sample of the boundary.  All directions are decomposed together,
    as a sweep's are (``spectral._chunks``), and each point is the fill
    coefficients of ``b_u``'s clusters, from the top, times their summed
    ``psi``, so no operator is built.  A direction that negates an earlier
    one shares its decomposition: the two directions ``+1`` and ``-1`` for
    ``n = 1``, the coordinate axes of the sample for ``n >= 3``, and for
    ``n = 2`` at an even ``resolution`` every angle past pi, which is built
    as the exact negation of the angle pi before it.  An odd resolution
    shares nothing.  Points repeating an earlier one within 1e-12 are
    dropped.
    """
    if not 0.0 <= level <= 1.0:
        raise ValueError(f"trace level must be in [0, 1], got {level}")
    n = optuple.n
    if n == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif n == 2:
        theta = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
        if resolution % 2 == 0:  # the angles past pi, as exact negations
            dirs[resolution // 2 :] = -dirs[: resolution // 2]
    else:
        dirs = sampling.unit_directions(n, resolution)
    points = np.empty((len(dirs), n))
    for rows, spectra in spectral._chunks(optuple, dirs, cluster_tol):
        sizes = spectra.sizes
        # cluster sums per row, the top cluster first and zeros after the last
        owner = np.repeat(np.arange(len(sizes)), sizes)
        from_top = np.cumsum(sizes)[owner] - 1 - np.arange(len(owner))
        table = np.zeros((n + 1, len(sizes), sizes.max()))
        table[:, owner, from_top] = spectra.sums
        points[rows] = np.einsum("rk,irk->ri", _fill(table[0], level), table[1:])
        del spectra  # free its eigenvectors before the next chunk is solved
    return IsotraceSlice(level=float(level), points=_keep_first(points, 1e-12))


def _near_pairs(points, tol, start=0):
    """Every pair ``(i, j)``, ``start <= i`` and ``j < i``, of rows of
    ``points`` within ``tol`` of each other, in ascending ``i``.

    Only rows whose coordinates on any one axis lie within ``2 tol`` of
    each other can be that close (the factor 2 absorbs rounding in the
    window), so the rows are sorted on the axis of widest spread, where
    windows hold fewest rows (the trace takes few values), and each is
    compared only with its window there, the windows of many rows at once:
    as many as hold ``spectral.STACK_CHUNK_BYTES`` of row indices.  The
    distance is ``np.linalg.norm`` of the difference, bit for bit.
    """
    columns = points.T.copy()  # one contiguous row per coordinate
    spread = columns.max(axis=1, initial=-np.inf) - columns.min(axis=1, initial=np.inf)
    key = columns[int(np.argmax(spread))]
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    lo = np.searchsorted(ranked, key - 2 * tol, side="left")
    sizes = np.searchsorted(ranked, key + 2 * tol, side="right") - lo
    ends = np.cumsum(sizes)
    step = spectral.STACK_CHUNK_BYTES // 8
    found = [(np.empty(0, dtype=int), np.empty(0, dtype=int))]
    while start < len(points):
        done = ends[start] - sizes[start]  # window entries of the rows before
        stop = max(start + 1, int(np.searchsorted(ends, done + step, side="right")))
        rows = np.arange(start, stop)
        i = np.repeat(rows, sizes[rows])
        shift = lo[rows] - ends[rows] + sizes[rows] + done
        j = order[np.arange(len(i)) + np.repeat(shift, sizes[rows])]
        i, j = i[j < i], j[j < i]
        near = np.linalg.norm(points[j] - points[i], axis=1) <= tol
        found.append((i[near], j[near]))
        start = stop
    return tuple(np.concatenate(x) for x in zip(*found))


def _keep_first(points, tol):
    """``points`` without each one within ``tol`` of an earlier kept point.

    A repeat of an earlier point is dropped first: it is within ``tol`` of
    whichever kept point that one is or merged into.  Of the rest, a point
    with no earlier point within ``tol`` (``_near_pairs``) is kept, and the
    others are decided in rounds: a point is dropped once an earlier point
    near it is kept, and kept once all of those are dropped.  Each round
    decides at least the first point left open.
    """
    order = np.lexsort(points.T[::-1])  # equal rows adjacent, earliest first
    repeat = np.zeros(len(points), dtype=bool)
    repeat[1:] = np.all(points[order[1:]] == points[order[:-1]], axis=1)
    points = points[np.sort(order[~repeat])]
    i, j = _near_pairs(points, tol)
    kept = np.ones(len(points), dtype=bool)
    kept[i] = False
    open_ = ~kept  # not yet decided
    while open_.any():
        dropped = np.zeros_like(open_)
        dropped[i[kept[j]]] = True
        waiting = dropped.copy()
        waiting[i[open_[j]]] = True
        kept |= open_ & ~waiting
        open_ &= waiting & ~dropped
    return points[kept]
