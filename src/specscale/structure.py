"""From geometry back to operator algebra.

A face supported by hyperplanes whose direction parts span R^n forces
its endpoint projections to commute with every operator of the tuple,
i.e. to be central in the generated algebra.  Two supporting levels
along one direction signal a spectral gap.  Both are read off a cone's
groups (``faces.ConeGroup``, one per tested direction): one rank test
per group, and a gap checked on the frame its group was tested on.
Isolated extreme points are images of central projections, and a finite
extreme point set is equivalent to the generated algebra being abelian
and finite dimensional.  Every geometric detection here is re-verified
with commutators; geometry is never trusted alone.

Every projection checked, a face's endpoint or a cloud point's, is a
leading column range ``(frame, count)`` of a frame the pass already
holds.  Its commutators with the tuple are read off that frame's
commutator table (``SpectralFrame.commutator_norms``), computed once per
distinct frame for all the ranges read, and its trace off the frame's
column counts, so no d×d projection is built.  A mirror frame's table is
its partner's reversed, since ``[b_i, 1 - q] = -[b_i, q]``, and a face
that is ``Ψ(1)`` minus another checked face takes that face's normals
(negated), rank and dimension.  ``center`` hands one dict of tables from
its face check to its isolated-point check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import sampling, scale, spectral
from .algebra import commutator_norm, generated_algebra_basis
from .errors import InvariantViolation
from .faces import _require_proper

CENTRAL_TOL = 1e-6
ABELIAN_COMMUTATOR_TOL = 1e-8
ISO_RADIUS_FACTOR = 1e-3
SAMPLING_INCOMPLETE = "sampling-incomplete"


@dataclass(frozen=True)
class CentralityReport:
    interval: spectral.OrderInterval
    independent_normals: tuple  # spectral pairs with independent t parts
    rank: int
    central: bool
    commutator_norm: float
    tau_lower: float
    tau_upper: float


@dataclass(frozen=True)
class GapReport:
    t: np.ndarray
    s1: float
    s2: float
    interval: spectral.OrderInterval


@dataclass(frozen=True)
class IsolatedPointReport:
    """An isolated cloud point, its projection as a leading range
    ``source = (frame, count)`` and whether that projection is central;
    ``projection`` builds it as an operator when read."""

    point: np.ndarray
    source: tuple
    is_central: bool

    @cached_property
    def projection(self):
        frame, count = self.source
        return frame.projection(0, count)


@dataclass(frozen=True)
class AbelianVerdict:
    geometric: bool
    algebraic: bool
    extreme_count: object  # int, or "sampling-incomplete"
    n_dim: int
    cloud_counts: tuple
    max_commutator: float


def _commutator_norms(optuple, ranges, tables=None):
    """``max_i max|[b_i, q]|`` of every leading range ``q``, given as
    ``(frame, count)``, read off one commutator table per distinct frame
    (``_commutator_table``), kept in ``tables`` when given."""
    tables = {} if tables is None else tables
    out = np.zeros(len(ranges))
    for frame, which in spectral._by_frame([frame for frame, _ in ranges]):
        table = _commutator_table(optuple, frame, tables)
        out[which] = table[[ranges[r][1] for r in which]]
    return out


def _commutator_table(optuple, frame, tables):
    """``frame.commutator_norms(optuple)``, computed once per frame and kept
    in the dict ``tables`` (with the frame, so its id stays its own).  A
    mirror frame's (``SpectralFrame.mirror_of``) is its partner's reversed:
    its leading ``k`` clusters span ``1 - q`` for the partner's leading
    ``K - k``, and ``[b_i, 1 - q] = -[b_i, q]``."""
    key = id(frame)
    if key not in tables:
        partner = frame.mirror_of
        if partner is None:
            table = frame.commutator_norms(optuple)
        else:
            table = _commutator_table(optuple, partner, tables)[::-1]
        tables[key] = frame, table
    return tables[key][1]


def detect_central(optuple, interval, cone):
    """Report central endpoint projections found via independent normals:
    ``detect_centrals`` of one face."""
    (report,) = detect_centrals(optuple, [interval], [cone])
    return report


def detect_centrals(optuple, intervals, cones, tables=None):
    """Per face ``intervals[f]`` with its cone sample ``cones[f]``, report
    central endpoint projections found via independent normals.

    When the cone sample contains ``n`` members with linearly independent
    direction parts, both endpoints must be central; the commutators are
    measured and enforced rather than assumed.  Fewer independent
    directions produce a report with ``central=False``, which only means
    the geometric evidence is insufficient.  The members of one group
    share their direction part, so each group offers its first member.
    Every endpoint is a leading range of its interval's frame, so its
    commutators and trace are read off that frame: one commutator table
    (``SpectralFrame.commutator_norms``) per distinct frame, the traces
    from its column counts, and the dimensions of the central faces from
    one ``scale.interval_dimensions`` per frame.  The tables are kept in
    ``tables``, a dict, when given, for a later check on the same frames.
    A face that mirrors another of ``intervals`` (``spectral._mirrored``),
    ``Ψ(1) - F`` of a face ``F``, takes ``F``'s normals negated, its rank
    and its dimension, and reads the commutator table of its frame, ``F``'s
    reversed (``_commutator_table``).  The faces are checked in order, so
    the first that fails raises.
    """
    for interval in intervals:
        _require_proper(optuple, interval)
    n = optuple.n
    partners = spectral._mirrored(intervals).tolist()
    normals = [None] * len(intervals)
    for f, (cone, p) in enumerate(zip(cones, partners)):
        if p >= 0:
            continue
        chosen = []
        t_stack = np.empty((0, n))
        for group in cone.groups:
            cand = np.vstack([t_stack, group.t])
            if np.linalg.matrix_rank(cand, tol=1e-8) > len(chosen):
                s = float(group.levels[0])
                chosen.append(spectral.SpectralPair._at_level(s, group.t))
                t_stack = cand
            if len(chosen) == n:
                break
        normals[f] = tuple(chosen)
    for f, p in enumerate(partners):
        if p >= 0:
            normals[f] = tuple(
                spectral.SpectralPair(s=-pair.s, t=-pair.t) for pair in normals[p]
            )
    ends = [end for interval in intervals for end in interval.ends]
    measured = _commutator_norms(optuple, ends, tables).reshape(-1, 2).max(axis=1)
    measured = measured.tolist()
    central = [len(chosen) == n for chosen in normals]
    dimensions = np.zeros(len(intervals), dtype=int)
    for frame, which in spectral._by_frame([iv.frame for iv in intervals]):
        which = [f for f in which if central[f] and partners[f] < 0]
        if which:
            counts = np.array([intervals[f].counts for f in which])
            dimensions[which] = scale.interval_dimensions(optuple, frame, *counts.T)
    mirrors = [f for f, p in enumerate(partners) if p >= 0]
    dimensions[mirrors] = dimensions[[partners[f] for f in mirrors]]
    weights = optuple.algebra.weights
    reports = []
    faces = zip(intervals, normals, measured, central, dimensions.tolist())
    for interval, chosen, norm, is_central, dimension in faces:
        if is_central:
            if norm > CENTRAL_TOL:
                raise InvariantViolation(
                    f"independent normals found but commutator norm is {norm:.3e}"
                )
            if dimension > 1:
                raise InvariantViolation(
                    "a face with full-rank normals must be a point or a segment"
                )
        traces = interval.frame.bounds[list(interval.counts)] @ weights
        tau_lower, tau_upper = traces.tolist()
        reports.append(
            CentralityReport(
                interval=interval,
                independent_normals=chosen,
                rank=len(chosen),
                central=is_central,
                commutator_norm=norm,
                tau_lower=tau_lower,
                tau_upper=tau_upper,
            )
        )
    return reports


def detect_gap(optuple, interval, cone):
    """Spectral gaps read off cone members sharing a direction part.

    A group of the cone (one tested ``t``) whose cut levels spread beyond
    the eigenvalue-equality band of its frame witnesses a gap ``(s1, s2)``
    in the spectrum of ``b_t``, and the face must be a single exposed
    point.  Both facts are verified, on the frame the group was tested on,
    before reporting.
    """
    _require_proper(optuple, interval)
    reports = []
    for group in cone.groups:
        s1, s2 = float(group.levels.min()), float(group.levels.max())
        # the spread's endpoints may themselves be eigenvalues; only the
        # interior beyond the equality band must be spectrum-free
        band = group.frame.eff_tol
        if s2 - s1 <= 2 * band:
            continue
        values = group.frame.spectrum.values
        if np.any((values > s1 + band) & (values < s2 - band)):
            raise InvariantViolation(
                f"support levels spread over ({s1}, {s2}) but the spectrum "
                "of b_t meets that interval"
            )
        if not interval.is_point():
            raise InvariantViolation(
                "a face supported across a spectral gap must be a point"
            )
        reports.append(GapReport(t=group.t, s1=s1, s2=s2, interval=interval))
    return reports


def isolated_extremes_to_center(optuple, cloud, iso_radius=None, tables=None):
    """Isolated cloud points with the centrality of their projections.

    A point is isolated when no other cloud point lies within
    ``iso_radius`` (default: 1e-3 of the cloud diameter): it is in no near
    pair (``scale._near_pairs``).  Centrality is checked algebraically
    for the isolated points only, each projection a leading range of a
    frame whose commutator table (``SpectralFrame.commutator_norms``) is
    computed once, or read off ``tables``, a dict that an earlier check on
    the same frames filled (``detect_centrals``); no projection is built.
    """
    points = cloud.points
    if iso_radius is None:
        # row by row: an N x N x (n+1) difference array outgrows memory
        rows = (np.sqrt(((points - p) ** 2).sum(axis=1)).max() for p in points)
        diam = float(max(rows, default=0.0))
        iso_radius = ISO_RADIUS_FACTOR * max(diam, 1e-12)
    near = np.zeros(len(points), dtype=bool)
    for ends in scale._near_pairs(points, iso_radius):
        near[ends] = True
    isolated = np.flatnonzero(~near).tolist()
    sources = [cloud.projections.sources[idx] for idx in isolated]
    central = (_commutator_norms(optuple, sources, tables) <= CENTRAL_TOL).tolist()
    return [
        IsolatedPointReport(point=points[idx], source=source, is_central=is_central)
        for idx, source, is_central in zip(isolated, sources, central)
    ]


def abelian_verdict(
    optuple, directions=sampling.DEFAULT_DIRECTIONS, cluster_tol=None, eig_eq_tol=None
):
    """Decide abelian-ness geometrically and algebraically.

    Geometric side: the extreme point cloud is sampled at two direction
    densities; a finite scale must stabilize, with every projection
    central and the count within the projection count of the generated
    algebra.  Algebraic side: the generators must pairwise commute.  The
    counts at ``directions`` and ``2 * directions`` are reported as
    evidence either way; equal counts stabilize only when the denser
    sample adds a direction part, or when ``n = 1``, where ``±1`` are all
    of them.  The sample is extensible, so the denser one starts with the
    sparser one's direction parts: one sweep of the denser sample fills
    one cloud, counted once after those parts and once at the end, each
    direction decomposed once.  The clouds cluster with ``cluster_tol``
    and ``eig_eq_tol``, as in ``scale.extreme_point_cloud``.
    """
    ts = scale._cloud_t_directions(optuple.n, 2 * directions)
    first = len(scale._cloud_t_directions(optuple.n, directions))
    frames = spectral.direction_frames(optuple, ts, cluster_tol, eig_eq_tol)
    cloud = scale.ExtremePointCloud(optuple.n)
    counts = []
    for part in (frames[:first], frames[first:]):
        cloud.add_frames(part)
        counts.append(len(cloud))
    basis = generated_algebra_basis(optuple)
    n_dim = len(basis)
    grew = len(ts) > first or optuple.n == 1
    stabilized = grew and counts[0] == counts[1]
    sources = cloud.projections.sources
    all_central = bool(np.all(_commutator_norms(optuple, sources) <= CENTRAL_TOL))
    geometric = stabilized and all_central and counts[1] <= 2**n_dim
    max_comm = 0.0
    ops = optuple.operators
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            max_comm = max(max_comm, commutator_norm(ops[i], ops[j]))
    algebraic = max_comm <= ABELIAN_COMMUTATOR_TOL
    extreme_count = counts[1] if stabilized else SAMPLING_INCOMPLETE
    return AbelianVerdict(
        geometric=geometric,
        algebraic=algebraic,
        extreme_count=extreme_count,
        n_dim=n_dim,
        cloud_counts=tuple(counts),
        max_commutator=max_comm,
    )
