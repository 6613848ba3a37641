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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra, sampling, scale, spectral
from .algebra import commutator_norm, generated_algebra_basis
from .errors import InvariantViolation
from .faces import _require_proper
from .scale import face_dimension

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
    point: np.ndarray
    projection: algebra.HermitianOperator
    is_central: bool


@dataclass(frozen=True)
class AbelianVerdict:
    geometric: bool
    algebraic: bool
    extreme_count: object  # int, or "sampling-incomplete"
    n_dim: int
    cloud_counts: tuple
    max_commutator: float


def _max_commutator_with_tuple(optuple, p):
    return max(commutator_norm(b, p) for b in optuple.operators)


def detect_central(optuple, interval, cone):
    """Report central endpoint projections found via independent normals.

    When the cone sample contains ``n`` members with linearly independent
    direction parts, both endpoints must be central; the commutators are
    measured and enforced rather than assumed.  Fewer independent
    directions produce a report with ``central=False``, which only means
    the geometric evidence is insufficient.  The members of one group
    share their direction part, so each group offers its first member.
    """
    _require_proper(optuple, interval)
    n = optuple.n
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
    measured = max(
        _max_commutator_with_tuple(optuple, interval.lower),
        _max_commutator_with_tuple(optuple, interval.upper),
    )
    central = len(chosen) == n
    if central:
        if measured > CENTRAL_TOL:
            raise InvariantViolation(
                f"independent normals found but commutator norm is {measured:.3e}"
            )
        if face_dimension(optuple, interval) > 1:
            raise InvariantViolation(
                "a face with full-rank normals must be a point or a segment"
            )
    return CentralityReport(
        interval=interval,
        independent_normals=tuple(chosen),
        rank=len(chosen),
        central=central,
        commutator_norm=measured,
        tau_lower=optuple.algebra.trace(interval.lower),
        tau_upper=optuple.algebra.trace(interval.upper),
    )


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


def isolated_extremes_to_center(optuple, cloud, iso_radius=None):
    """Isolated cloud points with the centrality of their projections.

    A point is isolated when no other cloud point lies within
    ``iso_radius`` (default: 1e-3 of the cloud diameter): it is in no near
    pair (``scale._near_pairs``).  Centrality is checked algebraically per
    isolated point, so only their projections are built.
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
    reports = []
    for idx in np.flatnonzero(~near).tolist():
        proj = cloud.projections[idx]
        central = _max_commutator_with_tuple(optuple, proj) <= CENTRAL_TOL
        reports.append(
            IsolatedPointReport(point=points[idx], projection=proj, is_central=central)
        )
    return reports


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
    all_central = all(
        _max_commutator_with_tuple(optuple, proj) <= CENTRAL_TOL
        for _, proj in cloud
    )
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
