"""From geometry back to operator algebra.

A face supported by hyperplanes whose direction parts span R^n forces
its endpoint projections to commute with every operator of the tuple,
i.e. to be central in the generated algebra.  Two supporting levels
along one direction signal a spectral gap.  Isolated extreme points are
images of central projections, and a finite extreme point set is
equivalent to the generated algebra being abelian and finite
dimensional.  Every geometric detection here is re-verified with
commutators; geometry is never trusted alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra, sampling, scale, spectral
from .algebra import commutator_norm, generated_algebra_basis
from .errors import InvariantViolation
from .faces import FaceHandle, _require_proper
from .scale import face_dimension

CENTRAL_TOL = 1e-6
ABELIAN_COMMUTATOR_TOL = 1e-8
ISO_RADIUS_FACTOR = 1e-3
SAMPLING_INCOMPLETE = "sampling-incomplete"


@dataclass(frozen=True)
class CentralityReport:
    face: FaceHandle
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
    face: FaceHandle


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


def detect_central(optuple, face, cone):
    """Report central endpoint projections found via independent normals.

    When the cone sample contains ``n`` members with linearly independent
    direction parts, both endpoints must be central; the commutators are
    measured and enforced rather than assumed.  Fewer independent
    directions produce a report with ``central=False``, which only means
    the geometric evidence is insufficient.
    """
    _require_proper(optuple, face.interval)
    n = optuple.n
    chosen = []
    t_stack = np.empty((0, n))
    for pair in cone.pairs:
        cand = np.vstack([t_stack, pair.t])
        if np.linalg.matrix_rank(cand, tol=1e-8) > len(chosen):
            chosen.append(pair)
            t_stack = cand
        if len(chosen) == n:
            break
    measured = max(
        _max_commutator_with_tuple(optuple, face.interval.lower),
        _max_commutator_with_tuple(optuple, face.interval.upper),
    )
    central = len(chosen) == n
    if central:
        if measured > CENTRAL_TOL:
            raise InvariantViolation(
                f"independent normals found but commutator norm is {measured:.3e}"
            )
        if face_dimension(optuple, face.interval) > 1:
            raise InvariantViolation(
                "a face with full-rank normals must be a point or a segment"
            )
    return CentralityReport(
        face=face,
        independent_normals=tuple(chosen),
        rank=len(chosen),
        central=central,
        commutator_norm=measured,
        tau_lower=optuple.algebra.trace(face.interval.lower),
        tau_upper=optuple.algebra.trace(face.interval.upper),
    )


def detect_gap(optuple, face, cone, eig_eq_tol=None, cluster_tol=None):
    """Spectral gaps read off cone members sharing a direction part.

    Members are grouped by ``t`` (angular tolerance 1e-8); a group whose
    cut levels spread beyond the eigenvalue-equality band witnesses a gap
    ``(s1, s2)`` in the spectrum of ``b_t``, and the face must be a
    single exposed point.  Both facts are verified before reporting.
    """
    _require_proper(optuple, face.interval)
    groups = {}
    for pair in cone.pairs:
        key = tuple(np.round(pair.t, 8))
        groups.setdefault(key, []).append(pair)
    reports = []
    for members in groups.values():
        levels = [p.s for p in members]
        s1, s2 = min(levels), max(levels)
        t = members[0].t
        b_t = algebra.linear_combination(optuple, t)
        # the spread's endpoints may themselves be eigenvalues; only the
        # interior beyond the equality band must be spectrum-free
        band = spectral.equality_band(b_t, eig_eq_tol)
        if s2 - s1 <= 2 * band:
            continue
        if not spectral.eigengap_of(
            optuple.algebra, b_t, s1 + band, s2 - band, cluster_tol
        ):
            raise InvariantViolation(
                f"support levels spread over ({s1}, {s2}) but the spectrum "
                "of b_t meets that interval"
            )
        if not face.interval.is_point():
            raise InvariantViolation(
                "a face supported across a spectral gap must be a point"
            )
        reports.append(GapReport(t=t, s1=s1, s2=s2, face=face))
    return reports


def isolated_extremes_to_center(
    optuple, cloud, iso_radius=None, certified_complete=False
):
    """Isolated cloud points with the centrality of their projections.

    A point is isolated when no other cloud point lies within
    ``iso_radius`` (default: 1e-3 of the cloud diameter).  Centrality is
    checked algebraically per isolated point, so only their projections
    are built.  With ``certified_complete`` the converse is enforced too,
    which measures every point: a central projection imaging to a
    non-isolated cloud point is an inconsistency.
    """
    points = cloud.points
    if iso_radius is None:
        # row by row: an N x N x (n+1) difference array outgrows memory
        rows = (np.sqrt(((points - p) ** 2).sum(axis=1)).max() for p in points)
        diam = float(max(rows, default=0.0))
        iso_radius = ISO_RADIUS_FACTOR * max(diam, 1e-12)
    reports = []
    for idx, point in enumerate(points):
        dist = np.linalg.norm(points - point, axis=1)
        dist[idx] = np.inf
        isolated = bool(np.all(dist > iso_radius))
        if not (isolated or certified_complete):
            continue
        proj = cloud.projections[idx]
        central = _max_commutator_with_tuple(optuple, proj) <= CENTRAL_TOL
        if isolated:
            reports.append(
                IsolatedPointReport(
                    point=point, projection=proj, is_central=central
                )
            )
        elif certified_complete and central:
            raise InvariantViolation(
                "central projection images to a non-isolated extreme point "
                "in a certified-complete cloud"
            )
    return reports


def abelian_verdict(optuple, directions=sampling.DEFAULT_DIRECTIONS):
    """Decide abelian-ness geometrically and algebraically.

    Geometric side: the extreme point cloud is sampled at two direction
    densities; a finite scale must stabilize, with every projection
    central and the count within the projection count of the generated
    algebra.  Algebraic side: the generators must pairwise commute.  The
    counts at ``directions`` and ``2 * directions`` are reported as
    evidence either way.  With ``directions <= 0`` both densities are the
    coordinate axes alone, so one cloud serves as both.
    """
    first = scale.extreme_point_cloud(optuple, directions)
    second = (
        scale.extreme_point_cloud(optuple, 2 * directions) if directions > 0 else first
    )
    counts = (len(first), len(second))
    basis = generated_algebra_basis(optuple)
    n_dim = len(basis)
    stabilized = counts[0] == counts[1]
    all_central = all(
        _max_commutator_with_tuple(optuple, proj) <= CENTRAL_TOL
        for _, proj in second
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
        cloud_counts=counts,
        max_commutator=max_comm,
    )


def report_json(verdict=None, central_reports=None, gap_reports=None):
    """Stable-schema report object for serialization, with a section for
    each argument given."""
    out = {}
    if verdict is not None:
        out["abelian"] = {
            "geometric": verdict.geometric,
            "algebraic": verdict.algebraic,
        }
        out["extreme_count"] = verdict.extreme_count
        out["n_dim"] = verdict.n_dim
        out["cloud_counts"] = list(verdict.cloud_counts)
        out["max_commutator"] = scale._number(verdict.max_commutator)
    if central_reports is not None:
        out["central_projections"] = [
            {
                "tau_lower": scale._number(rep.tau_lower),
                "tau_upper": scale._number(rep.tau_upper),
                "rank": rep.rank,
                "central": rep.central,
                "commutator_norm": scale._number(rep.commutator_norm),
            }
            for rep in central_reports
        ]
    if gap_reports is not None:
        out["gaps"] = [
            {
                "t": [scale._number(x) for x in rep.t],
                "s1": scale._number(rep.s1),
                "s2": scale._number(rep.s2),
            }
            for rep in gap_reports
        ]
    return out
