"""Clustered eigendecomposition and spectral interval projections.

Two tolerances govern everything here.  ``cluster_tol`` merges
numerically split eigenvalues into one cluster; ``eig_eq_tol`` decides
whether a cut level ``s`` counts as an eigenvalue, which is what
separates the closed-interval projection ``p_plus`` (spectrum in
``(-inf, s]``) from the open-interval projection ``p_minus`` (spectrum in
``(-inf, s)``).  Both scale with ``max(1, |a|)``.

``decompose`` keeps its eigenframe: every block's ``eigh`` output and,
per cluster, the range of eigenvector columns it owns.  Clusters take
consecutive columns of every block, so any spectral projection of the
operator is one ``V Vᴴ`` product per block over a column range, and is
built only when asked for.  ``sweep`` yields one decomposed direction at
a time with all its cut levels, so every level of a direction reads the
same frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import algebra, sampling
from .algebra import HermitianOperator, _raw, max_norm
from .errors import NumericalError, ShapeError, ZeroDirectionError

CLUSTER_TOL = 1e-9
EIG_EQ_TOL = 1e-8
PROJECTION_TOL = 1e-8


@dataclass(frozen=True)
class SpectralPair:
    """A cut level ``s`` and a nonzero direction ``t`` in R^n."""

    s: float
    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float).ravel()
        if np.linalg.norm(t) <= 1e-12:
            raise ZeroDirectionError("spectral pair needs a nonzero direction t")
        t.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "s", float(self.s))

    def normal_vector(self):
        """The hyperplane normal ``(-s, t)`` in R^{n+1}."""
        return np.concatenate(([-self.s], self.t))


@dataclass(frozen=True, eq=False)
class SpectralFrame:
    """Blockwise eigenvectors with the cluster boundaries among their columns.

    ``vectors[j]`` is block ``j``'s eigenvector matrix from ``eigh``, its
    columns in ascending eigenvalue order; ``bounds[k, j]`` counts the
    columns of block ``j`` that belong to clusters ``0 .. k-1``.
    """

    vectors: tuple
    bounds: np.ndarray  # (clusters + 1, blocks)

    def columns(self, first, stop):
        """Per block, the eigenvector columns of clusters ``first .. stop-1``."""
        return [
            v[:, lo:hi]
            for v, lo, hi in zip(self.vectors, self.bounds[first], self.bounds[stop])
        ]

    def projection(self, first, stop):
        """Projection onto clusters ``first .. stop-1``: ``V Vᴴ`` per block."""
        return _raw([cols @ cols.conj().T for cols in self.columns(first, stop)])

    def combination(self, coeffs):
        """``sum_k coeffs[k] * P_k`` over the cluster projections ``P_k``."""
        blocks = []
        for j, v in enumerate(self.vectors):
            x = np.repeat(coeffs, np.diff(self.bounds[:, j]))
            blocks.append((v * x) @ v.conj().T)
        return _raw(blocks)


@dataclass(frozen=True, eq=False)
class EigenCluster:
    value: float
    multiplicity: int
    trace_weight: float
    frame: SpectralFrame
    index: int  # position in the ascending cluster list

    @cached_property
    def projection(self):
        return self.frame.projection(self.index, self.index + 1)


@dataclass(frozen=True, eq=False)
class SpectrumInfo:
    """Clustered spectrum of a self-adjoint operator.

    The cluster projections are mutually orthogonal, sum to the identity
    and reconstruct the operator as ``sum(value * projection)``.
    ``values`` ascend strictly.
    """

    clusters: tuple
    values: np.ndarray
    frame: SpectralFrame

    @property
    def projections(self):
        return [c.projection for c in self.clusters]


def _scaled_tol(tol, default, op):
    """``tol`` (``default`` when None) scaled by ``max(1, max_norm(op))``."""
    return (default if tol is None else tol) * max(1.0, max_norm(op))


def decompose(alg, a, cluster_tol=None):
    """Eigendecompose ``a`` blockwise and merge eigenvalues across blocks.

    Eigenvalues of all blocks are sorted together (stably) and chained
    into one cluster while consecutive ones differ by at most the scaled
    cluster tolerance.  The cluster value is the mean of its eigenvalues
    and its trace weight comes from its eigenvector column norms.
    """
    alg.require(a)
    tol = _scaled_tol(cluster_tol, CLUSTER_TOL, a)
    vectors, eigenvalues, weights = [], [], []
    for j, (b, (_, c)) in enumerate(zip(a.blocks, alg.blocks)):
        try:
            w, v = np.linalg.eigh(b)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigensolver failed: {exc}", block=j) from exc
        vectors.append(v)
        eigenvalues.append(w)
        weights.append(c * np.sum(np.abs(v) ** 2, axis=0))
    eigenvalues = np.concatenate(eigenvalues)
    order = np.argsort(eigenvalues, kind="stable")
    ordered = eigenvalues[order]
    # a cluster ends where the step to the next eigenvalue is not <= tol
    starts = np.concatenate(([0], np.flatnonzero(~(np.diff(ordered) <= tol)) + 1))
    stops = np.append(starts[1:], len(ordered))

    # A block's columns leave the stable sort in column order (eigh sorts
    # them ascending), so every cluster owns a consecutive column range of
    # every block: bounds[k, j] counts block j's columns ranked below the
    # start of cluster k.
    rank = np.empty(len(order), dtype=int)
    rank[order] = np.arange(len(order))
    cuts = np.concatenate(([0], stops))
    offsets = np.cumsum((0,) + alg.dims)
    bounds = np.column_stack(
        [np.searchsorted(rank[o:e], cuts) for o, e in zip(offsets, offsets[1:])]
    )
    frame = SpectralFrame(vectors=tuple(vectors), bounds=bounds)
    cluster_weights = np.add.reduceat(np.concatenate(weights)[order], starts)

    clusters = tuple(
        EigenCluster(
            value=float(np.mean(ordered[lo:hi])),
            multiplicity=int(hi - lo),
            trace_weight=float(weight),
            frame=frame,
            index=k,
        )
        for k, (lo, hi, weight) in enumerate(zip(starts, stops, cluster_weights))
    )
    return SpectrumInfo(
        clusters=clusters,
        values=np.array([c.value for c in clusters]),
        frame=frame,
    )


def equality_band(op, eig_eq_tol=None):
    """The scaled band within which a cut level counts as an eigenvalue of ``op``."""
    return _scaled_tol(eig_eq_tol, EIG_EQ_TOL, op)


class DirectionFrame(NamedTuple):
    """One decomposed direction: ``b_t``, its spectrum and equality band."""

    t: np.ndarray
    b_t: HermitianOperator
    info: SpectrumInfo
    eff_tol: float

    @property
    def levels(self):
        """Cut levels reaching every interval projection of ``b_t``."""
        return sampling.eigenvalue_sweep(self.info.values)


def direction_frame(optuple, t, cluster_tol=None, eig_eq_tol=None):
    """Build ``b_t`` and decompose it once."""
    b_t = algebra.linear_combination(optuple, t)
    info = decompose(optuple.algebra, b_t, cluster_tol=cluster_tol)
    return DirectionFrame(t, b_t, info, equality_band(b_t, eig_eq_tol))


def sweep(optuple, directions, cluster_tol=None, eig_eq_tol=None):
    """Yield one ``DirectionFrame`` per direction part ``t``.

    Each direction is decomposed once; its ``levels`` hit every interval
    projection of ``b_t``, all read off the same frame by
    ``interval_from_spectrum``.
    """
    for t in directions:
        yield direction_frame(optuple, t, cluster_tol, eig_eq_tol)


@dataclass(frozen=True)
class OrderInterval:
    """A pair of projections ``lower <= upper`` naming a face candidate."""

    lower: HermitianOperator
    upper: HermitianOperator

    def __post_init__(self):
        if self.lower.dims != self.upper.dims:
            raise ShapeError("interval endpoints live in different algebras")
        for name, p in (("lower", self.lower), ("upper", self.upper)):
            if not is_projection(p):
                raise ShapeError(f"{name} endpoint is not a projection")
        if not projection_leq(self.lower, self.upper):
            raise ShapeError("interval endpoints are not ordered")

    def gap(self):
        """The projection ``upper - lower``."""
        return self.upper - self.lower

    def is_point(self):
        return max_norm(self.upper - self.lower) <= PROJECTION_TOL


def is_projection(p):
    for b in p.blocks:
        if b.size and float(np.max(np.abs(b @ b - b))) > PROJECTION_TOL:
            return False
    return True


def projection_leq(p, q):
    """Projection order ``p <= q``, tested as ``|pq - p| <= PROJECTION_TOL``."""
    return all(
        float(np.max(np.abs(x @ y - x))) <= PROJECTION_TOL if x.size else True
        for x, y in zip(p.blocks, q.blocks)
    )


def cut_clusters(info, s, eff_tol):
    """How many leading clusters ``p_minus`` and ``p_plus`` span at level ``s``:
    those below ``s``, and those at most ``s``, within the equality band."""
    lower = int(np.count_nonzero(info.values < s - eff_tol))
    return lower, int(np.count_nonzero(info.values <= s + eff_tol))


def interval_from_spectrum(alg, info, s, eff_tol):
    """Interval projections for a cut level, from a clustered spectrum.

    ``eff_tol`` is the already-scaled equality band deciding whether a
    cluster sitting at ``s`` belongs to the closed-interval projection.
    Both endpoints are spans of leading clusters, so each is one ``V Vᴴ``
    product per block over a leading column range of ``info``'s frame.
    """
    if len(info.frame.vectors) != len(alg.dims):
        raise ShapeError("spectrum was decomposed in a different algebra")
    lower, upper = cut_clusters(info, s, eff_tol)
    p_plus = info.frame.projection(0, upper)
    p_minus = p_plus if lower == upper else info.frame.projection(0, lower)
    return OrderInterval(p_minus, p_plus)


def interval_projections_of(alg, b_op, s, cluster_tol=None, eig_eq_tol=None):
    """Interval projections of a single self-adjoint operator at level s."""
    info = decompose(alg, b_op, cluster_tol=cluster_tol)
    return interval_from_spectrum(alg, info, s, equality_band(b_op, eig_eq_tol))


def interval_projections(optuple, pair, cluster_tol=None, eig_eq_tol=None):
    """The projections ``(p_minus, p_plus)`` of ``b_t`` at level ``s``.

    ``p_plus`` collects eigenclusters with value ``<= s`` (within the
    equality band), ``p_minus`` those strictly below.  When no cluster
    sits in the band the two coincide.
    """
    b_t = algebra.linear_combination(optuple, pair.t)
    return interval_projections_of(
        optuple.algebra, b_t, pair.s, cluster_tol=cluster_tol, eig_eq_tol=eig_eq_tol
    )


def eigengap_of(alg, a, s1, s2, cluster_tol=None):
    """True when no clustered eigenvalue of ``a`` lies in ``(s1, s2)``."""
    if not s1 < s2:
        raise ValueError(f"need s1 < s2, got {s1} >= {s2}")
    values = decompose(alg, a, cluster_tol=cluster_tol).values
    return not np.any((values > s1) & (values < s2))
