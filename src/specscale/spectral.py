"""Clustered eigendecomposition and spectral interval projections.

Two tolerances govern everything here.  ``cluster_tol`` merges
numerically split eigenvalues into one cluster; ``eig_eq_tol`` decides
whether a cut level ``s`` counts as an eigenvalue, which is what
separates the closed-interval projection ``p_plus`` (spectrum in
``(-inf, s]``) from the open-interval projection ``p_minus`` (spectrum in
``(-inf, s)``).  Both scale with ``max(1, |a|)``.  ``cluster_starts`` is
the one clustering rule: ``decompose`` applies it to one operator, and
the isotrace slice to a stack of operators, one row each.

``decompose`` returns its eigenframe, one ``SpectralFrame``: every
block's ``eigh`` output and, per cluster, its value and the range of
eigenvector columns it owns; a cluster's trace is those column counts
times the block weights, with no pass over the columns.  Clusters take
consecutive columns of every block, so a spectral projection onto the
leading ``k`` clusters is a leading column range of every block, named by
the count ``k`` alone.  ``sweep`` yields one decomposed direction at a
time with all its cut levels as such counts, and everything a sweep
reads off a level comes from the frame without a d×d matrix: ``psi`` and
the trace of an endpoint are rows of a cumulative table, the support
value is a dot product with a row, and the order test against a fixed
interval is a prefix (or suffix) maximum of column norms.  Every
``OrderInterval`` is a frame with two leading counts (an interval from
outside is framed by the eigenvectors of ``lower + upper``), so the bases
of ``lower``, of the gap and of ``1 - upper`` are column ranges, and two
ranges compare ranks before any ``V Vᴴ`` is built (``same_range``).  A
frame checks once that its columns are orthonormal, which makes every
leading range a projection and the ranges nested.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    @classmethod
    def _at_level(cls, s, t):
        """The pair of level ``s`` (a float) on a direction ``t`` that a
        checked pair already holds, with no check and no copy."""
        pair = object.__new__(cls)
        object.__setattr__(pair, "s", s)
        object.__setattr__(pair, "t", t)
        return pair

    def normal_vector(self):
        """The hyperplane normal ``(-s, t)`` in R^{n+1}."""
        return np.concatenate(([-self.s], self.t))


@dataclass(frozen=True, eq=False)
class SpectralFrame:
    """Blockwise eigenvectors with the cluster boundaries among their columns.

    ``vectors[j]`` is block ``j``'s eigenvector matrix from ``eigh``, its
    columns in cluster order (ascending eigenvalues for ``decompose``);
    ``bounds[k, j]`` counts the columns of block ``j`` that belong to
    clusters ``0 .. k-1``, and the last row counts them all; ``values[k]``
    is the eigenvalue cluster ``k``'s columns share.  Multiplicities and
    traces are column counts: ``np.diff(bounds.sum(axis=1))`` and
    ``np.diff(bounds, axis=0) @ alg.weights``.
    """

    vectors: tuple
    bounds: np.ndarray  # (clusters + 1, blocks)
    values: np.ndarray  # (clusters,)

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

    @cached_property
    def deviation(self):
        """Per block, ``max|VᴴV - I|``: how far the columns are from orthonormal."""
        return np.array(
            [np.abs(v.conj().T @ v - np.eye(v.shape[1])).max() for v in self.vectors]
        )

    def require_orthonormal(self):
        """Raise unless every block's ``max|VᴴV - I| <= PROJECTION_TOL``.

        Then every leading column range spans a projection and the ranges
        are nested, which is what frame-backed intervals do not re-check.
        """
        j = int(np.argmax(self.deviation))  # the worst block
        if self.deviation[j] > PROJECTION_TOL:
            raise NumericalError(
                f"eigenvectors deviate from orthonormal by {self.deviation[j]:.3e}",
                block=j,
            )

    def order_margins(self, q_minus, q_plus):
        """How far each leading range ``p_k`` is from ``p_k <= q_minus`` and
        from ``q_plus <= p_k``, per cluster count ``k``.

        ``below[k]`` is the largest ``|(1 - q_minus) v|`` over the columns
        ``v`` of the first ``k`` clusters (a prefix maximum), ``above[k]``
        the largest ``|q_plus v|`` over the other columns (a suffix
        maximum); each order holds exactly when its margin is zero.
        """
        self.require_orthonormal()
        below, above = [], []
        for v, qm, qp, ends in zip(
            self.vectors, q_minus.blocks, q_plus.blocks, self.bounds.T
        ):
            outside = np.linalg.norm(v - qm @ v, axis=0)
            inside = np.linalg.norm(qp @ v, axis=0)
            prefix = np.maximum.accumulate(np.concatenate(([0.0], outside)))
            suffix = np.maximum.accumulate(np.concatenate((inside, [0.0]))[::-1])
            below.append(prefix[ends])
            above.append(suffix[::-1][ends])
        return np.max(below, axis=0), np.max(above, axis=0)


def _scaled_tol(tol, default, norm):
    """``tol`` (``default`` when None) scaled by ``max(1, norm)``, where
    ``norm`` is an operator's ``max_norm`` (or an array of them)."""
    return (default if tol is None else tol) * np.maximum(1.0, norm)


def eigh(stack, block):
    """``np.linalg.eigh`` of one block or a stack of them, a failure reported
    as a ``NumericalError`` at ``block`` (a stack's first block)."""
    try:
        return np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}", block=block) from exc


def cluster_starts(ordered, norm, cluster_tol=None):
    """Clusters of eigenvalues sorted ascending along the last axis, one row
    per operator; ``norm`` is each row's operator ``max_norm``, shaped to
    broadcast against the rows (a number for one operator).

    Equal or near-equal eigenvalues chain into one cluster: a cluster ends
    where the step to the next value is not ``<= cluster_tol`` scaled by
    ``max(1, norm)``.  Returns the flat indices of ``ordered`` where
    clusters start (every row starts one) and the clusters' multiplicities.
    """
    first = np.ones(np.shape(ordered), dtype=bool)
    tol = _scaled_tol(cluster_tol, CLUSTER_TOL, norm)
    first[..., 1:] = ~(np.diff(ordered) <= tol)
    starts = np.flatnonzero(first)
    return starts, np.diff(starts, append=first.size)


def column_psi(vectors, weight, blocks):
    """Per eigenvector column ``v``, ``weight * (|v|², v*b_1v, …, v*b_nv)``
    along a new first axis: ``psi`` of the rank-one projection onto ``v``.

    ``vectors`` holds eigenvectors as columns, one block or a stack of
    them, and ``blocks`` the matching block (or stack) of each ``b_i``.
    """
    per_column = [np.sum(np.abs(vectors) ** 2, axis=-2)]
    for b in blocks:
        quadratic = vectors.conj()
        quadratic *= b @ vectors  # in place: one stack fewer alive at once
        per_column.append(np.sum(quadratic, axis=-2).real)
    return weight * np.array(per_column)


def decompose(alg, a, cluster_tol=None):
    """Eigendecompose ``a`` blockwise and merge eigenvalues across blocks.

    Eigenvalues of all blocks are sorted together (stably) and chained
    into clusters by ``cluster_starts``.  Returns the ``SpectralFrame``
    whose values, the means of the clusters' eigenvalues, ascend strictly;
    a cluster's trace is its column counts times the block weights.
    """
    alg.require(a)
    eigenvalues, vectors = zip(*(eigh(b, j) for j, b in enumerate(a.blocks)))
    eigenvalues = np.concatenate(eigenvalues)
    order = np.argsort(eigenvalues, kind="stable")
    ordered = eigenvalues[order]
    starts, multiplicity = cluster_starts(ordered, max_norm(a), cluster_tol)

    # A block's columns leave the stable sort in column order (eigh sorts
    # them ascending), so every cluster owns a consecutive column range of
    # every block: bounds[k, j] counts block j's columns ranked below the
    # start of cluster k.
    rank = np.empty(len(order), dtype=int)
    rank[order] = np.arange(len(order))
    cuts = np.append(starts, len(ordered))
    offsets = np.cumsum((0,) + alg.dims)
    bounds = np.column_stack(
        [np.searchsorted(rank[o:e], cuts) for o, e in zip(offsets, offsets[1:])]
    )
    values = np.add.reduceat(ordered, starts) / multiplicity
    return SpectralFrame(vectors=vectors, bounds=bounds, values=values)


def equality_band(op, eig_eq_tol=None):
    """The scaled band within which a cut level counts as an eigenvalue of ``op``."""
    return float(_scaled_tol(eig_eq_tol, EIG_EQ_TOL, max_norm(op)))


@dataclass(frozen=True, eq=False)
class DirectionFrame:
    """One decomposed direction: ``b_t``, its spectrum and equality band,
    with the sweep levels and what each level reads off the frame."""

    optuple: algebra.OperatorTuple
    t: np.ndarray
    b_t: HermitianOperator
    spectrum: SpectralFrame
    eff_tol: float

    @cached_property
    def levels(self):
        """Cut levels reaching every interval projection of ``b_t``."""
        return sampling.eigenvalue_sweep(self.spectrum.values)

    @cached_property
    def cuts(self):
        """Per level, the cluster counts of ``p_minus`` and ``p_plus``."""
        return cut_clusters(self.spectrum, self.levels, self.eff_tol)

    @cached_property
    def psi_table(self):
        """Row ``k`` is ``psi`` of the projection onto the leading ``k``
        clusters, its trace first.

        Column ``v`` of block ``j`` contributes ``c_j (|v|², v*b_1v, …,
        v*b_nv)``; a leading range is a prefix of every block's columns,
        so row ``k`` sums the blocks' prefix sums at ``bounds[k]``.
        """
        frame = self.spectrum
        frame.require_orthonormal()
        ops = self.optuple.operators
        table = 0.0
        for j, (v, c) in enumerate(zip(frame.vectors, self.optuple.algebra.weights)):
            prefix = np.zeros((v.shape[1] + 1, len(ops) + 1))
            per_column = column_psi(v, c, [b.blocks[j] for b in ops])
            np.cumsum(per_column.T, axis=0, out=prefix[1:])
            table = table + prefix[frame.bounds[:, j]]
        return table


def direction_frame(optuple, t, cluster_tol=None, eig_eq_tol=None):
    """Build ``b_t`` and decompose it once."""
    b_t = algebra.linear_combination(optuple, t)
    spectrum = decompose(optuple.algebra, b_t, cluster_tol=cluster_tol)
    return DirectionFrame(optuple, t, b_t, spectrum, equality_band(b_t, eig_eq_tol))


def sweep(optuple, directions, cluster_tol=None, eig_eq_tol=None):
    """Yield one ``DirectionFrame`` per direction part ``t``.

    Each direction is decomposed once; its ``levels`` hit every interval
    projection of ``b_t``, all read off the same frame.
    """
    for t in directions:
        yield direction_frame(optuple, t, cluster_tol, eig_eq_tol)


class OrderInterval:
    """A pair of projections ``lower <= upper`` naming a face candidate,
    held as the leading ``counts[0]`` and ``counts[1]`` column groups of a
    ``SpectralFrame``.

    The constructor is the checked path, for projections from outside: both
    must pass ``is_projection`` and be ordered by ``projection_leq``.  Per
    block, the eigenvectors of ``lower + upper`` (eigenvalue 2 on
    ``lower``'s range, 1 on the gap, 0 elsewhere) in descending order,
    counted at 1.5 and 0.5, frame them, and the caller's operators stay as
    ``.lower`` and ``.upper``.  ``_from_frame`` is the unchecked path for
    leading cluster ranges of a frame, which vouches for both; their
    ``lower`` and ``upper`` are built as operators on first read.
    """

    def __init__(self, lower, upper):
        if lower.dims != upper.dims:
            raise ShapeError("interval endpoints live in different algebras")
        for name, p in (("lower", lower), ("upper", upper)):
            if not is_projection(p):
                raise ShapeError(f"{name} endpoint is not a projection")
        if not projection_leq(lower, upper):
            raise ShapeError("interval endpoints are not ordered")
        vectors, bounds = [], []
        for x, y in zip(lower.blocks, upper.blocks):
            w, v = np.linalg.eigh(x + y)
            vectors.append(v[:, ::-1])
            bounds.append((0, np.sum(w > 1.5), np.sum(w > 0.5), len(w)))
        self.frame = SpectralFrame(
            tuple(vectors), np.array(bounds).T, np.array([2.0, 1.0, 0.0])
        )
        self.counts = (1, 2)
        self.lower, self.upper = lower, upper

    @classmethod
    def _from_frame(cls, frame, lower, upper):
        """The interval of the leading ``lower`` and ``upper`` clusters of
        ``frame``, with no per-interval check."""
        frame.require_orthonormal()
        interval = object.__new__(cls)
        interval.frame, interval.counts = frame, (lower, upper)
        return interval

    @cached_property
    def upper(self):
        return self.frame.projection(0, self.counts[1])

    @cached_property
    def lower(self):
        lower, upper = self.counts
        return self.upper if lower == upper else self.frame.projection(0, lower)

    @property
    def ends(self):
        """``lower`` and ``upper`` as leading ranges ``(frame, count)``."""
        return [(self.frame, k) for k in self.counts]

    def columns(self, part):
        """Per block, orthonormal columns spanning ``lower`` (``part`` is
        ``"lower"``), the gap ``upper - lower`` (``"gap"``) or ``1 - upper``
        (``"above"``)."""
        cuts = (0, *self.counts, len(self.frame.bounds) - 1)
        first = ("lower", "gap", "above").index(part)
        return self.frame.columns(cuts[first], cuts[first + 1])

    def gap(self):
        """The projection ``upper - lower``."""
        return self.upper - self.lower

    def is_point(self):
        return same_range(*self.ends, PROJECTION_TOL)


def same_range(a, b, tol):
    """Whether two leading ranges ``(frame, count)`` span the same
    projection, to ``tol`` in max norm.

    Ranks per block come first: where they differ, a diagonal entry of the
    difference is at least ``1/d`` from zero.  A block both leave empty or
    both fill agrees to roundoff, and so does every block within one frame;
    only the other blocks are built and compared.
    """
    (fa, ka), (fb, kb) = a, b
    ranks = fa.bounds[ka].tolist()
    if ranks != fb.bounds[kb].tolist():
        return False
    if fa is fb:
        return True
    for va, vb, r in zip(fa.vectors, fb.vectors, ranks):
        if 0 < r < va.shape[1]:
            x, y = va[:, :r], vb[:, :r]
            if float(np.max(np.abs(x @ x.conj().T - y @ y.conj().T))) > tol:
                return False
    return True


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


def cut_clusters(spectrum, s, eff_tol):
    """How many leading clusters ``p_minus`` and ``p_plus`` span at level
    ``s`` (or at each of an array of levels): those below ``s``, and those
    at most ``s``, within the equality band; ``spectrum``'s values ascend."""
    return (
        np.searchsorted(spectrum.values, s - eff_tol, side="left"),
        np.searchsorted(spectrum.values, s + eff_tol, side="right"),
    )


def interval_from_spectrum(alg, spectrum, s, eff_tol):
    """Interval projections for a cut level, from a ``decompose`` frame.

    ``eff_tol`` is the already-scaled equality band deciding whether a
    cluster sitting at ``s`` belongs to the closed-interval projection.
    Both endpoints are spans of leading clusters of ``spectrum``, so the
    interval comes from the frame and builds no projection until its
    endpoints are read.
    """
    if tuple(v.shape[0] for v in spectrum.vectors) != alg.dims:
        raise ShapeError("spectrum was decomposed in a different algebra")
    return OrderInterval._from_frame(spectrum, *cut_clusters(spectrum, s, eff_tol))


def interval_projections(optuple, pair, cluster_tol=None, eig_eq_tol=None):
    """The projections ``(p_minus, p_plus)`` of ``b_t`` at level ``s``.

    ``p_plus`` collects eigenclusters with value ``<= s`` (within the
    equality band), ``p_minus`` those strictly below.  When no cluster
    sits in the band the two coincide.
    """
    frame = direction_frame(optuple, pair.t, cluster_tol, eig_eq_tol)
    return interval_from_spectrum(
        optuple.algebra, frame.spectrum, pair.s, frame.eff_tol
    )


def eigengap_of(alg, a, s1, s2, cluster_tol=None):
    """True when no clustered eigenvalue of ``a`` lies in ``(s1, s2)``."""
    if not s1 < s2:
        raise ValueError(f"need s1 < s2, got {s1} >= {s2}")
    values = decompose(alg, a, cluster_tol=cluster_tol).values
    return not np.any((values > s1) & (values < s2))
