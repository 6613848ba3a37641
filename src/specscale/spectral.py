"""Clustered eigendecomposition and spectral interval projections.

Two tolerances govern everything here.  ``cluster_tol`` merges
numerically split eigenvalues into one cluster; ``eig_eq_tol`` decides
whether a cut level ``s`` counts as an eigenvalue, which is what
separates the closed-interval projection ``p_plus`` (spectrum in
``(-inf, s]``) from the open-interval projection ``p_minus`` (spectrum in
``(-inf, s)``).  Both scale with ``max(1, |a|)``.  ``cluster_starts`` is
the one clustering rule.

One core, ``_decompose_stacks``, does every decomposition: of a stack of
operators, one row each, it runs one batched ``eigh`` per block size,
sorts each row's eigenvalues of all blocks together and clusters them,
and, for the ``b_t`` of a tuple, sums each cluster's per-column ``psi``.
``_chunks`` feeds it the ``b_t`` of many directions, in chunks bounded by
``STACK_CHUNK_BYTES``; the sweep and the isotrace slice both read its
rows.  A direction whose negation comes earlier is not solved: ``b_{-t} =
-b_t`` has the same eigenvectors in reverse order, so its row mirrors
its partner's, in the same chunk, with the eigenvalues negated and
reversed and the columns and their ``psi`` reversed (``Ψ(1 - p) = Ψ(1) -
Ψ(p)``), and its frame names its partner's as ``mirror_of``.  A solved
row has the bits it has decomposed alone.  ``_frames``
makes each row an eigenframe, one ``SpectralFrame``, and checks all of a
chunk's solved columns orthonormal at once; ``decompose`` of one
operator is the one-row case.
A frame holds the eigenvector stacks and, per cluster, its value and the
range of columns it owns in every block; a cluster's trace is those
column counts times the block weights, with no pass over the columns.
Clusters take consecutive columns of every block, so a spectral
projection onto the leading ``k`` clusters is a leading column range of
every block, named by the count ``k`` alone.  ``direction_frames``
returns one frame per direction with all its cut levels as such counts,
its equality band scaled by its ``b_t``'s ``max_norm`` and its ``psi``
table the running sums of its clusters' ``psi``.  Everything a sweep
reads off a level comes from the frame without a d×d matrix: ``psi`` and
the trace of an endpoint are rows of a cumulative table and the support
value is a dot product with a row.  One primitive answers every order
question between leading ranges of two frames: for a frame ``U`` and a
frame ``V``, ``|Uᴴ V|²`` summed over ``U``'s trailing and over its
leading rows (``_row_sums``) holds ``|(1 - q) v|`` and ``|q v|`` for
every leading range ``q`` of ``U`` and column ``v`` of ``V``, one product
per size class.  The order test of many faces of ``U`` against every
level of ``V`` (``SpectralFrame.order_margins``) reads it; the equality
of two ranges (``same_range``, after their ranks) reads only the part of
``Uᴴ V`` that one margin needs.  What a face reads of the operators
themselves, a gap's cut-down or the commutators with a cut, is entries
of ``Vᴴ b_i V``: ``SpectralFrame.entries`` rotates the tuple once and
tables every block entry with the clusters of its row and column.  The
centrality checks need each commutator's largest entry in the standard
basis instead: ``SpectralFrame.commutator_norms`` tables it for every
leading range at once, from prefix sums of rank-one terms.  Neither
table is kept on the frame; ``_by_frame`` groups a caller's ranges so
that each frame's is computed once.  Every ``OrderInterval`` is a frame with two leading counts, so
the bases of ``lower``, of the gap and of ``1 - upper`` are column
ranges; an interval from outside is the core's frame of ``-(lower +
upper)``.  Every frame is checked orthonormal when it is made, a chunk's
solved columns at once in ``_frames`` and any other frame by its
constructor, which makes every leading range a projection and the
ranges nested.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import algebra, sampling
from .algebra import ColumnRanges, _from_stacks
from .errors import NumericalError, ShapeError, ZeroDirectionError

CLUSTER_TOL = 1e-9
EIG_EQ_TOL = 1e-8
PROJECTION_TOL = 1e-8
# Bound on one stacked (rows, m_k, d, d) array of a batched decomposition,
# isotrace slice or commutator table.  About three are alive at once;
# larger stacks run no faster, since eigh then dominates, but raise the
# peak memory.
STACK_CHUNK_BYTES = 2**18

FrameEntries = namedtuple("FrameEntries", "values weight row col lo hi")
Decomposed = namedtuple(
    "Decomposed", "norms vectors order starts sizes values sums partners"
)


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
    """Eigenvectors stacked per block size, with the cluster boundaries
    among each block's columns.

    ``vectors[k]`` stacks the eigenvector matrices of ``layout``'s size
    class ``k`` as ``(m_k, d_k, d_k)``, columns in cluster order
    (ascending eigenvalues in every frame the core makes); ``bounds[c,
    j]`` counts the columns of block ``j`` (input order) that belong to
    clusters ``0 .. c-1``, and the last row counts them all; ``values[c]``
    is the eigenvalue cluster ``c``'s columns share.  Multiplicities and
    traces are column counts: ``np.diff(bounds.sum(axis=1))`` and
    ``np.diff(bounds, axis=0) @ alg.weights``.  The constructor raises
    ``NumericalError`` at the worst block if ``max|VᴴV - I| > PROJECTION_TOL``.

    ``mirror_of`` is None, or the solved frame of ``b_t`` when this is the
    core's mirror frame of ``b_{-t}``: its columns are the partner's
    reversed and its leading ``k`` clusters span ``1`` minus the partner's
    leading ``K - k``, of ``K`` clusters in both.
    """

    layout: algebra.BlockLayout
    vectors: tuple
    bounds: np.ndarray  # (clusters + 1, blocks)
    values: np.ndarray  # (clusters,)
    mirror_of = None  # not a field: set by the core on its mirror frames

    def __post_init__(self):
        _require_orthonormal(self.deviation[None])

    @classmethod
    def _unchecked(
        cls, layout, vectors, bounds, values, clusters, deviation, mirror_of=None
    ):
        """The frame of columns already checked orthonormal, handed the
        ``clusters`` and ``deviation`` measured with them, with no check."""
        frame = object.__new__(cls)
        fields = dict(layout=layout, vectors=vectors, bounds=bounds, values=values)
        frame.__dict__.update(
            fields, clusters=clusters, deviation=deviation, mirror_of=mirror_of
        )
        return frame

    def columns(self, first, stop):
        """The eigenvector columns of clusters ``first .. stop-1``, per block."""
        return ColumnRanges(
            self.layout, self.vectors, self.bounds[first], self.bounds[stop]
        )

    @cached_property
    def clusters(self):
        """Per size class, the cluster of every column, shaped ``(m_k, d_k)``."""
        return [
            (self.bounds[1:, idx, None] <= np.arange(d)).sum(axis=0)
            for d, idx in zip(self.layout.sizes, self.layout.members)
        ]

    def combination(self, coeffs):
        """``sum_c coeffs[c] * P_c`` over the cluster projections ``P_c``."""
        coeffs = np.asarray(coeffs, dtype=float)
        pairs = zip(self.vectors, self.clusters)
        sums = [(v * coeffs[c[:, None]]) @ v.conj().swapaxes(-1, -2) for v, c in pairs]
        return _from_stacks(self.layout, sums)

    def projection(self, first, stop):
        """Projection onto clusters ``first .. stop-1``: ``V Vᴴ`` per block."""
        coeffs = np.zeros(len(self.values))
        coeffs[first:stop] = 1.0
        return self.combination(coeffs)

    def entries(self, optuple):
        """Every block entry of the tuple rotated into this frame, ``Y_i =
        Vᴴ b_i V``, rotated once per size class: a flat ``FrameEntries``
        over size classes, blocks, rows and columns, in that order.

        ``values[i, e]`` is entry ``e`` of ``Y_i``; ``weight``, ``row`` and
        ``col`` are its block's weight and its place in the block; ``lo`` and
        ``hi`` the smaller and larger cluster of its row and column.  The
        entry lies in the gap of clusters ``lower .. upper-1`` exactly when
        ``lower <= lo`` and ``hi < upper``, and crosses the cut at ``k``
        clusters exactly when ``lo < k <= hi``.
        """
        parts = []
        weights = optuple.algebra.class_weights
        for k, (v, c, w) in enumerate(zip(self.vectors, self.clusters, weights)):
            vh = v.conj().swapaxes(-1, -2)
            y = np.array([vh @ b.stacks[k] @ v for b in optuple.operators])
            blk, row, col = np.indices(y.shape[1:]).reshape(3, -1)
            ends = c[blk, row], c[blk, col]
            fields = w[blk], row, col, np.minimum(*ends), np.maximum(*ends)
            parts.append((y.reshape(len(y), -1), *fields))
        return FrameEntries(*(np.concatenate(x, axis=-1) for x in zip(*parts)))

    def commutator_norms(self, optuple):
        """``max_i max|[b_i, q_k]|`` for every leading range ``q_k``, ``k = 0
        .. clusters``: each commutator's largest entry in the standard
        basis, as ``algebra.commutator_norm`` measures it.

        Per block, ``A_r = Σ_{j<r} (b_i u_j) u_jᴴ`` over the frame's columns
        ``u_j`` is ``b_i`` times the projection onto the first ``r``
        columns, so ``A_r - A_rᴴ`` is their commutator: prefix sums of
        rank-one terms give every column count at once
        (``_prefix_commutator_norms``), and entry ``k`` reads block ``j`` at
        ``bounds[k, j]``.  Callers that read many ranges of one frame
        compute its table once.
        """
        table = np.zeros(len(self.bounds))
        for k, (v, idx) in enumerate(zip(self.vectors, self.layout.members)):
            b = np.array([op.stacks[k] for op in optuple.operators])
            norms = _prefix_commutator_norms(b @ v, v).max(axis=0)  # (m_k, d_k + 1)
            per_block = norms[np.arange(len(idx)), self.bounds[:, idx]]
            np.maximum(table, per_block.max(axis=1), out=table)
        return table

    @cached_property
    def deviation(self):
        """Per block, ``max|VᴴV - I|``: how far the columns are from orthonormal."""
        return _deviations(self.layout, self.vectors)

    def order_margins(self, frame, lowers, uppers):
        """How far each leading range ``p_k`` is from ``p_k <= q_minus`` and
        from ``q_plus <= p_k``, per face and cluster count ``k``.

        The faces are intervals of ``frame``: face ``f``'s ``q_minus`` and
        ``q_plus`` are its leading ``lowers[f]`` and ``uppers[f]`` clusters.
        ``below[f, k]`` is the largest ``|(1 - q_minus) v|`` over the
        columns ``v`` of the first ``k`` clusters, ``above[f, k]`` the
        largest ``|q_plus v|`` over the other columns: prefix and suffix
        maxima of each cluster's largest column norm.  Both norms are roots
        of sums of ``|Uᴴ V|²`` over rows, ``U`` the columns of ``frame``
        (``_row_sums``), one product per size class for all faces.  Each
        order holds exactly when its margin is zero.
        """
        faces = len(lowers)
        rows = frame.bounds[np.array([lowers, uppers])]  # (2, faces, blocks)
        ends = np.arange(2)[:, None, None]
        # per end, face and cluster, the largest norm among its columns
        largest = np.zeros((2, faces, len(self.values)))
        pairs = zip(frame.vectors, self.vectors, self.clusters, self.layout.members)
        for u, v, c, idx in pairs:
            sums = _row_sums(u, v)[ends, np.arange(len(idx)), rows[..., idx]]
            norms = np.sqrt(sums).reshape(2, faces, -1)
            np.maximum.at(largest, (slice(None), slice(None), c.ravel()), norms)
        below, above = np.zeros((2, faces, len(self.values) + 1))
        np.maximum.accumulate(largest[0], axis=1, out=below[:, 1:])
        above[:, :-1] = np.maximum.accumulate(largest[1, :, ::-1], axis=1)[:, ::-1]
        return below, above


def _by_frame(frames):
    """Positions grouped by frame: per distinct frame of ``frames``, in
    first-seen order, the frame and the positions that hold it.  Callers
    that read a per-frame table (``SpectralFrame.entries``,
    ``SpectralFrame.commutator_norms``) for many ranges compute it once per
    group."""
    groups = {}  # id of a frame -> (frame, positions)
    for position, frame in enumerate(frames):
        groups.setdefault(id(frame), (frame, []))[1].append(position)
    return groups.values()


def _mirrored(intervals):
    """Per interval, the position of the interval it mirrors, or -1.

    An interval ``(lo, hi)`` of a mirror frame, ``K`` clusters, is ``Ψ(1)``
    minus the interval ``(K - hi, K - lo)`` of the frame it mirrors
    (``SpectralFrame.mirror_of``): its endpoints are ``1 - q_plus`` and
    ``1 - q_minus`` of that interval.  It mirrors the first such interval
    in ``intervals``, if there is one; no interval of a solved frame
    mirrors another.  The pairing is the decomposition core's, of exact
    negations, and reads no tolerance."""
    place = {}
    for f, interval in enumerate(intervals):
        place.setdefault((id(interval.frame), *interval.counts), f)
    out = [-1] * len(intervals)
    for f, interval in enumerate(intervals):
        partner = interval.frame.mirror_of
        if partner is not None:
            k = len(interval.frame.values)
            lo, hi = interval.counts
            out[f] = place.get((id(partner), k - hi, k - lo), -1)
    return np.array(out, dtype=int)


def _row_sums(u, v):
    """``|Uᴴ V|²`` of two frames' stacks ``(m, d, d)`` summed over the
    trailing and over the leading rows, stacked: ``[0, :, r, c]`` is ``|(1 -
    q_r) v|²`` and ``[1, :, r, c]`` is ``|q_r v|²``, where ``q_r`` projects
    onto the first ``r`` columns of ``U`` and ``v`` is column ``c`` of
    ``V``.  ``U`` is a whole orthonormal basis, so the tail is the sum over
    its other rows; it is summed directly, since as ``|v|² - head`` its
    roundoff would have a root of 1e-8, ``PROJECTION_TOL`` itself."""
    squares = np.abs(u.conj().swapaxes(-1, -2) @ v)
    squares *= squares
    sums = np.zeros((2, len(squares), squares.shape[1] + 1, squares.shape[2]))
    np.add.accumulate(squares[:, ::-1], axis=1, out=sums[0, :, -2::-1])
    np.add.accumulate(squares, axis=1, out=sums[1, :, 1:])
    return sums


def _prefix_commutator_norms(w, v):
    """``max|A_r - A_rᴴ|`` for ``A_r = w[..., :r] v[..., :r]ᴴ``, ``r = 0 ..
    d``, of stacks ``w`` shaped ``(n, m, d, d)`` and ``v`` shaped ``(m, d,
    d)``: ``(n, m, d + 1)``.  The rank-one terms are summed a chunk of
    blocks and columns at a time, at most ``STACK_CHUNK_BYTES`` per ``(n,
    blocks, columns, d, d)`` stack (or one column of one block), the
    running sum carried from chunk to chunk."""
    n, m, d, _ = w.shape
    out = np.zeros((n, m, d + 1))
    width = max(1, min(d, STACK_CHUNK_BYTES // (16 * n * d * d)))
    step = max(1, STACK_CHUNK_BYTES // (16 * n * width * d * d))
    # columns first: term [.., j, a, b] is w[.., a, j] * conj(v[.., b, j])
    w, v = w.swapaxes(-1, -2), v.conj().swapaxes(-1, -2)
    for lo in range(0, m, step):
        blocks = slice(lo, lo + step)
        total = 0.0
        for first in range(0, d, width):
            cols = slice(first, first + width)
            terms = w[:, blocks, cols, :, None] * v[blocks, cols, None, :]
            terms -= terms.conj().swapaxes(-1, -2)
            np.cumsum(terms, axis=2, out=terms)
            terms += total
            total = terms[:, :, -1:].copy()
            squares = terms.real**2
            squares += terms.imag**2
            out[:, blocks, first + 1 : first + 1 + width] = squares.max(axis=(-2, -1))
    return np.sqrt(out)


def _deviations(layout, vectors):
    """Per block, ``max|VᴴV - I|`` of eigenvector stacks ``vectors``, one
    per size class, shaped ``(..., m_k, d_k, d_k)``: ``(..., blocks)``."""
    out = np.empty((*vectors[0].shape[:-3], len(layout.dims)))
    for v, idx in zip(vectors, layout.members):
        gram = v.conj().swapaxes(-1, -2) @ v - np.eye(v.shape[-1])
        out[..., idx] = np.abs(gram).max(axis=(-2, -1))
    return out


def _require_orthonormal(deviation):
    """Raise unless every row of ``deviation``, per block ``max|VᴴV - I|``
    shaped ``(rows, blocks)``, is within ``PROJECTION_TOL``: a
    ``NumericalError`` at the worst block of the first row that is not."""
    worst = deviation.max(axis=1)
    bad = np.flatnonzero(worst > PROJECTION_TOL)
    if bad.size:
        j = int(np.argmax(deviation[bad[0]]))
        raise NumericalError(
            f"eigenvectors deviate from orthonormal by {worst[bad[0]]:.3e}", block=j
        )


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
    a cluster's trace is its column counts times the block weights.  It is
    the one-row case of ``_decompose_stacks``.
    """
    alg.require(a)
    spectra = _decompose_stacks(a.layout, [s[None] for s in a.stacks], cluster_tol)
    return _frames(a.layout, spectra)[0]


def _decompose_stacks(layout, stacks, cluster_tol=None, optuple=None, partners=()):
    """The one batched decomposition: of many operators, one row each,
    whose size class ``k`` blocks ``stacks[k]`` holds as ``(rows, m_k, d_k,
    d_k)``, and of the mirror rows after them.

    One ``eigh`` per size class solves every row of ``stacks``.  Mirror
    row ``i`` is the negation of solved row ``partners[i]``, so it is not
    solved: within each block its eigenvalues are the partner's negated
    and reversed, its eigenvector columns and their ``column_psi`` the
    partner's reversed.  Per row, solved or mirrored, the eigenvalues of
    all blocks are sorted together (stably) and clustered by
    ``cluster_starts`` on the row's ``max_norm``.  Returns a
    ``Decomposed``: the rows' ``norms``, the solved rows' eigenvector
    stacks, each row's columns in sorted ``order``, the flat indices of
    that order where clusters ``starts``, each row's cluster count, the
    clusters' mean values, flat in row order, and the ``partners``.  Given
    the ``optuple`` the rows combine, ``sums`` also holds per cluster the
    sum of its columns' ``column_psi``, taken in sorted order, as ``(n +
    1, clusters)``.
    """
    partners = np.asarray(partners, dtype=int)
    rows = len(stacks[0]) + len(partners)
    norms = np.max([np.abs(s).max(axis=(1, 2, 3)) for s in stacks], axis=0)
    norms = np.concatenate([norms, norms[partners]])
    solved = [eigh(s, int(idx[0])) for s, idx in zip(stacks, layout.members)]
    del stacks  # free the stacks before the per-column products
    # a mirror row's columns: its partner's, each block's in reverse order
    flip = partners[:, None], layout.reversed_entry
    vectors = [v for _, v in solved]
    eigenvalues = np.concatenate([w.reshape(len(w), -1) for w, _ in solved], axis=1)
    eigenvalues = np.concatenate([eigenvalues, -eigenvalues[flip]])
    order = np.argsort(eigenvalues, axis=1, kind="stable")
    ordered = np.take_along_axis(eigenvalues, order, axis=1)
    starts, multiplicity = cluster_starts(ordered, norms[:, None], cluster_tol)
    values = np.add.reduceat(ordered.ravel(), starts) / multiplicity
    sizes = np.bincount(starts // ordered.shape[1], minlength=rows)
    sums = None
    if optuple is not None:
        ops = optuple.operators
        weights = optuple.algebra.class_weights
        per_column = np.concatenate(
            [
                column_psi(v, w[:, None], [b.stacks[k] for b in ops]).reshape(
                    len(ops) + 1, len(v), -1
                )
                for k, (v, w) in enumerate(zip(vectors, weights))
            ],
            axis=2,
        )
        mirrored = per_column[:, flip[0], flip[1]]
        per_column = np.concatenate([per_column, mirrored], axis=1)
        per_column = np.take_along_axis(per_column, order[None], axis=2)
        sums = np.add.reduceat(per_column.reshape(len(ops) + 1, -1), starts, axis=1)
    return Decomposed(norms, vectors, order, starts, sizes, values, sums, partners)


def _frames(layout, spectra):
    """One ``SpectralFrame`` per row of a ``Decomposed``, handed its
    columns' clusters and deviations, so neither is computed again: one
    ``max|VᴴV - I|`` per size class measures every solved row's columns,
    checked once for all rows.  A mirror row's columns are its partner's
    reversed, as views, its deviation is its partner's, and its frame names
    its partner's as ``mirror_of``."""
    solved = len(spectra.vectors[0])
    deviation = _deviations(layout, spectra.vectors)
    _require_orthonormal(deviation)
    source = np.concatenate([np.arange(solved), spectra.partners]).tolist()
    # eigh sorts each block's columns ascending, so every cluster owns a
    # consecutive column range of every block: bounds[k, j] counts block
    # j's columns in clusters below k.  Cluster numbers count from each
    # row's first, in each row's own column order.
    first = np.zeros(spectra.order.shape, dtype=int)
    first.flat[spectra.starts] = 1
    clusters = np.empty_like(spectra.order)
    np.put_along_axis(clusters, spectra.order, np.cumsum(first, axis=1) - 1, axis=1)
    rows = len(spectra.sizes)
    counts = np.zeros((rows, spectra.sizes.max() + 1, len(layout.dims)), dtype=int)
    np.add.at(counts, (np.arange(rows)[:, None], clusters + 1, layout.entry_block), 1)
    bounds = np.cumsum(counts, axis=1)
    offsets = np.cumsum([0, *(m * d for m, d, _ in layout.shapes)])
    per_class = [
        clusters[:, lo:hi].reshape(rows, m, d)
        for lo, hi, (m, d, _) in zip(offsets, offsets[1:], layout.shapes)
    ]
    ends = np.cumsum(spectra.sizes).tolist()
    frames = []  # the solved rows come first, so a partner is made before its mirror
    for r, (i, size, end) in enumerate(zip(source, spectra.sizes.tolist(), ends)):
        frames.append(
            SpectralFrame._unchecked(
                layout,
                tuple(v[i][..., :: 1 if r < solved else -1] for v in spectra.vectors),
                bounds[r, : size + 1],
                spectra.values[end - size : end],
                [c[r] for c in per_class],
                deviation[i],
                None if r < solved else frames[i],
            )
        )
    return frames


def _antipodes(ts):
    """Which rows of ``ts`` (a ``(rows, n)`` array) to solve and which to
    mirror: a row is mirrored when the first row equal to it or to its
    negation is its negation, and is paired with that row, which is
    solved.

    Rows are put in sign-canonical form, the first nonzero entry
    positive and no zero negative, and grouped by one ``np.lexsort``; a
    row whose sign differs from its group's first row is that row
    negated.  Returns the solved rows, the mirror rows and, per
    mirror row, its partner's place among the solved rows.
    """
    lead = ts[np.arange(len(ts)), np.argmax(ts != 0, axis=1)]
    sign = np.where(lead < 0, -1.0, 1.0)
    canonical = ts * sign[:, None] + 0.0
    order = np.lexsort(canonical.T[::-1])  # equal rows adjacent, earliest first
    ranked = canonical[order]
    first = np.ones(len(ts), dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    head = np.empty_like(order)
    head[order] = order[first][np.cumsum(first) - 1]
    mirror = sign != sign[head]
    solved = np.flatnonzero(~mirror)
    mirrors = np.flatnonzero(mirror)
    return solved, mirrors, np.searchsorted(solved, head[mirrors])


def _chunks(optuple, ts, cluster_tol=None):
    """``_decompose_stacks`` of the ``b_t`` of every row ``t`` of ``ts``,
    ``psi`` sums included, one chunk at a time: yields each chunk's row
    indices into ``ts`` and its ``Decomposed``, whose rows they name in
    order.

    Only the rows ``_antipodes`` solves are stacked, in chunks of
    ``_row_chunks``; each row whose ``t`` negates a solved row's rides in
    its partner's chunk as a mirror row (``_decompose_stacks``), so the
    ``b_t`` of ``t`` and ``-t`` take one ``eigh``.  A solved row's bits
    are those it has decomposed alone; a mirror row's are its partner's,
    mirrored."""
    alg = optuple.algebra
    if not len(ts):
        return
    ts = algebra.direction_rows(optuple, ts)
    solved, mirrors, partners = _antipodes(ts)
    for chunk in _row_chunks(len(solved), alg.dims):
        mine = (chunk.start <= partners) & (partners < chunk.stop)
        # no name here holds the b_t stacks, so the core frees them once solved
        yield np.concatenate([solved[chunk], mirrors[mine]]), _decompose_stacks(
            alg.layout,
            algebra.linear_combinations(optuple, ts[solved[chunk]]),
            cluster_tol,
            optuple,
            partners[mine] - chunk.start,
        )


@dataclass(frozen=True, eq=False)
class DirectionFrame:
    """One decomposed direction ``t``: the spectrum of ``b_t`` and its
    equality band, with the sweep levels and what each level reads off the
    frame.  Row ``k`` of ``psi_table`` is ``psi`` of the projection onto
    the leading ``k`` clusters, its trace first."""

    optuple: algebra.OperatorTuple
    t: np.ndarray
    spectrum: SpectralFrame
    eff_tol: float
    psi_table: np.ndarray

    @cached_property
    def levels(self):
        """Cut levels reaching every interval projection of ``b_t``."""
        return sampling.eigenvalue_sweep(self.spectrum.values)

    @cached_property
    def cuts(self):
        """Per level, the cluster counts of ``p_minus`` and ``p_plus``."""
        return cut_clusters(self.spectrum, self.levels, self.eff_tol)


def _row_chunks(rows, dims):
    """Slices of ``range(rows)`` that stack at most ``STACK_CHUNK_BYTES``
    per ``(rows, m_k, d_k, d_k)`` array: one row holds 16 bytes per complex
    entry of every block."""
    step = max(1, STACK_CHUNK_BYTES // (16 * sum(d * d for d in dims)))
    return [slice(k, k + step) for k in range(0, rows, step)]


def direction_frames(optuple, ts, cluster_tol=None, eig_eq_tol=None):
    """The ``DirectionFrame`` of every direction part ``t`` in ``ts``,
    decomposed together (``_chunks``): a frame's band is scaled by the
    ``max_norm`` of its ``b_t`` and its ``psi`` table adds up its clusters'
    ``psi`` sums.  The frame of a ``t`` whose negation comes earlier in
    ``ts`` is that direction's mirrored: its columns reversed, as views,
    and its values, bands and table read off them as any frame's are."""
    ts = [np.asarray(t, dtype=float) for t in ts]
    out = [None] * len(ts)
    for rows, spectra in _chunks(optuple, ts, cluster_tol):
        sizes = spectra.sizes
        bands = _scaled_tol(eig_eq_tol, EIG_EQ_TOL, spectra.norms).tolist()
        # cluster c's sums at c + 1, so row k of a table adds the first k
        tables = np.zeros((len(sizes), sizes.max() + 1, optuple.n + 1))
        owner = np.repeat(np.arange(len(sizes)), sizes)
        place = np.arange(len(owner)) - (np.cumsum(sizes) - sizes)[owner]
        tables[owner, place + 1] = spectra.sums.T
        tables = np.cumsum(tables, axis=1)
        frames = _frames(optuple.algebra.layout, spectra)
        for r, spectrum, band, table, size in zip(
            rows.tolist(), frames, bands, tables, sizes.tolist()
        ):
            out[r] = DirectionFrame(optuple, ts[r], spectrum, band, table[: size + 1])
    return out


def direction_frame(optuple, t, cluster_tol=None, eig_eq_tol=None):
    """Build ``b_t`` and decompose it once: ``direction_frames`` of ``[t]``."""
    (frame,) = direction_frames(optuple, [t], cluster_tol, eig_eq_tol)
    return frame


class OrderInterval:
    """A pair of projections ``lower <= upper`` naming a face candidate,
    held as the leading ``counts[0]`` and ``counts[1]`` column groups of a
    ``SpectralFrame``.

    The constructor is the checked path, for projections from outside: both
    must pass ``is_projection`` and be ordered by ``projection_leq``.  The
    decomposition core frames ``-(lower + upper)``, whose eigenvalue is -2
    on ``lower``'s range, -1 on the gap and 0 elsewhere, so the counts are
    its clusters below -1.5 and below -0.5; the caller's operators stay as
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
        layout = lower.layout
        stacks = [-(x + y)[None] for x, y in zip(lower.stacks, upper.stacks)]
        self.frame = _frames(layout, _decompose_stacks(layout, stacks))[0]
        # by value, not cluster index: a cluster may split at cluster_tol
        self.counts = tuple(np.searchsorted(self.frame.values, [-1.5, -0.5]).tolist())
        self.lower, self.upper = lower, upper

    @classmethod
    def _from_frame(cls, frame, lower, upper):
        """The interval of the leading ``lower`` and ``upper`` clusters of
        ``frame``, with no per-interval check."""
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
    projection: ranks equal, and no column ``u`` of the first range with
    ``|(1 - q) u| > tol`` for the second range's projection ``q``.

    Ranks per block come first; of equal ranks, the largest such norm is
    zero exactly when the ranges agree, and at most ``|p - q|``, the sine
    of the widest angle between them.  Two ranges of one frame agree to
    roundoff, and so do two with no block partly filled (a block both
    leave empty or both fill adds an exact zero).  Of the others, that
    norm is the largest column norm of ``U[:, r:]ᴴ V[:, :r]`` over the
    partly filled blocks, ``r`` their rank, ``U`` the second frame's
    columns and ``V`` the first's: one product per size class.
    """
    (fa, ka), (fb, kb) = a, b
    ranks = fa.bounds[ka]
    if ranks.tolist() != fb.bounds[kb].tolist():
        return False
    partial = (0 < ranks) & (ranks < fa.layout.dims)
    if fa is fb or not np.any(partial):
        return True
    largest = 0.0
    for u, v, idx in zip(fb.vectors, fa.vectors, fa.layout.members):
        mine = partial[idx]
        if mine.any():
            r = ranks[idx][mine]
            lo, hi = int(r.min()), int(r.max())
            w = np.abs(u[mine, :, lo:].conj().swapaxes(-1, -2) @ v[mine, :, :hi])
            w *= w
            # of rows lo.. and columns ..hi, those past each block's range
            # and those in it
            r = r[:, None, None]
            w *= (np.arange(lo, u.shape[-1])[:, None] >= r) & (np.arange(hi) < r)
            largest = max(largest, float(w.sum(axis=1).max()))
    return largest**0.5 <= tol


def is_projection(p):
    return all(
        not s.size or float(np.abs(s @ s - s).max()) <= PROJECTION_TOL
        for s in p.stacks
    )


def projection_leq(p, q):
    """Projection order ``p <= q``, tested as ``|pq - p| <= PROJECTION_TOL``."""
    return all(
        not x.size or float(np.abs(x @ y - x).max()) <= PROJECTION_TOL
        for x, y in zip(p.stacks, q.stacks)
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
    if spectrum.layout.dims != alg.dims:
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
