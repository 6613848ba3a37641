"""Recursive facial calculus: cut-downs, facial complexes, normal cones.

A face of the scale is named by an order interval ``[q_minus, q_plus]``
of projections, held as two leading ranges of a spectral frame.  Faces
of positive dimension are scales in their own right once the tuple is
cut down to the range of ``q_plus - q_minus``, whose basis is the
interval's gap columns, with the trace rescaled (``cut_down``, an
``algebra.Compression``); iterating that cut-down is what reaches faces
no single hyperplane exposes, and a cut-down of a cut-down is one
``Compression`` of the ambient tuple (``Compression.cut``); equality
and properness of faces compare ranks first.  The normal cone of a face
is probed through the order test: ``(-s, t)`` supports the face exactly
when ``p_minus <= q_minus`` and ``q_plus <= p_plus`` for the interval
projections of ``b_t`` at ``s``, which the sweep reads per direction off
the eigenframe of ``b_t`` as prefix and suffix maxima of column norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra, sampling, scale, spectral
from .algebra import Compression, HermitianOperator, max_norm
from .errors import (
    DegenerateFaceError,
    FaceChainError,
    InvariantViolation,
    MinimalFaceError,
)
from .scale import face_dimension
from .spectral import PROJECTION_TOL, OrderInterval, SpectralPair


@dataclass(frozen=True)
class FaceHandle:
    """An order interval naming a face."""

    interval: OrderInterval

    @property
    def lower(self):
        return self.interval.lower

    @property
    def upper(self):
        return self.interval.upper


@dataclass(frozen=True)
class ComplexLevel:
    pair: SpectralPair
    q_minus: HermitianOperator  # ambient embedding
    r: HermitianOperator  # q_plus - q_minus, ambient


@dataclass(frozen=True)
class FacialComplex:
    pairs: tuple
    levels: tuple
    terminated_early: bool = False
    termination_level: int | None = None


@dataclass(frozen=True)
class NormalConeSample:
    """Members of the normal cone found by sampling, with the degree.

    ``degree`` is the rank of the member span, a lower bound for the true
    degree; ``exact`` marks the diagonal-algebra case where that rank
    meets the polytope value ``(n + 1) - dim(face)``.
    """

    members: np.ndarray  # (k, n+1) unit normals (-s, t)
    pairs: tuple
    degree: int
    exact: bool


def in_generated_algebra(optuple, op, basis=None):
    """Whether ``op`` lies in the algebra generated by the tuple.

    Expands against a trace-orthonormal basis and bounds the residual's
    entries by 1e-6; face endpoint projections always pass since interval
    projections are polynomials in the ``b_t`` they come from.
    """
    if basis is None:
        basis = algebra.generated_algebra_basis(optuple)
    stacks = [np.array(per_block) for per_block in zip(*(e.blocks for e in basis))]
    residual = algebra._span_residual(optuple.algebra, stacks, op.blocks)
    return max_norm(algebra._raw(residual)) <= 1e-6


def intervals_equal(a, b):
    """Both endpoints span the same projections, to ``PROJECTION_TOL``."""
    return all(
        spectral.same_range(x, y, PROJECTION_TOL) for x, y in zip(a.ends, b.ends)
    )


def interval_contains(outer, inner):
    """``outer.lower <= inner.lower <= inner.upper <= outer.upper``."""
    return spectral.projection_leq(
        outer.lower, inner.lower
    ) and spectral.projection_leq(inner.upper, outer.upper)


def _is_proper(optuple, interval):
    """Not the whole scale: ``lower`` has some rank or ``upper`` is not full."""
    lower, upper = interval.frame.bounds[list(interval.counts)]
    return bool(lower.any()) or not np.array_equal(upper, optuple.algebra.dims)


def _require_proper(optuple, interval):
    if not _is_proper(optuple, interval):
        raise DegenerateFaceError(
            "the whole scale is not a proper face; cut it with a hyperplane first"
        )


def cut_down(optuple, interval):
    """Compress the tuple to the range of ``upper - lower``.

    The result is a ``Compression`` offset by ``lower``: its tuple lives
    over a normalized trace, so all the scale machinery applies to it
    directly, and ``lift`` maps it back onto the face.
    """
    if interval.is_point():
        raise DegenerateFaceError(
            "face is an extreme point; there is nothing to cut down to"
        )
    return Compression(optuple, interval.columns("gap"), interval.lower)


def _whole(optuple):
    """The trivial cut-down, from which successive ``cut``s compose."""
    return Compression(optuple, [np.eye(d) for d in optuple.algebra.dims])


def build_facial_complex(optuple, pairs, cluster_tol=None, eig_eq_tol=None):
    """Run the inductive cut-down construction for a pair sequence.

    Level one takes the interval projections of ``b_{t_1}`` at ``s_1``;
    every later level compresses ``b_{t_i}`` by the previous gap
    projection, takes interval projections inside the cut-down algebra,
    and keeps going while the gaps stay nonzero.  A vanishing gap stops
    the construction early and is flagged.
    """
    pairs = tuple(pairs)
    if not pairs:
        raise ValueError("need at least one spectral pair")
    comp = _whole(optuple)
    levels = []
    terminated = False
    term_level = None
    for i, pair in enumerate(pairs):
        interval = spectral.interval_projections(
            comp.tuple, pair, cluster_tol=cluster_tol, eig_eq_tol=eig_eq_tol
        )
        levels.append(
            ComplexLevel(pair, comp.embed(interval.lower), comp.embed(interval.gap()))
        )
        if i + 1 == len(pairs):
            break
        if interval.is_point():
            terminated = True
            term_level = i + 1
            break
        comp = comp.cut(interval)
    return FacialComplex(
        pairs=pairs,
        levels=tuple(levels),
        terminated_early=terminated,
        termination_level=term_level,
    )


def face_from_complex(optuple, fcomplex):
    """Assemble the face handle from a facial complex.

    The lower endpoint stacks the per-level lower projections; the upper
    endpoint adds the last level's gap on top.
    """
    q_minus = optuple.algebra.zero()
    for level in fcomplex.levels:
        q_minus = q_minus + level.q_minus
    q_plus = q_minus + fcomplex.levels[-1].r
    interval = OrderInterval(q_minus, q_plus)
    return FaceHandle(interval=interval)


def _commutant_directions(optuple, interval):
    """Orthonormal basis of ``{t : [b_t, q_minus] = [b_t, q_plus] = 0}``.

    Commutation with both endpoints is necessary for ``(-s, t)`` to
    support the face, so restricting candidate directions to this
    subspace loses no members and finds one-ray cones exactly.

    The basis does not depend on last-bit noise in the endpoints: the
    whole space is returned as the coordinate axes, and every other row
    is signed so that its largest entry (the first, on a near tie) is
    positive.
    """
    cols = []
    for b in optuple.operators:
        col = []
        for q in (interval.lower, interval.upper):
            for x, y in zip(b.blocks, q.blocks):
                c = (x @ y - y @ x).ravel()
                col.append(c.real)
                col.append(c.imag)
        cols.append(np.concatenate(col))
    mat = np.column_stack(cols)
    _, svals, vt = np.linalg.svd(mat, full_matrices=True)
    scale_ref = max(1.0, float(svals[0]) if len(svals) else 1.0)
    null_mask = np.ones(optuple.n, dtype=bool)
    null_mask[: len(svals)] = svals <= 1e-9 * scale_ref
    if null_mask.all():
        return np.eye(optuple.n)
    basis = vt[null_mask]
    mags = np.abs(basis)
    lead = np.argmax(mags >= mags.max(axis=1, keepdims=True) - 1e-9, axis=1)
    return basis * np.sign(basis[np.arange(len(basis)), lead])[:, None]


def _candidate_directions(optuple, interval, directions):
    basis = _commutant_directions(optuple, interval)
    if basis.shape[0] == 0:
        return []
    raw = scale._cloud_t_directions(optuple.n, directions)
    projected = (basis.T @ (basis @ t) for t in list(basis) + raw)
    # (-p)/|p| is -(p/|p|) bit for bit: both signs are exact negatives
    return sampling.distinct_unit_vectors(x for p in projected for x in (p, -p))


def normal_cone(
    optuple,
    interval,
    directions=sampling.DEFAULT_DIRECTIONS,
    cluster_tol=None,
    eig_eq_tol=None,
):
    """Sample the normal cone of a proper face through the order test.

    Candidate direction parts are the extreme-point sampling scheme
    projected onto the subspace commuting with both endpoint projections
    (a necessary condition for membership, and what pins down one-ray
    cones exactly); for every ``t`` the cut level sweeps the spectrum of
    ``b_t`` including gap midpoints, which is what picks up multiple
    supporting levels across a spectral gap.  The order test
    ``p_minus <= q_minus``, ``q_plus <= p_plus`` reads the frame's
    ``order_margins`` at each level's cluster counts, so no candidate
    interval is built.
    """
    _require_proper(optuple, interval)
    alg = optuple.algebra
    members = []
    pairs = []
    for frame in spectral.sweep(
        optuple,
        _candidate_directions(optuple, interval, directions),
        cluster_tol,
        eig_eq_tol,
    ):
        below, above = frame.spectrum.order_margins(interval.lower, interval.upper)
        lower, upper = frame.cuts
        member = (below[lower] <= PROJECTION_TOL) & (above[upper] <= PROJECTION_TOL)
        for s in frame.levels[member]:
            normal = np.concatenate(([-s], frame.t))
            members.append(normal / np.linalg.norm(normal))
            pairs.append(SpectralPair(s=s, t=frame.t))
    members = np.array(members) if members else np.empty((0, optuple.n + 1))
    degree = int(np.linalg.matrix_rank(members, tol=1e-8)) if len(members) else 0
    exact = False
    if all(d == 1 for d in alg.dims):
        polytope_degree = optuple.n + 1 - face_dimension(optuple, interval)
        exact = degree == polytope_degree
    return NormalConeSample(
        members=members, pairs=tuple(pairs), degree=degree, exact=exact
    )


def is_sharp(optuple, interval, directions=sampling.DEFAULT_DIRECTIONS):
    """True when the face is supported by two independent hyperplanes."""
    return normal_cone(optuple, interval, directions).degree >= 2


def block_decomposition_checks(optuple, interval, pair):
    """Violations of the three-block form of ``b_t`` for a cone member.

    For ``(-s, t)`` in the normal cone of the face, ``b_t`` must be block
    diagonal with spectrum at most ``s`` under ``q_minus``, exactly ``s``
    on the gap, at least ``s`` above ``q_plus``, and must commute with
    both endpoints.  Returns the measured violations, all of which should
    be at tolerance level.
    """
    b_t = algebra.linear_combination(optuple, pair.t)
    s = pair.s
    q_minus, q_plus = interval.lower, interval.upper
    r = interval.gap()
    out = {
        "commutator_lower": algebra.commutator_norm(b_t, q_minus),
        "commutator_upper": algebra.commutator_norm(b_t, q_plus),
    }
    lower_eigs = _restricted_eigs(b_t, interval.columns("lower"))
    out["lower_excess"] = max(float(lower_eigs.max(initial=-np.inf)) - s, 0.0)
    upper_eigs = _restricted_eigs(b_t, interval.columns("above"))
    out["upper_deficit"] = max(s - float(upper_eigs.min(initial=np.inf)), 0.0)
    mid = [
        rb @ bb @ rb - s * rb for rb, bb in zip(r.blocks, b_t.blocks)
    ]
    out["gap_mismatch"] = max(
        (float(np.max(np.abs(m))) for m in mid if m.size), default=0.0
    )
    return out


def _restricted_eigs(op, columns):
    """Eigenvalues of ``op`` compressed to the span of per-block ``columns``."""
    return np.concatenate(
        [np.linalg.eigvalsh(V.conj().T @ ob @ V) for V, ob in zip(columns, op.blocks)]
    )


def minimal_exposed_face(
    optuple,
    interval,
    directions=sampling.DEFAULT_DIRECTIONS,
    cluster_tol=None,
    eig_eq_tol=None,
):
    """Smallest sampled exposed face containing the given face.

    Sums the unit normals found in the cone sample; the combined
    direction supports the intersection of the sampled faces, which
    contains the input.  A combined normal with no ``t`` part is a pure
    trace direction: the sampled faces then meet only in ``psi(0)`` or
    ``psi(1)``, so the face of a member exposing exactly the input is
    returned, failing if none does.  Also fails when no member is found.
    """
    cone = normal_cone(optuple, interval, directions, cluster_tol, eig_eq_tol)
    return _exposed_by_cone(optuple, interval, cone, cluster_tol, eig_eq_tol)


def _exposed_by_cone(optuple, interval, cone, cluster_tol, eig_eq_tol):
    """``minimal_exposed_face`` from the face's sampled normal cone."""
    if not len(cone.members):
        raise MinimalFaceError(
            "no supporting directions found; refine the direction sample"
        )
    combined = cone.members.sum(axis=0)
    t_bar = combined[1:]
    if np.linalg.norm(t_bar) > 1e-10:
        face = scale.exposed_face(
            optuple, SpectralPair(s=-combined[0], t=t_bar), cluster_tol, eig_eq_tol
        )
    else:
        exposing = (
            scale.exposed_face(optuple, pair, cluster_tol, eig_eq_tol)
            for pair in cone.pairs
        )
        face = next(
            (f for f in exposing if intervals_equal(f.interval, interval)), None
        )
        if face is None:
            raise MinimalFaceError(
                "combined normal is a pure trace direction and no sampled "
                "member exposes the face alone; refine the sample"
            )
    if not interval_contains(face.interval, interval):
        raise InvariantViolation(
            "input face is not inside the exposed face of its combined normal"
        )
    return face


def minimal_exposed_chain(
    optuple,
    interval,
    directions=sampling.DEFAULT_DIRECTIONS,
    cluster_tol=None,
    eig_eq_tol=None,
):
    """Nested exposed faces descending to the given face.

    The first handle is exposed in the scale; each later one is exposed
    in the cut-down scale of its predecessor, transported back to the
    ambient algebra.  The chain ends when the current exposed face equals
    the target, which takes at most ``n + 1`` levels for a genuine face.
    """
    cone = normal_cone(optuple, interval, directions, cluster_tol, eig_eq_tol)
    return _chain_from_cone(
        optuple, interval, cone, directions, cluster_tol, eig_eq_tol
    )


def _chain_from_cone(optuple, interval, cone, directions, cluster_tol, eig_eq_tol):
    """``minimal_exposed_chain`` from the face's sampled normal cone, which
    serves the first level; each later level samples the cone of its
    cut-down target."""
    comp = _whole(optuple)
    target = interval
    handles = []
    for level in range(optuple.n + 2):
        if level:
            cone = normal_cone(comp.tuple, target, directions, cluster_tol, eig_eq_tol)
        exposed = _exposed_by_cone(
            comp.tuple, target, cone, cluster_tol, eig_eq_tol
        ).interval
        lifted = OrderInterval(comp.lift(exposed.lower), comp.lift(exposed.upper))
        handles.append(FaceHandle(interval=lifted))
        if intervals_equal(exposed, target):
            return handles
        comp = comp.cut(exposed)
        # the input face in the new cut-down's coordinates
        target = OrderInterval(
            comp.restrict(interval.lower - comp.lower),
            comp.restrict(interval.upper - comp.lower),
        )
    raise FaceChainError(
        f"chain did not stabilize within {optuple.n + 2} levels"
    )
