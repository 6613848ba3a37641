"""Recursive facial calculus: cut-downs, facial complexes, normal cones.

A face of the scale is an ``OrderInterval`` ``[q_minus, q_plus]`` of
projections, held as two leading ranges of a spectral frame; equality
and properness of faces compare ranks first.  A face of positive
dimension is a scale in its own right, cut down to the range of
``q_plus - q_minus`` with the trace rescaled: an ``algebra.Compression``
(``cut_down``).  A face of a face is an interval in a compression's
coordinates; ``Compression.cut`` composes cut-downs and
``Compression.lift`` carries an interval back to the ambient algebra.
Exposing, cutting down and exposing again reaches faces no single
hyperplane exposes.  The normal cone of a face is probed through the
order test: ``(-s, t)`` supports the face exactly when ``p_minus <=
q_minus`` and ``q_plus <= p_plus`` for the interval projections of
``b_t`` at ``s``.  Every face of one frame ``U`` is tested against every
level of a tested ``b_t``'s frame ``V`` at once, as prefix and suffix sums
of ``|Uᴴ V|²`` (``SpectralFrame.order_margins``), so no endpoint is
built.  ``normal_cones`` samples the cones of many faces in one pass.
Candidate directions lie in the face's commutant directions, which are
read off the face's frame: every face's commutator matrix is the entries
of its frame's table (``SpectralFrame.entries``, built once per distinct
frame) that cross its cuts, all faces going through one stacked SVD.
The face pass (``sweep_face_cones``) sweeps, keeps the distinct sweep
faces and samples their cones on the sweep's own frames, decomposing only
the other candidates, in one batch, and tests a one-ray cone on its
face's own sweep direction.  ``Ψ(1 - a) = Ψ(1) - Ψ(a)`` maps the scale
onto itself, so a face of the core's mirror frame of ``b_{-t}`` that is
``Ψ(1)`` minus a face of ``b_t``'s frame (``spectral._mirrored``) has that
face's commutant and candidates and the negated cone: when the face pass
keeps both, the mirror's groups are its partner's mirrored and its degree
its partner's, so each antipodal pair is tested once.  Member normals and
degrees are stacked over all faces.  A cone keeps its members grouped by
tested direction, each group with the frame it was tested on
(``ConeGroup``), which gap
detection and the pure-trace step of a chain read instead of decomposing
again.  A sweep face is exposed by its own pair, so its minimal exposed
chain is the face itself once that pair is found in its cone
(``sweep_face_chain``); ``minimal_exposed_chain`` builds the chain of any
face from its cone sample.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import algebra, sampling, scale, spectral
from .algebra import Compression
from .errors import (
    DegenerateFaceError,
    FaceChainError,
    InvariantViolation,
    MinimalFaceError,
)
from .scale import face_dimension
from .spectral import PROJECTION_TOL, OrderInterval, SpectralPair

# Bound on one stacked (faces, rows, n) commutator matrix of the cone pass;
# the faces of one frame are decomposed in chunks of at most this size.
COMMUTANT_CHUNK_BYTES = 2**22


@dataclass(frozen=True)
class FacialComplex:
    """Per level, the ``Compression`` it lives in and its interval there."""

    pairs: tuple
    levels: tuple
    termination_level: int | None = None

    @property
    def terminated_early(self):
        return self.termination_level is not None


# The members of a normal cone on one tested direction part: the checked
# ``t``, the member levels ``s`` and the ``spectral.DirectionFrame`` of
# ``b_t`` they were read off.
ConeGroup = namedtuple("ConeGroup", "t levels frame")


@dataclass(frozen=True)
class NormalConeSample:
    """Members of the normal cone found by sampling, with the degree.

    ``degree`` is the rank of the member span, a lower bound for the true
    degree; ``exact`` marks the diagonal-algebra case where that rank
    meets the polytope value ``(n + 1) - dim(face)``.
    """

    members: np.ndarray  # (k, n+1) unit normals (-s, t)
    groups: tuple  # ConeGroups, one per tested t with members, in order
    degree: int
    exact: bool

    @property
    def pairs(self):
        """Every member as a ``SpectralPair``, group by group."""
        return tuple(
            SpectralPair._at_level(s, g.t)
            for g in self.groups
            for s in g.levels.tolist()
        )


def in_generated_algebra(optuple, op, basis=None):
    """Whether ``op`` lies in the algebra generated by the tuple.

    Expands against a trace-orthonormal basis and bounds the residual's
    entries by 1e-6; face endpoint projections always pass since interval
    projections are polynomials in the ``b_t`` they come from.
    """
    if basis is None:
        basis = algebra.generated_algebra_basis(optuple)
    stacks = algebra.stacked(basis)
    residual = algebra._span_residual(optuple.algebra, stacks, op.stacks)
    return algebra._max_abs(residual) <= 1e-6


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


def ranks(interval):
    """Per block, the ranks of ``lower`` and ``upper``, as a ``(2, blocks)`` array."""
    return interval.frame.bounds[list(interval.counts)]


def _is_proper(optuple, interval):
    """Not the whole scale: ``lower`` has some rank or ``upper`` is not full."""
    lower, upper = ranks(interval)
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
    alg = optuple.algebra
    dims = np.array(alg.dims)
    one = algebra.ColumnRanges(alg.layout, alg.identity().stacks, 0 * dims, dims)
    return Compression(optuple, one)


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
    for i, pair in enumerate(pairs):
        interval = spectral.interval_projections(
            comp.tuple, pair, cluster_tol=cluster_tol, eig_eq_tol=eig_eq_tol
        )
        levels.append((comp, interval))
        if i + 1 == len(pairs):
            break
        if interval.is_point():
            return FacialComplex(pairs, tuple(levels), termination_level=i + 1)
        comp = comp.cut(interval)
    return FacialComplex(pairs, tuple(levels))


def _lift(comp, interval):
    """An interval in ``comp``'s coordinates as an ambient interval, through
    the checked ``OrderInterval`` constructor."""
    return OrderInterval(comp.lift(interval.lower), comp.lift(interval.upper))


def face_from_complex(fcomplex):
    """The ambient interval of a facial complex: its last level, lifted."""
    return _lift(*fcomplex.levels[-1])


def _commutant_bases(optuple, intervals):
    """Per interval, in order, an orthonormal basis of ``{t : [b_t, q_minus]
    = [b_t, q_plus] = 0}``.

    Commutation with both endpoints is necessary for ``(-s, t)`` to
    support the face, so restricting candidate directions to this
    subspace loses no members and finds one-ray cones exactly.  The basis
    is the null space of the ``(4·Σd², n)`` matrix whose column ``i`` holds
    the real and imaginary parts of ``[b_i, q_minus]`` and ``[b_i,
    q_plus]``, read off the interval's frame ``V``.  An endpoint ``q`` is a
    leading column range of ``V``, so ``Vᴴ [b_i, q] V`` is ``±Y_i[r, c]``,
    ``Y_i = Vᴴ b_i V``, where row ``r`` and column ``c`` lie on opposite
    sides of the cut, and zero elsewhere: the entries of the frame's table
    (``SpectralFrame.entries``, built once per distinct frame) with ``lo <
    count <= hi``.  A unitary change of basis keeps the singular values,
    and so does keeping only the entries below the diagonal, Hermitian
    mirrors of those above, with the singular values scaled back by
    ``√2``.  The matrix is padded with zero rows to at least ``n`` so that
    its thin SVD is complete; the faces' matrices go through one stacked QR
    and one stacked SVD of the ``R`` factors per chunk of at most
    ``COMMUTANT_CHUNK_BYTES``.  Null directions are the singular values
    ``<= 1e-9·max(1, s_0)``.  The basis does not depend on last-bit noise
    in the endpoints: the whole space is returned as the coordinate axes,
    and every other row is signed so that its largest entry (the first, on
    a near tie) is positive.
    """
    n = optuple.n
    bases = [None] * len(intervals)
    for frame, which in spectral._by_frame([iv.frame for iv in intervals]):
        table = frame.entries(optuple)
        below = table.row > table.col
        y, lo, hi = table.values[:, below], table.lo[below], table.hi[below]
        rows = 4 * y.shape[1]  # both endpoints, re and im
        counts = np.array([intervals[f].counts for f in which])[:, :, None]
        step = max(1, COMMUTANT_CHUNK_BYTES // (8 * n * max(rows, n)))
        for first in range(0, len(which), step):
            chunk = counts[first : first + step]
            crossing = (lo < chunk) & (chunk <= hi)  # (faces, 2, entries)
            c = (y[:, None, None] * crossing).reshape(n, len(chunk), -1)
            mats = np.concatenate([c.real, c.imag], axis=-1).transpose(1, 2, 0)
            if rows < n:
                mats = np.concatenate(
                    [mats, np.zeros((len(chunk), n - rows, n))], axis=1
                )
            r_factors = np.linalg.qr(mats, mode="r")
            _, svals, vt = np.linalg.svd(r_factors, full_matrices=False)
            for f, sv, v in zip(which[first : first + step], svals, vt):
                bases[f] = _null_rows(np.sqrt(2.0) * sv, v)
    return bases


def _null_rows(svals, vt):
    """The rows of ``vt`` whose singular values are ``<= 1e-9·max(1, s_0)``,
    signed, or the coordinate axes when all of them are."""
    null_mask = svals <= 1e-9 * max(1.0, float(svals[0]))
    if null_mask.all():
        return np.eye(len(svals))
    basis = vt[null_mask]
    mags = np.abs(basis)
    lead = np.argmax(mags >= mags.max(axis=1, keepdims=True) - 1e-9, axis=1)
    return basis * np.sign(basis[np.arange(len(basis)), lead])[:, None]


def _candidate_directions(basis, raw):
    """Candidate direction parts for a face's cone: its commutant ``basis``
    and the sampled direction parts ``raw``, projected onto the commutant,
    with both signs."""
    if basis.shape[0] == 0:
        return []
    projected = np.vstack([basis, *raw]) @ basis.T @ basis  # one row per t
    # (-p)/|p| is -(p/|p|) bit for bit: both signs are exact negatives
    signed = np.stack([projected, -projected], axis=1).reshape(-1, basis.shape[1])
    return sampling.distinct_unit_vectors(signed)


def _ray_candidates(basis, ray):
    """The candidates of a one-dimensional commutant ``b`` that is the line
    of the face's sweep direction ``ray``: the exact bytes of ``±ray``,
    ``b``'s sign first, so the frames the sweep decomposed serve them.
    None when there is no ray, the commutant has another dimension, or the
    ray is not parallel to ``b`` within 1e-9."""
    if ray is None or len(basis) != 1:
        return None
    signed = ray if basis[0] @ ray >= 0 else -ray
    if np.abs(signed - basis[0]).max() > 1e-9:
        return None
    return [signed, -signed]


def sweep_face_cones(
    optuple, directions=sampling.DEFAULT_DIRECTIONS, cluster_tol=None, eig_eq_tol=None
):
    """The frames of a sweep and ``(face, cone)`` per distinct sweep face,
    the cone None for the whole scale.

    The cones of all proper faces are sampled together on the sweep's
    direction parts (``scale.sweep_frames``), each on its face's sweep ray
    and with its dimension, and read the sweep's frames, so each direction
    part is decomposed once.  A sweep face is kept unless an earlier kept
    face spans the same interval; faces are bucketed by rank first, as
    faces of different ranks never match.  A kept face of the mirror frame
    of ``-t`` that is ``Ψ(1)`` minus a kept face of ``t``'s frame
    (``spectral._mirrored``) reads its cone off that face's.
    """
    swept = scale.sweep_frames(optuple, directions, cluster_tol, eig_eq_tol)
    distinct, by_ranks = [], {}
    for frame in swept:
        for face in scale.faces_in_frame(frame):
            bucket = by_ranks.setdefault(ranks(face.interval).tobytes(), [])
            if not any(intervals_equal(face.interval, f) for f in bucket):
                bucket.append(face.interval)
                distinct.append(face)
    tested = [f for f in distinct if _is_proper(optuple, f.interval)]
    intervals = [f.interval for f in tested]
    cones = _sample_cones(
        optuple,
        intervals,
        [f.t for f in swept],
        (cluster_tol, eig_eq_tol),
        swept,
        rays=[f.pair.t for f in tested],
        dimensions=[f.dimension for f in tested],
        partners=spectral._mirrored(intervals),
    )
    cone_of = dict(zip(map(id, tested), cones))
    return swept, [(f, cone_of.get(id(f))) for f in distinct]


def normal_cones(
    optuple,
    intervals,
    directions=sampling.DEFAULT_DIRECTIONS,
    cluster_tol=None,
    eig_eq_tol=None,
):
    """Sample the normal cones of proper faces through the order test.

    Candidate direction parts are the extreme-point sampling scheme
    projected onto the subspace commuting with both endpoint projections
    of the face (a necessary condition for membership, and what pins down
    one-ray cones exactly); for every ``t`` the cut level sweeps the
    spectrum of ``b_t`` including gap midpoints, which is what picks up
    multiple supporting levels across a spectral gap.  Faces with the same
    commutant basis share its candidates.  All cones are sampled in one
    pass (``_sample_cones``), each distinct ``t`` decomposed once.
    """
    intervals = list(intervals)
    for interval in intervals:
        _require_proper(optuple, interval)
    return _sample_cones(
        optuple,
        intervals,
        scale._cloud_t_directions(optuple.n, directions),
        (cluster_tol, eig_eq_tol),
    )


def _sample_cones(
    optuple, intervals, raw, tols, swept=(), rays=None, dimensions=None, partners=None
):
    """``normal_cones`` of proper faces ``intervals`` on the sampled direction
    parts ``raw``, with ``tols`` the cluster and equality tolerances.  The
    ``spectral.DirectionFrame``s of ``swept``, decomposed already, serve
    the candidates whose ``t`` has their exact bytes; all other candidates
    are decomposed together, in one ``spectral.direction_frames``.

    A sweep that found the faces may pass each one's direction part as
    ``rays``, which a one-ray cone is tested on (``_ray_candidates``), and
    its dimension as ``dimensions``, which the ``exact`` flag reads.  The
    commutants come from one stacked SVD (``_commutant_bases``).  The order
    test ``p_minus <= q_minus``, ``q_plus <= p_plus`` of the faces of one
    frame whose candidates hold ``t`` is one ``order_margins`` of that
    frame against ``t``'s, read at each level's cluster counts, so no
    projection is built.  Each face's members are grouped by candidate, in
    order, each ``ConeGroup`` holding the frame its levels were read off.

    The face pass passes ``partners``, per face the position of the face
    it mirrors or -1 (``spectral._mirrored``).  A face ``Ψ(1) - F`` that
    mirrors a face ``F`` has ``F``'s commutant, candidates and degree, and
    its groups are ``F``'s mirrored (``_mirror_groups``): it gets no
    commutant, order test or rank of its own.  Without ``partners`` every
    face is sampled on its own, so a face's cone does not depend on the
    other faces of the call.
    """
    if rays is None:
        rays = [None] * len(intervals)
    if partners is None:
        partners = np.full(len(intervals), -1)
    own = np.flatnonzero(partners < 0).tolist()
    candidates = {}
    shared = {}  # exact bytes of a commutant basis -> its candidates
    for f, basis in zip(own, _commutant_bases(optuple, [intervals[f] for f in own])):
        ts = _ray_candidates(basis, rays[f])
        if ts is None:
            key = basis.tobytes()
            if key not in shared:
                shared[key] = _candidate_directions(basis, raw)
            ts = shared[key]
        candidates[f] = ts
    tests = {}  # (exact bytes of t, id of a face frame) -> (t, [(face, position)])
    for f, ts in candidates.items():
        for k, t in enumerate(ts):
            key = t.tobytes(), id(intervals[f].frame)
            tests.setdefault(key, (t, []))[1].append((f, k))
    frames = {frame.t.tobytes(): frame for frame in swept}
    new = {key: t for (key, _), (t, _) in tests.items() if key not in frames}
    frames.update(zip(new, spectral.direction_frames(optuple, [*new.values()], *tols)))
    found = {f: [None] * len(ts) for f, ts in candidates.items()}
    for (key, _), (_, group) in tests.items():
        frame = frames[key]
        counts = np.array([intervals[f].counts for f, _ in group])
        below, above = frame.spectrum.order_margins(
            intervals[group[0][0]].frame, *counts.T
        )
        lower, upper = frame.cuts
        member = np.maximum(below[:, lower], above[:, upper]) <= PROJECTION_TOL
        t = SpectralPair(s=0.0, t=frame.t).t  # checked once for its pairs
        for (f, k), row in zip(group, member):
            found[f][k] = ConeGroup(t, frame.levels[row], frame)
    for f, p in enumerate(partners.tolist()):
        if p >= 0:
            found[f] = _mirror_groups(found[p], candidates[p])
    groups = [tuple(g for g in found[f] if len(g.levels)) for f in sorted(found)]
    return _cone_samples(optuple, intervals, groups, partners, dimensions)


def _mirror_groups(groups, ts):
    """The groups of ``Ψ(1) - F`` from ``groups``, those of the face ``F`` on
    its candidates ``ts``, which come in exact ``±`` pairs.

    ``(-s, t)`` supports ``Ψ(1) - F`` exactly when ``(s, -t)`` supports
    ``F``, so the mirror's group at ``t`` holds the levels of ``F``'s group
    at ``-t``, negated and reversed to ascend, on ``t``'s frame (``F``'s
    group at ``t`` holds it)."""
    place = {t.tobytes(): k for k, t in enumerate(ts)}
    return [
        ConeGroup(g.t, -groups[place[(-t).tobytes()]].levels[::-1], g.frame)
        for g, t in zip(groups, ts)
    ]


def _cone_samples(optuple, intervals, groups, partners, dimensions=None):
    """The ``NormalConeSample`` of every face from its ``ConeGroup``s.

    All members are normalized together, and the degree of every face
    that mirrors none (``partners[f] < 0``) is one stacked ``matrix_rank``
    over its members padded with zero rows, which leave the rank as it is;
    a mirror face takes its partner's degree.  ``exact`` reads
    ``dimensions[f]`` when given.
    """
    n = optuple.n
    hits = [(f, g) for f, gs in enumerate(groups) for g in gs]
    sizes = [len(g.levels) for _, g in hits]
    owner = np.repeat([f for f, _ in hits], sizes).astype(int)
    members = np.empty((len(owner), n + 1))
    if hits:
        members[:, 0] = -np.concatenate([g.levels for _, g in hits])
        members[:, 1:] = np.repeat([g.t for _, g in hits], sizes, axis=0)
    members /= np.linalg.norm(members, axis=1, keepdims=True)
    counts = np.bincount(owner, minlength=len(groups))
    starts = np.cumsum(counts) - counts
    padded = np.zeros((len(groups), max(counts, default=0), n + 1))
    padded[owner, np.arange(len(owner)) - starts[owner]] = members
    own = partners < 0
    degrees = counts.copy()
    if padded.size:
        degrees[own] = np.linalg.matrix_rank(padded[own], tol=1e-8)
    degrees[~own] = degrees[partners[~own]]
    diagonal = all(d == 1 for d in optuple.algebra.dims)
    if diagonal and dimensions is None:
        dimensions = [face_dimension(optuple, iv) for iv in intervals]
    return [
        NormalConeSample(
            members=members[starts[f] : starts[f] + counts[f]],
            groups=groups[f],
            degree=int(degrees[f]),
            exact=bool(diagonal and degrees[f] == n + 1 - dimensions[f]),
        )
        for f in range(len(intervals))
    ]


def normal_cone(
    optuple,
    interval,
    directions=sampling.DEFAULT_DIRECTIONS,
    cluster_tol=None,
    eig_eq_tol=None,
):
    """The normal cone of one proper face: ``normal_cones`` of ``[interval]``."""
    (cone,) = normal_cones(optuple, [interval], directions, cluster_tol, eig_eq_tol)
    return cone


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
    mid = (x @ y @ x - s * x for x, y in zip(r.stacks, b_t.stacks))
    out["gap_mismatch"] = algebra._max_abs(mid)
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
    """``minimal_exposed_face`` from the face's sampled normal cone; a
    member's face is read off the frame its group was tested on."""
    if not len(cone.members):
        raise MinimalFaceError(
            "no supporting directions found; refine the direction sample"
        )
    combined = cone.members.sum(axis=0)
    t_bar = combined[1:]
    if np.linalg.norm(t_bar) > 1e-10:
        pair = SpectralPair(s=-combined[0], t=t_bar)
        face = scale.exposed_face(optuple, pair, cluster_tol, eig_eq_tol)
    else:
        exposing = (
            scale.exposed_in_frame(g.frame, SpectralPair._at_level(s, g.t))
            for g in cone.groups
            for s in g.levels.tolist()
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


def sweep_face_chain(face, cone):
    """``minimal_exposed_chain`` of a face a sweep exposed (a
    ``scale.ExposedFace``), from its sampled normal cone: the face alone.

    The face is exposed by its own pair, and the combined normal of cone
    members ``u_i`` exposes ``face(Σ u_i) = ∩ face(u_i)``, so once that pair
    is a member the smallest exposed face containing the face is the face
    itself.  Membership is checked, not assumed: some member pair must
    match the face's within 1e-9 in ``s`` and in (unit) ``t``, or
    ``InvariantViolation`` is raised.
    """
    s, t = face.pair.s, face.pair.t
    if any(
        np.abs(g.t - t).max() <= 1e-9 and (np.abs(g.levels - s) <= 1e-9).any()
        for g in cone.groups
    ):
        return [face.interval]
    raise InvariantViolation(
        "the pair that exposes a sweep face is not a member of its normal cone"
    )


def minimal_exposed_chain(
    optuple,
    interval,
    directions=sampling.DEFAULT_DIRECTIONS,
    cluster_tol=None,
    eig_eq_tol=None,
):
    """Nested exposed faces descending to the given face.

    The first face is exposed in the scale; each later one is exposed
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
    cut-down target in the cut-down tuple."""
    comp = _whole(optuple)
    current, target = optuple, interval
    chain = []
    for level in range(optuple.n + 2):
        if level:
            current = comp.tuple
            cone = normal_cone(current, target, directions, cluster_tol, eig_eq_tol)
        exposed = _exposed_by_cone(
            current, target, cone, cluster_tol, eig_eq_tol
        ).interval
        # the first level is exposed in the ambient tuple already
        chain.append(_lift(comp, exposed) if level else exposed)
        if intervals_equal(exposed, target):
            return chain
        comp = comp.cut(exposed)
        # the input face in the new cut-down's coordinates
        target = OrderInterval(
            comp.restrict(interval.lower - comp.lower),
            comp.restrict(interval.upper - comp.lower),
        )
    raise FaceChainError(f"chain did not stabilize within {optuple.n + 2} levels")
