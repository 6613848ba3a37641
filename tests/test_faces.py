import numpy as np
import pytest

from conftest import sampled_face_inventory
from specscale import fixtures, spectral
from specscale.algebra import (
    FiniteAlgebra,
    HermitianOperator,
    OperatorTuple,
    max_norm,
    psi,
)
from specscale.errors import DegenerateFaceError, MinimalFaceError
from specscale.faces import (
    _commutant_bases,
    block_decomposition_checks,
    build_facial_complex,
    cut_down,
    face_dimension,
    face_from_complex,
    intervals_equal,
    interval_contains,
    is_sharp,
    minimal_exposed_chain,
    minimal_exposed_face,
    normal_cone,
    normal_cones,
)
from specscale.oracle import random_ball_operators
from specscale.scale import exposed_face
from specscale.spectral import OrderInterval, SpectralPair, interval_projections
from specscale.structure import detect_gap


def whole_interval(optuple):
    return OrderInterval(optuple.algebra.zero(), optuple.algebra.identity())


def diag_projection(optuple, bits):
    return optuple.algebra.diagonal(np.array(bits, dtype=float))


def fd_hidden_vertex_interval(fd):
    t_tan, s = fixtures.hidden_vertex_data()
    cx = build_facial_complex(
        fd,
        [SpectralPair(-s, -t_tan), SpectralPair(2.0, np.array([1.0, 0.0]))],
    )
    return face_from_complex(cx), t_tan


# ---------------------------------------------------------------- cut-downs


def test_cut_down_by_identity_is_the_original(pauli):
    cut = cut_down(pauli, whole_interval(pauli))
    assert cut.trace_r == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(cut.base_point, 0.0, atol=1e-12)
    for a in random_ball_operators(pauli, 5, seed=0):
        restricted = cut.restrict(a)
        assert max_norm(cut.lift(restricted) - a) <= 1e-10
        np.testing.assert_allclose(
            psi(cut.tuple, restricted), psi(pauli, a), atol=1e-10
        )


def test_cut_down_reciprocal_eigenvalue(reciprocal8):
    interval = interval_projections(
        reciprocal8, SpectralPair(1.0 / 3.0, np.array([1.0]))
    )
    cut = cut_down(reciprocal8, interval)
    assert cut.tuple.algebra.total_dim == 1
    assert cut.tuple.operators[0].blocks[0][0, 0].real == pytest.approx(
        1.0 / 3.0, abs=1e-12
    )
    assert cut.trace_r == pytest.approx(
        2.0**-3 / (1 - 2.0**-8), abs=1e-12
    )


def test_cut_down_pauli_projection(pauli):
    p = 0.5 * (pauli.algebra.identity() + pauli.operators[0])
    cut = cut_down(pauli, OrderInterval(pauli.algebra.zero(), p))
    b1, b2 = cut.tuple.operators
    assert b1.blocks[0][0, 0].real == pytest.approx(1.0, abs=1e-12)
    assert max_norm(b2) <= 1e-12
    assert cut.trace_r == pytest.approx(0.5, abs=1e-12)


def test_cut_down_rejects_points(two_point):
    p = diag_projection(two_point, [1, 0])
    with pytest.raises(DegenerateFaceError):
        cut_down(two_point, OrderInterval(p, p))


@pytest.mark.parametrize(
    "name",
    [
        "reciprocal8",
        "pauli",
        "commuting",
        "blockpair",
        "commuting-cut",
        "blockpair-cut",
        "dense-cut",
    ],
)
def test_cut_down_reconstruction(name, request):
    # psi(q-) + tr(r) psi_r(x) must reproduce psi(q- + rxr) on the ball;
    # "-cut" composes a second cut-down inside the first with Compression.cut
    base = name.removesuffix("-cut")
    optuple = request.getfixturevalue(base)
    if name != base:
        outer, inner = _two_level_cut(optuple, base)
        cut = outer.cut(inner)
    else:
        cut = cut_down(optuple, _some_positive_face(optuple))
    for x in random_ball_operators(cut.tuple, 50, seed=1):
        lhs = cut.base_point + cut.trace_r * psi(cut.tuple, x)
        rhs = psi(optuple, cut.lift(x))
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def _some_positive_face(optuple, top=False):
    t = np.zeros(optuple.n)
    t[0] = 1.0
    from specscale.algebra import linear_combination

    b = linear_combination(optuple, t)
    values = spectral.decompose(optuple.algebra, b).values
    return interval_projections(optuple, SpectralPair(values[-1 if top else 0], t))


@pytest.fixture(scope="module")
def dense():
    """Two random operators on a 3x3 block next to a 1x1 block where
    ``b_2`` sits above the 3x3 block's spectrum."""
    rng = np.random.default_rng(5)
    ops = []
    for top in (rng.standard_normal(), 10.0):
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        ops.append(HermitianOperator([z + z.conj().T, [[top]]]))
    return OperatorTuple(FiniteAlgebra(((3, 0.25), (1, 0.25))), tuple(ops))


def _two_level_cut(optuple, name):
    """An interval cut down, and an interval in the cut-down (its top face
    along ``b_1``); both have a nonzero lower end.  The outer interval is a
    two-dimensional exposed face, or for ``dense`` the span of the middle
    two eigenvectors of ``b_2`` in the 3x3 block, so that both the outer
    and the inner isometries are nontrivial there."""
    if name == "dense":
        t = np.array([0.0, 1.0])
        values = spectral.decompose(optuple.algebra, optuple.operators[1]).values
        lower, upper = (
            interval_projections(optuple, SpectralPair(s, t)).upper
            for s in values[[0, 2]]
        )
        interval = OrderInterval(lower, upper)
    else:
        if name == "blockpair":  # the upper tangency parallelogram
            t_tan, s = fixtures.hidden_vertex_data()
            pair = SpectralPair(s, t_tan)
        else:
            pair = SpectralPair(1.0, np.array([0.0, 1.0]))
        face = exposed_face(optuple, pair)
        assert face.dimension == 2
        interval = face.interval
    assert max_norm(interval.lower) > 0.2
    outer = cut_down(optuple, interval)
    inner = _some_positive_face(outer.tuple, top=True)
    assert max_norm(inner.lower) > 0.2 and not inner.is_point()
    return outer, inner


@pytest.mark.parametrize("name", ["commuting", "blockpair", "dense"])
def test_two_level_cut_matches_two_step_compression(name, request):
    # one cut with composed isometries V W and a lifted lower end does what
    # compressing the cut-down again and embedding twice does
    optuple = request.getfixturevalue(name)
    outer, inner = _two_level_cut(optuple, name)
    cut = outer.cut(inner)
    step = cut_down(outer.tuple, inner)
    assert cut.trace_r == pytest.approx(outer.trace_r * step.trace_r, abs=1e-12)
    assert cut.tuple.algebra.dims == step.tuple.algebra.dims
    np.testing.assert_allclose(
        cut.tuple.algebra.weights, step.tuple.algebra.weights, rtol=0, atol=1e-12
    )
    for got, want in zip(cut.tuple.operators, step.tuple.operators):
        assert max_norm(got - want) <= 1e-12
    assert max_norm(cut.lower - outer.lift(inner.lower)) <= 1e-12
    for a in random_ball_operators(optuple, 5, seed=2):
        assert max_norm(cut.restrict(a) - step.restrict(outer.restrict(a))) <= 1e-12
    for x in random_ball_operators(cut.tuple, 5, seed=3):
        assert max_norm(cut.embed(x) - outer.embed(step.embed(x))) <= 1e-12
        assert max_norm(cut.lift(x) - outer.lift(step.lift(x))) <= 1e-12


# ---------------------------------------------------------- facial complexes


def test_single_pair_complex_degenerates(reciprocal8):
    pair = SpectralPair(1.0 / 3.0, np.array([1.0]))
    cx = build_facial_complex(reciprocal8, [pair])
    face = face_from_complex(cx)
    direct = interval_projections(reciprocal8, pair)
    assert intervals_equal(face, direct)


def test_two_level_scalar_cutdown(reciprocal8):
    # level one pins the rank-one eigenspace at 1/3, so the level-two
    # compression is the scalar 1/3: a cut level at the scalar reproduces
    # the whole segment, above it the right endpoint, below it the left
    first = SpectralPair(1.0 / 3.0, np.array([1.0]))
    direct = interval_projections(reciprocal8, first)

    at = build_facial_complex(
        reciprocal8, [first, SpectralPair(1.0 / 3.0, np.array([1.0]))]
    )
    assert not at.terminated_early and at.termination_level is None
    face_at = face_from_complex(at)
    assert intervals_equal(face_at, direct)

    high = build_facial_complex(
        reciprocal8, [first, SpectralPair(0.4, np.array([1.0]))]
    )
    face_high = face_from_complex(high)
    assert face_high.is_point()
    assert max_norm(face_high.lower - direct.upper) <= 1e-10

    low = build_facial_complex(
        reciprocal8, [first, SpectralPair(0.2, np.array([1.0]))]
    )
    face_low = face_from_complex(low)
    assert face_low.is_point()
    assert max_norm(face_low.lower - direct.lower) <= 1e-10


def test_complex_terminates_early_in_a_gap(reciprocal8):
    first = SpectralPair(0.4, np.array([1.0]))
    cx = build_facial_complex(
        reciprocal8, [first, SpectralPair(0.0, np.array([1.0]))]
    )
    assert cx.terminated_early
    assert cx.termination_level == 1
    assert len(cx.levels) == 1
    # the face is level one's point, not a cut of it
    face = face_from_complex(cx)
    direct = interval_projections(reciprocal8, first)
    assert face.is_point()
    assert max_norm(face.lower - direct.lower) <= 1e-10
    assert max_norm(face.upper - direct.upper) <= 1e-10


def test_two_level_complex_reaches_hidden_vertex(blockpair):
    interval, t_tan = fd_hidden_vertex_interval(blockpair)
    assert interval.is_point()
    w = psi(blockpair, interval.lower)
    expected = 0.25 * np.array([1.0, t_tan[0], t_tan[1]])
    np.testing.assert_allclose(w, expected, atol=1e-10)


# ------------------------------------------------------------ face dimension


def test_face_dimension_point(two_point):
    p = diag_projection(two_point, [1, 0])
    assert face_dimension(two_point, OrderInterval(p, p)) == 0


def test_face_dimension_segment(reciprocal8):
    interval = interval_projections(
        reciprocal8, SpectralPair(1.0 / 3.0, np.array([1.0]))
    )
    assert face_dimension(reciprocal8, interval) == 1


def test_face_dimension_two_face(commuting):
    face = exposed_face(commuting, SpectralPair(-1.0, np.array([0.0, -1.0])))
    expected_upper = diag_projection(commuting, [1, 1, 0, 0])
    assert max_norm(face.interval.upper - expected_upper) <= 1e-10
    assert face.dimension == 2
    cut = cut_down(commuting, face.interval)
    b1_values = sorted(
        float(b[0, 0].real) for b in cut.tuple.operators[0].blocks
    )
    assert b1_values == [1.0, 2.0]  # compressed b1 is not scalar


# -------------------------------------------------------------- normal cones


def test_normal_cone_of_zonotope_facet(commuting):
    face = exposed_face(commuting, SpectralPair(-1.0, np.array([0.0, -1.0])))
    cone = normal_cone(commuting, face.interval, 128)
    assert cone.degree == 1
    assert cone.exact


def test_normal_cone_of_gap_vertex(two_point):
    face = exposed_face(two_point, SpectralPair(0.5, np.array([1.0])))
    cone = normal_cone(two_point, face.interval, 64)
    assert cone.degree == 2
    levels = sorted(p.s for p in cone.pairs if p.t[0] > 0)
    assert levels[0] == pytest.approx(0.0, abs=1e-12)
    assert levels[-1] == pytest.approx(1.0, abs=1e-12)


def test_normal_cone_rejects_whole_scale(two_point):
    with pytest.raises(DegenerateFaceError):
        normal_cone(two_point, whole_interval(two_point), 16)


@pytest.mark.parametrize("name", ["two_point", "reciprocal8", "pauli", "commuting", "blockpair"])
def test_block_form_for_every_cone_member(name, request):
    optuple = request.getfixturevalue(name)
    for face in sampled_face_inventory(optuple):
        cone = normal_cone(optuple, face, 64)
        for pair in cone.pairs:
            checks = block_decomposition_checks(optuple, face, pair)
            assert max(checks.values()) <= 1e-8


@pytest.mark.parametrize("name", ["two_point", "reciprocal8", "pauli", "commuting", "blockpair"])
def test_degree_plus_dimension_bound(name, request):
    # the normal cone is orthogonal to the face, so the two dimensions
    # cannot exceed the ambient n + 1 together
    optuple = request.getfixturevalue(name)
    for face in sampled_face_inventory(optuple):
        cone = normal_cone(optuple, face, 64)
        dim = face_dimension(optuple, face)
        assert cone.degree + dim <= optuple.n + 1




def test_extreme_point_block_form(two_point):
    face = exposed_face(two_point, SpectralPair(0.5, np.array([1.0])))
    cone = normal_cone(two_point, face.interval, 32)
    q = face.interval.lower
    for pair in cone.pairs:
        checks = block_decomposition_checks(two_point, face.interval, pair)
        assert checks["lower_excess"] <= 1e-8
        assert checks["upper_deficit"] <= 1e-8


# ------------------------------------------------------------------ sharpness


def test_zonotope_facet_is_not_sharp(commuting):
    face = exposed_face(commuting, SpectralPair(-1.0, np.array([0.0, -1.0])))
    assert not is_sharp(commuting, face.interval, 128)


def test_gap_vertex_is_sharp(reciprocal8):
    face = exposed_face(reciprocal8, SpectralPair(5.0 / 12.0, np.array([1.0])))
    assert face.interval.is_point()
    assert is_sharp(reciprocal8, face.interval, 32)


def test_origin_is_sharp(pauli):
    zero = pauli.algebra.zero()
    assert is_sharp(pauli, OrderInterval(zero, zero), 64)


# --------------------------------------------------- minimal faces and chains


def test_minimal_exposed_face_of_exposed_input(reciprocal8):
    face = exposed_face(reciprocal8, SpectralPair(1.0 / 3.0, np.array([1.0])))
    minimal = minimal_exposed_face(reciprocal8, face.interval, 32)
    assert intervals_equal(minimal.interval, face.interval)


def test_minimal_exposed_face_of_gap_vertex(reciprocal8):
    face = exposed_face(reciprocal8, SpectralPair(5.0 / 12.0, np.array([1.0])))
    minimal = minimal_exposed_face(reciprocal8, face.interval, 32)
    assert minimal.dimension == 0
    # the combined normal is not unit-normalized; the effective cut level
    # per unit direction must land inside the spectral gap
    effective = minimal.pair.s / np.linalg.norm(minimal.pair.t)
    assert 1.0 / 3.0 < effective < 1.0 / 2.0


def test_minimal_exposed_face_of_hidden_vertex(blockpair):
    interval, _ = fd_hidden_vertex_interval(blockpair)
    minimal = minimal_exposed_face(blockpair, interval, 128)
    assert minimal.dimension == 2
    assert interval_contains(minimal.interval, interval)


def test_minimal_face_error_on_non_face_interval(commuting):
    # [e2, e2 + e3] is not a face of the zonotope: no direction supports it
    lower = diag_projection(commuting, [0, 1, 0, 0])
    upper = diag_projection(commuting, [0, 1, 1, 0])
    with pytest.raises(MinimalFaceError):
        minimal_exposed_face(commuting, OrderInterval(lower, upper), 64)


def test_chain_of_exposed_face_has_length_one(commuting):
    face = exposed_face(commuting, SpectralPair(-1.0, np.array([0.0, -1.0])))
    chain = minimal_exposed_chain(commuting, face.interval, 64)
    assert len(chain) == 1
    assert intervals_equal(chain[0], face.interval)


def test_chain_of_hidden_vertex_has_length_two(blockpair):
    interval, _ = fd_hidden_vertex_interval(blockpair)
    chain = minimal_exposed_chain(blockpair, interval, 128)
    assert len(chain) == 2
    assert intervals_equal(chain[-1], interval)
    dims = [face_dimension(blockpair, iv) for iv in chain]
    assert dims == [2, 0]
    assert interval_contains(chain[0], chain[1])


def test_face_handles_live_in_the_generated_algebra(blockpair):
    from specscale.algebra import generated_algebra_basis
    from specscale.faces import in_generated_algebra

    basis = generated_algebra_basis(blockpair)
    interval, _ = fd_hidden_vertex_interval(blockpair)
    candidates = [interval] + sampled_face_inventory(blockpair, 16)
    for iv in candidates:
        for q in (iv.lower, iv.upper):
            assert in_generated_algebra(blockpair, q, basis)


def test_chain_of_hidden_segment_has_length_two(blockpair):
    # the cone ruling [0, P (+) 0] is a face of the tangency parallelogram
    # but of no supporting hyperplane of the scale itself
    t_tan, s = fixtures.hidden_vertex_data()
    cx = build_facial_complex(
        blockpair,
        [
            SpectralPair(-s, -t_tan),
            SpectralPair(np.cos(np.arctan2(t_tan[1], t_tan[0])), np.array([1.0, 0.0])),
        ],
    )
    face = face_from_complex(cx)
    # level-two cut level equals the compressed eigenvalue cos(theta), so
    # the face is the ruling segment
    assert not face.is_point()
    chain = minimal_exposed_chain(blockpair, face, 128)
    assert len(chain) == 2
    assert intervals_equal(chain[-1], face)
    assert face_dimension(blockpair, chain[0]) == 2
    assert face_dimension(blockpair, chain[1]) == 1


# ------------------------------------------------- last-bit noise in endpoints


def _jiggled(interval, eps, rng):
    """The interval with Hermitian noise of size ``eps`` on both endpoints."""

    def jiggle(p):
        blocks = []
        for b in p.blocks:
            h = rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
            blocks.append(b + eps * (h + h.conj().T))
        return HermitianOperator(blocks)

    return OrderInterval(jiggle(interval.lower), jiggle(interval.upper))


@pytest.mark.parametrize("name", ["pauli", "commuting", "blockpair"])
def test_gap_report_order_ignores_last_bit_noise(name, request):
    optuple = request.getfixturevalue(name)
    rng = np.random.default_rng(11)
    for interval in sampled_face_inventory(optuple, 8):
        noisy = _jiggled(interval, 1e-15, rng)
        np.testing.assert_allclose(
            _commutant_bases(optuple, [noisy])[0],
            _commutant_bases(optuple, [interval])[0],
            atol=1e-9,
        )
        rows = [
            [
                (*rep.t, rep.s1, rep.s2)
                for rep in detect_gap(
                    optuple, iv, normal_cone(optuple, iv, 8)
                )
            ]
            for iv in (interval, noisy)
        ]
        np.testing.assert_allclose(
            np.reshape(rows[1], (-1, optuple.n + 2)),
            np.reshape(rows[0], (-1, optuple.n + 2)),
            atol=1e-9,
        )


def test_commutant_basis_is_signed_and_whole_space_is_the_axes(pauli, commuting):
    whole = _commutant_bases(commuting, [sampled_face_inventory(commuting, 8)[0]])[0]
    np.testing.assert_array_equal(whole, np.eye(2))
    for interval in sampled_face_inventory(pauli, 8):
        for row in _commutant_bases(pauli, [interval])[0]:
            lead = np.flatnonzero(np.abs(row) >= np.abs(row).max() - 1e-9)[0]
            assert row[lead] > 0


# ------------------------------------------------- one cone pass, one cache


def _proper_sweep_faces(optuple, directions):
    from specscale.faces import _is_proper

    return [
        iv
        for iv in sampled_face_inventory(optuple, directions, include_whole=True)
        if _is_proper(optuple, iv)
    ]


@pytest.mark.parametrize(
    "name", ["two_point", "reciprocal8", "pauli", "commuting", "blockpair"]
)
def test_normal_cones_equal_one_cone_per_face(name, request):
    optuple = request.getfixturevalue(name)
    intervals = _proper_sweep_faces(optuple, 8)
    together = normal_cones(optuple, intervals, 8)
    assert len(together) == len(intervals) > 1
    for interval, cone in zip(intervals, together):
        alone = normal_cone(optuple, interval, 8)
        np.testing.assert_array_equal(cone.members, alone.members)
        assert [(p.s, p.t.tolist()) for p in cone.pairs] == [
            (p.s, p.t.tolist()) for p in alone.pairs
        ]
        assert (cone.degree, cone.exact) == (alone.degree, alone.exact)


@pytest.mark.parametrize(
    "name", ["two_point", "reciprocal8", "pauli", "commuting", "blockpair"]
)
def test_cone_groups_hold_the_members_and_their_frames(name, request):
    # each group is one tested t, in candidate order, with its member
    # levels and the one frame of b_t they were read off, which every face
    # testing that t shares
    optuple = request.getfixturevalue(name)
    intervals = _proper_sweep_faces(optuple, 8)
    shared = {}  # exact bytes of a tested t -> the frame its groups hold
    for cone in normal_cones(optuple, intervals, 8):
        flat = [(s, g.t.tolist()) for g in cone.groups for s in g.levels.tolist()]
        assert flat == [(p.s, p.t.tolist()) for p in cone.pairs]
        normals = np.array([(-s, *t) for s, t in flat]).reshape(-1, optuple.n + 1)
        np.testing.assert_allclose(
            cone.members * np.linalg.norm(normals, axis=1, keepdims=True),
            normals,
            rtol=0,
            atol=1e-12,
        )
        for g in cone.groups:
            assert len(g.levels) and np.isin(g.levels, g.frame.levels).all()
            assert shared.setdefault(g.t.tobytes(), g.frame) is g.frame
            np.testing.assert_array_equal(g.t, g.frame.t)


def test_pure_trace_fallback_reads_the_cone_frames(pauli, monkeypatch):
    # the apex psi(0) has a cone symmetric about the trace axis: its summed
    # normal has no t part, so a member exposing the apex alone is sought,
    # each member's face read off the frame its group was tested on
    from specscale.faces import _exposed_by_cone

    apex = OrderInterval(pauli.algebra.zero(), pauli.algebra.zero())
    cone = normal_cone(pauli, apex, 16)
    assert np.linalg.norm(cone.members.sum(axis=0)[1:]) <= 1e-10
    calls = []
    direction_frames = spectral.direction_frames

    def counting(*args, **kwargs):
        calls.append(args)
        return direction_frames(*args, **kwargs)

    monkeypatch.setattr(spectral, "direction_frames", counting)
    face = _exposed_by_cone(pauli, apex, cone, None, None)
    assert calls == []
    assert intervals_equal(face.interval, apex)
    assert any(
        p.s == face.pair.s and np.array_equal(p.t, face.pair.t) for p in cone.pairs
    )


def test_normal_cones_decompose_each_direction_once(commuting, monkeypatch):
    intervals = _proper_sweep_faces(commuting, 8)
    calls = []
    direction_frames = spectral.direction_frames

    def counting(optuple, ts, *args):
        ts = list(ts)
        calls.extend(np.asarray(t).tobytes() for t in ts)
        return direction_frames(optuple, ts, *args)

    monkeypatch.setattr(spectral, "direction_frames", counting)
    cones = normal_cones(commuting, intervals, 8)
    assert sum(len(c.pairs) for c in cones) and len(calls) == len(set(calls))


def test_cut_down_never_reads_the_ambient_cache(blockpair, monkeypatch):
    # each cone pass decomposes directions of its own tuple only: the
    # cones of a cut-down face, the tuple's or a cut-down's
    interval, _ = fd_hidden_vertex_interval(blockpair)
    chain = minimal_exposed_chain(blockpair, interval, 128)
    assert len(chain) == 2
    comp = cut_down(blockpair, chain[0])
    cut_face = sampled_face_inventory(comp.tuple, 0)[0]
    owners = []
    direction_frames = spectral.direction_frames

    def noting(optuple, ts, *args):
        owners.append(optuple)
        return direction_frames(optuple, ts, *args)

    monkeypatch.setattr(spectral, "direction_frames", noting)
    for optuple, face in ((blockpair, interval), (comp.tuple, cut_face)):
        owners.clear()
        normal_cones(optuple, [face], 8)
        assert owners and all(o is optuple for o in owners)


def test_stacked_order_margins_match_one_face_at_a_time(blockpair):
    intervals = _proper_sweep_faces(blockpair, 8)
    frame = spectral.direction_frame(blockpair, np.array([0.6, -0.8])).spectrum
    by_frame = {}
    for iv in intervals:
        by_frame.setdefault(id(iv.frame), []).append(iv)
    assert any(len(ivs) > 1 for ivs in by_frame.values())
    for ivs in by_frame.values():
        counts = np.array([iv.counts for iv in ivs])
        below, above = frame.order_margins(ivs[0].frame, counts[:, 0], counts[:, 1])
        for f, iv in enumerate(ivs):
            (b,), (a,) = frame.order_margins(iv.frame, iv.counts[:1], iv.counts[1:])
            np.testing.assert_allclose(below[f], b, rtol=0, atol=1e-15)
            np.testing.assert_allclose(above[f], a, rtol=0, atol=1e-15)


def _full_svd_commutant(optuple, interval):
    """The commutant's null space from a full SVD of the commutator map."""
    cols = []
    for b in optuple.operators:
        c = np.concatenate(
            [
                (x @ y - y @ x).ravel()
                for q in (interval.lower, interval.upper)
                for x, y in zip(b.blocks, q.blocks)
            ]
        )
        cols.append(np.concatenate([c.real, c.imag]))
    _, svals, vt = np.linalg.svd(np.column_stack(cols), full_matrices=True)
    null = np.ones(optuple.n, dtype=bool)
    null[: len(svals)] = svals <= 1e-9 * max(1.0, svals[0])
    return vt[null]


def test_thin_commutant_svd_keeps_the_null_space_complete(pauli, blockpair):
    # 17 operators on one 2x2 block: the commutator matrix has 16 rows,
    # fewer than n, so a thin SVD alone would miss null directions
    rng = np.random.default_rng(3)
    ops = []
    for k in range(17):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        # two of every three operators are diagonal: they commute with p
        block = np.diag(z.diagonal().real) if k % 3 else z + z.conj().T
        ops.append(HermitianOperator([block]))
    optuple = OperatorTuple(FiniteAlgebra(((2, 0.5),)), tuple(ops))
    p = HermitianOperator([np.diag([1.0, 0.0])])
    thin = _commutant_bases(optuple, [OrderInterval(p, p)])[0]
    full = _full_svd_commutant(optuple, OrderInterval(p, p))
    assert thin.shape == full.shape == (15, 17)
    np.testing.assert_allclose(thin.T @ thin, full.T @ full, rtol=0, atol=1e-12)
    for optuple in (pauli, blockpair):
        for iv in sampled_face_inventory(optuple, 8):
            full = _full_svd_commutant(optuple, iv)
            if len(full) < optuple.n:  # the whole space reads as the axes
                thin = _commutant_bases(optuple, [iv])[0]
                np.testing.assert_allclose(thin.T @ thin, full.T @ full, atol=1e-12)


@pytest.mark.parametrize("name", ["many_two_by_two_blocks", "dense_d16_n2"])
def test_frame_read_commutant_matches_the_full_svd(name):
    # the commutator matrices are read off each face's frame and stacked;
    # the reference builds every commutator ambiently, one face at a time;
    # checked intervals carry last-bit noise and frames of their own
    from test_golden import TUPLES

    from specscale.faces import _is_proper
    from specscale.scale import sweep_faces

    optuple = TUPLES[name]()
    rng = np.random.default_rng(5)
    intervals = [
        face.interval
        for face in sweep_faces(optuple, 2)
        if _is_proper(optuple, face.interval)
    ][::3]  # the reference's full SVD is slow at d = 16
    intervals += [_jiggled(iv, 1e-15, rng) for iv in intervals[::4]]
    one_ray = 0
    for interval, basis in zip(intervals, _commutant_bases(optuple, intervals)):
        full = _full_svd_commutant(optuple, interval)
        if len(full) < optuple.n:  # the whole space reads as the axes
            assert basis.shape == full.shape
        np.testing.assert_allclose(basis.T @ basis, full.T @ full, atol=1e-12)
        np.testing.assert_array_equal(
            basis, _commutant_bases(optuple, [interval])[0]
        )
        one_ray += len(basis) == 1
    assert one_ray > len(intervals) // 2


@pytest.mark.parametrize(
    "name",
    [
        "two_point",
        "reciprocal_diagonal",
        "pauli_pair",
        "commuting_diagonals",
        "block_with_scalars",
        "dense_d16_n2",
    ],
)
@pytest.mark.parametrize("directions", [0, 8])
def test_normal_cones_on_sweep_rays_match_the_sampled_cones(name, directions):
    # a one-ray cone tested on its face's sweep ray, with the sweep's face
    # dimension, is the cone sampled from the commutant basis alone
    from test_golden import TUPLES

    from specscale.faces import sweep_face_cones

    optuple = TUPLES[name]()
    _, passed = sweep_face_cones(optuple, directions)
    passed = [(f, c) for f, c in passed if c is not None]
    assert passed
    for face, cone in passed:
        alone = normal_cone(optuple, face.interval, directions)
        assert (cone.degree, cone.exact) == (alone.degree, alone.exact)
        assert len(cone.pairs) == len(alone.pairs)
        np.testing.assert_allclose(cone.members, alone.members, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            [(p.s, *p.t) for p in cone.pairs],
            [(p.s, *p.t) for p in alone.pairs],
            rtol=0,
            atol=1e-12 * max([1.0, *(abs(p.s) for p in alone.pairs)]),
        )


def test_sweep_face_chain_needs_its_own_pair_in_the_cone(commuting):
    # the chain is read off the cone only when the sweep pair is a member
    from dataclasses import replace

    from specscale.errors import InvariantViolation
    from specscale.faces import sweep_face_chain
    from specscale.scale import sweep_faces

    face = next(f for f in sweep_faces(commuting, 0) if f.dimension == 1)
    cone = normal_cone(commuting, face.interval, 0)
    assert sweep_face_chain(face, cone) == [face.interval]

    def altered(**change):
        groups = tuple(
            g._replace(**{k: f(getattr(g, k)) for k, f in change.items()})
            for g in cone.groups
        )
        return replace(cone, groups=groups)

    for moved in (1e-8, -1e-8):
        shifted = altered(levels=lambda levels: levels + moved)
        with pytest.raises(InvariantViolation, match="not a member"):
            sweep_face_chain(face, shifted)
    turned = altered(t=lambda t: t + [0.0, 1e-8])
    with pytest.raises(InvariantViolation, match="not a member"):
        sweep_face_chain(face, turned)
    near = altered(levels=lambda levels: levels + 5e-10)
    assert sweep_face_chain(face, near) == [face.interval]


@pytest.mark.parametrize("ratio", [0.8, 1.25])
def test_frame_read_commutant_keeps_the_null_cut(ratio):
    # [b_1, q] and [b_2, q] are orthogonal, so the commutator matrix has
    # singular values 0.6 and 2δ; the cut is 1e-9 (s_0 < 1), and 2δ sits
    # just below or just above it
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    sigma_y = np.array([[0.0, -1j], [1j, 0.0]])
    delta = ratio * 1e-9 / 2
    ops = (HermitianOperator([0.3 * sigma_x]), HermitianOperator([delta * sigma_y]))
    optuple = OperatorTuple(FiniteAlgebra(((2, 0.5),)), ops)
    p = HermitianOperator([np.diag([1.0, 0.0])])
    interval = OrderInterval(p, p)
    full = _full_svd_commutant(optuple, interval)
    assert len(full) == (1 if ratio < 1 else 0)
    basis = _commutant_bases(optuple, [interval])[0]
    assert basis.shape == full.shape
    np.testing.assert_allclose(basis.T @ basis, full.T @ full, atol=1e-12)


def _mirror_faces(swept, passed):
    """The kept faces of a face pass that mirror another kept face, by the
    pass's own frames: a face ``(lo, hi)`` of ``K`` clusters on the frame
    of a swept ``-t`` whose ``t`` was swept earlier, when the face ``(K -
    hi, K - lo)`` of ``t``'s frame was kept too."""
    spectra = [frame.spectrum for frame in swept]
    kept = {(id(f.interval.frame), *f.interval.counts) for f, _ in passed}
    mirrors = set()
    for face, _ in passed:
        j = next(i for i, s in enumerate(spectra) if s is face.interval.frame)
        earlier = [i for i in range(j) if np.array_equal(swept[i].t, -swept[j].t)]
        if earlier:
            k = len(spectra[j].values)
            lo, hi = face.interval.counts
            if (id(spectra[earlier[0]]), k - hi, k - lo) in kept:
                mirrors.add((id(spectra[j]), lo, hi))
    return mirrors


@pytest.mark.parametrize(
    "name",
    [
        "reciprocal_diagonal",
        "two_point",
        "pauli_pair",
        "commuting_diagonals",
        "block_with_scalars",
        "dense_d16_n2",
    ],
)
def test_face_pass_tests_each_mirror_pair_once(name, monkeypatch):
    # at --samples 0 every swept t has its -t; a kept face of the frame of
    # -t whose mirror on t was kept reads its cone off that mirror, so no
    # commutant and no order test sees it, and every other proper face is
    # seen by both
    from test_golden import TUPLES

    from specscale import faces
    from specscale.spectral import SpectralFrame

    optuple = TUPLES[name]()
    margins, commutants = set(), set()
    order_margins, commutant_bases = SpectralFrame.order_margins, _commutant_bases

    def noting_margins(self, frame, lowers, uppers):
        margins.update((id(frame), lo, hi) for lo, hi in zip(lowers, uppers))
        return order_margins(self, frame, lowers, uppers)

    def noting_commutants(optuple, intervals):
        commutants.update((id(iv.frame), *iv.counts) for iv in intervals)
        return commutant_bases(optuple, intervals)

    monkeypatch.setattr(SpectralFrame, "order_margins", noting_margins)
    monkeypatch.setattr(faces, "_commutant_bases", noting_commutants)
    swept, passed = faces.sweep_face_cones(optuple, 0)
    proper = [(f, c) for f, c in passed if c is not None]
    mirrors = _mirror_faces(swept, proper)
    tested = {(id(f.interval.frame), *f.interval.counts) for f, _ in proper}
    assert mirrors and mirrors < tested
    assert margins == commutants == tested - mirrors
