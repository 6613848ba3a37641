import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lower_hull, lower_tail_points, reciprocal_weights
from specscale import fixtures, sampling
from specscale.algebra import (
    Compression,
    FiniteAlgebra,
    HermitianOperator,
    OperatorTuple,
    linear_combination,
    max_norm,
    psi,
)
from specscale.errors import ShapeError
from specscale.oracle import oracle_support, sample_unit_ball
from specscale.scale import (
    RELATION_TOL,
    exposed_face,
    extreme_point_cloud,
    face_dimension,
    isotrace_slice,
    scale_dimension,
    support_value,
    sweep_faces,
    waterfill,
)
from specscale.spectral import OrderInterval, SpectralPair


def test_support_value_zero_operators():
    zt = fixtures.zero_tuple(n=1, dim=2)
    alpha = support_value(zt, SpectralPair(1.0, np.array([1.0])))
    assert alpha == pytest.approx(-1.0, abs=1e-12)


def test_support_value_reciprocal(reciprocal8):
    alpha = support_value(reciprocal8, SpectralPair(0.6, np.array([1.0])))
    w = reciprocal_weights(8)
    expected = sum(
        w[k - 1] * (1.0 / k - 0.6) for k in range(1, 9) if 1.0 / k <= 0.6
    )
    assert alpha == pytest.approx(expected, abs=1e-12)
    # cross-check against the sampled minimum of <(-s,t), x>
    points = sample_unit_ball(reciprocal8, 500, seed=2)
    sampled_min = float(np.min(-0.6 * points[:, 0] + points[:, 1]))
    assert alpha == pytest.approx(sampled_min, abs=1e-9)


def test_support_value_pauli_axis(pauli):
    # tr(sigma_x p) for the negative spectral projection p = (1 - sigma_x)/2
    # equals -tr(p) = -1/2; the sampled minimum and the exact support agree.
    alpha = support_value(pauli, SpectralPair(0.0, np.array([1.0, 0.0])))
    assert alpha == pytest.approx(-0.5, abs=1e-12)
    assert alpha == pytest.approx(-oracle_support(pauli, [0.0, -1.0, 0.0]), abs=1e-12)
    points = sample_unit_ball(pauli, 2000, seed=4)
    sampled_min = float(np.min(points[:, 1]))
    assert alpha <= sampled_min + 1e-9
    assert sampled_min - alpha < 5e-3


def test_exposed_face_gap_level_is_a_point(two_point):
    face = exposed_face(two_point, SpectralPair(0.5, np.array([1.0])))
    assert face.dimension == 0
    np.testing.assert_allclose(face.vertices[0], [0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(face.vertices[1], face.vertices[0], atol=1e-12)


def test_exposed_face_eigenvalue_level_is_a_segment(reciprocal8):
    face = exposed_face(reciprocal8, SpectralPair(1.0 / 3.0, np.array([1.0])))
    assert face.dimension == 1
    assert max_norm(face.interval.gap()) > 0.5


def test_exposed_face_pauli_bottom_segment(pauli):
    face = exposed_face(pauli, SpectralPair(-1.0, np.array([1.0, 0.0])))
    assert face.dimension == 1
    np.testing.assert_allclose(face.vertices[0], [0.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(face.vertices[1], [0.5, -0.5, 0.0], atol=1e-12)


def test_extreme_cloud_two_point_square(two_point):
    cloud = extreme_point_cloud(two_point, 32)
    expected = {(0.0, 0.0), (0.5, 0.0), (0.5, 0.5), (1.0, 0.5)}
    got = {tuple(np.round(p, 10)) for p in cloud.points}
    assert got == expected


def test_extreme_cloud_zero_operators():
    zt = fixtures.zero_tuple(n=2, dim=2)
    cloud = extreme_point_cloud(zt, 32)
    got = {tuple(np.round(p, 10)) for p in cloud.points}
    assert got == {(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)}


def test_extreme_cloud_reciprocal_lower_chain(reciprocal8):
    cloud = extreme_point_cloud(reciprocal8, 16)
    assert len(cloud) == 16
    expected = lower_tail_points(8)
    for row in expected:
        dist = np.linalg.norm(cloud.points - row, axis=1)
        assert dist.min() <= 1e-9


def test_slope_law_reciprocal(reciprocal8):
    cloud = extreme_point_cloud(reciprocal8, 16)
    lower = lower_hull(cloud.points)
    slopes = np.diff(lower[:, 1]) / np.diff(lower[:, 0])
    np.testing.assert_allclose(
        slopes, sorted(1.0 / k for k in range(1, 9)), atol=1e-9
    )


def test_scale_dimension_with_identity_operator(pauli):
    alg = pauli.algebra
    b2 = alg.identity()
    optuple = OperatorTuple(alg, (pauli.operators[0], b2))
    result = scale_dimension(optuple)
    assert result.dimension == 2
    assert len(result.relations) == 1
    t, s = result.relations[0]
    b_t = linear_combination(optuple, t)
    assert max_norm(b_t - s * alg.identity()) <= 1e-8


def test_scale_dimension_pauli_full(pauli):
    result = scale_dimension(pauli)
    assert result.dimension == 3
    assert result.relations == ()


def test_scale_dimension_affine_dependency(pauli):
    alg = pauli.algebra
    b1 = pauli.operators[0]
    b2 = 2.0 * b1 + 3.0 * alg.identity()
    optuple = OperatorTuple(alg, (b1, b2))
    result = scale_dimension(optuple)
    assert result.dimension == 2
    t, s = result.relations[0]
    assert max_norm(linear_combination(optuple, t) - s * alg.identity()) <= 1e-8


def test_degenerate_scale_is_flat_along_relations(pauli):
    alg = pauli.algebra
    optuple = OperatorTuple(
        alg, (pauli.operators[0], 2.0 * pauli.operators[0] + 3.0 * alg.identity())
    )
    t, s = scale_dimension(optuple).relations[0]
    plus = support_value(optuple, SpectralPair(s, t))
    minus = support_value(optuple, SpectralPair(-s, -t))
    assert plus == pytest.approx(0.0, abs=1e-8)
    assert minus == pytest.approx(0.0, abs=1e-8)


def test_isotrace_endpoints(pauli):
    assert np.allclose(isotrace_slice(pauli, 0.0, 64).points, [[0.0, 0.0]])
    top = isotrace_slice(pauli, 1.0, 64).points
    traces = [pauli.algebra.trace(b) for b in pauli.operators]
    np.testing.assert_allclose(top, [traces], atol=1e-12)
    with pytest.raises(ValueError):
        isotrace_slice(pauli, 1.5)


def test_isotrace_pauli_half_is_a_circle(pauli):
    sl = isotrace_slice(pauli, 0.5, 720)
    radii = np.linalg.norm(sl.points, axis=1)
    np.testing.assert_allclose(radii, 0.5, atol=1e-6)
    assert len(sl.points) == 720


def test_isotrace_slice_points_lie_in_the_scale(commuting):
    sl = isotrace_slice(commuting, 0.4, 64)
    rng = np.random.default_rng(12)
    for _ in range(60):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        h = oracle_support(commuting, u)
        lifted = np.column_stack(
            [np.full(len(sl.points), 0.4), sl.points]
        )
        assert np.max(lifted @ u) <= h + 1e-9


def test_waterfill_respects_budget(commuting):
    a = waterfill(commuting, np.array([0.3, -0.8]), 0.37)
    assert commuting.algebra.trace(a) == pytest.approx(0.37, abs=1e-12)
    w = np.concatenate([np.linalg.eigvalsh(b) for b in a.blocks])
    assert w.min() >= -1e-12 and w.max() <= 1.0 + 1e-12


def _slice_tuples():
    """Random tuples on mixed blocks, and on 40 one-dimensional blocks whose
    integer eigenvalues repeat across blocks (so the marginal cluster spans
    blocks), each with n = 1, 2, 3."""
    rng = np.random.default_rng(17)
    dims = (2, 1, 3, 1, 2)
    weights = rng.uniform(0.5, 1.5, len(dims))
    mixed = FiniteAlgebra(tuple(zip(dims, weights / (weights @ dims))))
    ones = FiniteAlgebra(((1, 1.0 / 40),) * 40)

    def hermitian(d):
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return (z + z.conj().T) / 2

    out = {}
    for n in (1, 2, 3):
        out[f"mixed-n{n}"] = OperatorTuple(
            mixed, [HermitianOperator([hermitian(d) for d in dims]) for _ in range(n)]
        )
        out[f"ones40-n{n}"] = OperatorTuple(
            ones,
            [
                HermitianOperator([[[float(x)]] for x in rng.integers(-2, 3, 40)])
                for _ in range(n)
            ],
        )
    return out


SLICE_TUPLES = _slice_tuples()


def _reference_slice(optuple, level, resolution):
    """The slice one direction at a time: ``psi`` of each ``waterfill``
    operator, over ``isotrace_slice``'s directions, keep-first within 1e-12."""
    n = optuple.n
    if n == 1:
        dirs = [[1.0], [-1.0]]
    elif n == 2:
        theta = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    else:
        dirs = sampling.unit_directions(n, resolution)
    kept = []
    for u in dirs:
        point = psi(optuple, waterfill(optuple, np.asarray(u), level))[1:]
        if all(np.linalg.norm(point - k) > 1e-12 for k in kept):
            kept.append(point)
    return np.array(kept)


@pytest.mark.parametrize("level", [0.0, 0.37, 1.0])
@pytest.mark.parametrize("name", sorted(SLICE_TUPLES))
def test_isotrace_slice_matches_per_direction_waterfill(name, level):
    optuple = SLICE_TUPLES[name]
    got = isotrace_slice(optuple, level, 24).points
    want = _reference_slice(optuple, level, 24)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_isotrace_slice_chunks_give_the_same_points(monkeypatch):
    from specscale import spectral

    optuple = SLICE_TUPLES["mixed-n2"]
    whole = isotrace_slice(optuple, 0.37, 50).points
    calls = []
    eigh = np.linalg.eigh

    def counting(a):
        calls.append(np.shape(a)[0])
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    # 16 bytes per entry of the 19 block entries: 7 directions per chunk
    monkeypatch.setattr(spectral, "STACK_CHUNK_BYTES", 16 * 19 * 7)
    chunked = isotrace_slice(optuple, 0.37, 50).points
    np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-15)
    # the 25 directions before pi are solved, in 4 chunks of at most 7,
    # each carrying the negations of its own; one eigh per block size
    # (1, 2, 3) a chunk
    assert len(calls) == 4 * 3
    assert sorted(set(calls)) == [4, 7]


def _keep_first_loop(points, tol):
    keep = [0]
    for i in range(1, len(points)):
        if np.all(np.linalg.norm(points[keep] - points[i], axis=1) > tol):
            keep.append(i)
    return points[keep]


def test_slice_dedup_compares_with_kept_points_only():
    from specscale.scale import _keep_first

    a = np.array([0.3, -0.7])
    e1 = np.array([1.0, 0.0])
    chain = np.array([a, a + 0.6e-12 * e1, a + 1.2e-12 * e1])
    # the middle point is within 1e-12 of a and dropped; the last is
    # within 1e-12 only of the dropped one, so it stays
    np.testing.assert_array_equal(_keep_first(chain, 1e-12), chain[[0, 2]])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_slice_dedup_matches_the_keep_first_loop(n):
    from specscale.scale import _keep_first

    for seed in range(n, 200 + n, 3):  # 200 sets over the three n
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((int(rng.integers(1, 41)), n))
        # exact and near repeats at 0.2e-12 .. 1.6e-12, along the sort axis
        # and across it
        steps = rng.integers(0, 9, (200, 1)) * 0.2e-12
        points = base[rng.integers(0, len(base), 200)] + steps * rng.choice(
            [np.eye(n)[0], np.ones(n) / np.sqrt(n)], 200
        )
        np.testing.assert_array_equal(
            _keep_first(points, 1e-12), _keep_first_loop(points, 1e-12)
        )


@pytest.mark.parametrize("seed", range(12))
def test_near_pairs_match_all_pairs(seed):
    # the first column, like a cloud's trace, takes few values (or one);
    # near repeats sit 0 .. 2.4 tol apart across the other columns
    from specscale.scale import _near_pairs

    rng = np.random.default_rng(seed)
    n, tol = int(rng.integers(1, 4)), 1e-8
    first = rng.integers(0, 1 + seed % 4, (40, 1)) / 4
    base = np.hstack([first, rng.standard_normal((40, n))])
    across = rng.standard_normal((300, n + 1)) * (np.arange(n + 1) > 0)
    across /= np.linalg.norm(across, axis=1, keepdims=True)
    steps = rng.integers(0, 9, (300, 1)) * 0.3 * tol
    points = base[rng.integers(0, len(base), 300)] + steps * across
    start = int(rng.integers(0, 150))
    i, j = _near_pairs(points, tol, start)
    want = [
        (a, b)
        for a in range(start, len(points))
        for b in np.flatnonzero(np.linalg.norm(points[:a] - points[a], axis=1) <= tol)
    ]
    assert np.all(np.diff(i) >= 0)
    assert sorted(zip(i.tolist(), j.tolist())) == want
    # pairs that are near but not equal, across the first column
    assert np.any(np.any(points[i] != points[j], axis=1))


def _close_blocks():
    """Two light one-dimensional blocks whose joint values differ by 1e-6:
    the leading projection onto either one is a point of the cloud, the
    two within 1e-9 of each other, with different projections."""
    alg = FiniteAlgebra(((1, 0.001), (1, 0.001), (1, 0.499), (1, 0.499)))
    ops = (alg.diagonal([0.0, 1e-6, 1.0, -1.0]), alg.diagonal([0.0, 0.0, 1.0, 2.0]))
    return OperatorTuple(alg, ops)


def _cloud_by_loop(frames):
    """Points, projections and ids of every sweep level's endpoints, added
    one at a time: compared with every point kept so far, merged into the
    first within POINT_DEDUP_TOL whose projection matches."""
    from specscale.scale import POINT_DEDUP_TOL, PROJECTION_MATCH_TOL
    from specscale.spectral import same_range

    points, sources, ids = [], [], []
    for frame in frames:
        seen = set()
        for k in np.stack(frame.cuts, axis=1).ravel().tolist():
            if k in seen:
                continue
            seen.add(k)
            point, source = frame.psi_table[k], (frame.spectrum, k)
            dist = np.linalg.norm(np.reshape(points, (-1, len(point))) - point, axis=1)
            near = np.flatnonzero(dist <= POINT_DEDUP_TOL)
            match = next(
                (
                    int(i)
                    for i in near
                    if same_range(sources[i], source, PROJECTION_MATCH_TOL)
                ),
                None,
            )
            if match is None:
                match = len(points)
                points.append(point)
                sources.append(source)
            ids.append(match)
    return np.array(points), sources, ids


@pytest.mark.parametrize(
    "name", ["pauli_pair", "commuting_diagonals", "block_with_scalars", "close"]
)
def test_add_frames_equals_adding_one_point_at_a_time(name):
    from specscale.scale import ExtremePointCloud, sweep_frames

    optuple = _close_blocks() if name == "close" else getattr(fixtures, name)()
    frames = sweep_frames(optuple, 32)
    want_points, want_sources, want_ids = _cloud_by_loop(frames)
    assert len(want_ids) > len(want_points)  # some points merge
    batched = ExtremePointCloud(optuple.n)
    half = len(frames) // 2  # the second batch merges into a held cloud
    ids = [*batched.add_frames(frames[:half]), *batched.add_frames(frames[half:])]
    one = ExtremePointCloud(optuple.n)
    one_ids = [
        one.add(frame.psi_table[k], (frame.spectrum, k))
        for frame in frames
        for k in dict.fromkeys(np.stack(frame.cuts, axis=1).ravel().tolist())
    ]
    assert ids == one_ids == want_ids
    for cloud in (batched, one):
        assert cloud.points.tobytes() == want_points.tobytes()
        assert len(cloud) == len(want_sources)
        for i, (frame, k) in enumerate(want_sources):
            assert cloud.projections.sources[i][0] is frame
            assert cloud.projections.rank(i) == int(frame.bounds[k].sum())
    if name == "close":  # near points that did not merge
        i, j = np.triu_indices(len(want_points), 1)
        assert np.any(np.linalg.norm(want_points[i] - want_points[j], axis=1) <= 1e-8)


@pytest.mark.parametrize("name", ["reciprocal8", "two_point", "pauli", "commuting"])
def test_support_consistency_and_touching(name, request):
    optuple = request.getfixturevalue(name)
    cloud = extreme_point_cloud(optuple, 32)
    rng = np.random.default_rng(21)
    for _ in range(40):
        u = rng.standard_normal(optuple.n + 1)
        t = u[1:]
        if np.linalg.norm(t) < 1e-3:
            continue
        pair = SpectralPair(-u[0], t)
        face = exposed_face(optuple, pair)
        dist = face.hyperplane.signed_distance(cloud.points)
        assert dist.min() >= -1e-8
        touch = face.hyperplane.signed_distance(face.vertices)
        assert np.max(np.abs(touch)) <= 1e-8


@pytest.mark.parametrize("name", ["pauli", "blockpair"])
def test_oracle_containment_in_sampled_halfspaces(name, request):
    optuple = request.getfixturevalue(name)
    points = sample_unit_ball(optuple, 400, seed=5)[:2000]
    rng = np.random.default_rng(31)
    for _ in range(25):
        u = rng.standard_normal(optuple.n + 1)
        t = u[1:]
        if np.linalg.norm(t) < 1e-3:
            continue
        pair = SpectralPair(-u[0], t)
        alpha = support_value(optuple, pair)
        vals = points @ pair.normal_vector()
        assert vals.min() >= alpha - 1e-8


def test_extremes_csv_roundtrip(two_point, capsys):
    from specscale import cli

    args = cli.build_parser().parse_args(
        ["extremes", "--input", "unused.json", "--samples", "16"]
    )
    cli.cmd_extremes(two_point, args)
    cloud = extreme_point_cloud(two_point, 16)
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x0,x1,proj_id,proj_trace"
    assert len(lines) == 1 + len(cloud)
    first = lines[1].split(",")
    assert float(first[0]) in (0.0, 0.5, 1.0)


# ---------------------------------------------------------------------------
# Face dimensions read off the frame against the built cut-down.
# ---------------------------------------------------------------------------


def _reference_dimension(optuple, interval):
    """``face_dimension`` the literal way: the cut-down's ``scale_dimension``."""
    gap = interval.columns("gap")
    rank = int(gap.ranks.sum())
    if rank <= 1:
        return rank
    return scale_dimension(Compression(optuple, gap).tuple).dimension


def _diagonal_tuple(values):
    """Operators on equally weighted one-dimensional blocks: ``values[i]``
    holds operator ``i``'s value on each block."""
    values = np.asarray(values, dtype=float)
    m = values.shape[1]
    alg = FiniteAlgebra(((1, 1.0 / m),) * m)
    return OperatorTuple(alg, tuple(alg.diagonal(row) for row in values))


def _dimension_three_ways(optuple):
    """The face dimension at level 0 of ``b_1`` (a gap of rank two or
    more), from the sweep, from ``face_dimension`` and from the cut-down."""
    t = np.eye(optuple.n)[0]
    (face,) = [f for f in sweep_faces(optuple, [t]) if f.pair.s == 0.0]
    assert int(face.interval.columns("gap").ranks.sum()) >= 2
    return (
        face.dimension,
        face_dimension(optuple, face.interval),
        _reference_dimension(optuple, face.interval),
    )


@pytest.mark.parametrize(
    "half_spread, expected",
    [(0.99 * RELATION_TOL, 1), (1.01 * RELATION_TOL, 2)],
)
def test_relation_residual_either_side_of_the_tolerance(half_spread, expected):
    # b_2 is 0 and 2 * half_spread on the gap: centred, its residual as a
    # relation is half_spread, tested against RELATION_TOL
    optuple = _diagonal_tuple([[0.0, 0.0, 1.0], [0.0, 2 * half_spread, 1.0]])
    assert _dimension_three_ways(optuple) == (expected,) * 3


@pytest.mark.parametrize("ratio", [0.5, 2.0])
@pytest.mark.parametrize("spread", [0.0, 1e3])
def test_gram_eigenvalue_either_side_of_the_cut(ratio, spread):
    # On the gap (blocks 0-2), centred b_2 is (-2, 4, -2) h / 3 and
    # centred b_3 is (1, 0, -1) spread: orthogonal, with Gram eigenvalues
    # 8 h^2 / 9 and 2 spread^2 / 3.  b_2's is ratio times the cut
    # 1e-12 * max(1, w_max); its residual 4 h / 3 is far above RELATION_TOL.
    cut = 1e-12 * max(1.0, 2 * spread**2 / 3)
    h = np.sqrt(9 * ratio * cut / 8)
    optuple = _diagonal_tuple(
        [[0, 0, 0, 1], [0, 2 * h, 0, 1], [spread, 0, -spread, 0]]
    )
    expected = 2 if spread == 0.0 else 3  # b_1, and b_3 when it is zero
    assert _dimension_three_ways(optuple) == (expected,) * 3


def test_small_gap_among_wide_clusters_keeps_its_relation():
    # b_1 pairs 4,096 blocks into 2,048 clusters; b_2 and b_3 spread by 50
    # inside every cluster but one late one, where b_2 + b_3 = 0 and the
    # spread is 1e-3.  Summed with the wide clusters before it (as prefix
    # sums over clusters would), that gap's Gram loses the relation to
    # rounding; read on the gap alone, it keeps it, as the cut-down does.
    rng = np.random.default_rng(7)
    spread = rng.uniform(-50, 50, (2, 4096))
    values = np.vstack([np.repeat(np.arange(2048.0), 2), spread])
    values[1:, 4080:4082] = [[1e-3, -1e-3], [-1e-3, 1e-3]]
    optuple = _diagonal_tuple(values)
    (face,) = [f for f in sweep_faces(optuple, [[1.0, 0.0, 0.0]]) if f.pair.s == 2040]
    assert face.dimension == _reference_dimension(optuple, face.interval) == 2


@st.composite
def _tuples_with_repeats(draw):
    """One to three operators on up to six blocks of size 1 or 2 with small
    integer entries; a block may copy an earlier one, so eigenvalues repeat
    within and across blocks."""
    n = draw(st.integers(1, 3))
    entries = st.lists(st.integers(-2, 2), min_size=8, max_size=8)
    blocks = []
    for _ in range(draw(st.integers(1, 6))):
        if blocks and draw(st.booleans()):
            blocks.append(blocks[draw(st.integers(0, len(blocks) - 1))])
            continue
        d = draw(st.sampled_from([1, 2]))
        mats = []
        for _ in range(n):
            raw = np.array(draw(entries), dtype=float).reshape(2, 2, 2)
            a = raw[0, :d, :d] + 1j * raw[1, :d, :d]
            mats.append(a + a.conj().T)
        blocks.append((d, mats))
    count = len(blocks)
    weights = st.lists(st.integers(1, 3), min_size=count, max_size=count)
    weights = np.array(draw(weights), dtype=float)
    dims = [d for d, _ in blocks]
    weights /= weights @ dims
    alg = FiniteAlgebra(tuple(zip(dims, weights)))
    ops = [HermitianOperator([mats[i] for _, mats in blocks]) for i in range(n)]
    return OperatorTuple(alg, tuple(ops))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_tuples_with_repeats())
def test_sweep_dimensions_match_the_cut_down(optuple):
    for face in sweep_faces(optuple, 4):
        expected = _reference_dimension(optuple, face.interval)
        assert face.dimension == expected
        # the checked interval, framed by the eigenvectors of lower + upper
        checked = OrderInterval(face.interval.lower, face.interval.upper)
        assert face_dimension(optuple, checked) == expected


def test_zero_trace_gap_raises():
    # a rank-two gap of trace 5e-11, below Compression's 1e-10 floor
    alg = FiniteAlgebra(((1, 2.5e-11), (1, 2.5e-11), (1, 1.0 - 5e-11)))
    optuple = OperatorTuple(alg, (alg.diagonal([0.0, 0.0, 1.0]),))
    with pytest.raises(ShapeError, match="zero trace"):
        exposed_face(optuple, SpectralPair(0.0, np.array([1.0])))
