import json

import numpy as np
import pytest

from specscale import fixtures
from specscale.algebra import max_norm
from specscale.errors import DegenerateFaceError
from specscale.faces import normal_cone
from specscale.scale import (
    ExtremePointCloud,
    _cloud_t_directions,
    exposed_face,
    extreme_point_cloud,
)
from specscale.spectral import OrderInterval, SpectralPair
from specscale.structure import (
    SAMPLING_INCOMPLETE,
    abelian_verdict,
    detect_central,
    detect_gap,
    isolated_extremes_to_center,
)


def scalar_block_interval(blockpair):
    z = blockpair.algebra.diagonal(np.array([0.0, 0.0, 1.0]))
    return OrderInterval(z, z)


def test_detect_central_scalar_block_vertex(blockpair):
    interval = scalar_block_interval(blockpair)
    cone = normal_cone(blockpair, interval, 128)
    report = detect_central(blockpair, interval, cone)
    assert report.central
    assert report.rank == 2
    assert report.commutator_norm <= 1e-12
    t_parts = np.array([p.t for p in report.independent_normals])
    assert np.linalg.matrix_rank(t_parts, tol=1e-8) == 2


def test_no_nontrivial_central_detection_in_a_factor(pauli):
    rng = np.random.default_rng(2)
    alg = pauli.algebra
    for _ in range(20):
        u = rng.standard_normal(3)
        if np.linalg.norm(u[1:]) < 1e-3:
            continue
        face = exposed_face(pauli, SpectralPair(-u[0], u[1:]))
        lower_t = alg.trace(face.interval.lower)
        upper_t = alg.trace(face.interval.upper)
        if max_norm(face.interval.lower) <= 1e-10 and max_norm(
            face.interval.upper - alg.identity()
        ) <= 1e-10:
            continue
        cone = normal_cone(pauli, face.interval, 64)
        report = detect_central(pauli, face.interval, cone)
        if report.central:
            # only the trivial endpoints 0 and 1 can be central in a factor
            for p in (face.interval.lower, face.interval.upper):
                trace_p = alg.trace(p)
                assert trace_p <= 1e-10 or trace_p >= 1.0 - 1e-10


def test_detect_central_insufficient_normals_is_not_an_error(pauli):
    p = 0.5 * (pauli.algebra.identity() + pauli.operators[0])
    interval = OrderInterval(p, p)
    cone = normal_cone(pauli, interval, 64)
    report = detect_central(pauli, interval, cone)
    assert not report.central
    assert report.rank < 2


def test_detect_central_rejects_whole_scale(blockpair):
    whole = OrderInterval(
        blockpair.algebra.zero(), blockpair.algebra.identity()
    )
    with pytest.raises(DegenerateFaceError):
        cone = normal_cone(blockpair, whole, 16)


def test_detect_central_tests_the_rank_once_per_group(monkeypatch):
    # a group's members share their t, so only its first can raise the rank
    from conftest import sampled_face_inventory
    from specscale.faces import _is_proper, normal_cones

    optuple = fixtures.block_with_scalars()
    intervals = [
        iv for iv in sampled_face_inventory(optuple, 8) if _is_proper(optuple, iv)
    ]
    cones = normal_cones(optuple, intervals, 8)
    interval, cone = next(
        (iv, c) for iv, c in zip(intervals, cones) if len(c.members) == 40
    )
    assert len(cone.groups) == 20
    ts = np.array([g.t for g in cone.groups])
    examined = next(
        k
        for k in range(1, len(ts) + 1)
        if np.linalg.matrix_rank(ts[:k], tol=1e-8) == optuple.n
    )
    calls = []
    matrix_rank = np.linalg.matrix_rank

    def counting(*args, **kwargs):
        calls.append(args)
        return matrix_rank(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "matrix_rank", counting)
    report = detect_central(optuple, interval, cone)
    assert report.central and report.rank == optuple.n
    assert len(calls) == examined < len(cone.members)


def test_detect_gap_reads_the_frames_its_cone_was_tested_on(reciprocal8, monkeypatch):
    from specscale import spectral

    face = exposed_face(reciprocal8, SpectralPair(5.0 / 12.0, np.array([1.0])))
    cone = normal_cone(reciprocal8, face.interval, 64)
    calls = []
    direction_frames = spectral.direction_frames

    def counting(*args, **kwargs):
        calls.append(args)
        return direction_frames(*args, **kwargs)

    monkeypatch.setattr(spectral, "direction_frames", counting)
    assert detect_gap(reciprocal8, face.interval, cone)
    assert calls == []


def test_detect_gap_two_point(two_point):
    face = exposed_face(two_point, SpectralPair(0.5, np.array([1.0])))
    cone = normal_cone(two_point, face.interval, 64)
    gaps = detect_gap(two_point, face.interval, cone)
    assert len(gaps) == 1
    assert gaps[0].s1 == pytest.approx(0.0, abs=1e-12)
    assert gaps[0].s2 == pytest.approx(1.0, abs=1e-12)


def test_detect_gap_reciprocal_vertex(reciprocal8):
    face = exposed_face(reciprocal8, SpectralPair(5.0 / 12.0, np.array([1.0])))
    cone = normal_cone(reciprocal8, face.interval, 64)
    gaps = detect_gap(reciprocal8, face.interval, cone)
    by_t = {tuple(np.sign(g.t)): g for g in gaps}
    plus = by_t[(1.0,)]
    assert plus.s1 == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert plus.s2 == pytest.approx(1.0 / 2.0, abs=1e-12)


def test_detect_gap_empty_for_facet(commuting):
    face = exposed_face(commuting, SpectralPair(-1.0, np.array([0.0, -1.0])))
    cone = normal_cone(commuting, face.interval, 64)
    assert detect_gap(commuting, face.interval, cone) == []


def test_isolated_extremes_reciprocal_all_central(reciprocal8):
    cloud = extreme_point_cloud(reciprocal8, 32)
    reports = isolated_extremes_to_center(reciprocal8, cloud)
    assert len(reports) == 16
    assert all(r.is_central for r in reports)


def test_isolated_extremes_pauli_only_apexes(pauli):
    cloud = extreme_point_cloud(pauli, 256)
    reports = isolated_extremes_to_center(pauli, cloud, iso_radius=0.05)
    points = np.array([r.point for r in reports])
    assert len(reports) == 2
    assert np.min(np.linalg.norm(points - np.array([0.0, 0.0, 0.0]), axis=1)) <= 1e-10
    assert np.min(np.linalg.norm(points - np.array([1.0, 0.0, 0.0]), axis=1)) <= 1e-10
    assert all(r.is_central for r in reports)


def test_isolated_extremes_zero_tuple():
    zt = fixtures.zero_tuple(n=2, dim=2)
    cloud = extreme_point_cloud(zt, 16)
    reports = isolated_extremes_to_center(zt, cloud)
    assert len(reports) == 2
    assert all(r.is_central for r in reports)


def test_isolated_extremes_diameter_memory_is_linear():
    # a 3,000-point cloud: the N x N x (n+1) pairwise difference array
    # alone would take over 200 MB
    import tracemalloc

    zt = fixtures.zero_tuple(n=2, dim=1)
    cloud = ExtremePointCloud(zt.n)
    cloud.points = np.random.default_rng(0).standard_normal((3000, zt.n + 1))
    cloud.projections = [zt.algebra.identity()] * len(cloud.points)
    tracemalloc.start()
    try:
        reports = isolated_extremes_to_center(zt, cloud)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20
    assert reports and all(r.is_central for r in reports)


def _isolated_by_point(points, iso_radius):
    """Reference: the rows of ``points`` with no other row within
    ``iso_radius``, each compared with every row."""
    if iso_radius is None:
        rows = (np.sqrt(((points - p) ** 2).sum(axis=1)).max() for p in points)
        iso_radius = 1e-3 * max(float(max(rows, default=0.0)), 1e-12)
    out = []
    for idx, point in enumerate(points):
        dist = np.linalg.norm(points - point, axis=1)
        dist[idx] = np.inf
        if np.all(dist > iso_radius):
            out.append(idx)
    return out


def _identity_cloud(optuple, points):
    cloud = ExtremePointCloud(optuple.n)
    cloud.points = points
    cloud.projections = [optuple.algebra.identity()] * len(points)
    return cloud


@pytest.mark.parametrize("iso_radius", [0.0, None, 0.25])
@pytest.mark.parametrize("seed", range(4))
def test_isolated_extremes_match_the_per_point_reference(seed, iso_radius):
    # random points with exact repeats, and grid points whose distances tie
    # with the radius
    zt = fixtures.zero_tuple(n=2, dim=1)
    rng = np.random.default_rng(seed)
    spread = rng.standard_normal((40, zt.n + 1))
    grid = rng.integers(0, 5, (40, zt.n + 1)) * 0.25
    points = np.concatenate([spread, spread[rng.integers(0, 40, 6)], grid])
    points = points[rng.permutation(len(points))]
    want = _isolated_by_point(points, iso_radius)
    reports = isolated_extremes_to_center(
        zt, _identity_cloud(zt, points), iso_radius=iso_radius
    )
    assert [r.point.tolist() for r in reports] == points[want].tolist()
    assert 0 < len(want) < len(points)


def test_isolated_extremes_find_near_points_in_one_pass(pauli, monkeypatch):
    from specscale import scale

    calls = []
    near_pairs = scale._near_pairs

    def counting(*args, **kwargs):
        calls.append(args)
        return near_pairs(*args, **kwargs)

    monkeypatch.setattr(scale, "_near_pairs", counting)
    cloud = extreme_point_cloud(pauli, 64)
    calls.clear()  # the cloud's own dedup
    assert isolated_extremes_to_center(pauli, cloud)
    assert len(calls) == 1


def test_abelian_verdict_commuting(commuting):
    verdict = abelian_verdict(commuting, directions=64)
    assert verdict.geometric and verdict.algebraic
    assert verdict.extreme_count == 14
    assert verdict.max_commutator == 0.0
    assert verdict.n_dim == 4


def test_abelian_verdict_pauli(pauli):
    verdict = abelian_verdict(pauli, directions=64)
    assert not verdict.geometric and not verdict.algebraic
    assert verdict.extreme_count == SAMPLING_INCOMPLETE
    assert verdict.cloud_counts[1] > verdict.cloud_counts[0]
    assert verdict.max_commutator == pytest.approx(2.0, abs=1e-12)


def test_abelian_verdict_blockpair(blockpair):
    verdict = abelian_verdict(blockpair, directions=64)
    assert not verdict.geometric and not verdict.algebraic
    assert verdict.cloud_counts[1] > verdict.cloud_counts[0]


def test_abelian_verdict_single_operator(reciprocal8):
    verdict = abelian_verdict(reciprocal8, directions=32)
    assert verdict.geometric and verdict.algebraic
    assert verdict.extreme_count == 16


def test_report_json_schema(commuting, capsys):
    from specscale import cli

    args = cli.build_parser().parse_args(
        ["abelian", "--input", "unused.json", "--samples", "32"]
    )
    cli.cmd_abelian(commuting, args)
    payload = json.loads(capsys.readouterr().out)
    assert payload["abelian"] == {"geometric": True, "algebraic": True}
    assert set(payload) == {
        "abelian", "extreme_count", "n_dim", "cloud_counts", "max_commutator"
    }


def test_abelian_verdict_at_zero_directions_builds_one_cloud(commuting, monkeypatch):
    # 2 * 0 = 0: both densities are the axes, swept once into one cloud; at
    # any density every direction of the denser sample is decomposed once
    from specscale import spectral

    calls = []
    original = spectral.direction_frames

    def counting(optuple, ts, *args):
        ts = list(ts)
        calls.extend(np.asarray(t).tobytes() for t in ts)
        return original(optuple, ts, *args)

    monkeypatch.setattr(spectral, "direction_frames", counting)
    verdict = abelian_verdict(commuting, directions=0)
    assert len(calls) == len(set(calls)) == len(_cloud_t_directions(2, 0))
    assert verdict.cloud_counts == (8, 8)
    calls.clear()
    assert abelian_verdict(commuting, directions=4).cloud_counts[1] >= 8
    assert len(calls) == len(set(calls)) == len(_cloud_t_directions(2, 8))


@pytest.mark.parametrize(
    "name", ["pauli_pair", "commuting_diagonals", "block_with_scalars", "two_point"]
)
@pytest.mark.parametrize("directions", [0, 1, 3, 8, 16, 40])
def test_abelian_verdict_counts_match_two_clouds(name, directions):
    # the one sweep reads the clouds of both densities
    optuple = getattr(fixtures, name)()
    verdict = abelian_verdict(optuple, directions)
    first = extreme_point_cloud(optuple, directions)
    second = extreme_point_cloud(optuple, 2 * directions)
    assert verdict.cloud_counts == (len(first), len(second))
    grew = len(_cloud_t_directions(optuple.n, 2 * directions)) > len(
        _cloud_t_directions(optuple.n, directions)
    )
    stabilized = len(first) == len(second) and (grew or optuple.n == 1)
    expected = len(second) if stabilized else SAMPLING_INCOMPLETE
    assert verdict.extreme_count == expected


def test_abelian_verdict_at_zero_directions_certifies_no_count(commuting):
    # at 0 both densities are the axis directions: equal counts say nothing
    # for n >= 2, where the axes miss most of the zonotope's 14 vertices
    verdict = abelian_verdict(commuting, 0)
    assert verdict.cloud_counts == (8, 8)
    assert verdict.extreme_count == SAMPLING_INCOMPLETE
    assert not verdict.geometric and verdict.algebraic
    # for n = 1, ±1 are all the direction parts there are
    two_point = abelian_verdict(fixtures.two_point(), 0)
    assert two_point.extreme_count == 4 and two_point.geometric


def test_isolated_extremes_build_only_isolated_projections(pauli):
    cloud = extreme_point_cloud(pauli, 64)
    read = []

    class Counting(list):
        def __getitem__(self, idx):
            read.append(idx)
            return super().__getitem__(idx)

    cloud.projections = Counting(cloud.projections)
    reports = isolated_extremes_to_center(pauli, cloud, iso_radius=0.05)
    assert 0 < len(read) == len(reports) < len(cloud)


@pytest.mark.parametrize("dims", [(3,), (2, 3), (4,)])
def test_generated_basis_stops_once_it_spans_the_algebra(dims, monkeypatch):
    # generic operators generate all of M_{d_1} (+) ...: once the basis
    # holds sum d_j^2 elements no further candidate is tried
    from specscale import algebra

    rng = np.random.default_rng(5)
    alg = algebra.FiniteAlgebra(tuple((d, 1.0 / sum(dims)) for d in dims))
    ops = []
    for _ in range(2):
        blocks = []
        for d in dims:
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            blocks.append(z + z.conj().T)
        ops.append(algebra.HermitianOperator(blocks))
    optuple = algebra.OperatorTuple(alg, tuple(ops))
    sizes = []
    residual = algebra._span_residual

    def noting(alg, stacks, blocks):
        sizes.append(len(stacks[0]))
        return residual(alg, stacks, blocks)

    monkeypatch.setattr(algebra, "_span_residual", noting)
    basis = algebra.generated_algebra_basis(optuple)
    full = sum(d * d for d in dims)
    assert len(basis) == full
    assert max(sizes) < full
