"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from conftest import (
    lower_hull,
    lower_tail_points,
    reciprocal_weights,
    sampled_face_inventory,
)
from specscale import fixtures
from specscale.algebra import linear_combination, psi
from specscale.faces import (
    block_decomposition_checks,
    build_facial_complex,
    cut_down,
    face_dimension,
    face_from_complex,
    normal_cone,
    normal_cones,
)
from specscale.oracle import random_ball_operators, sample_unit_ball
from specscale.scale import (
    _cloud_t_directions,
    extreme_point_cloud,
    isotrace_slice,
)
from specscale.spectral import SpectralPair, interval_projections
from specscale.structure import (
    SAMPLING_INCOMPLETE,
    abelian_verdict,
    detect_central,
    detect_gap,
    isolated_extremes_to_center,
)


def _announce(number, text):
    print(f"\nACCEPTANCE criterion {number:2d} PASS: {text}")


@pytest.fixture(scope="module")
def all_fixtures():
    return {
        "reciprocal": fixtures.reciprocal_diagonal(8),
        "two_point": fixtures.two_point(),
        "pauli": fixtures.pauli_pair(),
        "commuting": fixtures.commuting_diagonals(),
        "blockpair": fixtures.block_with_scalars(),
    }


@pytest.fixture(scope="module")
def inventories(all_fixtures):
    out = {}
    for name, optuple in all_fixtures.items():
        intervals = sampled_face_inventory(optuple, directions=24)
        if name == "blockpair":
            t_tan, s = fixtures.hidden_vertex_data()
            cx = build_facial_complex(
                optuple,
                [
                    SpectralPair(-s, -t_tan),
                    SpectralPair(2.0, np.array([1.0, 0.0])),
                ],
            )
            intervals.append(face_from_complex(cx))
        out[name] = intervals
    return out


def _oracle_draws_for(optuple, target=10_000):
    """Random draw count whose emitted sample is close to ``target`` points."""
    total = optuple.algebra.total_dim
    per_draw = 1 + (2**total if 2**total <= 64 else 0)
    base = 2**total if total <= 12 else 0
    return max(1, (target - base) // per_draw)


def test_criterion_01_slope_law(all_fixtures):
    start = time.perf_counter()
    optuple = all_fixtures["reciprocal"]

    # independent oracle: all 2^8 diagonal projection images
    bits = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(float)
    w = reciprocal_weights(8)
    vals = np.array([1.0 / k for k in range(1, 9)])
    oracle_points = np.column_stack([bits @ w, bits @ (w * vals)])
    oracle_lower = lower_hull(oracle_points)

    cloud = extreme_point_cloud(optuple, 16)
    analytic_lower = lower_hull(cloud.points)

    assert analytic_lower.shape == oracle_lower.shape == (9, 2)
    np.testing.assert_allclose(analytic_lower, oracle_lower, atol=1e-9)
    np.testing.assert_allclose(analytic_lower, lower_tail_points(8), atol=1e-9)

    slopes = np.diff(analytic_lower[:, 1]) / np.diff(analytic_lower[:, 0])
    expected = np.sort(vals)
    np.testing.assert_allclose(slopes, expected, atol=1e-9)

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _announce(1, f"slope law and partial-sum vertices ({elapsed:.2f} s)")


def _pairs_for(optuple, count=500):
    """Spectral pairs mixing eigenvalue sweeps with quasi-random levels."""
    from specscale import sampling, spectral

    pairs = []
    for t in _cloud_t_directions(optuple.n, count):
        b_t = linear_combination(optuple, t)
        info = spectral.decompose(optuple.algebra, b_t)
        for s in sampling.eigenvalue_sweep(info.values):
            pairs.append(SpectralPair(s, t))
            if len(pairs) == count:
                return pairs
    return pairs


def test_criterion_02_support_identity(all_fixtures):
    start = time.perf_counter()
    for name, optuple in all_fixtures.items():
        points = sample_unit_ball(optuple, _oracle_draws_for(optuple), seed=42)
        assert len(points) >= 9_900
        alg = optuple.algebra
        one = alg.identity()
        worst_gap = 0.0
        for pair in _pairs_for(optuple, 500):
            interval = interval_projections(optuple, pair)
            b_t = linear_combination(optuple, pair.t)
            shifted = b_t - pair.s * one
            alpha_plus = alg.trace(_product(shifted, interval.upper))
            alpha_minus = alg.trace(_product(shifted, interval.lower))
            assert abs(alpha_plus - alpha_minus) <= 1e-9
            sampled_min = float(np.min(points @ pair.normal_vector()))
            assert alpha_plus <= sampled_min + 1e-9
            worst_gap = max(worst_gap, sampled_min - alpha_plus)
        assert worst_gap <= 5e-3, f"{name}: sampled-min gap {worst_gap:.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _announce(2, f"support identity and oracle minimum ({elapsed:.1f} s)")


def _product(a, b):
    from specscale.algebra import _raw, operator_product

    return _raw(operator_product(a, b))


def test_criterion_03_exhaustive_oracle_equality(all_fixtures):
    for name in ("reciprocal", "two_point", "commuting"):
        optuple = all_fixtures[name]
        assert optuple.algebra.total_dim <= 12
        cloud = extreme_point_cloud(optuple, 256)
        from specscale.oracle import PointCloudHull

        points = sample_unit_ball(optuple, 200, seed=7)
        hull = PointCloudHull(points)
        verts = hull.hull_points
        for v in verts:
            assert np.min(np.linalg.norm(cloud.points - v, axis=1)) <= 1e-9
        for p in cloud.points:
            assert np.min(np.linalg.norm(verts - p, axis=1)) <= 1e-9
    _announce(3, "analytic extreme clouds equal exhaustive hull vertex sets")


def test_criterion_04_block_test(all_fixtures, inventories):
    checked = 0
    for name, optuple in all_fixtures.items():
        intervals = inventories[name]
        for interval, cone in zip(intervals, normal_cones(optuple, intervals, 48)):
            for pair in cone.pairs:
                checks = block_decomposition_checks(optuple, interval, pair)
                violation = max(checks.values())
                assert violation <= 1e-8, (name, pair.s, checks)
                checked += 1
    assert checked > 500
    _announce(4, f"three-block form holds for all {checked} cone members")


def test_criterion_05_degree_bound(all_fixtures, inventories):
    # the normal cone of a face is orthogonal to the face's span inside
    # R^{n+1}, so the sampled degree plus the face dimension is at most
    # the ambient dimension n + 1
    checked = 0
    for name, optuple in all_fixtures.items():
        bound = optuple.n + 1
        intervals = inventories[name]
        for interval, cone in zip(intervals, normal_cones(optuple, intervals, 48)):
            dim = face_dimension(optuple, interval)
            assert cone.degree + dim <= bound, (name, cone.degree, dim)
            checked += 1
    assert checked > 50
    _announce(5, f"degree + dimension within ambient bound on {checked} faces")


def test_criterion_06_gap_detection(all_fixtures, inventories):
    known = {
        "two_point": [(0.0, 1.0)],
        "reciprocal": [
            (1.0 / (k + 1), 1.0 / k) for k in range(1, 8)
        ],
    }
    spectra = {
        "two_point": np.array([0.0, 1.0]),
        "reciprocal": np.array([1.0 / k for k in range(1, 9)]),
    }
    for name in ("two_point", "reciprocal"):
        optuple = all_fixtures[name]
        reported = []
        intervals = inventories[name]
        for interval, cone in zip(intervals, normal_cones(optuple, intervals, 48)):
            if not interval.is_point():
                continue
            for rep in detect_gap(optuple, interval, cone):
                if rep.t[0] > 0:
                    reported.append((rep.s1, rep.s2))
                # the gap lives in the spectrum of b_t for the reported t
                spectrum_t = rep.t[0] * spectra[name]
                inside = (spectrum_t > rep.s1 + 1e-12) & (
                    spectrum_t < rep.s2 - 1e-12
                )
                assert not inside.any(), (name, rep.t, rep.s1, rep.s2)
        for s1, s2 in known[name]:
            assert any(
                abs(a - s1) <= 1e-12 and abs(b - s2) <= 1e-12
                for a, b in reported
            ), (name, s1, s2)
    _announce(6, "all known gaps reported, no reported gap meets the spectrum")


def test_criterion_07_centrality(all_fixtures):
    blockpair = all_fixtures["blockpair"]
    z = blockpair.algebra.diagonal(np.array([0.0, 0.0, 1.0]))
    from specscale.spectral import OrderInterval

    interval = OrderInterval(z, z)
    cone = normal_cone(blockpair, interval, 96)
    report = detect_central(blockpair, interval, cone)
    assert report.central and report.rank == 2
    assert report.commutator_norm <= 1e-12

    pauli = all_fixtures["pauli"]
    for interval in sampled_face_inventory(pauli, directions=16):
        cone = normal_cone(pauli, interval, 48)
        rep = detect_central(pauli, interval, cone)
        if rep.central:
            for tau in (rep.tau_lower, rep.tau_upper):
                assert tau <= 1e-10 or tau >= 1.0 - 1e-10

    for name in ("reciprocal", "commuting"):
        optuple = all_fixtures[name]
        cloud = extreme_point_cloud(optuple, 64)
        reports = isolated_extremes_to_center(optuple, cloud)
        assert reports
        for rep in reports:
            comm = max(
                max(
                    np.max(np.abs(x @ y - y @ x))
                    for x, y in zip(b.blocks, rep.projection.blocks)
                )
                for b in optuple.operators
            )
            assert comm <= 1e-10
    _announce(7, "central projections detected exactly where they must be")


def test_criterion_08_abelian_verdicts(all_fixtures):
    expectations = {
        "reciprocal": True,
        "commuting": True,
        "blockpair": False,
        "pauli": False,
    }
    for name, expected in expectations.items():
        verdict = abelian_verdict(all_fixtures[name], directions=64)
        assert verdict.geometric == expected, (name, verdict)
        assert verdict.algebraic == expected, (name, verdict)
    pauli_verdict = abelian_verdict(all_fixtures["pauli"], directions=64)
    assert pauli_verdict.cloud_counts[1] > pauli_verdict.cloud_counts[0]
    assert pauli_verdict.extreme_count == SAMPLING_INCOMPLETE
    _announce(8, "geometric and algebraic abelian verdicts agree on all fixtures")


def test_criterion_09_cutdown_reconstruction(all_fixtures, inventories):
    checked_faces = 0
    for name, optuple in all_fixtures.items():
        for interval in inventories[name]:
            if interval.is_point():
                continue
            cut = cut_down(optuple, interval)
            for x in random_ball_operators(cut.tuple, 200, seed=17):
                lhs = cut.base_point + cut.trace_r * psi(cut.tuple, x)
                rhs = psi(optuple, cut.lift(x))
                assert np.max(np.abs(lhs - rhs)) <= 1e-8
            checked_faces += 1
    assert checked_faces >= 10
    _announce(
        9, f"cut-down reconstruction on 200 samples x {checked_faces} faces"
    )


def test_criterion_10_isotrace_slices(all_fixtures):
    pauli = all_fixtures["pauli"]
    sl = isotrace_slice(pauli, 0.5, 720)
    assert len(sl.points) == 720
    radii = np.linalg.norm(sl.points, axis=1)
    assert np.max(np.abs(radii - 0.5)) <= 1e-6

    bottom = isotrace_slice(pauli, 0.0, 720)
    assert bottom.points.shape == (1, 2)
    assert np.all(bottom.points == 0.0)

    top = isotrace_slice(pauli, 1.0, 720)
    assert top.points.shape == (1, 2)
    traces = np.array([pauli.algebra.trace(b) for b in pauli.operators])
    np.testing.assert_allclose(top.points[0], traces, atol=1e-12)
    _announce(10, "isotrace slices: exact endpoints and the radius-1/2 circle")
