import numpy as np
import pytest

from specscale.algebra import (
    FiniteAlgebra,
    HermitianOperator,
    OperatorTuple,
    _raw,
    linear_combination,
    max_norm,
)
from specscale.errors import ZeroDirectionError
from specscale.spectral import (
    OrderInterval,
    SpectralPair,
    decompose,
    direction_frame,
    eigengap_of,
    interval_projections,
    is_projection,
    projection_leq,
)


def one_block(matrix, dim):
    alg = FiniteAlgebra(((dim, 1.0 / dim),))
    return alg, HermitianOperator([matrix])


def test_decompose_merges_repeated_eigenvalues():
    alg, a = one_block(np.diag([1.0, 1.0, 2.0]), 3)
    spectrum = decompose(alg, a)
    assert list(np.diff(spectrum.bounds.sum(axis=1))) == [2, 1]
    np.testing.assert_allclose(spectrum.values, [1.0, 2.0])


def test_decompose_reciprocal_spectrum(reciprocal8):
    spectrum = decompose(reciprocal8.algebra, reciprocal8.operators[0])
    expected = sorted(1.0 / k for k in range(1, 9))
    np.testing.assert_allclose(spectrum.values, expected, atol=1e-12)
    assert np.all(np.diff(spectrum.bounds.sum(axis=1)) == 1)


def test_decompose_flip_matrix_projections():
    alg, a = one_block(np.array([[0.0, 1.0], [1.0, 0.0]]), 2)
    spectrum = decompose(alg, a)
    np.testing.assert_allclose(spectrum.values, [-1.0, 1.0], atol=1e-12)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(
        spectrum.projection(0, 1).blocks[0], (np.eye(2) - sx) / 2, atol=1e-12
    )
    np.testing.assert_allclose(
        spectrum.projection(1, 2).blocks[0], (np.eye(2) + sx) / 2, atol=1e-12
    )


def test_decompose_invariants_random():
    rng = np.random.default_rng(7)
    alg = FiniteAlgebra(((3, 0.2), (2, 0.2)))
    for _ in range(20):
        blocks = [rng.standard_normal((d, d)) for d in (3, 2)]
        a = _raw(blocks)
        spectrum = decompose(alg, a)
        projections = [
            spectrum.projection(k, k + 1) for k in range(len(spectrum.values))
        ]
        total = alg.zero()
        recon = alg.zero()
        for value, p in zip(spectrum.values, projections):
            assert is_projection(p)
            total = total + p
            recon = recon + value * p
        assert max_norm(total - alg.identity()) <= 1e-8
        assert max_norm(recon - a) <= 1e-8
        for i, pi in enumerate(projections):
            for pj in projections[i + 1 :]:
                prod = [x @ y for x, y in zip(pi.blocks, pj.blocks)]
                assert max(np.max(np.abs(p)) for p in prod) <= 1e-8


def test_interval_projections_in_a_gap(two_point):
    interval = interval_projections(two_point, SpectralPair(0.5, np.array([1.0])))
    expected = np.array([[1.0]]), np.array([[0.0]])
    for p in (interval.lower, interval.upper):
        np.testing.assert_allclose(p.blocks[0], expected[0], atol=1e-12)
        np.testing.assert_allclose(p.blocks[1], expected[1], atol=1e-12)


def test_interval_projections_at_an_eigenvalue(two_point):
    interval = interval_projections(two_point, SpectralPair(1.0, np.array([1.0])))
    np.testing.assert_allclose(interval.lower.blocks[0], [[1.0]], atol=1e-12)
    np.testing.assert_allclose(interval.lower.blocks[1], [[0.0]], atol=1e-12)
    np.testing.assert_allclose(interval.upper.blocks[0], [[1.0]], atol=1e-12)
    np.testing.assert_allclose(interval.upper.blocks[1], [[1.0]], atol=1e-12)


@pytest.mark.parametrize("eig_eq_tol", [None, 1e-6])
def test_interval_projections_at_the_band_edge(eig_eq_tol):
    # max_norm 5 scales the band to 5 * eig_eq_tol; the doubled eigenvalue
    # 2 counts as "at s" strictly inside the band and nowhere outside it
    alg, b = one_block(np.diag([-1.0, 2.0, 2.0, 5.0]), 4)
    optuple = OperatorTuple(alg, (b,))
    band = direction_frame(optuple, np.array([1.0]), eig_eq_tol=eig_eq_tol).eff_tol
    assert band == 5 * (eig_eq_tol or 1e-8)

    def diagonals(s):
        interval = interval_projections(
            optuple, SpectralPair(s, np.array([1.0])), eig_eq_tol=eig_eq_tol
        )
        return [np.diag(p.blocks[0]).real for p in (interval.lower, interval.upper)]

    for s in (2.0 - (1 - 1e-3) * band, 2.0 + (1 - 1e-3) * band):
        p_minus, p_plus = diagonals(s)
        np.testing.assert_allclose(p_minus, [1, 0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(p_plus, [1, 1, 1, 0], atol=1e-12)
    for s, side in (
        (2.0 - (1 + 1e-3) * band, [1, 0, 0, 0]),
        (2.0 + (1 + 1e-3) * band, [1, 1, 1, 0]),
    ):
        for p in diagonals(s):
            np.testing.assert_allclose(p, side, atol=1e-12)


def test_interval_projections_reciprocal_gap_is_rank_one(reciprocal8):
    interval = interval_projections(
        reciprocal8, SpectralPair(1.0 / 3.0, np.array([1.0]))
    )
    gap = interval.gap()
    traces = [float(np.trace(b).real) for b in gap.blocks]
    assert traces[2] == pytest.approx(1.0, abs=1e-10)
    assert sum(traces) == pytest.approx(1.0, abs=1e-10)


def test_spectral_pair_requires_nonzero_direction():
    with pytest.raises(ZeroDirectionError):
        SpectralPair(0.0, np.zeros(2))


def test_eigengap(two_point, reciprocal8):
    b = linear_combination(two_point, np.array([1.0]))
    assert eigengap_of(two_point.algebra, b, 0.1, 0.9)
    assert not eigengap_of(two_point.algebra, b, -0.5, 0.5)
    br = linear_combination(reciprocal8, np.array([1.0]))
    eps = 1e-6
    assert eigengap_of(reciprocal8.algebra, br, 1 / 3 + eps, 1 / 2 - eps)


def test_monotonicity_in_s(pauli):
    rng = np.random.default_rng(5)
    for _ in range(10):
        t = rng.standard_normal(2)
        levels = np.sort(rng.uniform(-2, 2, 4))
        prev = None
        for s in levels:
            interval = interval_projections(pauli, SpectralPair(s, t))
            if prev is not None:
                assert projection_leq(prev, interval.upper)
            prev = interval.upper


def test_projections_commute_with_the_operator(blockpair):
    rng = np.random.default_rng(9)
    for _ in range(10):
        t = rng.standard_normal(2)
        s = rng.uniform(-4, 6)
        b_t = linear_combination(blockpair, t)
        interval = interval_projections(blockpair, SpectralPair(s, t))
        for p in (interval.lower, interval.upper):
            comm = max(
                np.max(np.abs(x @ y - y @ x))
                for x, y in zip(b_t.blocks, p.blocks)
            )
            assert comm <= 1e-8


def test_positive_scaling_covariance(blockpair):
    t = np.array([0.7, -0.4])
    s = 0.9
    base = interval_projections(blockpair, SpectralPair(s, t))
    scaled = interval_projections(blockpair, SpectralPair(2.5 * s, 2.5 * t))
    assert max_norm(base.lower - scaled.lower) <= 1e-10
    assert max_norm(base.upper - scaled.upper) <= 1e-10


def test_boundary_levels(reciprocal8):
    alg = reciprocal8.algebra
    low = interval_projections(reciprocal8, SpectralPair(0.01, np.array([1.0])))
    assert max_norm(low.upper) == 0.0
    high = interval_projections(reciprocal8, SpectralPair(2.0, np.array([1.0])))
    assert max_norm(high.lower - alg.identity()) == 0.0


def test_order_interval_validation(pauli):
    p = 0.5 * (pauli.algebra.identity() + pauli.operators[0])
    one = pauli.algebra.identity()
    OrderInterval(p, one)
    from specscale.errors import ShapeError

    with pytest.raises(ShapeError):
        OrderInterval(one, p)  # not ordered
    with pytest.raises(ShapeError):
        OrderInterval(0.5 * one, one)  # not a projection


def test_directions_of_the_wrong_shape_raise(pauli):
    from specscale import spectral
    from specscale.errors import ShapeError

    for ts in ([np.ones(3)], [np.ones(2), np.ones(3)], [np.ones((2, 1))]):
        with pytest.raises(ShapeError):
            spectral.direction_frames(pauli, ts)


def test_interval_from_spectrum_rejects_another_algebra(pauli):
    # the same block count, another block size
    from specscale.errors import ShapeError
    from specscale.spectral import interval_from_spectrum

    alg, a = one_block(np.array([[1.0]]), 1)
    spectrum = decompose(alg, a)
    with pytest.raises(ShapeError, match="different algebra"):
        interval_from_spectrum(pauli.algebra, spectrum, 1.0, 1e-8)
    assert interval_from_spectrum(alg, spectrum, 1.0, 1e-8).counts == (0, 1)


# ------------------------------------------------------- the spectral frame


def _reference_clusters(alg, a, cluster_tol=1e-9):
    """Clusters the long way: rank-one outer products per eigenvector.

    Same stable sort and chained ``<= tol`` merge as ``decompose``; each
    projection is summed from ``np.outer`` terms.
    """
    tol = cluster_tol * max(1.0, max_norm(a))
    entries = []
    for j, b in enumerate(a.blocks):
        w, v = np.linalg.eigh(b)
        entries += [(float(w[k]), j, v[:, k]) for k in range(len(w))]
    entries.sort(key=lambda e: e[0])
    groups = [[entries[0]]]
    for e in entries[1:]:
        if e[0] - groups[-1][-1][0] <= tol:
            groups[-1].append(e)
        else:
            groups.append([e])
    out = []
    for group in groups:
        blocks = [np.zeros((d, d), dtype=complex) for d in alg.dims]
        for _, j, vec in group:
            blocks[j] += np.outer(vec, vec.conj())
        out.append((float(np.mean([e[0] for e in group])), len(group), blocks))
    return out


def _random_hermitian(rng, d, eigenvalues):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(z)
    return (q * eigenvalues) @ q.conj().T


def _frame_cases():
    """(algebra, operator) pairs: dense blocks, many repeated 1x1 blocks,
    and an eigenvalue chain at 1e-9 spacing split across blocks."""
    rng = np.random.default_rng(23)
    cases = []
    dims = (3, 1, 2)
    alg = FiniteAlgebra(tuple((d, 1.0 / 6.0) for d in dims))
    for _ in range(5):
        blocks = [_random_hermitian(rng, d, rng.standard_normal(d)) for d in dims]
        cases.append((alg, _raw(blocks)))
    # 40 one-dimensional blocks, eigenvalues repeated across them
    w = rng.uniform(0.5, 1.5, 40)
    alg = FiniteAlgebra(tuple((1, c / w.sum()) for c in w))
    values = rng.choice([-1.0, 0.0, 0.5, 2.0], size=40)
    cases.append((alg, HermitianOperator([[[v]] for v in values])))
    # 2 + k*1e-9 for k = 0..7 alternating between a 6x6 and a 4x4 block,
    # with isolated eigenvalues -1 and 3
    chain = 2.0 + 1e-9 * np.arange(8)
    alg = FiniteAlgebra(((6, 0.1), (4, 0.1)))
    blocks = [
        _random_hermitian(rng, 6, np.concatenate(([-1.0], chain[::2], [3.0]))),
        _random_hermitian(rng, 4, chain[1::2]),
    ]
    cases.append((alg, _raw(blocks)))
    return cases


@pytest.mark.parametrize("case", range(len(_frame_cases())))
def test_cluster_projections_match_outer_products(case):
    alg, a = _frame_cases()[case]
    spectrum = decompose(alg, a)
    reference = _reference_clusters(alg, a)
    multiplicities = np.diff(spectrum.bounds.sum(axis=1))
    assert list(multiplicities) == [r[1] for r in reference]
    assert list(spectrum.values) == [r[0] for r in reference]
    traces = np.diff(spectrum.bounds, axis=0) @ alg.weights
    for k, (_, _, blocks) in enumerate(reference):
        for got, want in zip(spectrum.projection(k, k + 1).blocks, blocks):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        expected_weight = sum(
            w * np.trace(b).real for (_, w), b in zip(alg.blocks, blocks)
        )
        assert traces[k] == pytest.approx(expected_weight, abs=1e-12)


def test_eigenvalue_chain_merges_past_the_tolerance():
    # the merge is transitive: the chain spans 7e-9, more than the scaled
    # cluster tolerance, and still becomes one cluster
    alg, a = _frame_cases()[-1]
    assert 7e-9 > 1e-9 * max(1.0, max_norm(a))
    spectrum = decompose(alg, a)
    assert list(np.diff(spectrum.bounds.sum(axis=1))) == [1, 8, 1]
    np.testing.assert_allclose(
        spectrum.values, [-1.0, 2.0 + 3.5e-9, 3.0], rtol=0, atol=1e-12
    )
    chain = spectrum.projection(1, 2)
    assert [round(float(np.trace(b).real)) for b in chain.blocks] == [4, 4]


def test_eigenvalue_chain_reads_as_one_eigenvalue():
    # what the transitive merge does downstream: a level anywhere on the
    # chain puts the whole chain in p_plus, so the face is a segment and the
    # support value is off by at most the chain's trace times its span
    from specscale.oracle import oracle_support
    from specscale.scale import exposed_face, support_value

    alg, a = _frame_cases()[-1]
    optuple = OperatorTuple(alg, (a,))
    spectrum = decompose(alg, a)
    value = spectrum.values[1]
    trace = (np.diff(spectrum.bounds, axis=0) @ alg.weights)[1]
    for s in (2.0, value, 2.0 + 7e-9):
        pair = SpectralPair(s, np.array([1.0]))
        exact = -oracle_support(optuple, [s, -1.0])
        error = support_value(optuple, pair) - exact
        assert -1e-15 <= error <= trace * 7e-9
        if s == value:
            assert error <= 1e-9
        face = exposed_face(optuple, pair)
        assert tuple(face.interval.counts) == (1, 2)
        assert face.dimension == 1


def _sweep_tuples():
    from specscale import fixtures
    from specscale.algebra import OperatorTuple

    out = [fixtures.pauli_pair(), fixtures.block_with_scalars()]
    for alg, a in _frame_cases()[-2:]:
        out.append(OperatorTuple(alg, (a, alg.identity())))
    return out


@pytest.mark.parametrize("index", range(4))
def test_sweep_intervals_match_interval_projections(index):
    from specscale import sampling
    from specscale.scale import _cloud_t_directions
    from specscale.spectral import direction_frames, interval_from_spectrum

    optuple = _sweep_tuples()[index]
    directions = _cloud_t_directions(optuple.n, 6)
    frames = direction_frames(optuple, directions)
    assert len(frames) == len(directions)
    for frame, t in zip(frames, directions):
        assert np.array_equal(frame.t, t)
        np.testing.assert_array_equal(
            frame.levels, sampling.eigenvalue_sweep(frame.spectrum.values)
        )
        b_t = linear_combination(optuple, frame.t)
        reference = _reference_clusters(optuple.algebra, b_t)
        for s in frame.levels:
            got = interval_from_spectrum(
                optuple.algebra, frame.spectrum, s, frame.eff_tol
            )
            want = interval_projections(optuple, SpectralPair(s, t))
            assert max_norm(got.lower - want.lower) <= 1e-12
            assert max_norm(got.upper - want.upper) <= 1e-12
            # and the upper endpoint against the outer-product sums
            for j, got_block in enumerate(got.upper.blocks):
                want_block = np.zeros_like(got_block)
                for value, _, blocks in reference:
                    if value <= s + frame.eff_tol:
                        want_block += blocks[j]
                np.testing.assert_allclose(got_block, want_block, rtol=0, atol=1e-12)


def _dimension_tuples():
    """Two-operator tuples on the random blocks, and the 1e-9 chain."""
    from specscale.algebra import OperatorTuple

    cases = _frame_cases()
    out = [OperatorTuple(cases[k][0], (cases[k][1], cases[k + 1][1])) for k in (0, 2)]
    alg, a = cases[-1]
    out.append(OperatorTuple(alg, (a, alg.identity())))
    return out


@pytest.mark.parametrize("index", range(3))
def test_sweep_face_dimension_matches_projection_built(index):
    # the sweep reads the gap's basis off the frame's cluster columns; the
    # reference diagonalises the materialised gap projection
    from specscale.scale import face_dimension, sweep_faces

    optuple = _dimension_tuples()[index]
    dims = []
    for face in sweep_faces(optuple, 6):
        assert face.dimension == face_dimension(optuple, face.interval)
        dims.append(face.dimension)
    assert max(dims) >= 1


# ------------------------------------------------- frame-backed intervals


def _frame_tuples():
    """Two-operator tuples on every frame case (random blocks, 40 repeated
    1x1 blocks, the 1e-9 chain), the second operator random; on the 1x1
    blocks it takes three values, so mixed directions repeat eigenvalues
    too."""
    rng = np.random.default_rng(31)
    out = []
    for alg, a in _frame_cases():
        if all(d == 1 for d in alg.dims):
            b = alg.diagonal(rng.choice([-1.0, 0.0, 1.0], size=len(alg.dims)))
        else:
            b = _raw(
                [_random_hermitian(rng, d, rng.standard_normal(d)) for d in alg.dims]
            )
        out.append(OperatorTuple(alg, (a, b)))
    return out


def _frames(optuple):
    from specscale.scale import _cloud_t_directions
    from specscale.spectral import direction_frames

    return direction_frames(optuple, _cloud_t_directions(optuple.n, 6))


@pytest.mark.parametrize("case", range(len(_frame_cases())))
def test_frame_intervals_are_ordered_projections(case):
    optuple = _frame_tuples()[case]
    for frame in _frames(optuple):
        for lower, upper in zip(*frame.cuts):
            interval = OrderInterval._from_frame(frame.spectrum, lower, upper)
            assert is_projection(interval.lower) and is_projection(interval.upper)
            assert projection_leq(interval.lower, interval.upper)
            assert interval.is_point() == (max_norm(interval.gap()) <= 1e-8)


@pytest.mark.parametrize("case", range(len(_frame_cases())))
def test_psi_table_matches_the_built_endpoints(case):
    from specscale.algebra import operator_product, psi
    from specscale.scale import _support_in_frame

    optuple = _frame_tuples()[case]
    alg = optuple.algebra
    for frame in _frames(optuple):
        for s, lower, upper in zip(frame.levels, *frame.cuts):
            interval = OrderInterval._from_frame(frame.spectrum, lower, upper)
            normal = np.concatenate(([-s], frame.t))
            shifted = linear_combination(optuple, frame.t) - s * alg.identity()
            alphas = []
            for k, p in ((lower, interval.lower), (upper, interval.upper)):
                row = frame.psi_table[k]
                np.testing.assert_allclose(row, psi(optuple, p), rtol=0, atol=1e-12)
                assert abs(row[0] - alg.trace(p)) <= 1e-12
                alphas.append(alg.trace(_raw(operator_product(shifted, p))))
                assert abs(row @ normal - alphas[-1]) <= 1e-12
            alpha = _support_in_frame(frame, s, lower, upper)
            assert abs(alpha - alphas[1]) <= 1e-12


def _distinct_proper_faces(optuple, directions):
    from specscale.faces import _is_proper, intervals_equal
    from specscale.scale import sweep_faces

    distinct = []
    for face in sweep_faces(optuple, directions):
        if not any(intervals_equal(face.interval, f.interval) for f in distinct):
            distinct.append(face)
    return [f.interval for f in distinct if _is_proper(optuple, f.interval)]


@pytest.mark.parametrize(
    "name", ["reciprocal8", "two_point", "pauli", "commuting", "blockpair"]
)
def test_frame_order_test_matches_interval_contains(name, request):
    # every level of every normal cone the face pass samples at 8 directions
    from specscale.faces import (
        _candidate_directions,
        _commutant_bases,
        interval_contains,
    )
    from specscale.scale import _cloud_t_directions
    from specscale.spectral import PROJECTION_TOL, direction_frames

    optuple = request.getfixturevalue(name)
    raw = _cloud_t_directions(optuple.n, 8)
    verdicts = []
    for interval in _distinct_proper_faces(optuple, 8):
        lowers, uppers = interval.counts[:1], interval.counts[1:]
        basis = _commutant_bases(optuple, [interval])[0]
        for frame in direction_frames(optuple, _candidate_directions(basis, raw)):
            spectral_frame = frame.spectrum
            (below,), (above,) = spectral_frame.order_margins(
                interval.frame, lowers, uppers
            )
            for lower, upper in zip(*frame.cuts):
                by_frame = max(below[lower], above[upper]) <= PROJECTION_TOL
                candidate = OrderInterval._from_frame(spectral_frame, lower, upper)
                built = interval_contains(candidate, interval)
                assert by_frame == built
                verdicts.append(built)
    assert any(verdicts) and not all(verdicts)


def test_non_orthonormal_frame_raises():
    from specscale.errors import NumericalError
    from specscale.spectral import SpectralFrame

    alg, a = _frame_cases()[0]
    frame = decompose(alg, a)
    SpectralFrame(frame.layout, frame.vectors, frame.bounds, frame.values)
    vectors = [v.copy() for v in frame.vectors]
    k, i = frame.layout.where[2]
    vectors[k][i][:, 1] *= 1.0 + 1e-6
    with pytest.raises(NumericalError, match="block 2"):
        SpectralFrame(frame.layout, tuple(vectors), frame.bounds, frame.values)


def test_non_orthonormal_row_of_a_batch_raises(monkeypatch):
    # dims (3, 1, 2): block 2 sits alone in the size-2 class; the fourth
    # direction decomposed is bent there, in a batch of all directions or
    # of one direction each, and only that direction raises
    from specscale import spectral
    from specscale.errors import NumericalError
    from specscale.scale import _cloud_t_directions

    optuple = _frame_tuples()[0]
    ts = _cloud_t_directions(optuple.n, 6)
    solve = spectral.eigh
    rows = [0]  # directions of the size-2 class solved so far

    def bent(stack, block):
        w, v = solve(stack, block)
        if stack.shape[-1] == 2:
            first, rows[0] = rows[0], rows[0] + len(stack)
            if first <= 3 < rows[0]:
                v = v.copy()
                v[3 - first, 0, :, 1] *= 1.0 + 1e-6
        return w, v

    monkeypatch.setattr(spectral, "eigh", bent)
    for chunk in (spectral.STACK_CHUNK_BYTES, 1):  # 1: one direction a chunk
        monkeypatch.setattr(spectral, "STACK_CHUNK_BYTES", chunk)
        rows[0] = 0
        spectral.direction_frames(optuple, ts[:3])
        rows[0] = 0
        with pytest.raises(NumericalError, match="block 2"):
            spectral.direction_frames(optuple, ts)


def test_direction_frames_build_no_operator_and_check_each_chunk_once(monkeypatch):
    # the b_t stay stacks, and one orthonormality measurement (and check)
    # covers every direction of a chunk
    from specscale import algebra, spectral

    optuple = _frame_tuples()[0]
    ts = np.random.default_rng(7).standard_normal((64, optuple.n))
    # 16 bytes per entry of the 14 block entries: 16 directions a chunk
    monkeypatch.setattr(spectral, "STACK_CHUNK_BYTES", 16 * 14 * 16)
    calls = {"_from_stacks": 0, "_deviations": 0}

    def counting(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in (
        (algebra, "_from_stacks"),
        (spectral, "_from_stacks"),
        (spectral, "_deviations"),
    ):
        counting(owner, name)
    frames = spectral.direction_frames(optuple, ts)
    assert [np.array_equal(f.t, t) for f, t in zip(frames, ts)] == [True] * 64
    assert calls == {"_from_stacks": 0, "_deviations": 4}


def test_shifted_cluster_bound_trips_the_support_check():
    from specscale.algebra import psi
    from specscale.errors import InvariantViolation
    from specscale.scale import _support_in_frame
    from specscale.spectral import (
        DirectionFrame,
        SpectralFrame,
        cut_clusters,
        direction_frame,
    )

    optuple = _frame_tuples()[0]
    frame = direction_frame(optuple, np.array([1.0, 0.0]))
    bounds = frame.spectrum.bounds
    # a cluster k whose successor owns a column of block 0
    k = next(k for k in range(len(bounds) - 2) if bounds[k + 1, 0] < bounds[k + 2, 0])
    s = frame.spectrum.values[k]
    assert tuple(cut_clusters(frame.spectrum, s, frame.eff_tol)) == (k, k + 1)
    _support_in_frame(frame, s, k, k + 1)
    shifted_bounds = bounds.copy()
    shifted_bounds[k + 1, 0] += 1  # cluster k takes its successor's column
    spectrum = SpectralFrame(
        frame.spectrum.layout,
        frame.spectrum.vectors,
        shifted_bounds,
        frame.spectrum.values,
    )
    table = [psi(optuple, spectrum.projection(0, c)) for c in range(len(bounds))]
    shifted = DirectionFrame(optuple, frame.t, spectrum, frame.eff_tol, np.array(table))
    with pytest.raises(InvariantViolation):
        _support_in_frame(shifted, s, k, k + 1)


@pytest.mark.parametrize("case", range(len(_frame_cases())))
def test_rank_one_gaps_cut_down_to_a_segment(case):
    # what lets scale.face_dimension answer 1 for them unmeasured
    from specscale.algebra import Compression
    from specscale.scale import scale_dimension

    optuple = _frame_tuples()[case]
    seen = 0
    for frame in _frames(optuple):
        for lower, upper in zip(*frame.cuts):
            gap = frame.spectrum.columns(lower, upper)
            if sum(g.shape[1] for g in gap) == 1:
                seen += 1
                assert scale_dimension(Compression(optuple, gap).tuple).dimension == 1
    assert seen


# ------------------------------------------- one interval representation

_FIXTURE_NAMES = ["reciprocal8", "two_point", "pauli", "commuting", "blockpair"]
_EQUALITY_CASES = [(name, None) for name in _FIXTURE_NAMES] + [
    (None, case) for case in range(len(_frame_cases()))
]


def _equality_faces(name, case, request):
    """The tuple and its sweep faces: the fixtures at 8 directions, the
    frame tuples at 6."""
    from specscale.scale import sweep_faces

    if name is not None:
        optuple = request.getfixturevalue(name)
        return optuple, list(sweep_faces(optuple, 8))
    optuple = _frame_tuples()[case]
    return optuple, list(sweep_faces(optuple, 6))


def _flat(op):
    return np.concatenate([b.ravel() for b in op.blocks])


@pytest.mark.parametrize("name,case", _EQUALITY_CASES)
def test_equality_rule_matches_built_endpoints(name, case, request):
    from specscale.faces import intervals_equal
    from specscale.spectral import PROJECTION_TOL

    optuple, faces = _equality_faces(name, case, request)
    intervals = [f.interval for f in faces]
    built = [(_flat(i.lower), _flat(i.upper)) for i in intervals]
    verdicts = []
    for a in range(len(intervals)):
        for b in range(a + 1, len(intervals)):
            by_operators = all(
                float(np.max(np.abs(x - y))) <= PROJECTION_TOL
                for x, y in zip(built[a], built[b])
            )
            assert intervals_equal(intervals[a], intervals[b]) == by_operators
            verdicts.append(by_operators)
    assert any(verdicts) and not all(verdicts)
    for interval in intervals:
        twin = OrderInterval(interval.lower, interval.upper)
        assert intervals_equal(interval, twin) and intervals_equal(twin, interval)


@pytest.mark.parametrize("name,case", _EQUALITY_CASES)
def test_is_point_and_is_proper_match_their_operator_definitions(name, case, request):
    from specscale.faces import _is_proper
    from specscale.spectral import PROJECTION_TOL

    optuple, faces = _equality_faces(name, case, request)
    one = optuple.algebra.identity()
    points = []
    for face in faces:
        interval = face.interval
        for candidate in (interval, OrderInterval(interval.lower, interval.upper)):
            point = max_norm(candidate.upper - candidate.lower) <= PROJECTION_TOL
            assert candidate.is_point() == point
            whole = (
                max_norm(candidate.lower) <= PROJECTION_TOL
                and max_norm(candidate.upper - one) <= PROJECTION_TOL
            )
            assert _is_proper(optuple, candidate) == (not whole)
            points.append(point)
    assert any(points) and not all(points)


def test_checked_interval_keeps_the_callers_operators(pauli):
    p = 0.5 * (pauli.algebra.identity() + pauli.operators[0])
    one = pauli.algebra.identity()
    interval = OrderInterval(p, one)
    assert interval.lower is p and interval.upper is one


@pytest.mark.parametrize("name,case", _EQUALITY_CASES)
def test_interval_columns_rebuild_the_three_projections(name, case, request):
    optuple, faces = _equality_faces(name, case, request)
    one = optuple.algebra.identity()
    # the whole scale: the frame of -(0 + 1) has the single value -1
    whole = OrderInterval(optuple.algebra.zero(), one)
    np.testing.assert_array_equal(whole.frame.values, [-1.0])
    assert whole.counts == (0, 1)
    candidates = [whole]
    for face in faces:
        interval = face.interval
        candidates += [interval, OrderInterval(interval.lower, interval.upper)]
    for candidate in candidates:
        wanted = {
            "lower": candidate.lower,
            "gap": candidate.upper - candidate.lower,
            "above": one - candidate.upper,
        }
        for part, projection in wanted.items():
            columns = candidate.columns(part)
            rebuilt = _raw([v @ v.conj().T for v in columns])
            assert max_norm(rebuilt - projection) <= 1e-12


def test_face_pass_dedup_builds_no_projection(commuting, monkeypatch):
    # the dedup, the proper-face test and the normal cones read ranks and
    # products of frames; no endpoint is built as an operator
    from specscale import faces
    from specscale.spectral import SpectralFrame

    built = []
    before_first_cone = []
    projection, sample_cones = SpectralFrame.projection, faces._sample_cones

    def counting_projection(self, first, stop):
        built.append((first, stop))
        return projection(self, first, stop)

    def noting_cones(*args, **kwargs):
        if not before_first_cone:
            before_first_cone.append(len(built))
        return sample_cones(*args, **kwargs)

    monkeypatch.setattr(SpectralFrame, "projection", counting_projection)
    monkeypatch.setattr(faces, "_sample_cones", noting_cones)
    _, passed = faces.sweep_face_cones(commuting, 8)
    assert len(passed) > 1
    assert before_first_cone == [0]
    assert not built


def _mixed_block_tuple():
    """Blocks of sizes 1, 2, 3, 2, 3, 1 whose 3x3 blocks repeat one matrix
    triple, so every ``b_t`` repeats their eigenvalues; ``b_1`` has integer
    eigenvalues repeated across blocks, ``b_2`` is generic and ``b_3 =
    b_1 / 2 - b_2 + 1/4``."""
    rng = np.random.default_rng(7)
    dims = (1, 2, 3, 2, 3, 1)
    weights = np.array([3.0, 1.0, 2.0, 1.5, 1.0, 2.0])
    weights /= weights @ dims
    blocks = {}
    for j in (0, 1, 2, 3, 5):
        d = dims[j]
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        u, _ = np.linalg.qr(g)
        b1 = u @ np.diag(rng.integers(-1, 2, d).astype(float)) @ u.conj().T
        b2 = g + g.conj().T
        blocks[j] = (b1, b2, b1 / 2 - b2 + np.eye(d) / 4)
    blocks[4] = blocks[2]
    ops = tuple(HermitianOperator([blocks[j][i] for j in range(6)]) for i in range(3))
    return OperatorTuple(FiniteAlgebra(tuple(zip(dims, weights.tolist()))), ops)


def test_entry_table_matches_compression_and_commutators():
    # gap entries against the reference cut-down, crossing entries against
    # ambient commutators with the endpoints, rotated into the frame; sweep
    # frames and the frames of checked intervals
    from specscale.algebra import Compression
    from specscale.scale import interval_dimensions, scale_dimension, sweep_frames

    optuple = _mixed_block_tuple()
    layout = optuple.algebra.layout
    intervals = []
    for frame in sweep_frames(optuple, 4):
        for lower, upper in zip(*frame.cuts):
            intervals.append(OrderInterval._from_frame(frame.spectrum, lower, upper))
    intervals += [OrderInterval(iv.lower, iv.upper) for iv in intervals[::5]]
    block = np.concatenate(
        [np.repeat(idx, d * d) for d, idx in zip(layout.sizes, layout.members)]
    )
    wide = 0
    for interval in intervals:
        frame, (lower, upper) = interval.frame, interval.counts
        table = frame.entries(optuple)
        gap = (lower <= table.lo) & (table.hi < upper)
        ranks = frame.bounds[upper] - frame.bounds[lower]
        if ranks.sum() > 1:
            wide += 1
            comp = Compression(optuple, interval.columns("gap"))
            assert set(block[gap]) == set(comp.kept_blocks.tolist())
            for local, j in enumerate(comp.kept_blocks):
                mine = gap & (block == j)
                r = ranks[j]
                assert mine.sum() == r * r
                np.testing.assert_allclose(
                    table.weight[mine] / comp.trace_r,
                    comp.tuple.algebra.weights[local],
                    rtol=1e-12,
                )
                for y, op in zip(table.values, comp.tuple.operators):
                    np.testing.assert_allclose(
                        y[mine].reshape(r, r), op.blocks[local], rtol=0, atol=1e-12
                    )
            (dim,) = interval_dimensions(optuple, frame, [lower], [upper])
            assert dim == scale_dimension(comp.tuple).dimension
        for k, q in zip(interval.counts, (interval.lower, interval.upper)):
            straddle = (table.lo < k) & (k <= table.hi)
            for j, (cls, slot) in enumerate(layout.where):
                v, d = frame.vectors[cls][slot], optuple.algebra.dims[j]
                inside = np.arange(d) < frame.bounds[k, j]
                crossing = inside[:, None] != inside[None, :]
                assert np.array_equal(straddle[block == j].reshape(d, d), crossing)
                sign = inside[None, :].astype(int) - inside[:, None]
                for y, b in zip(table.values, optuple.operators):
                    x, p = b.blocks[j], q.blocks[j]
                    rotated = v.conj().T @ (x @ p - p @ x) @ v
                    expected = y[block == j].reshape(d, d) * sign
                    np.testing.assert_allclose(rotated, expected, rtol=0, atol=1e-12)
    assert wide > 10


def _rank_one_range(x, *blocks):
    """The leading range of a checked interval whose endpoints are both
    the projection onto the unit vector ``x`` in the first block, next to
    the projections ``blocks`` in the others."""
    p = HermitianOperator([np.outer(x, x.conj()), *blocks])
    return OrderInterval(p, p).ends[0]


@pytest.mark.parametrize("tol_name", ["PROJECTION_TOL", "PROJECTION_MATCH_TOL"])
@pytest.mark.parametrize("factor, same", [(0.5, True), (2.0, False)])
def test_same_range_at_its_tolerance_edge(tol_name, factor, same):
    # u against cos θ u + sin θ w: |(1 - q) u| is sin θ, alone and, dims
    # (3, 2), beside a second block both ranges fill
    from specscale import scale, spectral
    from specscale.spectral import same_range

    tol = getattr(scale if tol_name == "PROJECTION_MATCH_TOL" else spectral, tol_name)
    rng = np.random.default_rng(3)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u, w = np.linalg.qr(z)[0][:, :2].T
    sin = factor * tol
    turned = np.sqrt(1.0 - sin**2) * u + sin * w
    for full in ((), (np.eye(2),)):
        a, b = _rank_one_range(u, *full), _rank_one_range(turned, *full)
        assert a[0].bounds[a[1]].tolist() == [1, 2][: 1 + len(full)]
        assert same_range(a, b, tol) is same


def test_same_range_reads_no_product_without_a_partly_filled_block(monkeypatch):
    # dims (3, 2): every block empty or full in both ranges, from two frames
    from specscale.spectral import PROJECTION_TOL, SpectralFrame, same_range

    def unreached(*args):
        raise AssertionError("order_margins reached")

    monkeypatch.setattr(SpectralFrame, "order_margins", unreached)
    projections = [
        HermitianOperator([np.zeros((3, 3)), np.eye(2)]),
        HermitianOperator([np.eye(3), np.zeros((2, 2))]),
    ]
    for p in projections:
        a, b = (OrderInterval(p, p).ends[0] for _ in range(2))
        assert a[0] is not b[0]
        assert same_range(a, b, PROJECTION_TOL) is True
    a, b = (OrderInterval(p, p).ends[0] for p in projections)  # ranks differ
    assert same_range(a, b, PROJECTION_TOL) is False


def test_same_range_on_the_frames_of_t_and_a_multiple():
    # b_t and b_{2.5 t} share their spectral projections; their frames are
    # solved apart, so every leading range is compared across frames
    from test_golden import dense_block

    from specscale.spectral import PROJECTION_TOL, same_range

    optuple = dense_block(64, 2, 64)
    t = np.array([0.6, -0.8])
    a, b = (direction_frame(optuple, x).spectrum for x in (t, 2.5 * t))
    assert a is not b
    np.testing.assert_array_equal(a.bounds, b.bounds)
    for k in range(len(a.bounds)):
        assert same_range((a, k), (b, k), PROJECTION_TOL)
