"""Operators are stored as one stack per block size.  Every stacked
computation is checked here against a plain per-block numpy reference
written out in the test, on random algebras whose block sizes interleave,
and the commands are checked to run one ``eigh`` per size class for the
directions they decompose, solving one row per pair ``t``, ``-t``."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specscale import algebra, spectral
from specscale.algebra import (
    Compression,
    FiniteAlgebra,
    HermitianOperator,
    OperatorTuple,
)
from specscale.cli import main
from specscale.spectral import CLUSTER_TOL


def _random_hermitian(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    # a few integer spectra, so clusters span several blocks
    if rng.random() < 0.5:
        u, _ = np.linalg.qr(z)
        z = (u * rng.integers(-2, 3, d)) @ u.conj().T
        return (z + z.conj().T) / 2
    return z + z.conj().T


@st.composite
def tuples(draw):
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=12))
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.uniform(0.5, 2.0, len(dims))
    weights = raw / (raw @ dims)
    alg = FiniteAlgebra(tuple(zip(dims, weights)))
    ops = tuple(
        HermitianOperator([_random_hermitian(rng, d) for d in dims]) for _ in range(n)
    )
    return OperatorTuple(alg, ops), rng


@st.composite
def repeating_tuples(draw):
    """Tuples on blocks of sizes 1 to 3 where some blocks repeat an
    earlier block's operators and half the operators have integer spectra,
    so eigenvalues repeat within and across blocks; and direction parts
    through every axis (whose ``b_t`` keep those repeats) and at random."""
    optuple, rng = draw(tuples())
    dims = list(optuple.algebra.dims)
    blocks = [[op.blocks[j] for op in optuple.operators] for j in range(len(dims))]
    for _ in range(draw(st.integers(0, 4))):
        j = int(rng.integers(len(dims)))
        dims.append(dims[j])
        blocks.append(blocks[j])
    raw = rng.uniform(0.5, 2.0, len(dims))
    alg = FiniteAlgebra(tuple(zip(dims, raw / (raw @ dims))))
    ops = tuple(
        HermitianOperator([mats[i] for mats in blocks]) for i in range(optuple.n)
    )
    from specscale.scale import _cloud_t_directions

    ts = _cloud_t_directions(optuple.n, draw(st.integers(0, 12)))
    return OperatorTuple(alg, ops), ts


def _trace(alg, blocks):
    return sum(c * np.trace(x).real for c, x in zip(alg.weights, blocks))


def _psi(optuple, blocks):
    alg = optuple.algebra
    return np.array(
        [_trace(alg, blocks)]
        + [
            _trace(alg, [x @ y for x, y in zip(b.blocks, blocks)])
            for b in optuple.operators
        ]
    )


def _decompose(alg, blocks):
    """Per-block eigenvalues, clustered as ``decompose`` documents."""
    eigs = [np.linalg.eigvalsh(x) for x in blocks]
    norm = max(np.abs(x).max() for x in blocks)
    tol = CLUSTER_TOL * max(1.0, norm)
    ordered = np.sort(np.concatenate(eigs))
    clusters = [[ordered[0]]]
    for prev, x in zip(ordered, ordered[1:]):
        if x - prev <= tol:
            clusters[-1].append(x)
        else:
            clusters.append([x])
    values = np.array([np.mean(c) for c in clusters])
    edges = [c[-1] for c in clusters]
    bounds = np.array(
        [[0] * len(blocks)]
        + [[int(np.sum(w <= edge)) for w in eigs] for edge in edges]
    )
    return bounds, values


def _assert_rows_exactly_hermitian(optuple, ts):
    # linear_combinations does not symmetrize: its rows are read-only and
    # already (A + A*)/2 bit for bit, signed zeros included
    for rows in algebra.linear_combinations(optuple, ts):
        assert not rows.flags.writeable
        assert rows.tobytes() == algebra._frozen_hermitian_part(rows).tobytes()


@settings(max_examples=40, deadline=None)
@given(tuples())
def test_stacked_operator_algebra_matches_per_block(case):
    optuple, rng = case
    alg = optuple.algebra
    a, b = optuple.operators[0], optuple.operators[-1]
    assert algebra.trace(alg, a) == pytest.approx(_trace(alg, a.blocks), abs=1e-12)
    pairs = zip(alg.weights, a.blocks, b.blocks)
    inner = sum(c * np.sum(x.conj() * y).real for c, x, y in pairs)
    assert alg.inner(a, b) == pytest.approx(inner, abs=1e-12)
    want = _psi(optuple, b.blocks)
    np.testing.assert_allclose(algebra.psi(optuple, b), want, atol=1e-12)
    assert algebra.max_norm(a) == max(np.abs(x).max() for x in a.blocks)
    comm = max(np.abs(x @ y - y @ x).max() for x, y in zip(a.blocks, b.blocks))
    assert algebra.commutator_norm(a, b) == pytest.approx(comm, abs=1e-12)
    t = rng.standard_normal(optuple.n)
    combined = algebra.linear_combination(optuple, t)
    for j, x in enumerate(combined.blocks):
        want = sum(c * op.blocks[j] for c, op in zip(t, optuple.operators))
        np.testing.assert_allclose(x, want, atol=1e-12)
    axes = np.eye(optuple.n)
    scaled = rng.standard_normal((8, optuple.n)) * 10.0 ** rng.uniform(-3, 3, (8, 1))
    _assert_rows_exactly_hermitian(optuple, np.vstack([axes, -axes, scaled]))


@settings(max_examples=40, deadline=None)
@given(tuples())
def test_stacked_frames_match_per_block(case):
    optuple, rng = case
    alg = optuple.algebra
    frame = spectral.direction_frame(optuple, rng.standard_normal(optuple.n))
    spectrum = frame.spectrum
    b_t = algebra.linear_combination(optuple, frame.t)
    bounds, values = _decompose(alg, b_t.blocks)
    np.testing.assert_array_equal(spectrum.bounds, bounds)
    np.testing.assert_allclose(spectrum.values, values, atol=1e-12)
    # psi of each leading range, projection by projection
    for k in range(len(bounds)):
        cols = spectrum.columns(0, k)
        proj = [V @ V.conj().T for V in cols]
        np.testing.assert_allclose(frame.psi_table[k], _psi(optuple, proj), atol=1e-10)
    # order margins against faces of this frame, of a second direction's
    # frame, of a checked interval and of that second frame with each
    # block's columns and the values reversed, so its clusters descend
    other = spectral.direction_frame(optuple, rng.standard_normal(optuple.n))
    ends = np.sort(rng.integers(0, len(other.spectrum.values) + 1, 2))
    checked = spectral.OrderInterval(
        *(other.spectrum.projection(0, k) for k in ends.tolist())
    )
    o = other.spectrum
    descending = spectral.SpectralFrame(
        o.layout,
        tuple(v[..., ::-1] for v in o.vectors),
        o.bounds[-1] - o.bounds[::-1],
        o.values[::-1],
    )
    count = len(o.values)
    face_sets = [
        [spectral.OrderInterval._from_frame(spectrum, 0, k) for k in (0, len(values))],
        [
            spectral.OrderInterval._from_frame(other.spectrum, lo, hi)
            for lo, hi in zip(*other.cuts)
        ],
        [checked],
        [
            spectral.OrderInterval._from_frame(descending, count - hi, count - lo)
            for lo, hi in zip(*other.cuts)
        ],
    ]
    for faces in face_sets:
        counts = np.array([f.counts for f in faces])
        below, above = spectrum.order_margins(faces[0].frame, *counts.T)
        for f, face in enumerate(faces):
            for k in range(len(bounds)):
                inside = spectrum.columns(0, k)
                outside = spectrum.columns(k, len(values))
                want_below = max(
                    [0.0]
                    + [
                        np.linalg.norm(V - q @ V, axis=0).max()
                        for V, q in zip(inside, face.lower.blocks)
                        if V.size
                    ]
                )
                want_above = max(
                    [0.0]
                    + [
                        np.linalg.norm(q @ V, axis=0).max()
                        for V, q in zip(outside, face.upper.blocks)
                        if V.size
                    ]
                )
                assert below[f, k] == pytest.approx(want_below, abs=1e-12)
                assert above[f, k] == pytest.approx(want_above, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(tuples())
def test_stacked_compression_matches_per_block(case):
    optuple, rng = case
    alg = optuple.algebra
    t = rng.standard_normal(optuple.n)
    spectrum = spectral.direction_frame(optuple, t).spectrum
    clusters = len(spectrum.values)
    first = int(rng.integers(0, clusters))
    stop = int(rng.integers(first + 1, clusters + 1))
    gap = spectrum.columns(first, stop)
    comp = Compression(optuple, gap)
    kept = [j for j, V in enumerate(gap) if V.shape[1]]
    assert comp.tuple.algebra.dims == tuple(gap[j].shape[1] for j in kept)
    np.testing.assert_allclose(
        comp.tuple.algebra.weights, alg.weights[kept] / comp.trace_r, rtol=1e-14
    )
    for b in optuple.operators:
        cut = comp.restrict(b)
        for local, j in enumerate(kept):
            V = gap[j]
            np.testing.assert_allclose(
                cut.blocks[local], V.conj().T @ b.blocks[j] @ V, atol=1e-12
            )
        back = comp.embed(cut)
        for j, x in enumerate(back.blocks):
            V = gap[j]
            np.testing.assert_allclose(
                x, V @ V.conj().T @ b.blocks[j] @ V @ V.conj().T, atol=1e-12
            )


@settings(max_examples=20, deadline=None)
@given(tuples())
def test_blocks_are_read_only_views_in_input_order(case):
    optuple, rng = case
    dims = optuple.algebra.dims
    raw = [_random_hermitian(rng, d) for d in dims]
    op = HermitianOperator(raw)
    assert op.dims == dims
    for j, x in enumerate(op.blocks):
        np.testing.assert_array_equal(x, (raw[j] + raw[j].conj().T) / 2)
        assert not x.flags.writeable
        k, i = op.layout.where[j]
        assert np.shares_memory(x, op.stacks[k])
        assert x is not op.stacks[k][i] and np.array_equal(x, op.stacks[k][i])
    assert all(not s.flags.writeable for s in op.stacks)
    sizes = [s.shape[1] for s in op.stacks]
    assert sizes == sorted(set(dims))


def _tuple_json(dims, n, seed):
    rng = np.random.default_rng(seed)
    blocks = []
    for d in dims:
        mats = []
        for _ in range(n):
            x = np.diag(rng.integers(-3, 4, d).astype(float))
            if d > 1:
                x[0, 1] = x[1, 0] = 0.5
            mats.append([[[v, 0.0] for v in row] for row in x.tolist()])
        blocks.append({"weight": 1.0 / sum(dims), "dim": d, "operators": mats})
    return {"blocks": blocks}


def _counting_rows(monkeypatch):
    """The rows each batched ``eigh`` of the spectral core solves (its
    stack's leading dimension), in call order."""
    eigh, rows = spectral.eigh, []

    def counting(stack, block):
        rows.append(len(stack))
        return eigh(stack, block)

    monkeypatch.setattr(spectral, "eigh", counting)
    return rows


def _run_quietly(argv):
    quiet = contextlib.redirect_stdout(io.StringIO())
    with quiet, contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0


@pytest.mark.parametrize(
    "dims", [(1,) * 128, (2, 1, 2, 1)], ids=["m128", "interleaved"]
)
@pytest.mark.parametrize("command", ["support", "extremes"])
def test_one_eigh_per_size_class_per_direction(tmp_path, monkeypatch, dims, command):
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(_tuple_json(dims, 2, 7)))
    direction_frames = spectral.direction_frames
    sizes = []  # directions per batch of decomposed directions
    rows = _counting_rows(monkeypatch)

    def counting_frames(optuple, ts, *args, **kwargs):
        frames = direction_frames(optuple, ts, *args, **kwargs)
        sizes.append(len(frames))
        return frames

    monkeypatch.setattr(spectral, "direction_frames", counting_frames)
    _run_quietly([command, "--input", str(path), "--samples", "0"])
    # the axes of R^3 give four distinct direction parts t, +-e1 and +-e2,
    # all decomposed in one batch: one eigh per size class for all four,
    # each solving the two rows e1 and e2, whose negations are mirrored
    classes = len(set(dims))
    assert sizes == [4]
    assert rows == [2] * classes


@pytest.mark.parametrize(
    "n, samples, rows",
    [(2, 32, 16), (2, 9, 9), (1, 32, 1)],
    ids=["n2-even", "n2-odd", "n1"],
)
def test_slice_solves_one_row_per_antipodal_pair(
    tmp_path, monkeypatch, n, samples, rows
):
    # an even n = 2 resolution negates its first half of angles, and n = 1
    # slices along +-1; an odd resolution holds no antipodal pair
    path = tmp_path / "tuple.json"
    dims = (2, 1, 2, 1)
    path.write_text(json.dumps(_tuple_json(dims, n, 7)))
    solved = _counting_rows(monkeypatch)
    _run_quietly(["slice", "--input", str(path), "--samples", str(samples)])
    assert solved == [rows] * len(set(dims))


def _frame_fields(frame):
    """Everything a frame reads off its decomposition, as arrays."""
    spectrum = frame.spectrum
    return [
        *spectrum.vectors,
        spectrum.bounds,
        spectrum.values,
        spectrum.deviation,
        np.float64(frame.eff_tol),
        frame.levels,
        *frame.cuts,
        frame.psi_table,
    ]


def _earlier_negation(ts, i):
    """The first row before ``i`` of ``ts`` equal to ``-ts[i]``, or None."""
    return next((j for j in range(i) if np.array_equal(ts[j], -ts[i])), None)


def _close(got, want):
    """``got`` and ``want`` agree within ``1e-12 * max(1, |want|)``."""
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("chunk", ["one direction", "default"])
@settings(max_examples=30, deadline=None)
@given(repeating_tuples())
def test_batched_frames_equal_one_direction_at_a_time(chunk, case):
    # a solved direction's frame has the bits it has decomposed alone; a
    # direction whose negation came earlier is mirrored, and has the bits
    # of its partner's mirror decomposed alone, and the frame of its b_t
    # decomposed directly, to rounding
    optuple, ts = case
    _assert_rows_exactly_hermitian(optuple, ts)
    with pytest.MonkeyPatch.context() as patch:
        if chunk == "one direction":
            patch.setattr(spectral, "STACK_CHUNK_BYTES", 1)
        batched = spectral.direction_frames(optuple, ts)
    assert len(batched) == len(ts)
    for i, (t, frame) in enumerate(zip(ts, batched)):
        partner = _earlier_negation(ts, i)
        direct = spectral.direction_frame(optuple, t)
        if partner is None:
            alone = direct
        else:
            alone = spectral.direction_frames(optuple, [ts[partner], t])[1]
        for got, want in zip(_frame_fields(frame), _frame_fields(alone), strict=True):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        if partner is None:
            continue
        solved = spectral.direction_frame(optuple, ts[partner]).spectrum
        for got, want in zip(frame.spectrum.vectors, solved.vectors, strict=True):
            assert got.tobytes() == want[..., ::-1].tobytes()
        bounds = frame.spectrum.bounds
        np.testing.assert_array_equal(bounds, solved.bounds[-1] - solved.bounds[::-1])
        np.testing.assert_array_equal(bounds, direct.spectrum.bounds)
        assert frame.eff_tol == direct.eff_tol
        _close(frame.levels, direct.levels)
        _close(frame.psi_table, direct.psi_table)


@st.composite
def dense_tuples(draw):
    """Tuples on one dense block of size 2 to 8, with the direction parts
    of a sphere sample, the signed axes among them."""
    d, n = draw(st.integers(2, 8)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alg = FiniteAlgebra(((d, 1.0 / d),))
    ops = tuple(HermitianOperator([_random_hermitian(rng, d)]) for _ in range(n))
    from specscale.scale import _cloud_t_directions

    return OperatorTuple(alg, ops), _cloud_t_directions(n, draw(st.integers(0, 12)))


@settings(max_examples=30, deadline=None)
@given(st.one_of(repeating_tuples(), dense_tuples()), st.floats(0.0, 1.0))
def test_mirror_frames_reflect_their_partners(case, level):
    # Psi(1 - a) = Psi(1) - Psi(a): the leading k clusters of b_{-t} are
    # the complement of the leading K - k of b_t
    from specscale import scale
    from specscale.oracle import oracle_support

    optuple, ts = case
    one = algebra.psi(optuple, optuple.algebra.identity())
    frames = spectral.direction_frames(optuple, ts)
    for i, (t, frame) in enumerate(zip(ts, frames)):
        partner = _earlier_negation(ts, i)
        if partner is None:
            continue
        table = frame.psi_table
        reflected = table + frames[partner].psi_table[::-1]
        _close(reflected, np.broadcast_to(one, table.shape))
        alphas, _ = scale.level_supports(frame)
        for s, alpha in zip(frame.levels, alphas):
            exact = -oracle_support(optuple, np.concatenate(([s], -t)))
            assert abs(alpha - exact) <= 1e-9 * max(1.0, abs(exact))
    if optuple.n > 2:
        return
    # the slice of an even resolution: the direction past pi negates the
    # one before it, and x(-u, l) = tau(b) - x(u, 1 - l), direction by
    # direction (no point dropped as a repeat)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scale, "_keep_first", lambda points, tol: points)
        low, high = (
            scale.isotrace_slice(optuple, x, 16).points for x in (level, 1.0 - level)
        )
    half = len(low) // 2
    _close(low[half:], one[1:] - high[:half])


def _matches_negated(rows, others, tol):
    """Every row of ``rows`` is within ``tol`` of the negation of some row of
    ``others``."""
    return all(np.abs(others + row).max(axis=1).min() <= tol for row in rows)


@settings(max_examples=30, deadline=None)
@given(st.one_of(repeating_tuples(), dense_tuples()))
def test_face_pass_reports_mirror_faces_through_psi_one(case):
    # Psi(1 - a) = Psi(1) - Psi(a): the face of b_{-t} whose ranks are the
    # complements of a face of b_t, reversed, is Psi(1) minus that face; it
    # is exposed at (-s, -t), its normal cone is the negated cone, and its
    # commutators are the negated commutators
    from specscale import faces, structure
    from specscale.oracle import oracle_support

    optuple, ts = case
    one = algebra.psi(optuple, optuple.algebra.identity())
    dims = np.array(optuple.algebra.dims)
    _, passed = faces.sweep_face_cones(optuple, ts)
    coned = [(face, cone) for face, cone in passed if cone is not None]
    reports = structure.detect_centrals(
        optuple, [face.interval for face, _ in coned], [cone for _, cone in coned]
    )
    reported = list(zip(coned, reports))
    for (face, cone), report in reported:
        lower, upper = faces.ranks(face.interval)
        for (other, mirror), other_report in reported:
            mirrored = np.array_equal(other.pair.t, -face.pair.t) and np.array_equal(
                faces.ranks(other.interval), [dims - upper, dims - lower]
            )
            if not mirrored:
                continue
            s = face.pair.s
            assert abs(other.pair.s + s) <= 1e-12 * max(1.0, abs(s))
            _close(other.vertices, one - face.vertices[::-1])
            for f in (face, other):
                normal = np.concatenate(([f.pair.s], -f.pair.t))
                exact = -oracle_support(optuple, normal)
                assert abs(f.alpha - exact) <= 1e-9 * max(1.0, abs(exact))
            assert len(mirror.members) == len(cone.members)
            assert _matches_negated(mirror.members, cone.members, 1e-12)
            assert _matches_negated(cone.members, mirror.members, 1e-12)
            assert (mirror.degree, mirror.exact) == (cone.degree, cone.exact)
            assert other_report.rank == report.rank
            norms = other_report.commutator_norm, report.commutator_norm
            assert abs(norms[0] - norms[1]) <= 1e-12 * max(1.0, *norms)


@pytest.mark.parametrize("chunk", [None, 1, 16 * 10])
@settings(max_examples=30, deadline=None)
@given(st.one_of(repeating_tuples(), dense_tuples()))
def test_commutator_table_matches_dense_commutators(chunk, case):
    # every leading range of every frame, mirrored ones included; a chunk
    # of 1 byte sums one column of one block at a time, one of 160 bytes
    # several columns or several blocks
    optuple, ts = case
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            patch.setattr(spectral, "STACK_CHUNK_BYTES", chunk)
        frames = spectral.direction_frames(optuple, ts)
        tables = [frame.spectrum.commutator_norms(optuple) for frame in frames]
    for frame, table in zip(frames, tables):
        spectrum = frame.spectrum
        assert table.shape == (len(spectrum.bounds),)
        want = [
            max(
                algebra.commutator_norm(b, spectrum.projection(0, k))
                for b in optuple.operators
            )
            for k in range(len(spectrum.bounds))
        ]
        _close(table, np.array(want))


def test_extremes_makes_one_eigh_per_size_class(tmp_path, monkeypatch):
    from specscale import fixtures
    from specscale.algebra import save_tuple

    path = tmp_path / "block_with_scalars.json"
    optuple = fixtures.block_with_scalars()
    save_tuple(optuple, path)
    eigh = np.linalg.eigh
    shapes = []

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    quiet = contextlib.redirect_stdout(io.StringIO())
    with quiet, contextlib.redirect_stderr(io.StringIO()):
        assert main(["extremes", "--input", str(path), "--samples", "32"]) == 0
    # every direction part of the sample in one stack per block size
    assert sorted(shape[-1] for shape in shapes) == sorted(set(optuple.algebra.dims))
    assert len(shapes) == len(set(optuple.algebra.dims)) == 2
