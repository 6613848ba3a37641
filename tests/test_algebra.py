import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from specscale.algebra import (
    FiniteAlgebra,
    HermitianOperator,
    OperatorTuple,
    _raw,
    generated_algebra_basis,
    is_contraction,
    linear_combination,
    max_norm,
    psi,
    trace,
    tuple_from_json,
    tuple_to_json,
)
from specscale.errors import (
    HermitianError,
    IngestError,
    MembershipError,
    ShapeError,
)
from specscale.oracle import random_ball_operators


def test_trace_of_identity_is_one():
    alg = FiniteAlgebra(((2, 0.5),))
    assert trace(alg, alg.identity()) == pytest.approx(1.0, abs=1e-14)


def test_trace_normalized_geometric_weights():
    norm = 1.0 - 2.0**-3
    alg = FiniteAlgebra(tuple((1, 2.0**-k / norm) for k in (1, 2, 3)))
    assert trace(alg, alg.identity()) == pytest.approx(1.0, abs=1e-14)


def test_trace_of_rank_one_projection():
    alg = FiniteAlgebra(((2, 0.5),))
    p = HermitianOperator([np.diag([1.0, 0.0])])
    assert trace(alg, p) == pytest.approx(0.5, abs=1e-14)


def test_trace_rejects_shape_mismatch():
    alg = FiniteAlgebra(((2, 0.5),))
    with pytest.raises(ShapeError):
        trace(alg, HermitianOperator([np.eye(3)]))


def test_algebra_rejects_bad_normalization():
    with pytest.raises(ShapeError):
        FiniteAlgebra(((2, 1.0),))
    with pytest.raises(ShapeError):
        FiniteAlgebra(((2, -0.5), (1, 2.0)))


def test_psi_of_zero_and_identity(pauli):
    alg = pauli.algebra
    assert np.allclose(psi(pauli, alg.zero()), 0.0)
    image = psi(pauli, alg.identity())
    traces = [alg.trace(b) for b in pauli.operators]
    assert np.allclose(image, [1.0, *traces], atol=1e-12)


def test_psi_identity_single_operator(reciprocal8):
    alg = reciprocal8.algebra
    image = psi(reciprocal8, alg.identity())
    expected = np.array([1.0, alg.trace(reciprocal8.operators[0])])
    np.testing.assert_allclose(image, expected, atol=1e-14)


def test_psi_pauli_projection(pauli):
    a = 0.5 * (pauli.algebra.identity() + pauli.operators[0])
    assert np.allclose(psi(pauli, a), [0.5, 0.5, 0.0], atol=1e-12)


def test_psi_membership_check(pauli):
    bad = 2.0 * pauli.algebra.identity()
    with pytest.raises(MembershipError):
        psi(pauli, bad, check_membership=True)
    ok = 0.5 * pauli.algebra.identity()
    psi(pauli, ok, check_membership=True)


def test_linear_combination_axes(pauli):
    b1 = linear_combination(pauli, np.array([1.0, 0.0]))
    assert max_norm(b1 - pauli.operators[0]) == 0.0
    zero = linear_combination(pauli, np.array([0.0, 0.0]))
    assert max_norm(zero) == 0.0
    both = linear_combination(pauli, np.array([1.0, 1.0]))
    assert np.allclose(both.blocks[0], [[1.0, 1.0], [1.0, -1.0]])


def test_generated_basis_scalar_tuple():
    alg = FiniteAlgebra(((2, 0.5),))
    b = HermitianOperator([3.0 * np.eye(2)])
    basis = generated_algebra_basis(OperatorTuple(alg, (b,)))
    assert len(basis) == 1


def test_generated_basis_pauli_fills_matrix_algebra(pauli):
    assert len(generated_algebra_basis(pauli)) == 4


def _generic_tuple(dims):
    """Two seeded random self-adjoint operators, dense on every block."""
    rng = np.random.default_rng(7)
    alg = FiniteAlgebra(tuple((d, 1.0 / sum(dims)) for d in dims))
    ops = []
    for _ in range(2):
        blocks = []
        for d in dims:
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            blocks.append(z + z.conj().T)
        ops.append(HermitianOperator(blocks))
    return OperatorTuple(alg, tuple(ops))


@pytest.mark.parametrize("dims, expected", [((3,), 9), ((6,), 36), ((2, 3), 13)])
def test_generated_basis_fills_generic_blocks(dims, expected):
    # generic operators generate the whole of M_{d_1} (+) ... (+) M_{d_k}
    assert len(generated_algebra_basis(_generic_tuple(dims))) == expected


@pytest.mark.parametrize(
    "rows",
    [
        [(1.0, 0.0), (1.0, 1.0), (2.0, 1.0)],
        [tuple(r) for r in np.random.default_rng(4).integers(0, 4, (16, 2))],
    ],
    ids=["three_blocks", "seeded_16_blocks"],
)
def test_generated_basis_joint_eigenspaces(rows):
    # commuting 1x1 blocks generate one minimal projection per distinct
    # joint-value row
    alg = FiniteAlgebra(tuple((1, 1.0 / len(rows)) for _ in rows))
    ops = tuple(
        HermitianOperator([[[float(v)]] for v in column]) for column in zip(*rows)
    )
    basis = generated_algebra_basis(OperatorTuple(alg, ops))
    assert len(basis) == len(set(rows))


@pytest.mark.parametrize("name", ["pauli", "blockpair", "generic_3_2"])
def test_generated_basis_is_closed_under_products(name, request):
    tol = 1e-10
    if name == "generic_3_2":
        optuple = _generic_tuple((3, 2))
    else:
        optuple = request.getfixturevalue(name)
    alg = optuple.algebra
    basis = generated_algebra_basis(optuple)
    for x in basis:
        for y in basis:
            prod = [p @ q for p, q in zip(x.blocks, y.blocks)]
            for part in (
                _raw([(m + m.conj().T) / 2.0 for m in prod]),
                _raw([(m - m.conj().T) / 2j for m in prod]),
            ):
                residual = part
                for e in basis:
                    residual = residual - alg.inner(e, part) * e
                assert alg.inner(residual, residual) <= tol


def test_generated_basis_is_orthonormal(blockpair):
    basis = generated_algebra_basis(blockpair)
    gram = np.array(
        [[blockpair.algebra.inner(x, y) for y in basis] for x in basis]
    )
    np.testing.assert_allclose(gram, np.eye(len(basis)), atol=1e-9)


def test_hermitian_rejection():
    with pytest.raises(HermitianError):
        HermitianOperator([np.array([[0.0, 1.0], [0.0, 0.0]])])
    # the checked constructor bounds max|A - A*| by HERMITIAN_TOL = 1e-10
    a = np.array([[0.0, 1.0 + 0.9e-10], [1.0, 0.0]])
    HermitianOperator([a])
    a[0, 1] = 1.0 + 1.1e-10
    with pytest.raises(HermitianError):
        HermitianOperator([a])
    with pytest.raises(ShapeError):
        HermitianOperator([np.zeros((2, 3))])


@pytest.mark.parametrize(
    "blocks, message",
    [
        ([[[np.nan]], [[1.0]]], "block 0 has a non-finite entry"),
        ([[[1.0, np.inf], [np.inf, 1.0]]], "block 0 has a non-finite entry"),
        ([[[1.0]], [[1.0, 0.0], [np.inf, 1.0]]], "block 1 has a non-finite entry"),
        ([[[np.inf]]], "block 0 has a non-finite entry"),
    ],
)
def test_checked_constructor_rejects_non_finite_blocks(blocks, message):
    with pytest.raises(HermitianError, match=message):
        HermitianOperator(blocks)


def test_checked_constructor_names_the_first_bad_block_in_input_order():
    # dims (2, 1, 2, 1): blocks 0 and 2 share a stack, as do 1 and 3
    good = [np.eye(2), [[1.0]], np.eye(2), [[2.0]]]
    blocks = list(good)
    blocks[2] = np.array([[1.0, np.nan], [np.nan, 1.0]])  # second of its size
    with pytest.raises(HermitianError, match="block 2 has a non-finite entry"):
        HermitianOperator(blocks)
    blocks[3] = [[1j]]  # a later block of the other size is bad too
    with pytest.raises(HermitianError, match="block 2 "):
        HermitianOperator(blocks)
    blocks[1] = [[np.inf]]  # an earlier one, first of the other size
    with pytest.raises(HermitianError, match="block 1 has a non-finite entry"):
        HermitianOperator(blocks)
    blocks = list(good)
    blocks[2] = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(HermitianError, match="block 2 deviates"):
        HermitianOperator(blocks)


@pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
def test_algebra_rejects_non_finite_weights(weight):
    with pytest.raises(ShapeError, match="block 0 has weight .*, not positive"):
        FiniteAlgebra(((1, weight),))
    with pytest.raises(ShapeError, match="block 1 has weight .*, not positive"):
        FiniteAlgebra(((1, 0.5), (1, weight)))


def test_hermitian_symmetrizes_roundoff():
    a = np.array([[1.0, 0.5 + 1e-12j], [0.5 - 3e-12j, 2.0]])
    op = HermitianOperator([a])
    assert np.allclose(op.blocks[0], op.blocks[0].conj().T)


def test_raw_blocks_are_exactly_hermitian_and_read_only():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(z)
    near = (q * [0.1, 0.2, 0.3, 0.4]) @ q.conj().T  # Hermitian up to roundoff
    assert not np.array_equal(near, near.conj().T)
    op = _raw([near, [[2.0]]])
    for b in op.blocks:
        assert b.dtype == complex
        assert np.array_equal(b, b.conj().T)
        assert not b.flags.writeable
    np.testing.assert_allclose(op.blocks[0], near, atol=1e-15)


def test_raw_neither_aliases_nor_freezes_its_input():
    m = np.array([[1.0, 2.0 + 1e-13j], [2.0, 3.0]])
    before = m.copy()
    op = _raw([m])
    assert not np.shares_memory(op.blocks[0], m)
    assert m.flags.writeable and np.array_equal(m, before)
    m[0, 0] = 7.0
    assert op.blocks[0][0, 0] == 1.0


@settings(max_examples=25, deadline=None)
@given(
    x=arrays(np.float64, (3, 3), elements=st.floats(-2, 2)),
    y=arrays(np.float64, (3, 3), elements=st.floats(-2, 2)),
    coeffs=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
)
def test_psi_is_linear(x, y, coeffs):
    alg = FiniteAlgebra(((3, 1.0 / 3.0),))
    b = HermitianOperator([np.diag([1.0, -1.0, 0.5])])
    optuple = OperatorTuple(alg, (b,))
    a1 = _raw([x + x.T])
    a2 = _raw([y + y.T])
    alpha, beta = coeffs
    lhs = psi(optuple, alpha * a1 + beta * a2)
    rhs = alpha * psi(optuple, a1) + beta * psi(optuple, a2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    x=arrays(np.float64, (2, 2), elements=st.floats(-2, 2)),
    y=arrays(np.float64, (2, 2), elements=st.floats(-2, 2)),
)
def test_trace_is_tracial(x, y):
    alg = FiniteAlgebra(((2, 0.5),))
    a = (x + x.T) + 0j
    b = (y + y.T) + 0j
    ab = _raw([(a @ b + b @ a) / 2])
    ba = _raw([(b @ a + a @ b) / 2])
    assert trace(alg, ab) == pytest.approx(trace(alg, ba), abs=1e-10)
    lhs = float(np.trace(a @ b).real) * 0.5
    rhs = float(np.trace(b @ a).real) * 0.5
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_faithfulness_bound(blockpair):
    # tr(a^2) dominates the squared max entry through the smallest weight,
    # so a vanishing trace of a^2 forces a vanishing operator.
    alg = blockpair.algebra
    rng = np.random.default_rng(3)
    min_weight = min(alg.weights)
    for _ in range(50):
        raw = [rng.standard_normal((d, d)) for d in alg.dims]
        a = _raw(raw)
        sq = _raw([b @ b for b in a.blocks])
        assert trace(alg, sq) >= min_weight * max_norm(a) ** 2 - 1e-12


@pytest.mark.parametrize(
    "name", ["reciprocal8", "two_point", "pauli", "commuting", "blockpair"]
)
def test_unit_ball_images_have_valid_trace_coordinate(name, request):
    optuple = request.getfixturevalue(name)
    for a in random_ball_operators(optuple, 1000, seed=11):
        assert is_contraction(optuple.algebra, a)
        x0 = psi(optuple, a)[0]
        assert -1e-10 <= x0 <= 1.0 + 1e-10


def test_json_roundtrip(blockpair):
    text = json.dumps(tuple_to_json(blockpair))
    back = tuple_from_json(text)
    assert back.algebra.blocks == blockpair.algebra.blocks
    for a, b in zip(back.operators, blockpair.operators):
        assert max_norm(a - b) == 0.0


def test_json_schema_field_names(pauli):
    obj = tuple_to_json(pauli)
    assert set(obj) == {"blocks"}
    assert set(obj["blocks"][0]) == {"weight", "dim", "operators"}
    entry = obj["blocks"][0]["operators"][0][0][1]
    assert entry == [1.0, 0.0]


@pytest.mark.parametrize(
    "mangle, path_fragment",
    [
        (lambda o: o.pop("blocks"), "blocks"),
        (lambda o: o["blocks"][0].pop("weight"), "blocks[0]"),
        (
            lambda o: o["blocks"][0]["operators"][0].pop(0),
            "blocks[0].operators[0]",
        ),
        (
            lambda o: o["blocks"][0]["operators"][0][0].__setitem__(0, "x"),
            "blocks[0].operators[0][0][0]",
        ),
        (lambda o: o["blocks"][1]["operators"].pop(), "blocks[1].operators"),
    ],
)
def test_json_diagnostics_carry_field_paths(blockpair, mangle, path_fragment):
    obj = tuple_to_json(blockpair)
    mangle(obj)
    with pytest.raises(IngestError) as err:
        tuple_from_json(json.dumps(obj))
    assert path_fragment in str(err.value)
