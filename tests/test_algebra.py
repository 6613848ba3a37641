import gc
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from specscale import algebra, fixtures
from specscale.algebra import (
    FiniteAlgebra,
    HermitianOperator,
    OperatorTuple,
    _raw,
    generated_algebra_basis,
    is_contraction,
    linear_combination,
    load_tuple,
    max_norm,
    psi,
    save_tuple,
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


# ---------------------------------------------------------------------------
# Ingestion diagnostics: every malformed document below gives exactly this
# exception and message.  Base document: blocks of dims (2, 1), weights
# (0.25, 0.5), two operators.  "@@x@@" stands for the raw JSON token x.
# ---------------------------------------------------------------------------


def _base_doc():
    return {
        "blocks": [
            {
                "weight": 0.25,
                "dim": 2,
                "operators": [
                    [[[1, 0], [0.5, -0.25]], [[0.5, 0.25], [-1, 0]]],
                    [[[0, 0], [1.0, 0]], [[1.0, 0], [0, 0]]],
                ],
            },
            {"weight": 0.5, "dim": 1, "operators": [[[[2, 0]]], [[[-0.0, 0.0]]]]},
        ]
    }


class _Text:
    """A mangle of the base document's text rather than of its object."""

    def __init__(self, edit):
        self.edit = edit

    def __call__(self, doc):
        pass


def _doc_text(mangle):
    doc = _base_doc()
    mangle(doc)
    text = re.sub(r'"@@(.*?)@@"', r"\1", json.dumps(doc))
    return mangle.edit(text) if isinstance(mangle, _Text) else text


def _ops(doc, j):
    return doc["blocks"][j]["operators"]


def _set(j, key, value):
    return lambda doc: doc["blocks"][j].__setitem__(key, value)


def _entry(j, i, r, c, value):
    return lambda doc: _ops(doc, j)[i][r].__setitem__(c, value)


def _both(*mangles):
    def mangle(doc):
        for m in mangles:
            m(doc)

    return mangle


PAIR = "matrix entry must be a [re, im] pair"
FINITE = "matrix entry must be finite"
MALFORMED = {
    "entry_true": (
        _entry(0, 0, 0, 0, True),
        IngestError,
        f"blocks[0].operators[0][0][0]: {PAIR}",
    ),
    "component_true": (
        _entry(0, 0, 0, 1, [True, 0]),
        IngestError,
        f"blocks[0].operators[0][0][1]: {PAIR}",
    ),
    "entry_string": (
        _entry(0, 0, 1, 0, "1"),
        IngestError,
        f"blocks[0].operators[0][1][0]: {PAIR}",
    ),
    "component_string": (
        _entry(0, 1, 1, 1, [0, "0"]),
        IngestError,
        f"blocks[0].operators[1][1][1]: {PAIR}",
    ),
    "pair_of_one": (
        _entry(1, 0, 0, 0, [1.0]),
        IngestError,
        f"blocks[1].operators[0][0][0]: {PAIR}",
    ),
    "pair_of_three": (
        _entry(0, 1, 0, 1, [1, 2, 3]),
        IngestError,
        f"blocks[0].operators[1][0][1]: {PAIR}",
    ),
    "nan": (
        _entry(0, 0, 1, 1, ["@@NaN@@", 0]),
        IngestError,
        f"blocks[0].operators[0][1][1]: {FINITE}",
    ),
    "infinity": (
        _entry(1, 1, 0, 0, [0, "@@Infinity@@"]),
        IngestError,
        f"blocks[1].operators[1][0][0]: {FINITE}",
    ),
    "float_1e400": (
        _entry(0, 1, 1, 0, ["@@1e400@@", 0]),
        IngestError,
        f"blocks[0].operators[1][1][0]: {FINITE}",
    ),
    "int_10_to_400": (
        _entry(0, 0, 0, 1, [0, 10**400]),
        IngestError,
        f"blocks[0].operators[0][0][1]: {FINITE}",
    ),
    "row_not_list": (
        lambda d: _ops(d, 0)[1].__setitem__(1, 5),
        IngestError,
        "blocks[0].operators[1][1]: expected 2 entries",
    ),
    "short_row": (
        lambda d: _ops(d, 0)[0][0].pop(),
        IngestError,
        "blocks[0].operators[0][0]: expected 2 entries",
    ),
    "wrong_row_count": (
        lambda d: _ops(d, 0)[1].append([[0, 0], [0, 0]]),
        IngestError,
        "blocks[0].operators[1]: expected 2 matrix rows",
    ),
    "matrix_not_list": (
        lambda d: _ops(d, 1).__setitem__(0, {}),
        IngestError,
        "blocks[1].operators[0]: expected 1 matrix rows",
    ),
    "dim_true": (
        _set(1, "dim", True),
        IngestError,
        "blocks[1].dim: dim must be a positive integer",
    ),
    "weight_true": (
        _set(0, "weight", True),
        IngestError,
        "blocks[0].weight: weight must be a positive number",
    ),
    "weight_zero": (
        _set(1, "weight", 0),
        IngestError,
        "blocks[1].weight: weight must be a positive number",
    ),
    "weight_negative": (
        _set(0, "weight", -1),
        IngestError,
        "blocks[0].weight: weight must be a positive number",
    ),
    "weight_1e400": (
        _set(1, "weight", "@@1e400@@"),
        IngestError,
        "blocks[1].weight: weight must be finite",
    ),
    "operator_count": (
        lambda d: _ops(d, 1).pop(),
        IngestError,
        "blocks[1].operators: expected 2 operators, found 1",
    ),
    "normalization": (
        _set(1, "weight", 0.25),
        IngestError,
        "blocks: trace normalization sum(c_j d_j) = 0.75 is not 1",
    ),
    "non_hermitian": (
        _entry(0, 1, 0, 1, [2, 0]),
        HermitianError,
        "block 0 deviates from self-adjointness by 1.000e+00",
    ),
    "non_hermitian_1x1": (
        _entry(1, 1, 0, 0, [0, 1]),
        HermitianError,
        "block 1 deviates from self-adjointness by 2.000e+00",
    ),
    # two faults: the first in document order wins
    "entry_then_weight": (
        _both(_entry(0, 1, 1, 1, [0, "@@NaN@@"]), _set(1, "weight", 0)),
        IngestError,
        f"blocks[0].operators[1][1][1]: {FINITE}",
    ),
    "weight_then_entry": (
        _both(_set(0, "weight", -1), _entry(1, 0, 0, 0, True)),
        IngestError,
        "blocks[0].weight: weight must be a positive number",
    ),
    "entry_then_operator_count": (
        _both(_entry(0, 0, 0, 0, [1]), lambda d: _ops(d, 1).pop()),
        IngestError,
        f"blocks[0].operators[0][0][0]: {PAIR}",
    ),
    # block 1 (dim 1) is stacked before block 0 (dim 2), yet block 0 is first
    "entries_across_size_classes": (
        _both(_entry(1, 0, 0, 0, "x"), _entry(0, 1, 0, 0, ["@@Infinity@@", 0])),
        IngestError,
        f"blocks[0].operators[1][0][0]: {FINITE}",
    ),
    "operator_before_row": (
        _both(_entry(0, 0, 1, 1, ["@@NaN@@", 0]), _entry(0, 1, 0, 0, True)),
        IngestError,
        f"blocks[0].operators[0][1][1]: {FINITE}",
    ),
    "entry_then_non_hermitian": (
        _both(_entry(0, 0, 0, 1, [7, 0]), _entry(1, 1, 0, 0, [0, 0, 0])),
        IngestError,
        f"blocks[1].operators[1][0][0]: {PAIR}",
    ),
    "normalization_then_non_hermitian": (
        _both(_entry(0, 0, 0, 1, [7, 0]), _set(0, "weight", 0.5)),
        IngestError,
        "blocks: trace normalization sum(c_j d_j) = 1.5 is not 1",
    ),
    "non_hermitian_operator_first": (
        _both(_entry(0, 1, 0, 1, [7, 0]), _entry(1, 0, 0, 0, [2, 3])),
        HermitianError,
        "block 1 deviates from self-adjointness by 6.000e+00",
    ),
    # numbers and texts that JSON decoders read differently
    "dim_30_digits": (
        _set(0, "dim", 123456789012345678901234567890),
        IngestError,
        "blocks[0].operators[0]: expected 123456789012345678901234567890 matrix rows",
    ),
    "weight_1e-400": (
        _set(1, "weight", "@@1e-400@@"),
        IngestError,
        "blocks[1].weight: weight must be a positive number",
    ),
    "weight_30_digits": (
        _set(1, "weight", 123456789012345678901234567890),
        IngestError,
        "blocks: trace normalization sum(c_j d_j) = 1.2345678901234568e+29 is not 1",
    ),
    "empty_text": (
        _Text(lambda text: ""),
        IngestError,
        "invalid JSON: Expecting value: line 1 column 1 (char 0)",
    ),
    "utf8_bom": (
        _Text(lambda text: "\ufeff" + text),
        IngestError,
        "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
        "line 1 column 1 (char 0)",
    ),
    "trailing_data": (
        _Text(lambda text: text + " []"),
        IngestError,
        "invalid JSON: Extra data: line 1 column 220 (char 219)",
    ),
    "duplicate_blocks_last_empty": (
        _Text(lambda text: text[:-1] + ', "blocks": []}'),
        IngestError,
        "blocks: must be a non-empty list",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_messages(case):
    mangle, kind, message = MALFORMED[case]
    with pytest.raises(kind) as err:
        tuple_from_json(_doc_text(mangle))
    assert type(err.value) is kind
    assert str(err.value) == message


def test_base_document_is_well_formed():
    optuple = tuple_from_json(_doc_text(lambda doc: None))
    assert optuple.algebra.dims == (2, 1) and optuple.n == 2
    np.testing.assert_array_equal(
        optuple.operators[0].blocks[0], [[1, 0.5 - 0.25j], [0.5 + 0.25j, -1]]
    )


# Documents that JSON decoders read differently, all well formed: each reads
# as the base document with the one entry of operator 0 on block 1 (None:
# unchanged) that ``json.loads`` gives.
ACCEPTED = {
    "lone_surrogate_key": (_Text(lambda text: '{"\\ud800": 0, ' + text[1:]), None),
    "duplicate_blocks_last_wins": (_Text(lambda text: '{"blocks": [], ' + text[1:]), None),
    "entry_5e-324": (_entry(1, 0, 0, 0, [5e-324, 0]), 5e-324),
    "entry_30_digits": (
        _entry(1, 0, 0, 0, [123456789012345678901234567890, 0]),
        float(123456789012345678901234567890),
    ),
    "keys_outside_the_schema": (
        _both(lambda doc: doc.__setitem__("note", "x"), _set(0, "note", [[1], {}])),
        None,
    ),
}


@pytest.mark.parametrize("where", ["top", "block"])
def test_deep_nesting_in_a_field_nobody_reads_is_refused(where):
    deep = "@@" + "[" * 10**5 + "]" * 10**5 + "@@"
    mangle = _set(1, "note", deep) if where == "block" else lambda d: d.update(note=deep)
    with pytest.raises(IngestError) as err:
        tuple_from_json(_doc_text(mangle))
    assert str(err.value).startswith("invalid JSON: maximum recursion depth exceeded")


@pytest.mark.parametrize("case", sorted(ACCEPTED))
def test_edge_documents_read_as_the_standard_decoder_reads_them(case):
    mangle, value = ACCEPTED[case]
    text = _doc_text(mangle)
    optuple = tuple_from_json(text)
    _same_operators(optuple, tuple_from_json(json.loads(text)))
    expected = _base_doc()
    if value is not None:
        _ops(expected, 1)[0] = [[[value, 0]]]
    _same_operators(optuple, tuple_from_json(expected))


@pytest.mark.parametrize("enabled", [True, False])
def test_load_tuple_restores_the_collector(tmp_path, enabled):
    cases = {
        "base": (lambda doc: None, None),
        "entry_true": MALFORMED["entry_true"][:2],  # refused by the fast path
        "normalization": MALFORMED["normalization"][:2],  # raised after it
        "non_hermitian": MALFORMED["non_hermitian"][:2],
    }
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for name, (mangle, kind) in cases.items():
            path = tmp_path / f"{name}.json"
            path.write_text(_doc_text(mangle), encoding="utf-8")
            if kind is None:
                load_tuple(path)
            else:
                with pytest.raises(kind):
                    load_tuple(path)
            assert gc.isenabled() is enabled, name
    finally:
        (gc.enable if was else gc.disable)()


# ---------------------------------------------------------------------------
# Text read through the fast decoder against the decoded object, which is
# read as before: the same bits in every stack and weight.
# ---------------------------------------------------------------------------

_NUMBER_FORMATS = (repr, "{:.17g}".format, "{:.25e}".format)


@st.composite
def _tuple_texts(draw):
    """JSON text of an exactly Hermitian, normalized tuple whose numbers
    are floats (subnormals included) and integers up to 10**30, each
    rendered by ``repr``, ``.17g`` or ``.25e``."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    n = draw(st.integers(1, 3))
    reals = st.one_of(
        st.floats(-1e300, 1e300, allow_subnormal=True),
        st.floats(-1e-300, 1e-300, allow_subnormal=True),
        st.integers(-(10**30), 10**30),
    )

    def number(x):
        if isinstance(x, int):
            return str(x)
        return draw(st.sampled_from(_NUMBER_FORMATS))(x)

    blocks = []
    for d in dims:
        operators = []
        for _ in range(n):
            m = [[None] * d for _ in range(d)]
            for i in range(d):
                m[i][i] = f"[{number(draw(reals))}, {number(0.0)}]"
                for k in range(i + 1, d):
                    re, im = draw(reals), draw(reals)
                    m[i][k] = f"[{number(re)}, {number(im)}]"
                    m[k][i] = f"[{number(re)}, {number(-im)}]"
            operators.append("[" + ", ".join("[" + ", ".join(r) + "]" for r in m) + "]")
        weight = number(1.0 / sum(dims))
        blocks.append(
            f'{{"weight": {weight}, "dim": {d}, "operators": [{", ".join(operators)}]}}'
        )
    return '{"blocks": [' + ", ".join(blocks) + "]}"


def _refuse(*args, **kwargs):
    raise AssertionError("decoded by json.loads")


@settings(max_examples=150, deadline=None)
@given(_tuple_texts())
def test_text_reads_bit_for_bit_as_the_decoded_object(text):
    reference = tuple_from_json(json.loads(text))
    with pytest.MonkeyPatch.context() as patch:
        # read by the fast path: the standard decoder is never called
        patch.setattr(algebra.json, "loads", _refuse)
        fast = tuple_from_json(text)
    assert fast.algebra.weights.tobytes() == reference.algebra.weights.tobytes()
    _same_operators(fast, reference)


@pytest.mark.parametrize(
    "case, code",
    [
        ("entry_true", 2),
        ("weight_zero", 2),
        ("entry_then_weight", 2),
        ("non_hermitian", 3),
        ("dim_30_digits", 2),
        ("utf8_bom", 2),
    ],
)
def test_malformed_input_exit_codes(tmp_path, capsys, case, code):
    from specscale.cli import main

    path = tmp_path / f"{case}.json"
    path.write_text(_doc_text(MALFORMED[case][0]), encoding="utf-8")
    assert main(["support", "--input", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {MALFORMED[case][2]}\n"


def test_missing_input_file_exits_two(tmp_path, capsys):
    from specscale.cli import main

    path = tmp_path / "absent.json"
    assert main(["extremes", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: '{path}'\n"


# ---------------------------------------------------------------------------
# The one-pass conversion per block size against the entry-by-entry walker.
# ---------------------------------------------------------------------------


def _random_entry(rng):
    kind = rng.integers(7)
    x = float(rng.standard_normal())
    choices = [x, -0.0, 0, int(rng.integers(-9, 10)), 2**60 + 3, -(2**70) - 1, -5e-324]
    return choices[kind]


def _random_nodes(rng, dims, n):
    """Per block, n matrices of [re, im] pairs mixing floats, ints, -0.0,
    ints past 2**53 and subnormals (not Hermitian: no check reads that)."""
    return [
        [
            [
                [[_random_entry(rng), _random_entry(rng)] for _ in range(d)]
                for _ in range(d)
            ]
            for _ in range(n)
        ]
        for d in dims
    ]


@pytest.mark.parametrize("seed", range(6))
def test_stacks_from_json_equal_the_walker_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    dims = [int(d) for d in rng.choice([1, 2, 3, 5], size=int(rng.integers(1, 9)))]
    n = int(rng.integers(1, 4))
    nodes = _random_nodes(rng, dims, n)
    stacks = algebra._stacks_from_json(dims, nodes)
    walked = algebra._walk_matrices(dims, nodes)
    layout = algebra.block_layout(tuple(dims))
    assert len(stacks) == len(layout.sizes)
    for j, (k, slot) in enumerate(layout.where):
        for i in range(n):
            assert stacks[k][i, slot].tobytes() == walked[j][i].tobytes()
    # signed zeros survive in both parts
    assert np.signbit(np.concatenate([s.real.ravel() for s in stacks])).any()
    assert np.signbit(np.concatenate([s.imag.ravel() for s in stacks])).any()


def _hermitian_tuple(rng, dims, n):
    ops = []
    for _ in range(n):
        blocks = []
        for d in dims:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            blocks.append(g + g.conj().T)
        ops.append(HermitianOperator(blocks))
    alg = FiniteAlgebra(tuple((d, 1.0 / sum(dims)) for d in dims))
    return OperatorTuple(alg, ops)


def _map_entries(doc, convert):
    for block in doc["blocks"]:
        block["operators"] = [
            [[[convert(x) for x in pair] for pair in row] for row in m]
            for m in block["operators"]
        ]
    return doc


def _same_operators(a, b):
    assert a.algebra == b.algebra
    for x, y in zip(a.operators, b.operators):
        assert all(s.tobytes() == t.tobytes() for s, t in zip(x.stacks, y.stacks))


def test_decoded_numpy_and_int_entries_are_still_read():
    rng = np.random.default_rng(2)
    optuple = _hermitian_tuple(rng, (2, 1, 3, 1), 2)
    expected = tuple_from_json(json.dumps(tuple_to_json(optuple)))
    doc = _map_entries(tuple_to_json(optuple), np.float64)
    nodes = [block["operators"] for block in doc["blocks"]]
    assert algebra._stacks_from_json([2, 1, 3, 1], nodes) is None  # walker reads it
    _same_operators(tuple_from_json(doc), expected)
    integral = fixtures.commuting_diagonals()
    doc = _map_entries(tuple_to_json(integral), int)
    assert type(doc["blocks"][0]["operators"][0][0][0][0]) is int
    expected = tuple_from_json(json.dumps(tuple_to_json(integral)))
    _same_operators(tuple_from_json(doc), expected)


@pytest.mark.parametrize(
    "mangle, message",
    [
        (
            lambda m: m.__setitem__(1, tuple(m[1])),
            "blocks[0].operators[1][1]: expected 2 entries",
        ),
        (
            lambda m: m[0].__setitem__(1, tuple(m[0][1])),
            "blocks[0].operators[1][0][1]: matrix entry must be a [re, im] pair",
        ),
    ],
)
def test_tuples_in_decoded_documents_are_refused(mangle, message):
    doc = json.loads(_doc_text(lambda doc: None))
    mangle(doc["blocks"][0]["operators"][1])
    with pytest.raises(IngestError) as err:
        tuple_from_json(doc)
    assert str(err.value) == message


def test_well_formed_input_never_reaches_the_walker(tmp_path, monkeypatch):
    rng = np.random.default_rng(4)
    dense = _hermitian_tuple(rng, (64,), 2)
    many = OperatorTuple(
        FiniteAlgebra(((1, 1.0 / 128),) * 128),
        [
            HermitianOperator([[[float(x)]] for x in rng.integers(-3, 4, 128)])
            for _ in range(2)
        ],
    )
    paths = []
    for name, optuple in (("dense", dense), ("many", many)):
        paths.append(tmp_path / f"{name}.json")
        save_tuple(optuple, paths[-1])

    def walker(*args):
        raise AssertionError("well-formed input reached the entry-by-entry walker")

    monkeypatch.setattr(algebra, "_matrix_from_json", walker)
    for path, optuple in zip(paths, (dense, many)):
        _same_operators(load_tuple(path), optuple)


def _per_entry_json(optuple):
    """The writer ``tuple_to_json`` replaced, one entry at a time."""
    return {
        "blocks": [
            {
                "weight": c,
                "dim": d,
                "operators": [
                    [[[b[i, k].real, b[i, k].imag] for k in range(d)] for i in range(d)]
                    for b in (op.blocks[j] for op in optuple.operators)
                ],
            }
            for j, (d, c) in enumerate(optuple.algebra.blocks)
        ]
    }


@pytest.mark.parametrize(
    "name",
    [
        "reciprocal_diagonal",
        "two_point",
        "pauli_pair",
        "commuting_diagonals",
        "block_with_scalars",
        "random_d16_pair",
    ],
)
def test_saved_files_match_the_per_entry_writer(tmp_path, name):
    if name == "random_d16_pair":
        optuple = _hermitian_tuple(np.random.default_rng(16), (16,), 2)
    else:
        optuple = getattr(fixtures, name)()
    path = tmp_path / "tuple.json"
    save_tuple(optuple, path)
    expected = json.dumps(_per_entry_json(optuple)) + "\n"
    assert path.read_text(encoding="utf-8") == expected


# ---------------------------------------------------------------------------
# The block fields checked as columns against the block-by-block walker.
# ---------------------------------------------------------------------------


def _many_block_doc():
    rng = np.random.default_rng(9)
    dims = [1, 2, 1, 1, 3, 1, 2, 1]
    return json.loads(json.dumps(tuple_to_json(_hermitian_tuple(rng, dims, 2))))


def _with(key, value):
    return lambda block: {**block, key: value}


def _without(key):
    return lambda block: {k: v for k, v in block.items() if k != key}


BLOCK_FAULTS = {
    "not_object": lambda block: [block],
    "no_dim": _without("dim"),
    "no_weight": _without("weight"),
    "no_operators": _without("operators"),
    "dim_true": _with("dim", True),
    "dim_zero": _with("dim", 0),
    "dim_float": _with("dim", 1.0),
    "dim_string": _with("dim", "1"),
    "weight_true": _with("weight", True),
    "weight_zero": _with("weight", 0),
    "weight_negative": _with("weight", -0.5),
    "weight_nan": _with("weight", float("nan")),
    "weight_inf": _with("weight", float("inf")),
    "weight_10_to_400": _with("weight", 10**400),
    "weight_string": _with("weight", "0.5"),
    "weight_numpy": lambda block: {**block, "weight": np.float64(block["weight"])},
    "operators_empty": _with("operators", []),
    "operators_object": _with("operators", {}),
    "operator_missing": lambda block: {**block, "operators": block["operators"][1:]},
    "operator_extra": lambda block: {
        **block, "operators": block["operators"] + block["operators"][:1]
    },
}


def _walked_fields(blocks):
    try:
        return algebra._walk_blocks(blocks)
    except IngestError:
        return None


@pytest.mark.parametrize("where", [0, 3, 7])
@pytest.mark.parametrize("fault", sorted(BLOCK_FAULTS))
def test_block_field_columns_agree_with_the_walker(fault, where):
    doc = _many_block_doc()
    blocks = doc["blocks"]
    blocks[where] = BLOCK_FAULTS[fault](blocks[where])
    columns, walked = algebra._block_fields(blocks), _walked_fields(blocks)
    if walked is None:
        assert columns is None
    elif columns is not None:
        assert columns == walked
        assert [type(x) for x in columns[1]] == [float] * len(blocks)
    else:  # only the walker reads a numpy weight
        assert fault == "weight_numpy"


def test_block_field_columns_of_a_well_formed_document():
    blocks = _many_block_doc()["blocks"]
    dims, weights, op_nodes = algebra._block_fields(blocks)
    assert (dims, weights, op_nodes) == _walked_fields(blocks)
    assert dims == [1, 2, 1, 1, 3, 1, 2, 1] and op_nodes[4] is blocks[4]["operators"]


def test_well_formed_blocks_are_checked_once(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    many = _hermitian_tuple(rng, (1,) * 96 + (2,) * 32, 2)
    path = tmp_path / "many.json"
    save_tuple(many, path)

    def refuse(*args):
        raise AssertionError("a well-formed block was checked one at a time")

    monkeypatch.setattr(algebra, "_block_from_json", refuse)
    monkeypatch.setattr(FiniteAlgebra, "__post_init__", refuse)
    loaded = load_tuple(path)
    assert loaded.algebra.blocks == many.algebra.blocks
    _same_operators(loaded, many)
