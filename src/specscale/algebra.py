"""Block-diagonal operator algebras with a normalized faithful trace.

The ambient algebra is a finite direct sum of full matrix blocks
``M = (+)_j M_{d_j}``.  A positive weight ``c_j`` per block defines the
trace ``tr(a) = sum_j c_j Tr(A_j)``; the weights are normalized so that
``tr(1) = 1``, which makes the trace a faithful tracial state.  A tuple
``(b_1, ..., b_n)`` of self-adjoint elements together with the trace
defines the map

    psi(a) = (tr(a), tr(b_1 a), ..., tr(b_n a))

whose image of the positive unit ball ``{a : 0 <= a <= 1}`` is the
spectral scale, the compact convex body the rest of the package studies.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    HermitianError,
    IngestError,
    MembershipError,
    ShapeError,
)

# Ingestion tolerances.  Inputs are symmetrized after passing the
# self-adjointness check, so downstream eigensolvers always see exactly
# Hermitian matrices.
HERMITIAN_TOL = 1e-10
TRACE_NORMALIZATION_TOL = 1e-12
MEMBERSHIP_TOL = 1e-10

Block = namedtuple("Block", ["dim", "weight"])


class HermitianOperator:
    """A self-adjoint element, stored as one complex matrix per block.

    The constructor is the checked path, for data from outside (JSON
    ingestion, fixtures, users): it copies each block, requires it to be
    square with ``max|A - A*| <= HERMITIAN_TOL`` and then symmetrizes.
    Operators built from other operators go through ``_raw`` instead.
    Either way stored blocks are exactly Hermitian and read-only.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        mats = []
        for j, raw in enumerate(blocks):
            a = np.array(raw, dtype=complex)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ShapeError(f"block {j} is not a square matrix: shape {a.shape}")
            deviation = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
            if deviation > HERMITIAN_TOL:
                raise HermitianError(
                    f"block {j} deviates from self-adjointness by {deviation:.3e}"
                )
            mats.append(_frozen_hermitian_part(a))
        self.blocks = tuple(mats)

    @property
    def dims(self):
        return tuple(b.shape[0] for b in self.blocks)

    def __add__(self, other):
        return _combine(self, other, 1.0)

    def __sub__(self, other):
        return _combine(self, other, -1.0)

    def __neg__(self):
        return _raw([-b for b in self.blocks])

    def __rmul__(self, scalar):
        return _raw([float(scalar) * b for b in self.blocks])

    __mul__ = __rmul__

    def __repr__(self):
        return f"HermitianOperator(dims={self.dims})"


def _frozen_hermitian_part(a):
    """``(A + A*)/2`` as a new read-only array; ``A`` bit for bit when ``A``
    is exactly Hermitian."""
    h = (a + a.conj().T) / 2.0
    h.flags.writeable = False
    return h


def _combine(a, b, sign):
    if a.dims != b.dims:
        raise ShapeError(f"block shapes differ: {a.dims} vs {b.dims}")
    return _raw([x + sign * y for x, y in zip(a.blocks, b.blocks)])


def _raw(blocks):
    """The unchecked path, for square blocks Hermitian by construction
    (sums, products, cut-downs of operators): skips the constructor, with
    no copy, shape or deviation check.  Each block is symmetrized once into
    a new read-only array, so the caller's array is left as it was."""
    op = object.__new__(HermitianOperator)
    op.blocks = tuple(_frozen_hermitian_part(np.asarray(b, complex)) for b in blocks)
    return op


def max_norm(op):
    """Largest absolute matrix entry across blocks."""
    return max(
        (float(np.max(np.abs(b))) for b in op.blocks if b.size), default=0.0
    )


def operator_product(a, b):
    """Blockwise product ``a b`` as raw arrays (not Hermitian in general)."""
    if a.dims != b.dims:
        raise ShapeError(f"block shapes differ: {a.dims} vs {b.dims}")
    return [x @ y for x, y in zip(a.blocks, b.blocks)]


def commutator_norm(a, b):
    """max-norm of ``ab - ba``."""
    return max(
        (
            float(np.max(np.abs(x @ y - y @ x)))
            for x, y in zip(a.blocks, b.blocks)
            if x.size
        ),
        default=0.0,
    )


@dataclass(frozen=True)
class FiniteAlgebra:
    """A direct sum of matrix blocks with trace weights summing to one."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(Block(int(d), float(c)) for d, c in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise ShapeError("algebra needs at least one block")
        for j, (d, c) in enumerate(blocks):
            if d < 1:
                raise ShapeError(f"block {j} has non-positive dimension {d}")
            if c <= 0:
                raise ShapeError(f"block {j} has non-positive weight {c}")
        total = sum(c * d for d, c in blocks)
        if abs(total - 1.0) > TRACE_NORMALIZATION_TOL:
            raise ShapeError(
                f"trace normalization sum(c_j d_j) = {total!r} is not 1"
            )

    @property
    def dims(self):
        return tuple(b.dim for b in self.blocks)

    @property
    def weights(self):
        return tuple(b.weight for b in self.blocks)

    @property
    def total_dim(self):
        return sum(b.dim for b in self.blocks)

    def conforms(self, op):
        return op.dims == self.dims

    def require(self, op):
        if not self.conforms(op):
            raise ShapeError(
                f"operator blocks {op.dims} do not match algebra blocks {self.dims}"
            )

    def identity(self):
        return _raw([np.eye(d, dtype=complex) for d in self.dims])

    def zero(self):
        return _raw([np.zeros((d, d), dtype=complex) for d in self.dims])

    def diagonal(self, entries):
        """Operator with the given real diagonal, split across blocks."""
        entries = np.asarray(entries, dtype=float)
        if entries.size != self.total_dim:
            raise ShapeError(
                f"expected {self.total_dim} diagonal entries, got {entries.size}"
            )
        out, k = [], 0
        for d in self.dims:
            out.append(np.diag(entries[k : k + d]).astype(complex))
            k += d
        return _raw(out)

    def trace(self, op):
        self.require(op)
        return float(
            sum(c * np.trace(b).real for (d, c), b in zip(self.blocks, op.blocks))
        )

    def inner(self, a, b):
        """Trace inner product ``tr(a* b)``, real for self-adjoint arguments."""
        self.require(a)
        self.require(b)
        return float(
            sum(
                c * np.sum(x.conj() * y).real
                for (d, c), x, y in zip(self.blocks, a.blocks, b.blocks)
            )
        )


@dataclass(frozen=True)
class OperatorTuple:
    """An algebra together with the defining self-adjoint tuple."""

    algebra: FiniteAlgebra
    operators: tuple

    def __post_init__(self):
        ops = tuple(self.operators)
        object.__setattr__(self, "operators", ops)
        if not ops:
            raise ShapeError("operator tuple must contain at least one operator")
        for op in ops:
            self.algebra.require(op)

    @property
    def n(self):
        return len(self.operators)


def trace(optuple_or_alg, a):
    alg = getattr(optuple_or_alg, "algebra", optuple_or_alg)
    return alg.trace(a)


def is_contraction(alg, a):
    """True when the spectrum of ``a`` lies in ``[0, 1]`` up to ``MEMBERSHIP_TOL``."""
    alg.require(a)
    for w in (np.linalg.eigvalsh(b) for b in a.blocks):
        if w.size and (w.min() < -MEMBERSHIP_TOL or w.max() > 1.0 + MEMBERSHIP_TOL):
            return False
    return True


def psi(optuple, a, check_membership=False):
    """Trace-pairing image ``(tr(a), tr(b_1 a), ..., tr(b_n a))``.

    With ``check_membership`` the spectrum of ``a`` is required to lie in
    ``[0, 1]`` up to tolerance, i.e. ``a`` must be in the positive unit
    ball whose image is the spectral scale.
    """
    alg = optuple.algebra
    alg.require(a)
    if check_membership and not is_contraction(alg, a):
        raise MembershipError("operator is not in the positive unit ball")
    out = np.empty(optuple.n + 1)
    out[0] = alg.trace(a)
    for i, b in enumerate(optuple.operators):
        out[i + 1] = sum(
            c * np.sum(x * y.T).real
            for (d, c), x, y in zip(alg.blocks, b.blocks, a.blocks)
        )
    return out


def linear_combination(optuple, t):
    """The operator ``t_1 b_1 + ... + t_n b_n``."""
    t = np.asarray(t, dtype=float)
    if t.shape != (optuple.n,):
        raise ShapeError(f"direction has shape {t.shape}, expected ({optuple.n},)")
    blocks = [np.zeros((d, d), dtype=complex) for d in optuple.algebra.dims]
    for coeff, op in zip(t, optuple.operators):
        for acc, b in zip(blocks, op.blocks):
            acc += coeff * b
    return _raw(blocks)


def _span_residual(alg, stacks, blocks):
    """``blocks`` minus its projection onto the span of a trace-orthonormal
    self-adjoint set, held as one ``(k, d_j, d_j)`` stack per block:
    classical Gram-Schmidt, applied twice."""
    for _ in range(2):
        coeffs = sum(
            c * np.einsum("kij,ij->k", s, b.conj()).real
            for c, s, b in zip(alg.weights, stacks, blocks)
        )
        blocks = [
            b - np.einsum("k,kij->ij", coeffs, s) for s, b in zip(stacks, blocks)
        ]
    return blocks


def generated_algebra_basis(optuple):
    """Trace-orthonormal self-adjoint basis of the algebra generated by the
    tuple and the identity; its size is the algebra's complex dimension.

    The real span is closed once it holds ``(xy + yx)/2`` and ``(xy - yx)/(2i)``
    for every pair of its elements.  ``yx`` gives the same two parts up to
    sign, and a rejected candidate stays inside the growing span, so one
    walk over the basis multiplies each unordered pair once.  The walk
    stops early once the basis holds ``Σ d_j²`` elements: it then spans
    every self-adjoint element of the algebra.
    """
    alg = optuple.algebra
    full = sum(d * d for d in alg.dims)
    stacks = [np.empty((0, d, d), dtype=complex) for d in alg.dims]

    def try_add(blocks):
        nonlocal stacks
        if len(stacks[0]) == full:
            return
        residual = _span_residual(alg, stacks, blocks)
        norm2 = sum(c * np.sum(np.abs(r) ** 2) for c, r in zip(alg.weights, residual))
        if norm2 > 1e-10:
            unit = [r / np.sqrt(norm2) for r in residual]
            stacks = [np.concatenate([s, [u]]) for s, u in zip(stacks, unit)]

    try_add(alg.identity().blocks)
    for op in optuple.operators:
        try_add(op.blocks)
    i = 0
    while i < len(stacks[0]) < full:
        for j in range(i + 1):
            prod = [s[i] @ s[j] for s in stacks]
            try_add([(m + m.conj().T) / 2.0 for m in prod])
            try_add([(m - m.conj().T) / 2j for m in prod])
            if len(stacks[0]) == full:
                break
        i += 1
    return [_raw(element) for element in zip(*stacks)]


class Compression:
    """Cut-down of a tuple to the range of per-block isometries ``V``.

    ``tuple`` holds ``V* b V`` over the rescaled trace ``tr / tr(r)``,
    ``r = V V*``.  Offset by a projection ``lower`` (zero unless given),
    it names the face ``[lower, lower + r]``: ``psi(lift(x)) = base_point
    + trace_r * psi_r(x)``.  ``cut`` composes cut-downs.
    """

    def __init__(self, parent, isometries, lower=None):
        alg = parent.algebra
        self.parent = parent
        self.isometries = tuple(isometries)
        if lower is not None:
            self.lower = lower
        ranks = [V.shape[1] for V in self.isometries]
        self.trace_r = float(sum(c * k for c, k in zip(alg.weights, ranks)))
        if self.trace_r <= 1e-10:
            raise ShapeError("projection has (numerically) zero trace")
        self.kept_blocks = [j for j, k in enumerate(ranks) if k]
        sub_alg = FiniteAlgebra(
            tuple((ranks[j], alg.weights[j] / self.trace_r) for j in self.kept_blocks)
        )
        self.tuple = OperatorTuple(sub_alg, tuple(map(self.restrict, parent.operators)))

    @cached_property
    def lower(self):
        # zero unless given; built on first use, as sweep levels never use it
        return self.parent.algebra.zero()

    @property
    def base_point(self):
        """``psi(lower)``: the image of the cut-down's zero."""
        return psi(self.parent, self.lower)

    def cut(self, interval):
        """Cut-down of the parent by an order interval in these coordinates:
        the isometries compose (``V W``) and ``interval.lower`` is lifted."""
        lower = self.lift(interval.lower)
        inner = interval.columns("gap")
        isometries = list(self.isometries)
        for local, j in enumerate(self.kept_blocks):
            isometries[j] = isometries[j] @ inner[local]
        return Compression(self.parent, isometries, lower)

    def restrict(self, op):
        """Compress an ambient operator into the cut-down coordinates."""
        self.parent.algebra.require(op)
        comp = [
            self.isometries[j].conj().T @ op.blocks[j] @ self.isometries[j]
            for j in self.kept_blocks
        ]
        return _raw(comp)

    def embed(self, op):
        """Embed a cut-down operator back into the ambient algebra."""
        if op.dims != self.tuple.algebra.dims:
            raise ShapeError("operator does not live in the cut-down algebra")
        blocks = [
            np.zeros((d, d), dtype=complex) for d in self.parent.algebra.dims
        ]
        for local, j in enumerate(self.kept_blocks):
            V = self.isometries[j]
            blocks[j] = V @ op.blocks[local] @ V.conj().T
        return _raw(blocks)

    def lift(self, op):
        """Ambient operator ``lower + V x V*`` for cut-down ``x``."""
        return self.lower + self.embed(op)


# ---------------------------------------------------------------------------
# JSON ingestion.  Schema (field names are part of the interface):
#
#   {"blocks": [{"weight": number, "dim": integer,
#                "operators": [matrix, ...]}, ...]}
#
# where matrix is a dim x dim array of [re, im] pairs and every block lists
# the same number of operators, in the same order.
# ---------------------------------------------------------------------------


def _is_number(x):
    # bool is a subclass of int, but JSON true/false is not a number
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _finite(x, message, path):
    """``float(x)``, or IngestError when it is NaN, infinite or overflows."""
    try:
        value = float(x)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise IngestError(message, path)
    return value


def _matrix_from_json(node, dim, path):
    if not isinstance(node, list) or len(node) != dim:
        raise IngestError(f"expected {dim} matrix rows", path)
    out = np.empty((dim, dim), dtype=complex)
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != dim:
            raise IngestError(f"expected {dim} entries", f"{path}[{i}]")
        for k, entry in enumerate(row):
            entry_path = f"{path}[{i}][{k}]"
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(_is_number(x) for x in entry)
            ):
                raise IngestError("matrix entry must be a [re, im] pair", entry_path)
            re, im = (
                _finite(x, "matrix entry must be finite", entry_path) for x in entry
            )
            out[i, k] = complex(re, im)
    return out


def tuple_from_json(source):
    """Build an OperatorTuple from the JSON ingestion schema.

    ``source`` may be a JSON string or an already-decoded object.  Raises
    IngestError with a field path on malformed input, HermitianError on
    non-self-adjoint operator matrices.
    """
    if isinstance(source, (str, bytes)):
        try:
            obj = json.loads(source)
        except json.JSONDecodeError as exc:
            raise IngestError(f"invalid JSON: {exc}") from exc
    else:
        obj = source
    if not isinstance(obj, dict) or "blocks" not in obj:
        raise IngestError("top-level object must contain 'blocks'")
    raw_blocks = obj["blocks"]
    if not isinstance(raw_blocks, list) or not raw_blocks:
        raise IngestError("must be a non-empty list", "blocks")

    specs, per_block_ops = [], []
    n_ops = None
    for j, node in enumerate(raw_blocks):
        path = f"blocks[{j}]"
        if not isinstance(node, dict):
            raise IngestError("block must be an object", path)
        for key in ("weight", "dim", "operators"):
            if key not in node:
                raise IngestError(f"missing field '{key}'", path)
        dim = node["dim"]
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise IngestError("dim must be a positive integer", f"{path}.dim")
        weight = node["weight"]
        if not _is_number(weight) or weight <= 0:
            raise IngestError("weight must be a positive number", f"{path}.weight")
        weight = _finite(weight, "weight must be finite", f"{path}.weight")
        ops = node["operators"]
        if not isinstance(ops, list) or not ops:
            raise IngestError(
                "operators must be a non-empty list", f"{path}.operators"
            )
        if n_ops is None:
            n_ops = len(ops)
        elif len(ops) != n_ops:
            raise IngestError(
                f"expected {n_ops} operators, found {len(ops)}",
                f"{path}.operators",
            )
        mats = [
            _matrix_from_json(m, dim, f"{path}.operators[{i}]")
            for i, m in enumerate(ops)
        ]
        specs.append(Block(dim, weight))
        per_block_ops.append(mats)

    try:
        alg = FiniteAlgebra(tuple(specs))
    except ShapeError as exc:
        raise IngestError(str(exc), "blocks") from exc
    operators = tuple(
        HermitianOperator([per_block_ops[j][i] for j in range(len(specs))])
        for i in range(n_ops)
    )
    return OperatorTuple(alg, operators)


def tuple_to_json(optuple):
    """Serialize to the ingestion schema (plain python object)."""
    blocks = []
    for j, (d, c) in enumerate(optuple.algebra.blocks):
        mats = []
        for op in optuple.operators:
            b = op.blocks[j]
            mats.append(
                [[[b[i, k].real, b[i, k].imag] for k in range(d)] for i in range(d)]
            )
        blocks.append({"weight": c, "dim": d, "operators": mats})
    return {"blocks": blocks}


def load_tuple(path):
    with open(path, "r", encoding="utf-8") as fh:
        return tuple_from_json(fh.read())


def save_tuple(optuple, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tuple_to_json(optuple), fh)
        fh.write("\n")
