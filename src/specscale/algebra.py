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

An operator is stored as one ``(m_k, d_k, d_k)`` stack per distinct
block size ``d_k`` (a ``BlockLayout`` says where each block sits), so
traces, products, cut-downs and eigensolves run once per size class,
not once per block.

JSON text is decoded by ``orjson``, and a document that decoder or the
reader refuses is decoded again by ``json.loads`` and read as before, so
a refused document's error is the standard decoder's.
"""

from __future__ import annotations

import gc
import json
import math
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain

import numpy as np
import orjson

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


class BlockLayout:
    """Where the blocks of sizes ``dims`` sit in per-size stacks: class
    ``k`` (``sizes`` ascend) stacks the input blocks ``members[k]`` in
    order as one ``shapes[k] = (m_k, d_k, d_k)`` array, block ``j`` at
    slot ``slot[j]`` of class ``klass[j]`` (``where[j]``).  ``entry_block``
    names the block of every row of the classes' stacks, concatenated, and
    ``reversed_entry`` the row of the same block in reverse order."""

    def __init__(self, dims):
        self.dims = dims
        sizes = np.array(dims, dtype=int)
        order = np.argsort(sizes, kind="stable")  # class by class
        self.sizes, starts, counts = np.unique(
            sizes[order], return_index=True, return_counts=True
        )
        self.members = [order[i : i + m] for i, m in zip(starts, counts)]
        self.shapes = [(m, d, d) for m, d in zip(counts.tolist(), self.sizes.tolist())]
        self.klass = np.searchsorted(self.sizes, sizes)
        self.slot = np.empty_like(self.klass)
        self.slot[order] = np.arange(len(dims)) - starts[self.klass[order]]
        self.where = tuple(zip(self.klass.tolist(), self.slot.tolist()))
        self.entry_block = np.repeat(order, sizes[order])
        # block j's rows are ends[j] - d_j .. ends[j] - 1, and row i's mirror
        # is the row as far from the block's end as i is from its start
        ends = np.cumsum(sizes[order])
        self.reversed_entry = np.repeat(2 * ends - sizes[order] - 1, sizes[order])
        self.reversed_entry -= np.arange(len(self.reversed_entry))
        # one layout serves every operator of these sizes: nobody may write to it
        arrays = (self.sizes, self.klass, self.slot, *self.members)
        for a in (*arrays, self.entry_block, self.reversed_entry):
            a.flags.writeable = False

    def stack(self, blocks):
        """Per class, ``blocks`` (one array per block, in input order) stacked."""
        return [np.array([blocks[j] for j in idx]) for idx in self.members]

    def zeros(self):
        return [np.zeros(shape, dtype=complex) for shape in self.shapes]


@lru_cache(maxsize=None)
def block_layout(dims):
    """The one ``BlockLayout`` of the block sizes ``dims`` (a tuple)."""
    return BlockLayout(dims)


class HermitianOperator:
    """A self-adjoint element, stored as one read-only ``(m_k, d_k, d_k)``
    stack per block size (``stacks``, placed by ``layout``).

    The constructor is the checked path, for data from outside (JSON
    ingestion, fixtures, users): it copies the blocks into their stacks,
    requires each to be square, finite and within ``HERMITIAN_TOL`` of
    self-adjoint (naming the first block that is not) and symmetrizes.
    Operators built from other operators go through ``_from_stacks`` (or
    ``_raw``) instead.  Either way stacks are exactly Hermitian and
    read-only; ``blocks`` are views into them, in input order.
    """

    __slots__ = ("layout", "stacks", "_blocks")

    def __init__(self, blocks):
        mats = [np.asarray(raw, dtype=complex) for raw in blocks]
        for j, a in enumerate(mats):
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ShapeError(f"block {j} is not a square matrix: shape {a.shape}")
        layout = block_layout(tuple(a.shape[0] for a in mats))
        stacks = layout.stack(mats)
        _require_hermitian(layout, stacks)
        self.layout, self._blocks = layout, None
        self.stacks = tuple(map(_frozen_hermitian_part, stacks))

    @property
    def blocks(self):
        if self._blocks is None:
            self._blocks = tuple(self.stacks[k][i] for k, i in self.layout.where)
        return self._blocks

    @property
    def dims(self):
        return self.layout.dims

    def __add__(self, other):
        return _combine(self, other, 1.0)

    def __sub__(self, other):
        return _combine(self, other, -1.0)

    def __neg__(self):
        return _from_stacks(self.layout, [-s for s in self.stacks])

    def __rmul__(self, scalar):
        return _from_stacks(self.layout, [float(scalar) * s for s in self.stacks])

    __mul__ = __rmul__

    def __repr__(self):
        return f"HermitianOperator(dims={self.dims})"


def _require_hermitian(layout, stacks):
    """Raise HermitianError for the first block, in input order, of the
    per-size ``stacks`` that has a non-finite entry or deviates from
    self-adjointness by more than ``HERMITIAN_TOL``."""
    deviation = np.empty(len(layout.dims))  # per block; NaN for a non-finite entry
    for idx, s in zip(layout.members, stacks):
        with np.errstate(invalid="ignore"):  # inf - inf is flagged below
            dev = np.abs(s - s.conj().swapaxes(-1, -2)).max(axis=(1, 2), initial=0)
        deviation[idx] = np.where(np.isfinite(s).all(axis=(1, 2)), dev, np.nan)
    for j in np.flatnonzero(~(deviation <= HERMITIAN_TOL))[:1]:
        if np.isnan(deviation[j]):
            raise HermitianError(f"block {j} has a non-finite entry")
        raise HermitianError(
            f"block {j} deviates from self-adjointness by {deviation[j]:.3e}"
        )


def _frozen_hermitian_part(a):
    """``(A + A*)/2`` of a stack of matrices as a new read-only array;
    ``A`` bit for bit when ``A`` is exactly Hermitian."""
    h = a + a.conj().swapaxes(-1, -2)
    h /= 2.0
    h.flags.writeable = False
    return h


def _combine(a, b, sign):
    if a.dims != b.dims:
        raise ShapeError(f"block shapes differ: {a.dims} vs {b.dims}")
    return _from_stacks(a.layout, [x + sign * y for x, y in zip(a.stacks, b.stacks)])


def _from_stacks(layout, stacks):
    """The unchecked path, for stacks Hermitian by construction (sums,
    products, cut-downs of operators): no copy, shape or deviation check.
    Each stack is symmetrized once into a new read-only array, so the
    caller's array is left as it was."""
    op = object.__new__(HermitianOperator)
    op.layout, op._blocks = layout, None
    op.stacks = tuple(map(_frozen_hermitian_part, stacks))
    return op


def _raw(blocks):
    """``_from_stacks`` for one square array per block, in input order."""
    blocks = [np.asarray(b, dtype=complex) for b in blocks]
    layout = block_layout(tuple(b.shape[0] for b in blocks))
    return _from_stacks(layout, layout.stack(blocks))


def operator_product(a, b):
    """Blockwise product ``a b`` as raw arrays (not Hermitian in general)."""
    if a.dims != b.dims:
        raise ShapeError(f"block shapes differ: {a.dims} vs {b.dims}")
    return [x @ y for x, y in zip(a.blocks, b.blocks)]


def stacked(ops):
    """Per size class, the stacks of operators ``ops`` (one algebra) stacked
    again, as ``(len(ops), m_k, d_k, d_k)``."""
    return [np.array(per_class) for per_class in zip(*(op.stacks for op in ops))]


def _max_abs(arrays):
    return max((float(np.abs(x).max()) for x in arrays if x.size), default=0.0)


def max_norm(op):
    """Largest absolute matrix entry across blocks."""
    return _max_abs(op.stacks)


def commutator_norm(a, b):
    """max-norm of ``ab - ba``."""
    return _max_abs(x @ y - y @ x for x, y in zip(a.stacks, b.stacks))


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
            if not 0 < c < math.inf:
                raise ShapeError(f"block {j} has weight {c}, not positive and finite")
        self._require_normalized()

    @classmethod
    def _from_checked(cls, dims, weights):
        """The algebra of blocks whose ``dims`` (positive ints) and
        ``weights`` (positive finite floats) are already checked, as
        ingestion checks them all at once: only the trace normalization
        is tested here."""
        alg = object.__new__(cls)
        object.__setattr__(alg, "blocks", tuple(map(Block, dims, weights)))
        alg._require_normalized()
        return alg

    def _require_normalized(self):
        total = sum(c * d for d, c in self.blocks)
        if abs(total - 1.0) > TRACE_NORMALIZATION_TOL:
            raise ShapeError(
                f"trace normalization sum(c_j d_j) = {total!r} is not 1"
            )

    @cached_property
    def dims(self):
        return tuple(b.dim for b in self.blocks)

    @cached_property
    def weights(self):
        weights = np.array([b.weight for b in self.blocks])
        weights.flags.writeable = False
        return weights

    @cached_property
    def layout(self):
        return block_layout(self.dims)

    @cached_property
    def class_weights(self):
        return [self.weights[idx] for idx in self.layout.members]

    def _sum(self, per_class):
        """``sum_j c_j x_j`` over per-block values ``x_j``, given per size
        class as arrays whose first axis runs over the class's blocks."""
        pairs = zip(self.class_weights, per_class)
        return sum(np.einsum("m,m...->...", w, x) for w, x in pairs)

    @property
    def total_dim(self):
        return sum(self.dims)

    def conforms(self, op):
        return op.dims == self.dims

    def require(self, op):
        if not self.conforms(op):
            raise ShapeError(
                f"operator blocks {op.dims} do not match algebra blocks {self.dims}"
            )

    def identity(self):
        eyes = [np.eye(s[1]) * np.ones(s, complex) for s in self.layout.shapes]
        return _from_stacks(self.layout, eyes)

    def zero(self):
        return _from_stacks(self.layout, self.layout.zeros())

    def diagonal(self, entries):
        """Operator with the given real diagonal, split across blocks."""
        entries = np.asarray(entries, dtype=float)
        if entries.size != self.total_dim:
            raise ShapeError(
                f"expected {self.total_dim} diagonal entries, got {entries.size}"
            )
        return _raw([np.diag(e) for e in np.split(entries, np.cumsum(self.dims)[:-1])])

    def trace(self, op):
        self.require(op)
        return float(self._sum(np.einsum("mii->m", s).real for s in op.stacks))

    def inner(self, a, b):
        """Trace inner product ``tr(a* b)``, real for self-adjoint arguments."""
        self.require(a)
        self.require(b)
        pairs = zip(a.stacks, b.stacks)
        return float(self._sum((x.conj() * y).sum(axis=(1, 2)).real for x, y in pairs))


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
    for w in (np.linalg.eigvalsh(s) for s in a.stacks):
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
    # tr(b a) = tr(a* b), as a is stored exactly Hermitian
    return np.array([alg.trace(a)] + [alg.inner(a, b) for b in optuple.operators])


def linear_combination(optuple, t):
    """The operator ``t_1 b_1 + ... + t_n b_n``."""
    stacks = linear_combinations(optuple, [t])
    return _from_stacks(optuple.algebra.layout, [s[0] for s in stacks])


def direction_rows(optuple, ts):
    """``ts`` as a float array of one row per direction, ``(rows, n)``, or a
    ``ShapeError`` when a row is not a vector of the tuple's ``n``."""
    try:
        ts = np.asarray(ts, dtype=float)
    except ValueError as exc:  # rows of different lengths
        raise ShapeError(f"directions differ in shape: {exc}") from exc
    if ts.ndim != 2 or ts.shape[1] != optuple.n:
        raise ShapeError(
            f"direction has shape {ts.shape[1:]}, expected ({optuple.n},)"
        )
    return ts


def linear_combinations(optuple, ts):
    """The stacks of ``linear_combination`` of every row ``t`` of ``ts``, as
    read-only ``(rows, m_k, d_k, d_k)`` arrays per size class.  One
    ``einsum`` per size class sums each entry's products ``t_i b_i`` over
    ``i = 1 .. n`` in turn, from zero, so every row's bits are those of
    that row alone.  The rows need no symmetrizing: with exactly
    Hermitian ``b_i`` and real ``t``, entry ``(j, i)`` sums the conjugates
    of entry ``(i, j)``'s products, so the rows are exactly Hermitian and
    ``_frozen_hermitian_part`` would return them bit for bit."""
    ts = direction_rows(optuple, ts)
    rows = [np.einsum("rn,nmij->rmij", ts, s) for s in stacked(optuple.operators)]
    for r in rows:
        r.flags.writeable = False
    return rows


def _span_residual(alg, stacks, blocks):
    """``blocks`` minus its projection onto the span of a trace-orthonormal
    self-adjoint set, all held per size class: ``blocks`` as ``(m_k, d_k,
    d_k)`` stacks, the set as ``(size, m_k, d_k, d_k)`` ones.  Classical
    Gram-Schmidt, applied twice."""
    for _ in range(2):
        pairs = list(zip(stacks, blocks))
        coeffs = alg._sum(np.einsum("kmij,mij->mk", s, b.conj()).real for s, b in pairs)
        blocks = [b - np.einsum("k,kmij->mij", coeffs, s) for s, b in pairs]
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
    stacks = [np.empty((0, *shape), dtype=complex) for shape in alg.layout.shapes]

    def try_add(blocks):
        nonlocal stacks
        if len(stacks[0]) == full:
            return
        residual = _span_residual(alg, stacks, blocks)
        norm2 = alg._sum(np.sum(np.abs(r) ** 2, axis=(1, 2)) for r in residual)
        if norm2 > 1e-10:
            unit = [r / np.sqrt(norm2) for r in residual]
            stacks = [np.concatenate([s, [u]]) for s, u in zip(stacks, unit)]

    try_add(alg.identity().stacks)
    for op in optuple.operators:
        try_add(op.stacks)
    i = 0
    while i < len(stacks[0]) < full:
        for j in range(i + 1):
            prod = [s[i] @ s[j] for s in stacks]
            try_add([(m + m.conj().swapaxes(-1, -2)) / 2.0 for m in prod])
            try_add([(m - m.conj().swapaxes(-1, -2)) / 2j for m in prod])
            if len(stacks[0]) == full:
                break
        i += 1
    return [_from_stacks(alg.layout, element) for element in zip(*stacks)]


class ColumnRanges(Sequence):
    """Per block ``j``, the columns ``lo[j]:hi[j]`` of its matrix in the
    per-size ``stacks`` of ``layout``: an isometry, such as the columns
    spanning a spectral projection.  Item ``j`` is block ``j``'s columns as
    a view, for ragged callers; ``Compression`` reads the stacks."""

    def __init__(self, layout, stacks, lo, hi):
        self.layout, self.stacks, self.lo, self.hi = layout, stacks, lo, hi

    @property
    def ranks(self):
        return self.hi - self.lo

    def __len__(self):
        return len(self.lo)

    def __getitem__(self, j):
        k, i = self.layout.where[j]
        return self.stacks[k][i][:, self.lo[j] : self.hi[j]]


class Compression:
    """Cut-down of a tuple to the range of per-block isometries ``V``, given
    as ``ColumnRanges``.

    ``tuple`` holds ``V* b V`` over the rescaled trace ``tr / tr(r)``,
    ``r = V V*``.  Offset by a projection ``lower`` (zero unless given),
    it names the face ``[lower, lower + r]``: ``psi(lift(x)) = base_point
    + trace_r * psi_r(x)``.  ``cut`` composes cut-downs.  Kept blocks are
    grouped by size and rank, so ``restrict``, ``embed`` and ``cut`` are
    one batched product per group.
    """

    def __init__(self, parent, isometries, lower=None):
        alg = parent.algebra
        self.parent = parent
        if lower is not None:
            self.lower = lower
        ranks = isometries.ranks
        self.trace_r = float(alg.weights @ ranks)
        if self.trace_r <= 1e-10:
            raise ShapeError("projection has (numerically) zero trace")
        self.kept_blocks = kept = np.flatnonzero(ranks)
        weights = alg.weights[kept] / self.trace_r
        sub_alg = FiniteAlgebra(tuple(zip(ranks[kept].tolist(), weights.tolist())))
        self._cut_layout = sub = sub_alg.layout
        local = np.cumsum(ranks > 0) - 1  # a kept block's index in the cut-down
        self._groups = []  # (class, slots, V, cut-down class, its slots)
        for k, (idx, stack) in enumerate(zip(alg.layout.members, isometries.stacks)):
            for r in set(ranks[idx].tolist()) - {0}:
                slots = np.flatnonzero(ranks[idx] == r)
                cols = isometries.lo[idx[slots], None, None] + np.arange(r)
                V = np.take_along_axis(stack[slots], cols, axis=2)
                js = local[idx[slots]]
                self._groups.append((k, slots, V, sub.klass[js[0]], sub.slot[js]))
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
        layout = self.parent.algebra.layout
        stacks = layout.zeros()
        lo, hi = np.zeros((2, len(layout.dims)), dtype=int)
        lo[self.kept_blocks], hi[self.kept_blocks] = inner.lo, inner.hi
        for k, slots, V, cut_k, cut_slots in self._groups:
            stacks[k][slots, :, : V.shape[2]] = V @ inner.stacks[cut_k][cut_slots]
        return Compression(self.parent, ColumnRanges(layout, stacks, lo, hi), lower)

    def restrict(self, op):
        """Compress an ambient operator into the cut-down coordinates."""
        self.parent.algebra.require(op)
        stacks = self._cut_layout.zeros()
        for k, slots, V, cut_k, cut_slots in self._groups:
            Vh = V.conj().swapaxes(-1, -2)
            stacks[cut_k][cut_slots] = Vh @ op.stacks[k][slots] @ V
        return _from_stacks(self._cut_layout, stacks)

    def embed(self, op):
        """Embed a cut-down operator back into the ambient algebra."""
        if op.dims != self._cut_layout.dims:
            raise ShapeError("operator does not live in the cut-down algebra")
        layout = self.parent.algebra.layout
        stacks = layout.zeros()
        for k, slots, V, cut_k, cut_slots in self._groups:
            Vh = V.conj().swapaxes(-1, -2)
            stacks[k][slots] = V @ op.stacks[cut_k][cut_slots] @ Vh
        return _from_stacks(layout, stacks)

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
    """One matrix read entry by entry, naming the first faulty field: the
    error reporter, run only on documents the one-pass check refuses."""
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


def _walk_matrices(dims, op_nodes):
    """Every block's matrices read by ``_matrix_from_json`` in document
    order, as one ``(n, d_j, d_j)`` array per block: the first fault
    raises."""
    return [
        np.array(
            [
                _matrix_from_json(m, d, f"blocks[{j}].operators[{i}]")
                for i, m in enumerate(ops)
            ]
        )
        for j, (d, ops) in enumerate(zip(dims, op_nodes))
    ]


def _same(values, expected):
    return set(values) == {expected}


def _stacks_from_json(dims, op_nodes):
    """Per size class of ``block_layout(dims)``, the class's ``operators``
    nodes (``op_nodes``, one list of n matrices per block) as one ``(n,
    m_k, d_k, d_k)`` complex stack, read in one numpy conversion.  None
    when some node is not a ``d_j x d_j`` list of ``[re, im]`` lists of
    finite JSON numbers (``int`` or ``float``, not ``bool``), where only
    ``_walk_matrices`` can say which."""
    n = len(op_nodes[0])
    matrices = list(chain.from_iterable(op_nodes))
    # checked before the layout is built, which takes memory linear in sum(dims)
    if not _same(map(type, matrices), list) or list(map(len, matrices)) != [
        d for d in dims for _ in range(n)
    ]:
        return None
    layout = block_layout(tuple(dims))
    stacks = []
    for idx, d in zip(layout.members, layout.sizes.tolist()):
        nodes = list(zip(*(op_nodes[j] for j in idx)))  # operator-major
        items = list(chain.from_iterable(nodes))  # the matrices, checked above
        for length in (d, 2):  # their rows, then the rows' [re, im] pairs
            items = list(chain.from_iterable(items))
            if not (_same(map(type, items), list) and _same(map(len, items), length)):
                return None
        if not set(map(type, chain.from_iterable(items))) <= {int, float}:
            return None
        try:
            pairs = np.array(nodes, dtype=float)
        except OverflowError:  # an int beyond the float range
            return None
        if not np.isfinite(pairs).all():
            return None
        stacks.append(pairs.view(complex)[..., 0])
    return stacks


def _block_from_json(node, path, n_ops):
    """A block's ``Block`` and its ``operators`` node, with every field
    but the matrices checked; ``n_ops`` is the operator count, or None for
    the first block."""
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
        raise IngestError("operators must be a non-empty list", f"{path}.operators")
    if n_ops is not None and len(ops) != n_ops:
        raise IngestError(
            f"expected {n_ops} operators, found {len(ops)}", f"{path}.operators"
        )
    return Block(dim, weight), ops


def _walk_blocks(raw_blocks):
    """Every block's fields read by ``_block_from_json`` in document order,
    as ``_block_fields`` returns them: the first fault raises, after the
    matrices of the blocks before it, which come first in the document."""
    specs, op_nodes = [], []
    for j, node in enumerate(raw_blocks):
        n_ops = len(op_nodes[0]) if op_nodes else None
        try:
            spec, ops = _block_from_json(node, f"blocks[{j}]", n_ops)
        except IngestError:
            _walk_matrices([b.dim for b in specs], op_nodes)
            raise
        specs.append(spec)
        op_nodes.append(ops)
    return [int(b.dim) for b in specs], [b.weight for b in specs], op_nodes


def _block_fields(raw_blocks):
    """Every block's ``dim``, ``weight`` and ``operators`` fields, checked
    as columns: ``(dims, weights, op_nodes)`` as lists (the weights as
    floats), or None when some block is not an object holding a positive
    ``int`` dim, a positive finite ``int`` or ``float`` weight and a
    non-empty list of as many operators as the first block.  Only
    ``_walk_blocks`` can then say which (or read what only it accepts,
    such as a ``np.float64`` weight of a decoded object)."""
    if not _same(map(type, raw_blocks), dict):
        return None
    try:
        dims, weights, op_nodes = (
            [node[key] for node in raw_blocks] for key in ("dim", "weight", "operators")
        )
    except KeyError:
        return None
    if not (
        _same(map(type, dims), int)
        and set(map(type, weights)) <= {int, float}
        and _same(map(type, op_nodes), list)
        and min(dims) >= 1
        and op_nodes[0]
        and _same(map(len, op_nodes), len(op_nodes[0]))
    ):
        return None
    try:
        column = np.array(weights, dtype=float)
    except OverflowError:  # an int beyond the float range
        return None
    if not np.all((column > 0) & (column < math.inf)):
        return None
    return dims, column.tolist(), op_nodes


def _fields_from_object(obj):
    """``(dims, weights, stacks)`` of a decoded document, as
    ``_tuple_from_fields`` takes them, or IngestError for the first
    malformed field in document order.  The block fields are checked as
    columns, and the matrices of each block size converted, in one pass
    each; only data that pass refuses is walked block by block and entry
    by entry, to name the fault (or to read what only the walker accepts,
    such as ``np.float64`` entries of a decoded object)."""
    if not isinstance(obj, dict) or "blocks" not in obj:
        raise IngestError("top-level object must contain 'blocks'")
    raw_blocks = obj["blocks"]
    if not isinstance(raw_blocks, list) or not raw_blocks:
        raise IngestError("must be a non-empty list", "blocks")
    dims, weights, op_nodes = _block_fields(raw_blocks) or _walk_blocks(raw_blocks)
    stacks = _stacks_from_json(dims, op_nodes)
    if stacks is None:
        mats = _walk_matrices(dims, op_nodes)
        layout = block_layout(tuple(dims))
        stacks = [np.stack([mats[j] for j in idx], axis=1) for idx in layout.members]
    return dims, weights, stacks


def _fields_from_text(text):
    """``_fields_from_object`` of ``text`` decoded by ``orjson`` when the
    document holds only the schema's keys, as a field nobody reads could
    hold what ``json.loads`` refuses (orjson nests past Python's recursion
    limit); else, or when the decoder or that reading refuses it, of
    ``text`` decoded again by ``json.loads``, so a refused document gets
    the standard decoder's reading and error.  ``orjson`` yields no type
    the readers take otherwise than they take ``json.loads``'s."""
    try:
        obj = orjson.loads(text)
        raw_blocks = obj.get("blocks") if type(obj) is dict and len(obj) == 1 else None
        if type(raw_blocks) is list and all(
            type(node) is dict and len(node) == 3 for node in raw_blocks
        ):
            return _fields_from_object(obj)
    except (orjson.JSONDecodeError, IngestError):
        pass
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # bad syntax or encoding, an over-long integer, too deep a nesting
        raise IngestError(f"invalid JSON: {exc}") from exc
    return _fields_from_object(obj)


def _tuple_from_fields(dims, weights, stacks):
    try:
        alg = FiniteAlgebra._from_checked(dims, weights)
    except ShapeError as exc:
        raise IngestError(str(exc), "blocks") from exc
    operators = []
    for op_stacks in zip(*stacks):  # the first operator with a bad block raises
        _require_hermitian(alg.layout, op_stacks)
        operators.append(_from_stacks(alg.layout, op_stacks))
    return OperatorTuple(alg, tuple(operators))


def tuple_from_json(source):
    """Build an OperatorTuple from the JSON ingestion schema.

    ``source`` may be a JSON string or an already-decoded object.  Raises
    IngestError with the path of the first malformed field in document
    order, HermitianError on non-self-adjoint operator matrices.

    Text is decoded by ``orjson`` first.  Only a document that decoder
    accepts, that holds no key outside the schema and that reads without
    error is read from that decoding; every other document is decoded
    again by ``json.loads`` and read as a decoded object is, so its error
    (or result) is the standard decoder's.
    The two decoders give the same floats for every number both accept.
    The cyclic garbage collector is paused while the call runs (and
    switched back on only if it was on): a decoded document is acyclic
    lists by the ten thousand, whose allocation would otherwise set off
    full collections that free nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        if isinstance(source, (str, bytes)):
            return _tuple_from_fields(*_fields_from_text(source))
        return _tuple_from_fields(*_fields_from_object(source))
    finally:
        if enabled:
            gc.enable()


def tuple_to_json(optuple):
    """Serialize to the ingestion schema (plain python object)."""
    blocks = []
    for j, (d, c) in enumerate(optuple.algebra.blocks):
        mats = np.array([op.blocks[j] for op in optuple.operators])
        pairs = np.stack((mats.real, mats.imag), -1).tolist()
        blocks.append({"weight": c, "dim": d, "operators": pairs})
    return {"blocks": blocks}


def load_tuple(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise IngestError(f"not UTF-8 text: {exc}") from exc
    return tuple_from_json(text)


def save_tuple(optuple, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tuple_to_json(optuple), fh)
        fh.write("\n")
