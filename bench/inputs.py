"""Seeded input generation for the benchmark workloads.

Every input is written in the CLI's JSON ingestion schema and built here
without importing specscale, so the program under test sees only files.
The same seed gives the same bytes.
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

SIGMA_X = [[0.0, 1.0], [1.0, 0.0]]
SIGMA_Z = [[1.0, 0.0], [0.0, -1.0]]
BLOCK_VALUES = np.arange(-3, 4)  # entries of the many_blocks operators


def _matrix(m):
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _tuple_json(blocks, operators):
    """``blocks`` is a list of (dim, weight); ``operators[i][j]`` is the
    matrix of operator ``i`` on block ``j``."""
    return {
        "blocks": [
            {
                "weight": float(c),
                "dim": int(d),
                "operators": [_matrix(op[j]) for op in operators],
            }
            for j, (d, c) in enumerate(blocks)
        ]
    }


def fixture_tuples():
    """The five reference tuples of the README, by name."""
    norm = 1.0 - 2.0 ** (-8)
    recip = _tuple_json(
        [(1, 2.0 ** (-k) / norm) for k in range(1, 9)],
        [[[[1.0 / k]] for k in range(1, 9)]],
    )
    two = _tuple_json([(1, 0.5), (1, 0.5)], [[[[0.0]], [[1.0]]]])
    pauli = _tuple_json([(2, 0.5)], [[SIGMA_X], [SIGMA_Z]])
    comm = _tuple_json(
        [(1, 0.25)] * 4,
        [[[[1.0]], [[2.0]], [[3.0]], [[4.0]]], [[[1.0]], [[1.0]], [[0.0]], [[0.0]]]],
    )
    bws = _tuple_json(
        [(2, 0.25), (1, 0.5)], [[SIGMA_X, [[3.0]]], [SIGMA_Z, [[5.0]]]]
    )
    return {
        "reciprocal_diagonal": recip,
        "two_point": two,
        "pauli_pair": pauli,
        "commuting_diagonals": comm,
        "block_with_scalars": bws,
    }


def random_hermitian(rng, d):
    """Exactly Hermitian complex matrix with unit-variance entries."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    upper = np.triu(g, 1) / np.sqrt(2.0)
    return upper + upper.conj().T + np.diag(rng.standard_normal(d))


def dense_block_tuple(rng, d, n):
    """n generic Hermitian operators on one d x d block (trace Tr/d)."""
    return _tuple_json(
        [(d, 1.0 / d)], [[random_hermitian(rng, d)] for _ in range(n)]
    )


def many_blocks_tuple(rng, m, n):
    """n commuting operators on m one-dimensional blocks with entries
    from BLOCK_VALUES.

    The joint values form a grid: every value of BLOCK_VALUES when
    ``n = 1``, otherwise ``4 ** n`` vectors built from four seeded values
    per coordinate.  Each joint value sits on ``m // k`` or ``m // k + 1``
    blocks.  So every seed gives the same number of eigenvalue clusters,
    with the same multiplicities, along each coordinate axis and along
    any direction no integer vector is orthogonal to; the seed picks the
    values and which blocks carry them.
    """
    if n == 1:
        axes = [BLOCK_VALUES]
    else:
        axes = [np.sort(rng.choice(BLOCK_VALUES, 4, replace=False)) for _ in range(n)]
    joint = np.array(list(itertools.product(*axes)))
    k = len(joint)
    counts = [m // k + (i < m % k) for i in range(k)]
    entries = rng.permutation(np.repeat(joint, counts, axis=0)).T
    return _tuple_json(
        [(1, 1.0 / m)] * m,
        [[[[float(x)]] for x in row] for row in entries],
    )


def write_inputs(tuples, out_dir):
    """Write ``{name: json object}`` as ``out_dir/<name>.json``."""
    os.makedirs(out_dir, exist_ok=True)
    for name, obj in tuples.items():
        with open(os.path.join(out_dir, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
            fh.write("\n")
