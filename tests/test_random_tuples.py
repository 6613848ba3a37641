"""Seeded random tuples through the whole pipeline.

Catches structural regressions the hand-built fixtures cannot: repeated
eigenvalues across blocks, degenerate spectra, three-operator tuples,
flat scales.
"""

import numpy as np
import pytest

import specscale as ss
from specscale.algebra import FiniteAlgebra, OperatorTuple, _raw
from specscale.faces import interval_contains, minimal_exposed_chain, normal_cone


def random_tuple(rng):
    nblocks = rng.integers(1, 4)
    dims = [int(rng.integers(1, 4)) for _ in range(nblocks)]
    weights = rng.uniform(0.2, 1.0, nblocks)
    weights /= weights @ dims
    alg = FiniteAlgebra(tuple(zip(dims, weights)))
    n = int(rng.integers(1, 4))
    ops = []
    for _ in range(n):
        blocks = []
        for d in dims:
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            if rng.random() < 0.3:
                m = np.eye(d) * rng.integers(-2, 3)  # force degeneracies
            blocks.append(m)
        ops.append(_raw(blocks))
    return OperatorTuple(alg, tuple(ops))


@pytest.mark.parametrize("seed", range(12))
def test_pipeline_on_random_tuples(seed):
    rng = np.random.default_rng(1000 + seed)
    optuple = random_tuple(rng)
    alg = optuple.algebra
    n = optuple.n

    dims = ss.scale_dimension(optuple)
    assert 1 <= dims.dimension <= n + 1
    cloud = ss.extreme_point_cloud(optuple, 16)
    assert len(cloud) >= 2  # at least the images of 0 and 1

    verdict = ss.abelian_verdict(optuple, directions=8)
    if verdict.max_commutator <= 1e-10:
        assert verdict.algebraic

    for _ in range(3):
        u = rng.standard_normal(n + 1)
        if np.linalg.norm(u[1:]) < 1e-2:
            continue
        face = ss.exposed_face(optuple, ss.SpectralPair(-u[0], u[1:]))
        whole = (
            alg.trace(face.interval.lower) < 1e-12
            and abs(alg.trace(face.interval.upper) - 1.0) < 1e-12
        )
        if whole:
            continue
        cone = normal_cone(optuple, face.interval, 16)
        dim = ss.face_dimension(optuple, face.interval)
        assert cone.degree + dim <= n + 1
        chain = minimal_exposed_chain(optuple, face.interval, 16)
        assert chain
        for outer, inner in zip(chain, chain[1:]):
            assert interval_contains(outer, inner)
            assert ss.face_dimension(optuple, inner) < ss.face_dimension(
                optuple, outer
            )

    sl = ss.isotrace_slice(optuple, 0.3, 16)
    assert np.all(np.isfinite(sl.points))
