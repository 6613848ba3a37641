"""The vectorized direction dedup and sweep levels against the plain
loops they replace."""

import numpy as np
import pytest

from specscale import sampling


def _distinct_by_loop(vectors):
    seen = {}
    for v in vectors:
        norm = np.linalg.norm(v)
        if norm > 1e-9:
            unit = v / norm
            seen.setdefault(tuple(np.round(unit, 9)), unit)
    return list(seen.values())


@pytest.mark.parametrize("seed", range(40))
def test_distinct_unit_vectors_matches_the_loop_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    centers = rng.standard_normal((int(rng.integers(1, 6)), n))
    centers[rng.random(centers.shape) < 0.3] = 0.0
    # clusters of near repeats, rescaled, some below the norm cut-off
    rows = centers[rng.integers(0, len(centers), 60)]
    rows = rows * rng.choice([1.0, 2.5, 1e-12], size=(60, 1))
    rows = rows + rng.choice([0.0, 1e-13, 1e-10], size=rows.shape)
    rows = np.where(rows == 0.0, rng.choice([0.0, -0.0], size=rows.shape), rows)
    want = _distinct_by_loop(rows)
    got = sampling.distinct_unit_vectors(iter(rows))
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


def test_signed_zeros_share_one_key():
    rows = np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [1.0, 0.0]])
    got = sampling.distinct_unit_vectors(rows)
    assert [v.tobytes() for v in got] == [rows[0].tobytes(), rows[2].tobytes()]
    assert sampling.distinct_unit_vectors([np.zeros(2)]) == []
    assert sampling.distinct_unit_vectors([]) == []


def _sweep_by_loop(values):
    values = np.sort(np.asarray(values, dtype=float))
    levels = [values[0] - 1.0]
    for i, v in enumerate(values):
        levels.append(v)
        if i + 1 < len(values):
            levels.append(0.5 * (v + values[i + 1]))
    levels.append(values[-1] + 1.0)
    return np.array(levels)


@pytest.mark.parametrize("seed", range(20))
def test_eigenvalue_sweep_matches_the_loop_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    spectra = [
        [rng.standard_normal()],  # one value
        np.repeat(rng.integers(-3, 4, 4), rng.integers(1, 4, 4)),  # repeats
        rng.standard_normal(int(rng.integers(2, 40))) * 10.0 ** rng.integers(-3, 4),
        [0.1, 0.1 + 1e-16, -0.0, 0.0],
    ]
    for values in spectra:
        got = sampling.eigenvalue_sweep(values)
        want = _sweep_by_loop(values)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
