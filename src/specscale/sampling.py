"""Deterministic direction sampling on spheres.

Directions come from an unscrambled Halton sequence pushed through the
inverse normal CDF and normalized, which gives a reproducible,
reasonably well-spread set on the unit sphere; the signed coordinate
axes are always prepended.  The sequence is extensible: asking for more
directions yields a superset of a shorter request, which the sampling
escalation logic relies on.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc

DEFAULT_DIRECTIONS = 256


def axis_directions(dim):
    eye = np.eye(dim)
    return np.concatenate([eye, -eye], axis=0)


def unit_directions(dim, count=DEFAULT_DIRECTIONS):
    """``2*dim`` axis directions followed by ``count`` quasi-random ones."""
    out = [axis_directions(dim)]
    if count > 0:
        halton = qmc.Halton(d=dim, scramble=False, seed=None)
        halton.fast_forward(1)  # skip the origin-adjacent first point
        u = halton.random(count)
        g = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
        norms = np.linalg.norm(g, axis=1)
        norms[norms == 0] = 1.0
        out.append(g / norms[:, None])
    return np.concatenate(out, axis=0)


def distinct_unit_vectors(vectors):
    """``vectors`` normalized, in order, without those of norm ``<= 1e-9``
    and without repeats of an earlier one to 9 decimals.

    All rows are handled at once; each norm is ``sqrt(v·v)`` from one
    stacked ``matmul``, bit for bit ``np.linalg.norm(v)``.  ``-0.0`` and
    ``0.0`` round to the same key.
    """
    rows = np.array(list(vectors), dtype=float)
    if not rows.size:
        return []
    norms = np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None]).ravel())
    units = rows[norms > 1e-9] / norms[norms > 1e-9, None]
    _, first = np.unique(np.round(units, 9) + 0.0, axis=0, return_index=True)
    return list(units[np.sort(first)])


def eigenvalue_sweep(values):
    """Cut levels hitting every interval projection of a spectrum.

    Returns the sorted cluster values themselves, the midpoints of
    consecutive gaps, and one level below the minimum and above the
    maximum, each 1 away.
    """
    values = np.sort(np.asarray(values, dtype=float))
    levels = np.empty(2 * len(values) + 1)
    levels[0], levels[-1] = values[0] - 1.0, values[-1] + 1.0
    levels[1:-1:2] = values
    levels[2:-1:2] = 0.5 * (values[:-1] + values[1:])
    return levels
