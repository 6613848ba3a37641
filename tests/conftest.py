import numpy as np
import pytest

from specscale import fixtures


@pytest.fixture(scope="session")
def reciprocal8():
    return fixtures.reciprocal_diagonal(8)


@pytest.fixture(scope="session")
def two_point():
    return fixtures.two_point()


@pytest.fixture(scope="session")
def pauli():
    return fixtures.pauli_pair()


@pytest.fixture(scope="session")
def commuting():
    return fixtures.commuting_diagonals()


@pytest.fixture(scope="session")
def blockpair():
    return fixtures.block_with_scalars()


def reciprocal_weights(d=8):
    norm = 1.0 - 2.0 ** (-d)
    return np.array([2.0 ** (-k) / norm for k in range(1, d + 1)])


def lower_tail_points(d=8):
    """Images of the tail projections of diag(1/k): the lower vertices."""
    w = reciprocal_weights(d)
    vals = np.array([1.0 / k for k in range(1, d + 1)])
    pts = [np.array([0.0, 0.0])]
    for m in range(d, 0, -1):
        pts.append(np.array([w[m - 1 :].sum(), (w[m - 1 :] * vals[m - 1 :]).sum()]))
    return np.array(pts)


def sampled_face_inventory(optuple, directions=24, include_whole=False):
    """Deduplicated exposed-face intervals from a direction sweep."""
    from specscale.algebra import max_norm
    from specscale.faces import intervals_equal
    from specscale.scale import sweep_faces

    out = []
    one = optuple.algebra.identity()
    for face in sweep_faces(optuple, directions):
        whole = (
            max_norm(face.interval.lower) <= 1e-10
            and max_norm(face.interval.upper - one) <= 1e-10
        )
        if whole and not include_whole:
            continue
        if not any(intervals_equal(face.interval, seen) for seen in out):
            out.append(face.interval)
    return out


def lower_hull(points):
    """Andrew monotone chain, lower part only."""
    pts = points[np.lexsort((points[:, 1], points[:, 0]))]
    hull = []
    for p in pts:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return np.array(hull)
