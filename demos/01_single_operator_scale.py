"""A single diagonal operator and the polygon it traces out.

The operator is diag(1, 1/2, ..., 1/8) with geometric trace weights.
The scale is a convex polygon in the plane; its lower boundary encodes
the spectrum as segment slopes, segments sit over eigenvalues, and
corners sit over gaps in the spectrum.
"""

import numpy as np

import specscale as ss
from specscale import fixtures

optuple = fixtures.reciprocal_diagonal(8)
alg = optuple.algebra
b = optuple.operators[0]

print("trace of the identity:", ss.trace(alg, alg.identity()))
print("trace of b:           ", ss.trace(alg, b))

# the spectrum, clustered
info = ss.decompose(alg, b)
print("eigenvalues:", np.round(info.values, 6))

# a supporting line at a cut level inside the spectrum: the face is the
# segment over the eigenvalue 1/3
pair = ss.SpectralPair(s=1 / 3, t=np.array([1.0]))
face = ss.exposed_face(optuple, pair)
print("\ncut level 1/3 -> face dimension", face.dimension)
print("segment endpoints:\n", face.vertices)
print("support value alpha:", face.alpha)

# sweep all directions: the full (finite) extreme point set
cloud = ss.extreme_point_cloud(optuple, 32)
print("\nextreme points found:", len(cloud))

# lower-boundary slopes recover the spectrum
pts = cloud.points[np.lexsort((cloud.points[:, 1], cloud.points[:, 0]))]
lower = [pts[0]]
for p in pts[1:]:
    while len(lower) >= 2:
        a, c = lower[-2], lower[-1]
        if (c[0] - a[0]) * (p[1] - a[1]) - (c[1] - a[1]) * (p[0] - a[0]) <= 0:
            lower.pop()
        else:
            break
    lower.append(p)
lower = np.array(lower)
slopes = np.diff(lower[:, 1]) / np.diff(lower[:, 0])
print("lower-boundary slopes:", np.round(slopes, 6))
print("sorted spectrum:      ", np.round(np.sort(info.values), 6))

# corners <-> spectral gaps: the vertex between eigenvalues 1/3 and 1/2
vertex = ss.exposed_face(optuple, ss.SpectralPair(5 / 12, np.array([1.0])))
cone = ss.normal_cone(optuple, vertex.interval, 32)
print("\nvertex at cut level 5/12: degree", cone.degree, "-> sharp corner")
gaps = ss.detect_gap(optuple, vertex.interval, cone)
for g in gaps:
    print(f"  supported across the spectral gap ({g.s1:.6f}, {g.s2:.6f}) along t={g.t}")
