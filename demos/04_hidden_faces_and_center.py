"""Hidden faces and central projections in a two-block algebra.

A noncommuting 2x2 block next to a scalar block makes the scale a
Minkowski sum of a small bicone and a segment.  Two things happen:

* some extreme points are supported by a single hyperplane whose face
  is bigger than the point, so no hyperplane exposes them directly --
  they are reached by a two-level facial complex and a two-step chain;
* the scalar block's projection is exposed from two independent
  directions, which forces it to be central in the generated algebra.
"""

import numpy as np

import specscale as ss
from specscale import fixtures

optuple = fixtures.block_with_scalars()
alg = optuple.algebra

# tangency direction: along -t the bottom of the 2x2 block ties with the
# scalar block, hiding one end of the corresponding cone ruling
t_tan, s_tan = fixtures.hidden_vertex_data()
print("tangency direction t =", np.round(t_tan, 6), " with  <t,(3,5)> =", t_tan @ [3, 5])

# level one: the supporting plane of (-s, -t) cuts out a parallelogram
level1 = ss.SpectralPair(-s_tan, -t_tan)
face1 = ss.exposed_face(optuple, level1)
print("\nlevel-1 face dimension:", face1.dimension)

# level two: inside the cut-down, a gap level isolates the hidden vertex
complex_ = ss.build_facial_complex(
    optuple, [level1, ss.SpectralPair(2.0, np.array([1.0, 0.0]))]
)
hidden = ss.face_from_complex(complex_)
w = ss.psi(optuple, hidden.lower)
print("hidden vertex:", np.round(w, 6))

cone = ss.normal_cone(optuple, hidden, 128)
print("its normal cone degree:", cone.degree, "(a single supporting ray)")

chain = ss.minimal_exposed_chain(optuple, hidden, 128)
print("minimal exposed chain length:", len(chain))
print("chain dimensions:", [ss.face_dimension(optuple, iv) for iv in chain])

# the scalar block projection: an isolated extreme point with
# independent supporting directions, hence central
z = alg.diagonal(np.array([0.0, 0.0, 1.0]))
interval = ss.OrderInterval(z, z)
cone_z = ss.normal_cone(optuple, interval, 128)
report = ss.detect_central(optuple, interval, cone_z)
print("\nscalar block projection: central =", report.central,
      "| independent directions =", report.rank,
      "| commutator norm =", report.commutator_norm)

# the 2x2 block is genuinely noncommutative, so the verdict is negative
verdict = ss.abelian_verdict(optuple, directions=64)
print("\nabelian (geometric/algebraic):", verdict.geometric, "/", verdict.algebraic)
print("cloud counts at two densities:", verdict.cloud_counts)
