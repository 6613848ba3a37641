"""Spectral scales of self-adjoint operator tuples.

Build an operator tuple over a block-diagonal algebra with a normalized
trace, and study the convex body traced out by the positive unit ball
under the trace pairing: support values, exposed and hidden faces,
normal cones, sharp faces, spectral gaps, central projections, and
abelian-ness of the generated algebra, all cross-checkable against a
brute-force sampling oracle.
"""

from .algebra import (
    FiniteAlgebra,
    HermitianOperator,
    OperatorTuple,
    generated_algebra_basis,
    linear_combination,
    load_tuple,
    psi,
    save_tuple,
    trace,
    tuple_from_json,
    tuple_to_json,
)
from .faces import (
    FacialComplex,
    NormalConeSample,
    build_facial_complex,
    cut_down,
    face_dimension,
    face_from_complex,
    is_sharp,
    minimal_exposed_chain,
    minimal_exposed_face,
    normal_cone,
    normal_cones,
)
from .scale import (
    ExposedFace,
    IsotraceSlice,
    SupportHyperplane,
    exposed_face,
    extreme_point_cloud,
    isotrace_slice,
    scale_dimension,
    support_value,
)
from .spectral import (
    OrderInterval,
    SpectralFrame,
    SpectralPair,
    decompose,
    eigengap_of,
    interval_projections,
)
from .structure import (
    AbelianVerdict,
    CentralityReport,
    GapReport,
    abelian_verdict,
    detect_central,
    detect_centrals,
    detect_gap,
    isolated_extremes_to_center,
)
from .oracle import PointCloudHull, hull_faces, oracle_support, sample_unit_ball

__version__ = "0.1.0"

__all__ = [
    "FiniteAlgebra",
    "HermitianOperator",
    "OperatorTuple",
    "SpectralPair",
    "OrderInterval",
    "SpectralFrame",
    "ExposedFace",
    "SupportHyperplane",
    "IsotraceSlice",
    "FacialComplex",
    "NormalConeSample",
    "AbelianVerdict",
    "CentralityReport",
    "GapReport",
    "PointCloudHull",
    "abelian_verdict",
    "build_facial_complex",
    "cut_down",
    "decompose",
    "detect_central",
    "detect_centrals",
    "detect_gap",
    "eigengap_of",
    "exposed_face",
    "extreme_point_cloud",
    "face_dimension",
    "face_from_complex",
    "generated_algebra_basis",
    "hull_faces",
    "interval_projections",
    "isolated_extremes_to_center",
    "is_sharp",
    "isotrace_slice",
    "linear_combination",
    "load_tuple",
    "minimal_exposed_chain",
    "minimal_exposed_face",
    "normal_cone",
    "normal_cones",
    "oracle_support",
    "psi",
    "sample_unit_ball",
    "save_tuple",
    "scale_dimension",
    "support_value",
    "trace",
    "tuple_from_json",
    "tuple_to_json",
]
