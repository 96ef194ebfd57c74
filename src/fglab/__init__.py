"""fglab: exact p-adic formal groups and nonarchimedean dynamics.

Core layers:

* :mod:`fglab.padic`        scalar and extension-field arithmetic
* :mod:`fglab.series`       truncated multivariate power series
* :mod:`fglab.formal_group` group laws, Lubin-Tate construction, heights
* :mod:`fglab.commutant`    Jacobian-driven commutant reconstruction
* :mod:`fglab.dynamics`     copolygons, orbits, torsion probes
* :mod:`fglab.serialize`    canonical text documents
* :mod:`fglab.cli`          command-line driver

``tuple_compose`` takes each inner component's constant term, which must be
certified zero, as exactly zero: its degree-0 precision is not carried into
the composite.
"""

from .commutant import (
    ReconstructionTrace,
    StabilityVerdict,
    commutant_reconstruct,
    group_from_jacobian,
    stability_classify,
)
from .dynamics import (
    BoundCheckReport,
    Copolygon,
    IntersectionReport,
    OrbitRecord,
    TorsionLevelSet,
    copolygon_build_eval,
    intersection_probe,
    orbit_analyze,
    torsion_probe_dim1,
    valuation_bound_check,
)
from .formal_group import (
    AxiomCertificate,
    EndoSeries,
    FormalGroupLaw,
    HeightReport,
    Lt2Result,
    LubinTate2Params,
    additive_law,
    endo_verify,
    fg_multiplication_map,
    fg_negation,
    fg_validate,
    height_and_kernel_count,
    lt2_build,
    lt2_min_precision,
    multiplicative_law,
)
from .padic import (
    INFINITE,
    ExtensionModulus,
    ExtScalar,
    PadicScalar,
    PointTuple,
    PrecisionContext,
    ext_construct,
    teichmuller,
)
from .series import (
    EvalResult,
    MultiSeries,
    TupleSeries,
    coeff_extract,
    compositional_inverse,
    jacobian,
    ms_eval,
    tuple_compose,
)
from .serialize import parse, parse_extension, serialize, serialize_extension

__all__ = [
    "AxiomCertificate", "BoundCheckReport", "Copolygon", "EndoSeries",
    "EvalResult", "ExtScalar", "ExtensionModulus",
    "FormalGroupLaw", "HeightReport", "INFINITE", "IntersectionReport",
    "Lt2Result", "LubinTate2Params", "MultiSeries",
    "OrbitRecord", "PadicScalar", "PointTuple", "PrecisionContext",
    "ReconstructionTrace", "StabilityVerdict", "TorsionLevelSet",
    "TupleSeries", "additive_law", "coeff_extract", "commutant_reconstruct",
    "compositional_inverse", "copolygon_build_eval", "endo_verify",
    "ext_construct", "fg_multiplication_map", "fg_negation", "fg_validate",
    "group_from_jacobian", "height_and_kernel_count",
    "intersection_probe", "jacobian", "lt2_build", "lt2_min_precision",
    "ms_eval", "multiplicative_law", "orbit_analyze", "parse",
    "parse_extension", "serialize", "serialize_extension",
    "stability_classify", "teichmuller", "torsion_probe_dim1",
    "tuple_compose", "valuation_bound_check",
]
