"""Directional Laplace transforms of exponential-type functions on a sector.

The pieces fit together as a pipeline: a catalog entry describes a function
and its growth, the indicator module estimates directional growth rates, the
laplace module evaluates the transform on half-planes, the inversion module
reconstructs the function over an unbounded V-shaped contour, and the probe
module maps out where the transform stops being analytic.
"""

from .catalog import (
    TestFunction,
    builtin_catalog,
    format_complex,
    make_exp,
    make_sum,
    parse_complex,
    rational_function,
    resolve,
    trig_decay,
    type_for,
    zero_function,
)
from .errors import (
    AngularMarginTooSmall,
    BudgetExceeded,
    IllConditioned,
    InvalidApex,
    InvalidDecay,
    OutsideDomain,
    OutsideSector,
    OutsideUnion,
    SectorLapError,
)
from .geometry import (
    ContourGamma,
    GrowthCertificate,
    SectorSpec,
    build_gamma,
    sector_contains,
)
from .indicator import (
    INDICATOR_SENTINEL,
    IndicatorEstimate,
    estimate_indicator,
    indicator_value,
)
from .inversion import (
    ReconstructionQuery,
    RoundtripReport,
    RoundtripRow,
    cauchy_path_check,
    reconstruct,
    roundtrip_report,
)
from .laplace import (
    ConcatenatedTransform,
    TransformQuery,
    concatenated_transform,
    consistency_residual,
    directional_transform,
    gamma_bound_check,
    select_direction,
)
from .probe import (
    BlowupScan,
    GammaPrimeDiagnostics,
    ProbeReport,
    RadiusScan,
    blowup_scan,
    gamma_prime_diagnostics,
    probe_report,
    radius_scan,
)
from .quadrature import (
    DecayModel,
    IntegralResult,
    QuadratureBudget,
    cauchy_kernel_check,
    integrate_ray,
    integrate_segment,
)

__version__ = "0.1.0"

__all__ = [
    "AngularMarginTooSmall",
    "BlowupScan",
    "BudgetExceeded",
    "ConcatenatedTransform",
    "ContourGamma",
    "DecayModel",
    "GammaPrimeDiagnostics",
    "GrowthCertificate",
    "IllConditioned",
    "INDICATOR_SENTINEL",
    "IndicatorEstimate",
    "IntegralResult",
    "InvalidApex",
    "InvalidDecay",
    "OutsideDomain",
    "OutsideSector",
    "OutsideUnion",
    "ProbeReport",
    "QuadratureBudget",
    "RadiusScan",
    "ReconstructionQuery",
    "RoundtripReport",
    "RoundtripRow",
    "SectorLapError",
    "SectorSpec",
    "TestFunction",
    "TransformQuery",
    "blowup_scan",
    "build_gamma",
    "builtin_catalog",
    "cauchy_kernel_check",
    "cauchy_path_check",
    "concatenated_transform",
    "consistency_residual",
    "directional_transform",
    "estimate_indicator",
    "format_complex",
    "gamma_bound_check",
    "gamma_prime_diagnostics",
    "indicator_value",
    "integrate_ray",
    "integrate_segment",
    "make_exp",
    "make_sum",
    "parse_complex",
    "probe_report",
    "radius_scan",
    "rational_function",
    "reconstruct",
    "resolve",
    "roundtrip_report",
    "sector_contains",
    "select_direction",
    "trig_decay",
    "type_for",
    "zero_function",
]
