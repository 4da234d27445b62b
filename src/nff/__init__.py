"""Near/far-field convergence analysis for dipole arrays.

Computes exact infinitesimal-dipole array fields, measures how fast they
converge to the outgoing spherical-wave far-field approximation along
radial test lines, and evaluates six boundary-distance formulas against
that convergence.  See the README for the full tour.
"""

from .boundaries import (
    BoundaryResult,
    BoundarySpec,
    TailNotMonotone,
    UndefinedProjection,
    evaluate_boundary,
    gamma_uniform_power,
    phi_excess,
    psi_gain_ratio,
    quasi_rayleigh,
    upsilon_power,
    xi_worst_mismatch,
)
from .core import (
    DIAGONAL,
    DIRECTION_PRESETS,
    FREE_SPACE_IMPEDANCE,
    FRONT,
    SIDE,
    WAVENUMBER,
    Direction,
    unit_vector,
)
from .farfield import (
    AngularFieldDistribution,
    InconsistentFarField,
    analytic_angular_distribution,
    auxiliary_fields,
)
from .harness import (
    ConfigError,
    FieldTrace,
    ScenarioConfig,
    TraceFormatError,
    export_table,
    export_trace,
    import_trace,
    load_scenario,
    parse_boundaries,
    parse_direction,
    reproduce_reference,
    run_boundaries,
    run_sweep,
    trace_error_curve,
)
from .metric import (
    DipoleArrayScenario,
    ErrorCurve,
    default_grid,
    error_sweep,
    field_mismatch,
)
from .sources import (
    ArrayGeometry,
    FieldSingularity,
    array_field,
    ff_precoder,
    nf_precoder,
    uniform_linear_array,
)

__version__ = "0.1.0"

__all__ = [
    "AngularFieldDistribution",
    "ArrayGeometry",
    "BoundaryResult",
    "BoundarySpec",
    "ConfigError",
    "DIAGONAL",
    "DIRECTION_PRESETS",
    "DipoleArrayScenario",
    "Direction",
    "ErrorCurve",
    "FREE_SPACE_IMPEDANCE",
    "FRONT",
    "FieldSingularity",
    "FieldTrace",
    "InconsistentFarField",
    "SIDE",
    "ScenarioConfig",
    "TailNotMonotone",
    "TraceFormatError",
    "UndefinedProjection",
    "WAVENUMBER",
    "analytic_angular_distribution",
    "array_field",
    "auxiliary_fields",
    "default_grid",
    "error_sweep",
    "evaluate_boundary",
    "export_table",
    "export_trace",
    "ff_precoder",
    "field_mismatch",
    "gamma_uniform_power",
    "import_trace",
    "load_scenario",
    "nf_precoder",
    "parse_boundaries",
    "parse_direction",
    "phi_excess",
    "psi_gain_ratio",
    "quasi_rayleigh",
    "reproduce_reference",
    "run_boundaries",
    "run_sweep",
    "trace_error_curve",
    "uniform_linear_array",
    "unit_vector",
    "upsilon_power",
    "xi_worst_mismatch",
]
