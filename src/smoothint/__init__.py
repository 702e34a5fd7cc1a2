"""Smooth integer encoding via integral balance.

An integer N is written onto the real line as a train of N Gaussian bumps
whose amplitudes alternate in sign and decay, so the total integral nearly
cancels.  The integral value indexes N and several inversion strategies
recover N from it, exactly or through noise.
"""

from .bumps import (
    Bump,
    Heaviside,
    Sigmoid,
    Smoothstep,
    TransitionFunction,
    bump_eval,
    bump_integral,
)
from .coefficients import (
    Canonical,
    CoefficientFamily,
    ExpPoly,
    Generalized,
    PartialSum,
    Trig,
    coefficient,
    partial_sum,
    partial_sums,
    tail_bound,
)
from .encoder import (
    EncoderConfig,
    Mode,
    counter_eval,
    counter_grid,
    smooth_cutoff,
    term_weights,
)
from .integral_map import (
    IntegralTable,
    area_scale,
    build_table,
    integral_closed,
    integral_quadrature,
    map_derivative_smooth,
)
from .interp import (
    CubicSpline,
    find_root_bracketed,
    spline_derivative,
    spline_eval,
    spline_fit,
)
from .multidim import (
    MultiEncoderConfig,
    MultiIndex,
    coordinatewise_recover,
    integral_multi,
    recover_multi,
)
from .recovery import (
    DEFAULT_STABILITY_EPSILON,
    RecoveryMethod,
    RecoveryResult,
    noise_sweep,
    perturbation_margin,
    recover_analytic_fractional,
    recover_binary,
    recover_match,
    recover_spline,
    recover_threshold,
    select_epsilon,
)
from .tableio import (
    load_table,
    load_table_csv,
    load_table_json,
    save_table_csv,
    save_table_json,
)

__version__ = "0.1.0"

__all__ = [
    "Bump",
    "Canonical",
    "CoefficientFamily",
    "CubicSpline",
    "DEFAULT_STABILITY_EPSILON",
    "EncoderConfig",
    "ExpPoly",
    "Generalized",
    "Heaviside",
    "IntegralTable",
    "Mode",
    "MultiEncoderConfig",
    "MultiIndex",
    "PartialSum",
    "RecoveryMethod",
    "RecoveryResult",
    "Sigmoid",
    "Smoothstep",
    "TransitionFunction",
    "Trig",
    "area_scale",
    "build_table",
    "bump_eval",
    "bump_integral",
    "coefficient",
    "coordinatewise_recover",
    "counter_eval",
    "counter_grid",
    "find_root_bracketed",
    "integral_closed",
    "integral_multi",
    "integral_quadrature",
    "load_table",
    "load_table_csv",
    "load_table_json",
    "map_derivative_smooth",
    "noise_sweep",
    "partial_sum",
    "partial_sums",
    "perturbation_margin",
    "recover_analytic_fractional",
    "recover_binary",
    "recover_match",
    "recover_multi",
    "recover_spline",
    "recover_threshold",
    "save_table_csv",
    "save_table_json",
    "select_epsilon",
    "smooth_cutoff",
    "spline_derivative",
    "spline_eval",
    "spline_fit",
    "tail_bound",
    "term_weights",
    "__version__",
]
