"""Antinorms on the nonnegative orthant.

Concave analogues of norms: evaluation, continuous boundary extension,
antipolar duality, generation and verification of self-dual antinorms and
autopolar conic polygons, lower-spectral-radius bounds for nonnegative
matrix families and concave trigonometry.
"""

__version__ = "0.1.0"

from .config import DEFAULT, Tolerances
from .errors import (
    AntinormError,
    DegenerateBodyError,
    DimensionMismatchError,
    InfeasibleSeedError,
    NegativeCoordinateError,
    NotSelfDualError,
    ThetaRangeError,
)
from .exprs import (
    Antinorm,
    AxiomsReport,
    BuiltinAntinorm,
    CallableAntinorm,
    ConeSplitAntinorm,
    NumericDualAntinorm,
    PLAntinorm,
    ProductAntinorm,
    SymmetrizedAntinorm,
    antinorm_axioms_check,
    as_pl,
    as_point,
    canonicalize_pl,
    catalog,
    continuous_extension_eval,
    symmetrize,
)
from .geometry import ConicPolytope, antipolar, prune_positive_hull, vertices_of
from .duality import (
    DualReport,
    DiscontinuityTable,
    double_dual_check,
    dual_numeric,
    dual_pl,
    dual_values,
    duality_discontinuity_demo,
    min_eps_dual_closed,
    young_check,
)
from .selfdual import (
    AutopolarSeed,
    ConicPolygon2D,
    SymmetricProbeReport,
    closest_antisphere_point,
    construct1,
    construct2,
    contact_point,
    is_selfdual,
    random_autopolar_seed,
    symmetric_selfdual_probe,
)
from .dynamics import (
    BodyIterationResult,
    CTSwitchingReport,
    LSRBoundReport,
    LyapunovAntinormReport,
    LyapunovMCResult,
    MatrixFamily,
    TransposeDualityReport,
    ct_switching_check,
    invariant_body_iterate,
    lsr_lower_certificate,
    lsr_upper,
    lyapunov_antinorm_check,
    lyapunov_exponent_mc,
    perron_certificate,
    transpose_extremal_check,
)
from .trig import IdentityReport, TrigContext, cosh_sinh, identity_check, theta_of_point

__all__ = [name for name in dir() if not name.startswith("_")]
