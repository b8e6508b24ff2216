"""Surface pencils through a common curve in Galilean 3-space.

The package constructs parametric surface families sharing a given curve,
synthesizes marching-scale functions so the curve realizes a constant
Darboux-axis invariant along the family, and verifies the invariant with
an independent finite difference oracle.
"""

from .curve import (
    CurveClass,
    CurveSpec,
    DarbouxData,
    FrenetFrame,
    anti_salkowski,
    classify_curve,
    darboux,
    frenet,
    fresnel_helix,
    point,
)
from .errors import G3PencilError
from .exprjet import Expr, parse, to_source
from .g3core import G3Vector, cross, dot, isotropic_norm, normalize_isotropic
from .pencil import (
    ControlCoefficients,
    DTypeSpec,
    MarchingScale,
    ParamDomain,
    PencilSpec,
    apply_control_coefficients,
    surface_normal,
    surface_point,
    synthesize_product_form,
)
from .verify import DTypeReport, dtype_report

__version__ = "0.1.0"

__all__ = [
    "G3PencilError",
    "G3Vector",
    "cross",
    "dot",
    "isotropic_norm",
    "normalize_isotropic",
    "Expr",
    "parse",
    "to_source",
    "CurveSpec",
    "CurveClass",
    "FrenetFrame",
    "DarbouxData",
    "fresnel_helix",
    "anti_salkowski",
    "point",
    "frenet",
    "darboux",
    "classify_curve",
    "ParamDomain",
    "MarchingScale",
    "DTypeSpec",
    "ControlCoefficients",
    "PencilSpec",
    "surface_point",
    "surface_normal",
    "synthesize_product_form",
    "apply_control_coefficients",
    "DTypeReport",
    "dtype_report",
    "__version__",
]
