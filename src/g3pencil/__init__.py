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
from .exprjet import Expr, Jet3, eval_expr, eval_jet3, fresnel_c, fresnel_s, parse, to_source
from .g3core import G3Vector, cross, dot, isotropic_norm, normalize_isotropic
from .pencil import (
    ControlCoefficients,
    DTypeSpec,
    MarchingScale,
    NormalComponents,
    ParamDomain,
    PencilSpec,
    apply_control_coefficients,
    classify_dtype,
    corollary_components,
    required_normal_components,
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
    "Jet3",
    "parse",
    "to_source",
    "eval_expr",
    "eval_jet3",
    "fresnel_s",
    "fresnel_c",
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
    "NormalComponents",
    "ControlCoefficients",
    "PencilSpec",
    "surface_point",
    "surface_normal",
    "required_normal_components",
    "corollary_components",
    "synthesize_product_form",
    "apply_control_coefficients",
    "classify_dtype",
    "DTypeReport",
    "dtype_report",
    "__version__",
]
