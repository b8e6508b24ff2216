"""Surface pencils through a common curve in Galilean 3-space.

The package constructs parametric surface families sharing a given curve,
synthesizes marching-scale functions so the curve realizes a constant
Darboux-axis invariant along the family, and verifies the invariant with
surface normals from exact jets or from finite differences of positions.
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
    MarchingScale,
    ParamDomain,
    PencilSpec,
    SynthesisSpec,
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
    "SynthesisSpec",
    "PencilSpec",
    "surface_point",
    "surface_normal",
    "synthesize_product_form",
    "DTypeReport",
    "dtype_report",
    "__version__",
]
