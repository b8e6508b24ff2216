"""Surface pencils through a common curve in Galilean 3-space.

The package constructs parametric surface families sharing a given curve,
synthesizes marching-scale functions so the curve realizes a constant
Darboux-axis invariant along the family, and verifies the invariant with
surface normals from exact jets or from finite differences of positions.
"""

from .curve import (
    CurveClass,
    CurveSpec,
    anti_salkowski,
    classify_curve,
    darboux_parts,
    frame_parts,
    fresnel_helix,
    point_parts,
)
from .errors import G3PencilError
from .exprjet import Expr, parse, to_source
from .g3core import cross_parts
from .pencil import (
    MarchingScale,
    ParamDomain,
    PencilSpec,
    SynthesisSpec,
    normal_parts,
    surface_point_parts,
    synthesize_product_form,
)
from .verify import DTypeReport, dtype_report

__version__ = "0.1.0"

__all__ = [
    "G3PencilError",
    "cross_parts",
    "Expr",
    "parse",
    "to_source",
    "CurveSpec",
    "CurveClass",
    "fresnel_helix",
    "anti_salkowski",
    "point_parts",
    "frame_parts",
    "darboux_parts",
    "classify_curve",
    "ParamDomain",
    "MarchingScale",
    "SynthesisSpec",
    "PencilSpec",
    "surface_point_parts",
    "normal_parts",
    "synthesize_product_form",
    "DTypeReport",
    "dtype_report",
    "__version__",
]
