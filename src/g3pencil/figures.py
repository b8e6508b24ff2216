"""Built-in example figure datasets (fig1a through fig1h).

fig1a and fig1e are the curves of the paper's two examples, the Fresnel
helix and the constant-torsion (anti-Salkowski) curve; the other six are
members of surface pencils through them.  Each figure is one row of
``CURVE_FIGURES`` or ``SURFACE_FIGURES``, and ``DOMAIN`` and ``GRID`` give
all eight their range and default grid.

Each figure has two forms.  The corrected form (the default) synthesizes
the marching scale for the row's lambda and sigma.  The as-printed form
evaluates the historical formulas verbatim: the first example's curve
takes the printed Fresnel argument, and a surface takes the printed
product factors (l, m, n = 1, 1, -1, X = v and the row's Y and Z), whose
retortion and flexion factors the finite difference oracle shows to be
inconsistent (see g3pencil.verify).
"""

from __future__ import annotations

import math

DOMAIN = {"s_min": -2.0 * math.pi, "s_max": 2.0 * math.pi, "v_min": 0.0, "v_max": 5.0, "v0": 0.0}
GRID = (200, 50)  # (ns, nv); a curve figure samples ns points

CURVE_FIGURES = {"fig1a": "fresnel-helix", "fig1e": "anti-salkowski"}

_EX2_Y = "sqrt(1/cosh(s/4) - 3/(4*cosh(s/4)^2))*v"
_EX2_Z = "sqrt(3)/2*cosh(s/4)*v"

# name: (curve, lambda, sigma, controls (a, b, c) or None, printed Y, printed Z)
SURFACE_FIGURES = {
    "fig1b": ("fresnel-helix", 0.5, "1", (1.0, 1.0, 1.0), "3*sqrt(7)/8*v", "1/8*v"),
    "fig1c": ("fresnel-helix", 0.5, "1", (1 / 3, 1 / 5, 1.0), "3*sqrt(7)/8*v", "1/8*v"),
    "fig1d": ("fresnel-helix", 0.5, "s", (1 / 3, 1 / 5, 1.0), "sqrt(s^2 - 1/64)*v", "1/8*v"),
    "fig1f": ("anti-salkowski", math.sqrt(3) / 2, "1/cosh(s/4)", None, _EX2_Y, _EX2_Z),
    "fig1g": ("anti-salkowski", math.sqrt(3) / 2, "1/cosh(s/4)", (1.0, 3.0, 5.0), _EX2_Y, _EX2_Z),
    "fig1h": ("anti-salkowski", math.sqrt(3) / 2, "1/cosh(s/4)", (1.0, 1 / 5, 1 / 10), _EX2_Y, _EX2_Z),
}

FIGURES = sorted(CURVE_FIGURES.keys() | SURFACE_FIGURES.keys())


def figure_doc(name: str, as_printed: bool = False) -> dict:
    """The config document of a surface figure, in its corrected or as-printed form."""
    curve, lam, sigma, control, y, z = SURFACE_FIGURES[name]
    lmn = {"l": "1", "m": "1", "n": "-1"}
    if as_printed:
        marching = {"product": {**lmn, "X": "v", "Y": y, "Z": z}}
    else:
        marching = {"synthesis": {"lambda": lam, "sigma": sigma, "sign": "+", **lmn}}
    doc = {
        "curve": curve,
        "marching_scale": marching,
        "domain": dict(DOMAIN),
        "grid": dict(zip(("ns", "nv"), GRID)),
    }
    if control is not None:
        doc["control"] = dict(zip("abc", control))
    return doc
