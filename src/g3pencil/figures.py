"""Built-in example figure datasets (fig1a through fig1h).

Each figure is defined twice: the corrected form (default) and the
as-printed form, which evaluates the historical formulas verbatim.  The
two differ for every figure: the first example's curve uses the corrected
Fresnel argument, and the surface figures of the second example use
retortion and flexion factors that the finite difference oracle shows to
be inconsistent as printed (see g3pencil.verify).

Figure parameters:

* fig1a  curve of the Fresnel helix example
* fig1b  its pencil member with lambda = 1/2, sigma = 1, controls (1, 1, 1)
* fig1c  same with controls (1/3, 1/5, 1)
* fig1d  same with sigma(s) = s and controls (1/3, 1/5, 1)
* fig1e  curve of the constant-torsion example
* fig1f  its pencil member with lambda = sqrt(3)/2, sigma = 1/cosh(s/4)
* fig1g  same with controls (1, 3, 5)
* fig1h  same with controls (1, 1/5, 1/10)
"""

from __future__ import annotations

import math

from .config import PencilConfig, config_from_dict
from .g3core import Record

_TWO_PI = 2.0 * math.pi

_DOMAIN = {"s_min": -_TWO_PI, "s_max": _TWO_PI, "v_min": 0.0, "v_max": 5.0, "v0": 0.0}
_GRID = {"ns": 200, "nv": 50}

_EX1_SYNTH = {
    "lambda": 0.5,
    "sigma": "1",
    "sign": "+",
    "l": "1",
    "m": "1",
    "n": "-1",
}

_EX1_PRINTED_PRODUCT = {
    "l": "1",
    "m": "1",
    "n": "-1",
    "X": "v",
    "Y": "3*sqrt(7)/8*v",
    "Z": "1/8*v",
}

_EX2_SYNTH = {
    "lambda": math.sqrt(3.0) / 2.0,
    "sigma": "1/cosh(s/4)",
    "sign": "+",
    "l": "1",
    "m": "1",
    "n": "-1",
}

_EX2_PRINTED_PRODUCT = {
    "l": "1",
    "m": "1",
    "n": "-1",
    "X": "v",
    "Y": "sqrt(1/cosh(s/4) - 3/(4*cosh(s/4)^2))*v",
    "Z": "sqrt(3)/2*cosh(s/4)*v",
}


def _surface_doc(curve: str, marching: dict, control: dict | None) -> dict:
    doc = {
        "curve": curve,
        "marching_scale": marching,
        "domain": dict(_DOMAIN),
        "grid": dict(_GRID),
        "verify": {"mode": "analytic", "samples": 200},
    }
    if control is not None:
        doc["control"] = control
    return doc


class FigureDef(Record):
    __slots__ = _fields = ("name", "kind", "corrected", "printed")

    def __init__(self, name: str, kind: str, corrected: dict | None, printed: dict | None):
        self.name = name
        self.kind = kind  # "curve" | "surface"
        self.corrected = corrected
        self.printed = printed

    def config(self, as_printed: bool = False) -> PencilConfig:
        if self.kind != "surface":
            raise ValueError(f"{self.name} is a curve figure")
        return config_from_dict(self.printed if as_printed else self.corrected)


def _figures() -> dict[str, FigureDef]:
    defs: dict[str, FigureDef] = {}
    defs["fig1a"] = FigureDef("fig1a", "curve", None, None)
    defs["fig1e"] = FigureDef("fig1e", "curve", None, None)

    controls = {
        "fig1b": {"a": 1.0, "b": 1.0, "c": 1.0},
        "fig1c": {"a": 1.0 / 3.0, "b": 1.0 / 5.0, "c": 1.0},
        "fig1g": {"a": 1.0, "b": 3.0, "c": 5.0},
        "fig1h": {"a": 1.0, "b": 1.0 / 5.0, "c": 1.0 / 10.0},
    }
    for name in ("fig1b", "fig1c"):
        defs[name] = FigureDef(
            name,
            "surface",
            _surface_doc("fresnel-helix", {"synthesis": dict(_EX1_SYNTH)}, controls[name]),
            _surface_doc(
                "fresnel-helix", {"product": dict(_EX1_PRINTED_PRODUCT)}, controls[name]
            ),
        )
    sigma_s_synth = dict(_EX1_SYNTH)
    sigma_s_synth["sigma"] = "s"
    defs["fig1d"] = FigureDef(
        "fig1d",
        "surface",
        _surface_doc(
            "fresnel-helix",
            {"synthesis": sigma_s_synth},
            {"a": 1.0 / 3.0, "b": 1.0 / 5.0, "c": 1.0},
        ),
        _surface_doc(
            "fresnel-helix",
            {
                "product": {
                    "l": "1",
                    "m": "1",
                    "n": "-1",
                    "X": "v",
                    "Y": "sqrt(s^2 - 1/64)*v",
                    "Z": "1/8*v",
                }
            },
            {"a": 1.0 / 3.0, "b": 1.0 / 5.0, "c": 1.0},
        ),
    )
    for name in ("fig1f", "fig1g", "fig1h"):
        defs[name] = FigureDef(
            name,
            "surface",
            _surface_doc(
                "anti-salkowski", {"synthesis": dict(_EX2_SYNTH)}, controls.get(name)
            ),
            _surface_doc(
                "anti-salkowski",
                {"product": dict(_EX2_PRINTED_PRODUCT)},
                controls.get(name),
            ),
        )
    return defs


FIGURES = _figures()

CURVE_FIGURES = {"fig1a": "fresnel-helix", "fig1e": "anti-salkowski"}

CURVE_RANGE = (-_TWO_PI, _TWO_PI)
