"""JSON configuration schema for pencil definitions.

A document looks like::

    {
      "curve": "fresnel-helix",  // a name of BUILTIN_CURVES, or {"f": "...", "g": "..."}
      "marching_scale": {
        "synthesis": {"lambda": 0.5, "sigma": "1", "sign": "+", "rule": "scaled",
                       "l": "1", "m": "1", "n": "-1"}
        // or {"direct": {"alpha": ..., "beta": ..., "gamma": ...}}
        // or {"product": {"l", "m", "n", "X", "Y", "Z"}}
      },
      "control": {"a": 1, "b": 1, "c": 1},     // optional, not beside direct
      "domain": {"s_min": 0.1, "s_max": 6.28, "v_min": 0, "v_max": 5, "v0": 0},
      "grid": {"ns": 200, "nv": 50},
      "verify": {"mode": "analytic", "tol": 1e-9, "samples": 200}   // optional
    }

Exactly one marching-scale block must be present.  A direct block's alpha,
beta and gamma, and a product block's X, Y and Z, must vanish at v = v0
(see :func:`_check_base_line`).  All expression strings use the grammar
documented in :mod:`g3pencil.exprjet` and are parsed eagerly so errors
surface at load time.  Explicit curves may carry optional "kappa" and "tau"
closed forms, which synthesis requires.  A synthesis block's "sign" picks
the branch of phi3, and its "rule" the construction rule of
:mod:`g3pencil.pencil`, on any curve: the corrected helix under the plain
rule and "fresnel-helix-printed" under the scaled one are documents too.
Every number must be finite (json's NaN and Infinity literals are
rejected), and so must the s and v extents; v_min must be below v_max, and
a configured "tol" must be above 0.

A document parses into the pencil's own records: the curve stays a builtin
name or becomes the explicit :class:`CurveSpec`, a direct or product block
becomes its :class:`MarchingScale`, the product one with its control
coefficients applied, and a synthesis block becomes the
:class:`SynthesisSpec`, control included, that :func:`realize` synthesizes.
"""

from __future__ import annotations

import json
import math

from .curve import BUILTIN_CURVES, CurveSpec
from .errors import DomainError, SchemaError
from .exprjet import Expr, compile_or_defer, compile_values, parse
from .g3core import Record
from .pencil import (
    RULES,
    SIGNS,
    MarchingScale,
    ParamDomain,
    PencilSpec,
    SynthesisSpec,
    product_marching_scale,
    synthesize_product_form,
)
from .verify import MIN_REPORT_SAMPLES, MODES


class VerifySpec(Record):
    __slots__ = _fields = ("mode", "tol", "samples")

    def __init__(self, mode: str = "analytic", tol: float | None = None, samples: int = 200):
        self.mode = mode
        self.tol = tol
        self.samples = samples


class PencilConfig(Record):
    __slots__ = _fields = ("curve", "marching", "domain", "grid", "verify")

    def __init__(
        self,
        curve: str | CurveSpec,
        marching: MarchingScale | SynthesisSpec,
        domain: ParamDomain,
        grid: tuple[int, int],
        verify: VerifySpec,
    ):
        self.curve = curve  # a builtin name or the explicit curve
        self.marching = marching  # a direct or product scale, or the input to synthesis
        self.domain = domain
        self.grid = grid  # (ns, nv)
        self.verify = verify


def _need(doc: dict, key: str, path: str):
    if key not in doc:
        raise SchemaError(f"{path}.{key}", "missing required entry")
    return doc[key]


def _object(doc, path: str) -> dict:
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected an object")
    return doc


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):  # json reads the NaN and Infinity literals
        raise SchemaError(path, f"expected a finite number, got {number}")
    return number


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {type(value).__name__}")
    return value


def _expr(value, path: str) -> Expr:
    if not isinstance(value, str):
        raise SchemaError(path, f"expected an expression string, got {type(value).__name__}")
    return parse(value)


def _curve_config(doc, path: str) -> str | CurveSpec:
    if isinstance(doc, str):
        if doc not in BUILTIN_CURVES:
            raise SchemaError(path, f"unknown builtin curve {doc!r}")
        return doc
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected a builtin name or an {f, g} object")
    f = _expr(_need(doc, "f", path), f"{path}.f")
    g = _expr(_need(doc, "g", path), f"{path}.g")
    kappa = _expr(doc["kappa"], f"{path}.kappa") if "kappa" in doc else None
    tau = _expr(doc["tau"], f"{path}.tau") if "tau" in doc else None
    return CurveSpec(name="explicit", f=f, g=g, kappa_form=kappa, tau_form=tau)


def _marching_config(doc, path: str) -> tuple[str, dict]:
    """The one block's kind and its entries: the expressions of a direct or
    product block by key, or the fields of a :class:`SynthesisSpec`."""
    _object(doc, path)
    blocks = [k for k in ("direct", "product", "synthesis") if k in doc]
    if len(blocks) != 1:
        raise SchemaError(
            path, f"exactly one of direct, product, synthesis required, found {blocks}"
        )
    kind = blocks[0]
    p = f"{path}.{kind}"
    block = _object(doc[kind], p)

    def exprs(*keys: str) -> dict[str, Expr]:
        return {k: _expr(_need(block, k, p), f"{p}.{k}") for k in keys}

    if kind == "direct":
        return kind, exprs(*MarchingScale._fields)
    if kind == "product":
        return kind, exprs("l", "m", "n", "X", "Y", "Z")
    picked = {}
    for key, field, table in (("sign", "sign", SIGNS), ("rule", "scaled", RULES)):
        text = block.get(key, next(iter(table)))  # a table's first text is the default
        if text not in tuple(table):  # a tuple: a JSON list or object has no hash
            raise SchemaError(f"{p}.{key}", "expected " + " or ".join(map(repr, table)))
        picked[field] = table[text]
    lam = _number(_need(block, "lambda", p), f"{p}.lambda")
    return kind, dict(lam=lam, **exprs("sigma", "l", "m", "n"), **picked)


def config_from_dict(doc: dict) -> PencilConfig:
    if not isinstance(doc, dict):
        raise SchemaError("$", "top level must be an object")
    curve = _curve_config(_need(doc, "curve", "$"), "$.curve")
    kind, entries = _marching_config(_need(doc, "marching_scale", "$"), "$.marching_scale")
    if kind == "synthesis" and isinstance(curve, CurveSpec):
        if curve.kappa_form is None or curve.tau_form is None:
            raise SchemaError(
                "$.curve", "synthesis needs closed-form kappa and tau on an explicit curve"
            )
    control = None
    if "control" in doc:
        cdoc = _object(doc["control"], "$.control")
        control = tuple(_number(cdoc.get(k, 1.0), f"$.control.{k}") for k in "abc")
    p = "$.domain"
    ddoc = _object(_need(doc, "domain", "$"), p)
    values = [_number(_need(ddoc, k, p), f"{p}.{k}") for k in ParamDomain._fields]
    try:
        domain = ParamDomain(*values)
    except ValueError as exc:
        raise SchemaError(p, str(exc)) from exc
    p = "$.grid"
    gdoc = _object(_need(doc, "grid", "$"), p)
    grid = tuple(_integer(_need(gdoc, k, p), f"{p}.{k}") for k in ("ns", "nv"))
    if min(grid) < 2:
        raise SchemaError(p, "grid counts must be at least 2")
    vdoc = _object(doc.get("verify", {}), "$.verify")
    mode = vdoc.get("mode", "analytic")
    if mode not in MODES:
        raise SchemaError("$.verify.mode", "expected " + " or ".join(map(repr, MODES)))
    tol = _number(vdoc["tol"], "$.verify.tol") if "tol" in vdoc else None
    if tol is not None and tol <= 0.0:
        raise SchemaError("$.verify.tol", "expected a number above 0")
    samples = _integer(vdoc.get("samples", 200), "$.verify.samples")
    if samples < MIN_REPORT_SAMPLES:
        raise SchemaError(
            "$.verify.samples", f"a report needs at least {MIN_REPORT_SAMPLES} samples"
        )
    verify = VerifySpec(mode=mode, tol=tol, samples=samples)
    if kind == "synthesis":
        try:
            marching = SynthesisSpec(**entries, control=control)
        except ValueError as exc:  # a factor that reads v, named first in the message
            field, _, detail = str(exc).partition(" ")
            raise SchemaError(f"$.marching_scale.synthesis.{field}", detail) from exc
    else:
        direct = kind == "direct"
        labels = MarchingScale._fields if direct else ("X", "Y", "Z")  # unscaled by control
        marching = MarchingScale(*entries.values()) if direct else product_marching_scale(
            *entries.values(), control)
        values_at = marching._values if direct else compile_or_defer(
            compile_values, [entries[k] for k in labels])
        _check_base_line(values_at, labels, domain, f"$.marching_scale.{kind}")
        if direct and control is not None:
            raise SchemaError("$.control", "not allowed beside a direct block")
    return PencilConfig(curve=curve, marching=marching, domain=domain, grid=grid, verify=verify)


def _check_base_line(values_at, labels: tuple[str, ...], d: ParamDomain, path: str) -> None:
    """The entries of one values kernel, named by ``labels``, must vanish at v = v0.

    The kernel runs once at each of five points of the s range, and a point
    where it fails is skipped for every entry (the grid guards handle domain
    gaps later; a failed compile fails at every point); then each entry in
    turn raises at its first point.
    """
    points = []
    for i in range(5):
        s = d.s_min + (d.s_max - d.s_min) * (i + 0.5) / 5.0
        try:
            points.append((s, values_at(s, d.v0)))
        except DomainError:
            pass
    for k, label in enumerate(labels):
        for s, values in points:
            if not abs(values[k]) <= 1e-12:  # NaN fails too
                raise SchemaError(
                    f"{path}.{label}",
                    f"must vanish at v0 = {d.v0:g}, got {values[k]:g} at s = {s:g}",
                )


def load_config(path: str) -> PencilConfig:
    """Read and validate a configuration document.

    A file that cannot be read, is not UTF-8 text or is not JSON, JSON
    nested too deeply included, raises SchemaError at ``path``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise SchemaError(path, "no such file") from None
    except OSError as exc:  # a directory, no permission, ...
        raise SchemaError(path, f"cannot be read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(path, f"not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(path, f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError(path, "not valid JSON: nested too deeply") from None
    return config_from_dict(doc)


def build_curve(curve: str | CurveSpec) -> CurveSpec:
    """The curve a config names: a builtin by name, or the explicit curve itself."""
    return curve if isinstance(curve, CurveSpec) else BUILTIN_CURVES[curve]()


def realize(cfg: PencilConfig) -> PencilSpec:
    """Instantiate the configured pencil member; a synthesis block gives its sign and rule."""
    curve = build_curve(cfg.curve)
    marching = cfg.marching
    if isinstance(marching, SynthesisSpec):
        marching = synthesize_product_form(curve, marching, cfg.domain)
    return PencilSpec(curve=curve, marching=marching, domain=cfg.domain)
