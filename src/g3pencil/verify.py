"""Independent numerical checks of the pencil construction.

The invariant report recomputes surface normals and tests constancy of
lam_hat(s) = <eta1, e0 x t> along the base line.  Two modes exist:

* ``analytic``: normals come from exact expression jets.
* ``fd``: normals come from one central difference of surface positions
  only (step eps^(1/3) of the domain extent), so this path never touches
  the marching-scale jets and serves as an independent oracle.

Also here: the isoparametric reproduction check, Frenet equation residuals
under finite differences, and the analytic-versus-difference normal
consistency sweep.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from typing import NamedTuple

from .curve import CurveSpec, FrenetFrame, darboux, frenet, point, spread_s_values, uniform_grid
from .exprjet import KinkWarning
from .g3core import (
    G3Vector,
    Record,
    cross,
    dot,
    isotropic_norm,
    isotropic_wedge,
    normalize_isotropic,
)
from .pencil import MarchingScale, ParamDomain, surface_normal, surface_point, usable_domain

DEGENERATE_NORM = 1e-12
MIN_REPORT_SAMPLES = 8
ANALYTIC_TOL = 1e-9
FD_TOL = 1e-5
# eps^(1/3) balances truncation against rounding in a central difference
# (Press et al., Numerical Recipes 3rd ed., sec. 5.7)
FD_REL_STEP = sys.float_info.epsilon ** (1 / 3)


class InvariantSample(Record):
    __slots__ = _fields = ("s", "lambda_hat", "flagged")

    def __init__(self, s: float, lambda_hat: float, flagged: bool):
        self.s = s
        self.lambda_hat = lambda_hat
        self.flagged = flagged


class DTypeReport(Record):
    """Sampled invariant along the base line with constancy statistics."""

    __slots__ = _fields = (
        "samples",
        "mean_lambda",
        "max_abs_deviation",
        "classification",
        "mode",
        "tolerance",
        "v0",
    )

    def __init__(
        self,
        samples: tuple[InvariantSample, ...],
        mean_lambda: float,
        max_abs_deviation: float,
        classification: str,
        mode: str,
        tolerance: float,
        v0: float,
    ):
        self.samples = samples
        self.mean_lambda = mean_lambda
        self.max_abs_deviation = max_abs_deviation
        self.classification = classification  # asymptotic | geodesic | general-d-type | not-d-type
        self.mode = mode  # analytic | fd
        self.tolerance = tolerance
        self.v0 = v0

    @property
    def holds(self) -> bool:
        return self.classification != "not-d-type"

    def to_json(self) -> str:
        doc = {
            "mode": self.mode,
            "v0": self.v0,
            "tolerance": self.tolerance,
            "mean_lambda": _finite_or_none(self.mean_lambda),
            "max_abs_deviation": _finite_or_none(self.max_abs_deviation),
            "classification": self.classification,
            "samples": [
                {"s": p.s, "lambda_hat": _finite_or_none(p.lambda_hat), "flagged": p.flagged}
                for p in self.samples
            ],
        }
        return json.dumps(doc, indent=2, allow_nan=False)


def _finite_or_none(x: float) -> float | None:  # RFC 8259 JSON has no NaN or inf
    return x if math.isfinite(x) else None


def _fd_steps(domain: ParamDomain) -> tuple[float, float]:
    """Steps (h_s, h_v) of the fd normal: FD_REL_STEP times each extent."""
    return FD_REL_STEP * (domain.s_max - domain.s_min), FD_REL_STEP * (domain.v_max - domain.v_min)


def _fd_normal(
    curve: CurveSpec,
    ms: MarchingScale,
    s: float,
    v: float,
    h_s: float,
    h_v: float,
    frame: FrenetFrame,
) -> G3Vector:
    """Central difference normal at (s, v); ``frame`` is the frame at s."""
    ps = surface_point(curve, ms, s + h_s, v) - surface_point(curve, ms, s - h_s, v)
    pv = surface_point(curve, ms, s, v + h_v, frame=frame) - surface_point(
        curve, ms, s, v - h_v, frame=frame
    )
    return cross(ps * (0.5 / h_s), pv * (0.5 / h_v))


def _classify_report(mean: float, deviation: float, sines: list[float], tol: float) -> str:
    if not deviation <= tol:  # a NaN deviation does not pass
        return "not-d-type"
    if abs(mean) <= max(tol, 1e-12):
        return "asymptotic"
    if sines and max(abs(x) for x in sines) <= 1e-9:
        return "geodesic"
    return "general-d-type"


def dtype_report(
    curve: CurveSpec,
    ms: MarchingScale,
    domain: ParamDomain,
    n_samples: int = 200,
    mode: str = "analytic",
    tol: float | None = None,
) -> DTypeReport:
    """Sample lam_hat(s) on the base line and test it for constancy.

    In ``fd`` mode the normal is built purely from central differences of
    surface positions (step = eps^(1/3) of the domain extent per direction),
    so agreement with analytic mode is a genuine cross-check.  Degenerate
    normals are flagged per sample and excluded from the statistics.
    """
    if n_samples < MIN_REPORT_SAMPLES:
        raise ValueError(f"dtype_report needs at least {MIN_REPORT_SAMPLES} samples")
    if mode not in ("analytic", "fd"):
        raise ValueError("mode must be 'analytic' or 'fd'")
    if tol is None:
        tol = ANALYTIC_TOL if mode == "analytic" else FD_TOL
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be a positive finite number")
    h_s, h_v = _fd_steps(domain)
    inset = h_s if mode == "fd" else 0.0
    svals = spread_s_values(usable_domain(curve, ms, domain), n_samples, inset=inset)
    v0 = domain.v0
    samples: list[InvariantSample] = []
    sines: list[float] = []
    for s in svals:
        fr = frenet(curve, s)
        axis = darboux(fr).d_axis
        if mode == "analytic":
            eta = surface_normal(curve, ms, s, v0, frame=fr)
        else:
            eta = _fd_normal(curve, ms, s, v0, h_s, h_v, fr)
        if not isotropic_norm(eta) >= DEGENERATE_NORM:  # tiny or NaN
            samples.append(InvariantSample(s, math.nan, True))
            continue
        eta1 = normalize_isotropic(eta)
        lam_hat = dot(eta1, axis)
        sines.append(dot(eta1, fr.b))
        samples.append(InvariantSample(s, lam_hat, False))
    valid = [p.lambda_hat for p in samples if not p.flagged]
    mean = math.fsum(valid) / len(valid) if valid else math.nan
    deviation = max((abs(x - mean) for x in valid), default=math.inf)
    classification = _classify_report(mean, deviation, sines, tol)
    return DTypeReport(
        samples=tuple(samples),
        mean_lambda=mean,
        max_abs_deviation=deviation,
        classification=classification,
        mode=mode,
        tolerance=tol,
        v0=v0,
    )


def check_isoparametric(
    curve: CurveSpec, ms: MarchingScale, domain: ParamDomain, n_samples: int = 200
) -> float:
    """Max componentwise gap between phi(s, v0) and r(s) over the base line."""
    svals = spread_s_values(usable_domain(curve, ms, domain), n_samples)
    worst = 0.0
    for s in svals:
        p = surface_point(curve, ms, s, domain.v0)
        r = point(curve, s)
        worst = max(worst, abs(p.x - r.x), abs(p.y - r.y), abs(p.z - r.z))
    return worst


class FrenetResiduals(NamedTuple):
    r_t: float
    r_n: float
    r_b: float


def frenet_residuals(
    curve: CurveSpec,
    s_range: tuple[float, float],
    n_samples: int = 100,
    h: float = 1e-5,
) -> FrenetResiduals:
    """Max residuals of the frame equations under central differences.

    Compares (t(s+h) - t(s-h)) / 2h against kappa n, and likewise n'
    against tau b and b' against -tau n.  Residuals shrink quadratically
    in h while truncation dominates rounding.
    """
    domain = ParamDomain(s_range[0], s_range[1], 0.0, 0.0, 0.0)  # v plays no part
    svals = spread_s_values(usable_domain(curve, None, domain), n_samples, inset=h)
    r_t = r_n = r_b = 0.0
    for s in svals:
        fr = frenet(curve, s)
        plus = frenet(curve, s + h)
        minus = frenet(curve, s - h)
        scale = 0.5 / h
        dt = (plus.t - minus.t) * scale
        dn = (plus.n - minus.n) * scale
        db = (plus.b - minus.b) * scale
        r_t = max(r_t, isotropic_norm(G3Vector(0.0, dt.y, dt.z) - fr.kappa * fr.n))
        r_n = max(r_n, isotropic_norm(dn - fr.tau * fr.b))
        r_b = max(r_b, isotropic_norm(db + fr.tau * fr.n))
    return FrenetResiduals(r_t, r_n, r_b)


def normal_consistency(
    curve: CurveSpec,
    ms: MarchingScale,
    domain: ParamDomain,
    n_samples: int = 40,
    nv: int = 9,
) -> float:
    """Max angle between analytic and finite difference normals on a grid.

    Samples ``n_samples`` values of s by ``nv`` values of v.  Samples where
    either normal is degenerate, or where the analytic jets cross an abs()
    kink (a KinkWarning fires), are flagged and skipped.
    """
    h_s, h_v = _fd_steps(domain)
    svals = spread_s_values(usable_domain(curve, ms, domain), n_samples, inset=h_s)
    v_values = uniform_grid(domain.v_min, domain.v_max, nv)
    worst = 0.0
    for s in svals:
        fr = frenet(curve, s)
        for v in v_values:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", KinkWarning)
                eta_a = surface_normal(curve, ms, s, v, frame=fr)
                kinked = any(issubclass(w.category, KinkWarning) for w in caught)
            if kinked:
                warnings.warn(
                    f"kink sample flagged at (s, v) = ({s:g}, {v:g})", KinkWarning
                )
                continue
            eta_f = _fd_normal(curve, ms, s, v, h_s, h_v, fr)
            if not (
                isotropic_norm(eta_a) >= DEGENERATE_NORM
                and isotropic_norm(eta_f) >= DEGENERATE_NORM
            ):
                continue  # tiny or NaN
            ua = normalize_isotropic(eta_a)
            uf = normalize_isotropic(eta_f)
            angle = math.atan2(abs(isotropic_wedge(ua, uf)), dot(ua, uf))
            worst = max(worst, angle)
    return worst
