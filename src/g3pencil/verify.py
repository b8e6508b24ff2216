"""Independent numerical checks of the pencil construction.

The invariant report recomputes surface normals and tests constancy of
lam_hat(s) = <eta1, e0 x t> along the base line.  Two modes exist:

* ``analytic``: normals come from exact expression jets.
* ``fd``: normals come from one central difference of surface positions
  only (step eps^(1/3) of the domain extent), so this path never touches
  the marching-scale jets.

Only the normal is independent between the two modes.  Both take t, n,
b, kappa, tau and the Darboux axis from the same float frame code
(:func:`g3pencil.curve.frame_parts`), so a fault there shows in both reports
alike, and agreement of the modes says nothing about the frame.
"""

from __future__ import annotations

import json
import math
import sys

from .curve import CurveSpec, darboux_parts, frame_parts, point_parts, spread_s_values
from .errors import StepUnderflow
from .g3core import Record, cross_parts
from .pencil import MarchingScale, ParamDomain, normal_parts, surface_point_parts, usable_domain

DEGENERATE_NORM = 1e-12
MIN_REPORT_SAMPLES = 8
MODES = ("analytic", "fd")
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
        """The report as the JSON text that ``json.dumps`` writes with an indent
        of 2 and ``allow_nan=False``, from one fixed-shape template: numbers by
        ``repr``, non-finite ones as ``null`` (RFC 8259 JSON has no NaN or
        inf) and strings by ``json.dumps``.  A report has samples.
        """
        samples = ",\n".join(
            f'    {{\n      "s": {_json_number(p.s)},\n'
            f'      "lambda_hat": {_json_number(p.lambda_hat)},\n'
            f'      "flagged": {"true" if p.flagged else "false"}\n    }}'
            for p in self.samples
        )
        return (
            f'{{\n  "mode": {json.dumps(self.mode)},\n'
            f'  "v0": {_json_number(self.v0)},\n'
            f'  "tolerance": {_json_number(self.tolerance)},\n'
            f'  "mean_lambda": {_json_number(self.mean_lambda)},\n'
            f'  "max_abs_deviation": {_json_number(self.max_abs_deviation)},\n'
            f'  "classification": {json.dumps(self.classification)},\n'
            f'  "samples": [\n{samples}\n  ]\n}}'
        )


def _json_number(x: float) -> str:
    return repr(x) if math.isfinite(x) else "null"


def _fd_steps(domain: ParamDomain) -> tuple[float, float]:
    """Steps (h_s, h_v) of the fd normal: FD_REL_STEP times each extent.

    Raises StepUnderflow where an extent is so small that its step is 0.
    """
    extents = {"s": domain.s_max - domain.s_min, "v": domain.v_max - domain.v_min}
    for direction, extent in extents.items():
        if FD_REL_STEP * extent == 0.0:
            raise StepUnderflow(direction, extent)
    return FD_REL_STEP * extents["s"], FD_REL_STEP * extents["v"]


def _fd_normal(
    curve: CurveSpec, ms: MarchingScale, s: float, v: float, h_s: float, h_v: float, frame, base
) -> tuple[float, float, float]:
    """Central difference normal at (s, v), as an (x, y, z) tuple; the points at
    v +- h_v share ``frame`` and ``base``, the :func:`frame_parts` and point at s."""
    p, m = surface_point_parts(curve, ms, s + h_s, v), surface_point_parts(curve, ms, s - h_s, v)
    k = 0.5 / h_s
    phi_s = ((p[0] - m[0]) * k, (p[1] - m[1]) * k, (p[2] - m[2]) * k)
    p = surface_point_parts(curve, ms, s, v + h_v, frame, base)
    m = surface_point_parts(curve, ms, s, v - h_v, frame, base)
    k = 0.5 / h_v
    return cross_parts(phi_s, ((p[0] - m[0]) * k, (p[1] - m[1]) * k, (p[2] - m[2]) * k))


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

    The report holds exactly ``n_samples`` samples, spread over the
    pencil's :func:`usable_domain` by :func:`spread_s_values`, however
    many intervals it has.  In ``fd`` mode the normal is built purely
    from central differences of surface positions (step = eps^(1/3) of
    the domain extent per direction), so agreement with analytic mode
    cross-checks the normal only: the frame and the Darboux axis come from
    the same float frame code on ``curvature_torsion`` in both modes.  A
    sample runs on plain floats, and its ``InvariantSample`` is the one
    record it builds.  Normals that are degenerate or not finite are
    flagged per sample and excluded from the statistics.
    """
    if n_samples < MIN_REPORT_SAMPLES:
        raise ValueError(f"dtype_report needs at least {MIN_REPORT_SAMPLES} samples")
    if mode not in MODES:
        raise ValueError("mode must be 'analytic' or 'fd'")
    if tol is None:
        tol = ANALYTIC_TOL if mode == "analytic" else FD_TOL
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be a positive finite number")
    h_s, h_v = _fd_steps(domain) if mode == "fd" else (0.0, 0.0)
    svals = spread_s_values(usable_domain(curve, ms, domain), n_samples, inset=h_s)
    v0 = domain.v0
    samples: list[InvariantSample] = []
    sines: list[float] = []
    for s in svals:
        frame = frame_parts(curve, s)
        (_, b_y, b_z), (_, axis_y, axis_z) = frame[4], darboux_parts(frame)[2]  # b and e0 x t
        if mode == "analytic":
            _, y, z = normal_parts(ms, s, v0, frame)
        else:
            _, y, z = _fd_normal(curve, ms, s, v0, h_s, h_v, frame, point_parts(curve, s))
        norm = math.hypot(y, z)  # the isotropic norm of eta
        if not DEGENERATE_NORM <= norm < math.inf:  # tiny, infinite or NaN
            samples.append(InvariantSample(s, math.nan, True))
            continue
        y, z = y / norm, z / norm  # eta1
        sines.append(y * b_y + z * b_z)  # <eta1, b>: both are isotropic
        samples.append(InvariantSample(s, y * axis_y + z * axis_z, False))
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
