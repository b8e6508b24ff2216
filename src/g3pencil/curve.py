"""Admissible curves r(s) = (s, f(s), g(s)) and their moving frame.

The tangent always has absolute component 1, the principal normal and the
binormal are isotropic, and s is the Galilean arc length.  Curvature and
torsion come from exact jets of f and g:

    kappa = sqrt(f''^2 + g''^2)
    tau   = (f'' g''' - f''' g'') / kappa^2

Two curves ship built in.  The first is a general helix whose tangent is
(1, 4 sin(s^2/8), -4 cos(s^2/8)); integrating it gives Fresnel integrals
with argument s / (2 sqrt(pi)), and then kappa = |s| and tau = s/4.  A
historical variant of this curve ("as printed") uses the integral argument
s / sqrt(2 pi) instead, which changes kappa and tau; it is kept for
comparison because the corrected argument is the one consistent with the
stated tangent.  The second built-in has kappa = cosh(s/4) and tau = 1,
so its torsion is constant while its curvature is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import CurvatureVanishes, G3PencilError, TorsionVanishes
from .exprjet import Expr, compile_jets, compile_values, parse
from .g3core import G3Vector, cross

KAPPA_MIN = 1e-8

# Guard width used when sampling near curvature zeros; chosen so the first
# built-in curve keeps |s| >= 0.1, where its curvature equals 0.1.
DEFAULT_FRAME_GUARD = 0.1


@dataclass(frozen=True)
class CurveSpec:
    """A curve (s, f(s), g(s)) with optional closed forms for kappa and tau.

    The closed forms are only consulted when marching-scale functions are
    synthesized as expression trees; frames never use them.  Frames and
    points run through kernels compiled once per curve, on first use.
    """

    name: str
    f: Expr
    g: Expr
    kappa_form: Expr | None = None
    tau_form: Expr | None = None

    @cached_property
    def _frame_jets(self):
        """(s, v) -> jets of f and g in s, c0 to c3 of each."""
        return compile_jets((self.f, self.g), "s")

    @cached_property
    def _point_values(self):
        """(s, v) -> values of f and g."""
        return compile_values((self.f, self.g))


@dataclass(frozen=True)
class FrenetFrame:
    s: float
    t: G3Vector
    n: G3Vector
    b: G3Vector
    kappa: float
    tau: float


@dataclass(frozen=True)
class DarbouxData:
    w: G3Vector       # tau * t + kappa * b, the frame's rotation vector
    e0: G3Vector      # w / |tau|
    d_axis: G3Vector  # e0 x t, equal to (kappa / |tau|) * n


def fresnel_helix(as_printed: bool = False) -> CurveSpec:
    """General helix built from Fresnel integrals; kappa = |s|, tau = s/4.

    With ``as_printed`` the integral argument is s/sqrt(2 pi), reproducing
    the uncorrected classical formula (kappa and tau then change).
    """
    if as_printed:
        return CurveSpec(
            name="fresnel-helix-printed",
            f=parse("8*sqrt(pi)*fresnelS(s/sqrt(2*pi))"),
            g=parse("-8*sqrt(pi)*fresnelC(s/sqrt(2*pi))"),
            kappa_form=parse("2*sqrt(2)*abs(s)"),
            tau_form=parse("s/2"),
        )
    return CurveSpec(
        name="fresnel-helix",
        f=parse("8*sqrt(pi)*fresnelS(s/(2*sqrt(pi)))"),
        g=parse("-8*sqrt(pi)*fresnelC(s/(2*sqrt(pi)))"),
        kappa_form=parse("abs(s)"),
        tau_form=parse("s/4"),
    )


def anti_salkowski() -> CurveSpec:
    """Built-in curve with constant torsion 1 and curvature cosh(s/4)."""
    return CurveSpec(
        name="anti-salkowski",
        f=parse("16/289*(8*sin(s)*sinh(s/4) - 15*cos(s)*cosh(s/4))"),
        g=parse("-16/289*(8*cos(s)*sinh(s/4) + 15*sin(s)*cosh(s/4))"),
        kappa_form=parse("cosh(s/4)"),
        tau_form=parse("1"),
    )


def explicit_curve(
    f_text: str,
    g_text: str,
    kappa_text: str | None = None,
    tau_text: str | None = None,
    name: str = "explicit",
) -> CurveSpec:
    """Curve from user expressions in s; closed forms are optional."""
    return CurveSpec(
        name=name,
        f=parse(f_text),
        g=parse(g_text),
        kappa_form=parse(kappa_text) if kappa_text else None,
        tau_form=parse(tau_text) if tau_text else None,
    )


BUILTIN_CURVES = {
    "fresnel-helix": fresnel_helix,
    "anti-salkowski": anti_salkowski,
}


def point(curve: CurveSpec, s: float) -> G3Vector:
    """Position (s, f(s), g(s))."""
    f, g = curve._point_values(s, 0.0)
    return G3Vector(s, f, g)


def frenet(curve: CurveSpec, s: float) -> FrenetFrame:
    """Moving frame, curvature and torsion at s.

    Raises CurvatureVanishes or TorsionVanishes when the respective
    quantity is NaN or falls below ``KAPPA_MIN``; the frame is undefined
    there.
    """
    _, f1, f2, f3, _, g1, g2, g3 = curve._frame_jets(s, 0.0)
    kappa = math.hypot(f2, g2)
    if not kappa >= KAPPA_MIN:
        raise CurvatureVanishes(s, kappa)
    tau = (f2 * g3 - f3 * g2) / (kappa * kappa)
    if not abs(tau) >= KAPPA_MIN:
        raise TorsionVanishes(s, tau)
    t = G3Vector(1.0, f1, g1)
    n = G3Vector(0.0, f2 / kappa, g2 / kappa)
    b = G3Vector(0.0, -g2 / kappa, f2 / kappa)
    return FrenetFrame(s=s, t=t, n=n, b=b, kappa=kappa, tau=tau)


def darboux(frame: FrenetFrame) -> DarbouxData:
    """Darboux rotation vector, its unit form and the axis e0 x t."""
    abs_tau = abs(frame.tau)
    w = frame.tau * frame.t + frame.kappa * frame.b
    e0 = G3Vector(w.x / abs_tau, w.y / abs_tau, w.z / abs_tau)
    return DarbouxData(w=w, e0=e0, d_axis=cross(e0, frame.t))


@dataclass(frozen=True)
class CurveClass:
    kind: str  # "general-helix" | "salkowski" | "anti-salkowski" | "generic"
    constant: float | None


_CONST_RTOL = 1e-6


def _is_constant(values: list[float]) -> tuple[bool, float]:
    mean = math.fsum(values) / len(values)
    spread = max(values) - min(values)
    return spread <= _CONST_RTOL * max(abs(mean), 1e-300), mean


def classify_curve(
    curve: CurveSpec, s_range: tuple[float, float], samples: int = 64
) -> CurveClass:
    """Detect constant |tau|/kappa, constant kappa, or constant tau.

    Precedence on overlaps: a curve with constant ratio reports as a
    general helix even when kappa or tau is constant too, then constant
    kappa wins over constant tau.
    """
    if samples < 16:
        raise ValueError("classification needs at least 16 samples")
    kappas = []
    taus = []
    for s in uniform_grid(s_range[0], s_range[1], samples):
        fr = frenet(curve, s)
        kappas.append(fr.kappa)
        taus.append(fr.tau)
    ratios = [abs(t) / k for t, k in zip(taus, kappas)]
    ratio_const, mu = _is_constant(ratios)
    if ratio_const:
        return CurveClass("general-helix", mu)
    kappa_const, nu = _is_constant(kappas)
    if kappa_const:
        return CurveClass("salkowski", nu)
    tau_const, xi = _is_constant(taus)
    if tau_const:
        return CurveClass("anti-salkowski", xi)
    return CurveClass("generic", None)


def usable_s_intervals(
    curve: CurveSpec, s_min: float, s_max: float, *, extra_check=None
) -> list[tuple[float, float]]:
    """Sub-intervals of [s_min, s_max] where the frame is well conditioned.

    Probes 256 uniformly spaced points; a probe fails when the frame does
    not exist, the curvature sits below ``DEFAULT_FRAME_GUARD`` (guard
    band around curvature zeros), or ``extra_check(s)`` raises.
    Contiguous runs of good probes become intervals.  When every probe
    passes the exact input interval is returned, so explicitly chosen safe
    ranges are preserved.
    """
    ss = uniform_grid(s_min, s_max, 256)
    flags = []
    for s in ss:
        ok = True
        try:
            fr = frenet(curve, s)
            # relative slack so a boundary chosen at exactly the guard value
            # survives rounding in the curvature computation
            if fr.kappa < DEFAULT_FRAME_GUARD * (1.0 - 1e-9):
                ok = False
            elif extra_check is not None:
                extra_check(s)
        except G3PencilError:
            # no frame, or the expressions fail here
            ok = False
        flags.append(ok)
    if all(flags):
        return [(s_min, s_max)]
    intervals = []
    start = None
    for s, ok in zip(ss, flags):
        if ok and start is None:
            start = s
        elif not ok and start is not None:
            intervals.append((start, prev))
            start = None
        prev = s
    if start is not None:
        intervals.append((start, ss[-1]))
    return [iv for iv in intervals if iv[1] > iv[0]]


def sample_s_values(
    curve: CurveSpec, s_min: float, s_max: float, n: int, *, inset: float = 0.0
) -> list[float]:
    """n parameter values spread over the usable sub-intervals.

    Points are allocated as :func:`spread_s_values` does.  ``inset``
    shrinks every interval at both ends, which keeps finite difference
    stencils inside the usable region.
    """
    intervals = usable_s_intervals(curve, s_min, s_max)
    intervals = [(a + inset, b - inset) for a, b in intervals if b - a > 2.0 * inset]
    if not intervals:
        raise CurvatureVanishes(s_min, 0.0)
    return spread_s_values(intervals, n)


def spread_s_values(intervals: list[tuple[float, float]], n: int) -> list[float]:
    """n parameter values over disjoint intervals, in order.

    Each interval gets a share of the points in proportion to its length,
    at least two while enough remain, placed uniformly inside it with both
    endpoints included; an interval left with one point gets its midpoint.
    """
    total = sum(b - a for a, b in intervals)
    values: list[float] = []
    remaining = n
    for idx, (a, b) in enumerate(intervals):
        if idx == len(intervals) - 1:
            count = remaining
        else:
            count = max(2, round(n * (b - a) / total))
            count = min(count, remaining - 2 * (len(intervals) - idx - 1))
        remaining -= count
        if count == 1:
            values.append(0.5 * (a + b))
        else:
            values += uniform_grid(a, b, count)
    return values


def uniform_grid(a: float, b: float, n: int) -> list[float]:
    """n values from a to b, both included, as a + (b - a) * i / (n - 1)."""
    return [a + (b - a) * i / (n - 1) for i in range(n)]
