"""Admissible curves r(s) = (s, f(s), g(s)) and their moving frame.

The tangent always has absolute component 1, the principal normal and the
binormal are isotropic, and s is the Galilean arc length.  Curvature and
torsion come from exact jets of f and g:

    kappa = sqrt(f''^2 + g''^2)
    tau   = (f'' g''' - f''' g'') / kappa^2

``BUILTIN_CURVES`` names three curves.  "fresnel-helix" has the tangent
(1, 4 sin(s^2/8), -4 cos(s^2/8)); integrating it gives Fresnel integrals
with argument s / (2 sqrt(pi)), and then kappa = |s| and tau = s/4.  Its
variant as printed, "fresnel-helix-printed", uses the argument s / sqrt(2 pi),
which changes kappa and tau; it is kept for comparison because the corrected
argument is the one consistent with the stated tangent.  "anti-salkowski"
has kappa = cosh(s/4) and tau = 1: constant torsion, varying curvature.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import cached_property
from itertools import groupby

from .errors import CurvatureVanishes, EmptyDomain, G3PencilError, TorsionVanishes
from .exprjet import Expr, compile_jets, compile_or_defer, compile_values, parse
from .g3core import Record, cross_parts

KAPPA_MIN = 1e-8

# Guard width used when sampling near curvature zeros; chosen so the first
# built-in curve keeps |s| >= 0.1, where its curvature equals 0.1.
DEFAULT_FRAME_GUARD = 0.1


class CurveSpec(Record):
    """A curve (s, f(s), g(s)) with optional closed forms for kappa and tau.

    The closed forms are only consulted when marching-scale functions are
    synthesized as expression trees; frames never use them.  Frames and
    points run through two kernels compiled once per curve, on first use:
    the frame kernel returns the first three derivatives of f and g and
    never computes their values, which the point kernel gives.  A frame
    therefore costs no Fresnel integral on the built-in helix, and a frame
    fails only where a derivative does.  A kernel whose constant part fails
    is kept failing at every call, so the guard probes compile it once too.
    """

    _fields = ("name", "f", "g", "kappa_form", "tau_form")

    def __init__(
        self,
        name: str,
        f: Expr,
        g: Expr,
        kappa_form: Expr | None = None,
        tau_form: Expr | None = None,
    ):
        self.name = name
        self.f = f
        self.g = g
        self.kappa_form = kappa_form
        self.tau_form = tau_form

    @cached_property
    def _frame_jets(self):
        """(s, v) -> c1, c2, c3 of the jets of f and g in s."""
        return compile_or_defer(compile_jets, (self.f, self.g), "s", (1, 2, 3))

    @cached_property
    def _point_values(self):
        """(s, v) -> values of f and g."""
        return compile_or_defer(compile_values, (self.f, self.g))

    @cached_property
    def _guard_verdicts(self) -> dict:
        """(s_min, s_max) -> the curvature verdicts (s, passes) of usable_s_intervals."""
        return {}


def fresnel_helix() -> CurveSpec:
    """General helix built from Fresnel integrals; kappa = |s|, tau = s/4."""
    return CurveSpec(
        name="fresnel-helix",
        f=parse("8*sqrt(pi)*fresnelS(s/(2*sqrt(pi)))"),
        g=parse("-8*sqrt(pi)*fresnelC(s/(2*sqrt(pi)))"),
        kappa_form=parse("abs(s)"),
        tau_form=parse("s/4"),
    )


def fresnel_helix_printed() -> CurveSpec:
    """The helix with the printed argument s/sqrt(2 pi); kappa = 2 sqrt(2) |s|, tau = s/2."""
    return CurveSpec(
        name="fresnel-helix-printed",
        f=parse("8*sqrt(pi)*fresnelS(s/sqrt(2*pi))"),
        g=parse("-8*sqrt(pi)*fresnelC(s/sqrt(2*pi))"),
        kappa_form=parse("2*sqrt(2)*abs(s)"),
        tau_form=parse("s/2"),
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


BUILTIN_CURVES = {
    "fresnel-helix": fresnel_helix,
    "fresnel-helix-printed": fresnel_helix_printed,
    "anti-salkowski": anti_salkowski,
}


def point_parts(curve: CurveSpec, s: float) -> tuple[float, float, float]:
    """The curve point r(s) = (s, f(s), g(s)) as an (x, y, z) tuple."""
    return (s, *curve._point_values(s, 0.0))


def curvature_torsion(curve: CurveSpec, s: float) -> tuple[float, float, tuple[float, ...]]:
    """kappa, tau and the jets (f', f'', f''', g', g'', g''') at s, without a frame.

    The one definition of both, for :func:`frame_parts` and the callers that
    read only them.  Raises CurvatureVanishes when kappa is NaN or below
    ``KAPPA_MIN``, and TorsionVanishes when |tau| is NaN, below it or infinite.
    """
    jets = curve._frame_jets(s, 0.0)
    _, f2, f3, _, g2, g3 = jets
    kappa = math.hypot(f2, g2)
    if not kappa >= KAPPA_MIN:
        raise CurvatureVanishes(s, kappa)
    tau = (f2 * g3 - f3 * g2) / (kappa * kappa)
    if not KAPPA_MIN <= abs(tau) < math.inf:
        raise TorsionVanishes(s, tau)
    return kappa, tau, jets


def frame_parts(curve: CurveSpec, s: float) -> tuple:
    """The Frenet frame at s, (kappa, tau, t, n, b) with t, n and b as (x, y, z) tuples.

    t has absolute component 1, n and b are isotropic, and no base point is
    computed; it is built on :func:`curvature_torsion` and fails as it does.
    """
    kappa, tau, (f1, f2, _, g1, g2, _) = curvature_torsion(curve, s)
    return kappa, tau, (1.0, f1, g1), (0.0, f2 / kappa, g2 / kappa), (0.0, -g2 / kappa, f2 / kappa)


def darboux_parts(frame: tuple) -> tuple:
    """The Darboux data of a :func:`frame_parts` frame, as (x, y, z) tuples.

    w = tau t + kappa b is the frame's rotation vector, e0 = w / |tau| its
    unit form, and the axis e0 x t equals (kappa / |tau|) n.
    """
    kappa, tau, t, _, b = frame
    abs_tau = abs(tau)
    w = (t[0] * tau + b[0] * kappa, t[1] * tau + b[1] * kappa, t[2] * tau + b[2] * kappa)
    e0 = (w[0] / abs_tau, w[1] / abs_tau, w[2] / abs_tau)
    return w, e0, cross_parts(e0, t)


class CurveClass(Record):
    __slots__ = _fields = ("kind", "constant")

    def __init__(self, kind: str, constant: float | None):
        self.kind = kind  # "general-helix" | "salkowski" | "anti-salkowski" | "generic"
        self.constant = constant


_CONST_RTOL = 1e-6
_CLASSIFY_SAMPLES = 64


def _is_constant(values: list[float]) -> tuple[bool, float]:
    mean = math.fsum(values) / len(values)
    spread = max(values) - min(values)
    return spread <= _CONST_RTOL * max(abs(mean), 1e-300), mean


def classify_curve(curve: CurveSpec, s_range: tuple[float, float]) -> CurveClass:
    """Detect constant |tau|/kappa, constant kappa, or constant tau on 64 samples.

    The samples spread over the usable s intervals of ``s_range``, which
    every other command samples too, so the guard bands around curvature
    zeros are left out; with none left, EmptyDomain is raised.  Precedence
    on overlaps: a curve with constant ratio reports as a general helix
    even when kappa or tau is constant too, then constant kappa wins over
    constant tau.
    """
    kappas = []
    taus = []
    for s in spread_s_values(usable_s_intervals(curve, *s_range), _CLASSIFY_SAMPLES):
        kappa, tau, _ = curvature_torsion(curve, s)
        kappas.append(kappa)
        taus.append(tau)
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
    curve: CurveSpec, s_min: float, s_max: float, probe: Callable[[float], bool] | None = None
) -> list[tuple[float, float]]:
    """Sub-intervals of [s_min, s_max] where the frame is well conditioned.

    The one guard scan: 256 uniform probes, each passing where
    kappa >= ``DEFAULT_FRAME_GUARD`` (no frame is built), scanned once per
    range and kept on the curve.  ``probe(s)``, given, must hold too; it is
    called only where the curvature guard passes.  Runs of passing probes
    become the intervals, or [s_min, s_max] itself if every probe passes.
    Raises EmptyDomain when no interval is left.
    """
    key = (s_min, s_max)
    verdicts = curve._guard_verdicts.get(key)
    if verdicts is None:
        grid = uniform_grid(s_min, s_max, 256)
        verdicts = curve._guard_verdicts[key] = [(s, _passes_guard(curve, s)) for s in grid]
    if probe is not None:
        verdicts = [(s, ok and probe(s)) for s, ok in verdicts]
    if all(ok for _, ok in verdicts):
        return [(s_min, s_max)]
    runs = [[s for s, _ in run] for ok, run in groupby(verdicts, key=lambda p: p[1]) if ok]
    intervals = [(run[0], run[-1]) for run in runs if run[-1] > run[0]]
    if not intervals:
        raise EmptyDomain(s_min, s_max)
    return intervals


def _passes_guard(curve: CurveSpec, s: float) -> bool:
    try:
        # relative slack so a boundary chosen at exactly the guard value
        # survives rounding in the curvature computation
        return curvature_torsion(curve, s)[0] >= DEFAULT_FRAME_GUARD * (1.0 - 1e-9)
    except G3PencilError:
        return False  # no frame, or the expressions fail here


def spread_s_values(
    intervals: list[tuple[float, float]], n: int, *, inset: float = 0.0
) -> list[float]:
    """n parameter values over disjoint intervals, shrunk at both ends by ``inset``.

    Each interval gets a share of the points in proportion to its length,
    at least two, placed uniformly inside it with both endpoints included.
    With fewer than two points per interval, the first intervals take two
    each, an odd point left over takes the midpoint of the next, and the
    rest get none: the result always holds exactly n ascending values.
    """
    intervals = [(a + inset, b - inset) for a, b in intervals if a + inset < b - inset]
    total = sum(b - a for a, b in intervals)
    values: list[float] = []
    remaining = n
    for idx, (a, b) in enumerate(intervals):
        if idx == len(intervals) - 1:
            count = remaining
        else:
            count = max(2, round(n * (b - a) / total))
            # keep two for each later interval, while this one can have two
            count = min(count, max(remaining - 2 * (len(intervals) - idx - 1), min(remaining, 2)))
        remaining -= count
        if count == 1:
            values.append(0.5 * (a + b))
        else:
            values += uniform_grid(a, b, count)
    return values


def uniform_grid(a: float, b: float, n: int) -> list[float]:
    """n values from a to b, both included, as a + (b - a) * i / (n - 1).

    The last value is b itself, where the formula may round past it.
    """
    values = [a + (b - a) * i / (n - 1) for i in range(n)]
    if values:
        values[-1] = b
    return values
