"""Independent numerical oracles used by the test suite.

Nothing in here may call into the code paths it checks: the quadrature
oracle integrates the Fresnel integrands directly, the finite difference
helpers differentiate black-box callables, and the references for the
compiled frame, point and normal kernels walk the expression trees with
the tree evaluators.  The whole-pencil checks at the end are the
exception: they hold the package's own surface points, frames and
normals against its curve points and against central differences of the
same functions.
"""

from __future__ import annotations

import math
import random
import warnings
from typing import Callable, NamedTuple

from g3pencil.curve import (
    KAPPA_MIN,
    CurveSpec,
    FrenetFrame,
    frenet,
    point,
    spread_s_values,
    uniform_grid,
    usable_s_intervals,
)
from g3pencil.errors import CurvatureVanishes, TorsionVanishes
from g3pencil.exprjet import KinkWarning, Num, eval_expr, eval_jet3
from g3pencil.g3core import G3Vector, cross, dot, isotropic_norm, isotropic_wedge, normalize_isotropic
from g3pencil.pencil import (
    MarchingScale,
    ParamDomain,
    combine_on_frame,
    surface_normal,
    surface_point,
    usable_domain,
)
from g3pencil.verify import DEGENERATE_NORM, _fd_normal, _fd_steps


# ---------------------------------------------------------------------------
# Adaptive Simpson quadrature
# ---------------------------------------------------------------------------


def _simpson(f, a, fa, b, fb, m, fm) -> float:
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, fa, b, fb, m, fm, whole, tol, depth) -> float:
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(f, a, fa, m, fm, lm, flm)
    right = _simpson(f, m, fm, b, fb, rm, frm)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    half = 0.5 * tol
    return _adaptive(f, a, fa, m, fm, lm, flm, left, half, depth - 1) + _adaptive(
        f, m, fm, b, fb, rm, frm, right, half, depth - 1
    )


def adaptive_simpson(f: Callable[[float], float], a: float, b: float, tol: float = 1e-12) -> float:
    """Adaptive Simpson quadrature of f over [a, b] to absolute tolerance."""
    if a == b:
        return 0.0
    m = 0.5 * (a + b)
    fa, fb, fm = f(a), f(b), f(m)
    whole = _simpson(f, a, fa, b, fb, m, fm)
    return _adaptive(f, a, fa, b, fb, m, fm, whole, tol, 60)


def _sine_integrand(t: float) -> float:
    return math.sin(0.5 * math.pi * t * t)


def _cosine_integrand(t: float) -> float:
    return math.cos(0.5 * math.pi * t * t)


def fresnel_s_oracle(x: float, tol: float = 1e-13) -> float:
    """Quadrature value of the Fresnel sine integral (odd extension)."""
    if x < 0.0:
        return -fresnel_s_oracle(-x, tol)
    return adaptive_simpson(_sine_integrand, 0.0, x, tol)


def fresnel_c_oracle(x: float, tol: float = 1e-13) -> float:
    """Quadrature value of the Fresnel cosine integral (odd extension)."""
    if x < 0.0:
        return -fresnel_c_oracle(-x, tol)
    return adaptive_simpson(_cosine_integrand, 0.0, x, tol)


def fresnel_table(points: list[float], tol_per_segment: float = 5e-15) -> dict[float, tuple[float, float]]:
    """Cumulative quadrature of both Fresnel integrals at many points.

    Integrates segment by segment between consecutive sorted magnitudes so
    a dense sweep stays cheap; odd extension covers negative points.
    """
    mags = sorted({abs(p) for p in points})
    table: dict[float, tuple[float, float]] = {}
    prev = 0.0
    acc_s = 0.0
    acc_c = 0.0
    for m in mags:
        acc_s += adaptive_simpson(_sine_integrand, prev, m, tol_per_segment)
        acc_c += adaptive_simpson(_cosine_integrand, prev, m, tol_per_segment)
        table[m] = (acc_s, acc_c)
        prev = m
    out = {}
    for p in points:
        s, c = table[abs(p)]
        out[p] = (s, c) if p >= 0.0 else (-s, -c)
    return out


def fresnel_series_reference(x: float) -> tuple[float, float]:
    """(S(x), C(x)) by the Maclaurin series with integer divisors, for x in [0, 1.6].

    The package's series divides by the same numbers held as floats; an
    int converts to the same double, so both give the same bits.
    """
    w = 0.5 * math.pi * x * x
    w2 = w * w
    c_sum = 0.0
    s_sum = 0.0
    uc = x
    us = x * w
    n = 0
    while True:
        tc = uc / (4 * n + 1)
        ts = us / (4 * n + 3)
        c_sum += tc
        s_sum += ts
        if abs(uc) + abs(us) < 1e-17 * (1.0 + abs(c_sum) + abs(s_sum)):
            break
        uc *= -w2 / ((2 * n + 1) * (2 * n + 2))
        us *= -w2 / ((2 * n + 2) * (2 * n + 3))
        n += 1
        if n > 200:
            break
    return s_sum, c_sum


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


def central_diff(f: Callable[[float], float], x: float, h: float) -> float:
    """Second-order first derivative estimate."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def second_diff(f: Callable[[float], float], x: float, h: float) -> float:
    """Second-order second derivative estimate."""
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


# ---------------------------------------------------------------------------
# Random expression corpus
# ---------------------------------------------------------------------------

_SAFE_FUNCS = ("sin", "cos", "sinh", "cosh", "exp", "sqrt", "ln", "abs", "fresnelS", "fresnelC")


def random_expression(rng: random.Random, depth: int = 3) -> str:
    """Grammar-driven random expression text over s and v.

    Arguments of exp/sinh/cosh are damped and ln/sqrt arguments are shifted
    positive so most draws evaluate to moderate finite values; callers still
    skip draws that land outside the domain or blow up.
    """
    if depth <= 0:
        leaf = rng.random()
        if leaf < 0.35:
            return rng.choice(("s", "v"))
        if leaf < 0.45:
            return "pi"
        return f"{rng.uniform(0.1, 4.0):.3f}"
    roll = rng.random()
    a = random_expression(rng, depth - 1)
    if roll < 0.45:
        b = random_expression(rng, depth - 1)
        op = rng.choice("+-*/")
        return f"({a}{op}{b})"
    if roll < 0.55:
        return f"(-{a})"
    if roll < 0.65:
        p = rng.choice(("2", "3", "0.5", "1.5"))
        return f"(abs({a})+0.7)^{p}"
    func = rng.choice(_SAFE_FUNCS)
    if func in ("exp", "sinh", "cosh"):
        return f"{func}(({a})/8)"
    if func in ("ln", "sqrt"):
        return f"{func}(abs({a})+0.5)"
    return f"{func}({a})"


_RICH_LEAVES = ("s", "v", "0", "0.5", "1", "2", "3", "0.78", "1e200")
_RICH_EXPONENTS = ("0", "1", "-1", "2", "3", "0.5", "-0.5", "1.5", "-2")
_FUNCS = ("sin", "cos", "tan", "sinh", "cosh", "exp", "ln", "sqrt", "abs", "fresnelS", "fresnelC")


def failure_rich_expression(rng: random.Random, depth: int = 3) -> str:
    """Random expression text that often leaves the domain.

    Unlike :func:`random_expression` nothing is damped or shifted: leaves
    include 0 and 1e200, exponents include 0 and negative or fractional
    values, and every function takes its argument as drawn, so the corpus
    reaches zero divisors, overflows, kinks and constant parts that fail.
    """
    if depth <= 0:
        return rng.choice(_RICH_LEAVES)
    roll = rng.random()
    a = failure_rich_expression(rng, depth - 1)
    if roll < 0.4:
        b = failure_rich_expression(rng, depth - 1)
        return f"({a}{rng.choice('+-*/')}{b})"
    if roll < 0.5:
        return f"(-{a})"
    if roll < 0.65:
        return f"({a})^{rng.choice(_RICH_EXPONENTS)}"
    return f"{rng.choice(_FUNCS)}({a})"


# ---------------------------------------------------------------------------
# Tree-walked references for the compiled kernels
# ---------------------------------------------------------------------------


def marching_scale_zero() -> MarchingScale:
    zero = Num(0.0)
    return MarchingScale(alpha=zero, beta=zero, gamma=zero)


def point_reference(curve: CurveSpec, s: float) -> G3Vector:
    return G3Vector(s, eval_expr(curve.f, s, 0.0), eval_expr(curve.g, s, 0.0))


def frenet_reference(curve: CurveSpec, s: float) -> FrenetFrame:
    fj = eval_jet3(curve.f, "s", s, 0.0)
    gj = eval_jet3(curve.g, "s", s, 0.0)
    kappa = math.hypot(fj.c2, gj.c2)
    if not kappa >= KAPPA_MIN:
        raise CurvatureVanishes(s, kappa)
    tau = (fj.c2 * gj.c3 - fj.c3 * gj.c2) / (kappa * kappa)
    if not KAPPA_MIN <= abs(tau) < math.inf:
        raise TorsionVanishes(s, tau)
    t = G3Vector(1.0, fj.c1, gj.c1)
    n = G3Vector(0.0, fj.c2 / kappa, gj.c2 / kappa)
    b = G3Vector(0.0, -gj.c2 / kappa, fj.c2 / kappa)
    return FrenetFrame(s=s, t=t, n=n, b=b, kappa=kappa, tau=tau)


def surface_point_reference(curve: CurveSpec, ms: MarchingScale, s: float, v: float) -> G3Vector:
    fr = frenet_reference(curve, s)
    a = eval_expr(ms.alpha, s, v)
    b = eval_expr(ms.beta, s, v)
    g = eval_expr(ms.gamma, s, v)
    return combine_on_frame(point_reference(curve, s), fr, a, b, g)


def surface_normal_reference(curve: CurveSpec, ms: MarchingScale, s: float, v: float) -> G3Vector:
    fr = frenet_reference(curve, s)
    aj_s = eval_jet3(ms.alpha, "s", s, v)
    bj_s = eval_jet3(ms.beta, "s", s, v)
    gj_s = eval_jet3(ms.gamma, "s", s, v)
    aj_v = eval_jet3(ms.alpha, "v", s, v)
    bj_v = eval_jet3(ms.beta, "v", s, v)
    gj_v = eval_jet3(ms.gamma, "v", s, v)
    phi_s_t = 1.0 + aj_s.c1
    phi_s_n = fr.kappa * aj_s.c0 + bj_s.c1 - fr.tau * gj_s.c0
    phi_s_b = fr.tau * bj_s.c0 + gj_s.c1
    phi_s = G3Vector(
        phi_s_t * fr.t.x,
        phi_s_t * fr.t.y + phi_s_n * fr.n.y + phi_s_b * fr.b.y,
        phi_s_t * fr.t.z + phi_s_n * fr.n.z + phi_s_b * fr.b.z,
    )
    phi_v = G3Vector(
        aj_v.c1 * fr.t.x,
        aj_v.c1 * fr.t.y + bj_v.c1 * fr.n.y + gj_v.c1 * fr.b.y,
        aj_v.c1 * fr.t.z + bj_v.c1 * fr.n.z + gj_v.c1 * fr.b.z,
    )
    return cross(phi_s, phi_v)


# ---------------------------------------------------------------------------
# Whole-pencil checks: isoparametric gap, Frenet residuals, normal agreement
# ---------------------------------------------------------------------------


def check_isoparametric(
    curve: CurveSpec, ms: MarchingScale, domain: ParamDomain, n_samples: int = 200
) -> float:
    """Max componentwise gap between phi(s, v0) and r(s) over the base line.

    phi is built on the same point r, so the gap is that of
    alpha t + beta n + gamma b at v0, after adding r and subtracting it
    again.
    """
    svals = spread_s_values(usable_domain(curve, ms, domain), n_samples)
    worst = 0.0
    for s in svals:
        r = point(curve, s)
        p = surface_point(curve, ms, s, domain.v0, base=r)
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
    svals = spread_s_values(usable_s_intervals(curve, *s_range), n_samples, inset=h)
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
        r = point(curve, s)
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
            eta_f = _fd_normal(curve, ms, s, v, h_s, h_v, fr, r)
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
