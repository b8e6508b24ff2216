"""Surface families through a fixed curve, and marching-scale synthesis.

A member of the pencil is

    phi(s, v) = r(s) + alpha(s, v) t(s) + beta(s, v) n(s) + gamma(s, v) b(s)

and the curve is the isoparametric line v = v0 exactly when alpha, beta and
gamma vanish there.  Along that line the surface normal reduces to

    eta(s, v0) = (-gamma_v) n + (beta_v) b      (for product-form scales)

so prescribing the pair (phi2, phi3) of normal components prescribes the
angle the unit normal makes with the principal normal.  The invariant under
study is

    lam_hat(s) = <eta1, e0 x t> = (kappa / |tau|) * phi2 / sqrt(phi2^2 + phi3^2)

Two construction rules for (phi2, phi3) are provided:

* plain rule:   phi2 = lam |tau| / kappa,
                phi3 = sign * sigma * sqrt(1 - (lam tau / (sigma kappa))^2).
  This makes lam_hat = lam / sigma, constant only for constant sigma.

* scaled rule:  phi2 = sigma * lam * |tau| / kappa,
                phi3 = sign * sigma * sqrt(1 - (lam tau / kappa)^2).
  This makes lam_hat = lam exactly, for any nonvanishing sigma(s).

Both rules need the radicand 1 - ratio^2 to stay non-negative, where
ratio = lam tau / (sigma kappa) under the plain rule and lam tau / kappa
under the scaled rule.  `_radicand` is the one place that computes the
ratio and the radicand and tests that condition, for the normal
components, for the grid check of synthesis (`check_feasibility`) and for
`classify_dtype` alike; radicands down to -1e-12 count as zero.

Synthesis defaults to the scaled rule; the plain rule is what the classical
derivation states and is kept both for `required_normal_components` and as
the opt-out (`scaled=False`), because the two coincide whenever sigma is 1.
The finite difference oracle in :mod:`g3pencil.verify` adjudicates between
them on concrete surfaces.
"""

from __future__ import annotations

import math
from functools import cached_property

from .curve import (
    CurveSpec,
    FrenetFrame,
    classify_curve,
    curvature_torsion,
    frenet,
    guard_probes,
    point,
    probe_intervals,
    spread_s_values,
    usable_s_intervals,
    usable_s_values,
)
from .errors import (
    ClassMismatch,
    EmptyDomain,
    G3PencilError,
    InfeasibleLambda,
    NotProductForm,
    SigmaVanishes,
    ZeroMarchingFactor,
)
from .exprjet import BinOp, Call, Expr, Neg, Num, Var, compile_expr, compile_jets, compile_values
from .g3core import G3Vector, Record, cross

_RADICAND_CLAMP = 1e-12
_FACTOR_FLOOR = 1e-12


class ParamDomain(Record):
    """Parameter box with s_min < s_max, v_min < v_max and v0 in the v range."""

    __slots__ = _fields = ("s_min", "s_max", "v_min", "v_max", "v0")

    def __init__(self, s_min: float, s_max: float, v_min: float, v_max: float, v0: float):
        self.s_min = s_min
        self.s_max = s_max
        self.v_min = v_min
        self.v_max = v_max
        self.v0 = v0
        if not self.s_min < self.s_max:
            raise ValueError("s_min must be below s_max")
        if not (self.v_min <= self.v0 <= self.v_max):
            raise ValueError("v0 must lie inside [v_min, v_max]")
        if self.v_min == self.v_max:
            raise ValueError("v_min must be below v_max")


class ProductFactors(Record):
    """Retained factors of a product-form marching scale."""

    __slots__ = _fields = ("l", "m", "n", "x", "y", "z")

    def __init__(self, l: Expr, m: Expr, n: Expr, x: Expr, y: Expr, z: Expr):
        self.l = l
        self.m = m
        self.n = n
        self.x = x
        self.y = y
        self.z = z


class MarchingScale(Record):
    """The three coefficient functions alpha, beta, gamma of the pencil.

    Surface points and normals run through kernels compiled once per
    marching scale, on first use: the values, and the one jet kernel of
    :func:`surface_normal`, c0 and c1 in s and then c1 in v.
    """

    _fields = ("alpha", "beta", "gamma", "product")

    def __init__(
        self, alpha: Expr, beta: Expr, gamma: Expr, product: ProductFactors | None = None
    ):
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.product = product

    @cached_property
    def _values(self):
        """(s, v) -> values of alpha, beta, gamma."""
        return compile_values((self.alpha, self.beta, self.gamma))

    @cached_property
    def _normal_jets(self):
        """(s, v) -> c0, c1 in s of alpha, beta, gamma, then their c1 in v."""
        return compile_jets((self.alpha, self.beta, self.gamma), "s", (0, 1), ("v", (1,)))


def product_marching_scale(
    l: Expr, m: Expr, n: Expr, x: Expr, y: Expr, z: Expr
) -> MarchingScale:
    """Assemble alpha = l*x, beta = m*y, gamma = n*z keeping the factors."""
    return MarchingScale(
        alpha=BinOp("*", l, x),
        beta=BinOp("*", m, y),
        gamma=BinOp("*", n, z),
        product=ProductFactors(l, m, n, x, y, z),
    )


class DTypeSpec(Record):
    """Target invariant lam, scale function sigma(s) and the sign branch."""

    _fields = ("lam", "sigma", "sign")

    def __init__(self, lam: float, sigma: Expr, sign: float = 1.0):
        self.lam = lam
        self.sigma = sigma
        self.sign = sign
        if self.sign not in (1.0, -1.0):
            raise ValueError("sign must be +1.0 or -1.0")

    @cached_property
    def _sigma(self):
        """(s, v) -> sigma, compiled on first use."""
        return compile_expr(self.sigma)


class NormalComponents(Record):
    """Frame components of the surface normal along the base line.

    phi1 (tangential) is identically zero; theta is the angle of the
    normal against the principal normal, atan2(phi3, phi2).
    """

    __slots__ = _fields = ("phi1", "phi2", "phi3", "theta")

    def __init__(self, phi1: float, phi2: float, phi3: float, theta: float):
        self.phi1 = phi1
        self.phi2 = phi2
        self.phi3 = phi3
        self.theta = theta


class ControlCoefficients(Record):
    """Multipliers applied to the product factors X, Y and Z."""

    __slots__ = _fields = ("a", "b", "c")

    def __init__(self, a: float = 1.0, b: float = 1.0, c: float = 1.0):
        self.a = a
        self.b = b
        self.c = c


class PencilSpec(Record):
    """A fully specified pencil member: curve, marching scale and domain."""

    __slots__ = _fields = ("curve", "marching", "domain")

    def __init__(self, curve: CurveSpec, marching: MarchingScale, domain: ParamDomain):
        self.curve = curve
        self.marching = marching
        self.domain = domain


def usable_domain(
    curve: CurveSpec, ms: MarchingScale | None, domain: ParamDomain
) -> list[tuple[float, float]]:
    """The s intervals, sampled by every command, on which the pencil exists.

    A probe of :func:`guard_probes` passes where the frame exists with
    kappa >= 0.1 and, given scales (synthesis has none yet), alpha, beta and
    gamma evaluate at the middle and far edge of the v range.  Raises
    EmptyDomain when no interval is left, at once if their kernel fails to compile.
    """
    d = domain
    if ms is None:
        intervals = usable_s_intervals(curve, d.s_min, d.s_max)
    else:
        v_mid = 0.5 * (d.v_min + d.v_max)
        try:
            values = ms._values
        except G3PencilError:  # a constant part fails, as every probe would
            raise EmptyDomain(d.s_min, d.s_max) from None
        probes = []
        for s, ok in guard_probes(curve, d.s_min, d.s_max):
            try:
                if ok:
                    values(s, v_mid)
                    values(s, d.v_max)
            except G3PencilError:
                ok = False
            probes.append((s, ok))
        intervals = probe_intervals(probes, d.s_min, d.s_max)
    if not intervals:
        raise EmptyDomain(d.s_min, d.s_max)
    return intervals


# ---------------------------------------------------------------------------
# Surface evaluation
# ---------------------------------------------------------------------------


def combine_on_frame(r: G3Vector, fr: FrenetFrame, a: float, b: float, g: float) -> G3Vector:
    """r + a*t + b*n + g*b on the base point r, in a fixed order."""
    return G3Vector(
        r.x + a * fr.t.x + b * fr.n.x + g * fr.b.x,
        r.y + a * fr.t.y + b * fr.n.y + g * fr.b.y,
        r.z + a * fr.t.z + b * fr.n.z + g * fr.b.z,
    )


def surface_point(
    curve: CurveSpec,
    ms: MarchingScale,
    s: float,
    v: float,
    frame: FrenetFrame | None = None,
    base: G3Vector | None = None,
) -> G3Vector:
    """phi(s, v) = r(s) + alpha t + beta n + gamma b.

    ``frame`` and ``base`` are the frame and the curve point at s, when
    the caller has them.
    """
    fr = frame if frame is not None else frenet(curve, s)
    r = base if base is not None else point(curve, s)
    a, b, g = ms._values(s, v)
    return combine_on_frame(r, fr, a, b, g)


def surface_normal(
    curve: CurveSpec, ms: MarchingScale, s: float, v: float, frame: FrenetFrame | None = None
) -> G3Vector:
    """Isotropic normal eta = phi_s x phi_v from exact first-order jets.

    One kernel call gives the jets of the scales in s, then in v; it fails
    and warns as the jets in s and in v, taken in turn, would.  With a
    zero marching scale phi_v vanishes and the zero vector is returned;
    callers treat that as a degenerate (flagged) sample.
    """
    fr = frame if frame is not None else frenet(curve, s)
    a, a_s, b, b_s, g, g_s, a_v, b_v, g_v = ms._normal_jets(s, v)
    phi_s_t = 1.0 + a_s
    phi_s_n = fr.kappa * a + b_s - fr.tau * g
    phi_s_b = fr.tau * b + g_s
    phi_s = G3Vector(
        phi_s_t * fr.t.x,
        phi_s_t * fr.t.y + phi_s_n * fr.n.y + phi_s_b * fr.b.y,
        phi_s_t * fr.t.z + phi_s_n * fr.n.z + phi_s_b * fr.b.z,
    )
    phi_v = G3Vector(
        a_v * fr.t.x,
        a_v * fr.t.y + b_v * fr.n.y + g_v * fr.b.y,
        a_v * fr.t.z + b_v * fr.n.z + g_v * fr.b.z,
    )
    return cross(phi_s, phi_v)


# ---------------------------------------------------------------------------
# Normal components prescribed by the invariant
# ---------------------------------------------------------------------------


def _radicand(
    kappa: float, tau: float, sigma_val: float, lam: float, scaled: bool, s: float
) -> tuple[float, float]:
    """The rule's ratio and the radicand 1 - ratio^2 at parameter s.

    The ratio is lam tau / kappa under the scaled rule and
    lam tau / (sigma kappa) under the plain rule.  Raises SigmaVanishes
    where sigma does, and InfeasibleLambda where the radicand falls below
    the clamping threshold -1e-12.
    """
    if abs(sigma_val) < _FACTOR_FLOOR:
        raise SigmaVanishes(s)
    if scaled:
        ratio = lam * tau / kappa
    else:
        ratio = lam * tau / (sigma_val * kappa)
    radicand = 1.0 - ratio * ratio
    if radicand < -_RADICAND_CLAMP:
        raise InfeasibleLambda(s, ratio)
    return ratio, radicand


def _phis(
    kappa: float, tau: float, sigma_val: float, lam: float, sign: float, scaled: bool, s: float
) -> tuple[float, float]:
    _, radicand = _radicand(kappa, tau, sigma_val, lam, scaled, s)
    abs_tau = abs(tau)
    if scaled:
        phi2 = sigma_val * lam * abs_tau / kappa
    else:
        phi2 = lam * abs_tau / kappa
    if radicand < 0.0:
        radicand = 0.0
    phi3 = sign * sigma_val * math.sqrt(radicand)
    return phi2, phi3


def required_normal_components(
    curve: CurveSpec, dtype: DTypeSpec, s: float, *, scaled: bool = False
) -> NormalComponents:
    """Normal components that realize the invariant at parameter s.

    The default applies the plain rule stated by the classical derivation;
    ``scaled=True`` applies the sigma-scaled rule under which the verified
    invariant equals lam exactly (see the module docstring).
    """
    kappa, tau, _ = curvature_torsion(curve, s)
    sigma_val = dtype._sigma(s, 0.0)
    phi2, phi3 = _phis(kappa, tau, sigma_val, dtype.lam, dtype.sign, scaled, s)
    return NormalComponents(0.0, phi2, phi3, math.atan2(phi3, phi2))


_COROLLARY_KINDS = ("geodesic", "asymptotic", "helix", "salkowski", "anti-salkowski")

_KIND_TO_CLASS = {
    "helix": "general-helix",
    "salkowski": "salkowski",
    "anti-salkowski": "anti-salkowski",
}


def corollary_components(
    curve: CurveSpec, kind: str, dtype: DTypeSpec, s: float, s_range: tuple[float, float]
) -> NormalComponents:
    """Specializations of the plain rule for notable curve classes.

    geodesic fixes lam = 1 (the classical statement), asymptotic fixes
    lam = 0, and the helix / salkowski / anti-salkowski cases substitute
    the constant the classification finds (|tau|/kappa, kappa or tau).
    Note that the geodesic specialization does not generally make the unit
    normal parallel to the principal normal; :func:`classify_dtype` applies
    the geometric criterion instead of lam = 1.
    """
    if kind not in _COROLLARY_KINDS:
        raise ValueError(f"kind must be one of {_COROLLARY_KINDS}")
    kappa, tau, _ = curvature_torsion(curve, s)
    sigma_val = dtype._sigma(s, 0.0)
    if kind == "asymptotic":
        phi2, phi3 = _phis(kappa, tau, sigma_val, 0.0, dtype.sign, False, s)
    elif kind == "geodesic":
        phi2, phi3 = _phis(kappa, tau, sigma_val, 1.0, dtype.sign, False, s)
    else:
        cls = classify_curve(curve, s_range)
        if cls.kind != _KIND_TO_CLASS[kind]:
            raise ClassMismatch(
                f"curve classifies as {cls.kind}, not {_KIND_TO_CLASS[kind]}"
            )
        if kind == "helix":
            kappa_eff, tau_eff = 1.0, cls.constant  # ratio |tau|/kappa = mu
        elif kind == "salkowski":
            kappa_eff, tau_eff = cls.constant, tau
        else:
            kappa_eff, tau_eff = kappa, cls.constant
        phi2, phi3 = _phis(kappa_eff, tau_eff, sigma_val, dtype.lam, dtype.sign, False, s)
    return NormalComponents(0.0, phi2, phi3, math.atan2(phi3, phi2))


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------


def _mul(a: Expr, b: Expr) -> Expr:
    return BinOp("*", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    return BinOp("-", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    return BinOp("/", a, b)


def _const(x: float) -> Expr:
    if x < 0:
        return Neg(Num(-x))
    return Num(x)


def check_feasibility(
    curve: CurveSpec, dtype: DTypeSpec, grid: list[float], *, scaled: bool
) -> float:
    """Radicand of the construction rule at every point of an s grid.

    ``grid`` is the guarded grid synthesis samples on.  Returns the largest
    radicand over it; raises SigmaVanishes or InfeasibleLambda at the first
    grid point where :func:`_radicand` does.
    """
    hi = -math.inf
    for s in grid:
        kappa, tau, _ = curvature_torsion(curve, s)
        _, radicand = _radicand(kappa, tau, dtype._sigma(s, 0.0), dtype.lam, scaled, s)
        hi = max(hi, radicand)
    return hi


def synthesize_product_form(
    curve: CurveSpec,
    dtype: DTypeSpec,
    l: Expr,
    m: Expr,
    n_ms: Expr,
    domain: ParamDomain,
    *,
    scaled: bool = True,
) -> MarchingScale:
    """Build product-form marching scales realizing the invariant.

    X(v) = v - v0, Y = [phi3(s)/m(s)] (v - v0), Z = [-phi2(s)/n(s)] (v - v0),
    so alpha, beta, gamma vanish identically on the base line and the
    normal there is exactly phi2 n + phi3 b.  The factors become closed
    expression trees, which requires the curve to carry closed forms for
    kappa and tau (both built-ins do).

    ``scaled`` selects the sigma-scaled rule (default, exact invariant) or
    the plain rule; see the module docstring.  One 512-point grid over
    the curve's :func:`usable_domain` serves the m and n factor scans and
    the feasibility check up front; the square root's domain check still
    guards each point.
    """
    if curve.kappa_form is None or curve.tau_form is None:
        raise ValueError(
            "synthesis builds expression trees and needs closed-form kappa and "
            "tau on the curve; built-in curves provide them"
        )
    grid = spread_s_values(usable_domain(curve, None, domain), 512)
    for label, factor in (("m", m), ("n", n_ms)):
        prev = None
        factor_at = compile_expr(factor)
        for s in grid:
            value = factor_at(s, 0.0)
            # a continuous factor that changes sign must vanish in between
            if abs(value) < _FACTOR_FLOOR or (prev is not None and prev * value < 0.0):
                raise ZeroMarchingFactor(label, s)
            prev = value
    hi = check_feasibility(curve, dtype, grid, scaled=scaled)

    lam_e = _const(dtype.lam)
    kappa_e = curve.kappa_form
    tau_e = curve.tau_form
    abs_tau_e = Call("abs", tau_e)
    if scaled:
        phi2_e: Expr = _mul(dtype.sigma, _mul(lam_e, _div(abs_tau_e, kappa_e)))
        ratio_e: Expr = _mul(lam_e, _div(tau_e, kappa_e))
    else:
        phi2_e = _mul(lam_e, _div(abs_tau_e, kappa_e))
        ratio_e = _mul(lam_e, _div(tau_e, _mul(dtype.sigma, kappa_e)))
    if hi <= _RADICAND_CLAMP:
        # The radicand vanishes identically on the grid: the boundary case
        # in which the normal is parallel to the principal normal and the
        # binormal component is exactly zero.
        phi3_e: Expr = Num(0.0)
    else:
        root = Call("sqrt", _sub(Num(1.0), _mul(ratio_e, ratio_e)))
        phi3_e = _mul(dtype.sigma, root)
        if dtype.sign < 0:
            phi3_e = Neg(phi3_e)

    x_e = _sub(Var("v"), Num(domain.v0))
    y_e = _mul(_div(phi3_e, m), x_e)
    z_e = _mul(_div(Neg(phi2_e), n_ms), x_e)
    return product_marching_scale(l, m, n_ms, x_e, y_e, z_e)


def apply_control_coefficients(ms: MarchingScale, cc: ControlCoefficients) -> MarchingScale:
    """Multiply the product factors X, Y, Z by a, b, c respectively."""
    if ms.product is None:
        raise NotProductForm("control coefficients need a product-form marching scale")
    p = ms.product
    return product_marching_scale(
        p.l,
        p.m,
        p.n,
        _mul(_const(cc.a), p.x),
        _mul(_const(cc.b), p.y),
        _mul(_const(cc.c), p.z),
    )


# ---------------------------------------------------------------------------
# Classification of a d-type spec
# ---------------------------------------------------------------------------

_GEODESIC_TOL = 1e-9


def classify_dtype(dtype: DTypeSpec, curve: CurveSpec, s_range: tuple[float, float]) -> str:
    """"asymptotic", "geodesic" or "general-d-type" for a feasible spec.

    Asymptotic means lam = 0 (normal orthogonal to the principal normal
    everywhere); geodesic applies the geometric criterion sin(theta) = 0,
    i.e. |lam tau / (sigma kappa)| = 1 within 1e-9 at every sample.  The 64
    samples spread over the usable s intervals, as :func:`classify_curve`
    takes them.  Feasibility is the plain rule's, as :func:`_radicand`
    states it.
    """
    if dtype.lam == 0.0:
        return "asymptotic"
    geodesic = True
    for s in usable_s_values(curve, *s_range, 64):
        kappa, tau, _ = curvature_torsion(curve, s)
        ratio, _ = _radicand(kappa, tau, dtype._sigma(s, 0.0), dtype.lam, False, s)
        if abs(abs(ratio) - 1.0) > _GEODESIC_TOL:
            geodesic = False
    return "geodesic" if geodesic else "general-d-type"
