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
under the scaled rule.  `check_feasibility` walks the grid synthesis
samples on once, checking at each point that l is finite, then m and n
(the product form divides by them), then sigma and the radicand; the
first failing point raises.  l may vanish, as alpha = l X may; NaN and
+-inf fail the 1e-12 floors of m, n and sigma, and radicands down to
-1e-12 count as zero.

Synthesis defaults to the scaled rule; the plain rule is what the classical
derivation states and is kept as the opt-out (a synthesis block's ``"rule":
"plain"``, a :class:`SynthesisSpec` with ``scaled=False``), because the two
coincide whenever sigma is 1.  The finite difference oracle of
:mod:`g3pencil.verify` adjudicates between them on concrete surfaces; that
module's report is also the one verdict on which kind of d-type a pencil is.
"""

from __future__ import annotations

import math
from functools import cached_property

from .curve import (
    CurveSpec,
    curvature_torsion,
    frame_parts,
    point_parts,
    spread_s_values,
    usable_s_intervals,
)
from .errors import G3PencilError, InfeasibleLambda, SigmaVanishes, ZeroMarchingFactor
from .exprjet import BinOp, Call, Expr, Neg, Num, Var
from .exprjet import compile_jets, compile_or_defer, compile_values
from .g3core import Record, cross_parts

_RADICAND_CLAMP = 1e-12
_FACTOR_FLOOR = 1e-12


class ParamDomain(Record):
    """Parameter box with s_min < s_max, v_min < v_max, v0 in the v range and
    finite extents s_max - s_min and v_max - v_min."""

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
        for x, extent in (("s", self.s_max - self.s_min), ("v", self.v_max - self.v_min)):
            if extent == math.inf:  # grid spacings and fd steps are fractions of it
                raise ValueError(f"{x}_max - {x}_min overflows to inf")


class MarchingScale(Record):
    """The three coefficient functions alpha, beta, gamma of the pencil.

    Surface points and normals run through kernels compiled once per
    marching scale, on first use: the values, and the one jet kernel of
    :func:`normal_parts`, c0 and c1 in s and then c1 in v; one whose
    constant part fails is kept failing at every call.  The values kernel of
    a direct block is the one its load check and :func:`usable_domain` run.
    """

    _fields = ("alpha", "beta", "gamma")

    def __init__(self, alpha: Expr, beta: Expr, gamma: Expr):
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma

    @cached_property
    def _values(self):
        """(s, v) -> values of alpha, beta, gamma."""
        return compile_or_defer(compile_values, (self.alpha, self.beta, self.gamma))

    @cached_property
    def _normal_jets(self):
        """(s, v) -> c0, c1 in s of alpha, beta, gamma, then their c1 in v."""
        return compile_or_defer(
            compile_jets, (self.alpha, self.beta, self.gamma), "s", (0, 1), ("v", (1,))
        )


def product_marching_scale(
    l: Expr,
    m: Expr,
    n: Expr,
    x: Expr,
    y: Expr,
    z: Expr,
    control: tuple[float, float, float] | None = None,
) -> MarchingScale:
    """alpha = l*x, beta = m*y, gamma = n*z.

    ``control``, the coefficients (a, b, c), first multiplies x, y and z
    into a*x, b*y and c*z; without it the factors stay as they are.
    """
    if control is not None:
        a, b, c = control
        x, y, z = _mul(_const(a), x), _mul(_const(b), y), _mul(_const(c), z)
    return MarchingScale(_mul(l, x), _mul(m, y), _mul(n, z))


SIGNS = {"+": 1.0, "-": -1.0}  # the texts of a synthesis block's "sign", and their branches
RULES = {"scaled": True, "plain": False}  # the texts of its "rule", and whether sigma scales phi2


class SynthesisSpec(Record):
    """The input to synthesis: target invariant lam, scale function sigma(s),
    the product factors l(s), m(s), n(s), the sign branch, the control
    coefficients (a, b, c) or None, and the rule (False: plain, True: scaled).

    A sigma, l, m or n that reads v is refused with a ValueError whose
    message opens with the field's name.
    """

    __slots__ = _fields = ("lam", "sigma", "l", "m", "n", "sign", "control", "scaled")

    def __init__(
        self,
        lam: float,
        sigma: Expr,
        l: Expr,
        m: Expr,
        n: Expr,
        sign: float = 1.0,
        control: tuple[float, float, float] | None = None,
        scaled: bool = True,
    ):
        self.lam = lam
        self.sigma = sigma
        self.l = l
        self.m = m
        self.n = n
        self.sign = sign
        self.control = control
        self.scaled = scaled
        if self.sign not in SIGNS.values():
            raise ValueError("sign must be +1.0 or -1.0")
        if type(self.scaled) is not bool:  # 1 == True, and a text such as "plain" is truthy
            raise ValueError("scaled must be True or False")
        for field in ("sigma", "l", "m", "n"):
            if getattr(self, field).reads & Var("v").reads:
                raise ValueError(f"{field} must be a function of s alone, but reads v")


class PencilSpec(Record):
    """A fully specified pencil member: curve, marching scale and domain."""

    __slots__ = _fields = ("curve", "marching", "domain")

    def __init__(self, curve: CurveSpec, marching: MarchingScale, domain: ParamDomain):
        self.curve = curve
        self.marching = marching
        self.domain = domain


def usable_domain(
    curve: CurveSpec, ms: MarchingScale, domain: ParamDomain
) -> list[tuple[float, float]]:
    """The s intervals, sampled by every command, on which the pencil exists.

    A probe of :func:`usable_s_intervals` passes where the frame exists
    with kappa >= 0.1 and alpha, beta and gamma evaluate at the middle and
    far edge of the v range.  Raises EmptyDomain when no interval is left.
    """
    d = domain
    v_mid = 0.5 * (d.v_min + d.v_max)
    values = ms._values

    def probe(s: float) -> bool:
        try:
            values(s, v_mid)
            values(s, d.v_max)
        except G3PencilError:
            return False
        return True

    return usable_s_intervals(curve, d.s_min, d.s_max, probe)


# ---------------------------------------------------------------------------
# Surface evaluation
# ---------------------------------------------------------------------------


def _on_frame(r, frame: tuple, a: float, b: float, g: float) -> tuple[float, float, float]:
    """r + a*t + b*n + g*b on an (x, y, z) sequence r and a :func:`frame_parts` frame,
    each component summed left to right with all four terms."""
    _, _, t, n, bn = frame
    return (
        r[0] + a * t[0] + b * n[0] + g * bn[0],
        r[1] + a * t[1] + b * n[1] + g * bn[1],
        r[2] + a * t[2] + b * n[2] + g * bn[2],
    )


def surface_point_parts(curve: CurveSpec, ms: MarchingScale, s: float, v: float, frame=None, base=None):
    """phi(s, v) = r(s) + alpha t + beta n + gamma b, as an (x, y, z) tuple.

    ``frame`` and ``base`` are the :func:`frame_parts` and the
    :func:`point_parts` at s, when the caller has them.
    """
    frame = frame if frame is not None else frame_parts(curve, s)
    base = base if base is not None else point_parts(curve, s)
    return _on_frame(base, frame, *ms._values(s, v))


def normal_parts(ms: MarchingScale, s: float, v: float, frame: tuple) -> tuple[float, float, float]:
    """Isotropic normal eta = phi_s x phi_v at (s, v) from exact first-order jets.

    ``frame`` is the :func:`frame_parts` at s.  One kernel call gives the
    jets of the scales in s, then in v; it fails and warns as the jets in s
    and in v, taken in turn, would.  With a zero marching scale phi_v
    vanishes and the zero vector is returned; callers treat that as a
    degenerate (flagged) sample.
    """
    kappa, tau, t, n, bn = frame
    a, a_s, b, b_s, g, g_s, a_v, b_v, g_v = ms._normal_jets(s, v)
    phi_s_t = 1.0 + a_s
    phi_s_n = kappa * a + b_s - tau * g
    phi_s_b = tau * b + g_s
    phi_s_y = phi_s_t * t[1] + phi_s_n * n[1] + phi_s_b * bn[1]
    phi_s_z = phi_s_t * t[2] + phi_s_n * n[2] + phi_s_b * bn[2]
    phi_v = (a_v * t[0], a_v * t[1] + b_v * n[1] + g_v * bn[1], a_v * t[2] + b_v * n[2] + g_v * bn[2])
    return cross_parts((phi_s_t * t[0], phi_s_y, phi_s_z), phi_v)


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
    """x as a tree that :func:`~g3pencil.exprjet.to_source` round-trips:
    no Num is negative, -0.0 included."""
    if math.copysign(1.0, x) < 0:
        return Neg(Num(-x))
    return Num(x)


def check_feasibility(curve: CurveSpec, spec: SynthesisSpec, grid: list[float]) -> float:
    """Check l, m, n, sigma and the radicand 1 - ratio^2 on an s grid, in one pass.

    ``grid`` is the guarded grid synthesis samples on; one kernel gives
    the spec's l, m, n and sigma at each point.  Point by point, l must be finite,
    else ZeroMarchingFactor; m and then n must be finite, at least 1e-12
    from zero and keep the previous point's sign, else
    ZeroMarchingFactor; sigma must be finite and at least 1e-12 from
    zero, else SigmaVanishes; the radicand must not fall below -1e-12, else
    InfeasibleLambda.  The ratio is lam tau / kappa under the spec's scaled
    rule and lam tau / (sigma kappa) under its plain rule.  Returns the largest
    radicand over the grid.
    """
    factors_at = compile_values((spec.l, spec.m, spec.n, spec.sigma))
    lam, scaled, inf, floor = spec.lam, spec.scaled, math.inf, _FACTOR_FLOOR
    hi = -inf
    prev_m = prev_n = 0.0
    for s in grid:
        l_val, m_val, n_val, sigma_val = factors_at(s, 0.0)
        if not abs(l_val) < inf:  # NaN fails too; l may vanish
            raise ZeroMarchingFactor("l", s, l_val)
        # NaN and +-inf fail the floor; a continuous factor that changes
        # sign must vanish in between
        if not floor <= abs(m_val) < inf or prev_m * m_val < 0.0:
            raise ZeroMarchingFactor("m", s, m_val)
        if not floor <= abs(n_val) < inf or prev_n * n_val < 0.0:
            raise ZeroMarchingFactor("n", s, n_val)
        prev_m, prev_n = m_val, n_val
        kappa, tau, _ = curvature_torsion(curve, s)
        if not floor <= abs(sigma_val) < inf:
            raise SigmaVanishes(s, sigma_val)
        ratio = lam * tau / kappa if scaled else lam * tau / (sigma_val * kappa)
        radicand = 1.0 - ratio * ratio
        if radicand < -_RADICAND_CLAMP:
            raise InfeasibleLambda(s, ratio)
        if radicand > hi:  # as max(hi, radicand) keeps hi on a tie or a NaN
            hi = radicand
    return hi


def synthesize_product_form(curve: CurveSpec, spec: SynthesisSpec, domain: ParamDomain) -> MarchingScale:
    """Build product-form marching scales realizing the invariant.

    X(v) = v - v0, Y = [phi3(s)/m(s)] (v - v0), Z = [-phi2(s)/n(s)] (v - v0),
    so alpha, beta, gamma vanish identically on the base line and the
    normal there is exactly phi2 n + phi3 b; the spec's control
    coefficients, when given, scale X, Y and Z (see
    :func:`product_marching_scale`).  The factors become closed
    expression trees, which requires the curve to carry closed forms for
    kappa and tau (both built-ins do).

    The spec's rule is the sigma-scaled one (default, exact invariant) or
    the plain one; see the module docstring.  :func:`check_feasibility`
    checks l, m, n, sigma and the radicand in one pass over a 512-point grid
    on the curve's :func:`usable_s_intervals`; the square root's domain
    check still guards each point.
    """
    if curve.kappa_form is None or curve.tau_form is None:
        raise ValueError(
            "synthesis builds expression trees and needs closed-form kappa and "
            "tau on the curve; built-in curves provide them"
        )
    grid = spread_s_values(usable_s_intervals(curve, domain.s_min, domain.s_max), 512)
    hi = check_feasibility(curve, spec, grid)

    lam_e = _const(spec.lam)
    kappa_e = curve.kappa_form
    tau_e = curve.tau_form
    abs_tau_e = Call("abs", tau_e)
    if spec.scaled:
        phi2_e: Expr = _mul(spec.sigma, _mul(lam_e, _div(abs_tau_e, kappa_e)))
        ratio_e: Expr = _mul(lam_e, _div(tau_e, kappa_e))
    else:
        phi2_e = _mul(lam_e, _div(abs_tau_e, kappa_e))
        ratio_e = _mul(lam_e, _div(tau_e, _mul(spec.sigma, kappa_e)))
    if hi <= _RADICAND_CLAMP:
        # The radicand vanishes identically on the grid: the boundary case
        # in which the normal is parallel to the principal normal and the
        # binormal component is exactly zero.
        phi3_e: Expr = Num(0.0)
    else:
        root = Call("sqrt", _sub(Num(1.0), _mul(ratio_e, ratio_e)))
        phi3_e = _mul(spec.sigma, root)
        if spec.sign < 0:
            phi3_e = Neg(phi3_e)

    x_e = _sub(Var("v"), _const(domain.v0))
    y_e = _mul(_div(phi3_e, spec.m), x_e)
    z_e = _mul(_div(Neg(phi2_e), spec.n), x_e)
    return product_marching_scale(spec.l, spec.m, spec.n, x_e, y_e, z_e, spec.control)

