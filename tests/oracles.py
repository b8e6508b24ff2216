"""Independent numerical oracles used by the test suite.

Nothing in here may call into the code paths it checks: the quadrature
oracle integrates the Fresnel integrands directly, the finite difference
helpers differentiate black-box callables, the tree evaluators
:func:`eval_expr` and :func:`eval_jet3` walk an expression tree with IEEE
doubles and with Jet3 arithmetic, and the references for the compiled
frame, point and normal kernels walk the trees with them.  The package
evaluates expressions only through its compiled kernels; these tree
evaluators are the reference those kernels are held against, bit for
bit.  The normal components that realize an invariant, and their
corollary specializations, state the construction rules and their
feasibility test on their own, apart from synthesis.  The whole-pencil
checks are the exception: they hold the package's own surface points,
frames and normals against its curve points and against central
differences of the same functions.  Last comes the invariant report
tree-walked on the frame, point and normal references, the bit-for-bit
reference of the package's report.  The package writes vectors as plain
(x, y, z) tuples; the references and the geometric checks write them as
the small records of this module, ``G3Vector`` with its arithmetic,
``FrenetFrame`` and ``DarbouxData``.
"""

from __future__ import annotations

import math
import random
import warnings
from typing import Callable, NamedTuple

from g3pencil.curve import (
    KAPPA_MIN,
    CurveSpec,
    classify_curve,
    curvature_torsion,
    frame_parts,
    point_parts,
    spread_s_values,
    uniform_grid,
    usable_s_intervals,
)
from g3pencil.errors import (
    CurvatureVanishes,
    DomainError,
    G3PencilError,
    InfeasibleLambda,
    SigmaVanishes,
    TorsionVanishes,
)
from g3pencil.exprjet import (
    _ARITHMETIC,
    _INFS,
    _TRIG,
    _VAR_BITS,
    VARIABLES,
    BinOp,
    Call,
    Expr,
    KinkWarning,
    Neg,
    Num,
    Var,
    _cosh,
    _exp,
    _fail,
    _fresnel,
    _kink,
    _sinh,
)
from g3pencil.g3core import Record
from g3pencil.pencil import (
    MarchingScale,
    ParamDomain,
    SynthesisSpec,
    normal_parts,
    surface_point_parts,
    usable_domain,
)
from g3pencil.verify import (
    ANALYTIC_TOL,
    DEGENERATE_NORM,
    FD_TOL,
    MIN_REPORT_SAMPLES,
    MODES,
    DTypeReport,
    InvariantSample,
    _classify_report,
    _fd_normal,
    _fd_steps,
)


# ---------------------------------------------------------------------------
# Vectors and frames of G3 as records
# ---------------------------------------------------------------------------


class G3Vector(Record):
    """A vector (x, y, z); x is the absolute component, y and z isotropic."""

    __slots__ = _fields = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float):
        self.x = x
        self.y = y
        self.z = z

    def __add__(self, other: "G3Vector") -> "G3Vector":
        return G3Vector(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "G3Vector") -> "G3Vector":
        return G3Vector(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "G3Vector":
        return G3Vector(-self.x, -self.y, -self.z)

    def __mul__(self, k: float) -> "G3Vector":
        return G3Vector(self.x * k, self.y * k, self.z * k)

    __rmul__ = __mul__

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


class FrenetFrame(Record):
    """The frame at s: t, n, b, kappa and tau, with no base point."""

    __slots__ = _fields = ("s", "t", "n", "b", "kappa", "tau")

    def __init__(self, s: float, t: G3Vector, n: G3Vector, b: G3Vector, kappa: float, tau: float):
        self.s = s
        self.t = t
        self.n = n
        self.b = b
        self.kappa = kappa
        self.tau = tau

    def parts(self) -> tuple:
        """(kappa, tau, t, n, b) with t, n and b as tuples, as ``curve.frame_parts`` gives them."""
        return self.kappa, self.tau, self.t.as_tuple(), self.n.as_tuple(), self.b.as_tuple()


class DarbouxData(Record):
    __slots__ = _fields = ("w", "e0", "d_axis")

    def __init__(self, w: G3Vector, e0: G3Vector, d_axis: G3Vector):
        self.w = w            # tau * t + kappa * b, the frame's rotation vector
        self.e0 = e0          # w / |tau|
        self.d_axis = d_axis  # e0 x t, equal to (kappa / |tau|) * n


def dot(a: G3Vector, b: G3Vector) -> float:
    """Galilean scalar product: a1*b1 unless both vectors are isotropic."""
    if a.x != 0.0 or b.x != 0.0:
        return a.x * b.x
    return a.y * b.y + a.z * b.z


def cross(a: G3Vector, b: G3Vector) -> G3Vector:
    """Galilean cross product; the result is always isotropic."""
    return G3Vector(0.0, a.z * b.x - a.x * b.z, a.x * b.y - a.y * b.x)


def isotropic_norm(a: G3Vector) -> float:
    """Euclidean length of an isotropic vector's (y, z) part; ValueError for x != 0."""
    if a.x != 0.0:
        raise ValueError(f"vector {a.as_tuple()} has nonzero absolute component")
    return math.hypot(a.y, a.z)


def normalize_isotropic(a: G3Vector) -> G3Vector:
    """Scale an isotropic vector to unit isotropic norm; ValueError below a norm of 1e-14."""
    n = isotropic_norm(a)
    if n < 1e-14:
        raise ValueError(f"cannot normalize near-zero vector {a.as_tuple()}")
    return G3Vector(0.0, a.y / n, a.z / n)


def combine_on_frame(r: G3Vector, fr: FrenetFrame, a: float, b: float, g: float) -> G3Vector:
    """r + a*t + b*n + g*b on the base point r, each component summed left to right."""
    return G3Vector(
        r.x + a * fr.t.x + b * fr.n.x + g * fr.b.x,
        r.y + a * fr.t.y + b * fr.n.y + g * fr.b.y,
        r.z + a * fr.t.z + b * fr.n.z + g * fr.b.z,
    )


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
# Value tree evaluator: the reference the compiled values are held against
# ---------------------------------------------------------------------------


def eval_expr(expr: Expr, s: float, v: float) -> float:
    """Evaluate with IEEE doubles; raises DomainError naming the bad node."""
    return _evaluate(expr, s, v)


def _evaluate(expr: Expr, s: float, v: float) -> float:
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        return s if expr.name == "s" else v
    if isinstance(expr, Neg):
        return -_evaluate(expr.arg, s, v)
    if isinstance(expr, Call):
        u = _evaluate(expr.arg, s, v)
        try:
            return _call_value(expr, u)
        except _ARITHMETIC as exc:
            raise _fail(expr, str(exc)) from exc
    left = _evaluate(expr.left, s, v)
    right = _evaluate(expr.right, s, v)
    op = expr.op
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0.0:
            raise _fail(expr, "division by zero")
        return left / right
    # op == "^"; the exponent is constant by construction
    if not float(right).is_integer():
        if left < 0.0:
            raise _fail(expr, "fractional power of a negative base")
        if left == 0.0 and right < 0.0:
            raise _fail(expr, "zero base with negative exponent")
    elif left == 0.0 and right < 0.0:
        raise _fail(expr, "zero base with negative exponent")
    try:
        return left**right
    except (ValueError, OverflowError) as exc:  # a result too large for a double
        raise _fail(expr, str(exc)) from exc


def _call_value(node: Call, u: float) -> float:
    f = node.func
    if f in _TRIG and u in _INFS:
        raise _fail(node, f"{f} of an infinite value")
    if f == "sin":
        return math.sin(u)
    if f == "cos":
        return math.cos(u)
    if f == "tan":
        return math.tan(u)
    if f == "sinh":
        return _sinh(u)
    if f == "cosh":
        return _cosh(u)
    if f == "exp":
        return _exp(u)
    if f == "ln":
        if u <= 0.0:
            raise _fail(node, "log of a non-positive value")
        return math.log(u)
    if f == "sqrt":
        if u < 0.0:
            raise _fail(node, "square root of a negative value")
        return math.sqrt(u)
    if f == "abs":
        return abs(u)
    if f == "fresnelS":
        return fresnel_s(u)
    return fresnel_c(u)


def _fold(expr: Expr) -> float:
    """Value of a constant subtree, computed by the tree evaluator."""
    return _evaluate(expr, 0.0, 0.0)


def fresnel_s(x: float) -> float:
    """Fresnel sine integral of sin(pi t^2 / 2) from 0 to x; odd in x."""
    return _fresnel(x)[0]


def fresnel_c(x: float) -> float:
    """Fresnel cosine integral of cos(pi t^2 / 2) from 0 to x; odd in x."""
    return _fresnel(x)[1]


# ---------------------------------------------------------------------------
# Jet tree evaluator: the reference the compiled jets are held against
# ---------------------------------------------------------------------------


class Jet3(Record):
    """Value and first three derivatives with respect to one variable."""

    __slots__ = _fields = ("c0", "c1", "c2", "c3")

    def __init__(self, c0: float, c1: float = 0.0, c2: float = 0.0, c3: float = 0.0):
        self.c0 = c0
        self.c1 = c1
        self.c2 = c2
        self.c3 = c3

    def __add__(self, o: "Jet3") -> "Jet3":
        return Jet3(self.c0 + o.c0, self.c1 + o.c1, self.c2 + o.c2, self.c3 + o.c3)

    def __sub__(self, o: "Jet3") -> "Jet3":
        return Jet3(self.c0 - o.c0, self.c1 - o.c1, self.c2 - o.c2, self.c3 - o.c3)

    def __neg__(self) -> "Jet3":
        return Jet3(-self.c0, -self.c1, -self.c2, -self.c3)

    def __mul__(self, o: "Jet3") -> "Jet3":
        # Leibniz rule through third order
        return Jet3(
            self.c0 * o.c0,
            self.c1 * o.c0 + self.c0 * o.c1,
            self.c2 * o.c0 + 2.0 * self.c1 * o.c1 + self.c0 * o.c2,
            self.c3 * o.c0 + 3.0 * self.c2 * o.c1 + 3.0 * self.c1 * o.c2 + self.c0 * o.c3,
        )

    def __truediv__(self, o: "Jet3") -> "Jet3":
        if o.c0 == 0.0:
            raise ZeroDivisionError("jet division by zero value")
        g0 = o.c0
        h0 = self.c0 / g0
        h1 = (self.c1 - h0 * o.c1) / g0
        h2 = (self.c2 - h0 * o.c2 - 2.0 * h1 * o.c1) / g0
        h3 = (self.c3 - h0 * o.c3 - 3.0 * h1 * o.c2 - 3.0 * h2 * o.c1) / g0
        return Jet3(h0, h1, h2, h3)


def _compose(u: Jet3, f0: float, f1: float, f2: float, f3: float) -> Jet3:
    """Chain rule for a scalar function applied to an inner jet."""
    return Jet3(
        f0,
        f1 * u.c1,
        f2 * u.c1 * u.c1 + f1 * u.c2,
        f3 * u.c1 * u.c1 * u.c1 + 3.0 * f2 * u.c1 * u.c2 + f1 * u.c3,
    )


def _call_jet(node: Call, u: Jet3) -> Jet3:
    f = node.func
    x = u.c0
    if f in _TRIG and x in _INFS:
        raise _fail(node, f"{f} of an infinite value")
    if f == "sin":
        sn, cs = math.sin(x), math.cos(x)
        return _compose(u, sn, cs, -sn, -cs)
    if f == "cos":
        sn, cs = math.sin(x), math.cos(x)
        return _compose(u, cs, -sn, -cs, sn)
    if f == "tan":
        t = math.tan(x)
        d1 = 1.0 + t * t
        return _compose(u, t, d1, 2.0 * t * d1, d1 * (2.0 + 6.0 * t * t))
    if f == "sinh":
        sh, ch = _sinh(x), _cosh(x)
        return _compose(u, sh, ch, sh, ch)
    if f == "cosh":
        sh, ch = _sinh(x), _cosh(x)
        return _compose(u, ch, sh, ch, sh)
    if f == "exp":
        e = _exp(x)
        return _compose(u, e, e, e, e)
    if f == "ln":
        if x <= 0.0:
            raise _fail(node, "log of a non-positive value")
        inv = 1.0 / x
        return _compose(u, math.log(x), inv, -inv * inv, 2.0 * inv * inv * inv)
    if f == "sqrt":
        if x < 0.0:
            raise _fail(node, "square root of a negative value")
        if x == 0.0:
            # The zero function has a zero jet; anything else is a true
            # derivative singularity.
            if u.c1 == 0.0 and u.c2 == 0.0 and u.c3 == 0.0:
                return Jet3(0.0)
            raise _fail(node, "derivative of sqrt at zero")
        r = math.sqrt(x)
        return _compose(u, r, 0.5 / r, -0.25 / (x * r), 0.375 / (x * x * r))
    if f == "abs":
        if x > 0.0:
            sign = 1.0
        elif x < 0.0:
            sign = -1.0
        else:
            _kink(str(_fail(node, "abs() differentiated at its kink")))
            sign = 1.0
        return Jet3(abs(x), sign * u.c1, sign * u.c2, sign * u.c3)
    if f == "fresnelS":
        w = 0.5 * math.pi * x * x
        sn, cs = math.sin(w), math.cos(w)
        px = math.pi * x
        return _compose(u, fresnel_s(x), sn, px * cs, math.pi * cs - px * px * sn)
    # fresnelC
    w = 0.5 * math.pi * x * x
    sn, cs = math.sin(w), math.cos(w)
    px = math.pi * x
    return _compose(u, fresnel_c(x), cs, -px * sn, -math.pi * sn - px * px * cs)


def _pow_factors(node: BinOp, x: float, p: float) -> list[float]:
    """The value and first three derivatives of x**p in x."""
    if not float(p).is_integer() and x <= 0.0:
        raise _fail(node, "fractional power of a non-positive base")
    f = [0.0] * 4
    coeff = 1.0
    for order in range(4):
        if coeff == 0.0:  # an integer exponent runs out of derivatives
            break
        m = p - order
        if m < 0.0 and x == 0.0:
            raise _fail(node, "zero base with negative exponent")
        try:
            f[order] = coeff * x**m
        except OverflowError as exc:
            raise _fail(node, str(exc)) from exc
        coeff *= m
    return f


def _jet_eval(expr: Expr, var: str, s: float, v: float) -> Jet3:
    bit = _VAR_BITS[var]
    if not expr.reads & bit:  # flat: the value of eval_expr
        return Jet3(_evaluate(expr, s, v))
    if isinstance(expr, Var):
        return Jet3(s if var == "s" else v, 1.0)
    if isinstance(expr, Neg):
        return -_jet_eval(expr.arg, var, s, v)
    if isinstance(expr, Call):
        u = _jet_eval(expr.arg, var, s, v)
        try:
            return _call_jet(expr, u)
        except _ARITHMETIC as exc:
            raise _fail(expr, str(exc)) from exc
    left = _jet_eval(expr.left, var, s, v)
    right = _jet_eval(expr.right, var, s, v)
    op = expr.op
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        if not expr.right.reads & bit:
            b0 = right.c0
            return Jet3(left.c0 * b0, left.c1 * b0, left.c2 * b0, left.c3 * b0)
        if not expr.left.reads & bit:
            a0 = left.c0
            return Jet3(a0 * right.c0, a0 * right.c1, a0 * right.c2, a0 * right.c3)
        return left * right
    if op == "/":
        if right.c0 == 0.0:
            raise _fail(expr, "division by zero")
        if not expr.right.reads & bit:
            b0 = right.c0
            return Jet3(left.c0 / b0, left.c1 / b0, left.c2 / b0, left.c3 / b0)
        return left / right
    return _compose(left, *_pow_factors(expr, left.c0, right.c0))


def eval_jet3(expr: Expr, var: str, s: float, v: float) -> Jet3:
    """Value and exact partial derivatives of expr with respect to var.

    The other variable is held fixed.  ``var`` must be ``"s"`` or ``"v"``.
    A subtree that does not read var has the flat jet (value, 0, 0, 0):
    its value is exactly the one :func:`eval_expr` gives, and an abs() in
    it does not warn.  A power whose base reads var fails for a fractional
    exponent at a base <= 0, where its derivatives do not exist.  A product
    with a flat factor b takes c_k = a_k * b0 (or a0 * b_k), and a quotient
    by a flat divisor c_k = a_k / b0.
    """
    if var not in VARIABLES:
        raise ValueError(f"var must be one of {VARIABLES}, got {var!r}")
    return _jet_eval(expr, var, s, v)


# ---------------------------------------------------------------------------
# Normal components prescribed by the invariant
# ---------------------------------------------------------------------------


class ClassMismatch(G3PencilError):
    """The curve's classification does not match the requested special case."""


def isotropic_wedge(a: G3Vector, b: G3Vector) -> float:
    """Signed area spanned by the (y, z) parts of two isotropic vectors.

    Zero iff the vectors are parallel.  The G3 cross product of two
    isotropic vectors vanishes identically, so parallelism tests must use
    this planar wedge instead.
    """
    if a.x != 0.0 or b.x != 0.0:
        raise ValueError("wedge is defined for isotropic vectors only")
    return a.y * b.z - a.z * b.y


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


def _phis(
    kappa: float, tau: float, sigma_val: float, lam: float, sign: float, scaled: bool, s: float
) -> tuple[float, float]:
    """(phi2, phi3) of the construction rule at parameter s.

    The ratio is lam tau / kappa under the scaled rule and
    lam tau / (sigma kappa) under the plain rule.  Raises SigmaVanishes
    where sigma is not finite or |sigma| < 1e-12, and InfeasibleLambda
    where the radicand 1 - ratio^2 falls below -1e-12; a radicand down to
    that counts as zero.  These are the floors of synthesis's feasibility
    check, stated here apart from it.
    """
    if not 1e-12 <= abs(sigma_val) < math.inf:
        raise SigmaVanishes(s, sigma_val)
    if scaled:
        ratio = lam * tau / kappa
    else:
        ratio = lam * tau / (sigma_val * kappa)
    radicand = 1.0 - ratio * ratio
    if radicand < -1e-12:
        raise InfeasibleLambda(s, ratio)
    abs_tau = abs(tau)
    if scaled:
        phi2 = sigma_val * lam * abs_tau / kappa
    else:
        phi2 = lam * abs_tau / kappa
    if radicand < 0.0:
        radicand = 0.0
    phi3 = sign * sigma_val * math.sqrt(radicand)
    return phi2, phi3


def required_normal_components(curve: CurveSpec, spec: SynthesisSpec, s: float) -> NormalComponents:
    """Normal components that realize the invariant at parameter s.

    The spec's rule picks the formulas: the plain rule stated by the
    classical derivation, or the sigma-scaled rule under which the verified
    invariant equals lam exactly (see the docstring of g3pencil.pencil).
    """
    kappa, tau, _ = curvature_torsion(curve, s)
    sigma_val = eval_expr(spec.sigma, s, 0.0)
    phi2, phi3 = _phis(kappa, tau, sigma_val, spec.lam, spec.sign, spec.scaled, s)
    return NormalComponents(0.0, phi2, phi3, math.atan2(phi3, phi2))


_COROLLARY_KINDS = ("geodesic", "asymptotic", "helix", "salkowski", "anti-salkowski")

_KIND_TO_CLASS = {
    "helix": "general-helix",
    "salkowski": "salkowski",
    "anti-salkowski": "anti-salkowski",
}


def corollary_components(
    curve: CurveSpec, kind: str, spec: SynthesisSpec, s: float, s_range: tuple[float, float]
) -> NormalComponents:
    """Specializations of the plain rule for notable curve classes.

    geodesic fixes lam = 1 (the classical statement), asymptotic fixes
    lam = 0, and the helix / salkowski / anti-salkowski cases substitute
    the constant the classification finds (|tau|/kappa, kappa or tau).
    Note that the geodesic specialization does not generally make the unit
    normal parallel to the principal normal; the verdict of ``verify``
    applies the geometric criterion sin(theta) = 0 instead of lam = 1.
    """
    if kind not in _COROLLARY_KINDS:
        raise ValueError(f"kind must be one of {_COROLLARY_KINDS}")
    kappa, tau, _ = curvature_torsion(curve, s)
    sigma_val = eval_expr(spec.sigma, s, 0.0)
    if kind == "asymptotic":
        phi2, phi3 = _phis(kappa, tau, sigma_val, 0.0, spec.sign, False, s)
    elif kind == "geodesic":
        phi2, phi3 = _phis(kappa, tau, sigma_val, 1.0, spec.sign, False, s)
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
        phi2, phi3 = _phis(kappa_eff, tau_eff, sigma_val, spec.lam, spec.sign, False, s)
    return NormalComponents(0.0, phi2, phi3, math.atan2(phi3, phi2))


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


def frame_record(curve: CurveSpec, s: float) -> FrenetFrame:
    """The package's frame at s, ``curve.frame_parts``, as a record for vector arithmetic."""
    kappa, tau, t, n, b = frame_parts(curve, s)
    return FrenetFrame(s, G3Vector(*t), G3Vector(*n), G3Vector(*b), kappa, tau)


def darboux_reference(fr: FrenetFrame) -> DarbouxData:
    """w = t tau + b kappa, e0 = w / |tau| component by component, and the axis e0 x t."""
    w = fr.t * fr.tau + fr.b * fr.kappa
    abs_tau = abs(fr.tau)
    e0 = G3Vector(w.x / abs_tau, w.y / abs_tau, w.z / abs_tau)
    return DarbouxData(w, e0, cross(e0, fr.t))


def surface_point_reference(
    curve: CurveSpec,
    ms: MarchingScale,
    s: float,
    v: float,
    fr: FrenetFrame | None = None,
    base: G3Vector | None = None,
) -> G3Vector:
    """phi(s, v) from the frame, then the curve point, then alpha, beta and gamma;
    ``fr`` and ``base`` are the references at s, when the caller has them."""
    fr = fr if fr is not None else frenet_reference(curve, s)
    base = base if base is not None else point_reference(curve, s)
    a = eval_expr(ms.alpha, s, v)
    b = eval_expr(ms.beta, s, v)
    g = eval_expr(ms.gamma, s, v)
    return combine_on_frame(base, fr, a, b, g)


def surface_normal_reference(
    curve: CurveSpec, ms: MarchingScale, s: float, v: float, fr: FrenetFrame | None = None
) -> G3Vector:
    """phi_s x phi_v from the jets of alpha, beta and gamma in s, then in v;
    ``fr`` is the reference frame at s, when the caller has it."""
    fr = fr if fr is not None else frenet_reference(curve, s)
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

    phi is the package's surface point built on its own curve point r, so
    the gap is that of alpha t + beta n + gamma b at v0, after adding r and
    subtracting it again.
    """
    svals = spread_s_values(usable_domain(curve, ms, domain), n_samples)
    worst = 0.0
    for s in svals:
        r = point_parts(curve, s)
        p = surface_point_parts(curve, ms, s, domain.v0, base=r)
        worst = max(worst, abs(p[0] - r[0]), abs(p[1] - r[1]), abs(p[2] - r[2]))
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
    """Max residuals of the package's frame equations under central differences.

    Compares (t(s+h) - t(s-h)) / 2h against kappa n, and likewise n'
    against tau b and b' against -tau n.  Residuals shrink quadratically
    in h while truncation dominates rounding.
    """
    svals = spread_s_values(usable_s_intervals(curve, *s_range), n_samples, inset=h)
    r_t = r_n = r_b = 0.0
    for s in svals:
        kappa, tau, _, n, b = frame_parts(curve, s)
        n, b = G3Vector(*n), G3Vector(*b)
        plus, minus = frame_parts(curve, s + h), frame_parts(curve, s - h)
        scale = 0.5 / h
        # the differences of t, n and b
        dt, dn, db = ((G3Vector(*plus[k]) - G3Vector(*minus[k])) * scale for k in (2, 3, 4))
        r_t = max(r_t, isotropic_norm(G3Vector(0.0, dt.y, dt.z) - kappa * n))
        r_n = max(r_n, isotropic_norm(dn - tau * b))
        r_b = max(r_b, isotropic_norm(db + tau * n))
    return FrenetResiduals(r_t, r_n, r_b)


def normal_consistency(
    curve: CurveSpec,
    ms: MarchingScale,
    domain: ParamDomain,
    n_samples: int = 40,
    nv: int = 9,
) -> float:
    """Max angle between the package's analytic and finite difference normals on a grid.

    Samples ``n_samples`` values of s by ``nv`` values of v.  Samples where
    either normal is degenerate, or where the analytic jets cross an abs()
    kink (a KinkWarning fires), are flagged and skipped.
    """
    h_s, h_v = _fd_steps(domain)
    svals = spread_s_values(usable_domain(curve, ms, domain), n_samples, inset=h_s)
    v_values = uniform_grid(domain.v_min, domain.v_max, nv)
    worst = 0.0
    for s in svals:
        frame, r = frame_parts(curve, s), point_parts(curve, s)
        for v in v_values:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", KinkWarning)
                eta_a = G3Vector(*normal_parts(ms, s, v, frame))
                kinked = any(issubclass(w.category, KinkWarning) for w in caught)
            if kinked:
                warnings.warn(
                    f"kink sample flagged at (s, v) = ({s:g}, {v:g})", KinkWarning
                )
                continue
            eta_f = G3Vector(*_fd_normal(curve, ms, s, v, h_s, h_v, frame, r))
            if not (
                DEGENERATE_NORM <= isotropic_norm(eta_a) < math.inf
                and DEGENERATE_NORM <= isotropic_norm(eta_f) < math.inf
            ):
                continue  # tiny, infinite or NaN
            ua = normalize_isotropic(eta_a)
            uf = normalize_isotropic(eta_f)
            angle = math.atan2(abs(isotropic_wedge(ua, uf)), dot(ua, uf))
            worst = max(worst, angle)
    return worst


# ---------------------------------------------------------------------------
# The invariant report tree-walked: the reference of dtype_report
# ---------------------------------------------------------------------------


def fd_normal_reference(
    curve: CurveSpec,
    ms: MarchingScale,
    s: float,
    v: float,
    h_s: float,
    h_v: float,
    fr: FrenetFrame,
    base: G3Vector,
) -> G3Vector:
    """phi_s x phi_v by central differences of tree-walked surface points; the
    points at v +- h_v share ``fr`` and ``base``, the references at s."""
    ps = surface_point_reference(curve, ms, s + h_s, v) - surface_point_reference(
        curve, ms, s - h_s, v
    )
    pv = surface_point_reference(curve, ms, s, v + h_v, fr, base) - surface_point_reference(
        curve, ms, s, v - h_v, fr, base
    )
    return cross(ps * (0.5 / h_s), pv * (0.5 / h_v))


def dtype_report_reference(
    curve: CurveSpec,
    ms: MarchingScale,
    domain: ParamDomain,
    n_samples: int = 200,
    mode: str = "analytic",
    tol: float | None = None,
) -> DTypeReport:
    """:func:`g3pencil.verify.dtype_report` with each sample tree-walked.

    Per sample: :func:`frenet_reference`, then the axis of
    :func:`darboux_reference`, then :func:`surface_normal_reference` on that
    frame or, in fd mode, :func:`fd_normal_reference` on the points of
    :func:`surface_point_reference`, then ``isotropic_norm``,
    ``normalize_isotropic`` and ``dot``.  No frame, axis, normal or point
    comes from the package's code, so the report checks the package's
    frame, Darboux and normal formulas as well as its loop: its operands,
    their order, the flags and the failures.  The package must give the
    same report bit for bit, and fail and warn as this one does, in the
    same order.  Only the sample grid, the fd steps and the verdict are the
    package's own.
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
        fr = frenet_reference(curve, s)
        axis = darboux_reference(fr).d_axis
        if mode == "analytic":
            eta = surface_normal_reference(curve, ms, s, v0, fr)
        else:
            base = point_reference(curve, s)
            eta = fd_normal_reference(curve, ms, s, v0, h_s, h_v, fr, base)
        if not DEGENERATE_NORM <= isotropic_norm(eta) < math.inf:  # tiny, infinite or NaN
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
