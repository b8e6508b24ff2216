"""Closed-form reference values for the benchmark's output checks.

Nothing here imports g3pencil: every value is computed from the stated
closed forms of the two built-in curves and of the scaled synthesis rule,
so the checks compare the program against mathematics, not against saved
copies of its own output.

A curve r(s) = (s, f(s), g(s)) is handled through the complex function
F(s) = f(s) + i g(s).  Its derivatives give the Galilean frame

    t = (1, F'),  n = (0, F'' / kappa),  b = (0, i F'' / kappa),
    kappa = |F''|,  tau = Im(conj(F'') F''') / kappa^2,

where a complex number z stands for the isotropic pair (Re z, Im z).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

# Guard band of the frame: samples with curvature below this are excised.
FRAME_GUARD = 0.1


def _gauss_legendre(n: int) -> list[tuple[float, float]]:
    """Nodes and weights on [-1, 1] by Newton iteration on P_n."""
    rule = []
    for k in range(1, n + 1):
        x = math.cos(math.pi * (k - 0.25) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            step = p1 / dp
            x -= step
            if abs(step) < 1e-16:
                break
        rule.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    return rule


_GL10 = _gauss_legendre(10)
_PANEL = 0.25


def integrate(f: Callable[[float], complex], a: float, b: float) -> complex:
    """Composite 10-point Gauss-Legendre quadrature of f over [a, b]."""
    if a == b:
        return 0j
    panels = max(1, math.ceil(abs(b - a) / _PANEL))
    width = (b - a) / panels
    total = 0j
    for p in range(panels):
        mid = a + (p + 0.5) * width
        half = 0.5 * width
        total += half * sum(w * f(mid + half * x) for x, w in _GL10)
    return total


@dataclass(frozen=True)
class Curve:
    """A built-in curve: F', F'', F''' by hand, F by closed form or quadrature."""

    name: str
    d1: Callable[[float], complex]
    d2: Callable[[float], complex]
    d3: Callable[[float], complex]
    tau_over_kappa: Callable[[float], float]
    closed_position: Callable[[float], complex] | None = None

    def positions(self, svals) -> dict[float, complex]:
        """F(s) for every s given; quadrature runs outward from F(0) = 0."""
        if self.closed_position is not None:
            return {s: self.closed_position(s) for s in svals}
        out: dict[float, complex] = {}
        for side in (sorted(x for x in set(svals) if x >= 0.0),
                     sorted((x for x in set(svals) if x < 0.0), reverse=True)):
            prev, acc = 0.0, 0j
            for s in side:
                acc += integrate(self.d1, prev, s)
                out[s] = acc
                prev = s
        return out

    def position(self, s: float) -> complex:
        return self.positions([s])[s]

    def kappa(self, s: float) -> float:
        return abs(self.d2(s))

    def tau(self, s: float) -> float:
        d2 = self.d2(s)
        return (d2.conjugate() * self.d3(s)).imag / (abs(d2) ** 2)


def _helix_phase(s: float) -> complex:
    return cmath.exp(1j * s * s / 8.0)


# Tangent (1, 4 sin(s^2/8), -4 cos(s^2/8)), so F' = -4i e^{i s^2/8};
# kappa = |s| and tau = s/4.  F(0) = 0 because both Fresnel integrals
# vanish at 0.
FRESNEL_HELIX = Curve(
    name="fresnel-helix",
    d1=lambda s: -4j * _helix_phase(s),
    d2=lambda s: s * _helix_phase(s),
    d3=lambda s: (1.0 + 0.25j * s * s) * _helix_phase(s),
    tau_over_kappa=lambda s: 0.25 * s / abs(s),
)

# f + i g = -16/289 e^{is} (15 cosh(s/4) + 8i sinh(s/4));
# kappa = cosh(s/4) and tau = 1.
ANTI_SALKOWSKI = Curve(
    name="anti-salkowski",
    d1=lambda s: -16.0 / 17.0 * cmath.exp(1j * s) * (1j * math.cosh(s / 4) - math.sinh(s / 4) / 4),
    d2=lambda s: cmath.exp(1j * s) * math.cosh(s / 4),
    d3=lambda s: cmath.exp(1j * s) * (1j * math.cosh(s / 4) + math.sinh(s / 4) / 4),
    tau_over_kappa=lambda s: 1.0 / math.cosh(s / 4),
    closed_position=lambda s: -16.0 / 289.0 * cmath.exp(1j * s)
    * (15.0 * math.cosh(s / 4) + 8j * math.sinh(s / 4)),
)

CURVES = {c.name: c for c in (FRESNEL_HELIX, ANTI_SALKOWSKI)}


# Expressions the benchmark writes into configurations, with their values.
# The oracle reads configurations through this table instead of parsing the
# program's expression grammar.
FORMS: dict[str, Callable[[float], float]] = {
    "1": lambda s: 1.0,
    "2": lambda s: 2.0,
    "0.5": lambda s: 0.5,
    "-1": lambda s: -1.0,
    "-2": lambda s: -2.0,
    "s": lambda s: s,
    "1/cosh(s/4)": lambda s: 1.0 / math.cosh(s / 4),
    "exp(s/8)": lambda s: math.exp(s / 8),
    "1+s^2/16": lambda s: 1.0 + s * s / 16,
    "2+sin(s)": lambda s: 2.0 + math.sin(s),
    "cosh(s/3)": lambda s: math.cosh(s / 3),
    "-1-s^2/8": lambda s: -1.0 - s * s / 8,
}


@dataclass(frozen=True)
class Pencil:
    """A synthesized pencil member as a configuration describes it."""

    curve: Curve
    lam: float
    sigma: str
    sign: float
    l: str
    a: float
    b: float
    c: float
    v0: float

    def phis(self, s: float) -> tuple[float, float]:
        """Scaled rule: phi2 = sigma lam |tau|/kappa, phi3 = sign sigma sqrt(1-(lam tau/kappa)^2)."""
        sig = FORMS[self.sigma](s)
        q = self.curve.tau_over_kappa(s)
        phi2 = sig * self.lam * abs(q)
        phi3 = self.sign * sig * math.sqrt(max(0.0, 1.0 - (self.lam * q) ** 2))
        return phi2, phi3

    def lambda_hat(self, s: float) -> float:
        """sign(sigma) c lam / sqrt(b^2 + (c^2 - b^2) lam^2 tau^2 / kappa^2)."""
        q = self.curve.tau_over_kappa(s)
        sig = FORMS[self.sigma](s)
        lq2 = (self.lam * q) ** 2
        return math.copysign(1.0, sig) * self.c * self.lam / math.sqrt(
            self.b * self.b + (self.c * self.c - self.b * self.b) * lq2
        )

    def is_geodesic(self, s: float) -> bool:
        """The binormal component phi3 vanishes: |lam tau / kappa| = 1."""
        return abs(1.0 - (self.lam * self.curve.tau_over_kappa(s)) ** 2) <= 1e-12

    def points(self, sv: list[tuple[float, float]]) -> list[tuple[float, float, float]]:
        """phi(s, v) = r + alpha t + beta n + gamma b for each (s, v), with
        X = a (v - v0), Y = b phi3 (v - v0), Z = -c phi2 (v - v0)."""
        pos = self.curve.positions([s for s, _ in sv])
        out = []
        for s, v in sv:
            phi2, phi3 = self.phis(s)
            dv = v - self.v0
            alpha = FORMS[self.l](s) * self.a * dv
            beta = self.b * phi3 * dv
            gamma = -self.c * phi2 * dv
            d1 = self.curve.d1(s)
            d2 = self.curve.d2(s)
            unit_n = d2 / abs(d2)
            iso = pos[s] + alpha * d1 + beta * unit_n + gamma * 1j * unit_n
            out.append((s + alpha, iso.real, iso.imag))
        return out


def pencil_from_config(doc: dict) -> Pencil:
    """The oracle's reading of a synthesis configuration document."""
    synth = doc["marching_scale"]["synthesis"]
    control = doc.get("control", {})
    return Pencil(
        curve=CURVES[doc["curve"]],
        lam=float(synth["lambda"]),
        sigma=synth["sigma"],
        sign=1.0 if synth.get("sign", "+") == "+" else -1.0,
        l=synth["l"],
        a=float(control.get("a", 1.0)),
        b=float(control.get("b", 1.0)),
        c=float(control.get("c", 1.0)),
        v0=float(doc["domain"]["v0"]),
    )


@dataclass(frozen=True)
class Verdict:
    classification: str
    mean: float
    deviation: float
    values: list[float]


def verdict(pencil: Pencil, svals: list[float], tol: float) -> Verdict:
    """The invariant report the program must produce on these samples."""
    values = [pencil.lambda_hat(s) for s in svals]
    mean = math.fsum(values) / len(values)
    deviation = max(abs(x - mean) for x in values)
    if deviation > tol:
        kind = "not-d-type"
    elif abs(mean) <= max(tol, 1e-12):
        kind = "asymptotic"
    elif all(pencil.is_geodesic(s) for s in svals):
        kind = "geodesic"
    else:
        kind = "general-d-type"
    return Verdict(kind, mean, deviation, values)
