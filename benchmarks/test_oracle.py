"""Tests of the benchmark's closed-form oracle (run: python -m pytest benchmarks).

The oracle must stand on its own: its curvature and torsion are recomputed
here by finite differences of its own position function, and its invariant
is compared with values worked out by hand.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402

H = 1e-2


def _fd_derivatives(curve, s):
    """F'', F''' from central differences of the oracle's own F(s)."""
    pos = curve.positions([s - 2 * H, s - H, s, s + H, s + 2 * H])
    fm2, fm1, f0, fp1, fp2 = (pos[x] for x in (s - 2 * H, s - H, s, s + H, s + 2 * H))
    d2 = (fp1 - 2 * f0 + fm1) / (H * H)
    d3 = (fp2 - 2 * fp1 + 2 * fm1 - fm2) / (2 * H**3)
    return d2, d3


@pytest.mark.parametrize(
    "curve, kappa, tau",
    [
        (oracle.FRESNEL_HELIX, lambda s: abs(s), lambda s: s / 4),
        (oracle.ANTI_SALKOWSKI, lambda s: math.cosh(s / 4), lambda s: 1.0),
    ],
)
@pytest.mark.parametrize("s", [-5.9, -2.3, -0.7, 0.4, 1.9, 6.1])
def test_kappa_tau_from_own_position(curve, kappa, tau, s):
    d2, d3 = _fd_derivatives(curve, s)
    k = abs(d2)
    t = (d2.conjugate() * d3).imag / (k * k)
    assert k == pytest.approx(kappa(s), rel=1e-4)
    assert t == pytest.approx(tau(s), rel=1e-3, abs=1e-3)
    assert curve.kappa(s) == pytest.approx(kappa(s), rel=1e-13)
    assert curve.tau(s) == pytest.approx(tau(s), rel=1e-12)
    assert curve.tau(s) / curve.kappa(s) == pytest.approx(curve.tau_over_kappa(s), rel=1e-12)


@pytest.mark.parametrize("curve", oracle.CURVES.values(), ids=lambda c: c.name)
@pytest.mark.parametrize("s", [-4.4, -0.3, 0.8, 5.5])
def test_tangent_is_derivative_of_position(curve, s):
    pos = curve.positions([s - H, s + H])
    fd = (pos[s + H] - pos[s - H]) / (2 * H)
    assert abs(fd - curve.d1(s)) < 1e-3 * max(1.0, abs(curve.d1(s)))


def test_helix_position_matches_tangent_components():
    # F' = 4 sin(s^2/8) - 4i cos(s^2/8), the stated tangent of the example
    s = 1.7
    d1 = oracle.FRESNEL_HELIX.d1(s)
    assert d1.real == pytest.approx(4 * math.sin(s * s / 8), rel=1e-15)
    assert d1.imag == pytest.approx(-4 * math.cos(s * s / 8), rel=1e-15)
    # quadrature agrees with itself over different splittings of [0, s]
    whole = oracle.FRESNEL_HELIX.position(3.0)
    parts = oracle.integrate(oracle.FRESNEL_HELIX.d1, 0.0, 1.1) + oracle.integrate(
        oracle.FRESNEL_HELIX.d1, 1.1, 3.0
    )
    assert abs(whole - parts) < 1e-13


def test_anti_salkowski_closed_position_matches_quadrature():
    curve = oracle.ANTI_SALKOWSKI
    for s in (-3.0, 0.5, 4.0):
        quad = curve.position(0.0) + oracle.integrate(curve.d1, 0.0, s)
        assert abs(quad - curve.position(s)) < 1e-12


def _figure_pencil(curve, lam, sigma, a, b, c):
    return oracle.Pencil(
        curve=oracle.CURVES[curve], lam=lam, sigma=sigma, sign=1.0, l="1",
        a=a, b=b, c=c, v0=0.0,
    )


def test_lambda_hat_hand_values():
    fig1b = _figure_pencil("fresnel-helix", 0.5, "1", 1.0, 1.0, 1.0)
    fig1c = _figure_pencil("fresnel-helix", 0.5, "1", 1 / 3, 1 / 5, 1.0)
    fig1f = _figure_pencil("anti-salkowski", math.sqrt(3) / 2, "1/cosh(s/4)", 1, 1, 1)
    # fig1c: 0.5 / sqrt(1/25 + (1 - 1/25) / 64) = 2.13200716...
    hand = 0.5 / math.sqrt(1 / 25 + (24 / 25) * 0.25 * 0.25 / 4)
    assert hand == pytest.approx(2.1320071635561044, rel=1e-15)
    for s in (-6.0, -1.0, 0.3, 5.0):
        assert fig1b.lambda_hat(s) == pytest.approx(0.5, rel=1e-15)
        assert fig1c.lambda_hat(s) == pytest.approx(hand, rel=1e-14)
        assert fig1f.lambda_hat(s) == pytest.approx(math.sqrt(3) / 2, rel=1e-15)


def test_lambda_hat_matches_normal_construction():
    # lam_hat = (kappa/|tau|) c phi2 / sqrt(c^2 phi2^2 + b^2 phi3^2)
    p = _figure_pencil("anti-salkowski", 0.7, "exp(s/8)", 1.0, 3.0, 5.0)
    for s in (-2.0, 0.0, 1.5):
        phi2, phi3 = p.phis(s)
        direct = (1 / abs(p.curve.tau_over_kappa(s))) * p.c * phi2 / math.hypot(
            p.c * phi2, p.b * phi3
        )
        assert p.lambda_hat(s) == pytest.approx(direct, rel=1e-14)


def test_verdicts():
    svals = [-2.0 + 0.1 * i for i in range(41)]
    fig1g = _figure_pencil("anti-salkowski", math.sqrt(3) / 2, "1/cosh(s/4)", 1, 3, 5)
    assert oracle.verdict(fig1g, svals, 1e-5).classification == "not-d-type"
    flat = _figure_pencil("anti-salkowski", 0.6, "2", 1, -2, 2)
    assert oracle.verdict(flat, svals, 1e-9).classification == "general-d-type"
    zero = _figure_pencil("anti-salkowski", 0.0, "1", 1, 2, 3)
    assert oracle.verdict(zero, svals, 1e-9).classification == "asymptotic"
    helix_s = [x for x in svals if abs(x) >= 0.1]
    geo = _figure_pencil("fresnel-helix", 4.0, "1", 1, 2, 3)
    assert oracle.verdict(geo, helix_s, 1e-9).classification == "geodesic"
    flip = _figure_pencil("fresnel-helix", 0.5, "s", 1, 2, 3)
    assert oracle.verdict(flip, helix_s, 1e-9).classification == "not-d-type"


def test_base_line_is_the_curve():
    p = _figure_pencil("fresnel-helix", 1.5, "2+sin(s)", 2.0, 0.5, 3.0)
    pts = p.points([(s, 0.0) for s in (-3.0, 0.5, 2.0)])
    for s, (x, y, z) in zip((-3.0, 0.5, 2.0), pts):
        f = p.curve.position(s)
        assert x == s
        assert (y, z) == pytest.approx((f.real, f.imag), abs=1e-13)
