import math

import pytest

from g3pencil.curve import (
    anti_salkowski,
    classify_curve,
    darboux,
    explicit_curve,
    frenet,
    fresnel_helix,
    point,
    sample_s_values,
    usable_s_intervals,
)
from g3pencil.errors import CurvatureVanishes, TorsionVanishes
from g3pencil.exprjet import eval_expr
from g3pencil.g3core import cross, dot, isotropic_norm
from oracles import central_diff


@pytest.fixture(scope="module")
def helix():
    return fresnel_helix()


@pytest.fixture(scope="module")
def antis():
    return anti_salkowski()


class TestPoints:
    def test_helix_starts_at_origin(self, helix):
        p = point(helix, 0.0)
        assert (p.x, p.y, p.z) == (0.0, 0.0, -0.0)

    def test_anti_salkowski_at_zero(self, antis):
        p = point(antis, 0.0)
        assert p.x == 0.0
        assert p.y == pytest.approx(-240.0 / 289.0, abs=1e-15)
        assert p.z == 0.0

    def test_explicit_curve(self):
        c = explicit_curve("s^2", "s^3")
        p = point(c, 1.0)
        assert (p.x, p.y, p.z) == (1.0, 1.0, 1.0)


class TestFrames:
    def test_helix_frame_at_two(self, helix):
        fr = frenet(helix, 2.0)
        assert fr.kappa == pytest.approx(2.0, abs=1e-12)
        assert fr.tau == pytest.approx(0.5, abs=1e-12)
        assert fr.t.x == 1.0
        assert fr.t.y == pytest.approx(4 * math.sin(0.5), abs=1e-12)
        assert fr.t.z == pytest.approx(-4 * math.cos(0.5), abs=1e-12)
        assert fr.n.y == pytest.approx(math.cos(0.5), abs=1e-12)
        assert fr.n.z == pytest.approx(math.sin(0.5), abs=1e-12)
        assert fr.b.y == pytest.approx(-math.sin(0.5), abs=1e-12)
        assert fr.b.z == pytest.approx(math.cos(0.5), abs=1e-12)

    def test_anti_salkowski_frame_at_zero(self, antis):
        fr = frenet(antis, 0.0)
        assert fr.kappa == pytest.approx(1.0, abs=1e-14)
        assert fr.tau == pytest.approx(1.0, abs=1e-14)
        assert fr.n.y == pytest.approx(1.0, abs=1e-14)
        assert fr.n.z == pytest.approx(0.0, abs=1e-14)
        assert fr.b.y == pytest.approx(0.0, abs=1e-14)
        assert fr.b.z == pytest.approx(1.0, abs=1e-14)

    def test_helix_curvature_vanishes_at_zero(self, helix):
        with pytest.raises(CurvatureVanishes):
            frenet(helix, 0.0)

    @pytest.mark.parametrize("s", [0.2, 0.9, 2.7, 5.5])
    def test_frame_invariants(self, helix, s):
        fr = frenet(helix, s)
        assert fr.t.x == 1.0
        assert isotropic_norm(fr.n) == pytest.approx(1.0, abs=1e-14)
        assert isotropic_norm(fr.b) == pytest.approx(1.0, abs=1e-14)
        assert dot(fr.n, fr.b) == pytest.approx(0.0, abs=1e-15)
        assert isotropic_norm(cross(fr.t, fr.n) - fr.b) <= 1e-15
        assert isotropic_norm(cross(fr.b, fr.t) - fr.n) <= 1e-15

    def test_closed_forms_match_frames(self, helix, antis):
        for curve, lo, hi in ((helix, 0.15, 6.0), (antis, -3.0, 3.0)):
            for i in range(50):
                s = lo + (hi - lo) * i / 49
                fr = frenet(curve, s)
                assert eval_expr(curve.kappa_form, s, 0.0) == pytest.approx(
                    fr.kappa, rel=1e-12
                )
                assert eval_expr(curve.tau_form, s, 0.0) == pytest.approx(
                    fr.tau, rel=1e-12, abs=1e-12
                )

    def test_printed_variant_has_different_invariants(self):
        printed = fresnel_helix(as_printed=True)
        fr = frenet(printed, 2.0)
        assert fr.kappa == pytest.approx(2 * math.sqrt(2) * 2.0, rel=1e-12)
        assert fr.tau == pytest.approx(1.0, rel=1e-12)
        # still a general helix, but with a different ratio
        cls = classify_curve(printed, (0.5, 6.0))
        assert cls.kind == "general-helix"
        assert cls.constant == pytest.approx(1.0 / (4.0 * math.sqrt(2)), rel=1e-9)


class TestFrenetEquations:
    @pytest.mark.parametrize(
        "name,srange",
        [("helix", (0.5, 6.0)), ("antis", (-3.0, 3.0))],
    )
    def test_derivatives_match_frame_equations(self, name, srange, helix, antis):
        curve = helix if name == "helix" else antis
        h = 1e-5
        lo, hi = srange
        for i in range(100):
            s = lo + h + (hi - lo - 2 * h) * i / 99
            fr = frenet(curve, s)
            bound = 1e-6 * (1.0 + fr.kappa + abs(fr.tau))
            for axis in ("y", "z"):
                dt = central_diff(lambda x: getattr(frenet(curve, x).t, axis), s, h)
                dn = central_diff(lambda x: getattr(frenet(curve, x).n, axis), s, h)
                db = central_diff(lambda x: getattr(frenet(curve, x).b, axis), s, h)
                assert abs(dt - fr.kappa * getattr(fr.n, axis)) <= bound
                assert abs(dn - fr.tau * getattr(fr.b, axis)) <= bound
                assert abs(db + fr.tau * getattr(fr.n, axis)) <= bound


class TestDarboux:
    def test_helix_axis_is_four_n(self, helix):
        for s in (0.5, 2.0, 4.4):
            fr = frenet(helix, s)
            dd = darboux(fr)
            assert isotropic_norm(dd.e0 - (fr.t + 4.0 * fr.b)) <= 1e-12
            assert isotropic_norm(dd.d_axis - 4.0 * fr.n) <= 1e-12

    def test_anti_salkowski_axis_at_zero(self, antis):
        fr = frenet(antis, 0.0)
        dd = darboux(fr)
        assert isotropic_norm(dd.e0 - (fr.t + fr.b)) <= 1e-14
        assert isotropic_norm(dd.d_axis - fr.n) <= 1e-14

    def test_unit_axis_when_kappa_equals_tau(self, antis):
        fr = frenet(antis, 0.0)  # kappa = tau = 1 here
        dd = darboux(fr)
        assert dot(dd.d_axis, dd.d_axis) == pytest.approx(1.0, abs=1e-14)

    def test_axis_identity_against_cross_product(self, helix, antis):
        for curve, lo, hi in ((helix, 0.3, 6.0), (antis, -3.0, 3.0)):
            for i in range(40):
                s = lo + (hi - lo) * i / 39
                fr = frenet(curve, s)
                dd = darboux(fr)
                resid = dd.d_axis - (fr.kappa / abs(fr.tau)) * fr.n
                assert isotropic_norm(resid) <= 1e-12


class TestClassification:
    def test_helix(self, helix):
        cls = classify_curve(helix, (0.5, 6.0))
        assert cls.kind == "general-helix"
        assert cls.constant == pytest.approx(0.25, abs=1e-12)

    def test_anti_salkowski(self, antis):
        cls = classify_curve(antis, (-3.0, 3.0))
        assert cls.kind == "anti-salkowski"
        assert cls.constant == pytest.approx(1.0, abs=1e-12)

    def test_generic_curve(self):
        c = explicit_curve("s^3", "s^4")
        assert classify_curve(c, (0.5, 2.0)).kind == "generic"

    def test_planar_curve_raises_torsion_vanishes(self):
        c = explicit_curve("s^2", "0")
        with pytest.raises(TorsionVanishes):
            classify_curve(c, (0.5, 2.0))

    def test_minimum_sample_count(self, helix):
        with pytest.raises(ValueError):
            classify_curve(helix, (0.5, 6.0), samples=8)


class TestGuards:
    def test_full_interval_preserved_when_clean(self, antis):
        assert usable_s_intervals(antis, -3.0, 3.0) == [(-3.0, 3.0)]

    def test_exact_guard_boundary_survives(self, helix):
        assert usable_s_intervals(helix, 0.1, 2 * math.pi) == [(0.1, 2 * math.pi)]

    def test_curvature_zero_is_excised(self, helix):
        intervals = usable_s_intervals(helix, -2 * math.pi, 2 * math.pi)
        assert len(intervals) == 2
        for a, b in intervals:
            assert abs(a) >= 0.09 or abs(b) >= 0.09
        for a, b in intervals:
            for x in (a, b):
                if abs(x) < 6.2:
                    assert abs(x) >= 0.09

    def test_nan_jets_give_no_frame_and_no_usable_interval(self):
        # exp(s) overflows above s = 709.78, so exp(s) - exp(s) is NaN there;
        # below it the torsion is under KAPPA_MIN: nothing is usable
        c = explicit_curve("exp(s) - exp(s) + s^3/6 + sin(s)", "cosh(s/2)")
        with pytest.raises(CurvatureVanishes):
            frenet(c, 720.0)
        assert usable_s_intervals(c, 700.0, 720.0) == []

    def test_sample_values_cover_both_lobes(self, helix):
        values = sample_s_values(helix, -2 * math.pi, 2 * math.pi, 64)
        assert len(values) == 64
        assert min(values) < -1.0 and max(values) > 1.0
        assert all(abs(s) >= 0.09 for s in values)
