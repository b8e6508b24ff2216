import math

import pytest
from hypothesis import assume, example, given, strategies as st

from g3pencil.curve import (
    CurveSpec,
    anti_salkowski,
    classify_curve,
    curvature_torsion,
    darboux_parts,
    frame_parts,
    fresnel_helix,
    fresnel_helix_printed,
    point_parts,
    spread_s_values,
    uniform_grid,
    usable_s_intervals,
)
from g3pencil.errors import CurvatureVanishes, EmptyDomain, TorsionVanishes
from g3pencil.exprjet import parse
from oracles import (
    DarbouxData,
    G3Vector,
    central_diff,
    cross,
    dot,
    eval_expr,
    frame_record,
    frenet_reference,
    isotropic_norm,
)


def darboux(fr):
    """The package's Darboux data of a frame record, as records."""
    return DarbouxData(*(G3Vector(*v) for v in darboux_parts(fr.parts())))


@pytest.fixture(scope="module")
def helix():
    return fresnel_helix()


@pytest.fixture(scope="module")
def antis():
    return anti_salkowski()


class TestPoints:
    def test_helix_starts_at_origin(self, helix):
        assert point_parts(helix, 0.0) == (0.0, 0.0, -0.0)

    def test_anti_salkowski_at_zero(self, antis):
        x, y, z = point_parts(antis, 0.0)
        assert x == 0.0
        assert y == pytest.approx(-240.0 / 289.0, abs=1e-15)
        assert z == 0.0

    def test_explicit_curve(self):
        c = CurveSpec("explicit", parse("s^2"), parse("s^3"))
        assert point_parts(c, 1.0) == (1.0, 1.0, 1.0)


class TestFrames:
    def test_helix_frame_at_two(self, helix):
        fr = frame_record(helix, 2.0)
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
        fr = frame_record(antis, 0.0)
        assert fr.kappa == pytest.approx(1.0, abs=1e-14)
        assert fr.tau == pytest.approx(1.0, abs=1e-14)
        assert fr.n.y == pytest.approx(1.0, abs=1e-14)
        assert fr.n.z == pytest.approx(0.0, abs=1e-14)
        assert fr.b.y == pytest.approx(0.0, abs=1e-14)
        assert fr.b.z == pytest.approx(1.0, abs=1e-14)

    def test_helix_curvature_vanishes_at_zero(self, helix):
        with pytest.raises(CurvatureVanishes):
            frame_parts(helix, 0.0)

    @pytest.mark.parametrize("s", [0.2, 0.9, 2.7, 5.5])
    def test_frame_invariants(self, helix, s):
        fr = frame_record(helix, s)
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
                fr = frame_record(curve, s)
                assert eval_expr(curve.kappa_form, s, 0.0) == pytest.approx(
                    fr.kappa, rel=1e-12
                )
                assert eval_expr(curve.tau_form, s, 0.0) == pytest.approx(
                    fr.tau, rel=1e-12, abs=1e-12
                )

    def test_printed_variant_has_different_invariants(self):
        printed = fresnel_helix_printed()
        fr = frame_record(printed, 2.0)
        assert fr.kappa == pytest.approx(2 * math.sqrt(2) * 2.0, rel=1e-12)
        assert fr.tau == pytest.approx(1.0, rel=1e-12)
        # still a general helix, but with a different ratio
        cls = classify_curve(printed, (0.5, 6.0))
        assert cls.kind == "general-helix"
        assert cls.constant == pytest.approx(1.0 / (4.0 * math.sqrt(2)), rel=1e-9)

    def test_curvature_torsion_is_the_frames(self, helix, antis):
        # bit for bit where the frame exists, and the same exception with
        # the same text where it does not: a curvature that vanishes or is
        # NaN, a torsion below the floor, NaN or infinite (at s = 800,
        # f'' = 2e308 is inf and exp(s)'' is NaN, so kappa is inf, tau NaN)
        curves = [
            (helix, [0.0, 1e-9, 0.5, -2.0, 6.0]),
            (antis, [0.0, -3.0, 2.5]),
            (CurveSpec("planar", parse("s^2/2"), parse("s^2/3")), [1.0]),
            (CurveSpec("nan", parse("exp(s) - exp(s) + s^3/6"), parse("cosh(s/2)")), [720.0]),
            (CurveSpec("nan-tau", parse("1e308*s^2"), parse("exp(s)")), [800.0]),
            (CurveSpec("inf-tau", parse("1e-10*fresnelS(s)"), parse("s^2/2")), [5e153]),
        ]
        outcomes = []
        for curve, s_values in curves:
            for s in s_values:
                try:
                    kappa, tau, *_ = frame_parts(curve, s)
                except (CurvatureVanishes, TorsionVanishes) as exc:
                    with pytest.raises(type(exc)) as info:
                        curvature_torsion(curve, s)
                    assert str(info.value) == str(exc)
                    outcomes.append(str(exc).split(" at ")[0])
                    continue
                want = curvature_torsion(curve, s)
                assert (kappa.hex(), tau.hex()) == (want[0].hex(), want[1].hex())
                outcomes.append("frame")
        assert outcomes == [
            "curvature 0 below floor",
            "curvature 1e-09 below floor",
            *["frame"] * 6,
            "torsion 0 below floor",
            "curvature nan below floor",
            "torsion nan is not finite",
            "torsion -inf is not finite",
        ]


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
            fr = frame_record(curve, s)
            bound = 1e-6 * (1.0 + fr.kappa + abs(fr.tau))
            for axis in ("y", "z"):
                dt = central_diff(lambda x: getattr(frame_record(curve, x).t, axis), s, h)
                dn = central_diff(lambda x: getattr(frame_record(curve, x).n, axis), s, h)
                db = central_diff(lambda x: getattr(frame_record(curve, x).b, axis), s, h)
                assert abs(dt - fr.kappa * getattr(fr.n, axis)) <= bound
                assert abs(dn - fr.tau * getattr(fr.b, axis)) <= bound
                assert abs(db + fr.tau * getattr(fr.n, axis)) <= bound


class TestDarboux:
    def test_helix_axis_is_four_n(self, helix):
        for s in (0.5, 2.0, 4.4):
            fr = frame_record(helix, s)
            dd = darboux(fr)
            assert isotropic_norm(dd.e0 - (fr.t + 4.0 * fr.b)) <= 1e-12
            assert isotropic_norm(dd.d_axis - 4.0 * fr.n) <= 1e-12

    def test_anti_salkowski_axis_at_zero(self, antis):
        fr = frame_record(antis, 0.0)
        dd = darboux(fr)
        assert isotropic_norm(dd.e0 - (fr.t + fr.b)) <= 1e-14
        assert isotropic_norm(dd.d_axis - fr.n) <= 1e-14

    def test_unit_axis_when_kappa_equals_tau(self, antis):
        fr = frame_record(antis, 0.0)  # kappa = tau = 1 here
        dd = darboux(fr)
        assert dot(dd.d_axis, dd.d_axis) == pytest.approx(1.0, abs=1e-14)

    def test_axis_identity_against_cross_product(self, helix, antis):
        for curve, lo, hi in ((helix, 0.3, 6.0), (antis, -3.0, 3.0)):
            for i in range(40):
                s = lo + (hi - lo) * i / 39
                fr = frame_record(curve, s)
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
        c = CurveSpec("explicit", parse("s^3"), parse("s^4"))
        assert classify_curve(c, (0.5, 2.0)).kind == "generic"

    def test_planar_curve_raises_empty_domain(self):
        # no frame exists anywhere, so no usable interval is left, as in build
        c = CurveSpec("explicit", parse("s^2"), parse("0"))
        with pytest.raises(EmptyDomain, match=r"no usable s interval in \[0.5, 2\]"):
            classify_curve(c, (0.5, 2.0))

    def test_samples_skip_the_guard_band(self, helix):
        # the band around the curvature zero at s = 0 is left out, as in verify
        cls = classify_curve(helix, (-1.0, 2.0))
        assert cls.kind == "general-helix"
        assert cls.constant == pytest.approx(0.25, abs=1e-12)


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
        c = CurveSpec("explicit", parse("exp(s) - exp(s) + s^3/6 + sin(s)"), parse("cosh(s/2)"))
        with pytest.raises(CurvatureVanishes):
            frame_parts(c, 720.0)
        with pytest.raises(EmptyDomain, match=r"no usable s interval in \[700, 720\]"):
            usable_s_intervals(c, 700.0, 720.0)

    def test_torsion_that_is_not_finite_is_refused(self):
        assert str(TorsionVanishes(2.0, 1e-9)) == "torsion 1e-09 below floor at s = 2"
        for tau in (math.nan, math.inf, -math.inf):
            assert str(TorsionVanishes(2.0, tau)) == f"torsion {tau:g} is not finite at s = 2"
        c = CurveSpec("explicit", parse("1e-10*fresnelS(s)"), parse("s^2/2"))
        for frame in (frame_parts, frenet_reference):
            with pytest.raises(TorsionVanishes, match="torsion -inf is not finite"):
                frame(c, 5e153)  # the third derivative of f overflows, f itself does not
        with pytest.raises(EmptyDomain, match=r"no usable s interval in \[1e\+154, 1.2e\+154\]"):
            usable_s_intervals(c, 1e154, 1.2e154)

    @given(
        # ends on a grid of 0.001, so rounding never closes the gap between intervals
        cuts=st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=30, unique=True),
        n=st.integers(0, 40),
        inset=st.floats(0.0, 10.0),
    )
    @example(cuts=list(range(0, 20_000, 1000)), n=8, inset=0.0)  # ten intervals, eight values
    def test_spread_gives_exactly_n_ascending_values_inside_the_intervals(self, cuts, n, inset):
        cuts = sorted(c / 1000 for c in cuts)
        intervals = list(zip(cuts[::2], cuts[1::2]))
        kept = [(a + inset, b - inset) for a, b in intervals if a + inset < b - inset]
        assume(kept)
        values = spread_s_values(intervals, n, inset=inset)
        assert len(values) == n
        assert values == sorted(values)
        for s in values:
            assert any(a <= s <= b for a, b in kept)
        if n >= 2 * len(kept):
            # enough for two in each: both ends of every interval are sampled
            for a, b in kept:
                assert a in values and b in values

    @given(
        a=st.floats(-1e6, 1e6),
        b=st.floats(-1e6, 1e6),
        n=st.integers(2, 300),
    )
    @example(a=0.1, b=6.283185307179586, n=4)  # a + (b - a) * 3 / 3 rounds past b
    def test_uniform_grid_ends_exactly_at_both_ends(self, a, b, n):
        a, b = min(a, b), max(a, b)
        values = uniform_grid(a, b, n)
        assert len(values) == n
        assert values[0] == a and values[-1] == b
        assert all(a <= s <= b for s in values)
        assert uniform_grid(a, b, 0) == []

    def test_sample_values_cover_both_lobes(self, helix):
        values = spread_s_values(usable_s_intervals(helix, -2 * math.pi, 2 * math.pi), 64)
        assert len(values) == 64
        assert min(values) < -1.0 and max(values) > 1.0
        assert all(abs(s) >= 0.09 for s in values)
