import math
import random
import warnings

import pytest

from g3pencil.curve import (
    FrenetFrame,
    anti_salkowski,
    darboux,
    explicit_curve,
    frenet,
    fresnel_helix,
    point,
)
from g3pencil.errors import (
    ClassMismatch,
    G3PencilError,
    InfeasibleLambda,
    NotProductForm,
    SigmaVanishes,
)
from g3pencil.config import realize
from g3pencil.exprjet import KinkWarning, eval_expr, eval_jet3, parse
from g3pencil.figures import FIGURES
from g3pencil.g3core import dot, isotropic_norm, isotropic_wedge, normalize_isotropic
from g3pencil.pencil import (
    ControlCoefficients,
    DTypeSpec,
    MarchingScale,
    ParamDomain,
    apply_control_coefficients,
    classify_dtype,
    corollary_components,
    product_marching_scale,
    required_normal_components,
    surface_normal,
    surface_point,
    synthesize_product_form,
)
from oracles import (
    frenet_reference,
    marching_scale_zero,
    point_reference,
    surface_normal_reference,
    surface_point_reference,
)

ONE = parse("1")
NEG_ONE = parse("-1")
PHI3_38 = 3.0 * math.sqrt(7.0) / 8.0  # binormal component of the worked example


@pytest.fixture(scope="module")
def helix():
    return fresnel_helix()


@pytest.fixture(scope="module")
def antis():
    return anti_salkowski()


@pytest.fixture(scope="module")
def dom():
    return ParamDomain(0.1, 2 * math.pi, 0.0, 5.0, 0.0)


@pytest.fixture(scope="module")
def ms38(helix, dom):
    return synthesize_product_form(helix, DTypeSpec(0.5, parse("1")), ONE, ONE, NEG_ONE, dom)


def lam_hat(curve, ms, s, v0=0.0):
    fr = frenet(curve, s)
    eta = surface_normal(curve, ms, s, v0, frame=fr)
    return dot(normalize_isotropic(eta), darboux(fr).d_axis)


class TestDomain:
    def test_rejects_inverted_s_range(self):
        with pytest.raises(ValueError):
            ParamDomain(2.0, 1.0, 0.0, 1.0, 0.0)

    def test_rejects_v0_outside_range(self):
        with pytest.raises(ValueError):
            ParamDomain(0.0, 1.0, 0.0, 1.0, 2.0)


class TestSurfacePoint:
    def test_zero_scale_reproduces_curve(self, helix):
        ms = marching_scale_zero()
        for s in (0.3, 1.2, 4.0):
            p = surface_point(helix, ms, s, 3.7)
            r = point(helix, s)
            assert (p.x, p.y, p.z) == (r.x, r.y, r.z)

    def test_base_line_of_worked_example(self, helix, ms38):
        p = surface_point(helix, ms38, 2.0, 0.0)
        r = point(helix, 2.0)
        assert (p.x, p.y, p.z) == (r.x, r.y, r.z)

    def test_offset_lies_in_frame_span(self, helix, ms38):
        s, v = 1.5, 0.8
        fr = frenet(helix, s)
        p = surface_point(helix, ms38, s, v)
        r = point(helix, s)
        a = eval_expr(ms38.alpha, s, v)
        b = eval_expr(ms38.beta, s, v)
        g = eval_expr(ms38.gamma, s, v)
        rebuilt = r + a * fr.t + b * fr.n + g * fr.b
        assert isotropic_norm(
            # absolute parts agree exactly; compare isotropic parts
            (p - rebuilt) * 1.0
        ) <= 1e-14
        assert p.x == rebuilt.x


class TestSurfaceNormal:
    def test_zero_scale_gives_degenerate_normal(self, helix):
        eta = surface_normal(helix, marching_scale_zero(), 2.0, 0.0)
        assert (eta.x, eta.y, eta.z) == (0.0, 0.0, 0.0)

    def test_worked_example_components(self, helix, ms38):
        fr = frenet(helix, 2.0)
        eta = surface_normal(helix, ms38, 2.0, 0.0, frame=fr)
        assert dot(eta, fr.n) == pytest.approx(0.125, abs=1e-12)
        assert dot(eta, fr.b) == pytest.approx(PHI3_38, abs=1e-12)

    def test_unit_flexion_gives_binormal(self, helix):
        ms = MarchingScale(alpha=parse("0"), beta=parse("v"), gamma=parse("0"))
        fr = frenet(helix, 2.0)
        eta = surface_normal(helix, ms, 2.0, 0.0, frame=fr)
        assert isotropic_norm(eta - fr.b) <= 1e-15

    def test_normal_direction_law_at_base_line(self, helix):
        # arbitrary smooth marching scale vanishing at v0 = 0
        ms = MarchingScale(
            alpha=parse("v*sin(s)"),
            beta=parse("v^2 + v"),
            gamma=parse("v*cosh(s/4)"),
        )
        for s in (0.4, 1.1, 3.0):
            fr = frenet(helix, s)
            eta = surface_normal(helix, ms, s, 0.0, frame=fr)
            beta_v = eval_jet3(ms.beta, "v", s, 0.0).c1
            gamma_v = eval_jet3(ms.gamma, "v", s, 0.0).c1
            expected = -gamma_v * fr.n + beta_v * fr.b
            assert eta.x == 0.0
            assert isotropic_norm(eta - expected) <= 1e-12


class TestRequiredComponents:
    def test_worked_example(self, helix):
        nc = required_normal_components(helix, DTypeSpec(0.5, parse("1")), 2.0)
        assert nc.phi1 == 0.0
        assert nc.phi2 == pytest.approx(0.125, abs=1e-14)
        assert nc.phi3 == pytest.approx(PHI3_38, abs=1e-12)
        assert nc.theta == pytest.approx(math.atan2(PHI3_38, 0.125), abs=1e-12)

    def test_lambda_zero(self, helix):
        nc = required_normal_components(helix, DTypeSpec(0.0, parse("1")), 2.0)
        assert nc.phi2 == 0.0
        assert nc.phi3 == pytest.approx(1.0, abs=1e-14)
        minus = required_normal_components(helix, DTypeSpec(0.0, parse("1"), -1.0), 2.0)
        assert minus.phi3 == pytest.approx(-1.0, abs=1e-14)

    def test_infeasible_lambda(self, helix):
        # lam tau / (sigma kappa) = 1 / (4 s); at s = 1/8 that is 2 > 1
        with pytest.raises(InfeasibleLambda):
            required_normal_components(helix, DTypeSpec(1.0, parse("s")), 0.125)

    def test_sigma_vanishes(self, helix):
        with pytest.raises(SigmaVanishes):
            required_normal_components(helix, DTypeSpec(0.5, parse("s - 2")), 2.0)

    def test_component_magnitude_is_sigma(self, helix):
        for lam, sig in ((0.5, 1.0), (1.0, 2.0), (-0.7, 0.5)):
            nc = required_normal_components(
                helix, DTypeSpec(lam, parse(repr(sig))), 1.4
            )
            assert math.hypot(nc.phi2, nc.phi3) == pytest.approx(sig, rel=1e-12)


class TestCorollaries:
    def test_asymptotic(self, helix):
        nc = corollary_components(
            helix, "asymptotic", DTypeSpec(0.0, parse("1")), 2.0, (0.5, 6.0)
        )
        assert (nc.phi2, nc.phi3) == (0.0, 1.0)

    def test_helix_specialization_matches_required(self, helix):
        dtype = DTypeSpec(0.5, parse("1"))
        via_class = corollary_components(helix, "helix", dtype, 2.0, (0.5, 6.0))
        direct = required_normal_components(helix, dtype, 2.0)
        assert via_class.phi2 == pytest.approx(direct.phi2, abs=1e-12)
        assert via_class.phi3 == pytest.approx(direct.phi3, abs=1e-12)

    def test_geodesic_fixes_lambda_one(self, helix):
        nc = corollary_components(
            helix, "geodesic", DTypeSpec(5.0, parse("1")), 2.0, (0.5, 6.0)
        )
        # lam is pinned to 1 regardless of the requested value
        assert nc.phi2 == pytest.approx(0.25, abs=1e-12)
        assert nc.phi3 == pytest.approx(math.sqrt(1 - 0.0625), abs=1e-12)

    def test_class_mismatch(self, helix):
        with pytest.raises(ClassMismatch):
            corollary_components(
                helix, "salkowski", DTypeSpec(0.5, parse("1")), 2.0, (0.5, 6.0)
            )

    def test_anti_salkowski_specialization(self, antis):
        dtype = DTypeSpec(0.25, parse("1"))
        nc = corollary_components(antis, "anti-salkowski", dtype, 1.0, (-3.0, 3.0))
        direct = required_normal_components(antis, dtype, 1.0)
        assert nc.phi2 == pytest.approx(direct.phi2, rel=1e-9)


class TestSynthesis:
    def test_worked_example_factors(self, helix, ms38):
        # X = v, Y = (3 sqrt 7 / 8) v, Z = (1/8) v
        assert eval_expr(ms38.product.x, 2.0, 1.0) == 1.0
        assert eval_expr(ms38.product.y, 2.0, 1.0) == pytest.approx(PHI3_38, abs=1e-12)
        assert eval_expr(ms38.product.z, 2.0, 1.0) == pytest.approx(0.125, abs=1e-12)
        assert eval_expr(ms38.beta, 2.0, 1.0) == pytest.approx(PHI3_38, abs=1e-12)
        assert eval_expr(ms38.gamma, 2.0, 1.0) == pytest.approx(-0.125, abs=1e-12)

    def test_base_line_vanishes_identically(self, helix, ms38):
        for s in (0.2, 1.0, 3.5, 6.0):
            assert eval_expr(ms38.alpha, s, 0.0) == 0.0
            assert eval_expr(ms38.beta, s, 0.0) == 0.0
            assert eval_expr(ms38.gamma, s, 0.0) in (0.0, -0.0)

    def test_plain_rule_with_sigma_s_matches_closed_form(self, helix):
        # binormal factor sqrt(s^2 - 1/64) of the worked example's variant
        dom = ParamDomain(0.2, 2 * math.pi, 0.0, 5.0, 0.0)
        ms = synthesize_product_form(
            helix, DTypeSpec(0.5, parse("s")), ONE, ONE, NEG_ONE, dom, scaled=False
        )
        for s in (0.5, 2.0, 5.0):
            assert eval_expr(ms.beta, s, 1.0) == pytest.approx(
                math.sqrt(s * s - 1.0 / 64.0), rel=1e-13
            )
            # plain rule invariant is lam / sigma = 1 / (2 s)
            assert lam_hat(helix, ms, s) == pytest.approx(1.0 / (2.0 * s), rel=1e-10)

    def test_scaled_rule_keeps_invariant_for_varying_sigma(self, helix):
        dom = ParamDomain(0.2, 2 * math.pi, 0.0, 5.0, 0.0)
        ms = synthesize_product_form(
            helix, DTypeSpec(0.5, parse("s")), ONE, ONE, NEG_ONE, dom, scaled=True
        )
        for s in (0.3, 1.0, 2.0, 5.0):
            assert lam_hat(helix, ms, s) == pytest.approx(0.5, abs=1e-12)

    def test_corrected_second_example_factors(self, antis):
        dom = ParamDomain(-3.0, 3.0, 0.0, 5.0, 0.0)
        dtype = DTypeSpec(math.sqrt(3.0) / 2.0, parse("1/cosh(s/4)"))
        ms = synthesize_product_form(antis, dtype, ONE, ONE, NEG_ONE, dom)
        for s in (-2.0, 0.0, 1.5):
            c = math.cosh(s / 4.0)
            assert eval_expr(ms.product.z, s, 1.0) == pytest.approx(
                math.sqrt(3.0) / 2.0 / (c * c), rel=1e-12
            )
            assert eval_expr(ms.product.y, s, 1.0) == pytest.approx(
                (1.0 / c) * math.sqrt(1.0 - 0.75 / (c * c)), rel=1e-12
            )
            assert lam_hat(antis, ms, s) == pytest.approx(
                math.sqrt(3.0) / 2.0, abs=1e-12
            )

    def test_geodesic_boundary_zeroes_binormal_factor(self, helix, dom):
        ms = synthesize_product_form(helix, DTypeSpec(4.0, parse("1")), ONE, ONE, NEG_ONE, dom)
        for s in (0.3, 2.0, 6.0):
            assert eval_expr(ms.beta, s, 3.0) == 0.0
            fr = frenet(helix, s)
            eta = surface_normal(helix, ms, s, 0.0, frame=fr)
            assert abs(isotropic_wedge(normalize_isotropic(eta), fr.n)) <= 1e-9

    def test_infeasible_draw_raises(self, helix, dom):
        with pytest.raises(InfeasibleLambda):
            synthesize_product_form(helix, DTypeSpec(4.5, parse("1")), ONE, ONE, NEG_ONE, dom)
        with pytest.raises(InfeasibleLambda):
            # plain rule feasibility involves sigma: |lam tau / (sigma kappa)|
            # is 1.2 here even though |lam tau / kappa| stays below 1
            synthesize_product_form(
                helix, DTypeSpec(1.2, parse("0.25")), ONE, ONE, NEG_ONE, dom, scaled=False
            )

    def test_zero_marching_factor_rejected(self, helix, dom):
        with pytest.raises(Exception) as info:
            synthesize_product_form(
                helix, DTypeSpec(0.5, parse("1")), ONE, parse("s - 2"), NEG_ONE, dom
            )
        assert "m" in str(info.value)

    def test_explicit_curve_without_closed_forms_rejected(self, dom):
        from g3pencil.curve import explicit_curve

        c = explicit_curve("s^3", "s^4")
        with pytest.raises(ValueError):
            synthesize_product_form(
                c,
                DTypeSpec(0.1, parse("1")),
                ONE,
                ONE,
                NEG_ONE,
                ParamDomain(0.5, 2.0, 0.0, 1.0, 0.0),
            )


class TestSynthesisRoundtrip:
    def test_scaled_synthesis_recovers_lambda_exactly(self, helix):
        """100 random feasible draws: the verified invariant equals lam."""
        rng = random.Random(31415)
        dom = ParamDomain(0.3, 6.0, 0.0, 5.0, 0.0)
        for _ in range(100):
            sigma = rng.choice((0.5, 1.0, 2.0))
            lam = rng.uniform(-3.9, 3.9)
            sign = rng.choice((1.0, -1.0))
            l = parse(repr(float(rng.choice((1, -1, 2, -2)))))
            m = parse(repr(float(rng.choice((1, -1, 2, -2)))))
            n = parse(repr(float(rng.choice((1, -1, 2, -2)))))
            ms = synthesize_product_form(
                helix, DTypeSpec(lam, parse(repr(sigma)), sign), l, m, n, dom
            )
            for s in (0.4, 1.7, 5.2):
                assert abs(lam_hat(helix, ms, s) - lam) <= 1e-9

    def test_plain_synthesis_recovers_lambda_over_sigma(self, helix):
        rng = random.Random(27182)
        dom = ParamDomain(0.3, 6.0, 0.0, 5.0, 0.0)
        for _ in range(50):
            sigma = rng.choice((0.5, 1.0, 2.0))
            lam = rng.uniform(-0.9, 0.9) * 4.0 * sigma
            ms = synthesize_product_form(
                helix,
                DTypeSpec(lam, parse(repr(sigma))),
                ONE,
                ONE,
                NEG_ONE,
                dom,
                scaled=False,
            )
            for s in (0.4, 2.9):
                assert abs(lam_hat(helix, ms, s) - lam / sigma) <= 1e-9


class TestControlCoefficients:
    def test_identity(self, ms38, helix):
        same = apply_control_coefficients(ms38, ControlCoefficients(1.0, 1.0, 1.0))
        for s, v in ((0.4, 0.3), (2.0, 4.0)):
            assert eval_expr(same.alpha, s, v) == eval_expr(ms38.alpha, s, v)
            assert eval_expr(same.beta, s, v) == eval_expr(ms38.beta, s, v)
            assert eval_expr(same.gamma, s, v) == eval_expr(ms38.gamma, s, v)

    def test_equal_b_c_preserves_invariant(self, helix, ms38):
        for b in (0.5, 2.0, 3.0):
            cc = apply_control_coefficients(ms38, ControlCoefficients(7.0, b, b))
            for s in (0.4, 2.0, 5.0):
                assert lam_hat(helix, cc, s) == pytest.approx(0.5, abs=1e-12)

    def test_uneven_b_c_changes_but_keeps_constancy(self, helix, ms38):
        cc = apply_control_coefficients(ms38, ControlCoefficients(1 / 3, 1 / 5, 1.0))
        values = [lam_hat(helix, cc, s) for s in (0.3, 1.0, 2.5, 4.0, 6.0)]
        expected = math.sqrt(50.0 / 11.0)  # 0.5 / sqrt(1/64 + (3 sqrt7/40)^2)
        for value in values:
            assert value == pytest.approx(expected, abs=1e-12)
        assert abs(values[0] - 0.5) > 1e-2

    def test_requires_product_form(self):
        direct = MarchingScale(alpha=parse("v"), beta=parse("v"), gamma=parse("v"))
        with pytest.raises(NotProductForm):
            apply_control_coefficients(direct, ControlCoefficients(1.0, 2.0, 3.0))


class TestClassifyDType:
    def test_lambda_zero_is_asymptotic(self, helix):
        assert classify_dtype(DTypeSpec(0.0, parse("1")), helix, (0.5, 6.0)) == "asymptotic"

    def test_matched_lambda_is_geodesic(self, helix):
        assert classify_dtype(DTypeSpec(4.0, parse("1")), helix, (0.5, 6.0)) == "geodesic"

    def test_worked_example_is_general(self, helix):
        assert (
            classify_dtype(DTypeSpec(0.5, parse("1")), helix, (0.5, 6.0))
            == "general-d-type"
        )

    def test_infeasible_spec_raises(self, helix):
        with pytest.raises(InfeasibleLambda):
            classify_dtype(DTypeSpec(6.0, parse("1")), helix, (0.5, 6.0))


class TestOneFeasibilityRule:
    """classify_dtype, required_normal_components and synthesis test
    feasibility through one routine, so they agree at the boundary."""

    @pytest.mark.parametrize("excess, feasible", [(7.5e-13, False), (-7.5e-13, True)])
    def test_agreement_at_the_geodesic_boundary(self, helix, excess, feasible):
        # on the helix |tau| / kappa = 1/4, so lam = 4 puts |ratio| at 1
        dtype = DTypeSpec(4.0 * (1.0 + excess), ONE)
        dom = ParamDomain(0.5, 6.0, 0.0, 1.0, 0.0)
        calls = (
            lambda: classify_dtype(dtype, helix, (0.5, 6.0)),
            lambda: required_normal_components(helix, dtype, 3.0),
            lambda: synthesize_product_form(
                helix, dtype, ONE, ONE, NEG_ONE, dom, scaled=False
            ),
        )
        for call in calls:
            if feasible:
                call()
            else:
                with pytest.raises(InfeasibleLambda):
                    call()

    def test_synthesis_scans_the_guard_bands_once(self, monkeypatch):
        import g3pencil.curve
        import g3pencil.pencil

        calls = {"usable_s_intervals": 0, "frenet": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(g3pencil.curve, "usable_s_intervals")
        counting(g3pencil.curve, "frenet")
        counting(g3pencil.pencil, "frenet")
        realize(FIGURES["fig1f"].config())
        # 256 guard-band probes, then one frame per point of the 512-point grid
        assert calls == {"usable_s_intervals": 1, "frenet": 256 + 512}


class TestCompiledKernels:
    """frenet, point, surface_point and surface_normal run compiled kernels
    cached on the curve and marching scale; they must agree bitwise with
    the tree-walked references, and fail where those fail."""

    @staticmethod
    def _pencils():
        dom = ParamDomain(-3.0, 3.0, -1.0, 2.0, 0.0)
        spec = DTypeSpec(lam=0.5, sigma=parse("1+s^2/16"), sign=-1.0)
        for curve in (fresnel_helix(), fresnel_helix(as_printed=True), anti_salkowski()):
            ms = synthesize_product_form(
                curve, spec, parse("1+s^2/16"), parse("2+sin(s)"), parse("-1-s^2/8"), dom,
                scaled=curve.name != "fresnel-helix-printed",
            )
            yield curve, apply_control_coefficients(ms, ControlCoefficients(1 / 3, 1 / 5, 1.0))
        yield explicit_curve("s^3/6 + sin(s)", "cosh(s/2)*s^2/2 - s"), MarchingScale(
            alpha=parse("s*v^2 - abs(v)"),
            beta=parse("sqrt(1 + s^2)*v/(2 + cos(s))"),
            gamma=parse("(abs(s)+0.5)^1.5*sinh(v/4)"),
        )

    @staticmethod
    def _bits(value):
        # float.hex tells -0.0 from 0.0, which == does not
        if isinstance(value, FrenetFrame):
            vectors, scalars = (value.t, value.n, value.b), (value.s, value.kappa, value.tau)
        else:
            vectors, scalars = (value,), ()
        return [c.hex() for vec in vectors for c in vec.as_tuple()] + [x.hex() for x in scalars]

    def _same(self, evaluate, reference):
        def run(fn):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", KinkWarning)
                try:
                    return self._bits(fn()), None
                except G3PencilError as exc:
                    return None, type(exc).__name__

        assert run(evaluate) == run(reference)

    def test_kernels_match_tree_walked_references(self):
        rng = random.Random(77)
        for curve, ms in self._pencils():
            s_values = [0.0, -1.5, 2.75] + [rng.uniform(-3.0, 3.0) for _ in range(40)]
            for s in s_values:
                self._same(lambda: frenet(curve, s), lambda: frenet_reference(curve, s))
                self._same(lambda: point(curve, s), lambda: point_reference(curve, s))
                for v in (0.0, -1.0, rng.uniform(-1.0, 2.0)):
                    self._same(
                        lambda: surface_point(curve, ms, s, v),
                        lambda: surface_point_reference(curve, ms, s, v),
                    )
                    self._same(
                        lambda: surface_normal(curve, ms, s, v),
                        lambda: surface_normal_reference(curve, ms, s, v),
                    )

    def test_kernels_are_compiled_once_per_object(self, monkeypatch, dom):
        import g3pencil.curve
        import g3pencil.pencil

        compiled = []

        def counting(compile_jets):
            def wrapper(exprs, var):
                compiled.append(var)
                return compile_jets(exprs, var)

            return wrapper

        monkeypatch.setattr(g3pencil.curve, "compile_jets", counting(g3pencil.curve.compile_jets))
        monkeypatch.setattr(g3pencil.pencil, "compile_jets", counting(g3pencil.pencil.compile_jets))
        helix = fresnel_helix()
        ms = synthesize_product_form(helix, DTypeSpec(0.5, ONE), ONE, ONE, NEG_ONE, dom)
        for s in (1.0, 2.0, 3.0):
            frenet(helix, s)
            surface_normal(helix, ms, s, 1.0)
        assert compiled == ["s", "s", "v"]  # frames, then the scale's jets in s and v
