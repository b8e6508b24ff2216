import math
import random
import warnings

import pytest

from g3pencil.curve import (
    CurveSpec,
    anti_salkowski,
    darboux_parts,
    frame_parts,
    fresnel_helix,
    fresnel_helix_printed,
    point_parts,
)
from g3pencil.errors import (
    G3PencilError,
    InfeasibleLambda,
    SigmaVanishes,
    ZeroMarchingFactor,
)
from g3pencil.config import config_from_dict, realize
from g3pencil.exprjet import KinkWarning, parse, to_source
from g3pencil.figures import figure_doc
from g3pencil.pencil import (
    MarchingScale,
    ParamDomain,
    SynthesisSpec,
    _on_frame,
    normal_parts,
    product_marching_scale,
    surface_point_parts,
    synthesize_product_form,
)
from oracles import (
    ClassMismatch,
    FrenetFrame,
    G3Vector,
    combine_on_frame,
    corollary_components,
    dot,
    eval_expr,
    eval_jet3,
    frame_record,
    frenet_reference,
    isotropic_norm,
    isotropic_wedge,
    marching_scale_zero,
    normalize_isotropic,
    point_reference,
    required_normal_components,
    surface_normal_reference,
    surface_point_reference,
)

ONE = parse("1")
NEG_ONE = parse("-1")


def spec(lam, sigma, sign=1.0, control=None, scaled=True):
    """The synthesis input with the worked examples' factors l = m = 1, n = -1."""
    return SynthesisSpec(lam, sigma, ONE, ONE, NEG_ONE, sign, control, scaled)
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
    return synthesize_product_form(helix, spec(0.5, parse("1")), dom)


def lam_hat(curve, ms, s, v0=0.0):
    frame = frame_parts(curve, s)
    eta = G3Vector(*normal_parts(ms, s, v0, frame))
    return dot(normalize_isotropic(eta), G3Vector(*darboux_parts(frame)[2]))


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
            assert surface_point_parts(helix, ms, s, 3.7) == point_parts(helix, s)

    def test_base_line_of_worked_example(self, helix, ms38):
        assert surface_point_parts(helix, ms38, 2.0, 0.0) == point_parts(helix, 2.0)

    def test_offset_lies_in_frame_span(self, helix, ms38):
        s, v = 1.5, 0.8
        fr = frame_record(helix, s)
        p = G3Vector(*surface_point_parts(helix, ms38, s, v))
        r = G3Vector(*point_parts(helix, s))
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
        eta = normal_parts(marching_scale_zero(), 2.0, 0.0, frame_parts(helix, 2.0))
        assert eta == (0.0, 0.0, 0.0)

    def test_worked_example_components(self, helix, ms38):
        fr = frame_record(helix, 2.0)
        eta = G3Vector(*normal_parts(ms38, 2.0, 0.0, fr.parts()))
        assert dot(eta, fr.n) == pytest.approx(0.125, abs=1e-12)
        assert dot(eta, fr.b) == pytest.approx(PHI3_38, abs=1e-12)

    def test_unit_flexion_gives_binormal(self, helix):
        ms = MarchingScale(alpha=parse("0"), beta=parse("v"), gamma=parse("0"))
        fr = frame_record(helix, 2.0)
        eta = G3Vector(*normal_parts(ms, 2.0, 0.0, fr.parts()))
        assert isotropic_norm(eta - fr.b) <= 1e-15

    def test_normal_direction_law_at_base_line(self, helix):
        # arbitrary smooth marching scale vanishing at v0 = 0
        ms = MarchingScale(
            alpha=parse("v*sin(s)"),
            beta=parse("v^2 + v"),
            gamma=parse("v*cosh(s/4)"),
        )
        for s in (0.4, 1.1, 3.0):
            fr = frame_record(helix, s)
            eta = G3Vector(*normal_parts(ms, s, 0.0, fr.parts()))
            beta_v = eval_jet3(ms.beta, "v", s, 0.0).c1
            gamma_v = eval_jet3(ms.gamma, "v", s, 0.0).c1
            expected = -gamma_v * fr.n + beta_v * fr.b
            assert eta.x == 0.0
            assert isotropic_norm(eta - expected) <= 1e-12


class TestRequiredComponents:
    def test_worked_example(self, helix):
        nc = required_normal_components(helix, spec(0.5, parse("1"), scaled=False), 2.0)
        assert nc.phi1 == 0.0
        assert nc.phi2 == pytest.approx(0.125, abs=1e-14)
        assert nc.phi3 == pytest.approx(PHI3_38, abs=1e-12)
        assert nc.theta == pytest.approx(math.atan2(PHI3_38, 0.125), abs=1e-12)

    def test_lambda_zero(self, helix):
        nc = required_normal_components(helix, spec(0.0, parse("1"), scaled=False), 2.0)
        assert nc.phi2 == 0.0
        assert nc.phi3 == pytest.approx(1.0, abs=1e-14)
        minus = required_normal_components(helix, spec(0.0, parse("1"), -1.0, scaled=False), 2.0)
        assert minus.phi3 == pytest.approx(-1.0, abs=1e-14)

    def test_infeasible_lambda(self, helix):
        # lam tau / (sigma kappa) = 1 / (4 s); at s = 1/8 that is 2 > 1
        with pytest.raises(InfeasibleLambda):
            required_normal_components(helix, spec(1.0, parse("s"), scaled=False), 0.125)

    def test_sigma_vanishes(self, helix):
        with pytest.raises(SigmaVanishes):
            required_normal_components(helix, spec(0.5, parse("s - 2"), scaled=False), 2.0)

    def test_component_magnitude_is_sigma(self, helix):
        for lam, sig in ((0.5, 1.0), (1.0, 2.0), (-0.7, 0.5)):
            nc = required_normal_components(
                helix, spec(lam, parse(repr(sig)), scaled=False), 1.4
            )
            assert math.hypot(nc.phi2, nc.phi3) == pytest.approx(sig, rel=1e-12)


class TestCorollaries:
    def test_asymptotic(self, helix):
        nc = corollary_components(
            helix, "asymptotic", spec(0.0, parse("1")), 2.0, (0.5, 6.0)
        )
        assert (nc.phi2, nc.phi3) == (0.0, 1.0)

    def test_helix_specialization_matches_required(self, helix):
        synth = spec(0.5, parse("1"))
        via_class = corollary_components(helix, "helix", synth, 2.0, (0.5, 6.0))
        direct = required_normal_components(helix, synth, 2.0)
        assert via_class.phi2 == pytest.approx(direct.phi2, abs=1e-12)
        assert via_class.phi3 == pytest.approx(direct.phi3, abs=1e-12)

    def test_geodesic_fixes_lambda_one(self, helix):
        nc = corollary_components(
            helix, "geodesic", spec(5.0, parse("1")), 2.0, (0.5, 6.0)
        )
        # lam is pinned to 1 regardless of the requested value
        assert nc.phi2 == pytest.approx(0.25, abs=1e-12)
        assert nc.phi3 == pytest.approx(math.sqrt(1 - 0.0625), abs=1e-12)

    def test_class_mismatch(self, helix):
        with pytest.raises(ClassMismatch):
            corollary_components(
                helix, "salkowski", spec(0.5, parse("1")), 2.0, (0.5, 6.0)
            )

    def test_anti_salkowski_specialization(self, antis):
        synth = spec(0.25, parse("1"))
        nc = corollary_components(antis, "anti-salkowski", synth, 1.0, (-3.0, 3.0))
        direct = required_normal_components(antis, synth, 1.0)
        assert nc.phi2 == pytest.approx(direct.phi2, rel=1e-9)


# m, n, sigma, the error, its message and lambda, for a spec that fails at
# s_min; the last two rows fail two checks there: m is checked before sigma,
# and sigma before the radicand, whose |ratio| is 1.125 at lambda 4.5
_NON_FINITE = [
    ("exp(1000)", "-1", "1", ZeroMarchingFactor, "marching factor m(s) = inf", 0.5),
    ("0*exp(1000)", "-1", "1", ZeroMarchingFactor, "marching factor m(s) = nan", 0.5),
    ("1", "-exp(1000)", "1", ZeroMarchingFactor, "marching factor n(s) = -inf", 0.5),
    ("1", "-1", "exp(1000)", SigmaVanishes, "sigma(s) = inf", 0.5),
    ("1", "-1", "0*exp(1000)", SigmaVanishes, "sigma(s) = nan", 0.5),
    ("exp(1000)", "-1", "exp(1000)", ZeroMarchingFactor, "marching factor m(s) = inf", 0.5),
    ("1", "-1", "-exp(1000)", SigmaVanishes, "sigma(s) = -inf", 4.5),
]


class TestSynthesis:
    def test_worked_example_factors(self, helix, ms38):
        # X = v, Y = (3 sqrt 7 / 8) v, Z = (1/8) v, times l = m = 1 and n = -1
        assert eval_expr(ms38.alpha, 2.0, 1.0) == 1.0
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
            helix, spec(0.5, parse("s"), scaled=False), dom
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
            helix, spec(0.5, parse("s"), scaled=True), dom
        )
        for s in (0.3, 1.0, 2.0, 5.0):
            assert lam_hat(helix, ms, s) == pytest.approx(0.5, abs=1e-12)

    def test_corrected_second_example_factors(self, antis):
        dom = ParamDomain(-3.0, 3.0, 0.0, 5.0, 0.0)
        synth = spec(math.sqrt(3.0) / 2.0, parse("1/cosh(s/4)"))
        ms = synthesize_product_form(antis, synth, dom)
        for s in (-2.0, 0.0, 1.5):
            c = math.cosh(s / 4.0)
            # Z and Y, times n = -1 and m = 1
            assert -eval_expr(ms.gamma, s, 1.0) == pytest.approx(
                math.sqrt(3.0) / 2.0 / (c * c), rel=1e-12
            )
            assert eval_expr(ms.beta, s, 1.0) == pytest.approx(
                (1.0 / c) * math.sqrt(1.0 - 0.75 / (c * c)), rel=1e-12
            )
            assert lam_hat(antis, ms, s) == pytest.approx(
                math.sqrt(3.0) / 2.0, abs=1e-12
            )

    def test_geodesic_boundary_zeroes_binormal_factor(self, helix, dom):
        ms = synthesize_product_form(helix, spec(4.0, parse("1")), dom)
        for s in (0.3, 2.0, 6.0):
            assert eval_expr(ms.beta, s, 3.0) == 0.0
            fr = frame_record(helix, s)
            eta = G3Vector(*normal_parts(ms, s, 0.0, fr.parts()))
            assert abs(isotropic_wedge(normalize_isotropic(eta), fr.n)) <= 1e-9

    def test_infeasible_draw_raises(self, helix, dom):
        with pytest.raises(InfeasibleLambda):
            synthesize_product_form(helix, spec(4.5, parse("1")), dom)
        with pytest.raises(InfeasibleLambda):
            # plain rule feasibility involves sigma: |lam tau / (sigma kappa)|
            # is 1.2 here even though |lam tau / kappa| stays below 1
            synthesize_product_form(
                helix, spec(1.2, parse("0.25"), scaled=False), dom
            )

    def test_zero_marching_factor_rejected(self, helix, dom):
        # a sign change is caught at the first point of the 512-point grid
        # past it, a constant zero at the first point, s_min
        step = (dom.s_max - dom.s_min) / 511
        cases = (("s - 2", "-1", "m"), ("0", "-1", "m"), ("1", "2 - s", "n"), ("1", "0", "n"))
        for m, n, factor in cases:
            with pytest.raises(ZeroMarchingFactor) as info:
                synthesize_product_form(
                    helix, SynthesisSpec(0.5, ONE, ONE, parse(m), parse(n)), dom
                )
            s = info.value.s
            assert info.value.factor == factor
            assert str(info.value) == f"marching factor {factor}(s) vanishes at s = {s:g}"
            if "s" in m + n:
                assert 2.0 < s <= 2.0 + step
            else:
                assert s == dom.s_min

    @pytest.mark.parametrize(
        "m, n, sigma, error, message, lam",
        _NON_FINITE,
        ids=["-".join([m, n, sigma, error.__name__, message])
             for m, n, sigma, error, message, _ in _NON_FINITE],
    )
    def test_non_finite_factor_or_sigma_rejected(self, helix, dom, m, n, sigma, error, message, lam):
        with pytest.raises(error) as info:
            synthesize_product_form(
                helix, SynthesisSpec(lam, parse(sigma), ONE, parse(m), parse(n)), dom
            )
        assert str(info.value) == f"{message} is not finite at s = 0.1"
        assert info.value.s == dom.s_min
        value = info.value.value if error is ZeroMarchingFactor else info.value.sigma
        assert not math.isfinite(value)

    def test_first_failing_grid_point_wins(self, helix):
        # m changes sign at s = 3, but |ratio| = 4.5 |tau| / kappa = 1.125
        # exceeds 1 from the first grid point on, and that point is checked
        # in full before the next
        dom = ParamDomain(0.5, 6.0, 0.0, 1.0, 0.0)
        with pytest.raises(InfeasibleLambda) as info:
            synthesize_product_form(
                helix, SynthesisSpec(4.5, ONE, ONE, parse("s - 3"), NEG_ONE), dom
            )
        assert info.value.s == 0.5
        assert str(info.value) == "invariant infeasible at s = 0.5: |ratio| = 1.125 exceeds 1"

    @pytest.mark.parametrize("v0", [-1.0, -0.0, 0.0, 2.5])
    def test_every_subtree_of_a_synthesized_scale_round_trips(self, helix, v0):
        # no tree that synthesis builds holds a negative Num, which would
        # print as a negation and parse back as one
        dom = ParamDomain(0.1, 2 * math.pi, -2.0, 5.0, v0)
        ms = synthesize_product_form(helix, spec(0.5, parse("2 + sin(s)")), dom)
        trees = [ms.alpha, ms.beta, ms.gamma]
        while trees:
            tree = trees.pop()
            assert parse(to_source(tree)) == tree
            trees += [getattr(tree, f) for f in ("arg", "left", "right") if hasattr(tree, f)]

    def test_explicit_curve_without_closed_forms_rejected(self, dom):
        c = CurveSpec("explicit", parse("s^3"), parse("s^4"))
        with pytest.raises(ValueError):
            synthesize_product_form(
                c, spec(0.1, parse("1")), ParamDomain(0.5, 2.0, 0.0, 1.0, 0.0)
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
                helix, SynthesisSpec(lam, parse(repr(sigma)), l, m, n, sign), dom
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
                helix, spec(lam, parse(repr(sigma)), scaled=False), dom
            )
            for s in (0.4, 2.9):
                assert abs(lam_hat(helix, ms, s) - lam / sigma) <= 1e-9


class TestControlCoefficients:
    @staticmethod
    def controlled(helix, dom, control):
        return synthesize_product_form(helix, spec(0.5, ONE, control=control), dom)

    def test_identity(self, ms38, helix, dom):
        same = self.controlled(helix, dom, (1.0, 1.0, 1.0))
        for s, v in ((0.4, 0.3), (2.0, 4.0)):
            assert eval_expr(same.alpha, s, v) == eval_expr(ms38.alpha, s, v)
            assert eval_expr(same.beta, s, v) == eval_expr(ms38.beta, s, v)
            assert eval_expr(same.gamma, s, v) == eval_expr(ms38.gamma, s, v)

    def test_equal_b_c_preserves_invariant(self, helix, dom):
        for b in (0.5, 2.0, 3.0):
            cc = self.controlled(helix, dom, (7.0, b, b))
            for s in (0.4, 2.0, 5.0):
                assert lam_hat(helix, cc, s) == pytest.approx(0.5, abs=1e-12)

    def test_uneven_b_c_changes_but_keeps_constancy(self, helix, dom):
        cc = self.controlled(helix, dom, (1 / 3, 1 / 5, 1.0))
        values = [lam_hat(helix, cc, s) for s in (0.3, 1.0, 2.5, 4.0, 6.0)]
        expected = math.sqrt(50.0 / 11.0)  # 0.5 / sqrt(1/64 + (3 sqrt7/40)^2)
        for value in values:
            assert value == pytest.approx(expected, abs=1e-12)
        assert abs(values[0] - 0.5) > 1e-2

    def test_control_scales_x_y_z_before_l_m_n(self):
        # l*(a*x), not a*(l*x): the two round differently
        l, m, n, x, y, z = (parse(text) for text in ("s", "2", "-1", "v", "s*v", "v^2"))
        ms = product_marching_scale(l, m, n, x, y, z, (0.5, -2.0, 3.0))
        assert ms == MarchingScale(
            alpha=parse("s*(0.5*v)"), beta=parse("2*(-2*(s*v))"), gamma=parse("-1*(3*v^2)")
        )
        assert product_marching_scale(l, m, n, x, y, z) == MarchingScale(
            alpha=parse("s*v"), beta=parse("2*(s*v)"), gamma=parse("-1*v^2")
        )


class TestOneFeasibilityRule:
    """Synthesis's feasibility check agrees at the boundary with the rule
    that the oracle required_normal_components states on its own."""

    @pytest.mark.parametrize("excess, feasible", [(7.5e-13, False), (-7.5e-13, True)])
    def test_agreement_at_the_geodesic_boundary(self, helix, excess, feasible):
        # on the helix |tau| / kappa = 1/4, so lam = 4 puts |ratio| at 1
        synth = spec(4.0 * (1.0 + excess), ONE, scaled=False)
        dom = ParamDomain(0.5, 6.0, 0.0, 1.0, 0.0)
        calls = (
            lambda: required_normal_components(helix, synth, 3.0),
            lambda: synthesize_product_form(helix, synth, dom),
        )
        for call in calls:
            if feasible:
                call()
            else:
                with pytest.raises(InfeasibleLambda):
                    call()

    def test_synthesis_compiles_one_kernel_for_m_n_and_sigma(self, helix, dom, monkeypatch):
        import g3pencil.pencil

        compiled = []
        original = g3pencil.pencil.compile_values

        def counting(exprs):
            compiled.append(tuple(exprs))
            return original(exprs)

        monkeypatch.setattr(g3pencil.pencil, "compile_values", counting)
        m, n, sigma = parse("2 + cos(s)"), NEG_ONE, parse("s")
        for scaled in (True, False):
            compiled.clear()
            synthesize_product_form(helix, SynthesisSpec(0.1, sigma, ONE, m, n, scaled=scaled), dom)
            assert compiled == [(ONE, m, n, sigma)]

    def test_synthesis_scans_the_guard_bands_once(self, monkeypatch):
        import g3pencil.curve
        import g3pencil.pencil

        calls = {"usable_s_intervals": 0, "curvature_torsion": 0, "frame_parts": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(g3pencil.pencil, "usable_s_intervals")
        for name in ("curvature_torsion", "frame_parts"):
            counting(g3pencil.curve, name)
            counting(g3pencil.pencil, name)
        realize(config_from_dict(figure_doc("fig1f")))
        # 256 guard-band probes, then one kappa and tau per point of the
        # 512-point grid; none of them takes a frame
        assert calls == {
            "usable_s_intervals": 1,
            "curvature_torsion": 256 + 512,
            "frame_parts": 0,
        }


class TestCompiledKernels:
    """frame_parts, point_parts, surface_point_parts and normal_parts run
    compiled kernels cached on the curve and marching scale; they must agree
    bitwise with the tree-walked references, and fail where those fail."""

    @staticmethod
    def _pencils():
        dom = ParamDomain(-3.0, 3.0, -1.0, 2.0, 0.0)
        for curve in (fresnel_helix(), fresnel_helix_printed(), anti_salkowski()):
            synth = SynthesisSpec(
                lam=0.5,
                sigma=parse("1+s^2/16"),
                l=parse("1+s^2/16"),
                m=parse("2+sin(s)"),
                n=parse("-1-s^2/8"),
                sign=-1.0,
                control=(1 / 3, 1 / 5, 1.0),
                scaled=curve.name != "fresnel-helix-printed",
            )
            yield curve, synthesize_product_form(curve, synth, dom)
        explicit = CurveSpec("explicit", parse("s^3/6 + sin(s)"), parse("cosh(s/2)*s^2/2 - s"))
        yield explicit, MarchingScale(
            alpha=parse("s*v^2 - abs(v)"),
            beta=parse("sqrt(1 + s^2)*v/(2 + cos(s))"),
            gamma=parse("(abs(s)+0.5)^1.5*sinh(v/4)"),
        )

    @staticmethod
    def _bits(value):
        # float.hex tells -0.0 from 0.0, which == does not; a reference's
        # record flattens as the package's tuples do
        if isinstance(value, FrenetFrame):
            value = value.parts()
        elif isinstance(value, G3Vector):
            value = value.as_tuple()
        return [c.hex() for part in value for c in (part if isinstance(part, tuple) else (part,))]

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
                self._same(lambda: frame_parts(curve, s), lambda: frenet_reference(curve, s))
                self._same(lambda: point_parts(curve, s), lambda: point_reference(curve, s))
                for v in (0.0, -1.0, rng.uniform(-1.0, 2.0)):
                    self._same(
                        lambda: surface_point_parts(curve, ms, s, v),
                        lambda: surface_point_reference(curve, ms, s, v),
                    )
                    self._same(
                        lambda: normal_parts(ms, s, v, frame_parts(curve, s)),
                        lambda: surface_normal_reference(curve, ms, s, v),
                    )

    def test_kernels_are_compiled_once_per_object(self, monkeypatch, dom):
        import g3pencil.curve
        import g3pencil.pencil

        compiled = []

        def counting(compile_jets):
            def wrapper(exprs, var, orders, *more):
                compiled.append((var, *(other for other, _ in more)))
                return compile_jets(exprs, var, orders, *more)

            return wrapper

        monkeypatch.setattr(g3pencil.curve, "compile_jets", counting(g3pencil.curve.compile_jets))
        monkeypatch.setattr(g3pencil.pencil, "compile_jets", counting(g3pencil.pencil.compile_jets))
        helix = fresnel_helix()
        ms = synthesize_product_form(helix, spec(0.5, ONE), dom)
        for s in (1.0, 2.0, 3.0):
            normal_parts(ms, s, 1.0, frame_parts(helix, s))
        # frames, then one kernel of the scale's jets in s and v
        assert compiled == [("s",), ("s", "v")]


def test_combine_on_frame_adds_every_product_in_order():
    # r + a*t + b*n + g*b, summed left to right with all four terms: a zero
    # component of the frame still turns an infinite factor into nan; the
    # package's surface points and the oracle's combine alike
    r = G3Vector(1.0, 0.5, -0.25)
    frame = FrenetFrame(
        s=0.0,
        t=G3Vector(1.0, 0.25, 2.0),
        n=G3Vector(1.0, -0.5, 0.0),
        b=G3Vector(0.0, 0.75, 1.5),
        kappa=1.0,
        tau=1.0,
    )

    def package(r, fr, a, b, g):
        return G3Vector(*_on_frame(r.as_tuple(), fr.parts(), a, b, g))

    for combine in (combine_on_frame, package):
        got = combine(r, frame, 1e16, -1e16, 3.0)
        assert got.x == 0.0  # (1 + 1e16) - 1e16, where 1 + (1e16 - 1e16) is 1
        assert got.y == 0.5 + 1e16 * 0.25 + -1e16 * -0.5 + 3.0 * 0.75
        assert got.z == -0.25 + 1e16 * 2.0 + -1e16 * 0.0 + 3.0 * 1.5
        assert math.isnan(combine(r, frame, 0.0, 0.0, math.inf).x)  # inf * b.x = inf * 0.0
