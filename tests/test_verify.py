import json
import math
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from g3pencil.curve import anti_salkowski, frame_parts, fresnel_helix
from g3pencil.exprjet import KinkWarning, parse
from g3pencil.pencil import (
    MarchingScale,
    ParamDomain,
    SynthesisSpec,
    product_marching_scale,
    synthesize_product_form,
)
from g3pencil.verify import DTypeReport, InvariantSample, dtype_report
from oracles import (
    check_isoparametric,
    dtype_report_reference,
    failure_rich_expression,
    frenet_residuals,
    marching_scale_zero,
    normal_consistency,
)

ONE = parse("1")
NEG_ONE = parse("-1")
SQRT3_2 = math.sqrt(3.0) / 2.0


@pytest.fixture(scope="module")
def helix():
    return fresnel_helix()


@pytest.fixture(scope="module")
def antis():
    return anti_salkowski()


@pytest.fixture(scope="module")
def dom38():
    return ParamDomain(0.1, 2 * math.pi, 0.0, 5.0, 0.0)


@pytest.fixture(scope="module")
def dom39():
    return ParamDomain(-3.0, 3.0, 0.0, 5.0, 0.0)


@pytest.fixture(scope="module")
def ms38(helix, dom38):
    return synthesize_product_form(helix, SynthesisSpec(0.5, ONE, ONE, ONE, NEG_ONE), dom38)


@pytest.fixture(scope="module")
def ms39(antis, dom39):
    synth = SynthesisSpec(SQRT3_2, parse("1/cosh(s/4)"), ONE, ONE, NEG_ONE)
    return synthesize_product_form(antis, synth, dom39)


def printed_39_marching():
    return product_marching_scale(
        ONE,
        ONE,
        NEG_ONE,
        parse("v"),
        parse("sqrt(1/cosh(s/4) - 3/(4*cosh(s/4)^2))*v"),
        parse("sqrt(3)/2*cosh(s/4)*v"),
    )


class TestDTypeReport:
    def test_first_example_analytic(self, helix, ms38, dom38):
        rep = dtype_report(helix, ms38, dom38, 200, "analytic")
        assert rep.mean_lambda == pytest.approx(0.5, abs=1e-12)
        assert rep.max_abs_deviation <= 1e-9
        assert rep.classification == "general-d-type"
        assert rep.holds

    def test_first_example_fd_agrees(self, helix, ms38, dom38):
        rep = dtype_report(helix, ms38, dom38, 64, "fd")
        assert rep.mean_lambda == pytest.approx(0.5, abs=1e-4)
        assert rep.classification == "general-d-type"

    def test_fd_uses_positions_only(self, helix, dom38):
        # an fd report must never differentiate the marching scale: its jet
        # kernel, which every analytic normal runs, is forbidden
        def forbidden(*args, **kwargs):
            raise AssertionError("fd mode ran the marching scale's jets")

        ms = synthesize_product_form(
            helix, SynthesisSpec(0.5, ONE, ONE, ONE, NEG_ONE), dom38
        )
        ms.__dict__["_normal_jets"] = forbidden  # the cached kernel, on this instance
        rep = dtype_report(helix, ms, dom38, 16, "fd")
        assert rep.mean_lambda == pytest.approx(0.5, abs=1e-4)

    def test_second_example_corrected(self, antis, ms39, dom39):
        fd = dtype_report(antis, ms39, dom39, 100, "fd")
        assert fd.mean_lambda == pytest.approx(SQRT3_2, abs=1e-4)
        rep = dtype_report(antis, ms39, dom39, 200, "analytic", 1e-6)
        assert rep.mean_lambda == pytest.approx(SQRT3_2, abs=1e-6)
        assert rep.max_abs_deviation <= 1e-6
        assert rep.holds

    def test_second_example_as_printed_fails(self, antis, dom39):
        rep = dtype_report(antis, printed_39_marching(), dom39, 100, "analytic", 1e-6)
        assert rep.classification == "not-d-type"
        assert rep.max_abs_deviation > 1e-2
        assert not rep.holds

    def test_asymptotic_classification(self, helix, dom38):
        ms = synthesize_product_form(helix, SynthesisSpec(0.0, ONE, ONE, ONE, NEG_ONE), dom38)
        rep = dtype_report(helix, ms, dom38, 32)
        assert rep.classification == "asymptotic"

    def test_geodesic_classification(self, helix, dom38):
        ms = synthesize_product_form(helix, SynthesisSpec(4.0, ONE, ONE, ONE, NEG_ONE), dom38)
        rep = dtype_report(helix, ms, dom38, 32)
        assert rep.classification == "geodesic"

    def test_degenerate_scale_flags_all_samples(self, helix, dom38):
        rep = dtype_report(helix, marching_scale_zero(), dom38, 16)
        assert all(p.flagged for p in rep.samples)
        assert rep.classification == "not-d-type"
        assert math.isnan(rep.mean_lambda)

    @pytest.mark.parametrize(
        "mode, beta",
        [
            # beta_v = exp(800) overflows: every normal on the base line is NaN
            ("analytic", "v*exp(800)"),
            ("fd", "v*exp(800)"),
            # beta_v = 1e310 overflows: every analytic normal is infinite
            ("analytic", "sinh(1e300*v)*1e10"),
            ("fd", "sinh(1e300*v)*1e10"),
        ],
        ids=["analytic", "fd", "analytic-infinite", "fd-infinite"],
    )
    def test_nan_normals_are_flagged(self, helix, mode, beta):
        ms = MarchingScale(parse("0"), parse(beta), parse("v"))
        dom = ParamDomain(0.5, 3.0, 0.0, 1.0, 0.0)
        rep = dtype_report(helix, ms, dom, 16, mode)
        assert all(p.flagged and math.isnan(p.lambda_hat) for p in rep.samples)
        assert rep.classification == "not-d-type" and not rep.holds
        assert normal_consistency(helix, ms, dom, 8, 3) == 0.0

    def test_nan_deviation_does_not_pass(self):
        from g3pencil.verify import _classify_report

        assert _classify_report(math.nan, math.nan, [0.5], 1e-9) == "not-d-type"
        assert _classify_report(0.5, 1e-10, [0.5], 1e-9) == "general-d-type"

    def test_fd_mode_meets_its_own_tolerance(self, helix, ms38, dom38):
        # one central difference at the step eps^(1/3) of the domain extent
        rep = dtype_report(helix, ms38, dom38, 16, "fd")
        assert rep.mean_lambda == pytest.approx(0.5, abs=1e-6)
        assert rep.max_abs_deviation <= 1e-6
        assert rep.classification == "general-d-type"

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, helix, ms38, dom38, tol):
        with pytest.raises(ValueError, match="positive finite"):
            dtype_report(helix, ms38, dom38, 16, "fd", tol)

    def test_sample_count_floor(self, helix, ms38, dom38):
        with pytest.raises(ValueError):
            dtype_report(helix, ms38, dom38, 4)

    def test_json_serialization(self, helix, ms38, dom38):
        rep = dtype_report(helix, ms38, dom38, 16)
        text = rep.to_json()
        assert text.startswith('{\n  "mode": "analytic",\n')
        doc = json.loads(text)
        assert doc["classification"] == "general-d-type"
        assert doc["mode"] == "analytic"
        assert len(doc["samples"]) == 16
        assert {"s", "lambda_hat", "flagged"} <= set(doc["samples"][0])


def _reference_cases():
    """(name, build) pairs; build() makes a fresh curve, scale and domain, so
    each report compiles its own kernels and shows their warnings itself."""
    from g3pencil.config import load_config, realize

    def shipped(path):
        spec = realize(load_config(path))
        return spec.curve, spec.marching, spec.domain

    def scale(curve, alpha, beta, gamma, domain):
        return curve(), MarchingScale(parse(alpha), parse(beta), parse(gamma)), domain

    def geodesic():
        curve, domain = fresnel_helix(), ParamDomain(0.1, 2 * math.pi, 0.0, 5.0, 0.0)
        synth = SynthesisSpec(4.0, ONE, ONE, ONE, NEG_ONE)
        return curve, synthesize_product_form(curve, synth, domain), domain

    dom, wide = ParamDomain(0.5, 3.0, 0.0, 1.0, 0.0), ParamDomain(-3.0, 3.0, 0.0, 5.0, 0.0)
    cases = [
        ("helix", lambda: shipped("configs/fresnel-helix.json")),
        ("anti-salkowski", lambda: shipped("configs/anti-salkowski.json")),
        ("direct", lambda: scale(fresnel_helix, "v*s", "v*sin(s)", "-v + v^2", dom)),
        ("product", lambda: (anti_salkowski(), printed_39_marching(), wide)),
        ("nan", lambda: scale(fresnel_helix, "0", "v*exp(800)", "v", dom)),
        ("inf", lambda: scale(fresnel_helix, "0", "sinh(1e300*v)*1e10", "v", dom)),
        # the jets in v cross abs()'s kink at v0; fd steps below v0 leave sqrt's domain
        ("kink", lambda: scale(fresnel_helix, "abs(v)", "v", "v*s", dom)),
        ("sqrt", lambda: scale(anti_salkowski, "v", "sqrt(v)*s", "v", dom)),
        # fd: the points at s +- h divide by v0 = 0 before the one at v0 - h
        # leaves sqrt's domain
        ("pole", lambda: scale(fresnel_helix, "v", "sqrt(v) + 1/v", "v", dom)),
        # normals of norm exactly DEGENERATE_NORM at most samples, and of a
        # hair more or less at the rest
        ("threshold", lambda: scale(fresnel_helix, "0", "1e-12*v", "0", dom)),
        # a normal along n: <eta1, b> vanishes, and the verdict is geodesic
        ("geodesic", geodesic),
    ]
    rng = random.Random(3207)
    for i in range(40):
        texts = [failure_rich_expression(rng) for _ in "abg"]
        texts = [f"v*({text})" if rng.random() < 0.7 else text for text in texts]
        curve = (fresnel_helix, anti_salkowski)[i % 2]
        s_min, s_max = rng.uniform(-3.0, 0.5), rng.uniform(1.0, 4.0)
        domain = ParamDomain(s_min, s_max, -1.0, 1.0, rng.choice((0.0, 0.5)))
        cases.append((f"rich-{i}", lambda c=curve, t=texts, d=domain: scale(c, *t, d)))
    return cases


def _report_outcome(report, build, mode):
    """The report's JSON text and the bits of its numbers, which the text
    writes as null where they are not finite, or the class and text of its
    error; then the warnings it showed, in order."""
    curve, ms, domain = build()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rep = report(curve, ms, domain, 24, mode)
            numbers = [x for p in rep.samples for x in (p.s, p.lambda_hat)]
            numbers += [rep.mean_lambda, rep.max_abs_deviation, rep.tolerance]
            outcome = (rep.to_json(), [x.hex() for x in numbers])
        except Exception as exc:
            outcome = (type(exc), str(exc))
    return outcome, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("mode", ["analytic", "fd"])
def test_report_is_the_record_reference_bit_for_bit(mode):
    # dtype_report against the same report tree-walked on frame, Darboux,
    # point and normal records, bit for bit
    kinds = set()
    for name, build in _reference_cases():
        got = _report_outcome(dtype_report, build, mode)
        assert got == _report_outcome(dtype_report_reference, build, mode), name
        if isinstance(got[0][0], str):
            kinds.update(("report", json.loads(got[0][0])["classification"]))
        else:
            kinds.add(got[0][0].__name__)
        kinds.update(category.__name__ for category, _ in got[1])
    # the cases reach reports, errors in the loop and before it, and kink
    # warnings, which only the jets of analytic mode give
    assert {"report", "DomainError", "EmptyDomain", "geodesic"} <= kinds, kinds
    assert ("KinkWarning" in kinds) == (mode == "analytic"), kinds


# Floats that JSON writes apart: non-finite ones as null, and the extremes
# of float.__repr__.
JSON_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from((math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, -1e308, 1e16)),
)


@settings(max_examples=200, deadline=None)
@given(
    samples=st.lists(st.tuples(JSON_FLOATS, JSON_FLOATS, st.booleans()), min_size=1, max_size=12),
    numbers=st.tuples(JSON_FLOATS, JSON_FLOATS, JSON_FLOATS, JSON_FLOATS),
    mode=st.sampled_from(("analytic", "fd")),
    classification=st.sampled_from(
        ("asymptotic", "geodesic", "general-d-type", "not-d-type")
    ),
)
def test_report_text_is_the_json_module_s(samples, numbers, mode, classification):
    """to_json is byte for byte json.dumps(doc, indent=2, allow_nan=False)."""
    v0, tolerance, mean, deviation = numbers
    rep = DTypeReport(
        samples=tuple(InvariantSample(s, lam, flagged) for s, lam, flagged in samples),
        mean_lambda=mean,
        max_abs_deviation=deviation,
        classification=classification,
        mode=mode,
        tolerance=tolerance,
        v0=v0,
    )

    def finite(x):
        return x if math.isfinite(x) else None

    doc = {
        "mode": mode,
        "v0": finite(v0),
        "tolerance": finite(tolerance),
        "mean_lambda": finite(mean),
        "max_abs_deviation": finite(deviation),
        "classification": classification,
        "samples": [
            {"s": finite(s), "lambda_hat": finite(lam), "flagged": flagged}
            for s, lam, flagged in samples
        ],
    }
    assert rep.to_json() == json.dumps(doc, indent=2, allow_nan=False)


class TestIsoparametric:
    def test_synthesized_is_exact(self, helix, ms38, dom38):
        assert check_isoparametric(helix, ms38, dom38) == 0.0

    def test_zero_scale_is_exact(self, helix, dom38):
        assert check_isoparametric(helix, marching_scale_zero(), dom38) == 0.0

    def test_violation_is_detected(self, helix, dom38):
        shifted = product_marching_scale(
            ONE, ONE, NEG_ONE, parse("v + 0.01"), parse("0"), parse("0")
        )
        err = check_isoparametric(helix, shifted, dom38, 64)
        # offset 0.01 along the tangent; the worst component is 0.01 |t|_max
        worst_t = max(
            max(abs(frame_parts(helix, s)[2][1]), abs(frame_parts(helix, s)[2][2]), 1.0)
            for s in [0.1 + (2 * math.pi - 0.1) * i / 63 for i in range(64)]
        )
        assert err == pytest.approx(0.01 * worst_t, rel=1e-6)


class TestFrenetResiduals:
    def test_both_builtins_small_at_h_1e5(self, helix, antis):
        for curve, rng in ((helix, (0.5, 6.0)), (antis, (-3.0, 3.0))):
            res = frenet_residuals(curve, rng, 100, 1e-5)
            assert max(res) <= 1e-6

    def test_second_order_convergence(self, helix):
        r1 = frenet_residuals(helix, (0.5, 6.0), 50, 1e-3)
        r2 = frenet_residuals(helix, (0.5, 6.0), 50, 5e-4)
        for big, small in zip(r1, r2):
            assert big / small == pytest.approx(4.0, rel=0.15)


class TestNormalConsistency:
    def test_first_example_surface(self, helix, ms38, dom38):
        assert normal_consistency(helix, ms38, dom38, 24, 7) <= 1e-5

    def test_second_example_surface(self, antis, ms39, dom39):
        assert normal_consistency(antis, ms39, dom39, 24, 7) <= 1e-5

    def test_kink_samples_are_flagged(self, helix):
        # abs() kink crossing the grid at s = 2 emits a warning and the
        # sample is skipped rather than compared
        dom = ParamDomain(1.0, 3.0, 0.0, 1.0, 0.0)
        ms = MarchingScale(
            alpha=parse("v*abs(s - 2)"), beta=parse("v"), gamma=parse("0")
        )
        with pytest.warns(KinkWarning):
            worst = normal_consistency(helix, ms, dom, 5, 3)
        assert worst <= 1e-5

    def test_zero_scale_all_degenerate(self, helix, dom38):
        assert normal_consistency(helix, marching_scale_zero(), dom38, 8, 3) == 0.0
