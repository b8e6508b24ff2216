"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` and in the
failure output otherwise), so this module doubles as the go/no-go check:

    pytest tests/test_acceptance.py -v -s
"""

import json
import math
import random
import time
import warnings
from contextlib import contextmanager

import pytest

from g3pencil.cli import main
from g3pencil.config import config_from_dict, load_config, realize
from g3pencil.curve import (
    anti_salkowski,
    darboux_parts,
    frame_parts,
    fresnel_helix,
    point_parts,
    spread_s_values,
    usable_s_intervals,
)
from g3pencil.errors import InfeasibleLambda
from g3pencil.exprjet import parse
from g3pencil.figures import figure_doc
from g3pencil.mesh import _fmt, write_mesh
from g3pencil.pencil import (
    ParamDomain,
    SynthesisSpec,
    normal_parts,
    synthesize_product_form,
)
from g3pencil.verify import dtype_report
from oracles import (
    G3Vector,
    check_isoparametric,
    corollary_components,
    cross,
    dot,
    eval_expr,
    frame_record,
    fresnel_c,
    fresnel_s,
    fresnel_table,
    frenet_residuals,
    isotropic_norm,
    isotropic_wedge,
    normalize_isotropic,
    required_normal_components,
)

ONE = parse("1")
NEG_ONE = parse("-1")
SQRT3_2 = math.sqrt(3.0) / 2.0
DOM38 = ParamDomain(0.1, 2.0 * math.pi, 0.0, 5.0, 0.0)
DOM39 = ParamDomain(-3.0, 3.0, 0.0, 5.0, 0.0)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number:02d}: {description}")
        raise
    print(f"[PASS] criterion {number:02d}: {description}")


def test_c01_builtin_closed_forms():
    with criterion(1, "built-in curvature and torsion closed forms (1e-8)"):
        start = time.perf_counter()
        helix = fresnel_helix()
        for i in range(200):
            s = 0.1 + (2.0 * math.pi - 0.1) * i / 199
            kappa, tau, *_ = frame_parts(helix, s)
            assert abs(kappa - s) <= 1e-8
            assert abs(tau - s / 4.0) <= 1e-8
        antis = anti_salkowski()
        for i in range(200):
            s = -3.0 + 6.0 * i / 199
            kappa, tau, *_ = frame_parts(antis, s)
            assert abs(kappa - math.cosh(s / 4.0)) <= 1e-8
            assert abs(tau - 1.0) <= 1e-8
        assert time.perf_counter() - start < 1.0


def test_c02_frenet_equation_residuals():
    with criterion(2, "frame equation residuals (1e-6 at h=1e-5, 4x shrink)"):
        start = time.perf_counter()
        helix = fresnel_helix()
        antis = anti_salkowski()
        for curve, rng in ((helix, (0.5, 6.0)), (antis, (-3.0, 3.0))):
            res = frenet_residuals(curve, rng, 100, 1e-5)
            assert max(res) <= 1e-6
        # quadratic convergence, measured where truncation error dominates
        # rounding (near h=1e-5 the residual floor is set by rounding)
        coarse = frenet_residuals(helix, (0.5, 6.0), 50, 1e-3)
        fine = frenet_residuals(helix, (0.5, 6.0), 50, 5e-4)
        for big, small in zip(coarse, fine):
            assert 3.4 <= big / small <= 4.6
        assert time.perf_counter() - start < 1.0


def test_c03_darboux_axis_identity():
    with criterion(3, "axis identity e0 x t = (kappa/|tau|) n (1e-12, 500 states)"):
        rng = random.Random(424242)
        helix = fresnel_helix()
        antis = anti_salkowski()
        for _ in range(500):
            if rng.random() < 0.5:
                curve, s = helix, rng.uniform(0.15, 2.0 * math.pi)
                if rng.random() < 0.3:
                    s = -s
            else:
                curve, s = antis, rng.uniform(-3.0, 3.0)
            fr = frame_record(curve, s)
            e0 = G3Vector(*darboux_parts(fr.parts())[1])
            resid = cross(e0, fr.t) - (fr.kappa / abs(fr.tau)) * fr.n
            assert isotropic_norm(resid) <= 1e-12


def test_c04_first_example_invariant():
    with criterion(4, "worked example one: mean invariant 0.5 (1e-9; fd within 1e-4)"):
        start = time.perf_counter()
        helix = fresnel_helix()
        ms = synthesize_product_form(helix, SynthesisSpec(0.5, ONE, ONE, ONE, NEG_ONE), DOM38)
        rep = dtype_report(helix, ms, DOM38, 200, "analytic")
        assert rep.mean_lambda == pytest.approx(0.5, abs=1e-9)
        assert rep.max_abs_deviation <= 1e-9
        fd = dtype_report(helix, ms, DOM38, 200, "fd")
        assert abs(fd.mean_lambda - rep.mean_lambda) <= 1e-4
        assert time.perf_counter() - start < 2.0


def test_c05_second_example_invariant():
    with criterion(5, "worked example two: corrected 0.8660254, as-printed rejected"):
        antis = anti_salkowski()
        synth = SynthesisSpec(SQRT3_2, parse("1/cosh(s/4)"), ONE, ONE, NEG_ONE)
        ms = synthesize_product_form(antis, synth, DOM39)
        # the independent position-only oracle runs first and establishes
        # that the corrected construction really is the constant one
        fd = dtype_report(antis, ms, DOM39, 200, "fd")
        assert fd.mean_lambda == pytest.approx(0.86602540, abs=1e-4)
        assert fd.holds
        rep = dtype_report(antis, ms, DOM39, 200, "analytic", 1e-6)
        assert rep.mean_lambda == pytest.approx(0.86602540, abs=1e-6)
        assert rep.max_abs_deviation <= 1e-6
        # the formulas as printed fail the same check, loudly
        printed_cfg = config_from_dict(figure_doc("fig1f", as_printed=True))
        printed = realize(printed_cfg, as_printed=True)
        bad = dtype_report(antis, printed.marching, DOM39, 200, "analytic", 1e-6)
        assert bad.classification == "not-d-type"
        assert bad.max_abs_deviation > 1e-2
        print(
            f"  as-printed deviation recorded: {bad.max_abs_deviation:.6f} "
            f"(mean {bad.mean_lambda:.6f})"
        )


def test_c06_synthesis_roundtrip_fuzz():
    with criterion(6, "100 feasible syntheses verify at 1e-9; 100 infeasible raise"):
        helix = fresnel_helix()
        dom = ParamDomain(0.3, 6.0, 0.0, 5.0, 0.0)
        rng = random.Random(1618)
        factors = (1.0, -1.0, 2.0, -2.0)
        for _ in range(100):
            sigma = rng.choice((0.5, 1.0, 2.0))
            lam = rng.uniform(-3.9, 3.9)
            sign = rng.choice((1.0, -1.0))
            ms = synthesize_product_form(
                helix,
                SynthesisSpec(
                    lam,
                    parse(repr(sigma)),
                    parse(repr(rng.choice(factors))),
                    parse(repr(rng.choice(factors))),
                    parse(repr(rng.choice(factors))),
                    sign,
                ),
                dom,
            )
            rep = dtype_report(helix, ms, dom, 32, "analytic")
            assert rep.holds
            assert rep.mean_lambda == pytest.approx(lam, abs=1e-9)
            assert rep.max_abs_deviation <= 1e-9
        # ratio |lam tau / (sigma kappa)| = |lam| / (4 sigma) > 1 everywhere
        for _ in range(100):
            sigma = rng.choice((0.5, 1.0, 2.0))
            lam = rng.choice((1.0, -1.0)) * 4.0 * sigma * rng.uniform(1.05, 3.0)
            with pytest.raises(InfeasibleLambda):
                synthesize_product_form(
                    helix,
                    SynthesisSpec(lam, parse(repr(sigma)), ONE, ONE, NEG_ONE),
                    dom,
                    scaled=False,
                )
        # the scaled rule's own bound |lam tau / kappa| <= 1 is enforced too
        with pytest.raises(InfeasibleLambda):
            synthesize_product_form(helix, SynthesisSpec(4.2, ONE, ONE, ONE, NEG_ONE), dom)


def test_c07_corollary_specializations():
    with criterion(7, "asymptotic, geodesic and helix specializations"):
        helix = fresnel_helix()
        antis = anti_salkowski()
        # lam = 0: the unit normal stays orthogonal to the principal normal
        for curve, dom in ((helix, DOM38), (antis, DOM39)):
            ms = synthesize_product_form(curve, SynthesisSpec(0.0, ONE, ONE, ONE, NEG_ONE), dom)
            for s in spread_s_values(usable_s_intervals(curve, dom.s_min, dom.s_max), 64):
                fr = frame_record(curve, s)
                eta1 = normalize_isotropic(G3Vector(*normal_parts(ms, s, 0.0, fr.parts())))
                assert abs(dot(eta1, fr.n)) <= 1e-9
        # lam matched to kappa/|tau| = 4: the unit normal is parallel to it
        msg = synthesize_product_form(helix, SynthesisSpec(4.0, ONE, ONE, ONE, NEG_ONE), DOM38)
        for s in spread_s_values(usable_s_intervals(helix, 0.1, 2.0 * math.pi), 64):
            fr = frame_record(helix, s)
            eta1 = normalize_isotropic(G3Vector(*normal_parts(msg, s, 0.0, fr.parts())))
            assert abs(isotropic_wedge(eta1, fr.n)) <= 1e-9
        # helix specialization with ratio 0.25 reproduces criterion 4's numbers
        synth = SynthesisSpec(0.5, ONE, ONE, ONE, NEG_ONE)
        for s in [0.2 + 0.3 * i for i in range(20)]:
            via_helix = corollary_components(helix, "helix", synth, s, (0.5, 6.0))
            direct = required_normal_components(helix, synth, s)
            assert abs(via_helix.phi2 - direct.phi2) <= 1e-12
            assert abs(via_helix.phi3 - direct.phi3) <= 1e-12
            assert abs(via_helix.phi2 - 0.125) <= 1e-12
            assert abs(via_helix.phi3 - 3.0 * math.sqrt(7.0) / 8.0) <= 1e-12


def test_c08_control_coefficient_behavior():
    with criterion(8, "control coefficients: b=c keeps 0.5; (1/3,1/5,1) stays constant"):
        helix = fresnel_helix()

        def controlled(control):
            synth = SynthesisSpec(0.5, ONE, ONE, ONE, NEG_ONE, control=control)
            return synthesize_product_form(helix, synth, DOM38)

        for b in (0.5, 1.0, 3.0):
            ms = controlled((2.0, b, b))
            rep = dtype_report(helix, ms, DOM38, 64, "analytic")
            assert rep.mean_lambda == pytest.approx(0.5, abs=1e-9)
            assert rep.max_abs_deviation <= 1e-9
        ms = controlled((1 / 3, 1 / 5, 1.0))
        rep = dtype_report(helix, ms, DOM38, 200, "analytic")
        assert rep.max_abs_deviation <= 1e-9
        fd = dtype_report(helix, ms, DOM38, 100, "fd")
        assert abs(rep.mean_lambda - fd.mean_lambda) <= 1e-4
        # value determined by the position-only oracle; algebra puts it at
        # 0.5 / sqrt(1/64 + 63/1600) = sqrt(50/11)
        assert rep.mean_lambda == pytest.approx(math.sqrt(50.0 / 11.0), abs=1e-9)
        assert abs(rep.mean_lambda - 0.5) > 0.1
        print(f"  rescaled invariant: {rep.mean_lambda:.12f}")


def test_c09_isoparametric_reproduction(tmp_path):
    with criterion(9, "shipped configs reproduce the curve exactly; CSV base row"):
        for path in ("configs/fresnel-helix.json", "configs/anti-salkowski.json"):
            cfg = load_config(path)
            pencil = realize(cfg)
            assert check_isoparametric(pencil.curve, pencil.marching, pencil.domain) == 0.0
            out = tmp_path / "mesh.csv"
            write_mesh(pencil, 40, 10, csv=str(out))
            rows = out.read_text().splitlines()[1:]
            assert len(rows) == 40 * 10
            for row in rows[::10]:
                s = float(row.split(",")[0])  # 17 significant digits give back the double
                x, y, z = point_parts(pencil.curve, s)
                expected = f"{_fmt(s)},{_fmt(0.0)},{_fmt(x)},{_fmt(y)},{_fmt(z)}"
                assert row == expected


def test_c10_fresnel_accuracy():
    with criterion(10, "Fresnel integrals within 1e-10 of quadrature on 1000 points"):
        rng = random.Random(100)
        points = [rng.uniform(-10.0, 10.0) for _ in range(1000)]
        table = fresnel_table(points)
        for p, (s_ref, c_ref) in table.items():
            assert abs(fresnel_s(p) - s_ref) <= 1e-10
            assert abs(fresnel_c(p) - c_ref) <= 1e-10


def test_c11_build_determinism(tmp_path, capsys):
    with criterion(11, "build 200x50: byte-identical across 1/2/8 workers, < 1 s"):
        blobs = {}
        elapsed = None
        for workers in (1, 2, 8):
            out = tmp_path / f"w{workers}.obj"
            start = time.perf_counter()
            rc = main(
                [
                    "build",
                    "configs/fresnel-helix.json",
                    "-o",
                    str(out),
                    "--workers",
                    str(workers),
                ]
            )
            took = time.perf_counter() - start
            assert rc == 0
            blobs[workers] = out.read_bytes()
            if workers == 1:
                elapsed = took
        capsys.readouterr()
        assert blobs[1] == blobs[2] == blobs[8]
        assert elapsed < 1.0
        print(f"  single-worker build time: {elapsed:.3f} s")


def test_c12_parser_suite_and_jet_property():
    with criterion(12, "50-case grammar corpus and jet-vs-difference property"):
        import test_exprjet as ej

        assert len(ej.VALID_CASES) + len(ej.INVALID_CASES) >= 50
        for text, expected in ej.VALID_CASES:
            value = eval_expr(parse(text), ej.S0, ej.V0)
            assert value == pytest.approx(expected, rel=1e-14, abs=1e-14)
            assert parse(ej.to_source(parse(text))) == parse(text)
        for text, offset in ej.INVALID_CASES:
            with pytest.raises(ej.ParseError) as info:
                parse(text)
            assert info.value.offset == offset
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ej.test_jets_match_finite_differences_random_corpus()
