import json
import math

import pytest

from g3pencil.config import build_curve, config_from_dict, load_config, realize
from g3pencil.curve import CurveSpec, anti_salkowski, fresnel_helix
from g3pencil.errors import ParseError, SchemaError
from g3pencil.exprjet import parse
from g3pencil.pencil import (
    MarchingScale,
    SynthesisSpec,
    product_marching_scale,
    synthesize_product_form,
)
from oracles import check_isoparametric


def minimal_doc(**overrides):
    doc = {
        "curve": "fresnel-helix",
        "marching_scale": {
            "synthesis": {
                "lambda": 0.5,
                "sigma": "1",
                "sign": "+",
                "l": "1",
                "m": "1",
                "n": "-1",
            }
        },
        "domain": {"s_min": 0.1, "s_max": 2 * math.pi, "v_min": 0.0, "v_max": 5.0, "v0": 0.0},
        "grid": {"ns": 20, "nv": 5},
    }
    doc.update(overrides)
    return doc


class TestShippedConfigs:
    def test_fresnel_helix_config_loads(self):
        cfg = load_config("configs/fresnel-helix.json")
        assert cfg.curve == "fresnel-helix"
        ms = cfg.marching
        assert isinstance(ms, SynthesisSpec)
        assert ms.lam == 0.5
        assert ms.sign == 1.0
        assert ms.control is None

    def test_anti_salkowski_config_loads(self):
        cfg = load_config("configs/anti-salkowski.json")
        assert cfg.curve == "anti-salkowski"
        assert cfg.marching.lam == pytest.approx(math.sqrt(3) / 2)

    @pytest.mark.parametrize(
        "path", ["configs/fresnel-helix.json", "configs/anti-salkowski.json"]
    )
    def test_shipped_configs_reproduce_their_curve(self, path):
        cfg = load_config(path)
        pencil = realize(cfg)
        assert check_isoparametric(pencil.curve, pencil.marching, pencil.domain, 64) == 0.0


class TestSchema:
    def test_both_blocks_rejected(self):
        doc = minimal_doc()
        doc["marching_scale"]["direct"] = {"alpha": "0", "beta": "v", "gamma": "0"}
        with pytest.raises(SchemaError) as info:
            config_from_dict(doc)
        assert "marching_scale" in str(info.value)

    def test_no_block_rejected(self):
        with pytest.raises(SchemaError):
            config_from_dict(minimal_doc(marching_scale={}))

    def test_unknown_builtin(self):
        with pytest.raises(SchemaError):
            config_from_dict(minimal_doc(curve="moebius"))

    def test_grid_floor(self):
        with pytest.raises(SchemaError):
            config_from_dict(minimal_doc(grid={"ns": 1, "nv": 5}))

    def test_missing_domain_entry(self):
        doc = minimal_doc()
        del doc["domain"]["v0"]
        with pytest.raises(SchemaError) as info:
            config_from_dict(doc)
        assert "v0" in str(info.value)

    @pytest.mark.parametrize(
        "entries, message",
        [
            ({"s_min": 7.0}, "s_min must be below s_max"),
            ({"v0": 6.0}, r"v0 must lie inside \[v_min, v_max\]"),
            ({"v_min": 5.0, "v0": 5.0}, "v_min must be below v_max"),
            # finite ends whose distance is not: no grid spacing or fd step exists
            ({"v_min": -1e308, "v_max": 1e308}, "v_max - v_min overflows to inf"),
            ({"s_min": -1e308, "s_max": 1e308}, "s_max - s_min overflows to inf"),
        ],
        ids=["s-inverted", "v0-outside", "v-empty", "v-overflows", "s-overflows"],
    )
    def test_domain_rejected(self, entries, message):
        doc = minimal_doc()
        doc["domain"].update(entries)
        with pytest.raises(SchemaError, match=message) as info:
            config_from_dict(doc)
        assert info.value.path == "$.domain"
        # the largest extents that stay finite load
        doc["domain"].update(s_min=-8e307, s_max=8e307, v_min=-8e307, v_max=8e307, v0=0.0)
        assert config_from_dict(doc).domain.v_max == 8e307

    def test_bad_expression_surfaces_parse_error(self):
        doc = minimal_doc()
        doc["marching_scale"]["synthesis"]["sigma"] = "sin("
        with pytest.raises(ParseError):
            config_from_dict(doc)

    def test_quadratic_factor_vanishing_at_v0_accepted(self):
        doc = minimal_doc(
            marching_scale={
                "product": {
                    "l": "1",
                    "m": "1",
                    "n": "-1",
                    "X": "v^2",
                    "Y": "v",
                    "Z": "v",
                }
            }
        )
        cfg = config_from_dict(doc)
        assert cfg.marching == product_marching_scale(*map(parse, ("1", "1", "-1", "v^2", "v", "v")))

    def test_factor_not_vanishing_at_v0_rejected(self):
        doc = minimal_doc(
            marching_scale={
                "product": {
                    "l": "1",
                    "m": "1",
                    "n": "-1",
                    "X": "v + 1",
                    "Y": "v",
                    "Z": "v",
                }
            }
        )
        with pytest.raises(SchemaError) as info:
            config_from_dict(doc)
        assert "X" in str(info.value)

    def test_nan_factor_at_v0_rejected(self):
        # NaN fails the vanishing test as a value far from zero does
        product = {"l": "1", "m": "1", "n": "-1", "X": "v*(0*exp(1000))", "Y": "v", "Z": "v"}
        doc = minimal_doc(marching_scale={"product": product})
        doc["domain"]["s_max"] = 6.28
        with pytest.raises(SchemaError) as info:
            config_from_dict(doc)
        assert str(info.value) == (
            "$.marching_scale.product.X: must vanish at v0 = 0, got nan at s = 0.718"
        )

    @pytest.mark.parametrize(
        "scale, label, value",
        [
            ({"alpha": "1", "beta": "v", "gamma": "-v"}, "alpha", "1"),
            ({"alpha": "v*(0*exp(1000))", "beta": "v", "gamma": "v"}, "alpha", "nan"),
            ({"alpha": "v", "beta": "1 + v", "gamma": "v"}, "beta", "1"),
            ({"alpha": "v", "beta": "v", "gamma": "s + v"}, "gamma", "0.718"),
        ],
    )
    def test_direct_scale_not_vanishing_at_v0_rejected(self, scale, label, value):
        doc = minimal_doc(marching_scale={"direct": scale})
        doc["domain"]["s_max"] = 6.28
        with pytest.raises(SchemaError) as info:
            config_from_dict(doc)
        assert str(info.value) == (
            f"$.marching_scale.direct.{label}: must vanish at v0 = 0, got {value} at s = 0.718"
        )

    def test_direct_scale_check_skips_what_fails_to_evaluate(self):
        # a kernel that fails to compile, and points outside a factor's
        # domain, are left to the grid guards, as for product factors
        scale = {"alpha": "ln(0)*v", "beta": "sqrt(s - 3)*v", "gamma": "v"}
        cfg = config_from_dict(minimal_doc(marching_scale={"direct": scale}))
        assert cfg.marching == MarchingScale(*map(parse, scale.values()))

    def test_grid_is_the_ns_nv_pair(self):
        assert config_from_dict(minimal_doc()).grid == (20, 5)

    def test_missing_file(self):
        with pytest.raises(SchemaError):
            load_config("/nonexistent/config.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(SchemaError):
            load_config(str(p))

    def test_sign_validation(self):
        doc = minimal_doc()
        doc["marching_scale"]["synthesis"]["sign"] = "?"
        with pytest.raises(SchemaError):
            config_from_dict(doc)

    @pytest.mark.parametrize("key, text", [("sigma", "1 + 0*v"), ("l", "sqrt(v - 1)"),
                                           ("m", "1/v"), ("n", "-v")])
    def test_synthesis_factor_that_reads_v_rejected(self, key, text):
        # synthesis checks its factors at v = 0, which lies outside v in [1, 5]
        doc = minimal_doc()
        doc["domain"].update(v_min=1.0, v_max=5.0, v0=1.0)
        doc["marching_scale"]["synthesis"][key] = text
        with pytest.raises(SchemaError, match="must be a function of s alone, but reads v") as info:
            config_from_dict(doc)
        assert info.value.path == f"$.marching_scale.synthesis.{key}"
        factors = dict(sigma=parse("1"), l=parse("1"), m=parse("1"), n=parse("-1"))
        with pytest.raises(ValueError, match=f"^{key} must be a function of s alone"):
            SynthesisSpec(0.5, **dict(factors, **{key: parse(text)}))

    def test_explicit_curve_with_closed_forms(self):
        doc = minimal_doc(
            curve={"f": "s^2", "g": "s^3", "kappa": "sqrt(4+36*s^2)", "tau": "1"},
            marching_scale={"direct": {"alpha": "0", "beta": "v", "gamma": "0"}},
        )
        cfg = config_from_dict(doc)
        assert cfg.curve == CurveSpec(
            "explicit", parse("s^2"), parse("s^3"), parse("sqrt(4+36*s^2)"), parse("1")
        )
        assert cfg.marching == MarchingScale(parse("0"), parse("v"), parse("0"))
        assert build_curve(cfg.curve, as_printed=True) is cfg.curve

    def test_synthesis_needs_closed_forms_on_an_explicit_curve(self):
        curve = {"f": "s^3/6", "g": "s^4/24"}
        with pytest.raises(SchemaError, match="closed-form kappa and tau") as info:
            config_from_dict(minimal_doc(curve=curve))
        assert info.value.path == "$.curve"
        # other marching scales need no closed forms, and synthesis takes given ones
        direct = {"direct": {"alpha": "0", "beta": "v", "gamma": "0"}}
        cfg = config_from_dict(minimal_doc(curve=curve, marching_scale=direct))
        assert cfg.curve.kappa_form is None
        config_from_dict(minimal_doc(curve=dict(curve, kappa="1", tau="s")))

    def test_too_few_verify_samples_rejected(self):
        assert config_from_dict(minimal_doc(verify={"samples": 8})).verify.samples == 8
        with pytest.raises(SchemaError) as info:
            config_from_dict(minimal_doc(verify={"samples": 4}))
        assert info.value.path == "$.verify.samples"

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "1e400"]
    )
    @pytest.mark.parametrize(
        "keys",
        [
            ("domain", "v_max"),
            ("marching_scale", "synthesis", "lambda"),
            ("control", "a"),
            ("verify", "tol"),
        ],
        ids=".".join,
    )
    def test_non_finite_numbers_rejected(self, tmp_path, keys, value):
        # json.dumps writes the NaN and Infinity literals that json.loads reads back
        doc = minimal_doc(control={"a": 1.0}, verify={"tol": 1e-9})
        entry = doc
        for key in keys[:-1]:
            entry = entry[key]
        entry[keys[-1]] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="expected a finite number") as info:
            load_config(str(path))
        assert info.value.path == "$." + ".".join(keys)

    @pytest.mark.parametrize("tol", [0, 0.0, -1e-9])
    def test_verify_tol_must_be_above_zero(self, tol):
        assert config_from_dict(minimal_doc(verify={"tol": 1e-300})).verify.tol == 1e-300
        with pytest.raises(SchemaError, match="above 0") as info:
            config_from_dict(minimal_doc(verify={"tol": tol}))
        assert info.value.path == "$.verify.tol"


class TestBuildCurve:
    def test_builtin_names(self):
        assert build_curve("fresnel-helix") == fresnel_helix()
        assert build_curve("fresnel-helix", as_printed=True) == fresnel_helix(as_printed=True)
        assert build_curve("anti-salkowski") == anti_salkowski()
        assert build_curve("anti-salkowski", as_printed=True) == anti_salkowski()


class TestRealize:
    def test_direct_marching_scale(self):
        doc = minimal_doc(
            marching_scale={"direct": {"alpha": "0", "beta": "v", "gamma": "0"}}
        )
        cfg = config_from_dict(doc)
        pencil = realize(cfg)
        assert pencil.marching is cfg.marching  # parsed scales pass straight through
        assert pencil.marching == MarchingScale(parse("0"), parse("v"), parse("0"))

    def test_control_with_direct_scale_rejected(self):
        doc = minimal_doc(
            marching_scale={"direct": {"alpha": "0", "beta": "v", "gamma": "0"}},
            control={"a": 1.0, "b": 2.0, "c": 3.0},
        )
        with pytest.raises(SchemaError) as info:
            config_from_dict(doc)
        assert str(info.value) == "$.control: not allowed beside a direct block"

    def test_control_beside_direct_is_checked_after_the_rest(self):
        # a document with several faults reports the one it reported before
        direct = {"direct": {"alpha": "1", "beta": "v", "gamma": "0"}}
        doc = minimal_doc(marching_scale=direct, control={"a": 2.0}, grid={"ns": 1, "nv": 5})
        with pytest.raises(SchemaError) as info:
            config_from_dict(doc)
        assert info.value.path == "$.grid"
        doc["grid"]["ns"] = 20
        with pytest.raises(SchemaError) as info:
            config_from_dict(doc)
        assert info.value.path == "$.marching_scale.direct.alpha"

    def test_control_is_applied_where_the_scale_is_built(self):
        control = {"a": 0.5, "b": -2.0}
        product = {"l": "1", "m": "s", "n": "-1", "X": "v", "Y": "v^2", "Z": "s*v"}
        cfg = config_from_dict(minimal_doc(marching_scale={"product": product}, control=control))
        factors = [parse(product[k]) for k in ("l", "m", "n", "X", "Y", "Z")]
        assert cfg.marching == product_marching_scale(*factors, (0.5, -2.0, 1.0))
        cfg = config_from_dict(minimal_doc(control=control))
        assert cfg.marching.control == (0.5, -2.0, 1.0)
        one = parse("1")
        synth = SynthesisSpec(0.5, one, one, one, parse("-1"), control=(0.5, -2.0, 1.0))
        assert cfg.marching == synth
        assert realize(cfg).marching == synthesize_product_form(
            fresnel_helix(), synth, cfg.domain
        )

    def test_product_factors_are_checked_before_control(self):
        # a = 0 would make a*X vanish, but X itself must
        product = {"l": "1", "m": "1", "n": "-1", "X": "v + 1", "Y": "v", "Z": "v"}
        doc = minimal_doc(marching_scale={"product": product}, control={"a": 0.0})
        doc["domain"]["s_max"] = 6.28
        with pytest.raises(SchemaError) as info:
            config_from_dict(doc)
        assert str(info.value) == (
            "$.marching_scale.product.X: must vanish at v0 = 0, got 1 at s = 0.718"
        )

    def test_sign_override(self):
        # the document's "sign" selects the branch, control coefficients included
        doc = minimal_doc(control={"a": 2.0, "b": 0.5, "c": 3.0})
        plus = realize(config_from_dict(doc))
        doc["marching_scale"]["synthesis"]["sign"] = "-"
        minus = realize(config_from_dict(doc))
        from oracles import eval_expr

        assert eval_expr(plus.marching.beta, 2.0, 1.0) == pytest.approx(
            -eval_expr(minus.marching.beta, 2.0, 1.0)
        )
        assert plus.marching.gamma == minus.marching.gamma

    def test_as_printed_switches_curve_and_rule(self):
        cfg = config_from_dict(minimal_doc())
        printed = realize(cfg, as_printed=True)
        assert printed.curve.name == "fresnel-helix-printed"
