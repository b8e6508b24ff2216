import json
import math

import pytest

from g3pencil.config import SynthesisMS, build_curve, config_from_dict, load_config, realize
from g3pencil.curve import CurveSpec, anti_salkowski, fresnel_helix
from g3pencil.errors import NotProductForm, ParseError, SchemaError
from g3pencil.exprjet import parse
from g3pencil.pencil import MarchingScale, product_marching_scale
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
        assert isinstance(ms, SynthesisMS)
        assert ms.lam == 0.5
        assert ms.sign == 1.0

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
        assert pencil.marching.product is None

    def test_control_with_direct_scale_rejected(self):
        doc = minimal_doc(
            marching_scale={"direct": {"alpha": "0", "beta": "v", "gamma": "0"}},
            control={"a": 1.0, "b": 2.0, "c": 3.0},
        )
        with pytest.raises(NotProductForm):
            realize(config_from_dict(doc))

    def test_sign_override(self):
        cfg = config_from_dict(minimal_doc())
        plus = realize(cfg)
        minus = realize(cfg, sign=-1.0)
        from oracles import eval_expr

        assert eval_expr(plus.marching.beta, 2.0, 1.0) == pytest.approx(
            -eval_expr(minus.marching.beta, 2.0, 1.0)
        )

    def test_as_printed_switches_curve_and_rule(self):
        cfg = config_from_dict(minimal_doc())
        printed = realize(cfg, as_printed=True)
        assert printed.curve.name == "fresnel-helix-printed"
