"""The package's value records: equality, hashing, repr and construction.

Every record derives from :class:`g3pencil.g3core.Record`, writes its own
``__init__`` and needs nothing generated at import time.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import g3pencil
from g3pencil.config import PencilConfig, VerifySpec
from g3pencil.curve import CurveClass, CurveSpec
from g3pencil.exprjet import BinOp, Call, Neg, Num, Var, parse
from g3pencil.g3core import Record
from g3pencil.pencil import MarchingScale, ParamDomain, PencilSpec, SynthesisSpec
from g3pencil.verify import DTypeReport, InvariantSample
import oracles
from oracles import DarbouxData, FrenetFrame, G3Vector, Jet3, NormalComponents

SRC = Path(__file__).resolve().parent.parent / "src"

S, V = Var("s"), Var("v")
ONE = Num(1.0)
E1, E2, E3 = G3Vector(1.0, 0.0, 0.0), G3Vector(0.0, 1.0, 0.0), G3Vector(0.0, 0.0, 1.0)
CURVE = CurveSpec("c", parse("s"), parse("s^2/2"), None, None)
SCALE = MarchingScale(V, V, V)
DOMAIN = ParamDomain(-1.0, 1.0, 0.0, 1.0, 0.0)

# Each record with its fields in declaration order, as keyword arguments.
RECORDS = [
    (Num, dict(value=1.5)),
    (Var, dict(name="s")),
    (Neg, dict(arg=S)),
    (BinOp, dict(op="+", left=S, right=Num(2.0))),
    (Call, dict(func="sin", arg=S)),
    (Jet3, dict(c0=1.0, c1=2.0, c2=3.0, c3=4.0)),
    (G3Vector, dict(x=1.0, y=2.0, z=3.0)),
    (CurveSpec, dict(name="c", f=parse("s"), g=parse("s^2/2"), kappa_form=ONE, tau_form=None)),
    (FrenetFrame, dict(s=0.5, t=E1, n=E2, b=E3, kappa=1.0, tau=0.25)),
    (DarbouxData, dict(w=E1, e0=E2, d_axis=E3)),
    (CurveClass, dict(kind="generic", constant=None)),
    (ParamDomain, dict(s_min=-1.0, s_max=1.0, v_min=0.0, v_max=1.0, v0=0.0)),
    (MarchingScale, dict(alpha=V, beta=V, gamma=V)),
    (
        SynthesisSpec,
        dict(lam=0.5, sigma=ONE, l=ONE, m=ONE, n=Neg(ONE), sign=-1.0, control=(1.0, 3.0, 5.0)),
    ),
    # and at its defaults, as a synthesis block without control is loaded
    (SynthesisSpec, dict(lam=0.5, sigma=ONE, l=ONE, m=ONE, n=Neg(ONE), sign=1.0, control=None)),
    (NormalComponents, dict(phi1=0.0, phi2=1.0, phi3=0.0, theta=0.0)),
    (PencilSpec, dict(curve=CURVE, marching=SCALE, domain=DOMAIN)),
    (VerifySpec, dict(mode="fd", tol=1e-5, samples=100)),
    (
        PencilConfig,
        dict(
            curve="fresnel-helix",
            marching=SCALE,
            domain=DOMAIN,
            grid=(200, 50),
            verify=VerifySpec(),
        ),
    ),
    (InvariantSample, dict(s=0.5, lambda_hat=0.5, flagged=False)),
    (
        DTypeReport,
        dict(
            samples=(InvariantSample(0.5, 0.5, False),),
            mean_lambda=0.5,
            max_abs_deviation=0.0,
            classification="general-d-type",
            mode="analytic",
            tolerance=1e-9,
            v0=0.0,
        ),
    ),
]
# A record's second row is named for its defaults.
IDS = [
    cls.__name__ + ("-defaults" if any(c is cls for c, _ in RECORDS[:i]) else "")
    for i, (cls, _) in enumerate(RECORDS)
]


@pytest.mark.parametrize("cls, kw", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, kw):
    assert cls._fields == tuple(kw)
    by_position = cls(*kw.values())
    by_keyword = cls(**kw)
    assert by_position == by_keyword
    assert tuple(getattr(by_keyword, k) for k in kw) == tuple(kw.values())


@pytest.mark.parametrize("cls, kw", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records_and_hashes(cls, kw):
    a, b = cls(**kw), cls(**kw)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls, kw", RECORDS, ids=IDS)
def test_another_class_with_the_same_values_is_not_equal(cls, kw):
    record = cls(**kw)
    other = type("Other", (cls,), {})(**kw)
    assert record != other and other != record
    assert record != tuple(kw.values())


def test_records_with_the_same_field_names_differ_by_class():
    class Twin(Record):  # not a subclass: only the field names agree
        __slots__ = _fields = SynthesisSpec._fields

        def __init__(self, *values):
            for name, value in zip(self._fields, values):
                setattr(self, name, value)

    fields = (0.5, ONE, ONE, ONE, Neg(ONE), 1.0, None)
    assert Twin(*fields) != SynthesisSpec(*fields)
    assert SynthesisSpec(*fields) != Twin(*fields)


@pytest.mark.parametrize("cls, kw", RECORDS, ids=IDS)
def test_unequal_fields_give_unequal_records(cls, kw):
    # each field in turn takes a value that no field holds, past any checks
    for changed in kw:
        record = cls.__new__(cls)
        for k, v in kw.items():
            object.__setattr__(record, k, object() if k == changed else v)
        assert cls(**kw) != record


@pytest.mark.parametrize("cls, kw", RECORDS, ids=IDS)
def test_repr_names_class_and_fields(cls, kw):
    fields = ", ".join(f"{k}={v!r}" for k, v in kw.items())
    assert repr(cls(**kw)) == f"{cls.__name__}({fields})"


def test_repr_text_is_unchanged():
    assert repr(BinOp("+", S, Num(2.0))) == "BinOp(op='+', left=Var(name='s'), right=Num(value=2.0))"
    assert repr(Jet3(1.0)) == "Jet3(c0=1.0, c1=0.0, c2=0.0, c3=0.0)"
    assert repr(VerifySpec()) == "VerifySpec(mode='analytic', tol=None, samples=200)"
    assert repr(G3Vector(0.0, -1.0, 2.5)) == "G3Vector(x=0.0, y=-1.0, z=2.5)"
    assert repr(CurveClass("salkowski", 1.0)) == "CurveClass(kind='salkowski', constant=1.0)"


def test_signed_zero_numbers_are_equal():
    assert Jet3(-0.0) == Jet3(0.0)
    assert hash(Jet3(-0.0)) == hash(Jet3(0.0))


@pytest.mark.parametrize("value", [-1.0, -0.0, -math.inf, -math.nan], ids=str)
def test_num_refuses_a_value_with_its_sign_bit_set(value):
    # a negative constant is Neg(Num(x)), as the parser and to_source read it
    with pytest.raises(ValueError, match="negate it with Neg"):
        Num(value)


def test_defaults():
    assert Jet3(1.0) == Jet3(1.0, 0.0, 0.0, 0.0)
    assert VerifySpec() == VerifySpec("analytic", None, 200)
    assert SynthesisSpec(0.5, ONE, ONE, ONE, ONE) == SynthesisSpec(0.5, ONE, ONE, ONE, ONE, 1.0, None)
    assert CurveSpec("c", S, V) == CurveSpec("c", S, V, None, None)


def test_missing_required_field_is_a_type_error():
    with pytest.raises(TypeError):
        Jet3()


@pytest.mark.parametrize(
    "args, message",
    [
        ((1.0, 1.0, 0.0, 1.0, 0.0), "s_min must be below s_max"),
        ((1.0, -1.0, 0.0, 1.0, 0.0), "s_min must be below s_max"),
        ((-1.0, 1.0, 0.0, 1.0, 2.0), r"v0 must lie inside \[v_min, v_max\]"),
        ((-1.0, 1.0, 0.0, 1.0, -0.5), r"v0 must lie inside \[v_min, v_max\]"),
        ((-1.0, 1.0, 1.0, 1.0, 1.0), "v_min must be below v_max"),
        ((-1e308, 1e308, 0.0, 1.0, 0.0), "s_max - s_min overflows to inf"),
        ((-1.0, 1.0, -float("inf"), 1.0, 0.0), "v_max - v_min overflows to inf"),
    ],
)
def test_param_domain_rejects_bad_boxes(args, message):
    with pytest.raises(ValueError, match=message):
        ParamDomain(*args)


@pytest.mark.parametrize("sign", [0.0, 0.5, 2.0])
def test_synthesis_spec_rejects_bad_signs(sign):
    with pytest.raises(ValueError, match=r"sign must be \+1.0 or -1.0"):
        SynthesisSpec(0.5, ONE, ONE, ONE, ONE, sign)


def test_kernel_caches_keep_a_dict_and_stay_out_of_equality():
    for record in (CurveSpec("c", S, V), MarchingScale(V, V, V)):
        assert hasattr(record, "__dict__")
    warm = CurveSpec("c", parse("s"), parse("s^2/2"))
    warm._point_values(0.5, 0.0)
    assert "_point_values" in vars(warm)
    assert warm == CURVE and hash(warm) == hash(CURVE)
    # synthesis compiles sigma with l, m and n, so SynthesisSpec caches no kernel
    assert not hasattr(SynthesisSpec(0.5, ONE, ONE, ONE, ONE), "__dict__")


@pytest.mark.parametrize("cls, kw", RECORDS, ids=IDS)
def test_records_are_written_in_their_modules(cls, kw):
    # nothing is generated by exec: the methods' code lives in the package
    module_file = sys.modules[cls.__module__].__file__
    assert cls.__init__.__code__.co_filename == module_file
    for name in ("__eq__", "__hash__", "__repr__"):
        method = getattr(cls, name)
        if method is not None:
            assert method.__code__.co_filename == sys.modules["g3pencil.g3core"].__file__
    if cls not in (CurveSpec, MarchingScale):
        assert not hasattr(cls(**kw), "__dict__")


def test_every_public_name_imports():
    namespace = {}
    exec("from g3pencil import *", namespace)
    for name in g3pencil.__all__:
        assert namespace[name] is getattr(g3pencil, name)


# Reference oracles that no command runs, by the module they moved out
# of; each now lives in tests/oracles.py.
MOVED_TO_ORACLES = {
    "g3pencil.pencil": (
        "required_normal_components",
        "corollary_components",
        "combine_on_frame",
        "_phis",
        "NormalComponents",
        "_COROLLARY_KINDS",
        "_KIND_TO_CLASS",
    ),
    "g3pencil.errors": ("ClassMismatch",),
    "g3pencil.g3core": (
        "isotropic_wedge",
        "G3Vector",
        "dot",
        "cross",
        "isotropic_norm",
        "normalize_isotropic",
    ),
    "g3pencil.curve": ("FrenetFrame", "DarbouxData"),
    "g3pencil.exprjet": (
        "Jet3",
        "_compose",
        "_call_jet",
        "_pow_factors",
        "_jet_eval",
        "eval_jet3",
        "eval_expr",
        "_evaluate",
        "_call_value",
        "_fold",
        "fresnel_s",
        "fresnel_c",
    ),
}


def test_the_package_holds_only_what_the_commands_run():
    gone = ("Jet3", "eval_jet3", "NormalComponents", "required_normal_components",
            "corollary_components", "classify_dtype", "eval_expr", "fresnel_s", "fresnel_c",
            "DTypeSpec", "ControlCoefficients", "apply_control_coefficients",
            # the record twins of the float formulas: the float functions are the one form
            "G3Vector", "FrenetFrame", "DarbouxData", "frenet", "darboux", "point",
            "surface_point", "surface_normal", "combine_on_frame", "cross", "dot",
            "isotropic_norm", "normalize_isotropic", "ZERO_NORM_FLOOR", "NonIsotropicInput",
            "ZeroVector")
    for name in gone:
        assert name not in g3pencil.__all__ and not hasattr(g3pencil, name), name
        for module in ("g3core", "curve", "pencil", "errors"):
            assert not hasattr(sys.modules[f"g3pencil.{module}"], name), f"{module}.{name}"
    for name in ("point_parts", "frame_parts", "darboux_parts", "cross_parts",
                 "surface_point_parts", "normal_parts"):
        assert name in g3pencil.__all__, name
    for name in ("classify_dtype", "_GEODESIC_TOL", "_radicand"):
        assert not hasattr(sys.modules["g3pencil.pencil"], name), name
    # one kernel per synthesis for m, n and sigma; the grid size is a tuple
    assert not hasattr(sys.modules["g3pencil.exprjet"], "compile_expr")
    assert not hasattr(sys.modules["g3pencil.config"], "GridSpec")
    assert not hasattr(SynthesisSpec, "_sigma")
    # one record holds the synthesis input; control is applied where a scale is built
    for name in ("DTypeSpec", "ControlCoefficients", "ProductFactors", "apply_control_coefficients"):
        assert not hasattr(sys.modules["g3pencil.pencil"], name), name
    assert not hasattr(sys.modules["g3pencil.config"], "SynthesisMS")
    assert not hasattr(sys.modules["g3pencil.errors"], "NotProductForm")
    assert "control" not in PencilConfig._fields and "product" not in MarchingScale._fields
    # one compiled pattern tokenizes expressions
    for name in ("_Token", "_DIGITS"):
        assert not hasattr(sys.modules["g3pencil.exprjet"], name), name
    for module, names in MOVED_TO_ORACLES.items():
        for name in names:
            assert not hasattr(sys.modules[module], name), f"{module}.{name}"
            assert hasattr(oracles, name), name


def test_cli_import_needs_no_dataclasses():
    code = (
        "import sys, g3pencil.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"
    for path in sorted((SRC / "g3pencil").glob("**/*.py")):
        assert "dataclass" not in path.read_text(), path
