import math

import pytest

from g3pencil.config import SynthesisMS
from g3pencil.figures import CURVE_FIGURES, FIGURES


def test_all_eight_figures_defined():
    assert sorted(FIGURES) == [f"fig1{c}" for c in "abcdefgh"]
    assert set(CURVE_FIGURES) == {"fig1a", "fig1e"}


@pytest.mark.parametrize(
    "name,control",
    [
        ("fig1b", (1.0, 1.0, 1.0)),
        ("fig1c", (1 / 3, 1 / 5, 1.0)),
        ("fig1d", (1 / 3, 1 / 5, 1.0)),
        ("fig1g", (1.0, 3.0, 5.0)),
        ("fig1h", (1.0, 1 / 5, 1 / 10)),
    ],
)
def test_control_coefficients_per_figure(name, control):
    cfg = FIGURES[name].config()
    assert (cfg.control.a, cfg.control.b, cfg.control.c) == control


def test_first_example_targets():
    cfg = FIGURES["fig1b"].config()
    assert cfg.curve == "fresnel-helix"
    ms = cfg.marching
    assert isinstance(ms, SynthesisMS)
    assert ms.lam == 0.5
    assert cfg.domain.s_min == -2 * math.pi and cfg.domain.s_max == 2 * math.pi
    assert cfg.domain.v_min == 0.0 and cfg.domain.v_max == 5.0


def test_second_example_targets():
    cfg = FIGURES["fig1f"].config()
    assert cfg.curve == "anti-salkowski"
    assert cfg.marching.lam == pytest.approx(math.sqrt(3) / 2)
    printed = FIGURES["fig1f"].config(as_printed=True)
    assert printed.marching.product is not None


def test_fig1d_uses_varying_sigma():
    from g3pencil.exprjet import Var

    cfg = FIGURES["fig1d"].config()
    assert cfg.marching.sigma == Var("s")


def test_curve_figures_have_no_surface_config():
    with pytest.raises(ValueError):
        FIGURES["fig1a"].config()
