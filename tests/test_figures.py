import math

import pytest

from check_goldens import FIGURE_RUNS, pinned_digests, sha256
from g3pencil import figures
from g3pencil.cli import main
from g3pencil.config import SynthesisMS, config_from_dict
from g3pencil.figures import CURVE_FIGURES, FIGURES, SURFACE_FIGURES, figure_doc


def _config(name, as_printed=False):
    return config_from_dict(figure_doc(name, as_printed))


def test_all_eight_figures_defined():
    assert FIGURES == [f"fig1{c}" for c in "abcdefgh"]
    assert set(CURVE_FIGURES) == {"fig1a", "fig1e"}
    assert set(SURFACE_FIGURES) == set(FIGURES) - set(CURVE_FIGURES)


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
    cfg = _config(name)
    assert (cfg.control.a, cfg.control.b, cfg.control.c) == control


def test_first_example_targets():
    cfg = _config("fig1b")
    assert cfg.curve == "fresnel-helix"
    ms = cfg.marching
    assert isinstance(ms, SynthesisMS)
    assert ms.lam == 0.5
    assert cfg.domain.s_min == -2 * math.pi and cfg.domain.s_max == 2 * math.pi
    assert cfg.domain.v_min == 0.0 and cfg.domain.v_max == 5.0


def test_second_example_targets():
    cfg = _config("fig1f")
    assert cfg.curve == "anti-salkowski"
    assert cfg.marching.lam == pytest.approx(math.sqrt(3) / 2)
    printed = _config("fig1f", as_printed=True)
    assert printed.marching.product is not None


def test_fig1d_uses_varying_sigma():
    from g3pencil.exprjet import Var

    cfg = _config("fig1d")
    assert cfg.marching.sigma == Var("s")


def test_curve_figures_have_no_surface_config():
    with pytest.raises(KeyError):
        figure_doc("fig1a")


def test_documents_are_built_fresh_and_leave_the_table_alone():
    doc = figure_doc("fig1b")
    doc["domain"]["s_min"] = 0.0
    doc["grid"]["ns"] = 3
    assert figure_doc("fig1b")["domain"] == figures.DOMAIN
    assert figures.DOMAIN["s_min"] == -2 * math.pi and figures.GRID == (200, 50)


def test_reproduce_writes_the_pinned_bytes(tmp_path, capsys):
    # the files of every figure at the default grid, corrected and as
    # printed, against tests/golden/figures.sha256 (tests/check_goldens.py
    # checks each run's stderr there too)
    pinned = {name: digest for name, digest in pinned_digests().items()
              if not name.endswith("/stderr")}
    got = {}
    with pytest.warns(UserWarning, match="grid re-spans"):
        for run, argv in FIGURE_RUNS.items():
            assert main(["reproduce", *argv, "-o", str(tmp_path / run)]) == 0
            got.update((f"{run}/{path.name}", sha256(path.read_bytes()))
                       for path in (tmp_path / run).iterdir())
    capsys.readouterr()
    assert len(pinned) == 28
    assert got == pinned
