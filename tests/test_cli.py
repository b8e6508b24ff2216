import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from g3pencil.cli import main


def test_frenet_prints_frame(capsys):
    rc = main(["frenet", "configs/fresnel-helix.json", "--at", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "kappa = 2" in out
    assert "tau = 0.5" in out
    assert "E0 = " in out
    assert "t = (1," in out


def test_classify_reports_helix(capsys):
    rc = main(["classify", "configs/fresnel-helix.json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "general-helix" in out
    assert "0.25" in out


def test_classify_anti_salkowski(capsys):
    rc = main(["classify", "configs/anti-salkowski.json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "anti-salkowski" in out


def test_verify_passes_on_shipped_config(capsys):
    rc = main(["verify", "configs/fresnel-helix.json"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["mean_lambda"] == pytest.approx(0.5, abs=1e-9)
    assert doc["classification"] == "general-d-type"


def test_verify_exit_tracks_tolerance(capsys):
    # impossibly tight tolerance forces a verify failure without changing
    # anything about the surface
    rc = main(["verify", "configs/fresnel-helix.json", "--tol", "1e-18"])
    out = capsys.readouterr().out
    assert rc == 1
    assert json.loads(out)["classification"] == "not-d-type"


def test_verify_fd_mode(capsys):
    rc = main(["verify", "configs/fresnel-helix.json", "--mode", "fd", "--tol", "1e-4"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["mode"] == "fd"
    assert doc["mean_lambda"] == pytest.approx(0.5, abs=1e-4)


def test_verify_mode_override_takes_that_modes_default_tolerance(capsys):
    # the config's tol of 1e-9 belongs to its analytic mode; fd gets 1e-5
    rc = main(["verify", "configs/fresnel-helix.json", "--mode", "fd"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["tolerance"] == 1e-5
    assert doc["classification"] == "general-d-type"
    rc = main(["verify", "configs/fresnel-helix.json", "--mode", "analytic"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["tolerance"] == 1e-9
    rc = main(["verify", "configs/fresnel-helix.json", "--mode", "fd", "--tol", "1e-7"])
    assert json.loads(capsys.readouterr().out)["tolerance"] == 1e-7


def test_build_writes_obj_and_csv(tmp_path, capsys):
    obj = tmp_path / "out.obj"
    rc = main(["build", "configs/fresnel-helix.json", "-o", str(obj), "--grid", "12x5"])
    assert rc == 0
    assert obj.read_text().startswith("v ")
    csv = tmp_path / "out.csv"
    rc = main(["build", "configs/fresnel-helix.json", "-o", str(csv), "--grid", "12x5"])
    assert rc == 0
    assert csv.read_text().startswith("s,v,x,y,z")
    capsys.readouterr()


def test_build_sign_flag_flips_surface(tmp_path, capsys):
    plus = tmp_path / "plus.obj"
    minus = tmp_path / "minus.obj"
    main(["build", "configs/fresnel-helix.json", "-o", str(plus), "--grid", "8x4"])
    main(["build", "configs/fresnel-helix.json", "-o", str(minus), "--grid", "8x4", "--sign", "-"])
    capsys.readouterr()
    assert plus.read_bytes() != minus.read_bytes()


def test_reproduce_fig1c(tmp_path, capsys):
    rc = main(["reproduce", "fig1c", "-o", str(tmp_path), "--grid", "16x4"])
    captured = capsys.readouterr()
    assert rc == 0
    assert (tmp_path / "fig1c.obj").exists()
    assert (tmp_path / "fig1c.csv").exists()
    assert "fig1c.obj" in captured.out


def test_reproduce_curve_figures(tmp_path, capsys):
    for fig in ("fig1a", "fig1e"):
        rc = main(["reproduce", fig, "-o", str(tmp_path), "--grid", "32x4"])
        assert rc == 0
        text = (tmp_path / f"{fig}.csv").read_text()
        assert text.splitlines()[0] == "s,x,y,z"
    capsys.readouterr()


def test_reproduce_as_printed_notice(tmp_path, capsys):
    rc = main(["reproduce", "fig1f", "-o", str(tmp_path), "--grid", "12x4", "--as-printed"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "as-printed" in captured.err
    assert (tmp_path / "fig1f.obj").exists()


def test_reproduce_as_printed_differs_from_corrected(tmp_path, capsys):
    main(["reproduce", "fig1f", "-o", str(tmp_path / "a"), "--grid", "10x4"])
    main(["reproduce", "fig1f", "-o", str(tmp_path / "b"), "--grid", "10x4", "--as-printed"])
    capsys.readouterr()
    a = (tmp_path / "a" / "fig1f.obj").read_bytes()
    b = (tmp_path / "b" / "fig1f.obj").read_bytes()
    assert a != b


def test_error_category_on_stderr(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    rc = main(["verify", str(missing)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: SchemaError:")


def test_infeasible_config_reports_category(tmp_path, capsys):
    doc = {
        "curve": "fresnel-helix",
        "marching_scale": {
            "synthesis": {"lambda": 9.0, "sigma": "1", "sign": "+", "l": "1", "m": "1", "n": "-1"}
        },
        "domain": {"s_min": 0.1, "s_max": 2 * math.pi, "v_min": 0.0, "v_max": 5.0, "v0": 0.0},
        "grid": {"ns": 8, "nv": 4},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc = main(["verify", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error: InfeasibleLambda:" in captured.err


def test_module_entrypoint_smoke(tmp_path):
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "g3pencil.cli",
            "verify",
            "configs/anti-salkowski.json",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["mean_lambda"] == pytest.approx(math.sqrt(3) / 2, abs=1e-6)


def test_overflowing_direct_scale_exits_2_without_output(tmp_path, capsys):
    doc = {
        "curve": "fresnel-helix",
        "marching_scale": {"direct": {"alpha": "exp(300*v)", "beta": "v", "gamma": "v"}},
        "domain": {"s_min": 0.5, "s_max": 2.0, "v_min": 0.0, "v_max": 5.0, "v0": 0.0},
        "grid": {"ns": 10, "nv": 5},
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.obj"
    rc = main(["build", str(path), "-o", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: DomainError: non-finite surface point")
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_overflowing_sinh_scale_names_the_point(tmp_path, capsys, recwarn):
    # sinh overflows to inf as exp does; the build must not end in a
    # misleading "no usable s interval" or warn about excising everything
    doc = {
        "curve": "fresnel-helix",
        "marching_scale": {"direct": {"alpha": "sinh(300*v)", "beta": "v", "gamma": "v"}},
        "domain": {"s_min": 0.5, "s_max": 2.0, "v_min": 0.0, "v_max": 5.0, "v0": 0.0},
        "grid": {"ns": 10, "nv": 5},
    }
    path = tmp_path / "sinh.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.obj"
    rc = main(["build", str(path), "-o", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("error:") == 1
    assert err.startswith("error: DomainError: non-finite surface point")
    assert not any("re-spans" in str(w.message) for w in recwarn)
    assert not out.exists()


@pytest.mark.parametrize("grid", ["2x2", "3x2"])
def test_grid_too_coarse_for_usable_intervals_exits_2(tmp_path, capsys, grid):
    rc = main(["reproduce", "fig1c", "-o", str(tmp_path), "--grid", grid])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error: GridTooCoarse:" in captured.err
    assert not (tmp_path / "fig1c.obj").exists()


def test_unexpected_exception_maps_to_exit_2(monkeypatch, capsys):
    import g3pencil.cli as cli

    def broken(path):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "load_config", broken)
    rc = main(["classify", "configs/fresnel-helix.json"])
    assert rc == 2
    assert capsys.readouterr().err == "error: RuntimeError: boom\n"


def _printed_fig1d(tmp_path):
    from g3pencil.figures import FIGURES

    path = tmp_path / "fig1d-printed.json"
    path.write_text(json.dumps(FIGURES["fig1d"].printed))
    return str(path)


def test_printed_fig1d_verifies_on_the_domain_build_uses(tmp_path, capsys):
    # Y = sqrt(s^2 - 1/64)*v exists only for |s| >= 1/8: build meshes the
    # usable intervals and verify samples the same ones
    config = _printed_fig1d(tmp_path)
    with pytest.warns(UserWarning, match="re-spans") as caught:
        assert main(["build", config, "--as-printed", "-o", str(tmp_path / "d.obj")]) == 0
    bounds = re.findall(r"\[([-\d.e]+), ([-\d.e]+)\]", str(caught[0].message))
    intervals = [(float(a), float(b)) for a, b in bounds]
    assert len(intervals) == 2
    capsys.readouterr()
    deviations = []
    for mode in ("analytic", "fd"):
        assert main(["verify", config, "--as-printed", "--mode", mode]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"] == "not-d-type"
        assert len(doc["samples"]) == 200
        for sample in doc["samples"]:
            # the warning prints 6 significant digits
            assert any(a - 1e-5 <= sample["s"] <= b + 1e-5 for a, b in intervals)
        deviations.append(doc["max_abs_deviation"])
    assert deviations == [pytest.approx(3.95, abs=0.01)] * 2


def test_nan_normals_fail_verify_as_not_d_type(tmp_path, capsys):
    # beta_v = exp(800) overflows, so every normal on the base line is NaN:
    # each sample is flagged, the report says not-d-type and the exit agrees,
    # and the report stays RFC 8259 JSON, with null for each missing value
    doc = {
        "curve": "fresnel-helix",
        "marching_scale": {"direct": {"alpha": "0", "beta": "v*exp(800)", "gamma": "v"}},
        "domain": {"s_min": 0.5, "s_max": 3.0, "v_min": 0.0, "v_max": 1.0, "v0": 0.0},
        "grid": {"ns": 10, "nv": 5},
    }
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    for mode in ("analytic", "fd"):
        assert main(["verify", str(path), "--mode", mode]) == 1
        report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert report["classification"] == "not-d-type"
        assert report["mean_lambda"] is None and report["max_abs_deviation"] is None
        assert len(report["samples"]) == 200
        assert all(p["flagged"] and p["lambda_hat"] is None for p in report["samples"])


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("figure", ["fig1b", "fig1c"])
def test_fd_verify_of_corrected_figures_meets_its_tolerance(figure, tmp_path, capsys):
    from g3pencil.figures import FIGURES

    config = tmp_path / f"{figure}.json"
    config.write_text(json.dumps(FIGURES[figure].corrected))
    assert main(["verify", str(config), "--mode", "fd"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tolerance"] == 1e-5
    assert report["classification"] == "general-d-type"
    assert report["max_abs_deviation"] <= 1e-6


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "abc"])
def test_verify_tol_must_be_a_positive_finite_number(tol, capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "configs/fresnel-helix.json", f"--tol={tol}"])
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert "argument --tol" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["build", "verify"])
def test_non_finite_config_number_is_one_schema_error(command, tmp_path, capsys):
    doc = json.loads(Path("configs/fresnel-helix.json").read_text())
    doc["domain"]["v_max"] = math.inf
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(doc))
    argv = [command, str(path)] + (["-o", str(tmp_path / "out.obj")] if command == "build" else [])
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", "error: SchemaError: $.domain.v_max: expected a finite number, got inf\n"
    )


def test_too_few_verify_samples_fail_at_load(tmp_path, capsys):
    doc = json.loads(Path("configs/fresnel-helix.json").read_text())
    doc["verify"]["samples"] = 4
    path = tmp_path / "few.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: SchemaError: $.verify.samples: a report needs at least 8 samples\n"
    )


def _load_errors(doc, tmp_path, capsys):
    """stderr of build, analytic verify and fd verify on ``doc``; each must exit 2."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.obj"
    errors = []
    for argv in (["build", str(path), "-o", str(out)], ["verify", str(path)],
                 ["verify", str(path), "--mode", "fd"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert not out.exists()
    return errors


def test_empty_v_range_fails_at_load(tmp_path, capsys):
    doc = json.loads(Path("configs/fresnel-helix.json").read_text())
    doc["domain"]["v_max"] = doc["domain"]["v_min"]
    assert _load_errors(doc, tmp_path, capsys) == [
        "error: SchemaError: $.domain: v_min must be below v_max\n"
    ] * 3


def test_synthesis_on_a_curve_without_closed_forms_fails_at_load(tmp_path, capsys):
    doc = json.loads(Path("configs/fresnel-helix.json").read_text())
    doc["curve"] = {"f": "s^3/6", "g": "s^4/24"}
    assert _load_errors(doc, tmp_path, capsys) == [
        "error: SchemaError: $.curve: synthesis needs closed-form kappa and tau "
        "on an explicit curve\n"
    ] * 3


def test_empty_domain_gives_build_and_verify_one_error(tmp_path, capsys):
    doc = {
        "curve": "fresnel-helix",
        "marching_scale": {"direct": {"alpha": "v", "beta": "v", "gamma": "v"}},
        "domain": {"s_min": -0.05, "s_max": 0.05, "v_min": 0.0, "v_max": 5.0, "v0": 0.0},
        "grid": {"ns": 10, "nv": 5},
    }
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    errors = []
    for argv in (["build", str(path), "-o", str(tmp_path / "out.obj")], ["verify", str(path)]):
        assert main(argv) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: EmptyDomain: no usable s interval in [-0.05, 0.05]")


@pytest.mark.parametrize(
    "argv, frames, fresnels",
    [
        # 256 guard probes, 512 frames of the synthesis grid, 200 samples
        (["verify", "configs/fresnel-helix.json"], 968, 968),
        # the fd samples take frames at s +- h, and the frame's base point
        (["verify", "configs/fresnel-helix.json", "--mode", "fd"], 1368, 1368),
        # one frame per grid row
        (["build", "configs/fresnel-helix.json", "--grid", "200x50"], 968, 968),
    ],
    ids=["verify", "verify-fd", "build"],
)
def test_each_command_scans_the_guard_bands_once(tmp_path, monkeypatch, argv, frames, fresnels):
    import g3pencil.curve
    import g3pencil.exprjet

    calls = {"_passes_guard": 0, "frenet": 0, "_fresnel": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        for other in list(sys.modules.values()):
            if other is not None and other.__name__.startswith("g3pencil"):
                if getattr(other, name, None) is original:
                    monkeypatch.setattr(other, name, wrapper)

    counting(g3pencil.curve, "_passes_guard")
    counting(g3pencil.curve, "frenet")
    counting(g3pencil.exprjet, "_fresnel")
    if argv[0] == "build":
        argv = argv + ["-o", str(tmp_path / "out.obj")]
    assert main(argv) == 0
    assert calls == {"_passes_guard": 256, "frenet": frames, "_fresnel": fresnels}


@pytest.mark.parametrize("workers", ["0", "-1", "two"])
def test_invalid_worker_count_is_a_usage_error(tmp_path, capsys, workers):
    out = tmp_path / "out.obj"
    with pytest.raises(SystemExit) as info:
        main(["build", "configs/fresnel-helix.json", "-o", str(out), "--workers", workers])
    err = capsys.readouterr().err
    assert info.value.code == 2
    assert "argument --workers" in err and "Traceback" not in err
    assert not out.exists()


def test_build_bytes_do_not_depend_on_workers(tmp_path, capsys, recwarn):
    # fig1b's domain straddles the guard band around s = 0; with 40 rows it
    # lies between rows 19 and 20, where two workers split the rows
    from g3pencil.figures import FIGURES

    config = tmp_path / "fig1b.json"
    config.write_text(json.dumps(FIGURES["fig1b"].corrected))
    for suffix in ("obj", "csv"):
        blobs = []
        for workers in ("1", "2", "8"):
            out = tmp_path / f"w{workers}.{suffix}"
            argv = ["build", str(config), "-o", str(out), "--grid", "40x10", "--workers", workers]
            assert main(argv) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]
    assert blobs[0].count(b"\n") == 1 + 40 * 10
    golden = Path("tests/golden/fig1b_40x10.obj").read_bytes()
    assert (tmp_path / "w2.obj").read_bytes() == golden
    capsys.readouterr()


def test_non_finite_point_in_a_worker_gives_one_error(tmp_path, capsys):
    # only the last row, s = 2, overflows; with two workers a child has it
    doc = {
        "curve": "fresnel-helix",
        "marching_scale": {"direct": {"alpha": "exp(3000*(s - 1.9)*v)", "beta": "v", "gamma": "v"}},
        "domain": {"s_min": 0.5, "s_max": 2.0, "v_min": 0.0, "v_max": 5.0, "v0": 0.0},
        "grid": {"ns": 10, "nv": 5},
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    errors = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.obj"
        assert main(["build", str(path), "-o", str(out), "--workers", workers]) == 2
        errors.append(capsys.readouterr().err)
        assert not out.exists()
    assert errors[0] == errors[1]
    assert errors[0].count("\n") == 1
    assert errors[0].startswith("error: DomainError: non-finite surface point")
    assert "at s = 2.0, v = " in errors[0]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no worker process is left


def test_kink_warning_in_a_worker_row_reaches_stderr(tmp_path):
    # abs(s - 2.5) has its kink on row 3 of 5, which a child computes
    doc = {
        "curve": {"f": "s^3/6 + sin(s) + abs(s - 2.5)^3", "g": "cosh(s/2)"},
        "marching_scale": {"direct": {"alpha": "v", "beta": "v", "gamma": "v"}},
        "domain": {"s_min": 1.0, "s_max": 3.0, "v_min": 0.0, "v_max": 1.0, "v0": 0.0},
        "grid": {"ns": 5, "nv": 3},
    }
    path = tmp_path / "kink.json"
    path.write_text(json.dumps(doc))
    runs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.obj"
        argv = ["build", str(path), "-o", str(out), "--workers", workers]
        result = subprocess.run(
            [sys.executable, "-m", "g3pencil.cli", *argv], capture_output=True, text=True
        )
        assert result.returncode == 0
        runs.append((result.stderr, out.read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0] == "warning: KinkWarning: abs() differentiated at its kink in 'abs(s - 2.5)'\n"


def test_warning_is_one_line_on_stderr(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "g3pencil.cli", "reproduce", "fig1b", "--grid", "40x10",
         "-o", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stderr == (
        "warning: UserWarning: grid re-spans usable sub-intervals "
        "[-6.28319, -0.1232], [0.1232, 6.28319] (guard bands excised)\n"
    )


def test_warning_format_holds_only_inside_main(monkeypatch, capsys):
    import g3pencil.cli as cli

    def before(message, category, filename, lineno, line=None):
        return "not the command's format\n"

    monkeypatch.setattr(warnings, "formatwarning", before)
    seen = []

    def probe(path):
        seen.append(warnings.formatwarning(UserWarning("message"), UserWarning, "x.py", 7))
        raise RuntimeError("stop")

    monkeypatch.setattr(cli, "load_config", probe)
    assert main(["classify", "configs/fresnel-helix.json"]) == 2
    assert seen == ["warning: UserWarning: message\n"]
    assert warnings.formatwarning is before
