import contextlib
import io
import json
import math
import os
import random
import re
import stat
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from g3pencil.cli import COMMANDS, _build_parser, _parse_fast, main
from g3pencil.errors import G3PencilError
from g3pencil.figures import SURFACE_FIGURES, figure_doc
from oracles import failure_rich_expression


def test_frenet_prints_frame(capsys):
    rc = main(["frenet", "configs/fresnel-helix.json", "--at", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "kappa = 2" in out
    assert "tau = 0.5" in out
    assert "E0 = " in out
    assert "t = (1," in out


def test_frenet_prints_canonical_zeros(capsys):
    # the frame of anti-salkowski at s = 0 holds signed zeros; none prints as -0
    for at in ("0", "-0"):
        assert main(["frenet", "configs/anti-salkowski.json", f"--at={at}"]) == 0
        assert capsys.readouterr().out == (
            "s = 0\n"
            "t = (1, 0, -0.941176470588)\n"
            "n = (0, 1, 0)\n"
            "b = (0, 0, 1)\n"
            "kappa = 1\n"
            "tau = 1\n"
            "E0 = (1, 0, 0.0588235294118)\n"
        )


def test_frenet_error_names_the_fresnel_node(capsys):
    # the frame computes no Fresnel integral; its sin and cos steps fail
    # on the huge argument, and name the node as the integral would
    assert main(["frenet", "configs/fresnel-helix.json", "--at", "1e200"]) == 2
    assert capsys.readouterr().err == (
        "error: DomainError: math domain error in "
        "'fresnelS(s/(2.0*sqrt(3.141592653589793)))'\n"
    )


@pytest.mark.parametrize("at", ["nan", "inf", "-inf", "abc"])
def test_frenet_parameter_must_be_a_finite_number(at, capsys):
    with pytest.raises(SystemExit) as info:
        main(["frenet", "configs/fresnel-helix.json", f"--at={at}"])
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert "argument --at" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("mode", ["analytic", "fd"])
@pytest.mark.parametrize("config", ["fresnel-helix", "anti-salkowski"])
def test_verify_report_bytes_match_the_golden_report(config, mode, capsys):
    assert main(["verify", f"configs/{config}.json", "--mode", mode]) == 0
    golden = Path(f"tests/golden/verify_{config}_{mode}.json").read_bytes()
    assert capsys.readouterr().out.encode("ascii") == golden


@pytest.mark.parametrize("config", ["fresnel-helix", "anti-salkowski"])
def test_classify_output_matches_the_golden_text(config, capsys):
    assert main(["classify", f"configs/{config}.json"]) == 0
    golden = Path(f"tests/golden/classify_{config}.txt").read_text()
    assert capsys.readouterr().out == golden


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
    for name in ("out.csv", "out.CSV"):  # the suffix in any case
        csv = tmp_path / name
        rc = main(["build", "configs/fresnel-helix.json", "-o", str(csv), "--grid", "12x5"])
        assert rc == 0
        assert csv.read_text().startswith("s,v,x,y,z")
    capsys.readouterr()


def test_build_sign_flag_flips_surface(tmp_path, capsys):
    # the document's "sign" is the one way to choose the branch
    doc = json.loads(Path("configs/fresnel-helix.json").read_text())

    def build(sign):
        doc["marching_scale"]["synthesis"]["sign"] = sign
        path = tmp_path / f"{sign}.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / f"{sign}.obj"
        assert main(["build", str(path), "-o", str(out), "--grid", "8x4"]) == 0
        return out.read_bytes()

    assert build("+") != build("-")
    capsys.readouterr()


def test_build_and_verify_refuse_the_sign_option(capsys):
    for argv in (["verify", "configs/fresnel-helix.json", "--sign", "-"],
                 ["build", "configs/fresnel-helix.json", "-o", "out.obj", "--sign", "-"]):
        assert _parse_fast(argv) is None
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: g3pencil ")
        assert err.endswith("error: unrecognized arguments: --sign -\n")


def test_reproduce_fig1c(tmp_path, capsys):
    with pytest.warns(UserWarning, match="grid re-spans"):
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


def test_reproduce_replaces_a_curve_csv_and_keeps_its_other_links(tmp_path, capsys):
    keep = tmp_path / "keep.csv"
    keep.write_text("kept")
    os.link(keep, tmp_path / "fig1a.csv")
    assert main(["reproduce", "fig1a", "-o", str(tmp_path), "--grid", "8x4"]) == 0
    assert keep.read_text() == "kept"
    assert (tmp_path / "fig1a.csv").read_text().startswith("s,x,y,z\n")
    assert sorted(os.listdir(tmp_path)) == ["fig1a.csv", "keep.csv"]


def test_reproduce_takes_the_default_grid_from_the_figure_table(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("g3pencil.figures.GRID", (6, 3))
    with pytest.warns(UserWarning, match="grid re-spans"):
        assert main(["reproduce", "fig1b", "-o", str(tmp_path)]) == 0
    assert main(["reproduce", "fig1a", "-o", str(tmp_path)]) == 0
    capsys.readouterr()
    obj = (tmp_path / "fig1b.obj").read_text().splitlines()
    assert sum(line.startswith("v ") for line in obj) == 18
    assert len((tmp_path / "fig1a.csv").read_text().splitlines()) == 1 + 6


def test_reproduce_as_printed_notice(tmp_path, capsys):
    rc = main(["reproduce", "fig1f", "-o", str(tmp_path), "--grid", "12x4", "--as-printed"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == (
        "note: fig1f uses the as-printed formulas, which differ from the corrected defaults; "
        "the invariant check may fail on them\n"
    )
    assert (tmp_path / "fig1f.obj").exists()


@pytest.mark.parametrize("argv", [
    ["frenet", "configs/fresnel-helix.json", "--at", "1.5"],
    ["classify", "configs/fresnel-helix.json"],
    ["build", "configs/fresnel-helix.json", "-o", "out.obj"],
    ["verify", "configs/fresnel-helix.json"],
], ids=lambda argv: argv[0])
def test_commands_on_a_document_refuse_the_as_printed_flag(argv, capsys):
    # the document names the curve and the rule; only reproduce, which
    # names figures, keeps --as-printed
    argv = [*argv, "--as-printed"]
    assert _parse_fast(argv) is None
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage: g3pencil ")
    assert captured.err.endswith("error: unrecognized arguments: --as-printed\n")
    assert "Traceback" not in captured.err


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
        "marching_scale": {"direct": {"alpha": "v*exp(300*v)", "beta": "v", "gamma": "v"}},
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


# a build of this document fails in its rows past s = 1.9
LATE_FAILURE = {
    "curve": "fresnel-helix",
    "marching_scale": {
        "direct": {"alpha": "v*exp(30000*(s - 1.9)*v)", "beta": "v", "gamma": "v"}
    },
    "domain": {"s_min": 0.5, "s_max": 2.0, "v_min": 0.0, "v_max": 1.0, "v0": 0.0},
    "grid": {"ns": 40, "nv": 10},
}


def test_failed_build_keeps_a_symlinked_output(tmp_path, capsys):
    # a failed build leaves the link, and the file it points to keeps its bytes
    path = tmp_path / "late.json"
    path.write_text(json.dumps(LATE_FAILURE))
    keep, link = tmp_path / "keep.obj", tmp_path / "link.obj"
    keep.write_text("kept\n")
    link.symlink_to(keep)
    rc = main(["build", str(path), "-o", str(link)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: DomainError: non-finite surface point")
    assert link.is_symlink() and keep.is_file()
    assert keep.read_text() == "kept\n"
    assert sorted(os.listdir(tmp_path)) == ["keep.obj", "late.json", "link.obj"]
    # a build that succeeds replaces the file the link points to
    assert main(["build", "configs/fresnel-helix.json", "-o", str(link), "--grid", "4x2"]) == 0
    assert link.is_symlink() and keep.read_text().startswith("v ")
    assert sorted(os.listdir(tmp_path)) == ["keep.obj", "late.json", "link.obj"]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_failed_build_keeps_an_existing_output(tmp_path, capsys, workers):
    path = tmp_path / "late.json"
    path.write_text(json.dumps(LATE_FAILURE))
    for name in ("out.obj", "out.csv"):
        out = tmp_path / name
        out.write_text("kept\n")
        assert main(["build", str(path), "-o", str(out), "--workers", workers]) == 2
        assert capsys.readouterr().err.startswith("error: DomainError: non-finite surface point")
        assert out.read_text() == "kept\n"
    assert sorted(os.listdir(tmp_path)) == ["late.json", "out.csv", "out.obj"]
    # a device is written in place, and stays where it is when the build fails
    assert main(["build", str(path), "-o", os.devnull, "--workers", workers]) == 2
    assert capsys.readouterr().err.startswith("error: DomainError: non-finite surface point")
    assert main(["build", "configs/fresnel-helix.json", "-o", os.devnull, "--grid", "4x2"]) == 0
    assert not stat.S_ISREG(os.stat(os.devnull).st_mode)


def test_descriptor_outputs_are_written_in_place(tmp_path):
    # /dev/stdout into a pipe, and into a regular file opened for append
    argv = [sys.executable, "-m", "g3pencil.cli", "build", "configs/fresnel-helix.json",
            "-o", "/dev/stdout", "--grid", "4x2"]
    result = subprocess.run(argv, capture_output=True)
    assert result.returncode == 0 and result.stderr == b""
    assert result.stdout.startswith(b"v ") and b"\nwrote /dev/stdout " in result.stdout
    log = tmp_path / "log"
    log.write_bytes(b"")
    inode = os.stat(log).st_ino
    with open(log, "ab") as fh:
        assert subprocess.run(argv, stdout=fh).returncode == 0
    assert os.stat(log).st_ino == inode
    assert log.read_bytes() == result.stdout


def test_an_output_without_room_for_a_temporary_file_is_written_in_place(
    tmp_path, capsys, monkeypatch
):
    # as for a writable file in a directory that takes no new file
    import g3pencil.mesh

    def refuse_new_files(path, mode="r", *args, **kwargs):
        if mode == "xb":
            raise PermissionError(13, "Permission denied", path)
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(g3pencil.mesh, "open", refuse_new_files, raising=False)
    out = tmp_path / "out.obj"
    out.write_text("old\n")
    inode = os.stat(out).st_ino
    assert main(["build", "configs/fresnel-helix.json", "-o", str(out), "--grid", "4x2"]) == 0
    assert os.stat(out).st_ino == inode and out.read_text().startswith("v ")
    assert os.listdir(tmp_path) == ["out.obj"]


def test_a_stale_temporary_file_is_passed_over(tmp_path, capsys):
    # a pass killed before its rename leaves its temporary file behind, and
    # a later pass may run under the same pid
    path = tmp_path / "late.json"
    path.write_text(json.dumps(LATE_FAILURE))
    out = tmp_path / "out.obj"
    out.write_text("kept\n")
    stale = tmp_path / f"out.obj.{os.getpid()}.0.tmp"
    stale.write_text("stale\n")
    assert main(["build", str(path), "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: DomainError: non-finite surface point")
    assert out.read_text() == "kept\n" and stale.read_text() == "stale\n"
    assert main(["build", "configs/fresnel-helix.json", "-o", str(out), "--grid", "4x2"]) == 0
    assert out.read_text().startswith("v ") and stale.read_text() == "stale\n"
    assert sorted(os.listdir(tmp_path)) == ["late.json", "out.obj", stale.name]


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
    with pytest.warns(UserWarning, match="grid re-spans"):
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
    path = tmp_path / "fig1d-printed.json"
    path.write_text(json.dumps(figure_doc("fig1d", as_printed=True)))
    return str(path)


def test_printed_fig1d_verifies_on_the_domain_build_uses(tmp_path, capsys):
    # Y = sqrt(s^2 - 1/64)*v exists only for |s| >= 1/8: build meshes the
    # usable intervals and verify samples the same ones
    config = _printed_fig1d(tmp_path)
    with pytest.warns(UserWarning, match="re-spans") as caught:
        assert main(["build", config, "-o", str(tmp_path / "d.obj")]) == 0
    bounds = re.findall(r"\[([-\d.e]+), ([-\d.e]+)\]", str(caught[0].message))
    intervals = [(float(a), float(b)) for a, b in bounds]
    assert len(intervals) == 2
    capsys.readouterr()
    deviations = []
    for mode in ("analytic", "fd"):
        assert main(["verify", config, "--mode", mode]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"] == "not-d-type"
        assert len(doc["samples"]) == 200
        for sample in doc["samples"]:
            # the warning prints 6 significant digits
            assert any(a - 1e-5 <= sample["s"] <= b + 1e-5 for a, b in intervals)
        deviations.append(doc["max_abs_deviation"])
    assert deviations == [pytest.approx(3.95, abs=0.01)] * 2


def test_nan_normals_fail_verify_as_not_d_type(tmp_path, capsys):
    # beta vanishes on the base line, yet every normal there is NaN: the
    # s-derivative of the first term is 0 times an overflowing 1e400*cos
    # (analytic), and the second term is +inf at both v0 - h_v and v0 + h_v
    # (fd).  Each sample is flagged, the report says not-d-type and the exit
    # agrees, and the report stays RFC 8259 JSON, with null for each missing value
    beta = "v*(1e100*sin(1e300*s)) + v^2*exp(1e15*v^2)"
    doc = {
        "curve": "fresnel-helix",
        "marching_scale": {"direct": {"alpha": "0", "beta": beta, "gamma": "v"}},
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
    config = tmp_path / f"{figure}.json"
    config.write_text(json.dumps(figure_doc(figure)))
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


@pytest.mark.parametrize("x", ["s", "v"])
def test_domain_extent_that_overflows_fails_at_load(x, tmp_path, capsys):
    # analytic verify passed, fd verify flagged every sample, and build
    # failed at a v that was never configured (nan)
    doc = json.loads(Path("configs/fresnel-helix.json").read_text())
    doc["domain"].update({f"{x}_min": -1e308, f"{x}_max": 1e308})
    assert _load_errors(doc, tmp_path, capsys) == [
        f"error: SchemaError: $.domain: {x}_max - {x}_min overflows to inf\n"
    ] * 3


def test_synthesis_on_a_curve_without_closed_forms_fails_at_load(tmp_path, capsys):
    doc = json.loads(Path("configs/fresnel-helix.json").read_text())
    doc["curve"] = {"f": "s^3/6", "g": "s^4/24"}
    assert _load_errors(doc, tmp_path, capsys) == [
        "error: SchemaError: $.curve: synthesis needs closed-form kappa and tau "
        "on an explicit curve\n"
    ] * 3


def test_vanishing_marching_factor_exits_2_naming_it(tmp_path, capsys):
    doc = json.loads(Path("configs/fresnel-helix.json").read_text())
    doc["marching_scale"]["synthesis"]["m"] = "0"
    assert _load_errors(doc, tmp_path, capsys) == [
        "error: ZeroMarchingFactor: marching factor m(s) vanishes at s = 0.1\n"
    ] * 3


@pytest.mark.parametrize(
    "key, text, error",
    [
        ("l", "0*exp(1000)", "ZeroMarchingFactor: marching factor l(s) = nan"),
        ("l", "exp(1000)", "ZeroMarchingFactor: marching factor l(s) = inf"),
        ("sigma", "0*exp(1000)", "SigmaVanishes: sigma(s) = nan"),
        ("m", "0*exp(1000)", "ZeroMarchingFactor: marching factor m(s) = nan"),
        ("n", "0*exp(1000)", "ZeroMarchingFactor: marching factor n(s) = nan"),
        ("sigma", "exp(1000)", "SigmaVanishes: sigma(s) = inf"),
        ("m", "exp(1000)", "ZeroMarchingFactor: marching factor m(s) = inf"),
        ("n", "-exp(1000)", "ZeroMarchingFactor: marching factor n(s) = -inf"),
    ],
)
def test_non_finite_synthesis_input_exits_2_naming_it(key, text, error, tmp_path, capsys):
    doc = json.loads(Path("configs/fresnel-helix.json").read_text())
    doc["marching_scale"]["synthesis"][key] = text
    assert _load_errors(doc, tmp_path, capsys) == [f"error: {error} is not finite at s = 0.1\n"] * 3


def test_synthesis_evaluates_l_on_its_whole_grid(tmp_path, capsys):
    # l shares the kernel of m, n and sigma, so a point where it fails to
    # evaluate fails synthesis, as one of theirs does
    doc = json.loads(Path("configs/fresnel-helix.json").read_text())
    doc["marching_scale"]["synthesis"]["l"] = "sqrt(s - 3)"
    assert _load_errors(doc, tmp_path, capsys) == [
        "error: DomainError: square root of a negative value in 'sqrt(s - 3.0)'\n"
    ] * 3


def test_nan_product_factor_fails_at_load(tmp_path, capsys):
    doc = json.loads(Path("configs/fresnel-helix.json").read_text())
    product = {"l": "1", "m": "1", "n": "-1", "X": "v*(0*exp(1000))", "Y": "v", "Z": "v"}
    doc["marching_scale"] = {"product": product}
    doc["domain"]["s_max"] = 6.28
    error = (
        "error: SchemaError: $.marching_scale.product.X: must vanish at v0 = 0, "
        "got nan at s = 0.718\n"
    )
    assert _load_errors(doc, tmp_path, capsys) == [error] * 3
    assert main(["classify", str(tmp_path / "cfg.json")]) == 2
    assert capsys.readouterr() == ("", error)


@pytest.mark.parametrize(
    "scale, error",
    [
        # a surface that does not contain the curve, which every command ran on
        ({"alpha": "1", "beta": "v", "gamma": "-v"}, "got 1"),
        # NaN on the base line, which verify reported as null samples
        ({"alpha": "v*(0*exp(1000))", "beta": "v", "gamma": "v"}, "got nan"),
    ],
    ids=["off-the-curve", "nan"],
)
def test_direct_scale_that_leaves_the_curve_fails_at_load(scale, error, tmp_path, capsys):
    doc = json.loads(Path("configs/fresnel-helix.json").read_text())
    doc["marching_scale"] = {"direct": scale}
    error = (
        f"error: SchemaError: $.marching_scale.direct.alpha: must vanish at v0 = 0, "
        f"{error} at s = 0.718319\n"
    )
    assert _load_errors(doc, tmp_path, capsys) == [error] * 3
    assert main(["classify", str(tmp_path / "cfg.json")]) == 2
    assert capsys.readouterr() == ("", error)


def test_control_beside_a_direct_block_fails_at_load(tmp_path, capsys):
    doc = json.loads(Path("configs/fresnel-helix.json").read_text())
    doc["marching_scale"] = {"direct": {"alpha": "v", "beta": "v", "gamma": "-v"}}
    doc["control"] = {"a": 1.0, "b": 2.0, "c": 3.0}
    error = "error: SchemaError: $.control: not allowed beside a direct block\n"
    assert _load_errors(doc, tmp_path, capsys) == [error] * 3
    path = str(tmp_path / "cfg.json")
    for argv in (["classify", path], ["frenet", path, "--at", "1"]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", error)


@pytest.mark.parametrize(
    "x, error",
    [
        # sqrt fails at the checked points s = 0.718 and 1.954, which are
        # skipped; the point at s = 3.19 is still checked
        (
            "v*sqrt(s - 3) + sqrt(s - 3)",
            "SchemaError: $.marching_scale.product.X: must vanish at v0 = 0, got 0.43589 at s = 3.19",
        ),
        # a constant part fails, as every point would, so the factor is
        # skipped and the config loads; then no s interval is usable
        ("v + ln(1 - 1)", "EmptyDomain: no usable s interval in [0.1, 6.28]"),
    ],
)
def test_base_line_check_skips_what_fails_to_evaluate(x, error, tmp_path, capsys):
    doc = json.loads(Path("configs/fresnel-helix.json").read_text())
    doc["marching_scale"] = {"product": {"l": "1", "m": "1", "n": "-1", "X": x, "Y": "v", "Z": "v"}}
    doc["domain"]["s_max"] = 6.28
    assert _load_errors(doc, tmp_path, capsys) == [f"error: {error}\n"] * 3


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


def test_infinite_torsion_gives_no_frame_and_no_domain(tmp_path, capsys):
    # the third derivative of f overflows there, and with it the torsion
    doc = {
        "curve": {"f": "1e-10*fresnelS(s)", "g": "s^2/2"},
        "marching_scale": {"direct": {"alpha": "0", "beta": "v", "gamma": "v"}},
        "domain": {"s_min": 1e154, "s_max": 1.2e154, "v_min": 0.0, "v_max": 1.0, "v0": 0.0},
        "grid": {"ns": 10, "nv": 5},
    }
    path = tmp_path / "inf-tau.json"
    path.write_text(json.dumps(doc))
    assert main(["frenet", str(path), "--at", "1.05e154"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: TorsionVanishes: torsion -inf is not finite at s = 1.05e+154\n"
    for argv in (["build", str(path), "-o", str(tmp_path / "out.obj")], ["verify", str(path)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: EmptyDomain: no usable s interval in [1e+154, 1.2e+154]\n"
        )


@pytest.mark.parametrize(
    "argv, kernels, frames, fresnels",
    [
        # the frame kernel runs at 256 guard probes, 512 points of the
        # synthesis grid and 200 samples, and only the samples take a
        # frame; frames compute no curve point, so no Fresnel integral
        (["verify", "configs/fresnel-helix.json"], 968, 200, 0),
        # the fd samples take frames at s and s +- h, and curve points at s
        # and s +- h
        (["verify", "configs/fresnel-helix.json", "--mode", "fd"], 1368, 600, 3 * 200),
        # one frame and one curve point per grid row
        (["build", "configs/fresnel-helix.json", "--grid", "200x50"], 968, 200, 200),
        # no synthesis: the 256 probes, then kappa and tau at 64 samples
        (["classify", "configs/fresnel-helix.json"], 256 + 64, 0, 0),
        # a direct scale takes no synthesis grid: the probes, then one
        # frame per sample
        (["verify", "direct-helix"], 256 + 100, 100, 0),
    ],
    ids=["verify", "verify-fd", "build", "classify", "verify-direct"],
)
def test_each_command_scans_the_guard_bands_once(
    tmp_path, monkeypatch, argv, kernels, frames, fresnels
):
    import g3pencil.curve
    import g3pencil.exprjet

    if argv[1] == "direct-helix":
        doc = json.loads(Path("configs/fresnel-helix.json").read_text())
        doc["marching_scale"] = {"direct": {"alpha": "v", "beta": "v", "gamma": "v"}}
        doc["verify"]["samples"] = 100
        path = tmp_path / "direct-helix.json"
        path.write_text(json.dumps(doc))
        argv = [argv[0], str(path)]

    calls = {"_passes_guard": 0, "curvature_torsion": 0, "frame_parts": 0, "_fresnel": 0}

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
    counting(g3pencil.curve, "curvature_torsion")  # one call per frame-kernel evaluation
    counting(g3pencil.curve, "frame_parts")  # one call per frame
    counting(g3pencil.exprjet, "_fresnel")
    if argv[0] == "build":
        # the counts are this process's: no row worker takes rows from it
        argv = argv + ["-o", str(tmp_path / "out.obj"), "--workers", "1"]
    assert main(argv) == 0
    assert calls == {
        "_passes_guard": 256,
        "curvature_torsion": kernels,
        "frame_parts": frames,
        "_fresnel": fresnels,
    }


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
    config = tmp_path / "fig1b.json"
    config.write_text(json.dumps(figure_doc("fig1b")))
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
    alpha = "v*exp(3000*(s - 1.9)*v)"
    doc = {
        "curve": "fresnel-helix",
        "marching_scale": {"direct": {"alpha": alpha, "beta": "v", "gamma": "v"}},
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


def test_a_kink_shown_before_the_pool_leaves_the_child_its_rows(tmp_path):
    # the guard probe at s = 2 shows the kink before the child forks; the
    # child meets it again on row 8 of 9, which its inherited registry holds
    doc = {
        "curve": {"f": "s^3/6 + abs(s - 2)^3", "g": "cosh(s/2)"},
        "marching_scale": {"direct": {"alpha": "v", "beta": "v", "gamma": "v"}},
        "domain": {"s_min": 0.0, "s_max": 2.0, "v_min": 0.0, "v_max": 1.0, "v0": 0.0},
        "grid": {"ns": 9, "nv": 3},
    }
    path = tmp_path / "kink.json"
    path.write_text(json.dumps(doc))
    argv = ["build", str(path), "-o", str(tmp_path / "kink.obj"), "--workers", "2"]
    script = (
        "import os\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "import g3pencil.mesh as mesh\n"
        "blocks, calls = mesh._blocks, []  # the rows run in this process\n"
        "mesh._blocks = lambda task, lo, hi: calls.append((lo, hi)) or blocks(task, lo, hi)\n"
        "from g3pencil.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(calls)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stderr == "warning: KinkWarning: abs() differentiated at its kink in 'abs(s - 2.0)'\n"
    assert result.stdout.splitlines()[-1] == "[(0, 4)]"


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


def test_verify_keeps_its_sample_count_on_many_usable_intervals(tmp_path, capsys):
    # sqrt(sin(10*s)) exists on ten intervals of [0.1, 6.2]: eight samples
    # cannot give each interval two, and the report still holds eight
    doc = {
        "curve": "anti-salkowski",
        "marching_scale": {"direct": {"alpha": "sqrt(sin(10*s))*v", "beta": "v", "gamma": "-v"}},
        "domain": {"s_min": 0.1, "s_max": 6.2, "v_min": 0.0, "v_max": 1.0, "v0": 0.0},
        "grid": {"ns": 40, "nv": 5},
        "verify": {"samples": 8},
    }
    path = tmp_path / "gaps.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) in (0, 1)
    s_values = [p["s"] for p in json.loads(capsys.readouterr().out)["samples"]]
    assert len(s_values) == 8
    assert s_values == sorted(s_values) and 0.1 <= s_values[0] and s_values[-1] <= 6.2


def test_classify_samples_the_usable_domain_as_verify_does(tmp_path, capsys):
    # s in [-1, 2] holds the curvature zero of the helix at s = 0
    doc = json.loads(Path("configs/fresnel-helix.json").read_text())
    doc["domain"].update(s_min=-1.0, s_max=2.0)
    path = tmp_path / "helix.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()
    assert main(["classify", str(path)]) == 0
    assert capsys.readouterr().out == "general-helix (constant = 0.25)\n"


def test_planar_curve_gives_every_command_one_error(tmp_path, capsys):
    doc = {
        "curve": {"f": "s^2", "g": "0"},
        "marching_scale": {"direct": {"alpha": "v", "beta": "v", "gamma": "v"}},
        "domain": {"s_min": 0.5, "s_max": 2.0, "v_min": 0.0, "v_max": 1.0, "v0": 0.0},
        "grid": {"ns": 10, "nv": 5},
    }
    path = tmp_path / "planar.json"
    path.write_text(json.dumps(doc))
    for argv in (["build", str(path), "-o", str(tmp_path / "out.obj")], ["verify", str(path)],
                 ["classify", str(path)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: EmptyDomain: no usable s interval in [0.5, 2]\n"


@pytest.mark.parametrize(
    "config, entry, direction",
    [
        ("fresnel-helix", {"v_max": 5e-324}, "v"),
        ("anti-salkowski", {"s_min": 0.0, "s_max": 5e-324}, "s"),
    ],
)
def test_fd_step_that_underflows_names_its_direction(config, entry, direction, tmp_path, capsys):
    doc = json.loads(Path(f"configs/{config}.json").read_text())
    doc["domain"].update(entry)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--mode", "fd"]) == 2
    assert capsys.readouterr().err == (
        f"error: StepUnderflow: fd step in {direction} underflows to 0 "
        "on an extent of 4.94066e-324\n"
    )
    # the analytic mode takes no step
    assert main(["verify", str(path), "--mode", "analytic"]) in (0, 1)
    assert capsys.readouterr().err == ""


def test_constant_power_in_a_direct_scale_verifies_in_both_modes(tmp_path, capsys):
    # v^0 has a jet without a literal value; its abs() sign is a run-time name
    doc = json.loads(Path("configs/anti-salkowski.json").read_text())
    doc["marching_scale"] = {"direct": {"alpha": "abs(v^0)*v", "beta": "v", "gamma": "v"}}
    path = tmp_path / "abs.json"
    path.write_text(json.dumps(doc))
    for mode in ("analytic", "fd"):
        assert main(["verify", str(path), "--mode", mode]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["classification"] == "not-d-type"


@pytest.mark.parametrize("alpha", ["v/0", "ln(0)*v"])
def test_scale_that_fails_to_compile_is_compiled_once(tmp_path, capsys, monkeypatch, alpha):
    # a constant part outside its domain fails every probe, so the scan
    # ends after one compile of the values kernel, not one per probe
    emitters = _count_emitters(monkeypatch)
    doc = json.loads(Path("configs/anti-salkowski.json").read_text())
    doc["marching_scale"] = {"direct": {"alpha": alpha, "beta": "v", "gamma": "v"}}
    path = tmp_path / "fails.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == "error: EmptyDomain: no usable s interval in [-3, 3]\n"
    # one values kernel, kept failing at every call, which the load check
    # (skipping every point) and the probes share; and the curve's frame
    # kernel, which the guard scan compiles
    assert len(emitters) == 1 + 1


def test_curve_that_fails_to_compile_is_compiled_once(tmp_path, capsys, monkeypatch):
    # the frame kernel fails at every guard probe: it is compiled once, not
    # once per probe
    emitters = _count_emitters(monkeypatch)
    doc = {
        "curve": {"f": "s^3/6 + sin(s) + ln(0)*s", "g": "cosh(s/2)"},
        "marching_scale": {"direct": {"alpha": "v", "beta": "v", "gamma": "v"}},
        "domain": {"s_min": 1, "s_max": 3, "v_min": 0, "v_max": 1, "v0": 0},
        "grid": {"ns": 10, "nv": 5},
    }
    path = tmp_path / "fails.json"
    path.write_text(json.dumps(doc))
    for argv in (["classify"], ["verify"], ["build", "-o", str(tmp_path / "out.obj")]):
        emitters.clear()
        assert main([argv[0], str(path), *argv[1:]]) == 2
        assert capsys.readouterr().err == "error: EmptyDomain: no usable s interval in [1, 3]\n"
        # the scale's values, at load, and the curve's frame kernel
        assert len(emitters) == 2
    assert main(["frenet", str(path), "--at", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: DomainError: log of a non-positive value in 'ln(0.0)'\n"
    )


@pytest.mark.parametrize(
    "block, counts",
    [
        # classify and frenet compile the frame kernel; verify adds the
        # kernel of l, m, n and sigma, the scale's values for the probes, and
        # its normal jets or (fd) the curve's points; build adds the points
        # and the row kernel
        (None, (1, 1, 4, 4, 5)),
        # the scale's values serve the load check and then the probes
        ({"direct": {"alpha": "0", "beta": "v", "gamma": "-v"}}, (2, 2, 3, 3, 4)),
        # X, Y and Z are checked before control scales them, so the load
        # check has a kernel of its own
        ({"product": {"l": "1", "m": "1", "n": "-1", "X": "v", "Y": "v", "Z": "v"}},
         (2, 2, 4, 4, 5)),
    ],
    ids=["synthesis", "direct", "product"],
)
def test_each_command_compiles_each_tree_set_once(block, counts, tmp_path, capsys, monkeypatch):
    emitters = _count_emitters(monkeypatch)
    doc = json.loads(Path("configs/fresnel-helix.json").read_text())
    doc["grid"] = {"ns": 20, "nv": 5}
    if block is not None:
        doc["marching_scale"] = block
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    compiled = []
    for argv in (["classify"], ["frenet", "--at", "1"], ["verify"], ["verify", "--mode", "fd"],
                 ["build", "-o", str(tmp_path / "out.obj")]):
        emitters.clear()
        assert main([argv[0], str(path), *argv[1:]]) == 0
        compiled.append(len(emitters))
    assert tuple(compiled) == counts


@pytest.mark.parametrize("flag", [[], ["--as-printed"]], ids=["corrected", "as-printed"])
def test_figure_compiles_five_kernels_in_either_form(flag, tmp_path, monkeypatch, recwarn):
    # an as-printed figure checks its product block with one kernel, where
    # the corrected one runs synthesis's kernel of l, m, n and sigma
    emitters = _count_emitters(monkeypatch)
    assert main(["reproduce", "fig1c", "-o", str(tmp_path), "--grid", "20x5", *flag]) == 0
    assert len(emitters) == 5


def _count_emitters(monkeypatch) -> list:
    """A list that every `_Emitter` made from now on is appended to."""
    import g3pencil.exprjet

    emitters = []
    original = g3pencil.exprjet._Emitter.__init__

    def counting(self):
        emitters.append(self)
        original(self)

    monkeypatch.setattr(g3pencil.exprjet._Emitter, "__init__", counting)
    return emitters


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe{}", "$DIR/cfg.json: not UTF-8 text: "),
        (b"[" * 100000 + b"]" * 100000, "$DIR/cfg.json: not valid JSON: "),
        (None, "$DIR/cfg.json: cannot be read: "),
    ],
    ids=["not-utf8", "deep-json", "directory"],
)
def test_unreadable_config_is_a_schema_error(content, message, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["classify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: SchemaError: " + message.replace("$DIR", str(tmp_path)))
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "alpha, offset",
    [("(" * 200 + "v" + ")" * 200, 100), ("+".join(["v"] * 500), 199)],
    ids=["parentheses", "sum"],
)
def test_expression_nested_too_deeply_is_a_parse_error(alpha, offset, tmp_path, capsys):
    doc = json.loads(Path("configs/anti-salkowski.json").read_text())
    doc["marching_scale"] = {"direct": {"alpha": alpha, "beta": "v", "gamma": "v"}}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: ParseError: expression nested deeper than 100 levels (at offset {offset})\n"
    )


@pytest.mark.parametrize(
    "f, message",
    [
        ("s^\u00b2", "unexpected character '\u00b2'"),
        ("s*1e999", "number '1e999' is too large for a double"),
    ],
    ids=["superscript-two", "overflowing-literal"],
)
def test_number_tokens_outside_the_grammar_are_parse_errors(f, message, tmp_path, capsys):
    doc = json.loads(Path("configs/fresnel-helix.json").read_text())
    doc["curve"] = {"f": f, "g": "s^3"}
    path = tmp_path / "number.json"
    path.write_text(json.dumps(doc))
    assert main(["classify", str(path)]) == 2
    assert capsys.readouterr().err == f"error: ParseError: {message} (at offset 2)\n"


# ---------------------------------------------------------------------------
# The CLI contract on fuzzed configuration documents
# ---------------------------------------------------------------------------


def _g3pencil_errors() -> set[str]:
    names, todo = set(), [G3PencilError]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo += cls.__subclasses__()
    return names


# expressions that give a frame and finite scales somewhere, and the
# failure-rich corpus, which leaves the domain often
SENSIBLE = ("s", "v", "1", "-1", "s^3/6", "s^4/24", "cosh(s)", "sin(s)*v", "v*exp(s)", "s*v^2")
EXPRESSIONS = st.one_of(
    st.sampled_from(SENSIBLE),
    st.builds(
        lambda seed, depth: failure_rich_expression(random.Random(seed), depth),
        st.integers(0, 2**32 - 1),
        st.integers(1, 3),
    ),
)
NUMBERS = st.sampled_from((0.0, 1.0, -1.0, 6.28, -6.28, 1e300, -1e300, 1e154, 5e-324))


@st.composite
def _configs(draw) -> dict:
    s_range = [draw(NUMBERS), draw(NUMBERS)]
    v_min, v0, v_max = v_range = [draw(NUMBERS) for _ in range(3)]
    if draw(st.sampled_from((True, True, True, False))):  # most such domains are valid
        s_range.sort()
        v_min, v0, v_max = sorted(v_range)
    if draw(st.booleans()):
        curve = draw(st.sampled_from(("fresnel-helix", "anti-salkowski")))
    else:
        curve = {"f": draw(EXPRESSIONS), "g": draw(EXPRESSIONS)}
        if draw(st.booleans()):
            curve.update(kappa=draw(EXPRESSIONS), tau=draw(EXPRESSIONS))
    kind = draw(st.sampled_from(("direct", "product", "synthesis")))

    def vanishing() -> str:  # must vanish at v0, as v - v0 times anything mostly does
        root = draw(st.one_of(st.just(v0), NUMBERS))
        return f"(v - ({root!r}))*({draw(EXPRESSIONS)})"

    if kind == "direct":
        block = {key: vanishing() for key in ("alpha", "beta", "gamma")}
    elif kind == "product":
        block = {key: draw(EXPRESSIONS) for key in ("l", "m", "n")}
        block.update((key, vanishing()) for key in "XYZ")
    else:
        block = {key: draw(EXPRESSIONS) for key in ("sigma", "l", "m", "n")}
        block.update(sign=draw(st.sampled_from("+-")), **{"lambda": draw(NUMBERS)})
    doc = {
        "curve": curve,
        "marching_scale": {kind: block},
        "domain": {"s_min": s_range[0], "s_max": s_range[1], "v_min": v_min, "v_max": v_max,
                   "v0": v0},
        "grid": {"ns": 6, "nv": 3},
    }
    if draw(st.booleans()):  # beside a direct block, it fails at load
        doc["control"] = {key: draw(NUMBERS) for key in "abc"}
    return doc


# the corrected surface figures, whose domains all cross the guard band
# at s = 0, so that 2 or 3 grid rows are too few for them (GridTooCoarse)
FIGURE_DOCS = st.sampled_from([figure_doc(name) for name in sorted(SURFACE_FIGURES)])


@st.composite
def _documents(draw) -> dict:
    """A fuzzed configuration document, or one time in four a figure's."""
    return draw(FIGURE_DOCS if draw(st.integers(0, 3)) == 0 else _configs())


@settings(max_examples=200, deadline=None)
@given(
    doc=_documents(),
    command=st.sampled_from(("verify", "verify-fd", "build", "classify", "frenet")),
    workers=st.sampled_from(("1", "2")),
    # 2 or 3 rows are too few for a domain across a guard band (GridTooCoarse)
    grid=st.builds("{}x{}".format, st.integers(2, 12), st.integers(2, 6)),
    at=NUMBERS,
)
def test_cli_contract_holds_on_fuzzed_configs(doc, command, workers, grid, at):
    """Exit 0 or 1, or exit 2 with one g3pencil error line; never another error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        argv = {
            "verify": ["verify", path, "--mode", "analytic"],
            "verify-fd": ["verify", path, "--mode", "fd"],
            "build": ["build", path, "--grid", grid, "--workers", workers,
                      "-o", os.path.join(tmp, "out.obj")],
            "classify": ["classify", path],
            "frenet": ["frenet", path, f"--at={at!r}"],
        }[command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rc = main(argv)
    case = (argv[0], doc)
    if rc == 2:
        match = re.fullmatch(r"error: (\w+): [^\n]*\n", err.getvalue())
        assert match and match.group(1) in _g3pencil_errors(), (err.getvalue(), case)
    else:
        assert rc == 0 or (rc == 1 and command.startswith("verify")), case
        assert "error:" not in err.getvalue(), case


# ---------------------------------------------------------------------------
# The argv parser without argparse, against argparse
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    """A directory with the shipped configs cut to a 6x3 grid and 8 report samples."""
    tmp = tmp_path_factory.mktemp("argv")
    for name in ("fresnel-helix", "anti-salkowski"):
        doc = json.loads(Path(f"configs/{name}.json").read_text())
        doc["grid"] = {"ns": 6, "nv": 3}
        doc.setdefault("verify", {})["samples"] = 8
        (tmp / f"{name}.json").write_text(json.dumps(doc))
    return tmp


def _words(dest: str, tmp: Path) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Values to draw for an argument: those both parsers take, and the rest."""
    return {
        "config": ((str(tmp / "fresnel-helix.json"), str(tmp / "anti-salkowski.json"),
                    str(tmp / "missing.json"), ""), ("-1.5", "-")),
        "figure": (("fig1a", "fig1c", "fig1e"), ("fig1i", "FIG1A", "-fig1a", "")),
        "at": (("2", "-1.5", "-.5", "1e5"), ("-1e5", "nan", "abc", "", "-")),
        "mode": (("analytic", "fd"), ("FD", "", "-")),
        "tol": (("1e-4", "1e-18"), ("0", "-1", "inf", "x")),
        "grid": (("6x3", "10X5", "2x2", "6 x 3"), ("1x5", "6x", "-6x3")),
        "workers": (("1", "2"), ("0", "-1", "two")),
        "output": ((str(tmp / "out"), str(tmp / "out.obj"), str(tmp / "out.csv")), ("-x", "--grid")),
        "as_printed": (("",), ("1",)),
    }[dest]


@st.composite
def _argvs(draw, tmp: Path) -> list[str]:
    """A subcommand and its arguments in any order.  Half of them are well
    formed.  In the rest each option comes once, twice or not at all, with
    any value, apart from it, joined to it by '=' or without, abbreviated or
    bare, maybe with '--', '-h' or a stray word.
    """
    name = draw(st.sampled_from(sorted(COMMANDS)))
    noisy = draw(st.booleans())
    groups = []
    for arg in COMMANDS[name][2]:
        needed = arg.positional or arg.required
        counts = (1, 1, 1, 0, 2) if noisy else (1,) if needed else (0, 1)
        valid, invalid = _words(arg.dest, tmp)
        for _ in range(draw(st.sampled_from(counts))):
            value = draw(st.sampled_from(valid + invalid if noisy else valid))
            if arg.positional:
                groups.append([value])
                continue
            flag = draw(st.sampled_from(arg.flags))
            forms = ("apart",) * 5 + ("joined", "stuck", "abbreviated", "bare")
            form = draw(st.sampled_from(forms)) if noisy else "apart"
            if form == "joined":
                groups.append([f"{flag}={value}"])
            elif form == "stuck":
                groups.append([flag + value])
            elif form == "abbreviated" and len(flag) > 3:
                groups.append([flag[:-1]] + ([value] if arg.check else []))
            elif form == "bare" or arg.check is None:
                groups.append([flag])
            else:
                groups.append([flag, value])
    if noisy:
        groups += [[word] for word in draw(st.lists(
            st.sampled_from(("--", "-h", "--help", "extra")), max_size=1))]
    return [name] + [word for group in draw(st.permutations(groups)) for word in group]


def _argparse_fields(argv):
    """argparse's fields for argv, or None where it prints and exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_build_parser().parse_args(argv))
        except SystemExit:
            return None


def _run_main(argv, force_argparse: bool):
    """stdout, stderr and exit status of main(argv), on argparse alone if asked."""
    out, err = io.StringIO(), io.StringIO()
    decline = mock.patch("g3pencil.cli._parse_fast", lambda argv: None)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with decline if force_argparse else contextlib.nullcontext():
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    return out.getvalue(), err.getvalue(), code


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fast_parser_accepts_only_what_argparse_reads_the_same(small_files, data):
    argv = data.draw(st.one_of(
        _argvs(small_files),
        st.sampled_from(([], ["-h"], ["--help"], ["nope"], ["verif", "x.json"], ["--", "verify", "x.json"])),
    ))
    fast = _parse_fast(argv)
    if fast is None:
        return  # main hands argv to argparse, as the forced path below does
    assert vars(fast) == _argparse_fields(argv), argv
    assert _run_main(argv, False) == _run_main(argv, True), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["frenet", "configs/fresnel-helix.json", "--at", "-1.5"],
        ["frenet", "--at", "-.5", "configs/anti-salkowski.json"],
        ["classify", "configs/anti-salkowski.json"],
        ["verify", "--mode", "fd", "configs/anti-salkowski.json", "--tol", "1e-4"],
        ["build", "configs/fresnel-helix.json", "--grid", "10X5", "-o", "out.obj", "--workers", "2"],
        ["build", "configs/fresnel-helix.json", "--output", "-"],
        ["reproduce", "-o", "out", "fig1c", "--as-printed", "--grid", "6 x 3"],
    ],
)
def test_fast_parser_reads_well_formed_argvs_as_argparse_does(argv):
    fast = _parse_fast(argv)
    assert fast is not None
    assert vars(fast) == _argparse_fields(argv)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["verify", "configs/fresnel-helix.json", "-h"],
        ["verify", "configs/fresnel-helix.json", "--mod", "fd"],
        ["verify", "configs/fresnel-helix.json", "--tol=1e-4"],
        ["verify", "configs/fresnel-helix.json", "--mode", "fd", "--mode", "fd"],
        ["reproduce", "fig1c", "-o", "out", "--as-printed", "--as-printed"],
        ["verify", "--", "configs/fresnel-helix.json"],
        ["verify", "configs/fresnel-helix.json", "--tol"],
        ["verify", "configs/fresnel-helix.json", "--tol", "0"],
        ["verify", "configs/fresnel-helix.json", "--sign", "x"],
        ["verify", "configs/fresnel-helix.json", "--sign", "-"],
        ["verify", "configs/fresnel-helix.json", "extra"],
        ["verify", "-"],
        ["frenet", "configs/fresnel-helix.json"],
        ["frenet", "configs/fresnel-helix.json", "--at", "-1e5"],
        ["build", "configs/fresnel-helix.json", "-oout.obj"],
        ["build", "configs/fresnel-helix.json", "-o", "--grid", "6x3"],
        ["reproduce", "fig1i", "-o", "out"],
    ],
)
def test_fast_parser_leaves_the_rest_to_argparse(argv):
    assert _parse_fast(argv) is None


def test_well_formed_commands_do_not_import_argparse(tmp_path):
    argvs = [
        ["verify", "configs/fresnel-helix.json"],
        ["build", "configs/anti-salkowski.json", "--grid", "6x3", "-o", str(tmp_path / "a.obj")],
        ["reproduce", "fig1c", "--grid", "6x3", "-o", str(tmp_path)],
    ]
    script = (
        "import contextlib, io, sys\n"
        "from g3pencil.cli import main\n"
        "loaded = ['argparse' in sys.modules]\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "    loaded.append('argparse' in sys.modules)\n"
        "print(loaded)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[False, False, False, False]\n"


def test_golden_script_passes():
    # tests/check_goldens.py runs the golden and worker-count comparisons on
    # interpreters without pytest; it must hold here too
    result = subprocess.run([sys.executable, "tests/check_goldens.py"], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
