import math
import os
import warnings
from pathlib import Path

import pytest

from g3pencil.config import config_from_dict, load_config, realize
from g3pencil.curve import point
from g3pencil.errors import CurvatureVanishes, GridTooCoarse
from g3pencil.exprjet import KinkWarning
from g3pencil.figures import FIGURES
from g3pencil.mesh import (
    Mesh,
    _fmt,
    _pool_size,
    _run_rows,
    export_mesh,
    mesh_from_pencil,
)


@pytest.fixture(scope="module")
def helix_pencil():
    return realize(load_config("configs/fresnel-helix.json"))


def small_mesh(pencil, ns=6, nv=4, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return mesh_from_pencil(pencil, ns, nv, **kw)


class TestSampling:
    def test_vertex_count(self, helix_pencil):
        mesh = small_mesh(helix_pencil, 20, 5)
        assert 3 * mesh.ns * mesh.nv == len(mesh.coords) == 300

    def test_config_grid_counts(self):
        cfg = load_config("configs/fresnel-helix.json")
        mesh = mesh_from_pencil(realize(cfg), cfg.grid.ns, cfg.grid.nv)
        assert len(mesh.coords) == 3 * 200 * 50

    def test_guard_band_warns_and_respans(self):
        cfg = FIGURES["fig1b"].config()
        pencil = realize(cfg)
        with pytest.warns(UserWarning, match="re-spans"):
            mesh = mesh_from_pencil(pencil, 24, 4)
        assert len(mesh.coords) == 3 * 24 * 4
        assert all(abs(s) >= 0.09 for s in mesh.s_values)
        assert min(mesh.s_values) < -1.0 and max(mesh.s_values) > 1.0

    def test_base_row_equals_curve(self, helix_pencil):
        mesh = small_mesh(helix_pencil, 40, 10)
        for i, s in enumerate(mesh.s_values):
            k = 3 * i * mesh.nv
            assert tuple(mesh.coords[k : k + 3]) == point(helix_pencil.curve, s).as_tuple()

    def test_each_usable_interval_needs_two_rows(self):
        # fig1c's guard band around s = 0 leaves two usable intervals
        pencil = realize(FIGURES["fig1c"].config())
        for ns in (2, 3):
            with pytest.raises(GridTooCoarse):
                small_mesh(pencil, ns, 2)
        mesh = small_mesh(pencil, 4, 2)
        assert sum(1 for s in mesh.s_values if s < 0.0) == 2


class TestFormatting:
    def test_signed_zero_canonicalized(self):
        assert _fmt(-0.0) == "0"
        assert _fmt(0.0) == "0"

    def test_seventeen_significant_digits(self):
        assert _fmt(math.pi) == "3.1415926535897931"


def grid_2x2():
    coords = [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.5, 1.0, 1.0, 0.5]
    return Mesh(ns=2, nv=2, s_values=[0.0, 1.0], v_values=[0.0, 1.0], coords=coords)


class TestObjExport:
    def test_two_by_two(self, tmp_path):
        path = tmp_path / "m.obj"
        export_mesh(grid_2x2(), obj=str(path))
        lines = path.read_text().splitlines()
        assert [l for l in lines if l.startswith("v ")] == [
            "v 0 0 0",
            "v 0 1 0",
            "v 1 0 0.5",
            "v 1 1 0.5",
        ]
        assert [l for l in lines if l.startswith("f ")] == ["f 1 3 2", "f 3 4 2"]

    def test_empty_mesh_rejected(self, tmp_path):
        empty = Mesh(ns=0, nv=0, s_values=[], v_values=[], coords=[])
        with pytest.raises(ValueError):
            export_mesh(empty, obj=str(tmp_path / "e.obj"))

    def test_golden_fixture_reproduced_across_worker_counts(self, tmp_path):
        # fig1b's 40 rows straddle the guard band around s = 0, which lies
        # between rows 19 and 20, where two workers split the rows
        golden = Path("tests/golden/fig1b_40x10.obj").read_bytes()
        pencil = realize(FIGURES["fig1b"].config())
        for workers in (1, 2, 8):
            mesh = small_mesh(pencil, 40, 10, workers=workers)
            path = tmp_path / f"m{workers}.obj"
            export_mesh(mesh, obj=str(path), workers=workers)
            assert path.read_bytes() == golden


def _reference_obj(mesh):
    """Per-record OBJ writer: every record its own string, one join."""
    lines = [f"v {_fmt(x)} {_fmt(y)} {_fmt(z)}" for x, y, z in _triples(mesh.coords)]
    nv = mesh.nv
    for i in range(mesh.ns - 1):
        for j in range(nv - 1):
            a, b = i * nv + j + 1, (i + 1) * nv + j + 1
            c, d = b + 1, a + 1
            lines.append(f"f {a} {b} {d}")
            lines.append(f"f {b} {c} {d}")
    return ("\n".join(lines) + "\n").encode("ascii")


def _reference_csv(mesh):
    lines = ["s,v,x,y,z"]
    points = iter(_triples(mesh.coords))
    for s in mesh.s_values:
        for v in mesh.v_values:
            x, y, z = next(points)
            lines.append(f"{_fmt(s)},{_fmt(v)},{_fmt(x)},{_fmt(y)},{_fmt(z)}")
    return ("\n".join(lines) + "\n").encode("ascii")


def _triples(values):
    return [tuple(values[k : k + 3]) for k in range(0, len(values), 3)]


def _exotic_mesh(coords_type=list):
    # mesh coordinates are canonical (no -0.0); s and v values need not be
    values = [0.0, math.pi, -2.5, 1e-300, -1e300, 1 / 3, 5e-324, 7.0]
    coords = coords_type(values[(k + c) % 8] for k in range(12) for c in (0, 3, 5))
    return Mesh(
        ns=4, nv=3, s_values=[-0.0, 0.5, 1.0, 2.0], v_values=[-0.0, 1e-17, 3.0], coords=coords
    )


def test_streaming_exporters_match_per_record_output(tmp_path):
    mesh = _exotic_mesh()
    for workers in (1, 2):
        export_mesh(mesh, csv=str(tmp_path / "m.csv"), workers=workers)
        assert (tmp_path / "m.csv").read_bytes() == _reference_csv(mesh)
        export_mesh(mesh, obj=str(tmp_path / "m.obj"), workers=workers)
        assert (tmp_path / "m.obj").read_bytes() == _reference_obj(mesh)
    data = (tmp_path / "m.obj").read_bytes()
    assert b"v 0 " in data and b"-0" not in data and b"f 1 4 2\n" in data


class TestCsvExport:
    def test_header_and_row_count(self, tmp_path, helix_pencil):
        mesh = small_mesh(helix_pencil, 8, 5)
        path = tmp_path / "m.csv"
        export_mesh(mesh, csv=str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "s,v,x,y,z"
        assert len(lines) == 8 * 5 + 1

    def test_base_row_bytes_match_curve_points(self, tmp_path, helix_pencil):
        mesh = small_mesh(helix_pencil, 12, 4)
        path = tmp_path / "m.csv"
        export_mesh(mesh, csv=str(path))
        rows = path.read_text().splitlines()[1:]
        base_rows = [rows[i * mesh.nv] for i in range(mesh.ns)]
        for s, row in zip(mesh.s_values, base_rows):
            r = point(helix_pencil.curve, s)
            expected = f"{_fmt(s)},{_fmt(0.0)},{_fmt(r.x)},{_fmt(r.y)},{_fmt(r.z)}"
            assert row == expected


class TestDomainGaps:
    def test_printed_fig1d_excises_infeasible_band(self):
        # the as-printed flexion factor sqrt(s^2 - 1/64) is undefined for
        # |s| < 1/8; those rows must be excised, not produced partially
        cfg = FIGURES["fig1d"].config(as_printed=True)
        pencil = realize(cfg, as_printed=True)
        with pytest.warns(UserWarning, match="re-spans"):
            mesh = mesh_from_pencil(pencil, 30, 4)
        assert all(abs(s) >= 0.125 - 1e-6 for s in mesh.s_values)
        assert len(mesh.coords) == 3 * 30 * 4


class TestWorkers:
    @pytest.fixture
    def two_cpus(self, monkeypatch):
        # two processes share the rows even on a one-CPU machine
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def test_pool_size_is_capped_by_cpus_and_rows(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
        assert _pool_size(1000, 10**6) == 6
        assert _pool_size(1000, 3) == 3
        assert _pool_size(4, 10**6) == 4
        assert _pool_size(1, 10**6) == 1
        assert _pool_size(1000, 0) == 1
        with pytest.raises(ValueError):
            _pool_size(0, 10)

    def test_rows_come_back_in_order(self, two_cpus):
        parts = []
        _run_rows(lambda lo, hi: (bytes(range(lo, hi)),), 200, 2, parts.append)
        assert b"".join(parts) == bytes(range(200))

    def test_mesh_does_not_depend_on_workers(self, two_cpus, tmp_path):
        # fig1b's rows straddle the guard band around s = 0
        pencil = realize(FIGURES["fig1b"].config())
        meshes, blobs = [], []
        for workers in (1, 2, 8):
            mesh = small_mesh(pencil, 20, 6, workers=workers)
            path = tmp_path / f"m{workers}.obj"
            export_mesh(mesh, obj=str(path), workers=workers)
            meshes.append(mesh.coords)
            blobs.append(path.read_bytes())
        assert meshes[0] == meshes[1] == meshes[2]
        assert blobs[0] == blobs[1] == blobs[2]
        assert blobs[0].count(b"v ") == 20 * 6

    def test_child_error_and_warnings_reach_the_caller(self, two_cpus, recwarn):
        def task(lo, hi):
            for row in range(lo, hi):
                if row == 9:
                    warnings.warn("kink in row 9", KinkWarning)
                if row == 10:
                    raise CurvatureVanishes(1.5, 1e-9)
            return (b"x" * (hi - lo),)

        with pytest.raises(CurvatureVanishes) as info:
            _run_rows(task, 12, 2, [].append)
        assert (info.value.s, info.value.kappa) == (1.5, 1e-9)
        assert str(info.value) == str(CurvatureVanishes(1.5, 1e-9))
        assert [str(w.message) for w in recwarn] == ["kink in row 9"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # every child was reaped


class TestOnePassExport:
    @pytest.fixture
    def three_cpus(self, monkeypatch):
        # three processes share the rows even on a machine with fewer CPUs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)

    @pytest.fixture(scope="class")
    def fig1c_mesh(self):
        pencil = realize(FIGURES["fig1c"].config())
        with pytest.warns(UserWarning, match="guard bands excised"):
            return mesh_from_pencil(pencil, 20, 6)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("which", ["exotic", "fig1c"])
    def test_two_file_pass_matches_single_file_and_reference_output(
        self, three_cpus, fig1c_mesh, tmp_path, which, workers
    ):
        mesh = _exotic_mesh() if which == "exotic" else fig1c_mesh
        both_obj, both_csv = tmp_path / "both.obj", tmp_path / "both.csv"
        export_mesh(mesh, str(both_obj), str(both_csv), workers=workers)
        export_mesh(mesh, obj=str(tmp_path / "one.obj"), workers=workers)
        export_mesh(mesh, csv=str(tmp_path / "one.csv"), workers=workers)
        obj = both_obj.read_bytes()
        assert obj == (tmp_path / "one.obj").read_bytes() == _reference_obj(mesh)
        assert both_csv.read_bytes() == (tmp_path / "one.csv").read_bytes() == _reference_csv(mesh)
        assert obj.count(b"v ") == mesh.ns * mesh.nv

    def test_worker_error_in_a_two_file_pass_reaches_the_caller(self, three_cpus, tmp_path):
        class Poisoned(list):
            def __getitem__(self, key):
                # rows 2 and 3 (from coordinate 18 on) belong to the third process
                if isinstance(key, slice) and key.start >= 18:
                    raise CurvatureVanishes(1.5, 1e-9)
                return super().__getitem__(key)

        mesh = _exotic_mesh(Poisoned)
        with pytest.raises(CurvatureVanishes) as info:
            export_mesh(mesh, str(tmp_path / "m.obj"), str(tmp_path / "m.csv"), workers=3)
        assert (info.value.s, info.value.kappa) == (1.5, 1e-9)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # every child was reaped
