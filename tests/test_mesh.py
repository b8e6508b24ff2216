import math
import warnings

import pytest

from g3pencil.config import config_from_dict, load_config, realize
from g3pencil.curve import point
from g3pencil.errors import GridTooCoarse
from g3pencil.figures import FIGURES
from g3pencil.mesh import Mesh, _fmt, export_csv, export_obj, mesh_from_pencil
from g3pencil.g3core import G3Vector


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
        assert mesh.ns * mesh.nv == len(mesh.vertices) == 100

    def test_config_grid_counts(self):
        cfg = load_config("configs/fresnel-helix.json")
        mesh = mesh_from_pencil(realize(cfg), cfg.grid.ns, cfg.grid.nv)
        assert len(mesh.vertices) == 200 * 50

    def test_guard_band_warns_and_respans(self):
        cfg = FIGURES["fig1b"].config()
        pencil = realize(cfg)
        with pytest.warns(UserWarning, match="re-spans"):
            mesh = mesh_from_pencil(pencil, 24, 4)
        assert len(mesh.vertices) == 24 * 4
        assert all(abs(s) >= 0.09 for s in mesh.s_values)
        assert min(mesh.s_values) < -1.0 and max(mesh.s_values) > 1.0

    def test_base_row_equals_curve(self, helix_pencil):
        mesh = small_mesh(helix_pencil, 40, 10)
        for i, s in enumerate(mesh.s_values):
            p = mesh.vertices[i * mesh.nv]
            r = point(helix_pencil.curve, s)
            assert (p.x, p.y, p.z) == (r.x, r.y, r.z)

    def test_normals_optional(self, helix_pencil):
        plain = small_mesh(helix_pencil)
        assert plain.normals is None
        with_n = small_mesh(helix_pencil, with_normals=True)
        assert len(with_n.normals) == len(with_n.vertices)
        assert all(q is not None for q in with_n.normals)

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
    vs = [
        G3Vector(0.0, 0.0, 0.0),
        G3Vector(0.0, 1.0, 0.0),
        G3Vector(1.0, 0.0, 0.5),
        G3Vector(1.0, 1.0, 0.5),
    ]
    return Mesh(ns=2, nv=2, s_values=[0.0, 1.0], v_values=[0.0, 1.0], vertices=vs)


class TestObjExport:
    def test_two_by_two(self, tmp_path):
        path = tmp_path / "m.obj"
        export_obj(grid_2x2(), str(path))
        lines = path.read_text().splitlines()
        assert [l for l in lines if l.startswith("v ")] == [
            "v 0 0 0",
            "v 0 1 0",
            "v 1 0 0.5",
            "v 1 1 0.5",
        ]
        assert [l for l in lines if l.startswith("f ")] == ["f 1 3 2", "f 3 4 2"]

    def test_normals_emitted_when_present(self, tmp_path, helix_pencil):
        mesh = small_mesh(helix_pencil, 4, 3, with_normals=True)
        path = tmp_path / "n.obj"
        export_obj(mesh, str(path))
        lines = path.read_text().splitlines()
        assert sum(1 for l in lines if l.startswith("vn ")) == 12
        assert any("//" in l for l in lines if l.startswith("f "))

    def test_degenerate_normals_written_as_zero(self, tmp_path):
        mesh = grid_2x2()
        mesh.normals = [G3Vector(0.0, 1.0, 0.0), None, None, G3Vector(0.0, 0.0, 1.0)]
        path = tmp_path / "d.obj"
        export_obj(mesh, str(path))
        assert path.read_text().count("vn 0 0 0") == 2

    def test_empty_mesh_rejected(self, tmp_path):
        empty = Mesh(ns=0, nv=0, s_values=[], v_values=[], vertices=[])
        with pytest.raises(ValueError):
            export_obj(empty, str(tmp_path / "e.obj"))

    def test_golden_fixture_reproduced_across_worker_counts(self, tmp_path):
        # the library takes no worker count; the CLI's --workers invariance
        # is acceptance criterion 11
        golden = open("tests/golden/fig1b_40x10.obj", "rb").read()
        mesh = small_mesh(realize(FIGURES["fig1b"].config()), 40, 10)
        path = tmp_path / "m.obj"
        export_obj(mesh, str(path))
        assert path.read_bytes() == golden


def _reference_obj(mesh):
    """Per-record OBJ writer: every record its own string, one join."""
    lines = [f"v {_fmt(p.x)} {_fmt(p.y)} {_fmt(p.z)}" for p in mesh.vertices]
    for q in mesh.normals or []:
        lines.append("vn 0 0 0" if q is None else f"vn {_fmt(q.x)} {_fmt(q.y)} {_fmt(q.z)}")
    nv = mesh.nv
    for i in range(mesh.ns - 1):
        for j in range(nv - 1):
            a, b = i * nv + j + 1, (i + 1) * nv + j + 1
            c, d = b + 1, a + 1
            if mesh.normals is not None:
                lines.append(f"f {a}//{a} {b}//{b} {d}//{d}")
                lines.append(f"f {b}//{b} {c}//{c} {d}//{d}")
            else:
                lines.append(f"f {a} {b} {d}")
                lines.append(f"f {b} {c} {d}")
    return ("\n".join(lines) + "\n").encode("ascii")


def _reference_csv(mesh):
    lines = ["s,v,x,y,z"]
    for i, s in enumerate(mesh.s_values):
        for j, v in enumerate(mesh.v_values):
            p = mesh.vertices[i * mesh.nv + j]
            lines.append(f"{_fmt(s)},{_fmt(v)},{_fmt(p.x)},{_fmt(p.y)},{_fmt(p.z)}")
    return ("\n".join(lines) + "\n").encode("ascii")


def test_streaming_exporters_match_per_record_output(tmp_path):
    values = [-0.0, 0.0, math.pi, -2.5, 1e-300, -1e300, 1 / 3, 5e-324]
    vertices = [
        G3Vector(values[k % 8], values[(k + 3) % 8], values[(k + 5) % 8]) for k in range(12)
    ]
    normals = [None if k == 4 else G3Vector(0.0, values[k % 8], -0.0) for k in range(12)]
    mesh = Mesh(
        ns=4, nv=3, s_values=[-0.0, 0.5, 1.0, 2.0], v_values=[-0.0, 1e-17, 3.0],
        vertices=vertices,
    )
    export_csv(mesh, str(tmp_path / "m.csv"))
    assert (tmp_path / "m.csv").read_bytes() == _reference_csv(mesh)
    export_obj(mesh, str(tmp_path / "m.obj"))
    assert (tmp_path / "m.obj").read_bytes() == _reference_obj(mesh)
    mesh.normals = normals
    export_obj(mesh, str(tmp_path / "n.obj"))
    data = (tmp_path / "n.obj").read_bytes()
    assert data == _reference_obj(mesh)
    assert b"vn 0 0 0\n" in data and b"-0 " not in data and b"f 1//1 4//4 2//2\n" in data


class TestCsvExport:
    def test_header_and_row_count(self, tmp_path, helix_pencil):
        mesh = small_mesh(helix_pencil, 8, 5)
        path = tmp_path / "m.csv"
        export_csv(mesh, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "s,v,x,y,z"
        assert len(lines) == 8 * 5 + 1

    def test_base_row_bytes_match_curve_points(self, tmp_path, helix_pencil):
        mesh = small_mesh(helix_pencil, 12, 4)
        path = tmp_path / "m.csv"
        export_csv(mesh, str(path))
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
        assert len(mesh.vertices) == 30 * 4
