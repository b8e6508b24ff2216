import errno
import json
import math
import os
import subprocess
import sys
import warnings
from bisect import bisect_right
from contextlib import ExitStack, suppress
from pathlib import Path

import pytest

import g3pencil.mesh
from g3pencil.cli import main
from g3pencil.config import config_from_dict, load_config, realize
from g3pencil.curve import point_parts, uniform_grid
from g3pencil.errors import CurvatureVanishes, GridTooCoarse
from g3pencil.exprjet import KinkWarning
from g3pencil.figures import figure_doc
from g3pencil.mesh import _MIN_POINTS, _fmt, _pool_size, _run_rows, write_mesh
from g3pencil.pencil import usable_domain


@pytest.fixture(scope="module")
def helix_pencil():
    return realize(load_config("configs/fresnel-helix.json"))


def write_quietly(pencil, ns, nv, obj=None, csv=None, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        write_mesh(pencil, ns, nv, None if obj is None else str(obj),
                   None if csv is None else str(csv), **kw)


def read_csv(path):
    """The s, v, x, y, z of each CSV row; 17 significant digits give back each double."""
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "s,v,x,y,z"
    return [tuple(map(float, line.split(","))) for line in lines[1:]]


def sampled(pencil, ns, nv, tmp_path):
    """The CSV rows of the pencil's ns x nv surface."""
    path = tmp_path / "sampled.csv"
    write_quietly(pencil, ns, nv, csv=path)
    return read_csv(path)


class TestSampling:
    def test_vertex_count(self, helix_pencil, tmp_path):
        rows = sampled(helix_pencil, 20, 5, tmp_path)
        assert len(rows) == 100 and all(len(r) == 5 for r in rows)

    def test_config_grid_counts(self, tmp_path):
        cfg = load_config("configs/fresnel-helix.json")
        assert len(sampled(realize(cfg), *cfg.grid, tmp_path)) == 200 * 50

    def test_guard_band_warns_and_respans(self, tmp_path):
        cfg = config_from_dict(figure_doc("fig1b"))
        pencil = realize(cfg)
        path = tmp_path / "m.csv"
        with pytest.warns(UserWarning, match="re-spans"):
            write_mesh(pencil, 24, 4, csv=str(path))
        s_values = [row[0] for row in read_csv(path)]
        assert len(s_values) == 24 * 4
        assert all(abs(s) >= 0.09 for s in s_values)
        assert min(s_values) < -1.0 and max(s_values) > 1.0

    def test_base_row_equals_curve(self, helix_pencil, tmp_path):
        rows = sampled(helix_pencil, 40, 10, tmp_path)
        for s, v, *xyz in rows[::10]:
            assert v == 0.0
            assert tuple(xyz) == point_parts(helix_pencil.curve, s)

    def test_each_usable_interval_needs_two_rows(self, tmp_path):
        # fig1c's guard band around s = 0 leaves two usable intervals
        pencil = realize(config_from_dict(figure_doc("fig1c")))
        for ns in (2, 3):
            with pytest.raises(GridTooCoarse):
                write_quietly(pencil, ns, 2, obj=tmp_path / "m.obj")
            assert not (tmp_path / "m.obj").exists()
        rows = sampled(pencil, 4, 2, tmp_path)
        assert sum(1 for s, *_ in rows if s < 0.0) == 2 * 2


class TestFormatting:
    def test_signed_zero_canonicalized(self):
        assert _fmt(-0.0) == "0"
        assert _fmt(0.0) == "0"

    def test_seventeen_significant_digits(self):
        assert _fmt(math.pi) == "3.1415926535897931"


# A direct-scale surface on a stretch of the helix without a guard band; its
# v grid is 0, 1e-17, 2e-17.
SMALL = {
    "curve": "fresnel-helix",
    "marching_scale": {"direct": {"alpha": "v", "beta": "v", "gamma": "v"}},
    "domain": {"s_min": 0.5, "s_max": 2.0, "v_min": 0.0, "v_max": 2e-17, "v0": 0.0},
    "grid": {"ns": 4, "nv": 3},
}


@pytest.fixture
def small_pencil():
    return realize(config_from_dict(SMALL))


def script_rows(monkeypatch, rows):
    """Make the row kernel emit ``rows[s]``, x, y, z per vertex, for the row at s."""

    def compile_rows(alpha, beta, gamma, v_values):
        return lambda s, base, frame, out: out.extend(rows[s])

    monkeypatch.setattr(g3pencil.mesh, "compile_surface_rows", compile_rows)


def exotic_rows(monkeypatch, ns=4, nv=3):
    """Script extreme coordinates into the small surface's rows; its coordinates, flat."""
    # the row kernel's coordinates are canonical (no -0.0)
    values = [0.0, math.pi, -2.5, 1e-300, -1e300, 1 / 3, 5e-324, 7.0]
    coords = [values[(k + c) % 8] for k in range(ns * nv) for c in (0, 3, 5)]
    s_values = uniform_grid(0.5, 2.0, ns)
    script_rows(monkeypatch, {s: coords[3 * nv * i : 3 * nv * (i + 1)] for i, s in enumerate(s_values)})
    return s_values, uniform_grid(0.0, 2e-17, nv), coords


class TestObjExport:
    def test_two_by_two(self, small_pencil, monkeypatch, tmp_path):
        script_rows(monkeypatch, {0.5: [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
                                  2.0: [1.0, 0.0, 0.5, 1.0, 1.0, 0.5]})
        path = tmp_path / "m.obj"
        write_mesh(small_pencil, 2, 2, obj=str(path))
        lines = path.read_text().splitlines()
        assert [l for l in lines if l.startswith("v ")] == [
            "v 0 0 0",
            "v 0 1 0",
            "v 1 0 0.5",
            "v 1 1 0.5",
        ]
        assert [l for l in lines if l.startswith("f ")] == ["f 1 3 2", "f 3 4 2"]

    def test_empty_mesh_rejected(self, small_pencil, tmp_path):
        for nv in (0, 1):
            with pytest.raises(ValueError):
                write_mesh(small_pencil, 4, nv, obj=str(tmp_path / "e.obj"))
            assert not (tmp_path / "e.obj").exists()

    def test_golden_fixture_reproduced_across_worker_counts(self, tmp_path):
        # fig1b's 40 rows straddle the guard band around s = 0, which lies
        # between rows 19 and 20, where two workers split the rows
        golden = Path("tests/golden/fig1b_40x10.obj").read_bytes()
        pencil = realize(config_from_dict(figure_doc("fig1b")))
        for workers in (1, 2, 8):
            path = tmp_path / f"m{workers}.obj"
            write_quietly(pencil, 40, 10, obj=path, workers=workers)
            assert path.read_bytes() == golden


def _reference_obj(s_values, nv, coords, intervals):
    """Per-record OBJ writer: every record its own string, one join.

    A face joins rows i and i + 1 only when both lie in one usable interval.
    """
    lines = [f"v {_fmt(x)} {_fmt(y)} {_fmt(z)}" for x, y, z in _triples(coords)]
    starts = [a for a, _ in intervals]
    for i in range(len(s_values) - 1):
        if bisect_right(starts, s_values[i]) != bisect_right(starts, s_values[i + 1]):
            continue
        for j in range(nv - 1):
            a, b = i * nv + j + 1, (i + 1) * nv + j + 1
            c, d = b + 1, a + 1
            lines.append(f"f {a} {b} {d}")
            lines.append(f"f {b} {c} {d}")
    return ("\n".join(lines) + "\n").encode("ascii")


def _reference_csv(s_values, v_values, coords):
    lines = ["s,v,x,y,z"]
    points = iter(_triples(coords))
    for s in s_values:
        for v in v_values:
            x, y, z = next(points)
            lines.append(f"{_fmt(s)},{_fmt(v)},{_fmt(x)},{_fmt(y)},{_fmt(z)}")
    return ("\n".join(lines) + "\n").encode("ascii")


def _triples(values):
    return [tuple(values[k : k + 3]) for k in range(0, len(values), 3)]


def test_streaming_exporters_match_per_record_output(small_pencil, monkeypatch, tmp_path):
    s_values, v_values, coords = exotic_rows(monkeypatch)
    intervals = usable_domain(small_pencil.curve, small_pencil.marching, small_pencil.domain)
    for workers in (1, 2):
        write_mesh(small_pencil, 4, 3, csv=str(tmp_path / "m.csv"), workers=workers)
        assert (tmp_path / "m.csv").read_bytes() == _reference_csv(s_values, v_values, coords)
        write_mesh(small_pencil, 4, 3, obj=str(tmp_path / "m.obj"), workers=workers)
        assert (tmp_path / "m.obj").read_bytes() == _reference_obj(s_values, 3, coords, intervals)
    data = (tmp_path / "m.obj").read_bytes()
    assert b"v 0 " in data and b"-0" not in data and b"f 1 4 2\n" in data
    assert b",1.0000000000000001e-17," in (tmp_path / "m.csv").read_bytes()


class TestCsvExport:
    def test_header_and_row_count(self, tmp_path, helix_pencil):
        path = tmp_path / "m.csv"
        write_quietly(helix_pencil, 8, 5, csv=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "s,v,x,y,z"
        assert len(lines) == 8 * 5 + 1

    def test_base_row_bytes_match_curve_points(self, tmp_path, helix_pencil):
        path = tmp_path / "m.csv"
        write_quietly(helix_pencil, 12, 4, csv=path)
        rows = path.read_text().splitlines()[1:]
        d = helix_pencil.domain
        for s, row in zip(uniform_grid(d.s_min, d.s_max, 12), rows[::4]):
            x, y, z = point_parts(helix_pencil.curve, s)
            expected = f"{_fmt(s)},{_fmt(0.0)},{_fmt(x)},{_fmt(y)},{_fmt(z)}"
            assert row == expected


class TestDomainGaps:
    def test_printed_fig1d_excises_infeasible_band(self, tmp_path):
        # the as-printed flexion factor sqrt(s^2 - 1/64) is undefined for
        # |s| < 1/8; those rows must be excised, not produced partially
        cfg = config_from_dict(figure_doc("fig1d", as_printed=True))
        pencil = realize(cfg)
        path = tmp_path / "m.csv"
        with pytest.warns(UserWarning, match="re-spans"):
            write_mesh(pencil, 30, 4, csv=str(path))
        rows = read_csv(path)
        assert all(abs(s) >= 0.125 - 1e-6 for s, *_ in rows)
        assert len(rows) == 30 * 4


@pytest.fixture
def two_cpus(monkeypatch):
    # two processes share the rows even on a one-CPU machine
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def forks(monkeypatch):
    """The number of os.fork calls so far, as a one-item list."""
    count = [0]
    fork = os.fork

    def counting_fork():
        count[0] += 1
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return count


class TestWorkers:
    def test_pool_size_is_capped_by_cpus_and_rows(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
        assert _pool_size(1000, 10**6, 10**6) == 6
        assert _pool_size(1000, 3, 10**6) == 3
        assert _pool_size(4, 10**6, 10**6) == 4
        assert _pool_size(1, 10**6, 10**6) == 1
        assert _pool_size(1000, 0, 0) == 1
        with pytest.raises(ValueError):
            _pool_size(0, 10, 10**6)

    def test_default_pool_size_gives_each_process_the_points_floor(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
        assert _pool_size(None, 200, 200 * 50 * _MIN_POINTS) == 6  # the CPU cap
        assert _pool_size(None, 3, 3 * 50 * _MIN_POINTS) == 3  # the row cap
        assert _pool_size(None, 300, 3 * _MIN_POINTS) == 3  # the floor
        assert _pool_size(None, 300, 3 * _MIN_POINTS - 1) == 2
        assert _pool_size(None, 1, _MIN_POINTS - 1) == 1
        assert _pool_size(None, 0, 0) == 1

    def test_rows_come_back_in_order(self, two_cpus):
        parts = []
        with ExitStack() as stack:
            _run_rows(stack, lambda lo, hi: (bytes(range(lo, hi)),), 200, 2, parts.append)
        assert b"".join(parts) == bytes(range(200))

    def test_mesh_does_not_depend_on_workers(self, two_cpus, tmp_path):
        # fig1b's rows straddle the guard band around s = 0
        pencil = realize(config_from_dict(figure_doc("fig1b")))
        blobs = []
        for workers in (1, 2, 8):
            obj, csv = tmp_path / f"m{workers}.obj", tmp_path / f"m{workers}.csv"
            write_quietly(pencil, 20, 6, obj, csv, workers=workers)
            blobs.append((obj.read_bytes(), csv.read_bytes()))
        assert blobs[0] == blobs[1] == blobs[2]
        assert blobs[0][0].count(b"v ") == 20 * 6

    def test_build_with_two_workers_forks_once(self, two_cpus, forks, tmp_path, capsys):
        # one pass samples and formats the rows, so one child shares them
        out = tmp_path / "m.obj"
        assert main(["build", "configs/fresnel-helix.json", "-o", str(out), "--workers", "2"]) == 0
        assert forks[0] == 1
        assert capsys.readouterr().out == f"wrote {out} (200x50 vertices)\n"

    def test_reproduce_forks_once_by_default(self, two_cpus, forks, tmp_path, capsys, recwarn):
        # fig1c's 200x50 grid gives each of two processes its points floor
        blobs = []
        for extra in ([], ["--workers", "1"]):
            out = tmp_path / str(len(extra))
            assert main(["reproduce", "fig1c", "-o", str(out), *extra]) == 0
            blobs.append([(out / f"fig1c.{ext}").read_bytes() for ext in ("obj", "csv")])
            assert forks[0] == 1
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("ns, count", [(2 * _MIN_POINTS // 10 - 1, 0), (2 * _MIN_POINTS // 10, 1)])
    @pytest.mark.parametrize("command", ["build", "reproduce"])
    def test_a_grid_below_the_points_floor_forks_none(
        self, two_cpus, forks, tmp_path, capsys, recwarn, command, ns, count
    ):
        if command == "reproduce":
            argv = ["reproduce", "fig1c", "-o", str(tmp_path)]
        else:
            argv = ["build", "configs/fresnel-helix.json", "-o", str(tmp_path / "m.obj")]
        assert main([*argv, "--grid", f"{ns}x10"]) == 0
        assert forks[0] == count

    def test_a_clean_result_needs_no_pickle(self, tmp_path):
        # a child that raised no error and no warning sends only sizes and bytes
        script = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "fork, forks = os.fork, []\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "from g3pencil.cli import main\n"
            f"argv = ['build', 'configs/fresnel-helix.json', '-o', {str(tmp_path / 'm.obj')!r}, '--workers', '2']\n"
            "assert main(argv) == 0\n"
            "print(len(forks), 'pickle' in sys.modules)\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0 and result.stderr == ""
        assert result.stdout.splitlines()[-1] == "1 False"

    def test_an_ignored_sigchld_gives_the_bytes_of_one_process(self, tmp_path):
        # the system reaps each child as it ends, so no reap finds it; a
        # fresh interpreter, since SIGCHLD is this process's to keep
        script = (
            "import os, signal\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "signal.signal(signal.SIGCHLD, signal.SIG_IGN)\n"
            "from g3pencil.cli import main\n"
            "for workers in ('1', '2'):\n"
            f"    out = os.path.join({str(tmp_path)!r}, workers)\n"
            "    assert main(['reproduce', 'fig1c', '-o', out, '--workers', workers]) == 0\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        for name in ("fig1c.obj", "fig1c.csv"):
            assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()

    def test_error_in_the_parents_rows_leaves_no_file(self, two_cpus, forks, tmp_path, capsys):
        # only the first row, s = 0.5, overflows: the calling process has it
        # while a child works on the later rows
        alpha = "v*exp(3000*(0.6 - s)*v)"
        doc = {
            "curve": "fresnel-helix",
            "marching_scale": {"direct": {"alpha": alpha, "beta": "v", "gamma": "v"}},
            "domain": {"s_min": 0.5, "s_max": 2.0, "v_min": 0.0, "v_max": 5.0, "v0": 0.0},
            "grid": {"ns": 10, "nv": 5},
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        for out in (tmp_path / "out.obj", tmp_path / "out.csv"):
            assert main(["build", str(path), "-o", str(out), "--workers", "2"]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert err.startswith("error: DomainError: non-finite surface point")
            assert "at s = 0.5, v = " in err
            assert not out.exists()
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)  # the child was reaped
        assert forks[0] == 2
        assert sorted(os.listdir(tmp_path)) == ["exp.json"]

    @pytest.fixture
    def dying_child(self, monkeypatch):
        """Row workers that send their header and half their bytes, then exit 9."""

        def child(task, lo, hi, read_end, write_end):
            try:
                os.close(read_end)
                parts = [b"".join(p) for p in zip(*g3pencil.mesh._blocks(task, lo, hi))]
                head = b"".join(len(p).to_bytes(8, "little") for p in parts)  # the size of each output
                data = b"".join(parts)
                with open(write_end, "wb") as pipe:
                    pipe.write(head + data[: len(data) // 2])
            finally:
                os._exit(9)

        monkeypatch.setattr(g3pencil.mesh, "_child", child)

    def test_a_result_cut_short_is_an_error(self, two_cpus, dying_child):
        parts = []
        with pytest.raises(ChildProcessError, match="before its whole result"), ExitStack() as stack:
            _run_rows(stack, lambda lo, hi: (bytes(range(lo, hi)),), 200, 2, parts.append)
        assert len(b"".join(parts)) < 200
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # every child was reaped

    def test_build_with_a_dying_worker_leaves_no_file(self, two_cpus, dying_child, tmp_path, capsys):
        for out in (tmp_path / "out.obj", tmp_path / "out.csv"):
            assert main(["build", "configs/fresnel-helix.json", "-o", str(out), "--workers", "2"]) == 2
            err = capsys.readouterr().err
            assert err == "error: ChildProcessError: a row worker process ended before its whole result\n"
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)  # the child was reaped
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "call, error",
        [
            ("fork", BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")),
            ("pipe", OSError(errno.EMFILE, "Too many open files")),
        ],
    )
    def test_rows_with_no_pipe_or_no_child_run_here(
        self, two_cpus, monkeypatch, tmp_path, capsys, recwarn, call, error
    ):
        def outputs(workers, *extra):
            # reproduce fig1c with ``extra``, and build with ``workers``
            out = tmp_path / workers
            assert main(["reproduce", "fig1c", "-o", str(out), *extra]) == 0
            argv = ["build", "configs/fresnel-helix.json", "-o", str(out / "m.obj")]
            assert main([*argv, "--workers", workers]) == 0
            files = {path.name: path.read_bytes() for path in out.iterdir()}
            return files, capsys.readouterr().err.replace(str(out), "$OUT")

        one = outputs("1", "--workers", "1")
        calls = []

        def fail(*args):
            calls.append(args)
            raise error

        monkeypatch.setattr(os, call, fail)
        assert outputs("2") == one  # the default count is 2 for fig1c here
        assert len(calls) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # no child was left

    def test_rows_of_a_child_that_ends_before_it_writes_run_here(
        self, two_cpus, forks, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setattr(g3pencil.mesh, "_child", lambda task, lo, hi, r, w: os._exit(9))
        parts = []
        with ExitStack() as stack:
            _run_rows(stack, lambda lo, hi: (bytes(range(lo, hi)),), 200, 3, parts.append)
        assert b"".join(parts) == bytes(range(200))
        assert forks[0] == 2
        blobs = []
        for workers in ("1", "2"):
            out = tmp_path / f"m{workers}.obj"
            argv = ["build", "configs/fresnel-helix.json", "-o", str(out), "--workers", workers]
            assert main(argv) == 0
            assert capsys.readouterr().err == ""
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        assert forks[0] == 3
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # every child was reaped

    def test_child_error_and_warnings_reach_the_caller(self, two_cpus, recwarn):
        def task(lo, hi):
            for row in range(lo, hi):
                if row == 9:
                    warnings.warn("kink in row 9", KinkWarning)
                if row == 10:
                    raise CurvatureVanishes(1.5, 1e-9)
            return (b"x" * (hi - lo),)

        with pytest.raises(CurvatureVanishes) as info, ExitStack() as stack:
            _run_rows(stack, task, 12, 2, [].append)
        assert (info.value.s, info.value.kappa) == (1.5, 1e-9)
        assert str(info.value) == str(CurvatureVanishes(1.5, 1e-9))
        assert [str(w.message) for w in recwarn] == ["kink in row 9"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # every child was reaped

    def test_child_error_of_a_local_class_reaches_the_caller(self, two_cpus):
        # a class defined here has no import path by which another process could name it
        class LocalError(Exception):
            pass

        def task(lo, hi):
            if hi > 10:
                raise LocalError("rows", lo, hi)
            return (b"x" * (hi - lo),)

        with pytest.raises(LocalError) as info, ExitStack() as stack:
            _run_rows(stack, task, 12, 2, [].append)
        assert info.value.args == ("rows", 6, 12)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # every child was reaped

    def test_caller_runs_again_only_the_ranges_that_raised_or_warned(self, recwarn):
        # four ranges of two rows: the second warns, the third is clean, the last raises
        calls = []  # the task's calls in this process; a child's calls stay in the child

        def task(lo, hi):
            calls.append((lo, hi))
            if lo == 2:
                warnings.warn("rows 2 and 3", KinkWarning)
            if lo == 6:
                raise CurvatureVanishes(1.5, 1e-9)
            return (bytes(range(lo, hi)),)

        parts = []
        with pytest.raises(CurvatureVanishes), ExitStack() as stack:
            _run_rows(stack, task, 8, 4, parts.append)
        assert calls == [(0, 2), (2, 4), (6, 8)]
        assert b"".join(parts) == bytes(range(6))
        assert [str(w.message) for w in recwarn] == ["rows 2 and 3"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # every child was reaped

    def test_warning_at_one_place_in_two_ranges_shows_once(self):
        # the child forks before range 0 runs here: it returns its range only
        # if this process showed the warning before the pool started
        def kink():
            warnings.warn("kink in every row", KinkWarning)

        def task(lo, hi):
            calls.append((lo, hi))
            kink()
            return (b"x" * (hi - lo),)

        for shown_before, calls_here in [(False, [(0, 2), (2, 4)]), (True, [(0, 2)])]:
            calls = []  # the task's calls in this process
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("default")  # once per place, through the module's registry
                if shown_before:
                    kink()
                with ExitStack() as stack:
                    _run_rows(stack, task, 4, 2, [].append)
            assert calls == calls_here
            assert [str(w.message) for w in caught] == ["kink in every row"]

    @pytest.mark.parametrize("processes", [2, 3])
    @pytest.mark.parametrize("outcome", ["returned", "raised", "cut short"])
    def test_children_are_reaped_after_the_last_write(self, monkeypatch, processes, outcome):
        events = []
        waitpid = os.waitpid

        def reap(pid, options):
            reaped = waitpid(pid, options)
            if reaped[0]:  # a call that finds the child still running reaps none
                events.append("reap")
            return reaped

        monkeypatch.setattr(os, "waitpid", reap)
        if outcome == "cut short":
            monkeypatch.setattr(g3pencil.mesh, "_child", lambda task, lo, hi, r, w: os._exit(9))

        def task(lo, hi):
            if outcome == "raised" and hi == 12:
                raise CurvatureVanishes(1.5, 1e-9)
            return (bytes(range(lo, hi)),)

        with suppress(CurvatureVanishes, ChildProcessError), ExitStack() as stack:
            try:
                _run_rows(stack, task, 12, processes, lambda part: events.append("write"))
            finally:
                events.append("last write")  # after _run_rows, with the stack still open
        assert "reap" not in events[: events.index("last write")]
        assert events.count("reap") == processes - 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # every child was reaped


class TestOnePassExport:
    @pytest.fixture
    def three_cpus(self, monkeypatch):
        # three processes share the rows even on a machine with fewer CPUs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("which", ["exotic", "fig1c"])
    def test_two_file_pass_matches_single_file_and_reference_output(
        self, three_cpus, small_pencil, monkeypatch, tmp_path, which, workers
    ):
        if which == "exotic":
            pencil, ns, nv = small_pencil, 4, 3
            s_values, v_values, coords = exotic_rows(monkeypatch)
        else:
            pencil, ns, nv = realize(config_from_dict(figure_doc("fig1c"))), 20, 6
            rows = sampled(pencil, ns, nv, tmp_path)
            s_values, v_values = [r[0] for r in rows[::nv]], [r[1] for r in rows[:nv]]
            coords = [c for r in rows for c in r[2:]]
        intervals = usable_domain(pencil.curve, pencil.marching, pencil.domain)
        both_obj, both_csv = tmp_path / "both.obj", tmp_path / "both.csv"
        write_quietly(pencil, ns, nv, both_obj, both_csv, workers=workers)
        write_quietly(pencil, ns, nv, obj=tmp_path / "one.obj", workers=workers)
        write_quietly(pencil, ns, nv, csv=tmp_path / "one.csv", workers=workers)
        obj = both_obj.read_bytes()
        assert obj == (tmp_path / "one.obj").read_bytes() == _reference_obj(s_values, nv, coords, intervals)
        assert (
            both_csv.read_bytes()
            == (tmp_path / "one.csv").read_bytes()
            == _reference_csv(s_values, v_values, coords)
        )
        assert obj.count(b"v ") == ns * nv

    @pytest.mark.parametrize("block_rows", [1, 2, 3, 64])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("which", ["exotic", "fig1c"])
    def test_face_text_at_block_process_and_patch_edges(
        self, three_cpus, small_pencil, monkeypatch, tmp_path, which, workers, block_rows
    ):
        # fig1c at 128 rows ends its first face patch at row 63: the last row
        # of the first 64-row block, and of the calling process's rows with 2
        # workers; the exotic grid has one cell per row
        if which == "exotic":
            pencil, ns, nv = small_pencil, 4, 2
            s_values, _, coords = exotic_rows(monkeypatch, ns, nv)
        else:
            pencil, ns, nv = realize(config_from_dict(figure_doc("fig1c"))), 128, 6
            rows = sampled(pencil, ns, nv, tmp_path)
            s_values, coords = [r[0] for r in rows[::nv]], [c for r in rows for c in r[2:]]
        intervals = usable_domain(pencil.curve, pencil.marching, pencil.domain)
        monkeypatch.setattr(g3pencil.mesh, "_BLOCK_ROWS", block_rows)
        write_quietly(pencil, ns, nv, obj=tmp_path / "m.obj", workers=workers)
        assert (tmp_path / "m.obj").read_bytes() == _reference_obj(s_values, nv, coords, intervals)

    def test_worker_error_in_a_two_file_pass_reaches_the_caller(
        self, three_cpus, small_pencil, monkeypatch, tmp_path
    ):
        def compile_rows(alpha, beta, gamma, v_values):
            def row(s, base, frame, out):
                # rows 2 and 3 (s = 1.5 and 2) belong to the third process
                if s >= 1.5:
                    raise CurvatureVanishes(1.5, 1e-9)
                out.extend([1.0] * 9)

            return row

        monkeypatch.setattr(g3pencil.mesh, "compile_surface_rows", compile_rows)
        with pytest.raises(CurvatureVanishes) as info:
            write_mesh(small_pencil, 4, 3, str(tmp_path / "m.obj"), str(tmp_path / "m.csv"), workers=3)
        assert (info.value.s, info.value.kappa) == (1.5, 1e-9)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # every child was reaped
        assert os.listdir(tmp_path) == []
