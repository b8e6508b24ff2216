"""Pencil surfaces written as OBJ / CSV files, and curve polylines as CSV.

A surface is never held whole: one pass over contiguous ranges of grid
rows samples each range with the pencil's compiled row kernel and formats
its records at once.  The row kernel stores -0.0 as 0.0, so every signed
zero of a coordinate serializes as "0".

With ``workers`` above 1, or None and enough grid points, the calling
process runs the first range of rows and forked child processes run the
others; each child inherits the pencil and sends its bytes back through a
pipe, and the results are written in row order.  A child whose rows raised
or warned sends no bytes, and the calling process runs its range again, so
errors and warnings come up there as with one process, at the cost of
computing that range twice.  Output bytes depend only on the
configuration, never on the worker count or on timing.
"""

from __future__ import annotations

import os
import warnings
from bisect import bisect_left
from contextlib import ExitStack, suppress
from itertools import chain, count
from typing import BinaryIO, Callable, Sequence

from .curve import frenet, point, spread_s_values, uniform_grid
from .errors import GridTooCoarse
from .exprjet import compile_surface_rows
from .g3core import G3Vector
from .pencil import PencilSpec, usable_domain


def _fmt(x: float) -> str:
    if x == 0.0:
        x = 0.0  # canonicalize -0.0
    return format(x, ".17g")


# ---------------------------------------------------------------------------
# Row pool
# ---------------------------------------------------------------------------

# Rows per task call: bounds the v and CSV bytes the calling process holds
# at once.  The OBJ face text is held until the last v record is written.
_BLOCK_ROWS = 64

# Grid points per process that pay for a fork: two processes broke even with one
# at 5000 to 7000 points writing one output and 3000 to 5000 writing two (fig1c).
_MIN_POINTS = 3500


def _pool_size(workers: int | None, rows: int, points: int) -> int:
    """Processes that share ``rows`` grid rows of ``points`` grid points in all.

    At most ``workers`` (None: one per ``_MIN_POINTS`` points), the CPUs
    this process may run on and the row count; 1 without fork.
    """
    workers = max(1, points // _MIN_POINTS) if workers is None else workers
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(workers, cpus, rows))


def _blocks(task: Callable[[int, int], Sequence[bytes]], lo: int, hi: int):
    return (task(a, min(a + _BLOCK_ROWS, hi)) for a in range(lo, hi, _BLOCK_ROWS))


def _run_rows(task: Callable[[int, int], Sequence[bytes]], rows: int, processes: int, *sinks) -> None:
    """Pass the k-th bytes of ``task(lo, hi)`` over ``range(rows)`` to the k-th sink, in row order.

    The task returns one bytes per sink.  The rows split into
    ``processes`` contiguous ranges.  This process runs the first range;
    each other range runs in a forked child, which sends back its bytes.
    A range that no child returned, because its rows raised or warned
    there, runs again in this process, so its error and warnings come up
    here as with one process; such a range is computed twice.  Every
    child is reaped before this returns or raises.
    """
    bounds = [rows * k // processes for k in range(processes + 1)]
    children: list[tuple[int, BinaryIO]] = []  # (pid, read end of its pipe), in row order
    done = 0  # children whose whole result has been read
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            children.append(_start_child(task, lo, hi))
        for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            returned = k > 0 and _collect(children[k - 1][1], sinks)
            done = k  # children[:k] have sent their whole result
            if not returned:
                for out in _blocks(task, lo, hi):
                    for sink, part in zip(sinks, out):
                        sink(part)
    finally:
        for k, (pid, pipe) in enumerate(children):
            pipe.close()
            if k >= done:  # still working or blocked on its pipe
                import signal

                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _start_child(task, lo: int, hi: int) -> tuple[int, BinaryIO]:
    """Fork a child that runs rows [lo, hi); its pid and the read end of its pipe."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
        if pid == 0:
            _child(task, lo, hi, read_end, write_end)  # never returns
    except BaseException:
        os.close(read_end)
        raise
    finally:
        os.close(write_end)
    return pid, open(read_end, "rb")


# The first byte a child sends: its bytes follow, or the caller runs its rows
_RETURNED, _RUN_AGAIN = b"r", b"a"


def _child(task, lo: int, hi: int, read_end: int, write_end: int) -> None:
    """Run rows [lo, hi) in a forked child, send the result and exit.

    The pipe carries _RETURNED, the 8-byte size of each output and the
    bytes of each in turn, or _RUN_AGAIN alone when the rows raised or
    warned under the filters the child inherited.  The child leaves
    through os._exit, so it never runs the parent's cleanup or flushes.
    """
    status = 1
    try:
        os.close(read_end)
        result = [_RUN_AGAIN]
        # an error is raised, and a warning issued, when the caller runs these rows again
        with warnings.catch_warnings(record=True) as caught, suppress(Exception):
            parts = list(zip(*_blocks(task, lo, hi)))  # per output, its blocks in row order
            if not caught:
                sizes = [sum(map(len, p)).to_bytes(8, "little") for p in parts]
                result = [_RETURNED, *sizes, *chain(*parts)]
        with open(write_end, "wb") as pipe:
            pipe.writelines(result)
        status = 0
    finally:
        os._exit(status)


def _collect(pipe: BinaryIO, sinks) -> bool:
    """Sink one child's bytes; False if it sent none, for the caller to run its rows.

    A result cut short, by a child that died while it wrote, raises
    ChildProcessError.
    """

    def read(size: int) -> bytes:
        data = pipe.read(size)
        if len(data) < size:
            raise ChildProcessError("a row worker process ended before its whole result")
        return data

    if read(1) == _RUN_AGAIN:
        return False
    for sink, size in zip(sinks, [int.from_bytes(read(8), "little") for _ in sinks]):
        for done in range(0, size, 1 << 20):
            sink(read(min(1 << 20, size - done)))
    return True


# ---------------------------------------------------------------------------
# Surface files
# ---------------------------------------------------------------------------

_V_RECORD = "v %.17g %.17g %.17g\n"


def write_mesh(
    pencil: PencilSpec, ns: int, nv: int, obj: str | None = None, csv: str | None = None,
    *, workers: int | None = 1,
) -> None:
    """Sample the surface on a uniform grid and write it as OBJ to ``obj`` and as CSV to ``csv``.

    The s grid spans the pencil's :func:`usable_domain` (with a warning
    when guard bands or domain gaps are excised) and gives every usable
    interval at least two rows; the v grid spans [v_min, v_max]
    uniformly.  Each row takes one curve point and one frame and runs the
    pencil's compiled row kernel.

    The OBJ holds v records in row-major order, then the two triangles of
    each grid cell, the lower left first, with consistent winding; a cell
    whose rows lie in two usable intervals has none, so each interval is a
    face patch of its own.  The CSV has
    the header s,v,x,y,z and one row per vertex.  Every number has 17
    significant digits.  Each coordinate is formatted once: with both
    files, the CSV reuses the text of the OBJ's v records.  Each vertex
    number is formatted once per range of rows, and the face records are
    joined from those strings.  Up to ``workers`` processes (None: see
    :func:`_pool_size`) sample and format the records, a range of grid
    rows each, in one pass; the bytes are the same for any count.  Each
    file from :func:`_open_output` replaces its target if the pass succeeds.
    """
    if nv < 2:
        raise ValueError(f"a surface grid needs at least two v values, got {nv}")
    curve = pencil.curve
    ms = pencil.marching
    d = pencil.domain
    intervals = usable_domain(curve, ms, d)
    if intervals != [(d.s_min, d.s_max)]:
        warnings.warn(
            "grid re-spans usable sub-intervals "
            + ", ".join(f"[{a:.6g}, {b:.6g}]" for a, b in intervals)
            + " (guard bands excised)",
            stacklevel=2,
        )
    if ns < 2 * len(intervals):
        raise GridTooCoarse(
            f"{ns} rows cannot give each of the {len(intervals)} usable s intervals two rows"
        )
    s_values = spread_s_values(intervals, ns)
    v_values = uniform_grid(d.v_min, d.v_max, nv)
    row_points = compile_surface_rows(ms.alpha, ms.beta, ms.gamma, v_values)
    # a CSV row takes x, y and z of each vertex as numbers, or as the text of its v record
    xyz, per_row = ("%.17g,%.17g,%.17g", 3 * nv) if obj is None else ("%s", nv)
    columns = [f",{_fmt(v)},{xyz}\n" for v in v_values]
    # the last row of each usable interval but the last: no face joins it to the next row
    patch_ends = {
        bisect_left(s_values, 0.5 * (b + a)) - 1 for (_, b), (a, _) in zip(intervals, intervals[1:])
    }

    def rows(lo: int, hi: int) -> list[bytes]:
        values: list[float] = []  # x, y, z per vertex, row major; canonical, so no -0.0
        for s in s_values[lo:hi]:
            row_points(s, point(curve, s), frenet(curve, s), values)
        out = []
        if obj is not None:
            text = _V_RECORD * (nv * (hi - lo)) % tuple(values)
            out.append(text.encode("ascii"))
            if csv is not None:
                values = text[2:-1].replace(" ", ",").split("\nv,")  # "x,y,z" per vertex
        if csv is not None:
            parts = []
            for k, s in enumerate(map(_fmt, s_values[lo:hi])):
                parts.append((s + s.join(columns)) % tuple(values[k * per_row : (k + 1) * per_row]))
            out.append("".join(parts).encode("ascii"))
        if obj is not None:
            top = min(hi, ns - 1)  # the last row that a face of rows [lo, hi) reaches
            # the vertex numbers of rows lo..top, each formatted once
            labels = list(map(str, range(lo * nv + 1, (top + 1) * nv + 1)))
            # the two face records of each cell of a row; the vertex numbers go at the odd indices
            faces = ["f ", "", " ", "", " ", "", "\nf ", "", " ", "", " ", "", "\n"] * (nv - 1)
            parts = []
            for i in range(lo, top):
                if i in patch_ends:
                    continue  # rows i and i + 1 lie in different usable intervals
                # cell j of row i: a = i*nv + j + 1, b = a + nv, c = b + 1, d = a + 1
                k = (i - lo) * nv  # labels[k] is a of cell 0
                faces[1::13] = labels[k : k + nv - 1]  # a
                faces[3::13] = faces[7::13] = labels[k + nv : k + 2 * nv - 1]  # b
                faces[9::13] = labels[k + nv + 1 : k + 2 * nv]  # c
                faces[5::13] = faces[11::13] = labels[k + 1 : k + nv]  # d
                parts.append("".join(faces))
            out.append("".join(parts).encode("ascii"))
        return out

    outputs: list[tuple[BinaryIO, str | None]] = []  # each file, and the file it replaces or None
    face_text: list[bytes] = []  # written after the last v record
    try:
        with ExitStack() as stack:
            for path in (obj, csv):
                if path is not None:
                    fh, target = _open_output(path)
                    outputs.append((stack.enter_context(fh), target))
            if csv is not None:
                outputs[-1][0].write(b"s,v,x,y,z\n")
            sinks = [fh.write for fh, _ in outputs]
            if obj is not None:
                sinks.append(face_text.append)
            _run_rows(rows, ns, _pool_size(workers, ns, ns * nv), *sinks)
            if obj is not None:
                outputs[0][0].writelines(face_text)
        for fh, target in outputs:
            if target:
                os.replace(fh.name, target)
    except BaseException:
        for fh, target in outputs:
            with suppress(OSError):  # a failed removal never hides the build's error
                if target:
                    os.remove(fh.name)
        raise


def _open_output(path: str) -> tuple[BinaryIO, str | None]:
    """An open temporary file beside the file ``path`` resolves to, and that file.

    A device, a FIFO, a descriptor path or a directory that takes no new
    file is opened in place instead, with None.
    """
    target = os.path.realpath(path)
    descriptor = os.path.abspath(path).startswith(("/dev/fd/", "/dev/std", "/proc/"))
    if not descriptor and (os.path.isfile(target) or not os.path.lexists(target)):
        with suppress(OSError):  # a missing or read-only directory: open the path itself
            for k in count():
                with suppress(FileExistsError):  # a name left by a pass that was killed
                    return open(f"{target}.{os.getpid()}.{k}.tmp", "xb"), target
    return open(path, "wb"), None


def export_curve_csv(s_values: list[float], points: list[G3Vector], path: str) -> None:
    """CSV polyline of curve samples with header s,x,y,z."""
    lines = ["s,x,y,z"]
    for s, p in zip(s_values, points):
        lines.append(f"{_fmt(s)},{_fmt(p.x)},{_fmt(p.y)},{_fmt(p.z)}")
    data = "\n".join(lines) + "\n"
    with open(path, "wb") as fh:
        fh.write(data.encode("ascii"))
