"""Pencil surfaces written as OBJ / CSV files, and curve polylines as CSV.

A surface is never held whole: one pass over contiguous ranges of grid
rows samples each range with the pencil's compiled row kernel and formats
its records at once.  The row kernel stores -0.0 as 0.0, so every signed
zero of a coordinate serializes as "0".

With ``workers`` above 1, or None and enough grid points, the calling
process runs the first range of rows and forked child processes run the
others; each child inherits the pencil and sends its bytes back through a
pipe, and the results are written in row order.  The caller computes each
range that no child returned, as when a fork failed or a child's rows
raised or gave a warning that the caller's filters would show, so errors
and warnings come up there as with one process.  One exit stack owns a
pass's files and children, and reaps these after the last write.  Output
bytes depend only on the configuration, never on workers or timing.
"""

from __future__ import annotations

import os
import warnings
from bisect import bisect_left
from contextlib import ExitStack, contextmanager, suppress
from itertools import chain, count
from typing import BinaryIO, Callable, Iterator, Sequence

from .curve import frame_parts, point_parts, spread_s_values, uniform_grid
from .errors import GridTooCoarse
from .exprjet import compile_surface_rows
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


def _run_rows(stack: ExitStack, task, rows: int, processes: int, *sinks) -> None:
    """Pass the k-th bytes of ``task(lo, hi)`` over ``range(rows)`` to the k-th sink, in row order.

    The task returns one bytes per sink.  The rows split into
    ``processes`` contiguous ranges.  This process runs the first range,
    and each other range that no forked child returned: one whose pipe or
    fork failed, or whose child sent nothing, so an error or warning of
    its rows comes up here as with one process.  Only a result cut short
    once its bytes began to arrive raises ChildProcessError.  ``stack``
    reaps each child when it closes, after the caller's last write, and
    kills one still running first.
    """
    bounds = [rows * k // processes for k in range(processes + 1)]
    pipes = [None, *(_start_child(stack, task, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:]))]
    for pipe, lo, hi in zip(pipes, bounds, bounds[1:]):
        if not _collect(pipe, sinks):
            for out in _blocks(task, lo, hi):
                for sink, part in zip(sinks, out):
                    sink(part)


def _start_child(stack: ExitStack, task, lo: int, hi: int) -> BinaryIO | None:
    """Fork a child that runs rows [lo, hi), to be stopped when ``stack`` closes; its pipe's read end.

    None, with no child, if ``os.pipe`` or ``os.fork`` raises OSError.
    """
    try:
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
    except OSError:
        return None
    stack.callback(_stop, pid)
    return stack.enter_context(open(read_end, "rb"))


def _stop(pid: int) -> None:
    # A child that has ended is reaped, never signalled; one still running, and so still holding
    # its pid, has nothing left to do once its whole result was read.  Where SIGCHLD is ignored,
    # the system reaps each child as it ends, and waitpid finds none.
    with suppress(ChildProcessError):
        if os.waitpid(pid, os.WNOHANG) == (0, 0):
            with suppress(ProcessLookupError):  # some systems refuse a signal to an exiting child
                os.kill(pid, 9)  # SIGKILL, which POSIX numbers 9: the signal module costs an import
            os.waitpid(pid, 0)


def _child(task, lo: int, hi: int, read_end: int, write_end: int) -> None:
    """Run rows [lo, hi) in a forked child, send the result and exit.

    The pipe carries the 8-byte size of each output and the bytes of each
    in turn, or nothing when the rows raised or issued a warning that the
    filters and registries it inherited would show.  Only ``showwarning``
    is replaced, as a change to the filters would clear those registries.
    The child leaves through os._exit, so it never runs the parent's
    cleanup or flushes, nor restores anything.
    """
    try:
        os.close(read_end)
        shown = []
        warnings.showwarning = lambda *warning: shown.append(warning)
        parts = list(zip(*_blocks(task, lo, hi)))  # per output, its blocks in row order
        if not shown:
            sizes = [sum(map(len, p)).to_bytes(8, "little") for p in parts]
            with open(write_end, "wb") as pipe:
                pipe.writelines([*sizes, *chain(*parts)])
    finally:
        os._exit(0)


def _collect(pipe: BinaryIO | None, sinks) -> bool:
    """Sink one child's bytes; False, for the caller to run its rows, if it sent none.

    A missing pipe, or one at its end, has none.  A result cut short, by a
    child that died while it wrote, raises ChildProcessError.
    """
    if pipe is None or not pipe.peek(1):
        return False

    def read(size: int) -> bytes:
        data = pipe.read(size)
        if len(data) < size:
            raise ChildProcessError("a row worker process ended before its whole result")
        return data

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
    file from :func:`_output` replaces its target if the pass succeeds.
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
            row_points(s, point_parts(curve, s), frame_parts(curve, s), values)
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

    face_text: list[bytes] = []  # written after the last v record
    with ExitStack() as stack:
        files = [stack.enter_context(_output(path)) for path in (obj, csv) if path is not None]
        if csv is not None:
            files[-1].write(b"s,v,x,y,z\n")
        sinks = [fh.write for fh in files]
        if obj is not None:
            sinks.append(face_text.append)
        _run_rows(stack, rows, ns, _pool_size(workers, ns, ns * nv), *sinks)
        if obj is not None:
            files[0].writelines(face_text)


@contextmanager
def _output(path: str) -> Iterator[BinaryIO]:
    """A temporary file beside the file ``path`` resolves to, renamed over it if the block succeeds.

    It is removed if the block fails.  A device, a FIFO, a descriptor path
    or a directory that takes no new file is written in place instead.
    """
    target = os.path.realpath(path)
    descriptor = os.path.abspath(path).startswith(("/dev/fd/", "/dev/std", "/proc/"))
    fh = None
    if not descriptor and (os.path.isfile(target) or not os.path.lexists(target)):
        with suppress(OSError):  # a missing or read-only directory: open the path itself
            for k in count():
                with suppress(FileExistsError):  # a name left by a pass that was killed
                    fh = open(f"{target}.{os.getpid()}.{k}.tmp", "xb")
                    break
    if fh is None:
        with open(path, "wb") as fh:
            yield fh
        return
    try:
        with fh:
            yield fh
        os.replace(fh.name, target)
    except BaseException:
        with suppress(OSError):  # a failed removal never hides the pass's error
            os.remove(fh.name)
        raise


def export_curve_csv(s_values: list[float], points: list[tuple], path: str) -> None:
    """CSV polyline of the curve points (x, y, z) at ``s_values``, with header s,x,y,z,
    written as :func:`_output` writes."""
    lines = ["s,x,y,z"]
    for s, (x, y, z) in zip(s_values, points):
        lines.append(f"{_fmt(s)},{_fmt(x)},{_fmt(y)},{_fmt(z)}")
    data = "\n".join(lines) + "\n"
    with _output(path) as fh:
        fh.write(data.encode("ascii"))
