"""Pencil surfaces written as OBJ / CSV files, and curve polylines as CSV.

A surface is never held whole: one pass over contiguous ranges of grid
rows samples each range with the pencil's compiled row kernel and formats
its records at once.  The row kernel stores -0.0 as 0.0, so every signed
zero of a coordinate serializes as "0".

With ``workers`` above 1 the calling process runs the first range of rows
and forked child processes run the others; each child inherits the pencil
and sends its bytes back through a pipe, and the results are written in
row order.  Output bytes depend only on the configuration, never on the
worker count or on timing.
"""

from __future__ import annotations

import os
import sys
import warnings
from bisect import bisect_left
from contextlib import ExitStack
from itertools import chain
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


def _pool_size(workers: int, rows: int) -> int:
    """Processes that share ``rows`` grid rows when ``workers`` are asked for.

    At most the CPUs this process may run on and the row count, and 1 on
    a platform without fork.
    """
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


def _run_rows(task: Callable[[int, int], Sequence[bytes]], rows: int, workers: int, *sinks) -> None:
    """Pass the k-th bytes of ``task(lo, hi)`` over ``range(rows)`` to the k-th sink, in row order.

    The task returns one bytes per sink.  The rows split into one
    contiguous range per process of :func:`_pool_size`.  This process runs
    the first range; each other range runs in a forked child, which sends
    back its bytes, the warnings it raised and its error.  Warnings are
    issued here as if raised here, and the first error in row order is
    raised here.  Every child is reaped before this returns or raises.
    """
    n = _pool_size(workers, rows)
    bounds = [rows * k // n for k in range(n + 1)]
    children: list[tuple[int, BinaryIO]] = []  # (pid, read end of its pipe), in row order
    done = 0  # children whose whole result has been read
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            children.append(_start_child(task, lo, hi))
        for out in _blocks(task, bounds[0], bounds[1]):
            for sink, part in zip(sinks, out):
                sink(part)
        for _, pipe in children:
            _collect(pipe, sinks)
            done += 1
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


def _child(task, lo: int, hi: int, read_end: int, write_end: int) -> None:
    """Run rows [lo, hi) in a forked child, send the result and exit.

    The pipe carries an 8-byte length, a pickled (error, warnings, sizes)
    header of that length, then the task's bytes of each output in turn,
    ``sizes`` giving their lengths.  The child leaves through os._exit, so
    it never runs the parent's cleanup or flushes its files.
    """
    status = 1
    try:
        import pickle

        os.close(read_end)
        blocks, error = [], None
        with warnings.catch_warnings(record=True) as caught:
            try:
                blocks = list(_blocks(task, lo, hi))
            except Exception as exc:  # sent to the parent, which raises it
                error = (type(exc), exc.args, vars(exc))
        parts = list(zip(*blocks))  # per output, its blocks in row order
        notes = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
        sizes = [sum(map(len, p)) for p in parts]
        head = pickle.dumps((error, notes, sizes))
        with open(write_end, "wb") as pipe:
            pipe.write(len(head).to_bytes(8, "little"))
            pipe.write(head)
            for part in chain.from_iterable(parts):
                pipe.write(part)
        status = 0
    finally:
        os._exit(status)


def _collect(pipe: BinaryIO, sinks) -> None:
    """Issue one child's warnings, then raise its error or sink its bytes.

    A result cut short, by a child that died while it wrote, raises
    ChildProcessError.
    """
    import pickle

    size = int.from_bytes(pipe.read(8), "little")
    head = pipe.read(size)
    if size == 0 or len(head) < size:
        raise ChildProcessError("a row worker process ended without a result")
    error, notes, sizes = pickle.loads(head)
    _rewarn(notes)
    if error is not None:
        cls, args, state = error
        exc = cls.__new__(cls, *args)
        exc.__dict__.update(state)
        raise exc
    for sink, size in zip(sinks, sizes):
        while size:
            part = pipe.read(min(1 << 20, size))
            if not part:
                raise ChildProcessError("a row worker process ended before its whole result")
            sink(part)
            size -= len(part)


def _rewarn(notes) -> None:
    """Issue warnings recorded in a child through this process's filters.

    Each goes to the registry of the module that raised it, as
    warnings.warn would, so a warning shown once stays shown once.
    """
    for message, category, filename, lineno in notes:
        modules = list(sys.modules.values())
        module = next((m for m in modules if getattr(m, "__file__", None) == filename), None)
        name = None if module is None else module.__name__
        registry = None if module is None else vars(module).setdefault("__warningregistry__", {})
        warnings.warn_explicit(message, category, filename, lineno, name, registry)


# ---------------------------------------------------------------------------
# Surface files
# ---------------------------------------------------------------------------

_V_RECORD = "v %.17g %.17g %.17g\n"


def write_mesh(
    pencil: PencilSpec, ns: int, nv: int, obj: str | None = None, csv: str | None = None,
    *, workers: int = 1,
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
    joined from those strings.  Up to
    ``workers`` processes sample and format the records, a range of grid
    rows each, in one pass; the bytes are the same for any count.  When
    the pass fails, the files it opened are removed.
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

    files: list[BinaryIO] = []
    face_text: list[bytes] = []  # written after the last v record
    try:
        with ExitStack() as stack:
            for path in (obj, csv):
                if path is not None:
                    files.append(stack.enter_context(open(path, "wb")))
            if csv is not None:
                files[-1].write(b"s,v,x,y,z\n")
            sinks = [fh.write for fh in files]
            if obj is not None:
                sinks.append(face_text.append)
            _run_rows(rows, ns, workers, *sinks)
            if obj is not None:
                files[0].writelines(face_text)
    except BaseException:
        for fh in files:
            os.remove(fh.name)
        raise


def export_curve_csv(s_values: list[float], points: list[G3Vector], path: str) -> None:
    """CSV polyline of curve samples with header s,x,y,z."""
    lines = ["s,x,y,z"]
    for s, p in zip(s_values, points):
        lines.append(f"{_fmt(s)},{_fmt(p.x)},{_fmt(p.y)},{_fmt(p.z)}")
    data = "\n".join(lines) + "\n"
    with open(path, "wb") as fh:
        fh.write(data.encode("ascii"))
