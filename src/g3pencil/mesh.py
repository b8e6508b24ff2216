"""Grid sampling of pencil surfaces and OBJ / CSV export.

Vertices are stored row major in s-major order (all v values of the first
s row, then the next row).  Output bytes depend only on the configuration,
never on timing: rows are computed one after another by a compiled row
kernel and written row by row in index order.  Signed zeros serialize as
"0".
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain

from .curve import frenet, point, spread_s_values, uniform_grid, usable_s_intervals
from .errors import GridTooCoarse, ZeroVector
from .exprjet import compile_surface_rows
from .g3core import G3Vector, normalize_isotropic
from .pencil import PencilSpec, surface_normal


@dataclass
class Mesh:
    ns: int
    nv: int
    s_values: list[float]
    v_values: list[float]
    vertices: list[G3Vector]  # row major, s-major order; len == ns * nv
    normals: list[G3Vector | None] | None = None  # None entries are degenerate


def _fmt(x: float) -> str:
    if x == 0.0:
        x = 0.0  # canonicalize -0.0
    return format(x, ".17g")


def mesh_from_pencil(
    pencil: PencilSpec, ns: int, nv: int, *, with_normals: bool = False
) -> Mesh:
    """Sample the surface on a uniform grid.

    The s grid respects guard bands around frame singularities and
    expression domain gaps (with a warning when anything is excised) and
    gives every usable interval at least two rows; the v grid spans
    [v_min, v_max] uniformly.  Each row takes one frame and one curve
    point and runs the pencil's compiled row kernel.
    """
    curve = pencil.curve
    ms = pencil.marching
    d = pencil.domain
    v_mid = 0.5 * (d.v_min + d.v_max)

    def probe(s: float) -> None:
        # Surface expressions must evaluate across the v range; probing the
        # midline and the far edge catches domain gaps such as square roots
        # going negative.
        pencil.point(s, v_mid)
        pencil.point(s, d.v_max)

    intervals = usable_s_intervals(curve, d.s_min, d.s_max, extra_check=probe)
    if not intervals:
        raise ZeroVector("no usable s interval in the requested domain")
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
    vertices: list[G3Vector] = []
    normals: list[G3Vector | None] | None = [] if with_normals else None
    for s in s_values:
        fr = frenet(curve, s)
        vertices += row_points(s, point(curve, s), fr)
        if normals is not None:
            for v in v_values:
                eta = surface_normal(curve, ms, s, v, frame=fr)
                try:
                    normals.append(normalize_isotropic(eta))
                except ZeroVector:
                    normals.append(None)
    return Mesh(
        ns=len(s_values),
        nv=nv,
        s_values=s_values,
        v_values=v_values,
        vertices=vertices,
        normals=normals,
    )


def _coords(points: list[G3Vector]) -> tuple[float, ...]:
    # x + 0.0 turns -0.0 into 0.0 and leaves every other value unchanged
    return tuple([c + 0.0 for p in points for c in (p.x, p.y, p.z)])


_V_RECORD = "v %.17g %.17g %.17g\n"
_VN_RECORD = "vn %.17g %.17g %.17g\n"
_VN_DEGENERATE = "vn 0 0 0\n"


def export_obj(mesh: Mesh, path: str) -> None:
    """Wavefront OBJ: v records in row-major order, quads split in two.

    Each grid cell emits the lower-left triangle first, then the upper
    right, with consistent winding.  When normals are present they are
    written as vn records (degenerate ones as "vn 0 0 0") and faces index
    them alongside the vertices.  Records are written one grid row at a
    time.
    """
    if not mesh.vertices:
        raise ValueError("refusing to export an empty mesh")
    nv = mesh.nv
    has_normals = mesh.normals is not None
    if has_normals:
        faces = "f %d//%d %d//%d %d//%d\nf %d//%d %d//%d %d//%d\n" * (nv - 1)
    else:
        faces = "f %d %d %d\nf %d %d %d\n" * (nv - 1)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for i in range(0, len(mesh.vertices), nv):
            row = mesh.vertices[i : i + nv]
            fh.write(_V_RECORD * len(row) % _coords(row))
        if has_normals:
            for i in range(0, len(mesh.normals), nv):
                row = mesh.normals[i : i + nv]
                records = "".join(_VN_DEGENERATE if q is None else _VN_RECORD for q in row)
                fh.write(records % _coords([q for q in row if q is not None]))
        for i in range(mesh.ns - 1):
            # cell j of row i: a = i*nv + j + 1, b = a + nv, c = b + 1, d = a + 1
            a = range(i * nv + 1, (i + 1) * nv)
            b = range((i + 1) * nv + 1, (i + 2) * nv)
            c = range((i + 1) * nv + 2, (i + 2) * nv + 1)
            d = range(i * nv + 2, (i + 1) * nv + 1)
            if has_normals:
                cells = zip(a, a, b, b, d, d, b, b, c, c, d, d)
            else:
                cells = zip(a, b, d, b, c, d)
            fh.write(faces % tuple(chain.from_iterable(cells)))


def export_csv(mesh: Mesh, path: str) -> None:
    """CSV with header s,v,x,y,z; one row per vertex, 17 significant digits.

    Records are written one grid row at a time; each s and v value is
    formatted once.
    """
    if not mesh.vertices:
        raise ValueError("refusing to export an empty mesh")
    nv = mesh.nv
    columns = [f",{_fmt(v)},%.17g,%.17g,%.17g\n" for v in mesh.v_values]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("s,v,x,y,z\n")
        for i, s in enumerate(mesh.s_values):
            s_text = _fmt(s)
            records = s_text + s_text.join(columns)
            fh.write(records % _coords(mesh.vertices[i * nv : (i + 1) * nv]))


def export_curve_csv(s_values: list[float], points: list[G3Vector], path: str) -> None:
    """CSV polyline of curve samples with header s,x,y,z."""
    lines = ["s,x,y,z"]
    for s, p in zip(s_values, points):
        lines.append(f"{_fmt(s)},{_fmt(p.x)},{_fmt(p.y)},{_fmt(p.z)}")
    data = "\n".join(lines) + "\n"
    with open(path, "wb") as fh:
        fh.write(data.encode("ascii"))
