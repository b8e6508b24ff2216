"""Output checks: each function returns a list of problems, empty when the
program's output agrees with the oracle."""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import oracle

# Coordinates are compared with a mixed tolerance; the program's Fresnel
# integrals are accurate to about 1e-10, far inside it.
COORD_TOL = 1e-8
# A verify report may not pass itself with a looser tolerance than this.
MAX_VERIFY_TOL = 1e-4
# Vertices per mesh compared with phi(s, v) besides the whole base line,
# and OBJ faces whose corners must lie in one grid cell.
SAMPLED_VERTICES = 64
SAMPLED_FACES = 256


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= COORD_TOL * (1.0 + abs(want))


def _grid(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * j / (n - 1) for j in range(n)]


def _parse_obj(data: bytes, problems: list[str]):
    """Vertex coordinates and face index lists, or None when malformed."""
    if not data.endswith(b"\n"):
        problems.append("OBJ does not end with a newline")
        return None
    head, sep, tail = data.partition(b"\nf ")
    vt = head.split()
    nvert = len(vt) // 4
    if len(vt) % 4 or vt[0::4].count(b"v") != nvert:
        problems.append("OBJ vertex block is not made of 'v x y z' records")
        return None
    ft = (b"f " + tail).split() if sep else []
    nface = len(ft) // 4
    if len(ft) % 4 or ft[0::4].count(b"f") != nface:
        problems.append("OBJ face block is not made of 'f a b c' records")
        return None
    if data.count(b"\n") != nvert + nface:
        problems.append("OBJ lines do not hold one record each")
        return None
    try:
        coords = [list(map(float, vt[k::4])) for k in (1, 2, 3)]
        corners = [list(map(int, ft[k::4])) for k in (1, 2, 3)]
    except ValueError as exc:
        problems.append(f"OBJ record does not parse: {exc}")
        return None
    return coords, corners


def _parse_csv(data: bytes, header: bytes, problems: list[str]):
    """Columns of a CSV file with the given header, or None when malformed."""
    ncol = header.count(b",") + 1
    if not data.startswith(header + b"\n") or not data.endswith(b"\n"):
        problems.append(f"CSV does not start with header {header.decode()} or lacks a final newline")
        return None
    rows = data[len(header) + 1 : -1].split(b"\n")
    if any(r.count(b",") != ncol - 1 for r in rows):
        problems.append(f"CSV row without {ncol} fields")
        return None
    cells = b",".join(rows).split(b",")
    try:
        return [list(map(float, cells[k::ncol])) for k in range(ncol)]
    except ValueError as exc:
        problems.append(f"CSV field does not parse: {exc}")
        return None


def _check_rows(pencil: oracle.Pencil, domain: dict, svals: list[float], problems: list[str]) -> None:
    """Row parameters lie in the domain, ascend, and avoid the guard band."""
    lo, hi = domain["s_min"], domain["s_max"]
    slack = 1e-12 * (1.0 + abs(lo) + abs(hi))
    if any(b <= a for a, b in zip(svals, svals[1:])):
        problems.append("row parameters s do not ascend")
    if svals and (svals[0] < lo - slack or svals[-1] > hi + slack):
        problems.append(f"row parameters leave [{lo}, {hi}]")
    inside = [s for s in svals if pencil.curve.kappa(s) < oracle.FRAME_GUARD * (1 - 1e-9)]
    if inside:
        problems.append(f"{len(inside)} rows inside the curvature guard band, e.g. s = {inside[0]}")


def _check_points(pencil, got: dict, problems: list[str]) -> None:
    """got maps (s, v) to a vertex; all are compared with phi(s, v)."""
    keys = list(got)
    for key, want in zip(keys, pencil.points(keys)):
        have = got[key]
        if not all(_close(h, w) for h, w in zip(have, want)):
            problems.append(f"vertex at (s, v) = {key} is {have}, expected {want}")
            return


def check_mesh(path: Path, doc: dict, ns: int, nv: int, rng: random.Random) -> list[str]:
    """An OBJ or CSV surface export against the oracle's phi(s, v)."""
    problems: list[str] = []
    try:
        data = path.read_bytes()
    except OSError as exc:
        return [f"missing output: {exc}"]
    pencil = oracle.pencil_from_config(doc)
    dom = doc["domain"]
    vgrid = _grid(dom["v_min"], dom["v_max"], nv)
    n = ns * nv
    if path.suffix == ".obj":
        parsed = _parse_obj(data, problems)
        if parsed is None:
            return problems
        (xs, ys, zs), corners = parsed
        nface = len(corners[0])
        if len(xs) != n:
            return problems + [f"{len(xs)} vertices, expected {ns}x{nv} = {n}"]
        if not 0 < nface <= 2 * (ns - 1) * (nv - 1):
            problems.append(f"{nface} faces, expected 1 to {2 * (ns - 1) * (nv - 1)}")
        lo = min(min(c) for c in corners)
        hi = max(max(c) for c in corners)
        if lo < 1 or hi > n:
            problems.append(f"face index range [{lo}, {hi}] outside [1, {n}]")
        for f in (rng.randrange(nface) for _ in range(SAMPLED_FACES if nface else 0)):
            cells = [divmod(c[f] - 1, nv) for c in corners]
            rows, cols = {i for i, _ in cells}, {j for _, j in cells}
            if len(set(cells)) != 3 or max(rows) - min(rows) > 1 or max(cols) - min(cols) > 1:
                problems.append(f"face {f + 1} joins grid points {cells} outside one grid cell")
                break
        vcol = None
        scol = None
    else:
        cols = _parse_csv(data, b"s,v,x,y,z", problems)
        if cols is None:
            return problems
        scol, vcol, xs, ys, zs = cols
        if len(xs) != n:
            return problems + [f"{len(xs)} rows, expected {ns}x{nv} = {n}"]
    if not all(map(math.isfinite, xs + ys + zs)):
        return problems + ["non-finite coordinate"]
    if vcol is not None:
        if any(abs(vcol[k] - vgrid[k % nv]) > 1e-12 * (1 + abs(vgrid[k % nv])) for k in range(n)):
            problems.append("v column is not the uniform v grid in s-major order")
        if any(scol[k] != scol[k - k % nv] for k in range(n)):
            problems.append("s column is not constant along each row")
    j0 = min(range(nv), key=lambda j: abs(vgrid[j] - pencil.v0))
    if vgrid[j0] != pencil.v0:
        return problems + ["base isoparameter v0 is not on the v grid"]
    # On the base line x = s exactly, since alpha vanishes there.
    svals = [xs[i * nv + j0] for i in range(ns)]
    if scol is not None and any(scol[i * nv] != s for i, s in enumerate(svals)):
        problems.append("base-line x differs from the row parameter s")
    _check_rows(pencil, dom, svals, problems)
    picks = {(i, j0) for i in range(ns)}
    picks.update((rng.randrange(ns), rng.randrange(nv)) for _ in range(SAMPLED_VERTICES))
    got = {}
    for i, j in sorted(picks):
        k = i * nv + j
        got[(svals[i], vgrid[j])] = (xs[k], ys[k], zs[k])
    _check_points(pencil, got, problems)
    return problems


def check_curve_csv(path: Path, curve: oracle.Curve, s_range: tuple[float, float], n: int) -> list[str]:
    """A curve polyline s,x,y,z against r(s) on the uniform s grid."""
    problems: list[str] = []
    try:
        data = path.read_bytes()
    except OSError as exc:
        return [f"missing output: {exc}"]
    cols = _parse_csv(data, b"s,x,y,z", problems)
    if cols is None:
        return problems
    ss, xs, ys, zs = cols
    if len(ss) != n:
        return problems + [f"{len(ss)} curve samples, expected {n}"]
    if not all(map(math.isfinite, ss + xs + ys + zs)):
        return problems + ["non-finite coordinate"]
    grid = _grid(s_range[0], s_range[1], n)
    if any(abs(s - g) > 1e-12 * (1 + abs(g)) for s, g in zip(ss, grid)):
        problems.append("s column is not the uniform grid over the figure range")
    if any(x != s for x, s in zip(xs, ss)):
        problems.append("x differs from s")
    pos = curve.positions(ss)
    for s, y, z in zip(ss, ys, zs):
        if not (_close(y, pos[s].real) and _close(z, pos[s].imag)):
            problems.append(f"curve point at s = {s} is ({y}, {z}), expected {pos[s]}")
            break
    return problems


def check_verify(result: dict, doc: dict, samples: int) -> list[str]:
    """Exit status, classification and invariant values of a verify report."""
    try:
        report = json.loads(result["stdout"])
        tol = float(report["tolerance"])
        svals = [p["s"] for p in report["samples"]]
        got = [p["lambda_hat"] for p in report["samples"]]
        flagged = [p["flagged"] for p in report["samples"]]
        mean = float(report["mean_lambda"])
        deviation = float(report["max_abs_deviation"])
        classification = report["classification"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"no verify report on stdout ({exc}); stderr: {result['stderr'][-300:]}"]
    if not 0.0 < tol <= MAX_VERIFY_TOL:
        return [f"report tolerance {tol} outside (0, {MAX_VERIFY_TOL}]"]
    if len(svals) != samples:
        return [f"{len(svals)} samples, expected {samples}"]
    problems: list[str] = []
    if any(flagged):
        problems.append(f"{sum(flagged)} samples flagged degenerate; the oracle's normal never vanishes")
        return problems
    pencil = oracle.pencil_from_config(doc)
    _check_rows(pencil, doc["domain"], svals, problems)
    want = oracle.verdict(pencil, svals, tol)
    expected_code = 1 if want.classification == "not-d-type" else 0
    if result["code"] != expected_code:
        problems.append(f"exit status {result['code']}, expected {expected_code}")
    if classification != want.classification:
        problems.append(f"classified {classification}, expected {want.classification}")
    if not abs(mean - want.mean) <= tol:
        problems.append(f"mean_lambda {mean}, expected {want.mean} within {tol}")
    if not abs(deviation - want.deviation) <= 2 * tol:
        problems.append(f"max_abs_deviation {deviation}, expected {want.deviation} within {2 * tol}")
    worst = max(zip((abs(g - w) for g, w in zip(got, want.values)), svals))
    if not worst[0] <= tol:
        problems.append(f"lambda_hat off by {worst[0]:.3g} at s = {worst[1]:.6g} (tolerance {tol})")
    return problems


def same_bytes(a: Path, b: Path) -> list[str]:
    try:
        if a.read_bytes() == b.read_bytes():
            return []
    except OSError as exc:
        return [f"missing output: {exc}"]
    return [f"{a.name} and {b.name} differ"]
