"""Command line surface: frenet, classify, build, verify, reproduce.

Every subcommand takes a configuration document (see g3pencil.config)
except reproduce, which emits the built-in example figure datasets.
Errors print one machine-readable line to stderr in the form
``error: <Category>: <detail>`` and exit nonzero; warnings print one line
each in the form ``warning: <Category>: <message>``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings

from . import figures
from .config import build_curve, load_config, realize
from .curve import classify_curve, darboux, frenet, point, uniform_grid
from .errors import G3PencilError
from .g3core import G3Vector
from .mesh import export_curve_csv, export_mesh, mesh_from_pencil
from .verify import dtype_report

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_ERROR = 2

WORKERS_HELP = (
    "processes that sample and format the grid rows (default 1; at most the "
    "usable CPUs and the row count); the output is the same for any N"
)


def _vec(v: G3Vector) -> str:
    return f"({v.x:.12g}, {v.y:.12g}, {v.z:.12g})"


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        ns_text, nv_text = text.lower().split("x")
        ns, nv = int(ns_text), int(nv_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected NSxNV, got {text!r}")
    if ns < 2 or nv < 2:
        raise argparse.ArgumentTypeError("grid counts must be at least 2")
    return ns, nv


def _worker_count(text: str) -> int:
    try:
        workers = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}")
    if workers < 1:
        raise argparse.ArgumentTypeError("the worker count must be at least 1")
    return workers


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0.0 < tol < math.inf:
        raise argparse.ArgumentTypeError("the tolerance must be a finite number above 0")
    return tol


def _one_line_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {category.__name__}: {message}\n"


def _sign_value(text: str) -> float:
    return 1.0 if text == "+" else -1.0


def _cmd_frenet(args) -> int:
    cfg = load_config(args.config)
    curve = build_curve(cfg.curve, as_printed=args.as_printed)
    fr = frenet(curve, args.at)
    dd = darboux(fr)
    print(f"s = {fr.s:.12g}")
    print(f"t = {_vec(fr.t)}")
    print(f"n = {_vec(fr.n)}")
    print(f"b = {_vec(fr.b)}")
    print(f"kappa = {fr.kappa:.12g}")
    print(f"tau = {fr.tau:.12g}")
    print(f"E0 = {_vec(dd.e0)}")
    return EXIT_OK


def _cmd_classify(args) -> int:
    cfg = load_config(args.config)
    curve = build_curve(cfg.curve, as_printed=args.as_printed)
    cls = classify_curve(curve, (cfg.domain.s_min, cfg.domain.s_max))
    if cls.constant is None:
        print(cls.kind)
    else:
        print(f"{cls.kind} (constant = {cls.constant:.12g})")
    return EXIT_OK


def _cmd_build(args) -> int:
    cfg = load_config(args.config)
    pencil = realize(cfg, as_printed=args.as_printed, sign=args.sign)
    ns, nv = args.grid if args.grid else (cfg.grid.ns, cfg.grid.nv)
    mesh = mesh_from_pencil(pencil, ns, nv, workers=args.workers)
    kind = "csv" if args.output.endswith(".csv") else "obj"
    export_mesh(mesh, **{kind: args.output}, workers=args.workers)
    print(f"wrote {args.output} ({mesh.ns}x{mesh.nv} vertices)")
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = load_config(args.config)
    pencil = realize(cfg, as_printed=args.as_printed, sign=args.sign)
    mode = args.mode if args.mode else cfg.verify.mode
    # the configured tolerance belongs to the configured mode; another mode
    # gets its own default
    if args.tol is not None:
        tol = args.tol
    elif mode == cfg.verify.mode:
        tol = cfg.verify.tol
    else:
        tol = None
    report = dtype_report(
        pencil.curve, pencil.marching, pencil.domain, cfg.verify.samples, mode, tol
    )
    print(report.to_json())
    return EXIT_OK if report.holds else EXIT_VERIFY_FAILED


def _cmd_reproduce(args) -> int:
    name = args.figure
    if name not in figures.FIGURES:
        raise G3PencilError(f"unknown figure {name!r}; choose from {sorted(figures.FIGURES)}")
    os.makedirs(args.output, exist_ok=True)
    if args.as_printed:
        print(
            f"note: {name} uses the as-printed formulas, which differ from the "
            "corrected defaults; the invariant check may fail on them",
            file=sys.stderr,
        )
    fig = figures.FIGURES[name]
    ns, nv = args.grid if args.grid else (200, 50)
    if fig.kind == "curve":
        curve = build_curve(figures.CURVE_FIGURES[name], as_printed=args.as_printed)
        svals = uniform_grid(*figures.CURVE_RANGE, ns)
        pts = [point(curve, s) for s in svals]
        out = os.path.join(args.output, f"{name}.csv")
        export_curve_csv(svals, pts, out)
        print(f"wrote {out}")
        return EXIT_OK
    cfg = fig.config(as_printed=args.as_printed)
    pencil = realize(cfg, as_printed=args.as_printed)
    mesh = mesh_from_pencil(pencil, ns, nv, workers=args.workers)
    obj_path = os.path.join(args.output, f"{name}.obj")
    csv_path = os.path.join(args.output, f"{name}.csv")
    export_mesh(mesh, obj_path, csv_path, workers=args.workers)
    print(f"wrote {obj_path}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g3pencil",
        description="Surface pencils through a common curve in Galilean 3-space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("frenet", help="print the moving frame at a parameter value")
    p.add_argument("config")
    p.add_argument("--at", type=float, required=True, metavar="S")
    p.add_argument("--as-printed", action="store_true", dest="as_printed")
    p.set_defaults(func=_cmd_frenet)

    p = sub.add_parser("classify", help="classify the configured curve")
    p.add_argument("config")
    p.add_argument("--as-printed", action="store_true", dest="as_printed")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("build", help="sample the surface grid and export it")
    p.add_argument("config")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--grid", type=_parse_grid, metavar="NSxNV")
    p.add_argument("--workers", type=_worker_count, default=1, metavar="N", help=WORKERS_HELP)
    p.add_argument("--as-printed", action="store_true", dest="as_printed")
    p.add_argument("--sign", choices=["+", "-"], type=str)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="test the invariant for constancy")
    p.add_argument("config")
    p.add_argument("--mode", choices=["analytic", "fd"])
    p.add_argument("--tol", type=_tolerance)
    p.add_argument("--as-printed", action="store_true", dest="as_printed")
    p.add_argument("--sign", choices=["+", "-"], type=str)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("reproduce", help="emit a built-in example figure dataset")
    p.add_argument("figure", choices=sorted(figures.FIGURES))
    p.add_argument("-o", "--output", required=True, metavar="DIR")
    p.add_argument("--grid", type=_parse_grid, metavar="NSxNV")
    p.add_argument("--workers", type=_worker_count, default=1, metavar="N", help=WORKERS_HELP)
    p.add_argument("--as-printed", action="store_true", dest="as_printed")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "sign", None) is not None:
        args.sign = _sign_value(args.sign)
    previous = warnings.formatwarning
    warnings.formatwarning = _one_line_warning
    try:
        return args.func(args)
    except Exception as exc:  # G3PencilError or not: one line, never a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        warnings.formatwarning = previous


if __name__ == "__main__":
    sys.exit(main())
