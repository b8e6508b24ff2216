"""Command line surface: frenet, classify, build, verify, reproduce.

Every subcommand takes a configuration document (see g3pencil.config)
except reproduce, which emits the built-in example figure datasets.
Errors print one machine-readable line to stderr in the form
``error: <Category>: <detail>`` and exit nonzero.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import figures
from .config import build_curve, load_config, realize
from .curve import classify_curve, darboux, fresnel_helix, frenet, point, uniform_grid
from .errors import G3PencilError
from .g3core import G3Vector
from .mesh import export_csv, export_curve_csv, export_obj, mesh_from_pencil
from .verify import dtype_report

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_ERROR = 2


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


def _sign_value(text: str) -> float:
    return 1.0 if text == "+" else -1.0


def _cmd_frenet(args) -> int:
    cfg = load_config(args.config)
    curve = build_curve(cfg, as_printed=args.as_printed)
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
    curve = build_curve(cfg, as_printed=args.as_printed)
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
    mesh = mesh_from_pencil(pencil, ns, nv)
    _export(mesh, args.output)
    print(f"wrote {args.output} ({mesh.ns}x{mesh.nv} vertices)")
    return EXIT_OK


def _export(mesh, path: str) -> None:
    if path.endswith(".csv"):
        export_csv(mesh, path)
    else:
        export_obj(mesh, path)


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
    return EXIT_OK if report.max_abs_deviation <= report.tolerance else EXIT_VERIFY_FAILED


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
        builtin = figures.CURVE_FIGURES[name]
        if builtin == "fresnel-helix":
            curve = fresnel_helix(as_printed=args.as_printed)
        else:
            from .curve import anti_salkowski

            curve = anti_salkowski()
        svals = uniform_grid(*figures.CURVE_RANGE, ns)
        pts = [point(curve, s) for s in svals]
        out = os.path.join(args.output, f"{name}.csv")
        export_curve_csv(svals, pts, out)
        print(f"wrote {out}")
        return EXIT_OK
    cfg = fig.config(as_printed=args.as_printed)
    pencil = realize(cfg, as_printed=args.as_printed)
    mesh = mesh_from_pencil(pencil, ns, nv)
    obj_path = os.path.join(args.output, f"{name}.obj")
    csv_path = os.path.join(args.output, f"{name}.csv")
    export_obj(mesh, obj_path)
    export_csv(mesh, csv_path)
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
    p.add_argument("--workers", type=int, default=1, help="accepted and ignored")
    p.add_argument("--as-printed", action="store_true", dest="as_printed")
    p.add_argument("--sign", choices=["+", "-"], type=str)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="test the invariant for constancy")
    p.add_argument("config")
    p.add_argument("--mode", choices=["analytic", "fd"])
    p.add_argument("--tol", type=float)
    p.add_argument("--as-printed", action="store_true", dest="as_printed")
    p.add_argument("--sign", choices=["+", "-"], type=str)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("reproduce", help="emit a built-in example figure dataset")
    p.add_argument("figure", choices=sorted(figures.FIGURES))
    p.add_argument("-o", "--output", required=True, metavar="DIR")
    p.add_argument("--grid", type=_parse_grid, metavar="NSxNV")
    p.add_argument("--workers", type=int, default=1, help="accepted and ignored")
    p.add_argument("--as-printed", action="store_true", dest="as_printed")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "sign", None) is not None:
        args.sign = _sign_value(args.sign)
    try:
        return args.func(args)
    except Exception as exc:  # G3PencilError or not: one line, never a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
