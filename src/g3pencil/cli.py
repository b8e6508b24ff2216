"""Command line surface: frenet, classify, build, verify, reproduce.

Every subcommand takes a configuration document (see g3pencil.config)
except reproduce, which emits the built-in example figure datasets.
Errors print one machine-readable line to stderr in the form
``error: <Category>: <detail>`` and exit nonzero; warnings print one line
each in the form ``warning: <Category>: <message>``.

One table, ``COMMANDS``, lists every subcommand's arguments, and two
parsers read it.  ``_parse_fast`` takes a well-formed command line in
full, or declines it.  Everything it declines (``-h``, an abbreviated,
``=``-joined or repeated option, ``--``, a missing or invalid value) goes
to the argparse parser that ``_build_parser`` makes from the same table,
which prints argparse's usage text and errors and exits 2.  argparse is
imported only then, so a command that runs pays nothing for it.
"""

from __future__ import annotations

import math
import os
import re
import sys
import warnings
from types import SimpleNamespace

from . import figures
from .config import build_curve, config_from_dict, load_config, realize
from .curve import classify_curve, darboux_parts, frame_parts, point_parts, uniform_grid
from .g3core import Record
from .mesh import _MIN_POINTS, export_curve_csv, write_mesh
from .verify import MODES, dtype_report

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_ERROR = 2

WORKERS_HELP = (
    f"processes that sample and format the grid rows (default: one per {_MIN_POINTS} grid points; "
    "at most the usable CPUs and the row count); the output is the same for any N"
)


def _num(x: float) -> str:
    return f"{x + 0.0:.12g}"  # adding 0.0 turns -0.0 into 0.0, so "-0" never shows


def _vec(v: tuple[float, float, float]) -> str:
    return f"({_num(v[0])}, {_num(v[1])}, {_num(v[2])})"


def _usage_error(message: str) -> Exception:
    """argparse's error for an invalid option value; only a failing check loads argparse."""
    import argparse

    return argparse.ArgumentTypeError(message)


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        ns_text, nv_text = text.lower().split("x")
        ns, nv = int(ns_text), int(nv_text)
    except ValueError:
        raise _usage_error(f"expected NSxNV, got {text!r}")
    if ns < 2 or nv < 2:
        raise _usage_error("grid counts must be at least 2")
    return ns, nv


def _worker_count(text: str) -> int:
    try:
        workers = int(text)
    except ValueError:
        raise _usage_error(f"expected a whole number, got {text!r}")
    if workers < 1:
        raise _usage_error("the worker count must be at least 1")
    return workers


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise _usage_error(f"expected a number, got {text!r}")
    if not math.isfinite(value):
        raise _usage_error(f"expected a finite number, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    tol = _finite(text)
    if not tol > 0.0:
        raise _usage_error("the tolerance must be a finite number above 0")
    return tol


def _one_line_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {category.__name__}: {message}\n"


def _cmd_frenet(args) -> int:
    cfg = load_config(args.config)
    curve = build_curve(cfg.curve, as_printed=args.as_printed)
    frame = frame_parts(curve, args.at)
    kappa, tau, t, n, b = frame
    print(f"s = {_num(args.at)}")
    print(f"t = {_vec(t)}")
    print(f"n = {_vec(n)}")
    print(f"b = {_vec(b)}")
    print(f"kappa = {_num(kappa)}")
    print(f"tau = {_num(tau)}")
    print(f"E0 = {_vec(darboux_parts(frame)[1])}")
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
    pencil = realize(cfg, as_printed=args.as_printed)
    ns, nv = args.grid or cfg.grid
    kind = "csv" if args.output.lower().endswith(".csv") else "obj"
    write_mesh(pencil, ns, nv, **{kind: args.output}, workers=args.workers)
    print(f"wrote {args.output} ({ns}x{nv} vertices)")
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = load_config(args.config)
    pencil = realize(cfg, as_printed=args.as_printed)
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
    os.makedirs(args.output, exist_ok=True)
    if args.as_printed:
        print(
            f"note: {name} uses the as-printed formulas, which differ from the "
            "corrected defaults; the invariant check may fail on them",
            file=sys.stderr,
        )
    if name in figures.CURVE_FIGURES:
        ns = args.grid[0] if args.grid else figures.GRID[0]
        curve = build_curve(figures.CURVE_FIGURES[name], as_printed=args.as_printed)
        svals = uniform_grid(figures.DOMAIN["s_min"], figures.DOMAIN["s_max"], ns)
        pts = [point_parts(curve, s) for s in svals]
        out = os.path.join(args.output, f"{name}.csv")
        export_curve_csv(svals, pts, out)
        print(f"wrote {out}")
        return EXIT_OK
    cfg = config_from_dict(figures.figure_doc(name, as_printed=args.as_printed))
    ns, nv = args.grid or cfg.grid
    pencil = realize(cfg, as_printed=args.as_printed)
    obj_path = os.path.join(args.output, f"{name}.obj")
    csv_path = os.path.join(args.output, f"{name}.csv")
    write_mesh(pencil, ns, nv, obj_path, csv_path, workers=args.workers)
    print(f"wrote {obj_path}")
    print(f"wrote {csv_path}")
    return EXIT_OK


class _Arg(Record):
    """One argument of a subcommand, as both parsers read it.

    ``flags`` are the option strings, or the one name of a positional.
    ``check`` turns the text into the value (argparse's ``type``); a switch
    has none, takes no value and reads True when given.  The text, once
    checked, must be one of ``choices`` when they are given.
    """

    __slots__ = _fields = ("flags", "dest", "check", "choices", "default", "required", "metavar", "help")

    def __init__(self, *flags, check=str, choices=None, default=None, required=False,
                 metavar=None, help=None):
        self.flags = flags
        self.dest = flags[-1].lstrip("-").replace("-", "_")
        self.check = check
        self.choices = choices
        self.default = default
        self.required = required
        self.metavar = metavar
        self.help = help

    @property
    def positional(self) -> bool:
        return not self.flags[0].startswith("-")


_AS_PRINTED = _Arg("--as-printed", check=None, default=False)
_GRID = _Arg("--grid", check=_parse_grid, metavar="NSxNV")
_WORKERS = _Arg("--workers", check=_worker_count, metavar="N", help=WORKERS_HELP)

# name: (help, function, arguments in the order argparse lists them)
COMMANDS = {
    "frenet": ("print the moving frame at a parameter value", _cmd_frenet, (
        _Arg("config"),
        _Arg("--at", check=_finite, required=True, metavar="S"),
        _AS_PRINTED,
    )),
    "classify": ("classify the configured curve", _cmd_classify, (_Arg("config"), _AS_PRINTED)),
    "build": ("sample the surface grid and export it", _cmd_build, (
        _Arg("config"),
        _Arg("-o", "--output", required=True),
        _GRID,
        _WORKERS,
        _AS_PRINTED,
    )),
    "verify": ("test the invariant for constancy", _cmd_verify, (
        _Arg("config"),
        _Arg("--mode", choices=MODES),
        _Arg("--tol", check=_tolerance),
        _AS_PRINTED,
    )),
    "reproduce": ("emit a built-in example figure dataset", _cmd_reproduce, (
        _Arg("figure", choices=figures.FIGURES),
        _Arg("-o", "--output", required=True, metavar="DIR"),
        _GRID,
        _WORKERS,
        _AS_PRINTED,
    )),
}

# a word that argparse reads as a negative number, so as an option's value
_NEGATIVE_NUMBER = re.compile(r"-[0-9]*\.?[0-9]+")


def _parse_fast(argv: list[str]) -> SimpleNamespace | None:
    """The fields that argparse gives a well-formed ``argv``, or None.

    Accepts only a subcommand followed by its positionals and options, each
    option given once by its full flag, its value in the next word, every
    value valid and nothing required missing.  Declines anything else and
    leaves it to argparse; never prints and never exits.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, arguments = COMMANDS[argv[0]]
    fields = {"command": argv[0], "func": func}
    fields.update((arg.dest, arg.default) for arg in arguments)
    positionals = [arg for arg in arguments if arg.positional]
    options = {flag: arg for arg in arguments if not arg.positional for flag in arg.flags}
    given = set()
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            if not positionals:
                return None
            arg = positionals.pop(0)
        else:
            arg = options.get(word)
            if arg is None or arg.dest in given:
                return None
            given.add(arg.dest)
            if arg.check is None:
                fields[arg.dest] = True
                continue
            word = next(words, None)
            if word is None or word.startswith("-") and not (
                word == "-" or _NEGATIVE_NUMBER.fullmatch(word)
            ):
                return None
        try:
            value = arg.check(word)
        except Exception:  # argparse.ArgumentTypeError or whatever else: argparse reports it
            return None
        if arg.choices is not None and value not in arg.choices:
            return None
        fields[arg.dest] = value
    if positionals or any(arg.required and arg.dest not in given for arg in options.values()):
        return None
    return SimpleNamespace(**fields)


def _build_parser():
    """The argparse parser of ``COMMANDS``, for the command lines ``_parse_fast`` declines."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="g3pencil",
        description="Surface pencils through a common curve in Galilean 3-space",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg in arguments:
            if arg.check is None:
                p.add_argument(*arg.flags, action="store_true", dest=arg.dest)
            elif arg.positional:
                p.add_argument(arg.dest, type=arg.check, choices=arg.choices)
            else:
                p.add_argument(*arg.flags, dest=arg.dest, type=arg.check, choices=arg.choices,
                               default=arg.default, required=arg.required, metavar=arg.metavar,
                               help=arg.help)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_fast(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
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
