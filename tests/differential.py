"""Run the same work on two source trees and report every difference.

    python tests/differential.py OLD_SRC NEW_SRC [--seed N] [--count N]

OLD_SRC and NEW_SRC are directories that hold the ``g3pencil`` package,
such as the ``src`` of two checkouts.  Five families run, each in a fresh
interpreter per tree, with the tree on ``PYTHONPATH`` and its own hash
seed, so output that depends on set or dict order shows as a difference
even between a tree and itself.  It prints one line per difference and
one count line per family, and exits 1 on any difference, 0 otherwise.
It needs only the standard library, and the package of this checkout for
``tests/oracles.py``, which draws the texts of the compiled family, and
for ``g3pencil.figures``, which gives the figure documents.

The command family: each command of ``COMMANDS`` runs as ``python -m
g3pencil.cli`` in an empty temporary directory that holds only the config
documents it names.  The exit code, stdout, stderr (the temporary
directory's path replaced by ``$DIR``) and every file the command writes
are compared.

The other four families draw their inputs here, with ``--seed`` (default
1) and ``--count`` (default 200), and send both trees the same inputs.
Each input gives named lists of outcomes, and an outcome is what a call
returns or the error's type and text, with the messages of the warnings
it gave.

* compiled: ``--count`` triples of expression texts from
  ``oracles.failure_rich_expression``.  Each tree compiles, per triple,
  its values kernel, its jets in s and in v, the jets of orders 1 to 3 in
  s, the pairs of the surface normal, and its surface rows over ``ROW_V``
  on one helix frame, and runs them at every point of ``SPECIAL_S`` x
  ``SPECIAL_V`` (the rows at every s of it).  Outcome 0 of a kernel is its
  compile, and each later one a call, with ``float.hex`` of every value.
* parse: 50 texts per count, from grammar tokens, letters and numerals of
  other scripts, Unicode whitespace, nesting 90 to 110 levels deep, and
  grammar-built texts with random spacing and number spellings, some with
  one character changed.  The outcome is the tree's repr, or the error's
  type, text and offset.
* to_source: the corrected document of each surface figure and each
  shipped config, and the as-printed twin of each: the same document on
  the printed helix, where it names the helix, under the plain rule.  For every subtree of
  alpha, beta, gamma, f and g, the outcome is its ``to_source`` text and
  whether that parses back to the subtree; a realization that fails gives
  its error.  It draws nothing, so it ignores ``--seed`` and ``--count``.
* config_from_dict: 10 documents per count, each a shipped config, a
  figure document in either form or a document of ``DOCS`` with one entry
  changed: deleted, retyped, its expression text broken, or joined by an
  unknown key.  The outcome is the ``PencilConfig`` repr.

The commands are

* both shipped configs under every command and both verify modes,
  copies of them on the minus sign branch under build and verify, and
  their as-printed twins (the helix config on "fresnel-helix-printed"
  under the plain rule, the anti-Salkowski config under the plain rule)
  under every command,
* fig1a..fig1h at 40x10, corrected and ``--as-printed``,
* the direct and product documents of the load-check tests of
  ``tests/test_config.py`` and ``tests/test_cli.py``, and two documents
  with more than one fault in the checked entries,
* a synthesis document with v0 = -1,
* documents whose s or v extent overflows to inf, and
* the row pool with ``--workers 2``: a clean ``build`` of the helix
  config, a ``build`` whose ``abs()`` kink warns on a child's row, one
  whose kink the guard probe showed before the pool started, and
  ``build``s of a direct alpha that overflows only in a child's rows or
  only in the calling process's first row; and ``reproduce fig1c`` at
  128x6 with ``--workers 3``.  A machine with one usable CPU forks none,
* one command for each exit-2 category that no other command reaches:
  curvature and torsion that vanish at a frame, an infeasible lambda, a
  vanishing sigma or m, an expression that does not parse, an fd step
  that underflows, a grid too coarse for its usable intervals, a missing
  config file and an argument that argparse refuses.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

from check_goldens import twin

ROOT = Path(__file__).resolve().parent.parent


def _shipped(name: str, **domain) -> dict:
    doc = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    doc["domain"].update(domain)
    return doc


def _minus(name: str) -> dict:
    """A shipped config on the minus sign branch."""
    doc = _shipped(name)
    doc["marching_scale"]["synthesis"]["sign"] = "-"
    return doc


def _scale(block: dict, control: dict | None = None, **domain) -> dict:
    """The helix config of the load-check tests with ``block`` as its marching scale."""
    doc = _shipped("fresnel-helix", **domain)
    doc["marching_scale"] = block
    if control is not None:
        doc["control"] = control
    return doc


def _synthesis(**entries) -> dict:
    """The helix config with ``entries`` in its synthesis block."""
    doc = _shipped("fresnel-helix")
    doc["marching_scale"]["synthesis"].update(entries)
    return doc


def _product(x: str = "v", y: str = "v", z: str = "v") -> dict:
    return {"product": {"l": "1", "m": "1", "n": "-1", "X": x, "Y": y, "Z": z}}


def _direct(alpha: str, beta: str = "v", gamma: str = "v") -> dict:
    return {"direct": {"alpha": alpha, "beta": beta, "gamma": gamma}}


def _overflow(alpha: str) -> dict:
    """The helix curve over s in [0.5, 2] on a 10x5 grid, with ``alpha`` in a direct scale."""
    return {
        "curve": "fresnel-helix",
        "marching_scale": _direct(alpha),
        "domain": {"s_min": 0.5, "s_max": 2.0, "v_min": 0.0, "v_max": 5.0, "v0": 0.0},
        "grid": {"ns": 10, "nv": 5},
    }


# name: document, written to NAME.json where a command names it
DOCS = {
    "helix": _shipped("fresnel-helix"),
    "antis": _shipped("anti-salkowski"),
    "helix-minus": _minus("fresnel-helix"),
    "antis-minus": _minus("anti-salkowski"),
    # the as-printed twins; the anti-Salkowski curve has no printed variant
    "helix-printed": twin(_shipped("fresnel-helix")),
    "antis-plain": twin(_shipped("anti-salkowski")),
    # tests/test_config.py
    "product-quadratic": _scale(_product(x="v^2")),
    "product-x-off": _scale(_product(x="v + 1")),
    "product-x-nan": _scale(_product(x="v*(0*exp(1000))"), s_max=6.28),
    "direct-alpha-1": _scale(_direct("1", gamma="-v"), s_max=6.28),
    "direct-alpha-nan": _scale(_direct("v*(0*exp(1000))"), s_max=6.28),
    "direct-beta-off": _scale(_direct("v", beta="1 + v"), s_max=6.28),
    "direct-gamma-off": _scale(_direct("v", gamma="s + v"), s_max=6.28),
    "direct-skips": _scale(_direct("ln(0)*v", beta="sqrt(s - 3)*v")),
    "direct-explicit-curve": dict(
        _scale(_direct("0", gamma="0")),
        curve={"f": "s^2", "g": "s^3", "kappa": "sqrt(4+36*s^2)", "tau": "1"},
    ),
    "direct-control": _scale(_direct("0", gamma="0"), {"a": 1.0, "b": 2.0, "c": 3.0}),
    "direct-off-control": _scale(_direct("1", gamma="0"), {"a": 2.0}),
    "product-control": _scale(
        {"product": {"l": "1", "m": "s", "n": "-1", "X": "v", "Y": "v^2", "Z": "s*v"}},
        {"a": 0.5, "b": -2.0},
    ),
    "product-x-off-a-0": _scale(_product(x="v + 1"), {"a": 0.0}, s_max=6.28),
    # tests/test_cli.py
    "direct-alpha-control": _scale(_direct("v", gamma="-v"), {"a": 1.0, "b": 2.0, "c": 3.0}),
    "product-x-sqrt": _scale(_product(x="v*sqrt(s - 3) + sqrt(s - 3)"), s_max=6.28),
    "product-x-ln": _scale(_product(x="v + ln(1 - 1)"), s_max=6.28),
    "direct-v-over-0": dict(_shipped("anti-salkowski"), marching_scale=_direct("v/0")),
    "direct-ln-0": dict(_shipped("anti-salkowski"), marching_scale=_direct("ln(0)*v")),
    # more than one fault: a point where beta fails is skipped for alpha
    # too, and a kernel that fails to compile leaves beta unchecked
    "direct-two-faults": _scale(_direct("1", beta="sqrt(s - 3)*v"), s_max=6.28),
    "direct-uncompiled-and-off": _scale(_direct("ln(0)*v", beta="1 + v"), s_max=6.28),
    # a negative v0, which X = v - v0 reads
    "synthesis-v0-neg": _shipped("fresnel-helix", v_min=-2.0, v0=-1.0),
    # extents that overflow to inf
    "v-overflows": _shipped("fresnel-helix", v_min=-1e308, v_max=1e308),
    "s-overflows": _shipped("fresnel-helix", s_min=-1e308, s_max=1e308),
    # row pool: a kink of abs() on a child's row, and an alpha that
    # overflows only in a child's rows or only in the first row
    "kink": {
        "curve": {"f": "s^3/6 + sin(s) + abs(s - 2.5)^3", "g": "cosh(s/2)"},
        "marching_scale": _direct("v"),
        "domain": {"s_min": 1.0, "s_max": 3.0, "v_min": 0.0, "v_max": 1.0, "v0": 0.0},
        "grid": {"ns": 5, "nv": 3},
    },
    # a kink of abs() that the guard probe at s = 2 shows before the pool
    # starts, and that a child's last row meets again
    "kink-shown": {
        "curve": {"f": "s^3/6 + abs(s - 2)^3", "g": "cosh(s/2)"},
        "marching_scale": _direct("v"),
        "domain": {"s_min": 0.0, "s_max": 2.0, "v_min": 0.0, "v_max": 1.0, "v0": 0.0},
        "grid": {"ns": 9, "nv": 3},
    },
    "overflow-late": _overflow("v*exp(3000*(s - 1.9)*v)"),
    "overflow-first": _overflow("v*exp(3000*(0.6 - s)*v)"),
    # exit-2 categories that no other command reaches
    "torsion-0": dict(_scale(_direct("v")), curve={"f": "s^2", "g": "0*s"}),
    "lambda-5": _synthesis(**{"lambda": 5}),
    "sigma-0": _synthesis(sigma="0*s"),
    "m-0": _synthesis(m="0*s"),
    "l-broken": _synthesis(l="1 +"),
    "v-subnormal": _shipped("fresnel-helix", v_min=0.0, v_max=5e-324),
}

# the documents that the first commands name, those of the row pool's
# commands and those of the error categories; every other one is a load check
_SHIPPED = ("helix", "antis", "helix-minus", "antis-minus", "helix-printed", "antis-plain")
_POOL = ("kink", "kink-shown", "overflow-late", "overflow-first")
_FAULTS = ("torsion-0", "lambda-5", "sigma-0", "m-0", "l-broken", "v-subnormal")
_LOADS = [name for name in DOCS if name not in _SHIPPED + _POOL + _FAULTS]

COMMANDS = [
    *(
        argv
        for name, twin in (("helix", "helix-printed"), ("antis", "antis-plain"))
        for argv in (
            ["frenet", f"{name}.json", "--at", "1.5"],
            ["frenet", f"{twin}.json", "--at", "1.5"],
            ["classify", f"{name}.json"],
            ["classify", f"{twin}.json"],
            ["build", f"{name}.json", "-o", "out.obj", "--grid", "40x10"],
            ["build", f"{name}-minus.json", "-o", "out.csv", "--grid", "40x10"],
            ["build", f"{twin}.json", "-o", "out.obj", "--grid", "40x10"],
            *(
                ["verify", f"{name}{branch}.json", "--mode", mode]
                for mode in ("analytic", "fd")
                for branch in ("", "-minus")
            ),
            ["verify", f"{twin}.json"],
        )
    ),
    *(
        ["reproduce", f"fig1{c}", "-o", "out", "--grid", "40x10", *flag]
        for c in "abcdefgh"
        for flag in ([], ["--as-printed"])
    ),
    *(
        argv
        for name in _LOADS
        for argv in (
            ["verify", f"{name}.json"],
            ["verify", f"{name}.json", "--mode", "fd"],
            ["build", f"{name}.json", "-o", "out.obj", "--grid", "4x4"],
        )
    ),
    ["build", "helix.json", "-o", "out.obj", "--grid", "60x10", "--workers", "2"],
    *(["build", f"{name}.json", "-o", "out.obj", "--workers", "2"] for name in _POOL),
    ["reproduce", "fig1c", "-o", "out", "--grid", "128x6", "--workers", "3"],
    # one command per exit-2 category: CurvatureVanishes, TorsionVanishes,
    # InfeasibleLambda, SigmaVanishes, ZeroMarchingFactor, ParseError,
    # StepUnderflow, GridTooCoarse, a missing file and a usage error
    ["frenet", "helix.json", "--at", "0"],
    ["frenet", "torsion-0.json", "--at", "1"],
    *(["verify", f"{name}.json"] for name in ("lambda-5", "sigma-0", "m-0", "l-broken")),
    ["verify", "v-subnormal.json", "--mode", "fd"],
    ["reproduce", "fig1b", "-o", "out", "--grid", "3x4"],
    ["verify", "missing.json"],
    ["build", "helix.json", "-o", "out.obj", "--grid", "1x5"],
]


def run(src: Path, argv: list[str]) -> tuple[int, bytes, bytes, dict[str, bytes]]:
    """Exit code, stdout, stderr and written files of one command on one tree."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    with tempfile.TemporaryDirectory() as tmp:
        docs = {f"{name}.json" for name in DOCS} & set(argv)
        for doc in docs:
            (Path(tmp) / doc).write_text(json.dumps(DOCS[doc.removesuffix(".json")]))
        proc = subprocess.run(
            [sys.executable, "-m", "g3pencil.cli", *argv],
            cwd=tmp, env=env, capture_output=True, timeout=300,
        )
        files = {
            path.relative_to(tmp).as_posix(): path.read_bytes()
            for path in sorted(Path(tmp).rglob("*"))
            if path.is_file() and path.name not in docs
        }
        marker = os.fsencode(tmp)
        return (
            proc.returncode,
            proc.stdout.replace(marker, b"$DIR"),
            proc.stderr.replace(marker, b"$DIR"),
            files,
        )


def _first_line_apart(old: bytes, new: bytes) -> str:
    pairs = zip(old.splitlines(keepends=True) + [b""], new.splitlines(keepends=True) + [b""])
    number, (a, b) = next((i, pair) for i, pair in enumerate(pairs, 1) if pair[0] != pair[1])
    return f"line {number}: {a.decode(errors='replace')!r} -> {b.decode(errors='replace')!r}"


def differences(old_src: Path, new_src: Path, commands: list[list[str]]) -> list[str]:
    """One line per difference between the trees' runs of ``commands``."""
    found = []
    for argv in commands:
        old, new = run(old_src, argv), run(new_src, argv)
        what = " ".join(argv)
        if old[0] != new[0]:
            found.append(f"{what}: exit {old[0]} -> {new[0]}")
        for stream, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
            if a != b:
                found.append(f"{what}: {stream} {_first_line_apart(a, b)}")
        for name in sorted(old[3].keys() | new[3].keys()):
            a, b = old[3].get(name), new[3].get(name)
            if a is None or b is None:
                found.append(f"{what}: {name} written by {'new' if a is None else 'old'} only")
            elif a != b:
                found.append(f"{what}: {name} {_first_line_apart(a, b)}")
    return found


def _outcome(call) -> tuple[object, list]:
    """What call() returns, None where it raises, and its error's type and
    text, or None, with the messages of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, error = call(), None
        except Exception as exc:  # the package's own errors, or any other
            result, error = None, f"{type(exc).__name__}: {exc}"
    return result, [error, [str(w.message) for w in caught]]


# ---------------------------------------------------------------------------
# compiled: values and jets of failure-rich trees
# ---------------------------------------------------------------------------

# The points the compiled kernels run at: signed zeros, the smallest
# subnormal, huge and infinite values and NaN, beside ordinary ones
SPECIAL_S = (0.0, -0.0, 0.5, -2.0, 5e-324, 1e300, math.inf, math.nan)
SPECIAL_V = (0.0, -0.0, 1.0, -1e300, 5e-324, -math.inf, math.nan)
# the columns of the surface rows, which a row kernel computes as it is
# compiled, so that a v-only subtree failing at one fails the compile
ROW_V = (5e-324, 0.5, 1.0, 3.0, 1e300)
# the (variable, orders) pairs of each jet kernel
JET_KERNELS = {
    "jets in s": (("s", (0, 1, 2, 3)),),
    "jets in v": (("v", (0, 1, 2, 3)),),
    "orders 1-3 in s": (("s", (1, 2, 3)),),
    "normal pairs": (("s", (0, 1)), ("v", (1,))),
}


def draw_texts(seed: int, count: int) -> list[list[str]]:
    """``count`` triples of failure-rich expression texts, drawn with ``seed``."""
    from oracles import failure_rich_expression

    rng = random.Random(seed)
    return [[failure_rich_expression(rng) for _ in range(3)] for _ in range(count)]


def _kernel_outcomes(compile, points, run) -> list:
    """The outcome of compile(), then, if it compiled, of run(kernel, point) at
    each point, with float.hex of every value run returns."""
    kernel, outcome = _outcome(compile)
    outcomes = [outcome]
    if kernel is not None:
        for point in points:
            values, outcome = _outcome(lambda: run(kernel, point))
            outcomes.append([None if values is None else [x.hex() for x in values], *outcome])
    return outcomes


def compiled_outcomes(triples: list[list[str]]) -> list[dict]:
    """Per triple, each kernel's outcomes, from the g3pencil this interpreter imports."""
    import g3pencil.curve as curve
    from g3pencil.exprjet import compile_jets, compile_surface_rows, compile_values, parse

    helix = curve.fresnel_helix()
    frame, base = curve.frame_parts(helix, 1.5), curve.point_parts(helix, 1.5)
    points = [(s, v) for s in SPECIAL_S for v in SPECIAL_V]

    def rows(row, s):
        out = []
        row(s, base, frame, out)
        return out

    found = []
    for texts in triples:
        trees, parsed = _outcome(lambda: [parse(text) for text in texts])
        if trees is None:
            found.append({"parse": [parsed]})
            continue
        kernels = {"values": (lambda: compile_values(trees))}
        for name, pairs in JET_KERNELS.items():
            kernels[name] = lambda pairs=pairs: compile_jets(trees, *pairs[0], *pairs[1:])
        outcomes = {
            name: _kernel_outcomes(compile, points, lambda kernel, p: kernel(*p))
            for name, compile in kernels.items()
        }
        outcomes["rows"] = _kernel_outcomes(
            lambda: compile_surface_rows(*trees, ROW_V), SPECIAL_S, rows
        )
        found.append(outcomes)
    return found


# ---------------------------------------------------------------------------
# parse: texts of the grammar and of everything around it
# ---------------------------------------------------------------------------

_FUNCS = ("sin", "cos", "tan", "sinh", "cosh", "exp", "ln", "sqrt", "abs", "fresnelS", "fresnelC")
# the empty join, and whitespace that str.isspace accepts
SPACES = ("", " ", "\t", "\n", "\u00a0", "\u2003", "\u3000", "\x1c")
# grammar tokens, then letters and numerals of other scripts and stray characters
TOKENS = (
    "s", "v", "pi", "(", ")", "+", "-", "*", "/", "^", "0", "1", "2", "9", ".", "e", "E",
    *(f"{func}(" for func in _FUNCS),
    # é, Roman numeral eight, one half, Arabic-Indic one, superscript two
    "\u00e9", "\u2167", "\u00bd", "\u0661", "\u00b2", "x", "_", "$", ",", "sinx",
)


def _number(rng: random.Random) -> str:
    """One spelling of a NUMBER, now and then too large for a double."""
    digits = rng.choice(("0", "1", "2", "10", "007", "123456789", "17976931348623157"))
    text = rng.choice((digits, f"{digits}.", f"{digits}.5", f".{digits}"))
    return text + rng.choice(("", "", "e0", "E-3", "e+2", "e292", "e309", "e-400"))


def _change_one(rng: random.Random, text: str, pieces) -> str:
    """text with one of its characters replaced by one of ``pieces``, one
    of them inserted, or the character deleted."""
    at = rng.randrange(len(text) + 1)
    piece, skip = rng.choice(((rng.choice(pieces), 1), (rng.choice(pieces), 0), ("", 1)))
    return text[:at] + piece + text[at + skip:]


def _grammar_text(rng: random.Random, depth: int) -> str:
    """A text of the grammar, with random spacing between its tokens."""
    def gap() -> str:
        return rng.choice(SPACES)

    if depth <= 0 or rng.random() < 0.2:
        return rng.choice(("s", "v", "pi", _number(rng)))
    a = _grammar_text(rng, depth - 1)
    roll = rng.random()
    if roll < 0.4:
        text = f"{a}{gap()}{rng.choice('+-*/')}{gap()}{_grammar_text(rng, depth - 1)}"
        return f"({gap()}{text}{gap()})" if rng.random() < 0.5 else text
    if roll < 0.5:
        return f"-{gap()}{a}"
    if roll < 0.65:
        # mostly a constant exponent; one that reads s or v is refused
        exponent = _number(rng) if rng.random() < 0.8 else _grammar_text(rng, 1)
        return f"({a}){gap()}^{gap()}{rng.choice(('', '-'))}{exponent}"
    return f"{rng.choice(_FUNCS)}{gap()}({gap()}{a}{gap()})"


# each wraps a text in one more level of nesting
_WRAPS = (
    lambda t: f"({t})",
    lambda t: f"-{t}",
    lambda t: f"sin({t})",
    lambda t: f"{t}+v",
    lambda t: f"2^{t}",
    lambda t: f"({t})*s",
)


def _parse_text(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.45:
        text = _grammar_text(rng, rng.randint(1, 4))
        if rng.random() < 1 / 3:
            text = _change_one(rng, text, [token[0] for token in TOKENS + SPACES[1:]])
        return text
    if roll < 0.8:
        return "".join(rng.choice(rng.choice((TOKENS, TOKENS, SPACES)))
                       for _ in range(rng.randint(0, 12)))
    # 90 to 110 levels, around the MAX_DEPTH of 100
    text = rng.choice(("s", "v", "1"))
    wraps = [rng.choice(_WRAPS)] if rng.random() < 0.5 else _WRAPS
    for _ in range(rng.randint(90, 110)):
        text = rng.choice(wraps)(text)
    return text


def draw_parse_texts(seed: int, count: int) -> list[str]:
    """``50 * count`` texts for the parse family, drawn with ``seed``."""
    rng = random.Random(seed)
    return [_parse_text(rng) for _ in range(50 * count)]


def parse_outcomes(texts: list[str]) -> list[dict]:
    """Per text, the repr of its tree, or the error's type, text and offset."""
    from g3pencil.exprjet import parse

    found = []
    for text in texts:
        try:
            outcome = [repr(parse(text))]
        except Exception as exc:  # ParseError, or any other
            outcome = [None, f"{type(exc).__name__}: {exc}", getattr(exc, "offset", None)]
        found.append({"parse": [outcome]})
    return found


# ---------------------------------------------------------------------------
# to_source: every subtree of the realized figures and configs
# ---------------------------------------------------------------------------


def _figure_docs(as_printed: bool) -> dict[str, dict]:
    """The document of each surface figure, from the package of this checkout."""
    from g3pencil import figures

    return {name: figures.figure_doc(name, as_printed) for name in figures.SURFACE_FIGURES}


def draw_realizations(seed: int, count: int) -> list[list]:
    """[name, document] for the corrected figures and the shipped configs, and
    for the as-printed twin of each; the same for every seed and count."""
    docs = {**_figure_docs(False), "helix": DOCS["helix"], "antis": DOCS["antis"]}
    return [pair for name, doc in docs.items()
            for pair in ([name, doc], [f"{name} twin", twin(doc)])]


def _subtrees(node):
    yield node
    for field in node._fields:
        child = getattr(node, field)
        if hasattr(child, "_fields"):
            yield from _subtrees(child)


def to_source_outcomes(realizations: list[list]) -> list[dict]:
    """Per realization, the text of every subtree of each expression and
    whether it parses back to the subtree, or the realization's error."""
    from g3pencil.config import config_from_dict, realize
    from g3pencil.exprjet import parse, to_source

    def round_trip(tree) -> list:
        text = to_source(tree)
        back, outcome = _outcome(lambda: parse(text) == tree)
        return [text, back, *outcome]

    found = []
    for _, doc in realizations:
        pencil, outcome = _outcome(lambda: realize(config_from_dict(doc)))
        if pencil is None:
            found.append({"realize": [outcome]})
            continue
        trees = {k: getattr(pencil.marching, k) for k in ("alpha", "beta", "gamma")}
        trees.update((k, getattr(pencil.curve, k)) for k in ("f", "g"))
        found.append({k: [round_trip(sub) for sub in _subtrees(tree)] for k, tree in trees.items()})
    return found


# ---------------------------------------------------------------------------
# config_from_dict: documents with one entry changed
# ---------------------------------------------------------------------------

# what an entry is retyped to: a string, bools, a list, NaN, a number, and
# an integer beyond the float range
RETYPES = ("text", True, False, [1.0], math.nan, 2.5, 10**400)
# what breaks an expression text where it goes in
BREAKS = ("(", ")", "$", "^", "*", " ", "\u00e9", "1e999", "s", "v")


def _entries(doc: dict, path: str = "$"):
    """(path, object, key) of every entry of doc and of the objects in it."""
    for key, value in doc.items():
        yield f"{path}.{key}", doc, key
        if isinstance(value, dict):
            yield from _entries(value, f"{path}.{key}")


def _mutate(rng: random.Random, doc: dict) -> str:
    """Change one entry of doc in place, and say how."""
    path, obj, key = rng.choice(list(_entries(doc)))
    changes = ["delete", "retype", "unknown key"] + ["break"] * isinstance(obj[key], str)
    change = rng.choice(changes)
    if change == "delete":
        del obj[key]
        return f"{path} deleted"
    if change == "unknown key":
        obj["unknown"] = rng.choice(RETYPES)
        return f"{path.rsplit('.', 1)[0]}.unknown = {obj['unknown']!r}"
    if change == "retype":
        obj[key] = rng.choice(RETYPES)
    else:
        obj[key] = _change_one(rng, obj[key], BREAKS)
    return f"{path} = {obj[key]!r}"


def draw_documents(seed: int, count: int) -> list[list]:
    """``10 * count`` documents, each with one entry changed, drawn with ``seed``."""
    rng = random.Random(seed)
    bases = {**{f"{name}-printed": doc for name, doc in _figure_docs(True).items()},
             **_figure_docs(False), **DOCS}
    names = list(bases)
    found = []
    for _ in range(10 * count):
        name = rng.choice(names)
        doc = copy.deepcopy(bases[name])
        found.append([f"{name}: {_mutate(rng, doc)}", doc])
    return found


def config_outcomes(documents: list[list]) -> list[dict]:
    """Per document, the repr of its PencilConfig, or the error."""
    from g3pencil.config import config_from_dict

    found = []
    for _, doc in documents:
        cfg, outcome = _outcome(lambda: config_from_dict(doc))
        found.append({"config_from_dict": [[None if cfg is None else repr(cfg), *outcome]]})
    return found


# ---------------------------------------------------------------------------
# Running a family on both trees
# ---------------------------------------------------------------------------

# name: (what one input is called, draw(seed, count), outcomes(inputs), and
# how an input is named in a difference)
FAMILIES = {
    "compiled": ("triples", draw_texts, compiled_outcomes, str),
    "parse": ("texts", draw_parse_texts, parse_outcomes, repr),
    "to_source": ("realizations", draw_realizations, to_source_outcomes, lambda r: r[0]),
    "config_from_dict": ("documents", draw_documents, config_outcomes, lambda d: d[0]),
}


def _run_outcomes(src: Path, family: str, inputs: list):
    """The family's outcomes of inputs in a fresh interpreter on ``src``, or its error text."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    proc = subprocess.run(
        [sys.executable, __file__, "--outcomes", family],
        input=json.dumps(inputs), env=env, capture_output=True, text=True, timeout=3600,
    )
    if proc.returncode:
        return f"exit {proc.returncode}: {(proc.stderr.strip().splitlines() or [''])[-1]}"
    return json.loads(proc.stdout)


def family_differences(
    old_src: Path, new_src: Path, family: str, seed: int, count: int
) -> tuple[list[str], int, int]:
    """One line per outcome of ``family`` that differs between the trees, the
    number of outcomes, and the number of inputs."""
    _, draw, _, label = FAMILIES[family]
    inputs = draw(seed, count)
    runs = [_run_outcomes(src, family, inputs) for src in (old_src, new_src)]
    failed = [f"{family}: {side} tree: {run}" for side, run in zip(("old", "new"), runs)
              if isinstance(run, str)]
    if failed:
        return failed, 0, len(inputs)
    found, total = [], 0
    for item, a, b in zip(inputs, *runs):
        for name in dict.fromkeys([*a, *b]):
            for i, (x, y) in enumerate(itertools.zip_longest(a.get(name, []), b.get(name, []))):
                total += 1
                if x != y:
                    found.append(f"{family} {label(item)} {name} #{i}: {x} -> {y}")
    return found, total, len(inputs)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--outcomes"]:  # the side of a drawn family that runs in a tree
        print(json.dumps(FAMILIES[argv[1]][2](json.load(sys.stdin))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--seed", type=int, default=1, help="seed of the drawn families")
    parser.add_argument("--count", type=int, default=200,
                        help="triples of the compiled family; the parse family draws 50 texts "
                             "and the config_from_dict family 10 documents per count")
    args = parser.parse_args(argv)
    found = differences(args.old_src, args.new_src, COMMANDS)
    for line in found:
        print(line)
    print(f"{len(found)} differences in {len(COMMANDS)} commands")
    sys.path.append(str(ROOT / "src"))  # tests/oracles.py and the figures import the package
    for family, (unit, *_) in FAMILIES.items():
        lines, total, inputs = family_differences(
            args.old_src, args.new_src, family, args.seed, args.count)
        for line in lines:
            print(line)
        seeded = "" if family == "to_source" else f" (seed {args.seed})"
        print(f"{len(lines)} differences in {total} {family} outcomes of {inputs} {unit}{seeded}")
        found += lines
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
