"""Run the same work on two source trees and report every difference.

    python tests/differential.py OLD_SRC NEW_SRC [--seed N] [--count N]

OLD_SRC and NEW_SRC are directories that hold the ``g3pencil`` package,
such as the ``src`` of two checkouts.  Two families run, each in a fresh
interpreter per tree, with the tree on ``PYTHONPATH`` and its own hash
seed, so output that depends on set or dict order shows as a difference
even between a tree and itself.  It prints one line per difference and
one count line per family, and exits 1 on any difference, 0 otherwise.
It needs only the standard library, and the package of this checkout for
``tests/oracles.py``, which draws the texts of the compiled family.

The command family: each command of ``COMMANDS`` runs as ``python -m
g3pencil.cli`` in an empty temporary directory that holds only the config
documents it names.  The exit code, stdout, stderr (the temporary
directory's path replaced by ``$DIR``) and every file the command writes
are compared.

The compiled family: ``--count`` triples of expression texts (default
200), drawn here with ``--seed`` (default 1) from
``oracles.failure_rich_expression``, go to both trees as the same text.
Each tree compiles, per triple, its values kernel, its jets in s and in v,
the jets of orders 1 to 3 in s, the pairs of the surface normal, and its
surface rows over ``ROW_V`` on one helix frame, and runs them at every
point of ``SPECIAL_S`` x ``SPECIAL_V`` (the rows at every s of it).  A compile
and a call each give one outcome: ``float.hex`` of every value, or the
error's type and text, and the messages of the kink warnings.

The commands are

* both shipped configs under every command, both verify modes and both
  sign branches,
* fig1a..fig1h at 40x10, corrected and ``--as-printed``,
* the direct and product documents of the load-check tests of
  ``tests/test_config.py`` and ``tests/test_cli.py``, and two documents
  with more than one fault in the checked entries,
* a synthesis document with v0 = -1, and
* documents whose s or v extent overflows to inf.
"""

from __future__ import annotations

import argparse
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

ROOT = Path(__file__).resolve().parent.parent


def _shipped(name: str, **domain) -> dict:
    doc = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    doc["domain"].update(domain)
    return doc


def _scale(block: dict, control: dict | None = None, **domain) -> dict:
    """The helix config of the load-check tests with ``block`` as its marching scale."""
    doc = _shipped("fresnel-helix", **domain)
    doc["marching_scale"] = block
    if control is not None:
        doc["control"] = control
    return doc


def _product(x: str = "v", y: str = "v", z: str = "v") -> dict:
    return {"product": {"l": "1", "m": "1", "n": "-1", "X": x, "Y": y, "Z": z}}


def _direct(alpha: str, beta: str = "v", gamma: str = "v") -> dict:
    return {"direct": {"alpha": alpha, "beta": beta, "gamma": gamma}}


# name: document, written to NAME.json where a command names it
DOCS = {
    "helix": _shipped("fresnel-helix"),
    "antis": _shipped("anti-salkowski"),
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
}

_LOADS = [name for name in DOCS if name not in ("helix", "antis")]

COMMANDS = [
    *(
        argv
        for name in ("helix", "antis")
        for argv in (
            ["frenet", f"{name}.json", "--at", "1.5"],
            ["frenet", f"{name}.json", "--at", "1.5", "--as-printed"],
            ["classify", f"{name}.json"],
            ["classify", f"{name}.json", "--as-printed"],
            ["build", f"{name}.json", "-o", "out.obj", "--grid", "40x10"],
            ["build", f"{name}.json", "-o", "out.csv", "--grid", "40x10", "--sign", "-"],
            ["build", f"{name}.json", "-o", "out.obj", "--grid", "40x10", "--as-printed"],
            *(
                ["verify", f"{name}.json", "--mode", mode, *sign]
                for mode in ("analytic", "fd")
                for sign in ([], ["--sign", "-"])
            ),
            ["verify", f"{name}.json", "--as-printed"],
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


def _outcome(call) -> tuple[object, list]:
    """What call() returns, None where it raises, and its error's type and
    text, or None, with the messages of the kink warnings it gave."""
    with warnings.catch_warnings(record=True) as kinks:
        warnings.simplefilter("always")
        try:
            result, error = call(), None
        except Exception as exc:  # the kernels' own errors, or any other
            result, error = None, f"{type(exc).__name__}: {exc}"
    return result, [error, [str(w.message) for w in kinks]]


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
    from g3pencil.curve import fresnel_helix, frenet, point
    from g3pencil.exprjet import compile_jets, compile_surface_rows, compile_values, parse

    helix = fresnel_helix()
    frame, base = frenet(helix, 1.5), point(helix, 1.5)
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


def _run_outcomes(src: Path, triples: list[list[str]]):
    """compiled_outcomes(triples) in a fresh interpreter on ``src``, or its error text."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    proc = subprocess.run(
        [sys.executable, __file__, "--outcomes"],
        input=json.dumps(triples), env=env, capture_output=True, text=True, timeout=3600,
    )
    if proc.returncode:
        return f"exit {proc.returncode}: {(proc.stderr.strip().splitlines() or [''])[-1]}"
    return json.loads(proc.stdout)


def compiled_differences(old_src: Path, new_src: Path, seed: int, count: int) -> tuple[list, int]:
    """One line per outcome that differs between the trees, and the number of outcomes."""
    triples = draw_texts(seed, count)
    runs = [_run_outcomes(src, triples) for src in (old_src, new_src)]
    failed = [f"{side} tree: {run}" for side, run in zip(("old", "new"), runs)
              if isinstance(run, str)]
    if failed:
        return failed, 0
    found, total = [], 0
    for texts, a, b in zip(triples, *runs):
        for name in dict.fromkeys([*a, *b]):
            for i, (x, y) in enumerate(itertools.zip_longest(a.get(name, []), b.get(name, []))):
                total += 1
                if x != y:
                    found.append(f"{texts} {name} {f'call {i}' if i else 'compile'}: {x} -> {y}")
    return found, total


def main(argv: list[str]) -> int:
    if argv == ["--outcomes"]:  # the side of the compiled family that runs in a tree
        print(json.dumps(compiled_outcomes(json.load(sys.stdin))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--seed", type=int, default=1, help="seed of the compiled family's draws")
    parser.add_argument("--count", type=int, default=200, help="triples of the compiled family")
    args = parser.parse_args(argv)
    found = differences(args.old_src, args.new_src, COMMANDS)
    for line in found:
        print(line)
    print(f"{len(found)} differences in {len(COMMANDS)} commands")
    sys.path.append(str(ROOT / "src"))  # tests/oracles.py imports the package
    compiled, total = compiled_differences(args.old_src, args.new_src, args.seed, args.count)
    for line in compiled:
        print(line)
    print(f"{len(compiled)} differences in {total} compiled outcomes "
          f"of {args.count} triples (seed {args.seed})")
    return 1 if found or compiled else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
