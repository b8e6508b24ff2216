"""Run one command list on two source trees and report every difference.

    python tests/differential.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the ``g3pencil`` package,
such as the ``src`` of two checkouts.  Each command of ``COMMANDS`` runs in
a fresh interpreter per tree (``python -m g3pencil.cli``, the tree on
``PYTHONPATH``), in an empty temporary directory that holds only the
config documents it names.  The exit code, stdout, stderr (the temporary
directory's path replaced by ``$DIR``) and every file the command writes
are compared.  It prints one line per difference and a count line, and
exits 1 on any difference, 0 otherwise.  It needs only the standard
library.

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

import json
import os
import subprocess
import sys
import tempfile
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


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    found = differences(Path(argv[0]), Path(argv[1]), COMMANDS)
    for line in found:
        print(line)
    print(f"{len(found)} differences in {len(COMMANDS)} commands")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
