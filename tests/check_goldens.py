"""Compare the command line's output with the pinned goldens, on any interpreter.

    python tests/check_goldens.py [PROGRAM ...]

PROGRAM is the command that runs g3pencil: by default this interpreter
with ``-m g3pencil.cli`` and the repository's ``src`` on the path, or for
example the installed console script, ``g3pencil``.  In order it checks

* the four ``verify`` reports (both shipped configs, both modes),
* both ``classify`` outputs,
* ``reproduce fig1b --grid 40x10`` against ``fig1b_40x10.obj``, and its
  one-line warning on stderr,
* that ``build`` (OBJ and CSV) and ``reproduce`` write the same bytes with
  1 and 2 workers.

It stops at the first difference, names it and exits 1, and exits 0 when
every check holds.  It needs only the standard library, so it runs under
interpreters that have no pytest.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CONFIGS = ("fresnel-helix", "anti-salkowski")
WARNING = b"warning: UserWarning: grid re-spans usable sub-intervals "


class Mismatch(Exception):
    """A check that does not hold; the message names it."""


def _first_difference(got: bytes, want: bytes) -> str:
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    line = got.count(b"\n", 0, at) + 1
    return f"first difference at byte {at} (line {line}); {len(got)} bytes against {len(want)}"


def _same(got: bytes, want: bytes, what: str) -> None:
    if got != want:
        raise Mismatch(f"{what}: {_first_difference(got, want)}")


class Cli:
    def __init__(self, program: list[str]):
        self.program = program or [sys.executable, "-m", "g3pencil.cli"]
        path = os.environ.get("PYTHONPATH")
        self.env = None if program else dict(
            os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), path])))

    def __call__(self, *argv: str) -> subprocess.CompletedProcess:
        proc = subprocess.run([*self.program, *argv], cwd=ROOT, env=self.env, capture_output=True)
        if proc.returncode != 0:
            raise Mismatch(f"g3pencil {' '.join(argv)} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace').strip()}")
        return proc


def check(cli: Cli, out: Path) -> None:
    for config in CONFIGS:
        for mode in ("analytic", "fd"):
            golden = GOLDEN / f"verify_{config}_{mode}.json"
            got = cli("verify", f"configs/{config}.json", "--mode", mode).stdout
            _same(got, golden.read_bytes(), f"verify {config} --mode {mode} against {golden.name}")
            print(f"ok verify {config} --mode {mode}")
        golden = GOLDEN / f"classify_{config}.txt"
        _same(cli("classify", f"configs/{config}.json").stdout, golden.read_bytes(),
              f"classify {config} against {golden.name}")
        print(f"ok classify {config}")

    stderr = cli("reproduce", "fig1b", "--grid", "40x10", "-o", str(out)).stderr
    golden = GOLDEN / "fig1b_40x10.obj"
    _same((out / "fig1b.obj").read_bytes(), golden.read_bytes(),
          f"reproduce fig1b --grid 40x10 against {golden.name}")
    if not (stderr.startswith(WARNING) and stderr.count(b"\n") == 1):
        raise Mismatch(f"reproduce fig1b --grid 40x10: stderr is not one re-span warning: {stderr!r}")
    print("ok reproduce fig1b --grid 40x10")

    for ext in ("obj", "csv"):
        for workers in ("1", "2"):
            cli("build", "configs/fresnel-helix.json", "--grid", "300x40",
                "-o", str(out / f"w{workers}.{ext}"), "--workers", workers)
        _same((out / f"w2.{ext}").read_bytes(), (out / f"w1.{ext}").read_bytes(),
              f"build --grid 300x40 to {ext} with 2 workers against 1")
        print(f"ok build {ext} with 1 and 2 workers")
    for workers in ("1", "2"):
        cli("reproduce", "fig1c", "--grid", "300x40", "-o", str(out / f"fig1c-w{workers}"),
            "--workers", workers)
    for ext in ("obj", "csv"):
        _same((out / "fig1c-w2" / f"fig1c.{ext}").read_bytes(),
              (out / "fig1c-w1" / f"fig1c.{ext}").read_bytes(),
              f"reproduce fig1c --grid 300x40 to {ext} with 2 workers against 1")
    print("ok reproduce fig1c with 1 and 2 workers")


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        try:
            check(Cli(argv), Path(tmp))
        except Mismatch as exc:
            print(f"golden check failed: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
