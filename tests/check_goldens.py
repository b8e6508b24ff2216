"""Compare the command line's output with the pinned goldens, on any interpreter.

    python tests/check_goldens.py [PROGRAM ...]

PROGRAM is the command that runs g3pencil: by default this interpreter
with ``-m g3pencil.cli`` and the repository's ``src`` on the path, or for
example the installed console script, ``g3pencil``.  In order it checks

* the eight ``verify`` reports (both shipped configs, both modes, each
  sign branch: the shipped documents, whose ``sign`` is ``+``, and copies
  of them with ``"sign": "-"``, written to the temporary directory),
* both ``classify`` outputs,
* the stdout of ``verify`` (both modes) on the as-printed twin of each
  shipped config, and of ``frenet --at 1.5`` and ``classify`` on the
  helix's twin, against the SHA-256 digests in ``twins.sha256``; a twin
  is the shipped document on the printed helix, where it names the
  helix, under the plain rule, written to the temporary directory, and
  the digests were taken from the same commands run with ``--as-printed``
  on the shipped documents, when those commands still took that flag,
* ``reproduce fig1b --grid 40x10`` against ``fig1b_40x10.obj``, and its
  one-line warning on stderr,
* every file that ``reproduce`` writes for fig1a..fig1h at the default
  grid, corrected and ``--as-printed``, and each run's stderr, against the
  SHA-256 digests in ``figures.sha256``,
* that ``build`` (OBJ and CSV) writes the same bytes with 1 and 2
  workers, ``reproduce fig1c --grid 300x40`` with 1 and 2 workers and the
  default count, and ``reproduce fig1c --grid 128x6`` with 1, 2 and 3
  workers,
* that ``reproduce fig1c --grid 300x40`` with the default worker count,
  started with SIGCHLD ignored (a disposition that ``exec`` keeps, so the
  system reaps each child itself), writes the bytes of 1 worker.

It stops at the first difference, names it and exits 1, and exits 0 when
every check holds.  It needs only the standard library, so it runs under
interpreters that have no pytest.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CONFIGS = ("fresnel-helix", "anti-salkowski")
# a verify golden's name suffix, and the sign its document's synthesis
# block gives, or None for the shipped document as it is
VERIFY_SIGNS = {"": None, "_sign-": "-"}
WARNING = b"warning: UserWarning: grid re-spans usable sub-intervals "
FIGURE_DIGESTS = GOLDEN / "figures.sha256"
TWIN_DIGESTS = GOLDEN / "twins.sha256"
# the commands run on the as-printed twin of a shipped config: command,
# config and the arguments after the document
TWIN_RUNS = [*(("verify", config, "--mode", mode) for config in CONFIGS for mode in ("analytic", "fd")),
             ("frenet", "fresnel-helix", "--at", "1.5"), ("classify", "fresnel-helix")]
# each run's name, as the digests name it, and the reproduce arguments it adds
FIGURE_RUNS = {f"fig1{c}{flag}": (f"fig1{c}", *filter(None, [flag]))
               for c in "abcdefgh" for flag in ("", "--as-printed")}


class Mismatch(Exception):
    """A check that does not hold; the message names it."""


def _first_difference(got: bytes, want: bytes) -> str:
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    line = got.count(b"\n", 0, at) + 1
    return f"first difference at byte {at} (line {line}); {len(got)} bytes against {len(want)}"


def _same(got: bytes, want: bytes, what: str) -> None:
    if got != want:
        raise Mismatch(f"{what}: {_first_difference(got, want)}")


def pinned_digests(path: Path = FIGURE_DIGESTS) -> dict[str, str]:
    """A digest file as {name: hex digest}.  In ``figures.sha256`` a name is
    "RUN/FILE", and FILE ``stderr`` is the run's stderr."""
    lines = path.read_text().splitlines()
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def _same_digests(got: dict[str, str], path: Path, what: str) -> None:
    pinned = pinned_digests(path)
    for name in sorted(pinned.keys() | got.keys()):
        if got.get(name) != pinned.get(name):
            raise Mismatch(f"{what} {name}: sha256 {got.get(name)} against "
                           f"{pinned.get(name)} in {path.name}")


def twin(doc: dict) -> dict:
    """The as-printed twin of a synthesis document: a copy on the printed
    helix where it names the helix, under the plain rule."""
    doc = copy.deepcopy(doc)
    if doc["curve"] == "fresnel-helix":
        doc["curve"] = "fresnel-helix-printed"
    doc["marching_scale"]["synthesis"]["rule"] = "plain"
    return doc


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Cli:
    def __init__(self, program: list[str]):
        self.program = program or [sys.executable, "-m", "g3pencil.cli"]
        path = os.environ.get("PYTHONPATH")
        self.env = None if program else dict(
            os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), path])))

    def __call__(self, *argv: str, codes=(0,), **options) -> subprocess.CompletedProcess:
        """Run the program with argv, which must exit with one of ``codes``;
        ``options`` go to subprocess.run."""
        proc = subprocess.run([*self.program, *argv], cwd=ROOT, env=self.env, capture_output=True,
                              **options)
        if proc.returncode not in codes:
            raise Mismatch(f"g3pencil {' '.join(argv)} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace').strip()}")
        return proc


def check(cli: Cli, out: Path) -> None:
    for config in CONFIGS:
        for mode in ("analytic", "fd"):
            for suffix, sign in VERIFY_SIGNS.items():
                path = ROOT / "configs" / f"{config}.json"
                if sign is not None:
                    doc = json.loads(path.read_text())
                    doc["marching_scale"]["synthesis"]["sign"] = sign
                    path = out / f"{config}{suffix}.json"
                    path.write_text(json.dumps(doc))
                golden = GOLDEN / f"verify_{config}_{mode}{suffix}.json"
                run = f"verify {path.name} --mode {mode}"
                got = cli("verify", str(path), "--mode", mode).stdout
                _same(got, golden.read_bytes(), f"{run} against {golden.name}")
                print(f"ok {run}")
        golden = GOLDEN / f"classify_{config}.txt"
        _same(cli("classify", f"configs/{config}.json").stdout, golden.read_bytes(),
              f"classify {config} against {golden.name}")
        print(f"ok classify {config}")

    digests = {}
    for command, config, *rest in TWIN_RUNS:
        path = out / f"{config}_as-printed.json"
        doc = json.loads((ROOT / "configs" / f"{config}.json").read_text())
        path.write_text(json.dumps(twin(doc)))
        # verify exits 1 where the invariant does not hold, as on the plain
        # rule's anti-Salkowski twin; its report is in the digest
        proc = cli(command, str(path), *rest, codes=(0, 1) if command == "verify" else (0,))
        digests[" ".join([command, path.name, *rest])] = sha256(proc.stdout)
    _same_digests(digests, TWIN_DIGESTS, "twin")
    print(f"ok the as-printed twins, {len(digests)} digests")

    stderr = cli("reproduce", "fig1b", "--grid", "40x10", "-o", str(out)).stderr
    golden = GOLDEN / "fig1b_40x10.obj"
    _same((out / "fig1b.obj").read_bytes(), golden.read_bytes(),
          f"reproduce fig1b --grid 40x10 against {golden.name}")
    if not (stderr.startswith(WARNING) and stderr.count(b"\n") == 1):
        raise Mismatch(f"reproduce fig1b --grid 40x10: stderr is not one re-span warning: {stderr!r}")
    print("ok reproduce fig1b --grid 40x10")

    digests = {}
    for run, argv in FIGURE_RUNS.items():
        digests[f"{run}/stderr"] = sha256(cli("reproduce", *argv, "-o", str(out / run)).stderr)
        digests.update((f"{run}/{path.name}", sha256(path.read_bytes()))
                       for path in (out / run).iterdir())
    _same_digests(digests, FIGURE_DIGESTS, "reproduce")
    print(f"ok reproduce fig1a..fig1h, {len(digests)} digests")

    for ext in ("obj", "csv"):
        for workers in ("1", "2"):
            cli("build", "configs/fresnel-helix.json", "--grid", "300x40",
                "-o", str(out / f"w{workers}.{ext}"), "--workers", workers)
        _same((out / f"w2.{ext}").read_bytes(), (out / f"w1.{ext}").read_bytes(),
              f"build --grid 300x40 to {ext} with 2 workers against 1")
        print(f"ok build {ext} with 1 and 2 workers")
    # at 128x6 the first face patch ends at row 63, the last row of the
    # first 64-row block and of the calling process's rows with 2 workers
    for grid, counts in (("300x40", ("1", "2", "default")), ("128x6", ("1", "2", "3"))):
        for workers in counts:
            flags = [] if workers == "default" else ["--workers", workers]
            cli("reproduce", "fig1c", "--grid", grid, "-o", str(out / f"fig1c-{grid}-w{workers}"),
                *flags)
        for workers in counts[1:]:
            for ext in ("obj", "csv"):
                _same((out / f"fig1c-{grid}-w{workers}" / f"fig1c.{ext}").read_bytes(),
                      (out / f"fig1c-{grid}-w1" / f"fig1c.{ext}").read_bytes(),
                      f"reproduce fig1c --grid {grid} to {ext} with {workers} workers against 1")
        print(f"ok reproduce fig1c --grid {grid} with {', '.join(counts)} workers")
    ignored = out / "fig1c-300x40-sigchld"
    cli("reproduce", "fig1c", "--grid", "300x40", "-o", str(ignored),
        preexec_fn=lambda: signal.signal(signal.SIGCHLD, signal.SIG_IGN))
    for ext in ("obj", "csv"):
        _same((ignored / f"fig1c.{ext}").read_bytes(),
              (out / "fig1c-300x40-w1" / f"fig1c.{ext}").read_bytes(),
              f"reproduce fig1c --grid 300x40 to {ext} under an ignored SIGCHLD against 1 worker")
    print("ok reproduce fig1c --grid 300x40 with the default workers under an ignored SIGCHLD")


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
