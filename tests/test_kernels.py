"""Every kernel source that the shipped commands compile, pinned by digest.

``kernels.sha256`` holds the SHA-256 of each source that
``_Emitter.define`` receives, in order, while both shipped configs run
``verify`` in both modes and ``build``, and while the six surface figures
run ``reproduce`` at the default grid.  A change to the emitter that means
to keep its output, such as a faster emitter, must leave every line as it
is.  Regenerate the file only in a change that means to alter kernels::

    PYTHONPATH=src python tests/test_kernels.py --write
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "golden" / "kernels.sha256"
CONFIGS = ("fresnel-helix", "anti-salkowski")
SURFACES = ("fig1b", "fig1c", "fig1d", "fig1f", "fig1g", "fig1h")


def _runs(out: str) -> dict[str, list[str]]:
    """Each run's name and its command line; output goes under out."""
    runs = {}
    for config in CONFIGS:
        path = str(ROOT / "configs" / f"{config}.json")
        for mode in ("analytic", "fd"):
            runs[f"verify-{config}-{mode}"] = ["verify", path, "--mode", mode]
        runs[f"build-{config}"] = ["build", path, "-o", f"{out}/{config}.obj", "--workers", "1"]
    for name in SURFACES:
        runs[f"reproduce-{name}"] = ["reproduce", name, "-o", out, "--workers", "1"]
    return runs


def kernel_digests() -> list[str]:
    """One line per kernel source, "<sha256>  <run>/<index>", in compile order."""
    from g3pencil import exprjet
    from g3pencil.cli import main

    original = exprjet._Emitter.define
    sources: list[str] = []

    def recording(self, source, name):
        sources.append(source)
        return original(self, source, name)

    lines = []
    with tempfile.TemporaryDirectory() as out, mock.patch.object(
        exprjet._Emitter, "define", recording
    ), mock.patch("sys.stdout"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for run, argv in _runs(out).items():
            sources.clear()
            assert main(argv) in (0, 1), run  # 1: a verify that does not hold
            for i, source in enumerate(sources):
                lines.append(f"{hashlib.sha256(source.encode()).hexdigest()}  {run}/{i}")
    return lines


def test_kernel_sources_match_the_pinned_digests():
    assert kernel_digests() == DIGESTS.read_text().splitlines()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    DIGESTS.write_text("".join(f"{line}\n" for line in kernel_digests()))
