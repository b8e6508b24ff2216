"""Seeded workloads: the CLI commands of one round and how to check each.

A run repeats one round of operations.  The round is drawn once from the
seed, so every round of a run attempts the same operations, and the
program only ever sees the generated JSON configurations.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import oracle

TWO_PI = 2.0 * math.pi
LARGE_GRID = (1000, 250)
FIGURE_GRID = (200, 50)
FIGURE_DOMAIN = {"s_min": -TWO_PI, "s_max": TWO_PI, "v_min": 0.0, "v_max": 5.0, "v0": 0.0}

# The paper's example figures as stated: curve, lambda, sigma, controls (a, b, c).
SURFACE_FIGURES = {
    "fig1b": ("fresnel-helix", 0.5, "1", (1.0, 1.0, 1.0)),
    "fig1c": ("fresnel-helix", 0.5, "1", (1 / 3, 1 / 5, 1.0)),
    "fig1d": ("fresnel-helix", 0.5, "s", (1 / 3, 1 / 5, 1.0)),
    "fig1f": ("anti-salkowski", math.sqrt(3) / 2, "1/cosh(s/4)", (1.0, 1.0, 1.0)),
    "fig1g": ("anti-salkowski", math.sqrt(3) / 2, "1/cosh(s/4)", (1.0, 3.0, 5.0)),
    "fig1h": ("anti-salkowski", math.sqrt(3) / 2, "1/cosh(s/4)", (1.0, 1 / 5, 1 / 10)),
}
CURVE_FIGURES = {"fig1a": "fresnel-helix", "fig1e": "anti-salkowski"}

# verify --mode fd on these corrected figures reports not-d-type although
# lambda_hat is constant: the fixed relative step 1e-4 (s_max - s_min) is
# too coarse on the 4 pi wide figure domain for the default 1e-5 tolerance.
FD_STEP_FAULT = "fd step 1e-4*(s_max-s_min) without Richardson exceeds the 1e-5 tolerance"

# Factors that never vanish, so synthesis accepts them for m and n.
NONVANISHING = ["1", "-1", "2+sin(s)", "cosh(s/3)", "-1-s^2/8"]
L_FORMS = ["1", "2", "-1", "1+s^2/16"]
SIGMA_POSITIVE = ["1", "2", "0.5", "1/cosh(s/4)", "exp(s/8)", "1+s^2/16", "2+sin(s)"]
SIGMA_ANY = SIGMA_POSITIVE + ["-1", "-2"]
# fd configs keep |sigma| >= 1, small a and moderate b, c: the fd normal's
# truncation error grows with |l a| / |sigma| and with the s step.
SIGMA_FD = ["1", "2", "-1", "-2", "exp(s/8)", "1+s^2/16", "2+sin(s)"]


@dataclass
class Op:
    """One CLI command; check(result) returns the problems found."""

    label: str
    argv: list[str]
    check: Callable[[dict], list[str]]
    outputs: list[Path]
    points: int
    known_fault: str | None = None


@dataclass
class Workload:
    ops: list[Op]
    # (index of an op, argv of an untimed repeat, its outputs): the repeat
    # must write the same bytes with another worker count.
    repeat: tuple[int, list[str], list[Path]] | None = None


def synthesis_doc(curve, lam, sigma, control, domain, grid, *, sign="+", l="1", m="1", n="-1",
                  verify=None) -> dict:
    doc = {
        "curve": curve,
        "marching_scale": {"synthesis": {"lambda": lam, "sigma": sigma, "sign": sign,
                                         "l": l, "m": m, "n": n}},
        "control": dict(zip("abc", control)),
        "domain": domain,
        "grid": {"ns": grid[0], "nv": grid[1]},
    }
    if verify is not None:
        doc["verify"] = verify
    return doc


def figure_doc(name: str) -> dict:
    curve, lam, sigma, control = SURFACE_FIGURES[name]
    return synthesis_doc(curve, lam, sigma, control, dict(FIGURE_DOMAIN), FIGURE_GRID,
                         verify={"mode": "analytic", "samples": 200})


def _r(x: float) -> float:
    return round(x, 6)


def _write(doc: dict, path: Path) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def _helix_domain(rng: random.Random, straddle: bool, width: tuple[float, float]) -> tuple[float, float]:
    if straddle:
        lo = -rng.uniform(0.4, 0.6) * rng.uniform(*width)
        return _r(lo), _r(lo + rng.uniform(*width))
    lo = rng.uniform(0.2, 1.0)
    hi = lo + rng.uniform(*width)
    return (_r(lo), _r(hi)) if rng.random() < 0.5 else (_r(-hi), _r(-lo))


def _v_domain(rng: random.Random, v0_at_min: bool) -> dict:
    v_min = _r(rng.uniform(-1.5, 0.0))
    v_max = _r(v_min + rng.uniform(3.0, 6.0))
    v0 = v_min if v0_at_min else _r(rng.uniform(v_min, v_max))
    return {"v_min": v_min, "v_max": v_max, "v0": v0}


def _controls(rng: random.Random) -> tuple[float, float, float]:
    return tuple(_r(rng.choice([-1, 1, 1]) * rng.uniform(0.3, 3.0)) for _ in range(3))


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return _r(rng.choice([-1.0, 1.0]) * rng.uniform(lo, hi))


# ---------------------------------------------------------------------------
# build-large
# ---------------------------------------------------------------------------


def build_large(rng: random.Random, work: Path) -> Workload:
    """Four builds at 1000x250 with --workers 2: both curves, OBJ and CSV
    alternating; the first helix domain straddles the curvature zero."""
    ns, nv = LARGE_GRID
    ops = []
    plan = [("fresnel-helix", True, ".obj"), ("anti-salkowski", None, ".csv"),
            ("fresnel-helix", False, ".csv"), ("anti-salkowski", None, ".obj")]
    for k, (curve, straddle, ext) in enumerate(plan):
        if curve == "fresnel-helix":
            s_min, s_max = _helix_domain(rng, straddle, (5.0, 8.0))
            lam = _signed(rng, 0.3, 3.5)
        else:
            s_min = _r(-rng.uniform(2.0, 4.0))
            s_max = _r(s_min + rng.uniform(5.0, 8.0))
            lam = _signed(rng, 0.2, 0.95)
        domain = {"s_min": s_min, "s_max": s_max, **_v_domain(rng, True)}
        doc = synthesis_doc(curve, lam, rng.choice(SIGMA_ANY), _controls(rng), domain, (ns, nv),
                            sign=rng.choice("+-"), l=rng.choice(L_FORMS),
                            m=rng.choice(NONVANISHING), n=rng.choice(NONVANISHING))
        cfg = _write(doc, work / f"build{k}.json")
        out = work / f"build{k}{ext}"
        seed = rng.randrange(2**32)
        ops.append(Op(
            label=f"build {cfg.name} -> {out.name}",
            argv=["build", str(cfg), "-o", str(out), "--workers", "2"],
            check=lambda result, out=out, doc=doc, seed=seed: checks.check_mesh(
                out, doc, ns, nv, random.Random(seed)),
            outputs=[out],
            points=ns * nv,
        ))
    k = rng.randrange(len(ops))
    again = ops[k].outputs[0].with_name("repeat" + ops[k].outputs[0].suffix)
    argv = ops[k].argv[:3] + [str(again), "--workers", "1"]
    return Workload(ops, (k, argv, [again]))


# ---------------------------------------------------------------------------
# reproduce-figs
# ---------------------------------------------------------------------------


def reproduce_figs(rng: random.Random, work: Path) -> Workload:
    """One pass over fig1a..fig1h at the default 200x50 grid, in seeded order."""
    ns, nv = FIGURE_GRID
    names = sorted(list(CURVE_FIGURES) + list(SURFACE_FIGURES))
    rng.shuffle(names)
    ops = []
    for name in names:
        out = work / name
        argv = ["reproduce", name, "-o", str(out)]
        if name in CURVE_FIGURES:
            path = out / f"{name}.csv"
            curve = oracle.CURVES[CURVE_FIGURES[name]]
            ops.append(Op(
                label=f"reproduce {name}", argv=argv, outputs=[path], points=ns,
                check=lambda result, path=path, curve=curve: checks.check_curve_csv(
                    path, curve, (-TWO_PI, TWO_PI), ns),
            ))
            continue
        doc = figure_doc(name)
        paths = [out / f"{name}.obj", out / f"{name}.csv"]
        seed = rng.randrange(2**32)
        ops.append(Op(
            label=f"reproduce {name}", argv=argv, outputs=paths, points=ns * nv,
            check=lambda result, paths=paths, doc=doc, seed=seed: [
                p for path in paths
                for p in checks.check_mesh(path, doc, ns, nv, random.Random(seed))],
        ))
    surfaces = [k for k, op in enumerate(ops) if len(op.outputs) == 2]
    k = rng.choice(surfaces)
    again = work / "repeat"
    argv = ops[k].argv[:3] + [str(again), "--workers", "2"]
    return Workload(ops, (k, argv, [again / p.name for p in ops[k].outputs]))


# ---------------------------------------------------------------------------
# verify-sweep
# ---------------------------------------------------------------------------

# Every kind below runs twice per round, taking these sample counts in
# ascending and then in descending order.  The counts vary across commands
# but not across seeds, so a round costs nearly the same for every seed.
SAMPLE_COUNTS = [60, 80, 100, 120, 150, 160, 180, 200, 240, 300]


def _deviation(pencil: oracle.Pencil, s_min: float, s_max: float) -> float:
    """Spread of lambda_hat over the usable part of [s_min, s_max]."""
    svals = [s_min + (s_max - s_min) * i / 400 for i in range(401)]
    values = [pencil.lambda_hat(s) for s in svals if pencil.curve.kappa(s) >= oracle.FRAME_GUARD]
    return max(values) - min(values)


def _verify_doc(rng: random.Random, kind: str) -> dict:
    """A synthesis config of one kind of the sweep.

    fd configs keep the s-domain at most 3 wide, where the fd step's
    truncation error stays below 2e-7, fifty times inside the 1e-5
    tolerance (the largest seen over 120 seeds was 1.5e-7).  Configs
    meant to fail keep a spread of lambda_hat of at least 1e-2, so the
    verdict never rests on a sample near the tolerance.
    """
    curve, mode = kind.split("/")[:2]
    while True:
        if mode == "fd":
            sigma = rng.choice(SIGMA_FD)
            control = (_signed(rng, 0.3, 1.0), _signed(rng, 0.5, 2.0), _signed(rng, 0.5, 2.0))
            l = rng.choice(["1", "-1"])
        else:
            sigma = rng.choice(SIGMA_ANY)
            control = _controls(rng)
            l = rng.choice(L_FORMS)
        if curve == "fresnel-helix":
            s_min, s_max = _helix_domain(rng, rng.random() < 0.5,
                                         (1.5, 3.0) if mode == "fd" else (2.0, 8.0))
            lam = _signed(rng, 0.2, 3.5)
            if kind.endswith("/boundary"):
                lam = rng.choice([0.0, 4.0, -4.0])
            elif kind.endswith("/sign-change"):
                sigma = "s"
                s_min, s_max = _helix_domain(rng, True, (3.0, 8.0))
        else:
            if kind.endswith("/far"):
                # |s| >= 4 acosh(lam) keeps lambda > 1 feasible
                s_min = _r(rng.uniform(4.0, 6.0)) * rng.choice([-1, 1])
                lam = _signed(rng, 1.0, 0.95 * math.cosh(abs(s_min) / 4))
                s_max = _r(s_min + rng.uniform(1.5, 3.0) * (1 if s_min > 0 else -1))
                s_min, s_max = min(s_min, s_max), max(s_min, s_max)
            else:
                s_min = _r(-rng.uniform(0.5, 3.0))
                s_max = _r(s_min + (rng.uniform(2.0, 3.0) if mode == "fd" else rng.uniform(3.0, 7.0)))
                lam = _signed(rng, 0.2, 0.95)
            b = control[1]
            if kind.endswith("/d-type") or kind.endswith("/far"):
                control = (control[0], b, rng.choice([-1, 1]) * abs(b))
            elif abs(abs(control[2]) - abs(b)) < 0.5:
                continue
        domain = {"s_min": s_min, "s_max": s_max, **_v_domain(rng, False)}
        doc = synthesis_doc(curve, lam, sigma, control, domain, (200, 50),
                            sign=rng.choice("+-"), l=l,
                            m=rng.choice(NONVANISHING), n=rng.choice(NONVANISHING),
                            verify={"mode": mode, "samples": 0})
        spread = _deviation(oracle.pencil_from_config(doc), s_min, s_max)
        if kind.endswith("/not-d-type") or kind.endswith("/sign-change"):
            if spread >= 1e-2:
                return doc
        elif spread <= 1e-12:
            return doc


# Each entry is curve/mode/kind; the kinds cover every verdict the report
# can give: general-d-type, asymptotic or geodesic (boundary), not-d-type.
SWEEP_KINDS = [
    "fresnel-helix/analytic/d-type",
    "fresnel-helix/analytic/boundary",
    "fresnel-helix/analytic/sign-change",
    "fresnel-helix/fd/d-type",
    "fresnel-helix/fd/d-type",
    "anti-salkowski/analytic/d-type",
    "anti-salkowski/analytic/not-d-type",
    "anti-salkowski/analytic/far",
    "anti-salkowski/fd/d-type",
    "anti-salkowski/fd/not-d-type",
]


def verify_sweep(rng: random.Random, work: Path, root: Path) -> Workload:
    """Generated synthesis configs in both modes, the shipped configs, and
    the fd runs of fig1b and fig1c that fail through the fd step."""
    ops = []

    def add(label, cfg, doc, argv_extra, samples, known_fault=None):
        ops.append(Op(
            label=label, argv=["verify", str(cfg)] + argv_extra, outputs=[], points=samples,
            check=lambda result, doc=doc, samples=samples: checks.check_verify(result, doc, samples),
            known_fault=known_fault,
        ))

    counts = SAMPLE_COUNTS + SAMPLE_COUNTS[::-1]
    for k, (kind, samples) in enumerate(zip(SWEEP_KINDS * 2, counts)):
        doc = _verify_doc(rng, kind)
        doc["verify"]["samples"] = samples
        cfg = _write(doc, work / f"verify{k}.json")
        add(f"verify {cfg.name} ({kind})", cfg, doc, [], samples)
    for name, modes in (("anti-salkowski", ("analytic", "fd")), ("fresnel-helix", ("analytic",))):
        cfg = root / "configs" / f"{name}.json"
        doc = json.loads(cfg.read_text())
        for mode in modes:
            add(f"verify configs/{cfg.name} --mode {mode}", cfg, doc, ["--mode", mode],
                doc["verify"]["samples"])
    for name in ("fig1b", "fig1c"):
        doc = figure_doc(name)
        cfg = _write(doc, work / f"{name}.json")
        add(f"verify {name} --mode fd", cfg, doc, ["--mode", "fd"], 200, FD_STEP_FAULT)
    rng.shuffle(ops)
    return Workload(ops)


WORKLOADS = {
    "build-large": lambda rng, work, root: build_large(rng, work),
    "reproduce-figs": lambda rng, work, root: reproduce_figs(rng, work),
    "verify-sweep": verify_sweep,
}
