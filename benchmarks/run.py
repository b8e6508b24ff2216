"""End-to-end benchmark of the g3pencil command line.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload's CLI commands (see workloads.py) for at
least S seconds, each command in a fresh interpreter started from this
process, one at a time.  Every output is checked against the closed-form
oracle.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
# Interpreter launches that only import the package, besides one per command.
SETUP_PROBES = 7
# Every command must end before this many seconds into the run.
DEADLINE_S = 170
# Other tenants of the shared host change a core's speed by up to 2x within
# seconds: a fixed loop read 0.076 s to 0.163 s over 150 s on 2 cores.  So
# every time is rescaled by the speed of child.reference_loop_ns, timed in
# the same process next to what it measures: t * REF_LOOP_NS / t_loop.
# REF_LOOP_NS is the loop's fastest time seen on that host (Python 3.11.7),
# so a rescaled time reads as the time at that speed.
REF_LOOP_NS = 3_300_000

END_TO_END = {
    "setup_s": "s",
    "cmd_p50_s": "s",
    "cmd_p90_s": "s",
    "points_per_s": "points/s",
    "peak_rss_mb": "MB",
}

# Totals per round of the traced run, except where noted in README.md.
PER_LAYER = {
    "cli.main.s": "s",
    "config.load_config.s": "s",
    "config.realize.s": "s",
    "pencil.synthesize_product_form.s": "s",
    "pencil.check_feasibility.s": "s",
    "pencil.surface_point.calls": "count",
    "pencil.surface_point.s": "s",
    "pencil.surface_normal.calls": "count",
    "pencil.surface_normal.s": "s",
    "curve.frenet.calls": "count",
    "curve.frenet.s": "s",
    "curve.usable_s_intervals.calls": "count",
    "curve.usable_s_intervals.s": "s",
    "curve.usable_s_intervals.kept_ratio": "ratio",
    "exprjet.eval_jet3.calls": "count",
    "exprjet.eval_jet3.s": "s",
    "exprjet.eval_expr.calls": "count",
    "exprjet.eval_expr.s": "s",
    "exprjet.compile_expr.calls": "count",
    "mesh.mesh_from_pencil.s": "s",
    "mesh.rows": "count",
    "mesh.export_obj.s": "s",
    "mesh.export_obj.bytes": "bytes",
    "mesh.export_csv.s": "s",
    "mesh.export_csv.bytes": "bytes",
    "mesh.export_curve_csv.s": "s",
    "verify.dtype_report.s": "s",
    "verify.dtype_report.samples": "count",
    "verify.dtype_report.flagged": "count",
    "import.s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Launcher:
    """Starts child.py in a fresh interpreter and reads its report."""

    def __init__(self):
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), path])))
        self.deadline = time.monotonic() + DEADLINE_S
        self.commands = 0

    def __call__(self, argv: list[str], trace: bool = False) -> dict:
        self.commands += 1
        cmd = [sys.executable, str(HERE / "child.py"), str(time.monotonic_ns()), str(int(trace)),
               str(self.commands), *argv]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"run passed {DEADLINE_S} s in {argv}") from None
        if proc.returncode != 0 or not proc.stdout:
            raise BenchError(f"child process failed on {argv}: {proc.stderr[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1])


def _remove(paths) -> None:
    for path in paths:
        path.unlink(missing_ok=True)


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (ROOT / "src" / "g3pencil" / "cli.py").is_file():
        raise BenchError(f"no g3pencil sources under {ROOT / 'src'}")
    work = OUT / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(workloads.WORKLOADS[workload](random.Random(seed), work, ROOT),
                        seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if OUT.is_dir() and not any(OUT.iterdir()):
            OUT.rmdir()


def _measure(wl: workloads.Workload, seconds: int, trace: bool) -> dict:
    launch = Launcher()
    launch([])  # byte-compiles the package on a fresh checkout; not timed
    setups = [launch([]) for _ in range(SETUP_PROBES)]
    results: dict[bool, list[tuple[workloads.Op, dict]]] = {False: [], True: []}
    attempted = failed = 0
    correct = True
    rounds = 0
    start = time.monotonic()
    while True:
        # A traced run alternates untraced and traced rounds, so that the
        # tracing overhead is measured in the same run.
        traced = trace and rounds % 2 == 1
        for k, op in enumerate(wl.ops):
            result = launch(op.argv, traced)
            problems = op.check(result)
            if rounds == 0 and wl.repeat is not None and wl.repeat[0] == k:
                _, argv, copies = wl.repeat
                again = launch(argv)
                problems += [f"repeat exited {again['code']}: {again['stderr'][-300:]}"] if again["code"] else []
                problems += [p for a, b in zip(op.outputs, copies) for p in checks.same_bytes(a, b)]
                _remove(copies)
            _remove(op.outputs)
            attempted += 1
            if problems:
                failed += 1
                if op.known_fault is None:
                    correct = False
                if op.known_fault is None or rounds == 0:
                    why = f"known fault: {op.known_fault}" if op.known_fault else "FAILED"
                    print(f"{op.label}: {why}: " + "; ".join(problems[:3]), file=sys.stderr)
            results[traced].append((op, result))
        rounds += 1
        if time.monotonic() - start >= seconds and (not trace or rounds >= 2):
            break
    if trace:
        metrics = _per_layer(results, rounds // 2)
        units = PER_LAYER
    else:
        metrics = _end_to_end(results[False], setups)
        units = END_TO_END
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def _setup_s(r: dict) -> float:
    """Launch to import done, at the speed of the loop timed right after."""
    return r["setup_ns"] * REF_LOOP_NS / r["ref_before_ns"] / 1e9


def _speed(r: dict) -> float:
    """Factor that rescales the command's times to the reference speed."""
    loops = [r["ref_before_ns"], *r["ref_during_ns"], r["ref_after_ns"]]
    return REF_LOOP_NS * len(loops) / sum(loops)


def _end_to_end(results: list[tuple[workloads.Op, dict]], setups: list[dict]) -> dict:
    times = [r["cmd_ns"] / 1e9 * _speed(r) for _, r in results]
    return {
        "setup_s": statistics.median(map(_setup_s, setups + [r for _, r in results])),
        "cmd_p50_s": statistics.median(times),
        "cmd_p90_s": statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0],
        "points_per_s": sum(op.points for op, _ in results) / sum(times),
        "peak_rss_mb": max(r["peak_rss_kb"] for _, r in results) * 1024 / 1e6,
    }


def _per_layer(results: dict[bool, list], traced_rounds: int) -> dict:
    totals: dict[str, float] = {}
    for _, r in results[True]:
        speed = _speed(r)
        for key, value in tracer.layer_totals(r["spans"]).items():
            totals[key] = totals.get(key, 0) + (value * speed if key.endswith(".s") else value)
        totals["import.s"] = totals.get("import.s", 0) + r["import_ns"] / 1e9 * REF_LOOP_NS / r["ref_before_ns"]
    metrics = {name: totals.get(name, 0) / traced_rounds for name in PER_LAYER}
    requested = totals.get("curve.usable_s_intervals.requested", 0)
    metrics["curve.usable_s_intervals.kept_ratio"] = (
        totals.get("curve.usable_s_intervals.kept", 0) / requested if requested else 0.0)
    p50 = {flag: statistics.median(r["cmd_ns"] / 1e9 * _speed(r) for _, r in results[flag])
           for flag in (False, True)}
    metrics["trace.overhead_s"] = p50[True] - p50[False]
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        doc = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for name, metric in doc["metrics"].items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
