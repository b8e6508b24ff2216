"""Spans around the calls into g3pencil's public functions.

The benchmark wraps each function below from outside the package: the
module attribute and every name that another g3pencil module imported.
A span records (command id, span id, parent span id, name, start ns,
end ns, counts); spans stay in memory and are written once, when the
command ends.  Counts are taken at the same boundary from the call's
arguments and result.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(args, kwargs, result):
    return (result.ns,)


def _bytes(args, kwargs, result):
    return (os.path.getsize(_arg(args, kwargs, 1, "path")),)


def _kept(args, kwargs, result):
    requested = _arg(args, kwargs, 2, "s_max") - _arg(args, kwargs, 1, "s_min")
    return (sum(b - a for a, b in result), requested)


def _report(args, kwargs, result):
    return (len(result.samples), sum(1 for p in result.samples if p.flagged))


# module.function -> counts taken from (args, kwargs, result), or None
TARGETS = {
    "cli.main": None,
    "config.load_config": None,
    "config.realize": None,
    "pencil.synthesize_product_form": None,
    "pencil.check_feasibility": None,
    "pencil.surface_point": None,
    "pencil.surface_normal": None,
    "curve.frenet": None,
    "curve.usable_s_intervals": _kept,
    "exprjet.eval_jet3": None,
    "exprjet.eval_expr": None,
    "exprjet.compile_expr": None,
    "mesh.mesh_from_pencil": _rows,
    "mesh.export_obj": _bytes,
    "mesh.export_csv": _bytes,
    "mesh.export_curve_csv": None,
    "verify.dtype_report": _report,
}


class Tracer:
    def __init__(self, command_id: int):
        self.command_id = command_id
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = self._local.stack = []

    def _wrap(self, name, fn, count):
        spans = self.spans
        cmd = self.command_id
        ids = self._ids
        local = self._local
        main = self._main
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)  # recursion stays inside one span
            # a worker thread's outermost span belongs to the span that
            # the main thread is blocked in
            parent = stack[-1][0] if stack else (main[-1][0] if main else 0)
            sid = next(ids)
            stack.append((sid, name))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                spans.append((cmd, sid, parent, name, t0, t1, None))
                raise
            t1 = clock()
            stack.pop()
            counts = None if count is None else count(args, kwargs, result)
            spans.append((cmd, sid, parent, name, t0, t1, counts))
            return result

        return traced

    def install(self) -> None:
        """Replace every reference to each target inside the package."""
        modules = [m for n, m in list(sys.modules.items()) if n == "g3pencil" or n.startswith("g3pencil.")]
        for target, count in TARGETS.items():
            mod_name, func = target.split(".")
            fn = getattr(sys.modules.get(f"g3pencil.{mod_name}"), func, None)
            if fn is None:
                continue
            wrapper = self._wrap(target, fn, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)


def _covered(parent: tuple[int, int], children: list[tuple[int, int]]) -> int:
    """Length of the parent's interval that the union of children covers."""
    total, end = 0, parent[0]
    for a, b in sorted(children):
        a, b = max(a, end), min(b, parent[1])
        if b > a:
            total += b - a
            end = b
    return total


def layer_totals(spans: list[list]) -> dict[str, float]:
    """Calls, self seconds and counts per target over one command's spans."""
    children: dict[int, list[tuple[int, int]]] = {}
    for _, sid, parent, name, t0, t1, counts in spans:
        children.setdefault(parent, []).append((t0, t1))
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for _, sid, parent, name, t0, t1, counts in spans:
        add(f"{name}.calls", 1)
        add(f"{name}.s", (t1 - t0 - _covered((t0, t1), children.get(sid, []))) / 1e9)
        if counts is None:
            continue
        if name == "mesh.mesh_from_pencil":
            add("mesh.rows", counts[0])
        elif name in ("mesh.export_obj", "mesh.export_csv"):
            add(f"{name}.bytes", counts[0])
        elif name == "curve.usable_s_intervals":
            add("curve.usable_s_intervals.kept", counts[0])
            add("curve.usable_s_intervals.requested", counts[1])
        elif name == "verify.dtype_report":
            add("verify.dtype_report.samples", counts[0])
            add("verify.dtype_report.flagged", counts[1])
    return out
