"""Run one g3pencil command in this fresh interpreter and report its cost.

    python child.py LAUNCH_NS TRACE COMMAND_ID [ARG ...]

LAUNCH_NS is the parent's time.monotonic_ns() just before it started this
process, so set-up time covers interpreter start and the package import.
With TRACE 1 the calls into the package are traced (see tracer.py) and
the spans carry COMMAND_ID.  With no ARG the process only reports its
set-up time.  The last line of
standard output is one JSON object; the command's own output is captured.

A fixed reference loop is timed right after the import, every 0.1 s
during the command (from a SIGALRM handler, whose time is taken out of the
command's time) and after it, so that the parent can rescale the times by
the speed the core had meanwhile (see run.py).
"""

import sys
import time

_import_start = time.monotonic_ns()
import g3pencil.cli  # noqa: E402

_ready = time.monotonic_ns()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402


REFERENCE_ITERATIONS = 12000
SAMPLE_PERIOD_S = 0.1
# A sample during the command runs a fifth of the loop, about 1 ms.
SAMPLE_ITERATIONS = REFERENCE_ITERATIONS // 5


def reference_loop_ns(iterations: int = REFERENCE_ITERATIONS) -> int:
    """CPU time of a fixed pure-Python loop: float math, calls and a dict.

    Thread CPU time, not wall time, so that a worker thread holding the
    interpreter lock does not count as a slow core.
    """
    import math

    t0 = time.thread_time_ns()
    table = {}
    acc = 0.0
    for i in range(iterations):
        table[i % 97] = math.sin(i * 0.001) * 1.5 + (i % 7)
        acc += table.get((i * 3) % 97, 1.0) * 0.5
    return time.thread_time_ns() - t0


class SpeedSampler:
    """Times the reference loop on SIGALRM while a command runs."""

    def __init__(self):
        self.samples_ns: list[int] = []  # scaled to REFERENCE_ITERATIONS
        self.paused_ns = 0

    def _sample(self, signum, frame) -> None:
        h0 = time.perf_counter_ns()
        loop_ns = reference_loop_ns(SAMPLE_ITERATIONS)
        self.samples_ns.append(loop_ns * REFERENCE_ITERATIONS // SAMPLE_ITERATIONS)
        self.paused_ns += time.perf_counter_ns() - h0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> None:
    launch_ns, trace, command_id = int(sys.argv[1]), sys.argv[2] == "1", int(sys.argv[3])
    argv = sys.argv[4:]
    doc = {"setup_ns": _ready - launch_ns, "import_ns": _ready - _import_start,
           "ref_before_ns": reference_loop_ns()}
    if argv:
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer(command_id)
            tracer.install()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), SpeedSampler() as speed:
            t0 = time.perf_counter_ns()
            try:
                code = g3pencil.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception:
                traceback.print_exc()
                code = 1
            t1 = time.perf_counter_ns()
        peak_kb = max(resource.getrusage(who).ru_maxrss
                      for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        doc.update(ref_during_ns=speed.samples_ns, ref_after_ns=reference_loop_ns(), code=code,
                   cmd_ns=t1 - t0 - speed.paused_ns, peak_rss_kb=peak_kb,
                   stdout=out.getvalue(), stderr=err.getvalue())
        if tracer is not None:
            doc["spans"] = tracer.spans
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
