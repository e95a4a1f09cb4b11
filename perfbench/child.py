"""One measured child process of the benchmark.

Usage: python3 perfbench/child.py '<json task>'

The task names the rings to build during set-up and, optionally, one
`titscomplex` CLI argv to run.  The child measures two windows:

    set-up:  import titscomplex, then make_ring for every ring of the workload
    job:     cli.main(argv), with stdout captured

and writes one JSON line with each window's raw seconds, its calibration,
the captured CLI output, the exit code and ru_maxrss.

Calibration: a fixed pure-Python loop (it imports nothing from titscomplex)
is timed BRACKET times just before and just after each window, and once
every INTERVAL_S during it from a SIGALRM handler.  The host's speed changes
within seconds, so only timings taken during the window track it; see
README.md for the measurements.  Time spent in the handler is subtracted
from the window (`Calibrator.clock`).

With "trace": true the library functions listed in tracer.py are wrapped
before the rings are built, and span summaries of both windows are added.
"""

import json
import signal
import sys
import time

SNIPPET_ITERS = 8000
INTERVAL_S = 0.025
BRACKET = 5


class Calibrator:
    """Times a fixed loop around and during measured windows."""

    def __init__(self):
        self.snippets: list[float] = []
        self.stolen = 0.0  # seconds spent inside the timer handler
        signal.signal(signal.SIGALRM, self._tick)

    def _snippet(self):
        t = time.perf_counter()
        d = {}
        for i in range(SNIPPET_ITERS):
            k = i & 1023
            d[k] = d.get(k, 0) + i
        self.snippets.append(time.perf_counter() - t)

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self._snippet()
        self.stolen += time.perf_counter() - t

    def clock(self) -> float:
        """perf_counter without the time spent calibrating."""
        return time.perf_counter() - self.stolen

    def window(self, fn):
        """fn() -> (its result, net raw seconds, calibration summary)."""
        first = len(self.snippets)
        for _ in range(BRACKET):
            self._snippet()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = self.clock()
        try:
            res = fn()
        finally:
            t1 = self.clock()
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        for _ in range(BRACKET):
            self._snippet()
        snips = self.snippets[first:]
        del self.snippets[first:]
        during = snips[BRACKET:-BRACKET]
        cal = {
            "mean": sum(snips) / len(snips),
            "n": len(snips),
            "before": sum(snips[:BRACKET]) / BRACKET,
            "after": sum(snips[-BRACKET:]) / BRACKET,
            "during": sum(during) / len(during) if during else None,
        }
        return res, t1 - t0, cal


def run(task: dict) -> dict:
    cal = Calibrator()
    tracer = None

    def setup():
        nonlocal tracer
        sys.path.insert(0, task["src"])
        from titscomplex import cli, rings

        if task.get("trace"):
            import tracer as tracing

            tracer = tracing.Tracer(cal.clock)
            tracer.install()
        for label in task["rings"]:
            rings.make_ring(rings.parse_ring_spec(label))
        return cli

    cli, setup_raw, setup_cal = cal.window(setup)
    rec = {"setup_raw": setup_raw, "setup_cal": setup_cal}
    if tracer is not None:
        rec["setup_trace"] = tracer.summary()
        tracer.spans.clear()
    if task.get("argv") is not None:
        import contextlib
        import io

        buf = io.StringIO()

        def job():
            try:
                with contextlib.redirect_stdout(buf):
                    return cli.main(task["argv"])
            except SystemExit as e:
                rec["error"] = f"SystemExit({e.code})"
            except Exception as e:  # reported to the parent as a failed run
                import traceback

                rec["error"] = "".join(traceback.format_exception_only(type(e), e)).strip()

        rc, wall_raw, wall_cal = cal.window(job)
        rec.update(wall_raw=wall_raw, wall_cal=wall_cal, rc=rc, out=buf.getvalue())
        if tracer is not None:
            rec["trace"] = tracer.summary()
    import resource

    rec["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rec


if __name__ == "__main__":
    sys.stdout.write(json.dumps(run(json.loads(sys.argv[1]))) + "\n")
