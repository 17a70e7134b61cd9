"""One measured run of the program, in a fresh interpreter.

    python3 perfbench/worker.py --setup CONFIG.json
        import levyladder and validate the config, then exit (set-up probe)
    python3 perfbench/worker.py --run REQUEST.json
        run ``levyladder.runner.run`` on the request's config and write the
        measurements to the request's ``result`` path

The request is JSON with keys ``config`` (a runner config), ``result`` (path
of the measurement file to write) and ``trace`` (path of the span file to
write, or null for an untraced run).  The program's stdout is captured and
each line it prints is timestamped: the runner prints one line as each check
ends, which gives per-check times without entering the program.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class LineClock(io.TextIOBase):
    """Stand-in for stdout that keeps each printed line with its time."""

    def __init__(self, t0: float):
        super().__init__()
        self.t0 = t0
        self.lines: list[tuple[float, str]] = []
        self._partial = ""

    def write(self, text: str) -> int:
        self._partial += text
        while "\n" in self._partial:
            line, self._partial = self._partial.split("\n", 1)
            self.lines.append((time.perf_counter() - self.t0, line))
        return len(text)


def setup(config: dict):
    """What every run pays before its first check: import and config validation."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import levyladder  # noqa: F401
    from levyladder.runner import ExperimentConfig
    return ExperimentConfig(config)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def measure(request: dict) -> dict:
    cfg = setup(request["config"])
    from levyladder import runner

    tracer = None
    if request.get("trace"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer, install
        tracer = Tracer(request.get("run_id", "run"))
        install(tracer)

    stdout = sys.stdout
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    clock = LineClock(t0)
    sys.stdout = clock
    error = None
    try:
        runner.run(cfg)
    except Exception:  # the gate counts a raising run as failed checks
        error = traceback.format_exc(limit=3)
    finally:
        t1 = time.perf_counter()
        sys.stdout = stdout
    result = {
        "wall_s": t1 - t0,
        "cpu_s": _cpu_s() - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error": error,
        "lines": clock.lines,
    }
    if tracer is not None:
        with open(request["trace"], "w") as fh:
            json.dump(tracer.dump(), fh)
    return result


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in ("--setup", "--run"):
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as fh:
        request = json.load(fh)
    if argv[0] == "--setup":
        setup(request)
        return 0
    result = measure(request)
    with open(request["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
