"""levyladder benchmark: three workloads through ``levyladder.runner.run``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads are defined in ``workloads.py``.

``--trace 0`` measures the end-to-end metrics.  It first times ``SETUP_PROBES``
fresh interpreters that import ``levyladder`` and validate the workload
config (``setup_s``, their median).  It then runs the workload in fresh
interpreters, one run at a time, for about ``--seconds`` seconds and at
least ``MIN_RUNS`` runs: run 0, a same-seed rerun of it, then a new derived
seed per run.  ``wall_s``, ``cpu_s``, ``paths_per_s`` and ``peak_rss_mb`` are
medians over those runs.

``--trace 1`` makes one untraced run and two traced runs of the same seed
and prints the per-layer metrics (mean of the two traced runs; counts must
repeat exactly).  ``trace.overhead_s`` is the traced wall time minus the
untraced one.

Every run goes through the correctness gate (``gate.py``): all verdicts
PASS, all monitors zero, and same-seed runs, traced or not, write
byte-identical CSVs.
The last line of stdout is one JSON object with ``correct``, ``attempted``
and ``failed`` (check executions) and ``metrics``.  ``failed`` counts every
check execution the gate failed; ``correct`` is false when one broke a
deterministic rule (raised, tripped a monitor, changed a byte) or when a
traced count did not repeat.  A FAIL verdict alone is counted in ``failed``
but leaves ``correct`` true, because fixed-tolerance Monte-Carlo budgets
FAIL at some rate on correct code (see ``gate.py``).  The exit code is 0 when
the benchmark ran, whatever the gate found; it is 2 when the program is
missing or a run could not be measured.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
MIN_RUNS = 3  # run 0, its same-seed rerun, and one more seed
DEADLINE_S = 170.0  # the whole benchmark ends within this, or fails
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

_DEADLINE = time.monotonic() + DEADLINE_S


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed check)."""


def _python(args: list[str]) -> subprocess.CompletedProcess:
    timeout = max(_DEADLINE - time.monotonic(), 1.0)
    try:
        return subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + args,
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} passed the {DEADLINE_S:.0f} s deadline") from exc


def setup_times(config_path: str) -> list[float]:
    """Wall time of fresh interpreters importing the package and validating the config."""
    times = []
    for k in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        proc = _python(["--setup", config_path])
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        if k:  # the first probe may compile bytecode; it is not timed
            times.append(elapsed)
    return times


def run_once(work: str, tag: str, config: dict, trace: bool) -> dict:
    """One fresh-interpreter run of ``config``; returns the worker's measurements."""
    out_dir = os.path.join(work, tag)
    config = dict(config, out=out_dir)
    request = {"config": config, "result": os.path.join(work, f"{tag}.result.json"),
               "trace": os.path.join(work, f"{tag}.spans.json") if trace else None,
               "run_id": tag}
    req_path = os.path.join(work, f"{tag}.request.json")
    with open(req_path, "w") as fh:
        json.dump(request, fh)
    proc = _python(["--run", req_path])
    if proc.returncode != 0:
        raise BenchError(f"worker for {tag} exited {proc.returncode}:\n{proc.stderr}")
    with open(request["result"]) as fh:
        result = json.load(fh)
    result["out_dir"] = out_dir
    if trace:
        with open(request["trace"]) as fh:
            result["spans"] = json.load(fh)["spans"]
    return result


class Tally:
    """Check executions attempted, failed and broken, with the reasons."""

    def __init__(self, n_checks: int):
        self.n_checks = n_checks
        self.attempted = 0
        self.failed = 0
        self.broken = 0
        self.problems: list[str] = []

    def add(self, tag: str, result: dict, ref: dict | None = None) -> None:
        failed, broken, problems = gate.gate(result["out_dir"], self.n_checks,
                                             result["error"], ref["out_dir"] if ref else None)
        self.attempted += self.n_checks
        self.failed += len(failed)
        self.broken += len(broken)
        self.problems += [f"{tag}: {p}" for p in problems]


def check_times(workload: str, result: dict) -> dict[str, float]:
    """Per-check busy time from the timestamped lines the runner prints."""
    entries = workloads.check_entries(workload)
    times = {name: 0.0 for name in workloads.check_metric_names()}
    lines = result["lines"]
    if len(lines) != len(entries) or any(
            not text.startswith(entry["name"]) for (_, text), (_, entry) in zip(lines, entries)):
        return times  # the runner no longer prints one line per check
    start = 0.0
    for (t, _), (i, entry) in zip(lines, entries):
        times[f"check.{i}.{entry['name']}.{entry['fixture']}.busy_s"] = t - start
        start = t
    return times


def timed(workload: str, seed: int, seconds: float, work: str, tally: Tally) -> dict:
    cfg_path = os.path.join(work, "setup_config.json")
    with open(cfg_path, "w") as fh:
        json.dump(workloads.make_config(workload, seed, 0, os.path.join(work, "setup")), fh)
    setup = setup_times(cfg_path)

    runs = []
    t_begin = time.perf_counter()
    # Start another run while it would end nearer to ``seconds`` than stopping now.
    while len(runs) < MIN_RUNS or (time.perf_counter() - t_begin
                            + statistics.median(r["wall_s"] for r in runs) / 2 < seconds):
        k = len(runs)
        rep = max(k - 1, 0)  # runs 0 and 1 share a seed: the rerun check
        config = workloads.make_config(workload, seed, rep, "")
        result = run_once(work, f"run{k}", config, trace=False)
        result["paths"] = workloads.paths_requested(config)
        tally.add(f"run{k}", result, runs[0] if k == 1 else None)
        runs.append(result)

    print(f"{workload}: {len(runs)} runs, walls "
          + " ".join(f"{r['wall_s']:.3f}" for r in runs) + " s; set-up probes "
          + " ".join(f"{t:.3f}" for t in setup) + " s", file=sys.stderr)
    return summarize(runs, setup)


def summarize(runs: list[dict], setup: list[float]) -> dict[str, float]:
    """End-to-end metrics: medians over the runs and over the set-up probes."""
    def med(key):
        return statistics.median(r[key] for r in runs)

    return {
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "paths_per_s": statistics.median(r["paths"] / r["wall_s"] for r in runs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": med("peak_rss_mb"),
    }


def traced(workload: str, seed: int, work: str, tally: Tally) -> tuple[dict, bool]:
    config = workloads.make_config(workload, seed, 0, "")
    plain = run_once(work, "plain", config, trace=False)
    tally.add("plain", plain)
    runs = []
    for k in range(2):
        result = run_once(work, f"traced{k}", config, trace=True)
        tally.add(f"traced{k}", result, plain)
        result["metrics"] = tracing.layer_metrics(result.pop("spans"), result["wall_s"])
        result["metrics"].update(check_times(workload, result))
        runs.append(result)

    repeat = True
    for name in tracing.EXACT_COUNTS:
        values = [r["metrics"][name] for r in runs]
        if values[0] != values[1]:
            repeat = False
            tally.problems.append(f"{name} does not repeat: {values}")
    # counts repeat exactly (checked above); times are the mean of the two runs
    metrics = {name: a if isinstance(a, int) else (a + runs[1]["metrics"][name]) / 2
               for name, a in runs[0]["metrics"].items()}
    metrics["trace.overhead_s"] = statistics.mean(r["wall_s"] for r in runs) - plain["wall_s"]
    wall = statistics.mean(r["wall_s"] for r in runs)
    shares = {layer: metrics[f"{layer}.self_s"] / wall for layer in tracing.LAYERS}
    print(f"{workload}: traced wall {wall:.3f} s (untraced {plain['wall_s']:.3f} s); self-time "
          "shares " + " ".join(f"{k}={v:.1%}" for k, v in sorted(shares.items(),
                                                                  key=lambda kv: -kv[1]))
          + f" unattributed={metrics['trace.unattributed_s'] / wall:.1%}", file=sys.stderr)
    return metrics, repeat


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit for a section of BENCHMARK.json, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "levyladder", "runner.py")):
        print("benchmark: src/levyladder is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    n_checks = len(workloads.check_entries(args.workload))
    tally = Tally(n_checks)
    work = os.path.join(OUT_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        if args.trace:
            units = metric_units("per_layer")
            values, repeat = traced(args.workload, args.seed, work, tally)
        else:
            units = metric_units("end_to_end")
            values = timed(args.workload, args.seed, args.seconds, work, tally)
            repeat = True
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in tally.problems:
        print(f"gate: {p}", file=sys.stderr)
    correct = tally.broken == 0 and repeat
    for name, unit in units.items():
        print(f"{args.workload:<15s} {name:<36s} {values[name]:>14.6g} {unit}")
    counts = "" if not args.trace else "; counts repeat" if repeat else "; counts DO NOT repeat"
    print(f"{args.workload:<15s} gate: {'PASS' if correct and not tally.failed else 'FAIL'}: "
          f"{tally.failed} of {tally.attempted} check runs failed, {tally.broken} of them by "
          f"a deterministic rule{counts}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
