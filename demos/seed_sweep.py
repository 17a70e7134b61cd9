"""False-FAIL rate of each check of a benchmark workload over a seed range.

Builds the runner config of ``--workload`` for each seed with
``perfbench/workloads.make_config`` (the benchmark's own configs, so a
sweep judges exactly what the benchmark runs), runs it, and reads every
check's verdict from ``summary.csv``.  Prints one line per seed with each
check's distance/budget, then each check's FAIL count and its worst
distance/budget over the sweep, with the seed that gave it, which shows how
much headroom a budget has.  Then comes the number of seeds whose run had
any FAIL: the run-level share that the benchmark's more_failures gate
compares between two trees.

Last, each check's nominal false-FAIL rate: ``CHECK_FAIL_RATE``, or
``fixed`` for a check with a fixed-budget row (a TV, sup-CDF or mass bound
with no SE), whose rate has no nominal value; and ``--runs`` times the sum
of the nominal rates, the false FAILs to expect from one perfbench
invocation of that many runs, the fixed-budget checks left out.

    python demos/seed_sweep.py --workload lattice-tail --seeds 11-40 --runs 44
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import math
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from levyladder import runner  # noqa: E402
from levyladder.results import CHECK_FAIL_RATE  # noqa: E402
import workloads  # noqa: E402

# Checks with a fixed-budget row: quintuple's and quadruple's TV and mass
# rows, alpha's sup-CDF.
FIXED_BUDGET_CHECKS = ("quintuple", "quadruple", "alpha")


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def ratio(distance: float, budget: float) -> float:
    """distance/budget, ranked as ``results.verdict`` ranks rows: 0 for no
    gap, infinite for a gap (or NaN) over a zero budget."""
    if budget > 0 and distance == distance:
        return distance / budget
    return 0.0 if distance <= 0 else math.inf


def nominal_rates(workload: str) -> dict[str, float | None]:
    """Nominal false-FAIL rate per check (``index.check.fixture``):
    ``CHECK_FAIL_RATE``, or None for a check with a fixed-budget row."""
    return {f"{i}.{c['name']}.{c['fixture']}":
            None if c["name"] in FIXED_BUDGET_CHECKS else CHECK_FAIL_RATE
            for i, c in workloads.check_entries(workload)}


def sweep(workload: str, seeds: range
          ) -> tuple[dict[str, int], dict[str, tuple[float, int | None]], int]:
    """FAIL count and worst (distance/budget, seed) per check
    (``index.check.fixture``) over ``seeds``, and the number of seeds whose
    run had any FAIL."""
    names = [f"{i}.{c['name']}.{c['fixture']}" for i, c in workloads.check_entries(workload)]
    fails = dict.fromkeys(names, 0)
    worst: dict[str, tuple[float, int | None]] = dict.fromkeys(names, (-math.inf, None))
    failed_runs = 0
    for seed in seeds:
        with tempfile.TemporaryDirectory() as out:
            config = workloads.make_config(workload, seed, 0, out)
            with contextlib.redirect_stdout(io.StringIO()):
                runner.run(config)
            with open(os.path.join(out, "summary.csv"), encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        failed_runs += any(row["pass"] != "PASS" for row in rows)
        cells = []
        for name, row in zip(names, rows):
            fails[name] += row["pass"] != "PASS"
            r = ratio(float(row["distance"]), float(row["budget"]))
            if r > worst[name][0]:
                worst[name] = (r, seed)
            cells.append(f"{name} {float(row['distance']):.4g}/{float(row['budget']):.4g} "
                         f"{row['pass']}")
        print(f"seed {seed}: " + "; ".join(cells), flush=True)
    return fails, worst, failed_runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", default="11-40", help="inclusive range, e.g. 11-40")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs of one perfbench invocation, for its expected false FAILs")
    args = parser.parse_args(argv)
    seeds = seed_range(args.seeds)
    fails, worst, failed_runs = sweep(args.workload, seeds)
    for name, count in fails.items():
        r, seed = worst[name]
        print(f"{name}: {count}/{len(seeds)} FAIL, worst distance/budget {r:.3g}"
              f" (seed {seed})")
    print(f"runs with any FAIL: {failed_runs}/{len(seeds)}")
    rates = nominal_rates(args.workload)
    for name, rate in rates.items():
        print(f"{name}: nominal false-FAIL rate {'fixed' if rate is None else f'{rate:g}'}")
    expected = args.runs * sum(rate for rate in rates.values() if rate is not None)
    print(f"expected false FAILs in {args.runs} runs: {expected:.3g}"
          " (fixed-budget checks not counted)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
