"""False-FAIL rate of each check of a benchmark workload over a seed range.

Builds the runner config of ``--workload`` for each seed with
``perfbench/workloads.make_config`` (the benchmark's own configs, so a
sweep judges exactly what the benchmark runs), runs it, and reads every
check's verdict from ``summary.csv``.  Prints one line per seed with each
check's distance/budget, then each check's FAIL count.

    python demos/seed_sweep.py --workload lattice-tail --seeds 11-40
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from levyladder import runner  # noqa: E402
import workloads  # noqa: E402


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def sweep(workload: str, seeds: range) -> dict[str, int]:
    """FAIL count per check (``index.check.fixture``) over ``seeds``."""
    names = [f"{i}.{c['name']}.{c['fixture']}" for i, c in workloads.check_entries(workload)]
    fails = dict.fromkeys(names, 0)
    for seed in seeds:
        with tempfile.TemporaryDirectory() as out:
            config = workloads.make_config(workload, seed, 0, out)
            with contextlib.redirect_stdout(io.StringIO()):
                runner.run(config)
            with open(os.path.join(out, "summary.csv"), encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        cells = []
        for name, row in zip(names, rows):
            fails[name] += row["pass"] != "PASS"
            cells.append(f"{name} {float(row['distance']):.4g}/{float(row['budget']):.4g} "
                         f"{row['pass']}")
        print(f"seed {seed}: " + "; ".join(cells), flush=True)
    return fails


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", default="11-40", help="inclusive range, e.g. 11-40")
    args = parser.parse_args(argv)
    seeds = seed_range(args.seeds)
    fails = sweep(args.workload, seeds)
    for name, count in fails.items():
        print(f"{name}: {count}/{len(seeds)} FAIL")
    return 0


if __name__ == "__main__":
    sys.exit(main())
