"""Benchmark workloads: runner configs generated from a seed.

Each workload is a list of checks taken from ``demos/full_suite.json`` with
their shipped parameters.  Together the three workloads cover all 18 checks
of that suite exactly once.  Per-check metrics are named by the check's
position in the suite, so a check keeps one name whichever workload runs it.

The program under test receives only the config built here; the seed is the
only input that varies between runs.  No workload sets ``workers`` or
``chunk_size``: a parallelism gain should show only when the program chooses
it from what it can observe.
"""

from __future__ import annotations

import hashlib
from typing import Any

# The 18 checks of demos/full_suite.json, in suite order, with the suite
# default n (100000) written out where the suite leaves it implicit.
FULL_SUITE: list[dict[str, Any]] = [
    {"name": "p-estimate", "fixture": "P1", "t": 0.3,
     "u": [0.1, 0.2, 0.3, 0.5, 0.8, 1.1, 1.2, 1.3, 1.5, 2.0, 2.2, 2.3], "n": 100000},
    {"name": "ct1", "fixture": "P1", "t": 0.5, "u": 0.25, "delta": 0.005, "n": 400000},
    {"name": "ct1", "fixture": "P1", "t": 0.5, "u": 0.45, "delta": 0.005, "n": 400000},
    {"name": "V-grid", "fixture": "B1", "t": [0.5, 1.0, 2.0], "u": [0.5, 1.0, 2.0], "n": 100000},
    {"name": "subpint", "fixture": "P1", "t": 0.5, "u": 0.4, "n": 100000},
    {"name": "subpint", "fixture": "B1", "t": 0.5, "u": 0.9, "n": 100000},
    {"name": "quintuple", "fixture": "P3", "u": 2.0, "cap": 50000.0, "n": 400000},
    {"name": "quintuple", "fixture": "P1", "u": 0.5, "n": 400000},
    {"name": "quadruple", "fixture": "B1", "u": 1.5, "n": 400000},
    {"name": "amicale", "fixture": "P3", "n": 400000},
    {"name": "amicale", "fixture": "P2", "n": 200000},
    {"name": "amicale", "fixture": "P1", "n": 200000},
    {"name": "slfi", "fixture": "B1", "mu": 1, "rho": 2, "ell": 0, "nu": 1, "theta": 1,
     "n": 100000},
    {"name": "slfi", "fixture": "B1", "mu": 1, "rho": 2, "ell": 1, "nu": 0.5, "theta": 0.5,
     "n": 100000},
    {"name": "slfi-fluct", "fixture": "P2", "mu": 1, "rho": 2, "ell": 0, "nu": 1, "theta": 1,
     "n": 400000},
    {"name": "wiener-hopf", "fixture": "P3", "a": [0.5, 1.0, 2.0], "n": 200000},
    {"name": "resolvent", "fixture": "S1", "q": 1.0, "u": 0.5, "n": 200000},
    {"name": "alpha", "fixture": "P3", "n": 400000},
]

# Workload name -> (full-suite indices, n override or None for the shipped n).
# lattice-tail: the zero-drift P3 walk keeps ~48k loop iterations per chunk
#   going on a small active set, so passage and processes.sample_jumps dominate.
# box-occupation: the renewal reducers loop over boxes in Python on wide
#   active sets with few draw calls.
# suite-breadth: the remaining 15 checks, wide and short loops over many
#   chunks; exercises lawcheck's exact composition, transforms, rng and results.
WORKLOADS: dict[str, tuple[tuple[int, ...], int | None]] = {
    "lattice-tail": ((6,), 65536),
    "box-occupation": ((8, 7), 131072),
    "suite-breadth": ((0, 1, 2, 3, 4, 5, 9, 10, 11, 12, 13, 14, 15, 16, 17), None),
}


def derive_seed(workload: str, seed: int, rep: int) -> int:
    """Runner seed for repetition ``rep`` of ``workload`` under ``--seed``."""
    digest = hashlib.sha256(f"{workload}:{seed}:{rep}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def check_entries(workload: str) -> list[tuple[int, dict[str, Any]]]:
    """(full-suite index, check entry) pairs of ``workload``, in run order."""
    indices, n = WORKLOADS[workload]
    out = []
    for i in indices:
        entry = dict(FULL_SUITE[i])
        if n is not None:
            entry["n"] = n
        out.append((i, entry))
    return out


def make_config(workload: str, seed: int, rep: int, out_dir: str) -> dict[str, Any]:
    """Runner config for repetition ``rep`` of ``workload`` under ``--seed``."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    return {
        "seed": derive_seed(workload, seed, rep),
        "out": out_dir,
        "checks": [entry for _, entry in check_entries(workload)],
    }


def paths_requested(config: dict[str, Any]) -> int:
    """Paths the config asks for: the sum of each check's sample count n."""
    default_n = int(config.get("n", 10000))
    return sum(int(c.get("n", default_n)) for c in config["checks"])


def check_metric_names() -> list[str]:
    """Per-check metric names, one per full-suite check."""
    return [f"check.{i}.{c['name']}.{c['fixture']}.busy_s" for i, c in enumerate(FULL_SUITE)]
