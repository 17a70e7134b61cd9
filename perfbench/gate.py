"""Correctness gate on one runner output directory.

A check counts as failed when its ``summary.csv`` verdict is not PASS,
when the run raised, when ``monitors.csv`` holds a nonzero count, or when a
same-seed rerun wrote different bytes to one of its deterministic CSVs.
``monitors.csv`` aggregates over the whole run, so a nonzero monitor fails
every check of that run; a byte difference in a file that belongs to one
check (``checkNN_*.csv``, or its row of ``summary.csv``/``reports.csv``)
fails that check, and one elsewhere fails them all.

A FAIL verdict is a statistical outcome: a Monte-Carlo check whose budget
does not scale with n FAILs at some rate on correct code.  The gate
therefore also reports the checks that broke a rule that correct code never
breaks (raising, a monitor, a byte difference); the benchmark's ``correct``
flag rests on those, while every failure counts in ``failed``.
"""

from __future__ import annotations

import csv
import os
import re

_CHECK_FILE = re.compile(r"^check(\d+)_")
_ROW_FILES = ("summary.csv", "reports.csv")


def _csv_files(out_dir: str) -> dict[str, bytes]:
    files = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                files[name] = fh.read()
    return files


def verdicts(out_dir: str, n_checks: int) -> tuple[set[int], set[int], list[str]]:
    """Failed and broken check indices, with reasons, from ``summary.csv``
    and ``monitors.csv`` (see :func:`gate`)."""
    everything = set(range(n_checks))
    try:
        with open(os.path.join(out_dir, "summary.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(os.path.join(out_dir, "monitors.csv"), newline="") as fh:
            monitors = list(csv.DictReader(fh))
    except OSError as exc:
        return everything, everything, [f"output unreadable: {exc}"]
    failed: set[int] = set()
    broken: set[int] = set()
    problems: list[str] = []
    for i in range(n_checks):
        if i >= len(rows):
            broken.add(i)
            problems.append(f"check {i}: no summary row")
        elif rows[i].get("pass") != "PASS":
            failed.add(i)
            problems.append(f"check {i} ({rows[i].get('check')} {rows[i].get('fixture')}): "
                            f"verdict {rows[i].get('pass')}")
    for row in monitors:
        if int(row["count"]) != 0:
            broken |= everything
            problems.append(f"monitor {row['monitor']} = {row['count']} (must be 0)")
    return failed | broken, broken, problems


def compare_outputs(out_dir: str, ref_dir: str, n_checks: int) -> tuple[set[int], list[str]]:
    """Checks whose deterministic CSVs differ between two same-seed runs."""
    everything = set(range(n_checks))
    a, b = _csv_files(ref_dir), _csv_files(out_dir)
    failed: set[int] = set()
    problems: list[str] = []
    for name in sorted(set(a) | set(b)):
        if a.get(name) == b.get(name):
            continue
        problems.append(f"{name} differs from the same-seed rerun")
        m = _CHECK_FILE.match(name)
        if m and int(m.group(1)) < n_checks:
            failed.add(int(m.group(1)))
        elif name in _ROW_FILES and name in a and name in b:
            lines_a, lines_b = a[name].split(b"\n"), b[name].split(b"\n")
            # row i of the file is check i; line 0 is the header
            rows = {i - 1 for i, (x, y) in enumerate(zip(lines_a, lines_b)) if x != y}
            per_check = len(lines_a) == len(lines_b) and -1 not in rows and rows <= everything
            failed |= rows if per_check else everything
        else:
            failed |= everything
    return failed, problems


def gate(out_dir: str, n_checks: int, error: str | None = None,
         ref_dir: str | None = None) -> tuple[set[int], set[int], list[str]]:
    """Failed check indices, those among them that broke a deterministic
    rule (everything but a FAIL verdict), and a reason for each failure.

    ``error`` is the exception the run raised, if any; ``ref_dir`` is the
    output of an earlier same-seed run whose CSVs must match byte for byte.
    """
    if error is not None:
        everything = set(range(n_checks))
        return everything, everything, [f"run raised: {error}"]
    failed, broken, problems = verdicts(out_dir, n_checks)
    if ref_dir is not None:
        f2, p2 = compare_outputs(out_dir, ref_dir, n_checks)
        failed |= f2
        broken |= f2
        problems += p2
    return failed, broken, problems
