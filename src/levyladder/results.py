"""Shared result types: Monte-Carlo estimates, check reports, CSV output.

CSV files are written with a deterministic float format (``repr``, shortest
round-trip) so reruns with equal seeds produce byte-identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace
from functools import reduce
from operator import add
from statistics import NormalDist
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "EstimateWithError",
    "Moments",
    "PathValues",
    "CheckReport",
    "binomial_estimate",
    "sidak_z",
    "row_budgets",
    "verdict",
    "params_hash",
    "write_csv",
]


@dataclass(frozen=True)
class EstimateWithError:
    """MC point estimate with its standard error and sample count.

    ``censored_mass`` is the fraction of paths whose defining event did not
    resolve before the configured cap; ``bias_bound`` is a deterministic
    bound on any truncation/discretisation bias baked into ``value``.  Both
    default to zero and are always reported, never silently dropped.
    """

    value: float
    se: float
    n: int
    censored_mass: float = 0.0
    bias_bound: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("sample count must be nonnegative")
        if self.se < 0 or not math.isfinite(self.se):
            raise ValueError(f"standard error must be finite and >= 0, got {self.se}")


@dataclass(frozen=True)
class Moments:
    """Count, mean and M2 (sum of squared deviations from the mean) of float
    records: one column, or one per row of a 2-D array, ``mean`` and ``m2``
    then being arrays.

    ``a + b`` merges two disjoint samples, ``a``'s records first, by the
    pairwise update of Chan, Golub & LeVeque, so :func:`fold` adds the
    moments of each chunk in chunk order as it adds counts; where the chunks
    split the records moves only the last bits of the mean and M2."""

    n: int
    mean: Any
    m2: Any

    @classmethod
    def of(cls, values: np.ndarray) -> "Moments":
        """The moments of the records along ``values``' last axis.  The mean
        is taken about the first record, so equal records give that value
        and M2 0 exactly."""
        first = values[..., :1]
        dev = values - first
        mean = first[..., 0] + dev.mean(axis=-1)
        np.subtract(values, mean[..., None], out=dev)
        np.square(dev, out=dev)
        return cls(values.shape[-1], mean, dev.sum(axis=-1))

    def __add__(self, other: "Moments") -> "Moments":
        n = self.n + other.n
        delta = other.mean - self.mean
        return Moments(n, self.mean + delta * (other.n / n),
                       self.m2 + other.m2 + delta * delta * (self.n * other.n / n))

    def __getitem__(self, j: int) -> "Moments":
        """The moments of column ``j``."""
        return Moments(self.n, self.mean[j], self.m2[j])

    def estimate(self, censored_mass: float = 0.0, bias_bound: float = 0.0
                 ) -> EstimateWithError:
        """The mean of one column with its SE ``sqrt(M2 / (n - 1) / n)``, 0 for
        ``n <= 1``."""
        se = math.sqrt(max(self.m2 / (self.n - 1), 0.0) / self.n) if self.n > 1 else 0.0
        return EstimateWithError(float(self.mean), se, self.n, censored_mass, bias_bound)


@dataclass
class PathValues:
    """One chunk of a path engine's per-path values, a record batch for
    :func:`fold`: ``values`` holds the paths along its last axis (one row
    per column), ``censored`` marks the paths stopped at a guard, and
    ``bias`` bounds what the paths stopped early leave out of their values,
    summed over the chunk."""

    values: np.ndarray
    censored: np.ndarray
    bias: float = 0.0

    @property
    def n(self) -> int:
        return self.values.shape[-1]

    def tally(self) -> tuple[Moments, float]:
        """The chunk's terms for :func:`fold`: its moments and its bias."""
        return Moments.of(self.values), self.bias


def binomial_estimate(k: int, n: int) -> EstimateWithError:
    """Binomial proportion with exact-variance SE sqrt(p(1-p)/n)."""
    if n <= 0:
        raise ValueError("n must be positive")
    p = k / n
    return EstimateWithError(p, math.sqrt(p * (1.0 - p) / n), n)


# Two-sided false-FAIL rate of a whole check, all its rows that carry an SE
# together: z = 3.89 for one row, 4.15 for three, 4.39 for nine.
CHECK_FAIL_RATE = 1e-4


def sidak_z(m: int, rate: float = CHECK_FAIL_RATE) -> float:
    """SE multiple that holds ``m`` comparisons together to the two-sided
    false-FAIL rate ``rate`` (Sidak): 3.89 for ``m <= 1``, 4.15 for ``m = 3``
    at ``CHECK_FAIL_RATE``."""
    return -NormalDist().inv_cdf(-math.expm1(math.log1p(-rate) / max(m, 1)) / 2.0)


def row_budgets(rows: Sequence[Sequence[float]], rate: float = CHECK_FAIL_RATE) -> list[float]:
    """Budget of each comparison row ``(gap, se, *terms)``: ``sidak_z(m, rate)
    * se`` plus the row's bias bounds and fixed ``terms``, added in order,
    where ``m`` counts the rows with ``se > 0`` (TV and sup-CDF rows have
    none, and only their fixed terms)."""
    z = sidak_z(sum(1 for row in rows if row[1] > 0), rate)
    return [reduce(add, terms, z * se) for _, se, *terms in rows]


def verdict(rows: Sequence[Sequence[float]], rate: float = CHECK_FAIL_RATE
            ) -> tuple[float, float]:
    """``(distance, budget)`` of the row with the largest gap/budget ratio,
    so the first is within the second iff every row is within its budget.
    A NaN gap counts as the worst.  ``rate`` is as for :func:`row_budgets`."""
    budgets = row_budgets(rows, rate)

    def ratio(i: int) -> float:
        gap, budget = rows[i][0], budgets[i]
        if budget > 0 and gap == gap:
            return gap / budget
        return 0.0 if gap <= 0 else math.inf

    worst = max(range(len(rows)), key=ratio)
    return float(rows[worst][0]), float(budgets[worst])


@dataclass
class CheckReport:
    """Outcome of one identity check: two routes, a distance and a budget.

    A check compares its routes in one or more rows (see :func:`verdict`)
    and reports the ``distance`` and ``budget`` of its worst row, so
    ``passed`` -- ``distance <= budget`` -- holds iff every row is within
    its budget.  A row's budget is ``sidak_z(m) * se`` plus its bias bounds,
    with ``m`` the number of rows that carry an SE; a TV or sup-CDF row has
    none, and a fixed budget.  ``details`` carries per-cell or per-node rows
    for the CSV report, in the order ``columns`` gives (empty: the sorted
    union of the rows' keys); ``monitors`` carries
    never-observed-event counters accumulated over all paths the check ran.
    ``measures`` holds the (empirical, exact) measures a distribution check
    compared (alpha: its two CDF tables), for callers that regroup or
    compare their cells; no file records it.
    """

    check: str
    fixture: str
    params: dict[str, Any] = field(default_factory=dict)
    lhs: float = math.nan
    rhs: float = math.nan
    se_lhs: float = 0.0
    se_rhs: float = 0.0
    distance: float = math.nan
    budget: float = math.nan
    n_paths: int = 0
    censored_mass: float = 0.0
    details: list[dict[str, Any]] = field(default_factory=list)
    columns: tuple[str, ...] = ()
    monitors: dict[str, int] = field(default_factory=dict)
    measures: tuple = field(default=(), repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return self.distance <= self.budget

    def summary_row(self) -> list[Any]:
        return [
            self.check,
            self.fixture,
            params_hash(self.params),
            self.lhs,
            self.rhs,
            self.distance,
            self.budget,
            "PASS" if self.passed else "FAIL",
        ]

    def report_row(self) -> list[Any]:
        params = ";".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return [
            self.check,
            params.replace(",", ";"),
            self.lhs,
            self.rhs,
            self.se_lhs,
            self.se_rhs,
            self.budget,
            "PASS" if self.passed else "FAIL",
        ]

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.check:<14s} {self.fixture:<4s} n={self.n_paths:<9d} "
            f"distance={self.distance:.6g} budget={self.budget:.6g} {status}"
        )


SUMMARY_HEADER = ["check", "fixture", "params_hash", "lhs", "rhs", "distance", "budget", "pass"]
REPORT_HEADER = ["check", "params", "lhs", "rhs", "se_lhs", "se_rhs", "budget", "pass"]


def params_hash(params: Mapping[str, Any]) -> str:
    """Stable short hash of a parameter mapping (order independent)."""
    blob = json.dumps(params, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


def _fmt(x: Any) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        v = float(x)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return repr(v)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """UTF-8 CSV with header row, '.' decimal separator, '\\n' newlines."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def merge_monitors(target: dict[str, int], *sources: Mapping[str, int]) -> dict[str, int]:
    """Add each source's counts into ``target``; returns ``target``."""
    for src in sources:
        for key, cnt in src.items():
            target[key] = target.get(key, 0) + int(cnt)
    return target


def join_chunks(chunks: Iterable[Any], n: int) -> Any:
    """One batch of the chunks' dataclass type holding all their ``n``
    records in order: each array field is allocated once and filled chunk
    by chunk, ``monitors`` are summed, and every other field is taken from
    the first chunk."""
    out, at = None, 0
    for part in chunks:
        arrays = {k: v for k, v in vars(part).items() if isinstance(v, np.ndarray)}
        if out is None:
            out = replace(part, **{k: np.empty((n,) + v.shape[1:], v.dtype)
                                   for k, v in arrays.items()})
            if hasattr(out, "monitors"):
                out.monitors = {}
        for k, v in arrays.items():
            getattr(out, k)[at:at + part.n] = v
        merge_monitors(getattr(out, "monitors", {}), getattr(part, "monitors", {}))
        at += part.n
    return out


def fold(chunks: Iterable[Any], tally: Callable[[Any], tuple]
         ) -> tuple[tuple, float, dict[str, int]]:
    """``(sums, censored_mass, monitors)`` of record batches drawn chunk by
    chunk: ``tally(chunk)`` summed term by term, the share of records
    marked ``censored`` and the chunks' ``monitors`` merged.  Each chunk is
    dropped once tallied.  Terms that are integer counts or integer arrays
    sum exactly, so nothing depends on where the chunks split the records;
    :class:`Moments` terms merge in chunk order, so a mean and its SE depend
    on the split only in their last bits.  No records at all is a
    ValueError: there is nothing to estimate from."""
    sums, n, n_censored, monitors = None, 0, 0, {}
    for chunk in chunks:
        part = tally(chunk)
        sums = part if sums is None else tuple(a + b for a, b in zip(sums, part))
        n += chunk.n
        n_censored += int(chunk.censored.sum())
        merge_monitors(monitors, getattr(chunk, "monitors", {}))
    if n == 0:
        raise ValueError("n must be positive: there are no records to fold")
    return sums, n_censored / n, monitors
