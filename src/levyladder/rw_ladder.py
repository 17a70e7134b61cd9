"""Exact ladder structure of lattice random walks embedded in compound
Poisson processes.

For a zero-drift compound Poisson process ``X`` with lattice jumps, the jump
chain ``S_n`` determines the bivariate ladder renewal functions of ``X``
exactly: if ``U(k, x)`` (weak ascending) and ``Uhat(k, x)`` (strict
descending) are the walk's bivariate ladder renewal masses at epoch ``k``,
then mixing over the Erlang jump-time distribution gives

    V(t, x)    = rate^{-1} * sum_k P(sigma_{k+1} <= t) U(k, x)
    Vhat(t, x) =             sum_k P(sigma_k     <= t) Uhat(k, x)

with ``sigma_k`` the k-th jump time.  Everything in this module is exact:
tables are computed in rational arithmetic (or float for deep truncations),
and every truncated quantity returns a rigorous tail bound next to its value.

Two independent computational routes to the same tables are provided:

* :func:`renewal_tables` -- forward dynamic programming over the state
  (gap to running extremum, running extremum), using the characterisation
  "k is a weak ascending ladder epoch iff S_k >= max_{j<k} S_j" (and the
  strict-descending mirror).  The characterisation is an implementation
  lemma; it is validated against :func:`brute_force_tables`, which
  enumerates all paths and applies the chained ladder-time definition.
* :func:`stay_region_layers` -- the time-reversal identities
  ``U(k, {w}) = P(S_j >= 0 for j <= k, S_k = w)`` and
  ``Uhat(k, {v}) = P(S_j < 0 for 1 <= j <= k, S_k = -v)``, one-dimensional
  recursions fast enough for deep truncations.

All-epoch totals ``sum_k U(k, {w})`` (needed for time-unbounded cells of
composed laws) are Green functions of the walk killed outside the stay
region; :func:`green_function` computes them by a banded linear solve with a
ceiling-doubling error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Literal, Sequence

import numpy as np
from scipy.linalg import solve_banded

from .processes import DiscreteAtoms, ProcessSpec
from .results import write_csv

__all__ = [
    "LatticeWalkSpec",
    "LadderRenewalTable",
    "ladder_epochs",
    "brute_force_tables",
    "renewal_tables",
    "stay_region_layers",
    "green_function",
    "v_exact",
    "vhat_exact",
    "poisson_sf",
    "poisson_tail_mean",
    "poisson_index_cap",
]

Mode = Literal["weak-ascending", "strict-ascending", "strict-descending"]


# ---------------------------------------------------------------------------
# Walk specification
# ---------------------------------------------------------------------------


def _fraction_gcd(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(math.gcd(a.numerator * b.denominator, b.numerator * a.denominator),
                    a.denominator * b.denominator)


@dataclass(frozen=True)
class LatticeWalkSpec:
    """Lattice random walk: integer steps (in units of ``h``) with exact
    rational probabilities, plus the Poisson rate embedding it in time."""

    h: float
    steps: tuple[int, ...]
    probs: tuple[Fraction, ...]
    rate: float

    def __post_init__(self) -> None:
        if not (self.h > 0):
            raise ValueError("lattice step h must be positive")
        if not (self.rate > 0):
            raise ValueError("embedding rate must be positive")
        if len(self.steps) != len(self.probs) or not self.steps:
            raise ValueError("steps and probs must be nonempty and aligned")
        if any(s == 0 for s in self.steps):
            raise ValueError("step value 0 is not allowed")
        if len(set(self.steps)) != len(self.steps):
            raise ValueError("duplicate steps")
        if any(p <= 0 for p in self.probs):
            raise ValueError("step probabilities must be positive")
        if sum(self.probs, Fraction(0)) != 1:
            raise ValueError("step probabilities must sum to 1 exactly")

    @property
    def max_step(self) -> int:
        return max(abs(s) for s in self.steps)

    @classmethod
    def from_process(cls, spec: ProcessSpec) -> "LatticeWalkSpec":
        """Embedded walk of a zero-drift compound Poisson lattice process."""
        if not spec.is_compound_poisson:
            raise ValueError("embedded walk requires a zero-drift compound Poisson process")
        if not isinstance(spec.jumps, DiscreteAtoms):
            raise ValueError("embedded walk requires an atomic jump law")
        frac_values = [Fraction(v) for v in spec.jumps.values]
        h = reduce(_fraction_gcd, [abs(v) for v in frac_values])
        steps = tuple(int(v / h) for v in frac_values)
        return cls(h=float(h), steps=steps, probs=spec.jumps.probs, rate=spec.rate)


# ---------------------------------------------------------------------------
# Ladder epochs of a concrete path (definitional scanner)
# ---------------------------------------------------------------------------


def ladder_epochs(path: Sequence[float], mode: Mode) -> list[tuple[int, float]]:
    """Ladder epochs and heights of a finite walk path, by the chained
    definition ``t_{n+1} = min{m > t_n : S_m (>=, >, <) S_{t_n}}``.

    Strict-descending heights are reported with the positive sign
    convention ``hhat_n = -S_{t_n} >= 0``.
    """
    if len(path) == 0 or path[0] != 0:
        raise ValueError("path must start at S_0 = 0")
    out: list[tuple[int, float]] = []
    anchor = path[0]
    k = 0
    n = len(path) - 1
    while True:
        nxt = None
        for m in range(k + 1, n + 1):
            if mode == "weak-ascending" and path[m] >= anchor:
                nxt = m
                break
            if mode == "strict-ascending" and path[m] > anchor:
                nxt = m
                break
            if mode == "strict-descending" and path[m] < anchor:
                nxt = m
                break
        if nxt is None:
            return out
        k = nxt
        anchor = path[k]
        height = -anchor if mode == "strict-descending" else anchor
        out.append((k, height))


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LadderRenewalTable:
    """Bivariate ladder renewal masses of the walk up to epoch ``K``.

    ``u_layers[k]`` maps a lattice height ``j`` (units of ``h``) to the mass
    ``U(k, {j h}) = sum_n P(t_n = k, h_n = j h)``; ``uhat_layers`` likewise
    for the strict descending process.  Heights enter cumulative queries via
    a closed upper interval (heights <= x).
    """

    spec: LatticeWalkSpec
    K: int
    u_layers: tuple[dict[int, object], ...]
    uhat_layers: tuple[dict[int, object], ...]
    exact: bool

    def _cum(self, layers, k: int, x: float) -> float:
        if k < 0 or k > self.K:
            raise IndexError(f"epoch {k} outside table range [0, {self.K}]")
        if x < 0:
            return 0.0
        jmax = math.floor(x / self.spec.h + 1e-12)
        return float(sum(m for j, m in layers[k].items() if j <= jmax))

    def u(self, k: int, x: float) -> float:
        return self._cum(self.u_layers, k, x)

    def uhat(self, k: int, x: float) -> float:
        return self._cum(self.uhat_layers, k, x)

    def to_csv(self, path: str) -> None:
        rows = []
        jmax_u = max((max(d) for d in self.u_layers if d), default=0)
        jmax_uh = max((max(d) for d in self.uhat_layers if d), default=0)
        for k in range(self.K + 1):
            for j in range(0, max(jmax_u, jmax_uh) + 1):
                rows.append([k, j, self.u(k, j * self.spec.h), self.uhat(k, j * self.spec.h)])
        write_csv(path, ["k", "j", "U", "Uhat"], rows)


def brute_force_tables(spec: LatticeWalkSpec, K: int) -> LadderRenewalTable:
    """Exhaustive-path oracle: enumerate all |steps|^K paths with exact
    probabilities and scan each with the chained ladder definition."""
    if K < 0:
        raise ValueError("K must be nonnegative")
    u_layers: list[dict[int, Fraction]] = [dict() for _ in range(K + 1)]
    uhat_layers: list[dict[int, Fraction]] = [dict() for _ in range(K + 1)]
    u_layers[0][0] = Fraction(1)
    uhat_layers[0][0] = Fraction(1)
    step_probs = list(zip(spec.steps, spec.probs))

    def rec(path: list[int], prob: Fraction) -> None:
        if len(path) - 1 == K:
            for k, height in ladder_epochs(path, "weak-ascending"):
                u_layers[k][height] = u_layers[k].get(height, Fraction(0)) + prob
            for k, height in ladder_epochs(path, "strict-descending"):
                uhat_layers[k][height] = uhat_layers[k].get(height, Fraction(0)) + prob
            return
        for y, p in step_probs:
            path.append(path[-1] + y)
            rec(path, prob * p)
            path.pop()

    rec([0], Fraction(1))
    return LadderRenewalTable(spec, K, tuple(u_layers), tuple(uhat_layers), exact=True)


def renewal_tables(
    spec: LatticeWalkSpec,
    K: int,
    exact: bool | None = None,
    max_states: int = 2_000_000,
) -> LadderRenewalTable:
    """Forward DP over (gap to running extremum, running extremum).

    Weak ascending: state ``(D, M)`` with ``D = max - S`` and ``M = max``;
    step ``y`` makes epoch ``k+1`` a weak ascending ladder epoch iff
    ``y >= D``, landing at height ``M + (y - D)``.  Strict descending:
    state ``(E, m)`` with ``E = S - min``, ``m = -min``; epoch iff
    ``E + y < 0``, landing at depth ``m - (E + y)``.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    if exact is None:
        exact = K <= 40
    one = Fraction(1) if exact else 1.0
    probs = list(spec.probs) if exact else [float(p) for p in spec.probs]
    steps = spec.steps

    u_layers: list[dict[int, object]] = [{0: one}]
    uhat_layers: list[dict[int, object]] = [{0: one}]

    asc: dict[tuple[int, int], object] = {(0, 0): one}
    desc: dict[tuple[int, int], object] = {(0, 0): one}
    for _ in range(K):
        new_asc: dict[tuple[int, int], object] = {}
        u_row: dict[int, object] = {}
        for (d, mx), mass in asc.items():
            for y, p in zip(steps, probs):
                w = mass * p
                if y >= d:
                    m2 = mx + (y - d)
                    key = (0, m2)
                    u_row[m2] = u_row.get(m2, 0 * one) + w
                else:
                    key = (d - y, mx)
                new_asc[key] = new_asc.get(key, 0 * one) + w
        new_desc: dict[tuple[int, int], object] = {}
        uh_row: dict[int, object] = {}
        for (e, mn), mass in desc.items():
            for y, p in zip(steps, probs):
                w = mass * p
                if e + y < 0:
                    m2 = mn - (e + y)
                    key = (0, m2)
                    uh_row[m2] = uh_row.get(m2, 0 * one) + w
                else:
                    key = (e + y, mn)
                new_desc[key] = new_desc.get(key, 0 * one) + w
        if len(new_asc) > max_states or len(new_desc) > max_states:
            raise MemoryError(
                f"ladder DP state space exceeds {max_states} states; "
                "reduce K or the step support"
            )
        asc, desc = new_asc, new_desc
        u_layers.append(u_row)
        uhat_layers.append(uh_row)

    return LadderRenewalTable(spec, K, tuple(u_layers), tuple(uhat_layers), exact=exact)


def stay_region_layers(
    spec: LatticeWalkSpec,
    K: int,
    mode: Mode,
) -> list[dict[int, float]]:
    """Time-reversal route to the same masses, as 1-D float recursions.

    ``mode='weak-ascending'`` returns layers ``p_k(w) = U(k, {w h})`` via the
    stay-nonnegative walk; ``'strict-descending'`` returns
    ``p_k(v) = Uhat(k, {v h})`` (keys are depths ``v >= 0``) via the
    stay-strictly-negative walk; ``'strict-ascending'`` via strictly
    positive.  Fast enough for deep truncations where the joint-state DP is
    not.
    """
    probs = [float(p) for p in spec.probs]
    layers: list[dict[int, float]] = [{0: 1.0}]
    cur = {0: 1.0}
    for k in range(K):
        nxt: dict[int, float] = {}
        for w, mass in cur.items():
            for y, p in zip(spec.steps, probs):
                w2 = w + y
                if mode == "weak-ascending" and w2 < 0:
                    continue
                if mode == "strict-ascending" and w2 <= 0:
                    continue
                if mode == "strict-descending" and w2 >= 0:
                    continue
                nxt[w2] = nxt.get(w2, 0.0) + mass * p
        cur = nxt
        if mode == "strict-descending":
            layers.append({-w: m for w, m in cur.items()})
        else:
            layers.append(dict(cur))
    return layers


# ---------------------------------------------------------------------------
# All-epoch totals: Green functions of the killed walk
# ---------------------------------------------------------------------------


def green_function(
    spec: LatticeWalkSpec,
    mode: Mode,
    w_max: int,
    ceiling: int = 4096,
) -> tuple[np.ndarray, np.ndarray]:
    """All-epoch ladder mass totals ``sum_k U(k, {w h})`` for ``w <= w_max``.

    By time reversal these are Green functions: expected visit counts to
    ``w`` of the walk killed on leaving the stay region.  Solved as a banded
    linear system truncated at ``ceiling``; the returned ``bound`` array is
    a per-state error estimate obtained by doubling the ceiling (the
    truncated values increase to the true ones, and for the oscillating
    walks used here the omitted mass decays like 1/ceiling, so twice the
    doubling increment is a safe report).
    """
    if w_max >= ceiling // 4:
        raise ValueError("ceiling should be much larger than w_max")
    g1 = _green_truncated(spec, mode, ceiling)[: w_max + 1]
    g2 = _green_truncated(spec, mode, 2 * ceiling)[: w_max + 1]
    bound = 2.0 * np.abs(g2 - g1)
    return g2, bound


def _green_truncated(spec: LatticeWalkSpec, mode: Mode, ceiling: int) -> np.ndarray:
    m = spec.max_step
    n = ceiling
    probs = [float(p) for p in spec.probs]

    # g = source + g P_region  =>  (I - P)^T g = source, banded with width m.
    def pos(i: int) -> int:
        if mode == "weak-ascending":
            return i
        if mode == "strict-ascending":
            return i + 1
        return -(i + 1)

    def idx(w: int) -> int | None:
        if mode == "weak-ascending":
            return w if 0 <= w < n else None
        if mode == "strict-ascending":
            return w - 1 if 1 <= w <= n else None
        return (-w) - 1 if 1 <= -w <= n else None

    ab = np.zeros((2 * m + 1, n))
    source = np.zeros(n)

    if mode == "weak-ascending":
        source[0] = 1.0  # the epoch-0 visit at height 0 lies inside the region
    else:
        # region excludes the start state; source is the first entry step
        for y, p in zip(spec.steps, probs):
            i = idx(y)
            if i is not None:
                source[i] += p

    for j in range(n):  # from-state (column of (I - P)^T)
        ab[m, j] += 1.0
        w_from = pos(j)
        for y, p in zip(spec.steps, probs):
            i = idx(w_from + y)
            if i is None:
                continue
            ab[m + i - j, j] -= p  # row i, column j
    g = solve_banded((m, m), ab, source)
    if mode != "weak-ascending":
        g = np.concatenate([[1.0], g])  # the epoch-0 mass sits at height/depth 0
    return g


# ---------------------------------------------------------------------------
# Poisson / Erlang mixing
# ---------------------------------------------------------------------------


def _poisson_pmf_array(mu: float, jmax: int) -> np.ndarray:
    """pmf[0..jmax], stable for large mu (recursed outward from the mode)."""
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    pmf = np.zeros(jmax + 1)
    if mu == 0:
        pmf[0] = 1.0
        return pmf
    j0 = min(int(mu), jmax)
    logp = j0 * math.log(mu) - mu - math.lgamma(j0 + 1)
    pmf[j0] = math.exp(logp)
    for j in range(j0, 0, -1):
        pmf[j - 1] = pmf[j] * j / mu
    for j in range(j0, jmax):
        pmf[j + 1] = pmf[j] * mu / (j + 1)
    return pmf


def _jmax_for(mu: float, kmax: int) -> int:
    return int(mu + 40.0 * math.sqrt(mu + 1.0) + 60.0) + kmax


def poisson_sf(mu: float, kmax: int) -> np.ndarray:
    """``S[k] = P(N >= k)`` for ``k = 0..kmax``, N ~ Poisson(mu).

    Equivalently the Erlang probabilities ``P(sigma_k <= t)`` with
    ``mu = rate * t``.  Computed by suffix-summing the pmf so small tails
    keep full relative accuracy.
    """
    jmax = _jmax_for(mu, kmax)
    pmf = _poisson_pmf_array(mu, jmax)
    suffix = np.cumsum(pmf[::-1])[::-1]
    out = np.minimum(suffix[: kmax + 1], 1.0)
    return out


def poisson_tail_mean(mu: float, j: int) -> float:
    """``E[(N - j)^+]`` for N ~ Poisson(mu): the Erlang truncation tail
    ``sum_{m > j} P(N >= m)``."""
    jmax = _jmax_for(mu, j)
    pmf = _poisson_pmf_array(mu, jmax)
    suffix = np.cumsum(pmf[::-1])[::-1]
    if j + 1 > jmax:
        return 0.0
    return float(np.sum(suffix[j + 1 :]))


def poisson_index_cap(mu: float, tail: float) -> int:
    """Smallest ``k`` that the geometric tail bound
    ``P(N >= k) <= pmf(k) (k + 1) / (k + 1 - mu)`` (valid for ``k + 1 > mu``)
    puts at or below ``tail``, N ~ Poisson(mu), for ``tail < 1/2``.

    Every ``k <= int(mu)`` has ``P(N >= k) >= 1/2``, so the search starts
    there and steps the pmf up one index at a time.  With ``mu = rate * t``
    it caps the jump count of an embedded walk: ``P(sigma_k <= t) <= tail``.
    """
    if mu == 0:
        return 1
    k = int(mu)
    logp = k * math.log(mu) - mu - math.lgamma(k + 1)
    while math.exp(logp) * (k + 1) / (k + 1 - mu) > tail:
        k += 1
        logp += math.log(mu / k)
    return k


def truncation_depth(rate: float, t: float, tol: float = 1e-10, kmin: int = 4) -> int:
    """Smallest K with Erlang truncation tail E[(N_t - K)^+] below ``tol``."""
    mu = rate * t
    k = max(kmin, int(mu))
    while poisson_tail_mean(mu, k) > tol:
        k = max(k + 4, int(1.3 * k))
    return k


def v_exact(table: LadderRenewalTable, rate: float, t: float, x: float) -> tuple[float, float]:
    """``V(t, x)`` for the embedded process, with a rigorous truncation bound.

    ``V(t,x) = rate^{-1} sum_k P(sigma_{k+1} <= t) U(k, x)``; the omitted
    ``k > K`` part is at most ``rate^{-1} E[(N_t - K - 1)^+]`` because each
    ``U(k, x) <= 1``.
    """
    if t < 0 or x < 0:
        return 0.0, 0.0
    mu = rate * t
    sf = poisson_sf(mu, table.K + 1)
    val = sum(sf[k + 1] * table.u(k, x) for k in range(table.K + 1)) / rate
    bound = poisson_tail_mean(mu, table.K + 1) / rate
    return float(val), float(bound)


def vhat_exact(table: LadderRenewalTable, rate: float, t: float, x: float) -> tuple[float, float]:
    """``Vhat(t, x) = sum_k P(sigma_k <= t) Uhat(k, x)`` plus tail bound."""
    if t < 0 or x < 0:
        return 0.0, 0.0
    mu = rate * t
    sf = poisson_sf(mu, table.K)
    val = sum(sf[k] * table.uhat(k, x) for k in range(table.K + 1))
    bound = poisson_tail_mean(mu, table.K)
    return float(val), float(bound)
