"""Bivariate renewal functions, exact and by Monte Carlo, and the
creeping-time identity checks.

:func:`exact_V` evaluates ``V(t, u)`` of an explicit killed bivariate
subordinator, and its creeping term ``d_Y dV/du``, as the finite sum over
jump-count vectors that the finitely many atoms allow.  Three exact-in-law
Monte-Carlo engines live here besides.

* :func:`estimate_V` -- explicit killed bivariate subordinators.
  ``V(t, u)`` is estimated either as the sampled minimum
  ``E[T^Y_u ^ T^Z_t ^ e(q)]`` (``route='min'``) or with the killing
  integrated in closed form (``route='integrate'``); the two are distinct
  estimators of the same quantity and their agreement is itself an identity
  check.
* :func:`fluct_boxes` -- the ladder process of a drift-creeping or compound
  Poisson fixture, without ever constructing ladder jumps: by the local-time
  change of variables, the ladder renewal measure of a box equals the
  expected real time the path spends *at its running maximum* with
  ``(time, running max)`` inside the box.  Occupations are computed in
  closed form segment by segment, so truncating at the largest finite box
  edge is exact, not a censoring.
* :func:`dual_ladder_cells` / :func:`dual_ladder_measure` -- the strictly
  descending dual ladder.  Its points are the successive strict minima of
  the path; the auxiliary rate-1 Poisson index integrates out, so
  ``Vhat`` of a box is the expected number of strict-minimum points inside
  it (plus the point mass at the origin), and ``Vhat(t, x)`` equals the
  expected index of the first ladder point leaving ``[0,t] x [0,x]``.

Every engine steps its paths jump by jump through
:func:`levyladder.processes.walk`; what remains here is each engine's pair
of hooks, the occupation or count it adds up before and at each jump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence, Union

import numpy as np

from .processes import BivariateSubordinatorSpec, ProcessSpec, walk
from .results import (
    CheckReport, EstimateWithError, estimate_from_stats, merge_monitors, verdict, write_csv,
)
from .rng import RngPolicy, chunked_map, merge_mean_m2
from .passage import estimate_p, sample_biv_passages
from .rw_ladder import poisson_sf

__all__ = [
    "RenewalGrid",
    "estimate_V",
    "check_subpint",
    "fluct_boxes",
    "exact_V",
    "dual_ladder_cells",
    "dual_ladder_measure",
]

Boxes = np.ndarray  # shape (nb, 4): columns t_lo, t_hi, u_lo, u_hi


def _stats_per_column(values: np.ndarray) -> list[tuple[int, float, float]]:
    n = values.shape[0]
    mean = values.mean(axis=0)
    m2 = ((values - mean) ** 2).sum(axis=0)
    return [(n, float(mean[j]), float(m2[j])) for j in range(values.shape[1])]


def _merge_columns(parts: list[list[tuple[int, float, float]]]) -> list[tuple[int, float, float]]:
    nb = len(parts[0])
    return [merge_mean_m2([p[j] for p in parts]) for j in range(nb)]


# ---------------------------------------------------------------------------
# Fluctuation ladder occupation (time at the running maximum)
# ---------------------------------------------------------------------------


def _fluct_occ_chunk(
    spec: ProcessSpec, boxes: Boxes, n: int, rng, r_guard: float
) -> tuple[list[tuple[int, float, float]], int]:
    c, lam = spec.drift, spec.rate
    if c < 0:
        raise ValueError("ladder occupation requires nonnegative drift")
    nb = boxes.shape[0]
    t_lo, t_hi, u_lo, u_hi = boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3]
    fin_t = t_hi[np.isfinite(t_hi)]
    stop_r = min(r_guard, float(fin_t.max()) if fin_t.size == nb else r_guard)
    stop_u = float(u_hi.max())

    occ = np.zeros((n, nb))
    censored = 0

    sigma = np.zeros(n)
    J = np.zeros(n)
    M = np.zeros(n)

    def before(alive, g):
        sig_next = sigma[alive] + g
        Ja = J[alive]
        Ma = M[alive]
        if c > 0:
            w_pre = c * sig_next + Ja
            has = w_pre > Ma
            r_star = np.maximum(sigma[alive], (Ma - Ja) / c)
            for j in range(nb):
                lo = np.maximum(np.maximum(r_star, t_lo[j]), (u_lo[j] - Ja) / c)
                hi = np.minimum(np.minimum(sig_next, t_hi[j]), (u_hi[j] - Ja) / c)
                occ[alive, j] += np.where(has, np.maximum(hi - lo, 0.0), 0.0)
            M[alive] = np.maximum(Ma, w_pre)
        else:
            at_max = Ja == Ma
            for j in range(nb):
                inband = at_max & (Ma > u_lo[j]) & (Ma <= u_hi[j])
                length = np.maximum(
                    np.minimum(sig_next, t_hi[j]) - np.maximum(sigma[alive], t_lo[j]), 0.0
                )
                occ[alive, j] += np.where(inband, length, 0.0)

    def after(alive, g, Y):
        nonlocal censored
        sig_next = sigma[alive] + g
        J[alive] += Y
        w_land = c * sig_next + J[alive]
        M[alive] = np.maximum(M[alive], w_land)
        sigma[alive] = sig_next
        stop = (sig_next > stop_r) | (M[alive] > stop_u)
        if stop.any() and stop_r >= r_guard:
            censored += int((stop & (sig_next > stop_r) & (M[alive] <= stop_u)).sum())
        return ~stop

    walk(np.arange(n), lam, rng, spec.sample_jumps, before, after)
    return _stats_per_column(occ), censored


def fluct_boxes(
    spec: ProcessSpec,
    boxes: Sequence[Sequence[float]],
    n: int,
    policy: RngPolicy,
    workers: int = 1,
    r_guard: float = 1e7,
) -> list[EstimateWithError]:
    """Ladder renewal measure of each box (t_lo, t_hi] x (u_lo, u_hi] for the
    weakly ascending ladder process of ``spec``, via at-the-maximum
    occupation times of the raw path (common paths across boxes)."""
    arr = np.asarray([[b[0], b[1], b[2], b[3]] for b in boxes], dtype=float)
    parts = chunked_map(
        lambda i, m, rng: _fluct_occ_chunk(spec, arr, m, rng, r_guard), n, policy, workers
    )
    merged = _merge_columns([p[0] for p in parts])
    cens = sum(p[1] for p in parts) / max(n, 1)
    return [estimate_from_stats(*s, censored_mass=cens) for s in merged]


# ---------------------------------------------------------------------------
# Explicit bivariate subordinator: the exact renewal sum and MC cell values
# ---------------------------------------------------------------------------


# Jump-count vectors one exact value may sum over; a spec and box that need
# more are refused rather than left to run for minutes.
MAX_COUNT_VECTORS = 200_000
# A height within this relative distance of a box edge counts as on it: the
# box is closed there.
_EDGE_RTOL = 1e-12


def _closed(edge: float) -> float:
    return edge + _EDGE_RTOL * max(1.0, abs(edge))


def exact_V(spec: BivariateSubordinatorSpec, t: float, u: float) -> tuple[float, float]:
    """``V(t, u)`` and the creeping term ``d_Y dV/du`` (left derivative), exactly.

    ``V(t, u) = int_0^inf e^{-qs} P(Z_s <= t, Y_s <= u) ds`` is a finite sum
    over the jump-count vectors ``m`` (one count per atom) whose jumps fit in
    the box: with ``k = |m|``, jump sums ``A(m)`` in Z and ``B(m)`` in Y, and
    ``S(m)`` the time at which the drift carries ``(A, B)`` out of the box,

        V(t, u) = sum_m  W(m) c^{-k-1} P(Gamma(k+1, c) <= S(m)),

    where ``W(m) = k! prod r_i^{m_i} / m_i!`` and ``c`` is ``q`` plus the atom
    rates.  Its left u-derivative differentiates ``S(m)`` on the vectors that
    leave through ``Y = u``, so the creeping term is
    ``sum_m W(m) c^{-k} P(Poisson(c S(m)) = k)``: the probability that Y
    creeps over ``u`` unkilled with ``Z <= t``.  An atom that moves only an
    unbounded coordinate never leaves the box; summing out its count removes
    its rate from ``c``.  Both boxes are closed.
    """
    if t < 0 or u < 0:
        return 0.0, 0.0
    kept = [(dt, dx, r) for dt, dx, r in spec.atoms
            if (dt > 0 and math.isfinite(t)) or (dx > 0 and math.isfinite(u))]
    t_top, u_top = _closed(t), _closed(u)
    m = np.zeros((1, 0), dtype=np.int64)
    a = np.zeros(1)
    b = np.zeros(1)
    for dt, dx, _ in kept:
        steps = np.arange(int(min(t_top / dt if dt > 0 else math.inf,
                                  u_top / dx if dx > 0 else math.inf)) + 1)
        rows, cols = np.nonzero((a[:, None] + steps * dt <= t_top)
                                & (b[:, None] + steps * dx <= u_top))
        if rows.size > MAX_COUNT_VECTORS:
            raise ValueError(f"V({t}, {u}) needs at least {rows.size} jump-count vectors, "
                             f"more than {MAX_COUNT_VECTORS}")
        m = np.column_stack([m[rows], steps[cols]])
        a = a[rows] + steps[cols] * dt
        b = b[rows] + steps[cols] * dx

    never = np.full(a.size, math.inf)
    s_z = (t - a) / spec.d_z if spec.d_z > 0 and math.isfinite(t) else never
    y_drifts_out = spec.d_y > 0 and math.isfinite(u)
    s_y = np.maximum((u - b) / spec.d_y, 0.0) if y_drifts_out else never
    s = np.minimum(s_z, s_y)
    exits_y = (spec.d_z * s_y + a <= t_top) if y_drifts_out else np.zeros(a.size, bool)
    rates = np.array([r for _, _, r in kept])
    c = spec.q + float(rates.sum())
    if c == 0:  # nothing kills or jumps: the drift alone, from the origin
        return float(s[0]), float(exits_y[0])

    k = m.sum(axis=1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, k.max() + 1)))))
    log_w = log_fact[k] - log_fact[m].sum(axis=1) + (m * np.log(rates)).sum(axis=1)
    log_c = math.log(c)
    v = creep = 0.0
    for kj, lw, sj, ej in zip(k.tolist(), log_w.tolist(), s.tolist(), exits_y.tolist()):
        # P(N >= k) and P(N >= k + 1) for N ~ Poisson(c S(m))
        sf = poisson_sf(c * sj, kj + 1) if math.isfinite(sj) else np.ones(kj + 2)
        v += math.exp(lw - (kj + 1) * log_c) * float(sf[kj + 1])
        if ej:
            creep += math.exp(lw - kj * log_c) * float(sf[kj] - sf[kj + 1])
    return v, creep


def _biv_min_chunk(
    spec: BivariateSubordinatorSpec, t: float, u: float, n: int, rng, route: str, s_guard: float
) -> tuple[tuple[int, float, float], int]:
    """Per-path ``T^Y_u ^ T^Z_t [^ e(q)]`` resolved exactly; returns stats.

    route='min': value is the sampled triple minimum.  route='integrate':
    value is ``(1 - e^{-q m}) / q`` with ``m = T^Y_u ^ T^Z_t`` (killing
    integrated out; exact on each path).
    """
    dz, dy, q = spec.d_z, spec.d_y, spec.q
    e_life = (
        rng.exponential(1.0 / q, n) if (route == "min" and q > 0) else np.full(n, math.inf)
    )
    censored = 0

    s = np.zeros(n)
    z = np.zeros(n)
    y = np.zeros(n)
    minval = np.full(n, math.inf)

    def before(alive, g):
        nonlocal censored
        s_next = s[alive] + g
        cross_z = np.where((dz > 0) & (z[alive] + dz * g > t),
                           s[alive] + (t - z[alive]) / max(dz, 1e-300), math.inf)
        cross_y = np.where((dy > 0) & (y[alive] + dy * g > u),
                           s[alive] + (u - y[alive]) / max(dy, 1e-300), math.inf)
        drift_cross = np.minimum(cross_z, cross_y)
        event = np.minimum(np.minimum(drift_cross, e_life[alive]), np.minimum(s_next, s_guard))
        resolved = event < s_next
        minval[alive[resolved]] = event[resolved]
        censored += int((event[resolved] >= s_guard).sum())
        return ~resolved

    def after(alive, g, jump):
        jt, jx = jump
        s_next = s[alive] + g
        z[alive] += dz * g
        y[alive] += dy * g
        s[alive] = s_next
        z[alive] += jt
        y[alive] += jx
        over = (z[alive] > t) | (y[alive] > u) | (e_life[alive] <= s_next)
        fin = alive[over]
        minval[fin] = np.minimum(s_next[over], e_life[fin])
        return ~over

    walk(np.arange(n), spec.total_rate, rng, spec.sample_atoms, before, after)
    if route == "min":
        vals = minval
    else:
        vals = (1.0 - np.exp(-q * minval)) / q if q > 0 else minval
    n_eff = vals.size
    mean = float(vals.mean())
    m2 = float(((vals - mean) ** 2).sum())
    return (n_eff, mean, m2), censored


def _biv_cell(
    spec: BivariateSubordinatorSpec,
    t: float,
    u: float,
    n: int,
    policy: RngPolicy,
    workers: int,
    route: str,
    s_guard: float,
) -> EstimateWithError:
    parts = chunked_map(
        lambda i, m, rng: _biv_min_chunk(spec, t, u, m, rng, route, s_guard), n, policy, workers
    )
    stats = merge_mean_m2([p[0] for p in parts])
    cens = sum(p[1] for p in parts) / max(n, 1)
    return estimate_from_stats(*stats, censored_mass=cens)


# ---------------------------------------------------------------------------
# Dual (strictly descending) ladder of the embedded walk / drift fixture
# ---------------------------------------------------------------------------


def _dual_cells_chunk(
    spec: ProcessSpec, cells: list[tuple[float, float]], n: int, rng
) -> list[tuple[int, float, float]]:
    """Per-path index of the first dual ladder point outside [0,t] x [0,x].

    Valid for compound Poisson fixtures: the strictly descending ladder
    process steps through the successive strict minima at the events of an
    independent rate-1 Poisson process, so E[T^Hhat_x ^ T^Lhat_t] equals the
    expected count of ladder points needed to leave the rectangle.
    """
    lam = spec.rate
    nc = len(cells)
    t_arr = np.array([c[0] for c in cells])
    x_arr = np.array([c[1] for c in cells])
    tmax = float(t_arr.max())

    counts = np.zeros((n, nc))
    resolved = np.zeros((n, nc), dtype=bool)

    sigma = np.zeros(n)
    S = np.zeros(n)
    mmin = np.zeros(n)  # current minimum (<= 0)
    kmin = np.zeros(n)  # number of strict minima so far

    def before(alive, g):
        sig_next = sigma[alive] + g
        for j in range(nc):
            # time passed t with no new minimum: the next ladder point has
            # sigma > t, so the rectangle is left at index kmin + 1
            hit = ~resolved[alive, j] & (sig_next > t_arr[j])
            ii = alive[hit]
            counts[ii, j] = kmin[ii] + 1.0
            resolved[ii, j] = True

    def after(alive, g, Y):
        S[alive] += Y
        sigma[alive] += g
        new_min = S[alive] < mmin[alive]
        ii = alive[new_min]
        mmin[ii] = S[ii]
        kmin[ii] += 1.0
        depth = -S[ii]
        for j in range(nc):
            hit = ~resolved[ii, j] & (depth > x_arr[j])
            jj = ii[hit]
            counts[jj, j] = kmin[jj]
            resolved[jj, j] = True
        go_on = ~resolved[alive].all(axis=1)
        # paths past the largest t are always fully resolved above
        assert not ((sigma[alive[go_on]] > tmax).any())
        return go_on

    walk(np.arange(n), lam, rng, spec.sample_jumps, before, after)
    return _stats_per_column(counts)


def dual_ladder_cells(
    spec: ProcessSpec,
    cells: Sequence[tuple[float, float]],
    n: int,
    policy: RngPolicy,
    workers: int = 1,
) -> list[EstimateWithError]:
    """MC estimates of ``Vhat(t, x)`` for a compound Poisson fixture."""
    if not spec.is_compound_poisson:
        raise ValueError("dual ladder cells require a compound Poisson fixture")
    parts = chunked_map(
        lambda i, m, rng: _dual_cells_chunk(spec, list(cells), m, rng), n, policy, workers
    )
    return [estimate_from_stats(*s) for s in _merge_columns(parts)]


def _dual_measure_chunk(
    spec: ProcessSpec, s_edges: np.ndarray, v_edges: np.ndarray, n: int, rng,
    s_guard: float,
) -> tuple[list[tuple[int, float, float]], int]:
    """Per-path counts of dual ladder points (strict minima) per
    (time, depth) bin, including the origin point of every path."""
    c, lam = spec.drift, spec.rate
    if c < 0:
        raise ValueError("dual ladder measure requires nonnegative drift")
    ns, nv = s_edges.size - 1, v_edges.size - 1
    v_guard = float(v_edges[-1])
    counts = np.zeros((n, ns * nv))
    # epoch-0 ladder point at (0, 0): first bin of each axis
    counts[:, 0] += 1.0
    dropped = 0

    sigma = np.zeros(n)
    J = np.zeros(n)
    mmin = np.zeros(n)

    def before(alive, g):
        return ~(sigma[alive] + g > s_guard)

    def after(alive, g, Y):
        nonlocal dropped
        sig_next = sigma[alive] + g
        J[alive] += Y
        sigma[alive] = sig_next
        w_land = c * sig_next + J[alive]
        new_min = w_land < mmin[alive]
        ii = alive[new_min]
        mmin[ii] = w_land[new_min]
        depth = -w_land[new_min]
        tt = sig_next[new_min]
        si = np.searchsorted(s_edges, tt, side="left") - 1
        si[tt == s_edges[0]] = 0
        vi = np.searchsorted(v_edges, depth, side="left") - 1
        vi[depth == v_edges[0]] = 0
        ok = (vi >= 0) & (vi < nv) & (si >= 0) & (si < ns)
        dropped += int((~ok).sum())
        np.add.at(counts, (ii[ok], si[ok] * nv + vi[ok]), 1.0)
        # a path whose minimum is already below every depth bin can stop
        # once its time passed the last s edge; deeper minima are dropped
        return ~(mmin[alive] < -v_guard)

    walk(np.arange(n), lam, rng, spec.sample_jumps, before, after)
    return _stats_per_column(counts), dropped


def dual_ladder_measure(
    spec: ProcessSpec,
    s_edges: Sequence[float],
    v_edges: Sequence[float],
    n: int,
    policy: RngPolicy,
    workers: int = 1,
    s_guard: float | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """``Vhat(ds, dv)`` masses on a (time, depth) bin grid, with SEs.

    Returns (mass, se, dropped_mass) with arrays of shape
    (len(s_edges)-1, len(v_edges)-1).  Points beyond the last edges (or
    after ``s_guard``, which defaults to the last time edge) are dropped
    and reported, not silently ignored; for a fixture drifting upward the
    probability of a ladder point beyond a generous guard decays
    exponentially, so the last cell can stand in for an unbounded one.
    """
    se_arr = np.asarray(s_edges, dtype=float)
    ve_arr = np.asarray(v_edges, dtype=float)
    guard = float(s_edges[-1]) if s_guard is None else float(s_guard)
    if not math.isfinite(guard):
        raise ValueError("dual ladder measure needs a finite time guard")
    parts = chunked_map(
        lambda i, m, rng: _dual_measure_chunk(spec, se_arr, ve_arr, m, rng, guard),
        n, policy, workers,
    )
    merged = _merge_columns([p[0] for p in parts])
    ns, nv = se_arr.size - 1, ve_arr.size - 1
    mass = np.zeros((ns, nv))
    se = np.zeros((ns, nv))
    for j, st in enumerate(merged):
        est = estimate_from_stats(*st)
        mass[j // nv, j % nv] = est.value
        se[j // nv, j % nv] = est.se
    dropped = sum(p[1] for p in parts) / max(n, 1)
    return mass, se, dropped


# ---------------------------------------------------------------------------
# Renewal grid, derivative, and the occupation-density identity check
# ---------------------------------------------------------------------------

SamplerSpec = Union[BivariateSubordinatorSpec, ProcessSpec]

GRID_COLUMNS = ("t", "u", "V", "SE", "provenance")


@dataclass
class RenewalGrid:
    """MC (or exact) values of V on a (t, u) grid with per-cell errors."""

    t_values: tuple[float, ...]
    u_values: tuple[float, ...]
    value: np.ndarray
    se: np.ndarray
    n_per_cell: int
    provenance: str
    censored: np.ndarray

    def cell(self, t: float, u: float) -> EstimateWithError:
        i = self.t_values.index(t)
        j = self.u_values.index(u)
        return EstimateWithError(
            float(self.value[i, j]), float(self.se[i, j]), self.n_per_cell,
            float(self.censored[i, j]),
        )

    def rows(self) -> list[dict[str, Any]]:
        """One row per cell, keyed by ``GRID_COLUMNS``."""
        return [
            dict(zip(GRID_COLUMNS, (t, u, self.value[i, j], self.se[i, j], self.provenance)))
            for i, t in enumerate(self.t_values)
            for j, u in enumerate(self.u_values)
        ]

    def to_csv(self, path: str) -> None:
        write_csv(path, GRID_COLUMNS, [list(row.values()) for row in self.rows()])


def estimate_V(
    spec: SamplerSpec,
    t_values: Sequence[float],
    u_values: Sequence[float],
    n_per_cell: int,
    policy: RngPolicy,
    workers: int = 1,
    route: str = "integrate",
    s_guard: float = 1e7,
) -> RenewalGrid:
    """Renewal function ``V(t, u)`` on a grid, one substream per cell.

    For an explicit :class:`BivariateSubordinatorSpec` the per-path value is
    the (killed) triple minimum; for a :class:`ProcessSpec` the grid is for
    the fixture's weakly ascending ladder process (drifts ``(1, drift)``),
    estimated from at-the-maximum occupation times of the raw path.
    ``route`` selects the bivariate per-path value: ``"integrate"`` (killing
    integrated out) or ``"min"`` (the sampled triple minimum).
    """
    if route not in ("integrate", "min"):
        raise ValueError(f"route must be 'integrate' or 'min', got {route!r}")
    nt, nu = len(t_values), len(u_values)
    value = np.zeros((nt, nu))
    se = np.zeros((nt, nu))
    cens = np.zeros((nt, nu))
    for i, t in enumerate(t_values):
        for j, u in enumerate(u_values):
            sub = policy.substream(f"V[{i},{j}]")
            if isinstance(spec, BivariateSubordinatorSpec):
                est = _biv_cell(spec, t, u, n_per_cell, sub, workers, route, s_guard)
            else:
                est = fluct_boxes(spec, [(0.0, t, -1.0, u)], n_per_cell, sub, workers)[0]
            value[i, j] = est.value
            se[i, j] = est.se
            cens[i, j] = est.censored_mass
    prov = "mc-min" if route == "min" else "mc"
    return RenewalGrid(tuple(t_values), tuple(u_values), value, se, n_per_cell, prov, cens)


def check_V_grid(spec: SamplerSpec, t: float | Sequence[float], u: float | Sequence[float],
                 n_per_cell: int, policy: RngPolicy, workers: int = 1,
                 fixture: str = "") -> CheckReport:
    """:func:`estimate_V` on the grid ``t`` x ``u`` (each one value or a
    list) as a report whose details hold one row per cell.

    An estimate rather than an identity: there is no right side and the
    budget is infinite.  ``lhs`` is the value at the last cell.
    """
    grid = estimate_V(spec, [float(v) for v in np.atleast_1d(t)],
                      [float(v) for v in np.atleast_1d(u)], n_per_cell, policy, workers)
    return CheckReport(check="V-grid", fixture=fixture,
                       params={"t": t, "u": u, "n": n_per_cell},
                       lhs=float(grid.value[-1, -1]), distance=0.0, budget=math.inf,
                       n_paths=n_per_cell * grid.value.size,
                       details=grid.rows(), columns=GRID_COLUMNS)


def _creep_probability_nodes(
    spec: SamplerSpec,
    t: float,
    v_nodes: np.ndarray,
    n_per_node: int,
    policy: RngPolicy,
    workers: int,
) -> tuple[np.ndarray, np.ndarray, dict[str, int]]:
    """p(t, v) at each node: creep-by-t probability of the fixture."""
    p = np.zeros(v_nodes.size)
    se = np.zeros(v_nodes.size)
    monitors: dict[str, int] = {}
    for k, v in enumerate(v_nodes):
        if v == 0.0:
            # small-level limit: with positive Y-drift the path creeps over
            # level 0+ immediately, so p(t, 0+) = 1
            p[k] = 1.0
            continue
        sub = policy.substream(f"p[{k}]")
        if isinstance(spec, BivariateSubordinatorSpec):
            batch = sample_biv_passages(spec, float(v), n_per_node, sub, workers)
            hits = batch.creep & (batch.z_before + batch.dz <= t)
            p[k] = hits.mean()
            se[k] = math.sqrt(p[k] * (1 - p[k]) / batch.n)
            merge_monitors(monitors, batch.monitors)
        else:
            est, mon = estimate_p(spec, t, float(v), n_per_node, sub, workers)
            p[k], se[k] = est.value, est.se
            merge_monitors(monitors, mon)
    return p, se, monitors


def _trapezoid(nodes: np.ndarray, vals: np.ndarray) -> tuple[float, np.ndarray]:
    weights = np.zeros(nodes.size)
    dx = np.diff(nodes)
    weights[:-1] += dx / 2
    weights[1:] += dx / 2
    return float(np.sum(weights * vals)), weights


def _segment_nodes(spec: SamplerSpec, t: float, u: float, base_nodes: int) -> list[np.ndarray]:
    """v-integration segments, split at the discontinuity points of p(t, .)
    for lattice fixtures with drift (creep support is a union of intervals)."""
    breaks: list[float] = []
    if isinstance(spec, ProcessSpec) and spec.drift > 0 and spec.rate > 0:
        law = spec.jumps
        if hasattr(law, "values"):
            from .rw_ladder import LatticeWalkSpec  # lattice detection only

            h = None
            try:
                h = LatticeWalkSpec.from_process(
                    ProcessSpec(0.0, spec.rate, spec.jumps)
                ).h
            except ValueError:
                h = None
            if h is not None:
                k = 1
                while k * h < u:
                    breaks.append(k * h)
                    if k * h + spec.drift * t < u:
                        breaks.append(k * h + spec.drift * t)
                    k += 1
                if spec.drift * t < u:
                    breaks.append(spec.drift * t)
    pts = sorted(set([0.0, u] + [b for b in breaks if 0 < b < u]))
    segments = []
    for seg_idx, (a, b) in enumerate(zip(pts[:-1], pts[1:])):
        m = max(3, int(base_nodes * (b - a) / u) + 1)
        nodes = np.linspace(a, b, m)
        if seg_idx > 0:
            # p(t, .) is left continuous; a segment starting at a breakpoint
            # must sample the right limit, so nudge its first node inside
            nodes[0] = a + 1e-9
        segments.append(nodes)
    return segments


def check_ct1(spec: ProcessSpec, t: float, u: float, n: int, policy: RngPolicy,
              workers: int = 1, delta: float = 0.005, fixture: str = "") -> CheckReport:
    """Creeping law ``p(t, u) = d_H * left u-derivative of V(t, u)`` for a
    Levy fixture, whose ladder height drift ``d_H`` is the process drift.

    LHS: :func:`estimate_p`.  RHS: the ladder renewal measure of the band
    ``(0, t] x (u - delta, u]`` over ``delta``.  The budget adds to 3 SE the
    change against the next band down, ``(u - 2 delta, u - delta]``, as the
    bias of the one-sided difference.
    """
    est, mon = estimate_p(spec, t, u, n, policy.substream("p"), workers)
    band = fluct_boxes(spec, [(0.0, t, u - delta, u)], n, policy.substream("b"), workers)[0]
    band2 = fluct_boxes(spec, [(0.0, t, u - 2 * delta, u - delta)], n,
                        policy.substream("b2"), workers)[0]
    deriv = spec.drift * band.value / delta
    deriv_se = spec.drift * band.se / delta
    bias = spec.drift * abs(band.value - band2.value) / delta
    dist, budget = verdict([(abs(est.value - deriv), math.hypot(est.se, deriv_se), bias)])
    return CheckReport(check="ct1", fixture=fixture,
                       params={"t": t, "u": u, "delta": delta, "n": n},
                       lhs=est.value, rhs=deriv, se_lhs=est.se, se_rhs=deriv_se,
                       distance=dist, budget=budget,
                       n_paths=3 * n, monitors=mon, details=[{"delta_bias": bias}])


def check_subpint(
    spec: SamplerSpec,
    t: float,
    u: float,
    n_per_node: int,
    policy: RngPolicy,
    workers: int = 1,
    base_nodes: int = 12,
    fixture: str = "",
) -> CheckReport:
    """Occupation-density identity: ``integral_0^u p(t, v) dv = d_Y V(t, u)``.

    LHS by trapezoid quadrature of MC creep probabilities over a v-grid
    (split at the discontinuities of lattice fixtures); RHS from an
    independent MC estimate of V.  For a Levy fixture the Y-drift of the
    ladder process is the process drift.
    """
    d_y = spec.d_y if isinstance(spec, BivariateSubordinatorSpec) else spec.drift
    if d_y == 0:
        lhs, lhs_se, quad_bias = 0.0, 0.0, 0.0
        monitors: dict[str, int] = {}
        n_paths = 0
    else:
        segments = _segment_nodes(spec, t, u, base_nodes)
        lhs = 0.0
        var = 0.0
        quad_bias = 0.0
        monitors = {}
        n_paths = 0
        for snum, nodes in enumerate(segments):
            p, se, mon = _creep_probability_nodes(
                spec, t, nodes, n_per_node, policy.substream(f"seg{snum}"), workers
            )
            val, w = _trapezoid(nodes, p)
            coarse, _ = _trapezoid(nodes[::2], p[::2]) if nodes.size >= 5 else (val, None)
            quad_bias += abs(val - coarse) / 3.0
            lhs += val
            var += float(np.sum((w * se) ** 2))
            n_paths += n_per_node * (nodes.size - 1)
            merge_monitors(monitors, mon)
        lhs_se = math.sqrt(var)

    v_est = (
        _biv_cell(spec, t, u, n_per_node, policy.substream("V"), workers, "integrate", 1e7)
        if isinstance(spec, BivariateSubordinatorSpec)
        else fluct_boxes(spec, [(0.0, t, -1.0, u)], n_per_node, policy.substream("V"), workers)[0]
    )
    rhs = d_y * v_est.value
    se_rhs = d_y * v_est.se
    dist, budget = verdict([(abs(lhs - rhs), math.hypot(lhs_se, se_rhs), quad_bias,
                             d_y * v_est.bias_bound)])
    return CheckReport(
        check="subpint",
        fixture=fixture,
        params={"t": t, "u": u, "n_per_node": n_per_node},
        lhs=lhs,
        rhs=rhs,
        se_lhs=lhs_se,
        se_rhs=se_rhs,
        distance=dist,
        budget=budget,
        n_paths=n_paths + n_per_node,
        details=[{"quad_bias": quad_bias, "v_bias": v_est.bias_bound}],
        monitors=monitors,
    )
