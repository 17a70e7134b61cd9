"""Bivariate renewal functions, exact and by Monte Carlo, and the
creeping-time identity checks.

:func:`exact_V` is the exact side of every check of the creeping theorem
``d_H d^-_u V(t, u) = p(t, u)``.  For an explicit killed bivariate
subordinator it evaluates ``V(t, u)`` and its creeping term ``d_Y dV/du`` as
the finite sum over jump-count vectors that the finitely many atoms allow;
for lattice jumps with a positive drift it reads ``V`` and ``p`` from
:class:`levyladder.rw_ladder.DriftLattice`.  Two exact-in-law Monte-Carlo
engines live here besides.

* :func:`estimate_V` -- explicit killed bivariate subordinators.
  ``V(t, u) = E[T^Y_u ^ T^Z_t ^ e(q)]`` is estimated with the killing
  integrated in closed form along each path.
* :func:`fluct_boxes` -- the ladder process of a drift-creeping or compound
  Poisson fixture, without ever constructing ladder jumps: by the local-time
  change of variables, the ladder renewal measure of a box equals the
  expected real time the path spends *at its running maximum* with
  ``(time, running max)`` inside the box.  Occupations are computed in
  closed form segment by segment, so truncating at the largest finite box
  edge is exact, not a censoring.  It is the Monte-Carlo side of the V-grid
  of a Levy fixture, and the tests compare it with the exact tables of
  :class:`levyladder.rw_ladder.DriftLattice`.

Every engine steps its paths jump by jump through
:func:`levyladder.processes.walk`; what remains here is each engine's pair
of hooks, the occupation it adds up before and at each jump.  The box hooks
of :func:`fluct_boxes` treat all boxes at once as (paths x boxes) arrays,
over the paths that can add to them, in row blocks of at most ``OCC_BLOCK``
floats per temporary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence, Union

import numpy as np

from .processes import BivariateSubordinatorSpec, ProcessSpec, walk
from .results import (
    CheckReport, EstimateWithError, PathValues, binomial_estimate, fold, merge_monitors,
    row_budgets, verdict,
)
from .rng import RngPolicy, chunked_map
from .passage import _closed, biv_passage_chunks, estimate_p
from .rw_ladder import DriftLattice, poisson_weights

__all__ = [
    "RenewalGrid",
    "estimate_V",
    "check_subpint",
    "fluct_boxes",
    "exact_V",
]

Boxes = np.ndarray  # shape (nb, 4): columns t_lo, t_hi, u_lo, u_hi
SamplerSpec = Union[BivariateSubordinatorSpec, ProcessSpec]


# ---------------------------------------------------------------------------
# Fluctuation ladder occupation (time at the running maximum)
# ---------------------------------------------------------------------------


# Real-time cap of the occupation paths when some box is unbounded in time;
# paths stopped there are reported as censored.
OCC_TIME_GUARD = 1e7
# Most floats one (paths x boxes) temporary of a per-box hook, or one Poisson
# table of the exact renewal sum, holds.
OCC_BLOCK = 2**16


def _row_blocks(m: int, width: int) -> list[slice]:
    """Slices of ``range(m)`` whose (rows x ``width``) arrays fit in ``OCC_BLOCK``."""
    step = max(1, OCC_BLOCK // width)
    return [slice(a, a + step) for a in range(0, m, step)]


def _fluct_occ_chunk(spec: ProcessSpec, boxes: Boxes, n: int, rng) -> PathValues:
    c, lam = spec.drift, spec.rate
    if c < 0:
        raise ValueError("ladder occupation requires nonnegative drift")
    nb = boxes.shape[0]
    t_lo, t_hi, u_lo, u_hi = boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3]
    fin_t = t_hi[np.isfinite(t_hi)]
    stop_r = min(OCC_TIME_GUARD, float(fin_t.max()) if fin_t.size == nb else OCC_TIME_GUARD)
    stop_u = float(u_hi.max())

    occ = np.zeros((n, nb))
    censored = np.zeros(n, dtype=bool)

    sigma = np.zeros(n)
    J = np.zeros(n)
    M = np.zeros(n)

    def before(alive, g):
        sig_next = sigma[alive] + g
        Ja = J[alive]
        Ma = M[alive]
        if c > 0:
            # only a drift segment that reaches a new maximum adds occupation
            w_pre = c * sig_next + Ja
            has = (w_pre > Ma).nonzero()[0]
            rows, Jh, sig_h = alive[has], Ja[has], sig_next[has]
            r_star = np.maximum(sigma[rows], (Ma[has] - Jh) / c)
            for b in _row_blocks(rows.size, nb):
                Jb = Jh[b, None]
                lo = np.maximum(np.maximum(r_star[b, None], t_lo), (u_lo - Jb) / c)
                hi = np.minimum(np.minimum(sig_h[b, None], t_hi), (u_hi - Jb) / c)
                occ[rows[b]] += np.maximum(hi - lo, 0.0)
            M[alive] = np.maximum(Ma, w_pre)
        else:
            top = (Ja == Ma).nonzero()[0]
            rows, M_top, sig_top = alive[top], Ma[top], sig_next[top]
            for b in _row_blocks(rows.size, nb):
                Mb = M_top[b, None]
                inband = (Mb > u_lo) & (Mb <= u_hi)
                start = np.maximum(sigma[rows[b], None], t_lo)
                length = np.maximum(np.minimum(sig_top[b, None], t_hi) - start, 0.0)
                occ[rows[b]] += np.where(inband, length, 0.0)

    def after(alive, g, Y):
        sig_next = sigma[alive] + g
        J[alive] += Y
        w_land = c * sig_next + J[alive]
        M[alive] = np.maximum(M[alive], w_land)
        sigma[alive] = sig_next
        stop = (sig_next > stop_r) | (M[alive] > stop_u)
        if stop.any() and stop_r >= OCC_TIME_GUARD:
            guard = stop & (sig_next > stop_r) & (M[alive] <= stop_u)
            censored[alive[guard.nonzero()[0]]] = True
        return ~stop

    walk(np.arange(n), lam, rng, spec.sample_jumps, before, after)
    return PathValues(occ.T, censored)


def fluct_boxes(
    spec: ProcessSpec,
    boxes: Sequence[Sequence[float]],
    n: int,
    policy: RngPolicy,
) -> list[EstimateWithError]:
    """Ladder renewal measure of each box (t_lo, t_hi] x (u_lo, u_hi] for the
    weakly ascending ladder process of ``spec``, via at-the-maximum
    occupation times of the raw path (common paths across boxes)."""
    arr = np.asarray([[b[0], b[1], b[2], b[3]] for b in boxes], dtype=float)
    (m, _), cens, _ = fold(chunked_map(lambda i, k, rng: _fluct_occ_chunk(spec, arr, k, rng),
                                       n, policy), PathValues.tally)
    return [m[j].estimate(cens) for j in range(len(arr))]


# ---------------------------------------------------------------------------
# Explicit bivariate subordinator: the exact renewal sum and MC cell values
# ---------------------------------------------------------------------------


# Jump-count vectors one exact value may sum over; a spec and box that need
# more are refused rather than left to run for minutes.
MAX_COUNT_VECTORS = 200_000


def exact_V(spec: SamplerSpec, t: float, u: float | Sequence[float]) -> tuple[Any, Any, float]:
    """``V(t, u)``, the creeping probability ``p(t, u) = d_H d^-_u V(t, u)``
    and one bound on the error of every value, at one level ``u`` (floats)
    or at each of a sequence of levels (arrays).

    A bivariate subordinator takes the finite sums of :func:`_exact_biv`
    (bound 0); any other fixture one :class:`~levyladder.rw_ladder.DriftLattice`
    (or its ValueError): ``V`` from the occupation route and ``p`` from the
    creep route, never one from the other.  ``p(t, 0) = 1``: a positive
    drift creeps over 0 at once.
    """
    levels = np.atleast_1d(np.asarray(u, dtype=float))
    if isinstance(spec, BivariateSubordinatorSpec):
        V, p, bound = np.zeros(levels.size), np.zeros(levels.size), 0.0
        for part in (levels >= 0) & np.isfinite(levels), levels == math.inf:
            if t >= 0 and part.any():
                V[part], p[part] = _exact_biv(spec, t, levels[part])
    else:
        lat = DriftLattice(spec, reach=float(levels.max()))
        (V,), _, bound = lat.occupation([t], levels)
        p = np.ones(levels.size)
        for i in np.flatnonzero(levels > 0):
            (p[i],), creep_bound = lat.creep(float(levels[i]), [t])
            bound = max(bound, creep_bound)
    if np.ndim(u) == 0:
        return float(V[0]), float(p[0]), bound
    return V, p, bound


def _exact_biv(spec: BivariateSubordinatorSpec, t: float, levels: np.ndarray) -> tuple[Any, Any]:
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
    its rate from ``c``.  Both boxes are closed.  All ``levels`` (``>= 0``, all
    finite or all infinite; ``t >= 0``) share the largest level's vectors.
    """
    u_finite = math.isfinite(levels[0])
    kept = [(dt, dx, r) for dt, dx, r in spec.atoms
            if (dt > 0 and math.isfinite(t)) or (dx > 0 and u_finite)]
    t_top, u_tops = _closed(t), np.array([_closed(v) for v in levels.tolist()])
    u_top = float(u_tops.max())
    m, a, b = np.zeros((1, 0), dtype=np.int64), np.zeros(1), np.zeros(1)
    for dt, dx, _ in kept:
        steps = np.arange(int(min(t_top / dt if dt > 0 else math.inf,
                                  u_top / dx if dx > 0 else math.inf)) + 1)
        rows, cols = np.nonzero((a[:, None] + steps * dt <= t_top)
                                & (b[:, None] + steps * dx <= u_top))
        if rows.size > MAX_COUNT_VECTORS:
            raise ValueError(f"V({t}, {u_top}) needs at least {rows.size} jump-count vectors, "
                             f"more than {MAX_COUNT_VECTORS}")
        m = np.column_stack([m[rows], steps[cols]])
        a = a[rows] + steps[cols] * dt
        b = b[rows] + steps[cols] * dx

    # (vector, level) pairs that fit, in vector order; S(m) at which each leaves
    vec, lev = np.nonzero(b[:, None] <= u_tops)
    never = np.full(vec.size, math.inf)
    s_z = (t - a[vec]) / spec.d_z if spec.d_z > 0 and math.isfinite(t) else never
    y_drifts_out = spec.d_y > 0 and u_finite
    s_y = np.maximum((levels[lev] - b[vec]) / spec.d_y, 0.0) if y_drifts_out else never
    s = np.minimum(s_z, s_y)
    exits_y = (spec.d_z * s_y + a[vec] <= t_top) if y_drifts_out else np.zeros(vec.size, bool)
    rates = np.array([r for _, _, r in kept])
    c = spec.q + float(rates.sum())
    if c == 0:  # nothing kills or jumps: the drift alone, from the origin
        return s, exits_y

    k = m.sum(axis=1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, k.max() + 1)))))
    log_w = log_fact[k] - log_fact[m].sum(axis=1) + (m * np.log(rates)).sum(axis=1)
    w = np.exp(log_w - np.stack([k + 1, k]) * math.log(c))[:, vec]
    # P(N >= k + 1) and P(N >= k) for N ~ Poisson(c S(m)), both 1 when S(m)
    # is infinite, from tables of at most OCC_BLOCK floats
    mu, kv = c * s, k[vec]
    fin = np.flatnonzero(np.isfinite(mu))
    top = float(mu[fin].max(initial=0.0))
    sf = np.ones((2, vec.size))
    for blk in _row_blocks(fin.size, int(top + 40.0 * math.sqrt(top + 1.0) + 62.0) + k.max()):
        rows = fin[blk]
        table = poisson_weights(mu[rows], int(kv[rows].max()))[1]
        sf[:, rows] = table[np.arange(rows.size), kv[rows] + [[1], [0]]]
    # each level adds up its terms in vector order
    return (np.bincount(lev, w[0] * sf[0], levels.size),
            np.bincount(lev, np.where(exits_y, w[1] * (sf[1] - sf[0]), 0.0), levels.size))


# Time cap of the bivariate minimum T^Y_u ^ T^Z_t; paths reaching it are
# reported as censored.
BIV_TIME_GUARD = 1e7


def _biv_min_chunk(
    spec: BivariateSubordinatorSpec, t: float, u: float, n: int, rng
) -> PathValues:
    """Per path ``(1 - e^{-q m}) / q`` with ``m = T^Y_u ^ T^Z_t`` resolved
    exactly (``m`` itself when ``q = 0``): the killing ``e(q)`` of
    ``E[T^Y_u ^ T^Z_t ^ e(q)]`` integrated out, exact on each path."""
    dz, dy, q = spec.d_z, spec.d_y, spec.q
    censored = np.zeros(n, dtype=bool)

    s = np.zeros(n)
    z = np.zeros(n)
    y = np.zeros(n)
    minval = np.full(n, math.inf)

    def before(alive, g):
        s_next = s[alive] + g
        cross_z = np.where((dz > 0) & (z[alive] + dz * g > t),
                           s[alive] + (t - z[alive]) / max(dz, 1e-300), math.inf)
        cross_y = np.where((dy > 0) & (y[alive] + dy * g > u),
                           s[alive] + (u - y[alive]) / max(dy, 1e-300), math.inf)
        event = np.minimum(np.minimum(cross_z, cross_y), np.minimum(s_next, BIV_TIME_GUARD))
        resolved = event < s_next
        done = resolved.nonzero()[0]
        minval[alive[done]] = event[done]
        censored[alive[done[event[done] >= BIV_TIME_GUARD]]] = True
        return ~resolved

    def after(alive, g, jump):
        jt, jx = jump
        s_next = s[alive] + g
        z[alive] += dz * g
        y[alive] += dy * g
        s[alive] = s_next
        z[alive] += jt
        y[alive] += jx
        over = (z[alive] > t) | (y[alive] > u)
        done = over.nonzero()[0]
        minval[alive[done]] = s_next[done]
        return ~over

    walk(np.arange(n), spec.total_rate, rng, spec.sample_atoms, before, after)
    return PathValues((1.0 - np.exp(-q * minval)) / q if q > 0 else minval, censored)


# ---------------------------------------------------------------------------
# Renewal grid, derivative, and the occupation-density identity check
# ---------------------------------------------------------------------------

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


def estimate_V(
    spec: SamplerSpec,
    t_values: Sequence[float],
    u_values: Sequence[float],
    n_per_cell: int,
    policy: RngPolicy,
) -> RenewalGrid:
    """Renewal function ``V(t, u)`` on a grid, one substream per cell.

    For an explicit :class:`BivariateSubordinatorSpec` the per-path value is
    the triple minimum with its killing integrated out (:func:`_biv_min_chunk`);
    for a :class:`ProcessSpec` the grid is for the fixture's weakly ascending
    ladder process (drifts ``(1, drift)``), estimated from at-the-maximum
    occupation times of the raw path.
    """
    nt, nu = len(t_values), len(u_values)
    value = np.zeros((nt, nu))
    se = np.zeros((nt, nu))
    cens = np.zeros((nt, nu))
    for i, t in enumerate(t_values):
        for j, u in enumerate(u_values):
            sub = policy.substream(f"V[{i},{j}]")
            if isinstance(spec, BivariateSubordinatorSpec):
                (m, _), cens_mass, _ = fold(chunked_map(
                    lambda i, k, rng: _biv_min_chunk(spec, t, u, k, rng), n_per_cell, sub),
                    PathValues.tally)
                est = m.estimate(cens_mass)
            else:
                est = fluct_boxes(spec, [(0.0, t, -1.0, u)], n_per_cell, sub)[0]
            value[i, j] = est.value
            se[i, j] = est.se
            cens[i, j] = est.censored_mass
    return RenewalGrid(tuple(t_values), tuple(u_values), value, se, n_per_cell, "mc", cens)


def check_V_grid(spec: SamplerSpec, t: float | Sequence[float], u: float | Sequence[float],
                 n_per_cell: int, policy: RngPolicy, fixture: str = "") -> CheckReport:
    """:func:`estimate_V` on the grid ``t`` x ``u`` (each one value or a
    list) as a report whose details hold one row per cell.

    Every cell is a row ``(|V_mc - V_exact|, se, censored mass, bound)``
    against :func:`exact_V`, the rows held together to ``CHECK_FAIL_RATE``;
    the details add each cell's exact value and budget.  ``lhs`` and ``rhs``
    are the values at the last cell.
    """
    grid = estimate_V(spec, [float(v) for v in np.atleast_1d(t)],
                      [float(v) for v in np.atleast_1d(u)], n_per_cell, policy)
    exact_rows = [exact_V(spec, tv, grid.u_values) for tv in grid.t_values]
    exact = np.concatenate([V for V, _, _ in exact_rows])
    bound = max(b for _, _, b in exact_rows)
    rows = [(gap, se, censored, bound) for gap, se, censored in
            zip(np.abs(grid.value.ravel() - exact), grid.se.ravel(), grid.censored.ravel())]
    details = grid.rows()
    for row, v, budget in zip(details, exact, row_budgets(rows)):
        row.update(V_exact=v, budget=budget)
    dist, budget = verdict(rows)
    return CheckReport(check="V-grid", fixture=fixture,
                       params={"t": t, "u": u, "n": n_per_cell},
                       lhs=float(grid.value[-1, -1]), rhs=float(exact[-1]),
                       se_lhs=float(grid.se[-1, -1]), distance=dist, budget=budget,
                       n_paths=n_per_cell * grid.value.size, details=details,
                       columns=GRID_COLUMNS + ("V_exact", "budget"))


def _creep_probability_nodes(
    spec: SamplerSpec,
    t: float,
    v_nodes: np.ndarray,
    n_per_node: int,
    policy: RngPolicy,
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
            (hits,), _, mon = fold(biv_passage_chunks(spec, float(v), n_per_node, sub), lambda b: (
                int((b.creep & (b.z_before + b.dz <= t)).sum()),))
            est = binomial_estimate(hits, n_per_node)
        else:
            est, mon = estimate_p(spec, t, float(v), n_per_node, sub)
        p[k], se[k] = est.value, est.se
        merge_monitors(monitors, mon)
    return p, se, monitors


# Level nodes of the subpint quadrature over (0, u), spread over its segments
# by length (at least 3 per segment).
SUBPINT_BASE_NODES = 12


def _trap_weights(nodes: np.ndarray) -> np.ndarray:
    w = np.zeros(nodes.size)
    dx = np.diff(nodes)
    w[:-1] += dx / 2
    w[1:] += dx / 2
    return w


def _segment_nodes(spec: SamplerSpec, t: float, u: float) -> list[np.ndarray]:
    """v-integration segments, split at the discontinuity points of p(t, .)
    for a Levy fixture, whose jumps lie on the lattice of its
    :class:`~levyladder.rw_ladder.DriftLattice` (creep support is a union of
    intervals)."""
    breaks: list[float] = []
    if isinstance(spec, ProcessSpec):
        # p(t, .) can jump at both ends of each level band k h + [0, c t]
        h, c = DriftLattice(spec).h, spec.drift
        breaks = [k * h + d for k in range(int(u / h) + 1) for d in (0.0, c * t)]
    pts = sorted(set([0.0, u] + [b for b in breaks if 0 < b < u]))
    segments = []
    for seg_idx, (a, b) in enumerate(zip(pts[:-1], pts[1:])):
        m = max(3, int(SUBPINT_BASE_NODES * (b - a) / u) + 1)
        nodes = np.linspace(a, b, m)
        if seg_idx > 0:
            # p(t, .) is left continuous; a segment starting at a breakpoint
            # must sample the right limit, so nudge its first node inside
            nodes[0] = a + 1e-9
        segments.append(nodes)
    return segments


def check_ct1(spec: ProcessSpec, t: float, u: float, n: int, policy: RngPolicy,
              fixture: str = "") -> CheckReport:
    """Creeping law ``p(t, u)`` of a Levy fixture: :func:`estimate_p` against
    the ``p`` of :func:`exact_V`, one row at ``CHECK_FAIL_RATE`` with the
    binomial SE at the exact ``p`` and the exact side's bound."""
    est, mon = estimate_p(spec, t, u, n, policy.substream("p"))
    _, p, bound = exact_V(spec, t, u)
    se = math.sqrt(p * (1.0 - p) / n)
    dist, budget = verdict([(abs(est.value - p), se, bound)])
    return CheckReport(check="ct1", fixture=fixture, params={"t": t, "u": u, "n": n},
                       lhs=est.value, rhs=p, se_lhs=se, distance=dist, budget=budget,
                       n_paths=n, monitors=mon, details=[{"rhs_bound": bound}])


def check_subpint(
    spec: SamplerSpec,
    t: float,
    u: float,
    n_per_node: int,
    policy: RngPolicy,
    fixture: str = "",
) -> CheckReport:
    """Occupation-density identity: ``integral_0^u p(t, v) dv = d_Y V(t, u)``.

    LHS by trapezoid quadrature of MC creep probabilities over a v-grid
    (split at the discontinuities of lattice fixtures).  RHS: ``d_Y`` times
    V of :func:`exact_V`, where a Levy fixture's ladder Y-drift is its
    drift.  ``quad_bias`` is the trapezoid rule's own error at the check's
    nodes, from the exact ``p`` of :func:`exact_V`, and ``rhs_bound`` what
    the exact side's bound can move the row.  The one row is held to
    ``CHECK_FAIL_RATE``.  With ``d_Y = 0`` nothing creeps: both sides are 0,
    and no exact side is needed.
    """
    d_y = spec.d_y if isinstance(spec, BivariateSubordinatorSpec) else spec.drift
    lhs = lhs_var = rhs = quad_bias = rhs_bound = 0.0
    monitors: dict[str, int] = {}
    n_paths = 0
    segments = _segment_nodes(spec, t, u) if d_y > 0 else []
    weights = [_trap_weights(nodes) for nodes in segments]
    for snum, (nodes, w) in enumerate(zip(segments, weights)):
        p, se, mon = _creep_probability_nodes(
            spec, t, nodes, n_per_node, policy.substream(f"seg{snum}")
        )
        lhs += float(np.sum(w * p))
        lhs_var += float(np.sum((w * se) ** 2))
        n_paths += n_per_node * (nodes.size - 1)
        merge_monitors(monitors, mon)
    lhs_se = math.sqrt(lhs_var)

    if segments:
        V, p, bound = exact_V(spec, t, np.concatenate(segments))
        rhs = d_y * float(V[-1])
        quad_bias = abs(float(np.sum(np.concatenate(weights) * p)) - rhs)
        # each exact value is off by at most `bound`: the rhs by d_Y bound,
        # and the trapezoid (weights summing to u) and rhs behind quad_bias
        # by u bound + d_Y bound
        rhs_bound = (u + 2.0 * d_y) * bound
    dist, budget = verdict([(abs(lhs - rhs), lhs_se, quad_bias, rhs_bound)])
    return CheckReport(check="subpint", fixture=fixture,
                       params={"t": t, "u": u, "n_per_node": n_per_node}, lhs=lhs, rhs=rhs,
                       se_lhs=lhs_se, distance=dist, budget=budget, n_paths=n_paths,
                       details=[{"quad_bias": quad_bias, "rhs_bound": rhs_bound}],
                       monitors=monitors)
