"""Reference routes the tests compare the library with; no check runs them.

* The definition-level route to the ladder tables of a lattice walk:
  :func:`ladder_epochs` scans a path with the chained ladder-time
  definition, :func:`brute_force_tables` enumerates every path with it, and
  :func:`renewal_tables` runs a forward DP over (gap to running extremum,
  running extremum), using the characterisation "k is a weak ascending
  ladder epoch iff S_k >= max_{j<k} S_j" (and the strict-descending
  mirror), an implementation lemma that the enumeration validates.
  :func:`v_exact` and :func:`vhat_exact` mix these tables over the Erlang
  jump times, with a rigorous truncation bound.
* The Monte-Carlo route to the strictly descending dual ladder:
  :func:`dual_ladder_cells` / :func:`dual_ladder_measure`.  Its points are
  the successive strict minima of the path; the auxiliary rate-1 Poisson
  index integrates out, so ``Vhat`` of a box is the expected number of
  strict-minimum points inside it (plus the point mass at the origin), and
  ``Vhat(t, x)`` equals the expected index of the first ladder point
  leaving ``[0,t] x [0,x]``.  The box hook of :func:`dual_ladder_cells`
  treats all cells at once as (paths x cells) arrays in row blocks;
  :func:`dual_ladder_measure` keeps only the points it records, as a list
  of (path, cell) keys, and takes each cell's mean and M2 from exact
  integer sums of the per-path counts.
* The whole-batch reductions of the Monte Carlo checks: each draws all
  ``n`` records of a check as one batch (``sample_passages``,
  ``sample_biv_passages``, ``sample_ladder_jumps`` on the check's own
  substream) and reduces it as one histogram (:func:`histogram`, a float
  grid with one ``np.add.at`` per batch) or one mean.  The checks fold
  their records one chunk at a time; the tests compare the two exactly.
* The one-level renewal sum of an explicit bivariate subordinator:
  :func:`biv_renewal_one_level` enumerates the jump-count vectors of one
  box ``[0, t] x [0, u]`` and adds each vector's term in a Python loop,
  one Poisson table per vector.  The library evaluates every level of one
  ``t`` in one pass; the tests compare the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from levyladder.lawcheck import Axis, DiscreteMeasureND
from levyladder.passage import (
    _closed, sample_biv_passages, sample_ladder_jumps, sample_passages,
)
from levyladder.processes import BivariateSubordinatorSpec, ProcessSpec, walk
from levyladder.renewal import _merge_columns, _row_blocks, _stats_per_column
from levyladder.results import EstimateWithError, binomial_estimate, estimate_from_stats
from levyladder.rng import RngPolicy, chunked_map
from levyladder.rw_ladder import LatticeWalkSpec, Mode, poisson_tail_mean, poisson_weights


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


def v_exact(table: LadderRenewalTable, rate: float, t: float, x: float) -> tuple[float, float]:
    """``V(t, x)`` for the embedded process, with a rigorous truncation bound.

    ``V(t,x) = rate^{-1} sum_k P(sigma_{k+1} <= t) U(k, x)``; the omitted
    ``k > K`` part is at most ``rate^{-1} E[(N_t - K - 1)^+]`` because each
    ``U(k, x) <= 1``.
    """
    if t < 0 or x < 0:
        return 0.0, 0.0
    mu = rate * t
    sf = poisson_weights([mu], table.K)[1][0]
    val = sum(sf[k + 1] * table.u(k, x) for k in range(table.K + 1)) / rate
    bound = poisson_tail_mean(mu, table.K + 1) / rate
    return float(val), float(bound)


def vhat_exact(table: LadderRenewalTable, rate: float, t: float, x: float) -> tuple[float, float]:
    """``Vhat(t, x) = sum_k P(sigma_k <= t) Uhat(k, x)`` plus tail bound."""
    if t < 0 or x < 0:
        return 0.0, 0.0
    mu = rate * t
    sf = poisson_weights([mu], table.K)[1][0]
    val = sum(sf[k] * table.uhat(k, x) for k in range(table.K + 1))
    bound = poisson_tail_mean(mu, table.K)
    return float(val), float(bound)


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

    def resolve(rows, reach, edges, index):
        # cells still open whose edge ``reach`` has passed are left at ``index``
        for b in _row_blocks(rows.size, nc):
            r, j = np.nonzero(~resolved[rows[b]] & (reach[b, None] > edges))
            ii = rows[b][r]
            counts[ii, j] = index[b][r]
            resolved[ii, j] = True

    def before(alive, g):
        # time passed t with no new minimum: the next ladder point has
        # sigma > t, so the rectangle is left at index kmin + 1
        resolve(alive, sigma[alive] + g, t_arr, kmin[alive] + 1.0)

    def after(alive, g, Y):
        S[alive] += Y
        sigma[alive] += g
        new_min = S[alive] < mmin[alive]
        ii = alive[new_min]
        mmin[ii] = S[ii]
        kmin[ii] += 1.0
        resolve(ii, -S[ii], x_arr, kmin[ii])
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
) -> list[EstimateWithError]:
    """MC estimates of ``Vhat(t, x)`` for a compound Poisson fixture."""
    if not spec.is_compound_poisson:
        raise ValueError("dual ladder cells require a compound Poisson fixture")
    parts = list(chunked_map(lambda i, m, rng: _dual_cells_chunk(spec, list(cells), m, rng),
                             n, policy))
    return [estimate_from_stats(*s) for s in _merge_columns(parts)]


def _dual_measure_chunk(
    spec: ProcessSpec, s_edges: np.ndarray, v_edges: np.ndarray, n: int, rng
) -> list[tuple[int, float, float]]:
    """(n, mean, M2) per (time, depth) bin of the per-path counts of dual
    ladder points (strict minima), including the origin point of every path.

    Each recorded point is kept as the key ``path * ncell + cell``; the
    per-path count ``k`` of a bin is the multiplicity of its key, and the
    bin's statistics follow from the exact integer sums ``S1 = sum k`` and
    ``S2 = sum k^2`` over its paths, with ``M2 = (n S2 - S1^2) / n`` rounded
    once.  Paths without a point in a bin count there as zeros.
    """
    c, lam = spec.drift, spec.rate
    if c < 0:
        raise ValueError("dual ladder measure requires nonnegative drift")
    ns, nv = s_edges.size - 1, v_edges.size - 1
    ncell = ns * nv
    s_guard, v_guard = float(s_edges[-1]), float(v_edges[-1])
    # epoch-0 ladder point at (0, 0): first bin of each axis
    keys = [np.arange(n) * ncell]

    sigma = np.zeros(n)
    J = np.zeros(n)
    mmin = np.zeros(n)

    def before(alive, g):
        return ~(sigma[alive] + g > s_guard)

    def after(alive, g, Y):
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
        keys.append(ii[ok] * ncell + si[ok] * nv + vi[ok])
        # a path whose minimum is already below every depth bin can stop:
        # its later minima lie deeper still
        return ~(mmin[alive] < -v_guard)

    walk(np.arange(n), lam, rng, spec.sample_jumps, before, after)
    path_cell, k = np.unique(np.concatenate(keys), return_counts=True)
    cell = path_cell % ncell
    # integer-valued float sums below 2^53 are exact, and Python int
    # division rounds once: the mean is the dense column mean bit for bit
    s1 = np.bincount(cell, weights=k, minlength=ncell).astype(np.int64).tolist()
    s2 = np.bincount(cell, weights=k * k, minlength=ncell).astype(np.int64).tolist()
    return [(n, a1 / n, (n * a2 - a1 * a1) / n) for a1, a2 in zip(s1, s2)]


def dual_ladder_measure(
    spec: ProcessSpec,
    s_edges: Sequence[float],
    v_edges: Sequence[float],
    n: int,
    policy: RngPolicy,
) -> tuple[np.ndarray, np.ndarray]:
    """``Vhat(ds, dv)`` masses on a (time, depth) bin grid, with SEs.

    Returns (mass, se), arrays of shape (len(s_edges)-1, len(v_edges)-1).
    Only the grid's mass is estimated: a path stops at the last time edge,
    or once its minimum passes the last depth edge, so the ladder points
    past the edges are not counted.  For a fixture drifting upward the
    probability of a ladder point beyond a generous last time edge decays
    exponentially, so the last cell can stand in for an unbounded one.  Each
    chunk keeps its points as (path, cell) keys, not as a dense (paths x
    cells) array; its per-cell M2 is exact, rounded once.
    """
    se_arr = np.asarray(s_edges, dtype=float)
    ve_arr = np.asarray(v_edges, dtype=float)
    if not math.isfinite(se_arr[-1]):
        raise ValueError("dual ladder measure needs a finite last time edge")
    parts = list(chunked_map(lambda i, m, rng: _dual_measure_chunk(spec, se_arr, ve_arr, m, rng),
                             n, policy))
    merged = _merge_columns(parts)
    ns, nv = se_arr.size - 1, ve_arr.size - 1
    mass = np.zeros((ns, nv))
    se = np.zeros((ns, nv))
    for j, st in enumerate(merged):
        est = estimate_from_stats(*st)
        mass[j // nv, j % nv] = est.value
        se[j // nv, j % nv] = est.se
    return mass, se


# ---------------------------------------------------------------------------
# Exact bivariate renewal sum at one level (per-vector loop)
# ---------------------------------------------------------------------------


def biv_renewal_one_level(spec: BivariateSubordinatorSpec, t: float,
                          u: float) -> tuple[float, float]:
    """``V(t, u)`` and the creeping term ``d_Y dV/du`` at one level, the
    terms of :func:`levyladder.renewal._exact_biv` summed one jump-count
    vector at a time."""
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
    if c == 0:
        return float(s[0]), float(exits_y[0])

    k = m.sum(axis=1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, k.max() + 1)))))
    log_w = log_fact[k] - log_fact[m].sum(axis=1) + (m * np.log(rates)).sum(axis=1)
    log_c = math.log(c)
    v = creep = 0.0
    for kj, lw, sj, ej in zip(k.tolist(), log_w.tolist(), s.tolist(), exits_y.tolist()):
        # P(N >= k) and P(N >= k + 1) for N ~ Poisson(c S(m))
        sf = poisson_weights([c * sj], kj)[1][0] if math.isfinite(sj) else np.ones(kj + 2)
        v += math.exp(lw - (kj + 1) * log_c) * float(sf[kj + 1])
        if ej:
            creep += math.exp(lw - kj * log_c) * float(sf[kj] - sf[kj + 1])
    return v, creep


# ---------------------------------------------------------------------------
# Whole-batch reductions of the Monte Carlo checks
# ---------------------------------------------------------------------------


def histogram(axes: Sequence[Axis], columns: Sequence[np.ndarray], n_total: int,
              weight: float = 1.0) -> DiscreteMeasureND:
    """Histogram measure of all points at once: each point in the grid adds
    1.0 to a float cell, and carries mass ``weight / n_total``."""
    shape = tuple(a.size for a in axes)
    idx = [a.index(col) for a, col in zip(axes, columns)]
    ok = np.ones(columns[0].size, dtype=bool)
    for ix in idx:
        ok &= ix >= 0
    flat = np.zeros(int(np.prod(shape)))
    if ok.any():
        np.add.at(flat, np.ravel_multi_index([ix[ok] for ix in idx], shape), 1.0)
    mass = flat.reshape(shape) * (weight / n_total)
    return DiscreteMeasureND(tuple(axes), mass, weight * (n_total - int(ok.sum())) / n_total)


def creep_estimates(spec: ProcessSpec, t: float, levels: Sequence[float], n: int,
                    policy: RngPolicy) -> tuple[list[EstimateWithError], dict[str, int]]:
    """``estimate_p`` at each level from one batch of ``n`` walks to the
    highest level."""
    levels = np.asarray(levels, dtype=float)
    cap = _closed(t)
    order = np.argsort(levels, kind="stable")
    top, lower = order[-1], order[:-1]
    batch = sample_passages(spec, float(levels[top]), cap=cap, n=n, policy=policy,
                            below=levels[lower])
    hits = np.empty(levels.size, dtype=np.int64)
    hits[top] = (batch.creep & (batch.tau <= cap)).sum()
    hits[lower] = batch.level_creep.sum(axis=0)
    return [binomial_estimate(int(k), batch.n) for k in hits], dict(batch.monitors)


@dataclass
class WholeBatch:
    """A check's empirical side reduced from one batch: its histogram and the
    shares of its censored, killed and creeping records, and of its ladder
    returns above the maximum (0 where the sampler has none)."""

    emp: DiscreteMeasureND | None
    censored: float
    killed: float = 0.0
    creep: float = 0.0
    x_pos: float = 0.0
    monitors: dict = field(default_factory=dict)


def ladder_histogram(spec: ProcessSpec, n: int, policy: RngPolicy,
                     axes: Sequence[Axis] | None, cap: float) -> WholeBatch:
    """``check_amicale``'s (s, x) ladder measure of weight ``spec.rate``
    (None without ``axes``)."""
    lad = sample_ladder_jumps(spec, n, policy.substream("lhs"), cap=cap)
    ok = ~lad.censored
    emp = None if axes is None else histogram(axes, [lad.ds[ok], lad.dx[ok]], lad.n,
                                              weight=spec.rate)
    return WholeBatch(emp, lad.censored_mass, creep=float((ok & (lad.dx == 0.0)).mean()),
                      x_pos=float((ok & (lad.dx > 0)).mean()))


def alpha_cdf(spec: ProcessSpec, n: int, policy: RngPolicy, s_grid: Sequence[float],
              v_max: int, x_max: int) -> np.ndarray:
    """``check_alpha_embedding``'s empirical CDF on its grid."""
    h = LatticeWalkSpec.from_process(spec).h
    batch = sample_ladder_jumps(spec, n, policy.substream("alpha"), cap=float(s_grid[-1]))
    ok = ~batch.censored
    s_arr = np.asarray(s_grid)
    si = np.searchsorted(s_arr, batch.ds[ok], side="left")
    vi = np.minimum(np.round(batch.v[ok] / h).astype(int), v_max + 1)
    xi = np.minimum(np.round(batch.dx[ok] / h).astype(int), x_max + 1)
    hist = np.zeros((s_arr.size + 1, v_max + 2, x_max + 2))
    np.add.at(hist, (si, vi, xi), 1.0)
    cdf = hist.cumsum(axis=0).cumsum(axis=1).cumsum(axis=2) / batch.n
    return cdf[: len(s_grid), : v_max + 1, : x_max + 1]


def quintuple_histogram(spec: ProcessSpec, u: float, cap: float, n: int, policy: RngPolicy,
                        axes: Sequence[Axis], t_cut: float | None = None) -> WholeBatch:
    """``check_quintuple``'s jump-passage histogram: on the lattice route
    (``t_cut`` None) over (x, v, y, s, t), on the creeping route over (t, y,
    s, vhat) with ``creep`` the creeping mass by ``t_cut``."""
    batch = sample_passages(spec, u, cap, n, policy.substream("emp"))
    x, v, y, s, t = batch.quintuple()
    jump = ~batch.creep[batch.resolved]
    if t_cut is None:
        cols, creep = [x, v, y, s, t], 0.0
    else:
        cols = [t, y, s, v - y]
        creep = float((batch.creep & (batch.tau <= t_cut)).mean())
    emp = histogram(axes, [c[jump] for c in cols], batch.n)
    return WholeBatch(emp, batch.censored_mass, creep=creep, monitors=dict(batch.monitors))


def quadruple_histogram(spec: BivariateSubordinatorSpec, u: float, n: int, policy: RngPolicy,
                        axes: Sequence[Axis], s_cap: float = math.inf,
                        t_cut: float = math.inf) -> WholeBatch:
    """``check_quadruple``'s (x, y, s, t) histogram; ``creep`` is the
    creeping mass with ``Z`` at most ``t_cut`` at passage."""
    batch = sample_biv_passages(spec, u, n, policy.substream("emp"), s_cap=s_cap)
    emp = histogram(axes, list(batch.quadruple()), batch.n)
    creep = float((batch.creep & (batch.z_before + batch.dz <= t_cut)).mean())
    return WholeBatch(emp, batch.censored_mass, float(batch.killed.mean()), creep,
                      monitors=dict(batch.monitors))
