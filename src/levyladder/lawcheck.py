"""Distribution-level verification of the passage laws.

Comparisons run between an empirical measure (histogrammed passage records)
and an independently composed one (exact lattice ladder tables, the exact
renewal sums of an atomic bivariate subordinator, or separate Monte-Carlo
routes through the renewal measures).  Distances are total
variation on a declared finite cell grid, or sup-CDF distance; excluded and
censored mass is always reported, never dropped silently.

Grid conventions: a "bins" axis with edges ``e_0 < e_1 < ...`` has cells
``(e_i, e_{i+1}]`` except that the left edge value itself lands in cell 0;
axes for coordinates carrying an atom at 0 (overshoot/undershoot of a
creeping fixture) use a leading edge below 0 so that the exact value 0
occupies its own cell.  An "atoms" axis matches coordinates exactly, which
is the right notion for lattice-valued records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .processes import BivariateSubordinatorSpec, DiscreteAtoms, ProcessSpec
from .results import CheckReport, row_budgets, verdict
from .rng import RngPolicy
from .passage import (
    K_CAP_TAIL,
    AlphaBatch,
    PassageBatch,
    sample_alpha,
    sample_biv_passages,
    sample_ladder_jumps,
    sample_passages,
)
from .renewal import dual_ladder_measure, exact_V, fluct_boxes
from . import rw_ladder as rl

__all__ = [
    "Axis",
    "DiscreteMeasureND",
    "quintuple_empirical",
    "quintuple_rhs_lattice",
    "check_quintuple",
    "check_cor_jtop",
    "check_amicale",
    "check_quadruple",
    "check_alpha_embedding",
]

# Fixed slack of the TV and sup-CDF rows, which carry no SE: their budgets.
QUINTUPLE_LATTICE_TV = 0.02
QUINTUPLE_CREEPING_TV = 0.03
QUADRUPLE_TV = 0.02
ALPHA_SUP_CDF = 0.01


# ---------------------------------------------------------------------------
# Measures on product grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Axis:
    """One coordinate of a product grid: exact atoms or half-open bins."""

    name: str
    kind: str  # "atoms" | "bins"
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("atoms", "bins"):
            raise ValueError("axis kind must be 'atoms' or 'bins'")
        if len(self.values) < (1 if self.kind == "atoms" else 2):
            raise ValueError(f"axis {self.name} needs more values")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError(f"axis {self.name} values must be strictly increasing")

    @property
    def size(self) -> int:
        return len(self.values) - (0 if self.kind == "atoms" else 1)

    def index(self, x: np.ndarray) -> np.ndarray:
        """Cell index of each coordinate; -1 marks out-of-grid values."""
        x = np.asarray(x, dtype=float)
        vals = np.asarray(self.values)
        if self.kind == "atoms":
            idx = np.searchsorted(vals, x)
            idx[idx >= vals.size] = vals.size - 1
            ok = vals[idx] == x
            return np.where(ok, idx, -1)
        idx = np.searchsorted(vals, x, side="left") - 1
        idx = np.where(x == vals[0], 0, idx)
        idx = np.where((x < vals[0]) | (x > vals[-1]), -1, idx)
        return idx.astype(int)


@dataclass
class DiscreteMeasureND:
    """Finite (sub-)probability measure on a product grid, with optional
    per-cell standard errors and a deterministic error bound."""

    axes: tuple[Axis, ...]
    mass: np.ndarray
    se: np.ndarray | None = None
    excluded_mass: float = 0.0
    bound: float = 0.0

    def __post_init__(self) -> None:
        shape = tuple(a.size for a in self.axes)
        if self.mass.shape != shape:
            raise ValueError(f"mass array shape {self.mass.shape} != grid shape {shape}")
        if (self.mass < -1e-15).any():
            raise ValueError("measure masses must be nonnegative")

    @property
    def total_mass(self) -> float:
        return float(self.mass.sum())

    def _check_axes(self, other: "DiscreteMeasureND") -> None:
        if self.axes != other.axes:
            raise ValueError("measures live on different grids")

    def tv_distance(self, other: "DiscreteMeasureND") -> float:
        self._check_axes(other)
        return 0.5 * float(np.abs(self.mass - other.mass).sum())

    @classmethod
    def from_points(
        cls,
        axes: Sequence[Axis],
        columns: Sequence[np.ndarray],
        n_total: int,
        weight: float = 1.0,
    ) -> "DiscreteMeasureND":
        """Histogram measure: each point carries mass ``weight / n_total``.

        ``n_total`` may exceed the number of points supplied (censored or
        out-of-scope records); the shortfall plus out-of-grid points are
        accounted in ``excluded_mass``.
        """
        if len(columns) != len(axes):
            raise ValueError("one column per axis required")
        shape = tuple(a.size for a in axes)
        idx = [a.index(col) for a, col in zip(axes, columns)]
        ok = np.ones(columns[0].size, dtype=bool)
        for ix in idx:
            ok &= ix >= 0
        flat = np.zeros(int(np.prod(shape)))
        if ok.any():
            lin = np.ravel_multi_index([ix[ok] for ix in idx], shape)
            np.add.at(flat, lin, 1.0)
        mass = flat.reshape(shape) * (weight / n_total)
        p = flat / n_total
        se = np.sqrt(np.maximum(p * (1 - p), 0.0) / n_total).reshape(shape) * weight
        excluded = weight * (n_total - int(ok.sum())) / n_total
        return cls(tuple(axes), mass, se, excluded)


def _zero_offset_edges(mesh: float, hi: float) -> tuple[float, ...]:
    """Bin edges [-mesh, 0, mesh, 2 mesh, ..., hi]: cell 0 is the atom {0}."""
    k = int(round(hi / mesh))
    return tuple([-mesh] + [i * mesh for i in range(k + 1)])


# ---------------------------------------------------------------------------
# Quintuple law
# ---------------------------------------------------------------------------


def quintuple_empirical(
    batch: PassageBatch, axes: Sequence[Axis], creep_fibre: bool = False
) -> DiscreteMeasureND:
    """Histogram of (x, v, y, s, t) over resolved records.

    ``creep_fibre=False`` restricts to jump passages (x > 0); the creeping
    records are then accounted in ``excluded_mass`` and are compared
    separately against the derivative term.
    """
    x, v, y, s, t = batch.quintuple()
    creep = batch.creep[batch.resolved]
    keep = creep if creep_fibre else ~creep
    cols = [x[keep], v[keep], y[keep], s[keep], t[keep]]
    return DiscreteMeasureND.from_points(axes, cols, batch.n)


def _lattice_time_mixtures(
    walk: rl.LatticeWalkSpec,
    edges: np.ndarray,
    heights: Sequence[int],
    dual: bool,
    k_tol: float = 1e-12,
) -> tuple[np.ndarray, float]:
    """Masses ``M[bin, height]`` of the ladder renewal measure on time bins.

    For the ascending table (``dual=False``) this is
    ``rate^{-1} sum_k P(sigma_{k+1} in bin) U(k, {w})``; for the dual,
    ``sum_k P(sigma_k in bin) Uhat(k, {w})``.  A final infinite bin is
    completed through the all-epoch Green totals.  Returns the masses and a
    deterministic bound on their total error.
    """
    lam = walk.rate
    finite = edges[np.isfinite(edges)]
    t_last = float(finite[-1])
    K = rl.truncation_depth(lam, t_last, k_tol)
    mode = "strict-descending" if dual else "weak-ascending"
    layers = rl.stay_region_layers(walk, K, mode)
    wmax = max(heights)
    U = np.zeros((K + 1, wmax + 1))
    for k, layer in enumerate(layers):
        for w, m in layer.items():
            if 0 <= w <= wmax:
                U[k, w] = m
    # survival P(sigma_j <= t) at every finite edge
    shift = 0 if dual else 1
    sf = {float(t): rl.poisson_sf(lam * t, K + shift) for t in finite}
    nb = edges.size - 1
    out = np.zeros((nb, wmax + 1))
    bound = 0.0
    scale = 1.0 if dual else 1.0 / lam
    for j in range(nb):
        a, b = edges[j], edges[j + 1]
        if math.isinf(b):
            g, gb = rl.green_function(walk, mode, wmax)
            tail_lo = np.array([sf[float(a)][k + shift] for k in range(K + 1)])
            for w in heights:
                val = g[w] - float(np.sum(tail_lo * U[:, w]))
                out[j, w] = scale * max(val, 0.0)
                bound += scale * (gb[w] + k_tol)
        else:
            # the first bin includes its left edge, so the time atom of
            # sigma_0 = 0 (the dual epoch-0 term) belongs to bin 0
            pa = sf[float(a)] if j > 0 else np.zeros(K + 1 + shift)
            pb = sf[float(b)]
            for w in heights:
                val = float(np.sum((pb[shift : K + 1 + shift] - pa[shift : K + 1 + shift]) * U[:, w]))
                out[j, w] = scale * max(val, 0.0)
            bound += scale * k_tol
    return out, bound


def quintuple_rhs_lattice(
    spec: ProcessSpec,
    u: float,
    t_edges: Sequence[float],
    s_edges: Sequence[float],
) -> tuple[DiscreteMeasureND, tuple[Axis, ...]]:
    """Exact composed quintuple law for a lattice compound Poisson fixture.

    No creeping term: the fixture has zero ladder height drift, so the law
    is carried entirely by ``x > 0``.  Axes are (x, v, y, s, t) with lattice
    atoms in space and the given time bins (the last bin may be infinite).
    """
    if not spec.is_compound_poisson:
        raise ValueError("the exact quintuple route needs a compound Poisson lattice fixture")
    walk = rl.LatticeWalkSpec.from_process(spec)
    h = walk.h
    law = spec.jumps
    assert isinstance(law, DiscreteAtoms)
    xi = [(v, float(p)) for v, p in zip(law.values, [float(q) for q in law.probs]) if v > 0]
    xi_max = max(v for v, _ in xi)
    ju = int(round(u / h))
    if abs(ju * h - u) > 1e-9:
        raise ValueError("level u must be a lattice point for the exact route")

    y_atoms = [j for j in range(0, ju + 1)]
    v_atoms = [j for j in range(0, int(round(xi_max / h)))]  # v < xi_max or no passage
    x_atoms = sorted({int(round(v / h)) - vv for v, _ in xi for vv in v_atoms if v / h - vv > 0})

    axes = (
        Axis("x", "atoms", tuple(a * h for a in x_atoms)),
        Axis("v", "atoms", tuple(a * h for a in v_atoms)),
        Axis("y", "atoms", tuple(a * h for a in y_atoms)),
        Axis("s", "bins", tuple(s_edges)),
        Axis("t", "bins", tuple(t_edges)),
    )
    vmass, vbound = _lattice_time_mixtures(
        walk, np.asarray(t_edges, dtype=float), [ju - y for y in y_atoms], dual=False
    )
    vhat_heights = list(range(0, int(round(xi_max / h))))
    vhmass, vhbound = _lattice_time_mixtures(
        walk, np.asarray(s_edges, dtype=float), vhat_heights, dual=True
    )

    mass = np.zeros(tuple(a.size for a in axes))
    for iy, y in enumerate(y_atoms):
        w = ju - y
        for vhat in vhat_heights:
            v = y + vhat
            if v not in v_atoms:
                continue
            iv = v_atoms.index(v)
            for val, p in xi:
                xlat = int(round(val / h)) - v
                if xlat <= 0:
                    continue
                ix = x_atoms.index(xlat)
                pi_mass = spec.rate * p
                for jt in range(len(t_edges) - 1):
                    for js in range(len(s_edges) - 1):
                        mass[ix, iv, iy, js, jt] += (
                            vmass[jt, w] * vhmass[js, vhat] * pi_mass
                        )
    bound = vbound * 2.0 + vhbound * 2.0  # coarse: each factor is at most 1-ish
    return DiscreteMeasureND(axes, mass, None, 0.0, bound), axes


def check_quintuple(
    spec: ProcessSpec,
    u: float,
    n: int,
    policy: RngPolicy,
    workers: int = 1,
    cap: float = 30000.0,
    t_edges: Sequence[float] | None = None,
    s_edges: Sequence[float] | None = None,
    mesh: float = 0.1,
    delta: float = 0.005,
    fixture: str = "",
) -> CheckReport:
    """Quintuple law at level ``u``: empirical joint law of the five passage
    variables against the composed right side.

    Lattice compound Poisson fixtures compare against the exact table route
    and must carry zero creeping mass.  Drift-creeping fixtures compare the
    ``x > 0`` part against a Monte-Carlo composed measure (independent
    streams) and the creeping fibre mass against the ladder-drift times the
    left derivative of V, within 3 combined standard errors plus the
    difference-quotient bias estimate.
    """
    if spec.is_compound_poisson:
        return _check_quintuple_lattice(spec, u, n, policy, workers, cap, t_edges, s_edges,
                                        fixture)
    return _check_quintuple_creeping(spec, u, n, policy, workers, t_edges, s_edges, mesh,
                                     delta, fixture)


def _default_edges(hi: float) -> tuple[float, ...]:
    return (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, hi, math.inf)


def _check_quintuple_lattice(spec, u, n, policy, workers, cap, t_edges, s_edges, fixture):
    t_edges = tuple(t_edges) if t_edges else _default_edges(128.0)
    s_edges = tuple(s_edges) if s_edges else _default_edges(128.0)
    rhs, axes = quintuple_rhs_lattice(spec, u, t_edges, s_edges)
    batch = sample_passages(spec, u, cap, n, policy.substream("emp"), workers)
    if bool(batch.creep.any()):
        raise RuntimeError("compound Poisson fixture produced a creeping record")
    emp = quintuple_empirical(batch, axes, creep_fibre=False)
    tv = emp.tv_distance(rhs)
    dist, budget = verdict([(tv, 0.0, QUINTUPLE_LATTICE_TV),
                            (emp.excluded_mass, 0.0, 0.01)])
    details = [{
        "tv": tv, "excluded_mass": emp.excluded_mass, "rhs_total": rhs.total_mass,
        "emp_total": emp.total_mass, "rhs_bound": rhs.bound, "creep_mass": 0.0,
        "k_cap_tail": K_CAP_TAIL,
    }]
    return CheckReport(
        check="quintuple",
        fixture=fixture,
        params={"u": u, "n": n, "cap": cap},
        lhs=emp.total_mass,
        rhs=rhs.total_mass,
        distance=dist,
        budget=budget,
        n_paths=batch.n,
        censored_mass=batch.censored_mass,
        details=details,
        monitors=dict(batch.monitors),
        measures=(emp, rhs),
    )


def _check_quintuple_creeping(spec, u, n, policy, workers, t_edges, s_edges, mesh,
                              delta, fixture):
    if not (spec.drift > 0):
        raise ValueError("creeping quintuple route requires positive drift")
    law = spec.jumps
    if not (isinstance(law, DiscreteAtoms) and all(v == round(v) for v in law.values)):
        raise NotImplementedError("MC quintuple composition implemented for lattice jump laws")
    xi = [(v, float(p)) for v, p in zip(law.values, [float(q) for q in law.probs]) if v > 0]
    t_edges = tuple(t_edges) if t_edges else (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, math.inf)
    s_edges = tuple(s_edges) if s_edges else (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, math.inf)
    xim = max(v for v, _ in xi)
    y_edges = _zero_offset_edges(mesh, min(u, xim))
    vh_edges = _zero_offset_edges(mesh, xim)
    y_axis = Axis("y", "bins", y_edges)
    vh_axis = Axis("vhat", "bins", vh_edges)
    s_axis = Axis("s", "bins", s_edges)
    t_axis = Axis("t", "bins", t_edges)
    axes = (t_axis, y_axis, s_axis, vh_axis)

    # empirical (x > 0): coordinates (t, y, s, vhat) determine x = xi - y - vhat
    batch = sample_passages(spec, u, cap=200.0, n=n, policy=policy.substream("emp"),
                            workers=workers)
    x, v, y, s, t = batch.quintuple()
    creep = batch.creep[batch.resolved]
    vhat = v - y
    emp = DiscreteMeasureND.from_points(
        axes, [t[~creep], y[~creep], s[~creep], vhat[~creep]], batch.n
    )

    # RHS: V-measure boxes (independent stream) x dual-ladder measure x Pi.
    # The constraint x = xi - y - vhat > 0 cuts through the reporting cells
    # along the diagonals y + vhat = xi, so the product is composed on a
    # finer sub-mesh and aggregated: only cells fully inside the region
    # carry mass, and the remaining boundary strip is a quarter-mesh wide.
    sub = 4
    fm = mesh / sub
    ny_f = int(round(min(u, xim) / fm))
    y_f = [round(j * fm, 12) for j in range(ny_f + 1)]
    v_boxes = []
    for jt in range(t_axis.size):
        for jyf in range(ny_f):
            v_boxes.append((t_edges[jt], t_edges[jt + 1], u - y_f[jyf + 1], u - y_f[jyf]))
    vests = fluct_boxes(spec, v_boxes, n, policy.substream("vmeas"), workers)
    # dual measure grid: fine depth cells ({0} then sub-mesh bins); the
    # infinite s bin is realised with a generous finite guard (dual ladder
    # points of an upward-drifting fixture beyond it are exponentially
    # unlikely and the guard loss is reported)
    dm_s_edges = [e for e in s_edges if math.isfinite(e)]
    if math.isinf(s_edges[-1]):
        dm_s_edges.append(max(60.0, 4.0 * dm_s_edges[-1]))
    nv_f = int(round(xim / fm))
    dm_v_edges = [0.0, 1e-9] + [round(j * fm, 12) for j in range(1, nv_f + 1)]
    vh_mass, _, vh_drop = dual_ladder_measure(
        spec, dm_s_edges, dm_v_edges, n, policy.substream("vhat"), workers
    )
    rhs_mass = np.zeros(tuple(a.size for a in axes))
    vh_fine_hi = [1e-9] + [y_f_edge for y_f_edge in dm_v_edges[2:]]
    for jt in range(t_axis.size):
        for jyf in range(ny_f):
            vest = vests[jt * ny_f + jyf]
            jy = int(y_axis.index(np.array([y_f[jyf + 1]]))[0])
            for js in range(s_axis.size):
                for jvf in range(len(dm_v_edges) - 1):
                    vhhi = vh_fine_hi[jvf]
                    pi_mass = sum(spec.rate * p for val, p in xi
                                  if val - y_f[jyf + 1] - vhhi >= 0)
                    if pi_mass == 0.0:
                        continue
                    jv = 0 if jvf == 0 else int(vh_axis.index(np.array([vhhi]))[0])
                    rhs_mass[jt, jy, js, jv] += vest.value * vh_mass[js, jvf] * pi_mass
    rhs = DiscreteMeasureND(axes, rhs_mass)
    tv = emp.tv_distance(rhs)

    # creeping fibre: empirical creep mass versus drift * left derivative of V
    band = fluct_boxes(
        spec,
        [(0.0, float(t_edges[-2] if math.isinf(t_edges[-1]) else t_edges[-1]), u - delta, u)],
        n, policy.substream("band"), workers,
    )[0]
    band2 = fluct_boxes(
        spec,
        [(0.0, float(t_edges[-2] if math.isinf(t_edges[-1]) else t_edges[-1]), u - 2 * delta, u - delta)],
        n, policy.substream("band2"), workers,
    )[0]
    t_cut = float(t_edges[-2] if math.isinf(t_edges[-1]) else t_edges[-1])
    creep_mask = batch.creep & (batch.tau <= t_cut)
    creep_mass = float(creep_mask.mean())
    creep_se = math.sqrt(creep_mass * (1 - creep_mass) / batch.n)
    deriv = spec.drift * band.value / delta
    deriv_se = spec.drift * band.se / delta
    delta_bias = abs(band.value - band2.value) / delta * spec.drift
    fibre_dist = abs(creep_mass - deriv)
    rows = [(tv, 0.0, QUINTUPLE_CREEPING_TV),
            (fibre_dist, math.hypot(creep_se, deriv_se), delta_bias)]
    tv_budget, fibre_budget = row_budgets(rows)
    dist, budget = verdict(rows)

    details = [{
        "tv": tv, "tv_budget": tv_budget, "creep_mass": creep_mass, "deriv_route": deriv,
        "fibre_dist": fibre_dist, "fibre_budget": fibre_budget, "delta_bias": delta_bias,
        "excluded_mass": emp.excluded_mass, "vhat_dropped": vh_drop,
        "censored": batch.censored_mass,
    }]
    return CheckReport(
        check="quintuple",
        fixture=fixture,
        params={"u": u, "n": n, "mesh": mesh, "delta": delta},
        lhs=creep_mass,
        rhs=deriv,
        se_lhs=creep_se,
        se_rhs=deriv_se,
        distance=dist,
        budget=budget,
        n_paths=batch.n,
        censored_mass=batch.censored_mass,
        details=details,
        monitors=dict(batch.monitors),
    )


# ---------------------------------------------------------------------------
# Corollary: joint law of passage time and overshoot
# ---------------------------------------------------------------------------


def check_cor_jtop(
    spec: ProcessSpec,
    u: float,
    n: int,
    policy: RngPolicy,
    workers: int = 1,
    r_max: float = 6.0,
    n_r_bins: int = 8,
    fixture: str = "",
) -> CheckReport:
    """Joint law of (overshoot, passage time) against the composed route.

    For a lattice compound Poisson fixture the right side is exact: time
    components of V and of the ladder jump measure are independent Erlang
    mixtures, so their convolution is again an Erlang mixture.  For a
    spectrally negative creeping fixture the overshoot marginal is checked
    to be concentrated at zero.
    """
    if spec.is_compound_poisson:
        walk = rl.LatticeWalkSpec.from_process(spec)
        h = walk.h
        law = spec.jumps
        assert isinstance(law, DiscreteAtoms)
        xi = [(int(round(v / h)), float(p)) for v, p in zip(law.values, law.probs) if v > 0]
        xim = max(v for v, _ in xi)
        ju = int(round(u / h))
        lam = spec.rate
        r_edges = np.linspace(0.0, r_max, n_r_bins + 1)
        K = rl.truncation_depth(lam, r_max, 1e-12)
        u_layers = rl.stay_region_layers(walk, K, "weak-ascending")
        uh_layers = rl.stay_region_layers(walk, K, "strict-descending")
        sf = [rl.poisson_sf(lam * t, 2 * K + 2) for t in r_edges]
        x_atoms = list(range(1, xim + 1))
        rhs = np.zeros((len(x_atoms), n_r_bins))
        for k in range(K + 1):
            for y in range(0, ju + 1):
                uw = u_layers[k].get(ju - y, 0.0)
                if uw == 0.0:
                    continue
                for j in range(K + 1):
                    for vhat, uhw in uh_layers[j].items():
                        for val, p in xi:
                            xl = val - y - vhat
                            if xl <= 0:
                                continue
                            erl = k + 1 + j
                            for jr in range(n_r_bins):
                                pr = sf[jr + 1][erl] - sf[jr][erl]
                                rhs[x_atoms.index(xl), jr] += uw * uhw * p * pr
        axes = (
            Axis("x", "atoms", tuple(a * h for a in x_atoms)),
            Axis("r", "bins", tuple(r_edges)),
        )
        rhs_meas = DiscreteMeasureND(axes, rhs, None, 0.0, 2e-12)
        batch = sample_passages(spec, u, cap=r_max, n=n, policy=policy.substream("emp"), workers=workers)
        x = batch.x_at[batch.resolved] - u
        tau = batch.tau[batch.resolved]
        emp = DiscreteMeasureND.from_points(axes, [x, tau], batch.n)
        # bookkeeping: the tau-marginal must integrate to P(tau <= cap)
        book = abs(emp.total_mass - (1.0 - batch.censored_mass))
        cell_se = np.sqrt(rhs_meas.mass * (1 - rhs_meas.mass) / n)
        tv = emp.tv_distance(rhs_meas)
        rows = [(g, se, 1e-9)
                for g, se in zip(np.abs(emp.mass - rhs_meas.mass).ravel(), cell_se.ravel())]
        dist, budget = verdict(rows + [(book, 0.0, 1e-12), (tv, 0.0, 0.02)])
        return CheckReport(
            check="cor-jtop",
            fixture=fixture,
            params={"u": u, "n": n, "r_max": r_max},
            lhs=emp.total_mass,
            rhs=rhs_meas.total_mass,
            distance=dist,
            budget=budget,
            n_paths=batch.n,
            censored_mass=batch.censored_mass,
            details=[{"tv": tv, "bookkeeping_gap": book}],
            monitors=dict(batch.monitors),
        )
    # creeping, spectrally negative: overshoot marginal is a point mass at 0
    batch = sample_passages(spec, u, cap=r_max, n=n, policy=policy.substream("emp"), workers=workers)
    x = batch.x_at[batch.resolved] - u
    creep_fraction = float((x == 0.0).mean()) if x.size else 1.0
    dist, budget = verdict([(1.0 - creep_fraction, 0.0)])
    return CheckReport(
        check="cor-jtop",
        fixture=fixture,
        params={"u": u, "n": n, "r_max": r_max},
        lhs=creep_fraction,
        rhs=1.0,
        distance=dist,
        budget=budget,
        n_paths=batch.n,
        censored_mass=batch.censored_mass,
        details=[{"creep_fraction": creep_fraction}],
        monitors=dict(batch.monitors),
    )


# ---------------------------------------------------------------------------
# Equation amicale inversee and its creeping characterisation
# ---------------------------------------------------------------------------


def check_amicale(
    spec: ProcessSpec,
    n: int,
    policy: RngPolicy,
    workers: int = 1,
    s_edges: Sequence[float] | None = None,
    mesh: float = 0.1,
    fixture: str = "",
) -> CheckReport:
    """Ladder jump measure versus the composed dual route.

    On ``x > 0`` the identity must hold for every fixture.  On the ``x = 0``
    fibre the two sides must agree iff the fixture does not creep: for a
    lattice compound Poisson fixture the identity is checked cell by cell;
    for a creeping fixture the ladder measure must carry strictly positive
    mass at ``x = 0`` (at least 5 SE above zero) while the composed route
    carries none there.
    """
    s_edges = tuple(s_edges) if s_edges else (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
    lam = spec.rate
    if spec.is_compound_poisson:
        walk = rl.LatticeWalkSpec.from_process(spec)
        h = walk.h
        law = spec.jumps
        assert isinstance(law, DiscreteAtoms)
        alpha = sample_alpha(spec, n, policy.substream("lhs"), time_cap=float(s_edges[-1]) + 1.0,
                             workers=workers)
        xim = int(round(max(abs(v) for v in law.values) / h))
        x_atoms = tuple(j * h for j in range(0, xim + 1))
        axes = (Axis("s", "bins", s_edges), Axis("x", "atoms", x_atoms))
        ok = ~alpha.censored
        emp = DiscreteMeasureND.from_points(axes, [alpha.s[ok], alpha.x[ok]], alpha.n, weight=lam)
        vhm, _ = _lattice_time_mixtures(
            walk, np.asarray(s_edges, dtype=float), list(range(0, xim + 1)), dual=True
        )
        rhs = np.zeros(emp.mass.shape)
        for js in range(len(s_edges) - 1):
            for ix, xv in enumerate(x_atoms):
                xl = int(round(xv / h))
                acc = 0.0
                for vhat in range(0, xim - xl + 1):
                    acc += vhm[js, vhat] * spec.levy_atom((xl + vhat) * h)
                rhs[js, ix] = acc
        rhs_meas = DiscreteMeasureND(axes, rhs, None, 0.0, 1e-10)
        gap = np.abs(emp.mass - rhs_meas.mass)
        dist, budget = verdict([(g, se, 1e-9) for g, se in zip(gap.ravel(), emp.se.ravel())])
        return CheckReport(
            check="amicale",
            fixture=fixture,
            params={"n": n},
            lhs=float(emp.mass[:, 0].sum()),
            rhs=float(rhs_meas.mass[:, 0].sum()),
            distance=dist,
            budget=budget,
            n_paths=alpha.n,
            censored_mass=alpha.censored_mass,
            details=[{"x0_lhs": float(emp.mass[:, 0].sum()), "x0_rhs": float(rhs_meas.mass[:, 0].sum())}],
        )

    if not (spec.drift > 0):
        raise ValueError("amicale check requires compound Poisson or creeping fixtures")
    lad = sample_ladder_jumps(spec, n, policy.substream("lhs"), cap=float(s_edges[-1]) * 10,
                              workers=workers)
    res = ~lad.censored
    zero_fibre = res & (lad.dx == 0.0)
    p_zero = float(zero_fibre.mean())
    se_zero = math.sqrt(max(p_zero * (1 - p_zero), 1e-300) / lad.n)
    lhs_zero = lam * p_zero
    se_lhs_zero = lam * se_zero

    law = spec.jumps
    pos_atoms = (
        [(float(v), float(p)) for v, p in zip(law.values, law.probs) if v > 0]
        if isinstance(law, DiscreteAtoms)
        else []
    )
    details: list[dict] = []
    rows = []
    if pos_atoms:
        # x > 0 comparison on an aligned mesh: x = xi - v
        vh_edges = [0.0] + list(
            np.round(np.arange(mesh, max(v for v, _ in pos_atoms) + mesh / 2, mesh), 12)
        )
        vhm, vhse, vhdrop = dual_ladder_measure(
            spec, list(s_edges), vh_edges, n, policy.substream("rhs"), workers
        )
        s_axis = Axis("s", "bins", s_edges)
        for val, p in pos_atoms:
            for jv in range(len(vh_edges) - 1):
                xlo = val - vh_edges[jv + 1]
                xhi = val - vh_edges[jv]
                if xhi <= 0:
                    continue
                sel = res & (lad.dx > max(xlo, 0.0)) & (lad.dx <= xhi)
                for js in range(s_axis.size):
                    in_s = sel & (lad.ds > s_edges[js]) & (lad.ds <= s_edges[js + 1])
                    if js == 0:
                        in_s = sel & (lad.ds <= s_edges[1])
                    pe = float(in_s.mean())
                    lhs_cell = lam * pe
                    se_cell = lam * math.sqrt(max(pe * (1 - pe), 0.0) / lad.n)
                    rhs_cell = vhm[js, jv] * spec.levy_atom(val)
                    se_rhs_cell = vhse[js, jv] * spec.levy_atom(val)
                    rows.append((abs(lhs_cell - rhs_cell), math.hypot(se_cell, se_rhs_cell),
                                 1e-9))
        details.append({"vhat_dropped": vhdrop})
    else:
        # spectrally negative: the positive part of the jump measure vanishes,
        # so the composed route is identically zero for x > 0 and at {0}
        pos_mass = float((res & (lad.dx > 0)).mean())
        rows.append((pos_mass, 0.0))
        details.append({"x_pos_mass": pos_mass})

    # composed route on the zero fibre: sum_v Vhat({v}) Pi({v}) -- zero for
    # diffuse dual heights; the creeping characterisation demands the ladder
    # side carry strictly positive mass there (at least 5 SE above zero)
    rhs_zero = 0.0
    rows.append((max(5.0 * se_lhs_zero - lhs_zero, 0.0), 0.0))
    dist, budget = verdict(rows)
    details.append({
        "x0_mass": lhs_zero, "x0_se": se_lhs_zero, "x0_rhs": rhs_zero,
        "censored": lad.censored_mass,
    })
    return CheckReport(
        check="amicale",
        fixture=fixture,
        params={"n": n},
        lhs=lhs_zero,
        rhs=rhs_zero,
        se_lhs=se_lhs_zero,
        distance=dist,
        budget=budget,
        n_paths=lad.n,
        censored_mass=lad.censored_mass,
        details=details,
    )


# ---------------------------------------------------------------------------
# Quadruple law for explicit bivariate subordinators
# ---------------------------------------------------------------------------


def check_quadruple(
    spec: BivariateSubordinatorSpec,
    u: float,
    n: int,
    policy: RngPolicy,
    workers: int = 1,
    mesh: float = 0.05,
    t_edges: Sequence[float] | None = None,
    fixture: str = "",
) -> CheckReport:
    """Quadruple law at level ``u``: empirical (overshoot, undershoot,
    Z-jump, Z-before) against ``V(dt, u - dy) Pi(ds, dx + y)`` plus the
    creeping atom ``d_Y dV/du`` when the Y-drift is positive.

    The right side is exact: box masses are 2-D differences of
    :func:`exact_V` on the grid corners (t-edge, ``u`` - y-edge), and the
    creeping atom of each t bin is a difference of its creeping term.  The
    first t bin is closed at its left edge, which must be 0.
    """
    t_edges = tuple(t_edges) if t_edges else (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, math.inf)
    if t_edges[0] != 0.0:
        raise ValueError("the first t edge must be 0")
    dx_vals = sorted({dx for _, dx, _ in spec.atoms if dx > 0})
    if not dx_vals and spec.d_y == 0:
        raise ValueError("Y never crosses: no quadruple law to check")
    if spec.d_y == 0:
        return _check_quadruple_lattice_y(spec, u, n, policy, workers, t_edges, fixture)
    for dxv in dx_vals:
        if abs(round(dxv / mesh) * mesh - dxv) > 1e-9:
            raise ValueError("mesh must divide the Y jump sizes for aligned cells")
    x_hi = max(dx_vals) if dx_vals else mesh
    x_axis = Axis("x", "bins", _zero_offset_edges(mesh, x_hi))
    y_axis = Axis("y", "bins", _zero_offset_edges(mesh, u))
    s_atoms = tuple(sorted({0.0} | {dt for dt, dx, _ in spec.atoms if dx > 0}))
    s_axis = Axis("s", "atoms", s_atoms)
    t_axis = Axis("t", "bins", t_edges)
    axes = (x_axis, y_axis, s_axis, t_axis)

    batch = sample_biv_passages(spec, u, n, policy.substream("emp"), workers)
    x, yv, s, t = batch.quadruple()
    emp = DiscreteMeasureND.from_points(axes, [x, yv, s, t], batch.n)

    # V and its creeping term at every corner (t-edge, u - y-edge), y >= 0;
    # the t = 0 row stands for Z < 0 and stays zero
    y_edges = y_axis.values[1:]
    corners = np.zeros((len(t_edges), len(y_edges), 2))
    for i, te in enumerate(t_edges[1:], start=1):
        corners[i] = [exact_V(spec, te, u - ye) for ye in y_edges]
    per_t = np.diff(corners, axis=0)
    # box (t bin, Y in (u - y_hi, u - y_lo]) for y bin jy >= 1
    boxes = -np.diff(per_t[:, :, 0], axis=1)
    rhs_mass = np.zeros(tuple(a.size for a in axes))
    for jy in range(1, y_axis.size):
        ylo = y_axis.values[jy]
        for dt, dxv, r in spec.atoms:
            # x-cell aligned with the diagonal x = dx - y
            if dxv - ylo <= 0:
                continue
            ix = x_axis.index(np.array([dxv - ylo]))[0]
            rhs_mass[ix, jy, s_atoms.index(dt)] += boxes[:, jy - 1] * r
    ix0 = x_axis.index(np.array([0.0]))[0]
    iy0 = y_axis.index(np.array([0.0]))[0]
    rhs_mass[ix0, iy0, s_atoms.index(0.0)] += per_t[:, 0, 1]
    deriv_mass = float(corners[-2, 0, 1])
    rhs = DiscreteMeasureND(axes, rhs_mass)
    tv = emp.tv_distance(rhs)
    killed_mass = float(batch.killed.mean())
    # resolved passages that fall outside the grid
    off_grid = emp.excluded_mass - batch.censored_mass - killed_mass
    dist, budget = verdict([(tv, 0.0, QUADRUPLE_TV), (off_grid, 0.0, 0.01)])
    creep_emp = float((batch.creep & (batch.z_before + batch.dz <= t_edges[-2])).mean())
    details = [{
        "tv": tv, "creep_mass_emp": creep_emp, "creep_mass_rhs": deriv_mass,
        "killed_mass": killed_mass, "excluded": emp.excluded_mass,
    }]
    return CheckReport(
        check="quadruple",
        fixture=fixture,
        params={"u": u, "n": n, "mesh": mesh},
        lhs=creep_emp,
        rhs=deriv_mass,
        se_lhs=math.sqrt(creep_emp * (1 - creep_emp) / batch.n),
        distance=dist,
        budget=budget,
        n_paths=batch.n,
        censored_mass=batch.censored_mass,
        details=details,
        monitors=dict(batch.monitors),
    )


def _check_quadruple_lattice_y(spec, u, n, policy, workers, t_edges, fixture):
    """Quadruple law when the Y component is a pure lattice jump process.

    Undershoots then sit exactly on the lattice, so all space coordinates
    use atom axes; the creeping term is absent (d_Y = 0).  The mass of V at
    the lattice height ``k h`` is ``V(., (k + 1/2) h) - V(., (k - 1/2) h)``:
    heights are compared by lattice index, halfway between the points."""
    from fractions import Fraction
    from functools import reduce
    from .rw_ladder import _fraction_gcd

    dx_fracs = [Fraction(dx) for _, dx, _ in spec.atoms if dx > 0]
    h = float(reduce(_fraction_gcd, dx_fracs))
    y_atoms = sorted({round(u - k * h, 12) for k in range(int(u / h) + 1) if u - k * h >= 0})
    x_atoms = sorted({round(dxv - y, 12) for _, dxv, _ in spec.atoms if dxv > 0
                      for y in y_atoms if dxv - y > 0})
    s_atoms = tuple(sorted({dt for dt, dxv, _ in spec.atoms if dxv > 0}))
    x_axis = Axis("x", "atoms", tuple(x_atoms))
    y_axis = Axis("y", "atoms", tuple(y_atoms))
    s_axis = Axis("s", "atoms", s_atoms)
    t_axis = Axis("t", "bins", t_edges)
    axes = (x_axis, y_axis, s_axis, t_axis)

    batch = sample_biv_passages(spec, u, n, policy.substream("emp"), workers,
                                s_cap=1e7 if spec.q == 0 else math.inf)
    x, yv, s, t = batch.quadruple()
    emp = DiscreteMeasureND.from_points(axes, [x, yv, s, t], batch.n)

    heights = [round((u - ya) / h) for ya in y_atoms]
    corners = np.zeros((len(t_edges), len(heights)))
    for i, te in enumerate(t_edges[1:], start=1):
        corners[i] = [exact_V(spec, te, (k + 0.5) * h)[0] - exact_V(spec, te, (k - 0.5) * h)[0]
                      for k in heights]
    boxes = np.diff(corners, axis=0)
    rhs_mass = np.zeros(tuple(a.size for a in axes))
    for jy, ya in enumerate(y_atoms):
        for dt, dxv, r in spec.atoms:
            xa = round(dxv - ya, 12)
            if dxv <= 0 or xa <= 0:
                continue
            rhs_mass[x_atoms.index(xa), jy, s_atoms.index(dt)] += boxes[:, jy] * r
    rhs = DiscreteMeasureND(axes, rhs_mass)
    tv = emp.tv_distance(rhs)
    dist, budget = verdict([(tv, 0.0, QUADRUPLE_TV)])
    details = [{
        "tv": tv, "creep_mass_emp": float(batch.creep.mean()), "creep_mass_rhs": 0.0,
        "killed_mass": float(batch.killed.mean()), "excluded": emp.excluded_mass,
    }]
    return CheckReport(
        check="quadruple",
        fixture=fixture,
        params={"u": u, "n": n},
        lhs=float(batch.creep.mean()),
        rhs=0.0,
        distance=dist,
        budget=budget,
        n_paths=batch.n,
        censored_mass=batch.censored_mass,
        details=details,
        monitors=dict(batch.monitors),
    )


# ---------------------------------------------------------------------------
# The alpha experiment against the dual-table composition
# ---------------------------------------------------------------------------


def check_alpha_embedding(
    spec: ProcessSpec,
    n: int,
    policy: RngPolicy,
    workers: int = 1,
    s_grid: Sequence[float] | None = None,
    v_max: int = 5,
    x_max: int = 4,
    fixture: str = "",
) -> CheckReport:
    """Sup-CDF distance between the empirical law of
    ``(-X_{alpha-}, X_alpha, alpha - sigma_1)`` and the exact composition
    ``Vhat(ds, dv) F(dx + v)`` on the truncated lattice support."""
    if not spec.is_compound_poisson:
        raise ValueError("the alpha embedding check needs a compound Poisson fixture")
    walk = rl.LatticeWalkSpec.from_process(spec)
    h = walk.h
    law = spec.jumps
    assert isinstance(law, DiscreteAtoms)
    s_grid = tuple(s_grid) if s_grid else tuple(np.arange(0.5, 12.5, 0.5))
    batch = sample_alpha(spec, n, policy.substream("alpha"), time_cap=float(s_grid[-1]),
                         workers=workers)
    ok = ~batch.censored

    K = rl.truncation_depth(walk.rate, float(s_grid[-1]), 1e-12)
    layers = rl.stay_region_layers(walk, K, "strict-descending")
    sf = {s: rl.poisson_sf(walk.rate * s, K) for s in s_grid}

    # exact CDF G(s, v, x) = sum_k P(sigma_k <= s) sum_{w <= v} Uhat(k, {w}) F[wh, wh + xh]
    def fmass(lo: float, hi: float) -> float:
        return sum(float(p) for val, p in zip(law.values, law.probs) if lo <= val <= hi)

    # empirical CDF on the grid via a 3-D histogram and cumulative sums
    s_arr = np.asarray(s_grid)
    si = np.searchsorted(s_arr, batch.s[ok], side="left")
    vi = np.minimum(np.round(batch.v[ok] / h).astype(int), v_max + 1)
    xi = np.minimum(np.round(batch.x[ok] / h).astype(int), x_max + 1)
    hist = np.zeros((s_arr.size + 1, v_max + 2, x_max + 2))
    np.add.at(hist, (si, vi, xi), 1.0)
    cdf = hist.cumsum(axis=0).cumsum(axis=1).cumsum(axis=2) / batch.n

    worst = 0.0
    for i, s in enumerate(s_grid):
        sfk = sf[s]
        for v in range(0, v_max + 1):
            for x in range(0, x_max + 1):
                exact = 0.0
                for k in range(K + 1):
                    inner = 0.0
                    for w, m in layers[k].items():
                        if w <= v:
                            inner += m * fmass(w * h, (w + x) * h)
                    exact += sfk[k] * inner
                worst = max(worst, abs(float(cdf[i, v, x]) - exact))
    dist, budget = verdict([(worst, 0.0, ALPHA_SUP_CDF)])
    return CheckReport(
        check="alpha",
        fixture=fixture,
        params={"n": n, "s_max": float(s_grid[-1]), "v_max": v_max, "x_max": x_max},
        lhs=worst,
        rhs=0.0,
        distance=dist,
        budget=budget,
        n_paths=batch.n,
        censored_mass=batch.censored_mass,
        details=[{"sup_cdf": worst}],
    )
