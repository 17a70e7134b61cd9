"""Distribution-level verification of the passage laws.

Comparisons run between an empirical measure (histogrammed passage records)
and an independently composed one: exact lattice ladder tables, the exact
renewal sums of an atomic bivariate subordinator, or, for lattice jumps with
a positive drift, the exact tables of :class:`levyladder.rw_ladder.DriftLattice`
(the creep law, ``V`` and ``Vhat``).  Distances are total
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
from .results import CheckReport, fold, row_budgets, verdict
from .rng import RngPolicy
from .passage import (
    K_CAP_TAIL,
    PassageBatch,
    biv_passage_chunks,
    ladder_jump_chunks,
    passage_chunks,
)
from .renewal import exact_V
from . import rw_ladder as rl

__all__ = [
    "Axis",
    "DiscreteMeasureND",
    "quintuple_empirical",
    "quintuple_rhs_lattice",
    "check_quintuple",
    "check_amicale",
    "amicale_route",
    "amicale_grid",
    "check_quadruple",
    "check_alpha_embedding",
]

# Fixed slack of the TV and sup-CDF rows, which carry no SE: their budgets.
QUINTUPLE_LATTICE_TV = 0.02
QUINTUPLE_CREEPING_TV = 0.03
QUADRUPLE_TV = 0.02
ALPHA_SUP_CDF = 0.01

# Reporting grids.  Time bins of the lattice and creeping quintuple routes
# (both axes s and t), of the quadruple law (t) and of the amicale ladder
# measure (s); the alpha experiment's lattice truncation (v, x) in steps.
QUINTUPLE_LATTICE_EDGES = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 128.0, math.inf)
# A lattice path censored at the cap passes after it, so its s or t exceeds
# cap / 2: from this cap on, that puts it in the last (infinite) bin of one.
QUINTUPLE_LATTICE_MIN_CAP = 2 * QUINTUPLE_LATTICE_EDGES[-2]
QUINTUPLE_CREEPING_EDGES = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, math.inf)
QUADRUPLE_T_EDGES = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, math.inf)
AMICALE_S_EDGES = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
# The amicale creeping route's default x mesh; and the fewest records a cell
# of the ladder measure must expect to be a row of its own.
AMICALE_MESH = 0.1
AMICALE_MIN_COUNT = 30
ALPHA_V_MAX, ALPHA_X_MAX = 5, 4


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
    """Finite (sub-)probability measure on a product grid, with a
    deterministic error bound."""

    axes: tuple[Axis, ...]
    mass: np.ndarray
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

    def pooled_tv_distance(self, other: "DiscreteMeasureND", pool: np.ndarray,
                           extra: float) -> float:
        """TV distance with the cells of the boolean mask ``pool`` merged into
        one cell, to whose mass on this side ``extra`` is added (mass this
        side lost from the grid but known to lie in the pooled region)."""
        self._check_axes(other)
        gap = self.mass - other.mass
        pooled = float(gap[pool].sum()) + extra
        return 0.5 * (float(np.abs(gap[~pool]).sum()) + abs(pooled))

    @staticmethod
    def cell_counts(axes: Sequence[Axis], columns: Sequence[np.ndarray]) -> np.ndarray:
        """Number of points in each cell of the grid (an integer array of
        its shape), one column per axis; out-of-grid points count nowhere.
        Counts of disjoint point sets add up to the counts of their union."""
        if len(columns) != len(axes):
            raise ValueError("one column per axis required")
        shape = tuple(a.size for a in axes)
        idx = [a.index(col) for a, col in zip(axes, columns)]
        ok = np.logical_and.reduce([ix >= 0 for ix in idx])
        lin = np.ravel_multi_index([ix[ok] for ix in idx], shape)
        return np.bincount(lin, minlength=math.prod(shape)).reshape(shape)

    @classmethod
    def from_counts(
        cls,
        axes: Sequence[Axis],
        counts: np.ndarray,
        n_total: int,
        weight: float = 1.0,
    ) -> "DiscreteMeasureND":
        """Histogram measure of :meth:`cell_counts`: each point carries mass
        ``weight / n_total``.

        ``n_total`` may exceed the number of points counted (censored or
        out-of-scope records); the shortfall plus out-of-grid points are
        accounted in ``excluded_mass``.
        """
        mass = counts * (weight / n_total)
        excluded = weight * (n_total - int(counts.sum())) / n_total
        return cls(tuple(axes), mass, excluded)


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
    counts = DiscreteMeasureND.cell_counts(axes, _quintuple_columns(batch, creep_fibre))
    return DiscreteMeasureND.from_counts(axes, counts, batch.n)


def _quintuple_columns(batch: PassageBatch, creep_fibre: bool = False) -> list[np.ndarray]:
    x, v, y, s, t = batch.quintuple()
    creep = batch.creep[batch.resolved]
    keep = creep if creep_fibre else ~creep
    return [x[keep], v[keep], y[keep], s[keep], t[keep]]


def lattice_level(spec: ProcessSpec, u: float) -> int:
    """Index ``u / h`` of the level on the lattice of the jump law, or a
    ValueError when ``u`` is off that lattice (or the law has none)."""
    h = rl.LatticeWalkSpec.from_process(spec).h
    ju = int(round(u / h))
    if abs(ju * h - u) > 1e-9:
        raise ValueError(f"level u = {u} must be a multiple of the lattice step {h}"
                         " for the exact route")
    return ju


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

    Each cell is ``V(dt, u - y) Vhat(ds, vhat) Pi(v + x)``.  For summed
    errors ``vbound`` of V and ``vhbound`` of Vhat, all cells' summed error
    is at most ``bound = lambda vbound + vhbound (1 + lambda vbound)``: an
    error in V meets the weight ``sum Vhat(vhat) Pi((y + vhat, inf)) = lambda
    chi+((y, inf)) <= lambda`` (Vigon's equation amicale; ``chi+`` is the
    weak ascending height law), one in Vhat ``sum_y V(u - y) Pi((y + vhat,
    inf)) <= sum_y V(u - y) lambda chi+((y, inf))`` (a first step above ``y``
    is a ladder height above it), the chance that the ladder heights pass
    ``u``, at most 1, plus ``lambda vbound`` for the computed V.
    """
    if not spec.is_compound_poisson:
        raise ValueError("the exact quintuple route needs a compound Poisson lattice fixture")
    walk = rl.LatticeWalkSpec.from_process(spec)
    h = walk.h
    law = spec.jumps
    xi = [(v, float(p)) for v, p in zip(law.values, [float(q) for q in law.probs]) if v > 0]
    xi_max = max(v for v, _ in xi)
    ju = lattice_level(spec, u)

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
    vmass, vbound = rl.erlang_mixture(walk, t_edges, "weak-ascending", ju)
    vhat_heights = range(0, int(round(xi_max / h)))
    vhmass, vhbound = rl.erlang_mixture(walk, s_edges, "strict-descending", vhat_heights[-1])

    mass = np.zeros(tuple(a.size for a in axes))
    for iy, y in enumerate(y_atoms):
        for vhat in vhat_heights:
            v = y + vhat
            if v not in v_atoms:
                continue
            iv = v_atoms.index(v)
            for val, p in xi:
                xlat = int(round(val / h)) - v
                if xlat <= 0:
                    continue
                # (s bin, t bin) block of V(dt, u - y) Vhat(ds, vhat) Pi(v + x)
                mass[x_atoms.index(xlat), iv, iy] += (
                    np.outer(vhmass[:, vhat], vmass[:, ju - y]) * (spec.rate * p)
                )
    bound = spec.rate * vbound + vhbound * (1.0 + spec.rate * vbound)
    return DiscreteMeasureND(axes, mass, bound=bound), axes


def check_quintuple(
    spec: ProcessSpec,
    u: float,
    n: int,
    policy: RngPolicy,
    cap: float = 30000.0,
    mesh: float = 0.1,
    fixture: str = "",
) -> CheckReport:
    """Quintuple law at level ``u``: empirical joint law of the five passage
    variables against the composed right side.

    Lattice compound Poisson fixtures compare against the exact table route
    and must carry zero creeping mass.  Their TV pools the tail cells, every
    cell whose s or t bin is (128, inf), into one cell, and adds the
    censored mass to its empirical side: a censored path passes after the
    cap, which is at least 256, so it belongs there.  The TV row's budget is
    its fixed slack plus the exact side's own bound.  The excluded mass is
    still reported, and bounded by its own row.

    Drift-creeping fixtures compose the ``x > 0`` part from the exact V boxes
    and Vhat cells of :class:`~levyladder.rw_ladder.DriftLattice` and hold its
    TV to a fixed slack.  Three more rows: the creeping fibre mass against
    the creep DP's ``p(t_cut, u)``, at ``CHECK_FAIL_RATE`` with the DP's
    bound; the creep DP against the occupation route's ``d_H d^-_u V``
    (deterministic: the paper's theorem between two exact routes); and the
    jump part's total plus ``p(inf, u)`` against 1, within the DP bounds and
    the most the boundary strip's sub-mesh cells could hold.
    """
    if quintuple_route(spec) == "lattice":
        return _check_quintuple_lattice(spec, u, n, policy, cap, fixture)
    return _check_quintuple_creeping(spec, u, n, policy, mesh, fixture)


def quintuple_route(spec: ProcessSpec) -> str:
    """``"lattice"`` for a compound Poisson fixture, ``"creeping"`` for positive
    drift with integer jump atoms, else a ValueError: the routes of
    :func:`check_quintuple`."""
    if spec.is_compound_poisson:
        return "lattice"
    law = spec.jumps
    if not (spec.drift > 0 and isinstance(law, DiscreteAtoms)
            and all(v == round(v) for v in law.values)):
        raise ValueError("the creeping quintuple route needs positive drift and integer jump atoms")
    rl.DriftLattice(spec)
    return "creeping"


def amicale_route(spec: ProcessSpec) -> str:
    """``"lattice"`` for a compound Poisson lattice fixture, ``"creeping"`` for
    positive drift (with up-jump atoms on a lattice the exact dual route can
    hold), else a ValueError: the routes of :func:`check_amicale`."""
    if spec.is_compound_poisson:
        rl.LatticeWalkSpec.from_process(spec)
        return "lattice"
    if not (spec.drift > 0):
        raise ValueError("amicale check requires compound Poisson or creeping fixtures")
    if isinstance(spec.jumps, DiscreteAtoms) and max(spec.jumps.values) > 0:
        rl.DriftLattice(spec, reach=max(spec.jumps.values))
    return "creeping"


def _check_quintuple_lattice(spec, u, n, policy, cap, fixture):
    if not (cap >= QUINTUPLE_LATTICE_MIN_CAP):
        raise ValueError(f"cap must be at least {QUINTUPLE_LATTICE_MIN_CAP:g} on the lattice"
                         f" route, so that censored paths lie in its tail cell; got {cap}")
    edges = QUINTUPLE_LATTICE_EDGES
    rhs, axes = quintuple_rhs_lattice(spec, u, edges, edges)
    (counts, n_creep), censored, monitors = fold(
        passage_chunks(spec, u, cap, n, policy.substream("emp")), lambda b: (
            DiscreteMeasureND.cell_counts(axes, _quintuple_columns(b)), int(b.creep.sum())))
    if n_creep:
        raise RuntimeError("compound Poisson fixture produced a creeping record")
    emp = DiscreteMeasureND.from_counts(axes, counts, n)
    # the pooled tail cell: the last s bin or the last t bin, at every (x, v, y)
    tail = np.zeros(rhs.mass.shape, dtype=bool)
    tail[..., -1, :] = tail[..., -1] = True
    tv = emp.pooled_tv_distance(rhs, tail, censored)
    dist, budget = verdict([(tv, 0.0, rhs.bound, QUINTUPLE_LATTICE_TV),
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
        n_paths=n,
        censored_mass=censored,
        details=details,
        monitors=monitors,
        measures=(emp, rhs),
    )


def _compose_jump_part(shape, v_mass, vh_mass, pi, jy, jv):
    """Sum ``V[jt, jyf] * Vhat[js, jvf] * pi[jyf, jvf]`` over the fine
    (y, vhat) sub-mesh into the reporting cells ``(jt, jy[jyf], js, jv[jvf])``.

    Cells with ``pi == 0`` add nothing; the others are added in C order of
    ``(jt, jyf, js, jvf)``, so every cell sums its terms in a fixed order.
    """
    contrib = (v_mass[:, :, None, None] * vh_mass[None, None]) * pi[None, :, None, :]
    jt, jyf, js, jvf = np.nonzero(np.broadcast_to(pi[None, :, None, :] != 0, contrib.shape))
    out = np.zeros(shape)
    np.add.at(out, (jt, jy[jyf], js, jv[jvf]), contrib[jt, jyf, js, jvf])
    return out


def _check_quintuple_creeping(spec, u, n, policy, mesh, fixture):
    law = spec.jumps
    xi = [(v, float(p)) for v, p in zip(law.values, [float(q) for q in law.probs]) if v > 0]
    t_edges = s_edges = QUINTUPLE_CREEPING_EDGES
    xim = max(v for v, _ in xi)
    y_edges = _zero_offset_edges(mesh, min(u, xim))
    vh_edges = _zero_offset_edges(mesh, xim)
    y_axis = Axis("y", "bins", y_edges)
    vh_axis = Axis("vhat", "bins", vh_edges)
    s_axis = Axis("s", "bins", s_edges)
    t_axis = Axis("t", "bins", t_edges)
    axes = (t_axis, y_axis, s_axis, vh_axis)

    # empirical (x > 0): coordinates (t, y, s, vhat) determine x = xi - y - vhat;
    # and the creeping fibre's records by t_cut
    t_cut = float(t_edges[-2] if math.isinf(t_edges[-1]) else t_edges[-1])

    def tally(b):
        x, v, y, s, t = b.quintuple()
        jump = ~b.creep[b.resolved]
        return (DiscreteMeasureND.cell_counts(axes, [t[jump], y[jump], s[jump], (v - y)[jump]]),
                int((b.creep & (b.tau <= t_cut)).sum()))

    (counts, n_creep), censored, monitors = fold(
        passage_chunks(spec, u, 200.0, n, policy.substream("emp")), tally)
    emp = DiscreteMeasureND.from_counts(axes, counts, n)
    creep_mass = n_creep / n
    creep_se = math.sqrt(creep_mass * (1 - creep_mass) / n)

    # RHS: exact V boxes x exact dual-ladder measure x Pi.  The constraint
    # x = xi - y - vhat > 0 cuts through the reporting cells along the
    # diagonals y + vhat = xi, so the product is composed on a finer
    # sub-mesh and aggregated: only cells fully inside the region carry
    # mass, and the remaining boundary strip is a quarter-mesh wide.
    lat = rl.DriftLattice(spec, reach=max(u, xim))
    sub = 4
    fm = mesh / sub
    ny_f = int(round(min(u, xim) / fm))
    y_f = [round(j * fm, 12) for j in range(ny_f + 1)]
    # box (t bin, Y in (u - y_f[j + 1], u - y_f[j]]) from V at its corners
    V, dV, v_bound = lat.occupation(t_edges, [max(u - yf, 0.0) for yf in y_f])
    v_mass = -np.diff(np.diff(V, axis=0), axis=1)
    # dual measure on fine depth cells: {0}, then the sub-mesh bins
    nv_f = int(round(xim / fm))
    dm_v_edges = [0.0, 1e-9] + [round(j * fm, 12) for j in range(1, nv_f + 1)]
    vh_mass, vh_bound, vh_drop = lat.dual(s_edges, dm_v_edges)
    vh_fine_hi = dm_v_edges[1:]
    pi = np.array([[sum(spec.rate * p for val, p in xi if val - y_hi - vhhi >= 0)
                    for vhhi in vh_fine_hi] for y_hi in y_f[1:]], dtype=float)
    jy = y_axis.index(np.array(y_f[1:]))
    jv = vh_axis.index(np.array(vh_fine_hi))
    jv[0] = 0
    rhs_mass = _compose_jump_part(tuple(a.size for a in axes), v_mass, vh_mass, pi, jy, jv)
    rhs = DiscreteMeasureND(axes, rhs_mass)
    tv = emp.tv_distance(rhs)

    # creeping fibre: the creep DP at (t_cut, u) and at t = inf
    (p_cut, p_inf), p_bound = lat.creep(u, [t_cut, math.inf])
    deriv = float(dV[list(t_edges).index(t_cut), 0])
    # total mass: the jump part plus p(inf, u) is 1, less what the boundary
    # strip holds on x > 0: at most the whole product of each sub-mesh cell
    # the diagonal cuts, one that x > 0 touches but pi leaves out
    touched = sum(spec.rate * p * (np.array(y_f[:-1])[:, None]
                                   + np.array(dm_v_edges[:-1])[None, :] < val) for val, p in xi)
    strip_bound = float(v_mass.sum(axis=0) @ (touched - pi) @ vh_mass.sum(axis=0))
    lam_pos = sum(spec.rate * p for _, p in xi)
    jump_bound = lam_pos * (v_bound * (vh_mass.sum() + vh_bound) + v_mass.sum() * vh_bound)
    total = rhs.total_mass + p_inf
    rows = [(tv, 0.0, QUINTUPLE_CREEPING_TV),
            (abs(creep_mass - p_cut), creep_se, p_bound),
            (abs(p_cut - deriv), 0.0, p_bound + v_bound),
            (abs(1.0 - total), 0.0, strip_bound + jump_bound + p_bound)]
    budgets = row_budgets(rows)
    dist, budget = verdict(rows)

    details = [{
        "tv": tv, "tv_budget": budgets[0], "creep_mass": creep_mass, "creep_exact": p_cut,
        "fibre_dist": rows[1][0], "fibre_budget": budgets[1], "deriv_exact": deriv,
        "theorem_gap": rows[2][0], "theorem_budget": budgets[2], "total_mass": total,
        "total_budget": budgets[3], "strip_bound": strip_bound,
        "excluded_mass": emp.excluded_mass, "vhat_dropped": vh_drop, "censored": censored,
    }]
    return CheckReport(
        check="quintuple",
        fixture=fixture,
        params={"u": u, "n": n, "mesh": mesh},
        lhs=creep_mass,
        rhs=p_cut,
        se_lhs=creep_se,
        distance=dist,
        budget=budget,
        n_paths=n,
        censored_mass=censored,
        details=details,
        monitors=monitors,
        measures=(emp, rhs),
    )


# ---------------------------------------------------------------------------
# Equation amicale inversee and its creeping characterisation
# ---------------------------------------------------------------------------


def amicale_grid(spec: ProcessSpec, mesh: float):
    """The creeping route's ``(x axis, depth edges, pi)``, or None for a
    fixture with no up-jump atoms.

    The depth edges are ``0, mesh, ..., K mesh <= top``, ``top`` the largest
    up atom; the x cells are ``(top - e_{j+1}, top - e_j]`` after a first
    cell ``[-mesh, top - K mesh]`` that holds the zero fibre.  The up atom
    ``top - k mesh`` jumps from depth cell ``i`` into the x cell fed from
    depth cell ``i + k`` by ``top``, and ``pi[i, x cell]`` sums those Levy
    masses.  Cells stay whole only if ``mesh`` divides every difference of
    two up atoms: a ValueError refuses any other mesh, and one above ``top``.
    """
    law = spec.jumps
    up = [v for v in law.values if v > 0] if isinstance(law, DiscreteAtoms) else []
    if not up:
        return None
    top, K = max(up), math.floor(max(up) / mesh + 1e-9)
    shifts = [round((top - v) / mesh) for v in up]
    if K < 1 or any(abs(top - v - k * mesh) > 1e-9 for v, k in zip(up, shifts)):
        raise ValueError(f"mesh {mesh:g} must be at most the largest up-jump and divide the"
                         f" differences of the up-jump sizes {sorted(up)}")
    vh_edges = [round(j * mesh, 12) for j in range(K + 1)]
    x_axis = Axis("x", "bins", (-mesh,) + tuple(round(top - e, 12) for e in vh_edges[::-1]))
    pi = np.zeros((K, K + 1))
    for v, k in zip(up, shifts):
        i = np.arange(K - k)
        pi[i, K - k - i] += spec.levy_atom(v)
    return x_axis, vh_edges, pi


def check_amicale(
    spec: ProcessSpec,
    n: int,
    policy: RngPolicy,
    mesh: float = AMICALE_MESH,
    fixture: str = "",
) -> CheckReport:
    """Ladder jump measure versus the composed dual route ``Vhat @ Pi``, one
    (s, x) histogram held to ``CHECK_FAIL_RATE``: each cell a row with its
    binomial SE at its exact mass and Vhat's bound times the largest Pi mass
    that feeds it, the cells that expect under ``AMICALE_MIN_COUNT`` records
    pooled.  A lattice fixture takes every x atom (Erlang-mixed Vhat); a
    creeping one the x > 0 cells of :func:`amicale_grid` (the drift
    lattice's Vhat), or none without up atoms, and on its x = 0 fibre the
    ladder measure must carry at least 5 SE where ``Vhat @ Pi`` carries none.
    """
    lattice = amicale_route(spec) == "lattice"
    s_edges, lam = AMICALE_S_EDGES, spec.rate
    details, rows, pi = [], [], None
    if lattice:
        walk = rl.LatticeWalkSpec.from_process(spec)
        xim = int(round(max(abs(v) for v in spec.jumps.values) / walk.h))
        x_axis = Axis("x", "atoms", tuple(j * walk.h for j in range(xim + 1)))
        vhm, vh_bound = rl.erlang_mixture(walk, s_edges, "strict-descending", xim)
        # (Vhat * Pi)(ds, {x}) = sum_vhat Vhat(ds, {vhat}) Pi({x + vhat})
        pi = np.array([[spec.levy_atom((xl + vhat) * walk.h) if xl + vhat <= xim else 0.0
                        for xl in range(xim + 1)] for vhat in range(xim + 1)])
    elif (grid := amicale_grid(spec, mesh)) is not None:
        x_axis, vh_edges, pi = grid
        vhm, vh_bound, vhdrop = rl.DriftLattice(spec, reach=vh_edges[-1]).dual(s_edges, vh_edges)
        details.append({"vhat_dropped": vhdrop})
    axes = None if pi is None else (Axis("s", "bins", s_edges), x_axis)

    def tally(lad):
        ok = ~lad.censored
        cols = [lad.ds[ok], lad.dx[ok]]
        return (0 if axes is None else DiscreteMeasureND.cell_counts(axes, cols),
                int((ok & (lad.dx > 0)).sum()), int((ok & (lad.dx == 0.0)).sum()))

    cap = s_edges[-1] + 1.0 if lattice else s_edges[-1] * 10
    (counts, n_pos, n_zero), censored, _ = fold(
        ladder_jump_chunks(spec, n, policy.substream("lhs"), cap=cap), tally)
    if pi is None:
        # spectrally negative: the positive part of the jump measure vanishes,
        # so the composed route is identically zero for x > 0 and at {0}
        pos_mass = n_pos / n
        rows.append((pos_mass, 0.0))
        details.append({"x_pos_mass": pos_mass})
    else:
        emp = DiscreteMeasureND.from_counts(axes, counts, n, weight=lam)
        rhs = vhm @ pi
        # a creeping fixture's rows take the x > 0 cells, after the zero cell
        x0 = 0 if lattice else 1
        e, r = emp.mass[:, x0:], rhs[:, x0:]
        p, b = r / lam, np.broadcast_to(vh_bound * pi.max(axis=0)[x0:], r.shape)
        big = n * p >= AMICALE_MIN_COUNT
        cells = list(zip(e[big], r[big], p[big], b[big]))
        if not big.all():
            cells.append((e[~big].sum(), r[~big].sum(), p[~big].sum(), b[~big].sum()))
        rows += [(abs(ec - rc), lam * math.sqrt(max(q * (1 - q), 0.0) / n), bc, 1e-9)
                 for ec, rc, q, bc in cells]
    if lattice:
        lhs, rhs_x0, se_lhs = float(emp.mass[:, 0].sum()), float(rhs[:, 0].sum()), 0.0
        details.append({"x0_lhs": lhs, "x0_rhs": rhs_x0})
    else:
        # composed route on the zero fibre: sum_v Vhat({v}) Pi({v}) -- zero
        # for diffuse dual heights; the creeping characterisation demands
        # the ladder side carry strictly positive mass there
        p_zero = n_zero / n
        lhs, rhs_x0 = lam * p_zero, 0.0
        se_lhs = lam * math.sqrt(max(p_zero * (1 - p_zero), 1e-300) / n)
        rows.append((max(5.0 * se_lhs - lhs, 0.0), 0.0))
        details.append({"x0_mass": lhs, "x0_se": se_lhs, "x0_rhs": 0.0, "censored": censored})
    dist, budget = verdict(rows)
    return CheckReport(
        check="amicale",
        fixture=fixture,
        params={"n": n},
        lhs=lhs,
        rhs=rhs_x0,
        se_lhs=se_lhs,
        distance=dist,
        budget=budget,
        n_paths=n,
        censored_mass=censored,
        details=details,
        measures=() if pi is None else (emp, DiscreteMeasureND(axes, rhs)),
    )


# ---------------------------------------------------------------------------
# Quadruple law for explicit bivariate subordinators
# ---------------------------------------------------------------------------


def check_quadruple(
    spec: BivariateSubordinatorSpec,
    u: float,
    n: int,
    policy: RngPolicy,
    mesh: float = 0.05,
    fixture: str = "",
) -> CheckReport:
    """Quadruple law at level ``u``: empirical (overshoot, undershoot,
    Z-jump, Z-before) against ``V(dt, u - dy) Pi(ds, dx + y)`` plus the
    creeping atom ``d_Y dV/du`` when the Y-drift is positive.

    The right side is exact: box masses are 2-D differences of
    :func:`exact_V` on the grid corners (t-edge, ``u`` - y-edge), and the
    creeping atom of each t bin is a difference of its creeping term.  The
    first t bin is closed at its left edge, 0.
    """
    t_edges = QUADRUPLE_T_EDGES
    dx_vals = sorted({dx for _, dx, _ in spec.atoms if dx > 0})
    if not dx_vals and spec.d_y == 0:
        raise ValueError("Y never crosses: no quadruple law to check")
    if spec.d_y == 0:
        return _check_quadruple_lattice_y(spec, u, n, policy, t_edges, fixture)
    if any(abs(round(dxv / mesh) * mesh - dxv) > 1e-9 for dxv in dx_vals):
        raise ValueError("mesh must divide the Y jump sizes for aligned cells")
    x_axis = Axis("x", "bins", _zero_offset_edges(mesh, max(dx_vals, default=mesh)))
    y_axis = Axis("y", "bins", _zero_offset_edges(mesh, u))
    s_atoms = tuple(sorted({0.0} | {dt for dt, dx, _ in spec.atoms if dx > 0}))
    axes = (x_axis, y_axis, Axis("s", "atoms", s_atoms), Axis("t", "bins", t_edges))

    (counts, n_killed, n_creep), censored, monitors = fold(
        biv_passage_chunks(spec, u, n, policy.substream("emp")), lambda b: (
            DiscreteMeasureND.cell_counts(axes, b.quadruple()), int(b.killed.sum()),
            int((b.creep & (b.z_before + b.dz <= t_edges[-2])).sum())))
    emp = DiscreteMeasureND.from_counts(axes, counts, n)

    # V and its creeping term at every corner (t-edge, u - y-edge), y >= 0,
    # one exact_V call per t-edge; the t = 0 row stands for Z < 0 and stays zero
    y_edges = np.array(y_axis.values[1:])
    corners = np.zeros((len(t_edges), y_edges.size, 2))
    for i, te in enumerate(t_edges[1:], start=1):
        corners[i, :, 0], corners[i, :, 1] = exact_V(spec, te, u - y_edges)[:2]
    per_t = np.diff(corners, axis=0)
    # box (t bin, Y in (u - y_hi, u - y_lo]) for y bin jy >= 1
    boxes = -np.diff(per_t[:, :, 0], axis=1)
    rhs_mass = np.zeros(tuple(a.size for a in axes))
    for dt, dxv, r in spec.atoms:
        # x-cells aligned with the diagonal x = dx - y, y the bins' lower edges
        ix = x_axis.index(dxv - y_edges[:-1])
        for jy in np.flatnonzero(dxv > y_edges[:-1]):
            rhs_mass[ix[jy], jy + 1, s_atoms.index(dt)] += boxes[:, jy] * r
    # the creeping atom x = y = 0 is cell 0 of both axes
    rhs_mass[0, 0, s_atoms.index(0.0)] += per_t[:, 0, 1]
    deriv_mass = float(corners[-2, 0, 1])
    rhs = DiscreteMeasureND(axes, rhs_mass)
    tv = emp.tv_distance(rhs)
    killed_mass, creep_emp = n_killed / n, n_creep / n
    # resolved passages that fall outside the grid
    off_grid = emp.excluded_mass - censored - killed_mass
    dist, budget = verdict([(tv, 0.0, QUADRUPLE_TV), (off_grid, 0.0, 0.01)])
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
        se_lhs=math.sqrt(creep_emp * (1 - creep_emp) / n),
        distance=dist,
        budget=budget,
        n_paths=n,
        censored_mass=censored,
        details=details,
        monitors=monitors,
        measures=(emp, rhs),
    )


def _check_quadruple_lattice_y(spec, u, n, policy, t_edges, fixture):
    """Quadruple law when the Y component is a pure lattice jump process.

    Undershoots then sit exactly on the lattice, so all space coordinates
    use atom axes; the creeping term is absent (d_Y = 0).  The mass of V at
    the lattice height ``k h`` is ``V(., (k + 1/2) h) - V(., (k - 1/2) h)``:
    heights are compared by lattice index, halfway between the points."""
    from fractions import Fraction
    from functools import reduce
    from .rw_ladder import _fraction_gcd

    h = float(reduce(_fraction_gcd, [Fraction(dx) for _, dx, _ in spec.atoms if dx > 0]))
    y_atoms = sorted({round(u - k * h, 12) for k in range(int(u / h) + 1) if u - k * h >= 0})
    x_atoms = sorted({round(dxv - y, 12) for _, dxv, _ in spec.atoms if dxv > 0
                      for y in y_atoms if dxv - y > 0})
    s_atoms = tuple(sorted({dt for dt, dxv, _ in spec.atoms if dxv > 0}))
    x_axis = Axis("x", "atoms", tuple(x_atoms))
    y_axis = Axis("y", "atoms", tuple(y_atoms))
    s_axis = Axis("s", "atoms", s_atoms)
    t_axis = Axis("t", "bins", t_edges)
    axes = (x_axis, y_axis, s_axis, t_axis)

    chunks = biv_passage_chunks(spec, u, n, policy.substream("emp"),
                                s_cap=1e7 if spec.q == 0 else math.inf)
    (counts, n_killed, n_creep), censored, monitors = fold(chunks, lambda b: (
        DiscreteMeasureND.cell_counts(axes, b.quadruple()), int(b.killed.sum()),
        int(b.creep.sum())))
    emp = DiscreteMeasureND.from_counts(axes, counts, n)

    k = np.array([round((u - ya) / h) for ya in y_atoms])
    corners = np.zeros((len(t_edges), k.size))
    for i, te in enumerate(t_edges[1:], start=1):
        corners[i] = exact_V(spec, te, (k + 0.5) * h)[0] - exact_V(spec, te, (k - 0.5) * h)[0]
    boxes = np.diff(corners, axis=0)
    rhs_mass = np.zeros(tuple(a.size for a in axes))
    for jy, ya in enumerate(y_atoms):
        for dt, dxv, r in spec.atoms:
            xa = round(dxv - ya, 12)
            if dxv > 0 and xa > 0:
                rhs_mass[x_atoms.index(xa), jy, s_atoms.index(dt)] += boxes[:, jy] * r
    rhs = DiscreteMeasureND(axes, rhs_mass)
    tv = emp.tv_distance(rhs)
    dist, budget = verdict([(tv, 0.0, QUADRUPLE_TV)])
    details = [{
        "tv": tv, "creep_mass_emp": n_creep / n, "creep_mass_rhs": 0.0,
        "killed_mass": n_killed / n, "excluded": emp.excluded_mass,
    }]
    return CheckReport(
        check="quadruple",
        fixture=fixture,
        params={"u": u, "n": n},
        lhs=n_creep / n,
        rhs=0.0,
        distance=dist,
        budget=budget,
        n_paths=n,
        censored_mass=censored,
        details=details,
        monitors=monitors,
        measures=(emp, rhs),
    )


# ---------------------------------------------------------------------------
# The alpha experiment against the dual-table composition
# ---------------------------------------------------------------------------


def check_alpha_embedding(
    spec: ProcessSpec,
    n: int,
    policy: RngPolicy,
    s_grid: Sequence[float] | None = None,
    fixture: str = "",
) -> CheckReport:
    """Sup-CDF distance between the empirical law of
    ``(-X_{alpha-}, X_alpha, alpha - sigma_1)`` and the exact composition
    ``Vhat(ds, dv) F(dx + v)`` on the truncated lattice support.

    The triple is ``(v, dx, ds)`` of the zero-drift ladder excursion, so the
    left side comes from :func:`~levyladder.passage.ladder_jump_chunks`
    censored at the last ``s`` of the grid.  A fixture that is not compound
    Poisson on a lattice is refused by ``LatticeWalkSpec.from_process``."""
    walk = rl.LatticeWalkSpec.from_process(spec)
    h = walk.h
    law = spec.jumps
    assert isinstance(law, DiscreteAtoms)
    s_grid = tuple(s_grid) if s_grid is not None else tuple(np.arange(0.5, 12.5, 0.5))
    if not s_grid:
        raise ValueError("s_grid must hold at least one time")
    v_max, x_max = ALPHA_V_MAX, ALPHA_X_MAX

    # exact CDF G(s, v, x) = sum_{w <= v} Vhat([0, s], {w h}) F[w, x], where
    # F[w, x] = P(jump in [w h, (w + x) h]) is the jump window
    vhm, _ = rl.erlang_mixture(walk, (0.0,) + s_grid, "strict-descending", v_max)
    vals = np.asarray(law.values, dtype=float)
    probs = np.array([float(p) for p in law.probs])
    wv = np.arange(v_max + 1)[:, None]
    lo, hi = wv * h, (wv + np.arange(x_max + 1)) * h
    win = (lo[..., None] <= vals) & (vals <= hi[..., None])
    exact = np.cumsum(np.cumsum(vhm, axis=0)[:, :, None] * (win @ probs)[None], axis=1)

    # empirical CDF on the grid via a 3-D histogram and cumulative sums; the
    # last cell of each axis holds the records past the grid
    s_arr = np.asarray(s_grid)
    shape = (s_arr.size + 1, v_max + 2, x_max + 2)

    def tally(b):
        ok = ~b.censored
        cell = (np.searchsorted(s_arr, b.ds[ok], side="left"),
                np.minimum(np.round(b.v[ok] / h).astype(int), v_max + 1),
                np.minimum(np.round(b.dx[ok] / h).astype(int), x_max + 1))
        hist = np.bincount(np.ravel_multi_index(cell, shape), minlength=math.prod(shape))
        return (hist.reshape(shape),)

    (hist,), censored, _ = fold(
        ladder_jump_chunks(spec, n, policy.substream("alpha"), cap=float(s_grid[-1])), tally)
    cdf = (hist.cumsum(axis=0).cumsum(axis=1).cumsum(axis=2) / n)[
        : len(s_grid), : v_max + 1, : x_max + 1]

    worst = float(np.abs(cdf - exact).max())
    dist, budget = verdict([(worst, 0.0, ALPHA_SUP_CDF)])
    return CheckReport(
        check="alpha",
        fixture=fixture,
        params={"n": n, "s_max": float(s_grid[-1]), "v_max": v_max, "x_max": x_max},
        lhs=worst,
        rhs=0.0,
        distance=dist,
        budget=budget,
        n_paths=n,
        censored_mass=censored,
        details=[{"sup_cdf": worst}],
        measures=(cdf, exact),
    )
