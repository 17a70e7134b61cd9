import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from levyladder.fixtures import B1, P1, P2, P3
from levyladder import lawcheck as lc
from levyladder.lawcheck import _compose_jump_part
from levyladder.processes import BivariateSubordinatorSpec, ProcessSpec, walk
from levyladder.results import verdict
from levyladder.rng import RngPolicy
from levyladder import renewal as rn
from levyladder import rw_ladder as rl
from levyladder.renewal import OCC_TIME_GUARD, Boxes

import reference
from test_passage import THREE_SE

POL = RngPolicy(seed=1157)


class TestEstimateV:
    def test_pure_drift_minimum_is_exact(self):
        spec = BivariateSubordinatorSpec(d_z=1.0, d_y=1.0, q=0.0)
        grid = rn.estimate_V(spec, [0.5, 2.0], [1.0, 3.0], 500, POL.substream("pd"))
        for t in (0.5, 2.0):
            for u in (1.0, 3.0):
                cell = grid.cell(t, u)
                assert cell.value == pytest.approx(min(t, u), abs=1e-12)
                assert cell.se == 0.0

    # the sampled minimum draws from the stream of estimate_V's one cell
    def test_large_killing_dominates(self):
        spec = BivariateSubordinatorSpec(d_z=1.0, d_y=1.0, q=1000.0)
        cell = reference.sampled_min_V(spec, 5.0, 5.0, 40000,
                                       POL.substream("bigq").substream("V[0,0]"))
        assert abs(cell.value - 1e-3) <= 3 * cell.se + 1e-5

    def test_min_and_killing_integrated_routes_agree(self):
        c1 = reference.sampled_min_V(B1, 0.5, 0.9, 60000, POL.substream("r1").substream("V[0,0]"))
        g2 = rn.estimate_V(B1, [0.5], [0.9], 60000, POL.substream("r2"))
        c2 = g2.cell(0.5, 0.9)
        assert abs(c1.value - c2.value) <= 3 * math.hypot(c1.se, c2.se)
        assert c2.se < c1.se  # killing integration strictly reduces variance

    def test_grid_monotone_in_both_axes(self):
        grid = rn.estimate_V(B1, [0.5, 1.0, 2.0], [0.5, 1.0, 2.0], 20000, POL.substream("mono"))
        v = grid.value
        band = 3 * (grid.se.max() + 1e-12)
        assert (np.diff(v, axis=0) >= -band).all()
        assert (np.diff(v, axis=1) >= -band).all()

    def test_v_zero_when_positive_y_drift(self):
        grid = rn.estimate_V(B1, [1.0], [0.0], 2000, POL.substream("z"))
        assert grid.cell(1.0, 0.0).value == pytest.approx(0.0, abs=1e-12)


class TestExactV:
    def test_pure_drift_closed_form(self):
        q = 0.5
        spec = BivariateSubordinatorSpec(d_z=1.0, d_y=1.0, q=q)
        for t, u in [(0.5, 1.0), (2.0, 1.0), (1.0, 1.0), (math.inf, 0.7), (0.3, math.inf)]:
            v, creep, bound = rn.exact_V(spec, t, u)
            assert bound == 0.0
            assert v == pytest.approx((1 - math.exp(-q * min(t, u))) / q, rel=1e-14)
            # Y leaves through u unkilled, and Z is then u <= t
            assert creep == pytest.approx(math.exp(-q * u) if u <= t else 0.0, rel=1e-14)

    @pytest.mark.parametrize("t, u", [(4.0, 1.5), (math.inf, 1.5), (1.0, 0.9)])
    def test_creeping_term_is_the_left_u_derivative(self, t, u):
        h = 1e-7
        v, creep, _ = rn.exact_V(B1, t, u)
        below, _, _ = rn.exact_V(B1, t, u - h)
        assert creep == pytest.approx(B1.d_y * (v - below) / h, abs=1e-7)

    def test_creeping_atom_on_a_t_edge_is_in_the_closed_bin(self):
        # drifts (1, 1): Y creeps over u = 1 at time 1, where Z_T = 1 exactly
        spec = BivariateSubordinatorSpec(d_z=1.0, d_y=1.0, q=0.5)
        edges = (0.5, 1.0, 1.5)
        creep = [rn.exact_V(spec, te, 1.0)[1] for te in edges]
        assert creep[1] - creep[0] == pytest.approx(math.exp(-0.5), rel=1e-14)
        assert creep[2] - creep[1] == 0.0
        assert rn.exact_V(spec, 0.999, 1.0)[1] == 0.0

    def test_atom_only_spec_without_y_drift(self):
        # d_y = d_z = 0: V counts expected killed-time occupation of lattice
        # points, sum_j r^j / (r + q)^{j+1} over the j jumps that fit the box
        r, q = 1.0, 0.5
        spec = BivariateSubordinatorSpec(d_z=0.0, d_y=0.0, q=q, atoms=((1.0, 1.0, r),))

        def closed(jmax):
            return sum(r ** j / (r + q) ** (j + 1) for j in range(jmax + 1))

        assert rn.exact_V(spec, 5.0, 2.0) == (pytest.approx(closed(2), rel=1e-14), 0.0, 0.0)
        assert rn.exact_V(spec, 5.0, 2.5)[0] == pytest.approx(closed(2), rel=1e-14)
        assert rn.exact_V(spec, 5.0, 1.999)[0] == pytest.approx(closed(1), rel=1e-14)
        assert rn.exact_V(spec, 1.0, 5.0)[0] == pytest.approx(closed(1), rel=1e-14)
        assert rn.exact_V(spec, math.inf, math.inf)[0] == pytest.approx(1 / q, rel=1e-14)
        assert rn.exact_V(spec, 1.0, -0.5) == (0.0, 0.0, 0.0)

    def test_atoms_moving_only_an_unbounded_coordinate_drop_out(self):
        with_z_only = BivariateSubordinatorSpec(d_z=0.5, d_y=1.0, q=0.2,
                                                atoms=((1.0, 1.0, 0.3), (2.0, 0.0, 0.2)))
        without = BivariateSubordinatorSpec(d_z=0.5, d_y=1.0, q=0.2, atoms=((1.0, 1.0, 0.3),))
        assert rn.exact_V(with_z_only, math.inf, 1.5) == pytest.approx(
            rn.exact_V(without, math.inf, 1.5), rel=1e-14)

    def test_enumeration_size_is_capped(self):
        spec = BivariateSubordinatorSpec(d_z=0.0, d_y=1.0, q=1.0,
                                         atoms=((1e-3, 0.0, 1.0), (0.0, 1e-3, 1.0)))
        with pytest.raises(ValueError, match="jump-count vectors"):
            rn.exact_V(spec, 1.0, 1.0)

    @pytest.mark.parametrize("spec", [
        B1,
        # no killing, and an atom that moves Z only
        BivariateSubordinatorSpec(d_z=0.7, d_y=0.4, q=0.0,
                                  atoms=((0.5, 0.0, 0.6), (0.3, 0.25, 1.2))),
        # an atom that moves Y only
        BivariateSubordinatorSpec(d_z=0.3, d_y=0.8, q=0.5,
                                  atoms=((0.0, 0.35, 0.9), (0.75, 0.5, 0.4))),
    ], ids=["B1", "q0-z-only-atom", "y-only-atom"])
    def test_one_pass_matches_the_one_level_sum(self, spec):
        # levels on box edges are sums of Y jumps; -0.5 and inf take their own routes
        edges = [0.25, 0.35, 0.7, 0.75, 1.05, 1.5, 3.0]
        levels = np.concatenate([np.linspace(0, 2.5, 26), [-0.5, math.inf], edges])
        for t in (0.25, 0.5, 1.0, 2.0, 3.7, 6.0, math.inf):
            V, p, bound = rn.exact_V(spec, t, levels)
            assert bound == 0.0
            for j, u in enumerate(levels):
                v_ref, p_ref = reference.biv_renewal_one_level(spec, t, float(u))
                assert V[j] == pytest.approx(v_ref, rel=1e-15, abs=0.0)
                assert p[j] == pytest.approx(p_ref, rel=1e-15, abs=0.0)

    def test_b1_check_levels_equal_the_one_level_sum(self):
        # the levels the shipped B1 checks ask for: quadruple corners (u = 1.5,
        # mesh 0.05), the V-grid and the subpint nodes
        y_edges = np.array(lc._zero_offset_edges(0.05, 1.5)[1:])
        asks = [(te, 1.5 - y_edges) for te in lc.QUADRUPLE_T_EDGES[1:]]
        asks += [(t, np.array([0.5, 1.0, 2.0])) for t in (0.5, 1.0, 2.0)]
        asks += [(0.5, np.concatenate(rn._segment_nodes(B1, 0.5, 0.9)))]
        for t, levels in asks:
            V, p, _ = rn.exact_V(B1, t, levels)
            ref = np.array([reference.biv_renewal_one_level(B1, t, float(u)) for u in levels])
            assert np.array_equal(V, ref[:, 0]) and np.array_equal(p, ref[:, 1])

    def test_monte_carlo_grid_matches_exact_grid(self):
        # one row per cell: |MC - exact| within the family-wise budget of its SE
        ts, us = [0.5, 1.0, 2.0], [0.5, 1.0, 2.0]
        n = 50000
        grid = rn.estimate_V(B1, ts, us, n, POL.substream("exact-grid"))
        rows = [(abs(grid.value[i, j] - rn.exact_V(B1, t, u)[0]), grid.se[i, j])
                for i, t in enumerate(ts) for j, u in enumerate(us)]
        distance, budget = verdict(rows, THREE_SE)
        assert distance <= budget


class TestFluctLadderRoute:
    def test_matches_exact_tables_on_p3(self):
        walk = rl.LatticeWalkSpec.from_process(P3)
        table = reference.renewal_tables(walk, rl.truncation_depth(1.0, 1.0, 1e-10))
        grid = rn.estimate_V(P3, [0.5, 1.0], [0.0, 2.0], 50000, POL.substream("l61"))
        for t in (0.5, 1.0):
            for x in (0.0, 2.0):
                exact, bound = reference.v_exact(table, 1.0, t, x)
                cell = grid.cell(t, x)
                assert abs(cell.value - exact) <= 3 * cell.se + bound

    def test_dual_cells_match_exact_tables(self):
        walk = rl.LatticeWalkSpec.from_process(P3)
        table = reference.renewal_tables(walk, rl.truncation_depth(1.0, 2.0, 1e-10))
        cells = [(0.5, 0.0), (1.0, 1.0), (2.0, 3.0)]
        ests = reference.dual_ladder_cells(P3, cells, 50000, POL.substream("dual"))
        for (t, x), est in zip(cells, ests):
            exact, bound = reference.vhat_exact(table, 1.0, t, x)
            assert abs(est.value - exact) <= 3 * est.se + bound + 1e-12

    def test_vhat_zero_column_has_no_variance(self):
        ests = reference.dual_ladder_cells(P3, [(1.0, 0.0)], 2000, POL.substream("zero"))
        assert ests[0].value == 1.0 and ests[0].se == 0.0

    def test_lattice_nondifferentiability_of_p1(self):
        # left derivative of V jumps across the lattice point u = 1
        delta = 0.005
        below = rn.fluct_boxes(P1, [(0.0, 0.5, 1.0 - 2 * delta, 1.0 - delta)], 150000,
                               POL.substream("below"))[0]
        above = rn.fluct_boxes(P1, [(0.0, 0.5, 1.0 + delta, 1.0 + 2 * delta)], 150000,
                               POL.substream("above"))[0]
        d_below = below.value / delta
        d_above = above.value / delta
        # p(0.5, u) vanishes just left of 1 and is positive just right of it
        assert d_below <= 3 * below.se / delta
        assert d_above > d_below + 5 * (above.se + below.se) / delta


def _scaled(spec: BivariateSubordinatorSpec, rates: float = 1.0, q: float | None = None):
    """``spec`` with every atom rate times ``rates`` and killing ``q``."""
    return BivariateSubordinatorSpec(spec.d_z, spec.d_y, spec.q if q is None else q,
                                     tuple((dt, dx, r * rates) for dt, dx, r in spec.atoms))


def _rate_fault(monkeypatch):
    """Fault on the exact side: a Levy fixture's jump rate 2% high in :func:`exact_V`."""
    exact = rn.exact_V
    monkeypatch.setattr(rn, "exact_V", lambda spec, t, u: exact(
        ProcessSpec(spec.drift, 1.02 * spec.rate, spec.jumps), t, u))


class TestExactVOnTheDriftLattice:
    def test_reads_the_creep_and_occupation_routes(self):
        # for u <= t < u + 1, P1 creeps only at time u with J = 0: the
        # Catalan form gives p(0.5, 0.25) and p(0.5, 0.45)
        levels = [0.0, 0.25, 0.45]
        V, p, bound = rn.exact_V(P1, 0.5, levels)
        assert p == pytest.approx([1.0, 0.6256832127, 0.4491478464], abs=1e-10)
        lat = rl.DriftLattice(P1, reach=0.45)
        occ, deriv, occ_bound = lat.occupation([0.5], levels)
        assert np.array_equal(V, occ[0]) and V[0] == 0.0
        # the paper's theorem between the two routes
        assert p[1:] == pytest.approx(deriv[0, 1:], abs=1e-14)
        assert occ_bound <= bound < 1e-15
        assert rn.exact_V(P1, 0.5, 0.45) == (pytest.approx(V[2], abs=1e-15),
                                             pytest.approx(p[2], abs=1e-15), bound)

    def test_takes_only_the_drift_lattice(self):
        for spec in (P2, P3):
            with pytest.raises(ValueError, match="drift lattice"):
                rn.exact_V(spec, 0.5, 0.4)


class TestVGrid:
    def test_b1_cells_are_rows_against_exact_V(self):
        ts, us = [0.5, 1.0, 2.0], [0.5, 1.0, 2.0]
        rep = rn.check_V_grid(B1, ts, us, 20000, POL.substream("vg"), fixture="B1")
        assert rep.passed and math.isfinite(rep.budget) and rep.se_rhs == 0.0
        assert rep.columns == rn.GRID_COLUMNS + ("V_exact", "budget")
        for row in rep.details:
            assert row["V_exact"] == rn.exact_V(B1, row["t"], row["u"])[0]
            assert abs(row["V"] - row["V_exact"]) <= row["budget"]
        assert rep.rhs == rep.details[-1]["V_exact"]

    def test_levy_fixture_cells_are_rows_against_the_drift_lattice(self):
        rep = rn.check_V_grid(P1, [0.5, 1.0], [0.5, 1.0], 20000, POL.substream("vgp"),
                              fixture="P1")
        assert rep.passed and math.isfinite(rep.budget)
        assert rep.columns == rn.GRID_COLUMNS + ("V_exact", "budget")
        V, _, _ = rl.DriftLattice(P1, reach=1.0).occupation([0.5, 1.0], [0.5, 1.0])
        assert [row["V_exact"] for row in rep.details] == pytest.approx(V.ravel(), abs=1e-14)
        assert rep.rhs == rep.details[-1]["V_exact"]

    def test_dropping_the_killing_fails(self, monkeypatch):
        # fault on the exact side: B1's V computed without its killing rate
        exact = rn.exact_V
        monkeypatch.setattr(rn, "exact_V", lambda spec, t, u: exact(_scaled(spec, q=0.0), t, u))
        rep = rn.check_V_grid(B1, [0.5, 1.0, 2.0], [0.5, 1.0, 2.0], 100000,
                              POL.substream("vg-fault"), fixture="B1")
        assert not rep.passed


class TestSubpint:
    def test_b1_has_closed_form(self):
        # creeping before any event requires no jumps and no killing, so
        # p(0.5, v) = e^{-0.8 v} and the integral is (1 - e^{-0.8 u}) / 0.8
        rep = rn.check_subpint(B1, 0.5, 0.9, 30000, POL.substream("b1"), fixture="B1")
        closed = (1 - math.exp(-0.8 * 0.9)) / 0.8
        assert rep.passed
        assert abs(rep.lhs - closed) <= 4 * rep.se_lhs + 1e-3
        assert rep.rhs == pytest.approx(closed, abs=1e-12) and rep.se_rhs == 0.0

    def test_b1_quad_bias_is_the_trapezoid_error(self):
        # the trapezoid rule on p(0.5, v) = e^{-0.8 v} at the check's 13 nodes
        rep = rn.check_subpint(B1, 0.5, 0.9, 2000, POL.substream("qb"), fixture="B1")
        nodes = np.linspace(0.0, 0.9, 13)
        trap = float(np.sum((np.exp(-0.8 * nodes[1:]) + np.exp(-0.8 * nodes[:-1])) / 2
                            * np.diff(nodes)))
        closed = (1 - math.exp(-0.8 * 0.9)) / 0.8
        assert rep.details[0]["quad_bias"] == pytest.approx(trap - closed, abs=1e-12)
        assert rep.details[0]["quad_bias"] == pytest.approx(1.92e-4, abs=5e-7)

    def test_b1_atom_rates_fault_fails(self, monkeypatch):
        # fault on the exact side: B1's atom rates 2% high
        exact = rn.exact_V
        monkeypatch.setattr(rn, "exact_V", lambda spec, t, u: exact(_scaled(spec, 1.02), t, u))
        rep = rn.check_subpint(B1, 0.5, 0.9, 100000, POL.substream("sp-fault"), fixture="B1")
        assert not rep.passed

    def test_p1_with_support_gap(self):
        # u = 0.9 > drift * t: the integrand vanishes on (0.5, 0.9]
        rep = rn.check_subpint(P1, 0.5, 0.9, 25000, POL.substream("p1"), fixture="P1")
        assert rep.passed

    def test_p1_right_side_is_the_occupation_route(self, monkeypatch):
        # no Monte Carlo V: renewal's walker (fluct_boxes) never runs
        def boom(*args, **kwargs):
            raise AssertionError("a Monte Carlo right side ran")

        monkeypatch.setattr(rn, "walk", boom)
        rep = rn.check_subpint(P1, 0.5, 0.4, 2000, POL.substream("p1x"), fixture="P1")
        assert rep.rhs == P1.drift * rn.exact_V(P1, 0.5, 0.4)[0] and rep.se_rhs == 0.0
        # the trapezoid of the creep route's p at the check's 13 nodes
        nodes = np.linspace(0.0, 0.4, 13)
        trap = float(np.sum(rn._trap_weights(nodes) * rn.exact_V(P1, 0.5, nodes)[1]))
        assert rep.details[0]["quad_bias"] == pytest.approx(abs(trap - rep.rhs), abs=1e-15)
        assert 0.0 < rep.details[0]["rhs_bound"] < 1e-15

    def test_p1_jump_rate_fault_fails(self, monkeypatch):
        # V(0.5, 0.4) moves by 0.0017 against a budget of about 0.00072
        _rate_fault(monkeypatch)
        rep = rn.check_subpint(P1, 0.5, 0.4, 100000, POL.substream("sp1-fault"), fixture="P1")
        assert not rep.passed

    def test_zero_drift_fixture_is_trivially_zero(self):
        rep = rn.check_subpint(P3, 0.5, 0.9, 100, POL.substream("p3"), fixture="P3")
        assert rep.passed and rep.lhs == 0.0 and rep.rhs == 0.0


class TestCt1:
    def test_right_side_is_the_creep_route(self):
        n = 20000
        rep = rn.check_ct1(P1, 0.5, 0.25, n, POL.substream("ct1"), fixture="P1")
        assert rep.passed and rep.n_paths == n and "delta" not in rep.params
        assert rep.rhs == pytest.approx(0.6256832127, abs=1e-10) and rep.se_rhs == 0.0
        assert rep.se_lhs == pytest.approx(math.sqrt(rep.rhs * (1 - rep.rhs) / n), rel=1e-12)
        assert rep.budget == pytest.approx(3.8906 * rep.se_lhs, rel=1e-4)

    @pytest.mark.parametrize("u", [0.25, 0.45])
    def test_jump_rate_fault_fails(self, monkeypatch, u):
        # p(0.5, u) moves 7.1 SE at u = 0.25 and 8.0 SE at u = 0.45 at
        # n = 400000, against 3.89 SE at CHECK_FAIL_RATE
        _rate_fault(monkeypatch)
        rep = rn.check_ct1(P1, 0.5, u, 400000, POL.substream(f"ct1-fault{u}"), fixture="P1")
        assert not rep.passed


# ---------------------------------------------------------------------------
# Bitwise oracles for the box hooks: the per-box loops they replaced, kept
# verbatim under a ``_ref`` name, must give the same bytes from the same seed.
# ---------------------------------------------------------------------------


def _ref_fluct_occ_chunk(spec: ProcessSpec, boxes: Boxes, n: int, rng) -> tuple[np.ndarray, int]:
    c, lam = spec.drift, spec.rate
    if c < 0:
        raise ValueError("ladder occupation requires nonnegative drift")
    nb = boxes.shape[0]
    t_lo, t_hi, u_lo, u_hi = boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3]
    fin_t = t_hi[np.isfinite(t_hi)]
    stop_r = min(OCC_TIME_GUARD, float(fin_t.max()) if fin_t.size == nb else OCC_TIME_GUARD)
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
        if stop.any() and stop_r >= OCC_TIME_GUARD:
            censored += int((stop & (sig_next > stop_r) & (M[alive] <= stop_u)).sum())
        return ~stop

    walk(np.arange(n), lam, rng, spec.sample_jumps, before, after)
    return occ, censored


def _ref_dual_cells_chunk(
    spec: ProcessSpec, cells: list[tuple[float, float]], n: int, rng
) -> np.ndarray:
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
    return counts


# the (t bin x fine y bin) boxes of check_quintuple(P1, 0.5) at mesh 0.1
_T_EDGES = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, math.inf)
_Y_FINE = [round(j * 0.025, 12) for j in range(21)]
QUINTUPLE_BOXES = np.array([(_T_EDGES[i], _T_EDGES[i + 1], 0.5 - _Y_FINE[j + 1], 0.5 - _Y_FINE[j])
                            for i in range(6) for j in range(20)])
# not a product grid: overlapping boxes, an infinite t edge, u_lo = -1
LOOSE_BOXES = np.array([(0.0, 0.5, -1.0, 0.3), (0.25, math.inf, 0.1, 1.7),
                        (1.0, 3.0, -1.0, 2.5), (0.0, math.inf, 0.9, 1.1), (2.0, 2.5, 0.0, 0.05)])
P3_BOXES = np.array([(0.0, 0.5, -1.0, 0.0), (0.0, 1.0, -1.0, 2.0), (0.5, 2.0, 0.5, 1.0),
                     (0.0, 3.0, 1.5, 3.0)])
P3_CELLS = [(0.5, 0.0), (1.0, 1.0), (2.0, 3.0), (1.5, 0.5)]


def _occ_matches_reference(spec, boxes, n, seed):
    got = rn._fluct_occ_chunk(spec, boxes, n, np.random.default_rng(seed))
    occ, censored = _ref_fluct_occ_chunk(spec, boxes, n, np.random.default_rng(seed))
    return np.array_equal(got.values.T, occ) and int(got.censored.sum()) == censored


class TestBoxHooksBitwise:
    @pytest.mark.parametrize("spec, boxes, n, block", [
        (P1, QUINTUPLE_BOXES, 3000, None),    # 546-row blocks, the last one ragged
        (P1, QUINTUPLE_BOXES, 1000, 1000),    # 8-row blocks
        (P1, LOOSE_BOXES, 2000, None),
        (P1, LOOSE_BOXES, 2001, 64),          # 12-row blocks
        (P3, P3_BOXES, 2000, None),
        (P3, P3_BOXES, 1999, 50),             # 12-row blocks
    ])
    def test_occupation_matches_per_box_loop(self, monkeypatch, spec, boxes, n, block):
        if block is not None:
            monkeypatch.setattr(rn, "OCC_BLOCK", block)
        assert _occ_matches_reference(spec, boxes, n, seed=n)

    @pytest.mark.parametrize("n, block", [(1000, None), (1000, 64), (997, 9)])
    def test_dual_cells_match_per_cell_loop(self, monkeypatch, n, block):
        if block is not None:
            monkeypatch.setattr(rn, "OCC_BLOCK", block)
        got = reference._dual_cells_chunk(P3, P3_CELLS, n, np.random.default_rng(n))
        ref = _ref_dual_cells_chunk(P3, P3_CELLS, n, np.random.default_rng(n))
        assert np.array_equal(got.values.T, ref)

    def test_oracle_fails_when_a_block_drops_a_row(self, monkeypatch):
        blocks = rn._row_blocks
        monkeypatch.setattr(rn, "_row_blocks", lambda m, width: [
            slice(b.start, b.stop - 1) for b in blocks(m, width)])
        assert not _occ_matches_reference(P1, QUINTUPLE_BOXES, 3000, seed=3000)

    def test_blocks_cover_the_rows_once(self, monkeypatch):
        monkeypatch.setattr(rn, "OCC_BLOCK", 100)
        blocks = rn._row_blocks(1003, 7)
        assert [b.stop - b.start for b in blocks[:-1]] == [14] * 71
        rows = np.arange(1003)
        assert np.array_equal(np.concatenate([rows[b] for b in blocks]), rows)
        assert rn._row_blocks(5, 1000) == [slice(a, a + 1) for a in range(5)]


# ---------------------------------------------------------------------------
# Bitwise oracle for the dual-ladder measure: the dense (paths x cells) count
# matrix that the (path, cell) key list replaced, kept under a ``_ref`` name.
# ---------------------------------------------------------------------------


def _ref_stats_per_column(values: np.ndarray) -> list[tuple[int, float, float]]:
    n = values.shape[0]
    mean = values.mean(axis=0)
    m2 = ((values - mean) ** 2).sum(axis=0)
    return [(n, float(mean[j]), float(m2[j])) for j in range(values.shape[1])]


def _ref_dual_counts(
    spec: ProcessSpec, s_edges: np.ndarray, v_edges: np.ndarray, n: int, rng
) -> np.ndarray:
    c, lam = spec.drift, spec.rate
    if c < 0:
        raise ValueError("dual ladder measure requires nonnegative drift")
    ns, nv = s_edges.size - 1, v_edges.size - 1
    s_guard, v_guard = float(s_edges[-1]), float(v_edges[-1])
    counts = np.zeros((n, ns * nv))
    # epoch-0 ladder point at (0, 0): first bin of each axis
    counts[:, 0] += 1.0

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
        np.add.at(counts, (ii[ok], si[ok] * nv + vi[ok]), 1.0)
        return ~(mmin[alive] < -v_guard)

    walk(np.arange(n), lam, rng, spec.sample_jumps, before, after)
    return counts


def _ref_dual_measure_chunk(spec, s_edges, v_edges, n, rng):
    return _ref_stats_per_column(_ref_dual_counts(spec, s_edges, v_edges, n, rng))


# quintuple P1's V-hat grid at u = 0.5, mesh 0.1: 6 time bins x 41 depth bins
QUINTUPLE_S = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 60.0])
QUINTUPLE_V = np.array([0.0, 1e-9] + [round(j * 0.025, 12) for j in range(1, 41)])
# amicale P1's x > 0 grid: 5 x 10
AMICALE_S = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0])
AMICALE_V = np.array([0.0] + [round(j * 0.1, 12) for j in range(1, 11)])
# P3 (drift 0) jumps by integers, so every depth lands on an integer v edge
P3_S = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0])
P3_V = np.array([0.0, 1.0, 2.0, 3.0, 5.0])
DUAL_GRIDS = {"quintuple-P1": (P1, QUINTUPLE_S, QUINTUPLE_V),
              "amicale-P1": (P1, AMICALE_S, AMICALE_V),
              "P3": (P3, P3_S, P3_V),
              # no path has a point before 1e-6, so the first time bins stay empty
              "empty-first-s": (P1, np.array([0.0, 1e-9, 1e-6, 1.0, 4.0]), AMICALE_V),
              # no jump before 1e-9: the chunk holds only origin points
              "origin-only": (P1, np.array([0.0, 1e-9]), AMICALE_V)}


def _dual_pair(grid, n, seed):
    spec, s_edges, v_edges = DUAL_GRIDS[grid]
    got = reference._dual_measure_chunk(spec, s_edges, v_edges, n, np.random.default_rng(seed))
    ref = _ref_dual_measure_chunk(spec, s_edges, v_edges, n, np.random.default_rng(seed))
    return got, ref


class TestDualMeasureBitwise:
    @pytest.mark.parametrize("grid", sorted(DUAL_GRIDS))
    @pytest.mark.parametrize("n", [16384, 64])
    def test_matches_dense_counts_on_power_of_two_chunks(self, grid, n):
        # with n a power of two the dense M2 is exact too, so every bit agrees
        got, ref = _dual_pair(grid, n, seed=n + 1)
        assert got == ref

    @pytest.mark.parametrize("grid", sorted(DUAL_GRIDS))
    def test_ragged_chunk_m2_is_exact(self, grid):
        spec, s_edges, v_edges = DUAL_GRIDS[grid]
        n = 1000
        got = reference._dual_measure_chunk(spec, s_edges, v_edges, n, np.random.default_rng(5))
        counts = _ref_dual_counts(spec, s_edges, v_edges, n, np.random.default_rng(5))
        ref = _ref_stats_per_column(counts)
        assert [s[:2] for s in got] == [s[:2] for s in ref]
        k = counts.astype(np.int64)
        for j, (s1, s2) in enumerate(zip(k.sum(axis=0).tolist(), (k * k).sum(axis=0).tolist())):
            exact = float(Fraction(n * s2 - s1 * s1, n))
            assert got[j][2] == exact
            assert abs(ref[j][2] - exact) <= 1e-12 * exact

    def test_oracle_fails_when_a_point_is_dropped(self, monkeypatch):
        class DropLastKey:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def unique(keys, **kw):
                return np.unique(keys[:-1], **kw)

        monkeypatch.setattr(reference, "np", DropLastKey())
        got, ref = _dual_pair("quintuple-P1", 16384, seed=16385)
        assert got != ref

    def test_chunk_peak_memory(self):
        tracemalloc.start()
        try:
            reference._dual_measure_chunk(P1, QUINTUPLE_S, QUINTUPLE_V, 16384,
                                          np.random.default_rng(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the dense (16384 x 246) count matrix alone took 32 MB
        assert peak < 8e6


def _ref_compose(shape, v_mass, vh_mass, pi, jy, jv):
    # the per-cell loop of the quintuple P1 composition
    out = np.zeros(shape)
    for jt in range(v_mass.shape[0]):
        for jyf in range(v_mass.shape[1]):
            for js in range(vh_mass.shape[0]):
                for jvf in range(vh_mass.shape[1]):
                    pi_mass = float(pi[jyf, jvf])
                    if pi_mass == 0.0:
                        continue
                    vest = float(v_mass[jt, jyf])
                    out[jt, jy[jyf], js, jv[jvf]] += vest * vh_mass[js, jvf] * pi_mass
    return out


class TestComposeJumpPart:
    def _inputs(self, seed):
        rng = np.random.default_rng(seed)
        nt, ny, ns, nv = 4, 9, 3, 13
        # magnitudes over six decades, so a change of summation order shows
        v_mass = rng.random((nt, ny)) * 10.0 ** rng.uniform(-3, 3, (nt, ny))
        vh_mass = rng.random((ns, nv)) * 10.0 ** rng.uniform(-3, 3, (ns, nv))
        vh_mass[rng.random((ns, nv)) < 0.2] = 0.0
        pi = rng.random((ny, nv)) * 10.0 ** rng.uniform(-3, 3, (ny, nv))
        pi[rng.random((ny, nv)) < 0.3] = 0.0
        jy = np.sort(rng.integers(0, 3, ny))        # several fine bins per reporting cell
        jv = np.sort(rng.integers(0, 4, nv))
        jv[0] = 0
        return (nt, 3, ns, 4), v_mass, vh_mass, pi, jy, jv

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_four_deep_loop(self, seed):
        args = self._inputs(seed)
        assert np.array_equal(_compose_jump_part(*args), _ref_compose(*args))

    def test_inputs_tell_summation_orders_apart(self):
        shape, v_mass, vh_mass, pi, jy, jv = self._inputs(0)
        flipped = _ref_compose(shape, v_mass[:, ::-1], vh_mass, pi[::-1], jy[::-1], jv)
        assert not np.array_equal(flipped, _ref_compose(shape, v_mass, vh_mass, pi, jy, jv))
