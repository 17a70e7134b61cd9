import math

import numpy as np
import pytest

from levyladder.fixtures import B1, P1, P3
from levyladder.processes import BivariateSubordinatorSpec
from levyladder.results import verdict
from levyladder.rng import RngPolicy
from levyladder import renewal as rn
from levyladder import rw_ladder as rl

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

    def test_large_killing_dominates(self):
        spec = BivariateSubordinatorSpec(d_z=1.0, d_y=1.0, q=1000.0)
        grid = rn.estimate_V(spec, [5.0], [5.0], 40000, POL.substream("bigq"), route="min")
        cell = grid.cell(5.0, 5.0)
        assert abs(cell.value - 1e-3) <= 3 * cell.se + 1e-5

    def test_min_and_killing_integrated_routes_agree(self):
        g1 = rn.estimate_V(B1, [0.5], [0.9], 60000, POL.substream("r1"), route="min")
        g2 = rn.estimate_V(B1, [0.5], [0.9], 60000, POL.substream("r2"), route="integrate")
        c1, c2 = g1.cell(0.5, 0.9), g2.cell(0.5, 0.9)
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

    def test_csv_export(self, tmp_path):
        grid = rn.estimate_V(B1, [0.5], [0.5], 1000, POL.substream("csv"))
        grid.to_csv(str(tmp_path / "grid.csv"))
        lines = (tmp_path / "grid.csv").read_text().splitlines()
        assert lines[0] == "t,u,V,SE,provenance"

    def test_unknown_route_is_refused(self):
        with pytest.raises(ValueError, match="route"):
            rn.estimate_V(B1, [0.5], [0.5], 100, POL.substream("bad"), route="bogus")


class TestExactV:
    def test_pure_drift_closed_form(self):
        q = 0.5
        spec = BivariateSubordinatorSpec(d_z=1.0, d_y=1.0, q=q)
        for t, u in [(0.5, 1.0), (2.0, 1.0), (1.0, 1.0), (math.inf, 0.7), (0.3, math.inf)]:
            v, creep = rn.exact_V(spec, t, u)
            assert v == pytest.approx((1 - math.exp(-q * min(t, u))) / q, rel=1e-14)
            # Y leaves through u unkilled, and Z is then u <= t
            assert creep == pytest.approx(math.exp(-q * u) if u <= t else 0.0, rel=1e-14)

    @pytest.mark.parametrize("t, u", [(4.0, 1.5), (math.inf, 1.5), (1.0, 0.9)])
    def test_creeping_term_is_the_left_u_derivative(self, t, u):
        h = 1e-7
        v, creep = rn.exact_V(B1, t, u)
        below, _ = rn.exact_V(B1, t, u - h)
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

        assert rn.exact_V(spec, 5.0, 2.0) == (pytest.approx(closed(2), rel=1e-14), 0.0)
        assert rn.exact_V(spec, 5.0, 2.5)[0] == pytest.approx(closed(2), rel=1e-14)
        assert rn.exact_V(spec, 5.0, 1.999)[0] == pytest.approx(closed(1), rel=1e-14)
        assert rn.exact_V(spec, 1.0, 5.0)[0] == pytest.approx(closed(1), rel=1e-14)
        assert rn.exact_V(spec, math.inf, math.inf)[0] == pytest.approx(1 / q, rel=1e-14)
        assert rn.exact_V(spec, 1.0, -0.5) == (0.0, 0.0)

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

    def test_monte_carlo_grid_matches_exact_grid(self):
        # one row per cell: |MC - exact| within the family-wise budget of its SE
        ts, us = [0.5, 1.0, 2.0], [0.5, 1.0, 2.0]
        n = 50000
        grid = rn.estimate_V(B1, ts, us, n, POL.substream("exact-grid"))
        rows = [(abs(grid.value[i, j] - rn.exact_V(B1, t, u)[0]), grid.se[i, j])
                for i, t in enumerate(ts) for j, u in enumerate(us)]
        distance, budget = verdict(rows)
        assert distance <= budget


class TestFluctLadderRoute:
    def test_matches_exact_tables_on_p3(self):
        walk = rl.LatticeWalkSpec.from_process(P3)
        table = rl.renewal_tables(walk, rl.truncation_depth(1.0, 1.0, 1e-10))
        grid = rn.estimate_V(P3, [0.5, 1.0], [0.0, 2.0], 50000, POL.substream("l61"))
        for t in (0.5, 1.0):
            for x in (0.0, 2.0):
                exact, bound = rl.v_exact(table, 1.0, t, x)
                cell = grid.cell(t, x)
                assert abs(cell.value - exact) <= 3 * cell.se + bound

    def test_dual_cells_match_exact_tables(self):
        walk = rl.LatticeWalkSpec.from_process(P3)
        table = rl.renewal_tables(walk, rl.truncation_depth(1.0, 2.0, 1e-10))
        cells = [(0.5, 0.0), (1.0, 1.0), (2.0, 3.0)]
        ests = rn.dual_ladder_cells(P3, cells, 50000, POL.substream("dual"))
        for (t, x), est in zip(cells, ests):
            exact, bound = rl.vhat_exact(table, 1.0, t, x)
            assert abs(est.value - exact) <= 3 * est.se + bound + 1e-12

    def test_vhat_zero_column_has_no_variance(self):
        ests = rn.dual_ladder_cells(P3, [(1.0, 0.0)], 2000, POL.substream("zero"))
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


class TestSubpint:
    def test_b1_has_closed_form(self):
        # creeping before any event requires no jumps and no killing, so
        # p(0.5, v) = e^{-0.8 v} and the integral is (1 - e^{-0.8 u}) / 0.8
        rep = rn.check_subpint(B1, 0.5, 0.9, 30000, POL.substream("b1"), fixture="B1")
        closed = (1 - math.exp(-0.8 * 0.9)) / 0.8
        assert rep.passed
        assert abs(rep.lhs - closed) <= 4 * rep.se_lhs + 1e-3
        assert abs(rep.rhs - closed) <= 4 * rep.se_rhs + 1e-3

    def test_p1_with_support_gap(self):
        # u = 0.9 > drift * t: the integrand vanishes on (0.5, 0.9]
        rep = rn.check_subpint(P1, 0.5, 0.9, 25000, POL.substream("p1"), fixture="P1")
        assert rep.passed

    def test_zero_drift_fixture_is_trivially_zero(self):
        rep = rn.check_subpint(P3, 0.5, 0.9, 100, POL.substream("p3"), fixture="P3")
        assert rep.passed and rep.lhs == 0.0 and rep.rhs == 0.0
