import dataclasses
import math

import numpy as np
import pytest

from levyladder.fixtures import B1, P1, P2, P3
from levyladder.processes import BivariateSubordinatorSpec, DiscreteAtoms, ProcessSpec
from levyladder.rng import RngPolicy
from levyladder import lawcheck as lc
from levyladder import passage as pg
from levyladder.passage import sample_passages

POL = RngPolicy(seed=424242)


class TestAxes:
    def test_atom_axis_exact_match(self):
        ax = lc.Axis("x", "atoms", (0.0, 1.0, 2.0))
        idx = ax.index(np.array([0.0, 1.0, 2.0, 1.5, -1.0]))
        assert list(idx) == [0, 1, 2, -1, -1]

    def test_bin_axis_left_edge_and_out_of_range(self):
        ax = lc.Axis("t", "bins", (0.0, 1.0, 2.0))
        idx = ax.index(np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, -0.1]))
        assert list(idx) == [0, 0, 0, 1, 1, -1, -1]

    def test_infinite_last_bin(self):
        ax = lc.Axis("t", "bins", (0.0, 1.0, math.inf))
        assert list(ax.index(np.array([0.5, 100.0]))) == [0, 1]

    def test_zero_offset_edges_isolate_the_atom(self):
        ax = lc.Axis("x", "bins", lc._zero_offset_edges(0.1, 0.3))
        assert list(ax.index(np.array([0.0, 0.05, 0.1, 0.11]))) == [0, 1, 1, 2]


class TestMeasure:
    def _axes(self):
        return (lc.Axis("a", "bins", (0.0, 1.0, 2.0)), lc.Axis("b", "atoms", (0.0, 1.0)))

    def test_mass_conservation_with_exclusions(self):
        axes = self._axes()
        a = np.array([0.5, 1.5, 5.0, 0.2])  # one out of range
        b = np.array([0.0, 1.0, 0.0, 2.0])  # one off-atom
        m = lc.DiscreteMeasureND.from_points(axes, [a, b], n_total=6)
        assert m.total_mass == pytest.approx(2 / 6)
        assert m.excluded_mass == pytest.approx(4 / 6)
        assert m.total_mass + m.excluded_mass == pytest.approx(1.0)

    def test_tv_and_cdf_distances(self):
        axes = self._axes()
        m1 = lc.DiscreteMeasureND.from_points(axes, [np.array([0.5]), np.array([0.0])], 1)
        m2 = lc.DiscreteMeasureND.from_points(axes, [np.array([1.5]), np.array([0.0])], 1)
        assert m1.tv_distance(m2) == pytest.approx(1.0)
        assert m1.tv_distance(m1) == 0.0

    def test_grid_mismatch_rejected(self):
        axes = self._axes()
        other = (lc.Axis("a", "bins", (0.0, 1.0, 3.0)), axes[1])
        m1 = lc.DiscreteMeasureND(axes, np.zeros((2, 2)))
        m2 = lc.DiscreteMeasureND(other, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            m1.tv_distance(m2)


class TestQuintupleLattice:
    def test_rhs_total_mass_is_one(self):
        rhs, _ = lc.quintuple_rhs_lattice(P3, 2.0, lc._default_edges(128.0),
                                          lc._default_edges(128.0))
        assert rhs.total_mass == pytest.approx(1.0, abs=2e-3)
        assert rhs.bound < 0.02

    def test_requires_lattice_level(self):
        with pytest.raises(ValueError):
            lc.quintuple_rhs_lattice(P3, 1.5, (0.0, math.inf), (0.0, math.inf))

    def test_check_at_moderate_scale(self):
        rep = lc.check_quintuple(P3, 2.0, 150000, POL.substream("q3"), cap=40000.0,
                                 fixture="P3")
        assert rep.passed
        assert rep.details[0]["creep_mass"] == 0.0

    def test_arrival_time_fault_fails(self, monkeypatch):
        # fault: record the arrival at the last maximum instead of the
        # departure from it, i.e. jump G - 1 in place of G, so the time of
        # the last maximum loses its last gap and s gains it
        block = pg._zero_drift_block

        def arrival(k, J, M, G, jumps, u, k_cap):
            passed, censored, record, carry = block(k, J, M, G, jumps, u, k_cap)
            return passed, censored, record[:4] + (record[4] - 1,), carry

        monkeypatch.setattr(pg, "_zero_drift_block", arrival)
        rep = lc.check_quintuple(P3, 2.0, 65536, POL.substream("fault"), cap=5e4, fixture="P3")
        assert not rep.passed
        assert rep.distance > 10 * rep.budget

    def test_single_jump_hand_oracle(self):
        # spectrally positive one-atom fixture: passage over u < atom happens
        # at the first jump, giving the degenerate law
        # (x, v, y, s, t) = (2 - u, u, u, 0, Exp(1))
        spec = ProcessSpec(drift=0.0, rate=1.0, jumps=DiscreteAtoms([(2.0, 1.0)]))
        batch = sample_passages(spec, 1.9, cap=50.0, n=20000, policy=POL.substream("one"))
        x, v, y, s, t = batch.quintuple()
        assert (x == pytest.approx(0.1)) if np.isscalar(x) else np.allclose(x, 0.1)
        assert np.allclose(v, 1.9) and np.allclose(y, 1.9) and np.allclose(s, 0.0)
        # t = first jump time ~ Exp(1): check the cdf at two points
        for q in (0.5, 1.5):
            emp = (t <= q).mean()
            assert abs(emp - (1 - math.exp(-q))) <= 4 * math.sqrt(0.25 / t.size)


class TestQuintupleCreeping:
    def test_p1_fibre_and_tv(self):
        rep = lc.check_quintuple(P1, 0.5, 120000, POL.substream("q1"), fixture="P1")
        assert rep.passed
        d = rep.details[0]
        assert d["fibre_dist"] <= d["fibre_budget"]
        assert d["tv"] <= d["tv_budget"]

    def test_creeping_mass_positive(self):
        rep = lc.check_quintuple(P1, 0.5, 50000, POL.substream("q1b"), fixture="P1")
        assert rep.lhs > 0.3  # P1 creeps over 0.5 with high probability


class TestCorJtop:
    def test_p3_exact_route(self):
        rep = lc.check_cor_jtop(P3, 2.0, 120000, POL.substream("cj"), fixture="P3")
        assert rep.passed
        assert rep.details[0]["bookkeeping_gap"] < 1e-12

    def test_p2_overshoot_is_delta_at_zero(self):
        rep = lc.check_cor_jtop(P2, 0.5, 30000, POL.substream("cj2"), fixture="P2")
        assert rep.passed and rep.lhs == 1.0


class TestAmicale:
    def test_p3_lattice_identity_everywhere(self):
        rep = lc.check_amicale(P3, 200000, POL.substream("am3"), fixture="P3")
        assert rep.passed
        # the zero fibre carries strictly positive mass for a lattice CP fixture
        assert rep.details[0]["x0_rhs"] > 0.1

    def test_p1_creeping_zero_fibre(self):
        rep = lc.check_amicale(P1, 150000, POL.substream("am1"), fixture="P1")
        assert rep.passed
        d = rep.details[-1]
        assert d["x0_mass"] >= 5 * d["x0_se"]
        assert d["x0_rhs"] == 0.0

    # At n = 200000 the P1 x > 0 cells number about 40.  Each held to 3 SE,
    # seeds 12, 15 and 17 of 11-18 FAIL on correct code; held together to
    # the false-FAIL rate of one 3-SE comparison, all pass.
    def test_p1_passes_on_every_seed(self):
        for seed in range(11, 19):
            rep = lc.check_amicale(P1, 200000, RngPolicy(seed), fixture="P1")
            assert rep.passed, seed

    def test_p1_dual_route_scaled_by_two_percent_fails_on_every_seed(self, monkeypatch):
        route = lc.dual_ladder_measure

        def scaled(*args, **kwargs):
            mass, se, dropped = route(*args, **kwargs)
            return 1.02 * mass, 1.02 * se, dropped

        monkeypatch.setattr(lc, "dual_ladder_measure", scaled)
        for seed in range(11, 19):
            rep = lc.check_amicale(P1, 200000, RngPolicy(seed), fixture="P1")
            assert not rep.passed, seed

    def test_p3_summary_agrees_with_verdict(self):
        rep = lc.check_amicale(P3, 400000, RngPolicy(20), fixture="P3")
        *_, distance, budget, status = rep.summary_row()
        assert (distance <= budget) == (status == "PASS")

    def test_p2_all_mass_on_zero_fibre(self):
        rep = lc.check_amicale(P2, 100000, POL.substream("am2"), fixture="P2")
        assert rep.passed
        assert rep.details[0]["x_pos_mass"] == 0.0
        # total zero-fibre mass equals the jump rate up to censored excursions
        assert abs(rep.lhs - P2.rate) <= 3 * rep.se_lhs + P2.rate * rep.censored_mass


class TestQuadruple:
    def test_b1_at_moderate_scale(self):
        rep = lc.check_quadruple(B1, 1.5, 150000, POL.substream("qd"), fixture="B1")
        assert rep.passed
        d = rep.details[0]
        assert abs(d["creep_mass_emp"] - d["creep_mass_rhs"]) < 0.01

    def test_zero_y_drift_has_no_creeping_atom(self):
        spec = BivariateSubordinatorSpec(d_z=0.3, d_y=0.0, q=0.1, atoms=((0.0, 1.0, 1.0),))
        rep = lc.check_quadruple(spec, 1.5, 40000, POL.substream("q0"), fixture="D0")
        assert rep.details[0]["creep_mass_emp"] == 0.0
        assert rep.rhs == 0.0
        assert rep.passed

    def test_pure_drift_all_mass_at_creeping_point(self):
        spec = BivariateSubordinatorSpec(d_z=1.0, d_y=1.0, q=0.5)
        rep = lc.check_quadruple(spec, 1.0, 20000, POL.substream("qpd"), fixture="PD")
        assert rep.passed
        d = rep.details[0]
        assert d["creep_mass_emp"] == pytest.approx(math.exp(-0.5), abs=0.02)

    def test_mesh_must_divide_jumps(self):
        with pytest.raises(ValueError):
            lc.check_quadruple(B1, 1.5, 100, POL.substream("bad"), mesh=0.07)

    def test_lattice_z_on_t_edges_without_y_drift(self):
        # d_z = d_y = 0: Z before the passage sits on the t edges 0.5 and 1.0
        spec = BivariateSubordinatorSpec(d_z=0.0, d_y=0.0, q=0.1,
                                         atoms=((0.5, 1.0, 1.0), (1.0, 0.5, 0.5)))
        rep = lc.check_quadruple(spec, 1.5, 40000, POL.substream("qlz"), fixture="LZ")
        assert rep.passed

    def test_killing_dropped_from_the_exact_side_fails(self, monkeypatch):
        exact = lc.exact_V
        monkeypatch.setattr(lc, "exact_V",
                            lambda spec, t, u: exact(dataclasses.replace(spec, q=0.0), t, u))
        rep = lc.check_quadruple(B1, 1.5, 150000, POL.substream("qd"), fixture="B1")
        assert not rep.passed

    def test_creeping_term_dropped_from_the_exact_side_fails(self, monkeypatch):
        exact = lc.exact_V
        monkeypatch.setattr(lc, "exact_V", lambda spec, t, u: (exact(spec, t, u)[0], 0.0))
        rep = lc.check_quadruple(B1, 1.5, 150000, POL.substream("qd"), fixture="B1")
        assert not rep.passed


class TestAlphaEmbedding:
    def test_p3_sup_cdf_small(self):
        rep = lc.check_alpha_embedding(P3, 200000, POL.substream("al"), fixture="P3")
        assert rep.passed
        assert rep.distance < 0.01

    def test_requires_compound_poisson(self):
        with pytest.raises(ValueError):
            lc.check_alpha_embedding(P1, 100, POL)
