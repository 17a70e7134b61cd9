import dataclasses
import math

import numpy as np
import pytest

from levyladder.fixtures import B1, P1, P2, P3
from levyladder.processes import BivariateSubordinatorSpec, DiscreteAtoms, ProcessSpec
from levyladder.rng import RngPolicy
from levyladder import lawcheck as lc
from levyladder import passage as pg
from levyladder import renewal as rn
from levyladder import rw_ladder as rl
from levyladder.results import CHECK_FAIL_RATE, verdict
from levyladder.passage import sample_passages

import reference

POL = RngPolicy(seed=424242)
# drift 1 with two up-jump sizes: one x cell takes ladder jumps of both
TWO_UP = ProcessSpec(1.0, 1.0, DiscreteAtoms([(1.0, 0.25), (2.0, 0.25), (-1.0, 0.5)]))


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


def _histogram(axes, columns, n_total):
    return lc.DiscreteMeasureND.from_counts(
        axes, lc.DiscreteMeasureND.cell_counts(axes, columns), n_total)


class TestMeasure:
    def _axes(self):
        return (lc.Axis("a", "bins", (0.0, 1.0, 2.0)), lc.Axis("b", "atoms", (0.0, 1.0)))

    def test_mass_conservation_with_exclusions(self):
        axes = self._axes()
        a = np.array([0.5, 1.5, 5.0, 0.2])  # one out of range
        b = np.array([0.0, 1.0, 0.0, 2.0])  # one off-atom
        m = _histogram(axes, [a, b], n_total=6)
        assert m.total_mass == pytest.approx(2 / 6)
        assert m.excluded_mass == pytest.approx(4 / 6)
        assert m.total_mass + m.excluded_mass == pytest.approx(1.0)

    def test_tv_and_cdf_distances(self):
        axes = self._axes()
        m1 = _histogram(axes, [np.array([0.5]), np.array([0.0])], 1)
        m2 = _histogram(axes, [np.array([1.5]), np.array([0.0])], 1)
        assert m1.tv_distance(m2) == pytest.approx(1.0)
        assert m1.tv_distance(m1) == 0.0

    def test_pooled_tv_counts_censored_mass_in_the_tail_cell(self):
        # (x, s, t) grid whose tail cell is every cell with s or t in (1, inf)
        axes = (lc.Axis("x", "atoms", (1.0, 2.0)), lc.Axis("s", "bins", (0.0, 1.0, math.inf)),
                lc.Axis("t", "bins", (0.0, 1.0, math.inf)))
        mass = np.arange(1.0, 9.0).reshape(2, 2, 2) / 36.0
        rhs = lc.DiscreteMeasureND(axes, mass)
        tail = np.zeros(mass.shape, dtype=bool)
        tail[:, -1, :] = tail[..., -1] = True
        # half of every tail cell's mass censored: lost from the grid
        emp = lc.DiscreteMeasureND(axes, np.where(tail, mass / 2, mass))
        censored = float(mass[tail].sum()) / 2
        assert emp.tv_distance(rhs) == pytest.approx(censored / 2)
        assert emp.pooled_tv_distance(rhs, tail, censored) == pytest.approx(0.0, abs=1e-15)
        # nothing censored and no tail mass: the plain TV
        head = lc.DiscreteMeasureND(axes, np.where(tail, 0.0, mass))
        other = lc.DiscreteMeasureND(axes, np.where(tail, 0.0, mass[::-1]))
        assert other.tv_distance(head) > 0
        assert other.pooled_tv_distance(head, tail, 0.0) == other.tv_distance(head)

    def test_grid_mismatch_rejected(self):
        axes = self._axes()
        other = (lc.Axis("a", "bins", (0.0, 1.0, 3.0)), axes[1])
        m1 = lc.DiscreteMeasureND(axes, np.zeros((2, 2)))
        m2 = lc.DiscreteMeasureND(other, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            m1.tv_distance(m2)


class TestQuintupleLattice:
    def test_rhs_total_mass_is_one(self):
        rhs, _ = lc.quintuple_rhs_lattice(P3, 2.0, lc.QUINTUPLE_LATTICE_EDGES,
                                          lc.QUINTUPLE_LATTICE_EDGES)
        # the all-epoch totals of the infinite bins are exact (Wiener-Hopf)
        assert abs(rhs.total_mass - 1.0) <= 1e-10
        assert 0.0 < rhs.bound <= 1e-9

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

    def test_rows_and_columns(self):
        rep = lc.check_quintuple(P1, 0.5, 20000, POL.substream("q1c"), fixture="P1")
        d = rep.details[0]
        assert rep.rhs == d["creep_exact"] == pytest.approx(0.4956273715, abs=1e-10)
        assert rep.se_rhs == 0.0 and "delta" not in rep.params
        # the paper's theorem between the two exact routes
        assert d["theorem_gap"] <= 1e-14 and d["theorem_budget"] < 1e-12
        # the jump part misses at most the boundary strip's share
        assert 1.0 - d["strip_bound"] <= d["total_mass"] <= 1.0 + 1e-12
        assert d["total_budget"] == pytest.approx(d["strip_bound"], rel=1e-6)

    def test_reads_no_monte_carlo_right_side(self, monkeypatch):
        # fluct_boxes and dual_ladder_measure both step renewal's walker
        def boom(*args, **kwargs):
            raise AssertionError("a Monte Carlo right side ran")

        monkeypatch.setattr(rn, "walk", boom)
        assert lc.check_quintuple(P1, 0.5, 20000, POL.substream("q1d"), fixture="P1").passed
        assert lc.check_amicale(P1, 20000, POL.substream("am1d"), fixture="P1").passed

    @pytest.mark.parametrize("n", [400000, 131072])
    def test_jump_rate_two_percent_off_fails(self, monkeypatch, n):
        # p(4, 0.5) moves from 0.49563 to 0.48854: 9.0 SE at 400000, 5.1 SE
        # at 131072; the fibre row is held to CHECK_FAIL_RATE (3.89 SE)
        exact = rl.DriftLattice
        monkeypatch.setattr(rl, "DriftLattice", lambda spec, **kwargs: exact(
            ProcessSpec(spec.drift, 1.02 * spec.rate, spec.jumps), **kwargs))
        rep = lc.check_quintuple(P1, 0.5, n, POL.substream("q1f"), fixture="P1")
        d = rep.details[0]
        assert d["creep_exact"] == pytest.approx(0.48854, abs=1e-5)
        assert not rep.passed and d["fibre_dist"] > d["fibre_budget"]

    def test_dropping_the_creeping_term_fails_the_total_mass_row(self, monkeypatch):
        creep = rl.DriftLattice.creep

        def jump_part_only(self, u, t_values):
            p, bound = creep(self, u, t_values)
            return np.where(np.isinf(np.asarray(t_values)), 0.0, p), bound

        monkeypatch.setattr(rl.DriftLattice, "creep", jump_part_only)
        rep = lc.check_quintuple(P1, 0.5, 20000, POL.substream("q1g"), fixture="P1")
        d = rep.details[0]
        assert abs(1.0 - d["total_mass"]) > 0.4 > d["total_budget"]
        assert not rep.passed


class TestDriftLatticeAgainstMonteCarlo:
    """The exact tables against the Monte Carlo routes they replace, cell by
    cell, each row held to the check's false-FAIL rate."""

    lat = rl.DriftLattice(P1)

    @staticmethod
    def _agree(mc, se, exact, bound):
        rows = [(abs(a - b), e, bound) for a, e, b in zip(np.ravel(mc), np.ravel(se),
                                                          np.ravel(exact))]
        distance, budget = verdict(rows, CHECK_FAIL_RATE)
        assert distance <= budget

    def test_v_boxes_against_fluct_boxes(self):
        # check_quintuple(P1, 0.5)'s 120 boxes: t bins by fine y bins
        t_edges = lc.QUINTUPLE_CREEPING_EDGES
        w = 0.5 - 0.025 * np.arange(21)
        V, _, bound = self.lat.occupation(t_edges, np.maximum(w, 0.0))
        exact = -np.diff(np.diff(V, axis=0), axis=1)
        boxes = [(t_edges[i], t_edges[i + 1], max(w[j + 1], 0.0), w[j])
                 for i in range(6) for j in range(20)]
        est = rn.fluct_boxes(P1, boxes, 100000, POL.substream("vbox"))
        self._agree([e.value for e in est], [e.se for e in est], exact, 4 * bound)

    @pytest.mark.parametrize("s_edges, v_edges", [
        ((0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 60.0), tuple(np.round(0.025 * np.arange(41), 12))),
        (lc.AMICALE_S_EDGES, tuple(np.round(0.1 * np.arange(11), 12))),
    ])
    def test_vhat_cells_against_dual_ladder_measure(self, s_edges, v_edges):
        mass, bound, _ = self.lat.dual(s_edges, v_edges)
        mc, se = reference.dual_ladder_measure(P1, s_edges, v_edges, 100000, POL.substream("vhat"))
        self._agree(mc, se, mass, bound)


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

    # P1's 50 x > 0 cells, each with its binomial SE at its exact mass and
    # the sparse ones pooled, are held together to CHECK_FAIL_RATE
    def test_p1_passes_on_every_seed(self):
        for seed in range(11, 19):
            rep = lc.check_amicale(P1, 200000, RngPolicy(seed), fixture="P1")
            assert rep.passed, seed

    def test_p1_dual_route_scaled_by_two_percent_fails_on_every_seed(self, monkeypatch):
        route = rl.DriftLattice.dual

        def scaled(*args, **kwargs):
            mass, bound, dropped = route(*args, **kwargs)
            return 1.02 * mass, bound, dropped

        monkeypatch.setattr(rl.DriftLattice, "dual", scaled)
        for seed in range(11, 19):
            rep = lc.check_amicale(P1, 200000, RngPolicy(seed), fixture="P1")
            assert not rep.passed, seed

    @pytest.mark.parametrize("mesh", [0.1, 0.5])
    def test_two_up_atoms_pass_on_every_seed(self, mesh):
        # a row's ladder jumps in one x cell come from both atoms; the
        # per-atom rows this replaced read about 52 times their budget
        for seed in range(11, 19):
            rep = lc.check_amicale(TWO_UP, 200000, RngPolicy(seed), mesh=mesh, fixture="T")
            assert rep.passed, seed

    def test_one_up_atom_dropped_from_pi_fails_on_every_seed(self, monkeypatch):
        atom = ProcessSpec.levy_atom
        monkeypatch.setattr(ProcessSpec, "levy_atom",
                            lambda self, x: 0.0 if x == 1.0 else atom(self, x))
        for seed in range(11, 19):
            rep = lc.check_amicale(TWO_UP, 200000, RngPolicy(seed), fixture="T")
            assert not rep.passed, seed

    def test_creeping_returns_censored_fail_p1_and_p2(self, monkeypatch):
        # a ladder sampler that loses every return by creeping (x = 0)
        chunks = lc.ladder_jump_chunks

        def no_creeping(*args, **kwargs):
            for lad in chunks(*args, **kwargs):
                yield dataclasses.replace(lad, censored=lad.censored | (lad.dx == 0.0))

        monkeypatch.setattr(lc, "ladder_jump_chunks", no_creeping)
        assert not lc.check_amicale(P2, 100000, POL.substream("am2"), fixture="P2").passed
        assert not lc.check_amicale(P1, 150000, POL.substream("am1"), fixture="P1").passed

    @pytest.mark.parametrize("spec, mesh", [(TWO_UP, 0.3), (P1, 1.5)])
    def test_mesh_that_cannot_align_the_up_atoms_is_refused(self, spec, mesh):
        with pytest.raises(ValueError, match="mesh"):
            lc.check_amicale(spec, 1000, POL.substream("am"), mesh=mesh)

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


class TestErlangMixtureFaults:
    """Faults in the one Erlang-mixing routine that every lattice exact side
    reads must FAIL each check built on it."""

    def test_erlang_index_shifted_by_one_fails_every_exact_side(self, monkeypatch):
        # P(sigma_{k+1} <= t) read in place of P(sigma_k <= t)
        weights = rl.poisson_weights
        monkeypatch.setattr(rl, "poisson_weights", lambda mus, kmax: tuple(
            w[:, 1:] for w in weights(mus, kmax + 1)))
        rep = lc.check_quintuple(P3, 2.0, 65536, POL.substream("q3"), cap=5e4, fixture="P3")
        assert not rep.passed
        rep = lc.check_amicale(P3, 200000, POL.substream("am3"), fixture="P3")
        assert not rep.passed
        rep = lc.check_alpha_embedding(P3, 200000, POL.substream("al"), fixture="P3")
        assert not rep.passed

    def test_alpha_fed_the_weak_ascending_table_fails(self, monkeypatch):
        layers = rl.stay_region_layers
        monkeypatch.setattr(rl, "stay_region_layers",
                            lambda walk, K, mode: layers(walk, K, "weak-ascending"))
        rep = lc.check_alpha_embedding(P3, 200000, POL.substream("al"), fixture="P3")
        assert not rep.passed


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

    @pytest.mark.parametrize("spec, calls_per_edge", [
        (B1, 1),
        (BivariateSubordinatorSpec(d_z=0.3, d_y=0.0, q=0.1, atoms=((0.0, 1.0, 1.0),)), 2),
    ], ids=["B1", "lattice-y"])
    def test_exact_side_takes_each_t_edge_in_one_pass(self, monkeypatch, spec, calls_per_edge):
        # all y-edges of a t-edge in one exact_V call (two for a lattice Y:
        # the half-lattice levels above and below each height)
        calls = []
        exact = lc.exact_V
        monkeypatch.setattr(lc, "exact_V", lambda spec, t, u: calls.append(t) or exact(spec, t, u))
        lc.check_quadruple(spec, 1.5, 2000, POL.substream("spy"))
        edges = lc.QUADRUPLE_T_EDGES[1:]
        assert sorted(calls) == sorted(edges * calls_per_edge)

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
