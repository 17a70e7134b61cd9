import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats

from levyladder import rw_ladder as rl
from levyladder.fixtures import P1, P3
from levyladder.processes import DiscreteAtoms, ExponentialJumps, ProcessSpec

import reference

F = Fraction

SYMM = rl.LatticeWalkSpec(1.0, (1, -1), (F(1, 2), F(1, 2)), 1.0)
ASYM = rl.LatticeWalkSpec(1.0, (-1, 1, 2), (F(1, 2), F(1, 4), F(1, 4)), 1.0)
P3WALK = rl.LatticeWalkSpec.from_process(P3)


class TestLadderEpochs:
    def test_weak_tie_handling(self):
        assert reference.ladder_epochs([0, 1, 1], "weak-ascending") == [(1, 1), (2, 1)]

    def test_hand_enumeration(self):
        path = [0, -1, 1, 0]
        assert reference.ladder_epochs(path, "weak-ascending") == [(2, 1)]
        assert reference.ladder_epochs(path, "strict-descending") == [(1, 1)]

    def test_strictly_decreasing_path_has_no_ascents(self):
        assert reference.ladder_epochs([0, -1, -2, -3], "weak-ascending") == []

    def test_requires_start_at_zero(self):
        with pytest.raises(ValueError):
            reference.ladder_epochs([1, 2], "weak-ascending")

    @given(st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_strict_subset_of_weak_and_characterisation(self, steps):
        path = [0]
        for y in steps:
            path.append(path[-1] + y)
        weak = {k for k, _ in reference.ladder_epochs(path, "weak-ascending")}
        strict = {k for k, _ in reference.ladder_epochs(path, "strict-ascending")}
        assert strict <= weak
        # implementation lemma: chained definition == running-extremum test
        assert weak == {k for k in range(1, len(path)) if path[k] >= max(path[:k])}
        desc = {k for k, _ in reference.ladder_epochs(path, "strict-descending")}
        assert desc == {k for k in range(1, len(path)) if path[k] < min(path[:k])}


class TestTables:
    def test_symmetric_single_step(self):
        t = reference.renewal_tables(SYMM, 3)
        assert t.u(1, 0.5) == 0.0
        assert t.u(1, 1.0) == 0.5
        assert t.u(0, 0.0) == 1.0  # epoch-0 term

    def test_symmetric_two_step_enumeration(self):
        t = reference.renewal_tables(SYMM, 2)
        assert t.u(2, 0.0) == 0.25
        assert t.u(2, 2.0) == 0.5

    def test_dp_equals_brute_force_exactly(self):
        for spec, K in ((SYMM, 8), (ASYM, 6), (P3WALK, 5)):
            dp = reference.renewal_tables(spec, K)
            bf = reference.brute_force_tables(spec, K)
            assert dp.u_layers == bf.u_layers
            assert dp.uhat_layers == bf.uhat_layers

    def test_reversal_recursion_agrees_with_dp(self):
        dp = reference.renewal_tables(P3WALK, 8)
        asc = rl.stay_region_layers(P3WALK, 8, "weak-ascending")
        desc = rl.stay_region_layers(P3WALK, 8, "strict-descending")
        for k in range(9):
            for w, m in dp.u_layers[k].items():
                assert asc[k, w] == pytest.approx(float(m), abs=1e-14)
            for w, m in dp.uhat_layers[k].items():
                assert desc[k, w] == pytest.approx(float(m), abs=1e-14)

    def test_symmetric_walk_strict_modes_mirror(self):
        up = rl.stay_region_layers(P3WALK, 6, "strict-ascending")
        down = rl.stay_region_layers(P3WALK, 6, "strict-descending")
        assert up.shape == down.shape
        for lu, ld in zip(up, down):
            assert (np.flatnonzero(lu) == np.flatnonzero(ld)).all()
            assert lu == pytest.approx(ld, abs=1e-15)

    def test_state_space_guard(self):
        with pytest.raises(MemoryError):
            reference.renewal_tables(P3WALK, 30, max_states=10)


class TestErlangMixing:
    MUS = (0.0, 1e-9, 0.3, 2.0, 40.0, 128.0, 2000.0, 5e4)

    def test_poisson_sf_matches_scipy(self):
        for mu in self.MUS:
            (pmf,), (sf,) = rl.poisson_weights([mu], 12)
            assert pmf.shape == sf.shape == (14,)
            for k in range(1, 14):
                assert sf[k] == pytest.approx(float(special.gammainc(k, mu)), rel=1e-10, abs=1e-13)
            for k in range(14):
                exact = float(stats.poisson.pmf(k, mu))
                assert pmf[k] == pytest.approx(exact, rel=1e-10, abs=1e-13)
            assert sf[0] == 1.0
        # one call over every mu: each row is its single-row call
        pmf, sf = rl.poisson_weights(self.MUS, 12)
        for i, mu in enumerate(self.MUS):
            one_pmf, one_sf = rl.poisson_weights([mu], 12)
            assert pmf[i] == pytest.approx(one_pmf[0], rel=1e-15, abs=0.0)
            assert sf[i] == pytest.approx(one_sf[0], rel=1e-15, abs=0.0)

    def test_poisson_tail_mean_direct_sum(self):
        mu, j = 3.0, 5
        direct = sum(
            (k - j) * math.exp(-mu) * mu**k / math.factorial(k) for k in range(j, 60)
        )
        assert rl.poisson_tail_mean(mu, j) == pytest.approx(direct, rel=1e-10)

    def test_vhat_at_zero_column_is_one(self):
        t = reference.renewal_tables(P3WALK, 14)
        for tt in (0.1, 0.5, 2.0):
            val, bound = reference.vhat_exact(t, 1.0, tt, 0.0)
            assert val == pytest.approx(1.0, abs=1e-12)
            assert bound < 1e-6

    def test_v_monotone_in_t_and_x(self):
        t = reference.renewal_tables(P3WALK, 14)
        v1, _ = reference.v_exact(t, 1.0, 0.5, 1.0)
        v2, _ = reference.v_exact(t, 1.0, 1.5, 1.0)
        v3, _ = reference.v_exact(t, 1.0, 1.5, 3.0)
        assert v1 <= v2 <= v3

    def test_vhat_converges_to_full_renewal_function(self):
        K = 40
        t = reference.renewal_tables(P3WALK, K, exact=False)
        big_t, bound = reference.vhat_exact(t, 1.0, 30.0, 2.0)
        total = sum(t.uhat(k, 2.0) for k in range(K + 1))
        assert big_t <= total + 1e-9
        assert big_t == pytest.approx(total, abs=bound + 0.06)

    def test_poisson_index_cap_against_poisson_sf(self):
        # the geometric bound certifies the cap; it overshoots the smallest
        # index with P(N >= k) <= tail by at most one
        tail = 1e-15
        for mu in (1e-20, 0.3, 1.0, 2.0, 40.0, 2000.0, 5e4):
            k = rl.poisson_index_cap(mu, tail)
            sf = rl.poisson_weights([mu], k)[1][0]
            assert sf[k] <= tail
            assert k < 2 or sf[k - 2] > tail
        assert rl.poisson_index_cap(0.0, tail) == 1

    def test_truncation_depth_bound_holds(self):
        K = rl.truncation_depth(1.0, 2.0, 1e-10)
        assert rl.poisson_tail_mean(2.0, K) < 1e-10


class TestErlangMixture:
    TABLE = reference.renewal_tables(P3WALK, rl.truncation_depth(1.0, 2.0, 1e-10))

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_finite_bins_match_the_dp_route(self, t):
        # the mixed stay-region layers against the mixed ladder DP tables
        m_up, b_up = rl.erlang_mixture(P3WALK, (0.0, t), "weak-ascending", 3)
        m_dn, b_dn = rl.erlang_mixture(P3WALK, (0.0, t), "strict-descending", 3)
        for x in range(4):
            v, bv = reference.v_exact(self.TABLE, 1.0, t, float(x))
            vh, bvh = reference.vhat_exact(self.TABLE, 1.0, t, float(x))
            assert abs(m_up[0, : x + 1].sum() - v) <= b_up + bv + 1e-14
            assert abs(m_dn[0, : x + 1].sum() - vh) <= b_dn + bvh + 1e-14

    @pytest.mark.parametrize("mode, scale", [("weak-ascending", 1 / P3.rate),
                                             ("strict-descending", 1.0)])
    def test_bins_with_the_infinite_one_add_up_to_green_totals(self, mode, scale):
        m, bound = rl.erlang_mixture(P3WALK, (0.0, 1.0, 3.0, math.inf), mode, 4)
        g, _ = rl.green_function(P3WALK, mode, 4)
        assert m.shape == (3, 5)
        assert np.abs(m.sum(axis=0) - scale * g).max() <= bound + 1e-14

    def test_time_change(self):
        # the walk at rate 2 on the edges e / 2 takes the same jumps by each
        # edge as at rate 1 on e: V carries 1 / rate, so its masses halve,
        # and Vhat's do not move
        fast = rl.LatticeWalkSpec(P3WALK.h, P3WALK.steps, P3WALK.probs, 2.0)
        edges = np.array([0.0, 0.5, 1.0, 2.0, 3.5, math.inf])
        for mode, factor in (("weak-ascending", 0.5), ("strict-descending", 1.0)):
            m, _ = rl.erlang_mixture(P3WALK, edges, mode, 5)
            m_fast, _ = rl.erlang_mixture(fast, edges / 2, mode, 5)
            assert m_fast == pytest.approx(factor * m, rel=1e-12, abs=0.0), mode

    def test_rejects_bad_edges_and_modes(self):
        with pytest.raises(ValueError):
            rl.erlang_mixture(P3WALK, (0.5, 1.0), "weak-ascending", 2)
        with pytest.raises(ValueError):
            rl.erlang_mixture(P3WALK, (0.0, 1.0), "strict-ascending", 2)


def renewal_sequence(law, w_max):
    """``u_w``, ``w <= w_max``, of the renewal sequence of ``law`` (index = height)."""
    u = []
    for w in range(w_max + 1):
        hits = sum(law[j] * u[w - j] for j in range(1, min(w, len(law) - 1) + 1))
        u.append(((w == 0) + hits) / (1 - law[0]))
    return np.array(u)


def green_residual(spec, mode, g, w_max):
    """Residual of the killed walk's Green equation at ``w <= w_max``: the
    totals of the stay region ``w >= 0`` solve ``g(w) = [w = 0] + sum_a p_a
    g(w - a)``, those of ``w < 0`` (in depths) ``g(v) = [v = 0] + [v >= 1]
    sum_a p_a g(v + a)``."""
    sign = 1 if mode == "weak-ascending" else -1

    def at(w):
        return g[w] if 0 <= w < g.size else (0.0 if w < 0 else math.nan)

    out = []
    for w in range(w_max + 1):
        inflow = sum(float(p) * at(w - sign * a) for a, p in zip(spec.steps, spec.probs))
        if mode == "strict-descending" and w == 0:
            inflow = 0.0
        out.append(g[w] - (w == 0) - inflow)
    return np.array(out)


SQ5 = math.sqrt(5.0)
NEG = rl.LatticeWalkSpec(1.0, (-2, 1), (F(1, 2), F(1, 2)), 1.0)
POS = rl.LatticeWalkSpec(1.0, (-1, 2), (F(1, 2), F(1, 2)), 1.0)
# mean 0 exactly, but -2 * float(3/5) + 3 * float(2/5) = 2.2e-16
ZERO_INEXACT = rl.LatticeWalkSpec(1.0, (-2, 3), (F(3, 5), F(2, 5)), 1.0)
BOTH = ("weak-ascending", "strict-descending")


class TestGreen:
    @pytest.mark.parametrize("mode, law", [
        ("weak-ascending", [(5 - SQ5) / 8, (1 + SQ5) / 8, 1 / 4]),
        ("strict-descending", [0.0, (SQ5 - 1) / 2, (3 - SQ5) / 2]),
    ])
    def test_p3_closed_form_ladder_laws(self, mode, law):
        # c(z) = -(z - 1)^2 (z^2 + 3z + 1) / 4: the roots -(3 -+ sqrt 5) / 2
        # split between the factors, each with one unit root
        g, bound = rl.green_function(P3WALK, mode, 8)
        assert np.abs(g - renewal_sequence(law, 8)).max() <= 1e-14
        assert bound.max() <= 1e-12
        if mode == "weak-ascending":
            assert abs(g[0] - 8 / (3 + SQ5)) <= 1e-14
        else:
            assert g[0] == 1.0

    @pytest.mark.parametrize("walk", [NEG, POS], ids=["negative-mean", "positive-mean"])
    @pytest.mark.parametrize("mode", BOTH + ("strict-ascending",))
    def test_drifting_walks_match_partial_layer_sums(self, walk, mode):
        # a walk with a mean leaves any height geometrically fast, so the
        # stay-region layers summed over 800 epochs are the totals
        g, bound = rl.green_function(walk, mode, 5)
        partial = rl.stay_region_layers(walk, 800, mode)[:, :6].sum(axis=0)
        assert (np.abs(partial - g) <= bound + 1e-13).all()
        assert bound.max() <= 1e-12

    @pytest.mark.parametrize("mode", BOTH)
    def test_one_sided_walks(self, mode):
        up = rl.LatticeWalkSpec(1.0, (1, 2), (F(1, 3), F(2, 3)), 1.0)
        down = rl.LatticeWalkSpec(1.0, (-1, -3), (F(1, 3), F(2, 3)), 1.0)
        # every step of a one-sided walk is a ladder epoch of its side, so the
        # ladder law is the step law; the other side has only epoch 0
        law = [0.0, 1 / 3, 2 / 3] if mode == "weak-ascending" else [0.0, 1 / 3, 0.0, 2 / 3]
        g, bound = rl.green_function(up if mode == "weak-ascending" else down, mode, 6)
        assert np.abs(g - renewal_sequence(law, 6)).max() <= 1e-14
        assert bound.max() <= 1e-12
        g, _ = rl.green_function(down if mode == "weak-ascending" else up, mode, 6)
        assert g.tolist() == [1.0] + [0.0] * 6

    @pytest.mark.parametrize("mode", BOTH)
    def test_zero_mean_with_inexact_float_mean(self, mode):
        # the exact mean, not its float, decides that z = 1 is a double root
        g, bound = rl.green_function(ZERO_INEXACT, mode, 9)
        assert bound.max() <= 1e-12
        assert np.abs(green_residual(ZERO_INEXACT, mode, g, 6)).max() <= 1e-13
        partial = rl.stay_region_layers(ZERO_INEXACT, 400, mode)[:, :10].sum(axis=0)
        assert (partial <= g).all() and (g - partial)[1:].min() > 1e-3  # a K^{-1/2} tail

    @pytest.mark.parametrize("walk", [P3WALK, ASYM, NEG, ZERO_INEXACT])
    @pytest.mark.parametrize("mode", BOTH)
    def test_solves_the_killed_green_equation(self, walk, mode):
        g, _ = rl.green_function(walk, mode, 12)
        assert np.abs(green_residual(walk, mode, g, 8)).max() <= 1e-13

    def test_rejects_steps_with_a_common_factor(self):
        with pytest.raises(ValueError):
            rl.green_function(rl.LatticeWalkSpec(1.0, (2, -2), (F(1, 2), F(1, 2)), 1.0),
                              "weak-ascending", 3)

    def test_limit_of_partial_layer_sums(self):
        g, bound = rl.green_function(P3WALK, "weak-ascending", 4)

        def partial(K):
            return rl.stay_region_layers(P3WALK, K, "weak-ascending")[:, :5].sum(axis=0)

        p400, p1600 = partial(400), partial(1600)
        # partial sums increase towards the Green values with a K^{-1/2} tail
        assert (p400 <= p1600 + 1e-12).all()
        assert (p1600 <= g + 1e-9).all()
        tails = g - p1600
        ratio = (g - p400) / tails
        assert ((1.4 < ratio) & (ratio < 2.9)).all()
        # Richardson extrapolation under the K^{-1/2} model recovers g
        extrap = p1600 + (p1600 - p400)
        assert np.abs(extrap - g).max() < 0.2 * tails.max() + 2e-3

    def test_dual_green_epoch_zero(self):
        g, _ = rl.green_function(P3WALK, "strict-descending", 3)
        assert g[0] == 1.0
        assert (g[1:] > 0).all()


class TestWalkSpec:
    def test_from_process_infers_lattice(self):
        assert P3WALK.h == 1.0
        assert P3WALK.steps == (-2, -1, 1, 2)

    def test_from_process_rejects_drift(self):
        from levyladder.fixtures import P1

        with pytest.raises(ValueError):
            rl.LatticeWalkSpec.from_process(P1)

    def test_probabilities_must_be_exact(self):
        with pytest.raises(ValueError):
            rl.LatticeWalkSpec(1.0, (1, -1), (F(1, 2), F(49, 100)), 1.0)


def _scaled(spec: ProcessSpec, time: float = 1.0, space: float = 1.0) -> ProcessSpec:
    """``X'_r = space * X_{time * r}``: drift times ``time * space``, rate
    times ``time``, atoms times ``space``."""
    atoms = [(space * v, p) for v, p in zip(spec.jumps.values, spec.jumps.probs)]
    return ProcessSpec(spec.drift * time * space, spec.rate * time, DiscreteAtoms(atoms))


def _catalan_creep(u: float, lam: float) -> float:
    """``p(t, u)`` of P1 for ``u <= t < u + 1``, ``u < 1``: the path can creep
    over ``u`` only at time ``u``, with J back at 0 after 2m jumps that never
    rose above it, which C_m of the 4^m paths do."""
    return math.exp(-lam * u) * sum(
        (lam * u) ** (2 * m) / math.factorial(2 * m) * math.comb(2 * m, m) / (m + 1) / 4**m
        for m in range(60))


# (t, u) points of the paper's theorem: inside the first creeping interval,
# past several breakpoints, and on levels above one lattice step
THEOREM_POINTS = [(0.5, 0.25), (0.5, 0.45), (4.0, 0.5), (1.3, 0.7), (2.5, 1.6), (3.0, 2.25)]


def _killed_jump_matrix(lat: rl.DriftLattice, side: int) -> np.ndarray:
    """The killed jump matrix from its definition: from distance ``x`` a
    step ``a`` lands at ``x + side a``; below 0 it has passed the barrier,
    past ``depth`` it is lost to the absorbing state ``depth + 1``."""
    D = lat.depth
    P = np.zeros((D + 2, D + 2))
    P[D + 1, D + 1] = 1.0
    for x in range(D + 1):
        for a, p in zip(lat.steps, lat.probs):
            if x + side * a >= 0:
                P[x, min(x + side * a, D + 1)] += p
    return P


UP_TWO = ProcessSpec(1.0, 1.0, DiscreteAtoms([(2.0, 0.5), (-1.0, 0.5)]))


class TestDriftLattice:
    lat = rl.DriftLattice(P1)

    @pytest.mark.parametrize("spec", [P1, UP_TWO], ids=["P1", "up-two"])
    @pytest.mark.parametrize("side", [1, -1])
    def test_power_stack_is_the_killed_jump_matrix_power(self, spec, side):
        lat = rl.DriftLattice(spec)
        stack, P = lat._power_stack(side), _killed_jump_matrix(lat, side)
        for n in range(4):
            assert np.abs(stack[n] - np.linalg.matrix_power(P, n)).max() <= 1e-15, n

    def test_weights_are_the_poisson_laws_of_each_offset(self):
        fracs = np.array([0.0, 0.25, 1.0])
        pmf, sf = self.lat._weights(fracs)
        n = np.arange(self.lat.n_terms + 1)
        mu = P1.rate * self.lat.tau * fracs[:, None]
        assert pmf == pytest.approx(stats.poisson.pmf(n, mu), rel=1e-12, abs=1e-300)
        assert sf == pytest.approx(stats.poisson.sf(n, mu) / P1.rate, rel=1e-10, abs=1e-300)

    @pytest.mark.parametrize("u, value", [(0.25, 0.6256832127), (0.45, 0.4491478464)])
    def test_creep_matches_the_catalan_closed_form(self, u, value):
        p, bound = self.lat.creep(u, [0.5, u, u + 0.99])
        assert bound < 1e-15
        assert p == pytest.approx([_catalan_creep(u, P1.rate)] * 3, abs=1e-15)
        assert round(float(p[0]), 10) == value

    def test_creep_equals_the_occupation_derivative(self):
        # d_H d^-_u V(t, u) = p(t, u): two DPs that share no state, one with
        # the barrier above and one below
        for t, u in THEOREM_POINTS:
            (p,), p_bound = self.lat.creep(u, [t])
            _, dV, v_bound = self.lat.occupation([t], [u])
            assert abs(p - dV[0, 0]) <= 1e-14, (t, u)
            assert p_bound + v_bound < 1e-14

    def test_creep_before_the_first_breakpoint_is_zero(self):
        p, _ = self.lat.creep(0.5, [0.0, 0.25, 0.4999])
        assert (p == 0.0).all()

    @pytest.mark.parametrize("time, space", [(2.0, 1.0), (1.0, 0.5), (0.5, 2.0)])
    def test_time_change_and_space_scale(self, time, space):
        # X'_r = space X_{time r}: p'(t, u) = p(time t, u / space),
        # V'(t, w) = V(time t, w / space) / time, d_H' d^-V' = d_H d^-V at
        # (time t, w / space), and Vhat'([0, s], [0, v]) = Vhat at
        # (time s, v / space)
        other = rl.DriftLattice(_scaled(P1, time, space))
        t = np.array([0.3, 1.1, 2.0])
        w = np.array([0.2, 0.5, 0.95])
        p, _ = self.lat.creep(0.7, time * t)
        assert other.creep(0.7 * space, t)[0] == pytest.approx(p, rel=1e-12, abs=1e-15)
        V, dV, _ = self.lat.occupation(time * t, w)
        V2, dV2, _ = other.occupation(t, space * w)
        assert V2 == pytest.approx(V / time, rel=1e-12, abs=1e-15)
        assert dV2 == pytest.approx(dV, rel=1e-12, abs=1e-15)
        s_edges, v_edges = np.array([0.0, 0.5, 1.5, 3.0]), np.array([0.0, 0.3, 0.8, 1.4])
        m = self.lat.dual(time * s_edges, v_edges)[0]
        assert other.dual(s_edges, space * v_edges)[0] == pytest.approx(m, rel=1e-12, abs=1e-15)

    def test_unbounded_horizon_extends_the_finite_tables(self):
        (p4, pinf), bound = self.lat.creep(0.5, [4.0, math.inf])
        assert p4 < pinf < 1.0 and bound < 1e-13
        V, dV, bound = self.lat.occupation([4.0, 60.0, math.inf], [0.25, 0.5])
        assert (V[0] < V[1]).all() and V[2] == pytest.approx(V[1], abs=1e-9)
        assert np.isnan(dV[2]).all() and bound < 1e-13
        s_edges = [0.0, 1.0, 4.0, 60.0]
        v_edges = [0.0, 0.25, 0.5, 1.0]
        m60, b60, _ = self.lat.dual(s_edges, v_edges)
        minf, binf, _ = self.lat.dual(s_edges[:-1] + [math.inf], v_edges)
        assert minf[:-1] == pytest.approx(m60[:-1], abs=1e-15)
        assert 0.0 <= (minf - m60)[-1].sum() < 1e-8 and max(b60, binf) < 1e-12

    def test_dual_origin_and_drop(self):
        # the origin sits in the first cell; the dropped mass is all the
        # measure past the last depth edge: the two add up to the whole
        m, _, dropped = self.lat.dual([0.0, 8.0], [0.0, 1.0])
        m2, _, dropped2 = self.lat.dual([0.0, 8.0], [0.0, 1.0, 3.0])
        assert m[0, 0] > 1.0
        assert m[0, 0] + dropped == pytest.approx(m2.sum() + dropped2, abs=1e-14)

    def test_refusals(self):
        with pytest.raises(ValueError, match="positive drift"):
            rl.DriftLattice(P3)
        with pytest.raises(ValueError, match="atomic jump law"):
            rl.DriftLattice(ProcessSpec(1.0, 1.0, ExponentialJumps(1.0, -1)))
        down = rl.DriftLattice(ProcessSpec(1.0, 2.0, DiscreteAtoms([(-1.0, 1.0)])))
        assert down.mean < 0
        with pytest.raises(ValueError, match="positive mean"):
            down.occupation([math.inf], [0.5])
        with pytest.raises(ValueError, match="positive mean"):
            down.dual([0.0, math.inf], [0.0, 0.5])
        with pytest.raises(ValueError, match="levels"):
            self.lat.occupation([1.0], [-0.1])
