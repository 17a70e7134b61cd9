import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from levyladder import rw_ladder as rl
from levyladder.fixtures import P3

F = Fraction

SYMM = rl.LatticeWalkSpec(1.0, (1, -1), (F(1, 2), F(1, 2)), 1.0)
ASYM = rl.LatticeWalkSpec(1.0, (-1, 1, 2), (F(1, 2), F(1, 4), F(1, 4)), 1.0)
P3WALK = rl.LatticeWalkSpec.from_process(P3)


class TestLadderEpochs:
    def test_weak_tie_handling(self):
        assert rl.ladder_epochs([0, 1, 1], "weak-ascending") == [(1, 1), (2, 1)]

    def test_hand_enumeration(self):
        path = [0, -1, 1, 0]
        assert rl.ladder_epochs(path, "weak-ascending") == [(2, 1)]
        assert rl.ladder_epochs(path, "strict-descending") == [(1, 1)]

    def test_strictly_decreasing_path_has_no_ascents(self):
        assert rl.ladder_epochs([0, -1, -2, -3], "weak-ascending") == []

    def test_requires_start_at_zero(self):
        with pytest.raises(ValueError):
            rl.ladder_epochs([1, 2], "weak-ascending")

    @given(st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_strict_subset_of_weak_and_characterisation(self, steps):
        path = [0]
        for y in steps:
            path.append(path[-1] + y)
        weak = {k for k, _ in rl.ladder_epochs(path, "weak-ascending")}
        strict = {k for k, _ in rl.ladder_epochs(path, "strict-ascending")}
        assert strict <= weak
        # implementation lemma: chained definition == running-extremum test
        assert weak == {k for k in range(1, len(path)) if path[k] >= max(path[:k])}
        desc = {k for k, _ in rl.ladder_epochs(path, "strict-descending")}
        assert desc == {k for k in range(1, len(path)) if path[k] < min(path[:k])}


class TestTables:
    def test_symmetric_single_step(self):
        t = rl.renewal_tables(SYMM, 3)
        assert t.u(1, 0.5) == 0.0
        assert t.u(1, 1.0) == 0.5
        assert t.u(0, 0.0) == 1.0  # epoch-0 term

    def test_symmetric_two_step_enumeration(self):
        t = rl.renewal_tables(SYMM, 2)
        assert t.u(2, 0.0) == 0.25
        assert t.u(2, 2.0) == 0.5

    def test_dp_equals_brute_force_exactly(self):
        for spec, K in ((SYMM, 8), (ASYM, 6), (P3WALK, 5)):
            dp = rl.renewal_tables(spec, K)
            bf = rl.brute_force_tables(spec, K)
            assert dp.u_layers == bf.u_layers
            assert dp.uhat_layers == bf.uhat_layers

    def test_reversal_recursion_agrees_with_dp(self):
        dp = rl.renewal_tables(P3WALK, 8)
        asc = rl.stay_region_layers(P3WALK, 8, "weak-ascending")
        desc = rl.stay_region_layers(P3WALK, 8, "strict-descending")
        for k in range(9):
            for w, m in dp.u_layers[k].items():
                assert asc[k].get(w, 0.0) == pytest.approx(float(m), abs=1e-14)
            for w, m in dp.uhat_layers[k].items():
                assert desc[k].get(w, 0.0) == pytest.approx(float(m), abs=1e-14)

    def test_symmetric_walk_strict_modes_mirror(self):
        up = rl.stay_region_layers(P3WALK, 6, "strict-ascending")
        down = rl.stay_region_layers(P3WALK, 6, "strict-descending")
        for lu, ld in zip(up, down):
            assert set(lu) == set(ld)
            for w in lu:
                assert lu[w] == pytest.approx(ld[w], abs=1e-15)

    def test_state_space_guard(self):
        with pytest.raises(MemoryError):
            rl.renewal_tables(P3WALK, 30, max_states=10)

    def test_csv_export(self, tmp_path):
        t = rl.renewal_tables(SYMM, 3)
        path = tmp_path / "tables.csv"
        t.to_csv(str(path))
        text = path.read_text().splitlines()
        assert text[0] == "k,j,U,Uhat"
        assert len(text) > 4


class TestErlangMixing:
    def test_poisson_sf_matches_scipy(self):
        for mu in (0.3, 2.0, 40.0, 2000.0):
            sf = rl.poisson_sf(mu, 12)
            for k in range(1, 13):
                assert sf[k] == pytest.approx(float(special.gammainc(k, mu)), rel=1e-10, abs=1e-13)
            assert sf[0] == 1.0

    def test_poisson_tail_mean_direct_sum(self):
        mu, j = 3.0, 5
        direct = sum(
            (k - j) * math.exp(-mu) * mu**k / math.factorial(k) for k in range(j, 60)
        )
        assert rl.poisson_tail_mean(mu, j) == pytest.approx(direct, rel=1e-10)

    def test_vhat_at_zero_column_is_one(self):
        t = rl.renewal_tables(P3WALK, 14)
        for tt in (0.1, 0.5, 2.0):
            val, bound = rl.vhat_exact(t, 1.0, tt, 0.0)
            assert val == pytest.approx(1.0, abs=1e-12)
            assert bound < 1e-6

    def test_v_monotone_in_t_and_x(self):
        t = rl.renewal_tables(P3WALK, 14)
        v1, _ = rl.v_exact(t, 1.0, 0.5, 1.0)
        v2, _ = rl.v_exact(t, 1.0, 1.5, 1.0)
        v3, _ = rl.v_exact(t, 1.0, 1.5, 3.0)
        assert v1 <= v2 <= v3

    def test_vhat_converges_to_full_renewal_function(self):
        K = 40
        t = rl.renewal_tables(P3WALK, K, exact=False)
        big_t, bound = rl.vhat_exact(t, 1.0, 30.0, 2.0)
        total = sum(t.uhat(k, 2.0) for k in range(K + 1))
        assert big_t <= total + 1e-9
        assert big_t == pytest.approx(total, abs=bound + 0.06)

    def test_poisson_index_cap_against_poisson_sf(self):
        # the geometric bound certifies the cap; it overshoots the smallest
        # index with P(N >= k) <= tail by at most one
        tail = 1e-15
        for mu in (1e-20, 0.3, 1.0, 2.0, 40.0, 2000.0, 5e4):
            k = rl.poisson_index_cap(mu, tail)
            sf = rl.poisson_sf(mu, k)
            assert sf[k] <= tail
            assert k < 2 or sf[k - 2] > tail
        assert rl.poisson_index_cap(0.0, tail) == 1

    def test_truncation_depth_bound_holds(self):
        K = rl.truncation_depth(1.0, 2.0, 1e-10)
        assert rl.poisson_tail_mean(2.0, K) < 1e-10


class TestGreen:
    def test_limit_of_partial_layer_sums(self):
        g, bound = rl.green_function(P3WALK, "weak-ascending", 4, ceiling=2048)

        def partial(K):
            out = np.zeros(5)
            for layer in rl.stay_region_layers(P3WALK, K, "weak-ascending"):
                for w, m in layer.items():
                    if w <= 4:
                        out[w] += m
            return out

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

    def test_ceiling_must_dominate_heights(self):
        with pytest.raises(ValueError):
            rl.green_function(P3WALK, "weak-ascending", 100, ceiling=128)


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
