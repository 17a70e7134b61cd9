import dataclasses
import math

import numpy as np
import pytest

from levyladder.fixtures import B1, P1, P2, P3
from levyladder.processes import BivariateSubordinatorSpec, DiscreteAtoms, ProcessSpec
from levyladder.results import concatenate
from levyladder.rng import RngPolicy
from levyladder import passage as pg

POL = RngPolicy(seed=20250808)

PURE_DRIFT = ProcessSpec(drift=1.0, rate=0.0)


class TestFirstPassage:
    def test_pure_drift_creeps_at_u_over_c(self):
        batch = pg.sample_passages(PURE_DRIFT, 0.7, cap=10.0, n=5, policy=POL)
        for i in range(batch.n):
            rec = batch.record(i)
            assert rec.tau == 0.7 and rec.creep
            assert rec.x == 0.0 and rec.v == 0.0 and rec.y == 0.0 and rec.s == 0.0

    def test_pure_drift_censored_beyond_cap(self):
        batch = pg.sample_passages(PURE_DRIFT, 5.0, cap=1.0, n=5, policy=POL)
        for i in range(batch.n):
            rec = batch.record(i)
            assert rec.censored and math.isinf(rec.tau)

    def test_p1_creeps_when_no_jump_intervenes(self):
        # with no jump before time u the record must creep exactly at u
        batch = pg.sample_passages(P1, 0.25, cap=1.0, n=200, policy=POL)
        for i in range(batch.n):
            rec = batch.record(i)
            if rec.creep and rec.tau == 0.25:
                break
        else:
            pytest.fail("no-jump creeping path should appear with probability e^-0.5")

    def test_record_invariants_on_batches(self):
        for spec, u in ((P1, 0.5), (P3, 2.0), (P2, 0.7)):
            batch = pg.sample_passages(spec, u, cap=50.0, n=20000, policy=POL.substream(f"{u}"))
            batch.validate()
            x, v, y, s, t = batch.quintuple()
            assert (y <= np.minimum(u, v) + 1e-15).all()
            assert (x >= 0).all() and (s >= 0).all() and (t >= 0).all()

    def test_spectrally_negative_always_creeps(self):
        batch = pg.sample_passages(P2, 0.7, cap=80.0, n=30000, policy=POL.substream("p2"))
        assert batch.creep[batch.resolved].all()
        assert batch.censored_mass < 0.01

    def test_compound_poisson_never_creeps(self):
        batch = pg.sample_passages(P3, 2.0, cap=500.0, n=20000, policy=POL.substream("p3"))
        assert not batch.creep.any()
        x = batch.x_at[batch.resolved] - 2.0
        assert (x > 0).all()

    def test_determinism_across_workers(self):
        a = pg.sample_passages(P1, 0.5, cap=20.0, n=50000, policy=POL.substream("det"))
        b = pg.sample_passages(P1, 0.5, cap=20.0, n=50000, policy=POL.substream("det"), workers=4)
        np.testing.assert_array_equal(a.tau, b.tau)
        np.testing.assert_array_equal(a.x_at, b.x_at)
        np.testing.assert_array_equal(a.g_before, b.g_before)

    def test_csv_roundtrip(self, tmp_path):
        batch = pg.sample_passages(P1, 0.5, cap=5.0, n=100, policy=POL.substream("csv"))
        batch.to_csv(str(tmp_path / "records.csv"))
        header = (tmp_path / "records.csv").read_text().splitlines()[0]
        assert header == "u,tau,x,v,y,s,t,creep,censored"


def _one_jump_at_a_time(gaps, jumps, u, cap):
    """Scalar reference: the zero-drift passage of one path, jump by jump."""
    sigma = J = M = G = 0.0
    for g, y in zip(gaps, jumps):
        t = sigma + g
        if t > cap:
            return None
        if J == M:
            G = t  # the path departs its maximum at this jump
        if J + y > u:
            return t, J + y, J, M, G
        sigma, J, M = t, J + y, max(M, J + y)
    raise AssertionError("sequence too short to resolve the path")


class TestZeroDriftBlocks:
    U, CAP, L = 2.0, 100.0, 256

    def _sequences(self):
        """Per-path gap and jump sequences: hand-made rows, then random ones."""
        gaps = [np.ones(self.L) for _ in range(6)]  # jump k happens at time k + 1
        jumps = []
        # ties: returns to the maximum 1 before jumps 1, 3 and 5, then passes
        # at jump 7 from 0, so G is the departure time of jump 5
        jumps.append([1.0, -1.0, 1.0, -1.0, 1.0, -2.0, 1.0, 2.5])
        # passage on the last index of a block for B = 7 (6, 13) and B = 2, 64 (63)
        for k in (6, 13, 63):
            walk = [-1.0, 1.0] * (k // 2) + [-1.0] * (k % 2)
            jumps.append(walk + [self.U + 0.5 - sum(walk)])
        # the cap is crossed at the same jump as the level: censored
        jumps.append([-1.0, 1.0] * 10 + [3.0])
        gaps[4][20] = self.CAP
        # jump 99 happens exactly at the cap and passes (strict censoring)
        jumps.append([-1.0, 1.0] * 49 + [-1.0, 3.5])
        jumps = [np.concatenate([j, np.full(self.L - len(j), -1.0)]) for j in jumps]
        rng = np.random.default_rng(7)
        gaps = np.vstack(gaps + [rng.exponential(1.0, (300, self.L))])
        jumps = np.vstack(jumps + [rng.choice([-2.0, -1.0, 1.0, 2.0], (300, self.L))])
        return gaps, jumps

    def _walk(self, gaps, jumps, B):
        out = pg._unresolved(self.U, self.CAP, gaps.shape[0])
        done = [0]

        def draw(active):
            k = done[0]
            done[0] += B
            return gaps[active, k:k + B], jumps[active, k:k + B]

        pg._walk_zero_drift(out, draw)
        return out

    def test_block_size_does_not_change_records(self):
        gaps, jumps = self._sequences()
        one = self._walk(gaps, jumps, 1)
        for B in (2, 7, 64):
            blk = self._walk(gaps, jumps, B)
            for f in ("tau", "x_at", "x_before", "max_before", "g_before", "censored"):
                assert getattr(blk, f).tobytes() == getattr(one, f).tobytes(), (B, f)

    def test_records_match_one_jump_at_a_time(self):
        gaps, jumps = self._sequences()
        out = self._walk(gaps, jumps, 7)
        for i in range(gaps.shape[0]):
            want = _one_jump_at_a_time(gaps[i], jumps[i], self.U, self.CAP)
            assert out.censored[i] == (want is None)
            if want is not None:
                got = out.record(i)
                assert (got.tau, got.x_at, got.x_before, got.max_before, got.g_before) == want
        # hand-made rows: (tau, x_at, x_before, max_before, g_before)
        assert out.record(0) == pg.PassageRecord(self.U, 8.0, 2.5, 0.0, 1.0, 6.0, False)
        for row, k in ((1, 6), (2, 13), (3, 63)):
            assert out.tau[row] == k + 1 and out.x_at[row] == self.U + 0.5
        assert out.censored[4]
        assert out.record(5).tau == self.CAP and not out.censored[5]

    def test_p3_csv_reproducible_across_runs_and_workers(self, tmp_path):
        pol = RngPolicy(seed=20250809, chunk_size=4096)
        texts = []
        for run, workers in enumerate((1, 1, 3)):
            batch = pg.sample_passages(P3, 2.0, cap=2000.0, n=12000, policy=pol, workers=workers)
            path = tmp_path / f"p3_{run}.csv"
            batch.to_csv(str(path))
            texts.append(path.read_bytes())
        assert texts[0] == texts[1] == texts[2]


class TestEstimateP:
    def test_support_gap_is_exactly_zero(self):
        # Example fixture: creeping over 1.5 by time 0.3 requires a fractional
        # net jump count, so no path can do it
        est, _ = pg.estimate_p(P1, 0.3, 1.5, 50000, POL.substream("zero"))
        assert est.value == 0.0

    def test_no_jump_lower_bound(self):
        est, _ = pg.estimate_p(P1, 0.5, 0.25, 50000, POL.substream("lb"))
        assert est.value >= math.exp(-0.5) - 3 * est.se

    def test_compound_poisson_gives_zero(self):
        est, _ = pg.estimate_p(P3, 1.0, 1.0, 2000, POL.substream("cp"))
        assert est.value == 0.0

    def test_monotone_in_t_within_noise(self):
        e1, _ = pg.estimate_p(P1, 0.3, 0.25, 40000, POL.substream("m1"))
        e2, _ = pg.estimate_p(P1, 0.6, 0.25, 40000, POL.substream("m2"))
        assert e1.value <= e2.value + 3 * (e1.se + e2.se)

    def test_markov_inequalities(self):
        # strong-Markov bounds between creep probabilities
        r, s, x, y = 0.3, 0.2, 0.2, 0.2
        n = 60000
        prx, _ = pg.estimate_p(P1, r, x, n, POL.substream("ma"))
        psy, _ = pg.estimate_p(P1, s, y, n, POL.substream("mb"))
        prs_xy, _ = pg.estimate_p(P1, r + s, x + y, n, POL.substream("mc"))
        ps_xy, _ = pg.estimate_p(P1, s, x + y, n, POL.substream("md"))
        band = 3 * (prx.se + psy.se + prs_xy.se + ps_xy.se)
        assert prs_xy.value >= prx.value * psy.value - band
        assert ps_xy.value <= prx.value * psy.value + 1 - prx.value + band


class TestBivPassage:
    def test_pure_drift_deterministic(self):
        spec = BivariateSubordinatorSpec(d_z=0.5, d_y=2.0, q=0.0)
        batch = pg.sample_biv_passages(spec, 1.0, 5, POL.substream(3))
        for i in range(batch.n):
            rec = batch.record(i)
            assert rec.T == 0.5 and rec.y_at == 1.0 and rec.creep
            assert rec.z_before == 0.25 and rec.dz == 0.0

    def test_killing_flag(self):
        spec = BivariateSubordinatorSpec(d_z=0.0, d_y=1.0, q=50.0)
        batch = pg.sample_biv_passages(spec, 5.0, 2000, POL.substream("kill"))
        assert batch.killed.mean() > 0.95

    def test_level_below_smallest_atom(self):
        spec = BivariateSubordinatorSpec(d_z=0.5, d_y=1.0, q=0.0, atoms=B1.atoms)
        batch = pg.sample_biv_passages(spec, 0.5, 20000, POL.substream("small"))
        batch.validate()
        assert (batch.y_before[batch.resolved] <= 0.5).all()

    def test_b1_monitor_never_fires(self):
        batch = pg.sample_biv_passages(B1, 1.5, 100000, POL.substream("mon"))
        assert batch.monitors["biv_z_jump_y_flat"] == 0

    def test_motionless_y_is_censored_unless_killed(self):
        # rate 0 and d_y 0: Y never moves, so only killing resolves a path
        still = pg.sample_biv_passages(BivariateSubordinatorSpec(1.0, 0.0, 0.0), 1.0, 4,
                                       POL.substream("still"), s_cap=2.0)
        assert still.censored.all() and not still.killed.any()
        dying = pg.sample_biv_passages(BivariateSubordinatorSpec(1.0, 0.0, 0.5), 1.0, 4,
                                       POL.substream("still"))
        assert dying.killed.all() and not dying.censored.any()

    def test_dy_zero_without_cap_is_refused(self):
        spec = BivariateSubordinatorSpec(d_z=1.0, d_y=0.0, q=0.0, atoms=((1.0, 0.0, 1.0),))
        with pytest.raises(ValueError):
            pg.sample_biv_passages(spec, 1.0, 10, POL.substream("nope"))


class TestLadderJumps:
    def test_spectrally_negative_jumps_are_time_only(self):
        batch = pg.sample_ladder_jumps(P2, 20000, POL.substream("lj2"), cap=300.0)
        res = ~batch.censored
        assert (batch.dx[res] == 0.0).all()
        assert (batch.ds[res] > 0.0).all()

    def test_positive_jump_at_maximum_gives_space_only(self):
        batch = pg.sample_ladder_jumps(P1, 40000, POL.substream("lj1"))
        res = ~batch.censored
        instant = res & (batch.ds == 0.0)
        assert (batch.dx[instant] == 1.0).all()
        frac = instant.mean()
        assert abs(frac - 0.5) <= 3 * math.sqrt(0.25 / batch.n)

    def test_censoring_reported_for_drifting_down_excursions(self):
        # mean-negative fixture: some excursions never return
        spec = ProcessSpec(
            drift=0.2, rate=1.0,
            jumps=DiscreteAtoms([(-2.0, 0.75), (1.0, 0.25)]),
        )
        batch = pg.sample_ladder_jumps(spec, 5000, POL.substream("cens"), cap=50.0)
        assert batch.censored_mass > 0.1


class TestAlpha:
    def test_immediate_return_triple(self):
        batch = pg.sample_alpha(P3, 20000, POL.substream("al"))
        up = ~batch.censored & (batch.v == 0.0)
        assert (batch.s[up] == 0.0).all()
        assert (batch.x[up] > 0.0).all()

    def test_requires_compound_poisson(self):
        with pytest.raises(ValueError):
            pg.sample_alpha(P1, 10, POL.substream("no"))

    def test_censoring_for_transient_walk(self):
        spec = ProcessSpec(
            drift=0.0, rate=1.0,
            jumps=DiscreteAtoms([(-2.0, 2 / 3), (1.0, 1 / 3)]),
        )
        batch = pg.sample_alpha(spec, 5000, POL.substream("trans"), time_cap=40.0)
        assert batch.censored_mass > 0.05

    def test_kappa_from_ladder_matches_known_value(self):
        # P2: kappa(a, 0) = drift * Phi(a) with psi(Phi(a)) = a
        from scipy.optimize import brentq

        batch = pg.sample_ladder_jumps(P2, 60000, POL.substream("kap"), cap=300.0)
        for a in (0.5, 2.0):
            est = pg.kappa_from_ladder(P2, batch, a, 0.0)
            phi = brentq(lambda th: th - 0.5 * th / (1 + th) - a, a, a + 10)
            assert abs(est.value - phi) <= 3 * est.se + est.bias_bound


def _batch_parts(cls):
    """Three parts of ``cls`` with distinct arrays, scalars and monitors."""
    parts = []
    for k, m in enumerate((2, 3, 1)):
        values = {}
        for f in dataclasses.fields(cls):
            if f.name == "monitors":
                values[f.name] = {"a": k + 1, f"only{k}": 10 * k}
            elif f.type in ("np.ndarray", np.ndarray):
                values[f.name] = np.arange(m, dtype=float) + 100 * k
            else:
                values[f.name] = 0.5 + k
        parts.append(cls(**values))
    return parts


@pytest.mark.parametrize("cls", [pg.PassageBatch, pg.SubPassageBatch,
                                 pg.LadderJumpBatch, pg.AlphaBatch])
def test_concatenate_joins_arrays_sums_monitors_keeps_first_scalars(cls):
    parts = _batch_parts(cls)
    out = concatenate(parts)
    assert type(out) is cls
    for f in dataclasses.fields(cls):
        got = getattr(out, f.name)
        if f.name == "monitors":
            assert got == {"a": 6, "only0": 0, "only1": 10, "only2": 20}
        elif isinstance(got, np.ndarray):
            assert got.tolist() == [0.0, 1.0, 100.0, 101.0, 102.0, 200.0]
        else:
            assert got == 0.5  # scalars come from the first part
    if any(f.name == "monitors" for f in dataclasses.fields(cls)):
        assert parts[0].monitors == {"a": 1, "only0": 0}  # inputs left as they were
