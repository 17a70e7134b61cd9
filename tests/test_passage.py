import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from levyladder.fixtures import B1, P1, P2, P3
from levyladder.processes import BivariateSubordinatorSpec, DiscreteAtoms, ProcessSpec
from levyladder.results import CHECK_FAIL_RATE, Moments, join_chunks, verdict
from levyladder.rng import RngPolicy
from levyladder import passage as pg
from levyladder import processes
from levyladder import rw_ladder as rl

POL = RngPolicy(seed=20250808)
# False-FAIL rate of one row at 3 SE, for the tests written against that budget
THREE_SE = math.erfc(3 / math.sqrt(2))

PURE_DRIFT = ProcessSpec(drift=1.0, rate=0.0)


class TestFirstPassage:
    def test_pure_drift_creeps_at_u_over_c(self):
        batch = pg.sample_passages(PURE_DRIFT, 0.7, cap=10.0, n=5, policy=POL)
        assert (batch.tau == 0.7).all() and batch.creep.all() and batch.resolved.all()
        for coord in batch.quintuple()[:4]:  # x, v, y, s
            assert (coord == 0.0).all()

    def test_pure_drift_censored_beyond_cap(self):
        batch = pg.sample_passages(PURE_DRIFT, 5.0, cap=1.0, n=5, policy=POL)
        assert batch.censored.all() and np.isinf(batch.tau).all()

    def test_p1_creeps_when_no_jump_intervenes(self):
        # with no jump before time u the record must creep exactly at u; such
        # a path appears with probability e^-0.5
        batch = pg.sample_passages(P1, 0.25, cap=1.0, n=200, policy=POL)
        assert (batch.creep & (batch.tau == 0.25)).any()

    def test_record_invariants_on_batches(self):
        for spec, u in ((P1, 0.5), (P3, 2.0), (P2, 0.7)):
            batch = pg.sample_passages(spec, u, cap=50.0, n=20000, policy=POL.substream(f"{u}"))
            batch.validate()
            x, v, y, s, t = batch.quintuple()
            assert (y <= np.minimum(u, v) + 1e-15).all()
            assert (x >= 0).all() and (s >= 0).all() and (t >= 0).all()

    def test_validate_refuses_each_violation_on_a_resolved_record(self):
        # one resolved record (u = 2): passage by a jump from 1 to 3 after a
        # maximum of 1.5 left at t = 1, at tau = 2; and one censored record
        # with every field unset, which validates
        def batch(**fields):
            rec = dict(tau=2.0, x_at=3.0, x_before=1.0, max_before=1.5, g_before=1.0,
                       creep=False)
            rec.update(fields)
            out = pg._unresolved(2.0, 10.0, 2)
            out.censored[1] = True
            for name, value in rec.items():
                getattr(out, name)[0] = value
            return out

        batch().validate()
        # each record breaks one of the seven invariants
        violations = [
            dict(x_before=1e-17, max_before=0.0, x_at=2.5),  # x_before > max_before
            dict(max_before=2.5),                            # max_before > u
            dict(x_at=1.9),                                  # x < 0
            dict(x_before=-1.0, max_before=-0.5, x_at=2.5),  # max_before < 0
            dict(tau=0.5),                                   # s < 0
            dict(tau=-0.5, g_before=-1.0),                   # t < 0
            dict(creep=True),                                # creeps off the level
        ]
        for fields in violations:
            with pytest.raises(RuntimeError, match="quintuple support"):
                batch(**fields).validate()

    def test_spectrally_negative_always_creeps(self):
        batch = pg.sample_passages(P2, 0.7, cap=80.0, n=30000, policy=POL.substream("p2"))
        assert batch.creep[batch.resolved].all()
        assert batch.censored_mass < 0.01

    def test_compound_poisson_never_creeps(self):
        batch = pg.sample_passages(P3, 2.0, cap=500.0, n=20000, policy=POL.substream("p3"))
        assert not batch.creep.any()
        x = batch.x_at[batch.resolved] - 2.0
        assert (x > 0).all()



def _cell_rows(p, q, n):
    """Verdict rows comparing two cell laws, each read from ``n`` samples:
    one per cell with ``n (p + q) / 2 >= 30`` (the live ones) and one for
    the pooled rest, as ``(|p - q|, se)``.  Returns ``(live, rows)``."""
    live = (p + q) * n / 2 >= 30
    rows = [(abs(a - b), math.sqrt((a * (1 - a) + b * (1 - b)) / n))
            for a, b in zip(p[live], q[live])]
    rest_p, rest_q = p[~live].sum(), q[~live].sum()
    rows.append((abs(rest_p - rest_q),
                 math.sqrt((rest_p * (1 - rest_p) + rest_q * (1 - rest_q)) / n)))
    return live, rows


def _one_jump_at_a_time(gaps, jumps, u, cap):
    """Scalar reference: the zero-drift passage of one path, jump by jump.

    Returns ``(tau, x_at, x_before, max_before, g_before, K, G)``, with ``K``
    the index of the passage jump and ``G`` that of the jump leaving the
    last maximum, or None when the path is censored at ``cap``.
    """
    sigma = J = M = g_before = 0.0
    G = 0
    for k, (g, y) in enumerate(zip(gaps, jumps), 1):
        t = sigma + g
        if t > cap:
            return None
        if J == M:
            g_before, G = t, k  # the path departs its maximum at this jump
        if J + y > u:
            return t, J + y, J, M, g_before, k, G
        sigma, J, M = t, J + y, max(M, J + y)
    raise AssertionError("sequence too short to resolve the path")


def _unit_clock(K, G):
    """Times of a walk whose k-th jump happens at time k."""
    return G.astype(float), (K - G).astype(float)


class TestZeroDriftBlocks:
    # with the unit clock, passage at jump K happens at time K: the index
    # cap K_CAP censors passages after jump 101, the time cap those at 101
    U, CAP, K_CAP, L = 2.0, 100.0, 101, 256

    def _sequences(self):
        """Per-path jump sequences: hand-made rows, then random ones."""
        def passing_at(k):
            walk = [-1.0, 1.0] * ((k - 1) // 2) + [-1.0] * ((k - 1) % 2)
            return walk + [self.U + 0.5 - sum(walk)]

        # ties: the walk sits at its maximum 1 after jumps 1, 3 and 5, so
        # jumps 2, 4 and 6 depart from it; it passes at jump 8 from 0
        jumps = [[1.0, -1.0, 1.0, -1.0, 1.0, -2.0, 1.0, 2.5]]
        # passage on the last index of a block for B = 7 (7, 14) and B = 2, 64
        # (64); then at jumps 101 (censored by the time cap), 100 (at the
        # time cap exactly: passes, the censoring is strict) and 102 (past
        # K_CAP)
        jumps += [passing_at(k) for k in (7, 14, 64, 101, 100, 102)]
        jumps = [np.concatenate([j, np.full(self.L - len(j), -1.0)]) for j in jumps]
        rng = np.random.default_rng(7)
        return np.vstack(jumps + [rng.choice([-2.0, -1.0, 1.0, 2.0], (300, self.L))])

    def _walk(self, jumps, B):
        out = pg._unresolved(self.U, self.CAP, jumps.shape[0])
        done = [0]

        def draw(active, most):
            k = done[0]
            done[0] += B
            return jumps[active, k:k + B]

        pg._walk_zero_drift(out, draw, _unit_clock, self.K_CAP)
        return out

    def test_block_size_does_not_change_records(self):
        jumps = self._sequences()
        one = self._walk(jumps, 1)
        for B in (2, 7, 64):
            blk = self._walk(jumps, B)
            for f in ("tau", "x_at", "x_before", "max_before", "g_before", "censored"):
                assert getattr(blk, f).tobytes() == getattr(one, f).tobytes(), (B, f)

    def test_records_match_one_jump_at_a_time(self):
        jumps = self._sequences()
        out = self._walk(jumps, 7)
        gaps = np.ones(self.L)
        fields = np.column_stack([out.tau, out.x_at, out.x_before, out.max_before, out.g_before])
        for i in range(jumps.shape[0]):
            want = _one_jump_at_a_time(gaps, jumps[i], self.U, self.CAP)
            assert out.censored[i] == (want is None)
            if want is not None:
                assert tuple(fields[i]) == want[:5]
        # hand-made rows: (tau, x_at, x_before, max_before, g_before)
        assert tuple(fields[0]) == (8.0, 2.5, 0.0, 1.0, 6.0)
        assert not out.creep[0] and not out.censored[0]
        for row, k in ((1, 7), (2, 14), (3, 64)):
            assert out.tau[row] == k and out.x_at[row] == self.U + 0.5
        assert out.censored[4] and out.censored[6]
        assert out.tau[5] == self.CAP and not out.censored[5]

    def test_law_matches_one_jump_at_a_time_with_exp_gaps(self, monkeypatch):
        # the engine draws the times from the Erlang embedding after the
        # walk; the reference steps Exp(1) gaps and jumps together.  Compare
        # their laws of (K, G, s, t) on cells, plus the censored mass.
        n, cap = 20000, 20.0
        seen = []
        walk = pg._walk_zero_drift

        def spy(out, draw, times, k_cap, leap=None):
            def timed(K, G):
                t, s = times(K, G)
                ok = t + s <= cap
                seen.append((K[ok], G[ok], s[ok], t[ok]))
                return t, s
            walk(out, draw, timed, k_cap, leap)

        monkeypatch.setattr(pg, "_walk_zero_drift", spy)
        batch = pg.sample_passages(P3, self.U, cap, n, POL.substream("law"))
        engine = [np.concatenate(c) for c in zip(*seen)]
        assert engine[0].size == int(batch.resolved.sum())

        rng = POL.substream("law-ref").stream(0)
        gaps = rng.exponential(1.0, (n, 80))
        steps = P3.sample_jumps(rng, n * 80).reshape(n, 80)
        recs = [r for r in (_one_jump_at_a_time(gaps[i], steps[i], self.U, cap)
                            for i in range(n)) if r is not None]
        ref = [np.array([r[5] for r in recs]), np.array([r[6] for r in recs]),
               np.array([r[0] - r[4] for r in recs]), np.array([r[4] for r in recs])]

        def cells(K, G, s, t):
            idx = (np.searchsorted([2, 3, 5, 9, 17], K, side="right") * 4
                   + np.searchsorted([2, 3, 5], G, side="right")) * 4
            idx = (idx + np.searchsorted([0.0, 1.0, 4.0], s)) * 3 + np.searchsorted([1.0, 3.0], t)
            counts = np.bincount(idx, minlength=6 * 4 * 4 * 3)
            return np.append(counts, n - K.size) / n  # last cell: censored

        p, q = cells(*engine), cells(*ref)
        live, rows = _cell_rows(p, q, n)
        dist, budget = verdict(rows, THREE_SE)
        assert live.sum() >= 20
        assert dist <= budget, (dist, budget)

    def test_p3_csv_reproducible_across_runs_and_workers(self):
        # every array of the batch, byte for byte: the bytes any CSV of it holds
        pol = RngPolicy(seed=20250809, chunk_size=4096)
        runs = []
        for _ in range(3):
            batch = pg.sample_passages(P3, 2.0, cap=2000.0, n=12000, policy=pol)
            runs.append([getattr(batch, f.name).tobytes() for f in dataclasses.fields(batch)
                         if isinstance(getattr(batch, f.name), np.ndarray)])
        assert len(runs[0]) == 8
        assert runs[0] == runs[1] == runs[2]


_WALK = pg._walk_zero_drift  # the engine itself, whatever a test patches in


class TestZeroDriftLeap:
    """The leaping engine against the block stepper: the law of (K, G, x, v,
    y) on cells, plus the mass censored at the index cap.  The spy gives
    every passed path time 0, so only the index cap censors."""

    U, CAP, N = 2.0, 200.0, 20000

    def _records(self, monkeypatch, stream, leaping):
        seen = []

        def spy(out, draw, times, k_cap, leap=None):
            def untimed(K, G):
                seen.append((K, G))
                return np.zeros(K.size), np.zeros(K.size)
            _WALK(out, draw, untimed, k_cap, leap if leaping else None)

        monkeypatch.setattr(pg, "_walk_zero_drift", spy)
        batch = pg.sample_passages(P3, self.U, self.CAP, self.N, POL.substream(stream))
        K, G = (np.concatenate(c) for c in zip(*seen))
        x, v, y, _, _ = batch.quintuple()
        assert K.size == x.size == int(batch.resolved.sum())
        return (K, G, x, v, y), batch.censored_mass

    def _verdict(self, monkeypatch):
        (K, G, x, v, y), cens = self._records(monkeypatch, "leap", True)
        ref, ref_cens = self._records(monkeypatch, "leap-ref", False)
        n = self.N

        def cells(K, G, x, v, y):
            idx = np.searchsorted([2, 3, 5, 9, 33, 129], K, side="right") * 4
            idx = (idx + np.searchsorted([2, 4, 17], G, side="right")) * 2 + (x == 2.0)
            idx = (idx * 2 + (v == 1.0)) * 3 + np.searchsorted([0.5, 1.5], y)
            return np.bincount(idx, minlength=7 * 4 * 2 * 2 * 3) / n

        p, q = np.append(cells(K, G, x, v, y), cens), np.append(cells(*ref), ref_cens)
        live, rows = _cell_rows(p, q, n)
        assert live.sum() >= 25 and live[-1]  # the censored cell is live
        return verdict(rows, THREE_SE)

    @pytest.mark.parametrize("leap_min", [pg.LEAP_MIN, 1])
    def test_law_matches_the_block_stepper(self, monkeypatch, leap_min):
        # leap_min 1 leaps wherever a walk can take one jump without
        # reaching its maximum
        monkeypatch.setattr(pg, "LEAP_MIN", leap_min)
        dist, budget = self._verdict(monkeypatch)
        assert dist <= budget, (dist, budget)

    def test_leaping_one_jump_too_far_fails(self, monkeypatch):
        # fault: ceil(d / m) jumps, one more than is safe, so a leap can
        # reach or pass the maximum (and the level) without recording it;
        # the batch's own support check would refuse such records first
        monkeypatch.setattr(pg.PassageBatch, "validate", lambda self: None)
        monkeypatch.setattr(pg, "LEAP_MIN", 1)
        monkeypatch.setattr(pg, "_leap_length", lambda depth, top: -(-depth // top))
        dist, budget = self._verdict(monkeypatch)
        assert dist > 3 * budget, (dist, budget)

    def test_leap_length_stays_below_the_maximum(self):
        depth = np.arange(0, 13)
        B = pg._leap_length(depth, 2)
        assert B.tolist() == [-1, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
        assert ((B * 2 < depth) | (B < 0)).all() and ((B + 1) * 2 >= depth).all()

    def test_leaping_one_jump_short_fails(self, monkeypatch):
        # fault: a leap of B jumps adds the sum of B - 1 (row B - 1 of the
        # table, the empty sum for B = 1) and still counts B.  Where every
        # leap is long (LEAP_MIN 8) this comparison cannot see it at N; at
        # LEAP_MIN 1 it must
        leaper = pg._leaper

        def short(law, rng):
            top, sums = leaper(law, rng)
            return top, lambda B: sums(B - 1)

        monkeypatch.setattr(pg, "_leaper", short)
        monkeypatch.setattr(pg, "LEAP_MIN", 1)
        dist, budget = self._verdict(monkeypatch)
        assert dist > 3 * budget, (dist, budget)

    def test_only_integer_laws_with_an_up_step_leap(self, monkeypatch):
        rng = np.random.default_rng(0)
        top, sums = pg._leaper(P3.jumps, rng)
        assert top == 2
        B = np.array([8, 100, pg.LEAP_MAX])
        total = sums(B)
        assert (total == np.round(total)).all() and (np.abs(total) <= 2 * B).all()
        assert pg._leaper(DiscreteAtoms([(0.5, 0.5), (-1.0, 0.5)]), rng) is None
        assert pg._leaper(DiscreteAtoms([(-1.0, 0.5), (-2.0, 0.5)]), rng) is None
        assert pg._leaper(P2.jumps, rng) is None
        assert pg._leaper(DiscreteAtoms([(-15.0, 0.5), (1.0, 0.5)]), rng) is not None
        assert pg._leaper(DiscreteAtoms([(-16.0, 0.5), (1.0, 0.5)]), rng) is None  # too wide

        # the walk never asks for a leap longer than the table's last row,
        # though its deepest walks could take more jumps at once
        asked = []
        leaper = pg._leaper

        def spy(law, rng):
            top, sums = leaper(law, rng)
            return top, lambda B: asked.append(B.max()) or sums(B)

        monkeypatch.setattr(pg, "_leaper", spy)
        pg.sample_passages(P3, 2.0, 1e6, 1024, POL.substream("deep"))
        assert max(asked) == pg.LEAP_MAX


def _table_row(law, B):
    """Row ``B`` of the leap table: its kept keys, less the row offset, over
    ``2**53`` (the CDF at each kept sum), and the smallest kept sum."""
    keys, base = pg._leap_table(law)
    pos = np.flatnonzero((keys - 1) >> 53 == B)
    return (keys[pos] - (B << 53)) / 2.0**53, int(pos[0] + base[B])


def _exact_cdf(law, B):
    """The CDF of the sum of ``B`` jumps in exact rationals, ``{sum: cdf}``."""
    law_pmf = {0: Fraction(1)}
    for _ in range(B):
        nxt = {}
        for x, p in law_pmf.items():
            for v, q in zip(law.values, law.probs):
                nxt[x + int(v)] = nxt.get(x + int(v), 0) + p * q
        law_pmf = nxt
    return dict(zip(sorted(law_pmf), itertools.accumulate(law_pmf[x] for x in sorted(law_pmf))))


class _Uniforms:
    """A generator stand-in whose ``random`` serves the given uniforms."""

    def __init__(self, w):
        self.w = w

    def random(self, size):
        assert size == self.w.size
        return self.w


SKEWED = DiscreteAtoms([(-3.0, Fraction(1, 2)), (1.0, Fraction(1, 3)), (4.0, Fraction(1, 6))])


class TestLeapTable:
    """The table of the law of a sum of B jumps against exact convolution,
    against the per-row cell lookup, and in law against multinomial sums."""

    @pytest.mark.parametrize("law", [P3.jumps, SKEWED], ids=["P3", "skewed"])
    @pytest.mark.parametrize("B", [8, 9, 64])
    def test_rows_match_exact_convolution(self, law, B):
        cdf, first = _table_row(law, B)
        worst = 0.0
        for x, c in _exact_cdf(law, B).items():
            i = x - first  # kept sums at most x: 0..i
            table = 0.0 if i < 0 else 1.0 if i >= cdf.size else cdf[i]
            worst = max(worst, abs(table - float(c)))
        assert worst <= 1e-15, worst

    def test_rows_hold_only_what_a_uniform_reaches(self):
        # each row starts past its left tail at or below 2**-53 and ends at
        # its first entry of 1; P3's table stays under 2 MB
        keys, base = pg._leap_table(P3.jumps)
        row = (keys - 1) >> 53
        cdf = keys - (row << 53)
        starts = np.searchsorted(row, np.arange(1, pg.LEAP_MAX + 1))
        first, last = cdf[starts], cdf[starts[1:] - 1]
        assert (first > 1).all() and (last < 2**53).all() and (np.diff(keys) >= 0).all()
        assert keys.nbytes < 2e6 and base.size == pg.LEAP_MAX + 1

    @pytest.mark.parametrize("law", [P3.jumps, SKEWED], ids=["P3", "skewed"])
    @pytest.mark.parametrize("B", [8, 37, pg.LEAP_MAX])
    def test_lookup_is_the_cell_index_of_its_row(self, law, B):
        # the full float row, cumulated and normalised as the table's
        vals = np.asarray(law.values, dtype=np.int64)
        pmf = np.zeros(vals.max() - vals.min() + 1)
        pmf[vals - vals.min()] = law.probs_float
        row = np.ones(1)
        for _ in range(B):
            row = np.convolve(row, pmf)
        cdf = np.cumsum(row)
        cdf /= cdf[-1]
        lo = B * int(vals.min())
        # 53-bit uniforms on each entry (P3's rows are dyadic to B = 26, so
        # the entry itself) and one step of 2**-53 below it
        on = np.ceil(cdf * 2.0**53) / 2.0**53
        if law is P3.jumps and B < 27:
            assert (on == cdf).all()
        w = np.unique(np.concatenate([on, on - 2.0**-53]))
        w = w[(w > 0) & (w < 1)]
        _, sums = pg._leaper(law, _Uniforms(w))
        want = lo + processes._cell_index(cdf[:-1], w)
        assert (sums(np.full(w.size, B)) == want).all()
        # w = 0 falls below the cut left tail, on the first kept sum
        _, sums = pg._leaper(law, _Uniforms(np.zeros(1)))
        assert sums(np.array([B]))[0] == _table_row(law, B)[1]

    N = 200000

    def _verdict(self, B, served):
        """Sums of ``served`` jumps from the table against multinomial sums
        of ``B`` jumps, on their sums' cells, each on its own substream."""
        n, law = self.N, P3.jumps
        _, sums = pg._leaper(law, POL.substream(f"table-{served}").stream(0))
        got = sums(np.full(n, served))
        ref = (POL.substream(f"multinomial-{B}").stream(0).multinomial(B, law.probs_float, n)
               @ np.asarray(law.values))
        lo, hi = min(got.min(), ref.min()), max(got.max(), ref.max())
        p, q = (np.bincount((a - lo).astype(np.int64), minlength=int(hi - lo) + 1) / n
                for a in (got, ref))
        live, rows = _cell_rows(p, q, n)
        assert live.sum() >= 10
        return verdict(rows, CHECK_FAIL_RATE)

    @pytest.mark.parametrize("B", [8, 37, pg.LEAP_MAX])
    def test_sums_match_multinomial_sums_in_law(self, B):
        dist, budget = self._verdict(B, B)
        assert dist <= budget, (dist, budget)

    def test_row_b_minus_one_fails(self):
        # fault: row 7 served for 8 jumps; a jump short is 1/8 of the
        # variance here (at 37 and 512 it is too little for this n)
        dist, budget = self._verdict(8, 7)
        assert dist > budget, (dist, budget)


class TestEstimateP:
    def test_support_gap_is_exactly_zero(self):
        # Example fixture: creeping over 1.5 by time 0.3 requires a fractional
        # net jump count, so no path can do it
        est, _ = pg.estimate_p(P1, 0.3, 1.5, 50000, POL.substream("zero"))
        assert est.value == 0.0

    def test_no_jump_lower_bound(self):
        est, _ = pg.estimate_p(P1, 0.5, 0.25, 50000, POL.substream("lb"))
        assert est.value >= math.exp(-0.5) - 3 * est.se

    @pytest.mark.parametrize("u", [1.3, 2.3])
    def test_creep_atom_at_the_horizon_counts(self, u):
        # P1 creeps over u at the times u - k, and u - 1 resp. u - 2 is t =
        # 0.3; in floats 1.3 - 1.0 = 0.30000000000000004 lies above it
        n = 50000
        est, _ = pg.estimate_p(P1, 0.3, u, n, POL.substream(f"atom{u}"))
        (p,), bound = rl.DriftLattice(P1, reach=u).creep(u, [0.3])
        assert p == pytest.approx({1.3: 0.1696386974, 2.3: 0.0252572215}[u], abs=1e-10)
        distance, budget = verdict([(abs(est.value - p), math.sqrt(p * (1 - p) / n), bound)],
                                   CHECK_FAIL_RATE)
        assert distance <= budget

    def test_no_paths_is_a_value_error_that_names_n(self):
        # the fold over no records once divided by zero
        with pytest.raises(ValueError, match="n must be positive"):
            pg.estimate_p(P1, 0.3, 0.5, 0, RngPolicy(1))

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


class _Script:
    """Stands in for one path's generator: hands out the given gaps, and
    uniforms that make P1's jump law return the given jumps (+-1)."""

    def __init__(self, gaps, jumps):
        self.gaps, self.jumps = list(gaps), list(jumps)

    def exponential(self, scale, size):
        return np.array([self.gaps.pop(0) for _ in range(size)])

    def random(self, size):
        return np.array([0.75 if self.jumps.pop(0) > 0 else 0.25 for _ in range(size)])


class TestSharedWalk:
    # the levels of demos/full_suite.json, at t = 0.3
    LEVELS = (0.1, 0.2, 0.3, 0.5, 0.8, 1.1, 1.2, 1.3, 1.5, 2.0, 2.2, 2.3)

    def test_top_level_is_the_single_level_estimate(self):
        pol = POL.substream("share")
        ests, mon = pg.estimate_p(P1, 0.3, self.LEVELS, 20000, pol)
        est, mon1 = pg.estimate_p(P1, 0.3, 2.3, 20000, pol)
        assert ests[-1] == est and mon == mon1
        # the lower levels add no draws: every record keeps its bytes
        cap = pg._closed(0.3)
        a = pg.sample_passages(P1, 2.3, cap, 20000, pol)
        b = pg.sample_passages(P1, 2.3, cap, 20000, pol, below=self.LEVELS[:-1])
        for f in dataclasses.fields(a):
            if f.name != "level_creep" and isinstance(getattr(a, f.name), np.ndarray):
                assert getattr(a, f.name).tobytes() == getattr(b, f.name).tobytes()
        assert a.level_creep.shape == (20000, 0) and b.level_creep.shape == (20000, 11)

    @pytest.mark.parametrize("below, t, gaps, jumps, crept, monitor", [
        # the jump comes when the path stands on 0.5, its running maximum;
        # it creeps over 0.5 later, from below
        ((0.5,), 5.0, (0.5, 10.0), (-1,), (True,), 0),
        # the creep time 0.5 equals the next jump time: passed by the jump
        ((0.5,), 5.0, (0.5, 10.0), (1,), (False,), 0),
        # the creep time equals the closed cap
        ((pg._closed(0.3),), 0.3, (10.0,), (), (True,), 0),
        # (1.3 - 1) / 1 = 0.30000000000000004 lies above t = 0.3, within the cap
        ((1.3,), 0.3, (0.1, 5.0), (1,), (True,), 0),
        # a jump landing exactly on 1.5: a creep with undershoot
        ((1.5,), 5.0, (0.5, 10.0), (1,), (True,), 1),
        # two levels crept in one segment, one jumped over, one crept after
        ((0.1, 0.2, 1.1, 1.5), 5.0, (0.25, 3.0), (1,), (True, True, False, True), 0),
    ])
    def test_level_pointer_on_hand_rows(self, below, t, gaps, jumps, crept, monitor):
        cap = pg._closed(t)
        out = pg._passage_chunk(P1, 2.3, cap, 1, _Script(gaps, jumps), below)
        assert tuple(out.level_creep[0]) == crept
        assert out.monitors["creep_with_undershoot"] == monitor
        # each level decided as a walk to it alone decides it
        for level, c in zip(below, crept):
            alone = pg._passage_chunk(P1, level, cap, 1, _Script(gaps, jumps))
            assert bool(alone.creep[0] and alone.tau[0] <= cap) == c

    def test_each_level_as_its_own_walk_path_by_path(self):
        # one path per chunk, so a path draws the same gaps and jumps
        # whichever level its walk stops at
        pol, cap = RngPolicy(seed=7, chunk_size=1), pg._closed(1.0)
        levels = (0.3, 0.5, 1.1, 1.5, 2.0)
        shared = pg.sample_passages(P1, 2.3, cap, 300, pol, below=levels)
        for j, level in enumerate(levels):
            alone = pg.sample_passages(P1, level, cap, 300, pol)
            np.testing.assert_array_equal(shared.level_creep[:, j], alone.creep)
        assert shared.level_creep.any(axis=0).all() and not shared.level_creep.all(axis=0).any()

    def test_unsorted_and_duplicate_levels(self):
        pol = POL.substream("order")
        (lo, hi), _ = pg.estimate_p(P1, 0.3, [0.2, 1.3], 20000, pol)
        ests, _ = pg.estimate_p(P1, 0.3, [1.3, 0.2, 1.3, 0.2], 20000, pol)
        assert ests == [hi, lo, hi, lo]

    def test_levels_against_the_creep_route_as_one_family(self):
        n = 100000
        ests, mon = pg.estimate_p(P1, 0.3, self.LEVELS, n, POL.substream("family"))
        lat = rl.DriftLattice(P1, reach=2.3)
        rows = []
        for level, est in zip(self.LEVELS, ests):
            (p,), bound = lat.creep(level, [0.3])
            rows.append((abs(est.value - p), math.sqrt(p * (1 - p) / n), bound))
        distance, budget = verdict(rows, CHECK_FAIL_RATE)
        assert distance <= budget and mon == {"creep_with_undershoot": 0}


class TestCheckPEstimate:
    # the levels of demos/full_suite.json, at t = 0.3
    LEVELS = (0.1, 0.2, 0.3, 0.5, 0.8, 1.1, 1.2, 1.3, 1.5, 2.0, 2.2, 2.3)

    def test_levels_are_rows_against_the_creep_route(self):
        rep = pg.check_p_estimate(P1, 0.3, self.LEVELS, 20000, POL.substream("pe"),
                                  fixture="P1")
        assert rep.passed and 0.0 < rep.budget < 0.02
        assert rep.columns == pg.P_ESTIMATE_COLUMNS + ("p_exact", "budget")
        lat = rl.DriftLattice(P1, reach=2.3)
        for row in rep.details:
            assert row["p_exact"] == lat.creep(row["u"], [0.3])[0][0]
            # off the creeping support both sides are exactly 0, and so is the budget
            if row["p_exact"] == 0.0:
                assert row["p"] == 0.0 and row["budget"] == 0.0
        assert sum(row["p_exact"] > 0 for row in rep.details) == 8
        assert rep.rhs == rep.details[-1]["p_exact"] and rep.lhs == rep.details[-1]["p"]

    def test_open_horizon_fails(self, monkeypatch):
        # the horizon left open: level 1.3 reads 0 against p = 0.1696
        monkeypatch.setattr(pg, "_closed", lambda edge: edge)
        rep = pg.check_p_estimate(P1, 0.3, self.LEVELS, 100000, POL.substream("pe-open"),
                                  fixture="P1")
        assert not rep.passed

    def test_creep_route_without_up_jumps_fails(self, monkeypatch):
        # fault on the exact side: creeping only where the drift alone reaches
        # u by t, so the levels past 1 read p = 0
        creep = rl.DriftLattice.creep

        def drift_alone(self, u, t_values):
            p, bound = creep(self, u, t_values)
            return np.where(u / self.c <= np.asarray(t_values), p, 0.0), bound

        monkeypatch.setattr(rl.DriftLattice, "creep", drift_alone)
        rep = pg.check_p_estimate(P1, 0.3, self.LEVELS, 100000, POL.substream("pe-j0"),
                                  fixture="P1")
        assert not rep.passed


class TestBivPassage:
    def test_pure_drift_deterministic(self):
        spec = BivariateSubordinatorSpec(d_z=0.5, d_y=2.0, q=0.0)
        batch = pg.sample_biv_passages(spec, 1.0, 5, POL.substream(3))
        assert (batch.T == 0.5).all() and (batch.y_at == 1.0).all() and batch.creep.all()
        assert (batch.z_before == 0.25).all() and (batch.dz == 0.0).all()

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

    def test_p3_undershoot_and_overshoot_add_up_to_the_jump(self):
        batch = pg.sample_ladder_jumps(P3, 20000, POL.substream("lj3"), cap=50.0)
        res = ~batch.censored
        jump = res & (batch.ds > 0.0)
        assert jump.any()
        assert set((batch.v + batch.dx)[jump].tolist()) <= {1.0, 2.0}
        assert (batch.v[jump] > 0.0).all()
        first = res & (batch.ds == 0.0)
        assert (batch.v[first] == 0.0).all()
        assert set(batch.dx[first].tolist()) == {1.0, 2.0}

    def test_p1_undershoot_and_overshoot_add_up_to_the_jump(self):
        batch = pg.sample_ladder_jumps(P1, 20000, POL.substream("lj1v"))
        res = ~batch.censored
        first = res & (batch.ds == 0.0)
        assert (batch.v[first] == 0.0).all() and (batch.dx[first] == 1.0).all()
        # a jump return lands strictly above the maximum almost surely; at a
        # creeping return the path sits on it
        creep = res & (batch.ds > 0.0) & (batch.dx == 0.0)
        jump = res & (batch.ds > 0.0) & (batch.dx > 0.0)
        assert creep.any() and jump.any()
        assert (batch.v[creep] == 0.0).all()
        np.testing.assert_allclose(batch.v[jump] + batch.dx[jump], 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cap", [math.inf, math.nan])
    def test_non_finite_cap_is_refused(self, cap):
        with pytest.raises(ValueError, match="cap must be finite"):
            pg.sample_ladder_jumps(P3, 10, POL.substream("inf"), cap=cap)


class TestAlpha:
    """The alpha experiment: the zero-drift excursion of the ladder engine,
    read as ``(v, x, s) = (-X_{alpha-}, X_alpha, alpha - sigma_1)``."""

    def test_immediate_return_triple(self):
        batch = pg.sample_ladder_jumps(P3, 20000, POL.substream("al"), cap=50.0)
        up = ~batch.censored & (batch.v == 0.0)
        assert (batch.ds[up] == 0.0).all()
        assert (batch.dx[up] > 0.0).all()

    def test_censoring_for_transient_walk(self):
        # mean-negative walk: an excursion returns by a jump at most at the
        # cap, or is censored before it draws the jump past it
        spec = ProcessSpec(
            drift=0.0, rate=1.0,
            jumps=DiscreteAtoms([(-2.0, 2 / 3), (1.0, 1 / 3)]),
        )
        batch = pg.sample_ladder_jumps(spec, 5000, POL.substream("trans"), cap=40.0)
        assert batch.censored_mass > 0.05
        res = ~batch.censored
        assert (batch.ds[res] <= 40.0).all()
        assert np.isinf(batch.ds[~res]).all()
        assert np.isnan(batch.dx[~res]).all() and np.isnan(batch.v[~res]).all()

    def test_kappa_from_ladder_matches_known_value(self):
        # P2: kappa(a, 0) = drift * Phi(a) with psi(Phi(a)) = a
        from scipy.optimize import brentq

        batch = pg.sample_ladder_jumps(P2, 60000, POL.substream("kap"), cap=300.0)
        for a in (0.5, 2.0):
            bias = pg.ladder_bias(P2, a, batch.censored_mass, batch.cap)
            est = Moments.of(pg.kappa_from_ladder(P2, batch, a, 0.0)).estimate(bias_bound=bias)
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


@pytest.mark.parametrize("cls", [pg.PassageBatch, pg.SubPassageBatch, pg.LadderJumpBatch])
def test_join_chunks_fills_arrays_sums_monitors_keeps_first_scalars(cls):
    parts = _batch_parts(cls)
    out = join_chunks(iter(parts), 6)
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
