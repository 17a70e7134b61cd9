import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levyladder.processes import (
    BivariateSubordinatorSpec,
    DiscreteAtoms,
    ExponentialJumps,
    ProcessSpec,
    UniformJumps,
    kappa_biv,
    kappa_biv_rho_derivative,
    walk,
)
from levyladder.fixtures import B1, P1, P3
from levyladder.rng import RngPolicy


class TestJumpLaws:
    def test_no_atom_at_zero(self):
        with pytest.raises(ValueError):
            DiscreteAtoms([(0.0, 1.0)])

    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DiscreteAtoms([(1.0, 0.5), (-1.0, 0.4)])

    def test_rational_probs_are_kept_exact(self):
        law = DiscreteAtoms([(1.0, Fraction(1, 3)), (-1.0, Fraction(2, 3))])
        assert sum(law.probs, Fraction(0)) == 1

    def test_cdf_monotone_and_atoms(self):
        law = DiscreteAtoms([(-1.0, 0.25), (2.0, 0.75)])
        xs = [-2.0, -1.0, 0.0, 1.9, 2.0, 3.0]
        vals = [law.cdf(x) for x in xs]
        assert vals == sorted(vals)
        assert law.cdf(-1.0) == 0.25 and law.cdf(2.0) == 1.0  # right continuity
        assert law.atom(2.0) == 0.75 and law.atom(0.5) == 0.0

    @pytest.mark.parametrize("atoms", [
        P3.jumps, P1.jumps,
        DiscreteAtoms([(-1.0, Fraction(1, 3)), (0.5, Fraction(1, 6)), (3.0, Fraction(1, 2))]),
        DiscreteAtoms([(2.0, 0.1), (-0.7, 0.2), (1.3, 0.7)]),
    ])
    def test_sample_matches_inline_table(self, atoms):
        # the cached table must reproduce the per-call construction bit for bit
        got = atoms.sample(np.random.default_rng(2024), 5000)
        rng = np.random.default_rng(2024)
        cum = np.cumsum(np.array([float(p) for p in atoms.probs]))
        cum[-1] = 1.0
        idx = np.searchsorted(cum, rng.random(5000), side="right")
        want = np.asarray(atoms.values, dtype=float)[idx]
        assert got.tobytes() == want.tobytes()

    def test_uniform_rejects_zero_in_range(self):
        with pytest.raises(ValueError):
            UniformJumps(-1.0, 1.0)
        law = UniformJumps(0.5, 1.5)
        assert law.atom(1.0) == 0.0
        assert law.cdf(1.0) == 0.5

    def test_exponential_signed(self):
        neg = ExponentialJumps(rate=2.0, sign=-1)
        assert neg.cdf(0.0) == 1.0 and neg.cdf(-10.0) < 0.01
        assert neg.mean() == -0.5


class TestProcessSpec:
    def test_pure_drift_requires_nonzero_drift(self):
        with pytest.raises(ValueError):
            ProcessSpec(drift=0.0, rate=0.0)

    def test_compound_poisson_classification(self):
        assert P3.is_compound_poisson
        assert not P1.is_compound_poisson
        assert not ProcessSpec(drift=1.0, rate=0.0).is_compound_poisson

    def test_levy_atom_scaling(self):
        assert P1.levy_atom(1.0) == pytest.approx(1.0)  # rate 2 * prob 1/2
        assert P1.levy_atom(0.5) == 0.0


class TestKappa:
    def test_at_origin_equals_killing_rate(self):
        assert kappa_biv(B1, 0.0, 0.0) == pytest.approx(0.2, abs=1e-15)

    def test_atom_sum_example(self):
        expected = 0.2 + 0.5 + 0.3 * (1 - math.exp(-1)) + 0.2 * (1 - math.exp(-2))
        assert kappa_biv(B1, 1.0, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_pure_unit_drift(self):
        spec = BivariateSubordinatorSpec(d_z=0.0, d_y=1.0, q=0.0)
        assert kappa_biv(spec, 7.0, 3.0) == 3.0

    def test_rho_derivative_matches_difference_quotient(self):
        a, b = 0.7, 1.3
        d = kappa_biv_rho_derivative(B1, a, b)
        eps = 1e-7
        fd = (kappa_biv(B1, a, b + eps) - kappa_biv(B1, a, b)) / eps
        assert d == pytest.approx(fd, rel=1e-5)

    @given(
        a1=st.floats(0, 5), a2=st.floats(0, 5),
        b1=st.floats(0, 5), b2=st.floats(0, 5),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_each_argument(self, a1, a2, b1, b2):
        lo_a, hi_a = sorted((a1, a2))
        lo_b, hi_b = sorted((b1, b2))
        assert kappa_biv(B1, hi_a, lo_b) >= kappa_biv(B1, lo_a, lo_b) - 1e-12
        assert kappa_biv(B1, lo_a, hi_b) >= kappa_biv(B1, lo_a, lo_b) - 1e-12

    @given(
        a=st.one_of(st.just(0.0), st.floats(1e-6, 10)),
        b=st.one_of(st.just(0.0), st.floats(1e-6, 10)),
        dz=st.floats(0, 2), dy=st.floats(0, 2), q=st.floats(0, 2),
        r=st.floats(0.01, 3),
        dt=st.one_of(st.just(0.0), st.floats(1e-6, 2)),
        dx=st.one_of(st.just(0.0), st.floats(1e-6, 2)),
    )
    @settings(max_examples=80, deadline=None)
    def test_positive_when_nondegenerate(self, a, b, dz, dy, q, r, dt, dx):
        # Positivity needs a nondegenerate exponent: killing, or a parameter
        # paired with a coordinate that actually moves.  (A spec whose Z part
        # is identically zero has kappa(a, 0) = 0 for every a.)  Parameters
        # are kept away from subnormal scales where products underflow.
        if dt == 0 and dx == 0:
            dt = 1.0
        spec = BivariateSubordinatorSpec(d_z=dz, d_y=dy, q=q, atoms=((dt, dx, r),))
        moving_z = dz > 0 or dt > 0
        moving_y = dy > 0 or dx > 0
        if q > 0 or (a > 0 and moving_z) or (b > 0 and moving_y):
            assert kappa_biv(spec, a, b) > 0


class TestBivariateSpec:
    def test_rejects_zero_atom(self):
        with pytest.raises(ValueError):
            BivariateSubordinatorSpec(d_z=1, d_y=1, q=0, atoms=((0.0, 0.0, 1.0),))

    def test_rejects_negative_coordinates(self):
        with pytest.raises(ValueError):
            BivariateSubordinatorSpec(d_z=1, d_y=1, q=0, atoms=((-1.0, 1.0, 1.0),))

    def test_total_rate(self):
        assert B1.total_rate == pytest.approx(0.6)


class _RecordingRng:
    """Stands in for a Generator: logs each gap draw and returns 0.5, 1.5, ..."""

    def __init__(self, log):
        self.log = log

    def exponential(self, scale, size):
        self.log.append(("gap", scale, size))
        return np.arange(size) + 0.5


class TestWalk:
    def _walk(self, active, rate, settle_all_before=False):
        """Path i is settled at step i // 2: by ``before`` when i is even
        (or always, with ``settle_all_before``), by ``after`` when i is odd."""
        log, seen, step = [], [], [0]

        def draw(rng, m):
            log.append(("jump", m))
            return np.full(m, -1.0)

        def before(act, g):
            seen.append(("before", act.tolist(), g.tolist()))
            if settle_all_before:
                return np.zeros(act.size, dtype=bool)
            return ~((act // 2 == step[0]) & (act % 2 == 0))

        def after(act, g, jump):
            seen.append(("after", act.tolist(), g.tolist()))
            assert jump.tolist() == [-1.0] * act.size
            go_on = act // 2 != step[0]
            step[0] += 1
            return go_on

        walk(np.asarray(active, dtype=int), rate, _RecordingRng(log), draw, before, after)
        return log, seen

    def test_one_gap_per_active_path_then_one_jump_per_kept_path(self):
        log, seen = self._walk(np.arange(6), 2.0)
        assert log == [("gap", 0.5, 6), ("jump", 5), ("gap", 0.5, 4), ("jump", 3),
                       ("gap", 0.5, 2), ("jump", 1)]
        assert seen == [
            ("before", [0, 1, 2, 3, 4, 5], [0.5, 1.5, 2.5, 3.5, 4.5, 5.5]),
            ("after", [1, 2, 3, 4, 5], [1.5, 2.5, 3.5, 4.5, 5.5]),
            ("before", [2, 3, 4, 5], [0.5, 1.5, 2.5, 3.5]),
            ("after", [3, 4, 5], [1.5, 2.5, 3.5]),
            ("before", [4, 5], [0.5, 1.5]),
            ("after", [5], [1.5]),
        ]

    def test_path_settled_before_the_jump_never_reaches_after(self):
        _, seen = self._walk(np.arange(6), 1.0)
        afters = seen[1::2]
        assert len(afters) == 3 and {hook for hook, _, _ in afters} == {"after"}
        for step, (_, act, _) in enumerate(afters):
            # before settled the even path 2k at step k <= step
            assert all(i % 2 or i // 2 > step for i in act)
        log, seen = self._walk(np.arange(6), 1.0, settle_all_before=True)
        assert log == [("gap", 1.0, 6)]  # nobody left to draw a jump
        assert [hook for hook, _, _ in seen] == ["before"]

    def test_before_returning_none_keeps_every_path(self):
        log, seen = [], []

        def draw(rng, m):
            log.append(("jump", m))
            return np.zeros(m)

        def after(act, g, jump):
            seen.append(act.tolist())
            return act != act[0]

        walk(np.arange(3), 1.0, _RecordingRng(log), draw, lambda act, g: None, after)
        assert log == [("gap", 1.0, 3), ("jump", 3), ("gap", 1.0, 2), ("jump", 2),
                       ("gap", 1.0, 1), ("jump", 1)]
        assert seen == [[0, 1, 2], [1, 2], [2]]

    def test_rate_zero_is_one_step_with_infinite_gaps_and_no_draws(self):
        log, seen = self._walk(np.arange(4), 0.0)
        assert log == []
        assert seen == [("before", [0, 1, 2, 3], [math.inf] * 4)]

    @pytest.mark.parametrize("rate", [0.0, 1.0])
    def test_empty_start_draws_nothing(self, rate):
        assert self._walk(np.arange(0), rate) == ([], [])
