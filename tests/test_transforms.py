import dataclasses
import math

import pytest
from scipy.integrate import quad

from levyladder.fixtures import B1, P1, P2, P3, S1
from levyladder.processes import (
    BivariateSubordinatorSpec, ExponentialJumps, ProcessSpec, UniformJumps, kappa_biv,
)
from levyladder.results import CHECK_FAIL_RATE, verdict
from levyladder.rng import RngPolicy
from levyladder import rw_ladder as rl
from levyladder import transforms as tr
from test_passage import THREE_SE, _Script

POL = RngPolicy(seed=80808)

PURE = BivariateSubordinatorSpec(d_z=1.0, d_y=1.0, q=0.0)


class TestLtV:
    def test_pure_drift_closed_form(self):
        est = tr.lt_V(PURE, 2.0, 3.0, 200, POL.substream("pd"))
        assert est.value == pytest.approx(0.2, abs=1e-12)

    def test_expected_lifetime_at_origin(self):
        spec = BivariateSubordinatorSpec(d_z=0.0, d_y=0.0, q=0.2, atoms=((1.0, 1.0, 0.3),))
        est = tr.lt_V(spec, 0.0, 0.0, 5000, POL.substream("life"))
        assert est.value == pytest.approx(5.0, abs=3 * est.se + 1e-9)

    def test_matches_reciprocal_kappa(self):
        est = tr.lt_V(B1, 1.0, 1.0, 60000, POL.substream("b1"))
        assert abs(est.value * kappa_biv(B1, 1.0, 1.0) - 1.0) <= 3 * est.se * kappa_biv(B1, 1, 1)

    def test_sampled_killing_route_agrees(self):
        a = tr.lt_V(B1, 0.5, 0.5, 40000, POL.substream("ra"), route="integrate")
        b = tr.lt_V(B1, 0.5, 0.5, 40000, POL.substream("rb"), route="sample")
        assert abs(a.value - b.value) <= 3 * math.hypot(a.se, b.se)

    def test_divergence_guard(self):
        spec = BivariateSubordinatorSpec(d_z=0.0, d_y=1.0, q=0.0, atoms=())
        with pytest.raises(ValueError):
            tr.lt_V(spec, 1.0, 0.0, 10, POL.substream("div"))  # kappa(1, 0) = 0

    def test_unknown_route_is_refused(self):
        # any other route would drop the killing: a biased value, or a walk
        # that never ends at a = b = 0
        with pytest.raises(ValueError, match="route must be 'integrate' or 'sample'"):
            tr.lt_V(B1, 0.5, 0.5, 100, POL.substream("bogus"), route="bogus")


class TestParams:
    def test_derivative_branch_detection(self):
        assert tr.TransformParams(1, 2, 1, 0.5, 0.5).derivative_branch
        assert not tr.TransformParams(1, 2, 0, 1, 1).derivative_branch

    def test_admissibility_requires_positive_denominator(self):
        spec = BivariateSubordinatorSpec(d_z=1.0, d_y=1.0, q=0.0)
        with pytest.raises(ValueError):
            tr.TransformParams(0.0, 2.0, 0.0, 0.0, 1.0).validate_for(spec)

    @pytest.mark.parametrize("params, why", [
        (tr.TransformParams(0.0, 2.0, 0.0, 1.0, 1.0), "mu must be positive"),
        (tr.TransformParams(-1.0, 2.0, 0.0, 1.0, 1.0), "mu must be positive"),
        (tr.TransformParams(1.0, -1.0, 0.0, 1.0, 1.0), "rho must be nonnegative"),
        (tr.TransformParams(1.0, 2.0, -0.5, 1.0, 1.0), "ell must be nonnegative"),
        (tr.TransformParams(1.0, 2.0, 0.0, -1.0, 1.0), "nu must be nonnegative"),
        (tr.TransformParams(1.0, 2.0, 0.0, 1.0, -1.0), "theta must be nonnegative"),
    ])
    def test_refuses_parameters_the_tail_bound_cannot_cover(self, params, why):
        with pytest.raises(ValueError, match=why):
            tr.slfi_check(B1, params, 100, POL.substream("neg"))

    def test_refuses_unkilled_paths_whose_y_never_moves(self):
        spec = BivariateSubordinatorSpec(d_z=1.0, d_y=0.0, q=0.0, atoms=((1.0, 0.0, 0.5),))
        with pytest.raises(ValueError, match="never moves"):
            tr.slfi_check(spec, tr.TransformParams(1.0, 2.0, 0.0, 1.0, 1.0), 100,
                          POL.substream("flat"))

    # drift 1, rate 2, jumps -Exp(1): it creeps, but its mean is -1
    DOWN = ProcessSpec(1.0, 2.0, ExponentialJumps(rate=1.0, sign=-1))

    @pytest.mark.parametrize("params", [
        tr.TransformParams(1.0, 2.0, 0.0, 0.0, 1.0), tr.TransformParams(1.0, 2.0, 0.0, 1.0, 0.0)],
        ids=["nu=0", "theta=0"])
    def test_refuses_a_levy_fixture_whose_paths_never_stop(self, params):
        with pytest.raises(ValueError, match="no path would stop"):
            params.validate_for(self.DOWN)
        with pytest.raises(ValueError, match="no path would stop"):
            tr.slfi_fluct_check(self.DOWN, params, 100, POL.substream("down"))
        params.validate_for(P2)  # a positive mean takes them
        tr.TransformParams(1.0, 2.0, 0.0, 1.0, 1.0).validate_for(self.DOWN)

    def test_generic_branch_refused_near_degeneracy(self):
        p = tr.TransformParams(1.0, 2.0, 1.0 + 1e-10, 1.0, 1.0)
        assert not p.derivative_branch
        with pytest.raises(ValueError, match="derivative branch"):
            tr.slfi_check(B1, p, 100, POL.substream("deg"))

    def test_fluct_generic_branch_refused_near_degeneracy(self):
        p = tr.TransformParams(1.0, 2.0, 1.0 + 1e-11, 1.0, 1.0)
        assert not p.derivative_branch
        with pytest.raises(ValueError, match="derivative branch"):
            tr.slfi_fluct_check(P2, p, 100, POL.substream("deg"))


class TestSlfiRhs:
    def test_swap_symmetry_is_exact(self):
        # exchanging the roles of (mu + ell) and rho negates numerator and
        # denominator, leaving the closed form invariant bit for bit
        p = tr.TransformParams(mu=1.0, rho=2.5, ell=0.25, nu=1.0, theta=0.7)
        swapped = tr.TransformParams(
            mu=1.0, rho=p.mu + p.ell, ell=p.rho - p.mu, nu=1.0, theta=0.7
        )
        assert tr.slfi_rhs_closed_form(B1, p) == tr.slfi_rhs_closed_form(B1, swapped)

    def test_derivative_branch_is_limit_of_generic(self):
        p0 = tr.TransformParams(1.0, 2.0, 1.0, 0.5, 0.5)
        deriv = tr.slfi_rhs_closed_form(B1, p0)
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            pe = tr.TransformParams(1.0, 2.0, 1.0 + eps, 0.5, 0.5)
            errs.append(abs(tr.slfi_rhs_closed_form(B1, pe) - deriv))
        assert errs[1] < errs[0] and errs[2] < errs[1]
        assert errs[2] < 1e-4

    def test_pure_drift_closed_form(self):
        # LHS and RHS both reduce to d_y / (q + d_z nu + d_y mu)
        spec = BivariateSubordinatorSpec(d_z=0.5, d_y=1.0, q=0.3)
        p = tr.TransformParams(1.0, 2.0, 0.0, 1.0, 1.0)
        assert tr.slfi_rhs_closed_form(spec, p) == pytest.approx(1.0 / (0.3 + 0.5 + 1.0))
        rep = tr.slfi_check(spec, p, 1500, POL.substream("pds"))
        assert rep.passed


GENERIC = tr.TransformParams(1.0, 2.0, 0.0, 1.0, 1.0)
DERIV = tr.TransformParams(1.0, 2.0, 1.0, 0.5, 0.5)


class TestSlfiExactLevels:
    def test_pure_drift_is_exact(self):
        spec = BivariateSubordinatorSpec(d_z=0.5, d_y=1.0, q=0.3)
        rep = tr.slfi_check(spec, GENERIC, 1000, POL.substream("pure"))
        assert rep.lhs == pytest.approx(1.0 / (0.3 + 0.5 * 1.0 + 1.0 * 1.0), rel=1e-15)
        assert rep.se_lhs == 0.0 and rep.details[0]["trunc_bias"] == 0.0

    @pytest.mark.parametrize("spec", [
        BivariateSubordinatorSpec(d_z=0.5, d_y=0.0, q=0.2, atoms=B1.atoms),
        BivariateSubordinatorSpec(d_z=0.5, d_y=1.0, q=0.0, atoms=B1.atoms),
        BivariateSubordinatorSpec(d_z=0.5, d_y=1.0, q=0.2, atoms=((1.0, 1.0, 0.5),)),
    ], ids=["d_y=0", "q=0", "one-atom"])
    @pytest.mark.parametrize("params", [GENERIC, DERIV], ids=["generic", "deriv"])
    def test_unbiased_within_se_without_slack(self, spec, params):
        rep = tr.slfi_check(spec, params, 50000, POL.substream("specs"))
        dist, budget = verdict([(abs(rep.lhs - rep.rhs), rep.se_lhs,
                                 rep.details[0]["trunc_bias"])], THREE_SE)
        assert dist <= budget

    def test_derivative_branch_is_the_limit_of_the_generic_jump_term(self):
        near = dataclasses.replace(DERIV, ell=DERIV.ell + 1e-9)
        assert not near.derivative_branch
        deriv = tr.slfi_check(B1, DERIV, 20000, POL.substream("lim"))
        generic = tr.slfi_check(B1, near, 20000, POL.substream("lim"))
        assert generic.lhs == pytest.approx(deriv.lhs, rel=1e-6)

    @pytest.mark.parametrize("params", [GENERIC, DERIV], ids=["generic", "deriv"])
    def test_trunc_bias_covers_an_early_stop(self, monkeypatch, params):
        full = tr.slfi_check(B1, params, 20000, POL.substream("tol"))
        monkeypatch.setattr(tr, "LT_WEIGHT_TOL", 1e-3)
        cut = tr.slfi_check(B1, params, 20000, POL.substream("tol"))
        assert cut.details[0]["trunc_bias"] >= abs(cut.lhs - full.lhs)
        assert full.details[0]["trunc_bias"] < 1e-14

    def test_fault_without_creep_term_fails(self, monkeypatch):
        walk = tr.walk

        def no_creep(active, rate, rng, draw, before, after):
            walk(active, rate, rng, draw, lambda alive, g: None, after)

        monkeypatch.setattr(tr, "walk", no_creep)
        assert not tr.slfi_check(B1, GENERIC, 100_000, POL.substream("f1")).passed

    def test_fault_without_killing_factor_fails(self, monkeypatch):
        chunk = tr._slfi_chunk
        monkeypatch.setattr(tr, "_slfi_chunk", lambda spec, p, m, rng: chunk(
            dataclasses.replace(spec, q=0.0), p, m, rng))
        assert not tr.slfi_check(B1, GENERIC, 100_000, POL.substream("f2")).passed


def _fluct_lhs(spec, params, n, policy):
    return tr._path_estimate(lambda m, rng: tr._slfi_fluct_chunk(spec, params, m, rng), n,
                             policy)


class TestSlfiFluctExactLevels:
    @pytest.mark.parametrize("params", [GENERIC, DERIV], ids=["generic", "deriv"])
    def test_pure_drift_is_exact(self, params):
        # rate 0: every level u is crept at time u / c
        spec = ProcessSpec(drift=2.0, rate=0.0)
        est = _fluct_lhs(spec, params, 1000, POL.substream("pure"))
        assert est.value == 1.0 / (params.mu + params.nu / 2.0)
        assert est.se == 0.0 and est.bias_bound == 0.0

    # nu != theta, so that t and s are told apart; the second is on the
    # derivative branch (ell = rho - mu)
    @pytest.mark.parametrize("params", [tr.TransformParams(1.5, 0.5, 0.3, 0.7, 2.0),
                                        tr.TransformParams(1.0, 2.5, 1.5, 0.4, 1.3)],
                             ids=["generic", "deriv"])
    def test_scripted_path_against_the_level_integral(self, params):
        # drift 2, jumps +-1: creep to 0.5 by time 0.25 and jump to -0.5; drift
        # to 0.3 and jump over the maximum to 1.3 at time 0.65; creep to 1.7
        # by time 0.85 and jump to 0.7; drift back to the maximum at time 1.35
        # and creep to 40.7 by time 20.85, where the path stops
        spec = ProcessSpec(2.0, 2.0, P1.jumps)
        script = _Script((0.25, 0.4, 0.2, 20.0), (-1, 1, -1, -1))
        vals, bias = tr._slfi_fluct_chunk(spec, params, 1, script)

        def record(u):  # (x, y, t, s) of the passage over level u
            if u <= 0.5:
                return 0.0, 0.0, u / 2.0, 0.0
            if u < 1.3:
                return 1.3 - u, u - 0.5, 0.25, 0.4
            if u <= 1.7:
                return 0.0, 0.0, 0.65 + (u - 1.3) / 2.0, 0.0
            return 0.0, 0.0, 1.35 + (u - 1.7) / 2.0, 0.0

        def f(u):
            x, y, t, s = record(u)
            return math.exp(-params.mu * u - params.rho * x - params.ell * y - params.nu * t
                            - params.theta * s)

        assert params.derivative_branch == (params.rho == 2.5)
        hand = sum(quad(f, lo, hi, epsabs=1e-15)[0]
                   for lo, hi in ((0.0, 0.5), (0.5, 1.3), (1.3, 1.7), (1.7, 40.7)))
        assert vals[0] == pytest.approx(hand, abs=1e-14)
        left_out = quad(f, 40.7, math.inf)[0]
        assert 0.0 < left_out <= bias < tr.SLFI_FLUCT_STOP

    def test_p2_against_the_closed_form(self):
        # P2 is spectrally negative: every level is crept, so the left side is
        # 1 / (mu + Phi(nu)), with Phi(nu) the positive root of
        # x^2 + (1/2 - nu) x - nu = 0
        rows = []
        for params in (GENERIC, tr.TransformParams(2.5, 0.5, 0.3, 0.3, 2.0)):
            nu = params.nu
            phi = ((nu - 0.5) + math.sqrt((0.5 - nu) ** 2 + 4.0 * nu)) / 2.0
            est = _fluct_lhs(P2, params, 100000, POL.substream(f"p2:{params}"))
            rows.append((abs(est.value - 1.0 / (params.mu + phi)), est.se, est.bias_bound))
        dist, budget = verdict(rows, CHECK_FAIL_RATE)
        assert dist <= budget

    @pytest.mark.parametrize("params", [GENERIC, DERIV], ids=["generic", "deriv"])
    def test_trunc_bias_covers_an_early_stop(self, monkeypatch, params):
        # one path per chunk, so each path draws the same gaps and jumps
        # wherever it stops
        pol = RngPolicy(seed=5, chunk_size=1)
        full = _fluct_lhs(P1, params, 300, pol)
        monkeypatch.setattr(tr, "SLFI_FLUCT_STOP", 1e-3)
        cut = _fluct_lhs(P1, params, 300, pol)
        assert 0.0 < full.value - cut.value <= cut.bias_bound
        assert full.bias_bound < 1e-6

    def test_fault_without_nu_in_the_creep_term_fails(self, monkeypatch):
        # P2 never jumps over its maximum, so nu acts only through the creep
        # term; without it the left side reads 1 / mu
        chunk = tr._slfi_fluct_chunk
        monkeypatch.setattr(tr, "_slfi_fluct_chunk", lambda spec, p, m, rng: chunk(
            spec, dataclasses.replace(p, nu=0.0), m, rng))
        rep = tr.slfi_fluct_check(P2, GENERIC, 400_000, POL.substream("f1"))
        assert rep.lhs == pytest.approx(1.0, abs=1e-5) and not rep.passed

    def test_fault_without_the_jump_over_term_fails(self, monkeypatch):
        # P1's up-jumps leap over its maximum
        monkeypatch.setattr(tr, "_leap_factor", lambda p, span: 0.0 * span)
        assert not tr.slfi_fluct_check(P1, GENERIC, 400_000, POL.substream("f2")).passed


class TestSlfiChecks:
    def test_b1_second_factorization_case(self):
        rep = tr.slfi_check(B1, tr.TransformParams(1, 2, 0, 1, 1), 15000,
                            POL.substream("gen"), fixture="B1")
        assert rep.passed
        assert rep.rhs == pytest.approx(0.46261, abs=1e-4)

    def test_b1_derivative_case(self):
        rep = tr.slfi_check(B1, tr.TransformParams(1, 2, 1, 0.5, 0.5), 15000,
                            POL.substream("der"), fixture="B1")
        assert rep.passed
        assert rep.rhs == pytest.approx(0.53839, abs=1e-4)

    def test_fluct_level_on_p2(self):
        rep = tr.slfi_fluct_check(P2, tr.TransformParams(1, 2, 0, 1, 1), 150000,
                                  POL.substream("fl"), fixture="P2")
        assert rep.passed

    def test_fluct_derivative_branch_on_p2(self):
        rep = tr.slfi_fluct_check(P2, tr.TransformParams(1, 2, 1, 0.5, 0.5), 150000,
                                  POL.substream("fld"), fixture="P2")
        assert rep.passed

    @pytest.mark.parametrize("params", [GENERIC, DERIV], ids=["generic", "deriv"])
    def test_fault_d_y_two_percent_high_on_the_right_side_fails(self, monkeypatch, params):
        # a 2% error on the exact side, at the suite's n
        rhs = tr.slfi_rhs_closed_form
        monkeypatch.setattr(tr, "slfi_rhs_closed_form", lambda spec, p: rhs(
            dataclasses.replace(spec, d_y=1.02 * spec.d_y), p))
        rep = tr.slfi_check(B1, params, 100_000, POL.substream(f"dy:{params}"))
        assert not rep.passed

    def test_fault_rate_two_percent_high_in_the_ladder_kappa_fails(self, monkeypatch):
        # a 2% error in the ladder route of the right side, at the suite's n
        kappa = tr.kappa_from_ladder
        monkeypatch.setattr(tr, "kappa_from_ladder", lambda spec, lad, a, b: kappa(
            dataclasses.replace(spec, rate=1.02 * spec.rate), lad, a, b))
        rep = tr.slfi_fluct_check(P2, GENERIC, 400_000, POL.substream("fluct-lam"))
        assert not rep.passed

    def test_fluct_needs_creeping_fixture(self):
        with pytest.raises(ValueError):
            tr.slfi_fluct_check(P3, tr.TransformParams(1, 2, 0, 1, 1), 100, POL)


class TestWienerHopf:
    def test_p3_product_recovers_a(self):
        rep = tr.wiener_hopf_check(P3, (0.5, 1.0, 2.0), 60000, POL.substream("wh"),
                                   fixture="P3")
        assert rep.passed
        for row in rep.details:
            assert row["rel_err"] <= row["budget"]

    def test_product_vanishes_at_small_a(self):
        rep = tr.wiener_hopf_check(P3, (0.05,), 40000, POL.substream("wh0"))
        assert rep.details[0]["product"] < 0.07

    def test_requires_compound_poisson(self):
        with pytest.raises(ValueError):
            tr.wiener_hopf_check(P1, (1.0,), 100, POL)

    def test_fault_rate_two_percent_high_in_kappa_fails(self, monkeypatch):
        # a 2% error in the ladder route of kappa, at the suite's n
        kappa = tr.kappa_from_ladder
        monkeypatch.setattr(tr, "kappa_from_ladder", lambda spec, lad, a, b: kappa(
            dataclasses.replace(spec, rate=1.02 * spec.rate), lad, a, b))
        rep = tr.wiener_hopf_check(P3, (0.5, 1.0, 2.0), 200_000, POL.substream("wh-lam"))
        assert not rep.passed

    def test_fault_kappahat_from_weak_descending_layers_fails(self, monkeypatch):
        # the weak-descending layers are the weak-ascending ones of the
        # reflected walk: they count returns to the start level as ladder epochs
        layers = rl.stay_region_layers

        def weak(walk, K, mode):
            if mode == "strict-descending":
                reflected = dataclasses.replace(walk, steps=tuple(-s for s in walk.steps))
                return layers(reflected, K, "weak-ascending")
            return layers(walk, K, mode)

        monkeypatch.setattr(rl, "stay_region_layers", weak)
        rep = tr.wiener_hopf_check(P3, (0.5, 1.0, 2.0), 200_000, POL.substream("wh-weak"))
        assert not rep.passed


# S1 and a second subordinator with exponential up-jumps, at two killing rates
EXP_SUBORDINATORS = [(S1, 1.0), (S1, 0.3),
                     (ProcessSpec(0.5, 3.0, ExponentialJumps(rate=2.0)), 1.0),
                     (ProcessSpec(0.5, 3.0, ExponentialJumps(rate=2.0)), 4.0)]


class TestResolvent:
    def test_pure_drift_closed_form(self):
        spec = ProcessSpec(drift=2.0, rate=0.0)
        rep = tr.check_resolvent_creep(spec, 1.0, 0.5, 2000, POL.substream("pd"))
        assert rep.passed
        assert rep.lhs == pytest.approx(math.exp(-0.25), abs=1e-12)
        assert rep.rhs == pytest.approx(math.exp(-0.25), rel=2e-3)

    def test_s1_dual_routes_agree(self):
        rep = tr.check_resolvent_creep(S1, 1.0, 0.5, 60000, POL.substream("s1"),
                                       fixture="S1")
        assert rep.passed
        assert rep.rhs == pytest.approx(0.4237770, abs=5e-8) and rep.se_rhs == 0.0
        assert rep.censored_mass == 0.0 and rep.n_paths == 60000

    @pytest.mark.parametrize("spec, q", EXP_SUBORDINATORS)
    def test_density_starts_at_one_over_drift(self, spec, q):
        assert spec.drift * tr._resolvent_density(spec, q, 0.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("spec, q", EXP_SUBORDINATORS)
    def test_density_integrates_to_one_over_q(self, spec, q):
        total, _ = quad(lambda x: tr._resolvent_density(spec, q, x), 0.0, math.inf,
                        epsabs=1e-14, epsrel=1e-13)
        assert total == pytest.approx(1.0 / q, abs=1e-12)

    @pytest.mark.parametrize("d, q", [(1.0, 1.0), (2.0, 0.3), (0.5, 4.0)])
    def test_density_without_jumps_is_exponential(self, d, q):
        spec = ProcessSpec(drift=d, rate=0.0)
        for x in (0.0, 0.5, 2.0):
            assert d * tr._resolvent_density(spec, q, x) == pytest.approx(
                math.exp(-q * x / d), abs=1e-12)

    def test_dropping_the_jump_term_fails(self, monkeypatch):
        # fault on the exact side: S1's density read as if it had no jumps
        exact = tr._resolvent_density
        monkeypatch.setattr(tr, "_resolvent_density",
                            lambda spec, q, x: exact(ProcessSpec(spec.drift, 0.0), q, x))
        rep = tr.check_resolvent_creep(S1, 1.0, 0.5, 200000, POL.substream("fault"))
        assert not rep.passed

    def test_refuses_two_sided_jumps(self):
        with pytest.raises(ValueError):
            tr.check_resolvent_creep(P1, 1.0, 0.5, 100, POL)

    @pytest.mark.parametrize("spec", [
        P2, P3, ProcessSpec(1.0, 1.0, UniformJumps(0.5, 1.5)),
        ProcessSpec(-1.0, 1.0, ExponentialJumps(rate=1.0))])
    def test_refuses_other_fixtures(self, spec):
        with pytest.raises(ValueError, match="the resolvent check needs"):
            tr.check_resolvent_creep(spec, 1.0, 0.5, 100, POL)
