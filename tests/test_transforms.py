import dataclasses
import math

import pytest
from scipy.integrate import quad

from levyladder.fixtures import B1, P1, P2, P3, S1
from levyladder.processes import (
    BivariateSubordinatorSpec, ExponentialJumps, ProcessSpec, UniformJumps, kappa_biv,
)
from levyladder.results import verdict
from levyladder.rng import RngPolicy
from levyladder import transforms as tr

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

    def test_generic_branch_refused_near_degeneracy(self):
        p = tr.TransformParams(1.0, 2.0, 1.0 + 1e-10, 1.0, 1.0)
        assert not p.derivative_branch
        with pytest.raises(ValueError, match="derivative branch"):
            tr.slfi_check(B1, p, 100, POL.substream("deg"))


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
                                 rep.details[0]["trunc_bias"])])
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
