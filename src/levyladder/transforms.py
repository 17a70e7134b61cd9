"""Laplace-transform machinery: renewal-measure transforms, the
quadruple-transform identity for bivariate subordinators and its
fluctuation-level counterpart, the Wiener-Hopf normalisation check, and the
resolvent route to the creeping time of a subordinator.

Every path-level Laplace functional here is integrated segment by segment
in closed form (exponentials of affine functions), so there is no
time-discretisation error anywhere; all remaining error is Monte-Carlo
noise plus explicitly reported truncation bounds.  The resolvent check
reads its right side from a closed form, the resolvent density of a
subordinator with exponential jumps, and only its left side is Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .processes import (
    BivariateSubordinatorSpec,
    ExponentialJumps,
    ProcessSpec,
    kappa_biv,
    kappa_biv_rho_derivative,
    walk,
)
from .results import (
    CheckReport, EstimateWithError, Moments, PathValues, fold, row_budgets, verdict,
)
from .rng import RngPolicy, chunked_map
from . import rw_ladder as rl
from .passage import (
    kappa_deriv_from_ladder,
    kappa_diff_from_ladder,
    kappa_from_ladder,
    ladder_bias,
    ladder_jump_chunks,
    passage_chunks,
)

# lt_V and slfi_check stop a path once its multiplicative weight (e^{-a Z - b Y - q s},
# e^{-mu Y - nu Z - q s}) drops below this; the discarded tail is bounded and reported.
LT_WEIGHT_TOL = 1e-15
# slfi_fluct_check stops a path once the bound on what it can still add is below
# this: on P2 at n = 4e5 trunc_bias is 2e-7 against an SE of 1.5e-4.
SLFI_FLUCT_STOP = 1e-6
# Time caps of the ladder-jump samples behind the fluctuation-level kappa
# and behind the Wiener-Hopf kappa.
SLFI_LADDER_CAP = 200.0
WH_LADDER_CAP = 80.0

__all__ = [
    "TransformParams",
    "lt_V",
    "slfi_rhs_closed_form",
    "slfi_check",
    "slfi_fluct_check",
    "wiener_hopf_check",
    "check_resolvent_creep",
]


@dataclass(frozen=True)
class TransformParams:
    """Parameters (mu, rho, ell, nu, theta) of the quadruple transform.

    ``ell`` is the undershoot-of-maximum parameter.  The generic branch
    requires ``ell != rho - mu``; at equality the identity degenerates to
    the right-derivative form and ``derivative_branch`` is True.
    """

    mu: float
    rho: float
    ell: float
    nu: float
    theta: float

    @property
    def derivative_branch(self) -> bool:
        return math.isclose(self.ell, self.rho - self.mu, rel_tol=0.0, abs_tol=1e-12)

    def validate(self) -> None:
        """``mu > 0`` and ``rho, ell, nu, theta >= 0`` keep the level integrand
        below ``e^{-mu u}``, which every truncation bound assumes; off the
        derivative branch ``|mu + ell - rho| >= 1e-9`` keeps the generic
        ratio well-conditioned."""
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        for name in ("rho", "ell", "nu", "theta"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if not self.derivative_branch and abs(self.mu + self.ell - self.rho) < 1e-9:
            raise ValueError(
                "mu + ell - rho is numerically zero: the generic branch is ill-conditioned,"
                " use the derivative branch (set ell = rho - mu exactly)"
            )

    def validate_for(self, spec: BivariateSubordinatorSpec | ProcessSpec) -> None:
        """:meth:`validate`, and refuses a ``spec`` on which no path would stop: with
        ``q = 0``, a ``Y`` that never moves; with ``min(nu, theta) = 0``, a mean <= 0."""
        self.validate()
        if isinstance(spec, ProcessSpec):
            mean = spec.drift + (spec.rate * spec.jumps.mean() if spec.rate else 0.0)
            if min(self.nu, self.theta) == 0 and not mean > 0:
                raise ValueError(f"min(nu, theta) = 0, mean {mean:g} <= 0: no path would stop")
        elif spec.q == 0 and spec.d_y == 0 and not any(dx > 0 for _, dx, _ in spec.atoms):
            raise ValueError("q = 0 with a Y that never moves: no path would ever stop")


# ---------------------------------------------------------------------------
# Laplace transform of the renewal measure
# ---------------------------------------------------------------------------


def _lt_chunk(
    spec: BivariateSubordinatorSpec, a: float, b: float, n: int, rng,
    route: str,
) -> PathValues:
    dz, dy, q = spec.d_z, spec.d_y, spec.q
    qw = q if route == "integrate" else 0.0
    decay = a * dz + b * dy + qw

    vals = np.zeros(n)
    bias_total = 0.0
    e_life = rng.exponential(1.0 / q, n) if (route == "sample" and q > 0) else np.full(n, np.inf)

    s = np.zeros(n)
    expo = np.zeros(n)  # a Z + b Y + qw s along the path
    kap = kappa_biv(spec, a, b)

    def before(alive, g):
        seg = np.minimum(g, e_life[alive] - s[alive])
        w0 = np.exp(-expo[alive])
        if decay > 0:
            vals[alive] += w0 * (1.0 - np.exp(-decay * seg)) / decay
        else:
            vals[alive] += w0 * np.where(np.isfinite(seg), seg, np.inf)

    def after(alive, g, jump):
        nonlocal bias_total
        jt, jx = jump
        ended = g >= e_life[alive] - s[alive]
        s[alive] += g
        expo[alive] += decay * g
        expo[alive] += a * jt + b * jx
        w1 = np.exp(-expo[alive])
        tail = (~ended) & (w1 < LT_WEIGHT_TOL)
        # remaining contribution from a state with weight w is w / kappa(a, b)
        bias_total += float(w1[tail.nonzero()[0]].sum()) / kap
        return ~(ended | tail)

    walk(np.arange(n), spec.total_rate, rng, spec.sample_atoms, before, after)
    return PathValues(vals, np.zeros(n, dtype=bool), bias_total)


def lt_V(
    spec: BivariateSubordinatorSpec,
    a: float,
    b: float,
    n: int,
    policy: RngPolicy,
    route: str = "integrate",
) -> EstimateWithError:
    """MC estimate of the renewal-measure transform
    ``E int_0^{e(q)} e^{-a Z_s - b Y_s} ds`` (equal to ``1 / kappa(a, b)``).

    Each inter-jump segment is integrated in closed form.  With
    ``route='integrate'`` the killing weight ``e^{-q s}`` is folded into the
    segment integrals instead of sampling ``e(q)``; both routes estimate the
    same quantity.  Paths stop once their multiplicative weight drops below
    ``LT_WEIGHT_TOL``; the discarded tail is bounded by ``weight / kappa(a, b)`` and
    reported.
    """
    if route not in ("integrate", "sample"):
        raise ValueError(f"route must be 'integrate' or 'sample', got {route!r}")
    if not (a >= 0 and b >= 0):
        raise ValueError("transform arguments must be nonnegative")
    kap = kappa_biv(spec, a, b)
    if kap <= 0:
        raise ValueError(f"kappa({a}, {b}) = {kap} <= 0: the transform diverges")
    (m, bias), _, _ = fold(chunked_map(lambda i, k, rng: _lt_chunk(spec, a, b, k, rng, route),
                                       n, policy), PathValues.tally)
    return m.estimate(bias_bound=bias / n)


# ---------------------------------------------------------------------------
# The quadruple transform identity (subordinator level)
# ---------------------------------------------------------------------------


def slfi_rhs_closed_form(spec: BivariateSubordinatorSpec, p: TransformParams) -> float:
    """Closed-form right side: generic ratio or the right-derivative form."""
    den = kappa_biv(spec, p.nu, p.mu)
    if p.derivative_branch:
        return kappa_biv_rho_derivative(spec, p.theta, p.rho) / den
    num = kappa_biv(spec, p.theta, p.mu + p.ell) - kappa_biv(spec, p.theta, p.rho)
    return num / ((p.mu + p.ell - p.rho) * den)


def _leap_factor(p: TransformParams, span):
    """``int_0^span e^{-(mu + ell - rho) v} dv``, the integral over the levels
    a jump leaps of their undershoot factor; ``span`` itself, its limit, on
    the derivative branch."""
    a = p.mu + p.ell - p.rho
    return span if p.derivative_branch else -np.expm1(-a * span) / a


def _slfi_chunk(spec, p: TransformParams, n: int, rng) -> PathValues:
    dz, dy, q = spec.d_z, spec.d_y, spec.q
    c = p.mu * dy + p.nu * dz + q  # growth rate of mu Y + nu Z + q s on a drift segment
    rest = (1.0 - q / kappa_biv(spec, 0.0, p.mu)) / p.mu  # a fresh path's transform bound
    vals, expo = np.zeros(n), np.zeros(n)  # expo: mu Y + nu Z + q s along the path
    bias_total = 0.0

    def before(alive, g):
        # levels y + v, v in (0, d_y g), are crept with weight W e^{-c v / d_y}
        if dy > 0:
            vals[alive] += np.exp(-expo[alive]) * dy * -np.expm1(-c * g) / c

    def after(alive, g, jump):
        nonlocal bias_total
        jt, jx = jump
        expo[alive] += c * g
        # levels y_pre + v, v in (0, jx), are leapt with overshoot jx - v, undershoot v
        vals[alive] += np.exp(-expo[alive] - p.rho * jx - p.theta * jt) * _leap_factor(p, jx)
        expo[alive] += p.mu * jx + p.nu * jt
        w1 = np.exp(-expo[alive])
        tail = w1 < LT_WEIGHT_TOL
        bias_total += float(w1[tail.nonzero()[0]].sum()) * rest
        return ~tail

    walk(np.arange(n), spec.total_rate, rng, spec.sample_atoms, before, after)
    return PathValues(vals, np.zeros(n, dtype=bool), bias_total)


def slfi_check(
    spec: BivariateSubordinatorSpec,
    params: TransformParams,
    n: int,
    policy: RngPolicy,
    fixture: str = "",
) -> CheckReport:
    """Quadruple transform identity for an explicit bivariate subordinator.

    LHS: ``int_0^inf e^{-mu u} E[e^{-rho (Y_T - u) - ell (u - Y_{T-}) - nu Z_{T-}
    - theta dZ_T}; T_u < e(q)] du``, integrated exactly along each of ``n`` paths:
    the levels a drift segment creeps over and those a jump leaps over each
    integrate an exponential affine in ``u``, and killing enters as ``e^{-q s}``.
    Paths stop at weight ``e^{-mu Y - nu Z - q s} < LT_WEIGHT_TOL``; ``trunc_bias``
    bounds the rest by weight times ``(1 - q / kappa(0, mu)) / mu``, the transform
    of a fresh path.  RHS: closed form in ``kappa``, derivative branch at
    ``ell = rho - mu``.  The one row is held to ``CHECK_FAIL_RATE`` with
    ``trunc_bias`` added to its budget, and ``1e-12`` for the rounding of the
    two routes, which the pure-drift case compares exactly.
    """
    params.validate_for(spec)
    (m, bias), _, _ = fold(chunked_map(lambda i, k, rng: _slfi_chunk(spec, params, k, rng),
                                       n, policy), PathValues.tally)
    est = m.estimate(bias_bound=bias / n)
    rhs = slfi_rhs_closed_form(spec, params)
    dist, budget = verdict([(abs(est.value - rhs), est.se, est.bias_bound, 1e-12)])
    return CheckReport(
        check="slfi" + ("-deriv" if params.derivative_branch else ""),
        fixture=fixture,
        params={"mu": params.mu, "rho": params.rho, "ell": params.ell,
                "nu": params.nu, "theta": params.theta, "n": n},
        lhs=est.value,
        rhs=rhs,
        se_lhs=est.se,
        distance=dist,
        budget=budget,
        n_paths=n,
        details=[{"trunc_bias": est.bias_bound}],
    )


# ---------------------------------------------------------------------------
# Fluctuation-level transform identity
# ---------------------------------------------------------------------------


def slfi_fluct_fixture(spec: ProcessSpec) -> None:
    """ValueError unless ``spec`` creeps upward, as :func:`slfi_fluct_check` needs."""
    if not (spec.drift > 0):
        raise ValueError("the fluctuation transform check needs a creeping fixture")


def _slfi_fluct_chunk(spec: ProcessSpec, p: TransformParams, n: int, rng) -> PathValues:
    c = spec.drift
    k = p.mu + p.nu / c  # decay rate in u of e^{-mu u - nu t} over the crept levels
    slow = min(p.nu, p.theta)
    # per path: position J at the last jump time sigma, maximum M, last time G at it
    vals, J, sigma, M, G = (np.zeros(n) for _ in range(5))
    bias_total = 0.0

    def before(alive, g):
        # the segment passes M at r* = sigma + (M - J) / c and creeps the
        # levels (M, M + L) at times r* + (u - M) / c: x = y = s = 0, t = tau
        top = J[alive] + c * g
        up = (top > M[alive]).nonzero()[0]
        i, top = alive[up], top[up]
        r = sigma[i] + (M[i] - J[i]) / c
        vals[i] += np.exp(-p.mu * M[i] - p.nu * r) * -np.expm1(-k * (top - M[i])) / k
        M[i], G[i] = top, sigma[i] + g[up]

    def after(alive, g, y):
        nonlocal bias_total
        t = sigma[alive] + g
        land = J[alive] + c * g + y
        # a jump landing above M leaps the levels (M, land) at time t: x and
        # y are affine in u, the last maximum is at G and s = t - G
        up = (land > M[alive]).nonzero()[0]
        i, t_up = alive[up], t[up]
        span = land[up] - M[i]
        vals[i] += np.exp(-p.mu * M[i] - p.rho * span - p.nu * G[i]
                          - p.theta * (t_up - G[i])) * _leap_factor(p, span)
        M[i], G[i] = land[up], t_up
        J[alive], sigma[alive] = land, t
        # every level still to come lies above M, passed at a time past t
        # whose last maximum lies past G
        rest = np.exp(-p.mu * M[alive] - np.maximum(p.nu * G[alive], slow * t)) / p.mu
        stop = rest < SLFI_FLUCT_STOP
        bias_total += float(rest[stop.nonzero()[0]].sum())
        return ~stop

    walk(np.arange(n), spec.rate, rng, spec.sample_jumps, before, after)
    return PathValues(vals, np.zeros(n, dtype=bool), bias_total)


def slfi_fluct_check(
    spec: ProcessSpec,
    params: TransformParams,
    n_total: int,
    policy: RngPolicy,
    fixture: str = "",
) -> CheckReport:
    """Fluctuation version of the transform identity for a creeping fixture.

    LHS: ``int_0^inf e^{-mu u} E[e^{-rho x - ell y - nu t - theta s}] du`` over the
    passage records of each level ``u``, integrated exactly along each of
    ``n_total`` paths as :func:`slfi_check` does; ``trunc_bias`` bounds what the
    paths stopped at ``SLFI_FLUCT_STOP`` leave out.  RHS: ``kappa(a, b) = a + b c
    + rate E[1 - e^{-a dL - b dH}]`` on independent ladder-jump samples.
    The one row, its SE that of both sides, is held to ``CHECK_FAIL_RATE``
    with both bias bounds added to its budget.
    """
    slfi_fluct_fixture(spec)
    params.validate_for(spec)
    (m, bias), _, _ = fold(chunked_map(lambda i, k, rng: _slfi_fluct_chunk(spec, params, k, rng),
                                       n_total, policy.substream("lhs")), PathValues.tally)
    est = m.estimate(bias_bound=bias / n_total)

    # kappa(theta, mu + ell) - kappa(theta, rho) over mu + ell - rho, or its
    # limit on the derivative branch, over kappa(nu, mu)
    scale = 1.0 if params.derivative_branch else params.mu + params.ell - params.rho

    def tally(b):
        if params.derivative_branch:
            num = kappa_deriv_from_ladder(spec, b, params.theta, params.rho)
        else:
            num = kappa_diff_from_ladder(spec, b, params.theta, params.mu + params.ell, params.rho)
        return (Moments.of(np.stack([num, kappa_from_ladder(spec, b, params.nu, params.mu)])),)

    (lad,), cens, _ = fold(ladder_jump_chunks(spec, max(n_total // 4, 20000),
                                              policy.substream("ladder"), cap=SLFI_LADDER_CAP),
                           tally)
    num = lad[0].estimate(cens, ladder_bias(spec, params.theta, cens, SLFI_LADDER_CAP))
    den = lad[1].estimate(cens, ladder_bias(spec, params.nu, cens, SLFI_LADDER_CAP))
    rhs = num.value / (scale * den.value)
    se_rhs = _ratio_se(num.value, num.se, den.value, den.se) / abs(scale)
    rhs_bias = (num.bias_bound + abs(rhs * scale) * den.bias_bound) / (abs(scale) * den.value)

    dist, budget = verdict([(abs(est.value - rhs), math.hypot(est.se, se_rhs),
                             est.bias_bound, rhs_bias)])
    return CheckReport(
        check="slfi-fluct" + ("-deriv" if params.derivative_branch else ""), fixture=fixture,
        params={"mu": params.mu, "rho": params.rho, "ell": params.ell,
                "nu": params.nu, "theta": params.theta, "n_total": n_total},
        lhs=est.value, rhs=rhs, se_lhs=est.se, se_rhs=se_rhs, distance=dist, budget=budget,
        n_paths=n_total + lad.n,
        details=[{"trunc_bias": est.bias_bound, "ladder_censored": cens}])


def _ratio_se(num: float, num_se: float, den: float, den_se: float) -> float:
    f = num / den
    return math.hypot(num_se / den, f * den_se / den)


# ---------------------------------------------------------------------------
# Wiener-Hopf normalisation
# ---------------------------------------------------------------------------


def wiener_hopf_check(
    spec: ProcessSpec,
    a_values: tuple[float, ...],
    n: int,
    policy: RngPolicy,
    fixture: str = "",
) -> CheckReport:
    """``kappa(a, 0) * kappahat(a, 0) = a`` for a compound Poisson lattice
    fixture (any other is refused by ``LatticeWalkSpec.from_process``), with
    ``kappahat`` computed by the exact dual-table route (geometric mixing of
    strict-descending epoch masses) and ``kappa`` by the ladder-jump
    Monte-Carlo route.  Each ``a`` is one row, ``|kappa kappahat - a| / a``
    against its SE, with the ladder sample's truncation and the dual table's
    geometric tail added to its budget; the rows are held together to
    ``CHECK_FAIL_RATE``.  ``lhs`` and ``rhs`` are the last row's product and
    ``a``, but ``distance`` and ``budget`` the worst row's, maybe another."""
    walk = rl.LatticeWalkSpec.from_process(spec)
    lam = spec.rate
    (lad,), cens, _ = fold(
        ladder_jump_chunks(spec, n, policy.substream("kappa"), cap=WH_LADDER_CAP),
        lambda b: (Moments.of(np.stack([kappa_from_ladder(spec, b, a, 0.0) for a in a_values])),))
    rows, comparisons = [], []
    for j, a in enumerate(a_values):
        r = lam / (lam + a)
        K = int(math.ceil(math.log(1e-12 * (1 - r)) / math.log(r)))
        totals = rl.stay_region_layers(walk, K, "strict-descending").sum(axis=1)
        lt = float(np.sum(totals * r ** np.arange(K + 1)))
        lt_tail = r ** (K + 1) / (1 - r)
        khat = 1.0 / lt
        k_est = lad[j].estimate(cens, ladder_bias(spec, a, cens, WH_LADDER_CAP))
        prod = k_est.value * khat
        prod_bias = k_est.bias_bound * khat + k_est.value * khat * khat * lt_tail
        rel = abs(prod - a) / a
        rows.append({"a": a, "kappa": k_est.value, "kappahat": khat,
                     "product": prod, "rel_err": rel})
        comparisons.append((rel, k_est.se * khat / a, prod_bias / a))
    for r, budget in zip(rows, row_budgets(comparisons)):
        r["budget"] = budget
    dist, budget = verdict(comparisons)
    return CheckReport(
        check="wiener-hopf",
        fixture=fixture,
        params={"a_values": list(a_values), "n": n},
        lhs=rows[-1]["product"],
        rhs=a_values[-1],
        distance=dist,
        budget=budget,
        n_paths=lad.n,
        censored_mass=cens,
        details=rows,
    )


# ---------------------------------------------------------------------------
# Resolvent route to the creeping time of a subordinator
# ---------------------------------------------------------------------------


def resolvent_fixture(spec: ProcessSpec) -> tuple[float, float, float]:
    """``(drift, rate, eta)`` of a subordinator with positive drift and either
    no jumps (``eta`` is then 0) or Exp(``eta``) up-jumps: the fixtures whose
    resolvent density :func:`check_resolvent_creep` has in closed form.  Any
    other fixture is a ValueError."""
    if not (spec.drift > 0):
        raise ValueError("the resolvent check needs a subordinator with positive drift")
    if spec.rate == 0:
        return spec.drift, 0.0, 0.0
    if not (isinstance(spec.jumps, ExponentialJumps) and spec.jumps.sign > 0):
        raise ValueError("the resolvent check needs no jumps or exponential up-jumps")
    return spec.drift, spec.rate, spec.jumps.rate


def _resolvent_density(spec: ProcessSpec, q: float, x):
    """``u^q(x)``, the density of ``int_0^inf e^{-q t} P(X_t in dx) dt``.

    Its transform is ``1 / (q + Phi(b))`` with ``Phi(b) = d b + lam b / (eta + b)``,
    that is ``(eta + b) / (d b^2 + (d eta + lam + q) b + q eta)``.  The
    quadratic has roots ``r1 < r2 <= 0``, so ``d u^q(x)`` is
    ``((eta + r1) e^{r1 x} - (eta + r2) e^{r2 x}) / (r1 - r2)``.  With no
    jumps ``lam = eta = 0``, so ``r1 = -q / d``, ``r2 = 0`` and ``d u^q(x)``
    is ``e^{-q x / d}``.
    """
    d, lam, eta = resolvent_fixture(spec)
    b = d * eta + lam + q
    r1 = -(b + math.sqrt(b * b - 4.0 * d * q * eta)) / (2.0 * d)
    r2 = q * eta / (d * r1)  # the product of the roots is q eta / d
    x = np.asarray(x)
    return ((eta + r1) * np.exp(r1 * x) - (eta + r2) * np.exp(r2 * x)) / (d * (r1 - r2))


def check_resolvent_creep(
    spec: ProcessSpec,
    q_tilde: float,
    u: float,
    n: int,
    policy: RngPolicy,
    fixture: str = "",
) -> CheckReport:
    """Resolvent characterisation of the creeping time of a subordinator:
    ``E[e^{-q tau_u}; X_{tau_u} = u] = d u^q(u)``, the drift times the
    resolvent density at ``u`` (Kyprianou 2006).

    LHS: the mean of ``e^{-q tau_u}`` on creeping paths over ``n`` passage
    records, capped above ``u / d`` so that no path is censored, folded
    one chunk at a time.  RHS: the closed
    form of :func:`_resolvent_density`.  The one row is held to
    ``CHECK_FAIL_RATE``; its ``1e-12`` covers the rounding of the two
    routes' exponentials, which the pure-drift case compares exactly.
    Fixtures other than those :func:`resolvent_fixture` takes are a
    ValueError.
    """
    d = resolvent_fixture(spec)[0]
    rhs = d * float(_resolvent_density(spec, q_tilde, u))
    (m,), censored, monitors = fold(
        passage_chunks(spec, u, 2.0 * u / d, n, policy.substream("lhs")),
        lambda b: (Moments.of(np.where(b.creep, np.exp(-q_tilde * b.tau), 0.0)),))
    lhs = m.estimate()
    dist, budget = verdict([(abs(lhs.value - rhs), lhs.se, 1e-12)])
    return CheckReport(
        check="resolvent",
        fixture=fixture,
        params={"q": q_tilde, "u": u, "n": n},
        lhs=lhs.value,
        rhs=rhs,
        se_lhs=lhs.se,
        distance=dist,
        budget=budget,
        n_paths=n,
        censored_mass=censored,
        monitors=monitors,
    )
