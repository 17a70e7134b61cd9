"""Exact ladder structure of lattice random walks embedded in compound
Poisson processes, and of lattice jumps with a positive drift.

For a zero-drift compound Poisson process ``X`` with lattice jumps, the jump
chain ``S_n`` determines the bivariate ladder renewal functions of ``X``
exactly: if ``U(k, x)`` (weak ascending) and ``Uhat(k, x)`` (strict
descending) are the walk's bivariate ladder renewal masses at epoch ``k``,
then mixing over the Erlang jump-time distribution gives

    V(t, x)    = rate^{-1} * sum_k P(sigma_{k+1} <= t) U(k, x)
    Vhat(t, x) =             sum_k P(sigma_k     <= t) Uhat(k, x)

with ``sigma_k`` the k-th jump time.  Every truncated quantity here returns
a rigorous bound next to its value.

Two pieces build every exact table, and each is written once:

* :func:`_killed_step` -- one jump of a walk killed on one side of a
  barrier, a band per step value plus an absorbing column for the mass
  lost past the far edge.  :func:`stay_region_layers` runs it on the
  time-reversal identities ``U(k, {w}) = P(S_j >= 0 for j <= k, S_k = w)``
  and ``Uhat(k, {v}) = P(S_j < 0 for 1 <= j <= k, S_k = -v)``, one dense
  float row ``L[k, :]`` per epoch; :class:`DriftLattice` runs it on the
  powers of its killed jump matrix.
* :func:`poisson_weights` -- Poisson pmf and survival rows, recursed outward
  from the mode and suffix-summed (Jensen's uniformization weights).

:func:`erlang_mixture` is the one place the layers meet the jump times: it
puts the masses of ``V`` or ``Vhat`` on a grid of time bins as a single
product of Poisson-survival differences with ``L``, with a deterministic
error bound.  All-epoch totals ``sum_k U(k, {w})`` (needed for an unbounded
last time bin) are the renewal sequences of the Wiener-Hopf ladder-height
factors; :func:`green_function` reads those factors off the roots of one
polynomial, with a bound from the factorisation's residual at its roots.
The definition-level route (path enumeration and the joint-state ladder
DP) that these tables are tested against lives with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from typing import Literal, Sequence

import numpy as np

from .processes import DiscreteAtoms, ProcessSpec

__all__ = [
    "LatticeWalkSpec",
    "stay_region_layers",
    "erlang_mixture",
    "green_function",
    "poisson_weights",
    "poisson_tail_mean",
    "poisson_index_cap",
]

Mode = Literal["weak-ascending", "strict-ascending", "strict-descending"]


# ---------------------------------------------------------------------------
# Walk specification
# ---------------------------------------------------------------------------


def _fraction_gcd(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(math.gcd(a.numerator * b.denominator, b.numerator * a.denominator),
                    a.denominator * b.denominator)


@dataclass(frozen=True)
class LatticeWalkSpec:
    """Lattice random walk: integer steps (in units of ``h``) with exact
    rational probabilities, plus the Poisson rate embedding it in time."""

    h: float
    steps: tuple[int, ...]
    probs: tuple[Fraction, ...]
    rate: float

    def __post_init__(self) -> None:
        if not (self.h > 0):
            raise ValueError("lattice step h must be positive")
        if not (self.rate > 0):
            raise ValueError("embedding rate must be positive")
        if len(self.steps) != len(self.probs) or not self.steps:
            raise ValueError("steps and probs must be nonempty and aligned")
        if any(s == 0 for s in self.steps):
            raise ValueError("step value 0 is not allowed")
        if len(set(self.steps)) != len(self.steps):
            raise ValueError("duplicate steps")
        if any(p <= 0 for p in self.probs):
            raise ValueError("step probabilities must be positive")
        if sum(self.probs, Fraction(0)) != 1:
            raise ValueError("step probabilities must sum to 1 exactly")

    @classmethod
    def from_process(cls, spec: ProcessSpec) -> "LatticeWalkSpec":
        """Embedded walk of a zero-drift compound Poisson lattice process."""
        if not spec.is_compound_poisson:
            raise ValueError("embedded walk requires a zero-drift compound Poisson process")
        if not isinstance(spec.jumps, DiscreteAtoms):
            raise ValueError("embedded walk requires an atomic jump law")
        frac_values = [Fraction(v) for v in spec.jumps.values]
        h = reduce(_fraction_gcd, [abs(v) for v in frac_values])
        steps = tuple(int(v / h) for v in frac_values)
        return cls(h=float(h), steps=steps, probs=spec.jumps.probs, rate=spec.rate)


def _killed_step(prev: np.ndarray, cur: np.ndarray, moves, D: int) -> None:
    """One jump of a walk killed below distance 0, on the last axis: adds to
    ``cur`` (zero on entry) the law ``prev`` on the distances ``0..D`` moved
    by each ``(shift, prob)`` of ``moves``.  Column ``D + 1`` absorbs what is
    moved past ``D``; what is moved below 0 has passed the barrier and goes."""
    cur[..., D + 1] = prev[..., D + 1]
    for s, p in moves:
        if s >= 0:
            cur[..., s : D + 1] += p * prev[..., : D + 1 - s]
            cur[..., D + 1] += p * prev[..., D + 1 - s : D + 1].sum(axis=-1)
        else:
            cur[..., : D + 1 + s] += p * prev[..., -s : D + 1]


def stay_region_layers(spec: LatticeWalkSpec, K: int, mode: Mode) -> np.ndarray:
    """Time-reversal route to the ladder masses, as a dense float recursion.

    Returns ``L`` of shape ``(K + 1, W)``.  ``mode='weak-ascending'`` gives
    ``L[k, w] = U(k, {w h})`` via the stay-nonnegative walk;
    ``'strict-descending'`` gives ``L[k, v] = Uhat(k, {v h})`` (columns are
    depths ``v >= 0``) via the stay-strictly-negative walk;
    ``'strict-ascending'`` via strictly positive.  ``W`` holds every height
    (or depth) reachable in ``K`` steps, so nothing reaches the absorbing
    column of :func:`_killed_step`.
    """
    sign = -1 if mode == "strict-descending" else 1
    moves = [(sign * y, float(p)) for y, p in zip(spec.steps, spec.probs)]
    width = K * max(0, max(d for d, _ in moves)) + 1
    L = np.zeros((K + 1, width + 1))
    L[0, 0] = 1.0
    for k in range(K):
        _killed_step(L[k], L[k + 1], moves, width - 1)
        if mode != "weak-ascending":
            L[k + 1, 0] = 0.0  # the strict regions exclude the start level
    return L[:, :width]


# ---------------------------------------------------------------------------
# All-epoch totals: Wiener-Hopf ladder-height factors
# ---------------------------------------------------------------------------


def green_function(spec: LatticeWalkSpec, mode: Mode, w_max: int) -> tuple[np.ndarray, np.ndarray]:
    """All-epoch ladder mass totals ``sum_k U(k, {w h})``, ``w <= w_max``, and
    a bound on the error of each: the renewal sequences, ``1 / (1 - chi)`` as
    power series, of the weak ascending height law ``chi+`` on ``0..M`` and
    the strict descending depth law ``chi-`` on ``1..m`` (steps in ``[-m,
    M]``), the Wiener-Hopf factors (Spitzer; Feller vol. II, ch. XII) of
    ``c(z) = z^m (1 - E z^xi) = (1 - chi+(z)) z^m (1 - chi-(1/z))``.  ``z = 1``
    is divided out exactly: it is a root of each factor whose law is proper
    (both at mean 0, else the one on the mean's side).  Coprime steps put no
    other root on ``|z| = 1``; the second factor, monic, has the ``m - [mean
    <= 0]`` others inside it, the first those outside.

    *Bound.*  For ``c0 = c / (z - 1)^j`` with leading coefficient ``a`` and
    ``k`` computed roots ``r_i``, the discs ``|z - r_i| <= rho_i = k |c0(r_i)|
    / |a prod_{l != i} (r_i - r_l)|`` hold the roots, one each when disjoint
    (Braess & Hadeler 1973); the residual ``|c0(r_i)|`` includes Horner's
    rounding ``2 k eps sum_j |c0_j| |r_i|^j``.  As ``l1`` is submultiplicative
    and ``||z - r||_1 = 1 + |r|``, a factor ``b (z - 1)^e prod (z - r_i)`` is
    off by at most ``beta = |b| 2^e (prod (1 + |r_i| + rho_i) (1 + k eps) -
    prod (1 + |r_i|))`` in ``l1``.  A law off by ``e`` has ``u~ - u = u * e *
    u~``, so ``|u~_w - u_w| <= A U / (1 - A)`` for ``U = max_{s <= w} u~_s``
    and ``A = beta (w + 1) U``; rounding in the series adds ``2 (d + 2) eps``
    to ``beta`` for a law on ``0..d``.  A disc that meets another or
    ``|z| = 1`` makes the bound infinite.
    """
    if mode == "strict-ascending":  # the strict descents of the mirrored walk
        mirror = LatticeWalkSpec(spec.h, tuple(-a for a in spec.steps), spec.probs, spec.rate)
        return green_function(mirror, "strict-descending", w_max)
    if math.gcd(*spec.steps) != 1:
        raise ValueError("the Wiener-Hopf route needs coprime steps")
    m, up = max(0, -min(spec.steps)), max(0, max(spec.steps))
    c = [Fraction(0)] * (m + up + 1)  # c(z), highest degree first
    c[up] += 1
    for a, p in zip(spec.steps, spec.probs):
        c[up - a] -= p
    mean = sum((a * p for a, p in zip(spec.steps, spec.probs)), Fraction(0))
    for _ in range(2 if mean == 0 else 1):
        *c, _ = accumulate(c)  # divided by z - 1: c(1) = 0, and c'(1) = 0 at mean 0
    c0 = np.array([float(x) for x in c])
    r = np.roots(c0)
    r, k, eps = r[np.argsort(np.abs(r))], r.size, np.finfo(float).eps
    gap = np.abs(r[:, None] - r[None, :]) + np.eye(k)
    resid = np.abs(np.polyval(c0, r)) + 2 * k * eps * np.polyval(np.abs(c0), np.abs(r))
    rho = k * resid / np.abs(c0[0] * gap.prod(axis=1))
    inner = m - (mean <= 0)
    certified = ((gap > rho[:, None] + rho[None, :]) | np.eye(k, dtype=bool)).all() and (
        (np.abs(r) + rho < 1)[:inner].all() and (np.abs(r) - rho > 1)[inner:].all())
    descending = mode == "strict-descending"
    side = slice(None, inner) if descending else slice(inner, None)
    lead, unit = (1.0, mean <= 0) if descending else (c0[0], mean >= 0)
    factor = lead * np.polymul(np.poly(r[side]), [1.0, -1.0][: 1 + unit]).real
    factor = factor if descending else factor[::-1]  # 1 - chi, lowest power first
    u = np.polydiv(np.eye(1, w_max + factor.size)[0], factor)[0]  # series division
    size = np.abs(r[side]) + 1.0
    beta = abs(lead) * 2**unit * (np.prod(size + rho[side]) * (1 + k * eps) - np.prod(size))
    beta = beta + 2 * (factor.size + 1) * eps if certified else math.inf
    top = np.maximum.accumulate(u)
    a = beta * np.arange(1, w_max + 2) * top
    with np.errstate(divide="ignore", invalid="ignore"):
        return u, np.where(a < 1, a * top / (1 - a), math.inf)


# ---------------------------------------------------------------------------
# Poisson / Erlang mixing
# ---------------------------------------------------------------------------


def poisson_weights(mus, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """``pmf[r, k] = P(N = k)`` and ``sf[r, k] = P(N >= k)``, ``k = 0..kmax +
    1``, for N ~ Poisson(``mus[r]``); with ``mu = rate * t``, ``sf`` holds the
    Erlang probabilities ``P(sigma_k <= t)``.

    Each row is recursed outward from its mode by the ratios ``mu / k``, so
    large ``mu`` neither overflows nor underflows, out to ``40 sqrt(mu + 1)
    + 60`` indices past ``max(mu) + kmax``, where the tail it leaves out is
    below the rounding of what it returns.  Suffix sums give ``sf``, so
    small tails keep full relative accuracy, and their total normalises
    both.
    """
    mus = np.asarray(mus, dtype=float).reshape(-1, 1)
    if (mus < 0).any():
        raise ValueError("mu must be nonnegative")
    top = float(mus.max())
    k = np.arange(int(top + 40.0 * math.sqrt(top + 1.0) + 60.0) + kmax + 1)
    mode = mus.astype(int)
    with np.errstate(divide="ignore", invalid="ignore"):
        up = np.cumprod(np.where(k > mode, mus / k, 1.0), axis=1)
        down = np.cumprod(np.where(k < mode, (k + 1) / mus, 1.0)[:, ::-1], axis=1)[:, ::-1]
    pmf = up * down  # pmf(k) / pmf(mode)
    sf = np.cumsum(pmf[:, ::-1], axis=1)[:, ::-1]
    return pmf[:, : kmax + 2] / sf[:, :1], sf[:, : kmax + 2] / sf[:, :1]


def poisson_tail_mean(mu: float, j: int) -> float:
    """``E[(N - j)^+] = mu P(N >= j) - j P(N >= j + 1)`` for N ~ Poisson(mu):
    the Erlang truncation tail ``sum_{m > j} P(N >= m)``."""
    _, sf = poisson_weights([mu], j)
    return max(float(mu * sf[0, j] - j * sf[0, j + 1]), 0.0)


def poisson_index_cap(mu: float, tail: float) -> int:
    """Smallest ``k`` that the geometric tail bound
    ``P(N >= k) <= pmf(k) (k + 1) / (k + 1 - mu)`` (valid for ``k + 1 > mu``)
    puts at or below ``tail``, N ~ Poisson(mu), for ``tail < 1/2``.

    Every ``k <= int(mu)`` has ``P(N >= k) >= 1/2``, so the search starts
    there and steps the pmf up one index at a time.  With ``mu = rate * t``
    it caps the jump count of an embedded walk: ``P(sigma_k <= t) <= tail``.
    """
    if mu == 0:
        return 1
    k = int(mu)
    logp = k * math.log(mu) - mu - math.lgamma(k + 1)
    while math.exp(logp) * (k + 1) / (k + 1 - mu) > tail:
        k += 1
        logp += math.log(mu / k)
    return k


def truncation_depth(rate: float, t: float, tol: float = 1e-10, kmin: int = 4) -> int:
    """The first K of the sequence ``max(kmin, int(mu))``, ``max(k + 4,
    int(1.3 k))``, ... whose Erlang truncation tail ``E[(N_t - K)^+]`` is at
    most ``tol`` (``mu = rate * t``); a smaller K may meet ``tol`` too."""
    mu = rate * t
    k = max(kmin, int(mu))
    while poisson_tail_mean(mu, k) > tol:
        k = max(k + 4, int(1.3 * k))
    return k


# Erlang truncation tail of a time-bin mixture: each finite bin's masses are
# off by at most this much (times 1/rate on the ascending side).
ERLANG_TOL = 1e-12


def erlang_mixture(
    spec: LatticeWalkSpec, edges: Sequence[float], mode: Mode, w_max: int
) -> tuple[np.ndarray, float]:
    """Masses ``M[bin, w]``, ``w = 0..w_max``, of a ladder renewal measure on
    the time bins ``edges``, and a deterministic bound on their total error.

    ``mode='weak-ascending'`` gives ``rate^{-1} sum_k P(sigma_{k+1} in bin)
    U(k, {w h})`` (the masses of ``V``); ``'strict-descending'`` gives
    ``sum_k P(sigma_k in bin) Uhat(k, {w h})`` (those of ``Vhat``).  The
    first bin is closed at its left edge, which must be 0, so the time atom
    ``sigma_0 = 0`` of the dual epoch-0 term belongs to it.  Epochs are cut
    at the depth :func:`truncation_depth` gives the last finite edge for
    ``ERLANG_TOL``.  An infinite last bin is completed from the all-epoch
    totals of :func:`green_function`; its bound adds their bound and
    ``ERLANG_TOL`` per height.
    """
    if mode not in ("weak-ascending", "strict-descending"):
        raise ValueError(f"no Erlang mixture for mode {mode!r}")
    edges = np.asarray(edges, dtype=float)
    if edges[0] != 0.0:
        raise ValueError("the first time edge must be 0")
    lam = spec.rate
    shift, scale = (1, 1.0 / lam) if mode == "weak-ascending" else (0, 1.0)
    finite = edges[np.isfinite(edges)]
    K = truncation_depth(lam, float(finite[-1]), ERLANG_TOL)
    L = stay_region_layers(spec, K, mode)[:, : w_max + 1]
    L = np.pad(L, ((0, 0), (0, w_max + 1 - L.shape[1])))
    # P(sigma_{k+shift} <= e) at every finite edge; the closed first bin
    # takes everything up to its right edge
    sf = poisson_weights(lam * finite, K)[1][:, shift : K + 1 + shift]
    sf[0] = 0.0
    rows = [np.maximum(np.diff(sf, axis=0) @ L, 0.0)]
    terms = [ERLANG_TOL] * (finite.size - 1)
    if finite.size < edges.size:
        g, gb = green_function(spec, mode, w_max)
        rows.append(np.maximum(g - sf[-1] @ L, 0.0)[None, :])
        terms += [b + ERLANG_TOL for b in gb]
    bound = 0.0
    for term in terms:
        bound += scale * term
    return scale * np.vstack(rows), bound


# ---------------------------------------------------------------------------
# Lattice jumps plus a positive drift: the killed walk under a moving barrier
# ---------------------------------------------------------------------------

# Poisson tail each cell's uniformized series leaves out, per unit of mass.
DRIFT_TOL = 1e-17
# Lattice steps the killed walk keeps past its barrier and the levels asked
# about; mass beyond is lost and bounded.
DRIFT_DEPTH = 96
# Most floats the stack of powers of the killed jump matrix may hold.
DRIFT_MAX_FLOATS = 1 << 22
# An unbounded horizon runs cell by cell until what is still alive can add
# at most this much; past DRIFT_MAX_CELLS it is refused.
DRIFT_TAIL = 1e-14
DRIFT_MAX_CELLS = 4096


class DriftLattice:
    """Exact tables of ``X_r = c r + h J_r``, with drift ``c > 0`` and ``J``
    the integer jump walk (rate ``lambda``) of a lattice jump law.

    Every route evolves the law of ``J`` killed on one side of a barrier that
    moves one lattice step per cell of length ``tau = h / c``.  In the frame
    that moves with the barrier the killed walk is the same continuous-time
    chain in every cell, so uniformization (Jensen 1953) gives its law at an
    offset ``o`` into a cell as ``sum_n P(N_o = n) pi P^n`` and its time
    integral over ``[0, o]`` as ``sum_n P(N_o >= n + 1) / lambda pi P^n``,
    where ``P`` is the killed jump matrix.  The states are the distances
    ``0..depth`` from the barrier plus one absorbing state that collects the
    mass lost past ``depth``.  At a cell's end the frame shifts one step:
    toward the barrier when it sits above (the mass on it creeps), away from
    it when it sits below.

    * :meth:`creep` -- ``p(t, u) = P(tau_u <= t, X_{tau_u} = u)``: the barrier
      is ``u`` above; the mass at ``J = k`` creeps at ``a_k = (u - k h) / c``.
    * :meth:`occupation` -- by time reversal ``V(t, w) = int_0^t P(inf_{q <= r}
      X_q >= 0, X_r <= w) dr``, the barrier 0 below; also ``d_H d^-_w V(t, w)``
      with ``d_H = c``.
    * :meth:`dual` -- ``Vhat(ds, dv) = delta_(0,0) + sum_{a < 0} lambda p_a
      int_ds P(sup_{q <= r} X_q < |a| h, |a| h - X_r in dv) dr``, the barrier
      ``|a| h`` above; every ``a`` shares one frame, in which the depth
      ``|a| h - X_r`` depends only on the distance and the offset.

    Each route returns a deterministic bound: the mass lost past ``depth``
    and the Poisson tails, each times the most one unit of mass can still
    add, plus, for an unbounded horizon, the same for the mass still alive.
    """

    def __init__(self, spec: ProcessSpec, reach: float = 0.0):
        """``reach``: the largest level or depth the routes will be asked
        about; the walk is kept ``DRIFT_DEPTH`` steps past it."""
        if not (spec.drift > 0 and spec.rate > 0 and isinstance(spec.jumps, DiscreteAtoms)):
            raise ValueError("the drift lattice needs positive drift and an atomic jump law")
        walk = LatticeWalkSpec.from_process(ProcessSpec(0.0, spec.rate, spec.jumps))
        self.c, self.h, self.lam = spec.drift, walk.h, walk.rate
        self.depth = DRIFT_DEPTH + max(map(abs, walk.steps)) + math.ceil(reach / self.h)
        self.tau = self.h / self.c
        self.steps = np.array(walk.steps)
        self.probs = np.array([float(p) for p in walk.probs])
        self.mean = self.c + self.lam * self.h * float(self.steps @ self.probs)
        self.n_terms = poisson_index_cap(self.lam * self.tau, DRIFT_TOL)
        if (self.n_terms + 1) * (self.depth + 2) ** 2 > DRIFT_MAX_FLOATS:
            raise ValueError("the drift lattice is too large for this process: its lattice"
                             " step is too fine, or its jumps too many per step of drift")
        self._powers: dict[int, np.ndarray] = {}

    def _power_stack(self, side: int) -> np.ndarray:
        """``P^n``, ``n = 0..n_terms``: ``side`` +1 for a barrier below (a
        step ``a`` moves the distance by ``+a``), -1 for one above.

        ``P`` has one band per step plus the absorbing column, so ``Q P`` is
        :func:`_killed_step` on the rows of ``Q``: no matrix product
        (a threaded BLAS product of this size costs more than it saves)."""
        if side not in self._powers:
            D = self.depth
            moves = [(int(side * a), p) for a, p in zip(self.steps, self.probs)]
            stack = np.zeros((self.n_terms + 1, D + 2, D + 2))
            stack[0] = np.eye(D + 2)
            for prev, cur in zip(stack, stack[1:]):
                _killed_step(prev, cur, moves, D)
            self._powers[side] = stack
        return self._powers[side]

    def _weights(self, fracs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``P(N_o = n)`` and ``P(N_o >= n + 1) / lambda`` for ``n = 0..n_terms``
        at each offset ``o = fracs * tau``, from :func:`poisson_weights`."""
        pmf, sf = poisson_weights(self.lam * self.tau * np.asarray(fracs, dtype=float),
                                  self.n_terms)
        return pmf[:, :-1], sf[:, 1:] / self.lam

    def _split(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cell index and offset fraction in (0, 1] of each time ``r``; a
        time 0 gets cell -1."""
        q = np.asarray(r, dtype=float) / self.tau
        cell = np.ceil(np.round(q, 12)).astype(int) - 1
        return cell, np.round(q - cell, 12)

    def _evolve(self, side, pi0, end, cells, tail=None):
        """Start laws of each cell, the mass the end-of-cell shifts move over
        the barrier, and the mass lost past ``depth``.

        ``end`` holds the end operators of the first and of every later cell.
        ``cells`` is a count, or None for an unbounded horizon: then the walk
        runs until ``tail(pi)`` is at most ``DRIFT_TAIL``.
        """
        D = self.depth
        starts, out = [], []
        pi = np.zeros(D + 2)
        pi[: pi0.size] = pi0
        while cells is None or len(starts) < cells:
            if cells is None and tail(pi) <= DRIFT_TAIL:
                break
            if len(starts) >= DRIFT_MAX_CELLS:
                raise ValueError(f"the drift lattice needs more than {DRIFT_MAX_CELLS} cells")
            starts.append(pi)
            e = pi @ end[min(len(out), 1)]
            pi = np.zeros(D + 2)
            pi[D + 1] = e[D + 1]
            if side > 0:
                pi[1 : D + 1] = e[:D]
                pi[D + 1] += e[D]
                out.append(0.0)
            else:
                pi[:D] = e[1 : D + 1]
                out.append(e[0])
        return np.array(starts).reshape(-1, D + 2), np.array(out), pi

    def creep(self, u: float, t_values: Sequence[float]) -> tuple[np.ndarray, float]:
        """``p(t, u)`` at each ``t`` (``inf`` allowed) and a bound on its error."""
        if not (u > 0):
            raise ValueError("the creep level must be positive")
        t = np.asarray(t_values, dtype=float)
        k0, first = self._split(np.array([u / self.c]))
        k0, first = int(k0[0]), float(first[0])
        if k0 > self.depth:
            raise ValueError("the creep level lies past the lattice depth")
        pi0 = np.zeros(k0 + 1)
        pi0[k0] = 1.0
        pmf, _ = self._weights(np.array([first, 1.0]))
        state = np.tensordot(pmf, self._power_stack(-1), 1)
        fin = t[np.isfinite(t)]
        # creeping times first * tau + i * tau, i = 0, 1, ...
        last = np.floor(np.round(fin / self.tau - first, 12)).astype(int)
        n_cells = int(last.max()) + 1 if fin.size and last.max() >= 0 else 0
        unbounded = fin.size < t.size
        _, out, pi = self._evolve(-1, pi0, state, None if unbounded else n_cells,
                                  tail=lambda p: p[:-1].sum())
        cum = np.concatenate([[0.0], np.cumsum(out)])
        p = np.where(np.isfinite(t), 0.0, cum[-1])
        p[np.isfinite(t)] = cum[np.clip(last + 1, 0, out.size)]
        # each unit of lost or left-out mass creeps at most once
        bound = pi[-1] + out.size * DRIFT_TOL + (pi[:-1].sum() if unbounded else 0.0)
        return p, float(bound)

    def _cells(self, side, pi0, times, fracs, width, tail):
        """What the full-cell routes read, over the horizon ``times`` needs
        (an ``inf`` among them: until ``tail`` is small), for the distances
        below ``width``: the integrals ``G[i, m, x]`` over ``[0, fracs[m]
        tau]`` of cell ``i``, their exclusive running sums ``C[i, m, x] =
        sum_{y < x} G[i, m, y]`` (``x <= width``), the state laws ``S``, the
        integrals of all live mass ``T[i, m]``, the mass lost by the end of
        each cell, and the law after the last cell."""
        stack = self._power_stack(side)
        pmf, sf = self._weights(fracs)
        fin = times[np.isfinite(times)]
        cells = None if fin.size < times.size else max(int(self._split(fin)[0].max()) + 1, 1)
        end = np.tensordot(pmf[-1], stack, 1)
        starts, _, pi = self._evolve(side, pi0, (end, end), cells, tail)
        few = stack[:, :, :width]
        G = np.tensordot(starts, np.tensordot(sf, few, 1), (1, 1))
        S = np.tensordot(starts, np.tensordot(pmf, few, 1), (1, 1))
        T = starts @ np.tensordot(sf, stack[:, :, :-1].sum(axis=2), 1).T
        C = np.concatenate([np.zeros(G.shape[:2] + (1,)), np.cumsum(G, axis=2)], axis=2)
        lost = np.append(starts[1:, -1], pi[-1])
        return G, C, S, T, lost, pi

    def _locate(self, times: np.ndarray, fracs: np.ndarray, n_cells: int):
        """Cell (``n_cells`` for ``inf``, -1 for 0) and offset index of each time."""
        cell, frac = self._split(np.where(np.isfinite(times), times, 0.0))
        cell = np.where(np.isfinite(times), cell, n_cells)
        return cell, np.searchsorted(fracs, frac)

    @staticmethod
    def _distinct(*parts) -> np.ndarray:
        """The sorted distinct values of ``parts``: ``np.unique`` without its
        ``numpy.ma`` import (about 10 ms)."""
        x = np.sort(np.concatenate(parts))
        return x[np.append(True, x[1:] != x[:-1])]

    @staticmethod
    def _through(full: np.ndarray, part: np.ndarray, cell: np.ndarray) -> np.ndarray:
        """Totals up to each time: the ``full`` cells (cells x values) before
        its ``cell`` plus its ``part`` (times x values) of that cell."""
        run = np.concatenate([np.zeros((1, full.shape[1])), np.cumsum(full, axis=0)])
        inside = ((cell >= 0) & (cell < full.shape[0]))[:, None]
        return run[np.clip(cell, 0, full.shape[0])] + np.where(inside, part, 0.0)

    def _chernoff(self) -> tuple[float, float]:
        """``(theta, kappa)`` with ``E e^{-theta (X_r - X_0)} = e^{-kappa r}``
        and ``kappa`` the largest a grid finds, positive for a positive mean:
        then ``P(X_r <= w) <= e^{theta (w - X_0)} e^{-kappa r}``."""
        thetas = np.linspace(0.0, 4.0, 4001)[1:] / self.h
        kappa = thetas * self.c - self.lam * (
            np.exp(-np.outer(thetas, self.steps) * self.h) @ self.probs - 1.0)
        best = int(np.argmax(kappa))
        return float(thetas[best]), float(kappa[best])

    def occupation(self, t_values: Sequence[float], w_values: Sequence[float]
                   ) -> tuple[np.ndarray, np.ndarray, float]:
        """``V(t, w)`` and ``d_H d^-_w V(t, w)`` on the grid ``t_values`` x
        ``w_values`` (``0 <= w < depth h``; ``t = inf`` allowed for ``V``, where
        the derivative reads NaN), and one bound on every entry's error."""
        t = np.asarray(t_values, dtype=float)
        w = np.asarray(w_values, dtype=float)
        if (w < 0).any() or not (w.max() < self.depth * self.h):
            raise ValueError("levels must lie in [0, depth * h)")
        # the distance z whose hit time (w - h z) / c falls in (0, tau]
        zw = np.ceil(np.round(w / self.h, 12)).astype(int) - 1
        ow = np.round(w / self.h - zw, 12)
        fin = np.isfinite(t)
        fracs = self._distinct(ow, self._split(t[fin])[1], [1.0])
        if self.mean > 0:
            # from height x, P(X_r <= w) <= g(x) e^{-kappa r}: at most
            # g(x) / kappa time at or below w, and at most g(x) / (1 -
            # e^{-kappa tau}) visits at creeping times, which lie tau apart
            theta, kappa = self._chernoff()
            g = np.exp(theta * (w.max() - self.h * np.arange(self.depth + 2)))
            per_time, per_hit = g / kappa, g / -math.expm1(-kappa * self.tau)
            tail = lambda p: p[:-1] @ per_time[:-1]
        elif fin.all():
            per_time = per_hit = np.full(self.depth + 2, np.inf)
            tail = None
        else:
            raise ValueError("an unbounded horizon needs a positive mean")
        G, C, S, _, lost, pi = self._cells(+1, np.ones(1), t, fracs, int(zw.max()) + 1, tail)
        cell, mt = self._locate(t, fracs, G.shape[0])
        ci = np.clip(cell, 0, G.shape[0] - 1)[:, None]
        mw, z, on = np.searchsorted(fracs, ow), np.maximum(zw, 0), zw >= 0
        full = np.where(on, C[:, -1, z] + G[:, mw, z], 0.0)
        part = np.where(on, C[ci, mt[:, None], z] + G[ci, np.minimum(mw, mt[:, None]), z], 0.0)
        V = self._through(full, part, cell)
        # the mass at z when the level w is crept at (i + frac_w) tau
        hits = np.where(on, S[:, mw, z], 0.0)
        dV = self._through(hits, np.where(on & (mw <= mt[:, None]), S[ci, mw, z], 0.0), cell)
        dV[~fin] = np.nan
        # a unit of mass lost past depth (above h (depth + 1)) or left out of
        # a series (above 0) adds to V at most the time left or per_time,
        # and to the derivative one hit per cell or per_hit
        n = np.minimum(cell, G.shape[0] - 1) + 1
        span, left_out = np.where(fin, t, np.inf), n * DRIFT_TOL
        err = (lost[n - 1] * np.minimum(span, per_time[-1])
               + left_out * (np.minimum(span, per_time[0]) + self.tau))
        err_hits = np.where(fin, lost[n - 1] * np.minimum(n, per_hit[-1])
                            + left_out * np.minimum(n, per_hit[0]), 0.0)
        if tail is not None and not fin.all():
            err = np.where(fin, err, err + tail(pi))
        bound = float(max(err.max(), err_hits.max()))
        return V, dV, bound

    def dual(self, s_edges: Sequence[float], v_edges: Sequence[float]
             ) -> tuple[np.ndarray, float, float]:
        """``Vhat`` masses on the (time, depth) bin grid: the origin in the
        first cell, cells ``(lo, hi]`` otherwise, the last time edge may be
        ``inf``.  Returns the masses, a bound on their total
        error (each mass is at most its true value), and the mass past the
        last depth edge within the time grid."""
        s = np.asarray(s_edges, dtype=float)
        v = np.asarray(v_edges, dtype=float)
        if s[0] != 0.0 or v[0] != 0.0 or not (v[-1] < self.depth * self.h):
            raise ValueError("the grid must start at (0, 0) and end before depth * h")
        # depth h (1 + x) - c o at distance x and offset o: at most v for
        # x < x_v, over [frac_v tau, tau] for x = x_v, never past it
        xv = np.floor(np.round(v / self.h, 12)).astype(int)
        ov = np.round(1.0 + xv - v / self.h, 12)
        fracs = self._distinct(ov, self._split(s[np.isfinite(s)])[1], [1.0])
        neg = self.steps < 0
        pi0 = np.zeros(int(-self.steps.min()) if neg.any() else 1)
        np.add.at(pi0, -self.steps[neg] - 1, self.lam * self.probs[neg])
        D, fin = self.depth, np.isfinite(s).all()
        if self.mean > 0:
            # Wald: from distance x the barrier is passed within
            # h (x + 1 + largest up-step) / mean expected time
            wald = self.h * (np.arange(D - min(self.steps.min(), 0) + 1) + 1
                             + max(self.steps.max(), 0)) / self.mean
            tail = lambda p: p[:-1] @ wald[: D + 1]
        elif fin:
            wald, tail = np.full(D + 1, np.inf), None
        else:
            raise ValueError("an unbounded horizon needs a positive mean")
        G, C, _, T, lost, pi = self._cells(-1, pi0, s, fracs, int(xv.max()) + 1, tail)
        cell, ms = self._locate(s, fracs, G.shape[0])
        ci = np.clip(cell, 0, G.shape[0] - 1)[:, None]
        mv = np.searchsorted(fracs, ov)
        full = np.concatenate([C[:, -1, xv + 1] - G[:, mv, xv], T[:, -1:]], axis=1)
        part = np.concatenate([C[ci, ms[:, None], xv + 1] - G[ci, np.minimum(mv, ms[:, None]), xv],
                               T[ci[:, 0], ms][:, None]], axis=1)
        F = self._through(full, part, cell)  # Vhat without the origin, [0, s] x [0, v]
        mass = np.diff(np.diff(F[:, :-1], axis=0), axis=1)
        mass[0, 0] += 1.0
        dropped = float(F[-1, -1] - F[-1, -2])
        # a unit of mass lost past depth (by at most the largest down-step)
        # or left out of a series adds at most the time it has left, or the
        # Wald time from where it is
        left_out = G.shape[0] * DRIFT_TOL * float(pi0.sum())
        bound = (lost[-1] * min(s[-1], wald[-1]) + left_out * (min(s[-1], wald[D]) + self.tau)
                 + (0.0 if fin else tail(pi)))
        return mass, float(bound), dropped
