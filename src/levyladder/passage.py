"""Exact path-level Monte Carlo of first passage, creeping and ladder jumps.

All engines are vectorised over paths but exact in law: inter-jump gaps are
the realised exponential variates (the zero-drift walk draws their exact
Gamma sums instead) and every event (creeping, passage by jump, killing) is
resolved by algebraic comparison of exact quantities, never by epsilon
tolerances.  Hitting a level exactly by a jump does *not*
trigger passage (the passage time takes a strict inequality), and the
almost-surely-null event "creep after a jump landed exactly on the level"
has an explicit code path that is counted by a never-observed monitor
rather than being defined away.

Each engine steps its paths one jump at a time through
:func:`levyladder.processes.walk`, which owns the stepping protocol, and
keeps only its two hooks: what happens before the next jump (creeping is
detected there, by comparing the drift crossing time with the next jump
time) and what the jump does.  A zero-drift compound Poisson passage is the
exception.  Its path is constant between jumps, so every event happens at a
jump, and its jump chain is a random walk independent of the i.i.d.
exponential jump times.  So the walk is simulated alone, block stepped:
each step draws ``B = max(1, DRAWS // m)`` jumps for each of the ``m``
active paths, so wide sets step one jump at a time and the small tail
thousands.  Cumulative sums give the positions, a running maximum gives
``M_{k-1}``, and an argmax gives the passage jump ``K``; the index ``G`` of
the jump that leaves the last maximum comes along.  This is exact in law:
``K`` is a stopping time of the i.i.d. jumps, so the jumps drawn after it
are discarded without biasing the stopped walk, and the sums start from the
carried state so every float is the one a single-jump loop would compute.
``B`` only decides how many variates one numpy call draws; fed the same
per-path jumps, every block size gives identical records.  The times then
come from the embedding: jump ``G`` happens at ``t ~ Gamma(G, 1/rate)`` and
jump ``K`` an independent ``s ~ Gamma(K - G, 1/rate)`` later, and the path
is censored iff ``tau = t + s`` exceeds the time cap.  The time cap also
caps the walk: a path that has not passed by jump ``k_cap`` is censored,
where ``k_cap`` is the first index whose Poisson tail bound puts
``P(sigma_{k_cap} <= cap)`` at or below ``K_CAP_TAIL``, which thus bounds
the passage mass this censors.

Monitors accumulated by the engines:

* ``creep_with_undershoot`` -- a creeping passage with ``X_{tau-} < u``
  (null by the last-jump lemma for finite-activity paths).
* ``biv_z_jump_y_flat``     -- passage of a bivariate subordinator at which
  ``Z`` jumps but ``Y`` does not (null by the compensation-formula lemma).
* ``biv_jump_to_level``     -- a jump of ``Y`` landing exactly on the level
  with positive drift (null: the level is then hit continuously later).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .processes import BivariateSubordinatorSpec, ProcessSpec, walk
from .results import (
    CheckReport, EstimateWithError, binomial_estimate, concatenate, merge_monitors, write_csv,
)
from .rng import RngPolicy, chunked_map
from . import rw_ladder as rl

__all__ = [
    "PassageRecord",
    "PassageBatch",
    "sample_passages",
    "estimate_p",
    "SubPassageRecord",
    "SubPassageBatch",
    "sample_biv_passages",
    "LadderJumpBatch",
    "sample_ladder_jumps",
    "kappa_from_ladder",
    "kappa_diff_from_ladder",
    "AlphaBatch",
    "sample_alpha",
]

# Jumps drawn per block step of the zero-drift walk, summed over the active
# paths: each (m, B) float64 block is 256 KB.  On 4 x 16384 P3 paths at cap
# 5e4 this was the fastest of 8192..131072, at a peak RSS of 66-68 MB
# (69 MB at 8192).
DRAWS = 32768

# Bound on P(Poisson(rate * cap) >= k_cap): the chance that a zero-drift
# path censored for not passing by jump k_cap would have passed by the cap.
K_CAP_TAIL = 1e-15


# ---------------------------------------------------------------------------
# First passage of a Levy fixture
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PassageRecord:
    """First-passage data of one path over level ``u``.

    ``tau`` is ``inf`` (with ``censored=True``) when the horizon cap was hit
    first.  The five passage variables are exposed as properties:
    overshoot ``x``, undershoot ``v``, undershoot of the last maximum ``y``,
    time since the last maximum ``s`` and time of the last maximum ``t``.
    """

    u: float
    tau: float
    x_at: float
    x_before: float
    max_before: float
    g_before: float
    creep: bool
    censored: bool = False

    def __post_init__(self) -> None:
        if self.censored:
            return
        if not (self.x_before <= self.max_before <= self.u):
            raise ValueError("record violates X_before <= max_before <= u")
        if self.g_before > self.tau:
            raise ValueError("record violates G_before <= tau")
        if self.creep and self.x_at != self.u:
            raise ValueError("creeping record must have X_at == u")

    @property
    def x(self) -> float:
        return self.x_at - self.u

    @property
    def v(self) -> float:
        return self.u - self.x_before

    @property
    def y(self) -> float:
        return self.u - self.max_before

    @property
    def s(self) -> float:
        return self.tau - self.g_before

    @property
    def t(self) -> float:
        return self.g_before


@dataclass
class PassageBatch:
    """Struct-of-arrays batch of passage records at a common level."""

    u: float
    cap: float
    tau: np.ndarray
    x_at: np.ndarray
    x_before: np.ndarray
    max_before: np.ndarray
    g_before: np.ndarray
    creep: np.ndarray
    censored: np.ndarray
    monitors: dict[str, int] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.tau.size

    @property
    def resolved(self) -> np.ndarray:
        return ~self.censored

    @property
    def censored_mass(self) -> float:
        return float(self.censored.mean()) if self.n else 0.0

    def quintuple(self) -> tuple[np.ndarray, ...]:
        """Arrays (x, v, y, s, t) over resolved records."""
        r = self.resolved
        x = self.x_at[r] - self.u
        v = self.u - self.x_before[r]
        y = self.u - self.max_before[r]
        s = self.tau[r] - self.g_before[r]
        t = self.g_before[r]
        return x, v, y, s, t

    def record(self, i: int) -> PassageRecord:
        return PassageRecord(
            self.u,
            float(self.tau[i]),
            float(self.x_at[i]),
            float(self.x_before[i]),
            float(self.max_before[i]),
            float(self.g_before[i]),
            bool(self.creep[i]),
            bool(self.censored[i]),
        )

    def validate(self) -> None:
        """Structural invariants that hold for every resolved record."""
        r = self.resolved
        if not r.any():
            return
        x, v, y, s, t = self.quintuple()
        bad = (
            (self.x_before[r] > self.max_before[r])
            | (self.max_before[r] > self.u)
            | (x < 0)
            | (y < -0.0)
            | (y > np.minimum(self.u, v))
            | (s < 0)
            | (t < 0)
            | (self.creep[r] & (self.x_at[r] != self.u))
        )
        if bad.any():
            raise RuntimeError("passage batch violates quintuple support constraints")

    def to_csv(self, path: str) -> None:
        x = self.x_at - self.u
        v = self.u - self.x_before
        y = self.u - self.max_before
        s = self.tau - self.g_before
        t = self.g_before
        rows = zip(
            [self.u] * self.n, self.tau, x, v, y, s, t,
            self.creep.astype(int), self.censored.astype(int),
        )
        write_csv(path, ["u", "tau", "x", "v", "y", "s", "t", "creep", "censored"], rows)


def _unresolved(u: float, cap: float, n: int) -> PassageBatch:
    """Batch of ``n`` records still to be resolved: every field unset."""
    return PassageBatch(
        u, cap, np.full(n, np.inf), np.full(n, np.nan), np.full(n, np.nan),
        np.full(n, np.nan), np.full(n, np.nan), np.zeros(n, dtype=bool),
        np.zeros(n, dtype=bool), {"creep_with_undershoot": 0},
    )


def _zero_drift_block(k, J, M, G, jumps, u, k_cap):
    """Resolve the next ``B`` jumps of ``m`` zero-drift walks at once.

    ``k, J, M, G`` (length ``m``) hold each walk's jump count, position,
    running maximum and the index of the jump that left its last maximum.
    ``jumps`` (shape ``(m, B)``) holds its next ``B`` jump sizes, which are
    jumps ``k + 1, ..., k + B``.  A walk that has not passed the level ``u``
    by jump ``k_cap`` is censored.  The inputs are not modified.

    Returns ``(passed, censored, record, carry)``: per-walk flags, the
    passage fields ``(K, x_at, x_before, max_before, G)`` with ``K`` the
    index of the passage jump (valid on passed walks) and the state
    ``(k, J, M, G)`` after the block (valid on walks that are neither passed
    nor censored).
    """
    m, B = jumps.shape
    rows = np.arange(m)
    # accumulating from the carried state in column 0 adds in the same order
    # as one jump at a time, so every float is independent of B
    W = jumps.copy()
    W[:, 0] += J
    np.cumsum(W, axis=1, out=W)  # positions just after each jump
    M_pre = np.empty_like(W)
    M_pre[:, 0] = M  # J <= M
    M_pre[:, 1:] = W[:, :-1]
    np.maximum.accumulate(M_pre, axis=1, out=M_pre)  # running maximum before each jump

    up = W > u
    k_up = up.argmax(axis=1)
    k_up[~up[rows, k_up]] = B
    room = k_cap - k  # jumps left before the index cap
    passed = k_up < np.minimum(room, B)
    censored = ~passed & (room <= B)
    j = np.minimum(k_up, B - 1)  # last jump each walk takes in this block

    # a walk sitting at its maximum departs from it at the next jump; take
    # the last such departure up to jump j, else the carried one
    at_max = np.empty((m, B), dtype=bool)
    np.equal(J, M, out=at_max[:, 0])
    np.equal(W[:, :-1], M_pre[:, 1:], out=at_max[:, 1:])
    at_max &= np.arange(B) <= j[:, None]
    last = B - 1 - at_max[:, ::-1].argmax(axis=1)
    g = np.where(at_max[rows, last], k + 1 + last, G)

    x_before = np.where(j > 0, W[rows, j - 1], J)
    record = (k + 1 + j, W[rows, j], x_before, M_pre[rows, j], g)
    carry = (k + B, W[:, -1], np.maximum(M_pre[:, -1], W[:, -1]), g)
    return passed, censored, record, carry


def _walk_zero_drift(out: PassageBatch, draw, times, k_cap: int) -> None:
    """Fill ``out``: block step the jump walks, then give the passed ones
    their times.

    ``draw(active)`` returns the next block of jumps, one row per active
    path index.  ``times(K, G)`` returns the time ``t`` of jump ``G`` and
    the time ``s`` from it to jump ``K``, one pair per passed path.  A path
    whose passage time ``t + s`` exceeds ``out.cap`` is censored.
    """
    n = out.n
    active = np.arange(n)
    k, G = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    J, M = np.zeros(n), np.zeros(n)
    found = (np.zeros(n, dtype=np.int64), out.x_at, out.x_before, out.max_before,
             np.zeros(n, dtype=np.int64))
    while active.size:
        passed, censored, record, carry = _zero_drift_block(
            k, J, M, G, draw(active), out.u, k_cap
        )
        fin = active[passed]
        for dest, val in zip(found, record):
            dest[fin] = val[passed]
        out.censored[active[censored]] = True
        keep = ~(passed | censored)
        active = active[keep]
        k, J, M, G = (a[keep] for a in carry)

    K, G = found[0], found[4]
    fin = np.flatnonzero(K)
    t, s = times(K[fin], G[fin])
    tau = t + s
    late = tau > out.cap
    out.censored[fin[late]] = True
    for dest in (out.x_at, out.x_before, out.max_before):
        dest[fin[late]] = np.nan
    ok = ~late
    out.tau[fin[ok]] = tau[ok]
    out.g_before[fin[ok]] = t[ok]


def _passage_chunk(spec: ProcessSpec, u: float, cap: float, n: int, rng) -> PassageBatch:
    c = spec.drift
    lam = spec.rate
    out = _unresolved(u, cap, n)
    tau, x_at, x_before, max_before = out.tau, out.x_at, out.x_before, out.max_before
    g_before, creep, censored, monitors = out.g_before, out.creep, out.censored, out.monitors

    if c == 0:
        def draw(active):
            m = active.size
            B = max(1, DRAWS // m)
            return spec.sample_jumps(rng, m * B).reshape(m, B)

        def times(K, G):
            t = rng.gamma(G, 1.0 / lam)
            return t, rng.gamma(K - G, 1.0 / lam)

        k_cap = rl.poisson_index_cap(lam * cap, K_CAP_TAIL) if math.isfinite(cap) else sys.maxsize
        _walk_zero_drift(out, draw, times, k_cap)
        out.validate()
        return out
    if lam == 0 and c < 0:
        censored[:] = True  # drifting away from u, whatever the cap
        return out

    sigma = np.zeros(n)  # time of the last jump processed
    J = np.zeros(n)      # sum of jumps so far
    M = np.zeros(n)      # running maximum over [0, sigma] plus resolved segment suprema
    G = np.zeros(n)      # last time at the running maximum

    def before(active, g):
        # creeping iff the drift line reaches u strictly before the jump
        sig_next = sigma[active] + g
        t_creep = (u - J[active]) / c
        hits = (t_creep < sig_next) & (c > 0)
        cens = np.where(hits, t_creep, sig_next) > cap
        ok = hits & ~cens
        fin = active[ok]
        tau[fin] = g_before[fin] = t_creep[ok]
        x_at[fin] = x_before[fin] = max_before[fin] = u
        creep[fin] = True
        censored[active[cens]] = True
        return ~(hits | cens)

    def after(active, g, Y):
        sig_next = sigma[active] + g
        w_pre = c * sig_next + J[active]
        # maximum/G bookkeeping for the segment ending at this jump
        if c > 0:
            upd = w_pre > M[active]
            ii = active[upd]
            M[ii] = w_pre[upd]
            G[ii] = sig_next[upd]
        w_land = w_pre + Y
        # a jump landing exactly on u passes too when the drift is upward:
        # the passage time is now and X_{tau} = u, a creep with undershoot
        # (null event, monitored)
        inst = (w_land == u) & (c > 0)
        done = (w_land > u) | inst
        fin = active[done]
        tau[fin] = sig_next[done]
        x_at[fin] = w_land[done]
        x_before[fin] = w_pre[done]
        max_before[fin] = M[fin]
        g_before[fin] = G[fin]
        creep[active[inst]] = True
        monitors["creep_with_undershoot"] += int(inst.sum())
        cont = ~done
        ii = active[cont]
        J[ii] += Y[cont]
        sigma[ii] = sig_next[cont]
        wl = w_land[cont]
        newmax = wl > M[ii]
        jj = ii[newmax]
        M[jj] = wl[newmax]
        G[jj] = sig_next[cont][newmax]
        return cont

    walk(np.arange(n), lam, rng, spec.sample_jumps, before, after)
    out.validate()
    return out


def sample_passages(
    spec: ProcessSpec,
    u: float,
    cap: float,
    n: int,
    policy: RngPolicy,
    workers: int = 1,
) -> PassageBatch:
    """Batch of ``n`` independent passage records, deterministic per policy."""
    if not (u > 0):
        raise ValueError("level u must be positive")
    parts = chunked_map(
        lambda i, m, rng: _passage_chunk(spec, u, cap, m, rng), n, policy, workers
    )
    return concatenate(parts)


def estimate_p(
    spec: ProcessSpec,
    t: float,
    u: float,
    n: int,
    policy: RngPolicy,
    workers: int = 1,
) -> tuple[EstimateWithError, dict[str, int]]:
    """MC estimate of ``p(t, u) = P(tau_u <= t, X_{tau_u} = u)``.

    The horizon cap equals ``t``, so the binomial estimate is censoring-free:
    any path capped at ``t`` simply did not creep by ``t``.
    """
    if not (t > 0 and u > 0):
        raise ValueError("t and u must be positive")
    batch = sample_passages(spec, u, cap=t, n=n, policy=policy, workers=workers)
    hits = int((batch.creep & (batch.tau <= t)).sum())
    return binomial_estimate(hits, batch.n), dict(batch.monitors)


P_ESTIMATE_COLUMNS = ("fixture", "t", "u", "p", "se", "n")


def check_p_estimate(spec: ProcessSpec, t: float, u: float | Sequence[float], n: int,
                     policy: RngPolicy, workers: int = 1, fixture: str = "") -> CheckReport:
    """:func:`estimate_p` at each level of ``u`` (one level or a list), one
    substream per level, as a report whose details hold one row per level.

    An estimate rather than an identity: there is no right side and the
    budget is infinite.  ``lhs`` is the estimate at the last level.
    """
    rows: list[dict] = []
    monitors: dict[str, int] = {}
    for level in (float(v) for v in np.atleast_1d(u)):
        est, mon = estimate_p(spec, t, level, n, policy.substream(f"u{level}"), workers)
        rows.append(dict(zip(P_ESTIMATE_COLUMNS, (fixture, t, level, est.value, est.se, est.n))))
        merge_monitors(monitors, mon)
    return CheckReport(check="p-estimate", fixture=fixture, params={"t": t, "u": u, "n": n},
                       lhs=est.value, distance=0.0, budget=math.inf,
                       n_paths=n * len(rows), details=rows, columns=P_ESTIMATE_COLUMNS,
                       monitors=monitors)


# ---------------------------------------------------------------------------
# Passage of a killed bivariate subordinator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubPassageRecord:
    """Passage data of one killed bivariate subordinator path over ``u``."""

    u: float
    T: float
    z_before: float
    dz: float
    y_before: float
    y_at: float
    killed: bool
    censored: bool = False

    @property
    def creep(self) -> bool:
        return (not self.killed) and (not self.censored) and self.y_at == self.u


@dataclass
class SubPassageBatch:
    u: float
    T: np.ndarray
    z_before: np.ndarray
    dz: np.ndarray
    y_before: np.ndarray
    y_at: np.ndarray
    killed: np.ndarray
    censored: np.ndarray
    monitors: dict[str, int] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.T.size

    @property
    def resolved(self) -> np.ndarray:
        return ~(self.killed | self.censored)

    @property
    def censored_mass(self) -> float:
        return float(self.censored.mean()) if self.n else 0.0

    @property
    def creep(self) -> np.ndarray:
        return self.resolved & (self.y_at == self.u)

    def quadruple(self) -> tuple[np.ndarray, ...]:
        """Arrays (x, y, s, t) = (overshoot, undershoot, Z-jump, Z-before)."""
        r = self.resolved
        return (
            self.y_at[r] - self.u,
            self.u - self.y_before[r],
            self.dz[r],
            self.z_before[r],
        )

    def record(self, i: int) -> SubPassageRecord:
        return SubPassageRecord(
            self.u,
            float(self.T[i]),
            float(self.z_before[i]),
            float(self.dz[i]),
            float(self.y_before[i]),
            float(self.y_at[i]),
            bool(self.killed[i]),
            bool(self.censored[i]),
        )

    def validate(self) -> None:
        r = self.resolved
        if not r.any():
            return
        if (self.y_before[r] > self.u).any() or (self.y_at[r] < self.u).any():
            raise RuntimeError("bivariate passage batch violates support constraints")


def _biv_chunk(
    spec: BivariateSubordinatorSpec, u: float, n: int, rng, s_cap: float
) -> SubPassageBatch:
    dz_drift, dy, q = spec.d_z, spec.d_y, spec.q
    rate = spec.total_rate

    T = np.full(n, np.inf)
    z_before = np.full(n, np.nan)
    dz_at = np.full(n, np.nan)
    y_before = np.full(n, np.nan)
    y_at = np.full(n, np.nan)
    killed = np.zeros(n, dtype=bool)
    censored = np.zeros(n, dtype=bool)
    monitors = {"biv_z_jump_y_flat": 0, "biv_jump_to_level": 0}
    out = SubPassageBatch(u, T, z_before, dz_at, y_before, y_at, killed, censored, monitors)

    e_life = rng.exponential(1.0 / q, n) if q > 0 else np.full(n, np.inf)
    s = np.zeros(n)
    z = np.zeros(n)
    y = np.zeros(n)

    def before(active, g):
        s_next = s[active] + g
        t_cross = s[active] + (u - y[active]) / dy if dy > 0 else np.full(active.size, np.inf)
        hits = t_cross < s_next
        die = e_life[active] < np.where(hits, t_cross, s_next)
        killed[active[die]] = True
        ok = hits & ~die
        fin = active[ok]
        thf = t_cross[ok]
        T[fin] = thf
        y_at[fin] = y_before[fin] = u
        dz_at[fin] = 0.0
        z_before[fin] = z[fin] + dz_drift * (thf - s[fin])
        over = ~(hits | die) & (s_next > s_cap)
        censored[active[over]] = True
        return ~(hits | die | over)

    def after(active, g, jump):
        jt, jx = jump
        y_pre = y[active] + dy * g
        z_pre = z[active] + dz_drift * g
        y_land = y_pre + jx
        # Y reaching u exactly at a jump instant with positive drift passes
        # now with Y_T = u (creeping).  With jx > 0 this is a jump landing on
        # the level; with jx == 0 it is the Z-jump/Y-flat null event.
        inst = (y_land == u) & (dy > 0)
        done = (y_land > u) | inst
        fin = active[done]
        T[fin] = s[fin] + g[done]
        y_before[fin] = y_pre[done]
        y_at[fin] = y_land[done]
        dz_at[fin] = jt[done]
        z_before[fin] = z_pre[done]
        jumped = jx[inst] > 0
        monitors["biv_jump_to_level"] += int(jumped.sum())
        monitors["biv_z_jump_y_flat"] += int(((~jumped) & (jt[inst] > 0)).sum())
        cont = ~done
        ii = active[cont]
        s[ii] += g[cont]
        z[ii] = z_pre[cont] + jt[cont]
        y[ii] = y_land[cont]
        return cont

    walk(np.arange(n), rate, rng, spec.sample_atoms, before, after)
    out.validate()
    return out


def sample_biv_passages(
    spec: BivariateSubordinatorSpec,
    u: float,
    n: int,
    policy: RngPolicy,
    workers: int = 1,
    s_cap: float = math.inf,
) -> SubPassageBatch:
    if not (u > 0):
        raise ValueError("level u must be positive")
    if math.isinf(s_cap) and spec.q == 0 and spec.d_y == 0:
        raise ValueError("q = 0 with d_y = 0 needs a finite cap (passage may never resolve)")
    parts = chunked_map(lambda i, m, rng: _biv_chunk(spec, u, m, rng, s_cap), n, policy, workers)
    return concatenate(parts)


# ---------------------------------------------------------------------------
# Ladder jumps of a creeping (or compound Poisson) fixture
# ---------------------------------------------------------------------------


@dataclass
class LadderJumpBatch:
    """Samples of one jump of the bivariate ladder process, i.e. draws from
    ``Pi_{L^{-1}, H} / rate``.  Censored entries are excursions that had not
    returned to the pre-jump maximum within the cap; their time component is
    recorded as ``inf``."""

    ds: np.ndarray
    dx: np.ndarray
    censored: np.ndarray
    cap: float

    @property
    def n(self) -> int:
        return self.ds.size

    @property
    def censored_mass(self) -> float:
        return float(self.censored.mean()) if self.n else 0.0


def _ladder_chunk(spec: ProcessSpec, n: int, rng, cap: float) -> LadderJumpBatch:
    c = spec.drift
    lam = spec.rate
    if c < 0:
        raise ValueError("ladder jumps require nonnegative drift")
    if lam == 0:
        raise ValueError("a pure-drift process has no ladder jumps")
    ds = np.zeros(n)
    dx = np.zeros(n)
    censored = np.zeros(n, dtype=bool)

    w = spec.sample_jumps(rng, n)  # position relative to the pre-jump maximum
    pos = w > 0
    dx[pos] = w[pos]  # jump up at the maximum: (0, Y)
    r = np.zeros(n)  # excursion time so far

    def before(active, g):
        t_hit = -w[active] / c if c > 0 else np.full(active.size, np.inf)
        back = t_hit <= g  # weak return: creeping to the maximum ends it
        fin = active[back]
        ds[fin] = r[fin] + t_hit[back]
        dx[fin] = 0.0
        return ~back

    def after(active, g, y):
        w_land = w[active] + c * g + y
        back = w_land >= 0.0  # weak return; overshoot w_land may be 0
        fin = active[back]
        ds[fin] = r[fin] + g[back]
        dx[fin] = w_land[back]
        w[active] = w_land
        r[active] += g
        over = ~back & (r[active] > cap)
        fin = active[over]
        censored[fin] = True
        ds[fin] = np.inf
        dx[fin] = np.nan
        return ~(back | over)

    walk(np.flatnonzero(~pos), lam, rng, spec.sample_jumps, before, after)
    return LadderJumpBatch(ds, dx, censored, cap)


def sample_ladder_jumps(
    spec: ProcessSpec, n: int, policy: RngPolicy, cap: float = 200.0, workers: int = 1
) -> LadderJumpBatch:
    parts = chunked_map(lambda i, m, rng: _ladder_chunk(spec, m, rng, cap), n, policy, workers)
    return concatenate(parts)


def kappa_from_ladder(
    spec: ProcessSpec, batch: LadderJumpBatch, a: float, b: float
) -> EstimateWithError:
    """Ladder-representation estimate of the Laplace exponent
    ``kappa(a, b) = a + b c + rate * E[1 - e^{-a dL - b dH}]``.

    Censored excursions contribute 1 to the expectation (they behave like
    killing); the induced bias is at most ``rate * censored_mass`` in
    general and ``rate * censored_mass * e^{-a cap}`` when ``a > 0``, which
    is reported as ``bias_bound``.
    """
    vals = np.ones(batch.n)
    res = ~batch.censored
    vals[res] = 1.0 - np.exp(-a * batch.ds[res] - b * batch.dx[res])
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(batch.n)) if batch.n > 1 else 0.0
    cm = batch.censored_mass
    bias = spec.rate * cm * (math.exp(-a * batch.cap) if a > 0 else 1.0)
    return EstimateWithError(
        a + b * spec.drift + spec.rate * mean, spec.rate * se, batch.n, cm, bias
    )


def kappa_diff_from_ladder(
    spec: ProcessSpec, batch: LadderJumpBatch, theta: float, b1: float, b2: float
) -> EstimateWithError:
    """Low-variance estimate of ``kappa(theta, b1) - kappa(theta, b2)`` from
    one ladder sample set: ``(b1 - b2) c + rate * E[e^{-theta dL}(e^{-b2 dH} -
    e^{-b1 dH})]`` (censored entries contribute 0 when ``theta > 0``)."""
    vals = np.zeros(batch.n)
    res = ~batch.censored
    et = np.exp(-theta * batch.ds[res])
    vals[res] = et * (np.exp(-b2 * batch.dx[res]) - np.exp(-b1 * batch.dx[res]))
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(batch.n)) if batch.n > 1 else 0.0
    bias = spec.rate * batch.censored_mass * (math.exp(-theta * batch.cap) if theta > 0 else 1.0)
    return EstimateWithError(
        (b1 - b2) * spec.drift + spec.rate * mean, spec.rate * se, batch.n, batch.censored_mass, bias
    )


# ---------------------------------------------------------------------------
# The alpha experiment (appendix embedding) for compound Poisson fixtures
# ---------------------------------------------------------------------------


@dataclass
class AlphaBatch:
    """Samples of ``(-X_{alpha-}, X_alpha, alpha - sigma_1)`` where ``alpha``
    is the first return of the compound Poisson path to ``[0, inf)`` after
    its first jump."""

    v: np.ndarray
    x: np.ndarray
    s: np.ndarray
    censored: np.ndarray
    time_cap: float

    @property
    def n(self) -> int:
        return self.v.size

    @property
    def censored_mass(self) -> float:
        return float(self.censored.mean()) if self.n else 0.0


def _alpha_chunk(spec: ProcessSpec, n: int, rng, time_cap: float, step_cap: int) -> AlphaBatch:
    v = np.zeros(n)
    s = np.zeros(n)
    censored = np.zeros(n, dtype=bool)
    x = spec.sample_jumps(rng, n)  # immediate return when the first jump is upward
    pos = x.copy()
    t = np.zeros(n)
    steps = 0

    def before(active, g):
        nonlocal steps
        steps += 1
        t[active] += g
        over = (t[active] > time_cap) | (steps > step_cap)
        fin = active[over]
        censored[fin] = True
        v[fin] = np.nan
        x[fin] = np.nan
        s[fin] = np.inf
        return ~over

    def after(active, g, y):
        land = pos[active] + y
        back = land >= 0.0
        fin = active[back]
        v[fin] = -pos[fin]
        x[fin] = land[back]
        s[fin] = t[fin]
        pos[active] = land
        return ~back

    walk(np.flatnonzero(pos < 0), spec.rate, rng, spec.sample_jumps, before, after)
    return AlphaBatch(v, x, s, censored, time_cap)


def sample_alpha(
    spec: ProcessSpec,
    n: int,
    policy: RngPolicy,
    time_cap: float = 50.0,
    step_cap: int = 10_000_000,
    workers: int = 1,
) -> AlphaBatch:
    if not spec.is_compound_poisson:
        raise ValueError("the alpha experiment requires a zero-drift compound Poisson fixture")
    parts = chunked_map(
        lambda i, m, rng: _alpha_chunk(spec, m, rng, time_cap, step_cap), n, policy, workers
    )
    return concatenate(parts)
