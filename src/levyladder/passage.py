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
many, and never more than the fewest any of them has left before the index
cap ``k_cap`` below.  Cumulative sums give the positions, a running maximum
gives ``M_{k-1}``, and an argmax gives the passage jump ``K``; the index
``G`` of the jump that leaves the last maximum comes along.  This is exact
in law: ``K`` is a stopping time of the i.i.d. jumps, so the jumps drawn
after it are discarded without biasing the stopped walk, and the sums start
from the carried state so every float is the one a single-jump loop would
compute.  ``B`` only decides how many variates one numpy call draws; fed
the same per-path jumps, every block size gives identical records.

A law of integer atoms (spanning at most ``LEAP_SPAN``) also leaps through
deep excursions.  A walk ``d = M - J`` below its maximum, whose largest
up-step is ``m``, cannot reach ``M`` within ``B = ceil(d / m) - 1`` jumps,
so those jumps change only its position and its jump count: when ``B >=
LEAP_MIN`` (with ``B`` capped at ``k_cap - k`` and at ``LEAP_MAX``) the
walk takes them as one draw from the law of the sum of ``B`` jumps, ``J +=
sum``, and keeps ``M`` and ``G``.  The draw is one uniform looked up in a
table of that law's CDF, one row per ``B``, so integer floats add exactly
and the records still hit lattice atoms by equality.  A deeper walk leaps
again.  Walks near their maximum step blocks of at most ``SHALLOW_BLOCK``
jumps, so the few shallow ones do not draw thousands of jumps each.  Other
laws only block step.  The times then come from the embedding: jump ``G``
happens at ``t ~ Gamma(G, 1/rate)`` and jump ``K`` an independent ``s ~
Gamma(K - G, 1/rate)`` later, and the path is censored iff ``tau = t + s``
exceeds the time cap.  The time cap also caps the walk: a path that has not
passed by jump ``k_cap`` is censored, where ``k_cap`` is the first index
whose Poisson tail bound puts ``P(sigma_{k_cap} <= cap)`` at or below
``K_CAP_TAIL``, which thus bounds the passage mass this censors.

The ladder-jump engine samples one jump of the ladder process ``(L^{-1},
H)``: the excursion below the running maximum that one jump starts, up to
its weak return (by creeping or by a jump).  It also records the
undershoot of the returning jump, so for a zero-drift compound Poisson
fixture it is the appendix's alpha experiment: ``(-X_{alpha-}, X_alpha,
alpha - sigma_1)`` is ``(v, dx, ds)`` of that excursion.

Monitors accumulated by the engines:

* ``creep_with_undershoot`` -- a creeping passage with ``X_{tau-} < u``
  (null by the last-jump lemma for finite-activity paths).
* ``biv_z_jump_y_flat``     -- passage of a bivariate subordinator at which
  ``Z`` jumps but ``Y`` does not (null by the compensation-formula lemma).
* ``biv_jump_to_level``     -- a jump of ``Y`` landing exactly on the level
  with positive drift (null: the level is then hit continuously later).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .processes import BivariateSubordinatorSpec, DiscreteAtoms, ProcessSpec, walk
from .results import (
    CheckReport, EstimateWithError, binomial_estimate, fold, join_chunks, row_budgets, verdict,
)
from .rng import RngPolicy, chunked_map
from . import rw_ladder as rl

__all__ = [
    "PassageBatch",
    "passage_chunks",
    "sample_passages",
    "estimate_p",
    "SubPassageBatch",
    "biv_passage_chunks",
    "sample_biv_passages",
    "LadderJumpBatch",
    "ladder_jump_chunks",
    "sample_ladder_jumps",
    "ladder_bias",
    "kappa_from_ladder",
    "kappa_diff_from_ladder",
    "kappa_deriv_from_ladder",
]

# Jumps drawn per block step of the zero-drift walk, summed over the active
# paths: each (m, B) float64 block is 256 KB.  On 4 x 16384 P3 paths at cap
# 5e4 this was the fastest of 8192..131072, at a peak RSS of 66-68 MB
# (69 MB at 8192).
DRAWS = 32768

# Excursion leaping of the zero-drift walk, for integer-atom jump laws: a
# walk that can take at least LEAP_MIN jumps without reaching its maximum
# takes up to LEAP_MAX of them at once, as one lookup in a table of the law
# of their sum (one row per leap length), and the walks near their maximum
# step blocks of at most SHALLOW_BLOCK jumps.  Walking 4 x 16384 P3 paths
# (u = 2, cap 5e4, 2 shared vCPUs, 5 seeds twice, one multinomial draw per
# leap) took 0.62-0.89 s at (8, 256) against 0.98-1.11 s without leaping;
# LEAP_MIN 4..32 with SHALLOW_BLOCK 64..1024 all took 0.60-0.95 s, a spread
# within the host's noise.  LEAP_MAX bounds the table: P3's holds 194601
# keys (1.6 MB), built in about 12 ms on first use, and 135 of the 746159
# leaps of 4 x 16384 such paths reach it.  The table grows with the span of
# the atoms (largest minus smallest): about 1M keys (8 MB, 45 ms) at
# LEAP_SPAN = 16 and 3.9M at 64, so a wider law from a config block steps.
LEAP_MIN = 8
LEAP_MAX = 512
LEAP_SPAN = 16
SHALLOW_BLOCK = 256

# Bound on P(Poisson(rate * cap) >= k_cap): the chance that a zero-drift
# path censored for not passing by jump k_cap would have passed by the cap.
K_CAP_TAIL = 1e-15

_ONE = 2.0**53  # a 53-bit uniform times this is an exact integer

# A time or height within this relative distance of an edge counts as on it:
# horizons and boxes are closed there.
_EDGE_RTOL = 1e-12


def _closed(edge: float) -> float:
    return edge + _EDGE_RTOL * max(1.0, abs(edge))


# ---------------------------------------------------------------------------
# First passage of a Levy fixture
# ---------------------------------------------------------------------------


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
    level_creep: np.ndarray
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

    def validate(self) -> None:
        """Structural invariants that hold for every resolved record.

        They are those of :meth:`quintuple`'s ``(x, v, y, s, t)``, read on
        the whole arrays: ``0 <= y <= min(u, v)`` as ``0 <= max_before <= u``
        and ``x_before <= max_before``, ``s >= 0`` as ``tau >= g_before``; a
        censored record's NaN fields fail no comparison, and ``resolved``
        masks it.
        """
        u = self.u
        with np.errstate(invalid="ignore"):
            bad = (
                (self.x_before > self.max_before)
                | (self.max_before > u)
                | (self.x_at < u)
                | (self.max_before < 0)
                | (self.tau < self.g_before)
                | (self.g_before < 0)
                | (self.creep & (self.x_at != u))
            )
        if (bad & self.resolved).any():
            raise RuntimeError("passage batch violates quintuple support constraints")


def _unresolved(u: float, cap: float, n: int, n_below: int = 0) -> PassageBatch:
    """Batch of ``n`` records still to be resolved: every field unset."""
    return PassageBatch(
        u, cap, np.full(n, np.inf), np.full(n, np.nan), np.full(n, np.nan),
        np.full(n, np.nan), np.full(n, np.nan), np.zeros(n, dtype=bool),
        np.zeros(n, dtype=bool), np.zeros((n, n_below), dtype=bool),
        {"creep_with_undershoot": 0},
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


def _leap_length(depth: np.ndarray, top: int) -> np.ndarray:
    """How many jumps a walk ``depth`` below its maximum takes without
    reaching it, whatever they are, when none rises more than ``top``:
    ``ceil(depth / top) - 1`` (-1 at depth 0)."""
    return (depth - 1) // top


def _walk_zero_drift(out: PassageBatch, draw, times, k_cap: int, leap=None) -> None:
    """Fill ``out``: walk the jump chains, then give the passed ones their
    times.

    ``draw(active, most)`` returns the next block of jumps, one row per
    active path index and at most ``most`` columns, which is the fewest
    jumps any of them has left before ``k_cap`` (and at most
    ``SHALLOW_BLOCK`` when leaping).  ``times(K, G)`` returns the time ``t``
    of jump ``G`` and the time ``s`` from it to jump ``K``, one pair per
    passed path.  A path whose passage time ``t + s`` exceeds ``out.cap`` is
    censored.

    ``leap``, for an integer-atom law, is ``(top, sums)``: the largest
    up-step and ``sums(B)``, the sums of ``B[i]`` fresh jumps for each ``i``.
    A walk that can take ``B >= LEAP_MIN`` jumps without reaching its
    maximum (:func:`_leap_length`, capped at ``k_cap - k`` and at
    ``LEAP_MAX``) then takes them as one sum; they change only its position
    and jump count.  The others step one block.
    """
    n = out.n
    active = np.arange(n)
    k, G = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    J, M = np.zeros(n), np.zeros(n)
    found = (np.zeros(n, dtype=np.int64), out.x_at, out.x_before, out.max_before,
             np.zeros(n, dtype=np.int64))
    most = SHALLOW_BLOCK if leap is not None else sys.maxsize
    while active.size:
        done = np.zeros(active.size, dtype=bool)
        step = np.arange(active.size)  # the walks that step a block
        if leap is not None:
            top, sums = leap
            B = np.minimum(_leap_length((M - J).astype(np.int64), top),
                           np.minimum(k_cap - k, LEAP_MAX))
            deep = B >= LEAP_MIN
            if deep.any():
                J[deep] += sums(B[deep])
                k[deep] += B[deep]
                done = deep & (k == k_cap)  # censored: no passage by jump k_cap
                out.censored[active[done]] = True
                step = step[~deep]
        if step.size:
            sub, ks = active[step], k[step]
            passed, censored, record, carry = _zero_drift_block(
                ks, J[step], M[step], G[step], draw(sub, min(most, int(k_cap - ks.min()))),
                out.u, k_cap,
            )
            fin = sub[passed]
            for dest, val in zip(found, record):
                dest[fin] = val[passed]
            out.censored[sub[censored]] = True
            for a, val in zip((k, J, M, G), carry):
                a[step] = val
            done[step] = passed | censored
        keep = ~done
        active = active[keep]
        k, J, M, G = (a[keep] for a in (k, J, M, G))

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


@functools.cache
def _leap_table(law: DiscreteAtoms) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF table of the sum of ``B`` jumps of the integer-atom
    ``law``, one row for each ``B`` in ``1..LEAP_MAX`` (so whatever
    ``LEAP_MIN`` is), built on first use and shared read-only.

    Row ``B`` is the ``B``-fold convolution of the atom probabilities on the
    integer lattice, cumulated and normalised by its own total, so its last
    entry is exactly 1.  Its entries ``c`` become the exact integer keys
    ``B * 2**53 + ceil(c * 2**53)``, so a uniform ``w = k / 2**53`` finds in
    row ``B`` the count of ``c <= w``, the cell :func:`processes._cell_index`
    gives, with no rounding from the row offset.  Each row is cut to the
    entries a 53-bit uniform can reach: the left tail at or below ``2**-53``
    (whose cells only ``w = 0`` would hit; it goes to the first kept entry)
    and everything past the first entry that is exactly 1.

    Returns ``(keys, base)``: the rows' keys, stacked in order of ``B``, and
    per ``B`` the number that turns a position in ``keys`` into the sum.
    """
    vals = np.asarray(law.values).astype(np.int64)
    lo = int(vals.min())
    pmf = np.zeros(int(vals.max()) - lo + 1)
    pmf[vals - lo] = law.probs_float
    row, rows = np.ones(1), []
    base = np.zeros(LEAP_MAX + 1, dtype=np.int64)
    start = 0
    for B in range(1, LEAP_MAX + 1):
        row = np.convolve(row, pmf)  # P(sum = B * lo + j)
        cdf = np.cumsum(row)
        cdf /= cdf[-1]
        key = np.ceil(cdf * _ONE).astype(np.int64)
        a = int(np.count_nonzero(key <= 1))  # reached by no w > 0
        b = int(np.argmax(cdf == 1.0))  # no w < 1 reaches past b
        rows.append((B << 53) + key[a:b])
        base[B] = B * lo + a - start
        start += b - a
    keys = np.concatenate(rows)
    keys.flags.writeable = base.flags.writeable = False  # shared by every caller
    return keys, base


def _leaper(law, rng):
    """The ``leap`` of :func:`_walk_zero_drift` for ``law``, or None.

    Only a law of integer atoms with an up-step and a span of at most
    ``LEAP_SPAN`` leaps.  The sum of ``B <= LEAP_MAX`` jumps is then one
    uniform looked up in row ``B`` of :func:`_leap_table`; every float it
    adds is an exact integer, so the positions are ones jump-by-jump sums
    can give and the records hit lattice atoms by equality.
    """
    if not isinstance(law, DiscreteAtoms):
        return None
    vals = np.asarray(law.values)
    if not (vals.max() > 0 and vals.max() - vals.min() <= LEAP_SPAN
            and (vals == np.round(vals)).all()):
        return None

    keys, base = _leap_table(law)

    def sums(B):
        w = (B << 53) + (rng.random(B.size) * _ONE).astype(np.int64)
        return (np.searchsorted(keys, w, side="right") + base[B]).astype(float)

    return int(vals.max()), sums


def _passage_chunk(spec: ProcessSpec, u: float, cap: float, n: int, rng,
                   below: Sequence[float] = ()) -> PassageBatch:
    c = spec.drift
    lam = spec.rate
    out = _unresolved(u, cap, n, len(below))
    tau, x_at, x_before, max_before = out.tau, out.x_at, out.x_before, out.max_before
    g_before, creep, censored, monitors = out.g_before, out.creep, out.censored, out.monitors

    if c == 0:
        def draw(active, most):
            m = active.size
            B = max(1, min(DRAWS // m, most))
            return spec.sample_jumps(rng, m * B).reshape(m, B)

        def times(K, G):
            t = rng.gamma(G, 1.0 / lam)
            return t, rng.gamma(K - G, 1.0 / lam)

        k_cap = rl.poisson_index_cap(lam * cap, K_CAP_TAIL) if math.isfinite(cap) else sys.maxsize
        _walk_zero_drift(out, draw, times, k_cap, _leaper(spec.jumps, rng))
        out.validate()
        return out
    if lam == 0 and c < 0:
        censored[:] = True  # drifting away from u, whatever the cap
        return out

    sigma = np.zeros(n)  # time of the last jump processed
    J = np.zeros(n)      # sum of jumps so far
    M = np.zeros(n)      # running maximum over [0, sigma] plus resolved segment suprema
    G = np.zeros(n)      # last time at the running maximum

    # The levels ``below`` (increasing, at most u) are passed on the way to u.
    # Each path keeps a pointer to the first it has not passed; every level
    # is decided by the comparisons a walk to it alone would make, so a walk
    # to u decides them all.  Only an upward drift creeps.
    track = c > 0 and len(below) > 0
    lv = np.append(np.asarray(below, dtype=float), np.inf)
    nxt = np.zeros(n, dtype=np.int64)
    runs = []  # (paths, first, end): each path crept over levels first..end-1

    def pass_levels(active, reach, first_crept) -> int:
        # move the pointers past the first ``reach`` levels and record those
        # from ``first_crept`` on as crept; returns how many were recorded
        k = nxt[active]
        lo = np.maximum(k, first_crept)
        new = (lo < reach).nonzero()[0]
        runs.append((active[new], lo[new], reach[new]))
        nxt[active] = np.maximum(k, reach)
        return int((reach[new] - lo[new]).sum())

    def before(active, g):
        # creeping iff the drift line reaches u strictly before the jump
        sig_next = sigma[active] + g
        J_now = J[active]
        t_creep = (u - J_now) / c
        hits = (t_creep < sig_next) & (c > 0)
        if track:
            # the levels crept before the jump and by the cap, one at a time:
            # the creep time grows with the level (a path that stops here
            # never reads its pointer again)
            reach, sel = nxt[active], np.arange(active.size)
            while sel.size:
                t_level = (lv[reach[sel]] - J_now[sel]) / c
                sel = sel[((t_level < sig_next[sel]) & (t_level <= cap)).nonzero()[0]]
                reach[sel] += 1
            pass_levels(active, reach, 0)
        cens = np.where(hits, t_creep, sig_next) > cap
        ok = (hits & ~cens).nonzero()[0]
        fin = active[ok]
        tau[fin] = g_before[fin] = t_creep[ok]
        x_at[fin] = x_before[fin] = max_before[fin] = u
        creep[fin] = True
        censored[active[cens.nonzero()[0]]] = True
        return ~(hits | cens)

    def after(active, g, Y):
        sig_next = sigma[active] + g
        w_pre = c * sig_next + J[active]
        # maximum/G bookkeeping for the segment ending at this jump
        if c > 0:
            upd = (w_pre > M[active]).nonzero()[0]
            ii = active[upd]
            M[ii] = w_pre[upd]
            G[ii] = sig_next[upd]
        w_land = w_pre + Y
        # a jump landing exactly on u passes too when the drift is upward:
        # the passage time is now and X_{tau} = u, a creep with undershoot
        # (null event, monitored)
        inst = (w_land == u) & (c > 0)
        done = (w_land > u) | inst
        stop = done.nonzero()[0]
        fin = active[stop]
        tau[fin] = sig_next[stop]
        x_at[fin] = w_land[stop]
        x_before[fin] = w_pre[stop]
        max_before[fin] = M[fin]
        g_before[fin] = G[fin]
        inst = inst.nonzero()[0]
        creep[active[inst]] = True
        monitors["creep_with_undershoot"] += inst.size
        if track:
            # the levels the jump reaches; one it lands on exactly is crept,
            # as at u
            monitors["creep_with_undershoot"] += pass_levels(
                active, np.searchsorted(lv, w_land, "right"), np.searchsorted(lv, w_land))
        cont = ~done
        go = cont.nonzero()[0]
        ii = active[go]
        J[ii] += Y[go]
        sigma[ii] = sig_next[go]
        wl = w_land[go]
        newmax = (wl > M[ii]).nonzero()[0]
        jj = ii[newmax]
        M[jj] = wl[newmax]
        G[jj] = sig_next[go[newmax]]
        return cont

    walk(np.arange(n), lam, rng, spec.sample_jumps, before, after)
    if runs:
        paths, first, end = (np.concatenate(a) for a in zip(*runs))
        # +1 where a run starts and -1 past its end; a path's runs are
        # disjoint, so no (level, path) pair repeats among the starts or ends
        mark = np.zeros((lv.size, n), dtype=np.int8)
        mark[first, paths] += 1
        mark[end, paths] -= 1
        out.level_creep[:] = (np.cumsum(mark[:-1], axis=0, dtype=np.int8) > 0).T
    out.validate()
    return out


def passage_chunks(spec: ProcessSpec, u: float, cap: float, n: int, policy: RngPolicy,
                   below: Sequence[float] = ()) -> Iterator[PassageBatch]:
    """The records of :func:`sample_passages`, one chunk's batch at a time,
    drawn as the iterator is advanced."""
    if not (u > 0):
        raise ValueError("level u must be positive")
    return chunked_map(lambda i, m, rng: _passage_chunk(spec, u, cap, m, rng, below), n, policy)


def sample_passages(
    spec: ProcessSpec,
    u: float,
    cap: float,
    n: int,
    policy: RngPolicy,
    below: Sequence[float] = (),
) -> PassageBatch:
    """Batch of ``n`` independent passage records, deterministic per policy.

    ``below`` holds increasing levels at most ``u``; column ``j`` of
    ``level_creep`` marks the paths that creep over ``below[j]`` by the cap.
    They add no draws: a batch with them has the records of one without.
    """
    return join_chunks(passage_chunks(spec, u, cap, n, policy, below), n)


def estimate_p(
    spec: ProcessSpec,
    t: float,
    u: float | Sequence[float],
    n: int,
    policy: RngPolicy,
) -> tuple[EstimateWithError | list[EstimateWithError], dict[str, int]]:
    """MC estimate of ``p(t, u) = P(tau_u <= t, X_{tau_u} = u)`` at one level
    ``u``, or one estimate per level of a sequence, in its order.

    The horizon cap is ``t``, so the binomial estimate is censoring-free:
    any path capped at ``t`` simply did not creep by ``t``.  The horizon is
    closed (:func:`_closed`): a creeping time that equals ``t`` can round
    above it, as P1's ``(1.3 - 1) / 1`` does at ``t = 0.3``, and still counts.

    All levels share one walk of ``n`` paths to the highest, which passes
    every lower level on its way and decides each as a walk to it alone
    would (:func:`sample_passages`' ``below``).  So each estimate is
    unbiased, the highest is the one a single-level call gives, and the
    estimates of one call are correlated.
    """
    levels = np.atleast_1d(np.asarray(u, dtype=float))
    if not (t > 0 and (levels > 0).all()):
        raise ValueError("t and u must be positive")
    cap = _closed(t)
    order = np.argsort(levels, kind="stable")
    top, lower = order[-1], order[:-1]
    chunks = passage_chunks(spec, float(levels[top]), cap, n, policy, below=levels[lower])
    (top_hits, lower_hits), _, monitors = fold(chunks, lambda b: (
        int((b.creep & (b.tau <= cap)).sum()), b.level_creep.sum(axis=0)))
    hits = np.empty(levels.size, dtype=np.int64)
    hits[top] = top_hits
    hits[lower] = lower_hits
    ests = [binomial_estimate(int(k), n) for k in hits]
    return (ests[0] if np.ndim(u) == 0 else ests), monitors


P_ESTIMATE_COLUMNS = ("fixture", "t", "u", "p", "se", "n")


def check_p_estimate(spec: ProcessSpec, t: float, u: float | Sequence[float], n: int,
                     policy: RngPolicy, fixture: str = "") -> CheckReport:
    """:func:`estimate_p` at each level of ``u`` (one level or a list), all
    from one walk of ``n`` paths, against the creep route of a
    :class:`~levyladder.rw_ladder.DriftLattice`.

    Each level is a row (gap, binomial SE at the exact ``p``, the route's
    bound), the rows held together to ``CHECK_FAIL_RATE``.  The rows share
    their paths, so they are correlated; Sidak's bound on the chance that
    some row passes its budget holds for any dependence between centred
    normal rows, so the budget is the same as for independent rows.  A level
    with ``p = 0`` has SE 0, so one creeping path there FAILs.  The details
    hold one row per level, in the order of ``u``, with its exact ``p`` and
    budget; ``lhs`` and ``rhs`` are the values at the last level.
    """
    levels = [float(v) for v in np.atleast_1d(u)]
    lat = rl.DriftLattice(spec, reach=max(levels))
    ests, monitors = estimate_p(spec, t, levels, n, policy.substream("walk"))
    details, rows = [], []
    for level, est in zip(levels, ests):
        (p,), bound = lat.creep(level, [t])
        rows.append((abs(est.value - p), math.sqrt(p * (1.0 - p) / n), bound))
        details.append(dict(zip(P_ESTIMATE_COLUMNS + ("p_exact",),
                                (fixture, t, level, est.value, est.se, est.n, p))))
    for row, budget in zip(details, row_budgets(rows)):
        row["budget"] = budget
    dist, budget = verdict(rows)
    return CheckReport(check="p-estimate", fixture=fixture, params={"t": t, "u": u, "n": n},
                       lhs=est.value, rhs=float(p), se_lhs=rows[-1][1], distance=dist,
                       budget=budget, n_paths=n, details=details,
                       columns=P_ESTIMATE_COLUMNS + ("p_exact", "budget"), monitors=monitors)


# ---------------------------------------------------------------------------
# Passage of a killed bivariate subordinator
# ---------------------------------------------------------------------------


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
        killed[active[die.nonzero()[0]]] = True
        ok = (hits & ~die).nonzero()[0]
        fin = active[ok]
        thf = t_cross[ok]
        T[fin] = thf
        y_at[fin] = y_before[fin] = u
        dz_at[fin] = 0.0
        z_before[fin] = z[fin] + dz_drift * (thf - s[fin])
        over = ~(hits | die) & (s_next > s_cap)
        censored[active[over.nonzero()[0]]] = True
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
        stop = done.nonzero()[0]
        fin = active[stop]
        T[fin] = s[fin] + g[stop]
        y_before[fin] = y_pre[stop]
        y_at[fin] = y_land[stop]
        dz_at[fin] = jt[stop]
        z_before[fin] = z_pre[stop]
        inst = inst.nonzero()[0]
        jumped = jx[inst] > 0
        monitors["biv_jump_to_level"] += int(jumped.sum())
        monitors["biv_z_jump_y_flat"] += int(((~jumped) & (jt[inst] > 0)).sum())
        cont = ~done
        go = cont.nonzero()[0]
        ii = active[go]
        s[ii] += g[go]
        z[ii] = z_pre[go] + jt[go]
        y[ii] = y_land[go]
        return cont

    walk(np.arange(n), rate, rng, spec.sample_atoms, before, after)
    out.validate()
    return out


def biv_passage_chunks(spec: BivariateSubordinatorSpec, u: float, n: int, policy: RngPolicy,
                       s_cap: float = math.inf) -> Iterator[SubPassageBatch]:
    """The records of :func:`sample_biv_passages`, one chunk's batch at a
    time, drawn as the iterator is advanced."""
    if not (u > 0):
        raise ValueError("level u must be positive")
    if math.isinf(s_cap) and spec.q == 0 and spec.d_y == 0:
        raise ValueError("q = 0 with d_y = 0 needs a finite cap (passage may never resolve)")
    return chunked_map(lambda i, m, rng: _biv_chunk(spec, u, m, rng, s_cap), n, policy)


def sample_biv_passages(spec: BivariateSubordinatorSpec, u: float, n: int, policy: RngPolicy,
                        s_cap: float = math.inf) -> SubPassageBatch:
    return join_chunks(biv_passage_chunks(spec, u, n, policy, s_cap), n)


# ---------------------------------------------------------------------------
# Ladder jumps of a creeping (or compound Poisson) fixture
# ---------------------------------------------------------------------------


@dataclass
class LadderJumpBatch:
    """Samples of one jump ``(ds, dx)`` of the bivariate ladder process, i.e.
    draws from ``Pi_{L^{-1}, H} / rate``, with the undershoot ``v`` of the
    jump that ends the excursion (0 when the excursion ends by creeping or
    when its first jump already reaches the maximum).

    For a zero-drift compound Poisson fixture ``(v, dx, ds)`` is the triple
    ``(-X_{alpha-}, X_alpha, alpha - sigma_1)`` of the appendix embedding,
    ``alpha`` being the first return of the path to ``[0, inf)`` after its
    first jump.  Censored entries are excursions that have not returned by
    the first jump after time ``cap``, so they last longer than ``cap``:
    ``ds = inf`` and ``dx = v = nan``.  A resolved return by a jump has
    ``ds <= cap``; one by creeping may end after ``cap``, before that jump.
    """

    ds: np.ndarray
    dx: np.ndarray
    v: np.ndarray
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
    v = np.zeros(n)
    censored = np.zeros(n, dtype=bool)

    w = spec.sample_jumps(rng, n)  # position relative to the pre-jump maximum
    up = w >= 0
    dx[up] = w[up]  # the first jump reaches the maximum: (0, Y)
    r = np.zeros(n)  # excursion time up to the next jump

    def before(active, g):
        r0 = r[active]
        r1 = r0 + g
        r[active] = r1
        over = r1 > cap  # censored before the jump past the cap
        if c == 0:
            censored[active[over.nonzero()[0]]] = True
            return ~over
        t_hit = -w[active] / c
        back = t_hit <= g  # weak return: the drift reaches the maximum first
        ret = back.nonzero()[0]
        ds[active[ret]] = r0[ret] + t_hit[ret]
        over &= ~back
        censored[active[over.nonzero()[0]]] = True
        return ~(back | over)

    def after(active, g, y):
        w_pre = w[active] + c * g if c > 0 else w[active]
        w_land = w_pre + y
        back = w_land >= 0.0  # weak return; the overshoot may be 0
        ret = back.nonzero()[0]
        fin = active[ret]
        ds[fin] = r[fin]
        dx[fin] = w_land[ret]
        v[fin] = -w_pre[ret]
        w[active] = w_land
        return ~back

    walk(np.flatnonzero(~up), lam, rng, spec.sample_jumps, before, after)
    ds[censored] = np.inf
    dx[censored] = v[censored] = np.nan
    return LadderJumpBatch(ds, dx, v, censored, cap)


def ladder_jump_chunks(spec: ProcessSpec, n: int, policy: RngPolicy,
                       cap: float = 200.0) -> Iterator[LadderJumpBatch]:
    """The records of :func:`sample_ladder_jumps`, one chunk's batch at a
    time, drawn as the iterator is advanced."""
    if not math.isfinite(cap):
        raise ValueError(f"cap must be finite (an excursion may never return), got {cap}")
    return chunked_map(lambda i, m, rng: _ladder_chunk(spec, m, rng, cap), n, policy)


def sample_ladder_jumps(
    spec: ProcessSpec, n: int, policy: RngPolicy, cap: float = 200.0
) -> LadderJumpBatch:
    """Batch of ``n`` excursions below the running maximum, each started by
    one jump, censored once they outlast ``cap`` (see :class:`LadderJumpBatch`).

    Every gap and jump is drawn, so the engine is exact in law; an
    excursion of a recurrent or transient walk may never return, and the
    finite ``cap`` is what ends it.  With zero drift this is the alpha
    experiment.
    """
    return join_chunks(ladder_jump_chunks(spec, n, policy, cap), n)


def ladder_bias(spec: ProcessSpec, a: float, censored_mass: float, cap: float) -> float:
    """Bound on the bias that censored records put into the mean of a
    ``kappa_*_from_ladder`` column at time argument ``a``.  A censored
    excursion lasts longer than ``cap``, so its weight ``e^{-a dL}`` is below
    ``e^{-a cap}``: the bound is ``rate * censored_mass * e^{-a cap}`` when
    ``a > 0`` and ``rate * censored_mass`` otherwise."""
    return spec.rate * censored_mass * (math.exp(-a * cap) if a > 0 else 1.0)


def kappa_from_ladder(
    spec: ProcessSpec, batch: LadderJumpBatch, a: float, b: float
) -> np.ndarray:
    """One value per record of ``batch`` whose mean estimates the Laplace
    exponent ``kappa(a, b) = a + b c + rate * E[1 - e^{-a dL - b dH}]``.

    Censored excursions contribute 1 to the expectation (they behave like
    killing); :func:`ladder_bias` bounds what that adds.
    """
    vals = np.ones(batch.n)
    res = ~batch.censored
    vals[res] = 1.0 - np.exp(-a * batch.ds[res] - b * batch.dx[res])
    return a + b * spec.drift + spec.rate * vals


def kappa_diff_from_ladder(
    spec: ProcessSpec, batch: LadderJumpBatch, theta: float, b1: float, b2: float
) -> np.ndarray:
    """One value per record whose mean is a low-variance estimate of
    ``kappa(theta, b1) - kappa(theta, b2)`` from one ladder sample set:
    ``(b1 - b2) c + rate * E[e^{-theta dL}(e^{-b2 dH} - e^{-b1 dH})]``
    (censored entries contribute 0 when ``theta > 0``)."""
    vals = np.zeros(batch.n)
    res = ~batch.censored
    et = np.exp(-theta * batch.ds[res])
    vals[res] = et * (np.exp(-b2 * batch.dx[res]) - np.exp(-b1 * batch.dx[res]))
    return (b1 - b2) * spec.drift + spec.rate * vals


def kappa_deriv_from_ladder(
    spec: ProcessSpec, batch: LadderJumpBatch, theta: float, rho: float
) -> np.ndarray:
    """One value per record whose mean is the right derivative of kappa in
    the space argument at ``(theta, rho)``: ``c + rate E[dH e^{-theta dL -
    rho dH}]`` (censored entries contribute 0)."""
    vals = np.zeros(batch.n)
    res = ~batch.censored
    vals[res] = batch.dx[res] * np.exp(-theta * batch.ds[res] - rho * batch.dx[res])
    return spec.drift + spec.rate * vals
