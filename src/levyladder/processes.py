"""Stochastic object specifications, exact samplers and Laplace exponents.

Two families of objects are representable, both with finite jump activity so
every sampler in the package is exact (no discretisation bias):

* :class:`ProcessSpec` -- a real-valued process ``X_t = c*t + sum_{k<=N_t} Y_k``
  built from a drift ``c``, a Poisson jump rate and a jump law.  When ``c = 0``
  and the rate is positive this is a compound Poisson process, the only case
  in which the weak/strict ladder distinction matters.
* :class:`BivariateSubordinatorSpec` -- a two-dimensional subordinator
  ``(Z_s, Y_s)`` with nonnegative drifts, a finite set of nonnegative jump
  atoms and an independent exponential killing rate ``q``.

Naming note: the undershoot-of-maximum transform parameter is called ``ell``
throughout the package, because the Poisson rate already owns the name
``lambda`` in the sampling layer.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

__all__ = [
    "DiscreteAtoms",
    "ExponentialJumps",
    "UniformJumps",
    "JumpLaw",
    "ProcessSpec",
    "BivariateSubordinatorSpec",
    "kappa_biv",
    "kappa_biv_rho_derivative",
]

_PROB_TOL = 1e-12


def _cell_index(thresholds: np.ndarray, u: np.ndarray) -> np.ndarray:
    """How many of the ascending ``thresholds`` each ``u`` reaches: the index
    ``searchsorted(thresholds, u, side="right")``, counted one threshold at a
    time, which is faster for the few atoms of a jump law."""
    idx = np.zeros(u.shape, dtype=np.intp)
    for c in thresholds:
        idx += u >= c
    return idx


def _as_fraction(p: Union[int, float, Fraction]) -> Fraction:
    if isinstance(p, Fraction):
        return p
    if isinstance(p, numbers.Integral):
        return Fraction(int(p))
    return Fraction(float(p))


@dataclass(frozen=True)
class DiscreteAtoms:
    """Purely atomic jump law: values (all nonzero) with probabilities.

    Probabilities are kept as exact rationals (a user-supplied ``Fraction``
    is preserved as-is; a float is converted to its exact binary rational),
    so lattice fixtures admit exact dynamic programming downstream.
    """

    values: tuple[float, ...]
    probs: tuple[Fraction, ...]

    def __init__(self, atoms):
        values = tuple(float(v) for v, _ in atoms)
        probs = tuple(_as_fraction(p) for _, p in atoms)
        if not values:
            raise ValueError("need at least one atom")
        if any(v == 0.0 for v in values):
            raise ValueError("no atom at 0 is allowed")
        if len(set(values)) != len(values):
            raise ValueError("duplicate atom values")
        if any(p <= 0 for p in probs):
            raise ValueError("atom probabilities must be positive")
        if abs(float(sum(probs)) - 1.0) > _PROB_TOL:
            raise ValueError(f"atom probabilities sum to {float(sum(probs))}, not 1")
        order = sorted(range(len(values)), key=lambda i: values[i])
        object.__setattr__(self, "values", tuple(values[i] for i in order))
        object.__setattr__(self, "probs", tuple(probs[i] for i in order))
        # sampling table, built once: the values and the cumulative
        # probabilities that separate them (u < 1 never reaches the last, 1)
        cum = np.cumsum(self.probs_float)[:-1]
        vals = np.asarray(self.values, dtype=float)
        cum.flags.writeable = vals.flags.writeable = False
        object.__setattr__(self, "_cum", cum)
        object.__setattr__(self, "_vals", vals)

    @property
    def probs_float(self) -> np.ndarray:
        return np.array([float(p) for p in self.probs])

    def cdf(self, x: float) -> float:
        return float(sum(float(p) for v, p in zip(self.values, self.probs) if v <= x))

    def atom(self, x: float) -> float:
        for v, p in zip(self.values, self.probs):
            if v == x:
                return float(p)
        return 0.0

    def mean(self) -> float:
        return float(sum(v * float(p) for v, p in zip(self.values, self.probs)))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._vals[_cell_index(self._cum, rng.random(size))]


@dataclass(frozen=True)
class ExponentialJumps:
    """Exponential(rate) jumps with a fixed sign (+1 or -1)."""

    rate: float
    sign: int = 1

    def __post_init__(self) -> None:
        if not (self.rate > 0):
            raise ValueError("rate must be positive")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")

    def cdf(self, x: float) -> float:
        if self.sign > 0:
            return 1.0 - math.exp(-self.rate * x) if x > 0 else 0.0
        return math.exp(self.rate * x) if x < 0 else 1.0

    def atom(self, x: float) -> float:
        return 0.0

    def mean(self) -> float:
        return self.sign / self.rate

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.sign * rng.exponential(1.0 / self.rate, size)


@dataclass(frozen=True)
class UniformJumps:
    """Uniform(lo, hi) jumps; the interval must not contain 0."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (self.lo < self.hi):
            raise ValueError("need lo < hi")
        if self.lo <= 0.0 <= self.hi:
            raise ValueError("0 must not lie in [lo, hi]")

    def cdf(self, x: float) -> float:
        if x < self.lo:
            return 0.0
        if x >= self.hi:
            return 1.0
        return (x - self.lo) / (self.hi - self.lo)

    def atom(self, x: float) -> float:
        return 0.0

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size)


JumpLaw = Union[DiscreteAtoms, ExponentialJumps, UniformJumps]


@dataclass(frozen=True)
class ProcessSpec:
    """Finite-activity process ``X_t = drift * t + sum_{k <= N_t} Y_k``.

    ``rate`` is the Poisson jump intensity; the Levy measure is
    ``rate * F(dx)`` where ``F`` is the jump law, so it has finite total
    mass.  ``rate = 0`` (pure drift) is allowed only with nonzero drift.
    """

    drift: float
    rate: float
    jumps: JumpLaw | None = None

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError("rate must be nonnegative")
        if self.rate == 0 and self.drift == 0:
            raise ValueError("rate 0 requires nonzero drift (degenerate process)")
        if self.rate > 0 and self.jumps is None:
            raise ValueError("positive rate requires a jump law")

    @property
    def is_compound_poisson(self) -> bool:
        """True iff there is no drift and jumps occur (zero drift, no Brownian part)."""
        return self.drift == 0.0 and self.rate > 0

    def levy_atom(self, x: float) -> float:
        """Mass of the Levy measure at the point ``x`` (0 for continuous laws)."""
        if self.rate == 0:
            return 0.0
        return self.rate * self.jumps.atom(x)

    def sample_jumps(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.rate == 0:
            raise ValueError("pure-drift process has no jumps")
        return self.jumps.sample(rng, size)


def walk(active: np.ndarray, rate: float, rng, draw, before, after) -> None:
    """Step the finite-activity paths ``active`` (indices) jump by jump.

    Every path engine shares this protocol.  Each step draws one
    Exp(``rate``) gap per active path.  ``before(active, g)`` settles what
    happens ahead of the next jump (a drift crossing, killing, a cap or a
    guard) and returns the mask of paths that go on, or None when it
    settles none.  Only those draw a jump, one each with ``draw(rng, m)``,
    and ``after(active, g, jump)`` returns the mask of paths still active.
    ``active`` holds path indices, so the hooks keep their state in arrays
    indexed by path.  At rate 0 no jump ever comes: one step with infinite
    gaps, and nothing is drawn.
    """
    while active.size:
        if rate == 0:
            before(active, np.full(active.size, np.inf))
            return
        g = rng.exponential(1.0 / rate, active.size)
        keep = before(active, g)
        if keep is not None:
            active, g = active[keep], g[keep]
        if active.size:
            active = active[after(active, g, draw(rng, active.size))]


@dataclass(frozen=True)
class BivariateSubordinatorSpec:
    """Killed bivariate subordinator ``(Z, Y)`` with finite jump activity.

    Paths are nondecreasing in both coordinates: drifts ``d_z, d_y >= 0`` and
    every jump atom ``(dt, dx)`` has nonnegative coordinates, not both zero.
    ``q >= 0`` is the killing rate of the independent exponential lifetime.
    """

    d_z: float
    d_y: float
    q: float
    atoms: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.d_z < 0 or self.d_y < 0 or self.q < 0:
            raise ValueError("drifts and killing rate must be nonnegative")
        cleaned = []
        for dt, dx, r in self.atoms:
            dt, dx, r = float(dt), float(dx), float(r)
            if dt < 0 or dx < 0:
                raise ValueError("jump atoms must be coordinatewise nonnegative")
            if dt == 0 and dx == 0:
                raise ValueError("jump atom (0, 0) is not allowed")
            if not (r > 0) or math.isinf(r):
                raise ValueError("atom rates must be positive and finite")
            cleaned.append((dt, dx, r))
        object.__setattr__(self, "atoms", tuple(cleaned))
        # sampling table, built once: the atoms and the cumulative rate
        # shares that separate them (u < 1 never reaches the last, 1)
        dt, dx, r = self.atom_arrays()
        cum = np.cumsum(r / r.sum())[:-1] if r.size else r
        for a in (dt, dx, cum):
            a.flags.writeable = False
        object.__setattr__(self, "_table", (cum, dt, dx))

    @property
    def total_rate(self) -> float:
        return float(sum(r for _, _, r in self.atoms))

    def atom_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not self.atoms:
            return np.empty(0), np.empty(0), np.empty(0)
        a = np.asarray(self.atoms, dtype=float)
        return a[:, 0], a[:, 1], a[:, 2]

    def sample_atoms(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        cum, dt, dx = self._table
        idx = _cell_index(cum, rng.random(size))
        return dt[idx], dx[idx]


def kappa_biv(spec: BivariateSubordinatorSpec, a: float, b: float) -> float:
    """Bivariate Laplace exponent ``q + d_z a + d_y b + sum r_i (1 - e^{-a dt_i - b dx_i})``.

    Negative ``a, b`` are accepted and may produce a negative value; callers
    that require positivity must check it themselves.  The jump terms use
    expm1 so tiny positive arguments do not round to zero.
    """
    dt, dx, r = spec.atom_arrays()
    jump_part = float(np.sum(r * -np.expm1(-a * dt - b * dx))) if r.size else 0.0
    return spec.q + spec.d_z * a + spec.d_y * b + jump_part


def kappa_biv_rho_derivative(spec: BivariateSubordinatorSpec, a: float, b: float) -> float:
    """Right derivative of ``kappa_biv`` in its space argument at ``(a, b)``.

    Equals ``d_y + sum r_i dx_i e^{-a dt_i - b dx_i}``; finite for all
    ``a, b >= 0`` because the atom set is finite.
    """
    dt, dx, r = spec.atom_arrays()
    jump_part = float(np.sum(r * dx * np.exp(-a * dt - b * dx))) if r.size else 0.0
    return spec.d_y + jump_part
