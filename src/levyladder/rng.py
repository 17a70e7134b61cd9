"""Deterministic chunked random streams for reproducible Monte Carlo.

Every estimator in this package consumes randomness through an
:class:`RngPolicy`.  The stream attached to chunk ``i`` is a pure function of
``(seed, label path, i)``, so

* replaying a run with the same seed gives byte-identical results,
* the chunk boundaries, not the order of evaluation, fix the numbers,
* independent estimation routes (for example the two sides of an identity
  check) can be segregated with :meth:`RngPolicy.substream` and never share
  random numbers.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterator, TypeVar

import numpy as np

__all__ = ["RngPolicy", "chunk_sizes", "chunked_map"]

T = TypeVar("T")

_MAX_SEED = 2**63


def _label_code(label: int | str) -> int:
    if isinstance(label, bool):
        raise TypeError("labels must be ints or strings")
    if isinstance(label, int):
        if label < 0:
            raise ValueError("integer labels must be nonnegative")
        return label
    return zlib.crc32(label.encode("utf-8"))


@dataclass(frozen=True)
class RngPolicy:
    """Master seed plus a fixed chunking scheme.

    ``chunk_size`` is part of the reproducibility contract: it fixes the
    chunk boundaries of every estimator, and with them every number drawn.
    It also bounds memory: the checks fold each chunk's records into counts
    before the next chunk is drawn.
    """

    seed: int
    chunk_size: int = 16384
    path: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if not (0 <= int(self.seed) < _MAX_SEED):
            raise ValueError(f"seed must be in [0, 2**63), got {self.seed}")
        if int(self.chunk_size) <= 0:
            raise ValueError("chunk_size must be positive")

    def stream(self, index: int) -> np.random.Generator:
        """Generator for chunk ``index``: pure function of (seed, path, index)."""
        if index < 0:
            raise ValueError("chunk index must be nonnegative")
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path + (index,))
        return np.random.default_rng(ss)

    def substream(self, label: int | str) -> "RngPolicy":
        """Derived policy whose streams are disjoint from this one's.

        Use one label per estimation route so that, e.g., the LHS and RHS of
        an identity check are statistically independent.
        """
        return RngPolicy(self.seed, self.chunk_size, self.path + (_label_code(label),))


def chunk_sizes(n: int, chunk_size: int) -> list[int]:
    """Split ``n`` items into the policy's fixed chunk sizes."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    full, rest = divmod(n, chunk_size)
    out = [chunk_size] * full
    if rest:
        out.append(rest)
    return out


def chunked_map(
    fn: Callable[[int, int, np.random.Generator], T],
    n_total: int,
    policy: RngPolicy,
) -> Iterator[T]:
    """Evaluate ``fn(chunk_index, chunk_n, rng)`` over all chunks, serially.

    Results are yielded lazily, in chunk order: any reduction performed by
    the caller is deterministic, and a caller that reduces each result
    before asking for the next holds one chunk's records at a time, so
    ``policy.chunk_size`` bounds its memory as well as fixing its streams.
    The iterator can be consumed once.
    """
    sizes = chunk_sizes(n_total, policy.chunk_size)
    return (fn(i, m, policy.stream(i)) for i, m in enumerate(sizes))

