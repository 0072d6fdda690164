"""Bounded decision spaces with seeded uniform samplers.

A decision space needs a finite volume (or finite cardinality), a uniform
sampler, and a membership test.  Finite spaces additionally support
enumeration so that exact quantities (true minima, exceedance probabilities)
can be computed by brute force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from . import _rng


class SpaceError(ValueError):
    """Invalid space definition or unsupported space operation."""


@dataclass(frozen=True)
class BoxSpace:
    """Axis-aligned box with per-dimension bounds, sampled uniformly by volume."""

    lower: np.ndarray
    upper: np.ndarray

    def __init__(self, lower, upper):
        lo = np.atleast_1d(np.asarray(lower, dtype=float))
        hi = np.atleast_1d(np.asarray(upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise SpaceError("lower and upper must be 1-D arrays of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise SpaceError("box bounds must be finite")
        if not (lo < hi).all():
            raise SpaceError("each lower bound must be strictly below its upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def cardinality(self) -> int | None:
        return None

    def sample(self, seed: int, n: int, path: tuple[int, ...] = ()) -> np.ndarray:
        u = _rng.uniform_block(seed, path, n, self.dim)
        return self.lower + u * (self.upper - self.lower)

    def contains(self, decision):
        """Membership of a decision (dim,) as a bool, or of each row of a
        (k, dim) array as a (k,) bool array."""
        d = np.asarray(decision, dtype=float)
        rows = d if d.ndim == 2 else d[None]
        inside = np.zeros(len(rows), dtype=bool)
        if rows.shape[1:] == self.lower.shape:
            inside = ((rows >= self.lower) & (rows <= self.upper)).all(axis=1)
        return inside if d.ndim == 2 else bool(inside[0])

    def project(self, point) -> np.ndarray:
        """Nearest point of the box, for a point (dim,) or for each row of a
        (k, dim) array."""
        return np.minimum(np.maximum(np.asarray(point, dtype=float), self.lower),
                          self.upper)

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.lower, self.upper


@dataclass(frozen=True)
class PermutationSpace:
    """All orderings of n items; cardinality n!.

    Sampling runs one Fisher-Yates shuffle per row, driven by that row's
    fixed-width uniform block, which is exactly uniform over the n! orderings.
    """

    n_items: int

    def __post_init__(self):
        if self.n_items < 2:
            raise SpaceError("a permutation space needs at least 2 items")

    @property
    def cardinality(self) -> int:
        return math.factorial(self.n_items)

    def sample(self, seed: int, n: int, path: tuple[int, ...] = ()) -> np.ndarray:
        k = self.n_items
        u = _rng.uniform_block(seed, path, n, k - 1)
        perms = np.tile(np.arange(k), (int(n), 1))
        rows = np.arange(int(n))
        for j in range(k - 1, 0, -1):
            r = (u[:, k - 1 - j] * (j + 1)).astype(np.intp)  # uniform on 0..j
            pj = perms[rows, j].copy()
            perms[rows, j] = perms[rows, r]
            perms[rows, r] = pj
        return perms

    def contains(self, decision) -> bool:
        d = np.asarray(decision)
        return d.shape == (self.n_items,) and np.array_equal(
            np.sort(d), np.arange(self.n_items))

    def enumerate(self) -> Iterator[np.ndarray]:
        """Yield all permutations in lexicographic order, in (k, n) blocks of
        at most 7! rows."""
        return _lex_blocks(np.arange(self.n_items), ())


class TourSpace(PermutationSpace):
    """Closed tours over n waypoints, as orderings of 0..n-1.

    Sampling, membership, cardinality (n!) and ``enumerate`` are those of the
    permutation space.  A tour's cost does not change under rotation or
    reversal, so exact quantities only need one tour per class.
    """

    def enumerate_canonical(self) -> Iterator[np.ndarray]:
        """Yield one tour per rotation/reversal class, in lexicographic order:
        the (n-1)!/2 tours with 0 first and ``tour[1] < tour[-1]``.

        Each class holds exactly 2n of the n! orderings, and the
        lexicographically first ordering of a class is its canonical tour, so
        minima, first minimizers and fractions over these tours equal those
        over ``enumerate()``.  Below 3 waypoints every ordering is yielded.
        """
        n = self.n_items
        if n < 3:
            yield from self.enumerate()
            return
        for rest in PermutationSpace(n - 1).enumerate():
            rest = rest[rest[:, 0] < rest[:, -1]]
            if not len(rest):
                continue
            tours = np.zeros((len(rest), n), dtype=np.intp)
            tours[:, 1:] = rest + 1
            yield tours


# Longest suffix enumerated from one cached table, so blocks hold at most 7!
# rows.  Blocks of 8! rows (2.6 MB at n = 8) were as fast but raised the peak
# RSS of a long tsp-9 loop by 5 MiB through heap fragmentation.
_TABLE_ITEMS = 7


@lru_cache(maxsize=None)
def _lex_perms(k: int) -> np.ndarray:
    """All permutations of 0..k-1 in lexicographic order, (k!, k), read-only."""
    if k == 1:
        table = np.zeros((1, 1), dtype=np.intp)
    else:
        tail = _lex_perms(k - 1)
        items = np.arange(k)
        table = np.concatenate([
            np.column_stack([np.full(len(tail), first, dtype=np.intp),
                             np.delete(items, first)[tail]])
            for first in range(k)])
    table.setflags(write=False)
    return table


def _lex_blocks(items: np.ndarray, prefix: tuple[int, ...]) -> Iterator[np.ndarray]:
    """Every ordering of ``items`` (ascending) after ``prefix``, in
    lexicographic order, in blocks of at most 7! rows."""
    if len(items) <= _TABLE_ITEMS:
        table = _lex_perms(len(items))
        block = np.empty((len(table), len(prefix) + len(items)), dtype=np.intp)
        block[:, :len(prefix)] = prefix
        block[:, len(prefix):] = items[table]
        yield block
        return
    for i, first in enumerate(items):
        yield from _lex_blocks(np.delete(items, i), prefix + (int(first),))

