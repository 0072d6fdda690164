"""Bounded decision spaces with seeded uniform samplers.

A decision space needs a finite volume (or finite cardinality), a uniform
sampler, and a membership test.  Finite spaces additionally support
enumeration so that exact quantities (true minima, exceedance probabilities)
can be computed by brute force.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from . import _rng


# Largest cardinality any space enumerates; larger spaces are refused.
ENUMERATION_LIMIT = math.factorial(10)


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
    The last min(n, 9) swap steps touch only the first min(n, 9) positions.
    Their swap indices form one mixed-radix number per row, which picks that
    row's ordering of those positions from a cached table of every such
    shuffle (``_shuffles``).  For n > 9 the steps before them run as one swap
    pass each, over all rows at once.
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
        m = min(k, _SHUFFLE_ITEMS)
        u = _rng.uniform_block(seed, path, n, k - 1)
        order = _shuffles(m).take(_shuffle_codes(u, m), axis=0)
        if k == m:
            return order.astype(np.intp)
        perms = np.tile(np.arange(k), (int(n), 1))
        flat = perms.reshape(-1)
        row_start = np.arange(0, flat.size, k)
        for j in range(k - 1, m - 1, -1):
            r = (u[:, k - 1 - j] * (j + 1)).astype(np.intp)  # uniform on 0..j
            r += row_start
            pj = perms[:, j].copy()
            perms[:, j] = flat[r]
            flat[r] = pj
        perms[:, :m] = flat.take(order + row_start[:, None])
        return perms

    def contains(self, decision) -> bool:
        """An ordering is a 1-D integer array (bool is not an integer here)
        holding each of 0..n-1 once."""
        d = np.asarray(decision)
        return (np.issubdtype(d.dtype, np.integer) and d.shape == (self.n_items,)
                and np.array_equal(np.sort(d), np.arange(self.n_items)))

    def enumerate(self) -> Iterator[np.ndarray]:
        """Yield all permutations in lexicographic order, in (k, n) blocks of
        at most 7! rows."""
        return _lex_blocks(np.arange(self.n_items), ())


class TourSpace(PermutationSpace):
    """Closed tours over n waypoints, as orderings of 0..n-1.

    Sampling, membership, cardinality (n!) and ``enumerate`` are those of the
    permutation space.  A tour's cost does not change under rotation or
    reversal, so exact quantities only need one tour per class, and a sampled
    tour's cost is its class's (``sample_classes``).  Those canonical tours,
    and the class of each shuffle, do not depend on the waypoints: each n's
    table is built once, on first use, and shared read-only by every tour
    space of that n.
    """

    @property
    def class_sampling(self) -> bool:
        """Whether ``sample_classes`` is defined: 3 to 9 waypoints."""
        return 3 <= self.n_items <= _SHUFFLE_ITEMS

    def sample_classes(self, seed: int, n: int,
                       path: tuple[int, ...] = ()) -> np.ndarray:
        """For each row ``sample(seed, n, path)`` returns, the index of its
        canonical tour in ``enumerate_canonical`` order, uint16 (n,).

        Each row's class is read from its shuffle code in a cached table
        (``_tour_classes``), so no tour is decoded.  Each class holds 2n of
        the n! codes, so the classes of uniform codes are uniform.  The
        uniforms are drawn in blocks, so no (n, n-1) array is held.
        """
        if not self.class_sampling:
            raise SpaceError(f"sample_classes needs 3 to {_SHUFFLE_ITEMS} "
                             f"waypoints, got {self.n_items}")
        k = self.n_items
        table = _tour_classes(k)
        classes = np.empty(int(n), dtype=np.uint16)
        start = 0
        for u in _rng.uniform_blocks(seed, path, n, k - 1, _CLASS_BLOCK):
            classes[start:start + len(u)] = table.take(_shuffle_codes(u, k))
            start += len(u)
        return classes

    def enumerate_canonical(self) -> Iterator[np.ndarray]:
        """Yield one tour per rotation/reversal class, in lexicographic order:
        the (n-1)!/2 tours with 0 first and ``tour[1] < tour[-1]``.

        Each class holds exactly 2n of the n! orderings, and the
        lexicographically first ordering of a class is its canonical tour, so
        minima, first minimizers and fractions over these tours equal those
        over ``enumerate()``.  Below 3 waypoints every ordering is yielded.
        The blocks are read-only.  A space of more than ``ENUMERATION_LIMIT``
        orderings raises ``SpaceError`` and builds nothing.
        """
        if self.cardinality > ENUMERATION_LIMIT:
            raise SpaceError(f"space cardinality {self.cardinality} exceeds "
                             f"the enumeration limit {ENUMERATION_LIMIT}")
        return iter(_canonical_tours(self.n_items))


@lru_cache(maxsize=None)
def _canonical_tours(n: int) -> tuple[np.ndarray, ...]:
    """``TourSpace(n).enumerate_canonical``'s blocks, read-only."""
    if n < 3:
        blocks = list(PermutationSpace(n).enumerate())
    else:
        blocks = []
        for rest in PermutationSpace(n - 1).enumerate():
            rest = rest[rest[:, 0] < rest[:, -1]]
            if not len(rest):
                continue
            tours = np.zeros((len(rest), n), dtype=np.intp)
            tours[:, 1:] = rest + 1
            blocks.append(tours)
    for block in blocks:
        block.flags.writeable = False
    return tuple(blocks)


# Most items one shuffle table decodes.  It is a memory cap: the table holds
# 9!·9 B = 3.1 MiB at 9 items, and would hold 10!·10 B = 35 MiB at 10.
_SHUFFLE_ITEMS = 9


@lru_cache(maxsize=None)
def _shuffles(m: int) -> np.ndarray:
    """Every Fisher-Yates shuffle of 0..m-1, uint8 (m!, m), read-only.

    Row ``(...(r[m-1]·(m-1) + r[m-2])·(m-2) + ... )·2 + r[1]``, each digit
    ``r[j]`` in 0..j, is ``arange(m)`` after swapping positions j and r[j]
    for j from m-1 down to 1.  Block r[m-1] of (m-1)! rows is therefore the
    smaller table with r[m-1] appended, where each row's r[m-1] becomes m-1.
    """
    if m == 1:
        table = np.zeros((1, 1), dtype=np.uint8)
    else:
        smaller = _shuffles(m - 1)
        f = len(smaller)
        table = np.empty((m * f, m), dtype=np.uint8)
        for r in range(m):
            block = table[r * f:(r + 1) * f]
            block[:, :-1] = smaller
            block[:, -1] = r
            block[:, :-1][smaller == r] = m - 1
    table.flags.writeable = False
    return table


def _shuffle_codes(u: np.ndarray, m: int) -> np.ndarray:
    """Each row's index into ``_shuffles(m)``: the swap indices of the last
    m-1 Fisher-Yates steps, read from the row's uniforms (k-1 columns for k
    items, column k-1-j for step j) and folded into one mixed-radix number."""
    k = u.shape[1] + 1
    code = np.zeros(len(u), dtype=np.intp)
    for j in range(m - 1, 0, -1):
        code *= j + 1
        code += (u[:, k - 1 - j] * (j + 1)).astype(np.intp)  # uniform on 0..j
    return code


# Rows per block of a class table build and of ``sample_classes``, which
# keeps their temporaries under 1 MB.
_CLASS_BLOCK = 8192


@lru_cache(maxsize=None)
def _tour_classes(k: int) -> np.ndarray:
    """The class of every shuffle of ``_shuffles(k)``, as its canonical
    tour's index in ``enumerate_canonical`` order: uint16 (k!,), read-only,
    for 3 <= k <= 9 (726 KB at 9).

    A shuffle's canonical tour is the shuffle rotated to start at 0, and
    reversed after the 0 when its second stop exceeds its last.  Tours that
    start at 0 order lexicographically as their base-k numbers, so a class's
    index is its tour's number's position among the canonical tours'.
    """
    weights = k ** np.arange(k - 1, -1, -1, dtype=np.int64)
    canonical = np.concatenate([tours @ weights for tours in _canonical_tours(k)])
    shuffles = _shuffles(k)
    steps = np.arange(k, dtype=np.uint8)
    table = np.empty(len(shuffles), dtype=np.uint16)
    for start in range(0, len(shuffles), _CLASS_BLOCK):
        rows = shuffles[start:start + _CLASS_BLOCK]
        zero = rows.argmin(axis=1).astype(np.uint8)[:, None]
        forward = np.take_along_axis(rows, (zero + steps) % k, axis=1)
        backward = np.take_along_axis(rows, (zero + k - steps) % k, axis=1)
        tours = np.where((forward[:, 1] < forward[:, -1])[:, None],
                         forward, backward)
        table[start:start + len(rows)] = np.searchsorted(canonical,
                                                         tours @ weights)
    table.flags.writeable = False
    return table


# Longest suffix enumerated from one cached table, so blocks hold at most 7!
# rows, and so do the canonical tour tables built from them.  Blocks of 8! rows
# (2.6 MB at n = 8) were as fast but raised the peak RSS of a tsp-9 loop that
# enumerated each instance's tours by 5 MiB through heap fragmentation.
_TABLE_ITEMS = 7


@lru_cache(maxsize=None)
def _lex_perms(k: int) -> np.ndarray:
    """All permutations of 0..k-1 in lexicographic order, (k!, k), read-only."""
    table = np.array(list(itertools.permutations(range(k))), dtype=np.intp)
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

