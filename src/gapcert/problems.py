"""Concrete problems: planar traveling-salesman instances and the classic
continuous benchmark functions, each wrapped as a bounded Problem."""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _rng
from .percentile import DomainError, Problem
from .repetitive import ProblemFamily
from .spaces import BoxSpace, TourSpace


@dataclass(frozen=True)
class TspInstance:
    """Planar waypoints visited exactly once by a closed tour."""

    waypoints: np.ndarray  # (n, 2)

    def __init__(self, waypoints):
        w = np.asarray(waypoints, dtype=float)
        if w.ndim != 2 or w.shape[1] != 2 or w.shape[0] < 2:
            raise DomainError("waypoints must be an (n>=2, 2) array")
        if not np.isfinite(w).all():
            raise DomainError("waypoints must be finite")
        object.__setattr__(self, "waypoints", w)

    @property
    def count(self) -> int:
        return len(self.waypoints)

    @functools.cached_property
    def distances(self) -> np.ndarray:
        """The (n, n) table of waypoint distances, cached on first use and
        read-only, since every problem built from this instance shares it.
        A swapped difference has the same squares, so the table is exactly
        symmetric."""
        w = self.waypoints
        table = np.linalg.norm(w[:, None] - w[None, :], axis=2)
        table.flags.writeable = False
        return table


def tsp_cost(instance: TspInstance, order) -> float:
    """Closed-tour length: consecutive hops plus the edge back to the start.

    Edge lengths are read from the instance's cached distance table and
    summed in ascending order (see ``tsp_cost_batch``).  The table is exactly
    symmetric, so tours with the same edges (rotations, reversals) sum the
    same sorted lengths and compare exactly equal in floating point.
    """
    return make_tsp_problem(instance).evaluate(order)


# Rows per block of the tour-cost kernel.  A tsp-9 block's edge columns
# (9 x 8,192 floats, 576 KiB) stay in a 2 MiB L2 cache through the sorting
# network, and the kernel's working memory stays bounded however many tours a
# call takes.  On 60,000 tsp-9 tours (2-vCPU Xeon, numpy 2.4), blocks of 4,096
# and 16,384 rows were within 7% of this size, and one block of 65,536 rows
# took 2.4x as long.
_COST_BLOCK = 8192


def tsp_cost_batch(instance: TspInstance, orders: np.ndarray) -> np.ndarray:
    """Closed-tour lengths of the (m, n) orderings, each the sum of its n edge
    lengths in ascending order.

    Rows are processed in blocks of ``_COST_BLOCK``.  Each block gathers its
    edges as n columns, one per tour position, sorts every row with a fixed
    comparator network of whole-column ``np.minimum``/``np.maximum``, and sums
    the sorted columns in the order numpy's row sum adds a row.  Distances are
    finite and at least +0.0, so the network yields exactly the sorted row,
    and the result equals ``np.sort(edges, axis=1).sum(axis=1)`` bit for bit.
    """
    orders = np.asarray(orders)
    n = instance.count
    if orders.ndim != 2 or orders.shape[1] != n:
        raise DomainError(f"tours must be an (m, {n}) array")
    if orders.size and (orders.min() < 0 or orders.max() >= n):
        raise DomainError(f"tour entries must be waypoint indices 0..{n - 1}")
    table = instance.distances.ravel()
    network = _sorting_network(n)
    out = np.empty(len(orders))
    for start in range(0, len(orders), _COST_BLOCK):
        block = orders[start:start + _COST_BLOCK]
        stops = np.ascontiguousarray(block.T, dtype=np.intp)
        flat = stops * n  # edge k runs from stop k to stop k + 1 (mod n)
        flat[:-1] += stops[1:]
        flat[-1] += stops[0]
        cols = list(table.take(flat))
        spare = np.empty_like(cols[0])
        for i, j in network:
            low, high = cols[i], cols[j]
            np.minimum(low, high, out=spare)
            np.maximum(low, high, out=high)
            cols[i], spare = spare, low
        out[start:start + len(block)] = _pairwise_sum(cols)
    return out


@functools.lru_cache(maxsize=None)
def _sorting_network(n: int) -> tuple[tuple[int, int], ...]:
    """Batcher's odd-even merge sort for n inputs, as (i, j) comparators with
    i < j that put the smaller value at i (28 comparators for n = 9).

    It is the network for the next power of two with every comparator that
    touches an input at or beyond n dropped, which sorts n inputs since the
    missing ones act as +inf."""
    size = 1 << (n - 1).bit_length()
    pairs = []
    merged = 1  # length of the sorted runs the next pass merges pairwise
    while merged < size:
        step = merged
        while step:
            for j in range(step % merged, size - step, 2 * step):
                for i in range(min(step, size - j - step)):
                    a, b = i + j, i + j + step
                    if a // (2 * merged) == b // (2 * merged) and b < n:
                        pairs.append((a, b))
            step //= 2
        merged *= 2
    return tuple(pairs)


def _pairwise_sum(cols: list) -> np.ndarray:
    """The row sums of the columns, added in the order of numpy's pairwise
    sum for one contiguous row (``pairwise_sum`` in numpy's
    ``loops_utils.h.src``); adds into the given columns.

    Below 8 terms it is a left fold.  Up to 128 terms, 8 accumulators take
    every 8th term, combine as a tree, and the terms past the last multiple of
    8 follow one at a time.  Longer rows split at half the length, rounded
    down to a multiple of 8.  numpy starts from +0.0, which leaves a sum of
    non-negative terms unchanged."""
    n = len(cols)
    if n < 8:
        total = cols[0]
        for col in cols[1:]:
            total += col
        return total
    if n <= 128:
        acc, rest = cols[:8], n - n % 8
        for i in range(8, rest):
            acc[i % 8] += cols[i]
        total = (((acc[0] + acc[1]) + (acc[2] + acc[3]))
                 + ((acc[4] + acc[5]) + (acc[6] + acc[7])))
        for col in cols[rest:]:
            total += col
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(cols[:half]) + _pairwise_sum(cols[half:])


def make_tsp_problem(instance: TspInstance) -> Problem:
    return Problem(
        space=TourSpace(instance.count),
        batch_cost=lambda orders: tsp_cost_batch(instance, orders),
        name=f"tsp-{instance.count}",
    )


def random_tsp_instance(n_waypoints: int, seed: int) -> TspInstance:
    """n waypoints uniform in the unit square."""
    if n_waypoints < 2:
        raise DomainError("a tour needs at least 2 waypoints")
    return TspInstance(_rng.stream(seed, _rng.FAMILY).random((n_waypoints, 2)))


def make_tsp_family(n_waypoints: int) -> ProblemFamily:
    """Random instances with n waypoints uniform in the unit square."""
    return ProblemFamily(
        build=lambda s: make_tsp_problem(random_tsp_instance(n_waypoints, s)),
        description=f"tsp-{n_waypoints}-uniform",
    )


def write_tsp_instance(instance: TspInstance, path) -> None:
    Path(path).write_text(
        json.dumps({"waypoints": instance.waypoints.tolist()}, indent=2),
        encoding="utf-8")


def read_tsp_instance(path) -> TspInstance:
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    return TspInstance(raw["waypoints"])


# Benchmark definitions.  Only the Rastrigin form is fixed upstream
# (10*d + sum(x_i^2 - 10 cos(2 pi x_i)) on [-5.12, 5.12]^d); the rest use
# their standard textbook formulas and domains:
#   Ackley      a=20, b=0.2, c=2pi, on [-32.768, 32.768]^2, min 0 at origin
#   Beale       on [-4.5, 4.5]^2, min 0 at (3, 0.5)
#   Levi N.13   on [-10, 10]^2, min 0 at (1, 1)
#   Himmelblau  on [-5, 5]^2, min 0 at four points incl. (3, 2)


def _rastrigin(x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(x)
    return 10.0 * x.shape[1] + np.sum(x**2 - 10.0 * np.cos(2.0 * np.pi * x), axis=1)


def _ackley(x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(x)
    return (-20.0 * np.exp(-0.2 * np.sqrt(np.mean(x**2, axis=1)))
            - np.exp(np.mean(np.cos(2.0 * np.pi * x), axis=1)) + np.e + 20.0)


def _beale(x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(x)
    a, b = x[:, 0], x[:, 1]
    return ((1.5 - a + a * b) ** 2 + (2.25 - a + a * b**2) ** 2
            + (2.625 - a + a * b**3) ** 2)


def _levi13(x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(x)
    a, b = x[:, 0], x[:, 1]
    return (np.sin(3.0 * np.pi * a) ** 2
            + (a - 1.0) ** 2 * (1.0 + np.sin(3.0 * np.pi * b) ** 2)
            + (b - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * b) ** 2))


def _himmelblau(x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(x)
    a, b = x[:, 0], x[:, 1]
    return (a**2 + b - 11.0) ** 2 + (a + b**2 - 7.0) ** 2


# name: (cost, dims, b) over the domain [-b, b]^dims.
BENCHMARKS = {
    "rastrigrin2": (_rastrigin, 2, 5.12),
    "rastrigrin10": (_rastrigin, 10, 5.12),
    "ackley": (_ackley, 2, 32.768),
    "beale": (_beale, 2, 4.5),
    "levi13": (_levi13, 2, 10.0),
    "himmelblau": (_himmelblau, 2, 5.0),
}

# Common alternate spellings accepted on the CLI.
_ALIASES = {"rastrigin2": "rastrigrin2", "rastrigin10": "rastrigrin10",
            "levi": "levi13"}

BENCHMARK_NAMES = tuple(BENCHMARKS)


def make_benchmark(name: str) -> Problem:
    """Benchmark problem by name; every one has true minimum 0."""
    key = _ALIASES.get(name, name)
    if key not in BENCHMARKS:
        raise DomainError(f"unknown benchmark {name!r}; "
                          f"expected one of {sorted(BENCHMARKS)}")
    fn, dims, b = BENCHMARKS[key]
    return Problem(space=BoxSpace([-b] * dims, [b] * dims), batch_cost=fn,
                   name=key, declared_optimum=0.0)
