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
    summed in sorted order.  The table is exactly symmetric, so tours with
    the same edges (rotations, reversals) sum the same sorted lengths and
    compare exactly equal in floating point.
    """
    return make_tsp_problem(instance).evaluate(order)


def tsp_cost_batch(instance: TspInstance, orders: np.ndarray) -> np.ndarray:
    edges = instance.distances[orders, np.roll(orders, -1, axis=1)]  # (m, n)
    edges.sort(axis=1)
    return edges.sum(axis=1)


def make_tsp_problem(instance: TspInstance) -> Problem:
    return Problem(
        space=TourSpace(instance.count),
        batch_cost=lambda orders: tsp_cost_batch(instance, np.asarray(orders)),
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
