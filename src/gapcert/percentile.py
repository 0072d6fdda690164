"""Percentile solving for bounded black-box problems.

The best of N independent uniform samples lands in the 100(1-eps) percentile
of the decision space with confidence 1-(1-eps)^N.  This module provides the
problem abstraction, the seeded solver, and the exact eps/N/confidence
calculus that every other module builds on.  Every exact quantity (true
minimum, exceedance probabilities, better-fractions) reads one cached
enumeration of a finite space, ``Problem.enumeration``.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import _rng
from .spaces import TourSpace

ENUMERATION_LIMIT = math.factorial(10)


class DomainError(ValueError):
    """Argument outside its mathematical domain."""


class OracleError(RuntimeError):
    """Oracle could not produce a trustworthy optimum."""


class CapacityError(OracleError):
    """Exact enumeration requested beyond the configured size limit."""


class EvaluationError(RuntimeError):
    """A cost oracle produced a non-finite value; bounded costs are required."""

    def __init__(self, decision, value):
        self.decision = decision
        self.value = value
        super().__init__(f"cost oracle returned non-finite value {value!r} "
                         f"at decision {np.asarray(decision).tolist()!r}")


@dataclass(frozen=True)
class Problem:
    """A bounded decision space paired with a deterministic, bounded cost oracle.

    ``cost`` maps one decision to a float.  ``batch_cost`` optionally maps an
    (n, ...) array of decisions to an (n,) cost array; the solver uses it when
    present.  Both must be pure functions, safe to call concurrently.
    ``batch_cost`` must also be row-independent: each row's value is the same,
    bit for bit, whatever other rows share its batch, so callers may merge or
    split batches freely (``refine_min`` evaluates many stencils at once).
    ``declared_optimum`` carries an analytically known minimum where one
    exists (used by synthetic families and tests, never inferred).
    """

    space: object
    cost: Callable
    batch_cost: Callable | None = None
    name: str = ""
    declared_optimum: float | None = None

    @functools.cached_property
    def enumeration(self) -> tuple[np.ndarray, np.ndarray]:
        """Every cost of a finite space in enumeration order, and the first
        minimizer, cached on first use.  The size is checked before anything
        is enumerated; a failed enumeration caches nothing.

        A tour space enumerates one tour per rotation/reversal class (see
        ``TourSpace.enumerate_canonical``).  The classes have one size and one
        cost each, so minima, first minimizers and fractions equal those over
        all orderings; count rows, never divide by the cardinality."""
        space = self.space
        card = space.cardinality
        if card is None:
            raise DomainError("exact enumeration requires a finite decision space")
        if card > ENUMERATION_LIMIT:
            raise CapacityError(f"space cardinality {card} exceeds the "
                                f"enumeration limit {ENUMERATION_LIMIT}")
        blocks = (space.enumerate_canonical() if isinstance(space, TourSpace)
                  else space.enumerate())
        chunks, best, minimizer = [], math.inf, None
        for block in blocks:
            costs = self.evaluate_batch(block)
            i = int(np.argmin(costs))
            if costs[i] < best:
                best, minimizer = costs[i], np.array(block[i])
            chunks.append(costs)
        costs = np.concatenate(chunks)
        costs.flags.writeable = minimizer.flags.writeable = False  # shared
        return costs, minimizer

    def evaluate(self, decision) -> float:
        value = float(self.cost(decision))
        if not math.isfinite(value):
            raise EvaluationError(decision, value)
        return value

    def evaluate_batch(self, decisions: np.ndarray) -> np.ndarray:
        if self.batch_cost is not None:
            values = np.asarray(self.batch_cost(decisions), dtype=float)
        else:
            values = np.array([float(self.cost(d)) for d in decisions], dtype=float)
        bad = ~np.isfinite(values)
        if bad.any():
            i = int(np.argmax(bad))
            raise EvaluationError(decisions[i], values[i])
        return values


@dataclass(frozen=True)
class SampledPoint:
    decision: np.ndarray
    cost: float


@dataclass(frozen=True)
class InfoSet:
    """The ordered (decision, cost) pairs drawn during one percentile solve."""

    decisions: np.ndarray
    costs: np.ndarray
    seed: int

    @property
    def n_p(self) -> int:
        return len(self.costs)

    def __len__(self) -> int:
        return len(self.costs)

    def __getitem__(self, i: int) -> SampledPoint:
        return SampledPoint(self.decisions[i], float(self.costs[i]))


@dataclass(frozen=True)
class PercentileSolution:
    best: SampledPoint
    best_index: int
    info: InfoSet


def confidence_of(epsilon: float, n: int) -> float:
    """Confidence 1 - (1-epsilon)^n that the best of n uniform samples is in
    the 100(1-epsilon) percentile."""
    if not 0.0 <= epsilon <= 1.0:
        raise DomainError(f"epsilon must be in [0, 1], got {epsilon}")
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")
    if epsilon == 1.0:
        return 1.0
    # -expm1(n*log1p(-eps)) keeps full precision for small eps and large n
    return -math.expm1(n * math.log1p(-epsilon))


def min_samples(epsilon: float, confidence: float) -> int:
    """Smallest N with 1 - (1-epsilon)^N >= confidence.

    Computed in closed form, then verified at the integer boundary so the
    result is exact despite floating point.
    """
    if not 0.0 < epsilon <= 1.0:
        raise DomainError(f"epsilon must be in (0, 1], got {epsilon}")
    if not 0.0 <= confidence < 1.0:
        raise DomainError(f"confidence must be in [0, 1), got {confidence}")
    if epsilon == 1.0 or confidence == 0.0:
        return 1
    n = max(1, math.ceil(math.log1p(-confidence) / math.log1p(-epsilon)))
    while confidence_of(epsilon, n) < confidence:
        n += 1
    while n > 1 and confidence_of(epsilon, n - 1) >= confidence:
        n -= 1
    return n


def percentile_solve(problem: Problem, n_p: int, seed: int) -> PercentileSolution:
    """Draw n_p independent uniform decisions and keep the cheapest.

    Deterministic given (problem, n_p, seed).  Ties break to the lowest sample
    index.  The sample stream is nested: growing n_p extends it without
    changing earlier samples.
    """
    if n_p < 1:
        raise DomainError(f"n_p must be a positive integer, got {n_p}")
    decisions = problem.space.sample(seed, n_p, path=(_rng.SOLVE,))
    costs = problem.evaluate_batch(decisions)
    i = int(np.argmin(costs))
    info = InfoSet(decisions=decisions, costs=costs, seed=int(seed))
    return PercentileSolution(best=info[i], best_index=i, info=info)


def estimate_better_fraction(problem: Problem, candidate, m: int = 1,
                             seed: int = 0, exact: bool = False) -> float:
    """Fraction of the decision space strictly cheaper than ``candidate``.

    Monte Carlo over m fresh uniform samples by default; ``exact=True``
    enumerates a finite space instead (m and seed are then ignored).
    """
    threshold = problem.evaluate(candidate)
    if exact:
        costs, _ = problem.enumeration
        return int((costs < threshold).sum()) / len(costs)
    if m < 1:
        raise DomainError(f"m must be a positive integer, got {m}")
    samples = problem.space.sample(seed, m, path=(_rng.BETTER_FRACTION,))
    costs = problem.evaluate_batch(samples)
    return float((costs < threshold).mean())


def write_infoset_csv(info: InfoSet, csv_path) -> None:
    """Write ``index,cost,decision`` rows; decisions are JSON-encoded arrays.

    The seed, sample count and decision dtype go to a sidecar JSON manifest,
    the CSV path with a .manifest.json suffix.
    """
    csv_path = Path(csv_path)
    integer = np.issubdtype(info.decisions.dtype, np.integer)
    with csv_path.open("w", encoding="utf-8", newline="") as fh:
        fh.write("index,cost,decision\n")
        for i in range(len(info)):
            dec = info.decisions[i].tolist()
            dec = [int(v) for v in dec] if integer else [float(v) for v in dec]
            fh.write(f'{i},{float(info.costs[i])!r},"{json.dumps(dec)}"\n')
    csv_path.with_suffix(".manifest.json").write_text(
        json.dumps({"seed": info.seed, "n_p": info.n_p,
                    "decision_dtype": "int" if integer else "float"}, indent=2),
        encoding="utf-8")


def read_infoset_csv(csv_path) -> InfoSet:
    csv_path = Path(csv_path)
    manifest = json.loads(csv_path.with_suffix(".manifest.json").read_text(
        encoding="utf-8"))
    costs, decisions = [], []
    with csv_path.open("r", encoding="utf-8") as fh:
        header = fh.readline()
        for line in fh:
            _, cost, dec = line.rstrip("\n").split(",", 2)
            costs.append(float(cost))
            decisions.append(json.loads(dec.strip('"')))
    dtype = np.intp if manifest.get("decision_dtype") == "int" else float
    info = InfoSet(decisions=np.asarray(decisions, dtype=dtype),
                   costs=np.asarray(costs, dtype=float),
                   seed=int(manifest["seed"]))
    if info.n_p != int(manifest["n_p"]):
        raise ValueError(f"manifest n_p={manifest['n_p']} but csv has {info.n_p} rows")
    return info
