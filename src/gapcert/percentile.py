"""Percentile solving for bounded black-box problems.

The best of N independent uniform samples lands in the 100(1-eps) percentile
of the decision space with confidence 1-(1-eps)^N.  This module provides the
problem abstraction (a bounded space plus one batched cost), the seeded
solver, and the exact eps/N/confidence calculus that every other module
builds on.  The space decides exactness: on a finite space every such
quantity (true minimum, exceedance probabilities, better-fractions) is exact
and reads one cached enumeration, ``Problem.enumeration``.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import _rng
from .spaces import ENUMERATION_LIMIT, TourSpace


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

    ``batch_cost`` is the one cost: it maps an (n, ...) array of decisions to
    an (n,) cost array.  It must be a pure function, safe to call
    concurrently, and row-independent: each row's value is the same, bit for
    bit, whatever other rows share its batch, so callers may merge or split
    batches freely (``refine_min`` evaluates many stencils at once).
    ``evaluate`` is its one-row view.  ``declared_optimum`` carries an
    analytically known minimum where one exists (used by synthetic families
    and tests, never inferred).  ``lower_bound`` is likewise a fact the
    problem supplies, never an option: a promise that no decision
    ``space.contains`` accepts costs less than it.  ``best_of`` draws in
    growing prefixes, each evaluating only its new rows, and stops as soon
    as a sample meets the bound, for both of its users: the percentile solve
    of ``sample_gap`` and ``refine_min``'s n0 samples.  A cost below it
    raises ``OracleError``.  On a ``TourSpace`` the cost must not change
    under rotation or reversal of a tour: ``enumeration`` and
    ``sample_costs`` read one cost per class.
    """

    space: object
    batch_cost: Callable
    name: str = ""
    declared_optimum: float | None = None
    lower_bound: float | None = None

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

    def uniform_costs(self, m: int | None, seed: int, tag: int) -> np.ndarray:
        """Every cost of a finite space (``enumeration``; m and seed unused),
        else the costs of m >= 1 uniform draws at (seed, tag)."""
        if self.space.cardinality is not None:
            return self.enumeration[0]
        if m is None:
            raise DomainError("a continuous space needs a sample count m >= 1")
        check(COUNT, "m", m)
        return self.sample_costs(seed, m, (tag,))

    @property
    def enumerated(self) -> bool:
        """Whether ``enumeration`` is cached; asking never starts one."""
        return "enumeration" in self.__dict__

    def sample_cost_blocks(self, seed: int, n: int,
                           path: tuple[int, ...] = ()) -> Iterator[np.ndarray]:
        """The costs of ``space.sample(seed, n, path)``, in consecutive
        blocks, each drawn when it is pulled.

        Once ``enumeration`` is cached on a tour space of 3 to 9 waypoints,
        the blocks hold at most 8,192 draws each, and each draw's cost is
        read from the enumeration at the draw's class
        (``TourSpace.class_blocks``), with the bits of evaluating the drawn
        tour.  Otherwise the n draws are evaluated as one block.  This never
        starts an enumeration."""
        space = self.space
        if self.enumerated and isinstance(space, TourSpace) \
                and space.class_sampling:
            costs = self.enumeration[0]
            for classes in space.class_blocks(seed, n, path):
                yield costs.take(classes)
        else:
            yield self.evaluate_batch(space.sample(seed, n, path=path))

    def sample_costs(self, seed: int, n: int,
                     path: tuple[int, ...] = ()) -> np.ndarray:
        """The costs of ``space.sample(seed, n, path)``: every block of
        ``sample_cost_blocks`` in one array.  This never starts an
        enumeration."""
        blocks = list(self.sample_cost_blocks(seed, n, path)) or [np.empty(0)]
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)

    def evaluate(self, decision) -> float:
        """The cost of one decision of ``space``; anything else is refused."""
        decision = np.asarray(decision)
        if not self.space.contains(decision):
            raise DomainError(f"decision {decision.tolist()!r} is outside the "
                              "decision space")
        return float(self.evaluate_batch(decision[None])[0])

    def evaluate_batch(self, decisions: np.ndarray) -> np.ndarray:
        values = np.asarray(self.batch_cost(decisions), dtype=float)
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


class Rule(NamedTuple):
    """How ``check`` tests a value read from outside: its types (the first
    is the one it converts to), its range, and the words for both."""
    types: tuple
    in_range: Callable
    what: str


def check(rule: Rule, name: str, value, error=DomainError) -> None:
    """Raise ``error`` naming ``name`` unless ``rule`` accepts ``value``; a
    bool is never a number.  Every value read from outside is checked here."""
    # rule[0] and rule[1], its types and range: an index is the fastest read
    if value.__class__ is bool or not isinstance(value, rule[0]) \
            or not rule[1](value):
        raise error(f"{name} must be {rule.what}, got {value!r}")


# The rules that the library's arguments, the experiment config and the
# family certificate share
INTEGER, NUMBER = (int, np.integer), (float, int, np.floating, np.integer)
COUNT = Rule(INTEGER, lambda v: v >= 1, "a positive integer")  # arguments
COUNT_FIELD = COUNT._replace(what="an integer >= 1")  # config, certificate
SEED = Rule(INTEGER, lambda v: 0 <= v < 2**64, "an integer in [0, 2**64)")
STRING = Rule((str,), lambda v: True, "a string")
OBJECT = Rule((dict,), lambda v: True, "an object")
PROBABILITY = Rule(NUMBER, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
FRACTION = Rule(NUMBER, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")
CONFIDENCE = Rule(NUMBER, lambda v: 0.0 <= v < 1.0, "a number in [0, 1)")
THRESHOLD = Rule(NUMBER, lambda v: v >= 0.0, ">= 0 (a number in [0, inf])")


def confidence_of(epsilon: float, n: int) -> float:
    """Confidence 1 - (1-epsilon)^n that the best of n uniform samples is in
    the 100(1-epsilon) percentile."""
    check(PROBABILITY, "epsilon", epsilon)
    check(COUNT, "n", n)
    if epsilon == 1.0:
        return 1.0
    # -expm1(n*log1p(-eps)) keeps full precision for small eps and large n
    return -math.expm1(n * math.log1p(-epsilon))


def min_samples(epsilon: float, confidence: float) -> int:
    """Smallest N with 1 - (1-epsilon)^N >= confidence.

    Computed in closed form, then verified at the integer boundary so the
    result is exact despite floating point.
    """
    check(FRACTION, "epsilon", epsilon)
    check(CONFIDENCE, "confidence", confidence)
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
    check(COUNT, "n_p", n_p)
    decisions = problem.space.sample(seed, n_p, path=(_rng.SOLVE,))
    costs = problem.evaluate_batch(decisions)
    i = int(np.argmin(costs))
    info = InfoSet(decisions=decisions, costs=costs, seed=int(seed))
    return PercentileSolution(best=info[i], best_index=i, info=info)


# Sample counts m at which ``best_of`` checks a problem's lower bound before
# it draws more of its n samples: each m with 4 * m <= n
_BOUND_PREFIXES = (32, 256)


def best_of(problem: Problem, n: int, seed: int, tag: int):
    """The first cheapest of the n uniform decisions at (seed, tag), as
    ``percentile_solve`` draws them: (decision, cost, rows evaluated).

    On a problem with a ``lower_bound`` the rows are drawn in the growing
    prefixes ``_BOUND_PREFIXES`` first, each evaluating only the rows the
    one before did not, and the draw stops once the running best meets the
    bound (``_meets_bound``).  By the samplers' prefix property the rows are
    those of the one n batch, and no later row can cost less, so the
    decision and cost are the same bits.  A cost below the bound raises
    ``OracleError``.  A problem without a bound draws one batch of n.
    """
    sizes = [n] if problem.lower_bound is None else \
        [m for m in _BOUND_PREFIXES if 4 * m <= n] + [n]
    best, cost, done = None, math.inf, 0
    for m in sizes:
        rows = problem.space.sample(seed, m, path=(tag,))[done:]
        costs = problem.evaluate_batch(rows)
        i = int(np.argmin(costs))
        if costs[i] < cost:
            best, cost = rows[i].copy(), float(costs[i])
        done = m
        if _meets_bound(problem, cost):
            break
    _check_bound(problem, cost)
    return best, cost, done


def _meets_bound(problem: Problem, cost: float) -> bool:
    """Whether ``cost`` reaches the problem's ``lower_bound``, so that no
    decision can cost less."""
    return problem.lower_bound is not None and cost <= problem.lower_bound


def _check_bound(problem: Problem, cost: float) -> None:
    """Raise ``OracleError`` when ``cost`` is below the problem's
    ``lower_bound``, which the problem promised no decision undercuts."""
    if problem.lower_bound is not None and cost < problem.lower_bound:
        raise OracleError(f"cost {cost!r} on {problem.name!r} is below its "
                          f"lower bound {problem.lower_bound!r}")


def estimate_better_fraction(problem: Problem, candidate, m: int | None = None,
                             seed: int = 0) -> float:
    """Fraction of the decision space strictly cheaper than ``candidate``.

    Exact on a finite space, which is enumerated (m and seed are then
    ignored); Monte Carlo over m fresh uniform samples, m required, otherwise.
    """
    threshold = problem.evaluate(candidate)
    costs = problem.uniform_costs(m, seed, _rng.BETTER_FRACTION)
    return float((costs < threshold).mean())


def write_infoset_csv(info: InfoSet, csv_path) -> None:
    """Write ``index,cost,decision`` rows; decisions are JSON-encoded arrays.

    The seed, sample count and decision dtype go to a sidecar JSON manifest,
    the CSV path with a .manifest.json suffix.  Both are output artifacts of
    ``solve`` and ``certify``; nothing in the package reads them back.
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
