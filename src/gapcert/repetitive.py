"""Amortized gap bounds for families of repeatedly solved problems.

Sampling an instance, solving it by percentile, and measuring its optimality
gap against a ground-truth oracle yields one draw of a real-valued random
variable.  The maximum of R independent draws upper-bounds future gaps with
probability 1-epsilon at confidence 1-(1-epsilon)^R, which removes the need
for a second sampling pass at decision time.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import Callable, Collection, Iterator

from . import _rng
from .oracles import OracleError, OracleResult, declared_min, exhaustive_min, \
    refine_min
from .percentile import DomainError, Problem, confidence_of, percentile_solve

log = logging.getLogger(__name__)

EXHAUSTIVE_GAP_TOLERANCE = 1e-9
REFINE_GAP_TOLERANCE = 1e-6


@dataclass(frozen=True)
class ProblemFamily:
    """Seeded map from a 64-bit instance seed to a bounded problem."""

    build: Callable[[int], Problem]
    description: str

    def instance(self, instance_seed: int) -> Problem:
        return self.build(int(instance_seed))


@dataclass(frozen=True)
class OracleConfig:
    """How to compute an instance's ground-truth optimum, and how far below
    zero a measured gap may fall before the oracle is considered broken."""

    method: str = "refine-min"  # or "exhaustive" or "declared"
    n0: int = 2000
    gap_tolerance: float | None = None  # None: method default

    @property
    def tolerance(self) -> float:
        if self.gap_tolerance is not None:
            return self.gap_tolerance
        if self.method == "exhaustive":
            return EXHAUSTIVE_GAP_TOLERANCE
        if self.method == "refine-min":
            return REFINE_GAP_TOLERANCE
        return 0.0

    def run(self, problem: Problem, seed: int) -> OracleResult:
        if self.method == "exhaustive":
            return exhaustive_min(problem)
        if self.method == "refine-min":
            return refine_min(problem, n0=self.n0, seed=seed)
        if self.method == "declared":
            return declared_min(problem)
        raise DomainError(f"unknown oracle method {self.method!r}")


@dataclass(frozen=True)
class GapSample:
    """One measured optimality gap, with everything needed to replay it."""

    gamma: float
    instance_seed: int
    solution_cost: float
    oracle_value: float
    oracle_method: str

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError(f"gap samples are nonnegative, got {self.gamma}")


@dataclass(frozen=True)
class RepetitiveCertificate:
    """Asserts: fresh instances' percentile solutions exhibit gaps at most
    gamma_star with probability 1-epsilon, at confidence 1-(1-epsilon)^r."""

    gamma_star: float
    r: int
    epsilon: float
    confidence: float
    n_p: int
    family: str
    seed: int


def sample_gap(family: ProblemFamily, n_p: int, oracle_cfg: OracleConfig,
               seed: int) -> GapSample:
    """Draw one instance, percentile-solve it, and measure the gap to the
    oracle's optimum.

    Raw gaps within the oracle tolerance below zero clamp to 0 (the oracle is
    itself an estimate); anything lower means a broken oracle and raises with
    the instance seed for replay.
    """
    instance_seed = _rng.child_seed(seed, _rng.GAP_INSTANCE)
    problem = family.instance(instance_seed)
    solution = percentile_solve(problem, n_p, _rng.child_seed(seed, _rng.GAP_SOLVE))
    oracle = oracle_cfg.run(problem, _rng.child_seed(seed, _rng.GAP_ORACLE))
    raw = solution.best.cost - oracle.value
    if raw < -oracle_cfg.tolerance:
        raise OracleError(
            f"solution cost {solution.best.cost!r} undercuts oracle value "
            f"{oracle.value!r} by more than tolerance {oracle_cfg.tolerance!r} "
            f"on instance seed {instance_seed} ({family.description})")
    return GapSample(gamma=max(raw, 0.0), instance_seed=instance_seed,
                     solution_cost=float(solution.best.cost),
                     oracle_value=float(oracle.value),
                     oracle_method=oracle.method)


def iter_gap_samples(family: ProblemFamily, n_p: int, oracle_cfg: OracleConfig,
                     seed: int, tag: int, count: int,
                     done: Collection[int] = ()) -> Iterator[tuple[int, GapSample]]:
    """Yield (i, gap sample i) for each i < count not in done.  Sample i is
    drawn at child_seed(seed, tag, i), so skipping finished trials or growing
    count leaves every other sample unchanged."""
    for i in range(count):
        if i not in done:
            yield i, sample_gap(family, n_p, oracle_cfg,
                                _rng.child_seed(seed, tag, i))


def sample_gaps(family: ProblemFamily, r: int, n_p: int,
                oracle_cfg: OracleConfig, seed: int) -> list[GapSample]:
    """r independent gap samples; sample i is a pure function of (seed, i).

    Aborts on the first oracle failure; the samples gathered so far are
    logged so the failing instance can be replayed.
    """
    if r < 1:
        raise DomainError(f"r must be a positive integer, got {r}")
    samples: list[GapSample] = []
    try:
        for _, s in iter_gap_samples(family, n_p, oracle_cfg, seed,
                                     _rng.FAMILY, r):
            samples.append(s)
    except OracleError:
        log.warning("gap sampling aborted at trial %d/%d; %d samples kept",
                    len(samples), r, len(samples))
        raise
    return samples


def build_certificate(family: ProblemFamily, r: int, n_p: int, epsilon: float,
                      oracle_cfg: OracleConfig, seed: int) -> RepetitiveCertificate:
    """Maximum of r independent gap samples with its order-statistics
    confidence; deterministic given the seed."""
    if not 0.0 <= epsilon <= 1.0:
        raise DomainError(f"epsilon must be in [0, 1], got {epsilon}")
    samples = sample_gaps(family, r, n_p, oracle_cfg, seed)
    return certificate_from_samples([s.gamma for s in samples], epsilon, n_p,
                                    family.description, seed)


def certificate_from_samples(gammas: list[float], epsilon: float, n_p: int,
                             family: str, seed: int) -> RepetitiveCertificate:
    """The maximum of the measured gaps, at confidence 1-(1-epsilon)^r."""
    return RepetitiveCertificate(
        gamma_star=float(max(gammas)),
        r=len(gammas),
        epsilon=float(epsilon),
        confidence=confidence_of(epsilon, len(gammas)),
        n_p=int(n_p),
        family=family,
        seed=int(seed),
    )


def validate_coverage(family: ProblemFamily, certificate: RepetitiveCertificate,
                      m: int, n_p: int, oracle_cfg: OracleConfig,
                      seed: int) -> float:
    """Fraction of m fresh instances whose measured gap stays within the
    certificate's bound."""
    if m < 1:
        raise DomainError(f"m must be a positive integer, got {m}")
    covered = sum(s.gamma <= certificate.gamma_star for _, s in
                  iter_gap_samples(family, n_p, oracle_cfg, seed,
                                   _rng.VALIDATE, m))
    return covered / m


def certificate_from_json(text: str) -> RepetitiveCertificate:
    raw = json.loads(text)
    return RepetitiveCertificate(
        gamma_star=float(raw["gamma_star"]), r=int(raw["r"]),
        epsilon=float(raw["epsilon"]), confidence=float(raw["confidence"]),
        n_p=int(raw["n_p"]), family=str(raw["family"]), seed=int(raw["seed"]))
