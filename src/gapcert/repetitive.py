"""Amortized gap bounds for families of repeatedly solved problems.

Sampling an instance, solving it by percentile, and measuring its optimality
gap against a ground-truth oracle yields one draw of a real-valued random
variable.  The maximum of R independent draws upper-bounds future gaps with
probability 1-epsilon at confidence 1-(1-epsilon)^R, which removes the need
for a second sampling pass at decision time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from . import _rng
from .oracles import OracleError, OracleResult, declared_min, exhaustive_min, \
    refine_min
from .percentile import DomainError, Problem, _check_count, confidence_of, \
    percentile_solve

# The default gap tolerance of each oracle method that has one.
_GAP_TOLERANCES = {"exhaustive": 1e-9, "refine-min": 1e-6}


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
        return _GAP_TOLERANCES.get(self.method, 0.0)

    def gap(self, cost: float, oracle_value: float, where: str) -> float:
        """The gap of ``cost`` above the oracle's value.  A gap within the
        tolerance below zero clamps to 0 (the oracle is itself an estimate);
        anything lower means a broken oracle and raises OracleError naming
        ``where``, for replay."""
        raw = cost - oracle_value
        if raw < -self.tolerance:
            raise OracleError(
                f"solution cost {cost!r} undercuts oracle value "
                f"{oracle_value!r} by more than tolerance {self.tolerance!r} "
                f"on {where}")
        return max(raw, 0.0)

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

    def covers(self, gamma: float) -> bool:
        """Whether a measured gap is within the bound, gamma_star inclusive."""
        return gamma <= self.gamma_star


def sample_gap(family: ProblemFamily, n_p: int, oracle_cfg: OracleConfig,
               seed: int) -> GapSample:
    """Draw one instance, percentile-solve it, and measure the gap to the
    oracle's optimum (``OracleConfig.gap``, which names the instance seed
    when the oracle is undercut).
    """
    instance_seed = _rng.child_seed(seed, _rng.GAP_INSTANCE)
    problem = family.instance(instance_seed)
    solution = percentile_solve(problem, n_p, _rng.child_seed(seed, _rng.GAP_SOLVE))
    oracle = oracle_cfg.run(problem, _rng.child_seed(seed, _rng.GAP_ORACLE))
    gamma = oracle_cfg.gap(solution.best.cost, oracle.value,
                           f"instance seed {instance_seed} "
                           f"({family.description})")
    return GapSample(gamma=gamma, instance_seed=instance_seed,
                     solution_cost=float(solution.best.cost),
                     oracle_value=float(oracle.value),
                     oracle_method=oracle.method)


def iter_gap_samples(family: ProblemFamily, n_p: int, oracle_cfg: OracleConfig,
                     seed: int, tag: int,
                     indices: Iterable[int]) -> Iterator[tuple[int, GapSample]]:
    """Yield (i, gap sample i) for each i in ``indices``.  Sample i is drawn
    at child_seed(seed, tag, i), so drawing any subset of the indices
    leaves every sample unchanged."""
    for i in indices:
        yield i, sample_gap(family, n_p, oracle_cfg,
                            _rng.child_seed(seed, tag, i))


def sample_gaps(family: ProblemFamily, r: int, n_p: int,
                oracle_cfg: OracleConfig, seed: int) -> list[GapSample]:
    """r independent gap samples; sample i is a pure function of (seed, i).

    Stops at the first oracle failure with the OracleError, which names the
    failing instance's seed for replay.
    """
    _check_count("r", r)
    return [s for _, s in iter_gap_samples(family, n_p, oracle_cfg, seed,
                                           _rng.FAMILY, range(r))]


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
    _check_count("m", m)
    covered = sum(certificate.covers(s.gamma) for _, s in
                  iter_gap_samples(family, n_p, oracle_cfg, seed,
                                   _rng.VALIDATE, range(m)))
    return covered / m


# Each certificate field's JSON type (float also takes an integer), its
# range, and how to name both in an error.
_CERTIFICATE_FIELDS = {
    "gamma_star": (float, lambda v: 0.0 <= v < math.inf, "a finite number >= 0"),
    "r": (int, lambda v: v >= 1, "an integer >= 1"),
    "epsilon": (float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]"),
    "confidence": (float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]"),
    "n_p": (int, lambda v: v >= 1, "an integer >= 1"),
    "family": (str, lambda v: True, "a string"),
    "seed": (int, lambda v: 0 <= v < 2**64, "an integer in [0, 2**64)"),
}


def certificate_from_json(text: str) -> RepetitiveCertificate:
    """The certificate that ``certificate_to_json`` wrote.  A field of the
    wrong JSON type (a bool is not a number) or out of range raises
    DomainError; an integer may stand for a float, nothing else converts."""
    raw, fields = json.loads(text), {}
    for name, (kind, in_range, what) in _CERTIFICATE_FIELDS.items():
        value = raw[name]
        if isinstance(value, bool) or not isinstance(
                value, (int, float) if kind is float else kind) \
                or not in_range(value):
            raise DomainError(f"certificate field {name} must be {what}, "
                              f"got {value!r}")
        fields[name] = kind(value)
    return RepetitiveCertificate(**fields)
