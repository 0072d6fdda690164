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
from .percentile import COUNT, COUNT_FIELD, NUMBER, OBJECT, PROBABILITY, \
    SEED, STRING, DomainError, Problem, Rule, best_of, check, confidence_of

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

    The solve is ``best_of``, which stops at the problem's lower bound: its
    cost is the same float as ``percentile_solve(problem, n_p, ...)``'s.
    """
    check(COUNT, "n_p", n_p)
    instance_seed = _rng.child_seed(seed, _rng.GAP_INSTANCE)
    problem = family.instance(instance_seed)
    _, cost, _ = best_of(problem, n_p, _rng.child_seed(seed, _rng.GAP_SOLVE),
                         _rng.SOLVE)
    oracle = oracle_cfg.run(problem, _rng.child_seed(seed, _rng.GAP_ORACLE))
    gamma = oracle_cfg.gap(cost, oracle.value,
                           f"instance seed {instance_seed} "
                           f"({family.description})")
    return GapSample(gamma=gamma, instance_seed=instance_seed,
                     solution_cost=cost,
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
    check(COUNT, "r", r)
    return [s for _, s in iter_gap_samples(family, n_p, oracle_cfg, seed,
                                           _rng.FAMILY, range(r))]


def build_certificate(family: ProblemFamily, r: int, n_p: int, epsilon: float,
                      oracle_cfg: OracleConfig, seed: int) -> RepetitiveCertificate:
    """Maximum of r independent gap samples with its order-statistics
    confidence; deterministic given the seed."""
    check(PROBABILITY, "epsilon", epsilon)
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
    check(COUNT, "m", m)
    covered = sum(certificate.covers(s.gamma) for _, s in
                  iter_gap_samples(family, n_p, oracle_cfg, seed,
                                   _rng.VALIDATE, range(m)))
    return covered / m


# The rule of each certificate field (percentile.check)
CERTIFICATE_RULES = {
    "gamma_star": Rule(NUMBER, lambda v: 0.0 <= v < math.inf,
                       "a finite number >= 0"),
    "r": COUNT_FIELD, "epsilon": PROBABILITY, "confidence": PROBABILITY,
    "n_p": COUNT_FIELD, "family": STRING, "seed": SEED}


def certificate_from_json(text: str) -> RepetitiveCertificate:
    """The certificate that ``certificate_to_json`` wrote.  Text that is not
    a JSON object, or a field that is missing, of the wrong JSON type (a
    bool is not a number) or out of range raises DomainError naming the
    field; an integer may stand for a float, nothing else converts."""
    raw, fields = json.loads(text), {}
    check(OBJECT, "a certificate", raw)
    for name, rule in CERTIFICATE_RULES.items():
        if name not in raw:
            raise DomainError(f"certificate field {name} is missing")
        check(rule, f"certificate field {name}", raw[name])
        fields[name] = rule.types[0](raw[name])
    return RepetitiveCertificate(**fields)
