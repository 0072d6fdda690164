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
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from . import _rng
from .oracles import OracleError, OracleResult, declared_min, exhaustive_min, \
    refine_min
from .percentile import COUNT, COUNT_FIELD, NUMBER, OBJECT, PROBABILITY, \
    SEED, STRING, DomainError, Problem, Rule, best_of, check, confidence_of


@dataclass(frozen=True)
class ProblemFamily:
    """Seeded map from a 64-bit instance seed to a bounded problem."""

    build: Callable[[int], Problem]
    description: str

    def instance(self, instance_seed: int) -> Problem:
        return self.build(int(instance_seed))


# method: (its run on (problem, n0, seed), reads n0, default gap tolerance)
Oracle = namedtuple("Oracle", "run reads_n0 tolerance")
ORACLES = {
    "exhaustive": Oracle(lambda p, n0, s: exhaustive_min(p), False, 1e-9),
    "refine-min": Oracle(lambda p, n0, s: refine_min(p, n0, s), True, 1e-6),
    "declared": Oracle(lambda p, n0, s: declared_min(p), False, 0.0)}
# The rule of each OracleConfig field, checked on construction, and config key
ORACLE_RULES = {"method": STRING, "n0": COUNT_FIELD, "gap_tolerance": Rule(
    NUMBER, lambda v: 0.0 <= v < math.inf, "a number in [0, inf)")}


@dataclass(frozen=True)
class OracleConfig:
    """How to compute an instance's ground-truth optimum, and how far below
    zero a measured gap may fall before the oracle is considered broken."""

    method: str = "refine-min"  # a key of ORACLES, or run refuses it
    n0: int = 2000
    gap_tolerance: float | None = None  # None: method default

    def __post_init__(self):
        for key, rule in ORACLE_RULES.items():
            if key != "gap_tolerance" or self.gap_tolerance is not None:
                check(rule, f"oracle.{key}", getattr(self, key))

    @property
    def tolerance(self) -> float:
        if self.gap_tolerance is not None:
            return self.gap_tolerance
        return getattr(ORACLES.get(self.method), "tolerance", 0.0)

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
        if self.method not in ORACLES:
            raise DomainError(f"unknown oracle method {self.method!r}")
        return ORACLES[self.method].run(problem, self.n0, seed)


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

    def coverage(self, gammas: list[float]) -> float:
        """The share of measured gaps that ``covers`` accepts."""
        return sum(map(self.covers, gammas)) / len(gammas)

    def check_run(self, family: str, n_p: int) -> None:
        """DomainError unless the certificate is of this family and n_p."""
        if (self.family, self.n_p) != (family, n_p):
            raise DomainError(
                f"certificate holds family {self.family!r} at n_p={self.n_p}, "
                f"but this run samples family {family!r} at n_p={n_p}")


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
    """Fraction of m fresh instances whose gap the certificate covers; one
    of another family or n_p raises DomainError (``check_run``)."""
    check(COUNT, "m", m)
    certificate.check_run(family.description, n_p)
    return certificate.coverage([s.gamma for _, s in iter_gap_samples(
        family, n_p, oracle_cfg, seed, _rng.VALIDATE, range(m))])


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
