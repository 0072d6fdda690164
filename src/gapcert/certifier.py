"""Probabilistic upper bounds on the optimality gap of a percentile solution.

A variance function measures, for any decision, the smallest absolute cost
difference to a retained subset D of the solve's information set.  Maximizing
that variance with a second percentile pass yields a value that exceeds the
solution's true optimality gap with quantifiable confidence, provided the
fraction p of the space whose variance beats the gap is at least the chosen
epsilon (the fairness premise).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import _rng
from .percentile import COUNT, FRACTION, PROBABILITY, THRESHOLD, DomainError, \
    InfoSet, PercentileSolution, Problem, check, confidence_of, min_samples

DEFAULT_CHI = 0.1
DEFAULT_EPSILON = 0.01  # safe when the unknown exceedance probability p >= 1e-2


@dataclass(frozen=True)
class VarianceModel:
    """Subset D of an information set plus the induced variance function."""

    problem: Problem | None
    d_indices: np.ndarray
    d_costs: np.ndarray
    chi: float
    solution_cost: float
    source_size: int


@dataclass(frozen=True)
class GapCertificate:
    """Asserts: solution_cost exceeds the true optimum by at most v_star,
    with the stated confidence (given epsilon at most the fairness p)."""

    v_star: float
    n_v: int
    epsilon: float
    confidence: float
    solution_cost: float
    chi: float
    seed: int
    d_indices: tuple[int, ...]
    low_sample_warning: bool = False

    @property
    def optimum_interval(self) -> tuple[float, float]:
        """Interval [solution_cost - v_star, solution_cost] containing the
        optimum with the certificate's confidence."""
        return self.solution_cost - self.v_star, self.solution_cost


def subsample_info(info: InfoSet, chi: float, seed: int,
                   problem: Problem | None = None) -> VarianceModel:
    """Retain a uniform without-replacement subset of max(1, floor(chi*|info|))
    points; chi = 1 retains everything.

    Pass the originating problem so the model can evaluate fresh decisions
    (certify_gap, exceedance_probability); omit it only for cost-only
    inspection.
    """
    check(FRACTION, "chi", chi)
    if len(info) == 0:
        raise DomainError("cannot subsample an empty information set")
    k = max(1, int(math.floor(chi * len(info))))
    idx = np.sort(_rng.stream(seed, _rng.SUBSAMPLE).choice(len(info), size=k,
                                                           replace=False))
    return VarianceModel(
        problem=problem,
        d_indices=idx,
        d_costs=info.costs[idx].copy(),
        chi=float(chi),
        solution_cost=float(info.costs.min()),
        source_size=len(info),
    )


def variance_of_costs(model: VarianceModel, costs: np.ndarray) -> np.ndarray:
    """min_i |cost - d_cost_i| for each cost, via one sorted-array lookup.

    Each value depends on its own cost alone, so callers that only reduce the
    result (a maximum, a count) may pass the costs in any order.  They pass
    them sorted: ``np.searchsorted`` runs about 4x faster on ascending keys,
    more than paying for the sort on the thousands of costs of a tour space.
    """
    d = np.sort(model.d_costs)
    costs = np.atleast_1d(np.asarray(costs, dtype=float))
    pos = np.searchsorted(d, costs)
    left = d[np.maximum(pos - 1, 0)]  # pos is in [0, len(d)]
    right = d[np.minimum(pos, len(d) - 1)]
    return np.minimum(np.abs(costs - left), np.abs(costs - right))


def _problem_of(model: VarianceModel) -> Problem:
    """The problem that scores a model's fresh decisions."""
    if model.problem is None:
        raise DomainError("the variance model has no problem to evaluate "
                          "decisions with; pass problem= to subsample_info")
    return model.problem


def _variance_ceiling(model: VarianceModel, problem: Problem) -> float:
    """A value no draw's variance exceeds: the larger variance of the
    enumeration's min and max cost, which those costs reach, when
    ``problem.enumeration`` is cached and that value is at least half of the
    widest gap between consecutive sorted D costs; else inf.

    Every draw then costs one of the enumerated costs.  Below the smallest D
    cost or above the largest, a cost's variance is its distance to that end,
    which peaks at the enumeration's min or max.  Between sorted neighbours
    d_i < c <= d_{i+1} it is min(fl(c - d_i), fl(d_{i+1} - c)); one of the
    two exact differences is at most (d_{i+1} - d_i)/2, and rounding is
    monotone and halving exact, so the variance is at most
    fl(d_{i+1} - d_i)/2.  This never starts an enumeration.
    """
    if not problem.enumerated:
        return math.inf
    costs = problem.enumeration[0]
    ends = float(variance_of_costs(model, [costs.min(), costs.max()]).max())
    half_gap = np.diff(np.sort(model.d_costs)).max(initial=0.0) / 2
    return ends if ends >= half_gap else math.inf


def certify_gap(model: VarianceModel, n_v: int, epsilon: float,
                seed: int) -> GapCertificate:
    """Second percentile pass: the max variance over n_v fresh uniform draws,
    packaged with its confidence 1-(1-epsilon)^n_v.

    The draws come from a stream tag disjoint from the solve's, so they are
    independent of the information set even under seed reuse.  A warning flag
    is set when n_v is too small to reach 95% confidence at this epsilon.

    The draws are scored block by block (``Problem.sample_cost_blocks``), and
    the drawing stops once the running maximum reaches ``_variance_ceiling``:
    no later draw's variance can exceed that ceiling, so v_star is the same
    maximum, in the same bits, as over all n_v draws, and n_v stays the count
    the confidence refers to.  The ceiling is finite only where an
    enumeration is already cached; this never starts one.
    """
    check(COUNT, "n_v", n_v)
    check(PROBABILITY, "epsilon", epsilon)
    problem = _problem_of(model)
    v_star, ceiling = 0.0, None
    for costs in problem.sample_cost_blocks(seed, n_v, (_rng.CERTIFY,)):
        # np.sort copies: the costs may be the cost kernel's own array
        v_star = max(v_star,
                     float(variance_of_costs(model, np.sort(costs)).max()))
        if ceiling is None:  # worth its ~30 us only if more blocks follow
            ceiling = _variance_ceiling(model, problem) \
                if len(costs) < n_v else math.inf
        if v_star >= ceiling:
            break
    warn = epsilon > 0 and n_v < min_samples(epsilon, 0.95)
    return GapCertificate(
        v_star=v_star,
        n_v=int(n_v),
        epsilon=float(epsilon),
        confidence=confidence_of(epsilon, n_v),
        solution_cost=model.solution_cost,
        chi=model.chi,
        seed=int(seed),
        d_indices=tuple(model.d_indices.tolist()),
        low_sample_warning=bool(warn),
    )


def solution_model(problem: Problem, solution: PercentileSolution,
                   chi: float) -> VarianceModel:
    """certify_solution's subsample step, at the solve seed's SUBSAMPLE child."""
    return subsample_info(solution.info, chi,
                          _rng.child_seed(solution.info.seed, _rng.SUBSAMPLE),
                          problem=problem)


def certify_model(model: VarianceModel, solution: PercentileSolution,
                  n_v: int, epsilon: float) -> GapCertificate:
    """certify_solution's certify step, at the solve seed's CERTIFY child."""
    return certify_gap(model, n_v, epsilon,
                       _rng.child_seed(solution.info.seed, _rng.CERTIFY))


def certify_solution(problem: Problem, solution: PercentileSolution, chi: float,
                     n_v: int, epsilon: float) -> tuple[VarianceModel, GapCertificate]:
    """Subsample a percentile solution's information set and certify its gap,
    at seeds derived from its solve seed (solution.info.seed)."""
    model = solution_model(problem, solution, chi)
    return model, certify_model(model, solution, n_v, epsilon)


def exceedance_costs(problem: Problem, m: int | None = None,
                     seed: int | None = None) -> np.ndarray:
    """The costs exceedance_probability scores, in ascending order and in a
    fresh array: every cost of a finite space (m and seed unused), else the
    costs of m uniform draws at (seed, LEVEL_SET), seed 0 when omitted."""
    return np.sort(problem.uniform_costs(m, 0 if seed is None else seed,
                                         _rng.LEVEL_SET))


def exceedance_probability(model: VarianceModel, threshold: float,
                           m: int | None = None, seed: int | None = None, *,
                           costs: np.ndarray | None = None) -> float:
    """Probability that a uniform decision's variance strictly exceeds the
    threshold: exact enumeration on finite spaces, the fraction of m samples
    otherwise.

    With threshold set to the solution's true optimality gap this is the
    fairness probability p that caps the usable epsilon.  Several models of
    one problem can share one draw: pass ``costs=exceedance_costs(problem,
    m, seed)`` (m and seed are then unused).  The result does not depend on
    the order of ``costs``, which is read and never written.
    """
    check(THRESHOLD, "threshold", threshold)
    if costs is None:
        costs = exceedance_costs(_problem_of(model), m, seed)
    return float((variance_of_costs(model, costs) > threshold).mean())


def certificate_to_json(cert) -> str:
    """A GapCertificate or RepetitiveCertificate as indented JSON, one key
    per field."""
    return json.dumps(asdict(cert), indent=2)
