"""Variance models, exceedance probabilities, and gap certificates."""

import json

import numpy as np
import pytest

from gapcert import (
    BENCHMARK_NAMES,
    CapacityError,
    DomainError,
    Problem,
    _rng,
    certify_gap,
    certify_solution,
    exhaustive_min,
    exceedance_probability,
    make_benchmark,
    min_samples,
    percentile_solve,
    subsample_info,
)
from gapcert.certifier import (
    GapCertificate,
    certificate_to_json,
    certify_model,
    solution_model,
    variance_of_costs,
)
from gapcert.problems import make_tsp_problem, random_tsp_instance
from gapcert.spaces import BoxSpace, PermutationSpace


def linear_problem():
    # cost(s) = s on [0, 10]: easy to reason about variances of known D costs
    return Problem(space=BoxSpace([0.0], [10.0]),
                   cost=lambda d: float(d[0]),
                   batch_cost=lambda d: np.asarray(d, dtype=float)[:, 0])


def constant_problem(c=2.0):
    return Problem(space=BoxSpace([0.0], [1.0]),
                   cost=lambda d: c,
                   batch_cost=lambda d: np.full(len(d), c))


def model_with_costs(problem, d_costs):
    from gapcert.certifier import VarianceModel
    d = np.asarray(d_costs, dtype=float)
    return VarianceModel(problem=problem, d_indices=np.arange(len(d)),
                         d_costs=d, chi=1.0, solution_cost=float(d.min()),
                         source_size=len(d))


class TestSubsample:
    def test_chi_one_keeps_everything(self):
        sol = percentile_solve(linear_problem(), 37, seed=1)
        model = subsample_info(sol.info, 1.0, seed=5)
        assert len(model.d_costs) == 37
        assert np.array_equal(np.sort(model.d_costs), np.sort(sol.info.costs))

    def test_sizes(self):
        sol100 = percentile_solve(linear_problem(), 100, seed=2)
        assert len(subsample_info(sol100.info, 0.05, seed=1).d_costs) == 5
        sol10 = percentile_solve(linear_problem(), 10, seed=2)
        assert len(subsample_info(sol10.info, 0.01, seed=1).d_costs) == 1

    def test_deterministic_and_a_subset(self):
        sol = percentile_solve(linear_problem(), 64, seed=9)
        a = subsample_info(sol.info, 0.25, seed=3)
        b = subsample_info(sol.info, 0.25, seed=3)
        assert np.array_equal(a.d_indices, b.d_indices)
        assert set(a.d_indices) <= set(range(64))
        assert np.array_equal(a.d_costs, sol.info.costs[a.d_indices])
        assert a.solution_cost == sol.best.cost

    def test_domain_errors(self):
        sol = percentile_solve(linear_problem(), 5, seed=0)
        for chi in (0.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                subsample_info(sol.info, chi, seed=1)


class TestVarianceAt:
    def test_member_of_d_scores_zero(self):
        problem = linear_problem()
        sol = percentile_solve(problem, 20, seed=4)
        model = subsample_info(sol.info, 0.5, seed=1, problem=problem)
        i = int(model.d_indices[0])
        cost = problem.evaluate(sol.info.decisions[i])
        assert variance_of_costs(model, cost).tolist() == [0.0]

    def test_single_element(self):
        model = model_with_costs(linear_problem(), [3.0])
        assert variance_of_costs(model, 5.0).tolist() == [2.0]

    def test_two_elements(self):
        model = model_with_costs(linear_problem(), [1.0, 4.0])
        assert variance_of_costs(model, 3.0).tolist() == [1.0]

    def test_batch_matches_scalar(self):
        problem = linear_problem()
        sol = percentile_solve(problem, 50, seed=8)
        model = subsample_info(sol.info, 0.2, seed=2, problem=problem)
        costs = np.linspace(0, 10, 23)
        batch = variance_of_costs(model, costs)
        direct = [min(abs(c - dc) for dc in model.d_costs) for c in costs]
        assert np.allclose(batch, direct, atol=0)

    def test_monotone_in_d(self):
        # a larger subset can only shrink the minimum distance
        problem = linear_problem()
        sol = percentile_solve(problem, 200, seed=11)
        rng = np.random.default_rng(0)
        for _ in range(50):
            k2 = int(rng.integers(2, 200))
            idx2 = rng.choice(200, size=k2, replace=False)
            k1 = int(rng.integers(1, k2))
            idx1 = rng.choice(idx2, size=k1, replace=False)
            m1 = model_with_costs(problem, sol.info.costs[idx1])
            m2 = model_with_costs(problem, sol.info.costs[idx2])
            s = rng.uniform(0, 10, size=200)
            assert (variance_of_costs(m1, s) >= variance_of_costs(m2, s)).all()


class TestCertifyGap:
    def test_constant_cost_bound_holds_with_equality(self):
        problem = constant_problem(5.0)
        sol = percentile_solve(problem, 30, seed=3)
        model = subsample_info(sol.info, 0.1, seed=1, problem=problem)
        cert = certify_gap(model, 100, 0.05, seed=7)
        assert cert.v_star == 0.0
        true_gap = sol.best.cost - 5.0
        assert cert.v_star >= true_gap == 0.0

    def test_deterministic_and_nonnegative(self):
        problem = make_tsp_problem(random_tsp_instance(7, seed=5))
        sol = percentile_solve(problem, 300, seed=6)
        model = subsample_info(sol.info, 0.1, seed=2, problem=problem)
        a = certify_gap(model, 61, 0.1, seed=9)
        b = certify_gap(model, 61, 0.1, seed=9)
        assert a == b
        assert a.v_star >= 0.0
        assert a.confidence == pytest.approx(1 - (1 - 0.1) ** 61)
        assert a.solution_cost == sol.best.cost

    def test_fresh_samples_disjoint_from_solve_stream(self):
        # certify with the same integer seed as the solve: draws must differ
        problem = linear_problem()
        sol = percentile_solve(problem, 61, seed=123)
        model = subsample_info(sol.info, 0.5, seed=1, problem=problem)
        fresh = problem.space.sample(123, 61, path=(2,))  # certify stream tag
        solve = problem.space.sample(123, 61, path=(1,))  # solve stream tag
        assert not np.array_equal(fresh, solve)

    def test_low_sample_warning(self):
        problem = linear_problem()
        sol = percentile_solve(problem, 10, seed=1)
        model = subsample_info(sol.info, 0.5, seed=1, problem=problem)
        needed = min_samples(0.01, 0.95)  # 299
        assert certify_gap(model, needed - 1, 0.01, seed=2).low_sample_warning
        assert not certify_gap(model, needed, 0.01, seed=2).low_sample_warning

    def test_json_roundtrip(self):
        problem = linear_problem()
        sol = percentile_solve(problem, 12, seed=4)
        model = subsample_info(sol.info, 0.25, seed=3, problem=problem)
        cert = certify_gap(model, 20, 0.1, seed=5)
        raw = json.loads(certificate_to_json(cert))
        assert set(raw) >= {"v_star", "n_v", "epsilon", "confidence",
                            "solution_cost", "chi", "seed", "d_indices"}
        back = GapCertificate(**{**raw, "d_indices": tuple(raw["d_indices"])})
        assert back == cert

    def test_interval_contains_optimum_for_finite_problem(self):
        problem = make_tsp_problem(random_tsp_instance(6, seed=8))
        truth = exhaustive_min(problem)
        sol = percentile_solve(problem, 500, seed=2)
        model = subsample_info(sol.info, 0.1, seed=4, problem=problem)
        cert = certify_gap(model, 200, 0.05, seed=6)
        lo, hi = cert.optimum_interval
        assert hi == sol.best.cost
        # not guaranteed, but overwhelmingly likely at these sample sizes
        assert lo <= truth.value <= hi


class TestCertifySolution:
    """The one certify pipeline draws D and the certify samples at the
    SUBSAMPLE and CERTIFY children of the solve seed."""

    @staticmethod
    def explicit(problem, sol, chi, n_v, epsilon):
        seed = sol.info.seed
        model = subsample_info(sol.info, chi, _rng.child_seed(seed, _rng.SUBSAMPLE),
                               problem=problem)
        return model, certify_gap(model, n_v, epsilon,
                                  _rng.child_seed(seed, _rng.CERTIFY))

    @pytest.mark.parametrize("name, solve_seed", [
        ("rastrigrin2", 7),  # the README certify config
        *[(name, _rng.child_seed(11, _rng.TABLE1_TRIAL, trial))  # README table1
          for name in BENCHMARK_NAMES for trial in (0, 1)],
    ])
    def test_matches_explicit_seeds(self, name, solve_seed):
        problem = make_benchmark(name)
        sol = percentile_solve(problem, 300, solve_seed)
        model, cert = certify_solution(problem, sol, 0.1, 300, 0.01)
        ref_model, ref = self.explicit(problem, sol, 0.1, 300, 0.01)
        assert np.array_equal(model.d_indices, ref_model.d_indices)
        assert (cert.d_indices, cert.v_star, cert.seed) == \
            (ref.d_indices, ref.v_star, ref.seed)
        assert cert == ref

    def test_steps_match_explicit_seeds(self):
        problem = make_tsp_problem(random_tsp_instance(6, seed=3))
        sol = percentile_solve(problem, 200, _rng.child_seed(3, _rng.TSP_FIG2_TRIAL, 0))
        model = solution_model(problem, sol, 0.1)
        ref_model, ref = self.explicit(problem, sol, 0.1, 50, 0.2)
        assert np.array_equal(model.d_indices, ref_model.d_indices)
        assert certify_model(model, sol, 50, 0.2) == ref

class TestExceedanceAndLevelSets:
    def test_all_variances_positive_at_zero_threshold(self):
        problem = make_tsp_problem(random_tsp_instance(5, seed=3))
        # costs drawn away from any tour cost: every variance is positive
        model = model_with_costs(problem, [-1.0])
        assert exceedance_probability(model, 0.0, mode="exact") == 1.0

    def test_max_threshold_gives_zero(self):
        problem = make_tsp_problem(random_tsp_instance(5, seed=3))
        sol = percentile_solve(problem, 50, seed=1)
        model = subsample_info(sol.info, 0.2, seed=2, problem=problem)
        costs = np.concatenate([problem.evaluate_batch(b)
                                for b in problem.space.enumerate()])
        vmax = variance_of_costs(model, costs).max()
        assert exceedance_probability(model, vmax, mode="exact") == 0.0

    def test_exact_requires_finite_space(self):
        model = model_with_costs(linear_problem(), [1.0])
        with pytest.raises(DomainError):
            exceedance_probability(model, 0.5, mode="exact")

    def test_capacity_error(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("enumeration started beyond the limit")

        problem = make_tsp_problem(random_tsp_instance(11, seed=1))
        sol = percentile_solve(problem, 10, seed=1)
        model = subsample_info(sol.info, 1.0, seed=1, problem=problem)
        monkeypatch.setattr(PermutationSpace, "enumerate", never)
        with pytest.raises(CapacityError):
            exceedance_probability(model, 0.1, mode="exact")

    def test_level_set_fraction_monotone_in_radius(self):
        # the level set {V <= r} is the complement of the exceedance set
        problem = linear_problem()
        sol = percentile_solve(problem, 60, seed=7)
        model = subsample_info(sol.info, 0.1, seed=2, problem=problem)
        exceedances = [exceedance_probability(model, r, mode="monte-carlo",
                                              m=3000, seed=4)
                       for r in (0.0, 0.05, 0.2, 0.5, 2.0, 20.0)]
        assert all(a >= b for a, b in zip(exceedances, exceedances[1:]))
        assert exceedances[-1] == 0.0

    def test_zero_radius_exact_counts_d_cost_matches(self):
        # distinct integer waypoints: only tours sharing an edge multiset with
        # a D member have zero variance
        problem = make_tsp_problem(random_tsp_instance(5, seed=10))
        sol = percentile_solve(problem, 8, seed=3)
        model = subsample_info(sol.info, 1.0, seed=1, problem=problem)
        costs = np.concatenate([problem.evaluate_batch(b)
                                for b in problem.space.enumerate()])
        assert exceedance_probability(model, 0.0, mode="exact") == \
            (~np.isin(costs, model.d_costs)).mean()



def test_theorem2_coverage_small_scale():
    """Certification succeeds at least as often as its stated confidence
    (small-scale version; the full 300-trial run lives in acceptance)."""
    problem = make_tsp_problem(random_tsp_instance(6, seed=14))
    truth = exhaustive_min(problem)
    all_costs = np.concatenate([problem.evaluate_batch(b)
                                for b in problem.space.enumerate()])
    successes = 0
    trials = 60
    for t in range(trials):
        sol = percentile_solve(problem, 200, seed=1000 + t)
        model = subsample_info(sol.info, 0.1, seed=2000 + t, problem=problem)
        gap = sol.best.cost - truth.value
        p = float((variance_of_costs(model, all_costs) > gap).mean())
        if p == 0.0:
            continue
        n_v = min_samples(p, 0.95)
        cert = certify_gap(model, n_v, p, seed=3000 + t)
        successes += cert.v_star >= gap
    assert successes / trials >= 0.85  # 0.95 target minus generous slack
