"""Ground-truth oracles: exact enumeration and sampled local refinement."""

import math

import numpy as np
import pytest

from gapcert import CapacityError, DomainError, Problem, \
    estimate_better_fraction, percentile_solve
from gapcert.certifier import exceedance_probability, level_set_report, \
    subsample_info, variance_of_costs
from gapcert.oracles import (
    DescentConfig,
    OracleError,
    declared_min,
    exhaustive_min,
    refine_min,
)
from gapcert import _rng
from gapcert.problems import (
    TspInstance,
    make_benchmark,
    make_tsp_problem,
    random_tsp_instance,
)
from gapcert.spaces import BoxSpace, PermutationSpace


class TestExhaustiveMin:
    def test_two_waypoints(self):
        inst = TspInstance([[0.0, 0.0], [3.0, 4.0]])
        res = exhaustive_min(make_tsp_problem(inst))
        assert res.value == pytest.approx(10.0)  # out and back: 2 * 5
        assert res.method == "exhaustive"
        assert res.evaluations == 2

    def test_unit_hexagon_perimeter(self):
        # regular hexagon with unit side: the optimal tour is the hull
        angles = [k * math.pi / 3 for k in range(6)]
        pts = [[math.cos(a), math.sin(a)] for a in angles]  # circumradius 1
        res = exhaustive_min(make_tsp_problem(TspInstance(pts)))
        assert res.value == pytest.approx(6.0, abs=1e-12)

    def test_dominates_any_sampled_minimum(self):
        problem = make_tsp_problem(random_tsp_instance(6, seed=19))
        truth = exhaustive_min(problem)
        for seed in (1, 2, 3):
            sol = percentile_solve(problem, 300, seed=seed)
            assert truth.value <= sol.best.cost
        assert problem.cost(truth.minimizer) == truth.value

    def test_first_minimizer_in_enumeration_order(self):
        # constant cost: everything ties; the identity permutation enumerates first
        problem = Problem(space=PermutationSpace(4), cost=lambda d: 1.0,
                          batch_cost=lambda d: np.ones(len(d)))
        res = exhaustive_min(problem)
        assert np.array_equal(res.minimizer, [0, 1, 2, 3])

    def test_capacity_error(self):
        problem = Problem(space=PermutationSpace(11), cost=lambda d: 0.0)
        with pytest.raises(OracleError):
            exhaustive_min(problem)

    def test_requires_finite_space(self):
        problem = Problem(space=BoxSpace([0.0], [1.0]), cost=lambda d: 0.0)
        with pytest.raises(DomainError):
            exhaustive_min(problem)


def _hexagon():
    return TspInstance([[math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)]
                        for k in range(6)])


# Random instances, then tie-heavy ones: the regular hexagon, collinear
# points, coincident waypoints and a unit grid.
QUOTIENT_INSTANCES = [pytest.param(lambda n=n, s=s: random_tsp_instance(n, s),
                                   id=f"random-{n}-{s}")
                      for n in range(3, 9) for s in (1, 2)] + [
    pytest.param(_hexagon, id="hexagon"),
    pytest.param(lambda: TspInstance([[float(i), 0.0] for i in range(7)]),
                 id="collinear-7"),
    pytest.param(lambda: TspInstance([[0, 0], [0, 0], [1, 0], [1, 0], [0, 1],
                                      [0.5, 0.5]]), id="coincident-6"),
    pytest.param(lambda: TspInstance([[i % 4, i // 4] for i in range(8)]),
                 id="grid-8"),
]


class TestTourQuotient:
    """Exact quantities over one tour per rotation/reversal class equal, bit
    for bit, brute force over every ordering."""

    @pytest.mark.parametrize("make", QUOTIENT_INSTANCES)
    def test_bitwise_equal_to_full_enumeration(self, make):
        problem = make_tsp_problem(make())
        n = problem.space.n_items
        rows = np.concatenate(list(problem.space.enumerate()))
        costs = problem.evaluate_batch(rows)
        assert len(rows) == math.factorial(n)

        truth = exhaustive_min(problem)
        first = int(np.argmin(costs))
        assert truth.value == costs[first]
        assert np.array_equal(truth.minimizer, rows[first])
        assert truth.evaluations == math.factorial(n - 1) // 2

        sol = percentile_solve(problem, 30, seed=n)
        model = subsample_info(sol.info, 0.2, seed=1, problem=problem)
        variances = variance_of_costs(model, costs)
        # thresholds at the true gap and at exact variance values, where ties
        # decide the count
        for r in (sol.best.cost - truth.value, *np.unique(variances)[:3]):
            assert exceedance_probability(model, r) == (variances > r).mean()
            assert level_set_report(model, r).fraction == (variances <= r).mean()
        for candidate in (sol.best.decision, rows[first], rows[-1]):
            threshold = problem.evaluate(candidate)
            assert estimate_better_fraction(problem, candidate, exact=True) == \
                int((costs < threshold).sum()) / len(costs)

    def test_limit_applies_to_all_orderings(self, monkeypatch):
        # 1,814,400 canonical tours would fit under 10!; the 11! orderings do not
        def never(*args, **kwargs):
            raise AssertionError("enumeration started beyond the limit")

        monkeypatch.setattr(PermutationSpace, "enumerate", never)
        problem = make_tsp_problem(random_tsp_instance(11, seed=1))
        with pytest.raises(CapacityError):
            exhaustive_min(problem)


class TestRefineMin:
    def test_rastrigin2(self):
        res = refine_min(make_benchmark("rastrigrin2"), n0=2000, seed=0)
        assert res.value <= 1e-3
        assert np.abs(res.minimizer).max() < 1e-2
        assert res.method == "refine-min"

    def test_rastrigin10(self):
        res = refine_min(make_benchmark("rastrigrin10"), n0=2000, seed=1)
        assert res.value <= 1e-2

    def test_beale_independent_check(self):
        # tighter, larger-sample verification run
        res = refine_min(make_benchmark("beale"), n0=10000, seed=2)
        assert res.value <= 1e-3
        assert np.allclose(res.minimizer, [3.0, 0.5], atol=0.05)

    def test_himmelblau_any_basin(self):
        minima = np.array([[3.0, 2.0], [-2.805118, 3.131312],
                           [-3.779310, -3.283186], [3.584428, -1.848126]])
        res = refine_min(make_benchmark("himmelblau"), n0=2000, seed=3)
        assert res.value <= 1e-3
        assert min(np.linalg.norm(res.minimizer - m) for m in minima) < 0.05

    def test_never_above_best_sample(self):
        problem = make_benchmark("ackley")
        for seed in (0, 5, 9):
            res = refine_min(problem, n0=500, seed=seed)
            samples = problem.space.sample(seed, 500, path=(_rng.ORACLE,))
            best0 = problem.evaluate_batch(samples).min()
            assert res.value <= best0

    def test_iteration_cap_reports_best_so_far(self):
        cfg = DescentConfig(max_iters=2)
        problem = make_benchmark("beale")
        res = refine_min(problem, n0=100, seed=4, config=cfg)
        assert not res.converged
        samples = problem.space.sample(4, 100, path=(_rng.ORACLE,))
        assert res.value <= problem.evaluate_batch(samples).min()

    def test_requires_projectable_space(self):
        problem = make_tsp_problem(random_tsp_instance(5, seed=1))
        with pytest.raises(DomainError):
            refine_min(problem, n0=10, seed=0)

    def test_rejects_bad_n0(self):
        with pytest.raises(DomainError):
            refine_min(make_benchmark("beale"), n0=0, seed=0)

    def test_result_dict(self):
        res = refine_min(make_benchmark("levi13"), n0=200, seed=6,
                         config=DescentConfig(max_iters=50))
        d = res.to_dict()
        assert set(d) == {"value", "minimizer", "method", "evaluations",
                          "converged"}


def test_declared_min():
    problem = make_benchmark("rastrigrin2")
    res = declared_min(problem)
    assert res.value == 0.0 and res.method == "declared"
    bare = Problem(space=BoxSpace([0.0], [1.0]), cost=lambda d: 1.0)
    with pytest.raises(OracleError):
        declared_min(bare)
