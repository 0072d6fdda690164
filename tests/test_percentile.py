"""Percentile calculus and the seeded solver."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from gapcert import (
    CapacityError,
    DomainError,
    EvaluationError,
    Problem,
    _rng,
    confidence_of,
    estimate_better_fraction,
    min_samples,
    percentile_solve,
    write_infoset_csv,
)
from gapcert.oracles import exhaustive_min
from gapcert.problems import make_tsp_problem, random_tsp_instance
from gapcert.spaces import BoxSpace, PermutationSpace, TourSpace


def constant_problem(c=3.5):
    return Problem(space=BoxSpace([0.0, 0.0], [1.0, 1.0]),
                   batch_cost=lambda d: np.full(len(d), c))


# exact reference values computed with rational arithmetic
def exact_confidence(eps_num, eps_den, n):
    return 1 - Fraction(eps_den - eps_num, eps_den) ** n


class TestConfidenceOf:
    def test_tsp_paper_claim(self):
        assert confidence_of(0.001, 5000) >= 0.99

    def test_single_bernoulli(self):
        assert confidence_of(0.5, 1) == 0.5

    def test_high_precision_values(self):
        assert confidence_of(0.001, 5000) == pytest.approx(
            float(exact_confidence(1, 1000, 5000)), abs=1e-9)
        assert abs(confidence_of(0.001, 5000) - 0.993279) < 1e-6
        assert confidence_of(0.01, 300) == pytest.approx(
            float(exact_confidence(1, 100, 300)), abs=1e-9)
        assert abs(confidence_of(0.01, 300) - 0.9509591) < 1e-6

    def test_edges(self):
        assert confidence_of(0.0, 10) == 0.0
        assert confidence_of(1.0, 1) == 1.0

    def test_monotone_in_both_arguments(self):
        eps_grid = [0.0, 1e-4, 0.01, 0.1, 0.5, 0.9, 1.0]
        n_grid = [1, 2, 5, 10, 100, 10000]
        for n in n_grid:
            vals = [confidence_of(e, n) for e in eps_grid]
            assert all(a <= b for a, b in zip(vals, vals[1:]))
        for e in eps_grid:
            vals = [confidence_of(e, n) for n in n_grid]
            assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            confidence_of(-0.1, 5)
        with pytest.raises(DomainError):
            confidence_of(1.1, 5)
        with pytest.raises(DomainError):
            confidence_of(0.5, 0)

    @pytest.mark.parametrize("n", [2.7, 2.0, True, np.float64(3.0), "3"])
    def test_refuses_a_non_integer_count(self, n):
        # 2.7 would report 0.618, a confidence its two samples do not give
        with pytest.raises(DomainError, match="n must be a positive integer"):
            confidence_of(0.3, n)

    @pytest.mark.parametrize("n", [np.int64(5), np.int32(5), np.uint8(5)])
    def test_accepts_numpy_integers(self, n):
        assert confidence_of(0.3, n) == confidence_of(0.3, 5)


class TestMinSamples:
    def test_reported_sample_counts(self):
        assert min_samples(0.1083, 0.7) == 11
        assert min_samples(0.1083, 0.999) == 61
        assert min_samples(0.01, 0.99) == 459

    def test_certain_event(self):
        assert min_samples(1.0, 0.9) == 1

    def test_boundary_exactness_on_grid(self):
        for eps in (1e-4, 0.001, 0.0123, 0.1, 0.1083, 0.33, 0.9):
            for conf in (0.0, 0.5, 0.7, 0.9, 0.99, 0.999, 0.999999):
                n = min_samples(eps, conf)
                assert confidence_of(eps, n) >= conf
                if n > 1:
                    assert confidence_of(eps, n - 1) < conf

    def test_rejects_zero_epsilon(self):
        with pytest.raises(DomainError):
            min_samples(0.0, 0.5)
        with pytest.raises(DomainError):
            min_samples(0.5, 1.0)


class TestPercentileSolve:
    def test_constant_cost(self):
        for n_p, seed in ((1, 0), (17, 5), (400, 99)):
            sol = percentile_solve(constant_problem(2.25), n_p, seed)
            assert sol.best.cost == 2.25
            assert sol.best_index == 0  # ties break to first sample

    def test_reproducible_bitwise(self):
        problem = make_tsp_problem(random_tsp_instance(6, seed=3))
        a = percentile_solve(problem, 250, seed=8)
        b = percentile_solve(problem, 250, seed=8)
        assert np.array_equal(a.info.decisions, b.info.decisions)
        assert np.array_equal(a.info.costs, b.info.costs)
        assert a.best_index == b.best_index

    def test_nested_streams_never_worsen(self):
        problem = make_tsp_problem(random_tsp_instance(7, seed=1))
        prev = math.inf
        small = percentile_solve(problem, 50, seed=4)
        for n_p in (50, 100, 400, 1000):
            sol = percentile_solve(problem, n_p, seed=4)
            assert np.array_equal(sol.info.costs[:50], small.info.costs)
            assert sol.best.cost <= prev
            prev = sol.best.cost

    def test_sampled_min_never_beats_global_min(self):
        problem = make_tsp_problem(random_tsp_instance(6, seed=12))
        truth = exhaustive_min(problem)
        sol = percentile_solve(problem, 720, seed=77)
        assert sol.best.cost >= truth.value

    def test_nonfinite_cost_is_an_error(self):
        space = BoxSpace([0.0], [1.0])
        problem = Problem(space=space, batch_cost=lambda d: np.where(
            d[:, 0] > 0.5, math.nan, 1.0))
        with pytest.raises(EvaluationError) as err:
            percentile_solve(problem, 64, seed=2)
        assert err.value.decision is not None

    def test_rejects_bad_n_p(self):
        with pytest.raises(DomainError):
            percentile_solve(constant_problem(), 0, seed=1)

    @pytest.mark.parametrize("n_p", [2.7, 2.0, True, np.float64(3.0)])
    def test_refuses_a_non_integer_n_p(self, n_p):
        with pytest.raises(DomainError, match="n_p must be a positive integer"):
            percentile_solve(constant_problem(), n_p, seed=1)

    @pytest.mark.parametrize("n_p", [np.int64(7), np.int32(7), np.uint16(7)])
    def test_accepts_numpy_integer_n_p(self, n_p):
        problem = make_tsp_problem(random_tsp_instance(6, seed=2))
        got, want = (percentile_solve(problem, n, seed=3) for n in (n_p, 7))
        assert np.array_equal(got.info.decisions, want.info.decisions)
        assert np.array_equal(got.info.costs, want.info.costs)
        assert got.info.n_p == 7


class TestEstimateBetterFraction:
    def test_global_minimizer_scores_zero(self):
        problem = make_tsp_problem(random_tsp_instance(5, seed=9))
        truth = exhaustive_min(problem)
        assert estimate_better_fraction(problem, truth.minimizer) == 0.0
        assert estimate_better_fraction(problem, truth.minimizer,
                                        m=500, seed=3) == 0.0

    def test_constant_cost_scores_zero(self):
        problem = constant_problem()
        assert estimate_better_fraction(problem, [0.5, 0.5], m=200, seed=1) == 0.0

    def test_worst_tour_by_exhaustive_enumeration(self):
        instance = random_tsp_instance(6, seed=21)
        problem = make_tsp_problem(instance)
        # independent oracle: brute force over all 720 orderings
        costs = []
        for perm in itertools.permutations(range(6)):
            pts = [instance.waypoints[i] for i in perm]
            hops = [math.dist(pts[i], pts[i + 1]) for i in range(5)]
            hops.append(math.dist(pts[0], pts[-1]))
            costs.append(math.fsum(hops))  # fsum: exactly rounded, order-free
        worst = max(costs)
        worst_perm = list(itertools.permutations(range(6)))[costs.index(worst)]
        ties = sum(1 for c in costs if c >= worst)
        expected = (720 - ties) / 720
        got = estimate_better_fraction(problem, np.asarray(worst_perm))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_exact_respects_enumeration_limit(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("enumeration started beyond the limit")

        monkeypatch.setattr(PermutationSpace, "enumerate", never)
        problem = Problem(space=PermutationSpace(11),
                          batch_cost=lambda d: np.zeros(len(d)))
        with pytest.raises(CapacityError):
            estimate_better_fraction(problem, np.arange(11))

    def test_exact_matches_brute_force_for_solver_best(self):
        instance = random_tsp_instance(5, seed=30)
        problem = make_tsp_problem(instance)
        sol = percentile_solve(problem, 40, seed=2)
        brute = 0
        for perm in itertools.permutations(range(5)):
            if problem.evaluate(perm) < sol.best.cost:
                brute += 1
        assert estimate_better_fraction(problem, sol.best.decision) == brute / 120

    def test_exact_on_tours_monte_carlo_on_box(self):
        # the space decides: a tour space is enumerated whatever m and seed
        # say; a box is sampled at (seed, BETTER_FRACTION)
        problem = make_tsp_problem(random_tsp_instance(6, seed=4))
        costs = problem.enumeration[0]
        candidate = np.array([0, 2, 4, 1, 3, 5])
        expected = (costs < problem.evaluate(candidate)).mean()
        assert 0.0 < expected < 1.0
        for m, seed in ((1, 0), (7, 3), (500, 11)):
            assert estimate_better_fraction(problem, candidate, m, seed) == expected
        problem = Problem(space=BoxSpace([0.0], [10.0]),
                          batch_cost=lambda d: np.asarray(d, dtype=float)[:, 0])
        draws = problem.space.sample(5, 400, path=(_rng.BETTER_FRACTION,))
        assert estimate_better_fraction(problem, [3.0], m=400, seed=5) == \
            (draws[:, 0] < 3.0).mean()
        # a continuous space needs a sample count: no one-draw default
        for m in (None, 0, 2.7, 3.0, True):
            with pytest.raises(DomainError):
                estimate_better_fraction(problem, [3.0], m=m)


def check_infoset_csv(path, info, dtype):
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    assert header == "index,cost,decision"
    assert rows == [f'{i},{float(info.costs[i])!r},"{json.dumps(d)}"'
                    for i, d in enumerate(info.decisions.tolist())]
    manifest = path.with_suffix(".manifest.json").read_text(encoding="utf-8")
    assert json.loads(manifest) == {"seed": info.seed, "n_p": len(info),
                                    "decision_dtype": dtype}


class TestSampleCosts:
    """``sample_costs`` reads an enumerated tour space's costs at the draws'
    classes, with the bits of evaluating the drawn tours."""

    DRAWS = [(0, (), 0), (0, (), 1), (3, (_rng.CERTIFY,), 777),
             (2**63 + 5, (3, 9), 8193), (11, (_rng.LEVEL_SET,), 20_000)]

    @staticmethod
    def evaluated(problem, seed, n, path):
        return problem.evaluate_batch(problem.space.sample(seed, n, path=path))

    @pytest.mark.parametrize("k", range(3, 11))
    def test_bitwise_equal_to_evaluating_the_draws(self, k, monkeypatch):
        tours = make_tsp_problem(random_tsp_instance(k, seed=k))
        evaluated = []

        def batch_cost(orders):
            evaluated.append(len(orders))
            return tours.batch_cost(orders)

        problem = Problem(space=tours.space, batch_cost=batch_cost)
        for seed, path, n in self.DRAWS:
            got = problem.sample_costs(seed, n, path)
            assert got.tobytes() == self.evaluated(tours, seed, n, path).tobytes()
        exhaustive_min(problem)
        want = [self.evaluated(tours, seed, n, path)
                for seed, path, n in self.DRAWS]
        evaluated.clear()
        if k <= 9:  # the lookup decodes no tour and evaluates none
            def never(*args, **kwargs):
                raise AssertionError("draws decoded")

            monkeypatch.setattr(PermutationSpace, "sample", never)
        else:  # tsp-10 has no class table
            monkeypatch.setattr(TourSpace, "sample_classes", None)
        for (seed, path, n), costs in zip(self.DRAWS, want):
            got = problem.sample_costs(seed, n, path)
            assert got.dtype == np.float64 and got.tobytes() == costs.tobytes()
        assert sum(evaluated) == (0 if k <= 9 else sum(n for *_, n in self.DRAWS))

    def test_never_starts_an_enumeration(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("tours enumerated")

        monkeypatch.setattr(TourSpace, "enumerate_canonical", never)
        problem = make_tsp_problem(random_tsp_instance(9, seed=1))
        problem.sample_costs(0, 50, (_rng.CERTIFY,))
        assert "enumeration" not in problem.__dict__

    def test_other_spaces_evaluate_their_draws(self):
        problem = Problem(space=BoxSpace([0.0, 0.0], [1.0, 2.0]),
                          batch_cost=lambda d: d.sum(axis=1))
        got = problem.sample_costs(4, 300, (_rng.CERTIFY,))
        assert got.tobytes() == self.evaluated(problem, 4, 300,
                                               (_rng.CERTIFY,)).tobytes()


def test_infoset_csv_tour_rows_and_manifest(tmp_path):
    """Tours are written as JSON integer arrays, costs as float reprs."""
    problem = make_tsp_problem(random_tsp_instance(5, seed=2))
    sol = percentile_solve(problem, 25, seed=6)
    write_infoset_csv(sol.info, tmp_path / "info.csv")
    check_infoset_csv(tmp_path / "info.csv", sol.info, "int")


def test_infoset_csv_box_rows_and_manifest(tmp_path):
    sol = percentile_solve(constant_problem(), 9, seed=1)
    write_infoset_csv(sol.info, tmp_path / "box.csv")
    check_infoset_csv(tmp_path / "box.csv", sol.info, "float")
