"""Variance models, exceedance probabilities, and gap certificates."""

import json
import math

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
    _variance_ceiling,
    certificate_to_json,
    certify_model,
    exceedance_costs,
    solution_model,
    variance_of_costs,
)
from gapcert.mpc import mpc_family
from gapcert.problems import make_tsp_problem, random_tsp_instance
from gapcert.spaces import _CLASS_BLOCK, BoxSpace, PermutationSpace, TourSpace


def linear_problem():
    # cost(s) = s on [0, 10]: easy to reason about variances of known D costs
    return Problem(space=BoxSpace([0.0], [10.0]),
                   batch_cost=lambda d: np.asarray(d, dtype=float)[:, 0])


def constant_problem(c=2.0):
    return Problem(space=BoxSpace([0.0], [1.0]),
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

    def test_one_sided_bounds_match_clipped_indices(self):
        # searchsorted puts pos in [0, len(d)], so clamping one side each
        # picks the same neighbours as clipping both
        def clipped(d_costs, costs):
            d = np.sort(d_costs)
            costs = np.atleast_1d(np.asarray(costs, dtype=float))
            pos = np.searchsorted(d, costs)
            left = d[np.clip(pos - 1, 0, len(d) - 1)]
            right = d[np.clip(pos, 0, len(d) - 1)]
            return np.minimum(np.abs(costs - left), np.abs(costs - right))

        rng = np.random.default_rng(22)
        problem = linear_problem()
        for k in [1, 2, 3, 17, 200]:
            d_costs = rng.uniform(2.0, 8.0, size=k)
            lo, hi = d_costs.min(), d_costs.max()
            costs = np.concatenate([
                rng.uniform(0.0, 10.0, size=300), d_costs,
                [lo, hi, lo - 1.0, hi + 1.0, np.nextafter(lo, -np.inf),
                 np.nextafter(hi, np.inf), -np.inf, np.inf]])
            model = model_with_costs(problem, d_costs)
            assert np.array_equal(variance_of_costs(model, costs),
                                  clipped(d_costs, costs))
            for c in [lo - 1.0, lo, hi, hi + 1.0]:
                assert np.array_equal(variance_of_costs(model, c),
                                      clipped(d_costs, c))

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

    @pytest.mark.parametrize("n_v", [2.7, 2.0, True, np.float64(3.0)])
    def test_refuses_a_non_integer_n_v(self, n_v):
        # 2.7 would draw 2 samples but report the confidence of 2.7
        problem = linear_problem()
        sol = percentile_solve(problem, 10, seed=1)
        model = subsample_info(sol.info, 0.5, seed=1, problem=problem)
        with pytest.raises(DomainError, match="n_v must be a positive integer"):
            certify_gap(model, n_v, 0.3, seed=2)

    @pytest.mark.parametrize("n_v", [np.int64(9), np.int32(9), np.uint8(9)])
    def test_accepts_numpy_integer_n_v(self, n_v):
        problem = linear_problem()
        sol = percentile_solve(problem, 10, seed=1)
        model = subsample_info(sol.info, 0.5, seed=1, problem=problem)
        cert = certify_gap(model, n_v, 0.3, seed=2)
        assert cert == certify_gap(model, 9, 0.3, seed=2)
        assert type(cert.n_v) is int
        assert all(type(i) is int for i in cert.d_indices)

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


class TestEnumeratedTours:
    """On tours, certify_gap reads its draws' costs from an enumeration that
    is already cached, and never starts one."""

    @pytest.mark.parametrize("k", [5, 9])
    def test_same_certificate_before_and_after_enumeration(self, k):
        instance = random_tsp_instance(k, seed=21)
        fresh, enumerated = (make_tsp_problem(instance) for _ in range(2))
        exhaustive_min(enumerated)
        for n_v, seed in ((1, 0), (299, 5), (20_000, 2**63 + 7)):
            certs = []
            for problem in (fresh, enumerated):
                sol = percentile_solve(problem, 100, seed=3)
                model = subsample_info(sol.info, 0.1, seed=4, problem=problem)
                certs.append(certify_gap(model, n_v, 0.01, seed))
            assert certs[0] == certs[1]
            assert np.float64(certs[0].v_star).tobytes() == \
                np.float64(certs[1].v_star).tobytes()
        assert "enumeration" not in fresh.__dict__

    def test_never_enumerates(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("certify_gap enumerated the tours")

        monkeypatch.setattr(TourSpace, "enumerate_canonical", never)
        problem = make_tsp_problem(random_tsp_instance(9, seed=1))
        sol = percentile_solve(problem, 100, seed=2)
        model = subsample_info(sol.info, 0.1, seed=3, problem=problem)
        cert = certify_gap(model, 139_257, 18 / 362_880, seed=4)
        assert cert.v_star >= 0.0 and "enumeration" not in problem.__dict__


class TestVarianceCeiling:
    """No enumerated cost's variance exceeds ``_variance_ceiling``, and
    wherever the ceiling is finite it is the largest such variance, in the
    same bits."""

    @staticmethod
    def models(problem):
        costs = problem.enumeration[0]
        lo, hi, mid = (float(f(costs)) for f in (np.min, np.max, np.median))
        for seed, chi in ((1, 0.1), (2, 0.5), (3, 1.0)):  # chi 1 keeps ties
            sol = percentile_solve(problem, 60, seed=seed)
            yield subsample_info(sol.info, chi, seed=seed + 10, problem=problem)
        for d in ([mid, mid, mid], [lo, lo, hi], [lo, hi], [mid],
                  [lo - 1.0, mid, mid], [hi, hi + 2.0]):
            yield model_with_costs(problem, d)

    @pytest.mark.parametrize("k", range(3, 10))
    def test_sound_and_exact_where_finite(self, k):
        problem = make_tsp_problem(random_tsp_instance(k, seed=30 + k))
        exhaustive_min(problem)
        finite = []
        for model in self.models(problem):
            ceiling = _variance_ceiling(model, problem)
            top = variance_of_costs(model, problem.enumeration[0]).max()
            assert ceiling >= top
            finite.append(ceiling < math.inf)
            if finite[-1]:
                assert np.float64(ceiling).tobytes() == top.tobytes()
        assert any(finite) and not all(finite)  # both outcomes are tested

    def test_inf_without_an_enumeration_and_never_starts_one(self):
        problem = make_tsp_problem(random_tsp_instance(6, seed=1))
        model = subsample_info(percentile_solve(problem, 50, seed=2).info,
                               0.2, seed=3, problem=problem)
        assert _variance_ceiling(model, problem) == math.inf
        assert not problem.enumerated


class TestEarlyStop:
    """On an enumerated tour problem certify_gap stops drawing once a draw
    reaches the variance ceiling, and certifies what all n_v draws would."""

    N_V = (139_257, 8_191, 8_192, 8_193, 16_385)

    @staticmethod
    def rows_drawn(monkeypatch):
        """A list that collects the rows of every uniform block drawn."""
        drawn = []
        blocks = _rng.uniform_blocks

        def counted(*args, **kwargs):
            for u in blocks(*args, **kwargs):
                drawn.append(len(u))
                yield u

        monkeypatch.setattr(_rng, "uniform_blocks", counted)
        return drawn

    @staticmethod
    def models(seed):
        """A fresh and an enumerated tsp-9 problem, each with the model of
        the same solve."""
        instance = random_tsp_instance(9, seed=seed)
        fresh, enumerated = (make_tsp_problem(instance) for _ in range(2))
        exhaustive_min(enumerated)
        return [subsample_info(percentile_solve(p, 1000, seed=seed).info, 0.1,
                               seed=seed, problem=p) for p in (fresh, enumerated)]

    def certify_both(self, models, n_v, seed, drawn):
        """The fresh and the enumerated certificate, after checking they
        match field for field; returns the rows the enumerated one drew."""
        want = certify_gap(models[0], n_v, 18 / 362_880, seed)
        drawn.clear()
        got = certify_gap(models[1], n_v, 18 / 362_880, seed)
        assert got == want
        assert np.float64(got.v_star).tobytes() == \
            np.float64(want.v_star).tobytes()
        assert not models[0].problem.enumerated
        return sum(drawn)

    def test_same_certificate_from_fewer_rows(self, monkeypatch):
        # seed 5: the first draw to reach the ceiling is draw 3,146
        models = self.models(5)
        ceiling = _variance_ceiling(models[1], models[1].problem)
        assert ceiling < math.inf
        drawn = self.rows_drawn(monkeypatch)
        block = _CLASS_BLOCK  # 8,192
        for n_v in self.N_V:
            rows = self.certify_both(models, n_v, 5, drawn)
            variances = variance_of_costs(
                models[1], models[0].problem.sample_costs(5, n_v,
                                                          (_rng.CERTIFY,)))
            first = int(np.argmax(variances >= ceiling))
            assert variances[first] == ceiling
            assert rows == min(n_v, (first // block + 1) * block)
            assert rows < n_v or n_v <= block

    def test_no_finite_ceiling_draws_every_row(self, monkeypatch):
        models = self.models(10)
        assert _variance_ceiling(models[1], models[1].problem) == math.inf
        drawn = self.rows_drawn(monkeypatch)
        for n_v in self.N_V:
            assert self.certify_both(models, n_v, 10, drawn) == n_v


class TestModelWithoutProblem:
    """A model built without a problem cannot score fresh decisions."""

    @staticmethod
    def model():
        problem = make_tsp_problem(random_tsp_instance(6, seed=2))
        return subsample_info(percentile_solve(problem, 30, seed=1).info, 0.2, 3)

    def test_certify_gap(self):
        with pytest.raises(DomainError, match="pass problem= to subsample_info"):
            certify_gap(self.model(), 10, 0.1, seed=1)

    def test_exceedance_probability(self):
        with pytest.raises(DomainError, match="pass problem= to subsample_info"):
            exceedance_probability(self.model(), 0.1)

    def test_exceedance_probability_of_given_costs(self):
        model = self.model()
        costs = np.array([model.d_costs[0], model.d_costs[0] + 1.0])
        assert exceedance_probability(model, 0.0, costs=costs) == 0.5


class TestThreshold:
    def test_nan_threshold_is_refused(self):
        problem = make_tsp_problem(random_tsp_instance(6, seed=2))
        model = subsample_info(percentile_solve(problem, 30, seed=1).info, 0.2,
                               3, problem=problem)
        for threshold in (float("nan"), np.nan, -1.0):
            with pytest.raises(DomainError, match="threshold must be >= 0"):
                exceedance_probability(model, threshold)
        assert exceedance_probability(model, float("inf")) == 0.0
        assert exceedance_probability(model, 0.0) > 0.0


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
        assert exceedance_probability(model, 0.0) == 1.0

    def test_max_threshold_gives_zero(self):
        problem = make_tsp_problem(random_tsp_instance(5, seed=3))
        sol = percentile_solve(problem, 50, seed=1)
        model = subsample_info(sol.info, 0.2, seed=2, problem=problem)
        costs = np.concatenate([problem.evaluate_batch(b)
                                for b in problem.space.enumerate()])
        vmax = variance_of_costs(model, costs).max()
        assert exceedance_probability(model, vmax) == 0.0

    def test_continuous_space_needs_m(self):
        model = model_with_costs(linear_problem(), [1.0])
        for m in (None, 0, 2.7, 3.0, True):
            with pytest.raises(DomainError):
                exceedance_probability(model, 0.5, m=m)
            with pytest.raises(DomainError):
                exceedance_costs(model.problem, m=m)

    def test_exact_on_tours_monte_carlo_on_box(self):
        # the space decides: a tour space is enumerated whatever m and seed
        # say; a box is sampled at (seed, LEVEL_SET)
        problem = make_tsp_problem(random_tsp_instance(6, seed=2))
        model = model_with_costs(problem, [3.0])
        v = variance_of_costs(model, problem.enumeration[0])
        for m, seed in ((None, None), (5, 1), (100, 7)):
            assert exceedance_probability(model, 0.4, m=m, seed=seed) == \
                (v > 0.4).mean()
        problem = linear_problem()
        model = model_with_costs(problem, [3.0])
        costs = problem.evaluate_batch(
            problem.space.sample(9, 500, path=(_rng.LEVEL_SET,)))
        assert exceedance_probability(model, 2.0, m=500, seed=9) == \
            (variance_of_costs(model, costs) > 2.0).mean()

    def test_capacity_error(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("enumeration started beyond the limit")

        problem = make_tsp_problem(random_tsp_instance(11, seed=1))
        sol = percentile_solve(problem, 10, seed=1)
        model = subsample_info(sol.info, 1.0, seed=1, problem=problem)
        monkeypatch.setattr(PermutationSpace, "enumerate", never)
        with pytest.raises(CapacityError):
            exceedance_probability(model, 0.1)

    def test_level_set_fraction_monotone_in_radius(self):
        # the level set {V <= r} is the complement of the exceedance set
        problem = linear_problem()
        sol = percentile_solve(problem, 60, seed=7)
        model = subsample_info(sol.info, 0.1, seed=2, problem=problem)
        exceedances = [exceedance_probability(model, r, m=3000, seed=4)
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
        assert exceedance_probability(model, 0.0) == \
            (~np.isin(costs, model.d_costs)).mean()


class TestSortedCosts:
    """certify_gap and exceedance_probability score sorted costs; the values
    are those of the per-element formula on the costs in draw order, and the
    caller's cost arrays are left as they were."""

    @staticmethod
    def problems():
        tsp = make_tsp_problem(random_tsp_instance(7, seed=4))
        mpc = mpc_family().instance(_rng.child_seed(5, _rng.FAMILY, 0))
        return [tsp, make_benchmark("beale"), mpc]

    @staticmethod
    def per_element(model, costs):
        """min_i |c - d_i| of each cost, by brute force."""
        return np.abs(costs[:, None] - model.d_costs[None, :]).min(axis=1)

    @staticmethod
    def handing_out_its_batch(problem):
        """problem, with a kernel that returns one array it keeps, read-only."""
        kept = []

        def batch_cost(decisions):
            kept.append(problem.evaluate_batch(decisions))
            kept[-1].flags.writeable = False
            return kept[-1]

        return Problem(space=problem.space, batch_cost=batch_cost,
                       name=problem.name), kept

    def test_values_of_the_unsorted_costs(self):
        for problem in self.problems():
            sol = percentile_solve(problem, 200, seed=11)
            model = subsample_info(sol.info, 0.1, seed=12, problem=problem)
            cert = certify_gap(model, 300, 0.01, seed=13)
            costs = problem.evaluate_batch(
                problem.space.sample(13, 300, path=(_rng.CERTIFY,)))
            assert not np.all(costs[:-1] <= costs[1:])
            assert cert.v_star == self.per_element(model, costs).max()
            m = None if problem.space.cardinality else 2000
            drawn = problem.uniform_costs(m, 14, _rng.LEVEL_SET)
            variances = self.per_element(model, drawn)
            for threshold in (0.0, float(np.median(variances))):
                expected = float((variances > threshold).mean())
                assert exceedance_probability(model, threshold, m=m,
                                              seed=14) == expected
                shuffled = np.random.default_rng(1).permutation(drawn)
                assert exceedance_probability(model, threshold,
                                              costs=shuffled) == expected

    def test_leaves_the_callers_costs_alone(self):
        for problem in self.problems():
            sol = percentile_solve(problem, 100, seed=21)
            wrapped, kept = self.handing_out_its_batch(problem)
            model = subsample_info(sol.info, 0.2, seed=22, problem=wrapped)
            certify_gap(model, 200, 0.01, seed=23)
            costs = problem.evaluate_batch(
                problem.space.sample(23, 200, path=(_rng.CERTIFY,)))
            assert np.array_equal(kept[-1], costs)
            m = None if problem.space.cardinality else 500
            drawn = exceedance_costs(wrapped, m, seed=24)
            assert np.all(drawn[:-1] <= drawn[1:])
            unsorted = problem.uniform_costs(m, 24, _rng.LEVEL_SET).copy()
            before = unsorted.copy()
            exceedance_probability(model, 0.1, costs=unsorted)
            assert np.array_equal(unsorted, before)
            if problem.space.cardinality:
                assert np.array_equal(wrapped.enumeration[0],
                                      problem.enumeration[0])
            else:
                assert np.array_equal(kept[-1], before)


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


@pytest.mark.parametrize("n", [1, 2, 7, 37, 300])
def test_chi_one_keeps_every_index_in_order(n):
    info = percentile_solve(linear_problem(), n, seed=n).info
    for seed in (0, 1, 5, 2**63):
        model = subsample_info(info, 1.0, seed)
        assert np.array_equal(model.d_indices, np.arange(n))
        assert np.array_equal(model.d_costs, info.costs)
