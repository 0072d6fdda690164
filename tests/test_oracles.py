"""Ground-truth oracles: exact enumeration and sampled local refinement."""

import collections
import dataclasses
import itertools
import math

import numpy as np
import pytest

from gapcert import CapacityError, DomainError, Problem, \
    estimate_better_fraction, percentile_solve
from gapcert.certifier import exceedance_probability, subsample_info, \
    variance_of_costs
from gapcert import oracles
from gapcert.oracles import (
    OracleError,
    declared_min,
    exhaustive_min,
    refine_min,
)
from gapcert import _rng
from gapcert import mpc
from gapcert.experiments import uniform_gap_family
from gapcert.mpc import mpc_family
from gapcert.percentile import best_of
from gapcert.problems import (
    BENCHMARK_NAMES,
    TspInstance,
    make_benchmark,
    make_tsp_family,
    make_tsp_problem,
    random_tsp_instance,
)
from gapcert.repetitive import OracleConfig, ProblemFamily, sample_gap
from gapcert.spaces import BoxSpace, PermutationSpace, TourSpace


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
        assert problem.evaluate(truth.minimizer) == truth.value

    def test_first_minimizer_in_enumeration_order(self):
        # constant cost: everything ties; the identity permutation enumerates first
        problem = Problem(space=PermutationSpace(4),
                          batch_cost=lambda d: np.ones(len(d)))
        res = exhaustive_min(problem)
        assert np.array_equal(res.minimizer, [0, 1, 2, 3])

    def test_tie_across_enumeration_blocks(self):
        # the only minima sit mid-block in the blocks of orderings that start
        # with 1 and with 5; the earlier one must win
        targets = np.array([[1, 0, 3, 2, 5, 4, 7, 6], [5, 7, 0, 2, 4, 6, 1, 3]])

        def costs(rows):
            rows = np.atleast_2d(rows)
            return (rows[:, None, :] != targets).sum(axis=2).min(axis=1) * 1.0

        problem = Problem(space=PermutationSpace(8), batch_cost=costs)
        blocks = list(problem.space.enumerate())
        assert [i for i, b in enumerate(blocks) if (costs(b) == 0).any()] == [1, 5]
        res = exhaustive_min(problem)
        assert (res.value, res.evaluations) == (0.0, math.factorial(8))
        assert np.array_equal(res.minimizer, targets[0])
        brute = [costs(np.array(p))[0] for p in itertools.permutations(range(8))]
        for candidate in (targets[1], [0, 1, 2, 3, 4, 5, 6, 7],
                          [1, 0, 3, 2, 5, 4, 6, 7]):
            threshold = problem.evaluate(candidate)
            assert estimate_better_fraction(problem, candidate) == \
                sum(c < threshold for c in brute) / len(brute)

    def test_capacity_error(self):
        problem = Problem(space=PermutationSpace(11),
                          batch_cost=lambda d: np.zeros(len(d)))
        with pytest.raises(OracleError):
            exhaustive_min(problem)

    def test_requires_finite_space(self):
        problem = Problem(space=BoxSpace([0.0], [1.0]),
                          batch_cost=lambda d: np.zeros(len(d)))
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
        for candidate in (sol.best.decision, rows[first], rows[-1]):
            threshold = problem.evaluate(candidate)
            assert estimate_better_fraction(problem, candidate) == \
                int((costs < threshold).sum()) / len(costs)

    def test_limit_applies_to_all_orderings(self, monkeypatch):
        # 1,814,400 canonical tours would fit under 10!; the 11! orderings do not
        def never(*args, **kwargs):
            raise AssertionError("enumeration started beyond the limit")

        monkeypatch.setattr(PermutationSpace, "enumerate", never)
        problem = make_tsp_problem(random_tsp_instance(11, seed=1))
        with pytest.raises(CapacityError):
            exhaustive_min(problem)


class TestEnumerationCache:
    @staticmethod
    def exact_values(problem_for):
        """The three exact quantities, each on the problem problem_for()
        returns for it."""
        truth = exhaustive_min(problem_for())
        sol = percentile_solve(problem_for(), 30, seed=4)
        gap = sol.best.cost - truth.value

        def model():
            return subsample_info(sol.info, 0.2, seed=1, problem=problem_for())

        return (truth.value, truth.minimizer.tolist(), truth.evaluations,
                exceedance_probability(model(), gap),
                estimate_better_fraction(problem_for(), sol.best.decision))

    def test_one_enumeration_per_problem(self, monkeypatch):
        instance = random_tsp_instance(6, seed=3)
        calls = []
        enumerate_ = TourSpace.enumerate_canonical

        def counted(space):
            calls.append(space.n_items)
            return enumerate_(space)

        monkeypatch.setattr(TourSpace, "enumerate_canonical", counted)
        problem = make_tsp_problem(instance)
        shared = self.exact_values(lambda: problem)
        assert len(calls) == 1
        calls.clear()
        fresh = self.exact_values(lambda: make_tsp_problem(instance))
        assert len(calls) == 3
        assert repr(shared) == repr(fresh)

    def test_failed_enumeration_caches_nothing(self):
        problem = make_tsp_problem(random_tsp_instance(11, seed=1))
        for _ in range(2):
            with pytest.raises(CapacityError):
                exhaustive_min(problem)
        assert "enumeration" not in vars(problem)


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

    def test_iteration_cap_reports_best_so_far(self, monkeypatch):
        monkeypatch.setattr(oracles, "MAX_ITERS", 2)
        problem = make_benchmark("beale")
        res = refine_min(problem, n0=100, seed=4)
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

    @pytest.mark.parametrize("n0", [2.7, 2.0, True, np.float64(3.0), "3"])
    def test_rejects_a_non_integer_n0(self, n0):
        # 2.7 used to run and report a fractional evaluation count
        with pytest.raises(DomainError, match="n0"):
            refine_min(make_benchmark("beale"), n0=n0, seed=1)

    def test_accepts_a_numpy_integer_n0(self):
        a = refine_min(make_benchmark("beale"), n0=np.int64(50), seed=1)
        b = refine_min(make_benchmark("beale"), n0=50, seed=1)
        assert (a.value, a.evaluations) == (b.value, b.evaluations)
        assert type(a.evaluations) is int  # a count that JSON can write
        assert np.array_equal(a.minimizer, b.minimizer)


# refine_min results recorded before its stencils were batched across
# levels: (value, minimizer, converged).  Benchmarks at n0 = 2000; waypoint
# instances at n0 = 2000 (several with failed line searches), and at n0 = 3
# on instances where the descent moves.
BENCHMARK_PINS = {
    ('rastrigrin2', 0): (0.0, [5.547975048891745e-10, 7.43175870184242e-10], True),
    ('rastrigrin2', 1): (0.0, [1.8369841313075107e-13, 2.4009192912475343e-15], True),
    ('rastrigrin10', 0): (0.0, [-1.6551955346038062e-17, 4.9533442295985443e-17, 1.6685012708388644e-17, 1.745771577959727e-19, -3.4428457173253114e-09, -2.5495914816586306e-17, 1.5440465609820714e-17, -1.5440465609820714e-17, -6.520774104554859e-17, 6.145973620542873e-17], True),
    ('rastrigrin10', 1): (0.0, [-1.2478835746749368e-16, 6.153589031032534e-16, 5.992359366915683e-15, -2.6078651401365513e-12, -2.0180625085914074e-15, -3.970213934717638e-15, -2.3334530881085714e-15, -1.0038039589450052e-14, -2.7241207361276645e-16, 2.4186502822870284e-15], True),
    ('ackley', 0): (0.0, [8.066422063254417e-17, 2.3582946686386057e-16], True),
    ('ackley', 1): (0.0, [-2.0572228915551084e-16, 1.786475001951252e-16], True),
    ('beale', 0): (2.3854727096532778e-08, [2.9996341370459, 0.4998990158618064], False),
    ('beale', 1): (3.801326900440042e-07, [2.9985405475114537, 0.49959690528403566], False),
    ('levi13', 0): (1.3497838043956716e-31, [1.0, 1.0], True),
    ('levi13', 1): (1.3497838043956716e-31, [1.0, 1.0], True),
    ('himmelblau', 0): (2.1865773344018918e-20, [3.584428340314893, -1.8481265269355], True),
    ('himmelblau', 1): (2.718287708442379e-20, [-3.7793102533597263, -3.283185991265516], True),
}
MPC_PINS = {
    (0, 2000): (1.28, [-0.16352834009179498, -0.6185518985655643], True),
    (1, 2000): (0.96, [-0.2703406523680624, 0.14821843399537543], True),
    (2, 2000): (0.0, [0.7985445082624404, -0.8265851625299963], True),
    (3, 2000): (0.4, [0.5611758959181354, 0.833217860778855], True),
    (4, 2000): (0.0, [-1.1212243522732248, -0.28612454083474503], True),
    (5, 2000): (1.28, [-0.6804404789125746, -0.471540997189903], True),
    (6, 2000): (0.8, [-0.76294204534469, 1.062292718747241], True),
    (7, 2000): (1.3599999999999999, [0.6390387060713918, 1.1545695846632908], True),
    (8, 2000): (0.88, [-0.6863575722028091, 0.28127141553416135], True),
    (9, 2000): (0.0, [0.007493744260955587, -0.24678211940459838], True),
    (10, 2000): (1.8399999999999999, [-1.4320796599166774, 0.3426176332514581], True),
    (11, 2000): (1.6, [0.3572674978467732, 0.39414068051721785], True),
    (12, 2000): (0.4, [-0.3580038375744022, -0.6907528697802409], True),
    (13, 2000): (0.0, [-0.06463262223467743, -0.6905484532795308], True),
    (14, 2000): (100.0, [0.3928082414473845, -0.05806665619030836], True),
    (25, 3): (0.0, [-0.8191871542029397, 0.9829333447898734], True),
    (56, 3): (1.3599999999999999, [1.1800220133426123, 0.7688591925483955], True),
    (113, 3): (1.6800000000000002, [0.3691352616364174, -1.1263282653672626], True),
    (114, 3): (0.0, [1.2062520253876583, 1.108657896416958], True),
    (183, 3): (0.0, [-1.0246683531444112, 0.6947488308622706], True),
}


class TestRefineMinPinned:
    @pytest.mark.parametrize("name,seed", list(BENCHMARK_PINS))
    def test_benchmark(self, name, seed):
        res = refine_min(make_benchmark(name), n0=2000, seed=seed)
        assert (res.value, res.minimizer.tolist(), res.converged) == \
            BENCHMARK_PINS[name, seed]

    def test_waypoint_instances(self):
        family = mpc_family()
        for (seed, n0), pin in MPC_PINS.items():
            res = refine_min(family.instance(seed), n0=n0, seed=seed)
            assert (res.value, res.minimizer.tolist(), res.converged) == pin, seed

    def test_one_stencil_batch_per_incumbent(self):
        # every stencil of this instance sees a flat cost, so the descent
        # never moves: the n0 samples, then all 17 levels' stencils at once
        problem = mpc_family().instance(0)
        rows = []

        def counted(w):
            rows.append(len(w))
            return problem.batch_cost(w)

        res = refine_min(Problem(space=problem.space, batch_cost=counted),
                         n0=2000, seed=0)
        assert rows == [2000, 17 * 4]
        assert res.evaluations == 2068 and res.converged


def _counted(problem):
    """The problem with its cost wrapped to record each batch's row count."""
    rows = []

    def cost(w):
        rows.append(len(w))
        return problem.batch_cost(w)

    return Problem(space=problem.space, batch_cost=cost), rows


def _bound_free(problem):
    """The problem without its lower bound, so refine_min runs in full."""
    return Problem(space=problem.space, batch_cost=problem.batch_cost)


# (value, minimizer, converged, evaluations) under a lowered MAX_ITERS, where
# the stencil scan is cut to the iterations left: a benchmark at n0 = 2000
# and a waypoint instance at n0 = 3, both descending.
CAPPED_PINS = {
    ('himmelblau', 1): (0.10257800608155004, [3.5729390931359837, -1.7626116165993455], False, 2047),
    ('himmelblau', 17): (0.008555935925948157, [3.574655975036707, -1.8299443500276464], False, 2858),
    ('himmelblau', 18): (0.008555935925941666, [3.5746559750367046, -1.8299443500276644], False, 2925),
    ('himmelblau', 19): (0.0085559359259407, [3.574655975036706, -1.829944350027664], False, 2992),
    (25, 1): (0.0, [-0.8191871542029397, 0.9829333447898734], False, 10),
    (25, 17): (0.0, [-0.8191871542029397, 0.9829333447898734], False, 352),
    (25, 18): (0.0, [-0.8191871542029397, 0.9829333447898734], False, 356),
    (25, 19): (0.0, [-0.8191871542029397, 0.9829333447898734], False, 570),
}


class TestRefineMinEvaluations:
    """``evaluations`` counts exactly the rows passed to ``batch_cost``."""

    @pytest.mark.parametrize("name,seed", list(BENCHMARK_PINS))
    def test_benchmark(self, name, seed):
        problem, rows = _counted(make_benchmark(name))
        res = refine_min(problem, n0=2000, seed=seed)
        assert (res.value, res.minimizer.tolist(), res.converged) == \
            BENCHMARK_PINS[name, seed]
        assert res.evaluations == sum(rows)

    @pytest.mark.parametrize("seed,n0", list(MPC_PINS))
    def test_waypoint_instance(self, seed, n0):
        problem, rows = _counted(mpc_family().instance(seed))
        res = refine_min(problem, n0=n0, seed=seed)
        assert (res.value, res.minimizer.tolist(), res.converged) == \
            MPC_PINS[seed, n0]
        assert res.evaluations == sum(rows)

    @pytest.mark.parametrize("case,cap", list(CAPPED_PINS))
    def test_iteration_cap(self, monkeypatch, case, cap):
        monkeypatch.setattr(oracles, "MAX_ITERS", cap)
        if case == "himmelblau":
            problem, n0, seed = make_benchmark(case), 2000, 0
        else:
            problem, n0, seed = mpc_family().instance(case), 3, case
        problem, rows = _counted(problem)
        res = refine_min(problem, n0=n0, seed=seed)
        assert (res.value, res.minimizer.tolist(), res.converged,
                res.evaluations) == CAPPED_PINS[case, cap]
        assert res.evaluations == sum(rows)


# (value, minimizer, converged, evaluations) of the waypoint instance 0 at
# n0 = 2000 under a lowered MAX_ITERS, recorded before flat levels were
# skipped in one step: every stencil sees a flat cost, so the descent walks
# the 17 levels once without moving and the cap cuts the stencil scan
FLAT_CAPPED_PINS = {
    1: (1.28, [-0.16352834009179498, -0.6185518985655643], False, 2004),
    5: (1.28, [-0.16352834009179498, -0.6185518985655643], False, 2020),
    16: (1.28, [-0.16352834009179498, -0.6185518985655643], False, 2064),
    18: (1.28, [-0.16352834009179498, -0.6185518985655643], True, 2068),
}


class TestRefineMinFlatRun:
    """Levels without a descent direction are skipped together, one iteration
    each; the iteration cap still stops the walk exactly where it falls."""

    @pytest.mark.parametrize("cap", list(FLAT_CAPPED_PINS))
    def test_iteration_cap(self, monkeypatch, cap):
        monkeypatch.setattr(oracles, "MAX_ITERS", cap)
        problem, rows = _counted(mpc_family().instance(0))
        res = refine_min(problem, n0=2000, seed=0)
        assert (res.value, res.minimizer.tolist(), res.converged,
                res.evaluations) == FLAT_CAPPED_PINS[cap]
        assert res.evaluations == sum(rows)

    @pytest.mark.parametrize("cap,converged", [(17, True), (16, False)])
    def test_converged_when_the_last_pass_ends_on_the_cap(self, monkeypatch,
                                                         cap, converged):
        # the 17th iteration finishes the move-free pass over the 17 levels:
        # the same descent as an uncapped run, which converged
        monkeypatch.setattr(oracles, "MAX_ITERS", cap)
        res = refine_min(_bound_free(mpc_family().instance(0)), n0=2000,
                         seed=0)
        assert res.converged is converged
        assert res.evaluations == 4 * cap + 2000

    @pytest.mark.parametrize("cap,converged", [(17, True), (16, False)])
    def test_bounded_twin_stops_at_the_bound(self, monkeypatch, cap,
                                             converged):
        # a sample meets the ring bound, so no descent runs, and converged
        # reads as the descent's one move-free pass would under the cap
        monkeypatch.setattr(oracles, "MAX_ITERS", cap)
        res = refine_min(mpc_family().instance(0), n0=2000, seed=0)
        assert res.converged is converged
        assert res.evaluations <= 2000

    def test_ladder_powers_are_read_only(self):
        for table in oracles._POWERS.values():
            with pytest.raises(ValueError):
                table[0] = 2.0


def _assert_row_independent(problem, rows):
    whole = problem.evaluate_batch(rows)
    n = len(rows)
    for sizes in ([1] * n, [1, n - 2, 1], [3, 1, 17, n - 21]):
        parts = [problem.evaluate_batch(p)
                 for p in np.split(rows, np.cumsum(sizes)[:-1])]
        assert np.array_equal(np.concatenate(parts).view(np.int64),
                              whole.view(np.int64))


class TestBatchContract:
    """Cost kernels are row-independent: a batch's values equal, bit for bit,
    those of its pieces evaluated separately (refine_min relies on this)."""

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_benchmarks(self, name):
        problem = make_benchmark(name)
        lo, hi = problem.space.bounds
        rows = problem.space.sample(3, 60)
        rows[:5] = lo            # stencil rows pinned to the bounds
        rows[5:10] = hi
        rows[10:15] = rows[20] + 1e-7 * (hi - lo)
        _assert_row_independent(problem, rows)

    # 0, 9, 12 and 113 are horizon-clear, so no rollout runs; 56 and 214 are
    # not, and their rows mix unreachable cells with unsafe rollouts, so the
    # rollout of the reachable rows alone is split too
    @pytest.mark.parametrize("env_seed", [0, 9, 12, 113, 56, 214])
    def test_waypoint_kernel(self, env_seed):
        problem = mpc_family().instance(env_seed)
        space = problem.space
        rows = space.sample(env_seed, 60)
        rows[:3] = space.center                  # the agent's own position
        rows[3:6] = [[-0.8, 0.0], [0.0, 0.24], [1.6, 1.2]]   # cell lines
        rows[6:9] = [[1.7, 0.0], [0.0, -1.3], [-1.6, -1.2]]  # outside and corner
        _assert_row_independent(problem, rows)

    def test_tour_kernel(self):
        problem = make_tsp_problem(random_tsp_instance(9, seed=21))
        rows = np.concatenate([problem.space.sample(4, 60),
                               next(problem.space.enumerate_canonical())])
        _assert_row_independent(problem, rows)


def test_declared_min():
    problem = make_benchmark("rastrigrin2")
    res = declared_min(problem)
    assert res.value == 0.0 and res.method == "declared"
    bare = Problem(space=BoxSpace([0.0], [1.0]),
                   batch_cost=lambda d: np.ones(len(d)))
    with pytest.raises(OracleError):
        declared_min(bare)


# The bound gate's instances: 3,000 environments, over 200 of them with a
# start that is not horizon-clear, so their rollouts run.
GATE_SEEDS = range(3000)


@pytest.fixture(scope="module")
def gate_problems():
    family = mpc_family()
    return [family.instance(seed) for seed in GATE_SEEDS]


class TestRingBound:
    """``refine_min`` stops once a sample meets the waypoint ring's lower
    bound, with the same result as the search without the bound; the bound
    holds for every point the ring accepts."""

    def test_gate_has_non_clear_starts(self):
        assert sum(not mpc.sample_environment(seed).start_clear
                   for seed in GATE_SEEDS) >= 200

    def test_gate_has_doomed_starts(self):
        # the comparisons with the bound-free search cover the penalty bound
        assert sum(mpc.sample_environment(seed).start_doomed
                   for seed in GATE_SEEDS) >= 40

    def test_penalty_on_doomed_starts_else_the_least_ring_cell_cost(
            self, gate_problems):
        # each cell's nearest point to the ring's centre, by scalar clamps;
        # cells widened by BOUND_SLACK, the ring by RADIUS_TOL + BOUND_SLACK
        reach = mpc.ANNULUS_MAX + mpc.RADIUS_TOL + mpc.BOUND_SLACK
        doomed = 0
        for seed, problem in zip(GATE_SEEDS, gate_problems):
            env = mpc.sample_environment(seed)
            cx, cy = env.x_a[:2].tolist()
            least = mpc.PENALTY
            for f in range(mpc.ROWS * mpc.COLS):
                row, col = divmod(f, mpc.COLS)
                x0 = mpc.X_MIN + col * mpc.CELL_W - mpc.BOUND_SLACK
                y0 = mpc.Y_MIN + row * mpc.CELL_H - mpc.BOUND_SLACK
                x1 = x0 + (mpc.CELL_W + 2 * mpc.BOUND_SLACK)
                y1 = y0 + (mpc.CELL_H + 2 * mpc.BOUND_SLACK)
                near = math.hypot(max(x0 - cx, cx - x1, 0.0),
                                  max(y0 - cy, cy - y1, 0.0))
                if near <= reach:
                    least = min(least, float(env.cell_costs[f]))
            want = mpc.PENALTY if env.start_doomed else least
            assert problem.lower_bound == want, seed
            doomed += env.start_doomed and least < mpc.PENALTY
        assert doomed >= 40  # the penalty raised the bound on these

    @pytest.mark.parametrize("cap", [None, 1, 5, 16, 17, 18])
    @pytest.mark.parametrize("n0", [2000, 3])
    def test_same_result_as_without_the_bound(self, monkeypatch, gate_problems,
                                              n0, cap):
        if cap is not None:
            monkeypatch.setattr(oracles, "MAX_ITERS", cap)
        stopped = 0
        for seed, problem in zip(GATE_SEEDS, gate_problems):
            a = refine_min(problem, n0=n0, seed=seed)
            b = refine_min(_bound_free(problem), n0=n0, seed=seed)
            assert (a.value, a.minimizer.tolist(), a.converged) == \
                (b.value, b.minimizer.tolist(), b.converged), seed
            assert a.value >= problem.lower_bound, seed
            if a.evaluations <= n0:
                stopped += 1
            else:  # no sample met the bound: the same descent ran
                assert a.evaluations == b.evaluations, seed
        assert stopped >= len(GATE_SEEDS) // 2

    def test_never_above_dense_samples(self, gate_problems):
        for seed, problem in zip(GATE_SEEDS[:500], gate_problems):
            w = problem.space.sample(seed, 20_000, path=(0xB0,))
            assert problem.lower_bound <= problem.evaluate_batch(w).min(), seed

    def test_never_above_ring_edge_and_cell_edge_points(self, gate_problems):
        # radii 1e-15 inside the ring's accepted limits, at 720 angles; and
        # points of the ring on each cell edge line, and one ulp to either
        # side of it
        lo = mpc.ANNULUS_MIN - mpc.RADIUS_TOL + 1e-15
        hi = mpc.ANNULUS_MAX + mpc.RADIUS_TOL - 1e-15
        angles = np.linspace(0.0, 2 * math.pi, 720, endpoint=False)
        unit = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        lines = (np.arange(mpc.X_MIN, mpc.X_MAX, mpc.CELL_W)[1:],
                 np.arange(mpc.Y_MIN, mpc.Y_MAX, mpc.CELL_H)[1:])
        on_edges = 0
        for problem in gate_problems[:300]:
            space = problem.space
            c = space.center
            points = [c + lo * unit, c + hi * unit]
            for r in np.linspace(lo, hi, 7):
                for axis in (0, 1):
                    off = lines[axis] - c[axis]
                    near = np.abs(off) < r
                    across = np.sqrt(r * r - off[near] ** 2)
                    for line in (np.nextafter(lines[axis][near], -np.inf),
                                 lines[axis][near],
                                 np.nextafter(lines[axis][near], np.inf)):
                        for sign in (-1.0, 1.0):
                            pts = np.empty((len(line), 2))
                            pts[:, axis] = line
                            pts[:, 1 - axis] = c[1 - axis] + sign * across
                            points.append(pts)
            w = np.concatenate(points)
            w = w[space.contains(w)]
            on_edges += int(np.isin(w[:, 0], lines[0]).sum()
                            + np.isin(w[:, 1], lines[1]).sum())
            assert len(w) >= 360
            assert problem.lower_bound <= problem.evaluate_batch(w).min()
        assert on_edges >= 1000

    def test_a_cell_the_ring_touches_only_at_its_edge_counts(self):
        # the outer circle meets the goal cell (3, 2) only at its right edge
        # x = 0, and that edge point belongs to the goal cell by _cells' rule
        env = mpc.Environment(x_a=np.array([mpc.ANNULUS_MAX, 0.0, 0.0]),
                              x_o=np.array([1.5, 1.1]), so_cells=(),
                              goal_cells=((3, 2),), seed=0)
        edge = np.array([[0.0, 0.0]])
        assert mpc.AnnulusSpace(env.x_a).contains(edge)[0]
        assert mpc.augmented_cost_batch(edge, env)[0] == 0.0
        assert mpc._ring_bound(env) == 0.0

    def test_the_inner_radius_excludes_no_cell(self):
        # _ring_bound tests only the outer radius: every cell reaches at
        # least half its diagonal from any point, beyond the inner radius
        assert mpc.ANNULUS_MIN + mpc.RADIUS_TOL + mpc.BOUND_SLACK < \
            math.hypot(mpc.CELL_W, mpc.CELL_H) / 2

    def test_a_bound_set_too_high_raises(self):
        problem = mpc_family().instance(0)
        high = Problem(space=problem.space, batch_cost=problem.batch_cost,
                       name="too-high", lower_bound=problem.lower_bound + 0.5)
        with pytest.raises(OracleError, match="too-high.*lower bound"):
            refine_min(high, n0=2000, seed=0)
        # the best sample (0.75) is above the bound; the descent's value
        # (3.8e-7) is below it
        beale = make_benchmark("beale")
        with pytest.raises(OracleError, match="lower bound"):
            refine_min(Problem(space=beale.space, batch_cost=beale.batch_cost,
                               lower_bound=1e-3), n0=50, seed=1)


class TestGapSolve:
    """``sample_gap``'s percentile solve stops at the problem's lower bound,
    with the same cost as ``percentile_solve`` over all n_p samples."""

    @staticmethod
    def assert_same_cost(family, oracle, n_p, seed):
        s = sample_gap(family, n_p, oracle, seed)
        problem = family.instance(s.instance_seed)
        want = percentile_solve(problem, n_p,
                                _rng.child_seed(seed, _rng.GAP_SOLVE)).best.cost
        assert type(s.solution_cost) is float
        assert s.solution_cost.hex() == want.hex(), (n_p, seed)

    def test_bounded_gate_instances(self, gate_problems):
        # gap sample j draws gate problem j; its declared optimum is its
        # bound, so the oracle costs nothing.  Every n_p solves at one seed,
        # so the nested stream gives percentile_solve's cost at each n_p
        # from the first n_p costs of one 500-sample solve.
        problems = {_rng.child_seed(j, _rng.GAP_INSTANCE):
                    dataclasses.replace(p, declared_optimum=p.lower_bound)
                    for j, p in zip(GATE_SEEDS, gate_problems)}
        family = ProblemFamily(build=problems.__getitem__, description="gate")
        declared = OracleConfig(method="declared")
        for j, problem in zip(GATE_SEEDS, gate_problems):
            costs = percentile_solve(
                problem, 500, _rng.child_seed(j, _rng.GAP_SOLVE)).info.costs
            for n_p in (200, 300, 500):
                got = sample_gap(family, n_p, declared, j).solution_cost
                assert type(got) is float
                assert got.hex() == float(costs[:n_p].min()).hex(), (n_p, j)

    def test_prefix_rows(self, gate_problems):
        # prefixes of m rows with 4 m <= n, each checked against the bound
        for n in (200, 300, 500):
            rows = [best_of(p, n, seed, _rng.SOLVE)[2]
                    for seed, p in zip(GATE_SEEDS[:300], gate_problems)]
            assert set(rows) == {32, n}
            assert rows.count(32) >= 0.8 * len(rows)
        assert {best_of(p, 2000, seed, _rng.SOLVE)[2] for seed, p in
                zip(GATE_SEEDS[:300], gate_problems)} == {32, 256, 2000}
        assert best_of(gate_problems[0], 3, 0, _rng.SOLVE)[2] == 3

    @pytest.mark.parametrize("family,oracle", [
        (make_tsp_family(6), OracleConfig(method="exhaustive")),
        (uniform_gap_family(), OracleConfig(method="declared"))],
        ids=["tsp:6", "uniform-gaps"])
    @pytest.mark.parametrize("n_p", [200, 300, 500])
    def test_families_without_a_bound(self, family, oracle, n_p):
        for seed in range(40):
            self.assert_same_cost(family, oracle, n_p, seed)

    def test_a_solve_below_the_bound_raises(self):
        problem = mpc_family().instance(0)
        high = Problem(space=problem.space, batch_cost=problem.batch_cost,
                       name="too-high", lower_bound=problem.lower_bound + 0.5)
        family = ProblemFamily(build=lambda seed: high, description="high")
        with pytest.raises(OracleError, match="too-high.*lower bound"):
            sample_gap(family, 300, OracleConfig(), 0)


class TestRefineMinBetweenPrefixes:
    """At an n0 from 33 to 1023 the prefix rule 4 m <= n0 leaves out the
    256-row prefix: at n0 = 300 a bounded ``refine_min`` checks the bound
    after 32 rows and then after all 300, so an instance first meeting it
    within rows 33-256 reports 300 evaluations.  Value, minimizer and
    converged are those of the search without the bound."""

    def test_n0_300(self, gate_problems):
        evaluations = {}
        for seed, problem in zip(GATE_SEEDS[:300], gate_problems):
            rows = []

            def cost(w, problem=problem):
                rows.append(len(w))
                return problem.batch_cost(w)

            a = refine_min(dataclasses.replace(problem, batch_cost=cost),
                           n0=300, seed=seed)
            b = refine_min(_bound_free(problem), n0=300, seed=seed)
            assert (a.value, a.minimizer.tolist(), a.converged) == \
                (b.value, b.minimizer.tolist(), b.converged), seed
            assert a.evaluations == sum(rows), seed
            evaluations[seed] = a.evaluations
        # 271 meet the bound within 32 rows, the 6 doomed starts among them,
        # and 21 within 300; 8 descend
        assert collections.Counter(evaluations.values()) == \
            {32: 271, 300: 21, 368: 5, 796: 1, 1010: 2}
        assert [s for s in GATE_SEEDS[:120] if evaluations[s] == 300] == \
            [33, 55, 68, 100, 103, 114]
