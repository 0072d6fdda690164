"""TSP construction and the continuous benchmark table."""

import math

import numpy as np
import pytest

from gapcert import DomainError, problems
from gapcert.oracles import exhaustive_min
from gapcert.problems import (
    BENCHMARK_NAMES,
    TspInstance,
    make_benchmark,
    make_tsp_family,
    make_tsp_problem,
    random_tsp_instance,
    read_tsp_instance,
    tsp_cost,
    tsp_cost_batch,
    write_tsp_instance,
)
from gapcert.spaces import TourSpace


class TestTspCost:
    def test_two_points(self):
        inst = TspInstance([[0.0, 0.0], [0.0, 7.0]])
        assert tsp_cost(inst, [0, 1]) == pytest.approx(14.0)
        assert tsp_cost(inst, [1, 0]) == pytest.approx(14.0)

    def test_unit_square(self):
        inst = TspInstance([[0, 0], [1, 0], [1, 1], [0, 1]])
        assert tsp_cost(inst, [0, 1, 2, 3]) == pytest.approx(4.0)
        assert tsp_cost(inst, [0, 2, 1, 3]) == pytest.approx(2 + 2 * math.sqrt(2))

    def test_invalid_permutations_rejected(self):
        inst = TspInstance([[0, 0], [1, 0], [2, 0]])
        for bad in ([0, 0, 1], [0, 1], [0, 1, 3]):
            with pytest.raises(DomainError):
                tsp_cost(inst, bad)

    def test_non_integer_tours_rejected(self):
        inst = TspInstance([[0, 0], [1, 0], [2, 0]])
        problem = make_tsp_problem(inst)
        for bad in ([0.0, 1.0, 2.0], np.array([2.0, 0.0, 1.0]),
                    [True, False, True], np.array([0, 1, 2], dtype=object)):
            with pytest.raises(DomainError):
                tsp_cost(inst, bad)
            with pytest.raises(DomainError):
                problem.evaluate(bad)
        assert tsp_cost(inst, np.array([2, 0, 1], dtype=np.uint8)) == 4.0

    def test_rotation_and_reversal_invariance_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            inst = TspInstance(rng.uniform(-3, 3, size=(7, 2)))
            order = rng.permutation(7)
            base = tsp_cost(inst, order)
            for k in range(1, 7):
                assert tsp_cost(inst, np.roll(order, k)) == base
            assert tsp_cost(inst, order[::-1].copy()) == base

    def test_evaluate_refuses_a_decision_outside_the_space(self):
        problem = make_tsp_problem(TspInstance([[0, 0], [1, 0], [2, 0]]))
        assert problem.evaluate([2, 0, 1]) == pytest.approx(4.0)
        for bad in ([0, 0, 1], [0, 1], [0, 1, 3]):
            with pytest.raises(DomainError):
                problem.evaluate(bad)
        problem = make_benchmark("beale")
        assert problem.evaluate([4.5, -4.5]) > 0.0
        for bad in ([4.6, 0.0], [0.0, -4.51], [0.0], [0.0, 0.0, 0.0]):
            with pytest.raises(DomainError):
                problem.evaluate(bad)

    def test_kernel_matches_per_row_norm_bit_for_bit(self):
        """The distance-table kernel gives the bits of the per-row formula it
        replaced: gather the points, take the norm of each hop and of the
        closing edge, sort, sum."""
        def reference(w, orders):
            pts = w[orders]
            edges = np.concatenate(
                [np.linalg.norm(np.diff(pts, axis=1), axis=2),
                 np.linalg.norm(pts[:, :1] - pts[:, -1:], axis=2)], axis=1)
            edges.sort(axis=1)
            return edges.sum(axis=1)

        rng = np.random.default_rng(17)
        tours = 0
        for n in range(2, 11):
            t = rng.uniform(-5, 5, n)
            kinds = [
                rng.random((n, 2)),
                rng.uniform(-1e3, 1e3, (n, 2)),
                np.column_stack([t, rng.uniform(-3, 3) * t + rng.uniform(-1, 1)]),
                rng.uniform(-2, 2, (n // 2 + 1, 2))[rng.integers(0, n // 2 + 1, n)],
            ]
            kinds[3][-1] = kinds[3][0]  # at least one coincident pair
            for w in kinds:
                inst = TspInstance(w)
                orders = rng.permuted(np.tile(np.arange(n), (3000, 1)), axis=1)
                got = make_tsp_problem(inst).evaluate_batch(orders)
                assert np.array_equal(got.view(np.int64),
                                      reference(inst.waypoints, orders).view(np.int64))
                tours += len(orders)
        assert tours >= 100_000

    def test_network_kernel_matches_a_row_sort_bit_for_bit(self):
        """The column kernel (a sorting network, then numpy's row-sum order)
        gives the bits of sorting each row and summing it, for every branch of
        that order (n < 8, 8..128, beyond 128), for row counts around the
        block size, and for every canonical tour of n <= 10."""
        block = problems._COST_BLOCK

        def reference(inst, orders):
            edges = inst.distances[orders, np.roll(orders, -1, axis=1)]
            return np.sort(edges, axis=1).sum(axis=1)

        def check(inst, orders):
            got = make_tsp_problem(inst).evaluate_batch(orders)
            assert got.shape == (len(orders),)
            assert np.array_equal(got.view(np.int64),
                                  reference(inst, orders).view(np.int64))

        rng = np.random.default_rng(23)

        def instance(n):
            w = rng.uniform(-1, 1, (n, 2)) * rng.choice([1e-3, 1.0, 1e3])
            w[-1] = w[0]  # a coincident pair: a zero edge
            return TspInstance(w)

        def tours(n, rows):
            return rng.permuted(np.tile(np.arange(n), (rows, 1)), axis=1)

        for n in [*range(2, 41), 127, 128, 129, 300]:
            inst, orders = instance(n), tours(n, 60)
            check(inst, orders)
            check(inst, orders.astype(np.uint8 if n < 256 else np.int32))
        for n in (2, 9, 129):
            inst = instance(n)
            for rows in (0, 1, block - 1, block, block + 1, 2 * block + 3):
                check(inst, tours(n, rows))
        for n in range(2, 11):
            inst = instance(n)
            for orders in TourSpace(n).enumerate_canonical():
                check(inst, orders)

    def test_batch_refuses_entries_outside_the_waypoints(self):
        inst = TspInstance([[0, 0], [1, 0], [2, 0]])
        for bad in ([[0, 1, 3]], [[0, 1, -1]], [[0, 1]], [0, 1, 2]):
            with pytest.raises(DomainError):
                tsp_cost_batch(inst, np.array(bad))

    def test_distance_table_is_shared_and_read_only(self, monkeypatch):
        inst = random_tsp_instance(7, seed=3)
        calls = []
        norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm",
                            lambda *a, **k: calls.append(1) or norm(*a, **k))
        first, second = make_tsp_problem(inst), make_tsp_problem(inst)
        orders = first.space.sample(5, 40)
        first.evaluate_batch(orders)
        second.evaluate_batch(orders)
        assert len(calls) == 1  # one table for both problems
        table = inst.distances
        assert table is inst.distances and table.shape == (7, 7)
        with pytest.raises(ValueError):
            table[0, 1] = 0.0
        assert np.array_equal(table.view(np.int64), table.T.view(np.int64))
        assert not np.diagonal(table).any()

    def test_instance_validation(self):
        with pytest.raises(DomainError):
            TspInstance([[0.0, 0.0]])
        with pytest.raises(DomainError):
            TspInstance([[0.0, math.inf], [1.0, 0.0]])
        assert TspInstance([[0, 0], [1, 1]]).count == 2

    def test_instance_json_roundtrip(self, tmp_path):
        inst = random_tsp_instance(6, seed=4)
        write_tsp_instance(inst, tmp_path / "inst.json")
        back = read_tsp_instance(tmp_path / "inst.json")
        assert np.array_equal(back.waypoints, inst.waypoints)


class TestBenchmarks:
    def test_rastrigin2_origin(self):
        problem = make_benchmark("rastrigrin2")
        assert problem.evaluate([0.0, 0.0]) == 0.0

    def test_rastrigin10_origin_exact_zero(self):
        problem = make_benchmark("rastrigrin10")
        assert problem.evaluate([0.0] * 10) == 0.0

    def test_rastrigin2_corner_regression_anchor(self):
        # frozen from direct evaluation of the defining formula
        expected = 20 + 2 * (5.12**2 - 10 * math.cos(2 * math.pi * 5.12))
        problem = make_benchmark("rastrigrin2")
        assert problem.evaluate([5.12, 5.12]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(57.8494275, abs=1e-6)

    def test_himmelblau_known_minimum(self):
        problem = make_benchmark("himmelblau")
        # direct substitution: (9 + 2 - 11)^2 + (3 + 4 - 7)^2 = 0
        assert problem.evaluate([3.0, 2.0]) == 0.0

    def test_other_declared_minima(self):
        assert make_benchmark("beale").evaluate([3.0, 0.5]) == 0.0
        assert make_benchmark("levi13").evaluate([1.0, 1.0]) == pytest.approx(0, abs=1e-30)
        assert make_benchmark("ackley").evaluate([0.0, 0.0]) == pytest.approx(0, abs=1e-15)

    def test_unknown_name_rejected(self):
        with pytest.raises(DomainError):
            make_benchmark("rosenbrock")

    def test_aliases(self):
        assert make_benchmark("rastrigin2").name == "rastrigrin2"
        assert make_benchmark("levi").name == "levi13"

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_finite_and_bounded_on_canonical_box(self, name):
        problem = make_benchmark(name)
        samples = problem.space.sample(7, 100_000)
        costs = problem.evaluate_batch(samples)
        assert np.isfinite(costs).all()
        assert costs.min() >= 0.0  # every benchmark has true minimum 0

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_batch_matches_scalar(self, name):
        problem = make_benchmark(name)
        pts = problem.space.sample(3, 17)
        batch = problem.evaluate_batch(pts)
        direct = [problem.evaluate(p) for p in pts]
        assert np.allclose(batch, direct, atol=0)


class TestTspFamily:
    def test_two_waypoint_instances_have_out_and_back_optimum(self):
        family = make_tsp_family(2)
        for seed in (1, 2, 3):
            problem = family.instance(seed)
            d = exhaustive_min(problem)
            inst_pts = problem.batch_cost(np.array([[0, 1]]))[0]
            assert d.value == pytest.approx(inst_pts)

    def test_cardinalities(self):
        assert make_tsp_family(6).instance(0).space.cardinality == 720
        assert make_tsp_family(10).instance(0).space.cardinality == 3_628_800

    def test_instances_deterministic_and_distinct(self):
        family = make_tsp_family(5)
        a = family.instance(9)
        b = family.instance(9)
        c = family.instance(10)
        assert a.evaluate([0, 1, 2, 3, 4]) == b.evaluate([0, 1, 2, 3, 4])
        assert a.evaluate([0, 1, 2, 3, 4]) != c.evaluate([0, 1, 2, 3, 4])
