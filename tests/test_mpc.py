"""Unicycle world: dynamics, controller, barrier, grid costs, environments."""

import heapq
import math

import numpy as np
import pytest

from gapcert import mpc, percentile_solve
from gapcert.mpc import (
    CELL_H,
    CELL_W,
    UNREACHABLE,
    X_MIN,
    Y_MIN,
    AnnulusSpace,
    ControlInput,
    Environment,
    UnicycleState,
    augmented_cost_batch,
    barrier,
    cell_of,
    dynamics_step,
    lyapunov_controller,
    mpc_family,
    rollout_feasible,
    sample_environment,
    shortest_goal_distance,
    write_rollout_trace,
)


def center_of(col: int, row: int) -> tuple[float, float]:
    """Centre of grid cell (col, row)."""
    return X_MIN + (col + 0.5) * CELL_W, Y_MIN + (row + 0.5) * CELL_H


def open_environment(x_a=(0.0, 0.0, 0.0), x_o=(1.5, 1.1)):
    """Hand-built world: obstacles tucked in the top corner, goals at the
    bottom row, agents well clear of both."""
    so = ((6, 4), (7, 4), (6, 3), (7, 3), (5, 4), (5, 3), (4, 4), (4, 3))
    goals = ((0, 0), (1, 0), (2, 0))
    return Environment(x_a=np.asarray(x_a, dtype=float),
                       x_o=np.asarray(x_o, dtype=float),
                       so_cells=so, goal_cells=goals, seed=0)


class TestDynamics:
    def test_zero_input_is_exact_fixed_point(self):
        state = UnicycleState(0.3, -0.7, 1.234)
        nxt = dynamics_step(state, ControlInput(0.0, 0.0))
        assert (nxt.x, nxt.y, nxt.theta) == (0.3, -0.7, 1.234)

    def test_straight_line_step(self):
        state = UnicycleState(0.0, 0.0, 0.0)
        nxt = dynamics_step(state, ControlInput(0.2, 0.0))
        assert nxt.x == pytest.approx(0.2 * 0.033, abs=1e-15)
        assert nxt.y == 0.0 and nxt.theta == 0.0

    def test_pure_rotation(self):
        state = UnicycleState(0.1, 0.2, 0.5)
        nxt = dynamics_step(state, ControlInput(0.0, math.pi))
        assert (nxt.x, nxt.y) == (0.1, 0.2)
        assert nxt.theta == pytest.approx(0.5 + math.pi * 0.033)

    def test_heading_wraps(self):
        state = UnicycleState(0.0, 0.0, 6.28)
        nxt = dynamics_step(state, ControlInput(0.0, math.pi))
        assert 0.0 <= nxt.theta < 2 * math.pi

    def test_position_change_bounded_by_speed_limit(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            state = UnicycleState(*rng.uniform(-1, 1, 2), rng.uniform(0, 6.28))
            u = ControlInput(rng.uniform(-0.2, 0.2), rng.uniform(-3.14, 3.14))
            nxt = dynamics_step(state, u)
            move = math.hypot(nxt.x - state.x, nxt.y - state.y)
            assert move <= 0.2 * 0.033 + 1e-15


class TestController:
    def test_zero_at_waypoint(self):
        state = UnicycleState(0.4, 0.4, 1.0)
        u = lyapunov_controller(state, (0.4, 0.4))
        assert u == ControlInput(0.0, 0.0)

    def test_waypoint_straight_ahead(self):
        state = UnicycleState(0.0, 0.0, 0.0)
        u = lyapunov_controller(state, (0.2, 0.0))
        assert u.v == pytest.approx(0.2)  # 2.0 * 0.2 clamped to the limit
        assert u.omega == 0.0

    def test_waypoint_behind_allows_reversing(self):
        state = UnicycleState(0.0, 0.0, 0.0)
        u = lyapunov_controller(state, (-0.15, 0.0))
        assert u.v == pytest.approx(-0.2)       # cos(pi) = -1, clamped
        assert abs(u.omega) == pytest.approx(math.pi)  # error pi, clamped

    def test_exact_saturation_and_signed_zero_pinned(self, monkeypatch):
        def control(state, waypoint):
            v, om = mpc._control(*(np.array([c]) for c in (*state, *waypoint)))
            return float(v[0]), float(om[0])

        # 2.0 * 0.1 is exactly v_max; 4.0 * atan2(1, 1) is exactly pi
        assert control((0.0, 0.0, 0.0), (0.1, 0.0)) == (0.2, 0.0)
        assert control((0.0, 0.0, 0.0), (-0.1, 0.0)) == (-0.2, math.pi)
        assert control((0.0, 0.0, 0.0), (0.1, 0.1)) == (0.2, math.pi)
        assert control((0.0, 0.0, 0.0), (0.1, -0.1)) == (0.2, -math.pi)
        assert control((0.0, 0.0, 0.0), (-0.0, 0.1)) == (
            1.2246467991473533e-17, math.pi)
        held = control((-0.0, -0.0, 0.0), (0.0, -0.0))
        assert held == (0.0, 0.0)
        assert [math.copysign(1.0, u) for u in held] == [1.0, 1.0]
        # a -0.0 input to the saturation keeps its sign
        monkeypatch.setattr(mpc, "K_V", -0.0)
        monkeypatch.setattr(mpc, "K_OMEGA", -0.0)
        signed = control((0.0, 0.0, 0.0), (0.1, 0.05))
        assert signed == (0.0, 0.0)
        assert [math.copysign(1.0, u) for u in signed] == [-1.0, -1.0]

    def test_inputs_always_within_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            state = UnicycleState(*rng.uniform(-1.6, 1.6, 2), rng.uniform(0, 6.28))
            w = rng.uniform(-1.6, 1.6, 2)
            u = lyapunov_controller(state, w)
            assert -0.2 <= u.v <= 0.2
            assert -math.pi <= u.omega <= math.pi


class TestGridAndBarrier:
    def test_cell_mapping_interior(self):
        assert cell_of(-1.6 + 0.2, -1.2 + 0.24) == (0, 0)
        assert cell_of(1.6 - 0.2, 1.2 - 0.24) == (7, 4)

    def test_boundary_points_take_lower_cell(self):
        # x = -0.8 and x = 0.0 are float-exact column boundaries (1|2 and 3|4)
        assert cell_of(-0.8, 0.0)[0] == 1
        assert cell_of(0.0, 0.0)[0] == 3
        assert cell_of(-1.6, -1.2) == (0, 0)
        assert cell_of(1.6, 1.2) == (7, 4)

    def test_outside_is_flagged(self):
        assert cell_of(1.7, 0.0) == (-1, -1)
        assert cell_of(0.0, -1.3) == (-1, -1)

    def test_grid_lines_corners_and_outside_pinned(self):
        # decimal grid lines land where their float rounding puts them
        xs = [-1.6, -1.2, -0.8, -0.4, 0.0, 0.4, 0.8, 1.2, 1.6]
        ys = [-1.2, -0.72, -0.24, 0.24, 0.72, 1.2]
        col, _ = cell_of(np.array(xs), np.zeros(len(xs)))
        _, row = cell_of(np.zeros(len(ys)), np.array(ys))
        assert col.tolist() == [0, 1, 1, 3, 3, 4, 6, 6, 7]
        assert row.tolist() == [0, 0, 1, 2, 3, 4]
        assert [cell_of(x, y) for x, y in zip(xs, ys)] == [
            (0, 0), (1, 0), (1, 1), (3, 2), (3, 3), (4, 4)]
        assert [cell_of(x, y) for x in (-1.6, 1.6) for y in (-1.2, 1.2)] == [
            (0, 0), (0, 4), (7, 0), (7, 4)]
        outside = [(math.nextafter(1.6, 2.0), 0.0), (math.nextafter(-1.6, -2.0), 0.0),
                   (0.0, math.nextafter(1.2, 2.0)), (0.0, math.nextafter(-1.2, -2.0)),
                   (-5.0, -5.0), (5.0, 5.0)]
        assert [cell_of(x, y) for x, y in outside] == [(-1, -1)] * 6
        assert cell_of(-0.0, -0.0) == (3, 2)

    def test_cell_center_roundtrip(self):
        for col in range(8):
            for row in range(5):
                cx, cy = center_of(col, row)
                assert cell_of(cx, cy) == (col, row)

    def test_barrier_inside_obstacle(self):
        env = open_environment()
        cx, cy = center_of(6, 4)
        assert barrier([cx, cy, 0.0], env.x_o, env) == -5.0

    def test_barrier_coincident_agents(self):
        env = open_environment()
        assert barrier([0.0, 0.0, 1.0], [0.0, 0.0], env) == pytest.approx(-0.18)

    def test_barrier_half_meter(self):
        env = open_environment()
        assert barrier([0.0, 0.0, 0.0], [0.5, 0.0], env) == pytest.approx(0.32)

    def test_shortest_goal_distance_on_goal(self):
        env = open_environment()
        assert shortest_goal_distance(center_of(1, 0), env) == 0.0

    def test_shortest_goal_distance_one_hop(self):
        env = open_environment()
        assert shortest_goal_distance(center_of(3, 0), env) == pytest.approx(CELL_W)
        assert shortest_goal_distance(center_of(0, 1), env) == pytest.approx(CELL_H)

    def test_obstacle_cell_is_sentinel(self):
        env = open_environment()
        assert shortest_goal_distance(center_of(6, 4), env) >= UNREACHABLE

    def test_distance_positive_off_goals(self):
        env = open_environment()
        for col in range(8):
            for row in range(5):
                d = float(env.goal_dist[row, col])
                if (col, row) in env.goal_cells:
                    assert d == 0.0
                elif (col, row) not in env.so_cells:
                    assert 0.0 < d < UNREACHABLE

    def test_overlapping_cells_rejected(self):
        with pytest.raises(Exception):
            Environment(x_a=np.zeros(3), x_o=np.zeros(2),
                        so_cells=((0, 0),), goal_cells=((0, 0),), seed=0)

    @pytest.mark.parametrize("name", ["so_mask", "so_flat", "goal_dist",
                                      "cell_costs", "start_clear",
                                      "start_doomed"])
    def test_derived_tables_are_not_arguments(self, name):
        """The obstacle tables, goal distances, cell costs and start flags
        follow from the other fields; an argument for any of them would be
        overwritten, so it is refused."""
        with pytest.raises(TypeError, match=name):
            Environment(x_a=np.zeros(3), x_o=np.zeros(2), so_cells=(),
                        goal_cells=((0, 0),), seed=0,
                        **{name: np.zeros((5, 8))})


class TestRolloutAndCost:
    def test_open_world_is_feasible(self):
        env = open_environment()
        assert rollout_feasible(env.x_a, (0.1, 0.05), env)

    def test_coincident_obstacle_agent_is_infeasible(self):
        env = open_environment(x_a=(0.0, 0.0, 0.0), x_o=(0.0, 0.0))
        # 5 steps at 6.6 mm/step cannot escape the 0.18 m safety radius
        assert not rollout_feasible(env.x_a, (0.15, 0.0), env)

    def test_waypoint_across_obstacle_cell_is_infeasible(self):
        # agent 5 mm from the obstacle boundary, heading straight in
        env = open_environment(x_a=(center_of(4, 3)[0] - CELL_W / 2 - 0.005,
                                    center_of(4, 3)[1], 0.0))
        w = (env.x_a[0] + 0.1, env.x_a[1])
        assert not rollout_feasible(env.x_a, w, env)
        assert augmented_cost_batch([w], env).tolist() == [100.0]

    def test_goal_waypoint_costs_zero(self):
        env = open_environment(x_a=(*_near_goal_start(), 0.0))
        w = center_of(1, 0)
        w = (w[0], w[1] + 0.3 * CELL_H)  # stay inside the goal cell
        target = np.asarray(w)
        start = np.asarray(env.x_a[:2])
        assert 0.05 <= np.linalg.norm(target - start) <= 0.2
        assert augmented_cost_batch([w], env).tolist() == [0.0]

    def test_cost_range_and_sentinel_never_escapes(self):
        for seed in range(6):
            env = sample_environment(seed)
            space = AnnulusSpace(env.x_a[:2])
            w = space.sample(seed, 400)
            costs = augmented_cost_batch(w, env)
            assert (costs >= 0.0).all() and (costs <= 100.0).all()

    def test_infeasible_gets_exactly_the_penalty(self):
        env = open_environment(x_a=(0.0, 0.0, 0.0), x_o=(0.0, 0.0))
        w = AnnulusSpace(env.x_a[:2]).sample(2, 50)
        assert (augmented_cost_batch(w, env) == 100.0).all()


def _near_goal_start():
    gx, gy = center_of(1, 0)
    return gx, gy + 0.55 * CELL_H  # just above the goal cell, 0.26 from target


class TestWaypointSampler:
    def test_annulus_radii_at_origin(self):
        w = AnnulusSpace((0.0, 0.0)).sample(5, 5000)
        r = np.linalg.norm(w, axis=1)
        assert (r >= 0.05 - 1e-12).all() and (r <= 0.2 + 1e-12).all()

    def test_area_uniform_radius_law(self):
        # CDF of r on an unclipped annulus: (r^2 - rmin^2) / (rmax^2 - rmin^2)
        w = AnnulusSpace((0.0, 0.0)).sample(8, 10_000)
        r = np.sort(np.linalg.norm(w, axis=1))
        cdf_model = (r**2 - 0.05**2) / (0.2**2 - 0.05**2)
        empirical = np.arange(1, len(r) + 1) / len(r)
        assert np.abs(empirical - cdf_model).max() <= 0.03

    def test_corner_agent_respects_box(self):
        w = AnnulusSpace((1.55, 1.15)).sample(3, 3000)
        assert (w[:, 0] <= 1.6).all() and (w[:, 1] <= 1.2).all()
        r = np.linalg.norm(w - [1.55, 1.15], axis=1)
        assert (r >= 0.05 - 1e-12).all() and (r <= 0.2 + 1e-12).all()

    def test_deterministic_and_prefix_stable(self):
        space = AnnulusSpace([0.3, -0.2])
        a = space.sample(9, 100)
        b = space.sample(9, 1000)
        assert np.array_equal(a, b[:100])

    def test_projection_lands_inside(self):
        space = AnnulusSpace([1.55, 1.15])
        rng = np.random.default_rng(2)
        for _ in range(200):
            p = space.project(rng.uniform(-2, 2, 2))
            r = np.linalg.norm(p - space.center)
            inside_box = (-1.6 <= p[0] <= 1.6) and (-1.2 <= p[1] <= 1.2)
            assert inside_box
            assert r <= 0.2 + 1e-9


class TestEnvironments:
    def test_invariants_hold(self):
        for seed in (0, 1, 17, 99):
            env = sample_environment(seed)
            assert len(env.so_cells) == 8 and len(set(env.so_cells)) == 8
            assert len(env.goal_cells) == 3 and len(set(env.goal_cells)) == 3
            assert not set(env.so_cells) & set(env.goal_cells)
            blocked = set(env.so_cells) | set(env.goal_cells)
            assert cell_of(env.x_a[0], env.x_a[1]) not in blocked
            assert cell_of(env.x_o[0], env.x_o[1]) not in blocked
            acol, arow = cell_of(env.x_a[0], env.x_a[1])
            assert env.goal_dist[arow, acol] < UNREACHABLE

    def test_deterministic(self):
        a = sample_environment(123)
        b = sample_environment(123)
        assert np.array_equal(a.x_a, b.x_a)
        assert a.so_cells == b.so_cells and a.goal_cells == b.goal_cells

    def test_population_statistics(self):
        seen = set()
        rejections = []
        for seed in range(300):
            env = sample_environment(seed)
            seen.add((env.so_cells, env.goal_cells))
            rejections.append(env.rejections)
        assert len(seen) == 300          # environments distinct
        assert np.mean(rejections) < 5   # acceptance rate comfortably positive


class TestFamily:
    def test_instances_replay_exactly(self):
        family = mpc_family()
        a = family.instance(42)
        b = family.instance(42)
        w = a.space.sample(1, 50)
        assert np.array_equal(a.batch_cost(w), b.batch_cost(w))

    def test_instance_costs_bounded(self):
        family = mpc_family()
        problem = family.instance(5)
        sol = percentile_solve(problem, 200, seed=1)
        assert (sol.info.costs >= 0).all() and (sol.info.costs <= 100).all()

    def test_rollout_trace_csv(self, tmp_path):
        env = open_environment()
        path = tmp_path / "trace.csv"
        write_rollout_trace(env.x_a, (0.1, 0.1), env, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "j,x,y,theta,v,omega,h"
        assert len(lines) == 6  # header + 5 prediction steps


class TestSingleKernel:
    """The scalar model functions and the debug trace are views of the
    rollout kernel, so they agree with it bit for bit."""

    def test_scalar_functions_equal_batch_helpers_bitwise(self):
        rng = np.random.default_rng(17)
        n = 500
        x = rng.uniform(-1.7, 1.7, n)   # a margin outside the workspace too
        y = rng.uniform(-1.3, 1.3, n)
        th = rng.uniform(0.0, 2 * math.pi, n)
        v = rng.uniform(-0.2, 0.2, n)
        om = rng.uniform(-math.pi, math.pi, n)
        wx = x + rng.uniform(-0.3, 0.3, n)
        wy = y + rng.uniform(-0.3, 0.3, n)
        wx[:20], wy[:20] = x[:20], y[:20]   # at the waypoint: zero input
        env = sample_environment(9)
        want = np.stack([*mpc._step(x, y, th, v, om),
                         *mpc._control(x, y, th, wx, wy),
                         mpc._barrier(x, y, env.x_o, env.so_flat)],
                        axis=1)
        got = []
        for i in range(n):
            state = UnicycleState(x[i], y[i], th[i])
            nxt = dynamics_step(state, ControlInput(v[i], om[i]))
            u = lyapunov_controller(state, (wx[i], wy[i]))
            h = barrier([x[i], y[i], th[i]], env.x_o, env)
            got.append([nxt.x, nxt.y, nxt.theta, u.v, u.omega, h])
        assert np.array_equal(np.array(got).view(np.int64), want.view(np.int64))

    def test_rollout_trace_rows_are_the_kernels_rollout(self, tmp_path):
        env = sample_environment(12)
        w = AnnulusSpace(env.x_a[:2]).sample(3, 40)
        steps = list(mpc._rollout(env.x_a, w, env))
        costs = augmented_cost_batch(w, env)
        for k in range(len(w)):
            path = tmp_path / f"trace{k}.csv"
            write_rollout_trace(env.x_a, w[k], env, path)
            rows = [[float(c) for c in line.split(",")[1:]]
                    for line in path.read_text(encoding="utf-8").splitlines()[1:]]
            assert rows == [[float(a[k]) for a in step] for step in steps]
            if min(row[-1] for row in rows) < 0.0:
                assert costs[k] == mpc.PENALTY


def full_rollout_cost(w, env, x_k):
    """The waypoint cost with the rollout always run: the reference that the
    horizon skip must reproduce bit for bit."""
    feasible = np.ones(len(w), dtype=bool)
    for *_, h in mpc._rollout(x_k, w, env):
        feasible &= h >= 0.0
    col, row = cell_of(w[:, 0], w[:, 1])
    s = np.full(len(w), UNREACHABLE)
    ok = col >= 0
    s[ok] = env.goal_dist[row[ok], col[ok]]
    return np.where(feasible & (s < UNREACHABLE), s, mpc.PENALTY)


def per_row_cost(w, env, x_k) -> list:
    """The waypoint cost row by row, from ``rollout_feasible`` and
    ``shortest_goal_distance``."""
    out = []
    for row in w:
        feasible = rollout_feasible(x_k, row, env)
        d = shortest_goal_distance(row, env)
        out.append(d if feasible and d < UNREACHABLE else mpc.PENALTY)
    return out


def count_rollouts(monkeypatch) -> list:
    calls = []
    rollout = mpc._rollout

    def counted(*args):
        calls.append(1)
        return rollout(*args)

    monkeypatch.setattr(mpc, "_rollout", counted)
    return calls


class TestHorizonSkip:
    """``augmented_cost_batch`` skips the rollout only where no rollout can
    break the barrier within the horizon, and gives the same bits."""

    def test_one_step_never_exceeds_the_speed_limit(self):
        rng = np.random.default_rng(41)
        n = 100_000
        x = rng.uniform(-1.8, 1.8, n)
        y = rng.uniform(-1.4, 1.4, n)
        th = rng.uniform(-10.0, 10.0, n)
        wx = x + rng.uniform(-3.0, 3.0, n)
        wy = y + rng.uniform(-3.0, 3.0, n)
        wx[:1000] = x[:1000] + rng.uniform(-1e-6, 1e-6, 1000)  # near hold
        v, om = mpc._control(x, y, th, wx, wy)
        assert (np.abs(v) <= mpc.V_MAX).all()
        nx, ny, _ = mpc._step(x, y, th, v, om)
        move = np.hypot(nx - x, ny - y)
        # rounding adds at most a few ulps per step, far inside the slack
        assert move.max() <= mpc.V_MAX * mpc.DT + 1e-15
        assert mpc.HORIZON * 1e-15 < mpc.REACH_SLACK

    def test_rollout_stays_within_reach(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x_k = np.array([*rng.uniform(-1.6, 1.6, 1), *rng.uniform(-1.2, 1.2, 1),
                            rng.uniform(0.0, 2 * math.pi)])
            w = x_k[:2] + rng.uniform(-0.3, 0.3, (200, 2))
            env = open_environment(x_a=x_k)
            for x, y, *_ in mpc._rollout(x_k, w, env):
                reach = np.hypot(x - x_k[0], y - x_k[1])
                assert reach.max() <= mpc.REACH

    def test_batch_equals_full_rollout_over_many_environments(self):
        rng = np.random.default_rng(2024)
        edge = np.array([[mpc.X_MIN, 0.0], [mpc.X_MAX, 0.0], [0.0, mpc.Y_MIN],
                         [0.0, mpc.Y_MAX], [mpc.X_MIN, mpc.Y_MIN],
                         [mpc.X_MAX, mpc.Y_MAX], [mpc.X_MAX + 1e-9, 0.5],
                         [-0.3, mpc.Y_MIN - 1e-9]])
        mismatches = clear = refused = infeasible_refused = 0
        for seed in range(1000):
            env = sample_environment(seed)
            ring = AnnulusSpace(env.x_a[:2]).sample(seed, 16)
            box = env.x_a[:2] + rng.uniform(-0.25, 0.25, (16, 2))
            w = np.concatenate([ring, box, edge])
            # the sampled start, and a random start that often sits near a
            # hazard, so both paths run
            starts = [env.x_a, np.array([rng.uniform(-1.6, 1.6),
                                         rng.uniform(-1.2, 1.2),
                                         rng.uniform(0.0, 2 * math.pi)])]
            for x_k in starts:
                want = full_rollout_cost(w, env, x_k)
                got = augmented_cost_batch(w, env, x_k)
                mismatches += not np.array_equal(got.view(np.int64),
                                                 want.view(np.int64))
                if mpc._horizon_clear(x_k, env):
                    clear += 1
                else:
                    refused += 1
                    infeasible_refused += not rollout_feasible(x_k, w[0], env)
        assert mismatches == 0
        assert clear > 1000 and refused > 200 and infeasible_refused > 0

    @pytest.mark.parametrize("x_a, x_o", [
        ((0.0, 0.0, 0.0), (0.2, 0.0)),           # agent within 0.18 + REACH
        ((0.0, 0.0, 1.0), (0.0, -0.21)),
        ((-0.02, 0.22, 0.5), (-1.5, -1.1)),      # obstacle (4, 3) within REACH
        ((0.41, 0.21, 2.0), (-1.5, -1.1)),       # obstacle (4, 3) diagonally
    ])
    def test_hazard_within_reach_runs_the_rollout(self, monkeypatch, x_a, x_o):
        env = open_environment(x_a=x_a, x_o=x_o)
        assert not mpc._horizon_clear(env.x_a, env)
        calls = count_rollouts(monkeypatch)
        w = np.concatenate([AnnulusSpace(env.x_a[:2]).sample(1, 64),
                            env.x_a[:2] + [[0.2, 0.0], [0.0, 0.2]]])
        got = augmented_cost_batch(w, env)
        assert len(calls) == 1
        assert np.array_equal(got, full_rollout_cost(w, env, env.x_a))

    def test_hazard_just_beyond_reach_is_skipped(self):
        gap = mpc.SAFETY_RADIUS + mpc.REACH
        env = open_environment(x_a=(0.0, 0.0, 0.0), x_o=(gap + 1e-12, 0.0))
        assert mpc._horizon_clear(env.x_a, env)
        near = open_environment(x_a=(0.0, 0.0, 0.0), x_o=(gap - 1e-12, 0.0))
        assert not mpc._horizon_clear(near.x_a, near)

    def test_clear_environment_skips_the_rollout(self, monkeypatch):
        env = open_environment()
        calls = count_rollouts(monkeypatch)
        w = AnnulusSpace(env.x_a[:2]).sample(4, 200)
        got = augmented_cost_batch(w, env)
        assert calls == []
        monkeypatch.undo()
        assert np.array_equal(got, full_rollout_cost(w, env, env.x_a))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("x_k", [
        (math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0.0, 0.0, math.nan),
        (0.0, 0.0, -math.inf)])
    def test_non_finite_start_runs_the_rollout(self, monkeypatch, x_k):
        env = open_environment()
        calls = count_rollouts(monkeypatch)
        w = AnnulusSpace(env.x_a[:2]).sample(6, 20)
        got = augmented_cost_batch(w, env, x_k)
        assert len(calls) == 1
        monkeypatch.undo()
        want = full_rollout_cost(w, env, np.asarray(x_k))
        assert np.array_equal(got, want)

    def test_non_finite_uncontrolled_agent_runs_the_rollout(self, monkeypatch):
        env = open_environment(x_o=(math.nan, 0.0))
        calls = count_rollouts(monkeypatch)
        w = AnnulusSpace(env.x_a[:2]).sample(6, 20)
        assert (augmented_cost_batch(w, env) == mpc.PENALTY).all()
        assert len(calls) == 1


# the other agent's distance below which every start is doomed
DOOM_MARGIN = mpc.SAFETY_RADIUS - mpc.V_MAX * mpc.DT - mpc.REACH_SLACK


@pytest.fixture(scope="module")
def doomed_environments():
    """Every doomed start among seeds 0-4,999, and the number of clear ones."""
    envs = [sample_environment(seed) for seed in range(5000)]
    assert not any(env.start_clear and env.start_doomed for env in envs)
    return ([env for env in envs if env.start_doomed],
            sum(env.start_clear for env in envs))


def ring_waypoints(env):
    """Dense waypoints of the ring around the start: 360 angles, and the
    direction straight away from the other agent, each at both ring radii
    and three radii between."""
    angles = np.linspace(0.0, 2 * math.pi, 360, endpoint=False)
    unit = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    away = env.x_a[:2] - env.x_o
    unit = np.concatenate([unit, [away / np.hypot(*away)]])
    radii = np.linspace(mpc.ANNULUS_MIN, mpc.ANNULUS_MAX, 5)
    return np.concatenate([env.x_a[:2] + r * unit for r in radii])


class TestHorizonDoom:
    """``_horizon_doomed``: when the other agent is within ``DOOM_MARGIN``
    of the start, every waypoint's rollout breaks the barrier at its first
    step, so ``augmented_cost_batch`` gives every row the penalty without a
    rollout, and ``_ring_bound`` is the penalty."""

    def test_share_of_sampled_environments(self, doomed_environments):
        doomed, clear = doomed_environments
        assert (len(doomed), clear) == (77, 4617)

    def test_first_step_breaks_the_barrier(self, doomed_environments):
        for env in doomed_environments[0]:
            w = ring_waypoints(env)
            *_, h = next(mpc._rollout(env.x_a, w, env))
            assert (h < 0.0).all(), env.seed
            assert mpc._ring_bound(env) == mpc.PENALTY

    @pytest.mark.parametrize("angle", [0.0, 1.0, 2.5, -2.0])
    def test_flag_flips_at_the_margin(self, angle):
        direction = np.array([math.cos(angle), math.sin(angle)])
        inside = open_environment(x_o=(DOOM_MARGIN - 1e-6) * direction)
        outside = open_environment(x_o=(DOOM_MARGIN + 1e-6) * direction)
        assert inside.start_doomed and not inside.start_clear
        assert not outside.start_doomed and not outside.start_clear
        # the margin is tight: just outside it, backing straight away from
        # the other agent keeps the barrier at the first step
        w = -mpc.ANNULUS_MAX * direction[None, :]
        start = np.array([0.0, 0.0, angle])
        *_, h = next(mpc._rollout(start, w, outside))
        assert h[0] >= 0.0

    def test_costs_equal_the_per_row_rollout(self, monkeypatch,
                                             doomed_environments):
        # each doomed environment at its own start, given and not, and the
        # origin as a given start on a clear environment whose other agent
        # is 0.11 m from it
        other = open_environment(x_a=(-0.5, -0.5, 0.0), x_o=(0.1, 0.05))
        assert other.start_clear and mpc._horizon_doomed(np.zeros(3), other)
        cases = []
        for env in doomed_environments[0]:
            w = AnnulusSpace(env.x_a[:2]).sample(env.seed, 40)
            cases += [(w, env, None, env.x_a), (w, env, env.x_a, env.x_a),
                      (w - env.x_a[:2], other, np.zeros(3), np.zeros(3))]
        calls = count_rollouts(monkeypatch)
        got = [augmented_cost_batch(w, env, x_k) for w, env, x_k, _ in cases]
        assert calls == []
        monkeypatch.undo()
        for costs, (w, env, _, start) in zip(got, cases):
            want = per_row_cost(w, env, start)
            assert costs.dtype == np.float64
            assert costs.tolist() == want == [mpc.PENALTY] * len(w), env.seed

    def test_start_doomed_is_the_start_states_flag(self):
        for seed in range(60):
            env = sample_environment(seed)
            assert env.start_doomed == mpc._horizon_doomed(env.x_a, env)
        assert open_environment(x_o=(0.1, 0.0)).start_doomed
        assert not open_environment().start_doomed

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("x_k", [
        (math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0.0, 0.0, math.nan),
        (0.0, 0.0, -math.inf), (-math.inf, 0.0, 0.0)])
    def test_non_finite_start_is_never_doomed(self, monkeypatch, x_k):
        env = open_environment(x_o=(0.0, 0.0))
        assert env.start_doomed
        assert not mpc._horizon_doomed(np.asarray(x_k), env)
        calls = count_rollouts(monkeypatch)
        w = AnnulusSpace(env.x_a[:2]).sample(6, 20)
        got = augmented_cost_batch(w, env, x_k)
        assert len(calls) == 1
        monkeypatch.undo()
        assert np.array_equal(got, full_rollout_cost(w, env, np.asarray(x_k)))


class TestCellCostTable:
    """``Environment.cell_costs``: the per-cell waypoint score, built once."""

    def test_is_read_only(self):
        env = sample_environment(3)
        with pytest.raises(ValueError):
            env.cell_costs[0] = 0.0
        with pytest.raises(ValueError):
            env.cell_costs.take([0, 1], out=env.cell_costs[:2])

    @pytest.mark.parametrize("seed", [0, 38, 56])
    def test_holds_the_goal_distance_or_the_penalty(self, seed):
        env = sample_environment(seed)
        dist = env.goal_dist.ravel()
        assert env.cell_costs.shape == (mpc.ROWS * mpc.COLS + 1,)
        assert env.cell_costs[-1] == mpc.PENALTY
        assert np.array_equal(env.cell_costs[:-1],
                              np.where(dist < UNREACHABLE, dist, mpc.PENALTY))

    def test_flat_index_follows_cell_of(self):
        rng = np.random.default_rng(8)
        x = np.concatenate([rng.uniform(-1.7, 1.7, 500), [mpc.X_MIN, mpc.X_MAX,
                            -0.8, 0.0, np.nan, 1.6 + 1e-9]])
        y = np.concatenate([rng.uniform(-1.3, 1.3, 500), [mpc.Y_MIN, mpc.Y_MAX,
                            0.24, 0.0, 0.0, 0.0]])
        col, row = cell_of(x, y)
        want = np.where(col >= 0, row * mpc.COLS + col, mpc.ROWS * mpc.COLS)
        assert np.array_equal(mpc._flat_cell(x, y), want)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("seed", [1, 56])
    def test_non_finite_and_huge_rows_cost_the_penalty(self, seed):
        env = sample_environment(seed)
        bad = [math.nan, math.inf, -math.inf, 1e300, -1e300]
        w = np.array([(v, 0.0) for v in bad] + [(0.0, v) for v in bad])
        assert (augmented_cost_batch(w, env) == mpc.PENALTY).all()
        col, row = cell_of(w[:, 0], w[:, 1])
        assert set(col.tolist()) == set(row.tolist()) == {-1}

    def test_start_clear_is_the_start_states_flag(self):
        for seed in range(60):
            env = sample_environment(seed)
            assert env.start_clear == mpc._horizon_clear(env.x_a, env)
        assert not open_environment(x_o=(0.1, 0.0)).start_clear

    def test_only_reachable_rows_are_rolled_out(self, monkeypatch):
        env = sample_environment(56)
        assert not env.start_clear
        w = AnnulusSpace(env.x_a[:2]).sample(56, 60)
        rolled = []
        rollout = mpc._rollout

        def counted(x_k, waypoints, env_):
            rolled.append(len(waypoints))
            return rollout(x_k, waypoints, env_)

        monkeypatch.setattr(mpc, "_rollout", counted)
        got = augmented_cost_batch(w, env)
        monkeypatch.undo()
        cells = mpc._flat_cell(w[:, 0], w[:, 1])
        reachable = env.cell_costs[cells] < mpc.PENALTY
        assert rolled == [int(reachable.sum())] and 0 < rolled[0] < len(w)
        want = full_rollout_cost(w, env, env.x_a)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def scalar_project(space, point):
    """The per-point projection written out with ``math.hypot``, the
    reference the row form must match bit for bit."""
    v = np.asarray(point, dtype=float) - space.center
    r = math.hypot(v[0], v[1])
    if r < 1e-12:
        v, r = np.array([1.0, 0.0]), 1.0
    scaled = space.center + v * (min(max(r, mpc.ANNULUS_MIN), mpc.ANNULUS_MAX) / r)
    return np.minimum(np.maximum(scaled, (mpc.X_MIN, mpc.Y_MIN)),
                      (mpc.X_MAX, mpc.Y_MAX))


def scalar_contains(space, point):
    w = np.asarray(point, dtype=float)
    r = math.hypot(w[0] - space.center[0], w[1] - space.center[1])
    return (mpc.ANNULUS_MIN - mpc.RADIUS_TOL <= r <= mpc.ANNULUS_MAX + mpc.RADIUS_TOL
            and mpc.X_MIN <= w[0] <= mpc.X_MAX and mpc.Y_MIN <= w[1] <= mpc.Y_MAX)


class TestAnnulusRows:
    """``project`` and ``contains`` on (k, 2) rows equal the per-point
    formulas bit for bit, and the single-point calls are views of them."""

    def points(self, space):
        rng = np.random.default_rng(8)
        c = space.center
        return np.concatenate([
            rng.uniform(-2.0, 2.0, (2000, 2)),
            c + rng.uniform(-0.25, 0.25, (2000, 2)),
            [c, c + [1e-13, 0.0], c + [0.05, 0.0], c + [0.2, 0.0],
             c + [0.2 + 1e-9, 0.0], c + [0.0, 0.05 - 2e-9],
             [mpc.X_MAX, c[1]], [math.nan, 0.0], [math.inf, 0.0]]])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("center", [(0.0, 0.0), (1.55, 1.15), (-1.6, 0.3)])
    def test_rows_equal_single_points(self, center):
        space = AnnulusSpace(center)
        pts = self.points(space)
        proj = space.project(pts)
        want = np.array([scalar_project(space, p) for p in pts])
        assert proj.shape == pts.shape
        assert np.array_equal(proj.view(np.int64), want.view(np.int64))
        one = np.array([space.project(p) for p in pts])
        assert np.array_equal(one.view(np.int64), want.view(np.int64))
        for rows in (pts, proj):
            inside = space.contains(rows)
            assert inside.dtype == bool
            assert inside.tolist() == [scalar_contains(space, p) for p in rows]
            assert inside.tolist() == [space.contains(p) for p in rows]
        assert isinstance(space.contains(pts[0]), bool)


def full_refill_sample(space, seed, n, path=()):
    """The annulus sampler that recomputes all n candidates in every refill
    round: the reference the pending-rows sampler must match bit for bit."""
    out = space._candidates(mpc._rng.uniform_block(seed, path, n, 2))
    pending = ~space._in_box(out)
    round_no = 0
    while pending.any():
        round_no += 1
        if round_no >= mpc.MAX_ANNULUS_ROUNDS:
            raise RuntimeError("annulus sampler exceeded its rejection cap; "
                               "the ring barely intersects the workspace")
        refill = space._candidates(
            mpc._rng.uniform_block(seed, (*path, round_no), n, 2))
        out[pending] = refill[pending]
        pending &= ~space._in_box(out)
    return out


class TestAnnulusRefill:
    """Refilling only the pending rows draws the same rows as refilling all n."""

    def centers(self):
        eps = 1e-9
        corners = [(x, y) for x in (mpc.X_MIN, mpc.X_MAX)
                   for y in (mpc.Y_MIN, mpc.Y_MAX)]
        edges = []
        for t in np.linspace(-1.0, 1.0, 9):
            for d in (0.0, eps, 0.05, 0.15):
                edges += [(mpc.X_MIN - d, 1.2 * t), (mpc.X_MAX + d, 1.2 * t),
                          (1.6 * t, mpc.Y_MIN - d), (1.6 * t, mpc.Y_MAX + d)]
        rng = np.random.default_rng(19)
        near = rng.uniform([mpc.X_MIN - 0.15, mpc.Y_MIN - 0.15],
                           [mpc.X_MIN + 0.2, mpc.Y_MIN + 0.2], (300, 2))
        near *= rng.choice([-1.0, 1.0], (300, 2))   # near all four corners
        anywhere = rng.uniform([-1.75, -1.35], [1.75, 1.35], (1600, 2))
        return [*corners, *edges, *map(tuple, near), *map(tuple, anywhere)]

    def test_rows_equal_full_refill_bitwise(self):
        centers = self.centers()
        assert len(centers) >= 2000
        sizes = [0, 1, 2, 7, 50, 300, 2000]
        rng = np.random.default_rng(23)
        refilled = 0
        for i, c in enumerate(centers):
            n = sizes[i % len(sizes)] if i < 70 else int(rng.integers(0, 120))
            path = () if i % 3 else (i % 5,)
            space = AnnulusSpace(c)
            try:
                want = full_refill_sample(space, i, n, path)
            except RuntimeError:   # a ring that barely meets the workspace
                with pytest.raises(RuntimeError, match="exceeded its rejection cap"):
                    space.sample(i, n, path)
                continue
            got = space.sample(i, n, path)
            assert got.shape == want.shape == (n, 2)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), c
            refilled += not space._in_box(
                space._candidates(mpc._rng.uniform_block(i, path, n, 2))).all()
        assert refilled > 500   # refill rounds run for many of these centres

    def test_ring_off_the_workspace_raises_the_same_error(self):
        for center in ((5.0, 5.0), (-1.9, 0.0)):
            space = AnnulusSpace(center)
            for sampler in (space.sample, lambda s, n: full_refill_sample(space, s, n)):
                with pytest.raises(RuntimeError, match="exceeded its rejection cap"):
                    sampler(3, 10)
        assert AnnulusSpace((5.0, 5.0)).sample(3, 0).shape == (0, 2)


class TestScalarCell:
    """``cell_of`` on two scalars equals the array path element by element."""

    def points(self):
        xs = [-1.6, -1.2, -0.8, -0.4, 0.0, 0.4, 0.8, 1.2, 1.6]
        ys = [-1.2, -0.72, -0.24, 0.24, 0.72, 1.2]
        special = [-0.0, math.nan, math.inf, -math.inf, -5.0, 5.0,
                   math.nextafter(1.6, 2.0), math.nextafter(-1.6, -2.0),
                   math.nextafter(1.2, 2.0), math.nextafter(-1.2, -2.0),
                   math.nextafter(1.6, 0.0), math.nextafter(-1.2, 0.0)]
        grid = [(x, y) for x in xs + special for y in ys + special]
        rng = np.random.default_rng(29)
        rand = rng.uniform([-1.8, -1.4], [1.8, 1.4], (500, 2)).tolist()
        return grid + [tuple(p) for p in rand]

    def test_scalar_equals_array_elementwise(self):
        pts = self.points()
        col, row = cell_of(np.array([p[0] for p in pts]), np.array([p[1] for p in pts]))
        want = list(zip(col.tolist(), row.tolist()))
        for kind in (float, np.float64, np.array):
            got = [cell_of(kind(x), kind(y)) for x, y in pts]
            assert got == want, kind
            assert all(type(c) is int and type(r) is int for c, r in got)
        assert want[:2] == [(0, 0), (0, 0)]   # on the lower-left corner
        outside = [w for (x, y), w in zip(pts, want)
                   if not (mpc.X_MIN <= x <= mpc.X_MAX and mpc.Y_MIN <= y <= mpc.Y_MAX)]
        assert outside and set(outside) == {(-1, -1)}

    def test_mixed_scalar_kinds(self):
        assert cell_of(0, np.float64(0.0)) == cell_of(0.0, 0.0) == (3, 2)
        assert cell_of(np.array(1.6), 1.2) == (7, 4)
        # float32(-1.6) widens to just below -1.6: outside on both paths
        col, row = cell_of(np.array([np.float32(-1.6)]), np.array([-1.2]))
        assert cell_of(np.float32(-1.6), -1.2) == (col[0], row[0]) == (-1, -1)


def indexed_goal_distance(so_mask, goal_cells):
    """The Dijkstra on numpy-indexed (ROWS, COLS) arrays: the reference the
    flat-list field must match bit for bit."""
    dist = np.full((mpc.ROWS, mpc.COLS), UNREACHABLE)
    heap = []
    for c, r in goal_cells:
        dist[r, c] = 0.0
        heapq.heappush(heap, (0.0, r, c))
    while heap:
        d, r, c = heapq.heappop(heap)
        if d > dist[r, c]:
            continue
        for dr, dc, w in ((0, 1, CELL_W), (0, -1, CELL_W),
                          (1, 0, CELL_H), (-1, 0, CELL_H)):
            nr, nc = r + dr, c + dc
            if 0 <= nr < mpc.ROWS and 0 <= nc < mpc.COLS and not so_mask[nr, nc]:
                nd = d + w
                if nd < dist[nr, nc]:
                    dist[nr, nc] = nd
                    heapq.heappush(heap, (nd, nr, nc))
    dist[so_mask] = UNREACHABLE
    return dist


class TestGoalDistanceField:
    """The flat-index Dijkstra gives the numpy-indexed one's field bit for
    bit."""

    @staticmethod
    def assert_same(so_mask, goals):
        got = mpc._goal_distance_field(so_mask, goals)
        want = indexed_goal_distance(so_mask, goals)
        assert got.shape == (mpc.ROWS, mpc.COLS) and got.dtype == want.dtype
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        return got

    def test_sampled_environments(self):
        for seed in range(1000):
            env = sample_environment(seed)
            assert np.array_equal(
                env.goal_dist.view(np.int64),
                indexed_goal_distance(env.so_mask, env.goal_cells).view(np.int64))

    def test_random_masks(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            mask = rng.random((mpc.ROWS, mpc.COLS)) < rng.uniform(0.0, 0.6)
            flat = rng.choice(mpc.ROWS * mpc.COLS, int(rng.integers(0, 5)),
                              replace=False)
            self.assert_same(mask, tuple((int(f) % mpc.COLS, int(f) // mpc.COLS)
                                         for f in flat))

    def test_many_random_draws(self):
        # the reference pops (distance, row, col) from its heap, the field
        # pops (distance, flat index): the same order
        rng = np.random.default_rng(37)
        cells = mpc.ROWS * mpc.COLS
        for i in range(20_000):
            if i % 2:   # sample_environment's draw: disjoint obstacles, goals
                flat = rng.choice(cells, mpc.N_OBSTACLES + mpc.N_GOALS,
                                  replace=False)
                mask = np.zeros(cells, dtype=bool)
                mask[flat[:mpc.N_OBSTACLES]] = True
                goals = flat[mpc.N_OBSTACLES:]
            else:       # any density, goals possibly on obstacles
                mask = rng.random(cells) < rng.uniform(0.0, 0.7)
                goals = rng.choice(cells, int(rng.integers(0, 6)),
                                   replace=False)
            self.assert_same(mask.reshape(mpc.ROWS, mpc.COLS),
                             tuple((int(f) % mpc.COLS, int(f) // mpc.COLS)
                                   for f in goals))

    def test_walled_off_and_unreachable_cells(self):
        walled = np.zeros((mpc.ROWS, mpc.COLS), dtype=bool)
        walled[:, 4] = True                       # a full column wall
        got = self.assert_same(walled, ((0, 0),))
        assert (got[:, 5:] == UNREACHABLE).all() and (got[:, :4] < UNREACHABLE).all()
        boxed = np.zeros((mpc.ROWS, mpc.COLS), dtype=bool)
        boxed[1, 1:4] = boxed[3, 1:4] = boxed[2, 1] = boxed[2, 3] = True
        got = self.assert_same(boxed, ((7, 4), (6, 0)))
        assert got[2, 2] == UNREACHABLE           # enclosed free cell
        got = self.assert_same(boxed, ((2, 2),))  # goal inside the box
        assert got[2, 2] == 0.0 and (got[0] == UNREACHABLE).all()
        self.assert_same(np.ones((mpc.ROWS, mpc.COLS), dtype=bool), ((0, 0),))
        got = self.assert_same(np.zeros((mpc.ROWS, mpc.COLS), dtype=bool), ())
        assert (got == UNREACHABLE).all()
