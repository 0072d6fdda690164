"""Unicycle waypoint-planning environment: grid world, safety barrier,
five-step rollout feasibility, and the penalty-augmented waypoint cost,
exposed as a problem family for amortized gap certification.

The workspace is [-1.6, 1.6] x [-1.2, 1.2] overlaid with an 8x5 cell grid
(cells 0.4 m x 0.48 m).  An environment fixes 8 static obstacle cells,
3 goal cells, the controlled agent's start state and an uncontrolled agent's
position.  A candidate waypoint is scored by the grid shortest-path distance
from its cell to the nearest goal, replaced by a flat penalty of 100 whenever
driving toward it with the waypoint controller would break the safety barrier
within the next 5 steps.

The planner is fixed in module constants: a ``HORIZON`` of 5 steps of
``DT`` = 0.033 s, the flat ``PENALTY``, the waypoint ring from
``ANNULUS_MIN`` to ``ANNULUS_MAX`` around the agent, the ``SAFETY_RADIUS``
around the uncontrolled agent and the ``OBSTACLE_BARRIER`` value inside an
obstacle cell, and the controller gains ``K_V`` and ``K_OMEGA`` saturated at
``V_MAX`` and ``OMEGA_MAX``.

The controller saturates |v| at ``V_MAX``, so over the horizon the agent
moves at most ``REACH`` = ``HORIZON * V_MAX * DT`` (0.033 m) plus
``REACH_SLACK`` for rounding.  When the uncontrolled agent is at least
``SAFETY_RADIUS + REACH`` from the start and no obstacle cell lies within
``REACH`` of it (``_horizon_clear``), no waypoint's rollout can break the
barrier, so the cost kernel skips the rollout; the costs are the same bits.
92.3% of sampled environments are clear (4,617 of seeds 0-4,999); in the
others only waypoints in reachable cells are rolled out.

The first step moves the agent at most ``V_MAX * DT`` (6.6 mm).  When the
uncontrolled agent is closer than ``SAFETY_RADIUS - V_MAX * DT -
REACH_SLACK`` to the start (``_horizon_doomed``), every first predicted
position lies inside the safety radius or in an obstacle cell, so every
waypoint's rollout breaks the barrier at its first step and every waypoint
costs the penalty: the cost kernel fills it without a rollout, the same
bits.  1.5% of sampled environments are doomed (77 of seeds 0-4,999); none
is both clear and doomed.  ``rollout_feasible`` and ``write_rollout_trace``
always run the rollout.

Each problem of ``mpc_family`` carries a ``lower_bound`` (``_ring_bound``):
the penalty on a doomed start, where every waypoint costs it, and otherwise
the least cost of the cells whose closed rectangle meets the waypoint ring.
A waypoint costs its cell's cost or the larger penalty, so none costs less,
on any start.  The cells are widened by ``BOUND_SLACK`` (1e-9), which covers
``_cells`` moving a point one rounding step across an edge, and the ring's
outer radius by ``RADIUS_TOL + BOUND_SLACK``, which covers the radii
``AnnulusSpace.contains`` accepts.  The inner radius excludes no cell: every
point of the plane has a point of each cell at least half the cell's
diagonal (0.31 m) away.  Both users of the bound draw through
``percentile.best_of``: the percentile solve of ``sample_gap`` and
``refine_min``'s n0 samples stop once a sample meets it.  They draw 32
waypoints first and redraw a longer prefix of the same stream, evaluating
only its new rows, when the bound is not met.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _rng
from .percentile import DomainError, Problem
from .repetitive import ProblemFamily

X_MIN, X_MAX = -1.6, 1.6
Y_MIN, Y_MAX = -1.2, 1.2
COLS, ROWS = 8, 5
CELL_W = (X_MAX - X_MIN) / COLS   # 0.4
CELL_H = (Y_MAX - Y_MIN) / ROWS   # 0.48
N_OBSTACLES = 8
N_GOALS = 3
MAX_REJECTIONS = 10_000   # environment draws before declaring a bug
UNREACHABLE = 1e6

HORIZON = 5
DT = 0.033
PENALTY = 100.0
ANNULUS_MIN = 0.05
ANNULUS_MAX = 0.2
SAFETY_RADIUS = 0.18
OBSTACLE_BARRIER = -5.0
K_V = 2.0
K_OMEGA = 4.0
V_MAX = 0.2
OMEGA_MAX = math.pi
MAX_ANNULUS_ROUNDS = 256  # the sampler raises at this round: <= 255 refills
RADIUS_TOL = 1e-9         # ring membership slack for projected points
REACH_SLACK = 1e-9        # floating-point rounding allowance on the reach
BOUND_SLACK = 1e-9        # widening of the cells and the ring in _ring_bound
# farthest the agent can move over the horizon: |v| <= V_MAX in every step
REACH = HORIZON * V_MAX * DT + REACH_SLACK

TWO_PI = 2.0 * math.pi

# lower and upper corners of each flat cell (index row * COLS + col), (40, 2),
# widened by BOUND_SLACK on every side
_CELL_ROW, _CELL_COL = np.divmod(np.arange(ROWS * COLS), COLS)
_CELL_LO = np.stack([X_MIN + _CELL_COL * CELL_W,
                     Y_MIN + _CELL_ROW * CELL_H], axis=1) - BOUND_SLACK
_CELL_HI = _CELL_LO + (CELL_W + 2 * BOUND_SLACK, CELL_H + 2 * BOUND_SLACK)

# the 4-connected (neighbour, edge weight) pairs of each flat cell, in the
# step order right, left, up, down; the weight is the distance between the
# cells' centres
_NEIGHBOURS = tuple(
    tuple(((r + dr) * COLS + c + dc, w)
          for dr, dc, w in ((0, 1, CELL_W), (0, -1, CELL_W),
                            (1, 0, CELL_H), (-1, 0, CELL_H))
          if 0 <= r + dr < ROWS and 0 <= c + dc < COLS)
    for r, c in zip(_CELL_ROW.tolist(), _CELL_COL.tolist()))


@dataclass(frozen=True)
class UnicycleState:
    x: float
    y: float
    theta: float  # wrapped to [0, 2*pi)


@dataclass(frozen=True)
class ControlInput:
    v: float
    omega: float


def _wrap_pi(angle):
    """Wrap to (-pi, pi]."""
    wrapped = np.mod(np.asarray(angle) + math.pi, TWO_PI) - math.pi
    return np.where(wrapped == -math.pi, math.pi, wrapped)


def _cells(x: np.ndarray, y: np.ndarray):
    """(inside, col, row) arrays of ``cell_of``'s rule for point arrays; col
    and row are clamped into the grid in float before the integer cast, so a
    NaN, infinite or huge coordinate casts without a warning."""
    inside = (x >= X_MIN) & (x <= X_MAX) & (y >= Y_MIN) & (y <= Y_MAX)
    col = np.fmin(np.fmax(np.ceil((x - X_MIN) / CELL_W), 1.0), COLS)
    row = np.fmin(np.fmax(np.ceil((y - Y_MIN) / CELL_H), 1.0), ROWS)
    return inside, col.astype(np.intp) - 1, row.astype(np.intp) - 1


def cell_of(x, y):
    """Grid cell (col, row) of a planar point; boundary points go to the
    lower-index cell; (-1, -1) marks points outside the workspace.

    Two scalars give a pair of ints by plain float arithmetic, arrays give a
    pair of index arrays; both use the same IEEE division and clamps."""
    # np.float64 subclasses float, so float64 scalars skip the array conversion
    if not (isinstance(x, float) and isinstance(y, float)):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim or y.ndim:
            inside, col, row = _cells(x, y)
            return np.where(inside, col, -1), np.where(inside, row, -1)
    x, y = float(x), float(y)
    if not (X_MIN <= x <= X_MAX and Y_MIN <= y <= Y_MAX):
        return -1, -1
    return (min(max(math.ceil((x - X_MIN) / CELL_W) - 1, 0), COLS - 1),
            min(max(math.ceil((y - Y_MIN) / CELL_H) - 1, 0), ROWS - 1))


def _flat_cell(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Flat cell index ``row * COLS + col`` of each point by ``cell_of``'s
    rule, and ``ROWS * COLS`` for points outside the workspace."""
    inside, col, row = _cells(x, y)
    return np.where(inside, row * COLS + col, ROWS * COLS)


@dataclass(frozen=True)
class Environment:
    """One sampled world: obstacle cells, goal cells, agent start states."""

    x_a: np.ndarray            # (3,) controlled agent state
    x_o: np.ndarray            # (2,) uncontrolled agent position
    so_cells: tuple[tuple[int, int], ...]
    goal_cells: tuple[tuple[int, int], ...]
    seed: int
    rejections: int = 0
    so_mask: np.ndarray = field(init=False, repr=False)  # from so_cells
    # read-only (ROWS * COLS + 1,) obstacle flag of each flat cell
    # (``_flat_cell``); the last slot, outside the workspace, is False.
    # so_mask is its (ROWS, COLS) view without that slot.
    so_flat: np.ndarray = field(init=False, repr=False)
    goal_dist: np.ndarray = field(init=False, repr=False)  # from goal_cells
    # read-only (ROWS * COLS + 1,) cost of each flat cell (``_flat_cell``):
    # the goal distance, or PENALTY for unreachable cells and, in the last
    # slot, for points outside the workspace
    cell_costs: np.ndarray = field(init=False, repr=False)
    start_clear: bool = field(init=False, repr=False)  # _horizon_clear(x_a)
    # _horizon_doomed(x_a): the other agent is closer than SAFETY_RADIUS -
    # V_MAX * DT - REACH_SLACK, so every waypoint costs PENALTY
    # (77 of seeds 0-4,999; 4,617 are clear)
    start_doomed: bool = field(init=False, repr=False)

    def __post_init__(self):
        so = set(self.so_cells)
        goals = set(self.goal_cells)
        if so & goals:
            raise DomainError("obstacle and goal cells must be disjoint")
        mask = np.zeros((ROWS, COLS), dtype=bool)
        for c, r in so:
            mask[r, c] = True
        flat = np.append(mask.ravel(), False)
        flat.flags.writeable = False
        mask = flat[:-1].reshape(ROWS, COLS)
        dist = _goal_distance_field(mask, self.goal_cells)
        costs = np.append(np.where(dist < UNREACHABLE, dist, PENALTY), PENALTY)
        costs.flags.writeable = False
        object.__setattr__(self, "so_mask", mask)
        object.__setattr__(self, "so_flat", flat)
        object.__setattr__(self, "goal_dist", dist)
        object.__setattr__(self, "cell_costs", costs)
        x_a = _state_array(self.x_a)
        object.__setattr__(self, "start_clear", _horizon_clear(x_a, self))
        object.__setattr__(self, "start_doomed", _horizon_doomed(x_a, self))


def _goal_distance_field(so_mask: np.ndarray,
                         goal_cells) -> np.ndarray:
    """Multi-source Dijkstra from the goal cells over obstacle-free cells,
    4-connected, edge weight = distance between adjacent cell centers.

    Runs on flat cell indices ``row * COLS + col`` with the ``_NEIGHBOURS``
    table.  Flat index order is (row, col) order, so the heap pops cells in
    the same order as a heap of (distance, row, col), and Python float
    addition is the same IEEE operation as numpy's: the field is the same
    bits."""
    blocked = so_mask.ravel().tolist()
    dist = [UNREACHABLE] * (ROWS * COLS)
    heap = []
    for c, r in goal_cells:
        dist[r * COLS + c] = 0.0
        heapq.heappush(heap, (0.0, r * COLS + c))
    while heap:
        d, f = heapq.heappop(heap)
        if d > dist[f]:
            continue
        for g, w in _NEIGHBOURS[f]:
            nd = d + w
            if nd < dist[g] and not blocked[g]:
                dist[g] = nd
                heapq.heappush(heap, (nd, g))
    out = np.array(dist).reshape(ROWS, COLS)
    out[so_mask] = UNREACHABLE
    return out


def _step(x, y, theta, v, omega):
    return (x + v * np.cos(theta) * DT,
            y + v * np.sin(theta) * DT,
            np.mod(theta + omega * DT, TWO_PI))


def _control(x, y, theta, wx, wy):
    """Controller inputs (v, omega) driving each state toward its waypoint."""
    dx = wx - x
    dy = wy - y
    dist = np.hypot(dx, dy)
    e = _wrap_pi(np.arctan2(dy, dx) - theta)
    v = np.minimum(np.maximum(K_V * dist * np.cos(e), -V_MAX), V_MAX)
    om = np.minimum(np.maximum(K_OMEGA * e, -OMEGA_MAX), OMEGA_MAX)
    hold = dist < 1e-6
    return np.where(hold, 0.0, v), np.where(hold, 0.0, om)


def _barrier(x, y, x_o, so_flat) -> np.ndarray:
    d = np.hypot(x - x_o[0], y - x_o[1]) - SAFETY_RADIUS
    return np.where(so_flat.take(_flat_cell(x, y)), OBSTACLE_BARRIER, d)


def _rollout(x_k, waypoints: np.ndarray, env: Environment):
    """Simulate the controller toward each of m waypoints; yield, per step,
    the m-arrays (x, y, theta, v, omega, h): the predicted state, the input
    that led to it, and its barrier value (uncontrolled agent held static).

    dynamics_step, lyapunov_controller and barrier are the single-state views
    of this kernel's helpers, so they agree with it bit for bit."""
    m = len(waypoints)
    x = np.full(m, float(x_k[0]))
    y = np.full(m, float(x_k[1]))
    th = np.full(m, float(x_k[2]))
    for _ in range(HORIZON):
        v, om = _control(x, y, th, waypoints[:, 0], waypoints[:, 1])
        x, y, th = _step(x, y, th, v, om)
        yield x, y, th, v, om, _barrier(x, y, env.x_o, env.so_flat)


def dynamics_step(state: UnicycleState, control: ControlInput) -> UnicycleState:
    """One forward-Euler unicycle step; heading wraps, position is unclamped."""
    x, y, th = _step(state.x, state.y, state.theta, control.v, control.omega)
    return UnicycleState(float(x), float(y), float(th))


def lyapunov_controller(state: UnicycleState, waypoint) -> ControlInput:
    """Proportional heading/velocity law saturated to the input bounds.

    Forward speed scales with distance and the cosine of the heading error
    (negative cosine allows reversing); turn rate is proportional to the
    heading error.  At the waypoint the input is identically zero.
    """
    v, omega = _control(state.x, state.y, state.theta, float(waypoint[0]),
                        float(waypoint[1]))
    return ControlInput(float(v), float(omega))


def barrier(x_a, x_o, env: Environment) -> float:
    """Safety margin: the obstacle value inside a static-obstacle cell, else
    planar distance to the uncontrolled agent minus the safety radius."""
    a = np.asarray(x_a, dtype=float).ravel()
    return float(_barrier(a[:1], a[1:2], np.asarray(x_o, dtype=float).ravel(),
                          env.so_flat)[0])


def rollout_feasible(x_k, waypoint, env: Environment) -> bool:
    """True iff the barrier stays nonnegative at every predicted step."""
    w = np.asarray(waypoint, dtype=float)[None, :]
    return all(h[0] >= 0.0 for *_, h in _rollout(_state_array(x_k), w, env))


def shortest_goal_distance(waypoint, env: Environment) -> float:
    """Grid shortest-path distance from the waypoint's cell to the nearest
    goal cell; the unreachable sentinel for obstacle or cut-off cells."""
    w = np.asarray(waypoint, dtype=float).ravel()
    col, row = cell_of(w[0], w[1])
    if col < 0:
        return UNREACHABLE
    return float(env.goal_dist[row, col])


def augmented_cost_batch(waypoints: np.ndarray, env: Environment,
                         x_k=None) -> np.ndarray:
    """Each waypoint row's shortest-path-to-goal score, replaced by the flat
    penalty when the rollout is unsafe or the waypoint's cell is unreachable;
    always in [0, penalty].

    The scores are one lookup in ``env.cell_costs``, which already holds the
    penalty for unreachable cells and points outside the workspace.  Those
    rows cost the penalty whatever the rollout says, so only the other rows
    are rolled out, and the unsafe ones among them get the penalty.  The
    rollout is skipped when ``_horizon_clear`` proves that it is feasible for
    every waypoint, and when ``_horizon_doomed`` proves that it fails at the
    first step for every waypoint (the other agent closer than
    ``SAFETY_RADIUS - V_MAX * DT - REACH_SLACK``; 77 of seeds 0-4,999), where
    every row gets the penalty.  For the environment's own start (``x_k``
    None) the flags are ``env.start_clear`` and ``env.start_doomed``."""
    w = np.atleast_2d(np.asarray(waypoints, dtype=float))
    if x_k is None:
        x_k, clear, doomed = env.x_a, env.start_clear, env.start_doomed
    else:
        x_k = _state_array(x_k)
        clear = _horizon_clear(x_k, env)
        doomed = _horizon_doomed(x_k, env)
    if doomed:
        return np.full(len(w), PENALTY)
    costs = env.cell_costs.take(_flat_cell(w[:, 0], w[:, 1]))
    if not clear:
        reachable = np.flatnonzero(costs != PENALTY)
        feasible = np.logical_and.reduce(
            [h >= 0.0 for *_, h in _rollout(x_k, w[reachable], env)])
        costs[reachable[~feasible]] = PENALTY
    return costs


def _horizon_clear(x_k, env: Environment) -> bool:
    """True when the barrier provably holds over the whole rollout from x_k,
    whatever the waypoint.

    ``_control`` saturates |v| at ``V_MAX``, so every predicted position lies
    within ``REACH`` of the start.  The barrier then cannot fail when the
    uncontrolled agent is at least ``SAFETY_RADIUS + REACH`` away and no
    obstacle cell meets the cells covering [x +- REACH] x [y +- REACH].  That
    cell rectangle spans the ``cell_of`` cells of its corners, clamped into
    the workspace; cell indices are monotone in x and y and points outside
    the workspace are never obstacle cells, so it holds every cell a rollout
    can visit.  A non-finite start is never clear.
    """
    x, y, theta = x_k[:3].tolist()
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(theta)):
        return False
    ox, oy = env.x_o[:2].tolist()
    if not math.hypot(x - ox, y - oy) >= SAFETY_RADIUS + REACH:
        return False
    c0, r0 = cell_of(min(max(x - REACH, X_MIN), X_MAX),
                     min(max(y - REACH, Y_MIN), Y_MAX))
    c1, r1 = cell_of(min(max(x + REACH, X_MIN), X_MAX),
                     min(max(y + REACH, Y_MIN), Y_MAX))
    return not env.so_mask[r0:r1 + 1, c0:c1 + 1].any()


def _horizon_doomed(x_k, env: Environment) -> bool:
    """True when the barrier provably fails at the rollout's first step from
    x_k, whatever the waypoint.

    ``_control`` saturates |v| at ``V_MAX``, so the first predicted position
    lies within ``V_MAX * DT`` (plus ``REACH_SLACK`` for rounding) of x_k.
    When the uncontrolled agent is closer than ``SAFETY_RADIUS`` less that
    step, the position is inside the safety radius, and the barrier there is
    negative: the distance less the radius, or ``OBSTACLE_BARRIER`` in an
    obstacle cell.  A non-finite start is never doomed.
    """
    x, y, theta = x_k[:3].tolist()
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(theta)):
        return False
    ox, oy = env.x_o[:2].tolist()
    return (math.hypot(x - ox, y - oy) + V_MAX * DT + REACH_SLACK
            < SAFETY_RADIUS)


def _ring_bound(env: Environment) -> float:
    """The ``lower_bound`` of the environment's waypoint ring: ``PENALTY`` on
    a doomed start (``env.start_doomed``), where every waypoint costs it, and
    otherwise the least cost of the cells, widened by ``BOUND_SLACK``, whose
    nearest point lies within ``ANNULUS_MAX + RADIUS_TOL + BOUND_SLACK`` of
    the ring's centre."""
    if env.start_doomed:
        return PENALTY
    lo, hi = _CELL_LO - env.x_a[:2], _CELL_HI - env.x_a[:2]
    near = np.hypot(*np.maximum(np.maximum(lo, -hi), 0.0).T)
    meets = near <= ANNULUS_MAX + RADIUS_TOL + BOUND_SLACK
    return float(np.min(env.cell_costs[:-1], initial=PENALTY, where=meets))


def _state_array(state) -> np.ndarray:
    return np.asarray(state, dtype=float).ravel()


@dataclass(frozen=True)
class AnnulusSpace:
    """Waypoint ring from ``ANNULUS_MIN`` to ``ANNULUS_MAX`` around a planar
    point, intersected with the workspace.

    Radius is drawn by the inverse transform on radius squared (uniform by
    area) and the angle uniformly.  Draws falling outside the workspace box
    are refilled: round r draws ``uniform_block(seed, (*path, r), k, 2)``
    with k one past the last pending row, and each pending row i takes that
    block's row i.  By the block's prefix property, row i of a round is the
    same for every k > i, so sample i depends only on (seed, i) and the
    sample size never changes it.
    """

    center: np.ndarray

    def __init__(self, center):
        object.__setattr__(self, "center",
                           np.asarray(center, dtype=float).ravel()[:2])

    @property
    def cardinality(self) -> None:
        return None

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.maximum(self.center - ANNULUS_MAX, [X_MIN, Y_MIN])
        hi = np.minimum(self.center + ANNULUS_MAX, [X_MAX, Y_MAX])
        return lo, hi

    def _candidates(self, u: np.ndarray) -> np.ndarray:
        r = np.sqrt(ANNULUS_MIN**2 + u[:, 0] * (ANNULUS_MAX**2 - ANNULUS_MIN**2))
        phi = TWO_PI * u[:, 1]
        out = np.empty((len(u), 2))
        np.multiply(r, np.cos(phi), out=out[:, 0])
        np.multiply(r, np.sin(phi), out=out[:, 1])
        out += self.center
        return out

    def _in_box(self, w: np.ndarray) -> np.ndarray:
        return ((w[:, 0] >= X_MIN) & (w[:, 0] <= X_MAX)
                & (w[:, 1] >= Y_MIN) & (w[:, 1] <= Y_MAX))

    def sample(self, seed: int, n: int, path: tuple[int, ...] = ()) -> np.ndarray:
        out = self._candidates(_rng.uniform_block(seed, path, n, 2))
        pending = np.flatnonzero(~self._in_box(out))
        round_no = 0
        while pending.size:
            round_no += 1
            if round_no >= MAX_ANNULUS_ROUNDS:
                raise RuntimeError("annulus sampler exceeded its rejection cap; "
                                   "the ring barely intersects the workspace")
            u = _rng.uniform_block(seed, (*path, round_no), pending[-1] + 1, 2)
            out[pending] = self._candidates(u[pending])
            pending = pending[~self._in_box(out[pending])]
        return out

    def _radii(self, w: np.ndarray) -> np.ndarray:
        """Distance of each (k, 2) row from the center, by ``math.hypot``
        (``np.hypot`` can differ from it in the last bit)."""
        v = w - self.center
        return np.fromiter(map(math.hypot, *v.T.tolist()), dtype=float,
                           count=len(v))

    def contains(self, decision):
        """Membership of a waypoint (2,) as a bool, or of each row of a
        (k, 2) array as a (k,) bool array."""
        w = np.asarray(decision, dtype=float)
        rows = w[:, :2] if w.ndim == 2 else w.ravel()[None, :2]
        r = self._radii(rows)
        inside = ((ANNULUS_MIN - RADIUS_TOL <= r) & (r <= ANNULUS_MAX + RADIUS_TOL)
                  & self._in_box(rows))
        return inside if w.ndim == 2 else bool(inside[0])

    def project(self, point) -> np.ndarray:
        """Nearest-radius point of the ring, clipped to the workspace, for a
        point (2,) or for each row of a (k, 2) array."""
        w = np.asarray(point, dtype=float)
        rows = w[:, :2] if w.ndim == 2 else w.ravel()[None, :2]
        v = rows - self.center
        r = self._radii(rows)
        at_center = r < 1e-12
        v[at_center], r[at_center] = (1.0, 0.0), 1.0
        scale = np.minimum(np.maximum(r, ANNULUS_MIN), ANNULUS_MAX) / r
        scaled = self.center + v * scale[:, None]
        out = np.minimum(np.maximum(scaled, (X_MIN, Y_MIN)), (X_MAX, Y_MAX))
        return out if w.ndim == 2 else out[0]


def sample_environment(seed: int) -> Environment:
    """Rejection-sample world configurations until the invariants hold:
    distinct obstacle/goal cells, both agents outside them, and a 4-connected
    obstacle-free path from the controlled agent's cell to some goal."""
    rng = _rng.stream(seed, _rng.ENVIRONMENT)
    for attempt in range(MAX_REJECTIONS):
        flat = rng.choice(ROWS * COLS, size=N_OBSTACLES + N_GOALS, replace=False)
        cells = [(int(f) % COLS, int(f) // COLS) for f in flat]
        so = tuple(cells[:N_OBSTACLES])
        goals = tuple(cells[N_OBSTACLES:])
        blocked = set(so) | set(goals)
        ax = rng.uniform(X_MIN, X_MAX)
        ay = rng.uniform(Y_MIN, Y_MAX)
        atheta = rng.uniform(0.0, TWO_PI)
        ox = rng.uniform(X_MIN, X_MAX)
        oy = rng.uniform(Y_MIN, Y_MAX)
        acol, arow = cell_of(ax, ay)
        if (acol, arow) in blocked or cell_of(ox, oy) in blocked:
            continue
        env = Environment(x_a=np.array([ax, ay, atheta]), x_o=np.array([ox, oy]),
                          so_cells=so, goal_cells=goals, seed=int(seed),
                          rejections=attempt)
        if env.goal_dist[arow, acol] < UNREACHABLE:
            return env
    raise RuntimeError(f"no feasible environment after {MAX_REJECTIONS} draws; "
                       "this indicates a configuration bug")


def mpc_family() -> ProblemFamily:
    """Waypoint problems over freshly sampled environments, ready for
    amortized gap certification."""

    def build(instance_seed: int) -> Problem:
        env = sample_environment(instance_seed)
        return Problem(
            space=AnnulusSpace(env.x_a[:2]),
            batch_cost=lambda w: augmented_cost_batch(w, env),
            name=f"mpc-waypoint-{instance_seed}",
            lower_bound=_ring_bound(env),
        )

    return ProblemFamily(build=build, description="mpc-waypoint")


def write_rollout_trace(x_k, waypoint, env: Environment, path) -> None:
    """Debug CSV ``j,x,y,theta,v,omega,h`` of one predicted rollout, exactly
    as the cost kernel computes it."""
    w = np.asarray(waypoint, dtype=float)[None, :]
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write("j,x,y,theta,v,omega,h\n")
        for j, row in enumerate(_rollout(_state_array(x_k), w, env), 1):
            fh.write(f"{j}," + ",".join(repr(float(a[0])) for a in row) + "\n")
