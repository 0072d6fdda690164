"""Ground-truth optima for measuring true optimality gaps.

Three routes, all reached through ``OracleConfig.run``: the problem's cached
enumeration for finite spaces, best-of-n0 uniform sampling followed by
projected finite-difference descent for continuous ones, and a declared optimum.
The descent cycles a coarse-to-fine difference step: coarse stencils smooth
high-frequency ripple so the search can cross shallow local basins, fine
stencils polish the result.  Every accepted step strictly decreases the true
cost, so the refined value never exceeds the best sampled one.

The stencils of all remaining levels at an incumbent are built and evaluated
as one batch, which the next levels reuse until a move is accepted.  Because
cost kernels are row-independent, this gives the same result as evaluating
one level at a time.  Each line search likewise projects, evaluates and
checks the membership of its candidate rows (the curvature trials, then each
backtracking ladder) as one batch.  ``evaluations`` counts the rows actually
evaluated.

The descent's tuning is fixed in module constants.  Difference steps run
from ``FD_START`` halving down to ``FD_FLOOR``, and the first line-search
step is ``INITIAL_STEP``, all fractions of box width.  The coarse ladder
backtracks by ``BACKTRACK``; the fine ladder, by ``FINE_BACKTRACK``, is the
last-resort scan before declaring a stall.  Ladders stop at ``MIN_STEP`` of
the box width, curvatures at or below ``CURVATURE_FLOOR`` count as flat, and
the descent stops unconverged after ``MAX_ITERS`` stencils.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _rng
from .percentile import DomainError, OracleError, Problem

FD_START = 0.05
FD_FLOOR = 1e-6
INITIAL_STEP = 1.0
BACKTRACK = 0.5
FINE_BACKTRACK = 0.85
MIN_STEP = 1e-12
MAX_ITERS = 2000
CURVATURE_FLOOR = 1e-12


@dataclass(frozen=True)
class OracleResult:
    value: float
    minimizer: np.ndarray
    method: str  # "exhaustive" | "refine-min" | "declared"
    evaluations: int
    converged: bool = True


def exhaustive_min(problem: Problem) -> OracleResult:
    """Exact minimum and its first minimizer in enumeration order, from the
    problem's cached ``enumeration``; ``evaluations`` counts its rows.

    Raises CapacityError, an OracleError, beyond the enumeration limit."""
    costs, minimizer = problem.enumeration
    return OracleResult(value=float(costs.min()), minimizer=minimizer,
                        method="exhaustive", evaluations=len(costs))


def refine_min(problem: Problem, n0: int = 2000, seed: int = 0) -> OracleResult:
    """Best of n0 uniform samples, then projected finite-difference descent.

    Works on any space exposing per-axis ``bounds`` and a ``project`` method
    (boxes, and box-clipped shapes like the waypoint annulus).  Trial points
    that project outside the space are rejected; the incumbent value is
    monotone nonincreasing throughout.
    """
    if n0 < 1:
        raise DomainError(f"n0 must be a positive integer, got {n0}")
    space = problem.space
    if not hasattr(space, "bounds") or not hasattr(space, "project"):
        raise DomainError("refine_min needs a space with bounds and projection")
    lower, upper = space.bounds
    width = upper - lower
    wmax = float(np.max(width))

    samples = space.sample(seed, n0, path=(_rng.ORACLE,))
    costs = problem.evaluate_batch(samples)
    i = int(np.argmin(costs))
    state = {"x": np.array(samples[i], dtype=float), "fx": float(costs[i]),
             "evals": n0, "iters": 0, "scan": (None, 0, (), (), ())}

    def try_candidates(cands: np.ndarray) -> bool:
        """Accept the first strict improvement among the (k, d) candidate
        rows, in row order (identical result to sequential backtracking;
        projected, evaluated and checked as one batch)."""
        projected = space.project(cands)
        values = problem.evaluate_batch(projected)
        state["evals"] += len(values)
        ok = np.isfinite(values) & (values < state["fx"])
        ok &= space.contains(projected)
        hits = np.nonzero(ok)[0]
        if hits.size == 0:
            return False
        j = int(hits[0])
        state["x"], state["fx"] = projected[j].copy(), float(values[j])
        return True

    def ladder(x, g, gmax, ratio) -> np.ndarray:
        t0 = INITIAL_STEP * wmax / gmax
        steps = math.log(t0 * gmax / (MIN_STEP * wmax)) / math.log(1 / ratio)
        count = min(max(int(math.ceil(steps)), 1), 400)
        ts = np.array([t0 * ratio**j for j in range(count)])
        return x - ts[:, None] * g

    fds = [FD_START]
    while fds[-1] > FD_FLOOR:
        fds.append(max(fds[-1] * 0.5, FD_FLOOR))
    d = lower.size
    eye = np.eye(d, dtype=bool)

    def stencil_scan(k: int) -> tuple:
        """Stencils of levels k.. at the incumbent, as many as the remaining
        iterations can consume (this one included), evaluated as one batch."""
        x = state["x"]
        levels = fds[k:k + MAX_ITERS - state["iters"] + 1]
        h = np.asarray(levels)[:, None] * width
        up = np.minimum(x + h, upper)
        dn = np.maximum(x - h, lower)
        rows = np.concatenate([np.where(eye, up[:, None], x),
                               np.where(eye, dn[:, None], x)], axis=1)
        sc = problem.evaluate_batch(rows.reshape(-1, d)).reshape(len(h), 2 * d)
        state["evals"] += sc.size
        return x, k, up, dn, sc

    def level_pass(k: int) -> bool:
        improved = False
        while state["iters"] < MAX_ITERS:
            state["iters"] += 1
            x, fx = state["x"], state["fx"]
            scan_x, k0, ups, dns, scs = state["scan"]
            if scan_x is not x or not 0 <= k - k0 < len(scs):
                scan_x, k0, ups, dns, scs = state["scan"] = stencil_scan(k)
            up, dn, sc = ups[k - k0], dns[k - k0], scs[k - k0]
            spread = up - dn
            g = (sc[:d] - sc[d:]) / spread
            curv = (sc[:d] - 2 * fx + sc[d:]) / (spread / 2) ** 2
            gmax = float(np.max(np.abs(g)))
            if gmax == 0.0 or not math.isfinite(gmax):
                return improved
            # curvature-informed first trials, then plain backtracking
            newton = -g / np.maximum(curv, CURVATURE_FLOOR)
            flat = curv <= CURVATURE_FLOOR
            newton[flat] = (-g[flat] / gmax) * 0.1 * width[flat]
            trials = x + np.array([1.0, 0.5, 0.25])[:, None] * newton
            if try_candidates(trials) or try_candidates(
                    ladder(x, g, gmax, BACKTRACK)):
                improved = True
                continue
            if try_candidates(ladder(x, g, gmax, FINE_BACKTRACK)):
                improved = True
                continue
            return improved
        return improved

    while state["iters"] < MAX_ITERS:
        progressed = False
        for k in range(len(fds)):
            progressed |= level_pass(k)
            if state["iters"] >= MAX_ITERS:
                break
        if not progressed:
            break
    converged = state["iters"] < MAX_ITERS
    return OracleResult(value=state["fx"], minimizer=state["x"],
                        method="refine-min", evaluations=state["evals"],
                        converged=converged)


def declared_min(problem: Problem) -> OracleResult:
    """Use the problem's analytically declared optimum (synthetic families)."""
    if problem.declared_optimum is None:
        raise OracleError("problem carries no declared optimum")
    return OracleResult(value=float(problem.declared_optimum), minimizer=None,
                        method="declared", evaluations=0)
