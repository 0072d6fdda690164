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
backtracking ladder) as one batch, built only when the batch before it found
no strict improvement.  ``evaluations`` counts the rows actually evaluated.

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
from .percentile import DomainError, OracleError, Problem, _check_count

FD_START = 0.05
FD_FLOOR = 1e-6
INITIAL_STEP = 1.0
BACKTRACK = 0.5
FINE_BACKTRACK = 0.85
MIN_STEP = 1e-12
MAX_ITERS = 2000
CURVATURE_FLOOR = 1e-12

# The difference steps, fractions of box width: FD_START halving to FD_FLOOR.
_FDS = [FD_START]
while _FDS[-1] > FD_FLOOR:
    _FDS.append(max(_FDS[-1] * 0.5, FD_FLOOR))


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
    _check_count("n0", n0)
    space = problem.space
    if not hasattr(space, "bounds") or not hasattr(space, "project"):
        raise DomainError("refine_min needs a space with bounds and projection")
    lower, upper = space.bounds
    width = upper - lower
    wmax = float(np.max(width))
    d = lower.size
    eye = np.eye(d, dtype=bool)

    samples = space.sample(seed, n0, path=(_rng.ORACLE,))
    costs = problem.evaluate_batch(samples)
    i = int(np.argmin(costs))
    x, fx = np.array(samples[i], dtype=float), float(costs[i])
    evals, iters = int(n0), 0
    scan_x, k0, scan = None, 0, ()  # the stencil scan of levels k0.. at scan_x
    k, progressed = 0, False  # the level, and whether this pass of levels moved
    while iters < MAX_ITERS:
        iters += 1
        if scan_x is not x or not 0 <= k - k0 < len(scan):
            # stencils of levels k.., as many as the remaining iterations can
            # consume (this one included), evaluated as one batch
            h = np.array(_FDS[k:k + MAX_ITERS - iters + 1])[:, None] * width
            up, dn = np.minimum(x + h, upper), np.maximum(x - h, lower)
            rows = np.concatenate([np.where(eye, up[:, None], x),
                                   np.where(eye, dn[:, None], x)], axis=1)
            sc = problem.evaluate_batch(rows.reshape(-1, d))
            evals += sc.size
            scan_x, k0, scan = x, k, list(zip(up, dn, sc.reshape(len(h), 2 * d)))
        up, dn, sc = scan[k - k0]
        spread = up - dn
        g = (sc[:d] - sc[d:]) / spread
        curv = (sc[:d] - 2 * fx + sc[d:]) / (spread / 2) ** 2
        gmax = float(np.max(np.abs(g)))
        moved = False
        if gmax > 0.0 and math.isfinite(gmax):
            # curvature-informed first trials, then the coarse and the fine
            # backtracking ladder; each batch only if the one before failed
            newton = -g / np.maximum(curv, CURVATURE_FLOOR)
            flat = curv <= CURVATURE_FLOOR
            newton[flat] = (-g[flat] / gmax) * 0.1 * width[flat]
            for ratio in (None, BACKTRACK, FINE_BACKTRACK):
                cands = (x + np.array([1.0, 0.5, 0.25])[:, None] * newton
                         if ratio is None else _ladder(x, g, gmax, ratio, wmax))
                # the first strict improvement, in row order
                projected = space.project(cands)
                values = problem.evaluate_batch(projected)
                evals += len(values)
                hits = np.flatnonzero((values < fx) & space.contains(projected))
                if hits.size:
                    x, fx = projected[hits[0]].copy(), float(values[hits[0]])
                    moved = progressed = True
                    break
        if moved:
            continue
        k += 1
        if k == len(_FDS):
            if not progressed:
                break
            k, progressed = 0, False
    return OracleResult(value=fx, minimizer=x, method="refine-min",
                        evaluations=evals, converged=iters < MAX_ITERS)


def _ladder(x, g, gmax, ratio, wmax) -> np.ndarray:
    """Backtracking candidates x - t g, from t = INITIAL_STEP * wmax / gmax
    shrinking by ``ratio`` down to MIN_STEP of the box width."""
    t0 = INITIAL_STEP * wmax / gmax
    steps = math.log(t0 * gmax / (MIN_STEP * wmax)) / math.log(1 / ratio)
    count = min(max(int(math.ceil(steps)), 1), 400)
    ts = np.array([t0 * ratio**j for j in range(count)])
    return x - ts[:, None] * g


def declared_min(problem: Problem) -> OracleResult:
    """Use the problem's analytically declared optimum (synthetic families)."""
    if problem.declared_optimum is None:
        raise OracleError("problem carries no declared optimum")
    return OracleResult(value=float(problem.declared_optimum), minimizer=None,
                        method="declared", evaluations=0)
