"""In-memory span tracer that times gapcert's layers from outside the package.

Each layer function is replaced, in every ``gapcert`` module namespace that
holds it, by a wrapper that records a span (layer, start, end, parent).  That
covers ``from .x import f`` imports, since the wrapper replaces every alias of
the same function object.  Space samplers and the tour enumerator are wrapped
on their classes, and every Problem built while the tracer is installed gets
its ``batch_cost`` wrapped.  Counts (rows, evaluations, rejections) are taken
from the arguments and results the wrappers see, at the same boundaries.

A layer's self time is its span's duration minus the time its child spans
cover, so the self times of all layers add up to the time spent inside any
traced call.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

import numpy as np


def replace_everywhere(orig, new) -> list[tuple]:
    """Rebind every gapcert module attribute that is ``orig`` to ``new``.

    Returns (module, attribute, original) triples for ``restore``.
    """
    undo = []
    for name, mod in list(sys.modules.items()):
        if name != "gapcert" and not name.startswith("gapcert."):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, new)
                undo.append((mod, key, orig))
    return undo


def restore(undo: list[tuple]) -> None:
    for owner, key, orig in reversed(undo):
        setattr(owner, key, orig)


class Tracer:
    """Spans and counters for one traced run; install, run, uninstall."""

    def __init__(self):
        self.layers: list[str] = []
        # one entry per span, in typed arrays to keep large traces small
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._first_cost: dict[int, tuple[int, float]] = {}
        self._undo: list[tuple] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, layer: str, fn, after=None):
        if layer not in self.layers:
            self.layers.append(layer)
        lid = self.layers.index(layer)
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack = self.parents, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(lid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(idx, out)
            return out

        return traced

    def _function(self, module, attr: str, layer: str, after=None) -> None:
        orig = getattr(module, attr)
        self._undo += replace_everywhere(orig, self._wrap(layer, orig, after))

    def _method(self, cls, attr: str, layer: str, after=None) -> None:
        orig = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(layer, orig, after))
        self._undo.append((cls, attr, orig))

    def _generator(self, cls, attr: str, layer: str, after=None) -> None:
        """One span per block pulled from the generator; the consumer's work
        between blocks stays outside the span."""
        orig = cls.__dict__[attr]
        pull = self._wrap(layer, next, after)

        def traced(*args, **kwargs):
            it = orig(*args, **kwargs)
            while True:
                try:
                    block = pull(it)
                except StopIteration:
                    return
                yield block

        setattr(cls, attr, traced)
        self._undo.append((cls, attr, orig))

    def _count(self, key: str, of=len):
        counts = self.counts

        def after(_idx, out):
            counts[key] += of(out)
        return after

    def _after_cost(self, idx: int, out) -> None:
        self.counts["problems.cost.evals"] += len(out)
        parent = self.parents[idx]
        if parent >= 0 and self.layers[self.names[parent]] == "oracles.refine_min":
            # the first cost batch under refine_min is its n0 uniform samples
            self._first_cost.setdefault(parent, (len(out), float(np.min(out))))

    def _after_refine(self, idx: int, out) -> None:
        n0, first_best = self._first_cost.pop(idx, (0, float("inf")))
        c = self.counts
        c["oracles.refine_min.evals"] += out.evaluations
        c["oracles.refine_min.descent_evals"] += out.evaluations - n0
        c["oracles.refine_min.improved"] += out.value < first_best
        c["oracles.refine_min.not_converged"] += not out.converged

    def install(self) -> None:
        from gapcert import _rng, certifier, experiments, mpc, oracles, \
            percentile, repetitive, spaces

        f, m = self._function, self._method
        f(_rng, "stream", "rng.stream")
        f(_rng, "child_seed", "rng.child_seed")
        for cls in (spaces.BoxSpace, spaces.PermutationSpace):
            m(cls, "sample", "spaces.sample", self._count("spaces.sample.rows"))
        self._generator(spaces.PermutationSpace, "enumerate", "spaces.enumerate",
                        self._count("spaces.enumerate.rows"))
        m(mpc.AnnulusSpace, "sample", "mpc.annulus_sample",
          self._count("mpc.annulus_sample.rows"))
        f(mpc, "sample_environment", "mpc.environment",
          self._count("mpc.environment.rejections", lambda env: env.rejections))
        f(mpc, "augmented_cost_batch", "mpc.rollout",
          self._count("mpc.rollout.evals"))
        f(percentile, "percentile_solve", "percentile.solve")
        f(certifier, "subsample_info", "certifier.subsample")
        f(certifier, "certify_gap", "certifier.certify_gap")
        f(certifier, "exceedance_probability", "certifier.exceedance")
        f(certifier, "variance_of_costs", "certifier.variance",
          self._count("certifier.variance.rows"))
        f(oracles, "refine_min", "oracles.refine_min", self._after_refine)
        f(oracles, "exhaustive_min", "oracles.exhaustive_min",
          self._count("oracles.exhaustive_min.evals", lambda r: r.evaluations))
        f(repetitive, "sample_gap", "repetitive.sample_gap")
        f(experiments, "run", "experiments.run")

        if "problems.cost" not in self.layers:
            self.layers.append("problems.cost")
        problem_cls = percentile.Problem
        orig_init = problem_cls.__init__
        cost_layer = self._wrap
        after_cost = self._after_cost

        def init(problem, *args, **kwargs):
            orig_init(problem, *args, **kwargs)
            if problem.batch_cost is not None:
                object.__setattr__(problem, "batch_cost", cost_layer(
                    "problems.cost", problem.batch_cost, after_cost))

        problem_cls.__init__ = init
        self._undo.append((problem_cls, "__init__", orig_init))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per layer: calls, self seconds, and inclusive seconds per call."""
        names = np.asarray(self.names, dtype=np.intp)
        parents = np.asarray(self.parents, dtype=np.intp)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested],
                            minlength=len(dur))
        self_s = dur - child
        out = {}
        for lid, layer in enumerate(self.layers):
            mine = names == lid
            out[layer] = {"calls": int(mine.sum()),
                          "self_s": float(self_s[mine].sum()),
                          "durations_s": dur[mine]}
        return out

    def write_spans(self, path, t0: float) -> None:
        """CSV ``layer,start_s,end_s,parent`` with times relative to t0."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("layer,start_s,end_s,parent\n")
            for lid, s, e, p in zip(self.names, self.starts, self.ends,
                                    self.parents):
                fh.write(f"{self.layers[lid]},{s - t0:.9f},{e - t0:.9f},{p}\n")
