"""The benchmark's span tracer still finds every layer it wraps.

``bench/tracing.py`` wraps library functions and methods by name, so a
renamed layer would only fail the benchmark's traced run.  This installs the
tracer against the library, traces one certificate, and checks that
uninstalling restores every original.  The tracer is read, never edited.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from gapcert import _rng, certifier, percentile, spaces
from gapcert.oracles import exhaustive_min
from gapcert.problems import make_tsp_problem, random_tsp_instance

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ alone
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def originals():
    return {"certify_gap": certifier.certify_gap,
            "variance_of_costs": certifier.variance_of_costs,
            "stream": _rng.stream,
            "sample": spaces.PermutationSpace.__dict__["sample"],
            "enumerate": spaces.PermutationSpace.__dict__["enumerate"],
            "init": percentile.Problem.__init__}


def test_traced_certificate_on_an_enumerated_tour_problem(tracing):
    before = originals()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert certifier.certify_gap is not before["certify_gap"]
        problem = make_tsp_problem(random_tsp_instance(9, seed=3))
        exhaustive_min(problem)
        sol = percentile.percentile_solve(problem, 1000, seed=4)
        model = certifier.subsample_info(sol.info, 0.1, seed=5, problem=problem)
        cert = certifier.certify_gap(model, 139_257, 18 / 362_880, seed=6)
    finally:
        tracer.uninstall()
    assert originals() == before
    assert cert.v_star > 0.0 and problem.enumerated
    summary = tracer.summary()
    for layer in ("certifier.certify_gap", "certifier.variance", "rng.stream",
                  "spaces.sample", "problems.cost"):
        assert summary[layer]["calls"] >= 1, layer
    assert tracer.counts["certifier.variance.rows"] >= 1
