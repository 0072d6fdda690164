"""Gap random variables, amortized certificates, and coverage validation."""

import dataclasses
import math

import numpy as np
import pytest

from gapcert import DomainError, Problem, _rng, percentile_solve
from gapcert.certifier import certificate_to_json
from gapcert.experiments import uniform_gap_family
from gapcert.oracles import OracleError
from gapcert.repetitive import (
    GapSample,
    OracleConfig,
    ProblemFamily,
    RepetitiveCertificate,
    build_certificate,
    certificate_from_json,
    certificate_from_samples,
    iter_gap_samples,
    sample_gap,
    sample_gaps,
    validate_coverage,
)
from gapcert.problems import make_tsp_family, make_tsp_problem, random_tsp_instance
from gapcert.spaces import BoxSpace


def constant_family(c=4.0):
    def build(instance_seed):
        return Problem(space=BoxSpace([0.0], [1.0]),
                       batch_cost=lambda d: np.full(len(d), c),
                       declared_optimum=c)
    return ProblemFamily(build=build, description="constant")


DECLARED = OracleConfig(method="declared")


class TestSampleGap:
    def test_constant_family_zero_gap(self):
        family = constant_family()
        for seed in range(5):
            s = sample_gap(family, n_p=3, oracle_cfg=DECLARED, seed=seed)
            assert s.gamma == 0.0
            assert s.oracle_method == "declared"

    def test_replayable_instance_seed(self):
        family = uniform_gap_family()
        s = sample_gap(family, n_p=1, oracle_cfg=DECLARED, seed=42)
        replay = family.instance(s.instance_seed)
        assert replay.evaluate([0.5]) == s.solution_cost

    def test_saturated_tsp_family_hits_exact_optimum(self):
        # one fixed 6-waypoint instance, oversampled far beyond 720 tours
        inst = random_tsp_instance(6, seed=33)
        family = ProblemFamily(build=lambda s: make_tsp_problem(inst),
                               description="fixed-tsp-6")
        cfg = OracleConfig(method="exhaustive")
        s = sample_gap(family, n_p=7200, oracle_cfg=cfg, seed=3)
        assert s.gamma == 0.0
        assert s.oracle_method == "exhaustive"

    def test_gap_never_negative(self):
        family = make_tsp_family(5)
        cfg = OracleConfig(method="exhaustive")
        for seed in range(8):
            s = sample_gap(family, n_p=10, oracle_cfg=cfg, seed=seed)
            assert s.gamma >= 0.0

    def test_broken_oracle_detected(self):
        # declared optimum above every achievable cost: gap < -tolerance
        def build(instance_seed):
            return Problem(space=BoxSpace([0.0], [1.0]),
                           batch_cost=lambda d: np.ones(len(d)),
                           declared_optimum=5.0)
        family = ProblemFamily(build=build, description="broken")
        with pytest.raises(OracleError) as err:
            sample_gap(family, n_p=2, oracle_cfg=DECLARED, seed=1)
        assert "instance seed" in str(err.value)

    def test_small_undershoot_clamps_to_zero(self):
        def build(instance_seed):
            return Problem(space=BoxSpace([0.0], [1.0]),
                           batch_cost=lambda d: np.ones(len(d)),
                           declared_optimum=1.0 + 1e-12)
        family = ProblemFamily(build=build, description="jitter")
        cfg = OracleConfig(method="declared", gap_tolerance=1e-9)
        s = sample_gap(family, n_p=2, oracle_cfg=cfg, seed=1)
        assert s.gamma == 0.0

    def test_gap_sample_rejects_negative_construction(self):
        with pytest.raises(ValueError):
            GapSample(gamma=-0.5, instance_seed=1, solution_cost=1.0,
                      oracle_value=1.5, oracle_method="declared")


class TestCertificates:
    def test_gamma_star_is_exact_maximum(self):
        family = uniform_gap_family()
        samples = sample_gaps(family, r=40, n_p=1, oracle_cfg=DECLARED, seed=5)
        cert = certificate_from_samples([s.gamma for s in samples],
                                        epsilon=0.05, n_p=1,
                                        family="uniform-gaps", seed=5)
        assert cert.gamma_star == max(s.gamma for s in samples)
        assert cert.confidence == pytest.approx(1 - 0.95**40)

    def test_adding_samples_never_decreases_gamma_star(self):
        family = uniform_gap_family()
        samples = sample_gaps(family, r=60, n_p=1, oracle_cfg=DECLARED, seed=8)
        prefix_max = -math.inf
        for k in range(1, 61):
            cert = certificate_from_samples([s.gamma for s in samples[:k]],
                                            0.01, 1, "u", 8)
            assert cert.gamma_star >= prefix_max
            prefix_max = cert.gamma_star

    def test_constant_family_certificate(self):
        cert = build_certificate(constant_family(), r=20, n_p=2, epsilon=0.1,
                                 oracle_cfg=DECLARED, seed=2)
        assert cert.gamma_star == 0.0
        assert cert.r == 20

    def test_paper_scale_parameters(self):
        family = uniform_gap_family()
        cert = build_certificate(family, r=459, n_p=1, epsilon=0.01,
                                 oracle_cfg=DECLARED, seed=11)
        assert cert.confidence >= 0.99
        assert 0.0 <= cert.gamma_star <= 1.0

    def test_deterministic(self):
        family = uniform_gap_family()
        a = build_certificate(family, 25, 1, 0.05, DECLARED, seed=4)
        b = build_certificate(family, 25, 1, 0.05, DECLARED, seed=4)
        assert a == b

    def test_json_roundtrip(self):
        cert = RepetitiveCertificate(gamma_star=0.25, r=10, epsilon=0.1,
                                     confidence=0.65, n_p=3, family="f", seed=1)
        assert certificate_from_json(certificate_to_json(cert)) == cert



class TestValidateCoverage:
    def test_constant_family_full_coverage(self):
        family = constant_family()
        cert = build_certificate(family, 10, 2, 0.1, DECLARED, seed=3)
        assert validate_coverage(family, cert, m=30, n_p=2,
                                 oracle_cfg=DECLARED, seed=9) == 1.0

    def test_infinite_sentinel_is_vacuous(self):
        family = uniform_gap_family()
        cert = RepetitiveCertificate(gamma_star=math.inf, r=1, epsilon=0.5,
                                     confidence=0.5, n_p=1,
                                     family="uniform-gaps", seed=0)
        assert validate_coverage(family, cert, m=50, n_p=1,
                                 oracle_cfg=DECLARED, seed=1) == 1.0

    def test_coverage_matches_known_quantile(self):
        # gaps are exactly Uniform(0,1): coverage of a bound g is g itself
        family = uniform_gap_family()
        cert = RepetitiveCertificate(gamma_star=0.8, r=1, epsilon=0.5,
                                     confidence=0.5, n_p=1,
                                     family="uniform-gaps", seed=0)
        cov = validate_coverage(family, cert, m=4000, n_p=1,
                                oracle_cfg=DECLARED, seed=13)
        assert cov == pytest.approx(0.8, abs=0.03)


    def test_a_gap_equal_to_gamma_star_is_covered(self):
        family = uniform_gap_family()
        # the certificate is the largest of the very gaps it then validates
        gaps = [s.gamma for _, s in iter_gap_samples(
            family, 1, DECLARED, 4, _rng.VALIDATE, range(6))]
        cert = certificate_from_samples(gaps, 0.5, 1, "uniform-gaps", seed=4)
        assert cert.covers(cert.gamma_star) and cert.covers(0.0)
        assert not cert.covers(math.nextafter(cert.gamma_star, math.inf))
        below = dataclasses.replace(
            cert, gamma_star=math.nextafter(cert.gamma_star, 0.0))
        assert not below.covers(cert.gamma_star)
        assert validate_coverage(family, cert, m=6, n_p=1, oracle_cfg=DECLARED,
                                 seed=4) == 1.0
        assert validate_coverage(family, below, m=6, n_p=1,
                                 oracle_cfg=DECLARED, seed=4) == 5 / 6

    @pytest.mark.parametrize("family, oracle, n_p, cert_family, cert_n_p", [
        (make_tsp_family(5), OracleConfig(method="exhaustive"), 2,
         "mpc-waypoint", 999),
        (uniform_gap_family(), DECLARED, 1, "constant", 1),
        (uniform_gap_family(), DECLARED, 1, "uniform-gaps", 2)],
        ids=["tsp-5-vs-mpc-waypoint", "another-family", "another-n_p"])
    def test_a_certificate_of_another_run_is_refused(
            self, family, oracle, n_p, cert_family, cert_n_p):
        """The certificate bounds its own family at its own n_p only; the
        first case used to read coverage 1.0."""
        cert = RepetitiveCertificate(gamma_star=1e9, r=1, epsilon=0.5,
                                     confidence=0.5, n_p=cert_n_p,
                                     family=cert_family, seed=0)
        with pytest.raises(DomainError, match=(
                f"holds family '{cert_family}' at n_p={cert_n_p}, but this "
                f"run samples family '{family.description}' at n_p={n_p}$")):
            validate_coverage(family, cert, m=3, n_p=n_p, oracle_cfg=oracle,
                              seed=1)


def test_known_quantile_coverage_consistency_small_scale():
    """Certificates built at (r, eps) cover the 1-eps quantile with empirical
    frequency at least their confidence (desk-scale order-statistics check;
    the full version is an acceptance criterion)."""
    family = uniform_gap_family()
    r, eps = 90, 0.05
    confidence = 1 - (1 - eps) ** r  # ~0.99
    hits = 0
    builds = 80
    for k in range(builds):
        cert = build_certificate(family, r, 1, eps, DECLARED, seed=1000 + k)
        hits += cert.gamma_star >= 1 - eps
    slack = 3 * math.sqrt(confidence * (1 - confidence) / builds)
    assert hits / builds >= confidence - slack


def test_sample_gaps_validates_r():
    with pytest.raises(DomainError):
        sample_gaps(uniform_gap_family(), r=0, n_p=1, oracle_cfg=DECLARED, seed=1)


@pytest.mark.parametrize("r", [2.5, 2.0, True, np.float64(3.0)])
def test_sample_gaps_refuses_a_non_integer_r(r):
    # 2.5 used to end in a bare TypeError from range
    with pytest.raises(DomainError, match="r must"):
        sample_gaps(uniform_gap_family(), r=r, n_p=1, oracle_cfg=DECLARED, seed=1)


@pytest.mark.parametrize("n_p", [0, 2.7, True])
def test_sample_gap_refuses_a_bad_n_p(n_p):
    family = uniform_gap_family()
    with pytest.raises(DomainError) as want:
        percentile_solve(family.instance(1), n_p, 1)
    with pytest.raises(DomainError) as got:
        sample_gap(family, n_p=n_p, oracle_cfg=DECLARED, seed=1)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("m", [0, 2.5, 2.0, True, np.float64(3.0)])
def test_validate_coverage_refuses_a_bad_m(m):
    cert = RepetitiveCertificate(gamma_star=0.8, r=1, epsilon=0.5,
                                 confidence=0.5, n_p=1,
                                 family="uniform-gaps", seed=0)
    with pytest.raises(DomainError, match="m must"):
        validate_coverage(uniform_gap_family(), cert, m=m, n_p=1,
                          oracle_cfg=DECLARED, seed=1)


class TestOracleTolerance:
    @pytest.mark.parametrize("method, tolerance", [
        ("exhaustive", 1e-9), ("refine-min", 1e-6), ("declared", 0.0),
        ("no-such-method", 0.0)])
    def test_method_default(self, method, tolerance):
        assert OracleConfig(method=method).tolerance == tolerance

    @pytest.mark.parametrize("method", ["exhaustive", "refine-min", "declared",
                                        "no-such-method"])
    def test_set_tolerance_wins(self, method):
        assert OracleConfig(method=method, gap_tolerance=0.25).tolerance == 0.25
        assert OracleConfig(method=method, gap_tolerance=0.0).tolerance == 0.0


def test_sample_gaps_names_the_undercut_instance():
    """The second instance's declared optimum lies above every cost: the
    OracleError names that instance's seed."""
    bad = _rng.child_seed(_rng.child_seed(1, _rng.FAMILY, 1), _rng.GAP_INSTANCE)

    def build(instance_seed):
        return Problem(space=BoxSpace([0.0], [1.0]),
                       batch_cost=lambda d: np.ones(len(d)),
                       declared_optimum=5.0 if instance_seed == bad else 1.0)

    family = ProblemFamily(build=build, description="second-broken")
    with pytest.raises(OracleError, match=f"instance seed {bad} "):
        sample_gaps(family, r=3, n_p=2, oracle_cfg=DECLARED, seed=1)
