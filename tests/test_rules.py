"""One rule per value read from outside, applied by ``percentile.check``:
the experiment config, its oracle keys, the family certificate and the
library's arguments; and one table per family-certificate fact (oracle
methods, gap record columns)."""

import dataclasses
import json

import numpy as np
import pytest

from gapcert import DomainError, build_certificate, certify_gap, \
    confidence_of, min_samples, percentile_solve, subsample_info
from gapcert import experiments, repetitive
from gapcert.certifier import certificate_to_json, exceedance_probability
from gapcert.experiments import FIELD_RULES, ORACLE_RULES, ExperimentConfig, \
    uniform_gap_family
from gapcert.percentile import Rule
from gapcert.problems import make_benchmark
from gapcert.repetitive import CERTIFICATE_RULES, GapSample, OracleConfig, \
    RepetitiveCertificate, certificate_from_json

CERTIFICATE = RepetitiveCertificate(gamma_star=0.5, r=3, epsilon=0.1,
                                    confidence=0.271, n_p=2,
                                    family="uniform-gaps", seed=7)


class TestEveryFieldHasOneRule:
    """A new certificate field, config field or oracle key fails here until
    its rule is written into its table."""

    def test_certificate_fields(self):
        names = [f.name for f in dataclasses.fields(RepetitiveCertificate)]
        assert sorted(CERTIFICATE_RULES) == sorted(names)
        assert all(isinstance(r, Rule) for r in CERTIFICATE_RULES.values())

    def test_config_fields(self):
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        structural = {"experiment", "family", "oracle", "check"}
        assert set(FIELD_RULES) == names - structural
        assert all(isinstance(r, Rule) for r in FIELD_RULES.values())

    def test_oracle_keys(self):
        names = {f.name for f in dataclasses.fields(OracleConfig)}
        assert set(ORACLE_RULES) == names
        assert all(isinstance(r, Rule) for r in ORACLE_RULES.values())
        for key, value in (("method", "refine-min"), ("n0", 50),
                           ("gap_tolerance", 0.5)):
            ExperimentConfig.from_dict({"experiment": "mpc-fig4", "seed": 1,
                                        "oracle": {key: value}})


class TestEveryFactHasOneHome:
    """An oracle method or a gap record column is written once: a new
    method fails here until it is a row of ``repetitive.ORACLES``, and both
    gap experiments record the one ``GAP`` column list."""

    def test_oracle_methods_are_the_oracle_table(self):
        methods = {m for ms in experiments.ORACLE_METHODS.values() for m in ms}
        assert methods == set(repetitive.ORACLES)
        assert experiments.ORACLE_RULES is repetitive.ORACLE_RULES

    def test_gap_experiments_record_the_gap_columns(self):
        gap = experiments.GAP
        assert set(gap) <= {f.name for f in dataclasses.fields(GapSample)}
        columns = [experiments.RECORDS[e][0]
                   for e in experiments.GAP_EXPERIMENTS]
        assert len(columns) == 2
        for cols in columns:
            start = cols.index(gap[0])
            assert cols[start:start + len(gap)] == gap
        assert set(columns[0]) & set(columns[1]) == {"trial", *gap}


@pytest.mark.parametrize("key, value", [
    ("method", 3), ("method", None), ("n0", 2.5), ("n0", 0), ("n0", True),
    ("n0", "5"), ("n0", None), ("gap_tolerance", "1"),
    ("gap_tolerance", -1.0), ("gap_tolerance", float("nan")),
    ("gap_tolerance", float("inf")), ("gap_tolerance", True)])
def test_oracle_config_checks_its_fields(key, value):
    """A library-built OracleConfig meets ORACLE_RULES as a config's oracle
    keys do; before, a string tolerance raised a bare TypeError in ``gap``,
    a negative one made ``gap`` refuse a cost above the oracle value, an
    infinite one clamped every undercut to a zero gap, and n0 = 2.5 or
    method = 3 were accepted."""
    with pytest.raises(DomainError, match=f"^oracle.{key} must be "):
        OracleConfig(**{key: value})


def test_oracle_config_accepts_numpy_scalars():
    assert OracleConfig(method="declared", n0=np.int64(5),
                        gap_tolerance=np.float64(0.5)).tolerance == 0.5


class TestCertificateShape:
    @pytest.mark.parametrize("name", list(CERTIFICATE_RULES))
    def test_a_missing_field_is_named(self, name):
        raw = json.loads(certificate_to_json(CERTIFICATE))
        del raw[name]
        with pytest.raises(DomainError,
                           match=f"^certificate field {name} is missing$"):
            certificate_from_json(json.dumps(raw))

    def test_the_first_missing_field_is_named(self):
        with pytest.raises(DomainError, match="certificate field r is missing"):
            certificate_from_json('{"gamma_star": 1}')

    @pytest.mark.parametrize("text", ["[1]", "1", '"certificate"', "null",
                                      "true"])
    def test_not_an_object(self, text):
        with pytest.raises(DomainError,
                           match="a certificate must be an object, got"):
            certificate_from_json(text)

    def test_round_trip(self):
        text = certificate_to_json(CERTIFICATE)
        assert certificate_from_json(text) == CERTIFICATE
        # an integer stands for a float, and is stored as one
        cert = certificate_from_json(text.replace("0.5", "1"))
        assert cert.gamma_star == 1.0 and type(cert.gamma_star) is float


def _model():
    problem = make_benchmark("beale")
    return subsample_info(percentile_solve(problem, 20, 1).info, 0.5, 2,
                          problem=problem)


def _build(epsilon):
    return build_certificate(uniform_gap_family(), 2, 1, epsilon,
                             OracleConfig(method="declared"), 1)


@pytest.mark.parametrize("call, name", [
    (lambda v: confidence_of(v, 5), "epsilon"),
    (lambda v: min_samples(v, 0.9), "epsilon"),
    (lambda v: min_samples(0.1, v), "confidence"),
    (lambda v: certify_gap(_model(), 5, v, 3), "epsilon"),
    (lambda v: _build(v), "epsilon"),
    (lambda v: subsample_info(percentile_solve(make_benchmark("beale"), 5,
                                               1).info, v, 2), "chi")],
    ids=["confidence_of", "min_samples-epsilon", "min_samples-confidence",
         "certify_gap", "build_certificate", "subsample_info"])
@pytest.mark.parametrize("value", [True, False, "0.1", None, [0.1],
                                   float("nan"), 1.5, -0.1])
def test_probability_arguments_follow_the_rules(call, name, value):
    """A bool, a string or a number out of range is refused with a
    DomainError naming the argument; before, True counted as 1.0 and a
    string raised a bare TypeError."""
    with pytest.raises(DomainError, match=f"^{name} must be a number in "):
        call(value)


@pytest.mark.parametrize("call", [
    lambda: confidence_of(np.float64(0.1), np.int64(5)),
    lambda: min_samples(np.float32(0.5), 0.9),
    lambda: subsample_info(percentile_solve(make_benchmark("beale"), 5,
                                            1).info, np.float64(0.5), 2)])
def test_numpy_scalars_are_numbers(call):
    call()


@pytest.mark.parametrize("threshold", [True, False, "0.1", None, [0.1],
                                       float("nan"), -1.0])
def test_threshold_follows_its_rule(threshold):
    """A bool or a string threshold is refused like a negative one; before,
    True counted as 1 and "0.1" raised a bare TypeError."""
    with pytest.raises(DomainError, match="^threshold must be >= 0"):
        exceedance_probability(_model(), threshold, m=50, seed=1)


@pytest.mark.parametrize("threshold", [0, np.float64(0.5)])
def test_threshold_accepts_integers_and_numpy_scalars(threshold):
    assert 0.0 <= exceedance_probability(_model(), threshold, m=50,
                                         seed=1) <= 1.0
