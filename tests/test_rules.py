"""One rule per value read from outside, applied by ``percentile.check``:
the experiment config, its oracle keys, the family certificate and the
library's arguments."""

import dataclasses
import json

import numpy as np
import pytest

from gapcert import DomainError, build_certificate, certify_gap, \
    confidence_of, min_samples, percentile_solve, subsample_info
from gapcert.certifier import certificate_to_json
from gapcert.experiments import FIELD_RULES, ORACLE_RULES, ExperimentConfig, \
    uniform_gap_family
from gapcert.percentile import Rule
from gapcert.problems import make_benchmark
from gapcert.repetitive import CERTIFICATE_RULES, OracleConfig, \
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
