"""Experiment configs, pipelines, artifacts, reproducibility, and the CLI."""

import dataclasses
import itertools
import json
import os
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gapcert import OracleConfig, OracleError, OracleResult, _rng, \
    exhaustive_min
from gapcert.certifier import certificate_to_json
from gapcert.cli import main
from gapcert.experiments import READS, RECORDS, ConfigError, \
    ExperimentConfig, RunReport, _RecordSink, apply_check, run
from gapcert.problems import make_benchmark, make_tsp_family, \
    make_tsp_problem, random_tsp_instance, read_tsp_instance, \
    write_tsp_instance
from gapcert.repetitive import certificate_from_json, iter_gap_samples, \
    validate_coverage
from gapcert.spaces import PermutationSpace, TourSpace


def forbid_enumeration(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("enumeration started beyond the limit")

    monkeypatch.setattr(PermutationSpace, "enumerate", never)


BAD_VALUES = [
    ("epsilon", 0.0), ("chi", 2.0), ("chis", [0.5, 0.0]), ("chis", [1.5]),
    ("n_p_list", [200, 0]), ("m_validate", -1),
    ("n_p", "abc"), ("n_p", 2.7), ("n_p", True), ("n_v", 3.0), ("r", None),
    ("trials", "5"), ("mc_samples", False), ("m_validate", 1.5),
    ("seed", 2.7), ("seed", True), ("seed", "7"), ("n_p_list", [200, 2.5]),
    ("n_p_list", 300), ("epsilon", "0.1"), ("epsilon", True), ("chi", None),
    ("confidence", "high"), ("chis", ["0.1"]), ("chis", 0.1),
    ("tsp_random", 1), ("tsp_random", 2.5), ("family", "tsp:1"),
    ("family", "tsp:x"), ("family", "tsp:"), ("family", "mcp"),
    ("oracle", {"method": "exhuastive"}), ("oracle", {"n0": 2.5}),
    ("oracle", {"nzero": 2000}), ("oracle", {"gap_tolerance": "1"}),
    ("oracle", [2000]), ("out_dir", None), ("certificate", 3),
    ("tsp_file", "a.tsp"), ("check", {"v_star": 1.0}),
    ("check", {"v_star_max": True}), ("check", {"v_star_min": float("nan")}),
    ("check", None), ("oracle", []), ("oracle", None), ("oracle", False),
    ("oracle", 0), ("oracle", ""), ("n_p_list", []), ("chis", []),
]

# A valid value of every field that an experiment may leave unread, and an
# otherwise valid config of each experiment
VALID = {"benchmark": "beale", "tsp_file": "tour.json", "tsp_random": 5,
         "family": "uniform-gaps", "n_p": 5, "n_v": 5, "epsilon": 0.1,
         "chi": 0.5, "trials": 2, "r": 2, "confidence": 0.9,
         "n_p_list": [2], "m_validate": 2, "chis": [0.5], "mc_samples": 10,
         "oracle": {}, "certificate": "certificate.json"}
BASE = {"solve": {"benchmark": "beale"}, "certify": {"benchmark": "beale"},
        "chi-sweep": {"benchmark": "beale"}, "table1": {},
        "tsp-fig2": {"tsp_random": 5}, "mpc-fig4": {},
        "validate": {"m_validate": 2}}
UNREAD = [(experiment, field) for experiment, reads in READS.items()
          for field in VALID if field not in reads]


class TestConfig:
    def test_requires_experiment_and_seed(self):
        with pytest.raises(ConfigError, match="experiment"):
            ExperimentConfig.from_dict({"seed": 1})
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_dict({"experiment": "solve"})

    def test_unknown_fields_named(self):
        with pytest.raises(ConfigError, match="n_pp"):
            ExperimentConfig.from_dict({"experiment": "solve", "seed": 1,
                                        "n_pp": 4})

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            ExperimentConfig.from_dict({"experiment": "frobnicate", "seed": 1})

    def test_problem_selector_required(self):
        with pytest.raises(ConfigError, match="problem"):
            ExperimentConfig.from_dict({"experiment": "solve", "seed": 1})
        ExperimentConfig.from_dict({"experiment": "solve", "seed": 1,
                                    "benchmark": "beale"})

    def test_range_checks(self):
        # wrong types are refused, never truncated or coerced
        for field, value in BAD_VALUES:
            with pytest.raises(ConfigError, match=field) as refused:
                ExperimentConfig.from_dict({"experiment": "chi-sweep",
                                            "seed": 1, "benchmark": "beale",
                                            field: value})
            # refused by the field's own check, before the unread-field rule
            assert "does not read" not in str(refused.value), field

    def test_oracle_types_checked_before_the_method(self):
        with pytest.raises(ConfigError, match="oracle.n0 must be an integer"):
            ExperimentConfig.from_dict({"experiment": "mpc-fig4", "seed": 1,
                                        "oracle": {"method": "declared",
                                                   "n0": "x"}})

    def test_tsp_fig2_refuses_a_continuous_problem(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="tsp_file.*tsp_random"):
            run({"experiment": "tsp-fig2", "seed": 1, "benchmark": "beale",
                 "out_dir": str(out)})
        assert not out.exists()

    def test_unknown_benchmark(self):
        with pytest.raises(ConfigError, match="benchmark"):
            ExperimentConfig.from_dict({"experiment": "solve", "seed": 1,
                                        "benchmark": "nope"})

    def test_reads_covers_every_settable_field(self):
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set().union(*READS.values()) == set(VALID) == \
            fields - {"experiment", "seed", "out_dir", "check"}
        for experiment, extra in BASE.items():
            ExperimentConfig.from_dict({"experiment": experiment, "seed": 1,
                                        **extra})

    def test_readme_configs_are_valid(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(
            encoding="utf-8")
        blocks = re.findall(r"cat > (\S+\.json) <<'EOF'\n(.*?)\nEOF\n"
                            r"gapcert (\S+) --config \1", readme, re.S)
        assert len(blocks) == readme.count("<<'EOF'") > 0
        for _, text, experiment in blocks:
            ExperimentConfig.from_dict({**json.loads(text),
                                        "experiment": experiment})
        table = re.findall(r"^\| `([a-z0-9-]+)` \| (`.*`) \|$", readme, re.M)
        assert {e: tuple(re.findall(r"`(\w+)`", fields))
                for e, fields in table if e in READS} == READS


class TestSolveAndCertify:
    def test_single_sample_report(self, tmp_path):
        report = run({"experiment": "solve", "seed": 3, "benchmark":
                      "rastrigrin2", "n_p": 1, "out_dir": str(tmp_path)})
        assert len(report.records) == 1
        assert (tmp_path / "infoset.csv").exists()
        assert (tmp_path / "report.json").exists()
        assert report.summary["best_cost"] == report.records[0]["cost"]
        assert report.version

    def test_certify_artifacts(self, tmp_path):
        report = run({"experiment": "certify", "seed": 5,
                      "benchmark": "beale", "n_p": 100, "n_v": 50,
                      "epsilon": 0.05, "out_dir": str(tmp_path)})
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["v_star"] >= 0
        assert report.summary["v_star"] == cert["v_star"]
        lo, hi = report.summary["optimum_interval"]
        assert lo <= hi == report.summary["solution_cost"]


class TestTable1:
    def test_small_run(self, tmp_path):
        report = run({"experiment": "table1", "seed": 9, "trials": 4,
                      "n_p": 60, "n_v": 60, "benchmark": "beale",
                      "oracle": {"n0": 2000}, "out_dir": str(tmp_path)})
        table = (tmp_path / "table1.csv").read_text().splitlines()
        assert table[0].startswith("name,n_p,n_v,expected_success")
        assert len(table) == 2
        assert "beale" in report.summary["benchmarks"]
        frac = report.summary["benchmarks"]["beale"]["success_fraction"]
        assert 0.0 <= frac <= 1.0
        assert len(report.records) == 4

    def test_undercut_oracle_raises(self, tmp_path, monkeypatch):
        """A solution below the ground truth means a broken oracle: the run
        stops, as gap sampling does, and records no success."""
        def broken(self, problem, seed):
            return OracleResult(1e6, np.zeros(2), self.method, 0)

        monkeypatch.setattr(OracleConfig, "run", broken)
        with pytest.raises(OracleError, match="undercuts.*beale trial 0"):
            run({"experiment": "table1", "seed": 9, "trials": 2, "n_p": 20,
                 "n_v": 20, "benchmark": "beale", "out_dir": str(tmp_path)})


class TestTspFig2:
    def test_pipeline_and_plots(self, tmp_path):
        report = run({"experiment": "tsp-fig2", "seed": 2, "tsp_random": 6,
                      "n_p": 120, "trials": 12, "confidence": 0.9,
                      "out_dir": str(tmp_path)})
        assert len(report.records) == 12
        bound = (tmp_path / "bound_vs_gap.csv").read_text().splitlines()
        assert bound[0] == "trial,v_star,true_gap"
        # bound_vs_gap follows records.csv (string order: "10" before "2");
        # the running fraction accumulates in trial order
        trials = [str(i) for i in range(12)]
        assert [line.split(",")[0] for line in bound[1:]] == sorted(trials)
        running = (tmp_path / "running_fraction.csv").read_text().splitlines()
        assert running[0] == "trial,fraction"
        assert [line.split(",")[0] for line in running[1:]] == trials
        assert float(running[-1].split(",")[1]) == \
            report.summary["success_fraction"]
        assert 0.0 <= report.summary["success_fraction"] <= 1.0

    def test_tsp_file_selector(self, tmp_path, monkeypatch):
        inst = random_tsp_instance(5, seed=1)
        write_tsp_instance(inst, tmp_path / "inst.json")
        reads = []

        def counted(path):
            reads.append(path)
            return read_tsp_instance(path)

        monkeypatch.setattr("gapcert.experiments.read_tsp_instance", counted)
        report = run({"experiment": "tsp-fig2", "seed": 4,
                      "tsp_file": str(tmp_path / "inst.json"),
                      "n_p": 60, "trials": 3, "out_dir": str(tmp_path / "out")})
        assert report.summary["problem"] == "tsp-5"
        assert len(reads) == 1  # validation builds it; the run reuses it

    @pytest.mark.parametrize("experiment", ["tsp-fig2", "chi-sweep"])
    def test_enumeration_limit_checked_before_enumerating(
            self, tmp_path, monkeypatch, experiment):
        forbid_enumeration(monkeypatch)
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="tsp_random 11.*enumeration "
                                              "limit"):
            run({"experiment": experiment, "seed": 1, "tsp_random": 11,
                 "n_p": 10, "trials": 1, "out_dir": str(out)})
        assert not out.exists()


class TestMpcFig4:
    def test_small_run_with_validation(self, tmp_path):
        report = run({"experiment": "mpc-fig4", "seed": 6, "r": 6,
                      "n_p_list": [40], "m_validate": 6,
                      "oracle": {"n0": 150}, "out_dir": str(tmp_path)})
        cert = json.loads((tmp_path / "certificate_np40.json").read_text())
        assert cert["r"] == 6
        assert (tmp_path / "fig4_markers.csv").exists()
        header, *rows = (tmp_path / "fig4_hist_np40.csv").read_text().splitlines()
        assert header == "bin_left,bin_right,count" and len(rows) == 40
        for row in rows:  # plain numbers, not numpy reprs
            left, right, count = row.split(",")
            assert float(left) < float(right) and int(count) >= 0
        cov = report.summary["by_n_p"]["40"]["coverage"]
        assert cov is not None and 0.0 <= cov <= 1.0

    def test_uniform_gap_family_runs(self, tmp_path):
        report = run({"experiment": "mpc-fig4", "seed": 1, "r": 30,
                      "family": "uniform-gaps", "n_p_list": [1],
                      "epsilon": 0.05, "out_dir": str(tmp_path)})
        g = report.summary["by_n_p"]["1"]["gamma_star"]
        assert 0.0 <= g <= 1.0

    def test_covers_a_gap_equal_to_gamma_star(self, tmp_path):
        # at n_p = 60 every tsp-5 solve finds its optimum: all gaps are 0.0
        report = run({"experiment": "mpc-fig4", "seed": 1, "family": "tsp:5",
                      "r": 5, "n_p_list": [60], "m_validate": 10,
                      "out_dir": str(tmp_path)})
        assert report.summary["by_n_p"]["60"]["gamma_star"] == 0.0
        assert report.summary["coverage"] == {"60": 1.0}


class TestChiSweep:
    def test_exact_mode_on_small_tour_problem(self, tmp_path):
        report = run({"experiment": "chi-sweep", "seed": 7, "tsp_random": 5,
                      "n_p": 60, "trials": 4, "chis": [0.05, 0.5, 1.0],
                      "out_dir": str(tmp_path)})
        assert report.summary["mode"] == "exact"
        mean_p = report.summary["mean_p_by_chi"]
        assert set(mean_p) == {0.05, 0.5, 1.0}
        assert all(0.0 <= p <= 1.0 for p in mean_p.values())
        lines = (tmp_path / "chi_p.csv").read_text().splitlines()
        assert lines[0] == "chi,mean_p" and len(lines) == 4
        # shrinking the retained subset can only raise variances, hence p
        assert mean_p[0.05] >= mean_p[1.0]

    def test_exact_mode_enumerates_once_per_run(self, tmp_path, monkeypatch):
        truth = exhaustive_min(make_tsp_problem(random_tsp_instance(5, 7)))
        calls = []
        enumerate_ = TourSpace.enumerate_canonical

        def counted(space, *args, **kwargs):
            calls.append(space.n_items)
            return enumerate_(space, *args, **kwargs)

        monkeypatch.setattr(TourSpace, "enumerate_canonical", counted)
        for experiment, key, extra in (
                ("chi-sweep", "oracle_value", {"chis": [0.05, 0.5, 1.0]}),
                ("tsp-fig2", "true_optimum", {})):
            calls.clear()
            summary = run({"experiment": experiment, "seed": 7,
                           "tsp_random": 5, "n_p": 60, "trials": 4, **extra,
                           "out_dir": str(tmp_path / experiment)}).summary
            # the ground truth and the exact fractions share one pass
            assert len(calls) == 1, experiment
            assert summary[key] == truth.value

    def test_monte_carlo_mode_on_benchmark(self, tmp_path):
        report = run({"experiment": "chi-sweep", "seed": 2,
                      "benchmark": "beale", "n_p": 50, "trials": 2,
                      "chis": [0.1, 1.0], "mc_samples": 400,
                      "oracle": {"n0": 500}, "out_dir": str(tmp_path)})
        assert report.summary["mode"] == "monte-carlo(400)"
        assert report.summary["oracle_value"] == pytest.approx(0.0, abs=1e-3)


    def test_trial_seeds_derived_once_per_trial(self, tmp_path, monkeypatch):
        tags = []
        child_seed = _rng.child_seed

        def counted(seed, *path):
            tags.append(path[0])
            return child_seed(seed, *path)

        monkeypatch.setattr(_rng, "child_seed", counted)
        run({"experiment": "chi-sweep", "seed": 3, "benchmark": "beale",
             "n_p": 40, "trials": 5, "mc_samples": 100, "oracle": {"n0": 200},
             "out_dir": str(tmp_path)})
        for tag in (_rng.CHI_SWEEP_SOLVE, _rng.CHI_SWEEP_SUBSAMPLE,
                    _rng.CHI_SWEEP_EXCEEDANCE):
            assert tags.count(tag) == 5, tag

class TestValidate:
    def test_validates_against_stored_certificate(self, tmp_path):
        fig4 = run({"experiment": "mpc-fig4", "seed": 21, "r": 5,
                    "n_p_list": [30], "oracle": {"n0": 100},
                    "out_dir": str(tmp_path / "fig4")})
        report = run({"experiment": "validate", "seed": 22, "family": "mpc",
                      "n_p": 30, "m_validate": 8, "oracle": {"n0": 100},
                      "certificate": str(tmp_path / "fig4" /
                                         "certificate_np30.json"),
                      "out_dir": str(tmp_path / "val")})
        assert report.summary["gamma_star"] == \
            fig4.summary["by_n_p"]["30"]["gamma_star"]
        assert 0.0 <= report.summary["coverage"] <= 1.0
        assert len(report.records) == 8

    @staticmethod
    def uniform_certificate(tmp_path):
        run({"experiment": "mpc-fig4", "seed": 3, "family": "uniform-gaps",
             "r": 5, "n_p_list": [2], "out_dir": str(tmp_path / "fig4")})
        return str(tmp_path / "fig4" / "certificate_np2.json")

    def test_certificate_n_p_mismatch_is_config_error(self, tmp_path):
        cert = self.uniform_certificate(tmp_path)
        with pytest.raises(ConfigError, match="n_p=2.*n_p=3"):
            run({"experiment": "validate", "seed": 1, "family": "uniform-gaps",
                 "n_p": 3, "m_validate": 2, "certificate": cert,
                 "out_dir": str(tmp_path / "val")})

    def test_certificate_family_mismatch_is_config_error(self, tmp_path):
        cert = self.uniform_certificate(tmp_path)
        with pytest.raises(ConfigError,
                           match="'uniform-gaps'.*'tsp-5-uniform'"):
            run({"experiment": "validate", "seed": 1, "family": "tsp:5",
                 "n_p": 2, "m_validate": 2, "certificate": cert,
                 "out_dir": str(tmp_path / "val")})

    def test_validate_needs_m_validate(self, tmp_path, capsys):
        cfg = tmp_path / "validate.json"
        cfg.write_text(json.dumps({
            "seed": 1, "family": "uniform-gaps", "n_p": 2,
            "certificate": self.uniform_certificate(tmp_path),
            "out_dir": str(tmp_path / "val")}))
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "config error: m_validate must be an integer >= 1" in \
            capsys.readouterr().err
        assert not (tmp_path / "val").exists()

    def test_missing_certificate_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="certificate"):
            run({"experiment": "validate", "seed": 1, "family": "uniform-gaps",
                 "n_p": 1, "m_validate": 2, "out_dir": str(tmp_path)})

    def test_coverage_paths_agree_exactly(self, tmp_path):
        # mpc-fig4's validation phase, a validate run and validate_coverage
        # decide coverage by one rule and give the same rate, bit for bit
        fig4 = run({"experiment": "mpc-fig4", "seed": 3, "r": 5,
                    "family": "uniform-gaps", "n_p_list": [2],
                    "m_validate": 40, "out_dir": str(tmp_path / "fig4")})
        cert = certificate_from_json((tmp_path / "fig4" / "certificate_np2.json")
                                     .read_text(encoding="utf-8"))
        family, oracle = fig4.config.problem_family, fig4.config.oracle_config
        coverage = fig4.summary["by_n_p"]["2"]["coverage"]
        assert 0.0 < coverage < 1.0
        assert coverage == validate_coverage(
            family, cert, 40, 2, oracle,
            seed=_rng.child_seed(3, _rng.MPC_FIG4_BASE, 2))
        # validate's bound is the 21st smallest of its own 40 gaps, which
        # counts as covered
        gaps = sorted(s.gamma for _, s in iter_gap_samples(
            family, 2, oracle, 8, _rng.VALIDATE, range(40)))
        path = tmp_path / "certificate.json"
        path.write_text(certificate_to_json(
            dataclasses.replace(cert, gamma_star=gaps[20])), encoding="utf-8")
        val = run({"experiment": "validate", "seed": 8, "n_p": 2,
                   "family": "uniform-gaps", "m_validate": 40,
                   "certificate": str(path), "out_dir": str(tmp_path / "val")})
        cert = certificate_from_json(path.read_text(encoding="utf-8"))
        assert val.summary["coverage"] == validate_coverage(
            family, cert, 40, 2, oracle, seed=8) == 21 / 40


class TestReproducibilityAndResume:
    def test_rerun_is_byte_identical(self, tmp_path):
        cert = tmp_path / "a" / "mpc-fig4" / "certificate_np2.json"
        cases = [
            ({"experiment": "tsp-fig2", "seed": 11, "tsp_random": 5,
              "n_p": 50, "trials": 12},
             ("records.csv", "bound_vs_gap.csv", "running_fraction.csv")),
            ({"experiment": "chi-sweep", "seed": 15, "tsp_random": 5,
              "n_p": 40, "trials": 3, "chis": [0.1, 1.0]},
             ("records.csv", "chi_p.csv")),
            ({"experiment": "mpc-fig4", "seed": 12, "family": "uniform-gaps",
              "r": 20, "n_p_list": [2], "m_validate": 10},
             ("records.csv", "certificate_np2.json", "fig4_markers.csv",
              "fig4_hist_np2.csv")),
            ({"experiment": "validate", "seed": 13, "family": "uniform-gaps",
              "n_p": 2, "m_validate": 10, "certificate": str(cert)},
             ("records.csv",)),
        ]
        for cfg, names in cases:
            for side in "ab":
                run({**cfg, "out_dir": str(tmp_path / side / cfg["experiment"])})
            for name in names:
                assert (tmp_path / "a" / cfg["experiment"] / name).read_bytes() \
                    == (tmp_path / "b" / cfg["experiment"] / name).read_bytes()

    def test_resume_skips_completed_trials(self, tmp_path, monkeypatch):
        cfg = {"experiment": "table1", "seed": 13, "trials": 6, "n_p": 40,
               "n_v": 40, "benchmark": "himmelblau", "oracle": {"n0": 500},
               "out_dir": str(tmp_path)}
        full = run(cfg)
        # simulate an interrupted run: keep only the first 3 flushed records
        partial = (tmp_path / "records.csv").read_text().splitlines()
        (tmp_path / "records.partial.csv").write_text(
            "\n".join(partial[:4]) + "\n", encoding="utf-8")
        (tmp_path / "records.csv").unlink()
        import gapcert.repetitive  # noqa: F401  (import anchor)
        import gapcert.experiments as exp
        calls = {"n": 0}
        original = exp.percentile_solve

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(exp, "percentile_solve", counting)
        resumed = run(cfg)
        assert calls["n"] == 3  # only the missing trials were recomputed
        strip = lambda recs: [{k: v for k, v in r.items() if k != "certify_ms"}
                              for r in recs]
        assert strip(resumed.records) == strip(full.records)

    def test_resume_skips_completed_gap_samples(self, tmp_path, monkeypatch):
        cfg = {"experiment": "mpc-fig4", "seed": 14, "family": "uniform-gaps",
               "r": 30, "n_p_list": [1, 2], "m_validate": 20,
               "out_dir": str(tmp_path)}
        run(cfg)
        fresh = {name: (tmp_path / name).read_bytes() for name in
                 ("records.csv", "certificate_np1.json", "certificate_np2.json")}
        # simulate an interrupted run: keep 40 of the 100 flushed records
        lines = fresh["records.csv"].decode().splitlines()
        (tmp_path / "records.partial.csv").write_text(
            "\n".join(lines[:41]) + "\n", encoding="utf-8")
        (tmp_path / "records.csv").unlink()
        import gapcert.repetitive as rep
        calls = {"n": 0}
        original = rep.sample_gap

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(rep, "sample_gap", counting)
        run(cfg)
        assert calls["n"] == 60  # only the missing samples were recomputed
        for name, data in fresh.items():
            assert (tmp_path / name).read_bytes() == data

    def test_resume_after_a_torn_last_row(self, tmp_path):
        """A crash mid-row leaves a torn last line.  Resuming cuts it off,
        redoes that row, and writes the fresh run's bytes."""
        cfg = {"experiment": "chi-sweep", "seed": 4, "benchmark": "beale",
               "n_p": 50, "trials": 2, "chis": [0.5], "mc_samples": 200,
               "out_dir": "runs"}
        fresh, resumed = tmp_path / "fresh", tmp_path / "resumed"
        run(cfg, out_dir=fresh)
        expected = (fresh / "records.csv").read_text(encoding="utf-8")
        complete = expected[:expected.rstrip("\n").rfind("\n") + 1]

        def crash(cut: int) -> None:
            resumed.mkdir(exist_ok=True)
            (resumed / "config.json").write_bytes((fresh / "config.json").read_bytes())
            (resumed / "records.partial.csv").write_text(
                expected[:len(expected) - 1 - cut], encoding="utf-8")

        # every comma present but the last field cut short; a bare fragment
        for cut in (3, len(expected) - len(complete) - 3):
            crash(cut)
            run(cfg, out_dir=resumed)
            assert (resumed / "records.csv").read_text(encoding="utf-8") == expected
            crash(cut)
            sink = _RecordSink(resumed, ExperimentConfig.from_dict(cfg),
                               ["trial", "chi", "gap", "p"], ["trial", "chi"])
            sink._fh.close()
            assert (resumed / "records.partial.csv").read_text(
                encoding="utf-8") == complete

    def test_changed_config_discards_stale_records(self, tmp_path):
        base = {"experiment": "table1", "trials": 3, "n_p": 30, "n_v": 30,
                "benchmark": "beale", "oracle": {"n0": 300},
                "out_dir": str(tmp_path)}
        run({**base, "seed": 1})
        report = run({**base, "seed": 2})  # different seed: no reuse
        assert len(report.records) == 3


class TestApplyCheck:
    def test_passing_and_failing_thresholds(self, tmp_path):
        report = run({"experiment": "tsp-fig2", "seed": 3, "tsp_random": 5,
                      "n_p": 80, "trials": 4, "out_dir": str(tmp_path),
                      "check": {"success_fraction_min": 0.0}})
        assert apply_check(report) == []
        report.config.check = {"success_fraction_min": 1.1}
        assert apply_check(report)
        report.config.check = {"missing_field_min": 0.5}
        assert any("absent" in f for f in apply_check(report))


class TestCli:
    def test_solve_roundtrip(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "benchmark": "beale", "n_p": 10,
                                   "out_dir": str(tmp_path / "out")}))
        assert main(["solve", "--config", str(cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["problem"] == "beale"

    def test_seed_and_out_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "benchmark": "beale", "n_p": 4,
                                   "out_dir": str(tmp_path / "ignored")}))
        dest = tmp_path / "elsewhere"
        assert main(["solve", "--config", str(cfg), "--seed", "9",
                     "--out", str(dest)]) == 0
        report = json.loads((dest / "report.json").read_text())
        assert report["config"]["seed"] == 9

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"seed": 1}))  # no problem selector
        assert main(["solve", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_config_error_raised_by_the_run_exit_code(self, tmp_path, capsys):
        cert = TestValidate.uniform_certificate(tmp_path)
        cfg = tmp_path / "validate.json"
        cfg.write_text(json.dumps({
            "seed": 1, "family": "uniform-gaps", "n_p": 3, "m_validate": 2,
            "certificate": cert, "out_dir": str(tmp_path / "val")}))
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("below", [False, True], ids=["file", "under-file"])
    def test_out_dir_that_cannot_be_a_directory(self, tmp_path, capsys,
                                                below):
        """An output path that is a file, or lies under one, is a config
        error naming out_dir, and the file is left as it was."""
        blocker = tmp_path / "taken"
        blocker.write_text("keep\n", encoding="utf-8")
        out = str(blocker / "run" if below else blocker)
        raw = {"experiment": "solve", "seed": 5, "benchmark": "beale",
               "n_p": 4, "out_dir": out}
        with pytest.raises(ConfigError, match=f"out_dir {re.escape(repr(out))}"):
            run(raw)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["solve", "--config", str(cfg)]) == 2
        assert f"config error: out_dir {out!r}" in capsys.readouterr().err
        assert blocker.read_text(encoding="utf-8") == "keep\n"

    @pytest.mark.parametrize("content", [
        None, {"points": [[0, 0], [1, 1]]}, {"waypoints": [[0, 0]]}],
        ids=["missing", "no-waypoints", "one-waypoint"])
    def test_bad_tsp_file_exit_code(self, tmp_path, capsys, content):
        tsp = tmp_path / "tour.json"
        if content is not None:
            tsp.write_text(json.dumps(content))
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "tsp_file": str(tsp),
                                   "out_dir": str(out)}))
        assert main(["solve", "--config", str(cfg)]) == 2
        assert "config error: tsp_file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        lambda raw: '{"gamma_star": 1}', lambda raw: "{not json",
        lambda raw: json.dumps({**raw, "r": "many"}),
        lambda raw: json.dumps({**raw, "n_p": 3}), None],
        ids=["missing-key", "invalid-json", "non-numeric", "other-n_p",
             "not-found"])
    def test_malformed_certificate_exit_code(self, tmp_path, capsys, edit):
        """A certificate that cannot be read, parsed or matched to the run
        exits 2 before the output directory is made."""
        cert = TestValidate.uniform_certificate(tmp_path)
        bad = tmp_path / "bad_certificate.json"
        if edit is not None:
            bad.write_text(edit(json.loads(Path(cert).read_text())))
        cfg = tmp_path / "validate.json"
        cfg.write_text(json.dumps({
            "seed": 1, "family": "uniform-gaps", "n_p": 2, "m_validate": 2,
            "certificate": str(bad), "out_dir": str(tmp_path / "val")}))
        assert main(["validate", "--config", str(cfg)]) == 2
        assert f"config error: certificate {bad}" in capsys.readouterr().err
        assert not (tmp_path / "val").exists()

    @pytest.mark.parametrize("experiment, fields, named", [
        ("tsp-fig2", {"tsp_random": 11, "n_p": 10, "trials": 1},
         "tsp_random 11"),
        ("chi-sweep", {"tsp_random": 11, "n_p": 10, "trials": 1},
         "tsp_random 11"),
        ("mpc-fig4", {"family": "tsp:20", "r": 2, "n_p_list": [5]},
         "family 'tsp:20'"),
        ("validate", {"family": "tsp:11", "m_validate": 2}, "family 'tsp:11'")],
        ids=["tsp-fig2", "chi-sweep", "mpc-fig4", "validate"])
    def test_oversized_tour_space_exit_code(self, tmp_path, capsys,
                                            monkeypatch, experiment, fields,
                                            named):
        """An exhaustive oracle beyond the enumeration limit is a config
        error: refused before anything is enumerated or written."""
        forbid_enumeration(monkeypatch)
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, **fields, "out_dir": str(out)}))
        assert main([experiment, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {named}: space cardinality" in err
        assert "exceeds the enumeration limit" in err
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["solve", "certify"])
    def test_oversized_tour_space_without_an_oracle_runs(
            self, tmp_path, monkeypatch, experiment):
        """solve and certify sample a tour space; they never enumerate it."""
        forbid_enumeration(monkeypatch)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "tsp_random": 11, "n_p": 10,
                                   "out_dir": str(tmp_path / "out")}))
        assert main([experiment, "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("field, value", [
        ("n_p", "abc"), ("n_p", 2.7), ("epsilon", "0.1"), ("tsp_random", 1),
        ("family", "tsp:1"), ("family", "tsp:x"),
        ("oracle", {"method": "exhuastive"}), ("oracle", {"nzero": 5}),
        ("oracle", {"method": "declared"}), ("oracle", {"method": "exhaustive"}),
        ("out_dir", 5), ("tsp_file", 7), ("benchmark", ["beale"]),
        ("tsp_random", 6), ("check", {"v_star_max": "abc"}), ("check", ["x"]),
        ("oracle", {"gap_tolerance": None})])
    def test_bad_field_exit_code(self, tmp_path, capsys, field, value):
        raw = {"seed": 1, "benchmark": "beale", "out_dir": str(tmp_path)}
        experiment = "solve"
        if field in ("family", "oracle"):
            raw = {"seed": 1, "r": 2, "n_p_list": [5], "out_dir": str(tmp_path)}
            experiment = "mpc-fig4"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**raw, field: value}))
        assert main([experiment, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("oracle", [{"method": "refine-min"},
                                        {"method": "declared"}])
    def test_oracle_method_the_family_cannot_run_exit_code(self, tmp_path,
                                                           capsys, oracle):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "family": "tsp:5", "r": 2,
                                   "n_p_list": [5], "oracle": oracle,
                                   "out_dir": str(tmp_path)}))
        assert main(["mpc-fig4", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "oracle.method" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("experiment, problem, oracle, field", [
        ("table1", {"benchmark": "beale", "trials": 2, "n_p": 20},
         {"method": "exhaustive", "gap_tolerance": 5.0}, "oracle.method"),
        ("chi-sweep", {"tsp_random": 6, "trials": 2, "n_p": 20},
         {"method": "refine-min", "n0": 7}, "oracle.method"),
        ("tsp-fig2", {"tsp_random": 6, "trials": 2, "n_p": 20},
         {"method": "declared"}, "oracle.method"),
        ("chi-sweep", {"benchmark": "beale", "trials": 2, "n_p": 20},
         {"method": "declared", "n0": 7}, "oracle.n0"),
        ("mpc-fig4", {"family": "uniform-gaps", "r": 2, "n_p_list": [5]},
         {"n0": 7}, "oracle.n0"),
        ("table1", {"trials": 2, "n_p": 20}, {"gap_tolerance": 1.0},
         "oracle.gap_tolerance"),
        ("tsp-fig2", {"tsp_random": 6, "trials": 2, "n_p": 20},
         {"gap_tolerance": 1.0}, "oracle.gap_tolerance"),
        ("solve", {"benchmark": "beale", "n_p": 20}, {"n0": 7}, "oracle"),
        ("certify", {"benchmark": "beale", "n_p": 20},
         {"method": "refine-min"}, "oracle"),
        # a problem selector the run would ignore
        ("table1", {"tsp_random": 6, "trials": 2, "n_p": 20}, {},
         "tsp_random"),
        ("mpc-fig4", {"benchmark": "beale", "r": 2, "n_p_list": [5]}, {},
         "benchmark"),
        ("validate", {"tsp_random": 6, "m_validate": 2, "n_p": 20}, {},
         "tsp_random")])
    def test_oracle_field_the_run_would_ignore_exit_code(
            self, tmp_path, capsys, experiment, problem, oracle, field):
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, **problem, "oracle": oracle,
                                   "out_dir": str(out)}))
        assert main([experiment, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err
        assert not out.exists()

    @pytest.mark.parametrize("experiment, field", UNREAD)
    def test_field_the_experiment_does_not_read_exit_code(
            self, tmp_path, capsys, experiment, field):
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, **BASE[experiment],
                                   field: VALID[field], "out_dir": str(out)}))
        assert main([experiment, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"config error: experiment {experiment!r} does not read " \
            f"['{field}']; it reads {list(READS[experiment])}" in err
        assert not out.exists()

    def test_oracle_method_is_honoured(self, tmp_path):
        summary = run({"experiment": "table1", "seed": 1, "benchmark": "beale",
                       "trials": 2, "n_p": 20, "n_v": 20,
                       "oracle": {"method": "declared"},
                       "out_dir": str(tmp_path)}).summary
        assert summary["benchmarks"]["beale"]["oracle_value"] == \
            make_benchmark("beale").declared_optimum
        # the benchmark's own oracle settings stay valid
        ExperimentConfig.from_dict({
            "experiment": "mpc-fig4", "seed": 1, "family": "mpc",
            "oracle": {"method": "refine-min", "n0": 2000,
                       "gap_tolerance": 1.0}})

    def test_uniform_gaps_oracle_follows_method_alone(self, tmp_path):
        # a tolerance alone keeps the declared optimum: every gap is the
        # instance's constant cost u
        run({"experiment": "mpc-fig4", "seed": 1, "family": "uniform-gaps",
             "r": 3, "n_p_list": [5], "oracle": {"gap_tolerance": 0.5},
             "out_dir": str(tmp_path)})
        rows = (tmp_path / "records.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            *_, cost, oracle_value, gamma = row.split(",")
            assert float(oracle_value) == 0.0
            assert float(gamma) == float(cost) > 0.0

    def test_tour_family_defaults_to_exhaustive(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "family": "tsp:5", "r": 2,
                                   "n_p_list": [5], "out_dir": str(tmp_path)}))
        assert main(["mpc-fig4", "--config", str(cfg)]) == 0
        rows = (tmp_path / "records.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        family = make_tsp_family(5)
        for row in rows:
            _, _, _, seed, _, oracle_value, _ = row.split(",")
            exact = exhaustive_min(family.instance(int(seed))).value
            assert float(oracle_value) == exact

    @pytest.mark.parametrize("text", ["[]", "null", '"beale"'])
    def test_config_not_an_object_exit_code(self, tmp_path, capsys, text):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        assert main(["certify", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["solve", "--config", "/nonexistent.json"]) == 2

    def test_check_failure_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 2, "tsp_random": 5, "n_p": 50, "trials": 3,
            "out_dir": str(tmp_path / "out"),
            "check": {"success_fraction_min": 1.5}}))
        assert main(["tsp-fig2", "--config", str(cfg), "--check"]) == 3
        assert "check failed" in capsys.readouterr().err
        # no validation phase: coverage is {}, which passes nothing
        cfg.write_text(json.dumps({
            "seed": 2, "family": "uniform-gaps", "r": 3, "n_p_list": [2],
            "out_dir": str(tmp_path / "fig4"),
            "check": {"coverage_min": 0.985}}))
        assert main(["mpc-fig4", "--config", str(cfg), "--check"]) == 3
        assert "check failed: coverage: no values to check" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("field, shown", [
        ("problem", "'beale'"), ("optimum_interval", "[")])
    def test_check_on_a_value_that_is_not_a_number(self, tmp_path, capsys,
                                                   field, shown):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 1, "benchmark": "beale", "n_p": 10, "n_v": 10,
            "out_dir": str(tmp_path / "out"), "check": {f"{field}_min": 1}}))
        assert main(["certify", "--config", str(cfg), "--check"]) == 3
        err = capsys.readouterr().err
        assert f"check failed: {field}: {shown}" in err
        assert "is not a number" in err

    def test_seed_required(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"benchmark": "beale"}))
        assert main(["solve", "--config", str(cfg)]) == 2


class TestSeedRange:
    """A seed outside [0, 2**64) would alias another seed in the library's
    64-bit streams, so the config refuses it."""

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_run_refuses(self, tmp_path, seed):
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="seed"):
            run({"experiment": "solve", "seed": seed, "benchmark": "beale",
                 "n_p": 5, "out_dir": str(out)})
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_cli_exit_code(self, tmp_path, capsys, seed):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "out"
        cfg.write_text(json.dumps({"seed": 0, "benchmark": "beale", "n_p": 5,
                                   "out_dir": str(out)}))
        assert main(["solve", "--config", str(cfg), "--seed", str(seed)]) == 2
        assert "config error: seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_ends_of_the_range_accepted(self, seed):
        ExperimentConfig.from_dict({"experiment": "solve", "seed": seed,
                                    "benchmark": "beale"})


class TestGroundTruth:
    @pytest.mark.parametrize("experiment, extra, key", [
        ("chi-sweep", {"benchmark": "beale", "chis": [0.5], "mc_samples": 50,
                       "oracle": {"n0": 200}}, "oracle_beale_s"),
        ("table1", {"benchmark": "beale", "n_v": 10, "oracle": {"n0": 200}},
         "oracle_beale_s"),
        ("tsp-fig2", {"tsp_random": 5}, "oracle_tsp-5_s")])
    def test_timed_under_the_problem_name(self, tmp_path, experiment, extra,
                                          key):
        report = run({"experiment": experiment, "seed": 3, "n_p": 10,
                      "trials": 2, **extra, "out_dir": str(tmp_path)})
        timed = [k for k in report.timings
                 if k.startswith(("oracle", "enumerate"))]
        assert timed == [key]
        assert report.timings[key] >= 0.0

    def test_table1_names_an_aliased_benchmark_canonically(self, tmp_path):
        report = run({"experiment": "table1", "seed": 3, "benchmark": "levi",
                      "n_p": 10, "n_v": 10, "trials": 2,
                      "oracle": {"n0": 200}, "out_dir": str(tmp_path)})
        assert {r["benchmark"] for r in report.records} == {"levi13"}
        assert list(report.summary["benchmarks"]) == ["levi13"]
        assert list(report.summary["success_fraction"]) == ["levi13"]
        assert "oracle_levi13_s" in report.timings
        table = (tmp_path / "table1.csv").read_text().splitlines()
        assert table[1].startswith("levi13,")

    def test_chi_sweep_computes_a_repeated_chi_once(self, tmp_path,
                                                    monkeypatch):
        import gapcert.experiments as exp
        calls = []
        original = exp.exceedance_probability

        def counting(model, *args, **kwargs):
            calls.append(model.chi)
            return original(model, *args, **kwargs)

        monkeypatch.setattr(exp, "exceedance_probability", counting)
        base = {"experiment": "chi-sweep", "seed": 5, "benchmark": "beale",
                "n_p": 20, "trials": 3, "mc_samples": 50,
                "oracle": {"n0": 200}}
        run({**base, "chis": [0.1, 0.5, 0.1], "out_dir": str(tmp_path / "dup")})
        assert sorted(calls) == [0.1] * 3 + [0.5] * 3
        run({**base, "chis": [0.1, 0.5], "out_dir": str(tmp_path / "once")})
        assert (tmp_path / "dup" / "records.csv").read_bytes() \
            == (tmp_path / "once" / "records.csv").read_bytes()

    @pytest.mark.parametrize("selector", [
        {"benchmark": "beale", "mc_samples": 50, "oracle": {"n0": 200}},
        {"tsp_random": 6}], ids=["monte-carlo", "exact"])
    def test_chi_sweep_draws_its_costs_once_per_trial(self, tmp_path,
                                                      monkeypatch, selector):
        """One draw of exceedance costs per trial, shared by its chis, gives
        the bytes of drawing them anew for every chi."""
        import gapcert.experiments as exp
        from gapcert.percentile import Problem
        cfg = {"experiment": "chi-sweep", "seed": 5, "n_p": 20, "trials": 3,
               "chis": [0.1, 0.5, 1.0], **selector}
        calls = count_calls(monkeypatch, Problem, "uniform_costs")
        run({**cfg, "out_dir": str(tmp_path / "shared")})
        level_set = [args[1:] for args in calls if args[3] == _rng.LEVEL_SET]
        assert level_set == [(cfg.get("mc_samples", 20000), _rng.child_seed(
            5, _rng.CHI_SWEEP_EXCEEDANCE, trial), _rng.LEVEL_SET)
            for trial in range(3)]
        with monkeypatch.context() as mp:  # draw again for every chi
            draws, exceedance = [], exp.exceedance_probability
            mp.setattr(exp, "exceedance_costs",
                       lambda problem, m, seed: draws.append((m, seed)))
            mp.setattr(exp, "exceedance_probability",
                       lambda model, gap, costs: exceedance(model, gap,
                                                            *draws[-1]))
            run({**cfg, "out_dir": str(tmp_path / "per-chi")})
        for name in ("records.csv", "chi_p.csv"):
            assert (tmp_path / "shared" / name).read_bytes() \
                == (tmp_path / "per-chi" / name).read_bytes()

    def test_tsp_fig2_sorts_its_tour_costs_once_per_run(self, tmp_path,
                                                        monkeypatch):
        import gapcert.experiments as exp
        calls = count_calls(monkeypatch, exp, "exceedance_costs")
        report = run({"experiment": "tsp-fig2", "seed": 2, "tsp_random": 6,
                      "n_p": 20, "trials": 4, "out_dir": str(tmp_path)})
        assert len(calls) == 1 and len(report.records) == 4


class Crash(Exception):
    """Stands in for a kill signal in the middle of a run."""


def count_calls(monkeypatch, module, name) -> list:
    """Patch ``module.name`` to record one entry per call."""
    calls, original = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def files_of(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestResumeEveryRunner:
    """Each runner that keeps records resumes an interrupted run, whether
    the crash fell between two rows or inside one, writes the fresh run's
    bytes, and recomputes only the units that have a missing row."""

    # experiment: (config fields, rows flushed before the crash, the
    # function computing one unit, units left to compute)
    CASES = {
        "chi-sweep": ({"tsp_random": 5, "n_p": 20, "trials": 4,
                       "chis": [0.1, 1.0]}, 3, "percentile_solve", 3),
        "table1": ({"benchmark": "beale", "n_p": 20, "n_v": 20, "trials": 5,
                    "oracle": {"n0": 200}}, 2, "percentile_solve", 3),
        "tsp-fig2": ({"tsp_random": 5, "n_p": 20, "trials": 5}, 2,
                     "percentile_solve", 3),
        "mpc-fig4": ({"family": "uniform-gaps", "r": 5, "n_p_list": [1, 2],
                      "m_validate": 3}, 7, "sample_gap", 9),
        "validate": ({"family": "uniform-gaps", "n_p": 2, "m_validate": 6},
                     2, "sample_gap", 4),
    }

    @pytest.mark.parametrize("torn", [False, True], ids=["row-boundary",
                                                         "mid-row"])
    @pytest.mark.parametrize("experiment", list(CASES))
    def test_resume_writes_the_fresh_bytes(self, tmp_path, monkeypatch,
                                           experiment, torn):
        import gapcert.experiments as exp
        import gapcert.repetitive as rep
        fields, rows, unit, left = self.CASES[experiment]
        cfg = {"experiment": experiment, "seed": 9, **fields}
        if experiment == "validate":
            cfg["certificate"] = TestValidate.uniform_certificate(tmp_path)
        # every timing reads 0, so report.json and table1's certify_ms
        # columns are as reproducible as the seeded outputs
        monkeypatch.setattr(exp, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        run(cfg, out_dir=tmp_path / "fresh")
        resumed = tmp_path / "resumed"
        with monkeypatch.context() as patch:
            add, added = _RecordSink.add, itertools.count()

            def crashing(sink, rec):
                if next(added) == rows:
                    if torn:  # part of the next row reached the file
                        add(sink, rec)
                        os.truncate(sink._partial,
                                    sink._partial.stat().st_size - 3)
                    raise Crash
                add(sink, rec)

            patch.setattr(_RecordSink, "add", crashing)
            with pytest.raises(Crash):
                run(cfg, out_dir=resumed)
        partial = (resumed / "records.partial.csv").read_text()
        assert partial.count("\n") == rows + 1
        assert partial.endswith("\n") != torn
        calls = count_calls(monkeypatch,
                            exp if unit == "percentile_solve" else rep, unit)

        def whole_rows(sink, rec):  # each new row on a line of its own
            add(sink, rec)
            for line in sink._partial.read_text().splitlines():
                assert line.count(",") == len(sink.columns) - 1, line

        monkeypatch.setattr(_RecordSink, "add", whole_rows)
        run(cfg, out_dir=resumed)
        assert len(calls) == left
        assert files_of(resumed) == files_of(tmp_path / "fresh")

    def test_partial_under_another_header_starts_over(self, tmp_path,
                                                      monkeypatch):
        """Same config, but the partial file holds another column set: the
        stale rows are dropped, never appended to."""
        import gapcert.experiments as exp
        cfg = {"experiment": "tsp-fig2", "seed": 11, "tsp_random": 5,
               "n_p": 20, "trials": 3}
        columns = ["trial", "zeta", "gap", "p", "n_v", "v_star", "success"]
        fresh, stale = tmp_path / "fresh", tmp_path / "stale"
        run(cfg, out_dir=fresh)

        def leave_stale_files():
            stale.mkdir(exist_ok=True)
            (stale / "config.json").write_bytes(
                (fresh / "config.json").read_bytes())
            (stale / "records.partial.csv").write_text(
                "trial,zeta,gap,p\n1,2.0,0.1,0.5\n", encoding="utf-8")
            (stale / "records.csv").write_text("stale\n", encoding="utf-8")

        leave_stale_files()
        sink = _RecordSink(stale, ExperimentConfig.from_dict(cfg), columns,
                           ["trial"])
        sink._fh.close()
        assert sink.records == {}
        assert (stale / "records.partial.csv").read_text(encoding="utf-8") \
            == ",".join(columns) + "\n"
        assert not (stale / "records.csv").exists()
        leave_stale_files()
        calls = count_calls(monkeypatch, exp, "percentile_solve")
        run(cfg, out_dir=stale)
        assert len(calls) == 3
        assert (stale / "records.csv").read_bytes() \
            == (fresh / "records.csv").read_bytes()

    @pytest.mark.parametrize("experiment", list(CASES))
    def test_the_handle_is_closed_when_the_run_raises(self, tmp_path,
                                                      monkeypatch, experiment):
        """The run closes records.partial.csv as the error leaves it, not at
        garbage collection, and keeps the file for the resume."""
        cfg = {"experiment": experiment, "seed": 9,
               **self.CASES[experiment][0]}
        if experiment == "validate":
            cfg["certificate"] = TestValidate.uniform_certificate(tmp_path)
        sinks = []

        def raising(sink, rec):
            sinks.append(sink)
            raise Crash

        monkeypatch.setattr(_RecordSink, "add", raising)
        with pytest.raises(Crash):
            run(cfg, out_dir=tmp_path / "out")
        assert sinks[0]._fh.closed
        assert (tmp_path / "out" / "records.partial.csv").exists()

    def test_records_table(self):
        """Every experiment but solve and certify keeps records, and its
        key columns lead its columns."""
        assert set(RECORDS) == set(READS) - {"solve", "certify"}
        for columns, key_cols in RECORDS.values():
            assert columns[:len(key_cols)] == key_cols


class TestApplyCheckBranches:
    def test_none_in_a_dict_and_an_exceeded_maximum(self):
        config = ExperimentConfig.from_dict({
            "experiment": "solve", "seed": 1, "benchmark": "beale",
            "check": {"coverage_min": 0.5, "gap_max": 1.0}})
        report = RunReport(config=config, records=[], timings={},
                           summary={"coverage": {"40": 0.9, "60": None},
                                    "gap": 1.5})
        assert apply_check(report) == ["60: no value to check",
                                       "gap: 1.5 > allowed maximum 1.0"]


class TestRepeatedNp:
    def test_sampled_and_timed_once(self, tmp_path, monkeypatch):
        """A repeated n_p_list entry runs once: the same files as the
        single entry, timed by the pass that sampled.  The clock advances
        one second per gap sample."""
        import gapcert.experiments as exp
        import gapcert.repetitive as rep
        calls = count_calls(monkeypatch, rep, "sample_gap")
        monkeypatch.setattr(exp, "time", SimpleNamespace(
            perf_counter=lambda: float(len(calls))))
        base = {"experiment": "mpc-fig4", "seed": 5, "family": "uniform-gaps",
                "r": 20, "m_validate": 10}
        twice = run({**base, "n_p_list": [2, 2]}, out_dir=tmp_path / "twice")
        assert twice.timings == {"certify_np2_s": 20.0, "validate_np2_s": 10.0,
                                 "total_s": 30.0}
        run({**base, "n_p_list": [2]}, out_dir=tmp_path / "once")
        for name in ("records.csv", "certificate_np2.json", "fig4_markers.csv",
                     "fig4_hist_np2.csv"):
            assert (tmp_path / "twice" / name).read_bytes() \
                == (tmp_path / "once" / name).read_bytes()


class TestMalformedCertificate:
    @pytest.mark.parametrize("field, value", [
        ("n_p", 2.9), ("n_p", "2"), ("seed", True), ("r", 2.5),
        ("epsilon", 7), ("gamma_star", -1.0), ("gamma_star", float("nan")),
        ("gamma_star", float("inf")), ("confidence", 1.5), ("family", None)])
    def test_refused_before_the_run(self, tmp_path, capsys, field, value):
        """A certificate field of the wrong JSON type or out of range exits
        2, naming the file and the field, and leaves no output directory;
        it is never coerced into a match."""
        raw = json.loads(Path(TestValidate.uniform_certificate(tmp_path))
                         .read_text())
        bad = tmp_path / "bad_certificate.json"
        bad.write_text(json.dumps({**raw, field: value}))
        cfg = tmp_path / "validate.json"
        cfg.write_text(json.dumps({
            "seed": 1, "family": "uniform-gaps", "n_p": 2, "m_validate": 2,
            "certificate": str(bad), "out_dir": str(tmp_path / "val")}))
        assert main(["validate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"config error: certificate {bad}: DomainError: " \
            f"certificate field {field} must be" in err
        assert not (tmp_path / "val").exists()
