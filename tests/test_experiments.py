"""Experiment configs, pipelines, artifacts, reproducibility, and the CLI."""

import json

import pytest

from gapcert import CapacityError, _rng, exhaustive_min
from gapcert.cli import main
from gapcert.experiments import ConfigError, ExperimentConfig, _RecordSink, \
    apply_check, run
from gapcert.problems import make_benchmark, make_tsp_family, \
    make_tsp_problem, random_tsp_instance, write_tsp_instance
from gapcert.spaces import PermutationSpace


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
    ("check", None),
]


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
            with pytest.raises(ConfigError, match=field):
                ExperimentConfig.from_dict({"experiment": "chi-sweep",
                                            "seed": 1, "benchmark": "beale",
                                            field: value})

    def test_unknown_benchmark(self):
        with pytest.raises(ConfigError, match="benchmark"):
            ExperimentConfig.from_dict({"experiment": "solve", "seed": 1,
                                        "benchmark": "nope"})


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

    def test_tsp_file_selector(self, tmp_path):
        inst = random_tsp_instance(5, seed=1)
        write_tsp_instance(inst, tmp_path / "inst.json")
        report = run({"experiment": "tsp-fig2", "seed": 4,
                      "tsp_file": str(tmp_path / "inst.json"),
                      "n_p": 60, "trials": 3, "out_dir": str(tmp_path / "out")})
        assert report.summary["problem"] == "tsp-5"

    @pytest.mark.parametrize("experiment", ["tsp-fig2", "chi-sweep"])
    def test_enumeration_limit_checked_before_enumerating(
            self, tmp_path, monkeypatch, experiment):
        forbid_enumeration(monkeypatch)
        with pytest.raises(CapacityError):
            run({"experiment": experiment, "seed": 1, "tsp_random": 11,
                 "n_p": 10, "trials": 1, "out_dir": str(tmp_path)})


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
        enumerate_ = PermutationSpace.enumerate

        def counted(space, *args, **kwargs):
            calls.append(space.n_items)
            return enumerate_(space, *args, **kwargs)

        monkeypatch.setattr(PermutationSpace, "enumerate", counted)
        for experiment, key in (("chi-sweep", "oracle_value"),
                                ("tsp-fig2", "true_optimum")):
            calls.clear()
            summary = run({"experiment": experiment, "seed": 7,
                           "tsp_random": 5, "n_p": 60, "trials": 4,
                           "chis": [0.05, 0.5, 1.0],
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

    def test_missing_certificate_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="certificate"):
            run({"experiment": "validate", "seed": 1, "family": "uniform-gaps",
                 "n_p": 1, "m_validate": 2, "out_dir": str(tmp_path)})


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

    @pytest.mark.parametrize("experiment", ["tsp-fig2", "chi-sweep"])
    def test_oversized_tour_space_exit_code(self, tmp_path, capsys,
                                            monkeypatch, experiment):
        forbid_enumeration(monkeypatch)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "tsp_random": 11, "n_p": 10,
                                   "trials": 1, "out_dir": str(tmp_path)}))
        assert main([experiment, "--config", str(cfg)]) == 2
        assert "enumeration limit" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("n_p", "abc"), ("n_p", 2.7), ("epsilon", "0.1"), ("tsp_random", 1),
        ("family", "tsp:1"), ("family", "tsp:x"),
        ("oracle", {"method": "exhuastive"}), ("oracle", {"nzero": 5}),
        ("oracle", {"method": "declared"}), ("oracle", {"method": "exhaustive"}),
        ("out_dir", 5), ("tsp_file", 7), ("benchmark", ["beale"]),
        ("tsp_random", 6), ("check", {"v_star_max": "abc"}), ("check", ["x"])])
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
        ("table1", {"benchmark": "beale"},
         {"method": "exhaustive", "gap_tolerance": 5.0}, "oracle.method"),
        ("chi-sweep", {"tsp_random": 6}, {"method": "refine-min", "n0": 7},
         "oracle.method"),
        ("tsp-fig2", {"tsp_random": 6}, {"method": "declared"},
         "oracle.method"),
        ("chi-sweep", {"benchmark": "beale"}, {"method": "declared", "n0": 7},
         "oracle.n0"),
        ("mpc-fig4", {"family": "uniform-gaps"}, {"n0": 7}, "oracle.n0"),
        ("table1", {}, {"gap_tolerance": 1.0}, "oracle.gap_tolerance"),
        ("tsp-fig2", {"tsp_random": 6}, {"gap_tolerance": 1.0},
         "oracle.gap_tolerance"),
        ("solve", {"benchmark": "beale"}, {"n0": 7}, "oracle"),
        ("certify", {"benchmark": "beale"}, {"method": "refine-min"},
         "oracle")])
    def test_oracle_field_the_run_would_ignore_exit_code(
            self, tmp_path, capsys, experiment, problem, oracle, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "trials": 2, "n_p": 20, "r": 2,
                                   "n_p_list": [5], **problem,
                                   "oracle": oracle, "out_dir": str(tmp_path)}))
        assert main([experiment, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err
        assert not (tmp_path / "report.json").exists()

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

    def test_seed_required(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"benchmark": "beale"}))
        assert main(["solve", "--config", str(cfg)]) == 2
