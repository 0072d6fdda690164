"""Seeded, resumable experiment pipelines emitting machine-readable tables.

Each experiment is described by a config (JSON file or dict), runs fully
deterministically from its seed, flushes per-trial records as it goes so an
interrupted run can resume, and writes its own plot-ready CSV artifacts.
Re-running an identical config byte-reproduces every numeric output except
wall-clock timings: the report JSON's ``timings`` and, for table1, the
``certify_ms`` and ``mean_certify_ms`` columns.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import numbers
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _rng, repetitive
from ._version import __version__
from .certifier import DEFAULT_CHI, DEFAULT_EPSILON, certificate_to_json, \
    certify_model, certify_solution, exceedance_probability, solution_model, \
    subsample_info
from .mpc import mpc_family
from .percentile import Problem, confidence_of, min_samples, \
    percentile_solve, write_infoset_csv
from .problems import BENCHMARK_NAMES, make_benchmark, make_tsp_family, \
    make_tsp_problem, random_tsp_instance, read_tsp_instance
from .repetitive import OracleConfig, ProblemFamily, iter_gap_samples
from .spaces import BoxSpace

EXPERIMENTS = ("solve", "certify", "chi-sweep", "table1", "tsp-fig2",
               "mpc-fig4", "validate")
GAP_EXPERIMENTS = ("mpc-fig4", "validate")  # sample a family's gaps


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int
    out_dir: str = "runs"
    # problem / family selectors
    benchmark: str | None = None
    tsp_file: str | None = None
    tsp_random: int | None = None
    family: str | None = None
    # shared knobs
    n_p: int = 300
    n_v: int = 300
    epsilon: float = DEFAULT_EPSILON
    chi: float = DEFAULT_CHI
    trials: int = 100
    r: int = 459
    confidence: float = 0.999
    n_p_list: list[int] = field(default_factory=lambda: [200, 300, 500])
    m_validate: int = 0
    chis: list[float] = field(default_factory=lambda: [0.01, 0.05, 0.1, 0.25, 0.5, 1.0])
    mc_samples: int = 20000
    oracle: dict = field(default_factory=dict)
    certificate: str | None = None
    check: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "experiment" not in raw:
            raise ConfigError("field 'experiment' is required")
        if "seed" not in raw:
            raise ConfigError("field 'seed' is required (runs never seed from "
                              "the clock)")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}, "
                              f"got {self.experiment!r}")
        _check_integer("seed", self.seed)
        for name in ("out_dir", "benchmark", "tsp_file", "certificate"):
            value = getattr(self, name)
            if not (isinstance(value, str)
                    or (value is None and name != "out_dir")):
                raise ConfigError(f"{name} must be a string, got {value!r}")
        selectors = [name for name in ("benchmark", "tsp_file", "tsp_random")
                     if getattr(self, name)]
        if len(selectors) > 1:
            raise ConfigError(f"set at most one problem selector, got "
                              f"{selectors}")
        _check_bounds(self.check)
        for name in ("n_p", "n_v", "trials", "r", "mc_samples"):
            _check_integer(name, getattr(self, name), 1)
        _check_integer("m_validate", self.m_validate, 0)
        if self.tsp_random is not None:
            _check_integer("tsp_random", self.tsp_random, 2)
        _check_real("epsilon", self.epsilon, lambda v: 0.0 < v <= 1.0, "(0, 1]")
        _check_real("chi", self.chi, lambda v: 0.0 < v <= 1.0, "(0, 1]")
        _check_real("confidence", self.confidence, lambda v: 0.0 <= v < 1.0,
                    "[0, 1)")
        if not isinstance(self.chis, list):
            raise ConfigError(f"chis must be a list, got {self.chis!r}")
        for chi in self.chis:
            _check_real("chis", chi, lambda v: 0.0 < v <= 1.0, "(0, 1]")
        if not isinstance(self.n_p_list, list):
            raise ConfigError(f"n_p_list must be a list, got {self.n_p_list!r}")
        for n_p in self.n_p_list:
            _check_integer("n_p_list", n_p, 1)
        needs_problem = self.experiment in ("solve", "certify", "chi-sweep",
                                            "tsp-fig2")
        if needs_problem and not selectors:
            raise ConfigError(f"experiment {self.experiment!r} needs a problem: "
                              "set 'benchmark', 'tsp_file', or 'tsp_random'")
        if self.experiment in GAP_EXPERIMENTS and self.family is None:
            self.family = "mpc"
        if self.family is not None:
            _resolve_family(self)  # builds nothing yet; checks the name
        if self.oracle:
            self._validate_oracle()
        if self.benchmark is not None and self.benchmark not in BENCHMARK_NAMES:
            from .problems import _ALIASES
            if self.benchmark not in _ALIASES:
                raise ConfigError(f"benchmark must be one of {BENCHMARK_NAMES}, "
                                  f"got {self.benchmark!r}")

    def _validate_oracle(self) -> None:
        oracle = self.oracle
        if not isinstance(oracle, dict):
            raise ConfigError(f"oracle must be an object, got {oracle!r}")
        unknown = set(oracle) - {"method", "n0", "gap_tolerance"}
        if unknown:
            raise ConfigError(f"unknown oracle fields: {sorted(unknown)}")
        methods = _oracle_methods(self)
        if not methods:
            raise ConfigError(f"oracle: experiment {self.experiment!r} uses "
                              f"no oracle, got fields {sorted(oracle)}")
        method = oracle.get("method", methods[0])
        if method not in methods:
            on = (f"family {self.family!r}" if self.experiment in
                  GAP_EXPERIMENTS else f"the {self.experiment} problem")
            raise ConfigError(f"oracle.method {method!r} cannot run on {on}; "
                              f"use one of {methods}")
        if "n0" in oracle:
            if method != "refine-min":
                raise ConfigError(f"oracle.n0 applies only to method "
                                  f"'refine-min', not {method!r}")
            _check_integer("oracle.n0", oracle["n0"], 1)
        if "gap_tolerance" in oracle:
            if self.experiment not in GAP_EXPERIMENTS:
                raise ConfigError(f"oracle.gap_tolerance applies only to "
                                  f"{GAP_EXPERIMENTS}, not {self.experiment!r}")
            if oracle["gap_tolerance"] is not None:
                _check_real("oracle.gap_tolerance", oracle["gap_tolerance"],
                            lambda v: v >= 0.0, "[0, inf)")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _check_integer(name: str, value, minimum: int | None = None) -> None:
    """JSON integers only: a float such as 2.7, a string or a boolean is
    refused, never truncated."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{name} must be an integer{bound}, got {value!r}")


def _check_real(name: str, value, in_range, interval: str) -> None:
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not in_range(value)):
        raise ConfigError(f"{name} must be a number in {interval}, got {value!r}")


def _check_bounds(check) -> list[tuple[str, str, float]]:
    """The (summary field, "min" or "max", bound) of each ``check`` entry;
    each key ends in ``_min`` or ``_max`` and each bound is a finite number."""
    if not isinstance(check, dict):
        raise ConfigError(f"check must be an object, got {check!r}")
    for key, bound in check.items():
        if not (isinstance(key, str) and key.endswith(("_min", "_max"))):
            raise ConfigError(f"check key {key!r} must end with _min or _max")
        _check_real(f"check.{key}", bound, math.isfinite, "(-inf, inf)")
    return [(key[:-4], key[-3:], bound) for key, bound in check.items()]


@dataclass
class RunReport:
    config: ExperimentConfig
    records: list[dict]
    summary: dict
    timings: dict
    version: str = __version__

    def to_dict(self) -> dict:
        return {"config": self.config.to_dict(), "summary": self.summary,
                "timings": self.timings, "version": self.version,
                "n_records": len(self.records)}


def _resolve_problem(cfg: ExperimentConfig) -> Problem:
    if cfg.benchmark:
        return make_benchmark(cfg.benchmark)
    if cfg.tsp_file:
        return make_tsp_problem(read_tsp_instance(cfg.tsp_file))
    if cfg.tsp_random:
        return make_tsp_problem(random_tsp_instance(cfg.tsp_random, cfg.seed))
    raise ConfigError("no problem selector present")


def _resolve_family(cfg: ExperimentConfig) -> ProblemFamily:
    name = str(cfg.family)
    if name == "mpc":
        return mpc_family()
    if name == "uniform-gaps":
        return uniform_gap_family()
    n = name.removeprefix("tsp:")
    if name.startswith("tsp:") and n.isdecimal() and int(n) >= 2:
        return make_tsp_family(int(n))
    raise ConfigError(f"family must be 'mpc', 'uniform-gaps' or 'tsp:<n>' "
                      f"with n >= 2, got {cfg.family!r}")


# The oracle methods each kind of problem can run, the default first: tour
# spaces have no bounds for refine-min, and mpc declares no optimum.
ORACLE_METHODS = {"mpc": ("refine-min",), "tsp": ("exhaustive",),
                  "uniform-gaps": ("declared", "refine-min"),
                  "benchmark": ("refine-min", "declared")}


def _oracle_methods(cfg: ExperimentConfig) -> tuple[str, ...]:
    """The run's oracle methods: its family's for gap sampling, else its
    problem's; none for solve and certify."""
    if cfg.experiment in ("solve", "certify"):
        return ()
    if cfg.experiment in GAP_EXPERIMENTS:
        return ORACLE_METHODS[cfg.family.split(":")[0]]
    kind = "benchmark" if cfg.benchmark or cfg.experiment == "table1" else "tsp"
    return ORACLE_METHODS[kind]


def _oracle(cfg: ExperimentConfig) -> OracleConfig:
    """The run's ground-truth oracle.  Defaults: the first of its methods,
    n0 = 2000 for gap sampling and 20000 on one problem, and a gap tolerance
    of 1.0 on mpc, whose cost takes grid-distance steps."""
    raw = cfg.oracle or {}
    gaps = cfg.experiment in GAP_EXPERIMENTS
    return OracleConfig(
        method=raw.get("method", _oracle_methods(cfg)[0]),
        n0=raw.get("n0", 2000 if gaps else 20000),
        gap_tolerance=raw.get("gap_tolerance",
                              1.0 if gaps and cfg.family == "mpc" else None))


def _ground_truth(cfg: ExperimentConfig, problem: Problem):
    """The run's oracle result on one problem, at the seed's ORACLE child."""
    return _oracle(cfg).run(problem, _rng.child_seed(cfg.seed, _rng.ORACLE))


def uniform_gap_family() -> ProblemFamily:
    """Synthetic family whose measured gap is exactly Uniform(0, 1): each
    instance has constant cost u and a declared optimum of 0."""

    def build(instance_seed: int) -> Problem:
        u = float(_rng.stream(instance_seed, _rng.FAMILY).random())
        return Problem(space=BoxSpace([0.0], [1.0]),
                       cost=lambda _d, _u=u: _u,
                       batch_cost=lambda d, _u=u: np.full(len(d), _u),
                       name=f"uniform-gap-{instance_seed}",
                       declared_optimum=0.0)

    return ProblemFamily(build=build, description="uniform-gaps")


class _RecordSink:
    """Per-trial record store with crash-recovery flushing and resume.

    Records are keyed; completed keys from a previous identical-config run are
    loaded and skipped.  The final CSV is rewritten sorted by key so resumed
    and fresh runs produce identical bytes.
    """

    def __init__(self, out_dir: Path, config: ExperimentConfig, columns: list[str],
                 key_cols: list[str]):
        self.out = out_dir
        self.columns = columns
        self.key_cols = key_cols
        self.records: dict[tuple, dict] = {}
        self._partial = out_dir / "records.partial.csv"
        self._config_path = out_dir / "config.json"
        config_text = json.dumps(config.to_dict(), indent=2, sort_keys=True)
        if self._config_path.exists() and self._partial.exists() \
                and self._config_path.read_text(encoding="utf-8") == config_text:
            self._load_partial()
        else:
            for stale in (self._partial, out_dir / "records.csv"):
                stale.unlink(missing_ok=True)
        self._config_path.write_text(config_text, encoding="utf-8")
        self._fh = self._partial.open("a", encoding="utf-8", newline="")
        if self._partial.stat().st_size == 0:
            self._fh.write(",".join(self.columns) + "\n")
            self._fh.flush()

    def _load_partial(self):
        """Load the newline-terminated rows, and cut off a torn tail line
        from a crash so that the next row starts on a line of its own."""
        data = self._partial.read_bytes()
        complete = data[:data.rfind(b"\n") + 1]
        os.truncate(self._partial, len(complete))
        lines = complete.decode("utf-8").splitlines()
        if not lines or lines[0].split(",") != self.columns:
            return
        for line in lines[1:]:
            rec = dict(zip(self.columns, line.split(",")))
            self.records[self._key_of(rec)] = rec

    def _key_of(self, rec: dict) -> tuple:
        return tuple(str(rec[k]) for k in self.key_cols)

    def done(self, **key) -> bool:
        return tuple(str(key[k]) for k in self.key_cols) in self.records

    def trials(self, **key) -> dict[int, dict]:
        """Records matching the given key values, by trial number."""
        return {int(r["trial"]): r for r in self.records.values()
                if all(r[k] == str(v) for k, v in key.items())}

    def add(self, rec: dict) -> None:
        rec = {k: _fmt(rec[k]) for k in self.columns}
        self.records[self._key_of(rec)] = rec
        self._fh.write(",".join(rec[c] for c in self.columns) + "\n")
        self._fh.flush()

    def finish(self) -> list[dict]:
        """Write records.csv; return the records sorted by string key ("10" < "2")."""
        self._fh.close()
        rows = [self.records[k] for k in sorted(self.records)]
        _write_csv(self.out / "records.csv", ",".join(self.columns),
                   (",".join(rec[c] for c in self.columns) for rec in rows))
        self._partial.unlink(missing_ok=True)
        return rows


def _write_csv(path: Path, header: str, lines) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def run(config: ExperimentConfig | dict, out_dir=None) -> RunReport:
    """Execute the configured experiment and write its artifacts.

    Returns the report; the runner writes records.csv and its plot files,
    and this writes report.json, all under the output directory.
    """
    if isinstance(config, dict):
        config = ExperimentConfig.from_dict(config)
    else:
        config.validate()
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    runner = _RUNNERS[config.experiment]
    records, summary, timings = runner(config, out)
    timings["total_s"] = time.perf_counter() - started
    report = RunReport(config=config, records=records, summary=summary,
                       timings=timings)
    (out / "report.json").write_text(json.dumps(report.to_dict(), indent=2),
                                     encoding="utf-8")
    return report


# --- individual experiments -------------------------------------------------

def _run_solve(cfg: ExperimentConfig, out: Path):
    problem = _resolve_problem(cfg)
    t0 = time.perf_counter()
    solution = percentile_solve(problem, cfg.n_p, cfg.seed)
    solve_s = time.perf_counter() - t0
    write_infoset_csv(solution.info, out / "infoset.csv")
    records = [{"index": i, "cost": float(solution.info.costs[i])}
               for i in range(len(solution.info))]
    summary = {
        "problem": problem.name,
        "n_p": cfg.n_p,
        "best_cost": solution.best.cost,
        "best_index": solution.best_index,
        "best_decision": np.asarray(solution.best.decision).tolist(),
    }
    return records, summary, {"solve_s": solve_s}


def _run_certify(cfg: ExperimentConfig, out: Path):
    problem = _resolve_problem(cfg)
    t0 = time.perf_counter()
    solution = percentile_solve(problem, cfg.n_p, cfg.seed)
    _, cert = certify_solution(problem, solution, cfg.chi, cfg.n_v, cfg.epsilon)
    certify_s = time.perf_counter() - t0
    write_infoset_csv(solution.info, out / "infoset.csv")
    (out / "certificate.json").write_text(certificate_to_json(cert),
                                          encoding="utf-8")
    lo, hi = cert.optimum_interval
    records = [{"v_star": cert.v_star, "solution_cost": cert.solution_cost,
                "epsilon": cert.epsilon, "confidence": cert.confidence,
                "n_v": cert.n_v}]
    summary = {"problem": problem.name, "v_star": cert.v_star,
               "solution_cost": cert.solution_cost,
               "confidence": cert.confidence,
               "optimum_interval": [lo, hi],
               "low_sample_warning": cert.low_sample_warning}
    return records, summary, {"certify_s": certify_s}


def _run_chi_sweep(cfg: ExperimentConfig, out: Path):
    problem = _resolve_problem(cfg)
    t0 = time.perf_counter()
    truth = _ground_truth(cfg, problem)
    oracle_s = time.perf_counter() - t0
    exact = problem.space.cardinality is not None
    sink = _RecordSink(out, cfg, ["trial", "chi", "gap", "p"], ["trial", "chi"])
    for trial in range(cfg.trials):
        solution = None
        for chi in cfg.chis:
            if sink.done(trial=trial, chi=_fmt(float(chi))):
                continue
            if solution is None:
                solution = percentile_solve(problem, cfg.n_p, _rng.child_seed(
                    cfg.seed, _rng.CHI_SWEEP_SOLVE, trial))
                subsample_seed = _rng.child_seed(
                    cfg.seed, _rng.CHI_SWEEP_SUBSAMPLE, trial)
                exceedance_seed = _rng.child_seed(
                    cfg.seed, _rng.CHI_SWEEP_EXCEEDANCE, trial)
                gap = solution.best.cost - truth.value
            model = subsample_info(solution.info, chi, subsample_seed,
                                   problem=problem)
            p = exceedance_probability(
                model, max(gap, 0.0), mode="exact" if exact else "monte-carlo",
                m=cfg.mc_samples, seed=exceedance_seed)
            sink.add({"trial": trial, "chi": float(chi), "gap": gap, "p": p})
    records = sink.finish()
    by_chi = {}
    for rec in records:
        by_chi.setdefault(float(rec["chi"]), []).append(float(rec["p"]))
    mean_p = {chi: float(np.mean(ps)) for chi, ps in sorted(by_chi.items())}
    _write_csv(out / "chi_p.csv", "chi,mean_p",
               (f"{chi!r},{p!r}" for chi, p in mean_p.items()))
    summary = {"problem": problem.name, "oracle_value": truth.value,
               "oracle_method": truth.method, "mode": "exact" if exact else
               f"monte-carlo({cfg.mc_samples})", "mean_p_by_chi": mean_p}
    return records, summary, {"oracle_s": oracle_s}


def _run_table1(cfg: ExperimentConfig, out: Path):
    names = [cfg.benchmark] if cfg.benchmark else list(BENCHMARK_NAMES)
    sink = _RecordSink(out, cfg,
                       ["benchmark", "trial", "v_star", "gap", "success",
                        "certify_ms"],
                       ["benchmark", "trial"])
    oracle_values = {}
    timings = {}
    for name in names:
        problem = make_benchmark(name)
        t0 = time.perf_counter()
        j_star = _ground_truth(cfg, problem).value
        timings[f"oracle_{name}_s"] = time.perf_counter() - t0
        oracle_values[name] = j_star
        for trial in range(cfg.trials):
            if sink.done(benchmark=name, trial=trial):
                continue
            solution = percentile_solve(problem, cfg.n_p, _rng.child_seed(
                cfg.seed, _rng.TABLE1_TRIAL, trial))
            t1 = time.perf_counter()
            _, cert = certify_solution(problem, solution, cfg.chi, cfg.n_v,
                                       cfg.epsilon)
            certify_ms = (time.perf_counter() - t1) * 1e3
            gap = solution.best.cost - j_star
            sink.add({"benchmark": name, "trial": trial, "v_star": cert.v_star,
                      "gap": gap, "success": cert.v_star >= gap,
                      "certify_ms": certify_ms})
    records = sink.finish()
    expected = confidence_of(cfg.epsilon, cfg.n_v)
    summary_rows = {}
    for name in names:
        rows = [r for r in records if r["benchmark"] == name]
        fraction = float(np.mean([r["success"] == "1" for r in rows]))
        mean_ms = float(np.mean([float(r["certify_ms"]) for r in rows]))
        summary_rows[name] = {"success_fraction": fraction,
                              "mean_certify_ms": mean_ms,
                              "oracle_value": oracle_values[name]}
    _write_csv(out / "table1.csv", "name,n_p,n_v,expected_success,"
               "success_fraction,mean_certify_ms",
               (f"{name},{cfg.n_p},{cfg.n_v},{expected!r},"
                f"{row['success_fraction']!r},{row['mean_certify_ms']:.3f}"
                for name, row in summary_rows.items()))
    summary = {"expected_success": expected, "benchmarks": summary_rows,
               "success_fraction": {n: summary_rows[n]["success_fraction"]
                                    for n in names}}
    return records, summary, timings


def _run_tsp_fig2(cfg: ExperimentConfig, out: Path):
    problem = _resolve_problem(cfg)
    if problem.space.cardinality is None:
        raise ConfigError("tsp-fig2 needs a finite (tour) problem")
    t0 = time.perf_counter()
    j_star = _ground_truth(cfg, problem).value
    enumerate_s = time.perf_counter() - t0
    sink = _RecordSink(out, cfg,
                       ["trial", "zeta", "gap", "p", "n_v", "v_star", "success"],
                       ["trial"])
    for trial in range(cfg.trials):
        if sink.done(trial=trial):
            continue
        solution = percentile_solve(problem, cfg.n_p, _rng.child_seed(
            cfg.seed, _rng.TSP_FIG2_TRIAL, trial))
        gap = solution.best.cost - j_star
        model = solution_model(problem, solution, cfg.chi)
        p = exceedance_probability(model, gap)
        n_v, v_star = 0, float("nan")  # no certificate when p = 0
        if p > 0.0:
            n_v = min_samples(p, cfg.confidence)
            v_star = certify_model(model, solution, n_v, p).v_star
        sink.add({"trial": trial, "zeta": solution.best.cost, "gap": gap,
                  "p": p, "n_v": n_v, "v_star": v_star, "success": v_star >= gap})
    records = sink.finish()
    _write_csv(out / "bound_vs_gap.csv", "trial,v_star,true_gap",
               (f"{r['trial']},{r['v_star']},{r['gap']}" for r in records))
    in_order = sorted(records, key=lambda r: int(r["trial"]))
    hits = itertools.accumulate(r["success"] == "1" for r in in_order)
    _write_csv(out / "running_fraction.csv", "trial,fraction",
               (f"{r['trial']},{h / (i + 1)!r}"
                for i, (r, h) in enumerate(zip(in_order, hits))))
    successes = [r["success"] == "1" for r in records]
    summary = {"problem": problem.name, "true_optimum": j_star,
               "confidence": cfg.confidence,
               "success_fraction": float(np.mean(successes)),
               "mean_p": float(np.mean([float(r["p"]) for r in records])),
               "mean_n_v": float(np.mean([int(r["n_v"]) for r in records]))}
    return records, summary, {"enumerate_s": enumerate_s}


_GAP_COLUMNS = ["instance_seed", "solution_cost", "oracle_value", "gamma"]


def _run_mpc_fig4(cfg: ExperimentConfig, out: Path):
    family, oracle = _resolve_family(cfg), _oracle(cfg)
    sink = _RecordSink(out, cfg, ["phase", "n_p", "trial", *_GAP_COLUMNS],
                       ["phase", "n_p", "trial"])

    def phase(name: str, n_p: int, seed: int, tag: int, count: int):
        """Gaps of samples 0..count-1 of one phase, sampling only those the
        sink lacks."""
        for i, s in iter_gap_samples(family, n_p, oracle, seed, tag, count,
                                     sink.trials(phase=name, n_p=n_p)):
            sink.add({"phase": name, "n_p": n_p, "trial": i,
                      **dataclasses.asdict(s)})
        return [float(r["gamma"])
                for r in sink.trials(phase=name, n_p=n_p).values()]

    timings = {}
    summary_rows = {}
    for n_p in cfg.n_p_list:
        base = _rng.child_seed(cfg.seed, _rng.MPC_FIG4_BASE, n_p)
        t0 = time.perf_counter()
        gammas = phase("certify", n_p, base, _rng.FAMILY, cfg.r)
        cert = repetitive.certificate_from_samples(
            gammas, cfg.epsilon, n_p, family.description, base)
        timings[f"certify_np{n_p}_s"] = time.perf_counter() - t0
        (out / f"certificate_np{n_p}.json").write_text(
            certificate_to_json(cert), encoding="utf-8")
        coverage = None
        if cfg.m_validate > 0:
            t1 = time.perf_counter()
            gammas = phase("validate", n_p, base, _rng.VALIDATE, cfg.m_validate)
            coverage = float(np.mean([g <= cert.gamma_star for g in gammas]))
            timings[f"validate_np{n_p}_s"] = time.perf_counter() - t1
        counts, edges = np.histogram(gammas, bins=40)  # validation, else certify
        _write_csv(out / f"fig4_hist_np{n_p}.csv", "bin_left,bin_right,count",
                   (f"{float(edges[i])!r},{float(edges[i + 1])!r},{c}"
                    for i, c in enumerate(counts)))
        summary_rows[str(n_p)] = {"gamma_star": cert.gamma_star,
                                  "coverage": coverage,
                                  "confidence": cert.confidence}
    records = sink.finish()
    _write_csv(out / "fig4_markers.csv", "n_p,gamma_star",
               (f"{n_p},{row['gamma_star']!r}"
                for n_p, row in summary_rows.items()))
    summary = {"family": family.description, "r": cfg.r,
               "epsilon": cfg.epsilon, "by_n_p": summary_rows,
               "coverage": {k: v["coverage"] for k, v in summary_rows.items()
                            if v["coverage"] is not None}}
    return records, summary, timings


def _run_validate(cfg: ExperimentConfig, out: Path):
    family, oracle = _resolve_family(cfg), _oracle(cfg)
    cert_path = Path(cfg.certificate) if cfg.certificate \
        else out / f"certificate_np{cfg.n_p}.json"
    if not cert_path.exists():
        raise ConfigError(f"validate needs a certificate: set 'certificate' or "
                          f"run mpc-fig4 first (looked for {cert_path})")
    cert = repetitive.certificate_from_json(cert_path.read_text(encoding="utf-8"))
    if (cert.n_p, cert.family) != (cfg.n_p, family.description):
        raise ConfigError(
            f"certificate {cert_path} holds family {cert.family!r} at "
            f"n_p={cert.n_p}, but this run samples family "
            f"{family.description!r} at n_p={cfg.n_p}")
    m = cfg.m_validate or cfg.trials
    sink = _RecordSink(out, cfg, ["trial", *_GAP_COLUMNS, "covered"], ["trial"])
    for i, s in iter_gap_samples(family, cfg.n_p, oracle, cfg.seed,
                                 _rng.VALIDATE, m, sink.trials()):
        sink.add({"trial": i, **dataclasses.asdict(s),
                  "covered": s.gamma <= cert.gamma_star})
    records = sink.finish()
    coverage = float(np.mean([r["covered"] == "1" for r in records]))
    summary = {"family": family.description, "gamma_star": cert.gamma_star,
               "m": m, "coverage": coverage}
    return records, summary, {}


_RUNNERS = {
    "solve": _run_solve,
    "certify": _run_certify,
    "chi-sweep": _run_chi_sweep,
    "table1": _run_table1,
    "tsp-fig2": _run_tsp_fig2,
    "mpc-fig4": _run_mpc_fig4,
    "validate": _run_validate,
}


def apply_check(report: RunReport) -> list[str]:
    """Evaluate the config's acceptance thresholds against the summary.

    Supported keys: ``<field>_min`` / ``<field>_max`` where field names a
    numeric summary entry or a dict of numeric entries (all must satisfy the
    bound).  Returns human-readable failure strings, empty when all pass.
    """
    failures = []
    for name, op, bound in _check_bounds(report.config.check):
        value = report.summary.get(name)
        if value is None:
            failures.append(f"check field {name!r} absent from summary")
            continue
        items = value.items() if isinstance(value, dict) else [(name, value)]
        for label, v in items:
            if v is None:
                failures.append(f"{label}: no value to check")
            elif op == "min" and float(v) < float(bound):
                failures.append(f"{label}: {v} < required minimum {bound}")
            elif op == "max" and float(v) > float(bound):
                failures.append(f"{label}: {v} > allowed maximum {bound}")
    return failures
