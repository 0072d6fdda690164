"""Seeded, resumable experiment pipelines emitting machine-readable tables.

Each experiment is described by a config (JSON file or dict), runs fully
deterministically from its seed, flushes per-trial records as it goes so an
interrupted run can resume, and writes its own plot-ready CSV artifacts.
A run resumes only when the output directory's ``config.json`` is
byte-identical to its own and ``records.partial.csv`` starts with its
header line; it keeps the complete rows, cuts off a torn last line, and
computes only the missing trials.  Otherwise it starts over.
Re-running an identical config byte-reproduces every numeric output except
wall-clock timings: the report JSON's ``timings`` and, for table1, the
``certify_ms`` and ``mean_certify_ms`` columns.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _rng, repetitive
from ._version import __version__
from .certifier import DEFAULT_CHI, DEFAULT_EPSILON, certificate_to_json, \
    certify_model, certify_solution, exceedance_costs, exceedance_probability, \
    solution_model, subsample_info
from .mpc import mpc_family
from .percentile import CONFIDENCE, COUNT_FIELD, ENUMERATION_LIMIT, \
    FRACTION, INTEGER, NUMBER, OBJECT, SEED, STRING, Problem, Rule, check, \
    confidence_of, min_samples, percentile_solve, write_infoset_csv
from .problems import BENCHMARK_NAMES, make_benchmark, make_tsp_family, \
    make_tsp_problem, random_tsp_instance, read_tsp_instance
from .repetitive import OracleConfig, ProblemFamily, iter_gap_samples
from .spaces import BoxSpace, TourSpace

SELECTORS = ("benchmark", "tsp_file", "tsp_random")
# The fields each experiment reads besides experiment, seed, out_dir and
# check; a config that sets any other field is refused.
READS = {
    "solve": (*SELECTORS, "n_p"),
    "certify": (*SELECTORS, "n_p", "n_v", "epsilon", "chi"),
    "chi-sweep": (*SELECTORS, "oracle", "n_p", "trials", "chis", "mc_samples"),
    "table1": ("benchmark", "oracle", "n_p", "n_v", "epsilon", "chi", "trials"),
    "tsp-fig2": ("tsp_file", "tsp_random", "oracle", "n_p", "chi", "trials",
                 "confidence"),
    "mpc-fig4": ("family", "oracle", "n_p_list", "r", "epsilon", "m_validate"),
    "validate": ("family", "oracle", "certificate", "n_p", "m_validate"),
}
EXPERIMENTS = tuple(READS)
RECORDS = {  # experiment: (records.csv columns, its leading key columns)
    "chi-sweep": (["trial", "chi", "gap", "p"], ["trial", "chi"]),
    "table1": (["benchmark", "trial", "v_star", "gap", "success",
                "certify_ms"], ["benchmark", "trial"]),
    "tsp-fig2": (["trial", "zeta", "gap", "p", "n_v", "v_star", "success"],
                 ["trial"]),
    "mpc-fig4": (["phase", "n_p", "trial", "instance_seed", "solution_cost",
                  "oracle_value", "gamma"], ["phase", "n_p", "trial"]),
    "validate": (["trial", "instance_seed", "solution_cost", "oracle_value",
                  "gamma", "covered"], ["trial"]),
}
GAP_EXPERIMENTS = tuple(e for e in READS if "family" in READS[e])


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


# The rule of each config field but experiment, family, oracle and check,
# which are checked by their structure, and of each oracle key and check
# bound (percentile.check).  Each of LISTS is a non-empty list of values
# that meet the field's rule.  validate also needs m_validate >= 1.
NULLABLE_STRING = STRING._replace(types=(str, type(None)))
FIELD_RULES = {
    "seed": SEED, "out_dir": STRING, "benchmark": NULLABLE_STRING,
    "tsp_file": NULLABLE_STRING, "certificate": NULLABLE_STRING,
    "n_p": COUNT_FIELD, "n_v": COUNT_FIELD, "trials": COUNT_FIELD,
    "r": COUNT_FIELD, "mc_samples": COUNT_FIELD,
    "m_validate": Rule(INTEGER, lambda v: v >= 0, "an integer >= 0"),
    "tsp_random": Rule((*INTEGER, type(None)), lambda v: v is None or v >= 2,
                       "an integer >= 2"),
    "epsilon": FRACTION, "chi": FRACTION, "confidence": CONFIDENCE,
    "chis": FRACTION, "n_p_list": COUNT_FIELD}
LISTS, LIST = ("chis", "n_p_list"), Rule((list,), len, "a non-empty list")
ORACLE_RULES = {"method": STRING, "n0": COUNT_FIELD, "gap_tolerance": Rule(
    NUMBER, lambda v: v >= 0.0, "a number in [0, inf)")}
BOUND = Rule(NUMBER, math.isfinite, "a number in (-inf, inf)")


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
        cfg.validate(raw)
        return cfg

    def validate(self, fields) -> None:
        """Check every field's type and range, refuse a set field (one of
        ``fields``) that the experiment does not read, then build the
        problem, family and oracle once."""
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}, "
                              f"got {self.experiment!r}")
        for name, rule in FIELD_RULES.items():
            values = getattr(self, name)
            if name in LISTS:
                check(LIST, name, values, ConfigError)
            for value in values if name in LISTS else [values]:
                check(rule, name, value, ConfigError)
        if self.experiment == "validate":
            check(COUNT_FIELD, "m_validate", self.m_validate, ConfigError)
        _check_bounds(self.check)
        n = str(self.family).removeprefix("tsp:")
        if self.family not in (None, "mpc", "uniform-gaps") and not (
                str(self.family).startswith("tsp:") and n.isdecimal()
                and int(n) >= 2):
            raise ConfigError(f"family must be 'mpc', 'uniform-gaps' or "
                              f"'tsp:<n>' with n >= 2, got {self.family!r}")
        check(OBJECT, "oracle", self.oracle, ConfigError)
        unknown = set(self.oracle) - set(ORACLE_RULES)
        if unknown:
            raise ConfigError(f"unknown oracle fields: {sorted(unknown)}")
        for key, value in self.oracle.items():
            check(ORACLE_RULES[key], f"oracle.{key}", value, ConfigError)
        reads = READS[self.experiment]
        unread = sorted(set(fields) - {"experiment", "seed", "out_dir",
                                       "check", *reads})
        if unread:
            raise ConfigError(f"experiment {self.experiment!r} does not read "
                              f"{unread}; it reads {list(reads)}")
        if self.experiment in GAP_EXPERIMENTS and self.family is None:
            self.family = "mpc"
        self.problem, self.problem_family, self.oracle_config  # each checks

    @functools.cached_property
    def problem(self) -> Problem | None:
        """The selected problem, read and built once; None where none is
        needed.  An error reading or building the problem is a ConfigError
        naming the selector."""
        takes = [name for name in SELECTORS if name in READS[self.experiment]]
        selectors = [name for name in takes if getattr(self, name) is not None]
        if len(selectors) > 1:
            raise ConfigError(f"set at most one problem selector, got "
                              f"{selectors}")
        if not selectors:
            if self.experiment == "table1" or not takes:
                return None
            raise ConfigError(f"experiment {self.experiment!r} needs a "
                              f"problem: set {' or '.join(map(repr, takes))}")
        name, value = selectors[0], getattr(self, selectors[0])
        try:
            if name == "benchmark":
                return make_benchmark(value)
            if name == "tsp_file":
                return make_tsp_problem(read_tsp_instance(value))
            return make_tsp_problem(random_tsp_instance(value, self.seed))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"{name} {value!r}: {type(exc).__name__}: "
                              f"{exc}") from exc

    @functools.cached_property
    def problem_family(self) -> ProblemFamily | None:
        """The family named by ``family``, built once; None when unset."""
        if self.family == "mpc":
            return mpc_family()
        if self.family == "uniform-gaps":
            return uniform_gap_family()
        if self.family is not None:
            return make_tsp_family(int(self.family.removeprefix("tsp:")))
        return None

    @functools.cached_property
    def oracle_config(self) -> OracleConfig | None:
        """The run's ground-truth oracle, built once from ``oracle``; None
        where the experiment reads no oracle.  Defaults: the first of its
        methods, n0 = 2000 for gap sampling and 20000 on one problem, and a
        gap tolerance of 1.0 on mpc, whose cost takes grid-distance steps."""
        if "oracle" not in READS[self.experiment]:
            return None
        raw, gaps = self.oracle, self.experiment in GAP_EXPERIMENTS
        # the field naming the oracle's input (benchmark None: all of them)
        name = next((n for n in ("family", *SELECTORS)
                     if getattr(self, n) is not None), "benchmark")
        value = getattr(self, name)
        methods = ORACLE_METHODS[value.split(":")[0] if gaps
                                 else name.split("_")[0]]  # tsp_*: "tsp"
        method = raw.get("method", methods[0])
        if method not in methods:
            raise ConfigError(f"oracle.method {method!r} cannot run on {name} "
                              f"{value!r}; use one of {methods}")
        reads = {"method": True, "n0": method == "refine-min",
                 "gap_tolerance": gaps}  # the one rule for oracle keys
        for key in raw:
            if not reads[key]:
                raise ConfigError(f"{self.experiment!r} with oracle.method "
                                  f"{method!r} does not read oracle.{key}")
        if method == "exhaustive":  # a tour problem or family tsp:<n>
            space = TourSpace(int(value[4:])) if gaps else self.problem.space
            if space.cardinality > ENUMERATION_LIMIT:
                raise ConfigError(f"{name} {value!r}: space cardinality "
                                  f"{space.cardinality} exceeds the "
                                  f"enumeration limit {ENUMERATION_LIMIT}")
        mpc = gaps and self.family == "mpc"
        return OracleConfig(method, raw.get("n0", 2000 if gaps else 20000),
                            raw.get("gap_tolerance", 1.0 if mpc else None))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _check_bounds(bounds) -> list[tuple[str, str, float]]:
    """The (summary field, "min" or "max", bound) of each ``check`` entry;
    each key ends in ``_min`` or ``_max`` and each bound is a finite number."""
    check(OBJECT, "check", bounds, ConfigError)
    for key, bound in bounds.items():
        if not (isinstance(key, str) and key.endswith(("_min", "_max"))):
            raise ConfigError(f"check key {key!r} must end with _min or _max")
        check(BOUND, f"check.{key}", bound, ConfigError)
    return [(key[:-4], key[-3:], bound) for key, bound in bounds.items()]


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


# The oracle methods each kind of problem can run, the default first: tour
# spaces have no bounds for refine-min, and mpc declares no optimum.
ORACLE_METHODS = {"mpc": ("refine-min",), "tsp": ("exhaustive",),
                  "uniform-gaps": ("declared", "refine-min"),
                  "benchmark": ("refine-min", "declared")}


def _ground_truth(cfg: ExperimentConfig, problem: Problem, timings: dict):
    """The run's oracle result on one problem, at the seed's ORACLE child;
    its wall time goes to ``timings["oracle_<problem name>_s"]``."""
    t0 = time.perf_counter()
    truth = cfg.oracle_config.run(problem,
                                  _rng.child_seed(cfg.seed, _rng.ORACLE))
    timings[f"oracle_{problem.name}_s"] = time.perf_counter() - t0
    return truth


def uniform_gap_family() -> ProblemFamily:
    """Synthetic family whose measured gap is exactly Uniform(0, 1): each
    instance has constant cost u and a declared optimum of 0."""

    def build(instance_seed: int) -> Problem:
        u = float(_rng.stream(instance_seed, _rng.FAMILY).random())
        return Problem(space=BoxSpace([0.0], [1.0]),
                       batch_cost=lambda d, _u=u: np.full(len(d), _u),
                       name=f"uniform-gap-{instance_seed}",
                       declared_optimum=0.0)

    return ProblemFamily(build=build, description="uniform-gaps")


class _RecordSink:
    """Per-trial record store with crash-recovery flushing and resume.

    ``run`` builds a run's one sink from ``RECORDS`` and closes its file on
    every exit; a run that raises keeps ``records.partial.csv`` to resume
    (module docstring).  Runners compute only the ``pending`` trials, and
    ``finish`` sorts by key, so resumed and fresh runs give the same bytes.
    """

    def __init__(self, out_dir: Path, config: ExperimentConfig, columns: list[str],
                 key_cols: list[str]):
        self.out = out_dir
        self.columns = columns
        self._keys = len(key_cols)  # RECORDS puts the key columns first
        self.records: dict[tuple, dict] = {}
        self._partial = out_dir / "records.partial.csv"
        config_path = out_dir / "config.json"
        config_text = json.dumps(config.to_dict(), indent=2, sort_keys=True)
        header = ",".join(columns) + "\n"
        complete = b""
        if config_path.exists() and self._partial.exists() \
                and config_path.read_text(encoding="utf-8") == config_text:
            data = self._partial.read_bytes()
            complete = data[:data.rfind(b"\n") + 1]
        if complete.startswith(header.encode("utf-8")):
            os.truncate(self._partial, len(complete))  # a crash's torn tail
            for line in complete.decode("utf-8").splitlines()[1:]:
                self._keep(line.split(","))
        else:  # start over
            (out_dir / "records.csv").unlink(missing_ok=True)
            self._partial.write_text(header, encoding="utf-8", newline="")
        config_path.write_text(config_text, encoding="utf-8")
        self._fh = self._partial.open("a", encoding="utf-8", newline="")

    def _keep(self, row: list[str]) -> None:
        self.records[tuple(row[:self._keys])] = dict(zip(self.columns, row))

    def trials(self, **key) -> dict[int, dict]:
        """Records matching the given key values, by trial number."""
        return {int(r["trial"]): r for r in self.records.values()
                if all(r[k] == str(v) for k, v in key.items())}

    def pending(self, count: int, **key) -> list[int]:
        """The trials below ``count`` with no record under the key values,
        in ascending order: the only trials a run computes."""
        done = self.trials(**key)
        return [trial for trial in range(count) if trial not in done]

    def add(self, rec: dict) -> None:
        row = [_fmt(rec[k]) for k in self.columns]
        self._keep(row)
        self._fh.write(",".join(row) + "\n")
        self._fh.flush()

    def finish(self) -> list[dict]:
        """Write records.csv; return the records sorted by string key ("10" < "2")."""
        rows = [self.records[k] for k in sorted(self.records)]
        _write_csv(self.out / "records.csv", ",".join(self.columns),
                   (",".join(rec[c] for c in self.columns) for rec in rows))
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


def _mean(rows, column: str) -> float:
    """A record column's mean, read back as floats: a 0/1 column's rate."""
    return float(np.mean([float(r[column]) for r in rows]))


def read_config(path=None, **overrides) -> dict:
    """The config at ``path`` (none: {}), updated by the non-None overrides."""
    raw = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config file {path}: {exc}") from exc
        check(OBJECT, "the config file", raw, ConfigError)
    return {**raw, **{k: v for k, v in overrides.items() if v is not None}}


def run(raw: dict, out_dir=None) -> RunReport:
    """Validate the config dict, execute its experiment and write its
    artifacts.

    Returns the report; the runner writes records.csv and its plot files,
    and this writes report.json, all under the output directory.  A config
    that fails validation, or a ``validate`` run whose certificate cannot be
    read or does not match, or an ``out_dir`` that cannot be a directory,
    raises ConfigError before the directory is made.
    """
    config = ExperimentConfig.from_dict(raw)
    out = Path(out_dir if out_dir is not None else config.out_dir)
    runner = _RUNNERS[config.experiment]
    if config.experiment == "validate":
        runner = functools.partial(runner, cert=_stored_certificate(config, out))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out_dir {str(out)!r}: {exc}") from exc
    started = time.perf_counter()
    if config.experiment not in RECORDS:
        records, summary, timings = runner(config, out)
    else:
        sink = _RecordSink(out, config, *RECORDS[config.experiment])
        with sink._fh:  # closed on every exit; a raise keeps the partial file
            records, summary, timings = runner(config, out, sink)
        sink._partial.unlink(missing_ok=True)
    timings["total_s"] = time.perf_counter() - started
    report = RunReport(config=config, records=records, summary=summary,
                       timings=timings)
    (out / "report.json").write_text(json.dumps(report.to_dict(), indent=2),
                                     encoding="utf-8")
    return report


# --- individual experiments -------------------------------------------------

def _run_solve(cfg: ExperimentConfig, out: Path):
    problem = cfg.problem
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
    problem = cfg.problem
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


def _run_chi_sweep(cfg: ExperimentConfig, out: Path, sink: _RecordSink):
    problem, timings = cfg.problem, {}
    truth = _ground_truth(cfg, problem, timings)
    pending = {}  # trial -> its pending chis, each distinct chi once
    for chi in dict.fromkeys(map(float, cfg.chis)):
        for trial in sink.pending(cfg.trials, chi=chi):
            pending.setdefault(trial, []).append(chi)
    for trial in sorted(pending):
        solution = percentile_solve(problem, cfg.n_p, _rng.child_seed(
            cfg.seed, _rng.CHI_SWEEP_SOLVE, trial))
        subsample_seed = _rng.child_seed(cfg.seed, _rng.CHI_SWEEP_SUBSAMPLE,
                                         trial)
        exceedance_seed = _rng.child_seed(cfg.seed, _rng.CHI_SWEEP_EXCEEDANCE,
                                          trial)
        gap = cfg.oracle_config.gap(solution.best.cost, truth.value,
                                    f"{problem.name} trial {trial}")
        costs = exceedance_costs(problem, cfg.mc_samples, exceedance_seed)
        for chi in pending[trial]:
            model = subsample_info(solution.info, chi, subsample_seed,
                                   problem=problem)
            p = exceedance_probability(model, gap, costs=costs)
            sink.add({"trial": trial, "chi": chi, "gap": gap, "p": p})
    records = sink.finish()
    mean_p = {chi: _mean([r for r in records if float(r["chi"]) == chi], "p")
              for chi in sorted({float(r["chi"]) for r in records})}
    _write_csv(out / "chi_p.csv", "chi,mean_p",
               (f"{chi!r},{p!r}" for chi, p in mean_p.items()))
    summary = {"problem": problem.name, "oracle_value": truth.value,
               "oracle_method": truth.method,
               "mode": "exact" if problem.space.cardinality is not None
               else f"monte-carlo({cfg.mc_samples})", "mean_p_by_chi": mean_p}
    return records, summary, timings


def _run_table1(cfg: ExperimentConfig, out: Path, sink: _RecordSink):
    problems = ([cfg.problem] if cfg.problem is not None
                else [make_benchmark(name) for name in BENCHMARK_NAMES])
    oracle_values, timings = {}, {}
    for problem in problems:
        name = problem.name
        j_star = oracle_values[name] = _ground_truth(cfg, problem, timings).value
        for trial in sink.pending(cfg.trials, benchmark=name):
            solution = percentile_solve(problem, cfg.n_p, _rng.child_seed(
                cfg.seed, _rng.TABLE1_TRIAL, trial))
            t1 = time.perf_counter()
            _, cert = certify_solution(problem, solution, cfg.chi, cfg.n_v,
                                       cfg.epsilon)
            certify_ms = (time.perf_counter() - t1) * 1e3
            gap = cfg.oracle_config.gap(solution.best.cost, j_star,
                                        f"{name} trial {trial}")
            sink.add({"benchmark": name, "trial": trial, "v_star": cert.v_star,
                      "gap": gap, "success": cert.v_star >= gap,
                      "certify_ms": certify_ms})
    records = sink.finish()
    expected = confidence_of(cfg.epsilon, cfg.n_v)
    summary_rows = {}
    for name in oracle_values:
        rows = [r for r in records if r["benchmark"] == name]
        summary_rows[name] = {"success_fraction": _mean(rows, "success"),
                              "mean_certify_ms": _mean(rows, "certify_ms"),
                              "oracle_value": oracle_values[name]}
    _write_csv(out / "table1.csv", "name,n_p,n_v,expected_success,"
               "success_fraction,mean_certify_ms",
               (f"{name},{cfg.n_p},{cfg.n_v},{expected!r},"
                f"{row['success_fraction']!r},{row['mean_certify_ms']:.3f}"
                for name, row in summary_rows.items()))
    summary = {"expected_success": expected, "benchmarks": summary_rows,
               "success_fraction": {n: summary_rows[n]["success_fraction"]
                                    for n in summary_rows}}
    return records, summary, timings


def _run_tsp_fig2(cfg: ExperimentConfig, out: Path, sink: _RecordSink):
    problem, timings = cfg.problem, {}
    j_star = _ground_truth(cfg, problem, timings).value
    costs = exceedance_costs(problem)  # every tour's cost, sorted once
    for trial in sink.pending(cfg.trials):
        solution = percentile_solve(problem, cfg.n_p, _rng.child_seed(
            cfg.seed, _rng.TSP_FIG2_TRIAL, trial))
        gap = cfg.oracle_config.gap(solution.best.cost, j_star,
                                    f"{problem.name} trial {trial}")
        model = solution_model(problem, solution, cfg.chi)
        p = exceedance_probability(model, gap, costs=costs)
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
    hits = itertools.accumulate(float(r["success"]) for r in in_order)
    _write_csv(out / "running_fraction.csv", "trial,fraction",
               (f"{r['trial']},{h / (i + 1)!r}"
                for i, (r, h) in enumerate(zip(in_order, hits))))
    summary = {"problem": problem.name, "true_optimum": j_star,
               "confidence": cfg.confidence,
               "success_fraction": _mean(records, "success"),
               "mean_p": _mean(records, "p"), "mean_n_v": _mean(records, "n_v")}
    return records, summary, timings


def _run_mpc_fig4(cfg: ExperimentConfig, out: Path, sink: _RecordSink):
    family, oracle = cfg.problem_family, cfg.oracle_config

    def phase(name: str, n_p: int, seed: int, tag: int, count: int):
        """Gaps of samples 0..count-1 of one phase, sampling only those the
        sink lacks."""
        for i, s in iter_gap_samples(family, n_p, oracle, seed, tag,
                                     sink.pending(count, phase=name, n_p=n_p)):
            sink.add({"phase": name, "n_p": n_p, "trial": i,
                      **vars(s)})
        return [float(r["gamma"])
                for r in sink.trials(phase=name, n_p=n_p).values()]

    timings, summary_rows = {}, {}
    for n_p in dict.fromkeys(cfg.n_p_list):  # each distinct n_p once
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
            coverage = float(np.mean([cert.covers(g) for g in gammas]))
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


def _stored_certificate(cfg: ExperimentConfig, out: Path):
    """validate's ``certificate`` (default: ``certificate_np<n_p>.json`` in
    the output directory), read and matched to the run's family and n_p."""
    cert_path = Path(cfg.certificate) if cfg.certificate \
        else out / f"certificate_np{cfg.n_p}.json"
    try:
        cert = repetitive.certificate_from_json(
            cert_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"certificate {cert_path}: {type(exc).__name__}: "
                          f"{exc}") from exc
    family = cfg.problem_family
    if (cert.n_p, cert.family) != (cfg.n_p, family.description):
        raise ConfigError(
            f"certificate {cert_path} holds family {cert.family!r} at "
            f"n_p={cert.n_p}, but this run samples family "
            f"{family.description!r} at n_p={cfg.n_p}")
    return cert


def _run_validate(cfg: ExperimentConfig, out: Path, sink: _RecordSink, cert):
    family, oracle = cfg.problem_family, cfg.oracle_config
    for i, s in iter_gap_samples(family, cfg.n_p, oracle, cfg.seed,
                                 _rng.VALIDATE, sink.pending(cfg.m_validate)):
        sink.add({"trial": i, **vars(s),
                  "covered": cert.covers(s.gamma)})
    records = sink.finish()
    summary = {"family": family.description, "gamma_star": cert.gamma_star,
               "m": cfg.m_validate, "coverage": _mean(records, "covered")}
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
    numeric summary entry or a non-empty dict of numeric entries (all must
    satisfy the bound).  Returns human-readable failure strings, empty when
    all pass; a value that is not a real number, or an empty dict, is a
    failure.
    """
    failures = []
    for name, op, bound in _check_bounds(report.config.check):
        value = report.summary.get(name)
        if value is None:
            failures.append(f"check field {name!r} absent from summary")
            continue
        if isinstance(value, dict) and not value:
            failures.append(f"{name}: no values to check")
        items = value.items() if isinstance(value, dict) else [(name, value)]
        for label, v in items:
            if v is None:
                failures.append(f"{label}: no value to check")
            elif not isinstance(v, NUMBER):
                failures.append(f"{label}: {v!r} is not a number")
            elif op == "min" and float(v) < float(bound):
                failures.append(f"{label}: {v} < required minimum {bound}")
            elif op == "max" and float(v) > float(bound):
                failures.append(f"{label}: {v} > allowed maximum {bound}")
    return failures
