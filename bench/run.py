"""gapcert benchmark: three closed-loop workloads and a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload certify --seed 0 --seconds 30 --trace 0
    python3 bench/run.py            # every workload, untraced then traced

One invocation runs one workload in this single process, as a closed loop
with one caller and no threads, with BLAS/OpenMP pinned to one thread.  The
seed is the only input; every problem instance is generated from it.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
holds provenance and details.  End-to-end times are host-adjusted by a
reference kernel timed throughout the run; the raw wall-clock figures are in
the details.  bench/DESIGN.md explains the workloads, the metrics and what
each should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS/OpenMP thread; set before numpy loads its libraries.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("certify", "mpc-family", "tsp-exact")
SETUP_PROBES = 12        # setup probes, spread over the timed loop
MISS_INSTANCES = 200      # instances checked for oracle misses per traced run
MISS_SAMPLES = 50_000     # dense samples per instance for that check
MISS_TAG = 0xB3           # benchmark-owned stream tag, disjoint from gapcert's
TRACE_BLOCK_S = 1.0       # traced run: seconds per traced block
REF_EVERY_S = 0.5         # untraced run: loop seconds between reference timings
REF_NOMINAL_S = 0.018     # reference kernel seconds that adjusted times assume


def import_gapcert():
    """Import gapcert from this checkout's ``src``, never from elsewhere."""
    pkg = SRC / "gapcert"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"bench: {pkg} is missing; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import gapcert
    if Path(gapcert.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"bench: imported gapcert from {gapcert.__file__}, not {pkg}")
    return gapcert


@dataclass
class Step:
    """Outcome of one loop step: ``ops`` ops, of which ``failed`` failed a
    check, their latencies, and a fingerprint for the replay check."""

    ops: int
    failed: int
    latencies: list
    fingerprint: object
    instances: tuple = ()


class Certify:
    """Criterion-3 shape: solve, subsample and certify at n_p = n_v = 300,
    cycling over the six continuous benchmarks (2-D to 10-D)."""

    ops_per_step = 1
    replay_every = 50

    def __init__(self, g, seed: int):
        self.g, self.seed = g, seed
        self.problems = [g.make_benchmark(n) for n in g.BENCHMARK_NAMES]
        self.confidence = g.confidence_of(0.01, 300)

    def warm_up(self) -> None:
        for i in range(len(self.problems)):
            self.step(i)

    def step(self, i: int) -> Step:
        g, rng = self.g, self.g._rng
        problem = self.problems[i % len(self.problems)]
        t0 = time.perf_counter()
        seed = rng.child_seed(self.seed, 3, i)
        sol = g.percentile_solve(problem, 300, seed)
        model = g.subsample_info(sol.info, 0.1, rng.child_seed(seed, rng.SUBSAMPLE),
                                 problem=problem)
        cert = g.certify_gap(model, 300, 0.01, rng.child_seed(seed, rng.CERTIFY))
        dt = time.perf_counter() - t0
        ok = (cert.v_star >= 0.0 and cert.confidence == self.confidence
              and sol.best.cost >= problem.declared_optimum)
        return Step(1, int(not ok), [dt],
                    (problem.name, sol.best_index, sol.best.cost, cert.v_star,
                     cert.d_indices))


class TspExact:
    """Criterion-2 shape on a fresh tsp-9 instance per op: exact minimum,
    percentile solve at n_p = 1000, exact exceedance p at the true gap, and a
    certificate at n_v = min_samples(p, 0.999) when p > 0."""

    ops_per_step = 1
    replay_every = 1000

    def __init__(self, g, seed: int):
        self.g, self.seed = g, seed
        # Tour cost is invariant under the 9 rotations and 2 directions of a
        # tour, so a nonzero p is at least 18/9! and no op certifies at more
        # than this many samples.
        self.p_min = 18 / math.factorial(9)
        self.n_v_max = g.min_samples(self.p_min, 0.999)

    def warm_up(self) -> None:
        """One certificate at the largest n_v any op can need, so that the
        run's peak memory does not hinge on which instances the seed draws."""
        g, rng = self.g, self.g._rng
        seed = rng.child_seed(self.seed, 2, 0)
        problem = g.make_tsp_problem(g.random_tsp_instance(9, seed))
        sol = g.percentile_solve(problem, 1000, seed)
        model = g.subsample_info(sol.info, 0.1, rng.child_seed(seed, rng.SUBSAMPLE),
                                 problem=problem)
        g.certify_gap(model, self.n_v_max, self.p_min,
                      rng.child_seed(seed, rng.CERTIFY))

    def step(self, i: int) -> Step:
        g, rng = self.g, self.g._rng
        t0 = time.perf_counter()
        seed = rng.child_seed(self.seed, 2, i)
        problem = g.make_tsp_problem(g.random_tsp_instance(9, seed))
        exact = g.exhaustive_min(problem)
        sol = g.percentile_solve(problem, 1000, seed)
        model = g.subsample_info(sol.info, 0.1, rng.child_seed(seed, rng.SUBSAMPLE),
                                 problem=problem)
        p = g.exceedance_probability(model, sol.best.cost - exact.value)
        cert = None
        if p > 0:
            cert = g.certify_gap(model, g.min_samples(p, 0.999), p,
                                 rng.child_seed(seed, rng.CERTIFY))
        dt = time.perf_counter() - t0
        ok = (exact.value <= float(sol.info.costs.min()) and 0.0 <= p <= 1.0
              and (cert is None or cert.v_star >= 0.0))
        return Step(1, int(not ok), [dt],
                    (exact.value, sol.best.cost, p,
                     None if cert is None else (cert.n_v, cert.v_star)))


class MpcFamily:
    """Criterion-6 shape: ``gapcert.run`` on an mpc-fig4 config (certify and
    validate phases at n_p = 300, refine-min oracle) into a fresh directory.
    One op is one gap sample; one step is one run of R + M samples."""

    replay_every = 1000
    R, M = 20, 20
    ops_per_step = R + M

    def __init__(self, g, seed: int):
        self.g, self.seed = g, seed
        self.config = {
            "experiment": "mpc-fig4", "family": "mpc", "r": self.R,
            "epsilon": 0.01, "n_p_list": [300], "m_validate": self.M,
            "oracle": {"method": "refine-min", "n0": 2000, "gap_tolerance": 1.0},
        }
        self.family = g.mpc_family()
        self.op_times: list[float] = []
        self.failing_call: tuple | None = None
        # step -> (arguments of the sample_gap call that raised, ops run)
        self.undercuts: dict[int, tuple] = {}
        self.records_bytes = 0

    def warm_up(self) -> None:
        pass

    def sample_gap_timer(self):
        """Wrap ``sample_gap`` so each call's wall time goes to op_times and
        the arguments of a call that raises OracleError are kept."""
        g, fn, clock = self.g, self.g.repetitive.sample_gap, time.perf_counter

        def timed(*args):
            t0 = clock()
            try:
                return fn(*args)
            except g.OracleError:
                self.failing_call = args
                raise
            finally:
                self.op_times.append(clock() - t0)

        return tracing.replace_everywhere(fn, timed)

    def undercut_is_real(self, call: tuple) -> bool:
        """sample_gap raises OracleError, by its contract, when the percentile
        solution costs more than the tolerance below the oracle's value.
        Check that claim from the instance up: the solution's decision lies
        in the space, re-evaluates to its recorded cost, and that cost
        undercuts the oracle's value by more than the tolerance, so the
        oracle really missed the minimum."""
        g, rng = self.g, self.g._rng
        family, n_p, oracle_cfg, seed = call
        problem = family.instance(rng.child_seed(seed, rng.GAP_INSTANCE))
        best = g.percentile_solve(problem, n_p,
                                  rng.child_seed(seed, rng.GAP_SOLVE)).best
        cost = float(problem.evaluate_batch(best.decision[None])[0])
        oracle = oracle_cfg.run(problem, rng.child_seed(seed, rng.GAP_ORACLE))
        return (problem.space.contains(best.decision) and cost == best.cost
                and cost < oracle.value - oracle_cfg.tolerance)

    def false_undercut_ops(self) -> int:
        """Ops of the runs stopped by an OracleError whose claim fails."""
        return sum(ops for call, ops in self.undercuts.values()
                   if not self.undercut_is_real(call))

    def step(self, i: int) -> Step:
        g = self.g
        config = {**self.config, "seed": g._rng.child_seed(self.seed, 6, i)}
        out = Path(tempfile.mkdtemp(prefix="mpc-", dir=OUT))
        self.op_times.clear()
        self.failing_call = None
        undo = self.sample_gap_timer()
        try:
            g.run(config, out_dir=out)
            records = (out / "records.csv").read_text(encoding="utf-8")
            cert_text = (out / "certificate_np300.json").read_text(encoding="utf-8")
        except g.OracleError as err:
            # The run stops at the sample whose oracle was undercut.  That is
            # the program's specified answer, not a fault, when the undercut
            # is real; it is counted as an oracle miss.  The claim is checked
            # after the loop, by false_undercut_ops, so that check is neither
            # timed nor traced.
            ops = len(self.op_times)
            self.undercuts[i] = (self.failing_call, ops)
            return Step(ops, 0, list(self.op_times), ("OracleError", str(err)))
        finally:
            tracing.restore(undo)
            shutil.rmtree(out)
        self.records_bytes += len(records.encode("utf-8"))
        header, *lines = records.splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        gammas = [float(r["gamma"]) for r in rows]
        certify = [float(r["gamma"]) for r in rows if r["phase"] == "certify"]
        ok = (len(rows) == self.R + self.M and min(gammas) >= 0.0
              and json.loads(cert_text)["gamma_star"] == max(certify))
        instances = tuple((int(r["instance_seed"]), float(r["oracle_value"]))
                          for r in rows)
        return Step(len(rows), 0 if ok else len(rows), list(self.op_times),
                    (records, cert_text), instances)


WORKLOAD_CLASSES = {"certify": Certify, "mpc-family": MpcFamily,
                    "tsp-exact": TspExact}


@dataclass
class Loop:
    """Totals of one closed loop; per-step outputs are kept only for the
    steps that will be replayed, so memory does not grow with throughput."""

    steps: int = 0
    attempted: int = 0
    failed: int = 0
    raised: int = 0
    elapsed: float = 0.0
    latencies: list = field(default_factory=list)
    fingerprints: dict = field(default_factory=dict)
    instances: list = field(default_factory=list)


def closed_loop(work, seconds: float = 0.0, n_steps: int | None = None,
                keep_every: int = 1, loop: Loop | None = None) -> Loop:
    """Run steps back to back, continuing ``loop`` if given, until
    ``seconds`` have passed (the step in flight finishes) or the loop holds
    ``n_steps`` steps."""
    loop = Loop() if loop is None else loop
    t0 = time.perf_counter()
    deadline = t0 + seconds
    while n_steps is None or loop.steps < n_steps:
        i = loop.steps
        try:
            st = work.step(i)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            st = Step(work.ops_per_step, work.ops_per_step, [], None)
            loop.raised += st.ops
        loop.steps += 1
        loop.attempted += st.ops
        loop.failed += st.failed
        loop.latencies += st.latencies
        if i % keep_every == 0 and st.fingerprint is not None:
            loop.fingerprints[i] = (st.ops - st.failed, st.fingerprint)
        if len(loop.instances) < MISS_INSTANCES:
            loop.instances += st.instances[:MISS_INSTANCES - len(loop.instances)]
        if n_steps is None and time.perf_counter() >= deadline:
            break
    loop.elapsed += time.perf_counter() - t0
    return loop


def replay_failures(work, loop: Loop) -> int:
    """Re-run the kept steps and count ops whose outputs are not
    bit-identical to the first run (seeded outputs are a contract)."""
    failed = 0
    for i, (good_ops, fingerprint) in loop.fingerprints.items():
        try:
            again = work.step(i).fingerprint
        except Exception:
            traceback.print_exc(file=sys.stderr)
            again = None
        if again != fingerprint:
            print(f"bench: step {i} did not replay bit-identically", file=sys.stderr)
            failed += good_ops
    return failed


class Reference:
    """A fixed kernel, independent of gapcert and of the seed, timed between
    blocks of the loop to gauge how fast the shared host runs at that moment.
    It mixes what the workloads spend their time on: a sort and a matrix
    product over arrays, and a Python loop of small numpy calls."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.random((160, 160))
        self.vector = rng.random(60_000)
        self.rows = rng.random((1500, 8))
        self.seconds()

    def seconds(self) -> float:
        t0 = time.perf_counter()
        for _ in range(3):
            np.sort(self.vector)
            self.matrix @ self.matrix
            total = 0.0
            for row in self.rows:
                total += float(np.minimum(row, 0.5).sum())
        return time.perf_counter() - t0


def setup_probe(workload: str) -> float:
    """Seconds from process start to the first op being ready (interpreter
    start, imports and workload construction), on a fresh child process."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                           "--probe", workload],
                          stdout=subprocess.PIPE, cwd=ROOT) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
        child.wait(timeout=120)
    if child.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"setup probe for {workload} failed")
    return elapsed


def oracle_misses(work: MpcFamily, instances) -> tuple[int, int]:
    """Instances where the best of MISS_SAMPLES dense samples, drawn from a
    benchmark-owned stream, beats the oracle value the run recorded."""
    misses = 0
    for instance_seed, oracle_value in instances:
        problem = work.family.instance(instance_seed)
        best = float("inf")
        for k in range(0, MISS_SAMPLES, 10_000):
            w = problem.space.sample(instance_seed, 10_000, path=(MISS_TAG, k))
            best = min(best, float(problem.evaluate_batch(w).min()))
        misses += best < oracle_value
    return misses, len(instances)


def percentile_ms(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) * 1e3


def provenance(g, workload: str, seed: int, seconds: float, trace: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gapcert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "gapcert": g.__version__, "git_commit": git_commit(),
            "source_sha256": digest.hexdigest()}


def git_commit() -> str | None:
    """HEAD of the checkout; None outside a git work tree or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def untraced_run(g, workload: str, seed: int, seconds: float):
    """The timed loop, cut into SETUP_PROBES blocks with one setup probe
    before each; the probes are outside the loop's elapsed time.

    The reference kernel is timed before and after every probe and every
    REF_EVERY_S of loop.  Each stretch of loop and each probe is scaled by
    REF_NOMINAL_S over the mean of the two reference times around it, so the
    time metrics read as on a host where the reference takes REF_NOMINAL_S.
    The raw wall-clock figures go to the details.
    """
    work = WORKLOAD_CLASSES[workload](g, seed)
    work.warm_up()
    ref = Reference()
    refs = [ref.seconds()]

    def speed() -> float:
        refs.append(ref.seconds())
        return REF_NOMINAL_S / ((refs[-2] + refs[-1]) / 2)

    loop, setup_raw, setup = Loop(), [], []
    elapsed, latencies = 0.0, []
    for k in range(1, SETUP_PROBES + 1):
        setup_raw.append(setup_probe(workload))
        setup.append(setup_raw[-1] * speed())
        block_end = k * seconds / SETUP_PROBES
        while loop.elapsed < block_end:
            n, e = len(loop.latencies), loop.elapsed
            closed_loop(work, min(REF_EVERY_S, block_end - loop.elapsed),
                        keep_every=work.replay_every, loop=loop)
            f = speed()
            elapsed += (loop.elapsed - e) * f
            latencies += [t * f for t in loop.latencies[n:]]
    if len(loop.latencies) != loop.attempted - loop.raised:
        sys.exit("bench: op timer saw a different number of ops than ran")
    failed = loop.failed + replay_failures(work, loop)
    if isinstance(work, MpcFamily):
        failed += work.false_undercut_ops()
    metrics = {
        "ops_per_s": loop.attempted / elapsed,
        "op_ms_p50": percentile_ms(latencies, 50),
        "op_ms_p99": percentile_ms(latencies, 99),
        "setup_s": float(np.median(setup)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {"ops_per_s": loop.attempted / loop.elapsed,
           "op_ms_p50": percentile_ms(loop.latencies, 50),
           "op_ms_p99": percentile_ms(loop.latencies, 99),
           "setup_s": float(np.median(setup_raw))}
    details = {"ops": loop.attempted, "steps": loop.steps,
               "elapsed_s": loop.elapsed, "failed_share": failed / loop.attempted,
               "oracle_undercut_runs": len(getattr(work, "undercuts", ())),
               "raw": raw,
               "reference_s": {"n": len(refs), "median": float(np.median(refs)),
                               "min": min(refs), "max": max(refs)},
               "setup_probes_s": setup_raw}
    return loop.attempted, failed, metrics, details


def traced_run(g, workload: str, seed: int, seconds: float):
    """Traced blocks of steps, each followed by the same steps untraced,
    until the two together have run for ``seconds``.

    The untraced twin gives the tracing overhead against the same work at
    nearly the same time (on a shared host the speed can drift by tens of
    percent within a minute), and replays every traced step for the
    bit-identity check.
    """
    plain = WORKLOAD_CLASSES[workload](g, seed)
    plain.warm_up()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        work = WORKLOAD_CLASSES[workload](g, seed)
    finally:
        tracer.uninstall()
    loop, ref = Loop(), Loop()
    t0 = time.perf_counter()
    while loop.elapsed + ref.elapsed < seconds:
        tracer.install()
        try:
            closed_loop(work, TRACE_BLOCK_S, loop=loop)
        finally:
            tracer.uninstall()
        closed_loop(plain, n_steps=loop.steps, loop=ref)
    failed = loop.failed + ref.failed + sum(
        good for i, (good, fingerprint) in loop.fingerprints.items()
        if ref.fingerprints.get(i, (0, None))[1] != fingerprint)
    tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.csv", t0)

    layers = tracer.summary()
    counts = tracer.counts
    # Totals are divided by the ops the traced loop completed, so they compare
    # across versions of different speed.
    ops = loop.attempted
    m = {}
    for layer, v in layers.items():
        m[f"{layer}.calls"] = v["calls"] / ops
        m[f"{layer}.ms"] = v["self_s"] * 1e3 / ops
    for key in ("spaces.sample.rows", "spaces.enumerate.rows",
                "problems.cost.evals", "mpc.environment.rejections",
                "mpc.annulus_sample.rows", "mpc.rollout.evals",
                "certifier.variance.rows", "oracles.refine_min.evals",
                "oracles.refine_min.not_converged",
                "oracles.exhaustive_min.evals"):
        m[key] = counts[key] / ops
    m["oracles.refine_min.descent_evals_share"] = (
        counts["oracles.refine_min.descent_evals"]
        / max(counts["oracles.refine_min.evals"], 1))
    m["oracles.refine_min.improved_share"] = (
        counts["oracles.refine_min.improved"]
        / max(layers["oracles.refine_min"]["calls"], 1))
    gap_s = layers["repetitive.sample_gap"]["durations_s"]
    m["repetitive.sample_gap.ms_p50"] = percentile_ms(gap_s, 50) if len(gap_s) else 0.0
    m["repetitive.sample_gap.ms_p90"] = percentile_ms(gap_s, 90) if len(gap_s) else 0.0
    m["experiments.records_bytes"] = getattr(work, "records_bytes", 0) / ops

    misses, base = 0, 0
    if isinstance(work, MpcFamily):
        misses, base = oracle_misses(plain, loop.instances)
        failed += work.false_undercut_ops()
    m["oracles.miss_count"] = misses
    m["oracles.miss_base"] = base
    m["oracles.miss_share"] = misses / base if base else 0.0
    m["oracles.undercut_errors"] = len(getattr(work, "undercuts", ()))

    attributed = sum(v["self_s"] for v in layers.values())
    m["trace.ops"] = ops
    m["trace.wall_ms"] = loop.elapsed * 1e3 / ops
    m["trace.unattributed_share"] = 1.0 - attributed / loop.elapsed
    m["trace.overhead_share"] = loop.elapsed / ref.elapsed - 1.0
    details = {"ops": loop.attempted, "steps": loop.steps,
               "traced_s": loop.elapsed, "untraced_s": ref.elapsed,
               "spans": len(tracer.starts), "oracle_miss": f"{misses}/{base}",
               "failed_share": failed / loop.attempted,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    return loop.attempted + ref.attempted, failed, m, details


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    g = import_gapcert()
    OUT.mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    run = traced_run if trace else untraced_run
    attempted, failed, metrics, details = run(g, workload, seed, seconds)
    print(json.dumps({"provenance": provenance(g, workload, seed, seconds, trace),
                      "details": details}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, each in its own process; prints
    every metric with its unit."""
    status = 0
    for trace in (0, 1):
        for workload in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} trace={trace}: exit {proc.returncode}")
                status = 1
                continue
            *_, info, last = proc.stdout.splitlines()
            result = json.loads(last)
            details = json.loads(info)["details"]
            print(f"== {workload} (trace={trace}) correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"failed_share={details['failed_share']:.4g}"
                  + (f" oracle_miss={details['oracle_miss']}" if trace else ""))
            for name, v in result["metrics"].items():
                print(f"  {name:42s} {v['value']:>14.6g} {v['unit']}")
    return status


def probe(workload: str) -> int:
    g = import_gapcert()
    WORKLOAD_CLASSES[workload](g, 0)
    print("ready", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        return probe(args.probe)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
