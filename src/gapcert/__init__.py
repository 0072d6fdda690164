"""Percentile solutions to bounded black-box optimization problems, with
probabilistic certificates on their optimality gaps.

Solve by sampling: the best of N uniform draws sits in the 100(1-eps)
percentile with confidence 1-(1-eps)^N.  Certify the gap: maximize a variance
function built from the solve's own samples with a second sampling pass.
Amortize over problem families: the max of R per-instance gaps bounds future
gaps with quantified probability and confidence.
"""

from ._version import __version__
from .percentile import (
    CapacityError,
    DomainError,
    EvaluationError,
    InfoSet,
    PercentileSolution,
    Problem,
    SampledPoint,
    confidence_of,
    estimate_better_fraction,
    min_samples,
    percentile_solve,
    read_infoset_csv,
    write_infoset_csv,
)
from .spaces import BoxSpace, PermutationSpace, SpaceError, TourSpace
from .certifier import (
    GapCertificate,
    VarianceModel,
    certify_gap,
    certify_solution,
    exceedance_probability,
    subsample_info,
)
from .oracles import OracleError, OracleResult, exhaustive_min, refine_min
from .repetitive import (
    GapSample,
    OracleConfig,
    ProblemFamily,
    RepetitiveCertificate,
    build_certificate,
    sample_gap,
    sample_gaps,
    validate_coverage,
)
from .problems import (
    BENCHMARK_NAMES,
    TspInstance,
    make_benchmark,
    make_tsp_family,
    make_tsp_problem,
    random_tsp_instance,
    tsp_cost,
)
from .mpc import (
    AnnulusSpace,
    ControlInput,
    Environment,
    UnicycleState,
    augmented_cost,
    barrier,
    dynamics_step,
    lyapunov_controller,
    mpc_family,
    rollout_feasible,
    sample_environment,
    shortest_goal_distance,
)
from .experiments import ExperimentConfig, RunReport, run

__all__ = [name for name in dir() if not name.startswith("_")]
