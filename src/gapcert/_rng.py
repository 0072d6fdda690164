"""Seeded, indexable random streams.

Every sampling operation in the package takes an explicit 64-bit seed and a
stream tag, so distinct pipeline stages (solve, certify, oracle, ...) driven
by the same user seed never share randomness.  Streams are counter-based
(Philox), and batch draws of fixed width per sample make sample i a pure
function of (seed, tag, i): prefixes of a stream are stable when the batch
size grows, and parallel evaluation cannot change results.

Tags are the named constants below.  FAMILY serves two purposes: the
stream an instance is generated from (``random_tsp_instance``,
``uniform_gap_family``) and the certify-phase gap samples (``sample_gaps``,
mpc-fig4), drawn at child_seed(seed, FAMILY, i).  LEVEL_SET tags the Monte
Carlo draws of ``exceedance_probability``.  The values fix the seeded
bytes, so none is renumbered.  The experiment tags seed per-trial or
per-run work as child_seed(cfg.seed, TAG, i): chi-sweep's solve, subsample
and exceedance seeds (CHI_SWEEP_*), the solve seed of a table1 or tsp-fig2
trial (TABLE1_TRIAL, TSP_FIG2_TRIAL), and an mpc-fig4 run's base seed per
n_p (MPC_FIG4_BASE).
"""

from __future__ import annotations

import numpy as np

_SEED_MASK = (1 << 64) - 1

# Library stream tags: one per sampling purpose, FAMILY aside (see above).
SOLVE = 1
CERTIFY = 2
SUBSAMPLE = 3
ORACLE = 4
BETTER_FRACTION = 5
LEVEL_SET = 6
GAP_INSTANCE = 7
GAP_SOLVE = 8
GAP_ORACLE = 9
VALIDATE = 10
ENVIRONMENT = 11
FAMILY = 12

# Experiment tags.
CHI_SWEEP_SOLVE = 100
CHI_SWEEP_SUBSAMPLE = 101
CHI_SWEEP_EXCEEDANCE = 102
TABLE1_TRIAL = 200
TSP_FIG2_TRIAL = 300
MPC_FIG4_BASE = 400


def _seed_sequence(seed: int, path: tuple[int, ...]) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(seed) & _SEED_MASK,
                                  spawn_key=tuple(int(p) & _SEED_MASK for p in path))


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for (seed, path). Deterministic and platform-stable."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, path)))


def uniform_block(seed: int, path: tuple[int, ...], n: int, width: int) -> np.ndarray:
    """(n, width) uniforms in [0, 1) where row i depends only on (seed, path, i).

    Rows are consecutive fixed-width slices of one counter-based stream, so the
    first n' rows are identical for any n >= n' (prefix property).
    """
    return stream(seed, *path).random((int(n), int(width)))


def child_seed(seed: int, *path: int) -> int:
    """Derive a replayable 64-bit seed for a sub-task (e.g. one family instance)."""
    return int(_seed_sequence(seed, path).generate_state(1, np.uint64)[0])
