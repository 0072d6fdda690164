"""Seeded, indexable random streams.

Every sampling operation in the package takes an explicit 64-bit seed and a
stream tag, so distinct pipeline stages (solve, certify, oracle, ...) driven
by the same user seed never share randomness.  Streams are counter-based
(Philox), and batch draws of fixed width per sample make sample i a pure
function of (seed, tag, i): prefixes of a stream are stable when the batch
size grows, and parallel evaluation cannot change results.

The contract, so any run can be replayed with plain numpy: ``stream(seed,
*path)`` is ``Philox`` keyed by ``SeedSequence(entropy=seed,
spawn_key=path).generate_state(2, uint64)``, with the seed and each path
element taken mod 2^64, and ``child_seed(seed, *path)`` is that key's first
uint64.  The fast path reaches the same words by laying out the entropy
words as numpy does, letting numpy's C hash mix them into the pool, and
applying SeedSequence's output hash to the pool in plain ints.

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

from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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

_SEED_MASK = (1 << 64) - 1
_WORD = 0xFFFFFFFF
_POOL_SIZE = 4  # SeedSequence's pool, in 32-bit words
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
# SeedSequence.generate_state's output hash, as (xor, multiplier) for each
# pool word: the hash constant starts at INIT_B and takes a factor MULT_B
# before each multiply.
_OUTPUT_HASH = tuple((_INIT_B * _MULT_B**i & _WORD, _INIT_B * _MULT_B**(i + 1) & _WORD)
                     for i in range(_POOL_SIZE))


def _words(value: int) -> list[int]:
    """The 32-bit words SeedSequence makes of int(value) mod 2^64, low first."""
    value = int(value) & _SEED_MASK
    return [value & _WORD, value >> 32] if value >> 32 else [value]


def _key(seed: int, path: tuple[int, ...]) -> tuple[int, int]:
    """SeedSequence(entropy=seed, spawn_key=path).generate_state(2, uint64)."""
    words = _words(seed)
    if path:  # numpy zero-pads the seed's words to its pool size first
        words += [0] * (_POOL_SIZE - len(words))
        for p in path:
            words += _words(p)
    pool = np.random.SeedSequence(np.array(words, dtype=np.uint32)).pool.tolist()
    out = []
    for word, (xor, mult) in zip(pool, _OUTPUT_HASH):
        word = (word ^ xor) * mult & _WORD
        out.append(word ^ word >> 16)
    return out[0] | out[1] << 32, out[2] | out[3] << 32


class _PhiloxKey(ISeedSequence):
    """A fixed Philox key, served through the one call Philox makes."""

    __slots__ = ("key",)

    def __init__(self, key: tuple[int, int]):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a fixed Philox key is only 2 uint64 words")
        return np.array(self.key, dtype=np.uint64)


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for (seed, path). Deterministic and platform-stable."""
    return np.random.Generator(np.random.Philox(_PhiloxKey(_key(seed, path))))


def uniform_block(seed: int, path: tuple[int, ...], n: int, width: int) -> np.ndarray:
    """(n, width) uniforms in [0, 1) where row i depends only on (seed, path, i).

    Rows are consecutive fixed-width slices of one counter-based stream, so the
    first n' rows are identical for any n >= n' (prefix property).
    """
    return stream(seed, *path).random((int(n), int(width)))


def uniform_blocks(seed: int, path: tuple[int, ...], n: int, width: int,
                   rows: int) -> Iterator[np.ndarray]:
    """``uniform_block(seed, path, n, width)`` as consecutive blocks of at
    most ``rows`` rows, drawn one at a time from the same stream."""
    gen, n = stream(seed, *path), int(n)
    for start in range(0, n, rows):
        yield gen.random((min(rows, n - start), int(width)))


def child_seed(seed: int, *path: int) -> int:
    """Derive a replayable 64-bit seed for a sub-task (e.g. one family instance)."""
    return _key(seed, path)[0]
