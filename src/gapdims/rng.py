"""Counter-based pseudorandom streams.

Every random quantity in this package is a pure function of a 64-bit seed
and an integer counter, via the splitmix64 output function.  This gives

  * random access: omega_i is computable without generating predecessors,
  * bit-for-bit reproducibility across platforms and across serial /
    parallel execution orders.

Per-trial seeds are derived from a master seed with `derive_seed`, so
trials can run concurrently without sharing generator state.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = 0xFFFFFFFFFFFFFFFF


def mix64(z: int) -> int:
    """splitmix64 finalizer on a Python integer (mod 2^64)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def derive_seed(master_seed: int, stream_id: int) -> int:
    """Derive an independent child seed, e.g. one per Monte Carlo trial."""
    return mix64((master_seed & _MASK) + ((stream_id + 1) * _GOLDEN & _MASK))


def _mixed_words(seed: int, counters: np.ndarray) -> np.ndarray:
    z = (np.uint64(seed & _MASK) + counters * np.uint64(_GOLDEN)).astype(np.uint64)
    with np.errstate(over="ignore"):
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
    return z


def uniforms(seed: int, start: int, stop: int) -> np.ndarray:
    """U[0,1) variates for counters start..stop-1 (53-bit mantissas)."""
    z = _mixed_words(seed, np.arange(start, stop, dtype=np.uint64))
    return (z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def bin_indices(seed: int, start: int, stop: int, n_bins_log2: int) -> np.ndarray:
    """Uniform bin labels in [0, 2^n_bins_log2) from the top output bits."""
    counters = np.arange(start, stop, dtype=np.uint64)
    z = _mixed_words(seed, counters)
    return (z >> np.uint64(64 - n_bins_log2)).astype(np.int64)
