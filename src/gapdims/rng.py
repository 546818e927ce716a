"""Counter-based pseudorandom streams.

Every random quantity in this package is a pure function of a 64-bit seed
and an integer counter, via the splitmix64 output function.  This gives

  * random access: omega_i is computable without generating predecessors,
  * bit-for-bit reproducibility across platforms and across serial /
    parallel execution orders.

A draw allocates its output once and fills it in blocks of 2^15 counters,
each written, mixed, shifted and (for `uniforms`) converted in place while
it sits in cache.  Every step is elementwise on one counter, so the block
size decides only which words are computed together, never a value.

Per-trial seeds are derived from a master seed with `derive_seed`, so
trials can run concurrently without sharing generator state.
"""

from __future__ import annotations

import numpy as np

from .errors import check_value

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = 0xFFFFFFFFFFFFFFFF
_BLOCK = 2 ** 15  # counters per block: 256 KiB of words, within L2 cache


def _mixed_words(z: np.ndarray) -> np.ndarray:
    """splitmix64 words of the uint64 states ``z`` = counter * golden + seed, in
    place: ``z`` is consumed and returned, and one scratch array takes the shifts."""
    t = np.empty_like(z)
    with np.errstate(over="ignore"):
        z ^= np.right_shift(z, np.uint64(30), out=t)
        z *= np.uint64(_MIX1)
        z ^= np.right_shift(z, np.uint64(27), out=t)
        z *= np.uint64(_MIX2)
        z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


def derive_seed(master_seed: int, stream_id: int) -> int:
    """Derive an independent child seed, e.g. one per trial: the master stream's word stream_id + 1."""
    return int(next(_word_blocks(master_seed, stream_id + 1, np.empty(1, dtype=np.uint64)))[0])


def _word_blocks(seed: int, start: int, words: np.ndarray):
    """Fill the uint64 array ``words`` with the splitmix64 words of counters start,
    start + 1, ... block by block: a block's states are one add to the golden steps
    i * G, and each block is yielded while in cache, for the caller to finish it."""
    check_value(seed, "seed")
    seed, start = int(seed), int(start)   # the state sum overflows on NumPy integers
    step = np.arange(min(_BLOCK, words.size), dtype=np.uint64) * np.uint64(_GOLDEN)
    for i in range(0, words.size, _BLOCK):
        block = words[i : i + _BLOCK]
        np.add(step[: block.size], np.uint64(((start + i) * _GOLDEN + seed) & _MASK), out=block)
        yield _mixed_words(block)


def uniforms(seed: int, start: int, stop: int) -> np.ndarray:
    """U[0,1) variates for counters start..stop-1 (53-bit mantissas)."""
    u = np.empty(max(stop - start, 0))
    for z in _word_blocks(seed, start, u.view(np.uint64)):
        z >>= np.uint64(11)
        f = z.view(np.float64)
        np.copyto(f, z)   # elementwise, so the float64 view can overwrite its source
        f *= 2.0 ** -53
    return u


def label_keys(seed: int, start: int, out: np.ndarray) -> None:
    """Fill the uint64 array ``out`` with the words of counters start, start + 1, ... with
    bits 0..10 cleared: keys that sort as the labels (key >> 11) * 2^-53 of `uniforms`."""
    for z in _word_blocks(seed, start, out):
        z &= np.uint64(_MASK ^ 0x7FF)


def bin_indices(seed: int, start: int, stop: int, n_bins_log2: int) -> np.ndarray:
    """Uniform bin labels in [0, 2^n_bins_log2) from the top output bits."""
    idx = np.empty(max(stop - start, 0), dtype=np.int64)
    for z in _word_blocks(seed, start, idx.view(np.uint64)):
        z >>= np.uint64(64 - n_bins_log2)
    return idx
