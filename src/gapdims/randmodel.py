"""Random, Cantor, and decreasing arrangements of a gap sequence.

An arrangement of the first 2^W - 1 gaps (`check_depth` refuses a W that
the sequence or the memory cannot supply) is a left-to-right ordering of
their lengths inside [0, 1].  Removing the placed gaps leaves 2^W slots;
the un-placed tail mass is distributed over the slots so that total
length is exactly 1 and every slot keeps a nonnegative share.  The
resulting union of slots is a closed approximation of the true
complementary set: each slot contains the corresponding piece of the
set and has at most the slot's own length of slack.

The random arrangement draws one uniform label per gap index from a
counter-based stream, so a (seed, W) pair determines the set exactly
and independently of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import rng
from .errors import DepthUnsupportedError, InvalidRangeError, check_value
from .sequences import GapSequence

# A set holds 28 bytes per gap and build_set peaks at about 28 (449 MiB at W=24, ru_maxrss),
# so a W=26 set needs 1.75 GiB to build and hold (`estimate` peaks at 1.85 GiB); refuse beyond.
MAX_DEPTH = 26


def check_depth(w: int, sequence: GapSequence | None = None) -> None:
    """The one check of a depth W: an integer in [1, MAX_DEPTH], never a bool,
    and, given a sequence, no more than its gaps to place (2^W - 1)."""
    check_value(w, "depth W", 1, MAX_DEPTH, error=DepthUnsupportedError)
    if sequence is not None and 2 ** w - 1 > sequence.max_index:
        raise DepthUnsupportedError(
            f"sequence defines {sequence.max_index} gaps, depth {w} needs {2 ** w - 1}")


@dataclass(frozen=True, eq=False)   # a set compares and hashes by identity
class ApproxSet:
    """Depth-W approximation of a complementary set under one arrangement:
    its 2^W level-W intervals, stored once.  Gap ``order[p]`` lies between
    ``rights[p]`` and ``lefts[p + 1]``; every coarser level is read from them."""

    w: int
    order: np.ndarray                # order[p] = gap index at position p
    lefts: np.ndarray                # left endpoint of level-W interval p
    rights: np.ndarray               # right endpoint of level-W interval p
    slot_mass: np.ndarray            # length of slot p
    # window centers picked at each (level n, max_centers)
    _center_cache: dict = field(default_factory=dict, repr=False)
    # exact cover count of each window (x, R, r) resolved on this set
    _count_cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_gaps(self) -> int:
        return 2 ** self.w - 1

    def level_intervals(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The 2^n closed components of [0,1] minus the gaps of index < 2^n.

        Returns (lefts, rights), sorted left to right; at n = W the stored
        arrays themselves.  Degenerate intervals (zero length) are
        legitimate and kept.
        """
        check_value(n, "level", 0, self.w, error=DepthUnsupportedError)
        if n == self.w:
            return self.lefts, self.rights
        at = np.flatnonzero(self.order < 2 ** n)   # positions of the shallow gaps
        return (self.lefts[np.concatenate([[0], at + 1])],
                self.rights[np.concatenate([at, [self.n_gaps]])])

    def truncation_floor(self) -> float:
        """Smallest trustworthy scale: twice the widest level-W interval."""
        return self._floor

    @cached_property
    def _floor(self) -> float:   # one block at a time: no full-size difference
        blocks = (slice(i, i + rng._BLOCK) for i in range(0, self.n_gaps + 1, rng._BLOCK))
        return 2.0 * max(float(np.max(self.rights[b] - self.lefts[b])) for b in blocks)


def _stable_order(omega: np.ndarray, w: int) -> np.ndarray:
    """``np.argsort(omega, kind="stable")`` as int32, for fewer than 2^w labels in [0, 1):
    one in-place sort of uint64 keys, the top min(53, 64 - w) bits of label * 2^53 over its
    w-bit index (ORed in and tie-tested a block at a time), then a re-sort of tied runs."""
    key = np.multiply(omega, 2.0 ** (53 - max(w - 11, 0)), out=np.empty(omega.size, np.uint64),
                      casting="unsafe")   # exact, and the cast truncates: the kept bits
    key <<= np.uint64(w)
    for i in range(0, key.size, rng._BLOCK):
        key[i : i + rng._BLOCK] |= np.arange(i, min(i + rng._BLOCK, key.size), dtype=key.dtype)
    key.sort()
    tied = np.zeros(key.size, dtype=bool)   # key p + 1 ties with key p in its kept bits
    for i in range(0, key.size - 1, rng._BLOCK):
        k = key[i : i + rng._BLOCK + 1]
        np.less(k[1:] ^ k[:-1], 2 ** w, out=tied[i : i + k.size - 1])
    tied[np.flatnonzero(tied) + 1] = True   # now: key p lies in a run of tied keys
    pos = np.flatnonzero(tied)
    kept = key[pos] >> np.uint64(w)           # one value per run, increasing
    key &= np.uint64(2 ** w - 1)
    order = key.astype(np.int32)
    idx = order[pos]
    order[pos] = idx[np.lexsort((idx, omega[idx], kept))]
    return order


def build_set(sequence: GapSequence, w: int, arrangement: str, seed: int | None = None) -> ApproxSet:
    """Construct the depth-W approximation for one arrangement.

    Tail handling: ``random`` splits the tail mass proportionally to the
    spacings of the sorted uniform labels (the conditional mean of each
    slot's true share given the placed order); ``cantor`` splits it
    equally (each slot holds one level-W subtree of mass s_W);
    ``decreasing`` puts all of it in the leftmost slot, so the points of
    the set are literally the tail sums of the sequence.
    """
    check_depth(w, sequence)
    m = 2 ** w - 1
    tail = sequence.tail_mass(w)

    if arrangement == "random":
        if seed is None:
            raise InvalidRangeError("random arrangement requires a seed")
        omega = rng.uniforms(seed, 1, 2 ** w)
        order = _stable_order(omega, w)
        slot_mass = np.empty(m + 1)   # spacings of 0, the sorted labels and 1, in place
        for i in range(0, m, rng._BLOCK):   # a block's intp copy of order, not a full one
            np.take(omega, order[i : i + rng._BLOCK], out=slot_mass[i : min(i + rng._BLOCK, m)],
                    mode="clip")     # "clip" takes unbuffered
        slot_mass[-1] = 1.0
        slot_mass[1:] = np.subtract(slot_mass[1:], slot_mass[:-1], out=omega)   # into the draw
        del omega                    # free the draw before the geometry is laid out
        order += 1
        total = slot_mass.sum()
        slot_mass *= tail
        slot_mass /= total
    elif arrangement == "cantor":
        # in-order rank q = (2i + 1) * 2^t of the heap is gap 2^(W - 1 - t) + i
        order = np.empty(m, dtype=np.int32)
        for t in range(w):
            order[2 ** t - 1 :: 2 ** (t + 1)] = np.arange(2 ** (w - 1 - t), 2 ** (w - t))
        slot_mass = np.full(m + 1, tail / (m + 1))
    elif arrangement == "decreasing":
        order = np.arange(m, 0, -1, dtype=np.int32)
        slot_mass = np.zeros(m + 1)
        slot_mass[0] = tail
    else:
        raise InvalidRangeError(f"unknown arrangement {arrangement!r}")
    # slot p | gap p | slot p+1 | gap p+1 | ... ; endpoints by prefix sums, one block at a
    # time: each block's gap prefix sum, in lefts until laid out, starts from the carry.
    # A slot of rounding-size mass may end below its start: its left is clamped to its right.
    rights = np.cumsum(slot_mass)
    lefts = np.empty(m + 1)
    lefts[0] = carry = 0.0
    for i in range(0, m, rng._BLOCK):
        gap_len = sequence.gap_lengths(order[i : i + rng._BLOCK])
        run = lefts[i + 1 : i + 1 + gap_len.size]
        np.copyto(run, gap_len)
        run[0] += carry
        np.cumsum(run, out=run)
        carry = run[-1]
        rights[i + 1 : i + 1 + run.size] += run
        rights[m] = 1.0              # the last right is 1 exactly, before its left is clamped
        np.add(rights[i : i + run.size], gap_len, out=run)
        np.minimum(run, rights[i + 1 : i + 1 + run.size], out=run)
        del gap_len                  # before the next block's lengths are made
    return ApproxSet(w=w, order=order, lefts=lefts, rights=rights, slot_mass=slot_mass)


def slot_counts(seed: int, n: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(counts, shallow): the gaps with index in [lo, hi) per level-n interval, for
    2^n <= lo <= hi <= 2^MAX_DEPTH, and the sorted shallow labels omega_j (j < 2^n).

    A deep gap's level-n interval is the rank of its label among the shallow labels, so no
    geometry is built: one in-place sort of their `rng.label_keys` ranks the range.  Shallow
    keys are tagged in bit 0, so a deep label equal to s_j sorts first and counts in interval
    j = (s_(j-1), s_j] as in `searchsorted(side="right")`.  Label j overwrites key j <= its
    tag, already read."""
    check_value(n, "level n", 0, MAX_DEPTH)
    check_value(lo, "lo", 2 ** n, 2 ** MAX_DEPTH)
    check_value(hi, "hi", lo, 2 ** MAX_DEPTH)
    m, size = hi - lo, 2 ** n - 1
    keys = np.empty(m + size, dtype=np.uint64)
    rng.label_keys(seed, 1, keys[m:])
    keys[m:] |= np.uint64(1)
    rng.label_keys(seed, lo, keys[:m])
    keys.sort()
    counts = np.empty(size + 1, dtype=np.int32)   # counts stay below 2^26
    tags = keys.view(np.uint8)[0 if np.little_endian else 7 :: 8].view(bool)   # bit 0
    j, prev = 0, -1
    for i in range(0, keys.size, rng._BLOCK):
        at = np.flatnonzero(tags[i : i + rng._BLOCK]) + i
        counts[j : j + at.size] = np.diff(at, prepend=prev)
        keys.view(np.float64)[j : j + at.size] = (keys[at] >> np.uint64(11)) * 2.0 ** -53
        j, prev = j + at.size, (at[-1] if at.size else prev)
    counts[-1] = keys.size - prev
    counts -= 1                      # the keys strictly between two tags, or a tag and an end
    del tags
    keys.resize(size)                # in place: no copy of the labels
    return counts, keys.view(np.float64)


def has_empty_interval(seed: int, n: int, row: np.ndarray, lo: int, hi: int,
                       shallow: np.ndarray) -> bool:
    """``(row + slot_counts(seed, n, lo, hi)[0]).min() == 0`` for n >= 1 and the sorted shallow
    labels, by one witness: the shortest interval empty in ``row``; only a hit ranks [lo, hi)."""
    if row.min() > 0:
        return False                 # the range only adds gaps
    j = np.flatnonzero(row == 0)     # interval j is (s_(j-1), s_j], from 0 to 1
    left = np.where(j > 0, shallow.take(j - 1, mode="clip"), 0.0)
    right = np.where(j < shallow.size, shallow.take(j, mode="clip"), 1.0)
    k = np.argmin(right - left)
    a, b = (left[k] if j[k] else -1.0), right[k]   # a label of 0 lies in interval 0

    def hit(i):                      # one chunk at a time: it is freed on return
        x = rng.uniforms(seed, i, min(i + 2 ** 20, hi))
        return ((x > a) & (x <= b)).any()

    return (not any(map(hit, range(lo, hi, 2 ** 20)))
            or bool((row + slot_counts(seed, n, lo, hi)[0]).min() == 0))
