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
from numbers import Integral

import numpy as np

from . import rng
from .errors import DepthUnsupportedError, InvalidRangeError, check_value
from .sequences import GapSequence

# A set holds 32 bytes per gap and build_set peaks at 40 (641 MiB at W=24, ru_maxrss), so a
# W=26 set needs 2 GiB held and about 2.5 GiB to build; refuse beyond.
MAX_DEPTH = 26


def check_depth(w: int, sequence: GapSequence | None = None) -> None:
    """The one check of a depth W: an integer in [1, MAX_DEPTH], never a bool,
    and, given a sequence, no more than its gaps to place (2^W - 1)."""
    if isinstance(w, bool) or not isinstance(w, Integral) or not 1 <= w <= MAX_DEPTH:
        raise DepthUnsupportedError(f"depth W must be an integer in [1, {MAX_DEPTH}], got {w!r}")
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
        if isinstance(n, bool) or not isinstance(n, Integral) or not 0 <= n <= self.w:
            raise DepthUnsupportedError(f"level must be an integer in [0, {self.w}], got {n!r}")
        if n == self.w:
            return self.lefts, self.rights
        at = np.flatnonzero(self.order < 2 ** n)   # positions of the shallow gaps
        return (self.lefts[np.concatenate([[0], at + 1])],
                self.rights[np.concatenate([at, [self.n_gaps]])])

    def truncation_floor(self) -> float:
        """Smallest trustworthy scale: twice the widest level-W interval."""
        return self._floor

    @cached_property
    def _floor(self) -> float:
        return 2.0 * float(np.max(self.rights - self.lefts))


def _stable_order(omega: np.ndarray, w: int) -> np.ndarray:
    """``np.argsort(omega, kind="stable")`` for fewer than 2^w labels in [0, 1): one
    in-place sort of uint64 keys, the top min(53, 64 - w) bits of label * 2^53
    over its w-bit index, then a re-sort of the runs whose kept bits tie."""
    key = (omega * 2.0 ** 53).astype(np.uint64)   # exact: 53-bit mantissas
    key >>= np.uint64(max(w - 11, 0))
    key <<= np.uint64(w)
    key |= np.arange(omega.size, dtype=np.uint64)
    key.sort()
    tied = (key[1:] ^ key[:-1]) < 2 ** w   # key p + 1 ties with key p
    key &= np.uint64(2 ** w - 1)
    order = key.view(np.int64)
    with_prev = np.concatenate([[False], tied])
    pos = np.flatnonzero(with_prev | np.concatenate([tied, [False]]))
    idx = order[pos]
    order[pos] = idx[np.lexsort((idx, omega[idx], np.cumsum(~with_prev[pos])))]
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
        np.take(omega, order, out=slot_mass[:-1], mode="clip")   # "clip" takes unbuffered
        slot_mass[-1] = 1.0
        slot_mass[1:] = np.subtract(slot_mass[1:], slot_mass[:-1], out=omega)   # into the draw
        del omega                    # free the draw before the geometry is laid out
        order += 1
        total = slot_mass.sum()
        slot_mass *= tail
        slot_mass /= total
    elif arrangement == "cantor":
        # in-order rank q = (2i + 1) * 2^t of the heap is gap 2^(W - 1 - t) + i
        order = np.empty(m, dtype=np.int64)
        for t in range(w):
            order[2 ** t - 1 :: 2 ** (t + 1)] = np.arange(2 ** (w - 1 - t), 2 ** (w - t))
        slot_mass = np.full(m + 1, tail / (m + 1))
    elif arrangement == "decreasing":
        order = np.arange(m, 0, -1, dtype=np.int64)
        slot_mass = np.zeros(m + 1)
        slot_mass[0] = tail
    else:
        raise InvalidRangeError(f"unknown arrangement {arrangement!r}")
    gap_len = sequence.gap_lengths(order)
    # slot p | gap p | slot p+1 | gap p+1 | ... ; endpoints by prefix sums, in place
    rights = np.empty(m + 1)
    np.cumsum(slot_mass[:-1], out=rights[:-1])
    lefts = np.empty(m + 1)
    rights[1:-1] += np.cumsum(gap_len[:-1], out=lefts[2:])   # lefts is scratch until laid out
    rights[-1] = 1.0
    lefts[0] = 0.0
    np.add(rights[:-1], gap_len, out=lefts[1:])
    return ApproxSet(w=w, order=order, lefts=lefts, rights=rights, slot_mass=slot_mass)


def slot_counts(seed: int, n: int, bounds: tuple[int, ...]) -> np.ndarray:
    """Row i: number of gaps with index in [b_0, b_(i+1)) per level-n
    interval, for bounds 2^n <= b_0 <= b_1 <= ... <= 2^MAX_DEPTH.

    A deep gap's level-n interval is the rank of its label among the
    shallow labels omega_j (j < 2^n), so no geometry is built.  The shallow
    labels are drawn and sorted once; each range [b_i, b_(i+1)) is then
    drawn on its own (labels are counter-based: the same as in any deeper
    draw), sorted in place, ranked and freed before the next is drawn, so
    the largest range, not the whole draw, sets the peak memory.
    """
    check_value(n, "level n", 0, MAX_DEPTH)
    check_value(len(bounds), "number of bounds", 2)
    for i, b in enumerate(bounds):
        check_value(b, f"bound b_{i}", bounds[i - 1] if i else 2 ** n, 2 ** MAX_DEPTH)
    shallow = rng.uniforms(seed, 1, 2 ** n)
    shallow.sort()               # in place: a sorted copy added 24 MiB to a W=23 RSS peak
    rows = np.empty((len(bounds) - 1, 2 ** n), dtype=np.int64)
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        deep = rng.uniforms(seed, lo, hi)
        deep.sort()
        rows[i, :-1] = np.searchsorted(deep, shallow, side="right")
        del deep                     # free the range before the next is drawn
        rows[i, -1] = hi - lo
        rows[i, 1:] -= rows[i, :-1]  # ranks to labels per interval; numpy buffers the overlap
        if i:
            rows[i] += rows[i - 1]
    return rows
