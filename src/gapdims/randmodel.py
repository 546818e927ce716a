"""Random, Cantor, and decreasing arrangements of a gap sequence.

An arrangement of the first 2^W - 1 gaps is a left-to-right ordering of
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

import numpy as np

from . import rng
from .errors import DepthUnsupportedError
from .sequences import GapSequence

MAX_DEPTH = 26  # 2^26 gaps ~ 0.5 GiB of float64 scratch; refuse beyond


def check_depth(w: int, sequence: GapSequence | None = None) -> None:
    """Refuse a depth W outside [1, MAX_DEPTH], or one with more than the
    sequence's gaps to place (2^W - 1)."""
    if not 1 <= w <= MAX_DEPTH:
        raise DepthUnsupportedError(f"depth W={w} outside supported range [1, {MAX_DEPTH}]")
    if sequence is not None and 2 ** w - 1 > sequence.max_index:
        raise DepthUnsupportedError(
            f"sequence defines {sequence.max_index} gaps, depth {w} needs {2 ** w - 1}")


def _cantor_positions(w: int) -> np.ndarray:
    """In-order traversal position of each heap-indexed gap.

    Gap j at depth d = level(j) - 1 with offset m = j - 2^d sits at
    position (2m + 1) * 2^(W - 1 - d) - 1, which is exactly the in-order
    rank of node j in a complete binary tree of height W - 1.
    """
    j = np.arange(1, 2 ** w, dtype=np.int64)
    d = np.frexp(j.astype(np.float64))[1] - 1  # floor(log2 j)
    m = j - (np.int64(1) << d.astype(np.int64))
    return (2 * m + 1) * (np.int64(1) << (w - 1 - d).astype(np.int64)) - 1


@dataclass(frozen=True)
class ApproxSet:
    """Depth-W approximation of a complementary set under one arrangement."""

    w: int
    order: np.ndarray                # order[p] = gap index at position p
    gap_left: np.ndarray             # left endpoint of gap order[p]
    gap_len: np.ndarray              # length of gap order[p]
    slot_mass: np.ndarray            # length of slot p
    _interval_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_gaps(self) -> int:
        return 2 ** self.w - 1

    def level_intervals(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The 2^n closed components of [0,1] minus the gaps of index < 2^n.

        Returns (lefts, rights), sorted left to right.  Degenerate
        intervals (zero length) are legitimate and kept.
        """
        if not 0 <= n <= self.w:
            raise DepthUnsupportedError(f"level {n} outside [0, {self.w}]")
        if n in self._interval_cache:
            return self._interval_cache[n]
        if n == 0:
            out = (np.zeros(1), np.ones(1))
        else:
            shallow = self.order < 2 ** n
            lefts_g = self.gap_left[shallow]       # already left-to-right
            lens_g = self.gap_len[shallow]
            lefts = np.concatenate([[0.0], lefts_g + lens_g])
            rights = np.concatenate([lefts_g, [1.0]])
            out = (lefts, rights)
        self._interval_cache[n] = out
        return out

    def solid_segments(self) -> tuple[np.ndarray, np.ndarray]:
        """Level-W intervals: the finest closed cover available at this depth."""
        return self.level_intervals(self.w)

    def truncation_floor(self) -> float:
        """Smallest trustworthy scale: twice the widest level-W interval."""
        lefts, rights = self.solid_segments()
        return 2.0 * float(np.max(rights - lefts))


def _assemble(sequence: GapSequence, w: int, order: np.ndarray,
              slot_mass: np.ndarray) -> ApproxSet:
    gap_len = sequence.gap_lengths(order)
    # slot p | gap p | slot p+1 | gap p+1 | ... ; endpoints by prefix sums
    gap_left = np.cumsum(slot_mass[:-1]) + np.concatenate([[0.0], np.cumsum(gap_len[:-1])])
    return ApproxSet(w=w, order=order, gap_left=gap_left, gap_len=gap_len,
                     slot_mass=slot_mass)


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
            raise ValueError("random arrangement requires a seed")
        omega = rng.uniforms(seed, 1, 2 ** w)
        perm = np.argsort(omega, kind="stable")
        order = perm + 1
        spacings = np.diff(np.concatenate([[0.0], omega[perm], [1.0]]))
        slot_mass = tail * spacings / spacings.sum()
    elif arrangement == "cantor":
        pos = _cantor_positions(w)
        order = np.empty(m, dtype=np.int64)
        order[pos] = np.arange(1, m + 1)
        slot_mass = np.full(m + 1, tail / (m + 1))
    elif arrangement == "decreasing":
        order = np.arange(m, 0, -1, dtype=np.int64)
        slot_mass = np.zeros(m + 1)
        slot_mass[0] = tail
    else:
        raise ValueError(f"unknown arrangement {arrangement!r}")
    return _assemble(sequence, w, order, slot_mass)


def slot_counts(seed: int, w: int, n: int, bounds: tuple[int, ...]) -> np.ndarray:
    """Row i: number of gaps with index in [b_0, b_(i+1)) per level-n
    interval, for non-decreasing ``bounds`` b_0 <= b_1 <= ..., from one label draw.

    A deep gap's level-n interval is the rank of its label among the
    shallow labels omega_j (j < 2^n), so no geometry is built; both sides
    are sorted before ranking, each range [b_i, b_(i+1)) once.
    """
    check_depth(w)
    omega = rng.uniforms(seed, 1, 2 ** w)
    shallow = np.sort(omega[: 2 ** n - 1])
    rows = []
    for lo, hi in zip(bounds, bounds[1:]):
        deep = np.sort(omega[lo - 1 : hi - 1])
        ranks = np.searchsorted(deep, shallow, side="right")
        rows.append(np.diff(ranks, prepend=0, append=deep.size))
    return np.cumsum(rows, axis=0)
