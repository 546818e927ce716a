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


def _check_depth(w: int) -> None:
    if not 1 <= w <= MAX_DEPTH:
        raise DepthUnsupportedError(f"depth W={w} outside supported range [1, {MAX_DEPTH}]")


def sample_order(seed: int, w: int) -> np.ndarray:
    """Left-to-right gap order for the random arrangement at depth W.

    Returns ``order`` with ``order[p]`` = 1-based gap index placed at
    position p.  Equals the stable argsort of the uniform labels
    omega_1, ..., omega_{2^W - 1} (stream counter = gap index).
    """
    _check_depth(w)
    omega = rng.uniforms(seed, 1, 2 ** w)
    return np.argsort(omega, kind="stable") + 1


def omega_labels(seed: int, w: int) -> np.ndarray:
    """Uniform labels omega_j for j = 1..2^W-1 (omega[j-1] is gap j's label)."""
    _check_depth(w)
    return rng.uniforms(seed, 1, 2 ** w)


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

    sequence: GapSequence
    w: int
    arrangement: str                 # "random" | "cantor" | "decreasing"
    seed: int | None
    order: np.ndarray                # order[p] = gap index at position p
    gap_left: np.ndarray             # left endpoint of gap order[p]
    gap_len: np.ndarray              # length of gap order[p]
    slot_left: np.ndarray            # left endpoint of slot p, p = 0..2^W-1
    slot_mass: np.ndarray            # length of slot p
    _interval_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_gaps(self) -> int:
        return 2 ** self.w - 1

    def position_of(self) -> np.ndarray:
        """Inverse of ``order``: pos[j - 1] = left-to-right position of gap j."""
        pos = np.empty(self.n_gaps, dtype=np.int64)
        pos[self.order - 1] = np.arange(self.n_gaps)
        return pos

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

    def gap_counts_in_level_intervals(self, n: int, level: int) -> np.ndarray:
        """Number of level-``level`` gaps inside each level-n interval."""
        if not n < level <= self.w:
            raise DepthUnsupportedError(f"need n < level <= W, got n={n}, level={level}")
        lefts, _ = self.level_intervals(n)
        at_level = (self.order >= 2 ** (level - 1)) & (self.order < 2 ** level)
        mids = self.gap_left[at_level] + 0.5 * self.gap_len[at_level]
        slot = np.searchsorted(lefts, mids, side="right") - 1
        return np.bincount(slot, minlength=2 ** n)

    def export_table(self) -> dict:
        """Plain-array dump of the arrangement (for CSV/JSON output)."""
        return {
            "index": self.order.tolist(),
            "left": self.gap_left.tolist(),
            "length": self.gap_len.tolist(),
        }


def _assemble(sequence: GapSequence, w: int, arrangement: str, seed: int | None,
              order: np.ndarray, slot_mass: np.ndarray) -> ApproxSet:
    gap_len = sequence.gap_lengths(order)
    # slot p | gap p | slot p+1 | gap p+1 | ... ; endpoints by prefix sums
    gap_left = np.cumsum(slot_mass[:-1]) + np.concatenate([[0.0], np.cumsum(gap_len[:-1])])
    slot_left = np.concatenate([[0.0], gap_left + gap_len])
    return ApproxSet(
        sequence=sequence, w=w, arrangement=arrangement, seed=seed,
        order=order, gap_left=gap_left, gap_len=gap_len,
        slot_left=slot_left, slot_mass=slot_mass,
    )


def build_set(sequence: GapSequence, w: int, arrangement: str, seed: int | None = None) -> ApproxSet:
    """Construct the depth-W approximation for one arrangement.

    Tail handling: ``random`` splits the tail mass proportionally to the
    spacings of the sorted uniform labels (the conditional mean of each
    slot's true share given the placed order); ``cantor`` splits it
    equally (each slot holds one level-W subtree of mass s_W);
    ``decreasing`` puts all of it in the leftmost slot, so the points of
    the set are literally the tail sums of the sequence.
    """
    _check_depth(w)
    if 2 ** w - 1 > sequence.max_index:
        raise DepthUnsupportedError(
            f"sequence defines {sequence.max_index} gaps, depth {w} needs {2 ** w - 1}")
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
    return _assemble(sequence, w, arrangement, seed, order, slot_mass)


def slot_counts(seed: int, w: int, n: int, lo: int, hi: int) -> np.ndarray:
    """Number of gaps with index in [lo, hi) per level-n interval.

    Same law as bincounting `rank_slots`, but both sides are sorted
    before ranking, which is much faster at depth 20+.
    """
    _check_depth(w)
    omega = rng.uniforms(seed, 1, 2 ** w)
    shallow = np.sort(omega[: 2 ** n - 1])
    deep = np.sort(omega[lo - 1 : hi - 1])
    ranks = np.searchsorted(deep, shallow, side="right")
    return np.diff(np.concatenate(([0], ranks, [deep.size])))


def rank_slots(seed: int, w: int, n: int, indices: np.ndarray) -> np.ndarray:
    """Level-n interval index of each given gap, via label ranks only.

    Gap j lands in the level-n interval whose index equals the count of
    shallow labels omega_i (i < 2^n) below omega_j; no geometry needed.
    """
    _check_depth(w)
    omega = rng.uniforms(seed, 1, 2 ** w)
    shallow = np.sort(omega[: 2 ** n - 1])
    return np.searchsorted(shallow, omega[np.asarray(indices) - 1], side="right")
