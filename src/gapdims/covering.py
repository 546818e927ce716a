"""Localized covering counts and window-based dimension estimates.

A window is a ball B(x, R) with R the level-n scale and a covering
radius r at least phi(n) levels deeper, so each scale pair respects
r <= R^(1 + Phi(R)).  The upper-dimension estimate is the max of the
window exponent min(1, ln N / ln(R/r)) over all enumerated windows, the
lower estimate the min, where N is the exact minimum number of closed
balls of radius r needed to cover the approximate set inside the window.

Counting is exact: in one dimension the greedy sweep (always start the
next ball at the leftmost uncovered point) is optimal.  One vectorized
kernel runs that sweep over all windows of an estimate in lockstep, with
the serial loop's float arithmetic, so counts match it bit for bit.
A window wider than `_LOCKSTEP_BALLS` balls of radius r is counted by
2r-clusters instead, with the same counts in far fewer lockstep steps.
Windows come in rungs (n, k) that share R, r and the level-n centers; an
estimate resolves whole rungs on arrays against the set's count memo and
makes its per-window records only when they are read.
Radii below the approximation's truncation floor are skipped, since at
those scales the depth-W set no longer resolves the true one.  Window
centers sit at endpoints of the construction intervals: these are points
of the set, and the extrema over them capture the extrema over the whole
set at the scales in play.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import rng
from .dimfuncs import DepthTable, DimensionFunction
from .errors import InvalidRangeError, NoAdmissibleWindowError, check_keys, check_value
from .randmodel import ApproxSet
from .sequences import LevelProfile


def _lockstep_counts(lefts, rights, lo, hi, width, ranges=None) -> np.ndarray:
    """Minimal closed ``width``-interval cover of the segments clipped to
    [lo, hi], for every window at once.

    Each lockstep step handles the next uncovered segment of every active
    window, then jumps past the segments its balls cover.  A window retires
    when its segments run out or its cover reaches hi, so the loop runs
    max(segments visited) <= max(N) steps, not one per segment.  ``ranges``:
    each window's (first, stop) segments, where the caller knows them.
    """
    idx, end = ranges or (np.searchsorted(rights, lo, side="left"),
                          np.searchsorted(lefts, hi, side="right"))
    counts = np.zeros(lo.shape, dtype=np.int64)
    pos = np.flatnonzero(idx < end)
    lo, hi, width, idx, end = lo[pos], hi[pos], width[pos], idx[pos], end[pos]
    covered = np.full(pos.size, -np.inf)
    balls = np.zeros(pos.size)
    while pos.size:
        start = np.maximum(np.maximum(lefts[idx], lo), covered)
        need = np.minimum(rights[idx], hi) - start
        # tolerance keeps exact multiples of the ball width at the exact count
        step = np.where(need <= 0, 1.0, np.ceil(need / width - 1e-12))
        balls += step
        covered = start + step * width
        # the tolerance can stop a cover a hair short of the segment's end;
        # the serial sweep moves on regardless, so never revisit it
        idx = np.maximum(idx + 1, np.searchsorted(rights, covered, side="right"))
        live = (idx < end) & (covered < hi)
        if not live.all():
            counts[pos[~live]] = balls[~live]
            pos, lo, hi, width, idx, end, covered, balls = (
                v[live] for v in (pos, lo, hi, width, idx, end, covered, balls))
    return counts


# A greedy cover of a 2r-cluster ends at most 2r past its last segment, plus
# under 5 ulp(1) of rounding for coordinates in [0, 1]: a space wider than
# 2r(1 + 1e-9) + 8 ulp(1) is a break.  A wider margin only merges clusters.
_BREAK_ULPS = 8 * np.finfo(np.float64).eps

# The lockstep sweep takes one step per ball, and a window needs at most about
# (hi - lo)/2r + 1 balls; one pass over its spaces to find its 2r-clusters costs
# a few hundred steps at W = 20.  At W >= 17 the windows of the pinned manifest
# and the policy sweep need <= 81 or >= 6,561 balls: any bound between agrees.
_LOCKSTEP_BALLS = 256


def _cover_counts(lefts, rights, lo, hi, r) -> np.ndarray:
    """`_lockstep_counts` of 2r-balls, bit for bit, for every window at once.

    No ball reaches across a space wider than 2r, so the greedy sweep
    restarts after it as in a fresh window.  A window wider than
    `_LOCKSTEP_BALLS` balls is counted by 2r-clusters: its clipped end
    clusters plus a prefix sum over one lockstep batch of its r's clusters.
    Spaces are scanned once, at the smallest r: its breaks hold all others.
    """
    lo, hi, r = (np.asarray(v, dtype=np.float64) for v in (lo, hi, r))
    idx = np.searchsorted(rights, lo, side="left")
    end = np.searchsorted(lefts, hi, side="right")
    counts = np.zeros(lo.shape, dtype=np.int64)
    wide = (idx < end) & (hi - lo > _LOCKSTEP_BALLS * 2.0 * r)
    rest = np.flatnonzero(~wide)
    parts = [(rest, lo[rest], hi[rest], r[rest])]   # (window, lo, hi, r) still to count
    radii = np.unique(r[wide])
    limits = 2.0 * radii * (1.0 + 1e-9) + _BREAK_ULPS
    if radii.size:   # the breaks for the smallest r, one block of spaces at a time; 0 is none
        a, b = idx[wide].min(), end[wide].max()
        cut = np.concatenate([[0], *(i + 1 + np.flatnonzero(
            lefts[i + 1:b][:rng._BLOCK] - rights[i:b - 1][:rng._BLOCK] > limits[0])
            for i in range(a, b - 1, rng._BLOCK))])
        space = lefts[cut] - rights[cut - 1]
    for radius, limit in zip(radii, limits):
        win = np.flatnonzero(wide & (r == radius))
        first, stop = idx[win], end[win]
        a, b = first.min(), stop.max()
        starts = np.append(a, cut[(cut > a) & (cut < b) & (space > limit)])
        lasts = np.append(starts[1:], b) - 1
        # a break is wider than 0 and no segment is inside out, so a cluster's segments end
        # where the next one's start: search only the two outer ends
        ranges = starts.copy(), lasts + 1
        ranges[0][0] = np.searchsorted(rights, lefts[starts[0]], side="left")
        ranges[1][-1] = np.searchsorted(lefts, rights[lasts[-1]], side="right")
        full = _lockstep_counts(lefts, rights, lefts[starts], rights[lasts],
                                np.full(starts.size, 2.0 * radius), ranges)
        head = np.searchsorted(starts, first, side="right") - 1
        tail = np.searchsorted(starts, stop - 1, side="right") - 1
        split = head < tail
        cum = np.concatenate([[0], np.cumsum(full)])
        counts[win[split]] = cum[tail[split]] - cum[head[split] + 1]
        parts.append((win, lo[win], np.where(split, rights[lasts[head]], hi[win]), r[win]))
        parts.append((win[split], lefts[starts[tail[split]]], hi[win[split]], r[win[split]]))
    win, lo, hi, r = (np.concatenate(col) for col in zip(*parts))
    np.add.at(counts, win, _lockstep_counts(lefts, rights, lo, hi, 2.0 * r))
    return counts


class CoverQuery(NamedTuple):
    """One resolved window: its geometry, exact count, and exponent.  Records
    compare as tuples, in field order: the estimate's tie-break.  The exponent
    is capped at 1, the dimension of the line; N can reach R/r + 1 at small R/r."""

    n: int
    k: int
    center_x: float
    radius_R: float
    scale_r: float
    count_N: int

    @property
    def exponent(self) -> float:   # 0 for N <= 1
        return min(1.0, math.log(max(self.count_N, 1)) / math.log(self.radius_R / self.scale_r))


# Shaving a hair off R drops set points at distance exactly R from the
# center; rule-based sequences hit that razor edge constantly (gap
# lengths are exact powers) and the touching endpoint would otherwise
# inflate small counts.
RADIUS_SHRINK = 1e-9


@dataclass(frozen=True)
class WindowPolicy:
    """How windows are enumerated for one dimension estimate.

    ``n_values`` of None means auto: the ``auto_n_count`` deepest levels
    whose full radius ladder stays above the truncation floor.  Centers
    are the endpoints of the level-n intervals, subsampled
    deterministically past ``max_centers``.
    """

    n_values: tuple[int, ...] | None = None
    auto_n_count: int = 3
    n_spread: bool = False        # auto levels spread over the feasible range, not just deepest
    k_min: int = 1
    k_max: int = 3
    max_centers: int = 64

    def __post_init__(self):
        if self.n_values is not None:
            if not isinstance(self.n_values, tuple) or not self.n_values:
                raise InvalidRangeError(
                    f"n_values must be null or a non-empty list of integers, got {self.n_values!r}")
            for n in self.n_values:
                check_value(n, "n_values entries", 1)
            if len(set(self.n_values)) < len(self.n_values):
                raise InvalidRangeError(f"n_values repeats a level: {list(self.n_values)}")
        if not isinstance(self.n_spread, bool):
            raise InvalidRangeError(f"n_spread must be true or false, got {self.n_spread!r}")
        check_value(self.k_min, "k_min", 0)
        check_value(self.k_max, "k_max", self.k_min)
        check_value(self.max_centers, "max_centers", 1)
        check_value(self.auto_n_count, "auto_n_count", 1)

    def to_config(self) -> dict:
        cfg = asdict(self)
        cfg["n_values"] = None if self.n_values is None else list(self.n_values)
        return cfg

    @staticmethod
    def from_config(cfg: dict) -> "WindowPolicy":
        cfg = dict(check_keys(cfg, "window policy",
                              optional=[f.name for f in fields(WindowPolicy)]))
        if isinstance(cfg.get("n_values"), list):
            cfg["n_values"] = tuple(cfg["n_values"])
        return WindowPolicy(**cfg)


@dataclass(frozen=True, eq=False)
class DimensionEstimate:
    direction: str               # "upper" | "lower"
    beta_hat: float
    _rungs: tuple = field(repr=False)   # (n, k, centers, R, r, counts) of each rung resolved
    depth_used: int
    window_policy: dict

    @cached_property
    def records(self) -> tuple[CoverQuery, ...]:
        """The windows with N >= 1, in enumeration order, made on first read."""
        return tuple(CoverQuery(n, k, x, big_r, r, c) for n, k, xs, big_r, r, cs in self._rungs
                     for x, c in zip(xs.tolist(), cs.tolist()) if c >= 1)

    def __eq__(self, other):   # as records, however stored
        return isinstance(other, DimensionEstimate) and \
            (self.to_record(), self.records) == (other.to_record(), other.records)

    def to_record(self) -> dict:
        return {
            "direction": self.direction,
            "beta_hat": self.beta_hat,
            "n_windows": len(self.records),
            "depth_used": self.depth_used,
            "window_policy": self.window_policy,
        }


def _auto_n_values(d: DepthTable, w: int, floor: float, policy: WindowPolicy) -> tuple[int, ...]:
    """Levels n whose radius ladder still resolves the set.

    A level is feasible when its ladder k_min..k_max stays above the
    truncation floor.  Default: the auto_n_count deepest feasible levels;
    with n_spread, levels evenly spaced across the whole feasible range.
    """
    log_floor = math.log(floor)
    p = d.profile
    feasible = []
    for n in range(d.n_min, min(d.n_max, w) + 1):
        m = n + d.phi(n) + policy.k_max
        if m <= p.n_max and p.log_s[m] >= log_floor:
            feasible.append(n)
    if not feasible:
        return ()
    if policy.n_spread and len(feasible) > policy.auto_n_count:
        idx = np.unique(np.linspace(0, len(feasible) - 1, policy.auto_n_count).round().astype(int))
        return tuple(feasible[i] for i in idx)
    return tuple(feasible[-policy.auto_n_count:])


def _pick_centers(s: ApproxSet, n: int, max_centers: int) -> np.ndarray:
    key = (n, max_centers)
    if key not in s._center_cache:
        lefts, rights = s.level_intervals(n)
        centers = np.unique(np.concatenate([lefts, rights]))
        if len(centers) > max_centers:
            u = rng.uniforms(rng.derive_seed(0, n), 0, len(centers))
            centers = centers[np.sort(np.argsort(u, kind="stable")[:max_centers])]
        s._center_cache[key] = centers
    return s._center_cache[key]


@dataclass(eq=False)
class _Windows(Sequence):
    """Read-only windows (n, k, x, R, r), stored as rungs (n, k, centers, R, r)."""

    rungs: list

    def __len__(self) -> int:
        return sum(centers.size for _, _, centers, _, _ in self.rungs)

    def __getitem__(self, i):   # an index walks the rung sizes; a slice makes every tuple
        if isinstance(i, slice):
            return list(self)[i]
        j = range(len(self))[i]      # as a list: from the end if negative, else IndexError
        for n, k, xs, big_r, r in self.rungs:
            if j < xs.size:
                return n, k, float(xs[j]), big_r, r
            j -= xs.size

    def __iter__(self):
        return ((n, k, x, big_r, r) for n, k, xs, big_r, r in self.rungs for x in xs.tolist())


def enumerate_windows(s: ApproxSet, d: DepthTable,
                      policy: WindowPolicy) -> Sequence[tuple[int, int, float, float, float]]:
    """Admissible (n, k, x, R, r) windows under the policy.

    R is the level-n scale s_n of ``d.profile``, shaved by RADIUS_SHRINK,
    and r runs over s_{n + phi(n) + k}.  Pairs with r >= R and radii below
    the truncation floor are skipped; NoAdmissibleWindowError is raised
    only when no window is left.  A rung (n, k) keeps the level-n centers.
    """
    p = d.profile
    floor = s.truncation_floor()
    n_values = policy.n_values or _auto_n_values(d, s.w, floor, policy)
    if not n_values:
        raise NoAdmissibleWindowError("no level has covering radii above the truncation floor")
    rungs = []
    for n in n_values:
        check_value(n, "window level", d.n_min, min(d.n_max, s.w))
        big_r = (1.0 - RADIUS_SHRINK) * p.s[n]
        centers = _pick_centers(s, n, policy.max_centers)
        for k in range(policy.k_min, policy.k_max + 1):
            m = n + d.phi(n) + k
            # the ladder is intersected with the truncation floor
            if m <= p.n_max and floor <= p.s[m] < big_r:
                rungs.append((n, k, centers, big_r, p.s[m]))
    if not rungs:
        raise NoAdmissibleWindowError("policy admits no window with r < R")
    return _Windows(rungs)


def estimate_dimension(s: ApproxSet, direction: str, f: DimensionFunction,
                       p: LevelProfile, d: DepthTable, policy: WindowPolicy) -> DimensionEstimate:
    """Window-sweep estimate of one Phi-dimension direction.

    Only ``d`` is read; ``f`` and ``p`` must be the Phi and the profile
    it was built from.  "upper" takes the max exponent over windows,
    "lower" the min; empty windows (count 0) are skipped — centers lie in
    the set, so they only arise from subsampled neighbors.  Windows not
    yet counted on ``s`` go to one call of the cover kernel (2r-clusters
    for a window wider than `_LOCKSTEP_BALLS` balls, where one pass over its
    spaces beats a lockstep step per ball) and are remembered by the set
    per (R, r): a count depends only on the segments, x +- R and r.  The
    reduction is a deterministic extremum with a lexicographic tie-break on
    the window.
    """
    if direction not in ("upper", "lower"):
        raise InvalidRangeError(f"direction must be upper or lower, got {direction!r}")
    if p is not d.profile or f != d.func:
        raise InvalidRangeError("f and p must be the Phi and the profile that d was built from")
    rungs = enumerate_windows(s, d, policy).rungs
    memo = s._count_cache   # (R, r) -> (the sorted centers counted, their counts)
    new = [x[~np.isin(x, memo[big_r, r][0])] if (big_r, r) in memo else x
           for _, _, x, big_r, r in rungs]
    lo, hi, r = (np.concatenate(col) for col in zip(*(
        (x - rung[3], x + rung[3], np.full(x.size, rung[4])) for rung, x in zip(rungs, new))))
    counted = np.split(_cover_counts(s.lefts, s.rights, lo, hi, r),
                       np.cumsum([x.size for x in new])[:-1])
    resolved = []   # (n, k, centers, R, r, counts) per rung
    for (n, k, centers, big_r, r), x, c in zip(rungs, new, counted):
        xs, cs = memo.get((big_r, r), (x[:0], c[:0]))
        if x.size:
            xs, first = np.unique(np.concatenate([xs, x]), return_index=True)
            memo[big_r, r] = xs, cs = xs, np.concatenate([cs, c])[first]
        resolved.append((n, k, centers, big_r, r, cs[np.searchsorted(xs, centers)]))
    # score the N >= 1 windows in numpy; the exact key decides among those within 1e-9 of the top
    sign = 1.0 if direction == "upper" else -1.0
    scores = [np.where(c < 1, -np.inf, sign * np.minimum(1.0, np.log(np.maximum(c, 1))
                                                          / math.log(big_r / r)))
              for *_, big_r, r, c in resolved]
    top = max(float(score.max()) for score in scores)
    if top == -np.inf:
        raise NoAdmissibleWindowError("all enumerated windows were empty")
    extremal = min((CoverQuery(n, k, float(centers[i]), big_r, r, int(c[i]))
                    for (n, k, centers, big_r, r, c), score in zip(resolved, scores)
                    for i in np.flatnonzero(score >= top - 1e-9)),
                   key=lambda q: (-sign * q.exponent, q))
    return DimensionEstimate(
        direction=direction, beta_hat=extremal.exponent, _rungs=tuple(resolved),
        depth_used=s.w, window_policy=policy.to_config(),
    )
