"""Localized covering counts and window-based dimension estimates.

A window is a ball B(x, R) with R the level-n scale and a covering
radius r at least phi(n) levels deeper, so each scale pair respects
r <= R^(1 + Phi(R)).  The upper-dimension estimate is the max of
ln N / ln(R/r) over all enumerated windows, the lower estimate the min,
where N is the exact minimum number of closed balls of radius r needed
to cover the approximate set inside the window.

Counting is exact: in one dimension the greedy sweep (always start the
next ball at the leftmost uncovered point) is optimal.  One vectorized
kernel runs that sweep over all windows of an estimate in lockstep, with
the serial loop's float arithmetic, so counts match it bit for bit.
Radii below the approximation's truncation floor are skipped, since at
those scales the depth-W set no longer resolves the true one.  Window
centers sit at endpoints of the construction intervals: these are points
of the set, and the extrema over them capture the extrema over the whole
set at the scales in play.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import rng
from .dimfuncs import DepthTable, DimensionFunction
from .errors import (GapdimsError, InvalidRangeError, NoAdmissibleWindowError,
                     check_keys, check_value)
from .randmodel import ApproxSet
from .sequences import LevelProfile


def _cover_counts(lefts, rights, lo, hi, r) -> np.ndarray:
    """Minimal closed 2r-interval cover of the segments clipped to [lo, hi],
    for every window at once.

    Each lockstep step handles the next uncovered segment of every active
    window, then jumps past the segments its balls cover.  A window retires
    when its segments run out or its cover reaches hi, so the loop runs
    max(segments visited) <= max(N) steps, not one per segment.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    width = 2.0 * np.asarray(r, dtype=np.float64)
    idx = np.searchsorted(rights, lo, side="left")
    end = np.searchsorted(lefts, hi, side="right")
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


@dataclass(frozen=True)
class CoverQuery:
    """One resolved window: its geometry, exact count, and exponent."""

    n: int
    k: int
    center_x: float
    radius_R: float
    scale_r: float
    count_N: int

    @property
    def exponent(self) -> float:
        if self.count_N <= 1:
            return 0.0
        return math.log(self.count_N) / math.log(self.radius_R / self.scale_r)

    def sort_key(self):
        return (self.n, self.k, self.center_x, self.radius_R)


# Shaving a hair off R drops set points at distance exactly R from the
# center; rule-based sequences hit that razor edge constantly (gap
# lengths are exact powers) and the touching endpoint would otherwise
# inflate small counts.
RADIUS_SHRINK = 1e-9

# Removed policy options, each still accepted at the value that left the
# windows unchanged, so manifests written with them load as before.
_RETIRED_KEYS = {"k_auto": False, "margin_radius": False, "span_levels_max": None,
                 "center_seed": 0, "radius_shrink": RADIUS_SHRINK}


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
                              optional=[*(f.name for f in fields(WindowPolicy)),
                                        *_RETIRED_KEYS]))
        for key, value in _RETIRED_KEYS.items():
            got = cfg.pop(key, value)
            if type(got) is not type(value) or got != value:
                raise GapdimsError(f"window policy key {key!r} is removed and accepts "
                                   f"only {json.dumps(value)}, got {got!r}")
        if isinstance(cfg.get("n_values"), list):
            cfg["n_values"] = tuple(cfg["n_values"])
        return WindowPolicy(**cfg)


@dataclass(frozen=True)
class DimensionEstimate:
    direction: str               # "upper" | "lower"
    beta_hat: float
    records: tuple[CoverQuery, ...]
    depth_used: int
    window_policy: dict

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


def _pick_centers(s: ApproxSet, n: int, policy: WindowPolicy) -> np.ndarray:
    lefts, rights = s.level_intervals(n)
    centers = np.unique(np.concatenate([lefts, rights]))
    if len(centers) <= policy.max_centers:
        return centers
    u = rng.uniforms(rng.derive_seed(0, n), 0, len(centers))
    keep = np.sort(np.argsort(u, kind="stable")[: policy.max_centers])
    return centers[keep]


def enumerate_windows(s: ApproxSet, d: DepthTable,
                      policy: WindowPolicy) -> list[tuple[int, int, float, float, float]]:
    """Admissible (n, k, x, R, r) windows under the policy.

    R is the level-n scale s_n of ``d.profile``, shaved by RADIUS_SHRINK,
    and r runs over s_{n + phi(n) + k}.  Pairs with r >= R and radii below
    the truncation floor are skipped; NoAdmissibleWindowError is raised
    only when no window is left.
    """
    p = d.profile
    floor = s.truncation_floor()
    n_values = policy.n_values or _auto_n_values(d, s.w, floor, policy)
    if not n_values:
        raise NoAdmissibleWindowError("no level has covering radii above the truncation floor")
    out = []
    for n in n_values:
        if not d.n_min <= n <= min(d.n_max, s.w):
            raise InvalidRangeError(f"window level {n} outside phi table or depth")
        big_r = (1.0 - RADIUS_SHRINK) * p.s[n]
        centers = _pick_centers(s, n, policy)
        for k in range(policy.k_min, policy.k_max + 1):
            m = n + d.phi(n) + k
            # the ladder is intersected with the truncation floor
            if m <= p.n_max and floor <= p.s[m] < big_r:
                out.extend((n, k, float(x), big_r, p.s[m]) for x in centers)
    if not out:
        raise NoAdmissibleWindowError("policy admits no window with r < R")
    return out


def estimate_dimension(s: ApproxSet, direction: str, f: DimensionFunction,
                       p: LevelProfile, d: DepthTable, policy: WindowPolicy) -> DimensionEstimate:
    """Window-sweep estimate of one Phi-dimension direction.

    Only ``d`` is read; ``f`` and ``p`` must be the Phi and the profile
    it was built from.  "upper" takes the max exponent over windows,
    "lower" the min; empty windows (count 0) are skipped — centers lie in
    the set, so they only arise from subsampled neighbors.  All windows
    are counted in one lockstep sweep; the reduction is a deterministic
    extremum with a lexicographic tie-break on the window.
    """
    if direction not in ("upper", "lower"):
        raise InvalidRangeError(f"direction must be upper or lower, got {direction!r}")
    if p is not d.profile or f != d.func:
        raise InvalidRangeError("f and p must be the Phi and the profile that d was built from")
    windows = enumerate_windows(s, d, policy)
    _, _, x, big_r, r = (np.array(col) for col in zip(*windows))
    counts = _cover_counts(*s.solid_segments(), x - big_r, x + big_r, r)
    records = [CoverQuery(n=n, k=k, center_x=cx, radius_R=cR, scale_r=cr, count_N=c)
               for (n, k, cx, cR, cr), c in zip(windows, counts.tolist()) if c >= 1]
    if not records:
        raise NoAdmissibleWindowError("all enumerated windows were empty")
    sign = 1.0 if direction == "upper" else -1.0
    extremal = min(records, key=lambda q: (-sign * q.exponent, q.sort_key()))
    return DimensionEstimate(
        direction=direction, beta_hat=extremal.exponent,
        records=tuple(records), depth_used=s.w,
        window_policy=policy.to_config(),
    )
