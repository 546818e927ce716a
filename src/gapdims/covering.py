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
Radii below the approximation's truncation floor are refused, since at
those scales the depth-W set no longer resolves the true one.  Window
centers sit at endpoints of the construction intervals: these are points
of the set, and the extrema over them capture the extrema over the whole
set at the scales in play.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .dimfuncs import DepthTable, DimensionFunction
from .errors import InvalidRangeError, NoAdmissibleWindowError, TruncationViolationError
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


def cover_count(s: ApproxSet, x: float, big_r: float, r: float) -> int:
    """Exact N_r(B(x, R) intersected with the depth-W set).

    Refuses radii below the truncation floor: counts there belong to the
    truncation, not the set.
    """
    if r <= 0 or big_r <= 0:
        raise InvalidRangeError("radii must be positive")
    if not (-1.0 <= x - big_r and x + big_r <= 2.0):
        raise InvalidRangeError("window must stay within [-1, 2]")
    if r < s.truncation_floor():
        raise TruncationViolationError(
            f"radius {r:.3g} below truncation floor {s.truncation_floor():.3g}")
    lefts, rights = s.solid_segments()
    return int(_cover_counts(lefts, rights, [x - big_r], [x + big_r], [r])[0])


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


@dataclass(frozen=True)
class WindowPolicy:
    """How windows are enumerated for one dimension estimate.

    ``n_values`` of None means auto: the ``auto_n_count`` deepest levels
    whose full radius ladder stays above the truncation floor.  Centers
    are the endpoints of the level-n intervals, subsampled
    deterministically by ``center_seed`` past ``max_centers``.
    """

    n_values: tuple[int, ...] | None = None
    auto_n_count: int = 3
    n_spread: bool = False        # auto levels spread over the feasible range, not just deepest
    k_min: int = 1
    k_max: int = 3
    k_auto: bool = False          # extend each n's ladder down to the truncation floor
    span_levels_max: int | None = None   # require n >= W - this (caps segments per window)
    max_centers: int = 64
    center_seed: int = 0
    margin_radius: bool = False   # also try R = (1 - 2*lambda) * s_n
    # Shaving a hair off R drops set points at distance exactly R from the
    # center; rule-based sequences hit that razor edge constantly (gap
    # lengths are exact powers) and the touching endpoint would otherwise
    # inflate small counts.
    radius_shrink: float = 1e-9

    def __post_init__(self):
        if self.k_min < 0 or (not self.k_auto and self.k_max < self.k_min):
            raise InvalidRangeError("need 0 <= k_min <= k_max")
        if self.max_centers < 1 or self.auto_n_count < 1:
            raise InvalidRangeError("max_centers and auto_n_count must be >= 1")
        if not 0.0 <= self.radius_shrink < 1e-3:
            raise InvalidRangeError("radius_shrink outside [0, 1e-3)")

    def to_config(self) -> dict:
        return {
            "n_values": list(self.n_values) if self.n_values is not None else None,
            "auto_n_count": self.auto_n_count,
            "n_spread": self.n_spread,
            "k_min": self.k_min,
            "k_max": self.k_max,
            "k_auto": self.k_auto,
            "span_levels_max": self.span_levels_max,
            "max_centers": self.max_centers,
            "center_seed": self.center_seed,
            "margin_radius": self.margin_radius,
            "radius_shrink": self.radius_shrink,
        }

    @staticmethod
    def from_config(cfg: dict) -> "WindowPolicy":
        cfg = dict(cfg)
        if cfg.get("n_values") is not None:
            cfg["n_values"] = tuple(cfg["n_values"])
        return WindowPolicy(**cfg)


@dataclass(frozen=True)
class DimensionEstimate:
    direction: str               # "upper" | "lower"
    beta_hat: float
    records: tuple[CoverQuery, ...]
    depth_used: int
    window_policy: dict
    extremal: CoverQuery

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

    A level is feasible when its mandatory ladder (k_min..k_max, or just
    k_min under k_auto) stays above the truncation floor.  Default: the
    auto_n_count deepest feasible levels; with n_spread, levels evenly
    spaced across the whole feasible range.
    """
    log_floor = math.log(floor)
    p = d.profile
    k_need = policy.k_min if policy.k_auto else policy.k_max
    n_lo = d.n_min
    if policy.span_levels_max is not None:
        n_lo = max(n_lo, w - policy.span_levels_max)
    feasible = []
    for n in range(n_lo, min(d.n_max, w) + 1):
        m = n + d.phi(n) + k_need
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
    u = rng.uniforms(rng.derive_seed(policy.center_seed, n), 0, len(centers))
    keep = np.sort(np.argsort(u, kind="stable")[: policy.max_centers])
    return centers[keep]


def enumerate_windows(s: ApproxSet, f: DimensionFunction, p: LevelProfile,
                      d: DepthTable, policy: WindowPolicy) -> list[tuple[int, int, float, float, float]]:
    """Admissible (n, k, x, R, r) windows under the policy.

    R runs over the level-n scale s_n (plus the (1-2*lambda)*s_n variant
    when requested) and r over s_{n + phi(n) + k}; pairs with r >= R are
    dropped, radii below the truncation floor raise.
    """
    floor = s.truncation_floor()
    n_values = policy.n_values or _auto_n_values(d, s.w, floor, policy)
    if not n_values:
        raise NoAdmissibleWindowError("no level has covering radii above the truncation floor")
    out = []
    shrink = 1.0 - policy.radius_shrink
    for n in n_values:
        if not d.n_min <= n <= min(d.n_max, s.w):
            raise InvalidRangeError(f"window level {n} outside phi table or depth")
        radii_R = [shrink * p.s[n]]
        if policy.margin_radius:
            radii_R.append(shrink * (1.0 - 2.0 * p.lambda_hat) * p.s[n])
        centers = _pick_centers(s, n, policy)
        k_hi = policy.k_max
        if policy.k_auto:
            # deepest k whose radius stays above the floor
            m_floor = int(np.searchsorted(-p.log_s, -math.log(floor), side="right")) - 1
            k_hi = max(policy.k_max, m_floor - n - d.phi(n))
        for k in range(policy.k_min, k_hi + 1):
            m = n + d.phi(n) + k
            if m > p.n_max:
                continue
            r = p.s[m]
            if r < floor:
                continue   # ladder is intersected with the truncation floor
            for big_r in radii_R:
                if r >= big_r:
                    continue
                out.extend((n, k, float(x), big_r, r) for x in centers)
    if not out:
        raise NoAdmissibleWindowError("policy admits no window with r < R")
    return out


def estimate_dimension(s: ApproxSet, direction: str, f: DimensionFunction,
                       p: LevelProfile, d: DepthTable, policy: WindowPolicy) -> DimensionEstimate:
    """Window-sweep estimate of one Phi-dimension direction.

    ``direction`` "upper" takes the max exponent over windows, "lower"
    the min; empty windows (count 0) are skipped — centers lie in the
    set, so they only arise from subsampled neighbors.  All windows are
    counted in one lockstep sweep; the reduction is a deterministic
    extremum with a lexicographic tie-break on the window.
    """
    if direction not in ("upper", "lower"):
        raise InvalidRangeError(f"direction must be upper or lower, got {direction!r}")
    windows = enumerate_windows(s, f, p, d, policy)
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
        window_policy=policy.to_config(), extremal=extremal,
    )
