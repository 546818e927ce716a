"""Closed-form upper/lower dimension estimates for the Cantor arrangement.

The estimates realize the inf/sup-with-constants characterization as a
ladder of finite extrema: for a cutoff k0 the admissible windows are

    {(k, n) : k >= k0, n >= max(phi(k), 1), k + n <= N}

and each window contributes the exponent n * ln 2 / ln(s_k / s_{k+n}).
The upper estimate is the max (non-increasing in k0), the lower the min
(non-decreasing in k0); the reported limit is the value at the deepest
rung of the ladder k0 in {4, 8, 16, ...}, capped at N/4 so that both
ratio regimes of an inhomogeneous schedule stay represented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dimfuncs import DepthTable
from .errors import InsufficientDepthError, NoAdmissibleWindowError, check_value
from .sequences import LevelProfile

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class FormulaEstimate:
    direction: str                       # "upper" | "lower"
    k0_ladder: tuple[tuple[int, float], ...]
    beta_limit: float
    window_argmax: tuple[int, int]       # (k, n) attaining the extremum at deepest k0
    stability: float | None              # |beta(k0_max) - beta(k0_max/2)|, None on one rung
    skipped_levels: int                  # k with no admissible n (phi(k) > N - k)

    def to_record(self) -> dict:
        return {
            "direction": self.direction,
            "k0_ladder": [[k0, b] for k0, b in self.k0_ladder],
            "beta_limit": self.beta_limit,
            "argmax_window": list(self.window_argmax),
            "stability": self.stability,
        }


def _window_extrema(d: DepthTable, n_levels: int, sign: float):
    """Per-k extremum of sign * exponent over admissible n; exact O(N^2) sweep."""
    log_s = d.profile.log_s
    best = {}                    # k -> (extremal exponent, its n)
    skipped = 0
    k_hi = min(n_levels - 1, d.n_max)
    for k in range(d.n_min, k_hi + 1):
        n_lo = max(d.phi(k), 1)
        if k + n_lo > n_levels:
            skipped += 1
            continue
        ns = np.arange(n_lo, n_levels - k + 1)
        expo = ns * _LN2 / (log_s[k] - log_s[k + ns])
        i = int(np.argmax(sign * expo))
        best[k] = (float(expo[i]), int(ns[i]))
    return best, skipped


def _formula_estimate(d: DepthTable, n_levels: int, direction: str) -> FormulaEstimate:
    check_value(n_levels, "n_levels", 1, d.profile.n_max, error=InsufficientDepthError)
    sign = 1.0 if direction == "upper" else -1.0
    per_k, skipped = _window_extrema(d, n_levels, sign)
    if not per_k:
        raise NoAdmissibleWindowError("phi(k) exceeds N - k for every level k")

    ladder = []
    k0 = 4
    while k0 <= max(4, n_levels // 4):
        admissible = [k for k in per_k if k >= k0]
        if not admissible:
            break
        k_star = max(admissible, key=lambda k: (sign * per_k[k][0], -k))
        ladder.append((k0, per_k[k_star][0], k_star))
        k0 *= 2
    if not ladder:
        raise NoAdmissibleWindowError(f"no admissible window above k0=4 (N={n_levels})")

    _, beta_limit, argmax_k = ladder[-1]
    stability = abs(ladder[-1][1] - ladder[-2][1]) if len(ladder) >= 2 else None
    return FormulaEstimate(
        direction=direction,
        k0_ladder=tuple((k0, b) for k0, b, _ in ladder),
        beta_limit=beta_limit,
        window_argmax=(argmax_k, per_k[argmax_k][1]),
        stability=stability,
        skipped_levels=skipped,
    )


def upper_phi_dim_formula(d: DepthTable, n_levels: int) -> FormulaEstimate:
    """Upper dimension of the Cantor arrangement from the window-ratio
    formula on ``d.profile``'s first ``n_levels`` levels."""
    return _formula_estimate(d, n_levels, "upper")


def lower_phi_dim_formula(d: DepthTable, n_levels: int) -> FormulaEstimate:
    """Lower dimension: mirror image (min in place of max)."""
    return _formula_estimate(d, n_levels, "lower")


def box_dim_estimate(p: LevelProfile) -> float:
    """Diagnostic box-dimension estimate n * ln2 / |ln s_n| at the deepest level."""
    if p.n_max < 16:
        raise InsufficientDepthError("box estimate needs >= 16 levels")
    return float(p.n_max * _LN2 / -p.log_s[-1])
