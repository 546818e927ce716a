"""Gap sequences and their level sums.

A gap sequence is a positive non-increasing sequence a_1 >= a_2 >= ... with
total sum 1.  Index j has level n = bit_length(j), i.e. level n holds the
2^(n-1) indices 2^(n-1) .. 2^n - 1.  The level sum

    s_n = 2^(-n) * sum_{j >= 2^n} a_j

is the average length of the step-n intervals of the associated Cantor set.

Rule-based sequences assign one ratio r_n in (0, 1/2) to every level; all
level-n gaps then have length (1 - 2 r_n) * prod_{k<n} r_k and the level
sums telescope to s_n = prod_{k<=n} r_k.  They are evaluated lazily by this
closed form, so a_j and s_n are available at depths where materializing the
sequence would be impossible.  Supported ratio schedules:

    constant   r_n = r for all n ("middle-third" is the r = 1/3 case)
    periodic   r_n cycles through a finite list
    blocks     two ratios alternate over dyadic blocks of levels
               [2^m, 2^(m+1)), so runs of equal ratios grow with depth

Explicit sequences carry a finite materialized list and are capped at 2^24
entries; their sums are accumulated from the smallest terms upward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .errors import (
    InsufficientDepthError,
    InvalidRangeError,
    InvalidRatioError,
    NotDecreasingError,
    NotNormalizedError,
    check_keys,
    check_value,
)

MAX_RULE_LEVEL = 400
MAX_EXPLICIT = 2 ** 24
_HALF_MARGIN = 1e-9  # strictness margin for ratio < 1/2 tests
_RATIO_COUNTS = {"constant": (1, 1), "periodic": (1, math.inf), "blocks": (2, 2)}


def _ratio_table(schedule: str, ratios: tuple[float, ...], n_levels: int) -> np.ndarray:
    """r_1 .. r_{n_levels} as an array."""
    if schedule == "constant":
        return np.full(n_levels, ratios[0])
    if schedule == "periodic":
        reps = -(-n_levels // len(ratios))
        return np.tile(np.asarray(ratios), reps)[:n_levels]
    if schedule == "blocks":
        lev = np.arange(1, n_levels + 1)
        block = np.floor(np.log2(lev)).astype(int)  # level n sits in block floor(log2 n)
        return np.asarray(ratios)[block % len(ratios)]
    raise ValueError(f"unknown ratio schedule {schedule!r}")


@dataclass(frozen=True)
class GapSequence:
    """A gap sequence, either rule-based (lazy) or explicit (materialized)."""

    kind: str                       # "central" | "middle-third" | "explicit"
    schedule: str | None = None     # for central: "constant" | "periodic" | "blocks"
    ratios: tuple[float, ...] | None = None
    gaps: np.ndarray | None = field(default=None, repr=False)

    @property
    def rule_based(self) -> bool:
        return self.kind != "explicit"

    @property
    def max_index(self) -> int:
        if self.rule_based:
            return 2 ** MAX_RULE_LEVEL - 1
        return len(self.gaps)

    # -- level tables (rule-based closed forms) ---------------------------

    def log_level_sums(self, n_max: int) -> np.ndarray:
        """ln s_0 .. ln s_{n_max}."""
        if self.rule_based:
            if n_max > MAX_RULE_LEVEL:
                raise InsufficientDepthError(f"n_max={n_max} exceeds {MAX_RULE_LEVEL}")
            r = _ratio_table(self.schedule, self.ratios, n_max)
            return np.concatenate([[0.0], np.cumsum(np.log(r))])
        return np.log(self._explicit_level_sums(n_max))

    def _explicit_level_sums(self, n_max: int) -> np.ndarray:
        if 2 ** int(n_max) > len(self.gaps):   # a NumPy 2 ** 64 wraps to 0
            raise InsufficientDepthError(
                f"explicit list of {len(self.gaps)} gaps has no level-{n_max} sum"
            )
        out = np.empty(n_max + 1)
        for n in range(n_max + 1):
            # compensated: fsum from the smallest terms upward
            out[n] = math.fsum(self.gaps[2 ** n - 1:][::-1]) / 2 ** n
        return out

    def level_gap_lengths(self, n_max: int) -> np.ndarray:
        """Common gap length of each level 1..n_max (rule-based only)."""
        r = _ratio_table(self.schedule, self.ratios, n_max)
        return (1.0 - 2.0 * r) * np.exp(self.log_level_sums(n_max - 1))

    def gap_lengths(self, indices: np.ndarray) -> np.ndarray:
        """a_j for an array of indices (1-based)."""
        idx = np.asarray(indices)
        if idx.dtype.kind not in "iu":
            raise InvalidRangeError(f"gap indices must be integers, got dtype {idx.dtype}")
        idx = idx if idx.dtype == np.int32 else idx.astype(np.int64, copy=False)   # int32: no copy
        if idx.size and (idx.min() < 1 or idx.max() > self.max_index):
            raise InsufficientDepthError("gap index out of materializable range")
        if not self.rule_based:
            return self.gaps[idx - 1]
        levels = (idx * 2.0 ** -1022).view(np.int64)   # exact: a normal float64 for j >= 1
        levels >>= 52        # biased exponent of float(j) * 2^-1022: the bit length of j
        table = np.concatenate([[np.nan], self.level_gap_lengths(int(levels.max(initial=1)))])
        # each level is read before its slot is written: the lengths overwrite their levels
        return np.take(table, levels, out=levels.view(np.float64), mode="clip")

    def tail_mass(self, w: int) -> float:
        """sum_{j >= 2^w} a_j = 2^w * s_w."""
        if self.rule_based:
            return float(np.exp(w * math.log(2.0) + self.log_level_sums(w)[w]))
        return math.fsum(self.gaps[2 ** w - 1:][::-1])

    # -- serialization -----------------------------------------------------

    def to_config(self) -> dict:
        if self.kind == "explicit":
            return {"kind": "explicit", "gaps": [float(g) for g in self.gaps]}
        cfg: dict = {"kind": self.kind}
        if self.kind == "central":
            cfg["schedule"] = self.schedule
            cfg["ratios"] = list(self.ratios)
        return cfg

    @staticmethod
    def from_config(cfg: dict) -> "GapSequence":
        return make_sequence(
            **check_keys(cfg, "sequence", ("kind",), ("ratios", "gaps", "schedule")))


def make_sequence(
    kind: str,
    ratios=None,
    gaps=None,
    schedule: str | None = None,
) -> GapSequence:
    """Validating factory for gap sequences.

    kind "middle-third":  the classical a_i = 3^-n rule.
    kind "central":       ratio schedule; `ratios` is a float or list,
                          `schedule` constant (default) / periodic / blocks.
    kind "explicit":      `gaps` is a positive non-increasing list, sum 1.
    An argument that the kind does not take is refused, not ignored.
    """
    if kind in ("middle-third", "central", "explicit"):
        for name, value, owner in (("ratios", ratios, "central"), ("gaps", gaps, "explicit"),
                                   ("schedule", schedule, "central")):
            if value is not None and kind != owner:
                raise InvalidRatioError(f"{kind} sequence takes no {name}")
    if kind == "middle-third":
        return GapSequence(kind="middle-third", schedule="constant", ratios=(1.0 / 3.0,))

    if kind == "central":
        if ratios is None:
            raise InvalidRatioError("central sequence needs at least one ratio")
        if np.isscalar(ratios):
            ratios = [ratios]
        schedule = "constant" if schedule is None else schedule
        if schedule not in tuple(_RATIO_COUNTS):   # a tuple: unhashable is just unknown
            raise InvalidRatioError(f"unknown schedule {schedule!r}")
        lo, hi = _RATIO_COUNTS[schedule]
        if not lo <= len(ratios) <= hi:
            want = f"exactly {lo}" if lo == hi else f"at least {lo}"
            raise InvalidRatioError(
                f"{schedule} schedule takes {want} ratio(s), got {len(ratios)}")
        for r in ratios:
            check_value(r, "ratio", kind=Real)
            if not (0.0 < r < 0.5):
                raise InvalidRatioError(f"ratio {r} outside (0, 1/2)")
        ratios = tuple(float(r) for r in ratios)
        return GapSequence(kind="central", schedule=schedule, ratios=ratios)

    if kind == "explicit":
        try:
            arr = np.asarray(gaps)
        except ValueError:   # a ragged list, such as [0.5, [0.25, 0.25]]
            arr = None
        # one vectorised check: strings, bools and nulls give a non-numeric dtype
        if arr is None or arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
            raise InvalidRangeError("explicit gaps must be a list of finite numbers")
        arr = arr.astype(np.float64, copy=False)
        if arr.ndim != 1 or arr.size == 0 or arr.size > MAX_EXPLICIT:
            raise NotDecreasingError("explicit list must be 1-D, non-empty, <= 2^24 long")
        if np.any(arr <= 0) or np.any(np.diff(arr) > 0):
            raise NotDecreasingError("explicit list must be positive and non-increasing")
        total = math.fsum(arr[::-1])
        if abs(total - 1.0) > 1e-12:
            raise NotNormalizedError(f"explicit list sums to {total!r}, not 1")
        return GapSequence(kind="explicit", gaps=arr)

    raise InvalidRatioError(f"unknown sequence kind {kind!r}")


@dataclass(frozen=True)
class LevelProfile:
    """Level sums s_0..s_N with the empirical comparability constants.

    tau_hat / lambda_hat are the extreme consecutive ratios s_{n+1}/s_n
    over the computed range.  `level_comparable` certifies Eq.-style bounds
    0 < tau <= s_{j+1}/s_j <= lambda < 1/2 with a 1e-9 strictness margin.
    """

    sequence: GapSequence
    s: np.ndarray
    log_s: np.ndarray
    tau_hat: float
    lambda_hat: float
    level_comparable: bool

    @property
    def n_max(self) -> int:
        return len(self.s) - 1


def level_sums(a: GapSequence, n_levels: int) -> LevelProfile:
    """Compute the profile s_0..s_{n_levels} plus the tau/lambda hats."""
    check_value(n_levels, "n_levels", 1, error=InsufficientDepthError)
    if not a.rule_based and 2 ** int(n_levels) > a.max_index:   # a NumPy 2 ** 64 wraps to 0
        raise InsufficientDepthError(
            f"N={n_levels} too deep for sequence with max index {a.max_index}"
        )
    log_s = a.log_level_sums(n_levels)
    s = np.exp(log_s)
    ratios = np.exp(np.diff(log_s))
    tau_hat = float(ratios.min())
    lambda_hat = float(ratios.max())
    level_comparable = tau_hat > 0.0 and lambda_hat <= 0.5 - _HALF_MARGIN
    return LevelProfile(
        sequence=a,
        s=s,
        log_s=log_s,
        tau_hat=tau_hat,
        lambda_hat=lambda_hat,
        level_comparable=level_comparable,
    )
