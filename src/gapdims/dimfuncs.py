"""Dimension functions and the integer depth function.

A dimension function maps x in (0,1) to a non-negative value such that
x^(1 + f(x)) is non-increasing as x decreases.  All logarithms are natural.
Families (L denotes |ln x|):

    zero          0                      (the Assouad case)
    constant      delta                  (the theta-spectrum case)
    inverse-log   c / L
    psi           ln(L) / L              (the large/small threshold)
    scaled-psi    gamma * ln(L) / L
    power-log     L^(-p), 0 < p < 1
    tabulated     log-log interpolation of a (x, value) grid, clamped

Against a level profile, the depth function phi(n) is the minimal j >= 0
with s_{n+j} <= s_n^(1 + f(s_n)).  Levels with s_n >= 1/2 (or above the
family's domain ceiling) are excluded; the definitions are asymptotic and
only small scales matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .errors import InsufficientDepthError, OutOfDomainError, check_keys, check_value
from .sequences import LevelProfile

_FAMILIES = ("zero", "constant", "inverse-log", "psi", "scaled-psi", "power-log", "tabulated")
_GRID_POINTS = 1200
_DOMAIN_FLOOR = 1e-280   # smallest x a dimension function accepts
_LOG_TOL = 1e-9  # relative slack on log-space threshold comparisons
SMALL_LOAD_RATIO = 0.95   # Phi is small at level n while load_ratio(n, phi(n)) stays below


def load_ratio(n: int, phi: int) -> float:
    """rho = 2^phi / ln(2^n): a level-n interval's mean load of gaps from the next phi levels
    over ln of the number of intervals.  The small-Phi hypothesis is 2^phi << n ln 2."""
    return 2.0 ** phi / (n * math.log(2.0))


@dataclass(frozen=True)
class DimensionFunction:
    family: str
    param: float | None = None
    grid: tuple[tuple[float, float], ...] | None = field(default=None, repr=False)

    @property
    def domain_ceiling(self) -> float:
        # psi-type values are positive only below 1/e
        if self.family in ("psi", "scaled-psi"):
            return math.exp(-(1.0 + 1e-9))
        return 1.0

    def value_at_neg_log(self, neg_log_x) -> np.ndarray:
        """Evaluate at x given L = |ln x| (> 0); vectorized, no domain check."""
        L = np.asarray(neg_log_x, dtype=np.float64)
        if self.family == "zero":
            return np.zeros_like(L)
        if self.family == "constant":
            return np.full_like(L, self.param)
        if self.family == "inverse-log":
            return self.param / L
        if self.family == "psi":
            return np.log(L) / L
        if self.family == "scaled-psi":
            return self.param * np.log(L) / L
        if self.family == "power-log":
            return L ** (-self.param)
        # tabulated: interpolate value vs L linearly in (ln L, value), clamped
        gl = np.log([-math.log(x) for x, _ in self.grid])
        gv = np.array([v for _, v in self.grid])
        order = np.argsort(gl)
        return np.interp(np.log(L), gl[order], gv[order])

    def __call__(self, x) -> np.ndarray | float:
        xa = np.asarray(x, dtype=np.float64)
        if np.any(xa < _DOMAIN_FLOOR) or np.any(xa >= self.domain_ceiling):
            raise OutOfDomainError(f"x outside [{_DOMAIN_FLOOR}, {self.domain_ceiling})")
        out = self.value_at_neg_log(-np.log(xa))
        return float(out) if np.isscalar(x) else out

    def to_config(self) -> dict:
        cfg: dict = {"family": self.family}
        if self.param is not None:
            cfg["param"] = self.param
        if self.grid is not None:
            cfg["grid"] = [list(p) for p in self.grid]
        return cfg

    @staticmethod
    def from_config(cfg: dict) -> "DimensionFunction":
        return make_dimension_function(
            **check_keys(cfg, "dimension function", ("family",), ("param", "grid")))


def make_dimension_function(family: str, param=None, grid=None) -> DimensionFunction:
    """Validating factory; checks positivity and the monotone-scaling law."""
    if family not in _FAMILIES:
        raise OutOfDomainError(f"unknown family {family!r}")
    if param is not None and family in ("zero", "psi", "tabulated"):
        raise OutOfDomainError(f"{family} takes no parameter, got {param!r}")
    if grid is not None and family != "tabulated":
        raise OutOfDomainError(f"{family} takes no grid; only tabulated does")
    if param is not None:
        check_value(param, f"{family} parameter", kind=Real)
    if family in ("constant", "inverse-log", "scaled-psi") and (param is None or param <= 0):
        raise OutOfDomainError(f"{family} needs a positive parameter")
    if family == "power-log" and (param is None or not 0.0 < param < 1.0):
        raise OutOfDomainError("power-log exponent must lie in (0, 1)")
    if family == "tabulated":
        if not isinstance(grid, (list, tuple)) or len(grid) < 2 or any(
                not isinstance(pt, (list, tuple)) or len(pt) != 2 for pt in grid):
            raise OutOfDomainError("tabulated grid needs a list of >= 2 [x, value] pairs")
        for value in (v for pt in grid for v in pt):
            check_value(value, "tabulated grid entry", kind=Real)
        grid = tuple(sorted((float(x), float(v)) for x, v in grid))
        if any(not (0.0 < x < 1.0) or v < 0.0 for x, v in grid):
            raise OutOfDomainError("tabulated grid needs x in (0,1), values >= 0")
    f = DimensionFunction(family=family, param=None if param is None else float(param),
                          grid=grid)
    _check_monotone(f)
    return f


def _check_monotone(f: DimensionFunction) -> None:
    """Assert x^(1+f(x)) is non-increasing as x decreases, on a geometric grid."""
    L = np.linspace(math.log(2.0) if f.domain_ceiling >= 0.5 else 1.0 + 1e-6,
                    -math.log(_DOMAIN_FLOOR), _GRID_POINTS)
    h = -(1.0 + f.value_at_neg_log(L)) * L  # = ln(x^(1+f(x))), x = e^-L
    # as L grows (x decreases) h must not increase
    if np.any(np.diff(h) > 1e-12 * np.abs(h[1:])):
        raise OutOfDomainError(f"{f.family} violates the x^(1+f(x)) monotonicity law")


@dataclass(frozen=True)
class DepthTable:
    """phi(n) for n in [n_min, n_max] against a fixed level profile."""

    func: DimensionFunction
    profile: LevelProfile
    n_min: int
    phi_values: np.ndarray       # ints, index i holds phi(n_min + i)

    @property
    def n_max(self) -> int:
        return self.n_min + len(self.phi_values) - 1

    @property
    def regime(self) -> str:
        """The small-Phi hypothesis read from the load ratio rho = `load_ratio(n, phi(n))`.

        "small": phi takes one value at every tabulated level and rho at the
        deepest level is below `SMALL_LOAD_RATIO`, the max-load guard's bound;
        "large": rho at the deepest level is at least that bound and above rho
        at the middle level; otherwise "indeterminate".  This is a diagnostic;
        no experiment reads it.
        """
        phis, half = self.phi_values, len(self.phi_values) // 2
        mid, last = load_ratio(self.n_min + half, phis[half]), load_ratio(self.n_max, phis[-1])
        if np.all(phis == phis[0]) and last < SMALL_LOAD_RATIO:
            return "small"
        if SMALL_LOAD_RATIO <= last and mid < last:
            return "large"
        return "indeterminate"

    def phi(self, n: int) -> int:
        check_value(n, "phi level n", self.n_min, self.n_max, error=OutOfDomainError)
        return int(self.phi_values[n - self.n_min])


def depth_function(f: DimensionFunction, p: LevelProfile, n_max: int,
                   clip: bool = False) -> DepthTable:
    """Tabulate phi(n) = min{j >= 0 : s_{n+j} <= s_n^(1+Phi(s_n))} by binary search.

    The profile must be deep enough to resolve phi at every requested n;
    with ``clip=True`` the table is instead truncated at the deepest
    resolvable n rather than raising.
    """
    check_value(n_max, "n_max", 0, p.n_max, error=InsufficientDepthError)
    log_s = p.log_s
    ceiling_log = min(math.log(0.5), math.log(f.domain_ceiling))
    n_min = int(np.searchsorted(-log_s, -ceiling_log, side="right"))
    if n_min > n_max:
        raise InsufficientDepthError("no levels with s_n below the domain ceiling")

    ns = np.arange(n_min, n_max + 1)
    phi_x = f.value_at_neg_log(-log_s[ns])
    thresholds = (1.0 + phi_x) * log_s[ns]
    # minimal index m with log_s[m] <= threshold (log_s strictly decreasing)
    tol = _LOG_TOL * np.abs(thresholds)
    m = np.searchsorted(-log_s, -(thresholds + tol), side="left")
    unreachable = m >= len(log_s)
    if np.any(unreachable):
        if not clip:
            bad = ns[unreachable][0]
            raise InsufficientDepthError(
                f"threshold for n={bad} not reached within {len(log_s) - 1} levels"
            )
        keep = int(np.argmax(unreachable))  # thresholds deepen with n for valid Phi
        if keep == 0:
            raise InsufficientDepthError("no level's threshold is resolvable")
        ns, m = ns[:keep], m[:keep]
    # the search can only land at m >= n since s_n^(1+Phi) <= s_n
    phi_values = np.maximum(m - ns, 0).astype(np.int64)
    return DepthTable(func=f, profile=p, n_min=n_min, phi_values=phi_values)
