"""Test-side views that the package itself never needs.

Each one recomputes a quantity from the public fields of an arrangement,
from a list of segments, from the label stream or from a report, so tests
can cross-check the package's shortcuts against plain geometry and compare
reports as bytes.
"""

import json
import math

import numpy as np

from gapdims import rng
from gapdims.covering import CoverQuery, _cover_counts, enumerate_windows

MASK = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15


def report_json(report: dict) -> str:
    """A report's bytes as the CLI writes them (sorted, compact)."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def omega_labels(seed: int, w: int) -> np.ndarray:
    """Uniform labels omega_j for j = 1..2^W-1 (omega[j-1] is gap j's label)."""
    return rng.uniforms(seed, 1, 2 ** w)


def cantor_positions(w: int) -> np.ndarray:
    """In-order position of each heap-indexed gap j = 1..2^W-1 in the Cantor
    arrangement: gap j at depth d = floor(log2 j) with offset m = j - 2^d sits
    at position (2m + 1) * 2^(W - 1 - d) - 1."""
    j = np.arange(1, 2 ** w, dtype=np.int64)
    d = np.frexp(j.astype(np.float64))[1] - 1  # floor(log2 j)
    m = j - (np.int64(1) << d.astype(np.int64))
    return (2 * m + 1) * (np.int64(1) << (w - 1 - d).astype(np.int64)) - 1


def position_of(s) -> np.ndarray:
    """Inverse of ``s.order``: pos[j - 1] = left-to-right position of gap j."""
    pos = np.empty(s.n_gaps, dtype=np.int64)
    pos[s.order - 1] = np.arange(s.n_gaps)
    return pos


def eval_phi(f, x: float) -> float:
    """Phi(x) for a single point, with domain checking."""
    return float(f(x))


def rank_slots(seed: int, w: int, n: int, indices) -> np.ndarray:
    """Level-n interval index of each given gap, via label ranks only.

    Gap j lands in the level-n interval whose index equals the count of
    shallow labels omega_i (i < 2^n) below omega_j; no geometry needed.
    """
    omega = omega_labels(seed, w)
    shallow = np.sort(omega[: 2 ** n - 1])
    return np.searchsorted(shallow, omega[np.asarray(indices) - 1], side="right")


def single_draw_slot_counts(seed: int, n: int, bounds) -> np.ndarray:
    """``slot_counts`` as one draw of the labels of gaps 1 .. b_last - 1:
    the shallow labels sorted as a copy, each range sorted in place as a
    slice of the draw, and the rows summed at the end."""
    omega = rng.uniforms(seed, 1, bounds[-1])
    shallow = np.sort(omega[: 2 ** n - 1])
    rows = []
    for lo, hi in zip(bounds, bounds[1:]):
        deep = omega[lo - 1 : hi - 1]
        deep.sort()
        ranks = np.searchsorted(deep, shallow, side="right")
        rows.append(np.diff(ranks, prepend=0, append=deep.size))
    return np.cumsum(rows, axis=0)


def gap_counts_in_level_intervals(s, n: int, level: int) -> np.ndarray:
    """Number of level-``level`` gaps inside each level-n interval, from geometry."""
    assert n < level <= s.w
    lefts, _ = s.level_intervals(n)
    at_level = (s.order >= 2 ** (level - 1)) & (s.order < 2 ** level)
    mids = 0.5 * (s.rights[:-1] + s.lefts[1:])[at_level]   # gap p: rights[p] .. lefts[p + 1]
    slot = np.searchsorted(lefts, mids, side="right") - 1
    return np.bincount(slot, minlength=2 ** n)


def counter_words(seed: int, start: int, stop: int) -> np.ndarray:
    """splitmix64 words of counters start..stop-1 as one full-size array: the
    counters written, multiplied by the golden step, offset by the seed, then
    the three xor-shift/multiply rounds, each over the whole array."""
    z = np.arange(stop - start, dtype=np.uint64)
    z += np.uint64(start)
    with np.errstate(over="ignore"):
        z *= np.uint64(GOLDEN)
        z += np.uint64(seed & MASK)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return z


def bincount_empty_bin(seed: int, n_bins_log2: int, balls: int) -> bool:
    """One empty-bin trial from every ball's bin label at once and a bincount."""
    idx = rng.bin_indices(seed, 0, balls, n_bins_log2)
    return bool(np.bincount(idx, minlength=2 ** n_bins_log2).min() == 0)


def frexp_gap_lengths(sequence, indices) -> np.ndarray:
    """A rule-based sequence's a_j, each level read by ``frexp`` and looked up
    as ``table[level - 1]``."""
    idx = np.asarray(indices, dtype=np.int64)
    levels = np.frexp(idx.astype(np.float64))[1]  # bit_length via frexp
    table = sequence.level_gap_lengths(int(levels.max()) if idx.size else 1)
    return table[levels - 1]


def reference_set(sequence, w: int, arrangement: str, seed=None) -> tuple:
    """(order, lefts, rights, slot_mass) of ``build_set``, with the random
    order by ``np.argsort``, the Cantor order by inverting ``cantor_positions``,
    the random spacings from a concatenated copy of the sorted labels and
    ``np.diff``, the gap lengths by ``frexp_gap_lengths``, and each left
    clamped to its right after the layout, in one full-size pass."""
    m = 2 ** w - 1
    tail = sequence.tail_mass(w)
    if arrangement == "random":
        omega = omega_labels(seed, w)
        order = np.argsort(omega, kind="stable")
        spacings = np.diff(np.concatenate([[0.0], omega[order], [1.0]]))
        order += 1
        slot_mass = tail * spacings / spacings.sum()
    elif arrangement == "cantor":
        order = np.argsort(cantor_positions(w)) + 1
        slot_mass = np.full(m + 1, tail / (m + 1))
    else:
        order = np.arange(m, 0, -1, dtype=np.int64)
        slot_mass = np.zeros(m + 1)
        slot_mass[0] = tail
    gap_len = (frexp_gap_lengths(sequence, order) if sequence.rule_based
               else sequence.gaps[order - 1])
    rights = np.empty(m + 1)
    np.cumsum(slot_mass[:-1], out=rights[:-1])
    rights[1:-1] += np.cumsum(gap_len[:-1])
    rights[-1] = 1.0
    lefts = np.empty(m + 1)
    lefts[0] = 0.0
    np.add(rights[:-1], gap_len, out=lefts[1:])
    np.minimum(lefts, rights, out=lefts)   # no segment laid out inside out
    return order, lefts, rights, slot_mass


def exact_binomial_tail(m: int, n: int, lo, hi) -> float:
    """P(Y <= lo) + P(Y >= hi) for Y ~ Binomial(m, 2^-n), correctly rounded from
    integers: with q = 2^n, q^m P(Y = k) = C(m, k) (q - 1)^(m - k), each term
    from the one before it, and an upper tail is q^m minus the lower sum below
    ``hi``.  ``lo``/``hi`` of None, or outside [0, m], follow `binomial_tail_mass`."""
    q = 2 ** n
    lo = -1 if lo is None else min(lo, m)
    hi = m + 1 if hi is None else max(hi, 0)
    term, below_lo, below_hi = (q - 1) ** m, 0, 0
    for k in range(max(lo + 1, hi)):
        below_lo += term if k <= lo else 0
        below_hi += term if k < hi else 0
        term = term * (m - k) // ((k + 1) * (q - 1))
    return (below_lo + (q ** m - below_hi if hi <= m else 0)) / q ** m


def _greedy_count(lefts, rights, lo: float, hi: float, r: float) -> int:
    """Serial greedy oracle: one window, one Python pass over its segments."""
    i0 = int(np.searchsorted(rights, lo, side="left"))
    i1 = int(np.searchsorted(lefts, hi, side="right"))
    if i0 >= i1:
        return 0
    seg_l = np.maximum(lefts[i0:i1], lo).tolist()
    seg_r = np.minimum(rights[i0:i1], hi).tolist()
    width = 2.0 * r
    count = 0
    covered = -math.inf
    for sl, sr in zip(seg_l, seg_r):
        if sr <= covered:
            continue
        start = sl if sl > covered else covered
        need = sr - start
        balls = 1 if need <= 0 else math.ceil(need / width - 1e-12)
        count += balls
        covered = start + balls * width
    return count


def batched_counts(lefts, rights, windows):
    """Kernel counts of (lo, hi, r) windows, all resolved in one call."""
    lo, hi, r = (np.array(col, dtype=float) for col in zip(*windows))
    return _cover_counts(lefts, rights, lo, hi, r).tolist()


def exhaustive_cover(segs, lo, hi, r, budget):
    """Branch-and-bound minimal 2r-cover of the clipped segment union.

    At each step the next ball must cover the leftmost uncovered point q,
    so its left endpoint lies in [q - 2r, q]; we branch over every
    geometrically distinct candidate in that range (q itself plus any
    segment endpoint event), not just the greedy choice.  Returns the best
    count found below ``budget``, or ``budget`` if nothing beats it.
    """
    width = 2.0 * r
    clipped = [(max(a, lo), min(b, hi)) for a, b in segs if min(b, hi) >= max(a, lo)]
    events = sorted({v for a, b in clipped for v in (a, b)})

    best = [budget]

    def first_uncovered(cov):
        for a, b in clipped:
            if b > cov + 1e-15:
                return max(a, cov)
        return None

    def rec(cov, used):
        if used >= best[0]:
            return
        q = first_uncovered(cov)
        if q is None:
            best[0] = used
            return
        cands = {q}
        cands.update(e for e in events if q - width <= e <= q)
        cands.update(e - width for e in events if q <= e - width <= q)
        for left in sorted(cands, reverse=True):
            if left <= q <= left + width:
                rec(left + width, used + 1)

    rec(-math.inf, 0)
    return best[0]


def per_record_estimate(s, direction: str, d, policy) -> tuple[float, tuple]:
    """(beta_hat, records) of ``estimate_dimension`` one window at a time: a
    CoverQuery per enumerated window, every count from one fresh kernel call,
    and the extremum over the records under the exact key (-sign * exponent,
    record)."""
    windows = list(enumerate_windows(s, d, policy))
    x, big_r, r = np.array([win[2:] for win in windows]).T
    counts = _cover_counts(s.lefts, s.rights, x - big_r, x + big_r, r).tolist()
    records = tuple(CoverQuery(*win, c) for win, c in zip(windows, counts) if c >= 1)
    sign = 1.0 if direction == "upper" else -1.0
    return min(records, key=lambda q: (-sign * q.exponent, q)).exponent, records
