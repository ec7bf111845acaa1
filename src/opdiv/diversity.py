"""Opinion binning and the Simpson / Shannon diversity indices.

Bins partition [0, 1] into R intervals, half-open except the last:
b_i = [(i−1)/R, i/R) for i < R and b_R = [(R−1)/R, 1]. One rule places an
opinion x: its 0-based bin is min(⌊(x + snap_tol)·R⌋, R − 1), for a snap
tolerance 0 ≤ snap_tol < 1/(2R). An opinion within snap_tol below a boundary
k/R thus counts as lying on it, so closed-form values like i/n_f survive
solver rounding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OpinionOutOfRange, SnapToleranceOutOfRange, TooFewFollowers, UnsupportedBinCount
from .dynamics import OpinionVector

SNAP_TOL = 1e-9


@dataclass(frozen=True)
class BinHistogram:
    """Opinion counts per bin for a given bin count R."""

    R: int
    counts: tuple  # c_1 .. c_R

    @property
    def n_f(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class DiversityScore:
    simpson: float
    shannon: float


def check_bins(R: int, snap_tol: float) -> None:
    """Raise unless R ≥ 2 and 0 ≤ snap_tol < 1/(2R), the domain of the bin rule."""
    if R < 2:
        raise UnsupportedBinCount(f"need R >= 2, got {R}")
    if not 0 <= 2 * R * snap_tol < 1:
        raise SnapToleranceOutOfRange(
            f"snap_tol {snap_tol} outside [0, 1/(2R)) = [0, {1 / (2 * R):g}) for R = {R}"
        )


def bin_index(value: float, R: int, snap_tol: float = SNAP_TOL) -> int:
    """1-based bin index of a single opinion, min(⌊(value + snap_tol)·R⌋, R − 1) + 1.

    The scalar reference that `histogram_rows` and `level_thresholds` are
    tested against.
    """
    check_bins(R, snap_tol)
    if not -snap_tol <= value <= 1 + snap_tol:
        raise OpinionOutOfRange(f"opinion {value} outside [0, 1]")
    return min(math.floor((value + snap_tol) * R), R - 1) + 1


def bin_opinions(x: OpinionVector, R: int, snap_tol: float = SNAP_TOL) -> BinHistogram:
    """Count opinions per bin, by `histogram_rows` on the opinions as one row."""
    values = np.fromiter(x.values.values(), dtype=float, count=len(x.values))
    counts = histogram_rows(values[None, :], R, snap_tol)[0]
    return BinHistogram(R=R, counts=tuple(counts.tolist()))


def histogram_rows(X: np.ndarray, R: int, snap_tol: float = SNAP_TOL) -> np.ndarray:
    """Bin counts of every row of an opinion matrix, as an (m, R) array.

    Row i of the result counts the bins of row i of X, by the rule of
    `bin_index`, computed for all rows at once.
    """
    check_bins(R, snap_tol)
    inside = (X >= -snap_tol) & (X <= 1 + snap_tol)
    if not inside.all():
        raise OpinionOutOfRange(f"opinion {X[~inside][0]} outside [0, 1]")
    bins = np.minimum(np.floor((X + snap_tol) * R), R - 1).astype(np.intp)
    bins += R * np.arange(len(X))[:, None]
    return np.bincount(bins.ravel(), minlength=len(X) * R).reshape(len(X), R)


def level_thresholds(max_D: int, R: int, snap_tol: float = SNAP_TOL) -> np.ndarray:
    """t[D, k − 1], the least integer a with a/D in 0-based bin ≥ k, for k = 1..R − 1.

    The exact form of `bin_index` for opinions a/D with integers 0 ≤ a ≤ D,
    one row for each D = 0..max_D (row 0 is unused): a/D is in bin ≥ k iff
    aR ≥ kD − snap_tol·D·R, that is t[D, k − 1] = ⌈(kD − ⌊snap_tol·D·R⌋)/R⌉,
    computed in integers from the exact value of the float snap_tol.
    """
    check_bins(R, snap_tol)
    num, den = float(snap_tol).as_integer_ratio()  # snap_tol·R = num·R / den exactly
    D = np.arange(max_D + 1)[:, None]
    snapped = 0  # ⌊snap_tol·D·R⌋, zero for every D unless snap_tol·max_D·R ≥ 1
    if num * R * max_D >= den:
        snapped = np.array([num * R * d // den for d in range(max_D + 1)])[:, None]
    return -((snapped - np.arange(1, R) * D) // R)


def score_rows(counts: np.ndarray) -> tuple:
    """(Simpson, Shannon) arrays for an (m, R) array of histograms of n_f >= 2 opinions each."""
    n_f = counts.sum(axis=1)
    simpson = 1.0 - (counts * (counts - 1)).sum(axis=1) / (n_f * (n_f - 1))
    p = counts / n_f[:, None]
    # 0·ln(0) = 0; + 0.0 normalizes the -0.0 of a single fully-occupied bin
    shannon = -(p * np.log(np.where(counts > 0, p, 1.0))).sum(axis=1) + 0.0
    return simpson, shannon


def simpson_index(h: BinHistogram) -> float:
    """1 − Σ c_i(c_i−1) / (n_f(n_f−1)); 1 is maximal spread, 0 one dominant bin."""
    n_f = h.n_f
    if n_f < 2:
        raise TooFewFollowers(f"Simpson index needs n_f >= 2, got {n_f}")
    return 1.0 - sum(c * (c - 1) for c in h.counts) / (n_f * (n_f - 1))


def shannon_index(h: BinHistogram) -> float:
    """−Σ p_i ln(p_i) with p_i = c_i / n_f and 0·ln(0) = 0."""
    n_f = h.n_f
    if n_f < 1:
        raise TooFewFollowers("Shannon index needs at least one opinion")
    # + 0.0 normalizes the -0.0 that a single fully-occupied bin produces
    return -sum((c / n_f) * math.log(c / n_f) for c in h.counts if c > 0) + 0.0


def score(h: BinHistogram) -> DiversityScore:
    return DiversityScore(simpson=simpson_index(h), shannon=shannon_index(h))


def max_diversity(n_f: int, R: int, measure: str) -> float:
    """Theoretical maximum of a diversity index, defined for R = n_f and R = 2.

    R = n_f: uniform occupancy, one opinion per bin. R = 2: the floor/ceil
    split of n_f across the two bins. Other R values have no closed form and
    raise UnsupportedBinCount.
    """
    if measure not in ("simpson", "shannon"):
        raise ValueError(f"unknown measure {measure!r}")
    if n_f < 2:
        raise TooFewFollowers(f"need n_f >= 2, got {n_f}")
    if R == n_f:
        return 1.0 if measure == "simpson" else math.log(n_f)
    if R == 2:
        lo, hi = n_f // 2, n_f - n_f // 2
        if measure == "simpson":
            return 1.0 - (lo * (lo - 1) + hi * (hi - 1)) / (n_f * (n_f - 1))
        out = 0.0
        for c in (lo, hi):
            if c > 0:
                out -= (c / n_f) * math.log(c / n_f)
        return out
    raise UnsupportedBinCount(f"no closed-form maximum for R={R} (need R=2 or R=n_f={n_f})")
