"""LP moments and comoments: rank-based moment diagnostics of one or two
variables.

The j-th LP moment of X is the projection E[Z(X) T_j(X)] of the
standardized variable on its own j-th orthonormal score; the vector of
them plays the role classical moments (or L-moments) play, but works
unchanged for discrete and tied data. The (j, k) LP comoment of a pair is
E[T_j(X) T_k(Y)], the (j, k) coefficient of the copula density expansion;
its square sum over model-selected cells is the dependence measure
LPINFOR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._normal import ndtri
from .empirical import Sample, _pair_counts
from .errors import DegenerateScale, DomainError, LengthMismatch
from .scores import ScoreBasis, _row_sums

__all__ = [
    "LPMomentVector",
    "LPComomentMatrix",
    "CorrelationReport",
    "LHermiteResult",
    "lp_moments",
    "lp_comoments",
    "correlations",
    "select_significant",
    "lhermite_normality",
]

TAIL_THRESHOLD = 0.95


@dataclass(frozen=True)
class LPMomentVector:
    """LP moments LP(1..m; X) plus the tail index.

    The tail index is the smallest order whose cumulative squared moments
    reach TAIL_THRESHOLD; None when even the full vector stays below it.
    The squared sum obeys the Bessel bound sum <= 1.
    """

    moments: np.ndarray
    tail_index: int | None


@dataclass(frozen=True)
class LPComomentMatrix:
    """LP comoments of a pair, with the selection mask and LPINFOR.

    `entries[j-1, k-1]` is LP(j, k; X, Y) for every score of each basis,
    so the matrix is rectangular when one margin supports fewer scores
    (r - 1 exist on r atoms). `selected` marks the cells that the rule
    given to `lp_comoments` keeps at the bases' n; `lpinfor` is the
    squared sum over them. `corner` is the [Z, T_1] x [Z, T_1] block, Z
    the standardized value, whose cells `correlations` names; None where
    either sd is 0.
    """

    entries: np.ndarray
    selected: np.ndarray
    lpinfor: float
    corner: np.ndarray | None


@dataclass(frozen=True)
class CorrelationReport:
    """Four dependence coefficients of one paired sample."""

    pearson: float
    spearman_mid: float
    gini_xy: float
    gini_yx: float


@dataclass(frozen=True)
class LHermiteResult:
    statistic: float
    significant: bool


def lp_moments(b: ScoreBasis) -> LPMomentVector:
    """LP(j; X) = E[Z(X) T_j(X)] for X = b.source and every order j of b."""
    if b.source.sd <= 0.0:
        raise DegenerateScale("sample standard deviation is zero")
    moments = _row_sums(b.table, b.source.masses * b.rows[0])
    reached = np.flatnonzero(np.cumsum(moments ** 2) >= TAIL_THRESHOLD)
    tail = int(reached[0]) + 1 if reached.size else None
    return LPMomentVector(moments=moments, tail_index=tail)


def lp_comoments(bx: ScoreBasis, by: ScoreBasis,
                 rule: str = "aic") -> LPComomentMatrix:
    """LP(j, k; X, Y) = E[T_j(X) T_k(Y)] over the rows of the two sources.

    j and k run over every order of bx and by, so a heavily tied margin,
    whose basis holds fewer scores, gives fewer rows or columns rather
    than failing. Selection and LPINFOR are filled in immediately. The
    expectation is one `_pair_mean` of the bases' `rows` [Z, T_1..T_m]:
    the entries are its [1:, 1:] block and the corner its [:2, :2] block.
    """
    both = _pair_mean(bx.rows, bx.source.atom_index,
                      by.rows, by.source.atom_index)
    entries = both[1:, 1:]
    selected = select_significant(entries, bx.source.n, rule=rule)
    info = float(np.sum(entries[selected] ** 2))
    corner = both[:2, :2] if min(bx.source.sd, by.source.sd) > 0.0 else None
    return LPComomentMatrix(entries=entries, selected=selected, lpinfor=info,
                            corner=corner)


def select_significant(coefficients, n: int, rule: str = "aic") -> np.ndarray:
    """Penalized prefix selection on squared coefficients.

    Coefficients are ranked by descending square (ties broken by array
    position) and the prefix maximizing sum(c^2) - k * penalty is kept,
    where the per-term penalty is 2/n for "aic" and log(n)/n for "bic".
    Rule "none" keeps everything. Returns a boolean mask of the input's
    shape; the empty prefix wins when nothing clears the penalty. A
    sample size n below 1 raises DomainError.
    """
    if n < 1:
        raise DomainError(f"sample size must be at least 1, got {n}")
    c = np.asarray(coefficients, dtype=float)
    if rule == "none":
        return np.ones(c.shape, dtype=bool)
    if rule == "aic":
        penalty = 2.0 / n
    elif rule == "bic":
        penalty = math.log(n) / n
    else:
        raise DomainError(f"unknown selection rule {rule!r}")
    flat = c.ravel()
    order = np.argsort(-flat ** 2, kind="stable")
    gains = flat[order] ** 2 - penalty
    scores = np.concatenate(([0.0], np.cumsum(gains)))
    keep = int(np.argmax(scores))  # first maximum: smallest prefix on ties
    mask = np.zeros(flat.size, dtype=bool)
    mask[order[:keep]] = True
    return mask.reshape(c.shape)


def _pair_mean(fa, a, fb, b) -> np.ndarray:
    """E[fa(A) fb(B)'] = fa N fb' / n over the paired atom indices a, b.

    fa and fb hold one row per function over each margin's atoms; N is the
    r_a x r_b table of atom-pair counts, counted by `_pair_counts` when
    r_a * r_b <= n. Otherwise each row of fb, the coarser margin, is
    gathered at b into one reused buffer of n floats and added per atom of
    a, in row order, into its row of one zeroed (len(fb), r_a) table by
    `np.add.at`: the sums `np.bincount(a, weights=...)` would give, bit
    for bit, with no fresh row of r_a sums per row of fb. The mean is fa
    times that table's transpose. On an untied finer margin the sums do
    not depend on row order. Index arrays of different lengths raise
    LengthMismatch.
    """
    if a.size != b.size:
        raise LengthMismatch(a.size, b.size)
    ra, rb = fa.shape[1], fb.shape[1]
    if ra * rb <= a.size:
        return fa @ _pair_counts(a, b, ra, rb) @ fb.T / a.size
    if ra < rb:
        return _pair_mean(fb, b, fa, a).T
    sums = np.zeros((len(fb), ra))
    gathered = np.empty(a.size)
    for row, out in zip(fb, sums):
        np.take(row, b, 0, gathered, "clip")  # "raise" would buffer it
        np.add.at(out, a, gathered)
    return fa @ sums.T / a.size


def correlations(c: LPComomentMatrix) -> CorrelationReport:
    """Pearson, mid-rank Spearman, and the two Gini correlations of a pair.

    The four are the corner of the comoment record `c`: Pearson is
    E[Z(X) Z(Y)] with Z the standardized value, spearman_mid is
    E[T_1(X) T_1(Y)] = LP(1, 1), the Pearson correlation of the mid-rank
    transforms (unlike the classical Spearman it needs no tie correction
    terms), and the Gini pair correlates each raw variable with the
    other's mid-ranks. A pair with a zero sd raises DegenerateScale.
    """
    if c.corner is None:
        raise DegenerateScale("zero variance in correlation input")
    (pearson, gini_xy), (gini_yx, spearman) = c.corner
    return CorrelationReport(pearson=float(pearson),
                             spearman_mid=float(spearman),
                             gini_xy=float(gini_xy), gini_yx=float(gini_yx))


def lhermite_normality(s: Sample) -> LHermiteResult:
    """Correlation-style normality diagnostic from normal scores.

    The statistic is E[Z(X) q(X)] / sd(q(X)) with q(x) the standard
    normal quantile of Fmid(x), a scale-free ratio of a normal-scores
    estimate of sd to the empirical sd; it equals 1 for data that are an
    increasing linear image of their own normal scores and drops below 1
    as the shape departs from Gaussian. Flagged significant when
    -log(statistic) exceeds 1/n (a .05-level calibration; meaningful from
    roughly n = 8 up).
    """
    if s.sd <= 0.0:
        raise DegenerateScale("sample standard deviation is zero")
    p = s.masses
    z = (s.values - s.mean) / s.sd
    w = ndtri(s.fmid)
    w_sd = math.sqrt(float(p @ w ** 2) - float(p @ w) ** 2)
    if w_sd <= 0.0:
        raise DegenerateScale("degenerate normal scores")
    statistic = float(p @ (z * w)) / w_sd
    significant = -math.log(statistic) > 1.0 / s.n
    return LHermiteResult(statistic=statistic, significant=bool(significant))
