"""Orthonormal score functions of the mid-rank transform.

Two families live here. `legendre_eval` gives the orthonormal shifted
Legendre polynomials on [0, 1], the scores of a continuous uniform
variable. `build_score_basis` constructs the data-driven analogue for an
arbitrary (possibly tied, discrete) sample: starting from the standardized
mid-rank

    T_1(x) = (Fmid(x) - 0.5) / sd(Fmid)

polynomials of degree 1..m in T_1 are orthonormalized under the empirical
measure by the three-term recurrence. For tie-free samples of growing size
these custom scores converge to the Legendre family; on small or heavily
tied supports they adapt to whatever the data can carry (at most r - 1
functions on r atoms).
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import legvander

from .empirical import Sample, _scalar_or_array
from .errors import DegenerateSample, DomainError, OrderOutOfRange

__all__ = ["ScoreBasis", "legendre_eval", "build_score_basis"]

# A power of T_1 whose residual after projection drops below this fraction
# of its pre-projection norm is numerically dependent on the lower orders;
# the basis is truncated there and flagged.
_RANK_TOL = 1e-8


@_scalar_or_array(1)
def legendre_eval(j: int, u):
    """Orthonormal shifted Legendre polynomial Leg_j on [0, 1].

    Leg_0 = 1, Leg_1(u) = sqrt(12) (u - 0.5), and generally
    Leg_j = sqrt(2j + 1) P_j(2u - 1) with P_j the classical Legendre
    polynomial, evaluated by numpy's `legvander` (the stable three-term
    recurrence).
    """
    j = int(j)
    if j < 0:
        raise DomainError("order must be nonnegative")
    return legvander(2.0 * u - 1.0, j)[:, j] * np.sqrt(2.0 * j + 1.0)


class ScoreBasis:
    """Orthonormal score functions T_1..T_m of one sample, tabulated.

    `table` has shape (max_order, r): row j - 1 holds T_j at the sample's
    distinct values. Zero mean and orthonormality hold under the empirical
    masses; `mean_error` and `gram_error` compute the achieved deviations
    from the table when read. `truncated` is set when a requested order
    was dropped because the corresponding power of T_1 was numerically
    dependent on lower orders.
    """

    __slots__ = ("source", "max_order", "requested_order", "table",
                 "truncated")

    def __init__(self, source, requested_order, table, truncated):
        self.source = source
        self.requested_order = int(requested_order)
        self.table = table
        self.max_order = int(table.shape[0])
        self.truncated = bool(truncated)
        table.setflags(write=False)

    @property
    def mean_error(self) -> float:
        """The largest |E[T_j]| under the sample's masses."""
        means = self.table @ self.source.masses
        return float(np.max(np.abs(means))) if self.max_order else 0.0

    @property
    def gram_error(self) -> float:
        """The largest |E[T_j T_k] - [j == k]| under the sample's masses."""
        gram = (self.table * self.source.masses) @ self.table.T
        return (float(np.max(np.abs(gram - np.eye(self.max_order))))
                if self.max_order else 0.0)

    def __repr__(self):
        flag = ", truncated" if self.truncated else ""
        return f"ScoreBasis(order={self.max_order}, r={self.source.r}{flag})"


def build_score_basis(s: Sample, max_order: int) -> ScoreBasis:
    """Orthonormal polynomials in the standardized mid-rank t1.

    T_k is t1 T_{k-1} less its projections on T_{k-1}, T_{k-2} and 1 (the
    three-term recurrence), re-orthogonalized once against all earlier
    rows, masses as weights; the order is clipped to r - 1. The residual
    of t1^k on lower orders is beta_1 ... beta_k T_k, so when that product
    of the recurrence's norms falls below 1e-8 ||t1^k|| the construction
    stops early (the basis is then shorter and flagged `truncated`).
    """
    if int(max_order) < 1:
        raise DomainError("max_order must be at least 1")
    if s.r < 2:
        raise DegenerateSample("need at least two distinct values")
    m = min(int(max_order), s.r - 1)
    p = s.masses
    t1 = (s.fmid - 0.5) / np.sqrt(s.mid_rank_variance)
    top = np.max(np.abs(t1))
    # top^k >= ||t1^k|| >= top^k / sqrt(n), and the monic residual is at
    # most 2 (top / 2)^k (Chebyshev), so the rule stops by order `cap`
    cap = 2 + int(np.log2(np.sqrt(s.n) / _RANK_TOL))
    table = np.empty((min(m, cap), s.r))
    pv = np.empty(s.r)
    monic = 1.0
    truncated = m > cap
    for k in range(len(table)):
        v = table[k]
        np.multiply(t1, table[k - 1] if k else 1.0, out=v)
        for lower in (table[max(k - 2, 0):k], table[:k]):
            np.multiply(p, v, out=pv)
            v -= pv.sum()
            v -= (lower @ pv) @ lower
        np.multiply(p, v, out=pv)
        beta = np.sqrt(pv @ v)
        monic *= beta
        if (monic < _RANK_TOL * top ** (k + 1)
                and monic < _RANK_TOL * np.sqrt(p @ t1 ** (2 * k + 2))):
            table, truncated = table[:k], True
            break
        v /= beta
    return ScoreBasis(s, max_order, table, truncated)


def _check_order(b: ScoreBasis, j: int) -> int:
    j = int(j)
    if not 1 <= j <= b.max_order:
        raise OrderOutOfRange(
            f"order {j} outside the constructed range 1..{b.max_order}"
        )
    return j

