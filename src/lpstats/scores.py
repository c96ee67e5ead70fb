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
tied supports they adapt to whatever the data can carry: r - 1 functions
on r atoms, every one of them built, up to `MAX_ORDER`.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import legvander

from .empirical import Sample, _scalar_or_array
from .errors import DegenerateSample, DomainError

__all__ = ["ScoreBasis", "legendre_eval", "build_score_basis"]

MAX_ORDER = 50  # bound on an order: a basis of order m holds m x r scores


@_scalar_or_array(1)
def legendre_eval(j, u):
    """Orthonormal shifted Legendre polynomials Leg_j on [0, 1].

    Leg_0 = 1, Leg_1(u) = sqrt(12) (u - 0.5), and generally
    Leg_j = sqrt(2j + 1) P_j(2u - 1) with P_j the classical Legendre
    polynomial, evaluated by numpy's `legvander` (the stable three-term
    recurrence). A sequence of orders `j` gives a new C-ordered row per
    order from one recurrence, each row that order's value bit for bit.
    """
    orders = np.asarray(j, dtype=int)
    if np.any(orders < 0):
        raise DomainError("order must be nonnegative")
    vander = legvander(2.0 * u - 1.0, int(orders.max(initial=0))).T
    rows = np.empty(orders.shape + u.shape)  # new and C-ordered
    np.take(vander, orders, 0, rows, "clip")  # "raise" would buffer rows
    rows *= np.sqrt(2.0 * orders + 1.0)[..., None]
    return rows


class ScoreBasis:
    """Orthonormal score functions T_1..T_m of one sample, tabulated.

    `rows` has shape (1 + max_order, r): at the sample's distinct values,
    row 0 holds the standardized value Z (zeros where sd is 0) and row j
    holds T_j; `table` is the view of rows 1..m. The scores' zero mean and
    orthonormality hold under the empirical masses; `mean_error` and
    `gram_error` compute the achieved deviations when read. `max_order`
    is below the order given to `build_score_basis` only where that order
    passed r - 1 or `MAX_ORDER`.
    """

    __slots__ = ("source", "max_order", "rows", "table")

    def __init__(self, source, rows):
        rows.setflags(write=False)
        self.source = source
        self.rows = rows
        self.table = rows[1:]
        self.max_order = len(self.table)

    @property
    def mean_error(self) -> float:
        """The largest |E[T_j]| under the sample's masses."""
        return float(np.max(np.abs(_row_sums(self.table, self.source.masses))))

    @property
    def gram_error(self) -> float:
        """The largest |E[T_j T_k] - [j == k]| under the sample's masses."""
        gram = (self.table * self.source.masses) @ self.table.T
        return float(np.max(np.abs(gram - np.eye(self.max_order))))

    def __repr__(self):
        return f"ScoreBasis(order={self.max_order}, r={self.source.r})"


def _row_sums(rows, w):
    """Each row of `rows` times `w`, summed by one pairwise `np.add.reduce`.

    With w the masses times g, row f gives the score mean E[f(X) g(X)], in
    bits that depend neither on the other rows nor on the BLAS kernel.
    """
    return np.add.reduce(rows * w, axis=1)


def build_score_basis(s: Sample, max_order: int) -> ScoreBasis:
    """Orthonormal polynomials in the standardized mid-rank t1.

    T_k is t1 T_{k-1} less its projections on T_{k-1}, T_{k-2} and 1 (the
    three-term recurrence), re-orthogonalized once against all earlier
    rows, masses as weights. The order is clipped to r - 1 and to
    `MAX_ORDER`, and every order up to that is built: the recurrence with
    its re-orthogonalization stays accurate up to r - 1, however heavily
    the sample is tied.

    A row depends only on the rows before it, so the table built at order
    m is bit for bit the first rows of one built higher on the same sample:
    the order of an analysis is set here, and its estimators use every row.
    """
    if int(max_order) < 1:
        raise DomainError("max_order must be at least 1")
    if s.r < 2:
        raise DegenerateSample("need at least two distinct values")
    p = s.masses
    t1 = (s.fmid - 0.5) / np.sqrt(s.mid_rank_variance)
    rows = np.empty((1 + min(int(max_order), s.r - 1, MAX_ORDER), s.r))
    rows[0] = (s.values - s.mean) / s.sd if s.sd > 0.0 else 0.0
    table = rows[1:]
    pv = np.empty(s.r)
    for k in range(len(table)):
        v = table[k]
        np.multiply(t1, table[k - 1] if k else 1.0, out=v)
        for lower in (table[max(k - 2, 0):k], table[:k]):
            np.multiply(p, v, out=pv)
            v -= pv.sum()
            v -= (lower @ pv) @ lower
        np.multiply(p, v, out=pv)
        v /= np.sqrt(pv @ v)
    return ScoreBasis(s, rows)
