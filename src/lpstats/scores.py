"""Orthonormal score functions of the mid-rank transform.

Two families live here. `legendre_eval` gives the orthonormal shifted
Legendre polynomials on [0, 1], the scores of a continuous uniform
variable. `build_score_basis` constructs the data-driven analogue for an
arbitrary (possibly tied, discrete) sample: starting from the standardized
mid-rank

    T_1(x) = (Fmid(x) - 0.5) / sd(Fmid)

the powers T_1, T_1^2, ..., T_1^m are orthonormalized under the empirical
measure. For tie-free samples of growing size these custom scores converge
to the Legendre family; on small or heavily tied supports they adapt to
whatever the data can carry (at most r - 1 functions on r atoms).
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import legvander

from .empirical import Sample, _scalar_or_array, _unit_open
from .errors import DegenerateSample, DomainError, OrderOutOfRange, OrderTooHigh

__all__ = ["ScoreBasis", "legendre_eval", "build_score_basis",
           "eval_score", "score_quantile", "LEGENDRE_CAP"]

LEGENDRE_CAP = 12

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
    recurrence). Orders are capped at 12; the recurrence is accurate there
    and nothing in the package needs more.
    """
    j = int(j)
    if j < 0:
        raise DomainError("order must be nonnegative")
    if j > LEGENDRE_CAP:
        raise OrderTooHigh(f"Legendre order {j} above cap {LEGENDRE_CAP}")
    return legvander(2.0 * u - 1.0, j)[:, j] * np.sqrt(2.0 * j + 1.0)


class ScoreBasis:
    """Orthonormal score functions T_1..T_m of one sample, tabulated.

    `table` has shape (max_order, r): row j - 1 holds T_j at the sample's
    distinct values. Zero mean and orthonormality hold under the empirical
    masses; `mean_error` and `gram_error` record the achieved deviations.
    `truncated` is set when a requested order was dropped because the
    corresponding power of T_1 was numerically dependent on lower orders.
    """

    __slots__ = ("source", "max_order", "requested_order", "table",
                 "truncated", "mean_error", "gram_error")

    def __init__(self, source, requested_order, table, truncated):
        self.source = source
        self.requested_order = int(requested_order)
        self.table = table
        self.max_order = int(table.shape[0])
        self.truncated = bool(truncated)
        p = source.masses
        means = table @ p
        gram = (table * p) @ table.T
        self.mean_error = float(np.max(np.abs(means))) if self.max_order else 0.0
        self.gram_error = (
            float(np.max(np.abs(gram - np.eye(self.max_order))))
            if self.max_order else 0.0
        )
        table.setflags(write=False)

    def __repr__(self):
        flag = ", truncated" if self.truncated else ""
        return f"ScoreBasis(order={self.max_order}, r={self.source.r}{flag})"


def build_score_basis(s: Sample, max_order: int) -> ScoreBasis:
    """Gram-Schmidt the powers of the standardized mid-rank.

    Modified Gram-Schmidt with a single re-orthogonalization pass, masses
    as weights. The order is clipped to r - 1; a power whose residual norm
    falls below 1e-8 of its pre-projection norm stops the construction
    early (the returned basis is then shorter and flagged `truncated`).
    """
    if int(max_order) < 1:
        raise DomainError("max_order must be at least 1")
    if s.r < 2:
        raise DegenerateSample("need at least two distinct values")
    m = min(int(max_order), s.r - 1)
    p = s.masses
    t1 = (s.fmid - 0.5) / np.sqrt(s.mid_rank_variance)
    rows = []
    truncated = False
    for k in range(1, m + 1):
        v = t1 ** k
        pre = np.sqrt(np.sum(p * v * v))
        for _ in range(2):
            v = v - np.sum(p * v)
            for w in rows:
                v = v - np.sum(p * v * w) * w
        nrm = np.sqrt(np.sum(p * v * v))
        if nrm < _RANK_TOL * pre:
            truncated = True
            break
        rows.append(v / nrm)
    table = np.array(rows) if rows else np.empty((0, s.r))
    return ScoreBasis(s, max_order, table, truncated)


def _check_order(b: ScoreBasis, j: int) -> int:
    j = int(j)
    if not 1 <= j <= b.max_order:
        raise OrderOutOfRange(
            f"order {j} outside the constructed range 1..{b.max_order}"
        )
    return j


@_scalar_or_array(2)
def eval_score(b: ScoreBasis, j: int, x):
    """T_j at arbitrary real x by step extension.

    On an atom this is the table entry; between atoms the value at the
    largest atom below x is used (scores are rank functions, so no
    interpolation); below the support the first atom's value applies.
    """
    j = _check_order(b, j)
    return b.table[j - 1][b.source.atom_at(x)]


@_scalar_or_array(2)
def score_quantile(b: ScoreBasis, j: int, u):
    """S_j(u) = T_j(Q(u)), piecewise constant on the atom intervals.

    Q is the left-continuous quantile, so u in the interval
    (F(x_{i-1}), F(x_i)] picks atom i. Levels must lie in (0, 1]; as with
    `quantile`, u = 1 maps to the top atom.
    """
    j = _check_order(b, j)
    _unit_open(u, "quantile level", closed_right=True)
    return b.table[j - 1][b.source.atom_at_level(u)]
