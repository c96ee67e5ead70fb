"""Empirical distributions built around the mid-distribution transform.

The central object is :class:`Sample`, a weighted table of the distinct
observed values. The mid-distribution

    Fmid(x) = F(x) - 0.5 Pr[X = x]

replaces the usual right-continuous CDF in every rank computation here, so
ties need no ad-hoc corrections: for observed data the values Fmid(x_t)
coincide with (midrank(x_t) - 0.5) / n. Quantiles come in two flavors, the
left-continuous step inverse `quantile` and the piecewise-linear
`mid_quantile` obtained by interpolating the points (Fmid(x_j), x_j).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._normal import ndtr
from .errors import (DegenerateScale, DomainError, EmptyInput, LengthMismatch,
                     NonFiniteValue)

__all__ = [
    "Sample",
    "QuartileSummary",
    "make_sample",
    "mid_distribution",
    "quantile",
    "mid_quantile",
    "quartile_summary",
    "informative_quantile",
    "mid_clt_approx",
]


class Sample:
    """Weighted empirical distribution of one numeric variable.

    Stores the distinct values in increasing order together with their
    probability masses (multiplicity / n), the right-continuous CDF and
    the mid-distribution values at the atoms (each the correctly rounded
    quotient of an exact integer prefix sum), and `atom_index`, the atom of
    each observation in row order, so that paired analyses can align rows.
    The multiplicities are not stored: they are
    `np.bincount(atom_index, minlength=r)`. A zero is stored as +0.0, so
    `values[atom_index]` is the observation column with each zero
    unsigned. Mean and variance use the divide-by-n convention throughout.

    Instances are immutable; the underlying arrays are marked read-only.
    Use :func:`make_sample` to construct one.
    """

    __slots__ = (
        "values",
        "masses",
        "cdf",
        "fmid",
        "atom_index",
        "n",
        "r",
        "mean",
        "var",
        "sd",
    )

    def __init__(self, values, counts, atom_index):
        self.values = values
        self.n = int(atom_index.size)
        self.r = int(values.size)
        masses = counts / float(self.n)
        # integer prefix sums are exact, so each level is one correctly
        # rounded division, and the top one is n / n = 1
        cum = np.cumsum(counts)
        self.masses = masses
        self.cdf = cum / self.n
        self.fmid = (2 * cum - counts) / (2 * self.n)
        self.atom_index = atom_index
        self.mean = float(masses @ values)
        self.var = float(masses @ (values - self.mean) ** 2)
        self.sd = math.sqrt(self.var)
        for arr in (self.values, self.masses, self.cdf, self.fmid,
                    self.atom_index):
            arr.setflags(write=False)

    def atom_at(self, x):
        """Index of the largest atom not exceeding x; 0 below the support.

        The sample's own `values` map to their indices unsearched; any
        other x, its observations included, is searched (a paired analysis
        reads `atom_index` instead). +-inf map to the ends; NaN has no
        place and raises DomainError.
        """
        if np.shape(x) == self.values.shape and np.array_equal(x, self.values):
            return np.arange(self.r, dtype=np.intp)
        if np.isnan(x).any():
            raise DomainError("cannot look up NaN in a sample")
        return np.clip(np.searchsorted(self.values, x, side="right") - 1,
                       0, None)

    def atom_at_level(self, u):
        """Index of the atom the left-continuous quantile picks at level u."""
        return np.searchsorted(self.cdf, u, side="left")

    def step_cdf(self, x):
        """Right-continuous CDF F(x): 0 below the support, 1 from the top."""
        return np.where(np.asarray(x) < self.values[0], 0.0,
                        self.cdf[self.atom_at(x)])

    @property
    def mid_rank_variance(self):
        """Var[Fmid(X)] = (1 - sum p^3) / 12, exact under ties."""
        return float((1.0 - np.sum(self.masses ** 3)) / 12.0)

    def __repr__(self):
        return f"Sample(n={self.n}, r={self.r})"


@dataclass(frozen=True)
class QuartileSummary:
    """Mid-quantile quartiles with the derived location/scale pair.

    mq is the mid-quartile 0.5 (Q1 + Q3); dq is the quartile deviation
    2 (Q3 - Q1), the robust scale used by the informative quantile.
    """

    q1: float
    q2: float
    q3: float
    mq: float
    dq: float


def _finite(data) -> np.ndarray:
    """`data` as a flat float array, a strided 1-D one uncopied (`ravel()`
    would copy it); NonFiniteValue names its first NaN/inf."""
    a = np.asarray(data, dtype=float).reshape(-1)
    bad = np.flatnonzero(~np.isfinite(a))
    if bad.size:
        raise NonFiniteValue(bad[0])
    return a


def _real(data) -> np.ndarray:
    """`data` as a flat array: an integer array as it is, since it holds no
    NaN or infinity, and any other through `_finite`."""
    a = np.asarray(data)
    return a.reshape(-1) if a.dtype.kind in "iu" else _finite(a)


def _of_length(data, n: int):
    """`data` itself; LengthMismatch unless it holds n values.

    Only `np.size` is read, so a paired intake refuses unequal lengths
    before `_finite`, `_real` or `make_sample` casts the column and names
    its first NaN or infinity.
    """
    if (size := np.size(data)) != n:
        raise LengthMismatch(n, size)
    return data


def _counted(obs: np.ndarray):
    """(values, counts, atom_index) of integer data by a counting sort.

    Returns None unless every value is an integer of magnitude below 2**53
    spanning a range below 4 n. The cheap range test comes first, on
    Python ints, so that no int64 extreme wraps. An integer array needs no
    other test and is counted by its offsets from the minimum; a float one
    must equal its `rint`, and its offsets are cast. Where every value in
    the range occurs, the offsets are the atom indices.
    """
    lo, hi = int(obs.min()), int(obs.max())
    if not (hi - lo < 4 * obs.size and max(-lo, hi) < 2 ** 53):
        return None
    if obs.dtype.kind in "iu":
        offsets = np.subtract(obs, lo, dtype=np.intp)
    elif np.array_equal(obs, np.rint(obs)):
        offsets = (obs - lo).astype(np.intp)
    else:
        return None
    counts = np.bincount(offsets)
    present = counts > 0
    values = np.flatnonzero(present) + float(lo)
    if values.size == counts.size:
        return values, counts, offsets
    atom_of_offset = np.cumsum(present, dtype=np.intp) - 1
    return values, counts[present], atom_of_offset[offsets]


def _pair_counts(a, b, ra: int, rb: int) -> np.ndarray:
    """(ra x rb) table of how often each pair (a[t], b[t]) of indices occurs.

    `b` may be bool. The cell codes a[t] rb + b[t] are summed in place, so
    one n-length array is held.
    """
    cells = a * rb
    cells += b
    return np.bincount(cells, minlength=ra * rb).reshape(ra, rb)


def make_sample(data) -> Sample:
    """Build a :class:`Sample` from a sequence of finite reals.

    A zero is stored as +0.0, whatever its sign, so that the atoms depend
    only on the multiset of values, not on row order. An integer array is
    read as it is, any other as float. Integer values on a range below
    4 n are counted in O(n) by `np.bincount` (see `_counted`), an integer
    array with no float round trip; everything else is cast to float and
    sorted by `np.unique`. So an integer array and its float64 cast give
    the same Sample, bit for bit, by either path.

    Raises EmptyInput on an empty sequence and NonFiniteValue (with the
    offending position) if a NaN or infinity sneaks in.
    """
    obs = _real(data)
    if obs.size == 0:
        raise EmptyInput("need at least one observation")
    counted = _counted(obs)
    if counted is not None:
        return Sample(*counted)
    values, atom_index, counts = np.unique(
        np.add(obs, 0.0, dtype=float),  # -0.0 read as 0.0
        return_inverse=True, return_counts=True
    )
    return Sample(values, counts, atom_index.astype(np.intp, copy=False))


def _scalar_or_array(pos):
    """Decorate a function that maps its argument `pos` elementwise.

    The function receives that argument as a flat float array. Its shape
    replaces the last axis of the result; a 0-d result is a Python float.
    """
    def decorate(fn):
        name = fn.__code__.co_varnames[pos]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            args = list(args)
            where, key = (args, pos) if pos < len(args) else (kwargs, name)
            a = np.asarray(where[key], dtype=float)
            where[key] = a.ravel()
            out = fn(*args, **kwargs)
            out = out.reshape(out.shape[:-1] + a.shape)
            return float(out) if out.ndim == 0 else out
        return wrapper
    return decorate


def _unit_open(a, what, closed_left=False, closed_right=False):
    """`a` as a float array, every element checked to lie in (0, 1).

    `closed_left` admits 0 and `closed_right` admits 1. NaN lies in no
    such interval and raises DomainError like any other out-of-range level.
    """
    a = np.asarray(a, dtype=float)
    above_bottom = a >= 0.0 if closed_left else a > 0.0
    below_top = a <= 1.0 if closed_right else a < 1.0
    if not np.all(above_bottom & below_top):
        raise DomainError(f"{what} must lie in {'[' if closed_left else '('}"
                          f"0, 1{']' if closed_right else ')'}")
    return a


@_scalar_or_array(1)
def mid_distribution(s: Sample, x):
    """Evaluate Fmid(x) = F(x) - 0.5 p(x) at scalar or array x.

    Off the support p(x) is zero, so the value is the step CDF at the
    largest atom not exceeding x (0 below the minimum).
    """
    idx = s.atom_at(x)
    return np.where(s.values[idx] == x, s.fmid[idx],
                    np.where(x < s.values[0], 0.0, s.cdf[idx]))


@_scalar_or_array(1)
def quantile(s: Sample, u):
    """Left-continuous quantile: the smallest x with F(x) >= u.

    Defined for u in (0, 1]; u = 1 returns the sample maximum, which keeps
    the identity quantile(s, F(x_j)) == x_j valid at every atom.
    """
    _unit_open(u, "quantile level", closed_right=True)
    return s.values[s.atom_at_level(u)]


@_scalar_or_array(1)
def mid_quantile(s: Sample, u):
    """Piecewise-linear quantile through the knots (Fmid(x_j), x_j).

    Below the first knot and above the last the curve extends flat, so the
    output always stays inside the observed data range. Domain (0, 1).
    """
    _unit_open(u, "mid-quantile level")
    return np.interp(u, s.fmid, s.values)


def quartile_summary(s: Sample) -> QuartileSummary:
    """Quartiles Q1, Q2, Q3 from the mid-quantile, plus MQ and DQ."""
    q1, q2, q3 = (float(v) for v in mid_quantile(s, np.array([0.25, 0.5, 0.75])))
    return QuartileSummary(q1=q1, q2=q2, q3=q3,
                           mq=0.5 * (q1 + q3), dq=2.0 * (q3 - q1))


def informative_quantile(s: Sample, u):
    """Location/scale-free quantile (Qmid(u) - MQ) / DQ.

    A shape diagnostic: symmetric samples give an odd function of u - 0.5,
    a long right tail pushes the upper branch above the lower one in
    magnitude. Requires DQ > 0.
    """
    summ = quartile_summary(s)
    if summ.dq <= 0.0:
        raise DegenerateScale("quartile deviation is zero")
    return (mid_quantile(s, u) - summ.mq) / summ.dq


@_scalar_or_array(2)
def mid_clt_approx(mean: float, sd: float, x):
    """Normal approximation Phi((x - mean) / sd) to a mid-distribution.

    For a discrete sum S with the given mean and sd this approximates
    Fmid(x; S) rather than the plain CDF, which is what makes it accurate
    at the atoms (the half-mass correction is built into the target).
    Phi is a numpy port of the Cephes ndtr that scipy.special wraps (erf
    based), within 4 ulps of scipy's values on the real line.
    """
    _finite_params(mean=mean, sd=sd)
    if sd <= 0.0:
        raise DegenerateScale("sd must be positive")
    return ndtr((x - mean) / sd)


def _finite_params(**params):
    """Raise DomainError naming the first parameter that is not finite."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
