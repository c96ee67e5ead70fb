"""Bivariate copula density series and the conditional curves it carries.

The copula density of a pair is expanded in the tensor products of the
two margins' orthonormal score functions,

    cop(u, v) = 1 + sum_{j,k} LP(j, k) S_j(u; X) S_k(v; Y),

so the LP comoment matrix is the full parameter set. Slicing at a fixed u
gives the conditional comparison density of Y given X = Q(u; X), a step
function over Y's atom intervals; integrating it against the quantile
gives conditional means, inverting its CDF gives conditional quantiles.
All integrals over v are exact step sums, no quadrature involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebvander

from .compdensity import CLIP_FLOOR
from .empirical import (Sample, _finite, _of_length, _scalar_or_array,
                        _unit_open, make_sample, mid_quantile)
from .lp import LPComomentMatrix, lp_comoments, select_significant
from .scores import ScoreBasis, _row_sums, build_score_basis

__all__ = [
    "CopulaModel",
    "ConditionalSlice",
    "RegressionFit",
    "fit_copula",
    "eval_copula",
    "conditional_slice",
    "conditional_density",
    "conditional_mean",
    "conditional_quantile",
    "quantile_curves",
    "slice_modes",
    "series_regression",
]

# Chebyshev coefficients of a slice's P_u' below this share of its largest
# one are dropped from the top: the closed forms and the colleague matrix
# divide by the leading one, and at round-off size its roots are noise.
_LEAD_TOL = 1e-12
# Row j holds the monomial coefficients of the Chebyshev polynomial T_j.
_CHEB_TO_MONO = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0], [-1, 0, 2, 0],
                          [0, -3, 0, 4]])
# Points `eval_copula` takes at a time: it gathers an (m, block) score
# table per margin, so its memory does not grow with the number of points.
# The default depend grid, 51**2 cells, is one block.
_EVAL_BLOCK = 1 << 14


@dataclass(frozen=True)
class CopulaModel:
    """Fitted copula series: two bases, one comoment matrix.

    X's sample is `bx.source` and Y's `by.source`.
    """

    bx: ScoreBasis
    by: ScoreBasis
    lpm: LPComomentMatrix

    @property
    def coefficients(self) -> np.ndarray:
        """Comoment matrix with unselected cells zeroed."""
        return np.where(self.lpm.selected, self.lpm.entries, 0.0)


@dataclass(frozen=True)
class ConditionalSlice:
    """The copula density at fixed u, as a step function in v.

    u is the level given to `conditional_slice`. `raw` holds the series
    values on Y's atom intervals, `density` the clipped and renormalized
    version (integrates to exactly 1 by the step sum), `mass` the
    pre-normalization integral of the clipped values, at least 1 (see
    `_step_density`).
    """

    raw: np.ndarray
    density: np.ndarray
    mass: float


def fit_copula(x_obs, y_obs, order: int = 4, rule: str = "aic") -> CopulaModel:
    """Build margins, score bases, and the selected comoment matrix."""
    y = _of_length(y_obs, np.size(x_obs))
    sx, sy = make_sample(x_obs), make_sample(y)
    bx = build_score_basis(sx, order)
    by = build_score_basis(sy, order)
    return CopulaModel(bx=bx, by=by, lpm=lp_comoments(bx, by, rule=rule))


def eval_copula(mod: CopulaModel, u, v):
    """Copula density series at (u, v), elementwise over broadcast inputs.

    The raw series, which may be negative; floored at CLIP_FLOOR it needs
    no renormalization, as the full series already integrates to 1. Each
    point adds its terms T_j(a) c_jk T_k(b) one by one, in (j, k) order,
    so neither the blocks of `_EVAL_BLOCK` points nor the other points of
    the call move a bit of its value.
    """
    ua = _unit_open(u, "copula arguments")
    va = _unit_open(v, "copula arguments")
    scalar = ua.ndim == 0 and va.ndim == 0
    uv, vv = np.broadcast_arrays(np.atleast_1d(ua), np.atleast_1d(va))
    iu = mod.bx.source.atom_at_level(uv.ravel())
    iv = mod.by.source.atom_at_level(vv.ravel())
    out = np.zeros(iu.size)
    for at in range(0, iu.size, _EVAL_BLOCK):
        cut = slice(at, at + _EVAL_BLOCK)
        # np.take gives contiguous rows; table[:, idx] strides them
        acc, tb = out[cut], np.take(mod.by.table, iv[cut], axis=1)
        for row, coef in zip(mod.bx.table, mod.coefficients):
            row_a = row[iu[cut]]
            for row_b, c in zip(tb, coef):
                acc += row_a * c * row_b
    out += 1.0
    return float(out[0]) if scalar else out.reshape(uv.shape)


def _step_density(sy: Sample, table, weights):
    """Floored, normalized step series 1 + weights @ table over Y's atoms.

    Returns (raw, density, mass): the series, its floor at CLIP_FLOOR
    divided by `mass`, the floored series' step sum. Each score of `table`
    has mean zero under `sy.masses`, so the raw series sums to exactly 1
    and flooring only adds: mass >= 1 up to round-off.
    """
    raw = 1.0 + weights @ table
    floored = np.maximum(raw, CLIP_FLOOR)
    mass = float(sy.masses @ floored)
    return raw, floored / mass, mass


def conditional_slice(mod: CopulaModel, u: float) -> ConditionalSlice:
    """Normalized conditional density of Y at conditioning level u."""
    u = float(_unit_open(u, "conditioning level"))
    su = mod.bx.table[:, mod.bx.source.atom_at_level(u)]
    raw, density, mass = _step_density(mod.by.source, mod.by.table,
                                       mod.coefficients.T @ su)
    return ConditionalSlice(raw=raw, density=density, mass=mass)


@_scalar_or_array(2)
def conditional_density(mod: CopulaModel, u: float, v):
    """Value of the normalized slice at probability level(s) v."""
    sl = conditional_slice(mod, u)
    _unit_open(v, "v")
    return sl.density[mod.by.source.atom_at_level(v)]


def conditional_mean(mod: CopulaModel, u: float) -> float:
    """E[Y | X = Q(u; X)] by exact step integration of Q(v; Y) d(v)."""
    sl, sy = conditional_slice(mod, u), mod.by.source
    return float((sy.masses * sl.density) @ sy.values)


def _atom_level(sy: Sample, atom, offset):
    """Each atom's start plus `offset`, clipped to the atom and to (0, 1)."""
    low = sy.cdf[atom] - sy.masses[atom]
    # round-off over a near-floor density must not leave the atom
    level = np.clip(low + offset, low, sy.cdf[atom])
    return np.clip(level, np.finfo(float).tiny, np.nextafter(1.0, 0.0))


def _slice_levels(sy: Sample, sl: ConditionalSlice, ps):
    """Levels v at which the slice CDF reaches each p, exactly.

    The density is constant on each atom interval, so the CDF is linear
    there: find the interval where the cumulative mass reaches p and
    interpolate.
    """
    mass = sy.masses * sl.density
    cum = np.cumsum(mass)
    k = np.minimum(np.searchsorted(cum, ps, side="left"), sy.r - 1)
    return _atom_level(sy, k, (ps - (cum[k] - mass[k])) / sl.density[k])


def conditional_quantile(mod: CopulaModel, u: float, p):
    """Conditional quantile of Y given X = Q(u; X) at probability p.

    The slice CDF is piecewise linear and strictly increasing in v (the
    clipped density is positive), so it inverts exactly to a level, which
    the mid-quantile of Y then maps back to the data scale. A scalar p
    gives a float, an array of p an array. Seeded uniform p give seeded
    draws of Y given X = Q(u; X), by inverse-CDF sampling.
    """
    p = _unit_open(p, "quantile probability")
    sl, sy = conditional_slice(mod, u), mod.by.source
    return mid_quantile(sy, _slice_levels(sy, sl, p))


def _dot_at(weights, rows, idx):
    """weights[i] @ rows[idx[i, ...]] for idx of shape (k, ...).

    `rows` holds one row of score values per atom (or prefix length).
    """
    return np.einsum("k...j,kj->k...", np.take(rows, idx, axis=0), weights)


def _first_true(lo, hi, test):
    """Elementwise first index in [lo, hi) where `test` holds, else hi.

    `test` maps an index array (shaped like lo) to booleans and must be
    false, then true, along each range. Until the widest range is used up,
    a resolved entry is asked again at its answer: true there, unless the
    answer is hi itself, where lo may step one past; the final clip undoes
    that. So `test` must accept hi.
    """
    top = hi
    # each step at least halves the widest range, so this many steps suffice
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        mid = (lo + hi) >> 1
        hit = test(mid)
        hi = np.where(hit, mid, hi)
        lo = np.where(hit, lo, mid + 1)
    return np.minimum(lo, top)


def _quadratic_real_parts(b, c):
    """Real parts of the two roots of t^2 + b t + c, row by row.

    Real roots come as q = -(b + sign(b) sqrt(b^2 - 4c)) / 2 and c / q,
    which avoids cancellation; a complex pair has real part -b/2, which is
    q when the discriminant is negative.
    """
    disc = b * b - 4.0 * c
    q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b))
    # q = 0 with real roots only for the double root 0
    return np.stack((q, np.divide(c, q, out=q.copy(),
                                  where=(disc >= 0.0) & (q != 0.0))), axis=1)


def _cubic_real_root(c):
    """One real root of t^3 + c[:, 2] t^2 + c[:, 1] t + c[:, 0], row by row.

    With t = s - c2/3 the cubic is s^3 + p s + q. Its only real root comes
    from Cardano's form; of three real roots, the trigonometric form gives
    the largest in magnitude, the one least hurt by round-off in the shift.
    """
    shift = c[:, 2] / 3.0
    p = c[:, 1] - c[:, 2] * shift
    q = (2.0 * shift * shift - c[:, 1]) * shift + c[:, 0]
    disc = 0.25 * q * q + p * p * p / 27.0
    # Cardano's larger cube root u and its partner -p / 3u; u = 0 only for
    # the triple root s = 0
    u = -np.copysign(np.cbrt(0.5 * np.abs(q)
                             + np.sqrt(np.maximum(disc, 0.0))), q)
    root = u + np.divide(-p, 3.0 * u, out=np.zeros_like(u),
                         where=u != 0.0) - shift
    three = np.flatnonzero(disc < 0.0)  # then p < 0
    amp = np.sqrt(-p[three] / 3.0)
    angle = np.arccos(np.clip(-0.5 * q[three] / amp ** 3, -1.0, 1.0))
    roots = (2.0 * amp[:, None]
             * np.cos((angle[:, None] - 2.0 * np.pi * np.arange(3)) / 3.0)
             - shift[three, None])
    root[three] = roots[np.arange(three.size), np.abs(roots).argmax(axis=1)]
    return root


def _root_real_parts(c):
    """Sorted real parts of the roots of T_d + c[d-1] T_(d-1) + ... + c[0] T_0.

    Row by row of c, as (k, d), T_j Chebyshev. Degrees 1 to 3 are solved in
    closed form from the monomial coefficients: a cubic's real root is
    divided out, the quotient's two roots are a quadratic's. Higher degrees
    take the eigenvalues of batched colleague matrices (`chebcompanion`).
    """
    k, d = c.shape
    if d > 3:
        colleague = np.zeros((k, d, d))
        i = np.arange(d - 1)
        colleague[:, i, i + 1] = colleague[:, i + 1, i] = 0.5
        colleague[:, 0, 1] = colleague[:, 1, 0] = np.sqrt(0.5)
        colleague[:, :, -1] -= c * np.r_[np.sqrt(0.5), np.full(d - 1, 0.5)]
        return np.sort(np.linalg.eigvals(colleague).real, axis=1)
    # the monic monomial form: T_d leads with 2^(d-1) t^d
    c = (c @ _CHEB_TO_MONO[:d, :d] + _CHEB_TO_MONO[d, :d]) / 2.0 ** (d - 1)
    if d == 1:
        return -c
    if d == 2:
        return np.sort(_quadratic_real_parts(c[:, 1], c[:, 0]), axis=1)
    r = _cubic_real_root(c)
    # P / (t - r) = t^2 + b1 t + b0, divided from the leading term, which
    # keeps b accurate when r is the smaller root in magnitude; where
    # r^2 > |b0|, the pair's product, from the constant term
    b1 = c[:, 2] + r
    b0 = c[:, 1] + r * b1
    big = r * r > np.abs(b0)
    b0 = np.divide(-c[:, 0], r, out=b0, where=big)
    b1 = np.divide(b0 - c[:, 1], r, out=b1, where=big)
    return np.sort(np.column_stack((r, _quadratic_real_parts(b1, b0))),
                   axis=1)


def _clip_runs(sy: Sample, scores, weights):
    """Atom runs where each slice's raw series falls below the clip floor.

    Slice i's raw series 1 + weights[i] @ table is a polynomial P_i of
    degree m in s, Y's mid-distribution mapped onto [-1, 1], because the
    three-term recurrence builds each T_j as a polynomial of degree j in
    it. Y's scores, fitted in Chebyshev polynomials of s (accurate at every
    order the basis allows), give P_i' as a Chebyshev series, of the degree
    of its last coefficient above `_LEAD_TOL` times its largest. Between
    its real roots (`_root_real_parts`) P_i is monotone, so each such piece
    clips at most one run of atoms, at one end of it, found by bisection on
    the table values themselves. Returns runs [start, stop) of shape
    (k, max(m, 1)) in atom order, empty where start == stop.
    """
    k, m = weights.shape
    cuts = np.full((k, max(m - 1, 0)), sy.r)
    # |P_i - 1| <= sum_j |w_ij| max|T_j|, so only slices past that bound
    # can clip; the others keep one piece and no run
    near = np.flatnonzero(np.abs(weights) @ np.abs(scores).max(axis=0)
                          >= 1.0 - CLIP_FLOOR)
    if m >= 2 and near.size:
        s = 2.0 * (sy.fmid - sy.fmid[0]) / (sy.fmid[-1] - sy.fmid[0]) - 1.0
        cheb = np.linalg.lstsq(chebvander(s, m), scores, rcond=None)[0]
        deriv = weights[near] @ chebder(cheb).T
        size = np.abs(deriv)
        big = size > _LEAD_TOL * size.max(axis=1, keepdims=True)
        degree = (big * np.arange(m)).max(axis=1)
        # cuts past a row's degree stay at r: its last pieces are empty, and
        # at degree 0 P_i is monotone. Every root's real part splits: a cut
        # inside a monotone piece is harmless, a missed one is not
        for d in set(degree.tolist()) - {0}:
            rows = np.flatnonzero(degree == d)
            roots = _root_real_parts(deriv[rows, :d] / deriv[rows, d, None])
            cuts[near[rows], :d] = np.searchsorted(s, roots)
    start = np.concatenate([np.zeros((k, 1), np.intp), cuts], axis=1)
    stop = np.concatenate([cuts, np.full((k, 1), sy.r, np.intp)], axis=1)

    def clipped(w, idx):
        return 1.0 + _dot_at(w, scores, idx) < CLIP_FLOOR

    # a monotone piece with one clipped end clips a prefix or a suffix of it
    first = clipped(weights, np.minimum(start, sy.r - 1))
    last = clipped(weights, np.maximum(stop - 1, 0))
    edge = stop.copy()
    mixed = np.flatnonzero((first != last) & (start < stop))
    w, target = weights[mixed // start.shape[1]], last.flat[mixed]
    edge.flat[mixed] = _first_true(start.flat[mixed], stop.flat[mixed],
                                   lambda e: clipped(w, e) == target)
    return np.where(first, start, edge), np.where(first, edge, stop)


def _poly_curves(sy: Sample, table, weights, ps):
    """Means and slice-CDF levels of every slice at once, in O(m) per value.

    Prefix sums of the score table give any prefix sum of the unclipped
    series; each clipped run then swaps its share for the floor's. The
    run ends split each slice's CDF into stretches on which one formula
    holds, p is placed in its stretch, and the atom where the CDF reaches
    p is found by bisection there, and the level inside that atom by
    `_atom_level`, as in `_slice_levels`. Returns (means, levels).
    """
    k, r = weights.shape[0], sy.r
    scores = np.ascontiguousarray(table.T)
    start, stop = _clip_runs(sy, scores, weights)
    rows, full = np.arange(k)[:, None], np.full((k, 1), r)
    # raw = [1, weights] @ [1, scores]
    series = np.concatenate((np.ones((k, 1)), weights), axis=1)
    terms = np.concatenate((np.ones((r, 1)), scores), axis=1)

    def sums(w):
        """Unclipped prefix sums of w * raw, and the run fixes before each run.

        before[:, q] sums the clip corrections of runs 0..q-1; the last
        column holds all of them.
        """
        zt = np.concatenate((np.zeros((1, terms.shape[1])),
                             np.cumsum(w[:, None] * terms, axis=0)))
        z = zt[:, 0]

        def unclipped(e):
            return _dot_at(series, zt, e)

        fix = (CLIP_FLOOR * (z[stop] - z[start])
               - (unclipped(stop) - unclipped(start)))
        before = np.concatenate((np.zeros((k, 1)), np.cumsum(fix, axis=1)),
                                axis=1)
        return zt, unclipped, before

    _, moment, before_y = sums(sy.masses * sy.values)
    zt, unclipped, before = sums(sy.masses)
    z = zt[:, 0]
    mass = unclipped(full) + before[:, -1:]
    means = ((moment(full) + before_y[:, -1:]) / mass)[:, 0]

    # clipped CDF at the run ends: edges 2q and 2q + 1 are run q's start
    # and stop, the last edge is r
    at_start = unclipped(start) + before[:, :-1]
    at_stop = at_start + CLIP_FLOOR * (z[stop] - z[start])
    width = 2 * start.shape[1]  # not -1: numpy cannot infer it at k = 0
    edges = np.concatenate(
        (np.stack((start, stop), -1).reshape(k, width), full), axis=1)
    cdf = np.concatenate((np.stack((at_start, at_stop), -1).reshape(k, width),
                          mass), axis=1) / mass
    # p lies between edges j - 1 and j: inside run j // 2 for odd j, else
    # past j // 2 runs on unclipped atoms
    j = (cdf[:, None, :] < ps[:, None]).sum(axis=-1)
    # the two formulas meeting at an edge agree only to round-off, so p can
    # land past an empty stretch; the last nonempty one before it serves
    lows = np.concatenate((np.zeros((k, 1), np.intp), edges[:, :-1]), axis=1)
    nonempty = np.where(edges > lows, np.arange(edges.shape[1]), 0)
    j = np.maximum.accumulate(nonempty, axis=1)[rows, j]
    q, in_run = j // 2, j % 2 == 1
    run = np.minimum(q, start.shape[1] - 1)
    # there the clipped CDF is coef @ zt[e] + base: the floor's mass
    # CLIP_FLOOR * z[e] inside a run, the unclipped series outside
    base = np.where(in_run,
                    at_start[rows, run] - CLIP_FLOOR * z[start[rows, run]],
                    before[rows, q])
    coef = np.where(in_run[..., None],
                    CLIP_FLOOR * (np.arange(terms.shape[1]) == 0),
                    series[:, None, :])

    def above_base(e):
        return np.einsum("kpj,kpj->kp", np.take(zt, e, axis=0), coef)

    upper, lower = edges[rows, j], lows[rows, j] + 1
    rest = ps * mass - base
    atom = _first_true(lower, upper, lambda e: above_base(e) >= rest) - 1
    density = np.maximum(_dot_at(series, terms, atom), CLIP_FLOOR) / mass
    offset = (ps - (above_base(atom) + base) / mass) / density
    return means, _atom_level(sy, atom, offset)


def quantile_curves(mod: CopulaModel, us, ps):
    """Conditional mean and quantiles over a grid of conditioning levels.

    Returns (means, table) where table[i][j] is the p_j conditional
    quantile at u_i, u and p each raveled, so a scalar u gives one row.
    All u and p are checked before any work.

    Every slice is read at once off the polynomial form of Y's scores
    (see `_clip_runs`): prefix sums of the score table give each slice's
    CDF and mean in O(m) per value, clipped runs are located exactly, and
    the CDF is inverted by bisection over the atom index. A call costs
    O(r_y m^2 + r_x m^3 + r_x |p| m log r_y), not O(r_x r_y m), at every
    order. One mid-quantile call maps every level.
    """
    us = np.ravel(_unit_open(us, "conditioning level"))
    ps = np.ravel(_unit_open(ps, "quantile probability"))
    su = mod.bx.table[:, mod.bx.source.atom_at_level(us)]
    weights = su.T @ mod.coefficients
    used = np.flatnonzero(weights.any(axis=0))
    m = used[-1] + 1 if used.size else 0
    sy = mod.by.source
    means, levels = _poly_curves(sy, mod.by.table[:m], weights[:, :m], ps)
    return means, mid_quantile(sy, levels)


def slice_modes(mod: CopulaModel, u: float):
    """Count local maxima of the conditional density at level u.

    Plateaus (runs of equal step values, as the clip floor produces) are
    merged before counting; a boundary run higher than its single
    neighbor counts as a mode. Returns (count, y locations of the modes).
    """
    dens = conditional_slice(mod, u).density
    first = np.concatenate(([True], dens[1:] != dens[:-1]))
    vals, locs = dens[first], mod.by.source.values[first]
    padded = np.concatenate(([-np.inf], vals, [-np.inf]))
    peak = (vals > padded[:-2]) & (vals > padded[2:])
    return int(peak.sum()), locs[peak].tolist()


@dataclass(frozen=True)
class RegressionFit:
    """Orthogonal series regression of y on the score functions of x.

    coefficients[j-1] = mean(y_t T_j(x_t)); the fitted curve is
    ybar + sum over selected j of coefficients[j-1] T_j(x). Selection is
    applied to the coefficients standardized by sd(y).
    """

    basis: ScoreBasis
    ybar: float
    y_sd: float
    coefficients: np.ndarray
    selected: np.ndarray

    @_scalar_or_array(1)
    def predict(self, x):
        """The curve at the atom of each x (see `Sample.atom_at`).

        The selected terms are summed over the orders, in order, once per
        atom, so a point's bits do not depend on what else is asked for.
        """
        active = self.coefficients * self.selected
        curve = np.add.reduce(active[:, None] * self.basis.table, axis=0)
        return self.ybar + curve[self.basis.source.atom_at(x)]


def series_regression(bx: ScoreBasis, y_obs,
                      rule: str = "aic") -> RegressionFit:
    """Project y, paired with the rows of x = bx.source, on every score in bx.

    The constant term handles centering (scores have zero mean), so the
    coefficients are plain cross moments mean(y T_j(x)). A constant y
    yields +0.0 coefficients, an empty selection under any known rule and
    a flat curve; an unknown rule raises DomainError for every y. y is
    first summed per atom of x by `np.bincount`, in O(n + r), and the
    cross moments come from those r sums. A fit of lower order is the fit
    on the basis built at that order.
    """
    y = _finite(_of_length(y_obs, bx.source.n))
    sums = np.bincount(bx.source.atom_index, weights=y, minlength=bx.source.r)
    if (y != y[0]).any():
        coefficients, y_sd = _row_sums(bx.table, sums) / y.size, float(y.std())
    else:  # no spread and no cross moment, whatever round-off they carry
        coefficients, y_sd = np.zeros(bx.max_order), 0.0
    # the rule is checked even where a y with no spread selects nothing
    selected = select_significant(coefficients / (y_sd or 1.0), y.size,
                                  rule=rule) & (y_sd > 0.0)
    return RegressionFit(basis=bx, ybar=float(y.mean()), y_sd=y_sd,
                         coefficients=coefficients, selected=selected)
