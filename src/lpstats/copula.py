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

from .empirical import (Sample, _scalar_or_array, _unit_open, make_sample,
                        mid_quantile)
from .errors import DegenerateSlice, LengthMismatch
from .lp import LPComomentMatrix, lp_comoments, select_significant
from .scores import ScoreBasis, build_score_basis

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
    "simulate_conditional",
    "series_regression",
]

_CLIP = 1e-6
_MIN_MASS = 1e-3
# quantile_curves works from the monomial form of Y's scores up to this
# order: fitted to the score table it stays within 2e-12 there (continuous
# n = 314 to 1e5), and clip runs matched the dense table cell for cell up
# to order 14.
_POLY_CAP = 10
# A slice whose P_u' has a leading coefficient below this share of its
# largest one goes to the dense slice: companion roots went wrong at 1e-16.
_LEAD_TOL = 1e-12


@dataclass(frozen=True)
class CopulaModel:
    """Fitted copula series: two samples, two bases, one comoment matrix."""

    sx: Sample
    sy: Sample
    bx: ScoreBasis
    by: ScoreBasis
    lpm: LPComomentMatrix
    order: int

    @property
    def coefficients(self) -> np.ndarray:
        """Comoment matrix with unselected cells zeroed."""
        return np.where(self.lpm.selected, self.lpm.entries, 0.0)


@dataclass(frozen=True)
class ConditionalSlice:
    """The copula density at fixed u, as a step function in v.

    `weights[k-1]` multiplies S_k(v; Y); `raw` holds the series values on
    Y's atom intervals, `density` the clipped and renormalized version
    (integrates to exactly 1 by the step sum), `mass` the pre-normalization
    integral of the clipped values.
    """

    u: float
    weights: np.ndarray
    raw: np.ndarray
    density: np.ndarray
    mass: float


def fit_copula(x_obs, y_obs, order: int = 4, rule: str = "aic") -> CopulaModel:
    """Build margins, score bases, and the selected comoment matrix."""
    x = np.asarray(x_obs, dtype=float).ravel()
    y = np.asarray(y_obs, dtype=float).ravel()
    if x.size != y.size:
        raise LengthMismatch(x.size, y.size)
    sx, sy = make_sample(x), make_sample(y)
    bx = build_score_basis(sx, order)
    by = build_score_basis(sy, order)
    lpm = lp_comoments(x, y, bx, by, order, rule=rule)
    return CopulaModel(sx=sx, sy=sy, bx=bx, by=by, lpm=lpm, order=int(order))


def eval_copula(mod: CopulaModel, u, v, clipped: bool = False):
    """Copula density series at (u, v), elementwise over broadcast inputs.

    The raw series may be negative; `clipped` floors it at 1e-6 (no
    renormalization, the full series already integrates to 1).
    """
    ua = _unit_open(u, "copula arguments")
    va = _unit_open(v, "copula arguments")
    scalar = ua.ndim == 0 and va.ndim == 0
    uv, vv = np.broadcast_arrays(np.atleast_1d(ua), np.atleast_1d(va))
    su = mod.bx.table[:, mod.bx.source.atom_at_level(uv.ravel())]
    sv = mod.by.table[:, mod.by.source.atom_at_level(vv.ravel())]
    out = 1.0 + np.einsum("jn,jk,kn->n", su, mod.coefficients, sv)
    if clipped:
        out = np.maximum(out, _CLIP)
    out = out.reshape(uv.shape)
    return float(out.ravel()[0]) if scalar else out


def conditional_slice(mod: CopulaModel, u: float) -> ConditionalSlice:
    """Normalized conditional density of Y at conditioning level u."""
    u = float(_unit_open(u, "conditioning level"))
    su = mod.bx.table[:, mod.bx.source.atom_at_level(u)]
    weights = mod.coefficients.T @ su
    raw = 1.0 + weights @ mod.by.table
    clipped = np.maximum(raw, _CLIP)
    mass = float(mod.sy.masses @ clipped)
    if mass < _MIN_MASS:
        raise DegenerateSlice(f"slice at u={u:g} carries mass {mass:.2e}")
    return ConditionalSlice(u=u, weights=weights, raw=raw,
                            density=clipped / mass, mass=mass)


@_scalar_or_array(2)
def conditional_density(mod: CopulaModel, u: float, v):
    """Value of the normalized slice at probability level(s) v."""
    sl = conditional_slice(mod, u)
    _unit_open(v, "v")
    return sl.density[mod.sy.atom_at_level(v)]


def conditional_mean(mod: CopulaModel, u: float) -> float:
    """E[Y | X = Q(u; X)] by exact step integration of Q(v; Y) d(v)."""
    sl = conditional_slice(mod, u)
    return float((mod.sy.masses * sl.density) @ mod.sy.values)


def _slice_levels(sy: Sample, sl: ConditionalSlice, ps):
    """Levels v at which the slice CDF reaches each p, exactly.

    The density is constant on each atom interval, so the CDF is linear
    there: find the interval where the cumulative mass reaches p and
    interpolate. The clip keeps a p within round-off of 0 or 1 in (0, 1).
    """
    mass = sy.masses * sl.density
    cum = np.cumsum(mass)
    k = np.minimum(np.searchsorted(cum, ps, side="left"), sy.r - 1)
    start = cum[k] - mass[k]
    level = sy.cdf[k] - sy.masses[k] + (ps - start) / sl.density[k]
    return np.clip(level, np.finfo(float).tiny, np.nextafter(1.0, 0.0))


def conditional_quantile(mod: CopulaModel, u: float, p: float) -> float:
    """Conditional quantile of Y given X = Q(u; X) at probability p.

    The slice CDF is piecewise linear and strictly increasing in v (the
    clipped density is positive), so it inverts exactly to a level, which
    the mid-quantile of Y then maps back to the data scale. Fully
    deterministic; no simulation involved.
    """
    p = _unit_open(p, "quantile probability")
    sl = conditional_slice(mod, u)
    return mid_quantile(mod.sy, _slice_levels(mod.sy, sl, p))


def _dot_at(weights, rows, idx):
    """weights[i] @ rows[idx[i, ...]] for idx of shape (k, ...).

    `rows` holds one row of score values per atom (or prefix length).
    """
    return np.einsum("k...j,kj->k...", np.take(rows, idx, axis=0), weights)


def _first_true(lo, hi, test):
    """Elementwise first index in [lo, hi) where `test` holds, else hi.

    `test` maps an index array (shaped like lo) to booleans and must be
    false, then true, along each range.
    """
    lo, hi = lo.copy(), hi.copy()
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        hit = test(mid) | (lo >= hi)
        hi = np.where(hit, mid, hi)
        lo = np.where(hit, lo, mid + 1)
    return lo


def _clip_runs(sy: Sample, scores, weights):
    """Atom runs where each slice's raw series falls below the clip floor.

    Slice i's raw series 1 + weights[i] @ table is a polynomial P_i of
    degree m in the standardized mid-rank t of Y, because the three-term
    recurrence builds each T_j as a polynomial of degree j in t. Between the real roots of P_i' it is
    monotone, so each such piece clips at most one run of atoms, at one end
    of it, found by bisection on the table values themselves. Returns
    (start, stop, served): runs [start, stop) of shape (k, max(m, 1)) in
    atom order (empty where start == stop), and a mask that is false for
    the slices whose P_i' has a leading coefficient too small for its
    roots to be trusted (their runs are left empty).
    """
    k, m = weights.shape
    t = (sy.fmid - 0.5) / np.sqrt(sy.mid_rank_variance)
    served = np.ones(k, dtype=bool)
    cuts = np.full((k, max(m - 1, 0)), sy.r)
    # |P_i - 1| <= sum_j |w_ij| max|T_j|, so only slices past that bound
    # can clip; the others keep one piece and no run
    near = np.flatnonzero(np.abs(weights) @ np.abs(scores).max(axis=0)
                          >= 1.0 - _CLIP)
    if m >= 2 and near.size:
        vander = np.vander(t, m + 1, increasing=True)
        mono = np.linalg.lstsq(vander, scores, rcond=None)[0]
        deriv = (weights[near] @ mono[1:].T) * np.arange(1, m + 1)
        lead = deriv[:, -1]
        trusted = np.abs(lead) > _LEAD_TOL * np.abs(deriv).max(axis=1)
        companion = np.zeros((near.size, m - 1, m - 1))
        companion[:, np.arange(1, m - 1), np.arange(m - 2)] = 1.0
        companion[:, :, -1] = (-deriv[:, :-1]
                               / np.where(trusted, lead, 1.0)[:, None])
        # every root's real part splits: a cut inside a monotone piece is
        # harmless, a missed one is not
        roots = np.sort(np.linalg.eigvals(companion).real, axis=1)
        cuts[near] = np.searchsorted(t, roots)
        served[near] = trusted
        weights = weights * served[:, None]  # runs of rows not served: none
    start = np.concatenate([np.zeros((k, 1), np.intp), cuts], axis=1)
    stop = np.concatenate([cuts, np.full((k, 1), sy.r, np.intp)], axis=1)

    def clipped(w, idx):
        return 1.0 + _dot_at(w, scores, idx) < _CLIP

    # a monotone piece with one clipped end clips a prefix or a suffix of it
    first = clipped(weights, np.minimum(start, sy.r - 1))
    last = clipped(weights, np.maximum(stop - 1, 0))
    edge = stop.copy()
    mixed = np.flatnonzero((first != last) & (start < stop))
    w, target = weights[mixed // start.shape[1]], last.flat[mixed]
    edge.flat[mixed] = _first_true(start.flat[mixed], stop.flat[mixed],
                                   lambda e: clipped(w, e) == target)
    return np.where(first, start, edge), np.where(first, edge, stop), served


def _poly_curves(sy: Sample, table, weights, ps):
    """Means and slice-CDF levels of every slice at once, in O(m) per value.

    Prefix sums of the score table give any prefix sum of the unclipped
    series; each clipped run then swaps its share for the floor's. The
    run ends split each slice's CDF into stretches on which one formula
    holds, p is placed in its stretch, and the atom where the CDF reaches
    p is found by bisection there. Levels are interpolated as
    `_slice_levels` does. Returns (means, levels, masses, served); rows
    not served hold placeholders.
    """
    k, r = weights.shape[0], sy.r
    scores = np.ascontiguousarray(table.T)
    start, stop, served = _clip_runs(sy, scores, weights)
    rows, full = np.arange(k)[:, None], np.full((k, 1), r)
    # raw = [1, weights] @ [1, scores]; rows not served get raw = 1
    series = np.concatenate((np.ones((k, 1)), weights * served[:, None]),
                            axis=1)
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

        fix = (_CLIP * (z[stop] - z[start])
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
    at_stop = at_start + _CLIP * (z[stop] - z[start])
    edges = np.concatenate(
        (np.stack((start, stop), -1).reshape(k, -1), full), axis=1)
    cdf = np.concatenate((np.stack((at_start, at_stop), -1).reshape(k, -1),
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
    # CLIP * z[e] inside a run, the unclipped series outside
    base = np.where(in_run, at_start[rows, run] - _CLIP * z[start[rows, run]],
                    before[rows, q])
    coef = np.where(in_run[..., None],
                    _CLIP * (np.arange(terms.shape[1]) == 0),
                    series[:, None, :])

    def above_base(e):
        return np.einsum("kpj,kpj->kp", np.take(zt, e, axis=0), coef)

    upper, lower = edges[rows, j], lows[rows, j] + 1
    rest = ps * mass - base
    atom = _first_true(lower, upper, lambda e: above_base(e) >= rest) - 1
    density = np.maximum(_dot_at(series, terms, atom), _CLIP) / mass
    level = (sy.cdf[atom] - sy.masses[atom]
             + (ps - (above_base(atom) + base) / mass) / density)
    level = np.clip(level, np.finfo(float).tiny, np.nextafter(1.0, 0.0))
    return means, level, mass[:, 0], served


def quantile_curves(mod: CopulaModel, us, ps):
    """Conditional mean and quantiles over a grid of conditioning levels.

    Returns (means, table) where table[i][j] is the p_j conditional
    quantile at u_i. All u and p are checked before any work.

    Every slice is served at once from the polynomial form of Y's scores
    (see `_clip_runs`): prefix sums of the score table give each slice's
    CDF and mean in O(m) per value, clipped runs are located exactly, and
    the CDF is inverted by bisection over the atom index. A call costs
    O(r_y m^2 + r_x m^3 + r_x |p| m log r_y), not O(r_x r_y m). Above order
    `_POLY_CAP`, and for a slice whose derivative loses its leading term,
    the slice is built densely by `conditional_slice` instead. One
    mid-quantile call maps every level.
    """
    us = _unit_open(us, "conditioning level")
    ps = np.ravel(_unit_open(ps, "quantile probability"))
    sy = mod.sy
    su = mod.bx.table[:, mod.bx.source.atom_at_level(us)]
    weights = su.T @ mod.coefficients
    used = np.flatnonzero(weights.any(axis=0))
    m = used[-1] + 1 if used.size else 0
    if m <= _POLY_CAP:
        means, levels, mass, served = _poly_curves(
            sy, mod.by.table[:m], weights[:, :m], ps)
        low = np.flatnonzero(served & (mass < _MIN_MASS))
        if low.size:
            raise DegenerateSlice(f"slice at u={us[low[0]]:g} carries mass "
                                  f"{mass[low[0]]:.2e}")
    else:
        means, levels = np.empty(us.size), np.empty((us.size, ps.size))
        served = np.zeros(us.size, dtype=bool)
    for i in np.flatnonzero(~served):
        sl = conditional_slice(mod, us[i])
        means[i] = float((sy.masses * sl.density) @ sy.values)
        levels[i] = _slice_levels(sy, sl, ps)
    return means, mid_quantile(sy, levels)


def slice_modes(mod: CopulaModel, u: float):
    """Count local maxima of the conditional density at level u.

    Plateaus (runs of equal step values, as the clip floor produces) are
    merged before counting; a boundary run higher than its single
    neighbor counts as a mode. Returns (count, y locations of the modes).
    """
    dens = conditional_slice(mod, u).density
    first = np.concatenate(([True], dens[1:] != dens[:-1]))
    vals, locs = dens[first], mod.sy.values[first]
    padded = np.concatenate(([-np.inf], vals, [-np.inf]))
    peak = (vals > padded[:-2]) & (vals > padded[2:])
    return int(peak.sum()), locs[peak].tolist()


def simulate_conditional(mod: CopulaModel, u: float, count: int,
                         seed) -> np.ndarray:
    """Seeded draws of Y given X = Q(u; X), by inverse-CDF sampling.

    Uniform probabilities go through the exact inverse of the slice CDF
    (`_slice_levels`) and then the mid-quantile of Y; deterministic for a
    fixed seed.
    """
    sl = conditional_slice(mod, u)
    ps = np.random.default_rng(seed).random(int(count))
    return mid_quantile(mod.sy, _slice_levels(mod.sy, sl, ps))


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
        active = self.coefficients * self.selected
        idx = self.basis.source.atom_at(x)
        return self.ybar + active @ self.basis.table[:, idx]


def series_regression(x_obs, y_obs, bx: ScoreBasis, m: int | None = None,
                      rule: str = "aic") -> RegressionFit:
    """Project y on the orthonormal scores of x.

    The constant term handles centering (scores have zero mean), so the
    coefficients are plain cross moments mean(y T_j(x)). A constant y
    yields an empty selection and a flat curve.
    """
    x = np.asarray(x_obs, dtype=float).ravel()
    y = np.asarray(y_obs, dtype=float).ravel()
    if x.size != y.size:
        raise LengthMismatch(x.size, y.size)
    m = bx.max_order if m is None else min(int(m), bx.max_order)
    table = bx.table[:m, bx.source.atom_at(x)]
    coefficients = table @ y / y.size
    y_sd = float(y.std())
    if y_sd > 0.0:
        selected = select_significant(coefficients / y_sd, y.size, rule=rule)
    else:
        selected = np.zeros(m, dtype=bool)
    return RegressionFit(basis=bx, ybar=float(y.mean()), y_sd=y_sd,
                         coefficients=coefficients, selected=selected)
