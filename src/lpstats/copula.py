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


def quantile_curves(mod: CopulaModel, us, ps):
    """Conditional mean and quantiles over a grid of conditioning levels.

    Returns (means, table) where table[i][j] is the p_j conditional
    quantile at u_i; one slice per u serves all p, and one mid-quantile
    call maps every level. All u and p are checked before any work.
    """
    us = _unit_open(us, "conditioning level")
    ps = _unit_open(ps, "quantile probability")
    means = np.empty(us.size)
    levels = np.empty((us.size, ps.size))
    for i, u in enumerate(us):
        sl = conditional_slice(mod, u)
        means[i] = float((mod.sy.masses * sl.density) @ mod.sy.values)
        levels[i] = _slice_levels(mod.sy, sl, ps)
    return means, mid_quantile(mod.sy, levels)


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
    """Seeded accept-reject draws of Y given X = Q(u; X).

    Uniform proposals on the v scale against the slice density, mapped
    through the mid-quantile of Y; deterministic for a fixed seed.
    """
    sl = conditional_slice(mod, u)
    envelope = float(sl.density.max()) * 1.001
    rng = np.random.default_rng(seed)
    out = []
    kept = 0
    count = int(count)
    while kept < count:
        v = rng.random(4096)
        w = rng.random(4096)
        dens = sl.density[mod.sy.atom_at_level(v)]
        ok = (v > 0.0) & (dens > envelope * w)
        draw = mid_quantile(mod.sy, v[ok]) if np.any(ok) else np.empty(0)
        out.append(np.atleast_1d(draw))
        kept += out[-1].size
    return np.concatenate(out)[:count]


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
