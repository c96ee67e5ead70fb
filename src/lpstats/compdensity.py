"""Comparison distributions and densities against a reference model.

Given a sample F and a reference distribution G, the comparison
distribution D(u) = F(Q_G(u)) measures how the data deviate from the
model on the probability scale: data drawn from G give D close to the
diagonal, and the comparison density d(u) = D'(u) close to 1. Two
estimators are provided, the orthogonal L2 series

    d(u) = 1 + sum_j C_j Leg_j(u),   C_j = E[Leg_j(G(X))]

and the maximum-entropy exponential model log d(u) = theta_0 + sum_j
theta_j Leg_j(u), fitted by moment matching on the selected coefficients.
Reweighting g by the fitted comparison density gives the skew-G density
estimate f(x) = g(x) d(G(x)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, partial

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._normal import ndtr, ndtri
from .empirical import (Sample, _finite_params, _scalar_or_array, _unit_open,
                        quantile)
from .errors import (DegenerateScale, DomainError, FlavorNotFitted,
                     IllConditioned, NonConvergence, UnboundedDensity)
from .lp import select_significant
from .scores import _row_sums, legendre_eval

__all__ = [
    "ReferenceDistribution",
    "CompDensityModel",
    "normal_reference",
    "exponential_reference",
    "uniform_reference",
    "empirical_reference",
    "fit_reference",
    "comparison_distribution",
    "pp_grid",
    "l2_fit",
    "maxent_fit",
    "eval_density",
    "skew_g_density",
    "gof_distance",
    "simulate_skew_g",
]

QUAD_NODES = 128
CLIP_FLOOR = 1e-6
# The stopping rule of `maxent_fit`: residual tolerance and Newton steps.
MAXENT_TOL = 1e-8
MAXENT_MAX_ITER = 100


@cache
def _gauss01():
    """QUAD_NODES Gauss-Legendre nodes and weights mapped to [0, 1].

    Nodes come from numpy's leggauss (companion-matrix roots polished by
    one Newton step), then the affine map from [-1, 1].
    """
    x, w = leggauss(QUAD_NODES)
    return (x + 1.0) / 2.0, w / 2.0


class ReferenceDistribution:
    """A reference model G with evaluable cdf, quantile, and density.

    Use the module constructors (`normal_reference`, ...). `kind` and
    `params` identify the model for serialization; `has_density` is False
    for the empirical kind, which supports comparison fitting but not the
    skew-G density.
    """

    __slots__ = ("kind", "params", "has_density", "_cdf", "_pdf", "_quantile")

    def __init__(self, kind, params, cdf, quantile, pdf=None):
        self.kind = kind
        self.params = dict(params)
        self._cdf = cdf
        self._quantile = quantile
        self._pdf = pdf
        self.has_density = pdf is not None

    @_scalar_or_array(1)
    def cdf(self, x):
        return self._cdf(x)

    @_scalar_or_array(1)
    def quantile(self, u):
        return self._quantile(u)

    @_scalar_or_array(1)
    def pdf(self, x):
        if not self.has_density:
            raise DomainError(f"reference kind {self.kind!r} has no density")
        return self._pdf(x)

    def __repr__(self):
        inner = ", ".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"ReferenceDistribution({self.kind}({inner}))"


def normal_reference(mu: float, sigma: float) -> ReferenceDistribution:
    _finite_params(mu=mu, sigma=sigma)
    if sigma <= 0.0:
        raise DegenerateScale("sigma must be positive")

    def qf(u):
        _unit_open(u, "normal quantile level")
        return mu + sigma * ndtri(u)

    return ReferenceDistribution(
        "normal", {"mu": mu, "sigma": sigma},
        cdf=lambda x: ndtr((x - mu) / sigma),
        quantile=qf,
        pdf=lambda x: np.exp(-0.5 * ((x - mu) / sigma) ** 2)
        / (sigma * math.sqrt(2.0 * math.pi)),
    )


def exponential_reference(rate: float) -> ReferenceDistribution:
    _finite_params(rate=rate)
    if rate <= 0.0:
        raise DegenerateScale("rate must be positive")

    def qf(u):
        _unit_open(u, "exponential quantile level", closed_left=True)
        return -np.log1p(-u) / rate

    return ReferenceDistribution(
        "exponential", {"rate": rate},
        cdf=lambda x: np.where(x < 0.0, 0.0, -np.expm1(-rate * np.maximum(x, 0.0))),
        quantile=qf,
        pdf=lambda x: np.where(x < 0.0, 0.0, rate * np.exp(-rate * np.maximum(x, 0.0))),
    )


def uniform_reference(a: float, b: float) -> ReferenceDistribution:
    _finite_params(a=a, b=b)
    if not b > a:
        raise DegenerateScale("need a < b")

    def qf(u):
        _unit_open(u, "uniform quantile level", closed_left=True,
                   closed_right=True)
        return a + u * (b - a)

    return ReferenceDistribution(
        "uniform", {"a": a, "b": b},
        cdf=lambda x: np.clip((x - a) / (b - a), 0.0, 1.0),
        quantile=qf,
        pdf=lambda x: np.where((x >= a) & (x <= b), 1.0 / (b - a), 0.0),
    )


def empirical_reference(s: Sample) -> ReferenceDistribution:
    """The sample's own step CDF and left-continuous quantile as G."""
    return ReferenceDistribution("empirical", {"n": s.n}, cdf=s.step_cdf,
                                 quantile=partial(quantile, s))


def fit_reference(kind: str, s: Sample) -> ReferenceDistribution:
    """Moment-fit a named reference family to a sample.

    normal: (mean, sd); exponential: rate 1/mean (data must have positive
    mean); uniform: the observed range; no likelihood is optimized. Other
    kinds raise DomainError (the sample's own is `empirical_reference`).
    """
    if kind == "normal":
        return normal_reference(s.mean, s.sd)
    if kind == "exponential":
        if s.mean <= 0.0:
            raise DomainError("exponential fit needs a positive mean")
        return exponential_reference(1.0 / s.mean)
    if kind == "uniform":
        return uniform_reference(float(s.values[0]), float(s.values[-1]))
    raise DomainError(f"unknown reference kind {kind!r}")


@dataclass(frozen=True)
class CompDensityModel:
    """Fitted comparison density of a sample against a reference G.

    `c` holds the L2 coefficients C_1..C_m, m = `c.size`, and `selected`
    the mask the penalized rule chose. After `maxent_fit`, `theta` (length
    m, zeros on unselected orders) and `theta0` describe the exponential
    model; `maxent_residual` and `maxent_iterations` record the solve.
    """

    g: ReferenceDistribution
    c: np.ndarray
    selected: np.ndarray
    theta: np.ndarray | None = None
    theta0: float | None = None
    maxent_residual: float | None = None
    maxent_iterations: int | None = None


@_scalar_or_array(2)
def comparison_distribution(s: Sample, g: ReferenceDistribution, u):
    """D(u) = F(Q_G(u)), the sample CDF looked at through G's quantile."""
    _unit_open(u, "comparison level")
    return s.step_cdf(g.quantile(u))


def pp_grid(s: Sample, g: ReferenceDistribution):
    """Probability-probability pairs (G(x_j), F(x_j)) at the atoms."""
    return g.cdf(s.values), s.cdf.copy()


def l2_fit(s: Sample, g: ReferenceDistribution, m: int = 4,
           rule: str = "aic") -> CompDensityModel:
    """Project the comparison density on the Legendre basis.

    C_j is the observation mean of Leg_j(G(x)), computed over the atom
    table with masses as weights. Selection reuses the penalized rule
    shared with the comoment machinery.
    """
    m = int(m)
    if m < 1:
        raise DomainError("order must be at least 1")
    u_atoms = np.clip(np.asarray(g.cdf(s.values), dtype=float), 0.0, 1.0)
    table = legendre_eval(range(1, m + 1), u_atoms)
    c = _row_sums(table, s.masses)
    selected = select_significant(c, s.n, rule=rule)
    return CompDensityModel(g=g, c=c, selected=selected)


def maxent_fit(mod: CompDensityModel) -> CompDensityModel:
    """Fit the exponential comparison-density model by moment matching.

    Solves for theta such that the fitted density exp(theta_0 + sum
    theta_j Leg_j) reproduces the selected L2 coefficients:
    integral Leg_j d(u) du = C_j. Newton iteration on the log-partition
    function with 128-node Gauss-Legendre quadrature; steps are halved
    until the dual objective decreases (at most 30 times), to a residual
    below MAXENT_TOL within MAXENT_MAX_ITER steps. theta_0 normalizes the
    density on those nodes; at convergence the same rule on each half of
    [0, 1] integrates it again, and a gap above MAXENT_TOL raises
    `IllConditioned`: the targets then lie at the edge of the moment
    space, where the density spikes between the nodes.
    """
    ks = np.flatnonzero(mod.selected)
    theta_full = np.zeros(mod.c.size)
    if ks.size == 0:
        return replace(mod, theta=theta_full, theta0=0.0,
                       maxent_residual=0.0, maxent_iterations=0)
    targets = mod.c[ks]
    nodes, wts = _gauss01()
    leg = legendre_eval(ks + 1, nodes)

    def dual(theta):
        score = theta @ leg
        peak = score.max()
        psi = math.log(float(wts @ np.exp(score - peak))) + peak
        return psi, psi - float(theta @ targets)

    theta = np.zeros(ks.size)
    psi, objective = dual(theta)
    for iteration in range(1, MAXENT_MAX_ITER + 1):
        probs = wts * np.exp(theta @ leg - psi)
        mom = leg @ probs
        grad = mom - targets
        residual = float(np.max(np.abs(grad)))
        if residual < MAXENT_TOL:
            halves = np.concatenate((nodes, nodes + 1.0)) / 2.0
            with np.errstate(over="ignore"):  # an overflow is a gap too
                mass = float(np.concatenate((wts, wts)) @ np.exp(
                    theta @ legendre_eval(ks + 1, halves) - psi)) / 2
            if abs(mass - 1.0) > MAXENT_TOL:
                raise IllConditioned(
                    f"maxent density integrates to {mass:.10g} on a finer "
                    f"rule, a normalizer gap of {mass - 1.0:.3e}"
                )
            theta_full[ks] = theta
            return replace(mod, theta=theta_full, theta0=-psi,
                           maxent_residual=residual,
                           maxent_iterations=iteration - 1)
        hess = (leg * probs) @ leg.T - np.outer(mom, mom)
        try:
            step = np.linalg.solve(hess, grad)
            if not np.all(np.isfinite(step)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            step = grad  # damped gradient fallback
        scale = 1.0
        for _ in range(30):
            psi_new, objective_new = dual(theta - scale * step)
            if objective_new < objective:
                break
            scale *= 0.5
        else:
            raise IllConditioned(
                "maxent step found no descent after 30 halvings"
            )
        theta = theta - scale * step
        psi, objective = psi_new, objective_new
    probs = wts * np.exp(theta @ leg - psi)
    raise NonConvergence(np.max(np.abs(leg @ probs - targets)), iteration)


def _l2_series(mod: CompDensityModel, u: np.ndarray) -> np.ndarray:
    ks = np.flatnonzero(mod.selected)
    return 1.0 + mod.c[ks] @ legendre_eval(ks + 1, u)


@_scalar_or_array(1)
def eval_density(mod: CompDensityModel, u, flavor: str = "maxent"):
    """Evaluate the fitted comparison density at u in [0, 1].

    Flavors: "l2" is the raw series (can go negative), "l2_clipped"
    floors it at CLIP_FLOOR and renormalizes by quadrature, "maxent" is the
    exponential model and needs `maxent_fit` to have run.
    """
    _unit_open(u, "comparison density level", closed_left=True,
               closed_right=True)
    if flavor == "l2":
        return _l2_series(mod, u)
    if flavor == "l2_clipped":
        nodes, wts = _gauss01()
        norm = float(wts @ np.maximum(_l2_series(mod, nodes), CLIP_FLOOR))
        return np.maximum(_l2_series(mod, u), CLIP_FLOOR) / norm
    if flavor == "maxent":
        if mod.theta is None:
            raise FlavorNotFitted("run maxent_fit first")
        ks = np.flatnonzero(mod.theta)
        return np.exp(mod.theta0
                      + mod.theta[ks] @ legendre_eval(ks + 1, u))
    raise DomainError(f"unknown flavor {flavor!r}")


def _best_flavor(mod: CompDensityModel) -> str:
    return "maxent" if mod.theta is not None else "l2_clipped"


@_scalar_or_array(1)
def skew_g_density(mod: CompDensityModel, x):
    """Skew-G density estimate f(x) = g(x) d(G(x)).

    Uses the maxent flavor when fitted, the clipped series otherwise; the
    reference must have a density.
    """
    gx = np.clip(np.asarray(mod.g.cdf(x), dtype=float), 0.0, 1.0)
    return mod.g.pdf(x) * eval_density(mod, gx, flavor=_best_flavor(mod))


def gof_distance(mod: CompDensityModel) -> float:
    """Integrated squared deviation of the fitted series from uniform.

    By Parseval this is just the squared sum of the selected C_j; zero
    means the reference G fits the sample at the chosen order.
    """
    return float(np.sum(mod.c[mod.selected] ** 2))


def simulate_skew_g(mod: CompDensityModel, count: int, seed) -> np.ndarray:
    """Accept-reject draws from the skew-G model, exact count, seeded.

    Proposals come from G itself; a proposal at probability level u is
    accepted when d(u) exceeds C times an independent uniform, with the
    envelope C taken as the density maximum over a 4096-point grid times
    a 1.001 safety factor. A count that is not a finite, non-negative
    whole number raises DomainError before any draw.
    """
    if not (math.isfinite(count) and count >= 0 and count % 1 == 0):
        raise DomainError(
            f"draw count {count} is not a non-negative whole number")
    count = int(count)
    flavor = _best_flavor(mod)
    grid = (np.arange(4096) + 0.5) / 4096.0
    peak = float(np.max(eval_density(mod, grid, flavor=flavor)))
    if peak > 1e6:
        raise UnboundedDensity(f"envelope {peak:.3e} beyond 1e6")
    envelope = peak * 1.001
    rng = np.random.default_rng(seed)
    keep, kept = [np.empty(0)], 0
    while kept < count:
        u = rng.random(4096)
        v = rng.random(4096)
        ok = (u > 0.0) & (eval_density(mod, u, flavor=flavor) > envelope * v)
        draw = mod.g.quantile(u[ok])
        keep.append(draw)
        kept += draw.size
    return np.concatenate(keep)[:count]
