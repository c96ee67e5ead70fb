"""Comparison-density estimation: references, L2 series, maxent, skew-G."""

import functools
import math
from dataclasses import replace
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose
from scipy.stats import kstest, norm

from lpstats import (
    comparison_distribution,
    empirical_reference,
    eval_density,
    exponential_reference,
    fit_reference,
    gof_distance,
    l2_fit,
    legendre_eval,
    make_sample,
    maxent_fit,
    normal_reference,
    pp_grid,
    simulate_skew_g,
    skew_g_density,
    uniform_reference,
)
from lpstats import cli, compdensity
from lpstats.errors import (
    DomainError,
    FlavorNotFitted,
    IllConditioned,
    NonConvergence,
    UnboundedDensity,
)


@functools.cache
def _gauss(nodes):
    return leggauss(nodes)


def quad01(f, nodes=128):
    x, w = _gauss(nodes)
    u = 0.5 * (x + 1.0)
    return float(np.sum(0.5 * w * f(u)))


class TestReferences:
    def test_normal_matches_scipy(self):
        g = normal_reference(1.5, 2.0)
        x = np.linspace(-5, 8, 27)
        assert_allclose(g.cdf(x), norm.cdf(x, 1.5, 2.0), rtol=1e-12)
        u = np.linspace(0.01, 0.99, 23)
        assert_allclose(g.quantile(u), norm.ppf(u, 1.5, 2.0), rtol=1e-10)
        assert_allclose(g.pdf(x), norm.pdf(x, 1.5, 2.0), rtol=1e-12)

    def test_exponential_closed_forms(self):
        g = exponential_reference(2.0)
        x = np.array([0.0, 0.5, 1.0, 3.0])
        assert_allclose(g.cdf(x), 1.0 - np.exp(-2.0 * x), rtol=1e-14)
        u = np.array([0.1, 0.5, 0.9])
        assert_allclose(g.cdf(g.quantile(u)), u, rtol=1e-14)
        assert g.cdf(-1.0) == 0.0
        assert g.pdf(-1.0) == 0.0

    def test_uniform_round_trip(self):
        g = uniform_reference(-2.0, 3.0)
        u = np.linspace(0.05, 0.95, 19)
        assert_allclose(g.cdf(g.quantile(u)), u, rtol=1e-14)
        assert_allclose(g.pdf(0.0), 0.2)
        assert g.pdf(4.0) == 0.0

    def test_fit_reference_moment_fits(self):
        rng = np.random.default_rng(40)
        x = rng.standard_normal(400) * 3.0 + 5.0
        s = make_sample(x)
        g = fit_reference("normal", s)
        assert_allclose(g.params["mu"], s.mean, rtol=1e-13)
        assert_allclose(g.params["sigma"], s.sd, rtol=1e-13)
        e = fit_reference("exponential", make_sample(rng.exponential(2.0,
                                                                     300)))
        assert e.params["rate"] > 0
        with pytest.raises(DomainError):
            fit_reference("exponential", make_sample([-1.0, -2.0]))
        with pytest.raises(DomainError):
            fit_reference("cauchy", s)

    def test_empirical_reference_steps(self):
        s = make_sample([1.0, 2.0, 2.0, 4.0])
        g = empirical_reference(s)
        assert_allclose(g.cdf([0.5, 1.0, 3.0, 4.0]), [0.0, 0.25, 0.75, 1.0])
        with pytest.raises(DomainError):
            g.pdf(1.0)


class TestComparisonDistribution:
    def test_self_comparison_is_identity_at_atom_levels(self):
        rng = np.random.default_rng(41)
        s = make_sample(rng.standard_normal(60))
        g = empirical_reference(s)
        interior = s.cdf[:-1]
        assert_allclose(comparison_distribution(s, g, interior), interior,
                        rtol=1e-14)

    def test_pp_grid_diagonal_for_self_reference(self):
        s = make_sample([3.0, 1.0, 4.0, 1.0, 5.0])
        gx, fx = pp_grid(s, empirical_reference(s))
        assert_allclose(gx, fx, rtol=1e-15)

    def test_domain(self):
        s = make_sample([1.0, 2.0])
        with pytest.raises(DomainError):
            comparison_distribution(s, uniform_reference(0, 1), 0.0)


class TestL2Fit:
    def test_two_atom_hand_coefficients(self):
        s = make_sample([0.25, 0.75])
        mod = l2_fit(s, uniform_reference(0.0, 1.0), m=2, rule="none")
        # Leg_1 cancels by symmetry; Leg_2(1/4) = Leg_2(3/4) = -sqrt(5)/8
        assert_allclose(mod.c[0], 0.0, atol=1e-15)
        assert_allclose(mod.c[1], -math.sqrt(5.0) / 8.0, rtol=1e-13)

    def test_uniform_data_fits_uniform_reference(self):
        rng = np.random.default_rng(42)
        s = make_sample(rng.random(3000))
        mod = l2_fit(s, uniform_reference(0.0, 1.0))
        assert not mod.selected.any()
        assert gof_distance(mod) == 0.0

    def test_beta_population_coefficient(self):
        # E[Leg_2(U)] under the 6u(1-u) density is -sqrt(5)/5
        rng = np.random.default_rng(43)
        s = make_sample(rng.beta(2.0, 2.0, size=5000))
        mod = l2_fit(s, uniform_reference(0.0, 1.0))
        assert_allclose(mod.c[1], -math.sqrt(5.0) / 5.0, atol=0.05)
        assert mod.selected[1]

    def test_order_cap(self):
        # no cap of its own: the order is the caller's (the CLI's --order)
        s = make_sample(np.arange(30.0))
        mod = l2_fit(s, uniform_reference(0.0, 30.0), m=20)
        assert mod.c.shape == mod.selected.shape == (20,)

    @pytest.mark.parametrize("m", [1, 4, 20, 50])
    def test_one_legendre_table_per_fit(self, m, monkeypatch):
        spy = mock.Mock(wraps=compdensity.legendre_eval)
        monkeypatch.setattr(compdensity, "legendre_eval", spy)
        s = make_sample(np.arange(60.0) % 7)
        l2_fit(s, normal_reference(3.0, 2.0), m=m)
        assert spy.call_count == 1

    def test_parseval_ties_gof_to_quadrature(self):
        rng = np.random.default_rng(44)
        s = make_sample(rng.beta(2.0, 5.0, size=800))
        mod = l2_fit(s, uniform_reference(0.0, 1.0))
        integral = quad01(lambda u: (eval_density(mod, u, "l2") - 1.0) ** 2)
        assert_allclose(gof_distance(mod), integral, rtol=1e-12, atol=1e-13)


class TestMaxent:
    def fit_beta(self, n=2000, seed=45, rule="aic"):
        rng = np.random.default_rng(seed)
        s = make_sample(rng.beta(2.0, 2.0, size=n))
        return maxent_fit(l2_fit(s, uniform_reference(0.0, 1.0), rule=rule))

    def test_moment_round_trip(self):
        mod = self.fit_beta()
        ks = np.flatnonzero(mod.selected)
        x, w = leggauss(128)
        u = 0.5 * (x + 1.0)
        w = 0.5 * w
        dens = eval_density(mod, u, "maxent")
        for k in ks:
            moment = float(np.sum(w * legendre_eval(k + 1, u) * dens))
            assert_allclose(moment, mod.c[k], atol=1e-6)

    def test_empty_selection_gives_flat_density(self):
        rng = np.random.default_rng(46)
        s = make_sample(rng.random(2000))
        base = l2_fit(s, uniform_reference(0.0, 1.0))
        base = replace(base, selected=np.zeros_like(base.selected))
        mod = maxent_fit(base)
        assert mod.maxent_iterations == 0
        assert_allclose(mod.theta, np.zeros(base.c.size), rtol=0)
        assert_allclose(eval_density(mod, [0.2, 0.8], "maxent"), 1.0)
        for flavor in ("l2", "l2_clipped"):
            assert_allclose(eval_density(base, [0.2, 0.8], flavor), 1.0,
                            rtol=0)

    def test_term_cap(self):
        # no cap on the number of terms: all 8 are fitted
        rng = np.random.default_rng(47)
        s = make_sample(rng.beta(0.5, 3.0, size=400))
        mod = maxent_fit(l2_fit(s, uniform_reference(0.0, 1.0), m=8,
                                rule="none"))
        assert mod.selected.all()
        assert mod.maxent_iterations == 11
        assert_allclose(quad01(lambda u: eval_density(mod, u, "maxent"),
                               1024), 1.0, rtol=0, atol=1e-8)

    def test_nonconvergence_reports_residual(self, monkeypatch):
        rng = np.random.default_rng(48)
        s = make_sample(rng.beta(2.0, 6.0, size=1500))
        mod = l2_fit(s, uniform_reference(0.0, 1.0))
        monkeypatch.setattr(compdensity, "MAXENT_MAX_ITER", 1)
        with pytest.raises(NonConvergence) as exc:
            maxent_fit(mod)
        assert "1" in str(exc.value)

    @pytest.mark.parametrize("failure", ["raises", "returns_nan"])
    def test_a_singular_newton_system_takes_a_gradient_step(self, failure,
                                                             monkeypatch):
        # the first Newton solve fails, by raising or by a non-finite
        # step; that step descends along the gradient, and the fit
        # converges to the same theta
        rng = np.random.default_rng(0)
        s = make_sample(rng.standard_normal(500))
        base = l2_fit(s, fit_reference("normal", s), 4, rule="none")
        want = maxent_fit(base)
        solve, calls = np.linalg.solve, []

        def fails_once(a, b):
            calls.append(len(calls))
            if len(calls) > 1:
                return solve(a, b)
            if failure == "raises":
                raise np.linalg.LinAlgError("singular matrix")
            return np.full_like(b, np.nan)

        monkeypatch.setattr(np.linalg, "solve", fails_once)
        got = maxent_fit(base)
        assert calls == [0, 1, 2]
        assert got.maxent_iterations == want.maxent_iterations == 3
        assert_allclose(got.theta, want.theta, rtol=0, atol=1e-7)

    def test_solution_is_deterministic(self):
        m1 = self.fit_beta(seed=49)
        m2 = self.fit_beta(seed=49)
        assert_allclose(m1.theta, m2.theta, rtol=0)
        assert m1.maxent_iterations == m2.maxent_iterations


def _tied_fit(counts, kind, order, rule):
    s = make_sample(1.0 + np.repeat(np.arange(len(counts)), counts))
    return l2_fit(s, fit_reference(kind, s), order, rule=rule)


@st.composite
def tied_fits(draw, max_order=20):
    """An L2 comparison-density fit to a sample on a small integer grid."""
    return _tied_fit(
        draw(st.lists(st.integers(1, 40), min_size=2, max_size=12)),
        draw(st.sampled_from(["normal", "exponential", "uniform"])),
        draw(st.integers(1, max_order)),
        draw(st.sampled_from(["aic", "none"])))


# eight 1s and two 2s: Newton converges on the 128 nodes with |theta| near
# 200, but the density integrates to 0.99887, so maxent_fit must refuse it
SPIKY_FIT = _tied_fit([8, 2], "normal", 6, "aic")


class TestNormalization:
    """The l2_clipped and maxent flavors integrate to 1, checked with 1024
    Gauss nodes against the 128 the library normalizes with."""

    @settings(deadline=None, max_examples=300)
    @given(tied_fits(max_order=8), tied_fits())
    @example(SPIKY_FIT, SPIKY_FIT)
    def test_l2_clipped_and_maxent_integrate_to_one(self, low, mod):
        # The clipped series has kinks where it meets the floor, which the
        # library's rule does not resolve: over 41000 random fits drawn
        # at orders 1-8, the integral was off by at most 1.13e-3. The bound
        # is 2e-3; at order 20 the error reaches 7e-3.
        clipped = quad01(lambda u: eval_density(low, u, "l2_clipped"), 1024)
        assert abs(clipped - 1.0) <= 2e-3
        # a fit is refused unless the library's rule on each half of [0, 1]
        # integrates it to 1 within tol; the 1024-node rule must agree
        try:
            mod = maxent_fit(mod)
        except (NonConvergence, IllConditioned):
            return
        gap = abs(quad01(lambda u: eval_density(mod, u, "maxent"), 1024) - 1)
        assert gap <= 1e-8
        # exp(polynomial) is smooth: at orders 1-8 and |theta| <= 10 the 128
        # nodes alone integrate it to within 4.2e-11 (worst of 15000 draws)
        if mod.c.size <= 8 and np.max(np.abs(mod.theta)) <= 10.0:
            assert gap <= 1e-9


class TestEvalDensity:
    def test_clipped_flavor_is_positive_and_normalized(self):
        rng = np.random.default_rng(50)
        s = make_sample(rng.beta(0.4, 0.4, size=1200))
        mod = l2_fit(s, uniform_reference(0.0, 1.0))
        u = np.linspace(0.0, 1.0, 401)
        raw = eval_density(mod, u, "l2")
        clipped = eval_density(mod, u, "l2_clipped")
        assert np.all(clipped > 0.0)
        assert_allclose(quad01(lambda v: eval_density(mod, v, "l2_clipped")),
                        1.0, atol=1e-10)
        # where the raw series is comfortably positive the two agree up
        # to the renormalizing constant
        pos = raw > 0.01
        ratio = clipped[pos] / raw[pos]
        assert np.ptp(ratio) < 1e-12

    def test_maxent_requires_fit(self):
        s = make_sample(np.arange(20.0))
        mod = l2_fit(s, uniform_reference(0.0, 20.0))
        with pytest.raises(FlavorNotFitted):
            eval_density(mod, 0.5, "maxent")

    def test_bad_flavor_and_domain(self):
        s = make_sample(np.arange(20.0))
        mod = l2_fit(s, uniform_reference(0.0, 20.0))
        with pytest.raises(DomainError):
            eval_density(mod, 0.5, "spline")
        with pytest.raises(DomainError):
            eval_density(mod, 1.2, "l2")


def decimal_legendre(u, max_order):
    """Leg_1..Leg_max_order at each of u, in the current decimal context.

    Leg_j(u) = sqrt(2j + 1) P_j(2u - 1), P_j by the classical three-term
    recurrence (j + 1) P_{j+1}(t) = (2j + 1) t P_j(t) - j P_{j-1}(t). u is
    a list of Decimals; returns one row of Decimals per order.
    """
    t = [2 * ui - 1 for ui in u]
    prev, cur = [Decimal(1)] * len(t), t
    rows = []
    for j in range(1, max_order + 1):
        rows.append([Decimal(2 * j + 1).sqrt() * c for c in cur])
        prev, cur = cur, [((2 * j + 1) * ti * c - j * q) / (j + 1)
                          for ti, c, q in zip(t, cur, prev)]
    return rows


def exact_uniform_fit(values, counts, m, selected, levels, digits=60):
    """What `fit --g uniform` prints of its L2 part, in `digits`-digit
    decimals.

    `values` are the atoms, ascending, each read exactly, and `counts`
    their integer counts. G(x) = (x - min) / (max - min) at each atom,
    c_j = sum_a p_a Leg_j(G(x_a)) over the exact masses p_a, the gof
    distance the sum of c_j^2 over `selected`, and the l2 density at each
    level u 1 + sum_j c_j Leg_j(u) over `selected`. Returns floats.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        x = [Decimal(float(v)) for v in values]
        n = sum(int(k) for k in counts)
        p = [Decimal(int(k)) / n for k in counts]
        g = [(v - x[0]) / (x[-1] - x[0]) for v in x]
        c = [sum(pa * t for pa, t in zip(p, row))
             for row in decimal_legendre(g, m)]
        on = [j for j in range(m) if selected[j]]
        legs = decimal_legendre([Decimal(float(u)) for u in levels], m)
        return {"c": [float(cj) for cj in c],
                "gof": float(sum(c[j] * c[j] for j in on)),
                "density": [float(1 + sum(c[j] * legs[j][i] for j in on))
                            for i in range(len(levels))]}


@st.composite
def small_tied_columns(draw):
    """Atoms of an integer or cent grid, 2 to 12, each holding 1 to 25
    rows (n <= 300), and a seed for the row order."""
    r = draw(st.integers(2, 12))
    atoms = draw(st.lists(st.integers(-10 ** 5, 10 ** 5), min_size=r,
                          max_size=r, unique=True))
    values = np.sort(atoms) / draw(st.sampled_from([1, 100]))
    counts = np.array(draw(st.lists(st.integers(1, 25), min_size=r,
                                    max_size=r)))
    return values, counts, draw(st.integers(0, 2 ** 32 - 1))


class TestExactUniformFit:
    """What `fit --g uniform` prints of its L2 part against
    `exact_uniform_fit`.

    Each bound is in units of a scale. For c_j it is
    sqrt(2j + 1) (1 + j (j + 1)): |Leg_j| is at most sqrt(2j + 1) and its
    slope sqrt(2j + 1) j (j + 1), which carries the rounding of G(x). For
    the gof distance it is the sum of |c_j| times that over the selected
    orders, and for the density at u 1 plus the sum of that times
    |Leg_j(u)|. Over 40000 numpy tables (r <= 12; counts of 1 to 25, one
    heavy atom, two heavy ends, or atoms bunched at one end; m <= 12) and
    20000 examples of this strategy, the largest gaps were 2.1e-16 of the
    scale for c_j, 3.5e-16 for the gof distance and 7.6e-16 for the
    density, all on the numpy tables (1.3e-16, 2.4e-16 and 5.5e-16 on this
    strategy's); each bound is about four times that.
    """

    @settings(deadline=None, max_examples=100)
    @given(small_tied_columns(), st.integers(1, 12),
           st.sampled_from(["aic", "bic", "none"]), st.integers(1, 101))
    def test_the_l2_part_is_near_the_exact_values(self, column, m, rule,
                                                  g):
        values, counts, seed = column
        col = np.random.default_rng(seed).permutation(
            np.repeat(values, counts))
        # as `fit` builds them, at a --grid of g
        s = make_sample(col)
        mod = l2_fit(s, fit_reference("uniform", s), m, rule=rule)
        grid = cli._grid_u(g)
        exact = exact_uniform_fit(values, counts, m, mod.selected, grid)
        j = np.arange(1, m + 1)
        scale = np.sqrt(2.0 * j + 1.0) * (1.0 + j * (j + 1.0))
        assert np.all(np.abs(mod.c - exact["c"]) <= 1e-15 * scale)
        on = mod.selected
        assert abs(gof_distance(mod) - exact["gof"]) <= (
            1.5e-15 * np.sum(np.abs(exact["c"])[on] * scale[on]))
        gap = np.abs(eval_density(mod, grid, "l2") - exact["density"])
        assert np.all(gap <= 3e-15 * (
            1.0 + scale[on] @ np.abs(legendre_eval(j[on], grid))))


class TestSkewG:
    def test_reduces_to_reference_when_flat(self):
        rng = np.random.default_rng(51)
        g = normal_reference(0.0, 1.0)
        s = make_sample(rng.standard_normal(3000))
        mod = l2_fit(s, g)
        if mod.selected.any():  # tiny residual terms may survive
            mod = replace(mod, selected=np.zeros_like(mod.selected))
        x = np.linspace(-3, 3, 25)
        assert_allclose(skew_g_density(mod, x), g.pdf(x), rtol=1e-12)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(52)
        g = normal_reference(0.0, 1.0)
        s = make_sample(rng.standard_normal(400) ** 3)  # heavy tails
        mod = maxent_fit(l2_fit(s, fit_reference("normal", s)))
        x = np.linspace(-60.0, 60.0, 20001)
        total = np.trapezoid(skew_g_density(mod, x), x)
        assert_allclose(total, 1.0, atol=1e-4)


class TestSimulate:
    def test_flat_density_reproduces_reference(self):
        rng = np.random.default_rng(53)
        g = normal_reference(1.0, 2.0)
        s = make_sample(rng.normal(1.0, 2.0, 3000))
        mod = l2_fit(s, g)
        mod = replace(mod, selected=np.zeros_like(mod.selected))
        draws = simulate_skew_g(mod, 10000, seed=7)
        assert draws.size == 10000
        assert kstest(draws, lambda x: g.cdf(x)).pvalue > 0.01

    def test_seed_determinism(self):
        rng = np.random.default_rng(54)
        g = uniform_reference(0.0, 1.0)
        s = make_sample(rng.beta(2.0, 2.0, 1000))
        mod = l2_fit(s, g)
        a = simulate_skew_g(mod, 500, seed=11)
        b = simulate_skew_g(mod, 500, seed=11)
        c = simulate_skew_g(mod, 500, seed=12)
        assert_allclose(a, b, rtol=0)
        assert not np.array_equal(a, c)

    def test_unbounded_envelope_rejected(self):
        # a near-degenerate exponential fit can spike beyond any usable
        # accept-reject envelope; the guard must refuse to sample
        rng = np.random.default_rng(55)
        s = make_sample(rng.random(100))
        mod = l2_fit(s, uniform_reference(0.0, 1.0), rule="none")
        blown = replace(mod, theta=np.array([0.0, 0.0, 0.0, 50.0]),
                        theta0=0.0)
        with pytest.raises(UnboundedDensity):
            simulate_skew_g(blown, 10, seed=0)
