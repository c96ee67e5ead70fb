"""Copula density series, conditional slices, curves and regression."""

import tracemalloc
from dataclasses import replace
from decimal import Decimal, localcontext
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebroots, poly2cheb
from numpy.testing import assert_allclose, assert_array_equal

from lpstats import (
    build_score_basis,
    conditional_density,
    conditional_mean,
    conditional_quantile,
    conditional_slice,
    correlations,
    eval_copula,
    fit_copula,
    fit_reference,
    l2_fit,
    lp_comoments,
    make_sample,
    quantile_curves,
    series_regression,
    simulate_skew_g,
    slice_modes,
    two_sample_comp_density,
)
from lpstats import cli
from lpstats import copula as cpmod
from lpstats.copula import _slice_levels
from lpstats.compdensity import CLIP_FLOOR
from lpstats.errors import DomainError
from lpstats.scores import MAX_ORDER, ScoreBasis

from conftest import decimal_scores, random_sample_values, search_only


def atom_levels(s):
    """One probability level inside each atom's cdf interval."""
    return s.fmid


def exact_double_integral(mod):
    """Step integral of the raw series over the unit square."""
    ux = atom_levels(mod.bx.source)
    vy = atom_levels(mod.by.source)
    grid = eval_copula(mod, ux[:, None], vy[None, :])
    return float(mod.bx.source.masses @ grid @ mod.by.source.masses)


def joint_ratio_table(x, y):
    """Empirical cop(u, v) at the atoms: joint mass over product mass."""
    sx, sy = make_sample(x), make_sample(y)
    joint = np.zeros((sx.r, sy.r))
    for xi, yi in zip(x, y):
        i = np.searchsorted(sx.values, xi)
        j = np.searchsorted(sy.values, yi)
        joint[i, j] += 1.0 / len(x)
    return joint / np.outer(sx.masses, sy.masses), sx, sy


class TestEvalCopula:
    def test_matches_manual_series_at_a_point(self):
        rng = np.random.default_rng(60)
        x = rng.standard_normal(80)
        y = x + rng.standard_normal(80)
        mod = fit_copula(x, y)
        u, v = 0.3, 0.7
        iu = np.searchsorted(mod.bx.source.cdf, u, side="left")
        iv = np.searchsorted(mod.by.source.cdf, v, side="left")
        manual = 1.0 + mod.bx.table[:, iu] @ mod.coefficients \
            @ mod.by.table[:, iv]
        assert_allclose(eval_copula(mod, u, v), manual, rtol=1e-13)

    def test_unselected_cells_do_not_contribute(self):
        rng = np.random.default_rng(61)
        x = rng.standard_normal(120)
        y = 0.8 * x + rng.standard_normal(120)
        mod = fit_copula(x, y)
        coef = mod.coefficients
        assert_allclose(coef[~mod.lpm.selected], 0.0, rtol=0)
        assert_allclose(coef[mod.lpm.selected],
                        mod.lpm.entries[mod.lpm.selected], rtol=0)

    def test_double_integral_is_exactly_one(self):
        rng = np.random.default_rng(62)
        for _ in range(5):
            x = random_sample_values(rng, 150, tied=bool(rng.integers(2)))
            y = random_sample_values(rng, 150, tied=bool(rng.integers(2)))
            mod = fit_copula(x, y)
            assert_allclose(exact_double_integral(mod), 1.0, atol=1e-12)

    def test_diagonal_concentration_for_identical_margins(self):
        x = np.arange(1.0, 61.0)
        mod = fit_copula(x, x)
        for u in (0.1, 0.3):
            assert eval_copula(mod, u, u) > eval_copula(mod, u, 1.0 - u)

    def test_clipped_floor(self):
        # the raw series dips below the floor on the diagonal of a
        # decreasing pair; a slice floors it there before it normalizes
        x = np.arange(1.0, 61.0)
        mod = fit_copula(x, -x)
        u = np.linspace(0.05, 0.95, 20)
        assert eval_copula(mod, u, u).min() < CLIP_FLOOR
        for level in u:
            sl = conditional_slice(mod, level)
            assert_array_equal(sl.density,
                               np.maximum(sl.raw, CLIP_FLOOR) / sl.mass)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(60, 160), st.integers(1, MAX_ORDER),
           st.integers(0, 300), st.integers(1, 40),
           st.integers(0, 2 ** 32 - 1))
    def test_blocks_of_points_give_the_whole_call_bytes(self, n, order,
                                                        points, block,
                                                        seed):
        # each point is summed on its own, so no block size moves a bit
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        mod = fit_copula(x, x + rng.standard_normal(n), order=order,
                         rule="none")
        u, v = rng.random((2, points))
        whole = eval_copula(mod, u, v)
        with mock.patch.object(cpmod, "_EVAL_BLOCK", block):
            assert eval_copula(mod, u, v).tobytes() == whole.tobytes()

    def test_a_fine_grid_is_evaluated_in_bounded_memory(self, age, gag):
        # `depend --order 50 --grid 300` on the bundled table: the 90 000
        # points gathered at once, an (m, N) score table per margin, took
        # 69.5 MiB; blocks of `_EVAL_BLOCK` points keep it below 20 MiB
        mod = fit_copula(age, gag, order=50)
        assert mod.bx.max_order == mod.by.max_order == 50
        grid = (np.arange(300) + 0.5) / 300
        uu, vv = (g.ravel() for g in np.meshgrid(grid, grid, indexing="ij"))
        eval_copula(mod, uu[:10], vv[:10])  # lazy set-up is not the call's
        tracemalloc.start()
        try:
            eval_copula(mod, uu, vv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20

    def test_domain(self):
        mod = fit_copula(np.arange(10.0), np.arange(10.0))
        with pytest.raises(DomainError):
            eval_copula(mod, 0.0, 0.5)
        with pytest.raises(DomainError):
            eval_copula(mod, 0.5, 1.0)


class TestBayesFactorization:
    def test_discrete_table_recovers_joint_over_product(self):
        # on a finite table the full-order series is a complete basis, so
        # the fitted copula at the atoms IS the joint/product ratio
        x = np.array([0., 0., 0., 0., 1., 1., 1., 1., 1., 1.])
        y = np.array([0., 1., 2., 2., 0., 0., 1., 1., 2., 2.])
        ratio, sx, sy = joint_ratio_table(x, y)
        mod = fit_copula(x, y, order=4, rule="none")
        grid = eval_copula(mod, atom_levels(sx)[:, None],
                           atom_levels(sy)[None, :])
        assert_allclose(grid, ratio, atol=1e-12)

    @settings(deadline=None, max_examples=200)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 24), st.integers(2, 24),
           st.integers(2, 600))
    def test_full_order_lpinfor_is_pearson_phi_squared(self, seed, rx, ry,
                                                       n):
        # at order r - 1 on both margins the squared comoments sum to
        # phi^2 = sum p_jk^2 / (p_j p_k) - 1. Margins are drawn with
        # Dirichlet weights (concentration 0.05..2), so some atoms carry
        # most of the mass; y copies x mod ry on a random share of rows.
        # Over 40000 such tables the largest gap was 1.5e-14 (1 + phi^2).
        rng = np.random.default_rng(seed)

        def column(r):
            w = rng.dirichlet(np.full(r, rng.uniform(0.05, 2.0)))
            return rng.choice(r, n, p=w)

        x = column(rx)
        y = np.where(rng.random(n) < rng.random(), x % ry, column(ry))
        assume(np.unique(x).size > 1 and np.unique(y).size > 1)
        mod = fit_copula(x.astype(float), y.astype(float), order=MAX_ORDER,
                         rule="none")
        sx, sy = mod.bx.source, mod.by.source
        assert mod.bx.max_order == sx.r - 1
        assert mod.by.max_order == sy.r - 1
        joint = np.zeros((sx.r, sy.r))
        np.add.at(joint, (sx.atom_index, sy.atom_index), 1.0 / n)
        phi2 = np.sum(joint ** 2 / np.outer(sx.masses, sy.masses)) - 1
        assert abs(mod.lpm.lpinfor - phi2) <= 1e-13 * (1.0 + phi2)

    def test_slice_matches_conditional_pmf(self):
        x = np.array([0., 0., 0., 1., 1., 1., 1.])
        y = np.array([2., 2., 5., 5., 5., 9., 9.])
        ratio, sx, sy = joint_ratio_table(x, y)
        mod = fit_copula(x, y, rule="none")
        sl = conditional_slice(mod, float(sx.fmid[0]))
        cond_pmf = ratio[0] * sy.masses  # P(Y = y_j | X = x_0)
        # the raw series carries the exact identity; the normalized
        # density differs only by the 1e-6 clip floor at the zero cell
        assert_allclose(sl.raw * sy.masses, cond_pmf, atol=1e-12)
        assert_allclose(sl.density * sy.masses, cond_pmf, atol=1e-5)


class TestConditionalSlice:
    def test_normalizes_exactly(self):
        rng = np.random.default_rng(63)
        x = rng.standard_normal(200)
        y = x ** 2 + 0.3 * rng.standard_normal(200)
        mod = fit_copula(x, y)
        for u in (0.05, 0.3, 0.5, 0.7, 0.95):
            sl = conditional_slice(mod, u)
            assert_allclose(mod.by.source.masses @ sl.density, 1.0, rtol=1e-13)
            assert np.all(sl.density > 0.0)

    def test_density_lookup_matches_slice(self):
        rng = np.random.default_rng(65)
        x = rng.standard_normal(90)
        y = x + rng.standard_normal(90)
        mod = fit_copula(x, y)
        sl = conditional_slice(mod, 0.4)
        v = atom_levels(mod.by.source)
        assert_allclose(conditional_density(mod, 0.4, v), sl.density)

    def test_domain(self):
        mod = fit_copula(np.arange(12.0), np.arange(12.0))
        with pytest.raises(DomainError):
            conditional_slice(mod, 0.0)
        with pytest.raises(DomainError):
            conditional_slice(mod, 1.0)


class TestConditionalMean:
    def test_equals_step_sum(self):
        rng = np.random.default_rng(66)
        x = rng.standard_normal(150)
        y = 2.0 * x + rng.standard_normal(150)
        mod = fit_copula(x, y)
        sl, sy = conditional_slice(mod, 0.25), mod.by.source
        manual = float((sy.masses * sl.density) @ sy.values)
        assert_allclose(conditional_mean(mod, 0.25), manual, rtol=0)

    def test_tracks_monotone_dependence(self):
        rng = np.random.default_rng(67)
        x = rng.standard_normal(400)
        y = x + 0.2 * rng.standard_normal(400)
        mod = fit_copula(x, y)
        means = [conditional_mean(mod, u) for u in (0.1, 0.5, 0.9)]
        assert means[0] < means[1] < means[2]

    def test_independence_flattens_the_curve(self):
        rng = np.random.default_rng(68)
        x = rng.standard_normal(2000)
        y = rng.standard_normal(2000)
        mod = fit_copula(x, y)
        means = [conditional_mean(mod, u) for u in (0.2, 0.5, 0.8)]
        assert np.ptp(means) < 0.25 * mod.by.source.sd


class TestConditionalQuantile:
    def test_strictly_ordered_in_p(self):
        rng = np.random.default_rng(69)
        x = rng.standard_normal(250)
        y = x + rng.standard_normal(250)
        mod = fit_copula(x, y)
        ps = [0.05, 0.25, 0.5, 0.75, 0.95]
        for u in (0.1, 0.5, 0.9):
            qs = [conditional_quantile(mod, u, p) for p in ps]
            assert np.all(np.diff(qs) > 0)

    def test_median_of_symmetric_slice(self):
        x = np.arange(1.0, 201.0)
        rng = np.random.default_rng(70)
        y = rng.permutation(200).astype(float)  # independent-ish ranks
        mod = fit_copula(x, y)
        q = conditional_quantile(mod, 0.5, 0.5)
        # for a near-flat slice the conditional median sits near the
        # marginal mid-quantile median
        from lpstats import mid_quantile
        assert abs(q - mid_quantile(mod.by.source, 0.5)) < 20.0

    def test_quantile_curves_agree_with_pointwise(self):
        # the curves come from prefix sums of the score table, the pointwise
        # values from one dense slice each: they agree to round-off
        rng = np.random.default_rng(71)
        x = rng.standard_normal(120)
        y = 0.5 * x + rng.standard_normal(120)
        mod = fit_copula(x, y)
        us = np.array([0.2, 0.5, 0.8])
        ps = [0.25, 0.5, 0.75]
        means, table = quantile_curves(mod, us, ps)
        for i, u in enumerate(us):
            assert_allclose(means[i], conditional_mean(mod, float(u)),
                            rtol=0, atol=1e-12)
            for j, p in enumerate(ps):
                assert_allclose(table[i, j],
                                conditional_quantile(mod, float(u), p),
                                rtol=0, atol=1e-12)

    def test_domain(self):
        mod = fit_copula(np.arange(15.0), np.arange(15.0))
        with pytest.raises(DomainError):
            conditional_quantile(mod, 0.5, 0.0)

    def test_an_array_of_p_gives_the_bytes_of_scalar_calls(self):
        mod = fit_copula(np.arange(50.0), np.arange(50.0) ** 2)
        ps = np.random.default_rng(1).random(200)
        draws = conditional_quantile(mod, 0.6, ps)
        assert draws.shape == ps.shape
        assert draws.tobytes() == np.array(
            [conditional_quantile(mod, 0.6, p) for p in ps]).tobytes()

    def test_seeded_draws_live_on_y_support(self):
        rng = np.random.default_rng(73)
        x = random_sample_values(rng, 80)
        y = random_sample_values(rng, 80)
        mod = fit_copula(x, y)
        draws = conditional_quantile(mod, 0.3,
                                     np.random.default_rng(5).random(300))
        assert draws.size == 300
        lo, hi = mod.by.source.values[0], mod.by.source.values[-1]
        assert np.all((draws >= lo) & (draws <= hi))

    def test_seeded_draw_frequencies_match_the_slice_masses(self):
        # Inverse-CDF draws: the mid-quantile maps each atom's level
        # interval (cdf_j - mass_j, cdf_j] onto the values up to its upper
        # edge Qmid(cdf_j), so counting draws between edges counts the
        # levels drawn per atom. Each atom's frequency lies within 5
        # binomial standard errors of its slice mass.
        rng = np.random.default_rng(75)
        x = rng.integers(0, 8, 400).astype(float)
        y = x + rng.integers(0, 4, 400)
        mod = fit_copula(x, y)
        count = 40_000
        for u in (0.1, 0.5, 0.9):
            mass = mod.by.source.masses * conditional_slice(mod, u).density
            draws = conditional_quantile(
                mod, u, np.random.default_rng(8).random(count))
            edges = cpmod.mid_quantile(mod.by.source, mod.by.source.cdf[:-1])
            freq = np.bincount(np.searchsorted(edges, draws, side="left"),
                               minlength=mod.by.source.r) / count
            se = np.sqrt(mass * (1.0 - mass) / count)
            assert np.all(np.abs(freq - mass) <= 5.0 * se), (u, freq, mass)


@st.composite
def tied_models(draw, max_order=4):
    """Copula fits of pairs on small integer grids (heavy ties).

    y = slope * x + noise with slope -1, 0 or 1, so slices come steep,
    clipped to the floor over runs of atoms, or flat.
    """
    n = draw(st.integers(6, 60))
    x = np.array(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)),
                 dtype=float)
    noise = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    y = draw(st.sampled_from([-1.0, 0.0, 1.0])) * x + np.array(noise)
    assume(np.unique(x).size > 1 and np.unique(y).size > 1)
    return fit_copula(x, y, order=draw(st.integers(1, max_order)),
                      rule=draw(st.sampled_from(["aic", "none"])))


open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


class TestCopulaIdentities:
    """The raw series integrates to one along each margin, slice by slice."""

    @settings(deadline=None)
    @given(tied_models(max_order=8))
    def test_every_slice_sums_to_one_over_the_other_margin(self, mod):
        grid = eval_copula(mod, atom_levels(mod.bx.source)[:, None],
                           atom_levels(mod.by.source)[None, :])
        assert_allclose(grid @ mod.by.source.masses, 1.0, rtol=0, atol=1e-12)
        assert_allclose(mod.bx.source.masses @ grid, 1.0, rtol=0, atol=1e-12)


def slice_cdf(sy, density, v):
    """Integral of a normalized slice over (0, v], piece by piece."""
    left = np.concatenate(([0.0], sy.cdf[:-1]))
    pieces = np.minimum(np.maximum(v - left, 0.0), sy.masses)
    return float(pieces @ density)


def bisect_level(sy, density, p, tol=1e-13):
    """The smallest v with slice_cdf(v) >= p, by bisection."""
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if slice_cdf(sy, density, mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestExactSliceInversion:
    """The piecewise-linear slice CDF inverse over random tied data."""

    @settings(deadline=None)
    @given(tied_models(), st.lists(open_unit, min_size=1, max_size=8))
    def test_slice_cdf_at_level_is_p(self, mod, ps):
        ps = np.array(ps)
        for u in mod.bx.source.fmid:
            sl = conditional_slice(mod, u)
            levels = _slice_levels(mod.by.source, sl, ps)
            assert np.all((levels > 0.0) & (levels < 1.0))
            got = [slice_cdf(mod.by.source, sl.density, v) for v in levels]
            assert_allclose(got, ps, rtol=0, atol=1e-12)

    @settings(deadline=None)
    @given(tied_models(), open_unit, st.lists(open_unit, min_size=1,
                                              max_size=4))
    def test_level_matches_bisection(self, mod, u, ps):
        # Within 1e-10 in v, except on cells clipped to the 1e-6 floor: there
        # the CDF is so flat that a round-off of ~1e-16 in it moves v by
        # ~1e-10, for the bisection as much as for the exact inverse, so
        # agreement is checked on the CDF scale instead.
        sl, sy = conditional_slice(mod, u), mod.by.source
        levels = _slice_levels(sy, sl, np.array(ps))
        ref = np.array([bisect_level(sy, sl.density, p) for p in ps])
        gap = np.abs(levels - ref)
        dens = sl.density[sy.atom_at_level(levels)]
        assert np.all((gap <= 1e-10) | (gap * dens <= 1e-14))

    @settings(deadline=None)
    @given(tied_models(), st.lists(open_unit, min_size=2, max_size=8))
    def test_quantiles_nondecreasing_in_p(self, mod, ps):
        _, table = quantile_curves(mod, mod.bx.source.fmid, sorted(ps))
        assert np.all(np.diff(table, axis=1) >= 0.0)

    @settings(deadline=None)
    @given(tied_models())
    def test_slices_integrate_to_one(self, mod):
        for u in mod.bx.source.fmid:
            sl = conditional_slice(mod, u)
            assert abs(mod.by.source.masses @ sl.density - 1.0) <= 1e-12

    def test_levels_near_the_ends_stay_inside_the_support(self):
        x = np.arange(1.0, 41.0)
        mod = fit_copula(x, x ** 2)
        ps = [5e-324, np.nextafter(1.0, 0.0)]
        _, table = quantile_curves(mod, mod.bx.source.fmid, ps)
        assert np.all(table[:, 0] == mod.by.source.values[0])
        assert np.all(table[:, 1] == mod.by.source.values[-1])

    def test_curves_map_all_levels_in_one_call(self, monkeypatch):
        calls = []
        real = cpmod.mid_quantile

        def counting(s, u):
            calls.append(u)
            return real(s, u)

        monkeypatch.setattr(cpmod, "mid_quantile", counting)
        mod = fit_copula(np.arange(30.0), np.arange(30.0) % 7)
        quantile_curves(mod, mod.bx.source.fmid, [0.1, 0.5, 0.9])
        assert len(calls) == 1

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5, float("nan")])
    def test_curves_reject_probabilities_outside_open_unit(self, p):
        mod = fit_copula(np.arange(15.0), np.arange(15.0))
        with pytest.raises(DomainError, match="quantile probability"):
            quantile_curves(mod, [0.5], [0.25, p])

    def test_curves_reject_a_bad_level_before_any_slice(self, monkeypatch):
        mod = fit_copula(np.arange(15.0), np.arange(15.0))
        monkeypatch.setattr(cpmod, "conditional_slice", None)
        with pytest.raises(DomainError, match="conditioning level"):
            quantile_curves(mod, [0.5, 1.0], [0.5])

    def test_curves_ravel_the_levels_as_the_probabilities(self):
        # a scalar level is one row, and a (1, k) grid gives the k rows
        # of the 1-D call, bit for bit
        mod = fit_copula(np.arange(30.0), np.arange(30.0) % 7)
        ps = [0.1, 0.5, 0.9]
        fmid = mod.bx.source.fmid
        for us, want_us in ((0.5, [0.5]), (fmid[None, :], fmid)):
            got = quantile_curves(mod, us, ps)
            want = quantile_curves(mod, want_us, ps)
            assert got[1].shape == (len(got[0]), len(ps))
            for g, w in zip(got, want):
                assert (g.shape, g.tobytes()) == (w.shape, w.tobytes())
        assert quantile_curves(mod, 0.5, ps)[0].shape == (1,)


def loop_curves(mod, us, ps):
    """quantile_curves as one dense slice per u, the way it used to run.

    Returns the clip masks, means, levels and densities of every slice.
    """
    sy = mod.by.source
    clipped, means, levels, densities = [], [], [], []
    for u in us:
        su = mod.bx.table[:, mod.bx.source.atom_at_level(u)]
        raw = 1.0 + (mod.coefficients.T @ su) @ mod.by.table
        density = np.maximum(raw, 1e-6)
        density = density / float(sy.masses @ density)
        step = sy.masses * density
        cum = np.cumsum(step)
        k = np.minimum(np.searchsorted(cum, ps, side="left"), sy.r - 1)
        level = (sy.cdf[k] - sy.masses[k]
                 + (ps - (cum[k] - step[k])) / density[k])
        # round-off divided by a floored density must not leave atom k
        level = np.clip(level, sy.cdf[k] - sy.masses[k], sy.cdf[k])
        clipped.append(raw < 1e-6)
        means.append(float(step @ sy.values))
        levels.append(np.clip(level, np.finfo(float).tiny,
                              np.nextafter(1.0, 0.0)))
        densities.append(density)
    return (np.array(clipped), np.array(means), np.array(levels),
            np.array(densities))


@st.composite
def curve_models(draw):
    """Tied fits at every order the CLI accepts, some reshaped.

    "tangent" rescales the comoments so that one slice's lowest raw value
    sits just above or below the 1e-6 floor; "zero" gives one slice all-zero
    weights by zeroing its column of X's score table; "lead" lets only
    T_1(x) reach Y's top one or two scores and zeroes T_1(x) at one slice,
    so that slice's P_u' loses its leading terms while the others keep them.
    """
    mod = draw(tied_models(max_order=MAX_ORDER))
    i = draw(st.integers(0, mod.bx.source.r - 1))
    shape = draw(st.sampled_from(["fit", "tangent", "zero", "lead"]))
    if shape == "tangent":
        low = float(np.min((mod.coefficients.T @ mod.bx.table[:, i])
                           @ mod.by.table))
        assume(low < -1e-3)
        scale = (1e-6 * draw(st.sampled_from([0.999, 1.001])) - 1.0) / low
        lpm = replace(mod.lpm, entries=mod.coefficients * scale,
                      selected=np.ones_like(mod.lpm.selected))
        mod = replace(mod, lpm=lpm)
    elif shape in ("zero", "lead"):
        # "zero" clears slice i's whole column, "lead" only its T_1(x)
        rows = mod.bx.rows.copy()
        rows[1:2 if shape == "lead" else None, i] = 0.0
        mod = replace(mod, bx=ScoreBasis(mod.bx.source, rows))
    if shape == "lead":
        entries = mod.lpm.entries.copy()
        entries[1:, -draw(st.integers(1, 2)):] = 0.0
        mod = replace(mod, lpm=replace(mod.lpm, entries=entries,
                                       selected=np.ones_like(entries, bool)))
    return mod


class TestPolynomialCurves:
    """quantile_curves against the dense per-slice loop it replaced."""

    @settings(deadline=None, max_examples=300)
    @given(curve_models(), st.lists(open_unit, min_size=1, max_size=6))
    # p = 0.5 meets the right end of Y's atom 1, floored to 1e-6 at
    # u = 6/7; unclipped, the reference level left that atom by 2.3e-11
    @example(fit_copula([0, 0, 1, 0, 0, 0, 1], [0, 1, 1, 2, 0, 2, -1],
                        order=3, rule="none"), [0.5])
    def test_matches_the_per_slice_loop(self, mod, ps):
        ps, sy = np.array(ps), mod.by.source
        us = mod.bx.source.fmid
        ref_clip, ref_means, ref_levels, ref_dens = loop_curves(mod, us, ps)
        with mock.patch.object(cpmod, "mid_quantile",
                               wraps=cpmod.mid_quantile) as spy, \
                mock.patch.object(cpmod, "conditional_slice") as dense:
            means, _ = quantile_curves(mod, us, ps)
        dense.assert_not_called()
        levels = spy.call_args.args[1]
        assert_allclose(means, ref_means, rtol=0, atol=1e-12)
        # Where p meets the end of an atom clipped to the floor, round-off
        # divided by its 1e-6 density moves a level by up to ~1e-10 and may
        # put it on either side of the atom's boundary. Levels are therefore
        # also compared in probability: by the slice CDF between them.
        gap = np.abs(levels - ref_levels)
        cdf_gap = np.array([
            [abs(slice_cdf(sy, d, a) - slice_cdf(sy, d, b))
             for a, b in zip(row, ref_row)]
            for d, row, ref_row in zip(ref_dens, levels, ref_levels)])
        assert np.all((gap <= 1e-10) | (cdf_gap <= 1e-14))

        weights = mod.bx.table[:, mod.bx.source.atom_at_level(us)].T \
            @ mod.coefficients
        start, stop = cpmod._clip_runs(
            sy, np.ascontiguousarray(mod.by.table.T), weights)
        atoms = np.arange(sy.r)
        runs = ((atoms >= start[..., None]) & (atoms < stop[..., None]))
        assert np.array_equal(runs.any(axis=1), ref_clip)

    def test_no_slice_is_built_densely(self, monkeypatch):
        calls = []
        real = cpmod.conditional_slice

        def counting(mod, u):
            calls.append(u)
            return real(mod, u)

        monkeypatch.setattr(cpmod, "conditional_slice", counting)
        x = np.arange(60.0) % 13
        mod = fit_copula(x, (x - 6.0) ** 2 + np.arange(60.0) % 3, order=4,
                         rule="none")
        rows = mod.bx.rows.copy()
        rows[1:, 2] = 0.0  # slice 2: all-zero weights, a flat series
        quantile_curves(replace(mod, bx=ScoreBasis(mod.bx.source, rows)),
                        mod.bx.source.fmid, [0.5])
        assert calls == []
        # only T_1(x) reaches Y's top score, and T_1 vanishes at slice 4:
        # that slice's P_u' loses its leading term, the others keep it
        entries = np.full((4, 4), 0.4)
        entries[1:, 3] = 0.0
        rows = mod.bx.rows.copy()
        rows[1, 4] = 0.0
        lpm = replace(mod.lpm, entries=entries,
                      selected=np.ones((4, 4), dtype=bool))
        lead = replace(mod, lpm=lpm, bx=ScoreBasis(mod.bx.source, rows))
        means, _ = quantile_curves(lead, lead.bx.source.fmid, [0.5])
        for order in (11, 20):
            wide = fit_copula(x, np.arange(60.0), order=order, rule="none")
            quantile_curves(wide, wide.bx.source.fmid, [0.5])
        assert calls == []
        # the trimmed slice 4 gets the mean of its dense slice
        assert_allclose(means[4], loop_curves(lead, lead.bx.source.fmid[4:5],
                                              [0.5])[1][0], rtol=0, atol=1e-12)

    def test_an_empty_grid_gives_empty_curves(self):
        x = np.arange(60.0) % 13
        mod = fit_copula(x, (x - 6.0) ** 2 + np.arange(60.0) % 3, order=4,
                         rule="none")
        means, table = quantile_curves(mod, [], [0.25, 0.5, 0.75])
        assert means.shape == (0,) and table.shape == (0, 3)
        assert means.dtype == table.dtype == float


class TestStepDensityMass:
    """Y's scores have mean zero, so a step series 1 + w @ table sums to 1
    over Y's atoms for any weights, and its floored form to at least 1."""

    @settings(deadline=None)
    @given(st.one_of(tied_models(), curve_models()))
    def test_every_slice_sums_to_one_before_the_floor(self, mod):
        for u in mod.bx.source.fmid:
            sl = conditional_slice(mod, u)
            assert abs(mod.by.source.masses @ sl.raw - 1.0) <= 1e-12
            assert sl.mass >= 1.0 - 1e-12

    @settings(deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 9), st.booleans()), min_size=2,
                    max_size=60), st.integers(1, MAX_ORDER),
           st.sampled_from(["aic", "none"]))
    def test_two_sample_density_carries_mass_at_least_one(self, rows, m,
                                                          rule):
        y, group = np.array(rows, dtype=float).T
        assume(0 < group.sum() < group.size and np.unique(y).size > 1)
        dens = two_sample_comp_density(group, y, m, rule=rule)
        assert dens.mass >= 1.0 - 1e-12


class TestAtomLevel:
    def test_clips_to_the_atom_and_the_open_unit_interval(self):
        # atom intervals (0, 0.25], (0.25, 0.75], (0.75, 1]
        sy = make_sample([1.0, 2.0, 2.0, 3.0])
        got = cpmod._atom_level(sy, np.array([1, 1, 1, 0, 2]),
                                np.array([0.25, -1e-10, 0.5 + 1e-10, -1.0,
                                          1.0]))
        assert_array_equal(got, [0.5, 0.25, 0.75, np.finfo(float).tiny,
                                 np.nextafter(1.0, 0.0)])


class TestFirstTrue:
    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 70),
                              st.integers(-5, 130)), min_size=1))
    def test_matches_a_scan_of_each_range(self, ranges):
        lo, width, threshold = map(np.array, zip(*ranges))
        hi = lo + width
        got = cpmod._first_true(lo, hi, lambda e: e >= threshold)
        # the first e in [lo, hi) with e >= threshold, else hi
        assert_array_equal(got, np.clip(threshold, lo, hi))


@st.composite
def derivative_polys(draw):
    """A slice's P' of degree 1 to 3 with known roots, and atoms t.

    Returns (t, coefficients from the constant up, the real parts of the
    roots, tol). Roots lie among the atoms, some exactly on one; at most
    two cluster, as a double, near-double or complex pair. With `far`, one
    root sits so far out that P' has a leading coefficient near the
    `_LEAD_TOL` share that `_clip_runs` trusts. tol bounds the round-off
    of each root, relative to 1 + |root|: 1e-6 in a cluster, whose roots
    are conditioned to about sqrt(eps), and 1e-10 elsewhere.
    """
    t = np.unique(draw(st.lists(st.floats(-2.0, 2.0), min_size=1,
                                max_size=40)))
    near_t = st.one_of(st.floats(-2.5, 2.5), st.sampled_from(t.tolist()))
    degree = draw(st.integers(1, 3))
    far = draw(st.booleans())
    n = degree - far
    pair = draw(st.sampled_from(["double", "near double", "complex"])) \
        if n >= 2 and draw(st.booleans()) else None
    roots = [complex(draw(near_t)) for _ in range(n - 2 * bool(pair))]
    if pair:
        a = draw(near_t)
        gap = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]))
        b = draw(st.floats(1e-8, 2.0))
        roots += {"double": [a, a], "near double": [a, a + gap],
                  "complex": [complex(a, b), complex(a, -b)]}[pair]
    gaps = [abs(u - v) for i, u in enumerate(roots) for v in roots[:i]]
    # three clustered roots would be ill-conditioned to eps^(1/3)
    assume(sum(g < 1e-2 for g in gaps) <= 1)
    clustered = any(g < 1e-2 for g in gaps)
    if far:
        q = np.polynomial.polynomial.polyfromroots(roots).real
        sign = draw(st.sampled_from([-1.0, 1.0]))
        roots.append(sign / (2.0 * cpmod._LEAD_TOL * np.abs(q).max()))
    coef = np.polynomial.polynomial.polyfromroots(roots).real
    coef = coef * draw(st.sampled_from([1.0, -3.5, 1e-6, 2e5]))
    assume(abs(coef[-1]) > cpmod._LEAD_TOL * np.abs(coef).max())
    real = np.sort([z.real for z in roots])
    tol = (1e-6 if clustered else 1e-10) * (1.0 + np.abs(real))
    return t, coef, real, tol


class TestRootStep:
    """Real parts of the roots of P' against truth, LAPACK and numpy."""

    @settings(deadline=None, max_examples=500)
    @given(derivative_polys())
    # a double root on an atom
    @example((np.array([-1.9957646545847862, 1.8868410777386027]),
              np.array([26.304013618969883, 12.419067174670818,
                        -7.366408810008394, -3.5]),
              np.array([-1.9957646545847862, -1.9957646545847862,
                        1.8868410777386027]),
              np.full(3, 3e-6)))
    def test_closed_forms_match_the_roots_and_the_companion_cuts(self, case):
        t, coef, real, tol = case
        cheb = poly2cheb(coef)
        got = cpmod._root_real_parts((cheb[:-1] / cheb[-1])[None, :])[0]
        assert np.all(np.abs(got - real) <= tol)
        c = (coef[:-1] / coef[-1])[None, :]
        d = c.shape[1]
        companion = np.eye(d, k=-1)
        companion[:, -1] = -c[0]
        ref = np.sort(np.linalg.eigvals(companion).real)
        # LAPACK's own round-off grows with the companion's norm
        slack = tol + 64 * np.finfo(float).eps * (1.0 + np.abs(c).max())
        cut, ref_cut = np.searchsorted(t, got), np.searchsorted(t, ref)
        for i in np.flatnonzero(cut != ref_cut):
            between = t[min(cut[i], ref_cut[i]):max(cut[i], ref_cut[i])]
            assert np.all(np.abs(between - real[i]) <= slack[i])

    @settings(deadline=None, max_examples=300)
    @given(st.integers(4, MAX_ORDER - 1).flatmap(lambda d: st.lists(
        st.lists(st.floats(-4.0, 4.0), min_size=d, max_size=d),
        min_size=1, max_size=4)))
    def test_batched_colleague_roots_match_chebroots(self, rows):
        c = np.array(rows)
        got = cpmod._root_real_parts(c)
        for row, real in zip(c, got):
            ref = np.sort(chebroots(np.append(row, 1.0)).real)
            assert np.all(np.abs(real - ref) <= 1e-8 * (1.0 + np.abs(ref)))

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_colleague_eigenvalues_only_above_order_four(self, order):
        x = np.arange(80.0)
        y = np.where(x < 40, x, 120.0 - 2.0 * x) + (np.arange(80) % 7)
        mod = fit_copula(x, y, order=order, rule="none")
        with mock.patch.object(np.linalg, "eigvals",
                               wraps=np.linalg.eigvals) as eigvals, \
                mock.patch.object(cpmod, "_root_real_parts",
                                  wraps=cpmod._root_real_parts) as roots:
            quantile_curves(mod, mod.bx.source.fmid, [0.5])
        # from order 2 on, some slice comes near the floor and needs roots
        assert roots.call_count == (order >= 2)
        assert eigvals.call_count == (order == 5)


def loop_modes(density, values):
    """Plateau-merged local maxima, one step value at a time."""
    vals, locs = [], []
    for value, y in zip(density, values):
        if not vals or value != vals[-1]:
            vals.append(float(value))
            locs.append(float(y))
    where = []
    for i, value in enumerate(vals):
        left_ok = i == 0 or value > vals[i - 1]
        right_ok = i == len(vals) - 1 or value > vals[i + 1]
        if left_ok and right_ok:
            where.append(locs[i])
    return len(where), where


class TestSliceModes:
    @settings(deadline=None)
    @given(tied_models(), open_unit)
    def test_matches_the_loop_reference(self, mod, u):
        density = conditional_slice(mod, u).density
        assert slice_modes(mod, u) == loop_modes(density, mod.by.source.values)

    def test_flat_slice_is_unimodal(self):
        rng = np.random.default_rng(72)
        x = rng.standard_normal(500)
        y = rng.standard_normal(500)
        mod = fit_copula(x, y)
        if not mod.lpm.selected.any():
            count, _ = slice_modes(mod, 0.5)
            assert count == 1

    def test_monotone_slice_has_boundary_mode(self):
        x = np.arange(1.0, 101.0)
        mod = fit_copula(x, x)
        count, where = slice_modes(mod, 0.05)
        assert count >= 1
        assert min(where) <= np.quantile(x, 0.2)

    def test_hand_built_plateau_merge(self):
        # two separated peaks with a clipped valley: the run-length merge
        # must count exactly two modes however wide the flat floor is
        x = np.arange(1.0, 41.0)
        y = np.concatenate([np.arange(1.0, 21.0), np.arange(1.0, 21.0)])
        mod = fit_copula(x, y, order=4)
        counts = [slice_modes(mod, u)[0] for u in (0.1, 0.9)]
        for c in counts:
            assert c >= 1


class TestDrawCounts:
    """How `simulate_skew_g` treats a draw count."""

    @pytest.fixture(scope="class")
    def density(self):
        s = make_sample(random_sample_values(np.random.default_rng(76), 80))
        return l2_fit(s, fit_reference("normal", s))

    def test_zero_draws_are_an_empty_float_array(self, density):
        draws = simulate_skew_g(density, 0, seed=3)
        assert draws.shape == (0,) and draws.dtype == float

    def test_a_negative_count_is_a_domain_error(self, density):
        with pytest.raises(DomainError, match="-1"):
            simulate_skew_g(density, -1, seed=3)

    def test_a_whole_float_count_is_that_many_draws(self, density):
        assert_array_equal(simulate_skew_g(density, 3.0, seed=3),
                           simulate_skew_g(density, 3, seed=3))


def assert_near_the_gather(got, b, x, y):
    """Coefficients within round-off of the per-row gather mean(y T_j(x))."""
    t = b.table[:got.size, b.source.atom_index]
    # round-off is relative to the sum of absolute terms, E|y T_j|
    assert np.all(np.abs(got - t @ y / y.size)
                  <= 1e-13 * (np.abs(t) @ np.abs(y) / y.size))


class TestSeriesRegression:
    def test_recovers_function_in_score_span(self):
        rng = np.random.default_rng(74)
        x = rng.standard_normal(100)
        s = make_sample(x)
        b = build_score_basis(s, 3)
        y_atoms = 2.0 + 1.5 * b.table[0] - 0.7 * b.table[2]
        y = y_atoms[s.atom_index]
        fit = series_regression(b, y, rule="none")
        assert_allclose(fit.predict(s.values), y_atoms, atol=1e-10)
        assert_allclose(fit.coefficients[0], 1.5, atol=1e-10)
        assert_allclose(fit.coefficients[1], 0.0, atol=1e-10)
        assert_allclose(fit.coefficients[2], -0.7, atol=1e-10)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 24),
           st.integers(2, 300))
    def test_full_order_fit_is_the_mean_of_y_on_each_atom(self, seed, r, n):
        # E[Y | X] = E[Y | F(X; X)]: at order r - 1 the scores and the
        # constant span every function of x's atoms
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.full(r, rng.uniform(0.05, 2.0)))
        x = rng.choice(r, n, p=w).astype(float)
        y = np.round(np.sin(x) + rng.standard_normal(n), 1) * 10.0 ** (
            rng.integers(-3, 4))
        s = make_sample(x)
        assume(s.r > 1)
        fit = series_regression(build_score_basis(s, MAX_ORDER), y,
                                rule="none")
        means = (np.bincount(s.atom_index, weights=y)
                 / np.bincount(s.atom_index, minlength=s.r))
        gap = np.max(np.abs(fit.predict(s.values) - means))
        assert gap <= 1e-12 * np.max(np.abs(y))

    @settings(deadline=None, max_examples=100)
    # 20 * 3.5 / 20 is 3.5: a mean with no round-off
    @example(x=list(range(20)), c=3.5, order=3, rule="aic")
    @given(x=st.lists(st.integers(-60, 60), min_size=2, max_size=400),
           c=st.floats(-1e6, 1e6, allow_subnormal=False),
           order=st.integers(1, 8), rule=st.sampled_from(["aic", "bic",
                                                          "none"]))
    def test_constant_response(self, x, c, order, rule):
        # a constant y has y_sd = 0 and +0.0 coefficients exactly, whatever
        # round-off its mean, std() and sums carry, so no cell is selected
        # and the curve is flat
        s = make_sample(np.array(x, dtype=float))
        assume(s.r > 1)
        y = np.full(s.n, c)
        fit = series_regression(build_score_basis(s, order), y, rule=rule)
        assert fit.y_sd == 0.0
        assert fit.coefficients.tobytes() == bytes(8 * fit.basis.max_order)
        assert not fit.selected.any()
        # the mean of y, bit for bit, so 3.5 itself in the example
        assert fit.ybar == y.mean()
        assert_array_equal(fit.predict(s.values), fit.ybar)

    def test_invariant_under_increasing_x_transform(self):
        rng = np.random.default_rng(75)
        x = rng.standard_normal(150)
        y = np.sin(x) + 0.1 * rng.standard_normal(150)
        s1 = make_sample(x)
        fit1 = series_regression(build_score_basis(s1, 4), y)
        xt = np.exp(x)
        s2 = make_sample(xt)
        fit2 = series_regression(build_score_basis(s2, 4), y)
        assert_allclose(fit1.coefficients, fit2.coefficients, atol=1e-11)
        assert_allclose(fit1.predict(s1.values), fit2.predict(s2.values),
                        atol=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 30), st.integers(0, 900), st.booleans(),
           st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    def test_atom_sums_equal_the_observation_gather(self, r, extra, untied,
                                                    m, seed):
        rng = np.random.default_rng(seed)
        n = r + extra
        if untied:
            x = rng.standard_normal(n)
        else:
            x = rng.integers(0, r, n).astype(float)
            x[:r] = np.arange(r)
        y = x + rng.standard_normal(n)
        s = make_sample(x)
        b = build_score_basis(s, min(m, s.r - 1))
        with mock.patch.object(np, "bincount", wraps=np.bincount) as count:
            got = series_regression(b, y, rule="none").coefficients
        assert count.called
        assert_near_the_gather(got, b, x, y)

    def test_bundled_table_is_summed_per_atom(self, age, gag):
        b = build_score_basis(make_sample(age), 4)
        assert b.source.r ** 2 > age.size
        with mock.patch.object(np, "bincount", wraps=np.bincount) as count:
            got = series_regression(b, gag).coefficients
        assert count.called
        assert_near_the_gather(got, b, age, gag)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(6, 400), st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_a_row_shuffle_keeps_the_bits(self, n, untied, seed):
        # an atom of untied x holds one y, and sums of integers are exact,
        # so row order cannot reach the per-atom sums; the shuffled
        # column's basis is the same basis, bit for bit
        rng = np.random.default_rng(seed)
        x = random_sample_values(rng, n, tied=not untied)
        y = (rng.standard_normal(n) if untied
             else rng.integers(-50, 50, n).astype(float))
        s = make_sample(x)
        assume(s.r > 1)
        p = rng.permutation(n)
        b, bp = (build_score_basis(make_sample(c), min(4, s.r - 1))
                 for c in (x, x[p]))
        got = series_regression(b, y).coefficients
        shuffled = series_regression(bp, y[p]).coefficients
        assert got.tobytes() == shuffled.tobytes()

    def test_stored_atom_index_gives_the_searched_fit(self):
        # the fit reads x's rows from the basis's `atom_index`; the sums
        # over atoms found by searching each observation are the same bits
        rng = np.random.default_rng(76)
        x = random_sample_values(rng, 300)
        y = x + rng.standard_normal(300)
        s = make_sample(x)
        b = build_score_basis(s, 4)
        with search_only():
            ix = s.atom_at(x)
        fit = series_regression(b, y, rule="none")
        sums = np.bincount(ix, weights=y, minlength=s.r)
        want = (b.table * sums).sum(axis=1) / s.n
        assert fit.coefficients.tobytes() == want.tobytes()
        with search_only():
            ref_curve = fit.predict(s.values)
        assert_array_equal(fit.predict(s.values), ref_curve)

    @pytest.mark.parametrize("m", [0, -1, -3])
    def test_order_below_one_is_refused(self, m):
        # a fit takes its basis's order, and no basis is built below 1
        with pytest.raises(DomainError, match="at least 1"):
            build_score_basis(make_sample(np.arange(20.0)), m)

    def test_a_low_order_basis_predicts_at_its_sample(self):
        # the order of the fit is the basis's: an order-2 basis on a sample
        # that carries 4 gives 2 coefficients, the first 2 of the order-4
        # fit, and predict reads the same 2 rows
        x = np.arange(20.0)
        s = make_sample(x)
        fit = series_regression(build_score_basis(s, 2), x ** 2,
                                rule="none")
        full = series_regression(build_score_basis(s, 4), x ** 2,
                                 rule="none")
        assert fit.coefficients.tobytes() == full.coefficients[:2].tobytes()
        terms = fit.coefficients[:, None] * fit.basis.table
        assert_array_equal(fit.predict(s.values),
                           fit.ybar + terms.sum(axis=0))

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(3, 2000),
           st.integers(1, 30), st.integers(1, 12))
    def test_a_point_reads_the_same_curve_however_it_is_asked(
            self, seed, tied, n, m, k):
        # the curve is summed over the orders, in order, at every atom: k
        # points, one point alone, and the sample's own values all read it
        rng = np.random.default_rng(seed)
        x = random_sample_values(rng, n, tied)
        s = make_sample(x)
        assume(s.r > 1)
        fit = series_regression(build_score_basis(s, m),
                                x + rng.standard_normal(n), rule="none")
        curve = fit.ybar + (fit.coefficients[:, None]
                            * fit.basis.table).sum(axis=0)
        assert fit.predict(s.values).tobytes() == curve.tobytes()
        points = rng.standard_normal(k) * 2.0
        got = fit.predict(points)
        assert got.tobytes() == curve[s.atom_at(points)].tobytes()
        assert [fit.predict(p) for p in points] == got.tolist()

    def test_prediction_between_atoms_is_a_step(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        y = np.array([0.0, 1.0, 4.0, 9.0])
        s = make_sample(x)
        fit = series_regression(build_score_basis(s, 3), y, rule="none")
        assert fit.predict(3.0) == fit.predict(2.0)
        assert fit.predict(-1.0) == fit.predict(1.0)


def exact_regress(counts, y, m, digits=60):
    """What `regress` prints at rule "none", in `digits`-digit decimals.

    `counts` are the integer counts of x's atoms, ascending, and `y` the
    responses, each read exactly, the rows of each atom in turn. ybar and
    y_sd are y's mean and population standard deviation; the coefficient
    E[y T_j(x)] sums y per atom against the scores `decimal_scores` builds
    from the exact masses and mid-distribution, and the fitted value at
    each atom is ybar + sum_j E[y T_j] T_j(atom). Returns floats.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        n = sum(counts)
        p = [Decimal(int(c)) / n for c in counts]
        fmid = [cum - pi / 2 for cum, pi in zip(accumulate(p), p)]
        ys = [Decimal(float(v)) for v in y]
        ends = list(accumulate(counts))
        sums = [sum(ys[end - c:end]) for c, end in zip(counts, ends)]
        ybar = sum(ys) / n
        sd = (sum((v - ybar) ** 2 for v in ys) / n).sqrt()
        scores = decimal_scores(p, fmid, min(m, len(counts) - 1))
        coefficients = [sum(s * t for s, t in zip(sums, row)) / n
                        for row in scores]
        fitted = [ybar + sum(c * row[a] for c, row in zip(coefficients,
                                                           scores))
                  for a in range(len(counts))]
        return {"ybar": float(ybar), "y_sd": float(sd),
                "coefficients": [float(c) for c in coefficients],
                "fitted": [float(f) for f in fitted]}


@st.composite
def small_regress_tables(draw):
    """x on up to 12 atoms of 1 to 25 rows each, so n <= 300, and y per row.

    y is on an integer or cent grid; each atom's rows are in turn.
    """
    r = draw(st.integers(2, 12))
    counts = draw(st.lists(st.integers(1, 25), min_size=r, max_size=r))
    y = draw(st.lists(st.integers(-10 ** 5, 10 ** 5), min_size=sum(counts),
                      max_size=sum(counts)))
    return np.array(counts), np.array(y) / draw(st.sampled_from([1, 100]))


class TestExactReference:
    """What `regress` prints against `exact_regress` on small tied tables.

    Each bound is in units of big = max |y|, and the fitted value at an
    atom in units of big (1 + sum_j |T_j(atom)|), the sum of its terms'
    scales. Over 40000 random tables (r <= 12, 1 to 25 rows per atom,
    but 100 to 199 on one atom in three tables of ten, y on an integer or
    cent grid and tied in one of five, m <= 8) and 20000 examples of this
    strategy, the largest gaps were 4.0e-16 for ybar, 3.4e-16 for y_sd,
    1.0e-15 for the coefficients and 5.9e-16 for the fitted values; each
    bound is three to five times that.
    """

    @settings(deadline=None, max_examples=200)
    @given(small_regress_tables(), st.integers(1, 8))
    def test_the_fit_is_near_the_exact_values(self, table, m):
        counts, y = table
        s = make_sample(np.repeat(np.arange(counts.size, dtype=float),
                                  counts))
        fit = series_regression(build_score_basis(s, m), y, rule="none")
        exact = exact_regress(counts, y, m)
        big = float(np.max(np.abs(y)))
        assert abs(fit.ybar - exact["ybar"]) <= 2e-15 * big
        assert abs(fit.y_sd - exact["y_sd"]) <= 2e-15 * big
        assert_allclose(fit.coefficients, exact["coefficients"], rtol=0,
                        atol=4e-15 * big)
        scale = big * (1.0 + np.abs(fit.basis.table).sum(axis=0))
        assert np.all(np.abs(fit.predict(s.values) - exact["fitted"])
                      <= 3e-15 * scale)


def exact_pair_table(x_values, y_values, cells, m):
    """E[f(X) g(Y)] over the rows f = Z, T_1..T_m of each margin, with each
    margin's cdf and rows at its atoms, in the current decimal context.

    `x_values` and `y_values` are the atoms of each margin, ascending, each
    read exactly, and `cells` the r_x x r_y integer counts of each atom
    pair; every atom holds a row. Z is the value less its mean over its
    population sd, and T_1..T_m the scores `decimal_scores` builds from
    the exact masses and mid-distribution. E[f(X) g(Y)] sums
    cells(a, b) f(a) g(b) / n. Returns Decimals.
    """
    cells = [[int(c) for c in row] for row in cells]
    n = sum(map(sum, cells))
    cdfs, margins = [], []
    for values, counts in ((x_values, map(sum, cells)),
                           (y_values, map(sum, zip(*cells)))):
        v = [Decimal(float(a)) for a in values]
        p = [Decimal(c) / n for c in counts]
        cdfs.append(list(accumulate(p)))
        fmid = [cum - pi / 2 for cum, pi in zip(cdfs[-1], p)]
        mean = sum(pi * vi for pi, vi in zip(p, v))
        sd = sum(pi * (vi - mean) ** 2 for pi, vi in zip(p, v)).sqrt()
        margins.append([[(vi - mean) / sd for vi in v],
                        *decimal_scores(p, fmid, min(m, len(v) - 1))])
    fx, fy = margins
    both = [[sum(c * f[a] * g[b] for a, row in enumerate(cells)
                 for b, c in enumerate(row) if c) / n for g in fy]
            for f in fx]
    return both, cdfs, margins


def exact_comoments(x_values, y_values, cells, m, digits=60):
    """What `depend` prints of the comoments at rule "none", in decimals.

    The margins are given as to `exact_pair_table`. Returns LP(j, k), the
    [1:, 1:] block of its table, as a list of rows, and the four
    correlations of its [Z, T_1] corner, as floats.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        both = exact_pair_table(x_values, y_values, cells, m)[0]
        return {"entries": [[float(e) for e in row[1:]] for row in both[1:]],
                "pearson": float(both[0][0]), "gini_xy": float(both[0][1]),
                "gini_yx": float(both[1][0]),
                "spearman_mid": float(both[1][1])}


def exact_copula(x_values, y_values, cells, m, levels, digits=60):
    """What `depend` prints of LPINFOR and the copula grid at rule "none",
    in decimals.

    LPINFOR is the sum of every squared LP(j, k). At levels (u, v) the
    density is 1 + sum_{j,k} LP(j, k) T_j(a) T_k(b), a the first atom of X
    whose exact cdf reaches u and b that of Y at v, and its scale is
    1 + sum_{j,k} |T_j(a) T_k(b)|, the sum of its terms' bounds (|LP| is at
    most 1). A level within 2**-50 of an atom's exact cdf, where the float
    cdf may pick the atom after, gives NaN in its row or column. Returns
    LPINFOR and the (levels, levels) density and scale as floats.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        both, cdfs, (fx, fy) = exact_pair_table(x_values, y_values, cells, m)
        lp = [row[1:] for row in both[1:]]
        picks = []
        for cdf in cdfs:
            pick = []
            for u in (Decimal(float(u)) for u in levels):
                near = any(abs(u - c) <= Decimal(2) ** -50 for c in cdf)
                pick.append(None if near else
                            next(a for a, c in enumerate(cdf) if c >= u))
            picks.append(pick)
        at = {}  # (density, scale) at each atom pair reached
        density = np.full((len(levels), len(levels)), np.nan)
        scale = density.copy()
        for i, a in enumerate(picks[0]):
            for k, b in enumerate(picks[1]):
                if a is None or b is None:
                    continue
                if (a, b) not in at:
                    terms = [[tj[a] * tk[b] for tk in fy[1:]] for tj in fx[1:]]
                    at[a, b] = (
                        float(1 + sum(e * t for er, tr in zip(lp, terms)
                                      for e, t in zip(er, tr))),
                        float(1 + sum(abs(t) for tr in terms for t in tr)))
                density[i, k], scale[i, k] = at[a, b]
        info = float(sum(e * e for row in lp for e in row))
        return {"lpinfor": info, "density": density, "scale": scale}


@st.composite
def small_pair_tables(draw):
    """Atom-pair counts of two margins of up to 12 atoms each, n <= 300.

    Each margin's atoms are on an integer or cent grid. Each cell holds 0
    to `cap` rows, with cap r_x r_y <= 300, so a cap of 1 gives
    r_x r_y > n, where `_pair_mean` sums per atom, and a larger cap mostly
    r_x r_y <= n, where it sums over the cells. Atoms with no row are
    dropped. Returns the atoms, the counts and a seed for the row order.
    """
    rx, ry = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    cap = draw(st.integers(1, 300 // (rx * ry)))
    cells = np.array(draw(st.lists(st.integers(0, cap), min_size=rx * ry,
                                   max_size=rx * ry))).reshape(rx, ry)
    margins = []
    for r in (rx, ry):
        atoms = draw(st.lists(st.integers(-10 ** 5, 10 ** 5), min_size=r,
                              max_size=r, unique=True))
        margins.append(np.sort(atoms) / draw(st.sampled_from([1, 100])))
    kx, ky = cells.sum(axis=1) > 0, cells.sum(axis=0) > 0
    assume(kx.sum() > 1 and ky.sum() > 1)
    return (margins[0][kx], margins[1][ky], cells[kx][:, ky],
            draw(st.integers(0, 2 ** 32 - 1)))


def pair_rows(x_values, y_values, cells, seed):
    """The paired rows of an atom-pair count table, in a shuffled order."""
    rx, ry = cells.shape
    x = np.repeat(np.repeat(x_values, ry), cells.ravel())
    y = np.repeat(np.tile(y_values, rx), cells.ravel())
    p = np.random.default_rng(seed).permutation(x.size)
    return x[p], y[p]


class TestExactComoments:
    """What `depend` prints of the comoments against `exact_comoments`.

    LP(j, k) and the four correlations are means of products of unit
    variance functions, so each bound is absolute. Over 80000 numpy tables
    (r <= 12 a side, cells as in `small_pair_tables`, but most cells empty
    in one table of five and one cell of 100 to 199 rows in another,
    m <= 8) and 20000 examples of this strategy, the largest gaps were
    5.5e-15 for LP(j, k), on one-heavy-cell tables where the score tables
    themselves are that far from exact (8.3e-16 on the rest), and 4.4e-16
    for the correlations; each bound is about four times that. Both
    orders of the pair are checked, so `_pair_mean`'s transposed call runs
    wherever the margins differ in r and cells outnumber rows.
    """

    @settings(deadline=None, max_examples=200)
    @given(small_pair_tables(), st.integers(1, 8))
    def test_the_comoments_are_near_the_exact_values(self, table, m):
        x_values, y_values, cells, seed = table
        x, y = pair_rows(x_values, y_values, cells, seed)
        bx, by = (build_score_basis(make_sample(v), m) for v in (x, y))
        exact = exact_comoments(x_values, y_values, cells, m)
        want = np.array(exact["entries"])
        c = lp_comoments(bx, by, "none")
        assert_allclose(c.entries, want, rtol=0, atol=2e-14)
        assert_allclose(lp_comoments(by, bx, "none").entries, want.T,
                        rtol=0, atol=2e-14)
        rep = correlations(c)
        for name in ("pearson", "spearman_mid", "gini_xy", "gini_yx"):
            assert abs(getattr(rep, name) - exact[name]) <= 2e-15


class TestExactCopula:
    """What `depend --select none` prints of LPINFOR and the copula grid
    against `exact_copula`.

    LPINFOR is a sum of at most 64 squared comoments, so its bound is
    absolute; each grid value is bounded in units of its scale, the sum
    of its terms' bounds. Grid levels within round-off of an atom's exact
    cdf are skipped: there the float cdf may pick the next atom. Over
    39022 numpy tables (as in `TestExactComoments`, m <= 8, a grid of 1
    to 101 levels) and 20000 examples of this strategy, the largest gaps
    were 2.7e-15 for LPINFOR and 1.9e-15 of the scale for the grid, both
    on one-heavy-cell tables (7.8e-16 and 4.4e-16 on this strategy's);
    each bound is about four times that. 0.2% of grid cells were skipped.
    """

    @settings(deadline=None, max_examples=100)
    @given(small_pair_tables(), st.integers(1, 8), st.integers(1, 101))
    def test_lpinfor_and_the_grid_are_near_the_exact_values(self, table, m,
                                                            g):
        x_values, y_values, cells, seed = table
        x, y = pair_rows(x_values, y_values, cells, seed)
        # as `depend` builds them, at a --grid of g
        mod = fit_copula(x, y, order=m, rule="none")
        grid = cli._grid_u(g)
        uu, vv = np.meshgrid(grid, grid, indexing="ij")
        cop = eval_copula(mod, uu.ravel(), vv.ravel()).reshape(uu.shape)
        exact = exact_copula(x_values, y_values, cells, m, grid)
        assert abs(mod.lpm.lpinfor - exact["lpinfor"]) <= 1e-14
        kept = ~np.isnan(exact["density"])
        gap = np.abs(cop - exact["density"])[kept]
        assert np.all(gap <= 8e-15 * exact["scale"][kept])
