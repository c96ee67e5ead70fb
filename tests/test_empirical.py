"""Mid-distribution, mid-quantile and quartile machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import ndtr
from scipy.stats import binom

from lpstats import (
    informative_quantile,
    make_sample,
    mid_clt_approx,
    mid_distribution,
    mid_quantile,
    mid_ranks,
    quantile,
    quartile_summary,
    standardize,
)
from lpstats.errors import (
    DegenerateScale,
    DomainError,
    EmptyInput,
    NonFiniteValue,
)

from conftest import random_sample_values


@st.composite
def tied_samples(draw):
    """Samples on a small grid, so most draws carry ties."""
    ints = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=40))
    step = draw(st.sampled_from([1.0, 0.25, 0.1]))
    return make_sample(np.array(ints) * step)


def probe_values(s):
    """Atoms, midpoints between atoms, and points below and above."""
    mids = 0.5 * (s.values[:-1] + s.values[1:])
    return np.concatenate(([s.values[0] - 1.0], s.values, mids,
                           [s.values[-1] + 1.0]))


def probe_levels(s):
    """The cdf knots exactly, midpoints between them, and levels near 0."""
    knots = np.concatenate(([0.0], s.cdf))
    return np.concatenate(([1e-12], s.cdf, 0.5 * (knots[:-1] + knots[1:])))


class TestAtomLookups:
    """The Sample lookups against the inline searchsorted formulas."""

    @settings(deadline=None)
    @given(tied_samples())
    def test_atom_at(self, s):
        x = probe_values(s)
        ref = np.clip(np.searchsorted(s.values, x, side="right") - 1, 0, None)
        assert_array_equal(s.atom_at(x), ref)
        assert_array_equal(s.atom_at(s.values), np.arange(s.r))

    @settings(deadline=None)
    @given(tied_samples())
    def test_atom_at_level(self, s):
        u = probe_levels(s)
        assert_array_equal(s.atom_at_level(u),
                           np.searchsorted(s.cdf, u, side="left"))
        assert_array_equal(s.atom_at_level(s.cdf), np.arange(s.r))

    @settings(deadline=None)
    @given(tied_samples())
    def test_step_cdf(self, s):
        x = probe_values(s)
        idx = np.searchsorted(s.values, x, side="right") - 1
        ref = np.where(idx >= 0, s.cdf[np.clip(idx, 0, None)], 0.0)
        assert_array_equal(s.step_cdf(x), ref)
        assert_array_equal(s.step_cdf(s.values), s.cdf)

    @settings(deadline=None)
    @given(tied_samples())
    def test_mid_distribution_at_atoms_is_fmid(self, s):
        assert_array_equal(mid_distribution(s, s.values), s.fmid)


class TestMakeSample:
    def test_atoms_and_masses(self):
        s = make_sample([3.0, 1.0, 3.0, 2.0, 3.0])
        assert_allclose(s.values, [1.0, 2.0, 3.0])
        assert_allclose(s.masses, [0.2, 0.2, 0.6])
        assert s.n == 5 and s.r == 3

    def test_cdf_ends_at_one_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = make_sample(random_sample_values(rng, int(rng.integers(1, 80))))
            assert s.cdf[-1] == 1.0

    def test_moments_match_numpy(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(200)
        s = make_sample(x)
        assert_allclose(s.mean, x.mean(), rtol=1e-13)
        assert_allclose(s.var, x.var(), rtol=1e-13)
        assert_allclose(s.sd, x.std(), rtol=1e-13)

    def test_atom_index_round_trips_observations(self):
        rng = np.random.default_rng(2)
        x = random_sample_values(rng, 300)
        s = make_sample(x)
        assert_allclose(s.values[s.atom_index], x)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            make_sample([])

    def test_non_finite_rejected_with_position(self):
        with pytest.raises(NonFiniteValue) as exc:
            make_sample([1.0, np.nan, 2.0])
        assert "1" in str(exc.value)
        with pytest.raises(NonFiniteValue):
            make_sample([1.0, np.inf])


class TestMidDistribution:
    def test_hand_example_with_ties(self):
        # p = (.25, .5, .25) at 1 < 2 < 4: Fmid = F - p/2 = .125, .5, .875
        s = make_sample([1.0, 2.0, 2.0, 4.0])
        assert_allclose(mid_distribution(s, [1.0, 2.0, 4.0]),
                        [0.125, 0.5, 0.875], rtol=0, atol=1e-15)

    def test_between_atoms_equals_plain_cdf(self):
        s = make_sample([1.0, 2.0, 2.0, 4.0])
        assert mid_distribution(s, 1.5) == 0.25
        assert mid_distribution(s, 3.0) == 0.75
        assert mid_distribution(s, 0.0) == 0.0
        assert mid_distribution(s, 9.0) == 1.0

    def test_equals_half_mass_deficit_at_every_atom(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = make_sample(random_sample_values(rng, 120))
            at_atoms = mid_distribution(s, s.values)
            assert_allclose(at_atoms, s.cdf - 0.5 * s.masses, rtol=1e-14)

    def test_mid_ranks_mean_is_exactly_half(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            s = make_sample(random_sample_values(rng, int(rng.integers(1, 90))))
            assert_allclose(mid_ranks(s).mean(), 0.5, rtol=0, atol=1e-15)

    def test_mid_rank_variance_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            s = make_sample(random_sample_values(rng, 150))
            expected = (1.0 - np.sum(s.masses ** 3)) / 12.0
            assert_allclose(np.var(mid_ranks(s)), expected, rtol=1e-12)
            assert_allclose(s.mid_rank_variance, expected, rtol=1e-12)

    def test_tie_free_variance_approaches_one_twelfth(self):
        s = make_sample(np.arange(1000.0))
        assert_allclose(s.mid_rank_variance, (1 - 1000 ** -2) / 12.0,
                        rtol=1e-14)


class TestQuantile:
    def test_inverts_cdf_at_atoms(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            s = make_sample(random_sample_values(rng, 80))
            assert_allclose(quantile(s, s.cdf), s.values, rtol=0)

    def test_left_continuous_steps(self):
        s = make_sample([1.0, 2.0, 2.0, 4.0])  # cdf .25, .75, 1
        assert quantile(s, 0.25) == 1.0
        assert quantile(s, 0.250001) == 2.0
        assert quantile(s, 0.75) == 2.0
        assert quantile(s, 1.0) == 4.0
        assert quantile(s, 1e-9) == 1.0

    def test_domain_is_zero_one_right_closed(self):
        s = make_sample([1.0, 2.0])
        with pytest.raises(DomainError):
            quantile(s, 0.0)
        with pytest.raises(DomainError):
            quantile(s, 1.0000001)


class TestMidQuantile:
    def test_round_trip_through_mid_distribution(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = make_sample(random_sample_values(rng, 60))
            assert_allclose(mid_quantile(s, s.fmid), s.values, rtol=1e-14)

    def test_linear_between_knots(self):
        # atoms 0 and 1 with equal mass: Fmid knots .25 and .75
        s = make_sample([0.0, 1.0])
        assert_allclose(mid_quantile(s, 0.5), 0.5)
        assert_allclose(mid_quantile(s, 0.375), 0.25)

    def test_flat_beyond_extreme_knots(self):
        s = make_sample([0.0, 1.0])
        assert mid_quantile(s, 0.01) == 0.0
        assert mid_quantile(s, 0.99) == 1.0

    def test_monotone_on_dense_grid(self):
        rng = np.random.default_rng(8)
        s = make_sample(random_sample_values(rng, 200))
        u = np.linspace(0.001, 0.999, 501)
        q = mid_quantile(s, u)
        assert np.all(np.diff(q) >= 0)

    def test_open_domain(self):
        s = make_sample([1.0, 2.0])
        for bad in (0.0, 1.0):
            with pytest.raises(DomainError):
                mid_quantile(s, bad)


class TestQuartiles:
    def test_symmetric_sample_centers_at_zero(self):
        s = make_sample([-3.0, -1.0, 0.0, 1.0, 3.0])
        summ = quartile_summary(s)
        assert_allclose(summ.q2, 0.0, atol=1e-15)
        assert_allclose(summ.mq, 0.0, atol=1e-15)
        assert_allclose(summ.dq, 2 * (summ.q3 - summ.q1), rtol=1e-14)

    def test_informative_quantile_is_odd_for_symmetric_data(self):
        s = make_sample(np.concatenate([np.arange(1.0, 26.0),
                                        -np.arange(1.0, 26.0)]))
        u = np.array([0.1, 0.2, 0.3, 0.4])
        assert_allclose(informative_quantile(s, u),
                        -informative_quantile(s, 1.0 - u), atol=1e-12)

    def test_constant_sample_has_no_scale(self):
        s = make_sample([5.0, 5.0, 5.0])
        with pytest.raises(DegenerateScale):
            informative_quantile(s, 0.5)


class TestStandardize:
    def test_zero_mean_unit_sd(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(100) * 3.0 + 7.0
        s = make_sample(x)
        z = standardize(s, x)
        assert_allclose(z.mean(), 0.0, atol=1e-13)
        assert_allclose(z.std(), 1.0, rtol=1e-13)

    def test_constant_rejected(self):
        s = make_sample([2.0, 2.0])
        with pytest.raises(DegenerateScale):
            standardize(s, 2.0)


class TestMidCltApprox:
    def test_matches_phi(self):
        x = np.linspace(-3, 3, 13)
        assert_allclose(mid_clt_approx(0.0, 1.0, x), ndtr(x), rtol=1e-14)

    def test_tracks_binomial_mid_distribution(self):
        # the half-mass correction makes Phi land near Fmid at the atoms,
        # not near the plain CDF (classic continuity-correction effect)
        n, p = 40, 0.4
        ks = np.arange(n + 1)
        pmf = binom.pmf(ks, n, p)
        fmid = np.cumsum(pmf) - 0.5 * pmf
        approx = mid_clt_approx(n * p, math.sqrt(n * p * (1 - p)),
                                ks.astype(float))
        inner = (ks >= 8) & (ks <= 24)
        assert np.max(np.abs(approx[inner] - fmid[inner])) < 0.01
