"""Mid-distribution, mid-quantile and quartile machinery."""

import math
from fractions import Fraction
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import ndtr
from scipy.stats import binom

from lpstats import (
    analyze,
    build_score_basis,
    classify,
    fit_copula,
    informative_quantile,
    lp_comoments,
    make_sample,
    mid_clt_approx,
    mid_distribution,
    mid_quantile,
    quantile,
    quartile_summary,
    series_regression,
    two_sample_comp_density,
    wilcoxon,
)
from lpstats.empirical import Sample, _counted
from lpstats.errors import (
    DegenerateScale,
    DomainError,
    EmptyInput,
    LengthMismatch,
    NonFiniteValue,
)

from conftest import random_sample_values, search_only


@st.composite
def tied_samples(draw):
    """Samples on a small grid, so most draws carry ties."""
    ints = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=40))
    step = draw(st.sampled_from([1.0, 0.25, 0.1]))
    return make_sample(np.array(ints) * step)


@st.composite
def untied_samples(draw):
    """Up to 5000 normal draws, so nearly every atom holds one row."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return make_sample(rng.standard_normal(draw(st.integers(1, 5000))))


def exact_levels(s):
    """Each atom's cdf sum_{i<=k} c_i / n, correctly rounded to a float."""
    return [float(Fraction(c, s.n)) for c in accumulate(s.counts.tolist())]


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
    @given(tied_samples(), st.randoms(use_true_random=False))
    def test_own_atoms_skip_the_search(self, s, rnd):
        def searched(x):
            with mock.patch.object(np, "searchsorted",
                                   wraps=np.searchsorted) as search:
                idx = s.atom_at(x)
            return idx, search.called

        def reference(x):
            return np.clip(np.searchsorted(s.values, x, side="right") - 1,
                           0, None)

        for own in (s.values, s.values.tolist()):
            idx, called = searched(own)
            assert not called
            assert idx.dtype == reference(own).dtype
            assert_array_equal(idx, reference(own))
        # anything else is searched: the observations (a paired analysis
        # reads `atom_index`), a reordering, points between atoms in the
        # observations' shape, a scalar
        obs = s.values[s.atom_index]
        order = list(range(s.n))
        rnd.shuffle(order)
        between = obs + 0.5 * np.diff(s.values).min(initial=1.0)
        for x in (obs, obs.tolist(), obs[order], between, obs[0]):
            idx, called = searched(x)
            own = np.shape(x) == s.values.shape and np.array_equal(x, s.values)
            assert called or own
            assert idx.dtype == reference(x).dtype
            assert_array_equal(idx, reference(x))

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


VALUE_LOOKUPS = {
    "mid_distribution": lambda m, v: mid_distribution(m["s"], v),
    "step_cdf": lambda m, v: m["s"].step_cdf(v),
    "predict": lambda m, v: m["fit"].predict(v),
    "classify": lambda m, v: classify(m["density"], v),
}


class TestNanLookup:
    """NaN has no atom; +-inf still map to the ends of the support."""

    @pytest.fixture(scope="class")
    def models(self):
        rng = np.random.default_rng(62)
        x = random_sample_values(rng, 80)
        y = x + random_sample_values(rng, 80, tied=False)
        s = make_sample(x)
        basis = build_score_basis(s, 3)
        return {"s": s, "basis": basis,
                "fit": series_regression(basis, y),
                "density": two_sample_comp_density(
                    (x > np.median(x)).astype(float), y)}

    @pytest.mark.parametrize("name", sorted(VALUE_LOOKUPS))
    def test_nan_raises(self, models, name):
        for v in (np.nan, [0.5, np.nan]):
            with pytest.raises(DomainError, match="NaN"):
                VALUE_LOOKUPS[name](models, v)

    @pytest.mark.parametrize("name", sorted(VALUE_LOOKUPS))
    def test_infinities_are_answered_as_before(self, models, name):
        ends = np.array([-np.inf, np.inf])
        with search_only():
            want = VALUE_LOOKUPS[name](models, ends)
        assert_array_equal(VALUE_LOOKUPS[name](models, ends), want)
        assert_array_equal([VALUE_LOOKUPS[name](models, e) for e in ends],
                           want)


# Every public function that takes a raw column of a paired table, as
# f(x, y). x holds 0/1, which the two-sample functions read as the group
# label. The int names the column a score basis is built on first, which
# cannot carry a bad value; None means both columns are raw arrays.
PAIRED_ENTRIES = {
    "fit_copula": (fit_copula, None),
    "series_regression": (
        lambda x, y: series_regression(
            build_score_basis(make_sample(x), 1), y), 0),
    "two_sample_comp_density": (two_sample_comp_density, None),
    "analyze": (analyze, None),
    "correlation_stats": (
        lambda x, y: analyze(x, y, 1, "none").correlation, None),
    "wilcoxon": (wilcoxon, None),
}


@st.composite
def paired_columns(draw):
    """0/1 labels (both present) and a tied response of one length."""
    n = draw(st.integers(4, 30))
    x = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                 dtype=float)
    x[:2] = 0.0, 1.0
    y = np.array(draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)),
                 dtype=float)
    return [x, y]


class TestPairedIntake:
    """Each paired entry point checks lengths, then finiteness by index."""

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from(sorted(PAIRED_ENTRIES)), paired_columns(),
           st.integers(0, 1), st.integers(0, 29),
           st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_a_bad_value_is_named_by_its_index(self, name, cols, column,
                                               index, bad):
        entry, clean = PAIRED_ENTRIES[name]
        column = 1 - clean if clean is not None else column
        index %= cols[column].size
        cols[column][index] = bad
        with pytest.raises(NonFiniteValue) as exc:
            entry(*cols)
        assert exc.value.index == index

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from(sorted(PAIRED_ENTRIES)), paired_columns(),
           st.integers(0, 1), st.integers(1, 3), st.integers(0, 1),
           st.integers(0, 29))
    def test_unequal_lengths_come_first(self, name, cols, longer, extra,
                                        column, index):
        entry, clean = PAIRED_ENTRIES[name]
        cols[longer] = np.concatenate([cols[longer], cols[longer][:extra]])
        column = 1 - clean if clean is not None else column
        cols[column][index % cols[column].size] = np.nan
        with pytest.raises(LengthMismatch):
            entry(*cols)

    def test_samples_of_different_n_are_refused(self):
        # the estimators that read rows from what was built pair them by
        # position, so a different n is refused, not broadcast
        sx, sy = make_sample(np.arange(6.0)), make_sample(np.arange(5.0))
        bx, by = build_score_basis(sx, 2), build_score_basis(sy, 2)
        for call in (lambda: lp_comoments(bx, by),
                     lambda: lp_comoments(by, bx)):
            with pytest.raises(LengthMismatch):
                call()
        # a y of the wrong length is refused before its NaN is looked at
        for y in ([np.nan] * 5, [np.nan] * 7):
            with pytest.raises(LengthMismatch):
                series_regression(bx, y)
        with pytest.raises(NonFiniteValue) as exc:
            series_regression(bx, [0.0, 1.0, np.nan, 3.0, np.nan, 5.0])
        assert exc.value.index == 2


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

    @settings(deadline=None, max_examples=100)
    @given(st.one_of(tied_samples(), untied_samples()))
    def test_cdf_and_fmid_are_correctly_rounded(self, s):
        # integer prefix sums, each divided once: no running float sum of
        # n-th parts, whose drift grows to about n ulps
        assert s.cdf.tolist() == exact_levels(s)
        cum = accumulate(s.counts.tolist())
        assert s.fmid.tolist() == [float(Fraction(2 * c - k, 2 * s.n))
                                   for c, k in zip(cum, s.counts.tolist())]

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


def unique_sample(obs):
    """The Sample that `np.unique` builds, the reference for counting."""
    obs = np.array(obs, dtype=float)
    values, atom_index, counts = np.unique(
        obs, return_inverse=True, return_counts=True)
    return Sample(values, counts, atom_index.astype(np.intp))


@st.composite
def integer_tables(draw):
    """Integer-valued columns on both sides of the counting gates.

    The span hi - lo lands well inside, just inside or just outside 4 n;
    lo may sit near +-2**53; one value may be moved off the integers.
    """
    n = draw(st.integers(1, 60))
    span = draw(st.sampled_from([0, 1, n, 4 * n - 1, 4 * n, 4 * n + 1]))
    lo = draw(st.one_of(st.integers(-50, 50),
                        st.sampled_from([-2 ** 53, -2 ** 53 + 1, 2 ** 52,
                                         2 ** 53 - 1 - span, 2 ** 53 - span,
                                         2 ** 53 + 2 - span])))
    offsets = draw(st.lists(st.integers(0, span), min_size=n, max_size=n))
    offsets[draw(st.integers(0, n - 1))] = 0
    offsets[draw(st.integers(0, n - 1))] = span
    obs = (lo + np.array(offsets, dtype=object)).astype(float)
    if draw(st.booleans()) and draw(st.booleans()):
        obs[draw(st.integers(0, n - 1))] += draw(
            st.sampled_from([0.5, 0.25, 1e-9]))
    return obs


@st.composite
def integer_arrays(draw):
    """int8, int32, int64 and uint8 arrays on both sides of the gates.

    The span hi - lo is 0 (one distinct value), below n with every value
    in range present or not, at the bound 4 n - 1, at 4 n or past it, or
    the dtype's whole range; lo may sit at the dtype's ends, at zero, or,
    in int64, so that an end has magnitude 2**53 - 1, 2**53 or 2**53 + 1.
    """
    dtype = draw(st.sampled_from([np.int8, np.int32, np.int64, np.uint8]))
    low, high = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
    n = draw(st.integers(1, 64))
    span = 0 if n == 1 else min(high - low, draw(st.sampled_from(
        [0, 1, n - 1, n, 4 * n - 1, 4 * n, 4 * n + 1, high - low])))
    ends = [low, 0, high - span]
    if dtype is np.int64:
        ends += [e - span for e in (2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1)]
        ends += [-2 ** 53 - 1, -2 ** 53, -2 ** 53 + 1]
    lo = draw(st.one_of(st.integers(low, high - span), st.sampled_from(
        [e for e in ends if low <= e <= high - span])))
    dense = span < n and draw(st.booleans())
    base = list(range(span + 1)) if dense else sorted({0, span})
    rest = draw(st.lists(st.integers(0, span), min_size=n - len(base),
                         max_size=n - len(base)))
    offsets = draw(st.permutations(base + rest))
    return (lo + np.array(offsets, dtype=object)).astype(dtype)


class TestCountingSample:
    """Integers counted by bincount give the np.unique Sample, bit for bit."""

    @staticmethod
    def assert_same(got, want):
        for name in ("values", "counts", "atom_index", "cdf", "fmid",
                     "masses"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name
        assert got.mean.hex() == want.mean.hex()
        assert got.var.hex() == want.var.hex()

    @settings(max_examples=300, deadline=None)
    @given(integer_tables())
    def test_equals_unique_and_counts_when_the_gates_hold(self, obs):
        self.assert_same(make_sample(obs), unique_sample(obs))
        lo, hi = obs.min(), obs.max()
        gates = (hi - lo < 4 * obs.size and max(-lo, hi) < 2.0 ** 53
                 and np.array_equal(obs, np.rint(obs)))
        assert (_counted(obs) is not None) == gates

    @pytest.mark.parametrize("obs", [
        [-0.0, 0.0, 1.0],
        [0.0, -0.0, 1.0],
        [-0.0],
        [-0.0, -0.0, -0.0],
        [-2.0, -0.0, 3.0, -0.0],
    ])
    def test_negative_zero_keeps_its_sign(self, obs):
        # no zero keeps a sign: each is stored, and counted, as +0.0
        s = make_sample(obs)
        assert not np.signbit(s.values[s.values == 0.0]).any()
        unsigned = np.array(obs) + 0.0
        assert s.values[s.atom_index].tobytes() == unsigned.tobytes()
        assert _counted(unsigned) is not None
        self.assert_same(s, unique_sample(unsigned))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.0, 0.5, 3.0]),
                    max_size=12), st.data())
    def test_a_permutation_gives_the_same_atoms(self, values, data):
        # the atoms depend on the multiset of values, not on which of its
        # zeros comes first; a 0.5 sends the column to np.unique
        obs = values + [0.0, -0.0]
        a = make_sample(obs)
        b = make_sample(data.draw(st.permutations(obs)))
        for name in ("values", "counts", "masses"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    @settings(max_examples=400, deadline=None)
    # int8's whole range, inside 4 n: an offset from lo past 127
    @example(np.array([-128, 127] * 32, dtype=np.int8))
    @given(integer_arrays())
    def test_an_integer_array_gives_its_float_casts_sample(self, obs):
        # counted with no float round trip, or sorted after the cast; the
        # gates hold for both or for neither
        floats = obs.astype(float)
        assert (_counted(obs) is None) == (_counted(floats) is None)
        self.assert_same(make_sample(obs), make_sample(floats))

    @pytest.mark.parametrize("obs", [[-2 ** 63, 2 ** 63 - 1], [-2 ** 63]])
    def test_int64_extremes_are_sorted_not_wrapped(self, obs):
        # as numpy int64 scalars, hi - lo and -lo wrap and would pass the
        # range test
        obs = np.array(obs)
        assert obs.dtype == np.int64
        assert _counted(obs) is None
        self.assert_same(make_sample(obs), make_sample(obs.astype(float)))

    def test_positive_zero_is_counted(self):
        obs = np.array([-3.0, 0.0, 0.0, 2.0])
        assert _counted(obs) is not None
        self.assert_same(make_sample(obs), unique_sample(obs))


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
            mid_ranks = s.fmid[s.atom_index]
            assert_allclose(mid_ranks.mean(), 0.5, rtol=0, atol=1e-15)

    def test_mid_rank_variance_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            s = make_sample(random_sample_values(rng, 150))
            expected = (1.0 - np.sum(s.masses ** 3)) / 12.0
            assert_allclose(np.var(s.fmid[s.atom_index]), expected, rtol=1e-12)
            assert_allclose(s.mid_rank_variance, expected, rtol=1e-12)

    def test_tie_free_variance_approaches_one_twelfth(self):
        s = make_sample(np.arange(1000.0))
        assert_allclose(s.mid_rank_variance, (1 - 1000 ** -2) / 12.0,
                        rtol=1e-14)


@st.composite
def heavily_tied_samples(draw):
    """Up to 300 draws on at most 12 atoms, with Dirichlet masses.

    The atoms are integers, which `make_sample` counts, or normal draws of
    any scale, which it sorts.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    r = draw(st.integers(1, 12))
    w = rng.dirichlet(np.full(r, rng.uniform(0.05, 2.0)))
    atoms = (np.arange(r) - 3.0 if draw(st.booleans()) else
             np.sort(rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), r)))
    return make_sample(atoms[rng.choice(r, draw(st.integers(1, 300)), p=w)])


class TestQuantile:
    @settings(deadline=None, max_examples=100)
    @given(heavily_tied_samples())
    def test_inverts_cdf_at_atoms(self, s):
        # Q(F(x)) = x at every atom, bit for bit
        assert quantile(s, s.cdf).tobytes() == s.values.tobytes()

    @settings(deadline=None, max_examples=100)
    @given(st.one_of(tied_samples(), untied_samples()))
    def test_inverts_the_exact_levels_at_atoms(self, s):
        # Q(k / n) = x_k at the correctly rounded level, not only at s.cdf
        assert quantile(s, exact_levels(s)).tolist() == s.values.tolist()

    def test_inverts_the_exact_levels_on_the_bundled_table(self, age, gag):
        # 157 of the 314 rows lie at or below Age 4.47 and GAG 10.5, so
        # F = 1/2 exactly there, and the median is that atom
        for col, median in ((age, 4.47), (gag, 10.5)):
            s = make_sample(col)
            assert quantile(s, exact_levels(s)).tolist() == s.values.tolist()
            assert quantile(s, 0.5) == median

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
    @settings(deadline=None, max_examples=100)
    @given(heavily_tied_samples())
    def test_round_trip_through_mid_distribution(self, s):
        # Qmid(Fmid(x)) = x at every atom, bit for bit
        assert mid_quantile(s, s.fmid).tobytes() == s.values.tobytes()

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
