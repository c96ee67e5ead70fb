"""LP moments, comoments, selection, LPINFOR and the dependence report."""

import argparse
import bisect
import math
import tracemalloc
from decimal import Decimal, localcontext
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.stats import spearmanr

from lpstats import (
    build_score_basis,
    correlations,
    fit_copula,
    lhermite_normality,
    lp_comoments,
    lp_moments,
    make_sample,
    select_significant,
    series_regression,
)
from lpstats import cli, lp
from lpstats._normal import ndtri
from lpstats.errors import DegenerateScale, LengthMismatch

from conftest import decimal_scores, random_sample_values, search_only


def basis_for(x, m=4):
    s = make_sample(x)
    return s, build_score_basis(s, min(m, s.r - 1))


def bincount_pair_mean(fa, a, fb, b):
    """`lp._pair_mean`'s per-atom sums as one `np.bincount` per row of the
    coarser margin."""
    if fa.shape[1] < fb.shape[1]:
        return bincount_pair_mean(fb, b, fa, a).T
    sums = np.array([np.bincount(a, weights=row[b], minlength=fa.shape[1])
                     for row in fb])
    return fa @ sums.T / a.size


@st.composite
def atom_sum_tables(draw):
    """(fa, a, fb, b) with r_a r_b > n, where `_pair_mean` sums per atom.

    An untied margin a, a tied pair fine enough to pass n cells, or that
    pair with the coarser margin first, which `_pair_mean` swaps. Rows are
    normal draws scaled by powers of ten, so that the sums depend on their
    order, and may hold -0.0 in place of any value.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(4, 600))
    kind = draw(st.sampled_from(["untied", "tied", "swap"]))
    if kind == "untied":
        ra, rb = n, draw(st.integers(2, n))
    else:
        ra = draw(st.integers(3, n - 1))
        rb = draw(st.integers(2, ra - 1))
        assume(ra * rb > n)
    a = (rng.permutation(n) if kind == "untied"
         else rng.integers(0, ra, n)).astype(np.intp)
    b = rng.integers(0, rb, n).astype(np.intp)
    rows = []
    for r in (ra, rb):
        f = rng.standard_normal((draw(st.integers(1, 6)), r))
        f *= 10.0 ** rng.integers(-8, 9, f.shape)
        if draw(st.booleans()):
            f[rng.random(f.shape) < draw(st.floats(0.0, 1.0))] = -0.0
        rows.append(f)
    fa, fb = rows
    return (fb, b, fa, a) if kind == "swap" else (fa, a, fb, b)


def report_of(sx, sy):
    """The report of two Samples: the corner of their order-1 comoments."""
    return correlations(lp_comoments(build_score_basis(sx, 1),
                                     build_score_basis(sy, 1)))


def correlations_of(x, y):
    """The report of two raw columns."""
    return report_of(make_sample(x), make_sample(y))


def assert_near_the_gather(got, x, y, bx, by, m):
    """Comoments within 1e-13 of the per-observation gather, on its scale."""
    tx = bx.table[:m, bx.source.atom_at(x)]
    ty = by.table[:m, by.source.atom_at(y)]
    want = tx @ ty.T / x.size
    # round-off is relative to the sum of absolute terms, E|T_j T_k|,
    # not to the entry: an entry can cancel to 0 on independent cells
    scale = np.max(np.abs(tx) @ np.abs(ty).T / x.size)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


class TestLPMoments:
    def test_first_moment_by_direct_sum(self):
        rng = np.random.default_rng(20)
        x = random_sample_values(rng, 120)
        s, b = basis_for(x)
        z = (s.values - s.mean) / s.sd
        expected = float(np.sum(s.masses * z * b.table[0]))
        vec = lp_moments(b)
        assert_allclose(vec.moments[0], expected, rtol=1e-13)

    def test_bessel_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            x = random_sample_values(rng, int(rng.integers(6, 200)),
                                     tied=bool(rng.integers(0, 2)))
            s, b = basis_for(x)
            vec = lp_moments(b)
            assert np.sum(vec.moments ** 2) <= 1.0 + 1e-12

    def test_monotone_map_only_changes_z(self):
        # scores are rank functions, so an affine map of x leaves the
        # moments unchanged (z is affine invariant too)
        rng = np.random.default_rng(22)
        x = random_sample_values(rng, 90)
        s1, b1 = basis_for(x)
        s2, b2 = basis_for(4.0 * x - 2.0)
        assert_allclose(lp_moments(b1).moments,
                        lp_moments(b2).moments, atol=1e-12)

    def test_tail_index_first_crossing(self):
        # smallest order whose raw cumulative squared moments reach the
        # threshold, counting orders from one; Z is standardized so the
        # cumulative squares estimate explained variance directly
        _, b = basis_for(np.arange(10.0), 3)
        vec = lp_moments(b)
        cum = np.cumsum(vec.moments ** 2)
        crossed = np.flatnonzero(cum >= 0.95)
        expected = int(crossed[0]) + 1 if crossed.size else None
        assert vec.tail_index == expected

    def test_tail_index_uniform_sample_is_one(self):
        # equally spaced atoms are the T_1 score itself, so the first
        # moment carries essentially all the variance
        s, b = basis_for(np.arange(50.0))
        vec = lp_moments(b)
        assert vec.tail_index == 1
        assert vec.moments[0] ** 2 > 0.95

    def test_tail_index_none_when_threshold_unreachable(self, monkeypatch):
        rng = np.random.default_rng(23)
        x = rng.standard_normal(50)
        _, b = basis_for(x)
        monkeypatch.setattr(lp, "TAIL_THRESHOLD", 1.0 + 1e-9)
        vec = lp_moments(b)
        assert vec.tail_index is None

    def test_constant_sample_rejected(self):
        # two atoms carry a basis, but the sd of a subnormal pair underflows
        s = make_sample([0.0, 5e-324, 5e-324])
        b = build_score_basis(s, 1)
        with pytest.raises(DegenerateScale):
            lp_moments(b)

    def test_order_bounds(self):
        # the moments run over the basis's orders, which stop at r - 1; a
        # lower order's moments are, bit for bit, a prefix of a higher one's
        rng = np.random.default_rng(24)
        s = make_sample(random_sample_values(rng, 40, tied=True))
        full = lp_moments(build_score_basis(s, 40)).moments
        assert full.size == s.r - 1
        for m in range(1, s.r + 2):
            got = lp_moments(build_score_basis(s, m)).moments
            assert got.tobytes() == full[:m].tobytes()


class TestSelectSignificant:
    def test_aic_threshold_is_two_over_n(self):
        n = 50
        keep = np.sqrt(2.0 / n) * 1.05
        drop = np.sqrt(2.0 / n) * 0.95
        assert select_significant(np.array([keep]), n).tolist() == [True]
        assert select_significant(np.array([drop]), n).tolist() == [False]

    def test_bic_threshold_is_log_n_over_n(self):
        n = 50
        keep = np.sqrt(np.log(n) / n) * 1.05
        drop = np.sqrt(np.log(n) / n) * 0.95
        assert select_significant(np.array([keep]), n,
                                  rule="bic").tolist() == [True]
        assert select_significant(np.array([drop]), n,
                                  rule="bic").tolist() == [False]

    def test_none_rule_keeps_everything(self):
        c = np.array([0.5, 1e-9, -0.2])
        assert select_significant(c, 10, rule="none").all()

    def test_selection_is_prefix_of_magnitude_order(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            c = rng.standard_normal(6) * 0.3
            n = int(rng.integers(10, 500))
            sel = select_significant(c, n)
            order = np.argsort(-(c ** 2), kind="stable")
            ranks_selected = np.flatnonzero(sel[order])
            # chosen cells occupy the leading magnitude ranks
            assert ranks_selected.tolist() == list(range(ranks_selected.size))

    def test_penalized_objective_is_maximal(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            c = rng.standard_normal(5) * 0.25
            n = int(rng.integers(10, 400))
            sel = select_significant(c, n)
            pen = 2.0 / n
            best = float(np.sum(c[sel] ** 2) - pen * sel.sum())
            order = np.argsort(-(c ** 2), kind="stable")
            prefix_values = [0.0] + list(
                np.cumsum(c[order] ** 2) - pen * np.arange(1, c.size + 1))
            assert_allclose(best, max(prefix_values), rtol=1e-12, atol=1e-15)

    def test_all_noise_selects_nothing(self):
        c = np.full(4, 1e-6)
        assert not select_significant(c, 100).any()


class TestLPComoments:
    def test_identity_pair_gives_identity_matrix(self):
        x = np.arange(1.0, 41.0)
        s, b = basis_for(x)
        mat = lp_comoments(b, b)
        assert_allclose(mat.entries, np.eye(4), atol=1e-9)

    def test_swap_transposes(self):
        rng = np.random.default_rng(26)
        x = random_sample_values(rng, 100)
        y = random_sample_values(rng, 100)
        _, bx = basis_for(x)
        _, by = basis_for(y)
        m1 = lp_comoments(bx, by)
        m2 = lp_comoments(by, bx)
        assert_allclose(m1.entries, m2.entries.T, atol=1e-13)

    def test_rank_invariance(self):
        rng = np.random.default_rng(27)
        x = rng.standard_normal(80)
        y = rng.standard_normal(80) + 0.5 * x
        _, bx = basis_for(x)
        _, by = basis_for(y)
        ref = lp_comoments(bx, by).entries
        xt = np.exp(x)
        yt = y ** 3
        _, bxt = basis_for(xt)
        _, byt = basis_for(yt)
        assert_allclose(lp_comoments(bxt, byt).entries, ref,
                        atol=1e-11)

    def test_rectangular_when_margin_is_short(self):
        x = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])  # r = 2, one score
        y = np.arange(6.0)
        _, bx = basis_for(x)
        _, by = basis_for(y)
        mat = lp_comoments(bx, by)
        assert mat.entries.shape == (1, 4)

    def test_independent_margins_have_small_entries(self):
        rng = np.random.default_rng(28)
        x = rng.standard_normal(4000)
        y = rng.standard_normal(4000)
        _, bx = basis_for(x)
        _, by = basis_for(y)
        mat = lp_comoments(bx, by)
        # comoments are mean-of-bounded-products, O(1/sqrt(n)) under
        # independence; 6 sigma of 1/sqrt(4000) is about .095
        assert np.max(np.abs(mat.entries)) < 0.095

    def test_length_mismatch(self):
        _, bx = basis_for(np.arange(5.0))
        _, by = basis_for(np.arange(4.0))
        with pytest.raises(LengthMismatch):
            lp_comoments(bx, by)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 400), st.sampled_from(["tied", "untied", "rounded"]),
           st.integers(0, 2 ** 32 - 1))
    def test_stored_atom_index_gives_the_searched_entries(self, n, table,
                                                          seed):
        # the paired estimators read each row's atom from `atom_index`; the
        # same sums over atoms found by searching each observation are
        # the same bits
        rng = np.random.default_rng(seed)
        if table == "rounded":
            x = np.round(rng.standard_normal(n), 1)
            y = x + np.round(rng.standard_normal(n), 1)
        else:
            x = random_sample_values(rng, n, table == "tied")
            y = random_sample_values(rng, n, table == "tied") + x
        sx, sy = make_sample(x), make_sample(y)
        assume(sx.r > 1 and sy.r > 1)
        bx, by = (build_score_basis(s, min(4, s.r - 1)) for s in (sx, sy))
        with search_only():
            ix, iy = sx.atom_at(x), sy.atom_at(y)
        both = lp._pair_mean(bx.rows, ix, by.rows, iy)
        c = lp_comoments(bx, by)
        assert c.entries.tobytes() == both[1:, 1:].tobytes()
        (pearson, gini_xy), (gini_yx, spearman) = both[:2, :2]
        assert correlations(c) == lp.CorrelationReport(
            pearson=float(pearson), spearman_mid=float(spearman),
            gini_xy=float(gini_xy), gini_yx=float(gini_yx))
        sums = np.bincount(ix, weights=y, minlength=sx.r)
        fit = series_regression(bx, y, rule="none")
        want = (bx.table * sums).sum(axis=1) / n
        assert fit.coefficients.tobytes() == want.tobytes()
        with search_only():
            ref_curve = fit.predict(sx.values)
        assert_array_equal(fit.predict(sx.values), ref_curve)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 12), st.integers(2, 12), st.integers(0, 400),
           st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    def test_cell_table_equals_the_observation_gather(self, rx, ry, n, m,
                                                      seed):
        # n from max(rx, ry) up covers n < rx * ry, where per-atom sums run
        rng = np.random.default_rng(seed)
        n += max(rx, ry)
        x = rng.integers(0, rx, n).astype(float)
        y = (x + rng.integers(0, ry, n) * rng.integers(0, 2, n)) % ry
        x[:rx], y[:ry] = np.arange(rx), np.arange(ry)  # every atom occurs
        _, bx = basis_for(x, m)
        _, by = basis_for(y, m)
        with mock.patch.object(np, "bincount", wraps=np.bincount) as count, \
                mock.patch.object(np, "add", wraps=np.add) as add:
            got = lp_comoments(bx, by).entries
        # the pair table is counted where it holds at most n cells; past
        # that the coarser margin's rows are added per atom of the finer
        cells = rx * ry <= n
        assert count.called == cells and add.at.called != cells
        assert_near_the_gather(got, x, y, bx, by, m)

    @pytest.mark.parametrize("table", ["bundled", "continuous"])
    def test_atom_sums_where_cells_outnumber_rows(self, table, age, gag):
        if table == "bundled":
            x, y = age, gag
        else:
            rng = np.random.default_rng(34)
            x = rng.standard_normal(2000)
            y = x + rng.standard_normal(2000)
        sx, bx = basis_for(x)
        sy, by = basis_for(y)
        assert sx.r * sy.r > x.size
        with mock.patch.object(np, "add", wraps=np.add) as add:
            got = lp_comoments(bx, by).entries
        assert add.at.called
        assert_near_the_gather(got, x, y, bx, by, 4)

    def test_atom_sums_hold_one_table(self):
        # an untied pair is summed per atom into one (k_b, r) table through
        # one gathered row of n floats; its peak is 7 tables of r floats at
        # order 4 (k_b = 5), where a fresh `bincount` row per score made
        # it 8 and a list of sums and its copy 10
        rng = np.random.default_rng(48)
        _, bx = basis_for(rng.standard_normal(20_000))
        _, by = basis_for(rng.standard_normal(20_000))
        tracemalloc.start()
        try:
            lp_comoments(bx, by)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (len(by.rows) + 2.5) * by.source.r * 8

    @settings(max_examples=200, deadline=None)
    @given(atom_sum_tables())
    def test_atom_sums_are_the_bincount_sums(self, table):
        # each row is added per atom in place from 0.0, in row order, which
        # is how `np.bincount` sums its weights: the same bytes, -0.0 and
        # ties included
        fa, a, fb, b = table
        assert fa.shape[1] * fb.shape[1] > a.size
        got = lp._pair_mean(fa, a, fb, b)
        assert got.tobytes() == bincount_pair_mean(fa, a, fb, b).tobytes()

    def test_a_fit_holds_each_n_length_array_once(self):
        # an untied n-row pair peaks at 27 arrays of n floats in
        # `fit_copula`; a stored count per atom in each Sample and a fresh
        # `bincount` row per score held 30
        n = 20_000
        rng = np.random.default_rng(53)
        x = rng.standard_normal(n)
        y = x + rng.standard_normal(n)
        fit_copula(x, y)  # lazy set-up is not the fit's
        tracemalloc.start()
        try:
            fit_copula(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 28.5 * n * 8

    @settings(max_examples=100, deadline=None)
    @given(st.integers(6, 400), st.booleans(), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    def test_a_row_shuffle_keeps_the_bits(self, n, x_tied, y_tied, seed):
        # an untied margin holds one row per atom, so no sum follows row
        # order; the shuffled columns' bases are the same bases, bit for
        # bit, since the atoms depend only on the multiset of a column
        assume(not (x_tied and y_tied))
        rng = np.random.default_rng(seed)
        x = random_sample_values(rng, n, x_tied)
        y = random_sample_values(rng, n, y_tied)
        y = y if y_tied else y + x
        assume(np.unique(x).size > 1 and np.unique(y).size > 1)
        p = rng.permutation(n)
        for a, b in ((x, y), (y, x)):
            (sa, ba), (sb, bb) = basis_for(a), basis_for(b)
            (sap, bap), (sbp, bbp) = basis_for(a[p]), basis_for(b[p])
            assert (lp_comoments(ba, bb).entries.tobytes()
                    == lp_comoments(bap, bbp).entries.tobytes())
            assert (correlations(lp_comoments(ba, bb))
                    == correlations(lp_comoments(bap, bbp)))

    def test_lpinfor_is_squared_sum_of_selected(self):
        rng = np.random.default_rng(29)
        x = rng.standard_normal(120)
        y = x + 0.3 * rng.standard_normal(120)
        _, bx = basis_for(x)
        _, by = basis_for(y)
        mat = lp_comoments(bx, by)
        assert_allclose(mat.lpinfor,
                        float(np.sum(mat.entries[mat.selected] ** 2)),
                        rtol=1e-14)


def _pearson(a, b):
    """Pearson correlation by the per-row formula."""
    return float(np.mean((a - a.mean()) * (b - b.mean()))
                 / (a.std() * b.std()))


def assert_near_the_row_formulas(got, x, y, sx, sy):
    """The report within 1e-13 of the four per-row Pearson formulas."""
    ux, uy = sx.fmid[sx.atom_index], sy.fmid[sy.atom_index]
    want = [_pearson(x, y), _pearson(ux, uy), _pearson(x, uy),
            _pearson(ux, y)]
    assert_allclose([got.pearson, got.spearman_mid, got.gini_xy,
                     got.gini_yx], want, rtol=0, atol=1e-13)


class TestCorrelations:
    def test_pearson_matches_numpy(self):
        rng = np.random.default_rng(30)
        x = rng.standard_normal(150)
        y = 0.6 * x + rng.standard_normal(150)
        rep = correlations_of(x, y)
        assert_allclose(rep.pearson, np.corrcoef(x, y)[0, 1], rtol=1e-12)

    def test_spearman_matches_scipy_without_ties(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal(200)
        y = rng.standard_normal(200) - 0.4 * x
        rep = correlations_of(x, y)
        assert_allclose(rep.spearman_mid, spearmanr(x, y).statistic,
                        rtol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(4, 300),
           st.integers(2, 12), st.integers(2, 12))
    def test_spearman_matches_scipy_with_ties(self, seed, n, rx, ry):
        # spearman_mid needs no tie correction: it is scipy's Spearman,
        # the Pearson correlation of the average ranks, on tied draws too
        rng = np.random.default_rng(seed)
        x = rng.integers(0, rx, n).astype(float)
        y = np.where(rng.random(n) < rng.random(), x % ry,
                     rng.integers(0, ry, n)).astype(float)
        assume(np.unique(x).size > 1 and np.unique(y).size > 1)
        rep = correlations_of(x, y)
        assert math.isclose(rep.spearman_mid, spearmanr(x, y).statistic,
                            rel_tol=1e-12, abs_tol=1e-14)

    def test_perfect_monotone_dependence(self):
        x = np.arange(1.0, 31.0)
        rep = correlations_of(x, x ** 3)
        assert_allclose(rep.spearman_mid, 1.0, rtol=1e-13)
        rep = correlations_of(x, -x)
        assert_allclose(rep.spearman_mid, -1.0, rtol=1e-13)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(6, 3000), st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_spearman_mid_is_the_first_comoment(self, n, tied, seed):
        # both are E[T_1(X) T_1(Y)], the paper's Spearman_mid = LP(1, 1)
        rng = np.random.default_rng(seed)
        x = random_sample_values(rng, n, tied)
        y = random_sample_values(rng, n, tied) + rng.integers(0, 2) * x
        assume(np.unique(x).size > 1 and np.unique(y).size > 1)
        mod = fit_copula(x, y)
        gap = correlations(mod.lpm).spearman_mid - mod.lpm.entries[0, 0]
        assert abs(gap) <= 1e-14

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 12), st.integers(2, 12), st.integers(2, 400),
           st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    def test_spearman_mid_is_the_first_comoment_bit_for_bit(self, rx, ry, n,
                                                            m, seed):
        # one `_pair_mean` sums both: spearman_mid is the cell LP(1, 1)
        rng = np.random.default_rng(seed)
        x = rng.integers(0, rx, n).astype(float)
        y = (x + rng.integers(0, ry, n) * rng.integers(0, 2, n)) % ry
        sx, sy = make_sample(x), make_sample(y)
        assume(sx.r > 1 and sy.r > 1)
        c = lp_comoments(build_score_basis(sx, m), build_score_basis(sy, m))
        got = correlations(c).spearman_mid
        assert np.float64(got).tobytes() == c.entries[0, 0].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 12), st.integers(2, 12), st.integers(2, 300),
           st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_cell_table_equals_the_row_formulas(self, rx, ry, n, integral,
                                                seed):
        rng = np.random.default_rng(seed)
        atoms_x, atoms_y = (np.arange(r) if integral
                            else np.sort(rng.standard_normal(r)) * 10
                            for r in (rx, ry))
        ix = rng.integers(0, rx, n)
        iy = (ix + rng.integers(0, ry, n) * rng.integers(0, 2, n)) % ry
        x, y = atoms_x[ix], atoms_y[iy]
        sx, sy = make_sample(x), make_sample(y)
        assume(sx.r > 1 and sy.r > 1)
        with mock.patch.object(np, "bincount", wraps=np.bincount) as count, \
                mock.patch.object(np, "add", wraps=np.add) as add:
            got = report_of(sx, sy)
        cells = sx.r * sy.r <= n
        assert count.called == cells and add.at.called != cells
        assert_near_the_row_formulas(got, x, y, sx, sy)

    @pytest.mark.parametrize("table", ["bundled", "continuous"])
    def test_atom_sums_where_cells_outnumber_rows(self, table, age, gag):
        if table == "bundled":
            x, y = age, gag
        else:
            rng = np.random.default_rng(35)
            x = rng.standard_normal(2000)
            y = x + rng.standard_normal(2000)
        sx, sy = make_sample(x), make_sample(y)
        assert sx.r * sy.r > x.size
        with mock.patch.object(np, "add", wraps=np.add) as add:
            got = report_of(sx, sy)
        assert add.at.called
        assert_near_the_row_formulas(got, x, y, sx, sy)

    def test_gini_pair_is_asymmetric_in_general(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal(300)
        y = np.exp(x) + 0.1 * rng.standard_normal(300)
        rep = correlations_of(x, y)
        assert abs(rep.gini_xy - rep.gini_yx) > 1e-4
        for val in (rep.gini_xy, rep.gini_yx):
            assert -1.0 <= val <= 1.0


class TestLHermiteNormality:
    def test_two_point_sample_is_not_flagged(self):
        s = make_sample([0.0, 1.0])
        res = lhermite_normality(s)
        assert_allclose(res.statistic, 1.0, rtol=1e-12)
        assert not res.significant

    def test_normal_data_passes(self):
        rng = np.random.default_rng(33)
        s = make_sample(rng.standard_normal(500))
        res = lhermite_normality(s)
        assert not res.significant
        assert res.statistic > 0.99

    def test_exponential_data_flagged(self):
        rng = np.random.default_rng(34)
        s = make_sample(rng.exponential(size=500))
        res = lhermite_normality(s)
        assert res.significant
        assert res.statistic < 0.99

    def test_statistic_is_a_correlation(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            s = make_sample(random_sample_values(rng, 100,
                                                 tied=bool(rng.integers(2))))
            if s.r < 2:
                continue
            res = lhermite_normality(s)
            assert 0.0 < res.statistic <= 1.0 + 1e-12


def exact_describe(values, counts, m, grid, digits=60):
    """What `describe` prints of a column, in `digits`-digit decimals.

    `values` are the column's atoms, ascending, each read exactly, and
    `counts` their integer counts. Fmid is the exact mid-distribution.
    The LP moments E[Z T_j] take Z, the value less its mean over its
    population sd, against the scores `decimal_scores` builds from the
    exact masses and Fmid. The mid-quantile interpolates through
    (Fmid_j, x_j), flat past either end; it is read at the quartiles and
    at the exact value of each float level (i + 1/2) / grid. The
    `lhermite` statistic E[Z w] / sd(w) takes w, `ndtri` of the float
    Fmid, as exact. Returns floats, except `cumulative`, the running sums
    of the squared moments, and `margin`, -log(statistic) - 1/n, which
    stay Decimals.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        n = sum(int(c) for c in counts)
        p = [Decimal(int(c)) / n for c in counts]
        fmid = [cum - pi / 2 for cum, pi in zip(accumulate(p), p)]
        x = [Decimal(float(v)) for v in values]
        mean = sum(pi * xi for pi, xi in zip(p, x))
        sd = sum(pi * (xi - mean) ** 2 for pi, xi in zip(p, x)).sqrt()
        z = [(xi - mean) / sd for xi in x]
        moments = [sum(pi * zi * ti for pi, zi, ti in zip(p, z, row))
                   for row in decimal_scores(p, fmid, min(m, len(x) - 1))]
        cumulative = list(accumulate(mom * mom for mom in moments))

        def qmid(u):
            j = bisect.bisect_right(fmid, u)
            if j in (0, len(x)):
                return x[min(j, len(x) - 1)]
            return x[j - 1] + ((x[j] - x[j - 1]) * (u - fmid[j - 1])
                               / (fmid[j] - fmid[j - 1]))

        q1, q2, q3 = (qmid(Decimal(k) / 4) for k in (1, 2, 3))
        mq, dq = (q1 + q3) / 2, 2 * (q3 - q1)
        us = [float(Decimal(2 * i + 1) / (2 * grid)) for i in range(grid)]
        qmids = [qmid(Decimal(u)) for u in us]
        w = [Decimal(v) for v in ndtri(np.array([float(f) for f in fmid]))]
        wbar = sum(pi * wi for pi, wi in zip(p, w))
        w_sd = (sum(pi * wi * wi for pi, wi in zip(p, w)) - wbar ** 2).sqrt()
        statistic = sum(pi * zi * wi for pi, zi, wi in zip(p, z, w)) / w_sd
        return {"fmid": [float(f) for f in fmid], "mean": float(mean),
                "sd": float(sd), "moments": [float(v) for v in moments],
                "cumulative": cumulative,
                "lp_square_sum": float(cumulative[-1]),
                "quartiles": {"q1": float(q1), "q2": float(q2),
                              "q3": float(q3), "mq": float(mq),
                              "dq": float(dq)},
                "u": us, "qmid": [float(v) for v in qmids],
                "qiq": [float((v - mq) / dq) for v in qmids],
                "statistic": float(statistic),
                "margin": -statistic.ln() - Decimal(1) / n}


@st.composite
def small_columns(draw):
    """A column of 2 to 12 atoms of 1 to 25 rows each, so n <= 300.

    The atoms are on an integer or cent grid. Returns the atoms,
    ascending, their counts and a seed for the row order.
    """
    r = draw(st.integers(2, 12))
    counts = draw(st.lists(st.integers(1, 25), min_size=r, max_size=r))
    atoms = draw(st.lists(st.integers(-10 ** 5, 10 ** 5), min_size=r,
                          max_size=r, unique=True))
    return (np.sort(atoms) / draw(st.sampled_from([1, 100])),
            np.array(counts), draw(st.integers(0, 2 ** 32 - 1)))


def describe_payload(values, counts, seed, m, grid):
    """`describe`'s payload and the Sample of the column, rows shuffled."""
    col = np.random.default_rng(seed).permutation(np.repeat(values, counts))
    args = argparse.Namespace(col="x", order=m, grid=grid)
    with mock.patch.object(cli, "_load", return_value=((col,), [])):
        payload, _, _ = cli.cmd_describe(args)
    return payload, make_sample(col)


class TestExactDescribe:
    """What `describe` prints against `exact_describe` on small columns.

    The quartiles, the mid-quantiles, the mean and the sd are bounded in
    units of big = max |x|, the qiq values in units of
    big (1 + |qiq|) / dq, and the LP moments, their square sum and the
    `lhermite` statistic absolutely. Over 30000 numpy columns drawn as in
    `small_columns`, 20000 more with 100 to 199 rows on one atom in three
    columns of ten, and 20000 examples of the strategy itself (m <= 8,
    grid <= 101), Fmid and the grid levels were each the correctly
    rounded exact value, and the largest gaps were 3.6e-16 (mean),
    2.1e-16 (sd), 1.2e-15 (moments and their square sum), 1.8e-15 (a
    quartile or mq), 3.8e-15 (dq), 4.8e-15 (qmid and qiq) and 6.3e-15
    (statistic); each bound is three to five times that. The tail index
    and the significance flag are checked where the exact values clear
    their thresholds by more than the bounds: in every swept column, by
    1.2e-7 or more.
    """

    @settings(deadline=None, max_examples=200)
    @given(small_columns(), st.integers(1, 8), st.integers(1, 101))
    def test_describe_is_near_the_exact_values(self, column, m, grid):
        values, counts, seed = column
        got, s = describe_payload(values, counts, seed, m, grid)
        exact = exact_describe(values, counts, m, grid)
        big = float(np.max(np.abs(values)))
        assert (got["n"], got["distinct"]) == (counts.sum(), counts.size)
        assert s.fmid.tolist() == exact["fmid"]
        assert abs(got["mean"] - exact["mean"]) <= 1e-15 * big
        assert abs(got["sd"] - exact["sd"]) <= 1e-15 * big
        assert_allclose(got["lp_moments"], exact["moments"], rtol=0,
                        atol=4e-15)
        assert abs(got["lp_square_sum"] - exact["lp_square_sum"]) <= 4e-15
        cumulative, threshold = exact["cumulative"], lp.TAIL_THRESHOLD
        if min(abs(c - Decimal(threshold)) for c in cumulative) > 4e-15:
            reached = [j for j, c in enumerate(cumulative, 1)
                       if c >= threshold]
            assert got["tail_index"] == (reached[0] if reached else None)
        for name, want in exact["quartiles"].items():
            bound = (1.5e-14 if name == "dq" else 6e-15) * big
            assert abs(got["quartiles"][name] - want) <= bound, name
        qiq = got["qiq_grid"]
        assert qiq["u"].tolist() == exact["u"]
        assert_allclose(qiq["qmid"], exact["qmid"], rtol=0, atol=2e-14 * big)
        want = np.array(exact["qiq"])
        scale = big * (1.0 + np.abs(want)) / exact["quartiles"]["dq"]
        assert np.all(np.abs(qiq["qiq"] - want) <= 2e-14 * scale)
        lh = got["lhermite"]
        assert abs(lh["statistic"] - exact["statistic"]) <= 2e-14
        if abs(exact["margin"]) > 1e-13:
            assert lh["significant"] == (exact["margin"] > 0)
