"""Two-sample pooling identities, rank statistics and Bayes updates."""

import contextlib
import io
import math
import warnings
from dataclasses import astuple
from decimal import Decimal, localcontext
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.stats import mannwhitneyu, norm, ttest_ind

from lpstats import (
    GroupSummary,
    analyze,
    bayes_normal_update,
    classify,
    combine,
    correlation_stats,
    group_summary,
    logistic_score_features,
    recursive_update,
    student_t,
    two_sample_comp_density,
    wilcoxon,
)
from lpstats import cli
from lpstats import twosample as tsmod
from lpstats.empirical import make_sample, mid_ranks
from lpstats.errors import (
    DegenerateScale,
    DomainError,
    EmptyInput,
    LengthMismatch,
    NonFiniteValue,
    SingleGroup,
)

from conftest import decimal_scores, random_sample_values


def random_groups(rng, n_max=60):
    n1 = int(rng.integers(2, n_max))
    n2 = int(rng.integers(2, n_max))
    y1 = rng.standard_normal(n1) * rng.uniform(0.5, 3.0) + rng.normal()
    y2 = rng.standard_normal(n2) * rng.uniform(0.5, 3.0) + rng.normal()
    return y1, y2


class TestGroupSummary:
    def test_population_variance_convention(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        g = group_summary(y)
        assert g.n == 4
        assert_allclose(g.m, 2.5)
        assert_allclose(g.v, np.var(y), rtol=0)  # 1.25, not 5/3

    def test_errors(self):
        with pytest.raises(EmptyInput):
            group_summary([])
        with pytest.raises(NonFiniteValue):
            group_summary([1.0, np.inf])


class TestCombine:
    def test_hand_example(self):
        out = combine(GroupSummary(2, 0.0, 1.0), GroupSummary(2, 2.0, 1.0))
        assert_allclose(out.m, 1.0)
        assert_allclose(out.vpool, 1.0)
        assert_allclose(out.v, 2.0)  # vpool + tau1 tau2 (m2 - m1)^2

    def test_matches_concatenation(self):
        rng = np.random.default_rng(80)
        for _ in range(200):
            y1, y2 = random_groups(rng)
            out = combine(group_summary(y1), group_summary(y2))
            pooled = np.concatenate([y1, y2])
            assert_allclose(out.m, pooled.mean(), rtol=1e-12)
            assert_allclose(out.v, pooled.var(), rtol=1e-10)

    def test_decomposition_identities(self):
        rng = np.random.default_rng(81)
        for _ in range(500):
            g1 = GroupSummary(float(rng.integers(1, 50)), rng.normal(),
                              float(rng.uniform(0.0, 4.0)))
            g2 = GroupSummary(float(rng.integers(1, 50)), rng.normal(),
                              float(rng.uniform(0.0, 4.0)))
            out = combine(g1, g2)
            assert_allclose(out.m, out.tau1 * g1.m + out.tau2 * g2.m,
                            rtol=1e-14)
            assert_allclose(out.v, out.vpool + out.tau1 * out.tau2
                            * (g2.m - g1.m) ** 2, rtol=1e-13)

    def test_fractional_counts_allowed(self):
        out = combine(GroupSummary(0.5, 0.0, 1.0), GroupSummary(1.5, 4.0, 0.0))
        assert_allclose(out.n, 2.0)
        assert_allclose(out.m, 3.0)

    def test_empty_side_rejected(self):
        with pytest.raises(DomainError):
            combine(GroupSummary(0.0, 0.0, 0.0), GroupSummary(2.0, 1.0, 1.0))


class TestRecursiveUpdate:
    def test_fold_small_sequence(self):
        state = group_summary([1.0])
        for value in (2.0, 3.0, 4.0):
            state = recursive_update(state, value)
        assert state.n == 4
        assert_allclose(state.m, 2.5)
        assert_allclose(state.v, 1.25)

    def test_fold_equals_batch_and_innovations(self):
        rng = np.random.default_rng(82)
        for _ in range(100):
            y = rng.standard_normal(int(rng.integers(2, 80)))
            state = group_summary(y[:1])
            innovations = 0.0
            for k, value in enumerate(y[1:], start=2):
                innovations += (value - state.m) ** 2 * (k - 1) / k
                state = recursive_update(state, value)
            assert_allclose(state.m, y.mean(), rtol=1e-12)
            assert_allclose(state.v, y.var(), rtol=1e-10, atol=1e-14)
            assert_allclose(state.v * y.size, innovations, rtol=1e-9,
                            atol=1e-12)


class TestStudentT:
    def test_scaled_form_matches_textbook(self):
        rng = np.random.default_rng(83)
        for _ in range(200):
            y1, y2 = random_groups(rng)
            st = student_t(group_summary(y1), group_summary(y2))
            ref = ttest_ind(y2, y1, equal_var=True).statistic
            assert_allclose(st.t_scaled, ref, rtol=1e-10)
            assert st.df == y1.size + y2.size - 2

    def test_core_and_scaled_ratio(self):
        g1 = group_summary(np.array([1.0, 2.0, 3.0]))
        g2 = group_summary(np.array([2.0, 4.0, 6.0, 8.0]))
        st = student_t(g1, g2)
        assert_allclose(st.t_scaled, math.sqrt(5.0) * st.t_core, rtol=1e-14)


class TestCorrelationStats:
    def test_r_matches_numpy(self):
        rng = np.random.default_rng(84)
        x = (rng.random(50) < 0.4).astype(float)
        if x.min() == x.max():
            x[0] = 1.0 - x[0]
        y = rng.standard_normal(50) + x
        cs = correlation_stats(x, y)
        assert_allclose(cs.r, np.corrcoef(x, y)[0, 1], rtol=1e-12)

    def test_identities(self):
        rng = np.random.default_rng(85)
        for _ in range(200):
            y1, y2 = random_groups(rng)
            x = np.concatenate([np.zeros(y1.size), np.ones(y2.size)])
            y = np.concatenate([y1, y2])
            cs = correlation_stats(x, y)
            st = student_t(group_summary(y1), group_summary(y2))
            assert cs.vpool_identity_ok
            assert_allclose(cs.r2, st.t_core ** 2 / (1 + st.t_core ** 2),
                            rtol=1e-11)
            assert_allclose(cs.t, st.t_core, rtol=1e-11)

    def test_separated_groups_degenerate(self):
        # within-group variance vanishes, so |r| = 1 and no t exists;
        # student_t refuses the zero pooled variance first
        from lpstats.errors import DegenerateScale
        x = np.array([0.0, 0.0, 1.0, 1.0])
        y = np.array([0.0, 0.0, 5.0, 5.0])
        with pytest.raises(DegenerateScale):
            correlation_stats(x, y)

    def test_r_of_one_in_rounding_degenerate(self):
        # one zero moved to 1e-9 gives group 0 a variance, but r rounds to
        # 1, where t = r / sqrt(1 - r^2) has no value
        x = np.repeat([0.0, 1.0], 50)
        y = x.copy()
        y[0] = 1e-9
        for call in (analyze, correlation_stats):
            with pytest.raises(DegenerateScale, match=r"\|r\| = 1"):
                call(x, y)

    def test_a_response_variance_that_underflows_degenerate(self):
        # 7e-162 among zeros: its squared gap to the mean underflows in V,
        # which r_groups divides by, but not in group 0's variance
        x = np.repeat([0.0, 1.0], [17, 13])
        y = np.zeros(30)
        y[16] = 7e-162
        for call in (analyze, correlation_stats):
            with pytest.raises(DegenerateScale, match="underflows to zero"):
                call(x, y)

    def test_zero_pooled_variance_degenerate(self):
        # r rounds to just below 1, but each group is constant: the pooled
        # t is undefined, as student_t says
        x = np.array([0.0, 0.0, 0.0, 1.0, 1.0])
        y = np.array([1.0, 1.0, 1.0, 2.0, 2.0])
        with pytest.raises(DegenerateScale, match="pooled variance is zero"):
            correlation_stats(x, y)

    @settings(deadline=None, max_examples=100)
    # 7 * a / 7 != a: the mean of the first group is not its atom
    @example(sizes=(7, 1), levels=[-0.2924567509650886, -0.007819084623568421],
             seed=0)
    @given(sizes=st.tuples(st.integers(1, 30), st.integers(1, 30)),
           levels=st.lists(st.floats(-1e3, 1e3, allow_subnormal=False),
                           min_size=2, max_size=2, unique=True),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_a_response_constant_in_each_group_is_degenerate(
            self, tmp_path_factory, sizes, levels, seed):
        # a group on one atom has v = 0 exactly, whatever round-off its
        # mean carries, so the pooled t is refused, by the CLI too
        perm = np.random.default_rng(seed).permutation(sum(sizes))
        x = np.repeat([0.0, 1.0], sizes)[perm]
        y = np.repeat(levels, sizes)[perm]
        for g in (0.0, 1.0):
            assert group_summary(y[x == g]).v == 0.0
        for call in (analyze, correlation_stats):
            with pytest.raises(DegenerateScale,
                               match="pooled variance is zero"):
                call(x, y)
        f = tmp_path_factory.mktemp("twosample") / "t.csv"
        f.write_text("y,g\n" + "".join(f"{v!r},{g:g}\n"
                                         for v, g in zip(y.tolist(), x)))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["twosample", "--y", "y", "--group", "g",
                             "--data", str(f)])
        assert (code, err.getvalue()) == (
            3, "error: pooled variance is zero\n")

    def test_label_handling(self):
        with pytest.raises(SingleGroup):
            correlation_stats(np.zeros(4), np.arange(4.0))
        with pytest.raises(SingleGroup):
            correlation_stats(np.array([0.0, 1.0, 2.0, 2.0]),
                              np.arange(4.0))
        with pytest.raises(LengthMismatch):
            correlation_stats(np.array([0.0, 1.0]), np.arange(3.0))


class TestWilcoxon:
    def test_hand_example(self):
        res = wilcoxon(np.array([0.0, 0.0, 1.0, 1.0]),
                       np.array([1.0, 2.0, 3.0, 4.0]))
        assert_allclose(res.w, 2.0 / math.sqrt(5.0), rtol=1e-12)

    def test_tie_example(self):
        # heavy ties: mid-ranks absorb them without any correction knob
        x = np.array([0.0, 0.0, 1.0, 1.0])
        y = np.array([1.0, 2.0, 1.0, 2.0])
        res = wilcoxon(x, y)
        assert_allclose(res.w, 0.0, atol=1e-15)

    def test_direct_form_identity_under_ties(self):
        rng = np.random.default_rng(86)
        for _ in range(300):
            n1 = int(rng.integers(2, 40))
            n2 = int(rng.integers(2, 40))
            y = rng.integers(0, 6, size=n1 + n2).astype(float)
            x = np.concatenate([np.zeros(n1), np.ones(n2)])
            if np.unique(y).size < 2:
                continue
            res = wilcoxon(x, y)
            assert_allclose(res.w, res.w_direct, atol=1e-12)

    def test_z_scaling(self):
        x = np.array([0.0, 0.0, 1.0, 1.0])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        res = wilcoxon(x, y)
        assert_allclose(res.z_stat, 2.0 * res.w, rtol=1e-14)
        small = wilcoxon(x, y, small_sample=True)
        assert_allclose(small.z_stat, math.sqrt(3.0) * small.w, rtol=1e-14)

    def test_sign_convention(self):
        # larger responses in the higher label group push w positive
        x = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        y = np.array([1.0, 2.0, 3.0, 7.0, 8.0, 9.0])
        assert wilcoxon(x, y).w > 0
        assert wilcoxon(x, -y).w < 0

    def test_constant_response_degenerate(self):
        # zero mid-rank variance: no standardized mid-rank exists
        with pytest.raises(DegenerateScale, match="response is constant"):
            wilcoxon(np.array([0.0, 1.0, 0.0, 1.0]), np.full(4, 2.0))


def row_wilcoxon(x01, sy):
    """w and w_direct by the per-row formulas, from the mid-ranks."""
    tau = x01.mean()
    ry = mid_ranks(sy)
    v_mid = sy.mid_rank_variance
    w = np.mean((x01 - tau) * (ry - 0.5)) / math.sqrt(
        tau * (1.0 - tau) * v_mid)
    w_direct = (ry[x01 == 1.0].mean() - 0.5) * math.sqrt(
        tau / ((1.0 - tau) * v_mid))
    return w, w_direct


class TestWilcoxonCells:
    """The (atom, group) count table against the per-row sums."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 40), st.integers(2, 300), st.booleans(),
           st.floats(0.05, 0.95), st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_cell_table_equals_the_row_formulas(self, r, n, integral, share,
                                                small, seed):
        rng = np.random.default_rng(seed)
        atoms = (np.arange(r) if integral
                 else np.sort(rng.standard_normal(r)) * 10)
        y = atoms[rng.integers(0, r, n)]
        x01 = (rng.random(n) < share).astype(float)
        sy = make_sample(y)
        assume(0 < x01.sum() < n and sy.r > 1)
        with mock.patch.object(np, "bincount", wraps=np.bincount) as count:
            got = tsmod._wilcoxon(
                two_sample_comp_density(x01, y, 1, "none"), small)
        assert count.called
        w, w_direct = row_wilcoxon(x01, sy)
        scale = math.sqrt(n - 1.0 if small else n)
        assert_allclose([got.w, got.w_direct, got.z_stat / scale],
                        [w, w_direct, w], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("table", ["bundled", "continuous"])
    def test_cells_where_they_outnumber_rows(self, table, age, gag):
        if table == "bundled":
            x01, y = (age > np.median(age)).astype(float), gag
        else:
            rng = np.random.default_rng(98)
            y = rng.standard_normal(2000)
            x01 = (rng.random(2000) < 0.4).astype(float)
        sy = make_sample(y)
        assert 2 * sy.r > sy.n
        with mock.patch.object(np, "bincount", wraps=np.bincount) as count:
            got = tsmod._wilcoxon(
                two_sample_comp_density(x01, y, 1, "none"), False)
        assert count.called
        assert_allclose([got.w, got.w_direct], row_wilcoxon(x01, sy),
                        rtol=0, atol=1e-13)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(6, 400), st.booleans(), st.floats(0.05, 0.95),
           st.integers(0, 2 ** 32 - 1))
    def test_a_row_shuffle_keeps_the_bits(self, n, tied, share, seed):
        # the sums run over integer cell counts, which row order cannot reach
        rng = np.random.default_rng(seed)
        y = random_sample_values(rng, n, tied)
        x = (rng.random(n) < share).astype(float)
        assume(0 < x.sum() < n and np.unique(y).size > 1)
        p = rng.permutation(n)
        assert wilcoxon(x, y) == wilcoxon(x[p], y[p])
        try:
            rep = analyze(x, y)
        except DegenerateScale:  # |r| = 1 or a zero pooled variance
            return
        assert analyze(x[p], y[p]).wilcoxon == rep.wilcoxon


class TestTwoSampleDensity:
    def test_identical_groups_flat(self):
        y = np.tile(np.arange(10.0), 2)
        x = np.repeat([0.0, 1.0], 10)
        dens = two_sample_comp_density(x, y)
        assert not dens.selected.any()
        assert_allclose(dens.atom_density, 1.0, rtol=1e-12)

    def test_shift_tilts_the_density(self):
        rng = np.random.default_rng(87)
        y1 = rng.standard_normal(300)
        y2 = rng.standard_normal(300) + 1.5
        x = np.repeat([0.0, 1.0], 300)
        y = np.concatenate([y1, y2])
        dens = two_sample_comp_density(x, y)
        assert dens.selected.any()
        # group 1 = higher label; its density rises with the response
        assert dens.atom_density[-1] > dens.atom_density[0]

    def test_density_normalized_over_pooled_atoms(self):
        rng = np.random.default_rng(88)
        y = rng.integers(0, 8, size=120).astype(float)
        x = (rng.random(120) < 0.5).astype(float)
        if 0 < x.sum() < 120:
            dens = two_sample_comp_density(x, y)
            assert_allclose(dens.by.source.masses @ dens.atom_density, 1.0,
                            rtol=1e-12)

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3000),
           tied=st.booleans(), share=st.floats(0.05, 0.95))
    def test_group_one_coefficients_equal_the_full_gather(self, seed, n,
                                                          tied, share):
        # c is summed over group 1's column of (atom, group) counts; it
        # must stay within 1e-13 of the mean over the (m x n1) gather, on
        # the scale of the mean absolute score
        rng = np.random.default_rng(seed)
        y = random_sample_values(rng, n, tied)
        x = (rng.random(n) < share).astype(float)
        assume(0 < x.sum() < n and np.unique(y).size > 1)
        dens = two_sample_comp_density(x, y)
        gather = dens.by.table[:, dens.by.source.atom_index[x == 1.0]]
        scale = np.max(np.abs(gather).mean(axis=1))
        assert np.max(np.abs(dens.c - gather.mean(axis=1))) <= 1e-13 * scale


class TestClassify:
    def test_posterior_bounds_and_monotonicity(self):
        rng = np.random.default_rng(89)
        y1 = rng.standard_normal(400)
        y2 = rng.standard_normal(400) + 2.0
        x = np.repeat([0.0, 1.0], 400)
        dens = two_sample_comp_density(x, np.concatenate([y1, y2]))
        grid = np.linspace(-3.0, 5.0, 30)
        post = classify(dens, grid)
        assert np.all((post >= 0.0) & (post <= 1.0))
        assert post[-1] > post[0]

    def test_features_export(self):
        rng = np.random.default_rng(91)
        y1 = rng.standard_normal(200)
        y2 = rng.standard_normal(200) + 1.0
        x = np.repeat([0.0, 1.0], 200)
        feats = logistic_score_features(x, np.concatenate([y1, y2]))
        assert feats.columns.shape == (400, len(feats.orders))
        if feats.orders:
            assert_allclose(feats.columns.mean(axis=0), 0.0, atol=1e-12)
            assert_allclose((feats.columns ** 2).mean(axis=0), 1.0,
                            rtol=1e-12)


class TestBayesNormal:
    def test_textbook_hand_case(self):
        prior = GroupSummary(n=4.0, m=0.0, v=1.0)
        post = bayes_normal_update(prior, GroupSummary(4.0, 2.0, 1.0))
        assert post.n == 8.0
        assert_allclose(post.m, 1.0)
        assert_allclose(post.v, 2.0)

    def test_posterior_mean_is_precision_weighted(self):
        rng = np.random.default_rng(92)
        for _ in range(200):
            n0 = float(rng.uniform(0.5, 20.0))
            m0 = float(rng.normal())
            n = float(rng.integers(1, 50))
            mbar = float(rng.normal())
            post = bayes_normal_update(
                GroupSummary(n=n0, m=m0, v=1.0),
                GroupSummary(n, mbar, float(rng.uniform(0.0, 3.0))))
            assert_allclose(post.m, (n0 * m0 + n * mbar) / (n0 + n),
                            rtol=1e-13)

    def test_batch_equals_sequential(self):
        rng = np.random.default_rng(93)
        y = rng.standard_normal(30)
        prior = GroupSummary(n=2.0, m=0.5, v=1.5)
        batch = bayes_normal_update(prior, group_summary(y))
        seq = prior
        for value in y:
            seq = bayes_normal_update(seq, GroupSummary(1.0, float(value),
                                                        0.0))
        assert_allclose(seq.m, batch.m, rtol=1e-12)
        assert_allclose(seq.v, batch.v, rtol=1e-12)
        assert seq.n == batch.n

    def test_guards(self):
        with pytest.raises(DomainError):
            bayes_normal_update(GroupSummary(0.0, 0.0, 1.0),
                                GroupSummary(1.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            bayes_normal_update(GroupSummary(1.0, 0.0, 1.0),
                                GroupSummary(0.5, 0.0, 0.0))
        for prior_v, data_v in ((-1.0, 0.0), (1.0, -1e-300)):
            with pytest.raises(DomainError):
                bayes_normal_update(GroupSummary(1.0, 0.0, prior_v),
                                    GroupSummary(1.0, 0.0, data_v))


def report_bits(rep):
    """Every number of an analyze report, as bytes."""
    dens = rep.density
    scalars = [*astuple(rep.g1), *astuple(rep.g2), *astuple(rep.combined),
               *astuple(rep.student), *astuple(rep.correlation),
               *astuple(rep.wilcoxon), dens.tau, dens.mass]
    arrays = (scalars, dens.c, dens.lp1k, dens.selected, dens.atom_density)
    return ([np.asarray(a).tobytes() for a in arrays]
            + [dens.labels, rep.identities_ok])


class TestAnalyze:
    def test_full_report_coherent(self):
        rng = np.random.default_rng(94)
        y1 = rng.standard_normal(80)
        y2 = rng.standard_normal(90) + 0.8
        x = np.concatenate([np.full(80, 10.0), np.full(90, 20.0)])
        rep = analyze(x, np.concatenate([y1, y2]))
        assert rep.density.labels == (10.0, 20.0)
        assert rep.identities_ok
        assert (rep.student.t_core > 0 and rep.wilcoxon.w > 0
                and rep.correlation.r > 0)
        assert_allclose(rep.correlation.r2, rep.correlation.r ** 2,
                        rtol=1e-12)
        assert rep.student.df == 168.0
        assert rep.density.lp1k.shape == (4,)

    def test_flipped_labels_flip_signs(self):
        rng = np.random.default_rng(95)
        y = np.concatenate([rng.standard_normal(50),
                            rng.standard_normal(50) + 1.0])
        x = np.repeat([0.0, 1.0], 50)
        a = analyze(x, y)
        b = analyze(1.0 - x, y)
        assert_allclose(a.student.t_core, -b.student.t_core, rtol=1e-12)
        assert_allclose(a.wilcoxon.w, -b.wilcoxon.w, rtol=1e-12)

    def test_a_zero_label_is_unsigned(self):
        # whichever zero comes first, the label is +0.0
        y = np.arange(6.0)
        for x in ([-0.0, 0.0, 1.0] * 2, [0.0, -0.0, 1.0] * 2):
            labels = analyze(x, y, m=2).density.labels
            assert np.array(labels).tobytes() == np.array([0.0, 1.0]).tobytes()

    def test_density_is_the_direct_fit(self):
        rng = np.random.default_rng(96)
        y = rng.integers(0, 9, size=150).astype(float)
        x = (rng.random(150) < 1.0 / (1.0 + np.exp(4.0 - y))).astype(float)
        got = analyze(x, y, m=3, rule="bic").density
        want = two_sample_comp_density(x, y, m=3, rule="bic")
        assert_array_equal(got.by.source.atom_index, want.by.source.atom_index)
        assert_array_equal(got.by.source.values, want.by.source.values)
        assert_array_equal(got.by.table, want.by.table)
        assert (got.tau, got.labels, got.mass) == (want.tau, want.labels,
                                                   want.mass)
        for name in ("cells", "c", "lp1k", "selected", "atom_density"):
            assert_array_equal(getattr(got, name), getattr(want, name))

    def test_sorts_the_response_once(self, monkeypatch):
        counts = {"_split_cells": 0, "make_sample": 0, "_pair_counts": 0,
                  "two_sample_comp_density": 0, "student_t": 0,
                  "combine": 0}
        for name in counts:
            original = getattr(tsmod, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(tsmod, name, counted)
        rng = np.random.default_rng(97)
        analyze(rng.integers(0, 2, 40), rng.integers(0, 5, 40))
        # analyze reads the count table from the density fit, which builds
        # the only Sample of the response and counts the only (atom,
        # group) table; the 0/1 indicator's mid-ranks need no Sample. The
        # pooled t is taken once; combine runs for the report and in it
        assert counts == {"_split_cells": 1, "make_sample": 1,
                          "_pair_counts": 1, "two_sample_comp_density": 1,
                          "student_t": 1, "combine": 2}

    @settings(max_examples=100, deadline=None)
    @given(st.integers(6, 400), st.sampled_from(["tied", "untied", "spread"]),
           st.floats(0.05, 0.95), st.integers(0, 2 ** 32 - 1))
    def test_a_row_shuffle_keeps_every_bit(self, n, kind, share, seed):
        # every number of the report is summed over the (atom, group)
        # counts, which row order cannot reach. "spread" has r_y > n / 2
        # and both groups on three heavy atoms: there a sum per atom over
        # the rows, as `lp._pair_mean` takes it, would follow row order
        rng = np.random.default_rng(seed)
        y = (np.concatenate([np.arange(n // 2 + 1.0),
                             rng.integers(0, 3, n - n // 2 - 1)])
             if kind == "spread" else random_sample_values(rng, n,
                                                           kind == "tied"))
        x = (rng.random(n) < share).astype(float)
        assume(0 < x.sum() < n and np.unique(y).size > 1)
        try:
            rep = analyze(x, y)
        except DegenerateScale:  # |r| = 1 or a zero pooled variance
            assume(False)
        p = rng.permutation(n)
        assert report_bits(analyze(x[p], y[p])) == report_bits(rep)


class TestNonFiniteResponse:
    @pytest.mark.parametrize("entry", [analyze, correlation_stats, wilcoxon,
                                       two_sample_comp_density])
    def test_reports_the_index_in_the_response(self, entry):
        # the NaN is the third response of group 0, but the fifth overall
        with pytest.raises(NonFiniteValue, match="at index 4") as exc:
            entry([0, 1, 0, 1, 0, 1], [1.0, 2.0, 3.0, 4.0, np.nan, 6.0])
        assert exc.value.index == 4


class TestNonFiniteLabel:
    @pytest.mark.parametrize("entry", [analyze, correlation_stats, wilcoxon,
                                       two_sample_comp_density,
                                       logistic_score_features])
    def test_reports_the_index_of_a_nan_label(self, entry):
        with pytest.raises(NonFiniteValue) as exc:
            entry([0, 0, np.nan, np.nan, 0], [1.0, 2.0, 3.0, 4.0, 5.0])
        assert exc.value.index == 2


tied_values = st.lists(st.integers(-5, 5), min_size=1, max_size=30)


@st.composite
def tied_two_samples(draw):
    """A response on a small integer grid and a two-valued label."""
    y = np.array(draw(tied_values), dtype=float)
    labels = draw(st.sampled_from([(0, 1), (-2.0, 3.5), ("a", "b")]))
    pick = draw(st.lists(st.booleans(), min_size=y.size, max_size=y.size))
    x = np.array([labels[int(b)] for b in pick])
    assume(np.unique(x).size == 2 and np.unique(y).size > 1)
    return x, y


class TestTwoSampleIdentities:
    """The paper's two-sample identities over random tied samples."""

    @settings(deadline=None)
    @given(tied_two_samples(), st.booleans())
    def test_analyze_matches_the_public_functions(self, xy, small):
        x, y = xy
        try:
            rep = analyze(x, y, small_sample=small)
        except DegenerateScale:  # |r| = 1 or a zero pooled variance
            assume(False)
        # summed over the count table, the group summaries stay within
        # round-off of the per-row ones
        x01 = (x == np.unique(x)[1])
        for got, want in ((rep.g1, group_summary(y[~x01])),
                          (rep.g2, group_summary(y[x01]))):
            assert got.n == want.n
            assert_allclose([got.m, got.v], [want.m, want.v], rtol=1e-12)
        assert rep.combined == combine(rep.g1, rep.g2)
        assert rep.student == student_t(rep.g1, rep.g2)
        assert rep.correlation == correlation_stats(x, y)
        assert rep.wilcoxon == wilcoxon(x, y, small_sample=small)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(4, 800),
           st.integers(2, 400), st.integers(1, 8), st.booleans())
    def test_every_order_reads_the_order_one_row(self, seed, n, r, m, small):
        # r and w come from rows 0 and 1 of the LP row, each summed on its
        # own, so an order-m report gives the order-1 functions' bits
        x, y = tied_groups(seed, n, r)
        try:
            rep = analyze(x, y, m, small_sample=small)
        except DegenerateScale:  # |r| = 1 or a zero pooled variance
            assume(False)
        assert rep.correlation == correlation_stats(x, y)
        assert rep.wilcoxon == wilcoxon(x, y, small_sample=small)

    @settings(deadline=None)
    @given(st.lists(st.integers(-5, 5), min_size=2, max_size=60),
           st.sampled_from([(-2.0, 3.5), ("a", "b")]), st.data())
    def test_analyze_and_wilcoxon_agree_on_half_steps(self, ks, labels,
                                                      data):
        # a response on a 0.5 grid with no integer on it is sorted by
        # np.unique, not counted; analyze and wilcoxon share its Sample
        # and its cell table
        y = np.array(ks) * 0.5 + 0.25
        pick = data.draw(st.lists(st.booleans(), min_size=y.size,
                                  max_size=y.size))
        x = np.array([labels[int(b)] for b in pick])
        assume(np.unique(x).size == 2 and np.unique(y).size > 1)
        try:
            rep = analyze(x, y)
        except DegenerateScale:  # |r| = 1 or a zero pooled variance
            assume(False)
        assert rep.wilcoxon == wilcoxon(x, y)

    @settings(deadline=None)
    @given(tied_two_samples())
    def test_w_equals_w_direct(self, xy):
        res = wilcoxon(*xy)
        assert math.isclose(res.w, res.w_direct, rel_tol=1e-12,
                            abs_tol=1e-12)

    @settings(deadline=None)
    @given(tied_two_samples())
    def test_wilcoxon_is_the_first_high_order_comoment(self, xy):
        # Wilcoxon = LP(1, 1) and r = E[T_1(G) Z(Y)]: both are read from
        # the density's one LP row
        try:
            rep = analyze(*xy)
        except DegenerateScale:
            assume(False)
        assert rep.wilcoxon.w == rep.density.lp1k[0]
        assert rep.correlation.r == rep.density.r

    @settings(deadline=None)
    @given(tied_two_samples())
    def test_r2_is_t2_over_one_plus_t2(self, xy):
        try:
            rep = analyze(*xy)
        except DegenerateScale:
            assume(False)
        t = rep.student.t_core
        assert math.isclose(rep.correlation.r2, t ** 2 / (1.0 + t ** 2),
                            rel_tol=1e-12, abs_tol=1e-12)
        assert rep.identities_ok

    @given(tied_values)
    def test_recursive_fold_equals_batch(self, values):
        state = group_summary(values[:1])
        for v in values[1:]:
            state = recursive_update(state, v)
        batch = group_summary(values)
        assert state.n == batch.n
        # |y| <= 5: each of < 30 steps adds a few ulps of at most 25
        assert math.isclose(state.m, batch.m, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(state.v, batch.v, rel_tol=1e-12, abs_tol=1e-12)

    @given(tied_values, tied_values, tied_values)
    def test_combine_is_associative(self, a, b, c):
        def pooled(g, h):
            out = combine(g, h)
            return GroupSummary(n=out.n, m=out.m, v=out.v)

        ga, gb, gc = (group_summary(v) for v in (a, b, c))
        left = pooled(pooled(ga, gb), gc)
        right = pooled(ga, pooled(gb, gc))
        assert left.n == right.n
        assert math.isclose(left.m, right.m, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(left.v, right.v, rel_tol=1e-12, abs_tol=1e-12)


def tied_groups(seed, n, r):
    """Labels 0/1 and a response on r integers, both groups non-empty."""
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.full(r, rng.uniform(0.2, 2.0)))
    y = rng.choice(r, n, p=w).astype(float)
    x = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(float)
    assume(0 < x.sum() < n and np.unique(y).size > 1)
    return x, y


class TestScipyReferences:
    """The unified statistics against scipy's classical ones, with ties."""

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(4, 300),
           st.integers(2, 12))
    def test_small_sample_z_is_the_tie_corrected_mann_whitney_z(self, seed,
                                                                n, r):
        x, y = tied_groups(seed, n, r)
        high, low = y[x == 1.0], y[x == 0.0]
        mw = mannwhitneyu(high, low, use_continuity=False,
                          method="asymptotic")
        # scipy's two-sided p is 2 sf(|z|); U above its mean is z > 0
        z = math.copysign(norm.isf(mw.pvalue / 2.0),
                          mw.statistic - high.size * low.size / 2.0)
        assume(abs(z) < 8.0)  # beyond, the p-value round trip loses z
        got = wilcoxon(x, y, small_sample=True).z_stat
        assert math.isclose(got, z, rel_tol=1e-12, abs_tol=1e-12)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(4, 300),
           st.integers(2, 12))
    def test_analyze_t_is_the_pooled_student_t(self, seed, n, r):
        x, y = tied_groups(seed, n, r)
        try:
            rep = analyze(x, y)
        except DegenerateScale:  # |r| = 1 or a zero pooled variance
            assume(False)
        with warnings.catch_warnings():  # scipy warns on a constant group
            warnings.simplefilter("ignore", RuntimeWarning)
            ref = ttest_ind(y[x == 1.0], y[x == 0.0],
                            equal_var=True).statistic
        assert math.isclose(rep.student.t_scaled, ref, rel_tol=1e-12,
                            abs_tol=1e-12)


def exact_two_sample(values, cells, m, digits=60):
    """What `twosample` prints of a count table, in `digits`-digit decimals.

    `values` are the response atoms, ascending, each read exactly, and
    `cells` their integer counts by group (columns 0 and 1). Each number
    is taken from its definition: each group's mean and population
    variance, the pooled t_core (M1 - M0) sqrt(tau (1 - tau) / Vpool), and
    the LP row E[T_1(G) f(Y)] for f = Z, T_1..T_m, the scores built by
    `decimal_scores` from the exact masses and mid-distribution. r is the
    row's Z entry, lp1k the rest, and w = lp1k[0]; c is group 1's mean of
    each score, sum_a T_k(a) cells_1(a) / n_1. Returns floats.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        y = [Decimal(float(v)) for v in values]
        cells = [(int(a), int(b)) for a, b in cells]
        sizes = [sum(c[g] for c in cells) for g in (0, 1)]
        n = sum(sizes)
        groups = []
        for g, size in enumerate(sizes):
            mean = sum(c[g] * v for c, v in zip(cells, y)) / size
            groups.append((mean, sum(c[g] * (v - mean) ** 2
                                     for c, v in zip(cells, y)) / size))
        (m0, v0), (m1, v1) = groups
        tau = Decimal(sizes[1]) / n
        vpool = (sizes[0] * v0 + sizes[1] * v1) / n
        p = [Decimal(a + b) / n for a, b in cells]
        fmid = [cum - pi / 2 for cum, pi in zip(accumulate(p), p)]
        mean = sum(pi * v for pi, v in zip(p, y))
        sd = sum(pi * (v - mean) ** 2 for pi, v in zip(p, y)).sqrt()
        scores = decimal_scores(p, fmid, min(m, len(y) - 1))
        t1g = [(b - tau * (a + b)) / (n * (tau * (1 - tau)).sqrt())
               for a, b in cells]
        row = [sum(f * t for f, t in zip(fs, t1g))
               for fs in [[(v - mean) / sd for v in y], *scores]]
        return {"g0": (float(m0), float(v0)), "g1": (float(m1), float(v1)),
                "t_core": float((m1 - m0) * (tau * (1 - tau) / vpool).sqrt()),
                "r": float(row[0]), "lp1k": [float(v) for v in row[1:]],
                "c": [float(sum(f * b for f, (_, b) in zip(fs, cells))
                            / sizes[1]) for fs in scores]}


@st.composite
def small_tied_tables(draw, least=0):
    """Atoms of an integer or cent grid, up to 12, and their counts by group.

    Each atom holds 1 to 24 rows, at least `least` of each group, and each
    group at least one row, so n <= 288.
    """
    r = draw(st.integers(2, 12))
    atoms = draw(st.lists(st.integers(-10 ** 5, 10 ** 5), min_size=r,
                          max_size=r, unique=True))
    values = np.sort(atoms) / draw(st.sampled_from([1, 100]))
    cells = np.array(draw(st.lists(st.tuples(st.integers(least, 12),
                                             st.integers(least, 12)),
                                   min_size=r, max_size=r)))
    keep = cells.sum(axis=1) > 0
    assume(keep.sum() > 1 and np.all(cells[keep].sum(axis=0) > 0))
    return values[keep], cells[keep]


class TestExactReference:
    """The printed report against `exact_two_sample` on small tied tables.

    Each bound is in units of its quantity's scale: big = max |y| for the
    means, big^2 for the variances, (1 + |t|) big^2 / Vpool for t_core,
    the conditioning of the pooled variance, 1 for r, w and LP(1, k),
    which are correlations, and max(1, T_1(1)) for c = LP(1, k) T_1(1),
    T_1(1) = sqrt((1 - tau) / tau). Over 44000 random tables of this kind
    (r <= 12, n <= 288, m <= 8) and 20000 examples of this strategy, the
    largest gaps were 2.3e-16, 4.2e-16, 1.5e-16, 3.3e-16 for r and w,
    1.1e-15 for LP(1, k) and 9.2e-16 for c; each bound is three to seven
    times that.
    """

    @settings(deadline=None, max_examples=200)
    @given(small_tied_tables(), st.integers(1, 8))
    def test_the_report_is_near_the_exact_values(self, table, m):
        values, cells = table
        y = np.repeat(np.tile(values, 2), cells.T.ravel())
        x = np.repeat([0.0, 1.0], cells.sum(axis=0))
        try:
            rep = analyze(x, y, m, "none")
        except DegenerateScale:  # |r| = 1 or a zero pooled variance
            assume(False)
        exact = exact_two_sample(values, cells, m)
        big = float(np.max(np.abs(values)))
        for got, (mean, var) in ((rep.g1, exact["g0"]),
                                 (rep.g2, exact["g1"])):
            assert abs(got.m - mean) <= 1e-15 * big
            assert abs(got.v - var) <= 2e-15 * big ** 2
        t = exact["t_core"]
        assert abs(rep.student.t_core - t) <= (
            1e-15 * (1.0 + abs(t)) * big ** 2 / rep.combined.vpool)
        assert abs(rep.correlation.r - exact["r"]) <= 1e-15
        assert abs(rep.wilcoxon.w - exact["lp1k"][0]) <= 1e-15
        assert_allclose(rep.density.lp1k, exact["lp1k"], rtol=0, atol=4e-15)
        t1 = math.sqrt((1.0 - rep.density.tau) / rep.density.tau)
        assert_allclose(rep.density.c, exact["c"], rtol=0,
                        atol=4e-15 * max(1.0, t1))

    @settings(deadline=None, max_examples=200)
    @given(small_tied_tables(least=1))
    def test_classify_is_bayes_theorem(self, table):
        # At order r - 1 the density is group 1's share of each atom over
        # tau, so tau d(a) is that share, n1(a) / n(a). Every atom holds
        # both labels, so no atom is floored. The largest gap was 6.7e-16
        # over 18000 numpy tables of this kind (r <= 12, n <= 300) and
        # 5.6e-16 over 20000 examples of this strategy.
        values, cells = table
        y = np.repeat(np.tile(values, 2), cells.T.ravel())
        x = np.repeat([0.0, 1.0], cells.sum(axis=0))
        dens = two_sample_comp_density(x, y, m=values.size - 1, rule="none")
        assert_allclose(classify(dens, dens.by.source.values),
                        cells[:, 1] / cells.sum(axis=1), rtol=0, atol=2e-15)
