"""Orthonormal score construction and the shifted Legendre limit."""

import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss, legvander
from numpy.testing import assert_allclose

from lpstats import (
    build_score_basis,
    l2_fit,
    legendre_eval,
    lp_moments,
    make_sample,
    normal_reference,
    series_regression,
    two_sample_comp_density,
)
from lpstats.errors import (
    DegenerateSample,
    DomainError,
)
from lpstats.scores import MAX_ORDER

from conftest import decimal_scores, random_sample_values


def weighted_gram(basis, masses):
    t = basis.table
    return (t * masses) @ t.T


def gram_schmidt_reference(s, max_order):
    """Modified Gram-Schmidt on the powers of T_1.

    Two passes per power, masses as weights. A power whose residual norm
    falls below 1e-8 of its own norm ends the table, as the powers carry
    no reference past it. `build_score_basis` reaches the same spaces by
    the three-term recurrence.
    """
    p = s.masses
    t1 = (s.fmid - 0.5) / np.sqrt(s.mid_rank_variance)
    rows = []
    for k in range(1, min(max_order, s.r - 1) + 1):
        v = t1 ** k
        pre = np.sqrt(np.sum(p * v * v))
        for _ in range(2):
            v = v - np.sum(p * v)
            for w in rows:
                v = v - np.sum(p * v * w) * w
        nrm = np.sqrt(np.sum(p * v * v))
        if nrm < 1e-8 * pre:
            break
        rows.append(v / nrm)
    return np.array(rows).reshape(-1, s.r)


def decimal_reference(s, max_order, digits=60):
    """`decimal_scores` in `digits`-digit decimals of the Sample's own float
    `fmid` and `masses`, each converted exactly.

    The scores are the same functions of Fmid as those of the standardized
    mid-rank. Returns rows 1..max_order as floats.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        rows = decimal_scores([Decimal(float(v)) for v in s.masses],
                              [Decimal(float(v)) for v in s.fmid], max_order)
        return np.array([[float(v) for v in row] for row in rows])


@st.composite
def heavy_tie_counts(draw):
    """Atom counts of heavily tied samples with r <= 40 atoms.

    One atom of up to 2e5 among counts of 1..6, two such heavy ends, or
    counts falling geometrically from up to 2e5 (ratio 0.3..0.95, at least
    1 each): under the masses the powers of T_1 are far from independent.
    """
    r = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["atom", "ends", "geometric"]))
    if kind == "geometric":
        top = draw(st.integers(1, 200_000))
        q = draw(st.floats(0.3, 0.95))
        return np.maximum(1, np.round(top * q ** np.arange(r))).astype(int)
    counts = np.array(draw(st.lists(st.integers(1, 6), min_size=r,
                                    max_size=r)))
    for i in ([0, r - 1] if kind == "ends"
              else [draw(st.integers(0, r - 1))]):
        counts[i] = draw(st.integers(1, 200_000))
    return counts


class TestLegendreEval:
    def test_closed_forms(self):
        u = np.linspace(0.0, 1.0, 11)
        assert_allclose(legendre_eval(0, u), np.ones_like(u))
        assert_allclose(legendre_eval(1, u), np.sqrt(3) * (2 * u - 1),
                        rtol=1e-14)
        assert_allclose(legendre_eval(2, u),
                        np.sqrt(5) * (6 * u * u - 6 * u + 1), rtol=1e-13,
                        atol=1e-13)

    def test_continuum_orthonormality(self):
        # Gauss-Legendre quadrature integrates the products exactly
        nodes, w = leggauss(32)
        u = 0.5 * (nodes + 1.0)
        w = 0.5 * w
        for j in range(0, 9):
            for k in range(j, 9):
                ip = np.sum(w * legendre_eval(j, u) * legendre_eval(k, u))
                assert_allclose(ip, 1.0 if j == k else 0.0, atol=1e-13)

    def test_order_cap(self):
        # no cap above: orthonormal up to the highest order, under the
        # 128-node rule, which is exact to degree 255
        nodes, w = leggauss(128)
        u = 0.5 * (nodes + 1.0)
        table = np.array([legendre_eval(j, u)
                          for j in range(MAX_ORDER + 1)])
        assert_allclose((table * (0.5 * w)) @ table.T,
                        np.eye(MAX_ORDER + 1), rtol=0, atol=1e-12)
        with pytest.raises(DomainError):
            legendre_eval(-1, 0.3)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, MAX_ORDER), max_size=12),
           st.lists(st.floats(0.0, 1.0), max_size=30))
    def test_each_row_of_a_sequence_is_its_order_bit_for_bit(self, orders,
                                                             levels):
        u = np.array([0.0, 1.0] + levels)
        table = legendre_eval(orders, u)
        assert table.shape == (len(orders), u.size)
        assert table.flags.c_contiguous
        for row, j in zip(table, orders):
            one = legendre_eval(j, u)
            assert row.tobytes() == one.tobytes() == (
                legvander(2.0 * u - 1.0, j)[:, j]
                * np.sqrt(2.0 * j + 1.0)).tobytes()
            # a fresh row of its own, not a view into a wider table
            assert (one if one.base is None else one.base).nbytes == one.nbytes

    def test_sequence_shapes(self):
        assert legendre_eval([], np.arange(5) / 4).shape == (0, 5)
        assert legendre_eval([1, 2], 0.5).shape == (2,)
        assert legendre_eval([1, 2], np.zeros((3, 4))).shape == (2, 3, 4)
        with pytest.raises(DomainError):
            legendre_eval([1, -1], 0.3)


class TestBasisConstruction:
    def test_two_atom_sample_gives_sign_scores(self):
        s = make_sample([0.0, 1.0])
        b = build_score_basis(s, 1)
        assert_allclose(b.table, [[-1.0, 1.0]], atol=1e-14)

    def test_first_score_is_standardized_mid_rank(self):
        rng = np.random.default_rng(10)
        x = random_sample_values(rng, 100)
        s = make_sample(x)
        b = build_score_basis(s, 3)
        u = s.fmid
        expected = (u - 0.5) / np.sqrt(s.mid_rank_variance)
        assert_allclose(b.table[0], expected, rtol=1e-12)

    def test_row_zero_is_the_standardized_value(self):
        # Z sits above the scores in one read-only array, and `table` is a
        # contiguous view of the scores; a spread that underflows (sd 0)
        # leaves a zero row
        s = make_sample([3.0, 1.0, 4.0, 1.0, 5.0])
        b = build_score_basis(s, 3)
        assert b.rows.shape == (4, s.r) and not b.rows.flags.writeable
        assert b.rows[0].tobytes() == ((s.values - s.mean) / s.sd).tobytes()
        assert b.table.flags.c_contiguous and not b.table.flags.writeable
        assert np.shares_memory(b.table, b.rows[1:])
        tiny = build_score_basis(make_sample(np.arange(5.0) * 1e-300), 2)
        assert tiny.source.sd == 0.0
        assert tiny.rows[0].tobytes() == bytes(8 * 5)

    def test_orthonormal_under_sample_weights(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            tied = bool(rng.integers(0, 2))
            x = random_sample_values(rng, int(rng.integers(6, 300)), tied)
            s = make_sample(x)
            m = min(4, s.r - 1)
            if m < 1:
                continue
            b = build_score_basis(s, m)
            assert_allclose(b.table @ s.masses, 0.0, atol=1e-12)
            assert_allclose(weighted_gram(b, s.masses), np.eye(b.max_order),
                            atol=1e-12)

    def test_order_clipped_to_atoms_minus_one(self):
        s = make_sample([1.0, 1.0, 2.0, 3.0])  # r = 3
        m = 6
        b = build_score_basis(s, m)
        assert b.max_order == 2 < m

    def test_one_heavy_atom_builds_every_order(self):
        # one atom carries almost all the mass: under the sample weights
        # the powers of T_1 are nearly dependent, but the recurrence never
        # forms them and builds every order to r - 1
        x = np.repeat(np.arange(13.0), [200000] + [1] * 12)
        b = build_score_basis(make_sample(x), 12)
        assert b.max_order == 12
        assert b.gram_error < 1e-10

    def test_order_far_above_what_the_data_carries(self):
        # a request far beyond MAX_ORDER reserves no rows past it
        s = make_sample(np.random.default_rng(17).standard_normal(100_000))
        b = build_score_basis(s, 10**6)
        assert b.max_order == MAX_ORDER < 10**6
        assert b.table.shape == (MAX_ORDER, s.r)
        assert b.gram_error < 1e-10

    def test_a_basis_holds_two_scratch_rows(self):
        # Z is written into its row in place and each projection into the
        # one product buffer, so an untied build peaks at its rows and two
        # rows of r floats (t1 and that buffer) at order 4; a fresh Z and
        # a fresh projection row per pass made it three
        s = make_sample(np.random.default_rng(56).standard_normal(20_000))
        build_score_basis(s, 4)  # lazy set-up is not the build's
        tracemalloc.start()
        try:
            b = build_score_basis(s, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (len(b.rows) + 2.5) * s.r * 8

    @settings(deadline=None, max_examples=100)
    @given(heavy_tie_counts())
    def test_every_order_matches_a_60_digit_build(self, counts):
        # the recurrence with its re-orthogonalization pass is accurate at
        # every order to r - 1 on heavy ties. Over 10000 random draws of
        # this kind, 3000 of them geometric counts on 30..40 atoms, the
        # largest gap was 5.4e-11 of the row's largest score
        s = make_sample(np.repeat(np.arange(counts.size), counts))
        b = build_score_basis(s, MAX_ORDER)
        assert b.max_order == s.r - 1
        ref = decimal_reference(s, b.max_order)
        gap = np.max(np.abs(b.table - ref), axis=1)
        assert np.all(gap <= 1e-10 * np.max(np.abs(ref), axis=1))

    def test_single_atom_rejected(self):
        with pytest.raises(DegenerateSample):
            build_score_basis(make_sample([7.0, 7.0]), 1)

    def test_rank_only_dependence(self):
        # any strictly increasing transform leaves every score unchanged
        rng = np.random.default_rng(12)
        x = random_sample_values(rng, 150)
        b1 = build_score_basis(make_sample(x), 4)
        b2 = build_score_basis(make_sample(np.exp(0.3 * x)), 4)
        assert_allclose(b1.table, b2.table, atol=1e-11)

    @settings(deadline=None, max_examples=300)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(6, 400),
           st.integers(1, 8))
    def test_recurrence_matches_gram_schmidt_on_powers(self, seed, tied, n,
                                                       order):
        s = make_sample(random_sample_values(np.random.default_rng(seed), n,
                                             tied))
        assume(s.r >= 2)
        b = build_score_basis(s, order)
        table = gram_schmidt_reference(s, order)
        assert b.max_order == table.shape[0]
        assert_allclose(b.table, table, rtol=0, atol=1e-10)

    @settings(deadline=None, max_examples=200)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["tied", "untied",
                                                       "rounded"]),
           st.integers(3, 1000), st.integers(1, 30), st.integers(0, 30))
    def test_a_lower_order_is_a_prefix_bit_for_bit(self, seed, kind, n, m,
                                                  extra):
        # so an analysis at order m needs no order of its own: it is the
        # analysis of the basis built at m
        rng = np.random.default_rng(seed)
        x = random_sample_values(rng, n, kind == "tied")
        s = make_sample(np.round(x, 1) if kind == "rounded" else x)
        assume(s.r >= 2)
        small = build_score_basis(s, m).table
        big = build_score_basis(s, m + extra).table
        assert small.shape == big[:m].shape
        assert small.tobytes() == big[:m].tobytes()

    def test_legendre_limit_for_continuous_data(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(1500)
        s = make_sample(x)
        b = build_score_basis(s, 4)
        for j in range(1, 5):
            ref = legendre_eval(j, s.fmid)
            assert np.max(np.abs(b.table[j - 1] - ref)) < 0.05


class TestScoreMeans:
    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(20, 3000),
           st.integers(1, MAX_ORDER - 1), st.integers(1, MAX_ORDER - 1))
    def test_a_lower_order_is_a_byte_prefix_of_every_estimate(
            self, seed, tied, n, a, b):
        # each score row is summed on its own, so the LP moments, the
        # regression coefficients, the comparison-density coefficients and
        # the two-sample slice c and LP(1, k) at order m are the first m of
        # those at order M, byte for byte, and the largest |E[T_j]| of the
        # first m rows is at most that of M
        rng = np.random.default_rng(seed)
        x = random_sample_values(rng, n, tied)
        y = x + rng.standard_normal(n)
        group = rng.permutation(n) < rng.integers(1, n)  # both labels
        s = make_sample(x)
        big = min(1 + max(a, b), s.r - 1)
        small = min(a, b, big - 1)
        assume(small >= 1)
        g = normal_reference(s.mean, s.sd)

        def estimates(m):
            basis = build_score_basis(s, m)
            dens = two_sample_comp_density(group, x, m, "none")
            return (basis.mean_error, lp_moments(basis).moments,
                    series_regression(basis, y, rule="none").coefficients,
                    l2_fit(s, g, m, rule="none").c, dens.c, dens.lp1k)

        (lo_error, *low), (hi_error, *high) = estimates(small), estimates(big)
        assert lo_error <= hi_error
        for lo, hi in zip(low, high):
            assert lo.size == small
            assert hi.tobytes().startswith(lo.tobytes())


class TestDiagnostics:
    def test_reported_errors_are_tiny(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            s = make_sample(random_sample_values(rng, 500))
            b = build_score_basis(s, min(4, s.r - 1))
            assert b.mean_error < 1e-12
            assert b.gram_error < 1e-12

    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.integers(1, 6), min_size=2, max_size=16),
           st.integers(0, 15), st.integers(1, 200_000), st.integers(1, 12))
    def test_tied_bases_are_orthonormal_to_full_order(
            self, counts, heavy, weight, order):
        # one atom may carry most of the mass, which makes high powers of
        # T_1 numerically dependent on the lower ones; every order is
        # still built
        counts[heavy % len(counts)] = weight
        s = make_sample(np.repeat(np.arange(len(counts), dtype=float), counts))
        b = build_score_basis(s, order)
        assert b.max_order == min(order, s.r - 1)
        assert b.gram_error < 1e-10
        assert b.mean_error < 1e-10
